//! Causal tracing: trace contexts, phase spans and the flight recorder.
//!
//! The metrics registry answers *how long* an operation took; this module
//! answers *where the time went*. Every device operation opens an **op
//! span** carrying a [`TraceContext`] (trace id, span id, parent id); the
//! protocol and runtime layers open child **phase spans** around each leg
//! — the coordinator's local install, each per-site scatter send, each
//! gather wait, the remote apply on the serving site, cache flushes.
//! Contexts cross the coordinator's `ServerCluster<T>` seam through a
//! thread-local and cross the wire through an optional trace envelope, so
//! the spans recorded on every site stitch into one causal tree per
//! operation.
//!
//! Spans land in a bounded, lock-free, **crash-survivable flight
//! recorder**: a fixed ring of atomic slots written with a seqlock
//! protocol. Writers never block and never allocate; readers
//! ([`snapshot`]) validate each slot's sequence word before and after
//! copying it and simply drop records torn by a concurrent writer. The
//! recorder is diagnostics-grade by design — under extreme wrap-around a
//! record can be lost, never corrupted.
//!
//! Tracing has its own switch, separate from the observer facade:
//! [`enable`] also turns the base [`enabled`](crate::enabled) flag on, so
//! instrumented hot paths only ever test the one base flag and consult
//! [`enabled`](self::enabled) on the already-cold observed path.
//!
//! # Examples
//!
//! ```
//! use blockrep_obs::trace;
//!
//! trace::clear();
//! trace::enable();
//! let op = trace::phase_id("op.demo");
//! let leg = trace::phase_id("phase.leg");
//! {
//!     let _op = trace::start_op(op, 0);
//!     let _leg = trace::start_phase(leg, 0);
//! }
//! trace::disable();
//! let records = trace::snapshot();
//! assert_eq!(records.len(), 2);
//! let json = trace::chrome_trace_json(&records);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of slots in the flight recorder ring. A power of two so the
/// ticket-to-slot map is a mask. At 7 words per slot this is ~900 KiB —
/// enough for thousands of operations' phase spans, small enough to sit in
/// the binary forever.
pub const RING_SLOTS: usize = 16 * 1024;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether causal tracing is on. Hot paths must check the cheaper base
/// [`enabled`](crate::enabled) flag first; this flag only distinguishes
/// "metrics only" from "metrics + flight recorder" on the observed path.
#[inline]
pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns causal tracing on. Also enables the base observability flag:
/// tracing implies observability, so instrumented code needs only the one
/// base branch when everything is off.
pub fn enable() {
    crate::enable();
    TRACING.store(true, Ordering::Relaxed);
}

/// Turns causal tracing off (the base observability flag is left alone).
pub fn disable() {
    TRACING.store(false, Ordering::Relaxed);
}

/// The causal identity a span runs under, propagated across threads and —
/// via the wire trace envelope — across sites.
///
/// `parent == 0` marks a root (operation) span; span ids are allocated
/// from a process-wide counter starting at 1, so 0 is never a real id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole causal tree (the device operation).
    pub trace_id: u64,
    /// This span's own id.
    pub span_id: u64,
    /// The parent span's id, or 0 for a root span.
    pub parent: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context of the innermost open op/remote span on this thread,
/// if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Installs `ctx` as the current context, restoring the previous one when
/// the returned guard drops. Used by code that adopts a context it did not
/// open a span for (e.g. a drain thread finishing work for an op).
pub fn push_context(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    ContextGuard { prev }
}

/// Restores the previously current [`TraceContext`] on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| c.set(prev));
    }
}

// ---------------------------------------------------------------------------
// Phase interning
// ---------------------------------------------------------------------------

static PHASES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Interns a phase name, returning its stable numeric id. Call sites cache
/// the id in a `OnceLock` so the mutex is touched once per phase per
/// process.
pub fn phase_id(name: &'static str) -> u32 {
    let mut phases = PHASES.lock().expect("phase table lock");
    if let Some(i) = phases.iter().position(|&p| p == name) {
        return i as u32;
    }
    phases.push(name);
    (phases.len() - 1) as u32
}

/// The name a phase id was interned under, or `"?"` for an unknown id.
pub fn phase_name(id: u32) -> &'static str {
    PHASES
        .lock()
        .expect("phase table lock")
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (first use wins). Monotonic
/// and shared by every thread, so span intervals are directly comparable.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One completed span copied out of the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Identity of the causal tree this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Interned phase id; resolve with [`phase_name`].
    pub phase: u32,
    /// The site the span ran on.
    pub site: u32,
    /// Start, in [`now_ns`] nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant marks).
    pub dur_ns: u64,
}

/// One ring slot: a seqlock word plus six payload words. `seq == 0` means
/// empty-or-being-written; a writer holding ticket `t` publishes `t + 1`.
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    /// `phase << 32 | site`.
    meta: AtomicU64,
    start: AtomicU64,
    dur: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start: AtomicU64::new(0),
            dur: AtomicU64::new(0),
        }
    }
}

struct FlightRecorder {
    head: AtomicU64,
    slots: Vec<Slot>,
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder {
        head: AtomicU64::new(0),
        slots: (0..RING_SLOTS).map(|_| Slot::new()).collect(),
    })
}

/// Appends a span record to the flight recorder. Lock-free and
/// allocation-free: one `fetch_add` for the ticket, seven atomic stores.
pub fn record(rec: SpanRecord) {
    let r = recorder();
    let ticket = r.head.fetch_add(1, Ordering::Relaxed);
    let slot = &r.slots[(ticket as usize) & (RING_SLOTS - 1)];
    // Invalidate first so a concurrent reader rejects the slot, then write
    // the payload, then publish the new sequence. The release fence keeps
    // the payload stores from becoming visible before the invalidation: a
    // reader whose relaxed payload loads observe any of them synchronizes
    // with it through its own acquire fence, so its re-read of `seq` sees
    // the zero (or a later value) and rejects the mixed record.
    slot.seq.store(0, Ordering::Relaxed);
    std::sync::atomic::fence(Ordering::Release);
    slot.trace.store(rec.trace_id, Ordering::Relaxed);
    slot.span.store(rec.span_id, Ordering::Relaxed);
    slot.parent.store(rec.parent, Ordering::Relaxed);
    slot.meta.store(
        (u64::from(rec.phase) << 32) | u64::from(rec.site),
        Ordering::Relaxed,
    );
    slot.start.store(rec.start_ns, Ordering::Relaxed);
    slot.dur.store(rec.dur_ns, Ordering::Relaxed);
    slot.seq.store(ticket + 1, Ordering::Release);
}

/// Copies every valid record out of the flight recorder, sorted by start
/// time (then span id for a stable order). Records a writer is mid-way
/// through are skipped, not torn.
pub fn snapshot() -> Vec<SpanRecord> {
    let r = recorder();
    let mut out = Vec::new();
    for slot in &r.slots {
        let seq1 = slot.seq.load(Ordering::Acquire);
        if seq1 == 0 {
            continue;
        }
        let rec = SpanRecord {
            trace_id: slot.trace.load(Ordering::Relaxed),
            span_id: slot.span.load(Ordering::Relaxed),
            parent: slot.parent.load(Ordering::Relaxed),
            phase: (slot.meta.load(Ordering::Relaxed) >> 32) as u32,
            site: slot.meta.load(Ordering::Relaxed) as u32,
            start_ns: slot.start.load(Ordering::Relaxed),
            dur_ns: slot.dur.load(Ordering::Relaxed),
        };
        // The acquire fence orders the payload loads above before the
        // re-read of `seq`: if any load saw a concurrent writer's payload,
        // the fence pairs with the writer's release fence and `seq2` picks
        // up its invalidation, failing the seq1 == seq2 check.
        std::sync::atomic::fence(Ordering::Acquire);
        let seq2 = slot.seq.load(Ordering::Relaxed);
        if seq1 == seq2 {
            out.push(rec);
        }
    }
    out.sort_by_key(|r| (r.start_ns, r.span_id));
    out
}

/// Empties the flight recorder (each slot's sequence word is zeroed; the
/// ticket counter keeps advancing, which the protocol tolerates).
pub fn clear() {
    let r = recorder();
    for slot in &r.slots {
        slot.seq.store(0, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------------

/// A live span; records itself into the flight recorder on drop.
#[must_use = "a span measures until its guard drops; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct Span {
    ctx: TraceContext,
    phase: u32,
    site: u32,
    start_ns: u64,
    /// The previously current context, restored on drop — every span
    /// installs its context thread-locally for its lifetime.
    restore: Option<Option<TraceContext>>,
}

impl Span {
    /// This span's trace context (what a child on another thread or site
    /// must be parented under).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        record(SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent: self.ctx.parent,
            phase: self.phase,
            site: self.site,
            start_ns: self.start_ns,
            dur_ns: now_ns().saturating_sub(self.start_ns),
        });
        if let Some(prev) = self.restore.take() {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

/// Opens an operation span on `site` and installs its context as current.
/// If a context is already current (e.g. a repair running inside a
/// recovery sweep) the new span nests under it; otherwise it roots a new
/// trace.
pub fn start_op(phase: u32, site: u32) -> Span {
    let ctx = match current() {
        Some(parent) => TraceContext {
            trace_id: parent.trace_id,
            span_id: next_id(),
            parent: parent.span_id,
        },
        None => {
            let id = next_id();
            TraceContext {
                trace_id: id,
                span_id: id,
                parent: 0,
            }
        }
    };
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    Span {
        ctx,
        phase,
        site,
        start_ns: now_ns(),
        restore: Some(prev),
    }
}

/// Opens a span on a serving site for work caused by a remote coordinator:
/// the identifiers arrived over the wire (or channel), so the recorded
/// span stitches into the coordinator's tree. Installs its context as
/// current for the duration.
pub fn start_remote(trace_id: u64, parent: u64, phase: u32, site: u32) -> Span {
    let ctx = TraceContext {
        trace_id,
        span_id: next_id(),
        parent,
    };
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    Span {
        ctx,
        phase,
        site,
        start_ns: now_ns(),
        restore: Some(prev),
    }
}

/// Opens a phase span as a child of the current context, or returns `None`
/// when no op span is open (phases are only meaningful inside an
/// operation). The phase installs its context for its lifetime, so work
/// issued *inside* it — including RPCs whose remote spans arrive by
/// envelope — parents under the phase rather than the op; phases opened
/// sequentially (the normal shape) still land as siblings off the op span.
pub fn start_phase(phase: u32, site: u32) -> Option<Span> {
    let parent = current()?;
    let ctx = TraceContext {
        trace_id: parent.trace_id,
        span_id: next_id(),
        parent: parent.span_id,
    };
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    Some(Span {
        ctx,
        phase,
        site,
        start_ns: now_ns(),
        restore: Some(prev),
    })
}

/// Records an instantaneous mark (duration 0) under the current context,
/// if one is open. Used for point decisions like the early-quorum cut and
/// injected faults.
pub fn instant(phase: u32, site: u32) {
    if let Some(parent) = current() {
        record(SpanRecord {
            trace_id: parent.trace_id,
            span_id: next_id(),
            parent: parent.span_id,
            phase,
            site,
            start_ns: now_ns(),
            dur_ns: 0,
        });
    }
}

// ---------------------------------------------------------------------------
// Export & analysis
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_us(ns: u64, out: &mut String) {
    // Microseconds with millisecond-independent 3-decimal precision,
    // rendered without float formatting surprises.
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

/// Renders records as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON Array Format" with a `traceEvents` wrapper). Every span
/// becomes a complete (`"ph":"X"`) event: `pid` is always 1, `tid` is the
/// site, and the args carry the causal identifiers as strings (u64 ids do
/// not fit JavaScript numbers).
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(phase_name(r.phase), &mut out);
        out.push_str("\",\"cat\":\"blockrep\",\"ph\":\"X\",\"ts\":");
        push_us(r.start_ns, &mut out);
        out.push_str(",\"dur\":");
        push_us(r.dur_ns, &mut out);
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&r.site.to_string());
        out.push_str(",\"args\":{\"trace\":\"");
        out.push_str(&r.trace_id.to_string());
        out.push_str("\",\"span\":\"");
        out.push_str(&r.span_id.to_string());
        out.push_str("\",\"parent\":\"");
        out.push_str(&r.parent.to_string());
        out.push_str("\"}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Validates a Chrome trace-event JSON dump (the output of
/// [`chrome_trace_json`], as `blockrep trace --out` and the chaos runner's
/// flight recorder write it): a `traceEvents` array of complete events,
/// each with the fields the trace viewer requires and the causal args the
/// tracer always writes. Reads the text with the minimal JSON reader below
/// (the workspace has no JSON dependency).
///
/// # Errors
///
/// The first structural problem found.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"traceEvents\" array")?;
    doc.get("displayTimeUnit")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"displayTimeUnit\"")?;
    for (i, e) in events.iter().enumerate() {
        for key in ["name", "cat", "ph"] {
            e.get(key)
                .and_then(JsonValue::as_str)
                .ok_or(format!("traceEvents[{i}]: missing string field {key:?}"))?;
        }
        if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
            return Err(format!("traceEvents[{i}].ph is not \"X\""));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            e.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("traceEvents[{i}]: missing numeric field {key:?}"))?;
        }
        let args = e
            .get("args")
            .ok_or(format!("traceEvents[{i}]: missing \"args\""))?;
        for key in ["trace", "span", "parent"] {
            let id = args
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or(format!("traceEvents[{i}].args: missing {key:?}"))?;
            id.parse::<u64>()
                .map_err(|_| format!("traceEvents[{i}].args.{key} is not a u64 string"))?;
        }
    }
    Ok(())
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Bool(bool),
    /// Any number, parsed as `f64`.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object.
    fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        other => {
                            return Err(format!(
                                "unsupported escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().ok_or("truncated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
}

/// Parses a JSON document; errors carry the byte offset of the first
/// syntax error.
fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Aggregate of one phase across a set of records.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name.
    pub name: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// Groups records by phase, sorted by descending total time.
pub fn phase_stats(records: &[SpanRecord]) -> Vec<PhaseStat> {
    let mut stats: Vec<PhaseStat> = Vec::new();
    for r in records {
        let name = phase_name(r.phase);
        match stats.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.count += 1;
                s.total_ns += r.dur_ns;
                s.max_ns = s.max_ns.max(r.dur_ns);
            }
            None => stats.push(PhaseStat {
                name,
                count: 1,
                total_ns: r.dur_ns,
                max_ns: r.dur_ns,
            }),
        }
    }
    stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    stats
}

/// How much of a root (operation) span's wall time its direct child phase
/// spans account for.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The op span id the breakdown is for.
    pub root_span: u64,
    /// The op phase name.
    pub root_phase: &'static str,
    /// Op span wall time, nanoseconds.
    pub op_ns: u64,
    /// Sum of the direct children's durations, nanoseconds.
    pub attributed_ns: u64,
    /// Direct children grouped by phase.
    pub phases: Vec<PhaseStat>,
}

impl Attribution {
    /// `attributed_ns / op_ns` (0.0 for a zero-length op span).
    pub fn fraction(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            self.attributed_ns as f64 / self.op_ns as f64
        }
    }
}

/// Per-phase attribution for the span `root` (usually a root op span):
/// sums the durations of its *direct* children — deeper descendants (e.g.
/// a remote apply under a scatter send) describe overlap on other
/// threads, not coordinator wall time, so counting them would double-book.
pub fn attribution_for(records: &[SpanRecord], root: u64) -> Option<Attribution> {
    let root_rec = records.iter().find(|r| r.span_id == root)?;
    // Clip each child to the root's interval: a child that outlives the op
    // only accounts for the portion overlapping the op's wall time, so the
    // attributed fraction stays meaningful as "where the op's time went".
    let root_end = root_rec.start_ns.saturating_add(root_rec.dur_ns);
    let children: Vec<SpanRecord> = records
        .iter()
        .filter(|r| r.parent == root)
        .map(|r| {
            let start = r.start_ns.max(root_rec.start_ns);
            let end = r.start_ns.saturating_add(r.dur_ns).min(root_end);
            SpanRecord {
                start_ns: start,
                dur_ns: end.saturating_sub(start),
                ..*r
            }
        })
        .collect();
    Some(Attribution {
        root_span: root,
        root_phase: phase_name(root_rec.phase),
        op_ns: root_rec.dur_ns,
        attributed_ns: children.iter().map(|r| r.dur_ns).sum(),
        phases: phase_stats(&children),
    })
}

/// Attribution for every root span (parent 0), in start order.
pub fn attributions(records: &[SpanRecord]) -> Vec<Attribution> {
    records
        .iter()
        .filter(|r| r.parent == 0)
        .filter_map(|r| attribution_for(records, r.span_id))
        .collect()
}

/// A human-readable per-phase attribution table for a set of records: one
/// block per root op span with its direct-phase breakdown and attributed
/// fraction.
pub fn attribution_table(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    let all = attributions(records);
    if all.is_empty() {
        out.push_str("no root spans recorded\n");
        return out;
    }
    for a in &all {
        out.push_str(&format!(
            "op {} (span {}): {:.3} ms, {:.1}% attributed\n",
            a.root_phase,
            a.root_span,
            a.op_ns as f64 / 1e6,
            a.fraction() * 100.0
        ));
        for p in &a.phases {
            out.push_str(&format!(
                "  {:<24} x{:<4} total {:>10.3} ms  max {:>10.3} ms\n",
                p.name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.max_ns as f64 / 1e6
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The flight recorder and phase table are process-global; tests run in
    // one binary, so each uses distinct phase names and filters snapshots
    // by its own trace ids instead of clearing.

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn phase_interning_is_stable() {
        let a = phase_id("t.phase.alpha");
        let b = phase_id("t.phase.beta");
        assert_ne!(a, b);
        assert_eq!(phase_id("t.phase.alpha"), a);
        assert_eq!(phase_name(a), "t.phase.alpha");
        assert_eq!(phase_name(u32::MAX), "?");
    }

    #[test]
    fn op_and_phase_spans_form_a_tree() {
        let op_phase = phase_id("t.tree.op");
        let leg_phase = phase_id("t.tree.leg");
        let trace_id;
        {
            let op = start_op(op_phase, 0);
            trace_id = op.context().trace_id;
            assert_eq!(current(), Some(op.context()));
            {
                let leg = start_phase(leg_phase, 1).expect("op context is current");
                // The phase is current while open, so nested work (e.g. a
                // traced RPC) parents under it ...
                assert_eq!(current(), Some(leg.context()));
                assert_eq!(leg.context().parent, op.context().span_id);
            }
            // ... and the op context is restored once it closes.
            assert_eq!(current(), Some(op.context()));
        }
        assert_eq!(current(), None);

        let records: Vec<SpanRecord> = snapshot()
            .into_iter()
            .filter(|r| r.trace_id == trace_id)
            .collect();
        assert_eq!(records.len(), 2);
        let root = records.iter().find(|r| r.parent == 0).expect("root span");
        assert_eq!(root.phase, op_phase);
        let leg = records.iter().find(|r| r.parent != 0).expect("leg span");
        assert_eq!(leg.parent, root.span_id);
        assert_eq!(leg.site, 1);
        assert!(leg.start_ns >= root.start_ns);
    }

    #[test]
    fn remote_spans_stitch_into_the_callers_tree() {
        let op_phase = phase_id("t.remote.op");
        let remote_phase = phase_id("t.remote.apply");
        let (trace_id, op_span);
        {
            let op = start_op(op_phase, 0);
            trace_id = op.context().trace_id;
            op_span = op.context().span_id;
            // Simulate the serving site: only the two ids crossed the wire.
            let handle = std::thread::spawn(move || {
                assert_eq!(current(), None, "contexts are thread-local");
                let _remote = start_remote(trace_id, op_span, remote_phase, 2);
            });
            handle.join().expect("remote thread");
        }
        let records: Vec<SpanRecord> = snapshot()
            .into_iter()
            .filter(|r| r.trace_id == trace_id)
            .collect();
        assert_eq!(records.len(), 2);
        let remote = records.iter().find(|r| r.site == 2).expect("remote span");
        assert_eq!(remote.parent, op_span);
    }

    #[test]
    fn nested_ops_chain_parents() {
        let outer_phase = phase_id("t.nest.outer");
        let inner_phase = phase_id("t.nest.inner");
        let trace_id;
        {
            let outer = start_op(outer_phase, 0);
            trace_id = outer.context().trace_id;
            let inner = start_op(inner_phase, 0);
            assert_eq!(inner.context().trace_id, trace_id);
            assert_eq!(inner.context().parent, outer.context().span_id);
            drop(inner);
            assert_eq!(current(), Some(outer.context()));
        }
        assert_eq!(current(), None);
        let _ = trace_id;
    }

    #[test]
    fn instant_records_zero_duration_under_current() {
        let op_phase = phase_id("t.instant.op");
        let mark_phase = phase_id("t.instant.mark");
        // No context: a mark outside any op is dropped.
        instant(mark_phase, 0);
        let trace_id;
        {
            let op = start_op(op_phase, 0);
            trace_id = op.context().trace_id;
            instant(mark_phase, 3);
        }
        let records: Vec<SpanRecord> = snapshot()
            .into_iter()
            .filter(|r| r.trace_id == trace_id && r.phase == mark_phase)
            .collect();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].dur_ns, 0);
        assert_eq!(records[0].site, 3);
    }

    #[test]
    fn chrome_json_is_well_formed_and_attribution_sums_children() {
        let op_phase = phase_id("t.json.op");
        let leg_phase = phase_id("t.json.leg");
        let trace_id;
        {
            let op = start_op(op_phase, 0);
            trace_id = op.context().trace_id;
            // Sequential phases (the normal shape) are siblings off the op.
            drop(start_phase(leg_phase, 0));
            drop(start_phase(leg_phase, 1));
        }
        let records: Vec<SpanRecord> = snapshot()
            .into_iter()
            .filter(|r| r.trace_id == trace_id)
            .collect();
        assert_eq!(records.len(), 3);

        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("t.json.op"));
        assert_eq!(json.matches("{\"name\":").count(), 3);

        let root = records.iter().find(|r| r.parent == 0).expect("root");
        let a = attribution_for(&records, root.span_id).expect("attribution");
        assert_eq!(a.root_phase, "t.json.op");
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].count, 2);
        let child_sum: u64 = records
            .iter()
            .filter(|r| r.parent == root.span_id)
            .map(|r| r.dur_ns)
            .sum();
        assert_eq!(a.attributed_ns, child_sum);
        assert!(a.fraction() <= 1.0 + f64::EPSILON);

        let table = attribution_table(&records);
        assert!(table.contains("t.json.op"));
        assert!(table.contains("% attributed"));
    }

    #[test]
    fn chrome_trace_validator_accepts_tracer_output_and_rejects_damage() {
        let records = [SpanRecord {
            trace_id: 7,
            span_id: 8,
            parent: 0,
            phase: phase_id("t.validate.op"),
            site: 0,
            start_ns: 1_500,
            dur_ns: 2_000,
        }];
        let good = chrome_trace_json(&records);
        validate_chrome_trace(&good).unwrap();
        assert!(validate_chrome_trace(&good.replace("\"ph\":\"X\"", "\"ph\":\"B\"")).is_err());
        assert!(validate_chrome_trace(&good.replace("traceEvents", "events")).is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(&format!("{good} trailing")).is_err());
    }

    #[test]
    fn json_reader_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e1, "x\"y\n"], "b": {"c": null, "d": true}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            JsonValue::Number(-25.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2],
            JsonValue::String("x\"y\n".into())
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json(r#"[1, 2"#).is_err());
    }

    #[test]
    fn recorder_survives_wraparound_without_tearing() {
        let phase = phase_id("t.wrap");
        // Write more records than the ring holds; every surviving record
        // must be internally consistent.
        for i in 0..(RING_SLOTS as u64 + 100) {
            record(SpanRecord {
                trace_id: u64::MAX - 1,
                span_id: i + 1,
                parent: 0,
                phase,
                site: 7,
                start_ns: i,
                dur_ns: i,
            });
        }
        let records: Vec<SpanRecord> = snapshot()
            .into_iter()
            .filter(|r| r.trace_id == u64::MAX - 1)
            .collect();
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(r.start_ns, r.dur_ns, "torn record");
            assert_eq!(r.site, 7);
        }
    }

    #[test]
    fn enable_implies_base_observability() {
        let was_on = crate::enabled();
        enable();
        assert!(enabled());
        assert!(crate::enabled());
        disable();
        assert!(!enabled());
        if !was_on {
            crate::disable();
        }
    }
}
