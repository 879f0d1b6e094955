//! One traced workload, for `blockrep trace`.
//!
//! [`capture`] arms the flight recorder, drives a batch of block writes on
//! one (scheme × runtime × io-mode) case and reads the per-phase breakdown
//! out of the recorded span tree. The case is wrapped in a private
//! `bench.case` span so its trace id isolates its records from anything
//! else the process traced; the device ops then nest under it, and the
//! attribution sums the durations of each op span's *direct* children
//! (remote applies are grandchildren under the scatter send legs, so
//! thread-parallel overlap is never double-booked).
//!
//! [`validate_chrome_trace`] checks a Chrome trace-event dump — the output
//! of `blockrep trace --out` and of the chaos runner's flight recorder —
//! with the minimal JSON reader at the bottom of this file (the workspace
//! has no JSON dependency).

use blockrep_core::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
use blockrep_net::DeliveryMode;
use blockrep_obs::trace;
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::sync::Mutex;

/// The global tracer (flag, ring, id counter) is process-wide; cases must
/// not interleave with each other. Held for the duration of one case.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// Parameters of one traced run.
#[derive(Debug, Clone, Copy)]
pub struct TraceBenchConfig {
    /// Number of replica sites.
    pub sites: usize,
    /// Blocks written per case.
    pub blocks: u64,
    /// Bytes per block.
    pub block_size: usize,
    /// Network cost model (recorded for context).
    pub mode: DeliveryMode,
    /// Emulated one-way link delay in microseconds for the live and TCP
    /// runtimes. The default is LAN-order so transport phases dominate the
    /// coordinator's wall time.
    pub link_latency_us: u64,
}

impl TraceBenchConfig {
    /// The default: 64 blocks on a 3-site device.
    pub fn new() -> TraceBenchConfig {
        TraceBenchConfig {
            sites: 3,
            blocks: 64,
            block_size: 512,
            mode: DeliveryMode::Multicast,
            link_latency_us: 300,
        }
    }

    fn device(&self, scheme: Scheme) -> DeviceConfig {
        DeviceConfig::builder(scheme)
            .sites(self.sites)
            .num_blocks(self.blocks)
            .block_size(self.block_size)
            .build()
            .expect("benchmark device config")
    }
}

impl Default for TraceBenchConfig {
    fn default() -> TraceBenchConfig {
        TraceBenchConfig::new()
    }
}

/// Which harness carries the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchRuntime {
    /// Direct state access ([`Cluster`]): the no-transport baseline.
    Deterministic,
    /// Thread-per-site channels ([`LiveCluster`]).
    Live,
    /// Framed loopback TCP ([`TcpCluster`]).
    Tcp,
}

impl BenchRuntime {
    /// Stable label (`--runtime`).
    pub const fn label(self) -> &'static str {
        match self {
            BenchRuntime::Deterministic => "deterministic",
            BenchRuntime::Live => "live",
            BenchRuntime::Tcp => "tcp",
        }
    }
}

/// Whether the case issues one vectored `write_many` or a per-block loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceIoMode {
    /// One `write_many` covering every block (one quorum round trip).
    Batched,
    /// One `write` per block (one quorum round trip each).
    PerBlock,
}

impl TraceIoMode {
    /// Stable label (`--io`).
    pub const fn label(self) -> &'static str {
        match self {
            TraceIoMode::Batched => "batched",
            TraceIoMode::PerBlock => "per_block",
        }
    }
}

/// One phase's share of a case's attributed time.
#[derive(Debug, Clone)]
pub struct TracePhaseRow {
    /// Phase name (e.g. `phase.gather_wait`).
    pub phase: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: f64,
}

/// One case's attribution measurement.
#[derive(Debug, Clone)]
pub struct TraceCaseResult {
    /// Device operations driven (op spans recorded).
    pub ops: u64,
    /// Total op span wall time, microseconds.
    pub op_us: f64,
    /// Wall time covered by the op spans' direct phase children, µs.
    pub attributed_us: f64,
    /// `attributed_us / op_us`.
    pub attributed_fraction: f64,
    /// Spans recorded for this case (all depths).
    pub spans: u64,
    /// Direct-child phase totals, descending.
    pub phases: Vec<TracePhaseRow>,
}

fn drive<W>(cfg: &TraceBenchConfig, io: TraceIoMode, write_many: W)
where
    W: Fn(&[(BlockIndex, BlockData)]),
{
    let writes: Vec<(BlockIndex, BlockData)> = (0..cfg.blocks)
        .map(|b| {
            (
                BlockIndex::new(b),
                BlockData::from(vec![(b % 251) as u8 + 1; cfg.block_size]),
            )
        })
        .collect();
    match io {
        TraceIoMode::Batched => write_many(&writes),
        TraceIoMode::PerBlock => {
            for w in &writes {
                write_many(std::slice::from_ref(w));
            }
        }
    }
}

/// Measures one (runtime, scheme, io) case: runs the workload under an
/// isolating `bench.case` span, then reads the attribution out of the
/// flight recorder. Also returns the raw span records of the case (the
/// `blockrep trace` subcommand renders them as Chrome trace JSON).
pub fn capture(
    cfg: &TraceBenchConfig,
    runtime: BenchRuntime,
    scheme: Scheme,
    io: TraceIoMode,
) -> (Vec<trace::SpanRecord>, TraceCaseResult) {
    let _serial = TRACER_LOCK.lock().expect("tracer lock");
    let was_obs = blockrep_obs::enabled();
    let was_tracing = trace::enabled();
    trace::enable();
    trace::clear();
    let origin = SiteId::new(0);
    let case_phase = trace::phase_id("bench.case");
    let outer = trace::start_op(case_phase, origin.as_u32());
    let outer_ctx = outer.context();
    match runtime {
        BenchRuntime::Deterministic => {
            let c = Cluster::new(cfg.device(scheme), ClusterOptions { mode: cfg.mode });
            drive(cfg, io, |w| {
                c.write_many(origin, w).expect("benchmark write");
            });
        }
        BenchRuntime::Live => {
            let c = LiveCluster::spawn(cfg.device(scheme), cfg.mode);
            c.set_link_latency(std::time::Duration::from_micros(cfg.link_latency_us));
            drive(cfg, io, |w| {
                c.write_many(origin, w).expect("benchmark write");
            });
        }
        BenchRuntime::Tcp => {
            let c = TcpCluster::spawn(cfg.device(scheme), cfg.mode).expect("tcp spawn");
            c.set_link_latency(std::time::Duration::from_micros(cfg.link_latency_us));
            c.set_wire_tracing(true);
            drive(cfg, io, |w| {
                c.write_many(origin, w).expect("benchmark write");
            });
        }
    }
    drop(outer);
    let records: Vec<trace::SpanRecord> = trace::snapshot()
        .into_iter()
        .filter(|r| r.trace_id == outer_ctx.trace_id)
        .collect();
    if !was_tracing {
        trace::disable();
    }
    if !was_obs {
        blockrep_obs::disable();
    }
    // The device op spans are the direct children of the case span;
    // everything else in the process (other threads, other tests) carries
    // a different trace id and was filtered out above.
    let roots: Vec<&trace::SpanRecord> = records
        .iter()
        .filter(|r| r.parent == outer_ctx.span_id)
        .collect();
    let mut op_ns = 0u64;
    let mut attributed_ns = 0u64;
    let mut phases: Vec<TracePhaseRow> = Vec::new();
    for root in &roots {
        let attr = trace::attribution_for(&records, root.span_id)
            .expect("root span is in the filtered records");
        op_ns += attr.op_ns;
        attributed_ns += attr.attributed_ns;
        for p in &attr.phases {
            match phases.iter_mut().find(|row| row.phase == p.name) {
                Some(row) => {
                    row.count += p.count;
                    row.total_us += p.total_ns as f64 / 1_000.0;
                }
                None => phases.push(TracePhaseRow {
                    phase: p.name,
                    count: p.count,
                    total_us: p.total_ns as f64 / 1_000.0,
                }),
            }
        }
    }
    phases.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then(a.phase.cmp(b.phase)));
    let case = TraceCaseResult {
        ops: roots.len() as u64,
        op_us: op_ns as f64 / 1_000.0,
        attributed_us: attributed_ns as f64 / 1_000.0,
        attributed_fraction: if op_ns == 0 {
            0.0
        } else {
            attributed_ns as f64 / op_ns as f64
        },
        spans: records.len() as u64,
        phases,
    };
    (records, case)
}

/// Validates a Chrome trace-event JSON dump (the `blockrep trace` output):
/// a `traceEvents` array of complete events, each with the fields the
/// trace viewer requires and the causal args the tracer always writes.
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
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
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

    /// The value as a string, if it is one.
    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

/// Parses a JSON document.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first syntax error.
fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TraceBenchConfig {
        TraceBenchConfig {
            sites: 3,
            blocks: 4,
            block_size: 64,
            mode: DeliveryMode::Multicast,
            link_latency_us: 0,
        }
    }

    #[test]
    fn case_attributes_phases_under_each_op() {
        let (records, r) = capture(
            &tiny(),
            BenchRuntime::Deterministic,
            Scheme::Voting,
            TraceIoMode::Batched,
        );
        assert_eq!(r.ops, 1, "one write_many, one op span");
        assert!(r.spans > 1, "phase spans recorded under the op");
        assert_eq!(r.spans, records.len() as u64);
        assert!(!r.phases.is_empty());
        assert!(r.attributed_fraction > 0.0 && r.attributed_fraction <= 1.05);
    }

    #[test]
    fn per_block_records_one_op_span_per_write() {
        let (_, r) = capture(
            &tiny(),
            BenchRuntime::Live,
            Scheme::AvailableCopy,
            TraceIoMode::PerBlock,
        );
        assert_eq!(r.ops, tiny().blocks);
    }

    #[test]
    fn tcp_case_stitches_remote_spans_into_the_tree() {
        let (_, r) = capture(
            &tiny(),
            BenchRuntime::Tcp,
            Scheme::Voting,
            TraceIoMode::Batched,
        );
        assert!(
            r.phases.iter().any(|p| p.phase == "phase.gather_wait"),
            "coordinator gather legs present: {:?}",
            r.phases
        );
        // Remote applies are grandchildren (under the send legs), so they
        // must NOT appear among the attribution's direct-child phases.
        assert!(
            r.phases.iter().all(|p| p.phase != "phase.remote_apply"),
            "remote applies must not be double-booked: {:?}",
            r.phases
        );
    }

    #[test]
    fn chrome_trace_validator_accepts_tracer_output_and_rejects_damage() {
        let records = [trace::SpanRecord {
            trace_id: 7,
            span_id: 8,
            parent: 0,
            phase: trace::phase_id("op.write_many"),
            site: 0,
            start_ns: 1_500,
            dur_ns: 2_000,
        }];
        let good = trace::chrome_trace_json(&records);
        validate_chrome_trace(&good).unwrap();
        assert!(validate_chrome_trace(&good.replace("\"ph\":\"X\"", "\"ph\":\"B\"")).is_err());
        assert!(validate_chrome_trace(&good.replace("traceEvents", "events")).is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(&format!("{good} trailing")).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
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
}
