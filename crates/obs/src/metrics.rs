//! Lock-free metrics: counters and fixed-bucket latency histograms,
//! grouped in a [`Registry`] that snapshots to a text table or JSON.
//!
//! Updates never take a lock — every metric is a handful of atomics.
//! Registration (`Registry::counter` etc.) takes a short mutex to hand out
//! a shared [`Arc`] handle; hot call sites do that once and cache the
//! handle in a `static`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing (or externally set) unsigned counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — used when mirroring an external total (e.g. a
    /// `TrafficCounter` snapshot) so the metric exactly matches its source.
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per power of two, covering all of
/// `u64`. Bucket `i` holds values in `[2^i, 2^(i+1))` (bucket 0 also holds
/// zero).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket histogram for latency-like values (typically
/// nanoseconds). Recording is lock-free and allocation-free: one atomic
/// increment per bucket plus running count/sum/min/max.
///
/// Power-of-two buckets give ≤ 2× relative error on percentile estimates
/// across the full `u64` range — plenty to tell a 40 µs quorum round from a
/// 400 µs one — with no configuration.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// The half-open value range `[lo, hi)` of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
    (lo, hi)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in nanoseconds.
    fn record_duration(&self, duration: std::time::Duration) {
        self.record(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Starts a timer that records its elapsed nanoseconds into this
    /// histogram when dropped.
    pub fn timer(&self) -> HistogramTimer<'_> {
        HistogramTimer {
            histogram: self,
            started: Instant::now(),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `p`-th percentile (`p` in `[0, 1]`) by linear
    /// interpolation inside the matching bucket. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = p * total as f64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            let next = cumulative + in_bucket;
            if rank <= next as f64 {
                let (lo, hi) = bucket_bounds(i);
                let into = (rank - cumulative as f64) / in_bucket as f64;
                let estimate = lo as f64 + into * (hi - lo) as f64;
                // Never report outside what was actually observed.
                let min = self.min.load(Ordering::Relaxed) as f64;
                let max = self.max.load(Ordering::Relaxed) as f64;
                return estimate.clamp(min, max);
            }
            cumulative = next;
        }
        self.max.load(Ordering::Relaxed) as f64
    }

    /// A point-in-time summary of this histogram.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                0.0
            } else {
                self.sum() as f64 / count as f64
            },
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// Records elapsed time into a [`Histogram`] on drop; see
/// [`Histogram::timer`].
#[must_use = "the timer records when it drops; bind it with `let _timer = ...`"]
#[derive(Debug)]
pub struct HistogramTimer<'a> {
    histogram: &'a Histogram,
    started: Instant,
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.histogram.record_duration(self.started.elapsed());
    }
}

/// Fewer observations than this and a percentile estimate is mostly the
/// bucket geometry talking: with n samples the p99/p50 ranks coincide until
/// n is large enough to separate them, so single-op suites used to report
/// `p50 == p99` with nothing marking the estimate as hollow. Summaries from
/// fewer samples are flagged [`HistogramSummary::low_confidence`] and the
/// renderers annotate them.
pub const LOW_CONFIDENCE_SAMPLES: u64 = 8;

/// Point-in-time percentile summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSummary {
    /// Whether the percentile estimates come from fewer than
    /// [`LOW_CONFIDENCE_SAMPLES`] observations and should not be read as
    /// distribution tails (a 1-sample histogram reports `p50 == p99`
    /// trivially).
    pub fn low_confidence(&self) -> bool {
        self.count < LOW_CONFIDENCE_SAMPLES
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// The kind of a registered metric, for [`KindMismatch`] diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A [`Counter`].
    Counter,
    /// A [`Histogram`].
    Histogram,
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        })
    }
}

/// A metric name was requested as one kind but is already registered as
/// another — e.g. `counter("x")` after `histogram("x")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindMismatch {
    /// The contested metric name.
    pub name: String,
    /// The kind the caller asked for.
    pub requested: MetricKind,
    /// The kind the name is already registered as.
    pub registered: MetricKind,
}

impl std::fmt::Display for KindMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metric {:?} requested as a {} but already registered as a {}",
            self.name, self.requested, self.registered
        )
    }
}

impl std::error::Error for KindMismatch {}

/// A named collection of metrics.
///
/// `counter`/`histogram` are get-or-create and return shared
/// handles; all subsequent updates through a handle are lock-free. The
/// process-wide instance is [`global()`]; tests and exporters may build
/// private registries.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().expect("metrics registry lock")
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// # Errors
    ///
    /// [`KindMismatch`] if `name` is already registered as a different
    /// metric kind; the registered metric is left untouched.
    fn try_counter(&self, name: &str) -> Result<Arc<Counter>, KindMismatch> {
        let mut metrics = self.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Ok(Arc::clone(c)),
            other => Err(KindMismatch {
                name: name.to_string(),
                requested: MetricKind::Counter,
                registered: other.kind(),
            }),
        }
    }

    /// The histogram named `name`, creating it on first use.
    ///
    /// # Errors
    ///
    /// [`KindMismatch`] if `name` is already registered as a different
    /// metric kind; the registered metric is left untouched.
    fn try_histogram(&self, name: &str) -> Result<Arc<Histogram>, KindMismatch> {
        let mut metrics = self.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match metric {
            Metric::Histogram(h) => Ok(Arc::clone(h)),
            other => Err(KindMismatch {
                name: name.to_string(),
                requested: MetricKind::Histogram,
                registered: other.kind(),
            }),
        }
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// On a kind mismatch this returns a *detached* counter — a live handle
    /// that is not part of the registry and never shows up in snapshots —
    /// so instrumentation can never take the instrumented process down.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.try_counter(name)
            .unwrap_or_else(|_| Arc::new(Counter::new()))
    }

    /// The histogram named `name`, creating it on first use; on a kind
    /// mismatch returns a detached histogram (see
    /// [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.try_histogram(name)
            .unwrap_or_else(|_| Arc::new(Histogram::new()))
    }

    /// Removes every metric (handles held elsewhere keep working but are no
    /// longer part of snapshots).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Captures the current value of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.lock();
        let mut snapshot = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snapshot.counters.push((name.clone(), c.get())),
                Metric::Histogram(h) => snapshot.histograms.push((name.clone(), h.summary())),
            }
        }
        snapshot
    }
}

/// The process-wide registry that instrumented crates record into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// A point-in-time copy of a [`Registry`]'s metrics, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Renders a finite `f64` for JSON (JSON has no NaN/infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The summary of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the snapshot as a self-contained JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"net.msgs.read": 12},
    ///   "histograms": {"op.read.latency": {"count": 4, "p50": 810.0, ...}}
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"samples\": {}, \"sum\": {}, \"min\": {}, \
                 \"max\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
                 \"low_confidence\": {}}}",
                json_escape(name),
                h.count,
                h.count,
                h.sum,
                h.min,
                h.max,
                json_f64(h.mean),
                json_f64(h.p50),
                json_f64(h.p95),
                json_f64(h.p99),
                h.low_confidence(),
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }

    /// Renders the snapshot as the same markdown-style tables the bench
    /// reports use.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("| metric | value |\n|---|---:|\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "| {name} | {value} |");
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(
                "| histogram | count | mean | p50 | p95 | p99 | max |\n|---|---:|---:|---:|---:|---:|---:|\n",
            );
            for (name, h) in &self.histograms {
                // `~` marks percentile cells estimated from too few samples
                // to trust (see `LOW_CONFIDENCE_SAMPLES`).
                let mark = if h.low_confidence() { "~" } else { "" };
                let _ = writeln!(
                    out,
                    "| {name} | {} | {:.0} | {mark}{:.0} | {mark}{:.0} | {mark}{:.0} | {} |",
                    h.count, h.mean, h.p50, h.p95, h.p99, h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let registry = Registry::new();
        let c = registry.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("c").get(), 5);
        c.set(2);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn kind_mismatch_is_a_typed_error() {
        let registry = Registry::new();
        registry.histogram("x");
        let err = registry.try_counter("x").unwrap_err();
        assert_eq!(
            err,
            KindMismatch {
                name: "x".to_string(),
                requested: MetricKind::Counter,
                registered: MetricKind::Histogram,
            }
        );
        assert_eq!(
            err.to_string(),
            "metric \"x\" requested as a counter but already registered as a histogram"
        );
        // The registered histogram survives the failed lookups untouched.
        registry.histogram("x").record(3);
        assert_eq!(registry.try_histogram("x").unwrap().count(), 1);
    }

    #[test]
    fn kind_mismatch_infallible_getters_return_detached_handles() {
        let registry = Registry::new();
        registry.counter("x").set(5);
        // Wrong-kind lookups must neither abort nor disturb the original.
        registry.histogram("x").record(9);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("x"), Some(5));
        assert!(snap.histogram("x").is_none());
    }

    #[test]
    fn bucket_indexing_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi, "bucket {i} is empty: [{lo}, {hi})");
            assert_eq!(bucket_index(lo.max(1)), i);
        }
    }

    #[test]
    fn histogram_summary_tracks_observations() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Rank 50 of 1..=100 is 50, which lives in bucket [32, 64).
        let p50 = h.percentile(0.50);
        assert!((32.0..64.0).contains(&p50), "p50 = {p50}");
        // Rank 95 and 99 live in bucket [64, 128) but are clamped to the
        // observed max of 100.
        let p95 = h.percentile(0.95);
        assert!((64.0..=100.0).contains(&p95), "p95 = {p95}");
        let p99 = h.percentile(0.99);
        assert!(p99 >= p95 && p99 <= 100.0, "p99 = {p99}");
        // Extremes clamp to observed min/max.
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(1.0), 100.0);
    }

    #[test]
    fn percentiles_of_empty_and_single_value_histograms() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0.0);
        h.record(777);
        assert_eq!(h.percentile(0.5), 777.0);
        assert_eq!(h.percentile(0.99), 777.0);
        assert_eq!(h.summary().min, 777);
        assert_eq!(h.summary().max, 777);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 40);
        }
        let mut last = 0.0f64;
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.percentile(p);
            assert!(v >= last, "percentile({p}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn timer_records_a_duration() {
        let h = Histogram::new();
        {
            let _t = h.timer();
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_roundtrips_names_and_values() {
        let registry = Registry::new();
        registry.counter("net.msgs.read").set(12);
        registry.histogram("lat").record(5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.msgs.read"), Some(12));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let registry = Registry::new();
        registry.counter("a\"b").set(1);
        registry.histogram("h").record(10);
        let json = registry.snapshot().to_json();
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains("\"count\": 1"));
        // Balanced braces and quotes — cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        let unescaped_quotes = json.replace("\\\"", "").matches('"').count();
        assert_eq!(unescaped_quotes % 2, 0);
    }

    #[test]
    fn low_confidence_flags_small_sample_counts() {
        let h = Histogram::new();
        h.record(10_000);
        let s = h.summary();
        // One observation: the percentiles collapse to the single value and
        // the summary says so.
        assert_eq!(s.p50, s.p99);
        assert!(s.low_confidence());
        for _ in 0..(LOW_CONFIDENCE_SAMPLES - 1) {
            h.record(10_000);
        }
        assert!(!h.summary().low_confidence());
    }

    #[test]
    fn snapshot_json_and_table_mark_low_confidence_percentiles() {
        let registry = Registry::new();
        registry.histogram("thin").record(100);
        let big = registry.histogram("fat");
        for v in 1..=100u64 {
            big.record(v);
        }
        let snap = registry.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"samples\": 1"));
        assert!(json.contains("\"low_confidence\": true"));
        assert!(json.contains("\"samples\": 100"));
        assert!(json.contains("\"low_confidence\": false"));
        let table = snap.to_table();
        let thin_row = table
            .lines()
            .find(|l| l.starts_with("| thin"))
            .expect("thin row");
        assert!(thin_row.contains("~100"), "unmarked row: {thin_row}");
        let fat_row = table
            .lines()
            .find(|l| l.starts_with("| fat"))
            .expect("fat row");
        assert!(!fat_row.contains('~'), "marked row: {fat_row}");
    }

    #[test]
    fn table_lists_every_metric() {
        let registry = Registry::new();
        registry.counter("c1").set(3);
        registry.histogram("h1").record(9);
        let table = registry.snapshot().to_table();
        assert!(table.contains("| c1 | 3 |"));
        assert!(table.contains("| h1 | 1 |"));
    }
}
