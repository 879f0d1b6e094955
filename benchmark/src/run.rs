//! The measurement loop shared by every workload: warm-up, 1-second
//! segments, per-segment percentiles, counter snapshots.
//!
//! Every wall-clock figure is computed per segment and reported as the
//! median over segments, so a slow spell of the host moves a minority of
//! segments and not the figure.

use crate::stats::{iqr_share, median, percentile_sorted};
use crate::sys::{self, Usage};
use crate::timed::Recorder;
use blockrep_obs::trace::{self, SpanRecord};
use std::time::{Duration, Instant};

/// Parsed `--workload --seed --seconds --trace`.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up samples per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Rungs the ladder's time budget is split over.
const RUNG_SLOTS: f64 = 12.0;

/// How `--seconds` is spent. An untraced run is warm-up plus plain
/// segments. A traced run keeps the same total length: a fifth goes to
/// the replay ladder, a third of the remaining segments run plain (the
/// reference the tracing overhead is measured against), the rest traced.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: Duration,
    pub seg: Duration,
    pub plain_segs: usize,
    pub traced_segs: usize,
    pub rung_budget: Duration,
}

impl Plan {
    pub fn new(seconds: f64, traced: bool) -> Plan {
        let seg = if seconds >= 10.0 { 1.0 } else { seconds / 10.0 };
        let ladder = if traced { 0.2 * seconds } else { 0.0 };
        // The first segment-length is warm-up and is discarded.
        let segs = (((seconds - ladder) / seg) as usize)
            .saturating_sub(1)
            .max(2);
        let plain_segs = if traced { (segs / 3).max(1) } else { segs };
        Plan {
            warm: Duration::from_secs_f64(seg),
            seg: Duration::from_secs_f64(seg),
            plain_segs,
            traced_segs: segs - plain_segs,
            rung_budget: Duration::from_secs_f64(ladder / RUNG_SLOTS),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    /// Counted in `ops_per_s`, not in the read/write latencies.
    Other,
}

/// Outcome of one request (a burst, a batch or a file-system step).
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub class: Class,
    pub ops: u32,
    pub failed: u32,
    /// Device blocks the request named (payload bytes / block size).
    pub blocks: u32,
    /// Latency per op in ticks of 1/16 ns: a burst of 16 ops is timed as
    /// one sample and keeps its sub-nanosecond digits.
    pub lat_ticks: u64,
    /// The request completes an epoch of the script: a whole number of
    /// decks (and, on the file-system workload, of fault cycles), so the
    /// requests between two epoch ends hold exactly the stated mix.
    pub epoch_end: bool,
}

pub const TICKS_PER_NS: u64 = 16;

/// Generates, issues and checks one request at a time.
pub trait Driver {
    fn step(&mut self) -> Step;
    /// How many epochs the count metrics are taken over: fixed per
    /// workload, so that a given seed counts the same requests however
    /// fast the run goes, and chosen to fit well inside a run.
    fn counted_epochs(&self) -> usize;
    /// Reads that returned something other than the shadow model holds.
    fn mismatches(&self) -> u64;
}

/// Message counts by the paper's op classes, summed over shard backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub total: u64,
    pub read: u64,
    pub write: u64,
    pub recovery: u64,
}

pub type TrafficFn = Box<dyn Fn() -> Traffic>;

pub fn traffic_of(counters: &[&blockrep_net::TrafficCounter]) -> Traffic {
    use blockrep_net::OpClass;
    let mut t = Traffic::default();
    for c in counters {
        let snap = c.snapshot();
        t.total += snap.total();
        t.read += snap.total_for(OpClass::Read);
        t.write += snap.total_for(OpClass::Write);
        t.recovery += snap.total_for(OpClass::Recovery);
    }
    t
}

/// `[p50, p90, p99]` in microseconds.
pub type Percentiles = [f64; 3];

#[derive(Debug, Clone)]
pub struct Segment {
    pub secs: f64,
    pub ops: u64,
    pub read: Option<Percentiles>,
    pub read_n: usize,
    pub write: Option<Percentiles>,
    pub write_n: usize,
}

/// The counters behind the three count metrics, read at an epoch end.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub msgs: u64,
    /// Ops of the phase completed so far.
    pub ops: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub segments: Vec<Segment>,
    pub ops: u64,
    pub read_ops: u64,
    pub write_ops: u64,
    pub blocks: u64,
    pub secs: f64,
    /// Counters at every epoch end inside the phase (up to `EPOCH_CAP`).
    /// The count metrics are taken over whole epochs: cut at segment ends
    /// instead, a run's share of large writes and of degraded decks moved
    /// them by about a percent.
    pub epochs: Vec<Counters>,
}

const EPOCH_CAP: usize = 8192;

impl Phase {
    fn over_segments(&self, f: impl Fn(&Segment) -> Option<f64>) -> Vec<f64> {
        self.segments.iter().filter_map(f).collect()
    }

    pub fn ops_per_s(&self) -> Vec<f64> {
        self.over_segments(|s| Some(s.ops as f64 / s.secs))
    }

    pub fn read_pct(&self, i: usize) -> Vec<f64> {
        self.over_segments(|s| s.read.map(|p| p[i]))
    }

    pub fn write_pct(&self, i: usize) -> Vec<f64> {
        self.over_segments(|s| s.write.map(|p| p[i]))
    }

    /// The counters at the start and the end of the first `want` epochs
    /// of the phase — of as many as it held, when it held fewer (a smoke
    /// run, a much slower build). `None` below one whole epoch.
    pub fn counted(&self, want: usize) -> Option<(Counters, Counters)> {
        let last = want.min(self.epochs.len().checked_sub(1)?);
        (last > 0).then(|| (self.epochs[0], self.epochs[last]))
    }

    pub fn median_samples(&self) -> (f64, f64) {
        (
            median(&self.over_segments(|s| Some(s.read_n as f64))),
            median(&self.over_segments(|s| Some(s.write_n as f64))),
        )
    }
}

/// Counters read at phase boundaries; metrics are differences of two.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub traffic: Traffic,
    pub usage: Usage,
    /// Loopback `(packets, bytes)`.
    pub lo: Option<(u64, u64)>,
}

impl Snapshot {
    pub fn take(traffic: &dyn Fn() -> Traffic) -> Snapshot {
        let (allocs, alloc_bytes) = sys::alloc_counts();
        Snapshot {
            allocs,
            alloc_bytes,
            traffic: traffic(),
            usage: sys::usage(),
            lo: sys::loopback(),
        }
    }
}

/// Latency samples of the open segment. Preallocated, so the measured
/// phase allocates nothing on the benchmark's side; a segment with more
/// samples than fit keeps the first ones and counts the rest.
struct Sampler {
    reads: Vec<u32>,
    writes: Vec<u32>,
    dropped: u64,
}

const SAMPLE_CAP: usize = 1 << 20;

impl Sampler {
    fn new() -> Sampler {
        Sampler {
            reads: Vec::with_capacity(SAMPLE_CAP),
            writes: Vec::with_capacity(SAMPLE_CAP),
            dropped: 0,
        }
    }

    fn push(&mut self, class: Class, lat_ticks: u64) {
        let buf = match class {
            Class::Read => &mut self.reads,
            Class::Write => &mut self.writes,
            Class::Other => return,
        };
        if buf.len() < SAMPLE_CAP {
            buf.push(lat_ticks.min(u64::from(u32::MAX)) as u32);
        } else {
            self.dropped += 1;
        }
    }

    fn close(buf: &mut Vec<u32>) -> (Option<Percentiles>, usize) {
        buf.sort_unstable();
        let n = buf.len();
        let ticks_per_us = (1000 * TICKS_PER_NS) as f64;
        let pct =
            (n > 0).then(|| [0.5, 0.9, 0.99].map(|p| percentile_sorted(buf, p) / ticks_per_us));
        buf.clear();
        (pct, n)
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `segs` segments of `seg` each. The segment clock restarts after a
/// segment's bookkeeping, so sorting samples is not charged to the next.
fn run_phase(
    driver: &mut dyn Driver,
    seg: Duration,
    segs: usize,
    traffic: &dyn Fn() -> Traffic,
    sampler: &mut Sampler,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase {
        segments: Vec::with_capacity(segs),
        epochs: Vec::with_capacity(EPOCH_CAP),
        ..Phase::default()
    };
    for _ in 0..segs {
        let start = Instant::now();
        let mut ops = 0u64;
        let elapsed = loop {
            let s = driver.step();
            ops += u64::from(s.ops);
            if s.epoch_end {
                let (allocs, alloc_bytes) = sys::alloc_counts();
                let now = Counters {
                    allocs,
                    alloc_bytes,
                    msgs: traffic().total,
                    ops: phase.ops + ops,
                };
                if phase.epochs.len() < EPOCH_CAP {
                    phase.epochs.push(now);
                } else {
                    phase.epochs[EPOCH_CAP - 1] = now;
                }
            }
            tally.attempted += u64::from(s.ops);
            tally.failed += u64::from(s.failed);
            phase.blocks += u64::from(s.blocks);
            match s.class {
                Class::Read => phase.read_ops += u64::from(s.ops),
                Class::Write => phase.write_ops += u64::from(s.ops),
                Class::Other => {}
            }
            sampler.push(s.class, s.lat_ticks);
            let elapsed = start.elapsed();
            if elapsed >= seg {
                break elapsed;
            }
        };
        let (read, read_n) = Sampler::close(&mut sampler.reads);
        let (write, write_n) = Sampler::close(&mut sampler.writes);
        let secs = elapsed.as_secs_f64();
        phase.ops += ops;
        phase.secs += secs;
        phase.segments.push(Segment {
            secs,
            ops,
            read,
            read_n,
            write,
            write_n,
        });
    }
    phase
}

/// Everything the timed part of a run produced.
pub struct Measured {
    pub tally: Tally,
    pub counted_epochs: usize,
    pub plain: Phase,
    pub plain_before: Snapshot,
    pub plain_after: Snapshot,
    pub traced: Option<TracedPhase>,
    pub samples_dropped: u64,
}

impl Measured {
    /// The counters the count metrics are differences of: the start and
    /// the end of the plain phase's counted epochs, or of the whole phase
    /// when it was too short to hold one epoch.
    pub fn counted(&self) -> (Counters, Counters) {
        let boundary = |s: &Snapshot, ops| Counters {
            allocs: s.allocs,
            alloc_bytes: s.alloc_bytes,
            msgs: s.traffic.total,
            ops,
        };
        self.plain.counted(self.counted_epochs).unwrap_or((
            boundary(&self.plain_before, 0),
            boundary(&self.plain_after, self.plain.ops),
        ))
    }
}

pub struct TracedPhase {
    pub phase: Phase,
    pub before: Snapshot,
    pub after: Snapshot,
    /// The program's own flight recorder, read once the phase ended.
    pub flight: Vec<SpanRecord>,
}

/// Warm-up, the plain phase and — when a recorder is given — the traced
/// phase, with the program's flight recorder on for exactly that phase.
pub fn measure(
    driver: &mut dyn Driver,
    plan: &Plan,
    traffic: &dyn Fn() -> Traffic,
    recorder: Option<&Recorder>,
) -> Measured {
    let mut sampler = Sampler::new();
    let mut tally = Tally::default();
    let warm_start = Instant::now();
    while warm_start.elapsed() < plan.warm {
        let s = driver.step();
        tally.attempted += u64::from(s.ops);
        tally.failed += u64::from(s.failed);
    }
    let plain_before = Snapshot::take(traffic);
    let plain = run_phase(
        driver,
        plan.seg,
        plan.plain_segs,
        traffic,
        &mut sampler,
        &mut tally,
    );
    let plain_after = Snapshot::take(traffic);
    let traced = recorder.filter(|_| plan.traced_segs > 0).map(|rec| {
        trace::clear();
        trace::enable();
        rec.set_on(true);
        let before = Snapshot::take(traffic);
        let phase = run_phase(
            driver,
            plan.seg,
            plan.traced_segs,
            traffic,
            &mut sampler,
            &mut tally,
        );
        let after = Snapshot::take(traffic);
        rec.set_on(false);
        trace::disable();
        // `trace::enable` also raised the base observability flag; lower
        // it again so the ladder replays run as the plain phase did.
        blockrep_obs::disable();
        TracedPhase {
            phase,
            before,
            after,
            flight: trace::snapshot(),
        }
    });
    Measured {
        tally,
        counted_epochs: driver.counted_epochs(),
        plain,
        plain_before,
        plain_after,
        traced,
        samples_dropped: sampler.dropped,
    }
}

/// Median and inter-quartile share of per-segment values, for the report.
pub fn med_iqr(values: &[f64]) -> (f64, f64) {
    (median(values), iqr_share(values))
}

/// Times `SETUPS` samples of `repeat` back-to-back complete set-ups each
/// (spawn, format, prefill through the stack under test, tear down) and
/// returns the seconds per set-up of every sample. `repeat` is fixed per
/// workload so that a sample takes at least 0.3 s on the reference host:
/// shorter timings spread too widely to gate on. The last stack built is
/// kept for the run; the tear-down of each sample's last stack is outside
/// the timer.
pub fn timed_setups<S>(repeat: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        for _ in 0..repeat {
            drop(kept.take());
            kept = Some(setup());
        }
        secs.push(t.elapsed().as_secs_f64() / repeat as f64);
    }
    (kept.expect("SETUPS and repeat are at least one"), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_keep_the_run_length_and_split_traced_runs() {
        let p = Plan::new(30.0, false);
        assert_eq!((p.plain_segs, p.traced_segs), (29, 0));
        assert_eq!(p.seg, Duration::from_secs(1));
        assert_eq!(p.rung_budget, Duration::ZERO);

        let t = Plan::new(30.0, true);
        assert_eq!((t.plain_segs, t.traced_segs), (7, 16));
        assert_eq!(t.rung_budget, Duration::from_millis(500));
        let spent = t.warm
            + t.seg * (t.plain_segs + t.traced_segs) as u32
            + t.rung_budget * RUNG_SLOTS as u32;
        assert_eq!(spent, Duration::from_secs(30));

        let s = Plan::new(2.0, true);
        assert_eq!(s.seg, Duration::from_millis(200));
        assert!(s.plain_segs >= 1 && s.traced_segs >= 1);
    }

    struct Fixed(u64);

    impl Driver for Fixed {
        fn step(&mut self) -> Step {
            self.0 += 1;
            std::thread::sleep(Duration::from_micros(200));
            let class = if self.0.is_multiple_of(2) {
                Class::Read
            } else {
                Class::Write
            };
            Step {
                class,
                ops: 2,
                failed: u32::from(self.0.is_multiple_of(10)),
                blocks: 4,
                lat_ticks: 1000 * TICKS_PER_NS * (self.0 % 5 + 1),
                epoch_end: self.0.is_multiple_of(20),
            }
        }
        fn counted_epochs(&self) -> usize {
            2
        }
        fn mismatches(&self) -> u64 {
            0
        }
    }

    #[test]
    fn phases_count_ops_failures_and_per_segment_percentiles() {
        let plan = Plan {
            warm: Duration::from_millis(5),
            seg: Duration::from_millis(20),
            plain_segs: 3,
            traced_segs: 0,
            rung_budget: Duration::ZERO,
        };
        let m = measure(&mut Fixed(0), &plan, &Traffic::default, None);
        assert_eq!(m.plain.segments.len(), 3);
        assert!(m.traced.is_none());
        let seg_ops: u64 = m.plain.segments.iter().map(|s| s.ops).sum();
        assert_eq!(seg_ops, m.plain.ops);
        assert_eq!(m.plain.read_ops + m.plain.write_ops, m.plain.ops);
        assert_eq!(m.plain.blocks, m.plain.ops * 2);
        let (first, last) = m.plain.counted(2).expect("an epoch ends every 20 requests");
        assert_eq!(
            last.ops - first.ops,
            80,
            "two whole epochs of 20 requests of 2 ops"
        );
        let (first, last) = m.plain.counted(usize::MAX).expect("as many as there are");
        assert!(last.ops <= m.plain.ops && (last.ops - first.ops) % 40 == 0);
        assert!(
            m.tally.attempted > m.plain.ops,
            "warm-up ops are attempted too"
        );
        assert!(m.tally.failed > 0 && m.tally.failed * 15 < m.tally.attempted);
        for s in &m.plain.segments {
            let [p50, p90, p99] = s.read.expect("reads in every segment");
            assert!((1.0..=5.0).contains(&p50) && p50 <= p90 && p90 <= p99);
            assert!(s.secs >= 0.02);
        }
    }
}
