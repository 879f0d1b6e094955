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

use blockrep_core::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
use blockrep_net::DeliveryMode;
use blockrep_obs::trace;
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, DeviceResult, Scheme, SiteId};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// The global tracer (flag, ring, id counter) is process-wide; cases must
/// not interleave with each other. Held for the duration of one case.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// Parameters of one traced run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceConfig {
    /// Number of replica sites.
    pub(crate) sites: usize,
    /// Blocks written per case.
    pub(crate) blocks: u64,
    /// Bytes per block.
    pub(crate) block_size: usize,
    /// Network cost model (recorded for context).
    pub(crate) mode: DeliveryMode,
    /// Emulated one-way link delay in microseconds for the live and TCP
    /// runtimes. The default is LAN-order so transport phases dominate the
    /// coordinator's wall time.
    pub(crate) link_latency_us: u64,
}

impl Default for TraceConfig {
    /// 64 blocks on a 3-site device.
    fn default() -> TraceConfig {
        TraceConfig {
            sites: 3,
            blocks: 64,
            block_size: 512,
            mode: DeliveryMode::Multicast,
            link_latency_us: 300,
        }
    }
}

/// Which runtime carries the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceRuntime {
    /// Direct state access ([`Cluster`]): the no-transport baseline.
    Deterministic,
    /// Thread-per-site inboxes ([`LiveCluster`]).
    Live,
    /// Framed loopback TCP ([`TcpCluster`]).
    Tcp,
}

impl TraceRuntime {
    /// Stable label (`--runtime`).
    pub(crate) const fn label(self) -> &'static str {
        match self {
            TraceRuntime::Deterministic => "deterministic",
            TraceRuntime::Live => "live",
            TraceRuntime::Tcp => "tcp",
        }
    }
}

/// Whether the case issues one vectored `write_many` or a per-block loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceIoMode {
    /// One `write_many` covering every block (one quorum round trip).
    Batched,
    /// One `write` per block (one quorum round trip each).
    PerBlock,
}

impl TraceIoMode {
    /// Stable label (`--io`).
    pub(crate) const fn label(self) -> &'static str {
        match self {
            TraceIoMode::Batched => "batched",
            TraceIoMode::PerBlock => "per_block",
        }
    }
}

/// One phase's share of a case's attributed time.
#[derive(Debug, Clone)]
pub(crate) struct TracePhaseRow {
    /// Phase name (e.g. `phase.gather_wait`).
    pub(crate) phase: &'static str,
    /// Spans recorded.
    pub(crate) count: u64,
    /// Sum of span durations, microseconds.
    pub(crate) total_us: f64,
}

/// One case's attribution measurement.
#[derive(Debug, Clone)]
pub(crate) struct TraceCaseResult {
    /// Device operations driven (op spans recorded).
    pub(crate) ops: u64,
    /// Total op span wall time, microseconds.
    pub(crate) op_us: f64,
    /// Share of the op spans' wall time their direct phase children cover.
    pub(crate) attributed_fraction: f64,
    /// Spans recorded for this case (all depths).
    pub(crate) spans: u64,
    /// Direct-child phase totals, descending.
    pub(crate) phases: Vec<TracePhaseRow>,
}

fn drive<W>(cfg: &TraceConfig, io: TraceIoMode, write_many: W) -> DeviceResult<()>
where
    W: Fn(&[(BlockIndex, BlockData)]) -> DeviceResult<()>,
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
        TraceIoMode::PerBlock => writes
            .iter()
            .try_for_each(|w| write_many(std::slice::from_ref(w))),
    }
}

/// Runs the workload on a fresh cluster of the given runtime.
fn run_case(
    cfg: &TraceConfig,
    runtime: TraceRuntime,
    device: DeviceConfig,
    io: TraceIoMode,
    origin: SiteId,
) -> Result<(), String> {
    let latency = Duration::from_micros(cfg.link_latency_us);
    let written = match runtime {
        TraceRuntime::Deterministic => {
            let c = Cluster::new(device, ClusterOptions { mode: cfg.mode });
            drive(cfg, io, |w| c.write_many(origin, w))
        }
        TraceRuntime::Live => {
            let c = LiveCluster::spawn(device, cfg.mode);
            c.set_link_latency(latency);
            drive(cfg, io, |w| c.write_many(origin, w))
        }
        TraceRuntime::Tcp => {
            let c = TcpCluster::spawn(device, cfg.mode)
                .map_err(|e| format!("tcp cluster spawn: {e}"))?;
            c.set_link_latency(latency);
            c.set_wire_tracing(true);
            drive(cfg, io, |w| c.write_many(origin, w))
        }
    };
    written.map_err(|e| format!("write: {e}"))
}

/// Measures one (runtime, scheme, io) case: runs the workload under an
/// isolating `bench.case` span, then reads the attribution out of the
/// flight recorder. Also returns the raw span records of the case (the
/// `blockrep trace` subcommand renders them as Chrome trace JSON).
///
/// # Errors
///
/// An invalid device geometry (no sites, blocks or bytes per block), a
/// TCP cluster that cannot bind its sockets, or a failed write.
pub(crate) fn capture(
    cfg: &TraceConfig,
    runtime: TraceRuntime,
    scheme: Scheme,
    io: TraceIoMode,
) -> Result<(Vec<trace::SpanRecord>, TraceCaseResult), String> {
    let device = DeviceConfig::builder(scheme)
        .sites(cfg.sites)
        .num_blocks(cfg.blocks)
        .block_size(cfg.block_size)
        .build()
        .map_err(|e| e.to_string())?;
    let _serial = TRACER_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let was_obs = blockrep_obs::enabled();
    let was_tracing = trace::enabled();
    trace::enable();
    trace::clear();
    let origin = SiteId::new(0);
    let outer = trace::start_op(trace::phase_id("bench.case"), origin.as_u32());
    let outer_ctx = outer.context();
    let ran = run_case(cfg, runtime, device, io, origin);
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
    ran?;
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
    for attr in roots
        .iter()
        .filter_map(|root| trace::attribution_for(&records, root.span_id))
    {
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
        attributed_fraction: if op_ns == 0 {
            0.0
        } else {
            attributed_ns as f64 / op_ns as f64
        },
        spans: records.len() as u64,
        phases,
    };
    Ok((records, case))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TraceConfig {
        TraceConfig {
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
            TraceRuntime::Deterministic,
            Scheme::Voting,
            TraceIoMode::Batched,
        )
        .unwrap();
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
            TraceRuntime::Live,
            Scheme::AvailableCopy,
            TraceIoMode::PerBlock,
        )
        .unwrap();
        assert_eq!(r.ops, tiny().blocks);
    }

    #[test]
    fn tcp_case_stitches_remote_spans_into_the_tree() {
        let (_, r) = capture(
            &tiny(),
            TraceRuntime::Tcp,
            Scheme::Voting,
            TraceIoMode::Batched,
        )
        .unwrap();
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
}
