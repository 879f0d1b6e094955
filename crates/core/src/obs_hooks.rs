//! Cached handles into the global [`blockrep_obs`] metrics registry.
//!
//! Protocol hot paths cannot afford a registry lookup (name lookup under a
//! mutex) per operation, so each metric is resolved once into a `OnceLock`
//! and the `'static` handle is reused. Everything here is further gated on
//! [`blockrep_obs::enabled`], so with observability off the cost is one
//! relaxed atomic load and no lock is ever touched.

use blockrep_obs::metrics::{global, Counter, Histogram, HistogramTimer};
use blockrep_obs::trace::{self, Span};
use std::sync::{Arc, OnceLock};

macro_rules! cached_metric {
    ($fn_name:ident, $ty:ty, $method:ident, $metric_name:literal) => {
        pub(crate) fn $fn_name() -> &'static $ty {
            static HANDLE: OnceLock<Arc<$ty>> = OnceLock::new();
            HANDLE.get_or_init(|| global().$method($metric_name))
        }
    };
}

cached_metric!(read_latency, Histogram, histogram, "op.read.latency");
cached_metric!(write_latency, Histogram, histogram, "op.write.latency");
cached_metric!(
    recovery_latency,
    Histogram,
    histogram,
    "op.recovery.latency"
);
cached_metric!(tcp_rpc_latency, Histogram, histogram, "tcp.rpc.latency");
cached_metric!(quorum_size, Histogram, histogram, "quorum.size");
cached_metric!(scatter_batch, Histogram, histogram, "scatter.batch_size");
cached_metric!(
    blocks_repaired,
    Counter,
    counter,
    "recovery.blocks_repaired"
);
cached_metric!(faults_injected, Counter, counter, "chaos.faults_injected");

/// Interned flight-recorder phase ids, resolved once per process like the
/// metric handles above. The names are the tracing vocabulary DESIGN.md §6
/// documents; keep both in sync.
macro_rules! cached_phase {
    ($fn_name:ident, $phase_name:literal) => {
        pub(crate) fn $fn_name() -> u32 {
            static ID: OnceLock<u32> = OnceLock::new();
            *ID.get_or_init(|| trace::phase_id($phase_name))
        }
    };
}

cached_phase!(op_read, "op.read");
cached_phase!(op_write, "op.write");
cached_phase!(op_repair, "op.repair");
cached_phase!(phase_local_leg, "phase.local_leg");
cached_phase!(phase_exchange, "phase.exchange");
cached_phase!(phase_scatter_send, "phase.scatter_send");
cached_phase!(phase_gather_wait, "phase.gather_wait");
cached_phase!(phase_remote_apply, "phase.remote_apply");
cached_phase!(phase_chaos_fault, "chaos.fault");

/// Whether causal tracing is live. Callers must already be past the base
/// [`blockrep_obs::enabled`] branch — this second flag only distinguishes
/// metrics-only runs from flight-recorder runs on the observed path.
#[inline]
pub(crate) fn tracing() -> bool {
    trace::enabled()
}

/// Opens an operation span (and installs its context) when tracing is on.
#[inline]
pub(crate) fn op_span(phase: fn() -> u32, site: u32) -> Option<Span> {
    if blockrep_obs::enabled() && trace::enabled() {
        Some(trace::start_op(phase(), site))
    } else {
        None
    }
}

/// Opens a phase span under the current op span when tracing is on (and an
/// op is actually open).
#[inline]
pub(crate) fn phase_span(phase: fn() -> u32, site: u32) -> Option<Span> {
    if blockrep_obs::enabled() && trace::enabled() {
        trace::start_phase(phase(), site)
    } else {
        None
    }
}

/// Starts a latency timer for `metric` when observability is enabled; the
/// `None` guard on the disabled path is free.
#[inline]
pub(crate) fn timer(metric: fn() -> &'static Histogram) -> Option<HistogramTimer<'static>> {
    if blockrep_obs::enabled() {
        Some(metric().timer())
    } else {
        None
    }
}

/// Records `value` into `metric` when observability is enabled.
#[inline]
pub(crate) fn record(metric: fn() -> &'static Histogram, value: u64) {
    if blockrep_obs::enabled() {
        metric().record(value);
    }
}

/// Adds `n` to `metric` when observability is enabled.
#[inline]
pub(crate) fn count(metric: fn() -> &'static Counter, n: u64) {
    if blockrep_obs::enabled() {
        metric().add(n);
    }
}
