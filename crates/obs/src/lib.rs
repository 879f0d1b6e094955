//! Observability for the reliable device: structured events/spans and a
//! lock-free metrics registry. **Dependency-free** — std only.
//!
//! The paper's whole evaluation (§4 availability, §5 traffic) is about
//! *observing* what the consistency schemes do under failures. This crate
//! gives every runtime — the deterministic cluster, the threaded cluster,
//! the TCP cluster and the discrete-event simulator — one shared way to
//! report what it is doing:
//!
//! * **Events and spans** ([`event!`], [`span!`]) are dispatched to an
//!   [`Observer`]. By default no observer is installed and a disabled flag
//!   short-circuits every call site to a single relaxed atomic load, so
//!   instrumented hot paths cost nothing measurable. Installing a
//!   [`RecordingObserver`] captures the sequence for tests; a
//!   [`StderrObserver`] streams it as human-readable lines.
//! * **Causal traces** ([`trace`]) give each device operation a
//!   [`trace::TraceContext`] that phase spans — local leg, scatter sends,
//!   gather waits, remote applies — attach to, across threads and (via the
//!   wire trace envelope) across sites. Spans land in a bounded lock-free
//!   flight-recorder ring and export as Chrome trace-event JSON with a
//!   per-phase attribution table; the same module validates such dumps.
//! * **Metrics** ([`metrics::Registry`]) are atomic counters and
//!   fixed-bucket latency histograms (power-of-two buckets, p50/p95/p99
//!   summaries). Updates are lock-free; registration hands out `Arc`
//!   handles that call sites cache in statics. A [`metrics::Snapshot`]
//!   renders as a text table or JSON.
//!
//! # Examples
//!
//! ```
//! use blockrep_obs as obs;
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(obs::RecordingObserver::new());
//! obs::set_observer(recorder.clone());
//!
//! {
//!     let _span = obs::span!("demo.op", site = 0u32);
//!     obs::event!("demo.step", block = 7u64, fresh = true);
//! }
//!
//! obs::clear_observer();
//! let names: Vec<_> = recorder.take().into_iter().map(|r| r.name).collect();
//! assert_eq!(names, ["demo.op", "demo.step", "demo.op"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
mod observer;
pub mod trace;

pub use observer::{
    clear_observer, disable, dispatch_event, dispatch_span_end, dispatch_span_start, enable,
    enabled, set_observer, Observer, Record, RecordKind, RecordingObserver, SpanGuard,
    StderrObserver, Value,
};
