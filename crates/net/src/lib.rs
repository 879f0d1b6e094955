//! Network model for `blockrep`.
//!
//! The paper's §5 compares consistency schemes by the number of **high-level
//! transmissions** they generate — vote requests, version-vector exchanges,
//! block transfers — under two network models: a *multi-cast environment*
//! where one transmission reaches many sites, and a *unique addressing
//! environment* where every destination costs a separate message.
//!
//! This crate supplies exactly that bookkeeping, shared by every transport
//! the protocols run over:
//!
//! * [`DeliveryMode`] — multicast vs. unique addressing, with the fan-out
//!   cost rule.
//! * [`MsgKind`] / [`OpClass`] / [`TrafficCounter`] — the taxonomy and
//!   counters of high-level transmissions, attributable per operation.
//! * [`Topology`] — reachability between sites. The available copy schemes
//!   assume a partition-free network; the topology lets tests inject
//!   partitions anyway and watch what breaks.
//!
//! Nothing here moves a message: the runtimes in `blockrep-core` do, and
//! its one link model (`core::transport::Links`: site states plus a
//! [`Topology`]) decides which messages may be sent.
//!
//! # Examples
//!
//! ```
//! use blockrep_net::{DeliveryMode, MsgKind, OpClass, TrafficCounter};
//!
//! let counter = TrafficCounter::new();
//! // A naive-available-copy write: one multicast update, no replies.
//! let fanout = DeliveryMode::Multicast.fanout_cost(2);
//! counter.add(OpClass::Write, MsgKind::WriteUpdate, fanout);
//! assert_eq!(counter.total(), 1);
//! // The same write with unique addressing costs one message per replica.
//! assert_eq!(DeliveryMode::Unicast.fanout_cost(2), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod mode;
mod topology;

pub use counter::{MsgKind, OpClass, TrafficCounter, TrafficSnapshot};
pub use mode::DeliveryMode;
pub use topology::Topology;
