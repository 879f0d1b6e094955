//! The **reliable device** of Carroll, Long & Pâris (ICDCS 1987): a block
//! device replicated by server processes on several sites, kept consistent
//! by one of three block-level protocols.
//!
//! # Architecture
//!
//! ```text
//!  unmodified file system (blockrep-fs)
//!          │  read_block(s) / write_block(s)    (BlockDevice trait)
//!          ▼
//!  ReliableDevice                               (device.rs — Figures 1–2)
//!          │  failover; over several shards, PlacementManifest (shard.rs)
//!          │  routes each block; a cross-shard batch runs shard by shard
//!          │  coordinated protocol operations: runs of blocks (one or more)
//!          ▼
//!  ServerCluster<T>, one per shard — a Coordinator: config, §5 counter,
//!  block locks, and the link model (site states + topology) that decides
//!  which exchanges below may happen — over a transport T: Inline (the
//!  deterministic Cluster), LiveTransport (threads + inboxes) or
//!  TcpTransport (threads + sockets), optionally under Faulty<T>
//!          │  votes, write updates, version vectors, repairs
//!          ▼  (as requests, to the one site service)
//!  Replica per site: VersionedStore + was-available set (+ journal)
//! ```
//!
//! The three consistency schemes of §3 are implemented once, against
//! [`ServerCluster<T>`], one read and one write body each — a single block
//! is a run of one — so **the same protocol code** runs over
//! the deterministic in-process cluster (used by tests, property tests and
//! the simulation harnesses) and over the threaded and socket clusters
//! (server processes exchanging messages):
//!
//! * [`Scheme::Voting`](blockrep_types::Scheme::Voting) — weighted majority
//!   consensus voting with per-block version numbers. Block-level
//!   replication lets a repaired site rejoin with *zero* recovery traffic;
//!   stale blocks are caught lazily, by version comparison, when accessed
//!   (Figures 3–4).
//! * [`Scheme::AvailableCopy`](blockrep_types::Scheme::AvailableCopy) —
//!   write-all / read-local with *was-available sets* `W_s`; after a total
//!   failure the device returns to service once the closure `C*(W_s)` —
//!   which contains the last site(s) to fail — has recovered (Figure 5).
//! * [`Scheme::NaiveAvailableCopy`](blockrep_types::Scheme::NaiveAvailableCopy)
//!   — no failure bookkeeping at all; after a total failure, recovery waits
//!   for every site (Figure 6). The paper's algorithm of choice.
//!
//! Every high-level transmission is charged to a
//! [`TrafficCounter`](blockrep_net::TrafficCounter) exactly as §5 counts
//! them, so measured traffic is directly comparable with the closed forms in
//! [`blockrep_analysis::traffic`].
//!
//! # Examples
//!
//! ```
//! use blockrep_core::{Cluster, ClusterOptions};
//! use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
//!
//! # fn main() -> Result<(), blockrep_types::DeviceError> {
//! let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
//!     .sites(3)
//!     .num_blocks(4)
//!     .block_size(16)
//!     .build()?;
//! let cluster = Cluster::new(cfg, ClusterOptions::default());
//! let k = BlockIndex::new(1);
//!
//! cluster.write(SiteId::new(0), k, BlockData::from(vec![7; 16]))?;
//! cluster.fail_site(SiteId::new(0));
//! cluster.fail_site(SiteId::new(1));
//! // One copy left — still available under available copy.
//! assert_eq!(cluster.read(SiteId::new(2), k)?.as_slice()[0], 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod backend;
pub mod chaos;
mod cluster;
mod device;
pub mod fault;
mod live;
pub mod locks;
mod obs_hooks;
mod protocol;
mod replica;
mod service;
pub mod shard;
pub mod simulate;
mod tcp;
mod transport;
pub mod wire;

pub(crate) mod available_copy;
pub(crate) mod voting;

pub use backend::{Coordinator, Fold, RepairBlocks, ScatterRequest, ScatterSpec, WriteBatch};
pub use cluster::{Cluster, ClusterOptions, Inline};
pub use device::ReliableDevice;
pub use live::{LiveCluster, LiveTransport};
pub use locks::BlockLockTable;
pub use replica::Replica;
// Kept only because `benchmark/src/workloads.rs` names the device so.
pub use device::ReliableDevice as ShardedDevice;
pub use shard::{PlacementManifest, ShardSpec};
pub use tcp::{TcpCluster, TcpTransport};
pub use transport::ServerCluster;
