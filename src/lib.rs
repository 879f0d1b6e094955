//! # blockrep — reliable replicated block devices
//!
//! A full reproduction of *"Block-Level Consistency of Replicated Files"*
//! (John L. Carroll, Darrell D. E. Long, Jehan-François Pâris, ICDCS 1987).
//!
//! The paper constructs a **reliable device**: a virtual block-structured
//! device that an *unmodified* file system uses like an ordinary disk, while
//! a set of server processes on several sites keep replicated copies of each
//! block consistent. Three consistency control schemes are implemented and
//! evaluated:
//!
//! * **Majority consensus voting** — quorum reads/writes with per-block
//!   version numbers and lazy, access-time block recovery.
//! * **Available copy** — write-all/read-local with *was-available sets* and
//!   closure-based recovery after total failures.
//! * **Naive available copy** — available copy without failure bookkeeping;
//!   the paper's recommended algorithm.
//!
//! This facade crate re-exports the entire workspace:
//!
//! * [`types`] — identifiers, versions, site states, configuration.
//! * [`storage`] — block stores (memory and file-backed) and the
//!   [`storage::BlockDevice`] trait the file system consumes.
//! * [`sim`] — the discrete-event simulation kernel.
//! * [`net`] — delivery modes, traffic accounting, partition topology.
//! * [`core`] — the reliable device itself: replicas, protocols, clusters,
//!   failure injection, and the simulation harnesses.
//! * [`fs`] — a small UNIX-like file system that runs over any block device.
//! * [`analysis`] — the paper's closed-form availability and traffic models
//!   plus a general Markov-chain solver.
//! * [`obs`] — structured events/spans and a lock-free metrics registry;
//!   off by default, zero-cost until enabled.
//!
//! # Quickstart
//!
//! ```
//! use blockrep::core::{Cluster, ClusterOptions};
//! use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
//!
//! # fn main() -> Result<(), blockrep::types::DeviceError> {
//! // A reliable device replicated on three sites, managed by the paper's
//! // algorithm of choice: naive available copy.
//! let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy)
//!     .sites(3)
//!     .num_blocks(8)
//!     .block_size(8)
//!     .build()?;
//! let cluster = Cluster::new(cfg, ClusterOptions::default());
//!
//! let k = BlockIndex::new(0);
//! cluster.write(SiteId::new(0), k, BlockData::from(&b"hello\0\0\0"[..]))?;
//!
//! // One site fails; the block stays readable from the survivors.
//! cluster.fail_site(SiteId::new(1));
//! let data = cluster.read(SiteId::new(2), k)?;
//! assert_eq!(&data.as_slice()[..5], b"hello");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use blockrep_analysis as analysis;
pub use blockrep_core as core;
pub use blockrep_fs as fs;
pub use blockrep_net as net;
pub use blockrep_obs as obs;
pub use blockrep_sim as sim;
pub use blockrep_storage as storage;
pub use blockrep_types as types;
