//! Block stores for `blockrep`.
//!
//! The reliable device of the paper presents the interface of "an ordinary
//! block-structured device". That interface is the [`BlockDevice`] trait
//! defined here; everything above it — including the unmodified file system
//! in `blockrep-fs` — consumes only this trait, and everything below it —
//! a plain in-memory disk, a file-backed disk, or the replicated reliable
//! device in `blockrep-core` — provides it.
//!
//! The crate also supplies the per-site storage used by server processes:
//! a [`VersionedStore`] pairing each block with the version number the
//! consistency protocols rely on.
//!
//! # Examples
//!
//! ```
//! use blockrep_storage::{BlockDevice, MemStore};
//! use blockrep_types::{BlockData, BlockIndex};
//!
//! # fn main() -> Result<(), blockrep_types::DeviceError> {
//! let disk = MemStore::new(16, 512);
//! let k = BlockIndex::new(3);
//! disk.write_block(k, BlockData::zeroed(512))?;
//! assert!(disk.read_block(k)?.is_zeroed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod checksum;
mod device;
mod file;
mod mem;
mod versioned;
pub mod wal;

pub use cache::{CacheStats, CacheStore};
pub use device::BlockDevice;
pub use file::FileStore;
pub use mem::MemStore;
pub use versioned::{SealedBlock, StorageFault, VersionedStore};
pub use wal::{Journaled, Wal, WalRecord, WalStats};
