//! A small UNIX-like file system over any [`BlockDevice`](blockrep_storage::BlockDevice).
//!
//! The paper's whole argument for the *reliable device* is that replication
//! below the block interface leaves "the operating system kernel and the
//! file system unchanged". This crate is the proof by construction: a
//! self-contained file system — superblock, block bitmap, inode table with
//! direct and indirect pointers, directories — that knows nothing about
//! replication, yet becomes fault tolerant the moment it is formatted onto a
//! [`ReliableDevice`](https://docs.rs/blockrep-core) instead of a local
//! disk. The integration tests run the *same* file-system code over both
//! and crash sites mid-workload.
//!
//! # On-disk layout
//!
//! ```text
//! block 0        superblock
//! blocks 1..     block allocation bitmap (1 bit per device block)
//! blocks ..      inode table (64-byte inodes)
//! blocks ..      data blocks (files, directories, indirect blocks)
//! ```
//!
//! # One block transaction per operation
//!
//! On a replicated device every device call is a protocol round, so the
//! file system is frugal with them. Each public operation runs in its own
//! block transaction (`txn.rs`), the only path from this crate to the
//! device: a block is read at most once per operation however many inodes,
//! bitmap bits or directory entries of it are consulted, edits happen in
//! memory, and everything the operation changed goes out in **one**
//! `write_blocks` at the end (data blocks first, then the inode and bitmap
//! blocks that point at them). An operation that fails on the way — no
//! space, no such file — drops its transaction and has written nothing.
//! Nothing is cached between operations: the device, not this client,
//! holds the only lasting copy.
//!
//! # Examples
//!
//! ```
//! use blockrep_fs::FileSystem;
//! use blockrep_storage::MemStore;
//!
//! # fn main() -> Result<(), blockrep_fs::FsError> {
//! let disk = MemStore::new(128, 512);
//! let fs = FileSystem::format(disk)?;
//! fs.mkdir("/logs")?;
//! fs.write_file("/logs/boot", b"reliable device online")?;
//! assert_eq!(fs.read_file("/logs/boot")?, b"reliable device online");
//! assert_eq!(fs.read_dir("/logs")?, vec!["boot".to_string()]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod check;
mod dir;
mod error;
mod extra;
mod fs;
mod handle;
mod inode;
mod layout;
mod path;
mod txn;

pub use check::{FsckProblem, FsckReport};
pub use error::{FsError, FsResult};
pub use extra::WalkEntry;
pub use fs::{FileKind, FileSystem, Metadata};
pub use handle::FileHandle;
pub use layout::FsGeometry;
