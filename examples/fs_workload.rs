//! End-to-end traffic accounting: an identical file-system workload billed
//! under each consistency scheme, plus the block-level read:write ratio the
//! workload actually induces (the `x` of Figures 11/12, measured rather
//! than assumed).
//!
//! §5's composite cost is "one write and x reads", with `x ≈ 2.5` quoted
//! from the BSD trace study. This example closes the loop: it drives a
//! real file-system workload (creates, writes, reads, deletes) through the
//! unmodified `blockrep-fs` over a reliable device, counts the block reads
//! and writes the file system issues, and reports the total §5
//! transmissions each scheme pays for the identical workload.
//!
//! ```text
//! cargo run --release --example fs_workload
//! ```
//!
//! Its tests run under `cargo test` (`test = true` in the root manifest).

use blockrep::core::{Cluster, ClusterOptions, ReliableDevice};
use blockrep::fs::FileSystem;
use blockrep::net::{DeliveryMode, OpClass};
use blockrep::storage::BlockDevice;
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, DeviceResult, Scheme, SiteId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File operations in the standard workload.
const FS_OPS: u32 = 500;
/// Replica sites of the device.
const SITES: usize = 3;
/// Workload RNG seed.
const SEED: u64 = 0xF57E;

/// What the workload cost.
#[derive(Debug, Clone, Copy)]
struct FsLoadEstimate {
    /// Block reads the file system issued (at the device interface).
    block_reads: u64,
    /// Block writes the file system issued.
    block_writes: u64,
    /// Total §5 transmissions (read + write classes).
    transmissions: u64,
    /// File-system operations performed.
    fs_ops: u32,
}

impl FsLoadEstimate {
    /// The block-level read:write ratio this workload induced.
    fn read_write_ratio(&self) -> f64 {
        self.block_reads as f64 / self.block_writes.max(1) as f64
    }

    /// Mean transmissions per file-system operation.
    fn per_fs_op(&self) -> f64 {
        self.transmissions as f64 / self.fs_ops.max(1) as f64
    }
}

/// A device wrapper counting the blocks the file system reads and writes,
/// batches included, and passing every call through unchanged.
struct Counting<D> {
    inner: D,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl<D> Counting<D> {
    /// `(block reads, block writes)` so far.
    fn counts(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }
}

impl<D: BlockDevice> BlockDevice for Counting<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_block(k)
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_block(k, data)
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.reads.fetch_add(ks.len() as u64, Ordering::Relaxed);
        self.inner.read_blocks(ks)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        self.writes
            .fetch_add(writes.len() as u64, Ordering::Relaxed);
        self.inner.write_blocks(writes)
    }
}

/// Replays a deterministic mixed file workload (60% whole-file reads, 30%
/// writes/creates, 10% deletes over a pool of 24 files up to 4 KiB) on a
/// freshly formatted 3-site device and measures the §5 traffic it
/// generates. Formatting is not billed.
///
/// # Panics
///
/// Panics if the file system errors on an always-available device (which
/// would be a bug).
fn measure(scheme: Scheme, mode: DeliveryMode, ops: u32) -> FsLoadEstimate {
    let device = DeviceConfig::builder(scheme)
        .sites(SITES)
        .num_blocks(2048)
        .block_size(512)
        .build()
        .expect("the workload's device configuration is valid");
    let cluster = Arc::new(Cluster::new(device, ClusterOptions { mode }));
    let fs = FileSystem::format(Counting {
        inner: ReliableDevice::new(Arc::clone(&cluster), SiteId::new(0)),
        reads: AtomicU64::new(0),
        writes: AtomicU64::new(0),
    })
    .expect("formatting a fresh reliable device succeeds");
    cluster.counter().reset();
    let (base_reads, base_writes) = fs.device().counts();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sizes: Vec<Option<usize>> = vec![None; 24];
    for _ in 0..ops {
        let slot = rng.random_range(0..sizes.len());
        let path = format!("/f{slot}");
        let roll: f64 = rng.random();
        if roll < 0.6 {
            if let Some(expect) = sizes[slot] {
                let data = fs
                    .read_file(&path)
                    .expect("device is always available here");
                assert_eq!(data.len(), expect, "file length corrupted");
            }
        } else if roll < 0.9 {
            let len = rng.random_range(1..4096usize);
            let byte = rng.random::<u8>();
            fs.write_file(&path, &vec![byte; len]).expect("write_file");
            sizes[slot] = Some(len);
        } else if sizes[slot].is_some() {
            fs.remove_file(&path).expect("remove_file");
            sizes[slot] = None;
        }
    }
    let (reads, writes) = fs.device().counts();
    let snap = cluster.traffic();
    FsLoadEstimate {
        block_reads: reads - base_reads,
        block_writes: writes - base_writes,
        transmissions: snap.total_for(OpClass::Read) + snap.total_for(OpClass::Write),
        fs_ops: ops,
    }
}

fn main() {
    println!("500 file operations (60% reads / 30% writes / 10% deletes) on 3 sites\n");
    for mode in DeliveryMode::ALL {
        println!("### {mode}\n");
        println!("| scheme | block reads | block writes | r:w ratio | transmissions | per fs-op |");
        println!("|---|---|---|---|---|---|");
        for scheme in Scheme::ALL {
            let est = measure(scheme, mode, FS_OPS);
            println!(
                "| {} | {} | {} | {:.2} | {} | {:.2} |",
                scheme,
                est.block_reads,
                est.block_writes,
                est.read_write_ratio(),
                est.transmissions,
                est.per_fs_op(),
            );
        }
        println!();
    }
    println!("Same block workload, very different bills — §5's conclusion holds at the");
    println!("file-system level: naive available copy is the cheapest scheme in both");
    println!("network environments.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_workload_orders_schemes_as_figure_11() {
        let run = |scheme| measure(scheme, DeliveryMode::Multicast, 300);
        let v = run(Scheme::Voting);
        let a = run(Scheme::AvailableCopy);
        let na = run(Scheme::NaiveAvailableCopy);
        // Identical block workload…
        assert_eq!(v.block_reads, a.block_reads);
        assert_eq!(a.block_reads, na.block_reads);
        assert_eq!(v.block_writes, na.block_writes);
        // …very different bills.
        assert!(
            na.transmissions < a.transmissions && a.transmissions < v.transmissions,
            "naive {} < ac {} < voting {}",
            na.transmissions,
            a.transmissions,
            v.transmissions
        );
    }

    #[test]
    fn fs_workloads_are_read_dominated() {
        // The shape the paper cites from the BSD traces: more block reads
        // than block writes is *not* guaranteed for every FS (metadata
        // updates write a lot), but reads must be a substantial share.
        let est = measure(Scheme::NaiveAvailableCopy, DeliveryMode::Multicast, 300);
        assert!(est.block_reads > 0 && est.block_writes > 0);
        let ratio = est.read_write_ratio();
        assert!(ratio > 0.3, "ratio {ratio} suspiciously write-heavy");
    }

    #[test]
    fn estimates_are_deterministic() {
        let a = measure(Scheme::Voting, DeliveryMode::Unicast, 120);
        let b = measure(Scheme::Voting, DeliveryMode::Unicast, 120);
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.block_reads, b.block_reads);
    }
}
