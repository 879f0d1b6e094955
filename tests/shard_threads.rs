//! A sharded device starts no thread: every batch runs on its caller, a
//! cross-shard one shard after shard. Single-shard batches, cross-shard
//! batches that touch every shard and dropping the device all leave the
//! process's thread count where it was.
//!
//! Counts the threads of the process, so this file holds a single test
//! function in its own binary.

#![cfg(target_os = "linux")]

use blockrep::core::{ClusterOptions, ReliableDevice, ShardSpec};
use blockrep::storage::BlockDevice;
use blockrep::types::{BlockData, BlockIndex, Scheme};
use std::collections::BTreeSet;

/// Threads this process has right now.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists the process's threads")
        .count()
}

#[test]
fn a_sharded_device_starts_no_thread() {
    let shards = 4;
    let spec = ShardSpec {
        block_size: 16,
        ..ShardSpec::new(Scheme::NaiveAvailableCopy, shards, 1024)
    };
    let threads_before = thread_count();
    let dev = ReliableDevice::deterministic(&spec, ClusterOptions::default()).unwrap();
    let batch = |ks: &[BlockIndex], fill: u8| {
        let writes: Vec<_> = ks
            .iter()
            .map(|&k| (k, BlockData::from(vec![fill; 16])))
            .collect();
        dev.write_blocks(&writes).unwrap();
        let back = dev.read_blocks(ks).unwrap();
        assert!(back.iter().all(|d| d.as_slice() == [fill; 16]));
    };

    // One placement group: one shard.
    let group: Vec<BlockIndex> = (0..64).map(BlockIndex::new).collect();
    batch(&group, 1);
    assert_eq!(thread_count(), threads_before, "a single-shard batch");

    // One block of each of the 16 groups touches every shard.
    let spread: Vec<BlockIndex> = (0..1024).step_by(64).map(BlockIndex::new).collect();
    let touched: BTreeSet<usize> = spread.iter().map(|&k| dev.shard_of(k)).collect();
    assert_eq!(touched.len(), shards);
    for round in 0..50u8 {
        batch(&spread, round);
        assert_eq!(thread_count(), threads_before, "round {round}");
    }

    drop(dev);
    assert_eq!(thread_count(), threads_before, "after the drop");
}
