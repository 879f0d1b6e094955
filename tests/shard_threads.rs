//! A sharded device's fan-out threads belong to the device: one worker per
//! shard that can be handed a sub-batch — every shard but the highest,
//! which is always the last shard a batch touches and so runs on the
//! caller — started by the first batch that needs it. Single-shard batches
//! start none, later cross-shard batches start no more, and dropping the
//! device leaves none behind.
//!
//! Counts the threads of the process, so this file holds a single test
//! function in its own binary.

#![cfg(target_os = "linux")]

use blockrep::core::{ClusterOptions, ShardSpec, ShardedDevice};
use blockrep::storage::BlockDevice;
use blockrep::types::{BlockData, BlockIndex, Scheme};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Threads this process has right now.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists the process's threads")
        .count()
}

#[test]
fn a_sharded_device_owns_its_fan_out_threads() {
    let shards = 4;
    let spec = ShardSpec {
        block_size: 16,
        ..ShardSpec::new(Scheme::NaiveAvailableCopy, shards, 1024)
    };
    let threads_before = thread_count();
    let dev = ShardedDevice::deterministic(&spec, ClusterOptions::default()).unwrap();
    let batch = |ks: &[BlockIndex], fill: u8| {
        let writes: Vec<_> = ks
            .iter()
            .map(|&k| (k, BlockData::from(vec![fill; 16])))
            .collect();
        dev.write_blocks(&writes).unwrap();
        let back = dev.read_blocks(ks).unwrap();
        assert!(back.iter().all(|d| d.as_slice() == [fill; 16]));
    };

    // One placement group: one shard, served on the caller.
    let group: Vec<BlockIndex> = (0..64).map(BlockIndex::new).collect();
    batch(&group, 1);
    assert_eq!(thread_count(), threads_before, "a single-shard batch");

    // One block of each of the 16 groups touches every shard.
    let spread: Vec<BlockIndex> = (0..1024).step_by(64).map(BlockIndex::new).collect();
    let touched: BTreeSet<usize> = spread.iter().map(|&k| dev.shard_of(k)).collect();
    assert_eq!(touched.len(), shards);
    for round in 0..50u8 {
        batch(&spread, round);
        assert_eq!(
            thread_count() - threads_before,
            shards - 1,
            "round {round}: one worker per shard but the highest"
        );
    }

    drop(dev);
    // A joined thread's task entry is released by the kernel as the thread
    // exits, which can trail the join by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() > threads_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        thread_count(),
        threads_before,
        "workers outlived the device"
    );
}
