//! An idle `LiveCluster` must not run: its site threads block on their
//! inboxes, so a cluster nobody talks to costs no wake-ups. A polling
//! receive loop shows up here as thousands of voluntary context switches
//! per 100 ms. And it is one thread per site, nothing else.
//!
//! Counts the threads of the process and their context switches, so this
//! file holds a single test function in its own binary.

#![cfg(target_os = "linux")]

use blockrep::core::LiveCluster;
use blockrep::net::DeliveryMode;
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::time::Duration;

/// Threads this process has right now.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists the process's threads")
        .count()
}

/// Sum of `voluntary_ctxt_switches` over every thread of this process.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists the process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse::<u64>()
                .ok()
        })
        .sum()
}

#[test]
fn idle_live_cluster_makes_no_wakeups() {
    let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
        .sites(3)
        .num_blocks(4)
        .block_size(64)
        .build()
        .unwrap();
    let threads_before = thread_count();
    let cluster = LiveCluster::spawn(cfg, DeliveryMode::Multicast);
    assert_eq!(
        thread_count() - threads_before,
        3,
        "a live cluster is one server thread per site"
    );
    let k = BlockIndex::new(1);
    cluster
        .write(SiteId::new(0), k, BlockData::from(vec![7; 64]))
        .unwrap();
    assert_eq!(
        cluster.read(SiteId::new(2), k).unwrap().as_slice(),
        &[7; 64]
    );

    let before = voluntary_switches();
    std::thread::sleep(Duration::from_millis(100));
    let idle = voluntary_switches() - before;
    assert!(
        idle < 50,
        "{idle} voluntary context switches while the cluster sat idle for 100 ms"
    );
}
