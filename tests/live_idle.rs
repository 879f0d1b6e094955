//! An idle `LiveCluster` must not run: its site threads block on their
//! inboxes, so a cluster nobody talks to costs no wake-ups. A polling
//! receive loop shows up here as thousands of voluntary context switches
//! per 100 ms. And it is one thread per site, nothing else. A busy one
//! wakes a site's thread only when somebody will wait on it: a one-way
//! install below the inbox window wakes nobody.
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

    // Available-copy writes coordinated at site 0 send the other two sites
    // nothing but one-way installs. Those wake a site's thread only once
    // its inbox fills to the window, not once per write; a loop that never
    // woke them would hang on the first full inbox.
    const WRITES: u32 = 3_200;
    let before = voluntary_switches();
    for i in 0..WRITES {
        let data = BlockData::from(vec![i as u8; 64]);
        cluster.write(SiteId::new(0), k, data).unwrap();
    }
    let per_write = (voluntary_switches() - before) as f64 / f64::from(WRITES);
    assert!(
        per_write <= 0.25,
        "{per_write:.2} voluntary context switches per available-copy write"
    );
    let last = vec![(WRITES - 1) as u8; 64];
    assert_eq!(cluster.read(SiteId::new(2), k).unwrap().as_slice(), last);
}
