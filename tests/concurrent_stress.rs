//! Concurrency smoke tests: device handles and a failure injector hammering
//! the same cluster from multiple threads.
//!
//! The paper's model is sequential ("we do not attempt to model systems
//! which guard against concurrent access"), so these tests do not assert
//! linearizability under concurrent *writes*; they assert the engineering
//! properties a shared runtime must have anyway: no deadlocks, no panics,
//! no torn blocks, and every read returns a value some writer actually
//! wrote.

use blockrep::core::{Cluster, ClusterOptions, LiveCluster, ReliableDevice};
use blockrep::net::DeliveryMode;
use blockrep::storage::BlockDevice;
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

const BLOCK_SIZE: usize = 64;

fn device_cfg(scheme: Scheme, num_blocks: u64) -> DeviceConfig {
    DeviceConfig::builder(scheme)
        .sites(3)
        .num_blocks(num_blocks)
        .block_size(BLOCK_SIZE)
        .build()
        .unwrap()
}

fn fill_of(i: u32) -> BlockData {
    BlockData::from(vec![(i % 251) as u8; BLOCK_SIZE])
}

fn check_block(data: &BlockData, max_written: u32) {
    let bytes = data.as_slice();
    // Not torn: every byte identical.
    let first = bytes[0];
    assert!(bytes.iter().all(|&b| b == first), "torn block read");
    // A value some writer wrote (or the initial zeros).
    assert!(
        first == 0 || (1..=max_written).any(|i| (i % 251) as u8 == first),
        "byte {first} was never written (max {max_written})"
    );
}

#[test]
fn deterministic_cluster_handles_concurrent_clients_and_failures() {
    let cluster = Arc::new(Cluster::new(
        device_cfg(Scheme::AvailableCopy, 8),
        ClusterOptions::default(),
    ));
    let k = BlockIndex::new(0);
    let stop = AtomicBool::new(false);
    let max_written = AtomicU32::new(0);
    std::thread::scope(|scope| {
        // Readers from every site.
        for site in 0..3u32 {
            let cluster = Arc::clone(&cluster);
            let stop = &stop;
            let max_written = &max_written;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = max_written.load(Ordering::Acquire);
                    if let Ok(data) = cluster.read(SiteId::new(site), k) {
                        // Concurrent writers may commit past the snapshot;
                        // re-read the bound after, for a safe upper bound.
                        let upper = max_written.load(Ordering::Acquire).max(snapshot);
                        check_block(&data, upper);
                    }
                }
            });
        }
        // Failure injector cycling s2.
        {
            let cluster = Arc::clone(&cluster);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cluster.fail_site(SiteId::new(2));
                    std::thread::yield_now();
                    cluster.repair_site(SiteId::new(2));
                    std::thread::yield_now();
                }
            });
        }
        // Writer.
        for i in 1..=2_000u32 {
            // Publish the bound before committing so readers never see a
            // value above their bound.
            max_written.store(i, Ordering::Release);
            let origin = cluster.any_serving_site().expect("s0/s1 always up");
            cluster.write(origin, k, fill_of(i)).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Quiesce and verify the final value is the last write.
    if cluster.site_state(SiteId::new(2)) == blockrep::types::SiteState::Failed {
        cluster.repair_site(SiteId::new(2));
    }
    assert_eq!(cluster.read(SiteId::new(2), k).unwrap(), fill_of(2_000));
    blockrep::core::audit::assert_invariants(&*cluster);
}

#[test]
fn live_cluster_handles_concurrent_clients_and_failures() {
    let cluster = Arc::new(LiveCluster::spawn(
        device_cfg(Scheme::NaiveAvailableCopy, 8),
        DeliveryMode::Multicast,
    ));
    let k = BlockIndex::new(1);
    let stop = AtomicBool::new(false);
    let max_written = AtomicU32::new(0);
    std::thread::scope(|scope| {
        for site in [0u32, 1] {
            let cluster = Arc::clone(&cluster);
            let stop = &stop;
            let max_written = &max_written;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = max_written.load(Ordering::Acquire);
                    if let Ok(data) = cluster.read(SiteId::new(site), k) {
                        let upper = max_written.load(Ordering::Acquire).max(snapshot);
                        check_block(&data, upper);
                    }
                }
            });
        }
        {
            let cluster = Arc::clone(&cluster);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cluster.fail_site(SiteId::new(2));
                    std::thread::yield_now();
                    cluster.repair_site(SiteId::new(2));
                    std::thread::yield_now();
                }
            });
        }
        for i in 1..=1_000u32 {
            max_written.store(i, Ordering::Release);
            cluster.write(SiteId::new(0), k, fill_of(i)).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(cluster.read(SiteId::new(0), k).unwrap(), fill_of(1_000));
}

#[test]
fn failover_commits_concurrent_writers_while_preferred_coordinator_crashes_mid_fanout() {
    // Two lock stripes of 64 blocks, one per writer.
    let cluster = Arc::new(LiveCluster::spawn(
        device_cfg(Scheme::Voting, 128),
        DeliveryMode::Multicast,
    ));
    // A nonzero link delay keeps fan-outs in flight long enough that the
    // crash injector regularly catches one mid-scatter.
    cluster.set_link_latency(std::time::Duration::from_micros(50));
    let preferred = SiteId::new(0);
    const ROUNDS: u32 = 200;
    const SALT: u32 = 100_000; // distinct fill stream for the second writer
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Crash injector cycling the preferred coordinator.
        {
            let cluster = Arc::clone(&cluster);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cluster.fail_site(preferred);
                    std::thread::sleep(std::time::Duration::from_micros(120));
                    cluster.repair_site(preferred);
                    std::thread::yield_now();
                }
            });
        }
        // Two writers on blocks in distinct lock stripes, both preferring
        // the cycling coordinator. Distinct stripes means the sharded lock
        // table lets them run concurrently — neither serializes behind the
        // other.
        let mut writers = Vec::new();
        for (blk, salt) in [(2u64, 0u32), (66, SALT)] {
            let cluster = Arc::clone(&cluster);
            writers.push(scope.spawn(move || {
                let dev = ReliableDevice::new(cluster, preferred);
                let k = BlockIndex::new(blk);
                for i in 1..=ROUNDS {
                    // Failover covers a coordinator that cannot serve; a
                    // quorum lost *mid-fan-out* surfaces as a transient
                    // error instead, and the client retries the round.
                    let mut attempts = 0u32;
                    while dev.write_block(k, fill_of(salt + i)).is_err() {
                        attempts += 1;
                        assert!(
                            attempts < 10_000,
                            "round {i} of block {blk} never committed"
                        );
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Quiesce, then the one-copy check: every site reads back exactly the
    // last committed round of each block.
    if cluster.site_state(preferred) == blockrep::types::SiteState::Failed {
        cluster.repair_site(preferred);
    }
    for site in 0..3u32 {
        let origin = SiteId::new(site);
        assert_eq!(
            cluster.read(origin, BlockIndex::new(2)).unwrap(),
            fill_of(ROUNDS),
            "block 2 not exact at site {site}"
        );
        assert_eq!(
            cluster.read(origin, BlockIndex::new(66)).unwrap(),
            fill_of(SALT + ROUNDS),
            "block 66 not exact at site {site}"
        );
    }
}

#[test]
fn filesystem_reads_race_failure_injection() {
    let cluster = Arc::new(Cluster::new(
        DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(256)
            .block_size(512)
            .build()
            .unwrap(),
        ClusterOptions::default(),
    ));
    let fs = Arc::new(
        blockrep::fs::FileSystem::format(ReliableDevice::new(Arc::clone(&cluster), SiteId::new(0)))
            .unwrap(),
    );
    fs.write_file("/stable", &vec![0x42; 4096]).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let fs = Arc::clone(&fs);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let data = fs.read_file("/stable").unwrap();
                    assert_eq!(data, vec![0x42; 4096]);
                }
            });
        }
        {
            let cluster = Arc::clone(&cluster);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cluster.fail_site(SiteId::new(1));
                    std::thread::yield_now();
                    cluster.repair_site(SiteId::new(1));
                }
            });
        }
        // Let the race run for a bounded number of mutation rounds.
        for i in 0..200 {
            fs.write_file(&format!("/churn{}", i % 4), &vec![i as u8; 1024])
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(fs.check().unwrap().is_clean());
    let _ = fs.device().num_blocks();
}
