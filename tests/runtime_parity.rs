//! Parity between the three runtimes: the deterministic [`Cluster`], the
//! channel-threaded [`LiveCluster`], and the socket-backed [`TcpCluster`]
//! run the *same* protocol code, so an identical workload must produce
//! identical results **and identical §5 traffic counts** on all of them.

use blockrep::core::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
use blockrep::net::{DeliveryMode, TrafficSnapshot};
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};

fn cfg(scheme: Scheme) -> DeviceConfig {
    DeviceConfig::builder(scheme)
        .sites(4)
        .num_blocks(8)
        .block_size(32)
        .build()
        .unwrap()
}

fn s(i: u32) -> SiteId {
    SiteId::new(i)
}

fn blk(i: u64) -> BlockIndex {
    BlockIndex::new(i)
}

/// A fixed workload with failures, degraded writes, repairs, and reads.
/// Returns (read results, traffic snapshot).
fn drive(
    read: &dyn Fn(SiteId, BlockIndex) -> Option<BlockData>,
    write: &dyn Fn(SiteId, BlockIndex, BlockData) -> bool,
    fail: &dyn Fn(SiteId),
    repair: &dyn Fn(SiteId),
    traffic: &dyn Fn() -> TrafficSnapshot,
) -> (Vec<Option<Vec<u8>>>, TrafficSnapshot) {
    let fill = |b: u8| BlockData::from(vec![b; 32]);
    write(s(0), blk(0), fill(1));
    write(s(1), blk(1), fill(2));
    fail(s(3));
    write(s(0), blk(0), fill(3));
    write(s(2), blk(2), fill(4));
    repair(s(3));
    fail(s(0));
    write(s(1), blk(3), fill(5));
    repair(s(0));
    let reads = vec![
        read(s(0), blk(0)).map(|d| d.as_slice().to_vec()),
        read(s(1), blk(1)).map(|d| d.as_slice().to_vec()),
        read(s(3), blk(2)).map(|d| d.as_slice().to_vec()),
        read(s(2), blk(3)).map(|d| d.as_slice().to_vec()),
    ];
    (reads, traffic())
}

fn parity_for(scheme: Scheme, mode: DeliveryMode) {
    // The same protocol code over three transports: direct state access,
    // channels between threads, and framed loopback TCP.
    let det = Cluster::new(cfg(scheme), ClusterOptions { mode });
    let (det_reads, det_traffic) = drive(
        &|o, k| det.read(o, k).ok(),
        &|o, k, d| det.write(o, k, d).is_ok(),
        &|x| det.fail_site(x),
        &|x| det.repair_site(x),
        &|| det.traffic(),
    );

    let live = LiveCluster::spawn(cfg(scheme), mode);
    let (live_reads, live_traffic) = drive(
        &|o, k| live.read(o, k).ok(),
        &|o, k, d| live.write(o, k, d).is_ok(),
        &|x| live.fail_site(x),
        &|x| live.repair_site(x),
        &|| live.counter().snapshot(),
    );

    let tcp = TcpCluster::spawn(cfg(scheme), mode).unwrap();
    let (tcp_reads, tcp_traffic) = drive(
        &|o, k| tcp.read(o, k).ok(),
        &|o, k, d| tcp.write(o, k, d).is_ok(),
        &|x| tcp.fail_site(x),
        &|x| tcp.repair_site(x),
        &|| tcp.counter().snapshot(),
    );

    assert_eq!(
        det_reads, live_reads,
        "{scheme}/{mode}: channel runtime diverged"
    );
    assert_eq!(
        det_reads, tcp_reads,
        "{scheme}/{mode}: tcp runtime diverged"
    );
    assert_eq!(
        det_traffic, live_traffic,
        "{scheme}/{mode}: channel §5 accounting must match"
    );
    assert_eq!(
        det_traffic, tcp_traffic,
        "{scheme}/{mode}: tcp §5 accounting must match"
    );
}

#[test]
fn voting_runtimes_agree_multicast() {
    parity_for(Scheme::Voting, DeliveryMode::Multicast);
}

#[test]
fn voting_runtimes_agree_unicast() {
    parity_for(Scheme::Voting, DeliveryMode::Unicast);
}

#[test]
fn available_copy_runtimes_agree_multicast() {
    parity_for(Scheme::AvailableCopy, DeliveryMode::Multicast);
}

#[test]
fn available_copy_runtimes_agree_unicast() {
    parity_for(Scheme::AvailableCopy, DeliveryMode::Unicast);
}

#[test]
fn naive_runtimes_agree_multicast() {
    parity_for(Scheme::NaiveAvailableCopy, DeliveryMode::Multicast);
}

#[test]
fn naive_runtimes_agree_unicast() {
    parity_for(Scheme::NaiveAvailableCopy, DeliveryMode::Unicast);
}

/// Concurrency must change latency, never §5 message counts: the
/// deterministic cluster performs every fan-out as a sequential loop, the
/// live and TCP runtimes put every request in flight before awaiting any
/// reply, and their traffic snapshots must be byte-identical to its for
/// every scheme × delivery mode.
#[test]
fn parallel_fanout_traffic_is_byte_identical_to_sequential() {
    for scheme in Scheme::ALL {
        for mode in DeliveryMode::ALL {
            parity_for(scheme, mode);
        }
    }
}

/// A fixed vectored workload: batched writes, a failure window that leaves
/// one replica stale, then batched reads — one of them coordinated by the
/// formerly failed site, so the batch straddles up-to-date and out-of-date
/// blocks and voting's lazy repair runs per block *inside* one vectored
/// round. Returns (read results, traffic snapshot).
type WriteManyFn<'a> = &'a dyn Fn(SiteId, &[(BlockIndex, BlockData)]) -> bool;
type ReadManyFn<'a> = &'a dyn Fn(SiteId, &[BlockIndex]) -> Option<Vec<Vec<u8>>>;

fn drive_vectored(
    write_many: WriteManyFn<'_>,
    read_many: ReadManyFn<'_>,
    fail: &dyn Fn(SiteId),
    repair: &dyn Fn(SiteId),
    traffic: &dyn Fn() -> TrafficSnapshot,
) -> (Vec<Option<Vec<Vec<u8>>>>, TrafficSnapshot) {
    let fill = |b: u8| BlockData::from(vec![b; 32]);
    let batch: Vec<(BlockIndex, BlockData)> =
        (0..4).map(|i| (blk(i), fill(10 + i as u8))).collect();
    assert!(write_many(s(0), &batch));
    fail(s(3));
    let overwrite: Vec<(BlockIndex, BlockData)> =
        (1..3).map(|i| (blk(i), fill(20 + i as u8))).collect();
    assert!(write_many(s(0), &overwrite));
    repair(s(3));
    let ks: Vec<BlockIndex> = (0..4).map(blk).collect();
    let reads = vec![
        // s3 missed the overwrite of blocks 1..3: a batch straddling
        // current and stale replicas.
        read_many(s(3), &ks),
        read_many(s(1), &ks),
    ];
    (reads, traffic())
}

type VectoredRun = (Vec<Option<Vec<Vec<u8>>>>, TrafficSnapshot);

/// The vectored workload on each runtime, labelled: deterministic, live, tcp.
fn vectored_on_every_runtime(
    scheme: Scheme,
    mode: DeliveryMode,
) -> [(&'static str, VectoredRun); 3] {
    fn bytes(blocks: Vec<BlockData>) -> Vec<Vec<u8>> {
        blocks.iter().map(|d| d.as_slice().to_vec()).collect()
    }
    let det = Cluster::new(cfg(scheme), ClusterOptions { mode });
    let det_run = drive_vectored(
        &|o, ws| det.write_many(o, ws).is_ok(),
        &|o, ks| det.read_many(o, ks).ok().map(bytes),
        &|x| det.fail_site(x),
        &|x| det.repair_site(x),
        &|| det.traffic(),
    );
    let live = LiveCluster::spawn(cfg(scheme), mode);
    let live_run = drive_vectored(
        &|o, ws| live.write_many(o, ws).is_ok(),
        &|o, ks| live.read_many(o, ks).ok().map(bytes),
        &|x| live.fail_site(x),
        &|x| live.repair_site(x),
        &|| live.counter().snapshot(),
    );
    let tcp = TcpCluster::spawn(cfg(scheme), mode).unwrap();
    let tcp_run = drive_vectored(
        &|o, ws| tcp.write_many(o, ws).is_ok(),
        &|o, ks| tcp.read_many(o, ks).ok().map(bytes),
        &|x| tcp.fail_site(x),
        &|x| tcp.repair_site(x),
        &|| tcp.counter().snapshot(),
    );
    [
        ("deterministic", det_run),
        ("live", live_run),
        ("tcp", tcp_run),
    ]
}

/// Batched reads/writes must be byte-identical AND §5-traffic-identical to
/// the equivalent per-block loop, on every scheme × delivery mode — and the
/// vectored path must agree across all three runtimes.
#[test]
fn vectored_ops_match_per_block_loop_on_all_runtimes() {
    for scheme in Scheme::ALL {
        for mode in DeliveryMode::ALL {
            // Per-block baseline: the same workload with the batch unrolled
            // into single-block operations, in batch order.
            let unrolled = Cluster::new(cfg(scheme), ClusterOptions { mode });
            let baseline = drive_vectored(
                &|o, ws| {
                    ws.iter()
                        .all(|(k, d)| unrolled.write(o, *k, d.clone()).is_ok())
                },
                &|o, ks| {
                    ks.iter()
                        .map(|&k| unrolled.read(o, k).ok().map(|d| d.as_slice().to_vec()))
                        .collect()
                },
                &|x| unrolled.fail_site(x),
                &|x| unrolled.repair_site(x),
                &|| unrolled.traffic(),
            );
            for (runtime, got) in vectored_on_every_runtime(scheme, mode) {
                assert_eq!(
                    baseline, got,
                    "{scheme}/{mode}: {runtime} batched ops diverged from the per-block loop"
                );
            }
        }
    }
}

/// The concurrent runtimes' scatter must leave vectored voting results and
/// traffic exactly as the deterministic cluster's sequential loop has them.
#[test]
fn vectored_ops_are_fanout_and_quorum_invariant() {
    for mode in DeliveryMode::ALL {
        let [(_, baseline), concurrent @ ..] = vectored_on_every_runtime(Scheme::Voting, mode);
        for (runtime, got) in concurrent {
            assert_eq!(baseline, got, "{mode}/{runtime}");
        }
    }
}

#[test]
fn live_cluster_total_failure_recovery_matches_deterministic() {
    for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
        let run = |fail_order: &[u32], repair_order: &[u32]| {
            let det = Cluster::new(cfg(scheme), ClusterOptions::default());
            let live = LiveCluster::spawn(cfg(scheme), DeliveryMode::Multicast);
            det.write(s(0), blk(0), BlockData::from(vec![9; 32]))
                .unwrap();
            live.write(s(0), blk(0), BlockData::from(vec![9; 32]))
                .unwrap();
            let mut availabilities = Vec::new();
            for &i in fail_order {
                det.fail_site(s(i));
                live.fail_site(s(i));
            }
            for &i in repair_order {
                det.repair_site(s(i));
                live.repair_site(s(i));
                assert_eq!(
                    det.is_available(),
                    live.is_available(),
                    "{scheme}: divergence after repairing s{i}"
                );
                availabilities.push(det.is_available());
            }
            availabilities
        };
        // Stale-first repair order after a total failure.
        let avail = run(&[1, 2, 3, 0], &[1, 2, 3, 0]);
        assert_eq!(avail.last(), Some(&true));
    }
}
