//! Parity between the three transports: the deterministic [`Cluster`], the
//! channel-threaded [`LiveCluster`], and the socket-backed [`TcpCluster`]
//! are one cluster body over three ways of carrying a request to the one
//! site service, so an identical workload must produce identical results
//! **and identical §5 traffic counts** on all of them.
//!
//! The cases run at four sites and, as one more input, at cluster sizes
//! past [`INLINE_SITES`], where every per-site list of a protocol round
//! (address lists, voters, delivered sets) has spilled to the heap.

use blockrep::core::backend::INLINE_SITES;
use blockrep::core::wire::WireResponse;
use blockrep::core::{
    Cluster, ClusterOptions, LiveCluster, ScatterRequest, ScatterSpec, TcpCluster, WriteBatch,
};
use blockrep::net::{DeliveryMode, MsgKind, OpClass, TrafficSnapshot};
use blockrep::types::{
    BlockData, BlockIndex, DeviceConfig, Scheme, SiteId, SiteState, VersionNumber,
};
use proptest::prelude::*;

/// The cluster sizes the parity cases run at: the suite's four sites, and
/// two past the inline capacity of a round's per-site lists.
const SITES: [usize; 3] = [4, 9, 13];
const _: () = assert!(SITES[1] > INLINE_SITES);

fn cfg(scheme: Scheme, sites: usize) -> DeviceConfig {
    DeviceConfig::builder(scheme)
        .sites(sites)
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

fn parity_for(scheme: Scheme, mode: DeliveryMode, sites: usize) {
    // The same protocol code over three transports: direct state access,
    // channels between threads, and framed loopback TCP.
    let det = Cluster::new(cfg(scheme, sites), ClusterOptions { mode });
    let (det_reads, det_traffic) = drive(
        &|o, k| det.read(o, k).ok(),
        &|o, k, d| det.write(o, k, d).is_ok(),
        &|x| det.fail_site(x),
        &|x| det.repair_site(x),
        &|| det.traffic(),
    );

    let live = LiveCluster::spawn(cfg(scheme, sites), mode);
    let (live_reads, live_traffic) = drive(
        &|o, k| live.read(o, k).ok(),
        &|o, k, d| live.write(o, k, d).is_ok(),
        &|x| live.fail_site(x),
        &|x| live.repair_site(x),
        &|| live.counter().snapshot(),
    );

    let tcp = TcpCluster::spawn(cfg(scheme, sites), mode).unwrap();
    let (tcp_reads, tcp_traffic) = drive(
        &|o, k| tcp.read(o, k).ok(),
        &|o, k, d| tcp.write(o, k, d).is_ok(),
        &|x| tcp.fail_site(x),
        &|x| tcp.repair_site(x),
        &|| tcp.counter().snapshot(),
    );

    let case = format!("{scheme}/{mode}/{sites} sites");
    assert_eq!(det_reads, live_reads, "{case}: channel runtime diverged");
    assert_eq!(det_reads, tcp_reads, "{case}: tcp runtime diverged");
    assert_eq!(
        det_traffic, live_traffic,
        "{case}: channel §5 accounting must match"
    );
    assert_eq!(
        det_traffic, tcp_traffic,
        "{case}: tcp §5 accounting must match"
    );
}

#[test]
fn voting_runtimes_agree_multicast() {
    parity_for(Scheme::Voting, DeliveryMode::Multicast, 4);
}

#[test]
fn voting_runtimes_agree_unicast() {
    parity_for(Scheme::Voting, DeliveryMode::Unicast, 4);
}

#[test]
fn available_copy_runtimes_agree_multicast() {
    parity_for(Scheme::AvailableCopy, DeliveryMode::Multicast, 4);
}

#[test]
fn available_copy_runtimes_agree_unicast() {
    parity_for(Scheme::AvailableCopy, DeliveryMode::Unicast, 4);
}

#[test]
fn naive_runtimes_agree_multicast() {
    parity_for(Scheme::NaiveAvailableCopy, DeliveryMode::Multicast, 4);
}

#[test]
fn naive_runtimes_agree_unicast() {
    parity_for(Scheme::NaiveAvailableCopy, DeliveryMode::Unicast, 4);
}

/// Concurrency must change latency, never §5 message counts: the
/// deterministic cluster performs every fan-out as a sequential loop, the
/// live and TCP runtimes put every request in flight before awaiting any
/// reply, and their traffic snapshots must be byte-identical to its for
/// every scheme × delivery mode × cluster size.
#[test]
fn parallel_fanout_traffic_is_byte_identical_to_sequential() {
    for sites in SITES {
        for scheme in Scheme::ALL {
            for mode in DeliveryMode::ALL {
                parity_for(scheme, mode, sites);
            }
        }
    }
}

/// A scatter hands its fold one reply per target, in target order, on
/// every runtime and at every cluster size: a target that cannot answer
/// keeps its place with `None`, and the replies and their §5 charges are
/// the deterministic cluster's sequential loop's.
#[test]
fn scatter_replies_keep_target_order_at_every_cluster_size() {
    let spec = |op, reply_charge| ScatterSpec {
        op,
        reply_charge,
        reply_units: 1,
    };
    let batch: WriteBatch = [(blk(0), VersionNumber::new(1), BlockData::from(vec![7; 32]))]
        .into_iter()
        .collect();
    let install = ScatterRequest::InstallMany(&batch);
    let keys = [blk(0)];
    let vote = ScatterRequest::VoteMany(&keys);
    for sites in SITES {
        let mode = DeliveryMode::Multicast;
        let det = Cluster::new(cfg(Scheme::Voting, sites), ClusterOptions { mode });
        let live = LiveCluster::spawn(cfg(Scheme::Voting, sites), mode);
        let tcp = TcpCluster::spawn(cfg(Scheme::Voting, sites), mode).unwrap();
        let targets: Vec<SiteId> = (1..sites as u32).map(s).collect();
        let silent = |t: SiteId| t.as_u32() % 3 == 0;
        // One runtime's install and vote scatters, their fold calls
        // collected and checked for order.
        macro_rules! scatters_on {
            ($name:expr, $rt:expr) => {{
                let (name, rt) = ($name, $rt);
                for &t in targets.iter().filter(|&&t| silent(t)) {
                    rt.set_local_state(t, SiteState::Failed);
                }
                let mut installs: Vec<(SiteId, Option<WireResponse>)> = Vec::new();
                let write = spec(OpClass::Write, None);
                rt.scatter(write, s(0), &targets, &install, |t, r| {
                    installs.push((t, r))
                });
                let mut votes: Vec<(SiteId, Option<WireResponse>)> = Vec::new();
                let read = spec(OpClass::Read, Some(MsgKind::VoteReply));
                rt.scatter(read, s(0), &targets, &vote, |t, r| votes.push((t, r)));
                for replies in [&installs, &votes] {
                    let order: Vec<SiteId> = replies.iter().map(|&(t, _)| t).collect();
                    assert_eq!(order, targets, "{name}, {sites} sites");
                    for (t, reply) in replies.iter() {
                        assert_eq!(reply.is_none(), silent(*t), "{name}, {sites} sites: {t}");
                    }
                }
                let traffic = rt.counter().snapshot();
                (name, installs, votes, traffic)
            }};
        }
        let runs = [
            scatters_on!("deterministic", &det),
            scatters_on!("live", &live),
            scatters_on!("tcp", &tcp),
        ];
        let (_, installs, votes, traffic) = &runs[0];
        for (name, i, v, t) in &runs[1..] {
            assert_eq!(
                (i, v, t),
                (installs, votes, traffic),
                "{name} diverged at {sites} sites"
            );
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
    sites: usize,
) -> [(&'static str, VectoredRun); 3] {
    fn bytes(blocks: Vec<BlockData>) -> Vec<Vec<u8>> {
        blocks.iter().map(|d| d.as_slice().to_vec()).collect()
    }
    let det = Cluster::new(cfg(scheme, sites), ClusterOptions { mode });
    let det_run = drive_vectored(
        &|o, ws| det.write_many(o, ws).is_ok(),
        &|o, ks| det.read_many(o, ks).ok().map(bytes),
        &|x| det.fail_site(x),
        &|x| det.repair_site(x),
        &|| det.traffic(),
    );
    let live = LiveCluster::spawn(cfg(scheme, sites), mode);
    let live_run = drive_vectored(
        &|o, ws| live.write_many(o, ws).is_ok(),
        &|o, ks| live.read_many(o, ks).ok().map(bytes),
        &|x| live.fail_site(x),
        &|x| live.repair_site(x),
        &|| live.counter().snapshot(),
    );
    let tcp = TcpCluster::spawn(cfg(scheme, sites), mode).unwrap();
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
/// the equivalent per-block loop, on every scheme × delivery mode × cluster
/// size — and the vectored path must agree across all three runtimes.
#[test]
fn vectored_ops_match_per_block_loop_on_all_runtimes() {
    for sites in SITES {
        for scheme in Scheme::ALL {
            for mode in DeliveryMode::ALL {
                // Per-block baseline: the same workload with the batch
                // unrolled into single-block operations, in batch order.
                let unrolled = Cluster::new(cfg(scheme, sites), ClusterOptions { mode });
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
                for (runtime, got) in vectored_on_every_runtime(scheme, mode, sites) {
                    assert_eq!(
                        baseline, got,
                        "{scheme}/{mode}/{sites} sites: {runtime} batched ops diverged from \
                         the per-block loop"
                    );
                }
            }
        }
    }
}

const NUM_BLOCKS: u64 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Vectored equivalence: a random script of batched writes and reads
    /// must leave exactly the same bytes AND the same §5 traffic totals as
    /// the identical script unrolled into per-block operations.
    #[test]
    fn vectored_ops_equal_per_block_ops(
        script in prop::collection::vec(
            (0..3u32, prop::collection::btree_set(0..NUM_BLOCKS, 1..4), any::<u8>()),
            1..16,
        )
    ) {
        use blockrep::types::BlockData;
        for scheme in Scheme::ALL {
            let cfg = DeviceConfig::builder(scheme)
                .sites(3)
                .num_blocks(NUM_BLOCKS)
                .block_size(16)
                .build()
                .unwrap();
            let batched = Cluster::new(cfg.clone(), ClusterOptions::default());
            let unrolled = Cluster::new(cfg, ClusterOptions::default());
            for (origin, blocks, fill) in &script {
                let o = SiteId::new(*origin);
                let writes: Vec<(BlockIndex, BlockData)> = blocks
                    .iter()
                    .map(|&k| (BlockIndex::new(k), BlockData::from(vec![fill.wrapping_add(k as u8); 16])))
                    .collect();
                let a = batched.write_many(o, &writes).is_ok();
                let b = writes.iter().all(|(k, d)| unrolled.write(o, *k, d.clone()).is_ok());
                prop_assert_eq!(a, b, "{}: write outcome diverged", scheme);
                let ks: Vec<BlockIndex> = blocks.iter().map(|&k| BlockIndex::new(k)).collect();
                let a: Option<Vec<Vec<u8>>> = batched
                    .read_many(o, &ks)
                    .ok()
                    .map(|v| v.iter().map(|d| d.as_slice().to_vec()).collect());
                let b: Option<Vec<Vec<u8>>> = ks
                    .iter()
                    .map(|&k| unrolled.read(o, k).ok().map(|d| d.as_slice().to_vec()))
                    .collect();
                prop_assert_eq!(a, b, "{}: read bytes diverged", scheme);
            }
            prop_assert_eq!(
                batched.traffic(),
                unrolled.traffic(),
                "{}: batched §5 accounting diverged from the per-block loop",
                scheme
            );
        }
    }
}

/// The concurrent runtimes' scatter must leave vectored voting results and
/// traffic exactly as the deterministic cluster's sequential loop has them.
#[test]
fn vectored_ops_are_fanout_and_quorum_invariant() {
    for sites in SITES {
        for mode in DeliveryMode::ALL {
            let [(_, baseline), concurrent @ ..] =
                vectored_on_every_runtime(Scheme::Voting, mode, sites);
            for (runtime, got) in concurrent {
                assert_eq!(baseline, got, "{mode}/{runtime}/{sites} sites");
            }
        }
    }
}

/// A voting read of a 3-block run at a site that missed one block's write,
/// on `$c`: the run returns every block's written bytes, the stale block's
/// refresh lands on the origin's disk, and the read charges exactly one
/// block transfer. Yields the cluster's traffic, for parity.
macro_rules! stale_run_read {
    ($c:expr) => {{
        let c = $c;
        let fill = |b: u8| BlockData::from(vec![b; 32]);
        let ks: Vec<BlockIndex> = (0..3).map(blk).collect();
        let first: Vec<(BlockIndex, BlockData)> = ks.iter().map(|&k| (k, fill(1))).collect();
        c.write_many(s(0), &first).unwrap();
        c.fail_site(s(3));
        c.write(s(0), blk(1), fill(2)).unwrap();
        c.repair_site(s(3));
        let transfers = || c.traffic().get(OpClass::Read, MsgKind::BlockTransfer);
        assert_eq!(transfers(), 0);
        for _ in 0..2 {
            // The second read finds the origin's copies current.
            let got = c.read_many(s(3), &ks).unwrap();
            assert_eq!(got, [fill(1), fill(2), fill(1)], "{c:?}");
            assert_eq!(transfers(), 1, "{c:?}");
        }
        assert_eq!(c.version_of(s(3), blk(1)), VersionNumber::new(2), "{c:?}");
        assert_eq!(c.data_of(s(3), blk(1)), fill(2), "{c:?}");
        c.traffic()
    }};
}

#[test]
fn a_stale_block_of_a_read_run_is_refreshed_once_on_every_runtime() {
    let (scheme, mode) = (Scheme::Voting, DeliveryMode::Multicast);
    let det = stale_run_read!(Cluster::new(cfg(scheme, 4), ClusterOptions { mode }));
    let live = stale_run_read!(LiveCluster::spawn(cfg(scheme, 4), mode));
    let tcp = stale_run_read!(TcpCluster::spawn(cfg(scheme, 4), mode).unwrap());
    assert_eq!(det, live, "channel §5 accounting must match");
    assert_eq!(det, tcp, "tcp §5 accounting must match");
}

#[test]
fn live_cluster_total_failure_recovery_matches_deterministic() {
    for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
        let run = |fail_order: &[u32], repair_order: &[u32]| {
            let det = Cluster::new(cfg(scheme, 4), ClusterOptions::default());
            let live = LiveCluster::spawn(cfg(scheme, 4), DeliveryMode::Multicast);
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
