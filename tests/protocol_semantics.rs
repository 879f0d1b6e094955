//! Cross-crate integration tests of the §3 protocol semantics: quorum
//! behaviour, lazy voting recovery, was-available sets and closures, naive
//! recovery, and partition behaviour.

use blockrep::core::{Cluster, ClusterOptions};
use blockrep::net::{DeliveryMode, MsgKind, OpClass};
use blockrep::types::{
    BlockData, BlockIndex, DeviceConfig, FailureTracking, Scheme, SiteId, SiteState, Weight,
};

fn cluster(scheme: Scheme, n: usize) -> Cluster {
    let cfg = DeviceConfig::builder(scheme)
        .sites(n)
        .num_blocks(8)
        .block_size(16)
        .build()
        .unwrap();
    Cluster::new(cfg, ClusterOptions::default())
}

fn s(i: u32) -> SiteId {
    SiteId::new(i)
}

fn blk(i: u64) -> BlockIndex {
    BlockIndex::new(i)
}

fn fill(b: u8) -> BlockData {
    BlockData::from(vec![b; 16])
}

// ---------------------------------------------------------------- voting

#[test]
fn voting_repair_is_traffic_free_and_lazy() {
    let c = cluster(Scheme::Voting, 3);
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.fail_site(s(2));
    c.write(s(0), blk(0), fill(2)).unwrap();
    c.write(s(0), blk(1), fill(3)).unwrap();

    let before = c.traffic();
    c.repair_site(s(2));
    let delta = c.traffic() - before;
    assert_eq!(
        delta.total(),
        0,
        "voting repair must generate zero messages"
    );
    // The repaired site still holds stale data on its disk…
    assert_eq!(c.data_of(s(2), blk(0)), fill(1));

    // …until a read through it lazily repairs exactly the touched block.
    let before = c.traffic();
    assert_eq!(c.read(s(2), blk(0)).unwrap(), fill(2));
    let delta = c.traffic() - before;
    assert_eq!(delta.get(OpClass::Read, MsgKind::BlockTransfer), 1);
    assert_eq!(c.data_of(s(2), blk(0)), fill(2));
    // Block 1 is still stale on s2: recovery touched only what was read.
    assert_eq!(c.data_of(s(2), blk(1)), BlockData::zeroed(16));
}

#[test]
fn voting_write_repairs_operational_stale_copies() {
    let c = cluster(Scheme::Voting, 3);
    c.fail_site(s(2));
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.repair_site(s(2));
    // A write while s2 participates pushes the current version to it.
    c.write(s(1), blk(0), fill(2)).unwrap();
    assert_eq!(c.data_of(s(2), blk(0)), fill(2));
}

#[test]
fn voting_tolerates_partitions_majority_side_wins() {
    let c = cluster(Scheme::Voting, 5);
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3), s(4)]]);
    // Minority side: no quorum.
    assert!(c.read(s(0), blk(0)).is_err());
    assert!(c.write(s(1), blk(0), fill(9)).is_err());
    // Majority side keeps serving.
    assert_eq!(c.read(s(2), blk(0)).unwrap(), fill(1));
    c.write(s(3), blk(0), fill(2)).unwrap();
    // Heal: the minority site reads the majority's value.
    c.heal();
    assert_eq!(c.read(s(0), blk(0)).unwrap(), fill(2));
}

#[test]
fn voting_even_cluster_tie_needs_distinguished_site() {
    // 4 sites, weights 3,2,2,2: the half containing s0 retains the quorum.
    let c = cluster(Scheme::Voting, 4);
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.fail_site(s(2));
    c.fail_site(s(3));
    assert!(c.is_available());
    assert!(c.read(s(0), blk(0)).is_ok());
    // The other half alone must NOT reach quorum.
    let c2 = cluster(Scheme::Voting, 4);
    c2.write(s(0), blk(0), fill(1)).unwrap();
    c2.fail_site(s(0));
    c2.fail_site(s(1));
    assert!(!c2.is_available());
    assert!(c2.read(s(2), blk(0)).is_err());
}

#[test]
fn gifford_asymmetric_quorums_trade_read_for_write_cost() {
    // r=2, w=6 of total 7: reads succeed with a single site pair, writes
    // need everything.
    let cfg = DeviceConfig::builder(Scheme::Voting)
        .weights(vec![Weight::new(3), Weight::new(2), Weight::new(2)])
        .read_quorum(2)
        .write_quorum(6)
        .num_blocks(4)
        .block_size(16)
        .build()
        .unwrap();
    let c = Cluster::new(cfg, ClusterOptions::default());
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.fail_site(s(1));
    assert!(c.read(s(0), blk(0)).is_ok(), "read quorum of 2 still met");
    assert!(
        c.write(s(0), blk(0), fill(2)).is_err(),
        "write quorum of 6 lost"
    );
}

// ------------------------------------------------------- available copy

#[test]
fn was_available_sets_follow_writes() {
    let c = cluster(Scheme::AvailableCopy, 3);
    let all: std::collections::BTreeSet<_> = (0..3).map(s).collect();
    assert_eq!(c.was_available_of(s(0)), all);
    c.fail_site(s(2));
    // On-failure tracking already shrank the survivors' sets.
    let survivors: std::collections::BTreeSet<_> = [s(0), s(1)].into();
    assert_eq!(c.was_available_of(s(0)), survivors);
    assert_eq!(c.was_available_of(s(1)), survivors);
    // The failed site's on-disk set is untouched.
    assert_eq!(c.was_available_of(s(2)), all);
    // A write refreshes the recipients' sets (same survivors here).
    c.write(s(0), blk(0), fill(1)).unwrap();
    assert_eq!(c.was_available_of(s(0)), survivors);
}

#[test]
fn on_write_tracking_defers_w_updates_to_writes() {
    let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
        .sites(3)
        .num_blocks(4)
        .block_size(16)
        .failure_tracking(FailureTracking::OnWrite)
        .build()
        .unwrap();
    let c = Cluster::new(cfg, ClusterOptions::default());
    let all: std::collections::BTreeSet<_> = (0..3).map(s).collect();
    c.fail_site(s(2));
    // No write yet: survivors still believe W = S.
    assert_eq!(c.was_available_of(s(0)), all);
    c.write(s(0), blk(0), fill(1)).unwrap();
    let survivors: std::collections::BTreeSet<_> = [s(0), s(1)].into();
    assert_eq!(c.was_available_of(s(0)), survivors);
    assert_eq!(c.was_available_of(s(1)), survivors);
}

#[test]
fn closure_recovery_comes_back_when_last_failed_site_returns() {
    let c = cluster(Scheme::AvailableCopy, 4);
    c.write(s(0), blk(0), fill(1)).unwrap();
    // Fail everyone, s3 last.
    for i in [0, 1, 2, 3] {
        c.fail_site(s(i));
    }
    // Everyone but the last-failed site returns: still comatose.
    c.repair_site(s(0));
    c.repair_site(s(1));
    c.repair_site(s(2));
    assert!(!c.is_available());
    for i in 0..3 {
        assert_eq!(c.site_state(s(i)), SiteState::Comatose);
    }
    // The last-failed site returns: everyone recovers at once.
    c.repair_site(s(3));
    assert!(c.is_available());
    for i in 0..4 {
        assert_eq!(c.site_state(s(i)), SiteState::Available);
    }
    assert_eq!(c.read(s(1), blk(0)).unwrap(), fill(1));
}

#[test]
fn closure_recovery_before_stale_sites_return() {
    // The AC advantage: only the closure (here, the last-failed site alone)
    // needs to be up — stale sites can stay down.
    let c = cluster(Scheme::AvailableCopy, 3);
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.fail_site(s(1));
    c.fail_site(s(2));
    c.write(s(0), blk(0), fill(2)).unwrap();
    c.fail_site(s(0)); // last, with the only current copy
    c.repair_site(s(0));
    assert!(c.is_available(), "last-failed site alone restores service");
    assert_eq!(c.read(s(0), blk(0)).unwrap(), fill(2));
    // The stale sites repair later, from the available copy.
    c.repair_site(s(1));
    assert_eq!(c.site_state(s(1)), SiteState::Available);
    assert_eq!(c.data_of(s(1), blk(0)), fill(2));
}

#[test]
fn comatose_sites_never_serve() {
    let c = cluster(Scheme::AvailableCopy, 3);
    for i in 0..3 {
        c.fail_site(s(i));
    }
    c.repair_site(s(1)); // not the last to fail
    assert_eq!(c.site_state(s(1)), SiteState::Comatose);
    let read_err = c.read(s(1), blk(0)).unwrap_err();
    assert!(read_err.is_unavailable());
    let write_err = c.write(s(1), blk(0), fill(9)).unwrap_err();
    assert!(write_err.is_unavailable());
}

#[test]
fn recovered_site_catches_up_only_modified_blocks() {
    let c = cluster(Scheme::AvailableCopy, 3);
    for i in 0..8 {
        c.write(s(0), blk(i), fill(i as u8 + 1)).unwrap();
    }
    c.fail_site(s(2));
    c.write(s(0), blk(3), fill(0xAA)).unwrap();
    c.write(s(0), blk(5), fill(0xBB)).unwrap();
    // The repair exchange of Figure 5: site 2 sends the version vector on
    // its disk, and the source answers with exactly the blocks that vector
    // lacks — here the two written while site 2 was down, not the device.
    // (Asked of the source locally: a failed site reaches no one yet.)
    let stale = c.version_vector(s(2), s(2)).unwrap();
    let (_, payload) = c.repair_payload(s(0), s(0), &stale).unwrap();
    let repaired: Vec<_> = payload
        .iter()
        .map(|(k, v, d)| (*k, v.as_u64(), d.clone()))
        .collect();
    assert_eq!(
        repaired,
        vec![(blk(3), 2, fill(0xAA)), (blk(5), 2, fill(0xBB))],
        "repair payload holds exactly the modified blocks"
    );
    c.repair_site(s(2));
    // Everything current again.
    for i in 0..8 {
        assert_eq!(
            c.data_of(s(2), blk(i)),
            c.data_of(s(0), blk(i)),
            "block {i}"
        );
    }
    // And the version vector shows only blocks 3 and 5 advanced twice.
    assert_eq!(c.version_of(s(2), blk(3)).as_u64(), 2);
    assert_eq!(c.version_of(s(2), blk(5)).as_u64(), 2);
    assert_eq!(c.version_of(s(2), blk(0)).as_u64(), 1);
}

// ------------------------------------------------------------------ naive

#[test]
fn naive_total_failure_waits_for_every_site() {
    let c = cluster(Scheme::NaiveAvailableCopy, 4);
    c.write(s(0), blk(0), fill(7)).unwrap();
    for i in [1, 2, 3, 0] {
        c.fail_site(s(i));
    }
    // Even the last-failed site coming back is not enough for naive.
    c.repair_site(s(0));
    assert!(!c.is_available());
    c.repair_site(s(1));
    c.repair_site(s(2));
    assert!(!c.is_available());
    c.repair_site(s(3));
    assert!(c.is_available());
    assert_eq!(c.read(s(2), blk(0)).unwrap(), fill(7));
}

#[test]
fn naive_keeps_no_failure_information() {
    let c = cluster(Scheme::NaiveAvailableCopy, 3);
    let all: std::collections::BTreeSet<_> = (0..3).map(s).collect();
    c.fail_site(s(1));
    c.write(s(0), blk(0), fill(1)).unwrap();
    // W stays S forever under naive.
    assert_eq!(c.was_available_of(s(0)), all);
    assert_eq!(c.was_available_of(s(2)), all);
}

#[test]
fn naive_picks_highest_version_after_total_failure() {
    let c = cluster(Scheme::NaiveAvailableCopy, 3);
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.fail_site(s(2)); // s2 stale at version 1
    c.write(s(0), blk(0), fill(2)).unwrap();
    c.fail_site(s(0));
    c.fail_site(s(1));
    // All back, in an order that tempts a wrong choice (stale first).
    c.repair_site(s(2));
    c.repair_site(s(1));
    c.repair_site(s(0));
    assert!(c.is_available());
    for i in 0..3 {
        assert_eq!(c.read(s(i), blk(0)).unwrap(), fill(2), "site {i}");
        assert_eq!(c.version_of(s(i), blk(0)).as_u64(), 2);
    }
}

// ---------------------------------------------------------- partitions

#[test]
fn available_copy_partition_heals_without_divergence_when_one_side_serves() {
    // AC assumes no partitions; the implementation keeps minority sites
    // reachable-but-isolated. Writes from an isolated available site only
    // reach its partition — this test documents that a healed cluster
    // converges to the highest version (the model's caveat, §4 preamble).
    let c = cluster(Scheme::AvailableCopy, 3);
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.partition(&[vec![s(0)], vec![s(1), s(2)]]);
    c.write(s(1), blk(0), fill(2)).unwrap();
    c.write(s(1), blk(0), fill(3)).unwrap();
    c.heal();
    // A read through the majority side sees its latest write.
    assert_eq!(c.read(s(1), blk(0)).unwrap(), fill(3));
}

// -------------------------------------------------- degenerate clusters

#[test]
fn single_site_device_works_under_all_schemes() {
    for scheme in Scheme::ALL {
        let c = cluster(scheme, 1);
        c.write(s(0), blk(0), fill(1)).unwrap();
        assert_eq!(c.read(s(0), blk(0)).unwrap(), fill(1), "{scheme}");
        c.fail_site(s(0));
        assert!(!c.is_available());
        assert!(c.read(s(0), blk(0)).is_err());
        c.repair_site(s(0));
        assert!(c.is_available());
        assert_eq!(c.read(s(0), blk(0)).unwrap(), fill(1), "{scheme}");
    }
}

#[test]
fn two_site_voting_is_no_better_than_one() {
    // A_V(2) = A_V(1): with weights 3,2 (total 5, quorum 3), losing the
    // distinguished site kills the device even though a copy survives.
    let c = cluster(Scheme::Voting, 2);
    c.write(s(0), blk(0), fill(1)).unwrap();
    c.fail_site(s(0));
    assert!(!c.is_available());
    assert!(c.read(s(1), blk(0)).is_err());
    // Whereas losing the light site is survivable.
    let c2 = cluster(Scheme::Voting, 2);
    c2.write(s(0), blk(0), fill(1)).unwrap();
    c2.fail_site(s(1));
    assert!(c2.is_available());
    assert_eq!(c2.read(s(0), blk(0)).unwrap(), fill(1));
}

// ------------------------------------------------- delivery mode parity

#[test]
fn multicast_and_unicast_agree_on_semantics_not_on_counts() {
    for scheme in Scheme::ALL {
        let run = |mode: DeliveryMode| {
            let cfg = DeviceConfig::builder(scheme)
                .sites(4)
                .num_blocks(4)
                .block_size(16)
                .build()
                .unwrap();
            let c = Cluster::new(cfg, ClusterOptions { mode });
            c.write(s(0), blk(0), fill(1)).unwrap();
            c.fail_site(s(3));
            c.write(s(1), blk(1), fill(2)).unwrap();
            c.repair_site(s(3));
            let data = c.read(s(3), blk(1)).unwrap();
            (data, c.traffic().total_modeled())
        };
        let (data_m, traffic_m) = run(DeliveryMode::Multicast);
        let (data_u, traffic_u) = run(DeliveryMode::Unicast);
        assert_eq!(data_m, data_u, "{scheme}: same data either way");
        assert!(
            traffic_u >= traffic_m,
            "{scheme}: unicast can only cost more ({traffic_u} vs {traffic_m})"
        );
    }
}
