//! Network partitions: what the paper's assumptions buy and what violating
//! them costs.
//!
//! "The voting schemes obviate the concern for network partitions" (§6) —
//! quorum intersection keeps the majority side serving and the minority
//! side safely refusing. The available copy schemes are only correct "when
//! network partitions are known to be impossible" (§3.2); these tests
//! demonstrate both directions: voting staying consistent across a
//! partition, and available copy visibly diverging when the assumption is
//! broken — the precise behaviour the paper's restriction exists to avoid.

use blockrep::core::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
use blockrep::net::DeliveryMode;
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};

fn cluster(scheme: Scheme, n: usize) -> Cluster {
    let cfg = DeviceConfig::builder(scheme)
        .sites(n)
        .num_blocks(4)
        .block_size(16)
        .build()
        .unwrap();
    Cluster::new(cfg, ClusterOptions::default())
}

fn s(i: u32) -> SiteId {
    SiteId::new(i)
}

fn k(i: u64) -> BlockIndex {
    BlockIndex::new(i)
}

fn fill(b: u8) -> BlockData {
    BlockData::from(vec![b; 16])
}

#[test]
fn voting_minority_cannot_read_stale_data() {
    // The scenario quorum intersection exists for: a write on the majority
    // side must never be missed by a later read anywhere.
    let c = cluster(Scheme::Voting, 5);
    c.write(s(0), k(0), fill(1)).unwrap();
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3), s(4)]]);
    c.write(s(2), k(0), fill(2)).unwrap(); // majority commits v2
                                           // Minority sites still hold v1 on disk, but cannot serve it: no quorum.
    let err = c.read(s(0), k(0)).unwrap_err();
    assert!(err.is_unavailable());
    // After healing, reads through former-minority sites see v2 and repair
    // their local copies lazily.
    c.heal();
    assert_eq!(c.read(s(0), k(0)).unwrap(), fill(2));
    assert_eq!(c.version_of(s(0), k(0)).as_u64(), 2);
    blockrep::core::audit::assert_invariants(&c);
}

#[test]
fn voting_dueling_partitions_cannot_both_write() {
    // 4 sites, weights 3,2,2,2: split 2|2. Only the side holding the
    // distinguished site can write; a write committed there is never lost.
    let c = cluster(Scheme::Voting, 4);
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
    c.write(s(0), k(0), fill(7)).unwrap(); // side with s0 (weight 3+2=5 ≥ 5)
    assert!(
        c.write(s(2), k(0), fill(8)).is_err(),
        "light side must refuse"
    );
    c.heal();
    for i in 0..4 {
        assert_eq!(c.read(s(i), k(0)).unwrap(), fill(7), "site {i}");
    }
}

#[test]
fn available_copy_partitions_cause_divergence_as_the_paper_warns() {
    // Both sides keep an "available" copy, so both happily serve writes —
    // split brain. This is exactly why §3.2 demands a partition-free
    // network for the available copy schemes.
    let c = cluster(Scheme::AvailableCopy, 4);
    c.write(s(0), k(0), fill(1)).unwrap();
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
    c.write(s(0), k(0), fill(2)).unwrap(); // side A commits...
    c.write(s(2), k(0), fill(3)).unwrap(); // ...and so does side B
                                           // Divergence is real and observable.
    assert_eq!(c.read(s(0), k(0)).unwrap(), fill(2));
    assert_eq!(c.read(s(2), k(0)).unwrap(), fill(3));
    // The invariant auditor flags the sickness the moment we look: both
    // sides committed "version 2" of the block with different bytes.
    let violations = blockrep::core::audit::check_invariants(&c);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "version-determines-data"),
        "expected divergence to be detected, got {violations:?}"
    );
}

#[test]
fn naive_available_copy_equally_unsafe_under_partitions() {
    let c = cluster(Scheme::NaiveAvailableCopy, 2);
    c.partition(&[vec![s(0)], vec![s(1)]]);
    c.write(s(0), k(1), fill(0xA)).unwrap();
    c.write(s(1), k(1), fill(0xB)).unwrap();
    assert_ne!(c.read(s(0), k(1)).unwrap(), c.read(s(1), k(1)).unwrap());
}

#[test]
fn recovery_blocked_by_partition_completes_after_heal() {
    // A comatose site whose closure lives across the partition must keep
    // waiting (it cannot certify the closure), then recover on heal.
    let c = cluster(Scheme::AvailableCopy, 3);
    c.write(s(0), k(0), fill(1)).unwrap();
    for i in [1, 2, 0] {
        c.fail_site(s(i));
    }
    // s1 comes back but is partitioned away from the last-failed site s0.
    c.partition(&[vec![s(1), s(2)], vec![s(0)]]);
    c.repair_site(s(1));
    c.repair_site(s(2));
    assert!(
        !c.is_available(),
        "closure unreachable across the partition"
    );
    c.repair_site(s(0));
    // s0 can certify its own closure ({s0}) and resumes service alone…
    assert_eq!(c.read(s(0), k(0)).unwrap(), fill(1));
    // …but the others stay comatose until the network heals.
    assert!(c.read(s(1), k(0)).is_err());
    c.heal();
    assert_eq!(c.read(s(1), k(0)).unwrap(), fill(1));
    blockrep::core::audit::assert_invariants(&c);
}

#[test]
fn live_cluster_partition_parity() {
    // Partitions are one piece of code over the one link model, so all
    // three runtimes honor them the same way, message for message — real
    // sockets included.
    let cfg = DeviceConfig::builder(Scheme::Voting)
        .sites(3)
        .num_blocks(2)
        .block_size(16)
        .build()
        .unwrap();
    macro_rules! scenario {
        ($name:literal, $c:expr) => {{
            let c = $c;
            c.write(s(0), k(0), fill(5)).unwrap();
            c.partition(&[vec![s(0)], vec![s(1), s(2)]]);
            assert!(
                c.write(s(0), k(0), fill(6)).is_err(),
                "{}: isolated site has no quorum",
                $name
            );
            assert!(c.read(s(0), k(0)).is_err(), "{}: nor a stale read", $name);
            c.write(s(1), k(0), fill(7)).unwrap();
            c.heal();
            assert_eq!(c.read(s(0), k(0)).unwrap(), fill(7), "{}", $name);
            c.counter().snapshot()
        }};
    }
    let det = scenario!("det", Cluster::new(cfg.clone(), ClusterOptions::default()));
    let live = scenario!(
        "live",
        LiveCluster::spawn(cfg.clone(), DeliveryMode::Multicast)
    );
    let tcp = scenario!(
        "tcp",
        TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap()
    );
    assert_eq!(live, det, "live traffic differs from deterministic");
    assert_eq!(tcp, det, "tcp traffic differs from deterministic");
}
