//! Chaos suite: seeded fault schedules replayed on all three runtimes
//! (`cargo test -q chaos` selects everything here).
//!
//! Each seed generates one script — workload plus per-exchange faults —
//! and `chaos::run_seed` replays it on the deterministic, live-threaded
//! and TCP clusters, checking the one-copy oracle on every read and
//! byte-identical outcome parity across the runtimes. A failure prints the
//! seed and the shrunk minimal schedule.

use blockrep::core::chaos::{self, Action, ChaosStep};
use blockrep::core::fault::FaultKind;
use blockrep::core::{Cluster, ClusterOptions, ReliableDevice, ShardSpec};
use blockrep::types::{BlockData, BlockIndex, Scheme, SiteId, SiteState};
use std::sync::Arc;

fn sid(i: u32) -> SiteId {
    SiteId::new(i)
}

fn blk(i: u64) -> BlockIndex {
    BlockIndex::new(i)
}

/// Seeds per scheme; CI runs the same matrix via `blockrep chaos`.
const SEEDS: u64 = 8;
const STEPS: usize = 40;

fn run_matrix(scheme: Scheme) {
    for seed in 0..SEEDS {
        if let Err(failure) = chaos::run_seed(seed, scheme, STEPS, false) {
            panic!("{failure}");
        }
    }
}

#[test]
fn chaos_voting_seed_matrix() {
    run_matrix(Scheme::Voting);
}

#[test]
fn chaos_available_copy_seed_matrix() {
    run_matrix(Scheme::AvailableCopy);
}

#[test]
fn chaos_naive_seed_matrix() {
    run_matrix(Scheme::NaiveAvailableCopy);
}

/// The journaled seed matrix: the same schedules, but every site runs a
/// write-ahead journal, and the oracle tightens to durable-by-§3.2 —
/// a restart scrub replays acknowledged installs instead of zeroing them,
/// so a block that once reached full agreement may never revert.
#[test]
fn chaos_journaled_seed_matrix() {
    for scheme in Scheme::ALL {
        for seed in 0..SEEDS {
            if let Err(failure) = chaos::run_seed(seed, scheme, STEPS, true) {
                panic!("{failure}");
            }
        }
    }
}

/// The same seed must generate the same script, bit for bit — otherwise a
/// printed failing seed is not replayable.
#[test]
fn chaos_generation_is_deterministic() {
    for scheme in Scheme::ALL {
        let a = chaos::generate(42, scheme, STEPS);
        let b = chaos::generate(42, scheme, STEPS);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.cfg.num_sites(), b.cfg.num_sites());
    }
}

/// A hand-written crash-mid-write schedule: the coordinator of a voting
/// write crashes after reaching only part of its fan-out. Quorum reads must
/// then settle on *one* of old/new — every surviving reader sees the same
/// uniform value, never a byte-mix — which is exactly the §3.1 quorum
/// intersection argument under an interrupted write.
#[test]
fn chaos_crash_mid_write_reads_old_or_new_never_a_mix() {
    for crash_exchange in 0..8 {
        let script = vec![
            ChaosStep {
                action: Action::Write {
                    origin: sid(0),
                    block: blk(0),
                    fill: 0x11,
                },
                faults: vec![],
            },
            ChaosStep {
                // The coordinator dies `crash_exchange` exchanges into the
                // write of 0x22 (vote collection, then update fan-out).
                action: Action::Write {
                    origin: sid(0),
                    block: blk(0),
                    fill: 0x22,
                },
                faults: vec![(crash_exchange, FaultKind::CrashCoordinator)],
            },
            ChaosStep {
                action: Action::Read {
                    origin: sid(1),
                    block: blk(0),
                },
                faults: vec![],
            },
            ChaosStep {
                action: Action::Read {
                    origin: sid(2),
                    block: blk(0),
                },
                faults: vec![],
            },
        ];
        let cfg = blockrep::types::DeviceConfig::builder(Scheme::Voting)
            .sites(3)
            .num_blocks(1)
            .block_size(8)
            .build()
            .unwrap();
        // The generic harness checks uniformity and history membership…
        chaos::check(&cfg, &script).unwrap_or_else(|e| panic!("x{crash_exchange}: {e}"));
        // …and on the deterministic runtime we additionally pin down that
        // the two surviving quorum readers agree with each other.
        let rt = Cluster::new(cfg, ClusterOptions::default()).with_faults();
        let outcome = chaos::run_on(&rt, &script).unwrap();
        let r1 = rt.read(sid(1), blk(0)).unwrap();
        let r2 = rt.read(sid(2), blk(0)).unwrap();
        assert_eq!(
            r1.as_slice(),
            r2.as_slice(),
            "x{crash_exchange}: quorum readers disagree after crash-mid-write\n{}",
            outcome.log.join("\n")
        );
        assert!(
            r1.as_slice() == [0x11; 8] || r1.as_slice() == [0x22; 8],
            "x{crash_exchange}: read returned neither old nor new: {:02x?}",
            r1.as_slice()
        );
    }
}

/// Regression for scatter-time exchange pinning: the live and TCP runtimes
/// fan writes out concurrently by default, but under the fault layer every
/// scatter runs one exchange after another in target order, so a
/// `(op, exchange)` drop lands on the *same* vote on every runtime. Exchange 1 of a 4-site voting write is
/// always site 2's vote request — dropping it shrinks the install fan-out
/// identically everywhere, and `chaos::check` asserts byte-identical
/// outcome parity across all three runtimes (spawned in their default,
/// parallel fan-out mode).
#[test]
fn chaos_dropped_vote_in_parallel_fanout_is_pinned_across_runtimes() {
    let cfg = blockrep::types::DeviceConfig::builder(Scheme::Voting)
        .sites(4)
        .num_blocks(1)
        .block_size(8)
        .build()
        .unwrap();
    let script = vec![
        ChaosStep {
            action: Action::Write {
                origin: sid(0),
                block: blk(0),
                fill: 0x55,
            },
            faults: vec![],
        },
        ChaosStep {
            // Votes to s1/s2/s3 are exchanges 0/1/2; drop s2's.
            action: Action::Write {
                origin: sid(0),
                block: blk(0),
                fill: 0x66,
            },
            faults: vec![(1, FaultKind::DropMessage)],
        },
        ChaosStep {
            // s2 missed the install; its quorum read must still settle on
            // the current value via v_max.
            action: Action::Read {
                origin: sid(2),
                block: blk(0),
            },
            faults: vec![],
        },
        ChaosStep {
            action: Action::Read {
                origin: sid(1),
                block: blk(0),
            },
            faults: vec![],
        },
    ];
    chaos::check(&cfg, &script).unwrap();
    let rt = Cluster::new(cfg, ClusterOptions::default()).with_faults();
    chaos::run_on(&rt, &script).unwrap();
    assert_eq!(rt.read(sid(2), blk(0)).unwrap().as_slice(), &[0x66; 8]);
}

/// §3 recovery contrast after a **total** failure: available copy is back
/// as soon as the closure `C*(W_s)` has recovered — here the last two
/// sites to fail — while naive available copy stays down until *every*
/// site has returned.
#[test]
fn chaos_total_failure_ac_closure_recovers_before_nac() {
    let build = |scheme| {
        let cfg = blockrep::types::DeviceConfig::builder(scheme)
            .sites(4)
            .num_blocks(2)
            .block_size(8)
            .build()
            .unwrap();
        Cluster::new(cfg, ClusterOptions::default())
    };
    let drive = |c: &Cluster| {
        c.write(sid(0), blk(0), BlockData::from(vec![1; 8]))
            .unwrap();
        c.fail_site(sid(3)); // survivors {0,1,2} refresh W
        c.fail_site(sid(2)); // survivors {0,1} refresh W
        c.write(sid(0), blk(0), BlockData::from(vec![2; 8]))
            .unwrap();
        c.fail_site(sid(1));
        c.fail_site(sid(0)); // total failure; last writers were {0,1}
    };

    let ac = build(Scheme::AvailableCopy);
    drive(&ac);
    // Failure tracking shrank W to the survivors at each crash, so site 1's
    // closure C*(W_1) = {0, 1} — site 1 alone must keep waiting…
    ac.repair_site(sid(1));
    assert!(
        !ac.is_available(),
        "site 1's closure includes the last site to fail — not yet"
    );
    assert_eq!(ac.site_state(sid(1)), SiteState::Comatose);
    // …but site 0 was the *last* to fail: C*(W_0) = {0}, so it restarts
    // service single-handedly, and the sweep then pulls site 1 back in.
    ac.repair_site(sid(0));
    assert!(
        ac.is_available(),
        "closure C*(W) recovered — available copy must be back"
    );
    assert_eq!(ac.read(sid(0), blk(0)).unwrap().as_slice(), &[2; 8]);
    assert_eq!(ac.read(sid(1), blk(0)).unwrap().as_slice(), &[2; 8]);
    // …while sites 2 and 3 are still down.
    assert_eq!(ac.site_state(sid(2)), SiteState::Failed);
    assert_eq!(ac.site_state(sid(3)), SiteState::Failed);

    let nac = build(Scheme::NaiveAvailableCopy);
    drive(&nac);
    nac.repair_site(sid(0));
    nac.repair_site(sid(1));
    assert!(
        !nac.is_available(),
        "naive cannot certify the last site to fail — must stay comatose"
    );
    assert_eq!(nac.site_state(sid(0)), SiteState::Comatose);
    nac.repair_site(sid(2));
    assert!(!nac.is_available());
    nac.repair_site(sid(3)); // the last absentee returns
    assert!(nac.is_available());
    assert_eq!(nac.read(sid(1), blk(0)).unwrap().as_slice(), &[2; 8]);
}

/// Storage faults surface in the schedule runner: a torn write crashes the
/// target, the restart scrub wipes the broken block, and repair restores
/// the current value — end to end over all three runtimes.
#[test]
fn chaos_torn_write_is_scrubbed_and_repaired() {
    let cfg = blockrep::types::DeviceConfig::builder(Scheme::AvailableCopy)
        .sites(3)
        .num_blocks(1)
        .block_size(8)
        .build()
        .unwrap();
    let script = vec![
        ChaosStep {
            action: Action::Write {
                origin: sid(0),
                block: blk(0),
                fill: 0x33,
            },
            faults: vec![],
        },
        ChaosStep {
            // Exchange 1 is the write update to site 1: its disk tears
            // half-way through the install and it crashes.
            action: Action::Write {
                origin: sid(0),
                block: blk(0),
                fill: 0x44,
            },
            faults: vec![(1, FaultKind::TornWrite { keep: 4 })],
        },
        ChaosStep {
            action: Action::Repair(sid(1)),
            faults: vec![],
        },
        ChaosStep {
            action: Action::Read {
                origin: sid(1),
                block: blk(0),
            },
            faults: vec![],
        },
    ];
    chaos::check(&cfg, &script).unwrap();
    // Pin the endgame on the deterministic runtime: the repaired site holds
    // the current value, not the torn bytes.
    let rt = Cluster::new(cfg, ClusterOptions::default()).with_faults();
    chaos::run_on(&rt, &script).unwrap();
    assert_eq!(rt.read(sid(1), blk(0)).unwrap().as_slice(), &[0x44; 8]);
}

/// Restart-mid-flush with a write-ahead journal: site 1's disk tears in the
/// middle of installing an acknowledged write and the site crashes — but
/// the record reached its journal before the device did, so the restart
/// scrub replays it. The write is back **before** any peer repair runs.
/// Without the journal the same schedule zeroes the block and only the §3.2
/// repair exchange can restore the value.
#[test]
fn chaos_journaled_restart_mid_flush_replays_acknowledged_install() {
    let build = |journaled: bool| {
        blockrep::types::DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(1)
            .block_size(8)
            .journaled(journaled)
            .build()
            .unwrap()
    };
    let script = vec![
        ChaosStep {
            action: Action::Write {
                origin: sid(0),
                block: blk(0),
                fill: 0x33,
            },
            faults: vec![],
        },
        ChaosStep {
            // Exchange 1 is the install fan-out to site 1: its disk tears
            // mid-flush and the site crashes.
            action: Action::Write {
                origin: sid(0),
                block: blk(0),
                fill: 0x44,
            },
            faults: vec![(1, FaultKind::TornWrite { keep: 4 })],
        },
        ChaosStep {
            action: Action::Repair(sid(1)),
            faults: vec![],
        },
        ChaosStep {
            action: Action::Read {
                origin: sid(1),
                block: blk(0),
            },
            faults: vec![],
        },
    ];
    // Oracle and three-runtime parity under the tightened journaled oracle.
    chaos::check(&build(true), &script).unwrap();

    // Pin the mechanism on the deterministic runtime, stopping *before* the
    // repair step: the restart scrub alone restores the acknowledged write.
    let rt = Cluster::new(build(true), ClusterOptions::default()).with_faults();
    chaos::run_on(&rt, &script[..2]).unwrap();
    assert_ne!(
        rt.data_of(sid(1), blk(0)).as_slice(),
        &[0x44; 8],
        "the crash left the install incomplete on disk"
    );
    assert_eq!(
        rt.scrub_local(sid(1)),
        1,
        "checksum damage is still reported"
    );
    assert_eq!(
        rt.data_of(sid(1), blk(0)).as_slice(),
        &[0x44; 8],
        "journal replay must reinstate the acknowledged install"
    );

    // Contrast run: without the journal the torn install is simply gone.
    let rt = Cluster::new(build(false), ClusterOptions::default()).with_faults();
    chaos::run_on(&rt, &script[..2]).unwrap();
    assert_eq!(rt.scrub_local(sid(1)), 1);
    assert!(
        rt.data_of(sid(1), blk(0)).is_zeroed(),
        "unjournaled scrub resets the block to the formatted state"
    );
}

/// A step of a shrunk schedule: `origin` writes `fill` to block 0, its
/// coordinator crashing at remote exchange `crash` if there is one.
fn write_b0(origin: u32, fill: u8, crash: Option<u64>) -> ChaosStep {
    ChaosStep {
        action: Action::Write {
            origin: sid(origin),
            block: blk(0),
            fill,
        },
        faults: crash
            .map(|x| (x, FaultKind::CrashCoordinator))
            .into_iter()
            .collect(),
    }
}

/// Asserts that seed `seed` of `scheme` fails today, shrunk to `steps`,
/// with a diagnostic that contains `detail`.
fn assert_split_version(seed: u64, scheme: Scheme, steps: &[ChaosStep], detail: &str) {
    let failure = chaos::run_seed(seed, scheme, STEPS, false)
        .expect_err("the seed passes: a crashed coordinator no longer splits a version");
    assert_eq!(failure.steps, steps, "{failure}");
    assert!(failure.detail.contains(detail), "{failure}");
}

// The three shrunk schedules of ROADMAP item 14, "A crashed coordinator
// must not split a version": a write whose coordinator crashes part-way
// through its fan-out, then a write to the same block from a site that
// missed it, which picks the same version again. Like the explorer's
// `a_crashed_coordinator_breaks_the_atomic_fan_out_assumption`, each pins
// today's failure, so the change that mends it flips them.

#[test]
fn chaos_seed_10_naive_crashed_coordinator_splits_a_version() {
    let steps = [write_b0(1, 77, Some(4)), write_b0(3, 83, None)];
    let detail = "available site s0 missed the write of block b0";
    assert_split_version(10, Scheme::NaiveAvailableCopy, &steps, detail);
}

#[test]
fn chaos_seed_48_available_copy_crashed_coordinator_splits_a_version() {
    let steps = [write_b0(0, 35, Some(2)), write_b0(3, 81, None)];
    let detail = "available site s1 missed the write";
    assert_split_version(48, Scheme::AvailableCopy, &steps, detail);
}

#[test]
fn chaos_seed_94_voting_crashed_coordinator_splits_a_version() {
    let steps = [
        write_b0(3, 156, Some(3)),
        write_b0(2, 231, None),
        ChaosStep {
            action: Action::Repair(sid(3)),
            faults: vec![],
        },
        ChaosStep {
            action: Action::Read {
                origin: sid(3),
                block: blk(0),
            },
            faults: vec![],
        },
    ];
    let detail = "one-copy violation on block 0: read Some(156)";
    assert_split_version(94, Scheme::Voting, &steps, detail);
}

/// FNV-1a, 64-bit: the same digest on every host and toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn line(&mut self, line: &str) {
        self.eat(line.as_bytes());
        self.eat(b"\n");
    }
}

/// The digest of every deterministic replay over seeds `0..SEEDS` and
/// every scheme, on journaled sites if `journaled`: each step log line,
/// the final traffic counts, the faults fired and the reads checked.
fn seed_matrix_digest(journaled: bool) -> u64 {
    let mut digest = Fnv::new();
    for scheme in Scheme::ALL {
        for seed in 0..SEEDS {
            let mut script = chaos::generate(seed, scheme, STEPS);
            script.cfg.set_journaled(journaled);
            let rt = Cluster::new(script.cfg.clone(), ClusterOptions::default()).with_faults();
            let outcome = chaos::run_on(&rt, &script.steps)
                .unwrap_or_else(|e| panic!("seed {seed} {scheme}: {e}"));
            for line in &outcome.log {
                digest.line(line);
            }
            digest.line(&format!(
                "{:?} fired={} checked={}",
                outcome.traffic, outcome.faults_fired, outcome.reads_checked
            ));
        }
    }
    digest.0
}

/// The digest of the deterministic shard scenarios on a 2-shard device,
/// every scheme, unjournaled and journaled.
fn shard_scenarios_digest() -> u64 {
    let mut digest = Fnv::new();
    for journaled in [false, true] {
        for scheme in Scheme::ALL {
            let spec = ShardSpec {
                sites_per_shard: 3,
                block_size: 8,
                group_size: 2,
                journaled,
                ..ShardSpec::new(scheme, 2, 16)
            };
            let shards = (0..spec.shards)
                .map(|_| {
                    let cfg = spec.shard_config().unwrap();
                    Arc::new(Cluster::new(cfg, ClusterOptions::default()).with_faults())
                })
                .collect();
            let dev = ReliableDevice::sharded(shards, spec.manifest().unwrap(), sid(0));
            let outcome = chaos::run_shard_scenarios_on(&dev)
                .unwrap_or_else(|e| panic!("{scheme} journaled={journaled}: {e}"));
            for line in &outcome.log {
                digest.line(line);
            }
            digest.line(&format!("checked={}", outcome.reads_checked));
        }
    }
    digest.0
}

/// `(plain, journaled, 2 shards)` digests of the deterministic chaos
/// replays, taken before fault injection moved under the transport. A
/// renumbering of `(op, exchange)` slots moves all three runtimes alike,
/// so the parity checks cannot see it; these do.
const CHAOS_DIGESTS: [u64; 3] = [
    0x7851_86b4_c91b_1cdd,
    0x7851_86b4_c91b_1cdd,
    0xd71c_3417_20f0_2059,
];

#[test]
fn chaos_step_logs_match_their_recorded_digests() {
    let got = [
        seed_matrix_digest(false),
        seed_matrix_digest(true),
        shard_scenarios_digest(),
    ];
    assert_eq!(
        got, CHAOS_DIGESTS,
        "a chaos step log moved: (plain, journaled, shards) = {:#018x?}",
        got
    );
}
