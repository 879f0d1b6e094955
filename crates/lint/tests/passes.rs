//! Each pass must catch exactly its seeded violations in the fixture
//! corpus and stay silent on the clean tree.

use blockrep_lint::{Config, Report, Severity};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> Report {
    blockrep_lint::run(&Config::new(fixture(name))).expect("fixture lints")
}

#[test]
fn clean_tree_produces_no_findings() {
    let report = lint("clean");
    assert!(
        report.findings.is_empty(),
        "clean fixture is dirty:\n{}",
        report.render()
    );
    // ... and the positive checks still fire: the ascending-order loop and
    // the wire-tag bijection are *verified*, not merely unflagged.
    assert!(
        report
            .verified
            .iter()
            .any(|v| v.contains("pipelined") && v.contains("ascending")),
        "{:#?}",
        report.verified
    );
    assert!(
        report
            .verified
            .iter()
            .any(|v| v.contains("`Frame`") && v.contains("0, 1")),
        "{:#?}",
        report.verified
    );
}

#[test]
fn lock_cycle_and_reacquisition_are_caught() {
    let report = lint("lock_cycle");
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    assert!(report.findings.iter().all(|f| f.pass == "lock-order"));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("cycle") && f.message.contains("pair.a")),
        "{}",
        report.render()
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("acquired again") && f.message.contains("reenter")),
        "{}",
        report.render()
    );
}

#[test]
fn mixed_ordering_atomic_without_fence_is_caught() {
    let report = lint("atomics_mixed");
    // `begin_write` is the only live finding: `end_write` has its fence
    // and `probe` is suppressed by the inline marker.
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.pass, "atomics");
    assert_eq!(f.severity, Severity::Error);
    assert!(f.message.contains("begin_write"), "{}", f.message);
    assert!(f.message.contains("fence"), "{}", f.message);
    assert_eq!(report.suppressed, 1, "inline marker must have fired");
}

#[test]
fn unguarded_obs_in_hot_path_is_caught() {
    let report = lint("obs_hot");
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    assert!(report
        .findings
        .iter()
        .all(|f| f.pass == "obs-hot-path" && f.severity == Severity::Warning));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("`event`")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("`start_phase`")));
}

#[test]
fn baseline_file_suppresses_by_line_and_tracks_use() {
    let config = Config {
        root: fixture("obs_hot"),
        allow_file: Some(fixture("obs_hot").join("suppress_one.allow")),
    };
    let report = blockrep_lint::run(&config).expect("fixture lints");
    assert_eq!(report.suppressed, 1, "{}", report.render());
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    assert!(
        report.findings[0].message.contains("`start_phase`"),
        "the line-scoped entry must only hit the event! finding"
    );
}

#[test]
fn wire_tag_mismatches_are_caught() {
    let report = lint("wire_orphan");
    assert_eq!(report.findings.len(), 3, "{}", report.render());
    assert!(report
        .findings
        .iter()
        .all(|f| f.pass == "wire-tags" && f.severity == Severity::Error));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("tag 1 twice")),
        "{}",
        report.render()
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("tag 5") && f.message.contains("decode has no arm")),
        "{}",
        report.render()
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("tag 7") && f.message.contains("orphan")),
        "{}",
        report.render()
    );
}

#[test]
fn missing_or_mutated_ascending_assert_is_caught() {
    let report = lint("conn_order");
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    assert!(report.findings.iter().all(|f| f.pass == "lock-order"
        && f.severity == Severity::Error
        && f.message.contains("ascending-order")));
    // Nothing got "verified" — a descending assert is not the discipline.
    assert!(
        !report.verified.iter().any(|v| v.contains("scatter")),
        "{:#?}",
        report.verified
    );
}

#[test]
fn descending_block_shard_acquisition_is_caught() {
    let report = lint("shard_order");
    // Only the back-to-front walk is a finding; its descending assert is
    // not the discipline.
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert!(f.pass == "lock-order" && f.severity == Severity::Error);
    assert!(
        f.message.contains("guard_many_descending") && f.message.contains("ascending-order"),
        "{}",
        f.message
    );
    // The ascending twin is positively verified, exactly like the real
    // `BlockLockTable::{read,write}_guard_many`.
    assert!(
        report
            .verified
            .iter()
            .any(|v| v.contains("`guard_many`") && v.contains("ascending")),
        "{:#?}",
        report.verified
    );
}

#[test]
fn descending_shard_fanout_is_caught() {
    let report = lint("shard_fanout");
    // The back-to-front fan-out is the only finding: it accumulates one
    // admission gate per touched shard but asserts the wrong order.
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert!(f.pass == "lock-order" && f.severity == Severity::Error);
    assert!(
        f.message.contains("fan_out_descending") && f.message.contains("ascending-order"),
        "{}",
        f.message
    );
    // The ascending twin mirrors the real `ReliableDevice::fan_out` and is
    // positively verified.
    assert!(
        report
            .verified
            .iter()
            .any(|v| v.contains("`fan_out`") && v.contains("ascending")),
        "{:#?}",
        report.verified
    );
}
