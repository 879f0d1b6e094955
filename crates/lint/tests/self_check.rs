//! The workspace must be clean under its own linter and the committed
//! baseline — this is the same gate CI's `lint` job enforces, run as a
//! plain test so `cargo test` catches regressions locally too.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_under_baseline() {
    let report = blockrep_lint::run(&blockrep_lint::Config::new(workspace_root()))
        .expect("lint run succeeds");
    assert!(report.files > 20, "workspace walk found too few files");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render()
    );
}

#[test]
fn key_invariants_are_positively_verified() {
    let report = blockrep_lint::run(&blockrep_lint::Config::new(workspace_root()))
        .expect("lint run succeeds");
    // TcpTransport::pipelined's send and gather loops take a site's
    // connection-pool lock per target, only to pop or push a connection, so
    // no lock is held across a round trip; each loop asserts ascending
    // target order, and that must be machine-verified, not merely "no
    // finding".
    assert!(
        report
            .verified
            .iter()
            .any(|v| v.contains("tcp.rs") && v.contains("ascending")),
        "conn-lock ascending-order discipline not verified:\n{:#?}",
        report.verified
    );
    // Likewise the sharded block-lock table: both multi-guard paths must
    // carry the ascending-shard-index assertion.
    for f in ["read_guard_many", "write_guard_many"] {
        assert!(
            report
                .verified
                .iter()
                .any(|v| v.contains("locks.rs") && v.contains(f) && v.contains("ascending")),
            "block-shard ascending-order discipline not verified for {f}:\n{:#?}",
            report.verified
        );
    }
    // And the cross-shard fan-out of the reliable device: the per-shard
    // admission gates are taken in ascending shard index.
    assert!(
        report
            .verified
            .iter()
            .any(|v| v.contains("device.rs") && v.contains("`fan_out`") && v.contains("ascending")),
        "cross-shard fan-out ascending-order discipline not verified:\n{:#?}",
        report.verified
    );
    // Both wire enums must have their tag bijection confirmed.
    for ty in ["WireRequest", "WireResponse"] {
        assert!(
            report
                .verified
                .iter()
                .any(|v| v.contains("wire.rs") && v.contains(ty)),
            "wire-tag coverage for {ty} not verified:\n{:#?}",
            report.verified
        );
    }
}
