//! The `blockrep` binary's exit codes: a bad command line exits 2 after
//! the usage text; a command that runs and fails exits 1 with its error
//! alone.

use std::process::{Command, Output};

fn blockrep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blockrep"))
        .args(args)
        .output()
        .expect("the blockrep binary runs")
}

#[test]
fn a_usage_error_exits_2_and_prints_the_usage() {
    for args in [
        &["fig", "9", "--horizn", "10"][..],
        &["chaos", "--seed", "1", "3"],
        &["frobnicate"],
    ] {
        let out = blockrep(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("blockrep: "), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_run_failure_exits_1_without_the_usage() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../lint/tests/fixtures/lock_cycle"
    );
    let missing = std::env::temp_dir().join(format!("blockrep-no-such-{}.img", std::process::id()));
    for args in [
        vec!["lint", "--root", fixture, "--deny"],
        vec!["fsck", missing.to_str().expect("a UTF-8 temp path")],
    ] {
        let out = blockrep(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("blockrep: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
