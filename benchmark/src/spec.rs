//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`manifest`), and a test asserts the committed file equals the
//! rendering, so the names the code reports and the names the contract
//! lists cannot drift apart.

/// Length of one measured run in seconds, as written to `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 30;

/// Schema tag of the files `all --out` writes and `compare` reads.
pub const SCHEMA: &str = "blockrep.benchmark/v1";

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const DET_BLOCK_MCV: &str = "det-block-mcv";
pub const TCP_BATCH_MCV: &str = "tcp-batch-mcv";
pub const LIVE_FS_AC: &str = "live-fs-ac";
pub const DET_SHARD_BATCH_NAC: &str = "det-shard-batch-nac";

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: DET_BLOCK_MCV,
        why: "single-block voting ops on the in-process cluster: no threads, transport or fs, so all time is per-op protocol, lock, replica and store overhead",
    },
    WorkloadSpec {
        name: TCP_BATCH_MCV,
        why: "64-block voting batches over loopback TCP: wire codec, frame I/O, socket syscalls and copies dominate; protocol logic is amortised 64x",
    },
    WorkloadSpec {
        name: LIVE_FS_AC,
        why: "the paper's use case: a file-system op mix on the threaded available-copy device, with site failures and repairs scheduled by op count",
    },
    WorkloadSpec {
        name: DET_SHARD_BATCH_NAC,
        why: "one- and two-group batches on a 4-shard naive-available-copy device: the only workload where manifest split, gates and per-shard fan-out run",
    },
];

/// Bounds come from `NOISE.md`, not from a wish. Over ten 30 s runs the
/// inter-quartile spread of the wall-clock metrics is 3-6 % of the median
/// while the host is calm and reached 16.5 % (21 % for `setup_s`) in a
/// noisy stretch, so the four timings take the largest bound the contract
/// allows. The counts are exact on the block workloads and spread 0.13 %
/// (`msgs_per_op`) to 0.38 % (the allocation counts) on `live-fs-ac`;
/// `peak_rss_mib` spreads 1 %.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "alloc_kib_per_op",
        unit: "KiB",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: [PerLayer; 66] = [
    lower("storage.mem.read_us", "us"),
    lower("storage.mem.write_us", "us"),
    lower("storage.file.read_us", "us"),
    lower("storage.file.write_us", "us"),
    lower("storage.file.sync_p50_us", "us"),
    lower("storage.file.sync_p90_us", "us"),
    lower("storage.wal.write_us", "us"),
    lower("storage.wal.self_write_us", "us"),
    lower("storage.wal.syncs_per_flush", "count"),
    lower("storage.wal.bytes_per_user_byte", "ratio"),
    lower("storage.cache.read_us", "us"),
    higher("storage.cache.hit_ratio", "ratio"),
    lower("core.replica.read_us", "us"),
    lower("core.replica.write_us", "us"),
    lower("core.locks.guard_us", "us"),
    lower("core.wire.encode_us", "us"),
    lower("core.wire.decode_us", "us"),
    lower("core.wire.bytes_per_payload_byte", "ratio"),
    lower("core.protocol.read_us", "us"),
    lower("core.protocol.write_us", "us"),
    lower("core.protocol.self_read_us", "us"),
    lower("core.protocol.self_write_us", "us"),
    lower("core.live.self_read_us", "us"),
    lower("core.live.self_write_us", "us"),
    lower("core.tcp.self_read_us", "us"),
    lower("core.tcp.self_write_us", "us"),
    lower("core.tcp.packets_per_op", "count"),
    lower("core.tcp.io_bytes_per_payload_byte", "ratio"),
    lower("core.shard.self_read_us", "us"),
    lower("core.shard.self_write_us", "us"),
    lower("core.shard.shards_per_op", "count"),
    lower("core.recovery.repair_ms_p50", "ms"),
    lower("core.recovery.msgs_per_repair", "count"),
    lower("core.device.failover_us_p50", "us"),
    lower("core.phase.local_leg_us", "us"),
    lower("core.phase.scatter_send_us", "us"),
    lower("core.phase.gather_wait_us", "us"),
    lower("core.phase.exchange_us", "us"),
    lower("core.phase.remote_apply_us", "us"),
    lower("core.phase.wal_append_us", "us"),
    lower("net.msgs_per_read", "count"),
    lower("net.msgs_per_write", "count"),
    lower("fs.self_us_per_op", "us"),
    lower("fs.device_calls_per_op", "count"),
    lower("fs.dev_blocks_per_op", "count"),
    lower("fs.write_amplification", "ratio"),
    lower("fs.read_file_p50_us", "us"),
    lower("fs.write_file_p50_us", "us"),
    lower("fs.append_p50_us", "us"),
    lower("fs.create_p50_us", "us"),
    lower("fs.rename_p50_us", "us"),
    lower("fs.remove_p50_us", "us"),
    lower("fs.truncate_p50_us", "us"),
    lower("fs.stat_p50_us", "us"),
    lower("fs.format_ms", "ms"),
    lower("fs.check_ms", "ms"),
    lower("client.read_p90_us", "us"),
    lower("client.read_p99_us", "us"),
    lower("client.write_p90_us", "us"),
    lower("client.write_p99_us", "us"),
    lower("client.segment_iqr_pct", "%"),
    lower("client.cpu_us_per_op", "us"),
    lower("client.ctx_switches_per_op", "count"),
    higher("client.pinned", "bool"),
    lower("obs.trace_overhead_pct", "%"),
    higher("ladder.coverage_pct", "%"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The program and arguments the driver runs, before its own flags.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json`. Hand-formatted (one entry per line) so the
/// committed file diffs line by line when a name is added.
pub fn manifest_json() -> String {
    fn rows<T>(items: &[T], row: impl Fn(&T) -> String) -> String {
        let rows: Vec<String> = items
            .iter()
            .map(|i| format!("    {{{}}}", row(i)))
            .collect();
        rows.join(",\n")
    }
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        rows(&WORKLOADS, |w| format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why)),
        rows(&END_TO_END, |m| format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}",
            m.name, m.unit, m.better, m.bound
        )),
        rows(&PER_LAYER, |m| format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn committed_manifest_equals_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "run `manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let text = manifest_json();
        assert!(text.len() < 64 * 1024);
        let doc = Value::parse(&text).expect("manifest parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }
}
