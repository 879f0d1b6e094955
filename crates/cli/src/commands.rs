//! Subcommand dispatch for the `blockrep` binary.

use crate::args::{positive, Parsed, UsageError};
use crate::report;
use crate::shell::{self, ShellConfig};
use crate::trace_case::{self, TraceConfig, TraceIoMode, TraceRuntime};
use blockrep_core::simulate::availability::{estimate, AvailabilityConfig};
use blockrep_core::simulate::lifetimes::{measure as measure_lifetimes, LifetimeConfig};
use blockrep_core::simulate::traffic::{measure as measure_traffic, TrafficConfig};
use blockrep_net::DeliveryMode;
use blockrep_types::Scheme;

/// Top-level usage text.
pub const USAGE: &str =
    "blockrep — reliable replicated block devices (Carroll, Long & Pâris, ICDCS 1987)

usage:
  blockrep tables                          equation tables E1–E8
  blockrep fig <9|10|11|12>                regenerate an evaluation figure
  blockrep simulate availability [flags]   measure availability by DES
      --scheme S --sites N --rho R --horizon T --seed X
  blockrep simulate traffic [flags]        measure per-op transmissions
      --scheme S --sites N --rho R --net multicast|unicast --ops K --ratio X
  blockrep simulate lifetimes [flags]      measure MTTF / MTTR
      --scheme S --sites N --rho R --episodes E
  blockrep shell [flags]                   interactive cluster console
      --scheme S --sites N --blocks B --net multicast|unicast
  blockrep chaos [flags]                   seeded fault-injection runs on all
      --seed N --seeds K --steps L         three runtimes; fails with the
      --scheme mcv|ac|nac                  shrunk schedule and its seed, and
      --trace-out PATH --journaled         always prints a metrics snapshot
      --shards N                           at exit; --trace-out writes a
                                           flight-recorder dump (Chrome
                                           trace JSON) of the last schedule
                                           (the shrunk one on failure);
                                           --journaled runs every site on a
                                           write-ahead journal and checks
                                           the stricter durability oracle;
                                           --shards N replays the scripted
                                           shard-fault scenarios (shard
                                           blackout, torn cross-shard
                                           batch) on an N-shard device
                                           instead of seeded schedules
  blockrep trace [flags]                   run one traced workload; print its
      --scheme S --runtime R --io M        per-phase attribution table and
      --sites N --blocks B --block-size Z  emit the causal trace as Chrome
      --net multicast|unicast              trace-event JSON to --out PATH
      --latency-us D --out PATH            (stdout without --out)
  blockrep trace --check PATH              validate a Chrome trace JSON dump
  blockrep mkfs <image-file> [flags]       format a file-backed device;
      --blocks N --block-size B            --shards S formats one image per
      --shards S --group-size Z            shard replica group and prints
                                           the placement manifest
  blockrep fsck <image-file> [flags]       consistency-check an image
      --block-size B --journal             (--journal first replays committed
                                           records from <image-file>.wal,
                                           discarding any torn tail)
  blockrep lint [flags]                    static analysis of the workspace
      --root DIR --deny                    sources: lock-order cycles, atomics
      --allow PATH --out PATH              fence discipline, hot-path obs
                                           guards, wire-tag exhaustiveness;
                                           --deny exits nonzero on findings,
                                           --allow names a baseline file
                                           (default <root>/lint.allow), --out
                                           also writes the report to a file

observability (any subcommand):
  --stats    collect metrics; print a table and a JSON snapshot at exit
  --trace    stream structured protocol events to stderr (implies --stats)

schemes: voting (v), available-copy (ac), naive-available-copy (naive, nac)";

/// Why a command line did not succeed, which decides how the process
/// exits.
#[derive(Debug)]
pub enum Failure {
    /// The command line is wrong: exit 2, after the usage text.
    Usage(UsageError),
    /// The command ran and failed: exit 1, with the error alone.
    Run(String),
}

impl Failure {
    /// The process exit code for this failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Run(_) => 1,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(e) => e.fmt(f),
            Failure::Run(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for Failure {}

impl From<UsageError> for Failure {
    fn from(e: UsageError) -> Failure {
        Failure::Usage(e)
    }
}

/// A run failure with the given message.
fn failed(message: impl Into<String>) -> Failure {
    Failure::Run(message.into())
}

/// Every subcommand's command line: the words that name it, how many
/// positionals it takes after them, and the flags it reads besides
/// `--stats` and `--trace`, which every subcommand reads. Anything else on
/// a command line is a usage error, not silently ignored.
const COMMANDS: &[(&[&str], usize, &[&str])] = &[
    (&["tables"], 0, &[]),
    (&["fig"], 1, &["horizon", "ops"]),
    (
        &["simulate", "availability"],
        0,
        &["scheme", "sites", "rho", "horizon", "seed"],
    ),
    (
        &["simulate", "traffic"],
        0,
        &["scheme", "sites", "rho", "net", "ops", "ratio", "seed"],
    ),
    (
        &["simulate", "lifetimes"],
        0,
        &["scheme", "sites", "rho", "episodes", "seed"],
    ),
    (&["shell"], 0, &["scheme", "sites", "blocks", "net"]),
    (
        &["chaos"],
        0,
        &[
            "seed",
            "seeds",
            "steps",
            "scheme",
            "journaled",
            "shards",
            "trace-out",
        ],
    ),
    (
        &["trace"],
        0,
        &[
            "check",
            "scheme",
            "runtime",
            "io",
            "sites",
            "blocks",
            "block-size",
            "net",
            "latency-us",
            "out",
        ],
    ),
    (
        &["mkfs"],
        1,
        &["blocks", "block-size", "shards", "group-size"],
    ),
    (&["fsck"], 1, &["block-size", "journal"]),
    (&["lint"], 0, &["root", "deny", "allow", "out"]),
];

/// Refuses a flag or a positional that the subcommand `parsed` names does
/// not read. A subcommand the table does not know is left to [`dispatch`],
/// which refuses it or, for `help` and the removed `bench`, reads nothing.
fn check_command_line(parsed: &Parsed) -> Result<(), UsageError> {
    let words: Vec<&str> = (0..parsed.num_positionals())
        .filter_map(|i| parsed.positional(i))
        .collect();
    let Some((name, positionals, flags)) =
        COMMANDS.iter().find(|(name, ..)| words.starts_with(name))
    else {
        return Ok(());
    };
    let command = name.join(" ");
    let global = ["stats", "trace"];
    if let Some(key) = parsed
        .keys()
        .find(|key| !flags.contains(key) && !global.contains(key))
    {
        return Err(UsageError(format!("{command}: unknown flag --{key}")));
    }
    if let Some(stray) = words.get(name.len() + positionals) {
        return Err(UsageError(format!(
            "{command}: unexpected argument {stray:?}"
        )));
    }
    Ok(())
}

/// Runs a parsed command line.
///
/// # Errors
///
/// [`Failure::Usage`] for a malformed command line (the caller prints
/// usage and exits 2), [`Failure::Run`] when the command itself fails
/// (exit 1).
pub fn run(parsed: &Parsed) -> Result<(), Failure> {
    let stats = parsed.flag_bool("stats");
    let trace = parsed.flag_bool("trace");
    if trace {
        blockrep_obs::set_observer(std::sync::Arc::new(blockrep_obs::StderrObserver::new()));
    } else if stats {
        blockrep_obs::enable();
    }
    let result = dispatch(parsed);
    if stats || trace {
        let snapshot = blockrep_obs::metrics::global().snapshot();
        if !snapshot.is_empty() {
            println!("\nmetrics:\n{}", snapshot.to_table());
            println!("{}", snapshot.to_json());
        }
    }
    result
}

fn dispatch(parsed: &Parsed) -> Result<(), Failure> {
    check_command_line(parsed)?;
    match parsed.positional(0) {
        None | Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("tables") => {
            report::tables();
            Ok(())
        }
        Some("fig") => run_fig(parsed),
        Some("simulate") => run_simulate(parsed),
        Some("chaos") => run_chaos(parsed),
        Some("bench") => run_bench(),
        Some("trace") => run_trace(parsed),
        Some("shell") => run_shell(parsed),
        Some("mkfs") => run_mkfs(parsed),
        Some("fsck") => run_fsck(parsed),
        Some("lint") => run_lint(parsed),
        Some(other) => Err(UsageError(format!("unknown subcommand {other:?}")).into()),
    }
}

fn run_fig(parsed: &Parsed) -> Result<(), Failure> {
    let horizon = positive("horizon", parsed.flag_f64("horizon", 100_000.0)?)?;
    let ops = positive("ops", parsed.flag_u64("ops", 30_000)?)?;
    match parsed.positional(1) {
        Some("9") => report::fig09(horizon),
        Some("10") => report::fig10(horizon),
        Some("11") => report::fig11(ops),
        Some("12") => report::fig12(ops),
        other => {
            return Err(
                UsageError(format!("usage: blockrep fig <9|10|11|12> (got {other:?})")).into(),
            )
        }
    }
    Ok(())
}

fn run_simulate(parsed: &Parsed) -> Result<(), Failure> {
    let scheme = parsed.flag_scheme("scheme", Scheme::NaiveAvailableCopy)?;
    // Every experiment below needs a site and a failure process.
    let sites = positive("sites", parsed.flag_usize("sites", 3)?)?;
    let rho = positive("rho", parsed.flag_f64("rho", 0.05)?)?;
    match parsed.positional(1) {
        Some("availability") => {
            let mut cfg = AvailabilityConfig::new(scheme, sites, rho);
            cfg.horizon = positive("horizon", parsed.flag_f64("horizon", 100_000.0)?)?;
            cfg.seed = parsed.flag_u64("seed", cfg.seed)?;
            let est = estimate(&cfg);
            println!("scheme {scheme}, n = {sites}, rho = {rho}");
            println!("analytic availability  {:.8}", est.analytic);
            println!("simulated availability {:.8}", est.availability);
            println!(
                "error {:.2e} over {} events / {:.0} time units",
                est.error(),
                est.events,
                est.sim_time
            );
            Ok(())
        }
        Some("traffic") => {
            let mode = parsed.flag_mode("net", DeliveryMode::Multicast)?;
            let mut cfg = TrafficConfig::new(scheme, sites, mode);
            cfg.rho = rho;
            cfg.ops = positive("ops", parsed.flag_u64("ops", cfg.ops)?)?;
            cfg.reads_per_write = parsed.flag_f64("ratio", cfg.reads_per_write)?;
            cfg.seed = parsed.flag_u64("seed", cfg.seed)?;
            let est = measure_traffic(&cfg);
            if blockrep_obs::enabled() {
                // Mirror the run's traffic counters into the metrics
                // registry so --stats reports per-class message counts.
                est.traffic.export_to(blockrep_obs::metrics::global());
            }
            println!("scheme {scheme}, n = {sites}, rho = {rho}, {mode}");
            println!(
                "per read:     measured {:.3}  model {:.3}",
                est.per_read, est.model.read
            );
            println!(
                "per write:    measured {:.3}  model {:.3}",
                est.per_write, est.model.write
            );
            println!(
                "per recovery: measured {:.3}  model {:.3}",
                est.per_recovery, est.model.recovery
            );
            println!(
                "({} reads, {} writes, {} recoveries)",
                est.reads, est.writes, est.recoveries
            );
            Ok(())
        }
        Some("lifetimes") => {
            let mut cfg = LifetimeConfig::new(scheme, sites, rho);
            let episodes = positive(
                "episodes",
                parsed.flag_u64("episodes", cfg.episodes.into())?,
            )?;
            cfg.episodes = u32::try_from(episodes).map_err(|_| {
                UsageError(format!("--episodes: at most {}, got {episodes}", u32::MAX))
            })?;
            cfg.seed = parsed.flag_u64("seed", cfg.seed)?;
            let mut est = measure_lifetimes(&cfg);
            println!(
                "scheme {scheme}, n = {sites}, rho = {rho} ({} episodes)",
                cfg.episodes
            );
            println!(
                "MTTF measured {:.3}  analytic {:.3}",
                est.mttf.mean(),
                est.analytic_mttf
            );
            match est.analytic_mttr {
                Some(analytic) => println!(
                    "MTTR measured {:.3}  analytic {:.3}",
                    est.mttr.mean(),
                    analytic
                ),
                None => println!(
                    "MTTR measured {:.3}  (no closed form for voting)",
                    est.mttr.mean()
                ),
            }
            println!(
                "MTTR distribution: p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}",
                est.mttr_samples.percentile(50.0),
                est.mttr_samples.percentile(90.0),
                est.mttr_samples.percentile(99.0),
                est.mttr_samples.max(),
            );
            Ok(())
        }
        other => Err(UsageError(format!(
            "usage: blockrep simulate <availability|traffic|lifetimes> (got {other:?})"
        ))
        .into()),
    }
}

fn run_chaos(parsed: &Parsed) -> Result<(), Failure> {
    use blockrep_core::chaos;
    let first_seed = parsed.flag_u64("seed", 0)?;
    let seeds = parsed.flag_u64("seeds", 1)?;
    let steps = parsed.flag_usize("steps", 40)?;
    let journaled = parsed.flag_bool("journaled");
    let trace_out = parsed.flag("trace-out").map(str::to_string);
    let schemes: Vec<Scheme> = match parsed.flag("scheme") {
        None => Scheme::ALL.to_vec(),
        Some(raw) => vec![crate::args::parse_scheme(raw)?],
    };
    // Shard mode: replay the scripted shard-fault scenarios (blackout of
    // one shard's sites, torn write mid cross-shard batch) instead of
    // seeded schedules, with the one-copy oracle checked per shard and
    // cross-runtime parity enforced on the step logs.
    if parsed.flag("shards").is_some() {
        let shards = parsed.flag_usize("shards", 2)?;
        let tag = if journaled { " journaled" } else { "" };
        for scheme in schemes {
            match chaos::check_shards(scheme, shards, journaled) {
                Ok(report) => println!(
                    "shards {shards} {scheme}{tag}: ok ({} log lines, {} reads checked)",
                    report.steps, report.reads_checked
                ),
                Err(e) => return Err(failed(format!("chaos --shards {shards}: {e}"))),
            }
        }
        return Ok(());
    }
    // The chaos runner always collects metrics: the final snapshot is part
    // of the post-mortem record, so `--stats` is implied. When the user
    // passed --stats/--trace themselves, `run` already enabled collection
    // and prints the snapshot; otherwise we do both here.
    let print_stats = !(parsed.flag_bool("stats") || parsed.flag_bool("trace"));
    let was_obs = blockrep_obs::enabled();
    blockrep_obs::enable();
    let mut last: Option<(u64, Scheme)> = None;
    let mut outcome = Ok(());
    'all: for scheme in schemes {
        for seed in first_seed..first_seed + seeds {
            match chaos::run_seed(seed, scheme, steps, journaled) {
                Ok(report) => {
                    let tag = if journaled { " journaled" } else { "" };
                    println!(
                        "seed {seed} {scheme}{tag}: ok ({} steps, {} faults fired, {} reads checked)",
                        report.steps, report.faults_fired, report.reads_checked
                    );
                    last = Some((seed, scheme));
                }
                Err(failure) => {
                    if let Some(path) = &trace_out {
                        let dump = chaos::trace_schedule(
                            failure.seed,
                            failure.scheme,
                            failure.journaled,
                            &failure.steps,
                        );
                        std::fs::write(path, dump)
                            .map_err(|e| failed(format!("chaos: {path}: {e}")))?;
                        println!("wrote flight-recorder dump {path}");
                    }
                    // The failure carries the seed and the shrunk schedule —
                    // everything needed to replay it.
                    outcome = Err(failed(format!("{failure}")));
                    break 'all;
                }
            }
        }
    }
    if outcome.is_ok() {
        if let (Some(path), Some((seed, scheme))) = (&trace_out, last) {
            let script = chaos::generate(seed, scheme, steps);
            let dump = chaos::trace_schedule(seed, scheme, journaled, &script.steps);
            std::fs::write(path, dump).map_err(|e| failed(format!("chaos: {path}: {e}")))?;
            println!("wrote flight-recorder trace {path}");
        }
    }
    if print_stats {
        let snapshot = blockrep_obs::metrics::global().snapshot();
        if !snapshot.is_empty() {
            println!("\nmetrics:\n{}", snapshot.to_table());
            println!("{}", snapshot.to_json());
        }
    }
    if !was_obs {
        blockrep_obs::disable();
    }
    outcome
}

/// The suites this subcommand ran are gone; scripts that still call it
/// are told where the numbers come from now.
fn run_bench() -> Result<(), Failure> {
    Err(UsageError(
        "bench: the built-in suites were removed; the repository benchmark is \
         `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload <w>` \
         (BENCHMARK.json names the workloads)"
            .into(),
    )
    .into())
}

fn run_trace(parsed: &Parsed) -> Result<(), Failure> {
    if let Some(path) = parsed.flag("check") {
        let text =
            std::fs::read_to_string(path).map_err(|e| failed(format!("trace: {path}: {e}")))?;
        blockrep_obs::trace::validate_chrome_trace(&text)
            .map_err(|e| failed(format!("trace: {path}: invalid trace: {e}")))?;
        println!("{path}: valid Chrome trace-event JSON");
        return Ok(());
    }
    let scheme = parsed.flag_scheme("scheme", Scheme::Voting)?;
    let runtime = match parsed.flag("runtime") {
        None | Some("tcp") => TraceRuntime::Tcp,
        Some("live") => TraceRuntime::Live,
        Some("deterministic") | Some("det") => TraceRuntime::Deterministic,
        Some(other) => {
            return Err(UsageError(format!(
                "--runtime: expected deterministic, live or tcp, got {other:?}"
            ))
            .into())
        }
    };
    let io = match parsed.flag("io") {
        None | Some("batched") => TraceIoMode::Batched,
        Some("per_block") | Some("per-block") => TraceIoMode::PerBlock,
        Some(other) => {
            return Err(UsageError(format!(
                "--io: expected batched or per_block, got {other:?}"
            ))
            .into())
        }
    };
    let default = TraceConfig::default();
    let cfg = TraceConfig {
        sites: parsed.flag_usize("sites", default.sites)?,
        blocks: parsed.flag_u64("blocks", default.blocks)?,
        block_size: parsed.flag_usize("block-size", default.block_size)?,
        mode: parsed.flag_mode("net", default.mode)?,
        link_latency_us: parsed.flag_u64("latency-us", default.link_latency_us)?,
    };
    println!(
        "trace: scheme {scheme}, runtime {}, io {}, n = {}, {} blocks x {} B, {}, link delay {} us",
        runtime.label(),
        io.label(),
        cfg.sites,
        cfg.blocks,
        cfg.block_size,
        cfg.mode,
        cfg.link_latency_us
    );
    let (records, case) = trace_case::capture(&cfg, runtime, scheme, io)
        .map_err(|e| failed(format!("trace: {e}")))?;
    println!(
        "{} op(s), {:.3} ms op time, {} spans, {:.1}% attributed to phases",
        case.ops,
        case.op_us / 1_000.0,
        case.spans,
        case.attributed_fraction * 100.0
    );
    if !case.phases.is_empty() {
        println!("| phase | spans | total ms |");
        println!("|---|---:|---:|");
        for p in &case.phases {
            println!(
                "| {} | {} | {:.3} |",
                p.phase,
                p.count,
                p.total_us / 1_000.0
            );
        }
    }
    let json = blockrep_obs::trace::chrome_trace_json(&records);
    // Never emit a dump the --check path (or the Chrome viewer) rejects.
    blockrep_obs::trace::validate_chrome_trace(&json)
        .map_err(|e| failed(format!("trace: emitted dump invalid: {e}")))?;
    match parsed.flag("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| failed(format!("trace: {path}: {e}")))?;
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn run_mkfs(parsed: &Parsed) -> Result<(), Failure> {
    let path = parsed.positional(1).ok_or_else(|| {
        UsageError("usage: blockrep mkfs <image-file> [--blocks N --block-size B]".into())
    })?;
    let blocks = parsed.flag_u64("blocks", 1024)?;
    let block_size = parsed.flag_usize("block-size", 512)?;
    if parsed.flag("shards").is_some() {
        // Sharded format: one image per shard replica group (each holds
        // the full address space, per the manifest's no-translation rule)
        // plus the placement manifest that routes block groups to them.
        let shards = parsed.flag_usize("shards", 2)?;
        let group_size = parsed.flag_u64("group-size", 64)?;
        let pool: Vec<blockrep_types::SiteId> = blockrep_types::SiteId::all(shards * 3).collect();
        let manifest =
            blockrep_core::PlacementManifest::build(1, group_size, blocks, &pool, shards)
                .map_err(|e| failed(format!("mkfs: {e}")))?;
        for s in 0..shards {
            let shard_path = format!("{path}.shard{s}");
            let dev = blockrep_storage::FileStore::create(&shard_path, blocks, block_size)
                .map_err(|e| failed(format!("mkfs: {shard_path}: {e}")))?;
            blockrep_fs::FileSystem::format(dev)
                .map_err(|e| failed(format!("mkfs: {shard_path}: {e}")))?;
            println!("formatted {shard_path}: {blocks} blocks of {block_size} bytes");
        }
        print!("{}", manifest.render());
        return Ok(());
    }
    let dev = blockrep_storage::FileStore::create(path, blocks, block_size)
        .map_err(|e| failed(format!("mkfs: {e}")))?;
    blockrep_fs::FileSystem::format(dev).map_err(|e| failed(format!("mkfs: {e}")))?;
    println!("formatted {path}: {blocks} blocks of {block_size} bytes");
    Ok(())
}

fn run_fsck(parsed: &Parsed) -> Result<(), Failure> {
    let path = parsed
        .positional(1)
        .ok_or_else(|| UsageError("usage: blockrep fsck <image-file> [--block-size B]".into()))?;
    let block_size = parsed.flag_usize("block-size", 512)?;
    let mut dev = blockrep_storage::FileStore::open(path, block_size)
        .map_err(|e| failed(format!("fsck: {e}")))?;
    if parsed.flag_bool("journal") {
        // Crash recovery before the structural check: replay every
        // committed journal record into the image (discarding any torn
        // tail), checkpoint, and only then mount.
        let journal_path = format!("{path}.wal");
        match blockrep_storage::FileStore::open(&journal_path, block_size) {
            Ok(journal) => {
                let journaled = blockrep_storage::Journaled::open(dev, journal, 1)
                    .map_err(|e| failed(format!("fsck: {journal_path}: {e}")))?;
                let stats = journaled.stats();
                println!(
                    "{journal_path}: replayed {} committed record(s), discarded {} torn byte(s)",
                    stats.replayed, stats.discarded_bytes
                );
                dev = journaled.abandon().0;
            }
            Err(blockrep_types::DeviceError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("{journal_path}: no journal, skipping replay");
            }
            Err(e) => return Err(failed(format!("fsck: {journal_path}: {e}"))),
        }
    }
    let fs = blockrep_fs::FileSystem::mount(dev).map_err(|e| failed(format!("fsck: {e}")))?;
    let report = fs.check().map_err(|e| failed(format!("fsck: {e}")))?;
    println!(
        "{path}: {} files, {} directories, {} data blocks in use",
        report.files, report.directories, report.used_blocks
    );
    if report.is_clean() {
        println!("clean");
        Ok(())
    } else {
        for problem in &report.problems {
            println!("PROBLEM {problem}");
        }
        Err(failed(format!("{} problems found", report.problems.len())))
    }
}

fn run_lint(parsed: &Parsed) -> Result<(), Failure> {
    let root = parsed.flag("root").unwrap_or(".");
    let config = blockrep_lint::Config {
        root: root.into(),
        allow_file: parsed.flag("allow").map(Into::into),
    };
    let report = blockrep_lint::run(&config).map_err(|e| failed(format!("lint: {e}")))?;
    let rendered = report.render();
    print!("{rendered}");
    if let Some(out) = parsed.flag("out") {
        std::fs::write(out, &rendered).map_err(|e| failed(format!("lint: {out}: {e}")))?;
    }
    if parsed.flag_bool("deny") && !report.is_clean() {
        let dirty = report
            .findings
            .iter()
            .filter(|f| f.severity > blockrep_lint::Severity::Note)
            .count();
        return Err(failed(format!("lint: {dirty} finding(s) (--deny)")));
    }
    Ok(())
}

fn run_shell(parsed: &Parsed) -> Result<(), Failure> {
    let config = ShellConfig {
        scheme: parsed.flag_scheme("scheme", Scheme::NaiveAvailableCopy)?,
        sites: parsed.flag_usize("sites", 3)?,
        blocks: parsed.flag_u64("blocks", 16)?,
        mode: parsed.flag_mode("net", DeliveryMode::Multicast)?,
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    shell::run(config, stdin.lock(), stdout.lock())
        .map_err(|e| failed(format!("shell i/o error: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(parts: &[&str]) -> Parsed {
        Parsed::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn help_runs() {
        assert!(run(&parsed(&[])).is_ok());
        assert!(run(&parsed(&["help"])).is_ok());
        assert!(!USAGE.contains("--suite") && !USAGE.contains("blockrep bench"));
    }

    #[test]
    fn bench_subcommand_points_at_the_repository_benchmark() {
        for args in [
            &["bench"][..],
            &["bench", "--suite", "fs", "--check", "x.json"],
        ] {
            let err = run(&parsed(args)).unwrap_err().to_string();
            assert!(
                err.contains(
                    "cargo run --release --manifest-path benchmark/Cargo.toml -- --workload <w>"
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn lint_runs_clean_on_this_workspace() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        assert!(run(&parsed(&["lint", "--root", root, "--deny"])).is_ok());
    }

    #[test]
    fn lint_deny_gates_on_findings() {
        let root = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../lint/tests/fixtures/lock_cycle"
        );
        // Without --deny the findings print but the run succeeds...
        assert!(run(&parsed(&["lint", "--root", root])).is_ok());
        // ...with --deny they are fatal, like fsck's problem count.
        let err = run(&parsed(&["lint", "--root", root, "--deny"])).unwrap_err();
        assert!(err.to_string().contains("finding"), "{err}");
    }

    #[test]
    fn chaos_rejects_a_flag_it_does_not_read() {
        // An unknown flag takes the word after it as its value, here `--seed`.
        for args in [
            &["chaos", "--leases", "--seed", "3"][..],
            &["chaos", "--sheme", "ac"],
        ] {
            let err = run(&parsed(args)).unwrap_err().to_string();
            assert!(err.starts_with("chaos: unknown flag --"), "{args:?}: {err}");
        }
    }

    /// `base` followed by `extra` is refused as a usage error that says
    /// `what`, before the subcommand runs.
    fn refused(base: &[&str], extra: &[&str], what: &str) {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        match run(&parsed(&args)) {
            Err(Failure::Usage(e)) => assert!(e.0.contains(what), "{args:?}: {e}"),
            other => panic!("{args:?} must be a usage error, got {other:?}"),
        }
    }

    /// One test per subcommand: a misspelled flag (which takes the word
    /// after it as its value) and a stray positional are usage errors.
    macro_rules! rejects_what_it_does_not_read {
        ($($test:ident: $base:expr, $typo:expr;)*) => {$(
            #[test]
            fn $test() {
                refused(&$base, &[$typo, "1"], &format!("unknown flag {}", $typo));
                refused(&$base, &["stray"], "unexpected argument \"stray\"");
            }
        )*};
    }

    rejects_what_it_does_not_read! {
        tables_rejects_what_it_does_not_read: ["tables"], "--bogus";
        fig_rejects_what_it_does_not_read: ["fig", "9"], "--horizn";
        simulate_availability_rejects_what_it_does_not_read:
            ["simulate", "availability"], "--horizn";
        simulate_traffic_rejects_what_it_does_not_read: ["simulate", "traffic"], "--sitez";
        simulate_lifetimes_rejects_what_it_does_not_read:
            ["simulate", "lifetimes"], "--episode";
        shell_rejects_what_it_does_not_read: ["shell"], "--block";
        chaos_rejects_what_it_does_not_read: ["chaos", "--seed", "1"], "--sheme";
        trace_rejects_what_it_does_not_read: ["trace"], "--runtim";
        mkfs_rejects_what_it_does_not_read: ["mkfs", "x.img"], "--block-sise";
        fsck_rejects_what_it_does_not_read: ["fsck", "x.img"], "--jornal";
        lint_rejects_what_it_does_not_read: ["lint"], "--dney";
    }

    #[test]
    fn the_reported_silent_typos_are_refused() {
        refused(
            &["fig", "9", "--horizn", "10"],
            &[],
            "fig: unknown flag --horizn",
        );
        refused(&["simulate", "traffic", "--sitez", "9"], &[], "--sitez");
        refused(
            &["tables", "--bogus", "1"],
            &[],
            "tables: unknown flag --bogus",
        );
        refused(
            &["chaos", "--seed", "1", "3"],
            &[],
            "chaos: unexpected argument \"3\"",
        );
    }

    #[test]
    fn a_command_that_runs_and_fails_is_not_a_usage_error() {
        let root = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../lint/tests/fixtures/lock_cycle"
        );
        let failure = run(&parsed(&["lint", "--root", root, "--deny"])).unwrap_err();
        assert!(matches!(failure, Failure::Run(_)), "{failure:?}");
        assert_eq!(failure.exit_code(), 1);
        let failure = run(&parsed(&["fig", "13"])).unwrap_err();
        assert!(matches!(failure, Failure::Usage(_)), "{failure:?}");
        assert_eq!(failure.exit_code(), 2);
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        assert!(run(&parsed(&["frobnicate"])).is_err());
        assert!(run(&parsed(&["fig", "13"])).is_err());
        assert!(run(&parsed(&["simulate", "everything"])).is_err());
    }

    #[test]
    fn out_of_range_numeric_flags_are_usage_errors() {
        let cases: &[&[&str]] = &[
            &["trace", "--sites", "0"],
            &["trace", "--blocks", "0"],
            &["trace", "--block-size", "0"],
            &["fig", "9", "--horizon", "0"],
            &["fig", "10", "--horizon", "0"],
            &["fig", "10", "--horizon", "NaN"],
            &["fig", "11", "--ops", "0"],
            &["fig", "12", "--ops", "0"],
            &["simulate", "availability", "--horizon", "0"],
            &["simulate", "availability", "--sites", "0"],
            &["simulate", "traffic", "--ops", "0"],
            &["simulate", "traffic", "--rho", "0"],
            &["simulate", "traffic", "--rho", "-0.1"],
            &["simulate", "lifetimes", "--episodes", "0"],
            &["simulate", "lifetimes", "--episodes", "4294967296"],
        ];
        for args in cases {
            assert!(run(&parsed(args)).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn figure_and_table_regenerators_run_small() {
        let cases: &[&[&str]] = &[
            &["tables"],
            &["fig", "9", "--horizon", "200"],
            &["fig", "10", "--horizon", "200"],
            &["fig", "11", "--ops", "200"],
            &["fig", "12", "--ops", "200"],
        ];
        for args in cases {
            assert!(run(&parsed(args)).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn simulate_availability_runs_small() {
        let p = parsed(&[
            "simulate",
            "availability",
            "--scheme",
            "ac",
            "--sites",
            "2",
            "--rho",
            "0.3",
            "--horizon",
            "500",
        ]);
        assert!(run(&p).is_ok());
    }

    #[test]
    fn simulate_traffic_runs_small() {
        let p = parsed(&[
            "simulate", "traffic", "--scheme", "voting", "--sites", "3", "--ops", "500", "--net",
            "unicast",
        ]);
        assert!(run(&p).is_ok());
    }

    #[test]
    fn mkfs_and_fsck_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        let mut path = std::env::temp_dir();
        path.push(format!("blockrep-cli-mkfs-{}.img", std::process::id()));
        let path_str = path
            .to_str()
            .ok_or_else(|| UsageError("temp path is not UTF-8".into()))?
            .to_string();
        run(&parsed(&[
            "mkfs",
            &path_str,
            "--blocks",
            "128",
            "--block-size",
            "512",
        ]))?;
        // A fresh image is clean.
        run(&parsed(&["fsck", &path_str]))?;
        // Populate it and re-check through a remount.
        {
            let dev = blockrep_storage::FileStore::open(&path_str, 512)
                .map_err(|e| UsageError(format!("open: {e}")))?;
            let fs = blockrep_fs::FileSystem::mount(dev)
                .map_err(|e| UsageError(format!("mount: {e}")))?;
            fs.write_file("/hello", b"persist me")
                .map_err(|e| UsageError(format!("write: {e}")))?;
        }
        run(&parsed(&["fsck", &path_str]))?;
        // A corrupted superblock is rejected.
        {
            use std::io::{Seek, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path_str)?;
            f.seek(std::io::SeekFrom::Start(0))?;
            f.write_all(b"XXXX")?;
        }
        assert!(run(&parsed(&["fsck", &path_str])).is_err());
        std::fs::remove_file(path)?;
        Ok(())
    }

    #[test]
    fn fsck_journal_replays_committed_records() -> Result<(), Box<dyn std::error::Error>> {
        use blockrep_storage::{BlockDevice, FileStore, Wal, WalRecord};
        use blockrep_types::{BlockData, BlockIndex, VersionNumber};
        let mut path = std::env::temp_dir();
        path.push(format!("blockrep-cli-fsck-wal-{}.img", std::process::id()));
        let path_str = path
            .to_str()
            .ok_or_else(|| UsageError("temp path is not UTF-8".into()))?
            .to_string();
        run(&parsed(&[
            "mkfs",
            &path_str,
            "--blocks",
            "128",
            "--block-size",
            "512",
        ]))?;
        // Without a journal file, --journal notes the absence and proceeds.
        run(&parsed(&["fsck", &path_str, "--journal"]))?;
        // Journal one committed install of a free data block, then recover.
        let wal_path = format!("{path_str}.wal");
        let journal = FileStore::create(&wal_path, 4, 512)
            .map_err(|e| UsageError(format!("journal create: {e}")))?;
        let wal = Wal::create(journal, 1).map_err(|e| UsageError(format!("wal: {e}")))?;
        wal.append(&WalRecord {
            block: BlockIndex::new(100),
            version: VersionNumber::new(1),
            payload: BlockData::from(vec![0xAB; 512]),
        })
        .map_err(|e| UsageError(format!("append: {e}")))?;
        drop(wal);
        run(&parsed(&["fsck", &path_str, "--journal"]))?;
        let img = FileStore::open(&path_str, 512).map_err(|e| UsageError(format!("open: {e}")))?;
        let replayed = img
            .read_block(BlockIndex::new(100))
            .map_err(|e| UsageError(format!("read: {e}")))?;
        assert_eq!(replayed.as_slice(), &[0xAB; 512][..]);
        std::fs::remove_file(path)?;
        std::fs::remove_file(wal_path)?;
        Ok(())
    }

    #[test]
    fn mkfs_shards_formats_images_and_prints_the_manifest() -> Result<(), Box<dyn std::error::Error>>
    {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "blockrep-cli-mkfs-shard-{}.img",
            std::process::id()
        ));
        let path_str = path
            .to_str()
            .ok_or_else(|| UsageError("temp path is not UTF-8".into()))?
            .to_string();
        run(&parsed(&[
            "mkfs",
            &path_str,
            "--blocks",
            "128",
            "--block-size",
            "512",
            "--shards",
            "2",
        ]))?;
        for s in 0..2 {
            let shard_path = format!("{path_str}.shard{s}");
            // Each shard image is a complete, mountable device.
            run(&parsed(&["fsck", &shard_path]))?;
            std::fs::remove_file(shard_path)?;
        }
        Ok(())
    }

    #[test]
    fn chaos_shard_scenarios_run() {
        let p = parsed(&["chaos", "--shards", "2", "--scheme", "mcv"]);
        assert!(run(&p).is_ok());
        // A single shard is not a sharded device.
        let p = parsed(&["chaos", "--shards", "1", "--scheme", "mcv"]);
        assert!(run(&p).is_err());
    }

    #[test]
    fn chaos_journaled_runs_small() {
        let p = parsed(&[
            "chaos",
            "--seed",
            "1",
            "--steps",
            "8",
            "--scheme",
            "ac",
            "--journaled",
        ]);
        assert!(run(&p).is_ok());
    }

    #[test]
    fn chaos_runs_small() {
        // Exercises the mcv alias and one short seed on all three runtimes.
        let p = parsed(&["chaos", "--seed", "1", "--steps", "8", "--scheme", "mcv"]);
        assert!(run(&p).is_ok());
    }

    #[test]
    fn trace_subcommand_writes_and_checks_a_chrome_dump() -> Result<(), Box<dyn std::error::Error>>
    {
        let mut path = std::env::temp_dir();
        path.push(format!("blockrep-cli-trace-{}.json", std::process::id()));
        let path_str = path
            .to_str()
            .ok_or_else(|| UsageError("temp path is not UTF-8".into()))?
            .to_string();
        run(&parsed(&[
            "trace",
            "--scheme",
            "voting",
            "--runtime",
            "deterministic",
            "--blocks",
            "2",
            "--block-size",
            "32",
            "--latency-us",
            "0",
            "--out",
            &path_str,
        ]))?;
        run(&parsed(&["trace", "--check", &path_str]))?;
        // A damaged dump is rejected.
        std::fs::write(&path, "{\"traceEvents\": 7}")?;
        assert!(run(&parsed(&["trace", "--check", &path_str])).is_err());
        assert!(run(&parsed(&["trace", "--runtime", "quantum"])).is_err());
        assert!(run(&parsed(&["trace", "--io", "sideways"])).is_err());
        std::fs::remove_file(path)?;
        Ok(())
    }

    #[test]
    fn chaos_trace_out_writes_a_flight_recorder_dump() -> Result<(), Box<dyn std::error::Error>> {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "blockrep-cli-chaos-trace-{}.json",
            std::process::id()
        ));
        let path_str = path
            .to_str()
            .ok_or_else(|| UsageError("temp path is not UTF-8".into()))?
            .to_string();
        run(&parsed(&[
            "chaos",
            "--seed",
            "2",
            "--steps",
            "6",
            "--scheme",
            "ac",
            "--trace-out",
            &path_str,
        ]))?;
        let dump = std::fs::read_to_string(&path)?;
        blockrep_obs::trace::validate_chrome_trace(&dump)
            .map_err(|e| UsageError(format!("chaos dump invalid: {e}")))?;
        std::fs::remove_file(path)?;
        Ok(())
    }

    #[test]
    fn simulate_lifetimes_runs_small() {
        let p = parsed(&[
            "simulate",
            "lifetimes",
            "--scheme",
            "nac",
            "--sites",
            "2",
            "--rho",
            "0.5",
            "--episodes",
            "40",
        ]);
        assert!(run(&p).is_ok());
    }
}
