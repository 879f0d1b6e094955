//! Repo benchmark v1 for `blockrep`: four pinned single-client workloads,
//! exact work counts beside wall-clock medians, and a replay ladder for
//! per-layer cost. See `benchmark/README.md`.
//!
//! The driver runs
//! `<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! and reads the last line of standard output.

mod json;
mod ladder;
mod run;
mod script;
mod spec;
mod stats;
mod sys;
mod timed;
mod tools;
mod workloads;

use run::Opts;
use std::process::ExitCode;
use workloads::Env;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "\
usage: blockrep-benchmark --workload <name> --seed <n> [--seconds <s> | --smoke] [--trace <0|1>]
       blockrep-benchmark all --out <file> [--runs <k>] [--seed <n>] [--seconds <s>]
       blockrep-benchmark compare <base.json> <new.json>
       blockrep-benchmark noise [--runs <k>] [--seed <n>] [--seconds <s>]
       blockrep-benchmark manifest";

/// Where the run may write: inside the checkout, ignored by git.
pub const WORK_DIR: &str = ".bench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        Some("all") => tools::all(&args[1..]),
        Some("compare") => tools::compare(&args[1..]),
        Some("noise") => tools::noise(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("blockrep-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flag values by name; every flag takes exactly one value except `--smoke`.
pub fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" && known.contains(&"--smoke") {
            out.push((flag.clone(), "1".to_string()));
            continue;
        }
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

pub fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| {
            v.parse::<T>()
                .map_err(|_| format!("bad value {v:?} for {name}"))
        })
        .transpose()
}

fn run_one(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--smoke"],
    )?;
    let workload: String = flag(&flags, "--workload")?.ok_or("--workload is required")?;
    if !spec::is_workload(&workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let smoke = flag::<u8>(&flags, "--smoke")?.is_some();
    let seconds = match flag::<f64>(&flags, "--seconds")? {
        _ if smoke => 2.0,
        Some(s) if (0.5..=600.0).contains(&s) => s,
        Some(s) => return Err(format!("--seconds {s} is outside 0.5..=600")),
        None => f64::from(spec::RUN_SECONDS),
    };
    let opts = Opts {
        workload,
        seed: flag(&flags, "--seed")?.unwrap_or(1),
        seconds,
        trace: match flag::<u8>(&flags, "--trace")? {
            None | Some(0) => false,
            Some(1) => true,
            Some(t) => return Err(format!("--trace {t} is neither 0 nor 1")),
        },
    };

    // Before anything spawns a thread: the site, server and fan-out
    // threads inherit the mask, so the whole process shares one CPU and
    // wall time per op is the software cost of all of them.
    let nproc = sys::nproc();
    let pinned_cpu = sys::pin_to_highest_cpu();
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let env = Env {
        pinned_cpu,
        nproc,
        work_dir: WORK_DIR.into(),
    };

    println!(
        "# blockrep benchmark v1: workload {} seed {} seconds {} trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    match pinned_cpu {
        Some(cpu) => println!("# pinned to cpu {cpu} of {nproc}"),
        None => {
            println!("# \"pinned\": false (the host refused; running unpinned on {nproc} cpus)")
        }
    }
    let report = workloads::run_workload(&opts, &env)?;
    for &(name, unit, value) in &report.metrics {
        let iqr = report
            .detail
            .get(name)
            .and_then(|d| d.get("segment_iqr_pct"))
            .and_then(json::Value::as_f64)
            .map_or(String::new(), |p| format!("  (segment iqr {p:.2} %)"));
        println!("{name:<36} {value:>16.4} {unit}{iqr}");
    }
    println!(
        "{}",
        json::Value::obj(vec![("detail", report.detail.clone())]).render()
    );
    println!("{}", report.result_line());
    Ok(true)
}
