//! `all`, `compare` and `noise`: run every workload in child processes,
//! judge two result files against the bounds, and measure the benchmark's
//! own run-to-run spread.

use crate::json::Value;
use crate::spec::{EndToEnd, END_TO_END, RUN_SECONDS, SCHEMA, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles, range_share};
use crate::{flag, parse_flags, sys};
use std::process::Command;

/// One child run: the contract's result line and the detail line above it.
struct ChildRun {
    result: Value,
    detail: Value,
}

/// Runs one workload in a child process of this same executable, so every
/// run starts from a fresh address space and pins itself.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = Value::parse(lines.next().unwrap_or_default())?;
    let detail = lines
        .next()
        .and_then(|l| Value::parse(l).ok())
        .and_then(|v| v.get("detail").cloned())
        .unwrap_or(Value::Null);
    Ok(ChildRun { result, detail })
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn environment(seconds: f64) -> Value {
    Value::obj(vec![
        (
            "commit",
            Value::str(sys::command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Value::num(sys::nproc() as f64)),
        ("kernel", Value::str(sys::kernel_release())),
        (
            "rustc",
            Value::str(sys::command_output("rustc", &["--version"])),
        ),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("run_seconds", Value::num(seconds)),
    ])
}

struct Common {
    runs: usize,
    seed: u64,
    seconds: f64,
}

fn common(flags: &[(String, String)], default_runs: usize) -> Result<Common, String> {
    Ok(Common {
        runs: flag(flags, "--runs")?.unwrap_or(default_runs).max(1),
        seed: flag(flags, "--seed")?.unwrap_or(1),
        seconds: flag(flags, "--seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
    })
}

/// `all --out <file>`: every workload untraced (`k` runs, seeds `n..n+k`)
/// and traced (one run), under an environment header.
pub fn all(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["--out", "--runs", "--seed", "--seconds"])?;
    let out: String = flag(&flags, "--out")?.ok_or("all needs --out <file>")?;
    let c = common(&flags, 3)?;
    let mut lines = Vec::new();
    let mut ok = true;
    let mut pinned = Value::Null;
    for w in &WORKLOADS {
        let seeds = (c.seed..c.seed + c.runs as u64).map(|s| (s, false));
        for (seed, trace) in seeds.chain([(c.seed, true)]) {
            eprintln!("{} seed {seed} trace {}", w.name, u8::from(trace));
            let run = run_child(w.name, seed, c.seconds, trace)?;
            ok &= run.result.get("correct").and_then(Value::as_bool) == Some(true);
            if let Some(cpu) = run.detail.get("pinned_cpu") {
                pinned = cpu.clone();
            }
            lines.push(
                Value::obj(vec![
                    ("workload", Value::str(w.name)),
                    ("seed", Value::num(seed as f64)),
                    ("trace", Value::num(f64::from(u8::from(trace)))),
                    ("result", run.result),
                    ("detail", run.detail),
                ])
                .render(),
            );
        }
    }
    let mut env = environment(c.seconds);
    if let Value::Obj(entries) = &mut env {
        entries.push(("pinned_cpu".to_string(), pinned));
    }
    // One run per line, so result files diff run by run.
    let text = format!(
        "{{\"schema\": \"{SCHEMA}\", \"env\": {},\n\"runs\": [\n{}\n]}}\n",
        env.render(),
        lines.join(",\n")
    );
    std::fs::write(&out, text).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(ok)
}

/// The untraced values of one metric on one workload, plus the failed
/// share, out of an `all` file.
struct Side {
    values: Vec<f64>,
    failed_share: f64,
}

fn side(doc: &Value, workload: &str, name: &str) -> Side {
    let runs: Vec<&Value> = doc
        .get("runs")
        .map_or(&[][..], Value::items)
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_f64) == Some(0.0))
        .filter_map(|r| r.get("result"))
        .collect();
    let sum = |key: &str| -> f64 { runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum() };
    Side {
        values: runs.iter().filter_map(|r| metric(r, name)).collect(),
        failed_share: sum("failed") / sum("attempted").max(1.0),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges one metric. `unresolved` when either side's inter-quartile range
/// exceeds the bound (the spread is wider than what is being decided);
/// `worse` when the new median is worse by more than the bound; `better`
/// when it is better by more than the base's own inter-quartile range
/// (the rule for claiming a gain); `same` otherwise.
pub fn judge(m: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (median(base), median(new));
    if base.is_empty() || new.is_empty() || b == 0.0 {
        return Verdict::Unresolved;
    }
    if iqr_share(base) > m.bound || iqr_share(new) > m.bound {
        return Verdict::Unresolved;
    }
    // Positive when the new side is worse, whatever the direction.
    let worse_by = if m.better == "lower" {
        (n - b) / b
    } else {
        (b - n) / b
    };
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > iqr_share(base) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

/// `compare <base.json> <new.json>`: one row per (workload, end-to-end
/// metric). Fails on any `worse` row or a larger failed share.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [base_path, new_path] = args else {
        return Err("compare needs <base.json> <new.json>".into());
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<20} {:<17} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "base med", "base q1..q3", "new med", "new q1..q3", "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (b, n) = (side(&base, w.name, m.name), side(&new, w.name, m.name));
            let verdict = judge(m, &b.values, &n.values);
            ok &= verdict != Verdict::Worse;
            let [bq1, _, bq3] = quartiles(&b.values);
            let [nq1, _, nq3] = quartiles(&n.values);
            println!(
                "{:<20} {:<17} {:>12.4} {:>25} {:>12.4} {:>25} {:>6}  {}",
                w.name,
                m.name,
                median(&b.values),
                format!("{bq1:.4}..{bq3:.4}"),
                median(&n.values),
                format!("{nq1:.4}..{nq3:.4}"),
                m.bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
        let (b, n) = (
            side(&base, w.name, "setup_s"),
            side(&new, w.name, "setup_s"),
        );
        if n.failed_share > b.failed_share {
            println!(
                "{:<20} failed share rose from {:.6} to {:.6}",
                w.name, b.failed_share, n.failed_share
            );
            ok = false;
        }
    }
    Ok(ok)
}

/// `noise [--runs k]`: two sets of `k` runs of every workload on the
/// current build, alternating workloads, a new seed for every run. Prints
/// (as markdown) per metric the in-set spreads and the relative difference
/// of the two set medians, judged the way the driver judges a benchmark:
/// a row fails when a set's inter-quartile spread exceeds the metric's
/// bound (`setup_s` is exempt from that) or the second set's median is
/// worse than the first's by more than the bound; it is marked `wide`
/// when a spread exceeds a third of the bound, the margin to aim for.
pub fn noise(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["--runs", "--seed", "--seconds"])?;
    let c = common(&flags, 5)?;
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    let mut incorrect = 0;
    for (set, set_values) in values.iter_mut().enumerate() {
        for run in 0..c.runs {
            for (wi, w) in WORKLOADS.iter().enumerate() {
                let seed = c.seed + (set * c.runs + run) as u64;
                eprintln!("set {} run {} {} seed {seed}", set + 1, run + 1, w.name);
                let child = run_child(w.name, seed, c.seconds, false)?;
                let clean = child.result.get("correct").and_then(Value::as_bool) == Some(true)
                    && child.result.get("failed").and_then(Value::as_f64) == Some(0.0);
                incorrect += usize::from(!clean);
                for (mi, m) in END_TO_END.iter().enumerate() {
                    let v = metric(&child.result, m.name)
                        .ok_or_else(|| format!("{} did not report {}", w.name, m.name))?;
                    set_values[wi][mi].push(v);
                }
            }
        }
    }
    let env = environment(c.seconds);
    println!(
        "# Benchmark noise: two sets of {} runs per workload",
        c.runs
    );
    println!();
    println!(
        "`noise --runs {} --seed {} --seconds {}`; environment: `{}`.",
        c.runs,
        c.seed,
        c.seconds,
        env.render()
    );
    println!();
    println!("`iqr` is the distance between the first and third quartile of a set's values as a share of their median (Python's `statistics.quantiles(n=4)`, what the driver computes); `range` is `(max - min) / median`; `sets differ` is the relative difference of the two set medians, positive when the second set is worse. A row fails when an `iqr` exceeds the bound (`setup_s` is exempt) or `sets differ` exceeds it, and is `wide` when an `iqr` exceeds a third of the bound.");
    let mut ok = incorrect == 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        println!();
        println!("## {}", w.name);
        println!();
        println!("| metric | unit | median 1 | iqr 1 | range 1 | median 2 | iqr 2 | range 2 | sets differ | bound | |");
        println!("|---|---|---|---|---|---|---|---|---|---|---|");
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][wi][mi], &values[1][wi][mi]);
            let (ma, mb) = (median(a), median(b));
            let worse_by = if m.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = if m.name == "setup_s" {
                0.0
            } else {
                iqr_share(a).max(iqr_share(b))
            };
            let verdict = if spread > m.bound || worse_by > m.bound {
                ok = false;
                "FAIL"
            } else if spread > m.bound / 3.0 {
                "wide"
            } else {
                "ok"
            };
            println!(
                "| `{}` | {} | {:.4} | {:.2} % | {:.2} % | {:.4} | {:.2} % | {:.2} % | {:+.2} % | {} % | {verdict} |",
                m.name,
                m.unit,
                ma,
                iqr_share(a) * 100.0,
                range_share(a) * 100.0,
                mb,
                iqr_share(b) * 100.0,
                range_share(b) * 100.0,
                worse_by * 100.0,
                m.bound * 100.0,
            );
        }
    }
    println!();
    println!(
        "{} of {} runs reported `correct: true` with 0 failed ops. Verdict: {}.",
        2 * c.runs * WORKLOADS.len() - incorrect,
        2 * c.runs * WORKLOADS.len(),
        if ok {
            "every end-to-end metric repeats within its bound"
        } else {
            "FAIL"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lat = &EndToEnd {
            name: "lat",
            unit: "us",
            better: "lower",
            bound: 0.10,
        };
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(judge(lat, &base, &[10.2, 10.3, 10.1]), Verdict::Same);
        assert_eq!(judge(lat, &base, &[11.5, 11.6, 11.4]), Verdict::Worse);
        assert_eq!(judge(lat, &base, &[8.0, 8.1, 7.9]), Verdict::Better);
        // A side whose quartiles are further apart than the bound decides nothing.
        assert_eq!(
            judge(lat, &base, &[8.0, 12.0, 10.0, 14.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(lat, &[], &[1.0]), Verdict::Unresolved);

        let rate = &EndToEnd {
            name: "rate",
            unit: "1/s",
            better: "higher",
            bound: 0.10,
        };
        assert_eq!(
            judge(rate, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Better
        );
        // Single runs have no spread: the bound alone decides.
        assert_eq!(judge(rate, &[100.0], &[95.0]), Verdict::Same);
    }

    #[test]
    fn sides_read_untraced_runs_of_one_workload() {
        let doc = Value::parse(
            r#"{"schema": "blockrep.benchmark/v1", "runs": [
            {"workload": "a", "trace": 0, "result": {"attempted": 100, "failed": 1, "metrics": {"x": {"value": 1.5, "unit": "s"}}}},
            {"workload": "a", "trace": 1, "result": {"attempted": 100, "failed": 0, "metrics": {"x": {"value": 9, "unit": "s"}}}},
            {"workload": "a", "trace": 0, "result": {"attempted": 100, "failed": 0, "metrics": {"x": {"value": 2.5, "unit": "s"}}}},
            {"workload": "b", "trace": 0, "result": {"attempted": 100, "failed": 0, "metrics": {"x": {"value": 7, "unit": "s"}}}}]}"#,
        )
        .unwrap();
        let s = side(&doc, "a", "x");
        assert_eq!(s.values, [1.5, 2.5]);
        assert_eq!(s.failed_share, 0.005);
    }
}
