//! Shared experiment drivers for the figure-regeneration binaries and the
//! Criterion benches.
//!
//! Every evaluation figure of the paper has a regenerator here that
//! produces both the **analytic** series (from `blockrep-analysis`) and the
//! **measured** series (from the protocol implementation driven by the DES
//! harnesses in `blockrep-core`), aligned so the binaries can print them
//! side by side and `EXPERIMENTS.md` can record paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fsload;
pub mod report;
pub mod trace_bench;

use blockrep_analysis::sweep::Series;
use blockrep_core::simulate::availability::{estimate, AvailabilityConfig};
use blockrep_core::simulate::traffic::{measure, TrafficConfig};
use blockrep_net::DeliveryMode;
use blockrep_types::Scheme;

/// The coarser ρ grid the DES cross-check runs on (each point is a full
/// simulation; the analytic curves use the paper's fine grid).
pub fn sim_rho_grid() -> Vec<f64> {
    vec![0.02, 0.05, 0.10, 0.15, 0.20]
}

/// Availability rows for a Figure 9/10-style comparison: for each ρ, the
/// analytic and simulated availability of `n_ac` available/naive copies and
/// `n_voting` voting copies.
#[derive(Debug, Clone, Copy)]
pub struct AvailabilityRow {
    /// Failure-to-repair ratio.
    pub rho: f64,
    /// Analytic `A_A(n_ac)`.
    pub ac_analytic: f64,
    /// Simulated availability, available copy.
    pub ac_sim: f64,
    /// Analytic `A_NA(n_ac)`.
    pub naive_analytic: f64,
    /// Simulated availability, naive available copy.
    pub naive_sim: f64,
    /// Analytic `A_V(n_voting)`.
    pub voting_analytic: f64,
    /// Simulated availability, voting.
    pub voting_sim: f64,
}

/// Runs the Figure 9/10 experiment: analytic curves plus a DES cross-check
/// of all three schemes at each grid point.
pub fn availability_rows(n_ac: usize, n_voting: usize, horizon: f64) -> Vec<AvailabilityRow> {
    sim_rho_grid()
        .into_iter()
        .map(|rho| {
            let sim = |scheme: Scheme, n: usize| {
                let mut cfg = AvailabilityConfig::new(scheme, n, rho);
                cfg.horizon = horizon;
                estimate(&cfg)
            };
            let ac = sim(Scheme::AvailableCopy, n_ac);
            let na = sim(Scheme::NaiveAvailableCopy, n_ac);
            let v = sim(Scheme::Voting, n_voting);
            AvailabilityRow {
                rho,
                ac_analytic: ac.analytic,
                ac_sim: ac.availability,
                naive_analytic: na.analytic,
                naive_sim: na.availability,
                voting_analytic: v.analytic,
                voting_sim: v.availability,
            }
        })
        .collect()
}

/// Traffic rows for a Figure 11/12-style comparison at one site count:
/// measured and analytic cost of (1 write + x reads) per scheme.
#[derive(Debug, Clone)]
pub struct TrafficRow {
    /// Number of sites.
    pub n: usize,
    /// `(x, analytic, measured)` for voting at each read:write ratio.
    pub voting: Vec<(f64, f64, f64)>,
    /// `(analytic, measured)` for available copy (read-ratio independent).
    pub available_copy: (f64, f64),
    /// `(analytic, measured)` for naive available copy.
    pub naive: (f64, f64),
}

/// Runs the Figure 11/12 experiment for the given delivery mode.
pub fn traffic_rows(mode: DeliveryMode, ns: &[usize], ops: u64) -> Vec<TrafficRow> {
    ns.iter()
        .map(|&n| {
            let run = |scheme: Scheme, x: f64| {
                let mut cfg = TrafficConfig::new(scheme, n, mode);
                cfg.ops = ops;
                cfg.reads_per_write = x;
                let est = measure(&cfg);
                (est.model.per_write_group(x), est.per_write_group(x))
            };
            let voting = blockrep_analysis::figures::READ_WRITE_RATIOS
                .iter()
                .map(|&x| {
                    let (analytic, measured) = run(Scheme::Voting, x);
                    (x, analytic, measured)
                })
                .collect();
            let ac = run(Scheme::AvailableCopy, 1.0);
            let na = run(Scheme::NaiveAvailableCopy, 1.0);
            TrafficRow {
                n,
                voting,
                available_copy: ac,
                naive: na,
            }
        })
        .collect()
}

/// Prints a set of aligned series as a markdown table.
pub fn print_series(title: &str, x_name: &str, series: &[Series], precision: usize) {
    println!("## {title}\n");
    print!(
        "{}",
        blockrep_analysis::sweep::markdown_table(x_name, series, precision)
    );
    println!();
}

/// Prints availability rows as a markdown table.
pub fn print_availability(title: &str, rows: &[AvailabilityRow]) {
    println!("## {title}\n");
    println!(
        "| rho | AC analytic | AC sim | NAC analytic | NAC sim | Voting analytic | Voting sim |"
    );
    println!("|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {:.2} | {:.6} | {:.6} | {:.6} | {:.6} | {:.6} | {:.6} |",
            r.rho,
            r.ac_analytic,
            r.ac_sim,
            r.naive_analytic,
            r.naive_sim,
            r.voting_analytic,
            r.voting_sim
        );
    }
    println!();
}

/// Prints traffic rows as a markdown table (analytic / measured pairs).
pub fn print_traffic(title: &str, rows: &[TrafficRow]) {
    println!("## {title}\n");
    println!("| n | voting x=1 (model/meas) | voting x=2 | voting x=4 | available-copy | naive |");
    println!("|---|---|---|---|---|---|");
    for r in rows {
        print!("| {} |", r.n);
        for &(_, analytic, measured) in &r.voting {
            print!(" {analytic:.2} / {measured:.2} |");
        }
        println!(
            " {:.2} / {:.2} | {:.2} / {:.2} |",
            r.available_copy.0, r.available_copy.1, r.naive.0, r.naive.1
        );
    }
    println!();
}
