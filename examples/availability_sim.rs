//! Availability shoot-out (Figures 9/10 in miniature): measure the three
//! schemes' availability by discrete-event simulation of the real protocol
//! implementation and compare with the paper's Markov-model values.
//!
//! A second table is the was-available tracking ablation: §3.2's relaxation
//! updates `W` only on writes and repairs ("communication costs are
//! minimized at the expense of some small increase in recovery time"),
//! while the §4 model assumes exact last-to-fail knowledge (on-failure
//! tracking). Both policies run on the same DES, with naive available copy
//! as the floor, so the "small increase" is quantified.
//!
//! ```text
//! cargo run --release --example availability_sim
//! ```

use blockrep::core::simulate::availability::{estimate, AvailabilityConfig};
use blockrep::types::{FailureTracking, Scheme};

fn main() {
    println!("availability of 3 available/naive copies vs 6 voting copies");
    println!("(mu = 1, horizon = 50_000 mean repair times)\n");
    println!("| rho | scheme | n | analytic | simulated | error |");
    println!("|---|---|---|---|---|---|");
    for rho in [0.05, 0.10, 0.20] {
        for (scheme, n) in [
            (Scheme::AvailableCopy, 3),
            (Scheme::NaiveAvailableCopy, 3),
            (Scheme::Voting, 6),
        ] {
            let mut cfg = AvailabilityConfig::new(scheme, n, rho);
            cfg.horizon = 50_000.0;
            let est = estimate(&cfg);
            println!(
                "| {:.2} | {} | {} | {:.6} | {:.6} | {:.6} |",
                rho,
                scheme,
                n,
                est.analytic,
                est.availability,
                est.error()
            );
        }
    }
    println!("\nThe ordering the paper proves: A_A(3) >= A_NA(3) > A_V(6) at every rho,");
    println!("with AC and naive indistinguishable below rho = 0.10.");

    println!("\nwas-available tracking ablation: n = 3, rho = 0.5, write rate 2,");
    println!("horizon = 60_000 (stressed so the gap is visible)\n");
    println!("| policy | availability |");
    println!("|---|---|");
    let on_failure = AvailabilityConfig {
        horizon: 60_000.0,
        write_rate: 2.0,
        ..AvailabilityConfig::new(Scheme::AvailableCopy, 3, 0.5)
    };
    let on_write = AvailabilityConfig {
        tracking: FailureTracking::OnWrite,
        ..on_failure.clone()
    };
    let naive = AvailabilityConfig {
        scheme: Scheme::NaiveAvailableCopy,
        ..on_failure.clone()
    };
    for (policy, cfg) in [
        (
            "available copy, on-failure tracking (Figure 7 model)",
            on_failure,
        ),
        ("available copy, on-write tracking (§3.2)", on_write),
        ("naive available copy (floor)", naive),
    ] {
        println!("| {policy} | {:.5} |", estimate(&cfg).availability);
    }
}
