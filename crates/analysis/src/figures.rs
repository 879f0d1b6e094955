//! The data behind the paper's evaluation figures 9–12.
//!
//! Each function returns the figure's curves as [`Series`]; `blockrep fig
//! <n>` (`crates/cli/src/report.rs`) renders them and compares against
//! simulation.

use crate::sweep::{grid, Series};
use crate::traffic::{costs, NetModel};
use crate::{available_copy, naive, voting};
use blockrep_types::Scheme;

/// The ρ grid the paper plots: 0 to 0.20, "the first value corresponding to
/// perfectly reliable copies and the latter to copies that are repaired five
/// times faster than they fail".
pub fn rho_grid_availability() -> Vec<f64> {
    grid(0.0, 0.20, 20)
}

/// Availability curves comparing `n_ac` available/naive copies with
/// `n_voting` voting copies over a ρ grid — the template behind Figures 9
/// and 10.
pub fn availability_comparison(n_ac: usize, n_voting: usize, rhos: &[f64]) -> Vec<Series> {
    let ac = Series::from_fn(format!("available-copy n={n_ac}"), rhos, |rho| {
        available_copy::availability(n_ac, rho)
    });
    let na = Series::from_fn(format!("naive-available-copy n={n_ac}"), rhos, |rho| {
        naive::availability(n_ac, rho)
    });
    let v = Series::from_fn(format!("voting n={n_voting}"), rhos, |rho| {
        voting::availability(n_voting, rho)
    });
    vec![ac, na, v]
}

/// Figure 9: three available copies (and three naive copies) vs. six voting
/// copies, ρ ∈ [0, 0.20].
pub fn fig9() -> Vec<Series> {
    availability_comparison(3, 6, &rho_grid_availability())
}

/// Figure 10: four available copies vs. eight voting copies, ρ ∈ [0, 0.20].
pub fn fig10() -> Vec<Series> {
    availability_comparison(4, 8, &rho_grid_availability())
}

/// The read:write ratios the paper plots in Figures 11/12 (x reads per
/// write, "reflecting read to write ratios of 1:1, 2:1, 4:1").
pub const READ_WRITE_RATIOS: [f64; 3] = [1.0, 2.0, 4.0];

/// The "typical value of ρ" used by Figures 11 and 12.
pub const RHO_TYPICAL: f64 = 0.05;

/// Traffic curves over the number of sites `n` for one network model:
/// voting at each read:write ratio, plus available copy and naive available
/// copy (whose costs are read-ratio independent since reads are free).
/// Recovery traffic is discounted, as the paper argues.
pub fn traffic_comparison(net: NetModel, ns: &[usize], rho: f64) -> Vec<Series> {
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let mut series = Vec::new();
    for &x in &READ_WRITE_RATIOS {
        series.push(Series {
            label: format!("voting x={x:.0}"),
            points: ns
                .iter()
                .map(|&n| {
                    (
                        n as f64,
                        costs(Scheme::Voting, net, n, rho).per_write_group(x),
                    )
                })
                .collect(),
        });
    }
    series.push(Series::from_fn("available-copy", &xs, |nf| {
        costs(Scheme::AvailableCopy, net, nf as usize, rho).per_write_group(1.0)
    }));
    series.push(Series::from_fn("naive-available-copy", &xs, |nf| {
        costs(Scheme::NaiveAvailableCopy, net, nf as usize, rho).per_write_group(1.0)
    }));
    series
}

/// The site counts Figures 11 and 12 sweep over.
pub fn n_grid_traffic() -> Vec<usize> {
    (2..=12).collect()
}

/// Figure 11: multicast traffic per (1 write + x reads), ρ = 0.05.
pub fn fig11() -> Vec<Series> {
    traffic_comparison(NetModel::Multicast, &n_grid_traffic(), RHO_TYPICAL)
}

/// Figure 12: unique-addressing traffic per (1 write + x reads), ρ = 0.05.
pub fn fig12() -> Vec<Series> {
    traffic_comparison(NetModel::Unicast, &n_grid_traffic(), RHO_TYPICAL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_availability_ordering_holds_pointwise() {
        // "Both the traditional and the naive available copy algorithms
        // produce much higher availabilities than voting."
        for curves in [fig9(), fig10()] {
            let (ac, na, v) = (&curves[0], &curves[1], &curves[2]);
            for i in 1..ac.points.len() {
                // skip ρ=0 where everything is 1
                assert!(ac.points[i].1 > v.points[i].1);
                assert!(na.points[i].1 > v.points[i].1);
                assert!(ac.points[i].1 >= na.points[i].1);
            }
        }
    }

    #[test]
    fn fig9_ac_and_naive_indistinguishable_below_rho_010() {
        for curves in [fig9(), fig10()] {
            let (ac, na) = (&curves[0], &curves[1]);
            for i in 0..ac.points.len() {
                let (rho, a) = ac.points[i];
                if rho < 0.10 {
                    assert!(
                        (a - na.points[i].1).abs() < 5e-3,
                        "rho={rho}: gap {}",
                        (a - na.points[i].1).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn fig11_naive_cheapest_voting_dearest_everywhere() {
        for curves in [fig11(), fig12()] {
            let n_pts = curves[0].points.len();
            for i in 0..n_pts {
                let voting_x1 = curves[0].points[i].1;
                let ac = curves[3].points[i].1;
                let na = curves[4].points[i].1;
                assert!(na < ac, "point {i}");
                assert!(ac < voting_x1, "point {i}");
            }
        }
    }

    #[test]
    fn fig11_voting_cost_grows_with_read_ratio() {
        let curves = fig11();
        for i in 0..curves[0].points.len() {
            assert!(curves[0].points[i].1 < curves[1].points[i].1);
            assert!(curves[1].points[i].1 < curves[2].points[i].1);
        }
    }

    #[test]
    fn fig12_amplifies_fig11_differences() {
        // "the differences are amplified in a single destination network":
        // the gap between voting (x=1) and naive grows under unicast for
        // every n >= 3 (at n = 2 a unicast "broadcast" is a single message,
        // so there is nothing to amplify yet).
        let m = fig11();
        let u = fig12();
        for i in 0..m[0].points.len() {
            if m[0].points[i].0 < 3.0 {
                continue;
            }
            let gap_m = m[0].points[i].1 - m[4].points[i].1;
            let gap_u = u[0].points[i].1 - u[4].points[i].1;
            assert!(
                gap_u > gap_m,
                "point {i}: multicast gap {gap_m}, unicast gap {gap_u}"
            );
        }
    }

    #[test]
    fn naive_multicast_write_cost_is_flat_one() {
        let curves = fig11();
        let na = &curves[4];
        for &(_, y) in &na.points {
            assert_eq!(y, 1.0);
        }
    }

    #[test]
    fn grids_are_paper_shaped() {
        let rhos = rho_grid_availability();
        assert_eq!(rhos[0], 0.0);
        assert_eq!(*rhos.last().unwrap(), 0.20);
        assert_eq!(n_grid_traffic().first(), Some(&2));
        assert_eq!(n_grid_traffic().last(), Some(&12));
    }
}
