//! Protocol invariant auditing.
//!
//! [`check_invariants`] inspects a whole cluster and verifies the structural
//! invariants each scheme maintains — the properties the §4 analysis quietly
//! assumes. The property tests call it after *every* scripted action, so a
//! protocol bug surfaces at the exact step that introduced it rather than at
//! the read that later observes it.

use crate::transport::{ServerCluster, Transport};
use blockrep_types::{BlockIndex, FailureTracking, Scheme, SiteId, SiteState, VersionVector};
use core::fmt;

/// A violated protocol invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub rule: &'static str,
    /// Human-readable specifics (sites, blocks, versions involved).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.detail)
    }
}

fn version_vectors<T: Transport>(b: &ServerCluster<T>) -> Vec<(SiteId, SiteState, VersionVector)> {
    b.config()
        .site_ids()
        .map(|s| {
            let state = b.site_state(s);
            let vv = b
                .version_vector(s, s)
                .expect("a site can always read its own version vector");
            (s, state, vv)
        })
        .collect()
}

/// Audits every protocol invariant appropriate to the cluster's scheme.
/// Returns all violations found (empty = healthy).
#[allow(private_bounds)]
pub fn check_invariants<T: Transport>(b: &ServerCluster<T>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let sites = version_vectors(b);
    let scheme = b.config().scheme();

    // Shared invariant: data is a function of (block, version) — two sites
    // holding the same version of a block must hold the same bytes.
    for k in BlockIndex::all(b.config().num_blocks()) {
        for (i, (s_a, _, vv_a)) in sites.iter().enumerate() {
            for (s_b, _, vv_b) in &sites[i + 1..] {
                if vv_a.get(k) != vv_b.get(k) {
                    continue;
                }
                let detail = match (b.fetch_block(*s_a, *s_a, k), b.fetch_block(*s_b, *s_b, k)) {
                    (Some(a), Some(b)) if a.1 == b.1 => continue,
                    (Some(_), Some(_)) => format!(
                        "{s_a} and {s_b} both hold {} of {k} with different bytes",
                        vv_a.get(k)
                    ),
                    _ => format!("{k} could not be compared: a site did not answer itself"),
                };
                violations.push(Violation {
                    rule: "version-determines-data",
                    detail,
                });
            }
        }
    }

    match scheme {
        Scheme::Voting => audit_voting(b, &sites, &mut violations),
        Scheme::AvailableCopy => audit_available_copy(b, &sites, &mut violations),
        Scheme::NaiveAvailableCopy => audit_naive(&sites, &mut violations),
    }
    violations
}

fn audit_voting<T: Transport>(
    b: &ServerCluster<T>,
    sites: &[(SiteId, SiteState, VersionVector)],
    violations: &mut Vec<Violation>,
) {
    // Voting never uses the comatose state.
    for (s, state, _) in sites {
        if *state == SiteState::Comatose {
            violations.push(Violation {
                rule: "voting-has-no-comatose-state",
                detail: format!("{s} is comatose"),
            });
        }
    }
    // Every write quorum intersection: for each block, the sites holding
    // the maximum version must jointly hold at least a write quorum of
    // weight *among all sites* — otherwise a past write committed without
    // quorum.
    let cfg = b.config();
    for k in BlockIndex::all(cfg.num_blocks()) {
        let v_max = sites
            .iter()
            .map(|(_, _, vv)| vv.get(k))
            .max()
            .expect("nonempty");
        if v_max.as_u64() == 0 {
            continue; // never written
        }
        let holders: Vec<SiteId> = sites
            .iter()
            .filter(|(_, _, vv)| vv.get(k) == v_max)
            .map(|(s, _, _)| *s)
            .collect();
        let weight = crate::backend::weight_of(cfg, &holders);
        if weight < cfg.write_quorum() {
            violations.push(Violation {
                rule: "current-version-holds-write-quorum",
                detail: format!(
                    "{k}: version {v_max} held by {holders:?} with weight {weight} < quorum {}",
                    cfg.write_quorum()
                ),
            });
        }
    }
}

fn audit_available_copy<T: Transport>(
    b: &ServerCluster<T>,
    sites: &[(SiteId, SiteState, VersionVector)],
    violations: &mut Vec<Violation>,
) {
    audit_available_family(sites, violations);
    // The safety property behind Figure 5's recovery: for every available
    // site s, the closure C*(W_s) — computed over the sites' current
    // was-available sets — must cover every available site, because any of
    // them could turn out to be the last to fail. (Definition 3.1 allows an
    // individual W to lag after a repair; the closure absorbs the slack.)
    if b.config().failure_tracking() == FailureTracking::OnFailure {
        let available: std::collections::BTreeSet<SiteId> = sites
            .iter()
            .filter(|(_, st, _)| *st == SiteState::Available)
            .map(|(s, _, _)| *s)
            .collect();
        for &s in &available {
            let mut closure = b.was_available(s, s).expect("own W is local");
            closure.insert(s);
            loop {
                let mut grown = closure.clone();
                for &u in &closure {
                    grown.extend(b.was_available(u, u).expect("own W is local"));
                }
                if grown == closure {
                    break;
                }
                closure = grown;
            }
            if !available.is_subset(&closure) {
                violations.push(Violation {
                    rule: "closure-covers-available-set",
                    detail: format!("C*(W_{s}) = {closure:?} misses part of {available:?}"),
                });
            }
        }
    }
}

fn audit_naive(sites: &[(SiteId, SiteState, VersionVector)], violations: &mut Vec<Violation>) {
    audit_available_family(sites, violations);
}

/// Invariants shared by both available copy schemes.
fn audit_available_family(
    sites: &[(SiteId, SiteState, VersionVector)],
    violations: &mut Vec<Violation>,
) {
    // 1. All available sites hold identical version vectors (every write
    //    reached every available copy).
    let available: Vec<&(SiteId, SiteState, VersionVector)> = sites
        .iter()
        .filter(|(_, st, _)| *st == SiteState::Available)
        .collect();
    if let Some((first, _, first_vv)) = available.first().map(|t| (&t.0, &t.1, &t.2)) {
        for (s, _, vv) in &available[1..] {
            if vv != first_vv {
                violations.push(Violation {
                    rule: "available-copies-identical",
                    detail: format!("{s} has {vv}, {first} has {first_vv}"),
                });
            }
        }
        // 2. Every non-available site is dominated by the available line —
        //    stale copies are past states, never divergent ones.
        for (s, st, vv) in sites {
            if *st != SiteState::Available && !first_vv.dominates(vv) {
                violations.push(Violation {
                    rule: "stale-copies-are-past-states",
                    detail: format!("{st} {s} has {vv}, not dominated by available {first_vv}"),
                });
            }
        }
    }
    // 3. All version vectors form a dominance chain (pairwise comparable).
    for (i, (s_a, _, vv_a)) in sites.iter().enumerate() {
        for (s_b, _, vv_b) in &sites[i + 1..] {
            if !vv_a.dominates(vv_b) && !vv_b.dominates(vv_a) {
                violations.push(Violation {
                    rule: "version-vectors-form-a-chain",
                    detail: format!("{s_a} ({vv_a}) and {s_b} ({vv_b}) are incomparable"),
                });
            }
        }
    }
}

/// Convenience: audits and panics with a readable report on any violation.
///
/// # Panics
///
/// Panics if [`check_invariants`] reports anything.
#[allow(private_bounds)]
pub fn assert_invariants<T: Transport>(b: &ServerCluster<T>) {
    let violations = check_invariants(b);
    assert!(
        violations.is_empty(),
        "protocol invariants violated:\n{}",
        violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterOptions};
    use blockrep_types::{BlockData, DeviceConfig};

    fn cluster(scheme: Scheme) -> Cluster {
        let cfg = DeviceConfig::builder(scheme)
            .sites(3)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap();
        Cluster::new(cfg, ClusterOptions::default())
    }

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    #[test]
    fn fresh_clusters_are_clean() {
        for scheme in Scheme::ALL {
            assert_invariants(&cluster(scheme));
        }
    }

    #[test]
    fn clusters_stay_clean_through_failures_and_repairs() {
        for scheme in Scheme::ALL {
            let c = cluster(scheme);
            let k = BlockIndex::new(0);
            c.write(s(0), k, BlockData::from(vec![1; 8])).unwrap();
            assert_invariants(&c);
            c.fail_site(s(1));
            assert_invariants(&c);
            c.write(s(0), k, BlockData::from(vec![2; 8])).unwrap();
            assert_invariants(&c);
            c.repair_site(s(1));
            assert_invariants(&c);
        }
    }

    #[test]
    fn clean_through_total_failure() {
        for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
            let c = cluster(scheme);
            c.write(s(0), BlockIndex::new(1), BlockData::from(vec![3; 8]))
                .unwrap();
            for i in [2, 1, 0] {
                c.fail_site(s(i));
                assert_invariants(&c);
            }
            for i in [1, 2, 0] {
                c.repair_site(s(i));
                assert_invariants(&c);
            }
        }
    }

    #[test]
    fn detector_actually_detects() {
        // Sanity-check the auditor by constructing a sick cluster: two
        // voting sites with a "committed" version held by a minority.
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(3)
            .num_blocks(1)
            .block_size(8)
            .build()
            .unwrap();
        let c = Cluster::new(cfg, ClusterOptions::default());
        // Bypass the protocol: install a version on one site only.
        let v = blockrep_types::VersionNumber::new(5);
        let block: crate::backend::WriteBatch =
            [(BlockIndex::new(0), v, BlockData::from(vec![9; 8]))]
                .into_iter()
                .collect();
        c.apply_write_many(s(0), s(0), &block);
        let violations = check_invariants(&c);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "current-version-holds-write-quorum"),
            "expected a quorum violation, got {violations:?}"
        );
    }

    #[test]
    fn violation_displays_readably() {
        let v = Violation {
            rule: "example-rule",
            detail: "something specific".into(),
        };
        assert_eq!(v.to_string(), "example-rule: something specific");
    }
}
