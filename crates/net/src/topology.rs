//! Site reachability.

use blockrep_types::SiteId;

/// Which sites can exchange messages with which.
///
/// The available copy schemes are only correct "when network partitions are
/// known to be impossible" (§3.2); voting tolerates them. The topology
/// models partitions as a group label per site: two sites communicate iff
/// they carry the same label. A fully connected network is the single group
/// 0.
///
/// A site can always "reach" itself, partitioned or not.
///
/// # Examples
///
/// ```
/// use blockrep_net::Topology;
/// use blockrep_types::SiteId;
///
/// let mut topo = Topology::fully_connected(4);
/// assert!(topo.reachable(SiteId::new(0), SiteId::new(3)));
///
/// // Split {0,1} from {2,3}.
/// topo.partition(&[vec![SiteId::new(0), SiteId::new(1)], vec![SiteId::new(2), SiteId::new(3)]]);
/// assert!(topo.reachable(SiteId::new(0), SiteId::new(1)));
/// assert!(!topo.reachable(SiteId::new(1), SiteId::new(2)));
///
/// topo.heal();
/// assert!(topo.reachable(SiteId::new(1), SiteId::new(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    group: Vec<u32>,
}

impl Topology {
    /// A partition-free network of `n` sites — the paper's standing
    /// assumption for available copy.
    pub fn fully_connected(n: usize) -> Self {
        Topology { group: vec![0; n] }
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.group.len()
    }

    /// Whether `from` can send a message to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either site is out of range.
    pub fn reachable(&self, from: SiteId, to: SiteId) -> bool {
        from == to || self.group[from.index()] == self.group[to.index()]
    }

    /// Splits the network into the given groups. Sites not listed in any
    /// group each end up isolated in their own singleton partition.
    ///
    /// # Panics
    ///
    /// Panics if a site appears in more than one group or is out of range.
    pub fn partition(&mut self, groups: &[Vec<SiteId>]) {
        let n = self.group.len();
        // Unlisted sites get unique labels after the explicit groups.
        let mut assigned = vec![false; n];
        for (g, members) in groups.iter().enumerate() {
            for &s in members {
                assert!(s.index() < n, "site {s} out of range");
                assert!(!assigned[s.index()], "site {s} listed in two partitions");
                assigned[s.index()] = true;
                self.group[s.index()] = g as u32;
            }
        }
        let mut next = groups.len() as u32;
        for (i, done) in assigned.iter().enumerate() {
            if !done {
                self.group[i] = next;
                next += 1;
            }
        }
    }

    /// Removes all partitions.
    pub fn heal(&mut self) {
        self.group.iter_mut().for_each(|g| *g = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_reaches_everyone() {
        let t = Topology::fully_connected(5);
        for a in SiteId::all(5) {
            for b in SiteId::all(5) {
                assert!(t.reachable(a, b));
            }
        }
    }

    #[test]
    fn partitions_cut_cross_group_links() {
        let mut t = Topology::fully_connected(5);
        t.partition(&[vec![SiteId::new(0), SiteId::new(2)], vec![SiteId::new(1)]]);
        assert!(t.reachable(SiteId::new(0), SiteId::new(2)));
        assert!(!t.reachable(SiteId::new(0), SiteId::new(1)));
        // Unlisted sites 3 and 4 are isolated — even from each other.
        assert!(!t.reachable(SiteId::new(3), SiteId::new(4)));
    }

    #[test]
    fn self_reachability_survives_partitions() {
        let mut t = Topology::fully_connected(3);
        t.partition(&[
            vec![SiteId::new(0)],
            vec![SiteId::new(1)],
            vec![SiteId::new(2)],
        ]);
        for s in SiteId::all(3) {
            assert!(t.reachable(s, s));
        }
    }

    #[test]
    fn heal_restores_full_connectivity() {
        let mut t = Topology::fully_connected(3);
        t.partition(&[vec![SiteId::new(0)], vec![SiteId::new(1), SiteId::new(2)]]);
        t.heal();
        assert!(t.reachable(SiteId::new(0), SiteId::new(2)));
    }

    #[test]
    #[should_panic(expected = "two partitions")]
    fn duplicate_membership_panics() {
        let mut t = Topology::fully_connected(2);
        t.partition(&[vec![SiteId::new(0)], vec![SiteId::new(0)]]);
    }
}
