//! Device configuration: scheme selection, voting weights, quorums.

use crate::{DeviceError, DeviceResult, SiteId};
use core::fmt;

/// The consistency control scheme managing the replicated blocks (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Majority consensus voting with per-block versions and lazy,
    /// access-time block recovery (§3.1, Figures 3–4).
    Voting,
    /// Available copy with was-available sets and closure-based recovery
    /// (§3.2, Figure 5).
    AvailableCopy,
    /// Naive available copy: no failure bookkeeping; after a total failure
    /// recovery waits for all sites (§3.3, Figure 6).
    NaiveAvailableCopy,
}

impl Scheme {
    /// All three schemes, in the order the paper presents them.
    pub const ALL: [Scheme; 3] = [
        Scheme::Voting,
        Scheme::AvailableCopy,
        Scheme::NaiveAvailableCopy,
    ];

    /// Short label used in tables and benches.
    pub const fn label(self) -> &'static str {
        match self {
            Scheme::Voting => "voting",
            Scheme::AvailableCopy => "available-copy",
            Scheme::NaiveAvailableCopy => "naive-available-copy",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How an available copy configuration learns which sites hold the most
/// recent data.
///
/// The paper's availability model (Figure 7) assumes the *last site to fail*
/// is known exactly, which requires updating availability information when a
/// failure is detected. The protocol of §3.2 instead refreshes was-available
/// sets only on writes and repairs, trading "some small increase in recovery
/// time" for less traffic. Both variants are implemented; the difference is
/// measured by an ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailureTracking {
    /// Was-available sets are refreshed whenever a failure is detected, so
    /// after a total failure the block recovers as soon as the last site to
    /// fail recovers. Matches the Markov chain of Figure 7.
    #[default]
    OnFailure,
    /// Was-available sets are refreshed only by writes and repairs (the
    /// traffic-minimizing variant described in §3.2's relaxation).
    OnWrite,
}

/// A voting weight.
///
/// Weights are small integers; quorum tests compare integer sums, so draw
/// conditions are resolved exactly rather than with floating-point epsilons.
/// The paper breaks even-`n` ties by nudging one copy's weight "by a small
/// quantity"; [`Weight::tie_broken`] realizes that by doubling every weight
/// and adding one to the distinguished site's.
///
/// # Examples
///
/// ```
/// use blockrep_types::Weight;
///
/// let w = Weight::tie_broken(4);
/// assert_eq!(w, vec![Weight::new(3), Weight::new(2), Weight::new(2), Weight::new(2)]);
/// let total: u64 = w.iter().map(|w| w.value() as u64).sum();
/// assert_eq!(total, 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Weight(u32);

impl Weight {
    /// Creates a weight.
    pub const fn new(value: u32) -> Self {
        Weight(value)
    }

    /// The raw weight value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The weight widened to `u64`, the unit quorum arithmetic uses.
    pub const fn as_u64(self) -> u64 {
        self.0 as u64
    }

    /// The paper's equal-weight assignment with the even-`n` tie break:
    /// every site gets weight 2 and site 0 gets weight 3 when `n` is even.
    /// For odd `n` ties are impossible, so every site gets weight 2.
    pub fn tie_broken(n: usize) -> Vec<Weight> {
        (0..n)
            .map(|i| {
                if n % 2 == 0 && i == 0 {
                    Weight(3)
                } else {
                    Weight(2)
                }
            })
            .collect()
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Static configuration of one reliable device.
///
/// Construct with [`DeviceConfig::builder`]; validation happens at
/// [`DeviceConfigBuilder::build`].
///
/// # Examples
///
/// ```
/// use blockrep_types::{DeviceConfig, Scheme};
///
/// let cfg = DeviceConfig::builder(Scheme::Voting)
///     .sites(5)
///     .num_blocks(128)
///     .block_size(512)
///     .build()?;
/// assert_eq!(cfg.total_weight(), 10);
/// assert_eq!(cfg.read_quorum(), 6); // strict majority of 10
/// # Ok::<(), blockrep_types::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    scheme: Scheme,
    weights: Vec<Weight>,
    num_blocks: u64,
    block_size: usize,
    read_quorum: u64,
    write_quorum: u64,
    failure_tracking: FailureTracking,
    journaled: bool,
}

impl DeviceConfig {
    /// Starts building a configuration for the given scheme with defaults:
    /// 3 sites, 64 blocks of 512 bytes, majority quorums, no journal.
    pub fn builder(scheme: Scheme) -> DeviceConfigBuilder {
        DeviceConfigBuilder {
            scheme,
            sites: 3,
            weights: None,
            num_blocks: 64,
            block_size: 512,
            read_quorum: None,
            write_quorum: None,
            failure_tracking: FailureTracking::default(),
            journaled: false,
        }
    }

    /// The consistency scheme in force.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of sites holding copies.
    pub fn num_sites(&self) -> usize {
        self.weights.len()
    }

    /// The voting weight of a site.
    ///
    /// # Panics
    ///
    /// Panics if the site does not belong to this device.
    pub fn weight(&self, site: SiteId) -> Weight {
        self.weights[site.index()]
    }

    /// All per-site weights, indexed by site.
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|w| w.value() as u64).sum()
    }

    /// Number of blocks on the device.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Size of each block in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Minimum total weight a read quorum must gather.
    pub fn read_quorum(&self) -> u64 {
        self.read_quorum
    }

    /// Minimum total weight a write quorum must gather.
    pub fn write_quorum(&self) -> u64 {
        self.write_quorum
    }

    /// Failure-information policy for available copy (ignored by the other
    /// schemes).
    pub fn failure_tracking(&self) -> FailureTracking {
        self.failure_tracking
    }

    /// Whether each site keeps a write-ahead journal of its installs, so a
    /// restart replays committed records instead of scrubbing broken blocks
    /// back to the freshly-formatted state.
    pub fn journaled(&self) -> bool {
        self.journaled
    }

    /// Flips the per-site journal on an already-built configuration —
    /// useful for replaying a generated chaos script with durability
    /// turned on without disturbing the generator's random stream.
    pub fn set_journaled(&mut self, on: bool) {
        self.journaled = on;
    }

    /// Iterates over this device's site identifiers.
    pub fn site_ids(&self) -> impl DoubleEndedIterator<Item = SiteId> + ExactSizeIterator {
        SiteId::all(self.weights.len())
    }

    /// Whether `site` belongs to this device.
    pub fn contains_site(&self, site: SiteId) -> bool {
        site.index() < self.weights.len()
    }
}

/// Incremental builder for [`DeviceConfig`]; see [`DeviceConfig::builder`].
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    scheme: Scheme,
    sites: usize,
    weights: Option<Vec<Weight>>,
    num_blocks: u64,
    block_size: usize,
    read_quorum: Option<u64>,
    write_quorum: Option<u64>,
    failure_tracking: FailureTracking,
    journaled: bool,
}

impl DeviceConfigBuilder {
    /// Sets the number of sites (equal weights with the paper's tie break).
    pub fn sites(&mut self, n: usize) -> &mut Self {
        self.sites = n;
        self
    }

    /// Sets explicit per-site weights (overrides [`sites`](Self::sites)).
    pub fn weights(&mut self, weights: Vec<Weight>) -> &mut Self {
        self.sites = weights.len();
        self.weights = Some(weights);
        self
    }

    /// Sets the number of blocks on the device.
    pub fn num_blocks(&mut self, n: u64) -> &mut Self {
        self.num_blocks = n;
        self
    }

    /// Sets the block size in bytes.
    pub fn block_size(&mut self, bytes: usize) -> &mut Self {
        self.block_size = bytes;
        self
    }

    /// Sets an explicit read quorum (defaults to a strict majority).
    pub fn read_quorum(&mut self, weight: u64) -> &mut Self {
        self.read_quorum = Some(weight);
        self
    }

    /// Sets an explicit write quorum (defaults to a strict majority).
    pub fn write_quorum(&mut self, weight: u64) -> &mut Self {
        self.write_quorum = Some(weight);
        self
    }

    /// Selects the failure-information policy for available copy.
    pub fn failure_tracking(&mut self, policy: FailureTracking) -> &mut Self {
        self.failure_tracking = policy;
        self
    }

    /// Enables the per-site write-ahead journal (defaults to off).
    pub fn journaled(&mut self, on: bool) -> &mut Self {
        self.journaled = on;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] if there are no sites or
    /// blocks, the block size is zero, any weight is zero, or the quorums
    /// violate the intersection requirements (`r + w > total` and
    /// `2w > total`).
    pub fn build(&self) -> DeviceResult<DeviceConfig> {
        if self.sites == 0 {
            return Err(DeviceError::InvalidConfig(
                "at least one site required".into(),
            ));
        }
        if self.num_blocks == 0 {
            return Err(DeviceError::InvalidConfig(
                "at least one block required".into(),
            ));
        }
        if self.block_size == 0 {
            return Err(DeviceError::InvalidConfig(
                "block size must be nonzero".into(),
            ));
        }
        let weights = self
            .weights
            .clone()
            .unwrap_or_else(|| Weight::tie_broken(self.sites));
        if weights.iter().any(|w| w.value() == 0) {
            return Err(DeviceError::InvalidConfig("weights must be nonzero".into()));
        }
        let total: u64 = weights.iter().map(|w| w.value() as u64).sum();
        let majority = total / 2 + 1;
        let read_quorum = self.read_quorum.unwrap_or(majority);
        let write_quorum = self.write_quorum.unwrap_or(majority);
        if self.scheme == Scheme::Voting {
            if read_quorum + write_quorum <= total {
                return Err(DeviceError::InvalidConfig(format!(
                    "read quorum {read_quorum} + write quorum {write_quorum} must exceed total weight {total}"
                )));
            }
            if 2 * write_quorum <= total {
                return Err(DeviceError::InvalidConfig(format!(
                    "write quorum {write_quorum} must exceed half the total weight {total}"
                )));
            }
            if read_quorum > total || write_quorum > total {
                return Err(DeviceError::InvalidConfig(
                    "quorums cannot exceed the total weight".into(),
                ));
            }
        }
        Ok(DeviceConfig {
            scheme: self.scheme,
            weights,
            num_blocks: self.num_blocks,
            block_size: self.block_size,
            read_quorum,
            write_quorum,
            failure_tracking: self.failure_tracking,
            journaled: self.journaled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_is_valid() {
        let cfg = DeviceConfig::builder(Scheme::Voting).build().unwrap();
        assert_eq!(cfg.num_sites(), 3);
        assert_eq!(cfg.total_weight(), 6);
        assert_eq!(cfg.read_quorum(), 4);
        assert_eq!(cfg.write_quorum(), 4);
    }

    #[test]
    fn tie_break_applies_only_for_even_n() {
        assert_eq!(Weight::tie_broken(3), vec![Weight::new(2); 3]);
        let even = Weight::tie_broken(4);
        assert_eq!(even[0], Weight::new(3));
        assert!(even[1..].iter().all(|w| *w == Weight::new(2)));
    }

    #[test]
    fn even_n_majority_requires_distinguished_site_on_ties() {
        // 4 sites, weights 3,2,2,2, total 9, majority 5. Any half containing
        // site 0 reaches 3+2=5; the other half reaches only 4.
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .build()
            .unwrap();
        assert_eq!(cfg.total_weight(), 9);
        assert_eq!(cfg.write_quorum(), 5);
        let with_s0 =
            cfg.weight(SiteId::new(0)).value() as u64 + cfg.weight(SiteId::new(1)).value() as u64;
        let without_s0 =
            cfg.weight(SiteId::new(2)).value() as u64 + cfg.weight(SiteId::new(3)).value() as u64;
        assert!(with_s0 >= cfg.write_quorum());
        assert!(without_s0 < cfg.write_quorum());
    }

    #[test]
    fn zero_sites_rejected() {
        let err = DeviceConfig::builder(Scheme::Voting)
            .sites(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least one site"));
    }

    #[test]
    fn bad_quorums_rejected_for_voting_only() {
        // read 1 + write 1 on total 6 violates intersection for voting...
        let err = DeviceConfig::builder(Scheme::Voting)
            .read_quorum(1)
            .write_quorum(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidConfig(_)));
        // ...but available copy ignores quorums entirely.
        assert!(DeviceConfig::builder(Scheme::AvailableCopy)
            .read_quorum(1)
            .write_quorum(1)
            .build()
            .is_ok());
    }

    #[test]
    fn explicit_weights_override_site_count() {
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(10)
            .weights(vec![Weight::new(1), Weight::new(1), Weight::new(1)])
            .build()
            .unwrap();
        assert_eq!(cfg.num_sites(), 3);
        assert_eq!(cfg.total_weight(), 3);
        assert_eq!(cfg.read_quorum(), 2);
    }

    #[test]
    fn gifford_style_asymmetric_quorums_accepted() {
        // total 7; r=2, w=6 satisfies r+w>7 and 2w>7: read-optimized.
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .weights(vec![Weight::new(3), Weight::new(2), Weight::new(2)])
            .read_quorum(2)
            .write_quorum(6)
            .build()
            .unwrap();
        assert_eq!(cfg.read_quorum(), 2);
        assert_eq!(cfg.write_quorum(), 6);
    }

    #[test]
    fn scheme_labels_are_stable() {
        assert_eq!(Scheme::Voting.to_string(), "voting");
        assert_eq!(Scheme::AvailableCopy.to_string(), "available-copy");
        assert_eq!(
            Scheme::NaiveAvailableCopy.to_string(),
            "naive-available-copy"
        );
        assert_eq!(Scheme::ALL.len(), 3);
    }

    #[test]
    fn journaled_defaults_off_and_can_be_flipped() {
        let mut cfg = DeviceConfig::builder(Scheme::Voting).build().unwrap();
        assert!(!cfg.journaled());
        cfg.set_journaled(true);
        assert!(cfg.journaled());
        let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
            .journaled(true)
            .build()
            .unwrap();
        assert!(cfg.journaled());
    }

    #[test]
    fn zero_block_size_rejected() {
        assert!(DeviceConfig::builder(Scheme::Voting)
            .block_size(0)
            .build()
            .is_err());
        assert!(DeviceConfig::builder(Scheme::Voting)
            .num_blocks(0)
            .build()
            .is_err());
    }
}
