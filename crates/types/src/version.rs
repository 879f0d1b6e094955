//! Per-block version numbers and version vectors.
//!
//! Every consistency scheme in the paper tags each block copy with a
//! monotonically increasing *version number*. A site's *version vector*
//! gathers the version numbers of all its block copies; recovery protocols
//! exchange version vectors to find which blocks went stale while a site was
//! down (§3.2 of the paper).

use crate::BlockIndex;
use core::fmt;

/// Monotonically increasing version number of one block copy.
///
/// A write that gathers versions `v_1..v_m` installs `max(v_i) + 1`, so the
/// copy with the highest version number always holds the most recent data.
///
/// # Examples
///
/// ```
/// use blockrep_types::VersionNumber;
///
/// let v = VersionNumber::ZERO;
/// assert_eq!(v.next(), VersionNumber::new(1));
/// assert!(v < v.next());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VersionNumber(u64);

impl VersionNumber {
    /// The initial version of a freshly formatted block.
    pub const ZERO: VersionNumber = VersionNumber(0);

    /// Creates a version number from its raw value.
    pub const fn new(value: u64) -> Self {
        VersionNumber(value)
    }

    /// Returns the raw numeric value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the successor version, as installed by a successful write.
    ///
    /// # Panics
    ///
    /// Panics on `u64` overflow, which would require 2^64 writes to a single
    /// block.
    pub const fn next(self) -> Self {
        VersionNumber(self.0 + 1)
    }
}

impl fmt::Display for VersionNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for VersionNumber {
    fn from(value: u64) -> Self {
        VersionNumber(value)
    }
}

impl From<VersionNumber> for u64 {
    fn from(value: VersionNumber) -> Self {
        value.0
    }
}

/// The version numbers of every block copy held by one site.
///
/// During recovery a repairing site sends its version vector `v` to an
/// up-to-date site, which answers with its own vector `v'` plus the data of
/// every block whose version differs (Figure 5 of the paper). The vector is
/// indexed by [`BlockIndex`].
///
/// # Examples
///
/// ```
/// use blockrep_types::{BlockIndex, VersionVector};
///
/// let mut ours = VersionVector::new(4);
/// let mut theirs = VersionVector::new(4);
/// theirs.bump(BlockIndex::new(2));
/// let stale = ours.stale_against(&theirs);
/// assert_eq!(stale, vec![BlockIndex::new(2)]);
/// ours.set(BlockIndex::new(2), theirs.get(BlockIndex::new(2)));
/// assert!(ours.stale_against(&theirs).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VersionVector {
    versions: Vec<VersionNumber>,
}

impl VersionVector {
    /// Creates an all-zero vector covering `num_blocks` blocks.
    pub fn new(num_blocks: u64) -> Self {
        VersionVector {
            versions: vec![VersionNumber::ZERO; num_blocks as usize],
        }
    }

    /// Number of blocks the vector covers.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the vector covers zero blocks.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Returns the version of block `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn get(&self, k: BlockIndex) -> VersionNumber {
        self.versions[k.index()]
    }

    /// Sets the version of block `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set(&mut self, k: BlockIndex, v: VersionNumber) {
        self.versions[k.index()] = v;
    }

    /// Increments the version of block `k` and returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn bump(&mut self, k: BlockIndex) -> VersionNumber {
        let next = self.versions[k.index()].next();
        self.versions[k.index()] = next;
        next
    }

    /// Blocks whose version in `self` is strictly older than in `other` —
    /// exactly the blocks a recovering site must re-fetch.
    ///
    /// # Panics
    ///
    /// Panics if the vectors cover different numbers of blocks.
    pub fn stale_against(&self, other: &VersionVector) -> Vec<BlockIndex> {
        assert_eq!(
            self.versions.len(),
            other.versions.len(),
            "version vectors must cover the same device"
        );
        self.versions
            .iter()
            .zip(&other.versions)
            .enumerate()
            .filter(|(_, (mine, theirs))| mine < theirs)
            .map(|(i, _)| BlockIndex::new(i as u64))
            .collect()
    }

    /// Whether `self` is component-wise `>=` `other`, i.e. at least as
    /// current for every block.
    ///
    /// # Panics
    ///
    /// Panics if the vectors cover different numbers of blocks.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        assert_eq!(self.versions.len(), other.versions.len());
        self.versions
            .iter()
            .zip(&other.versions)
            .all(|(mine, theirs)| mine >= theirs)
    }

    /// Sum of all version numbers; a convenient totally ordered recency
    /// proxy used to pick the most current site among a set whose vectors
    /// are mutually comparable.
    pub fn total(&self) -> u64 {
        self.versions.iter().map(|v| v.as_u64()).sum()
    }

    /// Iterates over `(block, version)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockIndex, VersionNumber)> + '_ {
        self.versions
            .iter()
            .enumerate()
            .map(|(i, v)| (BlockIndex::new(i as u64), *v))
    }
}

impl FromIterator<VersionNumber> for VersionVector {
    fn from_iter<T: IntoIterator<Item = VersionNumber>>(iter: T) -> Self {
        VersionVector {
            versions: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.versions.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", v.as_u64())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_number_next_is_monotone() {
        let mut v = VersionNumber::ZERO;
        for _ in 0..10 {
            let n = v.next();
            assert!(n > v);
            v = n;
        }
        assert_eq!(v.as_u64(), 10);
    }

    #[test]
    fn version_number_display() {
        assert_eq!(VersionNumber::new(5).to_string(), "v5");
    }

    #[test]
    fn fresh_vectors_are_equal_and_dominate_each_other() {
        let a = VersionVector::new(8);
        let b = VersionVector::new(8);
        assert_eq!(a, b);
        assert!(a.dominates(&b) && b.dominates(&a));
        assert!(a.stale_against(&b).is_empty());
    }

    #[test]
    fn bump_makes_vector_dominate() {
        let mut a = VersionVector::new(4);
        let b = VersionVector::new(4);
        a.bump(BlockIndex::new(1));
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert_eq!(b.stale_against(&a), vec![BlockIndex::new(1)]);
    }

    #[test]
    fn incomparable_vectors_dominate_neither_way() {
        let mut a = VersionVector::new(4);
        let mut b = VersionVector::new(4);
        a.bump(BlockIndex::new(0));
        b.bump(BlockIndex::new(3));
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn stale_against_lists_only_strictly_older() {
        let mut a = VersionVector::new(3);
        let mut b = VersionVector::new(3);
        a.bump(BlockIndex::new(0)); // a newer on b0
        b.bump(BlockIndex::new(1)); // b newer on b1
        a.bump(BlockIndex::new(2));
        b.bump(BlockIndex::new(2)); // equal on b2
        assert_eq!(a.stale_against(&b), vec![BlockIndex::new(1)]);
        assert_eq!(b.stale_against(&a), vec![BlockIndex::new(0)]);
    }

    #[test]
    fn total_sums_versions() {
        let mut a = VersionVector::new(3);
        a.bump(BlockIndex::new(0));
        a.bump(BlockIndex::new(0));
        a.bump(BlockIndex::new(2));
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn from_iterator_collects() {
        let vv: VersionVector = (0..3).map(VersionNumber::new).collect();
        assert_eq!(vv.len(), 3);
        assert_eq!(vv.get(BlockIndex::new(2)), VersionNumber::new(2));
        assert_eq!(vv.to_string(), "[0 1 2]");
    }

    #[test]
    #[should_panic(expected = "same device")]
    fn mismatched_lengths_panic() {
        let a = VersionVector::new(2);
        let b = VersionVector::new(3);
        let _ = a.stale_against(&b);
    }
}
