//! Identifier newtypes for sites and blocks.

use core::fmt;

/// Identifies one *site*: a host running a server process that holds a full
/// copy of the reliable device's blocks.
///
/// Sites are numbered densely from zero within a device, so a `SiteId` also
/// serves as an index into per-site tables.
///
/// # Examples
///
/// ```
/// use blockrep_types::SiteId;
///
/// let s = SiteId::new(3);
/// assert_eq!(s.index(), 3);
/// assert_eq!(s.to_string(), "s3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(u32);

impl SiteId {
    /// Creates a site identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        SiteId(index)
    }

    /// Returns the dense index of this site, usable as a table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over the first `n` site identifiers, `s0..s(n-1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockrep_types::SiteId;
    /// let all: Vec<_> = SiteId::all(3).collect();
    /// assert_eq!(all, vec![SiteId::new(0), SiteId::new(1), SiteId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = SiteId> + ExactSizeIterator {
        (0..n as u32).map(SiteId)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(value: u32) -> Self {
        SiteId(value)
    }
}

impl From<SiteId> for u32 {
    fn from(value: SiteId) -> Self {
        value.0
    }
}

/// Identifies one block of the reliable device.
///
/// The reliable device presents the same flat array of fixed-size blocks as
/// an ordinary disk; a `BlockIndex` is an offset into that array.
///
/// # Examples
///
/// ```
/// use blockrep_types::BlockIndex;
///
/// let b = BlockIndex::new(42);
/// assert_eq!(b.index(), 42);
/// assert_eq!(b.to_string(), "b42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockIndex(u64);

impl BlockIndex {
    /// Creates a block index.
    pub const fn new(index: u64) -> Self {
        BlockIndex(index)
    }

    /// Returns the block offset as a table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Iterates over the first `n` block indices, `b0..b(n-1)`.
    pub fn all(n: u64) -> impl DoubleEndedIterator<Item = BlockIndex> {
        (0..n).map(BlockIndex)
    }
}

impl fmt::Display for BlockIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<u64> for BlockIndex {
    fn from(value: u64) -> Self {
        BlockIndex(value)
    }
}

impl From<BlockIndex> for u64 {
    fn from(value: BlockIndex) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn site_id_roundtrip() {
        let s = SiteId::new(7);
        assert_eq!(u32::from(s), 7);
        assert_eq!(SiteId::from(7u32), s);
        assert_eq!(s.index(), 7);
    }

    #[test]
    fn site_id_display() {
        assert_eq!(SiteId::new(0).to_string(), "s0");
        assert_eq!(SiteId::new(12).to_string(), "s12");
    }

    #[test]
    fn site_id_ordering_follows_index() {
        let mut set = BTreeSet::new();
        set.insert(SiteId::new(2));
        set.insert(SiteId::new(0));
        set.insert(SiteId::new(1));
        let ordered: Vec<_> = set.into_iter().collect();
        assert_eq!(ordered, SiteId::all(3).collect::<Vec<_>>());
    }

    #[test]
    fn site_all_is_exact_size() {
        let iter = SiteId::all(5);
        assert_eq!(iter.len(), 5);
        assert_eq!(iter.last(), Some(SiteId::new(4)));
    }

    #[test]
    fn block_index_roundtrip() {
        let b = BlockIndex::new(99);
        assert_eq!(u64::from(b), 99);
        assert_eq!(BlockIndex::from(99u64), b);
        assert_eq!(b.to_string(), "b99");
    }

    #[test]
    fn block_all_enumerates_in_order() {
        let blocks: Vec<_> = BlockIndex::all(3).collect();
        assert_eq!(
            blocks,
            vec![BlockIndex::new(0), BlockIndex::new(1), BlockIndex::new(2)]
        );
    }

    #[test]
    fn ids_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SiteId>();
        assert_send_sync::<BlockIndex>();
    }
}
