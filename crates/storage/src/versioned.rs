//! Versioned per-site storage.

use crate::checksum::checksum;
use blockrep_types::{BlockData, BlockIndex, VersionNumber, VersionVector};

/// A fault injected into the *storage* layer at install time, modelling the
/// two ways a crash in the middle of a synchronous block write leaves the
/// disk inconsistent (cf. the torn-write regime studied for stable memory
/// devices).
///
/// Both faults are detectable on restart because every block carries the
/// storage layer's one checksum — the journal's — over `(version, data)`: a
/// torn block commits the new metadata with partially old data, a
/// stale-version block commits the new data under the old metadata, and in
/// either case [`VersionedStore::scrub`] finds the mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The metadata (version + checksum) of the new write reached the disk,
    /// but only the first `keep` bytes of the data did; the tail still holds
    /// the previous contents.
    Torn {
        /// Number of leading bytes of the new payload that were persisted.
        keep: usize,
    },
    /// The data of the new write reached the disk but the crash hit before
    /// the version (and checksum) were updated, so the new bytes sit under
    /// the old version number.
    StaleVersion,
    /// The crash hit during the *journal* append: only the first `keep`
    /// bytes of the write-ahead record reached the log, and the block write
    /// itself never started. The block stays intact at its old value (the
    /// checksum still matches, so a scrub finds nothing) — with a journal in
    /// force the torn record is discarded by the recovery scan, and without
    /// one the write is simply lost before touching the platter.
    WalTorn {
        /// Number of leading bytes of the encoded record that were
        /// persisted to the journal.
        keep: usize,
    },
}

/// A block's new contents bound to the version they will be installed at,
/// with the store's checksum of the pair computed once, when the block is
/// sealed.
///
/// A write seals each block where it chooses the block's version, and every
/// replica that installs it through
/// [`VersionedStore::install_sealed`] stores the sum it carries instead of
/// hashing the bytes again. The fields are private, so the sum is always
/// the one an unsealed [`install`](VersionedStore::install) of the same
/// `(version, data)` would compute.
///
/// # Examples
///
/// ```
/// use blockrep_storage::{SealedBlock, VersionedStore};
/// use blockrep_types::{BlockData, BlockIndex, VersionNumber};
///
/// let block = SealedBlock::new(VersionNumber::new(3), BlockData::zeroed(512));
/// let (mut a, mut b) = (VersionedStore::new(8, 512), VersionedStore::new(8, 512));
/// let k = BlockIndex::new(0);
/// assert!(a.install_sealed(k, block.clone()) && b.install_sealed(k, block));
/// assert!(a.checksum_ok(k) && b.checksum_ok(k));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock {
    version: VersionNumber,
    sum: u64,
    data: BlockData,
}

impl SealedBlock {
    /// Seals `data` at `version`: the one checksum of the pair.
    pub fn new(version: VersionNumber, data: BlockData) -> Self {
        SealedBlock {
            version,
            sum: checksum(&[version.as_u64()], data.as_slice()),
            data,
        }
    }

    /// The version the block is sealed at.
    pub fn version(&self) -> VersionNumber {
        self.version
    }

    /// The sealed contents.
    pub fn data(&self) -> &BlockData {
        &self.data
    }
}

impl Default for SealedBlock {
    /// The empty block at version zero, sealed like any other.
    fn default() -> Self {
        SealedBlock::new(VersionNumber::default(), BlockData::default())
    }
}

/// A site's disk as the consistency protocols see it: every block carries a
/// version number alongside its data.
///
/// This is deliberately *not* a [`BlockDevice`](crate::BlockDevice): version
/// numbers are protocol metadata that the file system must never observe.
/// The store is single-owner (each server process owns its disk) and
/// therefore needs no interior locking.
///
/// Every zero slot — freshly formatted, or reset by [`scrub`](Self::scrub)
/// — shares the store's one zero block and holds no reference of its own,
/// so formatting, cloning and dropping a store touch no reference count
/// for those slots. A zero slot reads, sums and diffs exactly as a slot
/// holding its own zeroed block would.
///
/// # Examples
///
/// ```
/// use blockrep_storage::VersionedStore;
/// use blockrep_types::{BlockData, BlockIndex, VersionNumber};
///
/// let mut disk = VersionedStore::new(8, 512);
/// let k = BlockIndex::new(0);
/// disk.install(k, BlockData::zeroed(512), VersionNumber::new(3));
/// assert_eq!(disk.version(k), VersionNumber::new(3));
/// ```
#[derive(Debug, Clone)]
pub struct VersionedStore {
    /// Block `k`'s data, or `None` while it is the shared zero block.
    blocks: Vec<Option<BlockData>>,
    zero: BlockData,
    versions: VersionVector,
    checksums: Vec<u64>,
    block_size: usize,
}

impl VersionedStore {
    /// Creates a zero-filled store at version zero, the state of a freshly
    /// formatted replica.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` or `block_size` is zero.
    pub fn new(num_blocks: u64, block_size: usize) -> Self {
        assert!(num_blocks > 0, "a device needs at least one block");
        assert!(block_size > 0, "block size must be nonzero");
        let zero = BlockData::zeroed(block_size);
        let zero_sum = checksum(&[VersionNumber::ZERO.as_u64()], zero.as_slice());
        VersionedStore {
            blocks: vec![None; num_blocks as usize],
            zero,
            versions: VersionVector::new(num_blocks),
            checksums: vec![zero_sum; num_blocks as usize],
            block_size,
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Size of each block in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block `k`'s bytes: its own, or the shared zero block.
    #[inline]
    fn slot(&self, k: BlockIndex) -> &BlockData {
        self.blocks[k.index()].as_ref().unwrap_or(&self.zero)
    }

    /// The version number of block `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn version(&self, k: BlockIndex) -> VersionNumber {
        self.versions.get(k)
    }

    /// The data of block `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn data(&self, k: BlockIndex) -> BlockData {
        self.slot(k).clone()
    }

    /// Both the version and the data of block `k`: what a voting read
    /// votes and serves with, and what lazy voting recovery ships.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn versioned(&self, k: BlockIndex) -> (VersionNumber, BlockData) {
        (self.versions.get(k), self.slot(k).clone())
    }

    /// Installs `data` at version `v`, but only if `v` is newer than the
    /// local copy. Returns whether the block was replaced.
    ///
    /// Installation is idempotent and monotone: replaying an old write (or
    /// the same write twice) never regresses a block — the invariant that
    /// keeps recovery safe.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or the payload size differs from the
    /// block size.
    pub fn install(&mut self, k: BlockIndex, data: BlockData, v: VersionNumber) -> bool {
        assert_eq!(data.len(), self.block_size, "payload must match block size");
        // A stale install hashes nothing.
        v > self.versions.get(k) && self.install_sealed(k, SealedBlock::new(v, data))
    }

    /// [`install`](Self::install) of a block sealed elsewhere: the same
    /// monotone guard and result, but the stored checksum is the one the
    /// seal carries, so the bytes are not hashed again.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or the payload size differs from the
    /// block size.
    pub fn install_sealed(&mut self, k: BlockIndex, block: SealedBlock) -> bool {
        assert_eq!(
            block.data.len(),
            self.block_size,
            "payload must match block size"
        );
        if block.version > self.versions.get(k) {
            self.checksums[k.index()] = block.sum;
            self.blocks[k.index()] = Some(block.data);
            self.versions.set(k, block.version);
            true
        } else {
            false
        }
    }

    /// Installs `data` at version `v` but leaves the block in the broken
    /// on-disk state that `fault` describes, simulating a crash in the
    /// middle of the synchronous block write. The same monotone guard as
    /// [`install`](Self::install) applies, so replaying a faulty old write
    /// is still a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or the payload size differs from the
    /// block size.
    pub fn install_faulty(
        &mut self,
        k: BlockIndex,
        data: BlockData,
        v: VersionNumber,
        fault: StorageFault,
    ) -> bool {
        assert_eq!(data.len(), self.block_size, "payload must match block size");
        if v <= self.versions.get(k) {
            return false;
        }
        match fault {
            StorageFault::Torn { keep } => {
                // Metadata of the new write committed; data only partially.
                self.checksums[k.index()] = checksum(&[v.as_u64()], data.as_slice());
                self.versions.set(k, v);
                let keep = keep.min(self.block_size);
                let mut torn = self.slot(k).as_slice().to_vec();
                torn[..keep].copy_from_slice(&data.as_slice()[..keep]);
                self.blocks[k.index()] = Some(BlockData::from(torn));
            }
            StorageFault::StaleVersion => {
                // Data committed; version and checksum still the old ones.
                self.blocks[k.index()] = Some(data);
            }
            StorageFault::WalTorn { .. } => {
                // The crash preceded the block write: the store keeps its
                // old, checksum-consistent contents. The torn journal bytes
                // are the caller's to model (see `core::Replica`).
            }
        }
        true
    }

    /// Whether block `k`'s checksum matches its `(version, data)` pair —
    /// `false` exactly when a faulty install left the block broken.
    pub fn checksum_ok(&self, k: BlockIndex) -> bool {
        let (v, data) = (self.versions.get(k), self.slot(k));
        self.checksums[k.index()] == checksum(&[v.as_u64()], data.as_slice())
    }

    /// Restart-time integrity pass: every block whose checksum does not
    /// match its contents is reset to the freshly-formatted state (zeroed
    /// data at version zero), which re-enters the normal repair lattice —
    /// any peer holding a valid copy is newer and will overwrite it.
    /// Returns the blocks that were reset.
    pub fn scrub(&mut self) -> Vec<BlockIndex> {
        let mut reset = Vec::new();
        for k in BlockIndex::all(self.num_blocks()) {
            if !self.checksum_ok(k) {
                self.blocks[k.index()] = None;
                self.versions.set(k, VersionNumber::ZERO);
                self.checksums[k.index()] =
                    checksum(&[VersionNumber::ZERO.as_u64()], self.zero.as_slice());
                reset.push(k);
            }
        }
        reset
    }

    /// A copy of the full version vector, as exchanged during recovery.
    pub fn version_vector(&self) -> VersionVector {
        self.versions.clone()
    }

    /// Blocks (with versions and data) whose version here differs from
    /// `remote` — the repair payload an authoritative site sends to a
    /// recovering one. The diff runs in *both* directions: a recovering
    /// site can be ahead on a block it installed just before crashing
    /// without the update ever leaving the machine, and such an orphaned
    /// write must be rolled back to the source's copy (see
    /// [`VersionVector::divergent_from`]).
    ///
    /// # Panics
    ///
    /// Panics if `remote` covers a different number of blocks.
    pub fn diff_against(
        &self,
        remote: &VersionVector,
    ) -> Vec<(BlockIndex, VersionNumber, BlockData)> {
        remote
            .divergent_from(&self.versions)
            .into_iter()
            .map(|k| {
                let (v, d) = self.versioned(k);
                (k, v, d)
            })
            .collect()
    }

    /// Applies a repair payload produced by [`diff_against`](Self::diff_against)
    /// on an authoritative site. Unlike [`install`](Self::install) this
    /// overwrites unconditionally — the source decides, even when that
    /// means regressing a block the recovering site wrote orphaned just
    /// before crashing. Each block is stored by sharing its bytes, not
    /// copying them. Returns the number of blocks replaced.
    pub fn apply_repair(&mut self, blocks: &[(BlockIndex, VersionNumber, BlockData)]) -> usize {
        let mut replaced = 0;
        for &(k, v, ref data) in blocks {
            assert_eq!(data.len(), self.block_size, "payload must match block size");
            self.checksums[k.index()] = checksum(&[v.as_u64()], data.as_slice());
            self.blocks[k.index()] = Some(data.clone());
            self.versions.set(k, v);
            replaced += 1;
        }
        replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_is_version_zero() {
        let s = VersionedStore::new(4, 16);
        for k in BlockIndex::all(4) {
            assert_eq!(s.version(k), VersionNumber::ZERO);
            assert!(s.data(k).is_zeroed());
        }
    }

    #[test]
    fn zero_slots_read_sum_diff_and_clone_as_their_own_zero_blocks() {
        let (n, bs) = (4, 16);
        let zero = BlockData::zeroed(bs);
        let mut s = VersionedStore::new(n, bs);
        let (a, b) = (BlockIndex::new(1), BlockIndex::new(2));
        // Block 1 torn and scrubbed: a reset slot, next to fresh ones.
        s.install(a, BlockData::from(vec![1; bs]), VersionNumber::new(1));
        s.install_faulty(
            a,
            BlockData::from(vec![2; bs]),
            VersionNumber::new(2),
            StorageFault::Torn { keep: 3 },
        );
        assert_eq!(s.scrub(), vec![a]);
        for k in BlockIndex::all(n) {
            assert_eq!(s.versioned(k), (VersionNumber::ZERO, zero.clone()), "{k}");
            assert!(s.checksum_ok(k), "{k}");
        }
        assert_eq!(s.checksums, VersionedStore::new(n, bs).checksums);

        // A clone shares nothing a later install can reach.
        let twin = s.clone();
        s.install(b, BlockData::from(vec![7; bs]), VersionNumber::new(3));
        assert_eq!(twin.data(b), zero);
        assert!(twin.checksum_ok(b));

        // Zero slots diff and repair like any other block, both ways.
        let mut stale = twin.clone();
        let payload = s.diff_against(&stale.version_vector());
        assert_eq!(
            payload,
            vec![(b, VersionNumber::new(3), BlockData::from(vec![7; bs]))]
        );
        assert_eq!(stale.apply_repair(&payload), 1);
        assert_eq!(stale.versioned(b), s.versioned(b));
        let mut ahead = s.clone();
        let rollback = twin.diff_against(&ahead.version_vector());
        assert_eq!(rollback, vec![(b, VersionNumber::ZERO, zero.clone())]);
        assert_eq!(ahead.apply_repair(&rollback), 1);
        assert_eq!(ahead.versioned(b), (VersionNumber::ZERO, zero));
        assert!(ahead.checksum_ok(b));
        assert_eq!(ahead.checksums, twin.checksums);
    }

    #[test]
    fn install_is_monotone() {
        let mut s = VersionedStore::new(2, 4);
        let k = BlockIndex::new(0);
        assert!(s.install(k, BlockData::from(vec![1; 4]), VersionNumber::new(2)));
        // Older and equal versions are rejected.
        assert!(!s.install(k, BlockData::from(vec![9; 4]), VersionNumber::new(1)));
        assert!(!s.install(k, BlockData::from(vec![9; 4]), VersionNumber::new(2)));
        assert_eq!(s.data(k).as_slice(), &[1; 4]);
        assert!(s.install(k, BlockData::from(vec![3; 4]), VersionNumber::new(3)));
        assert_eq!(s.version(k), VersionNumber::new(3));
    }

    #[test]
    fn diff_and_repair_synchronize_stores() {
        let mut current = VersionedStore::new(4, 4);
        let mut stale = VersionedStore::new(4, 4);
        current.install(
            BlockIndex::new(1),
            BlockData::from(vec![1; 4]),
            VersionNumber::new(5),
        );
        current.install(
            BlockIndex::new(3),
            BlockData::from(vec![3; 4]),
            VersionNumber::new(1),
        );
        // stale is *ahead* on a block the source never saw — an orphaned
        // write installed just before a crash. The source is authoritative:
        // repair rolls the orphan back, otherwise the next write at the
        // colliding version would leave the replicas permanently divergent.
        stale.install(
            BlockIndex::new(2),
            BlockData::from(vec![2; 4]),
            VersionNumber::new(7),
        );

        let payload = current.diff_against(&stale.version_vector());
        assert_eq!(payload.len(), 3);
        let repaired = stale.apply_repair(&payload);
        assert_eq!(repaired, 3);
        assert_eq!(stale.version(BlockIndex::new(1)), VersionNumber::new(5));
        assert_eq!(stale.data(BlockIndex::new(3)).as_slice(), &[3; 4]);
        assert_eq!(stale.version(BlockIndex::new(2)), VersionNumber::ZERO);
        assert!(stale.data(BlockIndex::new(2)).is_zeroed());
        // The stores now agree bit for bit.
        assert!(current.diff_against(&stale.version_vector()).is_empty());
    }

    #[test]
    fn diff_against_identical_is_empty() {
        let s = VersionedStore::new(4, 4);
        assert!(s.diff_against(&s.version_vector()).is_empty());
    }

    #[test]
    fn torn_install_breaks_checksum_and_scrub_resets() {
        let mut s = VersionedStore::new(2, 4);
        let k = BlockIndex::new(0);
        s.install(k, BlockData::from(vec![1; 4]), VersionNumber::new(1));
        assert!(s.install_faulty(
            k,
            BlockData::from(vec![2; 4]),
            VersionNumber::new(2),
            StorageFault::Torn { keep: 2 },
        ));
        // New metadata, half-old data.
        assert_eq!(s.version(k), VersionNumber::new(2));
        assert_eq!(s.data(k).as_slice(), &[2, 2, 1, 1]);
        assert!(!s.checksum_ok(k));
        assert!(s.checksum_ok(BlockIndex::new(1)));

        let reset = s.scrub();
        assert_eq!(reset, vec![k]);
        assert_eq!(s.version(k), VersionNumber::ZERO);
        assert!(s.data(k).is_zeroed());
        assert!(s.checksum_ok(k));
        assert!(s.scrub().is_empty());
    }

    #[test]
    fn stale_version_install_breaks_checksum() {
        let mut s = VersionedStore::new(1, 4);
        let k = BlockIndex::new(0);
        s.install(k, BlockData::from(vec![1; 4]), VersionNumber::new(1));
        assert!(s.install_faulty(
            k,
            BlockData::from(vec![9; 4]),
            VersionNumber::new(2),
            StorageFault::StaleVersion,
        ));
        // New data under the old version number.
        assert_eq!(s.version(k), VersionNumber::new(1));
        assert_eq!(s.data(k).as_slice(), &[9; 4]);
        assert!(!s.checksum_ok(k));
        s.scrub();
        // A clean reinstall at the lost version now succeeds again.
        assert!(s.install(k, BlockData::from(vec![9; 4]), VersionNumber::new(2)));
        assert!(s.checksum_ok(k));
    }

    #[test]
    fn fresh_store_carries_the_checksum_of_a_zero_block() {
        let mut s = VersionedStore::new(3, 1024);
        let zero_sum = checksum(&[0], &[0u8; 1024]);
        assert_eq!(s.checksums, vec![zero_sum; 3]);
        assert!(s.scrub().is_empty());
    }

    #[test]
    fn every_stored_sum_is_the_one_checksum_of_version_and_data() {
        let mut s = VersionedStore::new(4, 64);
        let sum = |v: u64, b: u8| checksum(&[v], &[b; 64]);
        let (a, b, c) = (BlockIndex::new(0), BlockIndex::new(1), BlockIndex::new(2));
        s.install(a, BlockData::from(vec![1; 64]), VersionNumber::new(3));
        s.install_faulty(
            b,
            BlockData::from(vec![2; 64]),
            VersionNumber::new(5),
            StorageFault::Torn { keep: 64 },
        );
        s.apply_repair(&[(c, VersionNumber::new(9), BlockData::from(vec![4; 64]))]);
        assert_eq!(
            s.checksums,
            vec![sum(3, 1), sum(5, 2), sum(9, 4), sum(0, 0)]
        );
    }

    #[test]
    fn a_sealed_install_leaves_the_store_an_install_leaves() {
        let (mut plain, mut sealed) = (VersionedStore::new(3, 64), VersionedStore::new(3, 64));
        let writes = [(0, 2, 1u8), (2, 5, 7), (0, 1, 9), (0, 3, 4), (2, 5, 8)];
        for (i, v, fill) in writes {
            let (k, v, data) = (BlockIndex::new(i), VersionNumber::new(v), vec![fill; 64]);
            let block = SealedBlock::new(v, BlockData::from(data.clone()));
            // The same monotone guard: stale and equal versions land nowhere.
            assert_eq!(
                sealed.install_sealed(k, block),
                plain.install(k, BlockData::from(data), v)
            );
        }
        assert_eq!(sealed.checksums, plain.checksums);
        assert_eq!(sealed.versions, plain.versions);
        assert_eq!(sealed.blocks, plain.blocks);
    }

    #[test]
    fn a_sealed_install_stores_the_sum_it_carries() {
        let mut s = VersionedStore::new(2, 8);
        let k = BlockIndex::new(1);
        let good = SealedBlock::new(VersionNumber::new(4), BlockData::from(vec![6; 8]));
        // The store does not hash a sealed block: a seal that lies about its
        // sum is what a scrub then finds, as it would a torn write.
        let lying = SealedBlock {
            sum: good.sum ^ 1,
            ..good.clone()
        };
        assert!(s.install_sealed(k, lying));
        assert_eq!(s.data(k).as_slice(), &[6; 8]);
        assert!(!s.checksum_ok(k));
        assert_eq!(s.scrub(), vec![k]);
        assert!(s.install_sealed(k, good));
        assert!(s.checksum_ok(k));
    }

    #[test]
    fn every_bit_flip_and_a_version_bump_of_a_full_block_are_caught() {
        let k = BlockIndex::new(0);
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 37 + i / 5) as u8).collect();
        let mut s = VersionedStore::new(1, 1024);
        s.install(k, BlockData::from(data.clone()), VersionNumber::new(7));
        assert!(s.checksum_ok(k));
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            s.blocks[0] = Some(BlockData::from(flipped));
            assert!(!s.checksum_ok(k), "flip of bit {bit} went unseen");
        }
        s.blocks[0] = Some(BlockData::from(data));
        assert!(s.checksum_ok(k));
        s.versions.set(k, VersionNumber::new(8));
        assert!(!s.checksum_ok(k), "v + 1 under the same data went unseen");
    }

    #[test]
    fn scrub_of_a_benchmark_sized_store_resets_exactly_the_torn_blocks() {
        let (n, bs) = (16_384, 1024);
        let mut s = VersionedStore::new(n, bs);
        for i in (0..n).step_by(97) {
            let fill = (i % 251) as u8 + 1;
            s.install(
                BlockIndex::new(i),
                BlockData::from(vec![fill; bs]),
                VersionNumber::new(1),
            );
        }
        let torn = [(0, 0), (97 * 40, 511), (n - 1, bs - 1)];
        for &(i, keep) in &torn {
            s.install_faulty(
                BlockIndex::new(i),
                BlockData::from(vec![0xEE; bs]),
                VersionNumber::new(2),
                StorageFault::Torn { keep },
            );
        }
        let expected: Vec<BlockIndex> = torn.iter().map(|&(i, _)| BlockIndex::new(i)).collect();
        assert_eq!(s.scrub(), expected);
        for &k in &expected {
            assert_eq!(s.version(k), VersionNumber::ZERO);
            assert!(s.data(k).is_zeroed());
        }
        assert!(s.scrub().is_empty());
    }

    #[test]
    fn torn_install_is_caught_at_every_keep_where_the_tails_differ() {
        let bs = 1024;
        let k = BlockIndex::new(0);
        let old: Vec<u8> = (0..bs).map(|i| (i % 251) as u8).collect();
        // The last 16 bytes do not change, so a tear that late tears nothing.
        let mut new: Vec<u8> = old.iter().map(|b| b ^ 0x5A).collect();
        new[bs - 16..].copy_from_slice(&old[bs - 16..]);
        for keep in 0..bs {
            let mut s = VersionedStore::new(1, bs);
            s.install(k, BlockData::from(old.clone()), VersionNumber::new(1));
            s.install_faulty(
                k,
                BlockData::from(new.clone()),
                VersionNumber::new(2),
                StorageFault::Torn { keep },
            );
            let tails_differ = old[keep..] != new[keep..];
            assert_eq!(s.checksum_ok(k), !tails_differ, "keep {keep}");
            assert_eq!(s.scrub().len(), usize::from(tails_differ), "keep {keep}");
        }
    }

    #[test]
    fn stale_version_is_caught_on_a_full_block() {
        let mut s = VersionedStore::new(1, 1024);
        let k = BlockIndex::new(0);
        s.install(k, BlockData::from(vec![1; 1024]), VersionNumber::new(1));
        // One changed bit in the payload, under the old version and sum.
        let mut data = vec![1; 1024];
        data[1023] ^= 0x80;
        s.install_faulty(
            k,
            BlockData::from(data),
            VersionNumber::new(2),
            StorageFault::StaleVersion,
        );
        assert!(!s.checksum_ok(k));
        assert_eq!(s.scrub(), vec![k]);
    }

    #[test]
    fn faulty_install_respects_monotone_guard() {
        let mut s = VersionedStore::new(1, 4);
        let k = BlockIndex::new(0);
        s.install(k, BlockData::from(vec![1; 4]), VersionNumber::new(3));
        assert!(!s.install_faulty(
            k,
            BlockData::from(vec![9; 4]),
            VersionNumber::new(3),
            StorageFault::Torn { keep: 4 },
        ));
        assert!(s.checksum_ok(k));
        assert_eq!(s.data(k).as_slice(), &[1; 4]);
    }

    #[test]
    fn wal_torn_install_leaves_store_untouched() {
        let mut s = VersionedStore::new(1, 4);
        let k = BlockIndex::new(0);
        s.install(k, BlockData::from(vec![1; 4]), VersionNumber::new(1));
        assert!(s.install_faulty(
            k,
            BlockData::from(vec![9; 4]),
            VersionNumber::new(2),
            StorageFault::WalTorn { keep: 5 },
        ));
        // The crash hit the journal append, not the block write: the old
        // copy survives, the checksum still matches, scrub finds nothing.
        assert_eq!(s.version(k), VersionNumber::new(1));
        assert_eq!(s.data(k).as_slice(), &[1; 4]);
        assert!(s.checksum_ok(k));
        assert!(s.scrub().is_empty());
        // The lost version can be reinstalled cleanly.
        assert!(s.install(k, BlockData::from(vec![9; 4]), VersionNumber::new(2)));
    }

    #[test]
    #[should_panic(expected = "payload must match block size")]
    fn install_rejects_wrong_size() {
        let mut s = VersionedStore::new(1, 4);
        s.install(
            BlockIndex::new(0),
            BlockData::zeroed(5),
            VersionNumber::new(1),
        );
    }
}
