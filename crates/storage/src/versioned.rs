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
    /// Block `k`'s version, sum and data, side by side: a vote reads the
    /// version on the line an install then writes whole.
    slots: Vec<Slot>,
    zero: BlockData,
    block_size: usize,
}

/// One block of a [`VersionedStore`]: the per-block header (version and
/// the one checksum of `(version, data)`) next to the data it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    version: VersionNumber,
    sum: u64,
    /// The block's own bytes, or `None` while it is the shared zero block.
    data: Option<BlockData>,
}

impl Slot {
    /// The slot of a freshly formatted (or scrub-reset) block: the shared
    /// zero block at version zero, under `zero_sum`.
    fn zero(zero_sum: u64) -> Self {
        Slot {
            version: VersionNumber::ZERO,
            sum: zero_sum,
            data: None,
        }
    }

    /// The slot's bytes: its own, or the store's shared `zero` block.
    #[inline]
    fn bytes<'a>(&'a self, zero: &'a BlockData) -> &'a BlockData {
        self.data.as_ref().unwrap_or(zero)
    }

    /// Whether the stored sum is the checksum of `(version, data)`.
    fn sum_ok(&self, zero: &BlockData) -> bool {
        self.sum == checksum(&[self.version.as_u64()], self.bytes(zero).as_slice())
    }
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
            slots: vec![Slot::zero(zero_sum); num_blocks as usize],
            zero,
            block_size,
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Size of each block in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The version number of block `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn version(&self, k: BlockIndex) -> VersionNumber {
        self.slots[k.index()].version
    }

    /// The data of block `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn data(&self, k: BlockIndex) -> BlockData {
        self.slots[k.index()].bytes(&self.zero).clone()
    }

    /// Both the version and the data of block `k`: what a voting read
    /// votes and serves with, and what lazy voting recovery ships.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn versioned(&self, k: BlockIndex) -> (VersionNumber, BlockData) {
        let slot = &self.slots[k.index()];
        (slot.version, slot.bytes(&self.zero).clone())
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
        v > self.version(k) && self.install_sealed(k, SealedBlock::new(v, data))
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
        let slot = &mut self.slots[k.index()];
        if block.version > slot.version {
            *slot = Slot {
                version: block.version,
                sum: block.sum,
                data: Some(block.data),
            };
            true
        } else {
            false
        }
    }

    /// [`install`](Self::install) of bytes borrowed from wherever they
    /// arrived — a frame off a socket: the same monotone guard, and the
    /// pair is sealed here. The bytes are copied into the buffer the slot
    /// already owns when no clone shares it, so a stream of installs
    /// allocates nothing; a zero slot, or one whose buffer a reader or a
    /// cloned store still holds, gets a buffer of its own, and every clone
    /// keeps the bytes it had. A stale install writes and hashes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or the payload size differs from the
    /// block size.
    pub fn install_from(&mut self, k: BlockIndex, v: VersionNumber, bytes: &[u8]) -> bool {
        assert_eq!(
            bytes.len(),
            self.block_size,
            "payload must match block size"
        );
        let slot = &mut self.slots[k.index()];
        if v <= slot.version {
            return false;
        }
        slot.version = v;
        slot.sum = checksum(&[v.as_u64()], bytes);
        match slot.data.as_mut().and_then(BlockData::get_mut) {
            Some(own) => own.copy_from_slice(bytes),
            None => slot.data = Some(BlockData::from(bytes)),
        }
        true
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
        let slot = &mut self.slots[k.index()];
        if v <= slot.version {
            return false;
        }
        match fault {
            StorageFault::Torn { keep } => {
                // Metadata of the new write committed; data only partially.
                let keep = keep.min(self.block_size);
                let mut torn = slot.bytes(&self.zero).as_slice().to_vec();
                torn[..keep].copy_from_slice(&data.as_slice()[..keep]);
                *slot = Slot {
                    version: v,
                    sum: checksum(&[v.as_u64()], data.as_slice()),
                    data: Some(BlockData::from(torn)),
                };
            }
            StorageFault::StaleVersion => {
                // Data committed; version and checksum still the old ones.
                slot.data = Some(data);
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
        self.slots[k.index()].sum_ok(&self.zero)
    }

    /// Restart-time integrity pass: every block whose checksum does not
    /// match its contents is reset to the freshly-formatted state (zeroed
    /// data at version zero), which re-enters the normal repair lattice —
    /// any peer holding a valid copy is newer and will overwrite it.
    /// Returns the blocks that were reset.
    pub fn scrub(&mut self) -> Vec<BlockIndex> {
        let zero_sum = checksum(&[VersionNumber::ZERO.as_u64()], self.zero.as_slice());
        let mut reset = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if !slot.sum_ok(&self.zero) {
                *slot = Slot::zero(zero_sum);
                reset.push(BlockIndex::new(i as u64));
            }
        }
        reset
    }

    /// A copy of the full version vector, as exchanged during recovery:
    /// one gather of every slot's version into a vector of exact size.
    pub fn version_vector(&self) -> VersionVector {
        self.slots.iter().map(|slot| slot.version).collect()
    }

    /// Blocks (with versions and data) whose version here differs from
    /// `remote` — the repair payload an authoritative site sends to a
    /// recovering one. The diff runs in *both* directions: a recovering
    /// site can be ahead on a block it installed just before crashing
    /// without the update ever leaving the machine, and such an orphaned
    /// write was never acknowledged and must be rolled back to the
    /// source's copy, or the next write at the colliding version would
    /// leave the replicas permanently divergent.
    ///
    /// The slots are compared with `remote` in place, once to size the
    /// payload and once to fill it, so the payload is the one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `remote` covers a different number of blocks.
    pub fn diff_against(
        &self,
        remote: &VersionVector,
    ) -> Vec<(BlockIndex, VersionNumber, BlockData)> {
        assert_eq!(
            remote.len(),
            self.slots.len(),
            "version vectors must cover the same device"
        );
        let divergent = || {
            remote
                .iter()
                .zip(&self.slots)
                .filter(|&((_, theirs), slot)| slot.version != theirs)
        };
        let mut payload = Vec::with_capacity(divergent().count());
        payload.extend(
            divergent().map(|((k, _), slot)| (k, slot.version, slot.bytes(&self.zero).clone())),
        );
        payload
    }

    /// Applies a repair payload produced by [`diff_against`](Self::diff_against)
    /// on an authoritative site. Unlike [`install`](Self::install) this
    /// overwrites unconditionally — the source decides, even when that
    /// means regressing a block the recovering site wrote orphaned just
    /// before crashing. Each block is stored by sharing its bytes, not
    /// copying them. Returns the number of blocks replaced.
    pub fn apply_repair(&mut self, blocks: &[(BlockIndex, VersionNumber, BlockData)]) -> usize {
        for &(k, v, ref data) in blocks {
            assert_eq!(data.len(), self.block_size, "payload must match block size");
            self.slots[k.index()] = Slot {
                version: v,
                sum: checksum(&[v.as_u64()], data.as_slice()),
                data: Some(data.clone()),
            };
        }
        blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl VersionedStore {
        /// Every slot's stored sum, in block order.
        fn sums(&self) -> Vec<u64> {
            self.slots.iter().map(|slot| slot.sum).collect()
        }
    }

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
        assert_eq!(s.sums(), VersionedStore::new(n, bs).sums());

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
        assert_eq!(ahead.sums(), twin.sums());
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
        assert_eq!(s.sums(), vec![zero_sum; 3]);
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
        assert_eq!(s.sums(), vec![sum(3, 1), sum(5, 2), sum(9, 4), sum(0, 0)]);
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
        // Slot for slot: the same version, sum and data, zero slots alike.
        assert_eq!(sealed.slots, plain.slots);
    }

    /// Where block `k`'s bytes live in `s`; the clone that tells is
    /// dropped at once, so it shares nothing afterwards.
    fn buffer(s: &VersionedStore, k: BlockIndex) -> *const u8 {
        s.data(k).as_slice().as_ptr()
    }

    #[test]
    fn an_install_from_bytes_reuses_the_buffer_its_slot_owns() {
        let (mut s, k) = (VersionedStore::new(2, 8), BlockIndex::new(1));
        assert!(s.install_from(k, VersionNumber::new(1), &[1; 8]));
        let own = buffer(&s, k);
        assert!(s.install_from(k, VersionNumber::new(2), &[2; 8]));
        assert_eq!(buffer(&s, k), own, "an unshared buffer was replaced");
        assert_eq!(
            s.versioned(k),
            (VersionNumber::new(2), BlockData::from(vec![2; 8]))
        );
        assert!(s.checksum_ok(k));
    }

    #[test]
    fn a_block_a_reader_holds_keeps_its_bytes_across_an_install_from_bytes() {
        let (mut s, k) = (VersionedStore::new(2, 8), BlockIndex::new(0));
        s.install_from(k, VersionNumber::new(1), &[1; 8]);
        let held = s.data(k);
        assert!(s.install_from(k, VersionNumber::new(2), &[2; 8]));
        assert_eq!(held.as_slice(), &[1; 8]);
        assert_ne!(buffer(&s, k), held.as_slice().as_ptr());
        assert_eq!(s.data(k).as_slice(), &[2; 8]);
        assert!(s.checksum_ok(k));
    }

    #[test]
    fn a_cloned_store_keeps_its_bytes_across_an_install_from_bytes() {
        let (mut s, k) = (VersionedStore::new(2, 8), BlockIndex::new(0));
        s.install_from(k, VersionNumber::new(1), &[1; 8]);
        // The fork an explorer takes before it tries a next step.
        let fork = s.clone();
        assert!(s.install_from(k, VersionNumber::new(2), &[2; 8]));
        assert_eq!(
            fork.versioned(k),
            (VersionNumber::new(1), BlockData::from(vec![1; 8]))
        );
        assert!(fork.checksum_ok(k));
        assert_ne!(buffer(&s, k), buffer(&fork, k));
        assert_eq!(s.data(k).as_slice(), &[2; 8]);
    }

    #[test]
    fn a_zero_slot_gets_a_buffer_of_its_own_and_the_zero_block_stays_zero() {
        let mut s = VersionedStore::new(3, 8);
        let (fresh, reset, untouched) =
            (BlockIndex::new(0), BlockIndex::new(1), BlockIndex::new(2));
        s.install(reset, BlockData::from(vec![1; 8]), VersionNumber::new(1));
        s.install_faulty(
            reset,
            BlockData::from(vec![2; 8]),
            VersionNumber::new(2),
            StorageFault::Torn { keep: 3 },
        );
        assert_eq!(s.scrub(), vec![reset]);
        let zero = s.zero.as_slice().as_ptr();
        assert_eq!(
            buffer(&s, reset),
            zero,
            "a scrub-reset slot is the zero block"
        );
        for (k, fill) in [(fresh, 5), (reset, 6)] {
            assert!(s.install_from(k, VersionNumber::new(3), &[fill; 8]));
            assert_ne!(buffer(&s, k), zero, "{k}");
            assert_eq!(s.data(k).as_slice(), &[fill; 8], "{k}");
            assert!(s.checksum_ok(k), "{k}");
        }
        assert!(s.zero.is_zeroed());
        assert_eq!(
            s.versioned(untouched),
            (VersionNumber::ZERO, BlockData::zeroed(8))
        );
        assert!(s.checksum_ok(untouched));
    }

    #[test]
    fn a_stale_install_from_bytes_writes_no_byte() {
        let (mut s, k) = (VersionedStore::new(2, 8), BlockIndex::new(0));
        s.install_from(k, VersionNumber::new(2), &[1; 8]);
        let (own, sums) = (buffer(&s, k), s.sums());
        for v in [1, 2] {
            assert!(!s.install_from(k, VersionNumber::new(v), &[9; 8]), "v{v}");
        }
        assert_eq!(buffer(&s, k), own);
        assert_eq!(
            s.versioned(k),
            (VersionNumber::new(2), BlockData::from(vec![1; 8]))
        );
        assert_eq!(s.sums(), sums);
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
            s.slots[0].data = Some(BlockData::from(flipped));
            assert!(!s.checksum_ok(k), "flip of bit {bit} went unseen");
        }
        s.slots[0].data = Some(BlockData::from(data));
        assert!(s.checksum_ok(k));
        s.slots[0].version = VersionNumber::new(8);
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

    #[test]
    fn a_slot_is_a_version_a_sum_and_a_data_pointer() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    /// A block as the naive model keeps it: its own bytes, always, and a
    /// sum it recomputes with [`checksum`] wherever the store's sum changes.
    #[derive(Debug, Clone)]
    struct ModelBlock {
        version: VersionNumber,
        sum: u64,
        data: Vec<u8>,
    }

    impl ModelBlock {
        fn new(version: VersionNumber, data: Vec<u8>) -> Self {
            let sum = checksum(&[version.as_u64()], &data);
            ModelBlock { version, sum, data }
        }

        fn sum_ok(&self) -> bool {
            self.sum == checksum(&[self.version.as_u64()], &self.data)
        }
    }

    const MODEL_BLOCKS: u64 = 4;
    const MODEL_BLOCK_SIZE: usize = 16;

    fn fresh_model() -> Vec<ModelBlock> {
        let zero = ModelBlock::new(VersionNumber::ZERO, vec![0; MODEL_BLOCK_SIZE]);
        vec![zero; MODEL_BLOCKS as usize]
    }

    fn model_vector(model: &[ModelBlock]) -> VersionVector {
        model.iter().map(|b| b.version).collect()
    }

    fn model_diff(
        model: &[ModelBlock],
        remote: &VersionVector,
    ) -> Vec<(BlockIndex, VersionNumber, BlockData)> {
        remote
            .iter()
            .zip(model)
            .filter(|((_, theirs), b)| b.version != *theirs)
            .map(|((k, _), b)| (k, b.version, BlockData::from(b.data.clone())))
            .collect()
    }

    /// Payload `fill`: all zero for 0, else bytes that differ along the
    /// block, so a torn prefix shows.
    fn payload(fill: u8) -> Vec<u8> {
        (0..MODEL_BLOCK_SIZE)
            .map(|i| {
                if fill == 0 {
                    0
                } else {
                    fill.wrapping_mul(i as u8 + 1)
                }
            })
            .collect()
    }

    /// One step on store `side` (0 or 1) of a pair; a repair copies from
    /// `side` to the other store.
    #[derive(Debug, Clone)]
    enum Op {
        Install(usize, u64, u64, u8),
        InstallSealed(usize, u64, u64, u8),
        InstallFrom(usize, u64, u64, u8),
        InstallFaulty(usize, u64, u64, u8, StorageFault),
        Scrub(usize),
        Repair(usize),
    }

    fn fault() -> impl Strategy<Value = StorageFault> {
        prop_oneof![
            (0..MODEL_BLOCK_SIZE + 2).prop_map(|keep| StorageFault::Torn { keep }),
            Just(StorageFault::StaleVersion),
            (0usize..64).prop_map(|keep| StorageFault::WalTorn { keep }),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let write = || (0usize..2, 0..MODEL_BLOCKS, 0u64..6, 0u8..4);
        prop_oneof![
            3 => write().prop_map(|(s, k, v, f)| Op::Install(s, k, v, f)),
            3 => write().prop_map(|(s, k, v, f)| Op::InstallSealed(s, k, v, f)),
            3 => write().prop_map(|(s, k, v, f)| Op::InstallFrom(s, k, v, f)),
            3 => (write(), fault()).prop_map(|((s, k, v, f), fault)| Op::InstallFaulty(s, k, v, f, fault)),
            1 => (0usize..2).prop_map(Op::Scrub),
            2 => (0usize..2).prop_map(Op::Repair),
        ]
    }

    /// Applies `op` to the model and returns what the store's call must
    /// return: an install's result and a scrub's reset list.
    fn model_apply(models: &mut [Vec<ModelBlock>; 2], op: &Op) -> (bool, Vec<BlockIndex>) {
        match *op {
            Op::Install(s, k, v, fill)
            | Op::InstallSealed(s, k, v, fill)
            | Op::InstallFrom(s, k, v, fill) => {
                let (v, b) = (VersionNumber::new(v), &mut models[s][k as usize]);
                let newer = v > b.version;
                if newer {
                    *b = ModelBlock::new(v, payload(fill));
                }
                (newer, Vec::new())
            }
            Op::InstallFaulty(s, k, v, fill, fault) => {
                let (v, b) = (VersionNumber::new(v), &mut models[s][k as usize]);
                let newer = v > b.version;
                if newer {
                    let new = payload(fill);
                    match fault {
                        StorageFault::Torn { keep } => {
                            let keep = keep.min(MODEL_BLOCK_SIZE);
                            b.data[..keep].copy_from_slice(&new[..keep]);
                            b.version = v;
                            b.sum = checksum(&[v.as_u64()], &new);
                        }
                        StorageFault::StaleVersion => b.data = new,
                        StorageFault::WalTorn { .. } => {}
                    }
                }
                (newer, Vec::new())
            }
            Op::Scrub(s) => {
                let mut reset = Vec::new();
                for (i, b) in models[s].iter_mut().enumerate() {
                    if !b.sum_ok() {
                        *b = ModelBlock::new(VersionNumber::ZERO, vec![0; MODEL_BLOCK_SIZE]);
                        reset.push(BlockIndex::new(i as u64));
                    }
                }
                (false, reset)
            }
            Op::Repair(s) => {
                let payload = model_diff(&models[s], &model_vector(&models[1 - s]));
                for (k, v, data) in payload {
                    models[1 - s][k.index()] = ModelBlock::new(v, data.as_slice().to_vec());
                }
                (false, Vec::new())
            }
        }
    }

    fn assert_matches(stores: &[VersionedStore; 2], models: &[Vec<ModelBlock>; 2]) {
        for (store, model) in stores.iter().zip(models) {
            for (k, b) in BlockIndex::all(MODEL_BLOCKS).zip(model) {
                let data = BlockData::from(b.data.clone());
                assert_eq!(store.version(k), b.version, "{k}");
                assert_eq!(store.data(k), data, "{k}");
                assert_eq!(store.versioned(k), (b.version, data), "{k}");
                assert_eq!(store.checksum_ok(k), b.sum_ok(), "{k}");
            }
            assert_eq!(store.version_vector(), model_vector(model));
        }
        for s in 0..2 {
            let remote = stores[1 - s].version_vector();
            assert_eq!(
                stores[s].diff_against(&remote),
                model_diff(&models[s], &remote)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_the_store_matches_a_naive_per_block_model(
            ops in prop::collection::vec(op(), 1..40),
        ) {
            let mut stores = [0, 1].map(|_| VersionedStore::new(MODEL_BLOCKS, MODEL_BLOCK_SIZE));
            let mut models = [fresh_model(), fresh_model()];
            assert_matches(&stores, &models);
            for op in &ops {
                let (installed, reset) = model_apply(&mut models, op);
                match *op {
                    Op::Install(s, k, v, fill) => prop_assert_eq!(
                        stores[s].install(BlockIndex::new(k), BlockData::from(payload(fill)), VersionNumber::new(v)),
                        installed
                    ),
                    Op::InstallSealed(s, k, v, fill) => {
                        let block = SealedBlock::new(VersionNumber::new(v), BlockData::from(payload(fill)));
                        prop_assert_eq!(stores[s].install_sealed(BlockIndex::new(k), block), installed);
                    }
                    Op::InstallFrom(s, k, v, fill) => prop_assert_eq!(
                        stores[s].install_from(BlockIndex::new(k), VersionNumber::new(v), &payload(fill)),
                        installed
                    ),
                    Op::InstallFaulty(s, k, v, fill, fault) => prop_assert_eq!(
                        stores[s].install_faulty(
                            BlockIndex::new(k),
                            BlockData::from(payload(fill)),
                            VersionNumber::new(v),
                            fault,
                        ),
                        installed
                    ),
                    Op::Scrub(s) => prop_assert_eq!(stores[s].scrub(), reset),
                    Op::Repair(s) => {
                        let payload = stores[s].diff_against(&stores[1 - s].version_vector());
                        prop_assert_eq!(stores[1 - s].apply_repair(&payload), payload.len());
                    }
                }
                assert_matches(&stores, &models);
            }
        }
    }
}
