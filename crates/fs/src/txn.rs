//! The operation-scoped block transaction every device access of the file
//! system goes through.
//!
//! A [`Txn`] lives for exactly one public [`FileSystem`](crate::FileSystem)
//! operation, under the file system's lock. Reads go through its list, so a
//! block is fetched from the device at most once per operation however many
//! inodes, bitmap bits or directory entries of it the operation looks at;
//! writes only edit the in-memory copy, and [`commit`](Txn::commit) sends
//! every dirty block to the device once, in a single `write_blocks`.
//! Dropping the transaction instead (any `?` on the way) writes nothing, so
//! an operation that fails before its commit leaves the image untouched.
//!
//! A block's bytes are touched once on their way through. Callers read a
//! block in place ([`get`](Txn::get) lends the transaction's copy; a
//! directory lookup compares names in it without copying the directory).
//! The transaction keeps one list of the blocks it has seen, ordered by
//! index, and each entry is the [`BlockData`] that `commit` hands the
//! device. A block installed whole ([`put`](Txn::put)) is the caller's
//! allocation, so a full-block write costs one allocation and one copy of
//! the caller's bytes. Every block the operation zeroes
//! ([`put_zeroed`](Txn::put_zeroed)) shares one zeroed buffer. An edit
//! ([`modify`](Txn::modify)) is copy-on-write: a block shared with the
//! device or with the zeroed buffer is copied once, on its first edit,
//! and a block this operation owns alone is edited in place.
//!
//! Nothing is kept across operations: tools and tests write to the device
//! behind the file system's back, and the (replicated) device — not this
//! client — stays the single source of truth. The one piece of state a
//! transaction adds, [`Bitmap`](crate::bitmap::Bitmap)'s first-fit cursor,
//! dies with it too.

use crate::layout::FsGeometry;
use crate::FsResult;
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex};

/// Blocks the list holds before it grows: more than a lookup, a small
/// read or a small write touches, so those allocate it once.
const USUAL_BLOCKS: usize = 16;

/// One block this operation has seen.
#[derive(Clone)]
struct Slot {
    k: u64,
    data: BlockData,
    /// Edited or installed by this operation: `commit` writes it.
    dirty: bool,
}

/// One operation's view of the device: every block it has read, edited or
/// installed, ascending by index, each once.
pub(crate) struct Txn<'a, D> {
    dev: &'a D,
    /// The mounted geometry, for the on-disk structures layered on top.
    pub(crate) geo: &'a FsGeometry,
    blocks: Vec<Slot>,
    /// The zeroed block every [`put_zeroed`](Self::put_zeroed) shares.
    zero: Option<BlockData>,
    /// [`Bitmap::alloc`](crate::bitmap::Bitmap::alloc)'s first-fit cursor:
    /// no data block below it is free.
    pub(crate) alloc_from: u64,
}

impl<'a, D: BlockDevice> Txn<'a, D> {
    /// An empty transaction over `dev`.
    pub(crate) fn new(dev: &'a D, geo: &'a FsGeometry) -> Self {
        Txn {
            dev,
            geo,
            blocks: Vec::with_capacity(USUAL_BLOCKS),
            zero: None,
            alloc_from: 0,
        }
    }

    /// Where block `k` is in the list, or where it would go.
    fn find(&self, k: u64) -> Result<usize, usize> {
        self.blocks.binary_search_by_key(&k, |slot| slot.k)
    }

    /// Block `k`'s place in the list, fetching it from the device first if
    /// this operation has not seen it.
    fn slot(&mut self, k: u64) -> FsResult<usize> {
        match self.find(k) {
            Ok(at) => Ok(at),
            Err(at) => {
                let data = self.dev.read_block(BlockIndex::new(k))?;
                let dirty = false;
                self.blocks.insert(at, Slot { k, data, dirty });
                Ok(at)
            }
        }
    }

    /// Block `k` as this operation sees it: its own edit if it made one,
    /// else the device's copy, fetched on first use and kept.
    pub(crate) fn get(&mut self, k: u64) -> FsResult<&[u8]> {
        let at = self.slot(k)?;
        Ok(self.blocks[at].data.as_slice())
    }

    /// Makes every block of `ks` resident, fetching the ones this operation
    /// has not seen yet in one vectored `read_blocks`, and merging them
    /// into the list in one pass.
    pub(crate) fn get_many(&mut self, ks: impl IntoIterator<Item = u64>) -> FsResult<()> {
        let mut misses: Vec<BlockIndex> = ks
            .into_iter()
            .filter(|&k| self.find(k).is_err())
            .map(BlockIndex::new)
            .collect();
        if misses.is_empty() {
            return Ok(());
        }
        // `read_blocks` wants distinct indices; a cross-linked image may
        // hand us the same block twice.
        misses.sort_unstable();
        misses.dedup();
        let fetched = self.dev.read_blocks(&misses)?;
        debug_assert_eq!(fetched.len(), misses.len());
        let fetched = misses.iter().zip(fetched).map(|(k, data)| Slot {
            k: k.as_u64(),
            data,
            dirty: false,
        });
        let Some(filler) = self.blocks.last().cloned() else {
            self.blocks.extend(fetched);
            return Ok(());
        };
        // Merge from the back, in place: the list grows by the new blocks
        // (filled with clones of its last one), and each held block moves
        // up at most once.
        let mut held = self.blocks.len();
        self.blocks.resize(held + misses.len(), filler);
        let mut at = self.blocks.len();
        for slot in fetched.rev() {
            while held > 0 && self.blocks[held - 1].k > slot.k {
                held -= 1;
                at -= 1;
                self.blocks.swap(held, at);
            }
            at -= 1;
            self.blocks[at] = slot;
        }
        Ok(())
    }

    /// Edits block `k` in memory (fetching it first if this operation has
    /// not seen it) and marks it dirty. A block still shared with the
    /// device or the zeroed buffer is copied once, on its first edit.
    pub(crate) fn modify(&mut self, k: u64, edit: impl FnOnce(&mut [u8])) -> FsResult<()> {
        let at = self.slot(k)?;
        let slot = &mut self.blocks[at];
        slot.dirty = true;
        edit(slot.data.make_mut());
        Ok(())
    }

    /// Installs a full block without reading the old one; `commit` writes
    /// `block` itself.
    pub(crate) fn put(&mut self, k: u64, data: BlockData) {
        debug_assert_eq!(data.len(), self.geo.block_size as usize);
        let dirty = true;
        match self.find(k) {
            Ok(at) => self.blocks[at] = Slot { k, data, dirty },
            Err(at) => self.blocks.insert(at, Slot { k, data, dirty }),
        }
    }

    /// One zeroed block, allocated on first use and shared by every block
    /// of this operation that reads as zeros without being on the device.
    pub(crate) fn zeroed(&mut self) -> BlockData {
        let bs = self.geo.block_size as usize;
        self.zero
            .get_or_insert_with(|| BlockData::zeroed(bs))
            .clone()
    }

    /// Installs an all-zero block, sharing the operation's zeroed buffer.
    pub(crate) fn put_zeroed(&mut self, k: u64) {
        let zero = self.zeroed();
        self.put(k, zero);
    }

    /// Writes every dirty block, each once, in one `write_blocks`: data
    /// blocks first in ascending order, then metadata blocks ascending, so
    /// a device that applies the batch entry by entry never publishes an
    /// inode or bitmap block before the blocks it points at. Each block
    /// goes to the device as the allocation the list holds. A read-only
    /// operation commits nothing and makes no device call.
    pub(crate) fn commit(self) -> FsResult<()> {
        let dirty = self.blocks.iter().filter(|slot| slot.dirty).count();
        if dirty == 0 {
            return Ok(());
        }
        let mut blocks = self.blocks;
        let data_start = blocks.partition_point(|slot| slot.k < self.geo.data_start);
        blocks.rotate_left(data_start);
        let mut writes = Vec::with_capacity(dirty);
        writes.extend(
            blocks
                .into_iter()
                .filter(|slot| slot.dirty)
                .map(|slot| (BlockIndex::new(slot.k), slot.data)),
        );
        Ok(self.dev.write_blocks(&writes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_storage::MemStore;
    use blockrep_types::DeviceResult;
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Records every device call: `(is_write, block indices)`.
    struct Spy {
        inner: MemStore,
        calls: Mutex<Vec<(bool, Vec<u64>)>>,
    }

    impl Spy {
        fn log(&self, write: bool, ks: impl Iterator<Item = BlockIndex>) {
            self.calls
                .lock()
                .push((write, ks.map(|k| k.as_u64()).collect()));
        }
    }

    impl BlockDevice for Spy {
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
            self.log(false, [k].into_iter());
            self.inner.read_block(k)
        }
        fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
            self.log(true, [k].into_iter());
            self.inner.write_block(k, data)
        }
        fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
            self.log(false, ks.iter().copied());
            self.inner.read_blocks(ks)
        }
        fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
            self.log(true, writes.iter().map(|(k, _)| *k));
            self.inner.write_blocks(writes)
        }
    }

    fn setup() -> (Spy, FsGeometry) {
        let spy = Spy {
            inner: MemStore::new(128, 512),
            calls: Mutex::new(Vec::new()),
        };
        (spy, FsGeometry::plan(128, 512).unwrap())
    }

    #[test]
    fn repeated_reads_cost_one_device_call() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        for _ in 0..3 {
            assert!(txn.get(7).unwrap().iter().all(|&b| b == 0));
        }
        txn.get_many([7, 9, 9, 8]).unwrap();
        txn.get(8).unwrap();
        txn.commit().unwrap();
        // One single read, one vectored read of the two misses, no write.
        assert_eq!(
            *dev.calls.lock(),
            vec![(false, vec![7]), (false, vec![8, 9])]
        );
    }

    #[test]
    fn edits_are_visible_inside_and_written_once_at_commit() {
        let (dev, geo) = setup();
        let data = geo.data_start;
        let mut txn = Txn::new(&dev, &geo);
        txn.modify(2, |b| b[0] = 1).unwrap();
        txn.modify(2, |b| b[1] = 2).unwrap();
        assert_eq!(txn.get(2).unwrap()[..2], [1, 2]);
        // A put needs no read, and a later edit of it finds it in memory.
        txn.put(data + 5, vec![9; 512].into());
        txn.put(data + 5, vec![7; 512].into());
        txn.modify(data + 5, |b| b[0] = 0).unwrap();
        txn.put(data + 1, vec![3; 512].into());
        txn.modify(1, |b| b[0] = 0xFF).unwrap();
        assert!(dev.calls.lock().iter().all(|(write, _)| !write));
        txn.commit().unwrap();
        // Reads of 2 and 1 only; one write batch: data ascending, then
        // metadata ascending.
        assert_eq!(
            *dev.calls.lock(),
            vec![
                (false, vec![2]),
                (false, vec![1]),
                (true, vec![data + 1, data + 5, 1, 2]),
            ]
        );
        let raw = dev.inner.read_block(BlockIndex::new(data + 5)).unwrap();
        assert_eq!(raw.as_slice()[..2], [0, 7]);
    }

    #[test]
    fn put_blocks_reach_the_device_without_a_copy() {
        let (dev, geo) = setup();
        let data = geo.data_start;
        let block = BlockData::from(vec![5; 512]);
        let mut txn = Txn::new(&dev, &geo);
        txn.put(data, block.clone());
        txn.put_zeroed(data + 1);
        txn.put_zeroed(data + 2);
        txn.commit().unwrap();
        let at = |k| dev.inner.read_block(BlockIndex::new(k)).unwrap();
        assert_eq!(at(data).as_slice().as_ptr(), block.as_slice().as_ptr());
        // Every zero fill of one operation shares one buffer.
        assert!(at(data + 1).is_zeroed());
        assert_eq!(
            at(data + 1).as_slice().as_ptr(),
            at(data + 2).as_slice().as_ptr()
        );
    }

    #[test]
    fn an_edited_device_block_is_copied_once_and_the_device_keeps_its_own() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let before = dev.inner.read_block(BlockIndex::new(3)).unwrap();
        txn.modify(3, |b| b[0] = 1).unwrap();
        txn.modify(3, |b| b[1] = 2).unwrap();
        let edited = txn.get(3).unwrap().as_ptr();
        let at = || dev.inner.read_block(BlockIndex::new(3)).unwrap();
        assert!(at().is_zeroed(), "the device saw an edit before commit");
        assert_eq!(at().as_slice().as_ptr(), before.as_slice().as_ptr());
        txn.commit().unwrap();
        assert_eq!(at().as_slice()[..2], [1, 2]);
        // The list's one copy is what the device now holds.
        assert_eq!(at().as_slice().as_ptr(), edited);
        assert_ne!(edited, before.as_slice().as_ptr());
    }

    #[test]
    fn an_edited_put_block_commits_the_same_allocation() {
        let (dev, geo) = setup();
        let data = geo.data_start;
        let mut txn = Txn::new(&dev, &geo);
        let block = BlockData::from(vec![4; 512]);
        let installed = block.as_slice().as_ptr();
        txn.put(data, block);
        txn.modify(data, |b| b[0] = 5).unwrap();
        txn.commit().unwrap();
        let at = dev.inner.read_block(BlockIndex::new(data)).unwrap();
        assert_eq!(at.as_slice()[..2], [5, 4]);
        assert_eq!(
            at.as_slice().as_ptr(),
            installed,
            "a block the op owned was copied"
        );
    }

    #[test]
    fn the_list_stays_sorted_and_distinct_under_any_mix_of_calls() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        // Singles, batches that land before, between and past what is
        // held, repeats, and edits of held and new blocks.
        txn.get(40).unwrap();
        txn.get_many([50, 45, 50]).unwrap();
        txn.modify(10, |b| b[0] = 1).unwrap();
        txn.get_many([60, 5, 45, 47, 10, 1]).unwrap();
        txn.put(geo.data_start + 2, vec![2; 512].into());
        txn.get(7).unwrap();
        txn.modify(47, |b| b[0] = 3).unwrap();
        txn.get_many(0..12).unwrap();
        let held: Vec<u64> = txn.blocks.iter().map(|slot| slot.k).collect();
        let mut want = vec![40, 50, 45, 10, 60, 5, 47, 1, geo.data_start + 2, 7];
        want.extend(0..12);
        want.sort_unstable();
        want.dedup();
        assert_eq!(held, want);
        assert_eq!(txn.get(10).unwrap()[0], 1);
        assert_eq!(txn.get(47).unwrap()[0], 3);
        // And seeded random mixes of all four calls.
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..32 {
            let mut txn = Txn::new(&dev, &geo);
            let mut want = std::collections::BTreeSet::new();
            for _ in 0..24 {
                let k = rng.random_range(0..128u64);
                match rng.random_range(0..4u32) {
                    0 => {
                        txn.get(k).unwrap();
                    }
                    1 => {
                        let more = rng.random_range(0..8usize);
                        let ks: Vec<u64> = std::iter::once(k)
                            .chain((0..more).map(|_| rng.random_range(0..128)))
                            .collect();
                        txn.get_many(ks.iter().copied()).unwrap();
                        want.extend(ks);
                    }
                    2 => txn.modify(k, |b| b[0] = k as u8).unwrap(),
                    _ => txn.put(k, vec![k as u8; 512].into()),
                }
                want.insert(k);
                let held: Vec<u64> = txn.blocks.iter().map(|slot| slot.k).collect();
                assert_eq!(held, want.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn dropping_without_commit_writes_nothing() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        txn.modify(3, |b| b.fill(1)).unwrap();
        txn.put(geo.data_start, vec![1; 512].into());
        drop(txn);
        assert!(dev.calls.lock().iter().all(|(write, _)| !write));
        assert!(dev
            .inner
            .read_block(BlockIndex::new(3))
            .unwrap()
            .is_zeroed());
    }
}
