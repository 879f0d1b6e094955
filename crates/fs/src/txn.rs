//! The operation-scoped block transaction every device access of the file
//! system goes through.
//!
//! A [`Txn`] lives for exactly one public [`FileSystem`](crate::FileSystem)
//! operation, under the file system's lock. Reads go through its map, so a
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
//! A block installed whole ([`put`](Txn::put)) enters the map as the
//! [`BlockData`] that `commit` hands the device, so a full-block write
//! costs one allocation and one copy of the caller's bytes. Every block
//! the operation zeroes ([`put_zeroed`](Txn::put_zeroed)) shares one zeroed
//! buffer. Only an edit ([`modify`](Txn::modify)) takes a private copy of
//! the block, once, on its first edit.
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
use std::collections::btree_map::{BTreeMap, Entry};

/// A block this operation will write at commit.
enum Dirty {
    /// A whole block, not yet edited: handed to the device as it is.
    Shared(BlockData),
    /// This transaction's own copy, edited in place.
    Own(Vec<u8>),
}

impl Dirty {
    fn bytes(&self) -> &[u8] {
        match self {
            Dirty::Shared(block) => block.as_slice(),
            Dirty::Own(own) => own,
        }
    }

    /// The bytes to edit, copied out of a shared block on the first edit.
    fn edit(&mut self) -> &mut [u8] {
        if let Dirty::Shared(shared) = self {
            *self = Dirty::Own(shared.as_slice().to_vec());
        }
        match self {
            Dirty::Own(own) => own,
            Dirty::Shared(_) => unreachable!("copied out above"),
        }
    }
}

/// One operation's view of the device: blocks read so far, and blocks it
/// will write at commit.
pub(crate) struct Txn<'a, D> {
    dev: &'a D,
    /// The mounted geometry, for the on-disk structures layered on top.
    pub(crate) geo: &'a FsGeometry,
    /// Blocks as fetched from the device, unmodified.
    clean: BTreeMap<u64, BlockData>,
    /// Blocks edited or installed by this operation; these shadow `clean`.
    dirty: BTreeMap<u64, Dirty>,
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
            clean: BTreeMap::new(),
            dirty: BTreeMap::new(),
            zero: None,
            alloc_from: 0,
        }
    }

    /// Block `k` as this operation sees it: its own edit if it made one,
    /// else the device's copy, fetched on first use and kept.
    pub(crate) fn get(&mut self, k: u64) -> FsResult<&[u8]> {
        if let Some(block) = self.dirty.get(&k) {
            return Ok(block.bytes());
        }
        Ok(match self.clean.entry(k) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => miss.insert(self.dev.read_block(BlockIndex::new(k))?),
        }
        .as_slice())
    }

    /// Makes every block of `ks` resident, fetching the ones this operation
    /// has not seen yet in one vectored `read_blocks`.
    pub(crate) fn get_many(&mut self, ks: impl IntoIterator<Item = u64>) -> FsResult<()> {
        let mut misses: Vec<BlockIndex> = ks
            .into_iter()
            .filter(|k| !self.dirty.contains_key(k) && !self.clean.contains_key(k))
            .map(BlockIndex::new)
            .collect();
        // `read_blocks` wants distinct indices; a cross-linked image may
        // hand us the same block twice.
        misses.sort_unstable();
        misses.dedup();
        if !misses.is_empty() {
            let fetched = self.dev.read_blocks(&misses)?;
            self.clean
                .extend(misses.iter().map(|k| k.as_u64()).zip(fetched));
        }
        Ok(())
    }

    /// Edits block `k` in memory (fetching it first if this operation has
    /// not seen it) and marks it dirty.
    pub(crate) fn modify(&mut self, k: u64, edit: impl FnOnce(&mut [u8])) -> FsResult<()> {
        let block = match self.dirty.entry(k) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => miss.insert(Dirty::Shared(match self.clean.remove(&k) {
                Some(raw) => raw,
                None => self.dev.read_block(BlockIndex::new(k))?,
            })),
        };
        edit(block.edit());
        Ok(())
    }

    /// Installs a full block without reading the old one; `commit` writes
    /// `block` itself.
    pub(crate) fn put(&mut self, k: u64, block: BlockData) {
        debug_assert_eq!(block.len(), self.geo.block_size as usize);
        self.dirty.insert(k, Dirty::Shared(block));
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
    /// inode or bitmap block before the blocks it points at. A read-only
    /// operation commits nothing and makes no device call.
    pub(crate) fn commit(mut self) -> FsResult<()> {
        if self.dirty.is_empty() {
            return Ok(());
        }
        let data = self.dirty.split_off(&self.geo.data_start);
        let writes: Vec<(BlockIndex, BlockData)> = data
            .into_iter()
            .chain(self.dirty)
            .map(|(k, block)| {
                let block = match block {
                    Dirty::Shared(block) => block,
                    Dirty::Own(own) => BlockData::from(own),
                };
                (BlockIndex::new(k), block)
            })
            .collect();
        Ok(self.dev.write_blocks(&writes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_storage::MemStore;
    use blockrep_types::DeviceResult;
    use parking_lot::Mutex;

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
