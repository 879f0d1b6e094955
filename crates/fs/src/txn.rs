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
//! Nothing is kept across operations: tools and tests write to the device
//! behind the file system's back, and the (replicated) device — not this
//! client — stays the single source of truth.

use crate::layout::FsGeometry;
use crate::FsResult;
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex};
use std::collections::btree_map::{BTreeMap, Entry};

/// One operation's view of the device: blocks read so far, and blocks it
/// will write at commit.
pub(crate) struct Txn<'a, D> {
    dev: &'a D,
    /// The mounted geometry, for the on-disk structures layered on top.
    pub(crate) geo: &'a FsGeometry,
    /// Blocks as fetched from the device, unmodified.
    clean: BTreeMap<u64, BlockData>,
    /// Blocks edited or installed by this operation; these shadow `clean`.
    dirty: BTreeMap<u64, Vec<u8>>,
}

impl<'a, D: BlockDevice> Txn<'a, D> {
    /// An empty transaction over `dev`.
    pub(crate) fn new(dev: &'a D, geo: &'a FsGeometry) -> Self {
        Txn {
            dev,
            geo,
            clean: BTreeMap::new(),
            dirty: BTreeMap::new(),
        }
    }

    /// Block `k` as this operation sees it: its own edit if it made one,
    /// else the device's copy, fetched on first use and kept.
    pub(crate) fn get(&mut self, k: u64) -> FsResult<&[u8]> {
        if let Some(bytes) = self.dirty.get(&k) {
            return Ok(bytes);
        }
        Ok(match self.clean.entry(k) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => miss.insert(self.dev.read_block(BlockIndex::new(k))?),
        }
        .as_slice())
    }

    /// Makes every block of `ks` resident, fetching the ones this operation
    /// has not seen yet in one vectored `read_blocks`.
    pub(crate) fn get_many(&mut self, ks: &[u64]) -> FsResult<()> {
        let mut misses: Vec<BlockIndex> = ks
            .iter()
            .filter(|k| !self.dirty.contains_key(k) && !self.clean.contains_key(k))
            .map(|&k| BlockIndex::new(k))
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
        let bytes = match self.dirty.entry(k) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => {
                let old = match self.clean.remove(&k) {
                    Some(raw) => raw,
                    None => self.dev.read_block(BlockIndex::new(k))?,
                };
                miss.insert(old.as_slice().to_vec())
            }
        };
        edit(bytes);
        Ok(())
    }

    /// Installs a full block without reading the old one.
    pub(crate) fn put(&mut self, k: u64, bytes: Vec<u8>) {
        debug_assert_eq!(bytes.len(), self.geo.block_size as usize);
        self.dirty.insert(k, bytes);
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
            .map(|(k, bytes)| (BlockIndex::new(k), BlockData::from(bytes)))
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
        txn.get_many(&[7, 9, 9, 8]).unwrap();
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
        txn.put(data + 5, vec![9; 512]);
        txn.put(data + 5, vec![7; 512]);
        txn.modify(data + 5, |b| b[0] = 0).unwrap();
        txn.put(data + 1, vec![3; 512]);
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
    fn dropping_without_commit_writes_nothing() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        txn.modify(3, |b| b.fill(1)).unwrap();
        txn.put(geo.data_start, vec![1; 512]);
        drop(txn);
        assert!(dev.calls.lock().iter().all(|(write, _)| !write));
        assert!(dev
            .inner
            .read_block(BlockIndex::new(3))
            .unwrap()
            .is_zeroed());
    }
}
