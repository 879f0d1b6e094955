//! Block allocation bitmap.

use crate::txn::Txn;
use crate::{FsError, FsResult};
use blockrep_storage::BlockDevice;

/// Allocator over the on-disk bitmap: one bit per device block, set = used.
/// Stateless — every operation reads and edits the bitmap blocks through
/// the operation's [`Txn`], so the device holds the only lasting copy and
/// crashes of the *device's* sites never desynchronize it from the data
/// (within the paper's sequential, single-client model).
pub struct Bitmap<'t, 'a, D> {
    txn: &'t mut Txn<'a, D>,
}

impl<'t, 'a, D: BlockDevice> Bitmap<'t, 'a, D> {
    /// Creates an allocator view inside `txn`.
    pub fn new(txn: &'t mut Txn<'a, D>) -> Self {
        Bitmap { txn }
    }

    fn locate(&self, block: u64) -> (u64, usize, u8) {
        let bits_per_block = self.txn.geo.block_size as u64 * 8;
        let bit = block % bits_per_block;
        (
            self.txn.geo.bitmap_start + block / bits_per_block,
            (bit / 8) as usize,
            1u8 << (bit % 8),
        )
    }

    /// Whether `block` is marked used.
    pub fn is_used(&mut self, block: u64) -> FsResult<bool> {
        let (bb, byte, mask) = self.locate(block);
        Ok(self.txn.get(bb)?[byte] & mask != 0)
    }

    /// Marks `block` used or free.
    pub fn set(&mut self, block: u64, used: bool) -> FsResult<()> {
        let (bb, byte, mask) = self.locate(block);
        self.txn.modify(bb, |raw| {
            if used {
                raw[byte] |= mask;
            } else {
                raw[byte] &= !mask;
            }
        })
    }

    /// Allocates one free data block (first fit from `data_start`), marks
    /// it used, zeroes it, and returns its index. The zero fill is a
    /// [`Txn::put`]: a caller that goes on to overwrite the whole block
    /// replaces it in memory and the zeros never reach the device.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when every data block is taken.
    pub fn alloc(&mut self) -> FsResult<u64> {
        let geo = self.txn.geo;
        let bits_per_block = geo.block_size as u64 * 8;
        for bb in 0..geo.bitmap_blocks {
            let raw = self.txn.get(geo.bitmap_start + bb)?;
            let free = raw
                .iter()
                .enumerate()
                .filter(|&(_, &byte)| byte != 0xFF)
                .flat_map(|(i, &byte)| {
                    (0..8u64)
                        .filter(move |bit| byte & (1 << bit) == 0)
                        .map(move |bit| bb * bits_per_block + i as u64 * 8 + bit)
                })
                .find(|candidate| (geo.data_start..geo.num_blocks).contains(candidate));
            if let Some(candidate) = free {
                self.set(candidate, true)?;
                // Hand out zeroed blocks so fresh files/dirs read clean.
                self.txn.put(candidate, vec![0; geo.block_size as usize]);
                return Ok(candidate);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Frees a previously allocated data block.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `block` lies in the data region.
    pub fn free(&mut self, block: u64) -> FsResult<()> {
        debug_assert!(
            (self.txn.geo.data_start..self.txn.geo.num_blocks).contains(&block),
            "freeing non-data block {block}"
        );
        self.set(block, false)
    }

    /// Number of free data blocks (for `statfs`-style reporting and tests).
    pub fn free_count(&mut self) -> FsResult<u64> {
        let mut free = 0;
        for block in self.txn.geo.data_start..self.txn.geo.num_blocks {
            if !self.is_used(block)? {
                free += 1;
            }
        }
        Ok(free)
    }

    /// Marks all metadata blocks (superblock, bitmap, inode table) used —
    /// called once at format time.
    pub fn reserve_metadata(&mut self) -> FsResult<()> {
        for block in 0..self.txn.geo.data_start {
            self.set(block, true)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FsGeometry;
    use blockrep_storage::MemStore;
    use blockrep_types::BlockIndex;

    fn setup() -> (MemStore, FsGeometry) {
        let geo = FsGeometry::plan(128, 512).unwrap();
        (MemStore::new(128, 512), geo)
    }

    #[test]
    fn metadata_reservation_covers_prefix() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut bm = Bitmap::new(&mut txn);
        bm.reserve_metadata().unwrap();
        for block in 0..geo.data_start {
            assert!(bm.is_used(block).unwrap(), "block {block}");
        }
        assert!(!bm.is_used(geo.data_start).unwrap());
    }

    #[test]
    fn alloc_returns_distinct_zeroed_data_blocks() {
        let (dev, geo) = setup();
        // Stale bytes where the first data block will be handed out.
        dev.write_block(BlockIndex::new(geo.data_start), vec![7u8; 512].into())
            .unwrap();
        let mut txn = Txn::new(&dev, &geo);
        let mut bm = Bitmap::new(&mut txn);
        bm.reserve_metadata().unwrap();
        let a = bm.alloc().unwrap();
        let b = bm.alloc().unwrap();
        assert_ne!(a, b);
        assert!(a >= geo.data_start && b >= geo.data_start);
        assert!(txn.get(a).unwrap().iter().all(|&byte| byte == 0));
        txn.commit().unwrap();
        assert!(dev.read_block(BlockIndex::new(a)).unwrap().is_zeroed());
    }

    #[test]
    fn free_makes_block_reusable() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut bm = Bitmap::new(&mut txn);
        bm.reserve_metadata().unwrap();
        let a = bm.alloc().unwrap();
        bm.free(a).unwrap();
        let b = bm.alloc().unwrap();
        assert_eq!(a, b, "first-fit reuses the freed block");
    }

    #[test]
    fn exhaustion_reports_no_space() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut bm = Bitmap::new(&mut txn);
        bm.reserve_metadata().unwrap();
        let data_blocks = geo.num_blocks - geo.data_start;
        for _ in 0..data_blocks {
            bm.alloc().unwrap();
        }
        assert!(matches!(bm.alloc(), Err(FsError::NoSpace)));
        assert_eq!(bm.free_count().unwrap(), 0);
    }

    #[test]
    fn free_count_tracks_allocations() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut bm = Bitmap::new(&mut txn);
        bm.reserve_metadata().unwrap();
        let initial = bm.free_count().unwrap();
        bm.alloc().unwrap();
        bm.alloc().unwrap();
        assert_eq!(bm.free_count().unwrap(), initial - 2);
    }

    #[test]
    fn allocations_survive_commit_and_a_fresh_transaction() {
        let (dev, geo) = setup();
        let mut txn = Txn::new(&dev, &geo);
        let mut bm = Bitmap::new(&mut txn);
        bm.reserve_metadata().unwrap();
        let a = bm.alloc().unwrap();
        txn.commit().unwrap();
        let mut txn = Txn::new(&dev, &geo);
        let mut bm = Bitmap::new(&mut txn);
        assert!(bm.is_used(a).unwrap());
        assert_eq!(bm.alloc().unwrap(), a + 1);
    }
}
