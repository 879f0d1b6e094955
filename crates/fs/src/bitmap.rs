//! Block allocation bitmap.
//!
//! One bit per device block, set = used, bit `i` of a bitmap block being
//! bit `i % 8` of byte `i / 8` — so eight bytes read little-endian are 64
//! consecutive blocks, and [`Bitmap::alloc`] scans a word at a time.
//!
//! Allocation is first fit: the lowest free data block. A scan starts at
//! the transaction's cursor rather than at block 0. The cursor is the
//! lowest block not yet known to be used. It starts at 0, moves past
//! every block an `alloc` finds used or takes, and drops to any block a
//! [`Bitmap::set`] clears. So no free data block ever lies below it, and
//! a scan from it finds the block a scan from 0 would. It also reads the
//! same bitmap blocks: every block below the cursor's was read by an
//! earlier scan of the same operation. N allocations in one operation
//! cost one pass over the bitmap, not N, and every block still lands
//! where it always has. The cursor lives in the [`Txn`] and dies with it.
//!
//! A fresh block is zeroed by [`Txn::put_zeroed`]: it shares the
//! operation's one zeroed buffer, and a caller that goes on to overwrite
//! the whole block replaces it in memory, so the zeros never reach the
//! device.

use crate::txn::Txn;
use crate::{FsError, FsResult};
use blockrep_storage::BlockDevice;

/// Allocator over the on-disk bitmap: one bit per device block, set = used.
/// Every operation reads and edits the bitmap blocks through the
/// operation's [`Txn`], so the device holds the only lasting copy and
/// crashes of the *device's* sites never desynchronize it from the data
/// (within the paper's sequential, single-client model).
pub struct Bitmap<'t, 'a, D> {
    txn: &'t mut Txn<'a, D>,
}

/// The first clear bit at or after bit `from` of a bitmap block, read 64
/// bits at a time. A short last word reads its missing bytes as set.
fn first_clear(raw: &[u8], from: u64) -> Option<u64> {
    let first = from / 64;
    // The bits below `from` in its word count as set.
    let mut below = (1u64 << (from % 64)) - 1;
    for (word, chunk) in (first..).zip(raw.chunks(8).skip(first as usize)) {
        let mut bytes = [0xFF; 8];
        bytes[..chunk.len()].copy_from_slice(chunk);
        let used = u64::from_le_bytes(bytes) | below;
        if used != u64::MAX {
            return Some(word * 64 + u64::from(used.trailing_ones()));
        }
        below = 0;
    }
    None
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

    /// Marks `block` used or free. Freeing lowers the transaction's
    /// first-fit cursor to `block`.
    pub fn set(&mut self, block: u64, used: bool) -> FsResult<()> {
        let (bb, byte, mask) = self.locate(block);
        if !used {
            self.txn.alloc_from = self.txn.alloc_from.min(block);
        }
        self.txn.modify(bb, |raw| {
            if used {
                raw[byte] |= mask;
            } else {
                raw[byte] &= !mask;
            }
        })
    }

    /// Allocates the lowest free data block, marks it used, zeroes it, and
    /// returns its index. The scan starts at the transaction's cursor and
    /// reads the bitmap a word at a time (see the module docs).
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when every data block is taken.
    pub fn alloc(&mut self) -> FsResult<u64> {
        let geo = self.txn.geo;
        let bits_per_block = geo.block_size as u64 * 8;
        loop {
            let from = self.txn.alloc_from;
            if from >= geo.num_blocks {
                return Err(FsError::NoSpace);
            }
            let base = from - from % bits_per_block;
            let raw = self.txn.get(geo.bitmap_start + from / bits_per_block)?;
            let Some(block) = first_clear(raw, from - base).map(|bit| base + bit) else {
                self.txn.alloc_from = base + bits_per_block;
                continue;
            };
            self.txn.alloc_from = block + 1;
            // A clear bit below the data region is a damaged image's
            // reserved block, not a free one.
            if (geo.data_start..geo.num_blocks).contains(&block) {
                self.set(block, true)?;
                self.txn.put_zeroed(block);
                return Ok(block);
            }
        }
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
    fn first_clear_reads_whole_words_and_a_short_tail() {
        let mut raw = [0xFF; 20];
        assert_eq!(first_clear(&raw, 0), None);
        raw[9] = 0b1110_1111; // bit 76
        raw[18] = 0b0111_1111; // bit 151, in the 4-byte tail word
        assert_eq!(first_clear(&raw, 0), Some(76));
        assert_eq!(first_clear(&raw, 76), Some(76));
        assert_eq!(first_clear(&raw, 77), Some(151));
        assert_eq!(first_clear(&raw, 152), None);
        assert_eq!(first_clear(&raw, 1_000), None);
    }

    /// Random allocations and frees, several per transaction, against the
    /// plain first-fit rule, on a geometry whose block size is not a
    /// multiple of 8 and whose metadata fills a whole bitmap block.
    #[test]
    fn alloc_is_first_fit_whatever_the_cursor_has_seen() {
        let geo = FsGeometry::plan(4000, 100).unwrap();
        assert!(geo.data_start > geo.block_size as u64 * 8);
        let dev = MemStore::new(4000, 100);
        let mut txn = Txn::new(&dev, &geo);
        Bitmap::new(&mut txn).reserve_metadata().unwrap();
        txn.commit().unwrap();
        let mut used = vec![false; 4000];
        let mut seed = 7u64;
        for _ in 0..60 {
            let mut txn = Txn::new(&dev, &geo);
            let mut bm = Bitmap::new(&mut txn);
            for _ in 0..40 {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let pick = geo.data_start + (seed >> 33) % (4000 - geo.data_start);
                if (seed >> 20) % 3 == 0 && used[pick as usize] {
                    bm.free(pick).unwrap();
                    used[pick as usize] = false;
                } else {
                    let want = (geo.data_start..4000).find(|&b| !used[b as usize]);
                    assert_eq!(bm.alloc().ok(), want);
                    if let Some(b) = want {
                        used[b as usize] = true;
                    }
                }
            }
            txn.commit().unwrap();
        }
        assert!(used.iter().filter(|&&u| u).count() > 500);
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
