//! Coordinator-side concurrency control: the sharded block-lock table.
//!
//! The paper's protocols (§3) are defined *per block*, yet the runtimes
//! historically serialized every operation behind one coordinator-wide
//! mutex. [`BlockLockTable`] restores the paper's granularity: each block
//! maps to one of a fixed set of shards, each shard is an independent
//! readers-writer lock, and a protocol operation holds only the shards of
//! the blocks it touches. Operations on distinct blocks in distinct shards
//! never serialize; two writers of the *same* block are mutually excluded,
//! so the vote → `max(v) + 1` → install sequence of Figure 4 stays atomic
//! under concurrent clients.
//!
//! Blocks map to shards by 64-block *stripe*: block `k` locks shard
//! `⌊k / 64⌋ mod 64`. A batched run of `r` blocks therefore takes at most
//! `⌈r / 64⌉ + 1` shards (one or two for the 64-block runs a vectored op
//! sends), not one per block. The price is that neighbouring blocks share
//! a lock: two writers of different blocks in one stripe serialize. Two
//! uniformly random blocks still collide 1 time in 64, as under `k mod 64`,
//! but real traffic has locality (adjacent blocks, a file system's bitmaps,
//! inode table and directories in a few low stripes), and what the stripe
//! costs concurrent clients on such traffic has not been measured: every
//! benchmark workload has one client. `STRIPE` = 1 restores `k mod 64`
//! for that comparison.
//!
//! **Lock-ordering discipline.** Multi-block operations acquire their
//! shards in strictly ascending shard-index order, asserted at every
//! acquisition, so two batched writers can never deadlock however their
//! block sets overlap. `blockrep-lint`'s lock-order pass machine-verifies
//! it, and the ascending target order of
//! [`TcpCluster`](crate::TcpCluster)'s scatter loops, which take a
//! connection-pool lock per target but hold none across a round trip.
//! Replica locks are only ever acquired *after* block-shard locks (and one
//! at a time), so the global order is `block shard (ascending) → replica`.
//! The available-copy recovery sweep takes every shard
//! ([`write_guard_all`](BlockLockTable::write_guard_all)): a site's copy
//! from its source and its promotion to available must not straddle a
//! write that left the site out.

use crate::backend::BlockVec;
use blockrep_types::BlockIndex;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of shards in a [`BlockLockTable`]. A power of two comfortably
/// above any realistic client count, so independent blocks rarely collide.
const SHARDS: usize = 64;

/// Blocks per lock stripe: block `k` locks shard `⌊k / STRIPE⌋ mod SHARDS`.
/// A run of up to `STRIPE` blocks takes one or two shards. Two uniformly
/// random blocks still share a shard with probability `1 / SHARDS`, but
/// neighbouring blocks always do; the module docs say what that costs.
const STRIPE: u64 = 64;

// A batch's shard set is one `u64` bitmask.
const _: () = assert!(SHARDS <= u64::BITS as usize);

/// A sharded readers-writer lock table over block indices.
///
/// See the [module docs](self) for the locking discipline.
#[derive(Debug)]
pub struct BlockLockTable {
    shards: Vec<RwLock<()>>,
}

/// The held shard guards of one run, each tagged with its shard index so
/// multi-shard acquisitions can assert the ascending-order discipline. A
/// run takes one shard or two (see the module docs); one is held inline, so a
/// single-block operation allocates nothing for its locks.
pub type ShardGuards<G> = BlockVec<(usize, Option<G>)>;

impl BlockLockTable {
    /// Creates a table with the default shard count.
    pub fn new() -> Self {
        BlockLockTable {
            shards: (0..SHARDS).map(|_| RwLock::new(())).collect(),
        }
    }

    /// The shard a block hashes to: its stripe, modulo the shard count.
    fn shard_of(k: BlockIndex) -> usize {
        ((k.as_u64() / STRIPE) % SHARDS as u64) as usize
    }

    /// Acquires block `k`'s shard for shared (read) access.
    pub fn read_guard(&self, k: BlockIndex) -> RwLockReadGuard<'_, ()> {
        self.shards[Self::shard_of(k)].read()
    }

    /// Acquires block `k`'s shard for exclusive (write) access.
    pub fn write_guard(&self, k: BlockIndex) -> RwLockWriteGuard<'_, ()> {
        self.shards[Self::shard_of(k)].write()
    }

    /// The shards of `ks`, ascending and deduplicated — the only order
    /// multi-shard acquisitions are permitted to use: the set bits of a
    /// mask with bit `s` for shard `s`, lowest first.
    fn shards_of(ks: &[BlockIndex]) -> impl Iterator<Item = usize> {
        let mut mask = ks
            .iter()
            .fold(0u64, |mask, &k| mask | 1 << Self::shard_of(k));
        std::iter::from_fn(move || {
            let s = mask.trailing_zeros() as usize;
            mask &= mask.wrapping_sub(1);
            (s < SHARDS).then_some(s)
        })
    }

    /// Acquires the shards of every block in `ks` for shared access, in
    /// ascending shard order.
    pub fn read_guard_many(&self, ks: &[BlockIndex]) -> ShardGuards<RwLockReadGuard<'_, ()>> {
        let mut guards = ShardGuards::new();
        for s in Self::shards_of(ks) {
            debug_assert!(
                guards.last().is_none_or(|&(prev, _)| prev < s),
                "block-lock shards must be acquired in ascending order"
            );
            guards.push((s, Some(self.shards[s].read())));
        }
        guards
    }

    /// Acquires the shards of every block in `ks` for exclusive access, in
    /// ascending shard order (the deadlock-freedom discipline the module
    /// docs describe; `blockrep-lint` verifies the assertion is in place).
    pub fn write_guard_many(&self, ks: &[BlockIndex]) -> ShardGuards<RwLockWriteGuard<'_, ()>> {
        let mut guards = ShardGuards::new();
        for s in Self::shards_of(ks) {
            debug_assert!(
                guards.last().is_none_or(|&(prev, _)| prev < s),
                "block-lock shards must be acquired in ascending order"
            );
            guards.push((s, Some(self.shards[s].write())));
        }
        guards
    }

    /// Acquires every shard for exclusive access: while the guards are held
    /// no block operation is in flight. `from_fn` calls its closure in
    /// index order, so the shards are taken ascending, and nothing is
    /// allocated.
    pub fn write_guard_all(&self) -> [RwLockWriteGuard<'_, ()>; SHARDS] {
        std::array::from_fn(|s| self.shards[s].write())
    }
}

impl Default for BlockLockTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn k(i: u64) -> BlockIndex {
        BlockIndex::new(i)
    }

    #[test]
    fn distinct_shards_do_not_serialize() {
        let table = Arc::new(BlockLockTable::new());
        let g0 = table.write_guard(k(0));
        // Block 64 starts the next stripe: its shard is still acquirable
        // while shard 0 is held.
        let g1 = table.write_guard(k(64));
        drop(g0);
        drop(g1);
    }

    /// The shards a batch over `ks` takes, in acquisition order; readers
    /// and writers take the same ones.
    fn shards_taken(ks: impl IntoIterator<Item = u64>) -> Vec<usize> {
        let table = BlockLockTable::new();
        let ks: Vec<BlockIndex> = ks.into_iter().map(k).collect();
        let written: Vec<usize> = table
            .write_guard_many(&ks)
            .iter()
            .map(|&(s, _)| s)
            .collect();
        let read: Vec<usize> = table.read_guard_many(&ks).iter().map(|&(s, _)| s).collect();
        assert_eq!(written, read);
        written
    }

    #[test]
    fn a_run_takes_its_stripes_not_its_blocks() {
        // A 64-aligned run is one stripe.
        assert_eq!(shards_taken(128..192), vec![2]);
        // A 128-block run over two placement groups is two.
        assert_eq!(shards_taken(0..128), vec![0, 1]);
        // So is a 64-block run straddling a stripe boundary.
        assert_eq!(shards_taken(32..96), vec![0, 1]);
        // Stripe 64 wraps onto shard 0.
        assert_eq!(shards_taken([0, 4_096]), vec![0]);
        // Stripes 63 and 64 wrap too, and still come back ascending.
        assert_eq!(shards_taken(4_032..4_160), vec![0, 63]);
    }

    #[test]
    fn readers_share_a_shard() {
        let table = BlockLockTable::new();
        let r1 = table.read_guard(k(3));
        let r2 = table.read_guard(k(3));
        drop(r1);
        drop(r2);
    }

    #[test]
    fn multi_shard_guards_come_back_ascending_and_deduped() {
        let table = BlockLockTable::new();
        // 64-block stripes: 65, 0 and 1 map to shards {1, 0, 0} → {0, 1}.
        let guards = table.write_guard_many(&[k(65), k(0), k(1)]);
        let shards: Vec<usize> = guards.iter().map(|&(s, _)| s).collect();
        assert_eq!(shards, vec![0, 1]);
        drop(guards); // the readers below want the same shards
        let readers = table.read_guard_many(&[k(65), k(0), k(1)]);
        assert_eq!(readers.len(), 2);
    }

    #[test]
    fn same_block_writers_exclude_each_other() {
        let table = Arc::new(BlockLockTable::new());
        let g = table.write_guard(k(5));
        let t = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let _g = table.write_guard(k(5));
            })
        };
        // The spawned writer must block until the guard drops.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "second writer acquired a held shard");
        drop(g);
        t.join().unwrap();
    }
}
