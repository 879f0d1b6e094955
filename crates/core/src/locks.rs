//! Coordinator-side concurrency control: the sharded block-lock table and
//! the read-lease registry.
//!
//! # Block locks
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
//!
//! # Read leases
//!
//! [`LeaseTable`] is the coordinator-granted read-lease registry behind
//! Harmonia-style read offload (see PAPERS.md): after a successful quorum
//! operation the coordinator records which replicas are *known current*
//! for a block and at what version. A later read consults the lease and
//! fetches from one known-current replica in a single round — or serves
//! locally for free — instead of assembling a read quorum. Leases are
//! invalidated at the start of every write fan-out and re-granted after
//! the installs land; any failure, repair or topology change bumps the
//! table's epoch, which invalidates every outstanding lease at once.
//! Served lease reads are version-validated against the grant, so even a
//! replica answering with a stale copy (the chaos suite's `StaleLease`
//! fault) degrades to a quorum read instead of breaking one-copy
//! semantics.

use crate::backend::BlockVec;
use blockrep_types::{BlockIndex, SiteId, VersionNumber};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// One granted lease: the version every holder was known to hold, the
/// holders themselves, and the table epoch the grant belongs to.
#[derive(Debug, Clone)]
struct LeaseEntry {
    epoch: u64,
    version: VersionNumber,
    holders: Vec<SiteId>,
}

/// The coordinator-granted read-lease registry (see the [module
/// docs](self)). Disabled by default; [`set_enabled`](Self::set_enabled)
/// turns the read-offload path on.
#[derive(Debug)]
pub struct LeaseTable {
    enabled: AtomicBool,
    epoch: AtomicU64,
    shards: Vec<Mutex<HashMap<u64, LeaseEntry>>>,
}

impl LeaseTable {
    /// Creates an empty, disabled table.
    pub fn new() -> Self {
        LeaseTable {
            enabled: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard_of(&self, k: BlockIndex) -> usize {
        (k.as_u64() % self.shards.len() as u64) as usize
    }

    /// Turns lease-based read offload on or off. Turning it off drops no
    /// state; lookups simply stop answering.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether read offload is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The current epoch. Capture it *before* assembling a quorum and pass
    /// it to [`grant`](Self::grant): if a failure intervenes, the bumped
    /// epoch makes the late grant dead on arrival instead of stale.
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Invalidates every outstanding lease at once by advancing the epoch.
    /// Called on every failure, repair and topology change.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Records that every site in `holders` holds block `k` at `version`,
    /// as certified by a quorum assembled while the table was at `epoch`.
    /// A no-op when disabled or when the epoch has moved on.
    pub fn grant(&self, k: BlockIndex, version: VersionNumber, holders: &[SiteId], epoch: u64) {
        if !self.enabled() || epoch != self.current_epoch() {
            return;
        }
        let entry = LeaseEntry {
            epoch,
            version,
            holders: holders.to_vec(),
        };
        self.shards[self.shard_of(k)]
            .lock()
            .insert(k.as_u64(), entry);
    }

    /// Revokes block `k`'s lease (the start of every write fan-out).
    #[inline]
    pub fn invalidate(&self, k: BlockIndex) {
        if !self.enabled() {
            return;
        }
        self.shards[self.shard_of(k)].lock().remove(&k.as_u64());
    }

    /// The current-epoch lease for block `k`, if any: the certified version
    /// and the known-current holders.
    #[inline]
    pub fn lookup(&self, k: BlockIndex) -> Option<(VersionNumber, Vec<SiteId>)> {
        if !self.enabled() {
            return None;
        }
        let shard = self.shards[self.shard_of(k)].lock();
        let entry = shard.get(&k.as_u64())?;
        if entry.epoch != self.current_epoch() || entry.holders.is_empty() {
            return None;
        }
        Some((entry.version, entry.holders.clone()))
    }
}

impl Default for LeaseTable {
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

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
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

    #[test]
    fn leases_are_off_by_default_and_grant_is_inert() {
        let t = LeaseTable::new();
        t.grant(k(0), VersionNumber::new(1), &[sid(0)], t.current_epoch());
        assert_eq!(t.lookup(k(0)), None);
    }

    #[test]
    fn grant_lookup_invalidate_roundtrip() {
        let t = LeaseTable::new();
        t.set_enabled(true);
        let e = t.current_epoch();
        t.grant(k(2), VersionNumber::new(7), &[sid(0), sid(2)], e);
        assert_eq!(
            t.lookup(k(2)),
            Some((VersionNumber::new(7), vec![sid(0), sid(2)]))
        );
        t.invalidate(k(2));
        assert_eq!(t.lookup(k(2)), None);
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let t = LeaseTable::new();
        t.set_enabled(true);
        let e = t.current_epoch();
        t.grant(k(0), VersionNumber::new(1), &[sid(0)], e);
        t.grant(k(1), VersionNumber::new(2), &[sid(1)], e);
        t.bump_epoch();
        assert_eq!(t.lookup(k(0)), None);
        assert_eq!(t.lookup(k(1)), None);
    }

    #[test]
    fn grant_with_a_stale_epoch_is_dead_on_arrival() {
        let t = LeaseTable::new();
        t.set_enabled(true);
        let e = t.current_epoch();
        t.bump_epoch(); // a failure lands between quorum assembly and grant
        t.grant(k(0), VersionNumber::new(3), &[sid(0)], e);
        assert_eq!(t.lookup(k(0)), None);
    }

    #[test]
    fn a_heal_time_epoch_bump_beats_an_in_flight_grant() {
        // A partition heals (epoch bump) while a grant whose quorum was
        // assembled before the heal is still in flight. The late grant must
        // be dead on arrival — whatever order it lands in relative to the
        // bump — and only a grant certified at the new epoch may serve.
        let t = LeaseTable::new();
        t.set_enabled(true);
        let e = t.current_epoch();
        t.grant(k(3), VersionNumber::new(1), &[sid(0)], e);
        assert!(t.lookup(k(3)).is_some());
        t.bump_epoch(); // the heal: every outstanding lease dies at once
        t.grant(k(3), VersionNumber::new(2), &[sid(1)], e); // late grant
        assert_eq!(t.lookup(k(3)), None, "a dead lease was resurrected");
        let healed = t.current_epoch();
        t.grant(k(3), VersionNumber::new(2), &[sid(1)], healed);
        assert_eq!(
            t.lookup(k(3)),
            Some((VersionNumber::new(2), vec![sid(1)])),
            "a current-epoch grant must serve after the heal"
        );
    }

    #[test]
    fn a_grant_racing_the_epoch_bump_never_resurrects_a_dead_lease() {
        // The threaded version of the heal race: the grant and the bump run
        // concurrently from a barrier, with the grant's epoch captured
        // before the bump. Whichever interleaving the scheduler picks —
        // including a bump landing between the grant's epoch check and its
        // insert — the lookup must never serve the dead lease.
        use std::sync::Barrier;
        let table = Arc::new(LeaseTable::new());
        table.set_enabled(true);
        for round in 0..200u64 {
            let e = table.current_epoch();
            let barrier = Arc::new(Barrier::new(2));
            let granter = {
                let table = Arc::clone(&table);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    table.grant(k(5), VersionNumber::new(round + 1), &[sid(0)], e);
                })
            };
            let healer = {
                let table = Arc::clone(&table);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    table.bump_epoch();
                })
            };
            granter.join().unwrap();
            healer.join().unwrap();
            assert_eq!(
                table.lookup(k(5)),
                None,
                "round {round}: a grant racing the heal-time epoch bump \
                 resurrected a dead lease"
            );
        }
    }
}
