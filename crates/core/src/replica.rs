//! Per-site replica state.

use blockrep_storage::wal::{self, WalRecord};
use blockrep_storage::{SealedBlock, StorageFault, VersionedStore};
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, SiteId, VersionNumber, VersionVector};
use std::collections::BTreeSet;

/// Replica journals are cleared on every restart scrub, so stale bytes of a
/// previous generation never survive to be re-scanned — one fixed epoch is
/// enough.
const JOURNAL_EPOCH: u64 = 1;

/// Byte capacity of the modeled journal, mirroring the real `Wal`'s bounded
/// data region: an append that would exceed it models a forced checkpoint
/// (clear, then append), so a long-lived journaled site never grows the
/// buffer without bound. The checkpoint is just truncation here because the
/// store already models synced stable storage — every record it drops
/// belongs to a clean install the store holds durably. (A faulty install's
/// record is never dropped before its replay: the fault *is* the crash, so
/// no further install — and hence no checkpoint — runs before the restart
/// scrub.)
const JOURNAL_CAPACITY: usize = 64 * 1024;

/// Everything one site's server process keeps on stable storage for the
/// reliable device: its versioned block store (it survives fail-stop
/// crashes) and — for available copy — its was-available set `W_s`
/// (Definition 3.1), which is still there when the site restarts after a
/// failure. Whether the site is *up* is not the replica's to know: site
/// state lives with the coordinator's link model, next to the topology.
///
/// # Examples
///
/// ```
/// use blockrep_core::Replica;
/// use blockrep_types::{BlockIndex, DeviceConfig, Scheme, SiteId, VersionNumber};
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let cfg = DeviceConfig::builder(Scheme::AvailableCopy).sites(3).build()?;
/// let r = Replica::new(SiteId::new(1), &cfg);
/// assert_eq!(r.version(BlockIndex::new(0)), VersionNumber::ZERO);
/// assert_eq!(r.was_available().len(), 3); // initially W_s = S
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Replica {
    id: SiteId,
    store: VersionedStore,
    was_available: BTreeSet<SiteId>,
    /// The site's write-ahead journal (`Some` when the device is
    /// configured `journaled`): the encoded record byte stream of
    /// `blockrep_storage::wal`, appended *before* every install touches
    /// the store and replayed by [`scrub`](Self::scrub) on restart. Like
    /// the store it models stable storage, so it survives fail-stop. It is
    /// bounded by [`JOURNAL_CAPACITY`] via modeled forced checkpoints.
    journal: Option<Vec<u8>>,
}

impl Replica {
    /// Creates the replica of a freshly formatted device: all blocks zeroed
    /// at version zero, and `W_s = S` (every site saw the "initial write").
    pub fn new(id: SiteId, cfg: &DeviceConfig) -> Self {
        Replica {
            id,
            store: VersionedStore::new(cfg.num_blocks(), cfg.block_size()),
            was_available: cfg.site_ids().collect(),
            journal: cfg.journaled().then(Vec::new),
        }
    }

    /// This replica's site identifier.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The disk's geometry: number of blocks and block size in bytes.
    pub(crate) fn geometry(&self) -> (u64, usize) {
        (self.store.num_blocks(), self.store.block_size())
    }

    /// The version number this site holds for block `k` — its vote.
    pub fn version(&self, k: BlockIndex) -> VersionNumber {
        self.store.version(k)
    }

    /// The data of block `k` as stored locally (no consistency guarantee;
    /// protocols decide when this is safe to serve).
    pub fn data(&self, k: BlockIndex) -> BlockData {
        self.store.data(k)
    }

    /// Version and data together, as shipped to a stale reader.
    pub fn versioned(&self, k: BlockIndex) -> (VersionNumber, BlockData) {
        self.store.versioned(k)
    }

    /// Appends the write-ahead record for an install about to happen —
    /// the WAL discipline: the journal sees the write before the store
    /// does. `torn` truncates the record to its first `keep` bytes, the
    /// image of a crash mid-append.
    fn journal_install(
        &mut self,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
        torn: Option<usize>,
    ) {
        // Mirror the store's monotone guard: a stale install never starts
        // any disk activity, so it must not reach the journal either.
        if self.journal.is_none() || v <= self.store.version(k) {
            return;
        }
        let encoded = wal::encode_record(
            JOURNAL_EPOCH,
            &WalRecord {
                block: k,
                version: v,
                payload: data.clone(),
            },
        );
        let keep = torn.unwrap_or(encoded.len()).min(encoded.len());
        if let Some(journal) = &mut self.journal {
            if journal.len() + keep > JOURNAL_CAPACITY {
                journal.clear();
            }
            journal.extend_from_slice(&encoded[..keep]);
        }
    }

    /// Installs a block at a version if newer than the local copy; returns
    /// whether anything changed. On a journaled device the write-ahead
    /// record is appended first.
    pub fn install(&mut self, k: BlockIndex, data: BlockData, v: VersionNumber) -> bool {
        self.journal_install(k, &data, v, None);
        self.store.install(k, data, v)
    }

    /// [`install`](Self::install) of a block sealed where its write chose
    /// the version: the store keeps the sum the seal carries.
    pub fn install_sealed(&mut self, k: BlockIndex, block: SealedBlock) -> bool {
        self.journal_install(k, block.data(), block.version(), None);
        self.store.install_sealed(k, block)
    }

    /// Installs a block but leaves it in the broken on-disk state `fault`
    /// describes — the disk image of a crash mid-write. Used only by the
    /// fault-injection layer.
    ///
    /// On a journaled device the record is appended before the faulty
    /// store write, so a later [`scrub`](Self::scrub) replays it — except
    /// for [`StorageFault::WalTorn`], where the crash hit the journal
    /// append itself and only a torn prefix of the record lands.
    pub fn install_faulty(
        &mut self,
        k: BlockIndex,
        data: BlockData,
        v: VersionNumber,
        fault: StorageFault,
    ) -> bool {
        let torn = match fault {
            StorageFault::WalTorn { keep } => Some(keep),
            StorageFault::Torn { .. } | StorageFault::StaleVersion => None,
        };
        self.journal_install(k, &data, v, torn);
        self.store.install_faulty(k, data, v, fault)
    }

    /// Restart-time integrity pass: resets every checksum-broken block to
    /// the freshly formatted state, then — on a journaled device — replays
    /// the journal's longest valid record prefix through the monotone
    /// install guard, restoring every write whose record was fully
    /// appended before the crash. The journal is cleared afterwards so the
    /// repair exchange that follows stays authoritative (a rolled-back
    /// orphan must not resurrect on the next restart). Returns the blocks
    /// the integrity pass reset, replayed or not — the caller's log line
    /// reports checksum damage, not recovery outcome.
    pub fn scrub(&mut self) -> Vec<BlockIndex> {
        let reset = self.store.scrub();
        if let Some(journal) = &mut self.journal {
            let (records, _) = wal::scan(JOURNAL_EPOCH, journal);
            journal.clear();
            for rec in records {
                self.store.install(rec.block, rec.payload, rec.version);
            }
        }
        reset
    }

    /// Bytes currently in the write-ahead journal (`None` when the device
    /// is not journaled).
    pub fn journal_len(&self) -> Option<usize> {
        self.journal.as_ref().map(Vec::len)
    }

    /// A copy of the full version vector.
    pub fn version_vector(&self) -> VersionVector {
        self.store.version_vector()
    }

    /// Blocks whose version here differs from `remote` — the repair payload
    /// for a recovering site (Figure 5's `(v', {blocks})` response). The
    /// source is authoritative in both directions so that a write the
    /// recovering site installed orphaned just before crashing is rolled
    /// back rather than surviving as a colliding version.
    pub fn repair_payload(
        &self,
        remote: &VersionVector,
    ) -> (VersionVector, Vec<(BlockIndex, VersionNumber, BlockData)>) {
        (self.version_vector(), self.store.diff_against(remote))
    }

    /// Applies a repair payload; returns the number of blocks replaced.
    pub fn apply_repair(&mut self, blocks: Vec<(BlockIndex, VersionNumber, BlockData)>) -> usize {
        self.store.apply_repair(blocks)
    }

    /// The was-available set `W_s`.
    pub fn was_available(&self) -> &BTreeSet<SiteId> {
        &self.was_available
    }

    /// Replaces `W_s` (on a write or a detected failure).
    pub fn set_was_available(&mut self, w: BTreeSet<SiteId>) {
        self.was_available = w;
    }

    /// Adds a site to `W_s` (a site "repaired from" this one).
    pub fn add_was_available(&mut self, s: SiteId) {
        self.was_available.insert(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::Scheme;

    fn cfg() -> DeviceConfig {
        DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap()
    }

    #[test]
    fn fresh_replica_is_zeroed_with_full_w() {
        let r = Replica::new(SiteId::new(0), &cfg());
        assert_eq!(r.was_available().len(), 3);
        assert_eq!(r.version(BlockIndex::new(0)), VersionNumber::ZERO);
    }

    #[test]
    fn repair_payload_roundtrip() {
        let mut current = Replica::new(SiteId::new(0), &cfg());
        let mut stale = Replica::new(SiteId::new(1), &cfg());
        current.install(
            BlockIndex::new(2),
            BlockData::from(vec![9; 8]),
            VersionNumber::new(4),
        );
        let (vv, blocks) = current.repair_payload(&stale.version_vector());
        assert_eq!(blocks.len(), 1);
        assert_eq!(stale.apply_repair(blocks), 1);
        assert_eq!(stale.version_vector(), vv);
    }

    fn journaled_cfg() -> DeviceConfig {
        DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(4)
            .block_size(8)
            .journaled(true)
            .build()
            .unwrap()
    }

    #[test]
    fn journaled_scrub_replays_torn_install() {
        let mut r = Replica::new(SiteId::new(0), &journaled_cfg());
        let k = BlockIndex::new(1);
        r.install(k, BlockData::from(vec![1; 8]), VersionNumber::new(1));
        // Crash mid block write: metadata new, data half old.
        r.install_faulty(
            k,
            BlockData::from(vec![2; 8]),
            VersionNumber::new(2),
            StorageFault::Torn { keep: 4 },
        );
        let reset = r.scrub();
        assert_eq!(
            reset,
            vec![k],
            "the integrity pass still reports the damage"
        );
        // ...but the journal held the full record, so the write survives.
        assert_eq!(r.version(k), VersionNumber::new(2));
        assert_eq!(r.data(k).as_slice(), &[2; 8]);
        assert_eq!(r.journal_len(), Some(0), "journal cleared after replay");
    }

    #[test]
    fn journaled_scrub_replays_stale_version_install() {
        let mut r = Replica::new(SiteId::new(0), &journaled_cfg());
        let k = BlockIndex::new(0);
        r.install(k, BlockData::from(vec![1; 8]), VersionNumber::new(1));
        r.install_faulty(
            k,
            BlockData::from(vec![9; 8]),
            VersionNumber::new(2),
            StorageFault::StaleVersion,
        );
        r.scrub();
        assert_eq!(r.version(k), VersionNumber::new(2));
        assert_eq!(r.data(k).as_slice(), &[9; 8]);
    }

    #[test]
    fn journaled_wal_torn_discards_only_the_torn_record() {
        let mut r = Replica::new(SiteId::new(0), &journaled_cfg());
        let (a, b) = (BlockIndex::new(0), BlockIndex::new(1));
        r.install(a, BlockData::from(vec![1; 8]), VersionNumber::new(1));
        // Crash mid journal append: the record lands torn, the block is
        // never written.
        r.install_faulty(
            b,
            BlockData::from(vec![7; 8]),
            VersionNumber::new(3),
            StorageFault::WalTorn { keep: 5 },
        );
        assert_eq!(
            r.version(b),
            VersionNumber::ZERO,
            "block write never started"
        );
        assert!(r.scrub().is_empty(), "no checksum damage anywhere");
        // The earlier record replays; the torn one is discarded.
        assert_eq!(r.version(a), VersionNumber::new(1));
        assert_eq!(r.version(b), VersionNumber::ZERO);
        assert_eq!(r.data(a).as_slice(), &[1; 8]);
    }

    #[test]
    fn unjournaled_replica_keeps_seed_behavior() {
        let mut r = Replica::new(SiteId::new(0), &cfg());
        assert_eq!(r.journal_len(), None);
        let k = BlockIndex::new(1);
        r.install_faulty(
            k,
            BlockData::from(vec![2; 8]),
            VersionNumber::new(2),
            StorageFault::Torn { keep: 4 },
        );
        assert_eq!(r.scrub(), vec![k]);
        // Without a journal the write is gone: zeroed at version zero.
        assert_eq!(r.version(k), VersionNumber::ZERO);
        assert!(r.data(k).is_zeroed());
    }

    #[test]
    fn stale_install_never_reaches_the_journal() {
        let mut r = Replica::new(SiteId::new(0), &journaled_cfg());
        let k = BlockIndex::new(2);
        r.install(k, BlockData::from(vec![5; 8]), VersionNumber::new(4));
        let len = r.journal_len().unwrap();
        assert!(len > 0);
        // Replaying an old write is a no-op on disk and in the journal.
        r.install(k, BlockData::from(vec![9; 8]), VersionNumber::new(3));
        assert_eq!(r.journal_len(), Some(len));
    }

    #[test]
    fn model_journal_is_bounded_by_forced_checkpoints() {
        let mut r = Replica::new(SiteId::new(0), &journaled_cfg());
        let k = BlockIndex::new(0);
        // Far more install traffic than JOURNAL_CAPACITY holds (each record
        // is 28 + 8 bytes): the modeled checkpoints must keep the buffer
        // bounded without losing any cleanly installed write.
        let last = 4_000u64;
        for v in 1..=last {
            r.install(k, BlockData::from(vec![v as u8; 8]), VersionNumber::new(v));
            assert!(r.journal_len().unwrap() <= JOURNAL_CAPACITY);
        }
        assert_eq!(r.version(k), VersionNumber::new(last));
        // A restart scrub over the truncated journal stays a no-op for the
        // store: the checkpointed records were already durable there.
        assert!(r.scrub().is_empty());
        assert_eq!(r.version(k), VersionNumber::new(last));
        assert_eq!(r.data(k).as_slice(), &[last as u8; 8]);
    }

    #[test]
    fn was_available_updates() {
        let mut r = Replica::new(SiteId::new(0), &cfg());
        r.set_was_available([SiteId::new(0), SiteId::new(2)].into_iter().collect());
        assert_eq!(r.was_available().len(), 2);
        r.add_was_available(SiteId::new(1));
        assert!(r.was_available().contains(&SiteId::new(1)));
    }
}
