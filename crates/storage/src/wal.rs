//! Per-site write-ahead journal with group commit.
//!
//! The write-back cache (DESIGN.md §4e) buys coalescing by holding dirty
//! blocks in client memory, and the paper's §3.2 write-all durability
//! guarantee is lost for exactly as long as they stay there. The journal
//! restores it without giving the coalescing back: every install appends a
//! checksummed, length-prefixed `(block, version, payload)` record to a
//! sequential log, and **group commit** folds a batch of appends into one
//! vectored device write followed by a single [`flush`](BlockDevice::flush)
//! (`sync_data` on a [`FileStore`](crate::FileStore)). A burst of N installs
//! therefore costs one fsync instead of N — the regime studied for
//! synchronous writes on stable memory devices — while the log, not the
//! data device, is the durable truth.
//!
//! # On-device layout
//!
//! The journal lives on any [`BlockDevice`]. Block 0 is a superblock
//! (magic, format version, epoch, advisory committed length, checksum),
//! rewritten only by [`Wal::truncate`] — never by a commit. Records are
//! packed densely from block 1 onward:
//!
//! ```text
//! [len: u32] [crc: u64] [block: u64] [version: u64] [payload: len-16 bytes]
//! ```
//!
//! all little-endian, where `crc` is the storage crate's word-wise checksum
//! of the payload under the header words `(epoch, block, version)`. Folding
//! the epoch into the checksum is what makes truncation cheap: bumping the
//! epoch in the superblock invalidates every record byte still sitting in
//! the data region, so truncate never has to erase anything.
//!
//! # Recovery
//!
//! [`Wal::open`] ignores the advisory committed length and scans the whole
//! data region for the longest valid prefix of records, stopping at the
//! first short read or checksum mismatch — the torn tail a crash can leave
//! behind. [`Journaled::open`] replays that prefix onto the data device in
//! append order before serving a single read, then checkpoints. A crash at
//! *any* byte offset of the journal therefore loses at most the records
//! whose group commit had not yet returned — exactly the writes that were
//! never acknowledged.

use crate::checksum::checksum;
use crate::BlockDevice;
use blockrep_obs::metrics::{global, Counter};
use blockrep_types::{BlockData, BlockIndex, DeviceError, DeviceResult, VersionNumber};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Superblock magic: "BRWL" (blockrep write-ahead log).
const MAGIC: [u8; 4] = *b"BRWL";
/// On-device format version: bumped whenever the layout or either checksum
/// changes, so [`Wal::open`] refuses a journal it would misread.
const FORMAT: u32 = 2;
/// Bytes of the superblock that carry data (magic + format + epoch +
/// committed length + checksum).
const SUPERBLOCK_LEN: usize = 4 + 4 + 8 + 8 + 8;
/// Bytes of a record before the payload (`len` + `crc` framing followed by
/// the `block` and `version` fields counted inside `len`).
const RECORD_HEADER: usize = 4 + 8 + 8 + 8;
/// Fixed portion counted by a record's `len` field (`block` + `version`).
const RECORD_FIXED: u32 = 16;

/// One journal entry: the `(block, version-vector line, payload)` triple of
/// a single install.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The block the install targets.
    pub block: BlockIndex,
    /// The version-vector line shipped with the install.
    pub version: VersionNumber,
    /// The block payload.
    pub payload: BlockData,
}

impl WalRecord {
    /// Bytes this record occupies in the log.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER + self.payload.len()
    }
}

/// Encodes one record for journal `epoch`.
pub fn encode_record(epoch: u64, rec: &WalRecord) -> Vec<u8> {
    let len = RECORD_FIXED + rec.payload.len() as u32;
    let crc = checksum(
        &[epoch, rec.block.as_u64(), rec.version.as_u64()],
        rec.payload.as_slice(),
    );
    let mut out = Vec::with_capacity(rec.encoded_len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&rec.block.as_u64().to_le_bytes());
    out.extend_from_slice(&rec.version.as_u64().to_le_bytes());
    out.extend_from_slice(rec.payload.as_slice());
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Decodes the record starting at `bytes[0]` for `epoch`, returning it with
/// the number of bytes it occupied — or `None` on a short read, a framing
/// violation, or a checksum mismatch (all three mean "torn tail" to a
/// recovery scan).
fn decode_record(epoch: u64, bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < RECORD_HEADER {
        return None;
    }
    let len = read_u32(bytes, 0);
    if len < RECORD_FIXED {
        return None;
    }
    let payload_len = (len - RECORD_FIXED) as usize;
    let total = RECORD_HEADER + payload_len;
    if bytes.len() < total {
        return None;
    }
    let crc = read_u64(bytes, 4);
    let block = read_u64(bytes, 12);
    let version = read_u64(bytes, 20);
    let payload = &bytes[RECORD_HEADER..total];
    if crc != checksum(&[epoch, block, version], payload) {
        return None;
    }
    Some((
        WalRecord {
            block: BlockIndex::new(block),
            version: VersionNumber::new(version),
            payload: BlockData::from(payload.to_vec()),
        },
        total,
    ))
}

/// Scans `bytes` for the longest valid prefix of `epoch` records, stopping
/// at the first torn record. Returns the records and the prefix length in
/// bytes; everything past the prefix is the discarded tail.
pub fn scan(epoch: u64, bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0;
    while let Some((rec, used)) = decode_record(epoch, &bytes[pos..]) {
        records.push(rec);
        pos += used;
    }
    (records, pos)
}

/// Cumulative counters of a [`Wal`] (and of the [`Journaled`] wrapper over
/// it). Counters survive truncation; `epoch`, `committed_len` and
/// `pending_records` describe the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Group commits — each one device write batch plus exactly one
    /// [`flush`](BlockDevice::flush) of the journal device.
    pub commits: u64,
    /// Bytes made durable by commits.
    pub synced_bytes: u64,
    /// Records recovered by [`Wal::open`]'s scan.
    pub replayed: u64,
    /// Torn or stale tail bytes discarded by [`Wal::open`]'s scan.
    pub discarded_bytes: u64,
    /// Epoch bumps ([`Wal::truncate`] calls).
    pub truncations: u64,
    /// Current journal epoch.
    pub epoch: u64,
    /// Bytes of the record stream that are durable.
    pub committed_len: u64,
    /// Records appended but not yet committed.
    pub pending_records: u64,
}

/// Gated global mirrors of [`WalStats`], resolved once like the cache's
/// (see `cache.rs`): a disabled-observability bump pays one relaxed load.
struct ObsWal {
    appends: Arc<Counter>,
    commits: Arc<Counter>,
    synced_bytes: Arc<Counter>,
    replayed: Arc<Counter>,
    discarded_bytes: Arc<Counter>,
    truncations: Arc<Counter>,
}

impl ObsWal {
    fn get() -> &'static ObsWal {
        static SET: OnceLock<ObsWal> = OnceLock::new();
        SET.get_or_init(|| ObsWal {
            appends: global().counter("storage.wal.appends"),
            commits: global().counter("storage.wal.commits"),
            synced_bytes: global().counter("storage.wal.synced_bytes"),
            replayed: global().counter("storage.wal.replayed"),
            discarded_bytes: global().counter("storage.wal.discarded_bytes"),
            truncations: global().counter("storage.wal.truncations"),
        })
    }
}

#[derive(Debug)]
struct WalState {
    /// The full record byte stream of the current epoch (committed prefix
    /// plus pending tail). Keeping it in memory avoids read-modify-write of
    /// the partial tail block on every commit.
    buf: Vec<u8>,
    /// Bytes of `buf` that are durable on the journal device.
    committed_len: usize,
    /// Records appended since the last commit.
    pending: u64,
    epoch: u64,
    stats: WalStats,
}

/// A write-ahead record log over any [`BlockDevice`], with group commit.
///
/// Appends buffer in memory and become durable in batches: every
/// `batch_window` appends — or an explicit [`commit`](Self::commit) —
/// triggers one vectored write of the dirty tail plus exactly one
/// [`flush`](BlockDevice::flush) of the journal device. See the module
/// docs for the on-device layout and the recovery contract.
pub struct Wal<J: BlockDevice> {
    dev: J,
    /// Bytes the data region (blocks 1..) can hold.
    capacity: usize,
    batch_window: usize,
    state: Mutex<WalState>,
    obs: &'static ObsWal,
}

impl<J: BlockDevice> Wal<J> {
    /// Formats `dev` as a fresh journal at epoch 1 and syncs the
    /// superblock.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the superblock write.
    ///
    /// # Panics
    ///
    /// Panics if `batch_window` is zero, the device has fewer than two
    /// blocks, or its block size cannot hold the superblock.
    pub fn create(dev: J, batch_window: usize) -> DeviceResult<Self> {
        let wal = Wal::bare(dev, batch_window, 1);
        wal.write_superblock(1, 0)?;
        wal.dev.flush()?;
        Ok(wal)
    }

    /// Opens an existing journal and recovers its committed records: the
    /// data region is scanned for the longest valid prefix of the
    /// superblock's epoch, the torn tail past it is discarded, and the
    /// recovered records are returned in append order for the caller to
    /// replay. New appends continue behind the recovered prefix.
    ///
    /// A discarded tail is zeroed on the device (and synced) before the
    /// journal accepts appends: a torn group commit can leave byte-valid
    /// same-epoch records *past* the tear, and if those bytes survived, a
    /// later crash could let a scan run across the new tail into them,
    /// resurrecting writes this recovery already rolled back.
    ///
    /// A torn *superblock* (checksum mismatch, or no magic at all) can only
    /// be left by a crash inside [`truncate`](Self::truncate) or
    /// [`create`](Self::create) — the two writers of block 0, both of which
    /// run after the data device was synced — so the journal is reformatted
    /// as empty, zeroing the data region to keep stale records of
    /// unknowable epochs from ever replaying.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] when block 0 carries the journal magic
    /// under another format version: that is some other build's journal,
    /// not a torn one, and it is left untouched. Propagates device errors
    /// from the scan or the reformat.
    ///
    /// # Panics
    ///
    /// As for [`create`](Self::create).
    pub fn open(dev: J, batch_window: usize) -> DeviceResult<(Self, Vec<WalRecord>)> {
        let mut wal = Wal::bare(dev, batch_window, 1);
        let sb = wal.dev.read_block(BlockIndex::new(0))?;
        let sb = sb.as_slice();
        let format = read_u32(sb, 4);
        if sb[..4] == MAGIC && format != FORMAT {
            return Err(DeviceError::InvalidConfig(format!(
                "journal is format {format}, this build reads format {FORMAT}"
            )));
        }
        let torn = sb[..4] != MAGIC
            || read_u64(sb, SUPERBLOCK_LEN - 8) != checksum(&[], &sb[..SUPERBLOCK_LEN - 8]);
        if torn {
            let zero = BlockData::zeroed(wal.dev.block_size());
            let wipe: Vec<(BlockIndex, BlockData)> = (1..wal.dev.num_blocks())
                .map(|b| (BlockIndex::new(b), zero.clone()))
                .collect();
            wal.dev.write_blocks(&wipe)?;
            wal.write_superblock(1, 0)?;
            wal.dev.flush()?;
            return Ok((wal, Vec::new()));
        }
        let epoch = read_u64(sb, 8);
        let ks: Vec<BlockIndex> = (1..wal.dev.num_blocks()).map(BlockIndex::new).collect();
        let mut bytes = Vec::with_capacity(wal.capacity);
        for data in wal.dev.read_blocks(&ks)? {
            bytes.extend_from_slice(data.as_slice());
        }
        let (records, valid) = scan(epoch, &bytes);
        // The discarded tail ends at the last non-zero byte: past that is
        // space the log never reached, not debris.
        let tail_end = bytes
            .iter()
            .rposition(|&b| b != 0)
            .map_or(valid, |i| (i + 1).max(valid));
        let discarded = (tail_end - valid) as u64;
        bytes.truncate(valid);
        if tail_end > valid {
            // Wipe the discarded tail so same-epoch residue past the tear
            // can never rejoin the log behind a future append stream. The
            // block straddling the prefix boundary is rewritten with its
            // committed bytes plus zeroes; blocks past it are zeroed whole.
            let bs = wal.dev.block_size();
            let mut writes = Vec::new();
            let mut off = valid / bs * bs;
            while off < tail_end {
                let mut block = vec![0u8; bs];
                if off < valid {
                    block[..valid - off].copy_from_slice(&bytes[off..valid]);
                }
                writes.push((
                    BlockIndex::new(1 + (off / bs) as u64),
                    BlockData::from(block),
                ));
                off += bs;
            }
            wal.dev.write_blocks(&writes)?;
            wal.dev.flush()?;
        }
        {
            let state = wal.state.get_mut();
            state.epoch = epoch;
            state.committed_len = valid;
            state.buf = bytes;
            state.stats.replayed = records.len() as u64;
            state.stats.discarded_bytes = discarded;
        }
        if blockrep_obs::enabled() {
            wal.obs.replayed.add(records.len() as u64);
            wal.obs.discarded_bytes.add(discarded);
        }
        Ok((wal, records))
    }

    fn bare(dev: J, batch_window: usize, epoch: u64) -> Self {
        assert!(batch_window > 0, "a batch window needs at least one slot");
        assert!(
            dev.num_blocks() >= 2,
            "a journal needs a superblock and at least one data block"
        );
        assert!(
            dev.block_size() >= SUPERBLOCK_LEN,
            "journal block size must hold the superblock"
        );
        let capacity = (dev.num_blocks() as usize - 1) * dev.block_size();
        Wal {
            dev,
            capacity,
            batch_window,
            state: Mutex::new(WalState {
                buf: Vec::new(),
                committed_len: 0,
                pending: 0,
                epoch,
                stats: WalStats {
                    epoch,
                    ..WalStats::default()
                },
            }),
            obs: ObsWal::get(),
        }
    }

    fn write_superblock(&self, epoch: u64, committed_len: u64) -> DeviceResult<()> {
        let mut sb = vec![0u8; self.dev.block_size()];
        sb[..4].copy_from_slice(&MAGIC);
        sb[4..8].copy_from_slice(&FORMAT.to_le_bytes());
        sb[8..16].copy_from_slice(&epoch.to_le_bytes());
        sb[16..24].copy_from_slice(&committed_len.to_le_bytes());
        let crc = checksum(&[], &sb[..SUPERBLOCK_LEN - 8]);
        sb[24..SUPERBLOCK_LEN].copy_from_slice(&crc.to_le_bytes());
        self.dev
            .write_block(BlockIndex::new(0), BlockData::from(sb))
    }

    /// Bytes of record stream the data region can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of record stream currently in the log (committed + pending).
    pub fn len(&self) -> usize {
        self.state.lock().buf.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether appending `extra` more record bytes would overflow the data
    /// region (the caller should checkpoint and truncate first).
    fn would_overflow(&self, extra: usize) -> bool {
        self.state.lock().buf.len() + extra > self.capacity
    }

    /// Current journal epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        let state = self.state.lock();
        let mut stats = state.stats;
        stats.epoch = state.epoch;
        stats.committed_len = state.committed_len as u64;
        stats.pending_records = state.pending;
        stats
    }

    /// Borrows the journal device.
    pub fn device(&self) -> &J {
        &self.dev
    }

    /// Unwraps the journal, returning the device without committing —
    /// pending appends are dropped, as a crash would drop them.
    pub fn into_device(self) -> J {
        self.dev
    }

    /// Appends one record to the log. The record is buffered; it becomes
    /// durable at the next group commit, which this call triggers itself
    /// once `batch_window` records are pending.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the record does not fit in the data
    /// region (checkpoint and [`truncate`](Self::truncate) first), and
    /// propagates device errors from an auto-commit.
    pub fn append(&self, rec: &WalRecord) -> DeviceResult<()> {
        let mut state = self.state.lock();
        if state.buf.len() + rec.encoded_len() > self.capacity {
            return Err(DeviceError::Io(std::io::Error::other(
                "journal data region is full; checkpoint and truncate first",
            )));
        }
        let encoded = encode_record(state.epoch, rec);
        state.buf.extend_from_slice(&encoded);
        state.pending += 1;
        state.stats.appends += 1;
        if blockrep_obs::enabled() {
            self.obs.appends.inc();
        }
        if state.pending >= self.batch_window as u64 {
            self.commit_locked(&mut state)?;
        }
        Ok(())
    }

    /// Group commit: makes every pending append durable with one vectored
    /// write of the dirty tail and exactly one
    /// [`flush`](BlockDevice::flush) of the journal device. A no-op when
    /// nothing is pending.
    ///
    /// # Errors
    ///
    /// Propagates device errors; on error the appends stay pending.
    pub fn commit(&self) -> DeviceResult<()> {
        self.commit_locked(&mut self.state.lock())
    }

    fn commit_locked(&self, state: &mut WalState) -> DeviceResult<()> {
        if state.buf.len() == state.committed_len {
            state.pending = 0;
            return Ok(());
        }
        // Phase span for the causal trace: attaches under whatever device
        // op triggered the commit (None when no op span is open).
        let _append_span = if blockrep_obs::enabled() && blockrep_obs::trace::enabled() {
            static PHASE: OnceLock<u32> = OnceLock::new();
            let phase = *PHASE.get_or_init(|| blockrep_obs::trace::phase_id("phase.wal_append"));
            blockrep_obs::trace::start_phase(phase, 0)
        } else {
            None
        };
        let bs = self.dev.block_size();
        // Rewrite from the block holding the first un-committed byte: the
        // committed prefix before it is already durable and untouched.
        let first_dirty = state.committed_len / bs * bs;
        let mut writes = Vec::new();
        let mut off = first_dirty;
        while off < state.buf.len() {
            let end = (off + bs).min(state.buf.len());
            let mut block = vec![0u8; bs];
            block[..end - off].copy_from_slice(&state.buf[off..end]);
            writes.push((
                BlockIndex::new(1 + (off / bs) as u64),
                BlockData::from(block),
            ));
            off += bs;
        }
        self.dev.write_blocks(&writes)?;
        self.dev.flush()?;
        let synced = (state.buf.len() - state.committed_len) as u64;
        state.committed_len = state.buf.len();
        state.pending = 0;
        state.stats.commits += 1;
        state.stats.synced_bytes += synced;
        if blockrep_obs::enabled() {
            self.obs.commits.inc();
            self.obs.synced_bytes.add(synced);
        }
        Ok(())
    }

    /// Empties the log by bumping the epoch: the superblock is rewritten
    /// and synced, which invalidates every record byte still in the data
    /// region (their checksums bind the old epoch). Callers must sync the
    /// data device *before* truncating — after this call the journal no
    /// longer protects the records it held.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the superblock write or sync.
    pub fn truncate(&self) -> DeviceResult<()> {
        let mut state = self.state.lock();
        let epoch = state.epoch + 1;
        self.write_superblock(epoch, 0)?;
        self.dev.flush()?;
        state.epoch = epoch;
        state.buf.clear();
        state.committed_len = 0;
        state.pending = 0;
        state.stats.truncations += 1;
        if blockrep_obs::enabled() {
            self.obs.truncations.inc();
        }
        Ok(())
    }
}

impl<J: BlockDevice + std::fmt::Debug> std::fmt::Debug for Wal<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dev", &self.dev)
            .field("batch_window", &self.batch_window)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// A durable write-through wrapper: every write is journaled to a [`Wal`]
/// *before* it reaches the data device, and [`flush`](BlockDevice::flush)
/// commits the journal — **not** the data device — so a batch of writes
/// costs one `sync_data` however many blocks it touched.
///
/// The journal is the durable truth: after a crash,
/// [`open`](Journaled::open) scans it, discards the torn tail, replays the
/// committed records onto the data device in append order, and only then
/// serves reads. [`checkpoint`](Journaled::checkpoint) bounds the replay
/// work by syncing the data device and truncating the journal; the write
/// path checkpoints itself when the journal would overflow.
///
/// Stack a write-back [`CacheStore`](crate::CacheStore) *on top* of this
/// wrapper and the cache's coalesced flush becomes durable: the flush's
/// vectored write lands here, is journaled, and costs one group commit.
///
/// # Examples
///
/// ```
/// use blockrep_storage::{BlockDevice, Journaled, MemStore};
/// use blockrep_types::{BlockData, BlockIndex};
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let dev = Journaled::create(MemStore::new(8, 512), MemStore::new(16, 512), 16)?;
/// dev.write_block(BlockIndex::new(3), BlockData::from(vec![7u8; 512]))?;
/// dev.flush()?; // one group commit: the write is now durable
/// assert_eq!(dev.stats().commits, 1);
/// # Ok(())
/// # }
/// ```
pub struct Journaled<D: BlockDevice, J: BlockDevice> {
    /// `Some` until [`abandon`](Self::abandon) takes the devices out (the
    /// `Drop` impl commits only while they are still here).
    inner: Option<D>,
    wal: Option<Wal<J>>,
    /// Monotone version stamped into journal records, so replay order is
    /// visible in the log itself.
    seq: AtomicU64,
}

impl<D: BlockDevice, J: BlockDevice> Journaled<D, J> {
    /// Wraps `inner` with a freshly formatted journal on `journal`,
    /// group-committing every `batch_window` writes.
    ///
    /// # Errors
    ///
    /// Propagates device errors from formatting the journal.
    ///
    /// # Panics
    ///
    /// Panics if the journal geometry cannot hold the superblock plus one
    /// full-block record, or `batch_window` is zero.
    pub fn create(inner: D, journal: J, batch_window: usize) -> DeviceResult<Self> {
        let wal = Wal::create(journal, batch_window)?;
        Self::with_wal(inner, wal, 1)
    }

    /// Opens `inner` behind an existing journal, running crash recovery
    /// first: the journal is scanned, the torn tail discarded, the
    /// committed records replayed onto `inner` in append order, and the
    /// journal checkpointed — only then is the device ready to serve.
    ///
    /// # Errors
    ///
    /// Propagates device errors, and rejects journal records whose payload
    /// size does not match `inner`'s block size.
    ///
    /// # Panics
    ///
    /// As for [`create`](Self::create).
    pub fn open(inner: D, journal: J, batch_window: usize) -> DeviceResult<Self> {
        let (wal, records) = Wal::open(journal, batch_window)?;
        let mut seq = 1;
        for rec in &records {
            if rec.payload.len() != inner.block_size() {
                return Err(DeviceError::InvalidConfig(format!(
                    "journal record payload of {} bytes does not match the data \
                     device block size {}",
                    rec.payload.len(),
                    inner.block_size()
                )));
            }
            inner.check_block(rec.block)?;
            seq = seq.max(rec.version.as_u64() + 1);
        }
        let writes: Vec<(BlockIndex, BlockData)> = records
            .into_iter()
            .map(|rec| (rec.block, rec.payload))
            .collect();
        // Replay in append order; later records overwrite earlier ones, so
        // replay over a partially-applied data device converges to the
        // same state as over an unapplied one.
        inner.write_blocks(&writes)?;
        let journaled = Self::with_wal(inner, wal, seq)?;
        journaled.checkpoint()?;
        Ok(journaled)
    }

    fn with_wal(inner: D, wal: Wal<J>, seq: u64) -> DeviceResult<Self> {
        assert!(
            wal.capacity() >= RECORD_HEADER + inner.block_size(),
            "journal data region must hold at least one full-block record"
        );
        Ok(Journaled {
            inner: Some(inner),
            wal: Some(wal),
            seq: AtomicU64::new(seq),
        })
    }

    fn dev(&self) -> &D {
        self.inner
            .as_ref()
            .expect("data device is present until abandon")
    }

    fn wal(&self) -> &Wal<J> {
        self.wal.as_ref().expect("journal is present until abandon")
    }

    /// Borrows the data device.
    pub fn inner(&self) -> &D {
        self.dev()
    }

    /// Borrows the journal.
    pub fn wal_ref(&self) -> &Wal<J> {
        self.wal()
    }

    /// Journal counters.
    pub fn stats(&self) -> WalStats {
        self.wal().stats()
    }

    /// Syncs the data device and truncates the journal, in that order —
    /// the replay bound resets to empty. Runs under a `phase.checkpoint`
    /// trace span.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the journal is only truncated after the
    /// data device acknowledged its sync.
    pub fn checkpoint(&self) -> DeviceResult<()> {
        let _span = if blockrep_obs::enabled() && blockrep_obs::trace::enabled() {
            static PHASE: OnceLock<u32> = OnceLock::new();
            let phase = *PHASE.get_or_init(|| blockrep_obs::trace::phase_id("phase.checkpoint"));
            blockrep_obs::trace::start_phase(phase, 0)
        } else {
            None
        };
        self.wal().commit()?;
        self.dev().flush()?;
        self.wal().truncate()
    }

    /// Unwraps both devices *without* committing or checkpointing — the
    /// crash-simulation escape hatch for recovery tests: pending appends
    /// and unsynced state are dropped exactly as a power cut would drop
    /// them.
    pub fn abandon(mut self) -> (D, J) {
        let inner = self
            .inner
            .take()
            .expect("abandon runs before the destructor");
        let wal = self.wal.take().expect("abandon runs before the destructor");
        (inner, wal.into_device())
    }

    /// Stamps the next journal record for `(k, data)`.
    fn next_record(&self, k: BlockIndex, data: &BlockData) -> WalRecord {
        WalRecord {
            block: k,
            version: VersionNumber::new(self.seq.fetch_add(1, Ordering::Relaxed)),
            payload: data.clone(),
        }
    }

    /// Appends one record for `(k, data)`, checkpointing first when the
    /// journal would overflow. Safe for the single-block path only: every
    /// record already in the journal belongs to a write that has reached
    /// the data device, so the checkpoint's data-device sync covers it.
    fn journal_write(&self, k: BlockIndex, data: &BlockData) -> DeviceResult<()> {
        let rec = self.next_record(k, data);
        if self.wal().would_overflow(rec.encoded_len()) {
            self.checkpoint()?;
        }
        self.wal().append(&rec)
    }
}

impl<D: BlockDevice, J: BlockDevice> BlockDevice for Journaled<D, J> {
    fn num_blocks(&self) -> u64 {
        self.dev().num_blocks()
    }

    fn block_size(&self) -> usize {
        self.dev().block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.dev().read_block(k)
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.dev().read_blocks(ks)
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        self.dev().check_block(k)?;
        self.dev().check_payload(&data)?;
        // Journal first: the log is the durable truth, the data device a
        // cached projection of it.
        self.journal_write(k, &data)?;
        self.dev().write_block(k, data)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        for (k, data) in writes {
            self.dev().check_block(*k)?;
            self.dev().check_payload(data)?;
        }
        // Journal-then-apply in chunks that each fit the journal whole, so
        // a forced checkpoint only ever lands on a chunk boundary — after
        // the previous chunk's blocks reached the data device. A mid-batch
        // checkpoint would sync a data device that does not yet hold the
        // batch's earlier blocks and then truncate away their records,
        // losing them to a crash even after flush() acknowledged the batch.
        let capacity = self.wal().capacity();
        let mut start = 0;
        while start < writes.len() {
            let mut end = start;
            let mut chunk_len = 0;
            while end < writes.len() {
                let rec_len = RECORD_HEADER + writes[end].1.len();
                if end > start && chunk_len + rec_len > capacity {
                    break;
                }
                chunk_len += rec_len;
                end += 1;
            }
            if self.wal().would_overflow(chunk_len) {
                self.checkpoint()?;
            }
            for (k, data) in &writes[start..end] {
                self.wal().append(&self.next_record(*k, data))?;
            }
            self.dev().write_blocks(&writes[start..end])?;
            start = end;
        }
        Ok(())
    }

    /// Commits the journal — one group commit, one `sync_data` — and
    /// nothing else: the data device is only synced by
    /// [`checkpoint`](Journaled::checkpoint).
    fn flush(&self) -> DeviceResult<()> {
        self.wal().commit()
    }
}

impl<D: BlockDevice, J: BlockDevice> Drop for Journaled<D, J> {
    fn drop(&mut self) {
        // Best-effort commit-on-drop; `abandon` already took the devices
        // when they are gone.
        if let Some(wal) = &self.wal {
            let _ = wal.commit();
        }
    }
}

impl<D, J> std::fmt::Debug for Journaled<D, J>
where
    D: BlockDevice + std::fmt::Debug,
    J: BlockDevice + std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journaled")
            .field("inner", &self.inner)
            .field("wal", &self.wal)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use proptest::prelude::*;

    fn rec(block: u64, version: u64, payload: Vec<u8>) -> WalRecord {
        WalRecord {
            block: BlockIndex::new(block),
            version: VersionNumber::new(version),
            payload: BlockData::from(payload),
        }
    }

    /// Counts flushes of the wrapped device — the stand-in for counting
    /// real `sync_data` calls.
    struct SyncCounter {
        inner: MemStore,
        flushes: AtomicU64,
        write_batches: AtomicU64,
    }

    impl SyncCounter {
        fn new(num_blocks: u64, block_size: usize) -> Self {
            SyncCounter {
                inner: MemStore::new(num_blocks, block_size),
                flushes: AtomicU64::new(0),
                write_batches: AtomicU64::new(0),
            }
        }
    }

    impl BlockDevice for SyncCounter {
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
            self.inner.read_block(k)
        }
        fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
            self.inner.write_block(k, data)
        }
        fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
            self.write_batches.fetch_add(1, Ordering::Relaxed);
            self.inner.write_blocks(writes)
        }
        fn flush(&self) -> DeviceResult<()> {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn record_roundtrips() {
        let r = rec(5, 9, vec![1, 2, 3, 4]);
        let encoded = encode_record(7, &r);
        assert_eq!(encoded.len(), r.encoded_len());
        let (decoded, used) = decode_record(7, &encoded).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(used, encoded.len());
    }

    #[test]
    fn decode_rejects_wrong_epoch() {
        let encoded = encode_record(7, &rec(5, 9, vec![1, 2, 3]));
        assert!(decode_record(8, &encoded).is_none());
    }

    #[test]
    fn decode_rejects_flipped_bytes() {
        let r = rec(5, 9, vec![1, 2, 3, 4]);
        for i in 4..r.encoded_len() {
            let mut bad = encode_record(7, &r);
            bad[i] ^= 0x40;
            assert!(
                decode_record(7, &bad).is_none(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn scan_recovers_longest_prefix_at_every_cut() {
        let records = vec![
            rec(0, 1, vec![0xAA; 10]),
            rec(1, 2, vec![0xBB; 3]),
            rec(2, 3, vec![]),
            rec(0, 4, vec![0xCC; 17]),
        ];
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for r in &records {
            stream.extend_from_slice(&encode_record(3, r));
            ends.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let (got, valid) = scan(3, &stream[..cut]);
            let expect = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(got.len(), expect, "cut at {cut}");
            assert_eq!(valid, if expect == 0 { 0 } else { ends[expect - 1] });
            assert_eq!(&got[..], &records[..expect]);
        }
    }

    #[test]
    fn scan_stops_at_stale_epoch_bytes() {
        let mut stream = encode_record(4, &rec(0, 1, vec![9; 8]));
        let keep = stream.len();
        stream.extend_from_slice(&encode_record(3, &rec(1, 2, vec![8; 8])));
        let (got, valid) = scan(4, &stream);
        assert_eq!(got.len(), 1);
        assert_eq!(valid, keep);
    }

    #[test]
    fn wal_survives_reopen() {
        let dev = std::sync::Arc::new(MemStore::new(8, 64));
        let wal = Wal::create(std::sync::Arc::clone(&dev), 4).unwrap();
        wal.append(&rec(0, 1, vec![1; 20])).unwrap();
        wal.append(&rec(1, 2, vec![2; 20])).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (wal, records) = Wal::open(std::sync::Arc::clone(&dev), 4).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], rec(0, 1, vec![1; 20]));
        assert_eq!(wal.stats().replayed, 2);
        // Appends continue behind the recovered prefix.
        wal.append(&rec(2, 3, vec![3; 20])).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, records) = Wal::open(dev, 4).unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn reopen_wipes_the_discarded_tail_so_residue_never_rejoins() {
        let dev = std::sync::Arc::new(MemStore::new(8, 64));
        // Window 1: every append commits. Payload 36 makes each record
        // exactly one 64-byte journal block, so offsets stay aligned.
        let wal = Wal::create(std::sync::Arc::clone(&dev), 1).unwrap();
        wal.append(&rec(0, 1, vec![0xAA; 36])).unwrap();
        wal.append(&rec(1, 2, vec![0xBB; 36])).unwrap();
        wal.append(&rec(2, 3, vec![0xCC; 36])).unwrap();
        drop(wal);
        // A torn group commit: the middle record is damaged but the one
        // after it is still byte-valid on the device.
        let mut b = dev
            .read_block(BlockIndex::new(2))
            .unwrap()
            .as_slice()
            .to_vec();
        b[40] ^= 0xFF;
        dev.write_block(BlockIndex::new(2), BlockData::from(b))
            .unwrap();
        // Recovery keeps only the first record and discards the tail...
        let (wal, records) = Wal::open(std::sync::Arc::clone(&dev), 1).unwrap();
        assert_eq!(records.len(), 1);
        assert!(wal.stats().discarded_bytes >= 64);
        // ...then continues in the same epoch with a record the exact size
        // of the torn one, so the discarded third record sits
        // record-aligned just past the new tail.
        wal.append(&rec(5, 9, vec![0xDD; 36])).unwrap();
        drop(wal);
        // After a second crash the scan must stop at the new tail: the
        // rolled-back record must not resurrect.
        let (_, records) = Wal::open(dev, 1).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], rec(0, 1, vec![0xAA; 36]));
        assert_eq!(records[1], rec(5, 9, vec![0xDD; 36]));
    }

    #[test]
    fn group_commit_syncs_once_per_window() {
        let wal = Wal::create(SyncCounter::new(16, 64), 4).unwrap();
        let created = wal.device().flushes.load(Ordering::Relaxed);
        for i in 0..8 {
            wal.append(&rec(i, i + 1, vec![i as u8; 16])).unwrap();
        }
        // Two windows of four appends: two commits, one flush each.
        assert_eq!(wal.device().flushes.load(Ordering::Relaxed) - created, 2);
        assert_eq!(wal.device().write_batches.load(Ordering::Relaxed), 2);
        let stats = wal.stats();
        assert_eq!((stats.appends, stats.commits), (8, 2));
        assert_eq!(stats.pending_records, 0);
    }

    #[test]
    fn explicit_commit_flushes_pending_tail() {
        let wal = Wal::create(SyncCounter::new(16, 64), 100).unwrap();
        wal.append(&rec(0, 1, vec![5; 16])).unwrap();
        assert_eq!(wal.stats().pending_records, 1);
        let before = wal.device().flushes.load(Ordering::Relaxed);
        wal.commit().unwrap();
        assert_eq!(wal.device().flushes.load(Ordering::Relaxed), before + 1);
        assert_eq!(wal.stats().committed_len as usize, wal.len());
        // Nothing pending: committing again is free.
        wal.commit().unwrap();
        assert_eq!(wal.device().flushes.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn uncommitted_appends_are_lost_on_reopen() {
        let dev = std::sync::Arc::new(MemStore::new(8, 64));
        let wal = Wal::create(std::sync::Arc::clone(&dev), 100).unwrap();
        wal.append(&rec(0, 1, vec![1; 16])).unwrap();
        wal.commit().unwrap();
        wal.append(&rec(1, 2, vec![2; 16])).unwrap();
        // No commit: the second record never reached the device.
        drop(wal.into_device());
        let (_, records) = Wal::open(dev, 100).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn truncate_bumps_epoch_and_invalidates_old_records() {
        let dev = std::sync::Arc::new(MemStore::new(8, 64));
        let wal = Wal::create(std::sync::Arc::clone(&dev), 1).unwrap();
        wal.append(&rec(0, 1, vec![1; 40])).unwrap();
        assert_eq!(wal.epoch(), 1);
        wal.truncate().unwrap();
        assert_eq!(wal.epoch(), 2);
        assert!(wal.is_empty());
        drop(wal);
        // The epoch-1 bytes are still on the device but no longer decode.
        let (wal, records) = Wal::open(std::sync::Arc::clone(&dev), 1).unwrap();
        assert!(records.is_empty());
        assert!(wal.stats().discarded_bytes > 0, "stale bytes were counted");
    }

    #[test]
    fn append_rejects_overflow() {
        let wal = Wal::create(MemStore::new(2, 64), 100).unwrap();
        assert_eq!(wal.capacity(), 64);
        wal.append(&rec(0, 1, vec![0; 30])).unwrap();
        // 28 + 30 = 58 of 64 bytes used: 6 bytes of headroom left.
        assert!(!wal.would_overflow(6));
        assert!(wal.would_overflow(7));
        let err = wal.append(&rec(1, 2, vec![0; 30])).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)));
        // The failed append left nothing behind.
        assert_eq!(wal.stats().appends, 1);
    }

    #[test]
    fn corrupt_superblock_reformats_empty() {
        let dev = std::sync::Arc::new(MemStore::new(8, 64));
        let wal = Wal::create(std::sync::Arc::clone(&dev), 1).unwrap();
        wal.append(&rec(0, 1, vec![7; 16])).unwrap();
        drop(wal);
        // Tear the superblock, as a crash mid-truncate would.
        let mut sb = dev
            .read_block(BlockIndex::new(0))
            .unwrap()
            .as_slice()
            .to_vec();
        sb[10] ^= 0xFF;
        dev.write_block(BlockIndex::new(0), BlockData::from(sb))
            .unwrap();
        let (wal, records) = Wal::open(std::sync::Arc::clone(&dev), 1).unwrap();
        assert!(records.is_empty());
        assert_eq!(wal.epoch(), 1);
        drop(wal);
        // The data region was wiped: stale records of unknowable epochs
        // must never come back.
        for b in 1..8 {
            assert!(dev.read_block(BlockIndex::new(b)).unwrap().is_zeroed());
        }
    }

    #[test]
    fn journal_of_another_format_is_refused_and_left_untouched() {
        let dev = std::sync::Arc::new(MemStore::new(8, 64));
        let wal = Wal::create(std::sync::Arc::clone(&dev), 1).unwrap();
        wal.append(&rec(0, 1, vec![7; 16])).unwrap();
        drop(wal);
        // Same magic, another format number: some other build's journal.
        let mut sb = dev
            .read_block(BlockIndex::new(0))
            .unwrap()
            .as_slice()
            .to_vec();
        sb[4..8].copy_from_slice(&(FORMAT - 1).to_le_bytes());
        dev.write_block(BlockIndex::new(0), BlockData::from(sb))
            .unwrap();
        let image = |dev: &MemStore| -> Vec<BlockData> {
            (0..8)
                .map(|b| dev.read_block(BlockIndex::new(b)).unwrap())
                .collect()
        };
        let before = image(&dev);
        let err = Wal::open(std::sync::Arc::clone(&dev), 1).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidConfig(_)), "{err}");
        assert_eq!(image(&dev), before, "a refused journal must not be wiped");
    }

    #[test]
    fn journaled_flush_skips_the_data_device() {
        let journaled =
            Journaled::create(SyncCounter::new(8, 32), SyncCounter::new(16, 64), 16).unwrap();
        for i in 0..8u64 {
            journaled
                .write_block(BlockIndex::new(i), BlockData::from(vec![i as u8; 32]))
                .unwrap();
        }
        journaled.flush().unwrap();
        assert_eq!(
            journaled.inner().flushes.load(Ordering::Relaxed),
            0,
            "flush commits the journal, not the data device"
        );
        assert_eq!(journaled.stats().commits, 1);
        journaled.checkpoint().unwrap();
        assert_eq!(journaled.inner().flushes.load(Ordering::Relaxed), 1);
        assert!(journaled.wal_ref().is_empty());
    }

    #[test]
    fn journaled_replays_committed_writes_after_crash() {
        let journal = std::sync::Arc::new(MemStore::new(32, 64));
        let journaled =
            Journaled::create(MemStore::new(8, 32), std::sync::Arc::clone(&journal), 100).unwrap();
        journaled
            .write_block(BlockIndex::new(2), BlockData::from(vec![0xAB; 32]))
            .unwrap();
        journaled
            .write_block(BlockIndex::new(2), BlockData::from(vec![0xCD; 32]))
            .unwrap();
        journaled
            .write_block(BlockIndex::new(5), BlockData::from(vec![0xEF; 32]))
            .unwrap();
        journaled.flush().unwrap(); // acknowledged
        journaled
            .write_block(BlockIndex::new(6), BlockData::from(vec![0x11; 32]))
            .unwrap();
        // Crash: the data device loses everything, the journal keeps what
        // was committed.
        let _ = journaled.abandon();
        let recovered = Journaled::open(MemStore::new(8, 32), journal, 100).unwrap();
        assert_eq!(
            recovered.read_block(BlockIndex::new(2)).unwrap().as_slice(),
            &[0xCD; 32],
            "replay applies records in append order"
        );
        assert_eq!(
            recovered.read_block(BlockIndex::new(5)).unwrap().as_slice(),
            &[0xEF; 32]
        );
        assert!(
            recovered
                .read_block(BlockIndex::new(6))
                .unwrap()
                .is_zeroed(),
            "the unacknowledged write may be lost"
        );
        assert_eq!(recovered.stats().replayed, 3);
        // Recovery checkpointed: a second crash right now loses nothing.
        assert!(recovered.wal_ref().is_empty());
        assert!(recovered.stats().epoch > 1);
    }

    #[test]
    fn journaled_write_path_checkpoints_on_overflow() {
        // Journal data region: 2 blocks of 64 = 128 bytes; one record is
        // 28 + 32 = 60 bytes, so the third write must checkpoint.
        let journaled =
            Journaled::create(SyncCounter::new(8, 32), MemStore::new(3, 64), 100).unwrap();
        for i in 0..4u64 {
            journaled
                .write_block(BlockIndex::new(0), BlockData::from(vec![i as u8; 32]))
                .unwrap();
        }
        let stats = journaled.stats();
        assert!(stats.truncations >= 1, "overflow forced a checkpoint");
        assert_eq!(stats.appends, 4);
        assert!(
            journaled.inner().flushes.load(Ordering::Relaxed) >= 1,
            "checkpoint synced the data device first"
        );
    }

    #[test]
    fn journaled_vectored_write_journals_every_block() {
        let journaled =
            Journaled::create(MemStore::new(8, 32), MemStore::new(32, 64), 100).unwrap();
        let writes: Vec<(BlockIndex, BlockData)> = (0..4)
            .map(|i| (BlockIndex::new(i), BlockData::from(vec![i as u8; 32])))
            .collect();
        journaled.write_blocks(&writes).unwrap();
        assert_eq!(journaled.stats().appends, 4);
        assert_eq!(
            journaled.read_block(BlockIndex::new(3)).unwrap().as_slice(),
            &[3; 32]
        );
    }

    #[test]
    fn vectored_batch_larger_than_the_journal_checkpoints_on_chunk_boundaries() {
        // Journal data region: 2 blocks of 64 = 128 bytes; one record is
        // 28 + 32 = 60 bytes, so a 4-block batch splits into two chunks
        // with a forced checkpoint between them — never mid-chunk, where
        // journaled records would not yet be on the data device.
        let journaled =
            Journaled::create(SyncCounter::new(8, 32), MemStore::new(3, 64), 100).unwrap();
        let writes: Vec<(BlockIndex, BlockData)> = (0..4)
            .map(|i| (BlockIndex::new(i), BlockData::from(vec![i as u8 + 1; 32])))
            .collect();
        journaled.write_blocks(&writes).unwrap();
        let stats = journaled.stats();
        assert_eq!(stats.appends, 4, "every block of the batch was journaled");
        assert!(stats.truncations >= 1, "overflow forced a checkpoint");
        assert!(
            journaled.inner().flushes.load(Ordering::Relaxed) >= 1,
            "the checkpoint synced the data device"
        );
        for (k, d) in &writes {
            assert_eq!(journaled.read_block(*k).unwrap(), *d);
        }
    }

    #[test]
    fn journaled_open_rejects_mismatched_geometry() {
        let journal = std::sync::Arc::new(MemStore::new(32, 64));
        let journaled =
            Journaled::create(MemStore::new(8, 32), std::sync::Arc::clone(&journal), 1).unwrap();
        journaled
            .write_block(BlockIndex::new(0), BlockData::from(vec![1; 32]))
            .unwrap();
        let _ = journaled.abandon();
        // A data device with a different block size cannot replay this log.
        let err = Journaled::open(MemStore::new(8, 16), journal, 1).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidConfig(_)));
    }

    proptest! {
        #[test]
        fn prop_record_roundtrips_any_payload(
            payload in prop::collection::vec(any::<u8>(), 0..200),
            block in 0u64..1_000_000,
            version in 0u64..1_000_000,
            epoch in 1u64..64,
        ) {
            let r = rec(block, version, payload);
            let encoded = encode_record(epoch, &r);
            let (decoded, used) = decode_record(epoch, &encoded).unwrap();
            prop_assert_eq!(used, encoded.len());
            prop_assert_eq!(decoded, r);
        }

        #[test]
        fn prop_torn_tail_recovers_longest_prefix(
            sizes in prop::collection::vec(0usize..120, 1..6),
            epoch in 1u64..64,
        ) {
            let records: Vec<WalRecord> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| rec(i as u64, i as u64 + 1, vec![i as u8 + 1; n]))
                .collect();
            let mut stream = Vec::new();
            let mut ends = Vec::new();
            for r in &records {
                stream.extend_from_slice(&encode_record(epoch, r));
                ends.push(stream.len());
            }
            // Truncate at every byte boundary: the scan must recover
            // exactly the records that fit, never a torn one.
            for cut in 0..=stream.len() {
                let (got, valid) = scan(epoch, &stream[..cut]);
                let expect = ends.iter().filter(|&&e| e <= cut).count();
                prop_assert_eq!(got.len(), expect, "cut at {}", cut);
                prop_assert_eq!(valid, if expect == 0 { 0 } else { ends[expect - 1] });
                prop_assert_eq!(&got[..], &records[..expect]);
            }
        }
    }
}
