//! The sharded virtual device: consistent-hash placement of block groups
//! over independent replica groups.
//!
//! A single [`ReliableDevice`](crate::ReliableDevice) is one replica group
//! holding full copies, so its capacity and write bandwidth are capped by
//! one quorum no matter how many sites exist. [`ShardedDevice`] lifts that
//! ceiling: a larger site pool is partitioned into `S` equal replica
//! groups (*shards*), each running its own independent quorum — its own
//! per-block lock table, its own lease table, its own WAL when journaled —
//! over the **unchanged** `protocol` layer, and block *groups* are mapped
//! to shards by rendezvous (highest-random-weight) hashing recorded in a
//! versioned [`PlacementManifest`].
//!
//! Vectored requests fan out to every touched shard in one parallel
//! round: the batch is split by shard, per-shard `read_many`/`write_many`
//! sub-batches are issued concurrently (acquiring the per-shard admission
//! gates in **ascending shard index**, the same lock-order discipline the
//! workspace lint verifies on `TcpTransport::pipelined`), and the replies
//! are stitched back in caller order. The caller runs the last touched
//! shard's sub-batch itself and hands each other one to that shard's
//! long-lived worker thread, so a batch spawns no thread.
//!
//! # Partial-batch failure semantics
//!
//! Shards are independent failure domains. A cross-shard `write_blocks`
//! whose batch touches a shard with no quorum fails *that shard's*
//! sub-batch only: every other touched shard commits normally, no shard
//! blocks on another, and the first error in ascending shard order is
//! returned to the caller. The caller learns the batch was not applied
//! atomically across shards — exactly the contract a striped volume over
//! independent disks offers — and the per-shard one-copy invariant is
//! never weakened (the chaos shard scenarios check it per shard).

use crate::backend::Backend;
use crate::device::with_failover;
use crate::protocol;
use blockrep_net::DeliveryMode;
use blockrep_storage::BlockDevice;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceError, DeviceResult, Scheme, SiteId,
};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// SplitMix64: the placement hash. Deterministic across runs and
/// platforms, well-mixed enough that rendezvous scores spread block
/// groups evenly over shards.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The versioned placement record: which pool sites form each shard and
/// how block groups map onto shards.
///
/// Placement is *rendezvous* (highest-random-weight) hashing: group `g`
/// lives on the shard whose `score(g, shard)` is largest. The useful
/// consequence is minimal disruption — growing the manifest from `S` to
/// `S + 1` shards moves only the groups whose top score now lands on the
/// new shard (about `1/(S+1)` of them) and leaves every other assignment
/// untouched. The hash runs once per group when the manifest is built;
/// [`shard_of`](Self::shard_of) is then a table lookup.
///
/// # Examples
///
/// ```
/// use blockrep_core::shard::PlacementManifest;
/// use blockrep_types::{BlockIndex, SiteId};
///
/// let pool: Vec<SiteId> = SiteId::all(6).collect();
/// let m = PlacementManifest::build(1, 64, 1024, &pool, 2).unwrap();
/// assert_eq!(m.shard_count(), 2);
/// assert!(m.render().contains("shard 1: sites [s3, s4, s5]"));
/// // Blocks of one 64-block group land on one shard.
/// assert_eq!(m.shard_of(BlockIndex::new(0)), m.shard_of(BlockIndex::new(63)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementManifest {
    version: u64,
    group_size: u64,
    shard_sites: Vec<Vec<SiteId>>,
    /// The shard of each group of the device, indexed by group.
    group_shard: Vec<usize>,
}

impl PlacementManifest {
    /// Builds a manifest placing `shards` equal replica groups over
    /// `pool`, with the blocks of a `num_blocks`-block device bundled into
    /// `group_size`-block groups, each placed here once.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] when `shards` is zero,
    /// `group_size` is zero, or the pool does not divide evenly into
    /// `shards` non-empty groups (shard quorums are kept symmetric).
    pub fn build(
        version: u64,
        group_size: u64,
        num_blocks: u64,
        pool: &[SiteId],
        shards: usize,
    ) -> DeviceResult<PlacementManifest> {
        if shards == 0 {
            return Err(DeviceError::InvalidConfig("zero shards".into()));
        }
        if group_size == 0 {
            return Err(DeviceError::InvalidConfig("zero group size".into()));
        }
        if pool.is_empty() || pool.len() % shards != 0 {
            return Err(DeviceError::InvalidConfig(format!(
                "pool of {} sites does not split into {} equal shards",
                pool.len(),
                shards
            )));
        }
        let per_shard = pool.len() / shards;
        let shard_sites = pool.chunks(per_shard).map(<[SiteId]>::to_vec).collect();
        let group_shard = (0..num_blocks.div_ceil(group_size))
            .map(|group| Self::place(group, shards))
            .collect();
        Ok(PlacementManifest {
            version,
            group_size,
            shard_sites,
            group_shard,
        })
    }

    /// The manifest version (bumped when placement is regenerated).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Blocks per placement group.
    pub fn group_size(&self) -> u64 {
        self.group_size
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_sites.len()
    }

    /// The pool sites forming `shard`'s replica group.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    fn sites_of(&self, shard: usize) -> &[SiteId] {
        &self.shard_sites[shard]
    }

    /// The placement group of block `k`.
    fn group_of(&self, k: BlockIndex) -> u64 {
        k.as_u64() / self.group_size
    }

    /// The rendezvous score of `(group, shard)`; placement picks the
    /// shard with the highest score, ties going to the lower index.
    fn score(group: u64, shard: usize) -> u64 {
        splitmix64(
            splitmix64(group.wrapping_add(1)) ^ (shard as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD),
        )
    }

    /// The shard holding block `k`: the table's entry for its group, or,
    /// past the device's end, the same rendezvous hash the table holds.
    pub fn shard_of(&self, k: BlockIndex) -> usize {
        let group = self.group_of(k);
        usize::try_from(group)
            .ok()
            .and_then(|g| self.group_shard.get(g).copied())
            .unwrap_or_else(|| Self::place(group, self.shard_count()))
    }

    /// Rendezvous placement of `group` over `shards` shards.
    fn place(group: u64, shards: usize) -> usize {
        let mut best = 0usize;
        let mut best_score = Self::score(group, 0);
        for shard in 1..shards {
            let score = Self::score(group, shard);
            if score > best_score {
                best = shard;
                best_score = score;
            }
        }
        best
    }

    /// A human-readable rendering of the manifest (what `mkfs --shards`
    /// prints next to the images it creates).
    pub fn render(&self) -> String {
        let mut out = format!(
            "placement manifest v{} (rendezvous, {}-block groups, {} shards)\n",
            self.version,
            self.group_size,
            self.shard_count()
        );
        for (i, sites) in self.shard_sites.iter().enumerate() {
            let names: Vec<String> = sites.iter().map(SiteId::to_string).collect();
            out.push_str(&format!("  shard {i}: sites [{}]\n", names.join(", ")));
        }
        out
    }
}

/// Geometry of a sharded device: `shards` independent replica groups of
/// `sites_per_shard` sites each, every group replicating the full
/// `num_blocks`-block address space but serving only the block groups the
/// manifest places on it.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Replication scheme run by every shard quorum.
    pub scheme: Scheme,
    /// Number of independent replica groups.
    pub shards: usize,
    /// Sites per replica group (the pool is `shards * sites_per_shard`).
    pub sites_per_shard: usize,
    /// Blocks of the virtual device.
    pub num_blocks: u64,
    /// Bytes per block.
    pub block_size: usize,
    /// Blocks per placement group. Batches aligned to this unit touch a
    /// single shard; larger batches stripe across shards.
    pub group_size: u64,
    /// Run every site on a write-ahead log.
    pub journaled: bool,
}

impl ShardSpec {
    /// A spec with the conventional geometry: 3-site shards over 64-block
    /// placement groups, 512-byte blocks.
    pub fn new(scheme: Scheme, shards: usize, num_blocks: u64) -> ShardSpec {
        ShardSpec {
            scheme,
            shards,
            sites_per_shard: 3,
            num_blocks,
            block_size: 512,
            group_size: 64,
            journaled: false,
        }
    }

    /// The placement manifest for this geometry (version 1).
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate geometry.
    pub fn manifest(&self) -> DeviceResult<PlacementManifest> {
        let pool: Vec<SiteId> = SiteId::all(self.shards * self.sites_per_shard).collect();
        PlacementManifest::build(1, self.group_size, self.num_blocks, &pool, self.shards)
    }

    /// The per-shard device configuration. Every shard replicates the
    /// full address space (no index translation anywhere), it just never
    /// coordinates blocks the manifest places elsewhere.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate geometry.
    pub fn shard_config(&self) -> DeviceResult<DeviceConfig> {
        DeviceConfig::builder(self.scheme)
            .sites(self.sites_per_shard)
            .num_blocks(self.num_blocks)
            .block_size(self.block_size)
            .journaled(self.journaled)
            .build()
    }
}

/// A virtual block device striped over independent replica groups.
///
/// Each shard is a complete cluster of its own — any [`Backend`] runtime
/// works — and the device routes every block to its manifest-assigned
/// shard. Vectored operations fan out to all touched shards in one
/// parallel round and stitch replies back in caller order. Every shard but
/// the highest has one worker thread for that round, started by the first
/// batch that needs it and joined when the device is dropped; the highest
/// is always the last shard a batch touches, which the caller serves
/// itself.
///
/// # Examples
///
/// ```
/// use blockrep_core::shard::{ShardSpec, ShardedDevice};
/// use blockrep_core::ClusterOptions;
/// use blockrep_storage::BlockDevice;
/// use blockrep_types::{BlockData, BlockIndex, Scheme};
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let spec = ShardSpec {
///     block_size: 16,
///     ..ShardSpec::new(Scheme::Voting, 2, 256)
/// };
/// let dev = ShardedDevice::deterministic(&spec, ClusterOptions::default())?;
/// // A 128-block extent spans both 64-block groups ⇒ usually both shards.
/// let writes: Vec<_> = (0..128)
///     .map(|i| (BlockIndex::new(i), BlockData::from(vec![i as u8; 16])))
///     .collect();
/// dev.write_blocks(&writes)?;
/// let ks: Vec<_> = (0..128).map(BlockIndex::new).collect();
/// assert_eq!(dev.read_blocks(&ks)?[100].as_slice(), &[100; 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedDevice<C> {
    shards: Vec<Arc<C>>,
    manifest: PlacementManifest,
    preferred: SiteId,
    /// Per-shard admission gates: a cross-shard batch holds the gate of
    /// every shard it touches for the duration of its round, so two
    /// concurrent batches meet each shard in a fixed order. Gates are
    /// always taken in ascending shard index — the `fan_out` loop asserts
    /// it — which is what makes holding several at once deadlock-free.
    /// A gate also makes its shard's worker mailbox exclusive.
    gates: Vec<Mutex<()>>,
    /// One per shard but the highest, in shard order, each started by the
    /// first batch that hands its shard a sub-batch.
    workers: Vec<OnceLock<Worker>>,
    num_blocks: u64,
    block_size: usize,
}

/// One shard's sub-batch, owned so that the shard's worker can take it.
#[derive(Debug)]
enum Job {
    Read(Vec<BlockIndex>),
    Write(Vec<(BlockIndex, BlockData)>),
}

/// What a sub-batch returns: the blocks read, in sub-batch order (none for
/// a write).
type Answer = DeviceResult<Vec<BlockData>>;

impl Job {
    /// Runs the sub-batch against `shard` under
    /// [`ReliableDevice`](crate::ReliableDevice)'s failover rule, over the
    /// shard-local sites.
    ///
    /// A panic in the shard's protocol code fails the sub-batch, whichever
    /// thread runs it: it neither takes a worker down nor unwinds through a
    /// caller whose other sub-batches are still out on workers.
    fn run<C: Backend>(&self, shard: &C, preferred: SiteId) -> Answer {
        let run = || {
            with_failover(shard.config(), preferred, |origin| match self {
                Job::Read(ks) => protocol::read_many(shard, origin, ks),
                Job::Write(writes) => {
                    protocol::write_many(shard, origin, writes).map(|()| Vec::new())
                }
            })
        };
        catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
            let panicked = std::io::Error::other("shard sub-batch panicked");
            Err(DeviceError::Io(panicked))
        })
    }
}

/// A shard worker's mailbox: one job in, one answer out. It never holds
/// more than one job because only a batch holding the shard's gate posts
/// to it, and that batch takes the answer before it lets the gate go — so
/// at most one thread waits on the bell at a time: the worker for a job,
/// or the poster for its answer.
#[derive(Debug, Default)]
struct Mailbox {
    slot: Mutex<Slot>,
    bell: Condvar,
}

#[derive(Debug, Default)]
struct Slot {
    job: Option<Job>,
    answer: Option<Answer>,
    /// The device is going down, or the worker's thread is gone: no job
    /// will be answered any more.
    closed: bool,
}

impl Mailbox {
    /// Hands `job` to the worker; the caller holds the shard's gate.
    fn post(&self, job: Job) {
        let mut slot = self.slot.lock();
        debug_assert!(
            slot.job.is_none() && slot.answer.is_none(),
            "a shard's mailbox is posted to only under its gate"
        );
        if !slot.closed {
            slot.job = Some(job);
            drop(slot);
            self.bell.notify_one();
        }
    }

    /// Waits for the answer to the posted job.
    fn answer(&self) -> Answer {
        let mut slot = self.slot.lock();
        while slot.answer.is_none() && !slot.closed {
            slot = self.bell.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        slot.answer.take().unwrap_or_else(|| {
            let gone = std::io::Error::other("shard worker is gone");
            Err(DeviceError::Io(gone))
        })
    }

    fn close(&self) {
        self.slot.lock().closed = true;
        self.bell.notify_all();
    }

    /// A worker's thread: take a job, run it on `shard`, post the answer;
    /// until the mailbox closes.
    fn serve<C: Backend>(&self, shard: &C, preferred: SiteId) {
        // However this thread ends, nobody may wait on an answer it will
        // not send.
        struct CloseOnExit<'a>(&'a Mailbox);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseOnExit(self);
        loop {
            let job = {
                let mut slot = self.slot.lock();
                while slot.job.is_none() && !slot.closed {
                    slot = self.bell.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                match slot.job.take() {
                    Some(job) => job,
                    None => return,
                }
            };
            let answer = job.run(shard, preferred);
            self.slot.lock().answer = Some(answer);
            self.bell.notify_one();
        }
    }
}

/// A shard's long-lived fan-out thread.
#[derive(Debug)]
struct Worker {
    mailbox: Arc<Mailbox>,
    thread: JoinHandle<()>,
}

impl Worker {
    fn spawn<C: Backend + 'static>(shard: Arc<C>, preferred: SiteId) -> Worker {
        let mailbox = Arc::new(Mailbox::default());
        let inbox = Arc::clone(&mailbox);
        let thread = std::thread::spawn(move || inbox.serve(&*shard, preferred));
        Worker { mailbox, thread }
    }
}

impl<C> Drop for ShardedDevice<C> {
    fn drop(&mut self) {
        for worker in self.workers.drain(..).filter_map(OnceLock::into_inner) {
            worker.mailbox.close();
            let _ = worker.thread.join();
        }
    }
}

impl<C: Backend + 'static> ShardedDevice<C> {
    /// Assembles a device from per-shard clusters and their manifest.
    ///
    /// # Panics
    ///
    /// Panics if the shard list is empty or disagrees with the manifest,
    /// if the shards' geometries differ, or if `preferred` is not a
    /// shard-local site id valid in every shard.
    pub fn new(shards: Vec<Arc<C>>, manifest: PlacementManifest, preferred: SiteId) -> Self {
        assert!(!shards.is_empty(), "a sharded device needs shards");
        assert_eq!(
            shards.len(),
            manifest.shard_count(),
            "shard list disagrees with the manifest"
        );
        let num_blocks = shards[0].config().num_blocks();
        let block_size = shards[0].config().block_size();
        for (i, shard) in shards.iter().enumerate() {
            let cfg = shard.config();
            assert_eq!(cfg.num_blocks(), num_blocks, "shard {i}: geometry differs");
            assert_eq!(cfg.block_size(), block_size, "shard {i}: geometry differs");
            assert_eq!(
                cfg.num_sites(),
                manifest.sites_of(i).len(),
                "shard {i}: site count disagrees with the manifest"
            );
            assert!(
                cfg.contains_site(preferred),
                "shard {i}: preferred origin {preferred} is not a local site"
            );
        }
        let gates = (0..shards.len()).map(|_| Mutex::new(())).collect();
        let workers = (1..shards.len()).map(|_| OnceLock::new()).collect();
        ShardedDevice {
            shards,
            manifest,
            preferred,
            gates,
            workers,
            num_blocks,
            block_size,
        }
    }

    /// The placement manifest.
    pub fn manifest(&self) -> &PlacementManifest {
        &self.manifest
    }

    /// The per-shard cluster handles, in shard order.
    pub fn shard_backends(&self) -> &[Arc<C>] {
        &self.shards
    }

    /// The shard holding block `k`.
    pub fn shard_of(&self, k: BlockIndex) -> usize {
        self.manifest.shard_of(k)
    }

    /// The preferred shard-local coordinator site.
    pub fn preferred(&self) -> SiteId {
        self.preferred
    }

    /// Splits caller-order positions by owning shard, ascending shard
    /// index, touched shards only.
    fn split_by_shard(&self, ks: impl Iterator<Item = BlockIndex>) -> Vec<(usize, Vec<usize>)> {
        let mut by_shard: Vec<(usize, Vec<usize>)> =
            (0..self.shards.len()).map(|s| (s, Vec::new())).collect();
        for (i, k) in ks.enumerate() {
            by_shard[self.manifest.shard_of(k)].1.push(i);
        }
        by_shard.retain(|(_, idxs)| !idxs.is_empty());
        by_shard
    }

    /// Shard `s`'s worker mailbox, starting the worker on first use: a
    /// device that only ever sees single-shard batches starts no thread.
    fn mailbox(&self, s: usize) -> &Mailbox {
        let worker = self.workers[s]
            .get_or_init(|| Worker::spawn(Arc::clone(&self.shards[s]), self.preferred));
        &worker.mailbox
    }

    /// The one parallel round: runs the `job` of every `(shard, positions)`
    /// pair and collects the answers in ascending shard order. The last
    /// pair runs on the calling thread and the others on their shards'
    /// workers, so a batch that touches one shard hands nothing off.
    ///
    /// Every touched shard's admission gate is taken before any
    /// sub-operation starts and held until all of them have finished, so
    /// concurrent cross-shard batches serialize per shard while still
    /// overlapping across shards. Because a batch holds several gates at
    /// once, acquisition order is a deadlock invariant: `split_by_shard`
    /// hands us shards ascending and the assert pins that discipline.
    fn fan_out(
        &self,
        mut split: Vec<(usize, Vec<usize>)>,
        job: impl Fn(&[usize]) -> Job,
    ) -> Vec<(Vec<usize>, Answer)> {
        let mut held = Vec::with_capacity(split.len());
        for &(s, _) in &split {
            debug_assert!(
                held.last().is_none_or(|&(prev, _)| prev < s),
                "shard gates must be acquired in ascending shard order"
            );
            let gate = self.gates[s].lock();
            held.push((s, gate));
        }
        let Some((last, last_idxs)) = split.pop() else {
            return Vec::new();
        };
        for (s, idxs) in &split {
            self.mailbox(*s).post(job(idxs));
        }
        let answer = job(&last_idxs).run(&*self.shards[last], self.preferred);
        let mut outcomes = Vec::with_capacity(split.len() + 1);
        outcomes.extend(
            split
                .into_iter()
                .map(|(s, idxs)| (idxs, self.mailbox(s).answer())),
        );
        outcomes.push((last_idxs, answer));
        drop(held);
        outcomes
    }
}

/// A shard answered a read with fewer blocks than it was asked for.
fn short_read() -> DeviceError {
    DeviceError::Io(std::io::Error::other(
        "shard returned fewer blocks than requested",
    ))
}

impl<C: Backend + 'static> BlockDevice for ShardedDevice<C> {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        let blocks = self.read_blocks(std::slice::from_ref(&k))?;
        blocks.into_iter().next().ok_or_else(short_read)
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        self.write_blocks(&[(k, data)])
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        if ks.is_empty() {
            return Ok(Vec::new());
        }
        let split = self.split_by_shard(ks.iter().copied());
        let outcomes = self.fan_out(split, |idxs| {
            Job::Read(idxs.iter().map(|&i| ks[i]).collect())
        });
        let mut stitched: Vec<Option<BlockData>> = vec![None; ks.len()];
        let mut first_err = None;
        for (idxs, outcome) in outcomes {
            match outcome {
                Ok(blocks) => {
                    for (slot, data) in idxs.into_iter().zip(blocks) {
                        stitched[slot] = Some(data);
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        stitched
            .into_iter()
            .collect::<Option<Vec<BlockData>>>()
            .ok_or_else(short_read)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        if writes.is_empty() {
            return Ok(());
        }
        let split = self.split_by_shard(writes.iter().map(|&(k, _)| k));
        // Block payloads are refcounted; the sub-batch clone is cheap.
        let outcomes = self.fan_out(split, |idxs| {
            Job::Write(idxs.iter().map(|&i| writes[i].clone()).collect())
        });
        // Healthy shards have already committed; report the first failed
        // sub-batch (ascending shard order) without undoing the others.
        for (_, outcome) in outcomes {
            outcome?;
        }
        Ok(())
    }
}

impl ShardedDevice<crate::Cluster> {
    /// Spawns the deterministic runtime per shard.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate spec.
    pub fn deterministic(spec: &ShardSpec, options: crate::ClusterOptions) -> DeviceResult<Self> {
        let manifest = spec.manifest()?;
        let shards = (0..spec.shards)
            .map(|_| Ok(Arc::new(crate::Cluster::new(spec.shard_config()?, options))))
            .collect::<DeviceResult<Vec<_>>>()?;
        Ok(ShardedDevice::new(shards, manifest, SiteId::new(0)))
    }
}

impl ShardedDevice<crate::LiveCluster> {
    /// Spawns the threaded runtime per shard: each shard group gets its
    /// own server threads and channels.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate spec.
    pub fn live(spec: &ShardSpec, mode: DeliveryMode) -> DeviceResult<Self> {
        let manifest = spec.manifest()?;
        let shards = (0..spec.shards)
            .map(|_| {
                Ok(Arc::new(crate::LiveCluster::spawn(
                    spec.shard_config()?,
                    mode,
                )))
            })
            .collect::<DeviceResult<Vec<_>>>()?;
        Ok(ShardedDevice::new(shards, manifest, SiteId::new(0)))
    }
}

impl ShardedDevice<crate::TcpCluster> {
    /// Spawns the framed-TCP runtime per shard. Concurrent clients of one
    /// shard each take a connection of their own from its per-site pools,
    /// so none queues behind another's round trip. (The sub-batches of one
    /// cross-shard batch never meet there: each shard is its own
    /// `TcpCluster`, with its own connections.)
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate spec, or
    /// [`DeviceError::Io`] if a shard's listeners or connections fail.
    pub fn tcp(spec: &ShardSpec, mode: DeliveryMode) -> DeviceResult<Self> {
        let manifest = spec.manifest()?;
        let shards = (0..spec.shards)
            .map(|_| {
                let cluster = crate::TcpCluster::spawn(spec.shard_config()?, mode)
                    .map_err(DeviceError::Io)?;
                Ok(Arc::new(cluster))
            })
            .collect::<DeviceResult<Vec<_>>>()?;
        Ok(ShardedDevice::new(shards, manifest, SiteId::new(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Coordinator;
    use crate::transport::{ServerCluster, Transport};
    use crate::wire::{Request, WireResponse};
    use crate::ClusterOptions;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn spec(scheme: Scheme, shards: usize) -> ShardSpec {
        ShardSpec {
            sites_per_shard: 3,
            block_size: 8,
            group_size: 4,
            ..ShardSpec::new(scheme, shards, 64)
        }
    }

    #[test]
    fn manifest_rejects_degenerate_geometry() {
        let pool: Vec<SiteId> = SiteId::all(6).collect();
        assert!(PlacementManifest::build(1, 4, 64, &pool, 0).is_err());
        assert!(PlacementManifest::build(1, 0, 64, &pool, 2).is_err());
        assert!(PlacementManifest::build(1, 4, 64, &pool, 4).is_err());
        assert!(PlacementManifest::build(1, 4, 64, &[], 1).is_err());
    }

    #[test]
    fn placement_is_group_aligned_and_covers_all_shards() {
        let pool: Vec<SiteId> = SiteId::all(12).collect();
        let m = PlacementManifest::build(1, 64, 256 * 64, &pool, 4).unwrap();
        let mut seen = [0u64; 4];
        for g in 0..256u64 {
            let shard = m.shard_of(BlockIndex::new(g * 64));
            // Every block of the group agrees with its first block.
            assert_eq!(m.shard_of(BlockIndex::new(g * 64 + 63)), shard);
            seen[shard] += 1;
        }
        // Rendezvous spreads 256 groups roughly evenly over 4 shards.
        for (shard, &count) in seen.iter().enumerate() {
            assert!(
                (32..=96).contains(&count),
                "shard {shard} owns {count} of 256 groups"
            );
        }
    }

    #[test]
    fn growing_the_shard_count_only_moves_groups_to_the_new_shard() {
        let small: Vec<SiteId> = SiteId::all(9).collect();
        let large: Vec<SiteId> = SiteId::all(12).collect();
        let before = PlacementManifest::build(1, 64, 512 * 64, &small, 3).unwrap();
        let after = PlacementManifest::build(2, 64, 512 * 64, &large, 4).unwrap();
        let mut moved = 0u64;
        for g in 0..512u64 {
            let k = BlockIndex::new(g * 64);
            let (old, new) = (before.shard_of(k), after.shard_of(k));
            if old != new {
                assert_eq!(new, 3, "group {g} moved to shard {new}, not the new shard");
                moved += 1;
            }
        }
        // The consistent-hash property: roughly 1/4 of groups move, and
        // only onto the added shard.
        assert!(
            (64..=192).contains(&moved),
            "{moved} of 512 groups moved on growth"
        );
    }

    #[test]
    fn the_placement_table_is_the_rendezvous_hash_inside_and_past_the_device() {
        let pool: Vec<SiteId> = SiteId::all(12).collect();
        // 1 000 blocks: 15 whole groups and a partial 16th, then past the end.
        let m = PlacementManifest::build(1, 64, 1000, &pool, 4).unwrap();
        for g in 0..64u64 {
            for k in [g * 64, g * 64 + 63] {
                let placed = PlacementManifest::place(g, 4);
                assert_eq!(m.shard_of(BlockIndex::new(k)), placed, "block {k}");
            }
        }
        let last = BlockIndex::new(u64::MAX);
        assert_eq!(m.shard_of(last), PlacementManifest::place(u64::MAX / 64, 4));
    }

    #[test]
    fn cross_shard_batches_round_trip_in_caller_order() {
        for scheme in Scheme::ALL {
            let dev =
                ShardedDevice::deterministic(&spec(scheme, 4), ClusterOptions::default()).unwrap();
            // A deliberately shuffled, cross-shard batch.
            let ks: Vec<BlockIndex> = (0..64).rev().map(BlockIndex::new).collect();
            let writes: Vec<(BlockIndex, BlockData)> = ks
                .iter()
                .map(|&k| (k, BlockData::from(vec![k.as_u64() as u8; 8])))
                .collect();
            dev.write_blocks(&writes).unwrap();
            let back = dev.read_blocks(&ks).unwrap();
            for (k, data) in ks.iter().zip(&back) {
                assert_eq!(data.as_slice(), &[k.as_u64() as u8; 8], "block {k}");
            }
        }
    }

    #[test]
    fn a_split_follows_the_manifest_however_the_groups_interleave() {
        let dev = ShardedDevice::deterministic(
            &spec(Scheme::NaiveAvailableCopy, 4),
            ClusterOptions::default(),
        )
        .unwrap();
        let m = dev.manifest().clone();
        let gs = m.group_size();
        let shard_of_group = |g: u64| m.shard_of(BlockIndex::new(g * gs));
        let g1 = (1..16)
            .find(|&g| shard_of_group(g) != shard_of_group(0))
            .unwrap();
        // g0, g1, g0, g1, …: no block shares a group with its neighbour.
        let alternating: Vec<u64> = (0..gs).flat_map(|i| [i, g1 * gs + i]).collect();
        // Whole groups, out of order, each run walked backwards.
        let out_of_order: Vec<u64> = [9u64, 2, 15, 0, 7]
            .iter()
            .flat_map(|&g| (g * gs..(g + 1) * gs).rev())
            .collect();
        for (round, batch) in [alternating, out_of_order].into_iter().enumerate() {
            let ks: Vec<BlockIndex> = batch.into_iter().map(BlockIndex::new).collect();
            let split = dev.split_by_shard(ks.iter().copied());
            let mut seen = vec![false; ks.len()];
            let mut prev_shard = None;
            for (s, idxs) in &split {
                assert!(prev_shard < Some(*s), "shards out of order");
                prev_shard = Some(*s);
                assert!(idxs.windows(2).all(|w| w[0] < w[1]), "caller order lost");
                for &i in idxs {
                    assert_eq!(*s, m.shard_of(ks[i]), "block {} misplaced", ks[i]);
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "a block was dropped");
            let fill = |k: BlockIndex| BlockData::from(vec![k.as_u64() as u8 ^ round as u8; 8]);
            let writes: Vec<(BlockIndex, BlockData)> = ks.iter().map(|&k| (k, fill(k))).collect();
            dev.write_blocks(&writes).unwrap();
            let back = dev.read_blocks(&ks).unwrap();
            assert_eq!(back, ks.iter().map(|&k| fill(k)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_runs_the_last_shard_on_the_calling_thread() {
        let spec = spec(Scheme::NaiveAvailableCopy, 4);
        let disks: Vec<_> = (0..4).map(|_| DiskDouble::new(&spec, false)).collect();
        let dev = ShardedDevice::new(disks.clone(), spec.manifest().unwrap(), SiteId::new(0));
        let here = std::thread::current().id();
        // The thread each touched shard's sub-batch ran on, in shard order.
        let ran_on = |shards: &[usize]| -> Vec<ThreadId> {
            let split = shards.iter().map(|&s| (s, vec![s])).collect();
            let outcomes = dev.fan_out(split, |_| Job::Read(vec![BlockIndex::new(0)]));
            let positions: Vec<Vec<usize>> = outcomes
                .into_iter()
                .map(|(idxs, answer)| {
                    assert_eq!(answer.unwrap().len(), 1);
                    idxs
                })
                .collect();
            assert_eq!(
                positions,
                shards.iter().map(|&s| vec![s]).collect::<Vec<_>>()
            );
            shards
                .iter()
                .map(|&s| disks[s].transport.readers.lock().pop().unwrap())
                .collect()
        };
        assert!(ran_on(&[]).is_empty());
        // One touched shard: the caller serves it.
        assert_eq!(ran_on(&[2]), [here]);
        assert_eq!(ran_on(&[3]), [here]);
        // Several: the last is the caller's, and every other one runs on its
        // shard's own worker — the same thread, batch after batch.
        let mut worker_of: [Option<ThreadId>; 3] = [None; 3];
        let sets: [&[usize]; 4] = [&[0, 1, 3], &[0, 2], &[1, 2, 3], &[0, 1, 2, 3]];
        for batch in 0..100 {
            let shards = sets[batch % sets.len()];
            let threads = ran_on(shards);
            let (&last, others) = threads.split_last().unwrap();
            assert_eq!(last, here, "batch {batch}");
            for (&s, &t) in shards.iter().zip(others) {
                assert_ne!(t, here, "batch {batch}: shard {s} ran on the caller");
                assert_eq!(
                    *worker_of[s].get_or_insert(t),
                    t,
                    "batch {batch}: shard {s}"
                );
            }
        }
        let workers: std::collections::HashSet<_> = worker_of.iter().flatten().collect();
        assert_eq!(workers.len(), 3, "one worker per shard, none shared");
    }

    #[test]
    fn single_block_ops_route_to_the_owning_shard_only() {
        let dev = ShardedDevice::deterministic(&spec(Scheme::Voting, 2), ClusterOptions::default())
            .unwrap();
        let k = BlockIndex::new(9);
        let owner = dev.shard_of(k);
        dev.write_block(k, BlockData::from(vec![5; 8])).unwrap();
        assert_eq!(dev.read_block(k).unwrap().as_slice(), &[5; 8]);
        let other = 1 - owner;
        let t = dev.shard_backends()[other].traffic();
        assert_eq!(t.total(), 0, "non-owning shard saw traffic");
    }

    #[test]
    fn losing_one_shard_quorum_fails_only_that_sub_batch() {
        let dev = ShardedDevice::deterministic(&spec(Scheme::Voting, 2), ClusterOptions::default())
            .unwrap();
        let ks: Vec<BlockIndex> = (0..64).map(BlockIndex::new).collect();
        let writes: Vec<(BlockIndex, BlockData)> = ks
            .iter()
            .map(|&k| (k, BlockData::from(vec![1; 8])))
            .collect();
        dev.write_blocks(&writes).unwrap();
        // Kill shard 0's quorum (2 of 3 voting sites).
        let victim = &dev.shard_backends()[0];
        protocol::fail(&**victim, SiteId::new(0));
        protocol::fail(&**victim, SiteId::new(1));
        let second: Vec<(BlockIndex, BlockData)> = ks
            .iter()
            .map(|&k| (k, BlockData::from(vec![2; 8])))
            .collect();
        let err = dev.write_blocks(&second).unwrap_err();
        assert!(matches!(err, DeviceError::Unavailable { .. }), "{err}");
        // Shard 1's sub-batch committed; shard 0's kept the old contents.
        for &k in &ks {
            let expect = if dev.shard_of(k) == 0 { 1u8 } else { 2u8 };
            let holder = &dev.shard_backends()[dev.shard_of(k)];
            assert_eq!(
                holder.read_local(SiteId::new(2), k).unwrap().as_slice(),
                &[expect; 8],
                "block {k}"
            );
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let dev = ShardedDevice::deterministic(
            &spec(Scheme::AvailableCopy, 2),
            ClusterOptions::default(),
        )
        .unwrap();
        assert!(dev.read_blocks(&[]).unwrap().is_empty());
        dev.write_blocks(&[]).unwrap();
    }

    #[test]
    fn preferred_origin_failure_fails_over_within_the_shard() {
        let dev = ShardedDevice::deterministic(
            &spec(Scheme::AvailableCopy, 2),
            ClusterOptions::default(),
        )
        .unwrap();
        let k = BlockIndex::new(3);
        dev.write_block(k, BlockData::from(vec![7; 8])).unwrap();
        // Fail the preferred origin (shard-local s0) in the owning shard.
        let owner = &dev.shard_backends()[dev.shard_of(k)];
        protocol::fail(&**owner, SiteId::new(0));
        assert_eq!(dev.read_block(k).unwrap().as_slice(), &[7; 8]);
    }

    /// The disk of a naive-available-copy shard: it reads zeros, noting the
    /// thread of every read, or panics while its switch is on. Only the
    /// local reads of a vectored NAC read reach it.
    struct DiskDouble {
        block_size: usize,
        panics: AtomicBool,
        readers: Mutex<Vec<ThreadId>>,
    }

    impl DiskDouble {
        fn new(spec: &ShardSpec, panics: bool) -> Arc<ServerCluster<DiskDouble>> {
            let cfg = spec.shard_config().unwrap();
            let disk = DiskDouble {
                block_size: cfg.block_size(),
                panics: AtomicBool::new(panics),
                readers: Mutex::new(Vec::new()),
            };
            let coord = Coordinator::new(cfg, DeliveryMode::default());
            Arc::new(ServerCluster::over(coord, disk))
        }
    }

    impl Transport for DiskDouble {
        const NAME: &'static str = "disk double";

        fn call(&self, _: SiteId, request: Request<'_>) -> Option<WireResponse> {
            unreachable!("{request:?}")
        }

        fn cast(&self, _: SiteId, request: Request<'_>) -> bool {
            unreachable!("{request:?}")
        }

        fn local(&self, _: SiteId, request: Request<'_>) -> Option<WireResponse> {
            let Request::ReadLocalMany(ks) = request else {
                unreachable!("{request:?}")
            };
            assert!(
                !self.panics.load(Ordering::SeqCst),
                "disk double: sub-batch read panics"
            );
            self.readers.lock().push(std::thread::current().id());
            let zeros = BlockData::zeroed(self.block_size);
            Some(WireResponse::DataMany(vec![zeros; ks.len()]))
        }
    }

    #[test]
    fn a_panicking_shard_worker_fails_the_batch_with_a_typed_error() {
        let spec = spec(Scheme::NaiveAvailableCopy, 2);
        // Shard 0 is a fan-out worker (the last shard runs on the caller).
        let disks = vec![DiskDouble::new(&spec, true), DiskDouble::new(&spec, false)];
        let dev = ShardedDevice::new(disks.clone(), spec.manifest().unwrap(), SiteId::new(0));
        let ks: Vec<BlockIndex> = (0..64).map(BlockIndex::new).collect();
        assert!(ks.iter().any(|&k| dev.shard_of(k) == 0));
        assert!(ks.iter().any(|&k| dev.shard_of(k) == 1));
        let err = dev.read_blocks(&ks).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)), "{err}");
        // The healthy shard alone still answers.
        let healthy: Vec<BlockIndex> = ks
            .iter()
            .copied()
            .filter(|&k| dev.shard_of(k) == 1)
            .collect();
        assert_eq!(dev.read_blocks(&healthy).unwrap().len(), healthy.len());
        // The panic did not take the worker down: with the disk mended, the
        // panicking shard answers the next batch.
        disks[0].transport.panics.store(false, Ordering::SeqCst);
        assert_eq!(dev.read_blocks(&ks).unwrap().len(), ks.len());
        // A panic on the shard the caller runs fails the batch the same
        // way, after the worker's sub-batch has come back.
        disks[1].transport.panics.store(true, Ordering::SeqCst);
        let err = dev.read_blocks(&ks).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)), "{err}");
        disks[1].transport.panics.store(false, Ordering::SeqCst);
        assert_eq!(dev.read_blocks(&ks).unwrap().len(), ks.len());
        // And dropping the device stops and joins its worker.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(dev);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "dropping the device hung"
        );
        dropper.join().unwrap();
    }
}
