//! The cluster backend abstraction.
//!
//! The three consistency protocols are written once, against [`Backend`],
//! and its one implementation, [`ServerCluster`](crate::ServerCluster),
//! turns each protocol step into a request to the one site service and its
//! reply back into an answer. What differs between runtimes is only the
//! transport under it: the deterministic [`Cluster`](crate::Cluster) serves
//! every request on the caller's thread, [`LiveCluster`](crate::LiveCluster)
//! sends it to a site thread's inbox and [`TcpCluster`](crate::TcpCluster)
//! over a loopback socket.
//!
//! Methods with a `from` site model a remote exchange and return `None`
//! when the target is failed or unreachable (fail-stop sites simply do not
//! answer). Methods without `from` are local actions on a site's own state
//! and never touch the network. **Traffic is charged by the protocol code**,
//! not per call — the §5 cost unit is the high-level transmission, whose
//! fan-out accounting (multicast vs. unique addressing) only the protocol
//! layer knows.

use crate::locks::{BlockLockTable, LeaseTable};
use crate::transport::Links;
use blockrep_net::{DeliveryMode, MsgKind, OpClass, TrafficCounter};
use blockrep_storage::SealedBlock;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceError, DeviceResult, SiteId, SiteState,
    VersionNumber, VersionVector,
};
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};

/// Entries a [`SiteVec`] holds without allocating: a round on a cluster of
/// up to this many sites — every configuration the paper evaluates, and
/// the benchmark's three — keeps its per-site lists inline.
pub const INLINE_SITES: usize = 8;

/// A per-site list of one protocol round: the sites a request is addressed
/// to, the votes gathered, a scatter's replies. Up to [`INLINE_SITES`]
/// entries live inline, so a round on a small cluster allocates nothing;
/// the first entry past that moves the list to the heap, so no site count
/// is refused. It reads as a slice.
#[derive(Clone)]
pub struct SiteVec<T>(SiteStore<T>);

#[derive(Clone)]
enum SiteStore<T> {
    /// The first `len` entries are the list; the rest are `T::default()`.
    Inline {
        len: usize,
        items: [T; INLINE_SITES],
    },
    Heap(Vec<T>),
}

impl<T: Default> SiteVec<T> {
    /// An empty list, inline.
    pub fn new() -> Self {
        SiteVec(SiteStore::Inline {
            len: 0,
            items: std::array::from_fn(|_| T::default()),
        })
    }

    /// Appends `item`, moving the list to the heap when it outgrows
    /// [`INLINE_SITES`].
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            SiteStore::Inline { len, items } if *len < INLINE_SITES => {
                items[*len] = item;
                *len += 1;
            }
            SiteStore::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE_SITES);
                heap.extend(items.iter_mut().map(std::mem::take));
                heap.push(item);
                self.0 = SiteStore::Heap(heap);
            }
            SiteStore::Heap(heap) => heap.push(item),
        }
    }
}

impl<T: Default> Default for SiteVec<T> {
    fn default() -> Self {
        SiteVec::new()
    }
}

impl<T> Deref for SiteVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            SiteStore::Inline { len, items } => &items[..*len],
            SiteStore::Heap(heap) => heap,
        }
    }
}

impl<T> DerefMut for SiteVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            SiteStore::Inline { len, items } => &mut items[..*len],
            SiteStore::Heap(heap) => heap,
        }
    }
}

impl<T: Default> FromIterator<T> for SiteVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = SiteVec::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

/// The owning iterator of a [`SiteVec`], in list order.
pub struct SiteVecIntoIter<T>(SiteIter<T>);

enum SiteIter<T> {
    Inline(std::iter::Take<std::array::IntoIter<T, INLINE_SITES>>),
    Heap(std::vec::IntoIter<T>),
}

impl<T> Iterator for SiteVecIntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            SiteIter::Inline(items) => items.next(),
            SiteIter::Heap(items) => items.next(),
        }
    }
}

impl<T> IntoIterator for SiteVec<T> {
    type Item = T;
    type IntoIter = SiteVecIntoIter<T>;

    fn into_iter(self) -> SiteVecIntoIter<T> {
        SiteVecIntoIter(match self.0 {
            SiteStore::Inline { len, items } => SiteIter::Inline(items.into_iter().take(len)),
            SiteStore::Heap(heap) => SiteIter::Heap(heap.into_iter()),
        })
    }
}

impl<'a, T> IntoIterator for &'a SiteVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SiteVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A recovery transfer: `(block, version, data)` triples for every block
/// the recovering site is missing.
pub type RepairBlocks = Vec<(BlockIndex, VersionNumber, BlockData)>;

/// A vectored install: every distinct block of one batched write round,
/// [sealed](SealedBlock) at the fresh version the write chose for it, so
/// each replica that installs the block stores the sum computed here.
///
/// It is collected from `(block, version, data)` triples, sealing each as
/// it goes, and it shares the wire shape of [`RepairBlocks`]: a frame
/// carries no sum, and a site that decodes one seals what it received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBatch(Vec<(BlockIndex, SealedBlock)>);

impl From<Vec<(BlockIndex, SealedBlock)>> for WriteBatch {
    fn from(blocks: Vec<(BlockIndex, SealedBlock)>) -> Self {
        WriteBatch(blocks)
    }
}

impl FromIterator<(BlockIndex, VersionNumber, BlockData)> for WriteBatch {
    fn from_iter<I: IntoIterator<Item = (BlockIndex, VersionNumber, BlockData)>>(iter: I) -> Self {
        WriteBatch(
            iter.into_iter()
                .map(|(k, v, data)| (k, SealedBlock::new(v, data)))
                .collect(),
        )
    }
}

impl std::ops::Deref for WriteBatch {
    type Target = [(BlockIndex, SealedBlock)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl IntoIterator for WriteBatch {
    type Item = (BlockIndex, SealedBlock);
    type IntoIter = std::vec::IntoIter<(BlockIndex, SealedBlock)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// One batched fan-out request: the question every target of a
/// [`Backend::scatter`] is asked. A block or a batch is borrowed from the
/// write that sealed it, which installs the same seal on its own site
/// afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScatterRequest<'a> {
    /// Request each target's vote — its version number for the block (MCV
    /// vote collection).
    Vote(BlockIndex),
    /// Probe each target's state (recovery queries). Only operational
    /// targets reply.
    ProbeState,
    /// Install a block unconditionally (MCV write installation).
    Install {
        /// The block being written.
        k: BlockIndex,
        /// The new contents, sealed at the new version.
        block: &'a SealedBlock,
    },
    /// Probe each target and install only on the available ones (the AC/NAC
    /// write fan-out: two exchanges per available target, one per
    /// unavailable target).
    InstallIfAvailable {
        /// The block being written.
        k: BlockIndex,
        /// The new contents, sealed at the new version.
        block: &'a SealedBlock,
    },
    /// Request each target's version vector (recovery source selection).
    VersionVector,
    /// Request each target's votes for a whole run of blocks in one
    /// exchange (vectored MCV vote collection). The §5 accounting stays
    /// per block — see [`ScatterSpec::reply_units`].
    VoteMany(Vec<BlockIndex>),
    /// Install a batch of blocks unconditionally in one exchange (vectored
    /// MCV write installation). Delivery is all-or-nothing per target: one
    /// frame either lands or does not.
    InstallMany(&'a WriteBatch),
    /// Probe each target and install the whole batch only on the available
    /// ones (the vectored AC/NAC write fan-out).
    InstallIfAvailableMany(&'a WriteBatch),
}

/// One target's answer to a [`ScatterRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScatterReply {
    /// A vote.
    Version(VersionNumber),
    /// An operational state.
    State(SiteState),
    /// The install was delivered.
    Delivered,
    /// A version vector.
    Vector(VersionVector),
    /// Votes for a batch of blocks, in request order.
    Versions(Vec<VersionNumber>),
}

/// Replies from one scatter, in target order. `None` marks a target that
/// did not answer (failed/unreachable).
pub type ScatterReplies = SiteVec<(SiteId, Option<ScatterReply>)>;

/// Accounting context of one scatter, shared by the sequential body and
/// the concurrent transports.
#[derive(Debug, Clone, Copy)]
pub struct ScatterSpec {
    /// The operation this fan-out belongs to.
    pub op: OpClass,
    /// Message kind charged per gathered reply (`None` for one-way
    /// installs, whose acknowledgements the paper does not count).
    pub reply_charge: Option<MsgKind>,
    /// §5 transmissions charged per gathered reply. `1` for single-block
    /// exchanges; a batched exchange sets this to the batch length so one
    /// physical reply frame is charged as the per-block replies it stands
    /// for, keeping vectored traffic byte-identical to the per-block loop.
    pub reply_units: u64,
}

/// A version vector paired with the repair blocks it implies — Figure 5's
/// `(v', {blocks})` response.
pub type RepairPayload = (VersionVector, RepairBlocks);

/// What a protocol coordinator is, whichever runtime it runs on: the
/// device configuration, the network environment and its §5 counter, the
/// link model, and the block-lock and lease tables. Every [`Backend`] holds
/// (or wraps a backend that holds) exactly one.
#[derive(Debug)]
pub struct Coordinator {
    pub(crate) cfg: DeviceConfig,
    pub(crate) mode: DeliveryMode,
    pub(crate) counter: TrafficCounter,
    /// Site states and topology: who is up and who can reach whom.
    pub(crate) links: Links,
    /// Per-block lock shards serializing same-block coordinations.
    pub(crate) locks: BlockLockTable,
    /// Read-lease registry for the offload fast path.
    pub(crate) leases: LeaseTable,
}

impl Coordinator {
    /// The coordinator of a freshly formatted device: every site available,
    /// the network whole, nothing charged, leases off.
    pub(crate) fn new(cfg: DeviceConfig, mode: DeliveryMode) -> Self {
        Coordinator {
            links: Links::new(cfg.num_sites()),
            cfg,
            mode,
            counter: TrafficCounter::new(),
            locks: BlockLockTable::new(),
            leases: LeaseTable::new(),
        }
    }

    /// An independent coordinator in the same site states and topology and
    /// with the same lease setting; counter, locks and grants start fresh.
    pub(crate) fn fork(&self) -> Self {
        let forked = Coordinator {
            links: self.links.fork(),
            ..Coordinator::new(self.cfg.clone(), self.mode)
        };
        forked.leases.set_enabled(self.leases.enabled());
        forked
    }
}

/// Access to a cluster of replicas, as seen by a protocol coordinator.
///
/// Its one implementation is [`ServerCluster`](crate::ServerCluster), over
/// whichever transport: each method is one [`Request`](crate::wire::Request)
/// to the one site service and its reply. Implementations must be
/// internally synchronized (`&self` methods), since a device handle and a
/// failure injector may act concurrently.
pub trait Backend: Send + Sync {
    /// The coordinator state behind this backend; the eight methods below
    /// are read off it.
    fn coordinator(&self) -> &Coordinator;

    /// The device configuration (scheme, weights, quorums, geometry).
    fn config(&self) -> &DeviceConfig {
        &self.coordinator().cfg
    }

    /// The network environment, for fan-out accounting.
    fn delivery_mode(&self) -> DeliveryMode {
        self.coordinator().mode
    }

    /// The shared high-level transmission counter.
    fn counter(&self) -> &TrafficCounter {
        &self.coordinator().counter
    }

    /// A site's own knowledge of its state (no network involved).
    fn local_state(&self, s: SiteId) -> SiteState {
        self.coordinator().links.state(s)
    }

    /// Sets a site's state (local action: crash, restart, promotion).
    fn set_local_state(&self, s: SiteId, state: SiteState) {
        self.coordinator().links.set_state(s, state);
    }

    /// Observes `to`'s state from `from`: `None` if `to` is failed or
    /// unreachable — a failed site answers nobody, itself included —
    /// otherwise its (operational) state. A coordination-layer read: no
    /// message is sent, but a probe of another site is an exchange whose
    /// fate a fault layer decides like any other's.
    fn probe_state(&self, from: SiteId, to: SiteId) -> Option<SiteState>;

    /// Requests `to`'s vote — its version number for block `k`. With
    /// `from == to` this is the local version lookup.
    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber>;

    /// Fetches the current copy of block `k` from `to`.
    fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)>;

    /// Fetches the current copy of block `k` from `to` to validate and
    /// serve a read lease: [`fetch_block`](Self::fetch_block) under a wire
    /// request of its own, so a fault layer can target lease validation
    /// specifically (the `StaleLease` fault).
    fn fetch_lease(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)>;

    /// Delivers a write update to `to` (or applies locally when
    /// `from == to`); the replica installs `block` if its version is newer,
    /// storing the sum it was sealed with. Returns whether the update was
    /// delivered.
    fn apply_write(&self, from: SiteId, to: SiteId, k: BlockIndex, block: &SealedBlock) -> bool;

    /// Reads block `k` straight off `s`'s local disk.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Io`] when `s`'s replica does not answer its own
    /// coordinator: never on the shipped transports, where the local leg is
    /// served on the coordinator's thread; a transport standing in for a
    /// broken disk may.
    fn read_local(&self, s: SiteId, k: BlockIndex) -> DeviceResult<BlockData>;

    /// Reads a run of blocks straight off `s`'s local disk in **one**
    /// exchange, in the order of `ks`: the local replica is locked once for
    /// the batch, not once per block.
    ///
    /// # Errors
    ///
    /// As for [`read_local`](Self::read_local).
    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>>;

    /// Requests `to`'s version vector.
    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector>;

    /// Sends `from`'s version vector `vv` to `to`; `to` answers with its own
    /// vector and the blocks `from` is missing (Figure 5's exchange).
    fn repair_payload(&self, from: SiteId, to: SiteId, vv: &VersionVector)
        -> Option<RepairPayload>;

    /// Installs a repair payload on `s`'s local store; returns the number of
    /// blocks replaced — `0` when `s`'s server does not take the payload
    /// (its local leg died): nothing was installed.
    fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize;

    /// Requests `to`'s was-available set `W`.
    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>>;

    /// Replaces `to`'s was-available set with the sites of `w`, in
    /// ascending order (piggybacked on writes/repairs). Returns whether
    /// `to` received it.
    fn set_was_available(&self, from: SiteId, to: SiteId, w: &[SiteId]) -> bool;

    /// Tells `to` that `member` has repaired from it: `W_to ← W_to ∪ {member}`.
    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool;

    /// Runs the restart-time integrity scrub on `s`'s local disk, resetting
    /// checksum-broken blocks to the freshly formatted state. Returns the
    /// number of blocks reset — `0` when `s`'s server does not answer (its
    /// local leg died): nothing was scrubbed.
    fn scrub_local(&self, s: SiteId) -> usize;

    /// Requests `to`'s votes for a whole run of blocks in **one** exchange.
    /// Replies come back in the order of `ks`; `None` means the target did
    /// not answer (failed/unreachable), exactly as per-block
    /// [`vote`](Self::vote) would have for every block: one reachability
    /// check, one replica lock at `to` and one fault slot for the run.
    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>>;

    /// Delivers a batch of write updates to `to` in **one** exchange (or
    /// applies them locally when `from == to`). Delivery is all-or-nothing:
    /// the batch either reaches `to` (every block installed if newer) or
    /// does not.
    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool;

    /// The coordinator-side sharded block-lock table. The protocol entry
    /// points hold the touched blocks' shards for the duration of each
    /// operation, so clients of the same runtime handle serialize per
    /// block, not per cluster (see [`crate::locks`]).
    fn block_locks(&self) -> &BlockLockTable {
        &self.coordinator().locks
    }

    /// The coordinator-side read-lease registry behind Harmonia-style read
    /// offload (see [`crate::locks`]). Disabled by default.
    fn leases(&self) -> &LeaseTable {
        &self.coordinator().leases
    }

    /// Scatter-gather: delivers `req` to every target (ascending site
    /// order) and gathers their replies, with the results and the §5
    /// counts of [`scatter_sequential`] — one `spec.reply_charge`
    /// transmission per gathered reply, whatever the fan-out concurrency.
    fn scatter(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        req: &ScatterRequest<'_>,
    ) -> ScatterReplies;
}

/// One remote exchange of a scatter, as a per-target loop performs it.
fn exchange_once<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    t: SiteId,
    req: &ScatterRequest<'_>,
) -> Option<ScatterReply> {
    match req {
        ScatterRequest::Vote(k) => b.vote(origin, t, *k).map(ScatterReply::Version),
        ScatterRequest::ProbeState => b.probe_state(origin, t).map(ScatterReply::State),
        ScatterRequest::Install { k, block } => b
            .apply_write(origin, t, *k, block)
            .then_some(ScatterReply::Delivered),
        ScatterRequest::InstallIfAvailable { k, block } => (b.probe_state(origin, t)
            == Some(SiteState::Available)
            && b.apply_write(origin, t, *k, block))
        .then_some(ScatterReply::Delivered),
        ScatterRequest::VersionVector => b.version_vector(origin, t).map(ScatterReply::Vector),
        ScatterRequest::VoteMany(ks) => b.vote_many(origin, t, ks).map(ScatterReply::Versions),
        ScatterRequest::InstallMany(writes) => b
            .apply_write_many(origin, t, writes)
            .then_some(ScatterReply::Delivered),
        ScatterRequest::InstallIfAvailableMany(writes) => (b.probe_state(origin, t)
            == Some(SiteState::Available)
            && b.apply_write_many(origin, t, writes))
        .then_some(ScatterReply::Delivered),
    }
}

/// The sequential scatter body: every exchange is performed, one after
/// another in target order, and every gathered reply charged. A fault
/// layer numbers a scatter's exchanges in this order.
pub fn scatter_sequential<B: Backend + ?Sized>(
    b: &B,
    spec: ScatterSpec,
    origin: SiteId,
    targets: &[SiteId],
    req: &ScatterRequest<'_>,
) -> ScatterReplies {
    // The enabled-check is hoisted out of the per-target loop (the same fix
    // the cache hit path got): with observability off, the whole scatter
    // pays exactly one relaxed atomic load before running the plain loop.
    if blockrep_obs::enabled() {
        return scatter_sequential_observed(b, spec, origin, targets, req);
    }
    let mut replies = ScatterReplies::new();
    for &t in targets {
        let reply = exchange_once(b, origin, t, req);
        if reply.is_some() {
            if let Some(kind) = spec.reply_charge {
                b.counter().add(spec.op, kind, spec.reply_units);
            }
        }
        replies.push((t, reply));
    }
    replies
}

/// The observed twin of [`scatter_sequential`]: records the batch-size
/// metric and (under tracing) a `phase.exchange` span per target. Kept
/// `#[cold]` and out of line so the disabled path's loop stays tight.
#[cold]
fn scatter_sequential_observed<B: Backend + ?Sized>(
    b: &B,
    spec: ScatterSpec,
    origin: SiteId,
    targets: &[SiteId],
    req: &ScatterRequest<'_>,
) -> ScatterReplies {
    crate::obs_hooks::scatter_batch().record(targets.len() as u64);
    let tracing = crate::obs_hooks::tracing();
    let mut replies = ScatterReplies::new();
    for &t in targets {
        let span = if tracing {
            blockrep_obs::trace::start_phase(crate::obs_hooks::phase_exchange(), t.index() as u32)
        } else {
            None
        };
        let reply = exchange_once(b, origin, t, req);
        drop(span);
        if reply.is_some() {
            if let Some(kind) = spec.reply_charge {
                b.counter().add(spec.op, kind, spec.reply_units);
            }
        }
        replies.push((t, reply));
    }
    replies
}

/// Rejects a block index beyond the device.
pub(crate) fn check_block<B: Backend + ?Sized>(b: &B, k: BlockIndex) -> DeviceResult<()> {
    if k.as_u64() < b.config().num_blocks() {
        Ok(())
    } else {
        Err(DeviceError::BlockOutOfRange {
            block: k,
            num_blocks: b.config().num_blocks(),
        })
    }
}

/// What a coordinator reports when its own site's replica does not answer
/// it. No shipped transport's local leg can fail — it is served on the
/// coordinator's own thread, through
/// [`Transport::local`](crate::transport::Transport::local) — so this is for
/// transports whose can: a test double standing in for a broken disk.
pub(crate) fn dead_local_leg(s: SiteId) -> DeviceError {
    DeviceError::Io(std::io::Error::other(format!(
        "{s} did not answer its own coordinator"
    )))
}

/// Every site except `from`, in ascending order — the address list of a
/// broadcast.
pub fn others(cfg: &DeviceConfig, from: SiteId) -> SiteVec<SiteId> {
    cfg.site_ids().filter(|&s| s != from).collect()
}

/// Available (serving) sites reachable from `from`, including `from` itself
/// when available.
pub fn available_reachable<B: Backend + ?Sized>(b: &B, from: SiteId) -> Vec<SiteId> {
    b.config()
        .site_ids()
        .filter(|&s| b.probe_state(from, s).is_some_and(|st| st.can_serve()))
        .collect()
}

/// Total voting weight of a set of sites.
pub fn weight_of(cfg: &DeviceConfig, sites: &[SiteId]) -> u64 {
    sites.iter().map(|&s| cfg.weight(s).as_u64()).sum()
}

/// Charges the delivery-mode fan-out cost of one logical message addressed
/// to `targets` sites.
pub fn charge_fanout<B: Backend + ?Sized>(b: &B, op: OpClass, kind: MsgKind, targets: usize) {
    b.counter()
        .add(op, kind, b.delivery_mode().fanout_cost(targets as u64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::Scheme;

    #[test]
    fn others_excludes_origin() {
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .build()
            .unwrap();
        let o = others(&cfg, SiteId::new(2));
        assert_eq!(*o, [SiteId::new(0), SiteId::new(1), SiteId::new(3)]);
    }

    #[test]
    fn weight_sums() {
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .build()
            .unwrap();
        // weights are 3,2,2,2
        assert_eq!(weight_of(&cfg, &[SiteId::new(0), SiteId::new(3)]), 5);
        assert_eq!(weight_of(&cfg, &[]), 0);
    }

    #[test]
    fn a_site_vec_spills_past_its_inline_sites_in_order() {
        for n in [0, 1, INLINE_SITES, INLINE_SITES + 1, 2 * INLINE_SITES + 3] {
            let want: Vec<u32> = (0..n as u32).collect();
            let mut list: SiteVec<u32> = want.iter().copied().collect();
            assert_eq!(*list, want[..], "{n} entries");
            list.iter_mut().for_each(|x| *x += 1);
            let back: Vec<u32> = list.clone().into_iter().collect();
            assert_eq!(back, want.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
    }
}
