//! What a protocol coordinator works with: its [`Coordinator`] state, the
//! inline lists of one protocol round, the fan-out vocabulary, and the
//! sequential scatter body.
//!
//! The three consistency protocols are written once, against
//! [`ServerCluster<T>`](crate::ServerCluster), which turns each protocol
//! step into a request to the one site service and its reply back into an
//! answer. What differs between runtimes is only the transport `T` under
//! it: the deterministic [`Cluster`](crate::Cluster) serves every request
//! on the caller's thread, [`LiveCluster`](crate::LiveCluster) sends it to
//! a site thread's inbox and [`TcpCluster`](crate::TcpCluster) over a
//! loopback socket.
//!
//! A step with a `from` site models a remote exchange and answers `None`
//! when the target is failed or unreachable (fail-stop sites simply do not
//! answer). **Traffic is charged by the protocol code**, not per exchange —
//! the §5 cost unit is the high-level transmission, whose fan-out
//! accounting (multicast vs. unique addressing) only the protocol layer
//! knows.

use crate::locks::{BlockLockTable, LeaseTable};
use crate::transport::{Links, ServerCluster, Transport};
use blockrep_net::{DeliveryMode, MsgKind, OpClass, TrafficCounter};
use blockrep_storage::SealedBlock;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceError, DeviceResult, SiteId, SiteState,
    VersionNumber, VersionVector,
};
use std::ops::{Deref, DerefMut};

/// Entries a [`SiteVec`] holds without allocating: a round on a cluster of
/// up to this many sites — every configuration the paper evaluates, and
/// the benchmark's three — keeps its per-site lists inline.
pub const INLINE_SITES: usize = 8;

/// A list of one protocol round that holds up to `N` entries inline, so a
/// round that fits allocates nothing; the first entry past `N` moves the
/// list to the heap, so no length is refused. It reads as a slice.
///
/// Two capacities are in use: [`SiteVec`], a per-site list (the sites a
/// request is addressed to, the votes gathered, a scatter's replies), and
/// [`BlockVec`], a per-block list (a run's keys, votes, reads, write batch
/// and block-lock guards), which keeps a batch of one — a single-block
/// operation — off the heap.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Store<T, N>);

/// A per-site list: up to [`INLINE_SITES`] entries inline.
pub type SiteVec<T> = InlineVec<T, INLINE_SITES>;

/// A per-block list: one entry inline, the batch of one.
pub type BlockVec<T> = InlineVec<T, 1>;

#[derive(Clone)]
enum Store<T, const N: usize> {
    /// The entry of a one-entry list with room for one (`N = 1`): a run of
    /// one needs no array built around it.
    One(T),
    /// The first `len` entries are the list; the rest are `T::default()`.
    Inline { len: usize, items: [T; N] },
    /// Past `N` entries; or, with room for one, empty and unallocated.
    Heap(Vec<T>),
}

impl<T, const N: usize> InlineVec<T, N> {
    /// The list as a `Vec`: free once it has spilled, one allocation while
    /// it is inline.
    pub fn into_vec(self) -> Vec<T> {
        match self.0 {
            Store::One(item) => vec![item],
            Store::Inline { len, items } => items.into_iter().take(len).collect(),
            Store::Heap(heap) => heap,
        }
    }
}

// `[T; N]: Default` holds for every `N` in use (it does up to 32), and
// builds the inline slots without a closure call per slot.
impl<T: Default, const N: usize> InlineVec<T, N>
where
    [T; N]: Default,
{
    /// An empty list; it allocates nothing.
    #[inline(always)]
    pub fn new() -> Self {
        InlineVec(if N == 1 {
            Store::Heap(Vec::new())
        } else {
            Store::Inline {
                len: 0,
                items: Default::default(),
            }
        })
    }

    /// Appends `item`; the entry past `N` moves the list to the heap.
    #[inline(always)]
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Store::Inline { len, items } if *len < N => {
                items[*len] = item;
                *len += 1;
            }
            Store::Heap(heap) if N > 1 || heap.capacity() > 0 => heap.push(item),
            Store::Heap(_) => self.0 = Store::One(item),
            Store::One(_) | Store::Inline { .. } => {
                let mut heap = Vec::with_capacity(2 * N);
                match std::mem::replace(&mut self.0, Store::Heap(Vec::new())) {
                    Store::One(first) => heap.push(first),
                    Store::Inline { items, .. } => heap.extend(items),
                    Store::Heap(_) => {}
                }
                heap.push(item);
                self.0 = Store::Heap(heap);
            }
        }
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N>
where
    [T; N]: Default,
{
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Store::One(item) => std::slice::from_ref(item),
            Store::Inline { len, items } => &items[..*len],
            Store::Heap(heap) => heap,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Store::One(item) => std::slice::from_mut(item),
            Store::Inline { len, items } => &mut items[..*len],
            Store::Heap(heap) => heap,
        }
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N>
where
    [T; N]: Default,
{
    /// Collects inline, or — when the iterator says it holds more than `N`
    /// — as a `Vec` does: into one allocation of the size it says.
    #[inline(always)]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().0 > N {
            return InlineVec(Store::Heap(iter.collect()));
        }
        let mut list = InlineVec::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<T, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    /// Takes the `Vec` as it is: no copy, no allocation.
    fn from(heap: Vec<T>) -> Self {
        InlineVec(Store::Heap(heap))
    }
}

/// The owning iterator of an [`InlineVec`], in list order.
pub struct InlineVecIntoIter<T, const N: usize>(IntoIterStore<T, N>);

enum IntoIterStore<T, const N: usize> {
    One(std::option::IntoIter<T>),
    Inline(std::iter::Take<std::array::IntoIter<T, N>>),
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for InlineVecIntoIter<T, N> {
    type Item = T;

    #[inline(always)]
    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            IntoIterStore::One(item) => item.next(),
            IntoIterStore::Inline(items) => items.next(),
            IntoIterStore::Heap(items) => items.next(),
        }
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = InlineVecIntoIter<T, N>;

    #[inline(always)]
    fn into_iter(self) -> InlineVecIntoIter<T, N> {
        InlineVecIntoIter(match self.0 {
            Store::One(item) => IntoIterStore::One(Some(item).into_iter()),
            Store::Inline { len, items } => IntoIterStore::Inline(items.into_iter().take(len)),
            Store::Heap(heap) => IntoIterStore::Heap(heap.into_iter()),
        })
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A recovery transfer: `(block, version, data)` triples for every block
/// the recovering site is missing.
pub type RepairBlocks = Vec<(BlockIndex, VersionNumber, BlockData)>;

/// A vectored install: every distinct block of one write round,
/// [sealed](SealedBlock) at the fresh version the write chose for it, so
/// each replica that installs the block stores the sum computed here. A
/// batch of one — a single-block write — is held inline.
///
/// It is collected from `(block, version, data)` triples, sealing each as
/// it goes, and it shares the wire shape of [`RepairBlocks`]: a frame
/// carries no sum, and a site that decodes one seals what it received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBatch(BlockVec<(BlockIndex, SealedBlock)>);

impl From<Vec<(BlockIndex, SealedBlock)>> for WriteBatch {
    fn from(blocks: Vec<(BlockIndex, SealedBlock)>) -> Self {
        WriteBatch(blocks.into())
    }
}

impl From<&[(BlockIndex, SealedBlock)]> for WriteBatch {
    /// A copy of the batch: its blocks' payloads are shared, not copied.
    fn from(blocks: &[(BlockIndex, SealedBlock)]) -> Self {
        WriteBatch(blocks.iter().cloned().collect())
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

impl Deref for WriteBatch {
    type Target = [(BlockIndex, SealedBlock)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// One fan-out request: the question every target of a
/// [`ServerCluster::scatter`] is asked, for a run of blocks in one
/// exchange. The keys and the batch are borrowed from the operation that
/// holds them; a batch's seals are installed on the coordinator's own site
/// afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterRequest<'a> {
    /// Probe each target's state (recovery queries). Only operational
    /// targets reply.
    ProbeState,
    /// Request each target's version vector (recovery source selection).
    VersionVector,
    /// Request each target's votes — its version numbers — for a run of
    /// blocks (MCV vote collection). The §5 accounting stays per block —
    /// see [`ScatterSpec::reply_units`].
    VoteMany(&'a [BlockIndex]),
    /// Install a batch of blocks unconditionally (MCV write installation).
    /// Delivery is all-or-nothing per target: one frame either lands or
    /// does not.
    InstallMany(&'a WriteBatch),
    /// Probe each target and install the batch only on the available ones
    /// (the AC/NAC write fan-out: two exchanges per available target, one
    /// per unavailable target).
    InstallIfAvailableMany(&'a WriteBatch),
}

/// One target's answer to a [`ScatterRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScatterReply {
    /// An operational state.
    State(SiteState),
    /// The install was delivered.
    Delivered,
    /// A version vector.
    Vector(VersionVector),
    /// Votes for a run of blocks, in request order.
    Versions(BlockVec<VersionNumber>),
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
    /// §5 transmissions charged per gathered reply: the run's length, so
    /// one physical reply frame is charged as the per-block replies it
    /// stands for; `1` for the recovery exchanges, which carry no run.
    pub reply_units: u64,
}

/// A version vector paired with the repair blocks it implies — Figure 5's
/// `(v', {blocks})` response.
pub type RepairPayload = (VersionVector, RepairBlocks);

/// What a protocol coordinator is, whichever runtime it runs on: the
/// device configuration, the network environment and its §5 counter, the
/// link model, and the block-lock and lease tables. Every
/// [`ServerCluster`] holds exactly one.
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

/// One remote exchange of a scatter, as a per-target loop performs it.
fn exchange_once<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    t: SiteId,
    req: &ScatterRequest<'_>,
) -> Option<ScatterReply> {
    match *req {
        ScatterRequest::ProbeState => c.probe_state(origin, t).map(ScatterReply::State),
        ScatterRequest::VersionVector => c.version_vector(origin, t).map(ScatterReply::Vector),
        ScatterRequest::VoteMany(ks) => c.vote_many(origin, t, ks).map(ScatterReply::Versions),
        ScatterRequest::InstallMany(writes) => c
            .apply_write_many(origin, t, writes)
            .then_some(ScatterReply::Delivered),
        ScatterRequest::InstallIfAvailableMany(writes) => (c.probe_state(origin, t)
            == Some(SiteState::Available)
            && c.apply_write_many(origin, t, writes))
        .then_some(ScatterReply::Delivered),
    }
}

/// The sequential scatter body: every exchange is performed, one after
/// another in target order, and every gathered reply charged. A fault
/// layer numbers a scatter's exchanges in this order.
pub(crate) fn scatter_sequential<T: Transport>(
    c: &ServerCluster<T>,
    spec: ScatterSpec,
    origin: SiteId,
    targets: &[SiteId],
    req: &ScatterRequest<'_>,
) -> ScatterReplies {
    // The enabled-check is hoisted out of the per-target loop (the same fix
    // the cache hit path got): with observability off, the whole scatter
    // pays exactly one relaxed atomic load before running the plain loop.
    if blockrep_obs::enabled() {
        return scatter_sequential_observed(c, spec, origin, targets, req);
    }
    let mut replies = ScatterReplies::new();
    for &t in targets {
        let reply = exchange_once(c, origin, t, req);
        replies.push((t, reply));
    }
    charge_replies(c, spec, &replies);
    replies
}

/// Charges a gathered scatter's replies: `spec.reply_units` transmissions
/// of `spec.reply_charge` per target that answered, in one add.
fn charge_replies<T: Transport>(c: &ServerCluster<T>, spec: ScatterSpec, replies: &ScatterReplies) {
    if let Some(kind) = spec.reply_charge {
        let gathered = replies.iter().filter(|(_, r)| r.is_some()).count() as u64;
        c.counter()
            .add_many(spec.op, kind, spec.reply_units, gathered);
    }
}

/// The observed twin of [`scatter_sequential`]: records the batch-size
/// metric and (under tracing) a `phase.exchange` span per target. Kept
/// `#[cold]` and out of line so the disabled path's loop stays tight.
#[cold]
fn scatter_sequential_observed<T: Transport>(
    c: &ServerCluster<T>,
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
        let reply = exchange_once(c, origin, t, req);
        drop(span);
        replies.push((t, reply));
    }
    charge_replies(c, spec, &replies);
    replies
}

/// Rejects a block index beyond the device.
pub(crate) fn check_block(cfg: &DeviceConfig, k: BlockIndex) -> DeviceResult<()> {
    if k.as_u64() < cfg.num_blocks() {
        Ok(())
    } else {
        Err(DeviceError::BlockOutOfRange {
            block: k,
            num_blocks: cfg.num_blocks(),
        })
    }
}

/// Rejects a write run naming a block beyond the device, or carrying a
/// payload that is not one block long.
pub(crate) fn check_writes(
    cfg: &DeviceConfig,
    writes: &[(BlockIndex, BlockData)],
) -> DeviceResult<()> {
    for (k, data) in writes {
        check_block(cfg, *k)?;
        if data.len() != cfg.block_size() {
            return Err(DeviceError::WrongBlockSize {
                got: data.len(),
                expected: cfg.block_size(),
            });
        }
    }
    Ok(())
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

/// Total voting weight of a set of sites.
pub fn weight_of(cfg: &DeviceConfig, sites: &[SiteId]) -> u64 {
    sites.iter().map(|&s| cfg.weight(s).as_u64()).sum()
}

/// Charges the delivery-mode fan-out cost of one logical message addressed
/// to `targets` sites, once per block of a run of `blocks`.
pub(crate) fn charge_fanout<T: Transport>(
    c: &ServerCluster<T>,
    op: OpClass,
    kind: MsgKind,
    targets: usize,
    blocks: usize,
) {
    let coord = &c.coord;
    let per_block = coord.mode.fanout_cost(targets as u64);
    coord.counter.add(op, kind, per_block * blocks as u64);
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

    /// Lists of `n` entries for every interesting `n` around capacity `N`,
    /// collected at once, pushed one by one, and collected through an
    /// iterator that does not say how long it is.
    fn spills_in_order<const N: usize>()
    where
        [u32; N]: Default,
    {
        for n in [0, 1, 2, N, N + 1, 2 * N + 3] {
            let want: Vec<u32> = (0..n as u32).collect();
            let mut pushed = InlineVec::<u32, N>::new();
            want.iter().for_each(|&x| pushed.push(x));
            let unsized_iter = want.iter().copied().filter(|_| true);
            for mut list in [
                want.iter().copied().collect::<InlineVec<u32, N>>(),
                pushed.clone(),
                unsized_iter.collect(),
            ] {
                assert_eq!(*list, want[..], "{n} entries in {N}");
                list.iter_mut().for_each(|x| *x += 1);
                let back: Vec<u32> = list.clone().into_iter().collect();
                assert_eq!(back, want.iter().map(|x| x + 1).collect::<Vec<_>>());
                assert_eq!(list.into_vec(), back);
            }
        }
    }

    #[test]
    fn site_and_block_lists_spill_past_their_capacity_in_order() {
        spills_in_order::<INLINE_SITES>();
        spills_in_order::<1>();
    }
}
