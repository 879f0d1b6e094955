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

use crate::locks::BlockLockTable;
use crate::transport::{Links, ServerCluster, Transport};
use crate::wire::{Batch, Request, WireResponse};
use blockrep_net::{DeliveryMode, MsgKind, OpClass, TrafficCounter};
use blockrep_storage::SealedBlock;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceError, DeviceResult, SiteId, SiteState,
    VersionNumber,
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
/// Two capacities are in use: [`SiteVec`], a per-site list (a request's
/// addressees, the voters that answered, an install's recipients), and
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
    /// Each entry made a `U` by `f`, in order, where it is: an entry held
    /// alone stays inline, and a spilled list is collected in place when a
    /// `U` fits where a `T` was.
    #[inline(always)]
    pub fn map<U: Default>(self, f: impl FnMut(T) -> U) -> InlineVec<U, N>
    where
        [U; N]: Default,
    {
        match self.0 {
            Store::One(item) => InlineVec(Store::One({ f }(item))),
            Store::Heap(heap) => InlineVec(Store::Heap(heap.into_iter().map(f).collect())),
            store => InlineVec(store).into_iter().map(f).collect(),
        }
    }

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

    #[inline(always)]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IntoIterStore::One(item) => item.size_hint(),
            IntoIterStore::Inline(items) => items.size_hint(),
            IntoIterStore::Heap(items) => items.size_hint(),
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

impl<'a> ScatterRequest<'a> {
    /// What every target is sent, and whether it is a one-way install;
    /// `None` for a state probe, which the links answer without a message.
    #[inline(always)]
    pub(crate) fn request(self) -> Option<(Request<'a>, bool)> {
        match self {
            ScatterRequest::ProbeState => None,
            ScatterRequest::VersionVector => Some((Request::VersionVector, false)),
            ScatterRequest::VoteMany(ks) => Some((Request::VoteMany(ks), false)),
            ScatterRequest::InstallMany(writes)
            | ScatterRequest::InstallIfAvailableMany(writes) => {
                Some((Request::ApplyWriteMany(Batch::Sealed(writes)), true))
            }
        }
    }

    /// Whether `response` answers the request: `Versions` of the run's
    /// length for a vote, `Vector` for a version-vector request, `Ack` for
    /// a probe and an install. Any other reply counts as no reply.
    #[inline(always)]
    pub(crate) fn answered_by(self, response: &WireResponse) -> bool {
        match (self, response) {
            (ScatterRequest::VoteMany(ks), WireResponse::Versions(vs)) => vs.len() == ks.len(),
            (ScatterRequest::VersionVector, WireResponse::Vector(_)) => true,
            (ScatterRequest::VoteMany(_) | ScatterRequest::VersionVector, _) => false,
            (_, response) => matches!(response, WireResponse::Ack),
        }
    }
}

/// What a [`ServerCluster::scatter`] hands each target's reply to, in
/// target order: any `FnMut(SiteId, Option<WireResponse>)`, or a round's
/// own state with an always-inlined method where a closure's call would be
/// left out of line (the vote round's was).
pub trait Fold {
    /// Takes target `t`'s reply.
    fn reply(&mut self, t: SiteId, reply: Option<WireResponse>);
}

impl<F: FnMut(SiteId, Option<WireResponse>)> Fold for F {
    #[inline(always)]
    fn reply(&mut self, t: SiteId, reply: Option<WireResponse>) {
        self(t, reply)
    }
}

/// Accounting context of one scatter: what
/// [`ServerCluster::scatter`] charges once the replies are gathered.
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

/// What a protocol coordinator is, whichever runtime it runs on: the
/// device configuration, the network environment and its §5 counter, the
/// link model, and the block-lock table. Every
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
    /// Per site, the [`others`] it broadcasts to, listed once.
    pub(crate) others: Vec<SiteVec<SiteId>>,
}

impl Coordinator {
    /// The coordinator of a freshly formatted device: every site available,
    /// the network whole, nothing charged.
    pub(crate) fn new(cfg: DeviceConfig, mode: DeliveryMode) -> Self {
        Coordinator {
            links: Links::new(cfg.num_sites()),
            others: cfg.site_ids().map(|s| others(&cfg, s)).collect(),
            cfg,
            mode,
            counter: TrafficCounter::new(),
            locks: BlockLockTable::new(),
        }
    }

    /// An independent coordinator in the same site states and topology;
    /// counter and locks start fresh.
    pub(crate) fn fork(&self) -> Self {
        Coordinator {
            links: self.links.fork(),
            ..Coordinator::new(self.cfg.clone(), self.mode)
        }
    }
}

/// The sequential scatter body: every exchange is performed, one after
/// another in target order, and its reply handed to `gather` before the
/// next one starts. A fault layer numbers a scatter's exchanges in this
/// order.
#[inline(always)]
pub(crate) fn scatter_sequential<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    targets: &[SiteId],
    req: ScatterRequest<'_>,
    gather: &mut impl Fold,
) {
    for &t in targets {
        let span = crate::obs_hooks::phase_span(crate::obs_hooks::phase_exchange, t.as_u32());
        let reply = leg(c, origin, t, req);
        drop(span);
        gather.reply(t, reply);
    }
}

/// One target's leg of a sequential scatter, its response unchecked. A
/// state probe sends nothing and answers `Ack` for an operational target;
/// a conditional install probes first and goes only to an available one.
#[inline(always)]
fn leg<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    t: SiteId,
    req: ScatterRequest<'_>,
) -> Option<WireResponse> {
    let Some((request, one_way)) = req.request() else {
        return c.probe_state(origin, t).map(|_| WireResponse::Ack);
    };
    let conditional = matches!(req, ScatterRequest::InstallIfAvailableMany(_));
    if conditional && c.probe_state(origin, t) != Some(SiteState::Available) {
        return None;
    }
    c.transport
        .exchange(&c.coord.links, origin, t, request, one_way)
}

/// Rejects an `origin` that is not a site of the device, or whose state
/// does not let it coordinate: `serves` says which states may.
pub(crate) fn ensure_origin<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    serves: impl Fn(SiteState) -> bool,
) -> DeviceResult<()> {
    if !c.config().contains_site(origin) {
        return Err(DeviceError::UnknownSite(origin));
    }
    let state = c.site_state(origin);
    if serves(state) {
        return Ok(());
    }
    let (site, state) = (origin, state.label());
    Err(DeviceError::SiteNotServing { site, state })
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
#[inline(always)]
pub fn others(cfg: &DeviceConfig, from: SiteId) -> SiteVec<SiteId> {
    cfg.site_ids().filter(|&s| s != from).collect()
}

/// Total voting weight of a set of sites.
pub fn weight_of(cfg: &DeviceConfig, sites: &[SiteId]) -> u64 {
    sites.iter().map(|&s| cfg.weight(s).as_u64()).sum()
}

/// Total voting weight of the operational sites.
pub(crate) fn operational_weight<T: Transport>(c: &ServerCluster<T>) -> u64 {
    let cfg = c.config();
    let up = cfg.site_ids().filter(|&s| c.site_state(s).is_operational());
    up.map(|s| cfg.weight(s).as_u64()).sum()
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
