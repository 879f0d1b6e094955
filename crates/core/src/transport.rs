//! The transport seam, and the one cluster written over it.
//!
//! A runtime differs from another only in how a [`Request`] reaches the
//! [`serve`](crate::service::serve) of its target site and how the
//! [`WireResponse`] comes back: borrowed, on the caller's own thread
//! ([`Inline`](crate::cluster::Inline), the deterministic cluster), as
//! [`WireRequest`](crate::wire::WireRequest) values over an inbox
//! ([`LiveTransport`](crate::LiveTransport)) or as frames over a socket
//! ([`TcpTransport`](crate::TcpTransport)). That difference is the
//! [`Transport`] trait — `call`, `cast`, and a concurrent `scatter` for
//! what crosses a link, and `local` for what does not: a coordinator *is*
//! its site's server process (§2), so what it asks of its own replica is
//! served on its own thread and never becomes a message.
//! Whether a message may be sent at all is [`Links`]: site states and the
//! topology, the one link model of all three runtimes, consulted through
//! the transport's [`exchange`](Transport::exchange) and
//! [`probe`](Transport::probe) hooks — which is where a fault layer
//! ([`Faulty`](crate::fault::Faulty)) decides each exchange's fate.
//! Everything else a coordinator is — the [`Coordinator`] every runtime
//! holds, and the protocol steps that turn into a request and a reply back
//! into an answer — is [`ServerCluster`], once.

use crate::backend::{
    self, BlockVec, Coordinator, Fold, RepairBlocks, ScatterRequest, ScatterSpec, WriteBatch,
};
use crate::protocol;
use crate::wire::{Batch, Request, WireResponse};
use blockrep_net::{Topology, TrafficCounter, TrafficSnapshot};
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, Scheme, SiteId, SiteState, VersionNumber,
    VersionVector,
};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The two facts the paper's model has about the world outside a replica:
/// which sites are up (fail-stop, §2) and which can reach which (§3.2's
/// partition-free assumption, and its violation).
#[derive(Debug, Clone)]
struct LinkState {
    /// Authoritative site states, maintained by the coordination layer (a
    /// failed site's own server cannot be asked).
    states: Vec<SiteState>,
    topology: Topology,
}

impl LinkState {
    /// Whether every site is available and the network whole: then every
    /// exchange goes through.
    fn all_up(&self) -> bool {
        let whole = self.topology == Topology::fully_connected(self.states.len());
        whole && self.states.iter().all(|&s| s == SiteState::Available)
    }
}

/// The one link model of every runtime: site states and the topology under
/// one lock, and the emulated link delay. A clone is a second handle on the
/// same links — what a cluster hands its transport's server threads.
#[derive(Debug, Clone)]
pub(crate) struct Links {
    net: Arc<RwLock<LinkState>>,
    /// [`LinkState::all_up`], stored (`Release`) under the write lock at
    /// every change and loaded (`Acquire`) alone: while it holds, a site's
    /// state and an exchange's fate are read without the lock.
    all_up: Arc<AtomicBool>,
    /// Emulated one-way link delay in nanoseconds.
    latency_ns: Arc<AtomicU64>,
}

impl Links {
    /// `n` sites, all available, fully connected.
    pub(crate) fn new(n: usize) -> Self {
        Links {
            net: Arc::new(RwLock::new(LinkState {
                states: vec![SiteState::Available; n],
                topology: Topology::fully_connected(n),
            })),
            all_up: Arc::new(AtomicBool::new(true)),
            latency_ns: Arc::default(),
        }
    }

    /// Independent links in the same states and topology, with no delay.
    pub(crate) fn fork(&self) -> Self {
        let net = self.net.read().clone();
        Links {
            all_up: Arc::new(AtomicBool::new(net.all_up())),
            net: Arc::new(RwLock::new(net)),
            latency_ns: Arc::default(),
        }
    }

    /// Changes the states or the topology, and `all_up` with them.
    fn change(&self, f: impl FnOnce(&mut LinkState)) {
        let mut net = self.net.write();
        f(&mut net);
        self.all_up.store(net.all_up(), Ordering::Release);
    }

    #[inline(always)]
    pub(crate) fn state(&self, s: SiteId) -> SiteState {
        if self.all_up.load(Ordering::Acquire) {
            return SiteState::Available;
        }
        self.net.read().states[s.index()]
    }

    pub(crate) fn set_state(&self, s: SiteId, state: SiteState) {
        self.change(|net| net.states[s.index()] = state);
    }

    /// Whether a message from `from` reaches `to`: a site always reaches
    /// itself (local actions, even while failed); otherwise both ends must
    /// be operational and in the same partition.
    #[inline(always)]
    pub(crate) fn reachable(&self, from: SiteId, to: SiteId) -> bool {
        if from == to || self.all_up.load(Ordering::Acquire) {
            return true;
        }
        let net = self.net.read();
        net.states[from.index()].is_operational()
            && net.states[to.index()].is_operational()
            && net.topology.reachable(from, to)
    }

    /// `to`'s state as `from` observes it: `None` if `to` is failed — a
    /// failed site answers nobody, itself included — or unreachable.
    #[inline]
    pub(crate) fn probe(&self, from: SiteId, to: SiteId) -> Option<SiteState> {
        let state = self.state(to);
        (state.is_operational() && self.reachable(from, to)).then_some(state)
    }

    /// Splits the network into `groups` (see [`Topology::partition`]).
    pub(crate) fn partition(&self, groups: &[Vec<SiteId>]) {
        self.change(|net| net.topology.partition(groups));
    }

    /// Removes all partitions.
    pub(crate) fn heal(&self) {
        self.change(|net| net.topology.heal());
    }

    /// Sleeps for the emulated link delay, if one is set: what a server
    /// does before it serves a *remote* round trip (see
    /// [`ServerCluster::set_link_latency`]). A local action crosses no link
    /// and never comes here.
    #[inline]
    pub(crate) fn delay(&self) {
        let ns = self.latency_ns.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
}

/// A scatter's replies on their way to the protocol's fold: each is
/// checked for shape and counted for the §5 charge.
struct Gather<'r, F> {
    req: ScatterRequest<'r>,
    gathered: u64,
    fold: F,
}

impl<F: Fold> Fold for Gather<'_, F> {
    #[inline(always)]
    fn reply(&mut self, t: SiteId, response: Option<WireResponse>) {
        let reply = response.filter(|r| self.req.answered_by(r));
        self.gathered += u64::from(reply.is_some());
        self.fold.reply(t, reply);
    }
}

/// Requests a live site's inbox may hold unserved. Past it the sender
/// blocks, so a coordinator cannot outrun the sites it writes to by more
/// than this. (A TCP connection holds one exchange at a time.)
pub(crate) const WINDOW: usize = 32;

/// Which fan-outs a transport's [`scatter`](Transport::scatter) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fanout {
    /// None: every fan-out runs one exchange after another in target
    /// order, which is also the order a fault layer numbers them in.
    Sequential,
    /// Every fan-out but an install's, whose one-way casts do not block
    /// and so gain nothing from a scatter.
    Reads,
    /// Every fan-out.
    All,
}

/// How requests reach the sites' servers and replies come back.
/// [`ServerCluster`] routes a site's request to itself to
/// [`local`](Self::local) and every other one through
/// [`exchange`](Self::exchange), so `call`, `cast` and `scatter` only ever
/// see `to != from`.
pub(crate) trait Transport: Send + Sync {
    /// The runtime's name in parity reports.
    const NAME: &'static str;
    /// Which fan-outs go through [`scatter`](Self::scatter).
    const FANOUT: Fanout = Fanout::Sequential;

    /// One round trip with `to`'s server. `None` when the exchange died.
    fn call(&self, to: SiteId, request: Request<'_>) -> Option<WireResponse>;

    /// One delivery to `to`'s server nobody waits on the effect of; returns
    /// whether the request was delivered.
    fn cast(&self, to: SiteId, request: Request<'_>) -> bool;

    /// Serves `request` on site `s`'s replica, on the calling thread,
    /// through the same [`serve`](crate::service::serve) as `s`'s server and
    /// behind everything already delivered to `s`. No link is crossed: no
    /// envelope, no emulated delay. `None` for what `serve` does not serve.
    fn local(&self, s: SiteId, request: Request<'_>) -> Option<WireResponse>;

    /// Sends `request` to every `eligible` target (ascending; eligibility is
    /// not the transport's to decide) before waiting on any, then hands
    /// each response to `gather` in target order, `None` if not sent or not
    /// answered: results and §5 counts of the sequential loop, blocking
    /// time of the slowest target. Asked only as [`FANOUT`](Self::FANOUT) says.
    fn scatter(
        &self,
        _targets: &[SiteId],
        _eligible: &dyn Fn(SiteId) -> bool,
        _gather: &mut dyn Fold,
        _request: Request<'_>,
    ) {
        unreachable!("{} scatters one exchange at a time", Self::NAME)
    }

    /// One exchange from `from` with another site `to`:
    /// [`call`](Self::call), or [`cast`](Self::cast) when `one_way` (a
    /// delivered cast answers `Ack`), if `links` let it through.
    #[inline(always)]
    fn exchange(
        &self,
        links: &Links,
        from: SiteId,
        to: SiteId,
        request: Request<'_>,
        one_way: bool,
    ) -> Option<WireResponse> {
        if !links.reachable(from, to) {
            None
        } else if one_way {
            self.cast(to, request).then_some(WireResponse::Ack)
        } else {
            self.call(to, request)
        }
    }

    /// `to`'s state as another site `from` observes it. No message is
    /// sent: the links know.
    fn probe(&self, links: &Links, from: SiteId, to: SiteId) -> Option<SiteState> {
        links.probe(from, to)
    }
}

/// A cluster of site server processes behind a transport `T`, one per
/// site, each serving its replica through the one site service. Use it
/// through its three instantiations: the deterministic
/// [`Cluster`](crate::Cluster) (every request served on the caller's
/// thread), [`LiveCluster`](crate::LiveCluster) (threads and inboxes) and
/// [`TcpCluster`](crate::TcpCluster) (loopback sockets).
pub struct ServerCluster<T> {
    pub(crate) coord: Coordinator,
    pub(crate) transport: T,
}

impl<T> ServerCluster<T> {
    /// The cluster of `coord` over an already running `transport`, whose
    /// server threads share the coordinator's links.
    pub(crate) fn over(coord: Coordinator, transport: T) -> Self {
        ServerCluster { coord, transport }
    }

    /// The coordinator and the transport, taken apart.
    pub(crate) fn into_parts(self) -> (Coordinator, T) {
        (self.coord, self.transport)
    }
}

// `Transport` is the crate's own seam: nothing outside it can name a `T`
// other than the exported ones.
#[allow(private_bounds)]
impl<T: Transport> ServerCluster<T> {
    /// Reads block `k`, coordinated by site `origin`: a batch of one.
    ///
    /// # Errors
    ///
    /// See the scheme algorithms: [`DeviceError::Unavailable`] without a
    /// read quorum (voting), [`DeviceError::SiteNotServing`] when `origin`
    /// cannot coordinate, and the usual validation errors.
    ///
    /// [`DeviceError::Unavailable`]: blockrep_types::DeviceError::Unavailable
    /// [`DeviceError::SiteNotServing`]: blockrep_types::DeviceError::SiteNotServing
    pub fn read(&self, origin: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        let blocks = protocol::read_many(self, origin, std::slice::from_ref(&k))?;
        blocks
            .into_iter()
            .next()
            .ok_or_else(|| backend::dead_local_leg(origin))
    }

    /// Writes block `k`, coordinated by site `origin`: a batch of one.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read), against the write quorum.
    pub fn write(&self, origin: SiteId, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        protocol::write_many(self, origin, &[(k, data)])
    }

    /// Reads a batch of distinct blocks in one protocol round — one request
    /// per site for the whole run. Byte- and traffic-identical to per-block
    /// [`read`](Self::read)s.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read); the quorum check covers the batch.
    pub fn read_many(&self, origin: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        protocol::read_many(self, origin, ks).map(BlockVec::into_vec)
    }

    /// Writes a batch of distinct blocks in one protocol round — one
    /// request per site for the whole run. State- and traffic-identical to
    /// per-block [`write`](Self::write)s.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write); the quorum check covers the batch.
    pub fn write_many(
        &self,
        origin: SiteId,
        writes: &[(BlockIndex, BlockData)],
    ) -> DeviceResult<()> {
        protocol::write_many(self, origin, writes)
    }

    /// Fail-stops site `s`: it stops being contacted and stops answering,
    /// and under available copy with on-failure tracking the survivors
    /// refresh their was-available sets. Its server and disk survive, like
    /// a halted machine's.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a site of this device.
    pub fn fail_site(&self, s: SiteId) {
        assert!(self.coord.cfg.contains_site(s), "unknown site {s}");
        protocol::fail(self, s);
    }

    /// Restarts site `s` and runs the scheme's recovery: free and immediate
    /// for voting, comatose-then-recover for the available copy schemes.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a site of this device or is not currently
    /// failed.
    pub fn repair_site(&self, s: SiteId) {
        assert!(self.coord.cfg.contains_site(s), "unknown site {s}");
        assert_eq!(
            self.site_state(s),
            SiteState::Failed,
            "repairing a site that is not failed"
        );
        protocol::repair(self, s);
    }

    /// Splits the network into partitions: messages across groups are
    /// refused synchronously. The available copy schemes assume this never
    /// happens; the hook exists to demonstrate why.
    pub fn partition(&self, groups: &[Vec<SiteId>]) {
        self.coord.links.partition(groups);
    }

    /// Heals all partitions and re-runs the recovery sweep (recoveries that
    /// were blocked on unreachable closure members can now complete).
    pub fn heal(&self) {
        protocol::heal(self);
    }

    /// The state of site `s`, a site of this device: a site's own
    /// knowledge, no network involved.
    pub fn site_state(&self, s: SiteId) -> SiteState {
        assert!(self.coord.cfg.contains_site(s), "unknown site {s}");
        self.coord.links.state(s)
    }

    /// Sets a site's state (local action: crash, restart, promotion).
    pub fn set_local_state(&self, s: SiteId, state: SiteState) {
        self.coord.links.set_state(s, state);
    }

    /// Whether the device is available under the scheme's criterion: a
    /// live quorum (voting) or an available copy (the others).
    pub fn is_available(&self) -> bool {
        protocol::is_available(self)
    }

    /// A site currently able to coordinate reads and writes, if any —
    /// lowest id first, for determinism.
    pub fn any_serving_site(&self) -> Option<SiteId> {
        let voting = self.coord.cfg.scheme() == Scheme::Voting;
        self.coord.cfg.site_ids().find(|&s| {
            let state = self.site_state(s);
            state.can_serve() || (voting && state.is_operational())
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.coord.cfg
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.coord.cfg.num_sites()
    }

    /// The §5 high-level transmission counter, charged by the protocol
    /// layer.
    pub fn counter(&self) -> &TrafficCounter {
        &self.coord.counter
    }

    /// A point-in-time snapshot of the traffic counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.coord.counter.snapshot()
    }

    /// Inspection: the version site `s` holds for block `k`, off its own
    /// disk (test support).
    pub fn version_of(&self, s: SiteId, k: BlockIndex) -> VersionNumber {
        self.fetch_block(s, s, k)
            .expect("a site reads its own disk")
            .0
    }

    /// Inspection: the raw data site `s` holds for block `k` (test
    /// support — this bypasses the consistency protocol).
    pub fn data_of(&self, s: SiteId, k: BlockIndex) -> BlockData {
        self.fetch_block(s, s, k)
            .expect("a site reads its own disk")
            .1
    }

    /// Inspection: site `s`'s was-available set, in ascending order.
    pub fn was_available_of(&self, s: SiteId) -> Vec<SiteId> {
        self.was_available(s, s)
            .expect("a site reads its own was-available set")
    }

    /// Emulates a network link delay: every server sleeps `delay` before
    /// serving a *remote* round trip (what a coordinator asks of its own
    /// site crosses no link and pays nothing; shutdown, and the one-way
    /// casts of the deterministic and live clusters — whose transit
    /// occupies no server on a real network — are exempt too; on the TCP
    /// cluster a cast is a round trip). Zero, the default, disables the
    /// emulation. Message *counts* are unaffected.
    pub fn set_link_latency(&self, delay: Duration) {
        self.coord.links.latency_ns.store(
            delay.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// One round trip from `from` to `to`'s server; `None` when `to` is
    /// unreachable from `from` or the exchange died. A site's request to
    /// itself is a local action, not an exchange. Always inlined, like
    /// [`cast`](Self::cast): each protocol step below builds its request
    /// right above, so on the deterministic cluster, whose transport serves
    /// it inline, the site service's dispatch folds down to the one arm
    /// taken.
    #[inline(always)]
    fn call(&self, from: SiteId, to: SiteId, request: Request<'_>) -> Option<WireResponse> {
        if from == to {
            return self.transport.local(to, request);
        }
        self.transport
            .exchange(&self.coord.links, from, to, request, false)
    }

    /// One delivery from `from` to `to`'s server; whether it was delivered.
    /// A site's delivery to itself is done by the time this returns.
    #[inline(always)]
    fn cast(&self, from: SiteId, to: SiteId, request: Request<'_>) -> bool {
        if from == to {
            return self.transport.local(to, request).is_some();
        }
        self.transport
            .exchange(&self.coord.links, from, to, request, true)
            .is_some()
    }

    // The protocol steps. Each is one request to the site service and its
    // reply; one with a `from` site answers `None` (or `false`) when the
    // target did not: failed, unreachable, or the exchange died.

    /// Observes `to`'s state from `from`: `None` if `to` is failed — a
    /// failed site answers nobody, itself included — or unreachable. No
    /// message is sent, but a probe of another site is an exchange whose
    /// fate a fault layer decides like any other's.
    pub fn probe_state(&self, from: SiteId, to: SiteId) -> Option<SiteState> {
        if from == to {
            return self.coord.links.probe(from, to);
        }
        self.transport.probe(&self.coord.links, from, to)
    }

    /// Requests `to`'s votes — its version numbers — for a run of blocks
    /// in **one** exchange, in the order of `ks`. With `from == to` this
    /// is the local version lookup.
    #[inline(always)]
    pub fn vote_many(
        &self,
        from: SiteId,
        to: SiteId,
        ks: &[BlockIndex],
    ) -> Option<BlockVec<VersionNumber>> {
        match self.call(from, to, Request::VoteMany(ks))? {
            WireResponse::Versions(vs) if vs.len() == ks.len() => Some(vs),
            _ => None,
        }
    }

    /// Fetches `to`'s copies of a run of blocks — each block's version
    /// with its data — in **one** exchange, in the order of `ks`. With
    /// `from == to` this is the local leg a voting read votes and reads
    /// with.
    #[inline(always)]
    pub fn fetch_many(
        &self,
        from: SiteId,
        to: SiteId,
        ks: &[BlockIndex],
    ) -> Option<BlockVec<(VersionNumber, BlockData)>> {
        match self.call(from, to, Request::FetchMany(ks))? {
            WireResponse::Blocks(blocks) if blocks.len() == ks.len() => Some(blocks),
            _ => None,
        }
    }

    /// Fetches `to`'s copy of block `k`: a run of one.
    pub fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        self.fetch_many(from, to, &[k])?.into_iter().next()
    }

    /// Delivers a batch of write updates to `to` in **one** exchange (or
    /// applies them locally when `from == to`): each block is installed if
    /// newer, with the sum it was sealed with. Delivery is all-or-nothing.
    pub fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        self.cast(from, to, Request::ApplyWriteMany(Batch::Sealed(writes)))
    }

    /// Reads a run of blocks straight off `s`'s local disk in **one**
    /// exchange, in the order of `ks`.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Io`](blockrep_types::DeviceError::Io) when `s`'s
    /// replica does not answer its own coordinator: never on the shipped
    /// transports, where the local leg is served on the coordinator's
    /// thread; a transport standing in for a broken disk may.
    pub fn read_local_many(
        &self,
        s: SiteId,
        ks: &[BlockIndex],
    ) -> DeviceResult<BlockVec<BlockData>> {
        match self.call(s, s, Request::ReadLocalMany(ks)) {
            Some(WireResponse::DataMany(ds)) if ds.len() == ks.len() => Ok(ds),
            _ => Err(backend::dead_local_leg(s)),
        }
    }

    /// Requests `to`'s version vector.
    pub fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        match self.call(from, to, Request::VersionVector)? {
            WireResponse::Vector(vv) => Some(vv),
            _ => None,
        }
    }

    /// Sends `from`'s version vector `vv` to `to`; `to` answers with the
    /// blocks whose version differs from `vv` (Figure 5's exchange).
    pub fn repair_payload(
        &self,
        from: SiteId,
        to: SiteId,
        vv: &VersionVector,
    ) -> Option<RepairBlocks> {
        match self.call(from, to, Request::RepairPayload(vv))? {
            WireResponse::Payload(blocks) => Some(blocks),
            _ => None,
        }
    }

    /// Installs a repair payload on `s`'s local store; returns the number of
    /// blocks replaced — `0` when `s`'s server does not take the payload
    /// (its local leg died): nothing was installed.
    pub fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize {
        match self.call(s, s, Request::ApplyRepair(&blocks)) {
            Some(WireResponse::Count(n)) => n as usize,
            _ => 0,
        }
    }

    /// Requests `to`'s was-available set `W`, in ascending order.
    pub fn was_available(&self, from: SiteId, to: SiteId) -> Option<Vec<SiteId>> {
        match self.call(from, to, Request::GetW)? {
            WireResponse::W(w) => Some(w),
            _ => None,
        }
    }

    /// Replaces `to`'s was-available set with the sites of `w`, in
    /// ascending order (piggybacked on writes/repairs).
    pub fn set_was_available(&self, from: SiteId, to: SiteId, w: &[SiteId]) -> bool {
        self.cast(from, to, Request::SetW(w))
    }

    /// Tells `to` that `member` has repaired from it: `W_to ← W_to ∪ {member}`.
    pub fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        self.cast(from, to, Request::AddW(member))
    }

    /// Runs the restart-time integrity scrub on `s`'s local disk, resetting
    /// checksum-broken blocks to the freshly formatted state. Returns the
    /// number of blocks reset — `0` when `s`'s server does not answer (its
    /// local leg died): nothing was scrubbed.
    pub fn scrub_local(&self, s: SiteId) -> usize {
        match self.call(s, s, Request::Scrub) {
            Some(WireResponse::Count(n)) => n as usize,
            _ => 0,
        }
    }

    /// Scatter-gather: delivers `req` to every target (ascending site
    /// order, never `origin`) and hands each target's reply to `fold` as it
    /// is gathered, in target order — `None` for a target that did not
    /// answer or answered out of shape — with the results and §5 counts of
    /// the sequential loop: one `spec.reply_charge` per gathered reply.
    #[inline(always)]
    pub fn scatter(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        req: &ScatterRequest<'_>,
        fold: impl Fold,
    ) {
        debug_assert!(
            !targets.contains(&origin),
            "a scatter is remote: {origin}'s own leg goes through `local`"
        );
        crate::obs_hooks::record(crate::obs_hooks::scatter_batch, targets.len() as u64);
        let req = *req;
        let mut gather = Gather {
            req,
            gathered: 0,
            fold,
        };
        let concurrent = match (T::FANOUT, req.request()) {
            // A state probe has no request: it is a coordination-layer read
            // on every transport, and the sequential body is already
            // instantaneous. A one-way install is scattered only where a
            // cast blocks.
            (Fanout::All, Some((request, _))) | (Fanout::Reads, Some((request, false))) => {
                Some(request)
            }
            _ => None,
        };
        match concurrent {
            None => backend::scatter_sequential(self, origin, targets, req, &mut gather),
            Some(request) => {
                let eligible = |t| match req {
                    // The availability probe is a state read, as in the
                    // sequential body.
                    ScatterRequest::InstallIfAvailableMany(_) => {
                        self.probe_state(origin, t) == Some(SiteState::Available)
                    }
                    _ => self.coord.links.reachable(origin, t),
                };
                self.transport
                    .scatter(targets, &eligible, &mut gather, request);
            }
        }
        if let Some(kind) = spec.reply_charge {
            let counter = &self.coord.counter;
            counter.add_many(spec.op, kind, spec.reply_units, gather.gathered);
        }
    }
}

impl<T: Transport> std::fmt::Debug for ServerCluster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCluster")
            .field("transport", &T::NAME)
            .field("sites", &self.coord.cfg.num_sites())
            .field("scheme", &self.coord.cfg.scheme())
            .field("mode", &self.coord.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
    use blockrep_net::DeliveryMode;
    use blockrep_types::Scheme;

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    #[test]
    fn reachable_truth_table() {
        let links = Links::new(3);
        let (a, b, c) = (sid(0), sid(1), sid(2));
        assert!(links.reachable(a, b) && links.reachable(b, a));
        // Either end failed: no message passes, in either direction.
        links.set_state(b, SiteState::Failed);
        assert!(!links.reachable(a, b), "to a failed site");
        assert!(!links.reachable(b, a), "from a failed site");
        assert!(links.reachable(a, c), "bystanders are unaffected");
        // A site always reaches itself, even failed: local actions.
        assert!(links.reachable(b, b));
        // Comatose is operational: the site answers, it just does not serve.
        links.set_state(b, SiteState::Comatose);
        assert!(links.reachable(a, b) && links.reachable(b, a));
        // Across a partition nothing passes; within one, everything does.
        links.partition(&[vec![a, b], vec![c]]);
        assert!(links.reachable(a, b));
        assert!(!links.reachable(a, c) && !links.reachable(c, b));
        assert!(links.reachable(c, c));
        links.heal();
        assert!(links.reachable(a, c) && links.reachable(c, b));
        // A fork starts where the original stands and then goes its own way.
        let fork = links.fork();
        assert_eq!(fork.state(b), SiteState::Comatose);
        fork.set_state(a, SiteState::Failed);
        assert!(links.reachable(a, c) && !fork.reachable(a, c));
    }

    /// While every site is available and the network whole, a state or a
    /// reachability read takes no lock; every change under the lock
    /// rewrites that flag, so the reads answer what the lock holds.
    #[test]
    fn the_reads_without_the_lock_answer_what_the_lock_holds() {
        let check = |links: &Links, all_up: bool| {
            let net = links.net.read().clone();
            let up = |s: SiteId| net.states[s.index()].is_operational();
            for a in SiteId::all(3) {
                assert_eq!(links.state(a), net.states[a.index()]);
                for b in SiteId::all(3) {
                    let want = a == b || (up(a) && up(b) && net.topology.reachable(a, b));
                    assert_eq!(links.reachable(a, b), want, "{a} -> {b} in {net:?}");
                }
            }
            assert_eq!(links.all_up.load(Ordering::Acquire), all_up, "{net:?}");
        };
        let links = Links::new(3);
        check(&links, true);
        for state in [SiteState::Failed, SiteState::Comatose] {
            links.set_state(sid(1), state);
            check(&links, false);
        }
        links.set_state(sid(1), SiteState::Available);
        check(&links, true);
        links.partition(&[vec![sid(0), sid(1)], vec![sid(2)]]);
        check(&links, false);
        let fork = links.fork();
        links.heal();
        check(&links, true);
        check(&fork, false);
        fork.heal();
        check(&fork, true);
    }

    /// The probes a failed, a comatose and a partitioned site answer.
    fn probes_of<T: Transport>(rt: &ServerCluster<T>) {
        protocol::fail(rt, sid(1));
        assert_eq!(rt.probe_state(sid(1), sid(1)), None, "{rt:?}: own probe");
        assert_eq!(rt.probe_state(sid(0), sid(1)), None, "{rt:?}: remote probe");
        assert_eq!(rt.site_state(sid(1)), SiteState::Failed, "{rt:?}");
        let up = Some(SiteState::Available);
        assert_eq!(rt.probe_state(sid(0), sid(0)), up, "{rt:?}: own probe, up");
        assert_eq!(rt.probe_state(sid(0), sid(2)), up, "{rt:?}: remote, up");
        // Restarted but not yet recovered: comatose sites do answer.
        rt.set_local_state(sid(1), SiteState::Comatose);
        let comatose = Some(SiteState::Comatose);
        assert_eq!(rt.probe_state(sid(1), sid(1)), comatose, "{rt:?}");
        assert_eq!(rt.probe_state(sid(2), sid(1)), comatose, "{rt:?}");
        rt.partition(&[vec![sid(0)], vec![sid(1), sid(2)]]);
        assert_eq!(rt.probe_state(sid(0), sid(2)), None, "{rt:?}: partitioned");
        assert_eq!(
            rt.probe_state(sid(2), sid(1)),
            comatose,
            "{rt:?}: same side"
        );
    }

    #[test]
    fn a_failed_site_answers_no_probe_not_even_its_own_on_every_runtime() {
        let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(2)
            .block_size(8)
            .build()
            .unwrap();
        probes_of(&Cluster::new(cfg.clone(), ClusterOptions::default()));
        probes_of(&LiveCluster::spawn(cfg.clone(), DeliveryMode::Multicast));
        probes_of(&TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap());
    }

    fn cfg(scheme: Scheme, sites: usize) -> DeviceConfig {
        DeviceConfig::builder(scheme)
            .sites(sites)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap()
    }

    /// Runs `$check`, a function generic over the transport, on a cluster
    /// of `$sites` sites over each of the three transports, per scheme. (A
    /// cluster's `Debug` names its transport and scheme.)
    macro_rules! on_every_runtime {
        ($sites:expr, $check:expr) => {
            for scheme in Scheme::ALL {
                let mode = DeliveryMode::Multicast;
                $check(&Cluster::new(cfg(scheme, $sites), ClusterOptions { mode }));
                $check(&LiveCluster::spawn(cfg(scheme, $sites), mode));
                $check(&TcpCluster::spawn(cfg(scheme, $sites), mode).unwrap());
            }
        };
    }

    #[test]
    fn a_read_at_any_site_is_behind_every_install_already_sent_there() {
        fn check<T: Transport>(c: &ServerCluster<T>) {
            let k = BlockIndex::new(1);
            // The available copy schemes wait for no acknowledgement, so on
            // the live cluster only "serve the inbox first" makes this true.
            for round in 0..1_000u64 {
                let data = BlockData::from(round.to_le_bytes().to_vec());
                c.write(sid(0), k, data.clone()).unwrap();
                for origin in [sid(1), sid(2)] {
                    let got = c.read(origin, k).unwrap();
                    assert_eq!(got, data, "{c:?}: {origin}, {round}");
                }
            }
        }
        on_every_runtime!(3, check);
    }

    #[test]
    fn every_replica_of_a_write_stores_the_sum_of_what_it_holds() {
        fn check<T: Transport>(c: &ServerCluster<T>) {
            let ks: Vec<BlockIndex> = (0..4).map(BlockIndex::new).collect();
            // Half the blocks are written as one batch, half one at a time.
            let (batched, single) = ks.split_at(2);
            for round in 0..6u8 {
                let fill = |k: &BlockIndex| BlockData::from(vec![round ^ k.as_u64() as u8; 8]);
                let origin = sid(u32::from(round) % 3);
                let writes: Vec<(BlockIndex, BlockData)> =
                    batched.iter().map(|k| (*k, fill(k))).collect();
                c.write_many(origin, &writes).unwrap();
                for k in single {
                    c.write(origin, *k, fill(k)).unwrap();
                }
            }
            for s in (0..3).map(sid) {
                // Sealed where the coordinator chose the version, re-sealed
                // where a TCP site decoded the frame: either way the stored
                // sum is the one checksum of the stored version and data.
                assert_eq!(c.scrub_local(s), 0, "{c:?}: {s}");
                for &k in &ks {
                    let held = c.fetch_block(s, s, k);
                    assert_eq!(held, c.fetch_block(sid(0), sid(0), k), "{c:?}: {s} {k}");
                }
            }
        }
        on_every_runtime!(3, check);
    }

    /// Client `i`'s script: at origin `i`, write a tagged block and read a
    /// neighbour's, `ROUNDS` times over four overlapping blocks.
    const CLIENTS: u32 = 4;
    const ROUNDS: u32 = 50;

    fn client_script<T: Transport>(b: &ServerCluster<T>, i: u32) {
        let block_of = |i: u32, round: u32| BlockIndex::new(u64::from((i + round) % 4));
        for round in 0..ROUNDS {
            let tag = (1 + i * ROUNDS + round) as u8;
            let data = BlockData::from(vec![tag; 8]);
            b.write(sid(i), block_of(i, round), data).unwrap();
            let k = block_of(i, round + 1);
            let got = b.read(sid(i), k).unwrap();
            let tag = u32::from(got.as_slice()[0]);
            assert!(got.as_slice().iter().all(|&b| u32::from(b) == tag), "torn");
            if tag != 0 {
                let (writer, round) = ((tag - 1) / ROUNDS, (tag - 1) % ROUNDS);
                assert!(writer < CLIENTS, "{tag} was never written");
                assert_eq!(block_of(writer, round), k, "{tag} was written elsewhere");
            }
        }
    }

    #[test]
    fn coordinators_at_every_site_share_the_replicas_with_the_site_threads() {
        fn check<T: Transport>(c: &ServerCluster<T>) {
            std::thread::scope(|scope| {
                for i in 0..CLIENTS {
                    scope.spawn(move || client_script(c, i));
                }
            });
            // Quiescence: every copy of every block is the same copy. (Each
            // probe is a local leg, so it is behind that site's inbox.)
            for k in (0..4).map(BlockIndex::new) {
                let copy_at = |s: u32| c.fetch_block(sid(s), sid(s), k).unwrap();
                for s in 1..CLIENTS {
                    assert_eq!(copy_at(s), copy_at(0), "{c:?}: {k}");
                }
            }
            // With every site up an operation's traffic does not depend on
            // what it raced with: the same scripts, serially.
            let det = Cluster::new(c.config().clone(), ClusterOptions::default());
            (0..CLIENTS).for_each(|i| client_script(&det, i));
            assert_eq!(c.counter().snapshot(), det.traffic(), "{c:?}");
        }
        on_every_runtime!(CLIENTS as usize, check);
    }

    #[test]
    fn a_local_action_pays_no_link_delay() {
        const DELAY: Duration = Duration::from_millis(20);
        fn check<T: Transport>(c: &ServerCluster<T>) {
            let k = BlockIndex::new(0);
            let data = BlockData::from(vec![7; 8]);
            c.write(sid(0), k, data.clone()).unwrap();
            c.set_link_latency(DELAY);
            // The fastest of a few reads: a descheduled test thread can make
            // one slow, but not make a delayed one fast.
            let fastest = (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    assert_eq!(c.read(sid(0), k).unwrap(), data);
                    start.elapsed()
                })
                .min()
                .unwrap();
            if c.config().scheme() == Scheme::Voting {
                // A quorum is a round trip to somebody else.
                assert!(fastest >= DELAY, "{c:?}: {fastest:?}");
            } else {
                // §3.2: a local copy is read "avoiding any network traffic".
                let bound = Duration::from_millis(5);
                assert!(fastest < bound, "{c:?}: {fastest:?}");
            }
        }
        on_every_runtime!(3, check);
    }
}
