//! The transport seam, and the one cluster written over it.
//!
//! A message-passing runtime differs from another only in how a
//! [`WireRequest`] reaches the thread that [`serve`](crate::service::serve)s
//! it and how the [`WireResponse`] comes back: as values over a mailbox
//! ([`LiveTransport`](crate::LiveTransport)) or as frames over a socket
//! ([`TcpTransport`](crate::TcpTransport)). That difference is the
//! [`Transport`] trait — `call`, `cast`, and a concurrent `scatter`.
//! Everything else a coordinator is — site states, the §5 counter, block
//! locks, leases, the [`Backend`] methods that turn a protocol step into a
//! request and a reply back into its answer — is [`ServerCluster`], once.

use crate::backend::{
    self, Backend, RepairBlocks, RepairPayload, ScatterReplies, ScatterReply, ScatterRequest,
    ScatterSpec, WriteBatch,
};
use crate::locks::{BlockLockTable, LeaseTable};
use crate::protocol;
use crate::wire::{WireRequest, WireResponse};
use blockrep_net::{DeliveryMode, TrafficCounter};
use blockrep_storage::StorageFault;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, SiteId, SiteState, VersionNumber,
    VersionVector,
};
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a cluster shares with its transport and the transport's server
/// threads.
#[derive(Clone)]
pub(crate) struct Links {
    /// Authoritative site states, maintained by the coordination layer (a
    /// failed site's own server cannot be asked).
    pub(crate) states: Arc<RwLock<Vec<SiteState>>>,
    /// Emulated one-way link delay in nanoseconds.
    latency_ns: Arc<AtomicU64>,
}

impl Links {
    pub(crate) fn new(cfg: &DeviceConfig) -> Self {
        Links {
            states: Arc::new(RwLock::new(vec![SiteState::Available; cfg.num_sites()])),
            latency_ns: Arc::default(),
        }
    }

    /// Sleeps for the emulated link delay, if one is set: what a server
    /// does before it serves a round trip (see
    /// [`ServerCluster::set_link_latency`]).
    pub(crate) fn delay(&self) {
        let ns = self.latency_ns.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
}

/// One fan-out, as a [`Transport`] sees it: the coordinator's accounting
/// plus the two decisions that are not the transport's to make.
pub(crate) struct Scatter<'a> {
    pub(crate) counter: &'a TrafficCounter,
    pub(crate) spec: ScatterSpec,
    pub(crate) origin: SiteId,
    /// In ascending site order.
    pub(crate) targets: &'a [SiteId],
    /// Whether a target is sent the request at all.
    pub(crate) eligible: &'a dyn Fn(SiteId) -> bool,
    /// A target's reply as the protocol reads it; `None` for a reply of
    /// the wrong shape, which counts as no reply.
    pub(crate) parse: &'a dyn Fn(WireResponse) -> Option<ScatterReply>,
}

/// How requests reach the sites' servers and replies come back.
pub(crate) trait Transport: Send + Sync {
    /// The runtime's name in parity reports.
    const NAME: &'static str;
    /// Whether [`cast`](Self::cast) blocks for an acknowledgement. Where it
    /// does not, an install fan-out is already non-blocking one target at a
    /// time and never goes through [`scatter`](Self::scatter).
    const CAST_BLOCKS: bool;

    /// Whether a message from `from` would currently reach `to`.
    fn can_deliver(&self, from: SiteId, to: SiteId) -> bool;

    /// One round trip. `None` when `to` is unreachable from `from` or the
    /// exchange died.
    fn call(&self, from: SiteId, to: SiteId, request: WireRequest) -> Option<WireResponse>;

    /// One delivery nobody waits on the effect of; returns whether the
    /// request was delivered.
    fn cast(&self, from: SiteId, to: SiteId, request: WireRequest) -> bool;

    /// Takes `s`'s link down or up, on a transport that models links apart
    /// from site state.
    fn set_site_up(&self, _s: SiteId, _up: bool) {}

    /// Sends `request` to every eligible target before waiting on any, then
    /// gathers — and charges — the replies in target order: results and §5
    /// counts of the sequential loop, blocking time of the slowest target.
    fn scatter(&self, scatter: Scatter<'_>, request: WireRequest) -> ScatterReplies;
}

/// A cluster of site server processes behind a transport `T`, one per
/// site, each owning its replica and running the one site service. Use it
/// through its two instantiations, [`LiveCluster`](crate::LiveCluster)
/// (threads and mailboxes) and [`TcpCluster`](crate::TcpCluster) (loopback
/// sockets); both are interchangeable with [`Cluster`](crate::Cluster)
/// wherever a [`Backend`] is accepted.
pub struct ServerCluster<T> {
    cfg: DeviceConfig,
    links: Links,
    counter: TrafficCounter,
    mode: DeliveryMode,
    /// Per-block lock shards serializing same-block coordinations.
    locks: BlockLockTable,
    /// Read-lease registry for the offload fast path.
    pub(crate) leases: LeaseTable,
    pub(crate) transport: T,
}

impl<T> ServerCluster<T> {
    /// The cluster over an already running `transport`, which shares
    /// `links` with it.
    pub(crate) fn over(cfg: DeviceConfig, mode: DeliveryMode, links: Links, transport: T) -> Self {
        ServerCluster {
            cfg,
            links,
            counter: TrafficCounter::new(),
            mode,
            locks: BlockLockTable::new(),
            leases: LeaseTable::new(),
            transport,
        }
    }
}

// `Transport` is the crate's own seam: nothing outside it can name a `T`
// other than the two exported ones.
#[allow(private_bounds)]
impl<T: Transport> ServerCluster<T> {
    /// Reads block `k`, coordinated by site `origin`.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::read`](crate::Cluster::read).
    pub fn read(&self, origin: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        protocol::read(self, origin, k)
    }

    /// Writes block `k`, coordinated by site `origin`.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::write`](crate::Cluster::write).
    pub fn write(&self, origin: SiteId, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        protocol::write(self, origin, k, &data)
    }

    /// Reads a batch of distinct blocks in one vectored protocol round —
    /// one request per site for the whole run.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::read_many`](crate::Cluster::read_many).
    pub fn read_many(&self, origin: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        protocol::read_many(self, origin, ks)
    }

    /// Writes a batch of distinct blocks in one vectored protocol round —
    /// one request per site for the whole run.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::write_many`](crate::Cluster::write_many).
    pub fn write_many(
        &self,
        origin: SiteId,
        writes: &[(BlockIndex, BlockData)],
    ) -> DeviceResult<()> {
        protocol::write_many(self, origin, writes)
    }

    /// Fail-stops site `s`: it stops being contacted and stops answering.
    /// Its server and disk survive, like a halted machine's.
    pub fn fail_site(&self, s: SiteId) {
        assert!(self.cfg.contains_site(s), "unknown site {s}");
        protocol::fail(self, s);
        self.transport.set_site_up(s, false);
    }

    /// Restarts site `s` and runs the scheme's recovery.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not currently failed.
    pub fn repair_site(&self, s: SiteId) {
        assert!(self.cfg.contains_site(s), "unknown site {s}");
        assert_eq!(
            self.site_state(s),
            SiteState::Failed,
            "repairing a site that is not failed"
        );
        self.transport.set_site_up(s, true);
        protocol::repair(self, s);
    }

    /// The state of site `s`.
    pub fn site_state(&self, s: SiteId) -> SiteState {
        self.local_state(s)
    }

    /// Whether the device is available under the scheme's criterion.
    pub fn is_available(&self) -> bool {
        protocol::is_available(self)
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The §5 high-level transmission counter, charged by the protocol
    /// layer.
    pub fn counter(&self) -> &TrafficCounter {
        &self.counter
    }

    /// Turns lease-based read offload on or off (see [`crate::locks`]).
    pub fn set_leases(&self, on: bool) {
        self.leases.set_enabled(on);
    }

    /// Emulates a network link delay: every server sleeps `delay` before
    /// serving a round trip (shutdown, and the live cluster's one-way casts
    /// — whose transit occupies no server on a real network — are exempt;
    /// on the TCP cluster a cast is a round trip). Zero, the default,
    /// disables the emulation. Message *counts* are unaffected.
    pub fn set_link_latency(&self, delay: Duration) {
        self.links.latency_ns.store(
            delay.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }
}

impl<T: Transport> Backend for ServerCluster<T> {
    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn delivery_mode(&self) -> DeliveryMode {
        self.mode
    }

    fn counter(&self) -> &TrafficCounter {
        &self.counter
    }

    fn local_state(&self, s: SiteId) -> SiteState {
        self.links.states.read()[s.index()]
    }

    fn set_local_state(&self, s: SiteId, state: SiteState) {
        self.links.states.write()[s.index()] = state;
    }

    fn probe_state(&self, from: SiteId, to: SiteId) -> Option<SiteState> {
        if from != to && !self.transport.can_deliver(from, to) {
            return None;
        }
        let state = self.links.states.read()[to.index()];
        state.is_operational().then_some(state)
    }

    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        match self.transport.call(from, to, WireRequest::Vote(k))? {
            WireResponse::Version(v) => Some(v),
            _ => None,
        }
    }

    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>> {
        let request = WireRequest::VoteMany(ks.to_vec());
        match self.transport.call(from, to, request)? {
            WireResponse::Versions(vs) if vs.len() == ks.len() => Some(vs),
            _ => None,
        }
    }

    fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        match self.transport.call(from, to, WireRequest::Fetch(k))? {
            WireResponse::Block(v, data) => Some((v, data)),
            _ => None,
        }
    }

    fn fetch_lease(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        match self.transport.call(from, to, WireRequest::FetchLease(k))? {
            WireResponse::Block(v, data) => Some((v, data)),
            _ => None,
        }
    }

    fn apply_write(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
    ) -> bool {
        let request = WireRequest::ApplyWrite(k, v, data.clone());
        self.transport.cast(from, to, request)
    }

    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        let request = WireRequest::ApplyWriteMany(writes.clone());
        self.transport.cast(from, to, request)
    }

    fn apply_write_faulty(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
        fault: StorageFault,
    ) -> bool {
        let request = WireRequest::ApplyWriteFaulty(k, v, data.clone(), fault);
        self.transport.cast(from, to, request)
    }

    fn read_local(&self, s: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        match self.transport.call(s, s, WireRequest::ReadLocal(k)) {
            Some(WireResponse::Data(data)) => Ok(data),
            _ => Err(backend::dead_local_leg(s)),
        }
    }

    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        let request = WireRequest::ReadLocalMany(ks.to_vec());
        match self.transport.call(s, s, request) {
            Some(WireResponse::DataMany(ds)) if ds.len() == ks.len() => Ok(ds),
            _ => Err(backend::dead_local_leg(s)),
        }
    }

    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        match self.transport.call(from, to, WireRequest::VersionVector)? {
            WireResponse::Vector(vv) => Some(vv),
            _ => None,
        }
    }

    fn repair_payload(
        &self,
        from: SiteId,
        to: SiteId,
        vv: &VersionVector,
    ) -> Option<RepairPayload> {
        let request = WireRequest::RepairPayload(vv.clone());
        match self.transport.call(from, to, request)? {
            WireResponse::Payload(vv, blocks) => Some((vv, blocks)),
            _ => None,
        }
    }

    fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize {
        let n = blocks.len();
        if self.transport.cast(s, s, WireRequest::ApplyRepair(blocks)) {
            n
        } else {
            0
        }
    }

    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>> {
        match self.transport.call(from, to, WireRequest::GetW)? {
            WireResponse::W(w) => Some(w),
            _ => None,
        }
    }

    fn set_was_available(&self, from: SiteId, to: SiteId, w: &BTreeSet<SiteId>) -> bool {
        self.transport.cast(from, to, WireRequest::SetW(w.clone()))
    }

    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        self.transport.cast(from, to, WireRequest::AddW(member))
    }

    fn scrub_local(&self, s: SiteId) -> usize {
        match self.transport.call(s, s, WireRequest::Scrub) {
            Some(WireResponse::Count(n)) => n as usize,
            _ => 0,
        }
    }

    fn block_locks(&self) -> &BlockLockTable {
        &self.locks
    }

    fn leases(&self) -> &LeaseTable {
        &self.leases
    }

    fn scatter(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        req: &ScatterRequest,
    ) -> ScatterReplies {
        let install = matches!(
            req,
            ScatterRequest::Install { .. }
                | ScatterRequest::InstallMany(_)
                | ScatterRequest::InstallIfAvailable { .. }
                | ScatterRequest::InstallIfAvailableMany(_)
        );
        let sequential = || backend::scatter_sequential(self, spec, origin, targets, req);
        // A one-way cast does not block, so an install fan-out made of
        // them gains nothing from the transport's scatter.
        if install && !T::CAST_BLOCKS {
            return sequential();
        }
        // Every target is sent the same request, so it is built once.
        let (request, if_available) = match req {
            ScatterRequest::Vote(k) => (WireRequest::Vote(*k), false),
            ScatterRequest::VoteMany(ks) => (WireRequest::VoteMany(ks.clone()), false),
            ScatterRequest::VersionVector => (WireRequest::VersionVector, false),
            // A state probe is a coordination-layer read on every
            // transport; the sequential body is already instantaneous.
            ScatterRequest::ProbeState => return sequential(),
            ScatterRequest::Install { k, v, data } => {
                (WireRequest::ApplyWrite(*k, *v, data.clone()), false)
            }
            ScatterRequest::InstallIfAvailable { k, v, data } => {
                (WireRequest::ApplyWrite(*k, *v, data.clone()), true)
            }
            ScatterRequest::InstallMany(writes) => {
                (WireRequest::ApplyWriteMany(writes.clone()), false)
            }
            ScatterRequest::InstallIfAvailableMany(writes) => {
                (WireRequest::ApplyWriteMany(writes.clone()), true)
            }
        };
        let scatter = Scatter {
            counter: &self.counter,
            spec,
            origin,
            targets,
            // The availability probe is a state read, as in the sequential
            // body.
            eligible: &|t| {
                !if_available || self.probe_state(origin, t) == Some(SiteState::Available)
            },
            parse: &|response| match (req, response) {
                (ScatterRequest::Vote(_), WireResponse::Version(v)) => {
                    Some(ScatterReply::Version(v))
                }
                (ScatterRequest::VoteMany(ks), WireResponse::Versions(vs))
                    if vs.len() == ks.len() =>
                {
                    Some(ScatterReply::Versions(vs))
                }
                (ScatterRequest::VersionVector, WireResponse::Vector(vv)) => {
                    Some(ScatterReply::Vector(vv))
                }
                (_, WireResponse::Ack) if install => Some(ScatterReply::Delivered),
                _ => None,
            },
        };
        self.transport.scatter(scatter, request)
    }
}

impl<T: Transport> std::fmt::Debug for ServerCluster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCluster")
            .field("transport", &T::NAME)
            .field("sites", &self.cfg.num_sites())
            .field("scheme", &self.cfg.scheme())
            .field("mode", &self.mode)
            .finish()
    }
}
