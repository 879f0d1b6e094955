//! The transport seam, and the one cluster written over it.
//!
//! A message-passing runtime differs from another only in how a
//! [`WireRequest`] reaches the thread that [`serve`](crate::service::serve)s
//! it and how the [`WireResponse`] comes back: as values over an inbox
//! ([`LiveTransport`](crate::LiveTransport)) or as frames over a socket
//! ([`TcpTransport`](crate::TcpTransport)). That difference is the
//! [`Transport`] trait — `call`, `cast`, and a concurrent `scatter` for what
//! crosses a link, and `local` for what does not: a coordinator *is* its
//! site's server process (§2), so what it asks of its own replica is served
//! on its own thread and never becomes a message.
//! Whether a message may be sent at all is [`Links`]: site states and the
//! topology, the one link model of all three runtimes. Everything else a
//! message-passing coordinator is — the [`Coordinator`] every runtime
//! holds, and the [`Backend`] methods that turn a protocol step into a
//! request and a reply back into its answer — is [`ServerCluster`], once.

use crate::backend::{
    self, Backend, Coordinator, RepairBlocks, RepairPayload, ScatterReplies, ScatterReply,
    ScatterRequest, ScatterSpec, WriteBatch,
};
use crate::protocol;
use crate::wire::{WireRequest, WireResponse};
use blockrep_net::{Topology, TrafficCounter};
use blockrep_storage::{SealedBlock, StorageFault};
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, SiteId, SiteState, VersionNumber,
    VersionVector,
};
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The one link model of every runtime: site states and the topology under
/// one lock, and the emulated link delay. A clone is a second handle on the
/// same links — what a cluster hands its transport's server threads.
#[derive(Debug, Clone)]
pub(crate) struct Links {
    net: Arc<RwLock<LinkState>>,
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
            latency_ns: Arc::default(),
        }
    }

    /// Independent links in the same states and topology, with no delay.
    pub(crate) fn fork(&self) -> Self {
        Links {
            net: Arc::new(RwLock::new(self.net.read().clone())),
            latency_ns: Arc::default(),
        }
    }

    pub(crate) fn state(&self, s: SiteId) -> SiteState {
        self.net.read().states[s.index()]
    }

    pub(crate) fn set_state(&self, s: SiteId, state: SiteState) {
        self.net.write().states[s.index()] = state;
    }

    /// Whether a message from `from` reaches `to`: a site always reaches
    /// itself (local actions, even while failed); otherwise both ends must
    /// be operational and in the same partition.
    pub(crate) fn reachable(&self, from: SiteId, to: SiteId) -> bool {
        if from == to {
            return true;
        }
        let net = self.net.read();
        net.states[from.index()].is_operational()
            && net.states[to.index()].is_operational()
            && net.topology.reachable(from, to)
    }

    /// Splits the network into `groups` (see [`Topology::partition`]).
    pub(crate) fn partition(&self, groups: &[Vec<SiteId>]) {
        self.net.write().topology.partition(groups);
    }

    /// Removes all partitions.
    pub(crate) fn heal(&self) {
        self.net.write().topology.heal();
    }

    /// Sleeps for the emulated link delay, if one is set: what a server
    /// does before it serves a *remote* round trip (see
    /// [`ServerCluster::set_link_latency`]). A local action crosses no link
    /// and never comes here.
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
    /// In ascending site order.
    pub(crate) targets: &'a [SiteId],
    /// Whether a target is sent the request at all: reachable from the
    /// origin and, for a conditional install, available.
    pub(crate) eligible: &'a dyn Fn(SiteId) -> bool,
    /// A target's reply as the protocol reads it; `None` for a reply of
    /// the wrong shape, which counts as no reply.
    pub(crate) parse: &'a dyn Fn(WireResponse) -> Option<ScatterReply>,
}

/// The site request that installs `block`. The request carries the version
/// and the data but not the seal's sum — its shape, and a TCP frame's
/// bytes, are those of an unsealed install — so the site that serves it
/// hashes the block itself.
fn install_request(k: BlockIndex, block: &SealedBlock) -> WireRequest {
    WireRequest::ApplyWrite(k, block.version(), block.data().clone())
}

/// Requests a live site's inbox may hold unserved. Past it the sender
/// blocks, so a coordinator cannot outrun the sites it writes to by more
/// than this. (A TCP connection holds one exchange at a time.)
pub(crate) const WINDOW: usize = 32;

/// How requests reach the sites' servers and replies come back. Whether a
/// request may be sent at all is not the transport's to decide:
/// [`ServerCluster`] asks [`Links::reachable`] first — and routes a site's
/// request to itself to [`local`](Self::local), so `call`, `cast` and
/// `scatter` only ever see `to != from`.
pub(crate) trait Transport: Send + Sync {
    /// The runtime's name in parity reports.
    const NAME: &'static str;
    /// Whether [`cast`](Self::cast) blocks for an acknowledgement. Where it
    /// does not, an install fan-out is already non-blocking one target at a
    /// time and never goes through [`scatter`](Self::scatter).
    const CAST_BLOCKS: bool;

    /// One round trip with `to`'s server. `None` when the exchange died.
    fn call(&self, to: SiteId, request: WireRequest) -> Option<WireResponse>;

    /// One delivery to `to`'s server nobody waits on the effect of; returns
    /// whether the request was delivered.
    fn cast(&self, to: SiteId, request: WireRequest) -> bool;

    /// Serves `request` on site `s`'s replica, on the calling thread,
    /// through the same [`serve`](crate::service::serve) as `s`'s server and
    /// behind everything already delivered to `s`. No link is crossed: no
    /// envelope, no emulated delay. `None` for what `serve` does not serve.
    fn local(&self, s: SiteId, request: WireRequest) -> Option<WireResponse>;

    /// Sends `request` to every eligible target before waiting on any, then
    /// gathers — and charges — the replies in target order: results and §5
    /// counts of the sequential loop, blocking time of the slowest target.
    fn scatter(&self, scatter: Scatter<'_>, request: WireRequest) -> ScatterReplies;
}

/// A cluster of site server processes behind a transport `T`, one per
/// site, each serving its replica through the one site service. Use it
/// through its two instantiations, [`LiveCluster`](crate::LiveCluster)
/// (threads and inboxes) and [`TcpCluster`](crate::TcpCluster) (loopback
/// sockets); both are interchangeable with [`Cluster`](crate::Cluster)
/// wherever a [`Backend`] is accepted.
pub struct ServerCluster<T> {
    coord: Coordinator,
    pub(crate) transport: T,
}

impl<T> ServerCluster<T> {
    /// The cluster of `coord` over an already running `transport`, whose
    /// server threads share the coordinator's links.
    pub(crate) fn over(coord: Coordinator, transport: T) -> Self {
        ServerCluster { coord, transport }
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
        assert!(self.coord.cfg.contains_site(s), "unknown site {s}");
        protocol::fail(self, s);
    }

    /// Restarts site `s` and runs the scheme's recovery.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not currently failed.
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
        protocol::partition(self, groups);
    }

    /// Heals all partitions and re-runs the recovery sweep.
    pub fn heal(&self) {
        protocol::heal(self);
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
        &self.coord.cfg
    }

    /// The §5 high-level transmission counter, charged by the protocol
    /// layer.
    pub fn counter(&self) -> &TrafficCounter {
        &self.coord.counter
    }

    /// Turns lease-based read offload on or off (see [`crate::locks`]).
    pub fn set_leases(&self, on: bool) {
        self.coord.leases.set_enabled(on);
    }

    /// Emulates a network link delay: every server sleeps `delay` before
    /// serving a *remote* round trip (what a coordinator asks of its own
    /// site crosses no link and pays nothing; shutdown, and the live
    /// cluster's one-way casts — whose transit occupies no server on a real
    /// network — are exempt too; on the TCP cluster a cast is a round trip).
    /// Zero, the default, disables the emulation. Message *counts* are
    /// unaffected.
    pub fn set_link_latency(&self, delay: Duration) {
        self.coord.links.latency_ns.store(
            delay.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// One round trip from `from` to `to`'s server; `None` when `to` is
    /// unreachable from `from` or the exchange died. A site's request to
    /// itself is a local action, not an exchange.
    fn call(&self, from: SiteId, to: SiteId, request: WireRequest) -> Option<WireResponse> {
        if from == to {
            return self.transport.local(to, request);
        }
        if !self.coord.links.reachable(from, to) {
            return None;
        }
        self.transport.call(to, request)
    }

    /// One delivery from `from` to `to`'s server; whether it was delivered.
    /// A site's delivery to itself is done by the time this returns.
    fn cast(&self, from: SiteId, to: SiteId, request: WireRequest) -> bool {
        if from == to {
            return self.transport.local(to, request).is_some();
        }
        self.coord.links.reachable(from, to) && self.transport.cast(to, request)
    }
}

impl<T: Transport> Backend for ServerCluster<T> {
    fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        match self.call(from, to, WireRequest::Vote(k))? {
            WireResponse::Version(v) => Some(v),
            _ => None,
        }
    }

    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>> {
        let request = WireRequest::VoteMany(ks.to_vec());
        match self.call(from, to, request)? {
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
        match self.call(from, to, WireRequest::Fetch(k))? {
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
        match self.call(from, to, WireRequest::FetchLease(k))? {
            WireResponse::Block(v, data) => Some((v, data)),
            _ => None,
        }
    }

    fn apply_write(&self, from: SiteId, to: SiteId, k: BlockIndex, block: &SealedBlock) -> bool {
        self.cast(from, to, install_request(k, block))
    }

    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        let request = WireRequest::ApplyWriteMany(writes.clone());
        self.cast(from, to, request)
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
        self.cast(from, to, request)
    }

    fn read_local(&self, s: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        match self.call(s, s, WireRequest::ReadLocal(k)) {
            Some(WireResponse::Data(data)) => Ok(data),
            _ => Err(backend::dead_local_leg(s)),
        }
    }

    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        let request = WireRequest::ReadLocalMany(ks.to_vec());
        match self.call(s, s, request) {
            Some(WireResponse::DataMany(ds)) if ds.len() == ks.len() => Ok(ds),
            _ => Err(backend::dead_local_leg(s)),
        }
    }

    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        match self.call(from, to, WireRequest::VersionVector)? {
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
        match self.call(from, to, request)? {
            WireResponse::Payload(vv, blocks) => Some((vv, blocks)),
            _ => None,
        }
    }

    fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize {
        let n = blocks.len();
        if self.cast(s, s, WireRequest::ApplyRepair(blocks)) {
            n
        } else {
            0
        }
    }

    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>> {
        match self.call(from, to, WireRequest::GetW)? {
            WireResponse::W(w) => Some(w),
            _ => None,
        }
    }

    fn set_was_available(&self, from: SiteId, to: SiteId, w: &[SiteId]) -> bool {
        self.cast(from, to, WireRequest::SetW(w.iter().copied().collect()))
    }

    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        self.cast(from, to, WireRequest::AddW(member))
    }

    fn scrub_local(&self, s: SiteId) -> usize {
        match self.call(s, s, WireRequest::Scrub) {
            Some(WireResponse::Count(n)) => n as usize,
            _ => 0,
        }
    }

    fn scatter(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        req: &ScatterRequest<'_>,
    ) -> ScatterReplies {
        debug_assert!(
            !targets.contains(&origin),
            "a scatter is remote: {origin}'s own leg goes through `local`"
        );
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
            ScatterRequest::Install { k, block } => (install_request(*k, block), false),
            ScatterRequest::InstallIfAvailable { k, block } => (install_request(*k, block), true),
            ScatterRequest::InstallMany(writes) => {
                (WireRequest::ApplyWriteMany((*writes).clone()), false)
            }
            ScatterRequest::InstallIfAvailableMany(writes) => {
                (WireRequest::ApplyWriteMany((*writes).clone()), true)
            }
        };
        let links = &self.coord.links;
        let scatter = Scatter {
            counter: &self.coord.counter,
            spec,
            targets,
            // The availability probe is a state read, as in the sequential
            // body.
            eligible: &|t| {
                if if_available {
                    self.probe_state(origin, t) == Some(SiteState::Available)
                } else {
                    links.reachable(origin, t)
                }
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

    #[test]
    fn a_failed_site_answers_no_probe_not_even_its_own_on_every_runtime() {
        let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(2)
            .block_size(8)
            .build()
            .unwrap();
        let det = Cluster::new(cfg.clone(), ClusterOptions::default());
        let live = LiveCluster::spawn(cfg.clone(), DeliveryMode::Multicast);
        let tcp = TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap();
        let runtimes: [(&str, &dyn Backend); 3] = [("det", &det), ("live", &live), ("tcp", &tcp)];
        for (name, rt) in runtimes {
            protocol::fail(rt, sid(1));
            assert_eq!(rt.probe_state(sid(1), sid(1)), None, "{name}: own probe");
            assert_eq!(rt.probe_state(sid(0), sid(1)), None, "{name}: remote probe");
            assert_eq!(rt.local_state(sid(1)), SiteState::Failed, "{name}");
            let up = Some(SiteState::Available);
            assert_eq!(rt.probe_state(sid(0), sid(0)), up, "{name}: own probe, up");
            assert_eq!(rt.probe_state(sid(0), sid(2)), up, "{name}: remote, up");
            // Restarted but not yet recovered: comatose sites do answer.
            rt.set_local_state(sid(1), SiteState::Comatose);
            let comatose = Some(SiteState::Comatose);
            assert_eq!(rt.probe_state(sid(1), sid(1)), comatose, "{name}");
            assert_eq!(rt.probe_state(sid(2), sid(1)), comatose, "{name}");
            protocol::partition(rt, &[vec![sid(0)], vec![sid(1), sid(2)]]);
            assert_eq!(rt.probe_state(sid(0), sid(2)), None, "{name}: partitioned");
            assert_eq!(
                rt.probe_state(sid(2), sid(1)),
                comatose,
                "{name}: same side"
            );
        }
    }

    fn cfg(scheme: Scheme, sites: usize) -> DeviceConfig {
        DeviceConfig::builder(scheme)
            .sites(sites)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap()
    }

    /// `check` on a live and on a TCP cluster of `sites` sites, per scheme.
    fn on_both_runtimes(sites: usize, check: impl Fn(&dyn Runtime)) {
        for scheme in Scheme::ALL {
            let mode = DeliveryMode::Multicast;
            check(&LiveCluster::spawn(cfg(scheme, sites), mode));
            check(&TcpCluster::spawn(cfg(scheme, sites), mode).unwrap());
        }
    }

    /// What the seam tests drive: a message-passing cluster, whichever
    /// (its `Debug` names the transport and the scheme).
    trait Runtime: Backend + std::fmt::Debug {
        fn set_link_latency(&self, delay: Duration);
    }

    impl<T: Transport> Runtime for ServerCluster<T> {
        fn set_link_latency(&self, delay: Duration) {
            ServerCluster::set_link_latency(self, delay);
        }
    }

    #[test]
    fn a_read_at_any_site_is_behind_every_install_already_sent_there() {
        on_both_runtimes(3, |c| {
            let k = BlockIndex::new(1);
            // The available copy schemes wait for no acknowledgement, so on
            // the live cluster only "serve the inbox first" makes this true.
            for round in 0..1_000u64 {
                let data = BlockData::from(round.to_le_bytes().to_vec());
                protocol::write(c, sid(0), k, &data).unwrap();
                for origin in [sid(1), sid(2)] {
                    let got = protocol::read(c, origin, k).unwrap();
                    assert_eq!(got, data, "{c:?}: {origin}, {round}");
                }
            }
        });
    }

    #[test]
    fn every_replica_of_a_write_stores_the_sum_of_what_it_holds() {
        let check = |c: &dyn Backend, name: &str| {
            let ks: Vec<BlockIndex> = (0..4).map(BlockIndex::new).collect();
            // Half the blocks are written as one batch, half one at a time.
            let (batched, single) = ks.split_at(2);
            for round in 0..6u8 {
                let fill = |k: &BlockIndex| BlockData::from(vec![round ^ k.as_u64() as u8; 8]);
                let origin = sid(u32::from(round) % 3);
                let writes: Vec<(BlockIndex, BlockData)> =
                    batched.iter().map(|k| (*k, fill(k))).collect();
                protocol::write_many(c, origin, &writes).unwrap();
                for k in single {
                    protocol::write(c, origin, *k, &fill(k)).unwrap();
                }
            }
            for s in (0..3).map(sid) {
                // Sealed where the coordinator chose the version, re-sealed
                // where a TCP site decoded the frame: either way the stored
                // sum is the one checksum of the stored version and data.
                assert_eq!(c.scrub_local(s), 0, "{name}: {s}");
                for &k in &ks {
                    let held = c.fetch_block(s, s, k);
                    assert_eq!(held, c.fetch_block(sid(0), sid(0), k), "{name}: {s} {k}");
                }
            }
        };
        for scheme in Scheme::ALL {
            let det = Cluster::new(cfg(scheme, 3), ClusterOptions::default());
            check(&det, &format!("{det:?}"));
        }
        on_both_runtimes(3, |c| check(c, &format!("{c:?}")));
    }

    /// Client `i`'s script: at origin `i`, write a tagged block and read a
    /// neighbour's, `ROUNDS` times over four overlapping blocks.
    const CLIENTS: u32 = 4;
    const ROUNDS: u32 = 50;

    fn client_script<B: Backend + ?Sized>(b: &B, i: u32) {
        let block_of = |i: u32, round: u32| BlockIndex::new(u64::from((i + round) % 4));
        for round in 0..ROUNDS {
            let tag = (1 + i * ROUNDS + round) as u8;
            let data = BlockData::from(vec![tag; 8]);
            protocol::write(b, sid(i), block_of(i, round), &data).unwrap();
            let k = block_of(i, round + 1);
            let got = protocol::read(b, sid(i), k).unwrap();
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
        on_both_runtimes(CLIENTS as usize, |c| {
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
        });
    }

    #[test]
    fn a_local_action_pays_no_link_delay() {
        let delay = Duration::from_millis(20);
        on_both_runtimes(3, |c| {
            let k = BlockIndex::new(0);
            let data = BlockData::from(vec![7; 8]);
            protocol::write(c, sid(0), k, &data).unwrap();
            c.set_link_latency(delay);
            // The fastest of a few reads: a descheduled test thread can make
            // one slow, but not make a delayed one fast.
            let fastest = (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    assert_eq!(protocol::read(c, sid(0), k).unwrap(), data);
                    start.elapsed()
                })
                .min()
                .unwrap();
            if c.config().scheme() == Scheme::Voting {
                // A quorum is a round trip to somebody else.
                assert!(fastest >= delay, "{c:?}: {fastest:?}");
            } else {
                // §3.2: a local copy is read "avoiding any network traffic".
                let bound = Duration::from_millis(5);
                assert!(fastest < bound, "{c:?}: {fastest:?}");
            }
        });
    }
}
