//! The live cluster: one server thread per site.
//!
//! This is the deployment shape of the paper — "a set of server processes
//! on several sites" — scaled to one machine: each site's replica is owned
//! by its own OS thread, and every protocol exchange travels as a real
//! message over the [`Network`] router. Fail-stop is modeled by taking the
//! site's link down: a failed site answers nothing, synchronously, so tests
//! stay deterministic.
//!
//! The protocol logic is byte-for-byte the same code the deterministic
//! [`Cluster`](crate::Cluster) runs — both implement
//! [`Backend`](crate::backend::Backend) — and it charges the same traffic
//! counter the same way, which the integration tests exploit: a workload
//! replayed on both runtimes must produce identical message counts.

use crate::backend::{
    self, Backend, Gather, ScatterReplies, ScatterReply, ScatterRequest, ScatterSpec, WriteBatch,
};
use crate::locks::{BlockLockTable, LeaseTable};
use crate::protocol;
use crate::replica::Replica;
use blockrep_net::{DeliveryMode, FanoutMode, Network, TrafficCounter};
use blockrep_storage::StorageFault;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, SiteId, SiteState, VersionNumber,
    VersionVector,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::backend::RepairBlocks;

/// Work for the straggler-drain thread: replies an early-quorum scatter did
/// not wait for still have to be received — and charged — off the hot path.
enum DrainJob {
    /// Receive each pending reply and charge it to the traffic counter.
    Drain(Vec<Box<dyn FnOnce() + Send>>),
    /// Barrier: acknowledge once every prior job has fully drained.
    Sync(Sender<()>),
}

/// The messages a site's server process understands.
enum Request {
    Vote(BlockIndex, Sender<VersionNumber>),
    Fetch(BlockIndex, Sender<(VersionNumber, BlockData)>),
    /// A lease read served by a holder site: same payload as `Fetch`, but a
    /// distinct message so fault injection can target lease validation
    /// without touching quorum reads.
    FetchLease(BlockIndex, Sender<(VersionNumber, BlockData)>),
    ApplyWrite(BlockIndex, BlockData, VersionNumber),
    ApplyWriteFaulty(BlockIndex, BlockData, VersionNumber, StorageFault),
    Scrub(Sender<usize>),
    ReadLocal(BlockIndex, Sender<BlockData>),
    VersionVector(Sender<VersionVector>),
    RepairPayload(VersionVector, Sender<(VersionVector, RepairBlocks)>),
    ApplyRepair(RepairBlocks),
    GetW(Sender<BTreeSet<SiteId>>),
    SetW(BTreeSet<SiteId>),
    AddW(SiteId),
    VoteMany(Vec<BlockIndex>, Sender<Vec<VersionNumber>>),
    ApplyWriteMany(WriteBatch),
    ReadLocalMany(Vec<BlockIndex>, Sender<Vec<BlockData>>),
    /// The in-process analogue of the wire trace envelope: carries the
    /// sender's span context so the serving thread's apply span stitches
    /// into the coordinator's causal tree. Only built while tracing is on.
    Traced {
        trace_id: u64,
        parent: u64,
        /// The target site (the server thread's own id, for span labels).
        site: u32,
        inner: Box<Request>,
    },
    Shutdown,
}

/// A cluster of threaded server processes, one per site, exchanging
/// messages over channels.
///
/// The public surface mirrors [`Cluster`](crate::Cluster); the two are
/// interchangeable wherever a [`Backend`](crate::backend::Backend) is
/// accepted (e.g. under a [`ReliableDevice`](crate::ReliableDevice)).
///
/// # Examples
///
/// ```
/// use blockrep_core::LiveCluster;
/// use blockrep_net::DeliveryMode;
/// use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy)
///     .sites(3).num_blocks(2).block_size(4).build()?;
/// let cluster = LiveCluster::spawn(cfg, DeliveryMode::Multicast);
/// let k = BlockIndex::new(0);
/// cluster.write(SiteId::new(0), k, BlockData::from(vec![1, 2, 3, 4]))?;
/// cluster.fail_site(SiteId::new(0));
/// assert_eq!(cluster.read(SiteId::new(1), k)?.as_slice(), &[1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
pub struct LiveCluster {
    cfg: DeviceConfig,
    net: Network<Request>,
    /// Authoritative site states, maintained by the coordination layer
    /// (a failed site's own thread cannot be asked).
    states: RwLock<Vec<SiteState>>,
    /// Shared with the straggler drainer, which charges late replies.
    counter: Arc<TrafficCounter>,
    mode: DeliveryMode,
    /// Whether scatters dispatch to all targets before gathering
    /// ([`FanoutMode::Parallel`], the default) or fall back to the
    /// sequential per-target loop.
    parallel: AtomicBool,
    /// Whether MCV vote collection stops gathering at quorum weight.
    early_quorum: AtomicBool,
    /// Emulated one-way link delay in nanoseconds, served by each site
    /// before handling a network request. Shared with the server threads.
    latency_ns: Arc<AtomicU64>,
    /// Per-block lock shards serializing same-block coordinations.
    locks: BlockLockTable,
    /// Read-lease registry for the offload fast path.
    leases: LeaseTable,
    /// Hands straggler replies to the drainer; `None` only during drop.
    drain_tx: Option<Sender<DrainJob>>,
    drainer: Option<JoinHandle<()>>,
    handles: Vec<JoinHandle<()>>,
}

impl LiveCluster {
    /// Spawns one server thread per site over a freshly formatted device.
    pub fn spawn(cfg: DeviceConfig, mode: DeliveryMode) -> Self {
        let n = cfg.num_sites();
        let net: Network<Request> = Network::new(n, mode);
        let latency_ns = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(n);
        for s in cfg.site_ids() {
            // The site's one mailbox: protocol traffic and the shutdown
            // message both arrive here, so the thread can block on it.
            let rx = net.register(s);
            let mut replica = Replica::new(s, &cfg);
            let latency = Arc::clone(&latency_ns);
            handles.push(std::thread::spawn(move || {
                while let Ok(req) = rx.recv() {
                    if matches!(req, Request::Shutdown) {
                        return;
                    }
                    if is_rpc(&req) {
                        emulate_link(&latency);
                    }
                    handle(&mut replica, req);
                }
            }));
        }
        let counter = Arc::new(TrafficCounter::new());
        let (drain_tx, drain_rx) = crossbeam::channel::unbounded::<DrainJob>();
        let drainer = std::thread::spawn(move || {
            while let Ok(job) = drain_rx.recv() {
                match job {
                    DrainJob::Drain(receives) => {
                        for receive in receives {
                            receive();
                        }
                    }
                    DrainJob::Sync(ack) => {
                        let _ = ack.send(());
                    }
                }
            }
        });
        LiveCluster {
            states: RwLock::new(vec![SiteState::Available; n]),
            counter,
            net,
            mode,
            parallel: AtomicBool::new(true),
            early_quorum: AtomicBool::new(false),
            latency_ns,
            locks: BlockLockTable::new(),
            leases: LeaseTable::new(),
            drain_tx: Some(drain_tx),
            drainer: Some(drainer),
            handles,
            cfg,
        }
    }

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

    /// Reads a batch of distinct blocks in one vectored protocol round,
    /// coordinated by site `origin`.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::read_many`](crate::Cluster::read_many).
    pub fn read_many(&self, origin: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        protocol::read_many(self, origin, ks)
    }

    /// Writes a batch of distinct blocks in one vectored protocol round,
    /// coordinated by site `origin`.
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

    /// Fail-stops site `s`: its link goes down and it stops answering.
    pub fn fail_site(&self, s: SiteId) {
        assert!(self.cfg.contains_site(s), "unknown site {s}");
        protocol::fail(self, s);
        self.net.set_site_up(s, false);
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
        self.net.set_site_up(s, true);
        protocol::repair(self, s);
    }

    /// Splits the network into partitions (messages across groups are
    /// refused synchronously). The available copy schemes assume this never
    /// happens; the hook exists to demonstrate why.
    pub fn partition(&self, groups: &[Vec<SiteId>]) {
        // A partitioned holder can no longer be reached to serve a lease;
        // epoch-bump so every outstanding grant dies with the topology.
        self.leases.bump_epoch();
        let mut topo = blockrep_net::Topology::fully_connected(self.cfg.num_sites());
        topo.partition(groups);
        self.net.set_topology(topo);
    }

    /// Heals all partitions and re-runs the recovery sweep.
    pub fn heal(&self) {
        self.leases.bump_epoch();
        self.net
            .set_topology(blockrep_net::Topology::fully_connected(
                self.cfg.num_sites(),
            ));
        protocol::sweep(self);
    }

    /// The state of site `s`.
    pub fn site_state(&self, s: SiteId) -> SiteState {
        self.states.read()[s.index()]
    }

    /// Whether the device is available under the scheme's criterion.
    pub fn is_available(&self) -> bool {
        protocol::is_available(self)
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The high-level transmission counter (the protocol layer's §5
    /// accounting; the router's own counter is not used).
    pub fn counter(&self) -> &TrafficCounter {
        &self.counter
    }

    /// Selects the fan-out mode for scatter exchanges. The default is
    /// [`FanoutMode::Parallel`]; [`FanoutMode::Sequential`] restores the
    /// historical blocking per-target loop. Either way the §5 message
    /// counts are identical (`tests/runtime_parity.rs`) — only latency
    /// changes.
    pub fn set_fanout(&self, mode: FanoutMode) {
        self.parallel
            .store(mode == FanoutMode::Parallel, Ordering::Relaxed);
    }

    /// The current fan-out mode.
    pub fn fanout(&self) -> FanoutMode {
        if self.parallel.load(Ordering::Relaxed) {
            FanoutMode::Parallel
        } else {
            FanoutMode::Sequential
        }
    }

    /// Opts MCV vote collection in (or out) of early-quorum termination:
    /// the coordinator unblocks as soon as the gathered weight reaches the
    /// quorum, while straggler replies are received — and charged — by a
    /// background drainer. Call [`quiesce`](Self::quiesce) before comparing
    /// traffic snapshots.
    pub fn set_early_quorum(&self, on: bool) {
        self.early_quorum.store(on, Ordering::Relaxed);
    }

    /// Turns lease-based read offload on or off (see [`crate::locks`]).
    pub fn set_leases(&self, on: bool) {
        self.leases.set_enabled(on);
    }

    /// Emulates a network link delay: every site sleeps `delay` before
    /// serving a blocking request/reply exchange (one-way casts, local
    /// actions and shutdown are exempt — their transit occupies no server
    /// on a real network). Zero — the default — disables the emulation.
    ///
    /// This is the benchmark's knob for giving the loopback channels a
    /// realistic message cost: under a nonzero delay a sequential fan-out
    /// pays one delay per target while a parallel fan-out overlaps them,
    /// which is exactly the geometry on a real network. Message *counts*
    /// are unaffected.
    pub fn set_link_latency(&self, delay: Duration) {
        self.latency_ns.store(
            delay.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Blocks until every straggler reply handed to the background drainer
    /// has been received and charged, so a traffic snapshot taken afterwards
    /// is complete.
    pub fn quiesce(&self) {
        if let Some(tx) = &self.drain_tx {
            let (ack_tx, ack_rx) = bounded(1);
            if tx.send(DrainJob::Sync(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    /// Raises or lowers site `s`'s network link without running any
    /// protocol — the chaos runner's hook for making a mid-operation crash
    /// real (protocol-level failure handling is driven separately, in the
    /// same order `fail_site`/`repair_site` use).
    pub(crate) fn set_link(&self, s: SiteId, up: bool) {
        self.net.set_site_up(s, up);
    }

    /// Wraps `req` in the in-process trace envelope when tracing is on and
    /// a span context is live, so the server thread (which does not share
    /// this thread's context) can stitch its apply span into the tree.
    fn trace_wrap(&self, to: SiteId, req: Request) -> Request {
        if blockrep_obs::enabled() && crate::obs_hooks::tracing() {
            if let Some(ctx) = blockrep_obs::trace::current() {
                return Request::Traced {
                    trace_id: ctx.trace_id,
                    parent: ctx.span_id,
                    site: to.as_u32(),
                    inner: Box::new(req),
                };
            }
        }
        req
    }

    fn call<T>(
        &self,
        from: SiteId,
        to: SiteId,
        build: impl FnOnce(Sender<T>) -> Request,
    ) -> Option<T> {
        let (tx, rx) = bounded(1);
        let req = self.trace_wrap(to, build(tx));
        self.net.send_raw(from, to, req).ok()?;
        rx.recv().ok()
    }

    fn cast(&self, from: SiteId, to: SiteId, req: Request) -> bool {
        let req = self.trace_wrap(to, req);
        self.net.send_raw(from, to, req).is_ok()
    }

    /// Parallel scatter over request/reply exchanges: dispatches to every
    /// target before awaiting any reply, then gathers — and charges — in
    /// target order, so results and counts are byte-identical to the
    /// sequential loop while the blocking time drops from the *sum* of the
    /// round trips to the *slowest* one.
    fn scatter_calls<T: Send + 'static>(
        &self,
        spec: ScatterSpec,
        origin: SiteId,
        targets: &[SiteId],
        build: impl Fn(Sender<T>) -> Request,
        wrap: impl Fn(T) -> ScatterReply,
    ) -> ScatterReplies {
        // Satellite hoist: one `enabled()` load decides whether any obs
        // work happens in this batch; the disabled path records nothing.
        let obs_on = blockrep_obs::enabled();
        if obs_on {
            crate::obs_hooks::scatter_batch().record(targets.len() as u64);
        }
        let tracing = obs_on && crate::obs_hooks::tracing();
        // Captured for the straggler drainer, which runs on its own thread
        // and therefore cannot inherit this thread's span context.
        let op_ctx = if tracing {
            blockrep_obs::trace::current()
        } else {
            None
        };
        let pending: Vec<(SiteId, Option<Receiver<T>>)> = targets
            .iter()
            .map(|&t| {
                let send_span = if tracing {
                    blockrep_obs::trace::start_phase(
                        crate::obs_hooks::phase_scatter_send(),
                        t.as_u32(),
                    )
                } else {
                    None
                };
                let (tx, rx) = bounded(1);
                let mut req = build(tx);
                // The send span is the envelope parent, so the server's
                // remote_apply span lands under this site's send leg.
                if let Some(ctx) = send_span.as_ref().map(|s| s.context()) {
                    req = Request::Traced {
                        trace_id: ctx.trace_id,
                        parent: ctx.span_id,
                        site: t.as_u32(),
                        inner: Box::new(req),
                    };
                }
                let sent = self.net.send_raw(origin, t, req).is_ok();
                (t, sent.then_some(rx))
            })
            .collect();
        let threshold = match spec.gather {
            Gather::All => u64::MAX,
            Gather::EarlyQuorum { threshold } => threshold,
        };
        let mut gathered = 0u64;
        let mut cut_marked = false;
        let mut replies: ScatterReplies = Vec::with_capacity(targets.len());
        let mut stragglers: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for (t, rx) in pending {
            if gathered >= threshold {
                // Quorum reached: the reply still arrives and is still
                // charged — by the drainer — but nobody blocks on it.
                if tracing && !cut_marked {
                    cut_marked = true;
                    blockrep_obs::trace::instant(
                        crate::obs_hooks::phase_early_quorum_cut(),
                        origin.as_u32(),
                    );
                }
                if let Some(rx) = rx {
                    let counter = Arc::clone(&self.counter);
                    let (op, charge, units) = (spec.op, spec.reply_charge, spec.reply_units);
                    let drain_phase = crate::obs_hooks::phase_straggler_drain();
                    let site = t.as_u32();
                    stragglers.push(Box::new(move || {
                        let _drain = op_ctx.map(|ctx| {
                            blockrep_obs::trace::start_phase_under(ctx, drain_phase, site)
                        });
                        if rx.recv().is_ok() {
                            if let Some(kind) = charge {
                                counter.add(op, kind, units);
                            }
                        }
                    }));
                }
                replies.push((t, None));
                continue;
            }
            let reply = rx.and_then(|rx| {
                let _gather = if tracing {
                    blockrep_obs::trace::start_phase(
                        crate::obs_hooks::phase_gather_wait(),
                        t.as_u32(),
                    )
                } else {
                    None
                };
                rx.recv().ok()
            });
            if reply.is_some() {
                if let Some(kind) = spec.reply_charge {
                    self.counter.add(spec.op, kind, spec.reply_units);
                }
                gathered += self.cfg.weight(t).as_u64();
            }
            replies.push((t, reply.map(&wrap)));
        }
        if !stragglers.is_empty() {
            if let Some(tx) = &self.drain_tx {
                let _ = tx.send(DrainJob::Drain(stragglers));
            }
        }
        replies
    }
}

/// Whether a request carries a reply channel — i.e. it is a round trip the
/// sender blocks on. Only these pay the emulated link delay: a one-way cast
/// is in flight on a real network without occupying the server, so sleeping
/// in the service thread for it would model a bottleneck that does not
/// exist.
fn is_rpc(req: &Request) -> bool {
    match req {
        Request::Traced { inner, .. } => is_rpc(inner),
        _ => matches!(
            req,
            Request::Vote(..)
                | Request::Fetch(..)
                | Request::FetchLease(..)
                | Request::Scrub(_)
                | Request::ReadLocal(..)
                | Request::VersionVector(_)
                | Request::RepairPayload(..)
                | Request::GetW(_)
                | Request::VoteMany(..)
                | Request::ReadLocalMany(..)
        ),
    }
}

/// Sleeps for the emulated link delay, if one is set (see
/// [`LiveCluster::set_link_latency`]).
fn emulate_link(latency_ns: &AtomicU64) {
    let ns = latency_ns.load(Ordering::Relaxed);
    if ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

fn handle(replica: &mut Replica, req: Request) {
    match req {
        Request::Vote(k, reply) => {
            let _ = reply.send(replica.version(k));
        }
        Request::Fetch(k, reply) => {
            let _ = reply.send(replica.versioned(k));
        }
        Request::FetchLease(k, reply) => {
            let _ = reply.send(replica.versioned(k));
        }
        Request::ApplyWrite(k, data, v) => {
            replica.install(k, data, v);
        }
        Request::ApplyWriteFaulty(k, data, v, fault) => {
            replica.install_faulty(k, data, v, fault);
        }
        Request::Scrub(reply) => {
            let _ = reply.send(replica.scrub().len());
        }
        Request::ReadLocal(k, reply) => {
            let _ = reply.send(replica.data(k));
        }
        Request::VersionVector(reply) => {
            let _ = reply.send(replica.version_vector());
        }
        Request::RepairPayload(vv, reply) => {
            let _ = reply.send(replica.repair_payload(&vv));
        }
        Request::ApplyRepair(blocks) => {
            replica.apply_repair(blocks);
        }
        Request::GetW(reply) => {
            let _ = reply.send(replica.was_available().clone());
        }
        Request::SetW(w) => replica.set_was_available(w),
        Request::AddW(s) => replica.add_was_available(s),
        Request::VoteMany(ks, reply) => {
            let _ = reply.send(ks.into_iter().map(|k| replica.version(k)).collect());
        }
        Request::ApplyWriteMany(writes) => {
            for (k, v, data) in writes {
                replica.install(k, data, v);
            }
        }
        Request::ReadLocalMany(ks, reply) => {
            let _ = reply.send(ks.into_iter().map(|k| replica.data(k)).collect());
        }
        Request::Traced {
            trace_id,
            parent,
            site,
            inner,
        } => {
            let _remote = blockrep_obs::trace::start_remote(
                trace_id,
                parent,
                crate::obs_hooks::phase_remote_apply(),
                site,
            );
            handle(replica, *inner);
        }
        Request::Shutdown => {}
    }
}

impl Backend for LiveCluster {
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
        self.states.read()[s.index()]
    }

    fn set_local_state(&self, s: SiteId, state: SiteState) {
        self.states.write()[s.index()] = state;
    }

    fn probe_state(&self, from: SiteId, to: SiteId) -> Option<SiteState> {
        if from != to && !self.net.can_deliver(from, to) {
            return None;
        }
        let state = self.states.read()[to.index()];
        state.is_operational().then_some(state)
    }

    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        self.call(from, to, |tx| Request::Vote(k, tx))
    }

    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>> {
        self.call(from, to, |tx| Request::VoteMany(ks.to_vec(), tx))
    }

    fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        self.call(from, to, |tx| Request::Fetch(k, tx))
    }

    fn fetch_lease(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        self.call(from, to, |tx| Request::FetchLease(k, tx))
    }

    fn apply_write(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
    ) -> bool {
        self.cast(from, to, Request::ApplyWrite(k, data.clone(), v))
    }

    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        self.cast(from, to, Request::ApplyWriteMany(writes.clone()))
    }

    fn read_local(&self, s: SiteId, k: BlockIndex) -> BlockData {
        self.call(s, s, |tx| Request::ReadLocal(k, tx))
            .expect("a site can always read its own disk")
    }

    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> Vec<BlockData> {
        self.call(s, s, |tx| Request::ReadLocalMany(ks.to_vec(), tx))
            .expect("a site can always read its own disk")
    }

    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        self.call(from, to, Request::VersionVector)
    }

    fn repair_payload(
        &self,
        from: SiteId,
        to: SiteId,
        vv: &VersionVector,
    ) -> Option<(VersionVector, RepairBlocks)> {
        self.call(from, to, |tx| Request::RepairPayload(vv.clone(), tx))
    }

    fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize {
        let n = blocks.len();
        if self.cast(s, s, Request::ApplyRepair(blocks)) {
            n
        } else {
            0
        }
    }

    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>> {
        self.call(from, to, Request::GetW)
    }

    fn set_was_available(&self, from: SiteId, to: SiteId, w: &BTreeSet<SiteId>) -> bool {
        self.cast(from, to, Request::SetW(w.clone()))
    }

    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        self.cast(from, to, Request::AddW(member))
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
        self.cast(
            from,
            to,
            Request::ApplyWriteFaulty(k, data.clone(), v, fault),
        )
    }

    fn scrub_local(&self, s: SiteId) -> usize {
        self.call(s, s, Request::Scrub)
            .expect("a site can always scrub its own disk")
    }

    fn early_quorum(&self) -> bool {
        self.early_quorum.load(Ordering::Relaxed)
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
        if !self.parallel.load(Ordering::Relaxed) {
            return backend::scatter_sequential(self, spec, origin, targets, req);
        }
        match req {
            ScatterRequest::Vote(k) => {
                let k = *k;
                self.scatter_calls(
                    spec,
                    origin,
                    targets,
                    move |tx| Request::Vote(k, tx),
                    ScatterReply::Version,
                )
            }
            ScatterRequest::VoteMany(ks) => {
                let ks = ks.clone();
                self.scatter_calls(
                    spec,
                    origin,
                    targets,
                    move |tx| Request::VoteMany(ks.clone(), tx),
                    ScatterReply::Versions,
                )
            }
            ScatterRequest::VersionVector => self.scatter_calls(
                spec,
                origin,
                targets,
                Request::VersionVector,
                ScatterReply::Vector,
            ),
            // Installs are one-way casts and probes are local state reads on
            // this runtime: the sequential body already never blocks.
            ScatterRequest::Install { .. }
            | ScatterRequest::InstallMany(_)
            | ScatterRequest::InstallIfAvailable { .. }
            | ScatterRequest::InstallIfAvailableMany(_)
            | ScatterRequest::ProbeState => {
                backend::scatter_sequential(self, spec, origin, targets, req)
            }
        }
    }
}

impl Drop for LiveCluster {
    fn drop(&mut self) {
        // Finish draining stragglers while the servers still answer, then
        // shut the servers down.
        self.drain_tx.take();
        if let Some(drainer) = self.drainer.take() {
            let _ = drainer.join();
        }
        // Sent as each site's message to itself: `send_raw` delivers that
        // whatever the link state, and a failed site's thread still has to
        // exit.
        for s in self.cfg.site_ids() {
            let _ = self.net.send_raw(s, s, Request::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for LiveCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveCluster")
            .field("sites", &self.cfg.num_sites())
            .field("scheme", &self.cfg.scheme())
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::Scheme;

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn live(scheme: Scheme, n: usize) -> LiveCluster {
        let cfg = DeviceConfig::builder(scheme)
            .sites(n)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap();
        LiveCluster::spawn(cfg, DeliveryMode::Multicast)
    }

    #[test]
    fn live_write_read_roundtrip_all_schemes() {
        for scheme in Scheme::ALL {
            let c = live(scheme, 3);
            let k = BlockIndex::new(1);
            c.write(sid(0), k, BlockData::from(vec![4; 8])).unwrap();
            for s in 0..3 {
                assert_eq!(c.read(sid(s), k).unwrap().as_slice(), &[4; 8], "{scheme}");
            }
        }
    }

    #[test]
    fn live_survives_failures_and_recovers() {
        let c = live(Scheme::AvailableCopy, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![1; 8])).unwrap();
        c.fail_site(sid(0));
        c.write(sid(1), k, BlockData::from(vec![2; 8])).unwrap();
        c.repair_site(sid(0));
        assert_eq!(c.site_state(sid(0)), SiteState::Available);
        // The repaired site caught up during recovery.
        assert_eq!(c.read(sid(0), k).unwrap().as_slice(), &[2; 8]);
    }

    #[test]
    fn live_voting_needs_quorum() {
        let c = live(Scheme::Voting, 3);
        c.fail_site(sid(1));
        c.fail_site(sid(2));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_err());
        assert!(!c.is_available());
        c.repair_site(sid(1));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_ok());
    }

    #[test]
    fn live_total_failure_naive_waits_for_all() {
        let c = live(Scheme::NaiveAvailableCopy, 3);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![9; 8]))
            .unwrap();
        for i in 0..3 {
            c.fail_site(sid(i));
        }
        c.repair_site(sid(2)); // last to fail, but naive can't know that
        assert_eq!(c.site_state(sid(2)), SiteState::Comatose);
        assert!(!c.is_available());
        c.repair_site(sid(0));
        assert!(!c.is_available());
        c.repair_site(sid(1)); // everyone back — service resumes
        assert!(c.is_available());
        assert_eq!(
            c.read(sid(1), BlockIndex::new(0)).unwrap().as_slice(),
            &[9; 8]
        );
    }

    #[test]
    fn shutdown_is_clean() {
        let c = live(Scheme::Voting, 4);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![1; 8]))
            .unwrap();
        drop(c); // must not hang or panic
    }

    #[test]
    fn shutdown_reaches_a_failed_site() {
        let c = live(Scheme::AvailableCopy, 3);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![1; 8]))
            .unwrap();
        c.fail_site(sid(1));
        // Drop joins every site thread, so it returns only once the thread
        // behind the downed link has exited too.
        let (done_tx, done_rx) = bounded(1);
        let dropper = std::thread::spawn(move || {
            drop(c);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "a failed site's thread never got the shutdown message"
        );
        dropper.join().unwrap();
    }

    #[test]
    fn parallel_and_sequential_fanout_agree_on_results_and_traffic() {
        for scheme in Scheme::ALL {
            let par = live(scheme, 4);
            let seq = live(scheme, 4);
            seq.set_fanout(FanoutMode::Sequential);
            assert_eq!(par.fanout(), FanoutMode::Parallel);
            assert_eq!(seq.fanout(), FanoutMode::Sequential);
            for c in [&par, &seq] {
                let k = BlockIndex::new(0);
                c.write(sid(0), k, BlockData::from(vec![5; 8])).unwrap();
                c.fail_site(sid(3));
                c.write(sid(1), k, BlockData::from(vec![6; 8])).unwrap();
                c.repair_site(sid(3));
                assert_eq!(c.read(sid(3), k).unwrap().as_slice(), &[6; 8], "{scheme}");
            }
            assert_eq!(
                par.counter().snapshot(),
                seq.counter().snapshot(),
                "{scheme}: fan-out mode must not change §5 counts"
            );
        }
    }

    #[test]
    fn early_quorum_charges_stragglers_through_the_drainer() {
        let baseline = live(Scheme::Voting, 5);
        let early = live(Scheme::Voting, 5);
        early.set_early_quorum(true);
        let k = BlockIndex::new(1);
        for c in [&baseline, &early] {
            c.write(sid(0), k, BlockData::from(vec![9; 8])).unwrap();
        }
        early.quiesce();
        // Multicast: straggler vote replies are still charged (by the
        // drainer), so the write's §5 cost matches gather-all exactly.
        assert_eq!(baseline.counter().snapshot(), early.counter().snapshot());
        // Quorum intersection keeps reads correct everywhere — including at
        // a straggler that missed the install and repairs lazily.
        for s in 0..5 {
            assert_eq!(early.read(sid(s), k).unwrap().as_slice(), &[9; 8]);
        }
    }
}
