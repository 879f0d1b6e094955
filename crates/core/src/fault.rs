//! Deterministic fault injection under the transport.
//!
//! A fault is addressed by *(operation number, remote-exchange number
//! within the operation)*. Because the three runtimes run byte-for-byte the
//! same protocol code and the same [`ServerCluster`], the sequence of
//! remote exchanges an operation performs is identical on all of them — so
//! one schedule reproduces the same fault at the same protocol step on the
//! deterministic cluster, the channel-threaded cluster and the TCP cluster.
//! [`Faulty`] wraps any runtime's transport
//! ([`with_faults`](ServerCluster::with_faults)), counts its remote
//! exchanges and decides the fate of each; local actions (`from == to`)
//! are never counted or intercepted, so the layer changes nothing while no
//! fault is scheduled.
//!
//! **What counts as an exchange.** Every remote attempt counts one, before
//! the links are consulted: an unreachable target still uses up an index.
//! So does a remote state probe, although it sends no message. A storage
//! fault rewrites an install into [`WireRequest::ApplyWriteFaulty`] of its
//! first block; a crash puts a site in a set the runner makes real once the
//! operation ends ([`end_op`](ServerCluster::end_op)).
//!
//! **Concurrency and exchange pinning.** The live runtimes fan protocol
//! scatters out concurrently, which would make completion order — and
//! hence any completion-time numbering — nondeterministic. `Faulty` is not
//! a concurrent transport, so every fan-out over it runs one exchange after
//! another in ascending target order: `(op, exchange)` coordinates mean the
//! same protocol step on all three runtimes (see
//! `scatter_keeps_exchange_indices_pinned_on_all_runtimes` below).

use crate::obs_hooks;
use crate::transport::{Links, ServerCluster, Transport};
use crate::wire::{Batch, Request, WireRequest, WireResponse};
use blockrep_obs::event;
use blockrep_storage::StorageFault;
use blockrep_types::{SiteId, SiteState};
use parking_lot::Mutex;
use std::collections::BTreeSet;

/// The kinds of fault the injection layer can fire on a remote exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message never arrives; the caller sees the target as silent.
    DropMessage,
    /// The message is delivered twice (exercising install idempotency).
    DuplicateMessage,
    /// The message arrives, but only after the operation has completed:
    /// one-way updates land post-op, request/response replies are lost.
    DelayMessage,
    /// The coordinator crashes just before sending this message; the rest
    /// of its fan-out is never sent.
    CrashCoordinator,
    /// The target processes this message, answers, then crashes.
    CrashTarget,
    /// The target crashes in the middle of persisting a write: new
    /// metadata, partially old data (see [`StorageFault::Torn`]).
    TornWrite {
        /// Leading bytes of the new payload that reached the disk.
        keep: usize,
    },
    /// The target crashes after persisting the new data but before the
    /// version update (see [`StorageFault::StaleVersion`]).
    StaleVersion,
    /// The target crashes while appending the install to its write-ahead
    /// journal: only the first `keep` bytes of the record reach stable
    /// storage and the block itself is never touched (see
    /// [`StorageFault::WalTorn`]). The on-disk block stays checksum-clean,
    /// so the restart scrub finds nothing — only journal replay (when the
    /// site is journaled) can tell the write happened at all.
    WalTorn {
        /// Leading bytes of the encoded journal record that were persisted.
        keep: usize,
    },
}

impl FaultKind {
    /// Whether the fault cannot perturb replicated state (installs are
    /// idempotent, so a duplicated message is harmless by design).
    pub fn is_benign(self) -> bool {
        matches!(self, FaultKind::DuplicateMessage)
    }

    /// Whether the fault leaves a checksum-broken block on the target's
    /// disk (reset to zeroes by the restart-time scrub).
    pub fn is_storage(self) -> bool {
        matches!(
            self,
            FaultKind::TornWrite { .. } | FaultKind::StaleVersion | FaultKind::WalTorn { .. }
        )
    }

    /// Short label for traces and shrunk-schedule listings.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DropMessage => "drop",
            FaultKind::DuplicateMessage => "duplicate",
            FaultKind::DelayMessage => "delay",
            FaultKind::CrashCoordinator => "crash-coordinator",
            FaultKind::CrashTarget => "crash-target",
            FaultKind::TornWrite { .. } => "torn-write",
            FaultKind::StaleVersion => "stale-version",
            FaultKind::WalTorn { .. } => "wal-torn",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::TornWrite { keep } => write!(f, "torn-write(keep={keep})"),
            FaultKind::WalTorn { keep } => write!(f, "wal-torn(keep={keep})"),
            other => f.write_str(other.label()),
        }
    }
}

/// One scheduled fault: fire `kind` on the `exchange`-th remote exchange of
/// operation `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Operation number (the runner numbers script steps).
    pub op: u64,
    /// Zero-based index of the remote exchange within the operation.
    pub exchange: u64,
    /// What happens to that exchange.
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}/x{}:{}", self.op, self.exchange, self.kind)
    }
}

/// What the injection layer did during one operation: the sites that
/// crashed mid-operation (the runner turns these into real fail-stops once
/// the operation returns) and the faults that actually fired.
#[derive(Debug, Clone, Default)]
pub struct OpReport {
    /// Sites that crashed during the operation, not yet failed for real.
    pub crashed: Vec<SiteId>,
    /// Scheduled faults whose exchange was actually reached.
    pub fired: Vec<FaultSpec>,
}

/// The fault layer's state for the operation under way.
#[derive(Default)]
struct InjectState {
    op: u64,
    exchange: u64,
    /// The operation's faults, as `(exchange, kind)`.
    faults: Vec<(u64, FaultKind)>,
    crashed: BTreeSet<SiteId>,
    /// One-way requests held back until the operation ends.
    deferred: Vec<(SiteId, SiteId, WireRequest)>,
    fired: Vec<FaultSpec>,
}

/// What happens to one remote exchange.
enum Fate {
    Deliver,
    Suppress,
    Duplicate,
    Delay,
    /// An install leaves its first block broken on the target's disk, and
    /// no acknowledgement comes back.
    Storage(StorageFault),
}

/// A transport wrapper that fires scheduled faults on the remote exchanges
/// flowing through it.
///
/// A site that crashes mid-operation (via the crash or storage faults) is
/// tracked in an internal set: every later exchange involving it is
/// suppressed, which is exactly what fail-stop looks like to the protocol.
/// The *real* state transition (and the scheme's failure detection) is
/// left to the runner, after [`end_op`](ServerCluster::end_op), so the
/// protocol's in-flight operation observes only silence — never a
/// reentrant recovery. Between operations the layer is inert.
pub struct Faulty<T> {
    inner: T,
    state: Mutex<InjectState>,
}

impl<T> ServerCluster<T> {
    /// This cluster with a fault layer between its coordinator and its
    /// transport. Nothing fires until an operation
    /// [begins](ServerCluster::begin_op) with faults scheduled.
    pub fn with_faults(self) -> ServerCluster<Faulty<T>> {
        let (coord, inner) = self.into_parts();
        let state = Mutex::new(InjectState::default());
        ServerCluster::over(coord, Faulty { inner, state })
    }
}

impl<T> ServerCluster<Faulty<T>> {
    /// This cluster with its fault layer taken out again: the inverse of
    /// [`with_faults`](ServerCluster::with_faults).
    pub fn without_faults(self) -> ServerCluster<T> {
        let (coord, faulty) = self.into_parts();
        ServerCluster::over(coord, faulty.inner)
    }
}

// `Transport` is the crate's own seam: nothing outside it can name a `T`
// other than the exported ones.
#[allow(private_bounds)]
impl<T: Transport> ServerCluster<Faulty<T>> {
    /// Starts operation `op`, whose remote exchanges are numbered from zero
    /// and meet `faults`, given as `(exchange, kind)` pairs.
    pub fn begin_op(&self, op: u64, faults: &[(u64, FaultKind)]) {
        *self.transport.state.lock() = InjectState {
            op,
            faults: faults.to_vec(),
            ..InjectState::default()
        };
    }

    /// Ends the current operation: delivers its delayed one-way requests
    /// (to sites that did not crash meanwhile) and reports what happened,
    /// so the runner can make the mid-operation crashes real. The layer is
    /// inert until the next [`begin_op`](Self::begin_op).
    pub fn end_op(&self) -> OpReport {
        let st = std::mem::take(&mut *self.transport.state.lock());
        let links = &self.coord.links;
        for (from, to, request) in &st.deferred {
            if !st.crashed.contains(to) {
                let request = request.as_request();
                self.transport
                    .inner
                    .exchange(links, *from, *to, request, true);
            }
        }
        OpReport {
            crashed: st.crashed.into_iter().collect(),
            fired: st.fired,
        }
    }
}

#[allow(private_bounds)]
impl<T: Transport> Faulty<T> {
    /// Counts one remote exchange and decides its fate.
    fn decide(&self, from: SiteId, to: SiteId) -> Fate {
        let mut st = self.state.lock();
        let exchange = st.exchange;
        st.exchange += 1;
        if st.crashed.contains(&from) || st.crashed.contains(&to) {
            return Fate::Suppress;
        }
        let Some(&(_, kind)) = st.faults.iter().find(|&&(x, _)| x == exchange) else {
            return Fate::Deliver;
        };
        let op = st.op;
        st.fired.push(FaultSpec { op, exchange, kind });
        event!(
            "chaos.fault",
            op = op,
            exchange = exchange,
            kind = kind.label(),
            from = from.as_u32(),
            to = to.as_u32(),
        );
        obs_hooks::count(obs_hooks::faults_injected, 1);
        if blockrep_obs::enabled() && obs_hooks::tracing() {
            // A point mark in the causal tree: the post-mortem dump shows
            // exactly which phase of which op the fault landed in.
            blockrep_obs::trace::instant(obs_hooks::phase_chaos_fault(), to.as_u32());
        }
        match kind {
            FaultKind::DropMessage => Fate::Suppress,
            FaultKind::DuplicateMessage => Fate::Duplicate,
            FaultKind::DelayMessage => Fate::Delay,
            FaultKind::CrashCoordinator => {
                st.crashed.insert(from);
                Fate::Suppress
            }
            // The target processes this message, answers, then crashes.
            FaultKind::CrashTarget => {
                st.crashed.insert(to);
                Fate::Deliver
            }
            FaultKind::TornWrite { keep } => {
                st.crashed.insert(to);
                Fate::Storage(StorageFault::Torn { keep })
            }
            FaultKind::StaleVersion => {
                st.crashed.insert(to);
                Fate::Storage(StorageFault::StaleVersion)
            }
            FaultKind::WalTorn { keep } => {
                st.crashed.insert(to);
                Fate::Storage(StorageFault::WalTorn { keep })
            }
        }
    }
}

impl<T: Transport> Transport for Faulty<T> {
    const NAME: &'static str = T::NAME;

    fn call(&self, to: SiteId, request: Request<'_>) -> Option<WireResponse> {
        self.inner.call(to, request)
    }

    fn cast(&self, to: SiteId, request: Request<'_>) -> bool {
        self.inner.cast(to, request)
    }

    fn local(&self, s: SiteId, request: Request<'_>) -> Option<WireResponse> {
        self.inner.local(s, request)
    }

    fn exchange(
        &self,
        links: &Links,
        from: SiteId,
        to: SiteId,
        request: Request<'_>,
        one_way: bool,
    ) -> Option<WireResponse> {
        let send = |request| self.inner.exchange(links, from, to, request, one_way);
        match self.decide(from, to) {
            Fate::Deliver => send(request),
            Fate::Suppress => None,
            Fate::Duplicate => {
                let _ = send(request);
                send(request)
            }
            // A one-way request lands after the operation; a request's
            // reply arrives too late.
            Fate::Delay if one_way => {
                let held = (from, to, WireRequest::from(request));
                self.state.lock().deferred.push(held);
                None
            }
            Fate::Delay => {
                let _ = send(request);
                None
            }
            // The install starts, the target's disk dies under its first
            // block, and the ack is never sent: the coordinator sees a dead
            // site. On a request that installs nothing the fault degrades
            // to "processed, answered, then crashed".
            Fate::Storage(fault) => {
                let first = match request {
                    Request::ApplyWriteMany(Batch::Sealed(blocks)) => blocks
                        .first()
                        .map(|(k, block)| (*k, block.version(), block.data())),
                    _ => return send(request),
                };
                if let Some((k, v, data)) = first {
                    let broken = Request::ApplyWriteFaulty(k, v, data, fault);
                    self.inner.exchange(links, from, to, broken, true);
                }
                None
            }
        }
    }

    fn probe(&self, links: &Links, from: SiteId, to: SiteId) -> Option<SiteState> {
        match self.decide(from, to) {
            Fate::Suppress | Fate::Delay => None,
            _ => self.inner.probe(links, from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
    use blockrep_net::{DeliveryMode, TrafficSnapshot};
    use blockrep_types::{BlockData, BlockIndex, DeviceConfig, DeviceResult, Scheme};

    fn cluster(scheme: Scheme) -> ServerCluster<Faulty<crate::Inline>> {
        let cfg = DeviceConfig::builder(scheme)
            .sites(3)
            .num_blocks(2)
            .block_size(4)
            .build()
            .unwrap();
        Cluster::new(cfg, ClusterOptions::default()).with_faults()
    }

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn blk(i: u64) -> BlockIndex {
        BlockIndex::new(i)
    }

    /// Op 0: a write of `fill` from site 0, meeting `faults`; what the
    /// write returned and what the op left behind.
    fn write_op<T: Transport>(
        c: &ServerCluster<Faulty<T>>,
        fill: u8,
        faults: &[(u64, FaultKind)],
    ) -> (DeviceResult<()>, OpReport) {
        c.begin_op(0, faults);
        let wrote = c.write(sid(0), blk(0), BlockData::from(vec![fill; 4]));
        (wrote, c.end_op())
    }

    #[test]
    fn empty_plan_is_transparent() {
        let c = cluster(Scheme::Voting);
        let (wrote, report) = write_op(&c, 7, &[]);
        wrote.unwrap();
        assert!(report.crashed.is_empty());
        assert!(report.fired.is_empty());
        for s in 0..3 {
            assert_eq!(c.data_of(sid(s), blk(0)).as_slice(), &[7; 4]);
        }
    }

    #[test]
    fn dropped_update_misses_one_site() {
        let c = cluster(Scheme::AvailableCopy);
        // AC write exchanges: probe(s1), apply(s1), probe(s2), apply(s2),
        // then the was-available fan-out. Drop exchange 1 = apply to s1.
        let (wrote, report) = write_op(&c, 9, &[(1, FaultKind::DropMessage)]);
        wrote.unwrap();
        assert_eq!(report.fired.len(), 1);
        assert!(report.crashed.is_empty());
        assert!(c.data_of(sid(1), blk(0)).is_zeroed());
        assert_eq!(c.data_of(sid(2), blk(0)).as_slice(), &[9; 4]);
    }

    #[test]
    fn a_probe_is_an_exchange_although_no_message_is_sent() {
        let c = cluster(Scheme::AvailableCopy);
        // Exchange 0 is s1's availability probe: dropped, s1 looks
        // unavailable and is sent nothing, so exchange 1 is s2's probe.
        let (wrote, report) = write_op(&c, 5, &[(0, FaultKind::DropMessage)]);
        wrote.unwrap();
        assert_eq!(report.fired[0].exchange, 0);
        assert!(c.data_of(sid(1), blk(0)).is_zeroed());
        assert_eq!(c.data_of(sid(2), blk(0)).as_slice(), &[5; 4]);
        assert_eq!(c.was_available_of(sid(2)), [sid(0), sid(2)]);
    }

    #[test]
    fn an_unreachable_target_still_uses_up_its_exchange() {
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .num_blocks(2)
            .block_size(4)
            .build()
            .unwrap();
        let c = Cluster::new(cfg, ClusterOptions::default()).with_faults();
        c.fail_site(sid(1));
        // Votes to s1/s2/s3 are exchanges 0/1/2 although s1 is down, so the
        // drop on exchange 1 costs s2 the write; s0 and s3 still carry it.
        let (wrote, report) = write_op(&c, 6, &[(1, FaultKind::DropMessage)]);
        wrote.unwrap();
        assert_eq!(report.fired.len(), 1);
        let versions: Vec<u64> = (0..4)
            .map(|s| c.version_of(sid(s), blk(0)).as_u64())
            .collect();
        assert_eq!(versions, [1, 0, 0, 1]);
    }

    #[test]
    fn crash_coordinator_stops_the_fanout() {
        let c = cluster(Scheme::AvailableCopy);
        // Crash the coordinator before its first fan-out message: nobody
        // else hears of the write; the origin's local install still lands
        // on its own disk (it crashed after the disk write).
        let (_, report) = write_op(&c, 5, &[(0, FaultKind::CrashCoordinator)]);
        assert_eq!(report.crashed, vec![sid(0)]);
        assert!(c.data_of(sid(1), blk(0)).is_zeroed());
        assert!(c.data_of(sid(2), blk(0)).is_zeroed());
    }

    #[test]
    fn delayed_update_lands_after_the_op() {
        let c = cluster(Scheme::NaiveAvailableCopy);
        // Naive AC write exchanges: probe(s1), apply(s1), probe(s2), apply(s2).
        c.begin_op(0, &[(1, FaultKind::DelayMessage)]);
        let data = BlockData::from(vec![3; 4]);
        c.write(sid(0), blk(0), data).unwrap();
        // Held back until end_op…
        assert!(c.data_of(sid(1), blk(0)).is_zeroed());
        c.end_op();
        // …then delivered.
        assert_eq!(c.data_of(sid(1), blk(0)).as_slice(), &[3; 4]);
    }

    /// What a faulted write left behind: every site's version of each of
    /// `blocks` blocks, the traffic, and the faults that fired.
    type Aftermath = (Vec<Vec<u64>>, TrafficSnapshot, Vec<FaultSpec>);

    fn aftermath<T: Transport>(
        c: &ServerCluster<Faulty<T>>,
        blocks: u64,
        report: OpReport,
    ) -> Aftermath {
        let versions = (0..4)
            .map(|s| {
                (0..blocks)
                    .map(|k| c.version_of(sid(s), blk(k)).as_u64())
                    .collect()
            })
            .collect();
        (versions, c.traffic(), report.fired)
    }

    /// MCV write at 4 sites with a drop on exchange 1 (s2's vote): votes to
    /// s1/s2/s3 are exchanges 0/1/2, so s2 never joins the voter set and is
    /// skipped by the install fan-out.
    fn run_write_with_dropped_vote<T: Transport>(c: &ServerCluster<Faulty<T>>) -> Aftermath {
        let (wrote, report) = write_op(c, 6, &[(1, FaultKind::DropMessage)]);
        wrote.unwrap();
        aftermath(c, 1, report)
    }

    fn voting_cfg() -> DeviceConfig {
        DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .num_blocks(2)
            .block_size(4)
            .build()
            .unwrap()
    }

    #[test]
    fn scatter_keeps_exchange_indices_pinned_on_all_runtimes() {
        // The live and TCP transports scatter concurrently, but the fault
        // layer does not — so the same (op, exchange) coordinate hits the
        // same protocol step whether the transport under it is in-process,
        // channel-threaded or TCP.
        let mode = DeliveryMode::Multicast;
        let det = Cluster::new(voting_cfg(), ClusterOptions { mode }).with_faults();
        let live = LiveCluster::spawn(voting_cfg(), mode).with_faults();
        let tcp = TcpCluster::spawn(voting_cfg(), mode).unwrap().with_faults();
        let d = run_write_with_dropped_vote(&det);
        assert_eq!(
            d.0,
            vec![vec![1], vec![1], vec![0], vec![1]],
            "the dropped vote must exclude exactly s2 from the install set"
        );
        assert_eq!(d, run_write_with_dropped_vote(&live), "live diverged");
        assert_eq!(d, run_write_with_dropped_vote(&tcp), "tcp diverged");
    }

    /// Batched MCV write at 4 sites with a drop on exchange 1 (s2's batched
    /// vote): the whole VoteMany frame to a site is ONE exchange, so the
    /// coordinates are vote(s1)=0, vote(s2)=1, vote(s3)=2, then one
    /// InstallMany per voter — regardless of how many blocks the batch
    /// carries.
    fn run_batched_write_with_dropped_vote<T: Transport>(
        c: &ServerCluster<Faulty<T>>,
    ) -> Aftermath {
        c.begin_op(0, &[(1, FaultKind::DropMessage)]);
        let writes: Vec<(BlockIndex, BlockData)> = (0..2)
            .map(|k| (blk(k), BlockData::from(vec![6 + k as u8; 4])))
            .collect();
        c.write_many(sid(0), &writes).unwrap();
        let report = c.end_op();
        aftermath(c, 2, report)
    }

    #[test]
    fn batched_scatter_occupies_one_exchange_slot_on_all_runtimes() {
        let mode = DeliveryMode::Multicast;
        let det = Cluster::new(voting_cfg(), ClusterOptions { mode }).with_faults();
        let live = LiveCluster::spawn(voting_cfg(), mode).with_faults();
        let tcp = TcpCluster::spawn(voting_cfg(), mode).unwrap().with_faults();
        let d = run_batched_write_with_dropped_vote(&det);
        assert_eq!(
            d.0,
            vec![vec![1, 1], vec![1, 1], vec![0, 0], vec![1, 1]],
            "dropping the one batched vote frame must exclude exactly s2 for every block"
        );
        assert_eq!(
            d,
            run_batched_write_with_dropped_vote(&live),
            "live diverged"
        );
        assert_eq!(d, run_batched_write_with_dropped_vote(&tcp), "tcp diverged");
    }

    #[test]
    fn torn_write_crashes_target_with_broken_block() {
        let c = cluster(Scheme::AvailableCopy);
        let (wrote, report) = write_op(&c, 8, &[(1, FaultKind::TornWrite { keep: 2 })]);
        wrote.unwrap();
        assert_eq!(report.crashed, vec![sid(1)]);
        // Half-new, half-old data; the scrub finds and resets it.
        assert_eq!(c.data_of(sid(1), blk(0)).as_slice(), &[8, 8, 0, 0]);
        assert_eq!(c.scrub_local(sid(1)), 1);
        assert!(c.data_of(sid(1), blk(0)).is_zeroed());
    }

    #[test]
    fn wal_torn_crashes_target_but_leaves_clean_disk() {
        // Without a journal the install simply never lands: the target's
        // block is untouched, checksum-clean, and the scrub finds nothing
        // to reset. The write survives only on the sites that acked.
        let c = cluster(Scheme::AvailableCopy);
        let (wrote, report) = write_op(&c, 8, &[(1, FaultKind::WalTorn { keep: 7 })]);
        wrote.unwrap();
        assert_eq!(report.crashed, vec![sid(1)]);
        assert!(c.data_of(sid(1), blk(0)).is_zeroed());
        assert_eq!(
            c.scrub_local(sid(1)),
            0,
            "block is intact, nothing to scrub"
        );
        assert_eq!(c.data_of(sid(0), blk(0)).as_slice(), &[8; 4]);
    }
}
