//! Deterministic fault injection threaded through the [`Backend`] seam.
//!
//! A [`FaultPlan`] is a schedule of [`FaultSpec`]s addressed by *(operation
//! number, remote-exchange number within the operation)*. Because the three
//! runtimes run byte-for-byte the same protocol code against [`Backend`],
//! the sequence of remote exchanges an operation performs is identical on
//! all of them — so one schedule reproduces the same fault at the same
//! protocol step on the deterministic cluster, the channel-threaded cluster
//! and the TCP cluster. [`FaultyBackend`] wraps any backend, counts its
//! remote exchanges and fires the scheduled faults; local actions
//! (`from == to`) are never counted or intercepted, so the wrapper adds no
//! behavioural difference when the plan is empty.
//!
//! **Concurrency and exchange pinning.** The live runtimes fan protocol
//! scatters out concurrently ([`Backend::scatter`]), which would make
//! completion order — and hence any completion-time numbering —
//! nondeterministic. Exchange indices are therefore pinned at *scatter
//! time*: `FaultyBackend` deliberately does **not** override `scatter`, so
//! every fan-out routed through it falls back to the default sequential
//! body, which performs the per-target exchanges in ascending target order.
//! Under fault injection, `(op, exchange)` coordinates mean the same
//! protocol step on all three runtimes, concurrency notwithstanding (see
//! `scatter_keeps_exchange_indices_pinned_on_all_runtimes` below).

use crate::backend::{Backend, Coordinator, RepairBlocks, RepairPayload, WriteBatch};
use crate::obs_hooks;
use blockrep_obs::event;
use blockrep_storage::{SealedBlock, StorageFault};
use blockrep_types::{
    BlockData, BlockIndex, DeviceResult, SiteId, SiteState, VersionNumber, VersionVector,
};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::ops::Deref;

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
    /// A lease-holder answers a lease read with a version that no longer
    /// matches the coordinator's lease — the holder was partitioned across
    /// a write and is serving from before it. Models the stale-lease hazard
    /// of read offload: the coordinator must detect the mismatch, drop the
    /// lease and fall back to a quorum read, so the fault is benign by
    /// construction (it can cost a round trip, never consistency). On
    /// exchanges that are not lease reads it degrades to normal delivery.
    StaleLease,
}

impl FaultKind {
    /// Whether the fault cannot perturb replicated state (installs are
    /// idempotent, so a duplicated message is harmless by design).
    pub fn is_benign(self) -> bool {
        matches!(self, FaultKind::DuplicateMessage | FaultKind::StaleLease)
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
            FaultKind::StaleLease => "stale-lease",
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

/// A deterministic fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty schedule (the wrapper becomes a transparent pass-through).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault to the schedule.
    pub fn push(&mut self, fault: FaultSpec) {
        self.faults.push(fault);
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    fn fault_at(&self, op: u64, exchange: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.op == op && f.exchange == exchange)
            .map(|f| f.kind)
    }
}

impl FromIterator<FaultSpec> for FaultPlan {
    fn from_iter<T: IntoIterator<Item = FaultSpec>>(iter: T) -> Self {
        FaultPlan {
            faults: iter.into_iter().collect(),
        }
    }
}

/// A one-way message held back by a [`FaultKind::DelayMessage`] fault,
/// delivered when the operation ends.
enum Deferred {
    ApplyWrite {
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        block: SealedBlock,
    },
    ApplyWriteMany {
        from: SiteId,
        to: SiteId,
        writes: WriteBatch,
    },
    SetW {
        from: SiteId,
        to: SiteId,
        w: Vec<SiteId>,
    },
    AddW {
        from: SiteId,
        to: SiteId,
        member: SiteId,
    },
}

#[derive(Default)]
struct InjectState {
    op: u64,
    exchange: u64,
    crashed: BTreeSet<SiteId>,
    deferred: Vec<Deferred>,
    fired: Vec<FaultSpec>,
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

/// What the wrapper does with one remote exchange.
enum Decision {
    Deliver,
    Suppress,
    Duplicate,
    Delay,
    /// Deliver, answer, then the target is dead for the rest of the op.
    DeliverThenDead,
    Torn(usize),
    Stale,
    /// The target's journal append tears mid-record; no ack, target dead.
    WalTorn(usize),
    /// A lease read is answered from before the write the lease postdates.
    StaleLease,
}

/// A [`Backend`] wrapper that fires a [`FaultPlan`] on the remote exchanges
/// flowing through it.
///
/// A site that crashes mid-operation (via the crash or storage faults) is
/// tracked in an internal set: every later exchange involving it is
/// suppressed, which is exactly what fail-stop looks like to the protocol.
/// The *real* state transition (and the scheme's failure detection) is
/// deferred to the runner via [`end_op`](Self::end_op), so the protocol's
/// in-flight operation observes only silence — never a reentrant recovery.
///
/// The wrapper reaches its backend through any pointer `R` to it: a
/// borrow, or an `Arc` when the wrapper must own its share (a shard of a
/// [`ShardedDevice`](crate::ShardedDevice), whose workers outlive any
/// borrow).
pub struct FaultyBackend<R> {
    inner: R,
    plan: FaultPlan,
    state: Mutex<InjectState>,
}

impl<R: Deref<Target: Backend>> FaultyBackend<R> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultyBackend {
            inner,
            plan,
            state: Mutex::new(InjectState::default()),
        }
    }

    /// Starts operation `op`: resets the exchange counter and the set of
    /// sites crashed mid-operation.
    pub fn begin_op(&self, op: u64) {
        let mut st = self.state.lock();
        st.op = op;
        st.exchange = 0;
        st.crashed.clear();
        st.fired.clear();
        st.deferred.clear();
    }

    /// Ends the current operation: delivers delayed one-way messages (to
    /// sites that did not crash meanwhile) and reports what happened so the
    /// runner can finalize mid-operation crashes.
    pub fn end_op(&self) -> OpReport {
        let (deferred, crashed, fired) = {
            let mut st = self.state.lock();
            (
                std::mem::take(&mut st.deferred),
                st.crashed.iter().copied().collect::<Vec<_>>(),
                std::mem::take(&mut st.fired),
            )
        };
        for msg in deferred {
            match msg {
                Deferred::ApplyWrite { from, to, k, block } => {
                    if !crashed.contains(&to) {
                        self.inner.apply_write(from, to, k, &block);
                    }
                }
                Deferred::ApplyWriteMany { from, to, writes } => {
                    if !crashed.contains(&to) {
                        self.inner.apply_write_many(from, to, &writes);
                    }
                }
                Deferred::SetW { from, to, w } => {
                    if !crashed.contains(&to) {
                        self.inner.set_was_available(from, to, &w);
                    }
                }
                Deferred::AddW { from, to, member } => {
                    if !crashed.contains(&to) {
                        self.inner.add_was_available(from, to, member);
                    }
                }
            }
        }
        OpReport { crashed, fired }
    }

    /// Counts one remote exchange and decides its fate.
    fn pre(&self, from: SiteId, to: SiteId) -> Decision {
        let mut st = self.state.lock();
        let ex = st.exchange;
        st.exchange += 1;
        if st.crashed.contains(&from) || st.crashed.contains(&to) {
            return Decision::Suppress;
        }
        let Some(kind) = self.plan.fault_at(st.op, ex) else {
            return Decision::Deliver;
        };
        let spec = FaultSpec {
            op: st.op,
            exchange: ex,
            kind,
        };
        st.fired.push(spec);
        event!(
            "chaos.fault",
            op = st.op,
            exchange = ex,
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
            FaultKind::DropMessage => Decision::Suppress,
            FaultKind::DuplicateMessage => Decision::Duplicate,
            FaultKind::DelayMessage => Decision::Delay,
            FaultKind::CrashCoordinator => {
                st.crashed.insert(from);
                Decision::Suppress
            }
            FaultKind::CrashTarget => {
                st.crashed.insert(to);
                Decision::DeliverThenDead
            }
            FaultKind::TornWrite { keep } => {
                st.crashed.insert(to);
                Decision::Torn(keep)
            }
            FaultKind::StaleVersion => {
                st.crashed.insert(to);
                Decision::Stale
            }
            FaultKind::WalTorn { keep } => {
                st.crashed.insert(to);
                Decision::WalTorn(keep)
            }
            FaultKind::StaleLease => Decision::StaleLease,
        }
    }

    /// Request/response exchange: the caller needs an answer.
    fn rpc<T>(&self, from: SiteId, to: SiteId, call: impl Fn() -> Option<T>) -> Option<T> {
        match self.pre(from, to) {
            // A storage fault landing on a non-install exchange degrades to
            // "processed, answered, then crashed"; a stale-lease fault
            // landing on a non-lease exchange degrades to plain delivery.
            Decision::Deliver
            | Decision::DeliverThenDead
            | Decision::Torn(_)
            | Decision::Stale
            | Decision::WalTorn(_)
            | Decision::StaleLease => call(),
            Decision::Duplicate => {
                let _ = call();
                call()
            }
            Decision::Suppress => None,
            // The request is processed but the reply arrives too late.
            Decision::Delay => {
                let _ = call();
                None
            }
        }
    }

    /// One-way exchange: fire-and-forget with a delivery indication.
    fn one_way(
        &self,
        from: SiteId,
        to: SiteId,
        deliver: impl Fn() -> bool,
        defer: impl FnOnce() -> Deferred,
    ) -> bool {
        match self.pre(from, to) {
            Decision::Deliver
            | Decision::DeliverThenDead
            | Decision::Torn(_)
            | Decision::Stale
            | Decision::WalTorn(_)
            | Decision::StaleLease => deliver(),
            Decision::Duplicate => {
                let _ = deliver();
                deliver()
            }
            Decision::Suppress => false,
            Decision::Delay => {
                self.state.lock().deferred.push(defer());
                false
            }
        }
    }
}

impl<R: Deref<Target: Backend> + Send + Sync> Backend for FaultyBackend<R> {
    fn coordinator(&self) -> &Coordinator {
        // Configuration, states, accounting, locks and leases are the inner
        // runtime's: the wrapper only decides message fates, so same-block
        // exclusion and lease epochs must come from one coordinator.
        self.inner.coordinator()
    }

    fn probe_state(&self, from: SiteId, to: SiteId) -> Option<SiteState> {
        if from == to {
            return self.inner.probe_state(from, to);
        }
        self.rpc(from, to, || self.inner.probe_state(from, to))
    }

    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        if from == to {
            return self.inner.vote(from, to, k);
        }
        self.rpc(from, to, || self.inner.vote(from, to, k))
    }

    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>> {
        if from == to {
            return self.inner.vote_many(from, to, ks);
        }
        // One batched request frame = one remote exchange, whatever its
        // block count — so (op, exchange) coordinates stay pinned.
        self.rpc(from, to, || self.inner.vote_many(from, to, ks))
    }

    fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        if from == to {
            return self.inner.fetch_block(from, to, k);
        }
        self.rpc(from, to, || self.inner.fetch_block(from, to, k))
    }

    fn fetch_lease(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        if from == to {
            return self.inner.fetch_lease(from, to, k);
        }
        match self.pre(from, to) {
            Decision::Deliver
            | Decision::DeliverThenDead
            | Decision::Torn(_)
            | Decision::Stale
            | Decision::WalTorn(_) => self.inner.fetch_lease(from, to, k),
            // The holder answers from before the write the lease postdates:
            // rewinding the reported version guarantees a mismatch with the
            // coordinator's lease (even at v=0, where it wraps), forcing the
            // invalidate-and-fall-back path.
            Decision::StaleLease => self
                .inner
                .fetch_lease(from, to, k)
                .map(|(v, data)| (VersionNumber::new(v.as_u64().wrapping_sub(1)), data)),
            Decision::Duplicate => {
                let _ = self.inner.fetch_lease(from, to, k);
                self.inner.fetch_lease(from, to, k)
            }
            Decision::Suppress => None,
            Decision::Delay => {
                let _ = self.inner.fetch_lease(from, to, k);
                None
            }
        }
    }

    fn apply_write(&self, from: SiteId, to: SiteId, k: BlockIndex, block: &SealedBlock) -> bool {
        if from == to {
            return self.inner.apply_write(from, to, k, block);
        }
        let (data, v) = (block.data(), block.version());
        match self.pre(from, to) {
            Decision::Deliver | Decision::DeliverThenDead | Decision::StaleLease => {
                self.inner.apply_write(from, to, k, block)
            }
            Decision::Duplicate => {
                let _ = self.inner.apply_write(from, to, k, block);
                self.inner.apply_write(from, to, k, block)
            }
            Decision::Suppress => false,
            Decision::Delay => {
                self.state.lock().deferred.push(Deferred::ApplyWrite {
                    from,
                    to,
                    k,
                    block: block.clone(),
                });
                false
            }
            // The install starts, the target's disk tears, and the ack is
            // never sent: the coordinator sees a dead site.
            Decision::Torn(keep) => {
                self.inner
                    .apply_write_faulty(from, to, k, data, v, StorageFault::Torn { keep });
                false
            }
            Decision::Stale => {
                self.inner
                    .apply_write_faulty(from, to, k, data, v, StorageFault::StaleVersion);
                false
            }
            // The install's journal append tears mid-record; the block
            // write never starts and the ack is never sent.
            Decision::WalTorn(keep) => {
                self.inner
                    .apply_write_faulty(from, to, k, data, v, StorageFault::WalTorn { keep });
                false
            }
        }
    }

    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        if from == to {
            return self.inner.apply_write_many(from, to, writes);
        }
        match self.pre(from, to) {
            Decision::Deliver | Decision::DeliverThenDead | Decision::StaleLease => {
                self.inner.apply_write_many(from, to, writes)
            }
            Decision::Duplicate => {
                let _ = self.inner.apply_write_many(from, to, writes);
                self.inner.apply_write_many(from, to, writes)
            }
            Decision::Suppress => false,
            Decision::Delay => {
                self.state.lock().deferred.push(Deferred::ApplyWriteMany {
                    from,
                    to,
                    writes: writes.clone(),
                });
                false
            }
            // The disk dies while persisting the first block of the batch:
            // it lands torn/stale, the rest of the batch never reaches the
            // platter, and no ack is sent.
            Decision::Torn(keep) => {
                if let Some((k, block)) = writes.first() {
                    self.inner.apply_write_faulty(
                        from,
                        to,
                        *k,
                        block.data(),
                        block.version(),
                        StorageFault::Torn { keep },
                    );
                }
                false
            }
            Decision::Stale => {
                if let Some((k, block)) = writes.first() {
                    self.inner.apply_write_faulty(
                        from,
                        to,
                        *k,
                        block.data(),
                        block.version(),
                        StorageFault::StaleVersion,
                    );
                }
                false
            }
            Decision::WalTorn(keep) => {
                if let Some((k, block)) = writes.first() {
                    self.inner.apply_write_faulty(
                        from,
                        to,
                        *k,
                        block.data(),
                        block.version(),
                        StorageFault::WalTorn { keep },
                    );
                }
                false
            }
        }
    }

    fn read_local(&self, s: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        self.inner.read_local(s, k)
    }

    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.inner.read_local_many(s, ks)
    }

    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        if from == to {
            return self.inner.version_vector(from, to);
        }
        self.rpc(from, to, || self.inner.version_vector(from, to))
    }

    fn repair_payload(
        &self,
        from: SiteId,
        to: SiteId,
        vv: &VersionVector,
    ) -> Option<RepairPayload> {
        if from == to {
            return self.inner.repair_payload(from, to, vv);
        }
        self.rpc(from, to, || self.inner.repair_payload(from, to, vv))
    }

    fn apply_repair_local(&self, s: SiteId, blocks: RepairBlocks) -> usize {
        self.inner.apply_repair_local(s, blocks)
    }

    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>> {
        if from == to {
            return self.inner.was_available(from, to);
        }
        self.rpc(from, to, || self.inner.was_available(from, to))
    }

    fn set_was_available(&self, from: SiteId, to: SiteId, w: &[SiteId]) -> bool {
        if from == to {
            return self.inner.set_was_available(from, to, w);
        }
        self.one_way(
            from,
            to,
            || self.inner.set_was_available(from, to, w),
            || Deferred::SetW {
                from,
                to,
                w: w.to_vec(),
            },
        )
    }

    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        if from == to {
            return self.inner.add_was_available(from, to, member);
        }
        self.one_way(
            from,
            to,
            || self.inner.add_was_available(from, to, member),
            || Deferred::AddW { from, to, member },
        )
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
        // Injection primitive: pass through uncounted.
        self.inner.apply_write_faulty(from, to, k, data, v, fault)
    }

    fn scrub_local(&self, s: SiteId) -> usize {
        self.inner.scrub_local(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterOptions};
    use blockrep_net::DeliveryMode;
    use blockrep_types::{DeviceConfig, Scheme};

    fn cluster(scheme: Scheme) -> Cluster {
        let cfg = DeviceConfig::builder(scheme)
            .sites(3)
            .num_blocks(2)
            .block_size(4)
            .build()
            .unwrap();
        Cluster::new(cfg, ClusterOptions::default())
    }

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let c = cluster(Scheme::Voting);
        let plan = FaultPlan::new();
        let fb = FaultyBackend::new(&c, plan);
        fb.begin_op(0);
        crate::protocol::write(
            &fb,
            sid(0),
            BlockIndex::new(0),
            &BlockData::from(vec![7; 4]),
        )
        .unwrap();
        let report = fb.end_op();
        assert!(report.crashed.is_empty());
        assert!(report.fired.is_empty());
        for s in 0..3 {
            assert_eq!(c.data_of(sid(s), BlockIndex::new(0)).as_slice(), &[7; 4]);
        }
    }

    #[test]
    fn dropped_update_misses_one_site() {
        let c = cluster(Scheme::AvailableCopy);
        // AC write exchanges: probe(s1), apply(s1), probe(s2), apply(s2),
        // then the was-available fan-out. Drop exchange 1 = apply to s1.
        let plan: FaultPlan = [FaultSpec {
            op: 0,
            exchange: 1,
            kind: FaultKind::DropMessage,
        }]
        .into_iter()
        .collect();
        let fb = FaultyBackend::new(&c, plan);
        fb.begin_op(0);
        crate::protocol::write(
            &fb,
            sid(0),
            BlockIndex::new(0),
            &BlockData::from(vec![9; 4]),
        )
        .unwrap();
        let report = fb.end_op();
        assert_eq!(report.fired.len(), 1);
        assert!(report.crashed.is_empty());
        assert!(c.data_of(sid(1), BlockIndex::new(0)).is_zeroed());
        assert_eq!(c.data_of(sid(2), BlockIndex::new(0)).as_slice(), &[9; 4]);
    }

    #[test]
    fn crash_coordinator_stops_the_fanout() {
        let c = cluster(Scheme::AvailableCopy);
        // Crash the coordinator before its first fan-out message: nobody
        // else hears of the write; the origin's local install still lands
        // on its own disk (it crashed after the disk write).
        let plan: FaultPlan = [FaultSpec {
            op: 0,
            exchange: 0,
            kind: FaultKind::CrashCoordinator,
        }]
        .into_iter()
        .collect();
        let fb = FaultyBackend::new(&c, plan);
        fb.begin_op(0);
        let _ = crate::protocol::write(
            &fb,
            sid(0),
            BlockIndex::new(0),
            &BlockData::from(vec![5; 4]),
        );
        let report = fb.end_op();
        assert_eq!(report.crashed, vec![sid(0)]);
        assert!(c.data_of(sid(1), BlockIndex::new(0)).is_zeroed());
        assert!(c.data_of(sid(2), BlockIndex::new(0)).is_zeroed());
    }

    #[test]
    fn delayed_update_lands_after_the_op() {
        let c = cluster(Scheme::NaiveAvailableCopy);
        // Naive AC write exchanges: probe(s1), apply(s1), probe(s2), apply(s2).
        let plan: FaultPlan = [FaultSpec {
            op: 0,
            exchange: 1,
            kind: FaultKind::DelayMessage,
        }]
        .into_iter()
        .collect();
        let fb = FaultyBackend::new(&c, plan);
        fb.begin_op(0);
        crate::protocol::write(
            &fb,
            sid(0),
            BlockIndex::new(0),
            &BlockData::from(vec![3; 4]),
        )
        .unwrap();
        // Held back until end_op…
        assert!(c.data_of(sid(1), BlockIndex::new(0)).is_zeroed());
        fb.end_op();
        // …then delivered.
        assert_eq!(c.data_of(sid(1), BlockIndex::new(0)).as_slice(), &[3; 4]);
    }

    /// MCV write at 4 sites with a drop on exchange 1 (s2's vote): votes to
    /// s1/s2/s3 are exchanges 0/1/2, so s2 never joins the voter set and is
    /// skipped by the install fan-out.
    fn run_write_with_dropped_vote<B: Backend>(
        inner: &B,
    ) -> (Vec<u64>, blockrep_net::TrafficSnapshot, Vec<FaultSpec>) {
        let plan: FaultPlan = [FaultSpec {
            op: 0,
            exchange: 1,
            kind: FaultKind::DropMessage,
        }]
        .into_iter()
        .collect();
        let fb = FaultyBackend::new(inner, plan);
        fb.begin_op(0);
        crate::protocol::write(
            &fb,
            sid(0),
            BlockIndex::new(0),
            &BlockData::from(vec![6; 4]),
        )
        .unwrap();
        let report = fb.end_op();
        let versions = (0..4)
            .map(|i| {
                inner
                    .vote(sid(i), sid(i), BlockIndex::new(0))
                    .expect("local version lookup")
                    .as_u64()
            })
            .collect();
        (versions, inner.counter().snapshot(), report.fired)
    }

    #[test]
    fn scatter_keeps_exchange_indices_pinned_on_all_runtimes() {
        // The concurrent runtimes override Backend::scatter, but
        // FaultyBackend inherits the sequential default — so the same
        // (op, exchange) coordinate hits the same protocol step whether the
        // inner runtime is deterministic, channel-threaded or TCP.
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .num_blocks(2)
            .block_size(4)
            .build()
            .unwrap();
        let det = Cluster::new(cfg.clone(), ClusterOptions::default());
        let live = crate::LiveCluster::spawn(cfg.clone(), DeliveryMode::Multicast);
        let tcp = crate::TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap();
        let d = run_write_with_dropped_vote(&det);
        assert_eq!(
            d.0,
            vec![1, 1, 0, 1],
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
    fn run_batched_write_with_dropped_vote<B: Backend>(
        inner: &B,
    ) -> (Vec<Vec<u64>>, blockrep_net::TrafficSnapshot, Vec<FaultSpec>) {
        let plan: FaultPlan = [FaultSpec {
            op: 0,
            exchange: 1,
            kind: FaultKind::DropMessage,
        }]
        .into_iter()
        .collect();
        let fb = FaultyBackend::new(inner, plan);
        fb.begin_op(0);
        let writes: Vec<(BlockIndex, BlockData)> = (0..2)
            .map(|k| (BlockIndex::new(k), BlockData::from(vec![6 + k as u8; 4])))
            .collect();
        crate::protocol::write_many(&fb, sid(0), &writes).unwrap();
        let report = fb.end_op();
        let versions = (0..4)
            .map(|i| {
                (0..2)
                    .map(|k| {
                        inner
                            .vote(sid(i), sid(i), BlockIndex::new(k))
                            .expect("local version lookup")
                            .as_u64()
                    })
                    .collect()
            })
            .collect();
        (versions, inner.counter().snapshot(), report.fired)
    }

    #[test]
    fn batched_scatter_occupies_one_exchange_slot_on_all_runtimes() {
        let cfg = DeviceConfig::builder(Scheme::Voting)
            .sites(4)
            .num_blocks(2)
            .block_size(4)
            .build()
            .unwrap();
        let det = Cluster::new(cfg.clone(), ClusterOptions::default());
        let live = crate::LiveCluster::spawn(cfg.clone(), DeliveryMode::Multicast);
        let tcp = crate::TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap();
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
        let plan: FaultPlan = [FaultSpec {
            op: 0,
            exchange: 1,
            kind: FaultKind::TornWrite { keep: 2 },
        }]
        .into_iter()
        .collect();
        let fb = FaultyBackend::new(&c, plan);
        fb.begin_op(0);
        crate::protocol::write(
            &fb,
            sid(0),
            BlockIndex::new(0),
            &BlockData::from(vec![8; 4]),
        )
        .unwrap();
        let report = fb.end_op();
        assert_eq!(report.crashed, vec![sid(1)]);
        // Half-new, half-old data; the scrub finds and resets it.
        assert_eq!(
            c.data_of(sid(1), BlockIndex::new(0)).as_slice(),
            &[8, 8, 0, 0]
        );
        assert_eq!(c.scrub_local(sid(1)), 1);
        assert!(c.data_of(sid(1), BlockIndex::new(0)).is_zeroed());
    }

    #[test]
    fn wal_torn_crashes_target_but_leaves_clean_disk() {
        // Without a journal the install simply never lands: the target's
        // block is untouched, checksum-clean, and the scrub finds nothing
        // to reset. The write survives only on the sites that acked.
        let c = cluster(Scheme::AvailableCopy);
        let plan: FaultPlan = [FaultSpec {
            op: 0,
            exchange: 1,
            kind: FaultKind::WalTorn { keep: 7 },
        }]
        .into_iter()
        .collect();
        let fb = FaultyBackend::new(&c, plan);
        fb.begin_op(0);
        crate::protocol::write(
            &fb,
            sid(0),
            BlockIndex::new(0),
            &BlockData::from(vec![8; 4]),
        )
        .unwrap();
        let report = fb.end_op();
        assert_eq!(report.crashed, vec![sid(1)]);
        assert!(c.data_of(sid(1), BlockIndex::new(0)).is_zeroed());
        assert_eq!(
            c.scrub_local(sid(1)),
            0,
            "block is intact, nothing to scrub"
        );
        assert_eq!(c.data_of(sid(0), BlockIndex::new(0)).as_slice(), &[8; 4]);
    }
}
