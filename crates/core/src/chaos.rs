//! Seeded chaos testing: random fault schedules replayed on all three
//! runtimes, checked against a one-copy oracle and against each other.
//!
//! A [`ChaosScript`] is a seeded sequence of workload steps ([`Action`])
//! with [`FaultKind`]s attached to individual remote exchanges.
//! [`run_seed`] replays the same script on the deterministic [`Cluster`],
//! the threaded [`LiveCluster`] and the socket [`TcpCluster`], asserting
//!
//! 1. **one-copy admissibility** — every successful read returns a value
//!    the fault history admits (exactly the last write for blocks with a
//!    clean history, a member of the block's write history while crash
//!    faults are unresolved), and never a byte-mix of two writes; and
//! 2. **runtime parity** — the three runtimes produce the same per-step
//!    results, the same final replica fingerprints and the same §5 traffic.
//!
//! On failure, [`run_seed`] shrinks the script to a locally minimal failing
//! schedule (delta-debugging over steps, then over individual faults) and
//! reports it, so a red run is immediately replayable.
//!
//! # Fault model
//!
//! Crash faults (coordinator/target crashes, torn and stale-version
//! installs) are scheduled for every scheme: they are ordinary fail-stop
//! events of the paper's model, merely aimed at the worst instant. Pure
//! message faults (drop, delay) are scheduled only for voting, which is
//! designed to tolerate them; the available copy schemes *assume* a
//! reliable network (§3.2), and injecting silent message loss there
//! manufactures states the paper excludes, producing false alarms rather
//! than bugs. Duplication is benign everywhere (installs are idempotent)
//! and is scheduled for every scheme.

use crate::fault::{FaultKind, Faulty, OpReport};
use crate::shard::ShardSpec;
use crate::transport::{ServerCluster, Transport};
use crate::{protocol, Cluster, ClusterOptions, LiveCluster, ReliableDevice, TcpCluster};
use blockrep_net::{DeliveryMode, TrafficSnapshot};
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId, SiteState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::panic::catch_unwind;
use std::sync::Arc;

/// One workload step of a chaos script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Write `fill` bytes to `block`, coordinated by `origin`.
    Write {
        /// Coordinating site.
        origin: SiteId,
        /// Target block.
        block: BlockIndex,
        /// Fill byte; the payload is `fill` repeated over the block.
        fill: u8,
    },
    /// Read `block` via `origin` and check it against the oracle.
    Read {
        /// Coordinating site.
        origin: SiteId,
        /// Target block.
        block: BlockIndex,
    },
    /// Fail-stop a site (nothing if it is already failed).
    Fail(SiteId),
    /// Restart a failed site or sweep a comatose one (nothing if available).
    Repair(SiteId),
}

/// One chaos step: a workload action plus the faults scheduled on its
/// remote exchanges, as `(exchange index, kind)` pairs.
///
/// Faults ride on their step (rather than in a flat schedule) so that
/// shrinking can remove steps without renumbering the survivors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosStep {
    /// The workload action.
    pub action: Action,
    /// Faults to fire on this step's remote exchanges.
    pub faults: Vec<(u64, FaultKind)>,
}

/// A generated chaos script: a device configuration and the steps to
/// replay on it.
#[derive(Debug, Clone)]
pub struct ChaosScript {
    /// The device configuration every runtime is built from.
    pub cfg: DeviceConfig,
    /// The steps, replayed in order.
    pub steps: Vec<ChaosStep>,
}

/// What one runtime produced while replaying a script: a per-step log
/// (results, fired faults, site states) ending in a full replica
/// fingerprint, plus the final traffic counts. Two runs are equivalent iff
/// all fields are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// One line per step, then one fingerprint line per site.
    pub log: Vec<String>,
    /// Final §5 traffic counts.
    pub traffic: TrafficSnapshot,
    /// How many scheduled faults actually fired.
    pub faults_fired: u64,
    /// Successful reads checked against the oracle.
    pub reads_checked: u64,
}

/// Summary of a passing seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReport {
    /// Steps replayed (per runtime).
    pub steps: usize,
    /// Faults that fired (per runtime).
    pub faults_fired: u64,
    /// Successful reads checked against the oracle (per runtime).
    pub reads_checked: u64,
}

/// A failing seed, shrunk to a locally minimal schedule.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The seed that failed.
    pub seed: u64,
    /// The scheme under test.
    pub scheme: Scheme,
    /// Whether the failing run used journaled devices.
    pub journaled: bool,
    /// The (shrunk) failing schedule.
    pub steps: Vec<ChaosStep>,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos seed {} failed under {} ({} steps after shrinking):",
            self.seed,
            self.scheme,
            self.steps.len()
        )?;
        writeln!(f, "{}", format_schedule(&self.steps))?;
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for ChaosFailure {}

/// Renders a schedule as one line per step, for failure reports.
fn format_schedule(steps: &[ChaosStep]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, step) in steps.iter().enumerate() {
        let _ = write!(out, "  #{i:<3} {:?}", step.action);
        for &(x, kind) in &step.faults {
            let _ = write!(out, "  [x{x}:{kind}]");
        }
        out.push('\n');
    }
    out
}

/// Deterministically generates the chaos script for `(seed, scheme)`.
///
/// The geometry (3–5 sites, 2–4 blocks of 8 bytes) and the action mix are
/// drawn from the seed; faults are attached mostly to writes, with a few on
/// reads and repairs. Fill bytes are always nonzero so a zeroed block is
/// unambiguously "never written / scrubbed".
pub fn generate(seed: u64, scheme: Scheme, len: usize) -> ChaosScript {
    let mut rng = StdRng::seed_from_u64(seed ^ ((scheme as u64 + 1) << 32));
    let sites = rng.random_range(3usize..=5);
    let blocks = rng.random_range(2usize..=4);
    let cfg = DeviceConfig::builder(scheme)
        .sites(sites)
        .num_blocks(blocks as u64)
        .block_size(8)
        .build()
        .expect("chaos geometry is always valid");
    let site = |rng: &mut StdRng| SiteId::new(rng.random_range(0..sites as u32));
    let block = |rng: &mut StdRng| BlockIndex::new(rng.random_range(0..blocks as u64));
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let action = match rng.random_range(0u32..100) {
            0..=44 => Action::Write {
                origin: site(&mut rng),
                block: block(&mut rng),
                fill: rng.random_range(1u8..=255),
            },
            45..=69 => Action::Read {
                origin: site(&mut rng),
                block: block(&mut rng),
            },
            70..=84 => Action::Fail(site(&mut rng)),
            _ => Action::Repair(site(&mut rng)),
        };
        let fault_p = match action {
            Action::Write { .. } => 0.35,
            Action::Read { .. } | Action::Repair(_) => 0.15,
            Action::Fail(_) => 0.0, // fail-stop steps have no exchanges
        };
        let mut faults: Vec<(u64, FaultKind)> = Vec::new();
        if fault_p > 0.0 && rng.random_bool(fault_p) {
            let n = rng.random_range(1usize..=2);
            for _ in 0..n {
                // Exchanges per op are bounded by a few per remote site.
                let x = rng.random_range(0..3 * sites as u64);
                let kind = random_kind(&mut rng, scheme);
                if !faults.iter().any(|&(fx, _)| fx == x) {
                    faults.push((x, kind));
                }
            }
        }
        steps.push(ChaosStep { action, faults });
    }
    ChaosScript { cfg, steps }
}

fn random_kind(rng: &mut StdRng, scheme: Scheme) -> FaultKind {
    let message_faults_ok = scheme == Scheme::Voting;
    loop {
        let kind = match rng.random_range(0u32..100) {
            0..=19 => FaultKind::DropMessage,
            20..=29 => FaultKind::DelayMessage,
            30..=39 => FaultKind::DuplicateMessage,
            40..=59 => FaultKind::CrashCoordinator,
            60..=79 => FaultKind::CrashTarget,
            80..=89 => FaultKind::TornWrite {
                keep: rng.random_range(1usize..8),
            },
            _ => FaultKind::StaleVersion,
        };
        let in_model =
            message_faults_ok || !matches!(kind, FaultKind::DropMessage | FaultKind::DelayMessage);
        if in_model {
            return kind;
        }
    }
}

/// The per-block one-copy oracle.
///
/// `Exact(f)` asserts reads return exactly fill `f` (`None` = zeroes);
/// `Tainted` admits any member of the block's write history (plus zeroes) —
/// the strongest sound claim while interrupted writes are unresolved.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BlockOracle {
    Exact(Option<u8>),
    Tainted,
}

struct Oracle {
    scheme: Scheme,
    blocks: Vec<BlockOracle>,
    /// Every fill ever handed to a write of this block, plus `None`
    /// (zeroes: the formatted state, also the post-scrub state).
    seen: Vec<BTreeSet<Option<u8>>>,
    /// Whether an interrupted write may have left sites with *incomparable*
    /// version vectors. Voting never cares — its reads are per-block quorum
    /// decisions. The available copy schemes repair a whole site from a
    /// single "most current" source, which is only guaranteed current while
    /// the vectors form a dominance chain; once the chain may be broken, no
    /// block can be certified `Exact` for them until all replicas agree
    /// again.
    chain_broken: bool,
    /// Whether every site runs a write-ahead journal
    /// ([`DeviceConfig::journaled`]). Journaled sites replay the journal on
    /// restart, so a storage fault can never revert a block to zeroes and
    /// the admissible history collapses at every point of full agreement —
    /// the oracle certifies the strictly stronger durable-by-§3.2 contract.
    journaled: bool,
}

impl Oracle {
    fn new(scheme: Scheme, blocks: usize, journaled: bool) -> Oracle {
        Oracle {
            scheme,
            blocks: vec![BlockOracle::Exact(None); blocks],
            seen: vec![BTreeSet::from([None]); blocks],
            chain_broken: false,
            journaled,
        }
    }

    fn record_write(&mut self, b: usize, fill: u8, ok: bool, report: &OpReport) {
        self.seen[b].insert(Some(fill));
        let effective = report.fired.iter().any(|f| !f.kind.is_benign());
        if effective {
            if report.fired.iter().any(|f| f.kind.is_storage()) && !self.journaled {
                // The torn/stale block is scrubbed to zeroes on restart.
                // A journaled site instead replays the write from its
                // journal after the scrub, so zeroes never become
                // admissible there.
                self.seen[b].insert(None);
            }
            self.blocks[b] = BlockOracle::Tainted;
            if self.scheme != Scheme::Voting {
                self.chain_broken = true;
                for blk in &mut self.blocks {
                    *blk = BlockOracle::Tainted;
                }
            }
        } else if ok {
            self.blocks[b] = if self.chain_broken {
                BlockOracle::Tainted
            } else {
                BlockOracle::Exact(Some(fill))
            };
        }
    }

    /// Checks a successful read of block `b` that returned `data`.
    fn check_read(&self, op: usize, b: usize, data: &BlockData) -> Result<(), String> {
        let bytes = data.as_slice();
        let first = bytes.first().copied().unwrap_or(0);
        if !bytes.iter().all(|&x| x == first) {
            return Err(format!(
                "op {op}: read of block {b} returned mixed bytes {bytes:02x?} — \
                 a torn write leaked into a served read"
            ));
        }
        let observed = if first == 0 { None } else { Some(first) };
        match &self.blocks[b] {
            BlockOracle::Exact(f) if observed != *f => Err(format!(
                "op {op}: one-copy violation on block {b}: read {observed:?}, \
                 oracle says exactly {f:?}"
            )),
            BlockOracle::Tainted if !self.seen[b].contains(&observed) => Err(format!(
                "op {op}: read of block {b} returned {observed:?}, which was \
                 never written (history {:?})",
                self.seen[b]
            )),
            _ => Ok(()),
        }
    }

    /// If every site agrees on every block (same version, same uniform
    /// data), the replicas are indistinguishable from a fresh device plus
    /// clean writes: re-certify everything `Exact` and re-arm the chain.
    fn try_narrow<T: Transport>(&mut self, rt: &ServerCluster<T>) {
        if !self.blocks.contains(&BlockOracle::Tainted) {
            return;
        }
        let ks: Vec<BlockIndex> = BlockIndex::all(self.blocks.len() as u64).collect();
        let mut copies = rt.config().site_ids().map(|s| rt.fetch_many(s, s, &ks));
        let Some(Some(agreed)) = copies.next() else {
            return;
        };
        if copies.any(|copy| copy.as_ref() != Some(&agreed)) {
            return; // disagreement: taint stands
        }
        let mut exact = Vec::with_capacity(self.blocks.len());
        for (_, data) in agreed.iter() {
            let bytes = data.as_slice();
            let first = bytes.first().copied().unwrap_or(0);
            if !bytes.iter().all(|&x| x == first) {
                return; // uniformly torn everywhere: keep the taint
            }
            exact.push(if first == 0 { None } else { Some(first) });
        }
        for ((blk, hist), fill) in self.blocks.iter_mut().zip(&mut self.seen).zip(exact) {
            *blk = BlockOracle::Exact(fill);
            if self.journaled {
                // Durable-by-§3.2: journal replay is monotone in version
                // number, so once every replica agrees a block can never
                // revert past the agreed state — the admissible history
                // collapses to the point of agreement.
                hist.clear();
                hist.insert(fill);
            }
        }
        self.chain_broken = false;
    }
}

/// Certifies a **clean** (fault-free) successful write directly against
/// the scheme's replication contract, catching protocol bugs at the write
/// instead of waiting for a read to trip over them:
///
/// * voting — the sites *actually holding* the new value must carry a
///   write quorum of weight, and so must the operational sites (a write
///   that succeeds without a live write quorum is exactly the bug a
///   weakened `voting.rs` check introduces);
/// * available copy schemes — every available site must hold the value
///   ("write to all available copies" admits no exceptions).
fn certify_clean_write<T: Transport>(
    rt: &ServerCluster<T>,
    op: usize,
    k: BlockIndex,
    fill: u8,
) -> Result<(), String> {
    let cfg = rt.config();
    let holds = |s: SiteId| {
        rt.fetch_block(s, s, k)
            .is_some_and(|(_, data)| data.as_slice().iter().all(|&x| x == fill))
    };
    match cfg.scheme() {
        Scheme::Voting => {
            let holders: Vec<SiteId> = cfg.site_ids().filter(|&s| holds(s)).collect();
            let holder_weight = crate::backend::weight_of(cfg, &holders);
            if holder_weight < cfg.write_quorum() {
                return Err(format!(
                    "op {op}: write of block {k} committed on weight {holder_weight} \
                     (sites {holders:?}), below the write quorum {}",
                    cfg.write_quorum()
                ));
            }
            let live_weight = crate::backend::operational_weight(rt);
            if live_weight < cfg.write_quorum() {
                return Err(format!(
                    "op {op}: write of block {k} succeeded while only weight \
                     {live_weight} was operational — no write quorum existed"
                ));
            }
        }
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => {
            for s in cfg.site_ids() {
                if rt.site_state(s) == SiteState::Available && !holds(s) {
                    return Err(format!(
                        "op {op}: available site {s} missed the write of block {k} \
                         (fill {fill:#04x})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Certifies a clean successful voting read: the operational sites must
/// carry a read quorum, or the read should have been refused.
fn certify_clean_read<T: Transport>(
    rt: &ServerCluster<T>,
    op: usize,
    k: BlockIndex,
) -> Result<(), String> {
    let cfg = rt.config();
    if cfg.scheme() != Scheme::Voting {
        return Ok(());
    }
    let live_weight = crate::backend::operational_weight(rt);
    if live_weight < cfg.read_quorum() {
        return Err(format!(
            "op {op}: read of block {k} succeeded while only weight {live_weight} \
             was operational — no read quorum existed"
        ));
    }
    Ok(())
}

/// Ends the operation under way on `rt` and makes its mid-operation
/// crashes real: fail-stops each crashed site through the scheme's own
/// failure handling, in the same order the runtime's `fail_site` uses.
/// Every runtime derives reachability from the one link model, so that is
/// all it takes.
fn end_op<T: Transport>(rt: &ServerCluster<Faulty<T>>) -> OpReport {
    let report = rt.end_op();
    for &s in &report.crashed {
        if rt.site_state(s).is_operational() {
            protocol::fail(rt, s);
        }
    }
    report
}

fn fired_suffix(report: &OpReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in &report.fired {
        let _ = write!(out, " [{f}]");
    }
    for &s in &report.crashed {
        let _ = write!(out, " +crash:{s}");
    }
    out
}

fn states_suffix<T: Transport>(rt: &ServerCluster<T>) -> String {
    rt.config()
        .site_ids()
        .map(|s| match rt.site_state(s) {
            SiteState::Available => 'A',
            SiteState::Comatose => 'C',
            SiteState::Failed => 'F',
        })
        .collect()
}

/// Site `s`'s line of a run's final fingerprint: its state, its
/// was-available set, and its copy of each block of `ks`, read in one
/// local request.
fn site_fingerprint<T: Transport>(rt: &ServerCluster<T>, s: SiteId, ks: &[BlockIndex]) -> String {
    use std::fmt::Write as _;
    let w = rt.was_available(s, s).expect("a site reads its own W");
    let w: Vec<u32> = w.iter().map(|x| x.as_u32()).collect();
    let mut line = format!("site {s}: {:?} W={w:?}", rt.site_state(s));
    let blocks = rt.fetch_many(s, s, ks).expect("a site reads its own disk");
    for (k, (v, data)) in ks.iter().zip(blocks.iter()) {
        let _ = write!(line, " {k}=v{}:{:02x?}", v.as_u64(), data.as_slice());
    }
    line
}

/// Replays `steps` on one runtime, under its fault layer, maintaining the
/// oracle. Returns the run's outcome for parity comparison, or the first
/// oracle violation.
#[allow(private_bounds)]
pub fn run_on<T: Transport>(
    rt: &ServerCluster<Faulty<T>>,
    steps: &[ChaosStep],
) -> Result<RunOutcome, String> {
    let cfg = rt.config().clone();
    let mut oracle = Oracle::new(cfg.scheme(), cfg.num_blocks() as usize, cfg.journaled());
    let mut log = Vec::with_capacity(steps.len());
    let mut faults_fired = 0u64;
    let mut reads_checked = 0u64;
    for (op, step) in steps.iter().enumerate() {
        rt.begin_op(op as u64, &step.faults);
        let mut line = match step.action {
            Action::Write {
                origin,
                block,
                fill,
            } => {
                let data = BlockData::from(vec![fill; cfg.block_size()]);
                let res = rt.write(origin, block, data);
                let report = end_op(rt);
                oracle.record_write(block.index(), fill, res.is_ok(), &report);
                if res.is_ok() && report.fired.iter().all(|f| f.kind.is_benign()) {
                    certify_clean_write(rt, op, block, fill)?;
                }
                let outcome = match &res {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("err({e})"),
                };
                faults_fired += report.fired.len() as u64;
                format!(
                    "#{op} write {origin} {block} fill={fill:#04x} -> {outcome}{}",
                    fired_suffix(&report)
                )
            }
            Action::Read { origin, block } => {
                let res = rt.read(origin, block);
                let report = end_op(rt);
                let outcome = match &res {
                    Ok(data) => {
                        // A coordinator that crashed mid-read may have
                        // assembled its answer from a dead site; skip the
                        // oracle for an answer nobody received.
                        if !report.crashed.contains(&origin) {
                            oracle.check_read(op, block.index(), data)?;
                            if report.fired.iter().all(|f| f.kind.is_benign()) {
                                certify_clean_read(rt, op, block)?;
                            }
                            reads_checked += 1;
                        }
                        format!("ok({:02x?})", data.as_slice())
                    }
                    Err(e) => format!("err({e})"),
                };
                faults_fired += report.fired.len() as u64;
                format!(
                    "#{op} read {origin} {block} -> {outcome}{}",
                    fired_suffix(&report)
                )
            }
            Action::Fail(s) => {
                let _ = rt.end_op();
                let did = if rt.site_state(s).is_operational() {
                    protocol::fail(rt, s);
                    "failed"
                } else {
                    "already-down"
                };
                format!("#{op} fail {s} -> {did}")
            }
            Action::Repair(s) => {
                let outcome = match rt.site_state(s) {
                    SiteState::Failed => {
                        let scrubbed = rt.scrub_local(s);
                        protocol::repair(rt, s);
                        format!("restarted scrubbed={scrubbed}")
                    }
                    SiteState::Comatose => {
                        protocol::sweep(rt);
                        "swept".to_string()
                    }
                    SiteState::Available => "already-up".to_string(),
                };
                let report = end_op(rt);
                faults_fired += report.fired.len() as u64;
                format!("#{op} repair {s} -> {outcome}{}", fired_suffix(&report))
            }
        };
        line.push_str(" |");
        line.push_str(&states_suffix(rt));
        log.push(line);
        oracle.try_narrow(rt);
    }
    let ks: Vec<BlockIndex> = BlockIndex::all(cfg.num_blocks()).collect();
    log.extend(cfg.site_ids().map(|s| site_fingerprint(rt, s, &ks)));
    Ok(RunOutcome {
        log,
        traffic: rt.counter().snapshot(),
        faults_fired,
        reads_checked,
    })
}

fn run_caught<T>(
    name: &'static str,
    run: impl FnOnce() -> Result<T, String> + std::panic::UnwindSafe,
) -> Result<T, String> {
    match catch_unwind(run) {
        Ok(res) => res.map_err(|e| format!("[{name}] {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("[{name}] panicked: {msg}"))
        }
    }
}

/// Replays `steps` on all three runtimes and checks both the oracle and
/// cross-runtime parity. Returns the first discrepancy as an error; panics
/// in any runtime's replay are caught and reported the same way.
pub fn check(cfg: &DeviceConfig, steps: &[ChaosStep]) -> Result<ChaosReport, String> {
    let det = run_caught("deterministic", || {
        let rt = Cluster::new(cfg.clone(), ClusterOptions::default());
        run_on(&rt.with_faults(), steps)
    })?;
    let live = run_caught("live", || {
        let rt = LiveCluster::spawn(cfg.clone(), DeliveryMode::Multicast);
        run_on(&rt.with_faults(), steps)
    })?;
    let tcp = run_caught("tcp", || {
        let rt = TcpCluster::spawn(cfg.clone(), DeliveryMode::Multicast)
            .map_err(|e| format!("tcp spawn failed: {e}"))?;
        run_on(&rt.with_faults(), steps)
    })?;
    for (name, other) in [("live", &live), ("tcp", &tcp)] {
        if let Some(divergence) = diverges(&det, other) {
            return Err(format!(
                "runtime parity broken (deterministic vs {name}): {divergence}"
            ));
        }
    }
    Ok(ChaosReport {
        steps: steps.len(),
        faults_fired: det.faults_fired,
        reads_checked: det.reads_checked,
    })
}

/// The first line at which two step logs differ, or their lengths.
fn log_diverges(a: &[String], b: &[String]) -> Option<String> {
    for (i, (la, lb)) in a.iter().zip(b).enumerate() {
        if la != lb {
            return Some(format!("log line {i}:\n  a: {la}\n  b: {lb}"));
        }
    }
    if a.len() != b.len() {
        return Some(format!("log length {} vs {}", a.len(), b.len()));
    }
    None
}

fn diverges(a: &RunOutcome, b: &RunOutcome) -> Option<String> {
    if let Some(divergence) = log_diverges(&a.log, &b.log) {
        return Some(divergence);
    }
    if a.faults_fired != b.faults_fired {
        return Some(format!(
            "fired fault count {} vs {}",
            a.faults_fired, b.faults_fired
        ));
    }
    if a.traffic != b.traffic {
        return Some(format!(
            "traffic counts differ:\n  a: {}\n  b: {}",
            a.traffic, b.traffic
        ));
    }
    None
}

/// Shrinks a failing schedule: delta-debugging over chunks of steps, then
/// removal of individual faults, until locally minimal. Every candidate is
/// re-checked on all three runtimes ([`check`] reports runtime panics as
/// failures, so panicking schedules shrink too).
fn shrink(cfg: &DeviceConfig, mut steps: Vec<ChaosStep>) -> Vec<ChaosStep> {
    let fails = |candidate: &[ChaosStep]| !candidate.is_empty() && check(cfg, candidate).is_err();
    // Pass 1: remove chunks of steps, halving the chunk size.
    let mut chunk = steps.len().div_ceil(2).max(1);
    loop {
        let mut i = 0;
        while i < steps.len() {
            let mut candidate = steps.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            if fails(&candidate) {
                steps = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = chunk.div_ceil(2);
    }
    // Pass 2: drop individual faults.
    for i in 0..steps.len() {
        let mut j = 0;
        while j < steps[i].faults.len() {
            let mut candidate = steps.clone();
            candidate[i].faults.remove(j);
            if fails(&candidate) {
                steps = candidate;
            } else {
                j += 1;
            }
        }
    }
    steps
}

/// Generates, replays and cross-checks one seed; on failure, shrinks the
/// schedule and returns it for replay.
///
/// With `journaled`, every site runs on a journaled device
/// ([`DeviceConfig::journaled`]). The flag is applied *after* generation,
/// so journaled and unjournaled runs of the same seed replay the identical
/// schedule — only the durability machinery (and the correspondingly
/// stricter oracle) differs.
///
/// # Errors
///
/// A [`ChaosFailure`] carrying the shrunk schedule and the diagnostic of
/// the minimal failure.
pub fn run_seed(
    seed: u64,
    scheme: Scheme,
    len: usize,
    journaled: bool,
) -> Result<ChaosReport, Box<ChaosFailure>> {
    let mut script = generate(seed, scheme, len);
    script.cfg.set_journaled(journaled);
    let detail = match check(&script.cfg, &script.steps) {
        Ok(report) => return Ok(report),
        Err(detail) => detail,
    };
    let steps = shrink(&script.cfg, script.steps);
    let detail = check(&script.cfg, &steps).err().unwrap_or(detail);
    Err(Box::new(ChaosFailure {
        seed,
        scheme,
        journaled,
        steps,
        detail,
    }))
}

/// The flight-recorder dump of a schedule: replays `steps` on the
/// deterministic runtime, in the geometry `(seed, scheme)` generates and
/// journaled if `journaled`, with tracing enabled, and returns the causal
/// trace as Chrome trace-event JSON. Previous recorder contents are
/// cleared first; the global tracing flags are restored to their prior
/// values afterwards.
///
/// A failure's post-mortem passes its seed, scheme, journal flag and
/// shrunk schedule, so the dump replays exactly the configuration that
/// failed. A replay that panics (as the original failure may well do) is
/// caught: the dump carries every span the recorder captured up to the
/// crash, which is the whole point.
pub fn trace_schedule(seed: u64, scheme: Scheme, journaled: bool, steps: &[ChaosStep]) -> String {
    use blockrep_obs::trace;
    let mut cfg = generate(seed, scheme, 0).cfg;
    cfg.set_journaled(journaled);
    let was_obs = blockrep_obs::enabled();
    let was_tracing = trace::enabled();
    trace::enable();
    trace::clear();
    let steps = steps.to_vec();
    let _ = run_caught("trace-replay", move || {
        let rt = Cluster::new(cfg, ClusterOptions::default());
        run_on(&rt.with_faults(), &steps)
    });
    let records = trace::snapshot();
    if !was_tracing {
        trace::disable();
    }
    if !was_obs {
        blockrep_obs::disable();
    }
    trace::chrome_trace_json(&records)
}

// ---------------------------------------------------------------------------
// Shard-targeted fault scenarios
// ---------------------------------------------------------------------------

/// What one runtime produced replaying the shard fault scenarios: a step
/// log ending in per-shard traffic and replica fingerprints. Two runs are
/// equivalent iff the logs and counts are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRunOutcome {
    /// One line per scenario step, then per-shard traffic and fingerprints.
    pub log: Vec<String>,
    /// Successful reads checked against the per-shard oracles.
    pub reads_checked: u64,
}

/// Summary of a passing shard-scenario replay (identical per runtime).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardChaosReport {
    /// Shards in the device under test.
    pub shards: usize,
    /// Scenario steps replayed (per runtime).
    pub steps: usize,
    /// Successful reads checked against the per-shard oracles.
    pub reads_checked: u64,
}

/// The fixed geometry the shard scenarios run on: 3-site shards, eight
/// 8-byte blocks per shard in 2-block placement groups, so every batch
/// over the full address space is a genuine cross-shard batch.
fn shard_scenario_spec(scheme: Scheme, shards: usize, journaled: bool) -> ShardSpec {
    ShardSpec {
        sites_per_shard: 3,
        block_size: 8,
        group_size: 2,
        journaled,
        ..ShardSpec::new(scheme, shards, 8 * shards as u64)
    }
}

/// A device of `spec`'s geometry whose every shard is a cluster `spawn`
/// builds from the shard configuration, under a fault layer of its own.
fn faulty_shards<T: Transport>(
    spec: &ShardSpec,
    spawn: impl Fn(DeviceConfig) -> Result<ServerCluster<T>, String>,
) -> Result<ReliableDevice<ServerCluster<Faulty<T>>>, String> {
    let shards = (0..spec.shards)
        .map(|_| {
            let cfg = spec.shard_config().map_err(|e| e.to_string())?;
            Ok(Arc::new(spawn(cfg)?.with_faults()))
        })
        .collect::<Result<_, String>>()?;
    let manifest = spec.manifest().map_err(|e| e.to_string())?;
    Ok(ReliableDevice::sharded(shards, manifest, SiteId::new(0)))
}

/// Replays the two shard-targeted fault scenarios of the chaos suite on
/// one runtime family:
///
/// 1. **Shard blackout** — every site of one shard (the one owning block
///    0) fail-stops; a cross-shard write must fail that shard's sub-batch
///    while every other shard commits, reads of the surviving shards must
///    still serve, and after the shard is repaired its replicas must hold
///    exactly the pre-blackout contents (the failed sub-batch left no
///    trace).
/// 2. **Torn write mid cross-shard batch** — a [`FaultKind::TornWrite`]
///    lands on one shard's first install exchange during a cross-shard
///    batch; the victim shard's one-copy oracle degrades to history
///    membership (and must never see a byte-mix), the other shards stay
///    `Exact`, and a repair plus one clean write re-certifies everything.
///
/// The per-shard oracle is the same [`Oracle`] the seeded runs use, one
/// instance per shard over the shard's owned blocks. All protocol traffic
/// flows through each shard's fault layer (sequential scatter, pinned
/// exchange coordinates), so the log — including per-shard §5 traffic — is
/// byte-identical across runtimes.
#[allow(private_bounds)]
pub fn run_shard_scenarios_on<T: Transport>(
    dev: &ReliableDevice<ServerCluster<Faulty<T>>>,
) -> Result<ShardRunOutcome, String> {
    use blockrep_storage::BlockDevice as _;
    use std::fmt::Write as _;

    let manifest = dev.manifest().clone();
    let raw = dev.shard_backends();
    let cfg = raw[0].config().clone();
    let blocks = cfg.num_blocks();
    let all: Vec<BlockIndex> = (0..blocks).map(BlockIndex::new).collect();
    let victim = manifest.shard_of(BlockIndex::new(0));
    let (victim_blocks, healthy_blocks): (Vec<BlockIndex>, Vec<BlockIndex>) =
        all.iter().partition(|&&k| manifest.shard_of(k) == victim);
    if healthy_blocks.is_empty() {
        return Err(format!(
            "degenerate placement: shard {victim} owns every block of the scenario geometry"
        ));
    }

    // The torn install lands on the first *install* exchange of the victim
    // shard's batched write: voting spends one vote exchange per remote
    // site first, the available copy schemes install immediately.
    let torn_op = 7u64;
    let torn_x = match cfg.scheme() {
        Scheme::Voting => cfg.num_sites() as u64 - 1,
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => 0,
    };
    let torn = [(torn_x, FaultKind::TornWrite { keep: 3 })];

    let mut oracles: Vec<Oracle> = (0..manifest.shard_count())
        .map(|_| Oracle::new(cfg.scheme(), blocks as usize, cfg.journaled()))
        .collect();
    let mut out = ShardRunOutcome {
        log: Vec::new(),
        reads_checked: 0,
    };

    let begin = |op: u64| {
        for (i, b) in raw.iter().enumerate() {
            let torn_here = (i, op) == (victim, torn_op);
            b.begin_op(op, if torn_here { &torn } else { &[] });
        }
    };
    let end_all = || -> Vec<OpReport> { raw.iter().map(|b| end_op(b)).collect() };
    let states = || -> String {
        let each: Vec<String> = raw.iter().map(|b| states_suffix(&**b)).collect();
        each.join("/")
    };
    let batch = |fill: u8, ks: &[BlockIndex]| -> Vec<(BlockIndex, BlockData)> {
        ks.iter()
            .map(|&k| (k, BlockData::from(vec![fill; cfg.block_size()])))
            .collect()
    };

    // A cross-shard write over every block; `expect_victim_commit` says
    // whether the victim shard's sub-batch is expected to land (it is
    // recorded failed otherwise, which keeps its oracle at the previous
    // exact value).
    let write_all = |op: u64,
                     fill: u8,
                     expect_victim_commit: bool,
                     log: &mut Vec<String>,
                     oracles: &mut Vec<Oracle>|
     -> Result<(), String> {
        begin(op);
        let res = dev.write_blocks(&batch(fill, &all));
        let reports = end_all();
        let outcome = match &res {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("err({e})"),
        };
        // The device-level result tells whether the victim's sub-batch
        // landed: in these scenarios the healthy shards always commit, so
        // the batch fails exactly when the victim was expected to fail.
        if res.is_ok() != expect_victim_commit {
            return Err(format!(
                "op {op}: write-all was expected to {} the victim sub-batch but \
                 returned {outcome}",
                if expect_victim_commit {
                    "commit"
                } else {
                    "fail"
                }
            ));
        }
        let committed = |s: usize| s != victim || expect_victim_commit;
        for &k in &all {
            let s = manifest.shard_of(k);
            oracles[s].record_write(k.index(), fill, committed(s), &reports[s]);
        }
        // Clean committed sub-batches must satisfy the scheme's replication
        // contract on their own shard.
        for (i, report) in reports.iter().enumerate() {
            if committed(i) && report.fired.iter().all(|f| f.kind.is_benign()) {
                for &k in &all {
                    if manifest.shard_of(k) == i {
                        certify_clean_write(&*raw[i], op as usize, k, fill)?;
                    }
                }
            }
        }
        let mut line = format!("#{op} write-all fill={fill:#04x} -> {outcome}");
        for report in &reports {
            line.push_str(&fired_suffix(report));
        }
        let _ = write!(line, " |{}", states());
        log.push(line);
        for (i, oracle) in oracles.iter_mut().enumerate() {
            oracle.try_narrow(&*raw[i]);
        }
        Ok(())
    };

    let read_some = |op: u64,
                     label: &str,
                     ks: &[BlockIndex],
                     expect_ok: bool,
                     out: &mut ShardRunOutcome,
                     oracles: &Vec<Oracle>|
     -> Result<(), String> {
        begin(op);
        let res = dev.read_blocks(ks);
        let _ = end_all();
        let outcome = match &res {
            Ok(data) => {
                for (&k, d) in ks.iter().zip(data) {
                    oracles[manifest.shard_of(k)].check_read(op as usize, k.index(), d)?;
                    out.reads_checked += 1;
                }
                "ok".to_string()
            }
            Err(e) => format!("err({e})"),
        };
        if res.is_ok() != expect_ok {
            return Err(format!(
                "op {op}: {label} read was expected to {} but did not ({outcome})",
                if expect_ok { "succeed" } else { "fail" }
            ));
        }
        out.log
            .push(format!("#{op} read-{label} -> {outcome} |{}", states()));
        Ok(())
    };

    // Scrubs and repairs every failed site of the victim shard, then
    // sweeps until none is comatose: the available copy schemes may need a
    // sweep per site before the closure admits the shard back.
    let repair_victim = |op: u64, label: &str, log: &mut Vec<String>, oracles: &mut Vec<Oracle>| {
        for s in raw[victim].config().site_ids() {
            if raw[victim].site_state(s) == SiteState::Failed {
                let _ = raw[victim].scrub_local(s);
                begin(op);
                protocol::repair(&*raw[victim], s);
                let _ = end_all();
            }
        }
        let mut sweeps = 0usize;
        while raw[victim]
            .config()
            .site_ids()
            .any(|s| raw[victim].site_state(s) == SiteState::Comatose)
            && sweeps < cfg.num_sites()
        {
            begin(op);
            protocol::sweep(&*raw[victim]);
            let _ = end_all();
            sweeps += 1;
        }
        log.push(format!(
            "#{op} {label} {victim} sweeps={sweeps} -> |{}",
            states()
        ));
        for (i, oracle) in oracles.iter_mut().enumerate() {
            oracle.try_narrow(&*raw[i]);
        }
    };

    // --- Scenario 1: shard blackout -------------------------------------
    write_all(0, 0x11, true, &mut out.log, &mut oracles)?;

    // #1: fail-stop every site of the victim shard.
    for s in raw[victim].config().site_ids() {
        protocol::fail(&*raw[victim], s);
    }
    out.log.push(format!(
        "#1 crash-shard {victim} -> all sites failed |{}",
        states()
    ));

    // #2: the cross-shard write must fail the victim's sub-batch only.
    write_all(2, 0x22, false, &mut out.log, &mut oracles)?;
    // The dead shard's replicas must be untouched by the failed sub-batch.
    for s in raw[victim].config().site_ids() {
        for &k in &victim_blocks {
            let (_, data) = raw[victim]
                .fetch_block(s, s, k)
                .ok_or_else(|| format!("op 2: victim site {s} lost block {k} entirely"))?;
            if !data.as_slice().iter().all(|&x| x == 0x11) {
                return Err(format!(
                    "op 2: failed sub-batch corrupted shard {victim}: site {s} block {k} \
                     holds {:02x?}, expected the pre-blackout fill 0x11",
                    data.as_slice()
                ));
            }
        }
    }

    read_some(3, "healthy", &healthy_blocks, true, &mut out, &oracles)?;
    read_some(4, "all", &all, false, &mut out, &oracles)?;

    // #5: repair the victim shard.
    repair_victim(5, "repair-shard", &mut out.log, &mut oracles);

    // #6: healed — the victim serves its pre-blackout contents, the
    // healthy shards their post-blackout ones.
    read_some(6, "healed", &all, true, &mut out, &oracles)?;

    // --- Scenario 2: torn write mid cross-shard batch --------------------
    write_all(torn_op, 0x44, true, &mut out.log, &mut oracles)?;
    read_some(8, "post-torn", &all, true, &mut out, &oracles)?;

    // #9: repair whatever the torn install crashed.
    repair_victim(9, "repair-torn shard", &mut out.log, &mut oracles);

    // #10–#11: one clean write re-certifies every shard `Exact`.
    write_all(10, 0x55, true, &mut out.log, &mut oracles)?;
    read_some(11, "final", &all, true, &mut out, &oracles)?;

    // Final per-shard traffic and replica fingerprints (owned blocks).
    for (i, b) in raw.iter().enumerate() {
        let log = &mut out.log;
        log.push(format!("shard {i} traffic {}", b.counter().snapshot()));
        let owned: Vec<BlockIndex> = all
            .iter()
            .copied()
            .filter(|&k| manifest.shard_of(k) == i)
            .collect();
        for s in b.config().site_ids() {
            log.push(format!("shard {i} {}", site_fingerprint(b, s, &owned)));
        }
    }

    Ok(out)
}

fn shard_diverges(a: &ShardRunOutcome, b: &ShardRunOutcome) -> Option<String> {
    if let Some(divergence) = log_diverges(&a.log, &b.log) {
        return Some(divergence);
    }
    if a.reads_checked != b.reads_checked {
        return Some(format!(
            "reads checked {} vs {}",
            a.reads_checked, b.reads_checked
        ));
    }
    None
}

/// Replays the shard fault scenarios on all three runtimes over a
/// `shards`-shard device and checks both the per-shard one-copy oracles
/// and cross-runtime parity (step logs, per-shard §5 traffic, replica
/// fingerprints). Returns the first discrepancy as an error.
pub fn check_shards(
    scheme: Scheme,
    shards: usize,
    journaled: bool,
) -> Result<ShardChaosReport, String> {
    if shards < 2 {
        return Err("the shard scenarios need at least 2 shards".to_string());
    }
    let spec = shard_scenario_spec(scheme, shards, journaled);
    let mode = DeliveryMode::Multicast;
    let spawn_failed = |e: String| format!("spawn failed: {e}");
    let det = run_caught("deterministic", || {
        let options = ClusterOptions { mode };
        let dev =
            faulty_shards(&spec, |cfg| Ok(Cluster::new(cfg, options))).map_err(spawn_failed)?;
        run_shard_scenarios_on(&dev)
    })?;
    let live = run_caught("live", || {
        let dev =
            faulty_shards(&spec, |cfg| Ok(LiveCluster::spawn(cfg, mode))).map_err(spawn_failed)?;
        run_shard_scenarios_on(&dev)
    })?;
    let tcp = run_caught("tcp", || {
        let dev = faulty_shards(&spec, |cfg| {
            TcpCluster::spawn(cfg, mode).map_err(|e| e.to_string())
        })
        .map_err(spawn_failed)?;
        run_shard_scenarios_on(&dev)
    })?;
    for (name, other) in [("live", &live), ("tcp", &tcp)] {
        if let Some(divergence) = shard_diverges(&det, other) {
            return Err(format!(
                "shard runtime parity broken (deterministic vs {name}): {divergence}"
            ));
        }
    }
    Ok(ShardChaosReport {
        shards,
        steps: det.log.len(),
        reads_checked: det.reads_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_scenarios_pass_on_all_runtimes_for_every_scheme() {
        for scheme in Scheme::ALL {
            let report = check_shards(scheme, 2, false).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            assert_eq!(report.shards, 2);
            assert!(report.reads_checked > 0, "{scheme}: no reads checked");
        }
    }

    #[test]
    fn shard_scenarios_pass_journaled_and_wider() {
        let report = check_shards(Scheme::Voting, 2, true).unwrap();
        assert!(report.reads_checked > 0);
        let report = check_shards(Scheme::Voting, 4, false).unwrap();
        assert_eq!(report.shards, 4);
    }

    #[test]
    fn check_shards_rejects_a_single_shard() {
        assert!(check_shards(Scheme::Voting, 1, false).is_err());
    }
}
