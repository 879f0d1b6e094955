//! Bounded exhaustive model checking: every sequence of reads, writes,
//! failures and repairs on a tiny device, for every scheme. This is the
//! one sequential one-copy oracle.
//!
//! The explorer takes a 2-block device on 1–5 sites and enumerates the
//! *complete* tree of action sequences up to a depth bound, with zero
//! randomness. Histories that reach the same state are explored once
//! (see [`digest`]). After every action it checks that
//!
//! * all structural protocol invariants hold (`core::audit`),
//! * no site's version of a block went down, except a repair rolling back
//!   a write only the repaired site holds (an orphan, DESIGN.md §5),
//! * a read of every block from every site, in turn, on a fork of the
//!   state, returns what the one-copy [`Model`] admits, and
//! * the scheme's availability predicate matches ground truth (a quorum
//!   of operational weight for voting; under the available copy family,
//!   exactly when an available copy exists).
//!
//! Only `Read` actions change the explored state and the model by reading:
//! the per-step reads run on a fork, so a voting read's refresh of a stale
//! copy never hides that copy from the steps after it.
//!
//! Two blocks are enough: blocks interact only through what a site keeps
//! for all of them at once — its state, its was-available set and a
//! repair that copies every block it missed — and two blocks already give
//! a site one block it missed beside one it holds.
//!
//! `CrashWrite` is a write whose coordinator crashes at one of the remote
//! exchanges it reaches, through the fault layer (`Faulty` with
//! `FaultKind::CrashCoordinator`). The protocols assume a write's fan-out
//! is atomic, and a crash breaks that at depth 2 on every scheme:
//! [`a_crashed_coordinator_breaks_the_atomic_fan_out_assumption`] pins
//! exactly how, and the main runs leave the action out.

use blockrep::core::fault::FaultKind;
use blockrep::core::{audit, Cluster, ClusterOptions};
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId, SiteState};
use std::collections::{BTreeMap, HashMap};

const BLOCKS: usize = 2;
const BLOCK_SIZE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Fail(u32),
    Repair(u32),
    Write(u32, u64),
    Read(u32, u64),
    /// A write whose coordinator crashes at its `k`-th remote exchange.
    CrashWrite(u32, u64, u64),
}

/// Which of the enabled actions an exploration takes.
type Moves = fn(&Action) -> bool;

/// Everything the paper's model allows: fail-stop sites between
/// operations.
fn fail_stop(action: &Action) -> bool {
    !matches!(action, Action::CrashWrite(..))
}

/// The one-copy model: per block, the last committed fill (0: never
/// written) and the fills of crashed writes no read has observed yet.
///
/// A crashed write is *pending*: any later read may observe it. A read that
/// does commits it and retires the other pending writes of its block, so
/// no later read may go back. A successful write commits its fill and
/// retires every pending one.
#[derive(Debug, Clone)]
struct Model {
    committed: [u8; BLOCKS],
    pending: [Vec<u8>; BLOCKS],
    next_fill: u8,
}

impl Model {
    fn new() -> Model {
        Model {
            committed: [0; BLOCKS],
            pending: Default::default(),
            next_fill: 1,
        }
    }

    /// A fill no replica holds yet.
    fn fresh_fill(&mut self) -> u8 {
        let fill = self.next_fill;
        self.next_fill += 1;
        fill
    }

    fn commit(&mut self, b: usize, fill: u8) {
        self.committed[b] = fill;
        self.pending[b].clear();
    }

    /// A successful read of block `b` returned `data`: admitted if it is
    /// the committed fill or a pending one, which it then commits.
    fn observe(&mut self, b: usize, data: &BlockData) -> Result<(), String> {
        let bytes = data.as_slice();
        let fill = bytes[0];
        if bytes.iter().any(|&x| x != fill) {
            return Err(format!("b{b} read mixed bytes {bytes:?}"));
        }
        if fill == self.committed[b] {
            return Ok(());
        }
        if self.pending[b].contains(&fill) {
            self.commit(b, fill);
            return Ok(());
        }
        Err(format!(
            "b{b} read {fill}, committed {}, pending {:?}",
            self.committed[b], self.pending[b]
        ))
    }
}

fn site(i: u32) -> SiteId {
    SiteId::new(i)
}

fn blocks() -> [BlockIndex; BLOCKS] {
    [BlockIndex::new(0), BlockIndex::new(1)]
}

/// Every site's version of every block.
fn versions(c: &Cluster) -> Vec<[u64; BLOCKS]> {
    c.config()
        .site_ids()
        .map(|s| blocks().map(|k| c.version_of(s, k).as_u64()))
        .collect()
}

/// The state's key: site states, was-available sets, every replica's
/// `(version, data)` of every block, and the model's committed and pending
/// fills. Fills are renamed in order of first appearance (zeroes stay
/// zero), so histories that differ only in which fresh fill each write
/// used share one key. Nothing else tells two states apart: a fresh fill
/// equals no fill in either, and the protocols only compare data.
fn digest(c: &Cluster, model: &Model) -> Vec<u8> {
    let mut names = [0u8; 256];
    let mut next = 0u8;
    let mut rename = |fill: u8| {
        if fill != 0 && names[fill as usize] == 0 {
            next += 1;
            names[fill as usize] = next;
        }
        names[fill as usize]
    };
    let mut key = Vec::new();
    for s in c.config().site_ids() {
        key.push(c.site_state(s) as u8);
        let w = c.was_available(s, s).expect("a site reads its own W");
        key.push(w.iter().fold(0, |mask, u| mask | 1 << u.as_u32()));
        let copies = c
            .fetch_many(s, s, &blocks())
            .expect("a site reads its disk");
        for (v, data) in copies.iter() {
            key.extend(v.as_u64().to_le_bytes());
            key.extend(data.as_slice().iter().map(|&x| rename(x)));
        }
    }
    for (&committed, pending) in model.committed.iter().zip(&model.pending) {
        key.push(rename(committed));
        let mut pending: Vec<u8> = pending.iter().map(|&x| rename(x)).collect();
        pending.sort_unstable();
        key.push(pending.len() as u8);
        key.extend(pending);
    }
    key
}

struct Explorer {
    scheme: Scheme,
    n: u32,
    depth: usize,
    moves: Moves,
    /// Every distinct state explored, with how many histories of at most
    /// `l` actions start there, for each `l` up to the most steps it had
    /// left when it was explored.
    seen: HashMap<Vec<u8>, Vec<u64>>,
    /// Histories of at most `depth` actions from a fresh device, each
    /// checked after every action (merged ones by their twin's checks).
    histories: u64,
    /// Repairs that rolled back an orphaned write.
    rollbacks: u64,
    /// Every rule broken, with the shortest trail that broke it and what
    /// went wrong there.
    findings: BTreeMap<&'static str, (Vec<Action>, String)>,
}

impl Explorer {
    fn new(scheme: Scheme, n: u32, depth: usize, moves: Moves) -> Explorer {
        Explorer {
            scheme,
            n,
            depth,
            moves,
            seen: HashMap::new(),
            histories: 0,
            rollbacks: 0,
            findings: BTreeMap::new(),
        }
    }

    /// Explores every history from a freshly formatted device.
    fn run(&mut self) {
        let cfg = DeviceConfig::builder(self.scheme)
            .sites(self.n as usize)
            .num_blocks(BLOCKS as u64)
            .block_size(BLOCK_SIZE)
            .build()
            .unwrap();
        let cluster = Cluster::new(cfg, ClusterOptions::default());
        let model = Model::new();
        self.check_state(&cluster, &model, &[]);
        let histories = self.explore(&cluster, &model, &mut Vec::new());
        self.seen
            .insert(digest(&cluster, &model), histories.clone());
        self.histories = histories[self.depth];
    }

    fn violated(&mut self, rule: &'static str, detail: String, trail: &[Action]) {
        let shortest = (self.findings)
            .entry(rule)
            .or_insert_with(|| (trail.to_vec(), detail.clone()));
        if trail.len() < shortest.0.len() {
            *shortest = (trail.to_vec(), detail);
        }
    }

    /// One line per rule broken: the shortest trail and what went wrong.
    fn report(&self) -> String {
        let scheme = self.scheme;
        (self.findings.iter())
            .map(|(rule, (trail, detail))| format!("\n  {scheme} {rule} after {trail:?}: {detail}"))
            .collect()
    }

    /// The actions enabled in `c`; a `CrashWrite` is listed at exchange 0
    /// and [`explore`](Self::explore) walks its later exchanges.
    fn actions(&self, c: &Cluster) -> Vec<Action> {
        let mut actions = Vec::new();
        for i in 0..self.n {
            match c.site_state(site(i)) {
                SiteState::Failed => actions.push(Action::Repair(i)),
                SiteState::Comatose => actions.push(Action::Fail(i)),
                SiteState::Available => {
                    actions.push(Action::Fail(i));
                    for b in 0..BLOCKS as u64 {
                        let (w, r, x) = (Action::Write, Action::Read, Action::CrashWrite);
                        actions.extend([w(i, b), r(i, b), x(i, b, 0)]);
                    }
                }
            }
        }
        actions.retain(self.moves);
        actions
    }

    /// `action` on a fork of `c`, or `None` for a crash at an exchange the
    /// write does not reach. `trail` ends in `action`.
    fn step(
        &mut self,
        c: &Cluster,
        model: &Model,
        action: Action,
        trail: &[Action],
    ) -> Option<(Cluster, Model)> {
        let mut next = c.fork();
        let mut model = model.clone();
        let data = |fill| BlockData::from(vec![fill; BLOCK_SIZE]);
        match action {
            Action::Fail(i) => next.fail_site(site(i)),
            Action::Repair(i) => next.repair_site(site(i)),
            Action::Write(i, b) => {
                let fill = model.fresh_fill();
                match next.write(site(i), BlockIndex::new(b), data(fill)) {
                    Ok(()) => model.commit(b as usize, fill),
                    Err(e) if e.is_unavailable() => {}
                    Err(e) => self.violated("non-availability-error", e.to_string(), trail),
                }
            }
            Action::Read(i, b) => match next.read(site(i), BlockIndex::new(b)) {
                Ok(got) => {
                    if let Err(e) = model.observe(b as usize, &got) {
                        self.violated("one-copy-read", e, trail);
                    }
                }
                Err(e) if e.is_unavailable() => {}
                Err(e) => self.violated("non-availability-error", e.to_string(), trail),
            },
            Action::CrashWrite(i, b, k) => {
                let fill = model.fresh_fill();
                let faulty = next.with_faults();
                faulty.begin_op(0, &[(k, FaultKind::CrashCoordinator)]);
                // Nobody hears the answer of a crashed coordinator.
                let _ = faulty.write(site(i), BlockIndex::new(b), data(fill));
                let report = faulty.end_op();
                if report.fired.is_empty() {
                    return None;
                }
                for &s in &report.crashed {
                    if faulty.site_state(s).is_operational() {
                        faulty.fail_site(s);
                    }
                }
                model.pending[b as usize].push(fill);
                next = faulty.without_faults();
            }
        }
        Some((next, model))
    }

    /// Versions only go up, but for a repair that rolls back a version of
    /// the repaired site that no other site holds: an orphaned write.
    fn check_versions(&mut self, c: &Cluster, before: &[[u64; BLOCKS]], trail: &[Action]) {
        let action = *trail.last().expect("a step was taken");
        for (s, after) in versions(c).iter().enumerate() {
            for b in 0..BLOCKS {
                let was = before[s][b];
                if after[b] >= was {
                    continue;
                }
                let orphan = action == Action::Repair(s as u32)
                    && before
                        .iter()
                        .enumerate()
                        .all(|(u, vs)| u == s || vs[b] < was);
                if orphan {
                    self.rollbacks += 1;
                } else {
                    let detail = format!("s{s} b{b} went from v{was} to v{}", after[b]);
                    self.violated("version-regressed", detail, trail);
                }
            }
        }
    }

    fn check_state(&mut self, c: &Cluster, model: &Model, trail: &[Action]) {
        // 1. Structural invariants.
        for v in audit::check_invariants(c) {
            self.violated(v.rule, v.detail, trail);
        }
        // 2. One-copy reads of every block from every site, in turn, on a
        //    fork: a read may commit a pending write, so a later one may
        //    not go back.
        let probe = c.fork();
        let mut seen = model.clone();
        for i in 0..self.n {
            for (b, k) in blocks().into_iter().enumerate() {
                match probe.read(site(i), k) {
                    Ok(got) => {
                        if let Err(e) = seen.observe(b, &got) {
                            self.violated("one-copy-read", format!("via s{i}: {e}"), trail);
                        }
                    }
                    Err(e) if e.is_unavailable() => {}
                    Err(e) => self.violated("non-availability-error", e.to_string(), trail),
                }
            }
        }
        // 3. Availability predicate vs ground truth.
        let cfg = c.config();
        let expect = match self.scheme {
            Scheme::Voting => {
                let weight: u64 = cfg
                    .site_ids()
                    .filter(|&s| c.site_state(s).is_operational())
                    .map(|s| cfg.weight(s).value() as u64)
                    .sum();
                weight >= cfg.read_quorum() && weight >= cfg.write_quorum()
            }
            Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => cfg
                .site_ids()
                .any(|s| c.site_state(s) == SiteState::Available),
        };
        if c.is_available() != expect {
            let detail = format!("is_available() is {}, expected {expect}", !expect);
            self.violated("availability-predicate", detail, trail);
        }
    }

    /// Explores every history of at most `depth` actions from `c`; returns,
    /// for each `l` up to the steps left, how many histories of at most `l`
    /// actions start here.
    fn explore(&mut self, c: &Cluster, model: &Model, trail: &mut Vec<Action>) -> Vec<u64> {
        let left = self.depth - trail.len();
        let mut histories = vec![1; left + 1];
        if left == 0 {
            return histories;
        }
        let before = versions(c);
        for mut action in self.actions(c) {
            loop {
                trail.push(action);
                let Some((next, next_model)) = self.step(c, model, action, trail) else {
                    trail.pop();
                    break;
                };
                self.check_versions(&next, &before, trail);
                let key = digest(&next, &next_model);
                let below = match self.seen.get(&key) {
                    Some(had) if had.len() >= left => had[..left].to_vec(),
                    _ => {
                        self.check_state(&next, &next_model, trail);
                        let below = self.explore(&next, &next_model, trail);
                        if self
                            .seen
                            .get(&key)
                            .is_none_or(|had| had.len() < below.len())
                        {
                            self.seen.insert(key, below.clone());
                        }
                        below
                    }
                };
                for (l, n) in below.iter().enumerate() {
                    histories[l + 1] += n;
                }
                trail.pop();
                match action {
                    Action::CrashWrite(i, b, k) => action = Action::CrashWrite(i, b, k + 1),
                    _ => break,
                }
            }
        }
        histories
    }
}

/// Explores `scheme` on `n` sites to `depth` with the fail-stop actions
/// and asserts that nothing broke; returns the histories checked.
fn run(scheme: Scheme, n: u32, depth: usize) -> u64 {
    let mut explorer = Explorer::new(scheme, n, depth, fail_stop);
    explorer.run();
    assert!(explorer.findings.is_empty(), "n={n}:{}", explorer.report());
    assert_eq!(
        explorer.rollbacks, 0,
        "{scheme}: a rollback without a crash"
    );
    println!(
        "{scheme} n={n} depth {depth}: {} histories, {} states",
        explorer.histories,
        explorer.seen.len()
    );
    explorer.histories
}

#[test]
fn exhaustive_one_site_depth_ten() {
    for scheme in Scheme::ALL {
        let histories = run(scheme, 1, 10);
        assert!(histories > 100, "{scheme}: only {histories} histories");
    }
}

#[test]
fn exhaustive_two_sites_depth_six() {
    for scheme in Scheme::ALL {
        let histories = run(scheme, 2, 7);
        assert!(histories > 1_000, "{scheme}: only {histories} histories");
    }
}

#[test]
fn exhaustive_three_sites_voting_depth_six() {
    let histories = run(Scheme::Voting, 3, 6);
    assert!(histories > 20_000, "only {histories} histories");
}

#[test]
fn exhaustive_three_sites_available_copy_depth_six() {
    let histories = run(Scheme::AvailableCopy, 3, 6);
    assert!(histories > 20_000, "only {histories} histories");
}

#[test]
fn exhaustive_three_sites_naive_depth_six() {
    let histories = run(Scheme::NaiveAvailableCopy, 3, 6);
    assert!(histories > 20_000, "only {histories} histories");
}

#[test]
fn exhaustive_four_sites_available_copy_family_depth_five() {
    for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
        run(scheme, 4, 5);
    }
}

#[test]
fn exhaustive_five_sites_voting_depth_five() {
    run(Scheme::Voting, 5, 5);
}

/// Writes and crashed writes to depth 2 on 3 sites, every violation
/// collected: the audit rules and one-copy reads each scheme breaks today,
/// because a coordinator that crashes mid-fan-out leaves some sites with
/// a version others never see, and the next write reuses that version
/// number for other bytes (ROADMAP, "A crashed coordinator must not split
/// a version"). The fix turns this into a pass at depth 5 or more.
#[test]
fn a_crashed_coordinator_breaks_the_atomic_fan_out_assumption() {
    let crashes: Moves = |a| matches!(a, Action::Write(..) | Action::CrashWrite(..));
    const AVAILABLE_COPY_FAMILY: &[&str] = &[
        "available-copies-identical",
        "one-copy-read",
        "stale-copies-are-past-states",
        "version-determines-data",
        "version-vectors-form-a-chain",
    ];
    let expected: [(Scheme, &[&str]); 3] = [
        (
            Scheme::Voting,
            &[
                "current-version-holds-write-quorum",
                "version-determines-data",
            ],
        ),
        (Scheme::AvailableCopy, AVAILABLE_COPY_FAMILY),
        (Scheme::NaiveAvailableCopy, AVAILABLE_COPY_FAMILY),
    ];
    let mut found = Vec::new();
    let mut trails = String::new();
    for (scheme, _) in expected {
        let mut explorer = Explorer::new(scheme, 3, 2, crashes);
        explorer.run();
        trails += &explorer.report();
        found.push((scheme, explorer.findings.into_keys().collect::<Vec<_>>()));
    }
    println!("shortest trails:{trails}");
    let expected = expected.map(|(scheme, rules)| (scheme, rules.to_vec()));
    assert_eq!(found, expected, "shortest trails:{trails}");
}

/// A repair may roll a version back only on the repaired site, and only a
/// write no other site holds: the available copy schemes' recovery does so
/// for a coordinator that installed a write on its own disk and crashed
/// before its first remote exchange. Nothing else ever goes down.
#[test]
fn a_repair_rolls_back_only_an_orphaned_write() {
    let orphans: Moves = |a| matches!(a, Action::CrashWrite(..) | Action::Repair(_));
    for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
        let mut explorer = Explorer::new(scheme, 3, 2, orphans);
        explorer.run();
        assert!(explorer.rollbacks > 0, "{scheme}: no orphan rolled back");
        let regressed = explorer.findings.contains_key("version-regressed");
        assert!(!regressed, "{}", explorer.report());
    }
}
