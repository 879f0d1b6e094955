//! Majority consensus voting (§3.1, Figures 3 and 4).
//!
//! Every block copy carries a version number; reads and writes proceed only
//! when the gathered votes reach the configured quorum. Block-level
//! replication buys two simplifications the paper highlights:
//!
//! * **No recovery traffic.** A repaired site rejoins immediately
//!   ([`repair`] is free); quorum intersection guarantees that any quorum
//!   contains a current copy, so stale local copies are harmless.
//! * **Lazy per-block repair.** A coordinator that discovers (from the
//!   votes) that its copy of the requested block is stale fetches just that
//!   block from the highest-versioned voter and installs it — recovering
//!   "only those blocks which have been modified", on access.

use crate::backend::{
    self, BlockVec, ScatterReplies, ScatterReply, ScatterRequest, ScatterSpec, SiteVec, WriteBatch,
};
use crate::obs_hooks;
use crate::transport::{ServerCluster, Transport};
use blockrep_net::{MsgKind, OpClass};
use blockrep_obs::{event, span};
use blockrep_types::{BlockData, BlockIndex, DeviceError, DeviceResult, SiteId, VersionNumber};

/// The votes of one round: the origin's own, and the scatter's replies as
/// they came back.
struct Votes {
    origin: SiteId,
    own: BlockVec<VersionNumber>,
    replies: ScatterReplies,
}

impl Votes {
    /// Calls `f` with every voter, origin first, and its versions of the
    /// run's blocks in run order.
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(SiteId, &[VersionNumber])) {
        f(self.origin, &self.own);
        for (t, reply) in self.replies.iter() {
            if let Some(ScatterReply::Versions(vs)) = reply {
                f(*t, vs);
            }
        }
    }

    /// The most current voter for the run's `i`-th block, with its
    /// version: the highest version, ties to the lowest site id (for
    /// determinism).
    fn most_current(&self, i: usize) -> (SiteId, VersionNumber) {
        let (mut holder, mut v_max) = (self.origin, self.own[i]);
        self.for_each(|s, vs| {
            if vs[i] > v_max || (vs[i] == v_max && s < holder) {
                (holder, v_max) = (s, vs[i]);
            }
        });
        (holder, v_max)
    }
}

/// One round of vote collection for the run of distinct blocks `ks`,
/// coordinated by `origin`: a single scatter-gather exchange per site,
/// carrying every block's vote request. The origin's own votes are local
/// and free.
///
/// §5 accounting stays per block — one `VoteRequest` broadcast charged per
/// block, and each responding site's one physical reply charged as
/// `ks.len()` `VoteReply` transmissions — so the counters are those of one
/// round per block against an unchanging cluster.
#[inline(always)]
fn collect_votes<T: Transport>(
    c: &ServerCluster<T>,
    op: OpClass,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<Votes> {
    let others = backend::others(c.config(), origin);
    backend::charge_fanout(c, op, MsgKind::VoteRequest, others.len(), ks.len());
    event!(
        "quorum.request",
        op = op.label(),
        origin = origin.as_u32(),
        blocks = ks.len(),
        fanout = others.len(),
    );
    let own = {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        c.vote_many(origin, origin, ks)
            .ok_or_else(|| backend::dead_local_leg(origin))?
    };
    let spec = ScatterSpec {
        op,
        reply_charge: Some(MsgKind::VoteReply),
        reply_units: ks.len() as u64,
    };
    let replies = c.scatter(spec, origin, &others, &ScatterRequest::VoteMany(ks));
    let votes = Votes {
        origin,
        own,
        replies,
    };
    if blockrep_obs::enabled() {
        let mut voters = 0;
        votes.for_each(|t, vs| {
            if t != origin {
                event!("quorum.ack", site = t.as_u32(), blocks = vs.len());
            }
            voters += 1;
        });
        obs_hooks::record(obs_hooks::quorum_size, voters);
    }
    Ok(votes)
}

/// Fails unless the voters' weight reaches `quorum`.
fn ensure_quorum<T: Transport>(
    c: &ServerCluster<T>,
    votes: &Votes,
    op: &'static str,
    quorum: u64,
) -> DeviceResult<()> {
    let cfg = c.config();
    let mut gathered = 0;
    votes.for_each(|s, _| gathered += cfg.weight(s).as_u64());
    if gathered < quorum {
        return Err(DeviceError::unavailable(
            op,
            format!("gathered weight {gathered} of {op} quorum {quorum}"),
        ));
    }
    Ok(())
}

fn ensure_coordinator<T: Transport>(c: &ServerCluster<T>, origin: SiteId) -> DeviceResult<()> {
    if !c.config().contains_site(origin) {
        return Err(DeviceError::UnknownSite(origin));
    }
    let state = c.site_state(origin);
    if state.is_operational() {
        Ok(())
    } else {
        Err(DeviceError::SiteNotServing {
            site: origin,
            state: "failed",
        })
    }
}

/// The weighted-voting read algorithm of Figure 3, for a run of distinct
/// blocks: one vote round, then per-block quorum decisions, lazy refreshes
/// and local reads.
///
/// Collects votes from all reachable sites; if their weight reaches the
/// read quorum, refreshes each block's local copy from its
/// highest-versioned voter when stale (one extra block transfer — the
/// paper's "`U_V^n + 1`" case; it can fire for some blocks of a run and not
/// others) and serves the run locally. A run of one first tries its read
/// lease, when leases are on.
///
/// # Errors
///
/// [`DeviceError::Unavailable`] when no read quorum can be gathered;
/// [`DeviceError::SiteNotServing`] when `origin` is down;
/// [`DeviceError::BlockOutOfRange`] for a bad index.
pub(crate) fn read_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<BlockVec<BlockData>> {
    ensure_coordinator(c, origin)?;
    for &k in ks {
        backend::check_block(c.config(), k)?;
    }
    if let [k] = *ks {
        if let Some(data) = lease_read(c, origin, k) {
            return Ok([data].into_iter().collect());
        }
    }
    if ks.is_empty() {
        return Ok(BlockVec::new());
    }
    let epoch = c.coord.leases.current_epoch();
    let votes = collect_votes(c, OpClass::Read, origin, ks)?;
    ensure_quorum(c, &votes, "read", c.config().read_quorum())?;
    for (i, &k) in ks.iter().enumerate() {
        let (holder, v_max) = votes.most_current(i);
        if v_max > votes.own[i] {
            let (v, data) = c.fetch_block(origin, holder, k).ok_or_else(|| {
                DeviceError::unavailable(
                    "read",
                    format!("current copy holder {holder} vanished mid-read"),
                )
            })?;
            c.counter().add(OpClass::Read, MsgKind::BlockTransfer, 1);
            event!(
                "read.refresh",
                block = k.as_u64(),
                holder = holder.as_u32(),
                version = v.as_u64(),
            );
            // Keep the local copy up to date, as the paper's algorithm does.
            install_own(c, origin, k, v, data);
        }
        // The quorum certified v_max: every voter holding it (and the
        // origin, freshly refreshed) is a known-current replica the next
        // read may be offloaded to.
        if c.coord.leases.enabled() {
            let mut current = Vec::new();
            votes.for_each(|s, vs| {
                if vs[i] == v_max {
                    current.push(s);
                }
            });
            grant(c, k, v_max, current, origin, epoch);
        }
    }
    let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
    c.read_local_many(origin, ks)
}

/// Installs block `k` at version `v` on `origin`'s own replica.
fn install_own<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    k: BlockIndex,
    v: VersionNumber,
    data: BlockData,
) {
    let block: WriteBatch = [(k, v, data)].into_iter().collect();
    c.apply_write_many(origin, origin, &block);
}

/// Records a read lease on block `k` at `version`: the holders are
/// `holders`, the replicas known to hold it, plus the origin (which is
/// current too). Holders are kept in ascending site order so the routing
/// in [`lease_read`] is deterministic across runtimes.
fn grant<T: Transport>(
    c: &ServerCluster<T>,
    k: BlockIndex,
    version: VersionNumber,
    mut holders: Vec<SiteId>,
    origin: SiteId,
    epoch: u64,
) {
    if !holders.contains(&origin) {
        holders.push(origin);
    }
    holders.sort_unstable();
    c.coord.leases.grant(k, version, &holders, epoch);
}

/// The Harmonia-style read offload: serves block `k` from one
/// known-current replica in a single round — or locally for free — when a
/// current-epoch lease exists. Returns `None` to fall back to the quorum
/// path: no lease, no reachable holder, or a holder whose answer failed
/// version validation (in which case the lease is revoked first, so a
/// stale holder can never be consulted twice).
fn lease_read<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    k: BlockIndex,
) -> Option<BlockData> {
    let leases = &c.coord.leases;
    let (v_lease, holders) = leases.lookup(k)?;
    // Version-aware routing: spread reads deterministically over the
    // holders by (origin, block) instead of hammering the lowest id.
    let n = holders.len();
    let start = (origin.index() + k.as_u64() as usize) % n;
    for i in 0..n {
        let h = holders[(start + i) % n];
        if h == origin {
            // The grant names our own replica: serve locally, zero messages.
            let (v, data) = c.fetch_block(origin, origin, k)?;
            if v != v_lease {
                leases.invalidate(k);
                return None;
            }
            event!(
                "read.lease",
                block = k.as_u64(),
                holder = h.as_u32(),
                local = true
            );
            return Some(data);
        }
        // One request to one replica instead of a quorum round.
        c.counter().add(OpClass::Read, MsgKind::BlockRequest, 1);
        let Some((v, data)) = c.fetch_lease(origin, h, k) else {
            continue; // holder unreachable — try the next one
        };
        c.counter().add(OpClass::Read, MsgKind::BlockTransfer, 1);
        if v != v_lease {
            // A stale holder (partitioned across a write, or the chaos
            // suite's StaleLease fault): revoke and re-run the quorum read.
            leases.invalidate(k);
            return None;
        }
        event!(
            "read.lease",
            block = k.as_u64(),
            holder = h.as_u32(),
            local = false
        );
        install_own(c, origin, k, v, data.clone());
        return Some(data);
    }
    None
}

/// The weighted-voting write algorithm of Figure 4, for a run of distinct
/// blocks `writes` with keys `ks`: one vote round, one install fan-out.
///
/// Collects votes; if their weight reaches the write quorum, installs each
/// block at `max(its versions) + 1` on every voter — "this repairs all
/// out-of-date copies that are operational". Each block keeps its own
/// version line, and §5 traffic is charged per block (see
/// [`collect_votes`]).
///
/// # Errors
///
/// [`DeviceError::Unavailable`] when no write quorum can be gathered, plus
/// the same validation errors as [`read_many`].
pub(crate) fn write_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    writes: &[(BlockIndex, BlockData)],
    ks: &[BlockIndex],
) -> DeviceResult<()> {
    ensure_coordinator(c, origin)?;
    backend::check_writes(c.config(), writes)?;
    if writes.is_empty() {
        return Ok(());
    }
    let _span = span!("mcv.write", origin = origin.as_u32(), blocks = ks.len());
    let epoch = c.coord.leases.current_epoch();
    let votes = collect_votes(c, OpClass::Write, origin, ks)?;
    ensure_quorum(c, &votes, "write", c.config().write_quorum())?;
    // Sealed once, here, for every replica that installs it.
    let batch: WriteBatch = writes
        .iter()
        .enumerate()
        .map(|(i, (k, data))| (*k, votes.most_current(i).1.next(), data.clone()))
        .collect();
    let mut remote_voters = SiteVec::new();
    votes.for_each(|s, _| {
        if s != origin {
            remote_voters.push(s);
        }
    });
    // Revoke every touched block's lease before any replica changes: the
    // write fan-out is about to make every outstanding grant stale.
    for &k in ks {
        c.coord.leases.invalidate(k);
    }
    backend::charge_fanout(
        c,
        OpClass::Write,
        MsgKind::WriteUpdate,
        remote_voters.len(),
        ks.len(),
    );
    // Install acknowledgements are not §5 transmissions: no reply charge.
    let spec = ScatterSpec {
        op: OpClass::Write,
        reply_charge: None,
        reply_units: 1,
    };
    let update = ScatterRequest::InstallMany(&batch);
    let installs = c.scatter(spec, origin, &remote_voters, &update);
    // Fail-stop: a coordinator that crashed during the fan-out sent nothing
    // after it crashed, and completes nothing now — least of all a copy at
    // v_new that only its own disk holds.
    ensure_coordinator(c, origin)?;
    {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        c.apply_write_many(origin, origin, &batch);
    }
    // Delivery is all-or-nothing per target, so every voter the install
    // landed on now holds every block at its new version: re-grant each
    // block's lease to the delivered set (plus the origin itself).
    if c.coord.leases.enabled() {
        let delivered = installs.iter().filter(|(_, r)| r.is_some());
        let delivered: Vec<SiteId> = delivered.map(|(s, _)| *s).collect();
        for (k, block) in batch.iter() {
            grant(c, *k, block.version(), delivered.clone(), origin, epoch);
        }
    }
    event!(
        "write.commit",
        blocks = ks.len(),
        replicas = remote_voters.len() + 1,
    );
    Ok(())
}

/// Site repair under voting: free. The repaired site rejoins immediately;
/// its stale blocks are repaired lazily, on access.
pub(crate) fn repair<T: Transport>(c: &ServerCluster<T>, s: SiteId) {
    c.set_local_state(s, blockrep_types::SiteState::Available);
}

/// Whether a voting-managed block is currently available: the operational
/// sites must hold both a read and a write quorum (with the paper's default
/// majority quorums these coincide).
pub(crate) fn is_available<T: Transport>(c: &ServerCluster<T>) -> bool {
    let cfg = c.config();
    let operational: Vec<SiteId> = cfg
        .site_ids()
        .filter(|&s| c.site_state(s).is_operational())
        .collect();
    let w = backend::weight_of(cfg, &operational);
    w >= cfg.read_quorum() && w >= cfg.write_quorum()
}
