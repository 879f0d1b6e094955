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
    self, Backend, ScatterReply, ScatterRequest, ScatterSpec, SiteVec, WriteBatch,
};
use crate::obs_hooks;
use blockrep_net::{MsgKind, OpClass};
use blockrep_obs::{event, span};
use blockrep_storage::SealedBlock;
use blockrep_types::{BlockData, BlockIndex, DeviceError, DeviceResult, SiteId, VersionNumber};

/// One round of vote collection for block `k`, coordinated by `origin`.
///
/// Charges one broadcast (`VoteRequest`, fanned out per the delivery mode)
/// plus one `VoteReply` per responding remote site; the origin's own vote is
/// local and free. Returns the voters (origin first) with their versions.
fn collect_votes<B: Backend + ?Sized>(
    b: &B,
    op: OpClass,
    origin: SiteId,
    k: BlockIndex,
) -> DeviceResult<SiteVec<(SiteId, VersionNumber)>> {
    let cfg = b.config();
    let others = backend::others(cfg, origin);
    backend::charge_fanout(b, op, MsgKind::VoteRequest, others.len());
    event!(
        "quorum.request",
        op = op.label(),
        origin = origin.as_u32(),
        block = k.as_u64(),
        fanout = others.len(),
    );
    let own = {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        b.vote(origin, origin, k)
            .ok_or_else(|| backend::dead_local_leg(origin))?
    };
    let mut votes = SiteVec::new();
    votes.push((origin, own));
    let spec = ScatterSpec {
        op,
        reply_charge: Some(MsgKind::VoteReply),
        reply_units: 1,
    };
    for (t, reply) in b.scatter(spec, origin, &others, &ScatterRequest::Vote(k)) {
        if let Some(ScatterReply::Version(v)) = reply {
            event!("quorum.ack", site = t.as_u32(), version = v.as_u64());
            votes.push((t, v));
        }
    }
    obs_hooks::record(obs_hooks::quorum_size, votes.len() as u64);
    Ok(votes)
}

/// One **batched** round of vote collection for the run of distinct blocks
/// `ks`: a single scatter-gather exchange per site, carrying every block's
/// vote request.
///
/// §5 accounting stays per block — one `VoteRequest` broadcast charged per
/// block, and each responding site's one physical reply charged as
/// `ks.len()` `VoteReply` transmissions — so the counters are
/// byte-identical to running [`collect_votes`] once per block against an
/// unchanging cluster.
fn collect_votes_many<B: Backend + ?Sized>(
    b: &B,
    op: OpClass,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<SiteVec<(SiteId, Vec<VersionNumber>)>> {
    let cfg = b.config();
    let others = backend::others(cfg, origin);
    for _ in ks {
        backend::charge_fanout(b, op, MsgKind::VoteRequest, others.len());
    }
    event!(
        "quorum.request.batch",
        op = op.label(),
        origin = origin.as_u32(),
        blocks = ks.len(),
        fanout = others.len(),
    );
    let own: Vec<VersionNumber> = {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        b.vote_many(origin, origin, ks)
            .ok_or_else(|| backend::dead_local_leg(origin))?
    };
    let mut votes = SiteVec::new();
    votes.push((origin, own));
    let spec = ScatterSpec {
        op,
        reply_charge: Some(MsgKind::VoteReply),
        reply_units: ks.len() as u64,
    };
    let req = ScatterRequest::VoteMany(ks.to_vec());
    for (t, reply) in b.scatter(spec, origin, &others, &req) {
        if let Some(ScatterReply::Versions(vs)) = reply {
            debug_assert_eq!(vs.len(), ks.len(), "batched vote reply length");
            event!("quorum.ack.batch", site = t.as_u32(), blocks = vs.len());
            votes.push((t, vs));
        }
    }
    obs_hooks::record(obs_hooks::quorum_size, votes.len() as u64);
    Ok(votes)
}

fn ensure_coordinator<B: Backend + ?Sized>(b: &B, origin: SiteId) -> DeviceResult<()> {
    if !b.config().contains_site(origin) {
        return Err(DeviceError::UnknownSite(origin));
    }
    let state = b.local_state(origin);
    if state.is_operational() {
        Ok(())
    } else {
        Err(DeviceError::SiteNotServing {
            site: origin,
            state: "failed",
        })
    }
}

/// The weighted-voting read algorithm of Figure 3.
///
/// Collects votes from all reachable sites; if their weight reaches the
/// read quorum, refreshes the local copy from the highest-versioned voter
/// when stale (one extra block transfer — the paper's "`U_V^n + 1`" case)
/// and serves the block locally.
///
/// # Errors
///
/// [`DeviceError::Unavailable`] when no read quorum can be gathered;
/// [`DeviceError::SiteNotServing`] when `origin` is down;
/// [`DeviceError::BlockOutOfRange`] for a bad index.
pub(crate) fn read<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    k: BlockIndex,
) -> DeviceResult<BlockData> {
    ensure_coordinator(b, origin)?;
    backend::check_block(b, k)?;
    if let Some(data) = lease_read(b, origin, k) {
        return Ok(data);
    }
    let cfg = b.config();
    let epoch = b.leases().current_epoch();
    let votes = collect_votes(b, OpClass::Read, origin, k)?;
    let voters: SiteVec<SiteId> = votes.iter().map(|&(s, _)| s).collect();
    let gathered = backend::weight_of(cfg, &voters);
    if gathered < cfg.read_quorum() {
        return Err(DeviceError::unavailable(
            "read",
            format!(
                "gathered weight {gathered} of read quorum {}",
                cfg.read_quorum()
            ),
        ));
    }
    // Find the most current voter; ties broken by site id for determinism.
    let (holder, v_max) = votes
        .iter()
        .copied()
        .max_by_key(|&(s, v)| (v, std::cmp::Reverse(s)))
        .expect("votes always include the origin");
    let own = votes[0].1;
    if v_max > own {
        let (v, data) = b.fetch_block(origin, holder, k).ok_or_else(|| {
            DeviceError::unavailable(
                "read",
                format!("current copy holder {holder} vanished mid-read"),
            )
        })?;
        b.counter().add(OpClass::Read, MsgKind::BlockTransfer, 1);
        event!(
            "read.refresh",
            block = k.as_u64(),
            holder = holder.as_u32(),
            version = v.as_u64(),
        );
        // Keep the local copy up to date, as the paper's algorithm does.
        b.apply_write(origin, origin, k, &SealedBlock::new(v, data));
    }
    // The quorum certified v_max: every voter holding it (and the origin,
    // freshly refreshed) is a known-current replica the next read may be
    // offloaded to.
    grant_from_votes(
        b,
        k,
        v_max,
        votes.iter().map(|&(s, v)| (s, v)),
        origin,
        epoch,
    );
    let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
    b.read_local(origin, k)
}

/// Records a read lease from a successful vote round: the holders are the
/// voters whose version matched `v_max`, plus the origin (which has just
/// been brought current). Holders are kept in ascending site order so the
/// routing in [`lease_read`] is deterministic across runtimes.
fn grant_from_votes<B: Backend + ?Sized>(
    b: &B,
    k: BlockIndex,
    v_max: VersionNumber,
    votes: impl Iterator<Item = (SiteId, VersionNumber)>,
    origin: SiteId,
    epoch: u64,
) {
    if !b.leases().enabled() {
        return;
    }
    let mut holders: Vec<SiteId> = votes.filter(|&(_, v)| v == v_max).map(|(s, _)| s).collect();
    if !holders.contains(&origin) {
        holders.push(origin);
    }
    holders.sort_unstable();
    b.leases().grant(k, v_max, &holders, epoch);
}

/// The Harmonia-style read offload: serves block `k` from one
/// known-current replica in a single round — or locally for free — when a
/// current-epoch lease exists. Returns `None` to fall back to the quorum
/// path: no lease, no reachable holder, or a holder whose answer failed
/// version validation (in which case the lease is revoked first, so a
/// stale holder can never be consulted twice).
fn lease_read<B: Backend + ?Sized>(b: &B, origin: SiteId, k: BlockIndex) -> Option<BlockData> {
    let (v_lease, holders) = b.leases().lookup(k)?;
    // Version-aware routing: spread reads deterministically over the
    // holders by (origin, block) instead of hammering the lowest id.
    let n = holders.len();
    let start = (origin.index() + k.as_u64() as usize) % n;
    for i in 0..n {
        let h = holders[(start + i) % n];
        if h == origin {
            // The grant names our own replica: serve locally, zero messages.
            let (v, _) = b.fetch_block(origin, origin, k)?;
            if v != v_lease {
                b.leases().invalidate(k);
                return None;
            }
            event!(
                "read.lease",
                block = k.as_u64(),
                holder = h.as_u32(),
                local = true
            );
            return b.read_local(origin, k).ok();
        }
        // One request to one replica instead of a quorum round.
        b.counter().add(OpClass::Read, MsgKind::BlockRequest, 1);
        let Some((v, data)) = b.fetch_lease(origin, h, k) else {
            continue; // holder unreachable — try the next one
        };
        b.counter().add(OpClass::Read, MsgKind::BlockTransfer, 1);
        if v != v_lease {
            // A stale holder (partitioned across a write, or the chaos
            // suite's StaleLease fault): revoke and re-run the quorum read.
            b.leases().invalidate(k);
            return None;
        }
        event!(
            "read.lease",
            block = k.as_u64(),
            holder = h.as_u32(),
            local = false
        );
        b.apply_write(origin, origin, k, &SealedBlock::new(v, data.clone()));
        return Some(data);
    }
    None
}

/// The weighted-voting write algorithm of Figure 4.
///
/// Collects votes; if their weight reaches the write quorum, installs the
/// block at `max(versions) + 1` on every voter — "this repairs all
/// out-of-date copies that are operational".
///
/// # Errors
///
/// [`DeviceError::Unavailable`] when no write quorum can be gathered, plus
/// the same validation errors as [`read`].
pub(crate) fn write<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    k: BlockIndex,
    data: &BlockData,
) -> DeviceResult<()> {
    ensure_coordinator(b, origin)?;
    backend::check_block(b, k)?;
    let _span = span!("mcv.write", origin = origin.as_u32(), block = k.as_u64());
    let cfg = b.config();
    if data.len() != cfg.block_size() {
        return Err(DeviceError::WrongBlockSize {
            got: data.len(),
            expected: cfg.block_size(),
        });
    }
    let epoch = b.leases().current_epoch();
    let votes = collect_votes(b, OpClass::Write, origin, k)?;
    let voters: SiteVec<SiteId> = votes.iter().map(|&(s, _)| s).collect();
    let gathered = backend::weight_of(cfg, &voters);
    if gathered < cfg.write_quorum() {
        return Err(DeviceError::unavailable(
            "write",
            format!(
                "gathered weight {gathered} of write quorum {}",
                cfg.write_quorum()
            ),
        ));
    }
    let v_new = votes
        .iter()
        .map(|&(_, v)| v)
        .max()
        .expect("votes always include the origin")
        .next();
    // Sealed once, here, for every replica that installs it.
    let block = SealedBlock::new(v_new, data.clone());
    let remote_voters: SiteVec<SiteId> = voters.iter().copied().filter(|&s| s != origin).collect();
    // Revoke the block's lease before any replica changes: the write
    // fan-out is about to make every outstanding grant stale.
    b.leases().invalidate(k);
    backend::charge_fanout(b, OpClass::Write, MsgKind::WriteUpdate, remote_voters.len());
    let replicas = remote_voters.len() + 1;
    // Install acknowledgements are not §5 transmissions: no reply charge.
    let spec = ScatterSpec {
        op: OpClass::Write,
        reply_charge: None,
        reply_units: 1,
    };
    let installs = b.scatter(
        spec,
        origin,
        &remote_voters,
        &ScatterRequest::Install { k, block: &block },
    );
    // Fail-stop: a coordinator that crashed during the fan-out sent nothing
    // after it crashed, and completes nothing now — least of all a copy at
    // v_new that only its own disk holds.
    ensure_coordinator(b, origin)?;
    {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        b.apply_write(origin, origin, k, &block);
    }
    // Every voter the install landed on now holds v_new: re-grant the
    // lease to the delivered set (plus the origin itself).
    grant_from_votes(
        b,
        k,
        v_new,
        installs
            .iter()
            .filter(|(_, r)| r.is_some())
            .map(|&(s, _)| (s, v_new)),
        origin,
        epoch,
    );
    event!(
        "write.commit",
        block = k.as_u64(),
        version = v_new.as_u64(),
        replicas = replicas,
    );
    Ok(())
}

/// Vectored Figure 3: one batched vote round for a run of distinct blocks,
/// then per-block quorum decisions, lazy refreshes and local reads.
///
/// Per-block semantics are unchanged — each block gets its own `v_max`
/// comparison and, when the local copy is stale, its own block transfer
/// (the lazy repair can fire for some blocks of a batch and not others).
/// Only the vote round is amortized: one exchange per site instead of one
/// per site per block.
///
/// # Errors
///
/// As for [`read`]; the quorum check covers the whole batch (voters are
/// block-independent).
pub(crate) fn read_many<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<Vec<BlockData>> {
    ensure_coordinator(b, origin)?;
    for &k in ks {
        backend::check_block(b, k)?;
    }
    if ks.is_empty() {
        return Ok(Vec::new());
    }
    let _span = span!("mcv.read_many", origin = origin.as_u32(), blocks = ks.len());
    let cfg = b.config();
    let epoch = b.leases().current_epoch();
    let votes = collect_votes_many(b, OpClass::Read, origin, ks)?;
    let voters: SiteVec<SiteId> = votes.iter().map(|&(s, _)| s).collect();
    let gathered = backend::weight_of(cfg, &voters);
    if gathered < cfg.read_quorum() {
        return Err(DeviceError::unavailable(
            "read",
            format!(
                "gathered weight {gathered} of read quorum {}",
                cfg.read_quorum()
            ),
        ));
    }
    for (i, &k) in ks.iter().enumerate() {
        let (holder, v_max) = votes
            .iter()
            .map(|(s, vs)| (*s, vs[i]))
            .max_by_key(|&(s, v)| (v, std::cmp::Reverse(s)))
            .expect("votes always include the origin");
        let own = votes[0].1[i];
        if v_max > own {
            let (v, data) = b.fetch_block(origin, holder, k).ok_or_else(|| {
                DeviceError::unavailable(
                    "read",
                    format!("current copy holder {holder} vanished mid-read"),
                )
            })?;
            b.counter().add(OpClass::Read, MsgKind::BlockTransfer, 1);
            event!(
                "read.refresh",
                block = k.as_u64(),
                holder = holder.as_u32(),
                version = v.as_u64(),
            );
            b.apply_write(origin, origin, k, &SealedBlock::new(v, data));
        }
        grant_from_votes(
            b,
            k,
            v_max,
            votes.iter().map(|(s, vs)| (*s, vs[i])),
            origin,
            epoch,
        );
    }
    let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
    b.read_local_many(origin, ks)
}

/// Vectored Figure 4: one batched vote round for a run of distinct blocks,
/// one batched install fan-out, per-block version numbers.
///
/// Each block still takes `max(its votes) + 1` as its new version, so the
/// version lines are indistinguishable from `writes.len()` single-block
/// writes; §5 traffic is likewise charged per block (see
/// [`collect_votes_many`]).
///
/// # Errors
///
/// As for [`write`]; the quorum check covers the whole batch.
pub(crate) fn write_many<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    writes: &[(BlockIndex, BlockData)],
) -> DeviceResult<()> {
    ensure_coordinator(b, origin)?;
    let cfg = b.config();
    for (k, data) in writes {
        backend::check_block(b, *k)?;
        if data.len() != cfg.block_size() {
            return Err(DeviceError::WrongBlockSize {
                got: data.len(),
                expected: cfg.block_size(),
            });
        }
    }
    if writes.is_empty() {
        return Ok(());
    }
    let _span = span!(
        "mcv.write_many",
        origin = origin.as_u32(),
        blocks = writes.len()
    );
    let ks: Vec<BlockIndex> = writes.iter().map(|&(k, _)| k).collect();
    let epoch = b.leases().current_epoch();
    let votes = collect_votes_many(b, OpClass::Write, origin, &ks)?;
    let voters: SiteVec<SiteId> = votes.iter().map(|&(s, _)| s).collect();
    let gathered = backend::weight_of(cfg, &voters);
    if gathered < cfg.write_quorum() {
        return Err(DeviceError::unavailable(
            "write",
            format!(
                "gathered weight {gathered} of write quorum {}",
                cfg.write_quorum()
            ),
        ));
    }
    let batch: WriteBatch = writes
        .iter()
        .enumerate()
        .map(|(i, (k, data))| {
            let v_new = votes
                .iter()
                .map(|(_, vs)| vs[i])
                .max()
                .expect("votes always include the origin")
                .next();
            (*k, v_new, data.clone())
        })
        .collect();
    let remote_voters: SiteVec<SiteId> = voters.iter().copied().filter(|&s| s != origin).collect();
    // Revoke every touched block's lease before the batched fan-out.
    for &k in &ks {
        b.leases().invalidate(k);
    }
    for _ in writes {
        backend::charge_fanout(b, OpClass::Write, MsgKind::WriteUpdate, remote_voters.len());
    }
    let spec = ScatterSpec {
        op: OpClass::Write,
        reply_charge: None,
        reply_units: 1,
    };
    let installs = b.scatter(
        spec,
        origin,
        &remote_voters,
        &ScatterRequest::InstallMany(&batch),
    );
    // Fail-stop, as in [`write`]: a crashed coordinator completes nothing.
    ensure_coordinator(b, origin)?;
    {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        b.apply_write_many(origin, origin, &batch);
    }
    // Batch delivery is all-or-nothing per target, so one delivered set
    // covers every block: re-grant each block's lease at its new version.
    for (k, block) in batch.iter() {
        let v_new = block.version();
        grant_from_votes(
            b,
            *k,
            v_new,
            installs
                .iter()
                .filter(|(_, r)| r.is_some())
                .map(|&(s, _)| (s, v_new)),
            origin,
            epoch,
        );
    }
    event!(
        "write.commit.batch",
        blocks = writes.len(),
        replicas = remote_voters.len() + 1,
    );
    Ok(())
}

/// Site repair under voting: free. The repaired site rejoins immediately;
/// its stale blocks are repaired lazily, on access.
pub(crate) fn repair<B: Backend + ?Sized>(b: &B, s: SiteId) {
    b.set_local_state(s, blockrep_types::SiteState::Available);
}

/// Whether a voting-managed block is currently available: the operational
/// sites must hold both a read and a write quorum (with the paper's default
/// majority quorums these coincide).
pub(crate) fn is_available<B: Backend + ?Sized>(b: &B) -> bool {
    let cfg = b.config();
    let operational: Vec<SiteId> = cfg
        .site_ids()
        .filter(|&s| b.local_state(s).is_operational())
        .collect();
    let w = backend::weight_of(cfg, &operational);
    w >= cfg.read_quorum() && w >= cfg.write_quorum()
}
