//! Available copy (§3.2, Figure 5) and, behind the `naive` parameter, naive
//! available copy (§3.3, Figure 6).
//!
//! Writes go to every available copy; reads are served locally for free.
//! Each site keeps a *was-available set* `W_s` (Definition 3.1) on stable
//! storage: the sites that received the most recent write, plus sites that
//! have repaired from `s`. After a **total** failure, a recovering site `s`
//! may safely restart service once every member of the closure `C*(W_s)`
//! (Definition 3.2) has recovered — the closure necessarily contains the
//! last site(s) to fail, hence a most-current copy.
//!
//! # The `naive` parameter
//!
//! Naive available copy is identical on the hot path — write to all
//! available copies, read locally — but it "does not maintain any failure
//! information": no was-available sets, no write acknowledgements ("the
//! naive available copy scheme need only broadcast one message when a write
//! is performed"), nothing recorded when a site fails, and the recovery
//! rule degenerates to Figure 6's `SIMPLE_RECOVERY`: repair from any
//! available site, or after a total failure wait until *all* sites have
//! recovered and adopt the highest version. The paper's conclusion is that
//! this is the algorithm of choice: one multicast per write, no
//! bookkeeping, and (§4.4) an availability loss that is negligible at
//! realistic failure-to-repair ratios. Every function here that differs
//! between the two schemes takes `naive`; the others serve both unchanged.

use crate::backend::{
    self, BlockVec, ScatterReplies, ScatterReply, ScatterRequest, ScatterSpec, SiteVec, WriteBatch,
};
use crate::obs_hooks;
use crate::transport::{ServerCluster, Transport};
use blockrep_net::{MsgKind, OpClass};
use blockrep_obs::event;
use blockrep_types::{
    BlockData, BlockIndex, DeviceError, DeviceResult, FailureTracking, SiteId, SiteState,
};
use std::collections::BTreeSet;

/// A write's group: `origin` and every target its install fan-out was
/// delivered to, in ascending site order — the set Definition 3.1 has each
/// of them record as its new was-available set.
fn write_group(origin: SiteId, installs: ScatterReplies) -> SiteVec<SiteId> {
    let mut group: SiteVec<SiteId> = installs
        .into_iter()
        .filter(|(_, reply)| *reply == Some(ScatterReply::Delivered))
        .map(|(t, _)| t)
        .chain([origin])
        .collect();
    group.sort_unstable();
    group
}

fn ensure_serving<T: Transport>(c: &ServerCluster<T>, origin: SiteId) -> DeviceResult<()> {
    if !c.config().contains_site(origin) {
        return Err(DeviceError::UnknownSite(origin));
    }
    match c.site_state(origin) {
        SiteState::Available => Ok(()),
        SiteState::Comatose => Err(DeviceError::SiteNotServing {
            site: origin,
            state: "comatose",
        }),
        SiteState::Failed => Err(DeviceError::SiteNotServing {
            site: origin,
            state: "failed",
        }),
    }
}

/// Read under the available copy schemes, for a run of blocks: "if there
/// is a copy of the data block on the local site, then the read operation
/// can be done locally, avoiding any network traffic." Every available
/// site has a current copy of every block, so this is a zero-message local
/// read.
///
/// # Errors
///
/// [`DeviceError::SiteNotServing`] if `origin` is not available;
/// [`DeviceError::BlockOutOfRange`] for a bad index.
pub(crate) fn read_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<BlockVec<BlockData>> {
    ensure_serving(c, origin)?;
    for &k in ks {
        backend::check_block(c.config(), k)?;
    }
    event!("read.local", site = origin.as_u32(), blocks = ks.len());
    c.read_local_many(origin, ks)
}

/// Write under available copy ("write to all available copies") or, with
/// `naive = true`, under naive available copy, for a run of distinct
/// blocks `writes` with keys `ks`: one install fan-out.
///
/// The update is *addressed* to every other site — one multicast, or `n−1`
/// unique-addressed transmissions, charged per block — and lands on the
/// available ones. Each block keeps its own version line (`own version +
/// 1`, the origin being current). Conventional available copy additionally
/// collects an acknowledgement from each available recipient — one frame,
/// charged as `writes.len()` `WriteAck`s — and refreshes every recipient's
/// was-available set to the new write group; the naive variant skips both,
/// which is exactly its §5 traffic advantage. Site availability cannot
/// change mid-run (the run is one frame per site), so every block lands on
/// the same group, as a per-block loop against an unchanging cluster.
///
/// # Errors
///
/// [`DeviceError::SiteNotServing`] if `origin` is not available, plus block
/// validation errors.
pub(crate) fn write_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    writes: &[(BlockIndex, BlockData)],
    ks: &[BlockIndex],
    naive: bool,
) -> DeviceResult<()> {
    ensure_serving(c, origin)?;
    backend::check_writes(c.config(), writes)?;
    if writes.is_empty() {
        return Ok(());
    }
    // The origin is available, hence current: its versions are the latest.
    let own = {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        c.vote_many(origin, origin, ks)
            .ok_or_else(|| backend::dead_local_leg(origin))?
    };
    // Sealed once, here, for every replica that installs it.
    let batch: WriteBatch = writes
        .iter()
        .zip(own.iter())
        .map(|((k, data), v)| (*k, v.next(), data.clone()))
        .collect();
    let others = backend::others(c.config(), origin);
    let (op, blocks) = (OpClass::Write, ks.len());
    backend::charge_fanout(c, op, MsgKind::WriteUpdate, others.len(), blocks);
    // Conventional available copy collects an acknowledgement from every
    // available recipient; the naive variant skips them (its §5 advantage).
    let spec = ScatterSpec {
        op,
        reply_charge: (!naive).then_some(MsgKind::WriteAck),
        reply_units: blocks as u64,
    };
    let update = ScatterRequest::InstallIfAvailableMany(&batch);
    let recipients = write_group(origin, c.scatter(spec, origin, &others, &update));
    {
        let _leg = obs_hooks::phase_span(obs_hooks::phase_local_leg, origin.as_u32());
        c.apply_write_many(origin, origin, &batch);
    }
    event!(
        "acwrite.fanout",
        origin = origin.as_u32(),
        blocks = blocks,
        recipients = recipients.len(),
        naive = naive,
    );
    if !naive {
        // Definition 3.1, once per run: everyone who received this write
        // records the write group as its new was-available set
        // (piggybacked on update + acks).
        for &t in recipients.iter() {
            let _x = obs_hooks::phase_span(obs_hooks::phase_exchange, t.as_u32());
            c.set_was_available(origin, t, &recipients);
        }
        event!("was_available.update", group = recipients.len());
    }
    Ok(())
}

/// Marks a site failed. With [`FailureTracking::OnFailure`] the surviving
/// available sites detect the crash and refresh their was-available sets to
/// the surviving group, which is what lets recovery identify the *last*
/// site to fail exactly (the behaviour the Figure 7 availability model
/// assumes). Detection traffic is charged to the
/// [`Control`](OpClass::Control) class, outside the paper's §5 cost model.
pub(crate) fn fail<T: Transport>(b: &ServerCluster<T>, s: SiteId, naive: bool) {
    b.set_local_state(s, SiteState::Failed);
    event!("site.fail", site = s.as_u32());
    if naive || b.config().failure_tracking() != FailureTracking::OnFailure {
        return;
    }
    let survivors: Vec<SiteId> = b
        .config()
        .site_ids()
        .filter(|&t| b.site_state(t) == SiteState::Available)
        .collect();
    if survivors.is_empty() {
        return;
    }
    for &t in &survivors {
        b.set_was_available(t, t, &survivors);
    }
    backend::charge_fanout(
        b,
        OpClass::Control,
        MsgKind::FailureNotice,
        survivors.len(),
        1,
    );
}

/// A site restarts after a failure: it becomes comatose and broadcasts a
/// recovery query; every operational site answers (with its state,
/// was-available set and version summary). Whether it can then *complete*
/// recovery is decided by [`try_complete_recovery`] in the recovery sweep.
pub(crate) fn begin_recovery<T: Transport>(b: &ServerCluster<T>, s: SiteId) {
    b.set_local_state(s, SiteState::Comatose);
    event!("recovery.begin", site = s.as_u32());
    let others = backend::others(b.config(), s);
    backend::charge_fanout(
        b,
        OpClass::Recovery,
        MsgKind::RecoveryQuery,
        others.len(),
        1,
    );
    let spec = ScatterSpec {
        op: OpClass::Recovery,
        reply_charge: Some(MsgKind::RecoveryReply),
        reply_units: 1,
    };
    b.scatter(spec, s, &others, &ScatterRequest::ProbeState);
}

/// Computes whether the closure `C*(W_c)` has fully recovered, and if so
/// returns it.
///
/// The closure is grown iteratively: starting from `W_c ∪ {c}`, every
/// recovered member contributes its own was-available set. If any member is
/// still failed (or unreachable), the closure cannot be certified and `c`
/// must keep waiting — conservative, and exactly Figure 5's "when all sites
/// in `C*(W_s)` have recovered".
pub(crate) fn recovered_closure<T: Transport>(
    b: &ServerCluster<T>,
    c: SiteId,
) -> Option<BTreeSet<SiteId>> {
    let mut closure: BTreeSet<SiteId> = b.was_available(c, c)?.into_iter().collect();
    closure.insert(c);
    loop {
        let mut grown = closure.clone();
        for &u in &closure {
            let w = if u == c {
                b.was_available(c, c)
            } else {
                match b.probe_state(c, u) {
                    Some(_) => b.was_available(c, u),
                    None => return None, // a closure member is still down
                }
            }?;
            grown.extend(w);
        }
        if grown == closure {
            return Some(closure);
        }
        closure = grown;
    }
}

/// Picks the most current member of `candidates` by version-vector recency.
///
/// In clean partition-free operation the candidates' vectors form a
/// dominance chain (each is a past snapshot of the single write line), so
/// the vector with the largest total dominates all others. A crash in the
/// middle of a write fan-out legitimately breaks the chain — two interrupted
/// writes to different blocks leave incomparable vectors — so recency by
/// total is a heuristic there, not a theorem, and is deliberately *not*
/// asserted: the fault-injection suite exercises exactly those states.
pub(crate) fn most_current<T: Transport>(
    b: &ServerCluster<T>,
    observer: SiteId,
    candidates: &BTreeSet<SiteId>,
) -> Option<SiteId> {
    let remote: Vec<SiteId> = candidates
        .iter()
        .copied()
        .filter(|&u| u != observer)
        .collect();
    // Repair-source selection is not a §5 transmission (the paper charges
    // only the final vector + blocks exchange): no reply charge.
    let spec = ScatterSpec {
        op: OpClass::Recovery,
        reply_charge: None,
        reply_units: 1,
    };
    let fetched = b.scatter(spec, observer, &remote, &ScatterRequest::VersionVector);
    let mut best: Option<(u64, SiteId)> = None;
    for &u in candidates {
        let vv = if u == observer {
            b.version_vector(observer, observer)
        } else {
            match fetched.iter().find(|&&(t, _)| t == u) {
                Some((_, Some(ScatterReply::Vector(vv)))) => Some(vv.clone()),
                _ => None,
            }
        }?;
        let total = vv.total();
        // Ties broken toward the smaller site id for determinism.
        if best.is_none_or(|(bt, bs)| total > bt || (total == bt && u < bs)) {
            best = Some((total, u));
        }
    }
    best.map(|(_, winner)| winner)
}

/// Attempts to finish the recovery of comatose site `c` (the `select` of
/// Figure 5): repair from any available site, or — after a total failure —
/// from the most current member of the recovered closure. Returns whether
/// `c` became available.
///
/// A completed repair costs the two §5 transmissions: the version vector to
/// the source and the response carrying the missing blocks. (When `c` itself
/// turns out to hold the most current copy, no transfer is needed.)
pub(crate) fn try_complete_recovery<T: Transport>(
    b: &ServerCluster<T>,
    c: SiteId,
    naive: bool,
) -> bool {
    debug_assert_eq!(b.site_state(c), SiteState::Comatose);
    // Every site is probed, the first serving one chosen: a probe is an
    // exchange a fault layer numbers.
    let serving: SiteVec<SiteId> = b
        .config()
        .site_ids()
        .filter(|&u| b.probe_state(c, u).is_some_and(|st| st.can_serve()))
        .collect();
    let source = if let Some(&u) = serving.first() {
        Some(u)
    } else if naive {
        // Naive: wait for every site, then take the globally most current.
        let all: BTreeSet<SiteId> = b.config().site_ids().collect();
        let all_recovered = all.iter().all(|&u| u == c || b.probe_state(c, u).is_some());
        if all_recovered {
            most_current(b, c, &all)
        } else {
            None
        }
    } else {
        // Conventional: wait for the closure, then take its most current
        // member (which holds the last write by construction).
        recovered_closure(b, c).and_then(|closure| most_current(b, c, &closure))
    };
    let Some(t) = source else {
        return false;
    };
    if t != c {
        let Some(vv) = b.version_vector(c, c) else {
            return false; // own server did not answer; retry on next sweep
        };
        b.counter()
            .add(OpClass::Recovery, MsgKind::VersionVector, 1);
        let Some((_, blocks)) = b.repair_payload(c, t, &vv) else {
            return false; // source vanished mid-repair; retry on next sweep
        };
        b.counter()
            .add(OpClass::Recovery, MsgKind::VersionVector, 1);
        let repaired = b.apply_repair_local(c, blocks);
        obs_hooks::count(obs_hooks::blocks_repaired, repaired as u64);
        event!(
            "recovery.complete",
            site = c.as_u32(),
            source = t.as_u32(),
            blocks = repaired,
        );
        if !naive {
            // W_s ← W_t ∪ {s}; send(t, W_s) — piggybacked on the exchange.
            if let Some(mut w) = b.was_available(c, t) {
                w.insert(c);
                let w: Vec<SiteId> = w.into_iter().collect();
                b.set_was_available(c, c, &w);
                b.add_was_available(c, t, c);
            }
        }
    }
    b.set_local_state(c, SiteState::Available);
    true
}

/// Whether an available-copy-managed block is available: some site is in
/// the available state.
pub(crate) fn is_available<T: Transport>(b: &ServerCluster<T>) -> bool {
    b.config()
        .site_ids()
        .any(|s| b.site_state(s) == SiteState::Available)
}
