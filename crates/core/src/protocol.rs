//! Scheme dispatch, partitions and the recovery sweep.
//!
//! These are the crate-internal entry points every runtime calls — the
//! deterministic [`Cluster`](crate::Cluster), the two
//! [`ServerCluster`](crate::ServerCluster) aliases
//! ([`LiveCluster`](crate::LiveCluster), [`TcpCluster`](crate::TcpCluster))
//! and, per shard, [`ReliableDevice`](crate::ReliableDevice); they
//! route each operation to the protocol selected by the device
//! configuration.

use crate::backend::BlockVec;
use crate::transport::{ServerCluster, Transport};
use crate::{available_copy, obs_hooks, voting};
use blockrep_types::{BlockData, BlockIndex, DeviceResult, Scheme, SiteId, SiteState};

/// Reads a run of distinct blocks in one protocol round, coordinated by
/// `origin`, under the configured scheme; a single-block read is a run of
/// one. Byte-identical (and §5 traffic-identical) to reading each block in
/// turn; only the number of physical exchanges shrinks.
///
/// Holds the run's block-lock shards for shared access for the duration:
/// reads of the same block run concurrently, but never interleave with a
/// writer of that block (see [`crate::locks`]).
pub(crate) fn read_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<BlockVec<BlockData>> {
    let _timer = obs_hooks::timer(obs_hooks::read_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_read, origin.index() as u32);
    let _blocks = c.coord.locks.read_guard_many(ks);
    match c.config().scheme() {
        Scheme::Voting => voting::read_many(c, origin, ks),
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => {
            available_copy::read_many(c, origin, ks)
        }
    }
}

/// Writes a run of distinct blocks in one protocol round, coordinated by
/// `origin`, under the configured scheme; a single-block write is a run of
/// one. State- and §5 traffic-identical to writing each block in turn
/// against an unchanging cluster.
///
/// Holds the run's block-lock shards exclusively for the duration, so the
/// vote → `max(v) + 1` → install sequence is atomic with respect to every
/// other operation on the same blocks; operations on blocks in distinct
/// shards proceed in parallel.
pub(crate) fn write_many<T: Transport>(
    c: &ServerCluster<T>,
    origin: SiteId,
    writes: &[(BlockIndex, BlockData)],
) -> DeviceResult<()> {
    let _timer = obs_hooks::timer(obs_hooks::write_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_write, origin.index() as u32);
    let ks: BlockVec<BlockIndex> = writes.iter().map(|&(k, _)| k).collect();
    let _blocks = c.coord.locks.write_guard_many(&ks);
    match c.config().scheme() {
        Scheme::Voting => voting::write_many(c, origin, writes, &ks),
        Scheme::AvailableCopy => available_copy::write_many(c, origin, writes, &ks, false),
        Scheme::NaiveAvailableCopy => available_copy::write_many(c, origin, writes, &ks, true),
    }
}

/// Fail-stops site `s`. Every outstanding read lease dies with it: the
/// failed site may have been a lease holder, so the lease epoch is bumped
/// before the survivors carry on.
pub(crate) fn fail<T: Transport>(c: &ServerCluster<T>, s: SiteId) {
    c.coord.leases.bump_epoch();
    match c.config().scheme() {
        Scheme::Voting => c.set_local_state(s, SiteState::Failed),
        Scheme::AvailableCopy => available_copy::fail(c, s, false),
        Scheme::NaiveAvailableCopy => available_copy::fail(c, s, true),
    }
}

/// Restarts site `s` after a failure and runs the recovery sweep. Bumps
/// the lease epoch: the repaired site holds stale blocks and must not be
/// named by any pre-repair grant.
pub(crate) fn repair<T: Transport>(c: &ServerCluster<T>, s: SiteId) {
    let _timer = obs_hooks::timer(obs_hooks::recovery_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_repair, s.index() as u32);
    c.coord.leases.bump_epoch();
    match c.config().scheme() {
        Scheme::Voting => voting::repair(c, s),
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => {
            available_copy::begin_recovery(c, s);
            sweep(c);
        }
    }
}

/// Splits the network into `groups`. The topology changes first and the
/// lease epoch is bumped after it, so no grant made against the old
/// reachability outlives the change: a partitioned holder can no longer be
/// reached to serve or validate its lease.
pub(crate) fn partition<T: Transport>(c: &ServerCluster<T>, groups: &[Vec<SiteId>]) {
    c.coord.links.partition(groups);
    c.coord.leases.bump_epoch();
}

/// Heals all partitions — topology, then epoch, as for [`partition`] — and
/// re-runs the recovery sweep: recoveries that were blocked on unreachable
/// closure members can now complete.
pub(crate) fn heal<T: Transport>(c: &ServerCluster<T>) {
    c.coord.links.heal();
    c.coord.leases.bump_epoch();
    sweep(c);
}

/// Promotes every comatose site whose recovery condition is now satisfied,
/// repeating until a fixpoint: one promotion (e.g. the last site to fail
/// coming back) can unblock the rest, which then repair from it.
pub(crate) fn sweep<T: Transport>(c: &ServerCluster<T>) {
    let naive = match c.config().scheme() {
        Scheme::Voting => return, // voting has no comatose state
        Scheme::AvailableCopy => false,
        Scheme::NaiveAvailableCopy => true,
    };
    // A recovery copies from a source, then promotes. A writer that left a
    // comatose site out of its install set must not land at the source in
    // between, or the site comes back available without that write; with
    // every block-lock shard held, each recovery runs wholly before or
    // after each write.
    let _all = c.coord.locks.write_guard_all();
    loop {
        let mut progressed = false;
        for s in c.config().site_ids() {
            if c.site_state(s) == SiteState::Comatose
                && available_copy::try_complete_recovery(c, s, naive)
            {
                progressed = true;
            }
        }
        if !progressed {
            return;
        }
    }
}

/// Whether the replicated block is currently available under the configured
/// scheme's own criterion: a live quorum for voting, an available copy for
/// the others.
pub(crate) fn is_available<T: Transport>(c: &ServerCluster<T>) -> bool {
    match c.config().scheme() {
        Scheme::Voting => voting::is_available(c),
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => available_copy::is_available(c),
    }
}
