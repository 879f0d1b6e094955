//! Scheme dispatch, partitions and the recovery sweep.
//!
//! These are the crate-internal entry points every runtime calls — the
//! deterministic [`Cluster`](crate::Cluster), the two
//! [`ServerCluster`](crate::ServerCluster) aliases
//! ([`LiveCluster`](crate::LiveCluster), [`TcpCluster`](crate::TcpCluster))
//! and, per shard, [`ShardedDevice`](crate::shard::ShardedDevice); they
//! route each operation to the protocol selected by the device
//! configuration.

use crate::backend::Backend;
use crate::{available_copy, obs_hooks, voting};
use blockrep_types::{BlockData, BlockIndex, DeviceResult, Scheme, SiteId, SiteState};

/// Reads block `k`, coordinated by `origin`, under the configured scheme.
///
/// Holds `k`'s block-lock shard for shared access for the duration: reads
/// of the same block run concurrently, but never interleave with a writer
/// of that block (see [`crate::locks`]).
pub(crate) fn read<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    k: BlockIndex,
) -> DeviceResult<BlockData> {
    let _timer = obs_hooks::timer(obs_hooks::read_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_read, origin.index() as u32);
    let _block = b.block_locks().read_guard(k);
    match b.config().scheme() {
        Scheme::Voting => voting::read(b, origin, k),
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => available_copy::read(b, origin, k),
    }
}

/// Writes block `k`, coordinated by `origin`, under the configured scheme.
///
/// Holds `k`'s block-lock shard exclusively for the duration, so the
/// vote → `max(v) + 1` → install sequence is atomic with respect to every
/// other operation on the same block; operations on distinct blocks (in
/// distinct shards) proceed in parallel.
pub(crate) fn write<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    k: BlockIndex,
    data: &BlockData,
) -> DeviceResult<()> {
    let _timer = obs_hooks::timer(obs_hooks::write_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_write, origin.index() as u32);
    let _block = b.block_locks().write_guard(k);
    match b.config().scheme() {
        Scheme::Voting => voting::write(b, origin, k, data),
        Scheme::AvailableCopy => available_copy::write(b, origin, k, data, false),
        Scheme::NaiveAvailableCopy => available_copy::write(b, origin, k, data, true),
    }
}

/// Reads a run of distinct blocks in one batched protocol round, under the
/// configured scheme. Byte-identical (and §5 traffic-identical) to reading
/// each block in turn; only the number of physical exchanges shrinks.
pub(crate) fn read_many<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    ks: &[BlockIndex],
) -> DeviceResult<Vec<BlockData>> {
    let _timer = obs_hooks::timer(obs_hooks::read_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_read_many, origin.index() as u32);
    let _blocks = b.block_locks().read_guard_many(ks);
    match b.config().scheme() {
        Scheme::Voting => voting::read_many(b, origin, ks),
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => {
            available_copy::read_many(b, origin, ks)
        }
    }
}

/// Writes a run of distinct blocks in one batched protocol round, under the
/// configured scheme. State- and §5 traffic-identical to writing each block
/// in turn against an unchanging cluster.
pub(crate) fn write_many<B: Backend + ?Sized>(
    b: &B,
    origin: SiteId,
    writes: &[(BlockIndex, BlockData)],
) -> DeviceResult<()> {
    let _timer = obs_hooks::timer(obs_hooks::write_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_write_many, origin.index() as u32);
    let ks: Vec<BlockIndex> = writes.iter().map(|&(k, _)| k).collect();
    let _blocks = b.block_locks().write_guard_many(&ks);
    match b.config().scheme() {
        Scheme::Voting => voting::write_many(b, origin, writes),
        Scheme::AvailableCopy => available_copy::write_many(b, origin, writes, false),
        Scheme::NaiveAvailableCopy => available_copy::write_many(b, origin, writes, true),
    }
}

/// Fail-stops site `s`. Every outstanding read lease dies with it: the
/// failed site may have been a lease holder, so the lease epoch is bumped
/// before the survivors carry on.
pub(crate) fn fail<B: Backend + ?Sized>(b: &B, s: SiteId) {
    b.leases().bump_epoch();
    match b.config().scheme() {
        Scheme::Voting => b.set_local_state(s, SiteState::Failed),
        Scheme::AvailableCopy => available_copy::fail(b, s, false),
        Scheme::NaiveAvailableCopy => available_copy::fail(b, s, true),
    }
}

/// Restarts site `s` after a failure and runs the recovery sweep. Bumps
/// the lease epoch: the repaired site holds stale blocks and must not be
/// named by any pre-repair grant.
pub(crate) fn repair<B: Backend + ?Sized>(b: &B, s: SiteId) {
    let _timer = obs_hooks::timer(obs_hooks::recovery_latency);
    let _op = obs_hooks::op_span(obs_hooks::op_repair, s.index() as u32);
    b.leases().bump_epoch();
    match b.config().scheme() {
        Scheme::Voting => voting::repair(b, s),
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => {
            available_copy::begin_recovery(b, s);
            sweep(b);
        }
    }
}

/// Splits the network into `groups`. The topology changes first and the
/// lease epoch is bumped after it, so no grant made against the old
/// reachability outlives the change: a partitioned holder can no longer be
/// reached to serve or validate its lease.
pub(crate) fn partition<B: Backend + ?Sized>(b: &B, groups: &[Vec<SiteId>]) {
    b.coordinator().links.partition(groups);
    b.leases().bump_epoch();
}

/// Heals all partitions — topology, then epoch, as for [`partition`] — and
/// re-runs the recovery sweep: recoveries that were blocked on unreachable
/// closure members can now complete.
pub(crate) fn heal<B: Backend + ?Sized>(b: &B) {
    b.coordinator().links.heal();
    b.leases().bump_epoch();
    sweep(b);
}

/// Promotes every comatose site whose recovery condition is now satisfied,
/// repeating until a fixpoint: one promotion (e.g. the last site to fail
/// coming back) can unblock the rest, which then repair from it.
pub(crate) fn sweep<B: Backend + ?Sized>(b: &B) {
    let naive = match b.config().scheme() {
        Scheme::Voting => return, // voting has no comatose state
        Scheme::AvailableCopy => false,
        Scheme::NaiveAvailableCopy => true,
    };
    // A recovery copies from a source, then promotes. A writer that left a
    // comatose site out of its install set must not land at the source in
    // between, or the site comes back available without that write; with
    // every block-lock shard held, each recovery runs wholly before or
    // after each write.
    let _all = b.block_locks().write_guard_all();
    loop {
        let mut progressed = false;
        for c in b.config().site_ids() {
            if b.local_state(c) == SiteState::Comatose
                && available_copy::try_complete_recovery(b, c, naive)
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
pub(crate) fn is_available<B: Backend + ?Sized>(b: &B) -> bool {
    match b.config().scheme() {
        Scheme::Voting => voting::is_available(b),
        Scheme::AvailableCopy | Scheme::NaiveAvailableCopy => available_copy::is_available(b),
    }
}
