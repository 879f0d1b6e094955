//! The client face of the reliable device (Figures 1 and 2).
//!
//! In the paper's UNIX deployment, a kernel device-driver *stub* forwards
//! block requests to a user-state server; in the MACH deployment the file
//! system talks to the server over IPC. Either way, what the file system
//! sees is an ordinary block device. [`ReliableDevice`] is that device,
//! with the failover a diskless-workstation client would want (try the
//! preferred server, fall back to any serving site).
//!
//! The device stands in front of one replica group or of several
//! independent ones (*shards*), a [`PlacementManifest`] mapping each block
//! to its shard (see [`shard`](crate::shard)). A batch whose blocks all
//! live on one shard runs on the caller, exactly as on a one-shard device.
//! A batch that spans shards fans out in one parallel round: it is split
//! by shard, the admission gate of every touched shard is taken in
//! **ascending shard index** (the same lock-order discipline the workspace
//! lint verifies on `TcpTransport::pipelined`), the caller runs the last
//! touched shard's sub-batch and each other one goes to that shard's
//! long-lived worker thread, and the replies are stitched back in caller
//! order. A batch spawns no thread.
//!
//! # Partial-batch failure semantics
//!
//! Shards are independent failure domains. A cross-shard `write_blocks`
//! whose batch touches a shard with no quorum fails *that shard's*
//! sub-batch only: every other touched shard commits normally, no shard
//! blocks on another, and the first error in ascending shard order is
//! returned to the caller. The caller learns the batch was not applied
//! atomically across shards — exactly the contract a striped volume over
//! independent disks offers — and the per-shard one-copy invariant is
//! never weakened (the chaos shard scenarios check it per shard).

use crate::shard::PlacementManifest;
use crate::transport::{ServerCluster, Transport};
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex, DeviceError, DeviceResult, SiteId};
use parking_lot::{Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;

/// The failover rule: run `op` through the `preferred` origin, then through
/// the shard's other sites in id order — but only while the coordinator
/// itself cannot serve. A quorum failure is global, and retrying it
/// elsewhere would just repeat it.
fn failover<T: Transport, R>(
    shard: &ServerCluster<T>,
    preferred: SiteId,
    mut op: impl FnMut(SiteId) -> DeviceResult<R>,
) -> DeviceResult<R> {
    let mut outcome = op(preferred);
    for origin in shard.config().site_ids().filter(|&s| s != preferred) {
        if !matches!(outcome, Err(DeviceError::SiteNotServing { .. })) {
            break;
        }
        outcome = op(origin);
    }
    outcome
}

/// The reliable device as a client library: an ordinary [`BlockDevice`]
/// that coordinates every request through a serving site, preferring a
/// local one and failing over to any other site that can serve.
///
/// This is the handle an unmodified file system mounts; replication,
/// quorums, recovery and placement stay entirely below this interface.
/// [`new`](Self::new) stands it in front of one replica group;
/// [`sharded`](Self::sharded) in front of several, each a complete
/// [`ServerCluster`] of its own over any runtime's transport. Every shard
/// but the highest then has one worker thread for cross-shard batches,
/// started by the first batch that hands it a sub-batch and joined when
/// the device is dropped; the highest is always the last shard a batch
/// touches, which the caller serves itself.
///
/// # Examples
///
/// ```
/// use blockrep_core::{Cluster, ClusterOptions, ReliableDevice};
/// use blockrep_storage::BlockDevice;
/// use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let cfg = DeviceConfig::builder(Scheme::AvailableCopy).sites(3).build()?;
/// let cluster = Arc::new(Cluster::new(cfg, ClusterOptions::default()));
/// let dev = ReliableDevice::new(Arc::clone(&cluster), SiteId::new(0));
/// dev.write_block(BlockIndex::new(7), BlockData::from(vec![1; 512]))?;
/// cluster.fail_site(SiteId::new(0)); // preferred site dies…
/// let data = dev.read_block(BlockIndex::new(7))?; // …and the device fails over
/// assert_eq!(data.as_slice()[0], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReliableDevice<C> {
    shards: Vec<Arc<C>>,
    manifest: PlacementManifest,
    preferred: SiteId,
    /// Per-shard admission gates, none on a one-shard device. Every batch
    /// holds the gate of each shard it touches for its whole round, even a
    /// batch that touches one: a reader of two shards in turn can then
    /// never see a cross-shard write applied on one and not yet on the
    /// other. Gates are always taken in ascending shard index — the
    /// `fan_out` loop asserts it — which is what makes holding several at
    /// once deadlock-free. Each gate owns its shard's worker, so only a
    /// batch holding the gate can post to it.
    gates: Vec<Mutex<Option<Worker>>>,
}

/// One shard's sub-batch, owned so that the shard's worker can take it.
#[derive(Debug)]
enum Job {
    Read(Vec<BlockIndex>),
    Write(Vec<(BlockIndex, BlockData)>),
}

/// What a sub-batch returns: the blocks read, in sub-batch order (none for
/// a write).
type Answer = DeviceResult<Vec<BlockData>>;

impl Job {
    /// Runs the sub-batch against `shard` under the failover rule.
    ///
    /// A panic in the shard's protocol code fails the sub-batch, whichever
    /// thread runs it: it neither takes a worker down nor unwinds through a
    /// caller whose other sub-batches are still out on workers.
    fn run<T: Transport>(&self, shard: &ServerCluster<T>, preferred: SiteId) -> Answer {
        let run = || {
            failover(shard, preferred, |origin| match self {
                Job::Read(ks) => shard.read_many(origin, ks),
                Job::Write(writes) => shard.write_many(origin, writes).map(|()| Vec::new()),
            })
        };
        catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
            let panicked = std::io::Error::other("shard sub-batch panicked");
            Err(DeviceError::Io(panicked))
        })
    }
}

/// A shard worker's mailbox: one job in, one answer out. It never holds
/// more than one job because the worker is reachable only through its
/// shard's gate, and the batch holding the gate takes the answer before it
/// lets the gate go — so at most one thread waits on the bell at a time:
/// the worker for a job, or the poster for its answer.
#[derive(Debug, Default)]
struct Mailbox {
    slot: Mutex<Slot>,
    bell: Condvar,
}

#[derive(Debug, Default)]
struct Slot {
    job: Option<Job>,
    answer: Option<Answer>,
    /// The device is going down, or the worker's thread is gone: no job
    /// will be answered any more.
    closed: bool,
}

impl Mailbox {
    /// Hands `job` to the worker.
    fn post(&self, job: Job) {
        let mut slot = self.slot.lock();
        if !slot.closed {
            slot.job = Some(job);
            drop(slot);
            self.bell.notify_one();
        }
    }

    /// Waits for the answer to the posted job.
    fn answer(&self) -> Answer {
        let mut slot = self.slot.lock();
        while slot.answer.is_none() && !slot.closed {
            slot = self.bell.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        slot.answer.take().unwrap_or_else(|| {
            let gone = std::io::Error::other("shard worker is gone");
            Err(DeviceError::Io(gone))
        })
    }

    fn close(&self) {
        self.slot.lock().closed = true;
        self.bell.notify_all();
    }

    /// A worker's thread: take a job, run it on `shard`, post the answer;
    /// until the mailbox closes.
    fn serve<T: Transport>(&self, shard: &ServerCluster<T>, preferred: SiteId) {
        // However this thread ends, nobody may wait on an answer it will
        // not send.
        struct CloseOnExit<'a>(&'a Mailbox);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseOnExit(self);
        loop {
            let job = {
                let mut slot = self.slot.lock();
                while slot.job.is_none() && !slot.closed {
                    slot = self.bell.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                match slot.job.take() {
                    Some(job) => job,
                    None => return,
                }
            };
            let answer = job.run(shard, preferred);
            self.slot.lock().answer = Some(answer);
            self.bell.notify_one();
        }
    }
}

/// A shard's long-lived fan-out thread.
#[derive(Debug)]
struct Worker {
    mailbox: Arc<Mailbox>,
    thread: JoinHandle<()>,
}

impl Worker {
    fn spawn<T: Transport + 'static>(shard: Arc<ServerCluster<T>>, preferred: SiteId) -> Worker {
        let mailbox = Arc::new(Mailbox::default());
        let inbox = Arc::clone(&mailbox);
        let thread = std::thread::spawn(move || inbox.serve(&*shard, preferred));
        Worker { mailbox, thread }
    }
}

impl<C> Drop for ReliableDevice<C> {
    fn drop(&mut self) {
        for worker in self
            .gates
            .iter_mut()
            .filter_map(|gate| gate.get_mut().take())
        {
            worker.mailbox.close();
            let _ = worker.thread.join();
        }
    }
}

// `Transport` is the crate's own seam: nothing outside it can name a `T`
// other than the exported ones.
#[allow(private_bounds)]
impl<T: Transport + 'static> ReliableDevice<ServerCluster<T>> {
    /// Creates a device over one replica group that coordinates through
    /// `preferred` when possible.
    ///
    /// # Panics
    ///
    /// Panics if `preferred` is not a site of the device.
    pub fn new(cluster: Arc<ServerCluster<T>>, preferred: SiteId) -> Self {
        let manifest = PlacementManifest::single(cluster.config());
        Self::sharded(vec![cluster], manifest, preferred)
    }

    /// Assembles a device from per-shard clusters and their manifest.
    ///
    /// # Panics
    ///
    /// Panics if the shard list disagrees with the manifest, if the
    /// shards' geometries differ, or if `preferred` is not a shard-local
    /// site id valid in every shard.
    pub fn sharded(
        shards: Vec<Arc<ServerCluster<T>>>,
        manifest: PlacementManifest,
        preferred: SiteId,
    ) -> Self {
        assert_eq!(
            shards.len(),
            manifest.shard_count(),
            "shard list disagrees with the manifest"
        );
        let geometry = |c: &ServerCluster<T>| (c.config().num_blocks(), c.config().block_size());
        for (i, shard) in shards.iter().enumerate() {
            let cfg = shard.config();
            assert_eq!(
                geometry(shard),
                geometry(&shards[0]),
                "shard {i}: geometry differs"
            );
            assert_eq!(
                cfg.num_sites(),
                manifest.sites_of(i).len(),
                "shard {i}: site count disagrees with the manifest"
            );
            assert!(
                cfg.contains_site(preferred),
                "shard {i}: preferred origin {preferred} is not a local site"
            );
        }
        let gates = match shards.len() {
            1 => Vec::new(),
            n => (0..n).map(|_| Mutex::new(None)).collect(),
        };
        ReliableDevice {
            shards,
            manifest,
            preferred,
            gates,
        }
    }

    /// The placement manifest.
    pub fn manifest(&self) -> &PlacementManifest {
        &self.manifest
    }

    /// The per-shard cluster handles, in shard order.
    pub fn shard_backends(&self) -> &[Arc<ServerCluster<T>>] {
        &self.shards
    }

    /// The shard holding block `k`.
    pub fn shard_of(&self, k: BlockIndex) -> usize {
        self.manifest.shard_of(k)
    }

    /// The preferred shard-local coordinator site.
    pub fn preferred(&self) -> SiteId {
        self.preferred
    }

    /// Runs `op` on shard `s` from the calling thread, under the shard's
    /// gate and the failover rule.
    fn on_shard<R>(
        &self,
        s: usize,
        mut op: impl FnMut(&ServerCluster<T>, SiteId) -> DeviceResult<R>,
    ) -> DeviceResult<R> {
        let shard = &self.shards[s];
        let _gate = self.gates.get(s).map(Mutex::lock);
        failover(shard, self.preferred, |origin| op(shard, origin))
    }

    /// Routes a batch in one pass: `Ok(shard)` when every block of it
    /// lives on one shard (an empty batch on shard 0), else its caller-order
    /// positions split by owning shard, ascending shard index, touched
    /// shards only. Only the first block placed elsewhere starts the split.
    fn split_by_shard(
        &self,
        ks: impl Iterator<Item = BlockIndex>,
    ) -> Result<usize, Vec<(usize, Vec<usize>)>> {
        let mut shards = ks.map(|k| self.manifest.shard_of(k)).enumerate();
        let first = shards.next().map_or(0, |(_, s)| s);
        let Some((i, other)) = shards.find(|&(_, s)| s != first) else {
            return Ok(first);
        };
        let mut by_shard: Vec<(usize, Vec<usize>)> =
            (0..self.shards.len()).map(|s| (s, Vec::new())).collect();
        by_shard[first].1.extend(0..i);
        by_shard[other].1.push(i);
        for (i, s) in shards {
            by_shard[s].1.push(i);
        }
        by_shard.retain(|(_, idxs)| !idxs.is_empty());
        Err(by_shard)
    }

    /// Shard `s`'s worker, started on first use: a device that only ever
    /// sees single-shard batches starts no thread.
    fn worker<'g>(&self, gate: &'g mut Option<Worker>, s: usize) -> &'g Worker {
        gate.get_or_insert_with(|| Worker::spawn(Arc::clone(&self.shards[s]), self.preferred))
    }

    /// The one parallel round: runs the `job` of every `(shard, positions)`
    /// pair and collects the answers in ascending shard order. The last
    /// pair runs on the calling thread and the others on their shards'
    /// workers.
    ///
    /// Every touched shard's admission gate is taken before any
    /// sub-operation starts and held until all of them have finished, so
    /// concurrent cross-shard batches serialize per shard while still
    /// overlapping across shards. Because a batch holds several gates at
    /// once, acquisition order is a deadlock invariant: `split_by_shard`
    /// hands us shards ascending and the assert pins that discipline.
    fn fan_out(
        &self,
        mut split: Vec<(usize, Vec<usize>)>,
        job: impl Fn(&[usize]) -> Job,
    ) -> Vec<(Vec<usize>, Answer)> {
        let mut held: Vec<(usize, MutexGuard<'_, Option<Worker>>)> =
            Vec::with_capacity(split.len());
        for &(s, _) in &split {
            debug_assert!(
                held.last().is_none_or(|&(prev, _)| prev < s),
                "shard gates must be acquired in ascending shard order"
            );
            let gate = self.gates[s].lock();
            held.push((s, gate));
        }
        let Some((last, last_idxs)) = split.pop() else {
            return Vec::new();
        };
        for ((s, idxs), (_, gate)) in split.iter().zip(&mut held) {
            self.worker(gate, *s).mailbox.post(job(idxs));
        }
        let answer = job(&last_idxs).run(&self.shards[last], self.preferred);
        split
            .into_iter()
            .zip(&mut held)
            .map(|((s, idxs), (_, gate))| (idxs, self.worker(gate, s).mailbox.answer()))
            .chain([(last_idxs, answer)])
            .collect()
    }
}

/// A shard answered a read with fewer blocks than it was asked for.
fn short_read() -> DeviceError {
    DeviceError::Io(std::io::Error::other(
        "shard returned fewer blocks than requested",
    ))
}

impl<T: Transport + 'static> BlockDevice for ReliableDevice<ServerCluster<T>> {
    fn num_blocks(&self) -> u64 {
        self.shards[0].config().num_blocks()
    }

    fn block_size(&self) -> usize {
        self.shards[0].config().block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        let s = self.manifest.shard_of(k);
        self.on_shard(s, |shard, origin| shard.read(origin, k))
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        // The payload is borrowed by every attempt: failover retries reuse
        // it, and the common single-origin success path never clones.
        self.write_blocks(&[(k, data)])
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        let split = match self.split_by_shard(ks.iter().copied()) {
            Ok(s) => return self.on_shard(s, |shard, origin| shard.read_many(origin, ks)),
            Err(split) => split,
        };
        let outcomes = self.fan_out(split, |idxs| {
            Job::Read(idxs.iter().map(|&i| ks[i]).collect())
        });
        let mut stitched: Vec<Option<BlockData>> = vec![None; ks.len()];
        for (idxs, outcome) in outcomes {
            for (slot, data) in idxs.into_iter().zip(outcome?) {
                stitched[slot] = Some(data);
            }
        }
        stitched
            .into_iter()
            .collect::<Option<_>>()
            .ok_or_else(short_read)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        let split = match self.split_by_shard(writes.iter().map(|&(k, _)| k)) {
            Ok(s) => return self.on_shard(s, |shard, origin| shard.write_many(origin, writes)),
            Err(split) => split,
        };
        // Block payloads are refcounted; the sub-batch clone is cheap.
        let outcomes = self.fan_out(split, |idxs| {
            Job::Write(idxs.iter().map(|&i| writes[i].clone()).collect())
        });
        // Healthy shards have already committed; report the first failed
        // sub-batch (ascending shard order) without undoing the others.
        outcomes
            .into_iter()
            .try_for_each(|(_, outcome)| outcome.map(drop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Coordinator;
    use crate::shard::ShardSpec;
    use crate::wire::{Request, WireResponse};
    use crate::{Cluster, ClusterOptions};
    use blockrep_net::DeliveryMode;
    use blockrep_types::{DeviceConfig, Scheme};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn cluster(scheme: Scheme) -> Arc<Cluster> {
        let cfg = DeviceConfig::builder(scheme)
            .sites(3)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap();
        Arc::new(Cluster::new(cfg, ClusterOptions::default()))
    }

    /// The geometry the sharded tests run on: 3-site shards of 64 8-byte
    /// blocks in 4-block placement groups.
    fn spec(scheme: Scheme, shards: usize) -> ShardSpec {
        ShardSpec {
            sites_per_shard: 3,
            block_size: 8,
            group_size: 4,
            ..ShardSpec::new(scheme, shards, 64)
        }
    }

    #[test]
    fn reliable_device_geometry_matches_config() {
        let dev = ReliableDevice::new(cluster(Scheme::Voting), SiteId::new(0));
        assert_eq!(dev.num_blocks(), 4);
        assert_eq!(dev.block_size(), 8);
    }

    #[test]
    fn failover_moves_past_failed_preferred_site() {
        let c = cluster(Scheme::AvailableCopy);
        let dev = ReliableDevice::new(Arc::clone(&c), SiteId::new(0));
        dev.write_block(BlockIndex::new(0), BlockData::from(vec![9; 8]))
            .unwrap();
        c.fail_site(SiteId::new(0));
        assert_eq!(
            dev.read_block(BlockIndex::new(0)).unwrap().as_slice(),
            &[9; 8]
        );
        dev.write_block(BlockIndex::new(1), BlockData::from(vec![8; 8]))
            .unwrap();
        assert_eq!(
            c.data_of(SiteId::new(2), BlockIndex::new(1)).as_slice(),
            &[8; 8]
        );
    }

    #[test]
    fn failover_gives_up_when_no_site_serves() {
        let c = cluster(Scheme::NaiveAvailableCopy);
        let dev = ReliableDevice::new(Arc::clone(&c), SiteId::new(1));
        for i in 0..3 {
            c.fail_site(SiteId::new(i));
        }
        let err = dev.read_block(BlockIndex::new(0)).unwrap_err();
        assert!(err.is_unavailable());
    }

    #[test]
    fn quorum_loss_is_not_retried_on_other_sites() {
        let c = cluster(Scheme::Voting);
        let dev = ReliableDevice::new(Arc::clone(&c), SiteId::new(2));
        c.fail_site(SiteId::new(0));
        c.fail_site(SiteId::new(1));
        let before = c.traffic();
        let err = dev.read_block(BlockIndex::new(0)).unwrap_err();
        assert!(matches!(err, DeviceError::Unavailable { .. }));
        // Exactly one coordination attempt: one vote broadcast, no replies.
        let delta = c.traffic() - before;
        assert_eq!(delta.total(), 1);
    }

    #[test]
    fn a_split_follows_the_manifest_however_the_groups_interleave() {
        let dev = ReliableDevice::deterministic(
            &spec(Scheme::NaiveAvailableCopy, 4),
            ClusterOptions::default(),
        )
        .unwrap();
        let m = dev.manifest().clone();
        let gs = m.group_size();
        let shard_of_group = |g: u64| m.shard_of(BlockIndex::new(g * gs));
        let g1 = (1..16)
            .find(|&g| shard_of_group(g) != shard_of_group(0))
            .unwrap();
        // One group, walked backwards: no split, just its shard.
        let one_group = (0..gs).rev().map(BlockIndex::new);
        assert_eq!(dev.split_by_shard(one_group), Ok(shard_of_group(0)));
        // g0, g1, g0, g1, …: no block shares a group with its neighbour.
        let alternating: Vec<u64> = (0..gs).flat_map(|i| [i, g1 * gs + i]).collect();
        // Whole groups, out of order, each run walked backwards.
        let out_of_order: Vec<u64> = [9u64, 2, 15, 0, 7]
            .iter()
            .flat_map(|&g| (g * gs..(g + 1) * gs).rev())
            .collect();
        for (round, batch) in [alternating, out_of_order].into_iter().enumerate() {
            let ks: Vec<BlockIndex> = batch.into_iter().map(BlockIndex::new).collect();
            let split = dev.split_by_shard(ks.iter().copied()).unwrap_err();
            let mut seen = vec![false; ks.len()];
            let mut prev_shard = None;
            for (s, idxs) in &split {
                assert!(prev_shard < Some(*s), "shards out of order");
                prev_shard = Some(*s);
                assert!(idxs.windows(2).all(|w| w[0] < w[1]), "caller order lost");
                for &i in idxs {
                    assert_eq!(*s, m.shard_of(ks[i]), "block {} misplaced", ks[i]);
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "a block was dropped");
            let fill = |k: BlockIndex| BlockData::from(vec![k.as_u64() as u8 ^ round as u8; 8]);
            let writes: Vec<(BlockIndex, BlockData)> = ks.iter().map(|&k| (k, fill(k))).collect();
            dev.write_blocks(&writes).unwrap();
            let back = dev.read_blocks(&ks).unwrap();
            assert_eq!(back, ks.iter().map(|&k| fill(k)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_runs_the_last_shard_on_the_calling_thread() {
        let spec = spec(Scheme::NaiveAvailableCopy, 4);
        let disks: Vec<_> = (0..4).map(|_| DiskDouble::new(&spec, false)).collect();
        let dev = ReliableDevice::sharded(disks.clone(), spec.manifest().unwrap(), SiteId::new(0));
        let here = std::thread::current().id();
        // The thread each touched shard's sub-batch ran on, in shard order.
        let ran_on = |shards: &[usize]| -> Vec<ThreadId> {
            let split = shards.iter().map(|&s| (s, vec![s])).collect();
            let outcomes = dev.fan_out(split, |_| Job::Read(vec![BlockIndex::new(0)]));
            let positions: Vec<Vec<usize>> = outcomes
                .into_iter()
                .map(|(idxs, answer)| {
                    assert_eq!(answer.unwrap().len(), 1);
                    idxs
                })
                .collect();
            assert_eq!(
                positions,
                shards.iter().map(|&s| vec![s]).collect::<Vec<_>>()
            );
            shards
                .iter()
                .map(|&s| disks[s].transport.readers.lock().pop().unwrap())
                .collect()
        };
        assert!(ran_on(&[]).is_empty());
        // One touched shard: the caller serves it.
        assert_eq!(ran_on(&[2]), [here]);
        assert_eq!(ran_on(&[3]), [here]);
        // Several: the last is the caller's, and every other one runs on its
        // shard's own worker — the same thread, batch after batch.
        let mut worker_of: [Option<ThreadId>; 3] = [None; 3];
        let sets: [&[usize]; 4] = [&[0, 1, 3], &[0, 2], &[1, 2, 3], &[0, 1, 2, 3]];
        for batch in 0..100 {
            let shards = sets[batch % sets.len()];
            let threads = ran_on(shards);
            let (&last, others) = threads.split_last().unwrap();
            assert_eq!(last, here, "batch {batch}");
            for (&s, &t) in shards.iter().zip(others) {
                assert_ne!(t, here, "batch {batch}: shard {s} ran on the caller");
                assert_eq!(
                    *worker_of[s].get_or_insert(t),
                    t,
                    "batch {batch}: shard {s}"
                );
            }
        }
        let workers: std::collections::HashSet<_> = worker_of.iter().flatten().collect();
        assert_eq!(workers.len(), 3, "one worker per shard, none shared");
    }

    /// The disk of a naive-available-copy shard: it reads zeros, noting the
    /// thread of every read, or panics while its switch is on. Only the
    /// local reads of a vectored NAC read reach it.
    struct DiskDouble {
        block_size: usize,
        panics: AtomicBool,
        readers: Mutex<Vec<ThreadId>>,
    }

    impl DiskDouble {
        fn new(spec: &ShardSpec, panics: bool) -> Arc<ServerCluster<DiskDouble>> {
            let cfg = spec.shard_config().unwrap();
            let disk = DiskDouble {
                block_size: cfg.block_size(),
                panics: AtomicBool::new(panics),
                readers: Mutex::new(Vec::new()),
            };
            let coord = Coordinator::new(cfg, DeliveryMode::default());
            Arc::new(ServerCluster::over(coord, disk))
        }
    }

    impl Transport for DiskDouble {
        const NAME: &'static str = "disk double";

        fn call(&self, _: SiteId, request: Request<'_>) -> Option<WireResponse> {
            unreachable!("{request:?}")
        }

        fn cast(&self, _: SiteId, request: Request<'_>) -> bool {
            unreachable!("{request:?}")
        }

        fn local(&self, _: SiteId, request: Request<'_>) -> Option<WireResponse> {
            let Request::ReadLocalMany(ks) = request else {
                unreachable!("{request:?}")
            };
            assert!(
                !self.panics.load(Ordering::SeqCst),
                "disk double: sub-batch read panics"
            );
            self.readers.lock().push(std::thread::current().id());
            let zeros = BlockData::zeroed(self.block_size);
            Some(WireResponse::DataMany(vec![zeros; ks.len()].into()))
        }
    }

    #[test]
    fn a_panicking_shard_worker_fails_the_batch_with_a_typed_error() {
        let spec = spec(Scheme::NaiveAvailableCopy, 2);
        // Shard 0 is a fan-out worker (the last shard runs on the caller).
        let disks = vec![DiskDouble::new(&spec, true), DiskDouble::new(&spec, false)];
        let dev = ReliableDevice::sharded(disks.clone(), spec.manifest().unwrap(), SiteId::new(0));
        let ks: Vec<BlockIndex> = (0..64).map(BlockIndex::new).collect();
        let on = |shard: usize| -> Vec<BlockIndex> {
            ks.iter()
                .copied()
                .filter(|&k| dev.shard_of(k) == shard)
                .collect()
        };
        let (sick, healthy) = (on(0), on(1));
        assert!(!sick.is_empty());
        assert!(!healthy.is_empty());
        let err = dev.read_blocks(&ks).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)), "{err}");
        // The healthy shard alone still answers.
        assert_eq!(dev.read_blocks(&healthy).unwrap().len(), healthy.len());
        // A batch that stays on the panicking shard runs on the caller, as a
        // one-shard device runs it: the panic unwinds to the caller, and the
        // device serves the next batch.
        let unwound = catch_unwind(AssertUnwindSafe(|| dev.read_blocks(&sick)));
        assert!(unwound.is_err(), "a single-shard batch's panic was caught");
        assert_eq!(dev.read_blocks(&healthy).unwrap().len(), healthy.len());
        // The panic did not take the worker down: with the disk mended, the
        // panicking shard answers the next batch.
        disks[0].transport.panics.store(false, Ordering::SeqCst);
        assert_eq!(dev.read_blocks(&ks).unwrap().len(), ks.len());
        // A panic on the shard the caller runs fails the batch the same
        // way, after the worker's sub-batch has come back.
        disks[1].transport.panics.store(true, Ordering::SeqCst);
        let err = dev.read_blocks(&ks).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)), "{err}");
        disks[1].transport.panics.store(false, Ordering::SeqCst);
        assert_eq!(dev.read_blocks(&ks).unwrap().len(), ks.len());
        // And dropping the device stops and joins its worker.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(dev);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "dropping the device hung"
        );
        dropper.join().unwrap();
    }
}
