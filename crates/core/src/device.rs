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
//! A batch that spans shards is split by shard, the admission gate of
//! every touched shard is taken in **ascending shard index** (the same
//! lock-order discipline the workspace lint verifies on
//! `TcpTransport::scatter`), the caller runs every sub-batch in turn in
//! that order, and the replies are stitched back in caller order. The
//! device starts no thread.
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
use std::sync::Arc;

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
/// [`ServerCluster`] of its own over any runtime's transport. Every batch
/// runs on the calling thread, a cross-shard one shard after shard.
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
    /// once deadlock-free.
    gates: Vec<Mutex<()>>,
}

// `Transport` is the crate's own seam: nothing outside it can name a `T`
// other than the exported ones.
#[allow(private_bounds)]
impl<T: Transport> ReliableDevice<ServerCluster<T>> {
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
            n => (0..n).map(|_| Mutex::new(())).collect(),
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

    /// Runs `op` on every `(shard, positions)` pair of `split` from the
    /// calling thread, one shard after another in ascending order, each
    /// under the failover rule, and returns the first failure.
    ///
    /// Every touched shard's admission gate is taken before any sub-batch
    /// starts and held until the last has finished, so concurrent
    /// cross-shard batches serialize per shard. Because a batch holds
    /// several gates at once, acquisition order is a deadlock invariant:
    /// `split_by_shard` hands us shards ascending and the assert pins that
    /// discipline.
    ///
    /// A sub-batch that fails, or panics in the shard's protocol code,
    /// fails alone: every later shard still runs and commits, and the panic
    /// becomes [`DeviceError::Io`] instead of unwinding past sub-batches
    /// that have already committed.
    fn fan_out(
        &self,
        split: Vec<(usize, Vec<usize>)>,
        mut op: impl FnMut(&ServerCluster<T>, SiteId, &[usize]) -> DeviceResult<()>,
    ) -> DeviceResult<()> {
        let mut held: Vec<(usize, MutexGuard<'_, ()>)> = Vec::with_capacity(split.len());
        for &(s, _) in &split {
            debug_assert!(
                held.last().is_none_or(|&(prev, _)| prev < s),
                "shard gates must be acquired in ascending shard order"
            );
            let gate = self.gates[s].lock();
            held.push((s, gate));
        }
        let mut first_failure = Ok(());
        for (s, idxs) in &split {
            let shard = &*self.shards[*s];
            let run = || failover(shard, self.preferred, |origin| op(shard, origin, idxs));
            let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
                let panicked = std::io::Error::other("shard sub-batch panicked");
                Err(DeviceError::Io(panicked))
            });
            first_failure = first_failure.and(outcome);
        }
        first_failure
    }
}

/// A shard answered a read with fewer blocks than it was asked for.
fn short_read() -> DeviceError {
    DeviceError::Io(std::io::Error::other(
        "shard returned fewer blocks than requested",
    ))
}

impl<T: Transport> BlockDevice for ReliableDevice<ServerCluster<T>> {
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
        let mut stitched: Vec<Option<BlockData>> = vec![None; ks.len()];
        self.fan_out(split, |shard, origin, idxs| {
            let sub: Vec<BlockIndex> = idxs.iter().map(|&i| ks[i]).collect();
            for (&slot, data) in idxs.iter().zip(shard.read_many(origin, &sub)?) {
                stitched[slot] = Some(data);
            }
            Ok(())
        })?;
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
        // Healthy shards commit even after a lower one failed: the first
        // failed sub-batch is reported without undoing the others.
        self.fan_out(split, |shard, origin, idxs| {
            let sub: Vec<_> = idxs.iter().map(|&i| writes[i].clone()).collect();
            shard.write_many(origin, &sub)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Inline;
    use crate::shard::ShardSpec;
    use crate::wire::{Request, WireResponse};
    use crate::{Cluster, ClusterOptions};
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

    /// A naive-available-copy shard served by the deterministic runtime's
    /// replicas, with two hooks: it notes every local read as `(shard,
    /// thread)` in a log its sibling shards share (a vectored NAC read
    /// makes one, on its coordinator), and it panics on every request while
    /// its switch is on.
    struct DiskDouble {
        shard: usize,
        inner: Inline,
        panics: AtomicBool,
        reads: ReadLog,
    }

    type ReadLog = Arc<Mutex<Vec<(usize, ThreadId)>>>;

    impl DiskDouble {
        /// `spec`'s shards, each over a double, and their shared read log.
        fn shards(spec: &ShardSpec) -> (Vec<Arc<ServerCluster<DiskDouble>>>, ReadLog) {
            let reads = ReadLog::default();
            let disks = (0..spec.shards)
                .map(|shard| {
                    let cfg = spec.shard_config().unwrap();
                    let (coord, inner) = Cluster::new(cfg, ClusterOptions::default()).into_parts();
                    let disk = DiskDouble {
                        shard,
                        inner,
                        panics: AtomicBool::new(false),
                        reads: Arc::clone(&reads),
                    };
                    Arc::new(ServerCluster::over(coord, disk))
                })
                .collect();
            (disks, reads)
        }

        fn admit(&self, request: &Request<'_>) {
            assert!(
                !self.panics.load(Ordering::SeqCst),
                "disk double: {request:?} panics"
            );
        }
    }

    impl Transport for DiskDouble {
        const NAME: &'static str = "disk double";

        fn call(&self, to: SiteId, request: Request<'_>) -> Option<WireResponse> {
            self.admit(&request);
            self.inner.call(to, request)
        }

        fn cast(&self, to: SiteId, request: Request<'_>) -> bool {
            self.admit(&request);
            self.inner.cast(to, request)
        }

        fn local(&self, s: SiteId, request: Request<'_>) -> Option<WireResponse> {
            self.admit(&request);
            if let Request::ReadLocalMany(_) = request {
                let here = std::thread::current().id();
                self.reads.lock().push((self.shard, here));
            }
            self.inner.local(s, request)
        }
    }

    #[test]
    fn a_cross_shard_batch_runs_its_sub_batches_on_the_caller_in_shard_order() {
        let spec = spec(Scheme::NaiveAvailableCopy, 4);
        let (disks, reads) = DiskDouble::shards(&spec);
        let dev = ReliableDevice::sharded(disks, spec.manifest().unwrap(), SiteId::new(0));
        let here = std::thread::current().id();
        let block_on = |s: usize| {
            (0..64)
                .map(BlockIndex::new)
                .find(|&k| dev.shard_of(k) == s)
                .unwrap()
        };
        let sets: [&[usize]; 6] = [&[2], &[3], &[0, 1, 3], &[0, 2], &[1, 2, 3], &[0, 1, 2, 3]];
        for shards in sets {
            // The caller lists the shards' blocks highest shard first.
            let ks: Vec<BlockIndex> = shards.iter().rev().map(|&s| block_on(s)).collect();
            assert_eq!(dev.read_blocks(&ks).unwrap().len(), ks.len());
            let ran = std::mem::take(&mut *reads.lock());
            let ascending_here: Vec<_> = shards.iter().map(|&s| (s, here)).collect();
            assert_eq!(ran, ascending_here, "shards {shards:?}");
        }
    }

    #[test]
    fn a_panicking_sub_batch_fails_alone_with_a_typed_error() {
        let spec = spec(Scheme::NaiveAvailableCopy, 2);
        let (disks, _) = DiskDouble::shards(&spec);
        disks[0].transport.panics.store(true, Ordering::SeqCst);
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
        // A batch that stays on the panicking shard runs as a one-shard
        // device runs it: the panic unwinds to the caller, and the device
        // serves the next batch.
        let unwound = catch_unwind(AssertUnwindSafe(|| dev.read_blocks(&sick)));
        assert!(unwound.is_err(), "a single-shard batch's panic was caught");
        assert_eq!(dev.read_blocks(&healthy).unwrap().len(), healthy.len());
        // A panic in the lower shard's sub-batch of a write fails the batch,
        // and the higher shard's sub-batch still runs and commits.
        let fill = |v: u8| -> Vec<(BlockIndex, BlockData)> {
            ks.iter()
                .map(|&k| (k, BlockData::from(vec![v; 8])))
                .collect()
        };
        let err = dev.write_blocks(&fill(7)).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)), "{err}");
        // With the disk mended, the panicking shard answers the next batch,
        // and its failed sub-batch left no trace.
        disks[0].transport.panics.store(false, Ordering::SeqCst);
        let holds = |sick_fill: u8, healthy_fill: u8| {
            let back = dev.read_blocks(&ks).unwrap();
            for (&k, data) in ks.iter().zip(back) {
                let v = [sick_fill, healthy_fill][dev.shard_of(k)];
                assert_eq!(data.as_slice(), [v; 8], "block {k}");
            }
        };
        holds(0, 7);
        // A panic on the highest shard, which runs last, fails the batch the
        // same way, after the lower shard's sub-batch has committed.
        disks[1].transport.panics.store(true, Ordering::SeqCst);
        let err = dev.write_blocks(&fill(9)).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)), "{err}");
        disks[1].transport.panics.store(false, Ordering::SeqCst);
        holds(9, 7);
        // And dropping the device does not hang.
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
