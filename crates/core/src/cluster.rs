//! The deterministic in-process cluster.

use crate::backend::{Backend, Coordinator, WriteBatch};
use crate::{protocol, replica::Replica};
use blockrep_net::{DeliveryMode, TrafficCounter, TrafficSnapshot};
use blockrep_storage::SealedBlock;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, SiteId, SiteState, VersionNumber,
    VersionVector,
};
use parking_lot::Mutex;
use std::collections::BTreeSet;

/// Runtime options for a cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterOptions {
    /// The network environment (multicast or unique addressing), which
    /// determines the fan-out cost rule for traffic accounting (§5).
    pub mode: DeliveryMode,
}

/// A reliable device's worth of replicas, run deterministically inside one
/// process: message exchanges are synchronous state accesses, charged to the
/// traffic counter exactly as §5 counts them.
///
/// This is the reference runtime — every protocol test, property test and
/// simulation harness drives it — and it is also a perfectly serviceable
/// embedded runtime when the "sites" are fault domains inside one process.
/// For actual server processes exchanging messages, see
/// [`LiveCluster`](crate::LiveCluster), which runs the *same* protocol code.
///
/// All methods take `&self`; internal state is locked, so a device handle
/// and a failure injector can act concurrently.
///
/// # Examples
///
/// ```
/// use blockrep_core::{Cluster, ClusterOptions};
/// use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let cfg = DeviceConfig::builder(Scheme::Voting).sites(5).num_blocks(2).block_size(4).build()?;
/// let cluster = Cluster::new(cfg, ClusterOptions::default());
/// let k = BlockIndex::new(0);
/// cluster.write(SiteId::new(0), k, BlockData::from(vec![1, 2, 3, 4]))?;
///
/// // Two failures still leave a 3-of-5 majority.
/// cluster.fail_site(SiteId::new(0));
/// cluster.fail_site(SiteId::new(1));
/// assert_eq!(cluster.read(SiteId::new(4), k)?.as_slice(), &[1, 2, 3, 4]);
///
/// // A third failure breaks the quorum.
/// cluster.fail_site(SiteId::new(2));
/// assert!(cluster.read(SiteId::new(4), k).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cluster {
    coord: Coordinator,
    /// One lock per site: an exchange with site `s` touches only `s`'s
    /// replica, so exchanges with distinct sites never serialize. Ops on
    /// the *same block* are serialized above this layer by the
    /// coordinator's block locks — the per-replica mutexes only make
    /// individual exchanges atomic.
    replicas: Vec<Mutex<Replica>>,
}

impl Cluster {
    /// Creates a freshly formatted cluster: every site available, every
    /// block zeroed at version zero.
    pub fn new(cfg: DeviceConfig, options: ClusterOptions) -> Self {
        let replicas = cfg
            .site_ids()
            .map(|s| Mutex::new(Replica::new(s, &cfg)))
            .collect();
        Cluster {
            coord: Coordinator::new(cfg, options.mode),
            replicas,
        }
    }

    /// Deep-copies the cluster into an independent one: same replica
    /// contents, states, was-available sets and topology, with a fresh
    /// traffic counter (and a fresh, empty lease table). The
    /// model-checking tests use this to explore every interleaving of
    /// failures, repairs and writes from a common prefix.
    pub fn fork(&self) -> Cluster {
        Cluster {
            coord: self.coord.fork(),
            replicas: self
                .replicas
                .iter()
                .map(|r| Mutex::new(r.lock().clone()))
                .collect(),
        }
    }

    /// Opts reads in (or out) of lease-based read offload (see
    /// [`crate::locks`]): after each successful quorum operation the
    /// coordinator remembers which replicas are current, and later reads
    /// are served from one of them in a single round instead of gathering
    /// a read quorum. Off by default.
    pub fn set_leases(&self, on: bool) {
        self.coord.leases.set_enabled(on);
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.coord.cfg
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.coord.cfg.num_sites()
    }

    /// Reads block `k`, coordinated by site `origin`.
    ///
    /// # Errors
    ///
    /// See the scheme algorithms: [`DeviceError::Unavailable`] without a
    /// read quorum (voting), [`DeviceError::SiteNotServing`] when `origin`
    /// cannot coordinate, and the usual validation errors.
    ///
    /// [`DeviceError::Unavailable`]: blockrep_types::DeviceError::Unavailable
    /// [`DeviceError::SiteNotServing`]: blockrep_types::DeviceError::SiteNotServing
    pub fn read(&self, origin: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        protocol::read(self, origin, k)
    }

    /// Writes block `k`, coordinated by site `origin`.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read), against the write quorum.
    pub fn write(&self, origin: SiteId, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        protocol::write(self, origin, k, &data)
    }

    /// Reads a run of distinct blocks in one batched protocol round.
    /// Byte- and traffic-identical to per-block [`read`](Self::read)s.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read); the quorum check covers the batch.
    pub fn read_many(&self, origin: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        protocol::read_many(self, origin, ks)
    }

    /// Writes a run of distinct blocks in one batched protocol round.
    /// State- and traffic-identical to per-block [`write`](Self::write)s.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write); the quorum check covers the batch.
    pub fn write_many(
        &self,
        origin: SiteId,
        writes: &[(BlockIndex, BlockData)],
    ) -> DeviceResult<()> {
        protocol::write_many(self, origin, writes)
    }

    /// Fail-stops site `s`: its server halts (keeping its disk), and under
    /// available copy with on-failure tracking the survivors refresh their
    /// was-available sets.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a site of this device.
    pub fn fail_site(&self, s: SiteId) {
        assert!(self.coord.cfg.contains_site(s), "unknown site {s}");
        protocol::fail(self, s);
    }

    /// Restarts site `s` after a failure and runs the scheme's recovery:
    /// free and immediate for voting; comatose-then-recover for the
    /// available copy schemes.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a site of this device or is not currently
    /// failed.
    pub fn repair_site(&self, s: SiteId) {
        assert!(self.coord.cfg.contains_site(s), "unknown site {s}");
        assert_eq!(
            self.site_state(s),
            SiteState::Failed,
            "repairing a site that is not failed"
        );
        protocol::repair(self, s);
    }

    /// Splits the network into partitions (see
    /// [`Topology::partition`](blockrep_net::Topology::partition)). The
    /// available copy schemes assume this never happens; the hook exists so
    /// tests can demonstrate why.
    pub fn partition(&self, groups: &[Vec<SiteId>]) {
        protocol::partition(self, groups);
    }

    /// Heals all partitions and re-runs the recovery sweep (recoveries that
    /// were blocked on unreachable closure members can now complete).
    pub fn heal(&self) {
        protocol::heal(self);
    }

    /// The state of site `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a site of this device.
    pub fn site_state(&self, s: SiteId) -> SiteState {
        self.local_state(s)
    }

    /// Whether the replicated block is available under the scheme's own
    /// criterion: a live quorum (voting) or an available copy (the others).
    pub fn is_available(&self) -> bool {
        protocol::is_available(self)
    }

    /// A site currently able to coordinate reads and writes, if any —
    /// lowest id first, for determinism.
    pub fn any_serving_site(&self) -> Option<SiteId> {
        let voting = self.coord.cfg.scheme() == blockrep_types::Scheme::Voting;
        self.coord.cfg.site_ids().find(|&s| {
            let state = self.local_state(s);
            if voting {
                state.is_operational()
            } else {
                state.can_serve()
            }
        })
    }

    /// The shared high-level transmission counter.
    pub fn counter(&self) -> &TrafficCounter {
        &self.coord.counter
    }

    /// Convenience: a point-in-time snapshot of the traffic counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.coord.counter.snapshot()
    }

    /// Inspection: the version site `s` holds for block `k` (test support).
    pub fn version_of(&self, s: SiteId, k: BlockIndex) -> VersionNumber {
        self.replicas[s.index()].lock().version(k)
    }

    /// Inspection: the raw data site `s` holds for block `k` (test
    /// support — this bypasses the consistency protocol).
    pub fn data_of(&self, s: SiteId, k: BlockIndex) -> BlockData {
        self.replicas[s.index()].lock().data(k)
    }

    /// Inspection: site `s`'s was-available set.
    pub fn was_available_of(&self, s: SiteId) -> BTreeSet<SiteId> {
        self.replicas[s.index()].lock().was_available().clone()
    }

    /// Site `to`'s replica as an exchange from `from` finds it: `None`
    /// when `to` is unreachable from `from`.
    fn exchange(&self, from: SiteId, to: SiteId) -> Option<parking_lot::MutexGuard<'_, Replica>> {
        self.coord
            .links
            .reachable(from, to)
            .then(|| self.replicas[to.index()].lock())
    }
}

impl Backend for Cluster {
    fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    fn vote(&self, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        Some(self.exchange(from, to)?.version(k))
    }

    fn vote_many(&self, from: SiteId, to: SiteId, ks: &[BlockIndex]) -> Option<Vec<VersionNumber>> {
        let replica = self.exchange(from, to)?;
        Some(ks.iter().map(|&k| replica.version(k)).collect())
    }

    fn fetch_block(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
    ) -> Option<(VersionNumber, BlockData)> {
        Some(self.exchange(from, to)?.versioned(k))
    }

    fn apply_write(&self, from: SiteId, to: SiteId, k: BlockIndex, block: &SealedBlock) -> bool {
        let Some(mut replica) = self.exchange(from, to) else {
            return false;
        };
        replica.install_sealed(k, block.clone());
        true
    }

    fn apply_write_many(&self, from: SiteId, to: SiteId, writes: &WriteBatch) -> bool {
        let Some(mut replica) = self.exchange(from, to) else {
            return false;
        };
        for (k, block) in writes.iter() {
            replica.install_sealed(*k, block.clone());
        }
        true
    }

    fn read_local(&self, s: SiteId, k: BlockIndex) -> DeviceResult<BlockData> {
        Ok(self.replicas[s.index()].lock().data(k))
    }

    fn read_local_many(&self, s: SiteId, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        let replica = self.replicas[s.index()].lock();
        Ok(ks.iter().map(|&k| replica.data(k)).collect())
    }

    fn version_vector(&self, from: SiteId, to: SiteId) -> Option<VersionVector> {
        Some(self.exchange(from, to)?.version_vector())
    }

    fn repair_payload(
        &self,
        from: SiteId,
        to: SiteId,
        vv: &VersionVector,
    ) -> Option<crate::backend::RepairPayload> {
        Some(self.exchange(from, to)?.repair_payload(vv))
    }

    fn apply_repair_local(&self, s: SiteId, blocks: crate::backend::RepairBlocks) -> usize {
        self.replicas[s.index()].lock().apply_repair(blocks)
    }

    fn was_available(&self, from: SiteId, to: SiteId) -> Option<BTreeSet<SiteId>> {
        Some(self.exchange(from, to)?.was_available().clone())
    }

    fn set_was_available(&self, from: SiteId, to: SiteId, w: &[SiteId]) -> bool {
        let Some(mut replica) = self.exchange(from, to) else {
            return false;
        };
        // A write group is usually the one already recorded: keep that set
        // rather than build an equal one.
        if !replica.was_available().iter().eq(w) {
            replica.set_was_available(w.iter().copied().collect());
        }
        true
    }

    fn add_was_available(&self, from: SiteId, to: SiteId, member: SiteId) -> bool {
        let Some(mut replica) = self.exchange(from, to) else {
            return false;
        };
        replica.add_was_available(member);
        true
    }

    fn apply_write_faulty(
        &self,
        from: SiteId,
        to: SiteId,
        k: BlockIndex,
        data: &BlockData,
        v: VersionNumber,
        fault: blockrep_storage::StorageFault,
    ) -> bool {
        let Some(mut replica) = self.exchange(from, to) else {
            return false;
        };
        replica.install_faulty(k, data.clone(), v, fault);
        true
    }

    fn scrub_local(&self, s: SiteId) -> usize {
        self.replicas[s.index()].lock().scrub().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::Scheme;

    fn cluster(scheme: Scheme, n: usize) -> Cluster {
        let cfg = DeviceConfig::builder(scheme)
            .sites(n)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap();
        Cluster::new(cfg, ClusterOptions::default())
    }

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn block(fill: u8) -> BlockData {
        BlockData::from(vec![fill; 8])
    }

    #[test]
    fn fork_is_independent() {
        let c = cluster(Scheme::AvailableCopy, 3);
        c.write(sid(0), BlockIndex::new(0), block(1)).unwrap();
        c.fail_site(sid(2));
        let f = c.fork();
        // Same state at fork time…
        assert_eq!(f.site_state(sid(2)), blockrep_types::SiteState::Failed);
        assert_eq!(f.data_of(sid(0), BlockIndex::new(0)), block(1));
        assert_eq!(f.traffic().total(), 0, "fork starts with a fresh counter");
        // …and divergence afterwards.
        f.write(sid(0), BlockIndex::new(0), block(2)).unwrap();
        assert_eq!(c.data_of(sid(0), BlockIndex::new(0)), block(1));
        assert_eq!(f.data_of(sid(0), BlockIndex::new(0)), block(2));
    }

    #[test]
    fn fresh_cluster_reads_zeroes_under_all_schemes() {
        for scheme in Scheme::ALL {
            let c = cluster(scheme, 3);
            let data = c.read(sid(0), BlockIndex::new(0)).unwrap();
            assert!(data.is_zeroed(), "{scheme}");
            assert!(c.is_available());
        }
    }

    #[test]
    fn write_then_read_roundtrips_under_all_schemes() {
        for scheme in Scheme::ALL {
            let c = cluster(scheme, 3);
            let k = BlockIndex::new(2);
            c.write(sid(1), k, block(0xAB)).unwrap();
            for s in 0..3 {
                assert_eq!(
                    c.read(sid(s), k).unwrap(),
                    block(0xAB),
                    "{scheme} from s{s}"
                );
            }
        }
    }

    #[test]
    fn writes_propagate_to_all_sites_synchronously() {
        for scheme in Scheme::ALL {
            let c = cluster(scheme, 3);
            let k = BlockIndex::new(0);
            c.write(sid(0), k, block(7)).unwrap();
            for s in 0..3 {
                assert_eq!(c.data_of(sid(s), k), block(7), "{scheme}");
                assert_eq!(c.version_of(sid(s), k), VersionNumber::new(1), "{scheme}");
            }
        }
    }

    #[test]
    fn out_of_range_and_wrong_size_rejected() {
        for scheme in Scheme::ALL {
            let c = cluster(scheme, 3);
            assert!(c.read(sid(0), BlockIndex::new(4)).is_err(), "{scheme}");
            assert!(c
                .write(sid(0), BlockIndex::new(0), BlockData::zeroed(7))
                .is_err());
        }
    }

    #[test]
    fn unknown_origin_rejected() {
        let c = cluster(Scheme::Voting, 3);
        assert!(matches!(
            c.read(sid(9), BlockIndex::new(0)),
            Err(blockrep_types::DeviceError::UnknownSite(_))
        ));
    }

    #[test]
    #[should_panic(expected = "not failed")]
    fn repairing_a_running_site_panics() {
        let c = cluster(Scheme::Voting, 3);
        c.repair_site(sid(0));
    }

    #[test]
    fn voting_loses_availability_without_majority() {
        let c = cluster(Scheme::Voting, 3);
        c.fail_site(sid(0));
        assert!(c.is_available());
        c.fail_site(sid(1));
        assert!(!c.is_available());
        let err = c.read(sid(2), BlockIndex::new(0)).unwrap_err();
        assert!(err.is_unavailable());
    }

    #[test]
    fn available_copy_serves_down_to_one_copy() {
        for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
            let c = cluster(scheme, 3);
            let k = BlockIndex::new(1);
            c.write(sid(0), k, block(5)).unwrap();
            c.fail_site(sid(0));
            c.fail_site(sid(1));
            assert!(c.is_available(), "{scheme}");
            assert_eq!(c.read(sid(2), k).unwrap(), block(5), "{scheme}");
            c.write(sid(2), k, block(6)).unwrap();
            assert_eq!(c.read(sid(2), k).unwrap(), block(6), "{scheme}");
        }
    }

    #[test]
    fn a_batch_is_one_exchange_whole_or_not_at_all() {
        let c = cluster(Scheme::Voting, 3);
        let ks: Vec<BlockIndex> = (0..4).map(BlockIndex::new).collect();
        let batch = |v: u64| -> WriteBatch {
            ks.iter()
                .map(|&k| (k, VersionNumber::new(v), block(v as u8 + k.as_u64() as u8)))
                .collect()
        };
        let holds = |s: SiteId, (k, block): &(BlockIndex, SealedBlock)| {
            (c.version_of(s, *k), c.data_of(s, *k)) == (block.version(), block.data().clone())
        };
        // A reachable target: each batch answer is the per-block answers.
        for s in [sid(1), sid(2)] {
            assert!(c.apply_write_many(sid(0), s, &batch(1)));
            assert!(batch(1).iter().all(|write| holds(s, write)));
            let votes: Option<Vec<_>> = ks.iter().map(|&k| c.vote(sid(0), s, k)).collect();
            assert_eq!(c.vote_many(sid(0), s, &ks), votes);
            let reads: Vec<_> = ks.iter().map(|&k| c.read_local(s, k).unwrap()).collect();
            assert_eq!(c.read_local_many(s, &ks).unwrap(), reads);
        }
        // A failed and a partitioned-away target: no votes, and not one
        // block of the batch installed.
        c.fail_site(sid(2));
        c.partition(&[vec![sid(0)], vec![sid(1), sid(2)]]);
        for s in [sid(1), sid(2)] {
            assert_eq!(c.vote_many(sid(0), s, &ks), None);
            assert!(!c.apply_write_many(sid(0), s, &batch(2)));
            assert!(batch(1).iter().all(|write| holds(s, write)));
        }
        // A site's own disk answers it even while the site is failed.
        let own: Vec<BlockData> = batch(1).iter().map(|(_, b)| b.data().clone()).collect();
        assert_eq!(c.read_local_many(sid(2), &ks).unwrap(), own);
    }

    #[test]
    fn a_recovery_waits_for_a_writer_in_flight() {
        for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
            let c = cluster(scheme, 3);
            let (k, v) = (BlockIndex::new(0), VersionNumber::new(1));
            c.fail_site(sid(2));
            // A writer coordinated at s0 holds k's shard and has installed at
            // s1, not yet at s0 — the source a recovery of s2 copies from.
            let writer = c.block_locks().write_guard(k);
            let sealed = SealedBlock::new(v, block(9));
            c.apply_write(sid(0), sid(1), k, &sealed);
            std::thread::scope(|scope| {
                let repair = scope.spawn(|| c.repair_site(sid(2)));
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert_ne!(
                    c.site_state(sid(2)),
                    SiteState::Available,
                    "{scheme}: s2 promoted past a write in flight"
                );
                c.apply_write(sid(0), sid(0), k, &sealed);
                drop(writer);
                repair.join().unwrap();
            });
            assert_eq!(c.site_state(sid(2)), SiteState::Available, "{scheme}");
            assert_eq!(c.read(sid(2), k).unwrap(), block(9), "{scheme}");
        }
    }

    #[test]
    fn any_serving_site_tracks_failures() {
        let c = cluster(Scheme::AvailableCopy, 3);
        assert_eq!(c.any_serving_site(), Some(sid(0)));
        c.fail_site(sid(0));
        assert_eq!(c.any_serving_site(), Some(sid(1)));
        c.fail_site(sid(1));
        c.fail_site(sid(2));
        assert_eq!(c.any_serving_site(), None);
    }
}
