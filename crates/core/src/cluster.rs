//! The deterministic in-process cluster: the one [`ServerCluster`] over a
//! transport that crosses nothing.

use crate::backend::Coordinator;
use crate::replica::Replica;
use crate::service::serve;
use crate::transport::{Links, ServerCluster, Transport};
use crate::wire::{Request, WireResponse};
use blockrep_net::DeliveryMode;
use blockrep_types::{DeviceConfig, SiteId};
use parking_lot::Mutex;

/// Runtime options for a cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterOptions {
    /// The network environment (multicast or unique addressing), which
    /// determines the fan-out cost rule for traffic accounting (§5).
    pub mode: DeliveryMode,
}

/// The in-process transport: every site's request, remote or local, is
/// served by the one site service on the caller's thread, under that
/// site's replica mutex. The coordinator's links decide first whether a
/// remote request is sent at all, as on every transport; what it borrows
/// is never copied, so a round allocates nothing and a written block is
/// sealed once for every replica.
pub struct Inline {
    /// One lock per site: an exchange with site `s` touches only `s`'s
    /// replica, so exchanges with distinct sites never serialize. Ops on
    /// the *same block* are serialized above this layer by the
    /// coordinator's block locks — the per-replica mutexes only make
    /// individual exchanges atomic.
    replicas: Vec<Mutex<Replica>>,
    links: Links,
}

impl Transport for Inline {
    const NAME: &'static str = "deterministic";

    #[inline(always)]
    fn call(&self, to: SiteId, request: Request<'_>) -> Option<WireResponse> {
        // A remote round trip pays the emulated link delay, as it does on
        // every runtime; a cast, like a live one, does not.
        self.links.delay();
        self.local(to, request)
    }

    #[inline(always)]
    fn cast(&self, to: SiteId, request: Request<'_>) -> bool {
        self.local(to, request).is_some()
    }

    #[inline(always)]
    fn local(&self, s: SiteId, request: Request<'_>) -> Option<WireResponse> {
        serve(&mut self.replicas[s.index()].lock(), request)
    }
}

/// A reliable device's worth of replicas, run deterministically inside one
/// process: message exchanges are synchronous calls of the site service,
/// charged to the traffic counter exactly as §5 counts them.
///
/// This is the reference runtime — every protocol test, property test and
/// simulation harness drives it — and it is also a perfectly serviceable
/// embedded runtime when the "sites" are fault domains inside one process.
/// It runs the protocol code and the site service of
/// [`LiveCluster`](crate::LiveCluster) and [`TcpCluster`](crate::TcpCluster);
/// only the [`Inline`] transport differs.
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
pub type Cluster = ServerCluster<Inline>;

impl ServerCluster<Inline> {
    /// Creates a freshly formatted cluster: every site available, every
    /// block zeroed at version zero.
    pub fn new(cfg: DeviceConfig, options: ClusterOptions) -> Self {
        let coord = Coordinator::new(cfg, options.mode);
        let replicas = coord
            .cfg
            .site_ids()
            .map(|s| Mutex::new(Replica::new(s, &coord.cfg)))
            .collect();
        let links = coord.links.clone();
        ServerCluster::over(coord, Inline { replicas, links })
    }

    /// Deep-copies the cluster into an independent one: same replica
    /// contents, states, was-available sets and topology, with a fresh
    /// traffic counter (and a fresh, empty lease table). The
    /// model-checking tests use this to explore every interleaving of
    /// failures, repairs and writes from a common prefix.
    pub fn fork(&self) -> Cluster {
        let coord = self.coord.fork();
        let replicas = self
            .transport
            .replicas
            .iter()
            .map(|r| Mutex::new(r.lock().clone()))
            .collect();
        let links = coord.links.clone();
        ServerCluster::over(coord, Inline { replicas, links })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::WriteBatch;
    use blockrep_storage::SealedBlock;
    use blockrep_types::{BlockData, BlockIndex, Scheme, SiteState, VersionNumber};

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
            let votes: Option<Vec<_>> = ks
                .iter()
                .map(|&k| Some(c.vote_many(sid(0), s, &[k])?[0]))
                .collect();
            assert_eq!(c.vote_many(sid(0), s, &ks).map(|vs| vs.into_vec()), votes);
            let reads: Vec<_> = ks
                .iter()
                .map(|&k| c.read_local_many(s, &[k]).unwrap()[0].clone())
                .collect();
            assert_eq!(*c.read_local_many(s, &ks).unwrap(), reads);
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
        assert_eq!(*c.read_local_many(sid(2), &ks).unwrap(), own);
    }

    #[test]
    fn a_recovery_waits_for_a_writer_in_flight() {
        for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
            let c = cluster(scheme, 3);
            let (k, v) = (BlockIndex::new(0), VersionNumber::new(1));
            c.fail_site(sid(2));
            // A writer coordinated at s0 holds k's shard and has installed at
            // s1, not yet at s0 — the source a recovery of s2 copies from.
            let writer = c.coord.locks.write_guard(k);
            let sealed: WriteBatch = [(k, v, block(9))].into_iter().collect();
            c.apply_write_many(sid(0), sid(1), &sealed);
            std::thread::scope(|scope| {
                let repair = scope.spawn(|| c.repair_site(sid(2)));
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert_ne!(
                    c.site_state(sid(2)),
                    SiteState::Available,
                    "{scheme}: s2 promoted past a write in flight"
                );
                c.apply_write_many(sid(0), sid(0), &sealed);
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
