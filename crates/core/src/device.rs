//! The client face of the reliable device (Figures 1 and 2).
//!
//! In the paper's UNIX deployment, a kernel device-driver *stub* forwards
//! block requests to a user-state server; in the MACH deployment the file
//! system talks to the server over IPC. Either way, what the file system
//! sees is an ordinary block device. [`ReliableDevice`] is that device,
//! with the failover a diskless-workstation client would want (try the
//! preferred server, fall back to any serving site).

use crate::transport::{ServerCluster, Transport};
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, DeviceError, DeviceResult, SiteId};
use std::sync::Arc;

/// The one failover rule, shared with [`ShardedDevice`](crate::ShardedDevice):
/// run `op` through the `preferred` origin, then through the other sites in
/// id order — but only while the coordinator itself cannot serve. A quorum
/// failure is global, and retrying it elsewhere would just repeat it.
pub(crate) fn with_failover<T>(
    cfg: &DeviceConfig,
    preferred: SiteId,
    mut op: impl FnMut(SiteId) -> DeviceResult<T>,
) -> DeviceResult<T> {
    let mut outcome = op(preferred);
    for origin in cfg.site_ids().filter(|&s| s != preferred) {
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
/// quorums and recovery stay entirely below this interface.
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
    cluster: Arc<C>,
    preferred: SiteId,
}

impl<C> Clone for ReliableDevice<C> {
    fn clone(&self) -> Self {
        ReliableDevice {
            cluster: Arc::clone(&self.cluster),
            preferred: self.preferred,
        }
    }
}

// `Transport` is the crate's own seam: nothing outside it can name a `T`
// other than the exported ones.
#[allow(private_bounds)]
impl<T: Transport> ReliableDevice<ServerCluster<T>> {
    /// Creates a device handle that coordinates through `preferred` when
    /// possible.
    ///
    /// # Panics
    ///
    /// Panics if `preferred` is not a site of the device.
    pub fn new(cluster: Arc<ServerCluster<T>>, preferred: SiteId) -> Self {
        assert!(
            cluster.config().contains_site(preferred),
            "unknown site {preferred}"
        );
        ReliableDevice { cluster, preferred }
    }

    /// The preferred coordinator site.
    pub fn preferred(&self) -> SiteId {
        self.preferred
    }

    /// The underlying cluster handle.
    pub fn cluster(&self) -> &Arc<ServerCluster<T>> {
        &self.cluster
    }

    /// Runs `op` under the failover rule, over this device's sites.
    fn failover<R>(&self, op: impl FnMut(SiteId) -> DeviceResult<R>) -> DeviceResult<R> {
        with_failover(self.cluster.config(), self.preferred, op)
    }
}

impl<T: Transport> BlockDevice for ReliableDevice<ServerCluster<T>> {
    fn num_blocks(&self) -> u64 {
        self.cluster.config().num_blocks()
    }

    fn block_size(&self) -> usize {
        self.cluster.config().block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.failover(|origin| self.cluster.read(origin, k))
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        // The payload is borrowed by every attempt: failover retries reuse
        // it, and the common single-origin success path never clones.
        let write = [(k, data)];
        self.failover(|origin| self.cluster.write_many(origin, &write))
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.failover(|origin| self.cluster.read_many(origin, ks))
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        self.failover(|origin| self.cluster.write_many(origin, writes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterOptions};
    use blockrep_types::{DeviceConfig, Scheme};

    fn cluster(scheme: Scheme) -> Arc<Cluster> {
        let cfg = DeviceConfig::builder(scheme)
            .sites(3)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap();
        Arc::new(Cluster::new(cfg, ClusterOptions::default()))
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
}
