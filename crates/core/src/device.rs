//! The client face of the reliable device (Figures 1 and 2).
//!
//! In the paper's UNIX deployment, a kernel device-driver *stub* forwards
//! block requests to a user-state server; in the MACH deployment the file
//! system talks to the server over IPC. Either way, what the file system
//! sees is an ordinary block device. [`DriverStub`] models the pinned,
//! single-server stub exactly; [`ReliableDevice`] adds the failover a
//! diskless-workstation client would want (try the preferred server, fall
//! back to any serving site).

use crate::backend::Backend;
use crate::protocol;
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

/// A block device served by one pinned site, like the kernel stub of
/// Figure 1: every request is forwarded to the same server, and if that
/// server is down the request fails.
///
/// # Examples
///
/// ```
/// use blockrep_core::{Cluster, ClusterOptions, DriverStub};
/// use blockrep_storage::BlockDevice;
/// use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy).sites(3).build()?;
/// let cluster = Arc::new(Cluster::new(cfg, ClusterOptions::default()));
/// let stub = DriverStub::new(Arc::clone(&cluster), SiteId::new(0));
/// stub.write_block(BlockIndex::new(0), BlockData::zeroed(512))?;
/// cluster.fail_site(SiteId::new(0));
/// assert!(stub.read_block(BlockIndex::new(0)).is_err()); // pinned server down
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DriverStub<C> {
    cluster: Arc<C>,
    site: SiteId,
}

impl<C> Clone for DriverStub<C> {
    fn clone(&self) -> Self {
        DriverStub {
            cluster: Arc::clone(&self.cluster),
            site: self.site,
        }
    }
}

impl<C: Backend> DriverStub<C> {
    /// Creates a stub forwarding to the server process on `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not a site of the device.
    pub fn new(cluster: Arc<C>, site: SiteId) -> Self {
        assert!(cluster.config().contains_site(site), "unknown site {site}");
        DriverStub { cluster, site }
    }

    /// The site this stub forwards to.
    pub fn site(&self) -> SiteId {
        self.site
    }
}

impl<C: Backend> BlockDevice for DriverStub<C> {
    fn num_blocks(&self) -> u64 {
        self.cluster.config().num_blocks()
    }

    fn block_size(&self) -> usize {
        self.cluster.config().block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        protocol::read(&*self.cluster, self.site, k)
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        protocol::write(&*self.cluster, self.site, k, &data)
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        protocol::read_many(&*self.cluster, self.site, ks)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        protocol::write_many(&*self.cluster, self.site, writes)
    }
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

impl<C: Backend> ReliableDevice<C> {
    /// Creates a device handle that coordinates through `preferred` when
    /// possible.
    ///
    /// # Panics
    ///
    /// Panics if `preferred` is not a site of the device.
    pub fn new(cluster: Arc<C>, preferred: SiteId) -> Self {
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
    pub fn cluster(&self) -> &Arc<C> {
        &self.cluster
    }

    /// Runs `op` under the failover rule, over this device's sites.
    fn failover<T>(&self, op: impl FnMut(SiteId) -> DeviceResult<T>) -> DeviceResult<T> {
        with_failover(self.cluster.config(), self.preferred, op)
    }
}

impl<C: Backend> BlockDevice for ReliableDevice<C> {
    fn num_blocks(&self) -> u64 {
        self.cluster.config().num_blocks()
    }

    fn block_size(&self) -> usize {
        self.cluster.config().block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.failover(|origin| protocol::read(&*self.cluster, origin, k))
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        // The payload is borrowed by every attempt: failover retries reuse
        // it, and the common single-origin success path never clones.
        self.failover(|origin| protocol::write(&*self.cluster, origin, k, &data))
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.failover(|origin| protocol::read_many(&*self.cluster, origin, ks))
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        self.failover(|origin| protocol::write_many(&*self.cluster, origin, writes))
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

    #[test]
    fn driver_stub_is_pinned() {
        let c = cluster(Scheme::AvailableCopy);
        let stub = DriverStub::new(Arc::clone(&c), SiteId::new(1));
        assert_eq!(stub.site(), SiteId::new(1));
        stub.write_block(BlockIndex::new(2), BlockData::from(vec![3; 8]))
            .unwrap();
        c.fail_site(SiteId::new(1));
        assert!(stub.read_block(BlockIndex::new(2)).is_err());
        // Unpinned handle still works.
        let dev = ReliableDevice::new(Arc::clone(&c), SiteId::new(1));
        assert!(dev.read_block(BlockIndex::new(2)).is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn stub_rejects_unknown_site() {
        let _ = DriverStub::new(cluster(Scheme::Voting), SiteId::new(7));
    }
}
