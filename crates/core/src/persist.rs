//! Replica disk images: serialize a site's persistent state.
//!
//! Fail-stop sites lose their process but keep their disk. Inside one OS
//! process the `Replica` struct plays the disk's role; these images are the
//! disk's role *across* processes: a server that is shut down exports its
//! image (blocks, version numbers, was-available set) and a later
//! incarnation imports it and runs the ordinary recovery protocol — exactly
//! what a production deployment would persist under each server process.

use crate::backend::Backend;
use crate::replica::Replica;
use crate::{Cluster, ClusterOptions};
use blockrep_storage::VersionedStore;
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceError, DeviceResult, SiteId, SiteState,
    VersionNumber,
};
use bytes::{Buf, BufMut};
use std::collections::BTreeSet;

const MAGIC: [u8; 4] = *b"BRIM"; // BlockRep IMage
const VERSION: u32 = 1;

impl Replica {
    /// Serializes the replica's persistent state: block contents, version
    /// numbers, and the was-available set. Site state is volatile and not
    /// the replica's to hold — the cluster that imports an image keeps the
    /// site failed, awaiting recovery.
    pub fn to_image(&self) -> Vec<u8> {
        let num_blocks = self.version_vector().len() as u64;
        let block_size = self.data(BlockIndex::new(0)).len();
        let mut buf = Vec::with_capacity(64 + (block_size + 8) * num_blocks as usize);
        buf.put_slice(&MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(self.id().as_u32());
        buf.put_u64_le(num_blocks);
        buf.put_u32_le(block_size as u32);
        let w = self.was_available();
        buf.put_u32_le(w.len() as u32);
        for site in w {
            buf.put_u32_le(site.as_u32());
        }
        for k in BlockIndex::all(num_blocks) {
            let (v, data) = self.versioned(k);
            buf.put_u64_le(v.as_u64());
            buf.put_slice(data.as_slice());
        }
        buf
    }

    /// Reconstructs a replica from an image, validating it against the
    /// device configuration.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a corrupt image or one that does
    /// not match the device geometry.
    pub fn from_image(mut raw: &[u8], cfg: &DeviceConfig) -> DeviceResult<Replica> {
        let corrupt = |why: &str| DeviceError::InvalidConfig(format!("replica image: {why}"));
        if raw.len() < 24 {
            return Err(corrupt("truncated header"));
        }
        let mut magic = [0u8; 4];
        raw.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(corrupt("wrong magic"));
        }
        if raw.get_u32_le() != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let id = SiteId::new(raw.get_u32_le());
        if !cfg.contains_site(id) {
            return Err(corrupt("site not in this device"));
        }
        let num_blocks = raw.get_u64_le();
        let block_size = raw.get_u32_le() as usize;
        if num_blocks != cfg.num_blocks() || block_size != cfg.block_size() {
            return Err(corrupt("geometry mismatch"));
        }
        if raw.remaining() < 4 {
            return Err(corrupt("truncated was-available set"));
        }
        let w_len = raw.get_u32_le() as usize;
        if raw.remaining() < w_len * 4 {
            return Err(corrupt("truncated was-available set"));
        }
        let mut w = BTreeSet::new();
        for _ in 0..w_len {
            let site = SiteId::new(raw.get_u32_le());
            if !cfg.contains_site(site) {
                return Err(corrupt("was-available member not in this device"));
            }
            w.insert(site);
        }
        let per_block = 8 + block_size;
        if raw.remaining() != per_block * num_blocks as usize {
            return Err(corrupt("block payload length mismatch"));
        }
        let mut store = VersionedStore::new(num_blocks, block_size);
        for k in BlockIndex::all(num_blocks) {
            let v = VersionNumber::new(raw.get_u64_le());
            let mut data = vec![0u8; block_size];
            raw.copy_to_slice(&mut data);
            store.install(k, BlockData::from(data), v);
        }
        let mut replica = Replica::new(id, cfg);
        replica.set_was_available(w);
        replica.replace_store(store);
        Ok(replica)
    }
}

impl Cluster {
    /// Exports the persistent image of site `s`'s disk (valid in any site
    /// state; a running server exports a point-in-time snapshot).
    pub fn export_site(&self, s: SiteId) -> Vec<u8> {
        assert!(self.config().contains_site(s), "unknown site {s}");
        self.with_replica(s, Replica::to_image)
    }

    /// Replaces the disk of a **failed** site with a previously exported
    /// image — the moment a replacement server boots with the old disk.
    /// Follow with [`repair_site`](Cluster::repair_site) to run recovery.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a corrupt or mismatched image.
    ///
    /// # Panics
    ///
    /// Panics if `s` is unknown, not currently failed, or the image was
    /// taken from a different site.
    pub fn import_site(&self, s: SiteId, image: &[u8]) -> DeviceResult<()> {
        assert!(self.config().contains_site(s), "unknown site {s}");
        assert_eq!(
            self.site_state(s),
            SiteState::Failed,
            "import requires the site to be down"
        );
        let replica = Replica::from_image(image, self.config())?;
        assert_eq!(replica.id(), s, "image belongs to {}", replica.id());
        self.replace_replica(s, replica);
        Ok(())
    }

    /// Builds a cluster entirely from exported images (a cold restart of
    /// every site). All sites start failed; repair them to resume service.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] if any image is corrupt, mismatched,
    /// duplicated, or missing.
    pub fn from_images(
        cfg: DeviceConfig,
        options: ClusterOptions,
        images: &[Vec<u8>],
    ) -> DeviceResult<Cluster> {
        if images.len() != cfg.num_sites() {
            return Err(DeviceError::InvalidConfig(format!(
                "expected {} images, got {}",
                cfg.num_sites(),
                images.len()
            )));
        }
        let cluster = Cluster::new(cfg, options);
        let mut seen = BTreeSet::new();
        for image in images {
            let replica = Replica::from_image(image, cluster.config())?;
            if !seen.insert(replica.id()) {
                return Err(DeviceError::InvalidConfig(format!(
                    "duplicate image for {}",
                    replica.id()
                )));
            }
            let id = replica.id();
            // The disk is back; its server process is not running yet.
            cluster.set_local_state(id, SiteState::Failed);
            cluster.replace_replica(id, replica);
        }
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::Scheme;

    fn cfg() -> DeviceConfig {
        DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(4)
            .block_size(16)
            .build()
            .unwrap()
    }

    fn s(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn fill(b: u8) -> BlockData {
        BlockData::from(vec![b; 16])
    }

    #[test]
    fn replica_image_roundtrip() {
        let device = cfg();
        let mut r = Replica::new(s(1), &device);
        r.install(BlockIndex::new(2), fill(7), VersionNumber::new(5));
        r.set_was_available([s(0), s(1)].into_iter().collect());
        let image = r.to_image();
        let back = Replica::from_image(&image, &device).unwrap();
        assert_eq!(back.id(), s(1));
        assert_eq!(back.version(BlockIndex::new(2)), VersionNumber::new(5));
        assert_eq!(back.data(BlockIndex::new(2)), fill(7));
        assert_eq!(back.was_available().len(), 2);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let device = cfg();
        let r = Replica::new(s(0), &device);
        let image = r.to_image();
        // Wrong magic.
        let mut bad = image.clone();
        bad[0] = b'X';
        assert!(Replica::from_image(&bad, &device).is_err());
        // Truncated.
        assert!(Replica::from_image(&image[..image.len() - 1], &device).is_err());
        // Wrong geometry.
        let small = DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(2)
            .block_size(16)
            .build()
            .unwrap();
        assert!(Replica::from_image(&image, &small).is_err());
    }

    #[test]
    fn cluster_cold_restart_from_images() {
        let device = cfg();
        let original = Cluster::new(device.clone(), ClusterOptions::default());
        original
            .write(s(0), BlockIndex::new(0), fill(0xAA))
            .unwrap();
        original.fail_site(s(2));
        original
            .write(s(0), BlockIndex::new(1), fill(0xBB))
            .unwrap();
        let images: Vec<Vec<u8>> = (0..3).map(|i| original.export_site(s(i))).collect();

        // Cold restart: all sites come back failed, with their old disks.
        let restarted = Cluster::from_images(device, ClusterOptions::default(), &images).unwrap();
        assert!(!restarted.is_available());
        for i in [0, 1, 2] {
            restarted.repair_site(s(i));
        }
        assert!(restarted.is_available());
        assert_eq!(
            restarted.read(s(2), BlockIndex::new(0)).unwrap(),
            fill(0xAA)
        );
        // s2 was down for the second write; recovery caught it up.
        assert_eq!(
            restarted.read(s(2), BlockIndex::new(1)).unwrap(),
            fill(0xBB)
        );
    }

    #[test]
    fn single_site_disk_swap() {
        let device = cfg();
        let c = Cluster::new(device, ClusterOptions::default());
        c.write(s(0), BlockIndex::new(0), fill(1)).unwrap();
        let image = c.export_site(s(1));
        c.fail_site(s(1));
        c.write(s(0), BlockIndex::new(0), fill(2)).unwrap();
        // The replacement machine boots with the old (now stale) disk…
        c.import_site(s(1), &image).unwrap();
        c.repair_site(s(1));
        // …and recovery brings it current.
        assert_eq!(c.read(s(1), BlockIndex::new(0)).unwrap(), fill(2));
    }

    #[test]
    fn imported_disks_belong_to_failed_sites_until_repaired() {
        // Site state is the cluster's, not the image's: a cold restart
        // marks every site failed, and a disk swap leaves the site as down
        // as it had to be for the swap.
        let device = cfg();
        let c = Cluster::new(device.clone(), ClusterOptions::default());
        let images: Vec<Vec<u8>> = (0..3).map(|i| c.export_site(s(i))).collect();
        let cold = Cluster::from_images(device, ClusterOptions::default(), &images).unwrap();
        for i in 0..3 {
            assert_eq!(cold.site_state(s(i)), SiteState::Failed, "cold s{i}");
        }
        c.fail_site(s(2));
        c.import_site(s(2), &images[2]).unwrap();
        assert_eq!(c.site_state(s(2)), SiteState::Failed);
        assert_eq!(c.site_state(s(0)), SiteState::Available);
        c.repair_site(s(2));
        assert_eq!(c.site_state(s(2)), SiteState::Available);
    }

    #[test]
    fn import_rejects_wrong_site_count() {
        let device = cfg();
        let c = Cluster::new(device.clone(), ClusterOptions::default());
        let images = vec![c.export_site(s(0))];
        assert!(Cluster::from_images(device.clone(), ClusterOptions::default(), &images).is_err());
        let dup = vec![c.export_site(s(0)); 3];
        assert!(Cluster::from_images(device, ClusterOptions::default(), &dup).is_err());
    }
}
