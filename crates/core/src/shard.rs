//! Placement for a device over several replica groups: consistent-hash
//! placement of block groups over independent shards.
//!
//! A [`ReliableDevice`] over one replica group holds full copies, so its
//! capacity and write bandwidth are capped by one quorum no matter how many
//! sites exist. Over several, a larger site pool is partitioned into `S`
//! equal replica groups (*shards*), each running its own independent quorum
//! — its own per-block lock table, its own lease table, its own WAL when
//! journaled — over the **unchanged** `protocol` layer, and block *groups*
//! are mapped to shards by rendezvous (highest-random-weight) hashing
//! recorded in a versioned [`PlacementManifest`]. How a batch is routed,
//! fanned out and failed partially is the device's business (`device.rs`).

use crate::ReliableDevice;
use blockrep_types::{BlockIndex, DeviceConfig, DeviceError, DeviceResult, Scheme, SiteId};
use std::sync::Arc;

/// SplitMix64: the placement hash. Deterministic across runs and
/// platforms, well-mixed enough that rendezvous scores spread block
/// groups evenly over shards.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The versioned placement record: which pool sites form each shard and
/// how block groups map onto shards.
///
/// Placement is *rendezvous* (highest-random-weight) hashing: group `g`
/// lives on the shard whose `score(g, shard)` is largest. The useful
/// consequence is minimal disruption — growing the manifest from `S` to
/// `S + 1` shards moves only the groups whose top score now lands on the
/// new shard (about `1/(S+1)` of them) and leaves every other assignment
/// untouched. The hash runs once per group when the manifest is built;
/// [`shard_of`](Self::shard_of) is then a table lookup.
///
/// # Examples
///
/// ```
/// use blockrep_core::shard::PlacementManifest;
/// use blockrep_types::{BlockIndex, SiteId};
///
/// let pool: Vec<SiteId> = SiteId::all(6).collect();
/// let m = PlacementManifest::build(1, 64, 1024, &pool, 2).unwrap();
/// assert_eq!(m.shard_count(), 2);
/// assert!(m.render().contains("shard 1: sites [s3, s4, s5]"));
/// // Blocks of one 64-block group land on one shard.
/// assert_eq!(m.shard_of(BlockIndex::new(0)), m.shard_of(BlockIndex::new(63)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementManifest {
    version: u64,
    group_size: u64,
    shard_sites: Vec<Vec<SiteId>>,
    /// The shard of each group of the device, indexed by group.
    group_shard: Vec<usize>,
}

impl PlacementManifest {
    /// Builds a manifest placing `shards` equal replica groups over
    /// `pool`, with the blocks of a `num_blocks`-block device bundled into
    /// `group_size`-block groups, each placed here once.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] when `shards` is zero,
    /// `group_size` is zero, or the pool does not divide evenly into
    /// `shards` non-empty groups (shard quorums are kept symmetric).
    pub fn build(
        version: u64,
        group_size: u64,
        num_blocks: u64,
        pool: &[SiteId],
        shards: usize,
    ) -> DeviceResult<PlacementManifest> {
        if shards == 0 {
            return Err(DeviceError::InvalidConfig("zero shards".into()));
        }
        if group_size == 0 {
            return Err(DeviceError::InvalidConfig("zero group size".into()));
        }
        if pool.is_empty() || pool.len() % shards != 0 {
            return Err(DeviceError::InvalidConfig(format!(
                "pool of {} sites does not split into {} equal shards",
                pool.len(),
                shards
            )));
        }
        let per_shard = pool.len() / shards;
        let shard_sites = pool.chunks(per_shard).map(<[SiteId]>::to_vec).collect();
        let group_shard = (0..num_blocks.div_ceil(group_size))
            .map(|group| Self::place(group, shards))
            .collect();
        Ok(PlacementManifest {
            version,
            group_size,
            shard_sites,
            group_shard,
        })
    }

    /// The manifest of a device over one replica group: `cfg`'s sites form
    /// its one shard, which holds every block as one group.
    pub(crate) fn single(cfg: &DeviceConfig) -> PlacementManifest {
        PlacementManifest {
            version: 1,
            group_size: cfg.num_blocks(),
            shard_sites: vec![cfg.site_ids().collect()],
            group_shard: vec![0],
        }
    }

    /// The manifest version (bumped when placement is regenerated).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Blocks per placement group.
    pub fn group_size(&self) -> u64 {
        self.group_size
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_sites.len()
    }

    /// The pool sites forming `shard`'s replica group.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub(crate) fn sites_of(&self, shard: usize) -> &[SiteId] {
        &self.shard_sites[shard]
    }

    /// The placement group of block `k`.
    fn group_of(&self, k: BlockIndex) -> u64 {
        k.as_u64() / self.group_size
    }

    /// The rendezvous score of `(group, shard)`; placement picks the
    /// shard with the highest score, ties going to the lower index.
    fn score(group: u64, shard: usize) -> u64 {
        splitmix64(
            splitmix64(group.wrapping_add(1)) ^ (shard as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD),
        )
    }

    /// The shard holding block `k`: the table's entry for its group, or,
    /// past the device's end, the same rendezvous hash the table holds.
    // Inlined into the device's generic code, which asks once per key.
    #[inline]
    pub fn shard_of(&self, k: BlockIndex) -> usize {
        if self.shard_count() == 1 {
            return 0;
        }
        let group = self.group_of(k);
        usize::try_from(group)
            .ok()
            .and_then(|g| self.group_shard.get(g).copied())
            .unwrap_or_else(|| Self::place(group, self.shard_count()))
    }

    /// Rendezvous placement of `group` over `shards` shards.
    fn place(group: u64, shards: usize) -> usize {
        let mut best = 0usize;
        let mut best_score = Self::score(group, 0);
        for shard in 1..shards {
            let score = Self::score(group, shard);
            if score > best_score {
                best = shard;
                best_score = score;
            }
        }
        best
    }

    /// A human-readable rendering of the manifest (what `mkfs --shards`
    /// prints next to the images it creates).
    pub fn render(&self) -> String {
        let mut out = format!(
            "placement manifest v{} (rendezvous, {}-block groups, {} shards)\n",
            self.version,
            self.group_size,
            self.shard_count()
        );
        for (i, sites) in self.shard_sites.iter().enumerate() {
            let names: Vec<String> = sites.iter().map(SiteId::to_string).collect();
            out.push_str(&format!("  shard {i}: sites [{}]\n", names.join(", ")));
        }
        out
    }
}

/// Geometry of a sharded device: `shards` independent replica groups of
/// `sites_per_shard` sites each, every group replicating the full
/// `num_blocks`-block address space but serving only the block groups the
/// manifest places on it.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Replication scheme run by every shard quorum.
    pub scheme: Scheme,
    /// Number of independent replica groups.
    pub shards: usize,
    /// Sites per replica group (the pool is `shards * sites_per_shard`).
    pub sites_per_shard: usize,
    /// Blocks of the virtual device.
    pub num_blocks: u64,
    /// Bytes per block.
    pub block_size: usize,
    /// Blocks per placement group. Batches aligned to this unit touch a
    /// single shard; larger batches stripe across shards.
    pub group_size: u64,
    /// Run every site on a write-ahead log.
    pub journaled: bool,
}

impl ShardSpec {
    /// A spec with the conventional geometry: 3-site shards over 64-block
    /// placement groups, 512-byte blocks.
    pub fn new(scheme: Scheme, shards: usize, num_blocks: u64) -> ShardSpec {
        ShardSpec {
            scheme,
            shards,
            sites_per_shard: 3,
            num_blocks,
            block_size: 512,
            group_size: 64,
            journaled: false,
        }
    }

    /// The placement manifest for this geometry (version 1).
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate geometry.
    pub fn manifest(&self) -> DeviceResult<PlacementManifest> {
        let pool: Vec<SiteId> = SiteId::all(self.shards * self.sites_per_shard).collect();
        PlacementManifest::build(1, self.group_size, self.num_blocks, &pool, self.shards)
    }

    /// The per-shard device configuration. Every shard replicates the
    /// full address space (no index translation anywhere), it just never
    /// coordinates blocks the manifest places elsewhere.
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate geometry.
    pub fn shard_config(&self) -> DeviceResult<DeviceConfig> {
        DeviceConfig::builder(self.scheme)
            .sites(self.sites_per_shard)
            .num_blocks(self.num_blocks)
            .block_size(self.block_size)
            .journaled(self.journaled)
            .build()
    }
}

impl ReliableDevice<crate::Cluster> {
    /// A device over `spec`'s shards, each a deterministic [`Cluster`](crate::Cluster).
    ///
    /// # Examples
    ///
    /// ```
    /// use blockrep_core::shard::ShardSpec;
    /// use blockrep_core::{ClusterOptions, ReliableDevice};
    /// use blockrep_storage::BlockDevice;
    /// use blockrep_types::{BlockData, BlockIndex, Scheme};
    ///
    /// # fn main() -> Result<(), blockrep_types::DeviceError> {
    /// let spec = ShardSpec {
    ///     block_size: 16,
    ///     ..ShardSpec::new(Scheme::Voting, 2, 256)
    /// };
    /// let dev = ReliableDevice::deterministic(&spec, ClusterOptions::default())?;
    /// // A 128-block extent spans both 64-block groups ⇒ usually both shards.
    /// let writes: Vec<_> = (0..128)
    ///     .map(|i| (BlockIndex::new(i), BlockData::from(vec![i as u8; 16])))
    ///     .collect();
    /// dev.write_blocks(&writes)?;
    /// let ks: Vec<_> = (0..128).map(BlockIndex::new).collect();
    /// assert_eq!(dev.read_blocks(&ks)?[100].as_slice(), &[100; 16]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidConfig`] for a degenerate spec.
    pub fn deterministic(spec: &ShardSpec, options: crate::ClusterOptions) -> DeviceResult<Self> {
        let manifest = spec.manifest()?;
        let shards = (0..spec.shards)
            .map(|_| Ok(Arc::new(crate::Cluster::new(spec.shard_config()?, options))))
            .collect::<DeviceResult<Vec<_>>>()?;
        Ok(ReliableDevice::sharded(shards, manifest, SiteId::new(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterOptions;
    use blockrep_storage::BlockDevice;
    use blockrep_types::BlockData;

    fn spec(scheme: Scheme, shards: usize) -> ShardSpec {
        ShardSpec {
            sites_per_shard: 3,
            block_size: 8,
            group_size: 4,
            ..ShardSpec::new(scheme, shards, 64)
        }
    }

    #[test]
    fn manifest_rejects_degenerate_geometry() {
        let pool: Vec<SiteId> = SiteId::all(6).collect();
        assert!(PlacementManifest::build(1, 4, 64, &pool, 0).is_err());
        assert!(PlacementManifest::build(1, 0, 64, &pool, 2).is_err());
        assert!(PlacementManifest::build(1, 4, 64, &pool, 4).is_err());
        assert!(PlacementManifest::build(1, 4, 64, &[], 1).is_err());
    }

    #[test]
    fn placement_is_group_aligned_and_covers_all_shards() {
        let pool: Vec<SiteId> = SiteId::all(12).collect();
        let m = PlacementManifest::build(1, 64, 256 * 64, &pool, 4).unwrap();
        let mut seen = [0u64; 4];
        for g in 0..256u64 {
            let shard = m.shard_of(BlockIndex::new(g * 64));
            // Every block of the group agrees with its first block.
            assert_eq!(m.shard_of(BlockIndex::new(g * 64 + 63)), shard);
            seen[shard] += 1;
        }
        // Rendezvous spreads 256 groups roughly evenly over 4 shards.
        for (shard, &count) in seen.iter().enumerate() {
            assert!(
                (32..=96).contains(&count),
                "shard {shard} owns {count} of 256 groups"
            );
        }
    }

    #[test]
    fn growing_the_shard_count_only_moves_groups_to_the_new_shard() {
        let small: Vec<SiteId> = SiteId::all(9).collect();
        let large: Vec<SiteId> = SiteId::all(12).collect();
        let before = PlacementManifest::build(1, 64, 512 * 64, &small, 3).unwrap();
        let after = PlacementManifest::build(2, 64, 512 * 64, &large, 4).unwrap();
        let mut moved = 0u64;
        for g in 0..512u64 {
            let k = BlockIndex::new(g * 64);
            let (old, new) = (before.shard_of(k), after.shard_of(k));
            if old != new {
                assert_eq!(new, 3, "group {g} moved to shard {new}, not the new shard");
                moved += 1;
            }
        }
        // The consistent-hash property: roughly 1/4 of groups move, and
        // only onto the added shard.
        assert!(
            (64..=192).contains(&moved),
            "{moved} of 512 groups moved on growth"
        );
    }

    #[test]
    fn the_placement_table_is_the_rendezvous_hash_inside_and_past_the_device() {
        let pool: Vec<SiteId> = SiteId::all(12).collect();
        // 1 000 blocks: 15 whole groups and a partial 16th, then past the end.
        let m = PlacementManifest::build(1, 64, 1000, &pool, 4).unwrap();
        for g in 0..64u64 {
            for k in [g * 64, g * 64 + 63] {
                let placed = PlacementManifest::place(g, 4);
                assert_eq!(m.shard_of(BlockIndex::new(k)), placed, "block {k}");
            }
        }
        let last = BlockIndex::new(u64::MAX);
        assert_eq!(m.shard_of(last), PlacementManifest::place(u64::MAX / 64, 4));
    }

    #[test]
    fn cross_shard_batches_round_trip_in_caller_order() {
        for scheme in Scheme::ALL {
            let dev =
                ReliableDevice::deterministic(&spec(scheme, 4), ClusterOptions::default()).unwrap();
            // A deliberately shuffled, cross-shard batch.
            let ks: Vec<BlockIndex> = (0..64).rev().map(BlockIndex::new).collect();
            let writes: Vec<(BlockIndex, BlockData)> = ks
                .iter()
                .map(|&k| (k, BlockData::from(vec![k.as_u64() as u8; 8])))
                .collect();
            dev.write_blocks(&writes).unwrap();
            let back = dev.read_blocks(&ks).unwrap();
            for (k, data) in ks.iter().zip(&back) {
                assert_eq!(data.as_slice(), &[k.as_u64() as u8; 8], "block {k}");
            }
        }
    }

    #[test]
    fn single_block_ops_route_to_the_owning_shard_only() {
        let dev =
            ReliableDevice::deterministic(&spec(Scheme::Voting, 2), ClusterOptions::default())
                .unwrap();
        let k = BlockIndex::new(9);
        let owner = dev.shard_of(k);
        dev.write_block(k, BlockData::from(vec![5; 8])).unwrap();
        assert_eq!(dev.read_block(k).unwrap().as_slice(), &[5; 8]);
        let other = 1 - owner;
        let t = dev.shard_backends()[other].traffic();
        assert_eq!(t.total(), 0, "non-owning shard saw traffic");
    }

    #[test]
    fn losing_one_shard_quorum_fails_only_that_sub_batch() {
        let dev =
            ReliableDevice::deterministic(&spec(Scheme::Voting, 2), ClusterOptions::default())
                .unwrap();
        let ks: Vec<BlockIndex> = (0..64).map(BlockIndex::new).collect();
        let writes: Vec<(BlockIndex, BlockData)> = ks
            .iter()
            .map(|&k| (k, BlockData::from(vec![1; 8])))
            .collect();
        dev.write_blocks(&writes).unwrap();
        // Kill shard 0's quorum (2 of 3 voting sites).
        let victim = &dev.shard_backends()[0];
        victim.fail_site(SiteId::new(0));
        victim.fail_site(SiteId::new(1));
        let second: Vec<(BlockIndex, BlockData)> = ks
            .iter()
            .map(|&k| (k, BlockData::from(vec![2; 8])))
            .collect();
        let err = dev.write_blocks(&second).unwrap_err();
        assert!(matches!(err, DeviceError::Unavailable { .. }), "{err}");
        // Shard 1's sub-batch committed; shard 0's kept the old contents.
        for &k in &ks {
            let expect = if dev.shard_of(k) == 0 { 1u8 } else { 2u8 };
            let holder = &dev.shard_backends()[dev.shard_of(k)];
            assert_eq!(
                holder.data_of(SiteId::new(2), k).as_slice(),
                &[expect; 8],
                "block {k}"
            );
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let dev = ReliableDevice::deterministic(
            &spec(Scheme::AvailableCopy, 2),
            ClusterOptions::default(),
        )
        .unwrap();
        assert!(dev.read_blocks(&[]).unwrap().is_empty());
        dev.write_blocks(&[]).unwrap();
    }

    #[test]
    fn preferred_origin_failure_fails_over_within_the_shard() {
        let dev = ReliableDevice::deterministic(
            &spec(Scheme::AvailableCopy, 2),
            ClusterOptions::default(),
        )
        .unwrap();
        let k = BlockIndex::new(3);
        dev.write_block(k, BlockData::from(vec![7; 8])).unwrap();
        // Fail the preferred origin (shard-local s0) in the owning shard.
        let owner = &dev.shard_backends()[dev.shard_of(k)];
        owner.fail_site(SiteId::new(0));
        assert_eq!(dev.read_block(k).unwrap().as_slice(), &[7; 8]);
    }
}
