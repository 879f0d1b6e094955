//! The paper's end-to-end claim: an unmodified file system over the
//! reliable device keeps normal semantics across site failures, total
//! failures, and recoveries.

use blockrep::core::{
    Cluster, ClusterOptions, DriverStub, LiveCluster, ReliableDevice, TcpCluster,
};
use blockrep::fs::{FileSystem, FsError};
use blockrep::net::DeliveryMode;
use blockrep::storage::{BlockDevice, Journaled, MemStore};
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, DeviceResult, Scheme, SiteId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn cluster(scheme: Scheme) -> Arc<Cluster> {
    let cfg = DeviceConfig::builder(scheme)
        .sites(3)
        .num_blocks(512)
        .block_size(512)
        .build()
        .unwrap();
    Arc::new(Cluster::new(cfg, ClusterOptions::default()))
}

fn s(i: u32) -> SiteId {
    SiteId::new(i)
}

#[test]
fn same_fs_code_runs_on_local_and_replicated_devices() {
    // Identical workload on a local disk and on a reliable device; identical
    // observable behaviour.
    let run = |fs: &FileSystem<_>| -> Vec<String> {
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/a", b"alpha").unwrap();
        fs.write_file("/d/b", b"beta").unwrap();
        fs.remove_file("/d/a").unwrap();
        fs.read_dir("/d").unwrap()
    };
    let local = FileSystem::format(MemStore::new(512, 512)).unwrap();
    let local_listing = run(&local);

    let c = cluster(Scheme::NaiveAvailableCopy);
    let replicated = FileSystem::format(ReliableDevice::new(c, s(0))).unwrap();
    let fs2 = &replicated;
    fs2.mkdir("/d").unwrap();
    fs2.write_file("/d/a", b"alpha").unwrap();
    fs2.write_file("/d/b", b"beta").unwrap();
    fs2.remove_file("/d/a").unwrap();
    assert_eq!(local_listing, fs2.read_dir("/d").unwrap());
}

#[test]
fn files_survive_site_crashes_under_every_scheme() {
    for scheme in Scheme::ALL {
        let c = cluster(scheme);
        let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&c), s(0))).unwrap();
        fs.mkdir("/data").unwrap();
        fs.write_file("/data/file", &vec![0x5A; 4096]).unwrap();
        c.fail_site(s(0)); // the preferred coordinator dies
        assert_eq!(
            fs.read_file("/data/file").unwrap(),
            vec![0x5A; 4096],
            "{scheme}"
        );
        fs.write_file("/data/while-degraded", b"still writable")
            .unwrap();
        c.repair_site(s(0));
        assert_eq!(
            fs.read_file("/data/while-degraded").unwrap(),
            b"still writable"
        );
    }
}

#[test]
fn fs_surfaces_unavailability_and_resumes_after_repair() {
    let c = cluster(Scheme::Voting);
    let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&c), s(0))).unwrap();
    fs.write_file("/f", b"quorum data").unwrap();
    c.fail_site(s(1));
    c.fail_site(s(2));
    // No quorum: the FS reports device unavailability, not corruption.
    let err = fs.read_file("/f").unwrap_err();
    assert!(matches!(&err, FsError::Device(_)), "got {err}");
    assert!(err.is_device_unavailable());
    c.repair_site(s(1));
    assert_eq!(fs.read_file("/f").unwrap(), b"quorum data");
}

#[test]
fn an_op_whose_commit_is_refused_leaves_the_pre_op_image() {
    // Read-one/write-all voting: with one site down every read still finds
    // its quorum, so an operation runs to its commit, and the commit — its
    // only device write — is refused for lack of a write quorum.
    let cfg = DeviceConfig::builder(Scheme::Voting)
        .sites(3)
        .num_blocks(512)
        .block_size(512)
        .read_quorum(2)
        .write_quorum(6)
        .build()
        .unwrap();
    let c = Arc::new(Cluster::new(cfg, ClusterOptions::default()));
    let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&c), s(0))).unwrap();
    fs.mkdir("/d").unwrap();
    fs.write_file("/d/f", &vec![7u8; 3000]).unwrap();
    let image = |site| -> Vec<BlockData> {
        (0..512)
            .map(|b| c.data_of(s(site), BlockIndex::new(b)))
            .collect()
    };
    let before = image(0);
    c.fail_site(s(2));
    assert_eq!(fs.read_file("/d/f").unwrap(), vec![7u8; 3000]);
    let refused = [
        fs.write_file("/d/f", &vec![8u8; 9000]),
        fs.write_file("/d/new", b"x"),
        fs.write("/d/f", 100, b"patch"),
        fs.truncate("/d/f", 10),
        fs.rename("/d/f", "/g"),
        fs.remove_file("/d/f"),
        fs.mkdir("/d/sub"),
    ];
    for result in refused {
        let err = result.unwrap_err();
        assert!(matches!(&err, FsError::Device(_)), "got {err}");
        assert!(err.is_device_unavailable());
    }
    c.repair_site(s(2));
    for site in 0..3 {
        assert!(
            image(site) == before,
            "site {site} differs from the pre-op image"
        );
    }
    assert_eq!(fs.read_file("/d/f").unwrap(), vec![7u8; 3000]);
    assert!(fs.check().unwrap().is_clean());
    // With the write quorum back the same operations go through.
    fs.write_file("/d/f", &vec![8u8; 9000]).unwrap();
    assert_eq!(fs.read_file("/d/f").unwrap(), vec![8u8; 9000]);
}

#[test]
fn fs_state_survives_total_failure_and_remount() {
    let c = cluster(Scheme::AvailableCopy);
    let dev = ReliableDevice::new(Arc::clone(&c), s(0));
    {
        let fs = FileSystem::format(dev.clone()).unwrap();
        fs.mkdir("/persist").unwrap();
        fs.write_file("/persist/x", b"before total failure")
            .unwrap();
    }
    for i in [1, 2, 0] {
        c.fail_site(s(i));
    }
    for i in [0, 1, 2] {
        c.repair_site(s(i));
    }
    // Remount from the recovered replicas (disks survive fail-stop).
    let fs = FileSystem::mount(dev).unwrap();
    assert_eq!(fs.read_file("/persist/x").unwrap(), b"before total failure");
}

#[test]
fn driver_stub_serves_fs_from_its_pinned_site() {
    let c = cluster(Scheme::AvailableCopy);
    let fs = FileSystem::format(DriverStub::new(Arc::clone(&c), s(1))).unwrap();
    fs.write_file("/pinned", b"via s1").unwrap();
    // Crash a different site: the pinned stub keeps working.
    c.fail_site(s(2));
    assert_eq!(fs.read_file("/pinned").unwrap(), b"via s1");
    // Crash the pinned site: the stub (like the paper's kernel stub) fails.
    c.fail_site(s(1));
    assert!(fs.read_file("/pinned").is_err());
}

#[test]
fn fs_works_over_the_live_threaded_cluster() {
    let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy)
        .sites(3)
        .num_blocks(256)
        .block_size(512)
        .build()
        .unwrap();
    let live = Arc::new(LiveCluster::spawn(cfg, DeliveryMode::Multicast));
    let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&live), s(0))).unwrap();
    fs.mkdir("/live").unwrap();
    fs.write_file("/live/f", b"over real threads and channels")
        .unwrap();
    live.fail_site(s(0));
    assert_eq!(
        fs.read_file("/live/f").unwrap(),
        b"over real threads and channels"
    );
    live.repair_site(s(0));
    fs.write_file("/live/g", b"after repair").unwrap();
    assert_eq!(fs.read_dir("/live").unwrap(), vec!["f", "g"]);
}

#[test]
fn replicas_hold_identical_fs_images_after_quiescence() {
    let c = cluster(Scheme::AvailableCopy);
    let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&c), s(0))).unwrap();
    for i in 0..10 {
        fs.write_file(&format!("/f{i}"), format!("contents {i}").as_bytes())
            .unwrap();
    }
    c.fail_site(s(1));
    for i in 10..20 {
        fs.write_file(&format!("/f{i}"), format!("contents {i}").as_bytes())
            .unwrap();
    }
    c.repair_site(s(1));
    // After recovery, every replica's disk is byte-identical.
    for b in 0..512u64 {
        let k = blockrep::types::BlockIndex::new(b);
        let d0 = c.data_of(s(0), k);
        assert_eq!(d0, c.data_of(s(1), k), "block {b} differs on s1");
        assert_eq!(d0, c.data_of(s(2), k), "block {b} differs on s2");
    }
}

#[test]
fn image_is_fsck_clean_after_crash_recovery_schedules() {
    // The strongest end-to-end statement: after workloads interleaved with
    // failures, total failure, and staggered recovery, the on-disk image —
    // read back through the replicated device — passes a full consistency
    // check.
    for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
        let c = cluster(scheme);
        let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&c), s(0))).unwrap();
        fs.mkdir("/work").unwrap();
        for i in 0..6 {
            fs.write_file(&format!("/work/f{i}"), &vec![i as u8; 700 * (i + 1)])
                .unwrap();
        }
        c.fail_site(s(1));
        fs.remove_file("/work/f0").unwrap();
        fs.truncate("/work/f1", 64).unwrap();
        c.fail_site(s(2));
        fs.write_file("/work/late", b"written on the last copy")
            .unwrap();
        // Total failure, then recovery in stale-first order.
        c.fail_site(s(0));
        c.repair_site(s(1));
        c.repair_site(s(2));
        c.repair_site(s(0));
        let report = fs.check().unwrap();
        assert!(report.is_clean(), "{scheme}: {:?}", report.problems);
        assert_eq!(
            fs.read_file("/work/late").unwrap(),
            b"written on the last copy"
        );
        // And every replica holds the identical (consistent) image.
        let report1 = FileSystem::mount(DriverStub::new(Arc::clone(&c), s(1)))
            .unwrap()
            .check()
            .unwrap();
        assert!(
            report1.is_clean(),
            "{scheme} via s1: {:?}",
            report1.problems
        );
    }
}

/// Counts `sync_data`-equivalent calls (`flush`) on the device it wraps —
/// the test's stand-in for a disk whose fsyncs are the expensive part.
struct SyncCounting<D> {
    inner: D,
    syncs: Arc<AtomicU64>,
}

impl<D: BlockDevice> BlockDevice for SyncCounting<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.inner.read_block(k)
    }
    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        self.inner.write_block(k, data)
    }
    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.inner.read_blocks(ks)
    }
    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        self.inner.write_blocks(writes)
    }
    fn flush(&self) -> DeviceResult<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}

/// §4f group commit through the whole FS stack: the fsync-heavy pattern —
/// bursts of small writes, each burst closed by one fsync — pays **zero**
/// journal syncs inside a burst and exactly **one** at the fsync, no
/// matter how many block installs the burst journaled. One `sync_data`
/// per batch, never one per install.
#[test]
fn fsync_heavy_fs_workload_syncs_the_journal_once_per_batch() {
    let syncs = Arc::new(AtomicU64::new(0));
    let journal = SyncCounting {
        inner: MemStore::new(4096, 512),
        syncs: Arc::clone(&syncs),
    };
    // Batch window far above the workload: only explicit fsyncs commit.
    let dev = Journaled::create(MemStore::new(512, 512), journal, 4096).unwrap();
    let fs = FileSystem::format(dev).unwrap();
    fs.device().flush().unwrap(); // settle the format's own installs
    let mut synced = syncs.load(Ordering::Relaxed);
    let mut appended = fs.device().stats().appends;

    for batch in 0..4u64 {
        // A burst of small writes: many journal appends, no syncs yet.
        for i in 0..5u64 {
            let name = format!("/b{batch}-f{i}");
            fs.write_file(&name, &vec![(batch * 5 + i) as u8; 700])
                .unwrap();
        }
        let appends_now = fs.device().stats().appends;
        assert!(
            appends_now > appended,
            "batch {batch}: the burst must journal its installs"
        );
        appended = appends_now;
        assert_eq!(
            syncs.load(Ordering::Relaxed),
            synced,
            "batch {batch}: no journal sync before the fsync"
        );
        // The fsync: the whole burst commits with a single sync_data.
        fs.device().flush().unwrap();
        synced += 1;
        assert_eq!(
            syncs.load(Ordering::Relaxed),
            synced,
            "batch {batch}: exactly one journal sync per fsync batch"
        );
        assert_eq!(fs.device().stats().pending_records, 0);
    }
    // The files are all there, and the journal really carried them.
    for batch in 0..4u64 {
        for i in 0..5u64 {
            let name = format!("/b{batch}-f{i}");
            assert_eq!(
                fs.read_file(&name).unwrap(),
                vec![(batch * 5 + i) as u8; 700]
            );
        }
    }
}

#[test]
fn fs_works_over_the_tcp_cluster() {
    // The full stack over real sockets: file system -> reliable device ->
    // wire frames -> replica servers.
    let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
        .sites(3)
        .num_blocks(256)
        .block_size(512)
        .build()
        .unwrap();
    let tcp = Arc::new(TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap());
    let fs = FileSystem::format(ReliableDevice::new(Arc::clone(&tcp), s(0))).unwrap();
    fs.mkdir("/net").unwrap();
    fs.write_file("/net/f", b"over real TCP sockets").unwrap();
    tcp.fail_site(s(0));
    assert_eq!(fs.read_file("/net/f").unwrap(), b"over real TCP sockets");
    fs.write_file("/net/g", b"while degraded").unwrap();
    tcp.repair_site(s(0));
    assert_eq!(fs.read_dir("/net").unwrap(), vec!["f", "g"]);
    assert!(fs.check().unwrap().is_clean());
}
