//! Allocation budgets of the two message-passing runtimes, counted — not
//! timed. (The file is named for its first tenant; CI, the verify notes and
//! ROADMAP cite it by this name.)
//!
//! **The TCP wire path**, at the repo benchmark's `tcp-batch-mcv` shape:
//! 64-block × 1 KiB voting batches over loopback sockets. The twin of
//! `crates/fs/tests/device_call_budget.rs` one layer down: a change that
//! puts a copy, a clone or a growing buffer back on the path between
//! `write_many`/`read_many` and the sockets fails here on any host, however
//! noisy.
//!
//! The floor this defends: a block that arrives over a socket is copied
//! once, into the buffer its block already owns at the site (a site serves
//! an install where its blocks lie in the frame), so the install path owes
//! no allocation per block, and everything an operation allocates is a few
//! frames and vectors per site, whatever the batch size. A write lands its
//! batch on every *other* site — the coordinator's own install is a local
//! action on its own thread, no socket — and the read that follows finds
//! the coordinator's copy current and fetches nothing, so per write + read
//! pair on `n` sites `(n − 1) × 64` blocks cross a socket.
//!
//! Before the frame was encoded once and in place this test measured, on
//! three sites, 1 374 KiB and 749 allocations per pair against a budget of
//! 640 KiB and 400; with it, 428 KiB and 321, and 567 KiB and 461 on five
//! sites. Those figures had the local leg on a socket of its own,
//! `(n + 1) × 64` decoded blocks a pair; with the local leg local, 225 KiB
//! and 182, and 364 KiB and 322 on five sites. Since a write batch is
//! sealed (each block carries its 8-byte sum) and its install scatter
//! borrows it instead of copying it, 226 KiB and 181, and 366 KiB and 321
//! on five sites. With a round's per-site lists inline and a batch's block
//! locks taken by stripe, 223 563 bytes and 156 allocations on three
//! sites; since the coordinator's own legs borrow its key lists and write
//! batch instead of copying them, 220 491 and 154, and 362 827 and 292 on
//! five sites; later, 218 907 and 148, and 361 243 and 286. Since an exchange
//! frames the coordinator's borrowed request into a buffer its thread
//! reuses — no owned copy of the request, so no copy of an install's sealed
//! batch, and no fresh frame per exchange — 147 456 bytes and 142
//! allocations on three sites, and 289 792 and 280 on five: one allocation
//! per decoded block, each into a fresh buffer, and the blocks those
//! replaced freed. Since a site installs a batch straight from its frame,
//! 9 216 bytes and 12 allocations on three sites, and 13 312 and 20 on
//! five: four allocations and 2 KiB more per site, none per block. A block
//! decoded into a buffer of its own again costs a pair `(n − 1) × 64`
//! allocations and as many KiB, and a copy of the sealed batch per scatter
//! (2.5 KiB) breaks the byte budget on its own. The
//! coordinator keeps one pool of idle connections per site, and
//! a lone client reuses the one connection it has to each site, so the
//! pool allocates nothing per pair.
//!
//! **The live inbox path**, at the same batch shape and at `live-fs-ac`'s
//! (single-block available-copy traffic with a fail / repair cycle): what
//! crosses an inbox is a request value, so the whole cost is envelopes,
//! reply channels and index vectors — what would move if a cast grew a
//! reply channel, a request grew a box, or a local leg grew an envelope.
//!
//! **The deterministic cluster's single-block round**, at `det-block-mcv`'s
//! shape (three sites, one block per op): once its blocks exist, a voting
//! read or write, or an available-copy write, allocates nothing. Every
//! per-site list of the round lives inline and the written block is sealed
//! once and shared by every replica; before, a voting read allocated 5
//! times and a write 7, one `Vec` per list. A single block is a batch of
//! one, and every per-block list holds one entry inline, so the same
//! operations as `read_blocks`/`write_blocks` of one block allocate only a
//! read's result `Vec`; while batches had their own path, a voting batch
//! of one allocated for its key list, its votes and its reads. The same
//! holds on a device of four shards, since a batch that stays on one shard
//! is not split and runs on the caller; while a sharded device split
//! every batch, it allocated 112 times per 16 reads and 80 per 16 writes.
//!
//! **The file system**, at `live-fs-ac`'s geometry (8 192 × 1 KiB blocks,
//! 8 directories) over a bare `MemStore`: once the device was cheap, most
//! of what an fs op allocates was the file system's own copying. A lookup
//! reads a directory's slots in place, so what it allocates does not grow
//! with the entries it passes; a whole block written is copied once, into
//! the buffer the device keeps, and an edited block is copied once too,
//! copy-on-write, into the allocation the commit hands the device. Before
//! that, a `stat` allocated 23 times with one entry in its directory and
//! 46 with 24, and rewriting a 40 KiB file at least 166 times.

use blockrep::core::wire::{FrameReader, MAX_FRAME};
use blockrep::core::{Cluster, ClusterOptions, LiveCluster, ReliableDevice, ShardSpec, TcpCluster};
use blockrep::fs::FileSystem;
use blockrep::net::DeliveryMode;
use blockrep::storage::{BlockDevice, MemStore};
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Counts allocation calls and requested bytes of every thread — the
/// sites' server threads included — and forwards to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide, so the tests of this binary take turns.
static TURN: Mutex<()> = Mutex::new(());

/// `(allocation calls, bytes requested)` by every thread while `f` ran.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    f();
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

const BLOCKS: u64 = 64;
const BLOCK_SIZE: usize = 1024;
const PAIRS: u64 = 16;

type Batch = Vec<(BlockIndex, BlockData)>;

/// Allocation calls and bytes per steady-state `write_many` + `read_many`
/// pair of 64 × 1 KiB blocks through `write`/`read`, a cluster's two
/// vectored entry points.
fn per_batch_pair(
    write: &dyn Fn(&Batch),
    read: &dyn Fn(&[BlockIndex]) -> Vec<BlockData>,
) -> (u64, u64) {
    let ks: Vec<BlockIndex> = (0..BLOCKS).map(BlockIndex::new).collect();
    // The payloads exist before counting starts, as a caller's data does.
    let batches: Vec<Batch> = (0..PAIRS + 2)
        .map(|round| {
            let fill = |k: &BlockIndex| (round * BLOCKS + k.as_u64()) as u8;
            ks.iter()
                .map(|k| (*k, BlockData::from(vec![fill(k); BLOCK_SIZE])))
                .collect()
        })
        .collect();
    let pair = |batch: &Batch| {
        write(batch);
        let got = read(&ks);
        assert!(got.iter().zip(batch).all(|(got, (_, sent))| got == sent));
    };
    // Warm up: connections' buffers reach their working size.
    pair(&batches[0]);
    pair(&batches[1]);
    let (allocs, bytes) = counted(|| batches[2..].iter().for_each(pair));
    (allocs / PAIRS, bytes / PAIRS)
}

fn batch_config(scheme: Scheme, sites: usize) -> DeviceConfig {
    DeviceConfig::builder(scheme)
        .sites(sites)
        .num_blocks(BLOCKS)
        .block_size(BLOCK_SIZE)
        .build()
        .unwrap()
}

/// [`per_batch_pair`] on an `n`-site voting cluster over loopback sockets.
fn per_pair(sites: usize) -> (u64, u64) {
    let cluster =
        TcpCluster::spawn(batch_config(Scheme::Voting, sites), DeliveryMode::default()).unwrap();
    let origin = SiteId::new(0);
    per_batch_pair(&|batch| cluster.write_many(origin, batch).unwrap(), &|ks| {
        cluster.read_many(origin, ks).unwrap()
    })
}

/// A caller that has to block for a reply allocates once to park itself
/// (the reply channel's waiter list) and one that finds the reply already
/// there does not, so on an undelayed cluster the count moves with thread
/// timing by up to one per round trip. Under this link delay the reply
/// always comes second: the count is the ceiling, and repeats.
const REPLY_AFTER_CALLER_WAITS: Duration = Duration::from_micros(200);

/// Single-block write + read pairs, and counted rounds, of the
/// available-copy case.
const AC_PAIRS: u64 = 32;
const AC_ROUNDS: u64 = 8;

/// `(allocations, bytes)` per batch pair and per available-copy round: the
/// measured ceilings. A round is 223 allocations and 14 400 bytes on every
/// run; a pair is 54 allocations and 28 600 bytes plus one 96-byte
/// allocation for each of its two scatters whose second reply has to be
/// waited for. Each block of a write batch carries its 8-byte seal, so a
/// copy of the batch is a quarter larger than it was; the install scatter
/// borrows the batch instead of copying it, so a pair allocates one copy
/// fewer (55 and 28 606 before) and the bytes stay where they were. Since
/// a round's per-site lists live inline, a pair reads 41 allocations and
/// 28 034 bytes and a round 221 and 10 296; the ceilings were not lowered.
/// Since a request borrows what its coordinator holds and is copied only
/// to cross to a site thread, a pair reads 28 allocations and 17 872 bytes
/// and a round 88 and 4 360 in a release build: a was-available set is no
/// longer built per target, nor at all for the coordinator's own site.
///
/// While the local leg was a message to the coordinator's own site — an
/// envelope in a channel that allocates its slots by the block, and a reply
/// channel per round trip — the same figures were 441 and 91 921 a round,
/// 64–66 and 31 598–31 790 a pair. What is left is what crosses to the
/// *other* sites: an inbox slot holds a 48-byte `WireRequest` beside a
/// 24-byte optional reply sender (the inbox itself is allocated once, at
/// spawn), and a reply slot a 48-byte `WireResponse`.
const LIVE_BATCH_PAIR: (u64, u64) = (56, 28_800);
const LIVE_AC_ROUND: (u64, u64) = (223, 14_400);

/// What a pair may allocate, as `(allocations, bytes)`: a constant plus so
/// much per site — request and reply frames, index and version vectors —
/// none of it proportional to the batch.
const BASE: (u64, u64) = (2, 4096);
const PER_SITE: (u64, u64) = (5, 2048);

fn assert_within_budget(sites: u64) -> (u64, u64) {
    let (allocs, bytes) = per_pair(sites as usize);
    println!("tcp batch pair, {sites} sites: {allocs} allocations, {bytes} bytes");
    let budget = (BASE.0 + PER_SITE.0 * sites, BASE.1 + PER_SITE.1 * sites);
    assert!(
        allocs <= budget.0 && bytes <= budget.1,
        "{sites} sites: {allocs} allocations and {bytes} bytes per pair, budget {budget:?} \
         = {BASE:?} + {PER_SITE:?} per site; {} blocks crossed a socket and owe none",
        (sites - 1) * BLOCKS
    );
    (allocs, bytes)
}

#[test]
fn a_batch_pair_allocates_a_constant_per_site_and_nothing_per_block() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (allocs_3, bytes_3) = assert_within_budget(3);
    // Two more sites cost their own constant — not a copy of the batch,
    // on the coordinator or at the sites.
    let (allocs_5, bytes_5) = assert_within_budget(5);
    let extra_sites = 2;
    assert!(
        allocs_5 - allocs_3 <= extra_sites * PER_SITE.0
            && bytes_5 - bytes_3 <= extra_sites * PER_SITE.1,
        "3 -> 5 sites: allocations per pair {allocs_3} -> {allocs_5}, bytes {bytes_3} -> {bytes_5}; \
         each site owes at most {PER_SITE:?}"
    );
}

/// The same batch pair on the channel runtime: what crosses an inbox is a
/// request *value*, so no block is copied at all and the whole budget is
/// envelopes, reply channels and index/version vectors.
#[test]
fn a_live_batch_pair_allocates_what_it_did_before_the_shared_service() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = LiveCluster::spawn(batch_config(Scheme::Voting, 3), DeliveryMode::default());
    cluster.set_link_latency(REPLY_AFTER_CALLER_WAITS);
    let origin = SiteId::new(0);
    let (allocs, bytes) =
        per_batch_pair(&|batch| cluster.write_many(origin, batch).unwrap(), &|ks| {
            cluster.read_many(origin, ks).unwrap()
        });
    println!("live batch pair: {allocs} allocations, {bytes} bytes");
    assert!(
        allocs <= LIVE_BATCH_PAIR.0 && bytes <= LIVE_BATCH_PAIR.1,
        "{allocs} allocations and {bytes} bytes per live batch pair, budget {LIVE_BATCH_PAIR:?}"
    );
}

/// The `live-fs-ac` shape: single-block available-copy traffic — one-way
/// install casts, local reads — and one fail / degraded write / repair
/// cycle per round, which is where the was-available sets and the repair
/// payload travel.
#[test]
fn a_live_available_copy_round_allocates_what_it_did_before_the_shared_service() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = LiveCluster::spawn(
        batch_config(Scheme::AvailableCopy, 3),
        DeliveryMode::default(),
    );
    cluster.set_link_latency(REPLY_AFTER_CALLER_WAITS);
    let blocks: Vec<BlockData> = (0..=u8::MAX)
        .map(|fill| BlockData::from(vec![fill; BLOCK_SIZE]))
        .collect();
    let site = SiteId::new;
    let round = |r: u64| {
        let data = |i: u64| blocks[((r * BLOCKS + i) % 256) as usize].clone();
        for i in 0..AC_PAIRS {
            let k = BlockIndex::new(i % BLOCKS);
            cluster.write(site(0), k, data(i)).unwrap();
            assert_eq!(cluster.read(site(0), k).unwrap(), data(i));
        }
        cluster.fail_site(site(2));
        cluster.write(site(0), BlockIndex::new(0), data(1)).unwrap();
        cluster.write(site(1), BlockIndex::new(1), data(2)).unwrap();
        cluster.repair_site(site(2));
        // Casts are one-way: a read at each site is behind every install
        // sent to it, so the sites' own allocations are all counted.
        for s in 0..3 {
            assert_eq!(cluster.read(site(s), BlockIndex::new(1)).unwrap(), data(2));
        }
    };
    round(0);
    round(1);
    let (allocs, bytes) = counted(|| (2..2 + AC_ROUNDS).for_each(round));
    let (allocs, bytes) = (allocs / AC_ROUNDS, bytes / AC_ROUNDS);
    println!("live available-copy round: {allocs} allocations, {bytes} bytes");
    assert!(
        allocs <= LIVE_AC_ROUND.0 && bytes <= LIVE_AC_ROUND.1,
        "{allocs} allocations and {bytes} bytes per live available-copy round, budget \
         {LIVE_AC_ROUND:?}"
    );
}

/// Single-block operations per counted run on the deterministic cluster.
const ROUND_OPS: u64 = 16;

#[test]
fn a_single_block_round_on_the_deterministic_cluster_allocates_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // The payloads exist before counting starts, as a caller's data does.
    let blocks: Vec<BlockData> = (1..=4u8)
        .map(|fill| BlockData::from(vec![fill; BLOCK_SIZE]))
        .collect();
    for (scheme, shards) in [Scheme::Voting, Scheme::AvailableCopy]
        .into_iter()
        .flat_map(|scheme| [(scheme, 1), (scheme, 4)])
    {
        let dev = if shards == 1 {
            let cluster = Cluster::new(batch_config(scheme, 3), ClusterOptions::default());
            ReliableDevice::new(Arc::new(cluster), SiteId::new(0))
        } else {
            let spec = ShardSpec {
                block_size: BLOCK_SIZE,
                group_size: 4,
                ..ShardSpec::new(scheme, shards, BLOCKS)
            };
            ReliableDevice::deterministic(&spec, ClusterOptions::default()).unwrap()
        };
        let scheme = format!("{scheme} over {shards} shard(s)");
        let mut i = 0;
        // One operation on the next block: a write or a read, through the
        // single-block entry point or as a batch of one.
        let mut op = |write: bool, batch: bool| {
            i += 1;
            let k = BlockIndex::new(i % BLOCKS);
            let data = || blocks[(i % 4) as usize].clone();
            match (write, batch) {
                (true, false) => dev.write_block(k, data()).unwrap(),
                (true, true) => dev.write_blocks(&[(k, data())]).unwrap(),
                (false, false) => drop(dev.read_block(k).unwrap()),
                (false, true) => drop(dev.read_blocks(&[k]).unwrap()),
            }
        };
        // Warm up: every block has been written and read once.
        for _ in 0..BLOCKS {
            op(true, false);
            op(false, false);
        }
        let mut round =
            |write, batch| fewest_allocs(|| (0..ROUND_OPS).for_each(|_| op(write, batch)));
        let (reads, writes) = (round(false, false), round(true, false));
        let (batch_reads, batch_writes) = (round(false, true), round(true, true));
        println!(
            "{scheme}: {reads} allocations per {ROUND_OPS} reads, {writes} per {ROUND_OPS} writes; \
             as batches of one, {batch_reads} and {batch_writes}"
        );
        assert_eq!(
            (reads, writes),
            (0, 0),
            "{scheme}: (reads, writes) allocated on the deterministic single-block path"
        );
        // A batch of one is the same path: only a read's result `Vec`,
        // which `read_blocks` returns, is allocated.
        assert_eq!(
            (batch_reads, batch_writes),
            (ROUND_OPS, 0),
            "{scheme}: (reads, writes) allocated by batches of one on the deterministic cluster"
        );
    }
}

#[test]
fn a_lying_length_prefix_commits_no_memory() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // A peer claims the largest legal frame and hangs up.
    let lie = MAX_FRAME.to_le_bytes();
    let mut reader = FrameReader::new(&lie[..]);
    let mut kind = None;
    let (_, bytes) = counted(|| {
        kind = reader
            .read_frame(|raw| Ok(raw.len()))
            .err()
            .map(|e| e.kind());
    });
    assert_eq!(kind, Some(std::io::ErrorKind::UnexpectedEof));
    assert!(
        bytes < 1024 * 1024,
        "{bytes} bytes allocated on the word of a 4-byte prefix"
    );
}

/// `live-fs-ac`'s image shape with `entries` names in `/d7`, the last of
/// them `/d7/f0` (2 KiB), so a lookup of it passes every other entry.
fn fs_image(entries: usize) -> FileSystem<MemStore> {
    let fs = FileSystem::format(MemStore::new(8192, BLOCK_SIZE)).unwrap();
    for d in 0..8 {
        fs.mkdir(&format!("/d{d}")).unwrap();
    }
    for e in 1..entries {
        fs.create(&format!("/d7/e{e:02}")).unwrap();
    }
    fs.write_file("/d7/f0", &[7; 2 * BLOCK_SIZE]).unwrap();
    fs
}

/// The fewest allocation calls `op` made over a few runs: an allocation by
/// another thread (the test harness reporting) can only add to a count.
fn fewest_allocs(mut op: impl FnMut()) -> u64 {
    (0..5).map(|_| counted(&mut op).0).min().unwrap()
}

/// Allocations of a 40 KiB rewrite: one copy of each of the 40 blocks, and
/// a constant for the transaction, the path and the commit. Measured: 56;
/// 67 while an edited block was copied twice and the transaction kept two
/// maps.
const FS_REWRITE_40K: u64 = 60;

/// `(stat, read_file)` allocations of a lookup of `/d7/f0` (2 KiB). The
/// transaction's block list is sized up front: grown by doubling, a
/// `read_file` reads 12.
const FS_LOOKUP: (u64, u64) = (7, 11);

#[test]
fn a_file_system_lookup_allocates_the_same_whatever_the_directory_holds() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let per_op = |entries| {
        let fs = fs_image(entries);
        let stat = fewest_allocs(|| assert_eq!(fs.stat("/d7/f0").unwrap().size, 2048));
        let read = fewest_allocs(|| assert_eq!(fs.read_file("/d7/f0").unwrap().len(), 2048));
        (stat, read)
    };
    let (one, many) = (per_op(1), per_op(24));
    println!("fs (stat, read_file) with 1 entry: {one:?} allocations; with 24: {many:?}");
    assert_eq!(
        one, many,
        "(stat, read_file) allocations grow with the directory: a lookup copies its entries again"
    );
    assert!(
        one.0 <= FS_LOOKUP.0 && one.1 <= FS_LOOKUP.1,
        "(stat, read_file) allocated {one:?}, budget {FS_LOOKUP:?}"
    );
}

/// `(allocations, bytes)` of rewriting `/d7/f0` with 2.5 KiB: two whole
/// blocks and a half one, each allocated and copied once, and the zeroed
/// block the half one starts from. Measured: 16 and 8 220; 22 and 12 820
/// while an edited block was copied into a `Vec` and again at commit, and
/// the transaction kept two maps.
const FS_WRITE_2K5: (u64, u64) = (18, 9_000);

#[test]
fn a_small_file_system_write_copies_each_block_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let fs = fs_image(1);
    let contents = [[1; 5 * BLOCK_SIZE / 2], [2; 5 * BLOCK_SIZE / 2]];
    let mut round = 0;
    let (allocs, bytes) = (0..5)
        .map(|_| {
            round += 1;
            counted(|| fs.write_file("/d7/f0", &contents[round % 2]).unwrap())
        })
        .min()
        .unwrap();
    assert_eq!(fs.read_file("/d7/f0").unwrap(), contents[round % 2]);
    println!("fs 2.5 KiB write_file: {allocs} allocations, {bytes} bytes");
    assert!(
        allocs <= FS_WRITE_2K5.0 && bytes <= FS_WRITE_2K5.1,
        "{allocs} allocations and {bytes} bytes to write a 2.5 KiB file, budget \
         {FS_WRITE_2K5:?}: a block is copied twice, or a buffer grows, in the file system"
    );
}

#[test]
fn a_file_system_rewrite_copies_each_block_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let fs = fs_image(1);
    let contents = [[1; 40 * BLOCK_SIZE], [2; 40 * BLOCK_SIZE]];
    fs.write_file("/d7/big", &contents[0]).unwrap();
    let mut round = 0;
    let allocs = fewest_allocs(|| {
        round += 1;
        fs.write_file("/d7/big", &contents[round % 2]).unwrap();
    });
    assert_eq!(fs.read_file("/d7/big").unwrap(), contents[round % 2]);
    println!("fs 40 KiB rewrite: {allocs} allocations");
    assert!(
        allocs <= FS_REWRITE_40K,
        "{allocs} allocations to rewrite a 40 KiB file, budget {FS_REWRITE_40K}: \
         a per-block copy or allocation is back in the file system"
    );
}
