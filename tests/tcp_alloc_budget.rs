//! Allocation budget of the TCP wire path, counted — not timed — at the
//! repo benchmark's `tcp-batch-mcv` shape: 64-block × 1 KiB voting batches
//! over loopback sockets. The twin of `crates/fs/tests/device_call_budget.rs`
//! one layer down: a change that puts a copy, a clone or a growing buffer
//! back on the path between `write_many`/`read_many` and the sockets fails
//! here on any host, however noisy.
//!
//! The floor this defends: a block that arrives over a socket is copied
//! once, into the allocation it then lives in (a site's store, or the
//! caller's result) — so one allocation per decoded block is owed — and
//! everything else an operation allocates is a few frames and vectors per
//! site, whatever the batch size. A write lands its batch on every site
//! and a read fetches it from one, so per write + read pair on `n` sites
//! `(n + 1) × 64` blocks cross a socket and are decoded.
//!
//! Before the frame was encoded once and in place this test measured, on
//! three sites, 1 374 KiB and 749 allocations per pair against a budget of
//! 640 KiB and 400; with it, 428 KiB and 321 (385 multiplexed: a reply
//! channel and two envelope boxes per exchange), and 567 KiB and 461 on
//! five sites.

use blockrep::core::wire::{FrameReader, MAX_FRAME};
use blockrep::core::TcpCluster;
use blockrep::net::DeliveryMode;
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Allocation calls and bytes per steady-state `write_many` + `read_many`
/// pair on an `n`-site voting cluster.
fn per_pair(sites: usize, multiplexed: bool) -> (u64, u64) {
    let cfg = DeviceConfig::builder(Scheme::Voting)
        .sites(sites)
        .num_blocks(BLOCKS)
        .block_size(BLOCK_SIZE)
        .build()
        .unwrap();
    let cluster = TcpCluster::spawn(cfg, DeliveryMode::default()).unwrap();
    cluster.set_multiplexing(multiplexed).unwrap();
    let origin = SiteId::new(0);
    let ks: Vec<BlockIndex> = (0..BLOCKS).map(BlockIndex::new).collect();
    // The payloads exist before counting starts, as a caller's data does.
    let batches: Vec<Vec<(BlockIndex, BlockData)>> = (0..PAIRS + 2)
        .map(|round| {
            let fill = |k: &BlockIndex| (round * BLOCKS + k.as_u64()) as u8;
            ks.iter()
                .map(|k| (*k, BlockData::from(vec![fill(k); BLOCK_SIZE])))
                .collect()
        })
        .collect();
    let pair = |batch: &Vec<(BlockIndex, BlockData)>| {
        cluster.write_many(origin, batch).unwrap();
        let read = cluster.read_many(origin, &ks).unwrap();
        assert!(read.iter().zip(batch).all(|(got, (_, sent))| got == sent));
    };
    // Warm up: connections' buffers reach their working size.
    pair(&batches[0]);
    pair(&batches[1]);
    let (allocs, bytes) = counted(|| batches[2..].iter().for_each(pair));
    (allocs / PAIRS, bytes / PAIRS)
}

/// Blocks that cross a socket, and are decoded, per pair on `n` sites.
fn blocks_decoded(sites: u64) -> u64 {
    (sites + 1) * BLOCKS
}

/// What a pair may allocate beyond its decoded blocks, per site: request
/// and reply frames, index and version vectors, the reply channel of a
/// multiplexed exchange — none of it proportional to the batch.
const PER_SITE: u64 = 48;

fn assert_within_budget(sites: u64, multiplexed: bool) -> (u64, u64) {
    let (allocs, bytes) = per_pair(sites as usize, multiplexed);
    let payload = blocks_decoded(sites) * BLOCK_SIZE as u64;
    assert!(
        bytes * 2 <= payload * 5,
        "{sites} sites, multiplexed {multiplexed}: {bytes} bytes allocated per pair \
         for {payload} payload bytes on the links (budget 2.5x)"
    );
    let budget = blocks_decoded(sites) + PER_SITE * sites;
    assert!(
        allocs <= budget,
        "{sites} sites, multiplexed {multiplexed}: {allocs} allocations per pair, \
         budget {budget} = {} decoded blocks + {PER_SITE} x {sites} sites",
        blocks_decoded(sites)
    );
    (allocs, bytes)
}

#[test]
fn a_batch_pair_allocates_its_decoded_blocks_plus_a_constant_per_site() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // As `spawn` returns it, and multiplexed: both share the framing, so
    // both must meet the budget.
    let (allocs_3, bytes_3) = assert_within_budget(3, false);
    assert_within_budget(3, true);
    // Two more sites cost their own decodes and their own constant — not a
    // second copy of the batch on the coordinator for each of them.
    let (allocs_5, bytes_5) = assert_within_budget(5, false);
    let extra_sites = 2;
    assert!(
        allocs_5 - allocs_3 <= extra_sites * (BLOCKS + PER_SITE),
        "allocations per pair grew {allocs_3} -> {allocs_5} from 3 to 5 sites"
    );
    let per_site_bytes = BLOCKS * BLOCK_SIZE as u64;
    assert!(
        (bytes_5 - bytes_3) * 4 <= extra_sites * per_site_bytes * 5,
        "bytes per pair grew {bytes_3} -> {bytes_5} from 3 to 5 sites; \
         each site owes one copy of the {per_site_bytes}-byte batch (budget 1.25x)"
    );
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
