//! Device-call budget of every file-system operation, counted — not timed —
//! at the repo benchmark's `live-fs-ac` geometry: 8 192 × 1 KiB blocks,
//! 8 directories × 8 files (six of 2 KiB, two of 40 KiB each).
//!
//! The per-operation block transaction promises one device read per
//! distinct block an operation looks at and exactly one `write_blocks`
//! holding each changed block once. Before it, every inode, bitmap bit and
//! directory entry was its own device round trip; the same counting wrapper
//! gave, as read calls + write calls:
//!
//! | op                  | before   | ceiling here |
//! |---------------------|----------|--------------|
//! | `stat`              | 15 + 0   | 5            |
//! | `read_file` 2 KiB   | 31 + 0   | 7            |
//! | `read_file` 40 KiB  | 40 + 0   | 7            |
//! | `write_file` 3 KiB  | 52 + 11  | 9            |
//! | `write_file` 40 KiB | 143 + 127| 9            |
//! | `append` 1 KiB      | 48 + 4   | 10           |
//! | `rename`            | 51 + 4   | 10           |
//! | `remove_file`       | 38 + 7   | 10           |
//! | `create`            | 80 + 3   | 12           |
//! | `truncate`          | 61 + 41  | 10           |
//! | `read_dir`          | 19 + 0   | 5            |
//!
//! and 13 blocks written for a 3-block `write_file`, 166 for a 40-block
//! one; `free_bytes` was one call per device block (8 192) and `format`
//! 262 write calls.
//!
//! The last test pins *placement*: a seeded script of every public
//! operation must make the same device calls, block for block, and leave
//! the same image as it always has (DESIGN.md §4i). Its digests were taken
//! before the file system stopped copying whole directories per lookup;
//! a change to how the fs finds a free block or a free directory slot, or
//! to the order it reads or writes blocks in, moves them.

use blockrep_fs::FileSystem;
use blockrep_storage::{BlockDevice, MemStore};
use blockrep_types::{BlockData, BlockIndex, DeviceResult};
use std::sync::Mutex;

/// FNV-1a, 64-bit: the same digest on every host and toolchain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

#[derive(Debug, Default, Clone)]
struct Calls {
    reads: u64,
    writes: u64,
    /// Every block index written, in order, across all write calls.
    written: Vec<u64>,
    /// Digest of every call in order: its kind, then its block indices.
    log: Fnv,
}

/// The four device entry points, as the call log tells them apart.
#[derive(Clone, Copy)]
enum Kind {
    ReadBlock,
    ReadBlocks,
    WriteBlock,
    WriteBlocks,
}

impl Calls {
    fn log(&mut self, kind: Kind, ks: impl ExactSizeIterator<Item = BlockIndex>) {
        self.log.eat(&[kind as u8]);
        self.log.eat_u64(ks.len() as u64);
        for k in ks {
            self.log.eat_u64(k.as_u64());
        }
    }

    fn total(&self) -> u64 {
        self.reads + self.writes
    }

    fn wrote_a_block_twice(&self) -> bool {
        let mut seen = self.written.clone();
        seen.sort_unstable();
        seen.windows(2).any(|w| w[0] == w[1])
    }
}

/// Counts the calls the file system makes, whatever their width.
struct Counting {
    inner: MemStore,
    calls: Mutex<Calls>,
}

impl Counting {
    fn note(&self, edit: impl FnOnce(&mut Calls)) {
        edit(&mut self.calls.lock().unwrap());
    }
}

impl BlockDevice for Counting {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.note(|c| {
            c.reads += 1;
            c.log(Kind::ReadBlock, [k].into_iter());
        });
        self.inner.read_block(k)
    }
    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        self.note(|c| {
            c.writes += 1;
            c.written.push(k.as_u64());
            c.log(Kind::WriteBlock, [k].into_iter());
        });
        self.inner.write_block(k, data)
    }
    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.note(|c| {
            c.reads += 1;
            c.log(Kind::ReadBlocks, ks.iter().copied());
        });
        self.inner.read_blocks(ks)
    }
    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        self.note(|c| {
            c.writes += 1;
            c.written.extend(writes.iter().map(|(k, _)| k.as_u64()));
            c.log(Kind::WriteBlocks, writes.iter().map(|(k, _)| *k));
        });
        self.inner.write_blocks(writes)
    }
}

const SMALL: usize = 2 * 1024;
const LARGE: usize = 40 * 1024;

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// Formats the workload's image and returns it with the calls `format`
/// itself made.
fn image() -> (FileSystem<Counting>, Calls) {
    let dev = Counting {
        inner: MemStore::new(8192, 1024),
        calls: Mutex::default(),
    };
    let fs = FileSystem::format(dev).unwrap();
    let format_calls = fs.device().calls.lock().unwrap().clone();
    for d in 0..8 {
        fs.mkdir(&format!("/d{d}")).unwrap();
        for f in 0..8 {
            let len = if f < 6 { SMALL } else { LARGE };
            fs.write_file(&format!("/d{d}/f{f}"), &payload(len, d * 8 + f))
                .unwrap();
        }
    }
    (fs, format_calls)
}

/// Runs one operation and returns the device calls it made.
fn calls_of<T>(fs: &FileSystem<Counting>, op: impl FnOnce(&FileSystem<Counting>) -> T) -> Calls {
    *fs.device().calls.lock().unwrap() = Calls::default();
    op(fs);
    fs.device().calls.lock().unwrap().clone()
}

fn assert_read_only(name: &str, calls: &Calls, ceiling: u64) {
    assert_eq!(calls.writes, 0, "{name} is read-only: {calls:?}");
    assert!(
        calls.reads <= ceiling,
        "{name}: {calls:?} > {ceiling} calls"
    );
}

fn assert_mutating(name: &str, calls: &Calls, ceiling: u64) {
    assert_eq!(calls.writes, 1, "{name} commits one batch: {calls:?}");
    assert!(
        !calls.wrote_a_block_twice(),
        "{name} wrote a block twice: {calls:?}"
    );
    assert!(
        calls.total() <= ceiling,
        "{name}: {calls:?} > {ceiling} calls"
    );
}

#[test]
fn read_only_operations_stay_within_budget_and_write_nothing() {
    let (fs, _) = image();
    let calls = calls_of(&fs, |fs| fs.stat("/d7/f7").unwrap());
    assert_read_only("stat", &calls, 5);
    let calls = calls_of(&fs, |fs| {
        assert_eq!(fs.read_file("/d7/f5").unwrap(), payload(SMALL, 7 * 8 + 5))
    });
    assert_read_only("read_file 2 KiB", &calls, 7);
    let calls = calls_of(&fs, |fs| {
        assert_eq!(fs.read_file("/d7/f7").unwrap(), payload(LARGE, 7 * 8 + 7))
    });
    assert_read_only("read_file 40 KiB", &calls, 7);
    let calls = calls_of(&fs, |fs| assert_eq!(fs.read_dir("/d7").unwrap().len(), 8));
    assert_read_only("read_dir", &calls, 5);
    let calls = calls_of(&fs, |fs| assert!(fs.exists("/d7/f0")));
    assert_read_only("exists", &calls, 5);
    // A failed lookup writes nothing either.
    let calls = calls_of(&fs, |fs| assert!(fs.remove_file("/d7/ghost").is_err()));
    assert_read_only("failed remove_file", &calls, 5);
}

#[test]
fn mutating_operations_commit_exactly_one_batch_within_budget() {
    let (fs, _) = image();
    let calls = calls_of(&fs, |fs| {
        fs.write_file("/d7/f0", &payload(3 * 1024, 1)).unwrap()
    });
    assert_mutating("write_file 3 KiB", &calls, 9);
    // Three user blocks, the file's inode block and the bitmap block.
    assert!(calls.written.len() <= 5, "write_file 3 KiB: {calls:?}");

    let calls = calls_of(&fs, |fs| {
        fs.write_file("/d7/f6", &payload(LARGE, 2)).unwrap()
    });
    assert_mutating("write_file 40 KiB", &calls, 9);
    assert!(calls.written.len() <= 44, "write_file 40 KiB: {calls:?}");

    let mut handle = fs.open("/d7/f1").unwrap();
    let calls = calls_of(&fs, |_| handle.append(&payload(1024, 3)).unwrap());
    assert_mutating("append", &calls, 10);

    let calls = calls_of(&fs, |fs| fs.rename("/d7/f2", "/d6/moved").unwrap());
    assert_mutating("rename", &calls, 10);
    let calls = calls_of(&fs, |fs| fs.remove_file("/d7/f7").unwrap());
    assert_mutating("remove_file", &calls, 10);
    let calls = calls_of(&fs, |fs| fs.truncate("/d6/f7", 5 * 1024 + 100).unwrap());
    assert_mutating("truncate", &calls, 10);
    let calls = calls_of(&fs, |fs| fs.create("/d7/fresh").unwrap());
    assert_mutating("create", &calls, 12);
    let calls = calls_of(&fs, |fs| fs.mkdir("/d7/sub").unwrap());
    assert_mutating("mkdir", &calls, 12);
    let calls = calls_of(&fs, |fs| fs.remove_dir("/d7/sub").unwrap());
    assert_mutating("remove_dir", &calls, 10);

    // The image the budgeted operations left behind is what they said.
    assert_eq!(fs.read_file("/d7/f0").unwrap(), payload(3 * 1024, 1));
    assert_eq!(fs.read_file("/d7/f6").unwrap(), payload(LARGE, 2));
    let mut appended = payload(SMALL, 7 * 8 + 1);
    appended.extend(payload(1024, 3));
    assert_eq!(fs.read_file("/d7/f1").unwrap(), appended);
    assert_eq!(
        fs.read_file("/d6/moved").unwrap(),
        payload(SMALL, 7 * 8 + 2)
    );
    assert_eq!(
        fs.read_file("/d6/f7").unwrap(),
        payload(LARGE, 6 * 8 + 7)[..5 * 1024 + 100]
    );
    assert!(fs.check().unwrap().is_clean());
}

#[test]
fn whole_image_operations_read_each_metadata_block_once() {
    let (fs, format_calls) = image();
    let geo = *fs.geometry();
    // Format: the zeroed metadata region, superblock, reserved bits and
    // root inode go out as one batch, and nothing is read.
    assert_eq!((format_calls.reads, format_calls.writes), (0, 1));
    assert_eq!(format_calls.written.len() as u64, geo.data_start);
    assert!(!format_calls.wrote_a_block_twice());

    let calls = calls_of(&fs, |fs| fs.free_bytes().unwrap());
    assert_read_only("free_bytes", &calls, geo.bitmap_blocks);

    // fsck: one vectored read of the metadata region, then one read per
    // directory (its blocks) and per indirect block — 9 directories and 16
    // large files here.
    let calls = calls_of(&fs, |fs| assert!(fs.check().unwrap().is_clean()));
    assert_read_only("check", &calls, 1 + 9 + 16);
}

/// SplitMix64: the placement script's only source of choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

const PLACEMENT_SEED: u64 = 29;
const PLACEMENT_STEPS: u64 = 1_500;
/// `(call log, final image)` digests of the placement script, computed
/// before the file system stopped copying whole directories per lookup.
const PLACEMENT_DIGESTS: (u64, u64) = (0x2542_407d_f620_74e0, 0xddd0_55de_c677_db49);

/// One step of the placement script: a public operation (or two) on paths
/// and sizes drawn from `rng`. Many fail — missing parents, names taken,
/// directories not empty, no space — and a failure is placement too: it
/// must read what it read before and write nothing.
fn placement_step(fs: &FileSystem<Counting>, rng: &mut Rng, step: u64) {
    let d = rng.below(8);
    let file = format!("/d{d}/f{}", rng.below(12));
    let other = format!("/d{}/f{}", rng.below(8), rng.below(12));
    let sub = format!("/d{d}/s{}", rng.below(3));
    let nested = format!("{sub}/g{}", rng.below(4));
    // Sizes straddle block boundaries, the 12 direct pointers, and zero.
    let len = match rng.below(3) {
        0 => rng.below(3 * 1024),
        1 => 1024 * rng.below(48),
        _ => rng.below(48 * 1024),
    } as usize;
    let off = rng.below(60 * 1024);
    let data = payload(len, step as u8);
    let _ = match rng.below(24) {
        // A rewrite frees the old blocks, then allocates the new ones.
        0..=3 => fs.write_file(&file, &data),
        4 => fs.write(&file, off, &data),
        5 | 6 => fs.open(&file).and_then(|mut h| h.append(&data)),
        7 => fs.read(&file, off, len).map(drop),
        8 => fs.read_file(&file).map(drop),
        // A truncate frees; the write after it allocates again.
        9 => fs
            .truncate(&file, off / 4)
            .and_then(|()| fs.write(&file, off / 2, &data)),
        // The create reuses the inode and the slot the remove freed.
        10 => fs.remove_file(&file).and_then(|()| fs.create(&file)),
        11 => fs.remove_file(&other).and_then(|()| fs.create(&file)),
        12 => fs.mkdir(&sub),
        13 => fs.remove_dir(&sub),
        14 => fs.write_file(&nested, &data),
        15 => fs.rename(&file, &other),
        16 => fs.rename(&nested, &file),
        17 => fs.rename(&sub, &format!("/d{}/s{}", rng.below(8), rng.below(3))),
        18 => fs.stat(&file).and_then(|_| fs.read_dir(&sub)).map(drop),
        19 => fs.copy(&other, &nested),
        20 => fs.walk(&sub).and_then(|_| fs.free_bytes()).map(drop),
        // Files up to the 268 KiB maximum: the device fills, and some
        // rewrites fail with no space.
        21 | 22 => fs.write_file(
            &format!("/d{d}/b{}", rng.below(8)),
            &payload((64 + rng.below(205)) as usize * 1024, step as u8),
        ),
        _ => match fs.exists(&sub) {
            true => fs.remove_dir_all(&sub),
            false => fs.read_dir(&format!("/d{d}")).map(drop),
        },
    };
}

#[test]
fn a_seeded_script_makes_the_same_calls_and_leaves_the_same_image() {
    let (fs, _) = image();
    *fs.device().calls.lock().unwrap() = Calls::default();
    let mut rng = Rng(PLACEMENT_SEED);
    for step in 0..PLACEMENT_STEPS {
        placement_step(&fs, &mut rng, step);
        if step % 500 == 499 {
            let report = fs.check().unwrap();
            assert!(report.is_clean(), "step {step}: {:?}", report.problems);
        }
    }
    let log = fs.device().calls.lock().unwrap().log;
    let mut image = Fnv::default();
    let inner = &fs.device().inner;
    for k in 0..inner.num_blocks() {
        image.eat(inner.read_block(BlockIndex::new(k)).unwrap().as_slice());
    }
    assert_eq!(
        (log.0, image.0),
        PLACEMENT_DIGESTS,
        "the script's device calls or final image moved: (call log, image) \
         = ({:#018x}, {:#018x})",
        log.0,
        image.0
    );
}
