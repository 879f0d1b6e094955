//! Op scripts and their shadow models.
//!
//! A script is a pure function of `--seed`: the benchmark generates every
//! call, the program receives only the generated calls. Each generator
//! carries the shadow model of what the device or file system must hold
//! after the calls so far, so every read can be checked and the run can
//! end with a full read-back.
//!
//! Op kinds and sizes are dealt from shuffled decks, not drawn one by one:
//! every deck-length stretch of a script holds exactly the stated mix, and
//! the seed decides only the order, the keys and the contents. With
//! independent draws the share of large file writes in a 30 s run moved
//! the count metrics (`msgs_per_op`, `allocs_per_op`, `alloc_kib_per_op`)
//! by several percent between seeds; dealt from decks they repeat to a
//! fraction of a percent, which is what lets them carry a 1 % bound.
//!
//! Payloads come from a pool built once per process: a write hands the
//! program a reference-counted pool block (no allocation, no copy on the
//! benchmark's side), and the shadow model is one pool index per block.
//! The allocation counters therefore see the program's work only.

use crate::stats::SplitMix64;
use blockrep_types::BlockData;

pub const BLOCK_SIZE: usize = 1024;
/// Distinct payload blocks (4 MiB, larger than this host's L2).
pub const POOL_BLOCKS: usize = 4096;

/// The payload pool: `POOL_BLOCKS` pseudo-random blocks, and the same bytes
/// as one slice for file contents.
pub struct Payloads {
    pub blocks: Vec<BlockData>,
    pub bytes: Vec<u8>,
}

impl Payloads {
    pub fn new(seed: u64) -> Payloads {
        let mut rng = SplitMix64::new(seed ^ 0x7061_796C_6F61_6473);
        let mut bytes = Vec::with_capacity(POOL_BLOCKS * BLOCK_SIZE);
        while bytes.len() < POOL_BLOCKS * BLOCK_SIZE {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        let blocks = bytes
            .chunks_exact(BLOCK_SIZE)
            .map(|c| BlockData::from(c.to_vec()))
            .collect();
        Payloads { blocks, bytes }
    }
}

/// FNV-1a over the fields of generated calls; pins a script in the tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

#[cfg(test)]
impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------------
// Decks
// ---------------------------------------------------------------------------

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A deck of cards dealt in seed-shuffled order and reshuffled when it
/// runs out.
struct Deck<C> {
    template: Vec<C>,
    cards: Vec<C>,
}

impl<C: Copy> Deck<C> {
    fn new(template: Vec<C>) -> Deck<C> {
        Deck {
            cards: Vec::with_capacity(template.len()),
            template,
        }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> C {
        if self.cards.is_empty() {
            self.cards.extend_from_slice(&self.template);
            shuffle(&mut self.cards, rng);
        }
        self.cards.pop().expect("a deck has at least one card")
    }

    /// Whether the last card dealt was the last of its deck.
    fn at_boundary(&self) -> bool {
        self.cards.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Block workloads
// ---------------------------------------------------------------------------

/// Blocks per placement group and per aligned batch.
pub const GROUP: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPattern {
    /// Requests of 16 single-block ops, uniform keys, 5 reads : 2 writes.
    /// The burst is timed as one sample: single ops cost 0.3-5 us here and
    /// would otherwise measure the clock.
    SingleBurst,
    /// One group-aligned 64-block batch, 1 read : 1 write.
    GroupBatch,
    /// 75 % 128-block batches over two adjacent groups, 25 % one group,
    /// 1 read : 1 write.
    TwoGroupBatch,
}

/// Ops per request of [`BlockPattern::SingleBurst`].
pub const BURST: usize = 16;

/// One card of a block deck: read or write, over how many groups.
#[derive(Debug, Clone, Copy)]
struct BlockCard {
    write: bool,
    groups: u64,
}

impl BlockPattern {
    fn deck(self) -> Vec<BlockCard> {
        let cards = |reads: usize, writes: usize, groups: u64| {
            let read = std::iter::repeat_n(
                BlockCard {
                    write: false,
                    groups,
                },
                reads,
            );
            read.chain(std::iter::repeat_n(
                BlockCard {
                    write: true,
                    groups,
                },
                writes,
            ))
        };
        match self {
            BlockPattern::SingleBurst => cards(5, 2, 0).collect(),
            BlockPattern::GroupBatch => cards(1, 1, 1).collect(),
            BlockPattern::TwoGroupBatch => cards(3, 3, 2).chain(cards(1, 1, 1)).collect(),
        }
    }
}

/// One generated request. `fills[i]` is the pool index block `keys[i]`
/// must hold afterwards (write) or must return (read).
#[derive(Debug, Default)]
pub struct BlockReq {
    pub write: bool,
    pub keys: Vec<u64>,
    pub fills: Vec<u16>,
}

pub struct BlockScript {
    rng: SplitMix64,
    deck: Deck<BlockCard>,
    /// Pool index every block currently holds.
    pub shadow: Vec<u16>,
}

impl BlockScript {
    /// The script for `seed`; the shadow starts at the prefill image.
    pub fn new(pattern: BlockPattern, num_blocks: u64, seed: u64) -> BlockScript {
        let mut fill = SplitMix64::new(seed ^ 0x0070_7265_6669_6C6C);
        let shadow = (0..num_blocks)
            .map(|_| fill.below(POOL_BLOCKS as u64) as u16)
            .collect();
        BlockScript {
            rng: SplitMix64::new(seed),
            deck: Deck::new(pattern.deck()),
            shadow,
        }
    }

    /// Generates the next request. Returns whether it completes a deck,
    /// i.e. whether the requests so far hold exactly the stated mix.
    pub fn next(&mut self, req: &mut BlockReq) -> bool {
        req.keys.clear();
        req.fills.clear();
        let n = self.shadow.len() as u64;
        let card = self.deck.deal(&mut self.rng);
        req.write = card.write;
        if card.groups == 0 {
            req.keys.extend((0..BURST).map(|_| self.rng.below(n)));
        } else {
            let first = self.rng.below(n / GROUP - (card.groups - 1));
            req.keys
                .extend(first * GROUP..(first + card.groups) * GROUP);
        }
        if req.write {
            // A burst writes 16 unrelated pool blocks, a batch a run of them.
            let base = self.rng.below(POOL_BLOCKS as u64);
            for (i, &k) in req.keys.iter().enumerate() {
                let fill = match card.groups {
                    0 => self.rng.below(POOL_BLOCKS as u64),
                    _ => (base + i as u64) % POOL_BLOCKS as u64,
                } as u16;
                self.shadow[k as usize] = fill;
                req.fills.push(fill);
            }
        } else {
            req.fills
                .extend(req.keys.iter().map(|&k| self.shadow[k as usize]));
        }
        self.deck.at_boundary()
    }

    /// Digest of the first `calls` requests.
    #[cfg(test)]
    pub fn digest(mut self, calls: usize) -> u64 {
        let mut d = Digest::new();
        let mut req = BlockReq::default();
        for _ in 0..calls {
            self.next(&mut req);
            d.feed(u64::from(req.write));
            for (&k, &f) in req.keys.iter().zip(&req.fills) {
                d.feed(k);
                d.feed(u64::from(f));
            }
        }
        d.0
    }
}

// ---------------------------------------------------------------------------
// File-system workload
// ---------------------------------------------------------------------------

pub const FS_FILES: usize = 64;
/// Files `0..FS_SMALL_FILES` hold 1-4 KiB, the other 18 (28 %) 16-64 KiB.
/// A file keeps its class for the whole run, so the share of large files
/// on the device does not drift with the seed.
pub const FS_SMALL_FILES: usize = 46;
const FS_LARGE_FILES: usize = FS_FILES - FS_SMALL_FILES;
pub const FS_DIRS: u64 = 8;
/// Script steps per deck.
pub const FS_DECK: u64 = 200;
const SMALL: (u32, u32) = (1024, 4096);
const LARGE: (u32, u32) = (16 * 1024, 64 * 1024);
const APPEND_LEN: u32 = 1024;
/// The file system's limit (12 direct pointers plus one indirect block of
/// 4-byte pointers) is 268 KiB; appends between two whole-file writes
/// cannot take a 64 KiB file there, and pool windows leave this much room.
const FS_MAX_FILE: u32 = ((12 + BLOCK_SIZE / 4) * BLOCK_SIZE) as u32;

/// `/d{dir}/f{name}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileId {
    pub dir: u8,
    pub name: u32,
}

impl FileId {
    pub fn write_path(self, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let _ = write!(out, "/d{}/f{}", self.dir, self.name);
    }
}

/// A file's content is always `pool[off .. off + len]`: a whole-file write
/// picks a new window, an append extends it, a truncate shortens it. The
/// shadow model is therefore two integers per file.
#[derive(Debug, Clone, Copy)]
pub struct FileState {
    pub id: FileId,
    pub off: u32,
    pub len: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// Must return `pool[off .. off + len]`.
    ReadFile {
        file: FileId,
        off: u32,
        len: u32,
    },
    WriteFile {
        file: FileId,
        off: u32,
        len: u32,
    },
    /// Appends `pool[off .. off + len]`.
    Append {
        file: FileId,
        off: u32,
        len: u32,
    },
    /// Must report `len` bytes.
    Stat {
        file: FileId,
        len: u32,
    },
    /// Must list `entries` names.
    ReadDir {
        dir: u8,
        entries: u32,
    },
    Rename {
        from: FileId,
        to: FileId,
    },
    /// `remove_file` then `create`: two ops, the file ends empty.
    RemoveCreate {
        file: FileId,
    },
    Truncate {
        file: FileId,
        len: u32,
    },
}

#[derive(Debug, Clone, Copy)]
enum FsKind {
    Read,
    Write,
    Append,
    Stat,
    ReadDir,
    Rename,
    RemoveCreate,
    Truncate,
}

/// One card of the file-system deck: the op, the class of file it hits
/// (`None`: any file) and its number among the deck's cards of that kind
/// and class. The number picks the file (through a per-deck permutation,
/// so a deck's whole-file writes hit every large file exactly once) and,
/// for a write, the stratum of the class's size range the new length
/// comes from (so a deck's writes cover the range evenly). What a deck
/// writes and frees is then nearly the same for every deck and seed.
#[derive(Debug, Clone, Copy)]
struct FsCard {
    kind: FsKind,
    large: Option<bool>,
    slot: u32,
}

/// Whole-file writes per deck, by class.
const SMALL_WRITES: u32 = 42;
const LARGE_WRITES: u32 = FS_LARGE_FILES as u32;

/// 200 steps: 45 % `read_file`, 30 % `write_file`, 10 % `append`, 5 %
/// `stat`/`read_dir`, 4 % `rename`, 3 % `remove`+`create`, 3 % `truncate`;
/// 70 % of the sized ops on small files, 30 % on large ones.
fn fs_deck() -> Vec<FsCard> {
    let mut deck = Vec::with_capacity(FS_DECK as usize);
    let mut add = |n: u32, large: Option<bool>, kind: FsKind| {
        deck.extend((0..n).map(|slot| FsCard { kind, large, slot }));
    };
    add(63, Some(false), FsKind::Read);
    add(27, Some(true), FsKind::Read);
    add(SMALL_WRITES, Some(false), FsKind::Write);
    add(LARGE_WRITES, Some(true), FsKind::Write);
    add(14, Some(false), FsKind::Append);
    add(6, Some(true), FsKind::Append);
    add(5, None, FsKind::Stat);
    add(5, None, FsKind::ReadDir);
    add(8, None, FsKind::Rename);
    add(4, Some(false), FsKind::RemoveCreate);
    add(2, Some(true), FsKind::RemoveCreate);
    add(4, Some(false), FsKind::Truncate);
    add(2, Some(true), FsKind::Truncate);
    debug_assert_eq!(deck.len() as u64, FS_DECK);
    deck
}

pub struct FsScript {
    rng: SplitMix64,
    deck: Deck<FsCard>,
    /// This deck's order of the small and of the large files.
    small_order: Vec<usize>,
    large_order: Vec<usize>,
    pub files: Vec<FileState>,
    pub dir_entries: [u32; FS_DIRS as usize],
    next_name: u32,
}

impl FsScript {
    /// The script for `seed`; `files` starts at the image set-up writes,
    /// file `i` holding a size from its own stratum of its class's range.
    pub fn new(seed: u64) -> FsScript {
        let mut s = FsScript {
            rng: SplitMix64::new(seed),
            deck: Deck::new(fs_deck()),
            small_order: (0..FS_SMALL_FILES).collect(),
            large_order: (FS_SMALL_FILES..FS_FILES).collect(),
            files: Vec::with_capacity(FS_FILES),
            dir_entries: [0; FS_DIRS as usize],
            next_name: FS_FILES as u32,
        };
        for i in 0..FS_FILES {
            let id = FileId {
                dir: (i as u64 % FS_DIRS) as u8,
                name: i as u32,
            };
            let (off, len) = match i.checked_sub(FS_SMALL_FILES) {
                None => s.window(SMALL, i as u32, FS_SMALL_FILES as u32),
                Some(j) => s.window(LARGE, j as u32, FS_LARGE_FILES as u32),
            };
            s.dir_entries[usize::from(id.dir)] += 1;
            s.files.push(FileState { id, off, len });
        }
        s
    }

    /// A new content window with a length from stratum `stratum` of `of`
    /// equal strata of `range`.
    fn window(&mut self, (lo, hi): (u32, u32), stratum: u32, of: u32) -> (u32, u32) {
        let width = u64::from((hi - lo) / of);
        let len = lo + (u64::from(stratum) * width + self.rng.below(width)) as u32;
        let room = (POOL_BLOCKS * BLOCK_SIZE) as u32 - FS_MAX_FILE;
        (self.rng.below(u64::from(room)) as u32, len)
    }

    /// The file a card hits: the `slot`-th of its class in this deck's
    /// order while the order lasts, any file of the class after that.
    fn pick(&mut self, card: FsCard) -> usize {
        let order = match card.large {
            None => return self.rng.below(FS_FILES as u64) as usize,
            Some(false) => &self.small_order,
            Some(true) => &self.large_order,
        };
        match order.get(card.slot as usize) {
            Some(&file) => file,
            None => order[self.rng.below(order.len() as u64) as usize],
        }
    }

    pub fn next(&mut self) -> FsOp {
        if self.deck.at_boundary() {
            shuffle(&mut self.small_order, &mut self.rng);
            shuffle(&mut self.large_order, &mut self.rng);
        }
        let card = self.deck.deal(&mut self.rng);
        let i = self.pick(card);
        let f = self.files[i];
        match card.kind {
            FsKind::Read => FsOp::ReadFile {
                file: f.id,
                off: f.off,
                len: f.len,
            },
            FsKind::Write => {
                let (off, len) = match card.large {
                    Some(true) => self.window(LARGE, card.slot, LARGE_WRITES),
                    _ => self.window(SMALL, card.slot, SMALL_WRITES),
                };
                self.files[i].off = off;
                self.files[i].len = len;
                FsOp::WriteFile {
                    file: f.id,
                    off,
                    len,
                }
            }
            FsKind::Append => {
                debug_assert!(f.len + APPEND_LEN <= FS_MAX_FILE);
                self.files[i].len = f.len + APPEND_LEN;
                FsOp::Append {
                    file: f.id,
                    off: f.off + f.len,
                    len: APPEND_LEN,
                }
            }
            FsKind::Stat => FsOp::Stat {
                file: f.id,
                len: f.len,
            },
            FsKind::ReadDir => FsOp::ReadDir {
                dir: f.id.dir,
                entries: self.dir_entries[usize::from(f.id.dir)],
            },
            FsKind::Rename => {
                // A new name in the same directory: directories keep their
                // eight entries, so look-up cost does not drift over a run.
                let to = FileId {
                    dir: f.id.dir,
                    name: self.next_name,
                };
                self.next_name += 1;
                self.files[i].id = to;
                FsOp::Rename { from: f.id, to }
            }
            FsKind::RemoveCreate => {
                self.files[i].len = 0;
                FsOp::RemoveCreate { file: f.id }
            }
            FsKind::Truncate => {
                let len = self.rng.below(u64::from(f.len) + 1) as u32;
                self.files[i].len = len;
                FsOp::Truncate { file: f.id, len }
            }
        }
    }

    /// Digest of the first `calls` ops.
    #[cfg(test)]
    pub fn digest(mut self, calls: usize) -> u64 {
        let mut d = Digest::new();
        let id = |f: FileId| u64::from(f.dir) << 32 | u64::from(f.name);
        for _ in 0..calls {
            let fields = match self.next() {
                FsOp::ReadFile { file, off, len } => [0, id(file), off.into(), len.into()],
                FsOp::WriteFile { file, off, len } => [1, id(file), off.into(), len.into()],
                FsOp::Append { file, off, len } => [2, id(file), off.into(), len.into()],
                FsOp::Stat { file, len } => [3, id(file), len.into(), 0],
                FsOp::ReadDir { dir, entries } => [4, dir.into(), entries.into(), 0],
                FsOp::Rename { from, to } => [5, id(from), id(to), 0],
                FsOp::RemoveCreate { file } => [6, id(file), 0, 0],
                FsOp::Truncate { file, len } => [7, id(file), len.into(), 0],
            };
            fields.into_iter().for_each(|x| d.feed(x));
        }
        d.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALLS: usize = 10_000;

    #[test]
    fn scripts_are_pure_functions_of_the_seed() {
        let block = |p, seed| BlockScript::new(p, 16_384, seed).digest(CALLS);
        for p in [
            BlockPattern::SingleBurst,
            BlockPattern::GroupBatch,
            BlockPattern::TwoGroupBatch,
        ] {
            assert_eq!(block(p, 7), block(p, 7));
            assert_ne!(block(p, 7), block(p, 8));
        }
        assert_eq!(
            FsScript::new(7).digest(CALLS),
            FsScript::new(7).digest(CALLS)
        );
        assert_ne!(
            FsScript::new(7).digest(CALLS),
            FsScript::new(8).digest(CALLS)
        );
    }

    /// Pinned so that a change to a generator (and with it to every
    /// workload's inputs) cannot land unnoticed; the baseline must be
    /// re-measured when one of these moves.
    #[test]
    fn script_digests_are_pinned_per_workload() {
        let seed = 1;
        let got = [
            BlockScript::new(BlockPattern::SingleBurst, 16_384, seed).digest(CALLS),
            BlockScript::new(BlockPattern::GroupBatch, 16_384, seed).digest(CALLS),
            FsScript::new(seed).digest(CALLS),
            BlockScript::new(BlockPattern::TwoGroupBatch, 16_384, seed).digest(CALLS),
        ];
        assert_eq!(got, PINNED, "got {got:#x?}");
    }

    const PINNED: [u64; 4] = [
        169_293_388_283_709_941,
        3_829_285_814_954_576_870,
        10_983_853_679_684_687_323,
        16_366_464_869_677_907_120,
    ];

    #[test]
    fn block_decks_hold_exactly_the_stated_mixes() {
        let mut req = BlockReq::default();
        let mut s = BlockScript::new(BlockPattern::SingleBurst, 16_384, 3);
        let writes = (0..7000).filter(|_| {
            s.next(&mut req);
            assert_eq!(req.keys.len(), BURST);
            req.write
        });
        assert_eq!(writes.count(), 2000, "2 of every 7 requests write");

        let mut s = BlockScript::new(BlockPattern::TwoGroupBatch, 16_384, 3);
        let (mut two, mut writes) = (0, 0);
        for _ in 0..4000 {
            s.next(&mut req);
            assert_eq!(req.keys[0] % GROUP, 0);
            assert!(req.keys.windows(2).all(|w| w[1] == w[0] + 1));
            assert!(*req.keys.last().unwrap() < 16_384);
            two += usize::from(req.keys.len() == 128);
            writes += usize::from(req.write);
        }
        assert_eq!(
            (two, writes),
            (3000, 2000),
            "3 of 4 span two groups, 1 of 2 writes"
        );
    }

    #[test]
    fn every_fs_deck_holds_the_stated_mix_and_an_even_spread_of_sizes() {
        let mut s = FsScript::new(9);
        for _ in 0..5 {
            let mut count = [0u32; 8];
            let (mut small_bytes, mut large_bytes) = (0u64, 0u64);
            let mut large_writes = std::collections::BTreeSet::new();
            for _ in 0..FS_DECK {
                match s.next() {
                    FsOp::ReadFile { .. } => count[0] += 1,
                    FsOp::WriteFile { file, len, .. } => {
                        count[1] += 1;
                        if len < LARGE.0 {
                            assert!((SMALL.0..SMALL.1).contains(&len));
                            small_bytes += u64::from(len);
                        } else {
                            assert!((LARGE.0..LARGE.1).contains(&len));
                            large_bytes += u64::from(len);
                            large_writes.insert((file.dir, file.name));
                        }
                    }
                    FsOp::Append { .. } => count[2] += 1,
                    FsOp::Stat { .. } => count[3] += 1,
                    FsOp::ReadDir { .. } => count[4] += 1,
                    FsOp::Rename { .. } => count[5] += 1,
                    FsOp::RemoveCreate { .. } => count[6] += 1,
                    FsOp::Truncate { .. } => count[7] += 1,
                }
            }
            assert_eq!(count, [90, 60, 20, 5, 5, 8, 6, 6]);
            assert_eq!(
                large_writes.len(),
                FS_LARGE_FILES,
                "every large file once per deck"
            );
            // 42 small and 18 large writes, one per stratum: the deck's
            // bytes are within a stratum's width per write of the midpoint.
            let mid = |(lo, hi): (u32, u32), n: u64| u64::from(lo + hi) / 2 * n;
            assert!(small_bytes.abs_diff(mid(SMALL, 42)) < 42 * 73);
            assert!(large_bytes.abs_diff(mid(LARGE, 18)) < 18 * 2667);
        }
    }

    #[test]
    fn fs_script_stays_inside_the_device_and_the_pool() {
        let mut s = FsScript::new(11);
        let pool = (POOL_BLOCKS * BLOCK_SIZE) as u32;
        for _ in 0..50_000 {
            s.next();
            assert_eq!(s.dir_entries.iter().sum::<u32>(), FS_FILES as u32);
            for (i, f) in s.files.iter().enumerate() {
                let top = if i < FS_SMALL_FILES { SMALL.1 } else { LARGE.1 };
                assert!(f.len < top + 64 * APPEND_LEN, "file {i} grew to {}", f.len);
                assert!(f.len <= FS_MAX_FILE && f.off + f.len <= pool);
            }
        }
    }
}
