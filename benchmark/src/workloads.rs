//! The four workloads: their stacks, set-ups, drivers and reports.
//!
//! Block size 1 KiB and 3 sites per quorum everywhere. One closed-loop
//! client thread; the site, server and fan-out threads are the program's
//! own. No link delay is injected: this benchmark records software cost.

use crate::json::Value;
use crate::ladder::{self, LadderOut, Replay, Runtime};
use crate::run::{
    measure, med_iqr, timed_setups, traffic_of, Class, Driver, Measured, Opts, Plan, Step, Tally,
    TrafficFn, TICKS_PER_NS,
};
use crate::script::{
    BlockPattern, BlockReq, BlockScript, FileId, FsOp, FsScript, Payloads, BLOCK_SIZE, BURST,
    FS_DECK, FS_DIRS, GROUP,
};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_sorted};
use crate::sys;
use crate::timed::{Recorder, Recording, SpanRec, Timed};
use blockrep_core::shard::PlacementManifest;
use blockrep_core::{
    Cluster, ClusterOptions, LiveCluster, ReliableDevice, ShardSpec, ShardedDevice, TcpCluster,
};
use blockrep_fs::FileSystem;
use blockrep_net::DeliveryMode;
use blockrep_obs::trace::{self, SpanRecord};
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const BLOCK_WORKLOAD_BLOCKS: u64 = 16_384;
const FS_WORKLOAD_BLOCKS: u64 = 8192;
const SHARDS: usize = 4;

/// Facts about the process the report carries along.
#[derive(Debug, Clone)]
pub struct Env {
    pub pinned_cpu: Option<usize>,
    pub nproc: usize,
    pub work_dir: PathBuf,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Spreads, sample counts and notes printed beside the values.
    pub detail: Value,
}

impl Report {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name,
                    Value::obj(vec![
                        ("value", Value::num(value)),
                        ("unit", Value::str(unit)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }
}

fn config(scheme: Scheme, blocks: u64) -> DeviceConfig {
    DeviceConfig::builder(scheme)
        .sites(3)
        .num_blocks(blocks)
        .block_size(BLOCK_SIZE)
        .build()
        .expect("three equal sites is a valid configuration")
}

pub fn run_workload(opts: &Opts, env: &Env) -> Result<Report, String> {
    let origin = SiteId::new(0);
    match opts.workload.as_str() {
        spec::DET_BLOCK_MCV => Ok(run_block(
            opts,
            env,
            BlockWorkload {
                pattern: BlockPattern::SingleBurst,
                runtime: Runtime::Deterministic,
                scheme: Scheme::Voting,
                setup_repeat: 4,
            },
            || {
                let c = Arc::new(Cluster::new(
                    config(Scheme::Voting, BLOCK_WORKLOAD_BLOCKS),
                    ClusterOptions::default(),
                ));
                let counters = Arc::clone(&c);
                let traffic: TrafficFn = Box::new(move || traffic_of(&[counters.counter()]));
                (ReliableDevice::new(c, origin), traffic)
            },
            |_| None,
        )),
        spec::TCP_BATCH_MCV => Ok(run_block(
            opts,
            env,
            BlockWorkload {
                pattern: BlockPattern::GroupBatch,
                runtime: Runtime::Tcp,
                scheme: Scheme::Voting,
                setup_repeat: 3,
            },
            || {
                // As `spawn` returns it: whatever TCP mode is the default
                // is what gets measured; no knob is set.
                let c = TcpCluster::spawn(
                    config(Scheme::Voting, BLOCK_WORKLOAD_BLOCKS),
                    DeliveryMode::default(),
                )
                .expect("loopback sockets for three sites");
                let c = Arc::new(c);
                let counters = Arc::clone(&c);
                let traffic: TrafficFn = Box::new(move || traffic_of(&[counters.counter()]));
                (ReliableDevice::new(c, origin), traffic)
            },
            |_| None,
        )),
        spec::DET_SHARD_BATCH_NAC => Ok(run_block(
            opts,
            env,
            BlockWorkload {
                pattern: BlockPattern::TwoGroupBatch,
                runtime: Runtime::Shard,
                scheme: Scheme::NaiveAvailableCopy,
                setup_repeat: 4,
            },
            || {
                let shard_spec = ShardSpec {
                    block_size: BLOCK_SIZE,
                    group_size: GROUP,
                    ..ShardSpec::new(Scheme::NaiveAvailableCopy, SHARDS, BLOCK_WORKLOAD_BLOCKS)
                };
                let dev = ShardedDevice::deterministic(&shard_spec, ClusterOptions::default())
                    .expect("four 3-site shards is a valid geometry");
                let backends: Vec<Arc<Cluster>> = dev.shard_backends().to_vec();
                let traffic: TrafficFn = Box::new(move || {
                    let counters: Vec<_> = backends.iter().map(|c| c.counter()).collect();
                    traffic_of(&counters)
                });
                (dev, traffic)
            },
            |dev| Some(dev.manifest()),
        )),
        spec::LIVE_FS_AC => Ok(run_fs(opts, env)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Block workloads
// ---------------------------------------------------------------------------

/// Writes the script's start image through the stack under test: block by
/// block on the single-block workload, group by group on the batch ones.
fn prefill_blocks(dev: &impl BlockDevice, pattern: BlockPattern, image: &[u16], pool: &Payloads) {
    let data = |k: usize| pool.blocks[usize::from(image[k])].clone();
    if pattern == BlockPattern::SingleBurst {
        for k in 0..image.len() {
            dev.write_block(BlockIndex::new(k as u64), data(k))
                .expect("prefill write");
        }
        return;
    }
    let mut batch = Vec::with_capacity(GROUP as usize);
    for start in (0..image.len()).step_by(GROUP as usize) {
        batch.clear();
        batch.extend((start..start + GROUP as usize).map(|k| (BlockIndex::new(k as u64), data(k))));
        dev.write_blocks(&batch).expect("prefill write");
    }
}

struct BlockDriver<'a, D> {
    dev: &'a D,
    pool: &'a Payloads,
    script: BlockScript,
    single: bool,
    req: BlockReq,
    keys: Vec<BlockIndex>,
    writes: Vec<(BlockIndex, BlockData)>,
    got: Vec<BlockData>,
    /// Requests since the last epoch end.
    since_epoch: u32,
    mismatches: u64,
}

/// Epochs the count metrics cover on the block workloads, and requests per
/// epoch (rounded up to a whole deck): about a third of a 30 s run at
/// today's speeds, with counter reads 0.15 s apart.
const BLOCK_COUNTED_EPOCHS: usize = 64;
const BURST_EPOCH_REQUESTS: u32 = 7 * 1024;
const BATCH_EPOCH_REQUESTS: u32 = 512;

impl<'a, D: BlockDevice> BlockDriver<'a, D> {
    fn new(dev: &'a D, pool: &'a Payloads, script: BlockScript, pattern: BlockPattern) -> Self {
        BlockDriver {
            dev,
            pool,
            script,
            single: pattern == BlockPattern::SingleBurst,
            req: BlockReq::default(),
            keys: Vec::with_capacity(2 * GROUP as usize),
            writes: Vec::with_capacity(2 * GROUP as usize),
            got: Vec::with_capacity(2 * GROUP as usize),
            since_epoch: 0,
            mismatches: 0,
        }
    }

    /// Checks what a read returned against the shadow model's fills.
    fn check(&mut self) {
        if self.got.len() != self.req.fills.len() {
            self.mismatches += 1;
        }
        for (data, &fill) in self.got.iter().zip(&self.req.fills) {
            if data.as_slice() != self.pool.blocks[usize::from(fill)].as_slice() {
                self.mismatches += 1;
            }
        }
        self.got.clear();
    }

    /// A burst of same-kind single-block ops, timed together.
    fn burst(&mut self) -> Step {
        let mut failed = 0;
        let t = Instant::now();
        if self.req.write {
            for (&k, &fill) in self.req.keys.iter().zip(&self.req.fills) {
                let data = self.pool.blocks[usize::from(fill)].clone();
                failed += u32::from(self.dev.write_block(BlockIndex::new(k), data).is_err());
            }
        } else {
            for &k in &self.req.keys {
                match self.dev.read_block(BlockIndex::new(k)) {
                    Ok(data) => self.got.push(data),
                    Err(_) => failed += 1,
                }
            }
        }
        // Nanoseconds of the burst are ticks per op: 16 ops, 16 ticks per ns.
        const _: () = assert!(BURST as u64 == TICKS_PER_NS);
        let lat_ticks = t.elapsed().as_nanos() as u64;
        let class = if self.req.write {
            Class::Write
        } else {
            Class::Read
        };
        if failed == 0 && !self.req.write {
            self.check();
        }
        self.got.clear();
        Step {
            class,
            ops: BURST as u32,
            failed,
            blocks: BURST as u32,
            lat_ticks,
            epoch_end: false,
        }
    }

    /// One vectored call.
    fn batch(&mut self) -> Step {
        let blocks = self.req.keys.len() as u32;
        let (class, failed, lat_ns);
        if self.req.write {
            self.writes.clear();
            self.writes.extend(
                self.req
                    .keys
                    .iter()
                    .zip(&self.req.fills)
                    .map(|(&k, &fill)| {
                        (
                            BlockIndex::new(k),
                            self.pool.blocks[usize::from(fill)].clone(),
                        )
                    }),
            );
            let t = Instant::now();
            let out = self.dev.write_blocks(&self.writes);
            lat_ns = t.elapsed().as_nanos() as u64;
            class = Class::Write;
            failed = u32::from(out.is_err());
        } else {
            self.keys.clear();
            self.keys
                .extend(self.req.keys.iter().map(|&k| BlockIndex::new(k)));
            let t = Instant::now();
            let out = self.dev.read_blocks(&self.keys);
            lat_ns = t.elapsed().as_nanos() as u64;
            class = Class::Read;
            failed = u32::from(out.is_err());
            if let Ok(data) = out {
                self.got = data;
                self.check();
            }
        }
        Step {
            class,
            ops: 1,
            failed,
            blocks,
            lat_ticks: lat_ns * TICKS_PER_NS,
            epoch_end: false,
        }
    }

    /// Reads the whole working set back against the shadow model.
    fn read_back(&mut self, tally: &mut Tally) {
        let n = self.script.shadow.len() as u64;
        for start in (0..n).step_by(GROUP as usize) {
            self.req.keys.clear();
            self.req.keys.extend(start..start + GROUP);
            self.req.fills.clear();
            self.req.fills.extend(
                self.req
                    .keys
                    .iter()
                    .map(|&k| self.script.shadow[k as usize]),
            );
            self.req.write = false;
            let s = self.batch();
            tally.attempted += 1;
            tally.failed += u64::from(s.failed);
        }
    }
}

impl<D: BlockDevice> Driver for BlockDriver<'_, D> {
    fn step(&mut self) -> Step {
        let deck_end = self.script.next(&mut self.req);
        let mut step = if self.single {
            self.burst()
        } else {
            self.batch()
        };
        self.since_epoch += 1;
        let epoch = if self.single {
            BURST_EPOCH_REQUESTS
        } else {
            BATCH_EPOCH_REQUESTS
        };
        if deck_end && self.since_epoch >= epoch {
            self.since_epoch = 0;
            step.epoch_end = true;
        }
        step
    }

    fn counted_epochs(&self) -> usize {
        BLOCK_COUNTED_EPOCHS
    }

    fn mismatches(&self) -> u64 {
        self.mismatches
    }
}

/// What tells the three block workloads apart, besides their stacks.
struct BlockWorkload {
    pattern: BlockPattern,
    runtime: Runtime,
    scheme: Scheme,
    /// Back-to-back set-ups per `setup_s` sample (0.3 s or more together).
    setup_repeat: usize,
}

fn run_block<D: BlockDevice>(
    opts: &Opts,
    env: &Env,
    workload: BlockWorkload,
    make: impl Fn() -> (D, TrafficFn),
    manifest: impl Fn(&D) -> Option<&PlacementManifest>,
) -> Report {
    let BlockWorkload {
        pattern,
        runtime,
        scheme,
        setup_repeat,
    } = workload;
    let pool = Payloads::new(opts.seed);
    let plan = Plan::new(opts.seconds, opts.trace);
    let script = BlockScript::new(pattern, BLOCK_WORKLOAD_BLOCKS, opts.seed);
    let ((dev, traffic), setups) = timed_setups(setup_repeat, || {
        let stack = make();
        prefill_blocks(&stack.0, pattern, &script.shadow, &pool);
        stack
    });
    if !opts.trace {
        let mut driver = BlockDriver::new(&dev, &pool, script, pattern);
        let mut m = measure(&mut driver, &plan, &*traffic, None);
        driver.read_back(&mut m.tally);
        return end_to_end_report(&setups, &m, driver.mismatches(), env, Vec::new());
    }
    let recorder = Recorder::new();
    let timed = Timed::new(dev, Arc::clone(&recorder));
    let mut driver = BlockDriver::new(&timed, &pool, script, pattern);
    let mut m = measure(&mut driver, &plan, &*traffic, Some(&recorder));
    driver.read_back(&mut m.tally);
    let mismatches = driver.mismatches();
    let recording = recorder.take();
    let dev = timed.inner();
    let replayed = Replay {
        log: &recording.log,
        pool: &pool,
        budget: plan.rung_budget,
        work_dir: &env.work_dir,
    };
    let ladder = ladder::run(dev, runtime, scheme, manifest(dev), &replayed);
    let layers = Layers::new(&m, &recording, &ladder, env);
    per_layer_report(opts, env, &m, mismatches, layers, &recording, ladder.notes)
}

// ---------------------------------------------------------------------------
// File-system workload
// ---------------------------------------------------------------------------

/// Script steps between two site failures, and from a failure to its
/// repair. Indexed by step count, so the schedule is deterministic; whole
/// decks, so every degraded stretch holds the same mix of ops.
const FAULT_EVERY: u64 = 4 * FS_DECK;
const REPAIR_AFTER: u64 = FS_DECK;
/// The failing site rotates; site 0 is the preferred coordinator, so every
/// third cycle exercises coordinator fail-over.
const FAULT_SITES: [u32; 3] = [1, 2, 0];
/// An epoch is one fault cycle; the count metrics cover two rotations of
/// the failing site (fail-over of the coordinator costs more allocations
/// than losing another site, so the three cycles are not alike).
const FS_COUNTED_EPOCHS: usize = 2 * FAULT_SITES.len();

type LiveDevice = ReliableDevice<LiveCluster>;

struct FsStack<W> {
    fs: FileSystem<W>,
    cluster: Arc<LiveCluster>,
    format_secs: f64,
}

/// Spawn, format, make the directories and write every file's start image.
fn fs_setup<W: BlockDevice>(
    wrap: &dyn Fn(LiveDevice) -> W,
    image: &FsScript,
    pool: &Payloads,
) -> FsStack<W> {
    let cluster = Arc::new(LiveCluster::spawn(
        config(Scheme::AvailableCopy, FS_WORKLOAD_BLOCKS),
        DeliveryMode::default(),
    ));
    let dev = wrap(ReliableDevice::new(Arc::clone(&cluster), SiteId::new(0)));
    let t = Instant::now();
    let fs = FileSystem::format(dev).expect("format a fresh device");
    let format_secs = t.elapsed().as_secs_f64();
    let mut path = String::new();
    for d in 0..FS_DIRS {
        fs.mkdir(&format!("/d{d}")).expect("make a directory");
    }
    for f in &image.files {
        f.id.write_path(&mut path);
        let window = &pool.bytes[f.off as usize..(f.off + f.len) as usize];
        fs.write_file(&path, window).expect("write a start image");
    }
    FsStack {
        fs,
        cluster,
        format_secs,
    }
}

struct Repair {
    millis: f64,
    msgs: u64,
}

struct FsDriver<'a, W> {
    fs: &'a FileSystem<W>,
    cluster: &'a LiveCluster,
    pool: &'a Payloads,
    script: FsScript,
    rec: Option<&'a Recorder>,
    path: String,
    path2: String,
    steps: u64,
    down: Option<SiteId>,
    repairs: Vec<Repair>,
    /// User blocks handed to `write_file`/`append` while the recorder is on.
    user_blocks_written: u64,
    mismatches: u64,
}

impl<'a, W: BlockDevice> FsDriver<'a, W> {
    /// Runs one file-system op under an op span. Returns its result (an
    /// error counts as failed) and its latency.
    fn op<T>(
        &mut self,
        name: &'static str,
        failed: &mut u32,
        f: impl FnOnce(&FileSystem<W>, &str, &str) -> blockrep_fs::FsResult<T>,
    ) -> (Option<T>, u64) {
        if let Some(rec) = self.rec {
            rec.begin_op();
        }
        let t = Instant::now();
        let out = f(self.fs, &self.path, &self.path2);
        let lat_ns = t.elapsed().as_nanos() as u64;
        if let Some(rec) = self.rec {
            rec.end_op(name);
        }
        *failed += u32::from(out.is_err());
        (out.ok(), lat_ns)
    }

    fn count_user_blocks(&mut self, len: u32) {
        if self.rec.is_some_and(Recorder::is_on) {
            self.user_blocks_written += u64::from(len).div_ceil(BLOCK_SIZE as u64);
        }
    }

    /// The fault schedule: fail a site every `FAULT_EVERY` steps, repair it
    /// `REPAIR_AFTER` steps later.
    fn fault_tick(&mut self) {
        let phase = self.steps % FAULT_EVERY;
        if self.steps >= FAULT_EVERY && phase == 0 {
            let cycle = (self.steps / FAULT_EVERY - 1) as usize;
            let site = SiteId::new(FAULT_SITES[cycle % FAULT_SITES.len()]);
            self.cluster.fail_site(site);
            self.down = Some(site);
            if let Some(rec) = self.rec {
                rec.set_degraded(site == SiteId::new(0));
            }
        } else if phase == REPAIR_AFTER {
            self.repair();
        }
    }

    fn repair(&mut self) {
        let Some(site) = self.down.take() else {
            return;
        };
        let before = self.cluster.counter().total();
        let t = Instant::now();
        self.cluster.repair_site(site);
        let millis = t.elapsed().as_secs_f64() * 1e3;
        if self.repairs.len() < self.repairs.capacity() {
            let msgs = self.cluster.counter().total() - before;
            self.repairs.push(Repair { millis, msgs });
        }
        if let Some(rec) = self.rec {
            rec.set_degraded(false);
        }
    }

    /// Reads every file and directory back against the shadow model, then
    /// runs `fsck`. Returns how long the check took and whether it is clean.
    fn verify(&mut self, tally: &mut Tally) -> (f64, bool) {
        self.repair();
        let mut failed = 0;
        for i in 0..self.script.files.len() {
            let f = self.script.files[i];
            f.id.write_path(&mut self.path);
            let (data, _) = self.op("fs.read_file", &mut failed, |fs, p, _| fs.read_file(p));
            let expect = &self.pool.bytes[f.off as usize..(f.off + f.len) as usize];
            self.mismatches += u64::from(data.is_some_and(|d| d != expect));
        }
        for d in 0..FS_DIRS {
            self.path.clear();
            self.path.push_str(&format!("/d{d}"));
            let (names, _) = self.op("fs.read_dir", &mut failed, |fs, p, _| fs.read_dir(p));
            let expect = self.script.dir_entries[d as usize] as usize;
            self.mismatches += u64::from(names.is_some_and(|n| n.len() != expect));
        }
        tally.attempted += self.script.files.len() as u64 + FS_DIRS;
        tally.failed += u64::from(failed);
        let t = Instant::now();
        let clean = self.fs.check().is_ok_and(|report| report.is_clean());
        (t.elapsed().as_secs_f64() * 1e3, clean)
    }
}

impl<W: BlockDevice> Driver for FsDriver<'_, W> {
    fn step(&mut self) -> Step {
        self.fault_tick();
        self.steps += 1;
        let bs = BLOCK_SIZE as u32;
        let mut failed = 0;
        let pool = self.pool;
        let window = |off: u32, len: u32| &pool.bytes[off as usize..(off + len) as usize];
        let (class, ops, blocks, lat_ns) = match self.script.next() {
            FsOp::ReadFile { file, off, len } => {
                file.write_path(&mut self.path);
                let (data, lat) = self.op("fs.read_file", &mut failed, |fs, p, _| fs.read_file(p));
                self.mismatches += u64::from(data.is_some_and(|d| d != window(off, len)));
                (Class::Read, 1, len.div_ceil(bs), lat)
            }
            FsOp::WriteFile { file, off, len } => {
                file.write_path(&mut self.path);
                self.count_user_blocks(len);
                let (_, lat) = self.op("fs.write_file", &mut failed, |fs, p, _| {
                    fs.write_file(p, window(off, len))
                });
                (Class::Write, 1, len.div_ceil(bs), lat)
            }
            FsOp::Append { file, off, len } => {
                file.write_path(&mut self.path);
                self.count_user_blocks(len);
                let (_, lat) = self.op("fs.append", &mut failed, |fs, p, _| {
                    fs.open(p)?.append(window(off, len))
                });
                (Class::Other, 1, len.div_ceil(bs), lat)
            }
            FsOp::Stat { file, len } => {
                file.write_path(&mut self.path);
                let (meta, lat) = self.op("fs.stat", &mut failed, |fs, p, _| fs.stat(p));
                self.mismatches += u64::from(meta.is_some_and(|m| m.size != u64::from(len)));
                (Class::Other, 1, 0, lat)
            }
            FsOp::ReadDir { dir, entries } => {
                FileId { dir, name: 0 }.write_path(&mut self.path);
                self.path.truncate(self.path.rfind('/').unwrap_or(0));
                let (names, lat) = self.op("fs.read_dir", &mut failed, |fs, p, _| fs.read_dir(p));
                self.mismatches += u64::from(names.is_some_and(|n| n.len() != entries as usize));
                (Class::Other, 1, 0, lat)
            }
            FsOp::Rename { from, to } => {
                from.write_path(&mut self.path);
                to.write_path(&mut self.path2);
                let (_, lat) = self.op("fs.rename", &mut failed, |fs, p, q| fs.rename(p, q));
                (Class::Other, 1, 0, lat)
            }
            FsOp::RemoveCreate { file } => {
                file.write_path(&mut self.path);
                let (_, a) = self.op("fs.remove", &mut failed, |fs, p, _| fs.remove_file(p));
                let (_, b) = self.op("fs.create", &mut failed, |fs, p, _| fs.create(p));
                (Class::Other, 2, 0, (a + b) / 2)
            }
            FsOp::Truncate { file, len } => {
                file.write_path(&mut self.path);
                let (_, lat) = self.op("fs.truncate", &mut failed, |fs, p, _| {
                    fs.truncate(p, u64::from(len))
                });
                (Class::Other, 1, 0, lat)
            }
        };
        // An epoch is one fault cycle: four decks, the first of them degraded.
        let epoch_end = self.steps.is_multiple_of(FAULT_EVERY);
        Step {
            class,
            ops,
            failed,
            blocks,
            lat_ticks: lat_ns * TICKS_PER_NS,
            epoch_end,
        }
    }

    fn counted_epochs(&self) -> usize {
        FS_COUNTED_EPOCHS
    }

    fn mismatches(&self) -> u64 {
        self.mismatches
    }
}

fn run_fs(opts: &Opts, env: &Env) -> Report {
    if opts.trace {
        let recorder = Recorder::new();
        let rec = Arc::clone(&recorder);
        run_fs_with(
            opts,
            env,
            &move |dev| Timed::new(dev, Arc::clone(&rec)),
            &Timed::inner,
            Some(&recorder),
        )
    } else {
        run_fs_with(opts, env, &|dev| dev, &|dev| dev, None)
    }
}

fn run_fs_with<W: BlockDevice>(
    opts: &Opts,
    env: &Env,
    wrap: &dyn Fn(LiveDevice) -> W,
    unwrap: &dyn Fn(&W) -> &LiveDevice,
    recorder: Option<&Arc<Recorder>>,
) -> Report {
    let pool = Payloads::new(opts.seed);
    let plan = Plan::new(opts.seconds, opts.trace);
    let script = FsScript::new(opts.seed);
    let (stack, setups) = timed_setups(1, || fs_setup(wrap, &script, &pool));
    let counters = Arc::clone(&stack.cluster);
    let traffic = move || traffic_of(&[counters.counter()]);
    let mut driver = FsDriver {
        fs: &stack.fs,
        cluster: &stack.cluster,
        pool: &pool,
        script,
        rec: recorder.map(|r| &**r),
        path: String::with_capacity(64),
        path2: String::with_capacity(64),
        steps: 0,
        down: None,
        repairs: Vec::with_capacity(4096),
        user_blocks_written: 0,
        mismatches: 0,
    };
    let mut m = measure(&mut driver, &plan, &traffic, recorder.map(|r| &**r));
    // Keep the traced phase's recording apart from the read-back's spans.
    let recording = recorder.map(|r| r.take());
    let (check_ms, clean) = driver.verify(&mut m.tally);
    let mismatches = driver.mismatches() + u64::from(!clean);
    let mut notes = vec![format!(
        "fault schedule: {} fail/repair cycles, fsck {}",
        driver.repairs.len(),
        if clean { "clean" } else { "NOT clean" }
    )];
    let Some(recording) = recording else {
        return end_to_end_report(&setups, &m, mismatches, env, notes);
    };
    let replayed = Replay {
        log: &recording.log,
        pool: &pool,
        budget: plan.rung_budget,
        work_dir: &env.work_dir,
    };
    let live = unwrap(stack.fs.device());
    let ladder = ladder::run(live, Runtime::Live, Scheme::AvailableCopy, None, &replayed);
    let mut layers = Layers::new(&m, &recording, &ladder, env);
    layers.file_system(
        &recording,
        driver.user_blocks_written,
        stack.format_secs * 1e3,
        check_ms,
    );
    layers.recovery(&driver.repairs, &recording);
    notes.extend(ladder.notes.iter().cloned());
    per_layer_report(opts, env, &m, mismatches, layers, &recording, notes)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

fn per(delta: u64, ops: u64) -> f64 {
    delta as f64 / ops.max(1) as f64
}

type Detail = Vec<(&'static str, Value)>;

fn spread(name: &'static str, values: &[f64]) -> (&'static str, Value) {
    let (med, iqr) = med_iqr(values);
    let per_segment = values.iter().map(|&v| Value::num(v)).collect();
    (
        name,
        Value::obj(vec![
            ("median", Value::num(med)),
            ("segment_iqr_pct", Value::num(iqr * 100.0)),
            ("per_segment", Value::Arr(per_segment)),
        ]),
    )
}

fn common_detail(m: &Measured, env: &Env, mismatches: u64, notes: Vec<String>) -> Detail {
    let p = &m.plain;
    let (read_n, write_n) = p.median_samples();
    let pinned_cpu = env.pinned_cpu.map_or(Value::Null, |c| Value::num(c as f64));
    vec![
        ("pinned", Value::Bool(env.pinned_cpu.is_some())),
        ("pinned_cpu", pinned_cpu),
        ("nproc", Value::num(env.nproc as f64)),
        ("mismatches", Value::num(mismatches as f64)),
        ("samples_dropped", Value::num(m.samples_dropped as f64)),
        ("read_samples_per_segment", Value::num(read_n)),
        ("write_samples_per_segment", Value::num(write_n)),
        // p99 has ten samples beyond it from 1000 samples per segment on.
        ("p99_supported", Value::Bool(read_n.min(write_n) >= 1000.0)),
        spread("ops_per_s", &p.ops_per_s()),
        spread("read_p50_us", &p.read_pct(0)),
        spread("write_p50_us", &p.write_pct(0)),
        spread("read_p90_us", &p.read_pct(1)),
        spread("write_p90_us", &p.write_pct(1)),
        spread("read_p99_us", &p.read_pct(2)),
        spread("write_p99_us", &p.write_pct(2)),
        (
            "notes",
            Value::Arr(notes.into_iter().map(Value::Str).collect()),
        ),
    ]
}

fn end_to_end_report(
    setups: &[f64],
    m: &Measured,
    mismatches: u64,
    env: &Env,
    notes: Vec<String>,
) -> Report {
    let p = &m.plain;
    let (a, b) = m.counted();
    let counted_ops = b.ops - a.ops;
    let value = |name: &str| match name {
        "setup_s" => median(setups),
        "ops_per_s" => median(&p.ops_per_s()),
        "read_p50_us" => median(&p.read_pct(0)),
        "write_p50_us" => median(&p.write_pct(0)),
        "msgs_per_op" => per(b.msgs - a.msgs, counted_ops),
        "allocs_per_op" => per(b.allocs - a.allocs, counted_ops),
        "alloc_kib_per_op" => per(b.alloc_bytes - a.alloc_bytes, counted_ops) / 1024.0,
        "peak_rss_mib" => sys::peak_rss_kib() as f64 / 1024.0,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|e| (e.name, e.unit, value(e.name)))
        .collect();
    let mut detail = common_detail(m, env, mismatches, notes);
    detail.push(("counted_ops", Value::num(counted_ops as f64)));
    let per_epoch = |f: &dyn Fn(&crate::run::Counters) -> u64| -> Vec<f64> {
        let pairs = p.epochs.windows(2).take(64);
        pairs
            .map(|w| per(f(&w[1]) - f(&w[0]), w[1].ops - w[0].ops))
            .collect()
    };
    detail.push(spread("msgs_per_op", &per_epoch(&|c| c.msgs)));
    detail.push(spread("allocs_per_op", &per_epoch(&|c| c.allocs)));
    detail.push((
        "setups_s",
        Value::Arr(setups.iter().map(|&s| Value::num(s)).collect()),
    ));
    Report {
        correct: mismatches == 0,
        attempted: m.tally.attempted.max(1),
        failed: m.tally.failed,
        metrics,
        detail: Value::obj(detail),
    }
}

/// Per-layer values by name; a name nobody sets is reported as 0 and
/// listed as not applicable to the workload.
struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// What the rungs say one device read and one device write cost.
    rung_read_us: f64,
    rung_write_us: f64,
    coverage_note: String,
}

fn p50_us(samples: &mut [u32]) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, 0.5) / 1000.0
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "{name} is not in the table"
        );
        self.values.insert(name, value);
    }

    /// The figures every workload has: client, network, phases, ladder.
    fn new(m: &Measured, rec: &Recording, ladder: &LadderOut, env: &Env) -> Layers {
        let mut l = Layers {
            values: BTreeMap::new(),
            rung_read_us: ladder.read_sum_us,
            rung_write_us: ladder.write_sum_us,
            coverage_note: String::new(),
        };
        for &(name, value) in &ladder.values {
            l.set(name, value);
        }
        let p = &m.plain;
        let (a, b) = (&m.plain_before, &m.plain_after);
        l.set("client.read_p90_us", median(&p.read_pct(1)));
        l.set("client.read_p99_us", median(&p.read_pct(2)));
        l.set("client.write_p90_us", median(&p.write_pct(1)));
        l.set("client.write_p99_us", median(&p.write_pct(2)));
        l.set("client.segment_iqr_pct", med_iqr(&p.ops_per_s()).1 * 100.0);
        l.set(
            "client.cpu_us_per_op",
            per(b.usage.cpu_us - a.usage.cpu_us, p.ops),
        );
        l.set(
            "client.ctx_switches_per_op",
            per(
                b.usage.voluntary_switches - a.usage.voluntary_switches,
                p.ops,
            ),
        );
        l.set(
            "client.pinned",
            f64::from(u8::from(env.pinned_cpu.is_some())),
        );
        if let (Some(lo_a), Some(lo_b)) = (a.lo, b.lo) {
            if ladder.runtime == Runtime::Tcp {
                l.set("core.tcp.packets_per_op", per(lo_b.0 - lo_a.0, p.ops));
                l.set(
                    "core.tcp.io_bytes_per_payload_byte",
                    per(lo_b.1 - lo_a.1, p.blocks * BLOCK_SIZE as u64),
                );
            }
        }

        // Coverage: the rungs' cost of the plain phase's own mix of reads
        // and writes, against the time that phase took (one device call
        // per op on the block workloads; the file-system workload replaces
        // this with its own sum).
        let rungs_us = l.rung_read_us * p.read_ops as f64 + l.rung_write_us * p.write_ops as f64;
        l.set("ladder.coverage_pct", rungs_us / (p.secs * 1e6) * 100.0);
        l.coverage_note = format!(
            "coverage: {} replayed calls; rungs sum to {:.3} us per read call and {:.3} us per write call; plain phase: {} reads, {} writes in {:.3} s",
            ladder.calls_replayed, l.rung_read_us, l.rung_write_us, p.read_ops, p.write_ops, p.secs
        );
        let plain_rate = median(&p.ops_per_s());
        let Some(t) = &m.traced else {
            return l;
        };
        let traced_rate = median(&t.phase.ops_per_s());
        l.set(
            "obs.trace_overhead_pct",
            (1.0 - traced_rate / plain_rate) * 100.0,
        );
        let reads = rec.totals.dev_read_calls;
        let writes = rec.totals.dev_write_calls;
        l.set(
            "net.msgs_per_read",
            per(t.after.traffic.read - t.before.traffic.read, reads),
        );
        l.set(
            "net.msgs_per_write",
            per(t.after.traffic.write - t.before.traffic.write, writes),
        );

        // Phases of the program's own flight recorder, per root op span.
        // The ring keeps the last 16 Ki spans; the ratio is over those.
        let roots = t.flight.iter().filter(|r| r.parent == 0).count() as f64;
        for stat in trace::phase_stats(&t.flight) {
            let name = match stat.name {
                "phase.local_leg" => "core.phase.local_leg_us",
                "phase.scatter_send" => "core.phase.scatter_send_us",
                "phase.gather_wait" => "core.phase.gather_wait_us",
                "phase.exchange" => "core.phase.exchange_us",
                "phase.remote_apply" => "core.phase.remote_apply_us",
                "phase.wal_append" => "core.phase.wal_append_us",
                _ => continue,
            };
            l.set(name, stat.total_ns as f64 / 1000.0 / roots.max(1.0));
        }
        l
    }

    fn file_system(&mut self, rec: &Recording, user_blocks: u64, format_ms: f64, check_ms: f64) {
        let t = &rec.totals;
        let self_us = per(t.op_ns - t.op_dev_ns, t.ops) / 1000.0;
        let calls_per_op = per(t.dev_calls, t.ops);
        self.set("fs.self_us_per_op", self_us);
        self.set("fs.device_calls_per_op", calls_per_op);
        self.set(
            "fs.dev_blocks_per_op",
            per(t.dev_blocks_read + t.dev_blocks_written, t.ops),
        );
        self.set(
            "fs.write_amplification",
            per(t.dev_blocks_written, user_blocks),
        );
        self.set("fs.format_ms", format_ms);
        self.set("fs.check_ms", check_ms);
        for (op, name) in [
            ("fs.read_file", "fs.read_file_p50_us"),
            ("fs.write_file", "fs.write_file_p50_us"),
            ("fs.append", "fs.append_p50_us"),
            ("fs.create", "fs.create_p50_us"),
            ("fs.rename", "fs.rename_p50_us"),
            ("fs.remove", "fs.remove_p50_us"),
            ("fs.truncate", "fs.truncate_p50_us"),
            ("fs.stat", "fs.stat_p50_us"),
        ] {
            let mut samples = rec.op_samples.get(op).cloned().unwrap_or_default();
            self.set(name, p50_us(&mut samples));
        }
        // An op is the file system's self time plus its device calls at
        // ladder cost. The denominator is the traced phase's own mean op
        // span, so both sides cover the same ops: the plain phase runs
        // another stretch of the script, and a stretch's share of large
        // files moves its mean op time by tens of percent. Tracing cost
        // inside the device calls is in the denominator only, and
        // fail-over and repair time is in no rung.
        let calls_us = self.rung_read_us * t.dev_read_calls as f64
            + self.rung_write_us * t.dev_write_calls as f64;
        let op_us = self_us + calls_us / t.ops.max(1) as f64;
        let span_us = per(t.op_ns, t.ops) / 1000.0;
        self.set("ladder.coverage_pct", op_us / span_us * 100.0);
        self.coverage_note.push_str(&format!(
            "; fs op = {self_us:.3} us self + {calls_per_op:.3} device calls = {op_us:.3} us of a {span_us:.3} us traced op span"
        ));
    }

    fn recovery(&mut self, repairs: &[Repair], rec: &Recording) {
        let millis: Vec<f64> = repairs.iter().map(|r| r.millis).collect();
        self.set("core.recovery.repair_ms_p50", median(&millis));
        self.set(
            "core.recovery.msgs_per_repair",
            per(repairs.iter().map(|r| r.msgs).sum(), repairs.len() as u64),
        );
        let mut degraded = rec.degraded_samples.clone();
        self.set("core.device.failover_us_p50", p50_us(&mut degraded));
    }
}

fn per_layer_report(
    opts: &Opts,
    env: &Env,
    m: &Measured,
    mismatches: u64,
    layers: Layers,
    recording: &Recording,
    mut notes: Vec<String>,
) -> Report {
    let flight = m.traced.as_ref().map_or(&[][..], |t| &t.flight);
    match write_trace_file(&env.work_dir, opts, recording, flight) {
        Ok(path) => notes.push(format!(
            "trace: {} ({} spans kept, {} beyond the cap, {} flight-recorder spans)",
            path.display(),
            recording.spans.len(),
            recording.spans_dropped,
            flight.len()
        )),
        Err(e) => notes.push(format!("trace file not written: {e}")),
    }
    notes.push(layers.coverage_note.clone());
    let not_applicable: Vec<Value> = PER_LAYER
        .iter()
        .filter(|l| !layers.values.contains_key(l.name))
        .map(|l| Value::str(l.name))
        .collect();
    let metrics = PER_LAYER
        .iter()
        .map(|l| {
            (
                l.name,
                l.unit,
                layers.values.get(l.name).copied().unwrap_or(0.0),
            )
        })
        .collect();
    let mut detail = common_detail(m, env, mismatches, notes);
    detail.push(("not_applicable", Value::Arr(not_applicable)));
    Report {
        correct: mismatches == 0,
        attempted: m.tally.attempted.max(1),
        failed: m.tally.failed,
        metrics,
        detail: Value::obj(detail),
    }
}

/// Writes every kept span as Chrome trace-event JSON: the benchmark's op
/// and device-call spans as pid 1, the program's flight-recorder spans as
/// pid 2, shifted onto the benchmark's clock (the recorder starts its
/// clock at its first span, which opens inside the first traced device
/// call, so the two line up to well under a microsecond).
fn write_trace_file(
    dir: &Path,
    opts: &Opts,
    recording: &Recording,
    flight: &[SpanRecord],
) -> std::io::Result<PathBuf> {
    use std::io::Write as _;
    let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    let mut sep = |out: &mut dyn std::io::Write| -> std::io::Result<()> {
        if !std::mem::replace(&mut first, false) {
            out.write_all(b",\n")?;
        }
        Ok(())
    };
    for &SpanRec {
        name,
        id,
        parent,
        start_ns,
        dur_ns,
    } in &recording.spans
    {
        sep(&mut out)?;
        write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":0,\"args\":{{\"span\":\"{id}\",\"parent\":\"{parent}\"}}}}",
            us(start_ns),
            us(dur_ns)
        )?;
    }
    // `phase_stats` is the one call that names a phase id: ask it once per id.
    let mut names: BTreeMap<u32, &'static str> = BTreeMap::new();
    for r in flight {
        let name = *names
            .entry(r.phase)
            .or_insert_with(|| trace::phase_stats(std::slice::from_ref(r))[0].name);
        sep(&mut out)?;
        write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"blockrep\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{},\"args\":{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\"}}}}",
            us(r.start_ns + recording.first_call_ns),
            us(r.dur_ns),
            r.site,
            r.trace_id,
            r.span_id,
            r.parent
        )?;
    }
    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")?;
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Traffic;
    use blockrep_storage::MemStore;
    use blockrep_types::{DeviceError, DeviceResult};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A store that corrupts its `bad_read`-th read or refuses its
    /// `bad_write`-th write.
    struct Faulty {
        inner: MemStore,
        reads: AtomicU64,
        writes: AtomicU64,
        bad_read: u64,
        bad_write: u64,
    }

    impl BlockDevice for Faulty {
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
            let data = self.inner.read_block(k)?;
            if self.reads.fetch_add(1, Ordering::Relaxed) + 1 != self.bad_read {
                return Ok(data);
            }
            let mut bytes = data.as_slice().to_vec();
            bytes[17] ^= 0x40;
            Ok(BlockData::from(bytes))
        }
        fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
            if self.writes.fetch_add(1, Ordering::Relaxed) + 1 == self.bad_write {
                return Err(DeviceError::unavailable(
                    "write",
                    "refused by the test device",
                ));
            }
            self.inner.write_block(k, data)
        }
    }

    /// Drives the single-block script over a faulty store for `steps`
    /// requests and reports like an untraced run.
    fn drive(bad_read: u64, bad_write: u64, steps: usize) -> Report {
        let pool = Payloads::new(5);
        let script = BlockScript::new(BlockPattern::SingleBurst, 512, 5);
        let dev = Faulty {
            inner: MemStore::new(512, BLOCK_SIZE),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bad_read,
            bad_write,
        };
        prefill_blocks(&dev.inner, BlockPattern::SingleBurst, &script.shadow, &pool);
        let mut driver = BlockDriver::new(&dev, &pool, script, BlockPattern::SingleBurst);
        let plan = Plan {
            warm: std::time::Duration::ZERO,
            seg: std::time::Duration::from_millis(2),
            plain_segs: 2,
            traced_segs: 0,
            rung_budget: std::time::Duration::ZERO,
        };
        let mut m = measure(&mut driver, &plan, &Traffic::default, None);
        for _ in 0..steps {
            let s = driver.step();
            m.tally.attempted += u64::from(s.ops);
            m.tally.failed += u64::from(s.failed);
        }
        driver.read_back(&mut m.tally);
        let env = Env {
            pinned_cpu: None,
            nproc: 1,
            work_dir: PathBuf::new(),
        };
        end_to_end_report(&[0.1], &m, driver.mismatches(), &env, Vec::new())
    }

    #[test]
    fn a_clean_device_reports_correct_with_no_failures() {
        let r = drive(0, 0, 200);
        assert!(r.correct);
        assert_eq!(r.failed, 0);
        assert!(r.attempted > 200 * BURST as u64);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let expect: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expect, "every end-to-end metric, in table order");
        assert!(
            r.metrics.iter().all(|m| m.2 > 0.0 || m.0 == "msgs_per_op"),
            "{:?}",
            r.metrics
        );
        let line = r.result_line();
        let back = Value::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = back.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn the_shadow_model_flags_a_corrupted_read() {
        let r = drive(40, 0, 200);
        assert!(!r.correct, "one flipped bit in one read must show");
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn a_refused_op_counts_as_failed_against_attempted() {
        let r = drive(0, 40, 200);
        assert_eq!(r.failed, 1);
        // The refused write never landed, so the model and the store differ
        // on that block: the read-back flags it as well.
        assert!(!r.correct);
    }

    /// One `--smoke` (2 s) traced run of every workload: correct, nothing
    /// failed, every per-layer name reported, self times non-negative, the
    /// rungs adding up to the end-to-end time, and a trace file on disk.
    /// A smoke run's plain phase is 0.4 s on a shared host: 16 such runs
    /// gave coverages of 72-130 %, so the window asserted here is the one
    /// only a structural error (a rung that does not replay, a phase that
    /// is not counted) falls outside; 70-130 is what full runs are held
    /// to. Wall-clock ratios need an optimised build to mean anything, so
    /// the window is only asserted there (`ci.sh` tests in release).
    #[test]
    fn smoke_run_of_every_workload() {
        let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(crate::WORK_DIR)
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&work_dir).expect("work dir");
        let env = Env {
            pinned_cpu: sys::pin_to_highest_cpu(),
            nproc: sys::nproc(),
            work_dir,
        };
        for w in &spec::WORKLOADS {
            let opts = Opts {
                workload: w.name.into(),
                seed: 3,
                seconds: 2.0,
                trace: true,
            };
            let r = run_workload(&opts, &env).expect("known workload");
            assert!(r.correct, "{}", w.name);
            assert_eq!(r.failed, 0, "{}", w.name);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
            let expect: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expect, "{}", w.name);
            let value = |name: &str| r.metrics.iter().find(|m| m.0 == name).expect(name).2;
            for m in r.metrics.iter().filter(|m| m.0.contains(".self_")) {
                assert!(m.2 >= 0.0, "{} {} = {}", w.name, m.0, m.2);
            }
            let coverage = value("ladder.coverage_pct");
            assert!(coverage > 0.0, "{}", w.name);
            if !cfg!(debug_assertions) {
                assert!(
                    (50.0..=200.0).contains(&coverage),
                    "{} coverage {coverage}",
                    w.name
                );
            }
            assert!(value("storage.mem.read_us") > 0.0 && value("core.protocol.write_us") > 0.0);
            let trace = env.work_dir.join(format!("trace-{}-seed3.json", w.name));
            let text = std::fs::read_to_string(&trace).expect("trace file");
            assert!(text.starts_with("{\"traceEvents\":[") && text.contains("\"dev."));
            Value::parse(&text).expect("the trace file is JSON");
        }
        let _ = std::fs::remove_dir_all(&env.work_dir);
    }
}
