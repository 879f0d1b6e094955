//! The replay ladder: the device calls a traced run logged, replayed
//! single-threaded against each lower boundary of the stack, so that a
//! layer's self time is its rung minus the rung below.
//!
//! Rungs, bottom up: `MemStore` -> three bare `Replica`s driven the way a
//! scheme drives them -> `ReliableDevice<Cluster>` under the workload's
//! scheme -> the workload's own device (live, TCP or sharded). Side rungs
//! replay the same calls against `FileStore`, `Journaled`, `CacheStore`,
//! the block-lock table and the wire codec. Every figure is microseconds
//! per device call of that kind (a call is a whole batch on the batch
//! workloads).

use crate::script::{Payloads, BLOCK_SIZE, GROUP, POOL_BLOCKS};
use crate::stats::percentile_sorted;
use crate::timed::{CallKind, CallLog};
use blockrep_core::shard::PlacementManifest;
use blockrep_core::wire::{WireRequest, WireResponse};
use blockrep_core::{BlockLockTable, Cluster, ClusterOptions, ReliableDevice, Replica};
use blockrep_storage::{BlockDevice, CacheStore, FileStore, Journaled, MemStore};
use blockrep_types::{
    BlockData, BlockIndex, DeviceConfig, DeviceResult, Scheme, SiteId, VersionNumber,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which runtime the workload's own device adds on top of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    Deterministic,
    Live,
    Tcp,
    Shard,
}

/// Device calls between two `flush`es on the file and journal rungs.
const FLUSH_EVERY: usize = 64;
/// Journal device size in blocks: room for `FLUSH_EVERY` 64-block batches.
const JOURNAL_BLOCKS: u64 = 8192;

/// Mean cost per device call, by kind, of one rung.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    pub read_us: f64,
    pub write_us: f64,
    pub reads: u64,
    pub writes: u64,
    /// Calls of the log this rung got through within its budget.
    pub calls: usize,
}

impl Rung {
    fn minus(&self, below: &Rung) -> (f64, f64) {
        (
            (self.read_us - below.read_us).max(0.0),
            (self.write_us - below.write_us).max(0.0),
        )
    }
}

pub struct LadderOut {
    pub runtime: Runtime,
    pub values: Vec<(&'static str, f64)>,
    /// Sum over rungs of the self times: what the ladder says one device
    /// read call and one device write call cost.
    pub read_sum_us: f64,
    pub write_sum_us: f64,
    pub calls_replayed: usize,
    pub notes: Vec<String>,
}

/// Cost of reading the clock twice, subtracted from every timed call.
fn timer_overhead() -> Duration {
    let mut samples: Vec<Duration> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Replays up to `limit` logged calls through `exec`, which performs one
/// call and returns how long the call itself took. Stops at `budget`.
fn replay(
    log: &CallLog,
    limit: usize,
    budget: Duration,
    overhead: Duration,
    mut exec: impl FnMut(usize, CallKind, &[u64]) -> Duration,
) -> Rung {
    let start = Instant::now();
    let (mut read, mut write) = (Duration::ZERO, Duration::ZERO);
    let mut rung = Rung::default();
    for (i, (kind, blocks)) in log.iter().take(limit).enumerate() {
        let took = exec(i, kind, blocks).saturating_sub(overhead);
        if kind.is_read() {
            read += took;
            rung.reads += 1;
        } else if kind.is_write() {
            write += took;
            rung.writes += 1;
        }
        rung.calls = i + 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    rung.read_us = read.as_secs_f64() * 1e6 / rung.reads.max(1) as f64;
    rung.write_us = write.as_secs_f64() * 1e6 / rung.writes.max(1) as f64;
    rung
}

fn payload(pool: &Payloads, call: usize, block: u64) -> BlockData {
    pool.blocks[(block as usize + call) % POOL_BLOCKS].clone()
}

/// Issues logged calls against any `BlockDevice`, building arguments
/// outside the timed section.
struct DeviceReplayer<'a, D> {
    dev: &'a D,
    pool: &'a Payloads,
    keys: Vec<BlockIndex>,
    writes: Vec<(BlockIndex, BlockData)>,
    errors: u64,
}

impl<'a, D: BlockDevice> DeviceReplayer<'a, D> {
    fn new(dev: &'a D, pool: &'a Payloads) -> Self {
        DeviceReplayer {
            dev,
            pool,
            keys: Vec::new(),
            writes: Vec::new(),
            errors: 0,
        }
    }

    fn exec(&mut self, call: usize, kind: CallKind, blocks: &[u64]) -> Duration {
        fn timed<T>(errors: &mut u64, f: impl FnOnce() -> DeviceResult<T>) -> Duration {
            let t = Instant::now();
            let out = std::hint::black_box(f());
            let took = t.elapsed();
            *errors += u64::from(out.is_err());
            took
        }
        let (dev, pool) = (self.dev, self.pool);
        match kind {
            CallKind::ReadBlock => {
                let k = BlockIndex::new(blocks[0]);
                timed(&mut self.errors, || dev.read_block(k))
            }
            CallKind::WriteBlock => {
                let (k, data) = (BlockIndex::new(blocks[0]), payload(pool, call, blocks[0]));
                timed(&mut self.errors, || dev.write_block(k, data))
            }
            CallKind::ReadBlocks => {
                self.keys.clear();
                self.keys.extend(blocks.iter().map(|&b| BlockIndex::new(b)));
                let keys = &self.keys;
                timed(&mut self.errors, || dev.read_blocks(keys))
            }
            CallKind::WriteBlocks => {
                self.writes.clear();
                self.writes.extend(
                    blocks
                        .iter()
                        .map(|&b| (BlockIndex::new(b), payload(pool, call, b))),
                );
                let writes = &self.writes;
                timed(&mut self.errors, || dev.write_blocks(writes))
            }
            CallKind::Flush => timed(&mut self.errors, || dev.flush()),
        }
    }
}

/// Writes the whole working set, so replayed reads find real blocks.
fn prefill(dev: &impl BlockDevice, pool: &Payloads) {
    let n = dev.num_blocks();
    let mut batch = Vec::with_capacity(GROUP as usize);
    for start in (0..n).step_by(GROUP as usize) {
        batch.clear();
        batch.extend(
            (start..(start + GROUP).min(n)).map(|b| (BlockIndex::new(b), payload(pool, 0, b))),
        );
        dev.write_blocks(&batch)
            .expect("ladder prefill writes in range");
    }
}

/// Counts what reaches a device under a wrapper the benchmark cannot see
/// into (the journal's two stores).
#[derive(Debug, Default)]
struct Counts {
    flushes: AtomicU64,
    blocks_written: AtomicU64,
}

struct Counting<D> {
    inner: D,
    counts: Arc<Counts>,
}

impl<D: BlockDevice> BlockDevice for Counting<D> {
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
        self.counts.blocks_written.fetch_add(1, Ordering::Relaxed);
        self.inner.write_block(k, data)
    }
    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        self.inner.read_blocks(ks)
    }
    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        self.counts
            .blocks_written
            .fetch_add(writes.len() as u64, Ordering::Relaxed);
        self.inner.write_blocks(writes)
    }
    fn flush(&self) -> DeviceResult<()> {
        self.counts.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}

/// A device rung that also flushes every `FLUSH_EVERY` calls, timing the
/// flushes apart from the calls.
fn replay_with_flushes<D: BlockDevice>(
    dev: &D,
    pool: &Payloads,
    log: &CallLog,
    limit: usize,
    budget: Duration,
    overhead: Duration,
) -> (Rung, Vec<u32>) {
    let mut replayer = DeviceReplayer::new(dev, pool);
    let mut syncs = Vec::new();
    let rung = replay(log, limit, budget, overhead, |i, kind, blocks| {
        let took = replayer.exec(i, kind, blocks);
        if (i + 1) % FLUSH_EVERY == 0 {
            let t = Instant::now();
            let _ = dev.flush();
            syncs.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        took
    });
    syncs.sort_unstable();
    (rung, syncs)
}

/// What the ladder replays, and under which limits.
pub struct Replay<'a> {
    pub log: &'a CallLog,
    pub pool: &'a Payloads,
    /// Time each rung may take.
    pub budget: Duration,
    /// Where the file and journal rungs keep their images.
    pub work_dir: &'a Path,
}

/// Runs every rung. `top` is the workload's own device, of `runtime`,
/// running `scheme`; `manifest` is its placement when it is sharded.
pub fn run<D: BlockDevice>(
    top: &D,
    runtime: Runtime,
    scheme: Scheme,
    manifest: Option<&PlacementManifest>,
    replayed: &Replay<'_>,
) -> LadderOut {
    let &Replay {
        log,
        pool,
        budget,
        work_dir,
    } = replayed;
    let num_blocks = top.num_blocks();
    let overhead = timer_overhead();
    let mut notes = Vec::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // The workload's own device goes first: it is the slowest rung, and
    // the calls it gets through within the budget are the prefix every
    // lower rung replays, so all rungs see the same mix.
    let mut replayer = DeviceReplayer::new(top, pool);
    let top_rung = replay(log, log.len(), budget, overhead, |i, k, b| {
        replayer.exec(i, k, b)
    });
    if replayer.errors > 0 {
        notes.push(format!(
            "top rung: {} replayed calls failed",
            replayer.errors
        ));
    }
    let limit = top_rung.calls;
    let device_rung = |dev: &dyn BlockDevice| {
        let mut r = DeviceReplayer::new(&dev, pool);
        replay(log, limit, budget, overhead, |i, k, b| r.exec(i, k, b))
    };

    let mem_store = MemStore::new(num_blocks, BLOCK_SIZE);
    prefill(&mem_store, pool);
    let mem = device_rung(&mem_store);
    values.push(("storage.mem.read_us", mem.read_us));
    values.push(("storage.mem.write_us", mem.write_us));

    let cache = CacheStore::new(mem_store, (num_blocks / 4) as usize);
    let cached = device_rung(&cache);
    values.push(("storage.cache.read_us", cached.read_us));
    values.push(("storage.cache.hit_ratio", cache.stats().hit_ratio()));
    drop(cache);

    // File and journal rungs. `sync_data` on a shared volume is the
    // device's own cost; it is reported apart from what the journal adds.
    let file_path = work_dir.join("ladder-file.img");
    let data_path = work_dir.join("ladder-wal-data.img");
    let journal_path = work_dir.join("ladder-wal-journal.img");
    let file_rungs = (|| -> DeviceResult<()> {
        let file = FileStore::create(&file_path, num_blocks, BLOCK_SIZE)?;
        prefill(&file, pool);
        let (rung, syncs) = replay_with_flushes(&file, pool, log, limit, budget, overhead);
        values.push(("storage.file.read_us", rung.read_us));
        values.push(("storage.file.write_us", rung.write_us));
        values.push((
            "storage.file.sync_p50_us",
            percentile_sorted(&syncs, 0.5) / 1000.0,
        ));
        values.push((
            "storage.file.sync_p90_us",
            percentile_sorted(&syncs, 0.9) / 1000.0,
        ));
        drop(file);

        let data = FileStore::create(&data_path, num_blocks, BLOCK_SIZE)?;
        prefill(&data, pool);
        let counts = Arc::new(Counts::default());
        let journaled = Journaled::create(
            Counting {
                inner: data,
                counts: Arc::clone(&counts),
            },
            Counting {
                inner: FileStore::create(&journal_path, JOURNAL_BLOCKS, BLOCK_SIZE)?,
                counts: Arc::clone(&counts),
            },
            // Group commit only on `flush`, never on a record count.
            usize::MAX,
        )?;
        // Formatting the journal is not part of the replay.
        counts.flushes.store(0, Ordering::Relaxed);
        counts.blocks_written.store(0, Ordering::Relaxed);
        let (wal, flushes) = replay_with_flushes(&journaled, pool, log, limit, budget, overhead);
        let user_blocks: u64 = log
            .iter()
            .take(wal.calls)
            .filter(|(k, _)| k.is_write())
            .map(|(_, b)| b.len() as u64)
            .sum();
        values.push(("storage.wal.write_us", wal.write_us));
        values.push((
            "storage.wal.self_write_us",
            (wal.write_us - rung.write_us).max(0.0),
        ));
        values.push((
            "storage.wal.syncs_per_flush",
            counts.flushes.load(Ordering::Relaxed) as f64 / flushes.len().max(1) as f64,
        ));
        values.push((
            "storage.wal.bytes_per_user_byte",
            counts.blocks_written.load(Ordering::Relaxed) as f64 / user_blocks.max(1) as f64,
        ));
        Ok(())
    })();
    if let Err(e) = file_rungs {
        notes.push(format!("file/journal rungs skipped: {e}"));
    }
    for p in [&file_path, &data_path, &journal_path] {
        let _ = std::fs::remove_file(p);
    }

    // Bare replicas, driven the way a scheme drives them: a read asks one
    // replica for the versioned block, a write installs on all three at
    // the next version.
    let cfg = DeviceConfig::builder(scheme)
        .sites(3)
        .num_blocks(num_blocks)
        .block_size(BLOCK_SIZE)
        .build()
        .expect("three equal sites is a valid configuration");
    let mut replicas: Vec<Replica> = cfg.site_ids().map(|s| Replica::new(s, &cfg)).collect();
    let mut versions = vec![1u64; num_blocks as usize];
    for b in 0..num_blocks {
        for r in &mut replicas {
            r.install(
                BlockIndex::new(b),
                payload(pool, 0, b),
                VersionNumber::new(1),
            );
        }
    }
    let replica = replay(log, limit, budget, overhead, |i, kind, blocks| {
        let t = Instant::now();
        for &b in blocks {
            let k = BlockIndex::new(b);
            if kind.is_read() {
                std::hint::black_box(replicas[0].versioned(k));
            } else if kind.is_write() {
                versions[b as usize] += 1;
                let v = VersionNumber::new(versions[b as usize]);
                for r in &mut replicas {
                    r.install(k, payload(pool, i, b), v);
                }
            }
        }
        t.elapsed()
    });
    drop(replicas);
    values.push(("core.replica.read_us", replica.read_us));
    values.push(("core.replica.write_us", replica.write_us));

    let locks = BlockLockTable::new();
    let mut keys: Vec<BlockIndex> = Vec::new();
    let guards = replay(log, limit, budget, overhead, |_, kind, blocks| {
        keys.clear();
        keys.extend(blocks.iter().map(|&b| BlockIndex::new(b)));
        let t = Instant::now();
        match kind {
            CallKind::ReadBlock => drop(std::hint::black_box(locks.read_guard(keys[0]))),
            CallKind::WriteBlock => drop(std::hint::black_box(locks.write_guard(keys[0]))),
            CallKind::ReadBlocks => drop(std::hint::black_box(locks.read_guard_many(&keys))),
            CallKind::WriteBlocks => drop(std::hint::black_box(locks.write_guard_many(&keys))),
            CallKind::Flush => {}
        }
        t.elapsed()
    });
    let calls = (guards.reads + guards.writes).max(1) as f64;
    values.push((
        "core.locks.guard_us",
        (guards.read_us * guards.reads as f64 + guards.write_us * guards.writes as f64) / calls,
    ));

    // The wire codec on each call's payload: a write travels as an
    // apply-write request, a read comes back as a data response.
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    let (mut wire_bytes, mut payload_bytes, mut coded) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for (i, (kind, blocks)) in log.iter().take(limit).enumerate() {
        let data = |b: u64| payload(pool, i, b);
        let v = VersionNumber::new(2);
        let message = match (kind, blocks) {
            (CallKind::Flush, _) => continue,
            (CallKind::WriteBlock, &[b]) => {
                Ok(WireRequest::ApplyWrite(BlockIndex::new(b), v, data(b)))
            }
            (k, _) if k.is_write() => Ok(WireRequest::ApplyWriteMany(
                blocks
                    .iter()
                    .map(|&b| (BlockIndex::new(b), v, data(b)))
                    .collect(),
            )),
            (_, &[b]) => Err(WireResponse::Data(data(b))),
            _ => Err(WireResponse::DataMany(
                blocks.iter().map(|&b| data(b)).collect(),
            )),
        };
        let t = Instant::now();
        let bytes = match &message {
            Ok(request) => request.encode(),
            Err(response) => response.encode(),
        };
        encode += t.elapsed().saturating_sub(overhead);
        let t = Instant::now();
        let decoded = match &message {
            Ok(_) => WireRequest::decode(&bytes).is_ok(),
            Err(_) => WireResponse::decode(&bytes).is_ok(),
        };
        decode += t.elapsed().saturating_sub(overhead);
        debug_assert!(decoded);
        wire_bytes += bytes.len() as u64;
        payload_bytes += (blocks.len() * BLOCK_SIZE) as u64;
        coded += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    values.push((
        "core.wire.encode_us",
        encode.as_secs_f64() * 1e6 / coded.max(1) as f64,
    ));
    values.push((
        "core.wire.decode_us",
        decode.as_secs_f64() * 1e6 / coded.max(1) as f64,
    ));
    values.push((
        "core.wire.bytes_per_payload_byte",
        wire_bytes as f64 / payload_bytes.max(1) as f64,
    ));

    // The protocol on the deterministic cluster, under the workload's scheme.
    let cluster = Arc::new(Cluster::new(cfg, ClusterOptions::default()));
    let protocol_dev = ReliableDevice::new(cluster, SiteId::new(0));
    prefill(&protocol_dev, pool);
    let protocol = device_rung(&protocol_dev);
    drop(protocol_dev);
    let (proto_read, proto_write) = protocol.minus(&replica);
    values.push(("core.protocol.read_us", protocol.read_us));
    values.push(("core.protocol.write_us", protocol.write_us));
    values.push(("core.protocol.self_read_us", proto_read));
    values.push(("core.protocol.self_write_us", proto_write));

    let (top_read, top_write) = top_rung.minus(&protocol);
    match runtime {
        Runtime::Deterministic => {}
        Runtime::Live => {
            values.push(("core.live.self_read_us", top_read));
            values.push(("core.live.self_write_us", top_write));
        }
        Runtime::Tcp => {
            values.push(("core.tcp.self_read_us", top_read));
            values.push(("core.tcp.self_write_us", top_write));
        }
        Runtime::Shard => {
            values.push(("core.shard.self_read_us", top_read));
            values.push(("core.shard.self_write_us", top_write));
        }
    }
    if let Some(m) = manifest {
        let (mut shards, mut n) = (0usize, 0usize);
        for (_, blocks) in log.iter().take(limit).filter(|(_, b)| !b.is_empty()) {
            let mut touched: Vec<usize> = blocks
                .iter()
                .map(|&b| m.shard_of(BlockIndex::new(b)))
                .collect();
            touched.sort_unstable();
            touched.dedup();
            shards += touched.len();
            n += 1;
        }
        values.push(("core.shard.shards_per_op", shards as f64 / n.max(1) as f64));
    }

    let (replica_read, replica_write) = replica.minus(&mem);
    LadderOut {
        runtime,
        values,
        read_sum_us: mem.read_us + replica_read + proto_read + top_read,
        write_sum_us: mem.write_us + replica_write + proto_write + top_write,
        calls_replayed: limit,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_splits_time_by_kind_and_respects_limit_and_budget() {
        let mut log = CallLog::default();
        for i in 0..10u64 {
            let kind = if i % 2 == 0 {
                CallKind::ReadBlock
            } else {
                CallKind::WriteBlocks
            };
            log.push(kind, [i, i + 1].into_iter());
        }
        let micros = Duration::from_micros;
        let rung = replay(
            &log,
            6,
            Duration::from_secs(5),
            Duration::ZERO,
            |_, kind, blocks| {
                assert_eq!(blocks.len(), 2);
                if kind.is_read() {
                    micros(10)
                } else {
                    micros(30)
                }
            },
        );
        assert_eq!((rung.calls, rung.reads, rung.writes), (6, 3, 3));
        assert!((rung.read_us - 10.0).abs() < 1e-9 && (rung.write_us - 30.0).abs() < 1e-9);

        let stopped = replay(&log, 10, Duration::ZERO, Duration::ZERO, |_, _, _| {
            micros(1)
        });
        assert_eq!(
            stopped.calls, 1,
            "a spent budget stops after the call in hand"
        );

        let below = Rung {
            read_us: 12.0,
            write_us: 20.0,
            ..Rung::default()
        };
        assert_eq!(
            rung.minus(&below),
            (0.0, 10.0),
            "self times never go negative"
        );
    }
}
