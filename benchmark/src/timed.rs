//! The benchmark's own tracing: a `BlockDevice` wrapper that times every
//! call at the boundary the paper is built around, plus workload-op spans
//! recorded by the run loop.
//!
//! Everything here is owned by the benchmark and observes the program from
//! outside. While the recorder is off (`set_on(false)`) a wrapped call
//! costs one relaxed load; end-to-end figures come from runs that do not
//! wrap the device at all.

use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex, DeviceResult};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept for the Chrome trace file (the first ones; later ones are
/// counted, not stored, so a 30 s run cannot grow without bound).
pub const MAX_SPANS: usize = 100_000;
/// Device calls kept for the replay ladder.
pub const MAX_LOGGED_CALLS: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CallKind {
    ReadBlock,
    WriteBlock,
    ReadBlocks,
    WriteBlocks,
    Flush,
}

impl CallKind {
    pub fn name(self) -> &'static str {
        match self {
            CallKind::ReadBlock => "dev.read_block",
            CallKind::WriteBlock => "dev.write_block",
            CallKind::ReadBlocks => "dev.read_blocks",
            CallKind::WriteBlocks => "dev.write_blocks",
            CallKind::Flush => "dev.flush",
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, CallKind::WriteBlock | CallKind::WriteBlocks)
    }

    pub fn is_read(self) -> bool {
        matches!(self, CallKind::ReadBlock | CallKind::ReadBlocks)
    }
}

/// One span: a workload op (`parent == 0`) or a device call under it.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One logged device call: its kind and the blocks it named.
#[derive(Debug, Clone, Copy)]
pub struct LoggedCall {
    pub kind: CallKind,
    first: u32,
    len: u32,
}

#[derive(Debug, Default)]
pub struct CallLog {
    calls: Vec<LoggedCall>,
    blocks: Vec<u64>,
}

impl CallLog {
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (CallKind, &[u64])> {
        self.calls.iter().map(|c| {
            (
                c.kind,
                &self.blocks[c.first as usize..(c.first + c.len) as usize],
            )
        })
    }

    pub fn push(&mut self, kind: CallKind, blocks: impl Iterator<Item = u64>) {
        let first = self.blocks.len() as u32;
        self.blocks.extend(blocks);
        let len = self.blocks.len() as u32 - first;
        self.calls.push(LoggedCall { kind, first, len });
    }
}

/// Totals over the whole traced phase (spans beyond `MAX_SPANS` still
/// count here).
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub ops: u64,
    pub op_ns: u64,
    /// Device-call time inside op spans.
    pub op_dev_ns: u64,
    pub dev_calls: u64,
    pub dev_read_calls: u64,
    pub dev_write_calls: u64,
    pub dev_blocks_read: u64,
    pub dev_blocks_written: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: u64,
    /// `(id, start_ns, device ns so far)` of the open op span.
    open_op: Option<(u64, u64, u64)>,
    spans: Vec<SpanRec>,
    spans_dropped: u64,
    log: CallLog,
    totals: Totals,
    /// Latency samples (ns) per op name, for the per-op-kind medians.
    op_samples: BTreeMap<&'static str, Vec<u32>>,
    /// Device-call latencies (ns) while the preferred site was down.
    degraded_samples: Vec<u32>,
    /// Start of the first recorded device call: where the program's own
    /// flight recorder starts its clock when it is enabled just before.
    first_call_ns: Option<u64>,
}

/// Shared between the run loop (op spans) and [`Timed`] (device calls).
#[derive(Debug)]
pub struct Recorder {
    on: AtomicBool,
    degraded: AtomicBool,
    inner: Mutex<Inner>,
}

/// What a traced phase leaves behind.
pub struct Recording {
    pub spans: Vec<SpanRec>,
    pub spans_dropped: u64,
    pub log: CallLog,
    pub totals: Totals,
    pub op_samples: BTreeMap<&'static str, Vec<u32>>,
    pub degraded_samples: Vec<u32>,
    pub first_call_ns: u64,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            on: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                epoch: Instant::now(),
                next_id: 1,
                open_op: None,
                spans: Vec::new(),
                spans_dropped: 0,
                log: CallLog::default(),
                totals: Totals::default(),
                op_samples: BTreeMap::new(),
                degraded_samples: Vec::new(),
                first_call_ns: None,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("recorder lock: a recording thread panicked")
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Marks device calls as issued while the preferred site is down.
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Relaxed);
    }

    /// Opens the span of one workload op; device calls until
    /// [`end_op`](Self::end_op) are its children.
    pub fn begin_op(&self) {
        if !self.is_on() {
            return;
        }
        let mut g = self.lock();
        let id = g.next_id;
        g.next_id += 1;
        let now = g.epoch.elapsed().as_nanos() as u64;
        g.open_op = Some((id, now, 0));
    }

    pub fn end_op(&self, name: &'static str) {
        if !self.is_on() {
            return;
        }
        let mut g = self.lock();
        let Some((id, start_ns, dev_ns)) = g.open_op.take() else {
            return;
        };
        let dur_ns = (g.epoch.elapsed().as_nanos() as u64).saturating_sub(start_ns);
        g.totals.ops += 1;
        g.totals.op_ns += dur_ns;
        g.totals.op_dev_ns += dev_ns;
        g.op_samples
            .entry(name)
            .or_default()
            .push(dur_ns.min(u64::from(u32::MAX)) as u32);
        g.push_span(SpanRec {
            name,
            id,
            parent: 0,
            start_ns,
            dur_ns,
        });
    }

    fn device_call(
        &self,
        kind: CallKind,
        started: Instant,
        blocks: impl ExactSizeIterator<Item = u64>,
    ) {
        let dur_ns = started.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        let start_ns = started.saturating_duration_since(g.epoch).as_nanos() as u64;
        g.first_call_ns.get_or_insert(start_ns);
        let n = blocks.len() as u64;
        g.totals.dev_calls += 1;
        if kind.is_read() {
            g.totals.dev_read_calls += 1;
            g.totals.dev_blocks_read += n;
        } else if kind.is_write() {
            g.totals.dev_write_calls += 1;
            g.totals.dev_blocks_written += n;
        }
        if self.degraded.load(Ordering::Relaxed) {
            g.degraded_samples
                .push(dur_ns.min(u64::from(u32::MAX)) as u32);
        }
        if g.log.len() < MAX_LOGGED_CALLS {
            g.log.push(kind, blocks);
        }
        let parent = match &mut g.open_op {
            Some((id, _, dev_ns)) => {
                *dev_ns += dur_ns;
                *id
            }
            None => 0,
        };
        let id = g.next_id;
        g.next_id += 1;
        g.push_span(SpanRec {
            name: kind.name(),
            id,
            parent,
            start_ns,
            dur_ns,
        });
    }

    /// Takes everything recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Recording {
        let mut g = self.lock();
        Recording {
            spans: std::mem::take(&mut g.spans),
            spans_dropped: std::mem::take(&mut g.spans_dropped),
            log: std::mem::take(&mut g.log),
            totals: std::mem::take(&mut g.totals),
            op_samples: std::mem::take(&mut g.op_samples),
            degraded_samples: std::mem::take(&mut g.degraded_samples),
            first_call_ns: g.first_call_ns.take().unwrap_or(0),
        }
    }
}

impl Inner {
    fn push_span(&mut self, span: SpanRec) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.spans_dropped += 1;
        }
    }
}

/// A [`BlockDevice`] that reports every call to a [`Recorder`].
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    rec: Arc<Recorder>,
}

impl<D: BlockDevice> Timed<D> {
    pub fn new(inner: D, rec: Arc<Recorder>) -> Timed<D> {
        Timed { inner, rec }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for Timed<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        if !self.rec.is_on() {
            return self.inner.read_block(k);
        }
        let t = Instant::now();
        let out = self.inner.read_block(k);
        self.rec
            .device_call(CallKind::ReadBlock, t, std::iter::once(k.as_u64()));
        out
    }

    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        if !self.rec.is_on() {
            return self.inner.write_block(k, data);
        }
        let t = Instant::now();
        let out = self.inner.write_block(k, data);
        self.rec
            .device_call(CallKind::WriteBlock, t, std::iter::once(k.as_u64()));
        out
    }

    fn read_blocks(&self, ks: &[BlockIndex]) -> DeviceResult<Vec<BlockData>> {
        if !self.rec.is_on() {
            return self.inner.read_blocks(ks);
        }
        let t = Instant::now();
        let out = self.inner.read_blocks(ks);
        self.rec
            .device_call(CallKind::ReadBlocks, t, ks.iter().map(|k| k.as_u64()));
        out
    }

    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        if !self.rec.is_on() {
            return self.inner.write_blocks(writes);
        }
        let t = Instant::now();
        let out = self.inner.write_blocks(writes);
        self.rec.device_call(
            CallKind::WriteBlocks,
            t,
            writes.iter().map(|(k, _)| k.as_u64()),
        );
        out
    }

    fn flush(&self) -> DeviceResult<()> {
        if !self.rec.is_on() {
            return self.inner.flush();
        }
        let t = Instant::now();
        let out = self.inner.flush();
        self.rec.device_call(CallKind::Flush, t, std::iter::empty());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_storage::MemStore;

    #[test]
    fn device_calls_nest_under_the_open_op_and_feed_the_log() {
        let rec = Recorder::new();
        let dev = Timed::new(MemStore::new(8, 16), Arc::clone(&rec));
        dev.write_block(BlockIndex::new(1), BlockData::zeroed(16))
            .unwrap();
        assert_eq!(rec.take().totals.dev_calls, 0, "off: nothing recorded");

        rec.set_on(true);
        rec.begin_op();
        dev.write_blocks(&[
            (BlockIndex::new(2), BlockData::zeroed(16)),
            (BlockIndex::new(3), BlockData::zeroed(16)),
        ])
        .unwrap();
        dev.read_block(BlockIndex::new(2)).unwrap();
        rec.end_op("op.test");
        let got = rec.take();
        assert_eq!(got.totals.ops, 1);
        assert_eq!(
            (
                got.totals.dev_calls,
                got.totals.dev_blocks_written,
                got.totals.dev_blocks_read
            ),
            (2, 2, 1)
        );
        assert!(got.totals.op_dev_ns <= got.totals.op_ns);
        let op = got.spans.iter().find(|s| s.parent == 0).expect("op span");
        assert_eq!(got.spans.iter().filter(|s| s.parent == op.id).count(), 2);
        let calls: Vec<(CallKind, Vec<u64>)> =
            got.log.iter().map(|(k, b)| (k, b.to_vec())).collect();
        assert_eq!(
            calls,
            [
                (CallKind::WriteBlocks, vec![2, 3]),
                (CallKind::ReadBlock, vec![2])
            ]
        );
    }
}
