//! The request/response vocabulary of the site service, and its wire
//! format.
//!
//! [`WireRequest`] and [`WireResponse`] are what a coordinator says to a
//! site's server process and what it answers, on every message-passing
//! runtime: the live cluster moves the values as they are over inboxes,
//! and the TCP cluster ([`TcpCluster`](crate::TcpCluster)) moves them as
//! length-prefixed frames in the compact, hand-rolled binary encoding
//! defined here — what actually crosses the network when the reliable
//! device runs as real server processes. No serialization framework: the
//! messages are nine shapes of integers, byte blocks and site sets, and a
//! fuzzed round-trip property pins the format down.
//!
//! What a sender holds is a [`Request`]: the same vocabulary, borrowed and
//! `Copy`. The site service serves that view, so a request served in
//! process copies nothing and a sealed block keeps its seal, and a TCP
//! site serves an install where its blocks lie in the frame. A request is
//! made a `WireRequest` only to cross a thread, never to cross a socket.

use crate::backend::{BlockVec, RepairBlocks, WriteBatch};
use blockrep_storage::{SealedBlock, StorageFault};
use blockrep_types::{BlockData, BlockIndex, SiteId, VersionNumber, VersionVector};
use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};

/// Upper bound on a frame, to fail fast on corrupt length prefixes.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A request to a site's server process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Liveness probe.
    Probe,
    /// Fetch a run of blocks, each with its version, in one frame.
    FetchMany(Vec<BlockIndex>),
    /// Install a block at a version (if newer).
    // Kept only because `benchmark/src/ladder.rs` builds it to time the
    // codec: no coordinator sends it (a single-block write is a batch of
    // one). It goes when the ladder moves to the batch tag.
    ApplyWrite(BlockIndex, VersionNumber, BlockData),
    /// Request the full version vector.
    VersionVector,
    /// Figure 5's exchange: here is my vector; send yours plus my missing
    /// blocks.
    RepairPayload(VersionVector),
    /// Install a repair payload.
    ApplyRepair(RepairBlocks),
    /// Request the was-available set.
    GetW,
    /// Replace the was-available set with these sites, in ascending order.
    SetW(Vec<SiteId>),
    /// Add one member to the was-available set.
    AddW(SiteId),
    /// Fault injection: install a block but leave it in the broken on-disk
    /// state the fault describes (crash mid-install).
    ApplyWriteFaulty(BlockIndex, VersionNumber, BlockData, StorageFault),
    /// Fault injection: run the restart-time integrity scrub.
    Scrub,
    /// Request the site's votes for a whole run of blocks in one frame.
    VoteMany(Vec<BlockIndex>),
    /// Install a batch of blocks at their versions (each if newer) in one
    /// frame. Same payload shape as [`WireRequest::ApplyRepair`]: the
    /// blocks' seals do not travel, and a site seals each block afresh.
    ApplyWriteMany(WriteBatch),
    /// Read a run of blocks off the local disk in one frame.
    ReadLocalMany(Vec<BlockIndex>),
    /// A trace envelope: the inner request plus the coordinator's causal
    /// identifiers, so the serving site's phase spans stitch into the
    /// coordinator's trace tree. Strictly optional: the coordinator only
    /// wraps frames after wire tracing is switched on, so an untraced run
    /// never puts this tag on the wire.
    Traced {
        /// The coordinator's trace id.
        trace_id: u64,
        /// The span the remote work should be parented under.
        parent_span: u64,
        /// The request being carried (never itself `Traced`).
        inner: Box<WireRequest>,
    },
}

/// A request as its sender holds it: the [`WireRequest`] vocabulary with
/// every payload borrowed, so it is `Copy` and serving it copies nothing.
/// An install in process keeps the seals its write computed; no frame
/// carries a sum, so one crosses a thread or a socket without them.
/// A trace envelope is not among them: a site opens one it took whole
/// before it borrows the request inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request<'a> {
    Probe,
    FetchMany(&'a [BlockIndex]),
    ReadLocalMany(&'a [BlockIndex]),
    VoteMany(&'a [BlockIndex]),
    VersionVector,
    RepairPayload(&'a VersionVector),
    ApplyWrite(BlockIndex, VersionNumber, &'a BlockData),
    ApplyWriteMany(Batch<'a>),
    ApplyWriteFaulty(BlockIndex, VersionNumber, &'a BlockData, StorageFault),
    ApplyRepair(&'a [(BlockIndex, VersionNumber, BlockData)]),
    Scrub,
    GetW,
    SetW(&'a [SiteId]),
    AddW(SiteId),
}

/// The blocks of an install, borrowed: sealed where their write chose the
/// versions, so the replica stores each seal's sum — or where they lie in
/// the frame they arrived in, for the site to seal and copy into its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Batch<'a> {
    Sealed(&'a [(BlockIndex, SealedBlock)]),
    Frame(BlockRun<'a>),
}

/// A run of blocks as [`put_blocks`] writes it, checked whole once and
/// then read where it lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockRun<'a>(&'a [u8]);

impl<'a> BlockRun<'a> {
    /// The run at the front of `raw`, which moves past it.
    fn get(raw: &mut &'a [u8]) -> Result<Self, DecodeError> {
        let run = *raw;
        need(raw, 4, "run length")?;
        for _ in 0..raw.get_u32_le() {
            get_block(raw)?;
        }
        Ok(BlockRun(&run[..run.len() - raw.len()]))
    }

    /// Each block's index, version and payload, in frame order.
    pub(crate) fn iter(self) -> impl Iterator<Item = (BlockIndex, VersionNumber, &'a [u8])> {
        let mut raw = self.0;
        (0..raw.get_u32_le()).map(move |_| get_block(&mut raw).expect("a checked run"))
    }

    /// Each block copied out of the frame into a buffer of its own.
    fn blocks<T: FromIterator<(BlockIndex, VersionNumber, BlockData)>>(self) -> T {
        self.iter()
            .map(|(k, v, data)| (k, v, data.into()))
            .collect()
    }
}

impl WireRequest {
    /// The request inside a trace envelope parented at `ctx`, if any.
    pub(crate) fn traced(self, ctx: Option<blockrep_obs::trace::TraceContext>) -> WireRequest {
        match ctx {
            Some(ctx) => WireRequest::Traced {
                trace_id: ctx.trace_id,
                parent_span: ctx.span_id,
                inner: Box::new(self),
            },
            None => self,
        }
    }

    /// The request, borrowed; an envelope as the request it carries.
    pub(crate) fn as_request(&self) -> Request<'_> {
        match self {
            WireRequest::Probe => Request::Probe,
            WireRequest::FetchMany(ks) => Request::FetchMany(ks),
            WireRequest::ReadLocalMany(ks) => Request::ReadLocalMany(ks),
            WireRequest::VoteMany(ks) => Request::VoteMany(ks),
            WireRequest::VersionVector => Request::VersionVector,
            WireRequest::RepairPayload(vv) => Request::RepairPayload(vv),
            WireRequest::ApplyWrite(k, v, data) => Request::ApplyWrite(*k, *v, data),
            WireRequest::ApplyWriteMany(blocks) => Request::ApplyWriteMany(Batch::Sealed(blocks)),
            WireRequest::ApplyWriteFaulty(k, v, data, fault) => {
                Request::ApplyWriteFaulty(*k, *v, data, *fault)
            }
            WireRequest::ApplyRepair(blocks) => Request::ApplyRepair(blocks),
            WireRequest::Scrub => Request::Scrub,
            WireRequest::GetW => Request::GetW,
            WireRequest::SetW(w) => Request::SetW(w),
            WireRequest::AddW(s) => Request::AddW(*s),
            WireRequest::Traced { inner, .. } => inner.as_request(),
        }
    }
}

impl From<Request<'_>> for WireRequest {
    /// The request as it crosses a thread: every payload copied (a block's
    /// payload shared, not copied).
    fn from(request: Request<'_>) -> Self {
        match request {
            Request::Probe => WireRequest::Probe,
            Request::FetchMany(ks) => WireRequest::FetchMany(ks.to_vec()),
            Request::ReadLocalMany(ks) => WireRequest::ReadLocalMany(ks.to_vec()),
            Request::VoteMany(ks) => WireRequest::VoteMany(ks.to_vec()),
            Request::VersionVector => WireRequest::VersionVector,
            Request::RepairPayload(vv) => WireRequest::RepairPayload(vv.clone()),
            Request::ApplyWrite(k, v, data) => WireRequest::ApplyWrite(k, v, data.clone()),
            Request::ApplyWriteMany(Batch::Sealed(bs)) => WireRequest::ApplyWriteMany(bs.into()),
            Request::ApplyWriteMany(Batch::Frame(run)) => WireRequest::ApplyWriteMany(run.blocks()),
            Request::ApplyWriteFaulty(k, v, data, fault) => {
                WireRequest::ApplyWriteFaulty(k, v, data.clone(), fault)
            }
            Request::ApplyRepair(blocks) => WireRequest::ApplyRepair(blocks.to_vec()),
            Request::Scrub => WireRequest::Scrub,
            Request::GetW => WireRequest::GetW,
            Request::SetW(w) => WireRequest::SetW(w.to_vec()),
            Request::AddW(s) => WireRequest::AddW(s),
        }
    }
}

/// A site's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Acknowledgement with no payload.
    Ack,
    /// A run of blocks, each with its version, in request order.
    Blocks(BlockVec<(VersionNumber, BlockData)>),
    /// Raw block data.
    // Kept only because `benchmark/src/ladder.rs` builds it to time the
    // codec: no site answers with it (a single-block read is a batch of
    // one). It goes when the ladder moves to the batch tag.
    Data(BlockData),
    /// A version vector.
    Vector(VersionVector),
    /// A repair payload: Figure 5's `{blocks}`, whose `v'` is implied.
    Payload(RepairBlocks),
    /// A was-available set, in ascending order.
    W(Vec<SiteId>),
    /// A plain count (e.g. blocks reset by a scrub).
    Count(u64),
    /// Votes for a batch of blocks, in request order.
    Versions(BlockVec<VersionNumber>),
    /// Raw data for a batch of blocks, in request order.
    DataMany(BlockVec<BlockData>),
}

/// A malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn bad(what: &str) -> DecodeError {
    DecodeError(what.to_string())
}

fn need(raw: &[u8], bytes: usize, what: &str) -> Result<(), DecodeError> {
    (raw.len() >= bytes).then_some(()).ok_or_else(|| bad(what))
}

fn put_data(buf: &mut impl BufMut, data: &BlockData) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data.as_slice());
}

/// A payload, where it lies in the frame.
fn get_bytes<'a>(raw: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    need(raw, 4, "data length")?;
    let len = raw.get_u32_le() as usize;
    let (data, rest) = raw.split_at_checked(len).ok_or_else(|| bad("data body"))?;
    *raw = rest;
    Ok(data)
}

/// A payload copied out of the frame into a buffer of its own, never a
/// slice *of* the frame: one block kept would pin the whole frame.
fn get_data(raw: &mut &[u8]) -> Result<BlockData, DecodeError> {
    get_bytes(raw).map(BlockData::from)
}

/// One block of a run: its index, version and payload, where it lies.
fn get_block<'a>(raw: &mut &'a [u8]) -> Result<(BlockIndex, VersionNumber, &'a [u8]), DecodeError> {
    need(raw, 16, "block header")?;
    let k = BlockIndex::new(raw.get_u64_le());
    let v = VersionNumber::new(raw.get_u64_le());
    Ok((k, v, get_bytes(raw)?))
}

fn put_vv(buf: &mut impl BufMut, vv: &VersionVector) {
    buf.put_u64_le(vv.len() as u64);
    for (_, v) in vv.iter() {
        buf.put_u64_le(v.as_u64());
    }
}

fn get_vv(raw: &mut &[u8]) -> Result<VersionVector, DecodeError> {
    need(raw, 8, "vector length")?;
    let len = raw.get_u64_le() as usize;
    need(
        raw,
        len.checked_mul(8).ok_or_else(|| bad("vector overflow"))?,
        "vector body",
    )?;
    Ok((0..len)
        .map(|_| VersionNumber::new(raw.get_u64_le()))
        .collect())
}

/// A `u32` count, then each block's index, version and data: the one
/// layout of a repair payload and of a write batch.
fn put_blocks<'a>(
    buf: &mut impl BufMut,
    blocks: impl ExactSizeIterator<Item = (BlockIndex, VersionNumber, &'a BlockData)>,
) {
    buf.put_u32_le(blocks.len() as u32);
    for (k, v, data) in blocks {
        buf.put_u64_le(k.as_u64());
        buf.put_u64_le(v.as_u64());
        put_data(buf, data);
    }
}

/// A `u32` count, then that many items, each read by `get`.
fn get_run<T>(
    raw: &mut &[u8],
    get: impl Fn(&mut &[u8]) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    need(raw, 4, "run length")?;
    let count = raw.get_u32_le() as usize;
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        out.push(get(raw)?);
    }
    Ok(out)
}

/// A `u32` count, then that many `u64`s: a run of block indices or of
/// version numbers.
fn put_u64s(buf: &mut impl BufMut, values: impl ExactSizeIterator<Item = u64>) {
    buf.put_u32_le(values.len() as u32);
    for v in values {
        buf.put_u64_le(v);
    }
}

fn get_u64s<T>(raw: &mut &[u8], make: impl Fn(u64) -> T) -> Result<Vec<T>, DecodeError> {
    need(raw, 4, "run length")?;
    let count = raw.get_u32_le() as usize;
    let bytes = count.checked_mul(8).ok_or_else(|| bad("run overflow"))?;
    need(raw, bytes, "run body")?;
    Ok((0..count).map(|_| make(raw.get_u64_le())).collect())
}

fn put_sites<'s>(buf: &mut impl BufMut, sites: impl ExactSizeIterator<Item = &'s SiteId>) {
    buf.put_u32_le(sites.len() as u32);
    for s in sites {
        buf.put_u32_le(s.as_u32());
    }
}

fn get_sites(raw: &mut &[u8]) -> Result<Vec<SiteId>, DecodeError> {
    need(raw, 4, "site count")?;
    let count = raw.get_u32_le() as usize;
    need(
        raw,
        count.checked_mul(4).ok_or_else(|| bad("site overflow"))?,
        "site body",
    )?;
    Ok((0..count).map(|_| SiteId::new(raw.get_u32_le())).collect())
}

impl Request<'_> {
    /// Appends the serialized request to `buf`: the one request encoder.
    fn encode_into(&self, buf: &mut impl BufMut) {
        match *self {
            Request::Probe => buf.put_u8(0),
            Request::FetchMany(ks) => {
                buf.put_u8(2);
                put_u64s(buf, ks.iter().map(|k| k.as_u64()));
            }
            Request::ApplyWrite(k, v, data) => {
                buf.put_u8(3);
                buf.put_u64_le(k.as_u64());
                buf.put_u64_le(v.as_u64());
                put_data(buf, data);
            }
            Request::VersionVector => buf.put_u8(5),
            Request::RepairPayload(vv) => {
                buf.put_u8(6);
                put_vv(buf, vv);
            }
            Request::ApplyRepair(blocks) => {
                buf.put_u8(7);
                put_blocks(buf, blocks.iter().map(|(k, v, data)| (*k, *v, data)));
            }
            Request::GetW => buf.put_u8(8),
            Request::SetW(w) => {
                buf.put_u8(9);
                put_sites(buf, w.iter());
            }
            Request::AddW(s) => {
                buf.put_u8(10);
                buf.put_u32_le(s.as_u32());
            }
            Request::ApplyWriteFaulty(k, v, data, fault) => {
                buf.put_u8(12);
                buf.put_u64_le(k.as_u64());
                buf.put_u64_le(v.as_u64());
                put_data(buf, data);
                match fault {
                    StorageFault::Torn { keep } => {
                        buf.put_u8(0);
                        buf.put_u64_le(keep as u64);
                    }
                    StorageFault::StaleVersion => buf.put_u8(1),
                    StorageFault::WalTorn { keep } => {
                        buf.put_u8(2);
                        buf.put_u64_le(keep as u64);
                    }
                }
            }
            Request::Scrub => buf.put_u8(13),
            Request::VoteMany(ks) => {
                buf.put_u8(14);
                put_u64s(buf, ks.iter().map(|k| k.as_u64()));
            }
            Request::ApplyWriteMany(batch) => {
                buf.put_u8(15);
                match batch {
                    Batch::Sealed(batch) => {
                        put_blocks(buf, batch.iter().map(|(k, b)| (*k, b.version(), b.data())))
                    }
                    Batch::Frame(run) => buf.put_slice(run.0),
                }
            }
            Request::ReadLocalMany(ks) => {
                buf.put_u8(16);
                put_u64s(buf, ks.iter().map(|k| k.as_u64()));
            }
        }
    }

    /// Frames the request — inside a trace envelope carrying `ids`, if any
    /// — in the buffer this thread reuses for it, and hands `send` that
    /// frame. A buffer that grew past [`KEEP_BUFFER`] is released after.
    pub(crate) fn framed<R>(&self, ids: Option<[u64; 2]>, send: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut frame = FRAME.take();
        let head = encoded_len(|len| put_envelope(len, ids));
        start_frame(&mut frame, head + encoded_len(|len| self.encode_into(len)));
        put_envelope(&mut frame, ids);
        self.encode_into(&mut frame);
        let sent = send(&mut frame);
        if frame.capacity() <= KEEP_BUFFER {
            FRAME.set(frame);
        }
        sent
    }
}

impl<'a> Request<'a> {
    /// The install a request frame carries, its blocks where they lie in
    /// `raw` (read by the block-run parser the owned decode uses); `None`
    /// for any other frame.
    pub(crate) fn install_in(raw: &'a [u8]) -> Option<Self> {
        let mut body = raw.strip_prefix(&[15])?;
        let run = BlockRun::get(&mut body).ok().filter(|_| body.is_empty())?;
        Some(Request::ApplyWriteMany(Batch::Frame(run)))
    }
}

impl WireRequest {
    /// Serializes the request into a buffer of exactly its size.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(encoded_len(|len| self.encode_into(len)));
        self.encode_into(&mut buf);
        buf
    }

    /// The request as one whole frame — length prefix, then payload — in a
    /// buffer allocated once at its final size.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        start_frame(&mut frame, encoded_len(|len| self.encode_into(len)));
        self.encode_into(&mut frame);
        frame
    }

    /// Appends the serialized request to `buf`, an envelope per trace layer first.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        let mut layer = self;
        while let WireRequest::Traced {
            trace_id,
            parent_span,
            inner,
        } = layer
        {
            put_envelope(buf, Some([*trace_id, *parent_span]));
            layer = inner;
        }
        layer.as_request().encode_into(buf);
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, trailing garbage, or an unknown tag.
    pub fn decode(mut raw: &[u8]) -> Result<WireRequest, DecodeError> {
        need(raw, 1, "request tag")?;
        let tag = raw.get_u8();
        let request = match tag {
            0 => WireRequest::Probe,
            2 => WireRequest::FetchMany(get_u64s(&mut raw, BlockIndex::new)?),
            3 => {
                need(raw, 16, "write header")?;
                let k = BlockIndex::new(raw.get_u64_le());
                let v = VersionNumber::new(raw.get_u64_le());
                WireRequest::ApplyWrite(k, v, get_data(&mut raw)?)
            }
            5 => WireRequest::VersionVector,
            6 => WireRequest::RepairPayload(get_vv(&mut raw)?),
            7 => WireRequest::ApplyRepair(BlockRun::get(&mut raw)?.blocks()),
            8 => WireRequest::GetW,
            9 => WireRequest::SetW(get_sites(&mut raw)?),
            10 => {
                need(raw, 4, "site id")?;
                WireRequest::AddW(SiteId::new(raw.get_u32_le()))
            }
            12 => {
                need(raw, 16, "write header")?;
                let k = BlockIndex::new(raw.get_u64_le());
                let v = VersionNumber::new(raw.get_u64_le());
                let data = get_data(&mut raw)?;
                need(raw, 1, "fault tag")?;
                let fault = match raw.get_u8() {
                    0 => {
                        need(raw, 8, "torn keep")?;
                        StorageFault::Torn {
                            keep: raw.get_u64_le() as usize,
                        }
                    }
                    1 => StorageFault::StaleVersion,
                    2 => {
                        need(raw, 8, "wal-torn keep")?;
                        StorageFault::WalTorn {
                            keep: raw.get_u64_le() as usize,
                        }
                    }
                    other => return Err(bad(&format!("unknown fault tag {other}"))),
                };
                WireRequest::ApplyWriteFaulty(k, v, data, fault)
            }
            13 => WireRequest::Scrub,
            14 => WireRequest::VoteMany(get_u64s(&mut raw, BlockIndex::new)?),
            15 => WireRequest::ApplyWriteMany(BlockRun::get(&mut raw)?.blocks()),
            17 => {
                need(raw, 16, "trace envelope")?;
                let trace_id = raw.get_u64_le();
                let parent_span = raw.get_u64_le();
                // The inner decode consumes the remainder and performs its
                // own trailing-bytes check, so return directly.
                let inner = WireRequest::decode(raw)?;
                if matches!(inner, WireRequest::Traced { .. }) {
                    return Err(bad("nested trace envelope"));
                }
                return Ok(WireRequest::Traced {
                    trace_id,
                    parent_span,
                    inner: Box::new(inner),
                });
            }
            16 => WireRequest::ReadLocalMany(get_u64s(&mut raw, BlockIndex::new)?),
            other => return Err(bad(&format!("unknown request tag {other}"))),
        };
        if raw.has_remaining() {
            return Err(bad("trailing bytes after request"));
        }
        Ok(request)
    }
}

impl WireResponse {
    /// Serializes the response into a buffer of exactly its size.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(encoded_len(|len| self.encode_into(len)));
        self.encode_into(&mut buf);
        buf
    }

    /// Replaces the contents of `frame` — a buffer its connection reuses —
    /// with the response as one whole frame: length prefix, then payload.
    pub fn frame_into(&self, frame: &mut Vec<u8>) {
        start_frame(frame, encoded_len(|len| self.encode_into(len)));
        self.encode_into(frame);
    }

    /// Appends the serialized response to `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        match self {
            WireResponse::Ack => buf.put_u8(0),
            WireResponse::Blocks(blocks) => {
                buf.put_u8(2);
                buf.put_u32_le(blocks.len() as u32);
                for (v, data) in blocks.iter() {
                    buf.put_u64_le(v.as_u64());
                    put_data(buf, data);
                }
            }
            WireResponse::Data(data) => {
                buf.put_u8(3);
                put_data(buf, data);
            }
            WireResponse::Vector(vv) => {
                buf.put_u8(4);
                put_vv(buf, vv);
            }
            WireResponse::Payload(blocks) => {
                buf.put_u8(5);
                put_blocks(buf, blocks.iter().map(|(k, v, data)| (*k, *v, data)));
            }
            WireResponse::W(w) => {
                buf.put_u8(6);
                put_sites(buf, w.iter());
            }
            WireResponse::Count(n) => {
                buf.put_u8(7);
                buf.put_u64_le(*n);
            }
            WireResponse::Versions(vs) => {
                buf.put_u8(8);
                put_u64s(buf, vs.iter().map(|v| v.as_u64()));
            }
            WireResponse::DataMany(ds) => {
                buf.put_u8(9);
                buf.put_u32_le(ds.len() as u32);
                for d in ds.iter() {
                    put_data(buf, d);
                }
            }
        }
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, trailing garbage, or an unknown tag.
    pub fn decode(mut raw: &[u8]) -> Result<WireResponse, DecodeError> {
        need(raw, 1, "response tag")?;
        let tag = raw.get_u8();
        let response = match tag {
            0 => WireResponse::Ack,
            2 => WireResponse::Blocks(
                get_run(&mut raw, |raw| {
                    need(raw, 8, "version")?;
                    Ok((VersionNumber::new(raw.get_u64_le()), get_data(raw)?))
                })?
                .into(),
            ),
            3 => WireResponse::Data(get_data(&mut raw)?),
            4 => WireResponse::Vector(get_vv(&mut raw)?),
            5 => WireResponse::Payload(BlockRun::get(&mut raw)?.blocks()),
            6 => WireResponse::W(get_sites(&mut raw)?),
            7 => {
                need(raw, 8, "count")?;
                WireResponse::Count(raw.get_u64_le())
            }
            8 => WireResponse::Versions(get_u64s(&mut raw, VersionNumber::new)?.into()),
            9 => WireResponse::DataMany(get_run(&mut raw, get_data)?.into()),
            other => return Err(bad(&format!("unknown response tag {other}"))),
        };
        if raw.has_remaining() {
            return Err(bad("trailing bytes after response"));
        }
        Ok(response)
    }
}

/// Bytes of length prefix in front of every frame's payload.
const PREFIX: usize = 4;

/// A connection's read buffer starts at this size.
const READ_CHUNK: usize = 8 * 1024;

/// A buffer that grew past this is released once the frame that grew it is
/// handled, not pinned for the life of its connection or thread.
const KEEP_BUFFER: usize = 1024 * 1024;

thread_local! {
    /// The buffer a thread frames its requests in ([`Request::framed`]).
    static FRAME: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// A trace envelope, if there are `ids` for one: its tag, the trace id and
/// the span the remote work is parented under.
fn put_envelope(buf: &mut impl BufMut, ids: Option<[u64; 2]>) {
    if let Some([trace_id, parent_span]) = ids {
        buf.put_u8(17);
        buf.put_u64_le(trace_id);
        buf.put_u64_le(parent_span);
    }
}

/// A [`BufMut`] that only counts: the exact size of a message is whatever
/// its own encoder says it is.
struct Len(usize);

/// The exact number of bytes `encode` appends.
fn encoded_len(encode: impl FnOnce(&mut Len)) -> usize {
    let mut len = Len(0);
    encode(&mut len);
    len.0
}

impl BufMut for Len {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// Empties `frame` and starts a new one in it: the whole frame's room
/// reserved at once and the length prefix first, so the finished buffer
/// goes out in a single write.
fn start_frame(frame: &mut Vec<u8>, payload_len: usize) {
    frame.clear();
    frame.reserve(PREFIX + payload_len);
    frame.put_u32_le(payload_len as u32);
}

/// Rewrites in place the ids of the envelope heading a framed request — a
/// [`WireRequest::Traced`]'s trace id and parent span — so one encoded
/// frame serves every target of a scatter.
pub(crate) fn set_envelope_ids(frame: &mut [u8], ids: [u64; 2]) {
    put_envelope(&mut &mut frame[PREFIX..], Some(ids));
}

/// Sends one frame — prefix and payload, as `Request::framed` or
/// [`WireResponse::frame_into`] built it — with a single write.
///
/// # Errors
///
/// I/O errors from the writer, or `InvalidInput` for an oversized frame.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    if frame.len().saturating_sub(PREFIX) > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(frame)?;
    w.flush()
}

/// The read half of a connection: the stream plus the one buffer every
/// frame on it arrives through. A read takes whatever the stream has, so a
/// small frame costs one `read`, and what came in behind it waits here.
/// The buffer lives and dies with the stream — a torn connection drops
/// both, so nothing stale survives a reconnect.
#[derive(Debug)]
pub struct FrameReader<R> {
    stream: R,
    /// Zero-filled once, as it grows; `..filled` has arrived and is unread.
    buf: Vec<u8>,
    filled: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `stream` with an empty buffer.
    pub fn new(stream: R) -> Self {
        FrameReader {
            stream,
            buf: Vec::new(),
            filled: 0,
        }
    }

    /// The stream itself, for the write half of the conversation.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.stream
    }

    /// Reads until `need` bytes are buffered. The buffer grows only when it
    /// is full of bytes that did arrive, so a length prefix commits no
    /// memory on its own word.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        while self.filled < need {
            if self.filled == self.buf.len() {
                self.buf.resize((2 * self.buf.len()).max(READ_CHUNK), 0);
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads one length-prefixed frame and hands its payload to `decode`.
    ///
    /// # Errors
    ///
    /// I/O errors from the stream (including clean EOF as `UnexpectedEof`),
    /// or `InvalidData` for an oversized length prefix or a payload
    /// `decode` rejects.
    pub fn read_frame<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
    ) -> io::Result<T> {
        self.fill(PREFIX)?;
        let len = (&self.buf[..]).get_u32_le();
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame too large",
            ));
        }
        let len = PREFIX + len as usize;
        self.fill(len)?;
        let decoded = decode(&self.buf[PREFIX..len]);
        // What came in behind this frame moves to the front.
        if self.buf.len() > KEEP_BUFFER {
            self.buf = self.buf[len..self.filled].to_vec();
        } else {
            self.buf.copy_within(len..self.filled, 0);
        }
        self.filled -= len;
        decoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_data() -> impl Strategy<Value = BlockData> {
        prop::collection::vec(any::<u8>(), 0..256).prop_map(BlockData::from)
    }

    fn arb_vv() -> impl Strategy<Value = VersionVector> {
        prop::collection::vec(any::<u32>(), 0..16).prop_map(|vs| {
            vs.into_iter()
                .map(|v| VersionNumber::new(v as u64))
                .collect()
        })
    }

    /// A set of sites, in ascending order.
    fn arb_sites() -> impl Strategy<Value = Vec<SiteId>> {
        prop::collection::btree_set((0u32..32).prop_map(SiteId::new), 0..8)
            .prop_map(|w| w.into_iter().collect())
    }

    fn arb_keys() -> impl Strategy<Value = Vec<BlockIndex>> {
        prop::collection::vec(any::<u16>().prop_map(|k| BlockIndex::new(k as u64)), 0..8)
    }

    fn arb_blocks() -> impl Strategy<Value = RepairBlocks> {
        prop::collection::vec(
            (any::<u16>(), any::<u32>(), arb_data())
                .prop_map(|(k, v, d)| (BlockIndex::new(k as u64), VersionNumber::new(v as u64), d)),
            0..8,
        )
    }

    fn arb_plain_request() -> impl Strategy<Value = WireRequest> {
        prop_oneof![
            Just(WireRequest::Probe),
            arb_keys().prop_map(WireRequest::FetchMany),
            (any::<u16>(), any::<u32>(), arb_data()).prop_map(|(k, v, d)| WireRequest::ApplyWrite(
                BlockIndex::new(k as u64),
                VersionNumber::new(v as u64),
                d
            )),
            Just(WireRequest::VersionVector),
            arb_vv().prop_map(WireRequest::RepairPayload),
            arb_blocks().prop_map(WireRequest::ApplyRepair),
            Just(WireRequest::GetW),
            arb_sites().prop_map(WireRequest::SetW),
            (0u32..32).prop_map(|s| WireRequest::AddW(SiteId::new(s))),
            (any::<u16>(), any::<u32>(), arb_data(), arb_fault()).prop_map(|(k, v, d, f)| {
                WireRequest::ApplyWriteFaulty(
                    BlockIndex::new(k as u64),
                    VersionNumber::new(v as u64),
                    d,
                    f,
                )
            }),
            Just(WireRequest::Scrub),
            arb_keys().prop_map(WireRequest::VoteMany),
            arb_blocks().prop_map(|b| WireRequest::ApplyWriteMany(b.into_iter().collect())),
            arb_keys().prop_map(WireRequest::ReadLocalMany),
        ]
    }

    fn arb_request() -> impl Strategy<Value = WireRequest> {
        prop_oneof![
            3 => arb_plain_request(),
            1 => (any::<u64>(), any::<u64>(), arb_plain_request()).prop_map(
                |(trace_id, parent_span, inner)| WireRequest::Traced {
                    trace_id,
                    parent_span,
                    inner: Box::new(inner),
                }
            ),
        ]
    }

    fn arb_fault() -> impl Strategy<Value = StorageFault> {
        prop_oneof![
            (0usize..512).prop_map(|keep| StorageFault::Torn { keep }),
            Just(StorageFault::StaleVersion),
            (0usize..512).prop_map(|keep| StorageFault::WalTorn { keep }),
        ]
    }

    fn arb_response() -> impl Strategy<Value = WireResponse> {
        prop_oneof![
            Just(WireResponse::Ack),
            prop::collection::vec((any::<u32>(), arb_data()), 0..8).prop_map(|bs| {
                WireResponse::Blocks(
                    bs.into_iter()
                        .map(|(v, d)| (VersionNumber::new(v as u64), d))
                        .collect(),
                )
            }),
            arb_data().prop_map(WireResponse::Data),
            arb_vv().prop_map(WireResponse::Vector),
            arb_blocks().prop_map(WireResponse::Payload),
            arb_sites().prop_map(WireResponse::W),
            any::<u64>().prop_map(WireResponse::Count),
            prop::collection::vec(any::<u32>(), 0..8).prop_map(|vs| WireResponse::Versions(
                vs.into_iter()
                    .map(|v| VersionNumber::new(v as u64))
                    .collect()
            )),
            prop::collection::vec(arb_data(), 0..8)
                .prop_map(|ds| WireResponse::DataMany(ds.into())),
        ]
    }

    proptest! {
        /// A request's borrowed view stands for it: copied back, it is the
        /// request again (an envelope, the request it carries).
        #[test]
        fn a_borrowed_request_copies_back_to_itself(req in arb_request()) {
            let bare = match &req {
                WireRequest::Traced { inner, .. } => (**inner).clone(),
                _ => req.clone(),
            };
            prop_assert_eq!(WireRequest::from(req.as_request()), bare);
        }

        #[test]
        fn request_roundtrip(req in arb_request()) {
            let encoded = req.encode();
            prop_assert_eq!(WireRequest::decode(&encoded).unwrap(), req);
        }

        #[test]
        fn response_roundtrip(resp in arb_response()) {
            let encoded = resp.encode();
            prop_assert_eq!(WireResponse::decode(&encoded).unwrap(), resp);
        }

        #[test]
        fn truncated_frames_never_panic(req in arb_request(), cut in 0usize..64) {
            let encoded = req.encode();
            if cut < encoded.len() {
                // Any prefix must error or decode to something — never panic.
                let _ = WireRequest::decode(&encoded[..cut]);
            }
        }

        #[test]
        fn random_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..128)) {
            let _ = WireRequest::decode(&raw);
            let _ = WireResponse::decode(&raw);
        }
    }

    /// Tags no request uses, 18 among them, decode as unknown, whatever
    /// follows them.
    #[test]
    fn unused_request_tags_decode_as_unknown() {
        for tag in [1u8, 4, 11, 18, 19, 255] {
            let mut raw = vec![tag];
            raw.put_u64_le(7);
            let err = WireRequest::decode(&raw).unwrap_err();
            assert_eq!(err.0, format!("unknown request tag {tag}"));
        }
    }

    /// A frame holding `payload`, laid out as `start_frame` does it.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        start_frame(&mut frame, payload.len());
        frame.put_slice(payload);
        frame
    }

    fn payload(raw: &[u8]) -> Result<Vec<u8>, DecodeError> {
        Ok(raw.to_vec())
    }

    /// Counts the calls that reach the stream underneath, and hands a read
    /// at most `chunk` bytes.
    struct Calls<S> {
        inner: S,
        calls: usize,
        chunk: usize,
    }

    impl<S> Calls<S> {
        fn new(inner: S) -> Self {
            Calls {
                inner,
                calls: 0,
                chunk: usize::MAX,
            }
        }
    }

    impl<S: Write> Write for Calls<S> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl<S: Read> Read for Calls<S> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let take = buf.len().min(self.chunk);
            self.inner.read(&mut buf[..take])
        }
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &framed(b"hello")).unwrap();
        write_frame(&mut buf, &framed(b"")).unwrap();
        let mut reader = FrameReader::new(&buf[..]);
        assert_eq!(reader.read_frame(payload).unwrap(), b"hello");
        assert_eq!(reader.read_frame(payload).unwrap(), b"");
        assert_eq!(
            reader.read_frame(payload).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "clean EOF surfaces as error"
        );
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let err = FrameReader::new(&huge[..]).read_frame(payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Zero pages that are never touched: the check precedes the write.
        let huge = vec![0u8; PREFIX + MAX_FRAME as usize + 1];
        let err = write_frame(&mut io::sink(), &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_frame_is_one_write_and_a_small_frame_is_one_read() {
        let batch = WireRequest::ApplyWriteMany(
            (0..64)
                .map(|k| {
                    let data = BlockData::from(vec![k as u8; 1024]);
                    (BlockIndex::new(k), VersionNumber::new(2), data)
                })
                .collect(),
        );
        let mut ack = Vec::new();
        WireResponse::Ack.frame_into(&mut ack);
        assert_eq!(ack, [1, 0, 0, 0, 0], "prefix, then the tag");

        let mut sent = Calls::new(Vec::new());
        write_frame(&mut sent, &batch.to_frame()).unwrap();
        assert_eq!(sent.calls, 1, "a 66 KiB frame goes out in one write");
        write_frame(&mut sent, &ack).unwrap();
        assert_eq!(sent.calls, 2);

        let mut reader = FrameReader::new(Calls::new(&ack[..]));
        assert_eq!(
            reader.read_frame(WireResponse::decode).unwrap(),
            WireResponse::Ack
        );
        assert_eq!(reader.get_mut().calls, 1, "prefix and tag in one read");

        // Both frames back to back, as a pipelining peer would see them.
        let mut reader = FrameReader::new(&sent.inner[..]);
        assert_eq!(reader.read_frame(WireRequest::decode).unwrap(), batch);
        assert_eq!(
            reader.read_frame(WireResponse::decode).unwrap(),
            WireResponse::Ack
        );
    }

    #[test]
    fn a_length_prefix_commits_no_memory_on_its_own_word() {
        // A peer claims the largest legal frame, sends three bytes of it
        // and hangs up.
        let mut lie = MAX_FRAME.to_le_bytes().to_vec();
        lie.extend_from_slice(&[1, 2, 3]);
        let mut reader = FrameReader::new(&lie[..]);
        let err = reader.read_frame(payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(reader.buf.len(), READ_CHUNK);
    }

    #[test]
    fn a_buffer_that_grew_large_is_released_with_its_tail_kept() {
        let big = vec![7u8; KEEP_BUFFER + 1];
        let mut stream = framed(&big);
        stream.extend_from_slice(&framed(b"next"));
        let mut reader = FrameReader::new(&stream[..]);
        assert_eq!(reader.read_frame(payload).unwrap(), big);
        assert!(
            reader.buf.len() <= PREFIX + 4,
            "kept {} bytes after a {} byte frame",
            reader.buf.len(),
            big.len()
        );
        assert_eq!(reader.read_frame(payload).unwrap(), b"next");
        assert!(reader.buf.len() <= READ_CHUNK);
    }

    #[test]
    fn decode_errors_surface_as_invalid_data_and_leave_the_stream_in_step() {
        let mut stream = framed(&[0xFF]);
        stream.extend_from_slice(&WireRequest::Probe.to_frame());
        let mut reader = FrameReader::new(&stream[..]);
        let err = reader.read_frame(WireRequest::decode).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            reader.read_frame(WireRequest::decode).unwrap(),
            WireRequest::Probe
        );
    }

    proptest! {
        #[test]
        fn encode_into_appends_exactly_encode(
            req in arb_request(),
            resp in arb_response(),
            head in prop::collection::vec(any::<u8>(), 0..32),
        ) {
            let mut buf = head.clone();
            req.encode_into(&mut buf);
            prop_assert_eq!(&buf[..head.len()], &head[..]);
            prop_assert_eq!(&buf[head.len()..], &req.encode()[..]);
            prop_assert_eq!(encoded_len(|len| req.encode_into(len)), req.encode().len());
            prop_assert_eq!(&req.to_frame()[..], &framed(&req.encode())[..]);

            let mut buf = head.clone();
            resp.encode_into(&mut buf);
            prop_assert_eq!(&buf[head.len()..], &resp.encode()[..]);
            prop_assert_eq!(encoded_len(|len| resp.encode_into(len)), resp.encode().len());
            // `frame_into` replaces whatever the reused buffer held.
            resp.frame_into(&mut buf);
            prop_assert_eq!(&buf[..], &framed(&resp.encode())[..]);
        }

        #[test]
        fn envelope_ids_are_rewritten_in_place(
            inner in arb_plain_request(),
            ids in (any::<u64>(), any::<u64>()),
        ) {
            let (trace_id, parent_span) = ids;
            let boxed = || Box::new(inner.clone());
            let mut frame = WireRequest::Traced { trace_id: 0, parent_span: 0, inner: boxed() }
                .to_frame();
            set_envelope_ids(&mut frame, [trace_id, parent_span]);
            let traced = WireRequest::Traced { trace_id, parent_span, inner: boxed() };
            prop_assert_eq!(&frame, &traced.to_frame());
        }

        /// What a socket is sent — the borrowed view, framed in its
        /// thread's buffer — is the owned request's frame byte for byte:
        /// bare, and in one envelope. Nested envelopes, which only an owned
        /// request can hold, encode one 17-byte envelope per layer ahead of
        /// the frame's payload.
        #[test]
        fn the_socket_frame_is_the_owned_requests_frame(
            req in arb_plain_request(),
            ids in (any::<u64>(), any::<u64>()),
            outer in (any::<u64>(), any::<u64>()),
        ) {
            let (ids, outer) = ([ids.0, ids.1], [outer.0, outer.1]);
            let sent = |ids| req.as_request().framed(ids, |frame| frame.to_vec());
            prop_assert_eq!(sent(None), req.to_frame());
            let traced = |[trace_id, parent_span]: [u64; 2], inner| WireRequest::Traced {
                trace_id,
                parent_span,
                inner: Box::new(inner),
            };
            let once = traced(ids, req.clone());
            prop_assert_eq!(&sent(Some(ids)), &once.to_frame());
            prop_assert_eq!(&sent(Some(ids))[PREFIX..], &once.encode()[..]);
            let mut twice = Vec::new();
            put_envelope(&mut twice, Some(outer));
            twice.extend_from_slice(&once.encode());
            prop_assert_eq!(&traced(outer, once.clone()).encode(), &twice);
            prop_assert_eq!(&traced(outer, once).to_frame(), &framed(&twice));
        }

        #[test]
        fn frames_survive_any_chunking_of_the_stream(
            requests in prop::collection::vec(arb_request(), 1..6),
            sizes in prop::collection::vec(0usize..20_000, 1..6),
            chunk in 1usize..12_000,
        ) {
            // Pad some frames past the first buffer size so the reader has
            // to grow, and to move a partial frame to the front.
            let frames: Vec<Vec<u8>> = sizes
                .iter()
                .map(|&n| framed(&vec![0xA5; n]))
                .chain(requests.iter().map(WireRequest::to_frame))
                .collect();
            let stream = frames.concat();
            let mut reader = FrameReader::new(Calls { chunk, ..Calls::new(&stream[..]) });
            for frame in &frames {
                prop_assert_eq!(&reader.read_frame(payload).unwrap()[..], &frame[PREFIX..]);
            }
            prop_assert!(reader.read_frame(payload).is_err());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = WireRequest::Probe.encode();
        encoded.push(0xFF);
        assert!(WireRequest::decode(&encoded).is_err());
    }

    #[test]
    fn traced_envelope_roundtrips_and_rejects_nesting() {
        let inner = WireRequest::FetchMany(vec![BlockIndex::new(7)]);
        let traced = WireRequest::Traced {
            trace_id: u64::MAX,
            parent_span: 42,
            inner: Box::new(inner.clone()),
        };
        let encoded = traced.encode();
        assert_eq!(WireRequest::decode(&encoded).unwrap(), traced);

        // A traced frame is exactly 17 bytes of envelope plus the inner
        // frame — an untraced peer reads tag 17 and rejects it cleanly.
        assert_eq!(encoded.len(), 17 + inner.encode().len());
        assert_eq!(encoded[0], 17);

        let nested = WireRequest::Traced {
            trace_id: 1,
            parent_span: 2,
            inner: Box::new(traced),
        };
        let err = WireRequest::decode(&nested.encode()).unwrap_err();
        assert!(err.0.contains("nested"), "unexpected error: {err}");

        // Trailing garbage after the inner frame is still rejected.
        let mut trailing = encoded;
        trailing.push(0xAB);
        assert!(WireRequest::decode(&trailing).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The format, byte for byte. Most of these strings were generated
    /// *before* the encoder moved to `encode_into`; the run fetch's two
    /// tags were written out by hand from the layout when the fetch became
    /// a run; the site sets' show that a `W` crosses as a `SetW` does. A
    /// change to any of them is a wire-format change.
    #[test]
    fn golden_bytes_pin_the_format() {
        let ks = vec![BlockIndex::new(3), BlockIndex::new(0x0102_0304_0506_0708)];
        let blocks: WriteBatch = [
            (
                BlockIndex::new(5),
                VersionNumber::new(9),
                BlockData::from(vec![0xAA, 0xBB, 0xCC]),
            ),
            (
                BlockIndex::new(6),
                VersionNumber::new(1),
                BlockData::from(vec![]),
            ),
        ]
        .into_iter()
        .collect();
        let write_many = "0f020000000500000000000000090000000000000003000000aabbcc\
                          0600000000000000010000000000000000000000";
        let requests = [
            (
                WireRequest::VoteMany(ks.clone()),
                "0e0200000003000000000000000807060504030201".to_string(),
            ),
            (
                WireRequest::ApplyWriteMany(blocks.clone()),
                write_many.to_string(),
            ),
            (
                WireRequest::ReadLocalMany(ks.clone()),
                "100200000003000000000000000807060504030201".to_string(),
            ),
            (
                WireRequest::FetchMany(ks),
                "020200000003000000000000000807060504030201".to_string(),
            ),
            (
                WireRequest::SetW(vec![SiteId::new(0), SiteId::new(2)]),
                "09020000000000000002000000".to_string(),
            ),
            (
                WireRequest::Traced {
                    trace_id: 0x1122_3344_5566_7788,
                    parent_span: 42,
                    inner: Box::new(WireRequest::ApplyWriteMany(blocks)),
                },
                format!("1188776655443322112a00000000000000{write_many}"),
            ),
        ];
        for (request, golden) in requests {
            assert_eq!(hex(&request.encode()), golden, "{request:?}");
        }
        let responses = [
            (
                WireResponse::Versions(
                    vec![VersionNumber::new(7), VersionNumber::new(0x1_0000_0000)].into(),
                ),
                "080200000007000000000000000000000001000000",
            ),
            (
                WireResponse::DataMany(
                    vec![
                        BlockData::from(vec![1, 2]),
                        BlockData::from(vec![]),
                        BlockData::from(vec![0xFF]),
                    ]
                    .into(),
                ),
                "09030000000200000001020000000001000000ff",
            ),
            (
                WireResponse::Blocks(
                    vec![
                        (VersionNumber::new(7), BlockData::from(vec![1, 2])),
                        (VersionNumber::new(1), BlockData::from(vec![])),
                    ]
                    .into(),
                ),
                "020200000007000000000000000200000001020100000000000000\
                 00000000",
            ),
            (
                WireResponse::W(vec![SiteId::new(0), SiteId::new(2)]),
                "06020000000000000002000000",
            ),
        ];
        for (response, golden) in responses {
            assert_eq!(hex(&response.encode()), golden, "{response:?}");
        }
    }

    /// A sealed install in process crosses a thread or a socket as the
    /// plain install it stands for: same frame, no sum on the wire.
    #[test]
    fn a_sealed_install_crosses_as_the_plain_one() {
        let (k, v, data) = (
            BlockIndex::new(7),
            VersionNumber::new(3),
            BlockData::from(vec![9; 5]),
        );
        let sealed = [(k, SealedBlock::new(v, data.clone()))];
        let plain = WireRequest::ApplyWriteMany([(k, v, data)].into_iter().collect());
        let crossed = WireRequest::from(Request::ApplyWriteMany(Batch::Sealed(&sealed)));
        assert_eq!(crossed, plain);
        assert_eq!(crossed.to_frame(), plain.to_frame());
        let sent =
            Request::ApplyWriteMany(Batch::Sealed(&sealed)).framed(None, |frame| frame.to_vec());
        assert_eq!(sent, plain.to_frame());
    }

    /// A thread frames every request in one buffer, and lets it go once a
    /// frame has grown it past `KEEP_BUFFER`: a repair request carries 8
    /// bytes per block.
    #[test]
    fn a_thread_reuses_its_request_buffer_unless_it_grew_large() {
        let ks = [BlockIndex::new(3); 16];
        let vote = Request::VoteMany(&ks);
        let at = vote.framed(Some([1, 2]), |frame| frame.as_ptr());
        assert_eq!(vote.framed(None, |frame| frame.as_ptr()), at);
        let vv = VersionVector::new(KEEP_BUFFER as u64 / 8);
        let len = Request::RepairPayload(&vv).framed(None, |frame| frame.len());
        assert!(len > KEEP_BUFFER);
        assert_eq!(FRAME.take().capacity(), 0, "the large buffer was kept");
        assert_eq!(
            vote.framed(None, |frame| frame.to_vec()),
            WireRequest::VoteMany(ks.to_vec()).to_frame()
        );
    }
}
