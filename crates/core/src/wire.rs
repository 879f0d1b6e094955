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
//! process — by the deterministic cluster, or by a coordinator on its own
//! site — copies nothing, and a sealed block keeps its seal. A request is
//! made a `WireRequest` only where it crosses a thread or a socket.

use crate::backend::{BlockVec, RepairBlocks, WriteBatch};
use blockrep_storage::{SealedBlock, StorageFault};
use blockrep_types::{BlockData, BlockIndex, SiteId, VersionNumber, VersionVector};
use bytes::{Buf, BufMut};
use std::collections::BTreeSet;
use std::io::{self, Read, Write};

/// Upper bound on a frame, to fail fast on corrupt length prefixes.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A request to a site's server process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Liveness probe.
    Probe,
    /// Fetch a block with its version.
    Fetch(BlockIndex),
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
    /// blocks' seals do not travel, and a decoded batch is sealed afresh.
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
    /// Fetch a block with its version to serve a read lease. Same payload
    /// and reply shape as [`WireRequest::Fetch`], but a distinct tag so the
    /// chaos suite can fault lease validation without touching quorum
    /// reads.
    FetchLease(BlockIndex),
}

/// A request as its sender holds it: the [`WireRequest`] vocabulary with
/// every payload borrowed, so it is `Copy` and serving it copies nothing.
/// An install in process keeps the seals its write computed; made a
/// `WireRequest` it crosses without them, since no frame carries a sum.
/// A trace envelope is not among them: a site opens one it took whole
/// before it borrows the request inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request<'a> {
    Probe,
    Fetch(BlockIndex),
    FetchLease(BlockIndex),
    ReadLocalMany(&'a [BlockIndex]),
    VoteMany(&'a [BlockIndex]),
    VersionVector,
    RepairPayload(&'a VersionVector),
    ApplyWrite(BlockIndex, VersionNumber, &'a BlockData),
    /// Install blocks sealed where their write chose the versions: the
    /// replica stores each seal's sum.
    ApplyWriteMany(&'a [(BlockIndex, SealedBlock)]),
    ApplyWriteFaulty(BlockIndex, VersionNumber, &'a BlockData, StorageFault),
    ApplyRepair(&'a [(BlockIndex, VersionNumber, BlockData)]),
    Scrub,
    GetW,
    SetW(&'a [SiteId]),
    AddW(SiteId),
}

impl WireRequest {
    /// The request, borrowed; an envelope as the request it carries.
    pub(crate) fn as_request(&self) -> Request<'_> {
        match self {
            WireRequest::Probe => Request::Probe,
            WireRequest::Fetch(k) => Request::Fetch(*k),
            WireRequest::FetchLease(k) => Request::FetchLease(*k),
            WireRequest::ReadLocalMany(ks) => Request::ReadLocalMany(ks),
            WireRequest::VoteMany(ks) => Request::VoteMany(ks),
            WireRequest::VersionVector => Request::VersionVector,
            WireRequest::RepairPayload(vv) => Request::RepairPayload(vv),
            WireRequest::ApplyWrite(k, v, data) => Request::ApplyWrite(*k, *v, data),
            WireRequest::ApplyWriteMany(blocks) => Request::ApplyWriteMany(blocks),
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
    /// The request as it crosses a thread or a socket: every payload
    /// copied (a block's payload shared, not copied).
    fn from(request: Request<'_>) -> Self {
        match request {
            Request::Probe => WireRequest::Probe,
            Request::Fetch(k) => WireRequest::Fetch(k),
            Request::FetchLease(k) => WireRequest::FetchLease(k),
            Request::ReadLocalMany(ks) => WireRequest::ReadLocalMany(ks.to_vec()),
            Request::VoteMany(ks) => WireRequest::VoteMany(ks.to_vec()),
            Request::VersionVector => WireRequest::VersionVector,
            Request::RepairPayload(vv) => WireRequest::RepairPayload(vv.clone()),
            Request::ApplyWrite(k, v, data) => WireRequest::ApplyWrite(k, v, data.clone()),
            Request::ApplyWriteMany(blocks) => WireRequest::ApplyWriteMany(blocks.into()),
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
    /// A block with its version.
    Block(VersionNumber, BlockData),
    /// Raw block data.
    // Kept only because `benchmark/src/ladder.rs` builds it to time the
    // codec: no site answers with it (a single-block read is a batch of
    // one). It goes when the ladder moves to the batch tag.
    Data(BlockData),
    /// A version vector.
    Vector(VersionVector),
    /// A repair payload.
    Payload(VersionVector, RepairBlocks),
    /// A was-available set.
    W(BTreeSet<SiteId>),
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
    if raw.len() < bytes {
        Err(bad(what))
    } else {
        Ok(())
    }
}

fn put_data(buf: &mut impl BufMut, data: &BlockData) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data.as_slice());
}

/// The one copy a block makes on its way in: from the frame straight into
/// the allocation it rests in. (Not a slice *of* the frame: one stored
/// block would pin the whole batch's buffer for as long as it is current.)
fn get_data(raw: &mut &[u8]) -> Result<BlockData, DecodeError> {
    need(raw, 4, "data length")?;
    let len = raw.get_u32_le() as usize;
    need(raw, len, "data body")?;
    let data = BlockData::from(&raw[..len]);
    raw.advance(len);
    Ok(data)
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

fn put_repair(buf: &mut impl BufMut, blocks: &RepairBlocks) {
    put_blocks(buf, blocks.iter().map(|(k, v, data)| (*k, *v, data)));
}

/// Reads what [`put_blocks`] wrote, making each block into a `T`.
fn get_blocks<T>(
    raw: &mut &[u8],
    make: impl Fn(BlockIndex, VersionNumber, BlockData) -> T,
) -> Result<Vec<T>, DecodeError> {
    need(raw, 4, "block count")?;
    let count = raw.get_u32_le() as usize;
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        need(raw, 16, "block header")?;
        let k = BlockIndex::new(raw.get_u64_le());
        let v = VersionNumber::new(raw.get_u64_le());
        out.push(make(k, v, get_data(raw)?));
    }
    Ok(out)
}

fn get_repair(raw: &mut &[u8]) -> Result<RepairBlocks, DecodeError> {
    get_blocks(raw, |k, v, data| (k, v, data))
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

fn get_sites(raw: &mut &[u8]) -> Result<BTreeSet<SiteId>, DecodeError> {
    need(raw, 4, "site count")?;
    let count = raw.get_u32_le() as usize;
    need(
        raw,
        count.checked_mul(4).ok_or_else(|| bad("site overflow"))?,
        "site body",
    )?;
    Ok((0..count).map(|_| SiteId::new(raw.get_u32_le())).collect())
}

impl WireRequest {
    /// Serializes the request into a buffer of exactly its size.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// The exact number of bytes [`encode_into`](Self::encode_into) appends.
    fn encoded_len(&self) -> usize {
        let mut len = Len(0);
        self.encode_into(&mut len);
        len.0
    }

    /// The request as one whole frame — length prefix, then payload — in a
    /// buffer allocated once at its final size.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        start_frame(&mut frame, self.encoded_len());
        self.encode_into(&mut frame);
        frame
    }

    /// Appends the serialized request to `buf`. An envelope writes its own
    /// few bytes and then its inner request into the same buffer.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        match self {
            WireRequest::Probe => buf.put_u8(0),
            WireRequest::Fetch(k) => {
                buf.put_u8(2);
                buf.put_u64_le(k.as_u64());
            }
            WireRequest::ApplyWrite(k, v, data) => {
                buf.put_u8(3);
                buf.put_u64_le(k.as_u64());
                buf.put_u64_le(v.as_u64());
                put_data(buf, data);
            }
            WireRequest::VersionVector => buf.put_u8(5),
            WireRequest::RepairPayload(vv) => {
                buf.put_u8(6);
                put_vv(buf, vv);
            }
            WireRequest::ApplyRepair(blocks) => {
                buf.put_u8(7);
                put_repair(buf, blocks);
            }
            WireRequest::GetW => buf.put_u8(8),
            WireRequest::SetW(w) => {
                buf.put_u8(9);
                put_sites(buf, w.iter());
            }
            WireRequest::AddW(s) => {
                buf.put_u8(10);
                buf.put_u32_le(s.as_u32());
            }
            WireRequest::ApplyWriteFaulty(k, v, data, fault) => {
                buf.put_u8(12);
                buf.put_u64_le(k.as_u64());
                buf.put_u64_le(v.as_u64());
                put_data(buf, data);
                match fault {
                    StorageFault::Torn { keep } => {
                        buf.put_u8(0);
                        buf.put_u64_le(*keep as u64);
                    }
                    StorageFault::StaleVersion => buf.put_u8(1),
                    StorageFault::WalTorn { keep } => {
                        buf.put_u8(2);
                        buf.put_u64_le(*keep as u64);
                    }
                }
            }
            WireRequest::Scrub => buf.put_u8(13),
            WireRequest::VoteMany(ks) => {
                buf.put_u8(14);
                put_u64s(buf, ks.iter().map(|k| k.as_u64()));
            }
            WireRequest::ApplyWriteMany(batch) => {
                buf.put_u8(15);
                put_blocks(buf, batch.iter().map(|(k, b)| (*k, b.version(), b.data())));
            }
            WireRequest::ReadLocalMany(ks) => {
                buf.put_u8(16);
                put_u64s(buf, ks.iter().map(|k| k.as_u64()));
            }
            WireRequest::Traced {
                trace_id,
                parent_span,
                inner,
            } => {
                buf.put_u8(17);
                buf.put_u64_le(*trace_id);
                buf.put_u64_le(*parent_span);
                inner.encode_into(buf);
            }
            WireRequest::FetchLease(k) => {
                buf.put_u8(18);
                buf.put_u64_le(k.as_u64());
            }
        }
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
            2 => {
                need(raw, 8, "block index")?;
                WireRequest::Fetch(BlockIndex::new(raw.get_u64_le()))
            }
            3 => {
                need(raw, 16, "write header")?;
                let k = BlockIndex::new(raw.get_u64_le());
                let v = VersionNumber::new(raw.get_u64_le());
                WireRequest::ApplyWrite(k, v, get_data(&mut raw)?)
            }
            5 => WireRequest::VersionVector,
            6 => WireRequest::RepairPayload(get_vv(&mut raw)?),
            7 => WireRequest::ApplyRepair(get_repair(&mut raw)?),
            8 => WireRequest::GetW,
            9 => WireRequest::SetW(get_sites(&mut raw)?.into_iter().collect()),
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
            15 => WireRequest::ApplyWriteMany(WriteBatch::from(get_blocks(
                &mut raw,
                |k, v, data| (k, SealedBlock::new(v, data)),
            )?)),
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
            18 => {
                need(raw, 8, "block index")?;
                WireRequest::FetchLease(BlockIndex::new(raw.get_u64_le()))
            }
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
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// The exact number of bytes [`encode_into`](Self::encode_into) appends.
    fn encoded_len(&self) -> usize {
        let mut len = Len(0);
        self.encode_into(&mut len);
        len.0
    }

    /// Replaces the contents of `frame` — a buffer its connection reuses —
    /// with the response as one whole frame: length prefix, then payload.
    pub fn frame_into(&self, frame: &mut Vec<u8>) {
        start_frame(frame, self.encoded_len());
        self.encode_into(frame);
    }

    /// Appends the serialized response to `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        match self {
            WireResponse::Ack => buf.put_u8(0),
            WireResponse::Block(v, data) => {
                buf.put_u8(2);
                buf.put_u64_le(v.as_u64());
                put_data(buf, data);
            }
            WireResponse::Data(data) => {
                buf.put_u8(3);
                put_data(buf, data);
            }
            WireResponse::Vector(vv) => {
                buf.put_u8(4);
                put_vv(buf, vv);
            }
            WireResponse::Payload(vv, blocks) => {
                buf.put_u8(5);
                put_vv(buf, vv);
                put_repair(buf, blocks);
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
            2 => {
                need(raw, 8, "version")?;
                let v = VersionNumber::new(raw.get_u64_le());
                WireResponse::Block(v, get_data(&mut raw)?)
            }
            3 => WireResponse::Data(get_data(&mut raw)?),
            4 => WireResponse::Vector(get_vv(&mut raw)?),
            5 => {
                let vv = get_vv(&mut raw)?;
                WireResponse::Payload(vv, get_repair(&mut raw)?)
            }
            6 => WireResponse::W(get_sites(&mut raw)?),
            7 => {
                need(raw, 8, "count")?;
                WireResponse::Count(raw.get_u64_le())
            }
            8 => WireResponse::Versions(get_u64s(&mut raw, VersionNumber::new)?.into()),
            9 => {
                need(raw, 4, "data count")?;
                let count = raw.get_u32_le() as usize;
                let mut out = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    out.push(get_data(&mut raw)?);
                }
                WireResponse::DataMany(out.into())
            }
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

/// A read buffer that grew past this is released once the frame that grew
/// it is handled, not pinned for the life of the connection.
const KEEP_BUFFER: usize = 1024 * 1024;

/// A [`BufMut`] that only counts: the exact size of a message is whatever
/// its own encoder says it is.
struct Len(usize);

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
pub(crate) fn set_envelope_ids(frame: &mut [u8], ids: &[u64]) {
    for (slot, id) in frame[PREFIX + 1..].chunks_exact_mut(8).zip(ids) {
        slot.copy_from_slice(&id.to_le_bytes());
    }
}

/// Sends one frame — prefix and payload, as [`WireRequest::to_frame`] or
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

    fn arb_sites() -> impl Strategy<Value = BTreeSet<SiteId>> {
        prop::collection::btree_set((0u32..32).prop_map(SiteId::new), 0..8)
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
            any::<u16>().prop_map(|k| WireRequest::Fetch(BlockIndex::new(k as u64))),
            (any::<u16>(), any::<u32>(), arb_data()).prop_map(|(k, v, d)| WireRequest::ApplyWrite(
                BlockIndex::new(k as u64),
                VersionNumber::new(v as u64),
                d
            )),
            Just(WireRequest::VersionVector),
            arb_vv().prop_map(WireRequest::RepairPayload),
            arb_blocks().prop_map(WireRequest::ApplyRepair),
            Just(WireRequest::GetW),
            arb_sites().prop_map(|w| WireRequest::SetW(w.into_iter().collect())),
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
            prop::collection::vec(any::<u16>(), 0..8).prop_map(|ks| WireRequest::VoteMany(
                ks.into_iter().map(|k| BlockIndex::new(k as u64)).collect()
            )),
            arb_blocks().prop_map(|b| WireRequest::ApplyWriteMany(b.into_iter().collect())),
            prop::collection::vec(any::<u16>(), 0..8).prop_map(|ks| WireRequest::ReadLocalMany(
                ks.into_iter().map(|k| BlockIndex::new(k as u64)).collect()
            )),
            any::<u16>().prop_map(|k| WireRequest::FetchLease(BlockIndex::new(k as u64))),
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
            (any::<u32>(), arb_data())
                .prop_map(|(v, d)| WireResponse::Block(VersionNumber::new(v as u64), d)),
            arb_data().prop_map(WireResponse::Data),
            arb_vv().prop_map(WireResponse::Vector),
            (arb_vv(), arb_blocks()).prop_map(|(vv, b)| WireResponse::Payload(vv, b)),
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
            prop_assert_eq!(req.encoded_len(), req.encode().len());
            prop_assert_eq!(&req.to_frame()[..], &framed(&req.encode())[..]);

            let mut buf = head.clone();
            resp.encode_into(&mut buf);
            prop_assert_eq!(&buf[head.len()..], &resp.encode()[..]);
            prop_assert_eq!(resp.encoded_len(), resp.encode().len());
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
            set_envelope_ids(&mut frame, &[trace_id, parent_span]);
            let traced = WireRequest::Traced { trace_id, parent_span, inner: boxed() };
            prop_assert_eq!(&frame, &traced.to_frame());
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
        let inner = WireRequest::Fetch(BlockIndex::new(7));
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

    /// The format as the parent commit produced it, byte for byte. These
    /// strings were generated *before* the encoder moved to `encode_into`;
    /// a change to any of them is a wire-format change.
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
                WireRequest::ReadLocalMany(ks),
                "100200000003000000000000000807060504030201".to_string(),
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
        let crossed = WireRequest::from(Request::ApplyWriteMany(&sealed));
        assert_eq!(crossed, plain);
        assert_eq!(crossed.to_frame(), plain.to_frame());
    }
}
