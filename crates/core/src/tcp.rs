//! The TCP cluster: server processes behind real sockets.
//!
//! The paper's deployment is "a set of server processes on several sites" of
//! a network. [`TcpCluster`] is that, minus the machine room: every site is
//! an OS thread serving its replica behind a loopback `TcpListener`, and
//! every protocol exchange between two sites is a length-prefixed
//! [`wire`](crate::wire) frame over a real socket — serialization, framing
//! and all. What a coordinator asks of its *own* site is not an exchange:
//! it is served on the coordinator's thread ([`Transport::local`]) under
//! the per-site replica mutex the site's thread also takes, per request.
//! Every exchange here is an acknowledged round trip, so nothing can be
//! queued ahead of a local leg and the mutex is the whole arrangement.
//! [`TcpTransport`] is
//! the socket [`Transport`]: the coordinator over it is the same
//! [`ServerCluster`] that runs over inboxes, and the threads behind the
//! listeners run the same [`serve`], so the three runtimes — deterministic,
//! channel-threaded, TCP — are interchangeable and must agree, which the
//! integration tests check.
//!
//! Fail-stop and partitions are enforced at the coordination layer, by the
//! link model every runtime shares (a failed or partitioned-away site is
//! not contacted), keeping failure injection deterministic; the site's
//! server keeps its socket and its disk, exactly like a halted machine
//! keeps both.

use crate::backend::{Coordinator, ScatterReplies, SiteVec};
use crate::replica::Replica;
use crate::service::serve;
use crate::transport::{Links, Scatter, ServerCluster, Transport, WINDOW};
use crate::wire::{self, WireRequest, WireResponse};
use blockrep_net::DeliveryMode;
use blockrep_obs::event;
use blockrep_obs::trace::start_phase;
use blockrep_types::{DeviceConfig, SiteId};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;

fn listen(replica: &Mutex<Replica>, listener: TcpListener, links: Links, site: u32) {
    // Single-coordinator design: one connection drives the replica at a
    // time, but the coordinator may replace it — after a torn frame it
    // drops the poisoned stream and reconnects — so connections are served
    // in sequence until a Shutdown frame arrives.
    while let Ok((conn, _)) = listener.accept() {
        // Request/response over one socket: Nagle + delayed ACK would add
        // ~40ms to every round trip.
        let _ = conn.set_nodelay(true);
        if serve_conn(replica, conn, &links, site) == Served::Shutdown {
            return;
        }
    }
}

/// Why [`serve_conn`] stopped serving a connection.
#[derive(PartialEq, Eq)]
enum Served {
    /// The coordinator hung up or sent garbage; await a reconnect.
    Hangup,
    /// A Shutdown frame arrived; the cluster is going down.
    Shutdown,
}

fn serve_conn(replica: &Mutex<Replica>, conn: TcpStream, links: &Links, site: u32) -> Served {
    // The connection's two buffers, reused from frame to frame.
    let mut conn = wire::FrameReader::new(conn);
    let mut reply = Vec::new();
    loop {
        let Ok(request) = conn.read_frame(WireRequest::decode) else {
            return Served::Hangup; // hung up, reconnected elsewhere, or corrupt
        };
        // Open the multiplexing envelope, if any; the id is echoed on the
        // reply so the coordinator's demux thread can route it.
        let (request, mux_id) = match request {
            WireRequest::Mux { id, inner } => (*inner, Some(id)),
            request => (request, None),
        };
        if matches!(request, WireRequest::Shutdown) {
            return Served::Shutdown;
        }
        // Emulated one-way link delay, outside the service's remote span:
        // transit time is the coordinator's gather wait, not this site's
        // apply work.
        links.delay();
        // Decode rejects nested multiplexing envelopes, so "not a site
        // request" here is a peer that is not speaking the protocol, or one
        // that disagrees about this site's geometry. The replica is locked
        // per request: a coordinator at this site serves its local legs in
        // between.
        let Some(response) = serve(&mut replica.lock(), site, request) else {
            return Served::Hangup;
        };
        let response = match mux_id {
            Some(id) => WireResponse::Mux {
                id,
                inner: Box::new(response),
            },
            None => response,
        };
        response.frame_into(&mut reply);
        if wire::write_frame(conn.get_mut(), &reply).is_err() {
            return Served::Hangup;
        }
    }
}

/// A coordinator-side connection to one site's server. A torn frame (I/O or
/// decode error mid-exchange) leaves the stream unsynchronized, so the
/// connection is *poisoned*: the failed exchange reports "no reply" once,
/// and the next checkout replaces the stream with a fresh connection
/// instead of silently desyncing every later RPC (the server accepts the
/// replacement as soon as the old stream drops).
struct SiteConn {
    /// Stream and read buffer, replaced together on reconnect.
    stream: wire::FrameReader<TcpStream>,
    poisoned: bool,
}

impl SiteConn {
    /// Marks the connection unusable and logs the event.
    fn poison(&mut self, to: SiteId) {
        self.poisoned = true;
        event!("tcp.conn.poisoned", site = to.as_u32());
    }

    /// One request/response exchange. Any failure poisons the connection.
    fn exchange(&mut self, to: SiteId, frame: &[u8]) -> Option<WireResponse> {
        let response = wire::write_frame(self.stream.get_mut(), frame)
            .ok()
            .and_then(|()| self.stream.read_frame(WireResponse::decode).ok());
        if response.is_none() {
            self.poison(to);
        }
        response
    }
}

/// Coordinator half of one multiplexed connection: requests go out under a
/// per-connection id with a bounded in-flight window, and a dedicated
/// reader thread (see [`mux_reader`]) demultiplexes the replies by id, so
/// concurrent operations share the socket without waiting on each other's
/// round trips.
///
/// Lock order within one `MuxConn`: window semaphore → `writer` →
/// `pending`. The reader thread takes only `pending`, so it can never
/// participate in a cycle.
struct MuxConn {
    /// Write half plus the next request id; a frame is written whole under
    /// this lock, so frames from concurrent clients never interleave.
    writer: Mutex<(TcpStream, u64)>,
    /// Reply slots for in-flight requests, keyed by request id.
    pending: Mutex<HashMap<u64, crossbeam::channel::Sender<Option<WireResponse>>>>,
    /// Counting semaphore bounding in-flight requests on this connection:
    /// remaining slots plus the condvar submitters wait on.
    window: (Mutex<usize>, Condvar),
    /// Set by the reader thread when the stream dies; submissions fail fast.
    dead: AtomicBool,
}

impl MuxConn {
    /// Claims one window slot, blocking while the window is full.
    fn acquire_slot(&self) {
        let (slots, cvar) = &self.window;
        let mut slots = slots.lock();
        while *slots == 0 {
            slots = cvar.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
        *slots -= 1;
    }

    /// Returns one window slot and wakes a waiting submitter.
    fn release_slot(&self) {
        let (slots, cvar) = &self.window;
        *slots.lock() += 1;
        cvar.notify_one();
    }

    /// Sends `frame` — a framed [`WireRequest::Mux`], see [`mux_frame`] —
    /// under a fresh id and returns the channel its reply will arrive on.
    /// The caller owns a window slot until it calls
    /// [`release_slot`](Self::release_slot) (after receiving). `None` means
    /// the connection is dead — the site is unreachable to this frame.
    fn submit(&self, frame: &mut [u8]) -> Option<Receiver<Option<WireResponse>>> {
        if self.dead.load(Ordering::Relaxed) {
            return None;
        }
        self.acquire_slot();
        let (tx, rx) = bounded(1);
        let sent = {
            let mut writer = self.writer.lock();
            let (stream, next_id) = &mut *writer;
            let id = *next_id;
            *next_id += 1;
            // Park the reply slot before the frame hits the wire so the
            // reader can never see a reply to an unknown id.
            self.pending.lock().insert(id, tx);
            wire::set_envelope_ids(frame, &[id]);
            let ok = wire::write_frame(stream, frame).is_ok()
                // The reader may have died and drained `pending` before the
                // insert above; in that window the request would never be
                // answered, so check the flag after parking the slot.
                && !self.dead.load(Ordering::Relaxed);
            if !ok {
                self.dead.store(true, Ordering::Relaxed);
                self.pending.lock().remove(&id);
            }
            ok
        };
        if !sent {
            self.release_slot();
            return None;
        }
        Some(rx)
    }
}

/// `request` framed inside a multiplexing envelope whose id
/// [`MuxConn::submit`] fills in, per connection, at send time.
fn mux_frame(request: WireRequest) -> Vec<u8> {
    let inner = Box::new(request);
    WireRequest::Mux { id: 0, inner }.to_frame()
}

/// The demux loop: reads [`WireResponse::Mux`] frames off the socket and
/// routes each inner reply to the submitter that parked its id. Any I/O or
/// framing error kills the connection: every in-flight submitter is handed
/// "no reply", which the protocol treats exactly like an unreachable site.
fn mux_reader(stream: TcpStream, conn: &MuxConn) {
    let mut stream = wire::FrameReader::new(stream);
    while let Ok(WireResponse::Mux { id, inner }) = stream.read_frame(WireResponse::decode) {
        let Some(tx) = conn.pending.lock().remove(&id) else {
            break; // a reply nobody asked for: the stream is desynced
        };
        let _ = tx.send(Some(*inner));
    }
    conn.dead.store(true, Ordering::Relaxed);
    for (_, tx) in conn.pending.lock().drain() {
        let _ = tx.send(None);
    }
}

/// The socket transport: one replica, one listener and one server thread
/// per site, and the coordinator's connection to each.
pub struct TcpTransport {
    /// Each site's replica, shared between its server thread (remote
    /// requests) and the coordinator (local legs).
    replicas: Vec<Arc<Mutex<Replica>>>,
    addrs: Vec<SocketAddr>,
    conns: Vec<Mutex<SiteConn>>,
    /// Whether request frames carry the trace envelope when a span context
    /// is live. Off by default, so frames stay byte-identical to an
    /// untraced run unless explicitly opted in.
    wire_tracing: AtomicBool,
    /// Per-site multiplexed connections, populated by
    /// [`set_multiplexing`](TcpCluster::set_multiplexing).
    mux: Vec<RwLock<Option<Arc<MuxConn>>>>,
    /// Fast path for "is any mux connection live" checks.
    muxed: AtomicBool,
    /// Demux reader threads, joined on drop / un-multiplexing.
    mux_readers: Mutex<Vec<JoinHandle<()>>>,
    handles: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Binds one loopback listener per site, spawns the server threads, and
    /// connects the coordinator to each.
    fn spawn(cfg: &DeviceConfig, links: &Links) -> io::Result<Self> {
        let n = cfg.num_sites();
        let mut replicas = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for s in cfg.site_ids() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            let replica = Arc::new(Mutex::new(Replica::new(s, cfg)));
            replicas.push(Arc::clone(&replica));
            let links = links.clone();
            handles.push(std::thread::spawn(move || {
                listen(&replica, listener, links, s.as_u32())
            }));
        }
        let mut conns = Vec::with_capacity(n);
        for addr in &addrs {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            conns.push(Mutex::new(SiteConn {
                stream: wire::FrameReader::new(stream),
                poisoned: false,
            }));
        }
        Ok(TcpTransport {
            replicas,
            addrs,
            conns,
            wire_tracing: AtomicBool::new(false),
            mux: (0..n).map(|_| RwLock::new(None)).collect(),
            muxed: AtomicBool::new(false),
            mux_readers: Mutex::new(Vec::new()),
            handles,
        })
    }

    /// See [`TcpCluster::set_multiplexing`].
    fn set_multiplexing(&self, on: bool) -> io::Result<()> {
        if on {
            // Installation walks sites in ascending order — the same
            // discipline every scatter follows — so a concurrent caller
            // taking the same slot locks cannot deadlock against us.
            let mut installed: Vec<usize> = Vec::new();
            for (i, slot) in self.mux.iter().enumerate() {
                debug_assert!(installed.last().is_none_or(|&prev| prev < i));
                installed.push(i);
                let mut slot = slot.write();
                if slot.is_some() {
                    continue;
                }
                // Retire the classic connection: hang it up so the server's
                // read loop falls back to `accept`, and poison it so a later
                // un-multiplexed checkout redials instead of reusing the
                // dead stream.
                {
                    let mut conn = self.conns[i].lock();
                    let _ = conn.stream.get_mut().shutdown(std::net::Shutdown::Both);
                    conn.poisoned = true;
                }
                let stream = TcpStream::connect(self.addrs[i])?;
                stream.set_nodelay(true)?;
                let read_half = stream.try_clone()?;
                let conn = Arc::new(MuxConn {
                    writer: Mutex::new((stream, 0)),
                    pending: Mutex::new(HashMap::new()),
                    window: (Mutex::new(WINDOW), Condvar::new()),
                    dead: AtomicBool::new(false),
                });
                let reader_conn = Arc::clone(&conn);
                self.mux_readers.lock().push(std::thread::spawn(move || {
                    mux_reader(read_half, &reader_conn)
                }));
                *slot = Some(conn);
            }
            self.muxed.store(true, Ordering::Relaxed);
        } else {
            self.muxed.store(false, Ordering::Relaxed);
            for slot in &self.mux {
                if let Some(conn) = slot.write().take() {
                    conn.dead.store(true, Ordering::Relaxed);
                    let _ = conn.writer.lock().0.shutdown(std::net::Shutdown::Both);
                }
            }
            for handle in self.mux_readers.lock().drain(..) {
                let _ = handle.join();
            }
        }
        Ok(())
    }

    /// `request` as one frame, and whether inside a trace envelope: wire
    /// tracing is on and a span context is live.
    /// [`wire::set_envelope_ids`] re-parents that frame without a second
    /// encode.
    fn trace_frame(&self, request: WireRequest) -> (Vec<u8>, bool) {
        let live = self.wire_tracing.load(Ordering::Relaxed)
            && blockrep_obs::enabled()
            && crate::obs_hooks::tracing();
        match live.then(blockrep_obs::trace::current).flatten() {
            Some(ctx) => {
                let traced = WireRequest::Traced {
                    trace_id: ctx.trace_id,
                    parent_span: ctx.span_id,
                    inner: Box::new(request),
                };
                (traced.to_frame(), true)
            }
            None => (request.to_frame(), false),
        }
    }

    /// Locks site `to`'s connection, replacing the stream first if a torn
    /// frame poisoned it. Dropping the old stream hangs up the server's
    /// read loop, which then accepts this replacement.
    fn checkout(&self, to: SiteId) -> Option<MutexGuard<'_, SiteConn>> {
        let mut conn = self.conns[to.index()].lock();
        if conn.poisoned {
            let stream = TcpStream::connect(self.addrs[to.index()]).ok()?;
            let _ = stream.set_nodelay(true);
            conn.stream = wire::FrameReader::new(stream);
            conn.poisoned = false;
            event!("tcp.conn.reopened", site = to.as_u32());
        }
        Some(conn)
    }

    /// One request/response exchange over a multiplexed connection: submit
    /// under a fresh id, block on the demuxed reply, return the window
    /// slot. `None` is "site unreachable", exactly as for a torn classic
    /// exchange.
    fn mux_rpc(&self, conn: &MuxConn, request: WireRequest) -> Option<WireResponse> {
        let rx = conn.submit(&mut mux_frame(request))?;
        let reply = rx.recv().ok().flatten();
        conn.release_slot();
        reply
    }

    /// One exchange with `to`. A torn one — traced or not — is a failed
    /// exchange: the connection is poisoned and the next checkout redials.
    fn rpc(&self, to: SiteId, request: WireRequest) -> Option<WireResponse> {
        let _timer = crate::obs_hooks::timer(crate::obs_hooks::tcp_rpc_latency);
        if self.muxed.load(Ordering::Relaxed) {
            // Wire tracing is a classic-connection feature; mux frames go
            // bare (the parity suites pin untraced mode anyway).
            if let Some(conn) = self.mux[to.index()].read().clone() {
                return self.mux_rpc(&conn, request);
            }
        }
        let mut conn = self.checkout(to)?;
        let (frame, _) = self.trace_frame(request);
        conn.exchange(to, &frame)
    }

    /// Pipelined scatter: encodes `request` once and writes that frame to
    /// every eligible target — all on the wire before any reply
    /// is read — then gathers the replies in target order. Connections are
    /// locked in ascending site order, so concurrent scatters cannot
    /// deadlock.
    fn pipelined(&self, cx: Scatter<'_>, request: WireRequest) -> ScatterReplies {
        let targets = cx.targets;
        // Satellite hoist: one `enabled()` load decides whether any obs
        // work happens in this batch; the disabled path records nothing.
        let obs_on = blockrep_obs::enabled();
        if obs_on {
            crate::obs_hooks::scatter_batch().record(targets.len() as u64);
        }
        let tracing = obs_on && crate::obs_hooks::tracing();
        let (mut frame, enveloped) = self.trace_frame(request);
        type InFlight<'a> = Option<MutexGuard<'a, SiteConn>>;
        let mut in_flight: SiteVec<(SiteId, InFlight<'_>)> = SiteVec::new();
        for &t in targets {
            debug_assert!(
                in_flight.last().is_none_or(|&(prev, _)| prev < t),
                "scatter targets must ascend (lock ordering)"
            );
            let conn = if (cx.eligible)(t) {
                let send_span = tracing
                    .then(|| start_phase(crate::obs_hooks::phase_scatter_send(), t.as_u32()))
                    .flatten();
                self.checkout(t).and_then(|mut conn| {
                    // The send span is the wire parent, so the server's
                    // remote_apply span lands under this site's send leg
                    // (a grandchild of the op — attribution sums direct
                    // children only and must not double-count it).
                    if let Some(ctx) = send_span.as_ref().filter(|_| enveloped) {
                        let ctx = ctx.context();
                        wire::set_envelope_ids(&mut frame, &[ctx.trace_id, ctx.span_id]);
                    }
                    if wire::write_frame(conn.stream.get_mut(), &frame).is_ok() {
                        Some(conn)
                    } else {
                        conn.poison(t);
                        None
                    }
                })
            } else {
                None
            };
            in_flight.push((t, conn));
        }
        let mut replies = ScatterReplies::new();
        for (t, conn) in in_flight {
            let reply = conn.and_then(|mut conn| {
                let gather_span = tracing
                    .then(|| start_phase(crate::obs_hooks::phase_gather_wait(), t.as_u32()))
                    .flatten();
                let response = conn.stream.read_frame(WireResponse::decode).ok();
                drop(gather_span);
                if response.is_none() {
                    conn.poison(t);
                }
                response.and_then(cx.parse)
            });
            replies.push((t, reply));
        }
        charge(&cx, &replies);
        replies
    }

    /// Multiplexed scatter: submits the one [`mux_frame`] of `request` to
    /// every eligible target — acquiring window slots in
    /// ascending site order, the discipline of [`pipelined`](Self::pipelined)'s
    /// connection locks, so concurrent scatters cannot form a wait cycle —
    /// then gathers the demuxed replies in target order. §5 message counts
    /// are identical to the classic path's.
    fn pipelined_mux(&self, cx: Scatter<'_>, request: WireRequest) -> ScatterReplies {
        let targets = cx.targets;
        if blockrep_obs::enabled() {
            crate::obs_hooks::scatter_batch().record(targets.len() as u64);
        }
        let mut frame = mux_frame(request);
        type Slot = Option<(Arc<MuxConn>, Receiver<Option<WireResponse>>)>;
        let mut in_flight: SiteVec<(SiteId, Slot)> = SiteVec::new();
        for &t in targets {
            debug_assert!(
                in_flight.last().is_none_or(|(prev, _)| *prev < t),
                "scatter targets must ascend (lock ordering)"
            );
            let slot = if (cx.eligible)(t) {
                self.mux[t.index()].read().clone().and_then(|conn| {
                    let rx = conn.submit(&mut frame)?;
                    Some((conn, rx))
                })
            } else {
                None
            };
            in_flight.push((t, slot));
        }
        let mut replies = ScatterReplies::new();
        for (t, slot) in in_flight {
            let reply = slot.and_then(|(conn, rx)| {
                let response = rx.recv().ok().flatten();
                conn.release_slot();
                response.and_then(cx.parse)
            });
            replies.push((t, reply));
        }
        charge(&cx, &replies);
        replies
    }
}

/// The tail of every scatter: charges the gathered replies.
fn charge(cx: &Scatter<'_>, replies: &ScatterReplies) {
    if let Some(kind) = cx.spec.reply_charge {
        let gathered = replies.iter().filter(|(_, r)| r.is_some()).count() as u64;
        cx.counter
            .add_many(cx.spec.op, kind, cx.spec.reply_units, gathered);
    }
}

impl Transport for TcpTransport {
    const NAME: &'static str = "tcp";
    /// A cast is an exchange that expects `Ack`, so an install fan-out is
    /// worth pipelining.
    const CAST_BLOCKS: bool = true;

    fn call(&self, to: SiteId, request: WireRequest) -> Option<WireResponse> {
        self.rpc(to, request)
    }

    fn cast(&self, to: SiteId, request: WireRequest) -> bool {
        matches!(self.rpc(to, request), Some(WireResponse::Ack))
    }

    fn local(&self, s: SiteId, request: WireRequest) -> Option<WireResponse> {
        serve(&mut self.replicas[s.index()].lock(), s.as_u32(), request)
    }

    fn scatter(&self, cx: Scatter<'_>, request: WireRequest) -> ScatterReplies {
        if self.muxed.load(Ordering::Relaxed) {
            self.pipelined_mux(cx, request)
        } else {
            self.pipelined(cx, request)
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Tear down any mux connections first: their servers fall back to
        // `accept`. (The off-path never errors.)
        let _ = self.set_multiplexing(false);
        let shutdown = WireRequest::Shutdown.to_frame();
        for (conn, addr) in self.conns.iter().zip(&self.addrs) {
            // A server still reading this stream takes Shutdown from it.
            // One that is back in `accept` — the stream was poisoned,
            // retired for a mux connection, or hung up by the site without
            // the coordinator having noticed — takes it from a redial,
            // which the hang-up makes it free to accept. A refused redial
            // means the server already left.
            let mut conn = conn.lock();
            let _ = wire::write_frame(conn.stream.get_mut(), &shutdown);
            let _ = conn.stream.get_mut().shutdown(std::net::Shutdown::Both);
            if let Ok(mut stream) = TcpStream::connect(addr) {
                let _ = wire::write_frame(&mut stream, &shutdown);
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A cluster of replica servers behind loopback TCP sockets.
///
/// # Examples
///
/// ```
/// use blockrep_core::TcpCluster;
/// use blockrep_net::DeliveryMode;
/// use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy)
///     .sites(3).num_blocks(4).block_size(16).build()?;
/// let cluster = TcpCluster::spawn(cfg, DeliveryMode::Multicast)?;
/// let k = BlockIndex::new(0);
/// cluster.write(SiteId::new(0), k, BlockData::from(vec![7; 16]))?;
/// cluster.fail_site(SiteId::new(0));
/// assert_eq!(cluster.read(SiteId::new(1), k)?.as_slice(), &[7; 16]);
/// # Ok(())
/// # }
/// ```
pub type TcpCluster = ServerCluster<TcpTransport>;

impl ServerCluster<TcpTransport> {
    /// Binds one loopback listener per site, spawns the server threads, and
    /// connects the coordinator to each.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or connecting the loopback sockets.
    pub fn spawn(cfg: DeviceConfig, mode: DeliveryMode) -> io::Result<Self> {
        let coord = Coordinator::new(cfg, mode);
        let transport = TcpTransport::spawn(&coord.cfg, &coord.links)?;
        Ok(ServerCluster::over(coord, transport))
    }

    /// The socket address of site `s`'s server.
    pub fn addr(&self, s: SiteId) -> SocketAddr {
        self.transport.addrs[s.index()]
    }

    /// Enables or disables the wire trace envelope. Off (the default),
    /// frames are byte-identical to an untraced run, which is what the
    /// runtime-parity suites pin. On, every request sent while a span
    /// context is live is wrapped in [`WireRequest::Traced`] so the servers
    /// emit child spans into the same causal tree.
    pub fn set_wire_tracing(&self, on: bool) {
        self.transport.wire_tracing.store(on, Ordering::Relaxed);
    }

    /// Switches the coordinator between one-exchange-at-a-time connections
    /// and multiplexed ones. On, each site's connection is replaced by a
    /// [`MuxConn`]: requests carry per-connection ids under a bounded
    /// in-flight window ([`WINDOW`]) and a dedicated reader thread
    /// demultiplexes replies, so concurrent clients of one `TcpCluster`
    /// share each socket instead of serializing on it. Off restores the
    /// classic connections (the next RPC per site redials).
    ///
    /// Deadlock-freedom: a scatter submits to targets in ascending site
    /// order, so a client blocked on site `j`'s window only holds slots on
    /// sites `< j` — the wait graph is acyclic, and every held slot is
    /// released once the server (which always replies in order) answers.
    ///
    /// # Errors
    ///
    /// I/O errors from dialing the replacement connections; sites already
    /// multiplexed keep their connection.
    pub fn set_multiplexing(&self, on: bool) -> io::Result<()> {
        self.transport.set_multiplexing(on)
    }

    /// Whether the coordinator's connections are currently multiplexed.
    pub fn multiplexing(&self) -> bool {
        self.transport.muxed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use blockrep_types::{BlockData, BlockIndex, Scheme, SiteState, VersionNumber};

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn tcp(scheme: Scheme, n: usize) -> TcpCluster {
        let cfg = DeviceConfig::builder(scheme)
            .sites(n)
            .num_blocks(4)
            .block_size(32)
            .build()
            .unwrap();
        TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap()
    }

    #[test]
    fn tcp_write_read_roundtrip_all_schemes() {
        for scheme in Scheme::ALL {
            let c = tcp(scheme, 3);
            let k = BlockIndex::new(1);
            c.write(sid(0), k, BlockData::from(vec![9; 32])).unwrap();
            for i in 0..3 {
                assert_eq!(c.read(sid(i), k).unwrap().as_slice(), &[9; 32], "{scheme}");
            }
        }
    }

    #[test]
    fn tcp_failure_and_recovery() {
        let c = tcp(Scheme::AvailableCopy, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![1; 32])).unwrap();
        c.fail_site(sid(2));
        c.write(sid(0), k, BlockData::from(vec![2; 32])).unwrap();
        c.repair_site(sid(2));
        assert_eq!(c.site_state(sid(2)), SiteState::Available);
        assert_eq!(c.read(sid(2), k).unwrap().as_slice(), &[2; 32]);
    }

    #[test]
    fn tcp_total_failure_naive_waits_for_all() {
        let c = tcp(Scheme::NaiveAvailableCopy, 3);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![7; 32]))
            .unwrap();
        for i in 0..3 {
            c.fail_site(sid(i));
        }
        c.repair_site(sid(2));
        assert!(!c.is_available());
        c.repair_site(sid(0));
        c.repair_site(sid(1));
        assert!(c.is_available());
        assert_eq!(
            c.read(sid(0), BlockIndex::new(0)).unwrap().as_slice(),
            &[7; 32]
        );
    }

    #[test]
    fn tcp_voting_quorum() {
        let c = tcp(Scheme::Voting, 3);
        c.fail_site(sid(1));
        c.fail_site(sid(2));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_err());
        c.repair_site(sid(1));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_ok());
    }

    #[test]
    fn shutdown_is_clean() {
        let c = tcp(Scheme::Voting, 4);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![1; 32]))
            .unwrap();
        drop(c); // joins all server threads without hanging
    }

    #[test]
    fn addresses_are_distinct_loopback_ports() {
        let c = tcp(Scheme::Voting, 3);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..3 {
            let addr = c.addr(sid(i));
            assert!(addr.ip().is_loopback());
            assert!(seen.insert(addr), "duplicate {addr}");
        }
    }

    #[test]
    fn torn_frame_poisons_the_connection_and_the_next_rpc_reconnects() {
        let c = tcp(Scheme::Voting, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
        // Corrupt the conversation with site 1: the server rejects the
        // frame and hangs up, so the next exchange on this stream tears.
        wire::write_frame(
            c.transport.conns[1].lock().stream.get_mut(),
            &[1, 0, 0, 0, 0xFF],
        )
        .unwrap();
        assert_eq!(
            c.vote(sid(0), sid(1), k),
            None,
            "the torn exchange must fail fast, not desync"
        );
        assert!(c.transport.conns[1].lock().poisoned);
        // The next exchange replaces the stream and succeeds.
        assert_eq!(c.vote(sid(0), sid(1), k), Some(VersionNumber::new(1)));
        assert!(!c.transport.conns[1].lock().poisoned);
        // End-to-end traffic over the recovered connection still works.
        c.write(sid(2), k, BlockData::from(vec![4; 32])).unwrap();
        assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[4; 32]);

        // A tear with bytes already buffered: a stand-in for site 1 answers
        // one vote with a whole reply plus the first half of a second one,
        // in a single write, and hangs up.
        let impostor = TcpListener::bind("127.0.0.1:0").unwrap();
        let dial = TcpStream::connect(impostor.local_addr().unwrap()).unwrap();
        c.transport.conns[1].lock().stream = wire::FrameReader::new(dial);
        let peer = std::thread::spawn(move || {
            let (mut peer, _) = impostor.accept().unwrap();
            let mut request = [0u8; 4 + 9];
            io::Read::read_exact(&mut peer, &mut request).unwrap();
            let mut reply = Vec::new();
            WireResponse::Version(VersionNumber::new(77)).frame_into(&mut reply);
            reply.extend_from_slice(&[9, 0, 0, 0, 1, 0xEE, 0xEE, 0xEE]);
            wire::write_frame(&mut peer, &reply).unwrap();
        });
        assert_eq!(c.vote(sid(0), sid(1), k), Some(VersionNumber::new(77)));
        peer.join().unwrap();
        assert_eq!(c.vote(sid(0), sid(1), k), None, "half a reply, then EOF");
        assert!(c.transport.conns[1].lock().poisoned);
        // The half reply died with the stream it arrived on: the redialled
        // connection starts in step with the real site 1.
        assert_eq!(c.vote(sid(0), sid(1), k), Some(VersionNumber::new(2)));
    }

    #[test]
    fn the_coordinators_own_site_is_not_behind_its_connection() {
        for scheme in Scheme::ALL {
            let c = tcp(scheme, 3);
            let k = BlockIndex::new(0);
            c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
            // Corrupt the conversation with site 0: the server rejects the
            // frame and hangs up, so the next exchange on this stream tears.
            let garbage = [1, 0, 0, 0, 0xFF];
            wire::write_frame(c.transport.conns[0].lock().stream.get_mut(), &garbage).unwrap();
            // Operations coordinated *at* site 0 never use that stream: the
            // local leg is served on this thread.
            assert_eq!(c.read(sid(0), k).unwrap().as_slice(), &[3; 32], "{scheme}");
            c.write(sid(0), k, BlockData::from(vec![4; 32])).unwrap();
            assert_eq!(c.read(sid(0), k).unwrap().as_slice(), &[4; 32], "{scheme}");
            assert!(!c.transport.conns[0].lock().poisoned, "{scheme}: untouched");
            // The first exchange from another site to site 0 tears once and
            // counts as no reply; the next redials.
            assert_eq!(c.vote(sid(1), sid(0), k), None, "{scheme}");
            assert!(c.transport.conns[0].lock().poisoned, "{scheme}");
            let version = c.vote(sid(0), sid(0), k);
            assert_eq!(c.vote(sid(1), sid(0), k), version, "{scheme}");
            assert!(!c.transport.conns[0].lock().poisoned, "{scheme}");
        }
    }

    #[test]
    fn a_frame_that_does_not_fit_the_disk_fails_one_exchange_not_the_site() {
        for scheme in Scheme::ALL {
            let c = tcp(scheme, 3);
            let k = BlockIndex::new(0);
            c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
            // Well-formed frames that site 1's disk cannot serve: a block
            // past its end, and a payload one byte short of a block.
            let short = BlockData::from(vec![5; 31]);
            for misfit in [
                WireRequest::Vote(BlockIndex::new(4)),
                WireRequest::ApplyWrite(k, VersionNumber::new(9), short),
            ] {
                let frame = misfit.to_frame();
                wire::write_frame(c.transport.conns[1].lock().stream.get_mut(), &frame).unwrap();
                // The site hangs up on it, so the exchange behind it fails
                // once; the next one redials a site that is still serving.
                assert_eq!(c.vote(sid(0), sid(1), k), None, "{scheme}: {misfit:?}");
                assert!(c.vote(sid(0), sid(1), k).is_some(), "{scheme}: {misfit:?}");
            }
            c.write(sid(1), k, BlockData::from(vec![4; 32])).unwrap();
            assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[4; 32], "{scheme}");
            assert_eq!(
                c.vote(sid(0), sid(1), k),
                c.vote(sid(1), sid(1), k),
                "{scheme}"
            );
        }
    }

    #[test]
    fn shutdown_reaches_a_site_that_hung_up_unnoticed() {
        let c = tcp(Scheme::Voting, 3);
        // Site 1 rejects the frame, hangs up and goes back to `accept`; the
        // coordinator never uses the stream again, so never poisons it.
        wire::write_frame(
            c.transport.conns[1].lock().stream.get_mut(),
            &[1, 0, 0, 0, 0xFF],
        )
        .unwrap();
        // Drop joins every site thread, so it returns only once site 1 has
        // been told to leave over a connection it is listening to.
        let (done_tx, done_rx) = bounded(1);
        let dropper = std::thread::spawn(move || {
            drop(c);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .is_ok(),
            "shutdown went into a stream the site had hung up on"
        );
        dropper.join().unwrap();
    }

    #[test]
    fn mux_and_classic_agree_on_results_and_traffic() {
        for scheme in Scheme::ALL {
            let mux = tcp(scheme, 4);
            mux.set_multiplexing(true).unwrap();
            assert!(mux.multiplexing());
            let plain = tcp(scheme, 4);
            for c in [&mux, &plain] {
                let k = BlockIndex::new(2);
                c.write(sid(0), k, BlockData::from(vec![8; 32])).unwrap();
                c.fail_site(sid(1));
                c.write(sid(2), k, BlockData::from(vec![9; 32])).unwrap();
                c.repair_site(sid(1));
                assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[9; 32], "{scheme}");
            }
            assert_eq!(
                mux.counter().snapshot(),
                plain.counter().snapshot(),
                "{scheme}: multiplexing must not change §5 counts"
            );
        }
    }

    #[test]
    fn mux_survives_toggling_and_concurrent_clients() {
        let c = Arc::new(tcp(Scheme::Voting, 3));
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![1; 32])).unwrap();
        c.set_multiplexing(true).unwrap();
        // Many clients share the multiplexed sockets; every read must see a
        // committed value (one of the concurrently written ones).
        let writers: Vec<_> = (0..4u8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for round in 0..8u8 {
                        let k = BlockIndex::new(u64::from(i % 4));
                        let fill = i.wrapping_mul(16).wrapping_add(round);
                        c.write(sid(u32::from(i) % 3), k, BlockData::from(vec![fill; 32]))
                            .unwrap();
                        let got = c.read(sid((u32::from(i) + 1) % 3), k).unwrap();
                        assert_eq!(got.len(), 32);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // Back to classic connections: the coordinator redials per site and
        // traffic keeps flowing.
        c.set_multiplexing(false).unwrap();
        assert!(!c.multiplexing());
        c.write(sid(1), k, BlockData::from(vec![5; 32])).unwrap();
        assert_eq!(c.read(sid(2), k).unwrap().as_slice(), &[5; 32]);
    }
}
