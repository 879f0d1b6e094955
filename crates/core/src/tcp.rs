//! The TCP cluster: server processes behind real sockets.
//!
//! The paper's deployment is "a set of server processes on several sites"
//! of a network. [`TcpCluster`] is that, minus the machine room: every site
//! is an OS thread accepting connections on a loopback `TcpListener` and
//! serving each one on a thread of its own, and every exchange between two
//! sites is a length-prefixed [`wire`](crate::wire) frame over a real
//! socket. A connection carries one exchange at a time; the coordinator
//! keeps a pool of idle connections per site, so a lone client uses one
//! connection per site and concurrent clients each dial their own. A site
//! serves each request while its frame is still in the connection's read
//! buffer: an install's blocks are sealed there and copied into the
//! buffers they already own in the store, so a site allocates nothing per
//! block it is sent.
//!
//! What a coordinator asks of its *own* site is not an exchange: it is
//! served on the coordinator's thread ([`Transport::local`]) under the
//! per-site replica mutex every connection's thread also takes, per
//! request; every exchange is an acknowledged round trip, so nothing can
//! be queued ahead of a local leg. [`TcpTransport`] is the socket
//! [`Transport`]: the coordinator over it is the same [`ServerCluster`]
//! that runs over inboxes, and the sites run the same [`serve`], so the
//! three runtimes are interchangeable and must agree. Fail-stop and
//! partitions are enforced by the link model every runtime shares; a
//! failed site's server keeps its socket and its disk, like a halted
//! machine.

use crate::backend::{Coordinator, Fold, SiteVec};
use crate::replica::Replica;
use crate::service::{serve, serve_owned};
use crate::transport::{Fanout, Links, ServerCluster, Transport};
use crate::wire::{self, Request, WireRequest, WireResponse};
use blockrep_net::DeliveryMode;
use blockrep_obs::event;
use blockrep_obs::trace::start_phase;
use blockrep_types::{DeviceConfig, SiteId};
use parking_lot::Mutex;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ScopedJoinHandle};

/// A site's server: serves every connection it accepts on a thread of its
/// own, so any number of coordinators may address the site at once. The
/// first connection accepted after `stop` is set is the wake-up to leave:
/// the loop hangs up every connection still open and joins its thread.
fn listen(
    replica: &Mutex<Replica>,
    listener: TcpListener,
    links: &Links,
    site: u32,
    stop: &AtomicBool,
) {
    std::thread::scope(|scope| {
        // Each open connection's thread, and a handle on its socket to hang
        // it up with.
        let mut open: Vec<(ScopedJoinHandle<'_, ()>, TcpStream)> = Vec::new();
        while let Ok((conn, _)) = listener.accept() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            open.retain(|(thread, _)| !thread.is_finished());
            // Request/response over one socket: Nagle + delayed ACK would add
            // ~40ms to every round trip.
            let _ = conn.set_nodelay(true);
            let Ok(hangup) = conn.try_clone() else {
                continue;
            };
            let thread = scope.spawn(move || serve_conn(replica, conn, links, site));
            open.push((thread, hangup));
        }
        for (_, conn) in &open {
            let _ = conn.shutdown(Shutdown::Both);
        }
    });
}

/// Serves one connection's requests in order until the peer hangs up, sends
/// a frame this site cannot serve, or stops reading its replies — and then
/// hangs up on it: the accept loop holds a clone of the stream, so dropping
/// this one would not close the socket.
fn serve_conn(replica: &Mutex<Replica>, conn: TcpStream, links: &Links, site: u32) {
    // The connection's two buffers, reused from frame to frame.
    let mut conn = wire::FrameReader::new(conn);
    let mut reply = Vec::new();
    // A request is served while its frame is still in the read buffer, so
    // an install copies its blocks from there into the store. No response
    // is a request that does not fit this site's disk: a peer that
    // disagrees about its geometry.
    while let Ok(Some(response)) = conn.read_frame(|raw| {
        // Emulated one-way link delay, outside the service's remote span:
        // transit time is the coordinator's gather wait, not this site's
        // apply work.
        links.delay();
        // The replica is locked per request: the site's other connections,
        // and a coordinator at this site serving its local legs, go in
        // between.
        let replica = &mut replica.lock();
        Ok(match Request::install_in(raw) {
            Some(install) => serve(replica, install),
            None => serve_owned(replica, site, WireRequest::decode(raw)?),
        })
    }) {
        response.frame_into(&mut reply);
        if wire::write_frame(conn.get_mut(), &reply).is_err() {
            break;
        }
    }
    let _ = conn.get_mut().shutdown(Shutdown::Both);
}

/// A coordinator-side connection to one site's server: the stream, and the
/// buffer its replies arrive through. They live and die together, so a
/// torn exchange's half-read bytes go with the connection.
type SiteConn = wire::FrameReader<TcpStream>;

/// A new connection to the server at `addr`.
fn dial(addr: SocketAddr) -> io::Result<SiteConn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(wire::FrameReader::new(stream))
}

/// The socket transport: one replica, one listener and one accept thread
/// per site, and the coordinator's idle connections to each.
pub struct TcpTransport {
    /// Each site's replica, shared between its connections' threads (remote
    /// requests) and the coordinator (local legs).
    replicas: Vec<Arc<Mutex<Replica>>>,
    addrs: Vec<SocketAddr>,
    /// Per site, the connections no exchange is using. An exchange takes
    /// one, or dials one if none is idle, and puts it back only after a
    /// whole reply; a torn exchange drops its connection.
    idle: Vec<Mutex<Vec<SiteConn>>>,
    /// Whether request frames carry the trace envelope when a span context
    /// is live. Off by default, so frames stay byte-identical to an
    /// untraced run unless explicitly opted in.
    wire_tracing: AtomicBool,
    /// Set on drop, before each site's accept loop is woken to see it
    /// (stored `Release`, loaded `Acquire`; it publishes nothing else).
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Binds one loopback listener per site, spawns the accept threads, and
    /// connects the coordinator to each.
    fn spawn(cfg: &DeviceConfig, links: &Links) -> io::Result<Self> {
        let n = cfg.num_sites();
        let stop = Arc::new(AtomicBool::new(false));
        let mut replicas = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for s in cfg.site_ids() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            let replica = Arc::new(Mutex::new(Replica::new(s, cfg)));
            replicas.push(Arc::clone(&replica));
            let links = links.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                listen(&replica, listener, &links, s.as_u32(), &stop)
            }));
        }
        let idle = addrs
            .iter()
            .map(|&addr| Ok(Mutex::new(vec![dial(addr)?])))
            .collect::<io::Result<_>>()?;
        Ok(TcpTransport {
            replicas,
            addrs,
            idle,
            wire_tracing: AtomicBool::new(false),
            stop,
            handles,
        })
    }

    /// Frames `request` for `send`, in a trace envelope if wire tracing is
    /// on and a span context is live — `send` learns which — that
    /// [`wire::set_envelope_ids`] re-parents without a second encode.
    fn trace_frame<R>(&self, request: Request<'_>, send: impl FnOnce(&mut [u8], bool) -> R) -> R {
        let live = self.wire_tracing.load(Ordering::Relaxed)
            && blockrep_obs::enabled()
            && crate::obs_hooks::tracing();
        let ctx = live.then(blockrep_obs::trace::current).flatten();
        let ids = ctx.map(|ctx| [ctx.trace_id, ctx.span_id]);
        request.framed(ids, |frame| send(frame, ids.is_some()))
    }

    /// An idle connection to `to`, or a new one if none is idle. The pool's
    /// lock is held for the pop alone, never across an exchange.
    fn checkout(&self, to: SiteId) -> Option<SiteConn> {
        let idle = self.idle[to.index()].lock().pop();
        idle.or_else(|| {
            event!("tcp.conn.dialed", site = to.as_u32());
            dial(self.addrs[to.index()]).ok()
        })
    }

    /// Ends an exchange with `to`: after a whole reply `conn` goes back to
    /// the idle pool; after a torn one it is dropped, since its stream is
    /// out of step.
    fn checkin(&self, to: SiteId, conn: SiteConn, whole: bool) {
        if whole {
            self.idle[to.index()].lock().push(conn);
        } else {
            event!("tcp.conn.torn", site = to.as_u32());
        }
    }
}

impl Transport for TcpTransport {
    const NAME: &'static str = "tcp";
    /// A cast is an exchange that expects `Ack`, so an install fan-out is
    /// worth pipelining.
    const FANOUT: Fanout = Fanout::All;

    /// One exchange with `to`, over a connection no other exchange is using.
    fn call(&self, to: SiteId, request: Request<'_>) -> Option<WireResponse> {
        let _timer = crate::obs_hooks::timer(crate::obs_hooks::tcp_rpc_latency);
        let mut conn = self.checkout(to)?;
        let sent = self.trace_frame(request, |frame, _| wire::write_frame(conn.get_mut(), frame));
        let response = sent
            .ok()
            .and_then(|()| conn.read_frame(WireResponse::decode).ok());
        self.checkin(to, conn, response.is_some());
        response
    }

    fn cast(&self, to: SiteId, request: Request<'_>) -> bool {
        matches!(self.call(to, request), Some(WireResponse::Ack))
    }

    fn local(&self, s: SiteId, request: Request<'_>) -> Option<WireResponse> {
        serve(&mut self.replicas[s.index()].lock(), request)
    }

    /// Pipelined scatter: encodes `request` once and writes that frame to
    /// every eligible target — all on the wire before any reply is read —
    /// then hands the replies to `gather` in target order. Each target's
    /// connection is this scatter's own from checkout to checkin, so no
    /// lock is held across a round trip.
    fn scatter(
        &self,
        targets: &[SiteId],
        eligible: &dyn Fn(SiteId) -> bool,
        gather: &mut dyn Fold,
        request: Request<'_>,
    ) {
        let tracing = blockrep_obs::enabled() && crate::obs_hooks::tracing();
        let in_flight = self.trace_frame(request, |frame, enveloped| {
            let mut in_flight: SiteVec<(SiteId, Option<SiteConn>)> = SiteVec::new();
            for &t in targets {
                debug_assert!(
                    in_flight.last().is_none_or(|&(prev, _)| prev < t),
                    "scatter targets must ascend"
                );
                let conn = if eligible(t) {
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
                            wire::set_envelope_ids(frame, [ctx.trace_id, ctx.span_id]);
                        }
                        if wire::write_frame(conn.get_mut(), frame).is_ok() {
                            Some(conn)
                        } else {
                            self.checkin(t, conn, false);
                            None
                        }
                    })
                } else {
                    None
                };
                in_flight.push((t, conn));
            }
            in_flight
        });
        let mut prev = None;
        for (t, conn) in in_flight {
            debug_assert!(prev < Some(t), "replies are gathered in target order");
            prev = Some(t);
            let response = conn.and_then(|mut conn| {
                let gather_span = tracing
                    .then(|| start_phase(crate::obs_hooks::phase_gather_wait(), t.as_u32()))
                    .flatten();
                let response = conn.read_frame(WireResponse::decode).ok();
                drop(gather_span);
                self.checkin(t, conn, response.is_some());
                response
            });
            gather.reply(t, response);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for (idle, addr) in self.idle.iter().zip(&self.addrs) {
            idle.lock().clear();
            // Wakes the site's accept loop, which sees `stop`, hangs up
            // every connection still open — a foreign coordinator's too —
            // and joins their threads. A refused dial means the server
            // already left.
            let _ = TcpStream::connect(addr);
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
    /// Binds one loopback listener per site, spawns the accept threads, and
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::{BlockData, BlockIndex, Scheme, SiteState, VersionNumber};
    use std::time::Duration;

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

    /// `to`'s vote for block `k`, asked by `from`: a run of one.
    fn vote_of(c: &TcpCluster, from: SiteId, to: SiteId, k: BlockIndex) -> Option<VersionNumber> {
        c.vote_many(from, to, &[k]).map(|vs| vs[0])
    }

    /// Connections in site `s`'s idle pool.
    fn idle(c: &TcpCluster, s: usize) -> usize {
        c.transport.idle[s].lock().len()
    }

    /// Writes `frame` down the coordinator's idle connection to site `s`,
    /// behind the exchange protocol's back.
    fn inject(c: &TcpCluster, s: usize, frame: &[u8]) {
        wire::write_frame(c.transport.idle[s].lock()[0].get_mut(), frame).unwrap();
    }

    /// Drops `c` on another thread and reports whether that returned —
    /// every site thread joined — within `limit`.
    fn dropped_within(c: TcpCluster, limit: Duration) -> bool {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(c);
            let _ = done_tx.send(());
        });
        let done = done_rx.recv_timeout(limit).is_ok();
        if done {
            dropper.join().unwrap();
        }
        done
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

    /// Figure 5's reply carries the blocks the recovering site lacks, not
    /// the source's vector: on a 64 Ki-block device one changed block costs
    /// a reply of one block, where the vector alone was 512 KiB.
    #[test]
    fn a_repair_reply_is_as_large_as_what_changed() {
        let cfg = DeviceConfig::builder(Scheme::AvailableCopy)
            .sites(3)
            .num_blocks(64 * 1024)
            .block_size(32)
            .build()
            .unwrap();
        let c = TcpCluster::spawn(cfg, DeliveryMode::Multicast).unwrap();
        let (k, data) = (BlockIndex::new(40_000), BlockData::from(vec![5; 32]));
        c.fail_site(sid(2));
        c.write(sid(0), k, data.clone()).unwrap();
        let stale = c.version_vector(sid(2), sid(2)).unwrap();
        let mut conn = wire::FrameReader::new(TcpStream::connect(c.addr(sid(0))).unwrap());
        let request = WireRequest::RepairPayload(stale).to_frame();
        wire::write_frame(conn.get_mut(), &request).unwrap();
        let (len, reply) = conn
            .read_frame(|raw| Ok((raw.len(), WireResponse::decode(raw)?)))
            .unwrap();
        let changed = vec![(k, VersionNumber::new(1), data.clone())];
        assert_eq!(reply, WireResponse::Payload(changed));
        assert!(len < 4096, "a {len}-byte reply for one changed block");
        c.repair_site(sid(2));
        assert_eq!(c.read(sid(2), k).unwrap(), data);
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
    fn torn_frame_drops_the_connection_and_the_next_rpc_dials() {
        let c = tcp(Scheme::Voting, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
        // Corrupt the conversation with site 1: the server rejects the
        // frame and hangs up, so the next exchange on this stream tears.
        inject(&c, 1, &[1, 0, 0, 0, 0xFF]);
        assert_eq!(
            vote_of(&c, sid(0), sid(1), k),
            None,
            "the torn exchange must fail fast, not desync"
        );
        assert_eq!(idle(&c, 1), 0, "the torn connection is dropped");
        // The next exchange dials a new connection and succeeds.
        assert_eq!(vote_of(&c, sid(0), sid(1), k), Some(VersionNumber::new(1)));
        assert_eq!(idle(&c, 1), 1);
        // End-to-end traffic over the new connection still works.
        c.write(sid(2), k, BlockData::from(vec![4; 32])).unwrap();
        assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[4; 32]);

        // A tear with bytes already buffered: a stand-in for site 1 answers
        // one vote with a whole reply plus the first half of a second one,
        // in a single write, and hangs up.
        let impostor = TcpListener::bind("127.0.0.1:0").unwrap();
        let dial = TcpStream::connect(impostor.local_addr().unwrap()).unwrap();
        *c.transport.idle[1].lock() = vec![wire::FrameReader::new(dial)];
        let peer = std::thread::spawn(move || {
            let (mut peer, _) = impostor.accept().unwrap();
            let mut request = [0u8; 4 + 13];
            io::Read::read_exact(&mut peer, &mut request).unwrap();
            let mut reply = Vec::new();
            WireResponse::Versions(vec![VersionNumber::new(77)].into()).frame_into(&mut reply);
            reply.extend_from_slice(&[9, 0, 0, 0, 1, 0xEE, 0xEE, 0xEE]);
            wire::write_frame(&mut peer, &reply).unwrap();
        });
        assert_eq!(vote_of(&c, sid(0), sid(1), k), Some(VersionNumber::new(77)));
        peer.join().unwrap();
        assert_eq!(
            vote_of(&c, sid(0), sid(1), k),
            None,
            "half a reply, then EOF"
        );
        assert_eq!(idle(&c, 1), 0);
        // The half reply died with the connection it arrived on: the new
        // connection starts in step with the real site 1.
        assert_eq!(vote_of(&c, sid(0), sid(1), k), Some(VersionNumber::new(2)));
    }

    #[test]
    fn the_coordinators_own_site_is_not_behind_its_connection() {
        for scheme in Scheme::ALL {
            let c = tcp(scheme, 3);
            let k = BlockIndex::new(0);
            c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
            // Corrupt the conversation with site 0: the server rejects the
            // frame and hangs up, so the next exchange on this stream tears.
            inject(&c, 0, &[1, 0, 0, 0, 0xFF]);
            // Operations coordinated *at* site 0 never use that stream: the
            // local leg is served on this thread.
            assert_eq!(c.read(sid(0), k).unwrap().as_slice(), &[3; 32], "{scheme}");
            c.write(sid(0), k, BlockData::from(vec![4; 32])).unwrap();
            assert_eq!(c.read(sid(0), k).unwrap().as_slice(), &[4; 32], "{scheme}");
            assert_eq!(idle(&c, 0), 1, "{scheme}: untouched");
            // The first exchange from another site to site 0 tears once and
            // counts as no reply; the next dials.
            assert_eq!(vote_of(&c, sid(1), sid(0), k), None, "{scheme}");
            assert_eq!(idle(&c, 0), 0, "{scheme}");
            let version = vote_of(&c, sid(0), sid(0), k);
            assert_eq!(vote_of(&c, sid(1), sid(0), k), version, "{scheme}");
            assert_eq!(idle(&c, 0), 1, "{scheme}");
        }
    }

    /// Site `s`'s version and bytes of every block.
    fn disk(c: &TcpCluster, s: usize) -> Vec<(VersionNumber, BlockData)> {
        let replica = c.transport.replicas[s].lock();
        BlockIndex::all(4).map(|k| replica.versioned(k)).collect()
    }

    /// `payload` behind its length prefix: a frame of any content.
    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn a_frame_that_does_not_fit_the_disk_fails_one_exchange_not_the_site() {
        for scheme in Scheme::ALL {
            let c = tcp(scheme, 3);
            let k = BlockIndex::new(0);
            c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
            // Installs of blocks newer than site 1 holds, so a block that
            // landed would show.
            let new = |i: u64, len: usize| {
                (
                    BlockIndex::new(i),
                    VersionNumber::new(9),
                    BlockData::from(vec![5; len]),
                )
            };
            let batch = |blocks: Vec<_>| WireRequest::ApplyWriteMany(blocks.into_iter().collect());
            let good = batch(vec![new(0, 32), new(1, 32), new(3, 32)]).encode();
            // Well-formed frames that site 1's disk cannot serve — a block
            // past its end, and a payload one byte short of a block — and
            // install frames that are not well formed: a body cut short,
            // and a trailing byte.
            let mut misfits = [
                WireRequest::VoteMany(vec![BlockIndex::new(4)]),
                WireRequest::ApplyWrite(k, VersionNumber::new(9), BlockData::from(vec![5; 31])),
                batch(vec![new(0, 32), new(4, 32), new(1, 32)]),
                batch(vec![new(0, 32), new(1, 31), new(3, 32)]),
            ]
            .map(|misfit| misfit.to_frame())
            .to_vec();
            misfits.push(frame_of(&good[..good.len() - 1]));
            misfits.push(frame_of(&[&good[..], &[0]].concat()));
            let before = disk(&c, 1);
            for misfit in &misfits {
                inject(&c, 1, misfit);
                // The site hangs up on it, so the exchange behind it fails
                // once; the next one dials a site that is still serving.
                assert_eq!(
                    vote_of(&c, sid(0), sid(1), k),
                    None,
                    "{scheme}: {misfit:02x?}"
                );
                assert!(vote_of(&c, sid(0), sid(1), k).is_some(), "{scheme}");
                // Not one block of the frame landed, not even those that fit.
                assert_eq!(disk(&c, 1), before, "{scheme}: {misfit:02x?}");
            }
            // The well-formed frame they were cut from installs whole.
            let mut conn = wire::FrameReader::new(TcpStream::connect(c.addr(sid(1))).unwrap());
            wire::write_frame(conn.get_mut(), &frame_of(&good)).unwrap();
            assert_eq!(
                conn.read_frame(WireResponse::decode).unwrap(),
                WireResponse::Ack
            );
            let landed = disk(&c, 1);
            for i in [0, 1, 3] {
                assert_eq!(
                    landed[i],
                    (VersionNumber::new(9), BlockData::from(vec![5; 32])),
                    "{scheme}"
                );
            }
            c.write(sid(1), k, BlockData::from(vec![4; 32])).unwrap();
            assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[4; 32], "{scheme}");
            assert_eq!(
                vote_of(&c, sid(0), sid(1), k),
                vote_of(&c, sid(1), sid(1), k),
                "{scheme}"
            );
        }
    }

    /// A block a site serves its own coordinator shares the site's buffer.
    /// An install that then arrives over a socket gives the block a buffer
    /// of its own, and the reader keeps its bytes; once nothing else holds
    /// the block, the next install from a socket copies into the buffer
    /// the block already owns.
    #[test]
    fn a_block_held_across_an_install_from_a_socket_keeps_its_bytes() {
        for scheme in Scheme::ALL {
            let c = tcp(scheme, 3);
            let k = BlockIndex::new(2);
            let fill = |b: u8| BlockData::from(vec![b; 32]);
            let buffer = || c.transport.replicas[0].lock().data(k).as_slice().as_ptr();
            c.write(sid(1), k, fill(1)).unwrap();
            let held = c.read(sid(0), k).unwrap();
            assert_eq!(
                held.as_slice().as_ptr(),
                buffer(),
                "{scheme}: the read shares the block"
            );
            c.write(sid(1), k, fill(2)).unwrap();
            assert_eq!(
                held,
                fill(1),
                "{scheme}: an install wrote into a held block"
            );
            assert_eq!(c.read(sid(0), k).unwrap(), fill(2), "{scheme}");
            drop(held);
            let own = buffer();
            c.write(sid(1), k, fill(3)).unwrap();
            assert_eq!(
                buffer(),
                own,
                "{scheme}: an unshared block was given a new buffer"
            );
            assert_eq!(c.read(sid(0), k).unwrap(), fill(3), "{scheme}");
        }
        // A voting read at a stale site fetches the block from a remote
        // site and installs it there too: the reader and the stale site's
        // slot share the fetched buffer, and a later install to that site
        // over a socket leaves the reader's copy as it was.
        let c = tcp(Scheme::Voting, 3);
        let (k, fill) = (BlockIndex::new(1), |b: u8| BlockData::from(vec![b; 32]));
        c.write(sid(0), k, fill(1)).unwrap();
        c.fail_site(sid(1));
        c.write(sid(0), k, fill(2)).unwrap();
        c.repair_site(sid(1));
        let fetched = c.read(sid(1), k).unwrap();
        assert_eq!(fetched, fill(2));
        let slot = c.transport.replicas[1].lock().data(k);
        assert_eq!(fetched.as_slice().as_ptr(), slot.as_slice().as_ptr());
        drop(slot);
        c.write(sid(2), k, fill(3)).unwrap();
        assert_eq!(fetched, fill(2), "an install wrote into a fetched block");
        assert_eq!(c.read(sid(1), k).unwrap(), fill(3));
    }

    #[test]
    fn shutdown_reaches_a_site_that_hung_up_unnoticed() {
        let c = tcp(Scheme::Voting, 3);
        // Site 1 rejects the frame and hangs up; the coordinator never uses
        // the stream again, so never notices.
        inject(&c, 1, &[1, 0, 0, 0, 0xFF]);
        assert!(
            dropped_within(c, Duration::from_secs(1)),
            "drop did not join a site that had hung up"
        );
    }

    #[test]
    fn a_second_coordinator_is_served_while_the_first_is_connected() {
        let c = tcp(Scheme::Voting, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![3; 32])).unwrap();
        assert_eq!(idle(&c, 1), 1, "the cluster's own connection is open");
        let foreign = TcpStream::connect(c.addr(sid(1))).unwrap();
        foreign
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut foreign = wire::FrameReader::new(foreign);
        wire::write_frame(
            foreign.get_mut(),
            &WireRequest::VoteMany(vec![k]).to_frame(),
        )
        .unwrap();
        assert_eq!(
            foreign.read_frame(WireResponse::decode).unwrap(),
            WireResponse::Versions(vec![VersionNumber::new(1)].into())
        );
        // Dropping the cluster hangs up on the foreign connection too.
        assert!(dropped_within(c, Duration::from_secs(1)));
        let hangup = foreign.read_frame(WireResponse::decode).unwrap_err();
        assert_eq!(hangup.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_checked_out_connection_does_not_block_another_client() {
        let c = tcp(Scheme::Voting, 3);
        let k = BlockIndex::new(2);
        // One client holds the only connection to site 1...
        let held = c.transport.checkout(sid(1)).unwrap();
        assert_eq!(idle(&c, 1), 0);
        // ...and another's write, which needs site 1's vote, dials its own.
        c.write(sid(0), k, BlockData::from(vec![6; 32])).unwrap();
        assert_eq!(idle(&c, 1), 1);
        c.transport.checkin(sid(1), held, true);
        assert_eq!(idle(&c, 1), 2);
        assert_eq!(c.read(sid(1), k).unwrap().as_slice(), &[6; 32]);
    }

    #[test]
    fn concurrent_clients_read_back_their_own_writes() {
        let c = tcp(Scheme::Voting, 3);
        std::thread::scope(|scope| {
            for i in 0..4u8 {
                let c = &c;
                scope.spawn(move || {
                    let k = BlockIndex::new(u64::from(i));
                    for round in 0..8u8 {
                        let fill = i.wrapping_mul(16).wrapping_add(round);
                        let at = sid(u32::from(i) % 3);
                        c.write(at, k, BlockData::from(vec![fill; 32])).unwrap();
                        let got = c.read(sid((u32::from(i) + 1) % 3), k).unwrap();
                        assert_eq!(got.as_slice(), &[fill; 32], "client {i}, round {round}");
                    }
                });
            }
        });
        // Every connection the clients used went back to its site's pool.
        for s in 0..3 {
            assert!(idle(&c, s) >= 1);
        }
    }
}
