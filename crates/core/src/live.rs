//! The live cluster: one server thread per site.
//!
//! This is the deployment shape of the paper — "a set of server processes
//! on several sites" — scaled to one machine: each site has its replica, an
//! inbox and an OS thread that serves the inbox, and every protocol
//! exchange between two sites travels as a real message to the target's
//! inbox. Fail-stop and partitions are enforced at the coordination layer,
//! by the link model every runtime shares: a failed or partitioned-away
//! site is not sent to, synchronously, so tests stay deterministic; its
//! thread and its disk survive, like a halted machine's.
//!
//! **Who may touch a replica.** Two parties: the site's own thread, serving
//! what other sites sent, and a coordinator running at that site, whose
//! requests to its own replica are local actions served on the
//! coordinator's thread ([`Transport::local`]) — the paper's coordinator
//! *is* its site's server process. One mutex per site covers both, with one
//! rule: **whoever holds the replica lock serves the inbox first, in
//! arrival order**. So a request at site `s`, local or remote, is behind
//! every install already sent to `s`, although installs are one-way casts
//! nobody waits for. Envelopes are popped only under the replica lock
//! (lock order replica → inbox; a poster holds neither). A drain takes the
//! inbox lock only while something is queued: the queue's length is copied,
//! under that lock, into an atomic (Release) it reads first (Acquire), so a
//! local leg at a site with an empty inbox takes the replica lock alone.
//!
//! **Who wakes a site.** A site's thread is woken only when somebody will
//! wait on it: a round trip, or a cast that fills the inbox to [`WINDOW`].
//! Other casts queue silently until that ring or a local leg at the site,
//! whichever comes first, so a site lags by at most `WINDOW − 1` casts and
//! an available-copy write's installs cost no thread hand-off. Nothing the
//! protocol can observe changes: every request at `s` still finds the casts
//! before it served. Shutdown discards whatever is still queued.
//!
//! [`LiveTransport`] is the in-memory [`Transport`]: it moves the requests
//! the TCP cluster frames onto sockets as [`WireRequest`] values, unencoded,
//! to threads running the same [`serve`]. The coordinator over it is
//! [`ServerCluster`], which runs the protocol code the deterministic
//! [`Cluster`](crate::Cluster) runs and charges the same traffic counter
//! the same way — which the integration tests exploit: a workload replayed
//! on both runtimes must produce identical message counts.

use crate::backend::{Coordinator, Fold, SiteVec};
use crate::replica::Replica;
use crate::service::{serve, serve_owned};
use crate::transport::{Fanout, Links, ServerCluster, Transport, WINDOW};
use crate::wire::{Request, WireRequest, WireResponse};
use blockrep_net::DeliveryMode;
use blockrep_types::{DeviceConfig, SiteId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;

/// What travels to a site's inbox: a request, and where to send the reply
/// if the sender is waiting for one. A cast carries no sender, so "is this
/// a round trip" is not a list of request kinds to keep in step.
struct Envelope {
    request: WireRequest,
    reply: Option<SyncSender<WireResponse>>,
}

/// `request` inside a trace envelope when tracing is on and a span context
/// is live, so the server thread (which does not share this thread's
/// context) can stitch its apply span into the tree.
fn traced(request: Request<'_>) -> WireRequest {
    let tracing = blockrep_obs::enabled() && crate::obs_hooks::tracing();
    WireRequest::from(request).traced(tracing.then(blockrep_obs::trace::current).flatten())
}

/// What other sites have sent a site and nobody has served yet, oldest
/// first; never more than [`WINDOW`] envelopes.
struct Inbox {
    queue: VecDeque<Envelope>,
    /// The cluster is going down, or the site's thread is gone: nothing
    /// more is taken.
    closed: bool,
}

/// One site: its replica and its inbox (see the module docs for who may
/// touch which, and in what order).
struct Site {
    id: SiteId,
    replica: Mutex<Replica>,
    inbox: Mutex<Inbox>,
    /// The inbox's length, as of its last change: read without the lock.
    queued: AtomicUsize,
    /// What the site's thread sleeps on. Rung only when somebody will wait
    /// on this site (see [`post`](Self::post)), and when the inbox closes.
    bell: Condvar,
    /// Signalled when the inbox stops being full: what a poster sleeps on.
    room: Condvar,
    links: Links,
}

impl Site {
    /// Queues `envelope` behind everything already sent here, blocking
    /// while the inbox holds a full window. Whether it was taken: `false`
    /// once the inbox is closed.
    ///
    /// Rings the bell only when a poster will wait on this site: the
    /// envelope is a round trip, or it fills the inbox to the window, so
    /// the next poster would block on `room`. A cast below the window
    /// queues silently and is served, in arrival order, by whichever comes
    /// first: the site's thread at the next ring, or a local leg here,
    /// which drains before it serves itself.
    fn post(&self, envelope: Envelope) -> bool {
        let round_trip = envelope.reply.is_some();
        let mut inbox = self.inbox.lock();
        while inbox.queue.len() >= WINDOW && !inbox.closed {
            inbox = self
                .room
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if inbox.closed {
            return false;
        }
        inbox.queue.push_back(envelope);
        self.queued.store(inbox.queue.len(), Ordering::Release);
        let ring = round_trip || inbox.queue.len() == WINDOW;
        drop(inbox);
        if ring {
            self.bell.notify_one();
        }
        true
    }

    /// Serves everything in the inbox, in arrival order, on `replica` —
    /// which the caller has locked: the guard is what makes the order of
    /// popping the order of serving. An empty inbox costs one atomic load.
    fn drain(&self, replica: &mut Replica) {
        while self.queued.load(Ordering::Acquire) != 0 {
            let envelope = {
                let mut inbox = self.inbox.lock();
                let envelope = inbox.queue.pop_front();
                self.queued.store(inbox.queue.len(), Ordering::Release);
                // Posters sleep only on an inbox they saw full.
                if inbox.queue.len() + 1 == WINDOW {
                    self.room.notify_all();
                }
                envelope
            };
            let Some(Envelope { request, reply }) = envelope else {
                return;
            };
            // Only a round trip pays the emulated link delay: a cast is in
            // flight on a real network without occupying the server.
            if reply.is_some() {
                self.links.delay();
            }
            let response = serve_owned(replica, self.id.as_u32(), request);
            if let (Some(reply), Some(response)) = (reply, response) {
                let _ = reply.send(response);
            }
        }
    }

    /// The site's server thread: sleep until rung, lock the replica, serve
    /// the inbox; until the inbox closes. It sleeps only on an inbox it saw
    /// empty; casts that arrive while it sleeps wait for the next ring.
    fn run(&self) {
        // However this thread ends, nobody may queue behind it or wait on a
        // reply it will not send.
        struct CloseOnExit<'a>(&'a Site);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseOnExit(self);
        loop {
            {
                let mut inbox = self.inbox.lock();
                while inbox.queue.is_empty() && !inbox.closed {
                    inbox = self
                        .bell
                        .wait(inbox)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if inbox.closed {
                    return;
                }
            }
            self.drain(&mut self.replica.lock());
        }
    }

    /// Closes the inbox: unserved envelopes are dropped (a waiting sender
    /// reads that as "no reply"), blocked posters and the site's thread
    /// wake up and leave.
    fn close(&self) {
        {
            let mut inbox = self.inbox.lock();
            inbox.closed = true;
            inbox.queue.clear();
            self.queued.store(0, Ordering::Release);
        }
        self.bell.notify_one();
        self.room.notify_all();
    }
}

/// The in-memory transport: one replica, one inbox and one server thread
/// per site.
pub struct LiveTransport {
    sites: Vec<Arc<Site>>,
    handles: Vec<JoinHandle<()>>,
}

impl LiveTransport {
    /// Spawns one server thread per site over a freshly formatted device.
    fn spawn(cfg: &DeviceConfig, links: &Links) -> Self {
        let (sites, handles) = cfg
            .site_ids()
            .map(|id| {
                let site = Arc::new(Site {
                    id,
                    replica: Mutex::new(Replica::new(id, cfg)),
                    inbox: Mutex::new(Inbox {
                        queue: VecDeque::with_capacity(WINDOW),
                        closed: false,
                    }),
                    queued: AtomicUsize::new(0),
                    bell: Condvar::new(),
                    room: Condvar::new(),
                    links: links.clone(),
                });
                let server = Arc::clone(&site);
                (site, std::thread::spawn(move || server.run()))
            })
            .unzip();
        LiveTransport { sites, handles }
    }

    /// Whether `to` took the envelope.
    fn post(&self, to: SiteId, envelope: Envelope) -> bool {
        self.sites[to.index()].post(envelope)
    }
}

impl Transport for LiveTransport {
    const NAME: &'static str = "live";
    /// A cast is one-way: nothing blocks on it.
    const FANOUT: Fanout = Fanout::Reads;

    fn call(&self, to: SiteId, request: Request<'_>) -> Option<WireResponse> {
        let (tx, rx) = sync_channel(1);
        let envelope = Envelope {
            request: traced(request),
            reply: Some(tx),
        };
        if !self.post(to, envelope) {
            return None;
        }
        rx.recv().ok()
    }

    fn cast(&self, to: SiteId, request: Request<'_>) -> bool {
        let envelope = Envelope {
            request: traced(request),
            reply: None,
        };
        self.post(to, envelope)
    }

    fn local(&self, s: SiteId, request: Request<'_>) -> Option<WireResponse> {
        let site = &self.sites[s.index()];
        let mut replica = site.replica.lock();
        site.drain(&mut replica);
        // Bare: the caller's span context is already live on this thread.
        serve(&mut replica, request)
    }

    fn scatter(
        &self,
        targets: &[SiteId],
        eligible: &dyn Fn(SiteId) -> bool,
        gather: &mut dyn Fold,
        request: Request<'_>,
    ) {
        // Every envelope crosses to another thread.
        let request = WireRequest::from(request);
        let tracing = blockrep_obs::enabled() && crate::obs_hooks::tracing();
        let pending: SiteVec<(SiteId, Option<Receiver<WireResponse>>)> = targets
            .iter()
            .map(|&t| {
                if !eligible(t) {
                    return (t, None);
                }
                let send_span = if tracing {
                    blockrep_obs::trace::start_phase(
                        crate::obs_hooks::phase_scatter_send(),
                        t.as_u32(),
                    )
                } else {
                    None
                };
                let (tx, rx) = sync_channel(1);
                // The send span is the envelope parent, so the server's
                // remote_apply span lands under this site's send leg.
                let request = request
                    .clone()
                    .traced(send_span.as_ref().map(|s| s.context()));
                let reply = Some(tx);
                let sent = self.post(t, Envelope { request, reply });
                (t, sent.then_some(rx))
            })
            .collect();
        for (t, rx) in pending {
            let response = rx.and_then(|rx| {
                let _gather = if tracing {
                    blockrep_obs::trace::start_phase(
                        crate::obs_hooks::phase_gather_wait(),
                        t.as_u32(),
                    )
                } else {
                    None
                };
                rx.recv().ok()
            });
            gather.reply(t, response);
        }
    }
}

impl Drop for LiveTransport {
    fn drop(&mut self) {
        // A flag and the bell, not a message: a local leg draining the
        // inbox must not swallow it. Every site, whatever the links say: a
        // failed site's thread still has to exit.
        for site in &self.sites {
            site.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A cluster of threaded server processes, one per site, exchanging
/// messages over channels.
///
/// # Examples
///
/// ```
/// use blockrep_core::LiveCluster;
/// use blockrep_net::DeliveryMode;
/// use blockrep_types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
///
/// # fn main() -> Result<(), blockrep_types::DeviceError> {
/// let cfg = DeviceConfig::builder(Scheme::NaiveAvailableCopy)
///     .sites(3).num_blocks(2).block_size(4).build()?;
/// let cluster = LiveCluster::spawn(cfg, DeliveryMode::Multicast);
/// let k = BlockIndex::new(0);
/// cluster.write(SiteId::new(0), k, BlockData::from(vec![1, 2, 3, 4]))?;
/// cluster.fail_site(SiteId::new(0));
/// assert_eq!(cluster.read(SiteId::new(1), k)?.as_slice(), &[1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
pub type LiveCluster = ServerCluster<LiveTransport>;

impl ServerCluster<LiveTransport> {
    /// Spawns one server thread per site over a freshly formatted device.
    pub fn spawn(cfg: DeviceConfig, mode: DeliveryMode) -> Self {
        let coord = Coordinator::new(cfg, mode);
        let transport = LiveTransport::spawn(&coord.cfg, &coord.links);
        ServerCluster::over(coord, transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockrep_types::{BlockData, BlockIndex, Scheme, SiteState};
    use std::time::Duration;

    fn sid(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn live(scheme: Scheme, n: usize) -> LiveCluster {
        let cfg = DeviceConfig::builder(scheme)
            .sites(n)
            .num_blocks(4)
            .block_size(8)
            .build()
            .unwrap();
        LiveCluster::spawn(cfg, DeliveryMode::Multicast)
    }

    #[test]
    fn live_write_read_roundtrip_all_schemes() {
        for scheme in Scheme::ALL {
            let c = live(scheme, 3);
            let k = BlockIndex::new(1);
            c.write(sid(0), k, BlockData::from(vec![4; 8])).unwrap();
            for s in 0..3 {
                assert_eq!(c.read(sid(s), k).unwrap().as_slice(), &[4; 8], "{scheme}");
            }
        }
    }

    #[test]
    fn live_survives_failures_and_recovers() {
        let c = live(Scheme::AvailableCopy, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![1; 8])).unwrap();
        c.fail_site(sid(0));
        c.write(sid(1), k, BlockData::from(vec![2; 8])).unwrap();
        c.repair_site(sid(0));
        assert_eq!(c.site_state(sid(0)), SiteState::Available);
        // The repaired site caught up during recovery.
        assert_eq!(c.read(sid(0), k).unwrap().as_slice(), &[2; 8]);
    }

    #[test]
    fn live_voting_needs_quorum() {
        let c = live(Scheme::Voting, 3);
        c.fail_site(sid(1));
        c.fail_site(sid(2));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_err());
        assert!(!c.is_available());
        c.repair_site(sid(1));
        assert!(c.read(sid(0), BlockIndex::new(0)).is_ok());
    }

    #[test]
    fn live_total_failure_naive_waits_for_all() {
        let c = live(Scheme::NaiveAvailableCopy, 3);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![9; 8]))
            .unwrap();
        for i in 0..3 {
            c.fail_site(sid(i));
        }
        c.repair_site(sid(2)); // last to fail, but naive can't know that
        assert_eq!(c.site_state(sid(2)), SiteState::Comatose);
        assert!(!c.is_available());
        c.repair_site(sid(0));
        assert!(!c.is_available());
        c.repair_site(sid(1)); // everyone back — service resumes
        assert!(c.is_available());
        assert_eq!(
            c.read(sid(1), BlockIndex::new(0)).unwrap().as_slice(),
            &[9; 8]
        );
    }

    #[test]
    fn shutdown_is_clean() {
        let c = live(Scheme::Voting, 4);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![1; 8]))
            .unwrap();
        drop(c); // must not hang or panic
    }

    #[test]
    fn shutdown_reaches_a_failed_site() {
        let c = live(Scheme::AvailableCopy, 3);
        c.write(sid(0), BlockIndex::new(0), BlockData::from(vec![1; 8]))
            .unwrap();
        c.fail_site(sid(1));
        // Drop joins every site thread, so it returns only once the thread
        // behind the downed link has exited too.
        let (done_tx, done_rx) = sync_channel(1);
        let dropper = std::thread::spawn(move || {
            drop(c);
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "a failed site's thread never got the shutdown message"
        );
        dropper.join().unwrap();
    }

    #[test]
    fn a_full_inbox_blocks_the_poster_until_somebody_serves_it() {
        let c = live(Scheme::Voting, 3);
        let site = Arc::clone(&c.transport.sites[2]);
        // With site 2's replica held, its thread can serve nothing.
        let replica = site.replica.lock();
        for _ in 0..WINDOW {
            assert!(c.transport.cast(sid(2), Request::Probe));
        }
        assert_eq!(site.inbox.lock().queue.len(), WINDOW);
        let (done_tx, done_rx) = sync_channel(1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let taken = c.transport.cast(sid(2), Request::Probe);
                let _ = done_tx.send(taken);
            });
            assert!(
                done_rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "the cast past the window went through a full inbox"
            );
            drop(replica);
            assert_eq!(done_rx.recv_timeout(Duration::from_secs(1)), Ok(true));
        });
        // A round trip is behind all of them, and finds the site in order.
        assert_eq!(
            c.transport.call(sid(2), Request::Probe),
            Some(WireResponse::Ack)
        );
        assert!(site.inbox.lock().queue.is_empty());
    }

    #[test]
    fn a_cast_wakes_no_thread_and_the_next_round_trip_is_behind_it() {
        use blockrep_types::VersionNumber;
        let c = live(Scheme::AvailableCopy, 3);
        let site = Arc::clone(&c.transport.sites[2]);
        let k = BlockIndex::new(0);
        // A thread that has not reached its first sleep yet serves whatever
        // it finds queued.
        std::thread::sleep(Duration::from_millis(20));
        let casts = WINDOW as u64 - 1;
        for v in 1..=casts {
            let data = BlockData::from(vec![v as u8; 8]);
            let block = [(k, VersionNumber::new(v), data)].into_iter().collect();
            assert!(c.apply_write_many(sid(0), sid(2), &block));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            site.inbox.lock().queue.len(),
            casts as usize,
            "a cast below the window woke site 2's thread"
        );
        assert_eq!(
            c.vote_many(sid(0), sid(2), &[k]).map(|vs| vs[0]),
            Some(VersionNumber::new(casts))
        );
        assert!(site.inbox.lock().queue.is_empty());
    }

    #[test]
    fn a_local_leg_serves_the_casts_queued_before_it_without_waking_the_site() {
        use blockrep_types::VersionNumber;
        let c = live(Scheme::AvailableCopy, 3);
        let site = Arc::clone(&c.transport.sites[2]);
        let k = BlockIndex::new(0);
        std::thread::sleep(Duration::from_millis(20));
        let casts = WINDOW as u64 - 1;
        for v in 1..=casts {
            let data = BlockData::from(vec![v as u8; 8]);
            let block = [(k, VersionNumber::new(v), data)].into_iter().collect();
            assert!(c.apply_write_many(sid(0), sid(2), &block));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            site.inbox.lock().queue.len(),
            casts as usize,
            "a cast below the window woke site 2's thread"
        );
        // An available-copy read at site 2 is a local leg there: it serves
        // every queued install before it reads.
        assert_eq!(c.read(sid(2), k).unwrap().as_slice(), &[casts as u8; 8]);
        assert!(site.inbox.lock().queue.is_empty());
    }

    #[test]
    fn a_local_leg_at_an_empty_inbox_does_not_take_the_inbox_lock() {
        let c = live(Scheme::AvailableCopy, 3);
        let site = Arc::clone(&c.transport.sites[2]);
        let k = BlockIndex::new(1);
        c.write(sid(2), k, BlockData::from(vec![6; 8])).unwrap();
        let (done_tx, done_rx) = sync_channel(1);
        std::thread::scope(|scope| {
            let inbox = site.inbox.lock();
            assert!(inbox.queue.is_empty());
            scope.spawn(|| {
                let _ = done_tx.send(c.read(sid(2), k));
            });
            let done = done_rx.recv_timeout(Duration::from_secs(1));
            drop(inbox);
            let read = done.expect("a local leg at an empty inbox waited for its lock");
            assert_eq!(read.unwrap().as_slice(), &[6; 8]);
        });
    }

    #[test]
    fn installs_queued_at_a_site_that_fails_are_served_before_it_recovers() {
        for scheme in [Scheme::AvailableCopy, Scheme::NaiveAvailableCopy] {
            let c = live(scheme, 3);
            // Fewer installs than the window, so they sit in site 2's inbox
            // while it fails: nobody sends it a round trip.
            for b in 0..4 {
                let data = BlockData::from(vec![b as u8 + 1; 8]);
                c.write(sid(0), BlockIndex::new(b), data).unwrap();
            }
            c.fail_site(sid(2));
            let k = BlockIndex::new(1);
            c.write(sid(0), k, BlockData::from(vec![9; 8])).unwrap();
            // Recovery's first local action at site 2 drains them, so it
            // starts from a disk that has every install sent before the
            // failure.
            c.repair_site(sid(2));
            assert_eq!(c.site_state(sid(2)), SiteState::Available, "{scheme}");
            assert_eq!(c.read(sid(2), k).unwrap().as_slice(), &[9; 8], "{scheme}");
            let vv = |s| c.version_vector(sid(s), sid(s)).unwrap();
            for s in 1..3 {
                assert_eq!(vv(s), vv(0), "{scheme}: site {s}");
            }
        }
    }

    #[test]
    fn shutdown_with_a_non_empty_inbox_terminates() {
        let c = live(Scheme::Voting, 3);
        let site = Arc::clone(&c.transport.sites[2]);
        let replica = site.replica.lock();
        let (reply_tx, reply_rx) = sync_channel(1);
        for reply in [None, None, Some(reply_tx)] {
            let request = WireRequest::Probe;
            assert!(site.post(Envelope { request, reply }));
        }
        // Site 2's thread is parked on the replica lock with three
        // envelopes queued. Drop closes the inbox first, so once the lock
        // is free the thread finds nothing to serve and leaves.
        let (done_tx, done_rx) = sync_channel(1);
        let dropper = std::thread::spawn(move || {
            drop(c);
            let _ = done_tx.send(());
        });
        assert!(
            reply_rx.recv().is_err(),
            "an unserved round trip reads as no reply"
        );
        assert!(!site.post(Envelope {
            request: WireRequest::Probe,
            reply: None
        }));
        drop(replica);
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "a site thread with a non-empty inbox never left"
        );
        dropper.join().unwrap();
    }

    #[test]
    fn a_coordinator_that_crashes_between_votes_and_installs_commits_nothing() {
        use blockrep_types::DeviceError;
        let c = live(Scheme::Voting, 3);
        let k = BlockIndex::new(0);
        c.write(sid(0), k, BlockData::from(vec![1; 8])).unwrap();
        let before = c.vote_many(sid(0), sid(0), &[k]).map(|vs| vs[0]);
        let site_1 = Arc::clone(&c.transport.sites[1]);
        std::thread::scope(|scope| {
            // Hold the vote round open: site 1 cannot answer.
            let replica = site_1.replica.lock();
            let write = scope.spawn(|| c.write(sid(0), k, BlockData::from(vec![2; 8])));
            while site_1.inbox.lock().queue.is_empty() {
                std::thread::yield_now();
            }
            // The votes are out; the coordinator's site fail-stops.
            c.fail_site(sid(0));
            drop(replica);
            // Every vote comes back, no install can be sent — and the write
            // must not then succeed on the strength of site 0's disk alone.
            let outcome = write.join().unwrap();
            assert!(
                matches!(outcome, Err(DeviceError::SiteNotServing { .. })),
                "{outcome:?}"
            );
        });
        assert_eq!(
            c.vote_many(sid(0), sid(0), &[k]).map(|vs| vs[0]),
            before,
            "installed on a dead site"
        );
        // Otherwise the next coordinator hands out the same version number
        // for different contents, and site 0 never learns.
        c.write(sid(1), k, BlockData::from(vec![3; 8])).unwrap();
        c.repair_site(sid(0));
        assert_eq!(c.read(sid(0), k).unwrap().as_slice(), &[3; 8]);
    }
}
