//! The live cluster: one server thread per site.
//!
//! This is the deployment shape of the paper — "a set of server processes
//! on several sites" — scaled to one machine: each site's replica is owned
//! by its own OS thread, and every protocol exchange travels as a real
//! message to that thread's mailbox. Fail-stop and partitions are enforced
//! at the coordination layer, by the link model every runtime shares: a
//! failed or partitioned-away site is not sent to, synchronously, so tests
//! stay deterministic; its thread and its disk survive, like a halted
//! machine's.
//!
//! [`LiveTransport`] is the in-memory [`Transport`]: it moves the same
//! [`WireRequest`] values the TCP cluster frames onto sockets, unencoded,
//! to threads running the same [`serve`]. The coordinator over it is
//! [`ServerCluster`], which runs the protocol code the deterministic
//! [`Cluster`](crate::Cluster) runs and charges the same traffic counter
//! the same way — which the integration tests exploit: a workload replayed
//! on both runtimes must produce identical message counts.

use crate::backend::{Coordinator, ScatterReplies};
use crate::replica::Replica;
use crate::service::serve;
use crate::transport::{Links, Scatter, ServerCluster, Transport};
use crate::wire::{WireRequest, WireResponse};
use blockrep_net::DeliveryMode;
use blockrep_types::{DeviceConfig, SiteId};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::thread::JoinHandle;

/// What travels to a site's mailbox: a request, and where to send the
/// reply if the sender is waiting for one. A cast carries no sender, so
/// "is this a round trip" is not a list of request kinds to keep in step.
struct Envelope {
    request: WireRequest,
    reply: Option<Sender<WireResponse>>,
}

/// `request` inside a trace envelope when tracing is on and a span context
/// is live, so the server thread (which does not share this thread's
/// context) can stitch its apply span into the tree.
fn traced(request: WireRequest) -> WireRequest {
    if blockrep_obs::enabled() && crate::obs_hooks::tracing() {
        if let Some(ctx) = blockrep_obs::trace::current() {
            return WireRequest::Traced {
                trace_id: ctx.trace_id,
                parent_span: ctx.span_id,
                inner: Box::new(request),
            };
        }
    }
    request
}

/// The in-memory transport: one mailbox and one server thread per site.
pub struct LiveTransport {
    /// Each site's one mailbox: protocol traffic and the shutdown message
    /// both arrive there, so the site's thread can block on it.
    mailboxes: Vec<Sender<Envelope>>,
    handles: Vec<JoinHandle<()>>,
}

impl LiveTransport {
    /// Spawns one server thread per site over a freshly formatted device.
    fn spawn(cfg: &DeviceConfig, links: &Links) -> Self {
        let (mailboxes, handles) = cfg
            .site_ids()
            .map(|s| {
                let (tx, rx) = unbounded::<Envelope>();
                let mut replica = Replica::new(s, cfg);
                let links = links.clone();
                let handle = std::thread::spawn(move || {
                    while let Ok(Envelope { request, reply }) = rx.recv() {
                        if matches!(request, WireRequest::Shutdown) {
                            return;
                        }
                        // Only a round trip pays the emulated link delay: a
                        // cast is in flight on a real network without
                        // occupying the server.
                        if reply.is_some() {
                            links.delay();
                        }
                        let response = serve(&mut replica, s.as_u32(), request);
                        if let (Some(reply), Some(response)) = (reply, response) {
                            let _ = reply.send(response);
                        }
                    }
                });
                (tx, handle)
            })
            .unzip();
        LiveTransport { mailboxes, handles }
    }

    /// Whether `to`'s thread is still there to take the envelope.
    fn send(&self, to: SiteId, envelope: Envelope) -> bool {
        self.mailboxes[to.index()].send(envelope).is_ok()
    }
}

impl Transport for LiveTransport {
    const NAME: &'static str = "live";
    const CAST_BLOCKS: bool = false;

    fn call(&self, to: SiteId, request: WireRequest) -> Option<WireResponse> {
        let (tx, rx) = bounded(1);
        let envelope = Envelope {
            request: traced(request),
            reply: Some(tx),
        };
        if !self.send(to, envelope) {
            return None;
        }
        rx.recv().ok()
    }

    fn cast(&self, to: SiteId, request: WireRequest) -> bool {
        let envelope = Envelope {
            request: traced(request),
            reply: None,
        };
        self.send(to, envelope)
    }

    fn scatter(&self, cx: Scatter<'_>, request: WireRequest) -> ScatterReplies {
        let Scatter { spec, targets, .. } = cx;
        // Satellite hoist: one `enabled()` load decides whether any obs
        // work happens in this batch; the disabled path records nothing.
        let obs_on = blockrep_obs::enabled();
        if obs_on {
            crate::obs_hooks::scatter_batch().record(targets.len() as u64);
        }
        let tracing = obs_on && crate::obs_hooks::tracing();
        let pending: Vec<(SiteId, Option<Receiver<WireResponse>>)> = targets
            .iter()
            .map(|&t| {
                if !(cx.eligible)(t) {
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
                let (tx, rx) = bounded(1);
                let mut request = request.clone();
                // The send span is the envelope parent, so the server's
                // remote_apply span lands under this site's send leg.
                if let Some(ctx) = send_span.as_ref().map(|s| s.context()) {
                    request = WireRequest::Traced {
                        trace_id: ctx.trace_id,
                        parent_span: ctx.span_id,
                        inner: Box::new(request),
                    };
                }
                let reply = Some(tx);
                let sent = self.send(t, Envelope { request, reply });
                (t, sent.then_some(rx))
            })
            .collect();
        let mut replies: ScatterReplies = Vec::with_capacity(targets.len());
        for (t, rx) in pending {
            let reply = rx.and_then(|rx| {
                let _gather = if tracing {
                    blockrep_obs::trace::start_phase(
                        crate::obs_hooks::phase_gather_wait(),
                        t.as_u32(),
                    )
                } else {
                    None
                };
                rx.recv().ok().and_then(cx.parse)
            });
            if reply.is_some() {
                if let Some(kind) = spec.reply_charge {
                    cx.counter.add(spec.op, kind, spec.reply_units);
                }
            }
            replies.push((t, reply));
        }
        replies
    }
}

impl Drop for LiveTransport {
    fn drop(&mut self) {
        // Straight into every mailbox, whatever the links say: a failed
        // site's thread still has to exit.
        for mailbox in &self.mailboxes {
            let request = WireRequest::Shutdown;
            let reply = None;
            let _ = mailbox.send(Envelope { request, reply });
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
        let (done_tx, done_rx) = bounded(1);
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
}
