//! Cross-site trace propagation.
//!
//! Two invariants share this binary (and a lock, since tracing is a
//! process-global flag):
//!
//! 1. **Every runtime stitches remote work into the coordinator's tree.**
//!    A traced coordinator wraps its requests in the trace envelope — over
//!    inboxes always, over sockets once wire tracing is on — and the one
//!    site service opens it, so every contacted site emits
//!    `phase.remote_apply` spans under the operation that caused them. (A
//!    coordinator's requests to its own site are served on its own thread,
//!    under the span already live there: no envelope, no remote span.)
//! 2. **Untraced-peer mode is byte-identical.** With tracing enabled but
//!    wire tracing off (the default), every runtime produces exactly the
//!    results and §5 traffic counts of a fully untraced run — the parity
//!    the runtime suites pin survives turning the flight recorder on.

use blockrep::core::wire::{write_frame, FrameReader, WireRequest, WireResponse};
use blockrep::core::{Cluster, ClusterOptions, LiveCluster, TcpCluster};
use blockrep::net::{DeliveryMode, TrafficSnapshot};
use blockrep::obs::{self, trace};
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId, VersionNumber};
use std::net::TcpStream;
use std::sync::Mutex;

/// Serializes the tests in this file: tracing flags and the flight
/// recorder ring are process-global.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

fn cfg(scheme: Scheme) -> DeviceConfig {
    DeviceConfig::builder(scheme)
        .sites(3)
        .num_blocks(8)
        .block_size(32)
        .build()
        .unwrap()
}

fn s(i: u32) -> SiteId {
    SiteId::new(i)
}

fn blk(i: u64) -> BlockIndex {
    BlockIndex::new(i)
}

fn fill(b: u8) -> BlockData {
    BlockData::from(vec![b; 32])
}

/// Remote-apply span count per site in the current flight recorder.
fn remote_applies_by_site(site: u32) -> usize {
    trace::snapshot()
        .iter()
        .filter(|r| trace::phase_name(r.phase) == "phase.remote_apply" && r.site == site)
        .count()
}

#[test]
fn traced_peers_stitch_remote_apply_spans_on_both_message_passing_runtimes() {
    let _serial = TRACER_LOCK.lock().unwrap();
    let was_obs = obs::enabled();
    let was_tracing = trace::enabled();
    trace::enable();

    let tcp = TcpCluster::spawn(cfg(Scheme::Voting), DeliveryMode::Multicast).unwrap();
    tcp.set_wire_tracing(true);
    let live = LiveCluster::spawn(cfg(Scheme::Voting), DeliveryMode::Multicast);
    type Write<'a> = &'a dyn Fn(SiteId, BlockIndex, BlockData);
    type WriteMany<'a> = &'a dyn Fn(SiteId, &[(BlockIndex, BlockData)]);
    type Read<'a> = &'a dyn Fn(SiteId, BlockIndex) -> BlockData;
    let runtimes: [(&str, Write, WriteMany, Read); 2] = [
        (
            "tcp",
            &|o, k, d| tcp.write(o, k, d).unwrap(),
            &|o, ws| tcp.write_many(o, ws).unwrap(),
            &|o, k| tcp.read(o, k).unwrap(),
        ),
        (
            "live",
            &|o, k, d| live.write(o, k, d).unwrap(),
            &|o, ws| live.write_many(o, ws).unwrap(),
            &|o, k| live.read(o, k).unwrap(),
        ),
    ];
    for (name, write, write_many, read) in runtimes {
        trace::clear();
        // The single-exchange path and the batched scatter path.
        write(s(0), blk(0), fill(1));
        write_many(s(0), &[(blk(1), fill(2)), (blk(2), fill(3))]);
        assert_eq!(read(s(1), blk(0)), fill(1));
        assert_eq!(read(s(2), blk(1)), fill(2));
        assert_eq!(read(s(0), blk(2)), fill(3));
        for site in 0..3 {
            assert!(
                remote_applies_by_site(site) > 0,
                "{name}: site {site} must stitch remote apply spans into the tree"
            );
        }
        // Stitched, not merely emitted: every remote span hangs under a
        // span of the same trace that this process recorded.
        let spans = trace::snapshot();
        for remote in spans
            .iter()
            .filter(|r| trace::phase_name(r.phase) == "phase.remote_apply")
        {
            assert!(
                spans
                    .iter()
                    .any(|p| p.span_id == remote.parent && p.trace_id == remote.trace_id),
                "{name}: a remote apply span on site {} has no parent in its trace",
                remote.site
            );
        }
    }

    if !was_tracing {
        trace::disable();
    }
    if !was_obs {
        obs::disable();
    }
}

/// A fixed workload with a failure, a degraded write, a repair, and reads.
fn drive(
    read: &dyn Fn(SiteId, BlockIndex) -> Option<BlockData>,
    write: &dyn Fn(SiteId, BlockIndex, BlockData) -> bool,
    fail: &dyn Fn(SiteId),
    repair: &dyn Fn(SiteId),
    traffic: &dyn Fn() -> TrafficSnapshot,
) -> (Vec<Option<Vec<u8>>>, TrafficSnapshot) {
    write(s(0), blk(0), fill(1));
    write(s(1), blk(1), fill(2));
    fail(s(2));
    write(s(0), blk(0), fill(3));
    repair(s(2));
    write(s(1), blk(2), fill(4));
    let reads = vec![
        read(s(0), blk(0)).map(|d| d.as_slice().to_vec()),
        read(s(2), blk(1)).map(|d| d.as_slice().to_vec()),
        read(s(1), blk(2)).map(|d| d.as_slice().to_vec()),
    ];
    (reads, traffic())
}

#[test]
fn untraced_peer_mode_keeps_runtime_parity_byte_identical() {
    let _serial = TRACER_LOCK.lock().unwrap();
    let was_obs = obs::enabled();
    let was_tracing = trace::enabled();
    // Baseline: everything off.
    trace::disable();
    obs::disable();

    for scheme in Scheme::ALL {
        for mode in DeliveryMode::ALL {
            let det = Cluster::new(cfg(scheme), ClusterOptions { mode });
            let baseline = drive(
                &|o, k| det.read(o, k).ok(),
                &|o, k, d| det.write(o, k, d).is_ok(),
                &|x| det.fail_site(x),
                &|x| det.repair_site(x),
                &|| det.traffic(),
            );

            // Same workload with the flight recorder armed. Wire tracing
            // stays off (the default): frames are byte-identical, so the
            // §5 accounting must be too.
            trace::enable();

            let det2 = Cluster::new(cfg(scheme), ClusterOptions { mode });
            let got = drive(
                &|o, k| det2.read(o, k).ok(),
                &|o, k, d| det2.write(o, k, d).is_ok(),
                &|x| det2.fail_site(x),
                &|x| det2.repair_site(x),
                &|| det2.traffic(),
            );
            assert_eq!(baseline, got, "{scheme}/{mode}: deterministic + tracing");

            let live = LiveCluster::spawn(cfg(scheme), mode);
            let got = drive(
                &|o, k| live.read(o, k).ok(),
                &|o, k, d| live.write(o, k, d).is_ok(),
                &|x| live.fail_site(x),
                &|x| live.repair_site(x),
                &|| live.counter().snapshot(),
            );
            assert_eq!(baseline, got, "{scheme}/{mode}: live + tracing");

            let tcp = TcpCluster::spawn(cfg(scheme), mode).unwrap();
            let got = drive(
                &|o, k| tcp.read(o, k).ok(),
                &|o, k, d| tcp.write(o, k, d).is_ok(),
                &|x| tcp.fail_site(x),
                &|x| tcp.repair_site(x),
                &|| tcp.counter().snapshot(),
            );
            assert_eq!(baseline, got, "{scheme}/{mode}: tcp + tracing");

            trace::disable();
            obs::disable();
        }
    }

    if was_tracing {
        trace::enable();
    } else if was_obs {
        obs::enable();
    }
}

/// An install frame in a trace envelope, sent to a TCP site by a peer the
/// test plays: the batch lands, and the site's `phase.remote_apply` span
/// hangs under the envelope's trace and parent span.
#[test]
fn a_traced_install_frame_installs_under_its_remote_apply_span() {
    let _serial = TRACER_LOCK.lock().unwrap();
    let was_obs = obs::enabled();
    let was_tracing = trace::enabled();
    trace::enable();
    trace::clear();

    let tcp = TcpCluster::spawn(cfg(Scheme::Voting), DeliveryMode::Multicast).unwrap();
    let (trace_id, parent_span) = (0x5eed_0001, 0x5eed_0002);
    let batch = [(blk(3), VersionNumber::new(4), fill(7))];
    let traced = WireRequest::Traced {
        trace_id,
        parent_span,
        inner: Box::new(WireRequest::ApplyWriteMany(batch.into_iter().collect())),
    };
    let mut peer = FrameReader::new(TcpStream::connect(tcp.addr(s(1))).unwrap());
    write_frame(peer.get_mut(), &traced.to_frame()).unwrap();
    assert_eq!(
        peer.read_frame(WireResponse::decode).unwrap(),
        WireResponse::Ack
    );
    assert_eq!(tcp.version_of(s(1), blk(3)), VersionNumber::new(4));
    assert_eq!(tcp.data_of(s(1), blk(3)), fill(7));
    let spans = trace::snapshot();
    assert!(
        spans.iter().any(|r| {
            trace::phase_name(r.phase) == "phase.remote_apply"
                && r.site == 1
                && (r.trace_id, r.parent) == (trace_id, parent_span)
        }),
        "no remote apply span at site 1 under the envelope's ids"
    );

    if !was_tracing {
        trace::disable();
    }
    if !was_obs {
        obs::disable();
    }
}
