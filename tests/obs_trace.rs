//! The structured-event trace of one majority-consensus-voting write.
//!
//! Installs the process-global observer, so this lives alone in its own
//! integration-test binary (cargo gives each test file its own process)
//! and runs as a single test function (no intra-process races on the
//! observer slot).

use blockrep::core::{Cluster, ClusterOptions};
use blockrep::obs::{self, RecordKind, RecordingObserver};
use blockrep::types::{BlockData, BlockIndex, DeviceConfig, Scheme, SiteId};
use std::sync::Arc;

#[test]
fn mcv_write_emits_quorum_then_commit_span() {
    let cfg = DeviceConfig::builder(Scheme::Voting)
        .sites(3)
        .num_blocks(4)
        .block_size(8)
        .build()
        .unwrap();
    let cluster = Cluster::new(cfg, ClusterOptions::default());

    // Observability starts disabled: protocol activity emits nothing.
    assert!(!obs::enabled());
    cluster
        .write(
            SiteId::new(0),
            BlockIndex::new(0),
            BlockData::from(vec![1; 8]),
        )
        .unwrap();
    cluster.read(SiteId::new(1), BlockIndex::new(0)).unwrap();

    let recorder = Arc::new(RecordingObserver::new());
    obs::set_observer(recorder.clone());
    cluster
        .write(
            SiteId::new(0),
            BlockIndex::new(1),
            BlockData::from(vec![9; 8]),
        )
        .unwrap();
    obs::clear_observer();

    let records = recorder.take();
    let names: Vec<&str> = records.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "mcv.write",      // span opens
            "quorum.request", // vote broadcast to the other two sites
            "quorum.ack",     // both answer
            "quorum.ack",
            "write.commit", // the run installed at max(version) + 1
            "mcv.write",    // span closes
        ],
        "unexpected trace: {records:#?}"
    );

    assert_eq!(records[0].kind, RecordKind::SpanStart);
    assert_eq!(records[0].field("blocks"), Some(obs::Value::U64(1)));
    assert_eq!(records[1].field("fanout"), Some(obs::Value::U64(2)));
    let ack_sites: Vec<_> = records[2..4].iter().map(|r| r.field("site")).collect();
    assert_eq!(
        ack_sites,
        [Some(obs::Value::U64(1)), Some(obs::Value::U64(2))]
    );
    assert_eq!(records[4].field("replicas"), Some(obs::Value::U64(3)));
    assert_eq!(records[4].field("blocks"), Some(obs::Value::U64(1)));
    assert_eq!(records[5].kind, RecordKind::SpanEnd);
    assert!(records[5].nanos.is_some(), "span end carries a duration");
}
