//! The flight recorder fires on chaos failures.
//!
//! When the chaos oracle trips, the runner replays the shrunk schedule with
//! the flight recorder armed and dumps the causal trace as Chrome
//! trace-event JSON — the post-mortem that shows *where in the protocol*
//! the failing schedule spent its time. This regression pins that path:
//! a (synthetic) seeded oracle failure must produce a dump that the
//! schema validator — and therefore the Chrome trace viewer — accepts.
//!
//! Lives alone in its own binary: the dump path flips the process-global
//! tracing flag while it replays.

use blockrep::core::chaos::{self, ChaosFailure};
use blockrep::obs::trace;
use blockrep::types::Scheme;

#[test]
fn chaos_failure_dump_is_valid_chrome_trace_json() {
    // A real oracle failure would require a protocol bug; synthesize one
    // from a generated script so the dump path (regenerate geometry from
    // the seed, replay the schedule traced, serialize the ring) runs
    // exactly as the runner's post-mortem runs it.
    let seed = 11;
    let script = chaos::generate(seed, Scheme::Voting, 24);
    assert!(!script.steps.is_empty());
    let failure = ChaosFailure {
        seed,
        scheme: Scheme::Voting,
        steps: script.steps,
        journaled: false,
        detail: "synthetic oracle violation (seeded regression)".into(),
    };

    let was_tracing = trace::enabled();
    let dump = chaos::trace_schedule(
        failure.seed,
        failure.scheme,
        failure.journaled,
        &failure.steps,
    );
    assert_eq!(
        trace::enabled(),
        was_tracing,
        "dumping must restore the tracing flag"
    );

    trace::validate_chrome_trace(&dump).expect("chaos dump must be valid Chrome trace JSON");
    // The replay actually recorded protocol work, not an empty ring.
    assert!(
        dump.contains("\"cat\":\"blockrep\""),
        "dump carries span events: {}",
        &dump[..dump.len().min(200)]
    );
    assert!(
        dump.contains("\"displayTimeUnit\""),
        "dump carries viewer hints"
    );
}
