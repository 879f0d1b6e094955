//! Implementation of the `blockrep` command line tool.
//!
//! Subcommands:
//!
//! * `blockrep tables` — the paper's equation-level tables E1–E8.
//! * `blockrep fig <9|10|11|12>` — regenerate an evaluation figure
//!   (analytic + measured).
//! * `blockrep simulate availability|traffic|lifetimes [flags]` —
//!   parameterized experiments against the real protocol implementation.
//! * `blockrep shell [flags]` — an interactive cluster you can read, write,
//!   crash, partition, and audit from a prompt.
//! * `blockrep chaos [flags]` — seeded fault-injection with schedule
//!   shrinking over all three runtimes.
//! * `blockrep trace [flags]` — one traced workload with its per-phase
//!   latency attribution and a Chrome trace-event dump.
//! * `blockrep mkfs` / `blockrep fsck` — format and check file-backed
//!   device images (with WAL replay under `--journal`).
//! * `blockrep lint [--deny]` — the [`blockrep_lint`] static analyzer over
//!   the workspace sources: lock-order cycles, atomics fence discipline,
//!   hot-path observability guards, and wire-tag exhaustiveness.
//!
//! Flag parsing is a deliberately small hand-rolled affair ([`args`]) —
//! the project's dependency policy admits no CLI framework, and the
//! handful of `--key value` flags here do not justify one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod report;
pub mod shell;
mod trace_case;
