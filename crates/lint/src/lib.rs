//! `blockrep-lint` — dependency-free static analysis for the blockrep
//! workspace's concurrency and wire-format invariants.
//!
//! The paper's one-copy guarantees lean on conventions the compiler cannot
//! see: ascending target order in `TcpTransport::scatter`'s send and
//! gather loops (which take a per-site connection-pool lock per target and
//! hold none across a round trip), the fence pairing of the flight
//! recorder's seqlock, hoisted `enabled()` checks on the protocol hot
//! path, and a bijective wire-tag space. This crate machine-checks them. It hand-rolls a small Rust
//! lexer and a brace-matched item scanner (no `syn`, no proc-macros — the
//! registry is vendored stubs, same spirit as the hand-rolled JSON reader
//! under `blockrep_obs::trace::validate_chrome_trace`), builds a per-function token model with an
//! approximate same-file call graph, and runs four passes over it:
//!
//! | pass           | invariant                                             |
//! |----------------|-------------------------------------------------------|
//! | `lock-order`   | acquisition graph is acyclic; no re-entry on a held   |
//! |                | lock; loop-accumulated indexed guards assert ascent   |
//! | `atomics`      | mixed Relaxed/acquire-release fields pair each        |
//! |                | Relaxed access with a `fence(..)` in-function         |
//! | `obs-hot-path` | `event!`/`span!`/tracer calls in protocol, backend    |
//! |                | and WAL code sit behind a hoisted enabled-check       |
//! | `wire-tags`    | encode and decode claim identical tag sets, no dupes  |
//!
//! Being token-level, the analysis is deliberately approximate: it
//! under-claims where it cannot be sure (e.g. `if let` scrutinee guard
//! lifetimes) and favours the idioms this workspace actually uses.
//! Suppressions go through `// lint: allow(pass, reason)` inline markers
//! or the checked-in [`lint.allow` baseline](crate::run), both of which
//! require a written reason.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allow;
mod lexer;
mod model;
mod passes;

use std::fmt;
use std::path::PathBuf;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (e.g. an unused baseline entry).
    Note,
    /// Worth fixing; does not break an invariant outright.
    Warning,
    /// An invariant violation — a latent bug.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pass that produced it (`lock-order`, `atomics`, ...).
    pub pass: &'static str,
    /// Path relative to the scanned root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(
        pass: &'static str,
        file: &str,
        line: u32,
        severity: Severity,
        message: String,
    ) -> Finding {
        Finding {
            pass,
            file: file.to_string(),
            line,
            severity,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.file, self.line, self.pass, self.severity, self.message
        )
    }
}

/// What to analyze.
pub struct Config {
    /// Root directory containing `crates/` (usually the workspace root).
    pub root: PathBuf,
    /// Baseline file; defaults to `<root>/lint.allow` when present.
    pub allow_file: Option<PathBuf>,
}

impl Config {
    /// A config for `root` with the default baseline location.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            allow_file: None,
        }
    }
}

/// A completed lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, sorted by file and line.
    pub findings: Vec<Finding>,
    /// Findings removed by inline markers or the baseline.
    pub suppressed: usize,
    /// Invariants the passes positively confirmed.
    pub verified: Vec<String>,
    /// Files scanned.
    pub files: usize,
    /// Functions scanned.
    pub functions: usize,
}

impl Report {
    /// Whether the run found nothing to fix (notes don't count as dirty).
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity > Severity::Note)
    }

    /// Renders diagnostics plus a summary, ready for stdout or a report
    /// artifact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        for v in &self.verified {
            out.push_str(&format!("verified: {v}\n"));
        }
        let errors = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        let warnings = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count();
        out.push_str(&format!(
            "lint: {} file(s), {} function(s): {errors} error(s), {warnings} warning(s), \
             {} suppressed\n",
            self.files, self.functions, self.suppressed
        ));
        out
    }
}

/// A failed run (I/O trouble or a malformed baseline) — distinct from a
/// run that produced findings.
#[derive(Debug)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Runs every pass over `config.root` and applies suppressions.
///
/// # Errors
///
/// [`LintError`] when the tree cannot be read or the baseline file is
/// malformed (including any entry without a reason).
pub fn run(config: &Config) -> Result<Report, LintError> {
    let ws = model::Workspace::load(&config.root)
        .map_err(|e| LintError(format!("{}: {e}", config.root.display())))?;
    let raw = passes::run_all(&ws);
    let mut report = Report {
        files: ws.files.len(),
        functions: ws.files.iter().map(|f| f.functions.len()).sum(),
        verified: raw.verified,
        ..Report::default()
    };

    // Inline `// lint: allow(pass, reason)` markers. A marker suppresses
    // findings of its pass on its own line and the line below, so both
    // trailing and preceding-line placement work; a marker without a
    // reason is itself a finding.
    let mut findings = raw.findings;
    for file in &ws.files {
        for marker in &file.lexed.allows {
            if marker.reason.is_empty() {
                findings.push(Finding::new(
                    "allow",
                    &file.rel,
                    marker.line,
                    Severity::Error,
                    format!(
                        "inline `lint: allow({})` marker has no reason; write why \
                         the suppression is sound",
                        marker.pass
                    ),
                ));
                continue;
            }
            let before = findings.len();
            findings.retain(|f| {
                !(f.file == file.rel
                    && f.pass == marker.pass
                    && (f.line == marker.line || f.line == marker.line + 1))
            });
            report.suppressed += before - findings.len();
        }
    }

    // The checked-in baseline.
    let allow_path = config
        .allow_file
        .clone()
        .unwrap_or_else(|| config.root.join("lint.allow"));
    if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| LintError(format!("{}: {e}", allow_path.display())))?;
        let mut entries = allow::parse(&text).map_err(|e| LintError(e.to_string()))?;
        let before = findings.len();
        findings.retain(|f| {
            let hit = entries
                .iter_mut()
                .find(|e| e.matches(f.pass, &f.file, f.line));
            if let Some(e) = hit {
                e.used = true;
                false
            } else {
                true
            }
        });
        report.suppressed += before - findings.len();
        for e in entries.iter().filter(|e| !e.used) {
            findings.push(Finding::new(
                "allow",
                "lint.allow",
                e.source_line as u32,
                Severity::Note,
                format!(
                    "baseline entry `{} {}` matched nothing — the finding is gone; \
                     drop the entry",
                    e.pass, e.file
                ),
            ));
        }
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.pass).cmp(&(b.file.as_str(), b.line, b.pass)));
    report.findings = findings;
    Ok(report)
}
