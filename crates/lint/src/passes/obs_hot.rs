//! Pass 3 — obs hot-path.
//!
//! The protocol dispatch, scatter/gather backend and WAL append paths run
//! on every operation, so observability work there must hide behind one
//! `blockrep_obs::enabled()` test (`obs_hooks::phase_span`, which makes
//! one before it opens a span, is the house pattern). This pass
//! flags `event!` / `span!` macro calls and direct tracer calls
//! (`start_phase` / `start_op` / `instant`) in those files when they are
//! not inside an `if` whose condition tests the enabled state — either
//! literally (`enabled`, `tracing`, `obs_on`) or through a local bound
//! from such a test (`let tracing = obs_on && ..`).

use super::PassOutput;
use crate::lexer::{Tok, Token};
use crate::model::{match_brace, Workspace};
use crate::{Finding, Severity};

const PASS: &str = "obs-hot-path";

/// Path suffixes of the hot files.
const HOT_FILES: [&str; 3] = [
    "core/src/protocol.rs",
    "core/src/backend.rs",
    "storage/src/wal.rs",
];

/// Identifiers that mark a condition as an enabled-check.
const GUARD_IDENTS: [&str; 3] = ["enabled", "tracing", "obs_on"];

const TRACER_CALLS: [&str; 3] = ["start_phase", "start_op", "instant"];

pub(crate) fn run(ws: &Workspace, out: &mut PassOutput) {
    for file in &ws.files {
        if !HOT_FILES.iter().any(|suffix| file.rel.ends_with(suffix)) {
            continue;
        }
        let toks = file.tokens();
        for func in &file.functions {
            check_fn(&file.rel, &func.name, toks, func.body, out);
        }
    }
}

fn check_fn(rel: &str, fn_name: &str, toks: &[Token], body: (usize, usize), out: &mut PassOutput) {
    let (open, close) = body;
    // Locals bound from an enabled-check, e.g. `let tracing = obs_on && ..`.
    let mut guard_locals: Vec<String> = Vec::new();
    {
        let mut j = open + 1;
        while j + 2 < close {
            if toks[j].tok.is_ident("let") {
                let name_idx = if toks[j + 1].tok.is_ident("mut") {
                    j + 2
                } else {
                    j + 1
                };
                if let (Some(name), true) = (
                    toks[name_idx].tok.ident(),
                    toks.get(name_idx + 1).is_some_and(|t| t.tok.is_punct('=')),
                ) {
                    let mut k = name_idx + 2;
                    while k < close && !toks[k].tok.is_punct(';') {
                        if toks[k]
                            .tok
                            .ident()
                            .is_some_and(|s| GUARD_IDENTS.contains(&s))
                        {
                            guard_locals.push(name.to_string());
                            break;
                        }
                        k += 1;
                    }
                }
            }
            j += 1;
        }
    }
    let is_guard_ident = |tok: &Tok| {
        tok.ident()
            .is_some_and(|s| GUARD_IDENTS.contains(&s) || guard_locals.iter().any(|g| g == s))
    };

    // Guarded regions: the brace block following an `if` whose condition
    // mentions a guard identifier. (The `else` branch is the disabled
    // path and is deliberately not guarded.)
    let mut guarded: Vec<(usize, usize)> = Vec::new();
    let mut j = open + 1;
    while j < close {
        if toks[j].tok.is_ident("if") {
            let mut k = j + 1;
            let mut cond_guard = false;
            while k < close && !toks[k].tok.is_punct('{') {
                cond_guard |= is_guard_ident(&toks[k].tok);
                k += 1;
            }
            if cond_guard && k < close {
                guarded.push((k, match_brace(toks, k)));
            }
        }
        j += 1;
    }

    let mut j = open + 1;
    while j + 1 < close {
        let site = if (toks[j].tok.is_ident("event") || toks[j].tok.is_ident("span"))
            && toks[j + 1].tok.is_punct('!')
        {
            Some("macro")
        } else if toks[j]
            .tok
            .ident()
            .is_some_and(|s| TRACER_CALLS.contains(&s))
            && toks[j + 1].tok.is_punct('(')
            && !toks[j - 1].tok.is_ident("fn")
        {
            Some("tracer call")
        } else {
            None
        };
        if let Some(kind) = site {
            let inside_guard = guarded.iter().any(|&(a, b)| j > a && j < b);
            if !inside_guard {
                let what = toks[j].tok.ident().unwrap_or_default();
                out.findings.push(Finding::new(
                    PASS,
                    rel,
                    toks[j].line,
                    Severity::Warning,
                    format!(
                        "`{what}` {kind} in hot function `{fn_name}` is not behind a \
                         hoisted enabled-check; gate it with `if blockrep_obs::enabled()` \
                         (or split an `*_observed` twin) so the disabled path stays free",
                    ),
                ));
            }
        }
        j += 1;
    }
}
