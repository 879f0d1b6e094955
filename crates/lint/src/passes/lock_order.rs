//! Pass 1 — lock-order.
//!
//! Builds a lock-acquisition graph from `.lock()` / `.read()` / `.write()`
//! nesting (no-argument calls only, so `io::Read::read(&mut buf)` never
//! matches). Guard lifetimes are approximated from token structure:
//!
//! * `let g = <expr>.lock();` — held to the end of the enclosing block, a
//!   `drop(g)`, or (when `g` is later pushed into a collection) the last
//!   mention of that collection;
//! * a bare temporary — held to the end of its statement, or to the `{`
//!   that opens a block when it sits in an `if` condition (Rust drops
//!   condition temporaries before entering the block).
//!
//! The call graph is interprocedural one level deep and same-file: a call
//! to a function that itself acquires locks propagates those acquisitions
//! to the call site, and a callee whose signature returns a `*Guard` type
//! (e.g. `TcpCluster::checkout`) counts as acquiring at the call site with
//! the caller's extent rules.
//!
//! Findings: cross-lock cycles (potential deadlocks), re-acquisition of a
//! held lock (self-deadlock with the vendored non-reentrant locks), and —
//! the documented `tcp.rs` discipline — an indexed lock family acquired
//! across loop iterations with escaping guards must carry an ascending-
//! order assertion (`debug_assert!(.. prev < t ..)`).

use super::PassOutput;
use crate::lexer::{Tok, Token};
use crate::model::{match_brace, match_delim, receiver, SourceFile, Workspace};
use crate::{Finding, Severity};
use std::collections::{BTreeMap, HashMap};

const PASS: &str = "lock-order";
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// One lock acquisition with its approximate held range.
struct Acq {
    key: usize,
    indexed: bool,
    tok: usize,
    line: u32,
    end: usize,
}

/// A call to a same-file function that acquires (and releases) locks.
struct Transient {
    tok: usize,
    line: u32,
    keys: Vec<(usize, bool)>,
}

/// Per-function lock summary used for one-level interprocedural analysis.
#[derive(Default, Clone)]
struct FnSummary {
    keys: Vec<(usize, bool)>,
    guard_returning: bool,
}

#[derive(Default)]
struct Interner {
    map: HashMap<(usize, String), usize>,
    display: Vec<String>,
}

impl Interner {
    fn intern(&mut self, file: usize, stem: &str, name: &str) -> usize {
        let next = self.display.len();
        *self.map.entry((file, name.to_string())).or_insert_with(|| {
            self.display.push(format!("{stem}.{name}"));
            next
        })
    }
}

pub(crate) fn run(ws: &Workspace, out: &mut PassOutput) {
    let mut interner = Interner::default();
    // (from, to) -> example acquisition site.
    let mut edges: BTreeMap<(usize, usize), (String, u32)> = BTreeMap::new();

    for (file_idx, file) in ws.files.iter().enumerate() {
        analyze_file(file_idx, file, &mut interner, &mut edges, out);
    }
    report_cycles(&interner, &edges, out);
}

fn analyze_file(
    file_idx: usize,
    file: &SourceFile,
    interner: &mut Interner,
    edges: &mut BTreeMap<(usize, usize), (String, u32)>,
    out: &mut PassOutput,
) {
    let toks = file.tokens();
    // Pass A: per-function direct acquisitions and summaries.
    let mut summaries: HashMap<&str, FnSummary> = HashMap::new();
    let mut direct: Vec<Vec<Acq>> = Vec::with_capacity(file.functions.len());
    for func in &file.functions {
        let acqs = direct_acquisitions(file_idx, file, func.body, interner);
        let sig = &toks[func.sig.0..func.sig.1];
        let guard_returning = sig
            .iter()
            .any(|t| t.tok.ident().is_some_and(|s| s.ends_with("Guard")));
        let entry = summaries.entry(func.name.as_str()).or_default();
        for a in &acqs {
            if !entry.keys.iter().any(|&(k, _)| k == a.key) {
                entry.keys.push((a.key, a.indexed));
            }
        }
        entry.guard_returning |= guard_returning && !acqs.is_empty();
        direct.push(acqs);
    }

    // Pass B: call sites, edges, re-acquisition, and the loop discipline.
    for (fi, func) in file.functions.iter().enumerate() {
        let mut events = std::mem::take(&mut direct[fi]);
        let mut transients: Vec<Transient> = Vec::new();
        let (open, close) = func.body;
        let mut j = open + 1;
        while j < close {
            if let Tok::Ident(name) = &toks[j].tok {
                // A method call `recv.name(..)` only resolves to a local
                // `fn name` when the receiver is literally `self` — other
                // receivers are usually different types sharing a method
                // name (`Replica::state` vs a local `fn state`).
                let self_method = toks[j - 1].tok.is_punct('.')
                    && receiver(toks, j - 1).is_some_and(|(r, _)| r == "self");
                let free_call = !toks[j - 1].tok.is_punct('.')
                    && !toks[j - 1].tok.is_ident("fn")
                    && !toks[j - 1].tok.is_punct('<');
                if toks.get(j + 1).is_some_and(|t| t.tok.is_punct('('))
                    && (self_method || free_call)
                    && name != &func.name
                    && !LOCK_METHODS.contains(&name.as_str())
                {
                    if let Some(summary) = summaries.get(name.as_str()) {
                        if !summary.keys.is_empty() {
                            if summary.guard_returning {
                                let (end, _) = extent(toks, (open, close), j);
                                for &(key, indexed) in &summary.keys {
                                    events.push(Acq {
                                        key,
                                        indexed,
                                        tok: j,
                                        line: toks[j].line,
                                        end,
                                    });
                                }
                            } else {
                                transients.push(Transient {
                                    tok: j,
                                    line: toks[j].line,
                                    keys: summary.keys.clone(),
                                });
                            }
                        }
                    }
                }
            }
            j += 1;
        }
        // `self.lock()`-style calls resolve through the summary map too:
        // the direct scan skipped them when a same-file `fn lock` exists,
        // and the call-site scan above excludes the lock-method names to
        // avoid treating every `.lock()` as a call. Re-add those.
        for m in LOCK_METHODS {
            if summaries.get(m).is_some_and(|s| !s.keys.is_empty()) {
                let mut k = open + 1;
                while k < close {
                    if toks[k].tok.is_ident(m)
                        && toks[k + 1].tok.is_punct('(')
                        && k >= 1
                        && toks[k - 1].tok.is_punct('.')
                        && receiver(toks, k - 1).is_some_and(|(r, _)| r == "self")
                        && func.name != m
                    {
                        let summary = &summaries[m];
                        if summary.guard_returning {
                            let (end, _) = extent(toks, (open, close), k);
                            for &(key, indexed) in &summary.keys {
                                events.push(Acq {
                                    key,
                                    indexed,
                                    tok: k,
                                    line: toks[k].line,
                                    end,
                                });
                            }
                        } else {
                            transients.push(Transient {
                                tok: k,
                                line: toks[k].line,
                                keys: summary.keys.clone(),
                            });
                        }
                    }
                    k += 1;
                }
            }
        }

        events.sort_by_key(|a| a.tok);
        let fn_assert = has_ascending_assert(toks, (open + 1, close));

        // Edges and re-acquisitions between held guards.
        let mut reported: Vec<usize> = Vec::new();
        for a in 0..events.len() {
            for b in 0..events.len() {
                let (ea, eb) = (&events[a], &events[b]);
                if ea.tok < eb.tok && eb.tok < ea.end {
                    if ea.key != eb.key {
                        edges
                            .entry((ea.key, eb.key))
                            .or_insert((file.rel.clone(), eb.line));
                    } else if !(reported.contains(&eb.key) || (eb.indexed && fn_assert)) {
                        reported.push(eb.key);
                        out.findings.push(Finding::new(
                            PASS,
                            &file.rel,
                            eb.line,
                            Severity::Error,
                            format!(
                                "lock `{}` acquired again while an earlier guard is still \
                                 held in `fn {}` (self-deadlock: the vendored locks are \
                                 not reentrant); bind the guard once or drop it first",
                                interner.display[eb.key], func.name
                            ),
                        ));
                    }
                }
            }
            for t in &transients {
                let ea = &events[a];
                if ea.tok < t.tok && t.tok < ea.end {
                    for &(key, indexed) in &t.keys {
                        if key != ea.key {
                            edges
                                .entry((ea.key, key))
                                .or_insert((file.rel.clone(), t.line));
                        } else if !(reported.contains(&key) || (indexed && fn_assert)) {
                            reported.push(key);
                            out.findings.push(Finding::new(
                                PASS,
                                &file.rel,
                                t.line,
                                Severity::Error,
                                format!(
                                    "call re-acquires lock `{}` already held in `fn {}` \
                                     (self-deadlock)",
                                    interner.display[key], func.name
                                ),
                            ));
                        }
                    }
                }
            }
        }

        check_loop_discipline(file, func, toks, &events, &transients, out);
    }
}

/// Scans a function body for direct `.lock()`/`.read()`/`.write()` calls.
fn direct_acquisitions(
    file_idx: usize,
    file: &SourceFile,
    body: (usize, usize),
    interner: &mut Interner,
) -> Vec<Acq> {
    let toks = file.tokens();
    let fn_names: Vec<&str> = file.functions.iter().map(|f| f.name.as_str()).collect();
    let mut acqs = Vec::new();
    let (open, close) = body;
    let mut j = open + 1;
    while j + 3 < close {
        let is_acq = toks[j].tok.is_punct('.')
            && toks[j + 1]
                .tok
                .ident()
                .is_some_and(|m| LOCK_METHODS.contains(&m))
            && toks[j + 2].tok.is_punct('(')
            && toks[j + 3].tok.is_punct(')');
        if is_acq {
            if let Some((name, indexed)) = receiver(toks, j) {
                // `self.lock()` with a same-file `fn lock` is a method
                // call, not a field acquisition; the caller handles it.
                let method = toks[j + 1].tok.ident().unwrap_or_default();
                if !(name == "self" && fn_names.contains(&method)) {
                    let key = interner.intern(file_idx, &file.stem, &name);
                    let (end, _) = extent(toks, body, j);
                    acqs.push(Acq {
                        key,
                        indexed,
                        tok: j,
                        line: toks[j].line,
                        end,
                    });
                }
            }
        }
        j += 1;
    }
    acqs
}

/// Approximates how long the guard produced at token `at` is held.
/// Returns the exclusive end token and the `let` binding name, if any.
fn extent(toks: &[Token], body: (usize, usize), at: usize) -> (usize, Option<String>) {
    let (open, close) = body;
    // Find the statement start: the nearest `;`, `{` or `}` behind us.
    let mut b = at;
    while b > open {
        match &toks[b - 1].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => b -= 1,
        }
    }
    let binding = if toks[b].tok.is_ident("let") {
        let name_idx = if toks[b + 1].tok.is_ident("mut") {
            b + 2
        } else {
            b + 1
        };
        toks[name_idx].tok.ident().map(str::to_string)
    } else {
        None
    };

    if toks[b].tok.is_ident("let") {
        // Named guard: end of the enclosing block, an explicit `drop`, or
        // (for guards pushed into a collection) the collection's last use.
        let mut depth = 0i32;
        let mut end = close;
        let mut k = at;
        while k < close {
            match &toks[k].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        end = k;
                        break;
                    }
                }
                Tok::Ident(s) if s == "drop" => {
                    if let (Some(name), true) = (&binding, toks[k + 1].tok.is_punct('(')) {
                        if toks[k + 2].tok.is_ident(name) && toks[k + 3].tok.is_punct(')') {
                            end = k;
                            break;
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(name) = &binding {
            if let Some(esc) = push_escape_end(toks, body, at, name) {
                end = end.max(esc);
            }
        }
        (end, binding)
    } else {
        // Temporary: end of statement, or the `{` opening a block (an `if`
        // condition temporary dies before the block runs).
        let mut depth = 0i32;
        let mut k = at;
        while k < close {
            match &toks[k].tok {
                Tok::Punct(';') if depth == 0 => return (k, None),
                Tok::Punct('{') => {
                    if depth == 0 && k > at {
                        return (k, None);
                    }
                    depth += 1;
                }
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        return (k, None);
                    }
                }
                _ => {}
            }
            k += 1;
        }
        (close, None)
    }
}

/// If the named guard is pushed into a collection, its real lifetime runs
/// to wherever that collection is last consumed.
fn push_escape_end(
    toks: &[Token],
    body: (usize, usize),
    after: usize,
    name: &str,
) -> Option<usize> {
    let (_, close) = body;
    let mut p = after;
    while p + 2 < close {
        if toks[p].tok.is_punct('.')
            && toks[p + 1].tok.is_ident("push")
            && toks[p + 2].tok.is_punct('(')
        {
            let args_end = match_delim(toks, p + 2, ')');
            let mentions_guard = (p + 3..args_end).any(|q| toks[q].tok.is_ident(name));
            if mentions_guard {
                if let Some((coll, _)) = receiver(toks, p) {
                    let last = (after..close)
                        .rev()
                        .find(|&q| toks[q].tok.is_ident(&coll))?;
                    return Some(last);
                }
            }
        }
        p += 1;
    }
    None
}

/// Looks for an `assert!`/`debug_assert!` whose arguments contain a strict
/// `a < b` comparison (the ascending-order discipline).
fn has_ascending_assert(toks: &[Token], range: (usize, usize)) -> bool {
    let (start, end) = range;
    let mut j = start;
    while j + 2 < end {
        let is_assert = toks[j]
            .tok
            .ident()
            .is_some_and(|s| s == "assert" || s == "debug_assert")
            && toks[j + 1].tok.is_punct('!')
            && toks[j + 2].tok.is_punct('(');
        if is_assert {
            let close = match_delim(toks, j + 2, ')');
            for t in j + 3..close.saturating_sub(2) {
                let operand = |tok: &Tok| matches!(tok, Tok::Ident(_) | Tok::Int(_));
                if operand(&toks[t].tok)
                    && toks[t + 1].tok.is_punct('<')
                    && operand(&toks[t + 2].tok)
                    && !toks.get(t + 3).is_some_and(|n| n.tok.is_punct('>'))
                {
                    return true;
                }
            }
            j = close;
        }
        j += 1;
    }
    false
}

/// The `tcp.rs` conn-lock discipline: a loop that accumulates guards from
/// an indexed lock family (guards escaping via `.push(..)`) must assert
/// ascending acquisition order, or concurrent callers can deadlock.
fn check_loop_discipline(
    file: &SourceFile,
    func: &crate::model::Function,
    toks: &[Token],
    events: &[Acq],
    transients: &[Transient],
    out: &mut PassOutput,
) {
    let (open, close) = func.body;
    let mut j = open + 1;
    while j < close {
        if toks[j].tok.is_ident("for") {
            // A `for` loop (not `for<'a>`): `in` appears before the body.
            let mut k = j + 1;
            let mut saw_in = false;
            while k < close && !toks[k].tok.is_punct('{') {
                saw_in |= toks[k].tok.is_ident("in");
                k += 1;
            }
            if saw_in && k < close {
                let body_end = match_brace(toks, k);
                let indexed_acq = events
                    .iter()
                    .any(|e| e.indexed && e.tok > k && e.tok < body_end)
                    || transients
                        .iter()
                        .any(|t| t.tok > k && t.tok < body_end && t.keys.iter().any(|&(_, ix)| ix));
                let has_push = (k..body_end).any(|q| {
                    toks[q].tok.is_punct('.')
                        && toks[q + 1].tok.is_ident("push")
                        && toks.get(q + 2).is_some_and(|t| t.tok.is_punct('('))
                });
                if indexed_acq && has_push {
                    if has_ascending_assert(toks, (k, body_end)) {
                        out.verified.push(format!(
                            "{}:{}: [lock-order] fn `{}` holds guards from an indexed \
                             lock family across loop iterations and asserts ascending \
                             acquisition order (conn-lock discipline verified)",
                            file.rel, toks[j].line, func.name
                        ));
                    } else {
                        out.findings.push(Finding::new(
                            PASS,
                            &file.rel,
                            toks[j].line,
                            Severity::Error,
                            format!(
                                "fn `{}` accumulates guards from an indexed lock family \
                                 across loop iterations without an ascending-order \
                                 assertion; concurrent callers locking the same sites in \
                                 a different order can deadlock — assert strictly \
                                 ascending targets (see TcpTransport::scatter)",
                                func.name
                            ),
                        ));
                    }
                }
                j = body_end;
            }
        }
        j += 1;
    }
}

/// Tarjan SCC over the acquisition graph; any component with more than one
/// lock is a potential deadlock cycle.
fn report_cycles(
    interner: &Interner,
    edges: &BTreeMap<(usize, usize), (String, u32)>,
    out: &mut PassOutput,
) {
    let n = interner.display.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges.keys() {
        adj[a].push(b);
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Iterative Tarjan (explicit work stack: (node, child cursor)).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = work.last() {
            if index[v] == usize::MAX {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(cursor) {
                if let Some(frame) = work.last_mut() {
                    frame.1 += 1;
                }
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    for mut scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        scc.sort();
        let names: Vec<&str> = scc.iter().map(|&k| interner.display[k].as_str()).collect();
        let (file, line) = scc
            .iter()
            .flat_map(|&a| scc.iter().map(move |&b| (a, b)))
            .find_map(|pair| edges.get(&pair))
            .cloned()
            .unwrap_or_default();
        out.findings.push(Finding::new(
            PASS,
            &file,
            line,
            Severity::Error,
            format!(
                "lock-order cycle between {{{}}} — two threads taking these locks in \
                 opposite orders deadlock; impose one acquisition order",
                names.join(", ")
            ),
        ));
    }
}
