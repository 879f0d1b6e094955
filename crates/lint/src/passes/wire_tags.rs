//! Pass 4 — wire-tag exhaustiveness.
//!
//! In `wire.rs`, every `impl` that has both an encoder and a `decode`
//! function claims one tag byte per variant: encode arms start with
//! `buf.put_u8(N)` and decode matches on integer patterns. The encoder is
//! whichever of `encode` / `encode_into` holds the `match self` — since
//! frames are built in place, `encode` is a thin wrapper and the arms live
//! in `encode_into`. An owned type may instead encode through a borrowed
//! view of itself: its encoder holds no tagged match, writes what it adds
//! (a trace envelope) itself or through a free function of the file, and
//! hands the rest to the view that one of its own methods returns (`fn
//! as_request(&self) -> Request<'_>`). The view has no `decode`, so its
//! tags, with the owner's own, are checked against the owner's `decode`.
//! This pass
//! cross-checks, per impl, that the two sets agree and that no tag is
//! claimed twice on either side. Only the *top-level* match arms count —
//! nested sub-tag matches (e.g. the `StorageFault` encoding inside the
//! `ApplyWriteFaulty` arm) are one brace level deeper and are ignored,
//! which is exactly right: their tag space is independent.

use super::PassOutput;
use crate::lexer::{Tok, Token};
use crate::model::{match_brace, Function, SourceFile, Workspace};
use crate::{Finding, Severity};
use std::collections::BTreeMap;

const PASS: &str = "wire-tags";

/// Tags with the line that claims each.
type Tags = Vec<(u64, u32)>;

pub(crate) fn run(ws: &Workspace, out: &mut PassOutput) {
    for file in &ws.files {
        if file.stem != "wire" {
            continue;
        }
        let toks = file.tokens();
        // impl type -> (encoder candidates, decode fn)
        let mut pairs: BTreeMap<&str, (Vec<&Function>, Option<&Function>)> = BTreeMap::new();
        for func in &file.functions {
            if let Some(ty) = func.impl_type.as_deref() {
                let entry = pairs.entry(ty).or_default();
                match func.name.as_str() {
                    "encode" | "encode_into" => entry.0.push(func),
                    "decode" => entry.1 = Some(func),
                    _ => {}
                }
            }
        }
        // Each type's own tagged encoder: the candidate that holds the
        // tagged match.
        let tagged: BTreeMap<&str, (&Function, Tags)> = pairs
            .iter()
            .filter_map(|(&ty, (encoders, _))| {
                let mut found = encoders.iter().map(|&f| (f, encode_tags(toks, f)));
                Some((ty, found.find(|(_, tags)| !tags.is_empty())?))
            })
            .collect();
        for (&ty, (encoders, decode)) in &pairs {
            let Some(decode) = decode else {
                continue;
            };
            let encoder = match tagged.get(ty) {
                Some((func, tags)) => Some((*func, tags.clone(), None)),
                None => encoders.iter().find_map(|&func| {
                    let (view, tags) = delegated(file, func, &tagged)?;
                    Some((func, tags, Some(view)))
                }),
            };
            let Some((encode, encode_tags, view)) = encoder else {
                continue;
            };
            let decode_tags = decode_tags(toks, decode);
            if decode_tags.is_empty() {
                continue;
            }
            check(ty, &file.rel, &encode_tags, &decode_tags, out);
            let via = view
                .map(|v| format!(" (through `{v}`)"))
                .unwrap_or_default();
            out.verified.push(format!(
                "{}:{}: [wire-tags] `{ty}` encode{via}/decode cover tags {{{}}}",
                file.rel,
                encode.line,
                render_tags(&encode_tags)
            ));
        }
    }
}

/// The tags an encoder with no tagged match of its own writes: each
/// `put_u8(N)` in its body, the first one in each free function of the file
/// it calls, and the tags of the view it delegates to — the type a method
/// of its own impl returns, when that type has a tagged encoder. `None`
/// when it names no such view.
fn delegated(
    file: &SourceFile,
    func: &Function,
    tagged: &BTreeMap<&str, (&Function, Tags)>,
) -> Option<(String, Tags)> {
    let toks = file.tokens();
    let (open, close) = func.body;
    let mut tags = Vec::new();
    let mut view = None;
    for j in open + 1..close {
        let Some(name) = toks[j].tok.ident() else {
            continue;
        };
        if !toks[j + 1].tok.is_punct('(') {
            continue;
        }
        if name == "put_u8" {
            if let Tok::Int(v) = toks[j + 2].tok {
                tags.push((v, toks[j].line));
            }
            continue;
        }
        let method = toks[j - 1].tok.is_punct('.');
        let callee = file.functions.iter().find(|f| {
            f.name == name
                && if method {
                    f.impl_type == func.impl_type
                } else {
                    f.impl_type.is_none()
                }
        });
        match callee {
            Some(f) if !method => tags.extend(first_put_u8(toks, f.body.0, f.body.1)),
            Some(f) => {
                if let Some(ty) = return_type(toks, f).filter(|ty| tagged.contains_key(ty)) {
                    view = Some(ty.to_string());
                }
            }
            None => {}
        }
    }
    let view = view?;
    tags.extend(tagged[view.as_str()].1.iter().copied());
    Some((view, tags))
}

/// The type a function's signature names first after `->`.
fn return_type<'t>(toks: &'t [Token], func: &Function) -> Option<&'t str> {
    let (start, end) = func.sig;
    let arrow =
        (start..end).find(|&j| toks[j].tok.is_punct('-') && toks[j + 1].tok.is_punct('>'))?;
    toks[arrow + 2..end].iter().find_map(|t| t.tok.ident())
}

/// The tag the first `put_u8(` in `toks[from..to]` writes, if it is a
/// literal.
fn first_put_u8(toks: &[Token], from: usize, to: usize) -> Option<(u64, u32)> {
    let j = (from..to.saturating_sub(2))
        .find(|&j| toks[j].tok.is_ident("put_u8") && toks[j + 1].tok.is_punct('('))?;
    match toks[j + 2].tok {
        Tok::Int(v) => Some((v, toks[j].line)),
        _ => None,
    }
}

/// Tags claimed by an encoder: the first `put_u8(N)` in each top-level arm
/// of the `match self`.
fn encode_tags(toks: &[Token], func: &Function) -> Tags {
    let Some((open, close)) = self_match(toks, func) else {
        return Vec::new();
    };
    let arms = arm_starts(toks, open, close);
    let ends = arms.iter().skip(1).copied().chain([close]);
    arms.iter()
        .zip(ends)
        .filter_map(|(&arm, end)| first_put_u8(toks, arm, end))
        .collect()
}

/// Tags matched by `decode`: integer literals in the top-level arm
/// patterns of its first `match`.
fn decode_tags(toks: &[Token], func: &Function) -> Tags {
    let (fopen, fclose) = func.body;
    let mut m = fopen + 1;
    let mut found = None;
    while m < fclose {
        if toks[m].tok.is_ident("match") {
            let mut k = m + 1;
            while k < fclose && !toks[k].tok.is_punct('{') {
                k += 1;
            }
            if k < fclose {
                found = Some((k, match_brace(toks, k)));
            }
            break;
        }
        m += 1;
    }
    let Some((open, close)) = found else {
        return Vec::new();
    };
    let mut tags = Vec::new();
    for arm in arm_starts(toks, open, close) {
        // Walk back over the pattern: integer literals joined by `|`.
        let mut k = arm; // index of the `=` of `=>`
        while k > open + 1 {
            match &toks[k - 1].tok {
                Tok::Int(v) => {
                    tags.push((*v, toks[k - 1].line));
                    k -= 1;
                }
                Tok::Punct('|') => k -= 1,
                _ => break,
            }
        }
    }
    tags
}

/// Finds the `match self { .. }` (or `match *self`) block in `func`.
fn self_match(toks: &[Token], func: &Function) -> Option<(usize, usize)> {
    let (open, close) = func.body;
    let mut j = open + 1;
    while j < close {
        if toks[j].tok.is_ident("match") {
            let mut k = j + 1;
            let mut has_self = false;
            while k < close && !toks[k].tok.is_punct('{') {
                has_self |= toks[k].tok.is_ident("self");
                k += 1;
            }
            if has_self && k < close {
                return Some((k, match_brace(toks, k)));
            }
        }
        j += 1;
    }
    None
}

/// Indices of the `=` of every depth-1 `=>` inside a match block.
fn arm_starts(toks: &[Token], open: usize, close: usize) -> Vec<usize> {
    let mut arms = Vec::new();
    let mut depth = 0i32;
    for j in open..close {
        match &toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth -= 1,
            Tok::Punct('=')
                if depth == 1
                    && toks.get(j + 1).is_some_and(|t| t.tok.is_punct('>'))
                    && !toks[j - 1].tok.is_punct('=')
                    && !toks[j - 1].tok.is_punct('<')
                    && !toks[j - 1].tok.is_punct('>') =>
            {
                arms.push(j);
            }
            _ => {}
        }
    }
    arms
}

fn check(ty: &str, rel: &str, encode: &[(u64, u32)], decode: &[(u64, u32)], out: &mut PassOutput) {
    for (side, tags) in [("encode", encode), ("decode", decode)] {
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        for &(v, line) in tags {
            if let Some(&first) = seen.get(&v) {
                out.findings.push(Finding::new(
                    PASS,
                    rel,
                    line,
                    Severity::Error,
                    format!(
                        "`{ty}` {side} claims wire tag {v} twice (first at line \
                         {first}) — one variant is unreachable on the wire"
                    ),
                ));
            } else {
                seen.insert(v, line);
            }
        }
    }
    for &(v, line) in encode {
        if !decode.iter().any(|&(d, _)| d == v) {
            out.findings.push(Finding::new(
                PASS,
                rel,
                line,
                Severity::Error,
                format!(
                    "`{ty}` encodes wire tag {v} but decode has no arm for it — \
                     peers cannot parse this variant"
                ),
            ));
        }
    }
    for &(v, line) in decode {
        if !encode.iter().any(|&(e, _)| e == v) {
            out.findings.push(Finding::new(
                PASS,
                rel,
                line,
                Severity::Error,
                format!(
                    "`{ty}` decodes wire tag {v} but encode never produces it — \
                     orphan tag (stale arm or missing encode case)"
                ),
            ));
        }
    }
}

fn render_tags(tags: &[(u64, u32)]) -> String {
    let mut vals: Vec<u64> = tags.iter().map(|&(v, _)| v).collect();
    vals.sort_unstable();
    vals.dedup();
    let strs: Vec<String> = vals.iter().map(u64::to_string).collect();
    strs.join(", ")
}
