//! Pass 4 — wire-tag exhaustiveness.
//!
//! In `wire.rs`, every `impl` that has both an encoder and a `decode`
//! function claims one tag byte per variant: encode arms start with
//! `buf.put_u8(N)` and decode matches on integer patterns. The encoder is
//! whichever of `encode` / `encode_into` holds the `match self` — since
//! frames are built in place, `encode` is a thin wrapper and the arms live
//! in `encode_into`. This pass
//! cross-checks, per impl, that the two sets agree and that no tag is
//! claimed twice on either side. Only the *top-level* match arms count —
//! nested sub-tag matches (e.g. the `StorageFault` encoding inside the
//! `ApplyWriteFaulty` arm) are one brace level deeper and are ignored,
//! which is exactly right: their tag space is independent.

use super::PassOutput;
use crate::lexer::{Tok, Token};
use crate::model::{match_brace, Function, Workspace};
use crate::{Finding, Severity};
use std::collections::BTreeMap;

const PASS: &str = "wire-tags";

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
        for (ty, (encoders, decode)) in pairs {
            // The encoder is the candidate that holds the tagged match.
            let encoder = encoders
                .into_iter()
                .map(|func| (func, encode_tags(toks, func)))
                .find(|(_, tags)| !tags.is_empty());
            let (Some((encode, encode_tags)), Some(decode)) = (encoder, decode) else {
                continue;
            };
            let decode_tags = decode_tags(toks, decode);
            if decode_tags.is_empty() {
                continue;
            }
            check(ty, &file.rel, &encode_tags, &decode_tags, out);
            out.verified.push(format!(
                "{}:{}: [wire-tags] `{ty}` encode/decode cover tags {{{}}}",
                file.rel,
                encode.line,
                render_tags(&encode_tags)
            ));
        }
    }
}

/// Tags claimed by an encoder: the first `put_u8(N)` in each top-level arm
/// of the `match self`.
fn encode_tags(toks: &[Token], func: &Function) -> Vec<(u64, u32)> {
    let Some((open, close)) = self_match(toks, func) else {
        return Vec::new();
    };
    let arms = arm_starts(toks, open, close);
    let mut tags = Vec::new();
    for (i, &arm) in arms.iter().enumerate() {
        let end = arms.get(i + 1).copied().unwrap_or(close);
        let mut j = arm;
        while j + 2 < end {
            if toks[j].tok.is_ident("put_u8") && toks[j + 1].tok.is_punct('(') {
                if let Tok::Int(v) = toks[j + 2].tok {
                    tags.push((v, toks[j].line));
                }
                break;
            }
            j += 1;
        }
    }
    tags
}

/// Tags matched by `decode`: integer literals in the top-level arm
/// patterns of its first `match`.
fn decode_tags(toks: &[Token], func: &Function) -> Vec<(u64, u32)> {
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
