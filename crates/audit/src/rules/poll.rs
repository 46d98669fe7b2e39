//! Rule 6 — **blocking-in-poll**.
//!
//! A batch drain promises to observe the world-kill within one
//! `KILL_POLL_OPS` chunk. That promise is structural — the drain loop
//! is chunked by the poll bound and the loop body touches the kill flag
//! every iteration. `AUDIT.json` declares
//! each kill-poll loop (file, the identifier chunking it, the probe
//! identifiers its body must touch) and this rule verifies the shape:
//! a declared loop missing a probe is a finding, as is a `chunks(…)`
//! loop over a poll-named bound that nobody declared. Findings accept
//! `// audit: allow(poll, reason)`.

use crate::lexer::TokenKind;
use crate::rules::{Finding, Tier};
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// One declared kill-poll loop.
#[derive(Debug, Clone)]
pub struct PollPolicy {
    pub file: String,
    /// The identifier whose value chunks the loop (`poll_ops`).
    pub chunker: String,
    /// Identifiers the loop body must touch (`killed`).
    pub probes: Vec<String>,
    pub why: String,
}

/// Scans `file` for `for … in ….chunks(<chunker>)` loops. Indices of
/// polls-table rows that matched are added to `used` so stale rows can
/// be reported at the end of the run.
pub fn scan(
    file: &SourceFile,
    tier: Tier,
    polls: &[PollPolicy],
    used: &mut BTreeSet<usize>,
) -> Vec<Finding> {
    if tier == Tier::Test {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, tok) in file.tokens.iter().enumerate() {
        if !tok.is_ident("chunks") || file.in_test_region(i) {
            continue;
        }
        let Some((open, _)) = file.next_code_token(i + 1).filter(|(_, t)| t.is_punct('(')) else {
            continue;
        };
        let Some(close) = match_paren(file, open) else {
            continue;
        };
        let Some(chunker) = last_ident_between(file, open, close) else {
            continue; // literal chunk size: not a named poll bound
        };
        if !is_for_loop(file, i) {
            continue;
        }
        let row = polls
            .iter()
            .position(|p| p.file == file.rel_path && p.chunker == chunker);
        match row {
            Some(ri) => {
                used.insert(ri);
                let Some(body) = loop_body(file, close) else {
                    continue;
                };
                for probe in &polls[ri].probes {
                    if !body_touches(file, body, probe) {
                        out.push(
                            Finding::new(
                                "blocking-in-poll",
                                &file.rel_path,
                                tok.line,
                                tok.col,
                                format!(
                                    "kill-poll loop chunked by `{chunker}` never touches \
                                     `{probe}` in its body: every chunk boundary must observe \
                                     the kill flag within the declared \
                                     `KILL_POLL_OPS` bound (AUDIT.json polls table)"
                                ),
                            )
                            .allowed_by(&["poll"]),
                        );
                    }
                }
            }
            None if tier == Tier::Policy && chunker.to_ascii_lowercase().contains("poll") => {
                out.push(
                    Finding::new(
                        "blocking-in-poll",
                        &file.rel_path,
                        tok.line,
                        tok.col,
                        format!(
                            "kill-poll loop chunked by `{chunker}` is not declared in \
                             AUDIT.json's polls table: declare its chunker and required \
                             probe identifiers"
                        ),
                    )
                    .allowed_by(&["poll"]),
                );
            }
            None => {}
        }
    }
    out
}

/// The matching `)` for the `(` at `open`.
fn match_paren(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in file.tokens.iter().enumerate().skip(open) {
        if t.is_comment() {
            continue;
        }
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The final identifier of the chunk-size expression between `open`
/// and `close` (`sharded::KILL_POLL_OPS` → `KILL_POLL_OPS`).
fn last_ident_between(file: &SourceFile, open: usize, close: usize) -> Option<String> {
    file.tokens[open + 1..close]
        .iter()
        .rev()
        .find(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
}

/// Whether the `chunks` token at `i` sits in a `for … in …` header:
/// a `for` keyword appears earlier in the same statement.
fn is_for_loop(file: &SourceFile, i: usize) -> bool {
    let mut k = i;
    let mut walked = 0usize;
    while let Some((pk, p)) = file.prev_code_token(k) {
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            return false;
        }
        if p.is_ident("for") {
            return true;
        }
        k = pk;
        walked += 1;
        if walked > 64 {
            return false;
        }
    }
    false
}

/// The loop body braces following the chunks call at `close`: the
/// first `{` at paren depth 0 (skipping adapter chains such as
/// `.enumerate()`) and its match.
fn loop_body(file: &SourceFile, close: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut j = close + 1;
    while j < file.tokens.len() {
        let t = &file.tokens[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if paren == 0 && t.is_punct('{') {
            let mut depth = 0i32;
            for (k, u) in file.tokens.iter().enumerate().skip(j) {
                if u.is_comment() {
                    continue;
                }
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some((j, k));
                    }
                }
            }
            return None;
        }
        j += 1;
    }
    None
}

/// Whether any non-comment token in `body` is the ident `probe`.
fn body_touches(file: &SourceFile, body: (usize, usize), probe: &str) -> bool {
    file.tokens[body.0..=body.1]
        .iter()
        .any(|t| !t.is_comment() && t.is_ident(probe))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn polls() -> Vec<PollPolicy> {
        vec![PollPolicy {
            file: "crates/toleo-core/src/sharded.rs".into(),
            chunker: "poll_ops".into(),
            probes: vec!["killed".into()],
            why: "kill-poll bound".into(),
        }]
    }

    fn scan_src(src: &str, polls: &[PollPolicy]) -> (Vec<Finding>, BTreeSet<usize>) {
        let file = SourceFile::parse("crates/toleo-core/src/sharded.rs", src);
        let mut used = BTreeSet::new();
        let findings = scan(&file, Tier::Policy, polls, &mut used);
        (findings, used)
    }

    #[test]
    fn compliant_poll_loop_is_clean() {
        let (f, used) = scan_src(
            "fn run(&self) { for chunk in q.chunks(poll_ops) { \
             if self.killed.load(Ordering::Acquire) { return; } } }",
            &polls(),
        );
        assert!(f.is_empty(), "{f:?}");
        assert!(used.contains(&0));
    }

    #[test]
    fn missing_probe_is_flagged() {
        let (f, _) = scan_src(
            "fn run(&self) { for chunk in q.chunks(poll_ops) { serve(chunk); } }",
            &polls(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("never touches `killed`"));
    }

    #[test]
    fn undeclared_poll_loop_is_flagged() {
        let (f, _) = scan_src(
            "fn run(&self) { for c in q.chunks(other_poll_ops) { work(c); } }",
            &polls(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not declared"));
    }

    #[test]
    fn literal_and_non_poll_chunking_is_ignored() {
        let (f, _) = scan_src(
            "fn run(&self) { for c in q.chunks(64) {} for c in q.chunks(batch) {} }",
            &polls(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_loop_chunks_call_is_ignored() {
        let (f, used) = scan_src("fn run(&self) { let it = q.chunks(poll_ops); }", &polls());
        assert!(f.is_empty(), "{f:?}");
        assert!(used.is_empty());
    }

    #[test]
    fn adapter_chain_still_finds_body() {
        let (f, _) = scan_src(
            "fn run(&self) { for (i, c) in q.chunks(poll_ops).enumerate() { \
             self.killed.load(Ordering::Acquire); } }",
            &polls(),
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
