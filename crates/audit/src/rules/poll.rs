//! Rule 6 — **blocking-in-poll**.
//!
//! A batch drain promises to observe the world-kill within one
//! `KILL_POLL_OPS` chunk. That promise is structural — the drain loop
//! is chunked by the poll bound and the loop body loads the kill flag
//! every iteration. `AUDIT.json` declares
//! each kill-poll loop (file, the identifier chunking it, the probe
//! identifiers its body must load) and this rule verifies the shape:
//! a declared loop with no `<probe>.load(` in its body is a finding (a
//! `<probe>.store(…)` is not a poll), as is a `chunks(…)` loop over a
//! poll-named bound that nobody declared. Findings accept
//! `// audit: allow(poll, reason)`.

use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, Matched, Tier};
use crate::source::SourceFile;

/// One declared kill-poll loop.
#[derive(Debug, Clone)]
pub struct PollPolicy {
    pub file: String,
    /// The identifier whose value chunks the loop (`poll_ops`).
    pub chunker: String,
    /// Identifiers the loop body must load (`killed`).
    pub probes: Vec<String>,
    pub why: String,
}

/// Scans `file` for `for … in ….chunks(<chunker>)` loops, recording the
/// polls-table rows that matched in `matched`.
pub fn scan(
    file: &SourceFile,
    tier: Tier,
    polls: &[PollPolicy],
    matched: &mut Matched,
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
        let Some(close) = file.partner(open) else {
            continue;
        };
        // The chunk size's final identifier (`sharded::KILL_POLL_OPS` →
        // `KILL_POLL_OPS`); a literal is not a named poll bound.
        let mut chunk_size = file.tokens[open + 1..close].iter().rev();
        let Some(chunker) = chunk_size.find(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let chunker = &chunker.text;
        // A `for … in …` header: `for` earlier in the same statement.
        let header = &file.tokens[file.stmt_start(i)..i];
        if !header.iter().any(|t| t.is_ident("for")) {
            continue;
        }
        let row = polls
            .iter()
            .position(|p| p.file == file.rel_path && &p.chunker == chunker);
        match row {
            Some(ri) => {
                matched.insert(("polls", ri));
                let Some((open, close)) = file.item_body(close + 1) else {
                    continue;
                };
                let body = &file.tokens[open..=close];
                for probe in &polls[ri].probes {
                    let loads = |w: &[Token]| {
                        w[0].is_ident(probe)
                            && w[1].is_punct('.')
                            && w[2].is_ident("load")
                            && w[3].is_punct('(')
                    };
                    if !body.windows(4).any(loads) {
                        out.push(
                            Finding::new(
                                "blocking-in-poll",
                                &file.rel_path,
                                tok.line,
                                tok.col,
                                format!(
                                    "kill-poll loop chunked by `{chunker}` never loads \
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
        let mut matched = Matched::new();
        let findings = scan(&file, Tier::Policy, polls, &mut matched);
        (findings, matched.iter().map(|&(_, row)| row).collect())
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
        assert!(f[0].message.contains("never loads `killed`"));
    }

    /// Storing the flag is the escalation, not a poll: a body that only
    /// sets `killed` never observes another caller's kill.
    #[test]
    fn store_only_probe_is_flagged() {
        let (f, _) = scan_src(
            "fn run(&self) { for chunk in q.chunks(poll_ops) { \
             if serve(chunk).is_err() { self.killed.store(true, Ordering::Release); } } }",
            &polls(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("never loads `killed`"));
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
