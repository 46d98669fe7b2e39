//! Rule 5 — **lock discipline**.
//!
//! The sharded engine holds one mutex class — one lock per shard,
//! guarding that shard's engine (its lost-block ledger included), key
//! generation, quarantine flag and counters — and stays deadlock-free because nothing that runs under
//! a shard lock takes another: the world-kill, which locks every shard
//! in turn, and `recover_shard`, which re-locks its own, are only ever
//! called with none held. `AUDIT.json` declares the classes (in
//! outermost-first order, should there be more than one), the
//! identifiers that acquire each, and the calls forbidden while one is
//! held. This rule lexically tracks guard lifetimes per function
//! (let-bound guards live to the end of their block or an explicit
//! `drop`; temporaries to the end of their statement), propagates
//! which classes each named function acquires through `self.…`, path
//! and bare calls (to a fixpoint), and reports:
//!
//! - lock-order inversions, direct or via a call — including
//!   same-class re-entry, which self-deadlocks;
//! - forbidden calls (escalation, recovery, panics, I/O) inside a held
//!   critical section;
//! - `.lock()` on a receiver no class declares — every mutex must be
//!   classified.
//!
//! The tracking is lexical and deliberately conservative in the
//! *under*-held direction (a `match` on a guard temporary is treated
//! as statement-scoped), so it can miss, but a finding is real.
//! Findings accept `// audit: allow(lock, reason)`.

use crate::lexer::TokenKind;
use crate::rules::{Finding, Matched};
use crate::source::{FnBody, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One declared mutex class. Order in the table is lock order:
/// a class may only be acquired while holding strictly earlier ones.
#[derive(Debug, Clone)]
pub struct LockClass {
    pub class: String,
    /// Identifiers that acquire the class: helper-function names
    /// (`lock_shard`) and `.lock()` receiver fields (`shards`).
    pub acquire: Vec<String>,
    /// Identifiers that must not be called while the class is held.
    pub forbid: Vec<String>,
    pub why: String,
}

/// A held lock at a point in the walk.
struct Held {
    class: usize,
    binding: Option<String>,
    /// Brace depth at acquisition (body `{` = depth 1).
    depth: i32,
    /// Paren depth at acquisition, for statement-scoped release.
    paren: i32,
    /// Temporary guard: released at the end of its statement.
    stmt: bool,
    line: u32,
}

/// Scans `files` (policy tier) against the declared lock classes,
/// recording the classes that matched an acquisition in `matched`.
pub fn scan_workspace(
    files: &[&SourceFile],
    classes: &[LockClass],
    matched: &mut Matched,
) -> Vec<Finding> {
    let fns: Vec<(&SourceFile, &FnBody)> = files
        .iter()
        .flat_map(|&file| file.fns.iter().map(move |f| (file, f)))
        .collect();

    // Pass 1: per-function direct acquisitions and eligible call edges.
    let mut direct: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for &(file, f) in &fns {
        let mut w = Walk::new(file, classes, None, matched);
        w.run(f);
        direct.entry(f.name.clone()).or_default().extend(w.direct);
        edges.entry(f.name.clone()).or_default().extend(w.calls);
    }

    // Fixpoint: a function acquires what its callees acquire.
    let mut summary = direct;
    loop {
        let mut changed = false;
        let snapshot = summary.clone();
        for (name, callees) in &edges {
            let entry = summary.entry(name.clone()).or_default();
            let before = entry.len();
            for callee in callees {
                if let Some(acquired) = snapshot.get(callee) {
                    entry.extend(acquired.iter().copied());
                }
            }
            changed |= entry.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Pass 2: report with summaries in hand.
    let mut findings = Vec::new();
    for &(file, f) in &fns {
        let mut w = Walk::new(file, classes, Some(&summary), matched);
        w.run(f);
        findings.append(&mut w.findings);
    }
    findings
}

struct Walk<'a> {
    file: &'a SourceFile,
    classes: &'a [LockClass],
    /// `Some` on the report pass, `None` on the collect pass.
    summaries: Option<&'a BTreeMap<String, BTreeSet<usize>>>,
    matched: &'a mut Matched,
    direct: BTreeSet<usize>,
    calls: BTreeSet<String>,
    findings: Vec<Finding>,
}

impl<'a> Walk<'a> {
    fn new(
        file: &'a SourceFile,
        classes: &'a [LockClass],
        summaries: Option<&'a BTreeMap<String, BTreeSet<usize>>>,
        matched: &'a mut Matched,
    ) -> Walk<'a> {
        Walk {
            file,
            classes,
            summaries,
            matched,
            direct: BTreeSet::new(),
            calls: BTreeSet::new(),
            findings: Vec::new(),
        }
    }

    fn order(&self) -> String {
        self.classes
            .iter()
            .map(|c| c.class.as_str())
            .collect::<Vec<_>>()
            .join(" < ")
    }

    fn run(&mut self, f: &FnBody) {
        // Nested named fns are walked as their own entries.
        let nested: Vec<(usize, usize)> = (self.file.fns.iter())
            .filter(|g| g.body.0 > f.body.0 && g.body.1 < f.body.1)
            .map(|g| g.body)
            .collect();
        let mut depth = 0i32;
        let mut paren = 0i32;
        let mut held: Vec<Held> = Vec::new();
        let mut j = f.body.0;
        while j <= f.body.1 {
            if let Some(&(_, end)) = nested.iter().find(|&&(s, _)| s == j) {
                j = end + 1;
                continue;
            }
            let t = &self.file.tokens[j];
            if t.is_comment() {
                j += 1;
                continue;
            }
            if t.is_punct('{') {
                held.retain(|h| !(h.stmt && h.depth == depth && h.paren >= paren));
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            } else if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct(';') {
                held.retain(|h| !(h.stmt && h.depth == depth && h.paren >= paren));
            } else if t.kind == TokenKind::Ident {
                j = self.ident(j, depth, paren, &mut held);
                continue;
            }
            j += 1;
        }
    }

    /// Handles the ident at `j`; returns the next token index to visit.
    fn ident(&mut self, j: usize, depth: i32, paren: i32, held: &mut Vec<Held>) -> usize {
        let t = &self.file.tokens[j];
        let after_fn = self
            .file
            .prev_code_token(j)
            .is_some_and(|(_, p)| p.is_ident("fn"));
        if after_fn {
            return j + 1;
        }
        let next = self.file.next_code_token(j + 1);
        let is_call = next.is_some_and(|(_, n)| n.is_punct('('));
        let is_macro = next.is_some_and(|(ni, n)| {
            n.is_punct('!')
                && self
                    .file
                    .next_code_token(ni + 1)
                    .is_some_and(|(_, n2)| n2.is_punct('(') || n2.is_punct('[') || n2.is_punct('{'))
        });
        if !is_call && !is_macro {
            return j + 1;
        }

        // `drop(guard)` releases a let-bound guard early.
        if t.is_ident("drop") && is_call {
            if let Some((oi, _)) = next {
                if let Some((ai, arg)) = self.file.next_code_token(oi + 1) {
                    let closes = self
                        .file
                        .next_code_token(ai + 1)
                        .is_some_and(|(_, c)| c.is_punct(')'));
                    if arg.kind == TokenKind::Ident && closes {
                        let name = arg.text.clone();
                        held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
                        return j + 1; // let the walk balance the parens
                    }
                }
            }
        }

        // Acquisition?
        if is_call {
            if let Some(class) = self.acquisition_class(j, t) {
                self.matched.insert(("locks", class));
                self.direct.insert(class);
                if self.summaries.is_some() {
                    for h in held.iter() {
                        if class <= h.class {
                            self.findings.push(
                                Finding::new(
                                    "lock-discipline",
                                    &self.file.rel_path,
                                    t.line,
                                    t.col,
                                    format!(
                                        "lock-order inversion: acquiring `{}` while `{}` \
                                         (held since line {}) is still held; declared order \
                                         is {} and same-class re-entry self-deadlocks",
                                        self.classes[class].class,
                                        self.classes[h.class].class,
                                        h.line,
                                        self.order()
                                    ),
                                )
                                .allowed_by(&["lock"]),
                            );
                        }
                    }
                }
                let binding = self.let_binding(j);
                held.push(Held {
                    class,
                    binding: binding.clone(),
                    depth,
                    paren,
                    stmt: binding.is_none(),
                    line: t.line,
                });
                return j + 1;
            }
        }

        // Forbidden call inside a held section?
        if self.summaries.is_some() {
            for h in held.iter() {
                if self.classes[h.class].forbid.contains(&t.text) {
                    self.findings.push(
                        Finding::new(
                            "lock-discipline",
                            &self.file.rel_path,
                            t.line,
                            t.col,
                            format!(
                                "`{}` called while `{}` (held since line {}) is held: \
                                 forbidden by the locks table — {}",
                                t.text,
                                self.classes[h.class].class,
                                h.line,
                                self.classes[h.class].why
                            ),
                        )
                        .allowed_by(&["lock"]),
                    );
                }
            }
        }

        // Interprocedural edge: only calls whose callee we can name
        // reliably (self-chains, paths, bare idents — never method
        // calls on locals or call results).
        if is_call && self.eligible_callee(j) {
            match self.summaries {
                None => {
                    self.calls.insert(t.text.clone());
                }
                Some(summary) => {
                    if let Some(acquired) = summary.get(&t.text) {
                        for &class in acquired {
                            for h in held.iter() {
                                if class <= h.class {
                                    self.findings.push(
                                        Finding::new(
                                            "lock-discipline",
                                            &self.file.rel_path,
                                            t.line,
                                            t.col,
                                            format!(
                                                "call to `{}` acquires `{}` while `{}` (held \
                                                 since line {}) is still held: lock-order \
                                                 inversion (declared order: {})",
                                                t.text,
                                                self.classes[class].class,
                                                self.classes[h.class].class,
                                                h.line,
                                                self.order()
                                            ),
                                        )
                                        .allowed_by(&["lock"]),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        j + 1
    }

    /// The class acquired by the call at `j`, if any. Reports `.lock()`
    /// on unclassified receivers as a finding (report pass only).
    fn acquisition_class(&mut self, j: usize, t: &crate::lexer::Token) -> Option<usize> {
        if let Some(ci) = self
            .classes
            .iter()
            .position(|c| c.acquire.contains(&t.text))
        {
            // Helper-function style (`lock_shard(i)`) — but only when
            // actually invoked, which `is_call` already established.
            return Some(ci);
        }
        if t.is_ident("lock") {
            let preceded_by_dot = self
                .file
                .prev_code_token(j)
                .is_some_and(|(_, p)| p.is_punct('.'));
            if preceded_by_dot {
                if let Some(recv) = self.receiver_field(j) {
                    if let Some(ci) = self.classes.iter().position(|c| c.acquire.contains(&recv)) {
                        return Some(ci);
                    }
                    if self.summaries.is_some() {
                        self.findings.push(
                            Finding::new(
                                "lock-discipline",
                                &self.file.rel_path,
                                t.line,
                                t.col,
                                format!(
                                    "`.lock()` on `{recv}` which no locks-table class \
                                     declares: classify the mutex and its place in the \
                                     lock order in AUDIT.json"
                                ),
                            )
                            .allowed_by(&["lock"]),
                        );
                    }
                }
            }
        }
        None
    }

    /// The field ident a `.lock()` call is invoked on, skipping index
    /// groups: `self.shards[index].lock()` → `shards`.
    fn receiver_field(&self, lock_idx: usize) -> Option<String> {
        let (di, dot) = self.file.prev_code_token(lock_idx)?;
        if !dot.is_punct('.') {
            return None;
        }
        let (mut k, mut t) = self.file.prev_code_token(di)?;
        while t.is_punct(']') {
            let open = self.file.partner(k)?;
            let (pk, pt) = self.file.prev_code_token(open)?;
            k = pk;
            t = pt;
        }
        (t.kind == TokenKind::Ident).then(|| t.text.clone())
    }

    /// Whether the call at `j` names a callee our summaries can track:
    /// a bare ident, a `path::call()`, or a `self.a.b.call()` chain of
    /// plain fields. Method calls on locals or on call results resolve
    /// through types we don't model, so they are excluded.
    fn eligible_callee(&self, j: usize) -> bool {
        let Some((pi, prev)) = self.file.prev_code_token(j) else {
            return true;
        };
        if prev.is_punct(':') {
            return true; // `Self::f(…)`, `layout::page_of(…)`
        }
        if !prev.is_punct('.') {
            return true; // bare call
        }
        // Walk the field chain back to `self`.
        let mut dot = pi;
        loop {
            let Some((si, seg)) = self.file.prev_code_token(dot) else {
                return false;
            };
            if seg.kind != TokenKind::Ident {
                return false; // `)`/`]` receiver: a call or index result
            }
            if seg.is_ident("self") {
                return true;
            }
            match self.file.prev_code_token(si) {
                Some((ndi, nd)) if nd.is_punct('.') => dot = ndi,
                _ => return false, // chain roots at a local
            }
        }
    }

    /// If the call at `j` is the initializer of a `let` statement,
    /// the bound name (skipping `mut` and one level of `&`).
    fn let_binding(&self, j: usize) -> Option<String> {
        let start = self.file.stmt_start(j);
        if !self.file.tokens[start].is_ident("let") {
            return None;
        }
        let (mi, mut name) = self.file.next_code_token(start + 1)?;
        if name.is_ident("mut") {
            (_, name) = self.file.next_code_token(mi + 1)?;
        }
        (name.kind == TokenKind::Ident).then(|| name.text.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<LockClass> {
        vec![
            LockClass {
                class: "shard_engine".into(),
                acquire: vec!["lock_shard".into(), "shards".into()],
                forbid: vec!["trip_kill".into(), "unwrap".into(), "panic".into()],
                why: "shard critical sections must stay panic-free".into(),
            },
            LockClass {
                class: "lost_ledger".into(),
                acquire: vec!["lock_lost".into(), "lost".into()],
                forbid: vec![],
                why: "leaf lock".into(),
            },
            LockClass {
                class: "recovery_totals".into(),
                acquire: vec!["lock_totals".into(), "totals".into()],
                forbid: vec![],
                why: "leaf lock".into(),
            },
        ]
    }

    fn scan_src(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/toleo-core/src/sharded.rs", src);
        let mut matched = Matched::new();
        scan_workspace(&[&file], &classes(), &mut matched)
    }

    #[test]
    fn ascending_order_is_clean() {
        let f = scan_src(
            "impl E { fn ok(&self) { let g = self.lock_shard(0); let t = self.lock_totals(); \
             t.n += 1; drop(t); drop(g); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direct_inversion_is_flagged() {
        let f = scan_src(
            "impl E { fn bad(&self) { let t = self.lock_totals(); let g = self.lock_shard(0); } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock-order inversion"));
        assert!(f[0].message.contains("`shard_engine`"));
    }

    #[test]
    fn inversion_via_call_is_flagged() {
        let f = scan_src(
            "impl E {\n fn helper(&self) { let g = self.lock_shard(0); g.poke(); }\n \
             fn bad(&self) { let t = self.lock_totals(); self.helper(); } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0]
            .message
            .contains("call to `helper` acquires `shard_engine`"));
    }

    #[test]
    fn transitive_summary_reaches_fixpoint() {
        let f = scan_src(
            "impl E {\n fn leaf(&self) { let g = self.lock_shard(0); }\n \
             fn mid(&self) { self.leaf(); }\n \
             fn bad(&self) { let g = self.lock_shard(1); self.mid(); } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("same-class") || f[0].message.contains("call to `mid`"));
    }

    #[test]
    fn forbidden_call_under_lock_is_flagged() {
        let f =
            scan_src("impl E { fn bad(&self) { let g = self.lock_shard(0); self.trip_kill(); } }");
        assert!(
            f.iter().any(|x| x
                .message
                .contains("`trip_kill` called while `shard_engine`")),
            "{f:?}"
        );
    }

    #[test]
    fn block_scoped_guard_releases() {
        let f = scan_src(
            "impl E { fn ok(&self) { { let g = self.lock_shard(0); g.poke(); } \
             self.trip_kill_free(); let t = self.lock_totals(); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn temporary_guard_is_statement_scoped() {
        let f = scan_src(
            "impl E { fn ok(&self) { self.lock_shard(0).force_kill(); \
             let t = self.lock_totals(); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_releases_early() {
        let f = scan_src(
            "impl E { fn ok(&self) { let g = self.lock_shard(0); drop(g); \
             let g2 = self.lock_shard(1); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unclassified_mutex_is_flagged() {
        let f = scan_src("impl E { fn f(&self) { self.extra.lock(); } }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`.lock()` on `extra`"));
    }

    #[test]
    fn method_on_guard_does_not_false_positive() {
        // `.stats()` on the guard returned by lock_shard must not pull
        // in the summary of an unrelated fn also named `stats`.
        let f = scan_src(
            "impl E {\n fn stats(&self) -> u64 { let g = self.lock_shard(0); g.n }\n \
             fn per_shard(&self) { let mut t = 0; t += self.lock_shard(1).stats(); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_macro_under_lock_is_flagged() {
        let f =
            scan_src("impl E { fn bad(&self) { let g = self.lock_shard(0); panic!(\"boom\"); } }");
        assert!(
            f.iter().any(|x| x.message.contains("`panic` called while")),
            "{f:?}"
        );
    }
}
