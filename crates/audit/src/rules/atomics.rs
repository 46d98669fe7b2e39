//! Rule 3 — **atomic-protocol policy**.
//!
//! What the sharded engine shares outside its per-shard mutexes is
//! lock-free state — the world-kill flag and the batch helper's mailbox
//! phase — whose memory orderings are load-bearing: a `Relaxed` store on
//! the kill flag would pass every test on x86 and silently break the
//! kill-poll bound on ARM. `AUDIT.json` therefore declares a *protocol
//! table*: every atomic names its role (`flag`, the only one) and the
//! orderings it permits per operation kind (load / store / rmw). This
//! rule checks every `Ordering::X` call site against the declared row,
//! flags undeclared atomics, and validates the table itself against the
//! role's legality rules (Release-store ↔ Acquire-load pairing; never
//! `Relaxed`).

use crate::lexer::TokenKind;
use crate::rules::{Finding, Matched, Tier};
use crate::source::SourceFile;

/// `std::sync::atomic::Ordering` variants. `std::cmp::Ordering`'s
/// `Less`/`Equal`/`Greater` deliberately don't match.
pub const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Methods that take an `Ordering`; used to walk from an `Ordering::X`
/// token back to the atomic it orders.
const ATOMIC_METHODS: [&str; 15] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// How far (in code tokens) the receiver search walks back from an
/// `Ordering::` use before giving up.
const SEARCH_WINDOW: usize = 48;

/// What an atomic operation does to memory, for protocol purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Load,
    Store,
    Rmw,
}

impl OpKind {
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Rmw => "rmw",
        }
    }
}

/// The declared role of an atomic in the concurrency protocol. The role
/// bounds which orderings a row may even declare: a `flag` publishes or
/// observes other state and may never be `Relaxed`. Telemetry is summed
/// under the shard locks when it is read, so no atomic is a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A decision other threads act on (world-kill flag, mailbox phase).
    Flag,
}

impl Role {
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "flag" => Some(Role::Flag),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Role::Flag => "flag",
        }
    }

    /// Orderings this role may declare for `kind`.
    fn legal(self, kind: OpKind) -> &'static [&'static str] {
        match (self, kind) {
            (Role::Flag, OpKind::Load) => &["Acquire", "SeqCst"],
            (Role::Flag, OpKind::Store) => &["Release", "SeqCst"],
            (Role::Flag, OpKind::Rmw) => &["Release", "AcqRel", "SeqCst"],
        }
    }
}

/// One protocol table row: the atomic's role and its permitted
/// orderings per operation kind. An empty list forbids that kind.
#[derive(Debug, Clone)]
pub struct AtomicPolicy {
    pub atomic: String,
    pub role: Role,
    pub load: Vec<String>,
    pub store: Vec<String>,
    pub rmw: Vec<String>,
}

impl AtomicPolicy {
    fn permitted(&self, kind: OpKind) -> &[String] {
        match kind {
            OpKind::Load => &self.load,
            OpKind::Store => &self.store,
            OpKind::Rmw => &self.rmw,
        }
    }
}

/// Validates the protocol table itself: every declared ordering must be
/// a real `Ordering` variant and legal for the row's role. Run once per
/// audit; findings anchor to `AUDIT.json`.
pub fn validate_policy(policy: &[AtomicPolicy]) -> Vec<Finding> {
    let mut out = Vec::new();
    for row in policy {
        for kind in [OpKind::Load, OpKind::Store, OpKind::Rmw] {
            for o in row.permitted(kind) {
                if !ORDERINGS.contains(&o.as_str()) {
                    out.push(Finding::new(
                        "atomic-protocol",
                        "AUDIT.json",
                        0,
                        0,
                        format!(
                            "protocol row `{}` lists unknown ordering `{o}` for {}s",
                            row.atomic,
                            kind.as_str()
                        ),
                    ));
                    continue;
                }
                let legal = row.role.legal(kind);
                if !legal.contains(&o.as_str()) {
                    out.push(Finding::new(
                        "atomic-protocol",
                        "AUDIT.json",
                        0,
                        0,
                        format!(
                            "protocol row `{}` has role `{}` but permits `Ordering::{o}` \
                             for {}s; `{}` roles synchronize and allow only [{}] there \
                             (Release store ↔ Acquire load, never Relaxed)",
                            row.atomic,
                            row.role.as_str(),
                            kind.as_str(),
                            row.role.as_str(),
                            legal.join(", ")
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Scans `file` for `Ordering::X` uses, checking each against the
/// protocol table, and records the rows that matched in `matched`.
pub fn scan(
    file: &SourceFile,
    tier: Tier,
    policy: &[AtomicPolicy],
    matched: &mut Matched,
) -> Vec<Finding> {
    if tier == Tier::Test {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, tok) in file.tokens.iter().enumerate() {
        if !tok.is_ident("Ordering") || file.in_test_region(i) {
            continue;
        }
        let path_sep = file.next_code_token(i + 1).is_some_and(|(j, t)| {
            t.is_punct(':')
                && file
                    .next_code_token(j + 1)
                    .is_some_and(|(_, t2)| t2.is_punct(':'))
        });
        if !path_sep {
            continue; // `use …::Ordering;` import or a bare mention
        }
        let Some(ordering) = ordering_name(file, i) else {
            continue; // `Ordering::Less` etc.
        };
        let Some(site) = attribute(file, i) else {
            out.push(Finding::new(
                "atomic-protocol",
                &file.rel_path,
                tok.line,
                tok.col,
                format!(
                    "`Ordering::{ordering}` could not be attributed to an atomic operation: \
                     keep orderings at the call site of load/store/rmw methods"
                ),
            ));
            continue;
        };
        let kind = site.kind;
        match policy.iter().position(|p| p.atomic == site.receiver) {
            None => out.push(Finding::new(
                "atomic-protocol",
                &file.rel_path,
                tok.line,
                tok.col,
                format!(
                    "atomic `{}` is not declared in AUDIT.json's protocol table: add a row \
                     naming its role and permitted load/store/rmw orderings",
                    site.receiver
                ),
            )),
            Some(row) => {
                matched.insert(("atomics", row));
                let entry = &policy[row];
                let permitted = entry.permitted(kind);
                if permitted.is_empty() {
                    out.push(Finding::new(
                        "atomic-protocol",
                        &file.rel_path,
                        tok.line,
                        tok.col,
                        format!(
                            "`{}` declares no {} orderings in AUDIT.json but `{}` performs \
                             one: extend the protocol row or remove the operation",
                            site.receiver,
                            kind.as_str(),
                            site.method
                        ),
                    ));
                } else if !permitted.iter().any(|o| o == ordering) {
                    out.push(Finding::new(
                        "atomic-protocol",
                        &file.rel_path,
                        tok.line,
                        tok.col,
                        format!(
                            "`{}` {} uses `Ordering::{ordering}` but its `{}` protocol row \
                             permits [{}]: fix the call site or re-justify the row",
                            site.receiver,
                            kind.as_str(),
                            entry.role.as_str(),
                            permitted.join(", ")
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// The `X` of `Ordering::X` at token `i`, if it is an atomic ordering.
fn ordering_name(file: &SourceFile, i: usize) -> Option<&str> {
    let (j, colon1) = file.next_code_token(i + 1)?;
    if !colon1.is_punct(':') {
        return None;
    }
    let (k, colon2) = file.next_code_token(j + 1)?;
    if !colon2.is_punct(':') {
        return None;
    }
    let (_, name) = file.next_code_token(k + 1)?;
    ORDERINGS.iter().find(|o| name.is_ident(o)).copied()
}

/// An attributed `Ordering` use: the atomic's final path/field segment,
/// the method called on it, and the protocol kind of *this* ordering
/// argument (the failure ordering of `compare_exchange` and the fetch
/// ordering of `fetch_update` are loads).
struct Site {
    receiver: String,
    method: String,
    kind: OpKind,
}

/// Walks back from the `Ordering` token to find `<receiver>.<method>(`.
fn attribute(file: &SourceFile, ordering_idx: usize) -> Option<Site> {
    let mut walked = 0usize;
    let mut idx = ordering_idx;
    while walked < SEARCH_WINDOW {
        let (prev_idx, prev) = file.prev_code_token(idx)?;
        if prev.kind == TokenKind::Ident && ATOMIC_METHODS.contains(&prev.text.as_str()) {
            let open = file.next_code_token(prev_idx + 1);
            let (dot_idx, dot) = file.prev_code_token(prev_idx)?;
            if let Some((open_idx, t)) = open {
                if t.is_punct('(') && dot.is_punct('.') {
                    let (_, recv) = file.prev_code_token(dot_idx)?;
                    if recv.kind == TokenKind::Ident {
                        let arg = arg_index(file, open_idx, ordering_idx);
                        return Some(Site {
                            receiver: recv.text.clone(),
                            method: prev.text.clone(),
                            kind: kind_of(&prev.text, arg),
                        });
                    }
                }
            }
        }
        idx = prev_idx;
        walked += 1;
    }
    None
}

/// Zero-based argument position of the token at `at` within the call
/// whose opening paren is at `open_idx` (top-level commas only: nested
/// groups are stepped over whole).
fn arg_index(file: &SourceFile, open_idx: usize, at: usize) -> usize {
    let mut arg = 0usize;
    let mut k = open_idx + 1;
    while k < at {
        arg += usize::from(file.tokens[k].is_punct(','));
        k = file.partner(k).filter(|&close| close > k).unwrap_or(k) + 1;
    }
    arg
}

/// The protocol kind of the ordering in argument position `arg` of
/// `method`: dual-ordering methods take a load (failure/fetch) ordering
/// in their final position.
fn kind_of(method: &str, arg: usize) -> OpKind {
    match method {
        "load" => OpKind::Load,
        "store" => OpKind::Store,
        "compare_exchange" | "compare_exchange_weak" => {
            if arg >= 3 {
                OpKind::Load
            } else {
                OpKind::Rmw
            }
        }
        "fetch_update" => {
            if arg == 1 {
                OpKind::Load
            } else {
                OpKind::Rmw
            }
        }
        _ => OpKind::Rmw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    type PolicyRow<'a> = (&'a str, Role, &'a [&'a str], &'a [&'a str], &'a [&'a str]);

    fn policy(entries: &[PolicyRow]) -> Vec<AtomicPolicy> {
        entries
            .iter()
            .map(|(a, role, load, store, rmw)| AtomicPolicy {
                atomic: a.to_string(),
                role: *role,
                load: load.iter().map(|s| s.to_string()).collect(),
                store: store.iter().map(|s| s.to_string()).collect(),
                rmw: rmw.iter().map(|s| s.to_string()).collect(),
            })
            .collect()
    }

    fn scan_src(src: &str, pol: &[AtomicPolicy]) -> (Vec<Finding>, BTreeSet<String>) {
        let file = SourceFile::parse("crates/toleo-core/src/sharded.rs", src);
        let mut matched = Matched::new();
        let findings = scan(&file, Tier::Policy, pol, &mut matched);
        let used = matched.iter().map(|&(_, row)| pol[row].atomic.clone());
        (findings, used.collect())
    }

    #[test]
    fn documented_matching_use_is_clean() {
        let pol = policy(&[(
            "killed",
            Role::Flag,
            &["Acquire"],
            &["Release", "SeqCst"],
            &[],
        )]);
        let (findings, used) = scan_src(
            "fn k(&self) { self.killed.store(true, Ordering::SeqCst); }",
            &pol,
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert!(used.contains("killed"));
    }

    #[test]
    fn mispaired_ordering_is_flagged() {
        let pol = policy(&[("killed", Role::Flag, &["Acquire"], &["Release"], &[])]);
        let (findings, _) = scan_src(
            "fn k(&self) -> bool { self.killed.load(Ordering::Relaxed) }",
            &pol,
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("permits [Acquire]"));
        assert!(findings[0].message.contains("`flag` protocol row"));
    }

    #[test]
    fn undeclared_op_kind_is_flagged() {
        let pol = policy(&[("killed", Role::Flag, &["Acquire"], &["Release"], &[])]);
        let (findings, _) = scan_src(
            "fn k(&self) { self.killed.swap(true, Ordering::AcqRel); }",
            &pol,
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("declares no rmw orderings"));
    }

    #[test]
    fn undocumented_atomic_is_flagged() {
        let (findings, _) = scan_src("fn f() { FLAG.store(1, Ordering::SeqCst); }", &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("not declared"));
    }

    #[test]
    fn compare_exchange_failure_ordering_is_a_load() {
        let pol = policy(&[("state", Role::Flag, &["Acquire"], &[], &["AcqRel"])]);
        let (ok, _) = scan_src(
            "fn f() { state.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).ok(); }",
            &pol,
        );
        assert!(ok.is_empty(), "{ok:?}");
        let (bad, _) = scan_src(
            "fn f() { state.compare_exchange(0, 1, Ordering::Acquire, Ordering::Acquire).ok(); }",
            &pol,
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("rmw"));
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let (findings, _) = scan_src(
            "fn f(a: u8, b: u8) { if a.cmp(&b) == Ordering::Less {} }",
            &[],
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn import_line_is_ignored() {
        let (findings, _) = scan_src("use std::sync::atomic::{AtomicBool, Ordering};", &[]);
        assert!(findings.is_empty());
    }

    #[test]
    fn ordering_without_call_site_is_flagged() {
        let (findings, _) = scan_src("fn f() { let o = Ordering::SeqCst; }", &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("could not be attributed"));
    }

    #[test]
    fn field_chains_resolve_to_final_segment() {
        let pol = policy(&[("killed", Role::Flag, &["SeqCst"], &[], &[])]);
        let (findings, used) = scan_src(
            "fn f(&self, i: usize) { self.shards[i].killed.load(Ordering::SeqCst); }",
            &pol,
        );
        assert!(findings.is_empty());
        assert!(used.contains("killed"));
    }

    #[test]
    fn relaxed_on_synchronizing_role_fails_table_validation() {
        let pol = policy(&[("killed", Role::Flag, &["Relaxed"], &["Release"], &[])]);
        let findings = validate_policy(&pol);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("never Relaxed"));
    }

    #[test]
    fn unknown_ordering_in_table_is_flagged() {
        let pol = policy(&[("x", Role::Flag, &["Sequential"], &[], &[])]);
        let findings = validate_policy(&pol);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown ordering"));
    }
}
