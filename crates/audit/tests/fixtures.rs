//! Integration tests over the known-bad (and one known-good) fixture
//! trees in `tests/fixtures/`. Each fixture is a miniature workspace
//! root; the assertions pin the exact rule, file, line and column so a
//! diagnostic that silently drifts breaks loudly here.

use std::path::PathBuf;

use toleo_audit::run_audit;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the audit on one fixture and asserts it produced exactly one
/// finding, returned for further inspection.
fn sole_finding(name: &str) -> toleo_audit::rules::Finding {
    let report = run_audit(&fixture_root(name)).expect("fixture audit runs");
    assert_eq!(
        report.findings.len(),
        1,
        "fixture `{name}` should produce exactly one finding, got {:?}",
        report.findings
    );
    report.findings.into_iter().next().expect("one finding")
}

#[test]
fn bare_panic_is_flagged_at_the_unwrap() {
    let f = sole_finding("bare_panic");
    assert_eq!(f.rule, "no-panic");
    assert_eq!(f.file, "crates/toleo-core/src/lib.rs");
    assert_eq!((f.line, f.col), (5, 24));
    assert!(f.message.contains(".unwrap()"), "{}", f.message);
}

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let f = sole_finding("unsafe_no_safety");
    assert_eq!(f.rule, "unsafe-safety");
    assert_eq!(f.file, "crates/crypto/src/backend.rs");
    assert_eq!((f.line, f.col), (7, 5));
    assert!(f.message.contains("SAFETY"), "{}", f.message);
}

#[test]
fn mispaired_ordering_is_flagged_against_the_protocol_table() {
    let f = sole_finding("wrong_ordering");
    assert_eq!(f.rule, "atomic-protocol");
    assert_eq!(f.file, "crates/toleo-core/src/lib.rs");
    assert_eq!((f.line, f.col), (13, 26));
    assert_eq!(
        f.message,
        "`killed` load uses `Ordering::Relaxed` but its `flag` protocol row permits \
         [Acquire, SeqCst]: fix the call site or re-justify the row"
    );
}

#[test]
fn lock_order_inversion_is_flagged_at_the_second_acquisition() {
    let f = sole_finding("lock_inversion");
    assert_eq!(f.rule, "lock-discipline");
    assert_eq!(f.file, "crates/toleo-core/src/lib.rs");
    assert_eq!((f.line, f.col), (10, 26));
    assert_eq!(
        f.message,
        "lock-order inversion: acquiring `shard_engine` while `recovery_totals` (held since \
         line 9) is still held; declared order is shard_engine < recovery_totals and \
         same-class re-entry self-deadlocks"
    );
}

#[test]
fn poll_loop_missing_a_probe_is_flagged_at_the_chunker() {
    let f = sole_finding("poll_missing_probe");
    assert_eq!(f.rule, "blocking-in-poll");
    assert_eq!(f.file, "crates/toleo-core/src/lib.rs");
    assert_eq!((f.line, f.col), (10, 28));
    assert_eq!(
        f.message,
        "kill-poll loop chunked by `poll_ops` never loads `killed` in its body: every chunk \
         boundary must observe the kill flag within the declared `KILL_POLL_OPS` bound \
         (AUDIT.json polls table)"
    );
}

#[test]
fn undeclared_poll_loop_over_an_upper_case_constant_is_flagged() {
    let f = sole_finding("poll_undeclared_const");
    assert_eq!(f.rule, "blocking-in-poll");
    assert_eq!(f.file, "crates/toleo-core/src/lib.rs");
    assert_eq!((f.line, f.col), (9, 24));
    assert_eq!(
        f.message,
        "kill-poll loop chunked by `KILL_POLL_OPS` is not declared in AUDIT.json's polls \
         table: declare its chunker and required probe identifiers"
    );
}

#[test]
fn derived_debug_on_key_material_is_flagged() {
    let f = sole_finding("debug_key");
    assert_eq!(f.rule, "secret-hygiene");
    assert_eq!(f.file, "crates/crypto/src/lib.rs");
    assert_eq!((f.line, f.col), (5, 1));
    assert!(f.message.contains("field `key`"), "{}", f.message);
}

#[test]
fn clean_fixture_produces_no_findings() {
    let report = run_audit(&fixture_root("clean")).expect("fixture audit runs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
}
