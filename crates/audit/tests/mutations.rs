//! The rules fire on the code that ships. `workspace.rs` shows the
//! auditor stays silent on the real tree and `fixtures.rs` shows each
//! rule fires on a toy; here each case copies the real tree (every file
//! `discover` returns, plus `AUDIT.json`) into a scratch root, applies
//! one literal edit — a bug the rules exist to catch — and pins every
//! finding `run_audit` then returns.
//!
//! Lines are pinned relative to the line the edit starts on, so an
//! unrelated edit elsewhere in the file does not move them; findings
//! anchored to `AUDIT.json` are on line 0.

use std::path::{Path, PathBuf};

use toleo_audit::{discover, fix_inventory, run_audit};

/// One mutation: in `file`, replace the single occurrence of `find`.
struct Case {
    name: &'static str,
    file: &'static str,
    find: &'static str,
    replace: &'static str,
    /// `(rule, file, line, col, message)`. In the edited file `line` is
    /// relative to the edit's first line; in `AUDIT.json` it is 0. In
    /// `message`, `{edit}` stands for the edit's first line and `{why}`
    /// for the `shard_engine` lock class's `why` as the copied
    /// `AUDIT.json` declares it.
    expect: &'static [(&'static str, &'static str, i64, u32, &'static str)],
}

const SHARDED: &str = "crates/toleo-core/src/sharded.rs";

/// `drain_shard`'s acquisition of its shard lock.
const DRAIN_LOCK: &str =
    "        let mut state = self.lock_shard(shard);\n        if state.quarantined {";

const FORBIDDEN_TRIP_KILL: &str =
    "`trip_kill` called while `shard_engine` (held since line {edit}) \
     is held: forbidden by the locks table — {why}";

const CASES: &[Case] = &[
    Case {
        name: "unedited",
        file: "AUDIT.json",
        find: "\"schema\"",
        replace: "\"schema\"",
        expect: &[],
    },
    Case {
        name: "relaxed_kill_flag_load",
        file: SHARDED,
        find: "        self.killed.load(Ordering::Acquire)\n",
        replace: "        self.killed.load(Ordering::Relaxed)\n",
        expect: &[(
            "atomic-protocol",
            SHARDED,
            0,
            26,
            "`killed` load uses `Ordering::Relaxed` but its `flag` protocol row permits \
             [Acquire]: fix the call site or re-justify the row",
        )],
    },
    // The escalation's `self.killed.store(…)` later in the same chunk
    // body is not a poll: the probe must be loaded.
    Case {
        name: "chunk_loop_skips_the_kill_poll",
        file: SHARDED,
        find: "if self.killed.load(Ordering::Acquire) {",
        replace: "if false {",
        expect: &[(
            "blocking-in-poll",
            SHARDED,
            -6,
            26,
            "kill-poll loop chunked by `KILL_POLL_OPS` never loads `killed` in its body: every \
             chunk boundary must observe the kill flag within the declared `KILL_POLL_OPS` \
             bound (AUDIT.json polls table)",
        )],
    },
    Case {
        name: "chunk_loop_over_an_undeclared_bound",
        file: SHARDED,
        find: "for chunk in run.chunks(KILL_POLL_OPS) {",
        replace: "for chunk in run.chunks(POLL_BATCH) {",
        expect: &[
            (
                "blocking-in-poll",
                "AUDIT.json",
                0,
                0,
                "polls row for `crates/toleo-core/src/sharded.rs` (chunker `KILL_POLL_OPS`) \
                 matches no loop in the tree: remove the stale row",
            ),
            (
                "blocking-in-poll",
                SHARDED,
                0,
                26,
                "kill-poll loop chunked by `POLL_BATCH` is not declared in AUDIT.json's polls \
                 table: declare its chunker and required probe identifiers",
            ),
        ],
    },
    Case {
        name: "world_kill_under_a_shard_lock",
        file: SHARDED,
        find: DRAIN_LOCK,
        replace: "        let mut state = self.lock_shard(shard);\n        self.trip_kill();\n        if state.quarantined {",
        expect: &[
            ("lock-discipline", SHARDED, 1, 14, FORBIDDEN_TRIP_KILL),
            (
                "lock-discipline",
                SHARDED,
                1,
                14,
                "call to `trip_kill` acquires `shard_engine` while `shard_engine` (held since \
                 line {edit}) is still held: lock-order inversion (declared order: \
                 shard_engine < batch_job)",
            ),
        ],
    },
    Case {
        name: "stats_pass_under_a_shard_lock",
        file: SHARDED,
        find: DRAIN_LOCK,
        replace: "        let mut state = self.lock_shard(shard);\n        let _ = self.robustness_stats();\n        if state.quarantined {",
        expect: &[(
            "lock-discipline",
            SHARDED,
            1,
            22,
            "call to `robustness_stats` acquires `shard_engine` while `shard_engine` (held \
             since line {edit}) is still held: lock-order inversion (declared order: \
             shard_engine < batch_job)",
        )],
    },
    Case {
        name: "unwrap_in_the_engine",
        file: "crates/toleo-core/src/engine.rs",
        find: "FaultPlanConfig::from_env()?;",
        replace: "FaultPlanConfig::from_env().unwrap();",
        expect: &[(
            "no-panic",
            "crates/toleo-core/src/engine.rs",
            0,
            54,
            "`.unwrap()` in non-test code: convert to a Result path or annotate with \
             `// audit: allow(panic, reason)`",
        )],
    },
    Case {
        name: "tweak_key_in_a_format_string",
        file: "crates/crypto/src/modes.rs",
        find: "    pub fn new(data_key: &[u8; 16], tweak_key: &[u8; 16]) -> Self {\n",
        replace: "    pub fn new(data_key: &[u8; 16], tweak_key: &[u8; 16]) -> Self {\n        let _ = format!(\"{tweak_key:?}\");\n",
        expect: &[(
            "secret-hygiene",
            "crates/crypto/src/modes.rs",
            1,
            25,
            "format string interpolates tainted identifier `tweak_key`: key material must not \
             reach logs or panic messages",
        )],
    },
    Case {
        name: "unsafe_loses_its_safety_comment",
        file: "crates/crypto/src/backend.rs",
        find: "        // SAFETY: SSE2 is part of the x86_64 baseline.\n        unsafe { core::arch::x86_64::_mm_setzero_si128() }",
        replace: "        unsafe { core::arch::x86_64::_mm_setzero_si128() }",
        expect: &[(
            "unsafe-safety",
            "crates/crypto/src/backend.rs",
            0,
            9,
            "`unsafe` without a `// SAFETY:` comment on the preceding lines: state the \
             invariant that makes this sound",
        )],
    },
    Case {
        name: "stale_atomics_row",
        file: "AUDIT.json",
        find: "  \"atomics\": {\n",
        replace: "  \"atomics\": {\n    \"ghost\": {\"role\": \"flag\", \"load\": [\"Acquire\"], \"why\": \"nothing\"},\n",
        expect: &[(
            "atomic-protocol",
            "AUDIT.json",
            0,
            0,
            "protocol row `ghost` matches no atomic operation in the tree: remove the stale row",
        )],
    },
    Case {
        name: "stale_locks_row",
        file: "AUDIT.json",
        find: "  \"locks\": [\n",
        replace: "  \"locks\": [\n    {\"class\": \"ghost\", \"acquire\": [\"lock_ghost\"], \"why\": \"nothing\"},\n",
        expect: &[(
            "lock-discipline",
            "AUDIT.json",
            0,
            0,
            "locks class `ghost` matches no acquisition in the tree: remove the stale row",
        )],
    },
    Case {
        name: "stale_polls_row",
        file: "AUDIT.json",
        find: "  \"polls\": [\n",
        replace: "  \"polls\": [\n    {\"file\": \"crates/toleo-core/src/sharded.rs\", \"chunker\": \"GHOST_OPS\", \"probes\": [\"killed\"], \"why\": \"nothing\"},\n",
        expect: &[(
            "blocking-in-poll",
            "AUDIT.json",
            0,
            0,
            "polls row for `crates/toleo-core/src/sharded.rs` (chunker `GHOST_OPS`) matches no \
             loop in the tree: remove the stale row",
        )],
    },
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit sits two levels below the repo root")
        .to_path_buf()
}

/// Copies the audited tree into a fresh scratch root for `case`.
fn copy_tree(case: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!(
        "toleo-audit-mutation-{}-{case}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dst).ok();
    let src = repo_root();
    let mut files = discover(&src).expect("discover the tree");
    files.push((src.join("AUDIT.json"), "AUDIT.json".to_string()));
    for (abs, rel) in files {
        let to = dst.join(&rel);
        std::fs::create_dir_all(to.parent().expect("a parent")).expect("mkdir");
        std::fs::copy(abs, to).expect("copy");
    }
    dst
}

/// Applies `case`'s edit under `root`; returns the 1-based line it
/// starts on.
fn apply(root: &Path, case: &Case) -> i64 {
    let path = root.join(case.file);
    let text = std::fs::read_to_string(&path).expect(case.file);
    assert_eq!(
        text.matches(case.find).count(),
        1,
        "{}: `{}` must occur exactly once in {}",
        case.name,
        case.find,
        case.file
    );
    let at = text.find(case.find).expect("found");
    std::fs::write(&path, text.replacen(case.find, case.replace, 1)).expect("write");
    text[..at].matches('\n').count() as i64 + 1
}

fn shard_engine_why(root: &Path) -> String {
    let text = std::fs::read_to_string(root.join("AUDIT.json")).expect("AUDIT.json");
    let doc = toleo_json::parse(&text).expect("AUDIT.json parses");
    let locks = doc.get("locks").and_then(toleo_json::Value::as_array);
    locks
        .and_then(|rows| rows.first())
        .and_then(|row| row.get("why"))
        .and_then(toleo_json::Value::as_str)
        .expect("shard_engine why")
        .to_string()
}

#[test]
fn every_mutation_is_caught_exactly() {
    let mut failures = Vec::new();
    for case in CASES {
        let root = copy_tree(case.name);
        let edit_line = apply(&root, case);
        let why = shard_engine_why(&root);
        let report = run_audit(&root).expect("audit runs");
        std::fs::remove_dir_all(&root).ok();
        let got: Vec<(String, String, u32, u32, String)> = report
            .findings
            .iter()
            .map(|f| {
                (
                    f.rule.to_string(),
                    f.file.clone(),
                    f.line,
                    f.col,
                    f.message.clone(),
                )
            })
            .collect();
        let want: Vec<(String, String, u32, u32, String)> = case
            .expect
            .iter()
            .map(|&(rule, file, line, col, message)| {
                let line = if file == case.file && file != "AUDIT.json" {
                    edit_line + line
                } else {
                    line
                };
                (
                    rule.to_string(),
                    file.to_string(),
                    line as u32,
                    col,
                    message
                        .replace("{edit}", &edit_line.to_string())
                        .replace("{why}", &why),
                )
            })
            .collect();
        if got != want {
            failures.push(format!(
                "{} (edit at line {edit_line}):\n  want {want:#?}\n  got  {got:#?}",
                case.name
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// `--fix-inventory` on the unedited tree rewrites the `unsafe` and
/// `allow` members from the very tree they describe and prints every
/// other member back as read: the committed file comes back byte for
/// byte.
#[test]
fn fix_inventory_leaves_the_committed_audit_json_byte_identical() {
    let root = copy_tree("fix_inventory");
    let committed = std::fs::read_to_string(root.join("AUDIT.json")).expect("AUDIT.json");
    let rendered = fix_inventory(&root).expect("fix_inventory runs");
    let written = std::fs::read_to_string(root.join("AUDIT.json")).expect("AUDIT.json");
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(rendered, committed);
    assert_eq!(written, committed);
}
