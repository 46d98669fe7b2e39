//! The project-specific rules and their shared vocabulary.
//!
//! Each rule is a pure function from lexed [`crate::source::SourceFile`]s to a list
//! of [`Finding`]s; suppression (annotations, baselines) happens
//! centrally in [`crate::run_audit`] so every rule stays trivially
//! testable. Most rules are per-file; `locks` is a workspace pass
//! because lock-order inversions cross function and file boundaries.

pub mod atomics;
pub mod locks;
pub mod no_panic;
pub mod poll;
pub mod secrets;
pub mod unsafe_code;

use std::collections::BTreeSet;

/// Protocol-table rows that matched code in the tree, as `(table, row
/// index)` — `("atomics" | "locks" | "polls", i)`. A declared row no
/// rule matched is stale.
pub type Matched = BTreeSet<(&'static str, usize)>;

/// How the no-panic policy applies to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `toleo-core`, `crypto`, `baselines` library code: the crates the
    /// security argument lives in. Panics *and* slice indexing are
    /// findings; `allow-file(panic, …)` is not honored here.
    Policy,
    /// Everything else scanned (bench harness, workloads, sim, this
    /// crate): panics are findings but may be excused file-wide, and
    /// indexing is not checked.
    Other,
    /// Test code (`tests/` directories): exempt from panic and secret
    /// policies — tests are supposed to assert and unwrap.
    Test,
}

/// The crates whose non-test code carries the paper's security
/// invariants. Order matters nowhere; paths are repo-relative.
pub const POLICY_PREFIXES: [&str; 3] = [
    "crates/toleo-core/src/",
    "crates/crypto/src/",
    "crates/baselines/src/",
];

/// Classifies a repo-relative path.
pub fn tier(rel_path: &str) -> Tier {
    if rel_path.split('/').any(|c| c == "tests") {
        return Tier::Test;
    }
    if POLICY_PREFIXES.iter().any(|p| rel_path.starts_with(p)) {
        return Tier::Policy;
    }
    Tier::Other
}

/// One diagnostic. `allow_rules` lists the annotation rules that may
/// suppress it (empty = not suppressible by annotation).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`no-panic`, `unsafe-safety`, `unsafe-inventory`,
    /// `atomic-protocol`, `lock-discipline`, `blocking-in-poll`,
    /// `secret-hygiene`, `annotation`, `allow-baseline`).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: u32,
    /// 1-based column (0 when not meaningful).
    pub col: u32,
    /// Human-readable description.
    pub message: String,
    /// Annotation rules that may excuse this finding.
    pub allow_rules: &'static [&'static str],
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            col,
            message,
            allow_rules: &[],
        }
    }

    pub fn allowed_by(mut self, rules: &'static [&'static str]) -> Finding {
        self.allow_rules = rules;
        self
    }
}

/// Reserved words that cannot be an indexable expression, so `kw[`
/// is a type or pattern position, not a slice index.
pub const KEYWORDS: [&str; 35] = [
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_classification() {
        assert_eq!(tier("crates/toleo-core/src/engine.rs"), Tier::Policy);
        assert_eq!(tier("crates/crypto/src/backend.rs"), Tier::Policy);
        assert_eq!(tier("crates/baselines/src/vault.rs"), Tier::Policy);
        assert_eq!(tier("crates/bench/src/bin/reproduce.rs"), Tier::Other);
        assert_eq!(tier("crates/json/src/json.rs"), Tier::Other);
        assert_eq!(tier("src/lib.rs"), Tier::Other);
        assert_eq!(tier("tests/security.rs"), Tier::Test);
        assert_eq!(tier("crates/crypto/tests/proptests.rs"), Tier::Test);
    }
}
