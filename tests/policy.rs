//! Repository policy that used to live in CI's `lint` job as `! grep …`
//! and `awk` steps, where no builder's box ever ran it. Each row of
//! [`BANS`] is one name that a past PR deleted on purpose and nothing may
//! bring back; [`DOC_CAPS`] keeps the per-PR docs from regrowing. This
//! file is the one place allowed to spell the banned names, so it skips
//! itself.

use std::path::{Path, PathBuf};

/// One former `! grep` step.
struct Ban {
    /// Alternatives, as literal substrings (`grep -E 'a|b'`).
    pattern: &'static [&'static str],
    /// `grep -w`: a hit must not touch an identifier character either side.
    whole_word: bool,
    /// Files or directories (searched recursively), relative to the root.
    roots: &'static [&'static str],
    /// A hit whose `path:line:text` contains this is allowed (`grep -v`).
    exempt: Option<&'static str>,
    why: &'static str,
}

const BANS: &[Ban] = &[
    Ban {
        pattern: &["Instant"],
        whole_word: true,
        roots: &["crates", "src"],
        exempt: None,
        why: "no clock outside benchmark/: every number the libraries and `reproduce` \
              produce is a pure function of the tree",
    },
    Ban {
        pattern: &["insert(0"],
        whole_word: false,
        roots: &["crates/toleo-core/src/cache.rs", "crates/sim/src/cache.rs"],
        exempt: Some("oracle"),
        why: "no Vec-shuffle LRU outside the `#[cfg(test)]` oracles: `remove(pos)` + \
              `insert(0, ..)` was two memmoves of a set per hit (EXPERIMENTS.md \"PR 19\")",
    },
    Ban {
        pattern: &["fully_associative", "chunks_exact"],
        whole_word: false,
        roots: &["crates/toleo-core/src/cache.rs"],
        exempt: None,
        why: "no scanned long set: the TLB extension is a `PageCam` and every \
              `LruDirectory` set is at most 16 ways (EXPERIMENTS.md \"PR 23\")",
    },
    Ban {
        pattern: &["read_run"],
        whole_word: false,
        roots: &["crates", "src", "tests", "examples"],
        exempt: Some("crates/toleo-core/src/device.rs"),
        why: "no second read path: a batch is its op-at-a-time loop (EXPERIMENTS.md \
              \"PR 20\"); `ToleoDevice::read_run` stays, callerless, only because \
              `benchmark/` times it",
    },
    Ban {
        pattern: &[
            "QuarantineMap",
            "quarantine_epoch",
            "quarantine_word",
            "max_poll_lag_ops",
        ],
        whole_word: true,
        roots: &["crates", "src", "tests"],
        exempt: None,
        why: "no second quarantine channel: quarantine is a field of the shard, under \
              the shard mutex (EXPERIMENTS.md \"PR 21\")",
    },
    Ban {
        pattern: &["MacKey", "siphash"],
        whole_word: false,
        roots: &["crates/toleo-core/src/engine.rs"],
        exempt: None,
        why: "no PRF MAC on the engine's line path: its one MAC is the Carter-Wegman \
              line MAC (EXPERIMENTS.md \"PR 22\")",
    },
    Ban {
        pattern: &["explore_random", "SplitMix64", "max_schedules", "capped"],
        whole_word: false,
        roots: &["crates/model"],
        exempt: None,
        why: "one explorer, and it is complete: no schedule cap, seed or PRNG beside \
              the visited-state search (EXPERIMENTS.md \"PR 24\")",
    },
    Ban {
        pattern: &["AtomicU8", "kind_to_tag", "tag_to_kind"],
        whole_word: false,
        roots: &["crates/crypto/src/backend.rs"],
        exempt: None,
        why: "the default AES backend is a `OnceLock`, not a hand-rolled atomic tag \
              cache with a row in AUDIT.json (EXPERIMENTS.md \"PR 24\")",
    },
    Ban {
        pattern: &[
            "match_delim",
            "group_end",
            "match_brace",
            "match_paren",
            "match_bracket_back",
            "body_open",
            "loop_body",
            "atomic_why",
            "to_json",
        ],
        whole_word: false,
        roots: &["crates/audit/src"],
        exempt: Some("crates/audit/src/source.rs"),
        why: "the auditor reads structure once: delimiter matching lives in \
              `SourceFile` (`partner`, `item_body`, `stmt_start`), and AUDIT.json's \
              protocol tables are parsed, never re-rendered (EXPERIMENTS.md \"PR 25\")",
    },
    Ban {
        pattern: &[
            "page_format",
            "invalidate_page",
            ".update(page",
            ".read(page",
            ".reset(page",
        ],
        whole_word: false,
        roots: &["crates/sim/src"],
        exempt: None,
        why: "one protocol walk: the simulator reaches the device and the stealth cache \
              only through `StealthCache::{read, update}`, the walk the engine executes, \
              and prices what it returns (EXPERIMENTS.md \"PR 27\")",
    },
    Ban {
        pattern: &["SealedStore", "AesCtr", "dyn Any", "HashMap<u64"],
        whole_word: false,
        roots: &["crates/baselines/src", "crates/toleo-core/src/protected.rs"],
        exempt: None,
        why: "one untrusted memory and one seal: every scheme stores through `LineSealer` \
              into the engine's page arena, re-encrypts through its page walk, and hands \
              the adversary that arena (EXPERIMENTS.md \"PR 28\")",
    },
    Ban {
        pattern: &[
            "toleo_crypto::ide",
            "toleo_crypto::tdisp",
            "pub mod ide",
            "pub mod tdisp",
            "pub mod rowhammer",
            "RateLimiter",
            "LinkViolation",
            "ctr_keystream_xor",
        ],
        whole_word: false,
        roots: &["crates", "examples"],
        exempt: None,
        why: "the trusted side is what the requests reach: a link model re-enters only \
              wired through `DeviceChannel`, priced per round trip, not as a free-standing \
              module no version crosses (EXPERIMENTS.md \"PR 29\")",
    },
    Ban {
        pattern: &[
            "Box<[Block; LINES_PER_PAGE]>",
            "_mm_prefetch",
            "prefetch_read",
        ],
        whole_word: false,
        roots: &["crates/toleo-core"],
        exempt: None,
        why: "one slab per page: a page's blocks, tags, bitmaps and UV share one \
              cache-line-aligned allocation, and the engine's early untrusted fetch is a \
              plain load whose value the op uses, not a hint intrinsic, so the `unsafe` \
              budget stays 26 (EXPERIMENTS.md \"PR 30\")",
    },
    Ban {
        pattern: &["scrub_extract", "ScrubOutcome"],
        whole_word: true,
        roots: &["crates", "src", "tests"],
        exempt: None,
        why: "re-admission is one walk with no write per line: a recovered shard's lines \
              move to the new key in place, under the version the fresh device already \
              holds, with no plaintext list and no second arena (EXPERIMENTS.md \"PR 32\")",
    },
];

/// One former `awk` step: in `file`, a section runs from one line that
/// starts with `opens` to the next; one whose opening line carries a PR
/// number ≥ [`CAPPED_FROM_PR`] may total at most `cap` bytes.
struct DocCap {
    file: &'static str,
    opens: &'static str,
    pr_of: fn(&str) -> Option<u32>,
    cap: usize,
}

/// Older sections and entries are history and are left as written.
const CAPPED_FROM_PR: u32 = 21;

const DOC_CAPS: &[DocCap] = &[
    // A `## ... (PR N)` section of EXPERIMENTS.md: 6 KB.
    DocCap {
        file: "EXPERIMENTS.md",
        opens: "## ",
        pr_of: |line| line.strip_suffix(')')?.rsplit_once("(PR ")?.1.parse().ok(),
        cap: 6144,
    },
    // A `- PR N: ...` entry of CHANGES.md: 1.5 KB.
    DocCap {
        file: "CHANGES.md",
        opens: "- PR ",
        pr_of: |line| line.strip_prefix("- PR ")?.split_once(':')?.0.parse().ok(),
        cap: 1536,
    },
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every regular file under `path` (or `path` itself), sorted.
fn files_under(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        entries.sort();
        for entry in entries {
            files_under(&entry, out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

fn is_ident(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

fn line_hits(line: &str, ban: &Ban) -> bool {
    ban.pattern.iter().any(|needle| {
        line.match_indices(needle).any(|(at, _)| {
            !ban.whole_word
                || !(is_ident(line[..at].chars().next_back())
                    || is_ident(line[at + needle.len()..].chars().next()))
        })
    })
}

#[test]
fn deleted_names_stay_deleted() {
    let mut hits = Vec::new();
    for ban in BANS {
        let mut files = Vec::new();
        for rel in ban.roots {
            let path = root().join(rel);
            assert!(path.exists(), "policy root {rel} is gone: fix its row");
            files_under(&path, &mut files);
        }
        for file in files {
            let rel = file.strip_prefix(root()).expect("under the root");
            if rel == Path::new("tests/policy.rs") {
                continue;
            }
            // Binary files hold no source names.
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            for (n, line) in text.lines().enumerate() {
                let hit = format!("{}:{}:{line}", rel.display(), n + 1);
                if line_hits(line, ban) && !ban.exempt.is_some_and(|marker| hit.contains(marker)) {
                    hits.push(format!("{hit}\n    banned: {}", ban.why));
                }
            }
        }
    }
    assert!(hits.is_empty(), "\n{}", hits.join("\n"));
}

#[test]
fn docs_stay_on_their_diet() {
    let mut fat = Vec::new();
    for cap in DOC_CAPS {
        let text = std::fs::read_to_string(root().join(cap.file)).expect(cap.file);
        // (opening line, bytes) of the section being measured, if capped.
        let mut open: Option<(&str, usize)> = None;
        let mut sections = Vec::new();
        for line in text.lines() {
            if line.starts_with(cap.opens) {
                sections.extend(open.take());
                let capped = (cap.pr_of)(line).is_some_and(|pr| pr >= CAPPED_FROM_PR);
                open = capped.then_some((line, 0));
            }
            if let Some((_, bytes)) = &mut open {
                *bytes += line.len() + 1;
            }
        }
        sections.extend(open);
        for (opening, bytes) in sections {
            if bytes > cap.cap {
                let title: String = opening.chars().take(72).collect();
                fat.push(format!(
                    "{}: {bytes} bytes > {} in `{title}…`",
                    cap.file, cap.cap
                ));
            }
        }
    }
    assert!(fat.is_empty(), "\n{}", fat.join("\n"));
}
