//! # toleo-json
//!
//! The one JSON layer outside `benchmark/`. The workspace vendors no
//! `serde_json`, yet two tools read and write JSON: `toleo-audit`
//! (`AUDIT.json`, `--json`) and `toleo-bench` (`results/`, `expected/`).
//! Both now share this crate: one [`Value`] tree, [`parse`], and
//! [`pretty`], whose output for a parsed committed document is that
//! document byte for byte — so `--fix-inventory` and
//! `--update-expected` produce stable diffs. It depends on nothing,
//! which keeps the auditor independent of the crates it audits.
//!
//! `benchmark/src/json.rs` is a third copy. It stays until a
//! `benchmark` PR can take this crate as a path dependency: no other
//! kind of PR may change a file under `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

pub use json::{parse, pretty, Value};
