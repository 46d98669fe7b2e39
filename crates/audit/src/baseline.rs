//! The committed `AUDIT.json` baseline: the unsafe inventory, the
//! allowance inventory (both regenerated by `--fix-inventory`) and the
//! human-authored concurrency-protocol tables — atomics (role +
//! per-op-kind orderings), lock classes (order + critical-section
//! hygiene) and kill-poll loops.
//!
//! The one schema is `toleo-audit/v2`; a file that declares any other
//! is refused.

use crate::rules::atomics::{AtomicPolicy, Role};
use crate::rules::locks::LockClass;
use crate::rules::poll::PollPolicy;
use crate::source::Allowance;
use std::collections::BTreeMap;
use std::path::Path;
use toleo_json::{parse, pretty, Value};

pub const SCHEMA: &str = "toleo-audit/v2";

/// One allowance as recorded in the baseline. Line numbers are omitted
/// on purpose: code moves, and identity-by-(file, rule, scope, reason)
/// keeps the baseline diff meaningful.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineAllow {
    pub file: String,
    pub rule: String,
    /// `"file"` or `"line"`.
    pub scope: String,
    pub reason: String,
}

impl BaselineAllow {
    pub fn of(a: &Allowance) -> BaselineAllow {
        BaselineAllow {
            file: a.file.clone(),
            rule: a.rule.clone(),
            scope: if a.file_level { "file" } else { "line" }.to_string(),
            reason: a.reason.clone(),
        }
    }
}

/// Parsed `AUDIT.json`.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Whether the file existed (missing = empty baseline: everything
    /// currently in the tree shows up as un-baselined findings).
    pub present: bool,
    /// file → number of `unsafe` tokens.
    pub unsafe_counts: BTreeMap<String, u32>,
    /// The committed allowance inventory.
    pub allow: Vec<BaselineAllow>,
    /// The atomic protocol table.
    pub atomics: Vec<AtomicPolicy>,
    /// `why` strings per atomic (kept so `--fix-inventory` can rewrite
    /// the file without losing the human-authored column).
    pub atomic_why: BTreeMap<String, String>,
    /// Declared mutex classes, outermost-first (= the lock order).
    pub locks: Vec<LockClass>,
    /// Declared kill-poll loops.
    pub polls: Vec<PollPolicy>,
}

fn str_list(entry: &Value, key: &str) -> Vec<String> {
    entry
        .get(key)
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|o| o.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn why_of(entry: &Value, what: &str) -> Result<String, String> {
    let why = entry
        .get("why")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    if why.is_empty() {
        return Err(format!(
            "{what} has no `why`: every protocol row must say why it is sound"
        ));
    }
    Ok(why)
}

impl Baseline {
    /// Loads `AUDIT.json` from `path`; a missing file is an empty
    /// baseline, a malformed one or one of another schema is an error.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Baseline::default());
            }
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let doc = parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", path.display()))?;
        let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!(
                "{}: schema `{schema}` (expected `{SCHEMA}`)",
                path.display()
            ));
        }
        let mut baseline = Baseline {
            present: true,
            ..Baseline::default()
        };
        if let Some(pairs) = doc.get("unsafe").and_then(Value::as_object) {
            for (file, count) in pairs {
                let count = count
                    .as_u32()
                    .ok_or_else(|| format!("unsafe count for {file} is not a u32"))?;
                baseline.unsafe_counts.insert(file.clone(), count);
            }
        }
        if let Some(items) = doc.get("allow").and_then(Value::as_array) {
            for item in items {
                let field = |k: &str| {
                    item.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("allow entry missing string field `{k}`"))
                };
                baseline.allow.push(BaselineAllow {
                    file: field("file")?,
                    rule: field("rule")?,
                    scope: field("scope")?,
                    reason: field("reason")?,
                });
            }
        }
        if let Some(pairs) = doc.get("atomics").and_then(Value::as_object) {
            for (atomic, entry) in pairs {
                let why = why_of(entry, &format!("atomic `{atomic}`"))?;
                baseline.atomic_why.insert(atomic.clone(), why);
                let role_name = entry
                    .get("role")
                    .and_then(Value::as_str)
                    .unwrap_or_default();
                let role = Role::parse(role_name).ok_or_else(|| {
                    format!(
                        "atomic `{atomic}` has unknown role `{role_name}` (expected flag/counter)"
                    )
                })?;
                let row = AtomicPolicy {
                    atomic: atomic.clone(),
                    role,
                    load: str_list(entry, "load"),
                    store: str_list(entry, "store"),
                    rmw: str_list(entry, "rmw"),
                };
                if row.load.is_empty() && row.store.is_empty() && row.rmw.is_empty() {
                    return Err(format!("atomic `{atomic}` declares no orderings"));
                }
                baseline.atomics.push(row);
            }
        }
        if let Some(items) = doc.get("locks").and_then(Value::as_array) {
            for item in items {
                let class = item
                    .get("class")
                    .and_then(Value::as_str)
                    .ok_or("locks entry missing string field `class`")?
                    .to_string();
                let why = why_of(item, &format!("locks class `{class}`"))?;
                let acquire = str_list(item, "acquire");
                if acquire.is_empty() {
                    return Err(format!("locks class `{class}` declares no acquire idents"));
                }
                baseline.locks.push(LockClass {
                    class,
                    acquire,
                    forbid: str_list(item, "forbid"),
                    why,
                });
            }
        }
        if let Some(items) = doc.get("polls").and_then(Value::as_array) {
            for item in items {
                let file = item
                    .get("file")
                    .and_then(Value::as_str)
                    .ok_or("polls entry missing string field `file`")?
                    .to_string();
                let chunker = item
                    .get("chunker")
                    .and_then(Value::as_str)
                    .ok_or("polls entry missing string field `chunker`")?
                    .to_string();
                let why = why_of(item, &format!("polls row for `{file}`"))?;
                let probes = str_list(item, "probes");
                if probes.is_empty() {
                    return Err(format!("polls row for `{file}` declares no probes"));
                }
                baseline.polls.push(PollPolicy {
                    file,
                    chunker,
                    probes,
                    why,
                });
            }
        }
        Ok(baseline)
    }

    /// Renders a baseline document with the given regenerated
    /// inventory sections, preserving this baseline's protocol tables.
    pub fn render(&self, unsafe_counts: &BTreeMap<String, u32>, allow: &[BaselineAllow]) -> String {
        let mut allow = allow.to_vec();
        allow.sort();
        let allow_json: Vec<Value> = allow
            .iter()
            .map(|a| {
                Value::Obj(vec![
                    ("file".into(), Value::Str(a.file.clone())),
                    ("rule".into(), Value::Str(a.rule.clone())),
                    ("scope".into(), Value::Str(a.scope.clone())),
                    ("reason".into(), Value::Str(a.reason.clone())),
                ])
            })
            .collect();
        let unsafe_json: Vec<(String, Value)> = unsafe_counts
            .iter()
            .map(|(file, count)| (file.clone(), Value::Num(*count as f64)))
            .collect();
        let list = |v: &[String]| Value::Arr(v.iter().cloned().map(Value::Str).collect());
        let atomics_json: Vec<(String, Value)> = self
            .atomics
            .iter()
            .map(|p| {
                (
                    p.atomic.clone(),
                    Value::Obj(vec![
                        ("role".into(), Value::Str(p.role.as_str().into())),
                        ("load".into(), list(&p.load)),
                        ("store".into(), list(&p.store)),
                        ("rmw".into(), list(&p.rmw)),
                        (
                            "why".into(),
                            Value::Str(self.atomic_why.get(&p.atomic).cloned().unwrap_or_default()),
                        ),
                    ]),
                )
            })
            .collect();
        let locks_json: Vec<Value> = self
            .locks
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("class".into(), Value::Str(c.class.clone())),
                    ("acquire".into(), list(&c.acquire)),
                    ("forbid".into(), list(&c.forbid)),
                    ("why".into(), Value::Str(c.why.clone())),
                ])
            })
            .collect();
        let polls_json: Vec<Value> = self
            .polls
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("file".into(), Value::Str(p.file.clone())),
                    ("chunker".into(), Value::Str(p.chunker.clone())),
                    ("probes".into(), list(&p.probes)),
                    ("why".into(), Value::Str(p.why.clone())),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("unsafe".into(), Value::Obj(unsafe_json)),
            ("allow".into(), Value::Arr(allow_json)),
            ("atomics".into(), Value::Obj(atomics_json)),
            ("locks".into(), Value::Arr(locks_json)),
            ("polls".into(), Value::Arr(polls_json)),
        ]);
        pretty(&doc, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_v2() -> String {
        r#"{
  "schema": "toleo-audit/v2",
  "unsafe": { "crates/crypto/src/backend.rs": 21 },
  "allow": [
    { "file": "crates/crypto/src/mac.rs", "rule": "panic", "scope": "line", "reason": "chunks_exact(8) guarantees length" }
  ],
  "atomics": {
    "killed": { "role": "flag", "load": ["Acquire"], "store": ["Release", "SeqCst"], "rmw": [], "why": "kill is release-published and acquire-observed" }
  },
  "locks": [
    { "class": "shard_engine", "acquire": ["lock_shard", "shards"], "forbid": ["trip_kill"], "why": "shard sections stay panic-free" }
  ],
  "polls": [
    { "file": "crates/toleo-core/src/sharded.rs", "chunker": "poll_ops", "probes": ["killed"], "why": "kill-poll bound" }
  ]
}"#
        .to_string()
    }

    fn temp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("toleo-audit-baseline-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("AUDIT.json");
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn load_roundtrip_via_render() {
        let path = temp("v2", &sample_v2());
        let b = Baseline::load(&path).unwrap();
        assert!(b.present);
        assert_eq!(b.unsafe_counts["crates/crypto/src/backend.rs"], 21);
        assert_eq!(b.allow.len(), 1);
        assert_eq!(b.atomics.len(), 1);
        assert_eq!(b.atomics[0].role, Role::Flag);
        assert_eq!(b.atomics[0].load, ["Acquire"]);
        assert_eq!(b.atomics[0].store, ["Release", "SeqCst"]);
        assert!(b.atomics[0].rmw.is_empty());
        assert_eq!(b.locks.len(), 1);
        assert_eq!(b.locks[0].acquire, ["lock_shard", "shards"]);
        assert_eq!(b.polls.len(), 1);
        assert_eq!(b.polls[0].probes, ["killed"]);
        // Render with the same inventory and reload: identical content.
        let rendered = b.render(&b.unsafe_counts, &b.allow);
        std::fs::write(&path, &rendered).unwrap();
        let again = Baseline::load(&path).unwrap();
        assert_eq!(again.unsafe_counts, b.unsafe_counts);
        assert_eq!(again.allow, b.allow);
        assert_eq!(again.atomic_why["killed"], b.atomic_why["killed"]);
        assert_eq!(again.locks[0].class, "shard_engine");
        assert_eq!(again.polls[0].chunker, "poll_ops");
        assert_eq!(rendered, again.render(&again.unsafe_counts, &again.allow));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_baseline() {
        let b = Baseline::load(Path::new("/nonexistent/AUDIT.json")).unwrap();
        assert!(!b.present);
        assert!(b.unsafe_counts.is_empty());
    }

    #[test]
    fn rejects_policy_without_why() {
        let path = temp(
            "nowhy",
            r#"{"schema": "toleo-audit/v2", "atomics": {"x": {"role": "flag", "load": ["Acquire"], "why": ""}}}"#,
        );
        assert!(Baseline::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_unknown_role_and_schema() {
        // The retired `epoch`, `guard` and `cache` roles included: no
        // row uses them, so nothing parses them.
        for role in ["mystery", "epoch", "guard", "cache"] {
            let path = temp(
                "badrole",
                &format!(
                    r#"{{"schema": "toleo-audit/v2", "atomics": {{"x": {{"role": "{role}", "load": ["Acquire"], "why": "w"}}}}}}"#
                ),
            );
            let err = Baseline::load(&path).unwrap_err();
            assert!(err.contains(&format!("unknown role `{role}`")), "{err}");
            std::fs::remove_file(&path).ok();
        }
        // The retired v1 schema included: nothing migrates it any more.
        for schema in ["toleo-audit/v3", "toleo-audit/v1"] {
            let path2 = temp("badschema", &format!(r#"{{"schema": "{schema}"}}"#));
            let err = Baseline::load(&path2).unwrap_err();
            assert!(
                err.contains(&format!("schema `{schema}` (expected `toleo-audit/v2`)")),
                "{err}"
            );
            std::fs::remove_file(&path2).ok();
        }
    }
}
