//! The structured experiment-output model every figure/table experiment
//! returns.
//!
//! A [`Report`] is one experiment's complete result: a set of
//! [`Table`]s, a flat map of named scalar [`Report::metrics`] (what the
//! delta and invariant tooling compares), and free-form notes. One
//! report renders two ways:
//!
//! * [`Report::render_markdown`] — the `results/<name>.md` artifact;
//! * [`Report::to_json`] — the machine-readable `results/<name>.json`
//!   artifact (schema [`EXPERIMENT_SCHEMA`]), parseable by
//!   [`toleo_json::parse`] and round-trippable via [`Report::from_json`] so
//!   `reproduce --render` can re-emit tables without re-running.
//!
//! Numeric cells carry both a display string (the exact formatting the
//! figure wants) and the underlying value rounded to 9 significant
//! digits ([`sig9`]) so reference comparisons are bit-stable across
//! hosts whose `libm` implementations differ in the last ulp.

use toleo_json::Value;

/// Schema identifier emitted in every per-experiment JSON document.
pub const EXPERIMENT_SCHEMA: &str = "toleo-experiment/v1";

/// One table cell: the display text plus, for numeric cells, the
/// machine-readable value.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What the rendered table shows.
    pub text: String,
    /// The underlying number (rounded via [`sig9`]), when numeric.
    pub num: Option<f64>,
}

impl Cell {
    /// A text-only cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell {
            text: s.into(),
            num: None,
        }
    }

    /// A numeric cell displayed with `decimals` fraction digits.
    pub fn num(v: f64, decimals: usize) -> Cell {
        Cell {
            text: format!("{v:.decimals$}"),
            num: finite(v),
        }
    }

    /// An integer-valued cell.
    pub fn int(v: u64) -> Cell {
        Cell {
            text: v.to_string(),
            num: finite(v as f64),
        }
    }

    /// A fraction rendered as a percentage with `decimals` digits; the
    /// stored value stays the raw fraction.
    pub fn pct(fraction: f64, decimals: usize) -> Cell {
        Cell {
            text: format!("{:.decimals$}%", fraction * 100.0),
            num: finite(fraction),
        }
    }

    /// A numeric cell in scientific notation.
    pub fn sci(v: f64) -> Cell {
        Cell {
            text: format!("{v:.1e}"),
            num: finite(v),
        }
    }

    /// A boolean cell (stored as 0/1 so references can diff it).
    pub fn bool(v: bool) -> Cell {
        Cell {
            text: v.to_string(),
            num: Some(if v { 1.0 } else { 0.0 }),
        }
    }
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then(|| sig9(v))
}

/// Rounds to 9 significant digits. Reference outputs must be
/// reproducible on any host; the modeled numbers are deterministic
/// arithmetic, but a few derived values go through `ln`/`exp`/`log10`,
/// whose last-ulp behaviour is libm-specific. Nine significant digits
/// keep every real signal and absorb that jitter. Implemented through
/// the decimal formatter (correctly rounded, pure core, no libm), so the
/// result is bit-identical on every platform.
pub fn sig9(v: f64) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    format!("{v:.8e}").parse().unwrap_or(v)
}

/// One titled table of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; every row must have `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given caption and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        debug_assert_eq!(cells.len(), self.columns.len(), "{}", self.title);
        self.rows.push(cells);
    }
}

/// One experiment's complete structured result.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registry name (`fig6`, `table2`, `availability`, …).
    pub name: String,
    /// Human title (the headline line of the rendered report).
    pub title: String,
    /// Memory operations per generated trace for this run (the scale
    /// knob); reference comparisons only apply between equal scales.
    pub mem_ops: u64,
    /// Named scalar results — the delta/invariant comparison surface.
    pub metrics: Vec<(String, f64)>,
    /// The rendered tables.
    pub tables: Vec<Table>,
    /// Free-form trailing notes (paper reference values etc.).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(name: &str, title: impl Into<String>, mem_ops: u64) -> Report {
        Report {
            name: name.to_string(),
            title: title.into(),
            mem_ops,
            metrics: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records one named scalar (rounded via [`sig9`]; non-finite values
    /// are recorded as 0 with a note so the JSON stays valid).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, sig9(value)));
        } else {
            self.notes.push(format!("metric {name} was non-finite"));
            self.metrics.push((name, 0.0));
        }
    }

    /// Looks up a metric by name.
    pub fn get_metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Markdown rendering — the `results/<name>.md` artifact.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n\n", self.title));
        out.push_str(&format!(
            "_Generated by `reproduce` (experiment `{}`, {} ops/trace). \
             Machine-readable copy: `{}.json`._\n",
            self.name,
            if self.mem_ops == 0 {
                "scale-independent".to_string()
            } else {
                self.mem_ops.to_string()
            },
            self.name
        ));
        for t in &self.tables {
            if !t.title.is_empty() {
                out.push_str(&format!("\n## {}\n\n", t.title));
            } else {
                out.push('\n');
            }
            out.push_str(&format!("| {} |\n", t.columns.join(" | ")));
            out.push_str(&format!(
                "|{}\n",
                t.columns.iter().map(|_| "---|").collect::<String>()
            ));
            for row in &t.rows {
                let cells: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
                out.push_str(&format!("| {} |\n", cells.join(" | ")));
            }
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }

    /// Machine-readable JSON (schema [`EXPERIMENT_SCHEMA`]): one table
    /// row per line, everything else one member per line.
    pub fn to_json(&self) -> String {
        let texts = |items: &[String]| Value::Arr(items.iter().map(|s| text(s)).collect());
        let cell = |c: &Cell| {
            let mut members = vec![("text".to_string(), text(&c.text))];
            members.extend(c.num.map(|n| ("num".to_string(), Value::Num(n))));
            Value::Obj(members)
        };
        let row = |r: &Vec<Cell>| Value::Arr(r.iter().map(cell).collect());
        let table = |t: &Table| {
            object([
                ("title", text(&t.title)),
                ("columns", texts(&t.columns)),
                ("rows", Value::Arr(t.rows.iter().map(row).collect())),
            ])
        };
        let metric = |(k, v): &(String, f64)| (k.clone(), Value::Num(*v));
        let doc = object([
            ("schema", text(EXPERIMENT_SCHEMA)),
            ("experiment", text(&self.name)),
            ("title", text(&self.title)),
            ("mem_ops", Value::Num(self.mem_ops as f64)),
            (
                "metrics",
                Value::Obj(self.metrics.iter().map(metric).collect()),
            ),
            (
                "tables",
                Value::Arr(self.tables.iter().map(table).collect()),
            ),
            ("notes", texts(&self.notes)),
        ]);
        toleo_json::pretty(&doc, &["columns", "rows"])
    }

    /// Rebuilds a report from a parsed [`Value`] (the inverse of
    /// [`Report::to_json`] — used by `reproduce --render` and the delta
    /// comparison).
    ///
    /// # Errors
    ///
    /// Describes the missing/mistyped field on documents that do not
    /// match [`EXPERIMENT_SCHEMA`].
    pub fn from_json(doc: &Value) -> Result<Report, String> {
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema")?;
        if schema != EXPERIMENT_SCHEMA {
            return Err(format!(
                "schema {schema:?} is not {EXPERIMENT_SCHEMA:?} — regenerate the document"
            ));
        }
        let name = doc
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("missing experiment")?;
        let title = doc
            .get("title")
            .and_then(Value::as_str)
            .ok_or("missing title")?;
        let mem_ops = doc
            .get("mem_ops")
            .and_then(Value::as_f64)
            .ok_or("missing mem_ops")? as u64;
        let mut report = Report::new(name, title, mem_ops);
        match doc.get("metrics") {
            Some(Value::Obj(members)) => {
                for (k, v) in members {
                    let v = v
                        .as_f64()
                        .ok_or_else(|| format!("metric {k} not a number"))?;
                    report.metrics.push((k.clone(), v));
                }
            }
            _ => return Err("missing metrics object".into()),
        }
        for (ti, t) in doc
            .get("tables")
            .and_then(Value::as_array)
            .ok_or("missing tables array")?
            .iter()
            .enumerate()
        {
            let title = t
                .get("title")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("table {ti}: missing title"))?;
            let columns: Vec<String> = t
                .get("columns")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("table {ti}: missing columns"))?
                .iter()
                .map(|c| c.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("table {ti}: non-string column"))?;
            let mut table = Table {
                title: title.to_string(),
                columns,
                rows: Vec::new(),
            };
            for row in t
                .get("rows")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("table {ti}: missing rows"))?
            {
                let cells: Vec<Cell> = row
                    .as_array()
                    .ok_or_else(|| format!("table {ti}: row is not an array"))?
                    .iter()
                    .map(|c| {
                        Ok(Cell {
                            text: c
                                .get("text")
                                .and_then(Value::as_str)
                                .ok_or_else(|| format!("table {ti}: cell without text"))?
                                .to_string(),
                            num: c.get("num").and_then(Value::as_f64),
                        })
                    })
                    .collect::<Result<_, String>>()?;
                table.rows.push(cells);
            }
            report.tables.push(table);
        }
        for n in doc
            .get("notes")
            .and_then(Value::as_array)
            .ok_or("missing notes array")?
        {
            report
                .notes
                .push(n.as_str().ok_or("non-string note")?.to_string());
        }
        Ok(report)
    }
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use toleo_json as json;

    fn sample() -> Report {
        let mut r = Report::new("fig0", "Figure 0. A \"sample\"", 1234);
        r.metric("avg.overhead", 0.12345678912345);
        r.metric("count", 42.0);
        let mut t = Table::new("main", &["bench", "value", "share"]);
        t.row(vec![
            Cell::text("bsw"),
            Cell::num(1.5, 2),
            Cell::pct(0.5, 1),
        ]);
        t.row(vec![Cell::text("gc"), Cell::int(7), Cell::sci(1.7e-19)]);
        r.tables.push(t);
        r.note("paper: reference");
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let text = r.to_json();
        let doc = json::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(EXPERIMENT_SCHEMA)
        );
        let back = Report::from_json(&doc).expect("round-trip");
        assert_eq!(back, r);
        // Re-emission is byte-stable (the --render invariant).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = sample().to_json().replace("toleo-experiment/v1", "x/v9");
        let doc = json::parse(&text).expect("parses");
        assert!(Report::from_json(&doc).unwrap_err().contains("regenerate"));
    }

    #[test]
    fn sig9_rounds_and_preserves() {
        assert_eq!(sig9(0.0), 0.0);
        assert_eq!(sig9(123456789.0), 123456789.0);
        assert_eq!(sig9(0.12345678912345), 0.123456789);
        assert_eq!(sig9(-1.7e-19), -1.7e-19);
    }

    #[test]
    fn renders_are_nonempty_and_aligned() {
        let md = sample().render_markdown();
        assert!(md.starts_with("# Figure 0."));
        assert!(md.contains("| bench | value | share |"));
        assert!(md.contains("| bsw | 1.50 | 50.0% |"));
    }

    #[test]
    fn non_finite_metric_is_recorded_safely() {
        let mut r = Report::new("x", "t", 0);
        r.metric("bad", f64::NAN);
        assert_eq!(r.get_metric("bad"), Some(0.0));
        assert!(r.notes.iter().any(|n| n.contains("non-finite")));
        assert!(json::parse(&r.to_json()).is_ok());
    }
}
