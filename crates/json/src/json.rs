//! The value tree, the recursive-descent parser and the printer.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as f64 (neither tool stores anything wider).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document (= insertion) order. Keys may legally
    /// repeat in JSON; [`Value::get`] returns the first.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if it is a whole number that fits a `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64)
            .map(|n| n as u32)
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Renders `value` with 2-space indentation, one member or item per
/// line, and a trailing newline. Whole numbers print without a
/// fraction, everything else as the shortest decimal that round-trips.
///
/// An array under one of `table_keys` is a table: a row, or a list of
/// rows, and each row is written on one line (`["a", "b"]`,
/// `[{"text": "x", "num": 1}, …]`). That is the layout of the
/// `columns` and `rows` of an experiment report; pass `&[]` for none.
pub fn pretty(value: &Value, table_keys: &[&str]) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0, usize::MAX, table_keys);
    out.push('\n');
    out
}

/// Writes `value` at nesting depth `indent`, breaking lines for the
/// next `expand` levels of containers and keeping deeper ones on one
/// line (`, ` between members).
fn write_value(out: &mut String, value: &Value, indent: usize, expand: usize, tables: &[&str]) {
    let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match value {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
            return out.push_str(&(*n as i64).to_string())
        }
        Value::Num(n) => return out.push_str(&n.to_string()),
        Value::Str(s) => return write_string(out, s),
        Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Obj(members) => {
            let keyed = members.iter().map(|(k, v)| (Some(k.as_str()), v));
            ('{', '}', keyed.collect())
        }
    };
    let lines = expand > 0 && !members.is_empty();
    let new_line = |out: &mut String, depth: usize| {
        if lines {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    out.push(open);
    for (i, (key, member)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(if lines { "," } else { ", " });
        }
        new_line(out, indent + 1);
        let mut expand = expand.saturating_sub(1);
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
            if let (true, Value::Arr(rows)) = (tables.contains(key), member) {
                // A list of rows breaks once, between rows; one row, never.
                expand = expand.min(rows.iter().any(|r| matches!(r, Value::Arr(_))) as usize);
            }
        }
        write_value(out, member, indent + 1, expand, tables);
    }
    new_line(out, indent);
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document: objects, arrays, strings with the
/// standard escapes, f64 numbers, booleans and null.
///
/// # Errors
///
/// What was wrong and at which byte, on malformed input or trailing
/// non-whitespace.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.fail("trailing content");
    }
    Ok(value)
}

/// A cursor over the document. `pos` only ever steps over ASCII bytes
/// or whole runs between them, so it is always a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() != Some(c) {
            return self.fail(&format!("expected {:?}", c as char));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let member = |p: &mut Self| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                };
                self.members(b'}', member).map(Value::Obj)
            }
            Some(b'[') => self.members(b']', Parser::value).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                match self.text[start..self.pos].parse() {
                    Ok(n) => Ok(Value::Num(n)),
                    Err(_) => self.fail("invalid number ending"),
                }
            }
            _ => self.fail("unexpected character or end of input"),
        }
    }

    /// The comma-separated members of an array or object, from its
    /// opening bracket through `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            self.skip_ws();
            if self.peek() != Some(b',') {
                return self.eat(close).map(|()| out);
            }
            self.pos += 1;
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return self.fail("invalid literal");
        }
        self.pos += word.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            // A backslash, or the end of the input.
            self.pos += 1;
            let Some(escape) = self.peek() else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            out.push(match escape {
                b'"' | b'\\' | b'/' => escape as char,
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4);
                    let Some(code) = hex.and_then(|h| u32::from_str_radix(h, 16).ok()) else {
                        return self.fail("bad \\u escape");
                    };
                    self.pos += 4;
                    // Neither tool emits surrogate pairs; a lone
                    // surrogate becomes the replacement character.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return self.fail("bad escape"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_harness_shaped_documents() {
        let doc = r#"
        {
          "schema": "toleo-experiment/v1",
          "ok": true, "none": null, "neg": -2.5e1,
          "engine": [
            {"workload": "sequential", "blocks_per_sec": 123456.0},
            {"workload": "random", "blocks_per_sec": 7890}
          ]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("toleo-experiment/v1")
        );
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-25.0));
        let engine = v.get("engine").and_then(Value::as_array).unwrap();
        assert_eq!(engine.len(), 2);
        assert_eq!(
            engine[1].get("blocks_per_sec").and_then(Value::as_f64),
            Some(7890.0)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(engine[0].get("workload").unwrap().as_f64(), None);
    }

    #[test]
    fn parses_string_escapes() {
        let v = parse(r#""a\"b\\c\/\ndA\b\f\r\t é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/\ndA\u{8}\u{c}\r\t é"));
        assert_eq!(parse(r#""\ud800""#).unwrap().as_str(), Some("\u{fffd}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"short \\u12\"",
            "nul",
            "1.2.3",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["[1,]", "{} extra", "'single'", "{\"a\" 1}", "{a: 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// `AUDIT.json`'s layout: everything expanded, and `pretty` of the
    /// parsed text is the text.
    #[test]
    fn roundtrip_schema_shape() {
        let src = r#"{
  "schema": "toleo-audit/v2",
  "unsafe": {
    "crates/crypto/src/backend.rs": 23
  },
  "allow": [
    {
      "file": "a.rs",
      "scope": "line",
      "reason": "why \"quoted\""
    }
  ],
  "atomics": {
    "killed": {
      "load": [
        "Acquire"
      ],
      "rmw": [],
      "why": "kill must be ordered"
    }
  },
  "locks": {}
}
"#;
        let parsed = parse(src).unwrap();
        assert_eq!(
            parsed
                .get("unsafe")
                .and_then(|u| u.get("crates/crypto/src/backend.rs"))
                .and_then(Value::as_u32),
            Some(23)
        );
        assert_eq!(pretty(&parsed, &[]), src);
    }

    /// An experiment report's layout: `columns` is one row, `rows` a
    /// list of rows, one line each; the same keys elsewhere are inert.
    #[test]
    fn table_keys_put_each_row_on_one_line() {
        let src = r#"{
  "metrics": {
    "rows": 2,
    "tiny": 0.00000000000000000017
  },
  "tables": [
    {
      "columns": ["bench", "share"],
      "rows": [
        [{"text": "bsw"}, {"text": "50.0%", "num": 0.5}],
        []
      ]
    },
    {
      "columns": [],
      "rows": []
    }
  ],
  "notes": [
    "expanded: not a table key"
  ]
}
"#;
        let parsed = parse(src).unwrap();
        assert_eq!(pretty(&parsed, &["columns", "rows"]), src);
        assert!(pretty(&parsed, &[]).contains("\"columns\": [\n"));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("line\nquote\" back\\ tab\t cr\r bell\u{7}".to_string());
        let text = pretty(&v, &[]);
        assert!(text.contains("\\u0007"), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("42").unwrap().as_u32(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u32(), None);
        assert_eq!(parse("1.5").unwrap().as_u32(), None);
        assert_eq!(parse("4294967296").unwrap().as_u32(), None);
        assert_eq!(parse("1.5").unwrap(), Value::Num(1.5));
        assert_eq!(pretty(&Value::Num(250000.0), &[]), "250000\n");
        assert_eq!(pretty(&Value::Num(0.924613315), &[]), "0.924613315\n");
    }

    #[test]
    fn object_order_is_preserved() {
        let parsed = parse(r#"{"z": 1, "a": 2, "z": 3}"#).unwrap();
        let keys: Vec<_> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "z"]);
        assert_eq!(parsed.get("z"), Some(&Value::Num(1.0)), "first wins");
        assert_eq!(parsed.as_array(), None);
    }
}
