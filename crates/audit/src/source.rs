//! A lexed source file plus the derived structure the rules share:
//! the matching delimiter of every bracket, `#[cfg(test)]` / `#[test]`
//! regions, named `fn` bodies and `// audit:` allow annotations. This
//! is the one place that knows how Rust source nests; the rules ask it.

use crate::lexer::{lex, Token, TokenKind};

/// An `// audit: allow(rule, reason)` or `// audit: allow-file(rule,
/// reason)` annotation found in a source file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Allowance {
    /// Repo-relative path of the file carrying the annotation.
    pub file: String,
    /// The rule being allowed (`panic`, `indexing`, `secret`, `lock`,
    /// `poll`).
    pub rule: String,
    /// `true` for `allow-file` (covers the whole file), `false` for a
    /// line-level `allow` (covers its own line and the next code line).
    pub file_level: bool,
    /// The free-text justification inside the annotation.
    pub reason: String,
    /// Line the annotation sits on (1-based). Not part of the baseline
    /// identity — code moves — but used for diagnostics.
    pub line: u32,
    /// First line this annotation covers (line-level only).
    pub covers_line: u32,
}

/// A named `fn` with a body, outside test regions.
pub(crate) struct FnBody {
    pub(crate) name: String,
    /// Token indices of the body's `{` and matching `}`.
    pub(crate) body: (usize, usize),
}

/// One source file, lexed and scoped, ready for the rules.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    /// Raw source lines (for `SAFETY:` comment proximity checks).
    pub lines: Vec<String>,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Token-index ranges `[start, end]` (inclusive) that belong to
    /// `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Every named `fn` body outside test regions, in source order.
    pub(crate) fns: Vec<FnBody>,
    /// All well-formed audit annotations outside test regions.
    pub allowances: Vec<Allowance>,
    /// Malformed `// audit:` comments: (line, error message).
    pub annotation_errors: Vec<(u32, String)>,
    /// Per token: the index of the delimiter matching it, for `(` `[`
    /// `{` and their closers.
    partners: Vec<Option<usize>>,
}

impl SourceFile {
    /// Lexes and scopes `text` as the file at `rel_path`.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let mut file = SourceFile {
            rel_path: rel_path.to_string(),
            lines: text.lines().map(str::to_string).collect(),
            partners: match_delimiters(&tokens),
            tokens,
            test_regions: Vec::new(),
            fns: Vec::new(),
            allowances: Vec::new(),
            annotation_errors: Vec::new(),
        };
        file.test_regions = file.find_test_regions();
        file.fns = file.find_fns();
        file.collect_annotations();
        file
    }

    /// Whether token `idx` falls inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test_region(&self, idx: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| idx >= start && idx <= end)
    }

    /// The previous non-comment token before `idx`, with its index.
    pub fn prev_code_token(&self, idx: usize) -> Option<(usize, &Token)> {
        self.tokens[..idx]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, t)| !t.is_comment())
    }

    /// The next non-comment token at or after `idx`, with its index.
    pub fn next_code_token(&self, idx: usize) -> Option<(usize, &Token)> {
        self.tokens[idx..]
            .iter()
            .enumerate()
            .find(|(_, t)| !t.is_comment())
            .map(|(off, t)| (idx + off, t))
    }

    /// The delimiter matching the `(` `[` `{` `)` `]` `}` at `idx`, in
    /// either direction; `None` for an unmatched one or any other token.
    pub(crate) fn partner(&self, idx: usize) -> Option<usize> {
        self.partners.get(idx).copied().flatten()
    }

    /// The first token at or after `idx` that is neither a comment nor
    /// part of an `#[…]` attribute; `None` past an unmatched attribute.
    pub(crate) fn skip_attrs(&self, mut idx: usize) -> Option<usize> {
        loop {
            match self.tokens.get(idx) {
                Some(t) if t.is_comment() => idx += 1,
                Some(t)
                    if t.is_punct('#')
                        && self.tokens.get(idx + 1).is_some_and(|n| n.is_punct('[')) =>
                {
                    idx = self.partner(idx + 1)? + 1;
                }
                _ => return Some(idx),
            }
        }
    }

    /// The body of the item (or loop) whose header starts at `idx`: the
    /// first `{` outside `(…)` / `[…]` groups and its `}` — or, for a
    /// body-less item, its `;` as both ends.
    pub(crate) fn item_body(&self, mut idx: usize) -> Option<(usize, usize)> {
        while let Some(t) = self.tokens.get(idx) {
            if t.is_punct('(') || t.is_punct('[') {
                idx = self.partner(idx)?;
            } else if t.is_punct(';') {
                return Some((idx, idx));
            } else if t.is_punct('{') {
                return Some((idx, self.partner(idx)?));
            }
            idx += 1;
        }
        None
    }

    /// The first code token of the statement holding `idx`: the walk
    /// back stops after the nearest `;`, `{` or `}`.
    pub(crate) fn stmt_start(&self, mut idx: usize) -> usize {
        while let Some((prev, t)) = self.prev_code_token(idx) {
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            idx = prev;
        }
        idx
    }

    /// Whether a line-level or file-level allowance for `rule` covers a
    /// finding on `line`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allowances
            .iter()
            .any(|a| a.rule == rule && (a.file_level || a.line == line || a.covers_line == line))
    }

    /// Token ranges covered by `#[cfg(test)]` or `#[test]` items.
    ///
    /// Lexical, not syntactic: after a test attribute we skip any further
    /// attributes and comments, then take the item's body braces (or its
    /// `;`, for brace-less items). `cfg` attributes merely *containing*
    /// `test` (e.g. `cfg(all(test, unix))`, `cfg_attr(test, …)`) count as
    /// test scope — conservative in the lenient direction, which only
    /// ever under-reports, never flags test code as production.
    fn find_test_regions(&self) -> Vec<(usize, usize)> {
        let tokens = &self.tokens;
        let mut regions = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
                i += 1;
                continue;
            }
            let Some(attr_end) = self.partner(i + 1) else {
                break;
            };
            let attr = &tokens[i + 2..attr_end];
            let idents: Vec<&str> = attr
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            // `test` directly under a `not(…)` (as in `cfg(not(test))`)
            // marks production-only code, not test code.
            let bare_test = attr.iter().enumerate().any(|(j, t)| {
                t.is_ident("test")
                    && !(j >= 2 && attr[j - 1].is_punct('(') && attr[j - 2].is_ident("not"))
            });
            let is_test = idents == ["test"]
                || (matches!(idents.first(), Some(&"cfg" | &"cfg_attr")) && bare_test);
            if is_test {
                let item = self.skip_attrs(attr_end + 1);
                let Some((_, end)) = item.and_then(|start| self.item_body(start)) else {
                    break;
                };
                regions.push((i, end)); // keep scanning inside: harmless overlap
            }
            i = attr_end + 1;
        }
        regions
    }

    /// Every named `fn` with a body outside test regions (not `fn(usize)`
    /// pointer types, not body-less trait declarations).
    fn find_fns(&self) -> Vec<FnBody> {
        let mut fns = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !tok.is_ident("fn") || self.in_test_region(i) {
                continue;
            }
            let Some((ni, name)) = self.next_code_token(i + 1) else {
                continue;
            };
            let body = self.item_body(ni + 1).filter(|(open, close)| open != close);
            if let (Some(body), TokenKind::Ident) = (body, name.kind) {
                fns.push(FnBody {
                    name: name.text.clone(),
                    body,
                });
            }
        }
        fns
    }

    fn collect_annotations(&mut self) {
        // A line-level annotation covers its own line and the next line
        // holding a non-comment token, so it can sit above the code it
        // excuses. Compute "next code line" per annotation.
        let mut found = Vec::new();
        for (idx, tok) in self.tokens.iter().enumerate() {
            if tok.kind != TokenKind::LineComment {
                continue;
            }
            let body = tok.text.trim_start_matches('/').trim();
            let Some(rest) = body.strip_prefix("audit:") else {
                continue;
            };
            if self.in_test_region(idx) {
                // Test code is outside every policy; an annotation there
                // would be dead weight.
                self.annotation_errors
                    .push((tok.line, "audit annotation inside test code".to_string()));
                continue;
            }
            match parse_annotation(rest.trim()) {
                Ok((file_level, rule, reason)) => {
                    let covers_line = self
                        .next_code_token(idx)
                        .map(|(_, t)| t.line)
                        .unwrap_or(tok.line);
                    found.push(Allowance {
                        file: self.rel_path.clone(),
                        rule,
                        file_level,
                        reason,
                        line: tok.line,
                        covers_line,
                    });
                }
                Err(msg) => self.annotation_errors.push((tok.line, msg)),
            }
        }
        self.allowances = found;
    }
}

/// Parses the body after `audit:`. Accepted forms:
/// `allow(rule, reason…)` and `allow-file(rule, reason…)`.
fn parse_annotation(body: &str) -> Result<(bool, String, String), String> {
    let (file_level, rest) = if let Some(r) = body.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = body.strip_prefix("allow") {
        (false, r)
    } else {
        return Err(format!(
            "unknown audit annotation `{body}` (expected `allow(rule, reason)` or `allow-file(rule, reason)`)"
        ));
    };
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| "audit annotation missing (rule, reason) parentheses".to_string())?;
    let (rule, reason) = inner
        .split_once(',')
        .ok_or_else(|| "audit annotation missing a reason after the rule".to_string())?;
    let rule = rule.trim();
    let reason = reason.trim();
    if !matches!(rule, "panic" | "indexing" | "secret" | "lock" | "poll") {
        return Err(format!(
            "unknown audit rule `{rule}` (expected panic, indexing, secret, lock or poll)"
        ));
    }
    if reason.is_empty() {
        return Err("audit annotation has an empty reason".to_string());
    }
    Ok((file_level, rule.to_string(), reason.to_string()))
}

/// One stack pass over the code tokens: pairs every `(` `[` `{` with
/// its closer, both ways. A closer that does not match the innermost
/// open group is left unmatched, as is every group still open at EOF.
fn match_delimiters(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut partners = vec![None; tokens.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let opener = match t.text.as_str() {
            _ if t.kind != TokenKind::Punct => continue,
            "(" | "[" | "{" => {
                open.push(i);
                continue;
            }
            ")" => "(",
            "]" => "[",
            "}" => "{",
            _ => continue,
        };
        if let Some(&o) = open.last().filter(|&&o| tokens[o].text == opener) {
            open.pop();
            partners[o] = Some(i);
            partners[i] = Some(o);
        }
    }
    partners
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn cfg_test_module_is_a_region() {
        let f = file("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\n");
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test_region(unwrap_idx));
        let a_idx = f.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        assert!(!f.in_test_region(a_idx));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_a_region() {
        let f = file("#[test]\n#[should_panic]\nfn boom() { panic!(\"x\") }\nfn ok() {}");
        let panic_idx = f.tokens.iter().position(|t| t.is_ident("panic")).unwrap();
        assert!(f.in_test_region(panic_idx));
        let ok_idx = f.tokens.iter().rposition(|t| t.is_ident("ok")).unwrap();
        assert!(!f.in_test_region(ok_idx));
    }

    #[test]
    fn cfg_all_test_counts() {
        let f = file("#[cfg(all(test, unix))]\nmod t { fn x() {} }");
        let x_idx = f.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        assert!(f.in_test_region(x_idx));
    }

    #[test]
    fn cfg_test_use_statement_has_no_body() {
        let f = file("#[cfg(test)]\nuse std::collections::HashMap;\nfn real() {}");
        let real_idx = f.tokens.iter().position(|t| t.is_ident("real")).unwrap();
        assert!(!f.in_test_region(real_idx));
    }

    #[test]
    fn fn_with_array_arg_before_body() {
        // The `[u8; 48]` bracket group must not derail body detection.
        let f = file("#[cfg(test)]\nfn seed(k: [u8; 48]) { k.len(); }\nfn prod() {}");
        let len_idx = f.tokens.iter().position(|t| t.is_ident("len")).unwrap();
        assert!(f.in_test_region(len_idx));
        let prod_idx = f.tokens.iter().position(|t| t.is_ident("prod")).unwrap();
        assert!(!f.in_test_region(prod_idx));
    }

    #[test]
    fn line_annotation_covers_next_code_line() {
        let f = file("// audit: allow(panic, startup invariant)\nlet x = y.unwrap();\n");
        assert_eq!(f.allowances.len(), 1);
        let a = &f.allowances[0];
        assert!(!a.file_level);
        assert_eq!(a.rule, "panic");
        assert_eq!(a.reason, "startup invariant");
        assert_eq!(a.covers_line, 2);
        assert!(f.allowed("panic", 2));
        assert!(!f.allowed("panic", 3));
    }

    #[test]
    fn trailing_annotation_covers_its_own_line() {
        let f = file("let x = y.unwrap(); // audit: allow(panic, checked above)\n");
        assert!(f.allowed("panic", 1));
    }

    #[test]
    fn file_level_annotation_covers_everything() {
        let f = file("// audit: allow-file(indexing, table lookups are masked)\nfn a() { t[0]; }\nfn b() { t[1]; }\n");
        assert!(f.allowed("indexing", 2));
        assert!(f.allowed("indexing", 3));
    }

    #[test]
    fn malformed_annotations_are_reported() {
        for bad in [
            "// audit: allow(panic)",
            "// audit: allow(nonsense, why)",
            "// audit: permit(panic, why)",
            "// audit: allow(panic, )",
        ] {
            let f = file(&format!("{bad}\nlet x = 1;\n"));
            assert_eq!(f.annotation_errors.len(), 1, "{bad}");
            assert!(f.allowances.is_empty(), "{bad}");
        }
    }

    #[test]
    fn annotation_in_test_code_is_an_error() {
        let f = file("#[cfg(test)]\nmod t {\n  // audit: allow(panic, pointless)\n  fn x() {}\n}");
        assert_eq!(f.annotation_errors.len(), 1);
    }
}
