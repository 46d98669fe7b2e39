//! Rule 4 — **secret hygiene**.
//!
//! Key material must never reach a format string: a Debug-printed key
//! in a log or panic message is a key exfiltrated. Two checks:
//!
//! 1. Format-macro calls (`format!`, `println!`, `write!`, `panic!`,
//!    the assert family, …) must not reference a tainted identifier —
//!    one whose snake-case segments name key/seed/tweak/secret material
//!    — either inline (`{key:?}`) or as an argument (`"{:?}", key`).
//! 2. `#[derive(Debug)]` on a struct with a tainted field is flagged:
//!    write a manual impl that redacts (see `AesNiAes` in
//!    `crypto/src/backend.rs` for the pattern).

use crate::lexer::TokenKind;
use crate::rules::{Finding, Tier};
use crate::source::SourceFile;

const FORMAT_MACROS: [&str; 16] = [
    "format",
    "format_args",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "log",
];

/// Snake-case segments that mark an identifier as key material.
const TAINT_SEGMENTS: [&str; 9] = [
    "key", "keys", "seed", "seeds", "tweak", "tweaks", "derived", "secret", "secrets",
];

/// Whether `ident` names key/seed material.
pub fn tainted(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    lower.contains("secret") || lower.split('_').any(|seg| TAINT_SEGMENTS.contains(&seg))
}

/// Scans `file` for secret-hygiene findings (pre-suppression).
pub fn scan(file: &SourceFile, tier: Tier) -> Vec<Finding> {
    if tier == Tier::Test {
        return Vec::new();
    }
    let mut out = Vec::new();
    scan_format_macros(file, &mut out);
    scan_derive_debug(file, &mut out);
    out
}

fn scan_format_macros(file: &SourceFile, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < file.tokens.len() {
        let tok = &file.tokens[i];
        let is_macro = tok.kind == TokenKind::Ident
            && FORMAT_MACROS.contains(&tok.text.as_str())
            && !file.in_test_region(i)
            && file
                .next_code_token(i + 1)
                .is_some_and(|(_, t)| t.is_punct('!'));
        if !is_macro {
            i += 1;
            continue;
        }
        let open = file
            .next_code_token(i + 1)
            .and_then(|(bang, _)| file.next_code_token(bang + 1))
            .filter(|(_, t)| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'));
        let Some((open, end)) = open.and_then(|(o, _)| Some((o, file.partner(o)?))) else {
            i += 1;
            continue;
        };
        check_group(file, &file.tokens[open..=end], out);
        i = end + 1;
    }
}

/// Checks one format-macro argument group: the format string's inline
/// `{…}` placeholders, then every identifier argument.
fn check_group(file: &SourceFile, group: &[crate::lexer::Token], out: &mut Vec<Finding>) {
    if let Some(fmt) = group.iter().find(|t| t.kind == TokenKind::Str) {
        for name in placeholder_names(fmt.string_content()) {
            if tainted(&name) {
                out.push(
                    Finding::new(
                        "secret-hygiene",
                        &file.rel_path,
                        fmt.line,
                        fmt.col,
                        format!(
                            "format string interpolates tainted identifier `{name}`: key material \
                             must not reach logs or panic messages"
                        ),
                    )
                    .allowed_by(&["secret"]),
                );
            }
        }
    }
    for tok in group {
        if tok.kind == TokenKind::Ident && tainted(&tok.text) {
            out.push(
                Finding::new(
                    "secret-hygiene",
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    format!(
                        "tainted identifier `{}` passed to a format macro: key material must \
                         not reach logs or panic messages",
                        tok.text
                    ),
                )
                .allowed_by(&["secret"]),
            );
        }
    }
}

/// Identifier heads of `{…}` placeholders in a format string
/// (`{key}` → `key`, `{key:?}` → `key`, `{}`/`{0}` → none).
fn placeholder_names(fmt: &str) -> Vec<String> {
    let mut names = Vec::new();
    let chars: Vec<char> = fmt.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2;
                continue;
            }
            let mut name = String::new();
            let mut j = i + 1;
            while let Some(&c) = chars.get(j) {
                if c.is_alphanumeric() || c == '_' {
                    name.push(c);
                    j += 1;
                } else {
                    break;
                }
            }
            if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                names.push(name);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    names
}

/// Flags `#[derive(…Debug…)]` on structs with tainted fields.
fn scan_derive_debug(file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            continue;
        }
        if file.in_test_region(i) {
            continue;
        }
        let Some((j, name)) = file.next_code_token(i + 2) else {
            continue;
        };
        if !name.is_ident("derive") {
            continue;
        }
        let args = file.next_code_token(j + 1).and_then(|(open, _)| {
            Some(&tokens[open..file.partner(open).filter(|&close| close > open)?])
        });
        if !args.is_some_and(|args| args.iter().any(|t| t.is_ident("Debug"))) {
            continue;
        }
        let item = file
            .partner(i + 1)
            .and_then(|attr_end| file.skip_attrs(attr_end + 1));
        if let Some(field) = item.and_then(|item| struct_tainted_field(file, item)) {
            out.push(
                Finding::new(
                    "secret-hygiene",
                    &file.rel_path,
                    tokens[i].line,
                    tokens[i].col,
                    format!(
                        "#[derive(Debug)] on a struct holding key material (field `{field}`): \
                         write a manual Debug impl that redacts it"
                    ),
                )
                .allowed_by(&["secret"]),
            );
        }
    }
}

/// If the item starting at token `item` is a braced struct, returns its
/// first tainted field name.
fn struct_tainted_field(file: &SourceFile, item: usize) -> Option<String> {
    // `pub struct Name … {`; enums, unions and tuple structs are not.
    let (open, close) = file.item_body(item)?;
    let header = &file.tokens[item..open];
    let braced_struct = file.tokens[open].is_punct('{')
        && header.iter().any(|t| t.is_ident("struct"))
        && !header
            .iter()
            .any(|t| t.is_ident("enum") || t.is_ident("union"));
    if !braced_struct {
        return None;
    }
    let mut k = open + 1;
    while k < close {
        let tok = &file.tokens[k];
        if tok.is_punct('{') {
            k = file.partner(k)?; // a nested block holds no field
        } else if tok.kind == TokenKind::Ident && tainted(&tok.text) {
            // Field position: `name :` with a single colon.
            let colon = file.next_code_token(k + 1).is_some_and(|(m, t)| {
                t.is_punct(':')
                    && !file
                        .next_code_token(m + 1)
                        .is_some_and(|(_, t2)| t2.is_punct(':'))
            });
            if colon {
                return Some(tok.text.clone());
            }
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(src: &str) -> Vec<Finding> {
        scan(
            &SourceFile::parse("crates/crypto/src/demo.rs", src),
            Tier::Policy,
        )
    }

    #[test]
    fn taint_classifier() {
        for t in [
            "key",
            "mac_key",
            "derived",
            "device_seed",
            "tweak_key",
            "SecretBox",
            "keys",
        ] {
            assert!(tainted(t), "{t}");
        }
        for ok in [
            "page",
            "monkey_patch_no",
            "keyboard",
            "blocks",
            "tag",
            "version",
        ] {
            assert!(!tainted(ok), "{ok}");
        }
    }

    #[test]
    fn inline_placeholder_is_flagged() {
        let found = policy("fn f(key: u64) { println!(\"k={key:?}\"); }");
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`key`"));
    }

    #[test]
    fn argument_is_flagged() {
        let found = policy("fn f(mac_key: [u8; 16]) { panic!(\"bad: {:?}\", mac_key); }");
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`mac_key`"));
    }

    #[test]
    fn clean_format_is_clean() {
        let found = policy("fn f(pages: u64) { println!(\"pages={pages}, tag={}\", 7); }");
        assert!(found.is_empty());
    }

    #[test]
    fn untainted_braces_in_plain_strings_ignored() {
        let found = policy("fn f() { let s = \"{key}\"; }");
        assert!(found.is_empty(), "strings outside format macros are data");
    }

    #[test]
    fn derive_debug_on_key_struct_is_flagged() {
        let found = policy(
            "#[derive(Debug, Clone)]\npub struct Identity {\n    attestation_key: [u8; 16],\n}\n",
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
        assert!(found[0].message.contains("attestation_key"));
    }

    #[test]
    fn derive_debug_without_key_fields_is_clean() {
        let found = policy(
            "#[derive(Debug)]\npub struct Stats { reads: u64, tag_checks: u64 }\n#[derive(Debug)]\npub enum E { Key }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn derive_clone_only_is_clean() {
        let found = policy("#[derive(Clone)]\nstruct K { key: [u8; 16] }\n");
        assert!(found.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let found =
            policy("#[cfg(test)]\nmod t {\n    fn f(key: u64) { println!(\"{key}\"); }\n}\n");
        assert!(found.is_empty());
    }
}
