//! Property tests of the source-rule scanner (`tests/scan/mod.rs`):
//! blanking never panics on broken source, keeps every byte's offset
//! and changes only the bytes of literals and comments, and the token
//! splitter walks forward through what is left.

#[allow(dead_code)]
mod scan;

use proptest::prelude::*;
use scan::{blank, tokens};

/// Source fragments chosen to stress the blanker's tricky states:
/// unterminated strings, raw-string heads, escapes, lifetimes vs char
/// literals, comment openers, multibyte identifiers and lone quotes.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("fn f() {}".to_string()),
        Just("let x = 1;".to_string()),
        Just("\n".to_string()),
        Just(" ".to_string()),
        Just("\"".to_string()),
        Just("\"abc".to_string()),
        Just("\"a\\\"b\"".to_string()),
        Just("r#\"".to_string()),
        Just("r#\"raw\"#".to_string()),
        Just("b\"bytes\"".to_string()),
        Just("'a".to_string()),
        Just("'x'".to_string()),
        Just("'\\n'".to_string()),
        Just("//".to_string()),
        Just("// line comment\n".to_string()),
        Just("/*".to_string()),
        Just("/* block */".to_string()),
        Just("/// doc\n".to_string()),
        Just("::<>->".to_string()),
        Just("0x1f_u64".to_string()),
        Just("1.5e-3".to_string()),
        Just("self.mu.lock()".to_string()),
        Just("väljärvi".to_string()),
        Just("∆t".to_string()),
        Just("\\".to_string()),
        Just("#![allow(dead_code)]".to_string()),
        Just("macro_rules! m".to_string()),
    ]
}

/// Soup of fragments glued together — syntactically broken on purpose.
fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec(fragment(), 0..40).prop_map(|v| v.concat())
}

/// Well-formed fragments, each marked whether it is code (`true`) or a
/// literal or comment (`false`), so the expected blanking of a soup of
/// them is known byte by byte.
const CLOSED: [(&str, bool); 26] = [
    ("fn f() {}", true),
    ("let x = 1;", true),
    ("\n", true),
    ("::<>->", true),
    ("0x1f_u64", true),
    ("for i in 0..n.max(1.5e-3) {}", true),
    ("self.mu.lock()", true),
    ("väljärvi ∆t", true),
    ("#![allow(dead_code)]", true),
    ("fn f<'a>(x: &'a str) {}", true),
    ("'outer: loop {}", true),
    ("r#type", true),
    ("\"a\\\"b\"", false),
    ("\"multi\nline\"", false),
    ("r#\"raw \" quote\"#", false),
    ("r\"pub fn f() -> Result<(), String> {}\"", false),
    ("br##\"x\"#y\"##", false),
    ("b\"bytes\"", false),
    ("b'x'", false),
    ("'x'", false),
    ("'\\n'", false),
    ("'∆'", false),
    ("// line comment\n", false),
    ("/// doc\n", false),
    ("/* block */", false),
    ("/* a /* b\n */ c */", false),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics_and_positions_are_monotone(src in soup()) {
        let out = blank(&src);
        prop_assert_eq!(out.len(), src.len());
        for (a, b) in src.bytes().zip(out.bytes()) {
            prop_assert!(b == a || (b == b' ' && a != b'\n'), "{src:?} -> {out:?}");
        }
        let toks = tokens(&out);
        for pair in toks.windows(2) {
            let ((at, tok), (next, _)) = (pair[0], pair[1]);
            prop_assert!(at + tok.len() <= next, "{tok:?} at {at} overlaps {next} in {out:?}");
        }
        for (at, tok) in toks {
            prop_assert_eq!(&out[at..at + tok.len()], tok);
        }
    }

    #[test]
    fn token_count_is_bounded_by_source_bytes(src in soup()) {
        let n = tokens(&blank(&src)).len();
        prop_assert!(n <= src.len(), "{} tokens from {} bytes", n, src.len());
    }

    #[test]
    fn blanking_changes_only_literals_and_comments(
        picks in prop::collection::vec(0..CLOSED.len(), 0..40)
    ) {
        let parts: Vec<(&str, bool)> = picks.iter().map(|&i| CLOSED[i]).collect();
        let src: Vec<&str> = parts.iter().map(|p| p.0).collect();
        let src = src.join(" ");
        let expected: Vec<String> = parts
            .iter()
            .map(|&(text, code)| if code {
                text.to_owned()
            } else {
                text.bytes().map(|b| if b == b'\n' { '\n' } else { ' ' }).collect()
            })
            .collect();
        prop_assert_eq!(blank(&src), expected.join(" "), "{src:?}");
    }
}

/// Scanner states the soup may not hit every run: unterminated raw
/// strings and a trailing backslash reach the end of input intact.
#[test]
fn pathological_tails_do_not_panic() {
    for src in [
        "r#\"never closed",
        "r###\"deep\"##",
        "\"escape at eof \\",
        "'",
        "b'",
        "/* nested /* comment",
        "ident\u{0000}after_nul",
    ] {
        assert_eq!(blank(src).len(), src.len(), "{src:?}");
    }
}
