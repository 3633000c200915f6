//! Per-line suppression comments.
//!
//! Syntax: `// ssdtrain-lint: allow(<rule>): <reason>` — the reason is
//! mandatory; an allow without one is itself a violation (rule
//! `suppression`), so every silenced diagnostic carries an explanation
//! in the source. A trailing allow suppresses its own line; a
//! standalone allow suppresses the next line that holds code. One
//! comment may carry several allows separated by `;`:
//! `// ssdtrain-lint: allow(a): why; allow(b): why` — each segment is
//! parsed (and reported when malformed) independently.
//!
//! The same comment channel carries the one module-level marker,
//! `// ssdtrain-lint: hot-path`: a file that holds it (anywhere, by
//! convention under its module docs) is part of the offload hot path
//! the `panic-free-hot-path` rule polices. The membership lives with
//! the code, so moving or splitting a module needs no lint change.

use crate::diagnostics::Diagnostic;
use crate::workspace::SourceFile;

const MARKER: &str = "ssdtrain-lint:";
const HOT_PATH: &str = "hot-path";

/// One parsed, well-formed allow.
#[derive(Debug)]
pub struct Allow {
    /// The rule being silenced.
    pub rule: String,
    /// The source line the allow silences.
    pub effective_line: u32,
}

/// Parsed `ssdtrain-lint:` comments of one file: its well-formed
/// allows and whether it carries the hot-path marker.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// Well-formed allows.
    pub allows: Vec<Allow>,
    /// The file holds `// ssdtrain-lint: hot-path`.
    pub hot_path: bool,
}

impl Suppressions {
    /// Whether `rule` is allowed on `line`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.effective_line == line && a.rule == rule)
    }
}

/// Parses every suppression comment of `file`. Malformed allows (no
/// recognisable rule, or a missing/empty reason) are appended to
/// `bad` as `suppression` diagnostics — they are not suppressible.
pub fn parse(
    file: &SourceFile,
    rule_names: &[&'static str],
    bad: &mut Vec<Diagnostic>,
) -> Suppressions {
    let mut out = Suppressions::default();
    for comment in &file.lexed.comments {
        // Doc comments (outer or inner) are documentation — they may
        // legitimately *describe* the directive syntax without being
        // directives themselves.
        if comment.doc || comment.text.starts_with("//!") || comment.text.starts_with("/*!") {
            continue;
        }
        let Some(at) = comment.text.find(MARKER) else {
            continue;
        };
        let directive = comment.text[at + MARKER.len()..].trim();
        if directive == HOT_PATH {
            out.hot_path = true;
            continue;
        }
        let effective_line = if comment.trailing {
            comment.line
        } else {
            next_code_line(file, comment.line)
        };
        for segment in split_allows(directive) {
            match parse_directive(&segment, rule_names) {
                Ok(rule) => out.allows.push(Allow {
                    rule,
                    effective_line,
                }),
                Err(why) => bad.push(Diagnostic::new(
                    "suppression",
                    file.rel.clone(),
                    comment.line,
                    1,
                    format!("malformed `ssdtrain-lint:` comment: {why}"),
                )),
            }
        }
    }
    out
}

/// The first line after `line` that holds a code token (a standalone
/// allow suppresses that line). Falls back to `line + 1`.
fn next_code_line(file: &SourceFile, line: u32) -> u32 {
    file.lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .find(|&l| l > line)
        .unwrap_or(line + 1)
}

/// Splits a directive into `;`-separated allow segments. A `;` inside
/// a reason does not start a new segment unless what follows is itself
/// an `allow(`, so reasons stay free-form.
fn split_allows(directive: &str) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    for part in directive.split(';') {
        let t = part.trim();
        match segs.last_mut() {
            Some(last) if !t.starts_with("allow(") => {
                last.push_str("; ");
                last.push_str(t);
            }
            _ => segs.push(t.to_owned()),
        }
    }
    segs
}

/// Parses `allow(<rule>): <reason>`, returning the rule name.
fn parse_directive(directive: &str, rule_names: &[&'static str]) -> Result<String, String> {
    let rest = directive
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(<rule>): <reason>` or `hot-path`".to_owned())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(` rule name".to_owned())?;
    let rule = rest[..close].trim();
    if !rule_names.contains(&rule) {
        let hint = crate::rules::did_you_mean(rule, rule_names)
            .map(|m| format!(" — did you mean `{m}`?"))
            .unwrap_or_default();
        return Err(format!(
            "unknown rule `{rule}`{hint} (known: {})",
            rule_names.join(", ")
        ));
    }
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err(format!(
            "allow({rule}) needs a reason: `allow({rule}): <why this is safe>`"
        ));
    }
    Ok(rule.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            rel: "x.rs".to_owned(),
            lines: src.lines().map(str::to_owned).collect(),
            lexed: lex(src),
        }
    }

    const RULES: [&str; 2] = ["panic-free-hot-path", "no-wall-clock"];

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let f = file("x.unwrap(); // ssdtrain-lint: allow(panic-free-hot-path): test rig\n");
        let mut bad = Vec::new();
        let s = parse(&f, &RULES, &mut bad);
        assert!(bad.is_empty());
        assert!(s.is_allowed("panic-free-hot-path", 1));
        assert!(!s.is_allowed("no-wall-clock", 1));
    }

    #[test]
    fn standalone_allow_covers_the_next_code_line() {
        let f = file(
            "// ssdtrain-lint: allow(panic-free-hot-path): known-good\n// another comment\nx.unwrap();\n",
        );
        let mut bad = Vec::new();
        let s = parse(&f, &RULES, &mut bad);
        assert!(bad.is_empty());
        assert!(s.is_allowed("panic-free-hot-path", 3));
        assert!(!s.is_allowed("panic-free-hot-path", 1));
    }

    #[test]
    fn hot_path_marker_flags_the_file_and_allows_nothing() {
        let f = file("//! docs\n// ssdtrain-lint: hot-path\nfn f() {}\n");
        let mut bad = Vec::new();
        let s = parse(&f, &RULES, &mut bad);
        assert!(bad.is_empty(), "{bad:?}");
        assert!(s.hot_path && s.allows.is_empty());
        // A typo is a malformed directive, not a silently cold file.
        let typo = file("// ssdtrain-lint: hotpath\nfn f() {}\n");
        assert!(!parse(&typo, &RULES, &mut bad).hot_path);
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn missing_reason_is_a_violation() {
        let f = file("// ssdtrain-lint: allow(no-wall-clock)\nlet t = 0;\n");
        let mut bad = Vec::new();
        let s = parse(&f, &RULES, &mut bad);
        assert!(s.allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "suppression");
        assert!(bad[0].message.contains("needs a reason"));
    }

    #[test]
    fn several_allows_share_one_comment() {
        let f = file(
            "x.unwrap(); // ssdtrain-lint: allow(panic-free-hot-path): rig; \
             allow(no-wall-clock): fixture clock\n",
        );
        let mut bad = Vec::new();
        let s = parse(&f, &RULES, &mut bad);
        assert!(bad.is_empty(), "{bad:?}");
        assert!(s.is_allowed("panic-free-hot-path", 1));
        assert!(s.is_allowed("no-wall-clock", 1));
    }

    #[test]
    fn semicolon_inside_a_reason_stays_in_the_reason() {
        let f = file("x.unwrap(); // ssdtrain-lint: allow(panic-free-hot-path): a; b; c\n");
        let mut bad = Vec::new();
        let s = parse(&f, &RULES, &mut bad);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(s.allows.len(), 1);
        assert!(s.is_allowed("panic-free-hot-path", 1));
    }

    #[test]
    fn one_bad_segment_does_not_poison_the_good_one() {
        let f = file(
            "// ssdtrain-lint: allow(panic-free-hot-path): fine; allow(made-up): because\n\
             x.unwrap();\n",
        );
        let mut bad = Vec::new();
        let s = parse(&f, &RULES, &mut bad);
        assert!(s.is_allowed("panic-free-hot-path", 2));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }

    #[test]
    fn near_miss_rule_names_get_a_hint() {
        let f = file("// ssdtrain-lint: allow(panic-free-hotpath): because\nx.unwrap();\n");
        let mut bad = Vec::new();
        parse(&f, &RULES, &mut bad);
        assert_eq!(bad.len(), 1);
        assert!(
            bad[0]
                .message
                .contains("did you mean `panic-free-hot-path`?"),
            "{}",
            bad[0].message
        );
    }

    #[test]
    fn unknown_rule_is_a_violation() {
        let f = file("// ssdtrain-lint: allow(made-up): because\nlet t = 0;\n");
        let mut bad = Vec::new();
        parse(&f, &RULES, &mut bad);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }
}
