//! The scanner behind the source rules (DESIGN.md §7), shared by
//! `tests/source_rules.rs`, `tests/proptest_lexer.rs` and the root
//! library's unit tests.
//!
//! [`blank`] turns comments and literals into spaces, so text that only
//! looks like code never counts, and every byte keeps its offset, so
//! reported lines are exact. [`tokens`] splits the blanked code,
//! [`typed_error_violations`] reads `pub fn` signatures from it, and
//! [`rust_files`] walks the tree.

use std::fs;
use std::path::Path;

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || !c.is_ascii()
}

/// `src` with comments (nested too) and string, raw-string, byte-string and char literals
/// turned into spaces. Each `\n` keeps its offset; a lifetime's or label's quote is code.
pub fn blank(src: &str) -> String {
    let (b, mut out, mut i) = (src.as_bytes(), src.as_bytes().to_vec(), 0);
    while i < b.len() {
        let word = src[i..].find(|c| !is_word(c)).unwrap_or(b.len() - i);
        let (end, literal) = match &b[i..] {
            [b'/', b'/', ..] => (src[i..].find('\n').map_or(b.len(), |n| i + n), true),
            [b'/', b'*', ..] => (block_comment_end(b, i + 2), true),
            [b'"', ..] => (quoted_end(b, i + 1, b'"'), true),
            [b'b', q @ (b'\'' | b'"'), ..] => (quoted_end(b, i + 2, *q), true),
            [b'\'', b'\\', ..] => (quoted_end(b, i + 1, b'\''), true),
            [b'\'', ..] => match src[i + 1..].char_indices().nth(1) {
                Some((c, '\'')) => (i + 2 + c, true),
                _ => (i + 1, false),
            },
            _ if word > 0 => match raw_string_end(src, i) {
                Some(end) => (end, true),
                None => (i + word, false),
            },
            _ => (i + 1, false),
        };
        for c in out[i..end].iter_mut().filter(|c| literal && **c != b'\n') {
            *c = b' ';
        }
        i = end;
    }
    String::from_utf8(out).expect("blanking replaces whole characters")
}

/// Just past the `*/` closing the block comment whose body starts at `i`.
fn block_comment_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() {
        match &b[i..] {
            [b'*', b'/', ..] => return i + 2,
            [b'/', b'*', ..] => i = block_comment_end(b, i + 2),
            _ => i += 1,
        }
    }
    b.len()
}

/// Just past the unescaped `quote` closing a literal whose body starts at `i`.
fn quoted_end(b: &[u8], mut i: usize, quote: u8) -> usize {
    while i < b.len() && b[i] != quote {
        i += if b[i] == b'\\' { 2 } else { 1 };
    }
    (i + 1).min(b.len())
}

/// The end of the `r#"…"#` or `br"…"` raw string opening at `i`, if one does.
fn raw_string_end(src: &str, i: usize) -> Option<usize> {
    let head = src[i + usize::from(src[i..].starts_with("br"))..].strip_prefix('r')?;
    let hashes = head.len() - head.trim_start_matches('#').len();
    let body = head[hashes..].strip_prefix('"')?;
    let close = format!("\"{}", &head[..hashes]);
    let at = body.find(&close).map_or(body.len(), |at| at + close.len());
    Some(src.len() - body.len() + at)
}

/// The words, `::`, `->` and other punctuation of blanked code, with offsets.
pub fn tokens(code: &str) -> Vec<(usize, &str)> {
    let (mut out, mut rest) = (Vec::new(), code.trim_start());
    while !rest.is_empty() {
        let pair = rest.starts_with("::") || rest.starts_with("->");
        let word = rest.find(|c| !is_word(c)).unwrap_or(rest.len());
        let (tok, tail) = rest.split_at(word.max(1 + usize::from(pair)));
        out.push((code.len() - rest.len(), tok));
        rest = tail.trim_start();
    }
    out
}

/// `path:line: pub fn name uses …` for each erased error in the signature of a `pub` /
/// `pub(…)` `[const|async|unsafe|extern "…"]* fn`, up to its `{` or `;` at bracket depth 0.
pub fn typed_error_violations(path: &str, src: &str) -> Vec<String> {
    let code = blank(src);
    let toks = tokens(&code);
    let text = |j: usize| toks.get(j).map_or("", |t| t.1);
    let mut out = Vec::new();
    for mut j in (1..=toks.len()).filter(|&j| text(j - 1) == "pub") {
        if text(j) == "(" {
            j += toks[j..].iter().take_while(|t| t.1 != ")").count() + 1;
        }
        while matches!(text(j), "const" | "async" | "unsafe" | "extern") {
            j += 1;
        }
        if text(j) != "fn" {
            continue;
        }
        let (name, mut end, mut depth) = (text(j + 1), j + 2, 0);
        while end < toks.len() && (depth != 0 || !matches!(text(end), "{" | ";")) {
            depth += i32::from(matches!(text(end), "(" | "["));
            depth -= i32::from(matches!(text(end), ")" | "]"));
            end += 1;
        }
        for k in j + 2..end {
            let what = match (text(k), text(k + 1), text(k + 2)) {
                ("Box", "<", "dyn") if (k + 3..end.min(k + 15)).any(|m| text(m) == "Error") => {
                    "Box<dyn Error>"
                }
                ("Result", "<", _) if stringly(&toks[k + 1..end]) => "Result<_, String>",
                _ => continue,
            };
            let line = code[..toks[k].0].matches('\n').count() + 1;
            out.push(format!("{path}:{line}: `pub fn {name}` uses `{what}`"));
        }
    }
    out
}

/// Whether the generic list opening at `toks[0]` has a second top-level
/// argument that ends in the word `String` and holds no `<`.
fn stringly(toks: &[(usize, &str)]) -> bool {
    let (mut depth, mut comma) = (0, None);
    for (i, t) in toks.iter().enumerate() {
        match t.1 {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            "," if depth == 1 && comma.is_none() => comma = Some(i + 1),
            _ => {}
        }
        if depth == 0 {
            let arg = &toks[comma.unwrap_or(i)..i];
            let last_word = arg.iter().rev().find(|t| t.1.chars().all(is_word));
            return last_word.is_some_and(|t| t.1 == "String") && arg.iter().all(|t| t.1 != "<");
        }
    }
    false
}

/// Every `.rs` file under `dir` as (path from `root`, source), outside dot-directories,
/// build output, the vendored dependency shims and fixture trees.
pub fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let skipped = name.starts_with('.') || ["target", "vendor", "fixtures"].contains(&&*name);
        if path.is_dir() && !skipped {
            rust_files(root, &path, out);
        } else if let Some(Ok(src)) = name.ends_with(".rs").then(|| fs::read_to_string(&path)) {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            out.push((rel.to_string_lossy().into_owned(), src));
        }
    }
}
