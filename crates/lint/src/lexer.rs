//! A small hand-written Rust scanner.
//!
//! The vendor tree is offline-only, so the lint cannot pull `syn`;
//! instead this module lexes source text into a flat token stream that
//! is exact about the three things the rules care about:
//!
//! 1. **Comments and strings never produce code tokens** — a banned
//!    name inside a doc example or a diagnostic message is not a
//!    violation.
//! 2. **Every token knows its line and column**, so diagnostics carry
//!    precise `file:line` anchors.
//! 3. **Comments are kept on the side** (with their doc-ness and
//!    whether they trail code on the same line) for the suppression
//!    parser.
//!
//! The scanner understands line/block comments (nested), string, raw
//! string, byte string and char literals, lifetimes, identifiers and
//! numbers. Multi-character operators are kept as single-character
//! punctuation tokens except `::` and `->`, which the rules match on as
//! units.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation (single char, or the combined `::` / `->`).
    Punct,
    /// String, raw-string or byte-string literal.
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`), including the leading quote.
    Lifetime,
}

/// One code token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// Kind of the token.
    pub kind: TokKind,
    /// Exact source text (literals keep their quotes).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One comment, kept out of the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including the `//` / `/*` opener.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Outer doc comment (`///` or `/**`) — attaches to the next item.
    pub doc: bool,
    /// A code token precedes the comment on the same line.
    pub trailing: bool,
}

/// The result of scanning one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    last_token_line: u32,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Scanner<'a> {
        Scanner {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            last_token_line: 0,
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.src[self.pos];
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        b
    }

    fn take_while(&mut self, f: impl Fn(u8) -> bool) -> String {
        let start = self.pos;
        while self.pos < self.src.len() && f(self.src[self.pos]) {
            self.bump();
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    /// Consumes a `//…` comment (cursor on the first `/`).
    fn line_comment(&mut self, out: &mut Lexed) {
        let line = self.line;
        let trailing = self.last_token_line == line;
        let text = self.take_while(|b| b != b'\n');
        // `///x` is an outer doc comment, `////…` is plain, `//!` inner.
        let doc = text.starts_with("///") && !text.starts_with("////");
        out.comments.push(Comment {
            text,
            line,
            doc,
            trailing,
        });
    }

    /// Consumes a (possibly nested) `/* … */` comment.
    fn block_comment(&mut self, out: &mut Lexed) {
        let line = self.line;
        let trailing = self.last_token_line == line;
        let start = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let doc = text.starts_with("/**") && !text.starts_with("/***") && text != "/**/";
        out.comments.push(Comment {
            text,
            line,
            doc,
            trailing,
        });
    }

    /// Consumes a quoted run with `\`-escapes (cursor on the opening
    /// quote).
    fn quoted(&mut self, quote: u8) -> usize {
        self.bump();
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    if self.pos < self.src.len() {
                        self.bump();
                    }
                }
                b if b == quote => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        self.pos
    }

    /// Consumes a raw string (cursor on the `r`); returns false if the
    /// lookahead is not actually a raw-string opener.
    fn raw_string(&mut self) -> bool {
        let mut ahead = 1; // past 'r'
        let mut hashes = 0usize;
        while self.peek(ahead) == b'#' {
            hashes += 1;
            ahead += 1;
        }
        if self.peek(ahead) != b'"' {
            return false;
        }
        for _ in 0..=ahead {
            self.bump(); // r, hashes, opening quote
        }
        // Scan for `"` followed by `hashes` hashes.
        while self.pos < self.src.len() {
            if self.bump() == b'"' {
                let mut n = 0;
                while n < hashes && self.peek(0) == b'#' {
                    self.bump();
                    n += 1;
                }
                if n == hashes {
                    break;
                }
            }
        }
        true
    }

    fn push(&mut self, out: &mut Lexed, kind: TokKind, text: String, line: u32, col: u32) {
        self.last_token_line = self.line;
        out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Scans `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let mut s = Scanner::new(src);
    let mut out = Lexed::default();
    while s.pos < s.src.len() {
        let (line, col) = (s.line, s.col);
        let b = s.peek(0);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                s.bump();
            }
            b'/' if s.peek(1) == b'/' => s.line_comment(&mut out),
            b'/' if s.peek(1) == b'*' => s.block_comment(&mut out),
            b'"' => {
                let start = s.pos;
                let end = s.quoted(b'"');
                let text = String::from_utf8_lossy(&s.src[start..end]).into_owned();
                s.push(&mut out, TokKind::Str, text, line, col);
            }
            b'r' | b'b' if is_raw_or_byte_string(&s) => {
                let start = s.pos;
                if s.peek(0) == b'b' {
                    // br"…" / br#"…"# / b"…" / b'…'
                    match s.peek(1) {
                        b'r' => {
                            s.bump(); // 'b'; raw_string handles the rest
                            s.raw_string();
                        }
                        b'"' => {
                            s.bump();
                            s.quoted(b'"');
                        }
                        _ => {
                            s.bump(); // b'…'
                            s.quoted(b'\'');
                        }
                    }
                } else {
                    s.raw_string();
                }
                let text = String::from_utf8_lossy(&s.src[start..s.pos]).into_owned();
                s.push(&mut out, TokKind::Str, text, line, col);
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if is_ident_start(s.peek(1)) && s.peek(1) != b'\\' && !char_closes_at(&s) {
                    s.bump(); // quote
                    let name = s.take_while(is_ident_continue);
                    s.push(&mut out, TokKind::Lifetime, format!("'{name}"), line, col);
                } else {
                    let start = s.pos;
                    let end = s.quoted(b'\'');
                    let text = String::from_utf8_lossy(&s.src[start..end]).into_owned();
                    s.push(&mut out, TokKind::Char, text, line, col);
                }
            }
            _ if is_ident_start(b) => {
                let text = s.take_while(is_ident_continue);
                s.push(&mut out, TokKind::Ident, text, line, col);
            }
            _ if b.is_ascii_digit() => {
                // A `.` continues the number only when a digit follows,
                // so `0..n` and `1.max(2)` keep their dots as
                // punctuation (and `.unwrap` after a number stays
                // visible to the rules).
                let start = s.pos;
                while s.pos < s.src.len() {
                    let c = s.peek(0);
                    if is_ident_continue(c) || (c == b'.' && s.peek(1).is_ascii_digit()) {
                        s.bump();
                    } else {
                        break;
                    }
                }
                let text = String::from_utf8_lossy(&s.src[start..s.pos]).into_owned();
                s.push(&mut out, TokKind::Num, text, line, col);
            }
            b':' if s.peek(1) == b':' => {
                s.bump();
                s.bump();
                s.push(&mut out, TokKind::Punct, "::".to_owned(), line, col);
            }
            b'-' if s.peek(1) == b'>' => {
                s.bump();
                s.bump();
                s.push(&mut out, TokKind::Punct, "->".to_owned(), line, col);
            }
            _ => {
                s.bump();
                s.push(&mut out, TokKind::Punct, (b as char).to_string(), line, col);
            }
        }
    }
    out
}

/// Whether the scanner sits on a raw/byte string opener rather than a
/// plain identifier starting with `r`/`b`.
fn is_raw_or_byte_string(s: &Scanner<'_>) -> bool {
    match (s.peek(0), s.peek(1)) {
        (b'r', b'"') | (b'r', b'#') => {
            // Distinguish `r"…"` / `r#"…"#` from `r#raw_ident`.
            let mut ahead = 1;
            while s.peek(ahead) == b'#' {
                ahead += 1;
            }
            s.peek(ahead) == b'"'
        }
        (b'b', b'"') | (b'b', b'\'') => true,
        (b'b', b'r') => {
            let mut ahead = 2;
            while s.peek(ahead) == b'#' {
                ahead += 1;
            }
            s.peek(ahead) == b'"'
        }
        _ => false,
    }
}

/// Whether a `'x…` run closes with a quote right after one ident char —
/// i.e. it is the char literal `'x'`, not the lifetime `'x`.
fn char_closes_at(s: &Scanner<'_>) -> bool {
    // A char literal holding an identifier-start char is exactly
    // `'c'` — one char then the closing quote.
    s.peek(2) == b'\''
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_code() {
        let l = lex("let a = \"x.unwrap()\"; // b.unwrap()\n/* c.unwrap() */ real");
        assert_eq!(idents("let a = \"x.unwrap()\";"), vec!["let", "a"]);
        assert!(l.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].trailing);
        assert!(!l.comments[1].trailing);
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }

    #[test]
    fn doc_comments_are_flagged() {
        let l = lex("/// outer\n//! inner\n//// not doc\n/** block */\nstruct X;");
        let docs: Vec<bool> = l.comments.iter().map(|c| c.doc).collect();
        assert_eq!(docs, vec![true, false, false, true]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "'x'"));
    }

    #[test]
    fn raw_strings_swallow_their_payload() {
        let l = lex("let s = r#\"panic!(\"no\")\"#; after");
        assert!(l.tokens.iter().all(|t| t.text != "panic"));
        assert!(l.tokens.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn double_colon_and_arrow_are_units() {
        let l = lex("fn f() -> std::io::Result<()> {}");
        assert!(l.tokens.iter().any(|t| t.is_punct("->")));
        assert_eq!(l.tokens.iter().filter(|t| t.is_punct("::")).count(), 2);
    }

    #[test]
    fn method_calls_after_numbers_and_ranges_stay_visible() {
        let l = lex("for i in 0..n.unwrap() { let x = 1.5 + 2.max(3); }");
        assert!(l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.tokens.iter().any(|t| t.is_ident("max")));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1.5"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let l = lex("/* a /* b */ c */ code");
        assert_eq!(l.tokens.len(), 1);
        assert!(l.tokens[0].is_ident("code"));
    }
}
