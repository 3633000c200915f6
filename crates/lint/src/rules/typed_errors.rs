//! `typed-errors`: public APIs carry structured errors.
//!
//! `Box<dyn Error>` erases the error's type and `Result<_, String>`
//! erases everything; both make the caller's recovery decision
//! (retry? fall back? fail the step?) impossible to write. Every `pub
//! fn` in the workspace must use a concrete error type.

use super::Rule;
use crate::diagnostics::Diagnostic;
use crate::engine::LintContext;
use crate::lexer::{TokKind, Token};

pub struct TypedErrors;

impl Rule for TypedErrors {
    fn name(&self) -> &'static str {
        "typed-errors"
    }

    fn description(&self) -> &'static str {
        "no Box<dyn Error> or Result<_, String> in pub fn signatures"
    }

    fn rationale(&self) -> &'static str {
        "Guards the `FailStep` contract: `TrainSession::step` in `crates/train/src/session.rs` \
         returns `StepError { error: OffloadError, .. }` and `tests/fault_injection.rs` branches \
         on `err.error.is_store()` — a failed store kept the step exact, a failed load did \
         not. `Box<dyn Error>` erases that variant and `Result<_, String>` erases everything, \
         so the decision becomes string-parsing. It has happened: until PR 3 \
         `PipelineExec::new` and the `run_step` helpers in `crates/train/src/pipeline_exec.rs` \
         reported schedule bugs as strings; they now return `ConfigError`/`PipelineError`."
    }

    fn example(&self) -> &'static str {
        "    pub fn store(&mut self, b: Block) -> Result<(), String> { … }     // <-- flagged\n\
             pub fn load(&mut self, k: Key) -> Result<Block, Box<dyn Error>> { … } // <-- flagged\n\
         \n\
         Fix: return a concrete enum (`OffloadError`, `StepError`, `ConfigError`, …)."
    }

    fn check(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        for file in &ctx.ws.files {
            let toks = &file.lexed.tokens;
            let mut i = 0;
            while i < toks.len() {
                if let Some((name, sig)) = pub_fn_signature(toks, i) {
                    check_signature(&file.rel, name, sig, out);
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// If `toks[at]` begins a `pub … fn` item, returns the function-name
/// token and the signature's token span (from `fn` to the body brace).
fn pub_fn_signature(toks: &[Token], at: usize) -> Option<(&Token, &[Token])> {
    if !toks[at].is_ident("pub") {
        return None;
    }
    let mut j = at + 1;
    // Restricted visibility: pub(crate), pub(in path), …
    if toks.get(j).is_some_and(|t| t.is_punct("(")) {
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct("(") {
                depth += 1;
            } else if toks[j].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Qualifiers before `fn`. A bare `pub const NAME` is a constant,
    // not a function — `const` only counts when `fn` follows.
    loop {
        let t = toks.get(j)?;
        if t.is_ident("async")
            || t.is_ident("unsafe")
            || (t.is_ident("const") && toks.get(j + 1).is_some_and(|n| n.is_ident("fn")))
        {
            j += 1;
        } else if t.is_ident("extern") {
            j += 1;
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Str) {
                j += 1;
            }
        } else {
            break;
        }
    }
    if !toks.get(j)?.is_ident("fn") {
        return None;
    }
    let name = toks.get(j + 1)?;
    // The signature runs to the body `{` or the trait-decl `;` at
    // bracket depth zero.
    let start = j + 2;
    let mut depth = 0i32;
    let mut end = start;
    while end < toks.len() {
        let t = &toks[end];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && (t.is_punct("{") || t.is_punct(";")) {
            break;
        }
        end += 1;
    }
    Some((name, &toks[start..end]))
}

fn check_signature(rel: &str, name: &Token, sig: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in sig.iter().enumerate() {
        // `Box<dyn … Error …>` anywhere in the signature.
        if t.is_ident("Box")
            && sig.get(i + 1).is_some_and(|n| n.is_punct("<"))
            && sig.get(i + 2).is_some_and(|n| n.is_ident("dyn"))
            && sig[i + 3..].iter().take(12).any(|n| n.is_ident("Error"))
        {
            out.push(Diagnostic::new(
                "typed-errors",
                rel.to_owned(),
                t.line,
                t.col,
                format!(
                    "`pub fn {}` uses `Box<dyn Error>`; use a concrete error type \
                     (`OffloadError`, `StepError`, `ConfigError`, …) so callers can recover",
                    name.text
                ),
            ));
        }
        // `Result<_, String>` — a stringly-typed error channel.
        if t.is_ident("Result") && sig.get(i + 1).is_some_and(|n| n.is_punct("<")) {
            if let Some(err_arg) = second_generic_arg(&sig[i + 1..]) {
                let is_string = err_arg
                    .iter()
                    .rfind(|t| t.kind == TokKind::Ident)
                    .is_some_and(|t| t.text == "String")
                    && !err_arg.iter().any(|t| t.is_punct("<"));
                if is_string {
                    out.push(Diagnostic::new(
                        "typed-errors",
                        rel.to_owned(),
                        t.line,
                        t.col,
                        format!(
                            "`pub fn {}` returns `Result<_, String>`; define a typed error \
                             so failures stay machine-matchable",
                            name.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Given tokens starting at the `<` of a generic list, returns the
/// second top-level argument's token span, if any.
fn second_generic_arg(toks: &[Token]) -> Option<&[Token]> {
    let mut angle = 0i32;
    let mut round = 0i32;
    let mut first_comma = None;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
            if angle == 0 {
                let start = first_comma? + 1;
                return Some(&toks[start..i]);
            }
        } else if t.is_punct("(") || t.is_punct("[") {
            round += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            round -= 1;
        } else if t.is_punct(",") && angle == 1 && round == 0 && first_comma.is_none() {
            first_comma = Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check_src(src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let mut out = Vec::new();
        let mut i = 0;
        while i < lexed.tokens.len() {
            if let Some((name, sig)) = pub_fn_signature(&lexed.tokens, i) {
                check_signature("x.rs", name, sig, &mut out);
            }
            i += 1;
        }
        out
    }

    #[test]
    fn flags_stringly_results_and_boxed_errors() {
        let d = check_src(
            "pub fn bad() -> Result<(), String> { Ok(()) }\n\
             pub fn worse() -> Result<u8, Box<dyn std::error::Error>> { Ok(1) }\n",
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 2);
    }

    #[test]
    fn typed_and_private_signatures_pass() {
        let d = check_src(
            "pub fn good() -> Result<(), std::io::Error> { Ok(()) }\n\
             fn private() -> Result<(), String> { Ok(()) }\n\
             pub fn ok_string() -> Result<String, std::io::Error> { todo!() }\n\
             pub fn wrapped() -> Result<(), Wrapper<String>> { Ok(()) }\n\
             pub const LIMIT: usize = 3;\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn qualified_pub_fns_are_still_checked() {
        let d = check_src("pub(crate) async fn bad() -> Result<(), String> {}\n");
        assert_eq!(d.len(), 1);
    }
}
