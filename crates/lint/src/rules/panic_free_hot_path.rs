//! `panic-free-hot-path`: the offload path must degrade, not abort.
//!
//! PR 1's `RecoveryPolicy` guarantees that target failures are absorbed
//! or surfaced as typed errors at the step boundary. A stray `unwrap()`
//! in the store/load path turns a recoverable I/O hiccup into a train
//! crash, so panicking constructs are banned in the functions that make
//! up the offload hot path. A module joins the hot path by carrying the
//! marker comment `// ssdtrain-lint: hot-path` (see
//! [`crate::suppress`]), so the scope moves with the code. Within a
//! marked file the rule is scoped per *function*: `#[test]` functions
//! and `#[cfg(test)]` modules probe failure edges on purpose and are
//! exempt, while every non-test function is named in its diagnostic.
//!
//! Two layers:
//!
//! 1. **Direct scan** — every `unwrap`/`expect`/`panic!`/`todo!`/
//!    `unreachable!` token inside a hot-path file.
//! 2. **Transitive reachability** — a resolved call from a hot-path
//!    function into a function *outside* the hot set whose inferred
//!    effects contain [`Effect::MayPanicStrict`] is a hidden panic: the
//!    direct scan cannot see it, so the call site is flagged with the
//!    full `entry → helper → seed` chain and SARIF `relatedLocations`.
//!    Indexing seeds are excluded (the strict channel) — they are
//!    ubiquitous in the tensor kernels and carry their own bounds
//!    reasoning. A seed silenced by `allow(panic-free-hot-path)` stops
//!    the whole transitive tree, so one reasoned allow at the seed is
//!    enough.

use super::Rule;
use crate::diagnostics::Diagnostic;
use crate::engine::effects::Effect;
use crate::engine::LintContext;

const BANNED_METHODS: [&str; 2] = ["unwrap", "expect"];
const BANNED_MACROS: [&str; 3] = ["panic", "todo", "unreachable"];

pub struct PanicFreeHotPath;

impl Rule for PanicFreeHotPath {
    fn name(&self) -> &'static str {
        "panic-free-hot-path"
    }

    fn description(&self) -> &'static str {
        "unwrap/expect/panic!/todo!/unreachable! banned in non-test offload hot-path functions, \
         directly or through calls"
    }

    fn rationale(&self) -> &'static str {
        "Guards `tests/fault_injection.rs`: when `SsdTarget::write_batch` fails (spill \
         directory gone, injected fault), `TensorCache::commit_segment` in \
         `crates/core/src/cache.rs` receives the `io::Error` and `recover_failed_segment` \
         applies the `RecoveryPolicy` — losses stay bit-identical. An `unwrap()` on that \
         path aborts the run instead. It has happened: `PipelineExec::new` panicked on a \
         T5 config and `pipeline_exec.rs` `.expect()`ed its schedule lookups until PR 3 made \
         them `ConfigError`/`PipelineError`, and PR 9's call-graph layer found three more \
         panics *reached* from hot modules through helpers (`opt_engine.rs` → \
         `Sgd::step_range` → `Tensor::to_vec`, `pipeline_exec.rs` → \
         `Graph::backward_from`) that no scan of the hot files could see. A module \
         opts in with the marker comment `// ssdtrain-lint: hot-path`."
    }

    fn example(&self) -> &'static str {
        "    // crates/core/src/cache.rs (hot path)\n\
             fn flush_all(&mut self) {\n\
                 let block = fetch(self.key);   // <-- flagged: flush_all → fetch → .unwrap()\n\
             }\n\
             // crates/util/src/fetch.rs (not hot, but reached from it)\n\
             fn fetch(key: u64) -> Block { TABLE.get(&key).unwrap().clone() }\n\
         \n\
         Fix: return `Result<_, OffloadError>` from the helper and propagate with `?`,\n\
         or silence at the seed with a reasoned\n\
         `// ssdtrain-lint: allow(panic-free-hot-path): <why this cannot fail>`."
    }

    fn check(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        let hot = |fi: usize| ctx.suppressions[fi].hot_path;
        for (fi, fc) in ctx.files.iter().enumerate() {
            if !hot(fi) {
                continue;
            }
            let toks = &fc.file.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if fc.items.is_test_tok(i) {
                    continue;
                }
                let in_fn = || {
                    fc.fn_containing(i)
                        .map(|f| format!(" (in `{}`)", f.name))
                        .unwrap_or_default()
                };
                let prev_dot = i > 0 && toks[i - 1].is_punct(".");
                let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
                let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
                if prev_dot && next_paren && BANNED_METHODS.iter().any(|m| t.is_ident(m)) {
                    out.push(Diagnostic::new(
                        "panic-free-hot-path",
                        fc.file.rel.clone(),
                        t.line,
                        t.col,
                        format!(
                            "`.{}()` in the offload hot path{}; propagate a typed \
                             `OffloadError`/`StepError` instead of panicking",
                            t.text,
                            in_fn()
                        ),
                    ));
                }
                if next_bang && BANNED_MACROS.iter().any(|m| t.is_ident(m)) {
                    out.push(Diagnostic::new(
                        "panic-free-hot-path",
                        fc.file.rel.clone(),
                        t.line,
                        t.col,
                        format!(
                            "`{}!` in the offload hot path{}; recovery must absorb or \
                             surface failures as typed errors",
                            t.text,
                            in_fn()
                        ),
                    ));
                }
            }

            // Transitive layer: resolved calls out of the hot set into
            // functions that (transitively) reach an explicit panic.
            // Callees inside the hot set are already covered by the
            // direct scan at their seed, so only escapes are new.
            for (k, f) in fc.items.functions.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                for site in ctx.graph.calls_of((fi, k)) {
                    let Some(callee) = site.callee else { continue };
                    if hot(callee.0) {
                        continue;
                    }
                    if !ctx.effects.has(callee, Effect::MayPanicStrict) {
                        continue;
                    }
                    let Some(chain) = ctx.effect_chain(&f.name, callee, Effect::MayPanicStrict)
                    else {
                        continue;
                    };
                    let mut d = Diagnostic::new(
                        "panic-free-hot-path",
                        fc.file.rel.clone(),
                        site.line,
                        site.col,
                        format!(
                            "call to `{}` can panic (`{}`, seed at {}:{}); the offload hot \
                             path must propagate typed errors, not abort",
                            ctx.fn_item(callee).name,
                            chain.path,
                            chain.seed_path,
                            chain.seed_line,
                        ),
                    );
                    d.related = chain.related;
                    out.push(d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::workspace::{SourceFile, Workspace};

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: std::path::PathBuf::from("."),
            files: files
                .iter()
                .map(|(rel, src)| SourceFile {
                    rel: (*rel).to_owned(),
                    lines: src.lines().map(str::to_owned).collect(),
                    lexed: lex(src),
                })
                .collect(),
        }
    }

    fn run(ws: &Workspace) -> Vec<Diagnostic> {
        let ctx = LintContext::new(ws);
        let mut out = Vec::new();
        PanicFreeHotPath.check(&ctx, &mut out);
        out
    }

    #[test]
    fn transitive_panic_across_files_is_flagged_with_the_chain() {
        let ws = ws_of(&[
            (
                "crates/core/src/cache.rs",
                "// ssdtrain-lint: hot-path\nfn flush_all(k: u64) -> u8 { fetch(k) }\n",
            ),
            (
                "crates/util/src/fetch.rs",
                "pub fn fetch(k: u64) -> u8 { lookup(k).unwrap() }\n\
                 fn lookup(k: u64) -> Option<u8> { None }\n",
            ),
        ]);
        let out = run(&ws);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("flush_all → fetch → .unwrap()"));
        assert!(out[0]
            .message
            .contains("seed at crates/util/src/fetch.rs:1"));
        assert_eq!(out[0].path, "crates/core/src/cache.rs");
        // Related locations: no intermediate hops, just the seed.
        assert_eq!(out[0].related.len(), 1);
        assert_eq!(out[0].related[0].message, "effect seed: .unwrap()");
    }

    #[test]
    fn callees_inside_the_hot_set_report_at_the_seed_only() {
        let ws = ws_of(&[(
            "crates/core/src/io.rs",
            "// ssdtrain-lint: hot-path\n\
             fn outer() { inner(); }\n\
             fn inner() { panic!(\"boom\"); }\n",
        )]);
        let out = run(&ws);
        // Only the direct macro finding — no duplicate at the call.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`panic!`"));
    }

    #[test]
    fn indexing_reached_through_a_call_is_not_strict() {
        let ws = ws_of(&[
            (
                "crates/core/src/tier.rs",
                "// ssdtrain-lint: hot-path\nfn pick_tier(v: &[u8]) -> u8 { head(v) }\n",
            ),
            (
                "crates/util/src/sl.rs",
                "pub fn head(v: &[u8]) -> u8 { v[0] }\n",
            ),
        ]);
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn allow_at_the_seed_silences_the_whole_chain() {
        let ws = ws_of(&[
            (
                "crates/core/src/cache.rs",
                "// ssdtrain-lint: hot-path\nfn flush_all(k: u64) -> u8 { fetch(k) }\n",
            ),
            (
                "crates/util/src/fetch.rs",
                "pub fn fetch(k: u64) -> u8 {\n\
                 // ssdtrain-lint: allow(panic-free-hot-path): key proven present by caller\n\
                 lookup(k).unwrap()\n\
                 }\n\
                 fn lookup(k: u64) -> Option<u8> { Some(1) }\n",
            ),
        ]);
        assert!(run(&ws).is_empty());
    }
}
