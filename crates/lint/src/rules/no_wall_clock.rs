//! `no-wall-clock`: the simulated-time crates must not read wall-clock
//! time.
//!
//! The reproduction's central transparency claim is that all timing is
//! taken from the simulated clock, so results are a pure function of
//! the configuration. One `std::time::Instant::now()` inside `simhw`,
//! `core` or `trace` silently turns deterministic step times and golden
//! traces into machine-dependent ones.

use super::{in_dir, Rule};
use crate::diagnostics::Diagnostic;
use crate::engine::LintContext;
use crate::lexer::Token;

/// The lint itself is scoped too: its text/JSON/SARIF output must be
/// byte-stable across runs, which a wall-clock read would break.
const SCOPED_DIRS: [&str; 5] = [
    "crates/simhw",
    "crates/core",
    "crates/trace",
    "crates/train",
    "crates/lint",
];
const BANNED: [&str; 2] = ["Instant", "SystemTime"];

pub struct NoWallClock;

impl Rule for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn description(&self) -> &'static str {
        "std::time::{Instant,SystemTime} banned in simhw/core/trace/train/lint; use the simulated clock"
    }

    fn rationale(&self) -> &'static str {
        "Guards the byte-stable golden `tests/golden/quickstart_trace.json` and the \
         benchmark's `sim_step_s` gate (bit-identical across runs and machines). \
         `IoEngine::submit_store_to` in `crates/core/src/io.rs` stamps every job with \
         `SimClock::now()` and `TensorCache::stall_until` advances the same clock; one \
         `std::time::Instant` read in that arithmetic makes step times depend on the host, \
         so the golden diff and every A/B row in `BENCH_history.json` stop meaning anything. \
         Wall time is measured only outside these crates, in `benchmark/src/spans.rs`."
    }

    fn example(&self) -> &'static str {
        "    use std::time::Instant;          // <-- flagged\n\
             let t0 = Instant::now();          // <-- flagged\n\
         \n\
         Fix: take a `&SimClock` (or a timestamp argument) and read `clock.now()`."
    }

    fn check(&self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        for file in &ctx.ws.files {
            if !SCOPED_DIRS.iter().any(|d| in_dir(&file.rel, d)) {
                continue;
            }
            let toks = &file.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                // `time::Instant` / `time::SystemTime` paths, and the
                // grouped form `use std::time::{Instant, …}`.
                if t.is_ident("time") && punct_at(toks, i + 1, "::") {
                    match toks.get(i + 2) {
                        Some(next) if BANNED.iter().any(|b| next.is_ident(b)) => {
                            push(out, file_rel(file), next, &next.text);
                        }
                        Some(next) if next.is_punct("{") => {
                            for t in toks[i + 3..]
                                .iter()
                                .take_while(|t| !t.is_punct("}"))
                                .filter(|t| BANNED.iter().any(|b| t.is_ident(b)))
                            {
                                push(out, file_rel(file), t, &t.text);
                            }
                        }
                        _ => {}
                    }
                }
                // A pre-imported `Instant::now()` / `SystemTime::now()`.
                if BANNED.iter().any(|b| t.is_ident(b))
                    && punct_at(toks, i + 1, "::")
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
                {
                    push(out, file_rel(file), t, &t.text);
                }
            }
        }
    }
}

fn file_rel(file: &crate::workspace::SourceFile) -> &str {
    &file.rel
}

fn punct_at(toks: &[Token], i: usize, p: &str) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(p))
}

fn push(out: &mut Vec<Diagnostic>, rel: &str, at: &Token, what: &str) {
    out.push(Diagnostic::new(
        "no-wall-clock",
        rel.to_owned(),
        at.line,
        at.col,
        format!(
            "wall-clock `std::time::{what}` in a simulated-time crate; timing must come \
             from `SimClock` so runs stay deterministic"
        ),
    ));
}
