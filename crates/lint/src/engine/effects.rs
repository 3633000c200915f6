//! Fixed-point effect inference over the call graph.
//!
//! Every non-test function is labeled with the transitive **may-panic**
//! effect: seeded by `panic!`/`todo!`/`unreachable!`,
//! `.unwrap()`/`.expect()`, and postfix indexing.
//!
//! Seeds are *call sites in the seeding function*, so wrappers inherit
//! the label transitively: propagation walks reverse call edges
//! breadth-first in sorted order, recording for each newly labeled
//! function its earliest-token call site into an already labeled callee
//! — a deterministic shortest witness chain, reconstructable down to
//! the seed. Unresolved calls (trait objects, `std`) contribute no
//! effects: the analysis gives up soundly instead of guessing.
//!
//! Two reporting refinements:
//!
//! - [`Effect::MayPanicStrict`] excludes indexing seeds. Indexing is
//!   ubiquitous in the tensor kernels (~100 sites in hot files alone),
//!   so the `panic-free-hot-path` rule reports only explicit panic
//!   seeds; the broader label stays queryable.
//! - A seed whose line carries an `allow(panic-free-hot-path)`
//!   suppression is excluded from propagation — one reasoned allow at
//!   the seed silences the whole transitive tree, instead of forcing an
//!   allow at every caller.

use super::callgraph::{self, CallGraph, CallKind, CallSite, FnId};
use super::FileCtx;
use crate::lexer::{TokKind, Token};
use crate::suppress::Suppressions;
use std::collections::{BTreeMap, BTreeSet};

/// Macros that abort the hot path.
const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unreachable"];

/// The rule whose `allow` at a seed line stops the seed propagating.
const OWNER: &str = "panic-free-hot-path";

/// One transitive effect label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Reaches any panic site, indexing included.
    MayPanic,
    /// Reaches an *explicit* panic site (macro/`unwrap`/`expect`) —
    /// the `panic-free-hot-path` reporting channel.
    MayPanicStrict,
}

const CHAN_PANIC: u8 = 1;
const CHAN_STRICT: u8 = 1 << 1;
const CHANNELS: [u8; 2] = [CHAN_PANIC, CHAN_STRICT];

fn chan_of(e: Effect) -> u8 {
    match e {
        Effect::MayPanic => CHAN_PANIC,
        Effect::MayPanicStrict => CHAN_STRICT,
    }
}

/// One direct effect seed inside a function body.
#[derive(Debug, Clone)]
pub struct Seed {
    /// Token index of the seed site.
    pub tok: usize,
    /// 1-based line of the seed.
    pub line: u32,
    /// 1-based column of the seed.
    pub col: u32,
    /// Rendered seed name (`panic!`, `.unwrap()`, `indexing`), used in
    /// chain diagnostics.
    pub what: String,
    /// Channel bitmask this seed feeds.
    channels: u8,
    /// Silenced at the seed line by `allow(panic-free-hot-path)` —
    /// kept for direct-scan reporting but excluded from propagation.
    pub suppressed: bool,
}

/// The transitive witness through which a function inherits an effect.
#[derive(Debug, Clone)]
pub struct ViaCall {
    /// Token index of the call-site name in the inheriting function.
    pub tok: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
    /// The resolved callee carrying the effect.
    pub callee: FnId,
}

/// The deterministic shortest chain from a function to an effect seed.
#[derive(Debug)]
pub struct Witness<'e> {
    /// `(caller, call site)` hops from the entry; empty when the entry
    /// holds the seed directly.
    pub hops: Vec<(FnId, &'e ViaCall)>,
    /// The function whose body holds the seed.
    pub seed_fn: FnId,
    /// The seed reached.
    pub seed: &'e Seed,
}

/// Inferred effect labels for every function in the workspace.
#[derive(Debug, Default)]
pub struct Effects {
    /// Direct seeds per function, in token order.
    seeds: BTreeMap<FnId, Vec<Seed>>,
    /// Per `(function, channel)`: the BFS witness call site.
    via: BTreeMap<(FnId, u8), ViaCall>,
}

impl Effects {
    /// Seeds + fixed-point propagation over the reverse call graph.
    /// `sups` is parallel to `files`; seeds suppressed at their line do
    /// not propagate.
    pub fn infer(files: &[FileCtx<'_>], graph: &CallGraph, sups: &[Suppressions]) -> Effects {
        let mut eff = Effects {
            seeds: collect_seeds(files, graph, sups),
            via: BTreeMap::new(),
        };
        for chan in CHANNELS {
            eff.propagate(graph, chan);
        }
        eff
    }

    /// Whether `f` carries effect `e`, directly (unsuppressed seed) or
    /// transitively.
    pub fn has(&self, f: FnId, e: Effect) -> bool {
        self.first_seed(f, chan_of(e)).is_some() || self.via.contains_key(&(f, chan_of(e)))
    }

    /// Direct seeds of `f` in token order, suppressed ones included.
    pub fn direct_seeds(&self, f: FnId) -> &[Seed] {
        self.seeds.get(&f).map_or(&[], Vec::as_slice)
    }

    /// The shortest witness chain from `f` to a seed of `e`; `None`
    /// when `f` does not carry the effect.
    pub fn witness(&self, f: FnId, e: Effect) -> Option<Witness<'_>> {
        let chan = chan_of(e);
        let mut hops = Vec::new();
        let mut cur = f;
        loop {
            if let Some(seed) = self.first_seed(cur, chan) {
                return Some(Witness {
                    hops,
                    seed_fn: cur,
                    seed,
                });
            }
            let via = self.via.get(&(cur, chan))?;
            hops.push((cur, via));
            cur = via.callee;
        }
    }

    /// First unsuppressed seed of `f` feeding `chan`, by token order.
    fn first_seed(&self, f: FnId, chan: u8) -> Option<&Seed> {
        self.direct_seeds(f)
            .iter()
            .find(|s| !s.suppressed && s.channels & chan != 0)
    }

    /// Breadth-first reverse propagation of one channel. Layers are
    /// processed in sorted `FnId` order and each newly labeled caller
    /// records its earliest-token call site into an already labeled
    /// callee, so witnesses are shortest and deterministic.
    fn propagate(&mut self, graph: &CallGraph, chan: u8) {
        let mut labeled: BTreeSet<FnId> = self
            .seeds
            .iter()
            .filter(|(_, seeds)| {
                seeds
                    .iter()
                    .any(|s| !s.suppressed && s.channels & chan != 0)
            })
            .map(|(&f, _)| f)
            .collect();
        let mut frontier: Vec<FnId> = labeled.iter().copied().collect();
        while !frontier.is_empty() {
            let candidates: BTreeSet<FnId> = frontier
                .iter()
                .flat_map(|&f| graph.callers_of(f))
                .copied()
                .filter(|c| !labeled.contains(c))
                .collect();
            let mut next = Vec::new();
            for caller in candidates {
                let site = graph
                    .calls_of(caller)
                    .iter()
                    .find(|s| s.callee.is_some_and(|c| labeled.contains(&c)));
                if let Some(site) = site {
                    next.push((caller, site));
                }
            }
            frontier = next.iter().map(|(f, _)| *f).collect();
            for (f, site) in next {
                labeled.insert(f);
                self.via.insert(
                    (f, chan),
                    ViaCall {
                        tok: site.name_tok,
                        line: site.line,
                        col: site.col,
                        callee: site.callee.expect("filtered on resolved callee"),
                    },
                );
            }
        }
    }
}

/// Identifiers that cannot end a value expression — a `[` after one of
/// these opens a pattern/type/array literal, not an indexing site.
const NON_VALUE_PREV: [&str; 30] = [
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if", "impl",
    "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct",
    "trait", "type", "union", "unsafe", "use", "while",
];

fn collect_seeds(
    files: &[FileCtx<'_>],
    graph: &CallGraph,
    sups: &[Suppressions],
) -> BTreeMap<FnId, Vec<Seed>> {
    let mut out: BTreeMap<FnId, Vec<Seed>> = BTreeMap::new();
    for (fi, fc) in files.iter().enumerate() {
        let toks = &fc.file.lexed.tokens;
        for (k, f) in fc.items.functions.iter().enumerate() {
            let id = (fi, k);
            for site in graph.calls_of(id) {
                if let Some(seed) = seed_of_call(site, &sups[fi]) {
                    out.entry(id).or_default().push(seed);
                }
            }
            // Postfix indexing is not a call site; scan the body.
            let Some(body) = &f.body else { continue };
            if f.is_test {
                continue;
            }
            for i in body.clone() {
                if indexing_site(toks, i) && callgraph::innermost_fn(&fc.items, i) == Some(k) {
                    let at = &toks[i];
                    out.entry(id).or_default().push(Seed {
                        tok: i,
                        line: at.line,
                        col: at.col,
                        what: "indexing".to_owned(),
                        channels: CHAN_PANIC,
                        suppressed: sups[fi].is_allowed(OWNER, at.line),
                    });
                }
            }
        }
    }
    for seeds in out.values_mut() {
        seeds.sort_by_key(|s| s.tok);
    }
    out
}

/// Whether the `[` at token `i` indexes a value (prev token ends a
/// value expression: a non-keyword identifier, `)` or `]`).
fn indexing_site(toks: &[Token], i: usize) -> bool {
    if !toks[i].is_punct("[") || i == 0 {
        return false;
    }
    let p = &toks[i - 1];
    (p.kind == TokKind::Ident && !NON_VALUE_PREV.contains(&p.text.as_str()))
        || p.is_punct(")")
        || p.is_punct("]")
}

/// The seed a call site contributes, if any.
fn seed_of_call(site: &CallSite, sup: &Suppressions) -> Option<Seed> {
    let name = site.name.as_str();
    let what = match &site.kind {
        CallKind::Macro if PANIC_MACROS.contains(&name) => format!("{name}!"),
        CallKind::Method(_) if name == "unwrap" || name == "expect" => format!(".{name}()"),
        _ => return None,
    };
    Some(Seed {
        tok: site.name_tok,
        line: site.line,
        col: site.col,
        what,
        channels: CHAN_PANIC | CHAN_STRICT,
        suppressed: sup.is_allowed(OWNER, site.line),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LintContext;
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

    fn has(ctx: &LintContext, f: &str, e: Effect) -> bool {
        ctx.effects.has(ctx.fn_by_name(f).expect("fn exists"), e)
    }

    #[test]
    fn effects_propagate_through_wrappers_to_callers() {
        let ws = ws_of(&[(
            "a.rs",
            "impl C {\n\
               fn flush(&mut self) { self.slot.take().unwrap(); }\n\
               fn run_step(&mut self) { self.flush(); }\n\
               fn idle(&self) {}\n\
             }\n\
             impl C { fn outer(&mut self) { self.run_step(); } }\n",
        )]);
        let ctx = LintContext::new(&ws);
        for f in ["flush", "run_step", "outer"] {
            assert!(has(&ctx, f, Effect::MayPanicStrict), "{f}");
        }
        assert!(!has(&ctx, "idle", Effect::MayPanicStrict));
    }

    #[test]
    fn witness_chains_are_shortest_and_earliest() {
        let ws = ws_of(&[(
            "a.rs",
            "fn seed_fn() { panic!(\"boom\"); }\n\
             fn mid(x: u8) { seed_fn(); }\n\
             fn entry() { mid(1); seed_fn(); }\n",
        )]);
        let ctx = LintContext::new(&ws);
        let entry = ctx.fn_by_name("entry").unwrap();
        let w = ctx.effects.witness(entry, Effect::MayPanicStrict).unwrap();
        // `entry` calls the seeding fn directly too; BFS takes the
        // 1-hop path, and within it the earliest call site (`mid` at
        // token order... the direct `seed_fn()` call is one hop).
        assert_eq!(w.seed.what, "panic!");
        assert_eq!(ctx.fn_item(w.seed_fn).name, "seed_fn");
        assert_eq!(w.hops.len(), 1);
    }

    #[test]
    fn strict_channel_excludes_indexing_but_may_panic_keeps_it() {
        let ws = ws_of(&[(
            "a.rs",
            "fn pick(v: &[u8], i: usize) -> u8 { v[i] }\n\
             fn caller(v: &[u8]) -> u8 { pick(v, 0) }\n",
        )]);
        let ctx = LintContext::new(&ws);
        assert!(has(&ctx, "pick", Effect::MayPanic));
        assert!(!has(&ctx, "pick", Effect::MayPanicStrict));
        assert!(has(&ctx, "caller", Effect::MayPanic));
        assert!(!has(&ctx, "caller", Effect::MayPanicStrict));
    }

    #[test]
    fn suppressed_seed_stops_propagation_but_stays_direct() {
        let ws = ws_of(&[(
            "a.rs",
            "fn seed_fn(x: Option<u8>) -> u8 {\n\
                 // ssdtrain-lint: allow(panic-free-hot-path): fixture\n\
                 x.unwrap()\n\
             }\n\
             fn entry(x: Option<u8>) -> u8 { seed_fn(x) }\n",
        )]);
        let ctx = LintContext::new(&ws);
        assert!(!has(&ctx, "seed_fn", Effect::MayPanicStrict));
        assert!(!has(&ctx, "entry", Effect::MayPanicStrict));
        let seed_fn = ctx.fn_by_name("seed_fn").unwrap();
        let direct = ctx.effects.direct_seeds(seed_fn);
        assert_eq!(direct.len(), 1);
        assert!(direct[0].suppressed);
    }

    #[test]
    fn unresolved_calls_contribute_no_effects() {
        let ws = ws_of(&[(
            "a.rs",
            "struct A; impl A { fn kick(&self) { panic!(\"x\") } }\n\
             struct B; impl B { fn kick(&self) {} }\n\
             fn poll(h: &H) { h.kick(); }\n",
        )]);
        let ctx = LintContext::new(&ws);
        // Two impls share the name: conservative unknown, no effect.
        assert!(!has(&ctx, "poll", Effect::MayPanicStrict));
    }

    #[test]
    fn recursion_terminates_and_labels_the_cycle() {
        let ws = ws_of(&[(
            "a.rs",
            "fn ping(n: u8) { if n > 0 { pong(n - 1); } }\n\
             fn pong(n: u8) { boom(); ping(n); }\n\
             fn boom() { panic!(\"x\"); }\n",
        )]);
        let ctx = LintContext::new(&ws);
        assert!(has(&ctx, "ping", Effect::MayPanicStrict));
        assert!(has(&ctx, "pong", Effect::MayPanicStrict));
        let ping = ctx.fn_by_name("ping").unwrap();
        let w = ctx.effects.witness(ping, Effect::MayPanicStrict).unwrap();
        assert_eq!(w.seed.what, "panic!");
    }
}
