//! The analysis engine: item index and the interprocedural layer.
//!
//! Layering (each stage consumes only the ones before it):
//!
//! ```text
//! lexer  ──►  items  ──►  callgraph  ──►  effects
//! tokens      fns/structs  who calls whom  transitive may-panic
//! ```
//!
//! [`LintContext`] packages one workspace with every file's item index,
//! the call graph, the inferred effect labels, and the parsed per-file
//! suppressions and markers — it is what rules receive instead of a
//! bare [`Workspace`].

pub mod callgraph;
pub mod effects;
pub mod items;

use crate::diagnostics::{Diagnostic, RelatedLocation};
use crate::suppress::{self, Suppressions};
use crate::workspace::{SourceFile, Workspace};
use callgraph::{CallGraph, FnId};
use effects::{Effect, Effects};
use items::{FileItems, FnItem};

/// One workspace file with its item index.
pub struct FileCtx<'w> {
    /// The lexed source file.
    pub file: &'w SourceFile,
    /// Functions, structs, brace matching, test ranges.
    pub items: FileItems,
}

impl FileCtx<'_> {
    /// The innermost function whose body contains token `tok`.
    pub fn fn_containing(&self, tok: usize) -> Option<&FnItem> {
        self.items
            .functions
            .iter()
            .filter(|f| f.body.as_ref().is_some_and(|b| b.contains(&tok)))
            .min_by_key(|f| {
                let b = f.body.as_ref().expect("filtered on body");
                b.end - b.start
            })
    }
}

/// A rendered interprocedural finding path: from a reporting function,
/// through the call chain, down to the effect seed.
#[derive(Debug)]
pub struct EffectChain {
    /// `entry → helper → seed` path, names unquoted, the seed rendered
    /// last (`place → encode_block → .unwrap()`).
    pub path: String,
    /// Number of calls the path traverses (arrows in `path`).
    pub calls: usize,
    /// One related location per intermediate call site, plus the seed.
    pub related: Vec<RelatedLocation>,
    /// Workspace-relative path of the seed's file.
    pub seed_path: String,
    /// 1-based line of the seed.
    pub seed_line: u32,
    /// Seed rendering (`panic!`, `.unwrap()`, …).
    pub seed_what: String,
}

/// The whole workspace, indexed for the rules.
pub struct LintContext<'w> {
    /// The raw workspace (file list, root).
    pub ws: &'w Workspace,
    /// Per-file item indexes, parallel to `ws.files`.
    pub files: Vec<FileCtx<'w>>,
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Transitive may-panic effect labels per function.
    pub effects: Effects,
    /// Parsed suppression comments and file markers, parallel to
    /// `files`.
    pub suppressions: Vec<Suppressions>,
    /// Malformed-allow diagnostics collected while parsing
    /// suppressions (rule `suppression`; not suppressible).
    pub bad_suppressions: Vec<Diagnostic>,
}

impl<'w> LintContext<'w> {
    /// Indexes every file of the workspace and runs the
    /// interprocedural passes.
    pub fn new(ws: &'w Workspace) -> LintContext<'w> {
        let files: Vec<FileCtx<'w>> = ws
            .files
            .iter()
            .map(|file| FileCtx {
                file,
                items: items::index_file(file),
            })
            .collect();
        let rule_names = crate::rules::rule_names();
        let mut bad_suppressions = Vec::new();
        let suppressions: Vec<Suppressions> = ws
            .files
            .iter()
            .map(|file| suppress::parse(file, &rule_names, &mut bad_suppressions))
            .collect();
        let graph = CallGraph::build(&files);
        let effects = Effects::infer(&files, &graph, &suppressions);
        LintContext {
            ws,
            files,
            graph,
            effects,
            suppressions,
            bad_suppressions,
        }
    }

    /// The function item behind a call-graph node.
    pub fn fn_item(&self, f: FnId) -> &FnItem {
        &self.files[f.0].items.functions[f.1]
    }

    /// The first function (in file, then source order) with `name` —
    /// a lookup for tests and single-definition names.
    pub fn fn_by_name(&self, name: &str) -> Option<FnId> {
        self.files.iter().enumerate().find_map(|(fi, fc)| {
            fc.items
                .functions
                .iter()
                .position(|f| f.name == name)
                .map(|k| (fi, k))
        })
    }

    /// Renders the chain behind a transitive finding: the reporting
    /// function `entry_name` calls `callee`, whose effect set contains
    /// `e`. `None` when `callee` does not carry the effect.
    pub fn effect_chain(&self, entry_name: &str, callee: FnId, e: Effect) -> Option<EffectChain> {
        let w = self.effects.witness(callee, e)?;
        let mut names = vec![entry_name.to_owned(), self.fn_item(callee).name.clone()];
        let mut related = Vec::new();
        for (hop_fn, via) in &w.hops {
            related.push(RelatedLocation {
                path: self.files[hop_fn.0].file.rel.clone(),
                line: via.line,
                col: via.col,
                message: format!(
                    "`{}` calls `{}`",
                    self.fn_item(*hop_fn).name,
                    self.fn_item(via.callee).name
                ),
            });
            names.push(self.fn_item(via.callee).name.clone());
        }
        let seed_path = self.files[w.seed_fn.0].file.rel.clone();
        related.push(RelatedLocation {
            path: seed_path.clone(),
            line: w.seed.line,
            col: w.seed.col,
            message: format!("effect seed: {}", w.seed.what),
        });
        let calls = names.len(); // n names → n-1 fn arrows, +1 to the seed
        Some(EffectChain {
            path: format!("{} → {}", names.join(" → "), w.seed.what),
            calls,
            related,
            seed_path,
            seed_line: w.seed.line,
            seed_what: w.seed.what.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::PathBuf;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::from("."),
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

    #[test]
    fn effect_chains_render_the_full_path_with_related_locations() {
        let ws = ws_of(&[(
            "crates/train/src/executor.rs",
            "impl Exec {\n\
               fn run_step(&mut self) { self.flush(); }\n\
               fn flush(&mut self) { self.slot.take().unwrap(); }\n\
             }\n",
        )]);
        let ctx = LintContext::new(&ws);
        let flush = ctx.fn_by_name("flush").unwrap();
        let chain = ctx
            .effect_chain("run_step", flush, Effect::MayPanicStrict)
            .unwrap();
        assert_eq!(chain.path, "run_step → flush → .unwrap()");
        assert_eq!(chain.calls, 2);
        assert_eq!(chain.seed_what, ".unwrap()");
        // One related location: the seed (no intermediate hops).
        assert_eq!(chain.related.len(), 1);
        assert!(chain.related[0].message.contains(".unwrap()"));
        assert_eq!(chain.related[0].path, "crates/train/src/executor.rs");
    }

    #[test]
    fn deeper_chains_carry_one_related_location_per_hop() {
        let ws = ws_of(&[(
            "a.rs",
            "fn entry() { mid(); }\n\
             fn mid() { deep(); }\n\
             fn deep() { panic!(\"boom\"); }\n",
        )]);
        let ctx = LintContext::new(&ws);
        let mid = ctx.fn_by_name("mid").unwrap();
        let chain = ctx
            .effect_chain("entry", mid, Effect::MayPanicStrict)
            .unwrap();
        assert_eq!(chain.path, "entry → mid → deep → panic!");
        assert_eq!(chain.calls, 3);
        assert_eq!(chain.related.len(), 2, "{:?}", chain.related);
        assert!(chain.related[0].message.contains("`mid` calls `deep`"));
        assert!(chain.related[1].message.contains("effect seed"));
    }
}
