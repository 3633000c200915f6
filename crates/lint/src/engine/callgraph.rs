//! The workspace call graph.
//!
//! Interprocedural rules need to know, for every function, which other
//! *workspace* functions it calls. This module scans each non-test
//! function body for call sites — `recv.name(…)` method calls,
//! `Type::name(…)` qualified calls, bare `name(…)` free calls, and
//! `name!(…)` macro invocations — and resolves each one against the
//! item index:
//!
//! - `self.m()` resolves against the enclosing `impl` type (trait
//!   impls included: [`super::items::FnItem::impl_type`] is the self type).
//! - `self.field.m()` resolves through the field's declared type,
//!   looking through `Arc`/`Rc`/`Box` wrappers.
//! - `Self::m(…)` / `Type::m(…)` resolve against the named type; a
//!   qualifier that is no workspace type falls back to a free function
//!   of that name (module-qualified calls like `items::index_file`).
//! - Everything else (locals, trait objects, call-result receivers)
//!   resolves only when the name is unambiguous workspace-wide and not
//!   a common `std` method name.
//!
//! Anything still ambiguous — shadowed method names across impl types,
//! `dyn Trait` dispatch, `std` calls — stays **unresolved** and
//! contributes no interprocedural edge: the effect inference gives up
//! soundly rather than guess.

use super::items::FileItems;
use super::FileCtx;
use crate::lexer::{TokKind, Token};
use std::collections::BTreeMap;

/// A function, addressed as `(file index, function index)` into the
/// context's parallel `files[…].items.functions[…]` arrays.
pub type FnId = (usize, usize);

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(…)` with the receiver chain (`self.tiers.reserve`
    /// → `["self", "tiers"]`; empty when the receiver is opaque).
    Method(Vec<String>),
    /// `Qualifier::name(…)`; the qualifier is `None` when it is not a
    /// plain identifier (`<T as Trait>::name`).
    Qualified(Option<String>),
    /// Bare `name(…)`.
    Free,
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee-name identifier.
    pub name_tok: usize,
    /// Callee name as written.
    pub name: String,
    /// 1-based source line of the name token.
    pub line: u32,
    /// 1-based source column of the name token.
    pub col: u32,
    /// Syntactic form of the call.
    pub kind: CallKind,
    /// Resolved workspace callee; `None` when the target is outside
    /// the workspace, a macro, or ambiguous (trait objects, shadowed
    /// method names).
    pub callee: Option<FnId>,
}

/// The workspace call graph: call sites per function plus reverse
/// (caller) edges. All maps are ordered so iteration is deterministic.
#[derive(Debug, Default)]
pub struct CallGraph {
    calls: BTreeMap<FnId, Vec<CallSite>>,
    callers: BTreeMap<FnId, Vec<FnId>>,
}

/// Method names too generic to resolve through the *unknown-receiver*
/// fallback: `std` containers and combinators use them, so a unique
/// workspace method of the same name must not capture every call.
const COMMON_METHODS: [&str; 42] = [
    "abs",
    "and_then",
    "as_mut",
    "as_ref",
    "clear",
    "clone",
    "cmp",
    "contains",
    "contains_key",
    "drain",
    "entry",
    "eq",
    "extend",
    "flush",
    "fmt",
    "get",
    "get_mut",
    "hash",
    "insert",
    "iter",
    "iter_mut",
    "join",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "pop",
    "push",
    "read",
    "remove",
    "replace",
    "split",
    "store",
    "take",
    "to_owned",
    "to_string",
    "unwrap_or",
    "with_capacity",
    "write",
];

/// Keywords that look like `name(`/`name!(…)` heads but are not calls.
const NON_CALL_IDENTS: [&str; 22] = [
    "Self", "as", "async", "await", "box", "break", "continue", "crate", "dyn", "else", "fn",
    "for", "if", "in", "let", "loop", "match", "move", "return", "self", "unsafe", "while",
];

/// Keywords that, immediately before `name(`, mark a definition or
/// declaration instead of a call.
const NON_CALL_PREV: [&str; 5] = ["enum", "fn", "struct", "trait", "union"];

struct Index {
    /// `(impl type, method name)` → definitions.
    methods: BTreeMap<(String, String), Vec<FnId>>,
    /// method name → definitions across all impl types.
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    /// free-fn name → definitions.
    free: BTreeMap<String, Vec<FnId>>,
    /// `(struct name, field name)` → head type identifier.
    field_ty: BTreeMap<(String, String), String>,
}

impl CallGraph {
    /// Builds the graph over every indexed file.
    pub fn build(files: &[FileCtx<'_>]) -> CallGraph {
        let idx = build_index(files);
        let mut graph = CallGraph::default();
        for (fi, fc) in files.iter().enumerate() {
            scan_file(fi, fc, &idx, &mut graph.calls);
        }
        for (&caller, sites) in &graph.calls {
            for site in sites {
                if let Some(callee) = site.callee {
                    let v = graph.callers.entry(callee).or_default();
                    if v.last() != Some(&caller) && !v.contains(&caller) {
                        v.push(caller);
                    }
                }
            }
        }
        for v in graph.callers.values_mut() {
            v.sort_unstable();
        }
        graph
    }

    /// Call sites of `f`, in token order (empty for unknown ids).
    pub fn calls_of(&self, f: FnId) -> &[CallSite] {
        self.calls.get(&f).map_or(&[], Vec::as_slice)
    }

    /// Functions with at least one call site into `f`, sorted.
    pub fn callers_of(&self, f: FnId) -> &[FnId] {
        self.callers.get(&f).map_or(&[], Vec::as_slice)
    }
}

/// The innermost non-test function whose body contains token `tok`.
pub(crate) fn innermost_fn(items: &FileItems, tok: usize) -> Option<usize> {
    items
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_test && f.body.as_ref().is_some_and(|b| b.contains(&tok)))
        .min_by_key(|(_, f)| {
            let b = f.body.as_ref().expect("filtered on body");
            b.end - b.start
        })
        .map(|(k, _)| k)
}

fn build_index(files: &[FileCtx<'_>]) -> Index {
    let mut idx = Index {
        methods: BTreeMap::new(),
        methods_by_name: BTreeMap::new(),
        free: BTreeMap::new(),
        field_ty: BTreeMap::new(),
    };
    for (fi, fc) in files.iter().enumerate() {
        for (k, f) in fc.items.functions.iter().enumerate() {
            // Test helpers and body-less trait declarations are not
            // resolution targets; letting them in would both pollute
            // unique-name resolution and resolve calls to stubs.
            if f.is_test || f.body.is_none() {
                continue;
            }
            let id = (fi, k);
            match &f.impl_type {
                Some(ty) => {
                    idx.methods
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    idx.methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                }
                None => idx.free.entry(f.name.clone()).or_default().push(id),
            }
        }
        for s in &fc.items.structs {
            for field in &s.fields {
                if let Some(head) = head_type(&field.ty) {
                    idx.field_ty
                        .insert((s.name.clone(), field.name.clone()), head);
                }
            }
        }
    }
    idx
}

/// The resolution-relevant head of a field type: the first identifier,
/// looking through `&`/`mut` and the deref-transparent `Arc`/`Rc`/`Box`
/// wrappers (`Arc<Mutex<Inner>>` stops at `Mutex`: methods called on
/// that field are the wrapper's, not `Inner`'s).
fn head_type(ty: &str) -> Option<String> {
    let toks: Vec<&str> = ty.split_whitespace().collect();
    let mut i = 0;
    while toks
        .get(i)
        .is_some_and(|t| *t == "&" || *t == "mut" || t.starts_with('\''))
    {
        i += 1;
    }
    while ["Arc", "Rc", "Box"].contains(toks.get(i)?) && toks.get(i + 1) == Some(&"<") {
        i += 2;
    }
    let head = *toks.get(i)?;
    head.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        .then(|| head.to_owned())
}

/// For an identifier at `i`, the token index of the argument-list `(`
/// when this is a call — allowing a `::<…>` turbofish between name and
/// parens — else `None`.
fn arg_paren(toks: &[Token], i: usize) -> Option<usize> {
    let next = toks.get(i + 1)?;
    if next.is_punct("(") {
        return Some(i + 1);
    }
    if !next.is_punct("::") || !toks.get(i + 2).is_some_and(|t| t.is_punct("<")) {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i + 2) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return toks
                    .get(j + 1)
                    .is_some_and(|t| t.is_punct("("))
                    .then_some(j + 1);
            }
        } else if t.is_punct(";") || t.is_punct("{") {
            return None;
        }
    }
    None
}

/// The receiver chain of a method call at `i` (the name identifier):
/// `self.tiers.reserve` → `["self", "tiers"]`, empty when opaque.
fn receiver_chain(toks: &[Token], i: usize) -> Vec<String> {
    let mut recv = Vec::new();
    let mut k = i - 1; // the `.`
    loop {
        if k == 0 {
            break;
        }
        let p = &toks[k - 1];
        if p.kind == TokKind::Ident {
            recv.push(p.text.clone());
            if k >= 2 && toks[k - 2].is_punct(".") {
                k -= 2;
                continue;
            }
            if k >= 2 && toks[k - 2].is_punct("::") {
                recv.clear(); // path receiver: opaque
            }
            break;
        }
        recv.clear(); // call result / index / literal receiver
        break;
    }
    recv.reverse();
    recv
}

fn scan_file(fi: usize, fc: &FileCtx<'_>, idx: &Index, out: &mut BTreeMap<FnId, Vec<CallSite>>) {
    let toks = &fc.file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || fc.items.is_test_tok(i)
            || NON_CALL_IDENTS.contains(&t.text.as_str())
        {
            continue;
        }
        let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"));
        if !is_macro && arg_paren(toks, i).is_none() {
            continue;
        }
        let prev = (i > 0).then(|| &toks[i - 1]);
        if prev
            .is_some_and(|p| p.kind == TokKind::Ident && NON_CALL_PREV.contains(&p.text.as_str()))
        {
            continue;
        }
        let Some(owner) = innermost_fn(&fc.items, i) else {
            continue;
        };
        let encl_impl = fc.items.functions[owner].impl_type.as_deref();
        let (kind, callee) = if is_macro {
            (CallKind::Macro, None)
        } else if prev.is_some_and(|p| p.is_punct(".")) {
            let recv = receiver_chain(toks, i);
            let callee = resolve_method(&recv, encl_impl, &t.text, idx);
            (CallKind::Method(recv), callee)
        } else if prev.is_some_and(|p| p.is_punct("::")) {
            let qual = (i >= 2)
                .then(|| &toks[i - 2])
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.clone());
            let callee = resolve_qualified(qual.as_deref(), encl_impl, &t.text, idx);
            (CallKind::Qualified(qual), callee)
        } else {
            (CallKind::Free, unique(idx.free.get(&t.text)))
        };
        out.entry((fi, owner)).or_default().push(CallSite {
            name_tok: i,
            name: t.text.clone(),
            line: t.line,
            col: t.col,
            kind,
            callee,
        });
    }
}

/// The single element of `ids`, if there is exactly one.
fn unique(ids: Option<&Vec<FnId>>) -> Option<FnId> {
    match ids.map(Vec::as_slice) {
        Some([only]) => Some(*only),
        _ => None,
    }
}

fn resolve_method(
    recv: &[String],
    encl_impl: Option<&str>,
    name: &str,
    idx: &Index,
) -> Option<FnId> {
    if recv.first().is_some_and(|r| r == "self") {
        if let Some(ty) = encl_impl {
            if recv.len() == 1 {
                // `self.m()`: the receiver type is known exactly; a
                // miss means the method lives outside the workspace
                // (deref/trait-default) — do not guess elsewhere.
                return unique(idx.methods.get(&(ty.to_owned(), name.to_owned())));
            }
            if recv.len() == 2 {
                if let Some(fty) = idx.field_ty.get(&(ty.to_owned(), recv[1].clone())) {
                    return unique(idx.methods.get(&(fty.clone(), name.to_owned())));
                }
            }
        }
    }
    // Unknown receiver (local, long chain, untyped field): resolve only
    // when exactly one workspace method bears the name and the name is
    // not a `std`-common one.
    if COMMON_METHODS.contains(&name) {
        return None;
    }
    unique(idx.methods_by_name.get(name))
}

fn resolve_qualified(
    qual: Option<&str>,
    encl_impl: Option<&str>,
    name: &str,
    idx: &Index,
) -> Option<FnId> {
    let ty = match qual {
        Some("Self") => encl_impl?,
        Some(q) => q,
        None => return None,
    };
    let key = (ty.to_owned(), name.to_owned());
    if idx.methods.contains_key(&key) {
        return unique(idx.methods.get(&key));
    }
    // Not a workspace type: a module-qualified free call
    // (`items::index_file(…)`) or an out-of-workspace path
    // (`Vec::new`, enum variants) — the free-fn table decides.
    unique(idx.free.get(name))
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

    /// The resolved callee names of function `name`, via the context.
    fn resolved(ctx: &LintContext, name: &str) -> Vec<String> {
        let id = ctx.fn_by_name(name).expect("caller exists");
        ctx.graph
            .calls_of(id)
            .iter()
            .filter_map(|s| s.callee)
            .map(|c| ctx.fn_item(c).name.clone())
            .collect()
    }

    #[test]
    fn self_and_field_receivers_resolve_through_impl_types() {
        let ws = ws_of(&[(
            "a.rs",
            "struct Clock; impl Clock { fn tick(&self) {} }\n\
             struct Engine { clock: Arc<Clock> }\n\
             impl Engine {\n\
               fn run(&self) { self.pump(); self.clock.tick(); }\n\
               fn pump(&self) {}\n\
             }\n",
        )]);
        let ctx = LintContext::new(&ws);
        assert_eq!(resolved(&ctx, "run"), vec!["pump", "tick"]);
    }

    #[test]
    fn qualified_and_free_calls_resolve() {
        let ws = ws_of(&[
            (
                "a.rs",
                "struct Clock; impl Clock { fn now() -> u64 { 0 }\n\
                   fn probe(&self) -> u64 { Self::now() } }\n",
            ),
            (
                "b.rs",
                "fn helper(x: u64) -> u64 { x }\n\
                 fn caller() -> u64 { helper(Clock::now()) + util::helper(1) }\n",
            ),
        ]);
        let ctx = LintContext::new(&ws);
        assert_eq!(resolved(&ctx, "probe"), vec!["now"]);
        // Free, qualified-by-type, and module-qualified all resolve.
        assert_eq!(resolved(&ctx, "caller"), vec!["helper", "now", "helper"]);
    }

    #[test]
    fn shadowed_method_names_stay_unresolved() {
        let ws = ws_of(&[(
            "a.rs",
            "struct A; impl A { fn refresh(&self) {} }\n\
             struct B; impl B { fn refresh(&self) {} }\n\
             fn poll(x: &X) { x.refresh(); }\n",
        )]);
        let ctx = LintContext::new(&ws);
        assert!(resolved(&ctx, "poll").is_empty());
    }

    #[test]
    fn unique_unknown_receiver_methods_resolve_unless_std_common() {
        let ws = ws_of(&[(
            "a.rs",
            "struct A; impl A { fn refresh_caches(&self) {} fn len(&self) -> usize { 0 } }\n\
             fn poll(x: &X, v: &Vec<u8>) { x.refresh_caches(); v.len(); }\n",
        )]);
        let ctx = LintContext::new(&ws);
        // `refresh_caches` is unique → resolves; `len` is std-common →
        // never through the fallback.
        assert_eq!(resolved(&ctx, "poll"), vec!["refresh_caches"]);
    }

    #[test]
    fn turbofish_macros_and_defs_are_classified() {
        let ws = ws_of(&[(
            "a.rs",
            "fn parse<T>(s: &str) -> T { todo!() }\n\
             fn caller() { let x = parse::<u64>(\"1\"); vec![1]; }\n",
        )]);
        let ctx = LintContext::new(&ws);
        let id = ctx.fn_by_name("caller").unwrap();
        let sites = ctx.graph.calls_of(id);
        let names: Vec<(&str, &CallKind)> =
            sites.iter().map(|s| (s.name.as_str(), &s.kind)).collect();
        assert!(names.contains(&("parse", &CallKind::Free)));
        assert!(names.contains(&("vec", &CallKind::Macro)));
        // `fn parse` / `fn caller` definitions are not call sites.
        assert!(sites.iter().all(|s| s.name != "caller"));
    }

    #[test]
    fn reverse_edges_are_sorted_and_deduplicated() {
        let ws = ws_of(&[(
            "a.rs",
            "fn leaf() {}\n\
             fn a() { leaf(); leaf(); }\n\
             fn b() { leaf(); }\n",
        )]);
        let ctx = LintContext::new(&ws);
        let leaf = ctx.fn_by_name("leaf").unwrap();
        let callers: Vec<String> = ctx
            .graph
            .callers_of(leaf)
            .iter()
            .map(|&c| ctx.fn_item(c).name.clone())
            .collect();
        assert_eq!(callers, vec!["a", "b"]);
    }

    #[test]
    fn test_code_contributes_no_edges() {
        let ws = ws_of(&[(
            "a.rs",
            "fn leaf() {}\n\
             #[cfg(test)]\nmod tests { fn probe() { leaf(); } }\n",
        )]);
        let ctx = LintContext::new(&ws);
        let leaf = ctx.fn_by_name("leaf").unwrap();
        assert!(ctx.graph.callers_of(leaf).is_empty());
    }

    #[test]
    fn head_types_look_through_wrappers() {
        assert_eq!(head_type("Arc < Clock >").as_deref(), Some("Clock"));
        assert_eq!(head_type("Arc < Mutex < u64 > >").as_deref(), Some("Mutex"));
        assert_eq!(head_type("& mut TierStack").as_deref(), Some("TierStack"));
        assert_eq!(head_type("Option < Clock >").as_deref(), Some("Option"));
    }
}
