//! Module scopes and the four module-hook events.
//!
//! A *scope* is one invocation of one module (e.g. `layer2/mlp`) within a
//! micro-batch's forward pass. Scopes form a stack during forward; each
//! recorded operator remembers the stack it ran under, and the backward
//! engine replays the stack transitions in reverse, firing
//! `backward_pre` / `backward_post` exactly like PyTorch's
//! `full_backward_pre_hook` / `full_backward_hook` pair (paper
//! Algorithm 2).

use crate::observer::Phase;
use crate::var::Var;
use std::fmt;
use std::sync::Arc;

/// Identity and ordering information of one module invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ScopeInfo {
    /// Hierarchical name, e.g. `"layer2/attn"`.
    pub path: String,
    /// Global sequence number of this invocation within the step; defines
    /// the forward order the cache replays for prefetching (Figure 4 ②).
    pub seq: u64,
    /// Micro-batch index this invocation belongs to.
    pub micro_batch: usize,
}

impl fmt::Display for ScopeInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}@mb{}", self.path, self.seq, self.micro_batch)
    }
}

/// A frame in the scope stack; frames form a parent-linked list so a whole
/// stack is captured by one `Arc`. The graph recycles the frames of a
/// step once its tape is reset (`Graph::reset_tape`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ScopeFrame {
    /// This invocation.
    pub(crate) info: ScopeInfo,
    /// Enclosing scope, if any.
    pub(crate) parent: Option<Arc<ScopeFrame>>,
}

impl ScopeFrame {
    /// True if both handles denote the same invocation.
    fn same(a: &ScopeFrame, b: &ScopeFrame) -> bool {
        a.info.seq == b.info.seq
    }

    /// Fires the *backward* hook events that move the innermost open scope
    /// from `from` to `to` (the scope of the next node backward runs):
    /// `backward_post` on each frame of `from` below their common
    /// ancestor, innermost first, then `backward_pre` on each frame of
    /// `to` below it, outermost first. The walk follows parent links and
    /// allocates nothing; a node under the open frame fires nothing.
    pub(crate) fn backward_transition(
        from: Option<&ScopeFrame>,
        to: Option<&ScopeFrame>,
        hooks: &[Arc<dyn ModuleHooks>],
    ) {
        // The common ancestor is the first frame up from `from` that is
        // also on `to`'s stack.
        let mut common = from;
        while let Some(f) = common.filter(|&f| !stack(to).any(|t| ScopeFrame::same(f, t))) {
            for h in hooks {
                h.backward_post(&f.info);
            }
            common = f.parent.as_deref();
        }
        open_below(to, common, hooks);
    }
}

/// The stack ending at `top`, innermost frame first.
fn stack(top: Option<&ScopeFrame>) -> impl Iterator<Item = &ScopeFrame> {
    std::iter::successors(top, |f| f.parent.as_deref())
}

/// Fires `backward_pre` on the frames of `to` below `common`, outermost
/// first (recursing on the parent before firing the frame itself).
fn open_below(
    to: Option<&ScopeFrame>,
    common: Option<&ScopeFrame>,
    hooks: &[Arc<dyn ModuleHooks>],
) {
    let Some(f) = to else { return };
    if common.is_some_and(|c| ScopeFrame::same(f, c)) {
        return;
    }
    open_below(f.parent.as_deref(), common, hooks);
    for h in hooks {
        h.backward_pre(&f.info);
    }
}

/// Listener for module lifecycle events in both directions plus phase
/// changes and leaf-gradient readiness. All methods have no-op defaults,
/// so implementors override only what they need.
pub trait ModuleHooks: Send + Sync {
    /// Forward: a module scope was entered.
    fn forward_pre(&self, scope: &ScopeInfo) {
        let _ = scope;
    }
    /// Forward: a module scope finished.
    fn forward_post(&self, scope: &ScopeInfo) {
        let _ = scope;
    }
    /// Backward: gradients are about to flow through this module.
    fn backward_pre(&self, scope: &ScopeInfo) {
        let _ = scope;
    }
    /// Backward: this module's backward finished.
    fn backward_post(&self, scope: &ScopeInfo) {
        let _ = scope;
    }
    /// Execution switched phase (forward / backward / recompute).
    fn phase_changed(&self, phase: Phase) {
        let _ = phase;
    }
    /// Backward: the last contribution on the tape to `var`'s gradient
    /// has been accumulated — PyTorch's post-accumulate-grad hook (see
    /// [`crate::Graph::backward_from`] for exactly when it fires). Only
    /// the graph's [gradient listener](crate::Graph::set_grad_listener)
    /// is called; a backward without one tracks no readiness.
    fn grad_ready(&self, var: &Var) {
        let _ = var;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn frame(path: &str, seq: u64, parent: Option<Arc<ScopeFrame>>) -> Arc<ScopeFrame> {
        Arc::new(ScopeFrame {
            info: ScopeInfo {
                path: path.into(),
                seq,
                micro_batch: 0,
            },
            parent,
        })
    }

    /// Logs backward scope events as `b+path` / `b-path`.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl ModuleHooks for Log {
        fn backward_pre(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("b+{}", s.path));
        }
        fn backward_post(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("b-{}", s.path));
        }
    }

    /// The events the walk fires moving from `from` to `to`.
    fn walk(from: Option<&Arc<ScopeFrame>>, to: Option<&Arc<ScopeFrame>>) -> Vec<String> {
        let log = Arc::new(Log::default());
        let hooks: [Arc<dyn ModuleHooks>; 1] = [log.clone()];
        ScopeFrame::backward_transition(from.map(|f| &**f), to.map(|f| &**f), &hooks);
        let events = log.0.lock().clone();
        events
    }

    #[test]
    fn transition_between_siblings() {
        let root = frame("model", 1, None);
        let l0 = frame("model/l0", 2, Some(root.clone()));
        let l1 = frame("model/l1", 3, Some(root.clone()));
        assert_eq!(walk(Some(&l1), Some(&l0)), ["b-model/l1", "b+model/l0"]);
        assert!(
            walk(Some(&l0), Some(&l0)).is_empty(),
            "same frame fires nothing"
        );
    }

    #[test]
    fn transition_into_nested() {
        let root = frame("model", 1, None);
        let l0 = frame("model/l0", 2, Some(root.clone()));
        let mlp = frame("model/l0/mlp", 3, Some(l0.clone()));
        assert_eq!(
            walk(Some(&root), Some(&mlp)),
            ["b+model/l0", "b+model/l0/mlp"]
        );
        assert_eq!(
            walk(None, Some(&mlp)),
            ["b+model", "b+model/l0", "b+model/l0/mlp"]
        );
    }

    #[test]
    fn transition_out_closes_innermost_first() {
        let root = frame("model", 1, None);
        let l0 = frame("model/l0", 2, Some(root.clone()));
        let mlp = frame("model/l0/mlp", 3, Some(l0.clone()));
        assert_eq!(
            walk(Some(&mlp), None),
            ["b-model/l0/mlp", "b-model/l0", "b-model"]
        );
        assert_eq!(
            walk(Some(&mlp), Some(&root)),
            ["b-model/l0/mlp", "b-model/l0"]
        );
    }

    #[test]
    fn same_path_different_invocation_is_not_same_scope() {
        let a = frame("model/l0", 1, None);
        let b = frame("model/l0", 2, None);
        assert_eq!(walk(Some(&a), Some(&b)), ["b-model/l0", "b+model/l0"]);
    }
}
