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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
/// stack is captured by one `Arc`.
#[derive(Debug)]
pub struct ScopeFrame {
    /// This invocation.
    pub info: ScopeInfo,
    /// Enclosing scope, if any.
    pub parent: Option<Arc<ScopeFrame>>,
}

impl ScopeFrame {
    /// Depth of the stack ending at this frame (outermost = 1).
    pub fn depth(self: &Arc<Self>) -> usize {
        let mut d = 1;
        let mut cur = self.parent.clone();
        while let Some(f) = cur {
            d += 1;
            cur = f.parent.clone();
        }
        d
    }

    /// The stack from outermost to innermost.
    pub fn stack(self: &Arc<Self>) -> Vec<Arc<ScopeFrame>> {
        let mut v = Vec::new();
        let mut cur = Some(self.clone());
        while let Some(f) = cur {
            cur = f.parent.clone();
            v.push(f);
        }
        v.reverse();
        v
    }

    /// True if both handles denote the same invocation.
    pub fn same(a: &Arc<ScopeFrame>, b: &Arc<ScopeFrame>) -> bool {
        a.info.seq == b.info.seq
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
    /// Whether this listener takes [`ModuleHooks::grad_ready`] calls. A
    /// backward pass none of whose listeners does tracks no readiness.
    fn wants_grad_ready(&self) -> bool {
        false
    }
    /// Backward: the last contribution on the tape to `var`'s gradient
    /// has been accumulated — PyTorch's post-accumulate-grad hook (see
    /// [`crate::Graph::backward_from`] for exactly when it fires).
    fn grad_ready(&self, var: &Var) {
        let _ = var;
    }
}

/// Computes the hook events needed to move from the currently open stack
/// `from` to the stack of the next node `to` during *backward* traversal.
///
/// Returns `(to_close, to_open)`: frames to close innermost-first, then
/// frames to open outermost-first.
pub fn stack_transition(
    from: &[Arc<ScopeFrame>],
    to: &[Arc<ScopeFrame>],
) -> (Vec<Arc<ScopeFrame>>, Vec<Arc<ScopeFrame>>) {
    let mut common = 0;
    while common < from.len() && common < to.len() && ScopeFrame::same(&from[common], &to[common]) {
        common += 1;
    }
    let to_close = from[common..].iter().rev().cloned().collect();
    let to_open = to[common..].to_vec();
    (to_close, to_open)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn depth_and_stack() {
        let a = frame("model", 1, None);
        let b = frame("model/layer0", 2, Some(a.clone()));
        let c = frame("model/layer0/mlp", 3, Some(b.clone()));
        assert_eq!(c.depth(), 3);
        let stack = c.stack();
        assert_eq!(stack.len(), 3);
        assert_eq!(stack[0].info.path, "model");
        assert_eq!(stack[2].info.path, "model/layer0/mlp");
    }

    #[test]
    fn transition_between_siblings() {
        let root = frame("model", 1, None);
        let l0 = frame("model/l0", 2, Some(root.clone()));
        let l1 = frame("model/l1", 3, Some(root.clone()));
        let (close, open) = stack_transition(&l1.stack(), &l0.stack());
        assert_eq!(close.len(), 1);
        assert_eq!(close[0].info.path, "model/l1");
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].info.path, "model/l0");
    }

    #[test]
    fn transition_into_nested() {
        let root = frame("model", 1, None);
        let l0 = frame("model/l0", 2, Some(root.clone()));
        let mlp = frame("model/l0/mlp", 3, Some(l0.clone()));
        let (close, open) = stack_transition(&root.stack(), &mlp.stack());
        assert!(close.is_empty());
        assert_eq!(open.len(), 2);
        assert_eq!(open[0].info.path, "model/l0");
        assert_eq!(open[1].info.path, "model/l0/mlp");
    }

    #[test]
    fn transition_out_closes_innermost_first() {
        let root = frame("model", 1, None);
        let l0 = frame("model/l0", 2, Some(root.clone()));
        let mlp = frame("model/l0/mlp", 3, Some(l0.clone()));
        let (close, open) = stack_transition(&mlp.stack(), &[]);
        assert_eq!(open.len(), 0);
        let names: Vec<_> = close.iter().map(|f| f.info.path.clone()).collect();
        assert_eq!(names, vec!["model/l0/mlp", "model/l0", "model"]);
    }

    #[test]
    fn same_path_different_invocation_is_not_same_scope() {
        let a = frame("model/l0", 1, None);
        let b = frame("model/l0", 2, None);
        let (close, open) = stack_transition(&a.stack(), &b.stack());
        assert_eq!(close.len(), 1);
        assert_eq!(open.len(), 1);
    }
}
