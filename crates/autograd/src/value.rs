//! Values flowing through the computation graph.

use crate::var::Var;
use ssdtrain_tensor::Tensor;
use std::fmt;

/// Where a [`Value`] came from, i.e. where its gradient must flow.
#[derive(Clone)]
pub(crate) enum Source {
    /// Output `out` of the tape node at index `node`.
    Node {
        /// Tape index of the producing node.
        node: usize,
        /// Output slot of the producing node.
        out: usize,
    },
    /// A trainable leaf parameter.
    Leaf(Var),
    /// Positional input of a checkpointed segment (gradient is collected
    /// by `backward_from`).
    External(usize),
    /// No gradient is tracked (model inputs, targets, detached values).
    Constant,
}

impl fmt::Debug for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Node { node, out } => write!(f, "Node({node}.{out})"),
            Source::Leaf(v) => write!(f, "Leaf({})", v.name()),
            Source::External(i) => write!(f, "External({i})"),
            Source::Constant => write!(f, "Constant"),
        }
    }
}

/// A tensor with provenance on a [`crate::Graph`].
///
/// Cloning is cheap; the tensor's storage is shared.
#[derive(Clone, Debug)]
pub struct Value {
    tensor: Tensor,
    source: Source,
}

impl Value {
    /// Wraps a tensor with an explicit source. Mostly used by the engine;
    /// user code goes through [`crate::Graph::constant`] and
    /// [`crate::Graph::leaf`].
    pub(crate) fn with_source(tensor: Tensor, source: Source) -> Value {
        Value { tensor, source }
    }

    /// The carried tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// The carried tensor, for an op that consumes this value
    /// ([`Tensor::take_buffer`]).
    pub(crate) fn tensor_mut(&mut self) -> &mut Tensor {
        &mut self.tensor
    }

    /// Provenance of this value.
    pub(crate) fn source(&self) -> &Source {
        &self.source
    }

    /// Shape dims convenience.
    pub fn dims(&self) -> &[usize] {
        self.tensor.dims()
    }
}
