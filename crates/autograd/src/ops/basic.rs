//! Elementwise, reduction, view and communication operators.

use crate::graph::{Graph, Op};
use crate::observer::OpCost;
use crate::value::Value;
use ssdtrain_tensor::{Shape, Tensor};

fn w(t: &Tensor) -> u64 {
    t.dtype().byte_size()
}

// ---------------------------------------------------------------------
// add
// ---------------------------------------------------------------------

struct AddOp;

impl Op for AddOp {
    fn name(&self) -> &'static str {
        "add"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        grads_in[0] = Some(dy.clone());
        grads_in[1] = Some(dy.clone());
        OpCost::new(0, dy.bytes(), 2 * dy.bytes())
    }
}

/// Elementwise sum `a + b`, consuming both operands: the sum is written
/// into the buffer of one that owns its storage
/// ([`Tensor::zip_consuming`]). Pass a clone to keep an operand.
pub fn add(g: &Graph, mut a: Value, mut b: Value) -> Value {
    let out = Tensor::zip_consuming(a.tensor_mut(), b.tensor_mut(), |x, y| x + y);
    let n = out.numel() as u64;
    let cost = OpCost::new(n, 2 * n * w(&out), n * w(&out));
    g.record(AddOp, &[&a, &b], out, [], cost)
}

// ---------------------------------------------------------------------
// mul
// ---------------------------------------------------------------------

struct MulOp;

impl Op for MulOp {
    fn name(&self) -> &'static str {
        "mul"
    }
    fn backward(
        &self,
        _g: &Graph,
        saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let (a, b) = (&saved[0], &saved[1]);
        grads_in[0] = Some(dy.mul(b));
        grads_in[1] = Some(dy.mul(a));
        OpCost::new(2 * dy.numel() as u64, 3 * dy.bytes(), 2 * dy.bytes())
    }
}

/// Elementwise product `a * b`; saves both inputs for backward.
pub fn mul(g: &Graph, a: &Value, b: &Value) -> Value {
    let out = a.tensor().mul(b.tensor());
    let n = out.numel() as u64;
    let cost = OpCost::new(n, 2 * n * w(&out), n * w(&out));
    g.record(
        MulOp,
        &[a, b],
        out,
        [a.tensor().clone(), b.tensor().clone()],
        cost,
    )
}

// ---------------------------------------------------------------------
// scale
// ---------------------------------------------------------------------

struct ScaleOp {
    s: f32,
}

impl Op for ScaleOp {
    fn name(&self) -> &'static str {
        "scale"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        grads_in[0] = Some(dy.scale(self.s));
        OpCost::new(dy.numel() as u64, dy.bytes(), dy.bytes())
    }
}

/// Multiplies by a compile-time constant scalar.
pub fn scale(g: &Graph, x: &Value, s: f32) -> Value {
    let out = x.tensor().scale(s);
    let n = out.numel() as u64;
    let cost = OpCost::new(n, n * w(&out), n * w(&out));
    g.record(ScaleOp { s }, &[x], out, [], cost)
}

// ---------------------------------------------------------------------
// sum_all / mean_all
// ---------------------------------------------------------------------

struct SumAllOp {
    in_shape: Shape,
    scale: f32,
}

impl Op for SumAllOp {
    fn name(&self) -> &'static str {
        "sum_all"
    }
    fn backward(
        &self,
        g: &Graph,
        _saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let n = self.in_shape.numel() as u64;
        let dev = g.device().clone();
        let grad = if dy.has_data() {
            Tensor::full(self.in_shape, dy.item() * self.scale, &dev)
        } else {
            Tensor::symbolic(self.in_shape, &dev)
        };
        let cost = OpCost::new(n, 0, n * grad.dtype().byte_size());
        grads_in[0] = Some(grad);
        cost
    }
}

/// Sum of all elements to a scalar.
pub fn sum_all(g: &Graph, x: &Value) -> Value {
    let out = x.tensor().sum_all();
    let n = x.tensor().numel() as u64;
    let cost = OpCost::new(n, n * w(x.tensor()), 4);
    g.record(
        SumAllOp {
            in_shape: *x.tensor().shape(),
            scale: 1.0,
        },
        &[x],
        out,
        [],
        cost,
    )
}

/// Mean of all elements to a scalar.
pub fn mean_all(g: &Graph, x: &Value) -> Value {
    let out = x.tensor().mean_all();
    let n = x.tensor().numel() as u64;
    let cost = OpCost::new(n, n * w(x.tensor()), 4);
    g.record(
        SumAllOp {
            in_shape: *x.tensor().shape(),
            scale: 1.0 / n as f32,
        },
        &[x],
        out,
        [],
        cost,
    )
}

// ---------------------------------------------------------------------
// reshape (view)
// ---------------------------------------------------------------------

struct ReshapeOp {
    in_shape: Shape,
}

impl Op for ReshapeOp {
    fn name(&self) -> &'static str {
        "reshape"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        grads_in[0] = Some(dy.contiguous().reshape(self.in_shape));
        OpCost::default()
    }
}

/// Shape-changing view (zero-cost; storage is shared).
///
/// # Panics
/// Panics if the input view is not contiguous.
pub fn reshape(g: &Graph, x: &Value, shape: impl Into<Shape>) -> Value {
    let shape = shape.into();
    let out = x.tensor().reshape(shape);
    g.record(
        ReshapeOp {
            in_shape: *x.tensor().shape(),
        },
        &[x],
        out,
        [],
        OpCost::default(),
    )
}

// ---------------------------------------------------------------------
// allreduce (simulated collective)
// ---------------------------------------------------------------------

struct AllreduceOp {
    comm_bytes: u64,
}

impl Op for AllreduceOp {
    fn name(&self) -> &'static str {
        "allreduce"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        // The backward of an allreduce is an allreduce of the gradients,
        // with the same communication volume.
        grads_in[0] = Some(dy.clone());
        OpCost::new(0, self.comm_bytes, self.comm_bytes)
    }
}

/// Identity operator carrying the communication volume of a
/// tensor-parallel allreduce; the step scheduler recognises the
/// `"allreduce"` kernel name and times it on the interconnect instead of
/// the GPU roofline.
pub fn allreduce(g: &Graph, x: &Value, comm_bytes: u64) -> Value {
    let out = x.tensor().contiguous();
    g.record(
        AllreduceOp { comm_bytes },
        &[x],
        out,
        [],
        OpCost::new(0, comm_bytes, comm_bytes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;
    use ssdtrain_tensor::Device;

    fn setup() -> (Device, Graph) {
        let d = Device::cpu();
        let g = Graph::new(&d, 1);
        (d, g)
    }

    #[test]
    fn add_grads_are_identity() {
        let (d, g) = setup();
        let a = Var::new("a", Tensor::from_vec(vec![1.0, 2.0], [2], &d));
        let b = Var::new("b", Tensor::from_vec(vec![3.0, 4.0], [2], &d));
        let s = add(&g, g.leaf(&a), g.leaf(&b));
        let loss = sum_all(&g, &s);
        g.backward(&loss);
        assert_eq!(a.grad().unwrap().to_vec(), vec![1.0, 1.0]);
        assert_eq!(b.grad().unwrap().to_vec(), vec![1.0, 1.0]);
    }

    #[test]
    fn mean_all_divides_gradient() {
        let (d, g) = setup();
        let a = Var::new("a", Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], [4], &d));
        let m = mean_all(&g, &g.leaf(&a));
        assert_eq!(m.tensor().item(), 5.0);
        g.backward(&m);
        assert_eq!(a.grad().unwrap().to_vec(), vec![0.25; 4]);
    }

    #[test]
    fn reshape_backward_restores_shape() {
        let (d, g) = setup();
        let a = Var::new("a", Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2], &d));
        let r = reshape(&g, &g.leaf(&a), [4]);
        assert_eq!(r.dims(), &[4]);
        let loss = sum_all(&g, &r);
        g.backward(&loss);
        assert_eq!(a.grad().unwrap().dims(), &[2, 2]);
    }

    #[test]
    fn allreduce_is_identity_with_comm_cost() {
        let (d, g) = setup();
        let a = Var::new("a", Tensor::from_vec(vec![1.0], [1], &d));
        let y = allreduce(&g, &g.leaf(&a), 1 << 20);
        assert_eq!(y.tensor().to_vec(), vec![1.0]);
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        assert_eq!(a.grad().unwrap().to_vec(), vec![1.0]);
    }

    #[test]
    fn scale_chain_multiplies_gradient() {
        let (d, g) = setup();
        let a = Var::new("a", Tensor::from_vec(vec![1.0], [1], &d));
        let y = scale(&g, &scale(&g, &g.leaf(&a), 3.0), 4.0);
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        assert_eq!(a.grad().unwrap().to_vec(), vec![12.0]);
    }
}
