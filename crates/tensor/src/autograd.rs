//! Tape-based reverse-mode automatic differentiation.
//!
//! Graphs are built dynamically (define-by-run): every operator in
//! [`crate::ops`] allocates a [`Var`] node holding the forward value, its
//! parents, and a closure that maps the incoming gradient to parent-gradient
//! contributions. [`Var::backward`] topologically sorts the reachable graph
//! and runs the closures in reverse order.

use crate::tensor::Tensor;
use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Gradient function: receives (owns) the gradient w.r.t. this node's output
/// and the node's parents, and accumulates contributions into each parent.
pub(crate) type BackwardFn = Box<dyn Fn(Tensor, &[Var])>;

pub(crate) struct Node {
    pub(crate) id: u64,
    pub(crate) value: RefCell<Tensor>,
    pub(crate) grad: RefCell<Option<Tensor>>,
    pub(crate) requires_grad: bool,
    pub(crate) parents: Vec<Var>,
    pub(crate) backward: Option<BackwardFn>,
}

/// A node in the autodiff graph.
///
/// `Var` is a cheap handle (`Rc` clone). Leaves are created with
/// [`Var::leaf`]; interior nodes come from the operators in [`crate::ops`].
///
/// # Example
///
/// ```
/// use instantnet_tensor::{Tensor, Var};
/// let w = Var::leaf(Tensor::from_vec(vec![1], vec![3.0]), true);
/// let loss = w.mul(&w).mean();
/// loss.backward();
/// assert_eq!(w.grad().unwrap().item(), 6.0);
/// ```
#[derive(Clone)]
pub struct Var {
    pub(crate) node: Rc<Node>,
}

impl Var {
    /// Creates a leaf node. Pass `requires_grad = true` for trainable
    /// parameters and `false` for inputs/constants.
    pub fn leaf(value: Tensor, requires_grad: bool) -> Self {
        Var {
            node: Rc::new(Node {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// Constant leaf (no gradient).
    pub fn constant(value: Tensor) -> Self {
        Var::leaf(value, false)
    }

    pub(crate) fn from_op(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Self {
        let requires_grad = parents.iter().any(|p| p.node.requires_grad);
        Var {
            node: Rc::new(Node {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents,
                backward: if requires_grad { Some(backward) } else { None },
            }),
        }
    }

    /// Unique node id (monotone creation order).
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// Clones the forward value out of the node.
    pub fn value(&self) -> Tensor {
        self.value_ref().clone()
    }

    /// Borrows the forward value: what operators and backward closures read
    /// instead of a per-call copy.
    pub(crate) fn value_ref(&self) -> Ref<'_, Tensor> {
        self.node.value.borrow()
    }

    /// Shape dims of the forward value.
    pub fn dims(&self) -> Vec<usize> {
        self.value_ref().dims().to_vec()
    }

    /// Scalar forward value.
    ///
    /// # Panics
    ///
    /// Panics if the value has more than one element.
    pub fn item(&self) -> f32 {
        self.node.value.borrow().item()
    }

    /// Clones the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.node.grad.borrow().clone()
    }

    /// Clears the accumulated gradient (used by optimizers between steps).
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// Overwrites the forward value in place (used by optimizers on leaves).
    ///
    /// # Panics
    ///
    /// Panics if the new value has a different shape.
    pub fn set_value(&self, value: Tensor) {
        let mut v = self.node.value.borrow_mut();
        assert_eq!(
            v.shape(),
            value.shape(),
            "set_value must preserve the shape"
        );
        *v = value;
    }

    /// Applies an in-place update to the forward value.
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.node.value.borrow_mut());
    }

    /// Returns a gradient-isolated copy of this node's value.
    ///
    /// The detached node shares no graph edges with `self`: it acts as a
    /// constant. This implements the stop-gradient (`SG`) operator in the
    /// cascade-distillation loss (Eq. 1 of the paper).
    pub fn detach(&self) -> Var {
        Var::constant(self.value())
    }

    /// Adds `g` to this node's gradient; the first contribution is moved
    /// into the empty slot, not copied.
    pub(crate) fn accumulate_grad(&self, g: Tensor) {
        if !self.node.requires_grad {
            return;
        }
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.add_assign(&g),
            None => *slot = Some(g),
        }
    }

    /// Runs reverse-mode differentiation from this scalar node.
    ///
    /// Gradients accumulate into every reachable node with
    /// `requires_grad == true` (leaves keep them until [`Var::zero_grad`]).
    ///
    /// # Panics
    ///
    /// Panics if the node's value is not a scalar.
    pub fn backward(&self) {
        assert_eq!(
            self.node.value.borrow().len(),
            1,
            "backward() must start from a scalar loss"
        );
        self.backward_with(Tensor::scalar(1.0));
    }

    /// Reverse-mode differentiation with an explicit seed gradient.
    pub fn backward_with(&self, seed: Tensor) {
        if !self.node.requires_grad {
            return;
        }
        // Topological order via iterative post-order DFS.
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Var, bool)> = vec![(self.clone(), false)];
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
                continue;
            }
            if !visited.insert(v.node.id) {
                continue;
            }
            stack.push((v.clone(), true));
            for p in &v.node.parents {
                if p.node.requires_grad && !visited.contains(&p.node.id) {
                    stack.push((p.clone(), false));
                }
            }
        }
        self.accumulate_grad(seed);
        for v in order.iter().rev() {
            // Interior gradients are taken (and so freed) as they are
            // consumed; leaves keep theirs.
            if let Some(back) = v.node.backward.as_ref() {
                let grad = v.node.grad.borrow_mut().take();
                if let Some(g) = grad {
                    back(g, &v.node.parents);
                }
            }
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Var#{}(value={:?}, requires_grad={})",
            self.node.id,
            self.node.value.borrow(),
            self.node.requires_grad
        )
    }
}

/// A named trainable parameter: a leaf [`Var`] with `requires_grad = true`.
///
/// Modules expose their parameters as `Vec<Param>`; optimizers mutate the
/// underlying values in place via [`Var::update_value`].
#[derive(Clone, Debug)]
pub struct Param {
    name: String,
    var: Var,
}

impl Param {
    /// Creates a named parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param {
            name: name.into(),
            var: Var::leaf(value, true),
        }
    }

    /// The parameter's name (diagnostics / weight decay filtering).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Handle to the underlying graph leaf.
    pub fn var(&self) -> &Var {
        &self.var
    }

    /// Element count.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.var.node.value.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn chain_rule_through_shared_node() {
        // y = (x * x) + (x * x): grad = 4x.
        let x = Var::leaf(Tensor::from_vec(vec![1], vec![3.0]), true);
        let sq = x.mul(&x);
        let y = sq.add(&sq).sum();
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 12.0);
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Var::leaf(Tensor::from_vec(vec![1], vec![2.0]), true);
        let d = x.mul(&x).detach();
        let y = d.mul(&x).sum(); // y = const * x
        y.backward();
        // d = 4 treated as constant, so dy/dx = 4 (not 3x^2 = 12).
        assert_eq!(x.grad().unwrap().item(), 4.0);
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let x = Var::leaf(Tensor::from_vec(vec![1], vec![1.0]), true);
        let y1 = x.scale(2.0).sum();
        y1.backward();
        let y2 = x.scale(3.0).sum();
        y2.backward();
        assert_eq!(x.grad().unwrap().item(), 5.0);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn constant_leaf_gets_no_grad() {
        let c = Var::constant(Tensor::scalar(5.0));
        let x = Var::leaf(Tensor::scalar(2.0), true);
        let y = ops::mul(&c, &x).sum();
        y.backward();
        assert!(c.grad().is_none());
        assert_eq!(x.grad().unwrap().item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "backward() must start from a scalar")]
    fn backward_requires_scalar() {
        let x = Var::leaf(Tensor::zeros(&[2]), true);
        x.scale(1.0).backward();
    }

    #[test]
    fn backward_with_custom_seed_scales_gradients() {
        let x = Var::leaf(Tensor::from_vec(vec![1], vec![2.0]), true);
        let y = x.scale(3.0);
        y.backward_with(Tensor::scalar(10.0));
        assert_eq!(x.grad().unwrap().item(), 30.0);
    }

    #[test]
    fn backward_on_constant_graph_is_noop() {
        let c = Var::constant(Tensor::scalar(1.0));
        let y = c.scale(2.0);
        // No requires_grad anywhere: backward_with must not panic or store.
        y.backward_with(Tensor::scalar(1.0));
        assert!(c.grad().is_none());
    }

    #[test]
    #[should_panic(expected = "preserve the shape")]
    fn set_value_rejects_shape_change() {
        let x = Var::leaf(Tensor::zeros(&[2]), true);
        x.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn param_exposes_name_and_var() {
        let p = Param::new("conv.weight", Tensor::zeros(&[4]));
        assert_eq!(p.name(), "conv.weight");
        assert!(p.var().requires_grad());
        assert_eq!(p.len(), 4);
    }
}
