//! Trainable parameters and the module abstraction.
//!
//! A [`Param`] owns its tensor and accumulated gradient behind a shared
//! handle, so a model can bind it to fresh tapes every step (as PyTorch
//! re-binds leaf tensors to new graphs) while the optimizer mutates the same
//! storage. Handles are `Rc`-based: each distributed worker owns an
//! independent model replica on its own thread.

use crate::tape::{Tape, Var};
use st_tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;

struct ParamInner {
    name: String,
    value: Tensor,
    grad: Option<Tensor>,
}

/// A named trainable tensor with an accumulated gradient.
#[derive(Clone)]
pub struct Param {
    inner: Rc<RefCell<ParamInner>>,
}

impl Param {
    /// Create a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param {
            inner: Rc::new(RefCell::new(ParamInner {
                name: name.into(),
                value,
                grad: None,
            })),
        }
    }

    /// Parameter name (unique within a module tree by convention).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Copy of the current value.
    pub fn value(&self) -> Tensor {
        self.inner.borrow().value.clone()
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.inner.borrow().value.numel()
    }

    /// Bind this parameter to `tape` as a leaf and return its [`Var`].
    /// Call [`Param::accumulate_from`] after backward to collect gradients,
    /// or prefer [`Tape::param`] + [`Tape::accumulate_param_grads`], which
    /// handle the bookkeeping automatically.
    pub fn leaf(&self, tape: &Tape) -> Var {
        tape.leaf(self.value())
    }

    /// Stable identity key (pointer of the shared inner cell).
    pub(crate) fn key(&self) -> usize {
        Rc::as_ptr(&self.inner) as usize
    }

    /// Whether `other` is a handle to the same underlying parameter
    /// (identity, not value equality). Gradient bucketing uses this to
    /// match a bucket's members against a tape's completion sequence.
    pub fn same_param(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Accumulate a raw gradient tensor into `.grad`.
    pub(crate) fn accumulate_raw(&self, g: &Tensor) {
        let mut inner = self.inner.borrow_mut();
        match &mut inner.grad {
            None => inner.grad = Some(g.clone()),
            Some(acc) => acc.add_scaled_(g, 1.0).expect("gradient shape stable"),
        }
    }

    /// Accumulate the gradient computed for `var` (the leaf returned by
    /// [`Param::leaf`] this step) into this parameter's `.grad`.
    pub fn accumulate_from(&self, grads: &crate::tape::Gradients, var: &Var) {
        let g = grads.get_or_zeros(var);
        let mut inner = self.inner.borrow_mut();
        match &mut inner.grad {
            None => inner.grad = Some(g),
            Some(acc) => {
                acc.add_scaled_(&g, 1.0).expect("gradient shape stable");
            }
        }
    }

    /// Current gradient (if any backward has run since the last zero).
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.borrow().grad.clone()
    }

    /// Replace the gradient wholesale (used by DDP after all-reduce).
    pub fn set_grad(&self, g: Option<Tensor>) {
        self.inner.borrow_mut().grad = g;
    }

    /// Clear the gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad = None;
    }

    /// Overwrite the value (used by optimizers and parameter broadcast).
    pub fn set_value(&self, v: Tensor) {
        self.inner.borrow_mut().value = v;
    }

    /// Apply `f(value, grad)` → new value if a gradient exists.
    pub fn update_with(&self, f: impl FnOnce(&Tensor, &Tensor) -> Tensor) {
        let mut inner = self.inner.borrow_mut();
        if let Some(g) = inner.grad.clone() {
            let nv = f(&inner.value, &g);
            inner.value = nv;
        }
    }
}

/// A model component owning parameters.
pub trait Module {
    /// All trainable parameters, in a stable order (critical: DDP flattens
    /// gradients in this order on every replica, so it must be deterministic).
    fn params(&self) -> Vec<Param>;

    /// Total trainable scalars.
    fn num_params(&self) -> usize {
        self.params().iter().map(Param::numel).sum()
    }

    /// Serialize parameter values in `params()` order (a minimal state dict).
    fn state_vector(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for p in self.params() {
            out.extend_from_slice(&p.value().to_vec());
        }
        out
    }

    /// Load values produced by [`Module::state_vector`].
    fn load_state_vector(&self, state: &[f32]) {
        let mut cursor = 0usize;
        for p in self.params() {
            let n = p.numel();
            let shape = p.value().shape().clone();
            let v = Tensor::from_vec(state[cursor..cursor + n].to_vec(), shape)
                .expect("state slice matches param shape");
            p.set_value(v);
            cursor += n;
        }
        assert_eq!(cursor, state.len(), "state vector length mismatch");
    }
}

/// A borrowed module exposes the same parameters, so entry points that take
/// a model by value can train one the caller keeps.
impl<M: Module + ?Sized> Module for &M {
    fn params(&self) -> Vec<Param> {
        (**self).params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn param_binds_and_accumulates() {
        let p = Param::new("w", Tensor::from_slice(&[1.0, 2.0]));
        let tape = Tape::new();
        let w = p.leaf(&tape);
        let loss = ops::sum_all(&ops::square(&w));
        let grads = tape.backward(&loss);
        p.accumulate_from(&grads, &w);
        assert_eq!(p.grad().unwrap().to_vec(), vec![2.0, 4.0]);

        // Second accumulation adds.
        let tape2 = Tape::new();
        let w2 = p.leaf(&tape2);
        let loss2 = ops::sum_all(&w2);
        let g2 = tape2.backward(&loss2);
        p.accumulate_from(&g2, &w2);
        assert_eq!(p.grad().unwrap().to_vec(), vec![3.0, 5.0]);

        p.zero_grad();
        assert!(p.grad().is_none());
    }

    struct Tiny {
        a: Param,
        b: Param,
    }

    impl Module for Tiny {
        fn params(&self) -> Vec<Param> {
            vec![self.a.clone(), self.b.clone()]
        }
    }

    #[test]
    fn state_vector_roundtrip() {
        let m = Tiny {
            a: Param::new("a", Tensor::from_slice(&[1.0, 2.0])),
            b: Param::new("b", Tensor::from_slice(&[3.0])),
        };
        assert_eq!(m.num_params(), 3);
        let sv = m.state_vector();
        assert_eq!(sv, vec![1.0, 2.0, 3.0]);
        m.a.set_value(Tensor::from_slice(&[9.0, 9.0]));
        m.load_state_vector(&sv);
        assert_eq!(m.a.value().to_vec(), vec![1.0, 2.0]);
    }
}
