//! # st-autograd
//!
//! Reverse-mode automatic differentiation over [`st_tensor::Tensor`],
//! standing in for PyTorch autograd in the PGT-I reproduction.
//!
//! The design is a classic tape: every differentiable op appends a node with
//! its parents and a backward closure; [`Tape::backward`] walks nodes in
//! reverse creation order, accumulating gradients. Tapes are per-thread
//! (`Rc`-based) — each distributed worker builds its own tape per step, which
//! mirrors DDP's per-replica autograd graphs.
//!
//! Gradient retention: [`Tape::backward`] returns only the **leaf**
//! gradients (parameters, constants and inputs). An intermediate node's
//! gradient is freed as soon as its backward closure has run, so peak
//! memory during backward is the forward activations plus the gradients
//! still in flight, not a second copy of the graph. [`Gradients::get`] is
//! therefore leaf-only; it returns `None` for an intermediate var.
//!
//! Crates above this one (`st-models`) add domain ops — e.g. sparse diffusion
//! convolution — through [`Tape::custom_op`] without touching this crate.

pub mod checkpoint;
pub mod loss;
pub mod module;
pub mod ops;
pub mod optim;
pub mod schedule;
pub mod tape;

pub use checkpoint::{Checkpoint, StateDict};
pub use module::{Module, Param};
pub use tape::{Gradients, Tape, Var};

pub use st_tensor::{Shape, Tensor};
