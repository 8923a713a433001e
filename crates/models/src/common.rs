//! Shared model interfaces.
//!
//! Every model in the zoo is a **sequence-to-sequence** forecaster: it maps
//! a `[batch, horizon, nodes, features]` history window to a
//! `[batch, horizon, nodes, out_dim]` forecast. That uniform contract is
//! what makes index-batching "applicable to any model that operates on
//! spatiotemporal data in a sequence-to-sequence format" (§1).

use st_autograd::{Module, Tape, Var};
use st_tensor::Tensor;

/// Hyperparameters shared by the model zoo.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Input features per node per step.
    pub input_dim: usize,
    /// Output features per node per step (1 for speed/case forecasting).
    pub output_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Number of graph nodes.
    pub num_nodes: usize,
    /// Forecast horizon (both input and output window length).
    pub horizon: usize,
    /// Diffusion steps K for DCRNN-family models.
    pub diffusion_steps: usize,
    /// Recurrent layers (encoder/decoder depth for DCRNN).
    pub layers: usize,
}

impl ModelConfig {
    /// A small default suitable for scaled-down measured runs.
    pub fn small(num_nodes: usize, input_dim: usize, horizon: usize) -> Self {
        ModelConfig {
            input_dim,
            output_dim: 1,
            hidden: 16,
            num_nodes,
            horizon,
            diffusion_steps: 2,
            layers: 2,
        }
    }

    /// The paper-scale configuration (DCRNN defaults: hidden 64, K=2,
    /// 2 layers) used for paper-scale cost projection.
    pub fn paper(num_nodes: usize, input_dim: usize, horizon: usize) -> Self {
        ModelConfig {
            input_dim,
            output_dim: 1,
            hidden: 64,
            num_nodes,
            horizon,
            diffusion_steps: 2,
            layers: 2,
        }
    }
}

/// A sequence-to-sequence spatiotemporal forecaster.
pub trait Seq2Seq: Module {
    /// Forward pass: `x` is `[B, T, N, F]`, the result is `[B, T, N, out]`.
    fn forward(&self, tape: &Tape, x: &Tensor) -> Var;

    /// Forward pass over a **dynamic** graph: one diffusion-support set per
    /// input step (§7 "dynamic graphs with temporal signal"). Models whose
    /// topology is baked in ignore the per-step supports and fall back to
    /// the static [`Seq2Seq::forward`]; DCRNN-family models override this
    /// to swap diffusion operators per step while sharing gate weights.
    fn forward_dynamic(&self, tape: &Tape, x: &Tensor, per_step: &[&[crate::Support]]) -> Var {
        let _ = per_step;
        self.forward(tape, x)
    }

    /// Forward pass **without autograd**: runs the same computation as
    /// [`Seq2Seq::forward`] on a non-recording [`Tape::inference`], so no
    /// graph node or backward closure is allocated and no activation is
    /// retained. Values are bit-identical to the training-tape forward —
    /// the property the serving layer's snapshot round-trip tests pin.
    fn forward_inference(&self, x: &Tensor) -> Tensor {
        let tape = Tape::inference();
        self.forward(&tape, x).value().clone()
    }

    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Estimated FLOPs for one *forward* pass over a batch of shape
    /// `[batch, horizon, nodes, ·]`. One training step costs ≈3× this
    /// (forward + backward). Drives the paper-scale runtime projection.
    fn flops_per_forward(&self, batch: usize) -> f64;
}

/// A borrowed forecaster forwards every call to the model it borrows —
/// `engine::run_single` can then train a model its caller keeps.
impl<M: Seq2Seq + ?Sized> Seq2Seq for &M {
    fn forward(&self, tape: &Tape, x: &Tensor) -> Var {
        (**self).forward(tape, x)
    }

    fn forward_dynamic(&self, tape: &Tape, x: &Tensor, per_step: &[&[crate::Support]]) -> Var {
        (**self).forward_dynamic(tape, x, per_step)
    }

    fn forward_inference(&self, x: &Tensor) -> Tensor {
        (**self).forward_inference(x)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn flops_per_forward(&self, batch: usize) -> f64 {
        (**self).flops_per_forward(batch)
    }
}

/// Validate the standard input shape, panicking with a clear message.
pub fn check_input(x: &Tensor, cfg: &ModelConfig, model: &str) {
    assert_eq!(x.rank(), 4, "{model}: input must be [B, T, N, F]");
    assert_eq!(x.dim(1), cfg.horizon, "{model}: horizon mismatch");
    assert_eq!(x.dim(2), cfg.num_nodes, "{model}: node count mismatch");
    assert_eq!(x.dim(3), cfg.input_dim, "{model}: feature dim mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_have_expected_defaults() {
        let s = ModelConfig::small(10, 2, 12);
        assert_eq!(s.hidden, 16);
        let p = ModelConfig::paper(11_160, 2, 12);
        assert_eq!(p.hidden, 64);
        assert_eq!(p.layers, 2);
    }

    #[test]
    #[should_panic(expected = "horizon mismatch")]
    fn check_input_catches_bad_horizon() {
        let cfg = ModelConfig::small(4, 1, 12);
        let x = Tensor::zeros([2, 6, 4, 1]);
        check_input(&x, &cfg, "test");
    }
}
