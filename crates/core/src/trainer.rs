//! Single-worker training (PGT workflow, §5.1) on the shared engine.
//!
//! A [`BatchSource`] is batching-agnostic: standard (materialized) batching
//! and index-batching both implement it — the apples-to-apples setup
//! behind Table 3 and Fig. 5. [`SourcePlane`] trains over any source as a
//! world of one through [`engine::run_single`], so single-worker and
//! distributed runs share one epoch loop. [`evaluate`] reports MAE in
//! original (un-standardized) units, like the paper.

use crate::dist_index::DistConfig;
use crate::engine::{self, DistDataPlane, Fetch, StepLoop};
use crate::index_batching::IndexDataset;
use st_data::preprocess::PreprocessOutput;
use st_data::scaler::StandardScaler;
use st_data::splits::SplitIndices;
use st_models::Seq2Seq;
use st_tensor::Tensor;

/// Anything that can produce `(x, y)` minibatches from snapshot ids.
pub trait BatchSource {
    /// Total snapshots.
    fn num_snapshots(&self) -> usize;
    /// Train/val/test snapshot ranges.
    fn splits(&self) -> &SplitIndices;
    /// Assemble `[B, h, N, F]` x and y batches.
    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor);
    /// The fitted scaler (for original-unit metrics).
    fn scaler(&self) -> &StandardScaler;
}

impl BatchSource for IndexDataset {
    fn num_snapshots(&self) -> usize {
        IndexDataset::num_snapshots(self)
    }

    fn splits(&self) -> &SplitIndices {
        IndexDataset::splits(self)
    }

    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        self.batch(indices)
    }

    fn scaler(&self) -> &StandardScaler {
        IndexDataset::scaler(self)
    }
}

/// Standard-batching source over Algorithm-1 materialized arrays.
pub struct MaterializedDataset {
    out: PreprocessOutput,
}

impl MaterializedDataset {
    /// Wrap a preprocessing result.
    pub fn new(out: PreprocessOutput) -> Self {
        MaterializedDataset { out }
    }
}

impl BatchSource for MaterializedDataset {
    fn num_snapshots(&self) -> usize {
        self.out.x.dim(0)
    }

    fn splits(&self) -> &SplitIndices {
        &self.out.splits
    }

    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        (
            self.out.x.index_select0(indices).expect("ids in range"),
            self.out.y.index_select0(indices).expect("ids in range"),
        )
    }

    fn scaler(&self) -> &StandardScaler {
        &self.out.scaler
    }
}

/// The world-of-one data plane over any [`BatchSource`]: each epoch walks
/// the whole train split in [`engine::batcher_plan`] order, validates the
/// whole val split in order, and trains its model alone (no gradient
/// synchronization). Batch size and seed come from the [`DistConfig`];
/// the engine takes lr, clip and epochs from the same config.
///
/// ```
/// use pgt_index::dist_index::DistConfig;
/// use pgt_index::engine::{run_single, EngineOptions};
/// use pgt_index::trainer::SourcePlane;
/// use pgt_index::IndexDataset;
/// use st_data::datasets::{DatasetKind, DatasetSpec};
/// use st_data::splits::SplitRatios;
/// use st_graph::diffusion_supports;
/// use st_models::{ModelConfig, PgtDcrnn, Support};
///
/// let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
/// let sig = st_data::synthetic::generate(&spec, 11);
/// let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
/// let supports = Support::wrap_all(diffusion_supports(&sig.adjacency, 2));
/// let model = PgtDcrnn::new(
///     ModelConfig {
///         input_dim: 1, output_dim: 1, hidden: 4, num_nodes: ds.num_nodes(),
///         horizon: spec.horizon, diffusion_steps: 2, layers: 1,
///     },
///     &supports,
///     7,
/// );
/// let cfg = DistConfig::new(1, 2, spec.horizon);
/// // Train the caller's model in place: a borrowed model is a model.
/// let (report, _) = run_single(&cfg, &EngineOptions::default(), |_cm| {
///     (SourcePlane::new(&ds, &cfg), &model)
/// })
/// .expect("no resume bytes to reject");
/// assert_eq!(report.epochs.len(), 2);
/// assert!(report.epochs[1].val_mae.is_finite());
/// ```
pub struct SourcePlane<'a> {
    source: &'a dyn BatchSource,
    batch: usize,
    seed: u64,
}

impl<'a> SourcePlane<'a> {
    /// Plan over `source` with `cfg`'s per-worker batch size and seed.
    pub fn new(source: &'a dyn BatchSource, cfg: &DistConfig) -> Self {
        SourcePlane {
            source,
            batch: cfg.batch_per_worker,
            seed: cfg.seed,
        }
    }
}

impl DistDataPlane for SourcePlane<'_> {
    fn rounds_per_epoch(&self) -> usize {
        self.source.splits().train.len().div_ceil(self.batch.max(1))
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        engine::batcher_plan(
            self.source.splits().train.clone(),
            self.seed,
            epoch,
            self.batch,
        )
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        engine::chunk_ids(self.source.splits().val.clone().collect(), self.batch)
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let (x, y) = self.source.get_batch(ids);
        Fetch { x, y, secs: 0.0 }
    }

    fn sync_gradients(&self) -> bool {
        false
    }

    fn scaler_std(&self) -> f32 {
        self.source.scaler().std
    }
}

/// MAE of `model` over a snapshot `range` of `source`, in original units,
/// evaluated `batch` snapshots at a time. The error sum and count reduce
/// in f64 before the one conversion to f32.
pub fn evaluate<M: Seq2Seq + ?Sized>(
    model: &M,
    source: &dyn BatchSource,
    range: std::ops::Range<usize>,
    batch: usize,
) -> f32 {
    let ids: Vec<usize> = range.collect();
    if ids.is_empty() {
        return f32::NAN;
    }
    let step = StepLoop { grad_clip: None };
    let mut abs_sum = 0.0f64;
    let mut count = 0usize;
    for chunk in ids.chunks(batch.max(1)) {
        let (x, y) = source.get_batch(chunk);
        let (a, c) = step.val_batch(|tape| model.forward(tape, &x), &y, |p, t| (p, t));
        abs_sum += a;
        count += c;
    }
    // Standardized MAE × σ = MAE in original units.
    (abs_sum / count.max(1) as f64) as f32 * source.scaler().std
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_single, EngineOptions, EngineReport};
    use crate::workflow::pgt_dcrnn;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::splits::SplitRatios;
    use st_data::synthetic;
    use st_models::PgtDcrnn;

    fn setup() -> (PgtDcrnn, IndexDataset) {
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
        let sig = synthetic::generate(&spec, 11);
        let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
        (pgt_dcrnn(&sig, ds.num_features(), spec.horizon, 8, 3), ds)
    }

    fn train(model: &PgtDcrnn, ds: &IndexDataset, epochs: usize) -> EngineReport {
        let mut cfg = DistConfig::new(1, epochs, ds.horizon());
        cfg.batch_per_worker = 8;
        run_single(&cfg, &EngineOptions::default(), |_| {
            (SourcePlane::new(ds, &cfg), model)
        })
        .expect("no resume")
        .0
    }

    #[test]
    fn training_loss_decreases() {
        let (model, ds) = setup();
        let r = train(&model, &ds, 6);
        assert_eq!(r.epochs.len(), 6);
        let first = r.epochs.first().unwrap().train_loss;
        let last = r.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss must decrease: {first} -> {last}");
        assert!(r.epochs.iter().all(|e| e.val_mae.is_finite()));
    }

    #[test]
    fn index_and_materialized_sources_agree_per_batch() {
        // Same snapshots, same model ⇒ identical losses from either source
        // modulo standardization fit (verified separately); here we check
        // the materialized wrapper produces the right shapes and range.
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
        let sig = synthetic::generate(&spec, 11);
        let out = st_data::preprocess::materialized_xy(&sig, spec.horizon, SplitRatios::default());
        let mat = MaterializedDataset::new(out);
        let (x, y) = mat.get_batch(&[0, 1, 2]);
        assert_eq!(x.dims()[0], 3);
        assert_eq!(y.dims(), x.dims());
        assert_eq!(
            mat.num_snapshots(),
            st_data::preprocess::num_snapshots(spec.entries, spec.horizon)
        );
    }

    #[test]
    fn evaluate_returns_original_units() {
        let (model, ds) = setup();
        let mae = evaluate(&model, &ds, ds.splits().val.clone(), 32);
        assert!(mae.is_finite() && mae >= 0.0);
        // Untrained model on case-count data: MAE should be on the order of
        // the data's std, not the standardized ~1.
        assert!(mae > 0.01);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (model, ds) = setup();
            train(&model, &ds, 2).epochs[1].train_loss.to_bits()
        };
        assert_eq!(run(), run());
    }
}
