//! Index-batching over **dynamic graphs with temporal signal** (§7).
//!
//! The paper's conclusion names this the first planned extension: PGT's
//! `DynamicGraphTemporalSignal`, where edge weights evolve alongside node
//! features. Index-batching generalizes cleanly because *both* halves of a
//! snapshot are index-addressed:
//!
//! - features: zero-copy views `data[s .. s+h]` / `data[s+h .. s+2h]`,
//!   exactly as in the static [`IndexDataset`](crate::IndexDataset);
//! - topology: the per-entry diffusion supports are computed **once per
//!   time entry** and shared by every overlapping window — a materializing
//!   pipeline would replicate each entry's supports into `horizon`
//!   windows, the same eq.-(1) blow-up the paper eliminates for features.
//!
//! Training uses [`PgtDcrnn::forward_dynamic`], which swaps the diffusion
//! operators per step while sharing gate weights across time.

use crate::dist_index::DistConfig;
use std::sync::Arc;

use st_data::dynamic::DynamicGraphTemporalSignal;
use st_data::preprocess::num_snapshots;
use st_data::scaler::StandardScaler;
use st_data::splits::{SplitIndices, SplitRatios};
use st_data::storage::{RowStore, SignalStorage, StorageSpec};
use st_graph::partition::incremental::{
    GraphDelta, IncrementalConfig, IncrementalPartitioner, RepartitionPolicy, SparseGraph,
};
use st_graph::{diffusion_supports, HaloCostModel, PartitionerKind, Partitioning};
use st_models::{ModelConfig, PgtDcrnn, Support};
use st_tensor::Tensor;

/// Index-batched dataset over a dynamic-topology signal.
pub struct DynamicIndexDataset {
    /// Single standardized feature copy `[E, N, F]` — dense in RAM or
    /// out-of-core chunks, per the construction-time [`StorageSpec`].
    store: SignalStorage,
    /// Diffusion supports per time entry (one set per entry, shared by all
    /// windows that touch the entry).
    supports: Vec<Vec<Support>>,
    horizon: usize,
    scaler: StandardScaler,
    splits: SplitIndices,
}

impl DynamicIndexDataset {
    /// Build from a dynamic signal: fit the scaler on the training prefix,
    /// standardize the single feature copy, and compute per-entry supports.
    pub fn from_signal(
        signal: &DynamicGraphTemporalSignal,
        horizon: usize,
        ratios: SplitRatios,
        diffusion_steps: usize,
    ) -> Self {
        Self::from_signal_spec(
            signal,
            horizon,
            ratios,
            diffusion_steps,
            StorageSpec::InMemory,
        )
    }

    /// [`DynamicIndexDataset::from_signal`] with an explicit storage
    /// backend for the standardized feature copy. The dynamic signal's
    /// source tensor stays dense (its per-entry adjacencies dominate it
    /// anyway); `spec` bounds what the *dataset* keeps resident.
    pub fn from_signal_spec(
        signal: &DynamicGraphTemporalSignal,
        horizon: usize,
        ratios: SplitRatios,
        diffusion_steps: usize,
        spec: StorageSpec,
    ) -> Self {
        let s = num_snapshots(signal.entries(), horizon);
        assert!(s > 0, "signal too short for horizon {horizon}");
        let splits = ratios.split(s);
        let train_entries = (splits.train.end + 2 * horizon - 1).min(signal.entries());
        let train_view = signal
            .data
            .narrow(0, 0, train_entries)
            .expect("prefix in range");
        let scaler = StandardScaler::fit(&train_view);
        let data = scaler.transform(&signal.data);
        let supports = signal
            .adjacencies
            .iter()
            .map(|adj| Support::wrap_all(diffusion_supports(adj, diffusion_steps)))
            .collect();
        DynamicIndexDataset {
            store: SignalStorage::from_tensor_spec(data, spec),
            supports,
            horizon,
            scaler,
            splits,
        }
    }

    /// The dense standardized tensor (in-memory storage only; panics for
    /// chunked datasets — use [`DynamicIndexDataset::snapshot`]).
    pub fn data(&self) -> &Tensor {
        self.store.dense()
    }

    /// True when the feature copy streams from out-of-core chunks.
    pub fn is_chunked(&self) -> bool {
        self.store.is_chunked()
    }

    /// Number of `(x, y)` snapshot pairs.
    pub fn num_snapshots(&self) -> usize {
        num_snapshots(self.store.rows(), self.horizon)
    }

    /// Split ranges.
    pub fn splits(&self) -> &SplitIndices {
        &self.splits
    }

    /// The fitted scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Window length.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.store.dims()[1]
    }

    /// Node features.
    pub fn num_features(&self) -> usize {
        self.store.dims()[2]
    }

    /// Snapshot `i`: `(x, y)` feature windows (zero-copy views in memory,
    /// streamed reads out-of-core) plus the borrowed per-step support sets
    /// for the x window.
    pub fn snapshot(&self, i: usize) -> (Tensor, Tensor, Vec<&[Support]>) {
        let (x, y, _) = self.snapshot_quoted(i);
        (x, y, self.supports_for(i))
    }

    /// [`DynamicIndexDataset::snapshot`] minus the supports, plus the chunk
    /// IO bytes this window's reads actually touched (0 in memory or on a
    /// warm cache).
    pub fn snapshot_quoted(&self, i: usize) -> (Tensor, Tensor, u64) {
        let h = self.horizon;
        match &self.store {
            SignalStorage::InMemory(data) => {
                let x = data
                    .narrow(0, i, h)
                    .expect("window in range")
                    .unsqueeze(0)
                    .expect("add batch dim");
                let y = data
                    .narrow(0, i + h, h)
                    .expect("label window in range")
                    .unsqueeze(0)
                    .expect("add batch dim");
                (x, y, 0)
            }
            store => {
                // One contiguous read covers both windows (they abut).
                let (rows, io) = store.read_rows_quoted(i..i + 2 * h);
                let x = rows
                    .narrow(0, 0, h)
                    .expect("x window")
                    .unsqueeze(0)
                    .expect("add batch dim")
                    .contiguous();
                let y = rows
                    .narrow(0, h, h)
                    .expect("y window")
                    .unsqueeze(0)
                    .expect("add batch dim")
                    .contiguous();
                (x, y, io)
            }
        }
    }

    /// The borrowed per-step support sets of window `i` alone (no feature
    /// views) — one slice per step, each shared by every window touching
    /// the entry.
    pub fn supports_for(&self, i: usize) -> Vec<&[Support]> {
        self.supports[i..i + self.horizon]
            .iter()
            .map(|s| s.as_slice())
            .collect()
    }

    /// Resident bytes of the index layout (features f32 + support CSRs +
    /// window bookkeeping) — the dynamic analogue of eq. (2).
    pub fn resident_bytes(&self) -> u64 {
        let features = self.store.resident_bytes();
        let supports: u64 = self
            .supports
            .iter()
            .flat_map(|per_entry| per_entry.iter())
            .map(|s| s.mat.approx_bytes() as u64)
            .sum();
        features + supports + self.num_snapshots() as u64 * 8
    }

    /// What a materializing pipeline would hold instead: every window's
    /// features duplicated twice (eq. 1) *and* every window's per-step
    /// support list replicated.
    pub fn materialized_bytes(&self) -> u64 {
        let s = self.num_snapshots() as u64;
        let h = self.horizon as u64;
        let row = (self.store.row_width() * 4) as u64;
        let features = 2 * s * h * row;
        let per_entry_supports: u64 = self
            .supports
            .iter()
            .flat_map(|p| p.iter())
            .map(|sp| sp.mat.approx_bytes() as u64)
            .sum::<u64>()
            / self.supports.len().max(1) as u64;
        let supports = s * h * per_entry_supports;
        features + supports
    }
}

/// One segment of a dynamic graph's partition timeline: the partitioning
/// in force from [`TimelinePartition::start_entry`] until the next graph
/// mutation re-partitions.
#[derive(Debug, Clone)]
pub struct TimelinePartition {
    /// First time entry this partitioning covers.
    pub start_entry: usize,
    /// The partitioning of the graph as of `start_entry`. `Arc`'d so
    /// segments whose repair moved nothing *share* one allocation instead
    /// of cloning a full assignment per mutation.
    pub partitioning: Arc<Partitioning>,
    /// Modeled halo bytes of this segment's split under the run's
    /// [`HaloCostModel`] — what a partition-parallel consumer would pay
    /// per boundary while this topology holds.
    pub halo_bytes: u64,
}

/// Partition a dynamic signal's timeline with the configured partitioner:
/// entry 0's graph is partitioned up front, and every entry whose
/// adjacency differs from its predecessor's (a **graph mutation**)
/// triggers a re-partition — static stretches reuse the segment's split,
/// exactly as the per-entry diffusion supports are shared by every window
/// touching an entry.
///
/// This is the legacy [`RepartitionPolicy::Full`] path of
/// [`partition_timeline_with`]: every mutation runs the partitioner from
/// scratch.
pub fn partition_timeline(
    signal: &DynamicGraphTemporalSignal,
    k: usize,
    kind: PartitionerKind,
    horizon: usize,
) -> Vec<TimelinePartition> {
    partition_timeline_with(signal, k, kind, horizon, RepartitionPolicy::Full)
}

/// [`partition_timeline`] with an explicit [`RepartitionPolicy`].
///
/// Mutation detection is O(1) per entry for frozen stretches: consecutive
/// adjacencies are compared via [`st_graph::Adjacency::same_topology`]
/// (shared-buffer pointer equality, then a cached fingerprint) instead of
/// the historical full weight-array scan.
///
/// Under [`RepartitionPolicy::Incremental`], entry 0 still runs the
/// configured partitioner from scratch; every later mutation is turned
/// into a [`GraphDelta`] and *repaired* by an [`IncrementalPartitioner`]
/// (dirty-boundary refinement, drift-bounded fallback) instead of
/// re-running the full solve. Segments whose repair changed no assignment
/// share the previous segment's `Arc<Partitioning>`.
pub fn partition_timeline_with(
    signal: &DynamicGraphTemporalSignal,
    k: usize,
    kind: PartitionerKind,
    horizon: usize,
    policy: RepartitionPolicy,
) -> Vec<TimelinePartition> {
    assert!(k > 0, "need at least one part");
    let cost = HaloCostModel::new(horizon.max(1), signal.data.dim(2));
    let mut segments: Vec<TimelinePartition> = Vec::new();
    let mut inc: Option<IncrementalPartitioner> = None;
    for (t, adj) in signal.adjacencies.iter().enumerate() {
        let mutated = t == 0 || !adj.same_topology(&signal.adjacencies[t - 1]);
        if !mutated {
            continue;
        }
        match (policy, inc.as_mut()) {
            (RepartitionPolicy::Full, _) => {
                let partitioning = kind.partition(adj, None, k, horizon);
                let halo_bytes = cost.halo_bytes(adj, &partitioning);
                segments.push(TimelinePartition {
                    start_entry: t,
                    partitioning: Arc::new(partitioning),
                    halo_bytes,
                });
            }
            (RepartitionPolicy::Incremental { .. }, None) => {
                let partitioning = kind.partition(adj, None, k, horizon);
                let ip = IncrementalPartitioner::seed(
                    SparseGraph::from_adjacency(adj),
                    &partitioning,
                    IncrementalConfig::from_policy(policy, cost),
                );
                segments.push(TimelinePartition {
                    start_entry: t,
                    halo_bytes: ip.halo_bytes(),
                    partitioning: Arc::new(partitioning),
                });
                inc = Some(ip);
            }
            (RepartitionPolicy::Incremental { .. }, Some(ip)) => {
                let delta = GraphDelta::between(&signal.adjacencies[t - 1], adj);
                let stats = ip.apply_delta(&delta);
                let prev = segments.last().expect("seeded at the first mutation");
                let partitioning = if stats.moves == 0 && !stats.rebuilt {
                    Arc::clone(&prev.partitioning)
                } else {
                    Arc::new(ip.partitioning())
                };
                segments.push(TimelinePartition {
                    start_entry: t,
                    partitioning,
                    halo_bytes: stats.halo_bytes,
                });
            }
        }
    }
    segments
}

/// The dynamic-graph values a [`DistConfig`] does not carry: the model
/// shape and the partition timeline. Everything else (epochs, lr, seed,
/// clip, horizon, storage, partitioner) comes from the run's
/// [`DistConfig`].
#[derive(Debug, Clone)]
pub struct DynamicTrainConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Diffusion steps K.
    pub diffusion_steps: usize,
    /// Spatial parts the partition timeline tracks (1 = unpartitioned; the
    /// single-worker trainer itself is unchanged — the timeline prices
    /// what a `parts`-way partition-parallel deployment would pay as the
    /// topology mutates).
    pub parts: usize,
    /// How the timeline reacts to graph mutations: re-solve from scratch
    /// ([`RepartitionPolicy::Full`], the bit-identical legacy path) or
    /// repair the previous split around the dirty boundary
    /// ([`RepartitionPolicy::Incremental`]).
    pub repartition: RepartitionPolicy,
}

impl Default for DynamicTrainConfig {
    fn default() -> Self {
        DynamicTrainConfig {
            hidden: 8,
            diffusion_steps: 2,
            parts: 1,
            repartition: RepartitionPolicy::Full,
        }
    }
}

/// Per-epoch record of a dynamic-graph run.
#[derive(Debug, Clone, Copy)]
pub struct DynamicEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training MAE (standardized).
    pub train_loss: f32,
    /// Validation MAE (original units).
    pub val_mae: f32,
}

/// The §7 dynamic-graph data plane: zero-copy feature windows plus
/// per-entry diffusion supports, visited one window at a time (each window
/// carries its own support sequence, so samples with different topology
/// cannot share a fused batch — the same constraint PGT's dynamic-signal
/// iterators have). Single-worker and model-independent
/// (`sync_gradients = false`), with the forward routed through
/// [`st_models::Seq2Seq::forward_dynamic`] so per-step operators come from
/// the dataset at runtime.
pub struct DynamicPlane {
    ds: DynamicIndexDataset,
    seed: u64,
    timeline: Vec<TimelinePartition>,
    cost: st_device::CostModel,
}

impl DynamicPlane {
    /// Wrap a dynamic dataset with an empty partition timeline.
    pub fn new(ds: DynamicIndexDataset, seed: u64) -> Self {
        DynamicPlane {
            ds,
            seed,
            timeline: Vec::new(),
            cost: st_device::CostModel::polaris(),
        }
    }

    /// Wrap a dynamic dataset plus the [`partition_timeline`] the
    /// configured partitioner produced: the plane re-partitions (segment
    /// boundaries) exactly where the graph mutates. `cm` prices chunk IO
    /// when the dataset streams from out-of-core storage.
    pub fn with_partition_timeline(
        ds: DynamicIndexDataset,
        seed: u64,
        timeline: Vec<TimelinePartition>,
        cm: &st_device::CostModel,
    ) -> Self {
        DynamicPlane {
            ds,
            seed,
            timeline,
            cost: cm.clone(),
        }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &DynamicIndexDataset {
        &self.ds
    }

    /// The partition timeline (empty when the plane was built without a
    /// partitioner).
    pub fn partition_timeline(&self) -> &[TimelinePartition] {
        &self.timeline
    }

    /// Graph mutations that forced a re-partition.
    pub fn repartitions(&self) -> usize {
        self.timeline.len().saturating_sub(1)
    }

    /// The partitioning in force at time `entry`, if a timeline exists.
    pub fn partitioning_at(&self, entry: usize) -> Option<&Partitioning> {
        self.timeline
            .iter()
            .rev()
            .find(|s| s.start_entry <= entry)
            .map(|s| s.partitioning.as_ref())
    }
}

impl crate::engine::DistDataPlane for DynamicPlane {
    fn rounds_per_epoch(&self) -> usize {
        self.ds.splits().train.len()
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let train = self.ds.splits().train.clone();
        st_tensor::random::permutation(train.len(), self.seed, epoch)
            .into_iter()
            .map(|idx| vec![train.start + idx])
            .collect()
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        self.ds.splits().val.clone().map(|i| vec![i]).collect()
    }

    fn fetch_batch(&self, ids: &[usize]) -> crate::engine::Fetch {
        assert_eq!(ids.len(), 1, "dynamic windows cannot share a fused batch");
        let (x, y, io_bytes) = self.ds.snapshot_quoted(ids[0]);
        let secs = if io_bytes > 0 {
            self.cost.pfs_read(io_bytes, 1.0)
        } else {
            0.0
        };
        crate::engine::Fetch { x, y, secs }
    }

    fn remote(&self) -> bool {
        // Out-of-core windows carry modeled disk time; let the engine's
        // prefetcher hide it behind compute.
        self.ds.is_chunked()
    }

    fn sync_gradients(&self) -> bool {
        false
    }

    fn scaler_std(&self) -> f32 {
        self.ds.scaler().std
    }

    fn forward(
        &self,
        model: &dyn st_models::Seq2Seq,
        tape: &st_autograd::Tape,
        ids: &[usize],
        x: &st_tensor::Tensor,
    ) -> st_autograd::Var {
        model.forward_dynamic(tape, x, &self.ds.supports_for(ids[0]))
    }
}

/// Train a PGT-DCRNN over a dynamic signal with index-batching, via the
/// unified engine as a one-rank world.
///
/// `cfg` supplies epochs, lr, seed, clip, horizon, storage and the
/// partitioner the timeline runs at entry 0 and (under
/// [`RepartitionPolicy::Full`]) at every mutation; `dynamic` the rest.
/// Every step trains on one window — windows with different topology
/// cannot share a fused batch — so `cfg.batch_per_worker` is not read.
/// Panics unless `cfg.world == 1`, and on a `cfg.time_period`: dynamic
/// signals carry no time-of-day feature.
pub fn train_dynamic(
    signal: &DynamicGraphTemporalSignal,
    cfg: &DistConfig,
    dynamic: &DynamicTrainConfig,
) -> (PgtDcrnn, Vec<DynamicEpochStats>) {
    assert_eq!(cfg.world, 1, "dynamic-graph training runs on one worker");
    assert!(
        cfg.time_period.is_none(),
        "dynamic-graph training has no time-of-day feature"
    );
    let horizon = cfg.horizon;
    let ds = DynamicIndexDataset::from_signal_spec(
        signal,
        horizon,
        SplitRatios::default(),
        dynamic.diffusion_steps,
        cfg.storage,
    );
    let std = ds.scaler().std;
    let cfg = DistConfig {
        batch_per_worker: 1,
        ..cfg.clone()
    };
    // Re-partition with the configured partitioner at every graph
    // mutation: the plane carries the timeline so partition-parallel
    // consumers can price each topology segment's halo. With the default
    // `parts = 1` there is nothing to split and nothing to price — skip
    // the per-entry adjacency scans entirely.
    let timeline = if dynamic.parts > 1 {
        partition_timeline_with(
            signal,
            dynamic.parts,
            cfg.partitioner,
            horizon,
            dynamic.repartition,
        )
    } else {
        Vec::new()
    };

    let (report, model) =
        crate::engine::run_single(&cfg, &crate::engine::EngineOptions::default(), move |cm| {
            let model = PgtDcrnn::new(
                ModelConfig {
                    input_dim: ds.num_features(),
                    output_dim: 1,
                    hidden: dynamic.hidden,
                    num_nodes: ds.num_nodes(),
                    horizon,
                    diffusion_steps: dynamic.diffusion_steps,
                    layers: 1,
                },
                // Initial supports only fix the weight layout (support
                // count); the per-step operators come from the dataset at
                // runtime through the plane's forward hook.
                &ds.supports[0],
                cfg.seed,
            );
            (
                DynamicPlane::with_partition_timeline(ds, cfg.seed, timeline, cm),
                model,
            )
        })
        .expect("engine run without resume cannot fail");
    // Rebuild original-unit validation MAE from the engine's raw f64 sums
    // (the rank-uniform f32 gather path rounds differently than the
    // historical single-worker formula).
    let stats = report
        .epochs
        .iter()
        .zip(report.rank_val[0].iter())
        .map(|(e, &(abs_sum, n))| DynamicEpochStats {
            epoch: e.epoch,
            train_loss: e.train_loss,
            val_mae: (abs_sum / n.max(1) as f64) as f32 * std,
        })
        .collect();
    (model, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::dynamic::synthetic_dynamic_traffic;

    fn ds() -> DynamicIndexDataset {
        let sig = synthetic_dynamic_traffic(6, 60, 5);
        DynamicIndexDataset::from_signal(&sig, 4, SplitRatios::default(), 2)
    }

    #[test]
    fn snapshot_shapes_and_support_borrowing() {
        let d = ds();
        let (x, y, sup) = d.snapshot(3);
        assert_eq!(x.dims(), &[1, 4, 6, 1]);
        assert_eq!(y.dims(), &[1, 4, 6, 1]);
        assert_eq!(sup.len(), 4);
        // Supports are borrowed from the per-entry store, not cloned:
        // entry 4 appears in windows 1..=4 and is the same allocation.
        let (_, _, sup_b) = d.snapshot(4);
        assert!(
            std::ptr::eq(sup[1], sup_b[0]),
            "entry 4 shared by windows 3 and 4"
        );
    }

    #[test]
    fn feature_views_are_zero_copy() {
        let d = ds();
        let (x, _, _) = d.snapshot(0);
        assert!(x.shares_storage(d.data()), "x must be a view");
    }

    #[test]
    fn standardization_uses_train_prefix() {
        let d = ds();
        // Standardized training data has ≈0 mean.
        let train_view = d.data().narrow(0, 0, d.splits().train.end).unwrap();
        let vals = train_view.to_vec();
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn index_layout_beats_materialization() {
        let d = ds();
        assert!(
            d.resident_bytes() * 2 < d.materialized_bytes(),
            "index {} vs materialized {}",
            d.resident_bytes(),
            d.materialized_bytes()
        );
    }

    #[test]
    fn mutations_trigger_repartitioning_and_static_graphs_do_not() {
        // synthetic_dynamic_traffic modulates edge weights every entry, so
        // every entry is a mutation: one segment per entry.
        let sig = synthetic_dynamic_traffic(6, 20, 5);
        let segments = partition_timeline(&sig, 2, PartitionerKind::Multilevel, 4);
        assert_eq!(segments.len(), 20, "every mutation re-partitions");
        for s in &segments {
            assert_eq!(s.partitioning.num_parts(), 2);
            assert_eq!(s.partitioning.part_sizes().iter().sum::<usize>(), 6);
        }

        // A frozen topology never re-partitions.
        let frozen =
            DynamicGraphTemporalSignal::new(sig.data.clone(), vec![sig.adjacencies[0].clone(); 20]);
        let segments = partition_timeline(&frozen, 2, PartitionerKind::Multilevel, 4);
        assert_eq!(segments.len(), 1, "static topology keeps one partition");
        assert_eq!(segments[0].start_entry, 0);
        assert!(segments[0].halo_bytes > 0, "a 2-way split cuts something");
    }

    #[test]
    fn incremental_timeline_matches_segment_structure_and_shares_arcs() {
        let sig = synthetic_dynamic_traffic(6, 20, 5);
        let full = partition_timeline(&sig, 2, PartitionerKind::Multilevel, 4);
        let inc = partition_timeline_with(
            &sig,
            2,
            PartitionerKind::Multilevel,
            4,
            RepartitionPolicy::incremental(),
        );
        // Same mutation boundaries; entry 0 is the same dense solve.
        assert_eq!(inc.len(), full.len());
        assert_eq!(
            inc[0].partitioning.assignment(),
            full[0].partitioning.assignment(),
            "entry 0 seeds from the configured partitioner"
        );
        for (a, b) in inc.iter().zip(&full) {
            assert_eq!(a.start_entry, b.start_entry);
            assert_eq!(a.partitioning.num_parts(), 2);
            assert_eq!(a.partitioning.part_sizes().iter().sum::<usize>(), 6);
        }
        // Weight-only churn moves nothing on this tiny corridor, so the
        // repaired segments share the seed's allocation.
        assert!(
            inc.windows(2)
                .any(|w| Arc::ptr_eq(&w[0].partitioning, &w[1].partitioning)),
            "no-move repairs must share Arc'd partitionings"
        );
    }

    #[test]
    fn incremental_policy_trains_like_full() {
        let sig = synthetic_dynamic_traffic(6, 80, 7);
        let cfg = DistConfig::new(1, 2, 4);
        let full = DynamicTrainConfig {
            parts: 2,
            ..Default::default()
        };
        let inc = DynamicTrainConfig {
            repartition: RepartitionPolicy::incremental(),
            ..full.clone()
        };
        let (_, full_stats) = train_dynamic(&sig, &cfg, &full);
        let (_, inc_stats) = train_dynamic(&sig, &cfg, &inc);
        // The timeline prices partition-parallel halo; the single-worker
        // trajectory itself is identical under either policy.
        for (f, i) in full_stats.iter().zip(&inc_stats) {
            assert_eq!(f.train_loss, i.train_loss);
            assert_eq!(f.val_mae, i.val_mae);
        }
    }

    #[test]
    fn plane_carries_the_timeline_through_training() {
        let sig = synthetic_dynamic_traffic(6, 60, 5);
        let ds = DynamicIndexDataset::from_signal(&sig, 4, SplitRatios::default(), 2);
        let timeline = partition_timeline(&sig, 2, PartitionerKind::Multilevel, 4);
        let plane = DynamicPlane::with_partition_timeline(
            ds,
            1,
            timeline,
            &st_device::CostModel::polaris(),
        );
        assert_eq!(plane.repartitions(), 59);
        let p = plane.partitioning_at(7).expect("timeline covers entry 7");
        assert_eq!(p.num_parts(), 2);
        // Plain construction carries no timeline.
        let plane = DynamicPlane::new(
            DynamicIndexDataset::from_signal(&sig, 4, SplitRatios::default(), 2),
            1,
        );
        assert!(plane.partition_timeline().is_empty());
        assert_eq!(plane.repartitions(), 0);
        assert!(plane.partitioning_at(0).is_none());
    }

    #[test]
    #[should_panic(expected = "one worker")]
    fn dynamic_training_refuses_a_multi_worker_config() {
        let sig = synthetic_dynamic_traffic(6, 60, 5);
        train_dynamic(&sig, &DistConfig::new(2, 1, 4), &Default::default());
    }

    #[test]
    #[should_panic(expected = "no time-of-day feature")]
    fn dynamic_training_refuses_a_time_period() {
        let sig = synthetic_dynamic_traffic(6, 60, 5);
        let mut cfg = DistConfig::new(1, 1, 4);
        cfg.time_period = Some(5);
        train_dynamic(&sig, &cfg, &Default::default());
    }

    #[test]
    fn dynamic_training_learns() {
        let sig = synthetic_dynamic_traffic(6, 80, 7);
        let cfg = DistConfig::new(1, 3, 4);
        let (_, stats) = train_dynamic(&sig, &cfg, &DynamicTrainConfig::default());
        assert_eq!(stats.len(), 3);
        let first = stats.first().unwrap().train_loss;
        let last = stats.last().unwrap().train_loss;
        assert!(
            last < first,
            "dynamic-graph loss must fall: {first} -> {last}"
        );
        assert!(stats.last().unwrap().val_mae.is_finite());
    }
}
