//! Engine-equivalence goldens.
//!
//! Per-epoch losses captured from the **pre-refactor inline epoch loops**
//! (the six hand-copied loops that predated `pgt_index::engine`, and the
//! single-worker loop retired later), at fixed seeds, after the
//! ragged-`global_stripe` fix. The ported `DistDataPlane` implementations
//! must reproduce them **bit-for-bit**: the engine refactor moved code,
//! not numerics.
//!
//! If an intentional numerics change ever lands (new shuffle, new loss),
//! re-capture these by printing `train_loss`/`val_mae` from the runners at
//! the configs below.

use pgt_i::autograd::schedule::MultiStepLr;
use pgt_i::autograd::Module;
use pgt_i::core::baseline_ddp::run_baseline_ddp;
use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::dynamic_index::{train_dynamic, DynamicTrainConfig};
use pgt_i::core::engine::{self, EngineOptions};
use pgt_i::core::gen_dist_index::run_generalized;
use pgt_i::core::partitioned::run_partitioned;
use pgt_i::core::trainer::SourcePlane;
use pgt_i::core::workflow::{pgt_dcrnn, pgt_dcrnn_factory};
use pgt_i::core::IndexDataset;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::graph::PartitionerKind;

/// The pipelined-engine sweep every golden must survive unchanged: the
/// legacy flat synchronous reduce, tiny buckets (many per step — maximal
/// pipelining), and tiny buckets with prefetch. Overlap moves modeled
/// time only; one bit of drift in a loss is a determinism bug.
const OVERLAP_VARIANTS: [(Option<usize>, bool); 3] =
    [(None, false), (Some(512), false), (Some(512), true)];

fn assert_epochs(
    name: &str,
    epochs: &[pgt_i::core::dist_index::DistEpochStats],
    golden: &[(f32, f32)],
) {
    assert_eq!(epochs.len(), golden.len(), "{name}: epoch count");
    for (e, &(loss, val)) in epochs.iter().zip(golden) {
        assert_eq!(
            e.train_loss.to_bits(),
            loss.to_bits(),
            "{name} epoch {}: train {} vs golden {loss}",
            e.epoch,
            e.train_loss
        );
        assert_eq!(
            e.val_mae.to_bits(),
            val.to_bits(),
            "{name} epoch {}: val {} vs golden {val}",
            e.epoch,
            e.val_mae
        );
    }
}

#[test]
fn local_copy_plane_reproduces_the_inline_dist_index_loop() {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
    let sig = synthetic::generate(&spec, 13);
    for (cap, prefetch) in OVERLAP_VARIANTS {
        let mut cfg = DistConfig::new(2, 3, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.grad_bucket_bytes = cap;
        cfg.prefetch = prefetch;
        let r = run_distributed_index(&sig, &cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42));
        assert_epochs(
            &format!("dist_index[{cap:?}/{prefetch}]"),
            &r.epochs,
            &[
                (0.6047219, 0.5622681),
                (0.39428508, 0.29349127),
                (0.37147808, 0.18459678),
            ],
        );
        assert_eq!(r.data_plane_bytes, 0, "full local copies move no samples");
    }
}

#[test]
fn data_svc_plane_reproduces_the_inline_baseline_ddp_loop() {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.35);
    let sig = synthetic::generate(&spec, 13);
    for (cap, prefetch) in OVERLAP_VARIANTS {
        let mut cfg = DistConfig::new(2, 3, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.grad_bucket_bytes = cap;
        cfg.prefetch = prefetch;
        let r = run_baseline_ddp(&sig, &cfg, |_| {
            Box::new(pgt_dcrnn(&sig, 1, spec.horizon, 8, 42))
        });
        assert_epochs(
            &format!("baseline_ddp[{cap:?}/{prefetch}]"),
            &r.epochs,
            &[
                (0.602124, 0.5803667),
                (0.38723648, 0.29158267),
                (0.36405236, 0.18627615),
            ],
        );
        // The data-plane ledger is part of the contract too: overlap hides
        // time, never traffic.
        assert_eq!(r.data_plane_bytes, 46368, "on-demand fetch traffic");
    }
}

#[test]
fn halo_entry_plane_reproduces_the_inline_generalized_loop() {
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(0.012);
    let sig = synthetic::generate(&spec, 31);
    for (cap, prefetch) in OVERLAP_VARIANTS {
        let mut cfg = DistConfig::new(2, 2, spec.horizon);
        cfg.batch_per_worker = 4;
        cfg.time_period = Some(spec.period);
        cfg.grad_bucket_bytes = cap;
        cfg.prefetch = prefetch;
        let r = run_generalized(&sig, &cfg, pgt_dcrnn_factory(&sig, spec.horizon, 8, 42));
        // Re-captured after the per-feature StandardScaler fix: this config
        // augments with time-of-day, whose [0,1) channel used to contaminate
        // the scalar speed statistics (and therefore every standardized loss).
        assert_epochs(
            &format!("generalized[{cap:?}/{prefetch}]"),
            &r.epochs,
            &[(0.50323284, 5.0863705), (0.38060495, 5.4412193)],
        );
        assert_eq!(r.data_plane_bytes, 736, "setup halo reads only");
    }
}

#[test]
fn dynamic_plane_reproduces_the_inline_dynamic_loop() {
    let sig = pgt_i::data::dynamic::synthetic_dynamic_traffic(6, 80, 7);
    let cfg = DistConfig::new(1, 3, 4);
    let (_, stats) = train_dynamic(&sig, &cfg, &DynamicTrainConfig::default());
    let golden = [
        (0.50047874f32, 3.724125f32),
        (0.29698554, 3.4272969),
        (0.28425804, 3.1600816),
    ];
    assert_eq!(stats.len(), golden.len());
    for (e, &(loss, val)) in stats.iter().zip(&golden) {
        assert_eq!(e.train_loss.to_bits(), loss.to_bits(), "epoch {}", e.epoch);
        assert_eq!(e.val_mae.to_bits(), val.to_bits(), "epoch {}", e.epoch);
    }
}

#[test]
fn partitioned_plane_reproduces_the_sequential_trainer_loop() {
    // The pre-engine runner trained partitions sequentially through the
    // single-worker loop; the engine trains them concurrently as
    // independent ranks. Same shuffles, same seeds ⇒ identical MAE.
    let net = pgt_i::graph::generators::highway_corridor(24, 1, 11);
    let sig = synthetic::traffic::generate(&net, 220, 288, 11);
    let mut cfg = DistConfig::new(2, 2, 4);
    cfg.batch_per_worker = 4;
    // Pin the partitioner the golden was captured under (the config
    // default moved to the multilevel partitioner afterwards).
    cfg.partitioner = PartitionerKind::GreedyBfs;
    let r = run_partitioned(&sig, &cfg, 2, 8, None);
    assert_eq!(r.combined_val_mae.to_bits(), 2.156524f32.to_bits());
    let vals: Vec<u32> = r.parts.iter().map(|p| p.val_mae.to_bits()).collect();
    assert_eq!(vals, vec![2.8321512f32.to_bits(), 1.4808966f32.to_bits()]);
}

/// FNV-1a over every parameter's f32 bits, in `params()` order.
fn param_digest(model: &dyn Module) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in model.params() {
        for v in p.value().to_vec() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn source_plane_reproduces_the_single_worker_trainer_loop() {
    // The retired single-worker loop under DCRNN-style multi-step decay,
    // at the `tests/engine_schedule.rs` configuration: per-epoch train
    // losses and the final parameters, captured from that loop before it
    // was deleted. The world-of-one `SourcePlane` replays its batch order.
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
    let sig = synthetic::generate(&spec, 11);
    let ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
    let model = pgt_dcrnn(&sig, ds.num_features(), spec.horizon, 4, 7);
    let mut cfg = DistConfig::new(1, 6, spec.horizon);
    cfg.lr = 0.01;
    cfg.batch_per_worker = 8;
    cfg.seed = 42;
    let opts = EngineOptions {
        schedule: Some(std::sync::Arc::new(MultiStepLr {
            base_lr: 0.01,
            milestones: vec![2, 4],
            gamma: 0.1,
        })),
        ..Default::default()
    };
    let (report, model) = engine::run_single(&cfg, &opts, |_| (SourcePlane::new(&ds, &cfg), model))
        .expect("no resume");
    let losses: Vec<u32> = report
        .epochs
        .iter()
        .map(|e| e.train_loss.to_bits())
        .collect();
    assert_eq!(
        losses,
        vec![0x3f4d067a, 0x3f2a015b, 0x3f1fac82, 0x3f22a0d9, 0x3f216f80, 0x3f22146b],
        "per-epoch train losses"
    );
    assert_eq!(
        param_digest(&model),
        0xb672_9f54_c550_8704,
        "final parameters"
    );
}
