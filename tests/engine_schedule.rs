//! The engine's learning-rate schedule and resume semantics, on the
//! single-worker `SourcePlane`.
//!
//! The engine applies an epoch-indexed schedule at the top of every epoch
//! (the DCRNN multi-step decay). These tests pin it three ways: a
//! scheduled run leaves the constant-rate trajectory exactly at the first
//! milestone, a resumed run re-enters the schedule at the checkpoint's
//! epoch (not the base rate), and degenerate resumes (at/past the horizon,
//! corrupt bytes) surface explicitly instead of panicking or returning
//! silently empty series. The scheduled trajectory's bits are pinned
//! against the pre-engine single-worker loop in `tests/engine_goldens.rs`.

use pgt_i::autograd::schedule::{LrSchedule, MultiStepLr};
use pgt_i::core::dist_index::DistConfig;
use pgt_i::core::engine::{self, EngineError, EngineOptions};
use pgt_i::core::index_batching::IndexDataset;
use pgt_i::core::trainer::SourcePlane;
use pgt_i::core::workflow::pgt_dcrnn;
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::splits::SplitRatios;
use pgt_i::data::synthetic;
use pgt_i::models::PgtDcrnn;
use std::sync::Arc;

const SEED: u64 = 42;
const LR: f32 = 0.01;
const BATCH: usize = 8;

fn dataset() -> IndexDataset {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
    let sig = synthetic::generate(&spec, 11);
    IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None)
}

fn model_for(ds: &IndexDataset) -> PgtDcrnn {
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.2);
    let sig = synthetic::generate(&spec, 11);
    pgt_dcrnn(&sig, ds.num_features(), ds.horizon(), 4, 7)
}

/// DCRNN-style multi-step decay with milestones scaled into a 6-epoch
/// test budget (the reference `MultiStepLr::dcrnn` decays at 20/30/40/50).
fn decay() -> MultiStepLr {
    MultiStepLr {
        base_lr: LR,
        milestones: vec![2, 4],
        gamma: 0.1,
    }
}

fn engine_cfg(epochs: usize) -> DistConfig {
    let mut cfg = DistConfig::new(1, epochs, 4);
    cfg.batch_per_worker = BATCH;
    cfg.lr = LR;
    cfg.seed = SEED;
    cfg
}

fn scheduled_opts() -> EngineOptions {
    EngineOptions {
        schedule: Some(Arc::new(decay())),
        ..Default::default()
    }
}

fn run_engine(epochs: usize, opts: &EngineOptions) -> engine::EngineReport {
    run_with(&engine_cfg(epochs), opts).expect("resume bytes, when present, are valid here")
}

fn run_with(cfg: &DistConfig, opts: &EngineOptions) -> Result<engine::EngineReport, EngineError> {
    let ds = dataset();
    let model = model_for(&ds);
    engine::run_single(cfg, opts, |_cm| (SourcePlane::new(&ds, cfg), model)).map(|(r, _)| r)
}

#[test]
fn scheduled_run_leaves_the_constant_rate_trajectory_at_the_first_milestone() {
    let report = run_engine(6, &scheduled_opts());
    assert_eq!(report.epochs.len(), 6);

    // The schedule demonstrably takes effect: dropping it (constant
    // effective_lr forever) lands on a different trajectory after the
    // first milestone.
    let constant = run_engine(6, &EngineOptions::default());
    assert_ne!(
        constant.epochs.last().unwrap().train_loss.to_bits(),
        report.epochs.last().unwrap().train_loss.to_bits(),
        "a decayed rate must diverge from the constant-rate run"
    );
    // Before the first milestone the two runs coincide exactly: the
    // schedule only moves the rate, never the batches.
    for (c, s) in constant.epochs.iter().zip(&report.epochs).take(2) {
        assert_eq!(c.train_loss.to_bits(), s.train_loss.to_bits());
    }
}

#[test]
fn resume_reenters_the_schedule_at_the_checkpoint_epoch() {
    // Interrupt at epoch 3 (past the first milestone, before the second):
    // the resumed run must re-apply lr_at(3) = 0.001, not restart at the
    // 0.01 base rate. Byte-identical final checkpoints prove it.
    let straight = run_engine(
        6,
        &EngineOptions {
            capture_checkpoint: true,
            ..scheduled_opts()
        },
    );
    let head = run_engine(
        3,
        &EngineOptions {
            capture_checkpoint: true,
            ..scheduled_opts()
        },
    );
    let resumed = run_engine(
        6,
        &EngineOptions {
            resume: Some(head.checkpoint.clone().expect("captured")),
            capture_checkpoint: true,
            ..scheduled_opts()
        },
    );
    assert_eq!(
        straight.checkpoint, resumed.checkpoint,
        "resume must continue the schedule, not restart it"
    );
    assert_eq!(resumed.epochs.len(), 3, "only the tail epochs re-run");
    for (r, s) in resumed.epochs.iter().zip(&straight.epochs[3..]) {
        assert_eq!(r.epoch, s.epoch);
        assert_eq!(r.train_loss.to_bits(), s.train_loss.to_bits());
    }
}

#[test]
fn zero_epoch_resume_reports_an_explicit_marker() {
    // Resuming a finished run used to return silently empty series. Now:
    // one explicit NaN marker epoch, and the re-captured checkpoint
    // round-trips byte-identically (nothing trained, nothing rewound).
    let done = run_engine(
        2,
        &EngineOptions {
            capture_checkpoint: true,
            ..Default::default()
        },
    );
    let bytes = done.checkpoint.clone().expect("captured");
    let replay = run_engine(
        2,
        &EngineOptions {
            resume: Some(bytes.clone()),
            capture_checkpoint: true,
            ..Default::default()
        },
    );
    assert_eq!(replay.epochs.len(), 1, "exactly one marker entry");
    let m = &replay.epochs[0];
    assert_eq!(m.epoch, 2, "marker carries the resume epoch");
    assert!(m.train_loss.is_nan() && m.val_mae.is_nan());
    assert_eq!(m.exposed_comm_secs, 0.0);
    assert_eq!((m.stale_steps_applied, m.fence_stalls), (0, 0));
    assert_eq!(replay.rank_val, vec![vec![(0.0, 0)]]);
    assert_eq!(
        replay.checkpoint,
        Some(bytes),
        "zero-epoch resume must not move or rewind the checkpoint"
    );
}

#[test]
fn corrupt_resume_bytes_surface_a_typed_error() {
    // Truncated checkpoint bytes must come back as Err, not a panic
    // inside a worker thread.
    let done = run_engine(
        1,
        &EngineOptions {
            capture_checkpoint: true,
            ..Default::default()
        },
    );
    let mut bytes = done.checkpoint.expect("captured");
    bytes.truncate(bytes.len() / 2);
    let result = run_with(
        &engine_cfg(2),
        &EngineOptions {
            resume: Some(bytes),
            ..Default::default()
        },
    );
    match result {
        Err(EngineError::Checkpoint(_)) => {}
        Ok(_) => panic!("corrupt bytes must not restore"),
    }
}

#[test]
fn schedule_lr_at_is_what_the_engine_applies() {
    // Sanity on the schedule arithmetic the tests above lean on.
    let s = decay();
    assert_eq!(s.lr_at(0), 0.01);
    assert_eq!(s.lr_at(2), 0.001);
    assert!((s.lr_at(4) - 0.0001).abs() < 1e-9);
    // And the reference DCRNN milestones stay where the paper's
    // configuration puts them.
    let d = MultiStepLr::dcrnn(0.01);
    assert_eq!(d.lr_at(19), 0.01);
    assert_eq!(d.lr_at(20), 0.001);
}
