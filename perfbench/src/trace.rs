//! Timing from outside the program: wrappers around the public
//! `pgt_index::engine::DistDataPlane` and `st_models::Seq2Seq` traits.
//!
//! Every rank gets a [`RankLog`]. The wrappers always record the few
//! instants the end-to-end metrics need (first step, the start of each
//! training fetch, the start of validation, rank end). With
//! tracing on they also time every `fetch_batch` and `forward` call,
//! which the per-layer metrics are made of. Numerics are never touched:
//! each wrapper forwards to the wrapped value unchanged.

use pgt_index::engine::{DistDataPlane, Fetch};
use st_autograd::module::{Module, Param};
use st_autograd::{Tape, Var};
use st_models::{Seq2Seq, Support};
use st_tensor::Tensor;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What one rank did, as seen from outside the engine.
#[derive(Debug, Default, Clone)]
pub struct RankRecord {
    /// Seconds in the plane factory (plane construction).
    pub plane_build_secs: f64,
    /// Seconds in `diffusion_supports` inside the model factory.
    pub supports_secs: f64,
    /// `plan_epoch` call instants: the top of every epoch.
    pub epoch_starts: Vec<Instant>,
    /// `plan_val` call instants: the end of every epoch's training phase.
    pub val_starts: Vec<Instant>,
    /// Start instants of training fetches (one per step).
    pub step_starts: Vec<Instant>,
    /// When the engine read the ledger after its final barrier.
    pub end: Option<Instant>,
    /// Traced: seconds inside `fetch_batch`, and its call count.
    pub fetch_secs: f64,
    pub fetch_calls: u64,
    /// Traced: seconds inside `Seq2Seq::forward`, and its call count.
    pub forward_secs: f64,
    pub forward_calls: u64,
    in_train: bool,
}

impl RankRecord {
    /// Wall seconds of each step: from its fetch to the next step's fetch,
    /// or to the epoch's validation for an epoch's last step.
    pub fn step_secs(&self) -> Vec<f64> {
        let mut bounds: Vec<Instant> = self.step_starts.clone();
        bounds.extend(&self.val_starts);
        bounds.sort();
        self.step_starts
            .iter()
            .map(|s| {
                let next = bounds.get(bounds.partition_point(|b| b <= s));
                next.map_or(0.0, |n| (*n - *s).as_secs_f64())
            })
            .collect()
    }

    /// Seconds spent in training phases (epoch top to validation start).
    pub fn train_secs(&self) -> f64 {
        self.epoch_starts
            .iter()
            .zip(&self.val_starts)
            .map(|(a, b)| (*b - *a).as_secs_f64())
            .sum()
    }

    /// Seconds from the first epoch to the rank's end.
    pub fn wall_secs(&self) -> f64 {
        match (self.epoch_starts.first(), self.end) {
            (Some(a), Some(b)) => (b - *a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// A rank's shared record: the plane wrapper writes it on the rank's
/// thread, the workload reads it after `engine::run` returns.
#[derive(Debug, Clone, Default)]
pub struct RankLog(Arc<Mutex<RankRecord>>);

impl RankLog {
    /// Lock the record.
    pub fn lock(&self) -> MutexGuard<'_, RankRecord> {
        self.0.lock().expect("a rank panicked while recording")
    }

    /// A copy of the record.
    pub fn snapshot(&self) -> RankRecord {
        self.lock().clone()
    }
}

/// How a job records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Only the instants the end-to-end metrics need.
    Untraced,
    /// Also time every fetch and forward.
    Traced,
    /// Set up, then train nothing: the plane plans no batches, so a job
    /// ends right after its first step would have started. Extra set-up
    /// samples for the `setup_s` median at almost no cost.
    SetupOnly,
}

/// A data plane that forwards to `inner` and records into `log`.
pub struct TracedPlane<P> {
    inner: P,
    log: RankLog,
    mode: Mode,
}

impl<P: DistDataPlane> TracedPlane<P> {
    /// Wrap a rank's plane.
    pub fn new(inner: P, log: RankLog, mode: Mode) -> Self {
        TracedPlane { inner, log, mode }
    }

    /// The rank's log.
    pub fn log(&self) -> &RankLog {
        &self.log
    }
}

impl<P: DistDataPlane> DistDataPlane for TracedPlane<P> {
    fn rounds_per_epoch(&self) -> usize {
        match self.mode {
            Mode::SetupOnly => 0,
            _ => self.inner.rounds_per_epoch(),
        }
    }

    fn plan_epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let now = Instant::now();
        {
            let mut r = self.log.lock();
            r.epoch_starts.push(now);
            r.in_train = true;
        }
        match self.mode {
            Mode::SetupOnly => Vec::new(),
            _ => self.inner.plan_epoch(epoch),
        }
    }

    fn plan_val(&self) -> Vec<Vec<usize>> {
        let now = Instant::now();
        {
            let mut r = self.log.lock();
            r.val_starts.push(now);
            r.in_train = false;
        }
        match self.mode {
            Mode::SetupOnly => Vec::new(),
            _ => self.inner.plan_val(),
        }
    }

    fn fetch_batch(&self, ids: &[usize]) -> Fetch {
        let start = Instant::now();
        let f = self.inner.fetch_batch(ids);
        let mut r = self.log.lock();
        if r.in_train {
            r.step_starts.push(start);
        }
        if self.mode == Mode::Traced {
            r.fetch_secs += start.elapsed().as_secs_f64();
            r.fetch_calls += 1;
        }
        f
    }

    fn setup_secs(&self) -> f64 {
        self.inner.setup_secs()
    }

    fn remote(&self) -> bool {
        self.inner.remote()
    }

    fn sync_gradients(&self) -> bool {
        self.inner.sync_gradients()
    }

    fn validate_epoch(&self, epoch: u64, epochs: u64) -> bool {
        self.inner.validate_epoch(epoch, epochs)
    }

    fn scaler_std(&self) -> f32 {
        self.inner.scaler_std()
    }

    fn ledger_bytes(&self) -> u64 {
        // The engine reads the ledger once per rank, after its final
        // barrier: that is the rank's end.
        self.log.lock().end = Some(Instant::now());
        self.inner.ledger_bytes()
    }

    fn forward(&self, model: &dyn Seq2Seq, tape: &Tape, ids: &[usize], x: &Tensor) -> Var {
        self.inner.forward(model, tape, ids, x)
    }

    fn val_views(&self, pred: Tensor, target: Tensor) -> (Tensor, Tensor) {
        self.inner.val_views(pred, target)
    }
}

/// A model that forwards to `inner`, timing `forward` when traced.
pub struct TracedModel {
    inner: Box<dyn Seq2Seq>,
    log: RankLog,
    traced: bool,
}

impl TracedModel {
    /// Wrap a rank's model replica.
    pub fn new(inner: Box<dyn Seq2Seq>, log: RankLog, traced: bool) -> Self {
        TracedModel { inner, log, traced }
    }
}

impl Module for TracedModel {
    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }
}

impl Seq2Seq for TracedModel {
    fn forward(&self, tape: &Tape, x: &Tensor) -> Var {
        if !self.traced {
            return self.inner.forward(tape, x);
        }
        let start = Instant::now();
        let out = self.inner.forward(tape, x);
        let mut r = self.log.lock();
        r.forward_secs += start.elapsed().as_secs_f64();
        r.forward_calls += 1;
        out
    }

    fn forward_dynamic(&self, tape: &Tape, x: &Tensor, per_step: &[&[Support]]) -> Var {
        self.inner.forward_dynamic(tape, x, per_step)
    }

    fn forward_inference(&self, x: &Tensor) -> Tensor {
        self.inner.forward_inference(x)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn flops_per_forward(&self, batch: usize) -> f64 {
        self.inner.flops_per_forward(batch)
    }
}
