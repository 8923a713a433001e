//! The two training workloads: distributed index-batching (`train-index`)
//! and the standard-DDP baseline over chunked storage (`train-ddp-ooc`).
//!
//! A run repeats one *job* — set up from the generated signal, then train
//! a fixed number of epochs through `engine::run` — at least three times,
//! and again while another job fits the time budget. Every job starts from the same seed, so every job must
//! reproduce the first one's per-epoch train-loss and val-MAE bits; that
//! is one of the output checks. With tracing on, the first job runs
//! untraced as the reference and the rest traced, so the same check also
//! proves the wrappers leave the numerics alone.

use crate::report::{median, percentiles_ms, tail, CpuMark, Outcome};
use crate::trace::{Mode, RankLog, RankRecord, TracedModel, TracedPlane};
use crate::Args;
use pgt_index::baseline_ddp::DataSvcPlane;
use pgt_index::dist_index::LocalCopyPlane;
use pgt_index::engine::{self, EngineOptions, EngineReport};
use pgt_index::{DistConfig, IndexDataset};
use st_data::preprocess::{materialized_xy, num_snapshots};
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_data::storage::{ChunkedSpec, ChunkedStore, SignalStorage, StorageSpec};
use st_data::synthetic::traffic;
use st_dist::datasvc::{DistributedArray, PartitionPolicy};
use st_dist::shuffle;
use st_graph::{diffusion_supports, generators, Adjacency};
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use std::time::Instant;

/// PeMS-shaped signal: 5-minute readings, a 288-entry day, 12-step
/// (one hour) windows.
pub const PERIOD: usize = 288;
pub const HORIZON: usize = 12;
/// The corridor size: above the 80-node "representative" scale.
pub const NODES: usize = 96;
/// Ranks per run; with one kernel thread each this fits a 2-core host.
pub const WORLD: usize = 2;
/// Epochs per job: `forecast_mae` is the validation MAE after them.
const EPOCHS: usize = 1;

/// Which data plane a training workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlaneKind {
    /// `LocalCopyPlane`: every rank holds the index-batched signal.
    Index,
    /// `DataSvcPlane` over materialized windows in chunked storage.
    DdpOutOfCore,
}

/// A training workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub plane: PlaneKind,
    pub entries: usize,
    pub hidden: usize,
    pub batch_per_worker: usize,
    /// Windows per storage chunk (`train-ddp-ooc`): small enough that a
    /// chunk fits the 1/8-of-file cache ceiling.
    pub chunk_rows: usize,
    /// Set-up-only jobs a run adds to its training jobs' set-ups.
    pub setup_probes: usize,
    /// Step-latency tail percentile: the highest with ten steps beyond it
    /// in a run of three jobs.
    pub tail_percentile: f64,
}

impl TrainSpec {
    /// The workload at full or smoke size.
    pub fn new(plane: PlaneKind, smoke: bool) -> Self {
        let (entries, hidden, tail_percentile) = match (plane, smoke) {
            (PlaneKind::Index, false) => (1100, 32, 90.0),
            (PlaneKind::DdpOutOfCore, false) => (3000, 8, 95.0),
            (PlaneKind::Index, true) => (160, 32, 90.0),
            (PlaneKind::DdpOutOfCore, true) => (240, 8, 95.0),
        };
        let chunk_rows = if smoke { 4 } else { 32 };
        // Index set-up takes milliseconds, so its median needs many
        // samples to repeat run to run; the DDP one (materialise and write
        // chunks) takes about half a second.
        let setup_probes = match plane {
            PlaneKind::Index => 64,
            PlaneKind::DdpOutOfCore => 4,
        };
        TrainSpec {
            plane,
            entries,
            hidden,
            batch_per_worker: 8,
            chunk_rows,
            setup_probes,
            tail_percentile,
        }
    }

    fn config(&self, seed: u64) -> DistConfig {
        let mut cfg = DistConfig::new(WORLD, EPOCHS, HORIZON);
        cfg.batch_per_worker = self.batch_per_worker;
        cfg.seed = seed;
        cfg.time_period = Some(PERIOD);
        cfg
    }

    /// Steps one job takes, summed over ranks: each rank walks its stripe
    /// of the train split in batches.
    fn steps_per_job(&self) -> u64 {
        let n = self.train_windows();
        let per_epoch: usize = (0..WORLD)
            .map(|r| {
                shuffle::contiguous_partition(n, WORLD, r)
                    .len()
                    .div_ceil(self.batch_per_worker)
            })
            .sum();
        (per_epoch * EPOCHS) as u64
    }

    /// Training windows one epoch visits.
    fn train_windows(&self) -> usize {
        SplitRatios::default()
            .split(num_snapshots(self.entries, HORIZON))
            .train
            .len()
    }
}

/// The seeded input: a 96-node, two-lane highway corridor and its speeds.
pub fn generate(spec: &TrainSpec, seed: u64) -> StaticGraphTemporalSignal {
    let net = generators::highway_corridor(NODES, NODES.div_ceil(48), seed);
    traffic::generate(&net, spec.entries, PERIOD, seed)
}

fn model(adj: &Adjacency, hidden: usize, seed: u64, log: &RankLog, traced: bool) -> TracedModel {
    let t = Instant::now();
    let supports = Support::wrap_all(diffusion_supports(adj, 2));
    let supports_secs = t.elapsed().as_secs_f64();
    let mc = ModelConfig {
        input_dim: 2, // speed + time of day
        output_dim: 1,
        hidden,
        num_nodes: adj.num_nodes(),
        horizon: HORIZON,
        diffusion_steps: 2,
        layers: 1,
    };
    let m = PgtDcrnn::new(mc, &supports, seed);
    log.lock().supports_secs = supports_secs;
    TracedModel::new(Box::new(m) as Box<dyn Seq2Seq>, log.clone(), traced)
}

/// A chunk store's public counters.
struct StoreStats {
    file_bytes: u64,
    io_bytes: u64,
    io_chunks: u64,
    cache_hits: u64,
    peak_resident_bytes: u64,
}

impl StoreStats {
    fn read(s: &ChunkedStore) -> Self {
        StoreStats {
            file_bytes: s.file_bytes(),
            io_bytes: s.io_bytes(),
            io_chunks: s.io_chunks(),
            cache_hits: s.cache_hits(),
            peak_resident_bytes: s.peak_resident_bytes(),
        }
    }
}

/// One job's measurements.
struct Job {
    setup_secs: f64,
    train_secs: f64,
    ranks: Vec<RankRecord>,
    report: EngineReport,
    /// Counters of the chunk stores the job trained from (x and y), read
    /// when the job ends; the stores themselves (files and caches) are
    /// dropped with the job's run.
    stores: Vec<StoreStats>,
    cache_bytes: u64,
    materialize_secs: f64,
    chunk_write_secs: f64,
}

impl Job {
    fn loss_bits(&self) -> Vec<(u32, u32)> {
        self.report
            .epochs
            .iter()
            .map(|e| (e.train_loss.to_bits(), e.val_mae.to_bits()))
            .collect()
    }

    fn steps(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.step_starts.len() as u64)
            .sum::<u64>()
    }
}

fn run_job(spec: &TrainSpec, sig: &StaticGraphTemporalSignal, seed: u64, mode: Mode) -> Job {
    let cfg = spec.config(seed);
    let traced = mode == Mode::Traced;
    let logs: Vec<RankLog> = (0..WORLD).map(|_| RankLog::default()).collect();
    let start = Instant::now();
    let mut stores = Vec::new();
    let (mut materialize_secs, mut chunk_write_secs, mut cache_bytes) = (0.0, 0.0, 0);
    let report = match spec.plane {
        PlaneKind::Index => engine::run(
            &cfg,
            &EngineOptions::default(),
            |rank, cm| {
                let t = Instant::now();
                let p = LocalCopyPlane::new(sig, &cfg, rank, cm);
                logs[rank].lock().plane_build_secs = t.elapsed().as_secs_f64();
                TracedPlane::new(p, logs[rank].clone(), mode)
            },
            |plane: &TracedPlane<LocalCopyPlane>| -> Box<dyn Seq2Seq> {
                Box::new(model(
                    &sig.adjacency,
                    spec.hidden,
                    seed,
                    plane.log(),
                    traced,
                ))
            },
        ),
        PlaneKind::DdpOutOfCore => {
            // Algorithm 1: every window materialized, densely, before it
            // is written out chunk by chunk.
            let t = Instant::now();
            let augmented = sig.with_time_feature(PERIOD);
            let out = materialized_xy(&augmented, HORIZON, SplitRatios::default());
            materialize_secs = t.elapsed().as_secs_f64();
            // The chunk cache holds at most an eighth of each array, so an
            // epoch's global shuffle must keep going back to disk.
            cache_bytes = (out.x.numel() as u64 * 4 / 8).max(4096);
            let storage = StorageSpec::Chunked(
                ChunkedSpec::new(spec.chunk_rows).with_cache_bytes(cache_bytes),
            );
            let t = Instant::now();
            let array = |tensor| {
                DistributedArray::with_storage(
                    SignalStorage::from_tensor_spec(tensor, storage),
                    WORLD,
                    cfg.topology,
                    4,
                    PartitionPolicy::Contiguous,
                    cfg.wire_codec,
                )
            };
            let x = array(out.x);
            let y = array(out.y);
            chunk_write_secs = t.elapsed().as_secs_f64();
            let (scaler, splits) = (out.scaler, out.splits);
            let report = engine::run(
                &cfg,
                &EngineOptions::default(),
                |rank, cm| {
                    let t = Instant::now();
                    let p = DataSvcPlane::new(
                        x.clone(),
                        y.clone(),
                        scaler.clone(),
                        splits.clone(),
                        &cfg,
                        rank,
                        cm.clone(),
                    );
                    logs[rank].lock().plane_build_secs = t.elapsed().as_secs_f64();
                    TracedPlane::new(p, logs[rank].clone(), mode)
                },
                |plane: &TracedPlane<DataSvcPlane>| -> Box<dyn Seq2Seq> {
                    Box::new(model(
                        &sig.adjacency,
                        spec.hidden,
                        seed,
                        plane.log(),
                        traced,
                    ))
                },
            );
            for a in [&x, &y] {
                stores.extend(a.storage().chunked().map(|s| StoreStats::read(s)));
            }
            report
        }
    }
    .expect("engine run without resume bytes cannot fail");
    let done = Instant::now();
    let ranks: Vec<RankRecord> = logs.iter().map(RankLog::snapshot).collect();
    let first_step = ranks
        .iter()
        .filter_map(|r| r.epoch_starts.first().copied())
        .max()
        .expect("every rank trains at least one epoch");
    Job {
        setup_secs: (first_step - start).as_secs_f64(),
        train_secs: (done - first_step).as_secs_f64(),
        ranks,
        report,
        stores,
        cache_bytes,
        materialize_secs,
        chunk_write_secs,
    }
}

/// Run a training workload for `args.seconds` and fill the outcome.
pub fn run(spec: TrainSpec, args: &Args, out: &mut Outcome) {
    let sig = generate(&spec, args.seed);
    // Replayed outside the timed jobs: the index build `LocalCopyPlane`
    // performs inside the plane factory.
    let index_build_secs = if args.trace && spec.plane == PlaneKind::Index {
        let t = Instant::now();
        let ds = IndexDataset::from_signal(&sig, HORIZON, SplitRatios::default(), Some(PERIOD));
        std::hint::black_box(ds.num_snapshots());
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };

    // setup_s is the median over set-up-only jobs and the training jobs.
    let budget = args.seconds;
    let run_start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    if !args.trace {
        for _ in 0..spec.setup_probes {
            setups.push(run_job(&spec, &sig, args.seed, Mode::SetupOnly).setup_secs);
        }
    }
    // At least three training jobs, then more while another fits the
    // budget. With tracing on, the first is the untraced reference for the
    // bitwise check and the overhead figure.
    let mut jobs: Vec<(bool, Job)> = Vec::new();
    let cpu_start = CpuMark::now();
    let mut last_job_secs = 0.0;
    while jobs.len() < 3 || run_start.elapsed().as_secs_f64() + last_job_secs <= budget {
        let traced = args.trace && !jobs.is_empty();
        let mode = if traced { Mode::Traced } else { Mode::Untraced };
        let t = Instant::now();
        jobs.push((traced, run_job(&spec, &sig, args.seed, mode)));
        last_job_secs = t.elapsed().as_secs_f64();
    }

    let cpu_end = CpuMark::now();
    out.info("host_steal_share", cpu_end.steal_share_since(&cpu_start));

    // ── Output checks ────────────────────────────────────────────────
    let reference = jobs[0].1.loss_bits();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut nonfinite = 0;
    let mut mismatched = 0;
    for (_, job) in &jobs {
        attempted += job.steps();
        let bad_epochs = job
            .report
            .epochs
            .iter()
            .filter(|e| !e.train_loss.is_finite() || !e.val_mae.is_finite())
            .count();
        nonfinite += bad_epochs;
        if job.loss_bits() != reference {
            mismatched += 1;
            failed += job.steps();
        } else if bad_epochs > 0 {
            failed += job.steps();
        }
    }
    out.check(
        "losses_finite",
        nonfinite == 0,
        format!("{nonfinite} epochs with a non-finite train loss or val MAE"),
    );
    out.check(
        "losses_bitwise_repeat",
        mismatched == 0,
        format!(
            "{mismatched} of {} jobs differ from the first job's per-epoch loss/MAE bits{}",
            jobs.len() - 1,
            if args.trace {
                " (the first job is untraced, the rest traced)"
            } else {
                ""
            }
        ),
    );
    let expected_steps = spec.steps_per_job();
    let steps_ok = jobs.iter().all(|(_, j)| j.steps() == expected_steps);
    out.check(
        "every_window_trained",
        steps_ok,
        format!("each job runs Σ ranks ceil(stripe / batch) × epochs = {expected_steps} steps"),
    );
    if spec.plane == PlaneKind::DdpOutOfCore {
        let job = &jobs[0].1;
        let within = job.stores.iter().all(|s| {
            s.peak_resident_bytes <= job.cache_bytes && job.cache_bytes * 8 <= s.file_bytes
        });
        out.check(
            "chunk_cache_bounded",
            within && job.stores.len() == 2,
            format!(
                "cache ceiling {} B ≤ 1/8 of each chunk file and peak resident ≤ ceiling",
                job.cache_bytes
            ),
        );
    }
    out.attempted = attempted;
    out.failed = failed;

    // ── End-to-end metrics, from the untraced jobs ────────────────────
    let measured: Vec<&Job> = jobs.iter().filter(|(t, _)| !t).map(|(_, j)| j).collect();
    let e2e = summarize(&spec, &measured, &setups);
    out.info("jobs", measured.len());
    out.info("setup_samples", setups.len() + measured.len());
    let persistence = persistence_val_mae(&sig);
    out.info("persistence_val_mae", persistence);
    let val_mae = jobs[0]
        .1
        .report
        .epochs
        .last()
        .map_or(f64::NAN, |e| e.val_mae as f64);
    out.info("epochs_per_job", EPOCHS);
    out.info("train_windows_per_epoch", spec.train_windows());
    out.info("entries", spec.entries);
    out.info("hidden", spec.hidden);
    out.info("step_samples", e2e.steps.len());
    out.info("op_tail_percentile", e2e.tail_p);
    out.info("op_percentiles_ms", percentiles_ms(&e2e.steps));
    let steps_total: u64 = jobs.iter().map(|(_, j)| j.steps()).sum();
    out.info(
        "cpu_ms_per_step",
        cpu_end.process_secs_since(&cpu_start) * 1e3 / steps_total.max(1) as f64,
    );
    if !args.trace {
        out.metric("setup_s", e2e.setup);
        out.metric("samples_per_s", e2e.throughput);
        out.metric("op_p50_ms", e2e.p50_ms);
        out.metric("op_tail_ms", e2e.tail_ms);
        out.metric("forecast_mae", val_mae);
        out.metric("forecast_mae_ratio", val_mae / persistence);
        return;
    }

    // ── Per-layer metrics, from the traced jobs ──────────────────────
    let traced: Vec<&Job> = jobs.iter().filter(|(t, _)| *t).map(|(_, j)| j).collect();
    let t = summarize(&spec, &traced, &[]);
    out.info("traced_jobs", traced.len());
    out.info("overhead_setup_ratio", t.setup / e2e.setup);
    out.info(
        "overhead_samples_per_s_ratio",
        t.throughput / e2e.throughput,
    );
    out.info("overhead_op_p50_ratio", t.p50_ms / e2e.p50_ms);

    let per_job =
        |f: &dyn Fn(&Job) -> f64| median(&traced.iter().map(|j| f(j)).collect::<Vec<_>>());
    let max_rank =
        |j: &Job, f: &dyn Fn(&RankRecord) -> f64| j.ranks.iter().map(f).fold(0.0, f64::max);
    let mean_rank = |j: &Job, f: &dyn Fn(&RankRecord) -> f64| {
        j.ranks.iter().map(f).sum::<f64>() / j.ranks.len() as f64
    };
    out.metric(
        "pgt_index.plane_build_s",
        per_job(&|j| max_rank(j, &|r| r.plane_build_secs)),
    );
    out.metric(
        "pgt_index.fetch_s",
        per_job(&|j| mean_rank(j, &|r| r.fetch_secs)),
    );
    out.metric(
        "pgt_index.fetch_calls",
        per_job(&|j| j.ranks.iter().map(|r| r.fetch_calls as f64).sum()),
    );
    out.metric(
        "pgt_index.step_rest_s",
        per_job(&|j| mean_rank(j, &|r| r.wall_secs() - r.fetch_secs - r.forward_secs)),
    );
    out.metric(
        "pgt_index.rank_imbalance",
        per_job(&|j| max_rank(j, &|r| r.train_secs()) / mean_rank(j, &|r| r.train_secs())),
    );
    out.metric(
        "pgt_index.rank_wall_s",
        per_job(&|j| mean_rank(j, &|r| r.wall_secs())),
    );
    out.metric(
        "st_models.forward_s",
        per_job(&|j| mean_rank(j, &|r| r.forward_secs)),
    );
    out.metric(
        "st_models.forward_calls",
        per_job(&|j| j.ranks.iter().map(|r| r.forward_calls as f64).sum()),
    );
    let kernels = |j: &Job, pick: &dyn Fn(&st_device::KernelSplit) -> f64| {
        j.report
            .epochs
            .iter()
            .map(|e| pick(&e.kernel_split))
            .sum::<f64>()
    };
    out.metric(
        "st_tensor.gemm_s",
        per_job(&|j| kernels(j, &|k| k.gemm_secs)),
    );
    out.metric(
        "st_tensor.spmm_s",
        per_job(&|j| kernels(j, &|k| k.spmm_secs)),
    );
    out.metric(
        "st_tensor.elementwise_s",
        per_job(&|j| kernels(j, &|k| k.elementwise_secs)),
    );
    out.metric("st_data.materialize_s", per_job(&|j| j.materialize_secs));
    out.metric("st_data.chunk_write_s", per_job(&|j| j.chunk_write_secs));
    out.metric("st_data.index_build_s", index_build_secs);
    let store_sum =
        |j: &Job, f: &dyn Fn(&StoreStats) -> u64| j.stores.iter().map(f).sum::<u64>() as f64;
    out.metric(
        "st_data.io_bytes",
        per_job(&|j| store_sum(j, &|s| s.io_bytes)),
    );
    out.metric(
        "st_data.io_chunks",
        per_job(&|j| store_sum(j, &|s| s.io_chunks)),
    );
    out.metric(
        "st_data.cache_hit_ratio",
        per_job(&|j| {
            let hits = store_sum(j, &|s| s.cache_hits);
            let reads = hits + store_sum(j, &|s| s.io_chunks);
            if reads > 0.0 {
                hits / reads
            } else {
                0.0
            }
        }),
    );
    out.metric(
        "st_data.peak_resident_bytes",
        per_job(&|j| {
            j.stores
                .iter()
                .map(|s| s.peak_resident_bytes)
                .max()
                .unwrap_or(0) as f64
        }),
    );
    out.metric(
        "st_dist.grad_bytes",
        per_job(&|j| (j.report.bytes_moved - j.report.data_plane_bytes) as f64),
    );
    out.metric(
        "st_dist.data_plane_bytes",
        per_job(&|j| j.report.data_plane_bytes as f64),
    );
    out.metric(
        "st_dist.exposed_comm_s",
        per_job(&|j| j.report.epochs.iter().map(|e| e.exposed_comm_secs).sum()),
    );
    out.metric(
        "st_dist.hidden_comm_s",
        per_job(&|j| j.report.epochs.iter().map(|e| e.hidden_comm_secs).sum()),
    );
    out.metric(
        "st_device.sim_total_s",
        per_job(&|j| j.report.sim_total_secs),
    );
    out.metric(
        "st_device.sim_compute_s",
        per_job(&|j| j.report.sim_compute_secs),
    );
    out.metric(
        "st_graph.supports_s",
        per_job(&|j| max_rank(j, &|r| r.supports_secs)),
    );
}

/// MAE of the persistence forecast (every horizon step repeats the last
/// input reading) over the validation windows, in original units: the
/// naive baseline `forecast_mae` is read against.
fn persistence_val_mae(sig: &StaticGraphTemporalSignal) -> f64 {
    let data = sig.data().contiguous();
    let v = data.as_slice().expect("contiguous signal");
    let (n, f) = (sig.num_nodes(), sig.num_features());
    let val = SplitRatios::default()
        .split(num_snapshots(sig.entries(), HORIZON))
        .val;
    let (mut sum, mut count) = (0.0f64, 0usize);
    for i in val {
        let last = i + HORIZON - 1;
        for t in i + HORIZON..i + 2 * HORIZON {
            for node in 0..n {
                sum += (v[(t * n + node) * f] - v[(last * n + node) * f]).abs() as f64;
                count += 1;
            }
        }
    }
    sum / count.max(1) as f64
}

/// End-to-end figures over a set of jobs.
struct Summary {
    setup: f64,
    throughput: f64,
    p50_ms: f64,
    tail_ms: f64,
    tail_p: f64,
    steps: Vec<f64>,
}

fn summarize(spec: &TrainSpec, jobs: &[&Job], setup_only: &[f64]) -> Summary {
    let mut setups = setup_only.to_vec();
    setups.extend(jobs.iter().map(|j| j.setup_secs));
    let windows = (spec.train_windows() * EPOCHS) as f64;
    let per_job: Vec<f64> = jobs.iter().map(|j| windows / j.train_secs).collect();
    let steps: Vec<f64> = jobs.iter().flat_map(|j| j.ranks[0].step_secs()).collect();
    let (tail_p, tail_s) = tail(&steps, spec.tail_percentile);
    Summary {
        setup: median(&setups),
        throughput: median(&per_job),
        p50_ms: median(&steps) * 1e3,
        tail_ms: tail_s * 1e3,
        tail_p,
        steps,
    }
}
