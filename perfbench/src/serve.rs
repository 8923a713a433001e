//! The `serve-live` workload: one closed-loop client against a
//! `SnapshotRegistry` tenant with two shards.
//!
//! Each iteration sends one `serve` call with a batch of queries on random
//! nodes over a hot set of recent windows, then admits the next stream row
//! as one live `Tick` per node. Per-layer figures come from replaying the
//! public calls a `serve` call is made of (routing, `admit_and_coalesce`,
//! `RollingWindow::batch`, the tape-free forward) on the same state, right
//! after the timed call and outside its timing.

use crate::report::{median, percentile, percentiles_ms, process_cpu_secs, tail, CpuMark, Outcome};
use crate::train::{HORIZON, NODES, PERIOD};
use crate::Args;
use pgt_index::dist_index::LocalCopyPlane;
use pgt_index::engine::{self, EngineOptions};
use pgt_index::{DistConfig, IndexDataset};
use st_autograd::Module;
use st_data::signal::StaticGraphTemporalSignal;
use st_data::splits::SplitRatios;
use st_data::synthetic::traffic;
use st_device::CostModel;
use st_graph::{diffusion_supports, generators, Adjacency};
use st_models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use st_serve::queue::PendingRequest;
use st_serve::slo::{admit_and_coalesce, BatchCost};
use st_serve::{BatchedServer, ModelSnapshot, Query, ServeConfig, SnapshotRegistry, Tick};
use st_tensor::Tensor;
use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

const TENANT: &str = "corridor";
const SHARDS: usize = 2;
const HIDDEN: usize = 16;
/// The ring holds one day of readings.
const CAPACITY: usize = PERIOD;
/// Two days of history: the scaler's fit, and the seeded ring.
const HISTORY: usize = 2 * PERIOD;
/// Queries per `serve` call, and how many of the newest windows they hit:
/// enough queries that each shard nearly always sees every hot window, so
/// a call's forward work does not swing with the draw.
const QUERIES_PER_CALL: usize = 64;
const HOT_WINDOWS: usize = 8;
/// Calls whose forecasts are scored for `forecast_mae` and
/// `forecast_mae_ratio`: a fixed count, so the score covers the same
/// stream rows whatever the run's length.
const SCORED_CALLS: u64 = 1000;
/// Calls per throughput segment: `samples_per_s` is the median over
/// segments, so a burst of host contention moves one segment, not the
/// figure.
const SEGMENT_CALLS: usize = 100;
/// Set-ups per run; `setup_s` is their median. A deploy takes under a
/// millisecond, so many are needed for a median that repeats run to run.
const DEPLOYS: usize = 101;
/// Call-latency tail percentile: the highest with ten calls beyond it in
/// a run of `run_seconds`.
const TAIL_PERCENTILE: f64 = 99.0;
/// One in this many calls has a query re-checked against
/// `BatchedServer::predict_windows`.
const CHECK_EVERY: u64 = 8;

/// splitmix64: the query stream's generator, seeded by `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seeded input: the corridor, its readings (speed + time of day) for
/// the history and every live row the run may admit, plus one horizon of
/// future readings to score the last forecasts against; and the model
/// artifact to deploy, trained for one epoch on the history.
struct Inputs {
    adjacency: Adjacency,
    /// `[entries, N, 2]`, original units.
    readings: Tensor,
    /// The history standardized as training saw it, `[HISTORY, N, 2]`.
    history: Tensor,
    /// `ModelSnapshot::to_bytes` of the trained model.
    snapshot: Vec<u8>,
}

fn model_config() -> ModelConfig {
    ModelConfig {
        input_dim: 2,
        output_dim: 1,
        hidden: HIDDEN,
        num_nodes: NODES,
        horizon: HORIZON,
        diffusion_steps: 2,
        layers: 1,
    }
}

/// The corridor, its readings in original units, and the history prefix
/// as a one-feature signal.
fn corridor(seed: u64, live_rows: usize) -> (Adjacency, Tensor, StaticGraphTemporalSignal) {
    let net = generators::highway_corridor(NODES, NODES.div_ceil(48), seed);
    let entries = HISTORY + live_rows + HORIZON;
    let sig = traffic::generate(&net, entries, PERIOD, seed);
    let readings = sig.with_time_feature(PERIOD).data().contiguous();
    let history = StaticGraphTemporalSignal::new(
        sig.data()
            .narrow(0, 0, HISTORY)
            .expect("history rows")
            .contiguous(),
        net.adjacency.clone(),
    );
    (net.adjacency, readings, history)
}

/// Train the model to deploy for one epoch on the history and return its
/// snapshot bytes. Runs in a child process, so the serving process's peak
/// RSS is serving's alone.
pub fn train_snapshot(seed: u64, seconds: f64) -> Vec<u8> {
    let (adjacency, _, history) = corridor(seed, live_rows(seconds));
    let mut cfg = DistConfig::new(1, 1, HORIZON);
    cfg.seed = seed;
    cfg.time_period = Some(PERIOD);
    let (_, model) = engine::run_single(&cfg, &EngineOptions::default(), |cm| {
        let supports = Support::wrap_all(diffusion_supports(&adjacency, 2));
        let model = PgtDcrnn::new(model_config(), &supports, seed);
        (LocalCopyPlane::new(&history, &cfg, 0, cm), model)
    })
    .expect("engine run without resume bytes cannot fail");
    let snapshot = ModelSnapshot::capture(
        model_config(),
        history_dataset(&history).scaler().clone(),
        Some(PERIOD),
        &model.params(),
        1,
    );
    snapshot.to_bytes().to_vec()
}

/// The history standardized exactly as `LocalCopyPlane` did for training.
fn history_dataset(history: &StaticGraphTemporalSignal) -> IndexDataset {
    IndexDataset::from_signal(history, HORIZON, SplitRatios::default(), Some(PERIOD))
}

/// Live rows for a run of `seconds`: one per loop iteration, and an
/// iteration (a serve call with two shard forwards) takes well over the
/// 5 ms this allows. A run that did exhaust the stream would stop early.
fn live_rows(seconds: f64) -> usize {
    ((seconds * 200.0) as usize).max(64)
}

/// Generate the inputs, with the model artifact trained by a child
/// process (`--train-snapshot`).
fn generate(args: &Args) -> Result<Inputs, String> {
    let path = std::env::temp_dir().join(format!("perfbench-snapshot-{}.bin", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", "serve-live", "--trace", "0"])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .arg("--train-snapshot")
        .arg(&path)
        .status()
        .map_err(|e| format!("cannot start the snapshot trainer: {e}"))?;
    let snapshot = std::fs::read(&path);
    let _ = std::fs::remove_file(&path);
    if !status.success() {
        return Err(format!("snapshot trainer failed: {status}"));
    }
    let snapshot = snapshot.map_err(|e| format!("cannot read the trained snapshot: {e}"))?;
    let (adjacency, readings, history) = corridor(args.seed, live_rows(args.seconds));
    Ok(Inputs {
        adjacency,
        readings,
        history: history_dataset(&history).data().clone(),
        snapshot,
    })
}

/// One deployment's set-up timings.
struct Deploy {
    registry: SnapshotRegistry,
    setup_secs: f64,
    snapshot_load_secs: f64,
}

/// Deploy the artifact: decode and verify the snapshot, seed the ring,
/// partition the graph, register the tenant.
fn deploy(inputs: &Inputs) -> Deploy {
    let start = Instant::now();
    let snapshot = ModelSnapshot::from_bytes(&inputs.snapshot).expect("snapshot bytes round-trip");
    let snapshot_load_secs = start.elapsed().as_secs_f64();
    let server = BatchedServer::with_history(
        snapshot,
        inputs.adjacency.clone(),
        &inputs.history,
        ServeConfig::new(SHARDS, CAPACITY),
    );
    let registry = SnapshotRegistry::new();
    registry
        .register(TENANT, server)
        .expect("a fresh registry has no tenants");
    Deploy {
        registry,
        setup_secs: start.elapsed().as_secs_f64(),
        snapshot_load_secs,
    }
}

/// Per-call replay figures (traced segment only).
#[derive(Default)]
struct Replay {
    admission_secs: f64,
    window_batch_secs: f64,
    forward_secs: f64,
    /// Σ over shards of max-shard replayed seconds: the call's critical
    /// path as far as the replay can see it.
    critical_secs: f64,
    windows_forwarded: usize,
    distinct_windows: usize,
}

/// Replay one call's shard work on the server state it was served from.
fn replay(server: &BatchedServer, model: &PgtDcrnn, queries: &[Query]) -> Replay {
    let cfg = server.config();
    let mut r = Replay::default();
    let distinct: BTreeSet<usize> = queries.iter().map(|q| q.window_end).collect();
    r.distinct_windows = distinct.len();
    let halo_row_bytes = |owned: usize| (HORIZON * (NODES - owned) * 2 * 4) as u64;
    for shard in 0..cfg.shards {
        let mut shard_secs = 0.0;
        let t = Instant::now();
        let routed: Vec<PendingRequest> = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| server.owner_of(q.node) == shard)
            .map(|(i, q)| PendingRequest {
                id: i,
                arrival_secs: q.arrival_secs,
                window_end: q.window_end,
            })
            .collect();
        let schedule = admit_and_coalesce(
            &routed,
            &cfg.queue,
            &cfg.slo,
            &BatchCost {
                halo_bytes_per_window: halo_row_bytes(
                    server.partitioning().part_nodes(shard).len(),
                ),
                flops_per_window: model.flops_per_forward(1),
                cost: CostModel::polaris(),
            },
        );
        let s = t.elapsed().as_secs_f64();
        r.admission_secs += s;
        shard_secs += s;
        for batch in &schedule.batches {
            let t = Instant::now();
            let x = server
                .window()
                .batch(&batch.windows, HORIZON)
                .expect("served windows are buffered");
            let s = t.elapsed().as_secs_f64();
            r.window_batch_secs += s;
            shard_secs += s;
            let t = Instant::now();
            std::hint::black_box(model.forward_inference(&x));
            let s = t.elapsed().as_secs_f64();
            r.forward_secs += s;
            shard_secs += s;
            r.windows_forwarded += batch.windows.len();
        }
        r.critical_secs = r.critical_secs.max(shard_secs);
    }
    r
}

/// Forecasts per wall second: the median over segments of
/// [`SEGMENT_CALLS`] iterations, or over all of them in a shorter run.
fn segmented_rate(iterations: &[(f64, u64)]) -> f64 {
    let rate = |seg: &[(f64, u64)]| {
        seg.iter().map(|i| i.1).sum::<u64>() as f64 / seg.iter().map(|i| i.0).sum::<f64>()
    };
    let full: Vec<f64> = iterations.chunks_exact(SEGMENT_CALLS).map(rate).collect();
    if full.is_empty() {
        rate(iterations)
    } else {
        median(&full)
    }
}

/// Run `serve-live` for `args.seconds` and fill the outcome.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let inputs = generate(args)?;
    let live_rows = live_rows(args.seconds);

    // Set up repeatedly, keeping only the latest deployment alive; serve
    // from the last one.
    let (mut setups, mut loads) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..DEPLOYS {
        drop(last.take());
        let d = deploy(&inputs);
        setups.push(d.setup_secs);
        loads.push(d.snapshot_load_secs);
        last = Some(d.registry);
    }
    let setup = median(&setups);
    let snapshot_load_secs = median(&loads);
    let registry = last.expect("at least one deployment");
    let reference = registry
        .get(TENANT)
        .expect("tenant registered")
        .build_model();

    let mut rng = Rng(args.seed ^ 0x5E4F_E11E);
    let mut frontier = HISTORY;
    let mut calls = 0u64;
    let mut call_secs: Vec<f64> = Vec::new();
    let mut traced_call_secs: Vec<f64> = Vec::new();
    // Per iteration: loop wall (call + ingest) and forecasts served,
    // untraced and traced.
    let mut iterations: [Vec<(f64, u64)>; 2] = [Vec::new(), Vec::new()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut lost, mut nonfinite, mut mismatched, mut checked, mut bad_ticks) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut rejected = 0usize;
    // Model and persistence (repeat the last reading) absolute errors.
    let (mut abs_err, mut persist_err, mut err_n) = (0.0f64, 0.0f64, 0u64);
    let mut replays: Vec<Replay> = Vec::new();
    let mut admit_secs = 0.0;
    let (mut batches, mut rejections, mut halo_bytes) = (0usize, 0usize, 0u64);
    let mut modeled_latency: Vec<f64> = Vec::new();
    let mut call_cpu_secs = 0.0;

    // With tracing on, the first half of the budget runs untraced (the
    // overhead reference), the second half traced.
    let run_start = Instant::now();
    let cpu_start = CpuMark::now();
    let budget = args.seconds;
    while run_start.elapsed().as_secs_f64() < budget && frontier + 1 < HISTORY + live_rows {
        let traced = args.trace && run_start.elapsed().as_secs_f64() >= budget / 2.0;
        let queries: Vec<Query> = (0..QUERIES_PER_CALL)
            .map(|id| Query {
                id,
                node: rng.below(NODES),
                window_end: frontier - rng.below(HOT_WINDOWS),
                arrival_secs: 0.0,
            })
            .collect();

        let (t, cpu) = (Instant::now(), process_cpu_secs());
        let report = registry.serve(TENANT, &queries);
        let secs = t.elapsed().as_secs_f64();
        call_cpu_secs += process_cpu_secs() - cpu;
        calls += 1;
        attempted += queries.len() as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve call failed: {e}");
                failed += queries.len() as u64;
                continue;
            }
        };

        // ── Output checks (untimed) ──────────────────────────────────
        let mut seen = vec![0u32; queries.len()];
        for id in report
            .results
            .iter()
            .map(|r| r.id)
            .chain(report.rejections.iter().map(|r| r.id))
        {
            seen[id] += 1;
        }
        let call_lost = seen.iter().filter(|&&c| c != 1).count();
        lost += call_lost;
        rejected += report.rejections.len();
        failed += report.rejections.len() as u64 + call_lost as u64;
        for r in &report.results {
            if r.forecast.iter().any(|v| !v.is_finite()) {
                nonfinite += 1;
                failed += 1;
                continue;
            }
            if calls > SCORED_CALLS {
                break;
            }
            let last = inputs.readings.at(&[r.window_end - 1, r.node, 0]);
            for (h, &v) in r.forecast.iter().enumerate() {
                let truth = inputs.readings.at(&[r.window_end + h, r.node, 0]);
                abs_err += (v - truth).abs() as f64;
                persist_err += (last - truth).abs() as f64;
                err_n += 1;
            }
        }
        if rng.next().is_multiple_of(CHECK_EVERY) && !report.results.is_empty() {
            let r = &report.results[rng.below(report.results.len())];
            let server = registry.get(TENANT).expect("tenant registered");
            let pred = server
                .predict_windows_with(&reference, &[r.window_end])
                .expect("a served window is buffered");
            let same = (0..HORIZON)
                .all(|h| pred.at(&[0, h, r.node, 0]).to_bits() == r.forecast_std[h].to_bits());
            checked += 1;
            if !same {
                mismatched += 1;
                failed += 1;
            }
        }

        // ── Replay for the per-layer split (untimed) ─────────────────
        if traced {
            let server = registry.get(TENANT).expect("tenant registered");
            replays.push(replay(&server, &reference, &queries));
            batches += report.shards.iter().map(|s| s.batches).sum::<usize>();
            rejections += report.rejections.len();
            halo_bytes += report.halo_bytes;
            modeled_latency.extend(report.results.iter().map(|r| r.latency_secs));
        }

        // ── Live ingest: the next row, one tick per node ─────────────
        let t = Instant::now();
        let mut completed = 0;
        for node in 0..NODES {
            let values = (0..2)
                .map(|f| inputs.readings.at(&[frontier, node, f]))
                .collect();
            match registry.admit_tick(
                TENANT,
                &Tick {
                    node,
                    t: frontier,
                    values,
                },
            ) {
                Ok(n) => completed += n,
                Err(e) => {
                    eprintln!("tick rejected: {e}");
                    bad_ticks += 1;
                }
            }
        }
        let ingest = t.elapsed().as_secs_f64();
        if completed != 1 {
            bad_ticks += 1;
        }
        frontier += 1;

        let seg = usize::from(traced);
        iterations[seg].push((secs + ingest, report.results.len() as u64));
        if traced {
            traced_call_secs.push(secs);
            admit_secs += ingest;
        } else {
            call_secs.push(secs);
        }
    }

    out.check(
        "every_query_answered_once",
        lost == 0,
        format!("{lost} queries not in exactly one of results/rejections"),
    );
    out.check(
        "no_rejections",
        rejected == 0,
        format!("{rejected} queries rejected; the default ServeConfig never sheds"),
    );
    out.check(
        "forecasts_finite",
        nonfinite == 0,
        format!("{nonfinite} forecasts with a non-finite value"),
    );
    out.check(
        "forecasts_match_predict_windows",
        mismatched == 0 && checked > 0,
        format!("{mismatched} of {checked} sampled forecasts differ bitwise from BatchedServer::predict_windows"),
    );
    out.check(
        "ticks_admitted",
        bad_ticks == 0,
        format!("{bad_ticks} tick rows not admitted as exactly one row"),
    );
    out.attempted = attempted;
    out.failed = failed + bad_ticks as u64;

    out.info("serve_calls", calls);
    out.info("queries_per_call", QUERIES_PER_CALL);
    out.info("hot_windows", HOT_WINDOWS);
    out.info("sampled_checks", checked);
    out.info("scored_forecasts", err_n / HORIZON as u64);
    let (tail_p, tail_s) = tail(&call_secs, TAIL_PERCENTILE);
    out.info("call_samples", call_secs.len());
    out.info("op_tail_percentile", tail_p);
    out.info("op_percentiles_ms", percentiles_ms(&call_secs));
    out.info(
        "host_steal_share",
        CpuMark::now().steal_share_since(&cpu_start),
    );
    out.info("cpu_ms_per_call", call_cpu_secs * 1e3 / calls.max(1) as f64);
    let throughput = segmented_rate(&iterations[0]);
    let p50 = median(&call_secs);
    if !args.trace {
        out.metric("setup_s", setup);
        out.metric("samples_per_s", throughput);
        out.metric("op_p50_ms", p50 * 1e3);
        out.metric("op_tail_ms", tail_s * 1e3);
        out.metric("forecast_mae", abs_err / err_n.max(1) as f64);
        out.metric(
            "forecast_mae_ratio",
            abs_err / persist_err.max(f64::MIN_POSITIVE),
        );
        return Ok(());
    }

    let n = replays.len().max(1) as f64;
    out.info("traced_calls", replays.len());
    out.info(
        "overhead_samples_per_s_ratio",
        segmented_rate(&iterations[1]) / throughput,
    );
    out.info("overhead_op_p50_ratio", median(&traced_call_secs) / p50);
    let mean = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / n;
    out.metric("st_models.forward_inference_s", mean(&|r| r.forward_secs));
    out.metric("st_serve.admission_s", mean(&|r| r.admission_secs));
    out.metric("st_serve.window_batch_s", mean(&|r| r.window_batch_secs));
    out.metric(
        "st_serve.call_overhead_s",
        (traced_call_secs.iter().sum::<f64>()
            - replays.iter().map(|r| r.critical_secs).sum::<f64>())
            / n,
    );
    out.metric("st_serve.admit_tick_s", admit_secs / n);
    out.metric("st_serve.admit_tick_calls", NODES as f64);
    let forwarded: usize = replays.iter().map(|r| r.windows_forwarded).sum();
    let distinct: usize = replays.iter().map(|r| r.distinct_windows).sum();
    out.metric("st_serve.windows_forwarded", forwarded as f64 / n);
    out.metric(
        "st_serve.window_dup_ratio",
        forwarded as f64 / distinct.max(1) as f64,
    );
    out.metric("st_serve.batches", batches as f64 / n);
    out.metric("st_serve.rejections", rejections as f64 / n);
    out.metric("st_serve.halo_bytes", halo_bytes as f64 / n);
    out.metric(
        "st_serve.modeled_p99_us",
        percentile(&modeled_latency, 99.0) * 1e6,
    );
    out.metric("st_serve.deploy_s", setup);
    out.metric("st_serve.snapshot_load_s", snapshot_load_secs);
    // One replay each of the graph work a deploy and a call's replica
    // rebuild run.
    let server = registry.get(TENANT).expect("tenant registered");
    let t = Instant::now();
    std::hint::black_box(server.config().partitioner.partition(
        &inputs.adjacency,
        None,
        SHARDS,
        HORIZON,
    ));
    out.metric("st_graph.partition_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    std::hint::black_box(diffusion_supports(&inputs.adjacency, 2));
    out.metric("st_graph.supports_s", t.elapsed().as_secs_f64());
    Ok(())
}
