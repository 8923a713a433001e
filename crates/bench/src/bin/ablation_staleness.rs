//! Ablation: bounded-staleness gradient sync under straggler skew.
//!
//! Sweeps the staleness bound `s` × world size × injected straggler skew on
//! the distributed-index plane. `s = 0` is the synchronous path — every
//! rank's clock rendezvouses at each collective, so a straggler ramp
//! stretches every step. `s ≥ 1` lets each rank apply a bucket's averaged
//! gradient up to `s` steps after it was issued: the collective is still
//! barrier-matched (contents identical across ranks), but fast ranks ride
//! ahead on the `OverlapLedger`'s deadline streams and only pay a hard
//! fence when a payload's age would exceed the bound.
//!
//! Asserts the headline claim: at world ≥ 4 under straggler skew, every
//! `s ≥ 1` row's modeled total time is strictly below the `s = 0` row, and
//! small-`s` convergence (best val MAE) stays within tolerance of the
//! synchronous run. Results are also emitted as
//! `target/BENCH_staleness.json` so CI accumulates a perf trajectory.
//!
//! `--smoke` (or `PGT_SMOKE=1`) shrinks the workload for CI.

use pgt_index::dist_index::run_distributed_index;
use pgt_index::workflow::pgt_dcrnn_factory;
use pgt_index::{DistConfig, EngineReport};
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::synthetic;
use st_report::table::Table;

struct Row {
    world: usize,
    skew: f64,
    staleness: usize,
    total_s: f64,
    speedup: f64,
    best_val_mae: f32,
    stale_applied: u64,
    fence_stalls: u64,
}

fn counters(r: &EngineReport) -> (u64, u64) {
    r.epochs.iter().fold((0, 0), |(sa, fs), e| {
        (sa + e.stale_steps_applied, fs + e.fence_stalls)
    })
}

fn main() {
    let smoke = st_bench::smoke() || std::env::args().any(|a| a == "--smoke");
    let epochs = if smoke { 2 } else { 3 };
    let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
    let sig = synthetic::generate(&spec, st_bench::SEED);
    let factory = pgt_dcrnn_factory(&sig, spec.horizon, 8, st_bench::SEED);

    let worlds: &[usize] = &[2, 4];
    let skews: &[f64] = if smoke { &[0.5] } else { &[0.3, 0.5] };
    let bounds: &[usize] = &[0, 1, 2];

    let mut rows: Vec<Row> = Vec::new();
    for &world in worlds {
        for &skew in skews {
            let mut sync_total = f64::NAN;
            for &s in bounds {
                let mut cfg = DistConfig::new(world, epochs, spec.horizon);
                cfg.batch_per_worker = 2;
                cfg.staleness = s;
                cfg.straggler_skew = skew;
                let r = run_distributed_index(&sig, &cfg, &factory);
                if s == 0 {
                    sync_total = r.sim_total_secs;
                }
                let (stale_applied, fence_stalls) = counters(&r);
                rows.push(Row {
                    world,
                    skew,
                    staleness: s,
                    total_s: r.sim_total_secs,
                    speedup: sync_total / r.sim_total_secs,
                    best_val_mae: r.best_val_mae(),
                    stale_applied,
                    fence_stalls,
                });
            }
        }
    }

    let mut table = Table::new(
        "Ablation: bounded-staleness gradient sync vs the synchronous rendezvous",
        &[
            "world",
            "skew",
            "s",
            "total s",
            "speedup",
            "best val MAE",
            "stale applied",
            "fence stalls",
        ],
    );
    for r in &rows {
        table.row(&[
            r.world.to_string(),
            format!("{:.1}", r.skew),
            r.staleness.to_string(),
            format!("{:.9}", r.total_s),
            format!("{:.3}×", r.speedup),
            format!("{:.4}", r.best_val_mae),
            r.stale_applied.to_string(),
            r.fence_stalls.to_string(),
        ]);
    }
    println!("{}", table.to_text());

    // JSON artifact for the perf trajectory.
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"world\": {}, \"skew\": {:.2}, \"staleness\": {}, \
                 \"total_s\": {:.9}, \"speedup_vs_sync\": {:.4}, \
                 \"best_val_mae\": {:.6}, \"stale_steps_applied\": {}, \
                 \"fence_stalls\": {}}}",
                r.world,
                r.skew,
                r.staleness,
                r.total_s,
                r.speedup,
                r.best_val_mae,
                r.stale_applied,
                r.fence_stalls
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ablation_staleness\",\n  \"smoke\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        smoke,
        json_rows.join(",\n")
    );
    let _ = std::fs::create_dir_all("target");
    let path = std::path::Path::new("target").join("BENCH_staleness.json");
    std::fs::write(&path, &json).expect("write BENCH_staleness.json");
    println!("wrote {}", path.display());

    // The acceptance claims.
    for &world in worlds {
        for &skew in skews {
            let at = |s: usize| {
                rows.iter()
                    .find(|r| r.world == world && r.skew == skew && r.staleness == s)
                    .unwrap()
            };
            let sync = at(0);
            assert_eq!(
                (sync.stale_applied, sync.fence_stalls),
                (0, 0),
                "w{world} skew {skew}: s = 0 must never defer or fence"
            );
            for &s in &bounds[1..] {
                let stale = at(s);
                // Riding out skew inside the window never loses to the
                // per-step rendezvous...
                assert!(
                    stale.total_s <= sync.total_s,
                    "w{world} skew {skew} s{s}: staleness ({}) must never lose to sync ({})",
                    stale.total_s,
                    sync.total_s
                );
                // ...and strictly wins once there are enough ranks for the
                // straggler ramp to dominate the rendezvous.
                if world >= 4 {
                    assert!(
                        stale.total_s < sync.total_s,
                        "w{world} skew {skew} s{s}: staleness ({}) must strictly beat sync ({})",
                        stale.total_s,
                        sync.total_s
                    );
                }
                // Small-s convergence stays in the synchronous run's
                // neighborhood.
                assert!(
                    (stale.best_val_mae - sync.best_val_mae).abs() <= 0.5 * sync.best_val_mae,
                    "w{world} skew {skew} s{s}: val MAE drifted: {} vs {}",
                    stale.best_val_mae,
                    sync.best_val_mae
                );
            }
        }
    }
    println!(
        "Reading: s = 0 is the synchronous rendezvous — straggler skew \
         stretches every step and the counters stay at zero. With s ≥ 1 the \
         collectives stay barrier-matched (identical contents) but each rank \
         applies payloads up to s steps late, hiding wire time behind the \
         next steps' fetch + compute; fences fire only when a payload's age \
         would exceed the bound. At this miniature scale modeled compute is \
         tiny against Polaris flops, so the skew ramp moves totals in the \
         trailing digits while the bulk of the win comes from un-exposing \
         the per-step collective."
    );
}
