//! Reproduce **Figure 7** and the §5.3.1 headline numbers: the PeMS scaling
//! study at 4–128 GPUs — baseline DDP (computation + data communication)
//! vs distributed-index-batching (computation only) vs linear scaling.
//!
//! Paper-scale minutes come from the calibrated projection; a measured
//! mini-run (2 and 4 workers on scaled data, real threads and collectives)
//! validates the projection's *ordering* on this machine.

use pgt_index::baseline_ddp::run_baseline_ddp;
use pgt_index::dist_index::{run_distributed_index, DistConfig};
use pgt_index::projection::{project_scaling, project_table4, ProjectionParams};
use pgt_index::workflow::{pgt_dcrnn, pgt_dcrnn_factory};
use st_bench::{emit_records, minutes};
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::synthetic;
use st_report::record::RecordSet;
use st_report::table::Table;

fn main() {
    let spec = DatasetSpec::get(DatasetKind::Pems);
    let params = ProjectionParams::default();
    let worlds = [4usize, 8, 16, 32, 64, 128];
    let pts = project_scaling(&params, &spec, 30, 64, &worlds);

    let mut table = Table::new(
        "Fig 7 — PeMS scaling study, 30 epochs (projected minutes)",
        &[
            "GPUs",
            "DDP total",
            "DDP compute",
            "DDP data comm",
            "Index total",
            "Index pre",
            "Linear (ideal)",
        ],
    );
    let base_total = pts[0].index_total();
    for p in &pts {
        let linear = base_total * pts[0].gpus as f64 / p.gpus as f64;
        table.row(&[
            p.gpus.to_string(),
            format!("{:.1}", minutes(p.ddp_total())),
            format!("{:.1}", minutes(p.ddp_compute)),
            format!("{:.1}", minutes(p.ddp_comm)),
            format!("{:.1}", minutes(p.index_total())),
            format!("{:.2}", minutes(p.index_pre)),
            format!("{:.1}", minutes(linear)),
        ]);
    }
    println!("{}", table.to_text());

    // Headlines.
    let (single_total, _) = project_table4(&params, &spec, 30);
    let p128 = pts.last().unwrap();
    let total_speedup = single_total / p128.index_total();
    let train_speedup = (single_total - params.pre_index_secs) / p128.index_train;
    let r4 = pts[0].ddp_total() / pts[0].index_total();
    let r128 = p128.ddp_total() / p128.index_total();
    println!(
        "headlines: total speedup @128 = {total_speedup:.1}x (paper 79.41x); \
         training speedup @128 = {train_speedup:.1}x (paper 115.49x);"
    );
    println!(
        "           index vs DDP = {r4:.2}x @4 GPUs (paper 2.16x), {r128:.2}x @128 GPUs (paper 11.78x)"
    );

    // --- Measured validation on this machine (scaled data, real threads). ---
    let small = spec.scaled(st_bench::DIST_SCALE);
    let sig = synthetic::generate(&small, st_bench::SEED);
    let mut cfg = DistConfig::new(2, 1, small.horizon);
    cfg.batch_per_worker = 8;
    cfg.time_period = Some(small.period);
    let factory = pgt_dcrnn_factory(&sig, small.horizon, 8, st_bench::SEED);
    let index = run_distributed_index(&sig, &cfg, &factory);
    // Speed plus the time-of-day feature: two input channels.
    let ddp = run_baseline_ddp(&sig, &cfg, |_| {
        Box::new(pgt_dcrnn(&sig, 2, small.horizon, 8, st_bench::SEED))
    });
    println!(
        "\nmeasured mini-run (2 workers, scaled PeMS): index comm {:.4}s vs DDP comm {:.4}s \
         (sim); data bytes: index {} vs DDP {}",
        index.sim_comm_secs, ddp.sim_comm_secs, index.bytes_moved, ddp.bytes_moved
    );

    let mut records = RecordSet::new();
    records.push(
        "Fig 7",
        "dist-index vs DDP @4 GPUs",
        "2.16x",
        format!("{r4:.2}x"),
        (1.5..3.0).contains(&r4),
        "calibrated projection",
    );
    records.push(
        "Fig 7",
        "dist-index vs DDP @128 GPUs",
        "11.78x",
        format!("{r128:.2}x"),
        (8.0..16.0).contains(&r128),
        "",
    );
    records.push(
        "§5.3.1",
        "total speedup @128 GPUs vs 1 GPU",
        "79.41x",
        format!("{total_speedup:.1}x"),
        (55.0..110.0).contains(&total_speedup),
        "",
    );
    records.push(
        "§5.3.1",
        "training-only speedup @128 GPUs",
        "115.49x",
        format!("{train_speedup:.1}x"),
        (70.0..160.0).contains(&train_speedup),
        "",
    );
    let lin8 = pts[0].index_train / pts[1].index_train;
    records.push(
        "Fig 7",
        "near-linear training scaling 4→8 GPUs",
        "≈2x",
        format!("{lin8:.2}x"),
        lin8 > 1.8,
        "fixed costs erode efficiency at 64–128 GPUs as in the paper",
    );
    records.push(
        "Fig 7",
        "measured: DDP moves more data than dist-index",
        "communication eliminated",
        format!("{} vs {} bytes", ddp.bytes_moved, index.bytes_moved),
        ddp.bytes_moved > index.bytes_moved,
        "2-worker real run on scaled data",
    );
    emit_records("Fig 7 — scaling study", &records);
}
