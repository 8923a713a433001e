//! Out-of-core data-plane gate: chunked columnar storage + wire codecs.
//!
//! Exercises the PR's storage stack on the `ablation_overlap` workload
//! (PemsBay scaled to `DIST_SCALE`) and asserts the three claims that make
//! out-of-core streaming trustworthy, so CI fails when any regresses:
//!
//! - **Bounded residency** — streaming a full epoch of index-batched
//!   windows from a chunked store whose file is larger than its cache
//!   ceiling keeps peak decoded-chunk bytes ≤ the ceiling.
//! - **Bitwise losslessness** — a distributed run over chunked-lossless
//!   storage reproduces the in-memory run's per-epoch losses and val MAE
//!   bit for bit (the storage backend is a pure layout choice).
//! - **Wire compression** — baseline-DDP's data-plane ledger shrinks ≥2×
//!   under `WireCodec::F16` (exactly 2× by construction) and ≥2× under
//!   `WireCodec::DeltaI8`, with bounded val-MAE drift.
//!
//! Results land in `target/BENCH_data.json` next to the kernels / overlap /
//! partition / staleness artifacts. `--smoke` (or `PGT_SMOKE=1`) shrinks
//! epochs for CI.

use pgt_index::dist_index::run_distributed_index;
use pgt_index::workflow::{pgt_dcrnn, pgt_dcrnn_factory};
use pgt_index::{DistConfig, EngineReport, IndexDataset};
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::splits::SplitRatios;
use st_data::storage::{ChunkedSpec, StorageSpec};
use st_data::synthetic;
use st_dist::wire::WireCodec;
use st_report::table::Table;
use std::time::Instant;

fn run(
    sig: &st_data::signal::StaticGraphTemporalSignal,
    horizon: usize,
    epochs: usize,
    storage: StorageSpec,
) -> EngineReport {
    let mut cfg = DistConfig::new(2, epochs, horizon);
    cfg.batch_per_worker = 8;
    cfg.storage = storage;
    run_distributed_index(
        sig,
        &cfg,
        pgt_dcrnn_factory(sig, horizon, 8, st_bench::SEED),
    )
}

fn run_ddp(
    sig: &st_data::signal::StaticGraphTemporalSignal,
    horizon: usize,
    epochs: usize,
    wire: WireCodec,
) -> EngineReport {
    let mut cfg = DistConfig::new(2, epochs, horizon);
    cfg.batch_per_worker = 8;
    cfg.wire_codec = wire;
    pgt_index::baseline_ddp::run_baseline_ddp(sig, &cfg, |_| {
        Box::new(pgt_dcrnn(
            sig,
            sig.num_features(),
            horizon,
            8,
            st_bench::SEED,
        ))
    })
}

fn loss_bits(r: &EngineReport) -> Vec<(u32, u32)> {
    r.epochs
        .iter()
        .map(|e| (e.train_loss.to_bits(), e.val_mae.to_bits()))
        .collect()
}

/// Stream one epoch of training batches straight off a dataset, returning
/// wall seconds (storage cost only — no model, so the IO delta is visible).
fn stream_epoch(ds: &IndexDataset, batch: usize) -> f64 {
    let ids: Vec<usize> = ds.splits().train.clone().collect();
    let t = Instant::now();
    let mut sink = 0.0f32;
    for chunk in ids.chunks(batch) {
        let (x, _, _) = ds.batch_quoted(chunk);
        sink += x.at(&[0, 0, 0, 0]);
    }
    std::hint::black_box(sink);
    t.elapsed().as_secs_f64()
}

fn main() {
    let smoke = st_bench::smoke() || std::env::args().any(|a| a == "--smoke");
    let epochs = if smoke { 1 } else { 2 };
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(st_bench::DIST_SCALE);
    let sig = synthetic::generate(&spec, st_bench::SEED);

    // ── Claim 1: residency stays under the cache ceiling ───────────────
    // A ceiling of ~1/8 of the signal guarantees the dataset cannot fit:
    // the epoch must keep evicting, and peak resident must still respect
    // the bound.
    let signal_bytes = sig.size_bytes(4);
    let cache_bytes = (signal_bytes / 8).max(4096);
    let chunk_spec = ChunkedSpec::new(16).with_cache_bytes(cache_bytes);
    let in_mem_ds = IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None);
    let chunked_ds = in_mem_ds.rechunk(StorageSpec::Chunked(chunk_spec));
    let store = chunked_ds
        .storage()
        .chunked()
        .expect("rechunk produced a chunked store")
        .clone();
    assert!(
        store.file_bytes() > cache_bytes as u64,
        "dataset ({} B on disk) must exceed the cache ceiling ({cache_bytes} B) \
         for the residency claim to mean anything",
        store.file_bytes()
    );
    let mem_wall = stream_epoch(&in_mem_ds, 8);
    let chunked_wall = stream_epoch(&chunked_ds, 8);
    let peak = store.peak_resident_bytes();
    assert!(
        peak <= cache_bytes as u64,
        "peak resident {peak} B exceeded the configured cache ceiling {cache_bytes} B"
    );
    assert!(peak > 0, "the streamed epoch must have decoded something");

    // ── Claim 2: chunked-lossless is bit-identical on the engine ───────
    let r_mem = run(&sig, spec.horizon, epochs, StorageSpec::InMemory);
    let r_chunk = run(
        &sig,
        spec.horizon,
        epochs,
        StorageSpec::Chunked(ChunkedSpec::new(16).with_cache_bytes(cache_bytes)),
    );
    assert_eq!(
        loss_bits(&r_mem),
        loss_bits(&r_chunk),
        "chunked-lossless training must be bit-identical to in-memory"
    );

    // ── Claim 3: wire codecs shrink the data-plane ledger ≥2× ──────────
    let d_raw = run_ddp(&sig, spec.horizon, epochs, WireCodec::Lossless);
    let d_f16 = run_ddp(&sig, spec.horizon, epochs, WireCodec::F16);
    let d_i8 = run_ddp(&sig, spec.horizon, epochs, WireCodec::DeltaI8);
    let f16_ratio = d_raw.data_plane_bytes as f64 / d_f16.data_plane_bytes.max(1) as f64;
    let i8_ratio = d_raw.data_plane_bytes as f64 / d_i8.data_plane_bytes.max(1) as f64;
    assert!(
        f16_ratio >= 2.0,
        "F16 must at least halve data-plane bytes (got {f16_ratio:.2}×)"
    );
    assert!(
        i8_ratio >= 2.0,
        "DeltaI8 must at least halve data-plane bytes (got {i8_ratio:.2}×)"
    );
    let raw_mae = d_raw.best_val_mae();
    let f16_drift = (d_f16.best_val_mae() - raw_mae).abs() / raw_mae.abs().max(1e-6);
    let i8_drift = (d_i8.best_val_mae() - raw_mae).abs() / raw_mae.abs().max(1e-6);
    assert!(
        f16_drift < 0.05,
        "F16 val-MAE drift {f16_drift:.4} out of bounds"
    );
    assert!(
        i8_drift < 0.25,
        "DeltaI8 val-MAE drift {i8_drift:.4} out of bounds"
    );

    let mut table = Table::new(
        "Out-of-core storage & wire compression (pems-bay scaled)",
        &["metric", "value"],
    );
    table.row(&["signal bytes (f32)".into(), format!("{signal_bytes}")]);
    table.row(&["chunk file bytes".into(), format!("{}", store.file_bytes())]);
    table.row(&["cache ceiling B".into(), format!("{cache_bytes}")]);
    table.row(&["peak resident B".into(), format!("{peak}")]);
    table.row(&["stream epoch (mem)".into(), format!("{mem_wall:.4}s")]);
    table.row(&[
        "stream epoch (chunked)".into(),
        format!("{chunked_wall:.4}s"),
    ]);
    table.row(&["chunked == in-memory".into(), "bit-identical losses".into()]);
    table.row(&[
        "ddp bytes (lossless)".into(),
        format!("{}", d_raw.data_plane_bytes),
    ]);
    table.row(&[
        "ddp bytes (f16)".into(),
        format!("{} ({f16_ratio:.2}×)", d_f16.data_plane_bytes),
    ]);
    table.row(&[
        "ddp bytes (delta-i8)".into(),
        format!("{} ({i8_ratio:.2}×)", d_i8.data_plane_bytes),
    ]);
    table.row(&["val-MAE drift f16".into(), format!("{f16_drift:.4}")]);
    table.row(&["val-MAE drift delta-i8".into(), format!("{i8_drift:.4}")]);
    println!("{}", table.to_text());

    let json = format!(
        "{{\n  \"bench\": \"bench_data\",\n  \"smoke\": {smoke},\n  \
         \"residency\": {{\"signal_bytes\": {signal_bytes}, \"file_bytes\": {}, \
         \"cache_bytes\": {cache_bytes}, \"peak_resident_bytes\": {peak}, \
         \"stream_epoch_mem_s\": {mem_wall:.6}, \"stream_epoch_chunked_s\": {chunked_wall:.6}}},\n  \
         \"lossless\": {{\"bit_identical\": true, \"epochs\": {epochs}}},\n  \
         \"wire\": {{\"lossless_bytes\": {}, \"f16_bytes\": {}, \"f16_ratio\": {f16_ratio:.4}, \
         \"delta_i8_bytes\": {}, \"delta_i8_ratio\": {i8_ratio:.4}, \
         \"val_mae_lossless\": {raw_mae:.6}, \"f16_drift\": {f16_drift:.6}, \
         \"delta_i8_drift\": {i8_drift:.6}}}\n}}\n",
        store.file_bytes(),
        d_raw.data_plane_bytes,
        d_f16.data_plane_bytes,
        d_i8.data_plane_bytes,
    );
    let _ = std::fs::create_dir_all("target");
    let path = std::path::Path::new("target").join("BENCH_data.json");
    std::fs::write(&path, &json).expect("write BENCH_data.json");
    println!("wrote {}", path.display());
}
