//! Distributed-index-batching vs baseline DDP on a simulated cluster.
//!
//! ```text
//! cargo run --release --example distributed_training
//! ```
//!
//! Spawns real worker threads with real collectives (gradients genuinely
//! all-reduce across replicas), trains the same model under both data
//! strategies, and prints the communication ledger that explains Fig. 7:
//! baseline DDP ships sample data every batch; distributed-index-batching
//! ships only gradients.

use pgt_i::core::baseline_ddp::run_baseline_ddp;
use pgt_i::core::dist_index::{run_distributed_index, DistConfig};
use pgt_i::core::workflow::{pgt_dcrnn, pgt_dcrnn_factory};
use pgt_i::data::datasets::{DatasetKind, DatasetSpec};
use pgt_i::data::synthetic;

fn main() {
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(0.015);
    let sig = synthetic::generate(&spec, 42);
    println!(
        "simulated cluster: Polaris-style nodes (4 GPUs/node); dataset {}x{} entries\n",
        spec.nodes, spec.entries
    );

    for world in [1usize, 2, 4] {
        let mut cfg = DistConfig::new(world, 3, spec.horizon);
        cfg.batch_per_worker = 8;
        cfg.time_period = Some(spec.period);

        let factory = pgt_dcrnn_factory(&sig, spec.horizon, 12, 42);
        let index = run_distributed_index(&sig, &cfg, &factory);
        // Speed plus the time-of-day feature: two input channels.
        let ddp = run_baseline_ddp(&sig, &cfg, |_| {
            Box::new(pgt_dcrnn(&sig, 2, spec.horizon, 12, 42))
        });

        println!(
            "=== {world} worker(s), global batch {} ===",
            cfg.global_batch()
        );
        println!(
            "  dist-index : val MAE {:.3} | sim compute {:>7.3}s | sim comm {:>7.3}s | {:>12} bytes moved",
            index.best_val_mae(),
            index.sim_compute_secs,
            index.sim_comm_secs,
            index.bytes_moved
        );
        println!(
            "  baseline DDP: val MAE {:.3} | sim compute {:>7.3}s | sim comm {:>7.3}s | {:>12} bytes moved",
            ddp.best_val_mae(),
            ddp.sim_compute_secs,
            ddp.sim_comm_secs,
            ddp.bytes_moved
        );
        if world > 1 {
            // Gradient traffic is identical on both sides; the *data plane*
            // is where they differ (the crux of Fig. 7).
            println!(
                "  -> data plane: dist-index {} bytes (none — full local copies) vs DDP {} bytes of on-demand sample fetches\n",
                index.data_plane_bytes, ddp.data_plane_bytes
            );
        } else {
            println!();
        }
    }
}
