//! Kernel-backend regression gate: tiled vs reference, pinned.
//!
//! Times the `st_tensor` compute backends against each other on the dense
//! kernels the DCRNN step is made of — square matmul, the seq2seq-unroll
//! shared-rhs bmm (one GEMM over the batch's rows), and the fused
//! `bias+σ/tanh` gate tail — then runs the same PGT-DCRNN workload
//! `ablation_overlap` drives (PemsBay scaled to `DIST_SCALE`) end-to-end
//! under each backend and compares wall time. A second end-to-end row runs
//! the perfbench `train-index` shape (a 96-node highway corridor, h32,
//! world 2, smoke-sized entries). An informational row times the DCGRU
//! weight-gradient GEMM `Aᵀ·G` on the tiled backend with `Aᵀ` read in place
//! versus gathered by `transpose().contiguous()` first. The tiled backend's
//! micro-kernel path (`avx2` or `portable`) is printed and recorded.
//!
//! Three claims are asserted in-binary so CI fails the build when a
//! regression lands:
//!
//! - the tiled backend is ≥ 1.5× the reference on 256×256×256 matmul;
//! - the tiled backend's end-to-end wall time beats the reference on the
//!   distributed training workload, with **bit-identical** losses;
//! - the tiled backend is ≥ 1.3× the reference end to end on the 96-node
//!   corridor, again with bit-identical losses.
//!
//! Results are emitted as `target/BENCH_kernels.json` next to the other
//! perf-trajectory artifacts. `--smoke` (or `PGT_SMOKE=1`) shrinks reps
//! for CI.

use pgt_index::dist_index::run_distributed_index;
use pgt_index::workflow::pgt_dcrnn_factory;
use pgt_index::{DistConfig, EngineReport};
use st_data::datasets::{DatasetKind, DatasetSpec};
use st_data::signal::StaticGraphTemporalSignal;
use st_data::synthetic::{self, traffic};
use st_graph::generators;
use st_report::table::Table;
use st_tensor::backend::{kernels_for, micro_kernel, Activation, BackendKind, Kernels, MatRef};
use st_tensor::random::{rng_from_seed, uniform};
use std::time::Instant;

struct Row {
    kernel: &'static str,
    size: String,
    ref_ns: f64,
    tiled_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ref_ns / self.tiled_ns
    }
}

/// Best-of-`reps` nanoseconds for one closure call.
fn best_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
    }
    best
}

fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: backends disagree at element {i}: {x} vs {y}"
        );
    }
}

fn time_matmul(rows: &mut Vec<Row>, reps: usize, n: usize) {
    let mut rng = rng_from_seed(7);
    let a = uniform([n, n], -1.0, 1.0, &mut rng);
    let b = uniform([n, n], -1.0, 1.0, &mut rng);
    let (av, bv) = (a.to_vec(), b.to_vec());
    let reference: &dyn Kernels = kernels_for(BackendKind::Reference);
    let tiled: &dyn Kernels = kernels_for(BackendKind::Tiled);
    // Kernels are called on zeroed buffers (the public ops' contract), so
    // each rep re-zeros; the fill is symmetric noise on both sides.
    let mut cr = vec![0.0f32; n * n];
    let mut ct = vec![0.0f32; n * n];
    let (av, bv) = (MatRef::row_major(&av, n, n), MatRef::row_major(&bv, n, n));
    let ref_ns = best_ns(reps, || {
        cr.fill(0.0);
        reference.matmul(av, bv, &mut cr, n, n, n)
    });
    let tiled_ns = best_ns(reps, || {
        ct.fill(0.0);
        tiled.matmul(av, bv, &mut ct, n, n, n)
    });
    assert_bits_equal(&cr, &ct, "matmul");
    rows.push(Row {
        kernel: "matmul",
        size: format!("{n}x{n}x{n}"),
        ref_ns,
        tiled_ns,
    });
}

fn time_bmm(rows: &mut Vec<Row>, reps: usize, bs: usize, m: usize, k: usize, n: usize) {
    // The seq2seq-unroll shape: a per-step [B, N, K·io] activation against
    // one shared [K·io, H] weight. `ops::bmm` lowers it to one GEMM over
    // the batch's [B·N, K·io] rows, so the weight is packed once.
    let mut rng = rng_from_seed(8);
    let a = uniform([bs, m, k], -1.0, 1.0, &mut rng);
    let b = uniform([k, n], -1.0, 1.0, &mut rng);
    let (av, bv) = (a.to_vec(), b.to_vec());
    let reference: &dyn Kernels = kernels_for(BackendKind::Reference);
    let tiled: &dyn Kernels = kernels_for(BackendKind::Tiled);
    let mut cr = vec![0.0f32; bs * m * n];
    let mut ct = vec![0.0f32; bs * m * n];
    let (av, bv) = (
        MatRef::row_major(&av, bs * m, k),
        MatRef::row_major(&bv, k, n),
    );
    let ref_ns = best_ns(reps, || {
        cr.fill(0.0);
        reference.matmul(av, bv, &mut cr, bs * m, k, n)
    });
    let tiled_ns = best_ns(reps, || {
        ct.fill(0.0);
        tiled.matmul(av, bv, &mut ct, bs * m, k, n)
    });
    assert_bits_equal(&cr, &ct, "bmm");
    rows.push(Row {
        kernel: "bmm_shared_rhs",
        size: format!("{bs}x{m}x{k}x{n}"),
        ref_ns,
        tiled_ns,
    });
}

/// Tiled-backend time for the weight-gradient GEMM `dW[b] = X[b]ᵀ·G[b]`
/// (`X: [bs, m, k]`, `G: [bs, m, n]`): `Aᵀ` gathered by
/// `transpose().contiguous()` and then multiplied, versus read in place.
/// Returns `(copy_ns, in_place_ns)`.
fn time_transposed_lhs(reps: usize, bs: usize, m: usize, k: usize, n: usize) -> (f64, f64) {
    let mut rng = rng_from_seed(10);
    let x = uniform([bs, m, k], -1.0, 1.0, &mut rng);
    let g = uniform([bs, m, n], -1.0, 1.0, &mut rng);
    let gv = g.to_vec();
    let xv = x.to_vec();
    let tiled: &dyn Kernels = kernels_for(BackendKind::Tiled);
    let g_ref = MatRef::row_major(&gv, m, n);
    let mut cc = vec![0.0f32; bs * k * n];
    let mut ci = vec![0.0f32; bs * k * n];
    let copy_ns = best_ns(reps, || {
        cc.fill(0.0);
        let at = x.transpose(1, 2).expect("rank 3").contiguous();
        let at = MatRef::row_major(at.as_slice().expect("contiguous"), k, m);
        tiled.bmm(at, g_ref, &mut cc, bs, k, m, n)
    });
    let in_place_ns = best_ns(reps, || {
        ci.fill(0.0);
        tiled.bmm(MatRef::col_major(&xv, k, m), g_ref, &mut ci, bs, k, m, n)
    });
    assert_bits_equal(&cc, &ci, "transposed lhs");
    (copy_ns, in_place_ns)
}

fn time_fused_gate(rows: &mut Vec<Row>, reps: usize, elems: usize, width: usize) {
    // The DCRNN gate tail: `z + bias` then σ, fused into one pass by the
    // tiled backend vs the reference's two materializing passes.
    let mut rng = rng_from_seed(9);
    let z = uniform([elems / width, width], -2.0, 2.0, &mut rng).to_vec();
    let bias = uniform([width], -0.5, 0.5, &mut rng).to_vec();
    let reference: &dyn Kernels = kernels_for(BackendKind::Reference);
    let tiled: &dyn Kernels = kernels_for(BackendKind::Tiled);
    let mut yr = vec![0.0f32; z.len()];
    let mut yt = vec![0.0f32; z.len()];
    let ref_ns = best_ns(reps, || {
        reference.bias_act(&z, &bias, &mut yr, Activation::Sigmoid)
    });
    let tiled_ns = best_ns(reps, || {
        tiled.bias_act(&z, &bias, &mut yt, Activation::Sigmoid)
    });
    assert_bits_equal(&yr, &yt, "bias_act");
    rows.push(Row {
        kernel: "fused_gate",
        size: format!("{}x{width}", elems / width),
        ref_ns,
        tiled_ns,
    });
}

/// One end-to-end distributed PGT-DCRNN run on `sig` under `backend`,
/// returning (wall seconds, per-epoch loss bits).
fn e2e_run(
    sig: &StaticGraphTemporalSignal,
    mut cfg: DistConfig,
    backend: BackendKind,
    hidden: usize,
) -> (EngineReport, Vec<u32>) {
    cfg.batch_per_worker = 8;
    cfg.backend = backend;
    let factory = pgt_dcrnn_factory(sig, cfg.horizon, hidden, st_bench::SEED);
    let r = run_distributed_index(sig, &cfg, factory);
    let bits = r.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
    (r, bits)
}

/// Best-of-`tries` end-to-end wall seconds `(reference, tiled)` for one
/// workload, alternating backends; every run's losses must be
/// bit-identical.
fn e2e_compare(
    sig: &StaticGraphTemporalSignal,
    cfg: &DistConfig,
    hidden: usize,
    tries: usize,
) -> (f64, f64) {
    let mut ref_wall = f64::INFINITY;
    let mut tiled_wall = f64::INFINITY;
    let mut ref_bits: Option<Vec<u32>> = None;
    for _ in 0..tries {
        let (r, bits) = e2e_run(sig, cfg.clone(), BackendKind::Reference, hidden);
        match &ref_bits {
            None => ref_bits = Some(bits),
            Some(prev) => assert_eq!(prev, &bits, "reference e2e must be deterministic"),
        }
        ref_wall = ref_wall.min(r.wall_secs);
        let (t, tbits) = e2e_run(sig, cfg.clone(), BackendKind::Tiled, hidden);
        assert_eq!(
            ref_bits.as_ref().unwrap(),
            &tbits,
            "tiled e2e losses must be bit-identical to reference"
        );
        tiled_wall = tiled_wall.min(t.wall_secs);
    }
    (ref_wall, tiled_wall)
}

fn main() {
    let smoke = st_bench::smoke() || std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 3 } else { 7 };
    // Wide enough that every gate GEMM clears the tiled backend's
    // small-product fallback; the shapes stay the ablation's otherwise.
    let hidden = 32;
    let e2e_epochs = 1;
    let e2e_tries = if smoke { 2 } else { 3 };

    let mut rows: Vec<Row> = Vec::new();
    for n in [64usize, 128, 256] {
        time_matmul(&mut rows, reps, n);
    }
    time_bmm(&mut rows, reps, 8, 325, 160, hidden);
    time_fused_gate(&mut rows, reps, 8 * 325 * hidden, hidden);
    // A DCGRU gate's weight gradient at the perfbench `train-index`
    // shape: 8 × [96×102]ᵀ·[96×32].
    let (wg_bs, wg_m, wg_k, wg_n) = (8, 96, 102, hidden);
    let (wg_copy_ns, wg_in_place_ns) = time_transposed_lhs(reps, wg_bs, wg_m, wg_k, wg_n);
    let wg_size = format!("{wg_bs}x[{wg_m}x{wg_k}]^Tx[{wg_m}x{wg_n}]");

    // End-to-end: same workload, both backends, best-of-N wall time.
    // Losses must agree bit-for-bit — the backends differ only in speed.
    let spec = DatasetSpec::get(DatasetKind::PemsBay).scaled(st_bench::DIST_SCALE);
    let sig = synthetic::generate(&spec, st_bench::SEED);
    let cfg = DistConfig::new(2, e2e_epochs, spec.horizon);
    let (ref_wall, tiled_wall) = e2e_compare(&sig, &cfg, hidden, e2e_tries);
    let e2e_speedup = ref_wall / tiled_wall;
    // The perfbench `train-index` shape: a 96-node, two-lane corridor with
    // speed + time-of-day features, at smoke-sized entries.
    let (nodes, period, horizon) = (96, 288, 12);
    let net = generators::highway_corridor(nodes, nodes.div_ceil(48), st_bench::SEED);
    let corridor = traffic::generate(&net, 160, period, st_bench::SEED);
    let mut corridor_cfg = DistConfig::new(2, e2e_epochs, horizon);
    corridor_cfg.time_period = Some(period);
    let (corridor_ref, corridor_tiled) = e2e_compare(&corridor, &corridor_cfg, hidden, e2e_tries);
    let corridor_speedup = corridor_ref / corridor_tiled;

    println!("tiled micro-kernel: {}", micro_kernel());
    let mut table = Table::new(
        "Kernel backends: tiled (default) vs reference, bitwise-identical outputs",
        &["kernel", "size", "ref µs", "tiled µs", "speedup"],
    );
    for r in &rows {
        table.row(&[
            r.kernel.to_string(),
            r.size.clone(),
            format!("{:.1}", r.ref_ns / 1e3),
            format!("{:.1}", r.tiled_ns / 1e3),
            format!("{:.2}×", r.speedup()),
        ]);
    }
    table.row(&[
        "e2e_dist_step".into(),
        format!("pems-bay@{}, h{hidden}, w2", st_bench::DIST_SCALE),
        format!("{:.1}", ref_wall * 1e9 / 1e3),
        format!("{:.1}", tiled_wall * 1e9 / 1e3),
        format!("{e2e_speedup:.2}×"),
    ]);
    table.row(&[
        "e2e_corridor".into(),
        format!("corridor {nodes} nodes, h{hidden}, w2"),
        format!("{:.1}", corridor_ref * 1e6),
        format!("{:.1}", corridor_tiled * 1e6),
        format!("{corridor_speedup:.2}×"),
    ]);
    println!("{}", table.to_text());
    let mut layout = Table::new(
        "Transposed GEMM operand on the tiled backend (informational, not gated)",
        &["kernel", "size", "copy µs", "in-place µs", "speedup"],
    );
    layout.row(&[
        "weight_grad_at".into(),
        wg_size.clone(),
        format!("{:.1}", wg_copy_ns / 1e3),
        format!("{:.1}", wg_in_place_ns / 1e3),
        format!("{:.2}×", wg_copy_ns / wg_in_place_ns),
    ]);
    println!("{}", layout.to_text());

    // JSON artifact for the perf trajectory.
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"size\": \"{}\", \"ref_ns\": {:.1}, \
                 \"tiled_ns\": {:.1}, \"speedup\": {:.4}}}",
                r.kernel,
                r.size,
                r.ref_ns,
                r.tiled_ns,
                r.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"bench_kernels\",\n  \"smoke\": {},\n  \"micro_kernel\": \"{}\",\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"transposed_lhs\": {{\"kernel\": \"weight_grad_at\", \"size\": \"{}\", \
         \"copy_ns\": {:.1}, \"in_place_ns\": {:.1}, \"speedup\": {:.4}}},\n  \
         \"e2e\": {{\"workload\": \"dist_index pems-bay@{} h{hidden} w2\", \
         \"ref_wall_s\": {:.6}, \"tiled_wall_s\": {:.6}, \"speedup\": {:.4}}},\n  \
         \"e2e_corridor\": {{\"workload\": \"dist_index corridor {nodes} nodes h{hidden} w2\", \
         \"ref_wall_s\": {:.6}, \"tiled_wall_s\": {:.6}, \"speedup\": {:.4}}}\n}}\n",
        smoke,
        micro_kernel(),
        json_rows.join(",\n"),
        wg_size,
        wg_copy_ns,
        wg_in_place_ns,
        wg_copy_ns / wg_in_place_ns,
        st_bench::DIST_SCALE,
        ref_wall,
        tiled_wall,
        e2e_speedup,
        corridor_ref,
        corridor_tiled,
        corridor_speedup
    );
    let _ = std::fs::create_dir_all("target");
    let path = std::path::Path::new("target").join("BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    println!("wrote {}", path.display());

    // The pinned regression gates.
    let m256 = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.size == "256x256x256")
        .expect("256 matmul row");
    assert!(
        m256.speedup() >= 1.5,
        "tiled matmul@256 must be >= 1.5x reference, got {:.2}x",
        m256.speedup()
    );
    assert!(
        tiled_wall < ref_wall,
        "tiled backend must win end-to-end: tiled {tiled_wall:.3}s vs reference {ref_wall:.3}s"
    );
    assert!(
        corridor_speedup >= 1.3,
        "tiled must be >= 1.3x reference end to end on the {nodes}-node corridor, got \
         {corridor_speedup:.2}x"
    );
    println!(
        "Reading: the tiled backend packs B-panels once per GEMM (a shared-rhs \
         bmm is one GEMM over the batch's rows), reads transposed operands in \
         place, and walks 4x16 register tiles (eight 8-lane accumulators on the \
         avx2 path) with the k-loop in reference order and separate mul/add, so \
         every output bit matches the naive kernel while the cache behavior does \
         not. Fused gate tails collapse the reference's materializing passes into \
         one. Gates: matmul@256 >= 1.5x, e2e wall win and corridor e2e >= 1.3x, \
         both with bit-identical losses."
    );
}
