//! Pluggable compute backends: the [`Kernels`] trait and its two
//! implementations, [`Reference`] (the original naive loops) and [`Tiled`]
//! (cache-blocked, register-tiled, packed-panel kernels).
//!
//! Every dense hot loop in the workspace — trainer, the distributed step
//! engine, `st-serve` inference, and the benches — bottoms out in the four
//! kernel families dispatched here: GEMM (`matmul`), batched GEMM (`bmm`),
//! sparse×dense (`spmm`, called back from `st-graph`'s CSR), and the fused
//! elementwise kernels backing the DCRNN gate path.
//!
//! # Bitwise equality contract
//!
//! Both backends produce **bit-identical** `f32` outputs. The tiled GEMM
//! tiles only the `i`/`j` (row/column) loops; the `k` accumulation for each
//! output element stays sequential and in ascending order, in a plain
//! `acc += a * b` form (no FMA, no pairwise reassociation). Rust does not
//! contract float expressions by default, so the rounding sequence of every
//! output element is exactly the reference kernel's. This is what lets the
//! engine's golden tests pin train-loss *bits* while the backend underneath
//! is swapped freely. GEMM operands are strided [`MatRef`] views, so a
//! transposed operand is read in place; a stride moves where a load comes
//! from, never the order of any sum. The proptest suite
//! (`tests/proptests_kernels.rs`) pins the contract across ragged shapes
//! and operand layouts; DESIGN.md §8 documents the reasoning.
//!
//! # Micro-kernels
//!
//! The tiled GEMM computes `MR×NR = 4×16` register tiles. On x86-64 CPUs
//! with AVX2 (detected at run time) the tile lives in eight independent
//! 8-lane accumulators and each `k` step is separate `_mm256_mul_ps` /
//! `_mm256_add_ps` intrinsics — never FMA — so every element keeps the
//! reference's rounding sequence. Elsewhere a portable loop computes the
//! same tile. [`micro_kernel`] names the path that runs; there is no knob
//! to choose it. The AVX2 module holds this crate's only `unsafe`.
//!
//! # Selection
//!
//! The active backend is a process-wide choice: [`set_backend`] /
//! [`active_backend`], initialized once from the `ST_BACKEND` environment
//! variable (`"tiled"` — the default — or `"reference"`). A global is the
//! right scope because worker ranks, serve shards, and gradient bucketing
//! all run the same model math on their own threads and must agree on the
//! kernels; per-call structs ([`Reference`], [`Tiled`]) remain available
//! for side-by-side comparison (benches, proptests).

use crate::ops::activation::sigmoid_scalar;
use crate::par;
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// Which [`Kernels`] implementation the process-wide dispatch uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The original naive loops (i-k-j GEMM, per-op elementwise passes).
    Reference,
    /// Cache-blocked, register-tiled kernels (the default).
    Tiled,
}

impl BackendKind {
    /// Parse a backend name as accepted by the `ST_BACKEND` environment
    /// variable. Unknown or empty names mean "no override".
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" | "naive" => Some(BackendKind::Reference),
            "tiled" | "fast" => Some(BackendKind::Tiled),
            _ => None,
        }
    }

    /// Stable lowercase name (`"reference"` / `"tiled"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Tiled => "tiled",
        }
    }
}

const KIND_UNSET: u8 = 0;
const KIND_REFERENCE: u8 = 1;
const KIND_TILED: u8 = 2;

static ACTIVE: AtomicU8 = AtomicU8::new(KIND_UNSET);

/// The process-wide backend every dispatching op routes through.
///
/// First call resolves `ST_BACKEND` (default [`BackendKind::Tiled`]); later
/// calls return the cached choice unless [`set_backend`] replaced it.
pub fn active_backend() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        KIND_REFERENCE => BackendKind::Reference,
        KIND_TILED => BackendKind::Tiled,
        _ => {
            let kind = std::env::var("ST_BACKEND")
                .ok()
                .as_deref()
                .and_then(BackendKind::parse)
                .unwrap_or(BackendKind::Tiled);
            set_backend(kind);
            kind
        }
    }
}

/// Select the process-wide backend (trainer configs, `ServeConfig`, and the
/// benches route their explicit knobs here). Safe to call from any thread;
/// the swap is racy only in the benign sense that in-flight ops finish on
/// the backend they started with — both produce identical bits anyway.
pub fn set_backend(kind: BackendKind) {
    let v = match kind {
        BackendKind::Reference => KIND_REFERENCE,
        BackendKind::Tiled => KIND_TILED,
    };
    ACTIVE.store(v, Ordering::Relaxed);
}

/// The [`Kernels`] implementation for `kind` as a static reference.
pub fn kernels_for(kind: BackendKind) -> &'static dyn Kernels {
    match kind {
        BackendKind::Reference => &Reference,
        BackendKind::Tiled => &Tiled,
    }
}

/// The active backend's kernels (shorthand for
/// `kernels_for(active_backend())`).
pub fn kernels() -> &'static dyn Kernels {
    kernels_for(active_backend())
}

/// Elementwise activation selector for the fused bias+activation kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation: the fused kernel degenerates to a bias add.
    Identity,
    /// Numerically-stable logistic sigmoid (the DCRNN gate nonlinearity).
    Sigmoid,
    /// Hyperbolic tangent (the DCRNN candidate nonlinearity).
    Tanh,
}

impl Activation {
    /// Scalar evaluation — the exact expression the unfused
    /// `st_tensor::ops` activation maps use, so fused and composed paths
    /// agree bitwise.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => sigmoid_scalar(x),
            Activation::Tanh => x.tanh(),
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel-time accounting
// ---------------------------------------------------------------------------

/// Kernel families tracked by the per-thread time counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Dense matrix multiplication (matmul / bmm / matvec).
    Gemm,
    /// Sparse×dense products (CSR spmm, reported by `st-graph`).
    Spmm,
    /// Elementwise maps/zips and the fused gate kernels.
    Elementwise,
}

thread_local! {
    static KERNEL_SECS: [Cell<f64>; 3] =
        const { [Cell::new(0.0), Cell::new(0.0), Cell::new(0.0)] };
}

/// Add `secs` of wall-clock time to `class` on this thread's counters.
/// Public so sibling crates owning a kernel family (`st-graph`'s spmm) can
/// report into the same ledger.
pub fn record_kernel_secs(class: KernelClass, secs: f64) {
    KERNEL_SECS.with(|k| {
        let c = &k[class as usize];
        c.set(c.get() + secs);
    });
}

/// Cumulative `[gemm, spmm, elementwise]` kernel seconds recorded on the
/// calling thread since it started. Ops time themselves at their entry
/// point, so work farmed out to the `par` pool is charged to the thread
/// that invoked the op — each engine rank reads its own compute split.
pub fn kernel_secs() -> [f64; 3] {
    KERNEL_SECS.with(|k| [k[0].get(), k[1].get(), k[2].get()])
}

/// Time `f` and charge its wall-clock duration to `class`.
pub fn timed<R>(class: KernelClass, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    record_kernel_secs(class, start.elapsed().as_secs_f64());
    out
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A strided view of a GEMM operand over a flat buffer: element `(i, j)` of
/// matrix `b` in a batch sits at
/// `data[offset + b*batch_stride + i*row_stride + j*col_stride]`.
///
/// This is how a kernel reads a transposed (`row_stride == 1`), narrowed or
/// batch-strided tensor view in place instead of gathering it first. The
/// packers have fast paths for row-major (`col_stride == 1`) and
/// column-major (`row_stride == 1`) layouts; other strides are read one
/// element at a time.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    /// The backing buffer (typically a tensor's whole storage).
    pub data: &'a [f32],
    /// Element offset of matrix 0, row 0, column 0.
    pub offset: usize,
    /// Elements between consecutive rows.
    pub row_stride: usize,
    /// Elements between consecutive columns.
    pub col_stride: usize,
    /// Elements between consecutive matrices of a batch (`bmm` only;
    /// `0` shares one matrix across the batch).
    pub batch_stride: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major `[rows, cols]` matrices stored back to back.
    pub fn row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        MatRef {
            data,
            offset: 0,
            row_stride: cols,
            col_stride: 1,
            batch_stride: rows * cols,
        }
    }

    /// Column-major `[rows, cols]` matrices stored back to back — the
    /// in-place transpose of row-major `[cols, rows]` storage.
    pub fn col_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        MatRef {
            data,
            offset: 0,
            row_stride: 1,
            col_stride: rows,
            batch_stride: rows * cols,
        }
    }

    /// Matrix `b` of the batch.
    #[inline]
    fn batch(self, b: usize) -> Self {
        MatRef {
            offset: self.offset + b * self.batch_stride,
            ..self
        }
    }

    /// The view starting at row `i`.
    #[inline]
    fn rows_from(self, i: usize) -> Self {
        MatRef {
            offset: self.offset + i * self.row_stride,
            ..self
        }
    }

    /// Element `(i, j)`.
    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[self.offset + i * self.row_stride + j * self.col_stride]
    }

    /// Row `i`'s first `len` elements as a slice, when rows are contiguous.
    #[inline]
    fn row(&self, i: usize, len: usize) -> Option<&'a [f32]> {
        let start = self.offset + i * self.row_stride;
        (self.col_stride == 1).then(|| &self.data[start..start + len])
    }
}

/// Raw-buffer compute kernels a backend must provide.
///
/// Shape validation, operand layout, and tensor construction stay in
/// `st_tensor::ops`; implementations only see flat buffers and strided
/// [`MatRef`] operands. Every method must honor the crate's
/// bitwise-equality contract (see module docs).
pub trait Kernels: Sync {
    /// Backend name for reports and bench labels.
    fn name(&self) -> &'static str;

    /// `out[m,n] = a[m,k] @ b[k,n]`, `out` pre-zeroed and row-major. Batch
    /// strides are ignored.
    fn matmul(&self, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32], m: usize, k: usize, n: usize);

    /// Batched `out[i] = a[i] @ b[i]` for `i < bs`: `a` is `[bs,m,k]`, `b`
    /// is `[bs,k,n]`, and `out` is pre-zeroed row-major `[bs,m,n]`.
    #[allow(clippy::too_many_arguments)]
    fn bmm(
        &self,
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        bs: usize,
        m: usize,
        k: usize,
        n: usize,
    );

    /// CSR sparse×dense: `out[rows,n] = S @ x[cols,n]`, `out` pre-zeroed.
    /// Row `r`'s nonzeros are `col_idx/values[row_ptr[r]..row_ptr[r+1]]`.
    #[allow(clippy::too_many_arguments)]
    fn spmm(
        &self,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f32],
        x: &[f32],
        out: &mut [f32],
        rows: usize,
        n: usize,
    );

    /// Fused `out[i] = act(z[i] + bias[i % bias.len()])` — the DCRNN
    /// gate tail (`dconv → add-bias → σ/tanh`) in one pass.
    fn bias_act(&self, z: &[f32], bias: &[f32], out: &mut [f32], act: Activation);

    /// Fused GRU blend `out = u⊙h + (1−u)⊙c`, elementwise over equal-length
    /// slices, replicating the composed expression
    /// `(u*h) + (((u*-1.0)+1.0)*c)` per element.
    fn gru_blend(&self, u: &[f32], h: &[f32], c: &[f32], out: &mut [f32]);
}

// ---------------------------------------------------------------------------
// Reference backend — the original naive loops
// ---------------------------------------------------------------------------

/// The seed repo's naive kernels, kept as the ground truth the tiled
/// backend is pinned against. (The historical `al == 0.0` skip is gone: it
/// suppressed NaN/Inf propagation — `0 × NaN` never landed — and, because
/// a `+0.0`-seeded accumulator can never become `-0.0` under addition,
/// removing it changes no finite output bits.)
pub struct Reference;

impl Kernels for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn matmul(&self, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 {
            return;
        }
        par::parallel_fill_chunks(out, n, m * n * k, |i, row| {
            naive_row_kernel(a, i, b, row, k);
        });
    }

    fn bmm(
        &self,
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        bs: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert_eq!(out.len(), bs * m * n);
        if bs == 0 || m == 0 || n == 0 {
            return;
        }
        par::parallel_fill_chunks(out, m * n, bs * m * n * k, |i, slab| {
            let (a_i, b_i) = (a.batch(i), b.batch(i));
            for (r, row) in slab.chunks_exact_mut(n).enumerate() {
                naive_row_kernel(a_i, r, b_i, row, k);
            }
        });
    }

    fn spmm(
        &self,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f32],
        x: &[f32],
        out: &mut [f32],
        rows: usize,
        n: usize,
    ) {
        if rows == 0 || n == 0 {
            return;
        }
        let nnz = values.len();
        par::parallel_fill_chunks(out, n, nnz * n, |r, row_out| {
            for p in row_ptr[r]..row_ptr[r + 1] {
                let v = values[p];
                let xrow = &x[col_idx[p] * n..(col_idx[p] + 1) * n];
                for (o, &xv) in row_out.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        });
    }

    fn bias_act(&self, z: &[f32], bias: &[f32], out: &mut [f32], act: Activation) {
        // Two materializing passes, mirroring the historical composed path
        // (`add` then activation `map`) op for op.
        let nb = bias.len();
        for (i, (o, &zv)) in out.iter_mut().zip(z).enumerate() {
            *o = zv + bias[i % nb];
        }
        for o in out.iter_mut() {
            *o = act.eval(*o);
        }
    }

    fn gru_blend(&self, u: &[f32], h: &[f32], c: &[f32], out: &mut [f32]) {
        // Materialize each intermediate exactly like the historical
        // four-op composition (mul, neg, add_scalar, mul, add).
        let n = out.len();
        let mut uh = vec![0.0f32; n];
        for ((o, &uv), &hv) in uh.iter_mut().zip(u).zip(h) {
            *o = uv * hv;
        }
        let mut omu = vec![0.0f32; n];
        for (o, &uv) in omu.iter_mut().zip(u) {
            // Deliberately `* -1.0`, not negation: this mirrors the exact
            // `neg → add_scalar` composition the models used to build.
            #[allow(clippy::neg_multiply)]
            {
                *o = (uv * -1.0) + 1.0;
            }
        }
        for (((o, &uhv), &omuv), &cv) in out.iter_mut().zip(&uh).zip(&omu).zip(c) {
            *o = uhv + omuv * cv;
        }
    }
}

/// One output row of the naive i-k-j GEMM: `row += a[i, ..] @ b`.
#[inline]
fn naive_row_kernel(a: MatRef<'_>, i: usize, b: MatRef<'_>, row: &mut [f32], k: usize) {
    let n = row.len();
    for l in 0..k {
        let al = a.at(i, l);
        match b.row(l, n) {
            Some(brow) => {
                for (c, &bv) in row.iter_mut().zip(brow) {
                    *c += al * bv;
                }
            }
            None => {
                for (j, c) in row.iter_mut().enumerate() {
                    *c += al * b.at(l, j);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tiled backend
// ---------------------------------------------------------------------------

/// Rows per register micro-tile.
pub const MR: usize = 4;
/// Columns per packed B panel (and per register micro-tile): two 8-lane
/// AVX2 registers.
pub const NR: usize = 16;

/// Products smaller than this many scalar ops take the naive kernel —
/// packing overhead only pays off once the B panel is re-streamed across
/// several row blocks. Both paths are bitwise identical, so the switch is
/// purely a latency decision.
const TILE_MIN_WORK: usize = 16 * 1024;

/// Cache-blocked, register-tiled kernels with packed B panels.
///
/// GEMM walks `NR`-column panels of a packed copy of `B`; each `MR×NR`
/// micro-tile keeps its partial sums in registers across the whole `k`
/// loop, so `C` is written once instead of being re-loaded per `k` step,
/// and `B`'s traffic drops by `MR×`. The `k` loop is never split or
/// reassociated — see the module docs for the bitwise contract. The
/// micro-kernel is chosen per call: AVX2 intrinsics when the CPU has them,
/// a portable loop otherwise ([`micro_kernel`]).
pub struct Tiled;

impl Kernels for Tiled {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn matmul(&self, a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 || m * n * k < TILE_MIN_WORK {
            return Reference.matmul(a, b, out, m, k, n);
        }
        let packed = pack_b(b, k, n);
        tiled_rows_parallel(a, &packed, out, m, k, n, m * n * k);
    }

    fn bmm(
        &self,
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        bs: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert_eq!(out.len(), bs * m * n);
        if bs == 0 || m == 0 || n == 0 {
            return;
        }
        let work = bs * m * n * k;
        if k == 0 || work < TILE_MIN_WORK {
            return Reference.bmm(a, b, out, bs, m, k, n);
        }
        par::parallel_fill_chunks(out, m * n, work, |i, slab| {
            let packed = pack_b(b.batch(i), k, n);
            tiled_rows(a.batch(i), &packed, slab, m, k, n);
        });
    }

    fn spmm(
        &self,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f32],
        x: &[f32],
        out: &mut [f32],
        rows: usize,
        n: usize,
    ) {
        // CSR rows are short and irregular on road graphs; the naive
        // row-parallel loop is already the right shape for them.
        Reference.spmm(row_ptr, col_idx, values, x, out, rows, n);
    }

    fn bias_act(&self, z: &[f32], bias: &[f32], out: &mut [f32], act: Activation) {
        // One pass, row-chunked: the bias index never needs a modulo, and
        // the activation branch is hoisted out of the loop. Trailing
        // partial rows (never produced by the public op, which validates
        // `z`'s last dim against `bias`) still zip correctly — `zip`
        // truncates to the shorter side.
        let nb = bias.len().max(1);
        match act {
            Activation::Identity => {
                for (orow, zrow) in out.chunks_mut(nb).zip(z.chunks(nb)) {
                    for ((o, &zv), &bv) in orow.iter_mut().zip(zrow).zip(bias) {
                        *o = zv + bv;
                    }
                }
            }
            Activation::Sigmoid => {
                for (orow, zrow) in out.chunks_mut(nb).zip(z.chunks(nb)) {
                    for ((o, &zv), &bv) in orow.iter_mut().zip(zrow).zip(bias) {
                        *o = sigmoid_scalar(zv + bv);
                    }
                }
            }
            Activation::Tanh => {
                for (orow, zrow) in out.chunks_mut(nb).zip(z.chunks(nb)) {
                    for ((o, &zv), &bv) in orow.iter_mut().zip(zrow).zip(bias) {
                        *o = (zv + bv).tanh();
                    }
                }
            }
        }
    }

    fn gru_blend(&self, u: &[f32], h: &[f32], c: &[f32], out: &mut [f32]) {
        for (((o, &uv), &hv), &cv) in out.iter_mut().zip(u).zip(h).zip(c) {
            // `* -1.0` kept on purpose — the fused blend must replicate the
            // composed `(u*h) + (((u*-1)+1)*c)` expression bit for bit.
            #[allow(clippy::neg_multiply)]
            {
                *o = (uv * hv) + (((uv * -1.0) + 1.0) * cv);
            }
        }
    }
}

/// Pack `b[k,n]` into `NR`-column panels: panel `p` holds columns
/// `p*NR..p*NR+NR` contiguously per `k` step (`packed[(p*k + l)*NR + c] =
/// b[l, p*NR + c]`), zero-padded past `n`. Padded lanes are computed but
/// never stored to `out`. A row-major `b` is copied row segment by row
/// segment; a column-major one column by column.
fn pack_b(b: MatRef<'_>, k: usize, n: usize) -> Vec<f32> {
    let panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; panels * k * NR];
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        if b.col_stride == 1 {
            for (l, lane) in dst.chunks_exact_mut(NR).enumerate() {
                let start = b.offset + l * b.row_stride + j0;
                lane[..w].copy_from_slice(&b.data[start..start + w]);
            }
        } else {
            for c in 0..w {
                for (l, lane) in dst.chunks_exact_mut(NR).enumerate() {
                    lane[c] = b.at(l, j0 + c);
                }
            }
        }
    }
    packed
}

/// Tiled GEMM over `out[m,n]` with `packed` panels, parallel across
/// MR-aligned row blocks.
fn tiled_rows_parallel(
    a: MatRef<'_>,
    packed: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    work: usize,
) {
    let threads = par::num_threads();
    let groups = m.div_ceil(MR);
    if threads <= 1 || work < par::par_threshold() || groups < 2 {
        return tiled_rows(a, packed, out, m, k, n);
    }
    let per = groups.div_ceil(threads.min(groups));
    crossbeam::scope(|scope| {
        for (t, slab) in out.chunks_mut(per * MR * n).enumerate() {
            scope.spawn(move |_| {
                let rows = slab.len() / n;
                tiled_rows(a.rows_from(t * per * MR), packed, slab, rows, k, n);
            });
        }
    })
    .expect("tiled matmul worker panicked");
}

/// The tiled GEMM's register micro-kernel on this CPU: `"avx2"` when the
/// AVX2 intrinsics path runs, `"portable"` otherwise (non-x86 hosts and
/// x86 hosts without AVX2). Both paths are bitwise identical; benches
/// report the name so a timing says which one it measured.
pub fn micro_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::detected() {
        return "avx2";
    }
    "portable"
}

/// Sequential tiled GEMM body: `out[m,n] = a[m,k] @ B` where `B` was packed
/// by [`pack_b`], on the AVX2 micro-kernel when the CPU has it and on the
/// portable one otherwise.
fn tiled_rows(a: MatRef<'_>, packed: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx2::tiled_rows(a, packed, out, m, k, n) {
        return;
    }
    tiled_rows_with(a, packed, out, m, k, n, micro);
}

/// The tiled GEMM loop around a micro-kernel. Each `MR`-row block of `A`
/// is repacked `l`-major (`apack[l*MR + r] = a[i + r, l]`, zero-padded
/// lanes past `m`) so the micro-kernel streams both operands contiguously;
/// the pack cost is repaid `n/NR` times over as the block sweeps the
/// panels. A column-major `A` (a transposed view) fills each lane with one
/// contiguous `MR`-float read. Always inlined, so a caller compiled with
/// wider target features compiles the whole loop with them.
#[inline(always)]
fn tiled_rows_with(
    a: MatRef<'_>,
    packed: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    micro: impl Fn(&[f32], &[f32], &mut [f32], usize, usize, usize),
) {
    let panels = n.div_ceil(NR);
    let mut apack = vec![0.0f32; k * MR];
    let mut i = 0;
    while i < m {
        let rows = MR.min(m - i);
        if rows < MR {
            // Padded row lanes accumulate zeros and are never stored.
            apack.fill(0.0);
        }
        if a.row_stride == 1 {
            for (l, lane) in apack.chunks_exact_mut(MR).enumerate() {
                let start = a.offset + i + l * a.col_stride;
                lane[..rows].copy_from_slice(&a.data[start..start + rows]);
            }
        } else {
            for r in 0..rows {
                match a.row(i + r, k) {
                    Some(arow) => {
                        for (l, &av) in arow.iter().enumerate() {
                            apack[l * MR + r] = av;
                        }
                    }
                    None => {
                        for l in 0..k {
                            apack[l * MR + r] = a.at(i + r, l);
                        }
                    }
                }
            }
        }
        for p in 0..panels {
            let j0 = p * NR;
            let cols = NR.min(n - j0);
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            micro(&apack, panel, &mut out[i * n + j0..], n, rows, cols);
        }
        i += rows;
    }
}

/// The portable `MR×NR` register micro-kernel: partial sums stay in
/// registers across the whole `k` loop (ascending, `mul` then `add` —
/// never FMA), then spill to `out` once. Always computes the full tile;
/// ragged edges only narrow the store.
#[inline]
fn micro(apack: &[f32], panel: &[f32], out: &mut [f32], ldc: usize, rows: usize, cols: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (al, bp) in apack.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        let al: &[f32; MR] = al.try_into().expect("packed A lane");
        let bp: &[f32; NR] = bp.try_into().expect("packed B lane");
        for (accr, &av) in acc.iter_mut().zip(al) {
            for (accv, &bv) in accr.iter_mut().zip(bp) {
                *accv += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows) {
        out[r * ldc..r * ldc + cols].copy_from_slice(&accr[..cols]);
    }
}

/// The AVX2 micro-kernel: the same `MR×NR` tile in eight independent
/// 8-lane accumulators (4 rows × two halves), so each `k` step issues
/// eight independent mul/add chains instead of waiting on the add latency
/// of a few. Separate `_mm256_mul_ps` and `_mm256_add_ps` round exactly like
/// the scalar `acc += a * b` — one rounding per multiply and one per add,
/// in ascending `k` — so the bits match [`Reference`]; FMA (one rounding)
/// would not.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{tiled_rows_with, MatRef, MR, NR};
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// True when the running CPU supports AVX2 (cached by std after the
    /// first query).
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Run the tiled GEMM loop on the AVX2 micro-kernel and return true,
    /// or return false without touching `out` when the CPU lacks AVX2.
    pub(super) fn tiled_rows(
        a: MatRef<'_>,
        packed: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: the CPU supports AVX2, checked just above.
        unsafe { tiled_rows_avx2(a, packed, out, m, k, n) };
        true
    }

    /// [`tiled_rows_with`] compiled with AVX2 enabled, so the micro-kernel
    /// inlines into the panel loop.
    #[target_feature(enable = "avx2")]
    fn tiled_rows_avx2(
        a: MatRef<'_>,
        packed: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // A closure, not `micro` itself: a `#[target_feature]` fn does not
        // implement `Fn`. The closure inherits AVX2 from this function.
        tiled_rows_with(
            a,
            packed,
            out,
            m,
            k,
            n,
            |apack, panel, out, ldc, rows, cols| micro(apack, panel, out, ldc, rows, cols),
        );
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn micro(apack: &[f32], panel: &[f32], out: &mut [f32], ldc: usize, rows: usize, cols: usize) {
        let k = apack.len() / MR;
        assert!(
            apack.len() == k * MR && panel.len() == k * NR,
            "packed operands must hold k = {k} whole lanes"
        );
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for (al, bl) in apack.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
            // SAFETY: `bl` is an `NR` = 16-float chunk, so both 8-lane
            // loads read inside it.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(bl.as_ptr()),
                    _mm256_loadu_ps(bl.as_ptr().add(8)),
                )
            };
            for (accr, &av) in acc.iter_mut().zip(al) {
                let av = _mm256_set1_ps(av);
                accr[0] = _mm256_add_ps(accr[0], _mm256_mul_ps(av, b0));
                accr[1] = _mm256_add_ps(accr[1], _mm256_mul_ps(av, b1));
            }
        }
        if rows == MR && cols == NR {
            for (r, accr) in acc.iter().enumerate() {
                let dst = &mut out[r * ldc..r * ldc + NR];
                store(dst, accr);
            }
        } else {
            // Ragged edge: spill the whole tile, store only its live part.
            let mut tile = [[0.0f32; NR]; MR];
            for (t, accr) in tile.iter_mut().zip(&acc) {
                store(t, accr);
            }
            for (r, t) in tile.iter().enumerate().take(rows) {
                out[r * ldc..r * ldc + cols].copy_from_slice(&t[..cols]);
            }
        }
    }

    /// Store one tile row (two 8-lane halves) into the `NR` floats of `dst`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(dst: &mut [f32], acc: &[__m256; 2]) {
        assert_eq!(dst.len(), NR);
        // SAFETY: `dst` holds exactly `NR` = 16 floats, so both 8-lane
        // stores write inside it.
        unsafe {
            _mm256_storeu_ps(dst.as_mut_ptr(), acc[0]);
            _mm256_storeu_ps(dst.as_mut_ptr().add(8), acc[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // Cheap deterministic pseudo-random values with mixed signs.
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn matmul_both(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        let (a, b) = (MatRef::row_major(&a, m, k), MatRef::row_major(&b, k, n));
        Reference.matmul(a, b, &mut r, m, k, n);
        Tiled.matmul(a, b, &mut t, m, k, n);
        (r, t)
    }

    #[test]
    fn tiled_matmul_bitwise_equals_reference() {
        // Sizes above TILE_MIN_WORK with ragged m/k/n remainders.
        for (m, k, n) in [(64, 64, 64), (67, 33, 41), (128, 37, 9), (31, 130, 65)] {
            let (r, t) = matmul_both(m, k, n);
            for (i, (x, y)) in r.iter().zip(&t).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}) elem {i}");
            }
        }
    }

    /// A whole tiled GEMM on one named micro-kernel path, bypassing the
    /// small-product fallback and the run-time dispatch. `None` when this
    /// CPU cannot run the path.
    fn tiled_on(
        path: &str,
        a: MatRef<'_>,
        b: MatRef<'_>,
        m: usize,
        k: usize,
        n: usize,
    ) -> Option<Vec<f32>> {
        let packed = pack_b(b, k, n);
        let mut out = vec![0.0f32; m * n];
        match path {
            "portable" => tiled_rows_with(a, &packed, &mut out, m, k, n, micro),
            #[cfg(target_arch = "x86_64")]
            "avx2" => {
                if !avx2::tiled_rows(a, &packed, &mut out, m, k, n) {
                    return None;
                }
            }
            _ => return None,
        }
        Some(out)
    }

    /// `[rows, cols]` values stored row-major (`transposed == false`) or as
    /// the column-major view of row-major `[cols, rows]` storage.
    fn operand(data: &[f32], rows: usize, cols: usize, transposed: bool) -> MatRef<'_> {
        if transposed {
            MatRef::col_major(data, rows, cols)
        } else {
            MatRef::row_major(data, rows, cols)
        }
    }

    /// Poison for [`every_micro_kernel_path_is_bitwise_reference`]. Each
    /// case keeps a single NaN payload per sum: when two NaNs with
    /// different payloads meet in one add, IEEE 754 leaves which survives
    /// to operand order, which Rust does not pin. `Inf` produces only the
    /// default NaN (`0 × Inf`, `Inf − Inf`); `Nan` injects only `f32::NAN`.
    #[derive(Debug, Clone, Copy)]
    enum Poison {
        Finite,
        Inf,
        Nan,
    }

    #[test]
    fn every_micro_kernel_path_is_bitwise_reference() {
        let mut ran = std::collections::BTreeSet::new();
        // Ragged m % MR and n % NR, k ∈ {0, 1, odd}; row-major, Aᵀ and Bᵀ
        // operands.
        for m in [1, 2, 3, 4, 5, 7, 9] {
            for n in [1, 8, 15, 16, 17, 33] {
                for k in [0, 1, 7, 33] {
                    for poison in [Poison::Finite, Poison::Inf, Poison::Nan] {
                        let mut av = fill(m * k, (m * 31 + k) as u32);
                        let mut bv = fill(k * n, (n * 17 + k) as u32);
                        match poison {
                            _ if k == 0 => {}
                            Poison::Finite => {}
                            Poison::Inf => {
                                av[0] = 0.0;
                                bv[0] = f32::INFINITY;
                                av[(m * k) / 2] = f32::NEG_INFINITY;
                                av[m * k - 1] = f32::INFINITY;
                            }
                            Poison::Nan => {
                                av[(m * k) / 2] = f32::NAN;
                                bv[k * n - 1] = f32::NAN;
                            }
                        }
                        for (at, bt) in [(false, false), (true, false), (false, true)] {
                            let a = operand(&av, m, k, at);
                            let b = operand(&bv, k, n, bt);
                            let mut want = vec![0.0f32; m * n];
                            Reference.matmul(a, b, &mut want, m, k, n);
                            for path in ["portable", "avx2"] {
                                let Some(got) = tiled_on(path, a, b, m, k, n) else {
                                    continue;
                                };
                                ran.insert(path);
                                for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                                    assert_eq!(
                                        x.to_bits(),
                                        y.to_bits(),
                                        "{path} ({m},{k},{n}) aT={at} bT={bt} {poison:?} elem {i}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(ran.contains("portable"));
        assert_eq!(ran.contains("avx2"), micro_kernel() == "avx2");
    }

    #[test]
    fn tiled_small_and_empty_shapes_fall_back() {
        for (m, k, n) in [(3, 4, 5), (0, 4, 5), (4, 0, 5), (4, 5, 0), (1, 1, 1)] {
            let (r, t) = matmul_both(m, k, n);
            assert_eq!(r, t, "({m},{k},{n})");
        }
    }

    #[test]
    fn tiled_bmm_matches_reference_both_rhs_modes() {
        let (bs, m, k, n) = (3, 33, 29, 17);
        let a = fill(bs * m * k, 3);
        let shared = fill(k * n, 4);
        let per = fill(bs * k * n, 5);
        let a = MatRef::row_major(&a, m, k);
        // A shared rhs is a batch stride of zero.
        let shared = MatRef {
            batch_stride: 0,
            ..MatRef::row_major(&shared, k, n)
        };
        for (b, shared_rhs) in [(shared, true), (MatRef::row_major(&per, k, n), false)] {
            let mut r = vec![0.0f32; bs * m * n];
            let mut t = vec![0.0f32; bs * m * n];
            Reference.bmm(a, b, &mut r, bs, m, k, n);
            Tiled.bmm(a, b, &mut t, bs, m, k, n);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&r), bits(&t), "shared_rhs={shared_rhs}");
        }
    }

    #[test]
    fn fused_kernels_match_reference() {
        let z = fill(6 * 7, 6);
        let bias = fill(7, 7);
        for act in [Activation::Identity, Activation::Sigmoid, Activation::Tanh] {
            let mut r = vec![0.0f32; z.len()];
            let mut t = vec![0.0f32; z.len()];
            Reference.bias_act(&z, &bias, &mut r, act);
            Tiled.bias_act(&z, &bias, &mut t, act);
            assert_eq!(r, t, "{act:?}");
        }
        let (u, h, c) = (fill(40, 8), fill(40, 9), fill(40, 10));
        // Squash u into (0,1) like a real gate.
        let u: Vec<f32> = u.iter().map(|&x| sigmoid_scalar(x)).collect();
        let mut r = vec![0.0f32; 40];
        let mut t = vec![0.0f32; 40];
        Reference.gru_blend(&u, &h, &c, &mut r);
        Tiled.gru_blend(&u, &h, &c, &mut t);
        assert_eq!(r, t);
    }

    #[test]
    fn backend_kind_parse_and_names() {
        assert_eq!(BackendKind::parse("tiled"), Some(BackendKind::Tiled));
        assert_eq!(BackendKind::parse(" REF "), Some(BackendKind::Reference));
        assert_eq!(BackendKind::parse("naive"), Some(BackendKind::Reference));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::parse(""), None);
        assert_eq!(BackendKind::Tiled.name(), "tiled");
        assert_eq!(kernels_for(BackendKind::Reference).name(), "reference");
    }

    #[test]
    fn kernel_time_counters_accumulate_per_class() {
        let before = kernel_secs();
        timed(KernelClass::Gemm, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        record_kernel_secs(KernelClass::Spmm, 0.5);
        let after = kernel_secs();
        assert!(after[0] > before[0], "gemm secs advanced");
        assert!(
            (after[1] - before[1] - 0.5).abs() < 1e-12,
            "spmm secs exact"
        );
        assert_eq!(after[2], before[2], "elementwise untouched");
    }

    #[test]
    fn counters_are_thread_local() {
        record_kernel_secs(KernelClass::Gemm, 1.0);
        let other = std::thread::spawn(|| kernel_secs()[0]).join().unwrap();
        assert_eq!(other, 0.0, "fresh thread starts at zero");
    }

    #[test]
    fn nan_and_inf_propagate_through_both_backends() {
        // A zero row in A against NaN/Inf in B must land NaN in C: the
        // historical `al == 0.0` skip broke this.
        let m = 2;
        let k = 2;
        let n = 2;
        let a = vec![0.0, 0.0, 1.0, 0.0];
        let b = vec![f32::NAN, f32::INFINITY, 1.0, 1.0];
        for kind in [BackendKind::Reference, BackendKind::Tiled] {
            let mut out = vec![0.0f32; m * n];
            kernels_for(kind).matmul(
                MatRef::row_major(&a, m, k),
                MatRef::row_major(&b, k, n),
                &mut out,
                m,
                k,
                n,
            );
            assert!(out[0].is_nan(), "{kind:?}: 0×NaN must propagate");
            assert!(out[1].is_nan(), "{kind:?}: 0×Inf is NaN");
            assert!(out[2].is_nan() && out[3].is_infinite(), "{kind:?}");
        }
    }
}
