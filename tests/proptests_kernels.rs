//! Property-based pinning of the kernel-backend bitwise contract: for
//! arbitrary (ragged, tiny, empty) shapes, the tiled backend's GEMM, bmm,
//! and fused elementwise kernels produce **bit-identical** `f32` buffers to
//! the reference backend. This is the invariant that lets the engine's
//! golden tests keep pinning train-loss bits while the backend underneath
//! is swapped freely (DESIGN.md §8).
//!
//! GEMM operands are strided views, so the same contract is pinned for
//! every operand layout the ops pass in place (row-major, transposed,
//! padded rows, an offset into a larger buffer): each equals the product
//! of the materialized row-major copies, bit for bit. `Tensor::to_vec`'s
//! run-based gather is pinned against the element-by-element walk.
//!
//! The backends are exercised as structs (not through the process-wide
//! dispatch), so these tests are independent of `ST_BACKEND` and of any
//! other test mutating the global selection.

use pgt_i::tensor::backend::{kernels_for, Activation, BackendKind, Kernels, MatRef};
use pgt_i::tensor::shape::for_each_offset;
use pgt_i::tensor::Tensor;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn reference() -> &'static dyn Kernels {
    kernels_for(BackendKind::Reference)
}

fn tiled() -> &'static dyn Kernels {
    kernels_for(BackendKind::Tiled)
}

/// Deterministic mixed-sign values from a seed (xorshift, like the other
/// proptest files — cheap and shrink-friendly).
fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed as u64 | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 / 1000.0) - 1.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Store `bs` row-major `[rows, cols]` matrices (`logical`) into `buf` in
/// a strided layout — column-major (the transposed view) or row-major,
/// each with `pad` unused elements per leading-dim step and `offset` before
/// the first element — and return the view. Every unused slot holds NaN,
/// so a read outside the view poisons the product.
#[allow(clippy::too_many_arguments)]
fn layout<'a>(
    buf: &'a mut Vec<f32>,
    logical: &[f32],
    bs: usize,
    rows: usize,
    cols: usize,
    col_major: bool,
    pad: usize,
    offset: usize,
) -> MatRef<'a> {
    let (row_stride, col_stride, batch_stride) = if col_major {
        (1, rows + pad, cols * (rows + pad))
    } else {
        (cols + pad, 1, rows * (cols + pad))
    };
    *buf = vec![f32::NAN; offset + bs * batch_stride];
    for b in 0..bs {
        for i in 0..rows {
            for j in 0..cols {
                buf[offset + b * batch_stride + i * row_stride + j * col_stride] =
                    logical[(b * rows + i) * cols + j];
            }
        }
    }
    MatRef {
        data: buf,
        offset,
        row_stride,
        col_stride,
        batch_stride,
    }
}

/// Logical operand values; `poison` `(1, at)` / `(2, at)` sets one entry
/// to NaN / Inf, `(0, _)` leaves them finite.
fn operand(len: usize, seed: u32, poison: (u8, u32)) -> Vec<f32> {
    let mut v = fill(len, seed);
    let (kind, at) = poison;
    if kind > 0 && len > 0 {
        v[at as usize % len] = if kind == 1 { f32::NAN } else { f32::INFINITY };
    }
    v
}

/// One GEMM layout case: `bs` products `[m,k]·[k,n]` with each operand
/// stored in its own layout. Checks tiled == reference on the strided
/// views, and both == the reference product of the materialized row-major
/// operands, bitwise. `bs == 0` means a plain `matmul` of one matrix.
#[allow(clippy::too_many_arguments)]
fn check_layouts(
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
    (a_t, b_t): (bool, bool),
    (pad, offset): (usize, usize),
    poison: (u8, u32),
    seed: u32,
) -> Result<(), TestCaseError> {
    let batches = bs.max(1);
    let a = operand(batches * m * k, seed, poison);
    let b = operand(batches * k * n, seed.wrapping_add(7), (0, 0));
    let (mut a_buf, mut b_buf) = (Vec::new(), Vec::new());
    let a_view = layout(&mut a_buf, &a, batches, m, k, a_t, pad, offset);
    let b_view = layout(&mut b_buf, &b, batches, k, n, b_t, pad, offset);
    let len = batches * m * n;
    let (mut want, mut r, mut t) = (vec![0.0f32; len], vec![0.0f32; len], vec![0.0f32; len]);
    let (a_dense, b_dense) = (MatRef::row_major(&a, m, k), MatRef::row_major(&b, k, n));
    if bs == 0 {
        reference().matmul(a_dense, b_dense, &mut want, m, k, n);
        reference().matmul(a_view, b_view, &mut r, m, k, n);
        tiled().matmul(a_view, b_view, &mut t, m, k, n);
    } else {
        reference().bmm(a_dense, b_dense, &mut want, bs, m, k, n);
        reference().bmm(a_view, b_view, &mut r, bs, m, k, n);
        tiled().bmm(a_view, b_view, &mut t, bs, m, k, n);
    }
    let case = format!("bs={bs} ({m},{k},{n}) a_t={a_t} b_t={b_t} pad={pad} off={offset}");
    prop_assert_eq!(bits(&r), bits(&t), "tiled vs reference: {}", &case);
    prop_assert_eq!(bits(&want), bits(&r), "strided vs materialized: {}", &case);
    Ok(())
}

/// The element-by-element odometer walk `to_vec` used to be.
fn walk(t: &Tensor) -> Vec<f32> {
    let data = t.storage().as_slice();
    let mut out = Vec::new();
    for_each_offset(t.dims(), t.strides(), t.storage_offset(), |o| {
        out.push(data[o])
    });
    out
}

/// Apply one view op chosen by `op` to `t` (a no-op when it does not fit).
fn view_op(t: &Tensor, op: (u8, usize, usize, usize)) -> Tensor {
    let (kind, x, y, z) = op;
    let rank = t.rank();
    if rank == 0 {
        return t.clone();
    }
    let d = x % rank;
    match kind % 4 {
        0 => {
            let start = y % (t.dim(d) + 1);
            let len = z % (t.dim(d) - start + 1);
            t.narrow(d, start, len).unwrap()
        }
        1 if t.dim(d) > 0 => t.select(d, y % t.dim(d)).unwrap(),
        2 => {
            // A rotation by `y` composed with a swap — enough to reach
            // every permutation over a few steps.
            let mut perm: Vec<usize> = (0..rank).map(|i| (i + y) % rank).collect();
            perm.swap(d, z % rank);
            t.permute(&perm).unwrap()
        }
        3 => t.transpose(d, y % rank).unwrap(),
        _ => t.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiled GEMM == reference GEMM, bit for bit, across ragged shapes that
    /// straddle the small-product fallback and the tile remainders
    /// (m % MR, n % NR, any k — including empty dims).
    #[test]
    fn tiled_matmul_bitwise_equals_reference(
        m in 0usize..70,
        k in 0usize..70,
        n in 0usize..70,
        seed in any::<u32>(),
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed.wrapping_add(1));
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        let (a, b) = (MatRef::row_major(&a, m, k), MatRef::row_major(&b, k, n));
        reference().matmul(a, b, &mut r, m, k, n);
        tiled().matmul(a, b, &mut t, m, k, n);
        prop_assert_eq!(bits(&r), bits(&t), "({}, {}, {})", m, k, n);
    }

    /// Batched GEMM agrees in both rhs modes: one shared `[k,n]` weight
    /// (batch stride 0) and a per-batch `[bs,k,n]` rhs.
    #[test]
    fn tiled_bmm_bitwise_equals_reference(
        bs in 0usize..5,
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        shared in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let a = fill(bs * m * k, seed);
        let blen = if shared { k * n } else { bs * k * n };
        let b = fill(blen, seed.wrapping_add(2));
        let mut r = vec![0.0f32; bs * m * n];
        let mut t = vec![0.0f32; bs * m * n];
        let a = MatRef::row_major(&a, m, k);
        let b = MatRef {
            batch_stride: if shared { 0 } else { k * n },
            ..MatRef::row_major(&b, k, n)
        };
        reference().bmm(a, b, &mut r, bs, m, k, n);
        tiled().bmm(a, b, &mut t, bs, m, k, n);
        prop_assert_eq!(bits(&r), bits(&t), "({}, {}, {}, {}) shared={}", bs, m, k, n, shared);
    }

    /// The fused bias+activation tail matches the reference's two
    /// materializing passes bitwise for every activation and row width.
    #[test]
    fn fused_bias_act_bitwise_equals_reference(
        rows in 1usize..40,
        width in 1usize..33,
        which in 0u8..3,
        seed in any::<u32>(),
    ) {
        let act = match which {
            0 => Activation::Identity,
            1 => Activation::Sigmoid,
            _ => Activation::Tanh,
        };
        let z = fill(rows * width, seed);
        let bias = fill(width, seed.wrapping_add(3));
        let mut r = vec![0.0f32; z.len()];
        let mut t = vec![0.0f32; z.len()];
        reference().bias_act(&z, &bias, &mut r, act);
        tiled().bias_act(&z, &bias, &mut t, act);
        prop_assert_eq!(bits(&r), bits(&t), "{:?} {}x{}", act, rows, width);
    }

    /// The fused GRU blend matches the composed
    /// `(u*h) + (((u*-1)+1)*c)` expression bitwise.
    #[test]
    fn fused_gru_blend_bitwise_equals_reference(
        len in 0usize..200,
        seed in any::<u32>(),
    ) {
        let u = fill(len, seed);
        let h = fill(len, seed.wrapping_add(4));
        let c = fill(len, seed.wrapping_add(5));
        let mut r = vec![0.0f32; len];
        let mut t = vec![0.0f32; len];
        reference().gru_blend(&u, &h, &c, &mut r);
        tiled().gru_blend(&u, &h, &c, &mut t);
        prop_assert_eq!(bits(&r), bits(&t));
    }

    /// Non-finite values flow through both backends identically — the
    /// historical zero-skip that swallowed `0 × NaN` is pinned out.
    #[test]
    fn non_finite_propagation_agrees(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        poison_at in any::<u32>(),
        poison_inf in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let a = fill(m * k, seed);
        let mut b = fill(k * n, seed.wrapping_add(6));
        let idx = poison_at as usize % b.len();
        b[idx] = if poison_inf { f32::INFINITY } else { f32::NAN };
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        let (av, bv) = (MatRef::row_major(&a, m, k), MatRef::row_major(&b, k, n));
        reference().matmul(av, bv, &mut r, m, k, n);
        tiled().matmul(av, bv, &mut t, m, k, n);
        prop_assert_eq!(bits(&r), bits(&t));
        // The poisoned column's outputs must be non-finite in both.
        let col = idx % n;
        for i in 0..m {
            prop_assert!(!r[i * n + col].is_finite(), "row {} col {}", i, col);
        }
    }

    /// GEMM on every operand layout — row-major, Aᵀ, Bᵀ, both transposed,
    /// with padded leading dims and an offset — over ragged, empty and
    /// non-finite shapes: tiled == reference == the materialized product.
    #[test]
    fn strided_matmul_layouts_equal_the_materialized_product(
        m in 0usize..40,
        k in 0usize..40,
        n in 0usize..40,
        transposed in (any::<bool>(), any::<bool>()),
        pad in 0usize..3,
        offset in 0usize..5,
        poison in (0u8..3, any::<u32>()),
        seed in any::<u32>(),
    ) {
        check_layouts(0, m, k, n, transposed, (pad, offset), poison, seed)?;
    }

    /// The batched form of the layout property (per-batch rhs, batch
    /// strides from the padded layout).
    #[test]
    fn strided_bmm_layouts_equal_the_materialized_product(
        bs in 1usize..4,
        m in 0usize..30,
        k in 0usize..30,
        n in 0usize..30,
        transposed in (any::<bool>(), any::<bool>()),
        pad in 0usize..3,
        offset in 0usize..5,
        poison in (0u8..3, any::<u32>()),
        seed in any::<u32>(),
    ) {
        check_layouts(bs, m, k, n, transposed, (pad, offset), poison, seed)?;
    }

    /// `Tensor::to_vec` on arbitrary `narrow`/`select`/`permute`/
    /// `transpose` views of rank 0–4 tensors (zero-size dims included)
    /// equals the element-by-element odometer walk.
    #[test]
    fn to_vec_on_views_equals_the_odometer_walk(
        dims in proptest::collection::vec(0usize..5, 0..5),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()),
            0..5,
        ),
    ) {
        let numel: usize = dims.iter().product();
        let base = Tensor::from_vec((0..numel).map(|i| i as f32).collect(), dims).unwrap();
        let mut t = base.clone();
        for op in ops {
            t = view_op(&t, op);
            prop_assert_eq!(bits(&t.to_vec()), bits(&walk(&t)), "{:?} {:?}", t.dims(), t.strides());
        }
    }
}
