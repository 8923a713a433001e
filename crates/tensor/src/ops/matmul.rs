//! Dense matrix multiplication entry points (2-D and batched 3-D).
//!
//! Shape validation and tensor plumbing live here; the raw loops are
//! dispatched through the active [`crate::backend::Kernels`] backend —
//! the naive i-k-j reference or the tiled default, bit-identical either
//! way. Operands reach the kernels as strided [`MatRef`] views, so a
//! transposed or narrowed tensor is read in place rather than copied.
//! Small products stay on the sequential path inside the kernels to avoid
//! thread overhead.

use crate::backend::{self, KernelClass, MatRef};
use crate::{Result, Tensor, TensorError};
use std::borrow::Cow;

/// `t` itself when its last two dims are row-major (`col_stride == 1`,
/// narrowed rows included) or column-major (`row_stride == 1`) — the
/// layouts the GEMM packers read in place — otherwise a contiguous copy.
fn gemm_operand(t: &Tensor) -> Cow<'_, Tensor> {
    let s = &t.strides()[t.rank() - 2..];
    if s[0] == 1 || s[1] == 1 {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.contiguous())
    }
}

/// The kernel view of a rank-2 or rank-3 tensor (rank 2: batch stride 0).
fn mat_ref(t: &Tensor) -> MatRef<'_> {
    let s = t.strides();
    let r = t.rank();
    MatRef {
        data: t.storage().as_slice(),
        offset: t.storage_offset(),
        row_stride: s[r - 2],
        col_stride: s[r - 1],
        batch_stride: if r == 3 { s[0] } else { 0 },
    }
}

/// `C[m,n] = A[m,k] @ B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::Invalid {
            op: "matmul",
            msg: format!("requires rank-2 inputs, got {} and {}", a.rank(), b.rank()),
        });
    }
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (a, b) = (gemm_operand(a), gemm_operand(b));
    let mut out = vec![0.0f32; m * n];
    backend::timed(KernelClass::Gemm, || {
        backend::kernels().matmul(mat_ref(&a), mat_ref(&b), &mut out, m, k, n)
    });
    Tensor::from_vec(out, [m, n])
}

/// Batched matmul: `C[b,m,n] = A[b,m,k] @ B[b,k,n]`.
/// `B` may also be rank-2 `[k,n]`, shared across the batch: that product
/// is one GEMM over the batch's `[b·m, k]` rows.
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 3 {
        return Err(TensorError::Invalid {
            op: "bmm",
            msg: format!("lhs must be rank-3, got {}", a.rank()),
        });
    }
    let (bs, m, k) = (a.dim(0), a.dim(1), a.dim(2));
    let shared_rhs = b.rank() == 2;
    let (k2, n) = if shared_rhs {
        (b.dim(0), b.dim(1))
    } else if b.rank() == 3 && b.dim(0) == bs {
        (b.dim(1), b.dim(2))
    } else {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (mut a, b) = (gemm_operand(a), gemm_operand(b));
    let mut out = vec![0.0f32; bs * m * n];
    if shared_rhs {
        // Rows are independent and each keeps its k-order, so the batch's
        // rows form one `[bs·m, k]` matrix — a reshape when matrix `i + 1`
        // starts `m` rows after matrix `i`, a gather otherwise.
        if bs > 1 && a.strides()[0] != m * a.strides()[1] {
            a = Cow::Owned(a.contiguous());
        }
        backend::timed(KernelClass::Gemm, || {
            backend::kernels().matmul(mat_ref(&a), mat_ref(&b), &mut out, bs * m, k, n)
        });
    } else {
        backend::timed(KernelClass::Gemm, || {
            backend::kernels().bmm(mat_ref(&a), mat_ref(&b), &mut out, bs, m, k, n)
        });
    }
    Tensor::from_vec(out, [bs, m, n])
}

/// `y[m] = A[m,k] @ x[k]` — matrix–vector product.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || x.rank() != 1 {
        return Err(TensorError::Invalid {
            op: "matvec",
            msg: format!("need [m,k] @ [k], got {:?} @ {:?}", a.dims(), x.dims()),
        });
    }
    let out = matmul(a, &x.reshape([x.dim(0), 1])?)?;
    out.reshape([a.dim(0)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matmul_exact() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_noop() {
        let a = Tensor::arange(9).reshape([3, 3]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(matmul(&a, &i).unwrap().to_vec(), a.to_vec());
        assert_eq!(matmul(&i, &a).unwrap().to_vec(), a.to_vec());
    }

    #[test]
    fn rectangular_shapes() {
        let a = Tensor::ones([3, 4]);
        let b = Tensor::ones([4, 5]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 5]);
        assert!(c.to_vec().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn mismatched_inner_dim_errors() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_on_transposed_view() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let at = a.t().unwrap(); // [3,2]
        let c = matmul(&at, &a).unwrap(); // [3,3]
                                          // Verify one entry: row0 of at = (1,4); col0 of a = (1,4) => 1+16=17.
        assert_eq!(c.at(&[0, 0]), 17.0);
        assert_eq!(c.dims(), &[3, 3]);
    }

    #[test]
    fn large_matmul_matches_naive() {
        // Exercise the parallel path against a naive reference.
        let m = 37;
        let k = 53;
        let n = 41;
        let mut rng = crate::random::rng_from_seed(3);
        let a = crate::random::uniform([m, k], -1.0, 1.0, &mut rng);
        let b = crate::random::uniform([k, n], -1.0, 1.0, &mut rng);
        let c = matmul(&a, &b).unwrap();
        let (av, bv) = (a.to_vec(), b.to_vec());
        for i in (0..m).step_by(7) {
            for j in (0..n).step_by(5) {
                let mut s = 0.0;
                for l in 0..k {
                    s += av[i * k + l] * bv[l * n + j];
                }
                assert!((c.at(&[i, j]) - s).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nan_and_inf_propagate_through_matmul() {
        // Regression: the old kernel skipped `al == 0.0` multiplicands, so
        // a zero in A silently swallowed a NaN/Inf in B (`0 × NaN` never
        // landed). IEEE semantics must hold on the public op.
        let a = Tensor::from_vec(vec![0.0, 0.0], [1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0, 1.0], [2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap().to_vec();
        assert!(c[0].is_nan(), "0 × NaN must produce NaN");
        assert!(c[1].is_nan(), "0 × Inf must produce NaN");
        // Batched path shares the fix.
        let ab = Tensor::from_vec(vec![0.0, 0.0], [1, 1, 2]).unwrap();
        let cb = bmm(&ab, &b).unwrap().to_vec();
        assert!(cb[0].is_nan() && cb[1].is_nan());
    }

    #[test]
    fn backends_agree_bitwise_on_public_ops() {
        use crate::backend::{kernels_for, BackendKind};
        let mut rng = crate::random::rng_from_seed(11);
        let a = crate::random::uniform([45, 70], -1.0, 1.0, &mut rng);
        let b = crate::random::uniform([70, 19], -1.0, 1.0, &mut rng);
        let (m, k, n) = (45, 70, 19);
        let mut r = vec![0.0f32; m * n];
        let mut t = vec![0.0f32; m * n];
        kernels_for(BackendKind::Reference).matmul(mat_ref(&a), mat_ref(&b), &mut r, m, k, n);
        kernels_for(BackendKind::Tiled).matmul(mat_ref(&a), mat_ref(&b), &mut t, m, k, n);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r), bits(&t));
    }

    #[test]
    fn bmm_with_shared_rhs() {
        let a = Tensor::ones([2, 3, 4]);
        let b = Tensor::ones([4, 5]);
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 5]);
        assert!(c.to_vec().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn bmm_per_batch_rhs() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], [2, 2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [2, 2, 2]).unwrap();
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn strided_views_multiply_like_their_contiguous_copies() {
        let bits = |t: &Tensor| t.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = crate::random::rng_from_seed(12);
        let x = crate::random::uniform([3, 40, 30], -1.0, 1.0, &mut rng);
        let w = crate::random::uniform([30, 20], -1.0, 1.0, &mut rng);
        let per = crate::random::uniform([3, 20, 40], -1.0, 1.0, &mut rng);
        // Aᵀ (column-major), narrowed rows (row stride > cols), and a
        // permuted view that is neither row- nor column-major.
        let at = x.transpose(1, 2).unwrap(); // [3, 30, 40]
        let narrowed = x.narrow(2, 5, 20).unwrap(); // [3, 40, 20]
        let odd = x.permute(&[2, 0, 1]).unwrap(); // [30, 3, 40]
        let x0 = x.select(0, 0).unwrap(); // [40, 30]
        let cases = [
            (at.clone(), x0.clone()),           // shared rhs, Aᵀ lhs gathered
            (narrowed.clone(), w.t().unwrap()), // shared Bᵀ, rows reshaped
            (narrowed, per.clone()),            // per-batch rhs
            (at, per.transpose(1, 2).unwrap()), // per-batch Aᵀ and Bᵀ
            (odd, x0),                          // lhs gathered
        ];
        for (a, b) in cases {
            let got = bmm(&a, &b).unwrap();
            let want = bmm(&a.contiguous(), &b.contiguous()).unwrap();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{:?} @ {:?}",
                a.strides(),
                b.strides()
            );
        }
        let wt = w.t().unwrap(); // [20, 30]
        let xt = x.select(0, 1).unwrap().t().unwrap(); // [30, 40]
        assert_eq!(
            bits(&matmul(&wt, &xt).unwrap()),
            bits(&matmul(&wt.contiguous(), &xt.contiguous()).unwrap())
        );
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let x = Tensor::from_slice(&[1.0, -1.0]);
        assert_eq!(matvec(&a, &x).unwrap().to_vec(), vec![-1.0, -1.0]);
    }
}
