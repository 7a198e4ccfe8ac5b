//! The allocating LML path that [`super::LmlWorkspace`] replaced, kept as
//! the bit-identity reference for its tests: a fresh covariance, factor,
//! `alpha` and `K_y^{-1}` per evaluation, a row-by-row contraction for
//! the SE forms and a per-pair `Kernel::grad` contraction for every other
//! kernel.

use crate::kernel::{DistanceForm, Kernel};
use alperf_linalg::{
    cholesky::Cholesky, fastmath, matrix::Matrix, vector::dot, vector::sq_dist, LinalgError,
};

/// The distance cache as the SE forms read it; every other kernel takes
/// the pointwise path.
pub(super) enum RefCache {
    Iso { d2: Matrix },
    Ard { d2: Vec<Matrix> },
    Pointwise,
}

impl RefCache {
    pub(super) fn build(kernel: &dyn Kernel, x: &Matrix) -> RefCache {
        let n = x.nrows();
        match kernel.distance_form() {
            Some(DistanceForm::IsoSe { .. }) => RefCache::Iso {
                d2: Matrix::from_fn(n, n, |i, j| sq_dist(x.row(i), x.row(j))),
            },
            Some(DistanceForm::ArdSe { .. }) => RefCache::Ard {
                d2: (0..x.ncols())
                    .map(|c| {
                        Matrix::from_fn(n, n, |i, j| {
                            let v = x.row(i)[c] - x.row(j)[c];
                            v * v
                        })
                    })
                    .collect(),
            },
            _ => RefCache::Pointwise,
        }
    }
}

fn covariance(kernel: &dyn Kernel, x: &Matrix, cache: &RefCache) -> Matrix {
    match (cache, kernel.distance_form()) {
        (RefCache::Iso { d2 }, Some(DistanceForm::IsoSe { length_scale, sf2 })) => {
            let mut k = d2.clone();
            let c = -0.5 / (length_scale * length_scale);
            for v in k.as_mut_slice() {
                *v *= c;
            }
            fastmath::exp_inplace_scaled(k.as_mut_slice(), sf2);
            k
        }
        (RefCache::Ard { d2 }, Some(DistanceForm::ArdSe { length_scales, sf2 }))
            if d2.len() == length_scales.len() =>
        {
            let n = x.nrows();
            let mut q = Matrix::zeros(n, n);
            for (dm, l) in d2.iter().zip(&length_scales) {
                let c = -0.5 / (l * l);
                for (qv, dv) in q.as_mut_slice().iter_mut().zip(dm.as_slice()) {
                    *qv += c * dv;
                }
            }
            fastmath::exp_inplace_scaled(q.as_mut_slice(), sf2);
            q
        }
        _ => super::assemble_covariance(kernel, x),
    }
}

/// Factored state of one evaluation: `(factor, alpha, lml, K_y)`.
pub(super) type State = (Cholesky, Vec<f64>, f64, Matrix);

pub(super) fn evaluate(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    y: &[f64],
    cache: &RefCache,
) -> Result<State, LinalgError> {
    let n = x.nrows();
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lml",
            details: format!("X has {n} rows, y has {}", y.len()),
        });
    }
    let mut ky = covariance(kernel, x, cache);
    ky.add_diagonal(noise_std * noise_std);
    let chol = Cholesky::decompose_jittered(&ky, super::CHOL_JITTER, super::CHOL_TRIES)?;
    let alpha = chol.solve(y)?;
    let lml = -0.5 * dot(y, &alpha)
        - 0.5 * chol.log_det()
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
    Ok((chol, alpha, lml, ky))
}

pub(super) fn gradient(
    kernel: &dyn Kernel,
    noise_std: f64,
    x: &Matrix,
    optimize_noise: bool,
    state: &State,
    cache: &RefCache,
) -> Result<Vec<f64>, LinalgError> {
    let (chol, alpha, _, ky) = state;
    let n = x.nrows();
    let mut w = chol.inverse_lower()?;
    for i in 0..n {
        let ai = alpha[i];
        for (wv, aj) in w.row_mut(i)[..=i].iter_mut().zip(alpha) {
            *wv = ai * aj - *wv;
        }
    }
    let grad_k = match (cache, kernel.distance_form()) {
        (RefCache::Iso { d2 }, Some(DistanceForm::IsoSe { length_scale, sf2 })) => {
            let inv_l2 = 1.0 / (length_scale * length_scale);
            let (sl, sk) = row_sums(n, 1, |i| {
                let wrow = &w.row(i)[..i];
                let krow = &ky.row(i)[..i];
                let drow = &d2.row(i)[..i];
                let mut sl = 0.0;
                let mut sk = 0.0;
                for ((wv, kv), dv) in wrow.iter().zip(krow).zip(drow) {
                    let wk = wv * kv;
                    sk += wk;
                    sl += wk * dv;
                }
                (vec![sl], sk + 0.5 * w[(i, i)] * sf2)
            });
            vec![sl[0] * inv_l2, 2.0 * sk]
        }
        (RefCache::Ard { d2 }, Some(DistanceForm::ArdSe { length_scales, sf2 }))
            if d2.len() == length_scales.len() =>
        {
            let nd = d2.len();
            let (sl, sk) = row_sums(n, nd, |i| {
                let wrow = &w.row(i)[..i];
                let krow = &ky.row(i)[..i];
                let mut sl = vec![0.0; nd];
                let mut sk = 0.0;
                let wk: Vec<f64> = wrow.iter().zip(krow).map(|(wv, kv)| wv * kv).collect();
                for (sld, dm) in sl.iter_mut().zip(d2) {
                    let drow = &dm.row(i)[..i];
                    for (wkv, dv) in wk.iter().zip(drow) {
                        *sld += wkv * dv;
                    }
                }
                sk += wk.iter().sum::<f64>();
                (sl, sk + 0.5 * w[(i, i)] * sf2)
            });
            let mut g: Vec<f64> = sl
                .iter()
                .zip(&length_scales)
                .map(|(s, l)| s / (l * l))
                .collect();
            g.push(2.0 * sk);
            g
        }
        _ => pointwise_gradient(kernel, x, &w),
    };
    let mut grad = grad_k;
    if optimize_noise {
        let tr_w: f64 = (0..n).map(|i| w[(i, i)]).sum();
        grad.push(noise_std * noise_std * tr_w);
    }
    Ok(grad)
}

fn row_sums(n: usize, nd: usize, f: impl Fn(usize) -> (Vec<f64>, f64)) -> (Vec<f64>, f64) {
    (0..n)
        .map(f)
        .fold((vec![0.0; nd], 0.0), |(mut asl, ask), (bsl, bsk)| {
            for (a, b) in asl.iter_mut().zip(&bsl) {
                *a += b;
            }
            (asl, ask + bsk)
        })
}

fn pointwise_gradient(kernel: &dyn Kernel, x: &Matrix, w: &Matrix) -> Vec<f64> {
    let n = x.nrows();
    let np = kernel.n_params();
    let row_term = |i: usize| {
        let mut acc = vec![0.0; np];
        let xi = x.row(i);
        let wrow = w.row(i);
        for (j, wv) in wrow.iter().enumerate().take(i + 1) {
            let m = if i == j { 0.5 * wv } else { *wv };
            let g = kernel.grad(xi, x.row(j));
            for (a, gj) in acc.iter_mut().zip(&g) {
                *a += m * gj;
            }
        }
        acc
    };
    let mut acc = vec![0.0; np];
    for i in 0..n {
        for (a, b) in acc.iter_mut().zip(&row_term(i)) {
            *a += b;
        }
    }
    acc
}
