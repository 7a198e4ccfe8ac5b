//! Incremental cross-covariance cache for pool/test predictions.
//!
//! The AL loop predicts over the same candidate set every iteration while
//! the training set grows by exactly one row. Rebuilding `K(candidates,
//! X_train)` from scratch each time costs `O(m n d)`; between hyperparameter
//! refits the kernel is frozen, so the matrix can instead be maintained
//! incrementally: the cache appends one column (`k(candidate_i, x_new)`)
//! per promoted point.
//!
//! Correctness rests on one invariant: the cached matrix depends only on
//! the kernel hyperparameters, the candidate rows, and the training rows.
//! [`PoolPredictionCache::predictions`] therefore revalidates against the
//! model's current kernel parameters and training size on every call and
//! silently rebuilds when anything moved — a stale cache is impossible, it
//! can only be slower than intended. Incrementally appended columns go
//! through the same [`Kernel::cross_matrix`] kernels as a full rebuild, so
//! cached and rebuilt matrices are bit-identical and a cache hit never
//! changes an AL trajectory.

use alperf_gp::kernel::Kernel;
use alperf_gp::model::{GpError, Gpr, Prediction};
use alperf_linalg::matrix::Matrix;

/// Cached `K(candidates, X_train)` cross-covariance with incremental updates.
#[derive(Debug, Clone)]
pub struct PoolPredictionCache {
    /// Candidate inputs, one row per candidate (pool or test set).
    x: Matrix,
    /// Cross-covariance `K(x, X_train)` under `params`, when valid.
    kxb: Option<Matrix>,
    /// Kernel (log-)hyperparameters `kxb` was assembled under.
    params: Vec<f64>,
}

impl PoolPredictionCache {
    /// New cache over the given candidate rows; the cross-covariance is
    /// assembled lazily on the first [`PoolPredictionCache::predictions`].
    pub fn new(x: Matrix) -> Self {
        PoolPredictionCache {
            x,
            kxb: None,
            params: Vec::new(),
        }
    }

    /// The candidate rows, in cache order.
    pub fn candidates(&self) -> &Matrix {
        &self.x
    }

    /// Number of candidates currently tracked.
    pub fn len(&self) -> usize {
        self.x.nrows()
    }

    /// True when no candidates remain.
    pub fn is_empty(&self) -> bool {
        self.x.nrows() == 0
    }

    /// Whether the cached cross-covariance currently matches `model`.
    pub fn is_warm_for(&self, model: &Gpr) -> bool {
        self.kxb.as_ref().is_some_and(|k| {
            k.nrows() == self.x.nrows()
                && k.ncols() == model.x_train().nrows()
                && self.params == model.kernel().params()
        })
    }

    /// Drop the cached cross-covariance (call after a hyperparameter
    /// refit). The candidate rows are kept.
    pub fn invalidate(&mut self) {
        if self.kxb.is_some() {
            alperf_obs::inc("al.cache.invalidate");
        }
        self.kxb = None;
        self.params.clear();
    }

    /// Batched predictions at every candidate, reusing (or lazily
    /// rebuilding) the cached cross-covariance.
    ///
    /// # Errors
    /// Propagates [`Gpr::predict_batch_with_cross`] failures.
    pub fn predictions(&mut self, model: &Gpr) -> Result<Vec<Prediction>, GpError> {
        self.warm_up(model);
        model.predict_batch_with_cross(&self.x, self.kxb.as_ref().expect("warmed up above"))
    }

    /// The posterior means of [`PoolPredictionCache::predictions`] alone,
    /// bit for bit, without the forward solve the variances need
    /// ([`Gpr::predict_mean_batch_with_cross`]).
    ///
    /// # Errors
    /// Propagates [`Gpr::predict_mean_batch_with_cross`] failures.
    pub fn means(&mut self, model: &Gpr) -> Result<Vec<f64>, GpError> {
        self.warm_up(model);
        model.predict_mean_batch_with_cross(self.kxb.as_ref().expect("warmed up above"))
    }

    /// Rebuild the cross-covariance unless it is warm for `model`.
    fn warm_up(&mut self, model: &Gpr) {
        if self.is_warm_for(model) {
            alperf_obs::inc("al.cache.hit");
        } else {
            alperf_obs::inc("al.cache.rebuild");
            self.kxb = Some(model.kernel().cross_matrix(&self.x, model.x_train()));
            self.params = model.kernel().params();
        }
    }

    /// Remove candidate `pos` (the row just promoted into the training
    /// set), mirroring `Vec::swap_remove` on the caller's pool index list:
    /// the last candidate takes its place, order is not preserved.
    pub fn swap_remove(&mut self, pos: usize) {
        self.x.swap_remove_row(pos);
        if let Some(k) = &mut self.kxb {
            k.swap_remove_row(pos);
        }
    }

    /// Record that `x_new` was appended to the training set: extends the
    /// cached cross-covariance by the column `k(candidate_i, x_new)`. If the
    /// model's kernel hyperparameters differ from the cached ones the cache
    /// is invalidated instead (the next `predictions` call rebuilds).
    pub fn extend_train(&mut self, x_new: &[f64], model: &Gpr) {
        if self.kxb.is_none() {
            return;
        }
        if x_new.len() != self.x.ncols() {
            // A malformed append (wrong input dimension) must not corrupt
            // the cached matrix: reject it and fall back to a rebuild on
            // the next `predictions` call.
            alperf_obs::inc("al.cache.append_reject");
            self.invalidate();
            return;
        }
        let kernel: &dyn Kernel = model.kernel();
        if kernel.params() != self.params {
            self.invalidate();
            return;
        }
        alperf_obs::inc("al.cache.append");
        let xm = Matrix::from_vec(1, x_new.len(), x_new.to_vec())
            .expect("one row of x_new.len() values");
        let col = kernel.cross_matrix(&self.x, &xm);
        self.kxb
            .as_mut()
            .expect("checked above")
            .push_col(col.as_slice())
            .expect("column length equals candidate count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_gp::kernel::SquaredExponential;

    fn fit(train_x: &Matrix, y: &[f64], scale: f64) -> Gpr {
        Gpr::fit(
            train_x.clone(),
            y,
            Box::new(SquaredExponential::new(scale, 1.0)),
            0.05,
            true,
        )
        .unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Replay an AL-like sequence (predict, pick, swap-remove, extend) and
    /// check the incrementally maintained cache stays bit-identical to a
    /// cold cache rebuilt from scratch every iteration, for the full
    /// predictions and for the means alone.
    #[test]
    fn incremental_updates_match_cold_rebuild() {
        let n_pool = 12;
        let pool_x = Matrix::from_fn(n_pool, 2, |i, j| ((i * 2 + j) as f64 * 0.9).sin() * 3.0);
        let mut train_x = Matrix::from_fn(4, 2, |i, j| (i + j) as f64 * 0.8);
        let mut y: Vec<f64> = (0..4).map(|i| (i as f64 * 0.7).cos()).collect();

        let mut warm = PoolPredictionCache::new(pool_x.clone());
        let mut pool = pool_x.clone();
        for step in 0..6 {
            let model = fit(&train_x, &y, 1.1);
            let cached = warm.predictions(&model).unwrap();
            // Cold reference: fresh cache, same candidates.
            let cold = PoolPredictionCache::new(pool.clone())
                .predictions(&model)
                .unwrap();
            assert_eq!(cached, cold, "step {step} diverged");
            assert!(warm.is_warm_for(&model) || step == 0);
            // The means-only path reads the same warm matrix and returns
            // the cold predictions' means bit for bit.
            let means = warm.means(&model).unwrap();
            let cold_means: Vec<f64> = cold.iter().map(|p| p.mean).collect();
            assert_eq!(bits(&means), bits(&cold_means), "step {step} means");
            assert_eq!(
                bits(&model.predict_mean_batch(&pool).unwrap()),
                bits(&cold_means),
                "step {step} uncached means"
            );

            // Promote candidate `pos` into the training set.
            let pos = step % warm.len();
            let chosen = pool.row(pos).to_vec();
            pool.swap_remove_row(pos);
            warm.swap_remove(pos);
            train_x = train_x.with_row(&chosen).unwrap();
            y.push((step as f64 * 0.3).sin());
            warm.extend_train(&chosen, &model);
        }
    }

    #[test]
    fn hyperparameter_change_invalidates() {
        let pool_x = Matrix::from_fn(5, 1, |i, _| i as f64);
        let train_x = Matrix::from_fn(3, 1, |i, _| i as f64 * 1.7 + 0.3);
        let y = vec![0.1, 0.8, -0.4];
        let mut cache = PoolPredictionCache::new(pool_x);
        let m1 = fit(&train_x, &y, 1.0);
        cache.predictions(&m1).unwrap();
        assert!(cache.is_warm_for(&m1));
        // Different length scale: the cache must not be considered warm,
        // and predictions must match a direct batch under the new model.
        let m2 = fit(&train_x, &y, 0.4);
        assert!(!cache.is_warm_for(&m2));
        let via_cache = cache.predictions(&m2).unwrap();
        let direct = m2.predict_batch(cache.candidates()).unwrap();
        assert_eq!(via_cache, direct);
    }

    #[test]
    fn extend_with_changed_kernel_invalidates_instead_of_corrupting() {
        let pool_x = Matrix::from_fn(4, 1, |i, _| i as f64);
        let train_x = Matrix::from_fn(3, 1, |i, _| i as f64 + 0.5);
        let y = vec![0.0, 1.0, 0.5];
        let mut cache = PoolPredictionCache::new(pool_x);
        let m1 = fit(&train_x, &y, 1.0);
        cache.predictions(&m1).unwrap();
        let other = fit(&train_x, &y, 0.3);
        cache.extend_train(&[9.0], &other);
        assert!(!cache.is_warm_for(&m1));
        // And it recovers transparently.
        assert_eq!(cache.predictions(&m1).unwrap().len(), 4);
    }

    #[test]
    fn extend_with_wrong_dimension_invalidates_instead_of_corrupting() {
        let pool_x = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let train_x = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.5);
        let y = vec![0.0, 1.0, 0.5];
        let mut cache = PoolPredictionCache::new(pool_x);
        let m = fit(&train_x, &y, 1.0);
        cache.predictions(&m).unwrap();
        assert!(cache.is_warm_for(&m));
        // 3 coordinates into a 2-D cache: rejected, cache cold but intact.
        cache.extend_train(&[1.0, 2.0, 3.0], &m);
        assert!(!cache.is_warm_for(&m));
        let via_cache = cache.predictions(&m).unwrap();
        let direct = m.predict_batch(cache.candidates()).unwrap();
        assert_eq!(via_cache, direct);
    }

    #[test]
    fn empty_pool_is_supported() {
        let train_x = Matrix::from_fn(3, 1, |i, _| i as f64);
        let y = vec![0.1, 0.2, 0.3];
        let model = fit(&train_x, &y, 1.0);
        let mut cache = PoolPredictionCache::new(Matrix::zeros(0, 1));
        assert!(cache.is_empty());
        assert!(cache.predictions(&model).unwrap().is_empty());
    }
}
