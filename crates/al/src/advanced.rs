//! Advanced acquisition strategies beyond the paper's two algorithms.
//!
//! The paper's future-work section points at richer selection rules; these
//! are the two standard ones that slot straight into the same loop:
//!
//! * [`IntegratedVarianceReduction`] (ALC, "active learning Cohn"): instead
//!   of going where *local* variance is highest, pick the candidate whose
//!   observation shrinks posterior variance the most **summed over the
//!   whole pool**. Closed form: observing `x` reduces the variance at `z`
//!   by `cov(z, x)^2 / (sigma^2(x) + sigma_n^2)`, so
//!   `score(x) = sum_z cov(z, x)^2 / (sigma^2(x) + sigma_n^2)`.
//! * [`ThompsonSampling`]: draw one function from the GP posterior over the
//!   pool and pick its extremum. Natural when AL is used for *optimization*
//!   (find the best configuration) rather than coverage; also a randomized
//!   exploration baseline.
//!
//! Both cost more per iteration than Variance Reduction: ALC needs the
//! joint posterior covariance over the pool (O(pool^2) solves), Thompson a
//! posterior Cholesky.

use crate::strategy::{SelectionContext, Strategy};
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;

/// ALC: maximize the pool-integrated posterior-variance reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntegratedVarianceReduction;

impl Strategy for IntegratedVarianceReduction {
    fn name(&self) -> &'static str {
        "integrated_variance_reduction"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Option<usize> {
        if ctx.pool.is_empty() {
            return None;
        }
        let pool_x = ctx.x_all.select_rows(ctx.pool);
        let cov = ctx.model.posterior_covariance(&pool_x).ok()?;
        let noise = ctx.model.noise_std_raw();
        let noise2 = noise * noise;
        let m = ctx.pool.len();
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..m {
            let denom = cov[(cand, cand)] + noise2;
            if denom <= 0.0 {
                continue;
            }
            let mut score = 0.0;
            for z in 0..m {
                let c = cov[(z, cand)];
                score += c * c;
            }
            score /= denom;
            if score.is_nan() {
                continue;
            }
            match best {
                Some((_, bs)) if bs >= score => {}
                _ => best = Some((cand, score)),
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Thompson sampling: draw one posterior function over the pool and select
/// its maximizer (set `minimize` to chase the minimum instead).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThompsonSampling {
    /// Pick the sampled function's minimum instead of its maximum.
    pub minimize: bool,
}

impl Strategy for ThompsonSampling {
    fn name(&self) -> &'static str {
        "thompson_sampling"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        if ctx.pool.is_empty() {
            return None;
        }
        let pool_x: Matrix = ctx.x_all.select_rows(ctx.pool);
        let sample = ctx.model.sample_posterior(&pool_x, 1, rng).ok()?.pop()?;
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in sample.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            let key = if self.minimize { -v } else { v };
            match best {
                Some((_, bs)) if bs >= key => {}
                _ => best = Some((i, key)),
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_gp::kernel::SquaredExponential;
    use alperf_gp::model::{Gpr, Prediction};
    use rand::SeedableRng;

    struct Fx {
        x_all: Matrix,
        y_all: Vec<f64>,
        train: Vec<usize>,
        pool: Vec<usize>,
        model: Gpr,
    }

    fn fixture() -> Fx {
        // Train in the middle; pool on a line either side, with one isolated
        // far-right point.
        let xs: Vec<f64> = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 12.0];
        let y: Vec<f64> = xs.iter().map(|v| (v * 0.5).sin()).collect();
        let x_all = Matrix::from_vec(8, 1, xs).unwrap();
        let train = vec![3usize];
        let pool = vec![0usize, 1, 2, 4, 5, 6, 7];
        let model = Gpr::fit(
            x_all.select_rows(&train),
            &[y[3]],
            Box::new(SquaredExponential::new(1.5, 1.0)),
            0.1,
            false,
        )
        .unwrap();
        Fx {
            x_all,
            y_all: y,
            train,
            pool,
            model,
        }
    }

    fn ctx_select(fx: &Fx, strat: &mut dyn Strategy, seed: u64) -> Option<usize> {
        let preds: Vec<Prediction> = fx
            .model
            .predict_batch(&fx.x_all.select_rows(&fx.pool))
            .unwrap();
        let ctx = SelectionContext {
            model: &fx.model,
            x_all: &fx.x_all,
            y_all: &fx.y_all,
            train: &fx.train,
            pool: &fx.pool,
            predictions: &preds,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        strat.select(&ctx, &mut rng)
    }

    #[test]
    fn alc_prefers_informative_cluster_over_isolated_point() {
        // The isolated point at x=12 has maximal *local* variance but its
        // observation informs nothing else; ALC must prefer a point inside
        // the dense cluster. Plain Variance Reduction would pick x=12.
        let fx = fixture();
        let pick = ctx_select(&fx, &mut IntegratedVarianceReduction, 0).unwrap();
        let chosen_x = fx.x_all.row(fx.pool[pick])[0];
        assert!(
            chosen_x < 12.0,
            "ALC picked the isolated point x={chosen_x}"
        );
        // Contrast: VR picks the isolated point.
        let vr_pick = ctx_select(&fx, &mut crate::strategy::VarianceReduction, 0).unwrap();
        assert_eq!(fx.x_all.row(fx.pool[vr_pick])[0], 12.0);
    }

    #[test]
    fn alc_deterministic() {
        let fx = fixture();
        let a = ctx_select(&fx, &mut IntegratedVarianceReduction, 1);
        let b = ctx_select(&fx, &mut IntegratedVarianceReduction, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn thompson_varies_with_seed_but_stays_valid() {
        let fx = fixture();
        let picks: std::collections::BTreeSet<usize> = (0..12)
            .filter_map(|s| ctx_select(&fx, &mut ThompsonSampling::default(), s))
            .collect();
        assert!(!picks.is_empty());
        assert!(picks.iter().all(|&p| p < fx.pool.len()));
        // Randomized: more than one distinct pick across seeds.
        assert!(picks.len() > 1, "Thompson was deterministic: {picks:?}");
    }

    #[test]
    fn thompson_minimize_flag_changes_behavior() {
        // With a strong trend in the data, min- and max-chasing samples
        // concentrate at opposite ends.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = xs.iter().map(|v| v * 1.0).collect();
        let x_all = Matrix::from_vec(10, 1, xs).unwrap();
        let train: Vec<usize> = (0..10).collect();
        let model = Gpr::fit(
            x_all.select_rows(&train),
            &y,
            Box::new(SquaredExponential::new(2.0, 3.0)),
            0.1,
            false,
        )
        .unwrap();
        let pool: Vec<usize> = (0..10).collect();
        let preds: Vec<Prediction> = model.predict_batch(&x_all.select_rows(&pool)).unwrap();
        let mut max_sum = 0.0;
        let mut min_sum = 0.0;
        for s in 0..8 {
            let ctx = SelectionContext {
                model: &model,
                x_all: &x_all,
                y_all: &y,
                train: &train,
                pool: &pool,
                predictions: &preds,
            };
            let mut rng = StdRng::seed_from_u64(s);
            let pmax = ThompsonSampling { minimize: false }
                .select(&ctx, &mut rng)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(s);
            let pmin = ThompsonSampling { minimize: true }
                .select(&ctx, &mut rng)
                .unwrap();
            max_sum += x_all.row(pool[pmax])[0];
            min_sum += x_all.row(pool[pmin])[0];
        }
        assert!(
            max_sum > min_sum,
            "max-chasing mean position {max_sum} !> min-chasing {min_sum}"
        );
    }

    #[test]
    fn empty_pool_returns_none() {
        let mut fx = fixture();
        fx.pool.clear();
        assert_eq!(ctx_select(&fx, &mut IntegratedVarianceReduction, 0), None);
        assert_eq!(ctx_select(&fx, &mut ThompsonSampling::default(), 0), None);
    }
}
