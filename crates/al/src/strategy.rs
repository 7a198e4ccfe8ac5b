//! Acquisition strategies: which pool candidate to run next.
//!
//! The paper's two algorithms (Section V-B):
//!
//! * **Variance Reduction** — `x* = argmax sigma_f(x)`: run the experiment
//!   the model is least sure about.
//! * **Cost Efficiency** — `x* = argmax (sigma_f(x) - mu_f(x))` (Eq. 14):
//!   with log-transformed cost responses this maximizes the
//!   *variance-per-unit-cost* ratio, leaning "toward smaller experiments
//!   rather than larger ones where such choice is appropriate".
//!
//! Both operate on a finite pool, and — unlike EMCM — a setting stays
//! selectable as long as rows remain for it (noisy functions need repeated
//! measurements, Section III).

use alperf_gp::model::{Gpr, Prediction};
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Everything a strategy may look at when scoring the pool.
pub struct SelectionContext<'a> {
    /// The GPR fitted to the current training set. After a batch round's
    /// first pick it also holds that round's fantasy observations of the
    /// earlier picks, which `train` does not list.
    pub model: &'a Gpr,
    /// Design matrix over *all* rows of the dataset.
    pub x_all: &'a Matrix,
    /// Response over all rows (log scale where applicable).
    pub y_all: &'a [f64],
    /// Row indices currently in the training set (measured rows only).
    pub train: &'a [usize],
    /// Row indices currently in the candidate pool (without the round's
    /// earlier picks).
    pub pool: &'a [usize],
    /// Predictions at each pool row (same order as `pool`).
    pub predictions: &'a [Prediction],
}

/// An acquisition strategy. Returns the position *within the pool slice*
/// of the chosen candidate, or `None` when the pool is empty.
pub trait Strategy: Send {
    /// Short name for reports ("variance_reduction", ...).
    fn name(&self) -> &'static str;

    /// Choose the next experiment.
    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize>;
}

/// The paper's basic algorithm: maximize the predictive standard deviation.
#[derive(Debug, Clone, Copy, Default)]
pub struct VarianceReduction;

impl Strategy for VarianceReduction {
    fn name(&self) -> &'static str {
        "variance_reduction"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Option<usize> {
        argmax_by(ctx.predictions, |p| p.std)
    }
}

/// The paper's cost-aware algorithm (Eq. 14): maximize
/// `sigma_f(x) - mu_f(x)` on the log-cost scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostEfficiency;

impl Strategy for CostEfficiency {
    fn name(&self) -> &'static str {
        "cost_efficiency"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Option<usize> {
        // With y = log10(runtime), mu is the predicted log-cost; subtracting
        // it in log space is dividing by the predicted cost in linear space.
        argmax_by(ctx.predictions, |p| p.std - p.mean)
    }
}

/// A tunable generalization: `sigma - lambda * mu`. `lambda = 0` recovers
/// Variance Reduction, `lambda = 1` recovers Cost Efficiency. Used by the
/// ablation benches to sweep the aggressiveness of cost awareness.
#[derive(Debug, Clone, Copy)]
pub struct CostWeighted {
    /// Cost-awareness weight.
    pub lambda: f64,
}

impl Strategy for CostWeighted {
    fn name(&self) -> &'static str {
        "cost_weighted"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Option<usize> {
        let l = self.lambda;
        argmax_by(ctx.predictions, |p| p.std - l * p.mean)
    }
}

/// Uniform random selection from the pool — the null baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSampling;

impl Strategy for RandomSampling {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        if ctx.pool.is_empty() {
            None
        } else {
            Some(rng.gen_range(0..ctx.pool.len()))
        }
    }
}

/// `argmax` over predictions with a score function; `None` on empty input
/// or all-NaN scores. Ties resolve to the first occurrence (deterministic).
fn argmax_by(preds: &[Prediction], score: impl Fn(&Prediction) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in preds.iter().enumerate() {
        let s = score(p);
        if s.is_nan() {
            continue;
        }
        match best {
            Some((_, bs)) if bs >= s => {}
            _ => best = Some((i, s)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_gp::kernel::SquaredExponential;
    use alperf_gp::model::Gpr;
    use rand::SeedableRng;

    fn fake_predictions(stds: &[f64], means: &[f64]) -> Vec<Prediction> {
        stds.iter()
            .zip(means)
            .map(|(&std, &mean)| Prediction { mean, std })
            .collect()
    }

    /// Minimal context over a 1-D dataset for strategy tests.
    fn with_context<R>(
        preds: &[Prediction],
        f: impl FnOnce(&SelectionContext<'_>, &mut StdRng) -> R,
    ) -> R {
        let x_all = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        let y_all = vec![0.0, 1.0, 0.5, 0.2];
        let train = vec![0usize];
        let pool: Vec<usize> = (0..preds.len()).map(|i| i + 1).collect();
        let model = Gpr::fit(
            x_all.select_rows(&train),
            &[0.0],
            Box::new(SquaredExponential::unit()),
            0.1,
            false,
        )
        .unwrap();
        let ctx = SelectionContext {
            model: &model,
            x_all: &x_all,
            y_all: &y_all,
            train: &train,
            pool: &pool,
            predictions: preds,
        };
        let mut rng = StdRng::seed_from_u64(0);
        f(&ctx, &mut rng)
    }

    #[test]
    fn variance_reduction_picks_highest_sd() {
        let preds = fake_predictions(&[0.1, 0.9, 0.5], &[0.0, 0.0, 0.0]);
        let pick = with_context(&preds, |ctx, rng| VarianceReduction.select(ctx, rng));
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn cost_efficiency_prefers_cheap_experiments() {
        // Same SD, very different predicted (log) cost: pick the cheap one.
        let preds = fake_predictions(&[0.5, 0.5], &[3.0, 0.0]);
        let pick = with_context(&preds, |ctx, rng| CostEfficiency.select(ctx, rng));
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn cost_efficiency_trades_sd_against_cost() {
        // Slightly higher SD but much higher cost loses.
        let preds = fake_predictions(&[0.6, 0.5], &[2.0, 0.0]);
        let pick = with_context(&preds, |ctx, rng| CostEfficiency.select(ctx, rng));
        assert_eq!(pick, Some(1));
        // But a large SD advantage wins even at higher cost.
        let preds = fake_predictions(&[3.0, 0.5], &[2.0, 0.0]);
        let pick = with_context(&preds, |ctx, rng| CostEfficiency.select(ctx, rng));
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn cost_weighted_interpolates() {
        let preds = fake_predictions(&[0.6, 0.5], &[2.0, 0.0]);
        // lambda = 0: pure variance reduction picks index 0.
        let p0 = with_context(&preds, |ctx, rng| {
            CostWeighted { lambda: 0.0 }.select(ctx, rng)
        });
        assert_eq!(p0, Some(0));
        // lambda = 1: cost efficiency picks index 1.
        let p1 = with_context(&preds, |ctx, rng| {
            CostWeighted { lambda: 1.0 }.select(ctx, rng)
        });
        assert_eq!(p1, Some(1));
    }

    #[test]
    fn random_sampling_stays_in_bounds_and_varies() {
        let preds = fake_predictions(&[0.1, 0.2, 0.3], &[0.0; 3]);
        let picks: Vec<Option<usize>> = (0..20)
            .map(|seed| {
                let x_all = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]).unwrap();
                let y_all = vec![0.0; 4];
                let train = vec![0usize];
                let pool = vec![1usize, 2, 3];
                let model = Gpr::fit(
                    x_all.select_rows(&train),
                    &[0.0],
                    Box::new(SquaredExponential::unit()),
                    0.1,
                    false,
                )
                .unwrap();
                let ctx = SelectionContext {
                    model: &model,
                    x_all: &x_all,
                    y_all: &y_all,
                    train: &train,
                    pool: &pool,
                    predictions: &preds,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                RandomSampling.select(&ctx, &mut rng)
            })
            .collect();
        assert!(picks.iter().all(|p| matches!(p, Some(i) if *i < 3)));
        let distinct: std::collections::BTreeSet<_> = picks.iter().flatten().collect();
        assert!(distinct.len() > 1, "random picks never varied");
    }

    #[test]
    fn empty_pool_returns_none() {
        let preds: Vec<Prediction> = vec![];
        let pick = with_context(&preds, |ctx, rng| VarianceReduction.select(ctx, rng));
        assert_eq!(pick, None);
        let pick = with_context(&preds, |ctx, rng| RandomSampling.select(ctx, rng));
        assert_eq!(pick, None);
    }

    #[test]
    fn argmax_skips_nan() {
        let preds = fake_predictions(&[f64::NAN, 0.2], &[0.0, 0.0]);
        assert_eq!(argmax_by(&preds, |p| p.std), Some(1));
        let allnan = fake_predictions(&[f64::NAN], &[0.0]);
        assert_eq!(argmax_by(&allnan, |p| p.std), None);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(VarianceReduction.name(), "variance_reduction");
        assert_eq!(CostEfficiency.name(), "cost_efficiency");
        assert_eq!(RandomSampling.name(), "random");
    }
}
