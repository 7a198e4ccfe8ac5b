//! Greedy batch selection with fantasy variance updates — the paper's
//! future-work extension ("some experiments could reasonably be run in
//! parallel which ... may indicate a less greedy selection strategy",
//! Section VI).
//!
//! To pick `q` experiments *before seeing any of their outcomes*, the
//! standard trick is exploited: the GP posterior **variance** depends only
//! on the input locations, never on the observed responses. So the batch is
//! grown greedily — pick the max-variance candidate, condition the model on
//! a "fantasy" observation at that point (its own predicted mean, which
//! leaves the mean field unchanged and shrinks variances exactly as a real
//! observation would), repeat.

use alperf_gp::model::{GpError, Prediction};
use alperf_gp::surrogate::Surrogate;
use alperf_linalg::matrix::Matrix;

/// Max-predictive-SD scan over the open candidates: `(pool position, std,
/// mean)` of the winner, keeping the first occurrence on ties.
fn max_std_candidate(open: &[usize], preds: &[Prediction]) -> Option<(usize, f64, f64)> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (&pos, p) in open.iter().zip(preds) {
        match best {
            Some((_, bs, _)) if bs >= p.std => {}
            _ => best = Some((pos, p.std, p.mean)),
        }
    }
    best
}

/// Select a batch of `q` pool candidates for parallel execution.
///
/// Returns positions into `pool` (distinct, in selection order). The model
/// is refit after each fantasy point with hyperparameters *frozen* (kernel
/// and noise reused — re-optimizing on fantasy data would be circular).
/// Fantasy refits preserve the incoming model's tier: a sparse surrogate's
/// refits stay O(n m^2) with the inducing set frozen, so batch selection on
/// the approximate tier never pays an exact Cholesky.
///
/// # Errors
/// Propagates GPR failures from the fantasy refits.
pub fn select_batch(
    model: &Surrogate,
    x_all: &Matrix,
    train: &[usize],
    y_train: &[f64],
    pool: &[usize],
    q: usize,
) -> Result<Vec<usize>, GpError> {
    let mut chosen: Vec<usize> = Vec::new();
    let mut fx = x_all.select_rows(train);
    let mut fy = y_train.to_vec();
    // Frozen hyperparameters (and, on the sparse tier, frozen inducing
    // points) from the incoming model.
    let mut current = model.refit(fx.clone(), &fy, true)?;
    for _ in 0..q.min(pool.len()) {
        // Max predictive SD among unchosen pool candidates — one batched
        // prediction per round instead of a per-candidate loop.
        let open: Vec<usize> = (0..pool.len()).filter(|p| !chosen.contains(p)).collect();
        let open_rows: Vec<usize> = open.iter().map(|&p| pool[p]).collect();
        let preds = current.predict_batch(&x_all.select_rows(&open_rows))?;
        let Some((pos, _, fantasy_y)) = max_std_candidate(&open, &preds) else {
            break;
        };
        chosen.push(pos);
        // Fantasy update: condition on the predicted mean at the new point.
        let row = pool[pos];
        fx = fx.with_row(x_all.row(row)).expect("consistent dims");
        fy.push(fantasy_y);
        current = model.refit(fx.clone(), &fy, true)?;
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_gp::kernel::SquaredExponential;
    use alperf_gp::model::Gpr;

    fn setup() -> (Matrix, Vec<f64>, Vec<usize>, Vec<usize>, Surrogate) {
        // 1-D grid; train on the center, pool everywhere else.
        let n = 21;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = xs.iter().map(|v| (0.6 * v).sin()).collect();
        let x_all = Matrix::from_vec(n, 1, xs).unwrap();
        let train = vec![10usize];
        let pool: Vec<usize> = (0..n).filter(|&i| i != 10).collect();
        let model = Surrogate::Exact(
            Gpr::fit(
                x_all.select_rows(&train),
                &[y[10]],
                Box::new(SquaredExponential::new(1.5, 1.0)),
                0.1,
                true,
            )
            .unwrap(),
        );
        (x_all, y, train, pool, model)
    }

    #[test]
    fn batch_is_distinct_and_sized() {
        let (x_all, y, train, pool, model) = setup();
        let y_train = vec![y[10]];
        let batch = select_batch(&model, &x_all, &train, &y_train, &pool, 4).unwrap();
        assert_eq!(batch.len(), 4);
        let distinct: std::collections::BTreeSet<_> = batch.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn batch_spreads_over_the_domain() {
        // Without fantasy updates, the top-q max-variance points would
        // cluster at one edge. With them, the batch must cover both sides
        // of the training point.
        let (x_all, y, train, pool, model) = setup();
        let y_train = vec![y[10]];
        let batch = select_batch(&model, &x_all, &train, &y_train, &pool, 4).unwrap();
        let positions: Vec<f64> = batch.iter().map(|&p| x_all.row(pool[p])[0]).collect();
        let left = positions.iter().filter(|&&v| v < 5.0).count();
        let right = positions.iter().filter(|&&v| v > 5.0).count();
        assert!(
            left >= 1 && right >= 1,
            "batch failed to spread: {positions:?}"
        );
    }

    #[test]
    fn naive_topq_clusters_but_fantasy_does_not() {
        // Contrast check justifying the machinery: score the initial model
        // only and take the top 3 — they land on the two extreme edges'
        // neighborhoods (ties at the boundary), at least two of them
        // adjacent. Batch selection must separate them more.
        let (x_all, y, train, pool, model) = setup();
        let y_train = vec![y[10]];
        let pool_preds = model.predict_batch(&x_all.select_rows(&pool)).unwrap();
        let mut scored: Vec<(usize, f64)> = pool_preds
            .iter()
            .enumerate()
            .map(|(pos, p)| (pos, p.std))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let naive: Vec<f64> = scored[..3]
            .iter()
            .map(|&(p, _)| x_all.row(pool[p])[0])
            .collect();
        let batch = select_batch(&model, &x_all, &train, &y_train, &pool, 3).unwrap();
        let fancy: Vec<f64> = batch.iter().map(|&p| x_all.row(pool[p])[0]).collect();
        let min_gap = |v: &[f64]| -> f64 {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s.windows(2)
                .map(|w| w[1] - w[0])
                .fold(f64::INFINITY, f64::min)
        };
        assert!(
            min_gap(&fancy) >= min_gap(&naive),
            "fantasy batch {fancy:?} not more spread than naive {naive:?}"
        );
    }

    #[test]
    fn q_larger_than_pool_is_clamped() {
        let (x_all, y, train, pool, model) = setup();
        let y_train = vec![y[10]];
        let small_pool = &pool[..2];
        let batch = select_batch(&model, &x_all, &train, &y_train, small_pool, 10).unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn zero_q_gives_empty_batch() {
        let (x_all, y, train, pool, model) = setup();
        let y_train = vec![y[10]];
        let batch = select_batch(&model, &x_all, &train, &y_train, &pool, 0).unwrap();
        assert!(batch.is_empty());
    }

    #[test]
    fn sparse_tier_fantasy_updates_stay_sparse_and_spread() {
        // A sparse surrogate's fantasy refits keep the tier (frozen inducing
        // points), and the batch still spreads over the domain.
        use alperf_gp::sparse::{select_inducing_kcenter, SparseGpr, SparseMethod};
        let n = 21;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = xs.iter().map(|v| (0.6 * v).sin()).collect();
        let x_all = Matrix::from_vec(n, 1, xs).unwrap();
        let train: Vec<usize> = vec![8, 10, 12];
        let y_train: Vec<f64> = train.iter().map(|&i| y[i]).collect();
        let pool: Vec<usize> = (0..n).filter(|i| !train.contains(i)).collect();
        let tx = x_all.select_rows(&train);
        let z = tx.select_rows(&select_inducing_kcenter(&tx, 3));
        let model = Surrogate::Sparse(
            SparseGpr::fit(
                tx,
                &y_train,
                Box::new(SquaredExponential::new(1.5, 1.0)),
                0.1,
                true,
                SparseMethod::Fitc,
                z,
            )
            .unwrap(),
        );
        let batch = select_batch(&model, &x_all, &train, &y_train, &pool, 4).unwrap();
        assert_eq!(batch.len(), 4);
        let distinct: std::collections::BTreeSet<_> = batch.iter().collect();
        assert_eq!(distinct.len(), 4);
        let positions: Vec<f64> = batch.iter().map(|&p| x_all.row(pool[p])[0]).collect();
        let left = positions.iter().filter(|&&v| v < 4.0).count();
        let right = positions.iter().filter(|&&v| v > 6.0).count();
        assert!(
            left >= 1 && right >= 1,
            "sparse batch failed to spread: {positions:?}"
        );
    }
}
