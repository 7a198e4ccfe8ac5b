//! One grid campaign: synthesize the scenario's dataset, run the AL
//! loop under the config's strategy/kernel/fault axes, and reduce
//! the run to the summary trajectories.
//!
//! Everything here is a pure function of the [`CampaignConfig`] — no
//! clocks, no thread identity, no global state — which is what lets the
//! executor run campaigns on any number of workers in any order and
//! still commit bit-identical summaries.
//!
//! Batch sizes > 1 run a round-based variant of the loop: variance
//! reduction selects through the fantasy-update machinery in
//! `alperf_al::batch`, cost efficiency takes the top-q score in one
//! prediction pass, and random sampling draws q distinct candidates;
//! each round then measures the whole batch through the fault oracle
//! before the next refit.

use crate::spec::{mix, CampaignConfig, KernelKind, StrategyKind};
use alperf_al::oracle::{ExperimentOracle, ExperimentOutcome, SeededFaultOracle};
use alperf_al::runner::{run_al_with_oracle, AlConfig};
use alperf_al::strategy::{CostEfficiency, RandomSampling, Strategy, VarianceReduction};
use alperf_data::partition::Partition;
use alperf_gp::kernel::{Kernel, Matern32, Matern52, RationalQuadratic, SquaredExponential};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Input span of the synthetic 1-D scenario.
const X_SPAN: f64 = 8.0;
/// Training rows seeded before AL starts.
const N_INITIAL: usize = 4;
/// Fraction of the non-initial rows in the candidate pool (the rest is
/// the held-out check set the RMSE trajectory is computed on).
const ACTIVE_FRACTION: f64 = 0.8;

/// Everything the summary record needs about one finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Per-iteration (or per-round, for batches) test RMSE.
    pub rmse: Vec<f64>,
    /// Per-iteration mean predictive SD over the remaining pool.
    pub amsd: Vec<f64>,
    /// Total cost charged: initial design + measured + lost experiments.
    pub cost: f64,
    /// Measured iterations (length of the metric history).
    pub iters: usize,
    /// Degraded iterations: experiments lost to faults.
    pub degraded: usize,
    /// Execution attempts burned on lost experiments.
    pub failures: u32,
    /// `None` when the campaign completed; `Some(msg)` when the
    /// surrogate fit failed (the config is still committed, as an error
    /// record, so grids never stall on a bad corner of the space).
    pub error: Option<String>,
}

fn make_kernel(kind: KernelKind) -> Box<dyn Kernel> {
    match kind {
        KernelKind::Se => Box::new(SquaredExponential::unit()),
        KernelKind::Matern32 => Box::new(Matern32::new(1.0, 1.0)),
        KernelKind::Matern52 => Box::new(Matern52::new(1.0, 1.0)),
        KernelKind::RationalQuadratic => Box::new(RationalQuadratic::new(1.0, 1.0, 1.0)),
    }
}

fn make_strategy(kind: StrategyKind) -> Box<dyn Strategy> {
    match kind {
        StrategyKind::VarianceReduction => Box::new(VarianceReduction),
        StrategyKind::CostEfficiency => Box::new(CostEfficiency),
        StrategyKind::Random => Box::new(RandomSampling),
    }
}

fn gpr_config(cfg: &CampaignConfig) -> GprConfig {
    GprConfig::new(make_kernel(cfg.kernel))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(mix(cfg.run_seed, 0x6770)) // "gp"
}

/// The scenario: inputs, noisy response, per-row cost, and the
/// initial/pool/check partition. Depends only on
/// [`CampaignConfig::data_seed`] (plus rows/noise), so every strategy in
/// a slice competes on identical data — see the spec module docs.
pub fn synthesize(cfg: &CampaignConfig) -> (Matrix, Vec<f64>, Vec<f64>, Partition) {
    let n = cfg.rows;
    let mut rng = StdRng::seed_from_u64(cfg.data_seed());
    let mut y = Vec::with_capacity(n);
    let mut cost = Vec::with_capacity(n);
    let x = Matrix::from_fn(n, 1, |i, _| i as f64 * X_SPAN / (n - 1) as f64);
    for i in 0..n {
        let xi = x.row(i)[0];
        // A smooth trend with curvature — the shape the paper's HPGMG
        // response surfaces have — plus uniform observation noise.
        let clean = (xi * 0.9).sin() * 2.0 + 0.3 * xi;
        let eps = if cfg.noise > 0.0 {
            rng.gen_range(-cfg.noise..cfg.noise)
        } else {
            0.0
        };
        y.push(clean + eps);
        // Heterogeneous costs so cost efficiency has a real trade-off.
        cost.push(1.0 + 0.25 * xi * xi);
    }
    let part = Partition::random(n, N_INITIAL, ACTIVE_FRACTION, mix(cfg.data_seed(), 0x7061)); // "pa"
    (x, y, cost, part)
}

/// Run one campaign to completion. Never panics on fit failure — the
/// error is carried in [`CampaignResult::error`] instead.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let (x, y, cost, part) = synthesize(cfg);
    let oracle = SeededFaultOracle::new(mix(cfg.data_seed(), 0x666c74), cfg.fault_rate); // "flt"
    if cfg.batch <= 1 {
        run_serial(cfg, &x, &y, &cost, &part, &oracle)
    } else {
        run_batched(cfg, &x, &y, &cost, &part, &oracle)
    }
}

fn error_result(msg: String) -> CampaignResult {
    CampaignResult {
        rmse: Vec::new(),
        amsd: Vec::new(),
        cost: 0.0,
        iters: 0,
        degraded: 0,
        failures: 0,
        error: Some(msg),
    }
}

/// Batch size 1: the paper loop, via the standard runner (serial
/// scheduling — grid-level pipelining happens in the executor's summary
/// stream, never inside the numerics).
fn run_serial(
    cfg: &CampaignConfig,
    x: &Matrix,
    y: &[f64],
    cost: &[f64],
    part: &Partition,
    oracle: &dyn ExperimentOracle,
) -> CampaignResult {
    let mut al_cfg = AlConfig::new(gpr_config(cfg));
    al_cfg.max_iters = cfg.iters;
    al_cfg.seed = cfg.run_seed;
    let mut strategy = make_strategy(cfg.strategy);
    let run = match run_al_with_oracle(x, y, cost, part, strategy.as_mut(), oracle, &al_cfg) {
        Ok(run) => run,
        Err(e) => return error_result(format!("{e}")),
    };
    let initial_cost: f64 = part.initial.iter().map(|&i| cost[i]).sum();
    let measured_cost: f64 = run.history.iter().map(|r| cost[r.chosen_row]).sum();
    let lost_cost: f64 = run.lost.iter().map(|l| l.cost).sum();
    let failures: u32 = run.lost.iter().map(|l| l.attempts).sum();
    CampaignResult {
        rmse: run.rmse_series(),
        amsd: run.amsd_series(),
        cost: initial_cost + measured_cost + lost_cost,
        iters: run.history.len(),
        degraded: run.lost.len(),
        failures,
        error: None,
    }
}

/// Batch sizes > 1: round-based AL. Each round fits the surrogate,
/// records the round's RMSE/AMSD, selects `q` candidates with the
/// strategy's batch rule, and measures them all through the oracle.
fn run_batched(
    cfg: &CampaignConfig,
    x: &Matrix,
    y: &[f64],
    cost: &[f64],
    part: &Partition,
    oracle: &dyn ExperimentOracle,
) -> CampaignResult {
    let gpr = gpr_config(cfg);
    let mut train: Vec<usize> = part.initial.clone();
    let mut pool: Vec<usize> = part.active.clone();
    let test: Vec<usize> = part.test.clone();
    let mut rng = StdRng::seed_from_u64(cfg.run_seed);
    let mut total_cost: f64 = train.iter().map(|&i| cost[i]).sum();
    let mut rmse_series = Vec::new();
    let mut amsd_series = Vec::new();
    let (mut iters, mut degraded, mut failures) = (0usize, 0usize, 0u32);
    let mut budget = cfg.iters;

    while budget > 0 && !pool.is_empty() {
        let xt = x.select_rows(&train);
        let yt: Vec<f64> = train.iter().map(|&i| y[i]).collect();
        let model = match fit_gpr(&xt, &yt, &gpr) {
            Ok((m, _)) => m,
            Err(e) => return error_result(format!("{e}")),
        };
        let preds = match model.predict_batch(&x.select_rows(&pool)) {
            Ok(p) => p,
            Err(e) => return error_result(format!("{e}")),
        };
        if !test.is_empty() {
            let tp = match model.predict_batch(&x.select_rows(&test)) {
                Ok(p) => p,
                Err(e) => return error_result(format!("{e}")),
            };
            let se: f64 = tp
                .iter()
                .zip(&test)
                .map(|(p, &i)| (p.mean - y[i]) * (p.mean - y[i]))
                .sum();
            rmse_series.push((se / test.len() as f64).sqrt());
        } else {
            rmse_series.push(0.0);
        }
        amsd_series.push(preds.iter().map(|p| p.std).sum::<f64>() / preds.len() as f64);

        let q = cfg.batch.min(budget).min(pool.len());
        let positions: Vec<usize> = match cfg.strategy {
            StrategyKind::VarianceReduction => {
                match alperf_al::batch::select_batch(&model, x, &train, &yt, &pool, q) {
                    Ok(p) => p,
                    Err(e) => return error_result(format!("{e}")),
                }
            }
            StrategyKind::CostEfficiency => {
                // Top-q by SD per unit cost in one prediction pass.
                let mut scored: Vec<(usize, f64)> = preds
                    .iter()
                    .enumerate()
                    .map(|(p, pr)| (p, pr.std / cost[pool[p]].max(1e-12)))
                    .collect();
                scored.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                scored.into_iter().take(q).map(|(p, _)| p).collect()
            }
            StrategyKind::Random => {
                // q distinct positions, Fisher–Yates style over indices.
                let mut open: Vec<usize> = (0..pool.len()).collect();
                let mut picks = Vec::with_capacity(q);
                for _ in 0..q {
                    let j = rng.gen_range(0..open.len());
                    picks.push(open.swap_remove(j));
                }
                picks
            }
        };

        // Measure the whole batch, then remove the rows from the pool
        // (descending position order keeps earlier positions valid).
        let mut chosen: Vec<usize> = positions.iter().map(|&p| pool[p]).collect();
        let mut sorted_positions = positions.clone();
        sorted_positions.sort_unstable_by(|a, b| b.cmp(a));
        for p in sorted_positions {
            pool.swap_remove(p);
        }
        chosen.sort_unstable(); // row order within a round is not a choice
        for row in chosen {
            total_cost += cost[row];
            budget -= 1;
            match oracle.run_experiment(row) {
                ExperimentOutcome::Measured { attempts: _ } => {
                    train.push(row);
                    iters += 1;
                }
                ExperimentOutcome::Lost { attempts } => {
                    degraded += 1;
                    failures += attempts;
                }
            }
        }
    }

    CampaignResult {
        rmse: rmse_series,
        amsd: amsd_series,
        cost: total_cost,
        iters,
        degraded,
        failures,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GridSpec;

    fn config(mutate: impl FnOnce(&mut GridSpec)) -> CampaignConfig {
        let mut spec = GridSpec {
            rows: 24,
            iters: 6,
            ..GridSpec::default()
        };
        mutate(&mut spec);
        spec.expand().unwrap().into_iter().next().unwrap()
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = config(|s| s.fault_rates = vec![0.2]);
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a, b);
        assert!(a.error.is_none());
        assert!(a.iters + a.degraded > 0);
    }

    #[test]
    fn faults_degrade_but_do_not_abort() {
        let clean = run_campaign(&config(|_| {}));
        let faulty = run_campaign(&config(|s| s.fault_rates = vec![0.45]));
        assert_eq!(clean.degraded, 0);
        assert_eq!(clean.failures, 0);
        assert!(faulty.degraded > 0, "{faulty:?}");
        assert!(faulty.failures > 0);
        assert!(faulty.error.is_none());
    }

    #[test]
    fn batched_rounds_cover_all_strategies() {
        for kind in crate::spec::StrategyKind::ALL {
            let cfg = config(|s| {
                s.batches = vec![3];
                s.strategies = vec![kind];
                s.fault_rates = vec![0.2];
            });
            let r = run_campaign(&cfg);
            assert!(r.error.is_none(), "{kind:?}: {r:?}");
            assert_eq!(r.iters + r.degraded, cfg.iters, "{kind:?}");
            assert!(!r.rmse.is_empty() && r.rmse.len() == r.amsd.len());
            assert_eq!(run_campaign(&cfg), r, "{kind:?} not deterministic");
        }
    }

    #[test]
    fn rmse_improves_on_the_clean_scenario() {
        let cfg = config(|s| {
            s.rows = 32;
            s.iters = 10;
            s.noises = vec![0.05];
        });
        let r = run_campaign(&cfg);
        let first = r.rmse.first().copied().unwrap();
        let last = r.rmse.last().copied().unwrap();
        assert!(last < first, "AL did not reduce RMSE: {first} -> {last}");
    }
}
