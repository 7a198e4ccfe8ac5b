//! One grid campaign: synthesize the scenario's dataset, run the AL
//! loop under the config's strategy/kernel/fault axes, and reduce
//! the run to the summary trajectories.
//!
//! Everything here is a pure function of the [`CampaignConfig`] — no
//! clocks, no thread identity, no global state — which is what lets the
//! executor run campaigns on any number of workers in any order and
//! still commit bit-identical summaries.
//!
//! Every batch size runs the one AL loop, `alperf_al::runner`, with
//! [`AlConfig::batch`] set from the config's batch axis: above 1 each
//! round fills its slots with the strategy's own selection under fantasy
//! updates and measures them all through the fault oracle before the
//! next refit.

use crate::spec::{mix, CampaignConfig, KernelKind, StrategyKind};
use alperf_al::oracle::SeededFaultOracle;
use alperf_al::runner::{run_al_with_oracle, AlConfig};
use alperf_al::strategy::{CostEfficiency, RandomSampling, Strategy, VarianceReduction};
use alperf_data::partition::Partition;
use alperf_gp::kernel::{Kernel, Matern32, Matern52, RationalQuadratic, SquaredExponential};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
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
    /// Test RMSE, one entry per measured iteration at every batch size
    /// (the experiments of one round share their round's value).
    pub rmse: Vec<f64>,
    /// Mean predictive SD over the remaining pool, one entry per measured
    /// iteration.
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
/// error is carried in [`CampaignResult::error`] instead. Serial
/// scheduling: grid-level pipelining happens in the executor's summary
/// stream, never inside the numerics.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let (x, y, cost, part) = synthesize(cfg);
    let oracle = SeededFaultOracle::new(mix(cfg.data_seed(), 0x666c74), cfg.fault_rate); // "flt"
    let al_cfg = AlConfig {
        max_iters: cfg.iters,
        batch: cfg.batch,
        seed: cfg.run_seed,
        ..AlConfig::new(gpr_config(cfg))
    };
    let mut strategy = make_strategy(cfg.strategy);
    let run = match run_al_with_oracle(&x, &y, &cost, &part, strategy.as_mut(), &oracle, &al_cfg) {
        Ok(run) => run,
        Err(e) => {
            return CampaignResult {
                rmse: Vec::new(),
                amsd: Vec::new(),
                cost: 0.0,
                iters: 0,
                degraded: 0,
                failures: 0,
                error: Some(format!("{e}")),
            }
        }
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
