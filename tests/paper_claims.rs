//! Integration tests pinning the paper's qualitative claims at test scale.
//! The full-scale versions live in `crates/bench/src/bin/repro_*`; these
//! are fast, assertive versions run by `cargo test --workspace`.

use alperf::al::convergence::ConvergenceDetector;
use alperf::al::oracle::SeededFaultOracle;
use alperf::al::runner::{run_al, run_al_with_oracle, test_rmse, AlConfig, AlRun};
use alperf::al::strategy::{CostEfficiency, SelectionContext, Strategy, VarianceReduction};
use alperf::cluster::campaign::{Campaign, FocusSlice};
use alperf::cluster::workload::WorkloadSpec;
use alperf::data::partition::Partition;
use alperf::framework::analysis::paper_kernel_bounds;
use alperf::gp::kernel::{ArdSquaredExponential, DistanceForm, Kernel, SquaredExponential};
use alperf::gp::lml::{
    assemble_covariance, lml_and_grad_cached, lml_parts, lml_value, lml_value_cached, FitCache,
};
use alperf::gp::noise::NoiseFloor;
use alperf::gp::optimize::{fit_gpr, GprConfig};
use alperf::linalg::matrix::Matrix;
use alperf::linalg::stats::Standardizer;
use alperf::linalg::threads::{replicates, with_threads};
use alperf::linalg::vector::logspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The test-scale (poisson1, NP = 32) slice: a smaller campaign than the
/// paper's.
fn focus_problem() -> (Matrix, Vec<f64>, Vec<f64>) {
    focus_slice(Campaign {
        spec: WorkloadSpec {
            focus_size_levels: 9,
            default_size_levels: 2,
            ..Default::default()
        },
        workers: 2,
        ..Default::default()
    })
}

/// The (poisson1, NP = 32) slice of `campaign`'s Performance dataset:
/// `[log10 size, frequency]` rows, log10 runtimes and unit costs.
fn focus_slice(campaign: Campaign) -> (Matrix, Vec<f64>, Vec<f64>) {
    let FocusSlice { x, y, .. } = campaign
        .run()
        .expect("campaign")
        .focus_slice()
        .expect("focus slice");
    let n = x.nrows();
    (x, y, vec![1.0; n])
}

fn gpr(floor: NoiseFloor, seed: u64) -> GprConfig {
    GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(floor)
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_restarts(2)
        .with_standardize(false)
        .with_seed(seed)
}

/// Paper Fig. 7: the loose noise floor lets early predictive uncertainty
/// collapse; the recommended floor prevents it.
#[test]
fn noise_floor_prevents_early_uncertainty_collapse() {
    let (x, y, cost) = focus_problem();
    let min_early = |floor: NoiseFloor| -> f64 {
        let mut worst: f64 = f64::INFINITY;
        for rep in 0..5u64 {
            let cfg = AlConfig {
                max_iters: 8,
                seed: rep,
                ..AlConfig::new(gpr(floor, 50 + rep))
            };
            let part = Partition::paper_default(x.nrows(), 900 + rep);
            let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).expect("AL");
            for r in run.history.iter().take(5) {
                worst = worst.min(r.amsd);
            }
        }
        worst
    };
    let loose = min_early(NoiseFloor::loose());
    let tight = min_early(NoiseFloor::recommended());
    assert!(
        loose < tight / 3.0,
        "loose floor min AMSD {loose:.3e} should be well below tight {tight:.3e}"
    );
}

/// Paper Fig. 7 at `repro_fig7`'s full scale: ten repetitions on the
/// paper's campaign, 3 restarts, GPR seed 100 + rep, AL seed rep and
/// partition seed 1000 + rep. The bin's >=10x check reads only iterations
/// 0-4, so five iterations give the same statistic as its sixty.
#[test]
fn noise_floor_collapse_is_tenfold_at_full_scale() {
    let (x, y, cost) = focus_slice(Campaign::default());
    let min_early_sigma = |floor: NoiseFloor| -> f64 {
        let mut lo = f64::INFINITY;
        for rep in 0..10u64 {
            let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
                .with_noise_floor(floor)
                .with_restarts(3)
                .with_kernel_bounds(paper_kernel_bounds(2))
                .with_standardize(false)
                .with_seed(100 + rep);
            let cfg = AlConfig {
                max_iters: 5,
                seed: rep,
                ..AlConfig::new(gpr)
            };
            let part = Partition::paper_default(x.nrows(), 1000 + rep);
            let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).expect("AL");
            for r in &run.history {
                lo = lo.min(r.sigma_at_chosen);
            }
        }
        lo
    };
    let loose = min_early_sigma(NoiseFloor::loose());
    let tight = min_early_sigma(NoiseFloor::recommended());
    assert!(
        loose < tight / 10.0,
        "loose floor min sigma(x*) {loose:.3e} should be below a tenth of tight {tight:.3e}"
    );
}

/// Records, per proposal, the training-set size and the bits of the
/// model's hyperparameters and noise level, then delegates.
struct ThetaLog {
    inner: VarianceReduction,
    seen: Vec<(usize, Vec<u64>)>,
}

impl Strategy for ThetaLog {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        let mut theta = ctx.model.kernel().params();
        theta.push(ctx.model.noise_std());
        let bits = theta.iter().map(|v| v.to_bits()).collect();
        self.seen.push((ctx.train.len(), bits));
        self.inner.select(ctx, rng)
    }
}

/// The refit trigger on the paper's data: repetition 0 of `repro_fig7`'s
/// full-scale campaign under the recommended 1e-1 floor (Fig. 7b), 60
/// iterations from one seed row. Above 30 training rows the loop extends
/// the model at fixed hyperparameters in at least half of the iterations,
/// and the model of its last iteration predicts the test set within 2% of
/// the RMSE of a fresh 3-restart fit on the same training set.
#[test]
fn refit_trigger_extends_above_thirty_rows_and_keeps_rmse_on_paper_data() {
    let (x, y, cost) = focus_slice(Campaign::default());
    let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::recommended())
        .with_restarts(3)
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_standardize(false)
        .with_seed(100);
    let cfg = AlConfig {
        max_iters: 60,
        seed: 0,
        ..AlConfig::new(gpr.clone())
    };
    let part = Partition::paper_default(x.nrows(), 1000);
    let mut log = ThetaLog {
        inner: VarianceReduction,
        seen: Vec::new(),
    };
    let run = run_al(&x, &y, &cost, &part, &mut log, &cfg).expect("AL");
    assert_eq!(run.history.len(), 60);
    let above: Vec<bool> = log
        .seen
        .windows(2)
        .filter(|w| w[1].0 > 30)
        .map(|w| w[1].1 == w[0].1)
        .collect();
    let extended = above.iter().filter(|&&same| same).count();
    assert_eq!(above.len(), 30);
    assert!(
        2 * extended >= above.len(),
        "extended at fixed hyperparameters in {extended} of {} iterations above n = 30",
        above.len()
    );
    let last = run.history.last().expect("60 iterations");
    let kept_train = &run.final_train[..run.final_train.len() - 1];
    let xs = x.select_rows(kept_train);
    let ys: Vec<f64> = kept_train.iter().map(|&i| y[i]).collect();
    let (fresh, _) = fit_gpr(&xs, &ys, &gpr).expect("fresh fit");
    let fresh_rmse = test_rmse(&fresh, &x, &y, &part.test);
    assert!(
        (last.rmse - fresh_rmse).abs() <= 0.02 * fresh_rmse,
        "kept model's test RMSE {} vs a fresh fit's {fresh_rmse}",
        last.rmse
    );
}

/// FNV-1a over the exact bits of every number in a run's `history` and
/// `lost`, in order.
fn run_digest(run: &AlRun) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };
    for r in &run.history {
        eat(r.iter as u64);
        eat(r.chosen_row as u64);
        r.x.iter().for_each(|v| eat(v.to_bits()));
        for v in [
            r.y,
            r.sigma_at_chosen,
            r.amsd,
            r.rmse,
            r.cumulative_cost,
            r.lml,
            r.noise_std,
        ] {
            eat(v.to_bits());
        }
    }
    for l in &run.lost {
        eat(l.iter as u64);
        eat(l.row as u64);
        eat(l.attempts as u64);
        eat(l.cost.to_bits());
    }
    h
}

/// `run` cut to what it recorded on at most `rows` training rows, from
/// one seed row: its first `rows` history records (a lost experiment adds
/// no row) and the experiments lost before the last of them.
fn made_on_at_most(run: &AlRun, rows: usize) -> AlRun {
    let kept = run.history.len().min(rows);
    let end = run.history.get(rows - 1).map_or(usize::MAX, |r| r.iter);
    AlRun {
        history: run.history[..kept].to_vec(),
        lost: run.lost.iter().filter(|l| l.iter < end).cloned().collect(),
        ..run.clone()
    }
}

/// The serial AL loop, bit for bit: three 40-iteration campaigns in
/// `repro_fig7`'s repetition-0 configuration on the full-scale focus slice
/// (Variance Reduction under the 1e-8 and the 1e-1 noise floor, and Cost
/// Efficiency under the 1e-1 floor with a 20% seeded fault rate) cross
/// n = 30, where the refit trigger takes over, and the last one loses
/// experiments. Any change to the fit, the refit policy, the caches, the
/// selection or the oracle path that moves one bit of a trajectory moves
/// its digest. Two cuts are pinned on their own: the records made before
/// each campaign's first warm ascent (on at most 14 rows, full searches
/// only), which a change to the warm ascent alone leaves where they were,
/// and the records made on at most 30 rows, before the refit trigger
/// takes over, which a change to the trigger alone leaves where they were.
#[test]
fn serial_loop_histories_are_pinned_bit_for_bit_on_paper_data() {
    let (x, y, cost) = focus_slice(Campaign::default());
    let campaign = |floor: NoiseFloor, strategy: &mut dyn Strategy, fault_rate: f64| {
        let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
            .with_noise_floor(floor)
            .with_restarts(3)
            .with_kernel_bounds(paper_kernel_bounds(2))
            .with_standardize(false)
            .with_seed(100);
        let cfg = AlConfig {
            max_iters: 40,
            seed: 0,
            ..AlConfig::new(gpr)
        };
        let part = Partition::paper_default(x.nrows(), 1000);
        let oracle = SeededFaultOracle::new(7, fault_rate);
        run_al_with_oracle(&x, &y, &cost, &part, strategy, &oracle, &cfg).expect("AL")
    };
    let runs = [
        campaign(NoiseFloor::loose(), &mut VarianceReduction, 0.0),
        campaign(NoiseFloor::recommended(), &mut VarianceReduction, 0.0),
        campaign(NoiseFloor::recommended(), &mut CostEfficiency, 0.2),
    ];
    assert_eq!(runs[0].history.len(), 40);
    assert_eq!(runs[1].history.len(), 40);
    assert!(!runs[2].lost.is_empty(), "the fault oracle lost nothing");
    assert_eq!(runs[2].history.len() + runs[2].lost.len(), 40);
    let digests = |cut: fn(&AlRun) -> AlRun| -> Vec<String> {
        runs.iter()
            .map(|r| format!("{:016x}", run_digest(&cut(r))))
            .collect()
    };
    assert_eq!(
        digests(|r| made_on_at_most(r, 14)),
        ["f61a9b8dfbf9a5df", "76bfefbdcb93aabb", "f13ca28a65ecf00b"]
    );
    assert_eq!(
        digests(|r| made_on_at_most(r, 30)),
        ["17f1cc4d02a76970", "355a7df91e76ba93", "18e4b433494f0e4f"]
    );
    assert_eq!(
        digests(AlRun::clone),
        ["0888233daef11654", "94e51902030594dc", "aa43a7deea168ad6"]
    );
}

/// ARD squared exponential whose clones share one count of `set_params`
/// calls: a fit's restart sets the parameters once per LML value and once
/// per gradient, so the count is its LML evaluations.
#[derive(Clone)]
struct Counted(ArdSquaredExponential, Arc<AtomicUsize>);

impl Kernel for Counted {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.0.eval(a, b)
    }
    fn cross_matrix(&self, a: &Matrix, b: &Matrix) -> Matrix {
        self.0.cross_matrix(a, b)
    }
    fn diag_value(&self, a: &[f64]) -> f64 {
        self.0.diag_value(a)
    }
    fn n_params(&self) -> usize {
        self.0.n_params()
    }
    fn params(&self) -> Vec<f64> {
        self.0.params()
    }
    fn set_params(&mut self, p: &[f64]) {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.set_params(p);
    }
    fn param_names(&self) -> Vec<String> {
        self.0.param_names()
    }
    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        self.0.grad(a, b)
    }
    fn grad_x(&self, a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
        self.0.grad_x(a, b)
    }
    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
    fn distance_form(&self) -> Option<DistanceForm> {
        self.0.distance_form()
    }
}

/// Records, per proposal, the training-set size and the `set_params`
/// count so far, then delegates.
struct CountLog {
    inner: VarianceReduction,
    calls: Arc<AtomicUsize>,
    seen: Vec<(usize, usize)>,
}

impl Strategy for CountLog {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        let calls = self.calls.load(Ordering::Relaxed);
        self.seen.push((ctx.train.len(), calls));
        self.inner.select(ctx, rng)
    }
}

/// Warm ascents start from the inverse Hessian the previous fit ended
/// with, on the paper's data: repetition 0 of `repro_fig7`'s full-scale
/// campaign under the 1e-8 floor (Fig. 7a), 60 iterations from one seed
/// row. Each round's `set_params` calls are its refit's: a warm ascent at
/// 15-30 rows adds two to its LML evaluations (seeding the kernel at the
/// previous optimum, setting the fitted one), a round above 30 rows adds
/// the trigger's test (two evaluations) and fires when it made more; a
/// fired ascent starts from the test's evaluation, so its count here
/// leaves those two out. The warm ascents average at most 15 evaluations
/// (35.0 when each restarted from a scaled identity), and the last test
/// RMSE stays within 2% of that identity-started loop's.
#[test]
fn warm_ascents_inherit_curvature_and_keep_rmse_on_paper_data() {
    let (x, y, cost) = focus_slice(Campaign::default());
    let calls = Arc::new(AtomicUsize::new(0));
    let kernel = Counted(ArdSquaredExponential::unit(2), calls.clone());
    let gpr = GprConfig::new(Box::new(kernel))
        .with_noise_floor(NoiseFloor::loose())
        .with_restarts(3)
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_standardize(false)
        .with_seed(100);
    let cfg = AlConfig {
        max_iters: 60,
        seed: 0,
        ..AlConfig::new(gpr)
    };
    let part = Partition::paper_default(x.nrows(), 1000);
    let mut log = CountLog {
        inner: VarianceReduction,
        calls,
        seen: Vec::new(),
    };
    let run = run_al(&x, &y, &cost, &part, &mut log, &cfg).expect("AL");
    assert_eq!(run.history.len(), 60);
    // One round per iteration: round k's refit made the calls between
    // proposals k - 1 and k, on `n` = k + 1 training rows.
    let (mut warm, mut fired) = (Vec::new(), 0);
    for w in log.seen.windows(2) {
        let ((_, before), (n, after)) = (w[0], w[1]);
        let calls = after - before;
        if (15..=30).contains(&n) && (n - 1) % 10 != 0 {
            warm.push(calls - 2);
        } else if n > 30 && calls > 2 {
            warm.push(calls - 4);
            fired += 1;
        }
    }
    // Every round at 15-30 rows but the full search at n = 21, and the
    // fired tests above 30 rows (13 of 30, recorded at this trigger).
    assert_eq!((warm.len() - fired, fired), (15, 13), "{warm:?}");
    let mean = warm.iter().sum::<usize>() as f64 / warm.len() as f64;
    assert!(
        mean <= 15.0,
        "warm ascents averaged {mean:.1} LML evaluations over {}",
        warm.len()
    );
    let last = run.history.last().expect("60 iterations").rmse;
    // The same campaign's last test RMSE with identity-started ascents.
    let identity_started = 0.02134567571116645;
    assert!(
        (last - identity_started).abs() <= 0.02 * identity_started,
        "last test RMSE {last} vs {identity_started} from identity-started ascents"
    );
}

/// Whole campaigns are the workspace's one parallel axis: the Table I
/// measurement campaign, whose jobs fan out at 1 and 2 workers, yields
/// the same datasets, failures and makespan, and short VR campaigns on
/// its focus slice, fanned out through the replicate runner at widths 1
/// and 2, return identical histories in partition order.
#[test]
fn replicate_runner_is_bit_identical_across_widths_on_paper_data() {
    let measure = |workers: usize| {
        Campaign {
            workers,
            ..Default::default()
        }
        .run()
        .expect("campaign")
    };
    let (one, two) = (measure(1), measure(2));
    assert!(
        !one.failures.is_empty(),
        "the default 2% fault rate failed nothing"
    );
    assert_eq!(one.performance, two.performance);
    assert_eq!(one.power, two.power);
    assert_eq!(one.failures, two.failures);
    assert_eq!(one.makespan.to_bits(), two.makespan.to_bits());
    let FocusSlice { x, y, .. } = two.focus_slice().expect("focus slice");
    let cost = vec![1.0; x.nrows()];
    let campaigns = |width: usize| {
        with_threads(width, || {
            replicates(4, |rep| {
                let cfg = AlConfig {
                    max_iters: 4,
                    seed: rep as u64,
                    ..AlConfig::new(gpr(NoiseFloor::recommended(), 100 + rep as u64))
                };
                let part = Partition::paper_default(x.nrows(), 1000 + rep as u64);
                run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg)
                    .expect("AL")
                    .history
            })
        })
    };
    let serial = campaigns(1);
    assert!(serial.len() == 4 && serial.iter().all(|h| h.len() == 4));
    assert_eq!(campaigns(2), serial);
}

/// Paper Figs. 4 and 5(b): the log-marginal likelihood is far more peaked
/// on the data-rich 1-D cross-section (the full-scale focus slice at
/// 2.4 GHz, 50 points) than on the 4-point 2-D subset that seed 55 draws,
/// over `repro_fig4_fig5b`'s 40 × 40 (l, sigma_n) grid at amplitude 1 on
/// standardized responses. Peakedness is the drop from the grid's maximum
/// to its 90th percentile; the bin prints 43.33 against 0.60 (72×).
#[test]
fn lml_landscape_is_tenfold_more_peaked_on_rich_data() {
    let slice = Campaign::default()
        .run()
        .expect("campaign")
        .focus_slice()
        .expect("focus slice");
    let peak_to_p90 = |x: &Matrix, y: &[f64]| -> f64 {
        let y = Standardizer::fit(y).apply_vec(y);
        let mut lml: Vec<f64> = logspace(0.05, 20.0, 40)
            .into_iter()
            .flat_map(|l| logspace(1e-3, 3.0, 40).into_iter().map(move |sn| (l, sn)))
            .filter_map(|(l, sn)| lml_value(&SquaredExponential::new(l, 1.0), sn, x, &y).ok())
            .filter(|v| v.is_finite())
            .collect();
        lml.sort_by(f64::total_cmp);
        lml[lml.len() - 1] - lml[(lml.len() as f64 * 0.9) as usize]
    };
    let (x1, y1) = slice.cross_section();
    assert_eq!(y1.len(), 50);
    let rich = peak_to_p90(&Matrix::from_vec(x1.len(), 1, x1).expect("matrix"), &y1);
    let mut idx: Vec<usize> = (0..slice.x.nrows()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(55));
    idx.truncate(4);
    let y2: Vec<f64> = idx.iter().map(|&i| slice.y[i]).collect();
    let small = peak_to_p90(&slice.x.select_rows(&idx), &y2);
    assert!(
        rich > 10.0 * small,
        "peak-to-p90 LML drop: rich {rich:.2} should exceed ten times small {small:.2}"
    );
}

/// Paper Fig. 6: starting from a single seed, Variance Reduction explores
/// the domain boundary before the interior.
#[test]
fn variance_reduction_explores_edges_first() {
    let (x, y, cost) = focus_problem();
    let cfg = AlConfig {
        max_iters: 6,
        seed: 0,
        ..AlConfig::new(gpr(NoiseFloor::recommended(), 1))
    };
    let part = Partition::paper_default(x.nrows(), 77);
    let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).expect("AL");
    // "Edge" in either dimension — the star pattern visits size extremes
    // *and* frequency extremes.
    let col = |j: usize| -> (f64, f64) {
        let v: Vec<f64> = (0..x.nrows()).map(|i| x[(i, j)]).collect();
        (
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let (s_lo, s_hi) = col(0);
    let (f_lo, f_hi) = col(1);
    let third = (s_hi - s_lo) / 3.0;
    let is_edge = |r: &alperf::al::runner::IterationRecord| {
        r.x[0] < s_lo + third
            || r.x[0] > s_hi - third
            || r.x[1] <= f_lo + 1e-9
            || r.x[1] >= f_hi - 1e-9
    };
    let outer = run.history.iter().take(4).filter(|r| is_edge(r)).count();
    assert!(
        outer >= 3,
        "expected >=3 of the first 4 picks on the domain edge, got {outer}"
    );
}

/// Paper §V-B4: when AMSD converges, RMSE has also stabilized — stopping at
/// AMSD convergence loses (almost) nothing.
#[test]
fn amsd_convergence_implies_rmse_convergence() {
    let (x, y, cost) = focus_problem();
    let cfg = AlConfig {
        max_iters: 60,
        seed: 4,
        ..AlConfig::new(gpr(NoiseFloor::recommended(), 9))
    };
    let part = Partition::paper_default(x.nrows(), 55);
    let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).expect("AL");
    let amsd: Vec<f64> = run.history.iter().map(|r| r.amsd).collect();
    let rmse: Vec<f64> = run.history.iter().map(|r| r.rmse).collect();
    let detector = ConvergenceDetector {
        window: 6,
        rel_tolerance: 0.12,
    };
    let Some(stop) = detector.converged_at(&amsd) else {
        // Convergence within 60 iterations is data-dependent; if AMSD never
        // stabilizes there is nothing to check.
        return;
    };
    let rmse_at_stop = rmse[stop];
    let rmse_final = *rmse.last().expect("non-empty");
    assert!(
        rmse_at_stop <= rmse_final * 2.5 + 0.02,
        "stopping at AMSD convergence (iter {stop}) left RMSE {rmse_at_stop:.4} \
         far above the final {rmse_final:.4}"
    );
}

/// Eq. 12 and its gradient with respect to `[kernel log-params...,
/// log sigma_n]` the slow way: pointwise assembly and factorization
/// (`lml_parts`), `W = alpha alpha^T - K_y^{-1}` from `inverse_lower`, and
/// `1/2 tr(W dK_y/dtheta)` summed pair by pair over `Kernel::grad`.
fn pointwise_lml_and_grad(kernel: &dyn Kernel, sn: f64, x: &Matrix, y: &[f64]) -> (f64, Vec<f64>) {
    let parts = lml_parts(kernel, sn, x, y).expect("lml_parts");
    let kinv = parts.chol.inverse_lower().expect("inverse");
    let a = &parts.alpha;
    let np = kernel.n_params();
    let mut grad = vec![0.0; np + 1];
    for i in 0..x.nrows() {
        for j in 0..=i {
            let w = a[i] * a[j] - kinv[(i, j)];
            let m = if i == j { 0.5 * w } else { w };
            for (g, d) in grad.iter_mut().zip(kernel.grad(x.row(i), x.row(j))) {
                *g += m * d;
            }
        }
        grad[np] += sn * sn * (a[i] * a[i] - kinv[(i, i)]);
    }
    (parts.lml, grad)
}

/// Eq. 12's analytic gradient on the paper's own data: 40 rows of the
/// (poisson1, NP=32) slice under ARD-SE at the recommended noise floor.
/// The cached gradient the optimizer ascends (Eq. 13) must match central
/// finite differences of the cached LML, and the cached LML and gradient
/// must match their pointwise counterparts.
#[test]
fn lml_gradient_matches_finite_differences_on_paper_data() {
    let (x_all, y_all, _) = focus_problem();
    let rows: Vec<usize> = (0..x_all.nrows()).step_by(2).take(40).collect();
    assert_eq!(rows.len(), 40, "slice has {} rows", x_all.nrows());
    let x = x_all.select_rows(&rows);
    let y: Vec<f64> = rows.iter().map(|&i| y_all[i]).collect();
    let sn = NoiseFloor::recommended().clamp(0.0, rows.len());
    let kernel = ArdSquaredExponential::new(vec![1.5, 0.6], 0.8);
    let cache = FitCache::build(&kernel, &x);
    let (lml, grad) = lml_and_grad_cached(&kernel, sn, &x, &y, true, &cache).expect("cached");
    let (lml_plain, grad_plain) = pointwise_lml_and_grad(&kernel, sn, &x, &y);
    assert_eq!(grad.len(), 4, "two length scales, amplitude, noise");
    assert!((lml - lml_plain).abs() <= 1e-9 * lml_plain.abs());

    // Central differences in log-parameter space: the kernel's three
    // hyperparameters, then log sigma_n.
    let h = 1e-5;
    let lml_at = |p: &[f64], log_sn: f64| -> f64 {
        let mut k = kernel.clone();
        k.set_params(p);
        let c = FitCache::build(&k, &x);
        lml_value_cached(&k, log_sn.exp(), &x, &y, &c).expect("lml")
    };
    let p0 = kernel.params();
    let mut fd = Vec::new();
    for j in 0..p0.len() {
        let (mut up, mut dn) = (p0.clone(), p0.clone());
        up[j] += h;
        dn[j] -= h;
        fd.push((lml_at(&up, sn.ln()) - lml_at(&dn, sn.ln())) / (2.0 * h));
    }
    fd.push((lml_at(&p0, sn.ln() + h) - lml_at(&p0, sn.ln() - h)) / (2.0 * h));

    for j in 0..grad.len() {
        assert!(
            (grad[j] - fd[j]).abs() <= 1e-4 * fd[j].abs(),
            "theta_{j}: analytic {} vs finite difference {}",
            grad[j],
            fd[j]
        );
        assert!(
            (grad[j] - grad_plain[j]).abs() <= 1e-9 * grad_plain[j].abs(),
            "theta_{j}: cached {} vs pointwise {}",
            grad[j],
            grad_plain[j]
        );
    }
}

/// Eq. 13's ascent on the same 40 rows, under ARD-SE and both of Fig. 7's
/// floors: a single start stops on its projected-gradient test, at a point
/// that no +-1e-3 move along one coordinate, inside the box, improves by
/// more than 1e-6.
#[test]
fn lml_ascent_stops_at_a_box_local_maximum_on_paper_data() {
    let (x_all, y_all, _) = focus_problem();
    let rows: Vec<usize> = (0..x_all.nrows()).step_by(2).take(40).collect();
    for floor in [NoiseFloor::loose(), NoiseFloor::recommended()] {
        for n in [5, 15, 40] {
            let x = x_all.select_rows(&rows[..n]);
            let y: Vec<f64> = rows[..n].iter().map(|&i| y_all[i]).collect();
            let cfg = gpr(floor, 0).with_restarts(1);
            let (_, out) = fit_gpr(&x, &y, &cfg).expect("fit");
            let case = format!("floor {:.0e}, n = {n}", floor.lower_bound(n));
            assert!(
                out.converged,
                "{case}: stopped after {} iterations with |pg| {:.2e}",
                out.iterations, out.pg_norm
            );
            let mut bounds = paper_kernel_bounds(2);
            bounds.push((floor.lower_bound(n).ln(), cfg.noise_upper.ln()));
            let lml_at = |theta: &[f64]| -> f64 {
                let mut k = ArdSquaredExponential::unit(2);
                k.set_params(&theta[..3]);
                let c = FitCache::build(&k, &x);
                lml_value_cached(&k, theta[3].exp(), &x, &y, &c).expect("lml")
            };
            let best = lml_at(&out.theta);
            for (j, &(lo, hi)) in bounds.iter().enumerate() {
                for h in [-1e-3, 1e-3] {
                    let mut moved = out.theta.clone();
                    moved[j] += h;
                    if moved[j] < lo || moved[j] > hi {
                        continue;
                    }
                    let f = lml_at(&moved);
                    assert!(
                        f <= best + 1e-6,
                        "{case}: theta_{j} {h:+e} raises the LML from {best} to {f}"
                    );
                }
            }
        }
    }
}

/// The left-looking dot-product Cholesky of `a + jitter I` (lower triangle
/// read): per element a separate multiply and subtract per `k`, `k`
/// ascending, then one square root or divide. On failure, the failing
/// pivot and its value.
fn left_looking(a: &Matrix, jitter: f64) -> Result<Vec<f64>, (usize, f64)> {
    let n = a.nrows();
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        l[i * n..i * n + i].copy_from_slice(&a.row(i)[..i]);
        l[i * n + i] = a[(i, i)] + jitter;
    }
    for j in 0..n {
        let mut d = l[j * n + j];
        for k in 0..j {
            let v = l[j * n + k];
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err((j, d));
        }
        let r = d.sqrt();
        l[j * n + j] = r;
        for i in j + 1..n {
            let mut x = l[i * n + j];
            for k in 0..j {
                x -= l[i * n + k] * l[j * n + k];
            }
            l[i * n + j] = x / r;
        }
    }
    Ok(l)
}

/// The Cholesky factor and `inverse_lower` behind every LML evaluation of
/// Fig. 8's fits, on the paper's focus slice at the orders those fits reach
/// (pool exhaustion is ~190 rows), under both of Fig. 7's noise floors.
/// Whichever kernel this CPU dispatches to, the factor, its jitter rung and
/// `K_y^{-1}`'s lower triangle must equal, bit for bit, the left-looking
/// sweep's (through `lml_parts`' ladder: jitter `1e-10 * mean diag * 10^k`,
/// 8 rungs) and the ascending-`k` accumulation over `L^{-1}`.
#[test]
fn fig8_factor_and_inverse_match_the_left_looking_reference_bit_for_bit() {
    let (x_all, y_all, _) = focus_slice(Campaign::default());
    let kernel = ArdSquaredExponential::new(vec![1.5, 0.6], 0.8);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut orders: Vec<usize> = [13, 41, 64, 100, 128, 150, 190]
        .into_iter()
        .filter(|&n| n <= x_all.nrows())
        .collect();
    assert!(orders.len() >= 6, "slice has {} rows", x_all.nrows());
    orders.push(x_all.nrows().min(256));
    let mut rungs_climbed = 0;
    for &n in &orders {
        let rows: Vec<usize> = (0..n).collect();
        let x = x_all.select_rows(&rows);
        let y = &y_all[..n];
        for floor in [NoiseFloor::loose(), NoiseFloor::recommended()] {
            let sn = floor.lower_bound(n);
            let case = format!("n = {n}, sigma_n = {sn:e}");
            let chol = lml_parts(&kernel, sn, &x, y).expect("lml_parts").chol;
            let mut ky = assemble_covariance(&kernel, &x);
            ky.add_diagonal(sn * sn);
            let mean_diag = ky.diagonal().iter().map(|v| v.abs()).sum::<f64>() / n as f64;
            let (want, jitter) = (0..8)
                .find_map(|k| {
                    let jitter = if k == 0 {
                        0.0
                    } else {
                        1e-10 * mean_diag * 10f64.powi(k - 1)
                    };
                    left_looking(&ky, jitter).ok().map(|l| (l, jitter))
                })
                .unwrap_or_else(|| panic!("{case}: the reference ladder failed"));
            rungs_climbed += usize::from(jitter > 0.0);
            assert_eq!(chol.jitter().to_bits(), jitter.to_bits(), "{case}: jitter");
            assert_eq!(
                bits(chol.factor().as_slice()),
                bits(&want),
                "{case}: factor"
            );

            let linv = chol.factor_inverse().expect("factor_inverse");
            let mut w = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let mut acc = 0.0;
                    for k in i..n {
                        acc += linv[(k, i)] * linv[(k, j)];
                    }
                    w[i * n + j] = acc;
                }
            }
            let got = chol.inverse_lower().expect("inverse_lower");
            assert_eq!(bits(got.as_slice()), bits(&w), "{case}: inverse_lower");
        }
    }
    assert!(rungs_climbed > 0, "no factorization needed jitter");
}
