//! Hard performance budgets that hold on any machine. Prints a JSON
//! report and exits non-zero when a budget fails:
//!
//! * telemetry overhead: an instrumented GPR fit and a batched predict
//!   with telemetry on stay within [`BUDGET_PCT`] of the same calls with
//!   it off;
//! * traced campaign: a Fig. 7 AL campaign with telemetry on and a JSONL
//!   sink under `target/`, flushed inside the timed arm, takes at most
//!   [`CAMPAIGN_RATIO_BUDGET`] times the untraced campaign's wall time;
//! * grid width: 2 workers run the grid in under [`GRID_RATIO_T2_BUDGET`]
//!   of the 1-worker wall time, checked only where a two-thread control
//!   kernel timed in the same rounds shows two usable CPUs (its 2-thread
//!   over 1-thread ratio at most [`CONTROL_TWO_CPUS`]). A host can report
//!   two CPUs and still give the process one of them.
//!
//! Usage:
//!   obs_overhead           # full sizes (n=200 fit, 1024-candidate pool,
//!                          # 60-iteration campaign)
//!   obs_overhead --quick   # small sizes (CI; 25-iteration campaign)
//!
//! Timings use `std::time::Instant` directly, the one place that cannot
//! route through the layer it is measuring.

use alperf_al::runner::{run_al, AlConfig, AlRun};
use alperf_al::strategy::VarianceReduction;
use alperf_bench::{focus_slice, repro_dir, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::{ArdSquaredExponential, SquaredExponential};
use alperf_gp::model::Gpr;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_grid::exec::{run_grid, ExecConfig};
use alperf_grid::spec::{GridSpec, KernelKind, StrategyKind};
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::with_threads;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// The telemetry overhead budget, percent of hot-path runtime.
const BUDGET_PCT: f64 = 2.0;
/// A traced campaign may take at most this multiple of the untraced one's
/// wall time. A traced `repro_fig7 --quick` read 0.99x of untraced.
const CAMPAIGN_RATIO_BUDGET: f64 = 1.10;
/// 2-worker over 1-worker grid wall time: campaigns are embarrassingly
/// parallel, so two real cores must beat 1.25x.
const GRID_RATIO_T2_BUDGET: f64 = 0.8;
/// The control kernel's 2-thread over 1-thread wall time at or below which
/// the process has two usable CPUs, and the grid budget is enforced. The
/// control shares nothing between its threads, so it reads about 0.5 on
/// two free CPUs and about 1.0 when only one runs the process; 0.65 means
/// the second CPU delivers at least a 1.5x speed-up, enough headroom for
/// the grid's 1.25x.
const CONTROL_TWO_CPUS: f64 = 0.65;
/// Steps of [`spin`] per control arm (about 8 ms at 2 GHz).
const CONTROL_STEPS: u64 = 1 << 19;

/// Fit and campaign arms last at least this long: a 2% difference has to
/// clear timer and scheduler noise.
const FIT_ARM_MS: f64 = 25.0;

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Deterministic synthetic training set (2-D inputs, smooth response).
fn training_data(n: usize) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(n, 2, |i, j| {
        if j == 0 {
            3.0 + 6.0 * (i as f64 / n as f64)
        } else {
            1.2 + 1.2 * ((i * 7 % n) as f64 / n as f64)
        }
    });
    let y: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.1).sin() + i as f64 * 0.01)
        .collect();
    (x, y)
}

/// Deterministic synthetic candidate pool.
fn pool_points(m: usize) -> Matrix {
    Matrix::from_fn(m, 2, |i, j| {
        if j == 0 {
            3.0 + 6.0 * ((i * 13 % m) as f64 / m as f64)
        } else {
            1.2 + 1.2 * ((i * 29 % m) as f64 / m as f64)
        }
    })
}

/// Telemetry on/off timings of one hot path.
struct Overhead {
    off_ms: f64,
    on_ms: f64,
    /// Median of the per-round on/off ratios, percent. Each round's pair
    /// runs back to back in the same noise epoch, and the median discards
    /// rounds a CPU-steal spike landed in, so this is far more stable on a
    /// time-shared VM than a ratio of overall minima.
    pct: f64,
}

/// Wall time of `batch` back-to-back calls of `f`, in milliseconds per
/// call.
fn batch_ms<F: FnMut()>(batch: usize, mut f: F) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3 / batch as f64
}

/// How many back-to-back calls of `f` take about `target_ms` (at least
/// one), from one timed call.
fn batch_for<F: FnMut()>(target_ms: f64, f: F) -> usize {
    (target_ms / batch_ms(1, f)).ceil().max(1.0) as usize
}

/// Interleave `rounds` disabled/enabled arms of `f`, each one timed batch
/// of `batch` calls, so both sides sample the same machine epochs: an
/// off-block then on-block would let clock drift or a background phase
/// masquerade as telemetry overhead. Leaves telemetry disabled.
fn on_off<F: FnMut()>(rounds: usize, batch: usize, mut f: F) -> Overhead {
    let (mut off_ms, mut on_ms) = (f64::INFINITY, f64::INFINITY);
    let mut pcts = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        alperf_obs::set_enabled(false);
        let off = batch_ms(batch, &mut f);
        alperf_obs::set_enabled(true);
        let on = batch_ms(batch, &mut f);
        off_ms = off_ms.min(off);
        on_ms = on_ms.min(on);
        pcts.push((on - off) / off * 100.0);
    }
    alperf_obs::set_enabled(false);
    Overhead {
        off_ms,
        on_ms,
        pct: median(&pcts),
    }
}

/// One Fig. 7 campaign of `iters` iterations on the focus slice: Variance
/// Reduction over ARD-SE under the paper's bounds, 3 restarts, σ_n ≥ 1e-1.
fn campaign(slice: &FocusSlice, iters: usize) -> AlRun {
    let gpr = GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::recommended())
        .with_restarts(3)
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_standardize(false)
        .with_seed(100);
    let cfg = AlConfig {
        max_iters: iters,
        ..AlConfig::new(gpr)
    };
    let part = Partition::paper_default(slice.x.nrows(), 1000);
    let cost = vec![1.0; slice.x.nrows()];
    run_al(
        &slice.x,
        &slice.y,
        &cost,
        &part,
        &mut VarianceReduction,
        &cfg,
    )
    .expect("bench campaign")
}

/// A dependent chain of `steps` square roots: compute-bound, with no
/// memory traffic and nothing shared between threads running it.
fn spin(steps: u64) -> f64 {
    let mut x = 1.0f64;
    for i in 0..steps {
        x = (x + black_box(i) as f64 * 1e-9).sqrt() + 0.5;
    }
    x
}

/// One round of the two-thread control: [`CONTROL_STEPS`] of [`spin`] on
/// this thread, then the same steps split between it and one scoped
/// thread. Returns the 2-thread over 1-thread wall-time ratio.
fn control_ratio() -> f64 {
    let t1 = batch_ms(1, || {
        black_box(spin(CONTROL_STEPS));
    });
    let t2 = batch_ms(1, || {
        std::thread::scope(|s| {
            let half = s.spawn(|| spin(CONTROL_STEPS / 2));
            black_box(spin(CONTROL_STEPS - CONTROL_STEPS / 2));
            black_box(half.join().expect("control thread panicked"));
        });
    });
    t2 / t1
}

/// The benchmark grid: every strategy, two kernels, two noise levels,
/// serial and batched selection and a 20% fault rate, the shape real
/// studies sweep.
fn bench_spec(quick: bool) -> GridSpec {
    GridSpec {
        name: if quick { "bench_quick" } else { "bench" }.into(),
        base_seed: 29,
        rows: if quick { 12 } else { 16 },
        iters: if quick { 3 } else { 4 },
        strategies: vec![
            StrategyKind::VarianceReduction,
            StrategyKind::CostEfficiency,
            StrategyKind::Random,
        ],
        kernels: vec![KernelKind::Se, KernelKind::Matern52],
        noises: vec![0.1, 0.4],
        batches: vec![1, 2],
        fault_rates: vec![0.2],
        seeds: if quick { vec![0] } else { (0..2).collect() },
    }
}

/// Wall time of one run of the bench grid at `width` workers, in ms.
/// Every run writes the same bytes (the executor's determinism
/// contract), so times compare across widths.
fn grid_ms(spec: &GridSpec, width: usize) -> f64 {
    let dir = std::env::temp_dir().join("alperf-grid-bench");
    std::fs::create_dir_all(&dir).expect("create grid bench dir");
    let out = dir.join(format!("grid_t{width}.jsonl"));
    let exec = ExecConfig::default();
    batch_ms(1, || {
        with_threads(width, || run_grid(spec, &out, &exec)).expect("bench grid must run");
    })
}

fn main() -> ExitCode {
    alperf_bench::threads_from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());

    // A quick fit takes a millisecond or two, far too short to resolve a
    // 2% difference, so each arm times a batch of fits lasting at least
    // FIT_ARM_MS, and the median ratio runs over many interleaved rounds.
    // A full-size fit is long enough to be one arm by itself.
    let (n, m, restarts, rounds, grid_rounds, iters) = if quick {
        (48, 128, 2, 15, 15, 25)
    } else {
        (200, 1024, 5, 5, 5, 60)
    };
    let (x, y) = training_data(n);
    let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::recommended())
        .with_restarts(restarts)
        .with_seed(17);
    let gpr = Gpr::fit(
        x.clone(),
        &y,
        Box::new(SquaredExponential::new(1.0, 1.0)),
        0.1,
        true,
    )
    .expect("fit the predict-path model");
    let pool = pool_points(m);
    // A fit and a predict run on the calling thread, so the ratios
    // measure telemetry alone.
    let fit_once = || {
        black_box(fit_gpr(&x, &y, &cfg).expect("bench fit"));
    };
    let fit_batch = batch_for(FIT_ARM_MS, fit_once);
    let fit = on_off(rounds, fit_batch, fit_once);
    // The predict path is short (well under a millisecond at quick
    // sizes): many more rounds are affordable and needed to pin it.
    let predict = on_off(rounds * 20, 1, || {
        black_box(gpr.predict_batch(&pool).expect("bench predict"));
    });

    // The campaign arm traces to a real file: the sink stays installed,
    // and each campaign flushes it, so an untraced arm pays only a flush
    // of an empty buffer and a traced arm pays for every line it writes.
    let slice = focus_slice();
    let trace = repro_dir().join("obs_overhead_campaign.jsonl");
    alperf_obs::sink::install_jsonl(&trace).expect("install the campaign trace sink");
    let campaign_once = || {
        black_box(campaign(&slice, iters));
        alperf_obs::sink::flush();
    };
    let campaign_batch = batch_for(FIT_ARM_MS, campaign_once);
    let traced = on_off(rounds, campaign_batch, campaign_once);
    alperf_obs::sink::uninstall();
    let campaign_ratio = 1.0 + traced.pct / 100.0;

    // Each round runs the grid at widths 1 and 2, back to back, then the
    // two-thread control. A quick run takes ~10 ms, so only the medians of
    // the per-round ratios, which one CPU-steal spike cannot move,
    // resolve it.
    let spec = bench_spec(quick);
    let (mut ratios, mut controls) = (Vec::new(), Vec::new());
    for _ in 0..grid_rounds {
        let t1 = grid_ms(&spec, 1);
        let t2 = grid_ms(&spec, 2);
        ratios.push(t2 / t1);
        controls.push(control_ratio());
    }
    let ratio_t2 = median(&ratios);
    let control_t2 = median(&controls);
    let ratio_enforced = control_t2 <= CONTROL_TWO_CPUS;

    let mut failed = Vec::new();
    if fit.pct >= BUDGET_PCT {
        failed.push(format!("fit overhead {:.2}% >= {BUDGET_PCT}%", fit.pct));
    }
    if predict.pct >= BUDGET_PCT {
        failed.push(format!(
            "predict overhead {:.2}% >= {BUDGET_PCT}%",
            predict.pct
        ));
    }
    if campaign_ratio > CAMPAIGN_RATIO_BUDGET {
        failed.push(format!(
            "traced campaign ratio {campaign_ratio:.3} > {CAMPAIGN_RATIO_BUDGET}"
        ));
    }
    if ratio_enforced && ratio_t2 >= GRID_RATIO_T2_BUDGET {
        failed.push(format!(
            "grid_ratio_t2 {ratio_t2:.3} >= {GRID_RATIO_T2_BUDGET} \
             (control ratio {control_t2:.3} on {cpus} cpus)"
        ));
    }

    print!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"quick\": {quick},\n  \"cpus\": {cpus},\n  \
         \"fit\": {{ \"n\": {n}, \"restarts\": {restarts}, \"threads\": 1, \
         \"rounds\": {rounds}, \"batch\": {fit_batch}, \
         \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"overhead_pct\": {:.3}, \
         \"budget_pct\": {BUDGET_PCT} }},\n  \
         \"predict\": {{ \"train_n\": {n}, \"pool_m\": {m}, \"threads\": 1, \
         \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"overhead_pct\": {:.3}, \
         \"budget_pct\": {BUDGET_PCT} }},\n  \
         \"campaign\": {{ \"rows\": {}, \"iters\": {iters}, \"threads\": 1, \
         \"rounds\": {rounds}, \"batch\": {campaign_batch}, \
         \"untraced_ms\": {:.3}, \"traced_ms\": {:.3}, \"ratio\": {campaign_ratio:.3}, \
         \"budget_ratio\": {CAMPAIGN_RATIO_BUDGET} }},\n  \
         \"grid\": {{ \"configs\": {}, \"rounds\": {grid_rounds}, \"ratio_t2\": {ratio_t2:.3}, \
         \"control_ratio_t2\": {control_t2:.3}, \"ratio_t2_budget\": {GRID_RATIO_T2_BUDGET}, \
         \"control_two_cpus_max\": {CONTROL_TWO_CPUS}, \
         \"ratio_t2_enforced\": {ratio_enforced} }},\n  \
         \"within_budget\": {}\n}}\n",
        fit.off_ms,
        fit.on_ms,
        fit.pct,
        predict.off_ms,
        predict.on_ms,
        predict.pct,
        slice.x.nrows(),
        traced.off_ms,
        traced.on_ms,
        spec.n_configs(),
        failed.is_empty()
    );
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    for f in &failed {
        eprintln!("obs_overhead: budget exceeded: {f}");
    }
    ExitCode::FAILURE
}
