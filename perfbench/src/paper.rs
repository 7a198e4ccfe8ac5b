//! The Fig. 7 and Fig. 8 workloads on the simulated Performance dataset's
//! (poisson1, NP=32) focus slice.

use crate::campaign::{self, CampaignInput, Finished};
use crate::pass::Pass;
use alperf_al::oracle::DatasetOracle;
use alperf_al::runner::AlConfig;
use alperf_al::strategy::{CostEfficiency, Strategy, VarianceReduction};
use alperf_cluster::workload::WorkloadSpec;
use alperf_cluster::Campaign;
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::dataset::{DataSet, DataSetError};
use alperf_data::partition::Partition;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_grid::spec::mix;
use alperf_linalg::matrix::Matrix;
use std::time::Instant;

/// The focus slice as the AL loop sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// `[log10 size, frequency]` per row.
    pub x: Matrix,
    /// `log10 runtime` per row.
    pub y: Vec<f64>,
    /// Runtime in seconds per row.
    pub runtime: Vec<f64>,
}

impl Slice {
    fn same_bits(&self, other: &Slice) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.x.nrows() == other.x.nrows()
            && bits(self.x.as_slice()) == bits(other.x.as_slice())
            && bits(&self.y) == bits(&other.y)
            && bits(&self.runtime) == bits(&other.runtime)
    }
}

/// Set-ups before the first group; one more runs before each later group
/// so that the samples span the run. `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// The inputs built from a seed, with the timing of each repeat.
pub struct Setup {
    seed: u64,
    /// The focus slice.
    pub slice: Slice,
    /// Whole set-up per repeat, seconds.
    pub total_s: Vec<f64>,
    /// `Campaign::run` per repeat, milliseconds.
    pub generate_ms: Vec<f64>,
    /// Slice cut and design-matrix build per repeat, milliseconds.
    pub slice_ms: Vec<f64>,
    /// Jobs in the Performance dataset.
    pub jobs: usize,
    /// Jobs that exhausted their retries.
    pub jobs_failed: usize,
}

fn cut_slice(perf: &DataSet) -> Result<Slice, DataSetError> {
    let sub = perf
        .fix_level("Operator", "poisson1")?
        .fix_variable("NP", 32.0)?;
    let sizes = &sub.variable("Global Problem Size")?.values;
    let freqs = &sub.variable("CPU Frequency")?.values;
    let runtime = sub.response("Runtime")?.to_vec();
    let n = sub.n_rows();
    let mut flat = Vec::with_capacity(2 * n);
    for i in 0..n {
        flat.push(sizes[i].log10());
        flat.push(freqs[i]);
    }
    let x = Matrix::from_vec(n, 2, flat).map_err(|e| DataSetError::Invalid(format!("{e:?}")))?;
    Ok(Slice {
        x,
        y: runtime.iter().map(|r| r.log10()).collect(),
        runtime,
    })
}

/// One set-up: simulate the measurement campaign from `seed` and cut the
/// focus slice. Returns the slice, the dataset's job counts, and the
/// generate and cut times in seconds.
fn build(seed: u64) -> Result<(Slice, usize, usize, f64, f64), String> {
    let t0 = Instant::now();
    let generated = Campaign {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        spec: WorkloadSpec {
            seed,
            ..WorkloadSpec::default()
        },
        ..Campaign::default()
    }
    .run()
    .map_err(|e| format!("campaign: {e}"))?;
    let t1 = Instant::now();
    let slice = cut_slice(&generated.performance).map_err(|e| format!("slice: {e:?}"))?;
    let t2 = Instant::now();
    Ok((
        slice,
        generated.performance.n_rows(),
        generated.failures.len(),
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
    ))
}

/// Build the inputs from `seed` [`SETUP_REPEATS`] times; every repeat must
/// reproduce the first exactly.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let (slice, jobs, jobs_failed, generate, cut) = build(seed)?;
    let mut s = Setup {
        seed,
        slice,
        total_s: vec![generate + cut],
        generate_ms: vec![generate * 1e3],
        slice_ms: vec![cut * 1e3],
        jobs,
        jobs_failed,
    };
    for _ in 1..SETUP_REPEATS {
        s.repeat()?;
    }
    Ok(s)
}

impl Setup {
    /// Build the inputs once more, time it, and check it matches.
    pub fn repeat(&mut self) -> Result<(), String> {
        let (slice, jobs, _, generate, cut) = build(self.seed)?;
        if !self.slice.same_bits(&slice) || jobs != self.jobs {
            return Err("set-up repeat differs from the first".into());
        }
        self.total_s.push(generate + cut);
        self.generate_ms.push(generate * 1e3);
        self.slice_ms.push(cut * 1e3);
        Ok(())
    }
}

/// Iterations per Fig. 7 campaign.
const FIG7_ITERS: usize = 60;
/// Index range of the early-collapse check.
const EARLY: usize = 5;
/// Iteration at which Fig. 8's per-iteration and per-cost observations
/// are read.
const FIG8_AT: usize = 20;

fn ard_config(floor: NoiseFloor, restarts: usize, seed: u64) -> GprConfig {
    GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(floor)
        .with_restarts(restarts)
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_standardize(false)
        .with_seed(seed)
}

/// One campaign of a pair: its strategy and loop configuration.
struct Arm {
    strategy: Box<dyn Strategy>,
    config: AlConfig,
    cost: Vec<f64>,
}

fn fig7_arms(slice: &Slice, seed: u64, k: u64) -> [Arm; 2] {
    let arm = |floor| Arm {
        strategy: Box::new(VarianceReduction),
        config: AlConfig {
            max_iters: FIG7_ITERS,
            seed: k,
            ..AlConfig::new(ard_config(floor, 3, mix(seed, 100 + k)))
        },
        cost: vec![1.0; slice.y.len()],
    };
    [arm(NoiseFloor::loose()), arm(NoiseFloor::recommended())]
}

fn fig8_arms(slice: &Slice, seed: u64, k: u64) -> [Arm; 2] {
    let arm = |strategy: Box<dyn Strategy>| Arm {
        strategy,
        config: AlConfig {
            max_iters: usize::MAX,
            refit_every: 4,
            seed: k,
            ..AlConfig::new(ard_config(NoiseFloor::recommended(), 2, mix(seed, 200 + k)))
        },
        cost: slice.runtime.iter().map(|r| r * 32.0).collect(),
    };
    [
        arm(Box::new(VarianceReduction)),
        arm(Box::new(CostEfficiency)),
    ]
}

/// Which paper figure a pass reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 7: σ_n floor 1e-8 vs 1e-1, Variance Reduction.
    Fig7,
    /// Fig. 8: Variance Reduction vs Cost Efficiency to pool exhaustion.
    Fig8,
}

/// Run `pairs` pairs of campaigns (one partition each), calling `between`
/// before every pair but the first. Traced, each campaign is probed after
/// it finishes. Neither counts in the window.
pub fn run_pass(
    figure: Figure,
    slice: &Slice,
    seed: u64,
    pairs: usize,
    traced: bool,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let epoch = Instant::now();
    let mut pass = Pass::default();
    let mut unmeasured_ns = 0u64;
    let mut early = [f64::INFINITY; 2];
    while pass.groups < pairs {
        let k = pass.groups as u64;
        if k > 0 {
            let t = Instant::now();
            between()?;
            unmeasured_ns += t.elapsed().as_nanos() as u64;
        }
        let (arms, part_seed) = match figure {
            Figure::Fig7 => (fig7_arms(slice, seed, k), mix(seed, 1000 + k)),
            Figure::Fig8 => (fig8_arms(slice, seed, k), mix(seed, 2000 + k)),
        };
        let partition = Partition::paper_default(slice.y.len(), part_seed);
        let mut pair: Vec<Finished> = Vec::with_capacity(2);
        for (j, arm) in arms.into_iter().enumerate() {
            let id = (2 * k as usize + j) as u32;
            let gpr = arm.config.gpr.clone();
            let f = campaign::run(
                CampaignInput {
                    x: &slice.x,
                    y: &slice.y,
                    cost: &arm.cost,
                    partition: partition.clone(),
                    strategy: arm.strategy,
                    oracle: &DatasetOracle,
                    config: arm.config,
                },
                epoch,
                id,
                traced,
            )
            .map_err(|e| format!("campaign {k}.{j}: {e}"))?;
            if traced {
                let t = Instant::now();
                let (theta, sigma) = f.final_model.clone().ok_or("campaign made no proposal")?;
                let rec = crate::instrument::Recorder::new(epoch, id, true);
                pass.probes.push(campaign::probe(
                    &gpr,
                    &slice.x,
                    &slice.y,
                    &f.run.final_train,
                    &partition.test,
                    (&theta, sigma),
                    &rec,
                )?);
                pass.spans.extend(rec.take_spans());
                unmeasured_ns += t.elapsed().as_nanos() as u64;
            }
            pass.add_campaign(&f, campaign::trajectory_digest(&f.run));
            pair.push(f);
        }
        check_pair(figure, &partition, &pair, &mut pass);
        for (e, f) in early.iter_mut().zip(&pair) {
            *e = e.min(early_sigma(&f.run));
        }
        pass.groups += 1;
    }
    if figure == Figure::Fig7 {
        check_collapse(early, &mut pass);
    }
    pass.window_ns = epoch.elapsed().as_nanos() as u64 - unmeasured_ns;
    Ok(pass)
}

/// Smallest σ(x*) over a campaign's first [`EARLY`] iterations.
fn early_sigma(run: &alperf_al::runner::AlRun) -> f64 {
    run.history
        .iter()
        .take(EARLY)
        .map(|r| r.sigma_at_chosen)
        .fold(f64::INFINITY, f64::min)
}

/// Each campaign must run its full length with a finite RMSE; a Fig. 8
/// pair must show the paper's per-iteration and per-cost observations.
fn check_pair(figure: Figure, partition: &Partition, pair: &[Finished], pass: &mut Pass) {
    let k = pass.groups;
    let expected = match figure {
        Figure::Fig7 => FIG7_ITERS.min(partition.active.len()),
        Figure::Fig8 => partition.active.len(),
    };
    let mut bad = [false; 2];
    for (j, f) in pair.iter().enumerate() {
        let h = &f.run.history;
        if h.len() != expected || h.iter().any(|r| !r.rmse.is_finite()) {
            bad[j] = true;
            pass.problems.push(format!(
                "pair {k}: {} ran {} of {expected} iterations or lost its RMSE",
                f.run.strategy,
                h.len()
            ));
        }
    }
    if figure == Figure::Fig8 {
        // Fig. 8a: Cost Efficiency converges more slowly per iteration;
        // Fig. 8b: it spends less to get there.
        let (vr, ce) = (&pair[0].run.history, &pair[1].run.history);
        match (vr.get(FIG8_AT), ce.get(FIG8_AT)) {
            (Some(vr), Some(ce))
                if vr.rmse < ce.rmse && ce.cumulative_cost < vr.cumulative_cost => {}
            (vr, ce) => {
                bad = [true; 2];
                pass.problems.push(format!(
                    "pair {k}: at iteration {FIG8_AT} VR (rmse, cost) {:?} vs CE {:?}",
                    vr.map(|r| (r.rmse, r.cumulative_cost)),
                    ce.map(|r| (r.rmse, r.cumulative_cost))
                ));
            }
        }
    }
    pass.failed += bad.iter().filter(|&&b| b).count();
}

/// Fig. 7: the 1e-8 floor lets σ(x*) collapse within the first
/// iterations and the 1e-1 floor prevents it: over the pass, the loose
/// floor's smallest early σ(x*) is below the recommended floor's.
fn check_collapse(early: [f64; 2], pass: &mut Pass) {
    let [loose, tight] = early;
    if loose.partial_cmp(&tight) != Some(std::cmp::Ordering::Less) {
        pass.failed = pass.attempted;
        pass.problems.push(format!(
            "no early σ collapse under the 1e-8 floor ({loose:.3e} vs {tight:.3e})"
        ));
    }
}
