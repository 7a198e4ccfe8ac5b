//! The grid-claims workload: a seed subset of the paper-claims grid, run
//! through `run_grid` in rounds of 288 campaigns.

use crate::campaign::{self, CampaignInput, Finished};
use crate::pass::Pass;
use crate::stats::median;
use alperf_al::oracle::SeededFaultOracle;
use alperf_al::runner::AlConfig;
use alperf_al::strategy::{CostEfficiency, RandomSampling, Strategy, VarianceReduction};
use alperf_data::partition::Partition;
use alperf_gp::kernel::{Kernel, Matern52, SquaredExponential};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{FitTier, GprConfig};
use alperf_grid::exec::{run_grid, ExecConfig};
use alperf_grid::rank::{significance, RankConfig};
use alperf_grid::spec::{mix, CampaignConfig, GridSpec, KernelKind, StrategyKind, TierKind};
use alperf_grid::summary::{parse_summaries, trajectory_digest, SummaryRecord};
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads `run_grid` uses (each runs its campaigns at width 1).
pub const WIDTH: usize = 2;
/// Replicate seeds per round.
const SEEDS_PER_ROUND: u64 = 8;
/// Set-ups before the first round; one more runs before each later round.
const SETUP_REPEATS: usize = 7;

/// Round `round` of the study: 3 strategies × {SE, Matérn-5/2} × 3 noise
/// levels × {0, 0.2} fault rates × 8 replicate seeds, 40 rows, 10
/// iterations. Rounds cover disjoint replicate seeds.
pub fn spec(seed: u64, round: usize) -> GridSpec {
    let first = round as u64 * SEEDS_PER_ROUND;
    GridSpec {
        name: "grid_claims".into(),
        base_seed: seed,
        rows: 40,
        iters: 10,
        strategies: vec![
            StrategyKind::VarianceReduction,
            StrategyKind::CostEfficiency,
            StrategyKind::Random,
        ],
        kernels: vec![KernelKind::Se, KernelKind::Matern52],
        noises: vec![0.05, 0.2, 0.5],
        fault_rates: vec![0.0, 0.2],
        seeds: (first..first + SEEDS_PER_ROUND).collect(),
        ..GridSpec::default()
    }
}

fn expand(seed: u64, round: usize) -> Result<Vec<CampaignConfig>, String> {
    spec(seed, round)
        .canonicalize()
        .and_then(|s| s.expand())
        .map_err(|e| format!("grid spec: {e}"))
}

/// Round 0's inputs, built several times, with each repeat's timing.
pub struct Setup {
    seed: u64,
    first: Inputs,
    /// Whole set-up per repeat, seconds.
    pub total_s: Vec<f64>,
    /// Spec expansion per repeat, milliseconds.
    pub expand_ms: Vec<f64>,
    /// `campaign::synthesize` over every config per repeat, milliseconds.
    pub build_ms: Vec<f64>,
}

/// Digest of every synthesized input, over exact bits.
fn inputs_digest(inputs: &[(Matrix, Vec<f64>, Vec<f64>, Partition)]) -> u64 {
    let mut bytes = Vec::new();
    for (x, y, cost, part) in inputs {
        for v in x.as_slice().iter().chain(y).chain(cost) {
            bytes.extend(v.to_bits().to_le_bytes());
        }
        for &i in part.initial.iter().chain(&part.active).chain(&part.test) {
            bytes.extend((i as u64).to_le_bytes());
        }
    }
    alperf_grid::summary::fnv1a64(bytes)
}

/// Round 0's configs and a digest of their synthesized inputs.
type Inputs = (Vec<CampaignConfig>, u64);

/// One set-up: expand round 0's spec and synthesize every config's
/// scenario. Returns the inputs and the expand and synthesize times in
/// seconds.
fn build(seed: u64) -> Result<(Inputs, f64, f64), String> {
    let t0 = Instant::now();
    let configs = expand(seed, 0)?;
    let t1 = Instant::now();
    let inputs: Vec<_> = configs
        .iter()
        .map(alperf_grid::campaign::synthesize)
        .collect();
    let t2 = Instant::now();
    let digest = inputs_digest(&inputs);
    Ok((
        (configs, digest),
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
    ))
}

/// Build round 0's inputs from the seed [`SETUP_REPEATS`] times; every
/// repeat must reproduce the first exactly.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let (first, expand, synth) = build(seed)?;
    let mut s = Setup {
        seed,
        first,
        total_s: vec![expand + synth],
        expand_ms: vec![expand * 1e3],
        build_ms: vec![synth * 1e3],
    };
    for _ in 1..SETUP_REPEATS {
        s.repeat()?;
    }
    Ok(s)
}

impl Setup {
    /// Build the inputs once more, time it, and check it matches.
    pub fn repeat(&mut self) -> Result<(), String> {
        let (again, expand, synth) = build(self.seed)?;
        if again != self.first {
            return Err("grid set-up repeat differs from the first".into());
        }
        self.total_s.push(expand + synth);
        self.expand_ms.push(expand * 1e3);
        self.build_ms.push(synth * 1e3);
        Ok(())
    }
}

/// A campaign's wall time and the axes the per-slice medians split on.
pub struct Timed {
    /// Campaign wall time from the executor, nanoseconds.
    pub wall_ns: u64,
    /// Kernel axis value.
    pub kernel: String,
    /// Fault-rate axis value.
    pub fault: f64,
}

/// What the untraced pass keeps beyond the shared [`Pass`] fields.
#[derive(Default)]
pub struct GridExtra {
    /// Every committed campaign's timing, round by round.
    pub timed: Vec<Timed>,
    /// Campaigns with a degraded iteration, from the grid reports.
    pub degraded: usize,
    /// Error records, from the grid reports.
    pub errors: usize,
    /// Worker threads `run_grid` reported using.
    pub width: usize,
}

/// A round's summary file: each record, with the timing and axes the
/// summary reader does not keep.
fn read_round(path: &Path) -> Result<(Vec<SummaryRecord>, Vec<Timed>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = parse_summaries(&text).map_err(|e| format!("summary: {e}"))?;
    let mut timed = Vec::with_capacity(file.records.len());
    for line in text.lines().skip(1) {
        let v = alperf_obs::json::parse(line).map_err(|e| format!("summary line: {e}"))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("summary line lacks {k}"));
        timed.push(Timed {
            wall_ns: field("wall_ns")?.as_f64().unwrap_or(0.0) as u64,
            kernel: field("kernel")?.as_str().unwrap_or("").to_string(),
            fault: field("fault")?.as_f64().unwrap_or(f64::NAN),
        });
    }
    Ok((file.records, timed))
}

/// Run `rounds` rounds through `run_grid` at width [`WIDTH`], writing
/// summaries under `out_dir` and calling `between` before every round but
/// the first.
pub fn run_pass(
    seed: u64,
    rounds: usize,
    out_dir: &Path,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(Pass, GridExtra), String> {
    let mut pass = Pass::default();
    let mut extra = GridExtra::default();
    let mut study: Vec<SummaryRecord> = Vec::new();
    let mut failed: Vec<bool> = Vec::new();
    while pass.groups < rounds {
        let round = pass.groups;
        if round > 0 {
            between()?;
        }
        let spec = spec(seed, round);
        let configs = expand(seed, round)?;
        let path = out_dir.join(format!("grid_claims-seed{seed}-round{round}.jsonl"));
        let exec = ExecConfig {
            timing: true,
            ..ExecConfig::default()
        };
        let t = Instant::now();
        let report = threads::with_threads(WIDTH, || run_grid(&spec, &path, &exec))
            .map_err(|e| format!("run_grid: {e}"))?;
        pass.window_ns += t.elapsed().as_nanos() as u64;
        extra.degraded += report.degraded;
        extra.errors += report.errors;
        extra.width = extra.width.max(report.width);
        let (records, timed) = read_round(&path)?;
        let flags = check_round(round, &configs, &records, &mut pass);
        for (r, t) in records.iter().zip(&timed) {
            let proposals = r.iters + r.degraded;
            pass.attempted += 1;
            pass.iterations += r.iters;
            pass.lost += r.degraded;
            let ms = t.wall_ns as f64 / 1e6;
            pass.campaign_ms.push(ms);
            pass.propose_ms.push(ms / proposals.max(1) as f64);
            pass.rmse_means.push(r.rmse_mean);
            pass.digests.push(parse_digest(&r.traj));
        }
        extra.timed.extend(timed);
        match flags {
            None => pass.failed += configs.len(),
            Some(flags) => {
                failed.extend(flags);
                // Only what the significance check reads is kept.
                study.extend(records.into_iter().map(|r| SummaryRecord {
                    key: String::new(),
                    traj: String::new(),
                    ..r
                }));
            }
        }
        pass.groups += 1;
    }
    check_claims(&study, &mut failed, &mut pass);
    pass.failed += failed.iter().filter(|&&f| f).count();
    Ok((pass, extra))
}

/// A 16-hex-digit trajectory digest as a number; 0 when malformed.
fn parse_digest(hex: &str) -> u64 {
    u64::from_str_radix(hex, 16).unwrap_or(0)
}

/// No error records and every config committed exactly once, in order.
/// Returns whether each record failed, or `None` when the records do not
/// match the configs.
fn check_round(
    round: usize,
    configs: &[CampaignConfig],
    records: &[SummaryRecord],
    pass: &mut Pass,
) -> Option<Vec<bool>> {
    let keys_match = records.len() == configs.len()
        && records
            .iter()
            .zip(configs)
            .all(|(r, cfg)| r.index == cfg.index && r.key == cfg.key());
    if !keys_match {
        pass.problems.push(format!(
            "round {round}: {} records for {} configs, or out of order",
            records.len(),
            configs.len()
        ));
        return None;
    }
    let failed = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let bad = r.status != "ok" || !r.rmse_mean.is_finite();
            if bad {
                pass.problems
                    .push(format!("round {round}: config {i} status {}", r.status));
            }
            bad
        })
        .collect();
    Some(failed)
}

/// Variance Reduction is never significantly worse than random in any
/// slice of the run's whole study. The rounds hold disjoint replicate
/// seeds of one study, so the comparison pools them: a single round's 8
/// replicates per slice let chance alone flag VR (random ahead by 13%,
/// 95% CI 1–25%, in one round of 200), while the pooled study does not.
/// Marks every record of a failing slice.
fn check_claims(study: &[SummaryRecord], failed: &mut [bool], pass: &mut Pass) {
    let verdicts = significance(study, &RankConfig::default());
    let slices: std::collections::BTreeSet<&str> = study.iter().map(|r| r.slice.as_str()).collect();
    for slice in slices {
        let vs_random = verdicts.iter().find(|v| {
            v.slice == slice
                && [v.a.as_str(), v.b.as_str()].contains(&"variance_reduction")
                && [v.a.as_str(), v.b.as_str()].contains(&"random")
        });
        if vs_random.is_none_or(|v| v.winner() == Some("random")) {
            pass.problems
                .push(format!("VR vs random in {slice}: {vs_random:?}"));
            for (f, r) in failed.iter_mut().zip(study) {
                *f |= r.slice == slice;
            }
        }
    }
}

/// Median campaign time of the committed records matching `keep`, ms.
pub fn slice_p50_ms(extra: &GridExtra, keep: impl Fn(&Timed) -> bool) -> f64 {
    let v: Vec<f64> = extra
        .timed
        .iter()
        .filter(|c| keep(c))
        .map(|c| c.wall_ns as f64 / 1e6)
        .collect();
    median(&v)
}

fn replica_kernel(kind: KernelKind) -> Result<Box<dyn Kernel>, String> {
    match kind {
        KernelKind::Se => Ok(Box::new(SquaredExponential::unit())),
        KernelKind::Matern52 => Ok(Box::new(Matern52::new(1.0, 1.0))),
        other => Err(format!("no replica for kernel {other:?}")),
    }
}

fn replica_strategy(kind: StrategyKind) -> Box<dyn Strategy> {
    match kind {
        StrategyKind::VarianceReduction => Box::new(VarianceReduction),
        StrategyKind::CostEfficiency => Box::new(CostEfficiency),
        StrategyKind::Random => Box::new(RandomSampling),
    }
}

/// The loop configuration the grid's campaign adapter builds for a
/// serial, exact-tier config.
fn replica_config(cfg: &CampaignConfig) -> Result<AlConfig, String> {
    if cfg.tier != TierKind::Exact || cfg.batch != 1 {
        return Err(format!(
            "no replica for tier {:?} batch {}",
            cfg.tier, cfg.batch
        ));
    }
    let gpr = GprConfig::new(replica_kernel(cfg.kernel)?)
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(mix(cfg.run_seed, 0x6770))
        .with_tier(FitTier::Exact);
    Ok(AlConfig {
        max_iters: cfg.iters,
        seed: cfg.run_seed,
        ..AlConfig::new(gpr)
    })
}

/// `f(0..n)` on [`WIDTH`] workers, each at pool width 1 as `run_grid`
/// runs its campaigns, claiming indices in order; results in index order.
fn on_workers<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..WIDTH {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let out = threads::with_threads(1, || f(i));
                slots.lock().expect("worker slots poisoned")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("worker slots poisoned")
        .into_iter()
        .map(|s| s.expect("every index was claimed"))
        .collect()
}

/// The traced pass: the same rounds' campaigns, each run through
/// `run_al_with_oracle` behind the wrappers with the configuration the
/// grid's campaign adapter uses, on [`WIDTH`] workers at width 1. Its
/// trajectory digests must equal the summaries' (checked by the caller).
/// Probes run after each timed round.
pub fn run_traced_pass(seed: u64, rounds: usize) -> Result<Pass, String> {
    let epoch = Instant::now();
    let mut pass = Pass::default();
    for round in 0..rounds {
        let configs = expand(seed, round)?;
        let base = pass.attempted;
        let id = |i: usize| (base + i) as u32;
        let t = Instant::now();
        let finished = on_workers(configs.len(), |i| run_replica(&configs[i], epoch, id(i)));
        pass.window_ns += t.elapsed().as_nanos() as u64;
        let finished: Vec<Finished> = finished.into_iter().collect::<Result<_, _>>()?;
        let probes = on_workers(configs.len(), |i| {
            probe_replica(&configs[i], &finished[i], epoch, id(i))
        });
        for res in probes {
            let (p, spans) = res?;
            pass.probes.push(p);
            pass.spans.extend(spans);
        }
        for f in &finished {
            let digest = trajectory_digest(&f.run.rmse_series(), &f.run.amsd_series());
            pass.add_campaign(f, parse_digest(&digest));
        }
        pass.groups += 1;
    }
    Ok(pass)
}

/// Run one grid config through the wrapped loop with the configuration
/// the grid's campaign adapter uses (see [`run_traced_pass`]).
pub fn run_replica(cfg: &CampaignConfig, epoch: Instant, id: u32) -> Result<Finished, String> {
    let (x, y, cost, partition) = alperf_grid::campaign::synthesize(cfg);
    let oracle = SeededFaultOracle::new(mix(cfg.data_seed(), 0x666c74), cfg.fault_rate);
    campaign::run(
        CampaignInput {
            x: &x,
            y: &y,
            cost: &cost,
            partition,
            strategy: replica_strategy(cfg.strategy),
            oracle: &oracle,
            config: replica_config(cfg)?,
        },
        epoch,
        id,
        true,
    )
    .map_err(|e| format!("replica {}: {e}", cfg.key()))
}

fn probe_replica(
    cfg: &CampaignConfig,
    f: &Finished,
    epoch: Instant,
    id: u32,
) -> Result<(campaign::ProbeTimes, Vec<crate::instrument::Span>), String> {
    let (x, y, _, partition) = alperf_grid::campaign::synthesize(cfg);
    let (theta, sigma) = f.final_model.clone().ok_or("replica made no proposal")?;
    let rec = crate::instrument::Recorder::new(epoch, id, true);
    let gpr = replica_config(cfg)?.gpr;
    let p = campaign::probe(
        &gpr,
        &x,
        &y,
        &f.run.final_train,
        &partition.test,
        (&theta, sigma),
        &rec,
    )?;
    Ok((p, rec.take_spans()))
}
