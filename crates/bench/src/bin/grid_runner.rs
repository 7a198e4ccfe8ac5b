//! Campaign-grid driver: expand a declarative grid spec into thousands
//! of deterministic AL campaigns, execute them across workers, stream
//! `alperf-grid-v1` summaries, and rank the results.
//!
//! Usage:
//!   grid_runner [--out <path>] [--spec <file> | --quick] [--resume]
//!               [--buffered] [--timing] [--seed <n>] [--rank]
//!               [--check-resume]
//!   grid_runner --rank-only <summaries.jsonl> [--baseline-strategy <s>]
//!
//! With no `--spec`, the built-in **paper-claims** grid runs: every
//! strategy × {se, m52} kernels × 3 noise levels × {0, 0.2} fault rates
//! × 28 replicate seeds — 1008 campaigns asking whether the paper's
//! "variance reduction beats random" claim survives noise and fault
//! injection at scale. `--quick` swaps in a 96-config smoke grid (CI).
//!
//! `--rank` prints per-slice strategy leaderboards, pairwise bootstrap
//! significance verdicts, and the paper-claims rollup after the run;
//! `--rank-only` does the same from an existing summary file without
//! executing anything — summaries are the whole interface.
//!
//! `--check-resume` proves the resume protocol on the just-written file:
//! it truncates a copy mid-record, resumes it, and byte-compares against
//! the original. `--resume` continues a partially written run for real.
//!
//! Determinism: output bytes are identical for any worker width
//! (`ALPERF_NUM_THREADS`), commit mode (`--buffered`), and kill/resume
//! history — unless `--timing` arms real wall/CPU nanoseconds per
//! record. See `crates/grid` docs and DESIGN.md §4k.

use alperf_bench::{obs_from_env, threads_from_env};
use alperf_grid::exec::{run_grid, CommitMode, ExecConfig};
use alperf_grid::rank::{
    leaderboards, render_claims, render_leaderboards, render_significance, significance, RankConfig,
};
use alperf_grid::spec::{GridSpec, KernelKind, StrategyKind};
use alperf_grid::summary::parse_summaries;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The built-in paper-claims grid: 3 strategies × 2 kernels × 3 noises
/// × 2 fault rates × 28 seeds = 1008 campaigns.
fn paper_claims_spec(base_seed: u64) -> GridSpec {
    GridSpec {
        name: "paper_claims".into(),
        base_seed,
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
        seeds: (0..28).collect(),
        ..GridSpec::default()
    }
}

/// The CI smoke grid: 3 strategies × 2 kernels × 2 noises × 2 faults ×
/// 2 batches × 2 seeds = 96 campaigns, small rows/iters.
fn quick_spec(base_seed: u64) -> GridSpec {
    GridSpec {
        name: "quick".into(),
        base_seed,
        rows: 16,
        iters: 4,
        strategies: vec![
            StrategyKind::VarianceReduction,
            StrategyKind::CostEfficiency,
            StrategyKind::Random,
        ],
        kernels: vec![KernelKind::Se, KernelKind::Matern52],
        noises: vec![0.1, 0.4],
        batches: vec![1, 2],
        fault_rates: vec![0.0, 0.2],
        seeds: (0..2).collect(),
    }
}

fn rank_report(path: &Path, baseline: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let summaries = parse_summaries(&text).map_err(|e| e.to_string())?;
    if summaries.records.len() < summaries.n_configs {
        eprintln!(
            "(partial grid: {}/{} campaigns committed — rankings reflect what finished)",
            summaries.records.len(),
            summaries.n_configs
        );
    }
    let cfg = RankConfig::default();
    println!("\n=== leaderboards: {} ===\n", summaries.grid);
    print!("{}", render_leaderboards(&leaderboards(&summaries.records)));
    let verdicts = significance(&summaries.records, &cfg);
    println!(
        "=== pairwise significance (bootstrap, {} resamples) ===\n",
        cfg.resamples
    );
    print!("{}", render_significance(&verdicts));
    println!();
    print!("{}", render_claims(&verdicts, baseline));
    Ok(())
}

/// Truncate a copy of `out` mid-record, resume it, and byte-compare —
/// the kill/resume determinism check on real output.
fn check_resume(spec: &GridSpec, out: &Path, exec: &ExecConfig) -> Result<(), String> {
    let reference = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let lines: Vec<&str> = reference.lines().collect();
    if lines.len() < 3 {
        return Err("summary too small to exercise resume".into());
    }
    let keep = 1 + (lines.len() - 1) / 2;
    let mut partial = lines[..keep].join("\n");
    partial.push('\n');
    partial.push_str(&lines[keep][..lines[keep].len() / 2]); // torn tail
    let copy = out.with_extension("resume_check.jsonl");
    std::fs::write(&copy, &partial).map_err(|e| e.to_string())?;
    let resumed = ExecConfig {
        resume: true,
        ..*exec
    };
    let report = run_grid(spec, &copy, &resumed).map_err(|e| e.to_string())?;
    let got = std::fs::read_to_string(&copy).map_err(|e| e.to_string())?;
    std::fs::remove_file(&copy).ok();
    if got != reference {
        return Err(format!(
            "resume produced different bytes (killed at record {}, re-ran {})",
            keep - 1,
            report.executed
        ));
    }
    println!(
        "resume check: killed at record {}, kept {}, re-ran {} -> byte-identical",
        keep - 1,
        report.skipped,
        report.executed
    );
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: grid_runner [--out <path>] [--spec <file> | --quick] [--resume] [--buffered]\n\
         \x20                  [--timing] [--seed <n>] [--rank] [--check-resume]\n\
         \x20      grid_runner --rank-only <summaries.jsonl> [--baseline-strategy <s>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (_, pool_source) = threads_from_env();
    let _obs = obs_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<PathBuf> = None;
    let mut spec_path: Option<String> = None;
    let mut quick = false;
    let mut exec = ExecConfig::default();
    let mut seed: Option<u64> = None;
    let mut rank = false;
    let mut rank_only: Option<PathBuf> = None;
    let mut do_check_resume = false;
    let mut baseline_strategy = "random".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--spec" => match it.next() {
                Some(p) => spec_path = Some(p.clone()),
                None => return usage(),
            },
            "--quick" => quick = true,
            "--resume" => exec.resume = true,
            "--buffered" => exec.mode = CommitMode::Buffered,
            "--stream" => exec.mode = CommitMode::Streaming,
            "--timing" => exec.timing = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage(),
            },
            "--rank" => rank = true,
            "--rank-only" => match it.next() {
                Some(p) => rank_only = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--check-resume" => do_check_resume = true,
            "--baseline-strategy" => match it.next() {
                Some(s) => baseline_strategy = s.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if let Some(path) = rank_only {
        return match rank_report(&path, &baseline_strategy) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("grid_runner: {e}");
                ExitCode::from(2)
            }
        };
    }

    let spec = match (&spec_path, quick) {
        (Some(_), true) => return usage(),
        (Some(path), false) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("grid_runner: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match GridSpec::parse(&text) {
                Ok(mut s) => {
                    if let Some(base) = seed {
                        s.base_seed = base;
                    }
                    s
                }
                Err(e) => {
                    eprintln!("grid_runner: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        (None, true) => quick_spec(seed.unwrap_or(42)),
        (None, false) => paper_claims_spec(seed.unwrap_or(42)),
    };
    let out = out.unwrap_or_else(|| {
        let dir = PathBuf::from("target/grid");
        std::fs::create_dir_all(&dir).expect("create target/grid");
        dir.join(format!("{}.jsonl", spec.name))
    });

    let n = match spec.clone().canonicalize() {
        Ok(s) => s.n_configs(),
        Err(e) => {
            eprintln!("grid_runner: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "grid {}: {} campaigns -> {} (pool: {}, mode: {:?}{}{})",
        spec.name,
        n,
        out.display(),
        pool_source,
        exec.mode,
        if exec.timing { ", timing" } else { "" },
        if exec.resume { ", resume" } else { "" },
    );
    let t0 = std::time::Instant::now();
    let report = match run_grid(&spec, &out, &exec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("grid_runner: {e}");
            return ExitCode::FAILURE;
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "done: {} executed ({} resumed-past) at width {} in {:.1}s ({:.1} configs/s); \
         {} degraded, {} errors",
        report.executed,
        report.skipped,
        report.width,
        secs,
        report.executed as f64 / secs.max(1e-9),
        report.degraded,
        report.errors,
    );

    let mut failed = false;
    if do_check_resume {
        if let Err(e) = check_resume(&spec, &out, &exec) {
            eprintln!("grid_runner: resume check FAILED: {e}");
            failed = true;
        }
    }
    if rank {
        if let Err(e) = rank_report(&out, &baseline_strategy) {
            eprintln!("grid_runner: {e}");
            failed = true;
        }
    }
    if failed || report.errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
