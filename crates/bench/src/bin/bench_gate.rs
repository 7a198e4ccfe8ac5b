//! CI perf-regression gate over the benchmarked hot paths.
//!
//! Usage:
//!   bench_gate [--suite obs|scale|grid] [--baseline <path>] [--tolerance <pct>] [--quick] [--json]
//!   bench_gate --update-baseline [--suite obs|scale|grid] [--baseline <path>] [--quick]
//!
//! Three suites share the `alperf-bench-gate-v1` baseline format:
//!
//! * `obs` (default) re-measures the instrumented GPR fit and
//!   batched-predict paths (the same measurement `obs_overhead` reports,
//!   via `alperf_bench::overhead`) against `BENCH_obs_overhead.json`;
//! * `scale` re-measures fit / pool-prediction / end-to-end campaign
//!   times at 1/2/4/8 rayon workers (via `alperf_bench::scalebench`)
//!   against `BENCH_scaling.json`. Speedup-ratio gates carry a `min_cpus` and
//!   self-skip on machines too small to demonstrate the speedup;
//! * `grid` re-measures campaign-grid throughput at 1/2/8 workers plus
//!   the summary-stream overhead (via `alperf_bench::gridbench`) against
//!   `BENCH_grid.json`. Throughput gates are `floor` kind (a collapse
//!   below the recorded configs/s fails on the recording machine);
//!   width-speedup ratios carry `min_cpus` like the scale suite.
//!
//! Gate semantics:
//!
//! * absolute hot-path times gate *relatively* — more than `--tolerance`
//!   (default 15%) over the baseline fails the build, but only on
//!   comparable hardware (same CPU count) and mode (quick/full), so the
//!   gate stays portable to arbitrary CI machines;
//! * hard-budget metrics gate on any machine: telemetry overhead
//!   percentages and the summary-stream overhead against their recorded
//!   budgets, and the width-speedup ratios where the machine has the
//!   cores to show them (`min_cpus`).
//!
//! `--update-baseline` rewrites the baseline from a fresh measurement,
//! recording machine metadata (CPU count, short git commit) and the
//! current date so future runs know what they are comparing against.
//!
//! Exit codes: 0 all gates pass; 1 any gate fails; 2 usage/baseline error.

use alperf_bench::gate::{
    any_failed, evaluate, parse_baseline, render_baseline, render_json, render_table, GateKind,
    GateStatus, Machine, Metric,
};
use alperf_bench::gridbench::{
    self, GRID_RATIO_T2_BUDGET, GRID_RATIO_T2_MIN_CPUS, GRID_RATIO_T8_BUDGET,
    GRID_RATIO_T8_MIN_CPUS, STREAM_OVERHEAD_BUDGET_PCT,
};
use alperf_bench::overhead::{self, BUDGET_PCT};
use alperf_bench::scalebench::{
    self, PREDICT_POOL_RATIO_T4_BUDGET, PREDICT_POOL_RATIO_T4_MIN_CPUS,
};
use std::collections::BTreeMap;
use std::process::ExitCode;

const DEFAULT_OBS_BASELINE: &str = "BENCH_obs_overhead.json";
const DEFAULT_SCALE_BASELINE: &str = "BENCH_scaling.json";
const DEFAULT_GRID_BASELINE: &str = "BENCH_grid.json";
const DEFAULT_TOLERANCE: f64 = 0.15;

#[derive(Clone, Copy, PartialEq)]
enum Suite {
    Obs,
    Scale,
    Grid,
}

impl Suite {
    fn bench_name(self) -> &'static str {
        match self {
            Suite::Obs => "obs_overhead",
            Suite::Scale => "thread_scaling",
            Suite::Grid => "campaign_grid",
        }
    }

    fn default_baseline(self) -> &'static str {
        match self {
            Suite::Obs => DEFAULT_OBS_BASELINE,
            Suite::Scale => DEFAULT_SCALE_BASELINE,
            Suite::Grid => DEFAULT_GRID_BASELINE,
        }
    }

    fn measure(self, quick: bool) -> Vec<(&'static str, f64)> {
        match self {
            Suite::Obs => overhead::measure(quick).metrics(),
            Suite::Scale => scalebench::measure(quick).metrics(),
            Suite::Grid => gridbench::measure(quick).metrics(),
        }
    }

    /// Map a fresh measurement to baseline gate entries.
    fn baseline_metric(self, name: &'static str, value: f64) -> Metric {
        match self {
            Suite::Obs if name.ends_with("_overhead_pct") => Metric {
                // Overhead percentages gate against the hard budget, not
                // against whatever (possibly negative) value was measured.
                kind: GateKind::Budget,
                value: BUDGET_PCT,
                tol_pct: None,
                min_cpus: None,
            },
            Suite::Obs => {
                // Short measurements (batched predict, the per-site ns
                // loop) swing 30-40% run to run under CPU steal on shared
                // VMs; grant them a recorded 50% allowance so only the
                // long, stable fit path gates at the strict CLI tolerance.
                let tol_pct = matches!(name, "predict_ms" | "site_ns").then_some(50.0);
                Metric {
                    kind: GateKind::Relative,
                    value,
                    tol_pct,
                    min_cpus: None,
                }
            }
            Suite::Scale if name == "predict_pool_ratio_t4" => Metric {
                // The acceptance speedup: 4 workers must predict the pool
                // >= 1.5x faster than 1 — but only on hardware that can
                // actually run 4 workers at once.
                kind: GateKind::Budget,
                value: PREDICT_POOL_RATIO_T4_BUDGET,
                tol_pct: None,
                min_cpus: Some(PREDICT_POOL_RATIO_T4_MIN_CPUS),
            },
            Suite::Scale => Metric {
                // Per-width absolute times are cross-checked only on the
                // recording machine at the same pool width; they swing
                // under CPU steal like every sub-second timing here.
                kind: GateKind::Relative,
                value,
                tol_pct: Some(50.0),
                min_cpus: None,
            },
            Suite::Grid if name == "grid_ratio_t2" => Metric {
                // Campaigns are embarrassingly parallel: 2 workers on 2
                // real cores must cut grid wall time by >= 1.25x.
                kind: GateKind::Budget,
                value: GRID_RATIO_T2_BUDGET,
                tol_pct: None,
                min_cpus: Some(GRID_RATIO_T2_MIN_CPUS),
            },
            Suite::Grid if name == "grid_ratio_t8" => Metric {
                kind: GateKind::Budget,
                value: GRID_RATIO_T8_BUDGET,
                tol_pct: None,
                min_cpus: Some(GRID_RATIO_T8_MIN_CPUS),
            },
            Suite::Grid if name == "stream_overhead_pct" => Metric {
                // Per-record flushes vs one buffered write: the summary
                // stream must stay nearly free, on any machine.
                kind: GateKind::Budget,
                value: STREAM_OVERHEAD_BUDGET_PCT,
                tol_pct: None,
                min_cpus: None,
            },
            Suite::Grid => Metric {
                // Whole-grid throughput floors: multi-second aggregates
                // over dozens of campaigns, but still CPU-steal exposed —
                // gate a collapse, not a wobble.
                kind: GateKind::Floor,
                value,
                tol_pct: Some(50.0),
                min_cpus: None,
            },
        }
    }
}

fn cpu_count() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

fn short_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn today() -> String {
    // Days since the Unix epoch -> civil date (Howard Hinnant's algorithm);
    // enough calendar for a baseline stamp without a date dependency.
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = secs as i64 / 86_400 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_gate [--suite obs|scale|grid] [--baseline <path>] [--tolerance <pct>] [--quick] [--json]\n\
         \x20      bench_gate --update-baseline [--suite obs|scale|grid] [--baseline <path>] [--quick]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (_, pool_source) = alperf_bench::threads_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut suite = Suite::Obs;
    let mut baseline_path: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut quick = false;
    let mut as_json = false;
    let mut update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => match it.next().map(String::as_str) {
                Some("obs") => suite = Suite::Obs,
                Some("scale") => suite = Suite::Scale,
                Some("grid") => suite = Suite::Grid,
                _ => return usage(),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => return usage(),
            },
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => tolerance = pct / 100.0,
                _ => return usage(),
            },
            "--quick" => quick = true,
            "--json" => as_json = true,
            "--update-baseline" => update = true,
            _ => return usage(),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| suite.default_baseline().to_string());

    if update {
        let machine = Machine {
            cpus: cpu_count(),
            commit: short_commit(),
            threads: Some(alperf_linalg::threads::current() as u64),
            pool: Some(pool_source.to_string()),
        };
        let metrics: Vec<(&str, Metric)> = suite
            .measure(quick)
            .into_iter()
            .map(|(name, value)| (name, suite.baseline_metric(name, value)))
            .collect();
        let text = render_baseline(suite.bench_name(), &today(), &machine, quick, &metrics);
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("bench_gate: cannot write {baseline_path}: {e}");
            return ExitCode::from(2);
        }
        print!("{text}");
        eprintln!("[wrote {baseline_path}]");
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_gate: {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("bench_gate: cannot read {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let current: BTreeMap<String, f64> = suite
        .measure(quick)
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    let threads = alperf_linalg::threads::current() as u64;
    let outcomes = evaluate(&baseline, &current, tolerance, cpu_count(), threads, quick);

    if as_json {
        print!("{}", render_json(&outcomes, tolerance));
    } else {
        let recorded_pool = match (baseline.machine.threads, &baseline.machine.pool) {
            (Some(t), Some(p)) => format!(", threads={t} ({p})"),
            (Some(t), None) => format!(", threads={t}"),
            _ => String::new(),
        };
        println!(
            "gate: {} vs {baseline_path} (recorded at {} on {} cpus{recorded_pool}, quick={})",
            baseline.bench, baseline.machine.commit, baseline.machine.cpus, baseline.quick
        );
        print!("{}", render_table(&outcomes));
        let skipped = outcomes
            .iter()
            .filter(|o| o.status == GateStatus::Skipped)
            .count();
        if skipped > 0 {
            println!(
                "({skipped} absolute-time gate(s) skipped on incomparable hardware/mode; \
                 refresh with: bench_gate --update-baseline)"
            );
        }
    }
    if any_failed(&outcomes) {
        eprintln!("bench_gate: FAIL — hot-path regression against {baseline_path}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
