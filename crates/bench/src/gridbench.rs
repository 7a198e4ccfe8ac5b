//! Campaign-grid throughput benchmark: the same deterministic grid at
//! 1/2/8 workers, plus the summary-stream overhead (streaming vs
//! buffered commits).
//!
//! Shared by the `grid_runner --bench` path and the `bench_gate --suite
//! grid` CI gate, which must measure exactly what the checked-in
//! `BENCH_grid.json` baseline recorded. Metric families:
//!
//! * `configs_per_s_t{1,2,8}` — whole-grid throughput at each worker
//!   width (`floor` gates: a collapse below the recorded throughput
//!   fails on the recording machine);
//! * `grid_ratio_t{2,8}` — multi-worker over single-worker wall time
//!   (`budget` gates guarded by `min_cpus`: vacuous on machines too
//!   small to run the workers in parallel, enforced where real);
//! * `stream_overhead_pct` — per-record streaming commits (write +
//!   flush per line) over one buffered end-of-run write, percent
//!   (`budget` gate on any machine: the pipelined summary stream must
//!   stay nearly free).
//!
//! Widths are applied with [`alperf_linalg::threads::with_threads`]
//! around the executor, which sizes its worker pool from the ambient
//! width — the same mechanism the determinism tests sweep, so the gate
//! times exactly the code path whose byte-stability they prove.

use alperf_grid::exec::{run_grid, CommitMode, ExecConfig};
use alperf_grid::spec::{GridSpec, KernelKind, StrategyKind};
use alperf_linalg::threads::with_threads;
use std::path::PathBuf;
use std::time::Instant;

/// Worker widths the throughput family is measured at.
pub const WIDTHS: [usize; 3] = [1, 2, 8];

/// Metric names for the throughput family, index-aligned with [`WIDTHS`].
pub const CONFIGS_PER_S_NAMES: [&str; 3] =
    ["configs_per_s_t1", "configs_per_s_t2", "configs_per_s_t8"];

/// Budget for `grid_ratio_t2` (2-worker / 1-worker grid wall time):
/// campaigns are embarrassingly parallel, so two real cores must beat
/// 1.25x. Gated only on machines with >= 2 CPUs.
pub const GRID_RATIO_T2_BUDGET: f64 = 0.8;
/// Minimum CPU count for the 2-worker speedup gate to be meaningful.
pub const GRID_RATIO_T2_MIN_CPUS: u64 = 2;
/// Budget for `grid_ratio_t8` (8-worker / 1-worker grid wall time).
pub const GRID_RATIO_T8_BUDGET: f64 = 0.4;
/// Minimum CPU count for the 8-worker speedup gate to be meaningful.
pub const GRID_RATIO_T8_MIN_CPUS: u64 = 8;
/// Budget for `stream_overhead_pct`: per-record flushes may cost at most
/// this much over a single buffered write of the whole summary file.
pub const STREAM_OVERHEAD_BUDGET_PCT: f64 = 10.0;

/// The benchmark grid: every strategy, two kernels, two noise levels,
/// serial and batched selection, a 20% fault rate — the shape real
/// studies sweep, sized for gate runtime.
pub fn bench_spec(quick: bool) -> GridSpec {
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

/// One full grid-throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GridBenchResult {
    /// Quick (CI smoke) sizes were used.
    pub quick: bool,
    /// Configs in the benchmark grid.
    pub n_configs: usize,
    /// Streaming-mode grid wall time at each width in [`WIDTHS`], s.
    pub grid_s: [f64; 3],
    /// Single-worker buffered-mode wall time, s (the stream-overhead
    /// reference).
    pub buffered_s: f64,
}

impl GridBenchResult {
    /// Grid throughput at `WIDTHS[i]`, configs per second.
    pub fn configs_per_s(&self, i: usize) -> f64 {
        self.n_configs as f64 / self.grid_s[i]
    }

    /// 2-worker over 1-worker wall time (lower is better).
    pub fn grid_ratio_t2(&self) -> f64 {
        self.grid_s[1] / self.grid_s[0]
    }

    /// 8-worker over 1-worker wall time (lower is better).
    pub fn grid_ratio_t8(&self) -> f64 {
        self.grid_s[2] / self.grid_s[0]
    }

    /// Streaming-commit cost over buffered, percent (may be negative in
    /// the noise; the budget gate only caps the upside).
    pub fn stream_overhead_pct(&self) -> f64 {
        (self.grid_s[0] - self.buffered_s) / self.buffered_s * 100.0
    }

    /// The metrics the `bench_gate` baseline gates on, by stable name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::with_capacity(6);
        for (i, name) in CONFIGS_PER_S_NAMES.iter().enumerate() {
            out.push((*name, self.configs_per_s(i)));
        }
        out.push(("grid_ratio_t2", self.grid_ratio_t2()));
        out.push(("grid_ratio_t8", self.grid_ratio_t8()));
        out.push(("stream_overhead_pct", self.stream_overhead_pct()));
        out
    }
}

fn bench_out(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("alperf-grid-bench");
    std::fs::create_dir_all(&dir).expect("create grid bench dir");
    dir.join(name)
}

/// Run the full grid-throughput measurement. Every run executes the
/// identical grid (same bytes out — the determinism contract), so wall
/// times are comparable across widths and modes. Each configuration is
/// timed best-of-`reps`: the stream-overhead metric is a *difference*
/// of two short runs, where single-shot scheduler noise would dwarf the
/// per-line flush cost being measured.
pub fn measure(quick: bool) -> GridBenchResult {
    let spec = bench_spec(quick);
    let reps = if quick { 2 } else { 3 };
    let best_s = |f: &dyn Fn()| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best.max(1e-9)
    };
    let mut grid_s = [0.0; 3];
    for (i, &w) in WIDTHS.iter().enumerate() {
        let out = bench_out(&format!("grid_t{w}.jsonl"));
        grid_s[i] = best_s(&|| {
            with_threads(w, || run_grid(&spec, &out, &ExecConfig::default()))
                .expect("bench grid must run");
        });
    }
    let n_configs = spec.expand().expect("bench spec must expand").len();
    let out = bench_out("grid_buffered.jsonl");
    let exec = ExecConfig {
        mode: CommitMode::Buffered,
        ..ExecConfig::default()
    };
    let buffered_s = best_s(&|| {
        with_threads(1, || run_grid(&spec, &out, &exec)).expect("bench grid must run");
    });

    GridBenchResult {
        quick,
        n_configs,
        grid_s,
        buffered_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_aligned_and_unique() {
        let r = GridBenchResult {
            quick: true,
            n_configs: 48,
            grid_s: [4.0, 2.0, 1.0],
            buffered_s: 3.9,
        };
        let metrics = r.metrics();
        assert_eq!(metrics.len(), 6);
        let names: std::collections::BTreeSet<_> = metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 6, "duplicate metric name");
        assert!((r.configs_per_s(0) - 12.0).abs() < 1e-12);
        assert!((r.grid_ratio_t2() - 0.5).abs() < 1e-12);
        assert!((r.grid_ratio_t8() - 0.25).abs() < 1e-12);
        assert!(r.stream_overhead_pct() > 0.0);
        for (i, name) in CONFIGS_PER_S_NAMES.iter().enumerate() {
            assert!(name.ends_with(&format!("_t{}", WIDTHS[i])));
        }
    }

    #[test]
    fn bench_specs_expand_to_the_documented_sizes() {
        assert_eq!(bench_spec(true).expand().unwrap().len(), 24);
        assert_eq!(bench_spec(false).expand().unwrap().len(), 48);
    }
}
