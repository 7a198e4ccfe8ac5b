//! End-to-end determinism: a 64-config grid with a 20% fault rate must
//! produce **byte-identical** summary files regardless of worker width
//! (1/2/8) or a kill-and-resume cycle mid-grid.

use alperf_grid::exec::{run_grid, ExecConfig};
use alperf_grid::spec::{GridSpec, KernelKind, StrategyKind};
use alperf_linalg::threads;
use std::fs;
use std::path::PathBuf;

/// 2 strategies × 2 kernels × 2 noises × 2 batches × 4 seeds = 64
/// configs, every one under a 20% fault rate so the degraded paths are
/// exercised, with rows/iters small enough to keep the suite quick.
fn spec64() -> GridSpec {
    GridSpec {
        name: "det64".into(),
        base_seed: 7,
        rows: 16,
        iters: 4,
        strategies: vec![StrategyKind::VarianceReduction, StrategyKind::Random],
        kernels: vec![KernelKind::Se, KernelKind::Matern52],
        noises: vec![0.1, 0.4],
        batches: vec![1, 2],
        fault_rates: vec![0.2],
        seeds: (0..4).collect(),
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("alperf-grid-determinism");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_at(width: usize, path: &PathBuf) -> String {
    let exec = ExecConfig::default();
    let report = threads::with_threads(width, || run_grid(&spec64(), path, &exec)).unwrap();
    assert_eq!(report.n_configs, 64);
    assert_eq!(report.executed, 64);
    assert_eq!(report.errors, 0, "campaigns errored");
    assert!(
        report.degraded > 0,
        "fault rate 0.2 should degrade some campaigns"
    );
    fs::read_to_string(path).unwrap()
}

#[test]
fn byte_identical_across_widths() {
    let reference = run_at(1, &tmp("w1.jsonl"));
    assert_eq!(reference.lines().count(), 65, "meta line + 64 records");
    for (name, width) in [("w2.jsonl", 2), ("w8.jsonl", 8)] {
        let got = run_at(width, &tmp(name));
        assert_eq!(got, reference, "summary bytes diverged at width {width}");
    }
}

#[test]
fn kill_and_resume_reproduces_the_same_bytes() {
    let reference = run_at(1, &tmp("resume-ref.jsonl"));

    // Simulate a kill mid-grid: keep the meta line + the first 20
    // records, plus a torn 21st record (half its bytes, no newline).
    let lines: Vec<&str> = reference.lines().collect();
    let mut partial = lines[..21].join("\n");
    partial.push('\n');
    partial.push_str(&lines[21][..lines[21].len() / 2]);
    let path = tmp("resume-killed.jsonl");
    fs::write(&path, &partial).unwrap();

    let exec = ExecConfig {
        resume: true,
        ..ExecConfig::default()
    };
    let report = threads::with_threads(2, || run_grid(&spec64(), &path, &exec)).unwrap();
    assert_eq!(report.skipped, 20, "valid prefix should be kept");
    assert_eq!(report.executed, 44, "only the remainder re-runs");
    assert_eq!(
        fs::read_to_string(&path).unwrap(),
        reference,
        "resumed bytes diverged from the uninterrupted run"
    );
}

#[test]
fn resume_onto_a_complete_file_is_a_no_op() {
    let path = tmp("resume-done.jsonl");
    let reference = run_at(2, &path);
    let exec = ExecConfig {
        resume: true,
        ..ExecConfig::default()
    };
    let report = run_grid(&spec64(), &path, &exec).unwrap();
    assert_eq!(report.skipped, 64);
    assert_eq!(report.executed, 0);
    assert_eq!(fs::read_to_string(&path).unwrap(), reference);
}

#[test]
fn resume_rejects_a_different_grid() {
    let path = tmp("resume-mismatch.jsonl");
    run_at(1, &path);
    let mut other = spec64();
    other.base_seed = 8;
    let exec = ExecConfig {
        resume: true,
        ..ExecConfig::default()
    };
    let err = run_grid(&other, &path, &exec).unwrap_err();
    assert!(
        err.to_string().contains("different grid"),
        "unexpected error: {err}"
    );
}
