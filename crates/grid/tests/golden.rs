//! Golden fixtures for the grid pipeline.
//!
//! * `small_grid.jsonl` is an `alperf-grid-v1` summary file (an
//!   18-campaign grid: 3 strategies × 2 noise levels × 3 replicate seeds
//!   under a 20% fault rate, SE kernel). It must parse and produce
//!   byte-identical leaderboard, significance, and claims renderings, so
//!   any change to the summary reader, the ranking layer, or the bootstrap
//!   that alters bytes shows up here.
//! * `small_kernels.jsonl` runs the same kind of grid over the Matérn-3/2,
//!   Matérn-5/2 and rational-quadratic kernels.
//! * Both specs are re-run and compared byte for byte with their fixtures,
//!   so every campaign trajectory (`traj`, RMSE, cost, failures) is pinned:
//!   a change anywhere in the fit, the AL loop or the oracle that moves a
//!   single float shows up here.
//!
//! Regenerate after an *intentional* change with
//! `cargo test -p alperf-grid --test golden -- --ignored regenerate`
//! and review the fixture diff like any other golden update.

use alperf_grid::exec::{run_grid, ExecConfig};
use alperf_grid::rank::{
    leaderboards, render_claims, render_leaderboards, render_significance, significance, RankConfig,
};
use alperf_grid::spec::{GridSpec, KernelKind, StrategyKind};
use alperf_grid::summary::{parse_summaries, SummaryFile};
use std::path::{Path, PathBuf};

fn golden_spec() -> GridSpec {
    GridSpec {
        name: "golden".into(),
        base_seed: 11,
        rows: 16,
        iters: 4,
        strategies: vec![
            StrategyKind::VarianceReduction,
            StrategyKind::CostEfficiency,
            StrategyKind::Random,
        ],
        noises: vec![0.1, 0.4],
        fault_rates: vec![0.2],
        seeds: (0..3).collect(),
        ..GridSpec::default()
    }
}

/// The Matérn-3/2, Matérn-5/2 and rational-quadratic counterpart of
/// [`golden_spec`]: 3 kernels × 2 strategies × 2 noise levels × 2 seeds.
fn kernels_spec() -> GridSpec {
    GridSpec {
        name: "golden_kernels".into(),
        base_seed: 23,
        rows: 16,
        iters: 4,
        strategies: vec![StrategyKind::VarianceReduction, StrategyKind::Random],
        kernels: vec![
            KernelKind::Matern32,
            KernelKind::Matern52,
            KernelKind::RationalQuadratic,
        ],
        noises: vec![0.1, 0.4],
        fault_rates: vec![0.2],
        seeds: (0..2).collect(),
        ..GridSpec::default()
    }
}

/// The checked-in fixture of each re-run spec.
fn rerun_specs() -> [(GridSpec, &'static str); 2] {
    [
        (golden_spec(), "small_grid.jsonl"),
        (kernels_spec(), "small_kernels.jsonl"),
    ]
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture() -> SummaryFile {
    let text = std::fs::read_to_string(fixture_dir().join("small_grid.jsonl"))
        .expect("fixture must exist");
    parse_summaries(&text).expect("golden fixture must parse")
}

#[test]
fn golden_summary_parses() {
    let s = fixture();
    assert_eq!(s.grid, "golden");
    assert_eq!(s.n_configs, 18);
    assert_eq!(s.records.len(), 18);
    assert!(s.records.iter().all(|r| r.status == "ok"));
    assert!(s.records.iter().any(|r| r.degraded > 0));
    // Paired design: all strategies in a slice share replicate seeds.
    let slices: std::collections::BTreeSet<&str> =
        s.records.iter().map(|r| r.slice.as_str()).collect();
    assert_eq!(slices.len(), 2, "two noise levels, one slice each");
}

#[test]
fn golden_leaderboard_is_byte_stable() {
    let s = fixture();
    assert_eq!(
        render_leaderboards(&leaderboards(&s.records)),
        include_str!("fixtures/small_grid.leaderboard"),
        "leaderboard bytes drifted from the checked-in golden file"
    );
}

#[test]
fn golden_significance_is_byte_stable() {
    let s = fixture();
    let verdicts = significance(&s.records, &RankConfig::default());
    assert_eq!(verdicts.len(), 6, "C(3,2) pairs x 2 slices");
    assert_eq!(
        render_significance(&verdicts),
        include_str!("fixtures/small_grid.significance"),
        "significance bytes drifted from the checked-in golden file"
    );
    assert_eq!(
        render_claims(&verdicts, "random"),
        include_str!("fixtures/small_grid.claims"),
        "claims bytes drifted from the checked-in golden file"
    );
}

#[test]
fn golden_ranking_is_record_order_blind() {
    let s = fixture();
    let mut reversed = s.records.clone();
    reversed.reverse();
    assert_eq!(
        render_leaderboards(&leaderboards(&s.records)),
        render_leaderboards(&leaderboards(&reversed))
    );
    let cfg = RankConfig::default();
    assert_eq!(
        render_significance(&significance(&s.records, &cfg)),
        render_significance(&significance(&reversed, &cfg))
    );
}

#[test]
fn rerun_specs_reproduce_their_fixtures_byte_for_byte() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_rerun");
    std::fs::create_dir_all(&dir).unwrap();
    for (spec, file) in rerun_specs() {
        let out = dir.join(file);
        let report = run_grid(&spec, &out, &ExecConfig::default()).unwrap();
        assert_eq!(report.errors, 0, "{file}");
        let got = std::fs::read_to_string(&out).unwrap();
        let want = std::fs::read_to_string(fixture_dir().join(file)).expect("fixture must exist");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{file}: line {i} drifted from the checked-in fixture");
        }
        assert_eq!(
            got, want,
            "{file}: bytes drifted from the checked-in fixture"
        );
    }
}

/// Rewrites the fixtures from a live run. Ignored: run explicitly after
/// an intentional format change, then review the diff.
#[test]
#[ignore]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (spec, file) in rerun_specs() {
        let report = run_grid(&spec, &dir.join(file), &ExecConfig::default()).unwrap();
        assert_eq!(report.errors, 0, "{file}");
    }
    let out = dir.join("small_grid.jsonl");
    let s = parse_summaries(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::write(
        dir.join("small_grid.leaderboard"),
        render_leaderboards(&leaderboards(&s.records)),
    )
    .unwrap();
    let verdicts = significance(&s.records, &RankConfig::default());
    std::fs::write(
        dir.join("small_grid.significance"),
        render_significance(&verdicts),
    )
    .unwrap();
    std::fs::write(
        dir.join("small_grid.claims"),
        render_claims(&verdicts, "random"),
    )
    .unwrap();
}
