//! Tests of the benchmark's own code: tracing must not change what a
//! workload computes, the traced counts must repeat exactly, and the
//! re-optimize/extend classifier must follow the loop's refit schedule.
//! (The tail rule is tested beside it, in `src/stats.rs`.)

use alperf_perfbench::gridload;
use alperf_perfbench::paper::{self, Figure, Slice};
use alperf_perfbench::pass::Pass;
use std::time::Instant;

const SEED: u64 = 7;

/// Every third row of the focus slice: enough rows for Fig. 8's schedule
/// to leave the always-optimize regime (n ≤ 30), few enough to run fast.
fn small_slice() -> Slice {
    let full = paper::setup(SEED).expect("set-up").slice;
    let rows: Vec<usize> = (0..full.y.len()).step_by(3).collect();
    Slice {
        x: full.x.select_rows(&rows),
        y: rows.iter().map(|&i| full.y[i]).collect(),
        runtime: rows.iter().map(|&i| full.runtime[i]).collect(),
    }
}

fn pass(figure: Figure, slice: &Slice, traced: bool) -> Pass {
    paper::run_pass(figure, slice, SEED, 1, traced, &mut || Ok(())).expect("pass")
}

#[test]
fn traced_and_untraced_trajectories_are_bit_identical() {
    let slice = small_slice();
    for figure in [Figure::Fig7, Figure::Fig8] {
        let plain = pass(figure, &slice, false);
        let traced = pass(figure, &slice, true);
        assert_eq!(plain.digests, traced.digests, "{figure:?}");
        assert_eq!(
            plain.rmse_mean().to_bits(),
            traced.rmse_mean().to_bits(),
            "{figure:?}"
        );
        assert!(plain.spans.is_empty() && plain.samples.iter().all(|s| s.lml_evals == 0));
        assert!(!traced.spans.is_empty() && !traced.probes.is_empty());
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    let slice = small_slice();
    for figure in [Figure::Fig7, Figure::Fig8] {
        let counts = |p: &Pass| -> Vec<(u64, bool, bool)> {
            p.samples
                .iter()
                .map(|s| (s.lml_evals, s.reopt, s.at_floor))
                .collect()
        };
        let a = pass(figure, &slice, true);
        let b = pass(figure, &slice, true);
        assert_eq!(counts(&a), counts(&b), "{figure:?}");
        assert!(a.samples.iter().any(|s| s.lml_evals > 0), "{figure:?}");
    }
}

#[test]
fn reopt_classifier_follows_the_refit_schedule() {
    let slice = small_slice();
    let p = pass(Figure::Fig8, &slice, true);
    // Fig. 8 runs with `refit_every = 4` from one initial row; the runner
    // re-optimizes on the first iteration, while the training set has at
    // most 30 rows, and on every 4th iteration.
    let per_campaign = p.samples.len() / 2;
    assert!(per_campaign > 40, "too few iterations to leave n <= 30");
    for campaign in p.samples.chunks(per_campaign) {
        for (iter, s) in campaign.iter().enumerate() {
            let train = 1 + iter;
            let expected = iter == 0 || train <= 30 || iter % 4 == 0;
            assert_eq!(s.reopt, expected, "iteration {iter}");
            assert_eq!(s.reopt, s.lml_evals > 0, "iteration {iter}");
        }
    }
}

#[test]
fn grid_replica_matches_the_grid_campaign() {
    let configs = gridload::spec(SEED, 0)
        .canonicalize()
        .and_then(|s| s.expand())
        .expect("spec");
    // Every kernel, noise and fault rate, for each strategy.
    for cfg in configs.iter().step_by(7).take(16) {
        let program = alperf_grid::campaign::run_campaign(cfg);
        let replica = gridload::run_replica(cfg, Instant::now(), 0).expect("replica");
        assert_eq!(program.rmse, replica.run.rmse_series(), "{}", cfg.key());
        assert_eq!(program.amsd, replica.run.amsd_series(), "{}", cfg.key());
        assert_eq!(program.degraded, replica.run.lost.len(), "{}", cfg.key());
    }
}
