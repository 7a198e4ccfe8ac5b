//! Ablation **X3** — greedy batch selection with fantasy variance updates
//! (paper §VI future work: "some experiments could reasonably be run in
//! parallel which ... may indicate a less greedy selection strategy").
//!
//! Compares, at equal experiment counts, three ways of choosing q = 4
//! experiments per round on the focus slice:
//!
//! * **sequential** — the paper's one-at-a-time Variance Reduction
//!   (the quality ceiling: full feedback after every experiment);
//! * **batch-fantasy** — pick 4 via greedy fantasy-variance updates, then
//!   run all 4 in parallel (one scheduling round);
//! * **batch-naive** — pick the top-4 by current variance (no fantasy
//!   updates), the strawman that clusters its picks.
//!
//! All three arms are the one AL loop (`alperf_al::runner`) under the
//! paper's refit policy, at `batch` 1, 4 and 4.

use alperf_al::runner::{run_al, AlConfig};
use alperf_al::strategy::{SelectionContext, Strategy, VarianceReduction};
use alperf_bench::{banner, focus_slice, write_series, FocusSlice};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads::replicates;
use rand::rngs::StdRng;

const ROUNDS: usize = 8;
const Q: usize = 4;
const REPS: usize = 6;

fn gpr_cfg(seed: u64) -> GprConfig {
    GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
        .with_noise_floor(NoiseFloor::recommended())
        .with_kernel_bounds(paper_kernel_bounds(2))
        .with_restarts(2)
        .with_standardize(false)
        .with_seed(seed)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Sequential,
    BatchFantasy,
    BatchNaive,
}

/// Batch-naive selection: the pool ranked once per round by the round
/// model's predictive SD, its top `Q` taken in order. The fantasy
/// predictions the runner offers for a round's later slots are ignored.
/// The arm runs at `batch = Q` on a pool far larger than the campaign, so
/// every round has exactly `Q` slots and an empty ranking marks a round's
/// first one.
#[derive(Default)]
struct NaiveTopQ {
    /// The round's unpicked top-`Q` rows, best last.
    ranked: Vec<usize>,
}

impl Strategy for NaiveTopQ {
    fn name(&self) -> &'static str {
        "batch_naive"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Option<usize> {
        if self.ranked.is_empty() {
            let p = ctx.predictions;
            let mut order: Vec<usize> = (0..ctx.pool.len()).collect();
            order.sort_by(|&a, &b| p[b].std.total_cmp(&p[a].std));
            self.ranked = order[..Q.min(order.len())]
                .iter()
                .rev()
                .map(|&pos| ctx.pool[pos])
                .collect();
        }
        let row = self.ranked.pop()?;
        ctx.pool.iter().position(|&r| r == row)
    }
}

/// One campaign of `ROUNDS` rounds of `Q` experiments through the AL
/// loop; returns the test RMSE after each round. The loop records each
/// experiment with the RMSE of the model it was picked under, so one more
/// experiment reads the RMSE after the last round.
fn run(mode: Mode, x: &Matrix, y: &[f64], part: &Partition, seed: u64) -> Vec<f64> {
    let cost = vec![1.0; y.len()];
    let cfg = AlConfig {
        max_iters: ROUNDS * Q + 1,
        batch: if mode == Mode::Sequential { 1 } else { Q },
        seed,
        ..AlConfig::new(gpr_cfg(seed))
    };
    let history = match mode {
        Mode::BatchNaive => run_al(x, y, &cost, part, &mut NaiveTopQ::default(), &cfg),
        _ => run_al(x, y, &cost, part, &mut VarianceReduction, &cfg),
    }
    .expect("AL run")
    .history;
    (1..=ROUNDS).map(|r| history[r * Q].rmse).collect()
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let FocusSlice { x, y, .. } = focus_slice();
    banner(&format!(
        "X3: batch AL — {ROUNDS} rounds x q={Q}, averaged over {REPS} partitions"
    ));
    // One unit per (partition, mode), partition-major; the averages add up
    // in that order.
    let modes = [Mode::Sequential, Mode::BatchFantasy, Mode::BatchNaive];
    let units = replicates(REPS * modes.len(), |u| {
        let rep = u / modes.len();
        let part = Partition::paper_default(x.nrows(), 5000 + rep as u64);
        run(modes[u % modes.len()], &x, &y, &part, rep as u64 * 37)
    });
    let mut avg = [vec![0.0; ROUNDS], vec![0.0; ROUNDS], vec![0.0; ROUNDS]];
    for (u, rmse) in units.iter().enumerate() {
        for (a, r) in avg[u % modes.len()].iter_mut().zip(rmse) {
            *a += r / REPS as f64;
        }
    }
    println!("\nexperiments  sequential  batch-fantasy  batch-naive");
    let counts: Vec<f64> = (0..ROUNDS).map(|r| ((r + 1) * Q) as f64 + 1.0).collect();
    for r in 0..ROUNDS {
        println!(
            "{:>11} {:>11.4} {:>14.4} {:>12.4}",
            counts[r], avg[0][r], avg[1][r], avg[2][r]
        );
    }
    write_series(
        "ablation_batch_rmse",
        &[
            ("experiments", &counts),
            ("sequential", &avg[0]),
            ("batch_fantasy", &avg[1]),
            ("batch_naive", &avg[2]),
        ],
    );
    let last = ROUNDS - 1;
    let (s, f, n) = (avg[0][last], avg[1][last], avg[2][last]);
    let rel = |a: f64, b: f64| if a <= b { "<=" } else { ">" };
    let holds = s <= f && f <= n;
    println!(
        "\nfinal RMSE: sequential {s:.4} {} batch-fantasy {f:.4} {} batch-naive {n:.4}",
        rel(s, f),
        rel(f, n)
    );
    println!(
        "expected ordering sequential <= batch-fantasy <= batch-naive: {}",
        if holds { "holds" } else { "does not hold" }
    );
    println!("(fantasy updates recover most of the sequential quality while allowing q-way parallel scheduling — the paper's §VI direction)");
}
