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

use alperf_al::batch::select_batch;
use alperf_al::runner::test_rmse;
use alperf_bench::{banner, load_datasets, write_series};
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::partition::Partition;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;

const ROUNDS: usize = 8;
const Q: usize = 4;
const REPS: usize = 6;

fn problem() -> (Matrix, Vec<f64>) {
    let data = load_datasets();
    let sub = data
        .performance
        .fix_level("Operator", "poisson1")
        .expect("operator")
        .fix_variable("NP", 32.0)
        .expect("NP");
    let sizes = &sub.variable("Global Problem Size").expect("size").values;
    let freqs = &sub.variable("CPU Frequency").expect("freq").values;
    let y: Vec<f64> = sub
        .response("Runtime")
        .expect("runtime")
        .iter()
        .map(|v| v.log10())
        .collect();
    let n = sub.n_rows();
    let mut flat = Vec::with_capacity(2 * n);
    for i in 0..n {
        flat.push(sizes[i].log10());
        flat.push(freqs[i]);
    }
    (Matrix::from_vec(n, 2, flat).expect("matrix"), y)
}

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

/// Run `ROUNDS` rounds of `Q` experiments; returns RMSE after each round.
fn run(mode: Mode, x: &Matrix, y: &[f64], part: &Partition, seed: u64) -> Vec<f64> {
    let mut train = part.initial.clone();
    let mut pool = part.active.clone();
    let mut rmses = Vec::new();
    for round in 0..ROUNDS {
        let xs = x.select_rows(&train);
        let ys: Vec<f64> = train.iter().map(|&i| y[i]).collect();
        let (model, _) = fit_gpr(&xs, &ys, &gpr_cfg(seed + round as u64)).expect("fit");
        let picks: Vec<usize> = match mode {
            Mode::BatchFantasy => select_batch(&model, x, &train, &ys, &pool, Q).expect("batch"),
            Mode::BatchNaive => {
                let mut scored: Vec<(usize, f64)> = pool
                    .iter()
                    .enumerate()
                    .map(|(pos, &row)| {
                        (pos, model.predict_one(x.row(row)).expect("prediction").std)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                scored.iter().take(Q).map(|&(pos, _)| pos).collect()
            }
            Mode::Sequential => {
                // One at a time with refits inside the round — the
                // full-feedback ceiling at equal experiment count.
                let mut inner_train = train.clone();
                let mut inner_pool = pool.clone();
                let mut chosen_rows = Vec::new();
                for k in 0..Q.min(inner_pool.len()) {
                    let xs = x.select_rows(&inner_train);
                    let ys: Vec<f64> = inner_train.iter().map(|&i| y[i]).collect();
                    let (m, _) =
                        fit_gpr(&xs, &ys, &gpr_cfg(seed + round as u64 + k as u64)).expect("fit");
                    let (pos, _) = inner_pool
                        .iter()
                        .enumerate()
                        .map(|(pos, &row)| {
                            (pos, m.predict_one(x.row(row)).expect("prediction").std)
                        })
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                        .expect("non-empty pool");
                    let row = inner_pool.swap_remove(pos);
                    chosen_rows.push(row);
                    inner_train.push(row);
                }
                // Map back to positions in the outer pool.
                chosen_rows
                    .iter()
                    .map(|row| pool.iter().position(|r| r == row).expect("row in pool"))
                    .collect()
            }
        };
        // "Run" the q experiments (descending positions keeps indices valid).
        let mut positions = picks;
        positions.sort_unstable_by(|a, b| b.cmp(a));
        for pos in positions {
            let row = pool.swap_remove(pos);
            train.push(row);
        }
        // Evaluate after the round.
        let xs = x.select_rows(&train);
        let ys: Vec<f64> = train.iter().map(|&i| y[i]).collect();
        let (m, _) = fit_gpr(&xs, &ys, &gpr_cfg(seed + 991)).expect("fit");
        rmses.push(test_rmse(&m, x, y, &part.test));
    }
    rmses
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let (x, y) = problem();
    banner(&format!(
        "X3: batch AL — {ROUNDS} rounds x q={Q}, averaged over {REPS} partitions"
    ));
    let mut avg = [vec![0.0; ROUNDS], vec![0.0; ROUNDS], vec![0.0; ROUNDS]];
    for rep in 0..REPS {
        let part = Partition::paper_default(x.nrows(), 5000 + rep as u64);
        for (mi, mode) in [Mode::Sequential, Mode::BatchFantasy, Mode::BatchNaive]
            .into_iter()
            .enumerate()
        {
            let rmse = run(mode, &x, &y, &part, rep as u64 * 37);
            for (a, r) in avg[mi].iter_mut().zip(&rmse) {
                *a += r / REPS as f64;
            }
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
