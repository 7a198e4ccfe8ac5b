//! Criterion benches for the Active-Learning layer: the per-iteration cost
//! of pool scoring + selection for each strategy (the quantity that decides
//! whether online AL keeps up with experiment turnaround), and a complete
//! short AL run.

use alperf_al::runner::{run_al, AlConfig};
use alperf_al::strategy::{
    CostEfficiency, RandomSampling, SelectionContext, Strategy, VarianceReduction,
};
use alperf_data::partition::Partition;
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::model::{Gpr, Prediction};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn problem(n: usize) -> (Matrix, Vec<f64>, Vec<f64>) {
    let x = Matrix::from_fn(n, 1, |i, _| i as f64 * 10.0 / n as f64);
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
    let cost: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.1).collect();
    (x, y, cost)
}

fn bench_pool_scoring(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool_prediction");
    g.sample_size(30);
    for pool in [100usize, 400] {
        let (x, y, _) = problem(pool + 20);
        let train: Vec<usize> = (0..20).collect();
        let gpr = Gpr::fit(
            x.select_rows(&train),
            &y[..20],
            Box::new(SquaredExponential::unit()),
            0.1,
            true,
        )
        .expect("fit");
        let pool_rows: Vec<usize> = (20..20 + pool).collect();
        g.bench_with_input(BenchmarkId::from_parameter(pool), &gpr, |b, gpr| {
            b.iter(|| {
                pool_rows
                    .iter()
                    .map(|&i| gpr.predict_one(x.row(i)).expect("predict"))
                    .collect::<Vec<_>>()
            })
        });
    }
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let (x, y, _) = problem(220);
    let train: Vec<usize> = (0..20).collect();
    let gpr = Gpr::fit(
        x.select_rows(&train),
        &y[..20],
        Box::new(SquaredExponential::unit()),
        0.1,
        true,
    )
    .expect("fit");
    let pool: Vec<usize> = (20..220).collect();
    let preds: Vec<Prediction> = pool
        .iter()
        .map(|&i| gpr.predict_one(x.row(i)).expect("predict"))
        .collect();
    let mut g = c.benchmark_group("acquisition_argmax");
    for (name, mut strat) in [
        (
            "variance_reduction",
            Box::new(VarianceReduction) as Box<dyn Strategy>,
        ),
        ("cost_efficiency", Box::new(CostEfficiency)),
        ("random", Box::new(RandomSampling)),
    ] {
        g.bench_function(name, |b| {
            let ctx = SelectionContext {
                model: &gpr,
                x_all: &x,
                y_all: &y,
                train: &train,
                pool: &pool,
                predictions: &preds,
            };
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| strat.select(black_box(&ctx), &mut rng))
        });
    }
    g.finish();
}

fn bench_full_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("al_run_10_iters");
    g.sample_size(10);
    let (x, y, cost) = problem(80);
    let part = Partition::paper_default(80, 1);
    g.bench_function("variance_reduction", |b| {
        b.iter(|| {
            let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
                .with_noise_floor(NoiseFloor::recommended())
                .with_restarts(2);
            let cfg = AlConfig {
                max_iters: 10,
                ..AlConfig::new(gpr)
            };
            run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).expect("run")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pool_scoring, bench_selection, bench_full_run);
criterion_main!(benches);
