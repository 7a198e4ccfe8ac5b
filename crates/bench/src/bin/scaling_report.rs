//! Thread-scaling report: fit / pool-prediction / campaign wall times at
//! 1/2/4/8 rayon workers — the measurement behind the README's "Parallel
//! scaling" table and the `bench_gate --suite scale` gate (both share
//! `alperf_bench::scalebench`).
//!
//! Usage: scaling_report [--quick]

use alperf_bench::scalebench::{self, THREADS};

fn main() {
    let (width, source) = alperf_bench::threads_from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let r = scalebench::measure(quick);
    println!(
        "thread scaling (quick={quick}, n={}, m={}, restarts={}, pool={} [{source}], cpus={})",
        r.n,
        r.m,
        r.restarts,
        if width == 0 {
            "all-cores".to_string()
        } else {
            width.to_string()
        },
        std::thread::available_parallelism().map_or(1, |c| c.get()),
    );
    println!();
    println!("| threads | fit (ms) | predict_pool (ms) | campaign (ms) |");
    println!("|--------:|---------:|------------------:|--------------:|");
    for (i, t) in THREADS.iter().enumerate() {
        println!(
            "| {t} | {:.1} | {:.2} | {:.1} |",
            r.fit_ms[i], r.predict_pool_ms[i], r.campaign_ms[i]
        );
    }
    println!();
    println!(
        "predict_pool speedup @4 threads: {:.2}x (ratio {:.3}, gate budget {:.3})",
        1.0 / r.predict_pool_ratio_t4(),
        r.predict_pool_ratio_t4(),
        scalebench::PREDICT_POOL_RATIO_T4_BUDGET
    );
    // Stable-name dump for scripts (same names the gate baseline uses).
    println!();
    for (name, value) in r.metrics() {
        println!("{name} {value:.3}");
    }
}
