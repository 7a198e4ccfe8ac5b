//! Reproduction of **Fig. 1** (raw 3-D subsets) and **Fig. 2** (the same
//! subsets with log-transformed responses).
//!
//! The paper fixes Operator = poisson1, selects several NP levels, and
//! scatter-plots (Global Problem Size, CPU Frequency) against Runtime
//! (Performance dataset) and Energy (Power dataset). This binary emits the
//! same point sets — raw and log-transformed — as CSV series and prints
//! summary checks of the two observations the figures support:
//!
//! 1. the Power dataset is visibly noisier than the Performance dataset;
//! 2. after the log transform, Runtime grows *linearly* along log problem
//!    size (Fig. 2a), which is what makes GPR modeling effective.

use alperf_bench::{banner, load_datasets, write_series};
use alperf_data::dataset::DataSet;
use alperf_linalg::stats;

const NP_SHOWN: [f64; 3] = [1.0, 8.0, 64.0];

fn emit_subset(data: &DataSet, response: &str, tag: &str) {
    let mut sizes = Vec::new();
    let mut freqs = Vec::new();
    let mut nps = Vec::new();
    let mut resp = Vec::new();
    let mut log_sizes = Vec::new();
    let mut log_resp = Vec::new();
    for &np in &NP_SHOWN {
        let sub = data
            .fix_level("Operator", "poisson1")
            .expect("operator column")
            .fix_variable("NP", np)
            .expect("NP column");
        let size = &sub.variable("Global Problem Size").expect("size").values;
        let freq = &sub.variable("CPU Frequency").expect("freq").values;
        let r = sub.response(response).expect("response");
        for i in 0..sub.n_rows() {
            sizes.push(size[i]);
            freqs.push(freq[i]);
            nps.push(np);
            resp.push(r[i]);
            log_sizes.push(size[i].log10());
            log_resp.push(r[i].log10());
        }
    }
    write_series(
        &format!("fig1_{tag}"),
        &[
            ("np", &nps),
            ("size", &sizes),
            ("freq", &freqs),
            (response, &resp),
        ],
    );
    write_series(
        &format!("fig2_{tag}"),
        &[
            ("np", &nps),
            ("log10_size", &log_sizes),
            ("freq", &freqs),
            (&format!("log10_{response}"), &log_resp),
        ],
    );
    println!("{tag}: {} points over NP in {:?}", sizes.len(), NP_SHOWN);
}

/// Mean per-setting relative spread of a response (repeat noise).
fn repeat_noise(data: &DataSet, response: &str) -> f64 {
    let vars = ["Operator", "Global Problem Size", "NP", "CPU Frequency"];
    let groups = data.group_by_settings(&vars).expect("grouping");
    let col = data.response(response).expect("response");
    let spreads: Vec<f64> = groups
        .iter()
        .filter(|(_, rows)| rows.len() >= 2)
        .map(|(_, rows)| {
            let vals: Vec<f64> = rows.iter().map(|&i| col[i]).collect();
            stats::std_dev(&vals) / stats::mean(&vals).abs().max(1e-300)
        })
        .collect();
    stats::mean(&spreads)
}

/// Slope of log10(runtime) vs log10(size) at fixed NP and frequency.
fn loglog_slope(data: &DataSet) -> f64 {
    let sub = data
        .fix_level("Operator", "poisson1")
        .expect("operator")
        .fix_variable("NP", 1.0)
        .expect("NP")
        .fix_variable("CPU Frequency", 2.4)
        .expect("freq");
    let size = &sub.variable("Global Problem Size").expect("size").values;
    let rt = sub.response("Runtime").expect("runtime");
    // Least-squares slope on the upper decades where overhead is negligible.
    let pts: Vec<(f64, f64)> = size
        .iter()
        .zip(rt)
        .filter(|(s, _)| **s > 1e6)
        .map(|(s, r)| (s.log10(), r.log10()))
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

fn main() {
    let _obs = alperf_bench::obs_from_env();
    let data = load_datasets();
    banner("Fig. 1 / Fig. 2: dataset subsets (poisson1; NP in {1, 8, 64})");
    emit_subset(&data.performance, "Runtime", "performance_runtime");
    emit_subset(&data.power, "Energy", "power_energy");

    banner("Observation 1: Power dataset is much noisier (Fig. 1)");
    let perf_noise = repeat_noise(&data.performance, "Runtime");
    let power_noise = repeat_noise(&data.power, "Energy");
    println!("mean per-setting relative spread, Runtime (Performance): {perf_noise:.4}");
    println!("mean per-setting relative spread, Energy   (Power):      {power_noise:.4}");
    println!(
        "ratio: {:.1}x  (paper: 'the variance in the Power dataset is much higher')",
        power_noise / perf_noise
    );

    banner("Observation 2: linear growth in log-log space (Fig. 2a)");
    let slope = loglog_slope(&data.performance);
    println!("log10(Runtime) vs log10(Size) slope at NP=1, f=2.4: {slope:.3}");
    println!("(paper: 'the plot confirms the linear growth of Runtime along the problem size dimension'; FMG is O(N), slope ~ 1)");
}
