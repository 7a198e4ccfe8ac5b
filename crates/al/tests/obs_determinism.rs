//! Determinism guard: telemetry must be strictly observational.
//!
//! Runs the same small AL experiment with telemetry off and then fully on
//! (global switch + JSONL trace sink), same seed, and requires the
//! *bit-identical* histories — RMSE/AMSD/sigma_f traces,
//! selected-candidate sequence, costs, LML, noise — via
//! `IterationRecord`'s `PartialEq`. The trace must also time
//! each runner stage once: every `al.iteration` record's stage times are
//! the durations its stage spans recorded.
//! This is the contract that lets instrumentation live inside the hot
//! numeric paths: a telemetry-on run may only be slower, never different.
//!
//! Lives in its own integration-test binary because it flips the global
//! telemetry switch; unit tests in the same process would race it.

use alperf_al::runner::{run_al, AlConfig, AlRun};
use alperf_al::strategy::VarianceReduction;
use alperf_data::partition::Partition;
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_linalg::matrix::Matrix;
use alperf_obs::event::Event;
use alperf_obs::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
    let y: Vec<f64> = xs
        .iter()
        .map(|v| v.sin() * 2.0 + rng.gen_range(-0.15..0.15))
        .collect();
    let cost: Vec<f64> = xs.iter().map(|v| 1.0 + v * v).collect();
    (Matrix::from_vec(n, 1, xs).unwrap(), y, cost)
}

fn run_once() -> AlRun {
    let (x, y, cost) = dataset(40, 11);
    let part = Partition::random(40, 2, 0.8, 5);
    let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(7);
    let cfg = AlConfig {
        max_iters: 12,
        seed: 3,
        ..AlConfig::new(gpr)
    };
    run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap()
}

/// Check that every `al.iteration` record's `fit_ns`/`predict_ns`/
/// `select_ns` equal the `dur_ns` of its iteration's
/// `al.iteration.{fit,predict,select}` spans, and return how many records
/// were checked. Stage spans are children of their iteration's
/// `al.iteration` span; within one run (delimited by `al.run_start`) the
/// k-th iteration span, in the order its fit stage closed, is iteration k.
/// The runner emits each record before its iteration span closes.
fn assert_stage_times_match_spans(text: &str) -> usize {
    let mut stages: BTreeMap<u64, [Option<u64>; 3]> = BTreeMap::new();
    let mut iterations: Vec<u64> = Vec::new();
    let mut checked = 0;
    for line in text.lines() {
        match Event::parse(line).expect("trace line parses") {
            Event::Record(r) if r.name == "al.run_start" => iterations.clear(),
            Event::Record(r) if r.name == names::AL_ITERATION => {
                let iter = r.f64("iter").expect("iter") as usize;
                let parent = iterations[iter];
                for (slot, key) in ["fit_ns", "predict_ns", "select_ns"].iter().enumerate() {
                    let span_ns = stages[&parent][slot].expect("stage span closed");
                    assert_eq!(
                        r.f64(key),
                        Some(span_ns as f64),
                        "iteration {iter}: record {key} differs from its span's dur_ns"
                    );
                }
                checked += 1;
            }
            Event::Span(s) => {
                let slot = match s.name.as_str() {
                    "al.iteration.fit" => 0,
                    "al.iteration.predict" => 1,
                    "al.iteration.select" => 2,
                    _ => continue,
                };
                let parent = s.parent_id.expect("stage span has an al.iteration parent");
                if slot == 0 {
                    iterations.push(parent);
                }
                stages.entry(parent).or_default()[slot] = Some(s.dur_ns);
            }
            _ => {}
        }
    }
    checked
}

// One #[test] only: the global telemetry switch is process-wide, and the
// default multi-threaded test runner would race two tests flipping it.
#[test]
fn telemetry_on_is_bit_identical_to_telemetry_off() {
    // Baseline: telemetry fully off.
    alperf_obs::set_enabled(false);
    let off = run_once();

    // Telemetry fully on: global switch and JSONL trace.
    let trace = std::env::temp_dir().join(format!(
        "alperf_obs_determinism_{}.jsonl",
        std::process::id()
    ));
    alperf_obs::sink::install_jsonl(&trace).unwrap();
    alperf_obs::set_enabled(true);
    let on = run_once();
    // Second telemetry-on run: run ids differ, numerics must not.
    let on2 = run_once();
    alperf_obs::set_enabled(false);
    alperf_obs::sink::uninstall();

    // Bit-identical, not approximately equal: PartialEq on f64 fields.
    assert_eq!(off.history, on.history);
    assert_eq!(off.final_train, on.final_train);
    let off_rows: Vec<usize> = off.history.iter().map(|r| r.chosen_row).collect();
    let on_rows: Vec<usize> = on.history.iter().map(|r| r.chosen_row).collect();
    assert_eq!(off_rows, on_rows, "selected-candidate sequence diverged");

    assert_eq!(on.history, on2.history, "telemetry-on runs diverged");

    // The telemetry-on runs wrote one al.iteration record per iteration.
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    let records = [&on, &on2]
        .iter()
        .map(|run| run.history.len())
        .sum::<usize>();
    let iteration_records = text
        .lines()
        .map(|l| Event::parse(l).expect("trace line parses"))
        .filter(|e| matches!(e, Event::Record(r) if r.name == names::AL_ITERATION))
        .count();
    assert_eq!(
        iteration_records, records,
        "one al.iteration record per iteration"
    );

    // Each stage is timed once: the record fields are the span durations,
    // on every telemetry-on run.
    assert_eq!(
        assert_stage_times_match_spans(&text),
        records,
        "every al.iteration record checked against its stage spans"
    );
}
