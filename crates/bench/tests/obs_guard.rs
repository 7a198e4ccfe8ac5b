//! A bin that panics still leaves a complete trace: the guard returned by
//! `obs_from_env` flushes the JSONL sink when it drops, and a panic
//! unwinding out of `main` drops it.
//!
//! Lives in its own integration-test binary because it sets a process-wide
//! environment variable and flips the global telemetry switch.

use alperf_obs::Value;

#[test]
fn guard_finishes_telemetry_when_a_panic_unwinds() {
    let dir = std::env::temp_dir().join(format!("alperf_obs_guard_{}", std::process::id()));
    let trace = dir.join("trace.jsonl");
    std::env::set_var("ALPERF_OBS_TRACE", &trace);

    let unwound = std::panic::catch_unwind(|| {
        let _obs = alperf_bench::obs_from_env();
        for iter in 0..50u64 {
            alperf_obs::record("al.iteration", &[("iter", Value::U64(iter))]);
        }
        panic!("paper check failed");
    });
    assert!(unwound.is_err());

    // Far less than the sink's buffer: without the guard's flush the file
    // would be empty.
    let read = alperf_trace::read_path(&trace).expect("trace parses after the panic");
    assert_eq!(read.records.len(), 50);
    assert_eq!(read.records.last().and_then(|r| r.f64("iter")), Some(49.0));
    std::fs::remove_dir_all(&dir).ok();
}
