//! Every binary that holds an `ObsGuard` honours `ALPERF_NUM_THREADS`:
//! `obs_from_env` sizes the global pool before the run starts.
//!
//! Lives in its own integration-test binary because it sets a
//! process-wide environment variable and the pool is sized once per
//! process.

#[test]
fn obs_from_env_sizes_the_pool_from_the_environment() {
    // One more than the hardware offers, so the width cannot be the
    // unconfigured default on any machine.
    let width = std::thread::available_parallelism().map_or(1, |c| c.get()) + 1;
    std::env::set_var("ALPERF_NUM_THREADS", width.to_string());
    let _obs = alperf_bench::obs_from_env();
    assert_eq!(alperf_linalg::threads::current(), width);
}
