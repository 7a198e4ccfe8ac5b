//! Process-wide thread width and the workspace's one parallel axis.
//!
//! The unit of parallel work is a whole AL campaign: the paper's Figs. 7
//! and 8 average independent realizations, and the ablations compare
//! strategies over independent partitions. [`replicates`] fans those units
//! out, and the simulated measurement campaign fans its jobs out the same
//! way; nothing inside a unit (a fit, a solve, a committee) forks. Three
//! things size themselves from the width configured here: [`replicates`],
//! the grid executor's workers, and hpgmg's multigrid loops. This module
//! builds the global width **once** from the `ALPERF_NUM_THREADS`
//! environment variable and exposes what everything else needs:
//!
//! * [`configure_from_env`] — idempotent process-wide setup, called from
//!   bin entry points (`alperf_bench::obs_from_env` calls it);
//! * [`with_threads`] — scoped width override for in-process sweeps
//!   (the width-determinism tests, the grid's per-campaign width 1);
//! * [`replicates`] — run independent units at the width, in index order.
//!
//! `ALPERF_NUM_THREADS=0`, unset, or unparsable all mean "use all
//! available cores".

use rayon::prelude::*;
use std::sync::OnceLock;

/// Environment variable naming the global pool width. `0` or unset means
/// "all available cores".
pub const ENV_NUM_THREADS: &str = "ALPERF_NUM_THREADS";

/// How the global pool width was chosen — reported in run metadata such
/// as `grid_runner`'s banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolSource {
    /// `ALPERF_NUM_THREADS` was set to a positive integer.
    Env,
    /// Unset / zero / unparsable: the pool follows `available_parallelism`.
    Default,
}

impl PoolSource {
    /// Stable lowercase label for serialized metadata.
    pub fn label(self) -> &'static str {
        match self {
            PoolSource::Env => "env",
            PoolSource::Default => "default",
        }
    }
}

fn parse_env() -> (usize, PoolSource) {
    match std::env::var(ENV_NUM_THREADS) {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => (n, PoolSource::Env),
            _ => (0, PoolSource::Default),
        },
        Err(_) => (0, PoolSource::Default),
    }
}

fn configured() -> &'static (usize, PoolSource) {
    static CONFIGURED: OnceLock<(usize, PoolSource)> = OnceLock::new();
    CONFIGURED.get_or_init(|| {
        let (n, source) = parse_env();
        // `build_global(0)` leaves the pool at "all cores", matching the
        // pre-configuration default, so calling this unconditionally is safe.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
        (n, source)
    })
}

/// Build the global rayon pool from `ALPERF_NUM_THREADS`, once per process.
/// Subsequent calls are no-ops returning the first result. Returns the
/// configured width (`0` = all cores) and where it came from.
pub fn configure_from_env() -> (usize, PoolSource) {
    *configured()
}

/// The fan-out width parallel calls on this thread would currently use,
/// honouring scoped [`with_threads`] overrides, the global configuration,
/// and `available_parallelism`, in that order. Always ≥ 1.
pub fn current() -> usize {
    rayon::current_num_threads().max(1)
}

/// Run `f` with the pool width scoped to `n` threads on this thread
/// (restored afterwards). `0` means "all cores". Parallel regions entered
/// inside `f` — including ones on threads *spawned by* shim parallel
/// calls — see the limit via the shim's install mechanism; threads the
/// caller spawns directly see the global width instead.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("shim thread pool build is infallible");
    pool.install(f)
}

/// Run `f(0), f(1), .., f(n - 1)` as independent units of work — whole AL
/// campaigns, replicates or partitions — on up to [`current`] threads, and
/// return the results in index order. Each unit runs at nested width 1, so
/// nothing inside it forks, and the results equal a plain serial loop's at
/// every width.
pub fn replicates<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    (0..n)
        .into_par_iter()
        .map(|i| with_threads(1, || f(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_scopes_and_restores() {
        let before = current();
        let inside = with_threads(3, current);
        assert_eq!(inside, 3);
        assert_eq!(current(), before);
        // Nested scopes: innermost wins.
        let nested = with_threads(2, || with_threads(5, current));
        assert_eq!(nested, 5);
    }

    #[test]
    fn replicates_match_a_serial_loop_in_order_at_nested_width_1() {
        let unit = |i: usize| (i * i, current());
        let serial: Vec<(usize, usize)> = (0..7).map(|i| (i * i, 1)).collect();
        for width in [1, 2, 4] {
            assert_eq!(with_threads(width, || replicates(7, unit)), serial);
        }
        assert!(replicates(0, unit).is_empty());
    }

    #[test]
    fn configure_from_env_is_idempotent() {
        let first = configure_from_env();
        let second = configure_from_env();
        assert_eq!(first, second);
        // This test environment does not set the variable at test-spawn
        // time in a way we can rely on, so only check internal consistency:
        // a width of 0 must come from Default, a positive width from Env.
        match first {
            (0, src) => assert_eq!(src, PoolSource::Default),
            (_, src) => assert_eq!(src, PoolSource::Env),
        }
        assert!(current() >= 1);
    }

    #[test]
    fn pool_source_labels_are_stable() {
        assert_eq!(PoolSource::Env.label(), "env");
        assert_eq!(PoolSource::Default.label(), "default");
    }
}
