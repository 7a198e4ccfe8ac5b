//! Process-wide thread-pool configuration.
//!
//! Every parallel region in the workspace (covariance assembly, GEMM,
//! multi-RHS solves, GPR restart fan-out, EMCM's committee fits, the grid
//! executor) sizes itself from the rayon pool width. This module builds
//! the global pool **once** from the `ALPERF_NUM_THREADS` environment
//! variable and exposes the two primitives everything else needs:
//!
//! * [`configure_from_env`] — idempotent process-wide setup, called from
//!   bin entry points (`alperf_bench::obs_from_env` calls it);
//! * [`with_threads`] — scoped width override for in-process sweeps
//!   (the width-determinism tests, the grid's per-campaign width 1).
//!
//! `ALPERF_NUM_THREADS=0`, unset, or unparsable all mean "use all
//! available cores".

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
