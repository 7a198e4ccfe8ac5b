//! Process-wide thread width and the workspace's one parallel axis.
//!
//! The unit of parallel work is a whole AL campaign: the paper's Figs. 7
//! and 8 average independent realizations, and the ablations compare
//! strategies over independent partitions. [`replicates`] fans those units
//! out, and the simulated measurement campaign fans its jobs out the same
//! way; nothing inside a unit (a fit, a solve, a committee) forks. Two
//! things size themselves from the width configured here: [`replicates`]
//! and the grid executor's workers. [`configure_from_env`] reads the width
//! from the `ALPERF_NUM_THREADS` environment variable **once** per
//! process, and [`replicates`] runs on `std::thread::scope`, so no thread
//! outlives its call. The module exposes:
//!
//! * [`configure_from_env`] — idempotent process-wide setup, called from
//!   bin entry points (`alperf_bench::obs_from_env` calls it);
//! * [`with_threads`] — scoped width override for in-process sweeps
//!   (the width-determinism tests, the grid's per-campaign width 1);
//! * [`replicates`] — run independent units `0..n` at the width, in index
//!   order.
//!
//! `ALPERF_NUM_THREADS=0`, unset, or unparsable all mean "use all
//! available cores".

use std::cell::Cell;
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

thread_local! {
    /// The [`with_threads`] width in force on this thread; `None` defers
    /// to the process-wide width.
    static SCOPED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide width and its source, once [`configure_from_env`]
/// has read them.
static CONFIGURED: OnceLock<(usize, PoolSource)> = OnceLock::new();

/// Set the global width from `ALPERF_NUM_THREADS`, once per process.
/// Subsequent calls are no-ops returning the first result. Returns the
/// configured width (`0` = all cores) and where it came from.
pub fn configure_from_env() -> (usize, PoolSource) {
    *CONFIGURED.get_or_init(|| match std::env::var(ENV_NUM_THREADS) {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => (n, PoolSource::Env),
            _ => (0, PoolSource::Default),
        },
        Err(_) => (0, PoolSource::Default),
    })
}

/// The fan-out width parallel calls on this thread would currently use,
/// honouring scoped [`with_threads`] overrides, the global configuration
/// (once [`configure_from_env`] has run), and `available_parallelism`, in
/// that order. Always ≥ 1.
pub fn current() -> usize {
    let global = || CONFIGURED.get().map_or(0, |c| c.0);
    match SCOPED.with(Cell::get).unwrap_or_else(global) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Run `f` with the width scoped to `n` threads on this thread (restored
/// afterwards). `0` means the process-wide width. [`replicates`] calls
/// inside `f` see the scope; threads the caller spawns directly see the
/// process-wide width instead.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = SCOPED.with(|c| c.replace((n > 0).then_some(n)));
    let out = f();
    SCOPED.with(|c| c.set(prev));
    out
}

/// Run `f(0), f(1), .., f(n - 1)` as independent units of work — whole AL
/// campaigns, replicates or partitions — on up to [`current`] scoped
/// threads, and return the results in index order. The indices are cut
/// into contiguous blocks of `⌈n / width⌉`, one thread per block; every
/// unit runs at nested width 1, so nothing inside it forks, and the
/// results equal a plain serial loop's at every width. A panic in any unit
/// propagates to the caller.
pub fn replicates<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let width = current().min(n);
    if width <= 1 {
        return with_threads(1, || (0..n).map(f).collect());
    }
    let block = n.div_ceil(width);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(block)
            .map(|start| {
                let units = start..n.min(start + block);
                s.spawn(move || with_threads(1, || units.map(f).collect::<Vec<R>>()))
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
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
        // 7 and 5 do not divide by 2 or 4 (5 at width 4 makes 3 blocks of
        // at most 2), and 3 is below width 4 (one thread per unit).
        for n in [7, 5, 3] {
            let serial: Vec<(usize, usize)> = (0..n).map(|i| (i * i, 1)).collect();
            for width in [1, 2, 4] {
                assert_eq!(with_threads(width, || replicates(n, unit)), serial);
            }
        }
        assert!(replicates(0, unit).is_empty());
    }

    #[test]
    fn panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            with_threads(2, || {
                replicates(64, |i| {
                    if i == 63 {
                        panic!("boom");
                    }
                })
            })
        });
        assert!(r.is_err());
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
