#![warn(missing_docs)]
//! # alperf-obs
//!
//! Self-contained observability for the Active-Learning performance-analysis
//! workspace: hierarchical **spans**, **counters**, and mergeable
//! **log-linear histograms**, with two sinks — a schema-versioned JSONL
//! event stream and a Prometheus-style text snapshot.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Every instrumentation entry point
//!    ([`span`], [`inc`], [`add`], [`record`]) starts with one *relaxed*
//!    atomic load of a global flag and returns immediately when telemetry
//!    is off — no clock read, no thread-local access, no allocation. The
//!    instrumented hot paths (blocked Cholesky, LML gradients,
//!    `predict_batch`, restart dispatch) therefore cost nothing in the
//!    common case; the `obs_overhead` bin holds the instrumented fit and
//!    predict paths, telemetry on, within 2% of telemetry off.
//! 2. **Determinism.** Telemetry only *reads* clocks and *writes* sinks;
//!    it never feeds back into any numeric computation. Enabling it must
//!    not change a single bit of any model output (the AL determinism
//!    guard test in `alperf-al` proves this end to end). Histogram and
//!    counter state is kept in atomics so worker threads record
//!    concurrently without perturbing the bit-identical serial reductions
//!    the gp/al layers rely on.
//! 3. **No external dependencies** beyond the vendored `parking_lot`
//!    stand-in; JSON is emitted and parsed by the tiny [`json`] module.
//!
//! Quick tour:
//!
//! ```
//! alperf_obs::set_enabled(true);
//! {
//!     let _guard = alperf_obs::span("demo.work");
//!     alperf_obs::inc("demo.items");
//! } // span duration recorded on drop
//! let stats = alperf_obs::histogram("demo.work").stats();
//! assert_eq!(stats.count, 1);
//! let text = alperf_obs::registry().prometheus_snapshot();
//! assert!(text.contains("alperf_demo_items_total"));
//! alperf_obs::set_enabled(false);
//! ```

pub mod clock;
pub mod event;
pub mod json;
pub mod metrics;
pub mod names;
pub mod registry;
pub mod sink;
pub mod span;

pub use clock::{Clock, FakeClock, SystemClock};
pub use event::{Event, MetaEvent, RecordEvent, SpanEvent};
pub use metrics::{Counter, HistStats, Histogram};
pub use registry::Registry;
pub use sink::Value;
pub use span::{SpanCtx, SpanGuard};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Global on/off switch. Off by default: a freshly started process pays
/// exactly one relaxed atomic load per instrumentation site.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry currently enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry on or off, globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The global metric registry (created on first use).
pub fn registry() -> &'static Registry {
    registry::global()
}

/// Get-or-create a counter in the global registry. This allocates a map
/// lookup; hot paths should prefer [`inc`]/[`add`], which bail out before
/// the lookup when telemetry is disabled.
pub fn counter(name: &str) -> Arc<Counter> {
    registry::global().counter(name)
}

/// Get-or-create a histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry::global().histogram(name)
}

/// Increment counter `name` by one — a no-op when telemetry is disabled.
#[inline]
pub fn inc(name: &str) {
    if enabled() {
        registry::global().counter(name).inc();
    }
}

/// Add `v` to counter `name` — a no-op when telemetry is disabled.
#[inline]
pub fn add(name: &str, v: u64) {
    if enabled() {
        registry::global().counter(name).add(v);
    }
}

/// Open a hierarchical span named `name`. The returned guard records the
/// span's wall-clock duration into the histogram of the same name (and the
/// JSONL sink, when installed) on drop. When telemetry is disabled this is
/// a single relaxed atomic load and an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert(name);
    }
    SpanGuard::enter(name)
}

/// Open a span whose trace parent is `parent` (captured with
/// [`current_span`] before crossing a thread boundary) instead of this
/// thread's innermost open span. This is how fork-join call sites keep
/// their worker spans attached to the logical caller: parentage is
/// otherwise thread-local, so a span opened on a worker thread would
/// become a root. Children opened *under* the returned guard on the same
/// thread still nest normally.
#[inline]
pub fn span_with_parent(name: &'static str, parent: Option<SpanCtx>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert(name);
    }
    SpanGuard::enter_with_parent(name, parent)
}

/// The innermost open span on this thread — capture before dispatching
/// fork-join work and hand to [`span_with_parent`] on the workers.
/// `None` when no span is open (including whenever telemetry is off).
#[inline]
pub fn current_span() -> Option<SpanCtx> {
    span::current()
}

/// Emit a structured record event (one JSONL line) — a no-op when
/// telemetry is disabled or no sink is installed. `fields` appear under
/// the `"fields"` key of the emitted object.
#[inline]
pub fn record(name: &str, fields: &[(&str, Value<'_>)]) {
    if enabled() {
        sink::emit_record(name, fields);
    }
}

/// Monotone sequence numbers for run-scoped telemetry (each AL run grabs
/// one so events from concurrent runs can be told apart in the trace).
static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique run id.
pub fn next_run_id() -> u64 {
    NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global enabled flag is process-wide; tests that toggle it
    // serialize on this lock so they can run under the default parallel
    // test harness.
    pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn disabled_sites_do_not_record() {
        let _l = TEST_LOCK.lock();
        set_enabled(false);
        inc("test.disabled.counter");
        add("test.disabled.counter", 10);
        {
            let _s = span("test.disabled.span");
        }
        assert_eq!(counter("test.disabled.counter").get(), 0);
        assert_eq!(histogram("test.disabled.span").stats().count, 0);
    }

    #[test]
    fn enabled_sites_record() {
        let _l = TEST_LOCK.lock();
        set_enabled(true);
        inc("test.enabled.counter");
        add("test.enabled.counter", 4);
        {
            let _s = span("test.enabled.span");
        }
        set_enabled(false);
        assert_eq!(counter("test.enabled.counter").get(), 5);
        assert_eq!(histogram("test.enabled.span").stats().count, 1);
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }
}
