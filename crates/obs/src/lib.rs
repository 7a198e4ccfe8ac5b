#![warn(missing_docs)]
//! # alperf-obs
//!
//! Self-contained campaign telemetry for the Active-Learning
//! performance-analysis workspace: hierarchical **spans** and structured
//! **records**, written to one sink, a schema-versioned JSONL trace
//! (`alperf-obs-v1`) that the `alperf-trace` crate reads back.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Every instrumentation entry point
//!    ([`span`](fn@span), [`span_with_parent`], [`record`]) starts with one
//!    *relaxed* atomic load of a global flag and returns immediately when
//!    telemetry is off — no clock read, no thread-local access, no
//!    allocation. The instrumented hot paths (fits, restarts,
//!    `predict_batch`, the AL iteration stages) therefore cost nothing in
//!    the common case; the `obs_overhead` bin holds the instrumented fit
//!    and predict paths, and a traced AL campaign, within budget of
//!    telemetry off.
//! 2. **Determinism.** Telemetry only *reads* clocks and *writes* the
//!    sink; it never feeds back into any numeric computation. Enabling it
//!    must not change a single bit of any model output (the AL
//!    determinism guard test in `alperf-al` proves this end to end).
//! 3. **No external dependencies** beyond the vendored `parking_lot`
//!    stand-in; JSON is emitted and parsed by the tiny [`json`] module.
//!
//! Quick tour: emit a span and a record, then read them back.
//!
//! ```
//! use alperf_obs::{Event, Value};
//!
//! let path = std::env::temp_dir().join(format!("obs_tour_{}.jsonl", std::process::id()));
//! alperf_obs::sink::install_jsonl(&path).unwrap();
//! alperf_obs::set_enabled(true);
//! {
//!     let _guard = alperf_obs::span("demo.work");
//!     alperf_obs::record("demo.items", &[("count", Value::U64(3))]);
//! } // the span is written when its guard drops
//! alperf_obs::set_enabled(false);
//! alperf_obs::sink::uninstall();
//!
//! let text = std::fs::read_to_string(&path).unwrap();
//! let events: Vec<Event> = text.lines().map(|l| Event::parse(l).unwrap()).collect();
//! assert!(matches!(&events[0], Event::Meta(_)));
//! assert!(matches!(&events[1], Event::Record(r) if r.f64("count") == Some(3.0)));
//! assert!(matches!(&events[2], Event::Span(s) if s.name == "demo.work"));
//! # std::fs::remove_file(&path).ok();
//! ```

pub mod clock;
pub mod event;
pub mod json;
pub mod names;
pub mod sink;
pub mod span;

pub use event::{Event, MetaEvent, RecordEvent, SpanEvent};
pub use sink::Value;
pub use span::{SpanCtx, SpanGuard};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// Open a hierarchical span named `name`. The returned guard writes the
/// span, with its wall-clock duration, to the JSONL sink (when installed)
/// on drop. When telemetry is disabled this is a single relaxed atomic
/// load and an inert guard.
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

    // The global enabled flag and the sink are process-wide; tests that
    // touch either serialize on this lock so they can run under the
    // default parallel test harness.
    pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    /// Run `f` under [`TEST_LOCK`] with a fresh JSONL sink installed and
    /// the global switch set to `on`, and return the span and record
    /// events it wrote, read back through [`Event::parse`].
    pub(crate) fn capture(on: bool, f: impl FnOnce()) -> Vec<Event> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let _l = TEST_LOCK.lock();
        let path = std::env::temp_dir().join(format!(
            "alperf_obs_capture_{}_{}.jsonl",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        sink::install_jsonl(&path).unwrap();
        set_enabled(on);
        f();
        set_enabled(false);
        sink::uninstall();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text.lines()
            .map(|l| Event::parse(l).unwrap())
            .filter(|e| !matches!(e, Event::Meta(_)))
            .collect()
    }

    /// The spans named `name` among `events`.
    pub(crate) fn spans<'a>(events: &'a [Event], name: &str) -> Vec<&'a SpanEvent> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) if s.name == name => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_sites_do_not_record() {
        let events = capture(false, || {
            let _s = span("test.disabled.span");
            record("test.disabled.record", &[("n", Value::U64(1))]);
        });
        assert_eq!(events, vec![]);
    }

    #[test]
    fn enabled_sites_record() {
        let events = capture(true, || {
            let _s = span("test.enabled.span");
            record("test.enabled.record", &[("n", Value::U64(4))]);
        });
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], Event::Record(r)
            if r.name == "test.enabled.record" && r.f64("n") == Some(4.0)));
        assert_eq!(spans(&events, "test.enabled.span").len(), 1);
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }
}
