//! Hierarchical spans with thread-local span stacks and process-unique ids.
//!
//! [`crate::span`] returns a guard; the time between construction and drop
//! is recorded into the histogram of the same name and, when a JSONL sink
//! is installed, emitted as a `span` event carrying the span's id and its
//! parent's name + id. When telemetry is disabled the guard is inert —
//! constructed without touching the clock, the thread-local stack, the id
//! counter, or the registry.
//!
//! Parentage is per-thread by default: a span opened inside a rayon worker
//! does not see the spawning thread's stack. Fork-join call sites that
//! want their worker spans attached to the logical caller capture
//! [`current`] *before* dispatch and open the worker span with
//! [`crate::span_with_parent`] — the explicit [`SpanCtx`] crosses the
//! thread boundary as plain `Copy` data, so the fast path still has no
//! cross-thread bookkeeping.

use crate::clock::monotonic_ns;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of an open span: its (static) name plus process-unique id.
/// `Copy`, and safe to send into worker closures for explicit parentage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The span's name.
    pub name: &'static str,
    /// The span's process-unique id (also emitted in the trace line).
    pub id: u64,
}

thread_local! {
    static STACK: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
    // Span-name -> histogram handle, keyed by the &'static str's address
    // (span names are literals, so the address identifies the name). This
    // keeps the registry's RwLock + HashMap lookup out of every span drop;
    // handles stay valid across `Registry::reset`, which clears values in
    // place. Span-name cardinality is tiny (~a dozen), so a linear scan
    // beats hashing.
    static HIST_CACHE: RefCell<Vec<(usize, std::sync::Arc<crate::metrics::Histogram>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Record `dur` into the histogram for span `name`, via the thread-local
/// handle cache (no Arc clone on the hit path).
fn record_span_duration(name: &'static str, dur: u64) {
    HIST_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        let key = name.as_ptr() as usize;
        if let Some((_, h)) = cache.iter().find(|(k, _)| *k == key) {
            h.record(dur);
            return;
        }
        let h = crate::registry::global().histogram(name);
        h.record(dur);
        cache.push((key, h));
    })
}

/// Ids start at 1; 0 never appears in a trace.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The innermost open span on this thread, if any.
pub fn current() -> Option<SpanCtx> {
    STACK.with(|s| s.borrow().last().copied())
}

/// The innermost open span's *name* on this thread, if any.
pub fn current_name() -> Option<&'static str> {
    current().map(|c| c.name)
}

/// How the span's trace parent is resolved at drop time.
enum Parent {
    /// Whatever span is below this one on the thread-local stack.
    Stack,
    /// An explicit parent captured on (possibly) another thread.
    Explicit(Option<SpanCtx>),
}

/// Guard for one span. Records on drop (or [`SpanGuard::finish`]); inert
/// when telemetry was disabled at entry (a flip mid-span keeps the entry
/// decision, preserving stack balance).
#[must_use = "a span measures the time until the guard is dropped"]
pub struct SpanGuard {
    name: &'static str,
    id: u64,
    start_ns: u64,
    parent: Parent,
    active: bool,
}

impl SpanGuard {
    /// A guard that does nothing on drop.
    #[inline]
    pub(crate) fn inert(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            id: 0,
            start_ns: 0,
            parent: Parent::Stack,
            active: false,
        }
    }

    /// Open a live span: push onto this thread's stack and stamp the
    /// start time.
    pub(crate) fn enter(name: &'static str) -> SpanGuard {
        SpanGuard::open(name, Parent::Stack)
    }

    /// Open a live span whose trace parent is the explicitly given span
    /// (captured via [`current`] before crossing a thread boundary)
    /// instead of this thread's stack.
    pub(crate) fn enter_with_parent(name: &'static str, parent: Option<SpanCtx>) -> SpanGuard {
        SpanGuard::open(name, Parent::Explicit(parent))
    }

    fn open(name: &'static str, parent: Parent) -> SpanGuard {
        let id = next_span_id();
        STACK.with(|s| s.borrow_mut().push(SpanCtx { name, id }));
        SpanGuard {
            name,
            id,
            start_ns: monotonic_ns(),
            parent,
            active: true,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The span's identity, usable as an explicit parent for spans opened
    /// on worker threads. `None` for an inert (telemetry-off) guard.
    pub fn ctx(&self) -> Option<SpanCtx> {
        self.active.then_some(SpanCtx {
            name: self.name,
            id: self.id,
        })
    }

    /// Close the span now and return the duration it recorded, in
    /// nanoseconds (0 for an inert guard). Call sites that also need the
    /// stage time as a number read it here instead of timing the same
    /// region a second time.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    /// Record the span (histogram + sink) and make the guard inert.
    // Out of line on purpose: letting this body inline into every
    // instrumented function slowed `Campaign::run` by 15-20% with telemetry
    // off (2-vCPU Xeon @2.1 GHz), through the callers' codegen. Callers
    // keep only the `active` check in `drop`.
    #[inline(never)]
    fn close(&mut self) -> u64 {
        if !self.active {
            return 0;
        }
        self.active = false;
        let dur = monotonic_ns().saturating_sub(self.start_ns);
        let stack_parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.pop();
            stack.last().copied()
        });
        let parent = match self.parent {
            Parent::Stack => stack_parent,
            Parent::Explicit(p) => p,
        };
        record_span_duration(self.name, dur);
        crate::sink::emit_span(self.name, self.id, parent, self.start_ns, dur);
        dur
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_tracks_parentage() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        assert_eq!(current(), None);
        {
            let outer = crate::span("test.span.outer");
            let outer_ctx = outer.ctx().unwrap();
            assert_eq!(current(), Some(outer_ctx));
            {
                let _inner = crate::span("test.span.inner");
                assert_eq!(current_name(), Some("test.span.inner"));
                assert_ne!(current().unwrap().id, outer_ctx.id);
            }
            assert_eq!(current(), Some(outer_ctx));
        }
        assert_eq!(current(), None);
        crate::set_enabled(false);
        assert_eq!(crate::histogram("test.span.outer").stats().count, 1);
        assert_eq!(crate::histogram("test.span.inner").stats().count, 1);
    }

    #[test]
    fn span_ids_are_unique() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        let a = crate::span("test.span.id_a");
        let b = crate::span("test.span.id_b");
        let (ia, ib) = (a.ctx().unwrap().id, b.ctx().unwrap().id);
        drop(b);
        drop(a);
        crate::set_enabled(false);
        assert_ne!(ia, ib);
        assert!(ia > 0 && ib > 0);
    }

    #[test]
    fn inert_guard_touches_nothing() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(false);
        {
            let g = crate::span("test.span.inert");
            assert_eq!(g.name(), "test.span.inert");
            assert_eq!(g.ctx(), None);
            assert_eq!(current(), None);
        }
        assert_eq!(crate::histogram("test.span.inert").stats().count, 0);
    }

    #[test]
    fn finish_returns_the_recorded_duration() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(false);
        assert_eq!(crate::span("test.span.finish_inert").finish(), 0);
        crate::set_enabled(true);
        let outer = crate::span("test.span.finish_outer");
        let g = crate::span("test.span.finish");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let dur = g.finish();
        // Finishing pops the stack like a drop, and records exactly once.
        assert_eq!(current(), outer.ctx());
        drop(outer);
        crate::set_enabled(false);
        assert!(dur >= 1_000_000, "dur {dur}");
        let stats = crate::histogram("test.span.finish").stats();
        assert_eq!(stats.count, 1);
        assert_eq!(stats.sum, dur);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        let outer = crate::span("test.span.xthread_parent");
        let parent = outer.ctx();
        let child_saw = std::thread::spawn(move || {
            let g = crate::span_with_parent("test.span.xthread_child", parent);
            // The worker's stack holds the child (so *its* children nest),
            // but the recorded parent is the explicit one.
            let on_stack = current() == g.ctx();
            drop(g);
            on_stack && current().is_none()
        })
        .join()
        .unwrap();
        drop(outer);
        crate::set_enabled(false);
        assert!(child_saw);
        assert_eq!(crate::histogram("test.span.xthread_child").stats().count, 1);
    }

    #[test]
    fn spans_balance_across_threads() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        let _s = crate::span("test.span.threads");
                    }
                    current().is_none()
                })
            })
            .collect();
        let balanced = handles.into_iter().all(|h| h.join().unwrap());
        crate::set_enabled(false);
        assert!(balanced);
        assert!(crate::histogram("test.span.threads").stats().count >= 400);
    }
}
