//! Hierarchical spans with thread-local span stacks and process-unique ids.
//!
//! [`crate::span`](fn@crate::span) returns a guard; the time between construction and drop
//! is emitted, when a JSONL sink is installed, as a `span` event carrying
//! the span's id and its parent's name + id. When telemetry is disabled
//! the guard is inert — constructed without touching the clock, the
//! thread-local stack or the id counter.
//!
//! Parentage is per-thread: a span's parent is the span below it on its
//! own thread's stack, so a span opened on another thread starts a tree
//! of its own. The replicate runner's units are whole campaigns, so each
//! campaign's spans still form complete trees.

use crate::clock::monotonic_ns;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of an open span: its (static) name plus process-unique id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The span's name.
    pub name: &'static str,
    /// The span's process-unique id (also emitted in the trace line).
    pub id: u64,
}

thread_local! {
    static STACK: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
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

/// Guard for one span. Records on drop (or [`SpanGuard::finish`]); inert
/// when telemetry was disabled at entry (a flip mid-span keeps the entry
/// decision, preserving stack balance).
#[must_use = "a span measures the time until the guard is dropped"]
pub struct SpanGuard {
    name: &'static str,
    id: u64,
    start_ns: u64,
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
            active: false,
        }
    }

    /// Open a live span: push onto this thread's stack and stamp the
    /// start time.
    pub(crate) fn enter(name: &'static str) -> SpanGuard {
        let id = next_span_id();
        STACK.with(|s| s.borrow_mut().push(SpanCtx { name, id }));
        SpanGuard {
            name,
            id,
            start_ns: monotonic_ns(),
            active: true,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The span's name and id, as written to the trace. `None` for an
    /// inert (telemetry-off) guard.
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

    /// Write the span to the sink and make the guard inert.
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
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.pop();
            stack.last().copied()
        });
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
    use crate::tests::{capture, spans};

    #[test]
    fn nesting_tracks_parentage() {
        let mut outer_ctx = None;
        let events = capture(true, || {
            assert_eq!(current(), None);
            {
                let outer = crate::span("test.span.outer");
                outer_ctx = outer.ctx();
                assert_eq!(current(), outer_ctx);
                {
                    let inner = crate::span("test.span.inner");
                    assert_eq!(current(), inner.ctx());
                    assert_ne!(inner.ctx(), outer_ctx);
                }
                assert_eq!(current(), outer_ctx);
            }
            assert_eq!(current(), None);
        });
        let outer_ctx = outer_ctx.unwrap();
        let (outer, inner) = (
            spans(&events, "test.span.outer"),
            spans(&events, "test.span.inner"),
        );
        assert_eq!((outer.len(), inner.len()), (1, 1));
        assert_eq!(outer[0].id, Some(outer_ctx.id));
        assert_eq!(outer[0].parent_id, None);
        assert_eq!(inner[0].parent.as_deref(), Some("test.span.outer"));
        assert_eq!(inner[0].parent_id, Some(outer_ctx.id));
        assert!(outer[0].contains(inner[0]));
    }

    #[test]
    fn span_ids_are_unique() {
        let _l = crate::tests::test_lock();
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
        let events = capture(false, || {
            let g = crate::span("test.span.inert");
            assert_eq!(g.name(), "test.span.inert");
            assert_eq!(g.ctx(), None);
            assert_eq!(current(), None);
        });
        assert_eq!(events, vec![]);
    }

    #[test]
    fn finish_returns_the_recorded_duration() {
        let mut dur = 0;
        let events = capture(true, || {
            crate::set_enabled(false);
            assert_eq!(crate::span("test.span.finish_inert").finish(), 0);
            crate::set_enabled(true);
            let outer = crate::span("test.span.finish_outer");
            let g = crate::span("test.span.finish");
            std::thread::sleep(std::time::Duration::from_millis(1));
            dur = g.finish();
            // Finishing pops the stack like a drop, and emits exactly once.
            assert_eq!(current(), outer.ctx());
        });
        assert!(dur >= 1_000_000, "dur {dur}");
        assert!(spans(&events, "test.span.finish_inert").is_empty());
        let finished = spans(&events, "test.span.finish");
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].dur_ns, dur);
    }

    #[test]
    fn spans_balance_across_threads() {
        let mut balanced = false;
        let events = capture(true, || {
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
            balanced = handles.into_iter().all(|h| h.join().unwrap());
        });
        assert!(balanced);
        let threads = spans(&events, "test.span.threads");
        assert_eq!(threads.len(), 400);
        assert!(threads.iter().all(|s| s.parent_id.is_none()));
    }
}
