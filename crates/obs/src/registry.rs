//! Name → metric registry and the Prometheus-style snapshot exporter.

use crate::metrics::{Counter, HistStats, Histogram};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A collection of named counters and histograms.
///
/// The process-wide instance lives behind [`global`]; tests that need
/// isolation can hold their own `Registry`. Lookups take a read lock and
/// clone an `Arc`; callers on hot paths should cache the handle (or gate
/// on [`crate::enabled`], as [`crate::inc`] does).
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// All counters as `(name, value)`, name-sorted.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms as `(name, stats)`, name-sorted.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistStats)> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect()
    }

    /// Zero every metric (handles stay valid — existing `Arc`s keep
    /// recording into the same, now-empty, metrics).
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.reset();
        }
        for h in self.histograms.read().values() {
            h.reset();
        }
    }

    /// Render every metric in the Prometheus text exposition format.
    /// Counters become `<name>_total`; histograms become summaries with
    /// p50/p90/p99 quantile series plus `_sum`/`_count`/`_min`/`_max`.
    /// Both sections are name-sorted, so two snapshots of identical
    /// metric state are identical strings.
    pub fn prometheus_snapshot(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters_snapshot() {
            let m = format!("alperf_{}_total", sanitize(&name));
            out.push_str(&format!("# TYPE {m} counter\n{m} {value}\n"));
        }
        for (name, s) in self.histograms_snapshot() {
            let m = format!("alperf_{}_ns", sanitize(&name));
            out.push_str(&format!("# TYPE {m} summary\n"));
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                out.push_str(&format!("{m}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{m}_sum {}\n", s.sum));
            out.push_str(&format!("{m}_count {}\n", s.count));
            out.push_str(&format!("{m}_min {}\n", s.min_ns));
            out.push_str(&format!("{m}_max {}\n", s.max_ns));
        }
        out
    }

    /// A compact human-readable table of all span histograms (the run
    /// report's footer): count, total ms, min/p50/p99 ms per name.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let hists = self.histograms_snapshot();
        if hists.is_empty() {
            return out;
        }
        out.push_str(&format!(
            "{:<28} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
            "span", "count", "total ms", "min ms", "p50 ms", "p99 ms"
        ));
        for (name, s) in hists {
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<28} {:>8} {:>12.3} {:>10.3} {:>10.3} {:>10.3}\n",
                name,
                s.count,
                s.sum as f64 / 1e6,
                s.min_ns as f64 / 1e6,
                s.p50 as f64 / 1e6,
                s.p99 as f64 / 1e6,
            ));
        }
        out
    }
}

/// Prometheus metric-name sanitization: `[a-zA-Z0-9_]` pass through,
/// everything else becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        assert_eq!(r.counter("a").get(), 7);
        r.histogram("h").record(10);
        assert_eq!(r.histogram("h").stats().count, 1);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        let names: Vec<String> = r.counters_snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a".to_string(), "z".to_string()]);
    }

    #[test]
    fn prometheus_format_shape() {
        let r = Registry::new();
        r.counter("al.cache.hit").add(5);
        r.histogram("gp.fit").record(1_000_000);
        let text = r.prometheus_snapshot();
        assert!(text.contains("# TYPE alperf_al_cache_hit_total counter"));
        assert!(text.contains("alperf_al_cache_hit_total 5"));
        assert!(text.contains("# TYPE alperf_gp_fit_ns summary"));
        assert!(text.contains("alperf_gp_fit_ns{quantile=\"0.5\"}"));
        assert!(text.contains("alperf_gp_fit_ns_count 1"));
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(9);
        r.reset();
        assert_eq!(r.counter("x").get(), 0);
        c.inc();
        assert_eq!(r.counter("x").get(), 1);
    }

    #[test]
    fn summary_table_lists_nonempty_histograms() {
        let r = Registry::new();
        r.histogram("seen").record(2_000_000);
        r.histogram("empty");
        let t = r.summary_table();
        assert!(t.contains("seen"));
        assert!(!t.contains("empty"));
    }
}
