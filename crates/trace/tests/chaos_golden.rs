//! Chaos-trace round trip: a checked-in `alperf-obs-v1` trace shaped like
//! a fault-injected campaign — a `cluster.measure_batch` root with
//! cross-thread `cluster.retry`/`cluster.failed` child spans, the
//! `cluster.fault_plan` replay record, and an AL run whose iteration
//! indices skip over a degraded (lost) iteration — must parse, reconstruct
//! into a connected forest, and produce byte-identical analytics. This
//! pins the trace toolchain's handling of the fault-injection vocabulary:
//! retry spans attach under the batch even though they fire on worker
//! threads, degraded iterations leave a record but no span, and the
//! self-time/critical-path/folded outputs stay stable.

use alperf_trace::{
    aggregate, child_coverage, critical_path, diff_traces, folded_stacks, read_path,
    significant_regressions, DiffConfig, SpanForest,
};
use std::path::Path;

fn fixture() -> alperf_trace::Trace {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/chaos.jsonl");
    read_path(&path).expect("chaos fixture must parse")
}

#[test]
fn chaos_trace_parses_with_fault_vocabulary() {
    let trace = fixture();
    assert_eq!(trace.schema, "alperf-obs-v1");
    assert_eq!(trace.spans.len(), 13);
    assert_eq!(trace.records.len(), 8);

    // The fault-plan record carries everything a replay needs.
    let plan = trace
        .records_named("cluster.fault_plan")
        .next()
        .expect("fault plan record");
    for key in [
        "plan_seed",
        "failure_rate",
        "permanent_fraction",
        "campaign_seed",
        "max_attempts",
        "base_backoff_ns",
    ] {
        assert!(plan.f64(key).is_some(), "fault_plan missing {key}");
    }

    // Retry records name the taxonomy and the backoff actually applied.
    let retries: Vec<_> = trace.records_named("cluster.retry").collect();
    assert_eq!(retries.len(), 3);
    for r in &retries {
        assert!(r.str("kind").is_some());
        assert!(r.f64("backoff_ns").unwrap() > 0.0);
    }
    let failed = trace
        .records_named("cluster.failed")
        .next()
        .expect("failed record");
    assert_eq!(failed.str("persistence"), Some("permanent"));
    assert_eq!(failed.f64("attempts"), Some(3.0));

    // The degraded iteration left a record but no al.iteration span/record
    // for its index: iter goes 0 -> 2 with 1 only in al.degraded_iteration.
    let iters: Vec<f64> = trace
        .records_named("al.iteration")
        .map(|r| r.f64("iter").unwrap())
        .collect();
    assert_eq!(iters, vec![0.0, 2.0]);
    let degraded = trace
        .records_named("al.degraded_iteration")
        .next()
        .expect("degraded record");
    assert_eq!(degraded.f64("iter"), Some(1.0));
    assert_eq!(degraded.f64("attempts"), Some(3.0));
}

#[test]
fn chaos_forest_attaches_retries_across_threads() {
    let trace = fixture();
    let forest = SpanForest::build(&trace.spans).expect("forest must connect");
    assert_eq!(forest.len(), 13);
    assert_eq!(forest.roots.len(), 3, "batch + two al.iterations");

    // Worker-side retry/failed spans (tids 2, 3) attach under the batch
    // span on tid 1 through their parent ids.
    for name in ["cluster.retry", "cluster.failed"] {
        for i in forest.named(name) {
            let parent = forest.nodes[i].parent.expect("must have parent");
            assert_eq!(forest.nodes[parent].span.name, "cluster.measure_batch");
            assert_ne!(forest.nodes[parent].span.tid, forest.nodes[i].span.tid);
        }
    }
}

#[test]
fn chaos_analytics_are_byte_stable() {
    let trace = fixture();
    let forest = SpanForest::build(&trace.spans).unwrap();

    // Self times partition the roots' wall time (3000 + 900 + 800).
    let stats = aggregate(&forest);
    let total_self: u64 = stats.iter().map(|s| s.self_ns).sum();
    assert_eq!(total_self, 4700);

    // The batch decomposes into its retry/failed children.
    let cov = child_coverage(&forest, "cluster.measure_batch").unwrap();
    assert_eq!(cov.count, 1);
    assert_eq!(cov.total_ns, 3000);
    assert_eq!(cov.children_ns, 230);

    // Critical path through the batch ends at the terminal failure.
    let cp = critical_path(&forest, "cluster.measure_batch").unwrap();
    let names: Vec<&str> = cp.steps.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, vec!["cluster.measure_batch", "cluster.failed"]);

    assert_eq!(
        folded_stacks(&forest),
        include_str!("fixtures/chaos.folded"),
        "folded-stack bytes drifted from the checked-in chaos file"
    );
}

#[test]
fn chaos_self_diff_is_clean() {
    let trace = fixture();
    let diffs = diff_traces(&trace, &trace, &DiffConfig::default());
    assert_eq!(significant_regressions(&diffs), 0);
    assert!(diffs.iter().all(|d| !d.significant));
}
