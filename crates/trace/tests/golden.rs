//! Golden-fixture round trip: a checked-in `alperf-obs-v1` trace (shaped
//! like a two-iteration AL run, including a cross-thread `gp.fit.restart`
//! span) must parse, reconstruct into a connected forest, and produce
//! byte-identical folded-stack output. Any change to the parser, tree
//! builder, or folded exporter that alters bytes shows up here.

use alperf_trace::{
    aggregate, child_coverage, critical_path, diff_traces, folded_stacks, read_path,
    significant_regressions, DiffConfig, SpanForest,
};
use std::path::Path;

fn fixture() -> alperf_trace::Trace {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.jsonl");
    read_path(&path).expect("golden fixture must parse")
}

#[test]
fn golden_trace_parses() {
    let trace = fixture();
    assert_eq!(trace.schema, "alperf-obs-v1");
    assert_eq!(trace.spans.len(), 12);
    assert_eq!(trace.records.len(), 2);
    let iters: Vec<f64> = trace
        .records_named("al.iteration")
        .map(|r| r.f64("iter").unwrap())
        .collect();
    assert_eq!(iters, vec![1.0, 2.0]);
}

#[test]
fn golden_forest_is_connected_with_cross_thread_restarts() {
    let trace = fixture();
    let forest = SpanForest::build(&trace.spans).expect("forest must connect");
    assert_eq!(forest.len(), 12);
    assert_eq!(forest.roots.len(), 2, "one root per al.iteration");

    // The fixture's restart spans (tid 2 and 3, recorded when restarts
    // ran on worker threads) attach under gp.fit on tid 1 — the exact
    // linkage the explicit-parent fix exists for.
    for i in forest.named("gp.fit.restart") {
        let parent = forest.nodes[i].parent.expect("restart must have parent");
        assert_eq!(forest.nodes[parent].span.name, "gp.fit");
        assert_ne!(forest.nodes[parent].span.tid, forest.nodes[i].span.tid);
    }
}

#[test]
fn golden_iteration_decomposes_into_children() {
    let trace = fixture();
    let forest = SpanForest::build(&trace.spans).unwrap();
    let cov = child_coverage(&forest, "al.iteration").unwrap();
    assert_eq!(cov.count, 2);
    assert_eq!(cov.total_ns, 1700);
    assert_eq!(cov.children_ns, 1610);
    assert!(cov.pct() > 90.0);

    let stats = aggregate(&forest);
    let total_self: u64 = stats.iter().map(|s| s.self_ns).sum();
    assert_eq!(total_self, 1700, "self times partition the root wall time");

    let cp = critical_path(&forest, "al.iteration").unwrap();
    let names: Vec<&str> = cp.steps.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "al.iteration",
            "al.iteration.fit",
            "gp.fit",
            "gp.fit.restart"
        ]
    );
}

#[test]
fn golden_folded_output_is_byte_stable() {
    let trace = fixture();
    let forest = SpanForest::build(&trace.spans).unwrap();
    assert_eq!(
        folded_stacks(&forest),
        include_str!("fixtures/golden.folded"),
        "folded-stack bytes drifted from the checked-in golden file"
    );
}

#[test]
fn golden_self_diff_is_clean() {
    let trace = fixture();
    let diffs = diff_traces(&trace, &trace, &DiffConfig::default());
    assert_eq!(significant_regressions(&diffs), 0);
    assert!(diffs.iter().all(|d| !d.significant));
}
