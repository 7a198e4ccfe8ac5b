//! Folded-stack (flamegraph) export.
//!
//! One line per unique root-to-span path, `root;child;leaf value`, where
//! the value is the path's accumulated *self* time in ns — the format
//! consumed by `inferno-flamegraph`, Brendan Gregg's `flamegraph.pl`,
//! and speedscope. Using self time (not total) keeps the invariant those
//! tools rely on: a frame's width equals its own value plus its
//! children's.
//!
//! Output is byte-stable for a given forest: paths are merged through a
//! `BTreeMap` and emitted in lexicographic order, so golden tests can
//! compare exact bytes.

use crate::tree::SpanForest;
use std::collections::BTreeMap;

/// Sanitize a span name for the folded format: `;` separates frames and
/// the last space separates the value, so both are replaced.
fn sanitize(name: &str) -> String {
    name.replace([';', ' '], "_")
}

/// Render the forest as folded stacks. Zero-self-time paths are kept
/// (value 0) only if they have no children, so every leaf frame appears.
pub fn folded_stacks(forest: &SpanForest) -> String {
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    // Depth-first with the accumulated path; iterative to survive deep trees.
    let mut stack: Vec<(usize, String)> = forest
        .roots
        .iter()
        .map(|&r| (r, sanitize(&forest.nodes[r].span.name)))
        .collect();
    while let Some((i, path)) = stack.pop() {
        let node = &forest.nodes[i];
        let self_ns = forest.self_ns(i);
        if self_ns > 0 || node.children.is_empty() {
            *merged.entry(path.clone()).or_insert(0) += self_ns;
        }
        for &c in &node.children {
            let child_path = format!("{path};{}", sanitize(&forest.nodes[c].span.name));
            stack.push((c, child_path));
        }
    }
    let mut out = String::new();
    for (path, ns) in merged {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_obs::event::SpanEvent;

    fn span(name: &str, id: u64, pid: Option<u64>, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            tid: 1,
            id: Some(id),
            parent: None,
            parent_id: pid,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn emits_merged_sorted_self_time_stacks() {
        // root(100) -> fit(70) -> chol(50), root -> fit#2(10): the two fit
        // instances merge into one path.
        let forest = SpanForest::build(&[
            span("chol", 3, Some(2), 5, 50),
            span("fit", 2, Some(1), 0, 70),
            span("fit", 4, Some(1), 80, 10),
            span("root", 1, None, 0, 100),
        ])
        .unwrap();
        let folded = folded_stacks(&forest);
        assert_eq!(folded, "root 20\nroot;fit 30\nroot;fit;chol 50\n");
        // Total value equals total wall time of the root.
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn sanitizes_separator_characters() {
        let forest = SpanForest::build(&[span("a b;c", 1, None, 0, 5)]).unwrap();
        assert_eq!(folded_stacks(&forest), "a_b_c 5\n");
    }

    #[test]
    fn zero_self_leaf_still_appears() {
        let forest = SpanForest::build(&[span("instant", 1, None, 0, 0)]).unwrap();
        assert_eq!(folded_stacks(&forest), "instant 0\n");
    }

    #[test]
    fn byte_stable_across_builds() {
        let spans = vec![
            span("b", 2, Some(1), 1, 3),
            span("a", 3, Some(1), 4, 2),
            span("root", 1, None, 0, 10),
        ];
        let f1 = SpanForest::build(&spans).unwrap();
        let f2 = SpanForest::build(&spans).unwrap();
        assert_eq!(folded_stacks(&f1), folded_stacks(&f2));
        assert_eq!(folded_stacks(&f1), "root 5\nroot;a 2\nroot;b 3\n");
    }
}
