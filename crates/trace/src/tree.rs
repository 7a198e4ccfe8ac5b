//! Span-forest reconstruction from a flat span event list.
//!
//! Spans are emitted on guard *drop*, so a parent's line always appears
//! after its children's and linking must tolerate forward references: the
//! builder first indexes every span, then resolves parents.
//!
//! Linking rules, in precedence order per span:
//!
//! 1. **By parent id** (`pid` field) — exact, and the only rule that can
//!    attach a span to a parent on another thread.
//! 2. **By parent name + interval containment** — the fallback for
//!    pre-id traces: the innermost span with the declared name whose
//!    interval contains the child's, preferring candidates on the same
//!    thread.
//! 3. No declared parent → root span.
//!
//! Connectivity is *asserted*: a span that declares a parent which cannot
//! be resolved is a [`TreeError::MissingParent`], not a silent extra root
//! — this is the regression guard for the historical bug where spans
//! opened on another thread than their parent (GPR restarts once ran on
//! worker threads) lost their parent entirely.

use alperf_obs::event::SpanEvent;
use std::collections::HashMap;
use std::fmt;

/// One span plus its resolved position in the forest.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The underlying span event.
    pub span: SpanEvent,
    /// Index of the parent node, if any.
    pub parent: Option<usize>,
    /// Indices of child nodes, sorted by start time (emission order tie-break).
    pub children: Vec<usize>,
}

/// A reconstructed forest of span trees.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// All nodes, in the trace's emission (close) order.
    pub nodes: Vec<SpanNode>,
    /// Indices of root nodes, sorted by start time.
    pub roots: Vec<usize>,
}

/// Why a span list does not form a forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A span declared a parent that cannot be resolved.
    MissingParent {
        /// Name of the orphaned span.
        name: String,
        /// The parent it declared (name or `#id`).
        parent: String,
    },
    /// Two spans carry the same id.
    DuplicateId(u64),
    /// Parent links form a cycle (malformed trace).
    Cycle,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::MissingParent { name, parent } => write!(
                f,
                "span {name:?} declares parent {parent} but no such span exists \
                 (tree connectivity violated)"
            ),
            TreeError::DuplicateId(id) => write!(f, "duplicate span id {id}"),
            TreeError::Cycle => write!(f, "span parent links form a cycle"),
        }
    }
}

impl std::error::Error for TreeError {}

impl SpanForest {
    /// Build the forest from a span list (see module docs for the linking
    /// rules). Fails rather than guessing when connectivity is violated.
    pub fn build(spans: &[SpanEvent]) -> Result<SpanForest, TreeError> {
        let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            if let Some(id) = s.id {
                if by_id.insert(id, i).is_some() {
                    return Err(TreeError::DuplicateId(id));
                }
            }
        }
        let mut parents: Vec<Option<usize>> = vec![None; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(pid) = s.parent_id {
                match by_id.get(&pid) {
                    Some(&j) if j != i => parents[i] = Some(j),
                    _ => {
                        return Err(TreeError::MissingParent {
                            name: s.name.clone(),
                            parent: format!("#{pid}"),
                        })
                    }
                }
            } else if let Some(pname) = &s.parent {
                parents[i] = Some(containment_parent(spans, i, pname).ok_or_else(|| {
                    TreeError::MissingParent {
                        name: s.name.clone(),
                        parent: format!("{pname:?}"),
                    }
                })?);
            }
        }

        let mut nodes: Vec<SpanNode> = spans
            .iter()
            .zip(&parents)
            .map(|(s, p)| SpanNode {
                span: s.clone(),
                parent: *p,
                children: Vec::new(),
            })
            .collect();
        let mut roots = Vec::new();
        for (i, p) in parents.iter().enumerate() {
            match p {
                Some(j) => nodes[*j].children.push(i),
                None => roots.push(i),
            }
        }
        let start_key = |&i: &usize| (spans[i].start_ns, i);
        roots.sort_by_key(start_key);
        for node in &mut nodes {
            node.children.sort_by_key(start_key);
        }

        // Connectivity: every node must be reachable from a root; anything
        // unreachable means the parent links loop back on themselves.
        let mut seen = vec![false; nodes.len()];
        let mut stack: Vec<usize> = roots.clone();
        let mut reached = 0usize;
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            reached += 1;
            stack.extend(nodes[i].children.iter().copied());
        }
        if reached != nodes.len() {
            return Err(TreeError::Cycle);
        }
        Ok(SpanForest { nodes, roots })
    }

    /// Number of spans in the forest.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the forest empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of all nodes named `name`, in emission order.
    pub fn named(&self, name: &str) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].span.name == name)
            .collect()
    }

    /// Sum of the direct children's durations of node `i`.
    pub fn children_dur_ns(&self, i: usize) -> u64 {
        self.nodes[i]
            .children
            .iter()
            .map(|&c| self.nodes[c].span.dur_ns)
            .sum()
    }

    /// Self time of node `i`: its duration minus its direct children's.
    /// Saturating — children running concurrently on worker threads (e.g.
    /// parallel restarts under `gp.fit`) can sum past the parent's wall
    /// time, which honestly means "no exclusive self time".
    pub fn self_ns(&self, i: usize) -> u64 {
        self.nodes[i]
            .span
            .dur_ns
            .saturating_sub(self.children_dur_ns(i))
    }
}

/// Fallback parent resolution: the innermost span named `pname` whose
/// interval contains span `i`'s, preferring same-thread candidates.
fn containment_parent(spans: &[SpanEvent], i: usize, pname: &str) -> Option<usize> {
    let child = &spans[i];
    let best = |same_tid: bool| -> Option<usize> {
        spans
            .iter()
            .enumerate()
            .filter(|&(j, s)| {
                j != i && s.name == pname && (s.tid == child.tid) == same_tid && s.contains(child)
            })
            // Innermost: smallest enclosing interval, then latest start.
            .min_by_key(|&(j, s)| (s.dur_ns, std::cmp::Reverse(s.start_ns), j))
            .map(|(j, _)| j)
    };
    best(true).or_else(|| best(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        tid: u64,
        id: u64,
        parent: Option<(&str, u64)>,
        start: u64,
        dur: u64,
    ) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            tid,
            id: Some(id),
            parent: parent.map(|(n, _)| n.to_string()),
            parent_id: parent.map(|(_, id)| id),
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn links_by_id_across_threads() {
        // Emission order: children close first. The restart spans live on
        // other threads but carry the parent's id.
        let spans = vec![
            span("gp.fit.restart", 2, 11, Some(("gp.fit", 10)), 5, 20),
            span("gp.fit.restart", 3, 12, Some(("gp.fit", 10)), 6, 25),
            span("gp.fit", 1, 10, None, 0, 40),
        ];
        let f = SpanForest::build(&spans).unwrap();
        assert_eq!(f.roots, vec![2]);
        assert_eq!(f.nodes[2].children, vec![0, 1]);
        assert_eq!(f.nodes[0].parent, Some(2));
        // Parallel children may sum past the parent: self time saturates.
        assert_eq!(f.children_dur_ns(2), 45);
        assert_eq!(f.self_ns(2), 0);
    }

    #[test]
    fn falls_back_to_containment_without_ids() {
        let mut outer = span("outer", 1, 0, None, 0, 100);
        outer.id = None;
        let mut inner = span("inner", 1, 0, None, 10, 30);
        inner.id = None;
        inner.parent = Some("outer".into());
        let spans = vec![inner, outer];
        let f = SpanForest::build(&spans).unwrap();
        assert_eq!(f.roots, vec![1]);
        assert_eq!(f.nodes[1].children, vec![0]);
        assert_eq!(f.self_ns(1), 70);
    }

    #[test]
    fn containment_picks_innermost_candidate() {
        let mk = |id: u64, start: u64, dur: u64| span("wrap", 1, id, None, start, dur);
        let mut child = span("leaf", 1, 99, None, 20, 5);
        child.parent = Some("wrap".into());
        child.parent_id = None;
        let spans = vec![child, mk(1, 0, 100), mk(2, 10, 40)];
        let f = SpanForest::build(&spans).unwrap();
        // Attached to the inner wrap (id 2), which itself has no parent.
        assert_eq!(f.nodes[0].parent, Some(2));
    }

    #[test]
    fn orphan_is_an_error_not_a_root() {
        let spans = vec![span("child", 1, 2, Some(("ghost", 77)), 0, 1)];
        match SpanForest::build(&spans) {
            Err(TreeError::MissingParent { name, parent }) => {
                assert_eq!(name, "child");
                assert_eq!(parent, "#77");
            }
            other => panic!("expected MissingParent, got {other:?}"),
        }
    }

    #[test]
    fn named_parent_without_candidate_is_an_error() {
        let mut child = span("child", 1, 0, None, 0, 1);
        child.id = None;
        child.parent = Some("ghost".into());
        assert!(matches!(
            SpanForest::build(&[child]),
            Err(TreeError::MissingParent { .. })
        ));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let spans = vec![span("a", 1, 5, None, 0, 1), span("b", 1, 5, None, 2, 1)];
        assert_eq!(
            SpanForest::build(&spans).unwrap_err(),
            TreeError::DuplicateId(5)
        );
    }

    #[test]
    fn cycle_detected() {
        let spans = vec![
            span("a", 1, 1, Some(("b", 2)), 0, 10),
            span("b", 1, 2, Some(("a", 1)), 0, 10),
        ];
        assert_eq!(SpanForest::build(&spans).unwrap_err(), TreeError::Cycle);
    }

    #[test]
    fn empty_forest_builds() {
        let f = SpanForest::build(&[]).unwrap();
        assert!(f.is_empty());
        assert!(f.roots.is_empty());
    }
}
