//! Result-path utilities shared by every enumeration algorithm.
//!
//! All algorithms in the workspace (PEFP and the CPU baselines) return their
//! results as `Vec<Vec<VertexId>>`. This module provides validation and
//! canonicalisation so different algorithms can be compared for exact
//! equality in tests and experiments.

use crate::csr::CsrGraph;
use crate::ids::VertexId;
use std::collections::HashSet;

/// A result path: the full vertex sequence from `s` to `t` inclusive.
pub type Path = Vec<VertexId>;

/// Number of hops of a path (`|p| - 1`), 0 for a single-vertex path.
pub fn path_len(path: &[VertexId]) -> usize {
    path.len().saturating_sub(1)
}

/// Whether the path visits no vertex twice.
pub fn is_simple(path: &[VertexId]) -> bool {
    let mut seen = HashSet::with_capacity(path.len());
    path.iter().all(|v| seen.insert(*v))
}

/// Sorts paths lexicographically and removes duplicates, producing the
/// canonical form used for cross-algorithm comparisons.
pub fn canonicalize(mut paths: Vec<Path>) -> Vec<Path> {
    paths.sort();
    paths.dedup();
    paths
}

/// Problems found by [`validate_result`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathViolation {
    /// The path is empty.
    Empty,
    /// The path does not start at the query source.
    WrongSource,
    /// The path does not end at the query target.
    WrongTarget,
    /// The path exceeds the hop constraint.
    TooLong {
        /// Actual number of hops.
        hops: usize,
    },
    /// The path repeats a vertex.
    NotSimple,
    /// A consecutive pair of vertices is not an edge of the graph.
    MissingEdge {
        /// Source of the missing edge.
        from: VertexId,
        /// Target of the missing edge.
        to: VertexId,
    },
    /// The same path appears more than once in the result set.
    Duplicate,
}

/// Validates a full result set against the query `(s, t, k)` on graph `g`.
///
/// Returns the list of `(path index, violation)` pairs; empty means the result
/// is a well-formed set of s-t k-hop simple paths (it does *not* check that
/// the set is complete — completeness is established in tests by comparing
/// independent algorithms).
pub fn validate_result(
    g: &CsrGraph,
    s: VertexId,
    t: VertexId,
    k: usize,
    paths: &[Path],
) -> Vec<(usize, PathViolation)> {
    let mut violations = Vec::new();
    let mut seen: HashSet<&[VertexId]> = HashSet::with_capacity(paths.len());
    for (i, p) in paths.iter().enumerate() {
        if p.is_empty() {
            violations.push((i, PathViolation::Empty));
            continue;
        }
        if p[0] != s {
            violations.push((i, PathViolation::WrongSource));
        }
        if *p.last().expect("non-empty") != t {
            violations.push((i, PathViolation::WrongTarget));
        }
        if path_len(p) > k {
            violations.push((i, PathViolation::TooLong { hops: path_len(p) }));
        }
        if !is_simple(p) {
            violations.push((i, PathViolation::NotSimple));
        }
        for w in p.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                violations.push((i, PathViolation::MissingEdge { from: w[0], to: w[1] }));
            }
        }
        if !seen.insert(p.as_slice()) {
            violations.push((i, PathViolation::Duplicate));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    fn v(ids: &[u32]) -> Path {
        ids.iter().map(|&x| VertexId(x)).collect()
    }

    #[test]
    fn simple_and_length_checks() {
        assert!(is_simple(&v(&[0, 1, 2])));
        assert!(!is_simple(&v(&[0, 1, 0])));
        assert_eq!(path_len(&v(&[0, 1, 2])), 2);
        assert_eq!(path_len(&v(&[0])), 0);
        assert_eq!(path_len(&[]), 0);
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let paths = vec![v(&[0, 2, 3]), v(&[0, 1, 3]), v(&[0, 2, 3])];
        let c = canonicalize(paths);
        assert_eq!(c, vec![v(&[0, 1, 3]), v(&[0, 2, 3])]);
    }

    #[test]
    fn validate_accepts_a_correct_result() {
        let g = diamond();
        let paths = vec![v(&[0, 1, 3]), v(&[0, 2, 3])];
        assert!(validate_result(&g, VertexId(0), VertexId(3), 3, &paths).is_empty());
    }

    #[test]
    fn validate_flags_every_kind_of_problem() {
        let g = diamond();
        let paths = vec![
            vec![],              // empty
            v(&[1, 3]),          // wrong source
            v(&[0, 1]),          // wrong target
            v(&[0, 1, 3]),       // fine
            v(&[0, 1, 3]),       // duplicate
            v(&[0, 3]),          // missing edge
            v(&[0, 1, 0, 1, 3]), // not simple (and missing edge 1->0? no, 1->0 missing too)
        ];
        let violations = validate_result(&g, VertexId(0), VertexId(3), 2, &paths);
        let kinds: Vec<_> = violations.iter().map(|(i, k)| (*i, k.clone())).collect();
        assert!(kinds.contains(&(0, PathViolation::Empty)));
        assert!(kinds.contains(&(1, PathViolation::WrongSource)));
        assert!(kinds.contains(&(2, PathViolation::WrongTarget)));
        assert!(kinds.contains(&(4, PathViolation::Duplicate)));
        assert!(kinds
            .iter()
            .any(|(i, k)| *i == 5 && matches!(k, PathViolation::MissingEdge { .. })));
        assert!(kinds.iter().any(|(i, k)| *i == 6 && matches!(k, PathViolation::NotSimple)));
        assert!(kinds
            .iter()
            .any(|(i, k)| *i == 6 && matches!(k, PathViolation::TooLong { hops: 4 })));
    }

    #[test]
    fn hop_constraint_boundary_is_inclusive() {
        let g = diamond();
        let paths = vec![v(&[0, 1, 3])];
        assert!(validate_result(&g, VertexId(0), VertexId(3), 2, &paths).is_empty());
        assert!(!validate_result(&g, VertexId(0), VertexId(3), 1, &paths).is_empty());
    }
}
