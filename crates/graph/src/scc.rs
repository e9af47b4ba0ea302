//! Strongly connected components.
//!
//! Three entry points at different cost/detail trade-offs:
//!
//! * [`TraversalScratch::scc_summary`] — a masked, allocation-free Tarjan
//!   pass returning only component count and largest size (what the
//!   verification report needs), reusing the shared traversal scratch;
//!   [`TraversalScratch::scc_summary_rows`] runs the same loop over
//!   id-space rows with an aliveness predicate.
//! * [`tarjan_scc`] — full decomposition (iterative Tarjan, production
//!   paths that need the components themselves).
//! * [`kosaraju_scc`] — a second, independent implementation kept as a
//!   cross-check in tests and for callers that want the components in
//!   reverse topological order of the condensation.

use crate::digraph::DiGraph;
use crate::traversal::{alive, debug_assert_mask_matches, TraversalScratch, VertexMask};

/// Component count and largest component size, as computed by one masked
/// Tarjan pass ([`TraversalScratch::scc_summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SccSummary {
    /// Number of strongly connected components of the alive subgraph.
    pub count: usize,
    /// Size of the largest component (0 when no vertex is alive).
    pub largest: usize,
}

impl SccSummary {
    /// Returns `true` when the summarized (sub)graph of `alive_vertices`
    /// vertices is strongly connected (trivially true for 0 or 1 vertices).
    pub fn is_strongly_connected(&self, alive_vertices: usize) -> bool {
        alive_vertices <= 1 || self.count == 1
    }
}

impl TraversalScratch {
    /// Computes the SCC count and largest component size of the alive
    /// subgraph of `g` in one iterative Tarjan pass, without materializing
    /// the components — zero steady-state allocation (the Tarjan buffers
    /// live in the scratch).
    ///
    /// Masked-out vertices are skipped entirely; results are over alive
    /// vertices only.
    pub fn scc_summary(&mut self, g: &DiGraph, mask: Option<&VertexMask>) -> SccSummary {
        debug_assert_mask_matches(g, mask);
        self.tarjan_summary(g.len(), |v| g.out_neighbors(v), |v| alive(mask, v))
    }

    /// [`TraversalScratch::scc_summary`] over an **adjacency-list digraph**
    /// (`rows[v]` = out-neighbors of `v`) with an aliveness predicate,
    /// instead of a materialized CSR [`DiGraph`] with a [`VertexMask`].
    ///
    /// This is the form incremental maintainers want: they keep rows in a
    /// stable id space with tombstoned entries, and re-checking strong
    /// connectivity after an edit should not pay an O(n + m) dense
    /// re-indexing first.  Dead vertices are skipped exactly like
    /// masked-out ones; results equal `scc_summary` on the equivalent
    /// subgraph (component count and largest size are graph invariants,
    /// independent of visit order).
    pub fn scc_summary_rows<F: Fn(usize) -> bool>(
        &mut self,
        rows: &[Vec<u32>],
        alive: F,
    ) -> SccSummary {
        self.tarjan_summary(rows.len(), |v| rows[v].as_slice(), alive)
    }

    /// The one Tarjan summary loop behind both public entry points: `out(v)`
    /// lists the out-neighbours of vertex `v < n`, and vertices for which
    /// `alive` returns `false` are skipped, as starts and as targets.
    fn tarjan_summary<'g, R, A>(&mut self, n: usize, out: R, alive: A) -> SccSummary
    where
        R: Fn(usize) -> &'g [u32],
        A: Fn(usize) -> bool,
    {
        self.begin(n);
        let mut next_index: u32 = 0;
        let mut count = 0usize;
        let mut largest = 0usize;
        for start in 0..n {
            if self.is_marked(start as u32) || !alive(start) {
                continue;
            }
            self.call.push((start as u32, 0));
            while let Some(&mut (v, ref mut child_pos)) = self.call.last_mut() {
                let v_us = v as usize;
                if *child_pos == 0 {
                    self.visited[v_us] = self.epoch;
                    self.value[v_us] = next_index;
                    self.low[v_us] = next_index;
                    next_index += 1;
                    self.stack.push(v);
                    self.on_stack[v_us] = true;
                }
                let out = out(v_us);
                if (*child_pos as usize) < out.len() {
                    let w = out[*child_pos as usize];
                    *child_pos += 1;
                    let w_us = w as usize;
                    if !alive(w_us) {
                        continue;
                    }
                    if self.visited[w_us] != self.epoch {
                        self.call.push((w, 0));
                    } else if self.on_stack[w_us] {
                        self.low[v_us] = self.low[v_us].min(self.value[w_us]);
                    }
                } else {
                    // Finished v.
                    self.call.pop();
                    if let Some(&(parent, _)) = self.call.last() {
                        let p = parent as usize;
                        self.low[p] = self.low[p].min(self.low[v_us]);
                    }
                    if self.low[v_us] == self.value[v_us] {
                        let mut size = 0usize;
                        loop {
                            let w = self.stack.pop().expect("tarjan stack underflow");
                            self.on_stack[w as usize] = false;
                            size += 1;
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                        largest = largest.max(size);
                    }
                }
            }
        }
        SccSummary { count, largest }
    }
}

/// Computes the SCC count and largest component size of `g` with a
/// throwaway scratch; loops over many graphs or masks should hold a
/// [`TraversalScratch`] and call [`TraversalScratch::scc_summary`] directly.
pub fn scc_summary(g: &DiGraph) -> SccSummary {
    TraversalScratch::new().scc_summary(g, None)
}

/// Computes the strongly connected components of `g` using an iterative
/// version of Tarjan's algorithm.
///
/// Returns the list of components; each component is a sorted list of vertex
/// indices.  Components are emitted in reverse topological order of the
/// condensation (i.e. a component is emitted only after every component it
/// can reach).
pub fn tarjan_scc(g: &DiGraph) -> Vec<Vec<usize>> {
    let n = g.len();
    let mut index = vec![u32::MAX; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack of (vertex, next-child-position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != u32::MAX {
            continue;
        }
        call_stack.push((start, 0));
        while let Some(&mut (v, ref mut child_pos)) = call_stack.last_mut() {
            if *child_pos == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let out = g.out_neighbors(v);
            if *child_pos < out.len() {
                let w = out[*child_pos] as usize;
                *child_pos += 1;
                if index[w] == u32::MAX {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // Finished v.
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
            }
        }
    }
    components
}

/// Computes the strongly connected components of `g` using Kosaraju's
/// algorithm.  Returned components are sorted internally; the component order
/// follows the finishing order of the first DFS pass.
///
/// The second pass walks the digraph's stored in-CSR directly — no reversed
/// copy is materialized.
pub fn kosaraju_scc(g: &DiGraph) -> Vec<Vec<usize>> {
    let n = g.len();
    // First pass: order vertices by DFS finish time (iteratively).
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        visited[start] = true;
        while let Some(&mut (v, ref mut pos)) = stack.last_mut() {
            let out = g.out_neighbors(v);
            if *pos < out.len() {
                let w = out[*pos] as usize;
                *pos += 1;
                if !visited[w] {
                    visited[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Second pass: DFS against the edge direction (in-CSR) in reverse
    // finishing order.
    let mut assigned = vec![false; n];
    let mut components = Vec::new();
    for &start in order.iter().rev() {
        if assigned[start] {
            continue;
        }
        let mut component = Vec::new();
        let mut stack = vec![start];
        assigned[start] = true;
        while let Some(v) = stack.pop() {
            component.push(v);
            for &w in g.in_neighbors(v) {
                if !assigned[w as usize] {
                    assigned[w as usize] = true;
                    stack.push(w as usize);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// Number of strongly connected components of `g`.
pub fn scc_count(g: &DiGraph) -> usize {
    scc_summary(g).count
}

/// Returns `true` when the digraph consists of a single strongly connected
/// component covering every vertex (trivially true for 0 or 1 vertices).
pub fn is_strongly_connected(g: &DiGraph) -> bool {
    g.len() <= 1 || TraversalScratch::new().is_strongly_connected(g, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn normalize(mut sccs: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        sccs.sort();
        sccs
    }

    #[test]
    fn single_cycle_is_one_component() {
        let mut g = DiGraph::new(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        assert_eq!(tarjan_scc(&g).len(), 1);
        assert_eq!(kosaraju_scc(&g).len(), 1);
        assert!(is_strongly_connected(&g));
        assert_eq!(
            scc_summary(&g),
            SccSummary {
                count: 1,
                largest: 4
            }
        );
    }

    #[test]
    fn dag_has_singleton_components() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert_eq!(scc_count(&g), 4);
        assert!(!is_strongly_connected(&g));
        assert_eq!(scc_summary(&g).largest, 1);
    }

    #[test]
    fn two_cycles_connected_by_one_edge() {
        let mut g = DiGraph::new(6);
        // Cycle A: 0-1-2, Cycle B: 3-4-5, bridge 2 -> 3.
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 3);
        g.add_edge(2, 3);
        let sccs = normalize(tarjan_scc(&g));
        assert_eq!(sccs, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(normalize(kosaraju_scc(&g)), sccs);
        assert_eq!(
            scc_summary(&g),
            SccSummary {
                count: 2,
                largest: 3
            }
        );
    }

    #[test]
    fn tarjan_emits_reverse_topological_order() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let sccs = tarjan_scc(&g);
        // Sink component {3} must come first, source {0} last.
        assert_eq!(sccs.first().unwrap(), &vec![3]);
        assert_eq!(sccs.last().unwrap(), &vec![0]);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        assert_eq!(scc_count(&DiGraph::new(0)), 0);
        assert!(is_strongly_connected(&DiGraph::new(0)));
        assert_eq!(scc_count(&DiGraph::new(1)), 1);
        assert!(is_strongly_connected(&DiGraph::new(1)));
        assert_eq!(scc_count(&DiGraph::new(3)), 3);
        let empty = scc_summary(&DiGraph::new(0));
        assert!(empty.is_strongly_connected(0));
        assert_eq!(empty.largest, 0);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // The iterative implementations must handle long paths.
        let n = 200_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n, &edges);
        assert_eq!(scc_count(&g), n);
        assert_eq!(tarjan_scc(&g).len(), n);
    }

    #[test]
    fn masked_summary_matches_subgraph_decomposition() {
        // Two triangles sharing vertex 0.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let mut scratch = TraversalScratch::new();
        assert_eq!(
            scratch.scc_summary(&g, None),
            SccSummary {
                count: 1,
                largest: 5
            }
        );
        let mut mask = VertexMask::new(5);
        mask.remove(0);
        let masked = scratch.scc_summary(&g, Some(&mask));
        // Without the shared vertex both triangles fall apart into paths.
        assert_eq!(masked.count, 4);
        assert_eq!(masked.largest, 1);
        assert!(!masked.is_strongly_connected(4));
        // Masking everything yields the empty summary.
        for v in 1..5 {
            mask.remove(v);
        }
        let empty = scratch.scc_summary(&g, Some(&mask));
        assert_eq!(
            empty,
            SccSummary {
                count: 0,
                largest: 0
            }
        );
        assert!(empty.is_strongly_connected(0));
    }

    #[test]
    fn rows_kernel_matches_masked_csr_summary() {
        // Two triangles sharing vertex 0, vertex 5 dead with a stale row.
        let rows: Vec<Vec<u32>> = vec![vec![1, 3], vec![2], vec![0], vec![4], vec![0], vec![0, 2]];
        let alive = [true, true, true, true, true, false];
        let g = DiGraph::from_adjacency(6, rows.iter().map(|r| r.iter().map(|&v| v as usize)));
        let mut mask = VertexMask::new(6);
        mask.remove(5);
        let mut scratch = TraversalScratch::new();
        let dense = scratch.scc_summary(&g, Some(&mask));
        let sparse = scratch.scc_summary_rows(&rows, |v| alive[v]);
        assert_eq!(dense, sparse);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_rows_kernel_matches_masked_csr(
            n in 1usize..20,
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..80),
            dead in proptest::collection::vec(0usize..20, 0..6),
        ) {
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (u, v) in edges {
                if u < n && v < n && u != v {
                    rows[u].push(v as u32);
                }
            }
            for row in &mut rows {
                row.sort_unstable();
                row.dedup();
            }
            let g = DiGraph::from_adjacency(n, rows.iter().map(|r| r.iter().map(|&v| v as usize)));
            let mut mask = VertexMask::new(n);
            let mut alive = vec![true; n];
            for d in dead {
                if d < n {
                    mask.remove(d);
                    alive[d] = false;
                }
            }
            let mut scratch = TraversalScratch::new();
            let dense = scratch.scc_summary(&g, Some(&mask));
            let sparse = scratch.scc_summary_rows(&rows, |v| alive[v]);
            prop_assert_eq!(dense, sparse);
        }
        #[test]
        fn prop_tarjan_matches_kosaraju(n in 1usize..30, edges in proptest::collection::vec((0usize..30, 0usize..30), 0..120)) {
            let mut g = DiGraph::new(n);
            for (u, v) in edges {
                if u < n && v < n && u != v {
                    g.add_edge(u, v);
                }
            }
            prop_assert_eq!(normalize(tarjan_scc(&g)), normalize(kosaraju_scc(&g)));
        }

        #[test]
        fn prop_scc_agrees_with_digraph_check(n in 1usize..20, edges in proptest::collection::vec((0usize..20, 0usize..20), 0..80)) {
            let mut g = DiGraph::new(n);
            for (u, v) in edges {
                if u < n && v < n && u != v {
                    g.add_edge(u, v);
                }
            }
            prop_assert_eq!(is_strongly_connected(&g), g.is_strongly_connected());
        }

        #[test]
        fn prop_summary_matches_full_decomposition(n in 1usize..24, edges in proptest::collection::vec((0usize..24, 0usize..24), 0..96)) {
            let pairs: Vec<(usize, usize)> = edges.into_iter()
                .filter(|&(u, v)| u < n && v < n && u != v)
                .collect();
            let g = DiGraph::from_edges(n, &pairs);
            let full = tarjan_scc(&g);
            let summary = scc_summary(&g);
            prop_assert_eq!(summary.count, full.len());
            prop_assert_eq!(summary.largest, full.iter().map(|c| c.len()).max().unwrap_or(0));
        }
    }
}
