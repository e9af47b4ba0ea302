//! Strong c-connectivity (fault tolerance) of directed graphs.
//!
//! The paper's conclusion poses as an open problem "ensuring that for a given
//! integer `c` the resulting network is strongly c-connected, i.e., it
//! remains strongly connected after the deletion of any `c − 1` nodes".  This
//! module provides the measurement side of that question: exact (exhaustive)
//! checks of strong c-connectivity for the small `c` values of interest
//! (`c ≤ 3`), used by the EXP-CC experiment to quantify how fault tolerant
//! the paper's orientations actually are.
//!
//! Every check runs on the **masked traversal kernels**
//! ([`crate::traversal::TraversalScratch`]): candidate fault sets are
//! toggled in a [`VertexMask`] and probed in place on the original CSR —
//! one scratch, zero allocations per probe — instead of materializing a
//! re-indexed subgraph per candidate as [`remove_vertices`] does.
//! `remove_vertices` is kept for callers that genuinely need the subgraph
//! (and as the baseline the `traversal` bench measures the mask win
//! against).

use crate::digraph::DiGraph;
use crate::traversal::{TraversalScratch, VertexMask};

/// Returns the digraph obtained by deleting the given vertices (edges
/// incident to them disappear; the remaining vertices are re-indexed in
/// increasing order of their original index).
///
/// This materializes a new CSR digraph in O(n + m); fault sweeps that only
/// need connectivity verdicts should use the masked kernels instead (see
/// [`is_strongly_c_connected`], [`critical_vertices`]).
pub fn remove_vertices(g: &DiGraph, removed: &[usize]) -> DiGraph {
    let n = g.len();
    let mut keep = vec![true; n];
    for &r in removed {
        if r < n {
            keep[r] = false;
        }
    }
    // Map old indices to new ones.
    let mut new_index = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if keep[v] {
            new_index[v] = next;
            next += 1;
        }
    }
    // One flat counting pass: surviving rows, filtered and re-indexed.
    let mut offsets: Vec<u32> = Vec::with_capacity(next as usize + 1);
    offsets.push(0);
    let mut targets: Vec<u32> = Vec::new();
    for u in 0..n {
        if !keep[u] {
            continue;
        }
        for &v in g.out_neighbors(u) {
            if keep[v as usize] {
                targets.push(new_index[v as usize]);
            }
        }
        offsets.push(targets.len() as u32);
    }
    DiGraph::from_csr(next as usize, offsets, targets)
}

/// Returns `true` when `g` remains strongly connected after deleting **any**
/// set of at most `c − 1` vertices (i.e. `g` is strongly `c`-connected).
///
/// The check is exhaustive over all subsets of size `c − 1`; it is intended
/// for the small `c` (1, 2, 3) the experiments use.  A graph with `n ≤ c`
/// vertices is considered strongly `c`-connected iff it is strongly
/// connected (the removal would leave at most one vertex).  Each subset is
/// probed through one reusable [`TraversalScratch`] and [`VertexMask`] —
/// no per-subset subgraph clone.
pub fn is_strongly_c_connected(g: &DiGraph, c: usize) -> bool {
    if c == 0 {
        return true;
    }
    let mut scratch = TraversalScratch::new();
    if !(g.len() <= 1 || scratch.is_strongly_connected(g, None)) {
        return false;
    }
    let n = g.len();
    let faults = c - 1;
    if faults == 0 || n <= c {
        return true;
    }
    let mut mask = VertexMask::new(n);
    subsets_survive(g, 0, faults, &mut mask, &mut scratch)
}

fn subsets_survive(
    g: &DiGraph,
    start: usize,
    remaining: usize,
    mask: &mut VertexMask,
    scratch: &mut TraversalScratch,
) -> bool {
    if remaining == 0 {
        return scratch.is_strongly_connected(g, Some(mask));
    }
    for v in start..g.len() {
        mask.remove(v);
        let ok = subsets_survive(g, v + 1, remaining - 1, mask, scratch);
        mask.restore(v);
        if !ok {
            return false;
        }
    }
    true
}

/// The vertices whose individual removal leaves a digraph that is not
/// strongly connected ("critical sensors" in the EXP-CC experiment), in
/// ascending order.
///
/// Returns the empty vector when `g` is not strongly connected to begin
/// with (every vertex is then equally useless to probe) or has at most two
/// vertices.  One CSR, one scratch, `n` masked two-pass probes.
pub fn critical_vertices(g: &DiGraph) -> Vec<usize> {
    let n = g.len();
    let mut scratch = TraversalScratch::new();
    if n <= 2 || !scratch.is_strongly_connected(g, None) {
        return Vec::new();
    }
    let mut mask = VertexMask::new(n);
    let mut critical = Vec::new();
    for v in 0..n {
        mask.remove(v);
        if !scratch.is_strongly_connected(g, Some(&mask)) {
            critical.push(v);
        }
        mask.restore(v);
    }
    critical
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::is_strongly_connected;

    fn directed_cycle(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    fn bidirectional_complete(n: usize) -> DiGraph {
        DiGraph::from_adjacency(n, (0..n).map(|u| (0..n).filter(move |&v| v != u)))
    }

    #[test]
    fn remove_vertices_reindexes_consistently() {
        let g = directed_cycle(5);
        let reduced = remove_vertices(&g, &[2]);
        assert_eq!(reduced.len(), 4);
        // The cycle is broken: 1 (old) can no longer reach 3 (old).
        assert!(!is_strongly_connected(&reduced));
        // Removing nothing is the identity up to re-indexing.
        let same = remove_vertices(&g, &[]);
        assert_eq!(same.len(), 5);
        assert!(is_strongly_connected(&same));
    }

    #[test]
    fn a_simple_cycle_is_exactly_strongly_1_connected() {
        let g = directed_cycle(6);
        assert!(is_strongly_c_connected(&g, 1));
        assert!(!is_strongly_c_connected(&g, 2));
        // Every vertex of a bare cycle is critical.
        assert_eq!(critical_vertices(&g), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn complete_digraph_is_highly_connected() {
        let g = bidirectional_complete(6);
        assert!(is_strongly_c_connected(&g, 1));
        assert!(is_strongly_c_connected(&g, 2));
        assert!(is_strongly_c_connected(&g, 3));
        assert!(critical_vertices(&g).is_empty());
    }

    #[test]
    fn disconnected_graph_has_zero_connectivity() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        assert!(!is_strongly_c_connected(&g, 1));
        assert!(critical_vertices(&g).is_empty());
    }

    #[test]
    fn two_cycles_sharing_one_vertex_have_a_cut_vertex() {
        // Vertex 0 is shared by two directed triangles; removing it
        // disconnects them.
        let mut g = DiGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(0, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 0);
        assert!(is_strongly_c_connected(&g, 1));
        assert!(!is_strongly_c_connected(&g, 2));
        // Removing any single triangle vertex breaks the directed cycle it
        // belongs to, so every vertex is critical here.
        assert_eq!(critical_vertices(&g), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tiny_graphs_and_c_zero() {
        assert!(is_strongly_c_connected(&DiGraph::new(1), 3));
        assert!(is_strongly_c_connected(&DiGraph::new(0), 2));
        let g = directed_cycle(2);
        assert!(is_strongly_c_connected(&g, 2)); // n ≤ c
        assert!(is_strongly_c_connected(&g, 0));
        assert!(critical_vertices(&g).is_empty());
    }

    #[test]
    fn masked_checks_agree_with_materialized_subgraphs() {
        // Cross-check the mask path against remove_vertices on a digraph
        // with both redundant and critical structure.
        let mut g = bidirectional_complete(4);
        // Attach a pendant cycle through vertex 0: 0 → 4 → 5 → 0.
        let mut edges = g.edges();
        edges.extend([(0, 4), (4, 5), (5, 0)]);
        g = DiGraph::from_edges(6, &edges);
        for v in 0..g.len() {
            let masked_breaks = critical_vertices(&g).contains(&v);
            let clone_breaks = !is_strongly_connected(&remove_vertices(&g, &[v]));
            assert_eq!(masked_breaks, clone_breaks, "vertex {v}");
        }
    }
}
