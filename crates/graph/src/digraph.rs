//! Directed graphs over vertices `0..n`, stored in compressed sparse row
//! (CSR) form.
//!
//! The communication graph induced by an antenna orientation is directed: a
//! sensor `u` reaches `v` when `v` lies inside one of `u`'s sectors, but not
//! necessarily vice versa.  [`DiGraph`] stores such graphs and answers the
//! reachability / strong-connectivity queries the verification layer needs.
//!
//! # Memory layout
//!
//! A digraph is four flat vectors — `out_offsets`/`out_targets` and
//! `in_offsets`/`in_targets` — one offset array and one target array per
//! direction.  The out-neighbours of `u` are the contiguous slice
//! `out_targets[out_offsets[u] .. out_offsets[u + 1]]`, so a traversal walks
//! one cache-friendly array instead of chasing `Vec<Vec<_>>` spines, and
//! [`DiGraph::out_neighbors`] / [`DiGraph::in_neighbors`] are free slices.
//! Vertex ids are stored as `u32` (half the memory of `usize` adjacency
//! lists; a digraph is limited to `u32::MAX` vertices and edges, far above
//! anything the experiments build).  Storing *both* directions means strong
//! connectivity runs its backward pass directly on the in-CSR — no
//! materialized [`DiGraph::reversed`] copy on the hot path.
//!
//! # Construction
//!
//! CSR is a frozen layout, so bulk construction goes through O(n + m)
//! counting builders — [`DiGraph::from_adjacency`], [`DiGraph::from_edges`],
//! [`DiGraph::from_csr`] — that deduplicate with an epoch array instead of
//! the per-insert `contains` scan the old adjacency-list representation
//! paid.  The one-off [`DiGraph::add_edge`] is kept for tests and small
//! hand-built graphs; it splices into the flat arrays and costs O(n + m)
//! per call, which is exactly why production builders assemble rows first.
//!
//! # Invariants
//!
//! * Out-adjacency rows preserve the order edges were supplied in (first
//!   occurrence wins; duplicates and self-loops are ignored).
//! * In-adjacency rows list sources in ascending order — a canonical form
//!   that every builder (and `add_edge`) maintains, so the in-CSR is a pure
//!   function of the out-CSR.
//! * Equality is structural *including out-adjacency order*: two digraphs
//!   compare equal iff every vertex lists the same out-neighbours in the
//!   same order.  The verification layer relies on this to assert that its
//!   kd-tree and dense induced-digraph builders are bit-identical.
//!
//! Allocation-free traversal kernels over this layout (with optional vertex
//! masks) live in [`crate::traversal`]; the pre-CSR `Vec<Vec<usize>>`
//! implementation is preserved verbatim in [`crate::reference`] as the
//! property-test oracle and benchmark baseline.

use serde::{Deserialize, Serialize};

use crate::traversal::TraversalScratch;

/// A directed graph in compressed sparse row form (see the module docs for
/// the layout and its invariants).
///
/// Serialization note: like the rest of this workspace's derived types, the
/// serde impls are structural — deserializing a hand-crafted payload does
/// not re-validate the CSR invariants (monotonic offsets, in-CSR derived
/// from the out-CSR).  Payloads are trusted round-trip artifacts of this
/// crate, not an untrusted-input boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiGraph {
    /// `out_offsets[u] .. out_offsets[u + 1]` indexes `out_targets`; length
    /// `n + 1`.
    out_offsets: Vec<u32>,
    /// Concatenated out-adjacency rows (row order = edge-supply order).
    out_targets: Vec<u32>,
    /// `in_offsets[v] .. in_offsets[v + 1]` indexes `in_targets`; length
    /// `n + 1`.
    in_offsets: Vec<u32>,
    /// Concatenated in-adjacency rows (each row ascending by source).
    in_targets: Vec<u32>,
}

impl Default for DiGraph {
    fn default() -> Self {
        DiGraph::new(0)
    }
}

/// Equality is ordered-structural on the out-CSR.  The in-CSR is a pure
/// function of the out-CSR (canonical ascending rows), so comparing it would
/// be redundant work.
impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.out_offsets == other.out_offsets && self.out_targets == other.out_targets
    }
}

impl Eq for DiGraph {}

impl DiGraph {
    /// Creates a digraph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 capacity");
        DiGraph {
            out_offsets: vec![0; n + 1],
            out_targets: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_targets: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Returns `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Adds the directed edge `u → v` (duplicates and self-loops are
    /// ignored).
    ///
    /// CSR is a frozen layout, so this splices into the flat arrays at
    /// O(n + m) per call.  It exists for tests and small hand-built graphs;
    /// bulk construction must go through [`DiGraph::from_adjacency`],
    /// [`DiGraph::from_edges`] or [`DiGraph::from_csr`], which build in
    /// O(n + m) *total*.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.len() && v < self.len(),
            "edge endpoint out of range"
        );
        if u == v || self.has_edge(u, v) {
            return;
        }
        assert!(
            self.out_targets.len() < u32::MAX as usize,
            "edge count exceeds u32 capacity"
        );
        // Append v at the end of u's out row (preserving supply order).
        self.out_targets
            .insert(self.out_offsets[u + 1] as usize, v as u32);
        for off in &mut self.out_offsets[u + 1..] {
            *off += 1;
        }
        // Insert u into v's in row keeping the canonical ascending order.
        let row_start = self.in_offsets[v] as usize;
        let row_end = self.in_offsets[v + 1] as usize;
        let row = &self.in_targets[row_start..row_end];
        let pos = row_start + row.partition_point(|&w| w < u as u32);
        self.in_targets.insert(pos, u as u32);
        for off in &mut self.in_offsets[v + 1..] {
            *off += 1;
        }
    }

    /// Builds a digraph over `n` vertices from per-vertex out-adjacency
    /// rows: row `u` of `rows` lists the out-neighbours of vertex `u`.
    ///
    /// `rows` may yield fewer than `n` rows (remaining vertices stay
    /// isolated) but never more.  Duplicate neighbours and self-loops are
    /// ignored exactly as [`DiGraph::add_edge`] ignores them, and neighbour
    /// order within each row is preserved — feeding this builder the rows of
    /// an existing digraph reproduces it bit-for-bit.  This is the bridge
    /// the sub-quadratic verification engine uses: candidate neighbour lists
    /// are computed per sensor (possibly in parallel) and assembled here in
    /// one deterministic O(n + m) counting pass (per-row deduplication uses
    /// an epoch array, not a linear scan per edge).
    pub fn from_adjacency<I>(n: usize, rows: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = usize>,
    {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 capacity");
        let mut out_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        out_offsets.push(0);
        let mut out_targets: Vec<u32> = Vec::new();
        // seen[v] == row epoch  ⇔  v already appeared in the current row.
        let mut seen: Vec<u32> = vec![0; n];
        for (u, row) in rows.into_iter().enumerate() {
            assert!(u < n, "more adjacency rows than vertices");
            let epoch = u as u32 + 1;
            for v in row {
                assert!(v < n, "edge endpoint out of range");
                if v == u || seen[v] == epoch {
                    continue;
                }
                seen[v] = epoch;
                out_targets.push(v as u32);
            }
            assert!(
                out_targets.len() < u32::MAX as usize,
                "edge count exceeds u32 capacity"
            );
            out_offsets.push(out_targets.len() as u32);
        }
        out_offsets.resize(n + 1, out_targets.len() as u32);
        Self::from_out_csr(out_offsets, out_targets)
    }

    /// Builds a digraph over `n` vertices from a flat edge list, in
    /// O(n + m) total (stable counting sort by source, then the same
    /// epoch-array deduplication as [`DiGraph::from_adjacency`]).
    ///
    /// Equivalent to calling [`DiGraph::add_edge`] for each pair in order —
    /// per-source adjacency order follows the edge list order, duplicates
    /// and self-loops are ignored — without the quadratic cost.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 capacity");
        assert!(
            edges.len() < u32::MAX as usize,
            "edge count exceeds u32 capacity"
        );
        // Stable counting sort of the targets by source vertex.
        let mut counts: Vec<u32> = vec![0; n + 1];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            counts[u + 1] += 1;
        }
        for u in 0..n {
            counts[u + 1] += counts[u];
        }
        let mut grouped: Vec<u32> = vec![0; edges.len()];
        let mut cursor = counts.clone();
        for &(u, v) in edges {
            grouped[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
        }
        // `counts` is now exactly the offset array of the grouped rows.
        Self::from_csr(n, counts, grouped)
    }

    /// Builds a digraph directly from pre-assembled CSR parts: `offsets`
    /// must have length `rows + 1` for some `rows ≤ n` (remaining vertices
    /// stay isolated), be non-decreasing, start at 0 and end at
    /// `targets.len()`; row `u` of `targets` lists the out-neighbours of
    /// `u`.  Duplicates and self-loops within a row are ignored (epoch-array
    /// deduplication), so a caller that already produces clean rows — the
    /// verification engine's per-sensor candidate lists — pays one O(n + m)
    /// validation-and-assembly pass and no intermediate `Vec<Vec<_>>`.
    ///
    /// Panics when the offsets are malformed or a target is out of range.
    pub fn from_csr(n: usize, mut offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 capacity");
        assert!(
            !offsets.is_empty() && offsets.len() <= n + 1,
            "offsets must cover between 0 and n rows"
        );
        assert!(offsets[0] == 0, "offsets must start at 0");
        assert!(
            *offsets.last().unwrap() as usize == targets.len(),
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        offsets.resize(n + 1, targets.len() as u32);
        // One validation pass with an epoch array.  Engine-produced rows are
        // already clean (no duplicates, no self-loops), in which case the
        // caller's arrays are adopted as-is; only dirty input pays the
        // dedup copy that keeps the add_edge semantics exact.
        let mut seen: Vec<u32> = vec![0; n];
        let mut clean = true;
        'scan: for u in 0..n {
            let epoch = u as u32 + 1;
            for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                assert!((v as usize) < n, "edge endpoint out of range");
                if v as usize == u || seen[v as usize] == epoch {
                    clean = false;
                    break 'scan;
                }
                seen[v as usize] = epoch;
            }
        }
        if clean {
            return Self::from_out_csr(offsets, targets);
        }
        let mut clean_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        clean_offsets.push(0);
        let mut clean_targets: Vec<u32> = Vec::with_capacity(targets.len());
        seen.fill(0);
        for u in 0..n {
            let epoch = u as u32 + 1;
            for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                if v as usize == u || seen[v as usize] == epoch {
                    continue;
                }
                seen[v as usize] = epoch;
                clean_targets.push(v);
            }
            clean_offsets.push(clean_targets.len() as u32);
        }
        Self::from_out_csr(clean_offsets, clean_targets)
    }

    /// Completes a digraph from validated, deduplicated out-CSR parts by
    /// deriving the canonical in-CSR with one counting pass.
    fn from_out_csr(out_offsets: Vec<u32>, out_targets: Vec<u32>) -> Self {
        assert!(
            out_targets.len() < u32::MAX as usize,
            "edge count exceeds u32 capacity"
        );
        let n = out_offsets.len() - 1;
        let mut in_offsets: Vec<u32> = vec![0; n + 1];
        for &v in &out_targets {
            in_offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut in_targets: Vec<u32> = vec![0; out_targets.len()];
        let mut cursor = in_offsets.clone();
        // Scanning sources in ascending order makes every in row ascending.
        for u in 0..n {
            for &v in &out_targets[out_offsets[u] as usize..out_offsets[u + 1] as usize] {
                in_targets[cursor[v as usize] as usize] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        }
    }

    /// Returns `true` when the edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.out_neighbors(u).contains(&(v as u32))
    }

    /// Out-neighbours of `u`, as a contiguous slice of the CSR target array.
    pub fn out_neighbors(&self, u: usize) -> &[u32] {
        &self.out_targets[self.out_offsets[u] as usize..self.out_offsets[u + 1] as usize]
    }

    /// In-neighbours of `u` (ascending by source), as a contiguous slice of
    /// the CSR target array.
    pub fn in_neighbors(&self, u: usize) -> &[u32] {
        &self.in_targets[self.in_offsets[u] as usize..self.in_offsets[u + 1] as usize]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        (self.out_offsets[u + 1] - self.out_offsets[u]) as usize
    }

    /// All directed edges as `(u, v)` pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.len() {
            for &v in self.out_neighbors(u) {
                out.push((u, v as usize));
            }
        }
        out
    }

    /// Number of vertices reachable from `start` (including itself).
    pub fn reachable_count(&self, start: usize) -> usize {
        if start >= self.len() {
            return 0;
        }
        TraversalScratch::new().reachable_count(self, start, None)
    }

    /// The reverse digraph (every edge flipped).
    ///
    /// Out rows of the reverse list targets in ascending order (they are the
    /// canonical in rows of `self`).  Note that strong-connectivity checks no
    /// longer need this: the in-CSR is stored, so backward traversals run on
    /// `self` directly.
    pub fn reversed(&self) -> DiGraph {
        // The in-CSR is already the reverse out-CSR; rebuild the reverse's
        // own in side so its canonical-ascending invariant holds.
        Self::from_out_csr(self.in_offsets.clone(), self.in_targets.clone())
    }

    /// Returns `true` when the digraph is strongly connected.
    ///
    /// The empty digraph and the single-vertex digraph are considered
    /// strongly connected.  This check runs two BFS passes — forward on the
    /// out-CSR and backward on the stored in-CSR (no reverse copy).  For SCC
    /// decompositions see [`crate::scc`]; for repeated or masked queries
    /// reuse a [`TraversalScratch`].
    pub fn is_strongly_connected(&self) -> bool {
        self.len() <= 1 || TraversalScratch::new().is_strongly_connected(self, None)
    }

    /// BFS hop distances from `start` (`None` where unreachable).
    ///
    /// Allocating convenience wrapper over
    /// [`TraversalScratch::hop_distances`].
    pub fn hop_distances(&self, start: usize) -> Vec<Option<usize>> {
        if start >= self.len() {
            return vec![None; self.len()];
        }
        let mut scratch = TraversalScratch::new();
        scratch
            .hop_distances(self, start, None)
            .iter()
            .map(|&d| (d != u32::MAX).then_some(d as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> DiGraph {
        DiGraph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn add_edge_and_queries() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 1); // duplicate ignored
        g.add_edge(2, 2); // self loop ignored
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_neighbors(2), &[1]);
        assert_eq!(g.out_neighbors(1), &[2]);
        assert_eq!(g.in_neighbors(1), &[0]);
    }

    #[test]
    fn from_adjacency_reproduces_incremental_construction() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 2);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        // Same rows, same order → structurally equal (vertex 1 and 3 rows
        // may be omitted entirely).
        let built = DiGraph::from_adjacency(4, vec![vec![0, 2, 1], vec![], vec![3, 2]]);
        assert_eq!(built, g);
        // A different neighbour order is a different structure.
        let reordered = DiGraph::from_adjacency(4, vec![vec![1, 2], vec![], vec![3]]);
        assert_ne!(reordered, g);
        assert_eq!(reordered.edges().len(), g.edges().len());
    }

    #[test]
    fn from_edges_matches_add_edge_sequence() {
        let pairs = [(2usize, 0usize), (0, 2), (0, 1), (0, 2), (1, 1), (3, 0)];
        let mut incremental = DiGraph::new(4);
        for &(u, v) in &pairs {
            incremental.add_edge(u, v);
        }
        let bulk = DiGraph::from_edges(4, &pairs);
        assert_eq!(bulk, incremental);
        assert_eq!(bulk.edge_count(), 4);
        assert_eq!(bulk.out_neighbors(0), &[2, 1]);
        assert_eq!(bulk.in_neighbors(0), &[2, 3]);
    }

    #[test]
    fn from_csr_accepts_clean_and_messy_rows() {
        // Clean rows pass straight through.
        let g = DiGraph::from_csr(3, vec![0, 2, 3, 3], vec![1, 2, 2]);
        assert_eq!(g, DiGraph::from_adjacency(3, vec![vec![1, 2], vec![2]]));
        // Duplicates and self-loops are dropped exactly like add_edge.
        let messy = DiGraph::from_csr(3, vec![0, 4, 5, 5], vec![1, 0, 1, 2, 2]);
        assert_eq!(messy, g);
        // Short offset arrays leave the remaining vertices isolated.
        let short = DiGraph::from_csr(3, vec![0, 1], vec![2]);
        assert_eq!(short.edge_count(), 1);
        assert!(short.has_edge(0, 2));
    }

    #[test]
    #[should_panic(expected = "offsets must be non-decreasing")]
    fn from_csr_rejects_malformed_offsets() {
        let _ = DiGraph::from_csr(3, vec![0, 2, 1, 2], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "more adjacency rows than vertices")]
    fn from_adjacency_rejects_extra_rows() {
        let _ = DiGraph::from_adjacency(1, vec![vec![], vec![0]]);
    }

    #[test]
    fn directed_cycle_is_strongly_connected() {
        assert!(cycle(5).is_strongly_connected());
    }

    #[test]
    fn path_is_not_strongly_connected() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn trivial_graphs_are_strongly_connected() {
        assert!(DiGraph::new(0).is_strongly_connected());
        assert!(DiGraph::new(1).is_strongly_connected());
        assert!(!DiGraph::new(2).is_strongly_connected());
    }

    #[test]
    fn reachability_and_hops() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        // vertex 3 unreachable
        assert_eq!(g.reachable_count(0), 3);
        let d = g.hop_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None]);
        // Out-of-range starts are all-unreachable, not a panic.
        assert_eq!(g.reachable_count(9), 0);
        assert_eq!(g.hop_distances(9), vec![None; 4]);
    }

    #[test]
    fn reversed_flips_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let r = g.reversed();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 1));
        assert!(!r.has_edge(0, 1));
        assert_eq!(r.edge_count(), 2);
        // Double reversal restores the original edge set (rows may be
        // reordered into the canonical ascending form).
        let rr = r.reversed();
        let mut original = g.edges();
        original.sort_unstable();
        let mut back = rr.edges();
        back.sort_unstable();
        assert_eq!(back, original);
    }

    #[test]
    fn edges_listing() {
        let g = cycle(3);
        let mut e = g.edges();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn strongly_connected_after_adding_back_edge() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(!g.is_strongly_connected());
        g.add_edge(3, 0);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn in_rows_stay_ascending_under_every_builder() {
        let edges = [(3usize, 1usize), (0, 1), (2, 1), (1, 0), (3, 0)];
        let mut incremental = DiGraph::new(4);
        for &(u, v) in &edges {
            incremental.add_edge(u, v);
        }
        for g in [&incremental, &DiGraph::from_edges(4, &edges)] {
            assert_eq!(g.in_neighbors(1), &[0, 2, 3]);
            assert_eq!(g.in_neighbors(0), &[1, 3]);
        }
    }
}
