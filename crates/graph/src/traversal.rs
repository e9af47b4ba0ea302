//! Traversals: connectivity for undirected graphs, and allocation-free,
//! mask-aware kernels for CSR digraphs.
//!
//! # Digraph traversal kernels
//!
//! The post-orientation analysis layer (verification, flooding,
//! c-connectivity sweeps) runs *many* traversals over *one* digraph.  The
//! kernels here make that cheap along two axes:
//!
//! * **Scratch reuse** — every kernel borrows a [`TraversalScratch`] holding
//!   the visited stamps and queue/stack buffers.  Buffers are sized on first
//!   contact with a graph and then recycled: an epoch counter invalidates
//!   the visited stamps in O(1), so steady-state queries perform **zero heap
//!   allocations** (asserted by the allocation-counting test in
//!   `tests/traversal_alloc.rs`).
//! * **Vertex masks** — every kernel takes an optional [`VertexMask`] and
//!   simply skips masked-out vertices, so "is the graph still strongly
//!   connected after deleting v?" costs one traversal over the original CSR
//!   instead of materializing a re-indexed subgraph
//!   ([`crate::connectivity::remove_vertices`]) per candidate.  Results are
//!   reported in original vertex ids.
//!
//! The strong-connectivity kernel runs its backward pass directly on the
//! digraph's stored in-CSR — no reversed copy.  The single-pass masked SCC
//! kernel lives in [`crate::scc`] (same scratch, Tarjan buffers).
//!
//! The pre-CSR `Vec<Vec<usize>>` implementations these kernels are
//! property-tested against live in [`crate::reference`].

use crate::digraph::DiGraph;
use crate::graph::Graph;
use std::collections::VecDeque;

/// A set of temporarily deleted vertices, toggled in O(1) per vertex.
///
/// The c-connectivity sweep's inner loop is `remove(v) → masked kernel →
/// restore(v)` for every candidate `v`: one mask allocation per deployment,
/// zero per probe.
#[derive(Debug, Clone)]
pub struct VertexMask {
    removed: Vec<bool>,
    removed_count: usize,
}

impl VertexMask {
    /// A mask over `n` vertices with nothing removed.
    pub fn new(n: usize) -> Self {
        VertexMask {
            removed: vec![false; n],
            removed_count: 0,
        }
    }

    /// Number of vertices the mask covers.
    pub fn len(&self) -> usize {
        self.removed.len()
    }

    /// Returns `true` when the mask covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty()
    }

    /// Marks `v` as deleted (idempotent).
    pub fn remove(&mut self, v: usize) {
        if !self.removed[v] {
            self.removed[v] = true;
            self.removed_count += 1;
        }
    }

    /// Restores `v` (idempotent).
    pub fn restore(&mut self, v: usize) {
        if self.removed[v] {
            self.removed[v] = false;
            self.removed_count -= 1;
        }
    }

    /// Restores every vertex.
    pub fn clear(&mut self) {
        self.removed.fill(false);
        self.removed_count = 0;
    }

    /// Returns `true` when `v` is currently deleted.
    pub fn is_removed(&self, v: usize) -> bool {
        self.removed[v]
    }

    /// Number of currently deleted vertices.
    pub fn removed_count(&self) -> usize {
        self.removed_count
    }
}

/// Returns `true` when `v` is alive under the (optional) mask.
#[inline]
pub(crate) fn alive(mask: Option<&VertexMask>, v: usize) -> bool {
    mask.is_none_or(|m| !m.is_removed(v))
}

/// Every mask-taking kernel requires the mask to cover exactly the graph's
/// vertex set — a larger mask would silently skew alive counts, a smaller
/// one would panic mid-traversal.
#[inline]
pub(crate) fn debug_assert_mask_matches(g: &DiGraph, mask: Option<&VertexMask>) {
    debug_assert!(
        mask.is_none_or(|m| m.len() == g.len()),
        "vertex mask size does not match the graph"
    );
}

/// Reusable traversal state: visited epochs plus queue/stack buffers.
///
/// One scratch serves any number of graphs and queries; buffers grow to the
/// largest graph seen and are never shrunk.  See the module docs for the
/// zero-allocation contract.
#[derive(Debug, Default, Clone)]
pub struct TraversalScratch {
    /// Current query epoch; `visited[v] == epoch` ⇔ v visited this query.
    pub(crate) epoch: u32,
    pub(crate) visited: Vec<u32>,
    /// BFS queue storage; after a BFS this is the visit order.
    queue: Vec<u32>,
    /// Per-vertex u32 payload: hop distances (BFS) or Tarjan indices.
    pub(crate) value: Vec<u32>,
    /// Tarjan lowlink values.
    pub(crate) low: Vec<u32>,
    /// Tarjan's explicit DFS call stack: (vertex, next-child-position).
    pub(crate) call: Vec<(u32, u32)>,
    /// Tarjan's component stack.
    pub(crate) stack: Vec<u32>,
    /// Tarjan's on-stack flags (self-cleaning: false between queries).
    pub(crate) on_stack: Vec<bool>,
}

impl TraversalScratch {
    /// A scratch with empty buffers (they size themselves on first use).
    pub fn new() -> Self {
        TraversalScratch::default()
    }

    /// A scratch pre-sized for graphs of `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = TraversalScratch::new();
        s.begin(n);
        s
    }

    /// Starts a query over an `n`-vertex graph: sizes the buffers (growing
    /// only when `n` exceeds everything seen before) and opens a fresh
    /// epoch.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
            self.value.resize(n, 0);
            self.low.resize(n, 0);
            self.on_stack.resize(n, false);
        }
        self.queue.clear();
        self.call.clear();
        self.stack.clear();
        // After the clears len == 0, so reserve(n) guarantees capacity ≥ n
        // and no traversal can reallocate mid-query.
        if self.queue.capacity() < n {
            self.queue.reserve(n);
        }
        if self.call.capacity() < n {
            self.call.reserve(n);
        }
        if self.stack.capacity() < n {
            self.stack.reserve(n);
        }
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `v` visited in the current epoch; returns `true` when it was
    /// not yet visited.
    #[inline]
    pub(crate) fn mark(&mut self, v: u32) -> bool {
        let slot = &mut self.visited[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Returns `true` when `v` was visited in the current epoch.
    #[inline]
    pub(crate) fn is_marked(&self, v: u32) -> bool {
        self.visited[v as usize] == self.epoch
    }

    /// Breadth-first order of the alive vertices reachable from `start`
    /// along out-edges (empty when `start` is masked out or out of range).
    ///
    /// The returned slice borrows the scratch's queue buffer and is valid
    /// until the next query.
    pub fn bfs<'s>(
        &'s mut self,
        g: &DiGraph,
        start: usize,
        mask: Option<&VertexMask>,
    ) -> &'s [u32] {
        self.bfs_directed(g, start, mask, false)
    }

    /// Number of alive vertices reachable from `start` (including itself)
    /// along out-edges; 0 when `start` is masked out or out of range.
    pub fn reachable_count(
        &mut self,
        g: &DiGraph,
        start: usize,
        mask: Option<&VertexMask>,
    ) -> usize {
        self.bfs(g, start, mask).len()
    }

    /// The shared BFS engine: forward over the out-CSR or backward over the
    /// in-CSR.
    fn bfs_directed<'s>(
        &'s mut self,
        g: &DiGraph,
        start: usize,
        mask: Option<&VertexMask>,
        backward: bool,
    ) -> &'s [u32] {
        debug_assert_mask_matches(g, mask);
        self.begin(g.len());
        if start >= g.len() || !alive(mask, start) {
            return &self.queue;
        }
        self.mark(start as u32);
        self.queue.push(start as u32);
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let row = if backward {
                g.in_neighbors(u)
            } else {
                g.out_neighbors(u)
            };
            for &v in row {
                if alive(mask, v as usize) && self.mark(v) {
                    self.queue.push(v);
                }
            }
        }
        &self.queue
    }

    /// BFS hop distances from `start` over alive vertices, with `u32::MAX`
    /// marking "unreachable" (masked-out vertices are unreachable by
    /// definition).  The returned slice has one entry per vertex, borrows
    /// the scratch and is valid until the next query.
    pub fn hop_distances<'s>(
        &'s mut self,
        g: &DiGraph,
        start: usize,
        mask: Option<&VertexMask>,
    ) -> &'s [u32] {
        debug_assert_mask_matches(g, mask);
        let n = g.len();
        self.begin(n);
        self.value[..n].fill(u32::MAX);
        if start < n && alive(mask, start) {
            self.mark(start as u32);
            self.value[start] = 0;
            self.queue.push(start as u32);
            let mut head = 0usize;
            while head < self.queue.len() {
                let u = self.queue[head] as usize;
                head += 1;
                let next = self.value[u] + 1;
                for &v in g.out_neighbors(u) {
                    if alive(mask, v as usize) && self.mark(v) {
                        self.value[v as usize] = next;
                        self.queue.push(v);
                    }
                }
            }
        }
        &self.value[..n]
    }

    /// Returns `true` when the alive subgraph is strongly connected (an
    /// alive set of 0 or 1 vertices counts as strongly connected, matching
    /// [`DiGraph::is_strongly_connected`]).
    ///
    /// Two BFS passes from the first alive vertex: forward on the out-CSR,
    /// backward on the stored in-CSR — no reversed copy, no subgraph
    /// materialization, zero steady-state allocation.
    pub fn is_strongly_connected(&mut self, g: &DiGraph, mask: Option<&VertexMask>) -> bool {
        debug_assert_mask_matches(g, mask);
        let n = g.len();
        let alive_count = n - mask.map_or(0, |m| m.removed_count());
        if alive_count <= 1 {
            return true;
        }
        let Some(start) = (0..n).find(|&v| alive(mask, v)) else {
            return true;
        };
        if self.bfs_directed(g, start, mask, false).len() != alive_count {
            return false;
        }
        self.bfs_directed(g, start, mask, true).len() == alive_count
    }
}

/// Breadth-first order of the vertices reachable from `start`.
pub fn bfs_order(g: &Graph, start: usize) -> Vec<usize> {
    let mut visited = vec![false; g.len()];
    let mut order = Vec::new();
    if start >= g.len() {
        return order;
    }
    let mut queue = VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &(v, _) in g.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// Connected components of the graph; each component is a sorted vertex list.
pub fn connected_components(g: &Graph) -> Vec<Vec<usize>> {
    let mut visited = vec![false; g.len()];
    let mut components = Vec::new();
    for start in 0..g.len() {
        if visited[start] {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            component.push(u);
            for &(v, _) in g.neighbors(u) {
                if !visited[v] {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// Returns `true` when the undirected graph is connected (trivially true for
/// 0 or 1 vertices).
pub fn is_connected(g: &Graph) -> bool {
    g.len() <= 1 || bfs_order(g, 0).len() == g.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1, 1.0);
        }
        g
    }

    fn directed_cycle(n: usize) -> DiGraph {
        DiGraph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn bfs_visits_all_reachable_vertices_in_level_order() {
        let g = path(5);
        assert_eq!(bfs_order(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_order(&g, 2), vec![2, 1, 3, 0, 4]);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert!(comps.contains(&vec![0, 1]));
        assert!(comps.contains(&vec![2, 3, 4]));
        assert!(comps.contains(&vec![5]));
        assert!(!is_connected(&g));
    }

    #[test]
    fn trivial_graphs() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(bfs_order(&Graph::new(0), 0).is_empty());
    }

    #[test]
    fn mask_toggles_and_counts() {
        let mut mask = VertexMask::new(4);
        assert!(!mask.is_empty());
        assert_eq!(mask.len(), 4);
        mask.remove(1);
        mask.remove(1); // idempotent
        mask.remove(3);
        assert_eq!(mask.removed_count(), 2);
        assert!(mask.is_removed(1));
        mask.restore(1);
        assert_eq!(mask.removed_count(), 1);
        mask.clear();
        assert_eq!(mask.removed_count(), 0);
        assert!(!mask.is_removed(3));
    }

    #[test]
    fn masked_bfs_skips_removed_vertices() {
        // 0 → 1 → 2 → 3 with a detour 0 → 3.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut scratch = TraversalScratch::new();
        assert_eq!(scratch.bfs(&g, 0, None), &[0, 1, 3, 2]);
        let mut mask = VertexMask::new(4);
        mask.remove(1);
        assert_eq!(scratch.bfs(&g, 0, Some(&mask)), &[0, 3]);
        // A masked start is empty.
        mask.remove(0);
        assert!(scratch.bfs(&g, 0, Some(&mask)).is_empty());
        assert_eq!(scratch.reachable_count(&g, 0, Some(&mask)), 0);
    }

    #[test]
    fn masked_hop_distances_report_unreachable() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3)]);
        let mut scratch = TraversalScratch::new();
        assert_eq!(scratch.hop_distances(&g, 0, None), &[0, 1, 2, 1]);
        let mut mask = VertexMask::new(4);
        mask.remove(1);
        assert_eq!(
            scratch.hop_distances(&g, 0, Some(&mask)),
            &[0, u32::MAX, u32::MAX, 1]
        );
    }

    #[test]
    fn masked_strong_connectivity_matches_subgraph_semantics() {
        // Two triangles sharing vertex 0: strongly connected, but 0 is a cut
        // vertex.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let mut scratch = TraversalScratch::new();
        assert!(scratch.is_strongly_connected(&g, None));
        let mut mask = VertexMask::new(5);
        mask.remove(0);
        assert!(!scratch.is_strongly_connected(&g, Some(&mask)));
        mask.restore(0);
        mask.remove(1); // removing a triangle vertex keeps the rest connected
        assert!(!scratch.is_strongly_connected(&g, Some(&mask)));
        // {0,3,4} alone is a cycle.
        mask.remove(2);
        assert!(scratch.is_strongly_connected(&g, Some(&mask)));
        // Masking down to ≤ 1 alive vertex is trivially connected.
        mask.remove(3);
        mask.remove(4);
        assert!(scratch.is_strongly_connected(&g, Some(&mask)));
        mask.remove(0);
        assert!(scratch.is_strongly_connected(&g, Some(&mask)));
    }

    #[test]
    fn scratch_is_reusable_across_graphs_and_epochs() {
        let mut scratch = TraversalScratch::with_capacity(8);
        let small = directed_cycle(3);
        let large = directed_cycle(20);
        for _ in 0..5 {
            assert!(scratch.is_strongly_connected(&small, None));
            assert!(scratch.is_strongly_connected(&large, None));
            assert_eq!(scratch.reachable_count(&large, 7, None), 20);
        }
    }

    #[test]
    fn epoch_overflow_resets_cleanly() {
        let g = directed_cycle(4);
        let mut scratch = TraversalScratch::new();
        scratch.epoch = u32::MAX - 1;
        assert!(scratch.is_strongly_connected(&g, None));
        assert_eq!(scratch.bfs(&g, 2, None).len(), 4);
        assert!(scratch.epoch < 10, "epoch must wrap through a reset");
    }
}
