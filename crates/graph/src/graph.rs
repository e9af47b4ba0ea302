//! Weighted undirected graphs over vertices `0..n`.

use serde::{Deserialize, Serialize};

/// A weighted undirected edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Edge weight (a Euclidean distance in this workspace).
    pub weight: f64,
}

impl Edge {
    /// Creates an edge.
    pub fn new(u: usize, v: usize, weight: f64) -> Self {
        Edge { u, v, weight }
    }

    /// The endpoint different from `x`; panics if `x` is not an endpoint.
    pub fn other(&self, x: usize) -> usize {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "vertex {x} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }
}

/// A weighted undirected graph stored as adjacency lists.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    /// adjacency[u] = list of (neighbour, weight)
    adjacency: Vec<Vec<(usize, f64)>>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list over `n` vertices.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut g = Graph::new(n);
        for e in edges {
            g.add_edge(e.u, e.v, e.weight);
        }
        g
    }

    /// Builds the complete graph over `n` vertices using the provided weight
    /// function.
    pub fn complete<F: Fn(usize, usize) -> f64>(n: usize, weight: F) -> Self {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v, weight(u, v));
            }
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds an undirected edge; parallel edges are allowed but unused in this
    /// workspace.  Panics when an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(
            u < self.len() && v < self.len(),
            "edge endpoint out of range"
        );
        assert_ne!(u, v, "self-loops are not supported");
        self.adjacency[u].push((v, weight));
        self.adjacency[v].push((u, weight));
        self.edge_count += 1;
    }

    /// Removes the edge `(u, v)` if present; returns `true` when an edge was
    /// removed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let before = self.adjacency[u].len();
        self.adjacency[u].retain(|&(w, _)| w != v);
        let removed = before != self.adjacency[u].len();
        if removed {
            self.adjacency[v].retain(|&(w, _)| w != u);
            self.edge_count -= 1;
        }
        removed
    }

    /// Neighbours of `u` with edge weights.
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adjacency[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adjacency[u].len()
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Weight of the edge `(u, v)`, if present (the first parallel edge wins).
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.adjacency[u]
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, wt)| wt)
    }

    /// Returns `true` when the edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// All edges, each reported once with `u < v`.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count);
        for u in 0..self.len() {
            for &(v, w) in &self.adjacency[u] {
                if u < v {
                    out.push(Edge::new(u, v, w));
                }
            }
        }
        out
    }

    /// Applies `f` to every edge weight in place (both directions of each
    /// stored edge see the same new value).  Used by the rescaling path of
    /// `EuclideanMst`, where topology is preserved and only lengths change.
    pub fn map_weights<F: Fn(f64) -> f64>(&mut self, f: F) {
        for row in &mut self.adjacency {
            for (_, w) in row {
                *w = f(*w);
            }
        }
    }

    /// Sorts every adjacency list ascending by neighbour index (weight as a
    /// deterministic tie-break for parallel edges), making the stored graph
    /// a **canonical function of its edge set** — two builds that produce
    /// the same edges in different orders become bit-identical structures,
    /// with identical neighbour iteration order and identical (order-
    /// dependent) floating-point sums in [`Graph::total_weight`].  The MST
    /// engines canonicalize after building so that their trees, and
    /// everything computed from them, compare bit-for-bit.
    pub fn sort_adjacency(&mut self) {
        for row in &mut self.adjacency {
            row.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
        }
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges().iter().map(|e| e.weight).sum()
    }

    /// Maximum edge weight, or 0 for an edgeless graph.
    pub fn max_edge_weight(&self) -> f64 {
        self.edges().iter().map(|e| e.weight).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 0, 3.0);
        g
    }

    #[test]
    fn construction_and_queries() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(0, 2), Some(3.0));
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
        assert!((g.max_edge_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn edges_reported_once() {
        let g = triangle();
        let edges = g.edges();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|e| e.u < e.v));
    }

    #[test]
    fn remove_edge_updates_both_endpoints() {
        let mut g = triangle();
        assert!(g.remove_edge(0, 1));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 2);
        assert!(!g.remove_edge(0, 1));
    }

    #[test]
    fn complete_graph_has_all_pairs() {
        let g = Graph::complete(5, |u, v| (u + v) as f64);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.edge_weight(2, 3), Some(5.0));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 7, 1.0);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_for_non_endpoint() {
        Edge::new(3, 7, 1.0).other(5);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    fn from_edges_builder() {
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.5)];
        let g = Graph::from_edges(4, &edges);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(3), 0);
    }
}
