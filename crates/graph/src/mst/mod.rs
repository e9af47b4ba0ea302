//! Minimum spanning trees of explicit weighted graphs.
//!
//! [`kruskal_mst`] is the textbook reference the Euclidean engines are
//! tested against.  The Euclidean MST the orientation algorithms walk lives
//! in [`crate::euclidean`], which builds it over the implicit complete
//! graph with dense Prim or Kruskal over the exact Delaunay triangulation.

pub mod kruskal;

pub use kruskal::kruskal_mst;

use crate::graph::Edge;

/// Result of an MST computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MstResult {
    /// Edges of the spanning forest (a tree when the input is connected).
    pub edges: Vec<Edge>,
    /// Sum of edge weights.
    pub total_weight: f64,
}

impl MstResult {
    /// Builds the result from an edge list.
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        let total_weight = edges.iter().map(|e| e.weight).sum();
        MstResult {
            edges,
            total_weight,
        }
    }

    /// Returns `true` when the edge set spans a connected graph on `n`
    /// vertices (i.e. it is a spanning tree, not a forest with several
    /// components).
    pub fn spans(&self, n: usize) -> bool {
        n <= 1 || self.edges.len() == n - 1
    }

    /// The maximum edge weight of the tree (`lmax` in the paper), or 0 for an
    /// edgeless result.
    pub fn max_edge_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn sample_graph() -> Graph {
        // Weighted graph with a known MST of weight 1 + 2 + 3 = 6.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.add_edge(0, 3, 10.0);
        g.add_edge(0, 2, 10.0);
        g
    }

    #[test]
    fn kruskal_finds_the_sample_tree() {
        let result = kruskal_mst(&sample_graph());
        assert!(result.spans(4));
        assert!((result.total_weight - 6.0).abs() < 1e-12);
        assert!((result.max_edge_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 2.0);
        let result = kruskal_mst(&g);
        assert_eq!(result.edges.len(), 2);
        assert!(!result.spans(4));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = Graph::new(0);
        assert!(kruskal_mst(&empty).edges.is_empty());
        let single = Graph::new(1);
        assert!(kruskal_mst(&single).spans(1));
    }
}
