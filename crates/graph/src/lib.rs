//! # antennae-graph
//!
//! Graph substrate for the directional-antenna reproduction: weighted
//! undirected graphs, minimum spanning trees, **Euclidean MSTs of maximum
//! degree 5** (the structural backbone every orientation algorithm of the
//! paper walks), rooted trees with counterclockwise-sorted children, and
//! directed communication graphs in a flat **CSR layout** with
//! allocation-free, mask-aware traversal kernels ([`traversal`], [`scc`],
//! [`connectivity`]; the pre-CSR adjacency-list implementation survives in
//! [`mod@reference`] as the property-test oracle).
//!
//! The paper's constructions all start from the same substrate:
//!
//! 1. compute a Euclidean MST `T` of the sensor set with maximum degree 5
//!    (such a tree always exists; see [`euclidean`]),
//! 2. root `T` at a degree-one vertex,
//! 3. walk the rooted tree assigning antennae, and
//! 4. check that the induced directed graph is strongly connected
//!    (see [`scc`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod connectivity;
pub mod digraph;
pub mod dynamic;
pub mod euclidean;
pub mod graph;
pub mod mst;
pub mod reference;
pub mod rooted;
pub mod scc;
pub mod traversal;
pub mod union_find;

pub use digraph::DiGraph;
pub use dynamic::{DynamicEmst, DynamicEmstError};
pub use euclidean::EuclideanMst;
pub use graph::{Edge, Graph};
pub use rooted::RootedTree;
pub use traversal::{TraversalScratch, VertexMask};
pub use union_find::UnionFind;
