//! CSR-vs-legacy oracle suite for the digraph core.
//!
//! PR 4 moved `DiGraph` from nested `Vec<Vec<usize>>` adjacency lists to a
//! flat CSR layout with allocation-free, mask-aware traversal kernels.  The
//! pre-refactor implementation is preserved verbatim in
//! `antennae::graph::reference::AdjListDiGraph`; this suite pins that every
//! builder and every kernel — BFS order, reachability, hop distances,
//! strong connectivity, SCC count/largest, and all their masked variants —
//! is output-identical to the legacy behaviour:
//!
//! * masked kernels are compared against the legacy clone-a-subgraph path
//!   (`remove_vertices` + re-indexing),
//! * deterministic deployments cover random, lattice, duplicate-point and
//!   single-vertex point sets with solver-produced schemes (the CSR digraph
//!   must equal the legacy dense pairwise construction bit-for-bit),
//! * property tests fuzz random digraphs and random fault masks.
//!
//! The reference-against-engine digraph equality assertions live in
//! `tests/verification_oracle.rs`; this file is about the *storage and
//! traversal* layer underneath them.

use antennae::core::antenna::AntennaBudget;
use antennae::graph::reference::AdjListDiGraph;
use antennae::graph::scc::tarjan_scc;
use antennae::graph::{DiGraph, TraversalScratch, VertexMask};
use antennae::prelude::*;
use proptest::prelude::*;
use std::f64::consts::PI;

/// Builds the CSR digraph and the legacy reference from one edge list, the
/// CSR side through every bulk builder plus incremental insertion, and
/// asserts they all agree structurally before handing back the pair.
fn build_pair(n: usize, edges: &[(usize, usize)]) -> (DiGraph, AdjListDiGraph) {
    let mut legacy = AdjListDiGraph::new(n);
    for &(u, v) in edges {
        legacy.add_edge(u, v);
    }
    let bulk = DiGraph::from_edges(n, edges);
    let mut incremental = DiGraph::new(n);
    for &(u, v) in edges {
        incremental.add_edge(u, v);
    }
    let from_rows = DiGraph::from_adjacency(n, (0..n).map(|u| legacy.out_neighbors(u).to_vec()));
    assert_eq!(bulk, incremental, "from_edges vs add_edge");
    assert_eq!(bulk, from_rows, "from_edges vs from_adjacency");
    assert_eq!(bulk, legacy.to_csr(), "CSR vs legacy structure");
    assert_eq!(bulk.edge_count(), legacy.edge_count());
    for u in 0..n {
        let row: Vec<usize> = bulk.out_neighbors(u).iter().map(|&v| v as usize).collect();
        assert_eq!(row, legacy.out_neighbors(u), "row order of vertex {u}");
    }
    (bulk, legacy)
}

/// Asserts every unmasked kernel agrees with the legacy implementation.
fn assert_unmasked_kernels_match(
    csr: &DiGraph,
    legacy: &AdjListDiGraph,
    scratch: &mut TraversalScratch,
) {
    let n = csr.len();
    assert_eq!(csr.is_strongly_connected(), legacy.is_strongly_connected());
    assert_eq!(
        scratch.is_strongly_connected(csr, None),
        legacy.is_strongly_connected() || n <= 1
    );
    let legacy_sccs = legacy.tarjan_scc();
    let summary = scratch.scc_summary(csr, None);
    assert_eq!(summary.count, legacy_sccs.len());
    assert_eq!(
        summary.largest,
        legacy_sccs.iter().map(|c| c.len()).max().unwrap_or(0)
    );
    // The full CSR decomposition is order-identical to the legacy one.
    assert_eq!(tarjan_scc(csr), legacy_sccs);
    for start in 0..n {
        let order: Vec<usize> = scratch
            .bfs(csr, start, None)
            .iter()
            .map(|&v| v as usize)
            .collect();
        assert_eq!(order, legacy.bfs_order(start), "BFS order from {start}");
        assert_eq!(
            scratch.reachable_count(csr, start, None),
            legacy.reachable_count(start)
        );
        let hops: Vec<Option<usize>> = scratch
            .hop_distances(csr, start, None)
            .iter()
            .map(|&d| (d != u32::MAX).then_some(d as usize))
            .collect();
        assert_eq!(hops, legacy.hop_distances(start), "hops from {start}");
        assert_eq!(csr.hop_distances(start), legacy.hop_distances(start));
    }
}

/// Asserts every masked kernel matches the legacy clone-and-reindex path for
/// the given fault set.
fn assert_masked_kernels_match(
    csr: &DiGraph,
    legacy: &AdjListDiGraph,
    faults: &[usize],
    scratch: &mut TraversalScratch,
) {
    let n = csr.len();
    let mut mask = VertexMask::new(n);
    for &v in faults {
        mask.remove(v);
    }
    let reduced = legacy.remove_vertices(faults);
    // Old-index → reduced-index map (alive vertices in ascending order).
    let mut new_index = vec![usize::MAX; n];
    let mut next = 0usize;
    for (v, slot) in new_index.iter_mut().enumerate() {
        if !mask.is_removed(v) {
            *slot = next;
            next += 1;
        }
    }
    assert_eq!(reduced.len(), next);
    // Verdicts: masked strong connectivity == connectivity of the subgraph.
    assert_eq!(
        scratch.is_strongly_connected(csr, Some(&mask)),
        reduced.is_strongly_connected(),
        "strong connectivity under faults {faults:?}"
    );
    let summary = scratch.scc_summary(csr, Some(&mask));
    let reduced_sccs = reduced.tarjan_scc();
    assert_eq!(
        summary.count,
        reduced_sccs.len(),
        "SCC count under {faults:?}"
    );
    assert_eq!(
        summary.largest,
        reduced_sccs.iter().map(|c| c.len()).max().unwrap_or(0),
        "largest SCC under {faults:?}"
    );
    // Traversals from every alive start: orders and hop counts map 1:1 onto
    // the reduced graph (remove_vertices preserves relative adjacency
    // order).
    for start in 0..n {
        if mask.is_removed(start) {
            assert!(scratch.bfs(csr, start, Some(&mask)).is_empty());
            continue;
        }
        let mapped: Vec<usize> = scratch
            .bfs(csr, start, Some(&mask))
            .iter()
            .map(|&v| new_index[v as usize])
            .collect();
        assert_eq!(
            mapped,
            reduced.bfs_order(new_index[start]),
            "masked BFS from {start}"
        );
        let masked_hops = scratch.hop_distances(csr, start, Some(&mask)).to_vec();
        let reduced_hops = reduced.hop_distances(new_index[start]);
        for v in 0..n {
            let expected = if mask.is_removed(v) {
                None
            } else {
                reduced_hops[new_index[v]]
            };
            let got = (masked_hops[v] != u32::MAX).then_some(masked_hops[v] as usize);
            assert_eq!(got, expected, "masked hop {start}→{v} under {faults:?}");
        }
    }
}

fn exercise(n: usize, edges: &[(usize, usize)]) {
    let (csr, legacy) = build_pair(n, edges);
    let mut scratch = TraversalScratch::new();
    assert_unmasked_kernels_match(&csr, &legacy, &mut scratch);
    // Single faults everywhere, plus a few representative pairs.
    for v in 0..n {
        assert_masked_kernels_match(&csr, &legacy, &[v], &mut scratch);
    }
    if n >= 2 {
        assert_masked_kernels_match(&csr, &legacy, &[0, n - 1], &mut scratch);
        assert_masked_kernels_match(&csr, &legacy, &[n / 2, n - 1], &mut scratch);
    }
    // The empty fault set must be a no-op relative to unmasked kernels.
    assert_masked_kernels_match(&csr, &legacy, &[], &mut scratch);
}

#[test]
fn hand_built_digraphs_match_reference() {
    // Directed cycle with chords, a DAG, two bridged cycles, isolated
    // vertices.
    exercise(
        6,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 3),
            (2, 5),
        ],
    );
    exercise(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    exercise(
        7,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (2, 3),
            (6, 0),
        ],
    );
    exercise(1, &[]);
    exercise(0, &[]);
    exercise(4, &[]);
}

/// Solver-produced deployments: the CSR digraph built by the verification
/// engine must equal the legacy dense pairwise construction replayed through
/// the pre-refactor adjacency lists, and every kernel must agree on it.
fn exercise_deployment(points: Vec<antennae::geometry::Point>, label: &str) {
    let instance = Instance::new(points).expect("non-empty deployment");
    let scheme = Solver::on(&instance)
        .with_budget(AntennaBudget::new(2, PI))
        .run()
        .expect("valid budget")
        .scheme;
    let points = instance.points();
    // The pre-refactor dense construction, replayed verbatim on the legacy
    // representation.
    let n = points.len().min(scheme.len());
    let mut legacy = AdjListDiGraph::new(points.len());
    for u in 0..n {
        let apex = &points[u];
        for (v, target) in points.iter().enumerate() {
            if u != v && scheme.assignment(u).covers(apex, target) {
                legacy.add_edge(u, v);
            }
        }
    }
    let legacy_csr = legacy.to_csr();
    assert_eq!(
        scheme.induced_digraph(points),
        legacy_csr,
        "{label}: reference vs legacy dense"
    );
    let csr = VerificationEngine::new().induced_digraph(points, &scheme);
    assert_eq!(csr, legacy_csr, "{label}: engine vs legacy dense");
    let mut scratch = TraversalScratch::new();
    assert_unmasked_kernels_match(&csr, &legacy, &mut scratch);
    for v in 0..csr.len().min(12) {
        assert_masked_kernels_match(&csr, &legacy, &[v], &mut scratch);
    }
}

#[test]
fn random_deployment_matches_reference() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    let points: Vec<antennae::geometry::Point> = (0..40)
        .map(|_| {
            antennae::geometry::Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0))
        })
        .collect();
    exercise_deployment(points, "uniform random n=40");
}

#[test]
fn lattice_deployment_matches_reference() {
    let mut points = Vec::new();
    for i in 0..6 {
        for j in 0..5 {
            points.push(antennae::geometry::Point::new(i as f64, j as f64));
        }
    }
    exercise_deployment(points, "integer lattice 6×5");
}

#[test]
fn duplicate_point_deployment_matches_reference() {
    let mut points = Vec::new();
    for i in 0..8 {
        points.push(antennae::geometry::Point::new(i as f64 * 0.5, 0.25));
        points.push(antennae::geometry::Point::new(i as f64 * 0.5, 0.25)); // exact duplicate
    }
    exercise_deployment(points, "duplicate pairs n=16");
}

#[test]
fn single_vertex_deployment_matches_reference() {
    exercise_deployment(
        vec![antennae::geometry::Point::new(3.0, 4.0)],
        "single vertex",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random digraphs: every builder and kernel, masked and unmasked,
    /// agrees with the legacy reference.
    #[test]
    fn prop_random_digraphs_match_reference(
        n in 1usize..24,
        raw_edges in proptest::collection::vec((0usize..24, 0usize..24), 0..140),
        fault_seed in 0usize..24,
    ) {
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .filter(|&(u, v)| u < n && v < n)
            .collect();
        let (csr, legacy) = build_pair(n, &edges);
        let mut scratch = TraversalScratch::new();
        assert_unmasked_kernels_match(&csr, &legacy, &mut scratch);
        let single = fault_seed % n;
        assert_masked_kernels_match(&csr, &legacy, &[single], &mut scratch);
        // A pseudo-random pair of faults.
        if n >= 2 {
            let second = (fault_seed * 7 + 3) % n;
            if second != single {
                assert_masked_kernels_match(&csr, &legacy, &[single, second], &mut scratch);
            }
        }
    }

    /// The masked c-connectivity entry points agree with the legacy
    /// clone-per-subset semantics.
    #[test]
    fn prop_c_connectivity_matches_clone_path(
        n in 1usize..14,
        raw_edges in proptest::collection::vec((0usize..14, 0usize..14), 0..80),
    ) {
        use antennae::graph::connectivity::{critical_vertices, is_strongly_c_connected, remove_vertices};
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .filter(|&(u, v)| u < n && v < n)
            .collect();
        let (csr, legacy) = build_pair(n, &edges);
        // Critical vertices == vertices whose clone-removal disconnects.
        if n > 2 && legacy.is_strongly_connected() {
            let expected: Vec<usize> = (0..n)
                .filter(|&v| !legacy.remove_vertices(&[v]).is_strongly_connected())
                .collect();
            prop_assert_eq!(critical_vertices(&csr), expected);
        }
        for c in 0..=3usize {
            // Legacy semantics, replayed with the legacy digraph.
            let legacy_verdict = if c == 0 {
                true
            } else if !legacy.is_strongly_connected() {
                false
            } else if c - 1 == 0 || n <= c {
                true
            } else {
                subsets_all_survive(&legacy, 0, c - 1, &mut Vec::new())
            };
            prop_assert_eq!(is_strongly_c_connected(&csr, c), legacy_verdict, "c = {}", c);
        }
        // Masked-kernel remove_vertices replacement still materializes
        // correctly when asked to.
        let reduced = remove_vertices(&csr, &[0]);
        prop_assert_eq!(reduced, legacy.remove_vertices(&[0]).to_csr());
    }
}

/// The pre-refactor exhaustive subset recursion, over the legacy digraph.
fn subsets_all_survive(
    g: &AdjListDiGraph,
    start: usize,
    remaining: usize,
    subset: &mut Vec<usize>,
) -> bool {
    if remaining == 0 {
        return g.remove_vertices(subset).is_strongly_connected();
    }
    for v in start..g.len() {
        subset.push(v);
        let ok = subsets_all_survive(g, v + 1, remaining - 1, subset);
        subset.pop();
        if !ok {
            return false;
        }
    }
    true
}
