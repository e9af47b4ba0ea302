//! Edit-script oracle tests for the dynamic-instance subsystem.
//!
//! After **every step** of an insert/remove/move script, the incrementally
//! maintained state must agree with the from-scratch pipeline on the same
//! live point set:
//!
//! * MST: **exactly** the edge set (weight bits included) of a fresh
//!   `EuclideanMst::build` — both are the unique MST under the shared
//!   `(weight, min, max)` order — whenever that tree has maximum degree ≤ 5,
//!   as a brute-force Kruskal over all pairs decides.  Higher degree needs
//!   the degree-5 exchange, whose outcome can depend on the edit history;
//!   there weight and `lmax` must still match to float noise;
//! * scheme: in the Theorem 2 regime, **exactly** the scheme a full
//!   re-orientation produces on the materialized instance;
//! * induced digraph: **exactly** the verification engine's from-scratch
//!   construction (both the dense reference and the kd-tree fast path);
//! * verdict: **exactly** the report of a fresh `verify_with_budget`.
//!
//! The deterministic sweep covers stochastic and extremal generators,
//! drain-to-one-sensor scripts and duplicate-point edits; the property tests
//! fuzz random scripts over snapped (tie-heavy) and continuous geometry.
//! The replay suite at the end pins crash recovery (one bulk build plus one
//! coalesced tail) against the lived session, on continuous, lattice and
//! sharded-size deployments.
//! `scripts/verify.sh` runs this suite under the pinned `PROPTEST_CASES`
//! budget.

use antennae::core::antenna::AntennaBudget;
use antennae::core::bounds::theorem2_spread_threshold;
use antennae::core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae::core::shard::AUTO_SHARD_MIN_POINTS;
use antennae::core::verify::verify_with_budget;
use antennae::graph::euclidean::{MstEngine, MAX_MST_DEGREE};
use antennae::graph::UnionFind;
use antennae::prelude::*;
use antennae::sim::generators::{extremal_workloads, standard_workloads};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fuzzable script step; `pick` indexes the live population mod its size.
#[derive(Debug, Clone)]
enum Step {
    Insert(f64, f64),
    Remove(u64),
    Move(u64, f64, f64),
}

fn to_edit(session: &DynamicSolverSession, step: &Step) -> Option<Edit> {
    match *step {
        Step::Insert(x, y) => Some(Edit::Insert(Point::new(x, y))),
        Step::Remove(pick) => {
            let ids = session.instance().ids();
            (ids.len() > 1).then(|| Edit::Remove(ids[(pick % ids.len() as u64) as usize]))
        }
        Step::Move(pick, x, y) => {
            let ids = session.instance().ids();
            Some(Edit::Move(
                ids[(pick % ids.len() as u64) as usize],
                Point::new(x, y),
            ))
        }
    }
}

/// MST edges as comparable triples: (min endpoint, max endpoint, weight bits).
fn edge_bits(mst: &EuclideanMst) -> Vec<(usize, usize, u64)> {
    let mut edges: Vec<_> = mst
        .edges()
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.weight.to_bits()))
        .collect();
    edges.sort_unstable();
    edges
}

/// The unique MST under the shared `(weight, min, max)` order, by
/// brute-force Kruskal over every pair, as `edge_bits` triples.
fn shared_order_kruskal(points: &[Point]) -> Vec<(usize, usize, u64)> {
    let n = points.len();
    let mut pairs: Vec<(f64, usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (points[i].distance(&points[j]), i, j)))
        .collect();
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    let mut uf = UnionFind::new(n);
    let mut tree: Vec<_> = pairs
        .into_iter()
        .filter(|&(_, i, j)| uf.union(i, j))
        .map(|(w, i, j)| (i, j, w.to_bits()))
        .collect();
    tree.sort_unstable();
    tree
}

/// Maximum degree of the unique MST under the shared order.
fn perturbed_mst_max_degree(points: &[Point]) -> usize {
    let mut degree = vec![0usize; points.len()];
    for (i, j, _) in shared_order_kruskal(points) {
        degree[i] += 1;
        degree[j] += 1;
    }
    degree.into_iter().max().unwrap_or(0)
}

/// The full oracle: MST edge set vs rebuild, scheme vs full re-orient,
/// digraph vs both static constructions, report vs fresh verification.
fn assert_oracle(session: &mut DynamicSolverSession) {
    let budget = session.budget();
    let scheme = session.scheme().clone();
    let digraph = session.digraph().clone();
    let report = session.report().clone();
    let dynamic_lmax = session.instance().lmax();
    let instance = session.materialized().unwrap().clone();

    // MST vs a from-scratch engine build: the same tree wherever the unique
    // perturbed MST needs no degree exchange.
    let rebuilt = EuclideanMst::build(instance.points()).unwrap();
    if perturbed_mst_max_degree(instance.points()) <= MAX_MST_DEGREE {
        assert_eq!(
            edge_bits(instance.mst()),
            edge_bits(&rebuilt),
            "MST edge set diverged from rebuild"
        );
    } else {
        let scale = rebuilt.total_weight().max(1.0);
        let weight = instance.mst().total_weight();
        assert!(
            (weight - rebuilt.total_weight()).abs() < 1e-9 * scale,
            "weight {weight} vs rebuild {}",
            rebuilt.total_weight()
        );
        assert!(
            (dynamic_lmax - rebuilt.lmax()).abs() < 1e-9 * scale,
            "lmax {dynamic_lmax} vs rebuild {}",
            rebuilt.lmax()
        );
    }
    assert!(instance.mst().max_degree() <= MAX_MST_DEGREE);
    assert_eq!(instance.lmax(), dynamic_lmax);

    // Scheme vs a full re-orientation (exact, including antenna parameters).
    if session.is_incremental() {
        let full = Solver::on(&instance)
            .with_budget(budget)
            .run()
            .unwrap()
            .scheme;
        assert_eq!(scheme, full, "incremental scheme diverged from full solve");
    }

    // Digraph vs both static constructions (ordered-structural equality).
    let dense = VerificationEngine::new()
        .with_strategy(DigraphStrategy::Dense)
        .induced_digraph(instance.points(), &scheme);
    assert_eq!(digraph, dense, "digraph diverged from dense reference");
    let kd = VerificationEngine::new()
        .with_strategy(DigraphStrategy::KdTree)
        .induced_digraph(instance.points(), &scheme);
    assert_eq!(digraph, kd, "digraph diverged from kd-tree engine");

    // Verdict vs a fresh from-scratch verification.
    let fresh = verify_with_budget(&instance, &scheme, Some(budget));
    assert_eq!(report, fresh, "report diverged from fresh verification");
}

fn replay(points: &[Point], budget: AntennaBudget, steps: &[Step]) {
    let inst = DynamicInstance::new(points).unwrap();
    let mut session = DynamicSolverSession::new(inst, budget).unwrap();
    assert_oracle(&mut session);
    for step in steps {
        let Some(edit) = to_edit(&session, step) else {
            continue;
        };
        session.apply(edit).unwrap();
        assert_oracle(&mut session);
    }
}

/// A deterministic mixed script exercising all three edit kinds.
fn mixed_script(seed: u64) -> Vec<Step> {
    (0..12)
        .map(|i| {
            let x = ((seed.wrapping_mul(31).wrapping_add(i * 7)) % 100) as f64 / 7.0;
            let y = ((seed.wrapping_mul(17).wrapping_add(i * 13)) % 100) as f64 / 9.0;
            match i % 3 {
                0 => Step::Insert(x, y),
                1 => Step::Remove(seed.wrapping_add(i)),
                _ => Step::Move(seed.wrapping_add(i), x, y),
            }
        })
        .collect()
}

#[test]
fn mixed_scripts_over_stochastic_and_extremal_workloads() {
    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    for workload in standard_workloads().into_iter().chain(extremal_workloads()) {
        // Cap the deployment size to keep the O(n²) dense oracle affordable
        // across the per-step sweep.
        if workload.size() > 120 {
            continue;
        }
        let points = workload.generate(5);
        replay(&points, budget, &mixed_script(workload.size() as u64));
    }
}

#[test]
fn fallback_budget_scripts_stay_exact() {
    // (2, π) re-solves in full per edit (Theorem 3); the digraph/report
    // oracles still must hold.
    let points = PointSetGenerator::UniformSquare { n: 30, side: 8.0 }.generate(2);
    replay(
        &points,
        AntennaBudget::new(2, std::f64::consts::PI),
        &mixed_script(3),
    );
}

#[test]
fn drain_to_one_sensor_script() {
    let points = PointSetGenerator::UniformSquare { n: 12, side: 5.0 }.generate(9);
    let steps: Vec<Step> = (0..11).map(|i| Step::Remove(i * 3 + 1)).collect();
    let budget = AntennaBudget::new(1, theorem2_spread_threshold(1));
    let inst = DynamicInstance::new(&points).unwrap();
    let mut session = DynamicSolverSession::new(inst, budget).unwrap();
    for step in &steps {
        if let Some(edit) = to_edit(&session, step) {
            session.apply(edit).unwrap();
            assert_oracle(&mut session);
        }
    }
    assert_eq!(session.instance().len(), 1);
    assert!(session.report().is_strongly_connected);
    assert_eq!(session.instance().lmax(), 0.0);
}

#[test]
fn duplicate_point_scripts_stay_exact() {
    // Exact duplicates at every step: zero-length MST edges, coincident
    // sensors covering each other through the apex rule.
    let points = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 0.0),
    ];
    let steps = vec![
        Step::Insert(0.0, 0.0),
        Step::Insert(1.0, 0.0),
        Step::Move(0, 1.0, 0.0),
        Step::Remove(2),
        Step::Move(1, 0.0, 0.0),
        Step::Insert(0.5, 0.5),
        Step::Remove(0),
    ];
    replay(
        &points,
        AntennaBudget::new(3, theorem2_spread_threshold(3)),
        &steps,
    );
}

/// Two distinct squared lengths, |CA|² = 1 + 2⁻⁵² and |CB|² = 1, round to
/// the same length 1.0, so the shared order decides by endpoints: the tree
/// is {(0,1), (0,2)}.  The static engines, an insert and a remove must all
/// build it.
#[test]
fn rounded_length_ties_follow_the_shared_order_on_every_path() {
    let (a, b, c) = (
        Point::new(1.0, 2f64.powi(-26)),
        Point::new(1.0, 0.0),
        Point::new(0.0, 0.0),
    );
    let expected = shared_order_kruskal(&[a, b, c]);
    assert_eq!(
        expected.iter().map(|&(i, j, _)| (i, j)).collect::<Vec<_>>(),
        [(0, 1), (0, 2)]
    );

    for engine in [MstEngine::Auto, MstEngine::DensePrim, MstEngine::Delaunay] {
        let mst = EuclideanMst::build_with_engine(&[a, b, c], engine).unwrap();
        assert_eq!(edge_bits(&mst), expected, "static build, {engine:?}");
    }

    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    let mut inserted =
        DynamicSolverSession::new(DynamicInstance::new(&[a, b]).unwrap(), budget).unwrap();
    inserted.apply(Edit::Insert(c)).unwrap();
    assert_eq!(
        edge_bits(inserted.materialized().unwrap().mst()),
        expected,
        "insert"
    );

    // A relay between C and B carries the tree until it leaves.
    let relay = Point::new(0.5, 0.0);
    let mut removed =
        DynamicSolverSession::new(DynamicInstance::new(&[a, b, c, relay]).unwrap(), budget)
            .unwrap();
    removed.apply(Edit::Remove(3)).unwrap();
    assert_eq!(
        edge_bits(removed.materialized().unwrap().mst()),
        expected,
        "remove"
    );
}

/// Coalescing equivalence: resolve a script against a one-at-a-time serial
/// session (recording the concrete edits it applied), then replay the same
/// edit list on a second session in coalesced batches of `batch` edits.
/// The batched final state must be **exactly** the serial final state —
/// same scheme, digraph, report, and MST summary bits.
fn assert_coalescing_equivalent(
    points: &[Point],
    budget: AntennaBudget,
    steps: &[Step],
    batch: usize,
) {
    let mut serial =
        DynamicSolverSession::new(DynamicInstance::new(points).unwrap(), budget).unwrap();
    let mut resolved = Vec::new();
    for step in steps {
        let Some(edit) = to_edit(&serial, step) else {
            continue;
        };
        serial.apply(edit).unwrap();
        resolved.push(edit);
    }

    let mut batched =
        DynamicSolverSession::new(DynamicInstance::new(points).unwrap(), budget).unwrap();
    for chunk in resolved.chunks(batch.max(1)) {
        batched.apply_coalesced(chunk).unwrap();
    }

    assert_eq!(
        batched.instance().ids(),
        serial.instance().ids(),
        "live ids diverged at batch={batch}"
    );
    assert_eq!(
        batched.instance().lmax().to_bits(),
        serial.instance().lmax().to_bits(),
        "lmax diverged at batch={batch}"
    );
    assert_eq!(
        batched.instance().mst_total_weight().to_bits(),
        serial.instance().mst_total_weight().to_bits(),
        "MST weight diverged at batch={batch}"
    );
    assert_eq!(
        batched.scheme(),
        serial.scheme(),
        "scheme diverged at batch={batch}"
    );
    assert_eq!(
        batched.digraph(),
        serial.digraph(),
        "digraph diverged at batch={batch}"
    );
    assert_eq!(
        batched.report(),
        serial.report(),
        "report diverged at batch={batch}"
    );
    // And the batched state satisfies the full rebuild oracle on its own.
    assert_oracle(&mut batched);
}

#[test]
fn coalesced_batches_equal_serial_application() {
    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    for seed in 0..4u64 {
        let points = PointSetGenerator::UniformSquare { n: 20, side: 9.0 }.generate(seed);
        let steps = mixed_script(seed.wrapping_mul(11) + 5);
        for batch in [1, 2, 3, 5, usize::MAX] {
            assert_coalescing_equivalent(&points, budget, &steps, batch);
        }
    }
}

#[test]
fn coalesced_batches_equal_serial_under_fallback_budget() {
    // Theorem 3 regime: every repair is a full re-solve, but batching must
    // still land on the identical final state.
    let points = PointSetGenerator::UniformSquare { n: 16, side: 6.0 }.generate(3);
    let budget = AntennaBudget::new(2, std::f64::consts::PI);
    for batch in [2, 4, usize::MAX] {
        assert_coalescing_equivalent(&points, budget, &mixed_script(8), batch);
    }
}

proptest! {
    #[test]
    fn prop_coalesced_batches_match_serial(
        initial in proptest::collection::vec((0.0..20.0f64, 0.0..20.0f64), 2..20),
        script in proptest::collection::vec(
            (0u8..3, 0u64..1_000_000u64, 0.0..20.0f64, 0.0..20.0f64),
            1..12
        ),
        batch in 1usize..6,
        k in 1usize..=3,
    ) {
        let points: Vec<Point> = initial.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let steps: Vec<Step> = script
            .iter()
            .map(|&(op, pick, x, y)| match op {
                0 => Step::Insert(x, y),
                1 => Step::Remove(pick),
                _ => Step::Move(pick, x, y),
            })
            .collect();
        let budget = AntennaBudget::new(k, theorem2_spread_threshold(k));
        assert_coalescing_equivalent(&points, budget, &steps, batch);
    }

    #[test]
    fn prop_random_scripts_match_rebuild_oracle(
        initial in proptest::collection::vec((0.0..20.0f64, 0.0..20.0f64), 2..25),
        script in proptest::collection::vec(
            (0u8..3, 0u64..1_000_000u64, 0.0..20.0f64, 0.0..20.0f64),
            1..15
        ),
        k in 1usize..=5,
    ) {
        let points: Vec<Point> = initial.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let steps: Vec<Step> = script
            .iter()
            .map(|&(op, pick, x, y)| match op {
                0 => Step::Insert(x, y),
                1 => Step::Remove(pick),
                _ => Step::Move(pick, x, y),
            })
            .collect();
        let budget = AntennaBudget::new(k, theorem2_spread_threshold(k));
        replay(&points, budget, &steps);
    }

    #[test]
    fn prop_snapped_grid_scripts_match_rebuild_oracle(
        initial in proptest::collection::vec((0usize..8, 0usize..8), 2..20),
        script in proptest::collection::vec(
            (0u8..3, 0u64..1_000_000u64, 0usize..8, 0usize..8),
            1..12
        ),
    ) {
        // Integer-snapped geometry: exact duplicates, shared rows/columns and
        // tied candidate edges in every repair — the worst case for the
        // incremental tie-breaking.
        let points: Vec<Point> = initial
            .iter()
            .map(|&(x, y)| Point::new(x as f64, y as f64))
            .collect();
        let steps: Vec<Step> = script
            .iter()
            .map(|&(op, pick, x, y)| match op {
                0 => Step::Insert(x as f64, y as f64),
                1 => Step::Remove(pick),
                _ => Step::Move(pick, x as f64, y as f64),
            })
            .collect();
        let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
        replay(&points, budget, &steps);
    }
}

/// The durability hook's contract: `DynamicSolverSession::replay(budget,
/// base, next_id, tail)` — base = a sparse live set at some cut point,
/// tail = the edits logged after it — must land bit-equal to the session
/// that lived through the whole history one edit at a time, for every cut
/// point.  This is what lets crash recovery rebuild a tenant from
/// (snapshot, WAL tail) with one bulk build, without replaying its batch
/// boundaries.
fn assert_replay_equivalent(points: &[Point], budget: AntennaBudget, steps: &[Step]) {
    let mut lived =
        DynamicSolverSession::new(DynamicInstance::new(points).unwrap(), budget).unwrap();
    let mut resolved = Vec::new();
    // Snapshot the (base, next_id) image at every prefix of the resolved
    // edit history, cut 0 being the seed deployment itself.
    let image = |s: &DynamicSolverSession| -> (Vec<(usize, Point)>, usize) {
        let base = s
            .instance()
            .ids()
            .into_iter()
            .map(|id| (id, s.instance().point(id).unwrap()))
            .collect();
        (base, s.instance().next_id())
    };
    let mut cuts = vec![image(&lived)];
    for step in steps {
        let Some(edit) = to_edit(&lived, step) else {
            continue;
        };
        lived.apply(edit).unwrap();
        resolved.push(edit);
        cuts.push(image(&lived));
    }

    for (cut, (base, next_id)) in cuts.iter().enumerate() {
        let mut recovered =
            DynamicSolverSession::replay(budget, base, *next_id, &resolved[cut..]).unwrap();
        assert_eq!(
            recovered.instance().ids(),
            lived.instance().ids(),
            "live ids diverged at cut={cut}"
        );
        assert_eq!(
            recovered.instance().next_id(),
            lived.instance().next_id(),
            "id horizon diverged at cut={cut}"
        );
        for id in lived.instance().ids() {
            let a = recovered.instance().point(id).unwrap();
            let b = lived.instance().point(id).unwrap();
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "x bits at cut={cut} id={id}");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "y bits at cut={cut} id={id}");
        }
        assert_eq!(
            recovered.instance().lmax().to_bits(),
            lived.instance().lmax().to_bits(),
            "lmax diverged at cut={cut}"
        );
        assert_eq!(
            recovered.instance().mst_total_weight().to_bits(),
            lived.instance().mst_total_weight().to_bits(),
            "MST weight diverged at cut={cut}"
        );
        assert_eq!(recovered.algorithm(), lived.algorithm(), "cut={cut}");
        assert_eq!(recovered.scheme(), lived.scheme(), "scheme at cut={cut}");
        assert_eq!(recovered.digraph(), lived.digraph(), "digraph at cut={cut}");
        assert_eq!(recovered.report(), lived.report(), "report at cut={cut}");
    }
}

#[test]
fn replay_from_every_cut_matches_the_lived_session() {
    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    for seed in 0..3u64 {
        let points = PointSetGenerator::UniformSquare { n: 18, side: 8.0 }.generate(seed);
        assert_replay_equivalent(&points, budget, &mixed_script(seed.wrapping_mul(13) + 2));
    }
}

#[test]
fn replay_matches_under_fallback_budget() {
    // Theorem 3 regime: replay's single coalesced batch triggers a full
    // re-solve, which must still agree with the lived per-edit re-solves.
    let points = PointSetGenerator::UniformSquare { n: 14, side: 6.0 }.generate(7);
    let budget = AntennaBudget::new(2, std::f64::consts::PI);
    assert_replay_equivalent(&points, budget, &mixed_script(4));
}

/// A script over the free cells of a `side × side` integer lattice: every
/// insert and move lands on a cell no live sensor holds, so the deployment
/// never has coincident sensors but every repair is tie-heavy.
fn lattice_script(side: usize, seed: u64) -> (Vec<Point>, Vec<Step>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cell = |c: usize| ((c % side) as f64, (c / side) as f64);
    let mut cells: Vec<usize> = (0..side * side).collect();
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.random_range(0..=i));
    }
    let n = rng.random_range(2..side * side / 2);
    // Live sensors as cells in ascending id order, and the free cells.
    let mut live: Vec<usize> = cells[..n].to_vec();
    let mut free: Vec<usize> = cells[n..].to_vec();
    let points = live
        .iter()
        .map(|&c| Point::new(cell(c).0, cell(c).1))
        .collect();
    let mut steps = Vec::new();
    for _ in 0..rng.random_range(4..14) {
        let pick = rng.random_range(0..live.len());
        match rng.random_range(0..3) {
            0 if !free.is_empty() => {
                let c = free.swap_remove(rng.random_range(0..free.len()));
                live.push(c);
                steps.push(Step::Insert(cell(c).0, cell(c).1));
            }
            1 if live.len() > 1 => {
                free.push(live.remove(pick));
                steps.push(Step::Remove(pick as u64));
            }
            _ if !free.is_empty() => {
                let to = free.swap_remove(rng.random_range(0..free.len()));
                free.push(std::mem::replace(&mut live[pick], to));
                steps.push(Step::Move(pick as u64, cell(to).0, cell(to).1));
            }
            _ => {}
        }
    }
    (points, steps)
}

#[test]
fn replay_matches_on_duplicate_free_lattice_scripts() {
    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    for seed in 0..60u64 {
        let (points, steps) = lattice_script(3 + (seed as usize % 6), seed);
        assert_replay_equivalent(&points, budget, &steps);
    }
}

#[test]
fn replay_of_a_sharded_size_tenant_recovers_onto_a_grid_index() {
    // Above AUTO_SHARD_MIN_POINTS the replay's default spec resolves to a
    // grid, so the recovered session edits through a tiled index while the
    // lived session runs on one tile; both bulk builds are the global
    // engine, and the replay must stay bit-equal to the lived history.
    let n = AUTO_SHARD_MIN_POINTS + 100;
    let points = PointSetGenerator::UniformSquare { n, side: 64.0 }.generate(17);
    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    let base: Vec<(usize, Point)> = points.iter().copied().enumerate().collect();
    let replayed = DynamicSolverSession::replay(budget, &base, n, &[]).unwrap();
    assert!(replayed.instance().shard_grid().is_some());
    let steps: Vec<Step> = mixed_script(23)
        .into_iter()
        .map(|step| match step {
            Step::Insert(x, y) => Step::Insert(x * 4.0, y * 4.0),
            Step::Move(pick, x, y) => Step::Move(pick, x * 4.0, y * 4.0),
            remove => remove,
        })
        .collect();
    assert_replay_equivalent(&points, budget, &steps[..6]);
}

#[test]
fn replay_handles_sparse_ids_and_empty_tails() {
    // Drain to a sparse live set ({1, 3} with next_id 6), then recover
    // from the base image alone.
    let points: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect();
    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    let mut lived =
        DynamicSolverSession::new(DynamicInstance::new(&points).unwrap(), budget).unwrap();
    lived.apply(Edit::Insert(Point::new(1.0, 3.0))).unwrap(); // id 4
    lived.apply(Edit::Insert(Point::new(5.0, 3.0))).unwrap(); // id 5
    for dead in [0usize, 2, 4, 5] {
        lived.apply(Edit::Remove(dead)).unwrap();
    }
    let base: Vec<(usize, Point)> = lived
        .instance()
        .ids()
        .into_iter()
        .map(|id| (id, lived.instance().point(id).unwrap()))
        .collect();
    assert_eq!(base.iter().map(|&(id, _)| id).collect::<Vec<_>>(), [1, 3]);
    let mut recovered =
        DynamicSolverSession::replay(budget, &base, lived.instance().next_id(), &[]).unwrap();
    assert_eq!(recovered.instance().ids(), lived.instance().ids());
    assert_eq!(recovered.instance().next_id(), 6);
    assert_eq!(recovered.scheme(), lived.scheme());
    assert_eq!(recovered.digraph(), lived.digraph());
    assert_eq!(recovered.report(), lived.report());

    // Ids keep flowing from the horizon after recovery.
    let mut recovered = recovered;
    let outcome = recovered
        .apply_coalesced(&[Edit::Insert(Point::new(9.0, 9.0))])
        .unwrap();
    assert_eq!(outcome.inserted_ids, [6]);
}

#[test]
fn replay_rejects_malformed_bases_and_inconsistent_tails() {
    let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
    let p = Point::new(0.0, 0.0);
    // Id at/above the horizon.
    assert!(DynamicSolverSession::replay(budget, &[(3, p)], 3, &[]).is_err());
    // Non-ascending ids.
    assert!(DynamicSolverSession::replay(budget, &[(2, p), (1, p)], 4, &[]).is_err());
    // A tail referencing a dead id fails like any rejected batch.
    assert!(DynamicSolverSession::replay(budget, &[(0, p)], 2, &[Edit::Remove(1)]).is_err());
    // The empty tenant (no sensors yet) replays fine.
    let empty = DynamicSolverSession::replay(budget, &[], 0, &[]).unwrap();
    assert_eq!(empty.instance().len(), 0);
}
