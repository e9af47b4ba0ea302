//! Incrementally maintained Euclidean MSTs for dynamic deployments.
//!
//! [`DynamicEmst`] keeps a degree-5 Euclidean MST correct under three edits —
//! [`insert`](DynamicEmst::insert), [`remove`](DynamicEmst::remove) and
//! [`move_to`](DynamicEmst::move_to) — without re-running the full engine.
//! It has one spatial index, a [`TiledKdForest`] (a single tile unless the
//! deployment is sharded), one constructor and one repair path per edit:
//!
//! * **Build.**  [`DynamicEmst::from_entries`] takes the live `(slot,
//!   point)` pairs in ascending slot order and runs the static build
//!   ([`EuclideanMst::build`]) over the live points, then relabels dense
//!   index `i` to the `i`-th slot.  The relabeling is monotone, so it keeps
//!   the engines' shared `(weight, min, max)` edge order and hence the same
//!   unique MST.  Fresh, empty and
//!   recovered deployments all start here, so rebuilding a tenant from a
//!   durable image costs one O(n log n) build.  The tile grid only
//!   partitions the spatial index the edits query.
//! * **Insert** uses the vertex-insertion fact of Chin & Houck (*Algorithms
//!   for updating minimal spanning trees*, JCSS 1978): a minimum spanning
//!   tree of `P ∪ {q}` lies inside `T ∪ star(q)`, where `T` is any MST of
//!   `P` and `star(q)` are the edges from `q` to every point.  Only the star
//!   edges inside a Lemma-1-scale ball can enter, so the insert collects
//!   that bounded star from the index, prunes it by the cycle property and
//!   folds the survivors in with path-max swaps — exact for any index.
//! * **Remove** deletes the vertex's ≤ 5 incident edges, which splits the
//!   tree into at most 5 components, every remaining tree edge still being
//!   MST-valid (each stays a minimum edge across its own cut).  The repair is
//!   a *localized Borůvka*: repeatedly take the smallest component and ask
//!   the index for its minimum outgoing edge (nearest-foreign queries per
//!   member), merging until one component remains — at most 4 merges, each
//!   exact by the cut property.
//! * **Move** is detach + re-attach under the same slot.
//!
//! Vertices are identified by stable **slots** (monotonically assigned
//! `usize` ids); removed slots are tombstoned, and each tile's kd-tree
//! compacts itself through threshold rebuilds.  After every edit the engine
//! reports which live slots had their tree neighborhood changed
//! ([`DynamicEmst::changed_slots`]) — the hook the incremental
//! re-orientation in `antennae-core` keys its dirty set off.
//!
//! Exactness contract (pinned by the edit-script oracle suite in the root
//! `tests/`): after every edit the maintained tree is the unique MST of the
//! live point set under the shared edge order — the same edge set, weight
//! bits included, as a from-scratch [`EuclideanMst::build`] — whenever that
//! tree has maximum degree ≤ 5.  Otherwise (exact 60° ties, in practice
//! coincident sensors) the same tie-exchange the static engine uses brings
//! the degree down to 5, and which exchange runs can depend on the edit
//! history; weight and `lmax` still match the rebuild.

use crate::euclidean::{EmstError, EuclideanMst, MAX_MST_DEGREE};
use crate::graph::Graph;
use antennae_geometry::angular::{circular_gaps, sort_ccw};
use antennae_geometry::{Point, TileGrid, TiledKdForest};

/// Inclusive widening applied to the bounded-star collection radius of the
/// insert path, so a star edge whose *weight* rounds to exactly the radius
/// can never be excluded by the squared-distance ball test.  Supersets of
/// the exact star are harmless: every star edge outside the ball is the
/// strict maximum of a cycle, so any star between the ball and the full
/// star yields the same tree.
const STAR_SLACK: f64 = 1.0 + 4.0 * f64::EPSILON;

/// A tree edge in slot space, ordered by the engines' shared tie-broken
/// total order `(weight, min slot, max slot)`.
type SlotEdge = (f64, u32, u32);

fn edge_order(a: SlotEdge, b: SlotEdge) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

fn make_edge(w: f64, a: usize, b: usize) -> SlotEdge {
    (w, a.min(b) as u32, a.max(b) as u32)
}

/// Errors reported by [`DynamicEmst`] edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicEmstError {
    /// The referenced slot is not a live sensor.
    UnknownSlot(usize),
}

impl std::fmt::Display for DynamicEmstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicEmstError::UnknownSlot(slot) => {
                write!(f, "slot {slot} is not a live sensor")
            }
        }
    }
}

impl std::error::Error for DynamicEmstError {}

/// An incrementally maintained degree-5 Euclidean MST (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct DynamicEmst {
    /// Slot-indexed sensor locations (tombstoned slots keep a stale point).
    points: Vec<Point>,
    alive: Vec<bool>,
    live: usize,
    /// Slot-space tree adjacency, each list sorted ascending by slot.
    adj: Vec<Vec<(usize, f64)>>,
    /// The tree's edges sorted by the shared `(w, min, max)` order — the
    /// source of `lmax` (its last entry).
    sorted_edges: Vec<SlotEdge>,
    index: TiledKdForest,
    /// Live slots whose tree neighborhood changed in the last edit.
    changed: Vec<usize>,
    /// Component-labeling scratch shared by [`DynamicEmst::reconnect`]
    /// (group labels) and [`DynamicEmst::tree_path_max`] (BFS sides): a slot
    /// is labeled in the current pass iff `label_stamp[slot] == label_epoch`.
    /// Stamping makes each pass O(vertices touched), not O(n) clears.
    label_stamp: Vec<u64>,
    label_of: Vec<u32>,
    label_epoch: u64,
    /// BFS parent pointers + parent-edge weights for
    /// [`DynamicEmst::tree_path_max`], valid under the same stamp scheme.
    path_parent: Vec<u32>,
    path_w: Vec<f64>,
}

impl DynamicEmst {
    /// The one constructor: `entries` are the live `(slot, point)` pairs in
    /// strictly ascending slot order, `next_slot` is the slot the next
    /// [`DynamicEmst::insert`] returns (every slot below it without an
    /// entry is dead), and `grid` partitions the spatial index —
    /// [`TileGrid::single`] for an unsharded deployment.
    ///
    /// **Empty** entries are allowed: the engine starts with no live slots
    /// (edgeless, `lmax == 0`) and grows through [`DynamicEmst::insert`] —
    /// the shape a long-running service needs when a deployment is
    /// registered before its first sensor arrives.
    ///
    /// The first tree is [`EuclideanMst::build`] over the live points in
    /// entry order (one serial O(n log n) build above the engine
    /// crossover), with dense index `i` relabeled to `entries[i].0`.  The
    /// relabeling is monotone, so the `(weight, min, max)` order — and with it the unique
    /// MST — is the same in slot space: a deployment rebuilt from its live
    /// set holds the tree its edit history left behind (see the module docs
    /// for the degree-exchange caveat).
    ///
    /// # Panics
    ///
    /// When the entry slots are not strictly ascending below `next_slot`.
    pub fn from_entries(
        entries: &[(usize, Point)],
        next_slot: usize,
        grid: TileGrid,
    ) -> Result<Self, EmstError> {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0)
                && entries.last().is_none_or(|&(slot, _)| slot < next_slot),
            "entry slots must be strictly ascending below next_slot"
        );
        let mut points = vec![Point::ORIGIN; next_slot];
        let mut alive = vec![false; next_slot];
        for &(slot, p) in entries {
            points[slot] = p;
            alive[slot] = true;
        }
        let mut emst = DynamicEmst {
            points,
            alive,
            live: entries.len(),
            adj: vec![Vec::new(); next_slot],
            sorted_edges: Vec::new(),
            index: TiledKdForest::new(grid, entries),
            changed: Vec::new(),
            label_stamp: vec![0; next_slot],
            label_of: vec![0; next_slot],
            label_epoch: 0,
            path_parent: vec![0; next_slot],
            path_w: vec![0.0; next_slot],
        };
        if entries.is_empty() {
            return Ok(emst);
        }
        let live: Vec<Point> = entries.iter().map(|&(_, p)| p).collect();
        let initial = EuclideanMst::build(&live)?;
        for (dense, &(slot, _)) in entries.iter().enumerate() {
            // Dense adjacency is ascending, and so stays after relabeling.
            emst.adj[slot] = initial
                .neighbors(dense)
                .iter()
                .map(|&(u, w)| (entries[u].0, w))
                .collect();
        }
        emst.sorted_edges = initial
            .edges()
            .iter()
            .map(|e| make_edge(e.weight, entries[e.u].0, entries[e.v].0))
            .collect();
        emst.sorted_edges
            .sort_unstable_by(|&a, &b| edge_order(a, b));
        Ok(emst)
    }

    /// Number of live sensors.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Returns `true` when `slot` holds a live sensor.
    pub fn is_alive(&self, slot: usize) -> bool {
        self.alive.get(slot).copied().unwrap_or(false)
    }

    /// The location of a live slot.
    pub fn point(&self, slot: usize) -> Point {
        debug_assert!(self.is_alive(slot));
        self.points[slot]
    }

    /// Tree neighbours of a live slot, ascending by slot, with edge lengths.
    pub fn neighbors(&self, slot: usize) -> &[(usize, f64)] {
        &self.adj[slot]
    }

    /// The longest tree edge (`lmax`), 0 when fewer than two sensors live.
    pub fn lmax(&self) -> f64 {
        self.sorted_edges.last().map_or(0.0, |&(w, _, _)| w)
    }

    /// Total tree weight.
    pub fn total_weight(&self) -> f64 {
        self.sorted_edges.iter().map(|&(w, _, _)| w).sum()
    }

    /// Maximum tree degree over live slots.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Live slots in ascending order.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.points.len()).filter(|&s| self.alive[s]).collect()
    }

    /// One past the largest slot ever assigned — the slot the next
    /// [`DynamicEmst::insert`] will return.  Lets callers (the deployment
    /// server's edit validator) project id assignment without mutating.
    pub fn slot_bound(&self) -> usize {
        self.points.len()
    }

    /// Queries the shared spatial index for every live slot within `radius`
    /// of `query` (closed ball, `out` sorted ascending) — reused by the
    /// verification side of a dynamic solver session.  `scratch` is caller
    /// scratch space so steady-state queries allocate nothing.
    pub fn within_radius_with(
        &self,
        query: &Point,
        radius: f64,
        scratch: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        self.index.within_radius_with(query, radius, scratch, out);
    }

    /// The grid the spatial index is partitioned by (one tile when the
    /// deployment is unsharded).
    pub fn tile_grid(&self) -> &TileGrid {
        self.index.grid()
    }

    /// Tiles holding at least one live sensor.
    pub fn occupied_tiles(&self) -> usize {
        self.index.occupied_tiles()
    }

    /// Live slots whose tree neighborhood changed in the most recent edit
    /// (sorted, deduplicated; includes an inserted/moved slot itself).
    pub fn changed_slots(&self) -> &[usize] {
        &self.changed
    }

    /// Inserts a sensor, returning its freshly assigned slot.
    pub fn insert(&mut self, p: Point) -> usize {
        let slot = self.points.len();
        self.points.push(p);
        self.alive.push(true);
        self.adj.push(Vec::new());
        self.label_stamp.push(0);
        self.label_of.push(0);
        self.path_parent.push(0);
        self.path_w.push(0.0);
        self.live += 1;
        self.index.insert(slot, p);
        self.changed.clear();
        self.changed.push(slot);
        self.attach(slot);
        self.finish_edit();
        slot
    }

    /// Removes a live sensor (errors on dead slots).  Draining to zero is
    /// allowed: removing the last sensor leaves an edgeless engine with
    /// `lmax == 0` that can be regrown through [`DynamicEmst::insert`].
    pub fn remove(&mut self, slot: usize) -> Result<(), DynamicEmstError> {
        if !self.is_alive(slot) {
            return Err(DynamicEmstError::UnknownSlot(slot));
        }
        self.changed.clear();
        self.alive[slot] = false;
        self.live -= 1;
        self.index.remove(slot);
        self.detach(slot);
        self.finish_edit();
        Ok(())
    }

    /// Moves a live sensor to a new location, keeping its slot.
    pub fn move_to(&mut self, slot: usize, p: Point) -> Result<(), DynamicEmstError> {
        if !self.is_alive(slot) {
            return Err(DynamicEmstError::UnknownSlot(slot));
        }
        self.changed.clear();
        self.changed.push(slot);
        // Detach from the tree, then re-attach at the new location.  The
        // slot leaves the spatial index *before* the detach so the
        // reconnection's nearest-foreign queries cannot wire an edge back to
        // the vacating sensor.
        self.index.remove(slot);
        self.alive[slot] = false;
        self.live -= 1;
        self.detach(slot);
        self.points[slot] = p;
        self.index.insert(slot, p);
        self.alive[slot] = true;
        self.live += 1;
        self.attach(slot);
        self.finish_edit();
        Ok(())
    }

    /// Dedup + drop-dead pass over the changed set after an edit.
    fn finish_edit(&mut self) {
        self.changed.retain(|&s| self.alive[s]);
        self.changed.sort_unstable();
        self.changed.dedup();
    }

    /// Connects `slot` (live, currently edge-less) to the spanning tree of
    /// the other live slots — exact vertex insertion in three steps:
    ///
    /// 1. **Bounded star.**  With `d₁` the distance to the nearest live
    ///    sensor and `R = max(d₁, lmax)`, a star edge `(v, u)` longer than
    ///    `R` closes the cycle `v → nearest ⋯ u` whose other edges (the
    ///    nearest edge and tree edges) are all ≤ `R`, so it is in no MST of
    ///    `T ∪ star(v)`.  Collecting the closed ball of radius `R`
    ///    (ulp-widened by [`STAR_SLACK`]) keeps every star edge that can
    ///    enter while touching `O(ball)` points instead of `O(n)`.
    /// 2. **Cycle-property pruning.**  A candidate `(v, u)` with a witness
    ///    `z` such that both `(v, z)` and `(z, u)` precede it in the shared
    ///    edge order is the strict maximum of the triangle `v–z–u`, so it is
    ///    in no MST and can be dropped.  Any witness closer to `v` than `u`
    ///    lies inside the ball, so scanning earlier star entries finds one
    ///    whenever it exists; survivors are pairwise ≥ 60° apart around `v`
    ///    (else the nearer endpoint witnesses against the farther), hence at
    ///    most six — the relative-neighborhood-graph bound.
    /// 3. **Path-max swaps.**  The smallest star edge is the minimum edge
    ///    across the cut `{v}`, so it joins unconditionally.  Each further
    ///    survivor `e = (v, u)` closes one cycle with the current tree path
    ///    `v⋯u`; by the cycle property the tree stays minimum iff the path's
    ///    maximum edge `M` survives, so `e` enters (and `M` leaves) exactly
    ///    when `e < M`.  Each step keeps the tree an exact MST of the edges
    ///    considered so far, and the Chin–Houck fact
    ///    (`MST(P ∪ {v}) ⊆ T ∪ star(v)`) makes the final tree the MST of the
    ///    full point set.
    fn attach(&mut self, slot: usize) {
        if self.live <= 1 {
            return;
        }
        let apex = self.points[slot];
        let (_, d1) = self
            .index
            .nearest_filtered_slot(&apex, |s| s == slot)
            .expect("live > 1, so a nearest foreign sensor exists");
        let radius = d1.max(self.lmax()) * STAR_SLACK;
        let mut scratch = Vec::new();
        let mut ball = Vec::new();
        self.index
            .within_radius_with(&apex, radius, &mut scratch, &mut ball);
        let other = |e: SlotEdge| if e.1 as usize == slot { e.2 } else { e.1 } as usize;
        let mut star: Vec<SlotEdge> = ball
            .iter()
            .filter(|&&t| t != slot)
            .map(|&t| make_edge(apex.distance(&self.points[t]), slot, t))
            .collect();
        star.sort_unstable_by(|&a, &b| edge_order(a, b));

        let mut survivors: Vec<SlotEdge> = Vec::new();
        'candidates: for (ci, &e) in star.iter().enumerate() {
            let u = other(e);
            for &ze in &star[..ci] {
                let z = other(ze);
                let zu = make_edge(self.points[z].distance(&self.points[u]), z, u);
                if edge_order(zu, e) == std::cmp::Ordering::Less {
                    continue 'candidates;
                }
            }
            survivors.push(e);
        }

        self.add_tree_edge(survivors[0]);
        for &e in &survivors[1..] {
            let m = self.tree_path_max(slot, other(e));
            if edge_order(e, m) == std::cmp::Ordering::Less {
                let (ma, mb) = (m.1 as usize, m.2 as usize);
                self.adj[ma].retain(|&(x, _)| x != mb);
                self.adj[mb].retain(|&(x, _)| x != ma);
                self.remove_sorted(m);
                self.changed.push(ma);
                self.changed.push(mb);
                self.add_tree_edge(e);
            }
        }
        self.repair_degrees();
    }

    /// Wires `e` into both adjacency lists and the sorted edge cache, and
    /// marks its endpoints changed.
    fn add_tree_edge(&mut self, e: SlotEdge) {
        let (a, b) = (e.1 as usize, e.2 as usize);
        self.adj_insert(a, b, e.0);
        self.adj_insert(b, a, e.0);
        self.insert_sorted(e);
        self.changed.push(a);
        self.changed.push(b);
    }

    /// The maximum edge (by the shared order) on the unique tree path
    /// between live slots `a` and `b`, found by a bidirectional BFS that
    /// meets near the middle — O(vertices within half the path's hop
    /// distance), independent of the tree size for nearby endpoints.
    fn tree_path_max(&mut self, a: usize, b: usize) -> SlotEdge {
        debug_assert!(a != b);
        self.label_epoch += 1;
        let epoch = self.label_epoch;
        self.label_stamp[a] = epoch;
        self.label_of[a] = 0;
        self.path_parent[a] = u32::MAX;
        self.label_stamp[b] = epoch;
        self.label_of[b] = 1;
        self.path_parent[b] = u32::MAX;
        let mut frontiers: [Vec<usize>; 2] = [vec![a], vec![b]];
        let meet: (usize, usize, f64) = 'search: loop {
            // Expand the smaller frontier one full level.
            let side = usize::from(frontiers[1].len() < frontiers[0].len());
            debug_assert!(!frontiers[side].is_empty(), "endpoints are connected");
            let mut next = Vec::new();
            for &v in &frontiers[side] {
                for i in 0..self.adj[v].len() {
                    let (u, w) = self.adj[v][i];
                    if self.label_stamp[u] != epoch {
                        self.label_stamp[u] = epoch;
                        self.label_of[u] = side as u32;
                        self.path_parent[u] = v as u32;
                        self.path_w[u] = w;
                        next.push(u);
                    } else if self.label_of[u] as usize != side {
                        break 'search (v, u, w);
                    }
                }
            }
            frontiers[side] = next;
        };
        // The unique a–b path is (a ⋯ v) + (v, u) + (u ⋯ b); fold the
        // parent chains on both sides into the running maximum.
        let mut max = make_edge(meet.2, meet.0, meet.1);
        for start in [meet.0, meet.1] {
            let mut x = start;
            while self.path_parent[x] != u32::MAX {
                let p = self.path_parent[x] as usize;
                let e = make_edge(self.path_w[x], x, p);
                if edge_order(e, max) == std::cmp::Ordering::Greater {
                    max = e;
                }
                x = p;
            }
        }
        max
    }

    /// Removes `slot`'s incident edges and reconnects the resulting ≤ 5
    /// components with their minimum outgoing edges (localized Borůvka over
    /// the spatial index).  `slot` must already be excluded from the live
    /// set (dead, or temporarily detached by a move).
    fn detach(&mut self, slot: usize) {
        let incident: Vec<(usize, f64)> = std::mem::take(&mut self.adj[slot]);
        for &(u, w) in &incident {
            self.adj[u].retain(|&(v, _)| v != slot);
            self.remove_sorted(make_edge(w, slot, u));
            self.changed.push(u);
        }
        if incident.len() >= 2 {
            let seeds: Vec<usize> = incident.iter().map(|&(u, _)| u).collect();
            self.reconnect(&seeds);
        }
        self.repair_degrees();
    }

    /// Borůvka-style reconnection of the spanning forest left by a vertex
    /// detach into a single tree.  `seeds` are the detached vertex's former
    /// neighbours — one per component, since removing a vertex from a tree
    /// splits it into exactly one component per neighbour.
    ///
    /// Component discovery is a **lockstep BFS** from the seeds: all
    /// frontiers advance one vertex per round, so the cost of labeling
    /// tracks the *small* components (≈ seeds × second-largest size), not
    /// the whole tree — the giant component on the far side of the cut is
    /// left unlabeled and is simply never the query side.  Every added edge
    /// is a minimum outgoing edge of a fully discovered component, so the
    /// result is the unique MST regardless of merge order (cut property) —
    /// bit-identical to a full relabeling pass.
    fn reconnect(&mut self, seeds: &[usize]) {
        self.label_epoch += 1;
        let epoch = self.label_epoch;

        // Per-seed group state: `members` doubles as the BFS queue (indexed
        // by `head`); a group is complete when its queue drains.
        let mut members: Vec<Vec<usize>> = Vec::with_capacity(seeds.len());
        let mut head: Vec<usize> = vec![0; seeds.len()];
        let mut complete: Vec<bool> = vec![false; seeds.len()];
        let mut merged: Vec<bool> = vec![false; seeds.len()];
        for (g, &s) in seeds.iter().enumerate() {
            debug_assert!(self.label_stamp[s] != epoch, "seeds share a component");
            self.label_stamp[s] = epoch;
            self.label_of[s] = g as u32;
            members.push(vec![s]);
        }

        // Lockstep discovery until at most one group (the giant) is still
        // expanding.
        let mut incomplete = seeds.len();
        while incomplete > 1 {
            for g in 0..members.len() {
                if complete[g] {
                    continue;
                }
                if head[g] == members[g].len() {
                    complete[g] = true;
                    incomplete -= 1;
                    continue;
                }
                let v = members[g][head[g]];
                head[g] += 1;
                for i in 0..self.adj[v].len() {
                    let u = self.adj[v][i].0;
                    if self.label_stamp[u] != epoch {
                        self.label_stamp[u] = epoch;
                        self.label_of[u] = g as u32;
                        members[g].push(u);
                    } else {
                        debug_assert!(
                            self.label_of[u] as usize == g,
                            "distinct components cannot meet in a forest"
                        );
                    }
                }
            }
        }

        // Merge loop: repeatedly take the smallest complete component, wire
        // in its minimum outgoing edge, and fold it into the component on
        // the other side.  Exactly `seeds.len() - 1` edges reconnect the
        // tree.
        for _ in 0..seeds.len() - 1 {
            let (ci, _) = members
                .iter()
                .enumerate()
                .filter(|&(g, _)| complete[g] && !merged[g])
                .min_by_key(|(_, m)| m.len())
                .expect("a complete unmerged component remains");
            let label = ci as u32;
            let mut best: Option<(SlotEdge, usize)> = None; // (edge, foreign slot)
            for &v in &members[ci] {
                // Bounded by the best edge so far (inclusive, so a tie with
                // a smaller key still surfaces).  Members come in BFS order
                // from the seed, a neighbour of the detached vertex, so the
                // bound is tight from the first query on.
                let bound = best.map_or(f64::INFINITY, |(b, _)| b.0);
                let found = self.index.nearest_filtered_slot_within(
                    &self.points[v],
                    |s| self.label_stamp[s] == epoch && self.label_of[s] == label,
                    bound,
                );
                if let Some((u, d)) = found {
                    let e = make_edge(d, v, u);
                    if best.is_none_or(|(b, _)| edge_order(e, b) == std::cmp::Ordering::Less) {
                        best = Some((e, u));
                    }
                }
            }
            let (edge, foreign) = best.expect("a second component exists");
            self.add_tree_edge(edge);

            merged[ci] = true;
            if self.label_stamp[foreign] == epoch {
                let target = self.label_of[foreign] as usize;
                if complete[target] {
                    // Fold into another small component: its future queries
                    // must treat our members as same-side, and may issue
                    // from them.
                    let moved = std::mem::take(&mut members[ci]);
                    for &m in &moved {
                        self.label_of[m] = target as u32;
                    }
                    members[target].extend(moved);
                }
                // Folding into the giant needs no relabeling: our stale
                // label is never a query side again, and other components
                // already treat it as foreign.
            }
        }
    }

    fn adj_insert(&mut self, u: usize, v: usize, w: f64) {
        let list = &mut self.adj[u];
        let pos = list.partition_point(|&(s, _)| s < v);
        list.insert(pos, (v, w));
    }

    fn insert_sorted(&mut self, e: SlotEdge) {
        let pos = self
            .sorted_edges
            .partition_point(|&x| edge_order(x, e) == std::cmp::Ordering::Less);
        self.sorted_edges.insert(pos, e);
    }

    fn remove_sorted(&mut self, e: SlotEdge) {
        let pos = self
            .sorted_edges
            .partition_point(|&x| edge_order(x, e) == std::cmp::Ordering::Less);
        debug_assert!(
            self.sorted_edges.get(pos) == Some(&e),
            "edge {e:?} not in cache"
        );
        self.sorted_edges.remove(pos);
    }

    /// The same local tie-exchange the static engine runs: while some vertex
    /// exceeds degree 5 (only possible under exact 60°/equal-length ties),
    /// replace the longer of its two angularly closest star edges by the
    /// edge between the two neighbours.
    ///
    /// Only slots whose degree changed in the current edit can newly violate
    /// (the previous repair left none), and every such slot is in the
    /// `changed` set — so the scan runs over a min-heap of candidates
    /// instead of the whole slot space.  Popping the smallest candidate
    /// reproduces the smallest-violating-slot-first order of a full
    /// ascending scan exactly.
    fn repair_degrees(&mut self) {
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
            self.changed.iter().map(|&v| std::cmp::Reverse(v)).collect();
        let mut budget = 4 * self.live + 16;
        while let Some(std::cmp::Reverse(v)) = heap.pop() {
            if !self.alive.get(v).copied().unwrap_or(false) || self.adj[v].len() <= MAX_MST_DEGREE {
                continue;
            }
            if budget == 0 {
                return;
            }
            budget -= 1;
            let neighbor_ids: Vec<usize> = self.adj[v].iter().map(|&(u, _)| u).collect();
            let neighbor_pts: Vec<Point> = neighbor_ids.iter().map(|&u| self.points[u]).collect();
            let sorted = sort_ccw(&self.points[v], &neighbor_pts);
            let gaps = circular_gaps(&sorted);
            let d = sorted.len();
            let (closest_pair_idx, _) = gaps
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("degree > 5 vertex has neighbours");
            let a = neighbor_ids[sorted[closest_pair_idx].index];
            let b = neighbor_ids[sorted[(closest_pair_idx + 1) % d].index];
            let da = self.points[v].distance(&self.points[a]);
            let db = self.points[v].distance(&self.points[b]);
            let drop_endpoint = if da >= db { a } else { b };
            let dropped_w = if da >= db { da } else { db };
            self.adj[v].retain(|&(u, _)| u != drop_endpoint);
            self.adj[drop_endpoint].retain(|&(u, _)| u != v);
            self.remove_sorted(make_edge(dropped_w, v, drop_endpoint));
            self.add_tree_edge(make_edge(self.points[a].distance(&self.points[b]), a, b));
            self.changed.push(v);
            heap.push(std::cmp::Reverse(v));
            heap.push(std::cmp::Reverse(a));
            heap.push(std::cmp::Reverse(b));
        }
    }

    /// Materializes the live deployment as a dense [`EuclideanMst`].
    ///
    /// Live slots are mapped to dense indices in ascending slot order, and
    /// tree edges are inserted sorted by `(min, max)` dense endpoints so
    /// that every vertex's adjacency list comes out ascending — the same
    /// canonical neighbour order the incremental re-orientation uses, which
    /// is what makes the dynamic scheme bit-identical to a full re-orient on
    /// the materialized instance even under angular ties.
    pub fn materialize(&self) -> Result<EuclideanMst, EmstError> {
        let slots = self.live_slots();
        if slots.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        let mut dense_of = vec![u32::MAX; self.points.len()];
        for (dense, &slot) in slots.iter().enumerate() {
            dense_of[slot] = dense as u32;
        }
        let points: Vec<Point> = slots.iter().map(|&s| self.points[s]).collect();
        let mut edges: Vec<(u32, u32, f64)> = self
            .sorted_edges
            .iter()
            .map(|&(w, a, b)| {
                // Slot→dense is monotone, so (min, max) is preserved.
                (dense_of[a as usize], dense_of[b as usize], w)
            })
            .collect();
        edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut tree = Graph::new(points.len());
        for (a, b, w) in edges {
            tree.add_edge(a as usize, b as usize, w);
        }
        EuclideanMst::from_precomputed(points, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0)))
            .collect()
    }

    /// A one-tile engine over a dense deployment (slot `i` = point `i`).
    fn one_tile(points: &[Point]) -> DynamicEmst {
        let entries: Vec<(usize, Point)> = points.iter().copied().enumerate().collect();
        DynamicEmst::from_entries(&entries, points.len(), TileGrid::single()).unwrap()
    }

    /// The maintained tree must match a from-scratch build: spanning, same
    /// weight, same `lmax`, degree ≤ 5.
    fn assert_matches_rebuild(emst: &DynamicEmst) {
        let live: Vec<Point> = emst.live_slots().iter().map(|&s| emst.point(s)).collect();
        let fresh = EuclideanMst::build(&live).unwrap();
        assert_eq!(emst.sorted_edges.len(), live.len().saturating_sub(1));
        let scale = fresh.total_weight().max(1.0);
        assert!(
            (emst.total_weight() - fresh.total_weight()).abs() < 1e-9 * scale,
            "weight {} vs rebuild {}",
            emst.total_weight(),
            fresh.total_weight()
        );
        assert!(
            (emst.lmax() - fresh.lmax()).abs() < 1e-9 * scale,
            "lmax {} vs rebuild {}",
            emst.lmax(),
            fresh.lmax()
        );
        assert!(emst.max_degree() <= MAX_MST_DEGREE);
        // The materialized dense tree round-trips.
        let dense = emst.materialize().unwrap();
        assert_eq!(dense.len(), live.len());
        assert!((dense.total_weight() - emst.total_weight()).abs() < 1e-9 * scale);
        assert_eq!(dense.lmax(), emst.lmax());
    }

    #[test]
    fn insert_grows_a_correct_tree() {
        let mut emst = one_tile(&random_points(2, 1));
        let extra = random_points(30, 2);
        for p in extra {
            emst.insert(p);
            assert_matches_rebuild(&emst);
            assert!(!emst.changed_slots().is_empty());
        }
        assert_eq!(emst.live_count(), 32);
    }

    #[test]
    fn remove_repairs_the_tree() {
        let pts = random_points(40, 3);
        let mut emst = one_tile(&pts);
        let mut rng = StdRng::seed_from_u64(9);
        while emst.live_count() > 1 {
            let live = emst.live_slots();
            let victim = live[rng.random_range(0..live.len())];
            emst.remove(victim).unwrap();
            assert_matches_rebuild(&emst);
        }
        // Draining to one sensor leaves an edgeless tree with lmax 0…
        assert_eq!(emst.lmax(), 0.0);
        // …and draining all the way to zero is allowed.
        emst.remove(emst.live_slots()[0]).unwrap();
        assert_eq!(emst.live_count(), 0);
        assert_eq!(emst.lmax(), 0.0);
        assert_eq!(emst.total_weight(), 0.0);
        assert!(emst.live_slots().is_empty());
    }

    #[test]
    fn empty_engine_grows_and_drains() {
        let mut emst = one_tile(&[]);
        assert_eq!(emst.live_count(), 0);
        assert_eq!(emst.lmax(), 0.0);
        assert!(matches!(
            emst.remove(0),
            Err(DynamicEmstError::UnknownSlot(0))
        ));

        // Regrow from nothing; slots keep their monotone assignment.
        let a = emst.insert(Point::new(0.0, 0.0));
        let b = emst.insert(Point::new(3.0, 4.0));
        assert_eq!((a, b), (0, 1));
        assert_eq!(emst.slot_bound(), 2);
        assert_eq!(emst.live_count(), 2);
        assert!((emst.lmax() - 5.0).abs() < 1e-12);
        assert_matches_rebuild(&emst);

        // Drain back to zero and grow once more: tombstoned slots stay dead.
        emst.remove(a).unwrap();
        emst.remove(b).unwrap();
        assert_eq!(emst.live_count(), 0);
        let c = emst.insert(Point::new(1.0, 1.0));
        assert_eq!(c, 2);
        assert_eq!(emst.live_slots(), vec![2]);
        assert_eq!(emst.lmax(), 0.0);
    }

    #[test]
    fn moves_track_the_rebuild() {
        let pts = random_points(25, 4);
        let mut emst = one_tile(&pts);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..40 {
            let live = emst.live_slots();
            let slot = live[rng.random_range(0..live.len())];
            let p = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
            emst.move_to(slot, p).unwrap();
            assert!((emst.point(slot).x - p.x).abs() < 1e-15);
            assert_matches_rebuild(&emst);
            assert!(emst.changed_slots().contains(&slot));
        }
    }

    #[test]
    fn mixed_script_with_duplicates_and_ties() {
        // Integer lattice plus exact duplicates: maximal tie pressure.
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..4 {
                pts.push(Point::new(i as f64, j as f64));
            }
        }
        let mut emst = one_tile(&pts);
        let dup = emst.insert(Point::new(2.0, 2.0)); // exact duplicate
        assert_matches_rebuild(&emst);
        emst.insert(Point::new(2.0, 2.0));
        assert_matches_rebuild(&emst);
        emst.remove(dup).unwrap();
        assert_matches_rebuild(&emst);
        emst.move_to(7, Point::new(0.0, 0.0)).unwrap(); // onto another point
        assert_matches_rebuild(&emst);
    }

    #[test]
    fn dead_slots_are_rejected() {
        let mut emst = one_tile(&random_points(5, 6));
        emst.remove(2).unwrap();
        assert!(matches!(
            emst.remove(2),
            Err(DynamicEmstError::UnknownSlot(2))
        ));
        assert!(matches!(
            emst.move_to(2, Point::ORIGIN),
            Err(DynamicEmstError::UnknownSlot(2))
        ));
        assert!(!emst.is_alive(2));
        assert_eq!(emst.live_slots(), vec![0, 1, 3, 4]);
    }

    fn edge_bits(emst: &DynamicEmst) -> Vec<(u32, u32, u64)> {
        emst.sorted_edges
            .iter()
            .map(|e| (e.1, e.2, e.0.to_bits()))
            .collect()
    }

    /// The index is a pure acceleration structure: a 3×3-tiled engine must
    /// be **edit-for-edit bit-identical** to a one-tile one — same sorted
    /// edge cache (weights compared by bits), same changed sets.
    #[test]
    fn tiled_engine_matches_one_tile_edit_for_edit() {
        let pts = random_points(120, 21);
        let entries: Vec<(usize, Point)> = pts.iter().copied().enumerate().collect();
        let grid = TileGrid::with_tiles_per_axis(&pts, 3).unwrap();
        let mut single = one_tile(&pts);
        let mut tiled = DynamicEmst::from_entries(&entries, pts.len(), grid).unwrap();

        let assert_same = |a: &DynamicEmst, b: &DynamicEmst| {
            assert_eq!(edge_bits(a), edge_bits(b));
            assert_eq!(a.changed_slots(), b.changed_slots());
        };
        assert_same(&single, &tiled);

        let mut rng = StdRng::seed_from_u64(22);
        for step in 0..120 {
            match step % 3 {
                0 => {
                    let p = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
                    assert_eq!(single.insert(p), tiled.insert(p));
                }
                1 => {
                    let live = single.live_slots();
                    let victim = live[rng.random_range(0..live.len())];
                    single.remove(victim).unwrap();
                    tiled.remove(victim).unwrap();
                }
                _ => {
                    let live = single.live_slots();
                    let slot = live[rng.random_range(0..live.len())];
                    let p = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
                    single.move_to(slot, p).unwrap();
                    tiled.move_to(slot, p).unwrap();
                }
            }
            assert_same(&single, &tiled);
        }
        assert_eq!(single.tile_grid().tiles(), 1);
        assert!(tiled.tile_grid().tiles() >= 9);
        assert_matches_rebuild(&tiled);
    }

    /// Tiled engines start from nothing too (the deployment-server shape),
    /// including edits that push points outside the original grid bounds
    /// (clamped to the boundary tiles).
    #[test]
    fn tiled_engine_grows_from_empty_and_clamps_outliers() {
        let seed = random_points(4, 30);
        let grid = TileGrid::with_tiles_per_axis(&seed, 2).unwrap();
        let mut tiled = DynamicEmst::from_entries(&[], 0, grid).unwrap();
        assert_eq!(tiled.occupied_tiles(), 0);
        let mut single = one_tile(&[]);
        for p in &seed {
            assert_eq!(single.insert(*p), tiled.insert(*p));
        }
        // Far outside the grid's bounding box on both sides.
        for p in [Point::new(-500.0, -500.0), Point::new(900.0, 900.0)] {
            assert_eq!(single.insert(p), tiled.insert(p));
        }
        assert_eq!(edge_bits(&single), edge_bits(&tiled));
        assert_matches_rebuild(&tiled);
    }

    /// A bulk build from a sparse live set lands on the tree the edit
    /// history left behind, and slots keep flowing from `next_slot`.
    #[test]
    fn bulk_build_from_sparse_slots_matches_the_lived_engine() {
        let mut lived = one_tile(&random_points(60, 40));
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..30 {
            let live = lived.live_slots();
            lived.remove(live[rng.random_range(0..live.len())]).unwrap();
            lived.insert(Point::new(
                rng.random_range(0.0..20.0),
                rng.random_range(0.0..20.0),
            ));
        }
        let entries: Vec<(usize, Point)> = lived
            .live_slots()
            .into_iter()
            .map(|s| (s, lived.point(s)))
            .collect();
        let mut rebuilt =
            DynamicEmst::from_entries(&entries, lived.slot_bound(), TileGrid::single()).unwrap();
        assert_eq!(rebuilt.live_slots(), lived.live_slots());
        assert_eq!(edge_bits(&rebuilt), edge_bits(&lived));
        for s in rebuilt.live_slots() {
            assert_eq!(rebuilt.neighbors(s), lived.neighbors(s));
        }
        let p = Point::new(3.0, 4.0);
        assert_eq!(rebuilt.insert(p), lived.insert(p));
        assert_eq!(edge_bits(&rebuilt), edge_bits(&lived));
    }

    #[test]
    fn changed_slots_are_local_for_isolated_edits() {
        // A long path: moving one interior vertex slightly must not touch
        // the far ends.
        let pts: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 0.0)).collect();
        let mut emst = one_tile(&pts);
        emst.move_to(25, Point::new(25.0, 0.1)).unwrap();
        assert_matches_rebuild(&emst);
        let changed = emst.changed_slots();
        assert!(changed.contains(&25));
        assert!(changed.len() <= 6, "changed set {changed:?} not local");
        assert!(!changed.contains(&0) && !changed.contains(&49));
    }
}
