//! A mutable spatial index: a static [`KdTree`] snapshot plus a deferred
//! edit log (buffered inserts and tombstoned removals) with threshold-driven
//! rebuilds.
//!
//! The static [`KdTree`] is immutable by design — every query in the MST and
//! verification engines relies on its deterministic layout.  Dynamic
//! deployments (sensors arriving, failing, moving) therefore use this
//! wrapper, one per tile of a [`crate::tiles::TiledKdForest`]: edits land
//! in O(1) amortized (an append to the insert buffer or
//! a tombstone flag), queries consult the snapshot *and* linearly scan the
//! small buffer, and once the dirty fraction crosses a threshold the
//! snapshot is rebuilt from the live set in one O(n log n) pass.
//!
//! Entries are keyed by caller-assigned *slots* (stable `usize` ids).  All
//! query results are reported in slot space with the same tie-breaking
//! contract as the static tree: distance ties go to the smaller slot, range
//! queries return slots sorted ascending.  That makes the dynamic index a
//! drop-in replacement for a freshly built [`KdTree`] over the live points —
//! the equality the dynamic-instance oracle tests in `antennae-core` pin.

use crate::kdtree::KdTree;
use crate::point::Point;

/// Sentinel for "slot not present in the snapshot".
const NO_POS: u32 = u32::MAX;

/// A kd-tree over a mutable point set: snapshot + insert buffer + tombstones.
///
/// See the [module docs](self) for the design.  The caller owns slot
/// assignment; slots may be any `usize` but the internal slot→position table
/// is dense, so keep them compact (the dynamic MST engine hands out
/// monotonically increasing slots).
#[derive(Debug, Clone)]
pub struct DynamicKdTree {
    /// Snapshot tree over `snapshot_slots`' points (positions index both).
    snapshot: KdTree,
    /// Position → slot for the snapshot's points, ascending by slot.
    snapshot_slots: Vec<usize>,
    /// Position → superseded flag (removed or moved since the snapshot).
    stale: Vec<bool>,
    /// Slot → snapshot position (`NO_POS` when absent).
    pos_of_slot: Vec<u32>,
    /// Pending inserts since the last rebuild.
    buffer: Vec<(usize, Point)>,
    stale_count: usize,
    live: usize,
    rebuilds: usize,
    /// Dirty-entry count (buffer + tombstones) that triggers a rebuild.
    rebuild_limit: fn(usize) -> usize,
}

/// Default rebuild threshold: rebuild once the dirty count exceeds
/// `max(16, live/16)` — the buffer stays short enough that the per-query
/// linear scan is noise, and rebuild cost amortizes to O(log n) per edit.
fn default_rebuild_limit(live: usize) -> usize {
    (live / 16).max(16)
}

impl DynamicKdTree {
    /// Builds the index over `(slot, point)` entries.
    ///
    /// Slots must be distinct; the snapshot is laid out in ascending slot
    /// order so that the underlying tree's index tie-breaking coincides with
    /// slot tie-breaking.
    pub fn new(entries: &[(usize, Point)]) -> Self {
        let mut entries: Vec<(usize, Point)> = entries.to_vec();
        entries.sort_unstable_by_key(|&(slot, _)| slot);
        let points: Vec<Point> = entries.iter().map(|&(_, p)| p).collect();
        let snapshot_slots: Vec<usize> = entries.iter().map(|&(slot, _)| slot).collect();
        let max_slot = snapshot_slots.last().copied().map_or(0, |s| s + 1);
        let mut pos_of_slot = vec![NO_POS; max_slot];
        for (pos, &slot) in snapshot_slots.iter().enumerate() {
            debug_assert_eq!(pos_of_slot[slot], NO_POS, "duplicate slot {slot}");
            pos_of_slot[slot] = pos as u32;
        }
        DynamicKdTree {
            snapshot: KdTree::build_owned(points),
            stale: vec![false; snapshot_slots.len()],
            live: snapshot_slots.len(),
            snapshot_slots,
            pos_of_slot,
            buffer: Vec::new(),
            stale_count: 0,
            rebuilds: 0,
            rebuild_limit: default_rebuild_limit,
        }
    }

    /// Number of live (inserted and not removed) entries.
    pub fn len_live(&self) -> usize {
        self.live
    }

    /// Returns `true` when no live entry is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// How many threshold-triggered rebuilds have run (telemetry for tests
    /// and the churn experiment).
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Returns `true` when `slot` currently holds a live entry.
    pub fn contains(&self, slot: usize) -> bool {
        if self.buffer.iter().any(|&(s, _)| s == slot) {
            return true;
        }
        match self.pos_of_slot.get(slot) {
            Some(&pos) if pos != NO_POS => !self.stale[pos as usize],
            _ => false,
        }
    }

    /// Inserts `point` under `slot` (which must not be live).
    pub fn insert(&mut self, slot: usize, point: Point) {
        debug_assert!(!self.contains(slot), "slot {slot} already live");
        self.buffer.push((slot, point));
        self.live += 1;
        self.maybe_rebuild();
    }

    /// Removes the live entry under `slot`.
    pub fn remove(&mut self, slot: usize) {
        if let Some(i) = self.buffer.iter().position(|&(s, _)| s == slot) {
            self.buffer.swap_remove(i);
        } else {
            let pos = self.pos_of_slot[slot] as usize;
            debug_assert!(!self.stale[pos], "slot {slot} already removed");
            self.stale[pos] = true;
            self.stale_count += 1;
        }
        self.live -= 1;
        self.maybe_rebuild();
    }

    /// Moves the live entry under `slot` to `point` (tombstone + re-insert
    /// under the same slot).
    pub fn update(&mut self, slot: usize, point: Point) {
        self.remove(slot);
        self.insert(slot, point);
    }

    fn maybe_rebuild(&mut self) {
        if self.buffer.len() + self.stale_count > (self.rebuild_limit)(self.live) {
            self.rebuild();
        }
    }

    /// Compacts the edit log into a fresh snapshot over the live entries.
    pub fn rebuild(&mut self) {
        let mut entries: Vec<(usize, Point)> = Vec::with_capacity(self.live);
        for (pos, &slot) in self.snapshot_slots.iter().enumerate() {
            if !self.stale[pos] {
                entries.push((slot, self.snapshot_point(pos)));
            }
        }
        entries.extend_from_slice(&self.buffer);
        let rebuilds = self.rebuilds + 1;
        *self = DynamicKdTree::new(&entries);
        self.rebuilds = rebuilds;
    }

    /// The point stored at snapshot position `pos` (positions match the
    /// build order, which the static tree preserves in its `points` slice —
    /// recovered through a nearest query of radius 0 would be silly, so the
    /// slot table keeps its own copy via the buffer-or-snapshot split).
    fn snapshot_point(&self, pos: usize) -> Point {
        self.snapshot.point(pos)
    }

    /// All live slots within `radius` of `query` (closed ball), sorted
    /// ascending.  `scratch` holds snapshot positions between calls so the
    /// per-query work allocates nothing once the buffers have grown.
    pub fn within_radius_with(
        &self,
        query: &Point,
        radius: f64,
        scratch: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.append_within_radius(query, radius, scratch, out);
        out.sort_unstable();
    }

    /// Appends every live slot within `radius` of `query` to `out`,
    /// unsorted — the per-tile step of a forest query, which sorts once
    /// after visiting every tile.
    pub(crate) fn append_within_radius(
        &self,
        query: &Point,
        radius: f64,
        scratch: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        self.snapshot.within_radius_into(query, radius, scratch);
        for &pos in scratch.iter() {
            if !self.stale[pos] {
                out.push(self.snapshot_slots[pos]);
            }
        }
        for &(slot, p) in &self.buffer {
            if query.distance(&p) <= radius {
                out.push(slot);
            }
        }
    }

    /// Allocating convenience wrapper over
    /// [`DynamicKdTree::within_radius_with`].
    pub fn within_radius(&self, query: &Point, radius: f64) -> Vec<usize> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.within_radius_with(query, radius, &mut scratch, &mut out);
        out
    }

    /// Nearest live slot to `query` for which `skip` returns `false`, as
    /// `(slot, distance)`.  Distance ties are broken towards the smaller
    /// slot, matching the static tree's contract.
    pub fn nearest_filtered_slot<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        skip: F,
    ) -> Option<(usize, f64)> {
        self.nearest_filtered_slot_within(query, skip, f64::INFINITY)
    }

    /// Like [`DynamicKdTree::nearest_filtered_slot`], but only reports slots
    /// at distance `max_dist` or closer, with the static tree's inclusive
    /// bound semantics ([`crate::kdtree::KdIndex::nearest_filtered_within`]):
    /// `None` only ever hides strictly farther slots.
    pub fn nearest_filtered_slot_within<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        skip: F,
        max_dist: f64,
    ) -> Option<(usize, f64)> {
        let snapshot_best = self
            .snapshot
            .nearest_filtered_within(
                query,
                |pos| self.stale[pos] || skip(self.snapshot_slots[pos]),
                max_dist,
            )
            .map(|(pos, d)| (self.snapshot_slots[pos], d));
        let mut best = snapshot_best;
        for &(slot, p) in &self.buffer {
            if skip(slot) {
                continue;
            }
            let d = query.distance(&p);
            let (bs, bd) = best.unwrap_or((usize::MAX, max_dist));
            if d < bd || (d == bd && slot < bs) {
                best = Some((slot, d));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_matches_fresh(dynamic: &DynamicKdTree, live: &[(usize, Point)]) {
        // Every query must agree with a fresh static tree over the live set.
        let points: Vec<Point> = live.iter().map(|&(_, p)| p).collect();
        let slots: Vec<usize> = live.iter().map(|&(s, _)| s).collect();
        let fresh = KdTree::build(&points);
        let queries = [
            Point::new(0.0, 0.0),
            Point::new(2.5, 1.5),
            Point::new(-1.0, 4.0),
        ];
        for q in &queries {
            for r in [0.5, 2.0, 10.0] {
                let mut expected: Vec<usize> = fresh
                    .within_radius(q, r)
                    .into_iter()
                    .map(|i| slots[i])
                    .collect();
                expected.sort_unstable();
                assert_eq!(dynamic.within_radius(q, r), expected, "q={q} r={r}");
            }
            let expected = fresh.nearest(q).map(|(i, d)| (slots[i], d));
            let got = dynamic.nearest_filtered_slot(q, |_| false);
            match (got, expected) {
                (None, None) => {}
                (Some((gs, gd)), Some((es, ed))) => {
                    assert!((gd - ed).abs() < 1e-12, "{gd} vs {ed}");
                    // Slot ids may differ only on exact distance ties where
                    // the two live orderings coincide anyway.
                    assert_eq!(gs, es);
                }
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn edits_track_a_fresh_tree() {
        let mut live: Vec<(usize, Point)> = (0..10)
            .map(|i| (i, Point::new(i as f64 * 0.7, (i % 3) as f64)))
            .collect();
        let mut t = DynamicKdTree::new(&live);
        assert_eq!(t.len_live(), 10);
        assert_matches_fresh(&t, &live);

        // Insert a few new slots.
        for (j, p) in [(10, Point::new(1.1, 2.2)), (11, Point::new(-0.5, 0.5))] {
            t.insert(j, p);
            live.push((j, p));
            assert_matches_fresh(&t, &live);
        }
        // Remove some snapshot and some buffered entries.
        for slot in [3usize, 10, 0] {
            t.remove(slot);
            live.retain(|&(s, _)| s != slot);
            assert_matches_fresh(&t, &live);
        }
        // Move an entry.
        t.update(5, Point::new(9.0, 9.0));
        live.iter_mut().find(|e| e.0 == 5).unwrap().1 = Point::new(9.0, 9.0);
        assert_matches_fresh(&t, &live);
        assert!(t.contains(5));
        assert!(!t.contains(3));
    }

    #[test]
    fn threshold_rebuild_fires_and_preserves_queries() {
        let mut live: Vec<(usize, Point)> = (0..40)
            .map(|i| (i, Point::new((i % 8) as f64, (i / 8) as f64)))
            .collect();
        let mut t = DynamicKdTree::new(&live);
        for (next, round) in (40usize..).zip(0..60) {
            let p = Point::new(0.37 * round as f64 % 7.0, 0.53 * round as f64 % 5.0);
            t.insert(next, p);
            live.push((next, p));
            let victim = live[round % live.len()].0;
            t.remove(victim);
            live.retain(|&(s, _)| s != victim);
        }
        assert!(t.rebuild_count() > 0, "threshold rebuild never fired");
        assert_eq!(t.len_live(), live.len());
        assert_matches_fresh(&t, &live);
    }

    #[test]
    fn empty_and_single_entry() {
        let t = DynamicKdTree::new(&[]);
        assert!(t.is_empty());
        assert!(t.nearest_filtered_slot(&Point::ORIGIN, |_| false).is_none());
        assert!(t.within_radius(&Point::ORIGIN, 5.0).is_empty());

        let mut t = DynamicKdTree::new(&[(0, Point::new(1.0, 1.0))]);
        assert_eq!(t.len_live(), 1);
        assert_eq!(t.within_radius(&Point::ORIGIN, 2.0), vec![0]);
        t.remove(0);
        assert!(t.is_empty());
        assert!(t.within_radius(&Point::ORIGIN, 2.0).is_empty());
    }
}
