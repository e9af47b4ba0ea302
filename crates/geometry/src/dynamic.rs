//! A mutable spatial index: a static [`KdTree`] snapshot plus a deferred
//! edit log (buffered inserts and tombstoned removals) with threshold-driven
//! rebuilds.
//!
//! The static [`KdTree`] is immutable by design — every query in the MST and
//! verification engines relies on its deterministic layout.  Dynamic
//! deployments (sensors arriving, failing, moving) therefore keep one
//! [`DynamicKdTree`] each: an insert appends to the buffer, a removal drops
//! its buffer entry or sets a tombstone flag, a query consults the snapshot
//! *and* scans the buffer linearly, and once the buffered plus tombstoned
//! entries exceed `max(16, 2·⌊√live⌋)` the snapshot is rebuilt from the live
//! set in one O(n log n) pass.
//!
//! The √n limit balances the two costs.  A rebuild runs once per Θ(√n)
//! dirty entries, so it amortizes to O(√n log n) per edit, and no query
//! scans more than 2√n + 16 buffered entries.  A limit proportional to `n`
//! would amortize the rebuild further but let every query scan a buffer of
//! Θ(n) entries (6,250 at n = 10⁵ under `n/16`), which the removal repair's
//! one nearest query per member of the smaller component multiplies.
//!
//! Entries are keyed by caller-assigned *slots* (stable `usize` ids).  All
//! query results are reported in slot space with the same tie-breaking
//! contract as the static tree: distance ties go to the smaller slot, range
//! queries return slots sorted ascending.  Every answer is therefore a pure
//! function of the live `(slot, point)` set — the same as a freshly built
//! [`KdTree`] over the live points, whatever the edit history and rebuild
//! timing.

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
}

/// The dirty-entry count (buffer + tombstones) above which the snapshot is
/// rebuilt: `max(16, 2·⌊√live⌋)` (see the [module docs](self)).
fn rebuild_limit(live: usize) -> usize {
    (2 * live.isqrt()).max(16)
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
        }
    }

    /// Returns `true` when `slot` currently holds a live entry.
    fn contains(&self, slot: usize) -> bool {
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

    fn maybe_rebuild(&mut self) {
        if self.buffer.len() + self.stale_count > rebuild_limit(self.live) {
            self.rebuild();
        }
    }

    /// Compacts the edit log into a fresh snapshot over the live entries.
    fn rebuild(&mut self) {
        let mut entries: Vec<(usize, Point)> = Vec::with_capacity(self.live);
        for (pos, &slot) in self.snapshot_slots.iter().enumerate() {
            if !self.stale[pos] {
                entries.push((slot, self.snapshot.point(pos)));
            }
        }
        entries.extend_from_slice(&self.buffer);
        *self = DynamicKdTree::new(&entries);
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
        out.sort_unstable();
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn within(t: &DynamicKdTree, q: &Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        t.within_radius_with(q, r, &mut Vec::new(), &mut out);
        out
    }

    /// Every query must agree with a fresh static tree over the live set:
    /// the same slots for the range queries, the same `(slot, distance)`
    /// bits for the nearest ones.
    fn assert_matches_fresh(dynamic: &DynamicKdTree, live: &[(usize, Point)], queries: &[Point]) {
        let mut live = live.to_vec();
        live.sort_unstable_by_key(|&(s, _)| s);
        assert_eq!(dynamic.live, live.len());
        let points: Vec<Point> = live.iter().map(|&(_, p)| p).collect();
        let slots: Vec<usize> = live.iter().map(|&(s, _)| s).collect();
        // Slots ascend with positions, so the fresh tree's index
        // tie-breaking is the dynamic tree's slot tie-breaking.
        let fresh = KdTree::build(&points);
        for q in queries {
            for r in [0.5, 2.0, 10.0] {
                let mut expected: Vec<usize> = fresh
                    .within_radius(q, r)
                    .into_iter()
                    .map(|i| slots[i])
                    .collect();
                expected.sort_unstable();
                assert_eq!(within(dynamic, q, r), expected, "q={q} r={r}");
            }
            let expected = fresh.nearest(q).map(|(i, d)| (slots[i], d.to_bits()));
            let got = dynamic
                .nearest_filtered_slot(q, |_| false)
                .map(|(s, d)| (s, d.to_bits()));
            assert_eq!(got, expected, "nearest to {q}");
        }
    }

    const QUERIES: [Point; 3] = [
        Point { x: 0.0, y: 0.0 },
        Point { x: 2.5, y: 1.5 },
        Point { x: -1.0, y: 4.0 },
    ];

    #[test]
    fn edits_track_a_fresh_tree() {
        let mut live: Vec<(usize, Point)> = (0..10)
            .map(|i| (i, Point::new(i as f64 * 0.7, (i % 3) as f64)))
            .collect();
        let mut t = DynamicKdTree::new(&live);
        assert_matches_fresh(&t, &live, &QUERIES);

        // Insert a few new slots.
        for (j, p) in [(10, Point::new(1.1, 2.2)), (11, Point::new(-0.5, 0.5))] {
            t.insert(j, p);
            live.push((j, p));
            assert_matches_fresh(&t, &live, &QUERIES);
        }
        // Remove some snapshot and some buffered entries.
        for slot in [3usize, 10, 0] {
            t.remove(slot);
            live.retain(|&(s, _)| s != slot);
            assert_matches_fresh(&t, &live, &QUERIES);
        }
        // Move an entry (tombstone + re-insert under the same slot).
        t.remove(5);
        t.insert(5, Point::new(9.0, 9.0));
        live.iter_mut().find(|e| e.0 == 5).unwrap().1 = Point::new(9.0, 9.0);
        assert_matches_fresh(&t, &live, &QUERIES);
        assert!(t.contains(5));
        assert!(!t.contains(3));
    }

    /// Random inserts, removes and moves over ~4,000 live entries for
    /// several rebuild periods: the dirty count never exceeds `2·√live`
    /// (the limit is above its floor of 16 here), and every query matches a
    /// fresh tree after every edit.
    #[test]
    fn rebuilds_keep_the_dirty_log_within_twice_root_live() {
        let mut rng = StdRng::seed_from_u64(5);
        let side = 64.0;
        let uniform =
            |rng: &mut StdRng| Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side));
        let mut live: Vec<(usize, Point)> = (0..4000).map(|s| (s, uniform(&mut rng))).collect();
        let mut t = DynamicKdTree::new(&live);
        let mut next = live.len();
        let mut rebuilds = 0;
        let mut step = 0;
        while rebuilds < 3 || step < 600 {
            let dirty_before = t.buffer.len() + t.stale_count;
            let p = uniform(&mut rng);
            match rng.random_range(0..10) {
                0..=3 => {
                    let at = rng.random_range(0..live.len());
                    t.remove(live[at].0);
                    t.insert(live[at].0, p);
                    live[at].1 = p;
                }
                4..=6 => {
                    t.insert(next, p);
                    live.push((next, p));
                    next += 1;
                }
                _ => {
                    let (slot, _) = live.swap_remove(rng.random_range(0..live.len()));
                    t.remove(slot);
                }
            }
            let dirty = t.buffer.len() + t.stale_count;
            assert!(
                dirty as f64 <= 2.0 * (live.len() as f64).sqrt(),
                "step {step}: {dirty} dirty entries over {} live",
                live.len()
            );
            if dirty < dirty_before.saturating_sub(2) {
                rebuilds += 1;
            }
            let queries = [live[step % live.len()].1, uniform(&mut rng), Point::ORIGIN];
            assert_matches_fresh(&t, &live, &queries);
            step += 1;
        }
        assert!(rebuilds >= 3, "{rebuilds} rebuilds in {step} edits");
    }

    #[test]
    fn empty_and_single_entry() {
        let t = DynamicKdTree::new(&[]);
        assert!(t.nearest_filtered_slot(&Point::ORIGIN, |_| false).is_none());
        assert!(within(&t, &Point::ORIGIN, 5.0).is_empty());

        let mut t = DynamicKdTree::new(&[(0, Point::new(1.0, 1.0))]);
        assert_eq!(within(&t, &Point::ORIGIN, 2.0), vec![0]);
        t.remove(0);
        assert_eq!(t.live, 0);
        assert!(within(&t, &Point::ORIGIN, 2.0).is_empty());
    }
}
