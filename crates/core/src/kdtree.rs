//! k-d tree — the sequential `O(n log n)`-class baseline (stand-in for
//! Vaidya's algorithm in the work comparison) and the verification range
//! searcher.

use crate::error::{validate_k, validate_points, SepdcError};
use crate::knn::{KnnResult, Neighbor};
use rayon::prelude::*;
use sepdc_geom::point::Point;
use sepdc_geom::soa::SoaPoints;

const LEAF_SIZE: usize = 16;

enum Node {
    Internal {
        axis: u8,
        value: f64,
        left: u32,
        right: u32,
    },
    /// Range into the permuted `ids` array.
    Leaf { start: u32, end: u32 },
}

/// Median-split k-d tree over a borrowed point slice.
pub struct KdTree<'a, const D: usize> {
    points: &'a [Point<D>],
    ids: Vec<u32>,
    /// Coordinates in `ids` (permuted) order, so every leaf is a
    /// contiguous column range and scans run through the blocked SoA
    /// kernel without gather indirection.
    soa: SoaPoints<D>,
    nodes: Vec<Node>,
    root: u32,
}

impl<'a, const D: usize> KdTree<'a, D> {
    /// Build over all points.
    pub fn build(points: &'a [Point<D>]) -> Self {
        let ids: Vec<u32> = (0..points.len() as u32).collect();
        Self::build_subset(points, ids)
    }

    /// Build over a subset given by `ids` (indices into `points`).
    pub fn build_subset(points: &'a [Point<D>], mut ids: Vec<u32>) -> Self {
        let mut tree = KdTree {
            points,
            ids: Vec::new(),
            soa: SoaPoints::from_points(&[]),
            nodes: Vec::new(),
            root: 0,
        };
        if ids.is_empty() {
            tree.nodes.push(Node::Leaf { start: 0, end: 0 });
            return tree;
        }
        let n = ids.len();
        let root = tree.build_rec(&mut ids, 0, 0, n, 0);
        let permuted: Vec<Point<D>> = ids.iter().map(|&i| points[i as usize]).collect();
        tree.soa = SoaPoints::from_points(&permuted);
        tree.ids = ids;
        tree.root = root;
        tree
    }

    /// Recursively arrange `ids[start..end]` and emit nodes. `depth` picks
    /// the cycling split axis, switching to the widest axis when the
    /// cycling axis is degenerate.
    fn build_rec(
        &mut self,
        ids: &mut [u32],
        offset: usize,
        start: usize,
        end: usize,
        depth: usize,
    ) -> u32 {
        let len = end - start;
        if len <= LEAF_SIZE {
            self.nodes.push(Node::Leaf {
                start: (offset + start) as u32,
                end: (offset + end) as u32,
            });
            return (self.nodes.len() - 1) as u32;
        }
        // Pick an axis with spread, starting from the cycling choice.
        let slice = &mut ids[start..end];
        let mut axis = depth % D;
        let mut found = false;
        for off in 0..D {
            let a = (depth + off) % D;
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in slice.iter() {
                let v = self.points[i as usize][a];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi > lo {
                axis = a;
                found = true;
                break;
            }
        }
        if !found {
            // All points in this range identical: leaf regardless of size.
            self.nodes.push(Node::Leaf {
                start: (offset + start) as u32,
                end: (offset + end) as u32,
            });
            return (self.nodes.len() - 1) as u32;
        }
        let mid = len / 2;
        // total_cmp keeps the selection total even on NaN coordinates:
        // KdTree::build is public and performs no input validation (only
        // try_kdtree_all_knn does), so a partial_cmp().expect() here was a
        // reachable panic. NaNs order after +inf under total_cmp, so they
        // collect at the high end of the split instead of aborting.
        slice.select_nth_unstable_by(mid, |&a, &b| {
            self.points[a as usize][axis].total_cmp(&self.points[b as usize][axis])
        });
        let value = self.points[slice[mid] as usize][axis];
        let left = self.build_rec(ids, offset, start, start + mid, depth + 1);
        let right = self.build_rec(ids, offset, start + mid, end, depth + 1);
        self.nodes.push(Node::Internal {
            axis: axis as u8,
            value,
            left,
            right,
        });
        (self.nodes.len() - 1) as u32
    }

    /// The `k` nearest points to `query`, excluding index `exclude`
    /// (pass `u32::MAX` to exclude nothing). Ascending distance, ties by
    /// index.
    pub fn knn(&self, query: &Point<D>, k: usize, exclude: u32) -> Vec<Neighbor> {
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        if !self.ids.is_empty() {
            self.knn_rec(self.root, query, k, exclude, &mut best);
        }
        best
    }

    fn knn_rec(
        &self,
        node: u32,
        query: &Point<D>,
        k: usize,
        exclude: u32,
        best: &mut Vec<Neighbor>,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                self.scan_leaf(*start as usize, *end as usize, query, k, exclude, best)
            }
            Node::Internal {
                axis,
                value,
                left,
                right,
            } => {
                let diff = query[*axis as usize] - value;
                let (near, far) = if diff < 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.knn_rec(near, query, k, exclude, best);
                // Visit the far side only if it can still contain a winner.
                let worst = if best.len() == k {
                    best[k - 1].dist_sq
                } else {
                    f64::INFINITY
                };
                if diff * diff <= worst {
                    self.knn_rec(far, query, k, exclude, best);
                }
            }
        }
    }

    /// Leaf scan: distances for the whole leaf through the blocked
    /// SoA kernel (leaves are contiguous in permuted order), then a scalar
    /// insertion pass. Oversized all-identical leaves are walked in
    /// LEAF_SIZE tiles so the buffer stays on the stack.
    fn scan_leaf(
        &self,
        s: usize,
        e: usize,
        query: &Point<D>,
        k: usize,
        exclude: u32,
        best: &mut Vec<Neighbor>,
    ) {
        let mut buf = [0.0f64; LEAF_SIZE];
        let mut pos = s;
        while pos < e {
            let m = (e - pos).min(LEAF_SIZE);
            let dists = &mut buf[..m];
            self.soa.dist_sq_range(query, pos, dists);
            for (off, &d) in dists.iter().enumerate() {
                let i = self.ids[pos + off];
                if i == exclude {
                    continue;
                }
                Self::insert_neighbor(best, k, i, d);
            }
            pos += m;
        }
    }

    /// Insert `(i, d)` into the ascending-(distance, index) top-`k` list.
    fn insert_neighbor(best: &mut Vec<Neighbor>, k: usize, i: u32, d: f64) {
        if best.len() == k {
            let tail = best[k - 1];
            if d > tail.dist_sq || (d == tail.dist_sq && i >= tail.idx) {
                return;
            }
        }
        let ins = best
            .iter()
            .position(|n| d < n.dist_sq || (d == n.dist_sq && i < n.idx))
            .unwrap_or(best.len());
        best.insert(ins, Neighbor { idx: i, dist_sq: d });
        best.truncate(k);
    }

    /// All point indices strictly within distance `radius` of `center`
    /// (open ball), excluding `exclude`.
    pub fn within_radius(&self, center: &Point<D>, radius: f64, exclude: u32) -> Vec<u32> {
        let mut out = Vec::new();
        if !self.ids.is_empty() && radius > 0.0 {
            self.range_rec(
                self.root,
                center,
                radius * radius,
                radius,
                exclude,
                &mut out,
            );
        }
        out
    }

    fn range_rec(
        &self,
        node: u32,
        center: &Point<D>,
        radius_sq: f64,
        radius: f64,
        exclude: u32,
        out: &mut Vec<u32>,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                let (s, e) = (*start as usize, *end as usize);
                let mut buf = [0.0f64; LEAF_SIZE];
                let mut pos = s;
                while pos < e {
                    let m = (e - pos).min(LEAF_SIZE);
                    let dists = &mut buf[..m];
                    self.soa.dist_sq_range(center, pos, dists);
                    for (off, &d) in dists.iter().enumerate() {
                        let i = self.ids[pos + off];
                        if i != exclude && d < radius_sq {
                            out.push(i);
                        }
                    }
                    pos += m;
                }
            }
            Node::Internal {
                axis,
                value,
                left,
                right,
            } => {
                let diff = center[*axis as usize] - value;
                if diff < radius {
                    self.range_rec(*left, center, radius_sq, radius, exclude, out);
                }
                if -diff < radius {
                    self.range_rec(*right, center, radius_sq, radius, exclude, out);
                }
            }
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// All-k-NN via one k-d tree and a parallel query sweep — the sequential-
/// work baseline of EXP-4.
///
/// # Panics
/// Panics on `k = 0` or non-finite coordinates; use
/// [`try_kdtree_all_knn`] to handle those as typed errors instead.
pub fn kdtree_all_knn<const D: usize>(points: &[Point<D>], k: usize) -> KnnResult {
    try_kdtree_all_knn(points, k).unwrap_or_else(|e| panic!("kdtree_all_knn: {e}"))
}

/// Total variant of [`kdtree_all_knn`]: rejects `k = 0` and non-finite
/// coordinates with a typed [`SepdcError`] instead of panicking.
pub fn try_kdtree_all_knn<const D: usize>(
    points: &[Point<D>],
    k: usize,
) -> Result<KnnResult, SepdcError> {
    validate_k(k)?;
    validate_points(points)?;
    let tree = KdTree::build(points);
    let lists: Vec<Vec<Neighbor>> = points
        .par_iter()
        .enumerate()
        .map(|(i, p)| tree.knn(p, k, i as u32))
        .collect();
    let mut result = KnnResult::new(points.len(), k);
    for (i, l) in lists.iter().enumerate() {
        result.set_list(i, l);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0; D];
                for v in &mut c {
                    *v = rng.gen_range(0.0..1.0);
                }
                Point(c)
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_2d() {
        let pts = random_points::<2>(500, 1);
        for k in [1, 3, 7] {
            let kd = kdtree_all_knn(&pts, k);
            let bf = brute_force_knn(&pts, k);
            kd.same_distances(&bf, 1e-12).unwrap();
            kd.check_invariants().unwrap();
        }
    }

    #[test]
    fn matches_brute_force_3d_and_4d() {
        let pts3 = random_points::<3>(300, 2);
        kdtree_all_knn(&pts3, 4)
            .same_distances(&brute_force_knn(&pts3, 4), 1e-12)
            .unwrap();
        let pts4 = random_points::<4>(200, 3);
        kdtree_all_knn(&pts4, 2)
            .same_distances(&brute_force_knn(&pts4, 2), 1e-12)
            .unwrap();
    }

    #[test]
    fn handles_duplicates_and_grids() {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::<2>::from([i as f64, j as f64]));
            }
        }
        pts.extend_from_slice(&[Point::from([5.0, 5.0]); 5]); // duplicates
        let kd = kdtree_all_knn(&pts, 3);
        let bf = brute_force_knn(&pts, 3);
        kd.same_distances(&bf, 1e-12).unwrap();
    }

    #[test]
    fn all_identical_points() {
        let pts = vec![Point::<2>::splat(1.0); 40];
        let kd = kdtree_all_knn(&pts, 2);
        for i in 0..40 {
            assert_eq!(kd.neighbors(i).len(), 2);
            assert_eq!(kd.radius_sq(i), 0.0);
        }
    }

    #[test]
    fn subset_tree_only_sees_subset() {
        let pts: Vec<Point<1>> = (0..10).map(|i| Point::from([i as f64])).collect();
        let tree = KdTree::build_subset(&pts, vec![0, 9]);
        let nn = tree.knn(&Point::from([1.0]), 1, u32::MAX);
        assert_eq!(nn[0].idx, 0);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn within_radius_is_open_ball() {
        let pts: Vec<Point<1>> = (0..5).map(|i| Point::from([i as f64])).collect();
        let tree = KdTree::build(&pts);
        let mut hits = tree.within_radius(&Point::from([2.0]), 1.0, u32::MAX);
        hits.sort_unstable();
        // Strictly within distance 1 of x=2: only the point at 2 itself.
        assert_eq!(hits, vec![2]);
        let mut wider = tree.within_radius(&Point::from([2.0]), 1.5, u32::MAX);
        wider.sort_unstable();
        assert_eq!(wider, vec![1, 2, 3]);
    }

    #[test]
    fn within_radius_matches_linear_scan() {
        let pts = random_points::<3>(400, 4);
        let tree = KdTree::build(&pts);
        let center = Point::from([0.5, 0.5, 0.5]);
        for r in [0.1, 0.3, 0.7] {
            let mut fast = tree.within_radius(&center, r, u32::MAX);
            fast.sort_unstable();
            let mut slow: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| center.dist_sq(p) < r * r)
                .map(|(i, _)| i as u32)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow, "radius {r}");
        }
    }

    #[test]
    fn empty_tree_queries() {
        let pts: Vec<Point<2>> = Vec::new();
        let tree = KdTree::build(&pts);
        assert!(tree.knn(&Point::origin(), 3, u32::MAX).is_empty());
        assert!(tree
            .within_radius(&Point::origin(), 1.0, u32::MAX)
            .is_empty());
        assert!(tree.is_empty());
    }

    #[test]
    fn nan_coordinates_build_without_panicking() {
        // Regression: the selection comparator used
        // partial_cmp().expect("non-finite coordinate"), so the public,
        // unvalidated KdTree::build panicked on NaN input. total_cmp keeps
        // the build total; NaN points just land somewhere in the tree.
        let mut pts = random_points::<2>(200, 5);
        pts[17].0[0] = f64::NAN;
        pts[101].0[1] = f64::NAN;
        let tree = KdTree::build(&pts);
        assert_eq!(tree.len(), 200);
        // Queries over the finite points still work.
        let nn = tree.knn(&pts[0], 1, 0);
        assert_eq!(nn.len(), 1);
        assert!(nn[0].dist_sq.is_finite());
        // Infinities are handled the same way.
        let mut pts_inf = random_points::<3>(100, 6);
        pts_inf[3].0[2] = f64::INFINITY;
        let _ = KdTree::build(&pts_inf);
    }

    #[test]
    fn nan_coordinates_yield_typed_error_not_panic() {
        // The validated entry point reports the offender's index.
        let mut pts = random_points::<2>(50, 7);
        pts[23].0[1] = f64::NAN;
        assert_eq!(
            try_kdtree_all_knn(&pts, 2).err(),
            Some(SepdcError::NonFinitePoint { idx: 23 })
        );
    }

    #[test]
    #[should_panic(expected = "kdtree_all_knn: point 23 has a non-finite")]
    fn infallible_wrapper_panics_with_typed_message() {
        let mut pts = random_points::<2>(50, 7);
        pts[23].0[1] = f64::NAN;
        let _ = kdtree_all_knn(&pts, 2);
    }

    #[test]
    fn matches_brute_force_bitwise_3d() {
        let pts = random_points::<3>(600, 9);
        for k in [1, 4, 9] {
            let kd = kdtree_all_knn(&pts, k);
            let bf = brute_force_knn(&pts, k);
            for i in 0..pts.len() {
                assert_eq!(kd.neighbors(i), bf.neighbors(i), "point {i} k {k}");
            }
        }
    }

    #[test]
    fn grid_ties_break_by_index_like_brute_force() {
        // A grid with massive duplicate distances: every candidate ties,
        // so the index tiebreak decides the lists bit-for-bit.
        let mut pts = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                pts.push(Point::<2>::from([i as f64, j as f64]));
            }
        }
        pts.extend_from_slice(&[Point::from([6.0, 6.0]); 4]);
        let kd = kdtree_all_knn(&pts, 5);
        let bf = brute_force_knn(&pts, 5);
        for i in 0..pts.len() {
            assert_eq!(kd.neighbors(i), bf.neighbors(i), "point {i}");
        }
    }

    #[test]
    fn exclude_is_respected() {
        let pts: Vec<Point<1>> = (0..5).map(|i| Point::from([i as f64])).collect();
        let tree = KdTree::build(&pts);
        let nn = tree.knn(&pts[2], 1, 2);
        assert_ne!(nn[0].idx, 2);
        assert_eq!(nn[0].dist_sq, 1.0);
    }
}
