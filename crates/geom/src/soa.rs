//! Structure-of-arrays coordinate arena and batched distance kernels.
//!
//! The divide-and-conquer hot paths (leaf brute solves, Fast-Correction
//! candidate evaluation, kd-tree leaf scans, query-tree cover tests) all
//! reduce to the same primitive: squared distances from **one** query point
//! to **many** candidate points. The AoS [`Point<D>`] layout makes that
//! primitive a strided gather — every candidate pulls `D` coordinates from
//! a distinct cache line and the compiler sees one independent scalar
//! reduction per pair. [`SoaPoints`] stores the same coordinates as `D`
//! contiguous `f64` columns so a batch of candidates reads each dimension
//! as a dense (or gathered-by-id) streak, and the kernels below process
//! candidates in fixed-width blocks of [`BLOCK`] with a local accumulator
//! array — a shape LLVM auto-vectorizes without any `unsafe` or explicit
//! SIMD intrinsics.
//!
//! # Bitwise parity contract
//!
//! Every kernel in this module is **bit-for-bit identical** to the
//! scalar reference `q.dist_sq(&p)` whenever the distance is a number. The
//! reference accumulates `acc += (q[d] - p[d])^2` in ascending-dimension
//! order; the blocked kernels keep one accumulator lane per candidate and
//! perform the exact same IEEE-754 operation sequence — same ascending
//! order, same operand order (query as minuend), no `mul_add`/FMA anywhere
//! (fusing would change the rounding and break the repo-wide determinism
//! contract: byte-identical k-NN output across thread counts and with the
//! pre-SoA implementation). Since squares are non-negative, every non-NaN
//! sum is insensitive to how the compiler commutes the adds, so non-NaN
//! results match the scalar loop bit for bit. A NaN *result* (possible only
//! for non-finite inputs, which every validated entry point rejects) is NaN
//! on both sides, but its payload bits are unspecified — IEEE-754 leaves
//! NaN propagation implementation-defined and LLVM may commute the adds
//! differently in separately compiled loops. The parity proptests in
//! `tests/proptest_soa_kernels.rs` pin down exactly this contract,
//! including raw-bit non-finite inputs.

use crate::aabb::Aabb;
use crate::ball::Ball;
use crate::point::Point;

/// Fixed kernel width: candidates processed per blocked-loop iteration.
///
/// Eight `f64` lanes span two AVX2 registers (or four NEON ones); wider
/// blocks stop paying once the accumulator array spills.
pub const BLOCK: usize = 8;

/// Per-dimension contiguous coordinate columns for a point set.
///
/// Built once from the input (same index space as the `&[Point<D>]` it came
/// from), then shared read-only by every distance-heavy consumer. Sub-ranges
/// of the D&C permutation arena address it by id (gather kernels); fully
/// contiguous scans (brute force) use the range kernels.
#[derive(Clone, Debug)]
pub struct SoaPoints<const D: usize> {
    /// `cols[d][i]` is coordinate `d` of point `i`.
    cols: [Vec<f64>; D],
    len: usize,
}

impl<const D: usize> SoaPoints<D> {
    /// Transpose a point slice into per-dimension columns.
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut cols: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(points.len()));
        for p in points {
            for (d, col) in cols.iter_mut().enumerate() {
                col.push(p.0[d]);
            }
        }
        SoaPoints {
            cols,
            len: points.len(),
        }
    }

    /// Rebuild the arena from per-dimension columns (already columnar —
    /// no transpose). Every column must have the same length; serialization
    /// code uses this so a snapshot load stays a straight column copy.
    ///
    /// # Panics
    /// Panics if the columns disagree on length.
    pub fn from_columns(cols: [Vec<f64>; D]) -> Self {
        let len = cols.first().map_or(0, Vec::len);
        assert!(
            cols.iter().all(|c| c.len() == len),
            "SoaPoints::from_columns: ragged columns"
        );
        SoaPoints { cols, len }
    }

    /// Borrow coordinate column `d` (`col(d)[i]` is coordinate `d` of
    /// point `i`) — the flat array serialization code writes to disk.
    pub fn col(&self, d: usize) -> &[f64] {
        &self.cols[d]
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the arena holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-materialize point `i` (cold paths only; hot paths stay columnar).
    pub fn point(&self, i: usize) -> Point<D> {
        Point(std::array::from_fn(|d| self.cols[d][i]))
    }

    /// Scalar tail kernel: squared distance from `q` to point `i`.
    ///
    /// Same operation sequence as [`Point::dist_sq`] (ascending-dimension
    /// accumulation, no FMA) — the blocked kernels defer to this for the
    /// `len % BLOCK` remainder.
    #[inline]
    pub fn dist_sq_to(&self, q: &Point<D>, i: usize) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            let diff = q.0[d] - self.cols[d][i];
            acc += diff * diff;
        }
        acc
    }

    /// Gather kernel: `out[j] = |points[ids[j]] - q|^2` for every `j`.
    ///
    /// # Panics
    /// Panics when `out.len() != ids.len()` or any id is out of range.
    pub fn dist_sq_gather(&self, q: &Point<D>, ids: &[u32], out: &mut [f64]) {
        assert_eq!(ids.len(), out.len(), "gather kernel length mismatch");
        let blocks = ids.len() / BLOCK;
        for b in 0..blocks {
            let base = b * BLOCK;
            let idv = &ids[base..base + BLOCK];
            let mut acc = [0.0f64; BLOCK];
            for d in 0..D {
                let col = &self.cols[d];
                let qd = q.0[d];
                for j in 0..BLOCK {
                    let diff = qd - col[idv[j] as usize];
                    acc[j] += diff * diff;
                }
            }
            out[base..base + BLOCK].copy_from_slice(&acc);
        }
        for j in blocks * BLOCK..ids.len() {
            out[j] = self.dist_sq_to(q, ids[j] as usize);
        }
    }

    /// Gather kernel with a reusable `Vec` destination (clears and fills).
    pub fn dist_sq_gather_into(&self, q: &Point<D>, ids: &[u32], out: &mut Vec<f64>) {
        out.clear();
        out.resize(ids.len(), 0.0);
        self.dist_sq_gather(q, ids, out);
    }

    /// Contiguous kernel: `out[j] = |points[start + j] - q|^2`.
    ///
    /// The dense-streak variant for scans over an unbroken id range (brute
    /// force, microbenches); `out.len()` fixes the range length.
    ///
    /// # Panics
    /// Panics when `start + out.len()` exceeds the arena.
    pub fn dist_sq_range(&self, q: &Point<D>, start: usize, out: &mut [f64]) {
        let n = out.len();
        assert!(start + n <= self.len, "range kernel out of bounds");
        let blocks = n / BLOCK;
        for b in 0..blocks {
            let base = b * BLOCK;
            let mut acc = [0.0f64; BLOCK];
            for d in 0..D {
                let col = &self.cols[d][start + base..start + base + BLOCK];
                let qd = q.0[d];
                for j in 0..BLOCK {
                    let diff = qd - col[j];
                    acc[j] += diff * diff;
                }
            }
            out[base..base + BLOCK].copy_from_slice(&acc);
        }
        for (j, o) in out.iter_mut().enumerate().skip(blocks * BLOCK) {
            *o = self.dist_sq_to(q, start + j);
        }
    }

    /// Axis-aligned bounding box of a gathered id subset.
    pub fn aabb_of_ids(&self, ids: &[u32]) -> Aabb<D> {
        let mut bb = Aabb::empty();
        for &i in ids {
            bb = bb.union_point(&self.point(i as usize));
        }
        bb
    }
}

/// Structure-of-arrays view of a ball set: center columns plus a
/// precomputed squared-radius column.
///
/// `radius_sq[i]` is computed as `balls[i].radius * balls[i].radius` — the
/// exact multiplication [`Ball::contains`] performs — so the batched cover
/// predicates below are bit-for-bit the scalar predicates.
#[derive(Clone, Debug)]
pub struct SoaBalls<const D: usize> {
    centers: SoaPoints<D>,
    radius_sq: Vec<f64>,
}

impl<const D: usize> SoaBalls<D> {
    /// Transpose a ball slice into center columns + squared radii.
    pub fn from_balls(balls: &[Ball<D>]) -> Self {
        let centers: Vec<Point<D>> = balls.iter().map(|b| b.center).collect();
        SoaBalls {
            centers: SoaPoints::from_points(&centers),
            radius_sq: balls.iter().map(|b| b.radius * b.radius).collect(),
        }
    }

    /// Rebuild from center columns plus plain radii. `radius_sq` is
    /// recomputed as `r * r` — the same multiplication `from_balls`
    /// performs — so a set reloaded from serialized columns filters
    /// bit-for-bit like the original.
    ///
    /// # Panics
    /// Panics if `radii.len()` disagrees with the column length (or the
    /// columns are ragged).
    pub fn from_columns(centers: [Vec<f64>; D], radii: &[f64]) -> Self {
        let centers = SoaPoints::from_columns(centers);
        assert_eq!(
            centers.len(),
            radii.len(),
            "SoaBalls::from_columns: center/radius length mismatch"
        );
        SoaBalls {
            centers,
            radius_sq: radii.iter().map(|r| r * r).collect(),
        }
    }

    /// Borrow the center-coordinate arena (columnar access for
    /// serialization; `centers().col(d)[i]` is coordinate `d` of ball `i`).
    pub fn centers(&self) -> &SoaPoints<D> {
        &self.centers
    }

    /// Borrow the squared-radius column (`radius_sq()[i]` is the squared
    /// radius of ball `i`).
    pub fn radius_sq(&self) -> &[f64] {
        &self.radius_sq
    }

    /// Number of balls.
    pub fn len(&self) -> usize {
        self.radius_sq.len()
    }

    /// `true` when the set holds no balls.
    pub fn is_empty(&self) -> bool {
        self.radius_sq.is_empty()
    }

    /// Batched cover test: append to `out` every id in `ids` whose ball
    /// covers `p` — closed (`dist_sq <= r^2`) when `open` is false, open
    /// interior (`dist_sq < r^2`) when true. Preserves `ids` order, so CSR
    /// assemblies built on it are byte-identical to the scalar filter.
    ///
    /// `scratch` is a reusable distance buffer (cleared and refilled).
    pub fn filter_covering_into(
        &self,
        p: &Point<D>,
        ids: &[u32],
        open: bool,
        scratch: &mut Vec<f64>,
        out: &mut Vec<u32>,
    ) {
        self.centers.dist_sq_gather_into(p, ids, scratch);
        if open {
            for (j, &i) in ids.iter().enumerate() {
                if scratch[j] < self.radius_sq[i as usize] {
                    out.push(i);
                }
            }
        } else {
            for (j, &i) in ids.iter().enumerate() {
                if scratch[j] <= self.radius_sq[i as usize] {
                    out.push(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts_3d(n: usize) -> Vec<Point<3>> {
        // Deterministic, irregular, includes duplicates.
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::from([
                    (f * 0.37).sin() * 10.0,
                    (f * 1.91).cos() * 3.0,
                    (i % 7) as f64,
                ])
            })
            .collect()
    }

    #[test]
    fn gather_kernel_matches_scalar_bitwise() {
        let pts = pts_3d(53);
        let soa = SoaPoints::from_points(&pts);
        let q = Point::from([0.25, -1.5, 3.0]);
        let ids: Vec<u32> = (0..pts.len() as u32).rev().collect();
        let mut out = vec![0.0; ids.len()];
        soa.dist_sq_gather(&q, &ids, &mut out);
        for (j, &i) in ids.iter().enumerate() {
            assert_eq!(
                out[j].to_bits(),
                q.dist_sq(&pts[i as usize]).to_bits(),
                "id {i}"
            );
        }
    }

    #[test]
    fn range_kernel_matches_scalar_bitwise() {
        let pts = pts_3d(41);
        let soa = SoaPoints::from_points(&pts);
        let q = pts[17];
        let mut out = vec![0.0; 30];
        soa.dist_sq_range(&q, 5, &mut out);
        for j in 0..30 {
            assert_eq!(out[j].to_bits(), q.dist_sq(&pts[5 + j]).to_bits());
        }
    }

    #[test]
    fn tail_lengths_are_covered() {
        let pts = pts_3d(BLOCK * 2 + 3);
        let soa = SoaPoints::from_points(&pts);
        let q = Point::origin();
        for n in 0..pts.len() {
            let ids: Vec<u32> = (0..n as u32).collect();
            let mut out = vec![0.0; n];
            soa.dist_sq_gather(&q, &ids, &mut out);
            for (j, &i) in ids.iter().enumerate() {
                assert_eq!(out[j].to_bits(), q.dist_sq(&pts[i as usize]).to_bits());
            }
        }
    }

    #[test]
    fn point_round_trips() {
        let pts = pts_3d(9);
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.len(), 9);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(soa.point(i), *p);
        }
    }

    #[test]
    fn soa_balls_cover_matches_scalar() {
        let pts = pts_3d(33);
        let balls: Vec<Ball<3>> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| Ball::new(*p, (i % 5) as f64))
            .collect();
        let soa = SoaBalls::from_balls(&balls);
        let probe = Point::from([1.0, 0.5, 3.0]);
        let ids: Vec<u32> = (0..balls.len() as u32).collect();
        let (mut scratch, mut closed, mut open) = (Vec::new(), Vec::new(), Vec::new());
        soa.filter_covering_into(&probe, &ids, false, &mut scratch, &mut closed);
        soa.filter_covering_into(&probe, &ids, true, &mut scratch, &mut open);
        let want_closed: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&i| balls[i as usize].contains(&probe))
            .collect();
        let want_open: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&i| balls[i as usize].contains_interior(&probe))
            .collect();
        assert_eq!(closed, want_closed);
        assert_eq!(open, want_open);
    }

    #[test]
    fn aabb_of_ids_matches_of_points() {
        let pts = pts_3d(20);
        let soa = SoaPoints::from_points(&pts);
        let ids: Vec<u32> = vec![3, 7, 7, 11, 19];
        let subset: Vec<Point<3>> = ids.iter().map(|&i| pts[i as usize]).collect();
        let bb = soa.aabb_of_ids(&ids);
        let want = Aabb::of_points(&subset);
        assert_eq!(bb.lo, want.lo);
        assert_eq!(bb.hi, want.hi);
    }

    /// Checks that the batched filter admits exactly the balls the scalar
    /// `Ball` predicates admit, in id order, for both predicates.
    fn assert_filter_matches_scalar(balls: &[Ball<3>], probe: &Point<3>) {
        let soa = SoaBalls::from_balls(balls);
        let ids: Vec<u32> = (0..balls.len() as u32).collect();
        let mut scratch = Vec::new();
        for open in [false, true] {
            let mut got = Vec::new();
            soa.filter_covering_into(probe, &ids, open, &mut scratch, &mut got);
            let want: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&i| {
                    let b = &balls[i as usize];
                    if open {
                        b.contains_interior(probe)
                    } else {
                        b.contains(probe)
                    }
                })
                .collect();
            assert_eq!(got, want, "open={open}");
        }
    }

    #[test]
    fn filter_zero_radius_balls() {
        // Zero-radius balls: closed admits only exact center hits, open
        // admits nothing. Probe coincident with one center.
        let centers = pts_3d(12);
        let probe = centers[5];
        let balls: Vec<Ball<3>> = centers.iter().map(|c| Ball::new(*c, 0.0)).collect();
        let soa = SoaBalls::from_balls(&balls);
        assert_filter_matches_scalar(&balls, &probe);
        let ids: Vec<u32> = (0..balls.len() as u32).collect();
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        soa.filter_covering_into(&probe, &ids, false, &mut scratch, &mut out);
        assert!(out.contains(&5));
        out.clear();
        soa.filter_covering_into(&probe, &ids, true, &mut scratch, &mut out);
        assert!(out.is_empty(), "open predicate admits no zero-radius ball");
    }

    #[test]
    fn filter_coincident_center_and_probe() {
        // Every ball centered exactly on the probe: closed and open both
        // admit all positive radii; only closed admits the r = 0 ball.
        let probe = Point::from([0.125, -3.5, 7.0]);
        let balls: Vec<Ball<3>> = (0..10).map(|i| Ball::new(probe, i as f64)).collect();
        assert_filter_matches_scalar(&balls, &probe);
    }

    #[test]
    fn filter_subnormal_radii() {
        // Subnormal radii square to zero or subnormal f64 values.
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let centers = [
            Point::from([0.0, 0.0, 0.0]),
            Point::from([tiny, 0.0, 0.0]),
            Point::from([1e-30, -1e-30, 0.0]),
            Point::from([0.5, 0.5, 0.5]),
        ];
        let probe = Point::from([tiny / 2.0, 0.0, 0.0]);
        let balls: Vec<Ball<3>> = centers
            .iter()
            .enumerate()
            .map(|(i, c)| Ball::new(*c, if i == 3 { 2.0 } else { tiny }))
            .collect();
        assert_filter_matches_scalar(&balls, &probe);
    }
}
