//! Radon points.
//!
//! Radon's theorem: any `d + 2` points in `R^d` can be partitioned into two
//! sets whose convex hulls intersect; a point in the intersection is a
//! *Radon point*. A tree of Radon points yields the approximate centerpoints
//! the MTTV separator pipeline needs (see [`crate::centerpoint`]).

use crate::matrix::DMatrix;
use crate::point::Point;

/// Largest supported dimension for the allocation-free Radon kernel.
/// Mirrors the `D <= 8` bound stated in [`crate::matrix`].
const MAX_D: usize = 8;
const MAX_ROWS: usize = MAX_D + 1;
const MAX_COLS: usize = MAX_D + 2;

/// A computed Radon point together with the witness partition.
#[derive(Clone, Debug)]
pub struct RadonPoint<const D: usize> {
    /// The point common to both convex hulls.
    pub point: Point<D>,
    /// Indices (into the input) whose affine coefficient was positive.
    pub positive: Vec<usize>,
    /// Indices whose coefficient was negative.
    pub negative: Vec<usize>,
}

/// The affine-dependence coefficients of `D + 2` points: a unit kernel
/// vector of the `(D+1) × (D+2)` system whose rows are the coordinates plus
/// the constraint `Σ λ_i = 0`.
///
/// This is the inner loop of the Radon-tree centerpoint (six calls per 2-D
/// separator candidate, tens of thousands per k-NN run), so it runs
/// entirely on fixed-size stack buffers — no heap traffic. The elimination replicates
/// [`DMatrix::null_vector`] operation for operation (same partial-pivoting
/// choices, same update order), so the result is bitwise identical to the
/// heap-backed path and downstream separator draws are unperturbed.
// The elimination indexes two rows of `a` at once (pivot row read, target
// row written); an iterator rewrite needs a split borrow that obscures the
// operation-for-operation mirror of `DMatrix::null_vector`.
#[allow(clippy::needless_range_loop)]
fn radon_lambda<const D: usize>(points: &[Point<D>], tol: f64) -> Option<[f64; MAX_COLS]> {
    assert!(D <= MAX_D, "radon_lambda supports D <= {MAX_D}");
    let rows = D + 1;
    let cols = D + 2;

    // Rows 0..D: coordinates; row D: the affine constraint Σ λ_i = 0.
    let mut a = [[0.0f64; MAX_COLS]; MAX_ROWS];
    for (c, p) in points.iter().enumerate() {
        for r in 0..D {
            a[r][c] = p[r];
        }
        a[D][c] = 1.0;
    }

    // Row echelon form with partial pivoting (same pivot rule and update
    // order as `DMatrix::echelon`).
    let mut pivots = [0usize; MAX_ROWS];
    let mut npiv = 0;
    let mut row = 0;
    for col in 0..cols {
        if row == rows {
            break;
        }
        let mut best = row;
        for r in row + 1..rows {
            if a[r][col].abs() > a[best][col].abs() {
                best = r;
            }
        }
        if a[best][col].abs() <= tol {
            continue; // free column
        }
        a.swap(row, best);
        let pivot = a[row][col];
        for r in row + 1..rows {
            let factor = a[r][col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..cols {
                a[r][c] -= factor * a[row][c];
            }
            a[r][col] = 0.0; // clear residual rounding
        }
        pivots[npiv] = col;
        npiv += 1;
        row += 1;
    }
    if npiv == cols {
        return None; // trivial kernel
    }

    // First free column gets coefficient 1; back-substitute the pivots.
    let mut free = cols;
    for c in 0..cols {
        if !pivots[..npiv].contains(&c) {
            free = c;
            break;
        }
    }
    let mut x = [0.0f64; MAX_COLS];
    x[free] = 1.0;
    for r in (0..npiv).rev() {
        let pc = pivots[r];
        let mut acc = 0.0;
        for c in pc + 1..cols {
            acc -= a[r][c] * x[c];
        }
        x[pc] = acc / a[r][pc];
    }
    let mut norm_sq = 0.0;
    for v in &x[..cols] {
        norm_sq += v * v;
    }
    let norm = norm_sq.sqrt();
    if norm <= tol {
        return None;
    }
    for v in &mut x[..cols] {
        *v /= norm;
    }
    Some(x)
}

/// [`radon_point`] without the witness partition: just the point.
///
/// The centerpoint iteration discards the witness, so this variant skips the
/// two index `Vec`s and runs allocation-free end to end. Returns exactly the
/// point `radon_point` would (same kernel vector, same sign tests).
pub fn radon_point_value<const D: usize>(points: &[Point<D>], tol: f64) -> Option<Point<D>> {
    assert_eq!(
        points.len(),
        D + 2,
        "radon_point_value needs exactly D + 2 = {} points, got {}",
        D + 2,
        points.len()
    );
    let lambda = radon_lambda(points, tol)?;
    let mut has_positive = false;
    let mut has_negative = false;
    let mut pos_sum = 0.0;
    let mut acc = Point::<D>::origin();
    for (i, &l) in lambda[..D + 2].iter().enumerate() {
        if l > tol {
            has_positive = true;
            pos_sum += l;
            acc += points[i] * l;
        } else if l < -tol {
            has_negative = true;
        }
    }
    if !has_positive || !has_negative || pos_sum <= tol {
        return None;
    }
    Some(acc / pos_sum)
}

/// Compute a Radon point of exactly `D + 2` points.
///
/// The affine dependence `Σ λ_i x_i = 0, Σ λ_i = 0` (a kernel vector of the
/// `(D+1) × (D+2)` homogeneous system) is split by sign; the Radon point is
/// the convex combination of the positive side with weights `λ_i / Σ⁺ λ`.
///
/// Returns `None` when the kernel computation degenerates numerically (for
/// example, all points identical, making every kernel vector have a zero
/// side). Duplicated points generally still succeed: any affine dependence
/// with nonempty positive *and* negative parts yields a valid witness.
///
/// # Panics
/// Panics unless `points.len() == D + 2`.
pub fn radon_point<const D: usize>(points: &[Point<D>], tol: f64) -> Option<RadonPoint<D>> {
    assert_eq!(
        points.len(),
        D + 2,
        "radon_point needs exactly D + 2 = {} points, got {}",
        D + 2,
        points.len()
    );
    let lambda = radon_lambda(points, tol)?;

    let mut positive = Vec::new();
    let mut negative = Vec::new();
    let mut pos_sum = 0.0;
    let mut acc = Point::<D>::origin();
    for (i, &l) in lambda[..D + 2].iter().enumerate() {
        if l > tol {
            positive.push(i);
            pos_sum += l;
            acc += points[i] * l;
        } else if l < -tol {
            negative.push(i);
        }
    }
    if positive.is_empty() || negative.is_empty() || pos_sum <= tol {
        return None;
    }
    Some(RadonPoint {
        point: acc / pos_sum,
        positive,
        negative,
    })
}

/// Verify that `q` lies in the convex hull of `hull_points` by solving the
/// convex-combination system exactly (small dense LP-free check: we solve
/// the affine system and confirm non-negative weights). Intended for tests
/// and debug assertions on tiny inputs.
///
/// Works only when `hull_points.len() <= D + 1` (a simplex); returns `false`
/// for larger inputs rather than solving a general LP.
pub fn in_simplex_hull<const D: usize>(q: &Point<D>, hull_points: &[Point<D>], tol: f64) -> bool {
    let k = hull_points.len();
    if k == 0 || k > D + 1 {
        return false;
    }
    if k == 1 {
        return q.dist(&hull_points[0]) <= tol;
    }
    // Solve Σ w_i x_i = q, Σ w_i = 1 in least-squares-free form: the system
    // is (D+1) x k; we solve its normal equations via the square solver.
    let a = DMatrix::from_fn(D + 1, k, |r, c| if r < D { hull_points[c][r] } else { 1.0 });
    let mut rhs = vec![0.0; D + 1];
    for r in 0..D {
        rhs[r] = q[r];
    }
    rhs[D] = 1.0;
    // Normal equations AᵀA w = Aᵀ rhs.
    let ata = DMatrix::from_fn(k, k, |i, j| {
        let mut s = 0.0;
        for r in 0..D + 1 {
            s += a[(r, i)] * a[(r, j)];
        }
        s
    });
    let atb: Vec<f64> = (0..k)
        .map(|i| {
            let mut s = 0.0;
            for r in 0..D + 1 {
                s += a[(r, i)] * rhs[r];
            }
            s
        })
        .collect();
    let Some(w) = ata.solve(&atb, 1e-12) else {
        return false;
    };
    // Residual check (normal equations can "solve" inconsistent systems).
    for r in 0..D + 1 {
        let mut s = 0.0;
        for (c, &wc) in w.iter().enumerate() {
            s += a[(r, c)] * wc;
        }
        if (s - rhs[r]).abs() > 1e-6 {
            return false;
        }
    }
    w.iter().all(|&wi| wi >= -tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radon_point_of_square_plus_center_free() {
        // Four corners of a square in R^2 (D+2 = 4 points).
        let pts = [
            Point::<2>::from([0.0, 0.0]),
            Point::from([1.0, 0.0]),
            Point::from([1.0, 1.0]),
            Point::from([0.0, 1.0]),
        ];
        let r = radon_point(&pts, 1e-12).unwrap();
        // The diagonals cross at the center.
        assert!(r.point.dist(&Point::from([0.5, 0.5])) < 1e-9);
        assert_eq!(r.positive.len() + r.negative.len(), 4);
    }

    #[test]
    fn radon_point_in_both_hulls() {
        let pts = [
            Point::<2>::from([0.0, 0.0]),
            Point::from([2.0, 0.1]),
            Point::from([0.9, 1.7]),
            Point::from([1.1, 0.6]),
        ];
        let r = radon_point(&pts, 1e-12).unwrap();
        let pos: Vec<Point<2>> = r.positive.iter().map(|&i| pts[i]).collect();
        let neg: Vec<Point<2>> = r.negative.iter().map(|&i| pts[i]).collect();
        assert!(
            in_simplex_hull(&r.point, &pos, 1e-7),
            "not in positive hull"
        );
        assert!(
            in_simplex_hull(&r.point, &neg, 1e-7),
            "not in negative hull"
        );
    }

    #[test]
    fn radon_point_3d() {
        let pts = [
            Point::<3>::from([0.0, 0.0, 0.0]),
            Point::from([1.0, 0.0, 0.0]),
            Point::from([0.0, 1.0, 0.0]),
            Point::from([0.0, 0.0, 1.0]),
            Point::from([0.3, 0.3, 0.3]),
        ];
        let r = radon_point(&pts, 1e-12).unwrap();
        let pos: Vec<Point<3>> = r.positive.iter().map(|&i| pts[i]).collect();
        let neg: Vec<Point<3>> = r.negative.iter().map(|&i| pts[i]).collect();
        assert!(in_simplex_hull(&r.point, &pos, 1e-7));
        assert!(in_simplex_hull(&r.point, &neg, 1e-7));
    }

    #[test]
    fn radon_point_degenerate_all_equal() {
        let pts = [Point::<2>::splat(1.0); 4];
        // All-equal points: either a valid witness (the point itself) or
        // a clean None; never a bogus point elsewhere.
        if let Some(r) = radon_point(&pts, 1e-12) {
            assert!(r.point.dist(&Point::splat(1.0)) < 1e-9);
        }
    }

    #[test]
    fn radon_point_collinear_points() {
        // Collinear configurations still have affine dependencies.
        let pts = [
            Point::<2>::from([0.0, 0.0]),
            Point::from([1.0, 1.0]),
            Point::from([2.0, 2.0]),
            Point::from([3.0, 3.0]),
        ];
        let r = radon_point(&pts, 1e-12).unwrap();
        // Radon point must lie on the line y = x.
        assert!((r.point[0] - r.point[1]).abs() < 1e-9);
    }

    #[test]
    fn in_simplex_hull_basic() {
        let tri = [
            Point::<2>::from([0.0, 0.0]),
            Point::from([1.0, 0.0]),
            Point::from([0.0, 1.0]),
        ];
        assert!(in_simplex_hull(&Point::from([0.25, 0.25]), &tri, 1e-9));
        assert!(!in_simplex_hull(&Point::from([1.0, 1.0]), &tri, 1e-9));
        assert!(in_simplex_hull(&Point::from([0.0, 0.0]), &tri, 1e-9));
    }

    #[test]
    #[should_panic(expected = "exactly D + 2")]
    fn radon_point_wrong_count_panics() {
        let pts = [Point::<2>::origin(); 3];
        let _ = radon_point(&pts, 1e-12);
    }

    /// The stack kernel must be bitwise identical to the heap-backed
    /// `DMatrix::null_vector` reference — the separator draws (and the
    /// determinism contracts downstream) depend on the exact float values.
    #[test]
    fn stack_kernel_matches_dmatrix_bitwise() {
        fn check<const D: usize>(points: &[Point<D>], tol: f64) {
            let m = DMatrix::from_fn(D + 1, D + 2, |r, c| if r < D { points[c][r] } else { 1.0 });
            let reference = m.null_vector(tol);
            let fast = radon_lambda(points, tol);
            match (reference, fast) {
                (None, None) => {}
                (Some(r), Some(f)) => {
                    for (i, &rv) in r.iter().enumerate() {
                        assert_eq!(
                            rv.to_bits(),
                            f[i].to_bits(),
                            "lambda[{i}] differs: {rv} vs {}",
                            f[i]
                        );
                    }
                }
                (r, f) => panic!("presence mismatch: reference {r:?} vs fast {f:?}"),
            }
        }

        let mut seed = 0x243f6a8885a308d3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 10_000) as f64 / 500.0 - 10.0
        };
        for _ in 0..200 {
            let pts2: Vec<Point<2>> = (0..4).map(|_| Point::from([next(), next()])).collect();
            check::<2>(&pts2, 1e-12);
            let pts3: Vec<Point<3>> = (0..5)
                .map(|_| Point::from([next(), next(), next()]))
                .collect();
            check::<3>(&pts3, 1e-12);
        }
        // Degenerate shapes: duplicates, collinear, all-equal.
        check::<2>(&[Point::splat(1.0); 4], 1e-12);
        check::<2>(
            &[
                Point::from([0.0, 0.0]),
                Point::from([1.0, 1.0]),
                Point::from([2.0, 2.0]),
                Point::from([3.0, 3.0]),
            ],
            1e-12,
        );
        check::<2>(
            &[
                Point::from([1.0, 2.0]),
                Point::from([1.0, 2.0]),
                Point::from([5.0, -1.0]),
                Point::from([5.0, -1.0]),
            ],
            1e-12,
        );
    }
}
