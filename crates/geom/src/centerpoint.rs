//! Approximate centerpoints by a Radon-point tree.
//!
//! A *centerpoint* of `n` points in `R^D` is a point `q` such that every
//! closed halfspace containing `q` contains at least `n / (D + 1)` of the
//! points. The MTTV pipeline needs one for the lifted point set; an
//! approximation of constant depth is enough for the separator guarantees.
//! The cheap way to build one is the iterated-Radon *tree* of Clarkson,
//! Eppstein, Miller, Sturtivant and Teng: split a random sample into groups
//! of `D + 2`, replace every group by its Radon point, and repeat on the
//! survivors until one point is left. Each level raises the depth of the
//! survivors, and a tree of constant height does constant work.

use crate::point::Point;
use crate::radon::radon_point_value;
use rand::Rng;

/// Radon-tree centerpoint of a non-empty point multiset.
///
/// Consecutive groups of `D + 2` points collapse to their Radon point,
/// level by level; a degenerate group (no Radon point, e.g. all points
/// identical) collapses to its centroid. Points left over after the last
/// full group are carried to the next level unchanged, and once fewer than
/// `D + 2` points remain their centroid is the result. An input of
/// `(D + 2)^L` points therefore takes `L` levels and
/// `((D + 2)^L - 1) / (D + 1)` Radon calls.
///
/// Uses no randomness: the result is a pure function of `points` (and of
/// their order), so callers draw the sample and own the seed.
///
/// # Panics
/// Panics on an empty input.
pub fn radon_tree_centerpoint<const D: usize>(points: &[Point<D>]) -> Point<D> {
    assert!(!points.is_empty(), "centerpoint of an empty point set");
    let group = D + 2;
    let mut level = points.to_vec();
    while level.len() >= group {
        // In place: group `i` starts at `i * group >= i`, so writing its
        // Radon point to slot `i` never clobbers an unread group.
        let groups = level.len() / group;
        for i in 0..groups {
            let g = &level[i * group..(i + 1) * group];
            level[i] = radon_point_value(g, 1e-12).unwrap_or_else(|| Point::centroid(g));
        }
        let carried = groups * group;
        level.copy_within(carried.., groups);
        level.truncate(groups + (level.len() - carried));
    }
    Point::centroid(&level)
}

/// Empirical Tukey-depth lower bound of `q` in `points`: the minimum, over
/// the supplied probe `directions`, of the fraction of points in the closed
/// halfspace `{ p : u·(p - q) >= 0 }`.
///
/// Exact depth needs all directions; for testing and quality reporting a
/// generous direction sample gives a sound *upper* bound on depth and a
/// statistical check that the approximate centerpoint is deep enough.
pub fn directional_depth<const D: usize>(
    points: &[Point<D>],
    q: &Point<D>,
    directions: &[Point<D>],
) -> f64 {
    assert!(!points.is_empty() && !directions.is_empty());
    let n = points.len() as f64;
    directions
        .iter()
        .map(|u| {
            let count = points.iter().filter(|p| u.dot(&(**p - *q)) >= 0.0).count();
            count as f64 / n
        })
        .fold(f64::INFINITY, f64::min)
}

/// Generate `count` unit direction vectors, uniformly at random.
pub fn random_directions<const D: usize, R: Rng>(count: usize, rng: &mut R) -> Vec<Point<D>> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        // Gaussian-by-rejection (Box–Muller free): sum of uniforms is fine
        // for direction sampling only in low stakes; use proper normals via
        // the polar method for correctness in all D.
        let mut v = Point::<D>::origin();
        for i in 0..D {
            v[i] = polar_normal(rng);
        }
        if let Some(u) = v.normalized(1e-9) {
            out.push(u);
        }
    }
    out
}

/// Standard normal sample via the Marsaglia polar method.
fn polar_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let x: f64 = rng.gen_range(-1.0..1.0);
        let y: f64 = rng.gen_range(-1.0..1.0);
        let s = x * x + y * y;
        if s > 0.0 && s < 1.0 {
            return x * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn grid_2d(side: usize) -> Vec<Point<2>> {
        let mut v = Vec::new();
        for i in 0..side {
            for j in 0..side {
                v.push(Point::from([i as f64, j as f64]));
            }
        }
        v
    }

    /// A with-replacement sample of `(D + 2)^levels` points, the shape the
    /// separator feeds the tree.
    fn sample<const D: usize>(pts: &[Point<D>], levels: u32, seed: u64) -> Vec<Point<D>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..(D + 2).pow(levels))
            .map(|_| pts[rng.gen_range(0..pts.len())])
            .collect()
    }

    #[test]
    fn centerpoint_of_tiny_set_is_centroid() {
        let pts = [Point::<2>::from([0.0, 0.0]), Point::from([2.0, 0.0])];
        let c = radon_tree_centerpoint(&pts);
        assert!(c.dist(&Point::from([1.0, 0.0])) < 1e-12);
    }

    #[test]
    fn centerpoint_of_grid_is_deep() {
        let pts = grid_2d(16); // 256 points
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let dirs = random_directions::<2, _>(64, &mut rng);
        // The whole grid (256 = 4^4, a four-level tree) and a random
        // two-level sample of it.
        for c in [
            radon_tree_centerpoint(&pts),
            radon_tree_centerpoint(&sample(&pts, 2, 42)),
        ] {
            let depth = directional_depth(&pts, &c, &dirs);
            // True centerpoints have depth >= 1/3 in R^2; the approximation
            // should comfortably clear 1/5 on a symmetric grid.
            assert!(depth > 0.2, "depth too small: {depth} at {c:?}");
        }
    }

    #[test]
    fn centerpoint_of_gaussian_cloud_near_mode() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let pts: Vec<Point<3>> = (0..500)
            .map(|_| {
                Point::from([
                    polar_normal(&mut rng),
                    polar_normal(&mut rng),
                    polar_normal(&mut rng),
                ])
            })
            .collect();
        let dirs = random_directions::<3, _>(64, &mut rng);
        for c in [
            radon_tree_centerpoint(&pts),
            radon_tree_centerpoint(&sample(&pts, 2, 8)),
        ] {
            let depth = directional_depth(&pts, &c, &dirs);
            assert!(depth > 0.15, "depth too small: {depth}");
            assert!(c.norm() < 1.0, "far from the mode: {:?}", c);
        }
    }

    #[test]
    fn centerpoint_skewed_cluster() {
        // 90% of the mass at one spot: the centerpoint must be close to it.
        let mut pts = vec![Point::<2>::splat(5.0); 90];
        for i in 0..10 {
            pts.push(Point::from([i as f64 * 100.0, -300.0]));
        }
        for c in [
            radon_tree_centerpoint(&pts),
            radon_tree_centerpoint(&sample(&pts, 2, 3)),
        ] {
            assert!(
                c.dist(&Point::splat(5.0)) < 60.0,
                "pulled too far by outliers: {c:?}"
            );
        }
    }

    #[test]
    fn deterministic_without_rng() {
        let pts = sample(&grid_2d(10), 3, 9);
        let a = radon_tree_centerpoint(&pts);
        let b = radon_tree_centerpoint(&pts);
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(a[1].to_bits(), b[1].to_bits());
    }

    #[test]
    fn identical_points_return_the_point() {
        // Every group is degenerate or duplicated; any remainder is carried.
        let p = Point::<3>::from([0.3, -7.25, 1e6]);
        for n in [1usize, 4, 5, 25, 27] {
            let c = radon_tree_centerpoint(&vec![p; n]);
            assert!(c.is_finite(), "n = {n}: {c:?}");
            assert!(c.dist(&p) <= 1e-9 * p.norm(), "n = {n}: {c:?}");
        }
    }

    #[test]
    fn duplicate_groups_stay_finite() {
        // Two distinct sites, each repeated: groups mix duplicates of both.
        let a = Point::<2>::from([1.0, 2.0]);
        let b = Point::<2>::from([3.0, -1.0]);
        let pts: Vec<Point<2>> = (0..16).map(|i| if i % 3 == 0 { a } else { b }).collect();
        let c = radon_tree_centerpoint(&pts);
        assert!(c.is_finite());
        // On the segment between the two sites.
        assert!((c.dist(&a) + c.dist(&b) - a.dist(&b)).abs() < 1e-9, "{c:?}");
    }

    #[test]
    fn directional_depth_of_extreme_point_is_zero_ish() {
        let pts = grid_2d(8);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let dirs = random_directions::<2, _>(128, &mut rng);
        let far = Point::from([1000.0, 1000.0]);
        let depth = directional_depth(&pts, &far, &dirs);
        assert!(depth < 0.05, "extreme point should have ~zero depth");
    }

    #[test]
    fn random_directions_are_unit() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for u in random_directions::<4, _>(32, &mut rng) {
            assert!((u.norm() - 1.0).abs() < 1e-9);
        }
    }
}
