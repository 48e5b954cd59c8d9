//! The Miller–Teng–Thurston–Vavasis Unit Time Sphere Separator Algorithm.
//!
//! One candidate draw (after the sample) costs work independent of `n`:
//!
//! 1. draw a constant-size random sample of the input points
//!    (`(d+3)^radon_levels` of them, with replacement);
//! 2. normalize coordinates into a unit box (uniform scale + translation —
//!    a similarity, so spheres pull back exactly);
//! 3. stereographically lift the sample to `S^d ⊂ R^{d+1}`;
//! 4. compute an approximate centerpoint of the lifted sample by a Radon
//!    tree (groups of `d + 3` lifted points collapse level by level);
//! 5. build the conformal normalization (rotation + dilation) that moves the
//!    centerpoint to the origin;
//! 6. draw a uniform random great circle and pull it back to a sphere or
//!    hyperplane in the original coordinates.
//!
//! The theorem of MTTV says a candidate produced this way `δ`-splits the
//! input and has intersection number `O(k^{1/d} n^{(d-1)/d})` against any
//! `k`-ply neighborhood system, with constant probability; the enclosing
//! retry loop ([`crate::search`]) boosts this to "with high probability".

use crate::config::SeparatorConfig;
use rand::Rng;
use sepdc_geom::centerpoint::{radon_tree_centerpoint, random_directions};
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_geom::sphere::Sphere;
use sepdc_geom::stereo::{lift, ConformalMap};
use sepdc_geom::Hyperplane;

/// Uniform-scaling normalization of a point cloud into `[-1, 1]^D`-ish
/// coordinates. A similarity transform: separators pull back exactly.
#[derive(Clone, Copy, Debug)]
struct BoxNorm<const D: usize> {
    mid: Point<D>,
    scale: f64,
}

impl<const D: usize> BoxNorm<D> {
    fn fit(points: &[Point<D>]) -> Self {
        let mut lo = points[0];
        let mut hi = points[0];
        for p in points {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let mid = (lo + hi) / 2.0;
        let mut extent: f64 = 0.0;
        for i in 0..D {
            extent = extent.max(hi[i] - lo[i]);
        }
        // Guard against the all-identical cloud (extent 0).
        let scale = (extent / 2.0).max(1e-12);
        BoxNorm { mid, scale }
    }

    fn forward(&self, p: &Point<D>) -> Point<D> {
        (*p - self.mid) / self.scale
    }

    /// Pull a separator found in normalized coordinates back to the
    /// original coordinates.
    fn pull_back(&self, sep: Separator<D>) -> Separator<D> {
        match sep {
            Separator::Sphere(s) => Separator::Sphere(Sphere::new(
                self.mid + s.center * self.scale,
                s.radius * self.scale,
            )),
            Separator::Halfspace(h) => Separator::Halfspace(Hyperplane {
                normal: h.normal,
                offset: h.offset * self.scale + h.normal.dot(&self.mid),
            }),
        }
    }
}

/// Draw one unit-time sphere-separator candidate.
///
/// `E` must equal `D + 1`. Returns `None` only on numerically degenerate
/// inputs (e.g. every sampled point identical); the caller retries or falls
/// back.
pub fn unit_time_candidate<const D: usize, const E: usize, R: Rng>(
    points: &[Point<D>],
    cfg: &SeparatorConfig,
    rng: &mut R,
) -> Option<Separator<D>> {
    assert_eq!(E, D + 1, "unit_time_candidate requires E = D + 1");
    assert!(!points.is_empty(), "cannot separate an empty point set");

    // 1. Constant-size sample (with replacement — preserves centerpoint
    //    quality w.h.p. and keeps the candidate cost independent of n). Its
    //    size is exactly the leaf count of the Radon tree in step 4.
    let sample: Vec<Point<D>> = (0..cfg.sample_size(D))
        .map(|_| points[rng.gen_range(0..points.len())])
        .collect();

    // 2. Normalize.
    let norm = BoxNorm::fit(&sample);

    // 3. Lift.
    let lifted: Vec<Point<E>> = sample.iter().map(|p| lift(&norm.forward(p))).collect();

    // 4. Approximate centerpoint of the lifted sample (no randomness: the
    //    sample order decides the groups).
    let mut z = radon_tree_centerpoint(&lifted);
    // The centerpoint of points on the sphere lies strictly inside the unit
    // ball except in degenerate one-point configurations; clamp for safety.
    let zn = z.norm();
    if zn >= 1.0 - 1e-9 {
        z = z * ((1.0 - 1e-6) / zn);
    }

    // 5. Conformal normalization.
    let map = ConformalMap::<D, E>::from_centerpoint(&z);

    // 6. Random great circle, pulled back through the conformal map and the
    //    box normalization.
    let g = random_directions::<E, R>(1, rng)[0];
    let sep = map.pull_back_great_circle(&g, cfg.tol)?;
    Some(norm.pull_back(sep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{is_good_point_split, split_counts};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn uniform_square(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::from([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect()
    }

    #[test]
    fn candidate_exists_for_uniform_points() {
        let pts = uniform_square(2000, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sep =
            unit_time_candidate::<2, 3, _>(&pts, &SeparatorConfig::default(), &mut rng).unwrap();
        // Must actually split: neither side empty, in at least some draws.
        let counts = split_counts(&pts, &sep, 1e-9);
        assert_eq!(counts.total(), pts.len());
    }

    #[test]
    fn candidates_are_frequently_good() {
        // The MTTV contract: success probability bounded below by a
        // constant. Empirically on uniform data most draws are good.
        let pts = uniform_square(4000, 3);
        let cfg = SeparatorConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let delta = cfg.delta(2);
        let mut good = 0;
        let trials = 60;
        for _ in 0..trials {
            if let Some(sep) = unit_time_candidate::<2, 3, _>(&pts, &cfg, &mut rng) {
                let c = split_counts(&pts, &sep, cfg.tol);
                if is_good_point_split(&c, delta) {
                    good += 1;
                }
            }
        }
        // The paper assumes ≥ 1/2; demand at least 40% to keep the test
        // robust to sampling noise while still catching regressions.
        assert!(
            good * 5 >= trials * 2,
            "only {good}/{trials} candidates were good"
        );
    }

    #[test]
    fn candidate_on_clustered_data() {
        // Two tight clusters: a good separator must put them apart or split
        // one of them; either way both sides must be non-trivial often.
        let mut pts = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..500 {
            pts.push(Point::<2>::from([
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
            ]));
        }
        for _ in 0..500 {
            pts.push(Point::from([
                10.0 + rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
            ]));
        }
        let cfg = SeparatorConfig::default();
        let mut good = 0;
        for _ in 0..40 {
            if let Some(sep) = unit_time_candidate::<2, 3, _>(&pts, &cfg, &mut rng) {
                let c = split_counts(&pts, &sep, cfg.tol);
                if is_good_point_split(&c, cfg.delta(2)) {
                    good += 1;
                }
            }
        }
        assert!(good >= 10, "clustered data: only {good}/40 good candidates");
    }

    #[test]
    fn candidate_in_three_dimensions() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let pts: Vec<Point<3>> = (0..3000)
            .map(|_| {
                Point::from([
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ])
            })
            .collect();
        let cfg = SeparatorConfig::default();
        let mut good = 0;
        for _ in 0..40 {
            if let Some(sep) = unit_time_candidate::<3, 4, _>(&pts, &cfg, &mut rng) {
                let c = split_counts(&pts, &sep, cfg.tol);
                if is_good_point_split(&c, cfg.delta(3)) {
                    good += 1;
                }
            }
        }
        assert!(good >= 10, "3d: only {good}/40 good candidates");
    }

    #[test]
    fn degenerate_identical_points_do_not_panic() {
        let pts = vec![Point::<2>::splat(3.0); 50];
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Any output is acceptable (None or a separator that fails to
        // split); the contract is only "no panic, no bogus Some with NaN".
        if let Some(sep) =
            unit_time_candidate::<2, 3, _>(&pts, &SeparatorConfig::default(), &mut rng)
        {
            match sep {
                Separator::Sphere(s) => {
                    assert!(s.center.is_finite() && s.radius.is_finite());
                }
                Separator::Halfspace(h) => {
                    assert!(h.normal.is_finite() && h.offset.is_finite());
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = uniform_square(1000, 8);
        let cfg = SeparatorConfig::default();
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let sa = unit_time_candidate::<2, 3, _>(&pts, &cfg, &mut a);
        let sb = unit_time_candidate::<2, 3, _>(&pts, &cfg, &mut b);
        assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
    }

    #[test]
    fn coordinates_far_from_origin_are_handled() {
        // Box normalization must make this as easy as the unit square.
        let base = uniform_square(2000, 10);
        let pts: Vec<Point<2>> = base
            .iter()
            .map(|p| Point::from([p[0] * 1e6 + 4e9, p[1] * 1e6 - 7e8]))
            .collect();
        let cfg = SeparatorConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut good = 0;
        for _ in 0..40 {
            if let Some(sep) = unit_time_candidate::<2, 3, _>(&pts, &cfg, &mut rng) {
                let c = split_counts(&pts, &sep, 1e-3);
                if is_good_point_split(&c, cfg.delta(2)) {
                    good += 1;
                }
            }
        }
        assert!(good >= 10, "shifted data: only {good}/40 good candidates");
    }
}
