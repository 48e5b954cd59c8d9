//! Property-based tests for the k-NN algorithms: random point clouds of
//! random sizes, dimensions and k, always compared against the brute-force
//! oracle. Duplicates and collinear structure arise from the coarse
//! coordinate grid.

use proptest::prelude::*;
use sepdc::core::{
    brute_force_knn, kdtree_all_knn, parallel_knn, simple_parallel_knn, KnnDcConfig,
    NeighborhoodSystem, QueryTree, QueryTreeConfig,
};
use sepdc::geom::Point;

/// Coarse grid coordinates: duplicates and exact ties are common, which is
/// exactly what we want to stress.
fn coarse_coord() -> impl Strategy<Value = f64> {
    (-8i32..8).prop_map(|x| x as f64 * 0.5)
}

fn cloud2(max: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    proptest::collection::vec(
        [coarse_coord(), coarse_coord()].prop_map(Point::from),
        1..max,
    )
}

fn cloud3(max: usize) -> impl Strategy<Value = Vec<Point<3>>> {
    proptest::collection::vec(
        [coarse_coord(), coarse_coord(), coarse_coord()].prop_map(Point::from),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kdtree_matches_oracle(pts in cloud2(200), k in 1usize..5) {
        let oracle = brute_force_knn(&pts, k);
        let kd = kdtree_all_knn(&pts, k);
        prop_assert!(kd.same_distances(&oracle, 1e-12).is_ok());
    }

    #[test]
    fn parallel_matches_oracle_2d(pts in cloud2(250), k in 1usize..4, seed in 0u64..1000) {
        let cfg = KnnDcConfig::new(k).with_seed(seed);
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        let oracle = brute_force_knn(&pts, k);
        prop_assert!(out.knn.same_distances(&oracle, 1e-9).is_ok(),
            "{:?}", out.knn.same_distances(&oracle, 1e-9));
        prop_assert!(out.knn.check_invariants().is_ok());
    }

    #[test]
    fn simple_matches_oracle_2d(pts in cloud2(250), k in 1usize..4, seed in 0u64..1000) {
        let cfg = KnnDcConfig::new(k).with_seed(seed);
        let out = simple_parallel_knn::<2, 3>(&pts, &cfg);
        let oracle = brute_force_knn(&pts, k);
        prop_assert!(out.knn.same_distances(&oracle, 1e-9).is_ok(),
            "{:?}", out.knn.same_distances(&oracle, 1e-9));
    }

    #[test]
    fn parallel_matches_oracle_3d(pts in cloud3(150), k in 1usize..3, seed in 0u64..100) {
        let cfg = KnnDcConfig::new(k).with_seed(seed);
        let out = parallel_knn::<3, 4>(&pts, &cfg);
        let oracle = brute_force_knn(&pts, k);
        prop_assert!(out.knn.same_distances(&oracle, 1e-9).is_ok(),
            "{:?}", out.knn.same_distances(&oracle, 1e-9));
    }

    #[test]
    fn neighborhood_system_properties(pts in cloud2(150), k in 1usize..4) {
        prop_assume!(pts.len() > k);
        let knn = brute_force_knn(&pts, k);
        let sys = NeighborhoodSystem::from_knn(&pts, &knn);
        // The k-neighborhood property always holds for exact k-NN radii.
        prop_assert!(sys.check_k_neighborhood(k).is_ok());
        // Density Lemma with the closed-containment slack.
        let ply = sys.max_ply_at_centers();
        prop_assert!(ply <= 6 * k + k + 1, "ply {ply} too large for k={k}");
    }

    #[test]
    fn query_tree_covering_always_matches_scan(
        pts in cloud2(120),
        k in 1usize..3,
        probes in proptest::collection::vec([coarse_coord(), coarse_coord()].prop_map(Point::from), 1..30),
        seed in 0u64..100,
    ) {
        prop_assume!(pts.len() > k);
        let knn = brute_force_knn(&pts, k);
        let sys = NeighborhoodSystem::from_knn(&pts, &knn);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), seed);
        for p in &probes {
            let mut fast = tree.covering(p);
            fast.sort_unstable();
            let mut slow: Vec<u32> = sys.balls().iter().enumerate()
                .filter(|(_, b)| b.contains(p))
                .map(|(i, _)| i as u32)
                .collect();
            slow.sort_unstable();
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn knn_radii_are_maximal(pts in cloud2(120), k in 1usize..3) {
        prop_assume!(pts.len() > k);
        // The k-neighborhood ball is the LARGEST ball whose interior holds
        // ≤ k-1 points: radius must equal the k-th nearest distance.
        let knn = brute_force_knn(&pts, k);
        for i in 0..pts.len() {
            let r_sq = knn.radius_sq(i);
            // Count strictly closer points.
            let closer = pts.iter().enumerate()
                .filter(|(j, q)| *j != i && pts[i].dist_sq(q) < r_sq)
                .count();
            prop_assert!(closer < k);
            // And at least one point at exactly the radius (the k-th).
            let at = pts.iter().enumerate()
                .filter(|(j, q)| *j != i && (pts[i].dist_sq(q) - r_sq).abs() < 1e-12)
                .count();
            prop_assert!(at >= 1);
        }
    }

    #[test]
    fn single_leaf_matches_oracle_bitwise_2d(pts in cloud2(160), k in 1usize..40) {
        single_leaf_matches_oracle::<2, 3>(&pts, k)?;
    }

    #[test]
    fn single_leaf_matches_oracle_bitwise_3d(pts in cloud3(120), k in 1usize..30) {
        single_leaf_matches_oracle::<3, 4>(&pts, k)?;
    }
}

/// `base_case: Some(n)` makes the whole input one leaf, so the rows are the
/// leaf selection's alone. The coarse grid supplies duplicated points and
/// equidistant ties, and `k ≥ n` arises whenever the cloud is small; every
/// row must equal the oracle's in ids and `dist_sq` bits.
fn single_leaf_matches_oracle<const D: usize, const E: usize>(
    pts: &[Point<D>],
    k: usize,
) -> Result<(), TestCaseError> {
    let cfg = KnnDcConfig {
        base_case: Some(pts.len()),
        ..KnnDcConfig::new(k)
    };
    let out = parallel_knn::<D, E>(pts, &cfg);
    prop_assert_eq!(out.stats.base_leaves, 1);
    let oracle = brute_force_knn(pts, k);
    for i in 0..pts.len() {
        let got: Vec<(u32, u64)> = out
            .knn
            .neighbors(i)
            .iter()
            .map(|n| (n.idx, n.dist_sq.to_bits()))
            .collect();
        let want: Vec<(u32, u64)> = oracle
            .neighbors(i)
            .iter()
            .map(|n| (n.idx, n.dist_sq.to_bits()))
            .collect();
        prop_assert_eq!(got, want, "point {} of {}, k={}", i, pts.len(), k);
    }
    Ok(())
}
