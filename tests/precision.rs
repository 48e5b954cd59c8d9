//! Oracle parity: every all-k-NN algorithm (§6 parallel, §5 simple) and
//! the batch serving engine return exactly the answers an independent
//! oracle computes, compared bit for bit (DESIGN.md §17).
//!
//! * Below a few hundred points the oracle is brute force, in 2-D and
//!   3-D, and the kd-tree baseline is checked against it too.
//! * At 50 000–100 000 points brute force is out of reach, so the kd-tree
//!   baseline is the oracle.
//! * Serving returns exactly the balls a scalar scan says cover a probe,
//!   including probes that sit on a ball's boundary.

use proptest::prelude::*;
use sepdc::core::serve::{CoverPredicate, ServeConfig};
use sepdc::core::{
    brute_force_knn, kdtree_all_knn, parallel_knn, simple_parallel_knn, try_kdtree_all_knn,
    KnnDcConfig, KnnResult, NeighborhoodSystem, QueryTree, QueryTreeConfig,
};
use sepdc::workloads::Workload;

/// A total, bit-exact fingerprint of one answer set.
fn fingerprint(knn: &KnnResult) -> Vec<Vec<(u64, u32)>> {
    (0..knn.len())
        .map(|i| {
            knn.neighbors(i)
                .iter()
                .map(|n| (n.dist_sq.to_bits(), n.idx))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Oracle parity, end to end: the §6 recursion, the §5 recursion,
    /// and the kd baseline each agree bit-for-bit with brute force.
    #[test]
    fn all_algorithms_match_oracle_end_to_end(
        selector in 0u32..4,
        n in 60usize..220,
        seed in 0u64..1 << 40,
    ) {
        let w = match selector % 4 {
            0 => Workload::UniformCube,
            1 => Workload::Clusters,
            2 => Workload::SphereShell,
            _ => Workload::NoisyLine,
        };
        let points = w.generate::<2>(n, seed);
        let k = 3;
        let cfg = KnnDcConfig::new(k).with_seed(seed);
        let oracle = fingerprint(&brute_force_knn(&points, k));

        let s6 = parallel_knn::<2, 3>(&points, &cfg);
        prop_assert_eq!(fingerprint(&s6.knn), oracle.clone(), "§6 vs oracle");

        let s5 = simple_parallel_knn::<2, 3>(&points, &cfg);
        prop_assert_eq!(fingerprint(&s5.knn), oracle.clone(), "§5 vs oracle");

        let kd = try_kdtree_all_knn(&points, k).unwrap();
        prop_assert_eq!(fingerprint(&kd), oracle, "kd vs oracle");
    }

    /// Oracle parity in 3-D: the gather and range kernels run with a third
    /// coordinate column, and every algorithm still matches brute force.
    #[test]
    fn all_algorithms_match_oracle_in_3d(
        selector in 0u32..4,
        n in 60usize..180,
        seed in 0u64..1 << 40,
    ) {
        let w = match selector % 4 {
            0 => Workload::UniformBall,
            1 => Workload::Clusters,
            2 => Workload::TwoSlabs,
            _ => Workload::Grid,
        };
        let points = w.generate::<3>(n, seed);
        let k = 4;
        let cfg = KnnDcConfig::new(k).with_seed(seed);
        let oracle = fingerprint(&brute_force_knn(&points, k));

        let s6 = parallel_knn::<3, 4>(&points, &cfg);
        prop_assert_eq!(fingerprint(&s6.knn), oracle.clone(), "§6 vs oracle");

        let s5 = simple_parallel_knn::<3, 4>(&points, &cfg);
        prop_assert_eq!(fingerprint(&s5.knn), oracle.clone(), "§5 vs oracle");

        let kd = try_kdtree_all_knn(&points, k).unwrap();
        prop_assert_eq!(fingerprint(&kd), oracle, "kd vs oracle");
    }
}

/// Serving is an exact cover query: for both predicates, the
/// hits of every probe are exactly the balls whose scalar
/// `contains`/`contains_interior` test accepts it. The data points are
/// among the probes, so each k-NN ball has its k-th neighbour on (or
/// within rounding of) its boundary — the case where closed and open
/// differ and any inexact filter would show.
#[test]
fn serving_matches_scalar_cover_scan_on_boundaries() {
    let k = 3;
    for (w, seed) in [(Workload::Clusters, 31u64), (Workload::Grid, 32)] {
        let points = w.generate::<2>(400, seed);
        let sys = NeighborhoodSystem::from_knn(&points, &kdtree_all_knn(&points, k));
        let balls = sys.balls();
        let tree = QueryTree::build::<3>(balls, QueryTreeConfig::default(), seed);
        let mut probes = points.clone();
        probes.extend(Workload::UniformCube.generate::<2>(200, seed + 100));

        let mut totals = Vec::new();
        for pred in [CoverPredicate::Closed, CoverPredicate::Open] {
            let out = tree
                .try_serve(&probes, pred, &ServeConfig::default())
                .unwrap();
            totals.push(out.result.total_hits());
            for (i, p) in probes.iter().enumerate() {
                let mut got = out.result.hits(i).to_vec();
                got.sort_unstable();
                let want: Vec<u32> = (0..balls.len() as u32)
                    .filter(|&b| match pred {
                        CoverPredicate::Closed => balls[b as usize].contains(p),
                        CoverPredicate::Open => balls[b as usize].contains_interior(p),
                    })
                    .collect();
                assert_eq!(got, want, "{:?}, {} predicate, probe {i}", w, pred.name());
            }
        }
        // Some probe sat exactly on a boundary, so the sweep really did
        // separate the closed predicate from the open one.
        assert!(totals[0] > totals[1], "{:?}: no boundary probe", w);
    }
}

/// Asserts that the §6 and §5 recursions match the kd-tree oracle bit
/// for bit on `points` (2-D, `k` neighbours, seeded with `seed`).
fn assert_matches_kdtree_oracle(points: &[sepdc::geom::Point<2>], k: usize, seed: u64) {
    let cfg = KnnDcConfig::new(k).with_seed(seed);
    let oracle = fingerprint(&try_kdtree_all_knn(points, k).unwrap());
    let s6 = parallel_knn::<2, 3>(points, &cfg);
    assert!(fingerprint(&s6.knn) == oracle, "§6 vs kd oracle");
    let s5 = simple_parallel_knn::<2, 3>(points, &cfg);
    assert!(fingerprint(&s5.knn) == oracle, "§5 vs kd oracle");
}

/// Oracle parity beyond brute force's reach: the ROADMAP acceptance
/// shape, uniform cube 2-D at n = 100 000, k = 4.
#[test]
fn uniform_100k_matches_kdtree_oracle() {
    let points = Workload::UniformCube.generate::<2>(100_000, 7);
    assert_matches_kdtree_oracle(&points, 4, 7);
}

/// Oracle parity beyond brute force's reach on the clustered shape with
/// fat, overlapping balls: clusters 2-D at n = 50 000, k = 16.
#[test]
fn clusters_50k_k16_matches_kdtree_oracle() {
    let points = Workload::Clusters.generate::<2>(50_000, 11);
    assert_matches_kdtree_oracle(&points, 16, 11);
}
