//! Oracle and certificate tests for the exact distance path and the
//! opt-in (1+ε)-approximation mode.
//!
//! Two contracts are pinned here (DESIGN.md §17):
//!
//! 1. **Oracle parity.** With ε = 0, every all-k-NN algorithm (§6
//!    parallel, §5 simple, kd-tree baseline) returns answers
//!    byte-identical to the brute-force oracle, in 2-D and 3-D, and batch
//!    serving returns exactly the balls a scalar scan says cover a probe —
//!    including probes that sit on a ball's boundary.
//! 2. **ε certificate.** With ε > 0 the answers may drift, but the drift
//!    measured against the brute-force oracle stays within the certificate
//!    bound: per-rank relative distance error ≤ ε and no short lists.

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

    /// ε certificate: the approximate answers drift within the certified
    /// bound against the brute-force oracle — per-rank relative distance
    /// error ≤ ε, full-length lists, and the certificate's own exact-run
    /// comparison is clean at ε = 0.
    #[test]
    fn epsilon_mode_error_is_bounded_and_certified(
        n in 120usize..300,
        seed in 0u64..1 << 40,
    ) {
        let eps = 0.5;
        let points = Workload::Clusters.generate::<2>(n, seed);
        let k = 3;
        let cfg = KnnDcConfig::new(k).with_seed(seed).with_epsilon(eps);
        let approx = parallel_knn::<2, 3>(&points, &cfg);
        let oracle = brute_force_knn(&points, k);
        let cert = approx.knn.error_certificate(&oracle);
        prop_assert!(
            cert.within(eps),
            "certificate out of bound: max_rel_error {} short_ranks {}",
            cert.max_rel_error, cert.short_ranks
        );
        prop_assert_eq!(cert.compared_entries, (n * k) as u64);

        // ε = 0 in the same configuration is the exact path: certificate
        // against the oracle is identically clean.
        let exact = parallel_knn::<2, 3>(&points, &cfg.with_epsilon(0.0));
        let clean = exact.knn.error_certificate(&oracle);
        prop_assert_eq!(clean.max_rel_error, 0.0);
        prop_assert_eq!(clean.mismatched_entries, 0);
        prop_assert_eq!(clean.short_ranks, 0);
    }
}

/// Serving at ε = 0 is an exact cover query: for both predicates, the
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
            assert_eq!(out.stats.eps_skips, 0, "{:?}: ε = 0 skipped a ball", w);
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

/// ε-mode must actually *use* its freedom somewhere: across a seed sweep
/// the certificate is nonzero at least once (the relaxation changed an
/// answer) while every run stays within the bound. A sweep (rather than
/// one pinned seed) keeps the test robust to splitter evolution.
#[test]
fn epsilon_mode_produces_nonzero_bounded_certificates() {
    let eps = 0.5;
    let k = 4;
    let mut saw_drift = false;
    for seed in 0..24u64 {
        let points = Workload::Clusters.generate::<2>(500, seed);
        let cfg = KnnDcConfig::new(k).with_seed(seed).with_epsilon(eps);
        let approx = parallel_knn::<2, 3>(&points, &cfg);
        let oracle = brute_force_knn(&points, k);
        let cert = approx.knn.error_certificate(&oracle);
        assert!(
            cert.within(eps),
            "seed {seed}: certificate out of bound: {cert:?}"
        );
        if cert.max_rel_error > 0.0 {
            saw_drift = true;
        }
    }
    assert!(
        saw_drift,
        "ε = {eps} never changed any answer across the sweep — the \
         relaxation is not exercising its freedom"
    );
}
