//! The all-kNN phase: the Section 6 algorithm in an `nproc` pool and in a
//! 1-thread pool, next to the sequential kd-tree in the same process.

use crate::stats::Ledger;
use sepdc_core::{try_kdtree_all_knn, try_parallel_knn, KnnDcConfig, KnnResult, ParallelDcOutput};
use sepdc_geom::Point;
use std::time::Instant;

/// The library seed of every k-NN call. Constant, so only the generated
/// input varies with the workload seed.
const ALGO_SEED: u64 = 1;

/// The configuration users get: library defaults (random splitter,
/// mixed precision) with recording switched off unless traced.
fn config(k: usize, record: bool) -> KnnDcConfig {
    let mut cfg = KnnDcConfig::new(k).with_seed(ALGO_SEED);
    cfg.record = record;
    cfg
}

pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a rayon pool")
}

/// FNV-1a-64 over every `(idx, dist_sq bits)` pair in row order: the
/// byte-parity fingerprint of the determinism contract.
pub fn result_hash(knn: &KnnResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..knn.len() {
        for n in knn.neighbors(i) {
            eat(&n.idx.to_le_bytes());
            eat(&n.dist_sq.to_bits().to_le_bytes());
        }
    }
    h
}

/// One timed call; the output is returned so it cannot be optimised away
/// and so the caller can check it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Section 6 run in a pool of `threads`.
pub fn parallel<const D: usize, const E: usize>(
    points: &[Point<D>],
    k: usize,
    threads: usize,
    record: bool,
) -> (Result<ParallelDcOutput<D>, String>, f64) {
    let cfg = config(k, record);
    pool(threads).install(|| {
        timed(|| {
            try_parallel_knn::<D, E>(std::hint::black_box(points), &cfg).map_err(|e| e.to_string())
        })
    })
}

pub fn kdtree<const D: usize>(points: &[Point<D>], k: usize) -> (Result<KnnResult, String>, f64) {
    timed(|| try_kdtree_all_knn(std::hint::black_box(points), k).map_err(|e| e.to_string()))
}

/// Wall times of one repetition of the phase.
pub struct KnnRep {
    pub knn_s: f64,
    pub knn_1t_s: f64,
    pub kdtree_s: f64,
}

/// One repetition: the kd-tree, then Section 6 in the `nproc` pool and in
/// a 1-thread pool. The kd-tree answer is the oracle (brute force cannot
/// check these sizes): both Section 6 results must match its distance
/// profiles, and both pools must produce the same result hash.
pub fn rep<const D: usize, const E: usize>(
    points: &[Point<D>],
    k: usize,
    nproc: usize,
    ledger: &mut Ledger,
) -> Result<KnnRep, String> {
    let (kd, kdtree_s) = kdtree(points, k);
    let (par, knn_s) = parallel::<D, E>(points, k, nproc, false);
    let (one, knn_1t_s) = parallel::<D, E>(points, k, 1, false);
    let kd = kd.map_err(|e| format!("kd-tree: {e}"))?;
    let par_hash = check_against(&par, &kd, "nproc pool", ledger);
    let one_hash = check_against(&one, &kd, "1-thread pool", ledger);
    if let (Some(a), Some(b)) = (par_hash, one_hash) {
        ledger.check(a == b, || {
            format!("result hash {a:#018x} (nproc) != {b:#018x} (1 thread)")
        });
    }
    Ok(KnnRep {
        knn_s,
        knn_1t_s,
        kdtree_s,
    })
}

/// Check one Section 6 result against the kd-tree oracle (distance
/// profiles, so equidistant ties may resolve either way) and return its
/// hash when it passed.
fn check_against<const D: usize>(
    out: &Result<ParallelDcOutput<D>, String>,
    oracle: &KnnResult,
    label: &str,
    ledger: &mut Ledger,
) -> Option<u64> {
    ledger.attempt(1);
    match out {
        Ok(out) => match out.knn.same_distances(oracle, 0.0) {
            Ok(()) => Some(result_hash(&out.knn)),
            Err(e) => {
                ledger.fail(format!("{label} vs kd-tree oracle: {e}"));
                None
            }
        },
        Err(e) => {
            ledger.fail(format!("{label}: {e}"));
            None
        }
    }
}
