//! Property tests for the deterministic per-node seeding scheme
//! (`sepdc::core::seeding`) and the per-candidate search seeds
//! (`sepdc::separator::candidate_seed`).
//!
//! The construction's determinism contract rests on two facts: distinct
//! root-to-node paths never collide to the same RNG stream (up to the
//! automatic depth bound, `8·⌈log2 n⌉ + 64 = 320` for the largest
//! `u32`-indexed input), and candidate 0 of the seeded search reproduces the
//! pre-sweep serial stream exactly. These properties pin both.

use proptest::prelude::*;
use sepdc::core::seeding::{child_seed, mix, path_seed, punt_seed};
use sepdc::separator::candidate_seed;

/// The deepest path the automatic depth guard permits for any input the
/// `u32` id arena can hold (`n ≤ 2^32` ⇒ limit = 8·32 + 64).
const MAX_AUTO_DEPTH: usize = 320;

fn path() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 0..MAX_AUTO_DEPTH + 1)
}

proptest! {
    #[test]
    fn distinct_paths_never_collide(
        root in any::<u64>(),
        a in path(),
        b in path(),
    ) {
        prop_assume!(a != b);
        prop_assert!(path_seed(root, &a) != path_seed(root, &b), "paths {:?} and {:?} collided under root {root:#x}", a, b);
    }

    #[test]
    fn extending_a_path_changes_its_seed(root in any::<u64>(), p in path(), right in any::<bool>()) {
        let s = path_seed(root, &p);
        prop_assert!(child_seed(s, right) != s);
    }

    #[test]
    fn sibling_and_punt_streams_are_pairwise_distinct(root in any::<u64>(), p in path()) {
        let s = path_seed(root, &p);
        let (l, r, q) = (child_seed(s, false), child_seed(s, true), punt_seed(s));
        prop_assert!(l != r);
        prop_assert!(l != q);
        prop_assert!(r != q);
        // None of the derived streams may alias the node's own stream.
        prop_assert!(l != s);
        prop_assert!(r != s);
        prop_assert!(q != s);
    }

    #[test]
    fn mix_is_injective_on_random_pairs(a in any::<u64>(), b in any::<u64>()) {
        // `mix` is a bijection (splitmix64 finalizer); injectivity is what
        // the collision-freedom argument leans on.
        prop_assume!(a != b);
        prop_assert!(mix(a) != mix(b));
    }

    #[test]
    fn candidate_seeds_distinct_within_a_node(seed in any::<u64>(), i in 0usize..1024, j in 0usize..1024) {
        prop_assume!(i != j);
        prop_assert!(candidate_seed(seed, i) != candidate_seed(seed, j));
    }

    #[test]
    fn candidate_zero_is_the_node_seed(seed in any::<u64>()) {
        // The sweep's candidate 0 must reproduce the pre-sweep serial RNG
        // stream: `ChaCha8Rng::seed_from_u64(seed)` — pinned so seeded
        // regression cases (e.g. the degenerate-separator seed) survive.
        prop_assert!(candidate_seed(seed, 0) == seed);
    }
}
