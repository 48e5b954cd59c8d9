//! The `sepdc index build` pipeline without file I/O: k-NN →
//! `NeighborhoodSystem::from_knn` → `QueryTree` build → snapshot bytes,
//! with the same library calls and defaults as the CLI.

use crate::knn::timed;
use sepdc_core::{
    save_query_tree, save_sharded_index, try_kdtree_all_knn, NeighborhoodSystem, QueryTree,
    QueryTreeConfig, ShardedConfig, ShardedIndex,
};
use sepdc_geom::ball::Ball;
use sepdc_geom::Point;

/// The library seed of every index build (the CLI's default `--seed`).
const INDEX_SEED: u64 = 42;

/// Staging capacity of the sharded snapshot (the CLI's default
/// `--staging`).
const STAGING_CAP: usize = 256;

/// One pipeline run, with a span around each public call.
pub struct Built<const D: usize> {
    pub balls: Vec<Ball<D>>,
    pub tree: QueryTree<D>,
    pub snapshot: Vec<u8>,
    pub knn_s: f64,
    pub from_knn_s: f64,
    pub build_s: f64,
    pub save_s: f64,
}

pub fn build<const D: usize, const E: usize>(
    points: &[Point<D>],
    k: usize,
) -> Result<Built<D>, String> {
    let (knn, knn_s) = timed(|| try_kdtree_all_knn(points, k));
    let knn = knn.map_err(|e| format!("index k-NN: {e}"))?;
    let (system, from_knn_s) = timed(|| NeighborhoodSystem::from_knn(points, &knn));
    let (tree, build_s) =
        timed(|| QueryTree::try_build::<E>(system.balls(), QueryTreeConfig::default(), INDEX_SEED));
    let tree = tree.map_err(|e| format!("query tree build: {e}"))?;
    let (snapshot, save_s) = timed(|| save_query_tree(&tree));
    Ok(Built {
        balls: system.balls().to_vec(),
        tree,
        snapshot,
        knn_s,
        from_knn_s,
        build_s,
        save_s,
    })
}

/// The `index build --sharded` layout over the same balls.
pub fn sharded<const D: usize, const E: usize>(
    balls: &[Ball<D>],
) -> Result<(ShardedIndex<D>, Vec<u8>), String> {
    let cfg = ShardedConfig {
        staging_cap: STAGING_CAP,
        tree: QueryTreeConfig::default(),
    };
    let index = ShardedIndex::from_balls::<E>(balls, cfg, INDEX_SEED).map_err(|e| e.to_string())?;
    let bytes = save_sharded_index(&index);
    Ok((index, bytes))
}
