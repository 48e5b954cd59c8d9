//! Serving workloads: request streams, the in-process reference answers
//! they are checked against, and the in-process replays that time the
//! library layers under the daemon.

use crate::daemon::Requests;
use crate::knn::timed;
use crate::stats::{Ledger, SplitMix};
use sepdc_core::serve::{CoverPredicate, ServeConfig, ServeStats};
use sepdc_core::{load_sharded_index, QueryTree, ShardedStats};
use sepdc_geom::ball::Ball;
use sepdc_geom::Point;

/// The daemon's admission cap (`sepdc serve --batch-max` default): the
/// batch size a saturated daemon serves, so the engine is replayed in
/// batches of this size.
pub const ADMISSION_CAP: usize = 4096;

fn coords<const D: usize>(p: &Point<D>) -> String {
    (0..D)
        .map(|j| p[j].to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn row<T: std::fmt::Display>(seq: u64, hits: &[T]) -> String {
    let ids: Vec<String> = hits.iter().map(T::to_string).collect();
    format!("{seq},{},{}", hits.len(), ids.join(" "))
}

/// Probe request lines (`x,y,…`; `f64` display round-trips exactly).
pub fn probe_requests<const D: usize>(probes: &[Point<D>]) -> Requests {
    let mut r = Requests::default();
    for p in probes {
        r.push(&coords(p));
    }
    r
}

/// The reference answer rows of a read-only daemon for `probes`, the
/// first numbered `first_seq`: the same tree served in process.
pub fn expected_rows<const D: usize>(
    tree: &QueryTree<D>,
    probes: &[Point<D>],
    first_seq: u64,
) -> Result<Vec<String>, String> {
    let out = tree
        .try_serve(probes, CoverPredicate::Closed, &ServeConfig::default())
        .map_err(|e| e.to_string())?;
    Ok(out
        .result
        .iter()
        .enumerate()
        .map(|(i, hits)| row(first_seq + i as u64, hits))
        .collect())
}

/// Compare daemon answers with the reference, one operation per expected
/// row; missing, wrong and `error:` answers all fail.
pub fn check_rows(got: &[String], want: &[String], what: &str, ledger: &mut Ledger) {
    ledger.attempt(want.len() as u64);
    for (i, w) in want.iter().enumerate() {
        match got.get(i) {
            Some(g) if g == w => {}
            Some(g) => ledger.fail(format!("{what} request {i}: got {g:?}, want {w:?}")),
            None => ledger.fail(format!("{what} request {i}: no answer")),
        }
    }
}

/// Independent check of the reference itself: brute-force containment
/// over every ball for the first `count` probes.
pub fn brute_check<const D: usize>(
    balls: &[Ball<D>],
    probes: &[Point<D>],
    rows: &[String],
    count: usize,
    ledger: &mut Ledger,
) {
    for (i, p) in probes.iter().enumerate().take(count) {
        let hits: Vec<usize> = (0..balls.len()).filter(|&b| balls[b].contains(p)).collect();
        let want = row(0, &hits);
        let got = rows[i].split_once(',').map(|(_, r)| r);
        ledger.check(got == want.split_once(',').map(|(_, r)| r), || {
            format!(
                "probe {i}: reference row {:?} differs from brute force {want:?}",
                rows[i]
            )
        });
    }
}

/// Engine time and counters of `probes` served in process in daemon-sized
/// batches.
pub fn replay_engine<const D: usize>(
    tree: &QueryTree<D>,
    probes: &[Point<D>],
) -> Result<(f64, ServeStats), String> {
    let mut secs = 0.0;
    let mut stats = ServeStats::default();
    for chunk in probes.chunks(ADMISSION_CAP) {
        let (out, s) =
            timed(|| tree.try_serve(chunk, CoverPredicate::Closed, &ServeConfig::default()));
        let out = out.map_err(|e| e.to_string())?;
        secs += s;
        stats.probes += out.stats.probes;
        stats.hits += out.stats.hits;
        stats.cost_total += out.stats.cost_total;
    }
    Ok((secs, stats))
}

/// One request of the churn stream.
pub enum ChurnOp<const D: usize> {
    Probe(Point<D>),
    Insert(Ball<D>),
    Delete(u64),
}

/// The churn stream: request `i` inserts a ball when `i % 10 == 3`,
/// deletes one when `i % 10 == 7`, and probes otherwise. Fixed positions
/// make the number of inserts, and so the shard rebuilds they trigger,
/// the same for every seed. Inserted balls are centred on fresh points of
/// the workload's distribution with the radius of a random existing ball;
/// deletes pick a uniformly random live id, so every write succeeds. Ids
/// follow the daemon's rule: the initial balls are `0..n`, inserts take
/// the next ids in order.
pub fn churn_ops<const D: usize>(
    balls: &[Ball<D>],
    centers: &[Point<D>],
    probes: &[Point<D>],
    count: usize,
    seed: u64,
) -> Vec<ChurnOp<D>> {
    let mut rng = SplitMix(seed ^ 0x00C4_0C4E);
    let mut live: Vec<u64> = (0..balls.len() as u64).collect();
    let mut next_id = balls.len() as u64;
    let (mut ins, mut prb) = (0, 0);
    (0..count)
        .map(|i| match i % 10 {
            3 => {
                let radius = balls[rng.below(balls.len())].radius;
                let b = Ball::new(centers[ins % centers.len()], radius);
                ins += 1;
                live.push(next_id);
                next_id += 1;
                ChurnOp::Insert(b)
            }
            7 => ChurnOp::Delete(live.swap_remove(rng.below(live.len()))),
            _ => {
                prb += 1;
                ChurnOp::Probe(probes[(prb - 1) % probes.len()])
            }
        })
        .collect()
}

pub fn churn_requests<const D: usize>(ops: &[ChurnOp<D>]) -> Requests {
    let mut r = Requests::default();
    for op in ops {
        match op {
            ChurnOp::Probe(p) => r.push(&coords(p)),
            ChurnOp::Insert(b) => r.push(&format!("insert {},{}", coords(&b.center), b.radius)),
            ChurnOp::Delete(id) => r.push(&format!("delete {id}")),
        }
    }
    r
}

/// The churn stream replayed through a `ShardedIndex` loaded from the
/// daemon's snapshot: the reference answers, and the time spent in each
/// of the index's batch calls.
pub struct ChurnReplay {
    pub expected: Vec<String>,
    pub insert_s: f64,
    pub delete_s: f64,
    pub query_s: f64,
    /// The index's stats before and after the replay.
    pub start: ShardedStats,
    pub end: ShardedStats,
}

pub fn replay_churn<const D: usize, const E: usize>(
    snapshot: &[u8],
    ops: &[ChurnOp<D>],
) -> Result<ChurnReplay, String> {
    let mut index = load_sharded_index::<D>(snapshot).map_err(|e| e.to_string())?;
    let mut r = ChurnReplay {
        expected: Vec::with_capacity(ops.len()),
        insert_s: 0.0,
        delete_s: 0.0,
        query_s: 0.0,
        start: index.stats(),
        end: index.stats(),
    };
    // The daemon starts at generation 1 and bumps it on every insert that
    // rebuilt shards; probes are numbered from 0 and writes take no number.
    let mut generation = 1u64;
    let mut seq = 0u64;
    let mut pending: Vec<Point<D>> = Vec::new();
    let cfg = ServeConfig::default();
    let mut flush = |pending: &mut Vec<Point<D>>,
                     index: &sepdc_core::ShardedIndex<D>,
                     r: &mut ChurnReplay| {
        if pending.is_empty() {
            return Ok::<(), String>(());
        }
        let (batch, s) = timed(|| index.try_covering_batch(pending, CoverPredicate::Closed, &cfg));
        r.query_s += s;
        for hits in batch.map_err(|e| e.to_string())?.iter() {
            r.expected.push(row(seq, hits));
            seq += 1;
        }
        pending.clear();
        Ok(())
    };
    for op in ops {
        match op {
            ChurnOp::Probe(p) => pending.push(*p),
            ChurnOp::Insert(b) => {
                flush(&mut pending, &index, &mut r)?;
                let before = index.stats().rebuilds;
                let (ids, s) = timed(|| index.try_insert_batch::<E>(std::slice::from_ref(b)));
                r.insert_s += s;
                let ids = ids.map_err(|e| e.to_string())?;
                if index.stats().rebuilds != before {
                    generation += 1;
                }
                r.expected.push(format!(
                    "ok inserted id={} n={} generation={generation}",
                    ids[0],
                    index.len()
                ));
            }
            ChurnOp::Delete(id) => {
                flush(&mut pending, &index, &mut r)?;
                let (ok, s) = timed(|| index.delete_batch(std::slice::from_ref(id)));
                r.delete_s += s;
                r.expected.push(if ok[0] {
                    format!(
                        "ok deleted id={id} n={} generation={generation}",
                        index.len()
                    )
                } else {
                    format!("error: id {id} not found")
                });
            }
        }
    }
    flush(&mut pending, &index, &mut r)?;
    r.end = index.stats();
    Ok(r)
}
