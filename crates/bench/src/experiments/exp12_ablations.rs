//! EXP-12 — ablations of the design choices DESIGN.md calls out.
//!
//! Four knobs, each swept in isolation on fixed inputs:
//!
//! 1. **Radon-tree height** (`radon_levels`) — the "constant" behind the
//!    unit-time claim, fixing both the sample size `(d+3)^L` and the
//!    centerpoint effort: success probability and split quality vs
//!    candidate cost;
//! 2. **punt slack** — the constant in the `k^{1/d} · m^μ` threshold: punt
//!    rate vs total depth and wall time of the §6 algorithm, at k=1 and on
//!    a clustered k=16 input;
//! 3. **fast correction on/off** — forcing every correction through the
//!    query structure shows what the §6 machinery buys over §5-style
//!    correction while holding the sphere partition fixed.

use crate::harness::Table;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sepdc_core::{parallel_knn, KnnDcConfig};
use sepdc_separator::mttv::unit_time_candidate;
use sepdc_separator::{find_good_separator, SeparatorConfig};
use sepdc_workloads::Workload;

fn ablate_radon_levels(table: &mut Table) {
    let inputs = [
        ("uniform", Workload::UniformCube.generate::<2>(1 << 14, 3)),
        ("clusters", Workload::Clusters.generate::<2>(1 << 14, 5)),
    ];
    for (name, pts) in &inputs {
        for levels in 1u32..=4 {
            let cfg = SeparatorConfig {
                radon_levels: levels,
                ..Default::default()
            };
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let runs = 60;
            let mut attempts = 0usize;
            let mut ratio = 0.0;
            for _ in 0..runs {
                let f = find_good_separator::<2, 3, _>(pts, &cfg, &mut rng).unwrap();
                attempts += f.attempts;
                ratio += f.counts.ratio();
            }
            // Candidate draws alone, without the O(m) split scan that
            // scores them: the per-candidate constant the knob sets.
            let draws = 400;
            let t0 = std::time::Instant::now();
            for _ in 0..draws {
                std::hint::black_box(unit_time_candidate::<2, 3, _>(pts, &cfg, &mut rng));
            }
            table.row(
                format!("{name} L={levels}"),
                vec![
                    format!("{}", cfg.sample_size(2)),
                    format!("{:.2}", attempts as f64 / runs as f64),
                    format!("{:.3}", ratio / runs as f64),
                    format!("{:.1}", t0.elapsed().as_secs_f64() * 1e6 / draws as f64),
                ],
            );
        }
    }
}

fn ablate_punt_slack(table: &mut Table) {
    // k=1 on uniform is the reference sweep. The threshold carries the
    // paper's k^{1/d} ply factor, so the clustered k=16 rows should punt
    // at about the k=1 rate of the same input at every slack.
    let uniform = Workload::UniformCube.generate::<2>(1 << 15, 7);
    let clusters = Workload::Clusters.generate::<2>(1 << 15, 7);
    for (name, pts, k) in [
        ("uniform k=1", &uniform, 1usize),
        ("clusters k=1", &clusters, 1),
        ("clusters k=16", &clusters, 16),
    ] {
        for slack in [0.5f64, 1.0, 2.0, 4.0, 16.0] {
            let cfg = KnnDcConfig {
                punt_slack: slack,
                ..KnnDcConfig::new(k)
            };
            let t0 = std::time::Instant::now();
            let out = parallel_knn::<2, 3>(pts, &cfg);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let punts = out.stats.punts_threshold + out.stats.punts_marching;
            let total = punts + out.stats.fast_corrections;
            table.row(
                format!("{name} punt_slack={slack}"),
                vec![
                    format!("{:.1}%", 100.0 * punts as f64 / total.max(1) as f64),
                    format!("{}", out.cost.depth),
                    format!("{:.1}", out.cost.work as f64 / 1e6),
                    format!("{wall_ms:.0}"),
                ],
            );
        }
    }
}

fn ablate_fast_correction(table: &mut Table) {
    let pts = Workload::UniformCube.generate::<2>(1 << 15, 9);
    // The smallest valid punt_slack (0 is rejected by config validation)
    // puts the threshold below one ball: every node with a crossing ball
    // punts to the query structure — §5-style correction on the §6 sphere
    // partition.
    for (label, slack) in [
        ("fast-correction ON", 4.0f64),
        ("forced punting", f64::MIN_POSITIVE),
    ] {
        let cfg = KnnDcConfig {
            punt_slack: slack,
            ..KnnDcConfig::new(1)
        };
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        let punts = out.stats.punts_threshold + out.stats.punts_marching;
        table.row(
            label,
            vec![
                format!("{:.1}%", {
                    let total = punts + out.stats.fast_corrections;
                    100.0 * punts as f64 / total.max(1) as f64
                }),
                format!("{}", out.cost.depth),
                format!("{:.1}", out.cost.work as f64 / 1e6),
            ],
        );
    }
}

fn ablate_selection_rounds(table: &mut Table) {
    use sepdc_scan::selection::{select_rank, select_rank_fr};
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    for e in [12u32, 16, 20, 22] {
        let n = 1usize << e;
        // Continuous pseudo-random values.
        let mut s = 0x2545F4914F6CDD1Du64 | 1;
        let xs: Vec<f64> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as f64 / u64::MAX as f64
            })
            .collect();
        let trials = 20;
        let mut qs_rounds = 0usize;
        let mut fr_rounds = 0usize;
        for _ in 0..trials {
            qs_rounds += select_rank(&xs, n / 2, &mut rng).rounds;
            fr_rounds += select_rank_fr(&xs, n / 2, &mut rng).rounds;
        }
        table.row(
            format!("n=2^{e}"),
            vec![
                format!("{:.1}", qs_rounds as f64 / trials as f64),
                format!("{:.1}", fr_rounds as f64 / trials as f64),
                format!("{:.1}", (n as f64).log2()),
                format!("{:.1}", (n as f64).log2().log2()),
            ],
        );
    }
}

/// Run EXP-12.
pub fn run() {
    let mut t1 = Table::new(
        "EXP-12a — ablation: Radon-tree height (2^14 points, 60 root searches)",
        &[
            "input, levels",
            "sample",
            "attempts/node",
            "mean ratio",
            "µs/candidate",
        ],
    );
    ablate_radon_levels(&mut t1);
    t1.note("one level already splits, at a few more attempts per node; each further");
    t1.note("level lowers the split ratio at ~4-6x the cost per candidate. The default");
    t1.note("is 2 levels (25 points, 6 Radon calls in 2-D).");
    t1.print();

    let mut t2 = Table::new(
        "EXP-12b — ablation: punt threshold slack (§6, 2^15 points)",
        &[
            "input, slack",
            "punt rate",
            "depth",
            "work (M ops)",
            "wall ms",
        ],
    );
    ablate_punt_slack(&mut t2);
    t2.note("small slack punts often (depth grows toward §5's log²); large slack");
    t2.note("never punts. Correctness is unaffected — verified elsewhere. The");
    t2.note("threshold is punt_slack · k^(1/d) · m^μ, so at k=16 the punt rate per");
    t2.note("slack tracks the k=1 rows instead of acting like a 4x smaller slack.");
    t2.print();

    let mut t3 = Table::new(
        "EXP-12c — ablation: fast correction vs forced punting (§6, uniform 2^15)",
        &["mode", "punt rate", "depth", "work (M ops)"],
    );
    ablate_fast_correction(&mut t3);
    t3.note("forced punting = §5-style query-structure correction on the same sphere");
    t3.note("partition: the depth gap is exactly what Fast Correction (Lemma 6.3) buys.");
    t3.print();

    let mut t4 = Table::new(
        "EXP-12d — selection rounds: quickselect (O(log n)) vs Floyd–Rivest (O(log log n))",
        &[
            "n",
            "quickselect rounds",
            "Floyd–Rivest rounds",
            "log₂ n",
            "log₂ log₂ n",
        ],
    );
    ablate_selection_rounds(&mut t4);
    t4.note("the §6.2 remark — k-closest in random O(log log k) rounds — rests on");
    t4.note("Floyd–Rivest-style sampling selection: its round count tracks the last");
    t4.note("column, quickselect's the second-to-last.");
    t4.print();
}
