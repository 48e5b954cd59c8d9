//! sepdc end-to-end benchmark: all-kNN, index build and the `sepdc serve`
//! daemon, end to end (`--trace 0`) and per layer (`--trace 1`).
//!
//! ```sh
//! python3 perfbench/run.py --workload uniform2d --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `run.py` builds this package and the `sepdc` binary, then runs
//! `sepdc-perfbench --sepdc <binary> --work-dir <dir> <the same flags>`.
//! Every run checks its outputs and prints, last, one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. README.md explains the
//! workloads, each metric, and which layer should move which metric.

mod daemon;
mod host;
mod index;
mod knn;
mod serve;
mod stats;

use daemon::{Daemon, OpenLoop};
use host::Provenance;
use index::Built;
use sepdc_core::{load_query_tree, ParallelDcOutput};
use sepdc_geom::Point;
use sepdc_workloads::Workload;
use stats::{median, quantile, Ledger};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One workload: an input for the whole system, from k-NN to serving.
/// README.md says why each exists.
struct Spec {
    name: &'static str,
    generator: Workload,
    n: usize,
    k: usize,
    /// Fixed arrival rate of the read-only probe stream, probes/s.
    static_rate: f64,
    /// Fixed arrival rate of the insert/delete/probe stream, requests/s.
    churn_rate: f64,
    /// Nominal seconds of one round on a 2-core host; a timed run makes
    /// `--seconds / round_s` rounds, so the number of rounds, and with it
    /// the set of inputs, depends only on the arguments.
    round_s: f64,
}

/// Both inputs are planar: `run` is generic in the dimension, but a 3D
/// query tree at k=16 does not build in a benchmark's time (README.md).
const SPECS: [Spec; 2] = [
    Spec {
        name: "uniform2d",
        generator: Workload::UniformCube,
        n: 100_000,
        k: 4,
        static_rate: 25_000.0,
        churn_rate: 10_000.0,
        round_s: 3.5,
    },
    Spec {
        name: "clusters2d-k16",
        generator: Workload::Clusters,
        n: 50_000,
        k: 16,
        static_rate: 10_000.0,
        churn_rate: 5_000.0,
        round_s: 6.0,
    },
];

/// Rounds of a timed run at least.
const MIN_ROUNDS: usize = 3;
/// Length of the read-only open-loop window.
const WINDOW_S: f64 = 1.0;
/// The traced run's rate ladder, as multiples of the fixed rate.
const LADDER: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];
/// Length of each window of the ladder.
const LADDER_WINDOW_S: f64 = 0.75;
/// Arrivals in the first this-many seconds of an open-loop window are
/// sent and checked but left out of its latency quantiles.
const WARMUP_S: f64 = 0.25;
/// A capacity burst holds this many seconds of the fixed-rate stream.
const BURST_S: f64 = 8.0;
/// Probes the brute-force containment check re-derives per run.
const BRUTE_PROBES: usize = 64;

fn static_len(spec: &Spec) -> usize {
    (spec.static_rate * WINDOW_S) as usize
}

/// The churn stream holds this many seconds of requests at the churn rate.
/// With writes at fixed positions it holds exactly a tenth as many inserts
/// at every seed, so every round and seed triggers the same shard
/// rebuilds (carries up to 2048 balls on `uniform2d`, 1024 on
/// `clusters2d-k16`).
const CHURN_WINDOW_S: f64 = 4.0;

fn churn_len(spec: &Spec) -> usize {
    (spec.churn_rate * CHURN_WINDOW_S) as usize
}

/// Inputs the k-NN phase of one round runs on.
const KNN_INPUTS: usize = 2;

/// Seed of the `i`-th k-NN input of a timed run (input 0 is the served
/// one, drawn from `seed` itself).
fn input_seed(seed: u64, i: usize) -> u64 {
    stats::SplitMix(seed ^ (i as u64).rotate_left(32)).next_u64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sepdc: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag}: not a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        },
        sepdc: PathBuf::from(get("--sepdc")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: sepdc-perfbench --workload NAME --seed N --seconds N --trace 0|1 \
                 --sepdc BIN --work-dir DIR"
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (have: {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let prov = Provenance::probe();
    let jiffies = host::cpu_jiffies();
    let mut ledger = Ledger::default();
    let result = run::<2, 3>(spec, &args, &prov, &mut ledger);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let (Some((all0, steal0)), Some((all1, steal1))) = (jiffies, host::cpu_jiffies()) {
        let share = (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64;
        println!(
            "host steal during the run: {:.2}% of CPU time",
            100.0 * share
        );
    }
    for (name, value, unit) in &metrics.0 {
        println!("metric {name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0 && metrics.0.iter().all(|m| m.1.is_finite()),
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    );
}

/// Everything the workload seed determines.
struct Inputs<const D: usize> {
    points: Vec<Point<D>>,
    /// Probes of the read-only stream (also the ladder's and churn's).
    probes: Vec<Point<D>>,
    /// Probes of one capacity burst.
    burst: Vec<Point<D>>,
    /// Centres of inserted balls.
    centers: Vec<Point<D>>,
}

fn generate<const D: usize>(spec: &Spec, seed: u64) -> Inputs<D> {
    let max_ladder = LADDER.iter().fold(0.0f64, |a, &r| a.max(r)) * spec.static_rate;
    let n_probes = static_len(spec)
        .max(churn_len(spec))
        .max((max_ladder * LADDER_WINDOW_S) as usize);
    let n_burst = (spec.static_rate * BURST_S) as usize;
    let n_centers = churn_len(spec) / 10 + 1;
    // One stream from the generator, split: probes and inserted balls
    // follow the input's own distribution (the same clusters).
    let mut all = spec
        .generator
        .generate::<D>(spec.n + n_probes + n_burst + n_centers, seed);
    let centers = all.split_off(spec.n + n_probes + n_burst);
    let burst = all.split_off(spec.n + n_probes);
    let probes = all.split_off(spec.n);
    Inputs {
        points: all,
        probes,
        burst,
        centers,
    }
}

fn run<const D: usize, const E: usize>(
    spec: &Spec,
    args: &Args,
    prov: &Provenance,
    ledger: &mut Ledger,
) -> Result<Metrics, String> {
    let inputs = generate::<D>(spec, args.seed);
    let knn_ws = spec.n * (D * (8 + 8 + 4) + spec.k * 16);
    println!(
        "workload {} seed {} trace {}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "input {:?} d={D} n={} k={} probes={} burst={} insert_centers={}",
        spec.generator.name(),
        spec.n,
        spec.k,
        inputs.probes.len(),
        inputs.burst.len(),
        inputs.centers.len()
    );
    println!(
        "host nproc={} pools=[{}, 1] cpu={:?} llc_bytes={} git_rev={}",
        prov.nproc,
        prov.nproc,
        prov.cpu_model,
        prov.llc_bytes
            .map_or("unknown".to_string(), |b| b.to_string()),
        prov.git_rev
    );
    println!(
        "working_set_bytes (computed) knn={knn_ws} (points + SoA f64/f32 columns + k-NN lists)"
    );
    if args.trace {
        traced::<D, E>(spec, args, prov.nproc, &inputs, ledger)
    } else {
        untraced::<D, E>(spec, args, prov.nproc, &inputs, ledger)
    }
}

/// Write the query-tree snapshot and a sharded snapshot of the same balls
/// where the daemons will load them; returns their paths and the sharded
/// bytes.
fn prepare<const D: usize, const E: usize>(
    args: &Args,
    built: &Built<D>,
) -> Result<(PathBuf, PathBuf, Vec<u8>), String> {
    let (_, sharded_bytes) = index::sharded::<D, E>(&built.balls)?;
    let static_path = args.work_dir.join("static.snap");
    let sharded_path = args.work_dir.join("sharded.snap");
    std::fs::write(&static_path, &built.snapshot).map_err(|e| e.to_string())?;
    std::fs::write(&sharded_path, &sharded_bytes).map_err(|e| e.to_string())?;
    println!(
        "working_set_bytes (computed) index={} (query-tree snapshot) sharded={}",
        built.snapshot.len(),
        sharded_bytes.len()
    );
    Ok((static_path, sharded_path, sharded_bytes))
}

fn spawn(bin: &Path, snap: &Path, ledger: &mut Ledger) -> Result<(Daemon, f64), String> {
    ledger.attempt(1);
    Daemon::spawn(bin, snap).inspect_err(|e| ledger.fail(e.clone()))
}

fn quit(d: Daemon, ledger: &mut Ledger) {
    ledger.attempt(1);
    if let Err(e) = d.quit() {
        ledger.fail(e);
    }
}

/// The read-only stream at its fixed rate, then a capacity burst, on one
/// daemon; answers are checked and the speed printed. Daemon speed moved
/// 2-4x with host steal, so it is reported, not bounded (README.md, "Why
/// no daemon speed is an end-to-end metric").
fn serve_session(
    d: &mut Daemon,
    reqs: &daemon::Requests,
    rows: &[String],
    burst_reqs: &daemon::Requests,
    burst_rows: &[String],
    rate: f64,
    ledger: &mut Ledger,
) {
    let ol = d.open_loop(reqs, rate);
    serve::check_rows(&ol.lines, rows, "read-only stream", ledger);
    report_loop("read-only", &ol, rate);
    let reads = ol.after_warmup(rate, WARMUP_S, |_| true);
    let (lines, secs) = d.burst(burst_reqs);
    serve::check_rows(&lines, burst_rows, "burst", ledger);
    println!(
        "read-only daemon (unbounded): p50 {:.4} ms, p99 {:.4} ms at {rate}/s, burst {:.0} probes/s",
        quantile(&reads, 0.50),
        quantile(&reads, 0.99),
        burst_rows.len() as f64 / secs
    );
}

/// Per-round samples of the end-to-end metrics.
#[derive(Default)]
struct Rounds {
    knn_s: Vec<f64>,
    knn_1t_s: Vec<f64>,
    kdtree_s: Vec<f64>,
    index_build_s: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
}

/// The timed run: `--seconds / round_s` rounds (at least `MIN_ROUNDS`),
/// each one user's session: set up (generate the input, start the
/// daemon), k-NN three ways on each of the round's `KNN_INPUTS` inputs and
/// one index build on the first; round 0's daemon also serves the
/// read-only stream and a burst. Then the churn stream goes as one burst
/// to a fresh sharded daemon. Every metric is the median of its samples,
/// so a slow spell of the host hits one round of every metric instead of
/// every sample of one metric.
fn untraced<const D: usize, const E: usize>(
    spec: &Spec,
    args: &Args,
    nproc: usize,
    inputs: &Inputs<D>,
    ledger: &mut Ledger,
) -> Result<Metrics, String> {
    // Reference answers, computed before any timing: the index, both
    // snapshots, the expected daemon rows and the churn replay.
    let built = knn::pool(nproc).install(|| index::build::<D, E>(&inputs.points, spec.k))?;
    let (static_path, sharded_path, sharded_bytes) = prepare::<D, E>(args, &built)?;
    let static_probes = &inputs.probes[..static_len(spec)];
    let static_reqs = serve::probe_requests(static_probes);
    // Round 0 checks the reference rows' first probes by brute force.
    let static_rows = serve::expected_rows(&built.tree, static_probes, 0)?;
    let burst_reqs = serve::probe_requests(&inputs.burst);
    let burst_rows = serve::expected_rows(&built.tree, &inputs.burst, static_probes.len() as u64)?;
    let ops = serve::churn_ops(
        &built.balls,
        &inputs.centers,
        &inputs.probes,
        churn_len(spec),
        args.seed,
    );
    let churn_reqs = serve::churn_requests(&ops);
    let churn = serve::replay_churn::<D, E>(&sharded_bytes, &ops)?;

    let mut r = Rounds::default();
    let mut daemon_rss_mb = 0.0;
    let rounds = ((args.seconds / spec.round_s).round() as usize).max(MIN_ROUNDS);
    for round in 0..rounds {
        let (again, gen_s) = knn::timed(|| generate::<D>(spec, args.seed));
        ledger.check(
            again.points == inputs.points && again.probes == inputs.probes,
            || "input generation is not a function of the seed".into(),
        );
        drop(again);

        // k-NN takes `KNN_INPUTS` fresh inputs each round (the first
        // round's first is the served one) and the index build the first
        // of them, so the run's medians average over many inputs: the
        // random split balance moves `knn_s` by a quarter between inputs,
        // and where the clusters fall moves `knn_1t_s` by a third.
        let fresh: Vec<Vec<Point<D>>> = (round * KNN_INPUTS..(round + 1) * KNN_INPUTS)
            .filter(|&i| i > 0)
            .map(|i| {
                spec.generator
                    .generate::<D>(spec.n, input_seed(args.seed, i))
            })
            .collect();
        let served = (round == 0).then_some(inputs.points.as_slice());
        let round_inputs: Vec<&[Point<D>]> = served
            .into_iter()
            .chain(fresh.iter().map(Vec::as_slice))
            .collect();
        let mut knn_line = Vec::new();
        for points in &round_inputs {
            host::reset_peak_rss();
            let rep = knn::rep::<D, E>(points, spec.k, nproc, ledger)?;
            r.peak_rss_mb.push(host::peak_rss_mb(None).unwrap_or(0.0));
            r.knn_s.push(rep.knn_s);
            r.knn_1t_s.push(rep.knn_1t_s);
            r.kdtree_s.push(rep.kdtree_s);
            knn_line.push(format!(
                "knn {:.4} s, 1t {:.4} s, kd {:.4} s",
                rep.knn_s, rep.knn_1t_s, rep.kdtree_s
            ));
        }
        let points = round_inputs[0];

        let (b, s) =
            knn::timed(|| knn::pool(nproc).install(|| index::build::<D, E>(points, spec.k)));
        let b = b?;
        if round == 0 {
            ledger.check(b.snapshot == built.snapshot, || {
                "index build differs from the reference build".into()
            });
        }
        let rows = serve::expected_rows(&b.tree, &static_probes[..BRUTE_PROBES], 0)?;
        serve::brute_check(&b.balls, static_probes, &rows, BRUTE_PROBES, ledger);
        r.index_build_s.push(s);
        drop(b);

        let (mut d, spawn_s) = spawn(&args.sepdc, &static_path, ledger)?;
        r.setup_s.push(gen_s + spawn_s);
        println!(
            "round {}: {}; build {:.4} s, setup {:.4} s",
            round + 1,
            knn_line.join("; "),
            r.index_build_s.last().unwrap_or(&0.0),
            gen_s + spawn_s,
        );
        if round == 0 {
            serve_session(
                &mut d,
                &static_reqs,
                &static_rows,
                &burst_reqs,
                &burst_rows,
                spec.static_rate,
                ledger,
            );
            daemon_rss_mb = d.peak_rss_mb().unwrap_or(0.0);
        }
        quit(d, ledger);
    }
    println!(
        "rounds {rounds}, k-NN inputs {} (every metric is the median of its samples)",
        rounds * KNN_INPUTS
    );

    // The churn stream as one burst, on the sharded daemon.
    let (mut c, _) = spawn(&args.sepdc, &sharded_path, ledger)?;
    let (lines, secs) = c.burst(&churn_reqs);
    quit(c, ledger);
    serve::check_rows(&lines, &churn.expected, "churn burst", ledger);
    println!(
        "churn burst (unbounded): {:.0} requests/s",
        ops.len() as f64 / secs
    );

    let mut m = Metrics::default();
    m.put("knn_s", median(&r.knn_s), "s");
    m.put("knn_1t_s", median(&r.knn_1t_s), "s");
    m.put("kdtree_s", median(&r.kdtree_s), "s");
    m.put("index_build_s", median(&r.index_build_s), "s");
    m.put("setup_s", median(&r.setup_s), "s");
    m.put("peak_rss_mb", median(&r.peak_rss_mb), "MB");
    m.put("daemon_rss_mb", daemon_rss_mb, "MB");
    Ok(m)
}

fn report_loop(what: &str, ol: &OpenLoop, rate: f64) {
    println!(
        "open-loop {what}: rate {rate}/s for {:.2} s, answered {}, generator lag p99 {:.3} ms, \
         backlog at window end {} ({})",
        ol.seconds,
        ol.lines.len(),
        if ol.lag_ms.is_empty() {
            0.0
        } else {
            quantile(&ol.lag_ms, 0.99)
        },
        ol.backlog,
        if ol.kept_up(rate) {
            "kept up"
        } else {
            "GROWING: the rate fails"
        }
    );
}

/// Sum of the top-level phase self times of a traced Section 6 run.
/// `separator-search` nests inside `split`, so split's self time is
/// split minus separator-search; the other phases do not nest.
fn phase_s<const D: usize>(out: &ParallelDcOutput<D>, name: &str) -> f64 {
    out.report.phase(name).map_or(0.0, |p| p.ms / 1e3)
}

/// The traced run: per-layer numbers, never mixed into the timed run.
fn traced<const D: usize, const E: usize>(
    spec: &Spec,
    args: &Args,
    nproc: usize,
    inputs: &Inputs<D>,
    ledger: &mut Ledger,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let pts = &inputs.points;

    // k-NN: untraced and traced 1-thread runs alternate, so the overhead
    // is a same-conditions difference; the traced 1-thread pool makes the
    // summed phase times comparable with wall time.
    let (oracle, kd_first) = knn::kdtree(pts, spec.k);
    let oracle = oracle?;
    let mut plain_1t = Vec::new();
    let mut par_s = Vec::new();
    let mut traced_runs = Vec::new();
    let t0 = Instant::now();
    while plain_1t.len() < 2 || t0.elapsed().as_secs_f64() < 0.3 * args.seconds {
        let (o, s) = knn::parallel::<D, E>(pts, spec.k, 1, false);
        let o = o?;
        ledger.check(o.knn.same_distances(&oracle, 0.0).is_ok(), || {
            "untraced 1-thread run vs kd-tree".into()
        });
        plain_1t.push(s);
        let (o, s) = knn::parallel::<D, E>(pts, spec.k, 1, true);
        let o = o?;
        ledger.check(o.knn.same_distances(&oracle, 0.0).is_ok(), || {
            "traced 1-thread run vs kd-tree".into()
        });
        traced_runs.push((s, o));
        let (o, s) = knn::parallel::<D, E>(pts, spec.k, nproc, false);
        let o = o?;
        ledger.check(
            knn::result_hash(&o.knn) == knn::result_hash(&traced_runs[0].1.knn),
            || "result hash differs between the nproc and 1-thread pools".into(),
        );
        par_s.push(s);
    }
    let (_, kd_second) = knn::kdtree(pts, spec.k);
    // The traced run of median wall time supplies the phase breakdown,
    // so its phases and its wall time come from the same run.
    traced_runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (traced_s, out) = &traced_runs[traced_runs.len() / 2];
    let plain_1t_s = median(&plain_1t);
    let kdtree_s = 0.5 * (kd_first + kd_second);

    let split = phase_s(out, "split");
    let search = phase_s(out, "separator-search");
    let top_level = [
        ("split (self)", split - search),
        ("separator-search", search),
        ("leaf-solve", phase_s(out, "leaf-solve")),
        ("collect-crossing", phase_s(out, "collect-crossing")),
        ("fast-correction", phase_s(out, "fast-correction")),
        ("punt-correction", phase_s(out, "punt-correction")),
    ];
    let attributed: f64 = top_level.iter().map(|p| p.1).sum();
    let cnt = |name: &str| out.report.counter(name).unwrap_or(0.0);
    let work = out.cost.work as f64;
    let depth = out.cost.depth as f64;
    let candidates = cnt("meter.separator_candidates");
    let dist_evals = cnt("meter.distance_evals");
    let breakdown: Vec<String> = top_level
        .iter()
        .map(|(n, v)| format!("{n} {v:.4}"))
        .collect();
    println!(
        "phase self times (s) of the traced 1-thread run of {traced_s:.4} s: {}, unattributed {:.4}",
        breakdown.join(", "),
        traced_s - attributed
    );

    m.put("separator.search_s", search, "s");
    m.put("separator.candidates", candidates, "count");
    m.put(
        "separator.accept_ratio",
        cnt("meter.separator_accepts") / candidates.max(1.0),
        "ratio",
    );
    m.put("split.self_s", split - search, "s");
    m.put("knn.height", out.stats.height as f64, "count");
    m.put("cost.work", work, "count");
    m.put("cost.depth", depth, "count");
    m.put(
        "brent.bound_speedup",
        work / (work / nproc as f64 + depth),
        "x",
    );
    m.put("knn.speedup", plain_1t_s / median(&par_s), "x");
    m.put("leaf.solve_s", phase_s(out, "leaf-solve"), "s");
    m.put("leaf.base_leaves", out.stats.base_leaves as f64, "count");
    m.put(
        "leaf.forced_leaves",
        out.stats.forced_leaves as f64,
        "count",
    );
    m.put("correction.fast_s", phase_s(out, "fast-correction"), "s");
    m.put(
        "correction.collect_s",
        phase_s(out, "collect-crossing"),
        "s",
    );
    m.put(
        "correction.march_steps",
        cnt("correction.march_steps"),
        "count",
    );
    m.put(
        "correction.march_pruned",
        cnt("correction.march_pruned"),
        "count",
    );
    m.put(
        "correction.dist_evals",
        cnt("correction.dist_evals"),
        "count",
    );
    m.put("punt.correction_s", phase_s(out, "punt-correction"), "s");
    m.put(
        "punt.count",
        (out.stats.punts_threshold + out.stats.punts_marching) as f64,
        "count",
    );
    m.put("punt.query_builds", cnt("meter.query_builds"), "count");
    m.put("kernel.dist_evals", dist_evals, "count");
    m.put(
        "precision.f32_rejects",
        cnt("precision.f32_rejects"),
        "count",
    );
    m.put(
        "precision.f64_confirms",
        cnt("precision.f64_confirms"),
        "count",
    );
    m.put(
        "kernel.bytes_computed",
        dist_evals * (2 * D * 8) as f64,
        "bytes",
    );
    m.put("knn.vs_kdtree", kdtree_s / plain_1t_s, "x");
    m.put("knn.unattributed_s", traced_s - attributed, "s");
    m.put("trace.overhead_frac", traced_s / plain_1t_s - 1.0, "ratio");

    // Index build: one pipeline run in the nproc pool, a span per call.
    let built = knn::pool(nproc).install(|| index::build::<D, E>(pts, spec.k))?;
    let mut load_s = Vec::new();
    for _ in 0..3 {
        let (t, s) = knn::timed(|| load_query_tree::<D>(&built.snapshot));
        ledger.check(t.is_ok(), || "snapshot does not load".into());
        load_s.push(s);
    }
    let qs = built.tree.stats();
    println!(
        "index build spans (s): k-NN {:.4}, from_knn {:.4}, query-tree build {:.4}, save {:.4}",
        built.knn_s, built.from_knn_s, built.build_s, built.save_s
    );
    m.put("index.from_knn_s", built.from_knn_s, "s");
    m.put("query.build_s", built.build_s, "s");
    m.put("query.height", qs.height as f64, "count");
    m.put("query.stored_balls", qs.stored_balls as f64, "count");
    m.put("snapshot.save_s", built.save_s, "s");
    m.put("snapshot.load_s", median(&load_s), "s");
    m.put("snapshot.bytes", built.snapshot.len() as f64, "bytes");
    let (static_path, sharded_path, sharded_bytes) = prepare::<D, E>(args, &built)?;

    // Read-only stream at the fixed rate, one capacity burst, then the
    // rate ladder, all on one daemon; the same probes served in process
    // give the engine's share.
    let static_probes = &inputs.probes[..static_len(spec)];
    let static_rows = serve::expected_rows(&built.tree, static_probes, 0)?;
    serve::brute_check(
        &built.balls,
        static_probes,
        &static_rows,
        BRUTE_PROBES,
        ledger,
    );
    let burst_rows = serve::expected_rows(&built.tree, &inputs.burst, static_probes.len() as u64)?;
    let (engine_s, engine) =
        knn::pool(nproc).install(|| serve::replay_engine(&built.tree, static_probes))?;
    let (burst_engine_s, _) =
        knn::pool(nproc).install(|| serve::replay_engine(&built.tree, &inputs.burst))?;

    let (mut d, _) = spawn(&args.sepdc, &static_path, ledger)?;
    let ol = d.open_loop(&serve::probe_requests(static_probes), spec.static_rate);
    serve::check_rows(&ol.lines, &static_rows, "read-only stream", ledger);
    report_loop("read-only", &ol, spec.static_rate);
    let stats = d.stats()?;
    let per_batch = Daemon::stats_field(&stats, "probes").unwrap_or(0.0)
        / Daemon::stats_field(&stats, "batches")
            .unwrap_or(1.0)
            .max(1.0);
    let (lines, burst_s) = d.burst(&serve::probe_requests(&inputs.burst));
    serve::check_rows(&lines, &burst_rows, "burst", ledger);

    let mut seq = (static_probes.len() + inputs.burst.len()) as u64;
    let mut max_ok_rate = 0.0f64;
    for rate in LADDER.map(|f| f * spec.static_rate) {
        let probes = &inputs.probes[..(rate * LADDER_WINDOW_S) as usize];
        let rows = serve::expected_rows(&built.tree, probes, seq)?;
        let l = d.open_loop(&serve::probe_requests(probes), rate);
        serve::check_rows(&l.lines, &rows, "ladder", ledger);
        seq += probes.len() as u64;
        let p99 = l.latency_quantile(rate, WARMUP_S, 0.99, |_| true);
        let ok = p99 <= 10.0 && l.kept_up(rate);
        println!(
            "ladder rate {rate}/s: p99 {p99:.3} ms, backlog {} -> {}",
            l.backlog,
            if ok { "meets 10 ms" } else { "fails" }
        );
        if ok {
            max_ok_rate = max_ok_rate.max(rate);
        }
    }
    quit(d, ledger);

    let probes = engine.probes.max(1) as f64;
    m.put("serve.engine_us_per_probe", engine_s / probes * 1e6, "us");
    m.put(
        "serve.nodes_per_probe",
        engine.cost_total as f64 / probes,
        "count",
    );
    m.put("serve.hits_per_probe", engine.hits as f64 / probes, "count");
    m.put("daemon.probes_per_batch", per_batch, "count");
    m.put(
        "daemon.overhead_us_per_probe",
        (burst_s - burst_engine_s) / inputs.burst.len() as f64 * 1e6,
        "us",
    );
    m.put("daemon.max_rate_p99_10ms", max_ok_rate, "1/s");
    m.put(
        "daemon.capacity_qps",
        inputs.burst.len() as f64 / burst_s,
        "1/s",
    );

    // Churn: the daemon session checks answers; the in-process replay of
    // the same op sequence times the sharded index's batch calls.
    let ops = serve::churn_ops(
        &built.balls,
        &inputs.centers,
        &inputs.probes,
        churn_len(spec),
        args.seed,
    );
    let churn = serve::replay_churn::<D, E>(&sharded_bytes, &ops)?;
    let churn_reqs = serve::churn_requests(&ops);
    let (mut c, _) = spawn(&args.sepdc, &sharded_path, ledger)?;
    let cl = c.open_loop(&churn_reqs, spec.churn_rate);
    quit(c, ledger);
    serve::check_rows(&cl.lines, &churn.expected, "churn stream", ledger);
    report_loop("churn", &cl, spec.churn_rate);
    let (mut c, _) = spawn(&args.sepdc, &sharded_path, ledger)?;
    let (lines, churn_burst_s) = c.burst(&churn_reqs);
    quit(c, ledger);
    serve::check_rows(&lines, &churn.expected, "churn burst", ledger);
    let (st0, st) = (churn.start, churn.end);
    m.put("sharded.insert_s", churn.insert_s, "s");
    m.put("sharded.delete_s", churn.delete_s, "s");
    m.put("sharded.query_s", churn.query_s, "s");
    m.put(
        "sharded.rebuilds",
        (st.rebuilds - st0.rebuilds) as f64,
        "count",
    );
    m.put(
        "sharded.rebuilt_balls",
        (st.rebuilt_balls - st0.rebuilt_balls) as f64,
        "count",
    );
    m.put(
        "sharded.churn_capacity_rps",
        ops.len() as f64 / churn_burst_s,
        "1/s",
    );
    m.put(
        "sharded.tombstone_ratio",
        st.dead as f64 / (st.live + st.dead).max(1) as f64,
        "ratio",
    );

    m.put("generator.lag_p99_ms", quantile(&ol.lag_ms, 0.99), "ms");
    m.put("generator.backlog", ol.backlog as f64, "count");
    m.put(
        "failed_frac",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "ratio",
    );
    Ok(m)
}
