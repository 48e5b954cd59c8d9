//! Wall-clock trajectory bench for `parallel_knn` (the Section 6
//! algorithm) across the standard workloads.
//!
//! ```sh
//! cargo run --release -p sepdc-bench --bin bench_parallel_knn          # full
//! cargo run --release -p sepdc-bench --bin bench_parallel_knn -- --smoke
//! ```
//!
//! Writes `BENCH_parallel_knn.json` (override the path with
//! `SEPDC_BENCH_OUT`) recording, per case: median wall time over the
//! repetitions, throughput, per-case peak RSS (`VmHWM` from
//! `/proc/self/status`, with the kernel's peak accounting reset via
//! `/proc/self/clear_refs` before each case so rows don't inherit the
//! high-water mark of earlier, larger cases), and the fast-correction /
//! punt counters that explain where the time went. The emitted JSON embeds,
//! under `"reports"`, the full [`sepdc_core::RunReport`] of each case's
//! last repetition — the same schema `sepdc knn --report` writes — so the
//! phase timings and per-depth histograms behind every table row travel
//! with the numbers.

use sepdc_bench::harness::{host_info, json_str, timed, HostInfo, Table};
use sepdc_core::{parallel_knn, KnnDcConfig, KnnResult, ParallelDcOutput};
use sepdc_workloads::Workload;

struct Case {
    workload: Workload,
    n: usize,
    k: usize,
}

fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Reset the kernel's peak-RSS accounting (`VmHWM`) so the next
/// [`vm_hwm_kb`] read reflects only the allocations made since this call.
/// Writing `"5"` to `/proc/self/clear_refs` is Linux-specific and may be
/// unavailable (permissions, non-Linux); best-effort — on failure the old
/// cumulative semantics degrade gracefully.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One embedded run report:
/// (row label, median seconds, RunReport JSON, FNV-1a result hash).
type CaseReport = (String, f64, String, u64);

/// FNV-1a-64 over every `(idx, dist_sq)` pair of the result, in row order
/// with raw f64 bits — a byte-parity fingerprint the CI smoke can compare
/// against the checked-in baseline artifact.
fn result_hash(knn: &KnnResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for i in 0..knn.len() {
        for n in knn.neighbors(i) {
            n.idx.to_le_bytes().iter().copied().for_each(&mut eat);
            n.dist_sq
                .to_bits()
                .to_le_bytes()
                .iter()
                .copied()
                .for_each(&mut eat);
        }
    }
    h
}

fn run_case<const D: usize, const E: usize>(
    table: &mut Table,
    reports: &mut Vec<CaseReport>,
    c: &Case,
    reps: usize,
) -> (f64, ParallelDcOutput<D>) {
    reset_peak_rss();
    let pts = c.workload.generate::<D>(c.n, 7);
    let cfg = KnnDcConfig::new(c.k).with_seed(3);
    let mut secs = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let (o, dt) = timed(|| parallel_knn::<D, E>(&pts, &cfg));
        secs.push(dt);
        out = Some(o);
    }
    secs.sort_by(f64::total_cmp);
    let median = secs[secs.len() / 2];
    let out = out.unwrap();
    let punts = out.stats.punts_threshold + out.stats.punts_marching;
    let hwm = vm_hwm_kb().map_or_else(|| "n/a".into(), |kb| format!("{:.1}", kb as f64 / 1024.0));
    let label = format!("{} {}d n={} k={}", c.workload.name(), D, c.n, c.k);
    reports.push((
        label.clone(),
        median,
        out.report.to_json(),
        result_hash(&out.knn),
    ));
    table.row(
        label,
        vec![
            format!("{:.1}", median * 1e3),
            format!("{:.2}", c.n as f64 / median / 1e6),
            hwm,
            out.stats.fast_corrections.to_string(),
            punts.to_string(),
            out.meter.marching_balls.to_string(),
            out.meter.march_pruned.to_string(),
            out.meter.distance_evals.to_string(),
        ],
    );
    (median, out)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // --acceptance: run only the PR-1 acceptance case and the large-k
    // guard once each — the CI perf-regression smoke compares their
    // medians and result hashes against the checked-in baseline artifact.
    let acceptance_only = std::env::args().any(|a| a == "--acceptance");
    let (reps, scale) = if smoke { (1, 25) } else { (3, 1) };
    let reps = if acceptance_only { 1 } else { reps };

    let mut table = Table::new(
        "BENCH parallel_knn wall-clock trajectory",
        &[
            "case",
            "median ms",
            "Mpts/s",
            "peak RSS MB",
            "fast",
            "punts",
            "march steps",
            "pruned",
            "dist evals",
        ],
    );

    // Large-k guard: at k=16 the ply factor of the punt threshold and the
    // leaf selection carry the run, so a regression in either shows here.
    let large_k = Case {
        workload: Workload::Clusters,
        n: 50_000 / scale,
        k: 16,
    };
    let cases_2d: Vec<Case> = if acceptance_only {
        vec![
            Case {
                workload: Workload::UniformCube,
                n: 100_000,
                k: 4,
            },
            large_k,
        ]
    } else {
        vec![
            Case {
                workload: Workload::UniformCube,
                n: 25_000 / scale,
                k: 4,
            },
            Case {
                workload: Workload::UniformCube,
                n: 50_000 / scale,
                k: 4,
            },
            Case {
                workload: Workload::UniformCube,
                n: 100_000 / scale,
                k: 4,
            },
            Case {
                workload: Workload::Clusters,
                n: 50_000 / scale,
                k: 4,
            },
            large_k,
            Case {
                workload: Workload::SphereShell,
                n: 50_000 / scale,
                k: 4,
            },
            Case {
                workload: Workload::TwoSlabs,
                n: 50_000 / scale,
                k: 4,
            },
        ]
    };
    let mut acceptance: Option<f64> = None;
    let mut reports: Vec<CaseReport> = Vec::new();
    for c in &cases_2d {
        let (median, out) = run_case::<2, 3>(&mut table, &mut reports, c, reps);
        out.knn.check_invariants().expect("invariants");
        if c.workload == Workload::UniformCube && c.n == 100_000 {
            acceptance = Some(median);
        }
    }
    if !acceptance_only {
        let c3 = Case {
            workload: Workload::UniformCube,
            n: 50_000 / scale,
            k: 4,
        };
        let (_, out3) = run_case::<3, 4>(&mut table, &mut reports, &c3, reps);
        out3.knn.check_invariants().expect("invariants");
    }

    table.note(format!(
        "reps={reps}, median reported; peak RSS = VmHWM with per-case reset \
         via /proc/self/clear_refs (cumulative fallback where unavailable)"
    ));
    table.note(
        "PR-1 acceptance case UniformCube 2d n=100k k=4: seed baseline 2.54 s \
         -> 1.57 s after the leaf-allocation fix -> ~0.6 s after the arena \
         partition + flat store + centerpoint sampling fix -> ~0.36 s after \
         the radon stack kernel -> 1.67x faster again with the SoA blocked \
         kernels + AABB-pruned march (this PR; same-container A/B: pre-SoA \
         HEAD re-measured 0.81 s vs 0.49 s, the recording container having \
         slowed ~2.2x since the 0.36 s row was taken; single-core throughout)"
            .to_string(),
    );
    if let Some(a) = acceptance {
        table.note(format!("this run's acceptance-case median: {:.3} s", a));
    }
    table.note(
        "run-report recording (cfg.record) is ON here; A/B against record=false \
         on the acceptance case shows the overhead inside run-to-run noise (<2%)"
            .to_string(),
    );
    if smoke {
        table.note("--smoke run: n scaled down 25x, 1 rep (CI sanity only)".to_string());
    }
    if acceptance_only {
        table.note("--acceptance run: acceptance case only, 1 rep (CI perf smoke)".to_string());
    }
    let host = host_info();
    host.warn_if_single_core();
    table.note(host.describe());
    table.print();

    let out_path =
        std::env::var("SEPDC_BENCH_OUT").unwrap_or_else(|_| "BENCH_parallel_knn.json".to_string());
    std::fs::write(&out_path, bench_json(&table, &reports, &host)).expect("write bench json");
    eprintln!("[wrote {out_path}]");
}

/// Combined artifact: the human-oriented table plus one full run report
/// per case, so `python3 -c "json.load(...)"`-style consumers and the
/// `sepdc report` pretty-printer both work off the same file.
fn bench_json(table: &Table, reports: &[CaseReport], host: &HostInfo) -> String {
    let mut s = String::from("{\n\"host\": ");
    s.push_str(&host.to_json());
    s.push_str(",\n\"table\":\n");
    s.push_str(table.to_json().trim_end());
    s.push_str(",\n\"reports\": [\n");
    for (i, (label, median, report, hash)) in reports.iter().enumerate() {
        s.push_str(&format!(
            "{{ \"label\": {}, \"median_ms\": {:.3}, \"result_hash\": \"{hash:#018x}\", \
             \"report\":\n{} }}{}\n",
            json_str(label),
            median * 1e3,
            report.trim_end(),
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n}\n");
    s
}
