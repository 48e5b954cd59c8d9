//! Provenance stamped on every run, and process memory readings.
//!
//! Core count and pool size come from `sepdc_bench::harness::host_info`;
//! this module adds only what that probe lacks: the CPU model, the
//! last-level cache size and the source revision.

use sepdc_bench::harness::host_info;

/// Everything a reader needs to place a result on its hardware.
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub llc_bytes: Option<u64>,
    pub git_rev: String,
}

impl Provenance {
    pub fn probe() -> Self {
        Provenance {
            nproc: host_info().cores,
            cpu_model: cpu_model(),
            llc_bytes: llc_bytes(),
            git_rev: git_rev(),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the highest-level cache of CPU 0, from sysfs.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let level = std::fs::read_to_string(p.join("level")).ok();
        let size = std::fs::read_to_string(p.join("size")).ok();
        let (Some(level), Some(size)) = (level, size) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|v| v << 20)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// The checked-out revision, read from `.git` in the working directory
/// (never from a parent directory). A source export without `.git`
/// reports `unknown`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git in the working directory)".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|rev| rev.trim().to_string())
                    .filter(|rev| !rev.is_empty())
            })
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix("VmHWM:")
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
    })
}

/// Reset this process's `VmHWM` to its current RSS (Linux; best effort),
/// so a later [`peak_rss_mb`] reading covers only what ran since.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// (all, steal) jiffies summed over CPUs, from `/proc/stat`. Steal is time
/// the hypervisor ran something else while a CPU of this host wanted to
/// run: on a shared VM it moves every timing, so each run reports it.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}
