//! Client for the real `sepdc serve` binary, run as a child process and fed
//! over stdin/stdout, plus the open-loop load generator.
//!
//! The daemon answers one line per request, in request order, so the i-th
//! response line belongs to the i-th request sent. A reader thread stamps
//! every response line with its arrival time the moment it is read.

use crate::stats::quantile;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long to wait for any single response before counting the rest of
/// a session as missing answers.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// Requests packed back to back: request `i` is `bytes[ends[i-1]..ends[i]]`,
/// newline included, so the pacer writes contiguous slices without
/// formatting on the timed path.
#[derive(Default)]
pub struct Requests {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Requests {
    pub fn push(&mut self, line: &str) {
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    fn range(&self, lo: usize, hi: usize) -> &[u8] {
        &self.bytes[self.start(lo)..self.start(hi)]
    }
}

/// A running `sepdc serve` child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<(Instant, String)>,
    /// Response lines read so far (for the end-of-window backlog).
    read: Arc<AtomicUsize>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn the daemon on `snapshot` and wait until it answers a `stats`
    /// request, which happens only after the snapshot is loaded. Returns
    /// the daemon and the spawn-to-ready seconds.
    pub fn spawn(bin: &Path, snapshot: &Path) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--index")
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let (tx, rx) = channel();
        let read = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&read);
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::with_capacity(1 << 16, stdout);
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        counter.fetch_add(1, Ordering::Relaxed);
                        line.truncate(line.trim_end_matches('\n').len());
                        if tx.send((at, line)).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let mut d = Daemon {
            child,
            stdin,
            rx,
            read,
            reader: Some(reader),
        };
        let stats = d.stats()?;
        if !stats.starts_with("ok generation=") {
            return Err(format!("daemon did not come up: {stats}"));
        }
        Ok((d, t0.elapsed().as_secs_f64()))
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stdin
            .as_mut()
            .expect("stdin open until quit")
            .write_all(bytes)
            .map_err(|e| format!("daemon stdin closed: {e}"))
    }

    fn recv(&self) -> Option<(Instant, String)> {
        self.rx.recv_timeout(RESPONSE_TIMEOUT).ok()
    }

    /// Send `stats` and return the response line.
    pub fn stats(&mut self) -> Result<String, String> {
        self.write(b"stats\n")?;
        self.recv()
            .map(|(_, l)| l)
            .ok_or_else(|| "no answer to `stats`".to_string())
    }

    /// Counter `key=` from a `stats` line.
    pub fn stats_field(line: &str, key: &str) -> Option<f64> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(Some(self.child.id()))
    }

    /// Send every request as fast as the pipe takes it, all due at `t0`,
    /// and collect the answers. Returns the answers and the seconds from
    /// the first write to the last answer.
    pub fn burst(&mut self, reqs: &Requests) -> (Vec<String>, f64) {
        let t0 = Instant::now();
        let mut lines = Vec::with_capacity(reqs.len());
        if self.write(reqs.range(0, reqs.len())).is_err() {
            return (lines, t0.elapsed().as_secs_f64());
        }
        let mut last = t0;
        for _ in 0..reqs.len() {
            match self.recv() {
                Some((at, line)) => {
                    last = at;
                    lines.push(line);
                }
                None => break,
            }
        }
        (lines, (last - t0).as_secs_f64())
    }

    /// Open loop: request `i` is due at `i / rate` seconds after the start
    /// and is sent then whether or not earlier requests were answered. The
    /// pacer sleeps until the next due time and never spins, so on a small
    /// host it does not compete with the daemon for a core; whatever is due
    /// when it wakes goes out in one write. Latency is timed from the due
    /// time, so a stall also charges the requests queued behind it.
    pub fn open_loop(&mut self, reqs: &Requests, rate: f64) -> OpenLoop {
        let n = reqs.len();
        let start = Instant::now() + Duration::from_millis(1);
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
        let read_before = self.read.load(Ordering::Relaxed);
        let mut lag_ms = Vec::with_capacity(n);
        let mut sent = 0;
        while sent < n {
            let now = Instant::now();
            let mut upto = sent;
            while upto < n && due(upto) <= now {
                upto += 1;
            }
            if upto == sent {
                std::thread::sleep(due(sent) - now);
                continue;
            }
            if self.write(reqs.range(sent, upto)).is_err() {
                break;
            }
            let at = Instant::now();
            lag_ms.extend((sent..upto).map(|i| (at - due(i)).as_secs_f64() * 1e3));
            sent = upto;
        }
        let backlog = sent - (self.read.load(Ordering::Relaxed) - read_before).min(sent);
        let mut latency_ms = Vec::with_capacity(sent);
        let mut lines = Vec::with_capacity(sent);
        for i in 0..sent {
            match self.recv() {
                Some((at, line)) => {
                    latency_ms.push(at.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                    lines.push(line);
                }
                None => break,
            }
        }
        // An unanswered request misses every latency limit.
        latency_ms.resize(n, RESPONSE_TIMEOUT.as_secs_f64() * 1e3);
        OpenLoop {
            latency_ms,
            lines,
            lag_ms,
            backlog,
            seconds: n as f64 / rate,
        }
    }

    /// Ask the daemon to exit, and wait for it and its reader thread.
    pub fn quit(mut self) -> Result<(), String> {
        self.write(b"quit\n")?;
        let bye = self.recv().map(|(_, l)| l);
        self.stdin.take();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(h) = self.reader.take() {
            h.join()
                .map_err(|_| "daemon reader thread panicked".to_string())?;
        }
        match bye.as_deref() {
            Some("ok bye") if status.success() => Ok(()),
            other => Err(format!("daemon quit with {status}, last line {other:?}")),
        }
    }
}

impl Drop for Daemon {
    /// A daemon left running by an early return is killed and reaped, so
    /// the benchmark never leaves a process behind.
    fn drop(&mut self) {
        self.stdin.take();
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// One open-loop session. `lines[i]` answers request `i`; `lines` is
/// short when answers went missing, and a missing answer's latency reads
/// as the response timeout.
pub struct OpenLoop {
    pub latency_ms: Vec<f64>,
    pub lines: Vec<String>,
    /// How late the pacer sent each request, in ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent but not yet answered when the last one was sent.
    pub backlog: usize,
    /// Length of the arrival window.
    pub seconds: f64,
}

impl OpenLoop {
    /// Whether the daemon kept up: a backlog of more than 10 ms of
    /// arrivals at the end of the window means the queue was growing, and
    /// the rate fails however good the answered requests' latency was.
    pub fn kept_up(&self, rate: f64) -> bool {
        (self.backlog as f64) <= (rate * 0.010).max(64.0)
    }

    /// Latencies of the requests `pick` selects, skipping arrivals in the
    /// first `warmup` seconds.
    pub fn after_warmup(&self, rate: f64, warmup: f64, pick: impl Fn(usize) -> bool) -> Vec<f64> {
        let skip = (warmup * rate) as usize;
        (skip..self.latency_ms.len())
            .filter(|&i| pick(i))
            .map(|i| self.latency_ms[i])
            .collect()
    }

    /// The `q`-quantile latency over the requests `pick` selects, skipping
    /// arrivals in the first `warmup` seconds.
    pub fn latency_quantile(
        &self,
        rate: f64,
        warmup: f64,
        q: f64,
        pick: impl Fn(usize) -> bool,
    ) -> f64 {
        quantile(&self.after_warmup(rate, warmup, pick), q)
    }
}
