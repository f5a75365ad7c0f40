//! Shared pieces: the run report, percentiles, peak RSS, the span
//! recorder, server child processes and the offline cell reference.

use edgeperf_analysis::{RecordShard, SessionRecord, StreamingDataset};
use edgeperf_live::{cell_line_sort_key, CellLine, CellSummary, LiveRecord};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The live workloads and
/// `fleet` make the first [`SETUPS_BEFORE`] before their measured phases
/// and the rest after them (`study` alternates them with its passes), so
/// the samples span the run, not only its first seconds: the shared
/// host's speed drifts over tens of seconds.
pub const SETUPS: usize = 9;
/// Set-ups before the measured phases of the live workloads and `fleet`.
pub const SETUPS_BEFORE: usize = 5;

/// Run `make` `n` times, timing each run into `samples`. Each product
/// is dropped (its server stopped) before the next is made; the last is
/// returned.
pub fn set_up<T>(
    n: usize,
    samples: &mut Vec<f64>,
    tracer: &mut Tracer,
    make: &mut impl FnMut(&mut Tracer) -> T,
) -> Option<T> {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(make(tracer));
        samples.push(t.elapsed().as_secs_f64());
    }
    last
}

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs, every check on (the benchmark's self-test).
    pub quick: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (sessions sent, queries issued, passes run).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Conditions the numbers were measured under.
    pub conditions: BTreeMap<String, String>,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// `metrics` replies of the workload's servers (traced runs).
    pub server_metrics: Vec<String>,
}

impl Report {
    /// Start a report whose checks have all passed so far.
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record a run condition.
    pub fn condition(&mut self, name: &str, value: impl ToString) {
        self.conditions.insert(name.to_string(), value.to_string());
    }

    /// Record a metric as the median of `samples`, listing the samples
    /// among the conditions.
    pub fn median_metric(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.metric(name, median(samples), unit);
        let list: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
        self.condition(&format!("{name}_samples"), list.join(" "));
    }

    /// Record the outcome of one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.failures.push(what());
        }
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `VmHWM` of a process in MB (`self` or a pid), from `/proc`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch directory for this run, inside the checkout.
pub fn run_dir(opts: &Opts) -> PathBuf {
    let dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}-{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create run directory");
    dir
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Disabled, it records nothing and never
/// reads the clock for a span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A server (or fleet) hosted in a child process of this benchmark.
/// Dropping it kills the child and waits for it, so no process outlives
/// the run even when a check panics.
pub struct ServerChild {
    child: Child,
    /// Held open for the child's lifetime (its orphan watchdog).
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Address lines the child announced (`addr`, then `pop` lines).
    pub addrs: Vec<String>,
}

impl ServerChild {
    /// Start `current_exe <args>` and read its announced addresses.
    pub fn spawn(args: &[String]) -> ServerChild {
        let exe = std::env::current_exe().expect("benchmark executable path");
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server child");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut me = ServerChild { child, stdin, stdout, addrs: Vec::new() };
        loop {
            let line = me.read_line();
            match line.split_once(' ') {
                Some(("addr", a)) => me.addrs.push(a.to_string()),
                _ if line == "ready" => break,
                _ => panic!("server child said {line:?}"),
            }
        }
        me
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read server child stdout");
        assert!(n > 0, "server child exited early");
        line.trim_end().to_string()
    }

    /// After the child was told to shut down: read its peak RSS (MB)
    /// and wait for it to exit.
    pub fn finish(mut self) -> f64 {
        let line = self.read_line();
        let mb = line
            .strip_prefix("rss_mb ")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("server child said {line:?}"));
        // Keep stdin open until the child has exited: closing it first
        // would trip the child's orphan watchdog.
        let status = self.child.wait().expect("wait for server child");
        assert!(status.success(), "server child failed: {status}");
        mb
    }

    /// Tell the child to report its peak RSS and exit without a drain;
    /// returns the RSS (MB).
    pub fn stop(mut self) -> f64 {
        let stdin = self.stdin.as_mut().expect("child stdin");
        stdin.write_all(b"stop\n").and_then(|()| stdin.flush()).expect("write to child");
        self.finish()
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// In the child: announce the addresses, then exit on its own if the
/// parent goes away (its stdin closes) before a clean shutdown.
pub fn child_announce(addrs: &[String]) {
    let mut out = std::io::stdout().lock();
    for a in addrs {
        writeln!(out, "addr {a}").expect("write to parent");
    }
    writeln!(out, "ready").expect("write to parent");
    out.flush().expect("flush to parent");
    drop(out);
    std::thread::spawn(|| {
        let mut line = String::new();
        while std::io::stdin().read_line(&mut line).is_ok_and(|n| n > 0) {
            if line.trim() == "stop" {
                child_report_rss();
                std::process::exit(0);
            }
            line.clear();
        }
        std::process::exit(3);
    });
}

/// In the child, after a clean drain: report peak RSS.
pub fn child_report_rss() {
    let mut out = std::io::stdout().lock();
    writeln!(out, "rss_mb {}", peak_rss_mb("self")).expect("write to parent");
    out.flush().expect("flush to parent");
}

/// Offline reference: fold `records` (event time → window with
/// `window_ms`) into a [`StreamingDataset`] and flatten its cells in
/// canonical order, keeping windows in `keep`.
pub fn reference_cells(
    records: &[LiveRecord],
    window_ms: f64,
    keep: impl Fn(u32) -> bool,
) -> Vec<CellLine> {
    let windows = records.iter().map(|r| (r.ts_ms / window_ms) as usize + 1).max().unwrap_or(0);
    let mut ds = StreamingDataset::new(windows);
    for r in records {
        ds.push(SessionRecord {
            group: r.group,
            window: (r.ts_ms / window_ms) as u32,
            route_rank: r.route_rank,
            relationship: r.relationship,
            longer_path: r.longer_path,
            more_prepended: r.more_prepended,
            min_rtt_ms: r.min_rtt_ms,
            hdratio: r.hdratio,
            bytes: r.bytes,
        });
    }
    ds.flush();
    let mut out = Vec::new();
    for (key, g) in ds.iter() {
        for (rank, cells) in g.ranks.iter().enumerate() {
            for (w, cell) in cells.iter().enumerate() {
                let Some(cell) = cell else { continue };
                if !keep(w as u32) {
                    continue;
                }
                let s = CellSummary::from_aggregation(
                    &cell.agg,
                    cell.relationship,
                    cell.longer_path,
                    cell.more_prepended,
                );
                out.push(CellLine::new(w as u32, &(*key, rank as u8), &s));
            }
        }
    }
    out.sort_by_key(cell_line_sort_key);
    out
}

/// Compare served cells with the reference, field by field and f64 bit
/// by bit. Returns the first difference.
pub fn compare_cells(served: &[CellLine], reference: &[CellLine]) -> Result<(), String> {
    let mut served = served.to_vec();
    served.sort_by_key(cell_line_sort_key);
    if served.len() != reference.len() {
        return Err(format!("{} cells served, reference has {}", served.len(), reference.len()));
    }
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    for (a, b) in served.iter().zip(reference) {
        let same = cell_line_sort_key(a) == cell_line_sort_key(b)
            && a.relationship == b.relationship
            && a.longer_path == b.longer_path
            && a.more_prepended == b.more_prepended
            && a.n == b.n
            && a.n_tested == b.n_tested
            && a.bytes == b.bytes
            && a.min_rtt_p50.to_bits() == b.min_rtt_p50.to_bits()
            && bits(a.min_rtt_var) == bits(b.min_rtt_var)
            && bits(a.hdratio_p50) == bits(b.hdratio_p50)
            && bits(a.hdratio_var) == bits(b.hdratio_var);
        if !same {
            return Err(format!("served {a:?} but reference has {b:?}"));
        }
    }
    Ok(())
}

/// Poll until `done()` holds, at most `limit` long, sleeping `step`
/// between polls. Used only between timed phases and to end a timed
/// replay (one poll loop per replay, never per chunk).
pub fn wait_until(limit: Duration, step: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if done() {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(step);
    }
}
