//! The single-node live workloads: `ingest_wide` and `history`.
//!
//! The server runs in a child process (`serve-child`), so its peak RSS
//! is its own; this process generates the inputs, sends them over one
//! binary connection and checks every served cell against an offline
//! `StreamingDataset` fold of the same records.

use crate::common::{
    compare_cells, cores, median, quantile, reference_cells, run_dir, set_up, wait_until, Opts,
    Report, ServerChild, Tracer, SETUPS, SETUPS_BEFORE,
};
use crate::rng::SplitMix;
use edgeperf::serve::WireParser;
use edgeperf_analysis::{GroupKey, SessionRecord};
use edgeperf_bench::loadgen::{generate_lines, LoadgenConfig};
use edgeperf_core::HD_GOODPUT_BPS;
use edgeperf_live::{
    shard_of, BinarySender, CellLine, CellQuery, GroupFilter, LiveClient, LiveConfig, LiveRecord,
};
use edgeperf_world::{run_study_observed, StudyConfig, StudyStats, World, WorldConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `history`'s ingest workers. Its records are cheap to apply (a few
/// dozen groups), so throughput rests on hand-offs between the sender,
/// the reader and the workers; with one worker per core the median
/// replay rate spread 28–43% between runs on a 2-core host, with one
/// worker 14%.
const HISTORY_WORKERS: usize = 1;

/// Passes of the simulated stream per `history` replay.
const HISTORY_PASSES: usize = 3;

/// Paced segments of an `ingest_wide` run, each on a fresh server and
/// each after a share of the unpaced replays.
const PACED_SEGMENTS: usize = 3;

/// Largest generator lag at a window's closing record, as a share of
/// that window's visible latency, for the sample to count.
const MAX_CLOSE_LAG_SHARE: f64 = 0.05;

/// Paper window: 15 minutes of event time.
pub const WINDOW_MS: f64 = 900_000.0;
/// Allowed lateness: one minute.
pub const LATENESS_MS: f64 = 60_000.0;

/// Server settings a workload starts its child server with.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Ingest workers.
    pub workers: usize,
    /// Closed windows kept in RAM per worker.
    pub retention: usize,
    /// Tiered-store directory, if windows spill (compaction keeps the
    /// server's defaults).
    pub spill_dir: Option<PathBuf>,
    /// Record server metrics (traced runs only).
    pub metrics: bool,
}

impl ServerSpec {
    /// Arguments of the `serve-child` mode.
    pub fn args(&self) -> Vec<String> {
        let mut a = vec![
            "serve-child".to_string(),
            format!("--workers={}", self.workers),
            format!("--retention={}", self.retention),
        ];
        if let Some(dir) = &self.spill_dir {
            a.push(format!("--spill-dir={}", dir.display()));
        }
        if self.metrics {
            a.push("--metrics".to_string());
        }
        a
    }
}

/// Send `records`, each pass shifted by `shift_ms` of event time, over
/// one binary connection with no barrier, then wait until the server
/// has accounted for all of them. Returns the seconds from the first
/// byte to the last record accepted.
pub fn replay(
    addr: &str,
    control: &mut LiveClient,
    records: &[LiveRecord],
    passes: usize,
    shift_ms: f64,
) -> f64 {
    let total = (records.len() * passes) as u64;
    let before = control.snapshot().expect("snapshot");
    let start = Instant::now();
    let mut tx = BinarySender::connect(addr).expect("binary connect");
    for p in 0..passes {
        let shift = p as f64 * shift_ms;
        for r in records {
            let mut r = *r;
            r.ts_ms += shift;
            tx.send(&r).expect("send frame");
        }
    }
    tx.finish().expect("finish binary stream");
    let target = before.accepted + before.rejected + total;
    let done = wait_until(Duration::from_secs(120), Duration::from_millis(1), || {
        let s = control.snapshot().expect("snapshot");
        s.accepted + s.rejected >= target
    });
    assert!(done, "server did not account for {total} records within 120 s");
    start.elapsed().as_secs_f64()
}

/// Records of `records` replayed `passes` times with shifted event time,
/// materialized (the reference fold needs them).
fn shifted(records: &[LiveRecord], passes: usize, shift_ms: f64) -> Vec<LiveRecord> {
    (0..passes)
        .flat_map(|p| {
            records.iter().map(move |r| LiveRecord { ts_ms: r.ts_ms + p as f64 * shift_ms, ..*r })
        })
        .collect()
}

/// Last window every worker has surely closed: the global watermark's
/// window minus one, so a worker whose last record came a little
/// earlier than the global maximum still has it closed.
fn surely_closed_until(records: &[LiveRecord]) -> u32 {
    let max_ts = records.iter().map(|r| r.ts_ms).fold(0.0, f64::max);
    (((max_ts - LATENESS_MS) / WINDOW_MS).floor() as u32).saturating_sub(2)
}

/// Check the end-of-replay snapshot: everything accepted, nothing
/// rejected or late.
fn check_snapshot(report: &mut Report, control: &mut LiveClient, sent: u64, what: &str) {
    let snap = control.snapshot().expect("snapshot");
    report.check(snap.accepted == sent && snap.rejected == 0 && snap.late == 0, || {
        format!(
            "{what}: sent {sent}, accepted {}, rejected {}, late {}",
            snap.accepted, snap.rejected, snap.late
        )
    });
    report.failed += sent.saturating_sub(snap.accepted);
}

/// Check every cell of windows `..=until` against the offline fold.
fn check_cells(report: &mut Report, control: &mut LiveClient, records: &[LiveRecord], until: u32) {
    let served = control
        .cells_query(&CellQuery { until_window: Some(until), ..CellQuery::default() })
        .expect("cells");
    let reference = reference_cells(records, WINDOW_MS, |w| w <= until);
    report.attempted += 1;
    report.check(!reference.is_empty(), || "reference fold has no closed cells".to_string());
    if let Err(e) = compare_cells(&served, &reference) {
        report.failed += 1;
        report.check(false, || format!("served cells differ from the offline fold: {e}"));
    }
}

/// Drain the server (keeping its metrics first on a traced run) and
/// return its peak RSS.
fn shutdown(child: ServerChild, control: &mut LiveClient, report: &mut Report, trace: bool) -> f64 {
    if trace {
        report.server_metrics.push(control.metrics_json().expect("metrics"));
    }
    let snap = control.shutdown().expect("shutdown");
    assert!(snap.drained, "server did not drain");
    child.finish()
}

// ---------------------------------------------------------------- ingest_wide

/// Shape of the `ingest_wide` workload.
#[derive(Debug, Clone, Copy)]
pub struct WideShape {
    /// Distinct user groups; one session each per pass.
    pub groups: usize,
    /// Passes (windows) per unpaced replay.
    pub passes: usize,
    /// Offered rate of the paced phase, sessions/s.
    pub paced_rate: f64,
}

impl WideShape {
    /// Full size, or the self-test size.
    pub fn new(quick: bool) -> WideShape {
        if quick {
            WideShape { groups: 5_000, passes: 3, paced_rate: 50_000.0 }
        } else {
            WideShape { groups: 100_000, passes: 3, paced_rate: 150_000.0 }
        }
    }
}

/// One pass: a session per group, spread over one window of event time,
/// rendered as JSONL by the load generator and estimated locally (the
/// binary wire carries the estimator's output).
pub fn wide_inputs(seed: u64, groups: usize) -> Vec<LiveRecord> {
    let cfg = LoadgenConfig {
        sessions: groups,
        groups,
        windows: 1,
        window_ms: WINDOW_MS,
        lateness_ms: LATENESS_MS,
        seed,
        ..LoadgenConfig::default()
    };
    let parser = WireParser::new(HD_GOODPUT_BPS);
    generate_lines(&cfg)
        .iter()
        .map(|l| parser.parse_line(l).expect("generated line parses"))
        .collect()
}

/// Run `ingest_wide`.
pub fn ingest_wide(opts: &Opts, tracer: &mut Tracer, report: &mut Report) -> Vec<LiveRecord> {
    let shape = WideShape::new(opts.quick);
    let workers = cores();
    let spec = ServerSpec { workers, retention: 1_000_000, spill_dir: None, metrics: opts.trace };

    // Set-up: inputs (render, parse, estimate) and a started server.
    let mut make = |tracer: &mut Tracer| {
        let base = tracer.span("setup.inputs", |_| wide_inputs(opts.seed, shape.groups));
        (base, tracer.span("setup.server", |_| ServerChild::spawn(&spec.args())))
    };
    let mut setups = Vec::new();
    let (base, child) = set_up(SETUPS_BEFORE, &mut setups, tracer, &mut make).expect("set up");
    let mut server = Some(child);

    // The measured time alternates between unpaced replays (40%) and
    // paced segments (60%), so both sample the whole run: the shared
    // host's speed drifts over tens of seconds.
    let unpaced_slot = opts.seconds * 0.4 / PACED_SEGMENTS as f64;
    let segment_windows = (opts.seconds * 0.6 / PACED_SEGMENTS as f64 * shape.paced_rate
        / base.len() as f64)
        .ceil()
        .max(3.0) as usize;
    let per_replay = (base.len() * shape.passes) as u64;
    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    let (mut latencies, mut at_close_ms) = (Vec::new(), Vec::new());
    let (mut unpaced_secs, mut visible_windows, mut max_lag_ms) = (0.0, 0, 0.0f64);
    for segment in 1..=PACED_SEGMENTS {
        // Unpaced replays, whole ones only, a fresh server each, until
        // this slot's share of the time is used.
        while unpaced_secs < unpaced_slot * segment as f64 {
            let t = Instant::now();
            let child = server.take().unwrap_or_else(|| ServerChild::spawn(&spec.args()));
            let addr = child.addrs[0].clone();
            let mut control = LiveClient::connect(&addr).expect("control connect");
            let secs = tracer
                .span("replay", |_| replay(&addr, &mut control, &base, shape.passes, WINDOW_MS));
            rates.push(per_replay as f64 / secs);
            report.attempted += per_replay;
            check_snapshot(report, &mut control, per_replay, "ingest_wide replay");
            if rates.len() == 1 {
                let records = shifted(&base, shape.passes, WINDOW_MS);
                let until = surely_closed_until(&records);
                tracer.span("check.cells", |_| check_cells(report, &mut control, &records, until));
            }
            rss.push(shutdown(child, &mut control, report, opts.trace));
            unpaced_secs += t.elapsed().as_secs_f64();
        }

        // A paced open-loop segment on a fresh server: ingest-to-queryable
        // latency per window.
        let windows = segment_windows;
        let child = ServerChild::spawn(&spec.args());
        let addr = child.addrs[0].clone();
        let mut control = LiveClient::connect(&addr).expect("control connect");
        let (visible, lag) = tracer.span("paced", |_| {
            paced(&addr, &mut control, &base, windows, shape.paced_rate, workers)
        });
        let sent = (base.len() * windows) as u64;
        report.attempted += sent + visible.len() as u64;
        check_snapshot(report, &mut control, sent, "ingest_wide paced replay");
        rss.push(shutdown(child, &mut control, report, opts.trace));
        report.check(visible.len() == windows - 1, || "a paced window never became visible".into());
        // A sample whose closing record left late measures the generator:
        // it is dropped.
        latencies.extend(
            visible
                .iter()
                .filter(|&&(w, ms)| lag.at_close_ms[w] <= MAX_CLOSE_LAG_SHARE * ms)
                .map(|&(_, ms)| ms),
        );
        visible_windows += visible.len();
        max_lag_ms = max_lag_ms.max(lag.max_ms);
        at_close_ms.extend(lag.at_close_ms);
    }
    report.median_metric("throughput_per_s", &rates, "1/s");
    set_up(SETUPS - SETUPS_BEFORE, &mut setups, tracer, &mut make);
    report.median_metric("setup_s", &setups, "s");
    report.check(!latencies.is_empty(), || {
        format!("generator ran late at all {visible_windows} window closes")
    });

    report.median_metric("latency_p50_ms", &latencies, "ms");
    report.median_metric("peak_rss_mb", &rss, "MB");
    report.condition("groups", shape.groups);
    report.condition("sessions_per_replay", per_replay);
    report.condition("replays", rates.len());
    report.condition("wire", "binary");
    report.condition("server_workers", workers);
    report.condition("connections", 1);
    report.condition("paced_rate_per_s", shape.paced_rate);
    report.condition("paced_segments", PACED_SEGMENTS);
    report.condition("paced_windows_per_segment", segment_windows);
    report.condition("visible_samples", latencies.len());
    report.condition("visible_dropped_for_lag", visible_windows - latencies.len());
    report.condition("generator_max_lag_ms", format!("{max_lag_ms:.3}"));
    let at_close: Vec<String> = at_close_ms.iter().map(|v| format!("{v:.3}")).collect();
    report.condition("generator_lag_at_close_ms", at_close.join(" "));
    shifted(&base, shape.passes, WINDOW_MS)
}

/// How late the paced generator ran behind its schedule.
struct Lag {
    /// Worst lag over the whole phase, ms.
    max_ms: f64,
    /// Lag when the record closing window `w` was released, ms.
    at_close_ms: Vec<f64>,
}

/// The paced phase: `windows` passes sent on a fixed schedule at `rate`
/// from one thread while this thread probes, per window, for the moment
/// its cells become queryable. A window's latency runs from when the
/// record that closes it was due to be sent until a `cells` query for
/// the window first returns the probe groups' rows. Returns each
/// visible window's index and latency (ms), and the generator's lag.
fn paced(
    addr: &str,
    control: &mut LiveClient,
    base: &[LiveRecord],
    windows: usize,
    rate: f64,
    workers: usize,
) -> (Vec<(usize, f64)>, Lag) {
    let n = base.len();
    // Probe one group per worker shard so every worker's close counts.
    let mut probes: Vec<GroupKey> = Vec::new();
    for r in base {
        let shard = shard_of(&r.group, workers);
        if probes.iter().all(|p| shard_of(p, workers) != shard) {
            probes.push(r.group);
        }
        if probes.len() == workers {
            break;
        }
    }
    let rows_per_probe: Vec<usize> = probes
        .iter()
        .map(|p| {
            let mut ranks: Vec<u8> =
                base.iter().filter(|r| r.group == *p).map(|r| r.route_rank).collect();
            ranks.sort_unstable();
            ranks.dedup();
            ranks.len()
        })
        .collect();
    // The first record of the next pass past the lateness bound moves
    // the watermark beyond the window's end.
    let closer = base.iter().position(|r| r.ts_ms >= LATENESS_MS).expect("pass spans the lateness");
    // Index of the record that closes window `w`. The generator checks
    // its schedule every 64 records, so the check that releases it is
    // at the multiple of 64 at or before it.
    let closer_of = move |w: usize| (w + 1) * n + closer;
    let t0 = Instant::now() + Duration::from_millis(50);
    let due = move |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut tx = BinarySender::connect(addr).expect("binary connect");
            let mut lag = Lag { max_ms: 0.0, at_close_ms: vec![0.0; windows - 1] };
            let mut next_close = 0;
            for k in 0..n * windows {
                if k % 64 == 0 {
                    tx.flush().expect("flush");
                    let at = due(k);
                    let now = Instant::now();
                    let late_ms = now.saturating_duration_since(at).as_secs_f64() * 1e3;
                    if now < at {
                        std::thread::sleep(at - now);
                    }
                    lag.max_ms = lag.max_ms.max(late_ms);
                    if next_close < windows - 1 && closer_of(next_close) / 64 * 64 == k {
                        lag.at_close_ms[next_close] = late_ms;
                        next_close += 1;
                    }
                }
                let mut r = base[k % n];
                r.ts_ms += (k / n) as f64 * WINDOW_MS;
                tx.send(&r).expect("send frame");
            }
            tx.finish().expect("finish");
            lag
        });
        let mut latencies = Vec::new();
        for w in 0..windows - 1 {
            let at = due(closer_of(w));
            let now = Instant::now();
            if now < at {
                std::thread::sleep(at - now);
            }
            let visible = wait_until(Duration::from_secs(60), Duration::from_millis(1), || {
                probes.iter().zip(&rows_per_probe).all(|(p, &rows)| {
                    let q = CellQuery {
                        from_window: Some(w as u32),
                        until_window: Some(w as u32),
                        group: GroupFilter {
                            prefix: Some((p.prefix.base, p.prefix.len)),
                            pop: Some(p.pop.0),
                            ..GroupFilter::default()
                        },
                    };
                    control.cells_query(&q).expect("probe query").len() == rows
                })
            });
            if visible {
                latencies.push((w, at.elapsed().as_secs_f64() * 1e3));
            }
        }
        let lag = sender.join().expect("paced sender");
        let sent = (n * windows) as u64;
        let done = wait_until(Duration::from_secs(60), Duration::from_millis(1), || {
            let s = control.snapshot().expect("snapshot");
            s.accepted + s.rejected >= sent
        });
        assert!(done, "paced replay not accounted for");
        (latencies, lag)
    })
}

// -------------------------------------------------------------------- history

/// Shape of the `history` workload's simulated study.
#[derive(Debug, Clone, Copy)]
pub struct HistoryShape {
    /// Simulated days.
    pub days: u32,
    /// Sessions per (group, window) at weight 1.
    pub sessions: u32,
    /// Fraction of countries kept.
    pub country_fraction: f64,
    /// Query rounds per replay.
    pub rounds: usize,
}

impl HistoryShape {
    /// Full size, or the self-test size.
    pub fn new(quick: bool) -> HistoryShape {
        if quick {
            HistoryShape { days: 2, sessions: 80, country_fraction: 0.5, rounds: 5 }
        } else {
            HistoryShape { days: 2, sessions: 80, country_fraction: 0.5, rounds: 40 }
        }
    }
}

/// The simulated world's topology and dynamics are fixed (the default
/// world seed), so every `--seed` measures a world of the same size;
/// the seed draws the sessions.
pub const WORLD_SEED: u64 = 20190521;

/// Simulate a study over the fixed world, with sessions drawn from
/// `seed`.
pub fn world_records(
    seed: u64,
    days: u32,
    sessions: u32,
    country_fraction: f64,
) -> (World, StudyConfig, Vec<SessionRecord>, StudyStats) {
    let world = World::generate(WorldConfig {
        seed: WORLD_SEED,
        country_fraction,
        ..WorldConfig::default()
    });
    let study = StudyConfig {
        seed: seed ^ 0x5EED,
        days,
        sessions_per_group_window: sessions,
        parallelism: cores(),
        ..StudyConfig::default()
    };
    let mut records: Vec<SessionRecord> = Vec::new();
    let stats =
        run_study_observed(&world, &study, &mut records, &edgeperf_obs::Metrics::disabled());
    (world, study, records, stats)
}

/// Convert study records into a time-ordered live stream: window `w`'s
/// records, in emission order, spread evenly over `[w·W, (w+1)·W)`.
pub fn to_live(records: &[SessionRecord]) -> Vec<LiveRecord> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].window);
    let mut out = Vec::with_capacity(records.len());
    let mut i = 0;
    while i < order.len() {
        let w = records[order[i]].window;
        let end =
            order[i..].iter().position(|&j| records[j].window != w).map_or(order.len(), |k| i + k);
        let n = (end - i) as f64;
        for (j, &idx) in order[i..end].iter().enumerate() {
            let r = &records[idx];
            out.push(LiveRecord {
                ts_ms: f64::from(w) * WINDOW_MS + (j as f64 + 0.5) * WINDOW_MS / n,
                group: r.group,
                route_rank: r.route_rank,
                relationship: r.relationship,
                longer_path: r.longer_path,
                more_prepended: r.more_prepended,
                min_rtt_ms: r.min_rtt_ms,
                hdratio: r.hdratio,
                bytes: r.bytes,
            });
        }
        i = end;
    }
    out
}

/// One query of the `history` mix.
#[derive(Debug, Clone, Copy)]
pub struct MixQuery {
    /// Kind label.
    pub kind: &'static str,
    /// The query.
    pub query: CellQuery,
}

/// Kinds of a 20-query round, cheapest first. Most queries are narrow
/// window ranges, so the median sits inside that block; one in twenty
/// reads one prefix across the whole horizon, the kind that touches
/// every segment.
const ROUND: [(&str, usize); 5] =
    [("pop", 2), ("country", 2), ("continent", 3), ("range", 12), ("prefix", 1)];

/// A deterministic query mix of `rounds` rounds over `records`.
pub fn query_mix(seed: u64, records: &[LiveRecord], until: u32, rounds: usize) -> Vec<MixQuery> {
    let mut rng = SplitMix::new(seed ^ 0x9E55);
    let mut out = Vec::new();
    let span = |rng: &mut SplitMix, len: u32| {
        let from = rng.below(u64::from(until.saturating_sub(len) + 1)) as u32;
        (Some(from), Some((from + len - 1).min(until)))
    };
    for _ in 0..rounds {
        for (kind, count) in ROUND {
            for _ in 0..count {
                let g = records[rng.below(records.len() as u64) as usize].group;
                let mut q = CellQuery::default();
                match kind {
                    "range" => (q.from_window, q.until_window) = span(&mut rng, 4),
                    "pop" => {
                        (q.from_window, q.until_window) = span(&mut rng, 16);
                        q.group.pop = Some(g.pop.0);
                    }
                    "country" => {
                        (q.from_window, q.until_window) = span(&mut rng, 16);
                        q.group.country = Some(g.country);
                    }
                    "continent" => {
                        (q.from_window, q.until_window) = span(&mut rng, 8);
                        q.group.continent = Some(g.continent);
                    }
                    _ => {
                        q.until_window = Some(until);
                        q.group.prefix = Some((g.prefix.base, g.prefix.len));
                    }
                }
                out.push(MixQuery { kind, query: q });
            }
        }
    }
    out
}

/// The reference rows of one query, filtered here field by field.
pub fn reference_rows<'a>(reference: &'a [CellLine], q: &CellQuery) -> Vec<&'a CellLine> {
    reference
        .iter()
        .filter(|c| {
            q.from_window.is_none_or(|w| c.window >= w)
                && q.until_window.is_none_or(|w| c.window <= w)
                && q.group.pop.is_none_or(|p| c.pop == p)
                && q.group.prefix.is_none_or(|(b, l)| c.prefix_base == b && c.prefix_len == l)
                && q.group.country.is_none_or(|x| c.country == x)
                && q.group.continent.is_none_or(|x| c.continent == x)
        })
        .collect()
}

/// Run `history`.
pub fn history(opts: &Opts, tracer: &mut Tracer, report: &mut Report) -> Vec<LiveRecord> {
    let shape = HistoryShape::new(opts.quick);
    let workers = HISTORY_WORKERS;
    let dir = run_dir(opts);
    let spec = |trial: usize| ServerSpec {
        workers,
        retention: 16,
        spill_dir: Some(dir.join(format!("spill-{trial}"))),
        metrics: opts.trace,
    };

    // Set-up: the simulated stream and a started server on an empty
    // store (`spill-<trial>`, cleared first).
    let make = |tracer: &mut Tracer, trial: usize| {
        let _ = std::fs::remove_dir_all(dir.join(format!("spill-{trial}")));
        let live = tracer.span("setup.inputs", |_| {
            let (_, _, records, _) =
                world_records(opts.seed, shape.days, shape.sessions, shape.country_fraction);
            to_live(&records)
        });
        (live, tracer.span("setup.server", |_| ServerChild::spawn(&spec(trial).args())))
    };
    let mut setups = Vec::new();
    let (live, child) =
        set_up(SETUPS_BEFORE, &mut setups, tracer, &mut |tr| make(tr, 0)).expect("set up");
    let mut server = Some(child);

    let until = surely_closed_until(&live);
    let reference =
        tracer.span("check.reference", |_| reference_cells(&live, WINDOW_MS, |w| w <= until));
    let sent = live.len() as u64;
    // A replay sends the stream several times, each pass shifted by the
    // simulated horizon, so a replay lasts long enough that its fixed
    // costs (connect, first allocations) do not dominate it.
    let horizon_ms = f64::from(shape.days) * 96.0 * WINDOW_MS;
    let replayed = sent * HISTORY_PASSES as u64;

    // Replays: 60% of the measured time, a fresh server and store each.
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut trial = 0;
    while rates.len() < 3 || started.elapsed().as_secs_f64() < opts.seconds * 0.6 {
        let child = server.take().unwrap_or_else(|| ServerChild::spawn(&spec(trial).args()));
        let addr = child.addrs[0].clone();
        let mut control = LiveClient::connect(&addr).expect("control connect");
        let secs = tracer
            .span("replay", |_| replay(&addr, &mut control, &live, HISTORY_PASSES, horizon_ms));
        rates.push(replayed as f64 / secs);
        report.attempted += replayed;
        check_snapshot(report, &mut control, replayed, "history replay");
        if trial == 0 {
            let records = shifted(&live, HISTORY_PASSES, horizon_ms);
            let until = surely_closed_until(&records);
            tracer.span("check.cells", |_| check_cells(report, &mut control, &records, until));
            let stats = settle(report, &mut control);
            let snap = control.snapshot().expect("snapshot");
            report.check(snap.events_minrtt + snap.events_hdratio > 0, || {
                "the live detector emitted no degradation event".into()
            });
            report.check(stats.spilled_windows > 0 && stats.compactions > 0, || {
                format!(
                    "store did not spill and compact: {} windows spilled, {} compactions",
                    stats.spilled_windows, stats.compactions
                )
            });
            report.condition("events_minrtt", snap.events_minrtt);
            report.condition("events_hdratio", snap.events_hdratio);
            report.condition("spilled_windows", stats.spilled_windows);
            report.condition("compactions", stats.compactions);
            report.condition("groups", snap.groups);
        }
        // Spill directories are removed only after the run: deleting
        // files while the next replay spills would time the deletions.
        rss.push(shutdown(child, &mut control, report, opts.trace));
        trial += 1;
    }
    report.median_metric("throughput_per_s", &rates, "1/s");

    // Queries: one more replay, then the fixed mix back to back.
    let mix = query_mix(opts.seed, &live, until, shape.rounds);
    let child = ServerChild::spawn(&spec(trial).args());
    let addr = child.addrs[0].clone();
    let mut control = LiveClient::connect(&addr).expect("control connect");
    replay(&addr, &mut control, &live, 1, 0.0);
    report.attempted += sent;
    check_snapshot(report, &mut control, sent, "history replay");
    let stats = settle(report, &mut control);
    let mut latencies: Vec<f64> = Vec::new();
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for mq in &mix {
        let t = Instant::now();
        let rows = tracer.span("query", |_| control.cells_query(&mq.query).expect("query"));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        by_kind.entry(mq.kind).or_default().push(ms);
        report.attempted += 1;
        let expect: Vec<CellLine> =
            reference_rows(&reference, &mq.query).into_iter().cloned().collect();
        if let Err(e) = compare_cells(&rows, &expect) {
            report.failed += 1;
            report.check(false, || format!("{} query {:?}: {e}", mq.kind, mq.query));
        }
    }
    rss.push(shutdown(child, &mut control, report, opts.trace));
    set_up(SETUPS - SETUPS_BEFORE, &mut setups, tracer, &mut |tr| make(tr, trial + 1));
    report.median_metric("setup_s", &setups, "s");

    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.median_metric("peak_rss_mb", &rss, "MB");
    report.condition("sessions_per_replay", replayed);
    report.condition("replays", rates.len());
    report.condition("wire", "binary");
    report.condition("server_workers", workers);
    report.condition("connections", 1);
    report.condition("windows", until + 1);
    report.condition("queries", latencies.len());
    report.condition("query_p99_ms", format!("{:.4}", quantile(&latencies, 0.99)));
    report.condition("store_mb", format!("{:.4}", stats.bytes as f64 / 1e6));
    for (kind, v) in &by_kind {
        report.condition(&format!("query_{kind}_p50_ms"), format!("{:.4}", median(v)));
        report.condition(&format!("query_{kind}_p90_ms"), format!("{:.4}", quantile(v, 0.9)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    live
}

/// Wait for background compaction to finish, so queries always meet the
/// same segment layout; returns the settled store statistics.
fn settle(report: &mut Report, control: &mut LiveClient) -> edgeperf_live::StoreStats {
    let compact_min = LiveConfig::default().compact_min_segments as u64;
    let settled = wait_until(Duration::from_secs(60), Duration::from_millis(2), || {
        control.store_stats().expect("store").segments < compact_min
    });
    report.check(settled, || "compaction did not settle within 60 s".into());
    control.store_stats().expect("store")
}
