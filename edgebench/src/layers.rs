//! The traced run's per-layer numbers.
//!
//! Each layer is timed through its public functions, called from here
//! inside a span, on inputs of the workload's own shape. Server-side
//! numbers (queue depth, window close, fleet merge) come from the
//! servers' own `metrics` histograms, fetched over the protocol.

use crate::common::{median, Opts, Report, Tracer};
use crate::live::{query_mix, to_live, world_records, LATENESS_MS, WINDOW_MS};
use crate::rng::SplitMix;
use crate::study::analysis_pass;
use edgeperf::serve::WireParser;
use edgeperf_analysis::{AnalysisConfig, DegradationMetric, SessionRecord};
use edgeperf_bench::loadgen::{generate_lines, LoadgenConfig};
use edgeperf_core::HD_GOODPUT_BPS;
use edgeperf_fleet::{merge_cells, CatchmentModel, ClientKey, Fleet, FleetClient, FleetConfig};
use edgeperf_live::{
    cell_line_sort_key, encode_frame, parse_cells_header, shard_of, spsc, BinarySender, CellLine,
    CellQuery, ClosedWindow, FrameDecoder, LiveClient, LiveRecord, OnlineDetector, Response,
    SegmentStore, WindowRing, FRAME_BODY_LEN,
};
use edgeperf_obs::Metrics;
use edgeperf_stats::{median_ci, TDigest};
use edgeperf_world::{run_study_observed, StudyConfig, StudyStats, World, WorldConfig};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Records a reader coalesces per worker before pushing (the server's
/// `RECORD_BATCH`, restated: the server does not expose it).
pub const RECORD_BATCH: usize = 64;
/// Batches a worker takes from one lane per round (the server's
/// `BATCHES_PER_LANE_ROUND`, restated for the same reason).
pub const BATCHES_PER_LANE_ROUND: usize = 4;
/// Most live records a layer pass uses.
const MAX_LAYER_RECORDS: usize = 300_000;

/// Every per-layer metric: name, unit, better direction.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("world.runner.ns_per_session", "ns", "lower"),
    ("world.runner.emit_ratio", "ratio", "higher"),
    ("ingest.ns_per_line", "ns", "lower"),
    ("analysis.columnar.ns_per_record", "ns", "lower"),
    ("analysis.streaming.ns_per_record", "ns", "lower"),
    ("analysis.figures_ms", "ms", "lower"),
    ("analysis.table1_ms", "ms", "lower"),
    ("analysis.table2_ms", "ms", "lower"),
    ("analysis.dataset.cells", "count", "lower"),
    ("stats.median_ci.ns_per_call", "ns", "lower"),
    ("stats.tdigest.ns_per_add", "ns", "lower"),
    ("live.frame.ns_per_record", "ns", "lower"),
    ("live.queue.ns_per_record", "ns", "lower"),
    ("live.window.ns_per_record", "ns", "lower"),
    ("live.window.open_cells", "count", "lower"),
    ("live.window.close_ms", "ms", "lower"),
    ("live.detect.observe_ms", "ms", "lower"),
    ("live.detect.events", "count", "higher"),
    ("live.server.queue_depth_p50", "count", "lower"),
    ("live.server.window_close_ms", "ms", "lower"),
    ("live.store.spill_ms", "ms", "lower"),
    ("live.store.compact_ms", "ms", "lower"),
    ("live.store.compactions", "count", "lower"),
    ("live.store.write_amplification", "ratio", "lower"),
    ("live.store.query_ms.range", "ms", "lower"),
    ("live.store.query_ms.pop", "ms", "lower"),
    ("live.store.query_ms.country", "ms", "lower"),
    ("live.store.query_ms.continent", "ms", "lower"),
    ("live.store.query_ms.prefix", "ms", "lower"),
    ("live.protocol.ns_per_cell", "ns", "lower"),
    ("fleet.catchment.ns_per_home", "ns", "lower"),
    ("fleet.merge.ms", "ms", "lower"),
    ("fleet.merge.cells", "count", "lower"),
    ("fleet.fanout.ms", "ms", "lower"),
    ("fleet.server.merge_ms", "ms", "lower"),
    ("trace.throughput_per_s", "1/s", "higher"),
    ("trace.latency_p50_ms", "ms", "lower"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _, _)| *n == name).map(|(_, u, _)| *u).expect("known metric")
}

fn put(report: &mut Report, name: &str, value: f64) {
    report.metric(name, value, unit_of(name));
}

/// Inputs the workload hands to the layer pass.
pub struct LayerInputs {
    /// Simulated study (world, records, stats, windows), when the
    /// workload already has one.
    pub study: Option<(World, Vec<SessionRecord>, StudyStats, usize)>,
    /// The workload's live records, if it has any.
    pub live: Vec<LiveRecord>,
}

/// Time every layer and add the per-layer metrics to `report`.
pub fn run(opts: &Opts, inputs: LayerInputs, dir: &Path, tracer: &mut Tracer, report: &mut Report) {
    let small = || world_records(opts.seed, 1, 40, 0.3);
    world_layer(tracer, report);
    ingest_layer(opts.seed, tracer, report);
    stats_layer(opts.seed, tracer, report);

    let (records, stats, n_windows) = match inputs.study {
        Some((_, records, stats, n)) => (records, stats, n),
        None => {
            let (_, cfg, records, stats) = small();
            let n = cfg.n_windows() as usize;
            (records, stats, n)
        }
    };
    analysis_layer(records.clone(), &stats, n_windows, tracer, report);

    let mut live = if inputs.live.is_empty() { to_live(&records) } else { inputs.live };
    live.truncate(MAX_LAYER_RECORDS);
    drop(records);
    frame_layer(&live, tracer, report);
    queue_layer(&live, tracer, report);
    let closed = window_layer(&live, tracer, report);
    detect_layer(&closed, tracer, report);
    store_layer(opts.seed, &live, &closed, &dir.join("layer-store"), tracer, report);
    let cells: Vec<CellLine> = closed
        .iter()
        .flat_map(|cw| cw.cells.iter().map(move |(k, s)| CellLine::new(cw.index, k, s)))
        .collect();
    protocol_layer(&cells, tracer, report);
    fleet_layer(&live, &cells, tracer, report);
    server_metrics(report);
}

fn world_layer(tracer: &mut Tracer, report: &mut Report) {
    let world =
        World::generate(WorldConfig { seed: 11, country_fraction: 0.3, ..WorldConfig::default() });
    let cfg = StudyConfig {
        seed: 12,
        days: 1,
        sessions_per_group_window: 40,
        parallelism: 1,
        ..StudyConfig::default()
    };
    let mut records: Vec<SessionRecord> = Vec::new();
    let t = Instant::now();
    let stats = tracer.span("world.runner", |_| {
        run_study_observed(&world, &cfg, &mut records, &Metrics::disabled())
    });
    let ns = t.elapsed().as_nanos() as f64;
    let total = stats.total();
    put(report, "world.runner.ns_per_session", ns / total.sessions_simulated.max(1) as f64);
    put(
        report,
        "world.runner.emit_ratio",
        total.records_emitted as f64 / total.sessions_simulated.max(1) as f64,
    );
}

fn ingest_layer(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let cfg = LoadgenConfig { sessions: 20_000, groups: 2_000, seed, ..LoadgenConfig::default() };
    let lines = generate_lines(&cfg);
    let parser = WireParser::new(HD_GOODPUT_BPS);
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        tracer.span("ingest.parse_line", |_| {
            for l in &lines {
                black_box(parser.parse_line(l).expect("parses"));
            }
        });
        runs.push(t.elapsed().as_nanos() as f64 / lines.len() as f64);
    }
    put(report, "ingest.ns_per_line", median(&runs));
}

fn stats_layer(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let mut rng = SplitMix::new(seed);
    let samples: Vec<Vec<f64>> = (0..2_000)
        .map(|_| (0..80).map(|_| 20.0 + (rng.below(1_000_000) as f64) / 1e4).collect())
        .collect();
    let t = Instant::now();
    tracer.span("stats.median_ci", |_| {
        for s in &samples {
            black_box(median_ci(s, 0.95));
        }
    });
    put(
        report,
        "stats.median_ci.ns_per_call",
        t.elapsed().as_nanos() as f64 / samples.len() as f64,
    );

    let values: Vec<f64> = samples.iter().flatten().copied().collect();
    let t = Instant::now();
    tracer.span("stats.tdigest", |_| {
        let mut d = TDigest::new(100.0);
        for &v in &values {
            d.insert(v);
        }
        d.flush();
        black_box(d.quantile(0.5));
    });
    put(report, "stats.tdigest.ns_per_add", t.elapsed().as_nanos() as f64 / values.len() as f64);
}

fn analysis_layer(
    mut records: Vec<SessionRecord>,
    stats: &StudyStats,
    n_windows: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    // The study workload's traced passes already carry these spans.
    if tracer.durations_ms("analysis.columnar").is_empty() {
        for _ in 0..2 {
            let pass =
                tracer.span("analysis", |tr| analysis_pass(&mut records, stats, n_windows, tr));
            put(report, "analysis.dataset.cells", pass.dataset.cell_count() as f64);
        }
    } else {
        let ds = edgeperf_analysis::Dataset::from_records(&records, n_windows);
        put(report, "analysis.dataset.cells", ds.cell_count() as f64);
    }
    let n = records.len().max(1) as f64;
    let per_record = |name: &str| median(&tracer.durations_ms(name)) * 1e6 / n;
    put(report, "analysis.columnar.ns_per_record", per_record("analysis.columnar"));
    put(report, "analysis.streaming.ns_per_record", per_record("analysis.streaming"));
    put(report, "analysis.figures_ms", median(&tracer.durations_ms("analysis.figures")));
    put(report, "analysis.table1_ms", median(&tracer.durations_ms("analysis.table1")));
    put(report, "analysis.table2_ms", median(&tracer.durations_ms("analysis.table2")));
}

fn frame_layer(live: &[LiveRecord], tracer: &mut Tracer, report: &mut Report) {
    let t = Instant::now();
    let decoded = tracer.span("live.frame", |_| {
        let mut bytes = Vec::with_capacity(live.len() * (FRAME_BODY_LEN + 1));
        for r in live {
            bytes.extend_from_slice(&encode_frame(r));
        }
        let mut dec = FrameDecoder::new(FRAME_BODY_LEN, 1 << 16);
        let (mut pos, mut decoded) = (0, 0usize);
        while pos < bytes.len() {
            let w = dec.writable();
            let len = w.len();
            let n = len.min(bytes.len() - pos);
            w[..n].copy_from_slice(&bytes[pos..pos + n]);
            dec.advance(n, len);
            pos += n;
            while let Some(r) = dec.next_record().expect("frame decodes") {
                black_box(r);
                decoded += 1;
            }
        }
        decoded
    });
    assert_eq!(decoded, live.len(), "frame round trip lost records");
    put(report, "live.frame.ns_per_record", t.elapsed().as_nanos() as f64 / live.len() as f64);
}

/// Route records to `workers` consumers the way a server reader does:
/// `shard_of`, batches of [`RECORD_BATCH`], one SPSC lane per worker.
fn queue_layer(live: &[LiveRecord], tracer: &mut Tracer, report: &mut Report) {
    let workers = crate::common::cores().max(1);
    let slots = edgeperf_live::LiveConfig::default().queue_capacity.div_ceil(RECORD_BATCH);
    let t = Instant::now();
    let consumed = tracer.span("live.queue", |_| {
        let (mut txs, rxs): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| spsc::<Vec<LiveRecord>>(slots)).unzip();
        std::thread::scope(|scope| {
            let handles: Vec<_> = rxs
                .into_iter()
                .map(|mut rx| {
                    scope.spawn(move || {
                        let mut n = 0usize;
                        loop {
                            let mut took = 0;
                            while took < BATCHES_PER_LANE_ROUND {
                                let closed = rx.is_closed();
                                match rx.try_pop() {
                                    Some(b) => {
                                        n += black_box(b).len();
                                        took += 1;
                                    }
                                    None if closed => return n,
                                    None => break,
                                }
                            }
                            if took == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let mut batches: Vec<Vec<LiveRecord>> =
                (0..workers).map(|_| Vec::with_capacity(RECORD_BATCH)).collect();
            let push =
                |w: usize,
                 batch: Vec<LiveRecord>,
                 txs: &mut Vec<edgeperf_live::Producer<Vec<LiveRecord>>>| {
                    let mut batch = batch;
                    loop {
                        match txs[w].try_push(batch) {
                            Ok(()) => break,
                            Err(b) => {
                                batch = b;
                                std::thread::yield_now();
                            }
                        }
                    }
                };
            for r in live {
                let w = shard_of(&r.group, workers);
                batches[w].push(*r);
                if batches[w].len() == RECORD_BATCH {
                    let full = std::mem::replace(&mut batches[w], Vec::with_capacity(RECORD_BATCH));
                    push(w, full, &mut txs);
                }
            }
            for (w, b) in batches.into_iter().enumerate() {
                if !b.is_empty() {
                    push(w, b, &mut txs);
                }
            }
            drop(txs);
            handles.into_iter().map(|h| h.join().expect("consumer")).sum::<usize>()
        })
    });
    assert_eq!(consumed, live.len(), "queue lost records");
    put(report, "live.queue.ns_per_record", t.elapsed().as_nanos() as f64 / live.len() as f64);
}

/// One serial window ring over the records: ns per push, and the time
/// of each push that closed windows, per closed window.
fn window_layer(
    live: &[LiveRecord],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<ClosedWindow> {
    let mut ring = WindowRing::new(WINDOW_MS, LATENESS_MS);
    let mut closed = Vec::new();
    let mut close_ms = Vec::new();
    let t = Instant::now();
    tracer.span("live.window", |_| {
        for r in live {
            let p = Instant::now();
            let out = ring.push(r).expect("record in order");
            if !out.is_empty() {
                let ms = p.elapsed().as_secs_f64() * 1e3 / out.len() as f64;
                close_ms.extend(std::iter::repeat_n(ms, out.len()));
                closed.extend(out);
            }
        }
    });
    put(report, "live.window.ns_per_record", t.elapsed().as_nanos() as f64 / live.len() as f64);
    put(report, "live.window.close_ms", median(&close_ms));
    let open = closed.iter().map(|c| c.cells.len()).max().unwrap_or(0);
    put(report, "live.window.open_cells", open as f64);
    closed
}

fn detect_layer(closed: &[ClosedWindow], tracer: &mut Tracer, report: &mut Report) {
    let mut det = OnlineDetector::new(AnalysisConfig::default(), 5.0, 0.05, 192);
    let mut ms = Vec::new();
    tracer.span("live.detect", |_| {
        for cw in closed {
            let t = Instant::now();
            black_box(det.observe(cw));
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    });
    put(report, "live.detect.observe_ms", median(&ms));
    let events =
        det.event_count(DegradationMetric::MinRtt) + det.event_count(DegradationMetric::HdRatio);
    put(report, "live.detect.events", events as f64);
}

/// Files in `dir` that are new or rewritten since `seen`, summed.
fn written_bytes(dir: &Path, seen: &mut HashMap<String, (u64, SystemTime)>) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read store dir").flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        let name = entry.file_name().to_string_lossy().to_string();
        let stamp = (meta.len(), meta.modified().unwrap_or(SystemTime::UNIX_EPOCH));
        if seen.get(&name) != Some(&stamp) {
            total += meta.len();
            seen.insert(name, stamp);
        }
    }
    total
}

fn store_layer(
    seed: u64,
    live: &[LiveRecord],
    closed: &[ClosedWindow],
    dir: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let _ = std::fs::remove_dir_all(dir);
    // The server's compaction trigger, lowered when there are few
    // windows so every workload's pass compacts at least once.
    let compact_min = closed.len().clamp(2, 8);
    let store = SegmentStore::open(dir, compact_min, compact_min.min(4), 3).expect("open store");
    let mut seen = HashMap::new();
    let mut written = 0u64;
    let mut spill_ms = Vec::new();
    tracer.span("live.store.spill", |_| {
        for cw in closed {
            let t = Instant::now();
            store.spill_window(cw.index, &cw.cells).expect("spill");
            spill_ms.push(t.elapsed().as_secs_f64() * 1e3);
            written += written_bytes(dir, &mut seen);
        }
    });
    let mut compact_ms = Vec::new();
    tracer.span("live.store.compact", |_| loop {
        let t = Instant::now();
        let merged = store.compact_once().expect("compact");
        if !merged {
            break;
        }
        compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        written += written_bytes(dir, &mut seen);
    });
    let stats = store.stats();
    put(report, "live.store.spill_ms", median(&spill_ms));
    put(report, "live.store.compact_ms", median(&compact_ms));
    put(report, "live.store.compactions", stats.compactions as f64);
    put(report, "live.store.write_amplification", written as f64 / stats.bytes.max(1) as f64);

    let until = closed.last().map_or(0, |c| c.index);
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    tracer.span("live.store.query", |_| {
        for mq in query_mix(seed, live, until, 5) {
            let t = Instant::now();
            black_box(store.query(&mq.query).expect("store query"));
            by_kind.entry(mq.kind).or_default().push(t.elapsed().as_secs_f64() * 1e3);
        }
    });
    for (kind, v) in by_kind {
        put(report, &format!("live.store.query_ms.{kind}"), median(&v));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

fn protocol_layer(cells: &[CellLine], tracer: &mut Tracer, report: &mut Report) {
    let cells = &cells[..cells.len().min(100_000)];
    let t = Instant::now();
    let parsed = tracer.span("live.protocol", |_| {
        let text = Response::Cells(cells.to_vec()).render();
        let mut lines = text.lines();
        let count = parse_cells_header(lines.next().expect("header")).expect("cells header");
        let rows: Vec<CellLine> =
            lines.map(|l| serde_json::from_str(l).expect("cell row parses")).collect();
        assert_eq!(rows.len(), count, "row count");
        rows
    });
    assert_eq!(parsed.len(), cells.len(), "protocol round trip lost cells");
    put(
        report,
        "live.protocol.ns_per_cell",
        t.elapsed().as_nanos() as f64 / cells.len().max(1) as f64,
    );
}

fn key_of(r: &LiveRecord) -> ClientKey {
    ClientKey {
        prefix_base: r.group.prefix.base,
        prefix_len: r.group.prefix.len,
        country: r.group.country,
        continent: r.group.continent,
    }
}

fn fleet_layer(live: &[LiveRecord], cells: &[CellLine], tracer: &mut Tracer, report: &mut Report) {
    // Catchment: home every distinct client key, repeatedly.
    let model = CatchmentModel::new(2, 7);
    let mut keys: Vec<ClientKey> = live.iter().map(key_of).collect();
    keys.sort_unstable();
    keys.dedup();
    let rounds = (200_000 / keys.len().max(1)).max(1);
    let t = Instant::now();
    tracer.span("fleet.catchment", |_| {
        for _ in 0..rounds {
            for k in &keys {
                black_box(model.home(k));
            }
        }
    });
    put(
        report,
        "fleet.catchment.ns_per_home",
        t.elapsed().as_nanos() as f64 / (rounds * keys.len()) as f64,
    );

    // Merge: the cells split by home PoP, merged back.
    let homes: HashMap<ClientKey, u16> =
        keys.iter().map(|k| (*k, model.home(k).expect("alive"))).collect();
    let mut per_pop: BTreeMap<u16, Vec<CellLine>> = BTreeMap::new();
    for c in cells {
        let key = ClientKey {
            prefix_base: c.prefix_base,
            prefix_len: c.prefix_len,
            country: c.country,
            continent: c.continent,
        };
        per_pop.entry(homes[&key]).or_default().push(c.clone());
    }
    for v in per_pop.values_mut() {
        v.sort_by_key(cell_line_sort_key);
    }
    let mut merge_ms = Vec::new();
    let mut merged = 0;
    for _ in 0..3 {
        let input: Vec<(u16, Vec<CellLine>)> =
            per_pop.iter().map(|(p, v)| (*p, v.clone())).collect();
        let t = Instant::now();
        merged = tracer.span("fleet.merge", |_| merge_cells(input).expect("disjoint merge").len());
        merge_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    put(report, "fleet.merge.ms", median(&merge_ms));
    put(report, "fleet.merge.cells", merged as f64);

    // Fan-out: an in-process two-PoP fleet; time each PoP's `digest`.
    let cfg = FleetConfig { pops: 2, workers: 1, ..FleetConfig::default() };
    let metrics = Metrics::enabled();
    let handle = Fleet::start(&cfg, Arc::new(WireParser::new(HD_GOODPUT_BPS)), &metrics)
        .expect("fleet starts");
    let addrs: Vec<String> = handle.pop_addrs().iter().map(|a| a.to_string()).collect();
    let mut senders: Vec<BinarySender> =
        addrs.iter().map(|a| BinarySender::connect(a).expect("connect")).collect();
    let records = &live[..live.len().min(100_000)];
    let mut per_pop = vec![0usize; addrs.len()];
    for r in records {
        let pop = usize::from(homes[&key_of(r)]);
        senders[pop].send(r).expect("send");
        per_pop[pop] += 1;
    }
    let busiest = (0..addrs.len()).max_by_key(|&p| per_pop[p]).expect("a PoP");
    for s in senders {
        s.finish().expect("finish");
    }
    let mut coordinator = FleetClient::connect(handle.addr()).expect("coordinator");
    let total = records.len() as u64;
    let ok = crate::common::wait_until(Duration::from_secs(60), Duration::from_millis(2), || {
        coordinator.snapshot().expect("snapshot").accepted >= total
    });
    assert!(ok, "layer fleet did not accept its records");
    let mut fanout = Vec::new();
    tracer.span("fleet.fanout", |_| {
        for a in &addrs {
            let mut c = LiveClient::connect(a).expect("PoP connect");
            for _ in 0..5 {
                let t = Instant::now();
                black_box(c.digest_query(&CellQuery::default()).expect("digest"));
                fanout.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        for _ in 0..5 {
            black_box(coordinator.cells(&CellQuery::default()).expect("fleet cells"));
        }
    });
    put(report, "fleet.fanout.ms", median(&fanout));
    let fleet_metrics = coordinator.metrics_json().expect("fleet metrics");
    put(report, "fleet.server.merge_ms", histogram_p50(&fleet_metrics, "fleet.merge.us") / 1e3);
    if report.server_metrics.is_empty() {
        let mut pop = LiveClient::connect(&addrs[busiest]).expect("PoP connect");
        report.server_metrics.push(pop.metrics_json().expect("PoP metrics"));
    }
    coordinator.shutdown().expect("fleet shutdown");
    handle.join();
}

/// p50 of a histogram in a metrics JSON snapshot (0 when absent).
pub fn histogram_p50(metrics_json: &str, name: &str) -> f64 {
    let Ok(v) = serde_json::parse(metrics_json) else { return 0.0 };
    match v.get("histograms").and_then(|h| h.get(name)).and_then(|h| h.get("p50")) {
        Some(serde_json::Value::Num(n)) => *n,
        _ => 0.0,
    }
}

/// Queue depth and window close from the server's own histograms: the
/// workload's server when it ran one, else a PoP of the layer fleet.
fn server_metrics(report: &mut Report) {
    let (depth, close): (Vec<f64>, Vec<f64>) = report
        .server_metrics
        .iter()
        .map(|m| {
            (histogram_p50(m, "live.queue_depth"), histogram_p50(m, "live.window_close_ns") / 1e6)
        })
        .unzip();
    put(report, "live.server.queue_depth_p50", median(&depth));
    put(report, "live.server.window_close_ms", median(&close));
}
