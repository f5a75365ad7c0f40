//! The `fleet` workload: JSONL sessions routed by the anycast catchment
//! to two PoPs, then a fixed mix of `fleet cells` / `fleet snapshot`
//! queries through the coordinator.

use crate::common::{
    compare_cells, median, quantile, reference_cells, set_up, wait_until, Opts, Report,
    ServerChild, Tracer, SETUPS, SETUPS_BEFORE,
};
use crate::live::{reference_rows, LATENESS_MS, WINDOW_MS};
use crate::rng::SplitMix;
use edgeperf::serve::WireParser;
use edgeperf_bench::loadgen::{generate_lines, LoadgenConfig};
use edgeperf_core::HD_GOODPUT_BPS;
use edgeperf_fleet::{ClientKey, FleetClient};
use edgeperf_live::{CellLine, CellQuery, LiveClient, LiveRecord};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// PoPs in the fleet, at every size.
pub const POPS: u16 = 2;
/// Ingest workers per PoP, at every size.
pub const WORKERS_PER_POP: usize = 1;

/// Shape of the `fleet` workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Distinct user groups.
    pub groups: usize,
    /// Sessions per replay.
    pub sessions: usize,
    /// Windows of event time the sessions span.
    pub windows: u32,
    /// Query rounds per replay.
    pub rounds: usize,
}

impl FleetShape {
    /// Full size, or the self-test size.
    pub fn new(quick: bool) -> FleetShape {
        if quick {
            FleetShape { groups: 200, sessions: 10_000, windows: 4, rounds: 5 }
        } else {
            FleetShape { groups: 2_000, sessions: 100_000, windows: 4, rounds: 20 }
        }
    }
}

/// Arguments of the `fleet-child` mode.
fn child_args(metrics: bool) -> Vec<String> {
    let mut a = vec!["fleet-child".to_string()];
    if metrics {
        a.push("--metrics".to_string());
    }
    a
}

/// Generated JSONL lines and their locally estimated records.
pub struct FleetInputs {
    /// Wire lines, in event-time order.
    pub lines: Vec<String>,
    /// The same sessions through the local estimator (reference input).
    pub records: Vec<LiveRecord>,
}

/// Render the sessions and estimate them locally.
pub fn fleet_inputs(seed: u64, shape: &FleetShape) -> FleetInputs {
    let cfg = LoadgenConfig {
        sessions: shape.sessions,
        groups: shape.groups,
        windows: shape.windows,
        window_ms: WINDOW_MS,
        lateness_ms: LATENESS_MS,
        seed,
        ..LoadgenConfig::default()
    };
    let lines = generate_lines(&cfg);
    let parser = WireParser::new(HD_GOODPUT_BPS);
    let records = lines.iter().map(|l| parser.parse_line(l).expect("line parses")).collect();
    FleetInputs { lines, records }
}

/// Ask the coordinator for every group's home; returns each line's PoP
/// index and the PoP ingest addresses.
pub fn home_all(coordinator: &str, records: &[LiveRecord]) -> (Vec<usize>, Vec<String>) {
    let mut client = FleetClient::connect(coordinator).expect("coordinator connect");
    let mut homes: BTreeMap<ClientKey, usize> = BTreeMap::new();
    let mut addrs: Vec<String> = Vec::new();
    let dest = records
        .iter()
        .map(|r| {
            let key = ClientKey {
                prefix_base: r.group.prefix.base,
                prefix_len: r.group.prefix.len,
                country: r.group.country,
                continent: r.group.continent,
            };
            *homes.entry(key).or_insert_with(|| {
                let (_, addr) = client.home(&key).expect("home");
                match addrs.iter().position(|a| *a == addr) {
                    Some(i) => i,
                    None => {
                        addrs.push(addr);
                        addrs.len() - 1
                    }
                }
            })
        })
        .collect();
    (dest, addrs)
}

/// One query of the fleet mix: `None` is a `fleet snapshot`.
#[derive(Debug, Clone, Copy)]
struct FleetQuery {
    kind: &'static str,
    cells: Option<CellQuery>,
}

/// Kinds of a 20-query round, cheapest first. Most are `country`
/// queries, whose 200-row replies all stall on the client's delayed ACK
/// (see README.md), so the median sits inside that block and moves with
/// the coordinator's reply path; the p99 sits among the `continent`
/// and `pop` replies that stall too.
const ROUND: [(&str, usize); 5] =
    [("snapshot", 2), ("prefix", 2), ("pop", 2), ("continent", 2), ("country", 12)];

fn query_mix(seed: u64, records: &[LiveRecord], until: u32, rounds: usize) -> Vec<FleetQuery> {
    let mut rng = SplitMix::new(seed ^ 0xF1EE7);
    let mut out = Vec::new();
    for _ in 0..rounds {
        for (kind, count) in ROUND {
            for _ in 0..count {
                let g = records[rng.below(records.len() as u64) as usize].group;
                let w = rng.below(u64::from(until) + 1) as u32;
                let mut q = CellQuery { until_window: Some(until), ..CellQuery::default() };
                match kind {
                    "snapshot" => {
                        out.push(FleetQuery { kind, cells: None });
                        continue;
                    }
                    "prefix" => q.group.prefix = Some((g.prefix.base, g.prefix.len)),
                    "country" => q.group.country = Some(g.country),
                    "continent" => {
                        (q.from_window, q.until_window) = (Some(w), Some(w));
                        q.group.continent = Some(g.continent);
                    }
                    _ => {
                        (q.from_window, q.until_window) = (Some(w), Some(w));
                        q.group.pop = Some(g.pop.0);
                    }
                }
                out.push(FleetQuery { kind, cells: Some(q) });
            }
        }
    }
    out
}

/// Send every line to its home PoP over one JSONL connection per PoP
/// (one thread), then wait until the fleet has accepted all of them.
fn replay(
    coordinator: &mut FleetClient,
    lines: &[String],
    dest: &[usize],
    addrs: &[String],
) -> f64 {
    let start = Instant::now();
    let mut conns: Vec<LiveClient> =
        addrs.iter().map(|a| LiveClient::connect(a).expect("PoP connect")).collect();
    for (line, &d) in lines.iter().zip(dest) {
        conns[d].send_line(line).expect("send line");
    }
    for c in &mut conns {
        c.flush().expect("flush");
    }
    let total = lines.len() as u64;
    let done = wait_until(Duration::from_secs(120), Duration::from_millis(1), || {
        let s = coordinator.snapshot().expect("fleet snapshot");
        s.accepted + s.rejected >= total
    });
    assert!(done, "fleet did not account for {total} sessions within 120 s");
    start.elapsed().as_secs_f64()
}

/// Run `fleet`.
pub fn fleet(opts: &Opts, tracer: &mut Tracer, report: &mut Report) -> Vec<LiveRecord> {
    let shape = FleetShape::new(opts.quick);
    let mut make = |tracer: &mut Tracer| {
        let inputs = tracer.span("setup.inputs", |_| fleet_inputs(opts.seed, &shape));
        let child = tracer.span("setup.server", |_| ServerChild::spawn(&child_args(opts.trace)));
        let (dest, addrs) =
            tracer.span("setup.home", |_| home_all(&child.addrs[0], &inputs.records));
        (inputs, child, dest, addrs)
    };
    let mut setups = Vec::new();
    let (inputs, child, dest, addrs) =
        set_up(SETUPS_BEFORE, &mut setups, tracer, &mut make).expect("set up");
    let mut ready = Some((child, dest, addrs));

    let max_ts = inputs.records.iter().map(|r| r.ts_ms).fold(0.0, f64::max);
    let until = (((max_ts - LATENESS_MS) / WINDOW_MS).floor() as u32).saturating_sub(2);
    let reference = reference_cells(&inputs.records, WINDOW_MS, |w| w <= until);
    let sent = inputs.lines.len() as u64;

    // A fresh fleet, homed and replayed; checks the fleet accepted all.
    let mut start = |report: &mut Report, tracer: &mut Tracer| {
        let (server, dest, addrs) = ready.take().unwrap_or_else(|| {
            let server = ServerChild::spawn(&child_args(opts.trace));
            let (dest, addrs) = home_all(&server.addrs[0], &inputs.records);
            (server, dest, addrs)
        });
        report.check(addrs.len() == usize::from(POPS), || {
            format!("catchment used {} of {} PoPs", addrs.len(), POPS)
        });
        let mut coordinator = FleetClient::connect(&server.addrs[0]).expect("coordinator");
        let secs =
            tracer.span("replay", |_| replay(&mut coordinator, &inputs.lines, &dest, &addrs));
        report.attempted += sent;
        let snap = coordinator.snapshot().expect("fleet snapshot");
        report.check(snap.accepted == sent && snap.rejected == 0 && snap.late == 0, || {
            format!(
                "fleet: sent {sent}, accepted {}, rejected {}, late {}",
                snap.accepted, snap.rejected, snap.late
            )
        });
        report.failed += sent.saturating_sub(snap.accepted);
        (server, coordinator, sent as f64 / secs)
    };
    // No `fleet shutdown`: its reply can be lost when the hosting process
    // exits first (see CHANGES.md), so children are stopped directly.
    let stop = |server: ServerChild, report: &mut Report| {
        if opts.trace {
            let mut pop = LiveClient::connect(&server.addrs[1]).expect("PoP connect");
            report.server_metrics.push(pop.metrics_json().expect("PoP metrics"));
        }
        server.stop()
    };

    // Replays: 60% of the measured time, a fresh fleet each.
    let started = Instant::now();
    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    while rates.len() < 3 || started.elapsed().as_secs_f64() < opts.seconds * 0.6 {
        let (server, mut coordinator, rate) = start(report, tracer);
        rates.push(rate);
        if rates.len() == 1 {
            let all = coordinator
                .cells(&CellQuery { until_window: Some(until), ..CellQuery::default() })
                .expect("fleet cells");
            report.attempted += 1;
            if let Err(e) = compare_cells(&all, &reference) {
                report.failed += 1;
                report.check(false, || {
                    format!("fleet-merged cells differ from the offline fold: {e}")
                });
            }
        }
        rss.push(stop(server, report));
    }
    report.median_metric("throughput_per_s", &rates, "1/s");

    // Queries: one more replay, then the fixed mix back to back.
    let (server, mut coordinator, _) = start(report, tracer);
    let mut latencies = Vec::new();
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for fq in &query_mix(opts.seed, &inputs.records, until, shape.rounds) {
        let t = Instant::now();
        let rows = tracer.span("query", |_| match &fq.cells {
            Some(q) => Some(coordinator.cells(q).expect("fleet cells")),
            None => {
                let s = coordinator.snapshot().expect("fleet snapshot");
                assert_eq!(s.accepted, sent, "snapshot lost sessions");
                None
            }
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        by_kind.entry(fq.kind).or_default().push(ms);
        report.attempted += 1;
        if let (Some(rows), Some(q)) = (rows, &fq.cells) {
            let expect: Vec<CellLine> =
                reference_rows(&reference, q).into_iter().cloned().collect();
            if let Err(e) = compare_cells(&rows, &expect) {
                report.failed += 1;
                report.check(false, || format!("fleet {} query {q:?}: {e}", fq.kind));
            }
        }
    }
    rss.push(stop(server, report));
    set_up(SETUPS - SETUPS_BEFORE, &mut setups, tracer, &mut make);
    report.median_metric("setup_s", &setups, "s");

    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.median_metric("peak_rss_mb", &rss, "MB");
    report.condition("pops", POPS);
    report.condition("workers_per_pop", WORKERS_PER_POP);
    report.condition("groups", shape.groups);
    report.condition("sessions_per_replay", sent);
    report.condition("replays", rates.len());
    report.condition("wire", "jsonl");
    report.condition("connections", POPS);
    report.condition("queries", latencies.len());
    report.condition("query_p99_ms", format!("{:.4}", quantile(&latencies, 0.99)));
    for (kind, v) in &by_kind {
        report.condition(&format!("query_{kind}_p50_ms"), format!("{:.4}", median(v)));
        report.condition(&format!("query_{kind}_p90_ms"), format!("{:.4}", quantile(v, 0.9)));
    }
    inputs.records
}
