//! edgeperf's benchmark: four workloads, each checked against an
//! independent reference, plus a traced run for per-layer numbers.
//!
//! ```text
//! edgebench --workload study|ingest_wide|history|fleet --seed N
//!           --seconds S --trace 0|1 [--quick]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`). The line before it lists the run's
//! conditions. See README.md for the workloads and metrics.

mod common;
mod fleet;
mod layers;
mod live;
mod rng;
mod study;

use common::{child_announce, child_report_rss, cores, run_dir, Opts, Report, Tracer};
use edgeperf::serve::WireParser;
use edgeperf_core::HD_GOODPUT_BPS;
use edgeperf_live::ServeBuilder;
use edgeperf_obs::Metrics;
use std::sync::Arc;

/// End-to-end metrics every workload reports: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

const WORKLOADS: &[&str] = &["study", "ingest_wide", "history", "fleet"];

fn usage(msg: &str) -> ! {
    eprintln!("edgebench: {msg}");
    eprintln!(
        "usage: edgebench --workload {} --seed N --seconds S --trace 0|1 [--quick]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

/// `--name value` or `--name=value` arguments.
fn flags(args: &[String]) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else { usage(&format!("unexpected argument {a}")) };
        if let Some((n, v)) = name.split_once('=') {
            out.push((n.to_string(), Some(v.to_string())));
        } else if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            out.push((name.to_string(), Some(args[i + 1].clone())));
            i += 1;
        } else {
            out.push((name.to_string(), None));
        }
        i += 1;
    }
    out
}

fn value<T: std::str::FromStr>(flags: &[(String, Option<String>)], name: &str) -> Option<T> {
    flags.iter().find(|(n, _)| n == name).map(|(_, v)| {
        v.as_deref()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("bad or missing value for --{name}")))
    })
}

fn has(flags: &[(String, Option<String>)], name: &str) -> bool {
    flags.iter().any(|(n, _)| n == name)
}

/// `serve-child`: one live server, announced on stdout.
fn serve_child(f: &[(String, Option<String>)]) {
    let mut b = ServeBuilder::new()
        .addr("127.0.0.1:0")
        .workers(value(f, "workers").unwrap_or(2))
        .window_ms(live::WINDOW_MS)
        .lateness_ms(live::LATENESS_MS)
        .retention_windows(value(f, "retention").unwrap_or(192));
    if let Some(dir) = value::<String>(f, "spill-dir") {
        b = b.spill_dir(dir);
    }
    let metrics = if has(f, "metrics") { Metrics::enabled() } else { Metrics::disabled() };
    let handle = b
        .metrics(&metrics)
        .start(Arc::new(WireParser::new(HD_GOODPUT_BPS)))
        .expect("server starts");
    child_announce(&[handle.addr().to_string()]);
    handle.join();
    child_report_rss();
}

/// `fleet-child`: a coordinator and its PoPs, announced on stdout
/// (coordinator first).
fn fleet_child(f: &[(String, Option<String>)]) {
    let cfg = edgeperf_fleet::FleetConfig {
        pops: fleet::POPS,
        workers: fleet::WORKERS_PER_POP,
        window_ms: live::WINDOW_MS,
        lateness_ms: live::LATENESS_MS,
        ..edgeperf_fleet::FleetConfig::default()
    };
    let metrics = if has(f, "metrics") { Metrics::enabled() } else { Metrics::disabled() };
    let handle =
        edgeperf_fleet::Fleet::start(&cfg, Arc::new(WireParser::new(HD_GOODPUT_BPS)), &metrics)
            .expect("fleet starts");
    let mut addrs = vec![handle.addr().to_string()];
    addrs.extend(handle.pop_addrs().iter().map(|a| a.to_string()));
    child_announce(&addrs);
    // Serves until the parent says `stop` (see `child_announce`).
    let _fleet = handle;
    loop {
        std::thread::park();
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve-child") => return serve_child(&flags(&args[1..])),
        Some("fleet-child") => return fleet_child(&flags(&args[1..])),
        _ => {}
    }
    let f = flags(&args);
    let quick = has(&f, "quick");
    let workload: String = value(&f, "workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let trace = match value::<u8>(&f, "trace").unwrap_or(0) {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let opts = Opts {
        workload,
        seed: value(&f, "seed").unwrap_or(1),
        seconds: value(&f, "seconds").unwrap_or(if quick { 1.0 } else { 10.0 }),
        trace,
        quick,
    };

    let mut tracer = Tracer::new(opts.trace);
    let mut report = Report::new();
    let dir = run_dir(&opts);
    let inputs = match opts.workload.as_str() {
        "study" => {
            let (world, records, stats, n) = study::study(&opts, &mut tracer, &mut report);
            layers::LayerInputs { study: Some((world, records, stats, n)), live: Vec::new() }
        }
        "ingest_wide" => {
            let live = live::ingest_wide(&opts, &mut tracer, &mut report);
            layers::LayerInputs { study: None, live }
        }
        "history" => {
            let live = live::history(&opts, &mut tracer, &mut report);
            layers::LayerInputs { study: None, live }
        }
        _ => {
            let live = fleet::fleet(&opts, &mut tracer, &mut report);
            layers::LayerInputs { study: None, live }
        }
    };

    let names: Vec<(&str, &str)> = if opts.trace {
        let traced = |r: &Report, n: &str| r.metrics.get(n).map_or(0.0, |m| m.0);
        let (tp, lat) = (traced(&report, "throughput_per_s"), traced(&report, "latency_p50_ms"));
        report.metric("trace.throughput_per_s", tp, "1/s");
        report.metric("trace.latency_p50_ms", lat, "ms");
        layers::run(&opts, inputs, &dir, &mut tracer, &mut report);
        let spans = std::path::PathBuf::from(".bench_run")
            .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        tracer.write(&spans).expect("write spans");
        report.condition("spans", tracer.spans().len());
        report.condition("spans_file", spans.display());
        layers::PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        drop(inputs);
        END_TO_END.to_vec()
    };
    let _ = std::fs::remove_dir_all(&dir);

    report.condition("workload", &opts.workload);
    report.condition("seed", opts.seed);
    report.condition("seconds", opts.seconds);
    report.condition("nproc", cores());
    report.condition("trace", u8::from(opts.trace));
    report.condition("quick", quick);

    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = report.metrics.get(name).map(|m| m.0);
        let value = match value {
            Some(v) if v.is_finite() => v,
            other => {
                report.check(false, || format!("metric {name} not measured ({other:?})"));
                0.0
            }
        };
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for failure in &report.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    let conditions: Vec<String> =
        report.conditions.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    println!("conditions {{{}}}", conditions.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if !report.correct {
        std::process::exit(1);
    }
}
