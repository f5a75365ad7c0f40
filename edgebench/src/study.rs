//! The offline `study` workload: the paper's pipeline from simulated
//! session records to Figures 6–10 and Tables 1–2.

use crate::common::{cores, median, peak_rss_mb, Opts, Report, Tracer, SETUPS};
use crate::live::world_records;
use edgeperf_analysis::degradation::{degradation_events, DegradationMetric, WindowStatus};
use edgeperf_analysis::{
    AnalysisConfig, ColumnarSink, Dataset, RecordShard, RecordSink, SessionRecord, StreamingDataset,
};
use edgeperf_bench::study as figures;
use edgeperf_world::dynamics::route_condition;
use edgeperf_world::{StudyStats, World};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Shape of the simulated study.
#[derive(Debug, Clone, Copy)]
pub struct StudyShape {
    /// Simulated days (96 windows each).
    pub days: u32,
    /// Sessions per (group, window) at weight 1.
    pub sessions: u32,
    /// Fraction of countries kept.
    pub country_fraction: f64,
}

impl StudyShape {
    /// Full size, or the self-test size.
    pub fn new(quick: bool) -> StudyShape {
        if quick {
            StudyShape { days: 1, sessions: 100, country_fraction: 1.0 }
        } else {
            StudyShape { days: 2, sessions: 100, country_fraction: 0.5 }
        }
    }
}

/// Streaming MinRTT quantiles may differ from the exact ones by at most
/// this many ms (p50) ...
pub const STREAMING_P50_TOL_MS: f64 = 0.5;
/// ... and this many ms (p80).
pub const STREAMING_P80_TOL_MS: f64 = 1.0;
/// MinRTT degradation threshold the detector is scored at (ms).
pub const DETECTOR_THRESHOLD_MS: f64 = 10.0;
/// Floor on the detector's precision against the world's ground truth.
pub const DETECTOR_MIN_PRECISION: f64 = 0.7;
/// Floor on the detector's recall among statistically valid windows.
pub const DETECTOR_MIN_RECALL: f64 = 0.4;

/// The products of one analysis pass.
pub struct Pass {
    /// Exact dataset.
    pub dataset: Dataset,
    /// Streaming Figure 6 (MinRTT p50, p80).
    pub streaming_p50_p80: (f64, f64),
}

/// One analysis pass: fold the records into the exact columnar dataset
/// and the streaming t-digest dataset, then compute every figure and
/// table. `records` is lent to the figure code and handed back.
pub fn analysis_pass(
    records: &mut Vec<SessionRecord>,
    stats: &StudyStats,
    n_windows: usize,
    tracer: &mut Tracer,
) -> Pass {
    let dataset = tracer.span("analysis.columnar", |_| {
        let mut sink = ColumnarSink::new(n_windows);
        let mut shard = sink.new_shard();
        for r in records.iter() {
            shard.push(*r);
        }
        sink.merge_shard(shard);
        sink.finalize();
        sink.into_dataset()
    });
    let streaming = tracer.span("analysis.streaming", |_| {
        let mut ds = StreamingDataset::new(n_windows);
        for r in records.iter() {
            ds.push(*r);
        }
        ds.flush();
        ds
    });
    let data = figures::StudyData {
        records: std::mem::take(records),
        dataset,
        cfg: AnalysisConfig::default(),
        stats: stats.clone(),
    };
    tracer.span("analysis.figures", |_| {
        black_box(figures::fig6(&data));
        black_box(figures::fig7(&data));
        black_box(figures::fig8(&data));
        black_box(figures::fig9(&data));
        black_box(figures::fig10(&data));
    });
    tracer.span("analysis.table1", |_| black_box(figures::table1_blocks(&data)));
    tracer.span("analysis.table2", |_| black_box(figures::table2_outputs(&data)));
    let sdata = figures::StreamingStudyData {
        dataset: streaming,
        cfg: AnalysisConfig::default(),
        stats: stats.clone(),
    };
    let f6 = tracer.span("analysis.streaming_figures", |_| {
        black_box(figures::fig10_streaming(&sdata));
        figures::fig6_streaming(&sdata)
    });
    *records = data.records;
    Pass { dataset: data.dataset, streaming_p50_p80: (f6.minrtt_p50, f6.minrtt_p80) }
}

/// Run `study`. Returns the world and records for the traced layer pass.
pub fn study(
    opts: &Opts,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (World, Vec<SessionRecord>, StudyStats, usize) {
    let shape = StudyShape::new(opts.quick);
    // Set-ups alternate with the analysis passes, so both sample the
    // whole run: the shared host's speed drifts over tens of seconds.
    // Each set-up replaces the previous simulation, so the records are
    // never held twice.
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut pass_secs = 0.0;
    let mut sim = None;
    let mut last = None;
    for slot in 1..=SETUPS {
        drop(sim.take());
        drop(last.take());
        let t = Instant::now();
        let (world, study_cfg, mut records, stats) = tracer.span("setup.simulate", |_| {
            world_records(opts.seed, shape.days, shape.sessions, shape.country_fraction)
        });
        setups.push(t.elapsed().as_secs_f64());
        let n_windows = study_cfg.n_windows() as usize;
        // At least one pass per set-up, until the passes have used this
        // slot's share of the measured time.
        let budget = opts.seconds * slot as f64 / SETUPS as f64;
        loop {
            let t = Instant::now();
            let pass =
                tracer.span("analysis", |tr| analysis_pass(&mut records, &stats, n_windows, tr));
            let secs = t.elapsed().as_secs_f64();
            passes.push(secs);
            pass_secs += secs;
            last = Some(pass);
            if pass_secs >= budget {
                break;
            }
        }
        sim = Some((world, records, stats, n_windows));
    }
    report.median_metric("setup_s", &setups, "s");
    let (world, records, stats, n_windows) = sim.expect("simulated");
    let rss = peak_rss_mb("self");
    let pass = last.expect("at least one pass");
    let pass_ms: Vec<f64> = passes.iter().map(|s| s * 1e3).collect();
    report.metric("throughput_per_s", records.len() as f64 * 1e3 / median(&pass_ms), "1/s");
    report.median_metric("latency_p50_ms", &pass_ms, "ms");
    report.metric("peak_rss_mb", rss, "MB");
    report.attempted += passes.len() as u64;

    check_study(report, &world, &records, &stats, &pass);

    report.condition("days", shape.days);
    report.condition("windows", n_windows);
    report.condition("sessions_per_group_window", shape.sessions);
    report.condition("country_fraction", shape.country_fraction);
    report.condition("records", records.len());
    report.condition("groups", pass.dataset.groups.len());
    report.condition("cells", pass.dataset.cell_count());
    report.condition("analysis_passes", passes.len());
    report.condition("simulation_threads", cores());
    (world, records, stats, n_windows)
}

/// Every `study` check, each against a reference computed here.
fn check_study(
    report: &mut Report,
    world: &World,
    records: &[SessionRecord],
    stats: &StudyStats,
    pass: &Pass,
) {
    let t = stats.total();
    report.check(
        t.records_emitted == t.sessions_simulated - t.sessions_dropped_no_minrtt
            && records.len() as u64 == t.records_emitted,
        || {
            format!(
                "emitted {} / records {} but simulated {} minus dropped {}",
                t.records_emitted,
                records.len(),
                t.sessions_simulated,
                t.sessions_dropped_no_minrtt
            )
        },
    );

    let triples: HashSet<_> = records.iter().map(|r| (r.group, r.window, r.route_rank)).collect();
    report.check(triples.len() == pass.dataset.cell_count(), || {
        format!(
            "dataset has {} cells, records hold {} triples",
            pass.dataset.cell_count(),
            triples.len()
        )
    });

    let preferred: Vec<f64> =
        records.iter().filter(|r| r.route_rank == 0).map(|r| r.min_rtt_ms).collect();
    let (p50, p80) = (exact_quantile(&preferred, 0.5), exact_quantile(&preferred, 0.8));
    let (s50, s80) = pass.streaming_p50_p80;
    report.check(
        (s50 - p50).abs() <= STREAMING_P50_TOL_MS && (s80 - p80).abs() <= STREAMING_P80_TOL_MS,
        || format!("streaming MinRTT p50/p80 {s50}/{s80} vs exact {p50}/{p80}"),
    );
    report.condition("minrtt_p50_exact_ms", format!("{p50:.4}"));
    report.condition("minrtt_p50_streaming_ms", format!("{s50:.4}"));

    let (precision, recall, flagged) = score_detector(world, &pass.dataset);
    report.check(
        flagged > 0 && precision >= DETECTOR_MIN_PRECISION && recall >= DETECTOR_MIN_RECALL,
        || format!("detector precision {precision:.3}, recall {recall:.3}, {flagged} flagged"),
    );
    report.condition("detector_precision", format!("{precision:.4}"));
    report.condition("detector_recall", format!("{recall:.4}"));
    report.condition("detector_flagged", flagged);
}

/// Nearest-rank quantile over a sorted copy (the exact reference).
fn exact_quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// Score the §5 MinRTT detector against the world's ground-truth
/// standing queues on the preferred route, as `bench::detector` does:
/// precision over flagged windows, recall over statistically valid
/// ones, single-cluster prefixes only.
fn score_detector(world: &World, ds: &Dataset) -> (f64, f64, usize) {
    let cfg = AnalysisConfig::default();
    let (mut flagged, mut hits, mut truth_valid) = (0usize, 0usize, 0usize);
    for (key, g) in &ds.groups {
        let Some(site) = world.prefixes.iter().find(|p| p.prefix == key.prefix) else {
            continue;
        };
        if site.clusters.len() > 1 {
            continue;
        }
        let assessments =
            degradation_events(&cfg, g, DegradationMetric::MinRtt, DETECTOR_THRESHOLD_MS);
        for (w, a) in assessments.iter().enumerate() {
            let truth = route_condition(world.seed, site, 0, w as u32).standing_queue_ms
                >= DETECTOR_THRESHOLD_MS;
            let valid = matches!(a.status, WindowStatus::Quiet | WindowStatus::Event);
            if truth && valid {
                truth_valid += 1;
            }
            if a.status == WindowStatus::Event {
                flagged += 1;
                if truth {
                    hits += 1;
                }
            }
        }
    }
    (hits as f64 / flagged.max(1) as f64, hits as f64 / truth_valid.max(1) as f64, flagged)
}
