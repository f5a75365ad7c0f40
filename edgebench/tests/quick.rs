//! Every workload at its `--quick` size, every check on, both modes:
//! the run must pass its checks and print every metric it promises.

use std::process::Command;

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_edgebench"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--quick"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("result line").to_string()
}

fn check(workload: &str) {
    for trace in [0, 1] {
        let last = run(workload, trace);
        let v = serde_json::parse(&last).expect("result is JSON");
        assert!(matches!(v.get("correct"), Some(serde_json::Value::Bool(true))), "{last}");
        assert!(matches!(v.get("failed"), Some(serde_json::Value::Num(n)) if *n == 0.0), "{last}");
        let names: &[&str] = if trace == 0 {
            &["setup_s", "throughput_per_s", "latency_p50_ms", "peak_rss_mb"]
        } else {
            &[
                "live.window.ns_per_record",
                "fleet.merge.ms",
                "analysis.table1_ms",
                "trace.throughput_per_s",
            ]
        };
        let metrics = v.get("metrics").expect("metrics");
        for name in names {
            match metrics.get(name).and_then(|m| m.get("value")) {
                Some(serde_json::Value::Num(x)) => assert!(*x > 0.0, "{name} = {x} in {last}"),
                other => panic!("{name} missing ({other:?}) in {last}"),
            }
        }
    }
}

#[test]
fn study_quick() {
    check("study");
}

#[test]
fn ingest_wide_quick() {
    check("ingest_wide");
}

#[test]
fn history_quick() {
    check("history");
}

#[test]
fn fleet_quick() {
    check("fleet");
}
