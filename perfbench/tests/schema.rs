//! Schema tests: a tiny (`--smoke`) run of every workload, untraced and
//! traced, must print a well-formed result line whose metrics are
//! exactly the ones `BENCHMARK.json` declares, with valid names.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["fleet-8", "fleet-512", "overload-tiers", "fig17-sweep"];

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Every `"name": "<value>"` in `text`, in order.
fn names_in(text: &str) -> Vec<String> {
    text.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The declared names of one section of BENCHMARK.json, whose sections
/// appear in the order workloads, end_to_end, per_layer.
fn declared(section: &str) -> Vec<String> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = ["\"end_to_end\"", "\"per_layer\""]
        .iter()
        .filter_map(|k| rest[1..].find(k).map(|i| i + 1))
        .min()
        .unwrap_or(rest.len());
    names_in(&rest[..end])
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the benchmark and returns the metric names and values of its
/// result line, after checking the line's shape.
fn run(workload: &str, trace: u8) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    sgdrc_bench::json::validate(last).expect("the result line is JSON");
    let head = "{\"correct\": true, \"attempted\": ";
    assert!(last.starts_with(head), "{workload}: {last}");
    let attempted: u64 = last[head.len()..]
        .split(',')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("attempted is a whole number");
    assert!(attempted >= 1);
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let entry = entry.trim_start_matches('{');
            let name = entry[1..entry[1..].find('"').expect("name") + 1].to_string();
            let value = entry
                .split("\"value\": ")
                .nth(1)
                .and_then(|v| v.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{workload}: {name} has a numeric value"));
            (name, value)
        })
        .collect()
}

#[test]
fn declared_names_are_valid_and_within_limits() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    assert!(e2e.contains(&"setup_s".to_string()));
    let mut all: Vec<_> = e2e.iter().chain(&layers).collect();
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    all.sort();
    all.dedup();
    assert_eq!(all.len(), e2e.len() + layers.len(), "names are used once");
    assert_eq!(declared("workloads"), WORKLOADS);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let e2e = declared("end_to_end");
    for w in WORKLOADS {
        let got = run(w, 0);
        let names: Vec<_> = got.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names, e2e, "{w}");
        for (name, value) in &got {
            assert!(value.is_finite() && *value != 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let layers = declared("per_layer");
    for w in WORKLOADS {
        let got = run(w, 1);
        let names: Vec<_> = got.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names, layers, "{w}");
        assert!(got.iter().all(|(_, v)| v.is_finite()), "{w}: {got:?}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "fleet-8", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
