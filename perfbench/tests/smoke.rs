//! Smoke test: every workload at tiny sizes, with tracing off and on.
//! Each run must pass its checks and emit every metric `BENCHMARK.json`
//! names, with its unit; the exact counters must repeat across two
//! processes with the same seed.
//!
//!   cargo test --release --offline --manifest-path perfbench/Cargo.toml

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["build_optimal", "serve_read", "ingest_fresh"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside perfbench/");
    let field = |line: &str, key: &str| -> String {
        let start = line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        let len = line[start..].find('"').expect("closing quote");
        line[start..start + len].to_string()
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.contains(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section && line.contains("\"unit\"") {
            out.push((field(line, "name"), field(line, "unit")));
        }
    }
    assert!(!out.is_empty(), "no {section} metrics declared");
    out
}

/// Runs one smoke workload; returns its last output line.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value and unit of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let value = rest[..rest.find(',')?].parse().ok()?;
    let unit_at = rest.find("\"unit\": \"")? + 9;
    let unit = rest[unit_at..unit_at + rest[unit_at..].find('"')?].to_string();
    Some((value, unit))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        for workload in WORKLOADS {
            let line = run(workload, trace);
            assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
            for (name, unit) in &metrics {
                let (value, got) = metric(&line, name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                assert_eq!(&got, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
        }
    }
}

#[test]
fn counters_repeat_across_processes_with_the_same_seed() {
    let counts: Vec<String> = declared("per_layer")
        .into_iter()
        .filter(|(_, unit)| unit == "count")
        .map(|(name, _)| name)
        .collect();
    let (a, b) = (run("build_optimal", 1), run("build_optimal", 1));
    for name in &counts {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
}
