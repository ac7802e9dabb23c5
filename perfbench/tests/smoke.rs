//! Tiny-size smoke test of the benchmark binary: every metric that
//! `BENCHMARK.json` declares prints by name with its unit on every
//! workload, and the determinism guard fails a run whose solver carries a
//! wall-clock limit.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["serve-hot", "serve-churn", "milp-cold", "large-decomp"];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--tiny", "--seed", "3"])
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let end = s[at..].find('"')? + at;
        Some((s[at..end].to_string(), end))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, end)) = field(rest, "name") {
        rest = &rest[end..];
        let (unit, end) = field(rest, "unit").expect("every metric has a unit");
        rest = &rest[end..];
        out.push((name, unit));
    }
    out
}

#[test]
fn every_declared_metric_prints_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} lists metrics");
        for workload in WORKLOADS {
            let out = run(&["--workload", workload, "--seconds", "0.3", "--trace", trace]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (name, unit) in &metrics {
                let field = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&field)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
                let rest = &last[at + field.len()..];
                let value: f64 = rest[..rest.find(',').expect("value ends")]
                    .parse()
                    .unwrap_or_else(|e| panic!("{workload}: {name} is not a number: {e}"));
                assert!(value.is_finite());
                assert!(
                    rest.contains(&format!("\"unit\": \"{unit}\"}}")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
        }
    }
}

#[test]
fn determinism_guard_trips_on_an_injected_time_limit() {
    let clean = run(&["--workload", "milp-cold", "--seconds", "1", "--trace", "0"]);
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let limited = run(&[
        "--workload",
        "milp-cold",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--inject-time-limit-us",
        "3000",
    ]);
    let stderr = String::from_utf8_lossy(&limited.stderr);
    assert!(
        !limited.status.success(),
        "a binding time limit must fail the run"
    );
    assert!(stderr.contains("determinism guard"), "{stderr}");
    let stdout = String::from_utf8_lossy(&limited.stdout);
    assert!(stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": false")));
}
