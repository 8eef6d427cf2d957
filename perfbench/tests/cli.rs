//! The benchmark binary end to end: its output honours `BENCHMARK.json`,
//! and a wrong reference fails the run.

use serde::Value;
use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench")
}

fn last_json_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    serde_json::from_str(line).expect("result is JSON")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    serde::field(v.as_object().expect("object"), name).expect(name)
}

/// (name, unit) of every metric in a result, sorted.
fn printed(metrics: &Value) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = metrics
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                field(m, "unit").as_str().expect("unit").to_string(),
            )
        })
        .collect();
    v.sort();
    v
}

/// (name, unit) of every metric `BENCHMARK.json` declares under
/// `section`, sorted.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let mut v: Vec<(String, String)> = field(&spec, section)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let text = |k| field(m, k).as_str().expect(k).to_string();
            (text("name"), text("unit"))
        })
        .collect();
    v.sort();
    v
}

fn run_ok(trace: &str) -> Value {
    let out = perfbench(&[
        "--workload",
        "pure_recursion",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = last_json_line(&out);
    assert_eq!(field(&result, "correct").as_bool(), Some(true));
    assert_eq!(field(&result, "failed").as_f64(), Some(0.0));
    assert!(field(&result, "attempted").as_f64().expect("attempted") >= 1.0);
    result
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let result = run_ok("0");
    assert_eq!(printed(field(&result, "metrics")), declared("end_to_end"));
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let result = run_ok("1");
    assert_eq!(printed(field(&result, "metrics")), declared("per_layer"));
}

#[test]
fn corrupted_reference_exits_non_zero() {
    let out = perfbench(&[
        "--workload",
        "pure_recursion",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--corrupt-reference",
    ]);
    assert!(!out.status.success());
    let result = last_json_line(&out);
    assert_eq!(field(&result, "correct").as_bool(), Some(false));
    assert!(field(&result, "failed").as_f64().expect("failed") > 0.0);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = perfbench(&["--workload", "nope", "--seed", "1"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
