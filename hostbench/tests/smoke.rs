//! Test-size smoke test of the benchmark binary: every workload, timed and
//! traced. Each run must pass every cell and report every metric that
//! `BENCHMARK.json` names, with its unit, in a result line that parses.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

use bigtiny_obs::{parse_json, Json};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let list = doc.get(section).and_then(Json::as_arr).expect("metric list");
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn hostbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hostbench")).args(args).output().expect("run hostbench")
}

/// Runs one workload at test size and checks its result line.
fn check(workload: &str, trace: bool) -> Json {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let out_dir = out_dir.to_str().expect("utf-8 path");
    let flag = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.001",
        "--trace",
        flag,
        "--size",
        "test",
        "--out",
        out_dir,
    ];
    let out = hostbench(&args);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={flag} failed:\n{stdout}\n{stderr}");
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("result line parses");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {stderr}");
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0), "fail_rate must be 0");
    assert!(result.get("attempted").and_then(Json::as_num).is_some_and(|n| n >= 1.0));
    assert!(stdout.contains("fail_rate"), "fail_rate is printed with its unit");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = result.get("metrics").expect("metrics object");
    for (name, unit) in declared(section) {
        let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert!(m.get("value").and_then(Json::as_num).is_some(), "{workload}: {name} value");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name} unit");
    }
    metrics.clone()
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_num).expect("metric value")
}

/// Runs `workload` timed and traced; returns the traced metrics.
fn check_both(workload: &str) -> Json {
    let timed = check(workload, false);
    assert_eq!(value(&timed, "pass_rate"), 1.0);
    assert!(value(&timed, "wall_s") > 0.0 && value(&timed, "sim_mips") > 0.0);
    let traced = check(workload, true);
    let coverage = value(&traced, "trace.coverage");
    assert!(coverage > 0.0 && coverage <= 1.0, "{workload}: coverage {coverage}");
    assert!(value(&traced, "trace.overhead_frac").is_finite());
    assert!(value(&traced, "core.run_s") > 0.0 && value(&traced, "engine.grants") > 0.0);
    traced
}

// The coherence replay runs on every workload whose runs can carry the DRF
// event stream; a failed fidelity check fails the traced run, which
// `check` rejects.

#[test]
fn matrix64_smoke() {
    let traced = check_both("matrix64");
    assert!(value(&traced, "coherence.accesses") > 0.0, "replayed accesses");
}

#[test]
fn dts256_smoke() {
    let traced = check_both("dts256");
    assert!(value(&traced, "coherence.accesses") > 0.0, "replayed accesses");
}

#[test]
fn checked_smoke() {
    let traced = check_both("checked");
    assert!(value(&traced, "checker.events") > 0.0, "the checker consumed events");
    assert!(value(&traced, "coherence.accesses") > 0.0, "replayed accesses");
}

#[test]
fn chaos16_smoke() {
    let traced = check_both("chaos16");
    assert!(value(&traced, "engine.watchdog_s") != 0.0, "watchdog variant ran");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "matrix64", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "matrix64", "--seed", "1", "--seconds", "1"],
    ] {
        let out = hostbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
