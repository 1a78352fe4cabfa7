//! Structural smoke test for the observability layer, runnable in CI
//! without a browser.
//!
//! Runs one DTS kernel twice — observability off, then fully armed
//! (per-core tracing + task-event recording) — and checks that:
//!
//! * arming observability is bit-for-bit invisible to simulation (same
//!   completion cycles and sequenced-op-stream hash);
//! * the Chrome trace-event export validates structurally (balanced async
//!   pairs, 1:1 flow ids) and contains core spans, task lifetimes, steal
//!   instants, and ULI flow arrows;
//! * the metrics document contains every section and survives its own
//!   strict parser.
//!
//! `--metrics-out PATH` / `--trace-out PATH` additionally write the
//! validated documents, so CI can upload them as artifacts.

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_engine::Protocol;
use bigtiny_obs::{
    export_chrome_trace, metrics_document, parse_json, validate_chrome_trace, RunMetrics, TraceRun,
    METRICS_SCHEMA,
};

const USAGE: &str = "usage: trace_smoke [--metrics-out PATH] [--trace-out PATH]";

fn main() {
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--metrics-out" => metrics_out = Some(value("--metrics-out")),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let app = app_by_name("cilk5-nq").expect("cilk5-nq registered");
    let plain_setup = Setup::bt_hcc(Protocol::GpuWb, true);
    let mut armed_setup = plain_setup.clone();
    armed_setup.sys.trace = true;
    armed_setup.sys.attr = true;
    armed_setup.sys.flight_history = true;

    let plain = run_app(&plain_setup, &app, AppSize::Test, 0);
    let armed = run_app(&armed_setup, &app, AppSize::Test, 0);

    // Zero-overhead pin: arming the whole observability stack must not move
    // a single simulated cycle or grant.
    assert_eq!(
        (plain.cycles, plain.run.report.seq_op_hash),
        (armed.cycles, armed.run.report.seq_op_hash),
        "arming observability perturbed simulated results"
    );
    println!(
        "[trace_smoke] zero-overhead pin holds: {} cycles, op hash {:#018x}",
        armed.cycles, armed.run.report.seq_op_hash
    );

    // Perfetto export: structurally valid and non-trivially populated.
    let trace_doc =
        export_chrome_trace(&[TraceRun { app: armed.app, setup: &armed.setup, run: &armed.run }]);
    let s = validate_chrome_trace(&trace_doc)
        .unwrap_or_else(|e| panic!("exported trace fails structural validation: {e}"));
    assert!(s.complete > 0, "no core spans in the trace");
    assert!(s.async_pairs > 0, "no task lifetimes in the trace");
    assert!(s.flows > 0, "no ULI flow arrows in the trace (DTS steals expected)");
    assert!(
        s.instants as u64 >= armed.run.stats.steals,
        "fewer steal instants ({}) than steals ({})",
        s.instants,
        armed.run.stats.steals
    );
    let trace_text = trace_doc.to_json();
    let reparsed = parse_json(&trace_text).expect("trace survives the strict parser");
    assert_eq!(validate_chrome_trace(&reparsed).unwrap(), s, "trace mutated by round trip");
    println!(
        "[trace_smoke] trace valid: {} spans, {} task lifetimes, {} flows, {} steal instants",
        s.complete, s.async_pairs, s.flows, s.instants
    );

    // Metrics document: every section present, strict round trip.
    let metrics_doc = metrics_document(&[RunMetrics {
        app: armed.app,
        setup: &armed.setup,
        deque_policy: armed.deque_policy,
        run: &armed.run,
        tiny_cores: &armed.tiny_cores,
    }]);
    let metrics_text = metrics_doc.to_json();
    let back = parse_json(&metrics_text).expect("metrics survive the strict parser");
    assert_eq!(back.get("schema").and_then(|s| s.as_str()), Some(METRICS_SCHEMA));
    let run0 = &back.get("runs").and_then(|r| r.as_arr()).expect("runs array")[0];
    let sections =
        ["breakdown", "coherence", "mesh", "uli", "faults", "watchdog", "steals", "critpath"];
    for section in sections {
        assert!(run0.get(section).is_some(), "metrics document missing section {section}");
    }
    assert!(
        run0.get("steals").unwrap().get("attempts").unwrap().as_num().unwrap() > 0.0,
        "DTS run recorded no steal attempts"
    );
    // With attribution armed the critical-path profile must be live: the
    // conservation table holds and the burdened span is positive.
    let cp = run0.get("critpath").expect("critpath section");
    assert_eq!(cp.get("profiled").map(|p| p.to_json()), Some("true".into()), "run not profiled");
    assert!(cp.get("span").unwrap().as_num().unwrap() > 0.0, "profiled run has a zero span");
    assert_eq!(
        cp.get("conservation").unwrap().get("holds").map(|h| h.to_json()),
        Some("true".into()),
        "cycle-conservation invariant violated"
    );
    println!("[trace_smoke] metrics valid: schema {METRICS_SCHEMA}, all sections present");

    if let Some(path) = &metrics_out {
        std::fs::write(path, metrics_text + "\n")
            .unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
        println!("[trace_smoke] metrics -> {path}");
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, trace_text + "\n")
            .unwrap_or_else(|e| panic!("--trace-out {path}: {e}"));
        println!("[trace_smoke] trace -> {path} (load in ui.perfetto.dev)");
    }
    println!("[trace_smoke] OK");
}
