//! Critical-path profiler harness: answers "why doesn't my kernel
//! scale?" for one app on the big.TINY configurations.
//!
//! Arms task-event recording and per-task cycle attribution (both
//! bit-for-bit invisible to simulated results), replays the task DAG, and
//! reports per setup:
//!
//! * work T1, burdened span T∞, parallelism T1/T∞, measured Tp, and how
//!   close the run came to the greedy bound `max(⌈T1/P⌉, T∞)`;
//! * the cycle-conservation table — where every core-cycle of the run
//!   went, buckets summing exactly to total core-cycles;
//! * the burden on the critical path by category, and the chain itself
//!   (task ids, cores, steal crossings);
//! * what-if projections: completion bounds with zero-cost steals, zero
//!   coherence overhead, and pure compute.
//!
//! `--out` writes the v2 metrics document for the profiled runs;
//! `--trace-out` additionally arms per-core tracing and writes a Chrome
//! trace with the critical path as its own highlighted track.

use bigtiny_apps::app_by_name;
use bigtiny_bench::live::{HeartbeatWriter, DEFAULT_HEARTBEAT_EVERY};
use bigtiny_bench::{apps_from_env, render_table, run_app, size_from_env, Setup};
use bigtiny_obs::{
    export_chrome_trace, metrics_document, replay_run, validate_chrome_trace, verify_attr_spans,
    CycleConservation, CycleLens, RunMetrics, TraceRun, WhatIf,
};

const USAGE: &str = "usage: profile_run [--app NAME] [--dts-only] [--out PATH] [--trace-out PATH]
                   [--heartbeat-out PATH]
  --app NAME       profile one kernel (default: BIGTINY_APPS or cilk5-nq)
  --dts-only       only the three DTS configurations (skip MESI + plain HCC)
  --out PATH       write the v2 metrics document (critpath section populated)
  --trace-out PATH also arm per-core tracing; write a Chrome trace with the
                   critical path as a highlighted track (ui.perfetto.dev)
  --heartbeat-out PATH
                   stream live telemetry (bigtiny-obs-heartbeat-v1 lines)
size comes from BIGTINY_SIZE (test|eval|large)";

fn main() {
    let mut app_name: Option<String> = None;
    let mut dts_only = false;
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut heartbeat_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--app" => app_name = Some(value("--app")),
            "--dts-only" => dts_only = true,
            "--out" => out = Some(value("--out")),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--heartbeat-out" => heartbeat_out = Some(value("--heartbeat-out")),
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

    let size = size_from_env();
    let apps = match &app_name {
        Some(name) => vec![app_by_name(name).unwrap_or_else(|| {
            eprintln!("unknown app `{name}`");
            std::process::exit(2);
        })],
        None => apps_from_env(),
    };
    let mut setups = Setup::big_tiny_matrix();
    if dts_only {
        setups.retain(|s| s.label.contains("DTS"));
    }
    for s in &mut setups {
        s.sys.attr = true;
        s.sys.flight_history = true;
        if trace_out.is_some() {
            s.sys.trace = true;
        }
    }

    let heartbeat = heartbeat_out.as_ref().map(|path| {
        HeartbeatWriter::create(path, DEFAULT_HEARTBEAT_EVERY)
            .unwrap_or_else(|e| panic!("--heartbeat-out {path}: {e}"))
    });
    let mut results = Vec::new();
    for app in &apps {
        for setup in &setups {
            let mut armed = setup.clone();
            if let Some(w) = &heartbeat {
                w.arm(&mut armed, app.name);
            }
            results.push(run_app(&armed, app, size, 0));
        }
    }

    let mut summary_rows = Vec::new();
    let mut conservation_rows = Vec::new();
    for r in &results {
        verify_attr_spans(&r.run.report)
            .unwrap_or_else(|e| panic!("{} @ {}: bad attribution spans: {e}", r.app, r.setup));
        let w = WhatIf::project(&r.run)
            .unwrap_or_else(|e| panic!("{} @ {}: profile failed: {e}", r.app, r.setup));
        let cp = &w.burdened;
        summary_rows.push(vec![
            r.app.to_owned(),
            r.setup.clone(),
            cp.work.to_string(),
            cp.span.to_string(),
            format!("{:.2}", cp.parallelism()),
            w.measured_tp.to_string(),
            format!("{:.3}", w.measured.speedup_bound),
            w.zero_steal.greedy_bound.to_string(),
            w.zero_coherence.greedy_bound.to_string(),
            w.work_only.greedy_bound.to_string(),
            format!("{}/{}", cp.chain_steals(), cp.chain.len()),
        ]);

        let cons = CycleConservation::from_report(&r.run.report);
        assert!(
            cons.holds(),
            "{} @ {}: cycle conservation violated: buckets {} != core-cycles {}",
            r.app,
            r.setup,
            cons.bucket_sum(),
            cons.total_core_cycles
        );
        let mut row = vec![r.app.to_owned(), r.setup.clone()];
        let total = cons.total_core_cycles.max(1) as f64;
        for (_, v) in cons.pairs() {
            row.push(format!("{:.1}%", 100.0 * v as f64 / total));
        }
        row.push(cons.total_core_cycles.to_string());
        conservation_rows.push(row);
    }

    let summary_header: Vec<String> = [
        "App",
        "Config",
        "T1",
        "Tinf",
        "T1/Tinf",
        "Tp",
        "Tp/greedy",
        "0-steal",
        "0-coh",
        "ideal",
        "path steals",
    ]
    .map(String::from)
    .to_vec();
    println!("== Critical-path profile ({size:?}) ==\n");
    println!("{}", render_table(&summary_header, &summary_rows));
    println!(
        "Tp/greedy: measured completion over max(ceil(T1/P), Tinf) — 1.0 is a perfect greedy\n\
         schedule of the burdened DAG. 0-steal / 0-coh / ideal: the same greedy bound with\n\
         steal-protocol, coherence, or all overhead cycles removed from every task.\n"
    );

    let mut cons_header: Vec<String> = vec!["App".into(), "Config".into()];
    cons_header.extend(
        ["compute", "steal", "amo", "inval", "flush", "idle", "core-cycles"].map(String::from),
    );
    println!("== Cycle conservation (buckets sum exactly to core-cycles) ==\n");
    println!("{}", render_table(&cons_header, &conservation_rows));

    // The burdened span decomposed by category, for the slowest DTS run
    // (or the last run when DTS was filtered out): the direct answer to
    // "what is on my critical path?".
    if let Some(r) = results
        .iter()
        .filter(|r| r.setup.contains("DTS"))
        .max_by_key(|r| r.cycles)
        .or_else(|| results.last())
    {
        let cp = replay_run(&r.run, CycleLens::Burdened).expect("profiled above");
        println!("== Burden on the critical path: {} @ {} ==\n", r.app, r.setup);
        print!("{}", cp.span_breakdown);
        println!("{:>10}: {:>12}\n", "span", cp.span);
    }

    if let Some(path) = &out {
        let runs: Vec<RunMetrics<'_>> = results
            .iter()
            .map(|r| RunMetrics {
                app: r.app,
                setup: &r.setup,
                deque_policy: r.deque_policy,
                run: &r.run,
                tiny_cores: &r.tiny_cores,
            })
            .collect();
        let doc = metrics_document(&runs);
        std::fs::write(path, doc.to_json() + "\n").unwrap_or_else(|e| panic!("--out {path}: {e}"));
        println!("[profile_run] metrics document ({} runs) -> {path}", results.len());
    }
    if let Some(path) = &trace_out {
        let runs: Vec<TraceRun<'_>> =
            results.iter().map(|r| TraceRun { app: r.app, setup: &r.setup, run: &r.run }).collect();
        let doc = export_chrome_trace(&runs);
        let s = validate_chrome_trace(&doc)
            .unwrap_or_else(|e| panic!("--trace-out produced an invalid document: {e}"));
        std::fs::write(path, doc.to_json() + "\n")
            .unwrap_or_else(|e| panic!("--trace-out {path}: {e}"));
        println!(
            "[profile_run] chrome trace ({} spans incl. critical-path track, {} lifetimes) -> {path}",
            s.complete, s.async_pairs
        );
    }
    println!("[profile_run] OK: {} runs profiled", results.len());
}
