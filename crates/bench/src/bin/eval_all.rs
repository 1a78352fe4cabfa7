//! Runs the 13-kernel × 7-configuration big.TINY matrix once and emits the
//! data for Figures 5, 6, 7, 8 and Table IV in one pass (the standalone
//! binaries re-run the matrix; this one is for full reproduction runs).

use bigtiny_bench::live::{
    dump_on_panic, write_blackbox, HeartbeatWriter, DEFAULT_HEARTBEAT_EVERY,
};
use bigtiny_bench::{
    apps_from_env, breakdown_labels, find_result, geomean, render_table, run_matrix_with,
    size_from_env, Setup, TrafficClass,
};
use bigtiny_checker::audit_task_events;
use bigtiny_engine::{backend_label, FaultPlan, Protocol};
use bigtiny_obs::{
    blackbox_from_report, export_chrome_trace, metrics_document, validate_chrome_trace, RunMetrics,
    TraceRun,
};

const CLASSES: [TrafficClass; 9] = [
    TrafficClass::CpuReq,
    TrafficClass::WbReq,
    TrafficClass::DataResp,
    TrafficClass::SyncReq,
    TrafficClass::SyncResp,
    TrafficClass::CohReq,
    TrafficClass::CohResp,
    TrafficClass::DramReq,
    TrafficClass::DramResp,
];

/// Options parsed from the command line (sizes and app lists stay on the
/// `BIGTINY_*` environment variables so existing scripts keep working).
struct CliOpts {
    /// Fault-plan name for `FaultPlan::by_name`. Never implied: without an
    /// explicit `--fault-plan`, no faults are armed (a bare `--fault-seed`
    /// is inert).
    fault_plan: Option<String>,
    fault_seed: u64,
    watchdog_budget: Option<u64>,
    /// Write the unified metrics document (every run's breakdown,
    /// coherence, mesh, fault/watchdog, and steal-telemetry sections) here.
    metrics_out: Option<String>,
    /// Write a Chrome trace-event document (load in `ui.perfetto.dev`)
    /// here; arms per-core tracing and task-event recording on every setup.
    trace_out: Option<String>,
    /// Stream live heartbeat lines (`bigtiny-obs-heartbeat-v1`) here.
    heartbeat_out: Option<String>,
    /// Heartbeat cadence in sequencer grants.
    heartbeat_every: u64,
    /// Write black-box flight-recorder dumps here: crash-time bundles on a
    /// watchdog trip or poison, the first dirty run on a failed crash
    /// audit, and an explicit dump of the last run on clean completion.
    blackbox_out: Option<String>,
    /// Run the 256-core Table V machines instead of the 64-core matrix.
    setups_256: bool,
}

const USAGE: &str = "usage: eval_all [--fault-seed N] [--fault-plan PLAN] [--watchdog-budget N]
                [--metrics-out PATH] [--trace-out PATH] [--heartbeat-out PATH]
                [--heartbeat-every N] [--blackbox-out PATH] [--setups-256]
  --fault-seed N       seed for deterministic fault injection; inert unless
                       --fault-plan is also given (no plan is ever implied)
  --fault-plan PLAN    arm fault injection: a named plan (none,
                       uli-drop-storm, steal-miss-storm,
                       mesh-latency-spikes, hostile, crash-one,
                       crash-storm, crash-revive, crash-hostile) or a
                       key=value spec as printed by chaos_fuzz minimal
                       reproducers, e.g. crash_cores=0x20,crash_at=1500.
                       Crash-armed plans also record task events and gate
                       the run on a clean crash-recovery audit
  --watchdog-budget N  abort with per-core diagnostics after N sequenced
                       grants without runtime progress
  --metrics-out PATH   write the unified bigtiny-obs metrics JSON document
                       (one object per (app, setup) run) to PATH
  --trace-out PATH     write a Chrome trace-event JSON document to PATH
                       (arms tracing + task events; load in ui.perfetto.dev)
  --heartbeat-out PATH stream live telemetry to PATH, one JSON line per beat
                       (schema bigtiny-obs-heartbeat-v1; follow with
                       tail_run, validate with json_check)
  --heartbeat-every N  heartbeat cadence in sequencer grants (default 10000)
  --blackbox-out PATH  write black-box flight-recorder dumps to PATH (plus a
                       Perfetto tail trace at PATH.trace.json): a crash-time
                       bundle on watchdog trip or poison, the first dirty
                       run on a failed crash audit, an explicit dump of the
                       last run on clean completion
  --setups-256         run the 256-core Table V machines (b.T-256/MESI,
                       b.T-256/HCC-gwb, b.T-256/HCC-DTS-gwb) instead of
                       the 64-core matrix; combine with BIGTINY_SIZE=test
                       and BIGTINY_BACKEND=threads for a reference-backend
                       smoke run to diff against the default fiber run
sizes and app selection come from BIGTINY_SIZE / BIGTINY_APPS / BIGTINY_JSON";

fn parse_cli() -> CliOpts {
    let mut opts = CliOpts {
        fault_plan: None,
        fault_seed: 1,
        watchdog_budget: None,
        metrics_out: None,
        trace_out: None,
        heartbeat_out: None,
        heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
        blackbox_out: None,
        setups_256: false,
    };
    let mut args = std::env::args().skip(1);
    let mut seed_given = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--fault-seed" => {
                let v = value("--fault-seed");
                opts.fault_seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--fault-seed: `{v}` is not a u64\n{USAGE}");
                    std::process::exit(2);
                });
                seed_given = true;
            }
            "--fault-plan" => {
                let v = value("--fault-plan");
                if FaultPlan::parse(&v, 1).is_none() {
                    eprintln!(
                        "--fault-plan: unknown plan `{v}`\n  named plans: {}\n  or a \
                         `key=value,...` spec (FaultPlan::to_spec form), e.g. \
                         crash_cores=0x20,crash_at=1500\n{USAGE}",
                        FaultPlan::NAMES.join(", ")
                    );
                    std::process::exit(2);
                }
                opts.fault_plan = Some(v);
            }
            "--watchdog-budget" => {
                let v = value("--watchdog-budget");
                opts.watchdog_budget = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--watchdog-budget: `{v}` is not a u64\n{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--heartbeat-out" => opts.heartbeat_out = Some(value("--heartbeat-out")),
            "--heartbeat-every" => {
                let v = value("--heartbeat-every");
                opts.heartbeat_every = v.parse().ok().filter(|n| *n > 0).unwrap_or_else(|| {
                    eprintln!("--heartbeat-every: `{v}` is not a positive u64\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--blackbox-out" => opts.blackbox_out = Some(value("--blackbox-out")),
            "--setups-256" => opts.setups_256 = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if seed_given && opts.fault_plan.is_none() {
        eprintln!(
            "[faults] --fault-seed given without --fault-plan: running fault-free \
             (pass --fault-plan to arm injection)"
        );
    }
    opts
}

fn main() {
    let opts = parse_cli();
    let size = size_from_env();
    let apps = apps_from_env();
    let mut setups = if opts.setups_256 {
        // The Table V machines, smallest-first so the speedup columns
        // (everything vs the leading MESI baseline) keep their meaning.
        vec![
            Setup::bt_256(Protocol::Mesi, bigtiny_core::RuntimeKind::Baseline),
            Setup::bt_256(Protocol::GpuWb, bigtiny_core::RuntimeKind::Hcc),
            Setup::bt_256(Protocol::GpuWb, bigtiny_core::RuntimeKind::Dts),
        ]
    } else {
        Setup::big_tiny_matrix()
    };
    // Every figure normalizes to the leading MESI baseline of whichever
    // matrix is running.
    let mesi_label = setups[0].label.clone();
    let mut crash_armed = false;
    if let Some(plan) = &opts.fault_plan {
        let fp = FaultPlan::parse(plan, opts.fault_seed).expect("plan validated in parse_cli");
        crash_armed = fp.crash_armed();
        for s in &mut setups {
            s.sys = s.sys.clone().with_faults(fp.clone());
            // The crash audit needs the task-lifecycle stream.
            s.sys.flight_history |= crash_armed;
        }
        println!("[faults] plan={plan} seed={:#x} armed on every configuration", opts.fault_seed);
        if crash_armed {
            println!("[faults] crash dimension armed: task events recorded, audit gated");
        }
    }
    if let Some(budget) = opts.watchdog_budget {
        for s in &mut setups {
            s.sys = s.sys.clone().with_watchdog(budget);
        }
        println!("[watchdog] liveness budget: {budget} sequenced grants without progress");
    }
    if opts.trace_out.is_some() {
        for s in &mut setups {
            s.sys.trace = true;
            s.sys.attr = true;
            s.sys.flight_history = true;
        }
        println!("[obs] per-core tracing + task events + cycle attribution armed (--trace-out)");
    }
    let heartbeat = opts.heartbeat_out.as_ref().map(|path| {
        let w = HeartbeatWriter::create(path, opts.heartbeat_every)
            .unwrap_or_else(|e| panic!("--heartbeat-out {path}: {e}"));
        println!(
            "[obs] heartbeat armed: one line every {} grants -> {path} \
             (follow with `tail_run {path}`)",
            opts.heartbeat_every
        );
        w
    });
    // A watchdog trip or worker-panic poison unwinds out of the matrix; if
    // a black box was requested, turn the engine's crash-time bundle into a
    // dump before re-raising so the forensics outlive the abort.
    let run_all = || {
        run_matrix_with(&setups, &apps, size, |s, app| {
            if let Some(w) = &heartbeat {
                w.arm(s, app);
            }
        })
    };
    let results = match &opts.blackbox_out {
        None => run_all(),
        Some(path) => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run_all)) {
            Ok(results) => results,
            Err(panic) => {
                if !dump_on_panic(path) {
                    eprintln!("[blackbox] run aborted before any bundle was recorded");
                }
                std::panic::resume_unwind(panic);
            }
        },
    };

    if let Some(path) = &opts.metrics_out {
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
        std::fs::write(path, doc.to_json() + "\n")
            .unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
        println!("[obs] metrics document ({} runs) -> {path}", results.len());
    }
    if let Some(path) = &opts.trace_out {
        let runs: Vec<TraceRun<'_>> =
            results.iter().map(|r| TraceRun { app: r.app, setup: &r.setup, run: &r.run }).collect();
        let doc = export_chrome_trace(&runs);
        let summary = validate_chrome_trace(&doc)
            .unwrap_or_else(|e| panic!("--trace-out produced an invalid document: {e}"));
        std::fs::write(path, doc.to_json() + "\n")
            .unwrap_or_else(|e| panic!("--trace-out {path}: {e}"));
        println!(
            "[obs] chrome trace ({} spans, {} task lifetimes, {} flows) -> {path} \
             (load in ui.perfetto.dev)",
            summary.complete, summary.async_pairs, summary.flows
        );
    }

    // ---------------- Figure 5 ----------------
    {
        let labels: Vec<String> = setups.iter().skip(1).map(|s| s.label.clone()).collect();
        let mut header = vec!["Name".to_owned()];
        header.extend(labels.iter().cloned());
        let mut rows = Vec::new();
        let mut geo: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
        for app in &apps {
            let mesi = find_result(&results, app.name, &mesi_label).cycles as f64;
            let mut row = vec![app.name.to_owned()];
            for (i, label) in labels.iter().enumerate() {
                let v = mesi / find_result(&results, app.name, label).cycles as f64;
                geo[i].push(v);
                row.push(format!("{v:.2}"));
            }
            rows.push(row);
        }
        let mut geo_row = vec!["geomean".to_owned()];
        geo_row.extend(geo.iter().map(|g| format!("{:.2}", geomean(g.iter().copied()))));
        rows.push(geo_row);
        println!("== Figure 5: speedup over big.TINY/MESI ({size:?}) ==\n");
        println!("{}", render_table(&header, &rows));
    }

    // ---------------- Figure 6 ----------------
    {
        let mut header = vec!["Name".to_owned()];
        header.extend(setups.iter().map(|s| s.label.clone()));
        let mut rows = Vec::new();
        for app in &apps {
            let mut row = vec![app.name.to_owned()];
            for setup in &setups {
                let r = find_result(&results, app.name, &setup.label);
                row.push(format!("{:.1}%", 100.0 * r.l1d_hit_rate()));
            }
            rows.push(row);
        }
        println!("== Figure 6: tiny-core L1D hit rate ({size:?}) ==\n");
        println!("{}", render_table(&header, &rows));
    }

    // ---------------- Figure 7 ----------------
    {
        let mut header = vec!["Name".to_owned(), "Config".to_owned()];
        header.extend(breakdown_labels().map(String::from));
        header.push("Total".to_owned());
        let mut rows = Vec::new();
        for app in &apps {
            let mesi_total =
                find_result(&results, app.name, &mesi_label).tiny_breakdown().total().max(1) as f64;
            for setup in &setups {
                let r = find_result(&results, app.name, &setup.label);
                let b = r.tiny_breakdown();
                let mut row = vec![app.name.to_owned(), setup.label.clone()];
                for (_, cycles) in b.paper_groups() {
                    row.push(format!("{:.3}", cycles as f64 / mesi_total));
                }
                row.push(format!("{:.3}", b.total() as f64 / mesi_total));
                rows.push(row);
            }
        }
        println!("== Figure 7: tiny-core time breakdown, normalized to b.T/MESI ({size:?}) ==\n");
        println!("{}", render_table(&header, &rows));
    }

    // ---------------- Figure 8 ----------------
    {
        let mut header = vec!["Name".to_owned(), "Config".to_owned()];
        header.extend(CLASSES.iter().map(|c| c.label().to_owned()));
        header.push("total".to_owned());
        let mut rows = Vec::new();
        for app in &apps {
            let mesi_total =
                find_result(&results, app.name, &mesi_label).traffic_bytes().max(1) as f64;
            for setup in &setups {
                let r = find_result(&results, app.name, &setup.label);
                let t = &r.run.report.traffic;
                let mut row = vec![app.name.to_owned(), setup.label.clone()];
                for c in CLASSES {
                    row.push(format!("{:.3}", t.bytes(c) as f64 / mesi_total));
                }
                row.push(format!("{:.3}", r.traffic_bytes() as f64 / mesi_total));
                rows.push(row);
            }
        }
        println!("== Figure 8: OCN traffic by category, normalized to b.T/MESI ({size:?}) ==\n");
        println!("{}", render_table(&header, &rows));
    }

    // ---------------- Table IV ----------------
    // Table IV and the ULI summary compare every HCC protocol against its
    // DTS pairing, which only the 64-core matrix runs in full.
    if opts.setups_256 {
        println!("(Table IV and the ULI summary need the full 64-core protocol matrix; skipped)");
    }
    if !opts.setups_256 {
        let header: Vec<String> = [
            "App",
            "InvDec dnv",
            "InvDec gwt",
            "InvDec gwb",
            "FlsDec gwb",
            "HitInc dnv",
            "HitInc gwt",
            "HitInc gwb",
        ]
        .map(String::from)
        .to_vec();
        let pct_dec = |hcc: u64, dts: u64| -> String {
            if hcc == 0 {
                "--".to_owned()
            } else {
                format!("{:.2}%", 100.0 * (hcc.saturating_sub(dts)) as f64 / hcc as f64)
            }
        };
        let mut rows = Vec::new();
        for app in &apps {
            let mut row = vec![app.name.to_owned()];
            let mut hit_inc = Vec::new();
            let mut fls_dec = String::new();
            for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
                let hcc = find_result(&results, app.name, &format!("b.T/HCC-{}", proto.label()));
                let dts =
                    find_result(&results, app.name, &format!("b.T/HCC-DTS-{}", proto.label()));
                let (mh, md) = (hcc.tiny_mem(), dts.tiny_mem());
                row.push(pct_dec(mh.lines_invalidated, md.lines_invalidated));
                if proto == Protocol::GpuWb {
                    fls_dec = pct_dec(mh.lines_flushed, md.lines_flushed);
                }
                hit_inc.push(format!("{:.2}%", 100.0 * (dts.l1d_hit_rate() - hcc.l1d_hit_rate())));
            }
            row.push(fls_dec);
            row.extend(hit_inc);
            rows.push(row);
        }
        println!("== Table IV: DTS vs HCC reductions ({size:?}) ==\n");
        println!("{}", render_table(&header, &rows));
    }

    // ---------------- ULI overhead summary (Section VI-C claims) ----------
    if !opts.setups_256 {
        println!("== ULI network summary (DTS configurations) ==\n");
        for app in &apps {
            for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
                let r = find_result(&results, app.name, &format!("b.T/HCC-DTS-{}", proto.label()));
                let u = &r.run.report.uli;
                println!(
                    "{:<12} {:<4} msgs {:>8}  nacks {:>6}  mean hops {:>5.1}  mean lat {:>6.1}  util {:>6.3}%",
                    app.name,
                    proto.label(),
                    u.messages,
                    u.nacks,
                    u.mean_hops,
                    u.mean_latency,
                    100.0 * u.utilization
                );
            }
        }
    }

    // ---------------- Fault-injection summary (only when armed) ----------
    if opts.fault_plan.is_some() {
        let header: Vec<String> = [
            "Name",
            "Config",
            "Injected",
            "MeshSpikes",
            "UliTimeouts",
            "Fallbacks",
            "ForcedMiss",
            "Crashes",
            "Orphans",
            "Rescues",
            "Reexec",
            "JoinsFix",
            "Quar",
            "Reviv",
        ]
        .map(String::from)
        .to_vec();
        let mut rows = Vec::new();
        for app in &apps {
            for setup in &setups {
                let r = find_result(&results, app.name, &setup.label);
                rows.push(vec![
                    app.name.to_owned(),
                    setup.label.clone(),
                    r.run.report.fault_counters.total().to_string(),
                    r.run.report.mesh_fault_spikes.to_string(),
                    r.run.stats.uli_timeouts.to_string(),
                    r.run.stats.fallback_steals.to_string(),
                    r.run.stats.forced_steal_misses.to_string(),
                    r.run.report.fault_counters.crashes.to_string(),
                    r.run.stats.orphans_reclaimed.to_string(),
                    r.run.stats.mailbox_rescues.to_string(),
                    r.run.stats.reexecutions.to_string(),
                    r.run.stats.joins_repaired.to_string(),
                    r.run.stats.quarantines.to_string(),
                    r.run.stats.revivals.to_string(),
                ]);
            }
        }
        println!("== Fault injection summary ({size:?}) ==\n");
        println!("{}", render_table(&header, &rows));
    }

    // ---------------- Crash-recovery audit (only when crash-armed) -------
    // Every run's task-event stream must audit clean: at-least-once with
    // full recovery accounting (a mid-execution death is acceptable only if
    // covered by a respawn; re-execution only for idempotency-whitelisted
    // kernels). A dirty audit fails the whole evaluation.
    if crash_armed {
        let header: Vec<String> =
            ["Name", "Config", "Tasks", "Respawns", "Discards", "Recovered", "Verdict"]
                .map(String::from)
                .to_vec();
        let mut rows = Vec::new();
        let mut dirty = 0usize;
        let mut first_dirty: Option<(&bigtiny_bench::AppResult, &Setup)> = None;
        for app in &apps {
            for setup in &setups {
                let r = find_result(&results, app.name, &setup.label);
                let audit = audit_task_events(&r.run.task_events, true, r.app);
                if !audit.is_clean() {
                    dirty += 1;
                    first_dirty.get_or_insert((r, setup));
                    eprintln!("[audit] {} on {}:", r.app, setup.label);
                    eprint!("{}", audit.render());
                }
                rows.push(vec![
                    app.name.to_owned(),
                    setup.label.clone(),
                    audit.tasks.to_string(),
                    audit.respawns.to_string(),
                    audit.discards.to_string(),
                    audit.recovered.to_string(),
                    if audit.is_clean() {
                        format!("clean {:#018x}", audit.verdict_hash())
                    } else {
                        format!("{} violation(s)", audit.violations.len())
                    },
                ]);
            }
        }
        println!("== Crash-recovery audit ({size:?}) ==\n");
        println!("{}", render_table(&header, &rows));
        if dirty > 0 {
            // A dirty audit is a forensic event: dump the first offender's
            // flight tails before failing the evaluation.
            if let (Some(path), Some((r, setup))) = (&opts.blackbox_out, first_dirty) {
                let doc = blackbox_from_report(
                    "crash_audit",
                    backend_label(&setup.sys),
                    &setup.sys.faults.to_spec(),
                    &r.run.report,
                );
                write_blackbox(path, &doc);
            }
            eprintln!("[audit] {dirty} run(s) failed the crash-recovery audit");
            std::process::exit(1);
        }
        println!("all {} crash-armed runs audited clean", rows.len());
    }

    // ---------------- Explicit black-box dump (clean completion) ---------
    if let Some(path) = &opts.blackbox_out {
        if let (Some(r), Some(setup)) = (results.last(), setups.last()) {
            let doc = blackbox_from_report(
                "explicit",
                backend_label(&setup.sys),
                &setup.sys.faults.to_spec(),
                &r.run.report,
            );
            write_blackbox(path, &doc);
        }
    }
}
