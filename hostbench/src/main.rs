//! `hostbench`: the host-cost benchmark of the big.TINY simulator.
//!
//! One process, one client thread, one workload per invocation. Each
//! workload is a closed loop of one client running its cells back to back
//! (see `cells.rs` for the cells). Usage:
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload matrix64 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` runs passes until `--seconds` is used up and reports the
//! end-to-end metrics (sums of per-cell medians). `--trace 1` runs one
//! untraced pass, one traced pass and the attribution runs, and reports
//! the per-layer metrics. The last stdout line is the result object;
//! `README.md` documents every metric.

mod cells;
mod refs;
mod replay;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bigtiny_apps::AppSize;
use bigtiny_engine::{backend_label, CheckMode};
use bigtiny_obs::{metrics_document, parse_json, Json, RunMetrics};

use cells::{call, run_cell, Cell, CellOutcome, Counts, Gate, Workload};
use trace::Tracer;

const USAGE: &str = "usage: hostbench --workload matrix64|dts256|checked|chaos16 --seed N \
--seconds S --trace 0|1 [--size eval|test] [--out DIR] [--update-refs]";

/// Environment knobs of the repository's harness binaries. The benchmark
/// builds its own setups, so none of them may steer it (an exported
/// `BIGTINY_BACKEND=threads` would move every `Auto` run onto threads).
const HARNESS_VARS: [&str; 4] = ["BIGTINY_SIZE", "BIGTINY_APPS", "BIGTINY_JSON", "BIGTINY_BACKEND"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: AppSize,
    out: PathBuf,
    update_refs: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut out, mut update_refs) = (AppSize::Eval, PathBuf::from(".bench_out"), false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--update-refs" {
            update_refs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(if s > 0.0 && s.is_finite() { s } else { return Err(bad()) });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "eval" => AppSize::Eval,
                    "test" => AppSize::Test,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        out,
        update_refs,
    })
}

/// Per-cell correctness bookkeeping across every run of a cell in this
/// process: gate verdicts, pass-to-pass determinism, reference pins.
struct Gatekeeper {
    ids: Vec<String>,
    first: Vec<Option<(u64, u64)>>,
    refs: refs::Refs,
    pinned: bool,
    attempted: u64,
    failed: u64,
}

impl Gatekeeper {
    fn new(ids: Vec<String>, refs: refs::Refs, pinned: bool) -> Self {
        let first = vec![None; ids.len()];
        Gatekeeper { ids, first, refs, pinned, attempted: 0, failed: 0 }
    }

    /// Records one run of cell `i`; `label` names the run in messages.
    fn record(&mut self, i: usize, label: &str, verdict: &Result<(u64, u64), String>) {
        self.attempted += 1;
        let id = &self.ids[i];
        let fp = match verdict {
            Ok(fp) => *fp,
            Err(why) => {
                self.failed += 1;
                eprintln!("[hostbench] FAIL {id} ({label}): {why}");
                return;
            }
        };
        let expect = match self.first[i] {
            Some(prev) => Some((prev, "the first run of this cell")),
            None if self.pinned => match self.refs.get(id) {
                Some(r) => Some((*r, "references.json")),
                None => {
                    self.failed += 1;
                    eprintln!("[hostbench] FAIL {id}: pinned seed without a stored reference");
                    return;
                }
            },
            None => None,
        };
        if self.first[i].is_none() {
            self.first[i] = Some(fp);
            eprintln!("[hostbench] cell {id}: cycles={} seq_op_hash={:#018x}", fp.0, fp.1);
        }
        if let Some((want, from)) = expect {
            if want != fp {
                self.failed += 1;
                eprintln!(
                    "[hostbench] FAIL {id} ({label}): cycles={} seq_op_hash={:#018x}, \
                     but {from} has cycles={} seq_op_hash={:#018x}",
                    fp.0, fp.1, want.0, want.1
                );
            }
        }
    }
}

/// Host timings and simulated counts of one pass over the cells.
struct Pass {
    /// The whole pass, set-up included.
    total_s: f64,
    /// Per cell run: set-up seconds.
    setup: Vec<f64>,
    /// Per cell run: seconds of the gated run (simulate, verify, check).
    run: Vec<f64>,
    /// The pass-level metrics document, if the pass built one.
    doc_s: Option<f64>,
    counts: Counts,
    checker_events: u64,
}

/// Runs the cells in order, asking `fits(i)` before cell `i`; the first
/// `false` ends the pass early. Only a complete `checked` pass builds the
/// metrics document.
fn run_pass(
    w: Workload,
    seed: u64,
    cells: &[Cell],
    gk: &mut Gatekeeper,
    mut tr: Option<&mut Tracer>,
    fits: &dyn Fn(usize) -> bool,
) -> Pass {
    let t0 = Instant::now();
    let keep = w == Workload::Checked;
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let (mut counts, mut checker_events, mut doc_s) = (Counts::default(), 0, None);
    let mut kept = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if !fits(i) {
            break;
        }
        if let Some(t) = tr.as_deref_mut() {
            t.enter_cell(cell.id(w, seed), "main");
        }
        let out: CellOutcome = run_cell(cell, &mut tr, keep);
        gk.record(i, "main", &out.verdict);
        setup.push(out.setup_s);
        run.push(out.run_s);
        counts.add(&out.counts);
        checker_events += out.checker_events;
        if let Some(run) = out.run {
            kept.push((i, run));
        }
    }
    if let Some(t) = tr.as_deref_mut() {
        t.leave_cell();
    }
    if keep && run.len() == cells.len() {
        // The `check_all` path ends by building one metrics document.
        let tiny: Vec<Vec<usize>> = cells.iter().map(|c| c.setup.sys.tiny_cores()).collect();
        let runs: Vec<RunMetrics<'_>> = kept
            .iter()
            .map(|(i, run)| RunMetrics {
                app: cells[*i].app,
                setup: &cells[*i].setup.label,
                deque_policy: cells[*i].setup.rt.deque_kind.label(),
                run,
                tiny_cores: &tiny[*i],
            })
            .collect();
        let t1 = Instant::now();
        let doc = call(&mut tr, "obs.metrics_document", || metrics_document(&runs));
        doc_s = Some(t1.elapsed().as_secs_f64());
        let n = doc.get("runs").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        assert_eq!(n, runs.len(), "metrics document holds every run of the pass");
    }
    Pass { total_s: t0.elapsed().as_secs_f64(), setup, run, doc_s, counts, checker_events }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process resident-set high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric with its unit, in report order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Set-up-only rounds over every cell after each timed pass. Set-up is
/// about 1% of a pass, so its medians need more samples than the passes
/// give.
const SETUP_ROUNDS: usize = 4;

/// `--trace 0`: passes until the time budget is spent, the last one cut
/// short before the first cell that would overrun it (by the cell's cost
/// in the first pass). Each timing is a sum over cells of the cell's
/// median over its runs, which discards a run in which host interference
/// hit that cell, as a whole-pass median cannot.
fn timed_run(args: &Args, cells: &[Cell], gk: &mut Gatekeeper) -> Metrics {
    let start = Instant::now();
    let n = cells.len();
    let (mut setup, mut run) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let (mut docs, mut cost) = (Vec::new(), Vec::new());
    let (mut instructions, mut peak_rss) = (0, 0.0);
    loop {
        let fits = |i: usize| {
            cost.get(i).is_none_or(|c| start.elapsed().as_secs_f64() + c <= args.seconds)
        };
        let pass = run_pass(args.workload, args.seed, cells, gk, None, &fits);
        if cost.is_empty() {
            cost = pass.setup.iter().zip(&pass.run).map(|(s, r)| s + r).collect();
            // Simulated work is identical in every run of a cell (the gate
            // enforces it), so the first pass's count stands for all.
            instructions = pass.counts.instructions;
            // Later passes only re-reach this mark, give or take allocator
            // fragmentation, which is not the program's footprint.
            peak_rss = peak_rss_mb();
        }
        for (i, (s, r)) in pass.setup.iter().zip(&pass.run).enumerate() {
            setup[i].push(*s);
            run[i].push(*r);
        }
        docs.extend(pass.doc_s);
        if pass.run.len() < n {
            break;
        }
        for _ in 0..SETUP_ROUNDS {
            for (i, cell) in cells.iter().enumerate() {
                setup[i].push(cells::time_setup(cell));
            }
        }
    }
    eprintln!(
        "[hostbench] measured for {:.1} s; runs per cell: {}..{}",
        start.elapsed().as_secs_f64(),
        run.iter().map(Vec::len).min().unwrap_or(0),
        run.iter().map(Vec::len).max().unwrap_or(0),
    );
    let sum_of_medians = |samples: Vec<Vec<f64>>| samples.into_iter().map(median).sum::<f64>();
    let doc = if docs.is_empty() { 0.0 } else { median(docs) };
    let wall = sum_of_medians(run) + doc;
    let fail_rate = gk.failed as f64 / gk.attempted as f64;
    vec![
        ("wall_s", wall, "s"),
        ("setup_s", sum_of_medians(setup), "s"),
        ("sim_mips", instructions as f64 / wall / 1e6, "MIPS"),
        ("peak_rss_mb", peak_rss, "MiB"),
        ("pass_rate", 1.0 - fail_rate, "ratio"),
    ]
}

/// The attribution variants of one cell: which observation-only knob
/// each flips. Every variant must reproduce the main run's fingerprint.
fn variants(w: Workload, cell: &Cell) -> Vec<(&'static str, Cell)> {
    let with = |f: &dyn Fn(&mut Cell)| {
        let mut c = cell.clone();
        f(&mut c);
        c
    };
    let flight_off = with(&|c| {
        c.setup.sys = c.setup.sys.clone().with_flight_ring(0);
        if w == Workload::Checked {
            // Keep the event stream for the coherence replay.
            c.gate = Gate::Plain;
        }
    });
    let mut v = vec![("flight-off", flight_off)];
    match w {
        Workload::Matrix64 | Workload::Dts256 => v.push((
            "check-armed",
            with(&|c| c.setup.sys = c.setup.sys.clone().with_check(CheckMode::Full)),
        )),
        Workload::Checked => v.push((
            "check-off",
            with(&|c| {
                c.setup.sys = c.setup.sys.clone().with_check(CheckMode::Off);
                c.gate = Gate::Plain;
            }),
        )),
        Workload::Chaos16 => {
            v.push(("watchdog-off", with(&|c| c.setup.sys.watchdog_budget = None)))
        }
    }
    v
}

/// `--trace 1`: an untraced pass, a traced pass, then the attribution
/// runs (flight ring off, checker armed or off, watchdog off) and the
/// coherence replay. Returns the per-layer metrics, or `Err` when the
/// replay fidelity check fails.
fn traced_run(
    args: &Args,
    cells: &[Cell],
    gk: &mut Gatekeeper,
    tr: &mut Tracer,
) -> Result<Metrics, String> {
    let (w, seed) = (args.workload, args.seed);
    let untraced = run_pass(w, seed, cells, gk, None, &|_| true);
    let b0 = tr.mark();
    let traced = run_pass(w, seed, cells, gk, Some(tr), &|_| true);
    let b1 = tr.mark();
    let traced_s = (b1 - b0) as f64 * 1e-9;

    let mut accesses = 0u64;
    let mut fidelity: Result<(), String> = Ok(());
    for (i, cell) in cells.iter().enumerate() {
        for (label, variant) in variants(w, cell) {
            tr.enter_cell(cell.id(w, seed), label);
            let replayable = variant.setup.sys.check.armed() && matches!(variant.gate, Gate::Plain);
            let out = run_cell(&variant, &mut Some(&mut *tr), replayable);
            gk.record(i, label, &out.verdict);
            if let Some(run) = out.run {
                match tr
                    .span("coherence.replay", |_| replay::replay(&variant.setup.sys, &run.report))
                {
                    Ok(n) => accesses += n,
                    Err(e) => {
                        eprintln!("[hostbench] FAIL replay fidelity {}: {e}", cell.id(w, seed));
                        fidelity = Err(e);
                    }
                }
            }
        }
    }
    tr.leave_cell();
    fidelity?;

    let run_s = tr.total("core.run_task_parallel");
    let variant_run = |label| tr.total_of("core.run_task_parallel", label);
    let replay_s = tr.total_of("coherence.replay", "check-armed")
        + tr.total_of("coherence.replay", "flight-off");
    let top = tr.top_level_secs(b0, b1);
    let c = traced.counts;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let check_s = tr.total("checker.check_run");
    let (record_s, watchdog_s) = match w {
        Workload::Matrix64 | Workload::Dts256 => (variant_run("check-armed") - run_s, 0.0),
        Workload::Checked => (run_s - variant_run("check-off"), 0.0),
        Workload::Chaos16 => (0.0, run_s - variant_run("watchdog-off")),
    };
    Ok(vec![
        ("apps.prepare_s", tr.total("apps.prepare"), "s"),
        ("apps.verify_s", tr.total("apps.verify"), "s"),
        ("core.run_s", run_s, "s"),
        ("core.tasks", c.tasks as f64, "count"),
        ("core.steal_attempts", c.steal_attempts as f64, "count"),
        ("core.steal_hit_rate", ratio(c.steals as f64, c.steal_attempts as f64), "ratio"),
        ("core.recovery_ops", c.recovery_ops as f64, "count"),
        ("engine.grants", c.grants as f64, "count"),
        ("engine.fast_grant_frac", ratio(c.fast_grants as f64, c.grants as f64), "ratio"),
        ("engine.ns_per_grant", ratio((run_s - replay_s) * 1e9, c.grants as f64), "ns"),
        ("engine.flight_s", run_s - variant_run("flight-off"), "s"),
        ("engine.record_s", record_s, "s"),
        ("engine.watchdog_s", watchdog_s, "s"),
        ("coherence.replay_s", replay_s, "s"),
        ("coherence.accesses", accesses as f64, "count"),
        ("coherence.ns_per_access", ratio(replay_s * 1e9, accesses as f64), "ns"),
        ("coherence.share", ratio(replay_s, run_s), "ratio"),
        ("coherence.l1d_hit_rate", c.mem.l1d_hit_rate(), "ratio"),
        ("coherence.lines_invalidated", c.mem.lines_invalidated as f64, "count"),
        ("coherence.lines_flushed", c.mem.lines_flushed as f64, "count"),
        ("coherence.amos", c.mem.amos as f64, "count"),
        ("mesh.data_bytes", c.data_bytes as f64, "bytes"),
        ("mesh.uli_messages", c.uli_messages as f64, "count"),
        ("mesh.uli_nack_rate", ratio(c.uli_nacks as f64, c.uli_messages as f64), "ratio"),
        ("checker.events", traced.checker_events as f64, "count"),
        ("checker.check_s", check_s, "s"),
        ("checker.ns_per_event", ratio(check_s * 1e9, traced.checker_events as f64), "ns"),
        ("checker.audit_s", tr.total("checker.audit_task_events"), "s"),
        ("obs.metrics_doc_s", tr.total("obs.metrics_document"), "s"),
        ("trace.coverage", ratio(top, traced_s), "ratio"),
        (
            "trace.overhead_frac",
            ratio(traced.total_s - untraced.total_s, untraced.total_s),
            "ratio",
        ),
        ("bench.unaccounted_s", traced_s - top, "s"),
    ])
}

/// Run metadata: what the numbers were measured on.
fn meta(args: &Args, cells: &[Cell], mode: &str) -> Json {
    let mut backends: Vec<&str> = cells.iter().map(|c| backend_label(&c.setup.sys)).collect();
    backends.sort_unstable();
    backends.dedup();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::u64(args.seed)),
        ("size".into(), Json::str(format!("{:?}", args.size).to_lowercase())),
        ("cells".into(), Json::u64(cells.len() as u64)),
        ("mode".into(), Json::str(mode)),
        ("backend_label".into(), Json::Arr(backends.into_iter().map(Json::str).collect())),
        ("nproc".into(), Json::u64(nproc as u64)),
        ("rustc".into(), Json::str(env!("HOSTBENCH_RUSTC"))),
        ("git_commit".into(), Json::str(env!("HOSTBENCH_COMMIT"))),
    ])
}

/// Builds the result object and proves it parses back, with every metric
/// a finite number carrying its unit.
fn result_line(correct: bool, gk: &Gatekeeper, metrics: &Metrics) -> Result<String, String> {
    let obj = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(gk.attempted)),
        ("failed".into(), Json::u64(gk.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        let m = Json::Obj(vec![
                            ("value".into(), Json::f64(value)),
                            ("unit".into(), Json::str(unit)),
                        ]);
                        (name.to_owned(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    let line = obj.to_json();
    let back = parse_json(&line)?;
    for &(name, _, unit) in metrics {
        let m = back.get("metrics").and_then(|m| m.get(name));
        let ok = m.and_then(|m| m.get("value")).and_then(Json::as_num).is_some()
            && m.and_then(|m| m.get("unit")).and_then(Json::as_str) == Some(unit);
        if !ok {
            return Err(format!("metric {name} is not a finite number with unit {unit}"));
        }
    }
    Ok(line)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for var in HARNESS_VARS {
        std::env::remove_var(var);
    }
    // Injected fail-stop crashes unwind simulated cores with a non-string
    // payload the runtime catches; only string panics are real failures
    // (and those reach the cell's FAIL line through `catch_unwind` too).
    std::panic::set_hook(Box::new(|info| {
        let p = info.payload();
        if let Some(msg) =
            p.downcast_ref::<&str>().copied().or(p.downcast_ref::<String>().map(String::as_str))
        {
            let at = info.location().map(|l| format!(" at {l}")).unwrap_or_default();
            eprintln!("[hostbench] panic{at}: {}", msg.lines().next().unwrap_or(""));
        }
    }));
    let (w, seed) = (args.workload, args.seed);
    let cells = cells::cells(w, seed, args.size);
    let ids: Vec<String> = cells.iter().map(|c| c.id(w, seed)).collect();
    let stored = refs::stored();
    let pinned = args.size == AppSize::Eval && refs::pinned(&stored, w.name(), seed);
    let mut gk = Gatekeeper::new(ids, stored, pinned && !args.update_refs);
    eprintln!(
        "[hostbench] {} seed {seed}: {} cells at {:?} size, references {}",
        w.name(),
        cells.len(),
        args.size,
        if gk.pinned { "checked" } else { "printed only" }
    );

    let mut tracer = Tracer::new();
    let (metrics, mut correct) = if args.trace {
        match traced_run(&args, &cells, &mut gk, &mut tracer) {
            Ok(m) => (m, true),
            Err(_) => (Vec::new(), false),
        }
    } else {
        (timed_run(&args, &cells, &mut gk), true)
    };
    correct &= gk.failed == 0;

    let mode = if args.trace { "traced" } else { "timed" };
    let meta = meta(&args, &cells, mode);
    if args.trace {
        let path = args.out.join(format!("spans-{}-{seed}.json", w.name()));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, tracer.to_json(meta.clone()).to_json()));
        match written {
            Ok(()) => {
                eprintln!("[hostbench] wrote {} spans to {}", tracer.spans.len(), path.display())
            }
            Err(e) => {
                eprintln!("[hostbench] cannot write {}: {e}", path.display());
                correct = false;
            }
        }
    }
    if args.update_refs && args.size == AppSize::Eval && gk.failed == 0 {
        let mut all = refs::on_disk();
        for (id, fp) in gk.ids.iter().zip(&gk.first) {
            all.insert(id.clone(), fp.expect("every cell passed"));
        }
        std::fs::write(refs::PATH, refs::render(&all)).expect("write references.json");
        eprintln!("[hostbench] updated {}", refs::PATH);
    }

    println!("hostbench {} seed {seed} ({mode})", w.name());
    for &(name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let fail_rate = gk.failed as f64 / gk.attempted.max(1) as f64;
    println!(
        "  {:<28} {fail_rate:>16.6} ratio ({} of {} cells failed)",
        "fail_rate", gk.failed, gk.attempted
    );
    println!("{}", Json::Obj(vec![("meta".into(), meta)]).to_json());
    match result_line(correct, &gk, &metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: invalid result: {e}");
            ExitCode::FAILURE
        }
    }
}
