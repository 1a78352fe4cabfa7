//! Chrome trace-event (Perfetto-loadable) export of a run's execution.
//!
//! One JSON document, loadable at `ui.perfetto.dev` or `chrome://tracing`:
//!
//! * each `(app, setup)` run becomes one *process* (pid), each simulated
//!   core one *thread* (tid), named via `M` metadata events;
//! * per-core [`TraceEvent`] spans become `"X"` complete events (`ts` and
//!   `dur` in simulated cycles);
//! * task lifetimes (first to last recorded lifecycle event) become async
//!   `"b"`/`"e"` pairs with globally unique ids, so a task's span is
//!   visible across the cores it migrated over, with steal claims as
//!   instant events;
//! * ULI request/response events from the flight history become flow
//!   arrows (`"s"`/`"f"`) from sender to receiver, FIFO-paired per
//!   directed core pair.
//!
//! [`validate_chrome_trace`] structurally checks a document — balanced
//! async pairs, 1:1 flow ids, well-formed events — so CI can gate on the
//! exporter without a browser.

use std::collections::BTreeMap;

use bigtiny_core::{TaskEventKind, TaskRun};
use bigtiny_engine::FlightKind;

use crate::json::Json;

/// Schema tag carried in the document's `metadata.schema` field.
pub const TRACE_SCHEMA: &str = "bigtiny-obs-trace-v1";

/// One run to include in a trace document.
pub struct TraceRun<'a> {
    /// Kernel name.
    pub app: &'a str,
    /// Setup label.
    pub setup: &'a str,
    /// The run (with `SystemConfig::trace` and, for task lifetimes and
    /// ULI flow arrows, `SystemConfig::flight_history` enabled).
    pub run: &'a TaskRun,
}

fn ev(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Exports one Chrome trace-event document covering every run.
pub fn export_chrome_trace(runs: &[TraceRun<'_>]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut flow_id = 0u64;
    for (ri, r) in runs.iter().enumerate() {
        let pid = ri as u64 + 1;
        emit_metadata(&mut events, pid, r);
        emit_core_spans(&mut events, pid, r);
        emit_task_lifetimes(&mut events, pid, r);
        emit_uli_flows(&mut events, pid, r, &mut flow_id);
        emit_critpath_track(&mut events, pid, r);
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ns")),
        (
            "metadata".into(),
            Json::Obj(vec![
                ("schema".into(), Json::str(TRACE_SCHEMA)),
                ("time_unit".into(), Json::str("simulated cycles")),
            ]),
        ),
    ])
}

/// Process/thread naming so the Perfetto UI shows run and core labels.
fn emit_metadata(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    events.push(ev(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::u64(pid)),
        ("args", Json::Obj(vec![("name".into(), Json::str(format!("{} @ {}", r.app, r.setup)))])),
    ]));
    for core in 0..r.run.report.traces.len() {
        events.push(ev(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(pid)),
            ("tid", Json::u64(core as u64)),
            ("args", Json::Obj(vec![("name".into(), Json::str(format!("core {core}")))])),
        ]));
    }
}

/// Per-core execution spans as `"X"` complete events.
fn emit_core_spans(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    for (core, trace) in r.run.report.traces.iter().enumerate() {
        for t in trace {
            events.push(ev(vec![
                ("name", Json::str(t.category.label())),
                ("cat", Json::str("core")),
                ("ph", Json::str("X")),
                ("ts", Json::u64(t.start)),
                ("dur", Json::u64(t.cycles)),
                ("pid", Json::u64(pid)),
                ("tid", Json::u64(core as u64)),
            ]));
        }
    }
}

/// Task lifetimes as async `"b"`/`"e"` pairs plus steal-claim instants.
///
/// A task's lifetime runs from its first to its last recorded lifecycle
/// event, which keeps every pair balanced by construction even for tasks
/// that were spawned but inlined, or whose join elided (the pair may be
/// zero-length). The async id embeds the pid so ids stay globally unique
/// across runs in one document.
fn emit_task_lifetimes(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    // task id -> (first cycle, first core, last cycle, last core); the
    // event stream is sorted by (cycle, core), so first/last are just the
    // extremes in stream order.
    let mut lifetimes: BTreeMap<u32, (u64, usize, u64, usize)> = BTreeMap::new();
    for e in &r.run.task_events {
        lifetimes
            .entry(e.task)
            .and_modify(|l| {
                l.2 = e.cycle;
                l.3 = e.core;
            })
            .or_insert((e.cycle, e.core, e.cycle, e.core));
        if let TaskEventKind::Stolen { from } = e.kind {
            events.push(ev(vec![
                ("name", Json::str("steal")),
                ("cat", Json::str("steal")),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", Json::u64(e.cycle)),
                ("pid", Json::u64(pid)),
                ("tid", Json::u64(e.core as u64)),
                ("args", Json::Obj(vec![("from".into(), Json::u64(from as u64))])),
            ]));
        }
    }
    for (task, (t0, c0, t1, c1)) in lifetimes {
        let id = Json::str(format!("task-{pid}-{task}"));
        let name = Json::str(format!("task {task}"));
        events.push(ev(vec![
            ("name", name.clone()),
            ("cat", Json::str("task")),
            ("ph", Json::str("b")),
            ("id", id.clone()),
            ("ts", Json::u64(t0)),
            ("pid", Json::u64(pid)),
            ("tid", Json::u64(c0 as u64)),
        ]));
        events.push(ev(vec![
            ("name", name),
            ("cat", Json::str("task")),
            ("ph", Json::str("e")),
            ("id", id),
            ("ts", Json::u64(t1)),
            ("pid", Json::u64(pid)),
            ("tid", Json::u64(c1 as u64)),
        ]));
    }
}

/// The burdened critical-path chain as a highlighted extra track.
///
/// Emitted only for profiled runs (task events + attribution spans both
/// recorded): one thread per run, tid one past the last core, carrying an
/// `"X"` span per chain task over its execution window. Parent windows
/// contain the child windows they descend into, so the track renders as a
/// nested flame of the chain in the Perfetto UI; `args` carry the task id,
/// executing core, and whether the task was stolen (a core crossing on
/// the path).
fn emit_critpath_track(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    if !crate::critpath::profiled(r.run) {
        return;
    }
    let Ok(cp) = crate::critpath::replay_run(r.run, crate::critpath::CycleLens::Burdened) else {
        return;
    };
    let tid = r.run.report.core_cycles.len() as u64;
    events.push(ev(vec![
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::u64(pid)),
        ("tid", Json::u64(tid)),
        ("args", Json::Obj(vec![("name".into(), Json::str("critical path"))])),
    ]));
    for link in &cp.chain {
        events.push(ev(vec![
            ("name", Json::str(format!("task {}", link.task))),
            ("cat", Json::str("critpath")),
            ("ph", Json::str("X")),
            ("ts", Json::u64(link.exec_begin)),
            ("dur", Json::u64(link.exec_end.saturating_sub(link.exec_begin))),
            ("pid", Json::u64(pid)),
            ("tid", Json::u64(tid)),
            (
                "args",
                Json::Obj(vec![
                    ("core".into(), Json::u64(link.core as u64)),
                    ("stolen".into(), Json::Bool(link.stolen)),
                ]),
            ),
        ]));
    }
}

/// ULI request/response pairs as flow arrows.
///
/// The history's four ULI protocol points are FIFO-paired per directed
/// `(sender, receiver)` pair — the ULI network delivers in order per pair,
/// so the k-th send matches the k-th receive. Under fault injection a send
/// may have been dropped in flight; unmatched events are skipped (a flow
/// arrow needs both ends).
fn emit_uli_flows(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>, flow_id: &mut u64) {
    // (sender, receiver, is_response) -> (send cycles, recv cycles)
    type PairKey = (usize, usize, bool);
    let mut pairs: BTreeMap<PairKey, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (core, history) in r.run.report.flight_history.iter().enumerate() {
        for e in history {
            let (key, send) = match e.kind {
                FlightKind::UliReqSend { to } => ((core, to, false), true),
                FlightKind::UliReqRecv { from } => ((from, core, false), false),
                FlightKind::UliRespSend { to } => ((core, to, true), true),
                FlightKind::UliRespRecv { from } => ((from, core, true), false),
                _ => continue,
            };
            let (sends, recvs) = pairs.entry(key).or_default();
            if send { sends } else { recvs }.push(e.time);
        }
    }
    for ((sender, receiver, is_resp), (sends, recvs)) in pairs {
        let name = if is_resp { "uli_resp" } else { "uli_req" };
        for (s_cycle, r_cycle) in sends.iter().zip(recvs.iter()) {
            let id = Json::u64(*flow_id);
            *flow_id += 1;
            events.push(ev(vec![
                ("name", Json::str(name)),
                ("cat", Json::str("uli")),
                ("ph", Json::str("s")),
                ("id", id.clone()),
                ("ts", Json::u64(*s_cycle)),
                ("pid", Json::u64(pid)),
                ("tid", Json::u64(sender as u64)),
            ]));
            events.push(ev(vec![
                ("name", Json::str(name)),
                ("cat", Json::str("uli")),
                ("ph", Json::str("f")),
                ("bp", Json::str("e")),
                ("id", id),
                ("ts", Json::u64((*r_cycle).max(*s_cycle))),
                ("pid", Json::u64(pid)),
                ("tid", Json::u64(receiver as u64)),
            ]));
        }
    }
}

/// Counts from a structurally valid trace document.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TraceSummary {
    /// `"X"` complete events.
    pub complete: usize,
    /// Balanced async `"b"`/`"e"` pairs.
    pub async_pairs: usize,
    /// Matched `"s"`/`"f"` flow pairs.
    pub flows: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"M"` metadata events.
    pub metadata: usize,
}

fn num_field(e: &Json, key: &str) -> Result<f64, String> {
    e.get(key).and_then(Json::as_num).ok_or_else(|| format!("event missing numeric {key:?}: {e}"))
}

fn id_key(e: &Json) -> Result<String, String> {
    match e.get("id") {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(Json::Num(n)) => Ok(format!("#{n}")),
        _ => Err(format!("event missing id: {e}")),
    }
}

/// Structurally validates a Chrome trace-event document:
///
/// * `traceEvents` is an array, every event an object with a known `ph`,
///   a `pid`, and (except metadata) a finite non-negative `ts`;
/// * every `"X"` has a non-negative `dur`;
/// * async `"b"`/`"e"` events pair 1:1 per `(cat, id)` with begin ≤ end;
/// * flow `"s"`/`"f"` events pair 1:1 per id with start ≤ finish.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceSummary, String> {
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary::default();
    // (cat, id) -> (begin cycles, end cycles) for async; id -> same for flows.
    let mut asyncs: BTreeMap<(String, String), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut flows: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for e in events {
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event missing ph: {e}"))?;
        num_field(e, "pid")?;
        if ph != "M" {
            let ts = num_field(e, "ts")?;
            if ts < 0.0 {
                return Err(format!("negative ts: {e}"));
            }
        }
        match ph {
            "M" => {
                e.get("name").and_then(Json::as_str).ok_or("metadata event without name")?;
                summary.metadata += 1;
            }
            "X" => {
                if num_field(e, "dur")? < 0.0 {
                    return Err(format!("negative dur: {e}"));
                }
                summary.complete += 1;
            }
            "b" | "e" => {
                let cat = e
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("async event missing cat: {e}"))?;
                let slot = asyncs.entry((cat.to_owned(), id_key(e)?)).or_default();
                let ts = num_field(e, "ts")?;
                if ph == "b" {
                    slot.0.push(ts);
                } else {
                    slot.1.push(ts);
                }
            }
            "s" | "f" => {
                let slot = flows.entry(id_key(e)?).or_default();
                let ts = num_field(e, "ts")?;
                if ph == "s" {
                    slot.0.push(ts);
                } else {
                    slot.1.push(ts);
                }
            }
            "i" => summary.instants += 1,
            other => return Err(format!("unknown event phase {other:?}: {e}")),
        }
    }
    for ((cat, id), (begins, ends)) in &asyncs {
        if begins.len() != 1 || ends.len() != 1 {
            return Err(format!(
                "async {cat}/{id}: {} begins, {} ends (want 1:1)",
                begins.len(),
                ends.len()
            ));
        }
        if begins[0] > ends[0] {
            return Err(format!("async {cat}/{id}: begin {} after end {}", begins[0], ends[0]));
        }
        summary.async_pairs += 1;
    }
    for (id, (starts, finishes)) in &flows {
        if starts.len() != 1 || finishes.len() != 1 {
            return Err(format!(
                "flow {id}: {} starts, {} finishes (want 1:1)",
                starts.len(),
                finishes.len()
            ));
        }
        if starts[0] > finishes[0] {
            return Err(format!("flow {id}: start {} after finish {}", starts[0], finishes[0]));
        }
        summary.flows += 1;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::testutil::small_run_n;
    use bigtiny_core::RuntimeKind;

    #[test]
    fn dts_trace_exports_and_validates() {
        let run = small_run_n(RuntimeKind::Dts, 11, true, true);
        let tr = TraceRun { app: "fib", setup: "b.T/HCC-DTS-gwb", run: &run };
        let doc = export_chrome_trace(&[tr]);
        let s = validate_chrome_trace(&doc).expect("self-emitted trace validates");
        assert!(s.complete > 0, "core spans present");
        assert!(s.async_pairs > 0, "task lifetimes present");
        assert!(s.flows > 0, "ULI flow arrows present");
        assert!(s.instants as u64 >= run.stats.steals, "steal instants present");
        // 1 process_name + one thread_name per core
        assert_eq!(s.metadata, 1 + run.report.traces.len());
        // Each DTS steal is a request and a response round trip. Almost
        // every ULI protocol event pairs into a flow — except a
        // completion-race tail: when the program finishes, an already-sent
        // request or response can go forever un-received (at most one
        // in-flight message per core).
        // The history holds the task events plus the ULI events.
        let history: usize = run.report.flight_history.iter().map(Vec::len).sum();
        let uli = history - run.task_events.len();
        let unmatched = uli - s.flows * 2;
        assert!(
            unmatched <= run.report.traces.len(),
            "at most one unmatched in-flight ULI event per core: {unmatched} from {uli} events"
        );
        // The document survives its own strict parser.
        let text = doc.to_json();
        assert_eq!(validate_chrome_trace(&parse_json(&text).unwrap()).unwrap(), s);
    }

    #[test]
    fn flow_arrows_point_forward_in_time() {
        let mut run = small_run_n(RuntimeKind::Dts, 11, true, true);
        // Flow arrows come from the flight history alone, not the task view.
        run.task_events.clear();
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "dts", run: &run }]);
        // validate_chrome_trace enforces start <= finish for every flow.
        let s = validate_chrome_trace(&doc).unwrap();
        assert!(s.flows > 0);
        assert_eq!(s.async_pairs, 0, "no task events recorded, no async spans");
    }

    #[test]
    fn multi_run_documents_keep_ids_distinct() {
        let a = small_run_n(RuntimeKind::Dts, 9, true, true);
        let b = small_run_n(RuntimeKind::Hcc, 9, true, true);
        let doc = export_chrome_trace(&[
            TraceRun { app: "fib", setup: "dts", run: &a },
            TraceRun { app: "fib", setup: "hcc", run: &b },
        ]);
        // Same task ids exist in both runs; validation would report a 2:2
        // async pairing if the ids collided across pids.
        validate_chrome_trace(&doc).expect("cross-run ids stay unique");
    }

    #[test]
    fn validator_rejects_unbalanced_documents() {
        let bad = |events: &str| -> String {
            let doc = parse_json(&format!("{{\"traceEvents\":{events}}}")).unwrap();
            validate_chrome_trace(&doc).unwrap_err()
        };
        let b = r#"{"name":"t","cat":"task","ph":"b","id":"x","ts":5,"pid":1,"tid":0}"#;
        let e_early = r#"{"name":"t","cat":"task","ph":"e","id":"x","ts":2,"pid":1,"tid":0}"#;
        assert!(bad(&format!("[{b}]")).contains("1 begins, 0 ends"));
        assert!(bad(&format!("[{b},{e_early}]")).contains("after end"));
        let s = r#"{"name":"u","cat":"uli","ph":"s","id":7,"ts":5,"pid":1,"tid":0}"#;
        assert!(bad(&format!("[{s}]")).contains("1 starts, 0 finishes"));
        assert!(bad(r#"[{"ph":"X","pid":1,"ts":0,"dur":-1}]"#).contains("negative dur"));
        assert!(bad(r#"[{"ph":"??","pid":1,"ts":0}]"#).contains("unknown event phase"));
        assert!(validate_chrome_trace(&parse_json(r#"{"traceEvents":[]}"#).unwrap()).is_ok());
    }

    #[test]
    fn profiled_run_gets_a_critical_path_track() {
        use crate::critpath::{replay_run, CycleLens};
        use crate::testutil::small_run_profiled;
        let run = small_run_profiled(RuntimeKind::Dts, 10);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "dts", run: &run }]);
        let s = validate_chrome_trace(&doc).expect("profiled trace validates");
        let cp = replay_run(&run, CycleLens::Burdened).unwrap();
        assert!(!cp.chain.is_empty(), "burdened replay yields a chain");
        // Per-core tracing is off, so the only X spans are the chain's, and
        // the metadata adds the critical-path thread name.
        assert_eq!(s.complete, cp.chain.len());
        assert_eq!(s.metadata, 1 + run.report.traces.len() + 1);
        // An unprofiled run of the same shape emits no critpath track.
        let plain = small_run_n(RuntimeKind::Dts, 10, false, true);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "dts", run: &plain }]);
        let s = validate_chrome_trace(&doc).unwrap();
        assert_eq!(s.complete, 0);
        assert_eq!(s.metadata, 1 + plain.report.traces.len());
    }

    #[test]
    fn disabled_trace_run_exports_an_empty_but_valid_document() {
        let run = small_run_n(RuntimeKind::Baseline, 8, false, false);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "base", run: &run }]);
        let s = validate_chrome_trace(&doc).unwrap();
        assert_eq!(s.complete, 0);
        assert_eq!(s.flows, 0);
    }
}
