//! Engine perf-regression harness.
//!
//! Runs a pinned kernel subset across the four coherence protocols and
//! reports *host* wall-seconds and sequenced-ops/sec alongside the
//! simulated-cycle counts and the sequenced-op-stream hash. The point is
//! to track the engine's own speed over time: simulated results must stay
//! bit-for-bit identical (the hash pins that; see
//! `tests/tests/golden_trace.rs`), while wall time should only go down.
//!
//! Writes `BENCH_engine.json` at the repo root (or `$BIGTINY_BENCH_OUT`),
//! one JSON object for the whole run with a per-(kernel × setup) array.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin perf_regress            # eval inputs (default)
//! BIGTINY_SIZE=test cargo run --release --bin perf_regress   # CI smoke
//! ```

use bigtiny_apps::app_by_name;
use bigtiny_bench::{geomean, render_table, run_app, size_from_env, Setup};
use bigtiny_engine::Protocol;
use std::time::Instant;

/// The pinned kernel subset: one divide-and-conquer kernel, one
/// dense-compute kernel, one irregular graph kernel. Changing this list
/// invalidates cross-PR comparisons, so don't.
const PINNED_APPS: [&str; 3] = ["cilk5-nq", "cilk5-mm", "ligra-bfs"];

/// The four protocols, each in its paper-native runtime pairing: MESI with
/// the baseline work-stealing runtime, the three HCC protocols with DTS.
fn pinned_setups() -> Vec<Setup> {
    vec![
        Setup::bt_mesi(),
        Setup::bt_hcc(Protocol::DeNovo, true),
        Setup::bt_hcc(Protocol::GpuWt, true),
        Setup::bt_hcc(Protocol::GpuWb, true),
    ]
}

struct PerfRow {
    app: &'static str,
    setup: String,
    cycles: u64,
    seq_grants: u64,
    seq_fast_grants: u64,
    seq_op_hash: u64,
    wall_s: f64,
    ops_per_sec: f64,
}

fn main() {
    let size = size_from_env();
    let setups = pinned_setups();
    // Zero-overhead guard: timed runs must never carry an armed checker —
    // event recording would perturb wall time and allocation behaviour,
    // and an armed run is not comparable with the historical series.
    for setup in &setups {
        assert_eq!(
            setup.sys.check,
            bigtiny_engine::CheckMode::Off,
            "{}: perf_regress setups must run with the checker off",
            setup.label
        );
    }
    let mut rows: Vec<PerfRow> = Vec::new();

    let t_total = Instant::now();
    for name in PINNED_APPS {
        let app = app_by_name(name).unwrap_or_else(|| panic!("unknown pinned kernel {name}"));
        for setup in &setups {
            let t0 = Instant::now();
            let r = run_app(setup, &app, size, 0);
            let wall_s = t0.elapsed().as_secs_f64();
            let grants = r.run.report.seq_grants;
            rows.push(PerfRow {
                app: r.app,
                setup: r.setup.clone(),
                cycles: r.cycles,
                seq_grants: grants,
                seq_fast_grants: r.run.report.seq_fast_grants,
                seq_op_hash: r.run.report.seq_op_hash,
                wall_s,
                ops_per_sec: grants as f64 / wall_s.max(1e-9),
            });
            eprintln!(
                "[perf] {:<10} {:<16} {:>11} grants ({:>4.1}% fast)  {:>6.2}s  {:>10.0} ops/s",
                name,
                setup.label,
                grants,
                100.0 * r.run.report.seq_fast_grants as f64 / grants.max(1) as f64,
                wall_s,
                grants as f64 / wall_s.max(1e-9)
            );
        }
    }
    // One recorder-off row: the pinned rows above all run with the
    // default flight ring armed (it is always-on), so re-running one of
    // them with the ring at capacity 0 prices the recorder itself. Its op
    // hash must match the armed run of the same cell — the recorder is
    // observation-only — so the row tracks both overhead and invariance.
    {
        let app = app_by_name("cilk5-nq").unwrap();
        let mut setup = Setup::bt_hcc(Protocol::GpuWb, true);
        let armed_hash = rows
            .iter()
            .find(|r| r.app == "cilk5-nq" && r.setup == setup.label)
            .map(|r| r.seq_op_hash);
        setup.label.push_str("+flight-off");
        setup.sys = setup.sys.clone().with_flight_ring(0);
        let t0 = Instant::now();
        let r = run_app(&setup, &app, size, 0);
        let wall_s = t0.elapsed().as_secs_f64();
        let grants = r.run.report.seq_grants;
        if let Some(h) = armed_hash {
            assert_eq!(
                h, r.run.report.seq_op_hash,
                "flight recorder perturbed the op stream (armed vs ring-off hash mismatch)"
            );
        }
        rows.push(PerfRow {
            app: r.app,
            setup: r.setup.clone(),
            cycles: r.cycles,
            seq_grants: grants,
            seq_fast_grants: r.run.report.seq_fast_grants,
            seq_op_hash: r.run.report.seq_op_hash,
            wall_s,
            ops_per_sec: grants as f64 / wall_s.max(1e-9),
        });
        eprintln!(
            "[perf] {:<10} {:<16} {:>11} grants ({:>4.1}% fast)  {:>6.2}s  {:>10.0} ops/s",
            r.app,
            setup.label,
            grants,
            100.0 * r.run.report.seq_fast_grants as f64 / grants.max(1) as f64,
            wall_s,
            grants as f64 / wall_s.max(1e-9)
        );
    }
    let total_wall = t_total.elapsed().as_secs_f64();

    let header: Vec<String> = ["app", "setup", "sim cycles", "seq ops", "wall s", "ops/s"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_owned(),
                r.setup.clone(),
                r.cycles.to_string(),
                r.seq_grants.to_string(),
                format!("{:.3}", r.wall_s),
                format!("{:.0}", r.ops_per_sec),
            ]
        })
        .collect();
    println!("Engine perf regression ({} runs)", rows.len());
    println!("{}", render_table(&header, &table));

    let total_ops: u64 = rows.iter().map(|r| r.seq_grants).sum();
    let agg_ops_per_sec = total_ops as f64 / total_wall.max(1e-9);
    let geo_ops_per_sec = geomean(rows.iter().map(|r| r.ops_per_sec));
    println!(
        "total:   {total_ops} sequenced ops in {total_wall:.2}s  ({agg_ops_per_sec:.0} ops/s)"
    );
    println!("geomean: {geo_ops_per_sec:.0} ops/s across runs");

    let out_path =
        std::env::var("BIGTINY_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_owned());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"bench\": \"engine\",\n  \"size\": \"{}\",\n", size_label(size)));
    json.push_str(&format!(
        "  \"total_seq_ops\": {total_ops},\n  \"total_wall_s\": {total_wall:.6},\n"
    ));
    json.push_str(&format!(
        "  \"agg_ops_per_sec\": {agg_ops_per_sec:.1},\n  \"geomean_ops_per_sec\": {geo_ops_per_sec:.1},\n"
    ));
    json.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"app\":\"{}\",\"setup\":\"{}\",\"cycles\":{},\"seq_grants\":{},",
                "\"seq_fast_grants\":{},",
                "\"seq_op_hash\":\"{:#018x}\",\"wall_s\":{:.6},\"ops_per_sec\":{:.1}}}{}\n"
            ),
            r.app,
            r.setup,
            r.cycles,
            r.seq_grants,
            r.seq_fast_grants,
            r.seq_op_hash,
            r.wall_s,
            r.ops_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("[perf] wrote {out_path}");
}

fn size_label(size: bigtiny_apps::AppSize) -> &'static str {
    match size {
        bigtiny_apps::AppSize::Test => "test",
        bigtiny_apps::AppSize::Eval => "eval",
        bigtiny_apps::AppSize::Large => "large",
    }
}
