//! Shared test fixture: a small fib run on a 1-big + 7-tiny GPU-WB system.

use std::sync::Arc;

use bigtiny_core::{
    parallel_invoke, run_task_parallel, RuntimeConfig, RuntimeKind, TaskCx, TaskRun,
};
use bigtiny_engine::{AddrSpace, Protocol, ShVec, SystemConfig};
use bigtiny_mesh::{MeshConfig, Topology};

fn fib(cx: &mut TaskCx<'_>, out: Arc<ShVec<u64>>, slot: usize, n: u64) {
    cx.port().advance(6);
    if n < 2 {
        out.write(cx.port(), slot, n);
        return;
    }
    let (a, b) = (Arc::clone(&out), Arc::clone(&out));
    let (sa, sb) = (2 * slot + 1, 2 * slot + 2);
    parallel_invoke(cx, move |cx| fib(cx, a, sa, n - 1), move |cx| fib(cx, b, sb, n - 2));
    let x = out.read(cx.port(), sa);
    let y = out.read(cx.port(), sb);
    out.write(cx.port(), slot, x + y);
}

/// Runs fib(`n`) under `kind` on a 2×4-mesh 1-big/7-tiny GPU-WB machine
/// whose configuration `arm` adjusts first.
fn run_fib(kind: RuntimeKind, n: u64, arm: impl FnOnce(&mut SystemConfig)) -> TaskRun {
    let mut sys = SystemConfig::big_tiny(
        "obs-test",
        MeshConfig::with_topology(Topology::new(2, 4)),
        1,
        7,
        Protocol::GpuWb,
    );
    arm(&mut sys);
    let mut space = AddrSpace::new();
    let out = Arc::new(ShVec::new(&mut space, 1 << (n + 1), 0u64));
    let o = Arc::clone(&out);
    run_task_parallel(&sys, &RuntimeConfig::new(kind), &mut space, move |cx| fib(cx, o, 0, n))
}

/// Runs fib(`n`) under `kind` with optional tracing and flight history
/// (task and ULI events).
pub fn small_run_n(kind: RuntimeKind, n: u64, trace: bool, history: bool) -> TaskRun {
    run_fib(kind, n, |sys| {
        sys.trace = trace;
        sys.flight_history = history;
    })
}

/// [`small_run_n`] at fib(10) without tracing.
pub fn small_run(kind: RuntimeKind) -> TaskRun {
    small_run_n(kind, 10, false, false)
}

/// Runs fib(`n`) under `kind` with everything the critical-path profiler
/// needs armed: the flight history (task events) and per-task attribution
/// spans.
pub fn small_run_profiled(kind: RuntimeKind, n: u64) -> TaskRun {
    run_fib(kind, n, |sys| {
        sys.attr = true;
        sys.flight_history = true;
    })
}
