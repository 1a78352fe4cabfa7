//! System assembly and the simulation driver.

use std::sync::Arc;

use bigtiny_coherence::{CoreMemStats, MemorySystem};
use bigtiny_mesh::{TrafficStats, UliNetwork};

use crate::breakdown::TimeBreakdown;
use crate::config::{ExecBackend, SchedulePolicy, SystemConfig};
use crate::event::{CheckMode, MemEvent};
use crate::fault::{FaultCounters, FaultPlan};
use crate::flight::{FlightEvent, LiveCounters};
use crate::port::{CorePort, PortReport};
use crate::sequencer::{ChoicePoint, Sequencer, POISON_MSG};
use crate::sync::Mutex;
use crate::watchdog::{
    record_bundle, DiagnosticBundle, PoisonReason, WatchdogConfig, WATCHDOG_MSG,
};

/// All mutable simulated state, accessed only under the sequencer token.
pub(crate) struct GlobalState {
    pub mem: MemorySystem,
    pub uli: UliNetwork,
    pub done: bool,
    pub done_time: u64,
}

/// State shared by every core thread.
pub(crate) struct Shared {
    pub seq: Sequencer,
    pub state: Mutex<GlobalState>,
    /// Heartbeat live-counter sink each port publishes into (`None` unless
    /// a heartbeat is armed).
    pub live: Option<Arc<LiveCounters>>,
}

/// A worker body: the code one simulated core runs.
pub type Worker = Box<dyn FnOnce(&mut CorePort) + Send + 'static>;

type PortReports = Arc<Mutex<Vec<Option<PortReport>>>>;
type Panics = Arc<Mutex<Vec<Box<dyn std::any::Any + Send>>>>;

/// The per-core configuration a core execution context needs, extracted so
/// it can move into a `'static` closure.
#[derive(Clone)]
struct CoreParams {
    kind: crate::config::CoreKind,
    seed: u64,
    faults: FaultPlan,
    issue_width: u64,
    overlap_div: u64,
    uli_cost: u64,
    trace: bool,
    check: bool,
    attr: bool,
    flight_ring: usize,
    flight_history: bool,
    num_cores: usize,
}

impl CoreParams {
    fn of(config: &SystemConfig, core: usize) -> Self {
        let kind = config.cores[core].kind;
        CoreParams {
            kind,
            seed: config.seed,
            faults: config.faults.clone(),
            issue_width: config.big_issue_width,
            overlap_div: config.big_overlap_div,
            uli_cost: match kind {
                crate::config::CoreKind::Big => config.uli_cost_big,
                crate::config::CoreKind::Tiny => config.uli_cost_tiny,
            },
            trace: config.trace,
            check: config.check.armed(),
            attr: config.attr,
            flight_ring: config.flight_ring,
            flight_history: config.flight_history,
            num_cores: config.num_cores(),
        }
    }

    fn build_port(self, core: usize, shared: &Arc<Shared>) -> CorePort {
        let mut port = CorePort::new(
            core,
            self.kind,
            Arc::clone(shared),
            self.seed,
            self.faults,
            self.issue_width,
            self.overlap_div,
            self.uli_cost,
            self.num_cores,
        );
        if self.trace {
            port.enable_trace();
        }
        if self.check {
            port.enable_events();
        }
        if self.attr {
            port.enable_attr();
        }
        port.set_flight_log(self.flight_ring, self.flight_history);
        if let Some(live) = &shared.live {
            port.set_live(Arc::clone(live));
        }
        port
    }
}

/// The concrete execution backend a run resolved to (see [`ExecBackend`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Threads,
    Fibers,
}

impl Backend {
    /// Stable lower-case name used in black-box dump headers.
    fn label(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Fibers => "fibers",
        }
    }
}

/// The stable lower-case name of the backend a run of `config` resolves to
/// (`threads` or `fibers`) — the same string
/// [`DiagnosticBundle::backend`](crate::DiagnosticBundle) carries, for
/// harnesses labelling black-box dumps of runs that completed without a
/// bundle. `Auto` resolution consults `BIGTINY_BACKEND`, so call it in the
/// same environment as the run.
pub fn backend_label(config: &SystemConfig) -> &'static str {
    resolve_backend(config).label()
}

/// Decides which backend this run executes cores on (see [`ExecBackend`]).
fn resolve_backend(config: &SystemConfig) -> Backend {
    let supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    match config.backend {
        ExecBackend::Threads => Backend::Threads,
        ExecBackend::Fibers => {
            assert!(supported, "ExecBackend::Fibers requires x86_64 Linux");
            Backend::Fibers
        }
        ExecBackend::Auto => {
            let env = std::env::var_os("BIGTINY_BACKEND");
            match backend_override(env.as_ref().map(|v| v.to_string_lossy()).as_deref()) {
                Some(Backend::Threads) => Backend::Threads,
                _ if supported => Backend::Fibers,
                _ => Backend::Threads,
            }
        }
    }
}

/// Parses a `BIGTINY_BACKEND` value: unset means no override, `threads`
/// and `fibers` pick that backend.
///
/// # Panics
///
/// Panics on any other value, so a typo never silently falls back to the
/// default backend.
fn backend_override(value: Option<&str>) -> Option<Backend> {
    match value {
        None => None,
        Some("threads") => Some(Backend::Threads),
        Some("fibers") => Some(Backend::Fibers),
        Some(other) => {
            panic!("BIGTINY_BACKEND=`{other}` is not a backend; accepted values: threads, fibers")
        }
    }
}

/// Runs every core on its own OS thread (the portable backend, and the
/// reference the fiber backend is pinned against).
fn run_cores_on_threads(
    config: &SystemConfig,
    workers: Vec<Worker>,
    shared: &Arc<Shared>,
    reports: &PortReports,
    panics: &Panics,
) {
    let mut handles = Vec::with_capacity(workers.len());
    for (core, worker) in workers.into_iter().enumerate() {
        let shared = Arc::clone(shared);
        let reports = Arc::clone(reports);
        let panics = Arc::clone(panics);
        let params = CoreParams::of(config, core);
        let handle = std::thread::Builder::new()
            .name(format!("sim-core-{core}"))
            .stack_size(config.core_stack_bytes())
            .spawn(move || {
                let mut port = params.build_port(core, &shared);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker(&mut port);
                }));
                match result {
                    Ok(()) => {
                        shared.seq.retire(core);
                        reports.lock()[core] = Some(port.into_report());
                    }
                    Err(payload) => {
                        panics.lock().push(payload);
                        shared.seq.poison();
                        // Keep the partial report: the crash diagnostic is
                        // assembled from it after every thread has unwound.
                        reports.lock()[core] = Some(port.into_report());
                    }
                }
            })
            .expect("spawn simulated core thread");
        handles.push(handle);
    }
    for h in handles {
        let _ = h.join();
    }
}

/// Runs every core as a stackful fiber on the calling thread. A token
/// handoff is a user-space stack switch, with no kernel involvement; the
/// sequenced-op stream is identical to the threaded backend's because both
/// share the sequencer's grant-selection logic.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run_cores_on_fibers(
    config: &SystemConfig,
    workers: Vec<Worker>,
    shared: &Arc<Shared>,
    reports: &PortReports,
    panics: &Panics,
) {
    use crate::fiber::{Fiber, FiberId, FiberRt};

    let num_cores = workers.len();
    let stack_bytes = config.core_stack_bytes();
    // The runtime outlives every fiber switch: `shared` is kept alive by the
    // caller's Arc until after this function returns, by which point all
    // fibers are done.
    let rt_ptr: *const FiberRt = shared.seq.fiber_rt().expect("fiber backend installed");

    let mut fibers = Vec::with_capacity(num_cores);
    for (core, worker) in workers.into_iter().enumerate() {
        let shared = Arc::clone(shared);
        let reports = Arc::clone(reports);
        let panics = Arc::clone(panics);
        let params = CoreParams::of(config, core);
        let entry = Box::new(move || {
            let mut port = params.build_port(core, &shared);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker(&mut port);
            }));
            let next = match result {
                Ok(()) => shared.seq.retire_fiber_target(core),
                Err(payload) => {
                    panics.lock().push(payload);
                    shared.seq.poison();
                    FiberId::Launcher
                }
            };
            reports.lock()[core] = Some(port.into_report());
            // Control never returns to this closure, so its captured state
            // would otherwise leak: drop every owned handle before the final
            // switch. Nothing else runs concurrently, so the order is safe.
            drop(shared);
            drop(reports);
            drop(panics);
            // SAFETY: `rt_ptr` stays valid (see above); this fiber is marked
            // done and is never resumed, so switching away without a saved
            // return path is fine.
            unsafe {
                (*rt_ptr).mark_done(core);
                (*rt_ptr).switch(FiberId::Core(core), next);
            }
            unreachable!("a finished fiber must never be resumed");
        });
        fibers.push(Fiber::new(stack_bytes, entry));
    }

    let rt = shared.seq.fiber_rt().expect("fiber backend installed");
    for (core, fiber) in fibers.iter().enumerate() {
        rt.set_initial(core, fiber.initial_ctx());
    }

    // Launcher loop. First start every fiber in core order (the threaded
    // backend's spawn order); each runs until its first suspension. After
    // that, control only comes back here when all fibers are done or — under
    // poison — when a retiring/panicking fiber has nobody to hand the token
    // to; resuming a still-waiting fiber then makes its sequencer re-entry
    // observe the poison and unwind, draining the run.
    let mut next_start = 0;
    loop {
        let target = if next_start < num_cores {
            next_start += 1;
            Some(next_start - 1)
        } else {
            (0..num_cores).find(|&c| !rt.is_done(c))
        };
        let Some(core) = target else { break };
        // SAFETY: the target fiber is live (not done) and suspended (or
        // unstarted), and we are the only thread that ever switches fibers.
        unsafe { rt.switch(FiberId::Launcher, FiberId::Core(core)) };
    }
    // Dropping `fibers` unmaps every stack; all fibers are done here.
}

/// Summary of the ULI network's activity during a run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct UliReport {
    /// Total ULI messages (requests, responses, NACKs).
    pub messages: u64,
    /// NACKed steal requests.
    pub nacks: u64,
    /// Mean message latency in cycles.
    pub mean_latency: f64,
    /// Mean message hop count.
    pub mean_hops: f64,
    /// ULI bytes transferred.
    pub bytes: u64,
    /// Link utilization of the ULI mesh over the run, in `[0, 1]`.
    pub utilization: f64,
}

/// Everything measured during one simulated run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Name of the configuration that produced this run.
    pub config_name: String,
    /// Cycle at which the program signalled completion.
    pub completion_cycles: u64,
    /// Final local clock of each core.
    pub core_cycles: Vec<u64>,
    /// Execution-time breakdown of each core.
    pub breakdowns: Vec<TimeBreakdown>,
    /// Instructions retired by each core.
    pub instructions: Vec<u64>,
    /// Per-core memory statistics.
    pub mem_stats: Vec<CoreMemStats>,
    /// Data-OCN traffic.
    pub traffic: TrafficStats,
    /// ULI network summary.
    pub uli: UliReport,
    /// Stale reads detected (must be zero for a correct runtime).
    pub stale_reads: u64,
    /// Per-core execution traces (empty unless `SystemConfig::trace`).
    pub traces: Vec<Vec<crate::trace::TraceEvent>>,
    /// Faults injected over the run, summed across cores (all zero with
    /// [`FaultPlan::none()`](crate::FaultPlan::none)).
    pub fault_counters: FaultCounters,
    /// Latency spikes injected on the data OCN.
    pub mesh_fault_spikes: u64,
    /// Total sequencer token grants (the unit of the watchdog budget).
    pub seq_grants: u64,
    /// Grants that took the sequencer's inline fast re-grant path (a
    /// host-performance diagnostic; has no simulated-time meaning).
    pub seq_fast_grants: u64,
    /// Order-sensitive hash of the sequenced-op stream (every `(time,
    /// core)` token grant, in grant order). Identical runs produce
    /// identical hashes; golden-trace tests pin this value to prove engine
    /// wall-clock optimizations are invisible to simulated results.
    pub seq_op_hash: u64,
    /// Per-core per-task attribution spans (empty unless
    /// [`SystemConfig::attr`]): each core's spans tile `[0, clock]`
    /// without gaps or overlap, each carrying the [`TimeBreakdown`] of its
    /// interval.
    pub attr_spans: Vec<Vec<crate::port::AttrSpan>>,
    /// The DRF checker's event stream, in sequenced (grant) order. Empty
    /// unless [`SystemConfig::check`] is armed: collection buffers events
    /// per core and merges them here. Under the default
    /// [`SchedulePolicy::MinCore`] the merge sorts by `(cycle, core,
    /// per-core index)`, which reproduces grant order because per-core
    /// clocks are nondecreasing and the sequencer breaks time ties by core
    /// id; under [`SchedulePolicy::Scripted`] ties may be broken against
    /// core order, so the merge instead sorts by the grant stamp each
    /// event carries in its per-core buffer.
    pub mem_events: Vec<MemEvent>,
    /// Every tie-break choice point the sequencer recorded, in grant
    /// order. Always empty under [`SchedulePolicy::MinCore`]; under
    /// [`SchedulePolicy::Scripted`] one entry per grant where two or more
    /// waiters shared the minimum time.
    pub choice_points: Vec<ChoicePoint>,
    /// Per-core flight-recorder tails (the last
    /// [`SystemConfig::flight_ring`] events per core, in chronological
    /// order; inner vectors empty when the ring is disabled). Observation
    /// only: recording never perturbs a simulated cycle.
    pub flight: Vec<Vec<FlightEvent>>,
    /// Events ever recorded on each core's ring (each `flight[i]` keeps
    /// the last `flight_ring` of them).
    pub flight_totals: Vec<u64>,
    /// Per-core flight histories of task lifecycle and ULI protocol events
    /// in time order (empty unless [`SystemConfig::flight_history`]).
    pub flight_history: Vec<Vec<FlightEvent>>,
}

impl RunReport {
    /// Total instructions retired across all cores.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }

    /// Aggregate L1D hit rate over the given cores.
    pub fn l1d_hit_rate(&self, cores: &[usize]) -> f64 {
        bigtiny_coherence::aggregate(cores.iter().map(|c| &self.mem_stats[*c])).l1d_hit_rate()
    }

    /// Aggregate memory stats over the given cores.
    pub fn mem_stats_over(&self, cores: &[usize]) -> CoreMemStats {
        bigtiny_coherence::aggregate(cores.iter().map(|c| &self.mem_stats[*c]))
    }

    /// Aggregate time breakdown over the given cores.
    pub fn breakdown_over(&self, cores: &[usize]) -> TimeBreakdown {
        let mut total = TimeBreakdown::new();
        for c in cores {
            total += self.breakdowns[*c];
        }
        total
    }

    /// Total data-OCN bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.traffic.total_data_bytes()
    }
}

/// Runs `workers[i]` on core `i` of a system configured by `config` and
/// collects a [`RunReport`].
///
/// The simulation is deterministic: the same configuration (including its
/// seed and fault plan) and the same worker code produce identical reports.
///
/// # Panics
///
/// Panics if `workers.len() != config.num_cores()`, re-raises the first
/// panic raised by any worker, or — when the configured liveness watchdog
/// trips — panics with a message starting with
/// [`WATCHDOG_MSG`](crate::WATCHDOG_MSG) followed by a rendered
/// [`DiagnosticBundle`].
pub fn run_system(config: &SystemConfig, workers: Vec<Worker>) -> RunReport {
    assert_eq!(workers.len(), config.num_cores(), "one worker per core required");
    // Fault injection can drop ULI messages after the sender has already
    // recorded the send, which would break the checker's FIFO pairing of
    // request/response edges; chaos runs and conformance runs are
    // different experiments, so just forbid the combination.
    assert!(
        config.check == CheckMode::Off || !config.faults.is_active(),
        "DRF checking cannot be combined with fault injection"
    );
    let num_cores = config.num_cores();
    let backend = resolve_backend(config);
    #[allow(unused_mut)]
    let mut seq = Sequencer::new(num_cores);
    seq.set_policy(config.schedule.clone());
    if let Some(budget) = config.watchdog_budget {
        seq.set_watchdog(WatchdogConfig { budget, wall_ms: config.watchdog_wall_ms });
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    if backend == Backend::Fibers {
        seq.set_fiber_backend(crate::fiber::FiberRt::new(num_cores));
    }
    // Heartbeat arming: the live counters the ports publish into and the
    // sequencer hook that snapshots them every K grants. `None` keeps both
    // at literally zero cost (never-taken branches).
    let live = config.heartbeat.as_ref().map(|hb| {
        let live = Arc::new(LiveCounters::new(num_cores));
        seq.set_heartbeat(hb.clone(), Arc::clone(&live));
        live
    });
    let mut mem = MemorySystem::new(&config.mem_config());
    mem.set_mesh_faults(config.faults.mesh_faults());
    let shared = Arc::new(Shared {
        seq,
        state: Mutex::new(GlobalState {
            mem,
            uli: UliNetwork::new(config.topology(), num_cores),
            done: false,
            done_time: 0,
        }),
        live,
    });

    let reports: PortReports = Arc::new(Mutex::new((0..num_cores).map(|_| None).collect()));
    let panics: Panics = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        // The wall-clock stall detector runs beside either backend while a
        // watchdog is armed. Dropping `stop` when the cores are done (or
        // unwinding) ends it at once instead of after its window.
        let (stop, stop_rx) = std::sync::mpsc::channel::<()>();
        if config.watchdog_budget.is_some() {
            let seq = &shared.seq;
            std::thread::Builder::new()
                .name("sim-watchdog".into())
                .spawn_scoped(scope, move || seq.watch_wall_clock(&stop_rx))
                .expect("spawn watchdog thread");
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        match backend {
            Backend::Fibers => run_cores_on_fibers(config, workers, &shared, &reports, &panics),
            Backend::Threads => run_cores_on_threads(config, workers, &shared, &reports, &panics),
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            debug_assert_eq!(
                backend,
                Backend::Threads,
                "resolve_backend rejects fibers off-platform"
            );
            run_cores_on_threads(config, workers, &shared, &reports, &panics);
        }
        drop(stop);
    });

    let mut panics = std::mem::take(&mut *panics.lock());
    if !panics.is_empty() {
        // Every thread has unwound and stored its partial report, so the
        // diagnostic bundle is crash-consistent. Record it in the
        // engine-global black-box ring *before* panicking: the panic
        // payload is a rendered string, and harnesses that catch it
        // retrieve the structured bundle via `last_bundle_for` to write a
        // loadable black-box dump.
        let bundle = build_bundle(config, backend, &shared, &reports.lock());
        let watchdog = matches!(bundle.reason, PoisonReason::Watchdog { .. });
        record_bundle(bundle.clone());
        if watchdog {
            panic!("{WATCHDOG_MSG}\n{bundle}");
        }
        // Re-raise the most meaningful panic (prefer original over cascaded
        // poison panics).
        let idx = panics
            .iter()
            .position(|p| {
                p.downcast_ref::<&str>().is_none_or(|s| !s.contains(POISON_MSG))
                    && p.downcast_ref::<String>().is_none_or(|s| !s.contains(POISON_MSG))
            })
            .unwrap_or(0);
        std::panic::resume_unwind(panics.swap_remove(idx));
    }

    let reports = std::mem::take(&mut *reports.lock());
    let mut core_cycles = Vec::with_capacity(num_cores);
    let mut breakdowns = Vec::with_capacity(num_cores);
    let mut instructions = Vec::with_capacity(num_cores);
    let mut traces = Vec::with_capacity(num_cores);
    let mut attr_spans = Vec::with_capacity(num_cores);
    let mut flight = Vec::with_capacity(num_cores);
    let mut flight_totals = Vec::with_capacity(num_cores);
    let mut flight_history = Vec::with_capacity(num_cores);
    let mut fault_counters = FaultCounters::default();
    let mut stamped_events: Vec<(u64, MemEvent)> = Vec::new();
    for r in reports {
        let r = r.expect("every worker reported");
        core_cycles.push(r.clock);
        breakdowns.push(r.breakdown);
        instructions.push(r.instructions);
        traces.push(r.trace);
        attr_spans.push(r.attr_spans);
        flight.push(r.flight);
        flight_totals.push(r.flight_total);
        flight_history.push(r.flight_history);
        fault_counters += r.faults;
        stamped_events.extend(r.events);
    }
    // Reconstruct sequenced order from the per-core buffers. Under
    // MinCore, per-core clocks are nondecreasing and the sequencer grants
    // the minimum `(time, core)`, so a stable `(cycle, core)` sort (which
    // preserves each core's emission order for equal keys) replays grant
    // order exactly. Under a Scripted policy ties may be granted against
    // core order, so `(cycle, core)` no longer reconstructs grant order;
    // sort by the grant stamp instead (unique per sequenced op, with a
    // core's annotation events sharing its op's stamp and kept in
    // emission order by sort stability).
    match config.schedule {
        SchedulePolicy::MinCore => stamped_events.sort_by_key(|(_, e)| (e.cycle, e.core)),
        SchedulePolicy::Scripted(_) => stamped_events.sort_by_key(|&(stamp, _)| stamp),
    }
    let mem_events: Vec<MemEvent> = stamped_events.into_iter().map(|(_, e)| e).collect();

    let st = shared.state.lock();
    let completion = if st.done_time > 0 {
        st.done_time
    } else {
        core_cycles.iter().copied().max().unwrap_or(0)
    };
    let uli_links = {
        let r = config.topology().rows() as u64;
        let c = config.topology().cols() as u64;
        2 * (r * (c - 1) + c * (r - 1)).max(1)
    };
    let uli = UliReport {
        messages: st.uli.message_count(),
        nacks: st.uli.nack_count(),
        mean_latency: st.uli.mean_latency(),
        mean_hops: st.uli.mean_hops(),
        bytes: st.uli.stats().bytes(bigtiny_mesh::TrafficClass::Uli),
        utilization: st.uli.stats().utilization(completion.max(1), uli_links),
    };
    RunReport {
        config_name: config.name.clone(),
        completion_cycles: completion,
        core_cycles,
        breakdowns,
        instructions,
        mem_stats: st.mem.all_stats().to_vec(),
        traffic: *st.mem.traffic(),
        uli,
        stale_reads: st.mem.total_stale_reads(),
        traces,
        attr_spans,
        fault_counters,
        mesh_fault_spikes: st.mem.mesh_fault_spikes(),
        seq_grants: shared.seq.total_grants(),
        seq_fast_grants: shared.seq.fast_grants(),
        seq_op_hash: shared.seq.op_hash(),
        mem_events,
        choice_points: shared.seq.choice_points(),
        flight,
        flight_totals,
        flight_history,
    }
}

/// Assembles the crash-consistent diagnostic bundle after all core threads
/// have joined.
fn build_bundle(
    config: &SystemConfig,
    backend: Backend,
    shared: &Shared,
    reports: &[Option<PortReport>],
) -> DiagnosticBundle {
    let st = shared.state.lock();
    let seq_diag = shared.seq.core_diag();
    let cores = reports
        .iter()
        .enumerate()
        .filter_map(|(core, r)| {
            r.as_ref().map(|r| {
                DiagnosticBundle::core_diag(core, r, seq_diag[core], st.uli.unit_state(core))
            })
        })
        .collect();
    DiagnosticBundle {
        reason: shared.seq.poison_reason().unwrap_or(PoisonReason::WorkerPanic),
        config_name: config.name.clone(),
        backend: backend.label().to_owned(),
        fault_spec: config.faults.to_spec(),
        cores,
        uli_messages: st.uli.message_count(),
        uli_nacks: st.uli.nack_count(),
        total_grants: shared.seq.total_grants(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{AddrSpace, ShScalar, ShVec};
    use bigtiny_coherence::Protocol;
    use bigtiny_mesh::UliOutcome;

    fn small_config(tiny_proto: Protocol) -> SystemConfig {
        let mut c = SystemConfig::big_tiny(
            "test4",
            bigtiny_mesh::MeshConfig::with_topology(bigtiny_mesh::Topology::new(2, 2)),
            1,
            3,
            tiny_proto,
        );
        c.seed = 1234;
        c
    }

    /// Four cores sum disjoint slices of a shared vector.
    fn parallel_sum(tiny_proto: Protocol) -> RunReport {
        parallel_sum_on(small_config(tiny_proto))
    }

    fn parallel_sum_on(config: SystemConfig) -> RunReport {
        let mut space = AddrSpace::new();
        let n = 256;
        let data = Arc::new(ShVec::from_vec(&mut space, (0..n as u64).collect()));
        let out = Arc::new(ShVec::new(&mut space, 4, 0u64));
        let done = Arc::new(ShScalar::new(&mut space, 0u64));

        let mut workers: Vec<Worker> = Vec::new();
        for core in 0..4usize {
            let data = Arc::clone(&data);
            let out = Arc::clone(&out);
            let done = Arc::clone(&done);
            workers.push(Box::new(move |port| {
                let chunk = n / 4;
                let mut sum = 0u64;
                for i in core * chunk..(core + 1) * chunk {
                    sum += data.read(port, i);
                    port.advance(2);
                }
                out.write(port, core, sum);
                port.flush_cache();
                done.amo(port, |d| *d += 1);
                if core == 0 {
                    // Main core waits for everyone then signals completion.
                    while done.amo(port, |d| *d) < 4 {
                        port.idle(20);
                    }
                    port.set_done();
                }
            }));
        }
        let report = run_system(&config, workers);
        let total: u64 = out.snapshot().iter().sum();
        assert_eq!(total, (0..n as u64).sum::<u64>(), "functional result correct");
        report
    }

    #[test]
    fn parallel_sum_runs_on_all_protocols() {
        for proto in [Protocol::Mesi, Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
            let r = parallel_sum(proto);
            assert!(r.completion_cycles > 0);
            assert!(r.total_instructions() > 4 * 64 * 2);
            assert!(r.traffic.total_data_bytes() > 0);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = parallel_sum(Protocol::GpuWb);
        let b = parallel_sum(Protocol::GpuWb);
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.core_cycles, b.core_cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn backend_override_accepts_unset_threads_and_fibers() {
        assert_eq!(backend_override(None), None);
        assert_eq!(backend_override(Some("threads")), Some(Backend::Threads));
        assert_eq!(backend_override(Some("fibers")), Some(Backend::Fibers));
    }

    #[test]
    fn backend_override_rejects_unknown_values() {
        for bad in ["thread", "sharded", "", "Fibers"] {
            let r = std::panic::catch_unwind(|| backend_override(Some(bad)));
            let err = r.expect_err("an unknown BIGTINY_BACKEND value must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("threads, fibers"), "message names the accepted values: {msg}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let config = small_config(Protocol::Mesi);
        let mut workers: Vec<Worker> = Vec::new();
        for core in 0..4usize {
            workers.push(Box::new(move |port| {
                let mut t = 0;
                loop {
                    port.idle(10);
                    t += 1;
                    if core == 2 && t == 5 {
                        panic!("worker exploded");
                    }
                    if t > 1000 {
                        return;
                    }
                }
            }));
        }
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_system(&config, workers)));
        let err = r.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("worker exploded"), "got: {msg}");
    }

    /// A two-party ULI steal handshake through the engine.
    #[test]
    fn uli_request_response_round_trip() {
        let config = small_config(Protocol::GpuWb);
        let mut space = AddrSpace::new();
        let mailbox = Arc::new(ShVec::new(&mut space, 4, 0u64));

        let mut workers: Vec<Worker> = Vec::new();
        for core in 0..4usize {
            let mailbox = Arc::clone(&mailbox);
            workers.push(Box::new(move |port| {
                match core {
                    1 => {
                        // Victim: install a handler that writes to the
                        // thief's mailbox and responds; then compute.
                        let mb = Arc::clone(&mailbox);
                        port.set_uli_handler(Box::new(move |p, msg| {
                            mb.write(p, msg.from, 0xfeed);
                            // Figure 3(c) line 52: flush after writing the
                            // stolen task so the thief sees it.
                            p.flush_cache();
                            p.uli_send_response(msg.from, 1);
                        }));
                        port.uli_enable();
                        for _ in 0..200 {
                            port.advance(5);
                            port.load(bigtiny_coherence::Addr(0x9000));
                        }
                        port.uli_disable();
                    }
                    2 => {
                        // Thief: wait a bit, then steal from core 1.
                        port.idle(50);
                        let out = port.uli_send_request(1, 42);
                        assert_eq!(out, UliOutcome::Sent);
                        let resp = loop {
                            if let Some(m) = port.uli_poll_response() {
                                break m;
                            }
                            port.idle(4);
                        };
                        assert_eq!(resp.from, 1);
                        assert_eq!(resp.payload, 1);
                        let got = mailbox.read(port, 2);
                        assert_eq!(got, 0xfeed, "victim delivered through shared memory");
                        port.set_done();
                    }
                    _ => {
                        port.idle(1);
                    }
                }
            }));
        }
        let r = run_system(&config, workers);
        assert!(r.uli.messages >= 2);
        assert_eq!(r.stale_reads, 0);
    }

    #[test]
    fn uli_nack_when_disabled() {
        let config = small_config(Protocol::GpuWb);
        let mut workers: Vec<Worker> = Vec::new();
        for core in 0..4usize {
            workers.push(Box::new(move |port| {
                if core == 2 {
                    port.idle(10);
                    let out = port.uli_send_request(3, 0);
                    assert!(matches!(out, UliOutcome::Nack { .. }), "victim never enabled ULI");
                    port.set_done();
                } else {
                    port.idle(500);
                }
            }));
        }
        let r = run_system(&config, workers);
        assert_eq!(r.uli.nacks, 1);
    }

    #[test]
    fn completion_time_is_done_time_not_stragglers() {
        let config = small_config(Protocol::Mesi);
        let mut workers: Vec<Worker> = Vec::new();
        for core in 0..4usize {
            workers.push(Box::new(move |port| {
                if core == 0 {
                    port.idle(100);
                    port.set_done();
                } else {
                    port.idle(10_000); // stragglers idle long past completion
                }
            }));
        }
        let r = run_system(&config, workers);
        assert!(
            r.completion_cycles >= 100 && r.completion_cycles < 1000,
            "{}",
            r.completion_cycles
        );
    }
}
