//! The four workloads as lists of cells, and the gated runner of one cell.
//!
//! A cell is one `(app, setup)` run: fresh inputs from `AppSpec::prepare`
//! on a fresh `AddrSpace`, one `run_task_parallel` (which builds a fresh
//! `MemorySystem`, so simulated caches start empty), functional
//! verification, and the workload's extra checker or audit pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bigtiny_apps::{app_by_name, AppSize, Prepared};
use bigtiny_bench::fuzz::{fuzz_setup, sample_plan};
use bigtiny_bench::Setup;
use bigtiny_checker::{audit_task_events, check_run};
use bigtiny_coherence::CoreMemStats;
use bigtiny_core::{RuntimeKind, TaskRun};
use bigtiny_engine::{AddrSpace, CheckMode, FaultPlan, Protocol, XorShift64};

use crate::trace::Tracer;

/// Fault plans one `chaos16` pass samples from the seed's plan stream.
const CHAOS_PLANS: usize = 12;

/// The benchmark's named workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Figures 5-8: 7 64-core setups x {cilk5-cs, ligra-bfs, cilk5-nq}.
    Matrix64,
    /// Table V: 256-core MESI, HCC-gwb, HCC-DTS-gwb x {cilk5-cs, ligra-bfs}.
    Dts256,
    /// `check_all` oracle path: DRF checker armed (`CheckMode::Full`).
    Checked,
    /// Chaos-fuzz probes: 16-core DTS/gwb under sampled fault plans.
    Chaos16,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Matrix64, Workload::Dts256, Workload::Checked, Workload::Chaos16];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix64 => "matrix64",
            Workload::Dts256 => "dts256",
            Workload::Checked => "checked",
            Workload::Chaos16 => "chaos16",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The extra pass a cell's run must survive besides verification.
#[derive(Clone, Debug)]
pub enum Gate {
    /// Verification and zero stale reads only.
    Plain,
    /// Plus a clean `check_run` verdict.
    Checker,
    /// Plus a clean task-event audit under the cell's fault plan.
    Audit(FaultPlan),
}

/// One `(app, setup)` run of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Kernel name.
    pub app: &'static str,
    /// The kernel's input generator.
    pub prepare: fn(&mut AddrSpace, AppSize, usize) -> Prepared,
    /// Machine and runtime, seed already applied.
    pub setup: Setup,
    /// Input scale.
    pub size: AppSize,
    /// Extra correctness pass.
    pub gate: Gate,
}

impl Cell {
    /// The cell's `(workload, app, setup, seed)` id.
    pub fn id(&self, w: Workload, seed: u64) -> String {
        format!("{} {} {} {seed}", w.name(), self.app, self.setup.label)
    }
}

fn cell(app: &str, setup: Setup, size: AppSize, gate: Gate) -> Cell {
    let spec = app_by_name(app).unwrap_or_else(|| panic!("kernel {app} is registered"));
    Cell { app: spec.name, prepare: spec.prepare, setup, size, gate }
}

/// The cells of one pass of `w` at `size` under `seed` (`chaos16` always
/// runs at test size, as the chaos fuzzer's probes do). The seed reaches
/// the program only through the generated `SystemConfig` (and, for
/// `chaos16`, the sampled fault plans).
pub fn cells(w: Workload, seed: u64, size: AppSize) -> Vec<Cell> {
    let cross = |setups: Vec<Setup>, apps: &[&str], gate: Gate| -> Vec<Cell> {
        apps.iter()
            .flat_map(|&a| {
                let gate = gate.clone();
                setups.iter().map(move |s| {
                    let mut setup = s.clone();
                    setup.sys = setup.sys.with_seed(seed);
                    cell(a, setup, size, gate.clone())
                })
            })
            .collect()
    };
    match w {
        Workload::Matrix64 => {
            cross(Setup::big_tiny_matrix(), &["cilk5-cs", "ligra-bfs", "cilk5-nq"], Gate::Plain)
        }
        Workload::Dts256 => cross(
            vec![
                Setup::bt_256(Protocol::Mesi, RuntimeKind::Baseline),
                Setup::bt_256(Protocol::GpuWb, RuntimeKind::Hcc),
                Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts),
            ],
            &["cilk5-cs", "ligra-bfs"],
            Gate::Plain,
        ),
        Workload::Checked => {
            let setups = [
                Setup::bt_mesi(),
                Setup::bt_hcc(Protocol::DeNovo, true),
                Setup::bt_hcc(Protocol::GpuWb, true),
            ]
            .into_iter()
            .map(|mut s| {
                s.sys = s.sys.with_check(CheckMode::Full);
                s
            })
            .collect();
            cross(setups, &["cilk5-cs", "ligra-bfs"], Gate::Checker)
        }
        Workload::Chaos16 => {
            let mut rng = XorShift64::new(seed);
            let apps = ["cilk5-cs", "ligra-bfs", "cilk5-nq"];
            (0..CHAOS_PLANS)
                .flat_map(|_| {
                    let plan = sample_plan(&mut rng);
                    apps.map(|a| {
                        let mut setup = fuzz_setup(plan.clone());
                        setup.sys = setup.sys.with_seed(seed);
                        cell(a, setup, AppSize::Test, Gate::Audit(plan.clone()))
                    })
                })
                .collect()
        }
    }
}

/// Simulated counts of one run, summed over the cells of a pass.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    /// Instructions retired (`RunReport::total_instructions`).
    pub instructions: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Steal attempts.
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// Orphans reclaimed + mailbox rescues + re-executions.
    pub recovery_ops: u64,
    /// Sequencer grants.
    pub grants: u64,
    /// Grants on the sequencer's fast re-grant path.
    pub fast_grants: u64,
    /// Data-OCN bytes.
    pub data_bytes: u64,
    /// ULI messages.
    pub uli_messages: u64,
    /// NACKed ULI steal requests.
    pub uli_nacks: u64,
    /// Memory stats aggregated over every core.
    pub mem: CoreMemStats,
}

impl Counts {
    fn of(run: &TaskRun) -> Self {
        let (r, s) = (&run.report, &run.stats);
        Counts {
            instructions: r.total_instructions(),
            tasks: s.workspan.tasks,
            steal_attempts: s.steal_attempts,
            steals: s.steals,
            recovery_ops: s.orphans_reclaimed + s.mailbox_rescues + s.reexecutions,
            grants: r.seq_grants,
            fast_grants: r.seq_fast_grants,
            data_bytes: r.total_traffic_bytes(),
            uli_messages: r.uli.messages,
            uli_nacks: r.uli.nacks,
            mem: bigtiny_coherence::aggregate(&r.mem_stats),
        }
    }

    /// Adds another run's counts.
    pub fn add(&mut self, o: &Counts) {
        self.instructions += o.instructions;
        self.tasks += o.tasks;
        self.steal_attempts += o.steal_attempts;
        self.steals += o.steals;
        self.recovery_ops += o.recovery_ops;
        self.grants += o.grants;
        self.fast_grants += o.fast_grants;
        self.data_bytes += o.data_bytes;
        self.uli_messages += o.uli_messages;
        self.uli_nacks += o.uli_nacks;
        self.mem = bigtiny_coherence::aggregate([&self.mem, &o.mem]);
    }
}

/// What one gated cell run produced.
pub struct CellOutcome {
    /// Host seconds in `AddrSpace::new` + `AppSpec::prepare`.
    pub setup_s: f64,
    /// Host seconds in the gated run: simulate, verify, checker or audit.
    pub run_s: f64,
    /// `Ok((cycles, seq_op_hash))`, or why the cell failed its gate.
    pub verdict: Result<(u64, u64), String>,
    /// Simulated counts (zero for a failed cell).
    pub counts: Counts,
    /// Events the DRF checker consumed (0 without a checker gate).
    pub checker_events: u64,
    /// The run itself, when the caller asked to keep it.
    pub run: Option<TaskRun>,
}

/// Runs `f`, inside a span named `name` when a tracer is present.
pub fn call<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Host seconds to build one cell's inputs (`AddrSpace::new` +
/// `AppSpec::prepare`) without running it.
pub fn time_setup(cell: &Cell) -> f64 {
    let t0 = Instant::now();
    let mut space = AddrSpace::new();
    let _inputs = (cell.prepare)(&mut space, cell.size, 0);
    // The inputs are dropped after the clock is read.
    t0.elapsed().as_secs_f64()
}

/// Runs one cell through its gate. A panicking run (failed assertion,
/// watchdog trip) is caught and reported as a failed cell, so one bad
/// cell does not end the pass. `keep` retains the `TaskRun`.
pub fn run_cell(cell: &Cell, tr: &mut Option<&mut Tracer>, keep: bool) -> CellOutcome {
    let t0 = Instant::now();
    let (mut space, prepared) = call(tr, "apps.prepare", || {
        let mut space = AddrSpace::new();
        let prepared = (cell.prepare)(&mut space, cell.size, 0);
        (space, prepared)
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let gated = catch_unwind(AssertUnwindSafe(|| -> Result<(TaskRun, u64), String> {
        let (sys, rt) = (&cell.setup.sys, &cell.setup.rt);
        let mut run = call(tr, "core.run_task_parallel", || {
            bigtiny_core::run_task_parallel(sys, rt, &mut space, prepared.root)
        });
        call(tr, "apps.verify", prepared.verify).map_err(|e| format!("verification: {e}"))?;
        if run.report.stale_reads != 0 {
            return Err(format!("{} stale reads", run.report.stale_reads));
        }
        let mut events = 0;
        match &cell.gate {
            Gate::Plain => {}
            Gate::Checker => {
                let report = call(tr, "checker.check_run", || check_run(sys, &run.report));
                if !report.is_clean() {
                    return Err(format!("DRF checker:\n{}", report.render()));
                }
                events = report.events;
                // The event stream has been consumed; do not hold it for the
                // rest of the pass.
                run.report.mem_events = Vec::new();
            }
            Gate::Audit(plan) => {
                let audit = call(tr, "checker.audit_task_events", || {
                    audit_task_events(&run.task_events, plan.crash_armed(), cell.app)
                });
                if !audit.is_clean() {
                    return Err(format!("task audit:\n{}", audit.render()));
                }
            }
        }
        Ok((run, events))
    }));
    let run_s = t1.elapsed().as_secs_f64();
    match gated {
        Ok(Ok((run, checker_events))) => CellOutcome {
            setup_s,
            run_s,
            verdict: Ok((run.report.completion_cycles, run.report.seq_op_hash)),
            counts: Counts::of(&run),
            checker_events,
            run: keep.then_some(run),
        },
        Ok(Err(why)) => failed(setup_s, run_s, why),
        Err(payload) => {
            if let Some(t) = tr {
                t.close_open();
            }
            failed(setup_s, run_s, format!("panicked: {}", panic_text(payload.as_ref())))
        }
    }
}

fn failed(setup_s: f64, run_s: f64, why: String) -> CellOutcome {
    CellOutcome {
        setup_s,
        run_s,
        verdict: Err(why),
        counts: Counts::default(),
        checker_events: 0,
        run: None,
    }
}
