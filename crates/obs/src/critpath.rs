//! Critical-path profiler: cycle-accurate work/span analysis over the
//! task DAG, replayed from recorded task-lifecycle events and the
//! engine's per-task attribution spans.
//!
//! The runtime's online profiler measures work and span in *user
//! instructions* ([`bigtiny_core::WorkSpan`]). This module recomputes
//! both in *cycles*, weighting every DAG node with the cycles the machine
//! actually charged while that task ran — so the span it reports is the
//! **burdened** critical path: compute plus the steal-protocol ULI
//! traffic, steal-response waits, coherence stalls, and idle back-off
//! that lay on it. Re-running the replay under a different [`CycleLens`]
//! strips chosen overhead categories from every node, which is what the
//! what-if projector in [`crate::attribution`] is built on.
//!
//! # Replay semantics
//!
//! The replay mirrors the online profiler's recursion exactly, swapping
//! instruction tallies for attributed cycles:
//!
//! * every cycle a core charged while task `t` owned the core (per
//!   [`AttrSpan`]) accrues to `path(t)` — including waits, which is the
//!   burden;
//! * `Spawn { parent }` snapshots `spawn_path(child) = path(parent)`;
//! * at the child's `ExecEnd`, `span(child) = max(path, candidate)` folds
//!   into `candidate(parent) = max(candidate, spawn_path + span(child))`;
//! * at `Join`, `path = max(path, candidate)`.
//!
//! The root's final span is the program span T∞; the sum of all
//! task-attributed cycles is the work T1. Because the harness attributes
//! core 0's whole timeline (through `set_done`) to the root, the
//! fault-free measured completion time Tp obeys `⌈T1/P⌉ ≤ Tp ≤ T1` and
//! `T∞ ≤ Tp` exactly, not approximately — `tests/tests/critpath.rs` pins
//! those bounds across the kernel matrix.

use std::rc::Rc;

use bigtiny_core::{TaskEvent, TaskEventKind, TaskRun};
use bigtiny_engine::{AttrSpan, TimeBreakdown, TimeCategory};

/// Which time categories a replay counts when weighting DAG nodes.
///
/// Each lens answers one what-if question: how long would the critical
/// path (and the total work) be if the machine never charged the stripped
/// categories? The projections are optimistic bounds — removing an
/// overhead in reality also reshuffles scheduling — but they bracket
/// where the cycles on the path went.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CycleLens {
    /// Every category — the burdened profile, what actually happened.
    Burdened,
    /// Strips the steal protocol and its consequences: ULI
    /// send/receive/handler cycles, steal-response waits, and idle
    /// back-off.
    ZeroSteal,
    /// Strips coherence overhead: atomics, self-invalidations, flushes.
    ZeroCoherence,
    /// Compute + load + store only — every overhead category stripped.
    WorkOnly,
}

impl CycleLens {
    /// Label used in reports and metrics documents.
    pub fn label(self) -> &'static str {
        match self {
            CycleLens::Burdened => "burdened",
            CycleLens::ZeroSteal => "zero_steal",
            CycleLens::ZeroCoherence => "zero_coherence",
            CycleLens::WorkOnly => "work_only",
        }
    }

    /// Cycles of `b` this lens counts.
    pub fn weigh(self, b: &TimeBreakdown) -> u64 {
        use TimeCategory::*;
        match self {
            CycleLens::Burdened => b.total(),
            CycleLens::ZeroSteal => b.total() - b.get(Uli) - b.get(UliWait) - b.get(Idle),
            CycleLens::ZeroCoherence => {
                b.total() - b.get(Atomic) - b.get(Invalidate) - b.get(Flush)
            }
            CycleLens::WorkOnly => b.get(Compute) + b.get(Load) + b.get(Store),
        }
    }
}

/// One task on the critical-path chain, root first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChainLink {
    /// Task id.
    pub task: u32,
    /// Cycle the task body started executing.
    pub exec_begin: u64,
    /// Cycle the task body returned.
    pub exec_end: u64,
    /// Core the task executed on.
    pub core: usize,
    /// Whether a thief claimed this task from another core's deque.
    pub stolen: bool,
}

/// The result of one critical-path replay.
#[derive(Clone, Debug)]
pub struct CritPath {
    /// The lens the replay weighed cycles under.
    pub lens: CycleLens,
    /// T1: total lens-weighted cycles attributed to tasks.
    pub work: u64,
    /// T∞: the root task's final span — the longest weighted
    /// spawn-to-join chain through the DAG.
    pub span: u64,
    /// Tasks seen in the event stream.
    pub tasks: u64,
    /// Steal claims seen in the event stream.
    pub steals: u64,
    /// Category breakdown of the cycles on the winning chain (always full
    /// categories, whatever the lens counted).
    pub span_breakdown: TimeBreakdown,
    /// The tasks the critical path runs through, in path order starting at
    /// the root. A task's chain interleaves its own serial cycles with the
    /// complete chains of the children it joined on the path, so parents
    /// precede (and their execution windows contain) the children they
    /// descend into.
    pub chain: Vec<ChainLink>,
}

impl CritPath {
    /// Logical parallelism T1/T∞.
    pub fn parallelism(&self) -> f64 {
        if self.span == 0 {
            0.0
        } else {
            self.work as f64 / self.span as f64
        }
    }

    /// Steal claims among the chain's tasks — how many times the critical
    /// path crossed cores.
    pub fn chain_steals(&self) -> u64 {
        self.chain.iter().filter(|l| l.stolen).count() as u64
    }
}

/// Structural counts from a well-formed task-event stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DagCheck {
    /// Tasks spawned (including the root).
    pub tasks: u64,
    /// Tasks whose body ran to completion.
    pub executed: u64,
    /// Steal claims.
    pub steals: u64,
    /// Completed `wait()` joins.
    pub joins: u64,
    /// Crash-recovery re-spawns of tasks lost on dead cores.
    pub respawns: u64,
    /// Orphan tasks discarded from dead cores' deques.
    pub discards: u64,
    /// Multiplicity-deque duplicate re-executions (owner and thief both
    /// claimed a slot, or a seeded `DupTask` mutation fired).
    pub duplicates: u64,
}

/// Checks that a recorded task-event stream describes a well-formed
/// spawn/join DAG:
///
/// * every task is spawned exactly once, before any of its other events;
/// * every `Spawn`'s parent was spawned earlier (so parent links are
///   acyclic), and exactly one task — the root — has no parent;
/// * each task begins and ends execution at most once, in order, and
///   never ends without beginning;
/// * event cycles are non-decreasing per core.
///
/// Crash-recovery streams stay well-formed under two relaxations: a task
/// that began but never ended is accepted when it — or an ancestor — was
/// covered by a `Respawn` (its core fail-stopped mid-execution and a
/// replacement re-runs the subtree), and `Discarded` orphans are accepted
/// as terminal without ever executing.
///
/// Multiplicity-deque streams add one more shape: a `Duplicate { of }`
/// enters a parentless non-root task that re-executes `of`'s body. Unlike
/// a `Respawn` it does not *cover* the original — the original also runs
/// to completion — so it never relaxes the began-but-never-ended check.
pub fn check_task_dag(events: &[TaskEvent]) -> Result<DagCheck, String> {
    // Task id -> (spawned, began, ended); ids are dense.
    let mut state: Vec<(bool, bool, bool)> = Vec::new();
    let mut parents: Vec<Option<u32>> = Vec::new();
    let mut respawned_of: Vec<bool> = Vec::new();
    let mut last_cycle_per_core: Vec<u64> = Vec::new();
    let mut check = DagCheck::default();
    let mut roots = 0u64;
    for e in events {
        let id = e.task as usize;
        if state.len() <= id {
            state.resize(id + 1, (false, false, false));
            parents.resize(id + 1, None);
            respawned_of.resize(id + 1, false);
        }
        if last_cycle_per_core.len() <= e.core {
            last_cycle_per_core.resize(e.core + 1, 0);
        }
        if e.cycle < last_cycle_per_core[e.core] {
            return Err(format!(
                "core {} went back in time: cycle {} after {}",
                e.core, e.cycle, last_cycle_per_core[e.core]
            ));
        }
        last_cycle_per_core[e.core] = e.cycle;
        match e.kind {
            TaskEventKind::Spawn { parent } => {
                if state[id].0 {
                    return Err(format!("task {id} spawned twice"));
                }
                state[id].0 = true;
                parents[id] = parent;
                check.tasks += 1;
                match parent {
                    None => roots += 1,
                    Some(p) => {
                        if p as usize == id {
                            return Err(format!("task {id} is its own parent"));
                        }
                        if !state.get(p as usize).is_some_and(|s| s.0) {
                            return Err(format!(
                                "task {id} spawned by task {p}, which was never spawned"
                            ));
                        }
                    }
                }
            }
            TaskEventKind::Respawn { of } => {
                if state[id].0 {
                    return Err(format!("task {id} spawned twice"));
                }
                if !state.get(of as usize).is_some_and(|s| s.0) {
                    return Err(format!("task {id} respawns task {of}, which was never spawned"));
                }
                state[id].0 = true;
                // The replacement re-runs the dead task's subtree in its
                // parent's stead.
                parents[id] = parents[of as usize];
                respawned_of[of as usize] = true;
                check.tasks += 1;
                check.respawns += 1;
            }
            TaskEventKind::Duplicate { of } => {
                if state[id].0 {
                    return Err(format!("task {id} spawned twice"));
                }
                if !state.get(of as usize).is_some_and(|s| s.0) {
                    return Err(format!("task {id} duplicates task {of}, which was never spawned"));
                }
                // Parentless by construction (no join obligation), but not
                // a root: `roots` counts only parentless `Spawn`s.
                state[id].0 = true;
                check.tasks += 1;
                check.duplicates += 1;
            }
            TaskEventKind::Discarded => {
                if !state[id].0 {
                    return Err(format!("task {id} discarded without a Spawn"));
                }
                if state[id].1 {
                    return Err(format!("task {id} discarded after it began executing"));
                }
                check.discards += 1;
            }
            TaskEventKind::ExecBegin => {
                if !state[id].0 {
                    return Err(format!("task {id} began executing without a Spawn"));
                }
                if state[id].1 {
                    return Err(format!("task {id} began executing twice"));
                }
                state[id].1 = true;
            }
            TaskEventKind::ExecEnd => {
                if !state[id].1 {
                    return Err(format!("task {id} ended without beginning"));
                }
                if state[id].2 {
                    return Err(format!("task {id} ended twice"));
                }
                state[id].2 = true;
                check.executed += 1;
            }
            TaskEventKind::Stolen { .. } => {
                if !state[id].0 {
                    return Err(format!("task {id} stolen without a Spawn"));
                }
                check.steals += 1;
            }
            TaskEventKind::Join => {
                if !state[id].0 {
                    return Err(format!("task {id} joined without a Spawn"));
                }
                check.joins += 1;
            }
        }
    }
    if !events.is_empty() && roots != 1 {
        return Err(format!("expected exactly one parentless root task, found {roots}"));
    }
    // A task lost mid-execution is accounted for iff a Respawn covers it
    // or one of its ancestors (the re-executed subtree recreates it).
    let covered = |mut t: usize| -> bool {
        loop {
            if respawned_of[t] {
                return true;
            }
            match parents[t] {
                Some(p) => t = p as usize,
                None => return false,
            }
        }
    };
    for (id, (_, began, ended)) in state.iter().enumerate() {
        if *began && !*ended && !covered(id) {
            return Err(format!("task {id} began executing but never ended"));
        }
    }
    Ok(check)
}

/// Whether `run` carries everything a replay needs: recorded task events
/// (`SystemConfig::flight_history`) *and* attribution spans
/// (`SystemConfig::attr`).
pub fn profiled(run: &TaskRun) -> bool {
    !run.task_events.is_empty() && run.report.attr_spans.iter().any(|s| !s.is_empty())
}

/// The children a task's path descends through, newest first — a
/// persistent list so snapshotting a parent's structure at every spawn is
/// one `Rc` clone instead of a vector copy.
type Via = Option<Rc<ViaNode>>;

struct ViaNode {
    task: u32,
    prev: Via,
}

/// `via` in path order (oldest absorbed child first).
fn via_forward(via: &Via) -> Vec<u32> {
    let mut out = Vec::new();
    let mut cur = via;
    while let Some(n) = cur {
        out.push(n.task);
        cur = &n.prev;
    }
    out.reverse();
    out
}

/// Per-task replay state, mirroring the online profiler's `TaskProfile`
/// with cycles for instructions, plus the path *structure* (which child
/// chains the path runs through) that the online profiler never needs.
#[derive(Clone)]
struct TaskNode {
    spawned: bool,
    parent: Option<u32>,
    /// Lens-weighted cycles on this task's longest serial chain so far.
    path: u64,
    path_bd: TimeBreakdown,
    /// Children whose chains the current `path` descends through.
    via: Via,
    /// Best completed-child chain folded in so far, and its structure:
    /// the winning child appended to the parent structure snapshotted at
    /// that child's spawn.
    candidate: u64,
    cand_bd: TimeBreakdown,
    cand_via: Via,
    /// Parent's `path` (and structure) at the moment this task was
    /// spawned.
    spawn_path: u64,
    spawn_bd: TimeBreakdown,
    spawn_via: Via,
    /// Total lens-weighted cycles attributed to this task (its work).
    accrued: u64,
    /// Fixed at ExecEnd: the task's final span, its category breakdown,
    /// and its structure.
    final_span: Option<u64>,
    final_bd: TimeBreakdown,
    final_via: Via,
    exec_begin: Option<(u64, usize)>,
    exec_end: Option<u64>,
    stolen: bool,
}

impl TaskNode {
    fn new() -> Self {
        TaskNode {
            spawned: false,
            parent: None,
            path: 0,
            path_bd: TimeBreakdown::new(),
            via: None,
            candidate: 0,
            cand_bd: TimeBreakdown::new(),
            cand_via: None,
            spawn_path: 0,
            spawn_bd: TimeBreakdown::new(),
            spawn_via: None,
            accrued: 0,
            final_span: None,
            final_bd: TimeBreakdown::new(),
            final_via: None,
            exec_begin: None,
            exec_end: None,
            stolen: false,
        }
    }

    fn span(&self) -> (u64, TimeBreakdown, Via) {
        // Ties go to the serial path, like the online profiler's
        // `path.max(candidate)`.
        if self.candidate > self.path {
            (self.candidate, self.cand_bd, self.cand_via.clone())
        } else {
            (self.path, self.path_bd, self.via.clone())
        }
    }
}

fn node(nodes: &mut Vec<TaskNode>, id: u32) -> &mut TaskNode {
    let id = id as usize;
    if nodes.len() <= id {
        nodes.resize(id + 1, TaskNode::new());
    }
    &mut nodes[id]
}

/// Replays the task DAG over `events` and `attr_spans` (per core, as in
/// [`bigtiny_engine::RunReport::attr_spans`]), weighting cycles under
/// `lens`. Fails if the event stream is not a well-formed DAG.
///
/// An empty event stream replays to an all-zero profile; attribution
/// spans for cores, tasks, or intervals the events never mention still
/// accrue work (the trailing `set_done` cycles on core 0 are the main
/// case — they belong to the root and keep `Tp ≤ T1` exact).
pub fn replay(
    events: &[TaskEvent],
    attr_spans: &[Vec<AttrSpan>],
    lens: CycleLens,
) -> Result<CritPath, String> {
    let check = check_task_dag(events)?;
    let mut nodes: Vec<TaskNode> = Vec::new();
    let mut cursors: Vec<usize> = vec![0; attr_spans.len()];
    let mut root: Option<u32> = None;

    // Consume the spans of `core` that closed at or before `cycle`,
    // accruing each interval to its owning task. Task-lifecycle recording
    // marks a span boundary at every event, so spans never straddle one.
    let consume = |nodes: &mut Vec<TaskNode>, cursors: &mut [usize], core: usize, cycle: u64| {
        let spans = &attr_spans[core];
        let cur = &mut cursors[core];
        while *cur < spans.len() && spans[*cur].end <= cycle {
            let s = &spans[*cur];
            *cur += 1;
            if let Some(t) = s.task {
                let w = lens.weigh(&s.breakdown);
                let n = node(nodes, t);
                n.path += w;
                n.path_bd += s.breakdown;
                n.accrued += w;
            }
        }
    };

    for e in events {
        if e.core < attr_spans.len() {
            consume(&mut nodes, &mut cursors, e.core, e.cycle);
        }
        match e.kind {
            TaskEventKind::Spawn { parent } => {
                let snapshot = parent.map(|p| {
                    let pn = node(&mut nodes, p);
                    (pn.path, pn.path_bd, pn.via.clone())
                });
                let n = node(&mut nodes, e.task);
                n.spawned = true;
                n.parent = parent;
                if let Some((path, bd, via)) = snapshot {
                    n.spawn_path = path;
                    n.spawn_bd = bd;
                    n.spawn_via = via;
                } else {
                    root = Some(e.task);
                }
            }
            TaskEventKind::ExecBegin => {
                node(&mut nodes, e.task).exec_begin = Some((e.cycle, e.core));
            }
            TaskEventKind::ExecEnd => {
                let n = node(&mut nodes, e.task);
                let (span, span_bd, via) = n.span();
                n.final_span = Some(span);
                n.final_bd = span_bd;
                n.final_via = via;
                n.exec_end = Some(e.cycle);
                let (spawn_path, spawn_bd, spawn_via, parent) =
                    (n.spawn_path, n.spawn_bd, n.spawn_via.clone(), n.parent);
                if let Some(parent) = parent {
                    let pn = node(&mut nodes, parent);
                    let chain = spawn_path + span;
                    if chain > pn.candidate {
                        pn.candidate = chain;
                        let mut bd = spawn_bd;
                        bd += span_bd;
                        pn.cand_bd = bd;
                        pn.cand_via = Some(Rc::new(ViaNode { task: e.task, prev: spawn_via }));
                    }
                }
            }
            TaskEventKind::Respawn { of } => {
                // A crash-recovery replacement: re-enters the DAG under
                // the dead task's parent, snapshotting that parent at the
                // respawn like a fresh spawn.
                let parent = nodes.get(of as usize).and_then(|n| n.parent);
                let snapshot = parent.map(|p| {
                    let pn = node(&mut nodes, p);
                    (pn.path, pn.path_bd, pn.via.clone())
                });
                let n = node(&mut nodes, e.task);
                n.spawned = true;
                n.parent = parent;
                if let Some((path, bd, via)) = snapshot {
                    n.spawn_path = path;
                    n.spawn_bd = bd;
                    n.spawn_via = via;
                }
            }
            TaskEventKind::Duplicate { .. } => {
                // A multiplicity duplicate enters the replay as a
                // parentless task: its cycles count as work (the duplicate
                // execution is real burden) but it folds no span into any
                // parent — the original carries the join chain.
                node(&mut nodes, e.task).spawned = true;
            }
            TaskEventKind::Discarded => {
                // Orphans reclaimed from a dead core's deque never ran:
                // nothing accrues.
            }
            TaskEventKind::Stolen { .. } => {
                node(&mut nodes, e.task).stolen = true;
            }
            TaskEventKind::Join => {
                let n = node(&mut nodes, e.task);
                if n.candidate > n.path {
                    n.path = n.candidate;
                    n.path_bd = n.cand_bd;
                    n.via = n.cand_via.clone();
                }
            }
        }
    }

    // Drain every core's remaining spans: cycles after the last event
    // (scheduler wind-down, the root's set_done tail) still count as work.
    for core in 0..attr_spans.len() {
        consume(&mut nodes, &mut cursors, core, u64::MAX);
    }

    let work: u64 = nodes.iter().map(|n| n.accrued).sum();
    let (span, span_breakdown, chain) = match root {
        None => (0, TimeBreakdown::new(), Vec::new()),
        Some(root) => {
            let rn = &nodes[root as usize];
            let (span, bd, via) = match rn.final_span {
                // Normal case: frozen at the root's ExecEnd, before the
                // wind-down tail accrued.
                Some(s) => (s, rn.final_bd, rn.final_via.clone()),
                None => rn.span(),
            };
            // Pre-order expansion: each task on the path, then the chains
            // of the children its path descends through, in path order.
            let mut chain = Vec::new();
            let mut stack = vec![(root, via)];
            while let Some((t, via)) = stack.pop() {
                let n = &nodes[t as usize];
                let (begin, core) = n.exec_begin.unwrap_or((0, 0));
                chain.push(ChainLink {
                    task: t,
                    exec_begin: begin,
                    exec_end: n.exec_end.unwrap_or(begin),
                    core,
                    stolen: n.stolen,
                });
                if chain.len() > nodes.len() {
                    return Err("critical-path chain longer than the task count".into());
                }
                for c in via_forward(&via).into_iter().rev() {
                    let cn = &nodes[c as usize];
                    stack.push((c, cn.final_via.clone()));
                }
            }
            (span, bd, chain)
        }
    };

    Ok(CritPath {
        lens,
        work,
        span,
        tasks: check.tasks,
        steals: check.steals,
        span_breakdown,
        chain,
    })
}

/// [`replay`] over a finished run.
pub fn replay_run(run: &TaskRun, lens: CycleLens) -> Result<CritPath, String> {
    replay(&run.task_events, &run.report.attr_spans, lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_run_profiled;
    use bigtiny_core::RuntimeKind;

    fn event(cycle: u64, core: usize, task: u32, kind: TaskEventKind) -> TaskEvent {
        TaskEvent { cycle, core, task, kind }
    }

    fn span(task: Option<u32>, start: u64, end: u64, cat: TimeCategory) -> AttrSpan {
        let mut breakdown = TimeBreakdown::new();
        breakdown.add(cat, end - start);
        AttrSpan { task, start, end, breakdown }
    }

    fn mixed_span(
        task: Option<u32>,
        start: u64,
        end: u64,
        cats: &[(TimeCategory, u64)],
    ) -> AttrSpan {
        let mut breakdown = TimeBreakdown::new();
        for &(c, n) in cats {
            breakdown.add(c, n);
        }
        assert_eq!(breakdown.total(), end - start, "fixture span must tile its interval");
        AttrSpan { task, start, end, breakdown }
    }

    /// A two-core fixture, built by hand so every number below is checked
    /// against the replay exactly:
    ///
    /// * task 0 (root) executes on core 0, spawns task 1 (stolen to
    ///   core 1) and task 2 (inlined on core 0), waits, and finishes;
    /// * task 1 carries 10 cycles of ULI-wait burden, task 2 is pure
    ///   compute; the root idles 40 cycles waiting for the join.
    fn fixture() -> (Vec<TaskEvent>, Vec<Vec<AttrSpan>>) {
        use TaskEventKind::*;
        use TimeCategory::*;
        let events = vec![
            event(0, 0, 0, Spawn { parent: None }),
            event(10, 0, 0, ExecBegin),
            event(20, 0, 1, Spawn { parent: Some(0) }),
            event(25, 0, 2, Spawn { parent: Some(0) }),
            event(30, 0, 2, ExecBegin),
            event(30, 1, 1, Stolen { from: 0 }),
            event(30, 1, 1, ExecBegin),
            event(50, 0, 2, ExecEnd),
            event(85, 1, 1, ExecEnd),
            event(90, 0, 0, Join),
            event(100, 0, 0, ExecEnd),
        ];
        let core0 = vec![
            span(None, 0, 10, Idle),
            span(Some(0), 10, 20, Compute),
            span(Some(0), 20, 25, Compute),
            span(Some(0), 25, 30, Compute),
            span(Some(2), 30, 50, Compute),
            span(Some(0), 50, 90, Idle),
            span(Some(0), 90, 100, Compute),
        ];
        let core1 = vec![
            span(None, 0, 30, Idle),
            mixed_span(Some(1), 30, 85, &[(Compute, 45), (UliWait, 10)]),
            span(None, 85, 88, Idle),
        ];
        (events, vec![core0, core1])
    }

    #[test]
    fn hand_built_dag_replays_to_exact_work_and_span() {
        let (events, spans) = fixture();
        let cp = replay(&events, &spans, CycleLens::Burdened).unwrap();
        // T1: every task-attributed cycle. Root 70 (20 pre-spawn + 40 idle
        // + 10 tail), task 1 55, task 2 20.
        assert_eq!(cp.work, 145);
        // T∞: root path 10 to the spawn of task 1, task 1's 55 burdened
        // cycles, 10 serial cycles after the join. The idle wait (20 + 40
        // = 60 by the join) loses to the candidate chain (10 + 55 = 65).
        assert_eq!(cp.span, 75);
        assert_eq!(cp.tasks, 3);
        assert_eq!(cp.steals, 1);
        assert!(cp.parallelism() > 1.9 && cp.parallelism() < 2.0, "{}", cp.parallelism());
        // The chain runs root -> stolen task 1.
        let tasks: Vec<u32> = cp.chain.iter().map(|l| l.task).collect();
        assert_eq!(tasks, vec![0, 1]);
        assert_eq!(cp.chain_steals(), 1);
        assert_eq!(cp.chain[1].core, 1);
        assert_eq!(cp.chain[1].exec_begin, 30);
        assert_eq!(cp.chain[1].exec_end, 85);
        // The burden on the path is visible by category.
        assert_eq!(cp.span_breakdown.get(TimeCategory::Compute), 65);
        assert_eq!(cp.span_breakdown.get(TimeCategory::UliWait), 10);
        assert_eq!(cp.span_breakdown.total(), cp.span);
    }

    #[test]
    fn lenses_strip_overhead_categories_from_the_path() {
        let (events, spans) = fixture();
        // Zero-steal: task 1's 10 ULI-wait cycles and the root's idle wait
        // vanish; the chain through task 1 still wins (10 + 45 = 55 over a
        // 20-cycle serial path), and 10 tail cycles follow the join.
        let zs = replay(&events, &spans, CycleLens::ZeroSteal).unwrap();
        assert_eq!(zs.span, 65);
        assert_eq!(zs.work, 95);
        // No atomics/invalidates/flushes in the fixture: zero-coherence
        // equals burdened, work-only equals zero-steal.
        let zc = replay(&events, &spans, CycleLens::ZeroCoherence).unwrap();
        assert_eq!((zc.work, zc.span), (145, 75));
        let wo = replay(&events, &spans, CycleLens::WorkOnly).unwrap();
        assert_eq!((wo.work, wo.span), (95, 65));
    }

    #[test]
    fn empty_event_stream_replays_to_zero() {
        let cp = replay(&[], &[], CycleLens::Burdened).unwrap();
        assert_eq!((cp.work, cp.span, cp.tasks), (0, 0, 0));
        assert!(cp.chain.is_empty());
    }

    #[test]
    fn checker_rejects_malformed_streams() {
        use TaskEventKind::*;
        let root = event(0, 0, 0, Spawn { parent: None });
        let err = |events: &[TaskEvent]| check_task_dag(events).unwrap_err();
        assert!(err(&[event(5, 0, 1, ExecBegin)]).contains("without a Spawn"));
        assert!(err(&[root, event(1, 0, 0, Spawn { parent: None })]).contains("spawned twice"));
        assert!(err(&[root, event(2, 0, 1, Spawn { parent: Some(3) })]).contains("never spawned"));
        assert!(err(&[root, event(2, 0, 1, Spawn { parent: Some(1) })]).contains("its own parent"));
        assert!(err(&[root, event(5, 0, 0, ExecBegin), event(3, 0, 0, ExecEnd)])
            .contains("back in time"));
        assert!(err(&[root, event(1, 0, 0, ExecEnd)]).contains("without beginning"));
        assert!(err(&[root, event(1, 0, 0, ExecBegin)]).contains("never ended"));
        assert!(err(&[root, event(1, 0, 1, Spawn { parent: None })]).contains("root"));
        let (events, _) = fixture();
        let check = check_task_dag(&events).unwrap();
        assert_eq!(
            check,
            DagCheck {
                tasks: 3,
                executed: 3,
                steals: 1,
                joins: 1,
                respawns: 0,
                discards: 0,
                duplicates: 0
            }
        );
    }

    /// A real profiled run obeys the work/span laws: `T∞ ≤ Tp ≤ T1` (the
    /// root-attribution policy makes both exact) and replay work matches
    /// the attributed cycles summed straight off the spans.
    #[test]
    fn real_run_satisfies_workspan_bounds() {
        for kind in [RuntimeKind::Dts, RuntimeKind::Hcc] {
            let run = small_run_profiled(kind, 10);
            assert!(profiled(&run));
            let cp = replay_run(&run, CycleLens::Burdened).unwrap();
            let p = run.report.core_cycles.len() as u64;
            let tp = run.report.completion_cycles;
            assert!(cp.span <= tp, "{kind:?}: span {} > Tp {tp}", cp.span);
            assert!(tp <= cp.work, "{kind:?}: Tp {tp} > work {}", cp.work);
            assert!(cp.work.div_ceil(p) <= tp, "{kind:?}: work/P > Tp");
            let attributed: u64 = run
                .report
                .attr_spans
                .iter()
                .flatten()
                .filter(|s| s.task.is_some())
                .map(|s| s.end - s.start)
                .sum();
            assert_eq!(cp.work, attributed, "{kind:?}: replay must conserve attributed cycles");
            assert!(cp.chain.len() >= 2, "{kind:?}: fib's critical path crosses tasks");
        }
    }
}
