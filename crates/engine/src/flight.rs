//! Always-on flight recorder and live heartbeat telemetry.
//!
//! # Flight recorder
//!
//! Every [`CorePort`](crate::CorePort) owns a [`FlightLog`], the one
//! recorder of that core's simulation events (token grants, ULI traffic,
//! steal attempts and hits, task lifecycle, fault injections, deque
//! operations). Each event is recorded once and feeds two sinks: a ring of
//! the last N events, serialized into the
//! [`DiagnosticBundle`](crate::DiagnosticBundle) as a black box when a run
//! dies; and, when armed, an unbounded history of the task lifecycle and
//! the four ULI protocol points, which the task-event audits,
//! critical-path replay and Perfetto flow arrows read ([`task_events`]).
//!
//! Recording is *observation only*: every hook reads clocks and
//! identifiers the simulation already computed and never sequences,
//! charges cycles, or touches shared simulated state — so armed and
//! unarmed runs are bit-for-bit identical (pinned by the
//! `armed_observability` golden-trace test on both backends). An event
//! describing a sequenced operation is stamped at its grant clock, before
//! any ULI handler admitted in the same section runs, so every core's log
//! is in time order.
//!
//! # Heartbeat
//!
//! A [`Heartbeat`] hook installed on the sequencer emits a
//! [`HeartbeatSnap`] every K *grants* (not wall time), so the cadence is a
//! deterministic function of the op stream. Fields published only while a
//! core holds the sequencer token (snapshot sequence number, trigger cycle,
//! total grants, [`LiveCounters`] sums) are identical across reruns and
//! backends; the per-core strip (waiting/running states), fast-grant count,
//! and anything wall-clock are host-timing artifacts and are documented as
//! out-of-band. Serialization to line JSON lives in `bigtiny-obs`
//! (`bigtiny-obs-heartbeat-v1`); the engine only hands the snapshot to an
//! opaque sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::breakdown::{TimeBreakdown, TIME_CATEGORIES};
use crate::fault::FaultCounters;

/// Default per-core flight-ring capacity (events). Large enough to span
/// several steal protocols' worth of history, small enough that a 256-core
/// system keeps the whole recorder under ~1 MiB of host memory.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What happened, from the recording core's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// The sequencer granted this core the token.
    Grant,
    /// A ULI steal request left this core for `to`.
    UliReqSend {
        /// Destination (victim) core.
        to: usize,
    },
    /// A ULI steal request from `from` was delivered to this core.
    UliReqRecv {
        /// Originating (thief) core.
        from: usize,
    },
    /// A ULI steal response left this core for `to`.
    UliRespSend {
        /// Destination (thief) core.
        to: usize,
    },
    /// A ULI steal response from `from` was collected on this core.
    UliRespRecv {
        /// Originating (victim) core.
        from: usize,
    },
    /// A send to `to` bounced: the victim was already in a handler.
    UliNack {
        /// Destination core that NACKed.
        to: usize,
    },
    /// A send to `to` bounced with a Dead outcome (fail-stopped core).
    UliDead {
        /// Destination core that was dead.
        to: usize,
    },
    /// The runtime started a steal attempt against `victim`.
    StealAttempt {
        /// Victim core probed.
        victim: usize,
    },
    /// A steal attempt against `victim` returned a task.
    StealHit {
        /// Victim core the task came from.
        victim: usize,
    },
    /// A task lifecycle event on this core.
    Task {
        /// Task id.
        task: u32,
        /// Which lifecycle point.
        kind: TaskEventKind,
    },
    /// A deque push on this core.
    DequePush,
    /// A deque pop on this core.
    DequePop,
    /// A deque steal executed by this core's handler.
    DequeSteal,
    /// Fault injection dropped an outbound ULI send.
    FaultUliDrop,
    /// Fault injection forced a NACK on an outbound ULI send.
    FaultUliNack,
    /// Fault injection delayed an outbound ULI send by `extra` cycles.
    FaultUliDelay {
        /// Injected extra latency in cycles.
        extra: u64,
    },
    /// Fault injection dropped an inbound ULI request on this core.
    FaultRxDrop,
    /// Fault injection forced an empty steal lookup on this core.
    FaultStealMiss,
    /// This core fail-stopped.
    Crash,
    /// This core was revived.
    Revive,
}

impl FlightKind {
    /// Stable lower-snake label used in black-box dumps and traces.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Grant => "grant",
            FlightKind::UliReqSend { .. } => "uli_req_send",
            FlightKind::UliReqRecv { .. } => "uli_req_recv",
            FlightKind::UliRespSend { .. } => "uli_resp_send",
            FlightKind::UliRespRecv { .. } => "uli_resp_recv",
            FlightKind::UliNack { .. } => "uli_nack",
            FlightKind::UliDead { .. } => "uli_dead",
            FlightKind::StealAttempt { .. } => "steal_attempt",
            FlightKind::StealHit { .. } => "steal_hit",
            FlightKind::Task { kind, .. } => match kind {
                TaskEventKind::Spawn { .. } => "task_spawn",
                TaskEventKind::ExecBegin => "task_begin",
                TaskEventKind::ExecEnd => "task_end",
                TaskEventKind::Stolen { .. } => "task_stolen",
                TaskEventKind::Join => "task_join",
                TaskEventKind::Respawn { .. } => "task_respawn",
                TaskEventKind::Discarded => "task_discarded",
                TaskEventKind::Duplicate { .. } => "task_duplicate",
            },
            FlightKind::DequePush => "deque_push",
            FlightKind::DequePop => "deque_pop",
            FlightKind::DequeSteal => "deque_steal",
            FlightKind::FaultUliDrop => "fault_uli_drop",
            FlightKind::FaultUliNack => "fault_uli_nack",
            FlightKind::FaultUliDelay { .. } => "fault_uli_delay",
            FlightKind::FaultRxDrop => "fault_rx_drop",
            FlightKind::FaultStealMiss => "fault_steal_miss",
            FlightKind::Crash => "crash",
            FlightKind::Revive => "revive",
        }
    }

    /// The event's argument as a named value, if it carries one (`peer`,
    /// `task`, or `extra`). Lets serializers stay exhaustive without
    /// matching every variant.
    pub fn arg(self) -> Option<(&'static str, u64)> {
        match self {
            FlightKind::Grant
            | FlightKind::DequePush
            | FlightKind::DequePop
            | FlightKind::DequeSteal
            | FlightKind::FaultUliDrop
            | FlightKind::FaultUliNack
            | FlightKind::FaultRxDrop
            | FlightKind::FaultStealMiss
            | FlightKind::Crash
            | FlightKind::Revive => None,
            FlightKind::UliReqSend { to }
            | FlightKind::UliRespSend { to }
            | FlightKind::UliNack { to }
            | FlightKind::UliDead { to } => Some(("peer", to as u64)),
            FlightKind::UliReqRecv { from } | FlightKind::UliRespRecv { from } => {
                Some(("peer", from as u64))
            }
            FlightKind::StealAttempt { victim } | FlightKind::StealHit { victim } => {
                Some(("peer", victim as u64))
            }
            FlightKind::Task { task, .. } => Some(("task", task as u64)),
            FlightKind::FaultUliDelay { extra } => Some(("extra", extra)),
        }
    }

    /// Whether the per-core history keeps this kind: the task lifecycle
    /// and the four ULI protocol points its consumers read. Everything
    /// else (grants above all) stays ring-only.
    pub fn in_history(self) -> bool {
        matches!(
            self,
            FlightKind::Task { .. }
                | FlightKind::UliReqSend { .. }
                | FlightKind::UliReqRecv { .. }
                | FlightKind::UliRespSend { .. }
                | FlightKind::UliRespRecv { .. }
        )
    }
}

/// The task lifecycle points a runtime records as [`FlightKind::Task`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskEventKind {
    /// The task was created (`spawn`, or the root's allocation).
    Spawn {
        /// Task id of the spawning task, `None` only for the root.
        parent: Option<u32>,
    },
    /// A worker began executing the task body.
    ExecBegin,
    /// The task body returned.
    ExecEnd,
    /// A thief claimed the task from victim `from`.
    Stolen {
        /// Victim core the task was taken from (`u32`, not `usize`, keeps
        /// [`FlightEvent`] at 24 bytes).
        from: u32,
    },
    /// The task's `wait()` returned — all children joined.
    Join,
    /// Crash recovery re-created the task: this event's task id is the
    /// replacement, `of` is the task that was executing on the fail-stopped
    /// core. The replacement inherits `of`'s parent and join obligation.
    Respawn {
        /// Task id of the original that died mid-execution.
        of: u32,
    },
    /// Crash recovery discarded the task without executing it: it sat
    /// unstarted in a fail-stopped core's deque, and every such orphan is a
    /// descendant of a task frozen on that core's execution stack, so
    /// re-executing the stack bottom recreates it.
    Discarded,
    /// A multiplicity deque double-claimed the original task `of` (owner
    /// and thief both won its slot), and this fresh record re-executes the
    /// body. Unlike [`TaskEventKind::Respawn`], the original *also* runs
    /// to completion — legal only under a multiplicity policy with an
    /// idempotent kernel, which the checker's `Multiplicity` audit mode
    /// verifies.
    Duplicate {
        /// Task id of the original that was double-claimed.
        of: u32,
    },
}

/// One task lifecycle event with the core that recorded it: the view
/// [`task_events`] derives from the per-core histories.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskEvent {
    /// Simulated cycle on the recording core.
    pub cycle: u64,
    /// Core that recorded the event.
    pub core: usize,
    /// Task id the event concerns.
    pub task: u32,
    /// What happened.
    pub kind: TaskEventKind,
}

/// The task lifecycle stream of a run: every core's history (`histories`
/// indexed by core) concatenated in core order, then stable-sorted by
/// `(cycle, core)`, so equal keys keep each core's recording order.
pub fn task_events(histories: &[Vec<FlightEvent>]) -> Vec<TaskEvent> {
    let mut out = Vec::new();
    for (core, history) in histories.iter().enumerate() {
        for e in history {
            if let FlightKind::Task { task, kind } = e.kind {
                out.push(TaskEvent { cycle: e.time, core, task, kind });
            }
        }
    }
    out.sort_by_key(|e| (e.cycle, e.core));
    out
}

/// One recorded event: the core's simulated clock when it happened plus
/// what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Recording core's simulated cycle at the event.
    pub time: u64,
    /// What happened.
    pub kind: FlightKind,
}

/// One core's flight log. Every [`FlightLog::record`] feeds two sinks:
/// a fixed-capacity ring of the last N events (capacity 0 disables it),
/// and, when armed, an unbounded history of the kinds
/// [`FlightKind::in_history`] keeps. With both off every `record` is two
/// never-taken branches.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    buf: Vec<FlightEvent>,
    cap: usize,
    /// Index of the next slot to overwrite once the ring is full.
    next: usize,
    /// Events ever recorded on the ring (≥ `buf.len()`; the ring holds the
    /// last `cap`).
    total: u64,
    history: Option<Vec<FlightEvent>>,
}

impl FlightLog {
    /// A log whose ring holds the last `cap` events (0 disables the ring),
    /// keeping the unbounded history too when `history` is set.
    pub fn new(cap: usize, history: bool) -> Self {
        FlightLog { buf: Vec::new(), cap, next: 0, total: 0, history: history.then(Vec::new) }
    }

    /// Records one event. Never touches simulated state.
    #[inline]
    pub fn record(&mut self, time: u64, kind: FlightKind) {
        let ev = FlightEvent { time, kind };
        if let Some(h) = self.history.as_mut() {
            if kind.in_history() {
                h.push(ev);
            }
        }
        if self.cap == 0 {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// The retained ring tail in chronological (recording) order.
    pub fn tail(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    /// Events ever recorded on the ring (the tail keeps the last
    /// `capacity()` of them).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Takes the history in recording order (empty unless armed).
    pub fn take_history(&mut self) -> Vec<FlightEvent> {
        self.history.take().unwrap_or_default()
    }
}

/// Per-core live counters published by each [`CorePort`](crate::CorePort)
/// at the top of every sequenced section — i.e. only while the publisher
/// holds the sequencer token, which makes every value read at a heartbeat
/// boundary a deterministic function of the grant stream. Allocated only
/// when a heartbeat is armed, so unarmed runs pay nothing.
#[derive(Debug)]
pub struct LiveCounters {
    cores: Vec<LiveCore>,
}

#[derive(Debug)]
struct LiveCore {
    clock: AtomicU64,
    cats: [AtomicU64; 9],
    faults: [AtomicU64; 6],
}

impl LiveCounters {
    pub(crate) fn new(num_cores: usize) -> Self {
        LiveCounters {
            cores: (0..num_cores)
                .map(|_| LiveCore {
                    clock: AtomicU64::new(0),
                    cats: Default::default(),
                    faults: Default::default(),
                })
                .collect(),
        }
    }

    /// Publishes one core's current clock, time breakdown, and fault
    /// counters. Called under the sequencer token.
    pub(crate) fn publish(
        &self,
        core: usize,
        clock: u64,
        breakdown: &TimeBreakdown,
        faults: &FaultCounters,
    ) {
        let slot = &self.cores[core];
        slot.clock.store(clock, Ordering::Relaxed);
        for (i, cat) in TIME_CATEGORIES.iter().enumerate() {
            slot.cats[i].store(breakdown.get(*cat), Ordering::Relaxed);
        }
        for (i, (_, v)) in faults.pairs().iter().enumerate() {
            slot.faults[i].store(*v, Ordering::Relaxed);
        }
    }

    /// Maximum published core clock.
    fn max_clock(&self) -> u64 {
        self.cores.iter().map(|c| c.clock.load(Ordering::Relaxed)).max().unwrap_or(0)
    }

    /// Sum of each time category across cores, in [`TIME_CATEGORIES`]
    /// order.
    fn breakdown_sums(&self) -> [u64; 9] {
        let mut out = [0u64; 9];
        for c in &self.cores {
            for (i, v) in c.cats.iter().enumerate() {
                out[i] += v.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Sum of each fault counter across cores, in
    /// [`FaultCounters::pairs`] order.
    fn fault_sums(&self) -> [u64; 6] {
        let mut out = [0u64; 6];
        for c in &self.cores {
            for (i, v) in c.faults.iter().enumerate() {
                out[i] += v.load(Ordering::Relaxed);
            }
        }
        out
    }
}

/// One core's line in the heartbeat strip. All fields except `grants` and
/// `last_time` of the *currently granted* core reflect host-instantaneous
/// scheduler state and are out-of-band (not rerun-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreBeat {
    /// Token grants to this core so far.
    pub grants: u64,
    /// Simulated time of this core's most recent grant.
    pub last_time: u64,
    /// Whether the core's worker has returned.
    pub retired: bool,
    /// `Some(t)` if the core is currently parked in `enter` at time `t`.
    pub waiting_at: Option<u64>,
}

/// One heartbeat snapshot, taken every K grants.
///
/// Deterministic fields (identical across reruns and backends for the same
/// config): `seq`, `time`, `total_grants`, `max_clock`, `breakdown`,
/// `faults`. Out-of-band fields (host-timing artifacts): `fast_grants`,
/// `cores`. Wall-clock rates are added by the sink, never here.
#[derive(Debug, Clone)]
pub struct HeartbeatSnap {
    /// Snapshot index (1-based; `total_grants / every`).
    pub seq: u64,
    /// Simulated time of the grant that triggered this snapshot.
    pub time: u64,
    /// Total token grants at the trigger.
    pub total_grants: u64,
    /// Grants taken through the inline fast re-grant path (out-of-band:
    /// fast-path eligibility depends on host thread timing).
    pub fast_grants: u64,
    /// Maximum core clock published to [`LiveCounters`] (0 when live
    /// counters are not armed).
    pub max_clock: u64,
    /// Live per-category cycle sums across cores, in
    /// [`TIME_CATEGORIES`] order.
    pub breakdown: [u64; 9],
    /// Live fault-injection counter sums across cores, in
    /// [`FaultCounters::pairs`] order.
    pub faults: [u64; 6],
    /// Per-core scheduler strip (out-of-band).
    pub cores: Vec<CoreBeat>,
}

impl HeartbeatSnap {
    pub(crate) fn new(
        seq: u64,
        time: u64,
        total_grants: u64,
        fast_grants: u64,
        live: Option<&LiveCounters>,
        cores: Vec<CoreBeat>,
    ) -> Self {
        HeartbeatSnap {
            seq,
            time,
            total_grants,
            fast_grants,
            max_clock: live.map_or(0, |l| l.max_clock()),
            breakdown: live.map_or([0; 9], |l| l.breakdown_sums()),
            faults: live.map_or([0; 6], |l| l.fault_sums()),
            cores,
        }
    }
}

/// Heartbeat configuration: emit a [`HeartbeatSnap`] to `sink` every
/// `every` grants. The sink runs on whichever simulation thread took the
/// triggering grant, with no engine locks held — it may do I/O, but must
/// never touch simulated state.
#[derive(Clone)]
pub struct Heartbeat {
    /// Emission cadence in grants (must be > 0).
    pub every: u64,
    /// Snapshot consumer.
    pub sink: Arc<dyn Fn(&HeartbeatSnap) + Send + Sync>,
}

impl Heartbeat {
    /// A heartbeat firing every `every` grants into `sink`.
    pub fn new(every: u64, sink: Arc<dyn Fn(&HeartbeatSnap) + Send + Sync>) -> Self {
        assert!(every > 0, "heartbeat cadence must be at least one grant");
        Heartbeat { every, sink }
    }
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeat").field("every", &self.every).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_cap_events_in_order() {
        let mut r = FlightLog::new(4, false);
        for t in 0..10u64 {
            r.record(t, FlightKind::Grant);
        }
        assert_eq!(r.total(), 10);
        let tail = r.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.iter().map(|e| e.time).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_partial_fill_preserves_order() {
        let mut r = FlightLog::new(8, false);
        for t in [3u64, 5, 9] {
            r.record(t, FlightKind::DequePush);
        }
        assert_eq!(r.tail().iter().map(|e| e.time).collect::<Vec<_>>(), vec![3, 5, 9]);
        assert_eq!(r.total(), 3);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = FlightLog::new(0, false);
        r.record(1, FlightKind::Grant);
        assert_eq!(r.total(), 0);
        assert!(r.tail().is_empty());
    }

    #[test]
    fn history_keeps_task_and_uli_kinds_merged_by_cycle_then_core() {
        let join = |task| FlightKind::Task { task, kind: TaskEventKind::Join };
        let (mut c0, mut c1) = (FlightLog::new(0, true), FlightLog::new(0, true));
        c0.record(1, FlightKind::Grant);
        c0.record(5, join(0));
        c0.record(6, FlightKind::UliNack { to: 1 });
        c0.record(6, FlightKind::UliReqRecv { from: 1 });
        for (t, task) in [(2, 1), (5, 2), (5, 3)] {
            c1.record(t, join(task));
        }
        assert_eq!(c0.total(), 0, "the ring stays off");
        let histories = [c0.take_history(), c1.take_history()];
        assert_eq!(histories[0].iter().map(|e| e.time).collect::<Vec<_>>(), vec![5, 6]);
        let order: Vec<_> =
            task_events(&histories).iter().map(|e| (e.cycle, e.core, e.task)).collect();
        assert_eq!(order, vec![(2, 1, 1), (5, 0, 0), (5, 1, 2), (5, 1, 3)]);
    }

    #[test]
    fn kind_labels_and_args() {
        assert_eq!(FlightKind::Grant.label(), "grant");
        assert_eq!(FlightKind::Grant.arg(), None);
        assert_eq!(FlightKind::UliReqSend { to: 3 }.arg(), Some(("peer", 3)));
        let spawn = FlightKind::Task { task: 7, kind: TaskEventKind::Spawn { parent: None } };
        assert_eq!(spawn.label(), "task_spawn");
        assert_eq!(spawn.arg(), Some(("task", 7)));
        assert_eq!(FlightKind::FaultUliDelay { extra: 40 }.arg(), Some(("extra", 40)));
    }
}
