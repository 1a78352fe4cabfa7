//! The work-stealing runtime: the paper's core contribution.
//!
//! Three variants of `spawn`/`wait`, transcribed from Figure 3:
//!
//! * [`RuntimeKind::Baseline`] — Figure 3(a): per-deque locks only, for
//!   hardware-based cache coherence.
//! * [`RuntimeKind::Hcc`] — Figure 3(b): a `cache_invalidate` after every
//!   deque lock acquire and a `cache_flush` before every release; `rc` read
//!   with an AMO; an unconditional invalidate when leaving `wait`; stolen
//!   tasks bracketed by invalidate/flush.
//! * [`RuntimeKind::Dts`] — Figure 3(c): direct task stealing over
//!   user-level interrupts. Deques become private (no locks, no
//!   invalidate/flush on local access — just `uli_disable`/`uli_enable`);
//!   the victim steals on behalf of the thief inside the ULI handler; the
//!   `has_stolen_child` flag elides AMOs, flushes, and invalidates entirely
//!   when no child of a task was ever stolen.
//!
//! # Fail-stop crashes and self-healing recovery
//!
//! When the armed fault plan includes a crash dimension
//! (`FaultPlan::crash_armed()`), crash-eligible tiny cores can fail-stop
//! mid-run. A crash is polled only at scheduler safe points (top of a
//! scheduling step, spawn entry) where no simulated or host lock is held;
//! it marks the core's ULI unit dead in sequenced order and unwinds the
//! worker to `run_task_parallel`, which either retires the core's
//! sequencer token (permanent crash) or parks it in a sequenced dormant
//! loop until its scheduled revival. Survivors observe the death through
//! a `Dead` steal reply or a periodic sequenced `dead_mask` scan, race a
//! sequenced claim word (first grant wins, so recovery is deterministic),
//! and the winner then: discards the dead core's deque (every entry
//! descends from a task frozen on its execution stack), rescues unclaimed
//! mailbox tasks (they belong to live families), and re-spawns the bottom
//! task of the frozen stack from its recorded body factory — the
//! replacement inherits the original's parent and join obligation, so no
//! join counter is left short. Recovery gives at-least-once execution:
//! subtrees can run twice, which is why re-execution-tolerant
//! applications gate their side effects on [`TaskCx::reexec_possible`]
//! (idempotent slot writes instead of read-modify-write accumulation) —
//! the same gate fires under the multiplicity deque policies, whose
//! double claims re-run a completed task as an audited duplicate.

use std::collections::VecDeque;
use std::sync::Arc;

use bigtiny_engine::sync::RwLock;

use bigtiny_engine::{
    run_system, task_events, AddrSpace, CorePort, FlightKind, RacyTag, RunReport, SyncNote,
    SystemConfig, TaskEvent, TaskEventKind, TimeCategory, UliMessage, UliOutcome, Worker,
    WATCHDOG_MSG,
};

use crate::deque::SimDeque;
use crate::task::{field, RespawnFn, TaskBody, TaskId, TaskRecord, WorkSpan};
use crate::telemetry::StealTelemetry;

/// Panic payload used to unwind a fail-stopped worker's stack down to the
/// catch in `run_task_parallel`. Private to the runtime: any other payload
/// crossing that catch is re-raised untouched.
struct CrashToken;

/// Which of the paper's three runtime implementations to use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuntimeKind {
    /// Figure 3(a): for hardware-based cache coherence.
    Baseline,
    /// Figure 3(b): for heterogeneous cache coherence.
    Hcc,
    /// Figure 3(c): direct task stealing via user-level interrupts.
    Dts,
}

impl RuntimeKind {
    /// Short label used in configuration names (`base`, `hcc`, `dts`).
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Baseline => "base",
            RuntimeKind::Hcc => "hcc",
            RuntimeKind::Dts => "dts",
        }
    }
}

/// Which deque policy the Baseline (hardware-coherence) runtime uses. The
/// paper's pseudocode uses per-deque locks; Chase-Lev is the classic
/// lock-free alternative it cites; the two multiplicity policies trade
/// exactly-once execution for an owner fast path with *no* atomics at all
/// (Castañeda & Piña's fence-free work stealing with multiplicity, and
/// idempotent work stealing à la Michael et al.).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DequeKind {
    /// Lock-protected deque (Figure 3(a)).
    Locked,
    /// Chase-Lev lock-free deque (owner pops race thieves with a CAS only
    /// on the last element). Only meaningful under hardware coherence.
    ChaseLev,
    /// Fence-free LIFO owner pop with multiplicity: the owner's claim is a
    /// plain `tail` store — no AMO even on the last element. A thief's CAS
    /// landing in the owner's pop window double-claims that last task; the
    /// owner then re-executes it as an audited duplicate (at-most-twice,
    /// verified by the checker's `Multiplicity` audit mode). Requires an
    /// idempotent kernel. Only meaningful under hardware coherence.
    FenceFree,
    /// Idempotent work stealing: the owner takes FIFO from the *same* end
    /// thieves steal from, publishing its `head` advance with a plain racy
    /// store instead of a CAS. A stale owner view double-claims stolen
    /// slots (re-executed as audited duplicates); duplicates are more
    /// frequent than under [`DequeKind::FenceFree`] because owner and
    /// thieves contend on every slot, not just the last. Requires an
    /// idempotent kernel. Only meaningful under hardware coherence.
    Idempotent,
}

impl DequeKind {
    /// Whether this policy may execute a task more than once (at most
    /// twice): relaxes the checker expectation from exactly-once to the
    /// `Multiplicity` audit mode and requires an idempotent kernel.
    pub fn multiplicity(self) -> bool {
        matches!(self, DequeKind::FenceFree | DequeKind::Idempotent)
    }

    /// Stable label used in setup names and metrics documents.
    pub fn label(self) -> &'static str {
        match self {
            DequeKind::Locked => "locked",
            DequeKind::ChaseLev => "chase-lev",
            DequeKind::FenceFree => "fence-free",
            DequeKind::Idempotent => "idempotent",
        }
    }
}

/// How a thief picks its victim.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VictimPolicy {
    /// Uniformly random among the other workers (the paper's
    /// `choose_victim`; the classic work-stealing choice).
    Random,
    /// Cycle through the other workers in id order.
    RoundRobin,
    /// Prefer mesh-nearest victims, walking outward on failures — an
    /// extension exploiting big.TINY's physical locality (steal latency and
    /// ULI hops grow with distance).
    NearestFirst,
}

/// A seeded sync-discipline bug, for exercising the DRF conformance
/// checker (`bigtiny-checker`). The mutation drops or corrupts exactly one
/// protocol-relevant operation; the functional result of the run is still
/// correct (host state is updated under the engine's global token), but on
/// real hardware the mutated schedule could observe stale data — which is
/// precisely what the checker must flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mutation {
    /// What to break.
    pub kind: MutationKind,
    /// Worker (core id) whose operation is mutated.
    pub core: usize,
    /// Which occurrence on that core to hit (0 = first), counted per
    /// mutation kind in program order. Ignored by the `HscStuck*` kinds,
    /// which corrupt every `has_stolen_child` read on the core.
    pub nth: u64,
}

/// The kinds of seeded sync-discipline bugs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// Skip one `cache_flush` (Figure 3's release-side writeback).
    DropFlush,
    /// Skip one `cache_invalidate` (Figure 3's acquire-side self-invalidate).
    DropInvalidate,
    /// Every `has_stolen_child` read returns `false`: the DTS runtime elides
    /// AMOs and invalidates even for joins whose children *were* stolen.
    /// This is the dangerous direction of a stuck-at fault on the flag.
    HscStuckFalse,
    /// Every `has_stolen_child` read returns `true`: the elision never
    /// fires. Slower, but conservative — the checker must stay clean.
    HscStuckTrue,
    /// Force one task to execute twice: after the `nth` clean local pop on
    /// the target core, the popped task is re-executed as an audited
    /// duplicate. Only meaningful under a multiplicity deque policy
    /// ([`DequeKind::multiplicity`]); unlike the coherence mutations this
    /// does not seed a *bug* — it seeds the duplicate the policy's
    /// at-most-twice contract permits, so the DPOR sweep can prove the
    /// checker battery and kernel verify stay clean with duplicates
    /// present under every schedule.
    DupTask,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Which Figure 3 variant to run.
    pub kind: RuntimeKind,
    /// Capacity of each worker's deque.
    pub deque_capacity: usize,
    /// Idle back-off after a failed steal, in cycles.
    pub steal_backoff_cycles: u64,
    /// Maximum back-off as a multiple of `steal_backoff_cycles` (the
    /// exponential back-off cap).
    pub steal_backoff_max_factor: u64,
    /// Victim-selection policy.
    pub victim_policy: VictimPolicy,
    /// Deque implementation for the Baseline runtime.
    pub deque_kind: DequeKind,
    /// Ablation: make the DTS victim hand out the *newest* task (deque tail)
    /// instead of the oldest (head). The paper's pseudocode pops the tail in
    /// the handler; classic work stealing takes the head. Default: head.
    pub dts_steal_from_tail: bool,
    /// Ablation: disable the `has_stolen_child` optimization in DTS
    /// (Section IV-C), falling back to conservative AMOs + invalidate.
    pub dts_has_stolen_child_opt: bool,
    /// Deliberately omit all `cache_invalidate`/`cache_flush` operations.
    /// This produces a runtime that is *incorrect on real hardware*; it
    /// exists to demonstrate that the staleness checker catches the bugs the
    /// paper's protocol prevents. Never enable outside tests/ablations.
    pub skip_coherence_ops: bool,
    /// Hardened DTS only (active when a fault plan is armed): cycles a thief
    /// waits for a ULI steal response before declaring it lost. Must exceed
    /// the worst-case request + handler + response latency or healthy steals
    /// are misclassified as timeouts.
    pub uli_response_timeout_cycles: u64,
    /// Hardened DTS only: consecutive failed ULI steal attempts (NACKs,
    /// empty victims, timeouts) before a thief gives up on direct task
    /// stealing for one round and steals through shared memory instead.
    pub uli_giveup_attempts: u64,
    /// Seeded sync-discipline bug for checker tests (see [`Mutation`]).
    /// `None` (the default) adds no code to any hot path.
    pub mutation: Option<Mutation>,
    /// Externally shared [`RuntimeStats`]: when set, the runtime counts
    /// into this handle instead of a private one, so a heartbeat sink can
    /// read live spawn/steal/recovery counters mid-run. Host-side only and
    /// out-of-band (reads race worker updates); the final
    /// [`TaskRun::stats`] is unaffected. `None` (the default) changes
    /// nothing.
    pub live_stats: Option<Arc<RwLock<RuntimeStats>>>,
}

impl RuntimeConfig {
    /// The configuration used for a given runtime kind with paper defaults.
    pub fn new(kind: RuntimeKind) -> Self {
        RuntimeConfig {
            kind,
            deque_capacity: 1 << 14,
            steal_backoff_cycles: 24,
            steal_backoff_max_factor: 32,
            victim_policy: VictimPolicy::Random,
            deque_kind: DequeKind::Locked,
            dts_steal_from_tail: false,
            dts_has_stolen_child_opt: true,
            skip_coherence_ops: false,
            uli_response_timeout_cycles: 4096,
            uli_giveup_attempts: 4,
            mutation: None,
            live_stats: None,
        }
    }
}

/// Counters maintained by the runtime during a run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct RuntimeStats {
    /// Tasks spawned.
    pub spawns: u64,
    /// Tasks executed (spawned tasks + the root).
    pub tasks_executed: u64,
    /// Steal attempts (lock-and-look or ULI request sent).
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// ULI steal requests that were NACKed (DTS only).
    pub steal_nacks: u64,
    /// ULI steal responses that never arrived within the hardened-mode
    /// timeout (only possible under an armed fault plan).
    pub uli_timeouts: u64,
    /// Steals performed through the shared-memory fallback path after the
    /// DTS runtime gave up on ULI for a round (hardened mode only).
    pub fallback_steals: u64,
    /// Steal attempts that the fault plan forced to miss before any deque
    /// or ULI traffic.
    pub forced_steal_misses: u64,
    /// Crash recovery: unstarted tasks discarded from fail-stopped cores'
    /// deques (their subtrees are recreated by re-execution).
    pub orphans_reclaimed: u64,
    /// Crash recovery: stolen tasks rescued from fail-stopped thieves'
    /// mailboxes and requeued on the recovering core.
    pub mailbox_rescues: u64,
    /// Crash recovery: tasks re-spawned because their executor fail-stopped
    /// mid-body (at-least-once re-executions).
    pub reexecutions: u64,
    /// Crash recovery: join counters repaired by a re-spawned task
    /// inheriting the dead original's pending decrement.
    pub joins_repaired: u64,
    /// Crash recovery: victim-quarantine events (a worker removing a dead
    /// core from its victim set, or doubling an existing quarantine's
    /// re-probe backoff).
    pub quarantines: u64,
    /// Crash recovery: cores that came back from a fail-stop and rejoined
    /// scheduling.
    pub revivals: u64,
    /// Multiplicity policies: tasks re-executed as duplicates after a
    /// double claim (owner and thief both won the slot), plus any seeded
    /// by [`MutationKind::DupTask`]. Always 0 for exactly-once policies.
    pub duplicate_executions: u64,
    /// Work/span profile of the task graph.
    pub workspan: WorkSpan,
}

/// The result of one simulated task-parallel run.
#[derive(Clone, Debug)]
pub struct TaskRun {
    /// Engine-level measurements (cycles, caches, traffic, ULI).
    pub report: RunReport,
    /// Runtime-level measurements (tasks, steals, work/span).
    pub stats: RuntimeStats,
    /// Scheduler telemetry: per-victim steal outcomes, ULI round-trip
    /// latency histogram, `has_stolen_child` elisions, joins.
    pub telemetry: StealTelemetry,
    /// Task lifecycle events in `(cycle, core)` order, derived once at run
    /// end from the report's flight histories; empty unless
    /// [`SystemConfig::flight_history`] was set.
    pub task_events: Vec<TaskEvent>,
}

/// Functional state shared by all workers.
pub(crate) struct RtShared {
    cfg: RuntimeConfig,
    deques: Vec<SimDeque>,
    tasks: RwLock<Vec<TaskRecord>>,
    mailboxes: Vec<Mailbox>,
    counters: Arc<RwLock<RuntimeStats>>,
    stack_bases: Vec<u64>,
    stack_bytes: u64,
    /// Instructions consumed by the ULI handler on each worker since that
    /// worker's last profiling mark; excluded from user-work attribution so
    /// the work/span profile stays schedule-invariant.
    handler_insts: Vec<RwLock<u64>>,
    /// Per-worker victim preference order (nearest mesh neighbours first),
    /// used by [`VictimPolicy::NearestFirst`] and `RoundRobin`.
    victim_order: Vec<Vec<usize>>,
    /// Per-worker occurrence counters for the armed [`Mutation`] (bumped
    /// only while a mutation targets that worker's coherence ops, so the
    /// un-mutated hot path never touches them).
    mut_counters: Vec<RwLock<u64>>,
    /// Steal telemetry (always collected — pure host-side counters).
    tel: RwLock<StealTelemetry>,
    // Crash-recovery state: allocated/used only when the fault plan can
    // fail-stop cores, so crash support adds nothing — not even simulated
    // address-space layout changes — to other runs.
    /// Host-side per-worker stacks of currently-executing task ids. A
    /// crash unwind skips the pops, freezing the snapshot recovery reads.
    exec_stacks: Vec<RwLock<Vec<u32>>>,
    /// Per-core recovery claim words (simulated address + host state); the
    /// first worker to win the sequenced AMO on a dead core's claim owns
    /// its recovery.
    claims: Vec<Claim>,
    /// Dedicated arena for respawned task records. Separate from worker
    /// stacks: the winner's `stack_top` is save/restored by frame exit, so
    /// carving respawn records from it would alias live allocations.
    respawn_base: u64,
    respawn_bytes: u64,
    respawn_cursor_addr: bigtiny_coherence::Addr,
    respawn_cursor: RwLock<u64>,
}

/// One core's recovery claim.
struct Claim {
    addr: bigtiny_coherence::Addr,
    owner: RwLock<Option<usize>>,
    /// Set by the claim winner once recovery finished; a revivable core
    /// stays dormant until then so its fresh work cannot be mistaken for
    /// pre-crash orphans.
    done: RwLock<bool>,
}

/// A thief's steal mailbox. Functionally a queue rather than a single word:
/// under fault injection a thief can time out on a steal request whose
/// victim nevertheless services it later, so a second victim's task may be
/// delivered while the first still sits unclaimed. ULI responses and mailbox
/// pushes happen in the same (token-ordered) handler executions, so queue
/// order always matches response order.
struct Mailbox {
    addr: bigtiny_coherence::Addr,
    value: RwLock<VecDeque<u64>>,
    /// Set (inside the same sequenced AMO that drains the queue) when
    /// crash recovery reclaims this mailbox: a victim handler whose push
    /// sequences after the seal keeps its task instead of stranding it.
    /// Cleared if the owner revives.
    sealed: RwLock<bool>,
}

impl RtShared {
    fn new(
        cfg: RuntimeConfig,
        space: &mut AddrSpace,
        workers: usize,
        topology: bigtiny_mesh::Topology,
        crash_armed: bool,
    ) -> Self {
        let deques = (0..workers).map(|_| SimDeque::new(space, cfg.deque_capacity)).collect();
        let mailboxes = (0..workers)
            .map(|_| Mailbox {
                addr: space.reserve_lines(64),
                value: RwLock::new(VecDeque::new()),
                sealed: RwLock::new(false),
            })
            .collect();
        // Crash-only allocations come last and only when armed, so the
        // simulated address layout of every other run is untouched.
        let (claims, respawn_cursor_addr, respawn_base, respawn_bytes) = if crash_armed {
            let claims = (0..workers)
                .map(|_| Claim {
                    addr: space.reserve_lines(64),
                    owner: RwLock::new(None),
                    done: RwLock::new(false),
                })
                .collect();
            let cursor = space.reserve_lines(64);
            let bytes = 1u64 << 18;
            let base = space.reserve_lines(bytes).0;
            (claims, cursor, base, bytes)
        } else {
            (Vec::new(), bigtiny_coherence::Addr(0), 0, 0)
        };
        let stack_bytes = 1 << 20;
        let stack_bases = (0..workers).map(|_| space.reserve_lines(stack_bytes).0).collect();
        let victim_order = (0..workers)
            .map(|w| {
                let me = topology.core_tile(w);
                let mut order: Vec<usize> = (0..workers).filter(|v| *v != w).collect();
                order.sort_by_key(|v| (me.hops_to(topology.core_tile(*v)), *v));
                order
            })
            .collect();
        let counters = cfg
            .live_stats
            .clone()
            .unwrap_or_else(|| Arc::new(RwLock::new(RuntimeStats::default())));
        RtShared {
            cfg,
            deques,
            tasks: RwLock::new(Vec::new()),
            mailboxes,
            counters,
            stack_bases,
            stack_bytes,
            handler_insts: (0..workers).map(|_| RwLock::new(0)).collect(),
            victim_order,
            mut_counters: (0..workers).map(|_| RwLock::new(0)).collect(),
            tel: RwLock::new(StealTelemetry::new(workers)),
            exec_stacks: (0..workers).map(|_| RwLock::new(Vec::new())).collect(),
            claims,
            respawn_base,
            respawn_bytes,
            respawn_cursor_addr,
            respawn_cursor: RwLock::new(0),
        }
    }

    /// True exactly when this call is the armed mutation's target (the
    /// `nth` occurrence of `kind` on worker `wid`, in program order).
    fn mutation_hits(&self, kind: MutationKind, wid: usize) -> bool {
        let Some(m) = self.cfg.mutation else { return false };
        if m.kind != kind || m.core != wid {
            return false;
        }
        let mut c = self.mut_counters[wid].write();
        let n = *c;
        *c += 1;
        n == m.nth
    }

    /// Figure 3's `cache_invalidate`, with the ablation and mutation hooks.
    /// All runtime-issued invalidates route through here so both the
    /// `skip_coherence_ops` ablation and a seeded [`MutationKind::DropInvalidate`]
    /// cover every site, including the victim-side steal handler.
    fn cache_invalidate(&self, port: &mut CorePort, wid: usize) {
        if self.cfg.skip_coherence_ops || self.mutation_hits(MutationKind::DropInvalidate, wid) {
            return;
        }
        port.invalidate_cache();
    }

    /// Figure 3's `cache_flush`; see [`RtShared::cache_invalidate`].
    fn cache_flush(&self, port: &mut CorePort, wid: usize) {
        if self.cfg.skip_coherence_ops || self.mutation_hits(MutationKind::DropFlush, wid) {
            return;
        }
        port.flush_cache();
    }

    fn parent_of(&self, t: TaskId) -> Option<TaskId> {
        self.tasks.read()[t.0 as usize].parent
    }

    fn rc_addr(&self, t: TaskId) -> bigtiny_coherence::Addr {
        self.tasks.read()[t.0 as usize].rc_addr()
    }

    fn hsc_addr(&self, t: TaskId) -> bigtiny_coherence::Addr {
        self.tasks.read()[t.0 as usize].hsc_addr()
    }

    /// The DTS victim-side steal handler (Figure 3(c) lines 47-53), invoked
    /// by the engine when a ULI arrives at this worker.
    fn handle_steal_request(&self, port: &mut CorePort, wid: usize, thief: usize) {
        let insts_at_entry = port.instructions();
        // Handler prologue: a handful of instructions to read the message.
        port.advance(4);
        let take = |dq: &SimDeque, port: &mut CorePort| {
            if self.cfg.dts_steal_from_tail {
                dq.pop_tail(port)
            } else {
                dq.pop_head(port)
            }
        };
        let task = if port.faults_active() {
            // Hardened mode: fallback thieves may touch this deque through
            // shared memory, so the handler takes the lock and brackets the
            // access HCC-style (see `TaskCx::fallback_steal`).
            let dq = &self.deques[wid];
            dq.lock(port);
            self.cache_invalidate(port, wid);
            let t = take(dq, port);
            self.cache_flush(port, wid);
            dq.unlock(port);
            t
        } else {
            take(&self.deques[wid], port)
        };
        if let Some(t) = task {
            // Mark the parent before exposing the task (line 50):
            // has_stolen_child is a plain store, since the parent lives on
            // this very core.
            if let Some(p) = self.parent_of(t) {
                let addr = self.hsc_addr(p);
                port.store_words(addr, 1, || {
                    self.tasks.write()[p.0 as usize].has_stolen_child = true;
                });
                port.annotate_sync(SyncNote::HscSet { task: p.0 });
            }
            // write_stolen_task (line 51): the task pointer goes through the
            // thief's mailbox in shared memory. The seal check shares the
            // push's sequenced critical section: it either lands before
            // recovery's drain-and-seal (and is rescued) or bounces here.
            let mb = &self.mailboxes[thief];
            let mut bounced = false;
            port.store_words(mb.addr, 1, || {
                if *mb.sealed.read() {
                    bounced = true;
                } else {
                    mb.value.write().push_back(t.to_payload());
                }
            });
            if bounced {
                // The thief fail-stopped and its mailbox was already
                // reclaimed: keep the task (one slot is free — we just
                // popped it) and answer "empty".
                let dq = &self.deques[wid];
                dq.lock(port);
                self.cache_invalidate(port, wid);
                assert!(dq.push_tail(port, t), "bounced steal no longer fits its own deque");
                self.cache_flush(port, wid);
                dq.unlock(port);
                port.uli_send_response(thief, 0);
            } else {
                // cache_flush (line 52): make the task and everything this
                // worker produced visible to the thief.
                self.cache_flush(port, wid);
                self.counters.write().steals += 1;
                port.uli_send_response(thief, 1);
            }
        } else {
            port.uli_send_response(thief, 0);
        }
        *self.handler_insts[wid].write() += port.instructions() - insts_at_entry;
    }
}

/// The per-worker execution context handed to every task body.
///
/// `TaskCx` is both the scheduler state of one worker and the TBB-like API
/// surface of the paper's Section III-A: [`TaskCx::spawn`] and
/// [`TaskCx::wait`], with [`crate::parallel_for`] and
/// [`crate::parallel_invoke`] layered on top.
pub struct TaskCx<'a> {
    port: &'a mut CorePort,
    rt: Arc<RtShared>,
    wid: usize,
    stack_top: u64,
    inst_mark: u64,
    current: Option<TaskId>,
    backoff: u64,
    victim_cursor: usize,
    /// Consecutive failed ULI steal attempts (hardened DTS only); reaching
    /// `RuntimeConfig::uli_giveup_attempts` triggers one shared-memory
    /// fallback steal, after which the count restarts.
    uli_fail_streak: u64,
    /// Whether the fault plan can fail-stop cores (cached from the port).
    /// Every crash/recovery hook below no-ops when false.
    crash_armed: bool,
    /// Scheduling-step counter driving the periodic sequenced dead-core
    /// scan (every 64th step).
    tick: u64,
    /// Cores this worker currently believes dead (from `Dead` replies or
    /// `dead_mask` scans); a core leaving the set on a later scan is how
    /// revival is observed. A growable bitset, so discovery works for
    /// every core of a >64-core system.
    known_dead: bigtiny_mesh::CoreSet,
    /// Cores whose recovery claim this worker already raced (win or lose),
    /// so each death costs at most one claim AMO per worker.
    claim_tried: bigtiny_mesh::CoreSet,
    /// Number of currently-quarantined victims (fast path: victim
    /// selection is untouched while zero).
    quarantined_count: usize,
    /// Per-victim quarantine state.
    health: Vec<VictimHealth>,
}

/// One victim's quarantine state, local to a thief.
#[derive(Clone, Copy, Default)]
struct VictimHealth {
    quarantined: bool,
    /// Local cycle at which the thief will probe the victim again.
    reprobe_at: u64,
    /// Current re-probe backoff, doubled on every failed probe.
    backoff: u64,
}

impl std::fmt::Debug for TaskCx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCx").field("worker", &self.wid).field("current", &self.current).finish()
    }
}

impl<'a> TaskCx<'a> {
    fn new(port: &'a mut CorePort, rt: Arc<RtShared>, wid: usize) -> Self {
        let stack_top = rt.stack_bases[wid];
        let backoff = rt.cfg.steal_backoff_cycles;
        let crash_armed = port.crash_armed();
        let health = vec![VictimHealth::default(); rt.deques.len()];
        TaskCx {
            port,
            rt,
            wid,
            stack_top,
            inst_mark: 0,
            current: None,
            backoff,
            victim_cursor: 0,
            uli_fail_streak: 0,
            crash_armed,
            tick: 0,
            known_dead: bigtiny_mesh::CoreSet::new(),
            claim_tried: bigtiny_mesh::CoreSet::new(),
            quarantined_count: 0,
            health,
        }
    }

    /// Whether the `has_stolen_child` elision is in force. Under an armed
    /// fault plan it is disabled: fallback steals bypass the victim-side
    /// handler that maintains the flag, so hardened DTS always uses the
    /// conservative AMO + unconditional-invalidate protocol.
    fn dts_hsc_opt(&self) -> bool {
        self.rt.cfg.dts_has_stolen_child_opt && !self.port.faults_active()
    }

    /// Whether a multiplicity deque policy is active (Baseline runtime
    /// only; the HCC/DTS paths always use the locked deque protocol).
    fn multiplicity(&self) -> bool {
        self.rt.cfg.kind == RuntimeKind::Baseline && self.rt.cfg.deque_kind.multiplicity()
    }

    /// True when a task body may execute more than once: a fail-stop
    /// crash plan is armed (recovery re-runs the subtree a dead core was
    /// executing, at-least-once) or a multiplicity deque policy is active
    /// (a double-claimed task re-runs as an audited duplicate,
    /// at-most-twice). Re-execution-tolerant applications gate their side
    /// effects on this (idempotent slot writes instead of
    /// read-modify-write accumulation).
    pub fn reexec_possible(&self) -> bool {
        self.crash_armed || self.multiplicity()
    }

    /// The simulated core this worker runs on.
    pub fn worker_id(&self) -> usize {
        self.wid
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.rt.deques.len()
    }

    /// Access to the simulated core, for application data accesses.
    pub fn port(&mut self) -> &mut CorePort {
        self.port
    }

    // ------------------------------------------------------------------
    // Profiling
    // ------------------------------------------------------------------

    /// Attributes instructions executed since the last mark to the current
    /// task's serial work and path.
    fn tally_user(&mut self) {
        let now = self.port.instructions();
        let handler = std::mem::take(&mut *self.rt.handler_insts[self.wid].write());
        let delta = (now - self.inst_mark).saturating_sub(handler);
        self.inst_mark = now;
        if delta == 0 {
            return;
        }
        if let Some(cur) = self.current {
            let mut tasks = self.rt.tasks.write();
            let prof = &mut tasks[cur.0 as usize].profile;
            prof.serial_work += delta;
            prof.path += delta;
        }
    }

    /// Resets the mark so runtime-internal instructions are not attributed
    /// to user work.
    fn remark(&mut self) {
        self.inst_mark = self.port.instructions();
        *self.rt.handler_insts[self.wid].write() = 0;
    }

    // ------------------------------------------------------------------
    // Coherence helpers (no-ops in the deliberately-broken ablation;
    // individual calls droppable by a seeded checker mutation)
    // ------------------------------------------------------------------

    fn cache_invalidate(&mut self) {
        self.rt.cache_invalidate(self.port, self.wid);
    }

    fn cache_flush(&mut self) {
        self.rt.cache_flush(self.port, self.wid);
    }

    // ------------------------------------------------------------------
    // Telemetry (host-side only: no sequenced operations, no cycle
    // charges — see `crate::telemetry`)
    // ------------------------------------------------------------------

    /// Records one task lifecycle event on the core's flight log. Also
    /// closes/reopens the port's open attribution span (a no-op unless
    /// attribution is armed) so every recorded event cycle is a span
    /// boundary — the critical-path replay can then walk spans and events
    /// in lockstep without ever splitting a span.
    fn record_event(&mut self, task: u32, kind: TaskEventKind) {
        self.port.attr_mark();
        self.port.flight_note(FlightKind::Task { task, kind });
    }

    /// Counts one steal attempt against `vid`.
    fn tel_attempt(&mut self, vid: usize) {
        self.port.flight_note(FlightKind::StealAttempt { victim: vid });
        self.rt.tel.write().per_victim[vid].attempts += 1;
    }

    /// Counts one successful steal from `vid`.
    fn tel_hit(&mut self, vid: usize) {
        self.port.flight_note(FlightKind::StealHit { victim: vid });
        self.rt.tel.write().per_victim[vid].hits += 1;
    }

    /// Counts one failed steal against `vid` (empty victim, NACK, timeout,
    /// or fault-forced miss).
    fn tel_miss(&mut self, vid: usize) {
        self.rt.tel.write().per_victim[vid].misses += 1;
    }

    // ------------------------------------------------------------------
    // Task allocation and field access
    // ------------------------------------------------------------------

    fn alloc_task(&mut self, body: Box<dyn TaskBody>, respawn: Option<RespawnFn>) -> TaskId {
        // Task records live on the spawning worker's simulated stack, like
        // the stack-allocated task objects of the paper's Figure 2.
        let base = self.rt.stack_bases[self.wid];
        assert!(
            self.stack_top + field::SIZE <= base + self.rt.stack_bytes,
            "simulated task stack overflow on worker {}",
            self.wid
        );
        let addr = bigtiny_coherence::Addr(self.stack_top);
        self.stack_top += field::SIZE;

        let parent = self.current;
        let id = {
            let mut tasks = self.rt.tasks.write();
            let id = TaskId(tasks.len() as u32);
            let mut rec = TaskRecord::new(body, parent, addr);
            rec.respawn = respawn;
            if let Some(p) = parent {
                rec.profile.spawn_path = tasks[p.0 as usize].profile.path;
            }
            tasks.push(rec);
            id
        };
        // Constructing the task object: descriptor + parent pointer stores.
        self.port.store_words(addr.offset(field::DESC), 2, || ());
        self.port.store_words(addr.offset(field::PARENT), 1, || ());
        self.record_event(id.0, TaskEventKind::Spawn { parent: parent.map(|p| p.0) });
        id
    }

    /// A plain `rc` read that tolerates staleness: on real hardware the
    /// cached value can only be *older* (larger) than the true count, which
    /// at worst costs an extra wait-loop iteration (Figure 3(c) line 8).
    /// Benign race: the join-counter spin. Remote decrements arrive by AMO
    /// (releases); the terminal read that observes zero synchronizes with
    /// them, so the checker treats [`RacyTag::RcWaitLoop`] loads as acquire
    /// reads of the counter's sync clock.
    fn read_rc_plain_racy(&mut self, t: TaskId) -> u64 {
        let addr = self.rt.rc_addr(t);
        self.port
            .load_words_racy(addr, 1, RacyTag::RcWaitLoop, || self.rt.tasks.read()[t.0 as usize].rc)
    }

    fn read_rc_amo(&mut self, t: TaskId) -> u64 {
        // The paper's `amo_or(p->rc, 0)`: an atomic read.
        let addr = self.rt.rc_addr(t);
        self.port.amo_word(addr, || self.rt.tasks.read()[t.0 as usize].rc)
    }

    /// Announces that the current task will spawn `n` children before its
    /// next [`TaskCx::wait`] — the paper's `this->reference_count = n`
    /// (Figure 2 line 16) / TBB's `set_ref_count`.
    ///
    /// Setting the count *before* any child is published is what makes a
    /// plain store safe: no thief can be decrementing yet.
    ///
    /// # Panics
    ///
    /// Panics if called outside a task, with children still outstanding, or
    /// with a previous `set_pending` budget not fully spawned.
    pub fn set_pending(&mut self, n: u64) {
        self.tally_user();
        let t = self.current.expect("set_pending() must be called from within a task");
        {
            let mut tasks = self.rt.tasks.write();
            let rec = &mut tasks[t.0 as usize];
            assert_eq!(rec.rc, 0, "set_pending() with children still outstanding");
            assert_eq!(rec.pending_budget, 0, "set_pending() before spawning the previous batch");
            rec.rc = n;
            rec.pending_budget = n;
        }
        // One plain store, as in Figure 2.
        let addr = self.rt.rc_addr(t);
        self.port.store_words(addr, 1, || ());
        self.port.advance(1);
        self.remark();
    }

    fn dec_rc_amo(&mut self, t: TaskId) {
        let addr = self.rt.rc_addr(t);
        self.port.amo_word(addr, || {
            let mut tasks = self.rt.tasks.write();
            let rc = &mut tasks[t.0 as usize].rc;
            debug_assert!(*rc > 0, "reference count underflow");
            *rc -= 1;
        });
    }

    fn dec_rc_plain(&mut self, t: TaskId) {
        let addr = self.rt.rc_addr(t);
        self.port.load(addr);
        self.port.store_words(addr, 1, || {
            let mut tasks = self.rt.tasks.write();
            let rc = &mut tasks[t.0 as usize].rc;
            debug_assert!(*rc > 0, "reference count underflow");
            *rc -= 1;
        });
    }

    fn read_hsc(&mut self, t: TaskId) -> bool {
        let addr = self.rt.hsc_addr(t);
        let v =
            self.port.load_words(addr, 1, || self.rt.tasks.read()[t.0 as usize].has_stolen_child);
        // Seeded stuck-at fault on the flag (checker test fixture): the
        // load still happens (same timing, same event stream shape); only
        // the value the runtime acts on is corrupted.
        match self.rt.cfg.mutation {
            Some(m) if m.core == self.wid && m.kind == MutationKind::HscStuckFalse => false,
            Some(m) if m.core == self.wid && m.kind == MutationKind::HscStuckTrue => true,
            _ => v,
        }
    }

    // ------------------------------------------------------------------
    // spawn — Figure 3, top half
    // ------------------------------------------------------------------

    /// Spawns `body` as a child of the current task (`task::spawn`).
    ///
    /// The number of children must have been announced with
    /// [`TaskCx::set_pending`] first, mirroring the paper's Figure 2.
    ///
    /// Bodies must be `Clone` so that, when a crash plan is armed, a
    /// factory can re-create the body if the core executing the task
    /// fail-stops (the clone is only taken in that mode).
    ///
    /// # Panics
    ///
    /// Panics if called outside a task body or without a `set_pending`
    /// budget.
    pub fn spawn(&mut self, body: impl FnOnce(&mut TaskCx<'_>) + Clone + Send + 'static) {
        self.maybe_crash();
        self.tally_user();
        let parent = self.current.expect("spawn() must be called from within a task");
        {
            let mut tasks = self.rt.tasks.write();
            let rec = &mut tasks[parent.0 as usize];
            assert!(rec.pending_budget > 0, "spawn() without a set_pending() budget");
            rec.pending_budget -= 1;
        }
        // Multiplicity policies also need the factory: a double-claimed
        // task's duplicate re-runs a fresh copy of the body.
        let respawn: Option<RespawnFn> = if self.crash_armed || self.multiplicity() {
            let b = body.clone();
            let f: Box<dyn FnMut() -> Box<dyn TaskBody> + Send> =
                Box::new(move || Box::new(b.clone()));
            Some(Arc::new(std::sync::Mutex::new(f)))
        } else {
            None
        };
        let child = self.alloc_task(Box::new(body), respawn);
        self.rt.counters.write().spawns += 1;
        // A few instructions of call overhead.
        self.port.advance(6);

        let enqueued = match self.rt.cfg.kind {
            RuntimeKind::Baseline => {
                let dq = &self.rt.deques[self.wid];
                match self.rt.cfg.deque_kind {
                    DequeKind::Locked => {
                        dq.lock(self.port);
                        let ok = dq.push_tail(self.port, child);
                        dq.unlock(self.port);
                        ok
                    }
                    DequeKind::ChaseLev => dq.cl_push_tail(self.port, child),
                    DequeKind::FenceFree | DequeKind::Idempotent => {
                        dq.mp_push_tail(self.port, child)
                    }
                }
            }
            RuntimeKind::Hcc => {
                let rt = Arc::clone(&self.rt);
                let dq = &rt.deques[self.wid];
                dq.lock(self.port);
                self.cache_invalidate();
                let ok = dq.push_tail(self.port, child);
                self.cache_flush();
                dq.unlock(self.port);
                ok
            }
            RuntimeKind::Dts => {
                self.port.uli_disable();
                let ok = if self.port.faults_active() {
                    // Hardened mode: the deque is no longer private (see
                    // `fallback_steal`), so guard it HCC-style.
                    let rt = Arc::clone(&self.rt);
                    let dq = &rt.deques[self.wid];
                    dq.lock(self.port);
                    self.cache_invalidate();
                    let ok = dq.push_tail(self.port, child);
                    self.cache_flush();
                    dq.unlock(self.port);
                    ok
                } else {
                    self.rt.deques[self.wid].push_tail(self.port, child)
                };
                self.port.uli_enable();
                ok
            }
        };
        if !enqueued {
            // Deque full: degenerate to immediate execution (depth-first),
            // which preserves semantics.
            self.execute_task(child);
            self.complete_task(child);
        }
        self.remark();
    }

    // ------------------------------------------------------------------
    // wait — Figure 3, bottom half
    // ------------------------------------------------------------------

    /// Waits until every child spawned by the current task has completed
    /// (`task::wait`), scheduling other tasks meanwhile.
    ///
    /// # Panics
    ///
    /// Panics if called outside a task body.
    pub fn wait(&mut self) {
        self.tally_user();
        let p = self.current.expect("wait() must be called from within a task");
        {
            let budget = self.rt.tasks.read()[p.0 as usize].pending_budget;
            assert_eq!(budget, 0, "wait() with {budget} announced children never spawned");
        }
        match self.rt.cfg.kind {
            RuntimeKind::Baseline => {
                // Benign race (RcWaitLoop): Figure 3(a)'s plain spin on the
                // join counter, safe under hardware coherence; see
                // `read_rc_plain_racy`.
                while self.read_rc_plain_racy(p) > 0 {
                    self.step_baseline();
                }
            }
            RuntimeKind::Hcc => {
                while self.read_rc_amo(p) > 0 {
                    self.step_hcc();
                }
                // Figure 3(b) line 40: children may have been stolen and
                // produced data elsewhere.
                self.cache_invalidate();
            }
            RuntimeKind::Dts => {
                let mut rc = if self.dts_hsc_opt() {
                    self.read_rc_plain_racy(p)
                } else {
                    self.read_rc_amo(p)
                };
                while rc > 0 {
                    self.step_dts();
                    rc = if self.dts_hsc_opt() {
                        // Lines 37-40: AMO only when a child was stolen. The
                        // plain read tolerates staleness (it can only be an
                        // older, larger count; the next iteration corrects).
                        if self.read_hsc(p) {
                            self.read_rc_amo(p)
                        } else {
                            self.read_rc_plain_racy(p)
                        }
                    } else {
                        self.read_rc_amo(p)
                    };
                }
                // Lines 43-44: invalidate only if a child was stolen.
                if !self.dts_hsc_opt() || self.read_hsc(p) {
                    self.cache_invalidate();
                } else {
                    self.port.annotate_sync(SyncNote::HscElide { task: p.0 });
                    self.rt.tel.write().hsc_elisions += 1;
                }
            }
        }
        // Merge completed children into the parent's critical path.
        {
            let mut tasks = self.rt.tasks.write();
            let prof = &mut tasks[p.0 as usize].profile;
            prof.path = prof.path.max(prof.candidate);
        }
        self.rt.tel.write().joins += 1;
        self.record_event(p.0, TaskEventKind::Join);
        self.remark();
    }

    // ------------------------------------------------------------------
    // Scheduling-loop steps (one iteration each)
    // ------------------------------------------------------------------

    fn execute_and_complete(&mut self, t: TaskId) {
        self.execute_task(t);
        self.complete_task(t);
    }

    /// Re-executes `orig` as an audited multiplicity duplicate: a fresh
    /// parentless record built from the original's body factory. The
    /// duplicate holds no join obligation — the claimant of the *original*
    /// decrements the parent's rc — so `complete_task` on it is a no-op,
    /// and only the at-most-twice contract (checker `Multiplicity` audit)
    /// makes the re-execution legal.
    fn execute_duplicate(&mut self, orig: TaskId) {
        let factory = self.rt.tasks.read()[orig.0 as usize]
            .respawn
            .clone()
            .expect("multiplicity deque task lacks a body factory");
        let body = {
            let mut f = factory.lock().unwrap_or_else(|e| e.into_inner());
            (*f)()
        };
        let base = self.rt.stack_bases[self.wid];
        assert!(
            self.stack_top + field::SIZE <= base + self.rt.stack_bytes,
            "simulated task stack overflow on worker {}",
            self.wid
        );
        let addr = bigtiny_coherence::Addr(self.stack_top);
        self.stack_top += field::SIZE;
        let id = {
            let mut tasks = self.rt.tasks.write();
            let id = TaskId(tasks.len() as u32);
            let mut rec = TaskRecord::new(body, None, addr);
            rec.respawn = Some(factory);
            rec.duplicate_of = Some(orig.0);
            tasks.push(rec);
            id
        };
        self.port.store_words(addr.offset(field::DESC), 2, || ());
        self.port.store_words(addr.offset(field::PARENT), 1, || ());
        self.record_event(id.0, TaskEventKind::Duplicate { of: orig.0 });
        self.rt.counters.write().duplicate_executions += 1;
        self.execute_and_complete(id);
    }

    fn step_baseline(&mut self) {
        self.hardened_tick();
        let dq = &self.rt.deques[self.wid];
        let (t, dup) = match self.rt.cfg.deque_kind {
            DequeKind::Locked => {
                dq.lock(self.port);
                let t = dq.pop_tail(self.port);
                dq.unlock(self.port);
                (t, false)
            }
            DequeKind::ChaseLev => (dq.cl_pop_tail(self.port), false),
            DequeKind::FenceFree => dq.ff_pop_tail(self.port),
            DequeKind::Idempotent => dq.idem_take_head(self.port),
        };
        if let Some(t) = t {
            if dup {
                // A thief also won this slot and runs the primary copy;
                // re-execute it here as an audited duplicate.
                self.execute_duplicate(t);
            } else {
                self.execute_and_complete(t);
                if self.multiplicity() && self.rt.mutation_hits(MutationKind::DupTask, self.wid) {
                    self.execute_duplicate(t);
                }
            }
            return;
        }
        let vid = self.choose_victim();
        self.rt.counters.write().steal_attempts += 1;
        self.tel_attempt(vid);
        if self.forced_miss(vid) {
            return;
        }
        let vdq = &self.rt.deques[vid];
        let t = match self.rt.cfg.deque_kind {
            DequeKind::Locked => {
                vdq.lock(self.port);
                let t = vdq.pop_head(self.port);
                vdq.unlock(self.port);
                t
            }
            DequeKind::ChaseLev => vdq.cl_steal(self.port),
            DequeKind::FenceFree | DequeKind::Idempotent => vdq.mp_steal(self.port),
        };
        if let Some(t) = t {
            self.rt.counters.write().steals += 1;
            self.tel_hit(vid);
            self.record_event(t.0, TaskEventKind::Stolen { from: vid as u32 });
            self.steal_succeeded();
            self.execute_and_complete(t);
        } else {
            self.tel_miss(vid);
            self.requarantine_if_dead(vid);
            self.steal_failed();
        }
    }

    fn step_hcc(&mut self) {
        self.hardened_tick();
        let rt = Arc::clone(&self.rt);
        let dq = &rt.deques[self.wid];
        dq.lock(self.port);
        self.cache_invalidate();
        let t = dq.pop_tail(self.port);
        self.cache_flush();
        dq.unlock(self.port);
        if let Some(t) = t {
            self.execute_and_complete(t);
            return;
        }
        let vid = self.choose_victim();
        self.rt.counters.write().steal_attempts += 1;
        self.tel_attempt(vid);
        if self.forced_miss(vid) {
            return;
        }
        let vdq = &rt.deques[vid];
        vdq.lock(self.port);
        self.cache_invalidate();
        let t = vdq.pop_head(self.port);
        self.cache_flush();
        vdq.unlock(self.port);
        if let Some(t) = t {
            self.rt.counters.write().steals += 1;
            self.tel_hit(vid);
            self.record_event(t.0, TaskEventKind::Stolen { from: vid as u32 });
            self.steal_succeeded();
            // Figure 3(b) lines 33-35: the stolen task's parent ran
            // elsewhere; bracket execution with invalidate/flush.
            self.cache_invalidate();
            self.execute_task(t);
            self.cache_flush();
            self.complete_task_stolen(t);
        } else {
            self.tel_miss(vid);
            self.requarantine_if_dead(vid);
            self.steal_failed();
        }
    }

    fn step_dts(&mut self) {
        self.hardened_tick();
        let hardened = self.port.faults_active();
        // Under faults, a response to a steal request this worker timed out
        // on can arrive arbitrarily late; its task is already queued in our
        // mailbox and would be lost if never claimed. Drain before anything
        // else.
        if hardened {
            if let Some(m) = self.port.uli_poll_response() {
                if m.payload == 1 {
                    self.claim_stolen_task(m.from);
                } else {
                    self.tel_miss(m.from);
                    self.uli_fail_streak += 1;
                    self.steal_failed();
                }
                return;
            }
        }
        // Local pop: deque is private, just mask ULIs (lines 11-13). In
        // hardened mode fallback thieves also touch this deque through
        // shared memory, so the owner locks and brackets HCC-style.
        self.port.uli_disable();
        let t = if hardened {
            let rt = Arc::clone(&self.rt);
            let dq = &rt.deques[self.wid];
            dq.lock(self.port);
            self.cache_invalidate();
            let t = dq.pop_tail(self.port);
            self.cache_flush();
            dq.unlock(self.port);
            t
        } else {
            self.rt.deques[self.wid].pop_tail(self.port)
        };
        self.port.uli_enable();
        if let Some(t) = t {
            self.execute_and_complete(t);
            return;
        }
        // Remote steal through the ULI network (lines 24-34).
        let vid = self.choose_victim();
        self.rt.counters.write().steal_attempts += 1;
        self.tel_attempt(vid);
        if self.forced_miss(vid) {
            self.uli_fail_streak += 1;
            return;
        }
        if hardened && self.uli_fail_streak >= self.rt.cfg.uli_giveup_attempts {
            // Give up on ULI for one round and steal through shared memory.
            self.uli_fail_streak = 0;
            self.fallback_steal(vid);
            return;
        }
        enum Resp {
            Got(UliMessage),
            Done,
            TimedOut,
        }
        // Round-trip start: the simulated time at which the request leaves
        // (a pure clock read — telemetry must not charge cycles).
        let rtt_start = self.port.now();
        match self.port.uli_send_request(vid, self.wid as u64) {
            UliOutcome::Sent => {
                // The unit accepted the request, so the victim is alive:
                // a re-probe of a quarantined core succeeded.
                self.unquarantine(vid);
                // Wait for the response, servicing incoming steal requests
                // to avoid mutual-steal deadlock. Without faults a response
                // is guaranteed; hardened mode bounds the wait because the
                // request may have been dropped in flight.
                let deadline = self.port.now() + self.rt.cfg.uli_response_timeout_cycles;
                let resp = loop {
                    if let Some(m) = self.port.uli_poll_response() {
                        break Resp::Got(m);
                    }
                    self.port.uli_poll();
                    if self.is_done() {
                        break Resp::Done;
                    }
                    if hardened && self.port.now() >= deadline {
                        break Resp::TimedOut;
                    }
                    self.port.wait_cycles(8, TimeCategory::UliWait);
                };
                if let Resp::Got(_) = &resp {
                    self.rt.tel.write().uli_rtt.record(self.port.now() - rtt_start);
                }
                match resp {
                    Resp::Got(m) if m.payload == 1 => self.claim_stolen_task(m.from),
                    Resp::Got(m) => {
                        // Victim was empty.
                        self.tel_miss(m.from);
                        self.uli_fail_streak += 1;
                        self.steal_failed();
                    }
                    Resp::TimedOut => {
                        // The request (or its response) was lost or badly
                        // delayed; back off and try elsewhere. If it was
                        // merely delayed, the eventual response is handled
                        // by the drain at the top of this function.
                        self.rt.counters.write().uli_timeouts += 1;
                        self.tel_miss(vid);
                        self.uli_fail_streak += 1;
                        self.steal_failed();
                    }
                    Resp::Done => {} // program finished while waiting
                }
            }
            UliOutcome::Nack { .. } => {
                self.rt.counters.write().steal_nacks += 1;
                self.tel_miss(vid);
                self.uli_fail_streak += 1;
                self.steal_failed();
            }
            UliOutcome::Dead { .. } => {
                // The victim fail-stopped: quarantine it (with backoff
                // re-probe so a revived core rejoins the victim set) and
                // volunteer for its recovery.
                self.tel_miss(vid);
                self.uli_fail_streak += 1;
                self.known_dead.insert(vid);
                self.quarantine(vid);
                self.try_recover(vid);
                self.steal_failed();
            }
        }
    }

    /// Claims a task the victim `from` handed over through this worker's
    /// mailbox (from a fresh or late ULI response with payload 1),
    /// executes it, and decrements its parent.
    fn claim_stolen_task(&mut self, from: usize) {
        // Invalidate (line 30), then read the mailbox fresh.
        self.cache_invalidate();
        let mb = &self.rt.mailboxes[self.wid];
        let raw = self.port.load_words(mb.addr, 1, || {
            mb.value.write().pop_front().unwrap_or(TaskId::NONE_PAYLOAD)
        });
        let t = TaskId::from_payload(raw).expect("victim promised a task");
        self.uli_fail_streak = 0;
        self.tel_hit(from);
        self.record_event(t.0, TaskEventKind::Stolen { from: from as u32 });
        self.steal_succeeded();
        self.port.mark_progress();
        self.execute_task(t);
        self.cache_flush(); // line 32
        self.complete_task_stolen(t); // line 33: amo_sub
    }

    /// Degraded shared-memory steal for hardened DTS: lock the victim's
    /// deque and take its head, bracketed with invalidate/flush exactly like
    /// the HCC runtime. Functionally safe under any fault plan because every
    /// DTS deque access (owner, handler, fallback thief) takes the lock
    /// while a plan is armed, and hardened mode always runs the conservative
    /// AMO + unconditional-invalidate completion protocol (see
    /// [`TaskCx::dts_hsc_opt`]), so no `has_stolen_child` bookkeeping is
    /// required on this path.
    fn fallback_steal(&mut self, vid: usize) {
        self.rt.counters.write().fallback_steals += 1;
        let rt = Arc::clone(&self.rt);
        let vdq = &rt.deques[vid];
        vdq.lock(self.port);
        self.cache_invalidate();
        let t = vdq.pop_head(self.port);
        self.cache_flush();
        vdq.unlock(self.port);
        if let Some(t) = t {
            self.rt.counters.write().steals += 1;
            self.tel_hit(vid);
            self.record_event(t.0, TaskEventKind::Stolen { from: vid as u32 });
            self.steal_succeeded();
            self.port.mark_progress();
            self.cache_invalidate();
            self.execute_task(t);
            self.cache_flush();
            self.complete_task_stolen(t);
        } else {
            self.tel_miss(vid);
            self.requarantine_if_dead(vid);
            self.steal_failed();
        }
    }

    /// Consults the fault plan's forced-miss hook; on a forced miss the
    /// steal attempt against `vid` is abandoned before any deque or ULI
    /// traffic.
    fn forced_miss(&mut self, vid: usize) -> bool {
        if self.port.fault_steal_miss() {
            self.rt.counters.write().forced_steal_misses += 1;
            self.tel_miss(vid);
            self.steal_failed();
            true
        } else {
            false
        }
    }

    /// Exponential back-off after a failed steal (reset on success), which
    /// keeps idle thieves from saturating victims' deque locks / ULI units.
    fn steal_failed(&mut self) {
        self.port.idle(self.backoff);
        // Saturating: `cycles * max_factor` is a configuration product that
        // can exceed u64::MAX (the chaos fuzzer found the debug-mode
        // overflow); the cap is "effectively unbounded" past saturation.
        self.backoff = self.backoff.saturating_mul(2).min(
            self.rt.cfg.steal_backoff_cycles.saturating_mul(self.rt.cfg.steal_backoff_max_factor),
        );
        // NearestFirst walks outward on failure.
        self.victim_cursor += 1;
    }

    fn steal_succeeded(&mut self) {
        self.backoff = self.rt.cfg.steal_backoff_cycles;
        self.victim_cursor = 0;
    }

    fn choose_victim(&mut self) -> usize {
        let n = self.num_workers();
        debug_assert!(n > 1, "cannot steal in a single-worker system");
        if self.quarantined_count > 0 {
            if let Some(v) = self.choose_live_victim(n) {
                return v;
            }
        }
        match self.rt.cfg.victim_policy {
            VictimPolicy::Random => {
                let mut v = self.port.rng_below(n as u64 - 1) as usize;
                if v >= self.wid {
                    v += 1;
                }
                v
            }
            VictimPolicy::RoundRobin => {
                let order = &self.rt.victim_order[self.wid];
                let v = order[self.victim_cursor % order.len()];
                self.victim_cursor += 1;
                v
            }
            VictimPolicy::NearestFirst => {
                let order = &self.rt.victim_order[self.wid];
                order[self.victim_cursor % order.len()]
            }
        }
    }

    /// Victim selection while quarantines are active: skip quarantined
    /// victims whose re-probe time has not arrived. Falls back to the
    /// normal policy (`None`) when no victim is currently eligible.
    fn choose_live_victim(&mut self, n: usize) -> Option<usize> {
        let now = self.port.now();
        let eligible = |h: &VictimHealth| !h.quarantined || now >= h.reprobe_at;
        match self.rt.cfg.victim_policy {
            VictimPolicy::Random => {
                let cands: Vec<usize> =
                    (0..n).filter(|v| *v != self.wid && eligible(&self.health[*v])).collect();
                if cands.is_empty() {
                    None
                } else {
                    Some(cands[self.port.rng_below(cands.len() as u64) as usize])
                }
            }
            VictimPolicy::RoundRobin => {
                let order = &self.rt.victim_order[self.wid];
                for _ in 0..order.len() {
                    let v = order[self.victim_cursor % order.len()];
                    self.victim_cursor += 1;
                    if eligible(&self.health[v]) {
                        return Some(v);
                    }
                }
                None
            }
            VictimPolicy::NearestFirst => {
                let order = &self.rt.victim_order[self.wid];
                (0..order.len())
                    .map(|i| order[(self.victim_cursor + i) % order.len()])
                    .find(|v| eligible(&self.health[*v]))
            }
        }
    }

    // ------------------------------------------------------------------
    // Fail-stop crashes and recovery (all no-ops unless the fault plan's
    // crash dimension is armed — see the module docs)
    // ------------------------------------------------------------------

    /// Safe-point crash poll: if this core's scheduled fail-stop cycle has
    /// passed, mark its ULI unit dead (a sequenced op — all future steal
    /// requests get `Dead` replies) and unwind to `run_task_parallel`. No
    /// simulated or host lock is held at any poll site.
    fn maybe_crash(&mut self) {
        if self.crash_armed && self.port.crash_pending() {
            self.port.crash_now();
            std::panic::panic_any(CrashToken);
        }
    }

    /// Per-scheduling-step crash hook: poll for this core's own crash,
    /// and every 64th step scan the sequenced dead mask for other cores'
    /// deaths (the only discovery path for the Baseline/Hcc runtimes, and
    /// the join-counter-timeout backstop for DTS).
    fn hardened_tick(&mut self) {
        if !self.crash_armed {
            return;
        }
        self.maybe_crash();
        self.tick = self.tick.wrapping_add(1);
        if self.tick.is_multiple_of(64) {
            self.observe_dead();
        }
    }

    /// Reads the sequenced dead set and reconciles it with this worker's
    /// view: newly-dead cores are quarantined and their recovery raced;
    /// cores that left the set (revived) are unquarantined.
    fn observe_dead(&mut self) {
        let mask = self.port.dead_mask();
        let fresh = mask.difference(&self.known_dead);
        let revived = self.known_dead.difference(&mask);
        self.known_dead = mask;
        for d in fresh.iter() {
            if d < self.health.len() && d != self.wid {
                self.quarantine(d);
                self.try_recover(d);
            }
        }
        for d in revived.iter() {
            if d < self.health.len() {
                self.unquarantine(d);
            }
        }
    }

    /// Removes `d` from this worker's victim set, or doubles the re-probe
    /// backoff if it already was removed (a probe just failed again).
    fn quarantine(&mut self, d: usize) {
        let base = self.rt.cfg.steal_backoff_cycles.max(1).saturating_mul(16);
        let h = &mut self.health[d];
        if h.quarantined {
            h.backoff = h.backoff.saturating_mul(2).min(1 << 16);
        } else {
            h.quarantined = true;
            h.backoff = base;
            self.quarantined_count += 1;
        }
        h.reprobe_at = self.port.now() + h.backoff;
        self.rt.counters.write().quarantines += 1;
    }

    /// Returns `d` to this worker's victim set (it revived, or a probe
    /// succeeded).
    fn unquarantine(&mut self, d: usize) {
        let h = &mut self.health[d];
        if h.quarantined {
            h.quarantined = false;
            self.quarantined_count -= 1;
        }
    }

    /// Doubles the re-probe backoff after a failed steal against a
    /// quarantined victim — the Baseline/Hcc equivalent of a `Dead` reply
    /// re-arming the quarantine.
    fn requarantine_if_dead(&mut self, vid: usize) {
        if self.crash_armed && self.health[vid].quarantined {
            self.quarantine(vid);
        }
    }

    /// Races the recovery claim for dead core `d` (at most once per worker
    /// per death); the sequenced AMO makes the winner the first claimant
    /// in grant order, so recovery is deterministic.
    fn try_recover(&mut self, d: usize) {
        if d >= self.rt.claims.len() || self.claim_tried.contains(d) {
            return;
        }
        self.claim_tried.insert(d);
        let rt = Arc::clone(&self.rt);
        let claim = &rt.claims[d];
        let won = self.port.amo_word(claim.addr, || {
            let mut o = claim.owner.write();
            if o.is_none() {
                *o = Some(self.wid);
                1
            } else {
                0
            }
        });
        if won == 1 {
            self.recover_core(d);
        }
    }

    /// Recovers dead core `d`: reclaim its deque orphans, rescue its
    /// unclaimed mailbox tasks, re-spawn the task it died inside, then
    /// publish completion (a revivable core stays dormant until then).
    fn recover_core(&mut self, d: usize) {
        let rt = Arc::clone(&self.rt);

        // (1) Orphan reclamation. Every task parked in the dead core's
        // deque was spawned by a task frozen on its execution stack (a
        // spawner cannot leave the stack before its children join), so the
        // bottom respawn in step (3) recreates all of them: discard.
        let dq = &rt.deques[d];
        let mut orphans = 0u64;
        if self.rt.cfg.kind == RuntimeKind::Baseline && self.rt.cfg.deque_kind != DequeKind::Locked
        {
            loop {
                let t = match self.rt.cfg.deque_kind {
                    DequeKind::ChaseLev => dq.cl_steal(self.port),
                    DequeKind::FenceFree | DequeKind::Idempotent => dq.mp_steal(self.port),
                    DequeKind::Locked => unreachable!(),
                };
                let Some(t) = t else { break };
                self.record_event(t.0, TaskEventKind::Discarded);
                orphans += 1;
            }
        } else {
            dq.lock(self.port);
            self.cache_invalidate();
            while let Some(t) = dq.pop_head(self.port) {
                self.record_event(t.0, TaskEventKind::Discarded);
                orphans += 1;
            }
            self.cache_flush();
            dq.unlock(self.port);
        }
        if orphans > 0 {
            self.rt.counters.write().orphans_reclaimed += orphans;
        }

        // (2) Mailbox rescue. Tasks victims handed to the dead thief that
        // it never claimed belong to *live* families — requeue them here.
        // Drain-and-seal is one sequenced AMO, so a concurrent victim
        // handler either lands before it (rescued) or bounces and keeps
        // its task.
        let mb = &rt.mailboxes[d];
        let mut rescued: Vec<TaskId> = Vec::new();
        self.port.amo_word(mb.addr, || {
            let mut q = mb.value.write();
            *mb.sealed.write() = true;
            while let Some(p) = q.pop_front() {
                if let Some(t) = TaskId::from_payload(p) {
                    rescued.push(t);
                }
            }
            rescued.len() as u64
        });
        if !rescued.is_empty() {
            self.rt.counters.write().mailbox_rescues += rescued.len() as u64;
        }
        for t in rescued {
            self.enqueue_recovered(t);
        }

        // (3) Re-execute the task the core died inside.
        self.respawn_bottom(d);

        *rt.claims[d].done.write() = true;
        self.port.mark_progress();
    }

    /// Re-spawns the bottom task of dead core `d`'s frozen execution
    /// stack. The bottom task always has a remote parent (a non-empty
    /// stack bottom arrives by steal, rescue, or respawn), so the
    /// replacement — which inherits that parent and its un-decremented
    /// join count — repairs the join the dead original left short. Tasks
    /// higher on the frozen stack are descendants of the bottom and are
    /// recreated by its re-execution.
    fn respawn_bottom(&mut self, d: usize) {
        let bottom = {
            let mut st = self.rt.exec_stacks[d].write();
            let b = st.first().copied();
            st.clear();
            b
        };
        let Some(b) = bottom else { return };
        let (parent, factory) = {
            let tasks = self.rt.tasks.read();
            let rec = &tasks[b as usize];
            (rec.parent, rec.respawn.clone())
        };
        // Core 0 is never crash-eligible, so the dead task is never the
        // root: it came through `spawn`, which records a factory whenever
        // crashes are armed.
        let factory = factory.expect("crashed task lacks a respawn factory");
        let body = {
            let mut f = factory.lock().unwrap_or_else(|e| e.into_inner());
            (*f)()
        };
        let addr = self.alloc_respawn_slot();
        let id = {
            let mut tasks = self.rt.tasks.write();
            let id = TaskId(tasks.len() as u32);
            let mut rec = TaskRecord::new(body, parent, addr);
            rec.respawn = Some(factory);
            if let Some(p) = parent {
                rec.profile.spawn_path = tasks[p.0 as usize].profile.path;
            }
            tasks.push(rec);
            id
        };
        self.port.store_words(addr.offset(field::DESC), 2, || ());
        self.port.store_words(addr.offset(field::PARENT), 1, || ());
        self.record_event(id.0, TaskEventKind::Respawn { of: b });
        {
            let mut c = self.rt.counters.write();
            c.reexecutions += 1;
            c.joins_repaired += 1;
        }
        self.enqueue_recovered(id);
    }

    /// Allocates one record-sized slot in the respawn arena through a
    /// sequenced AMO cursor (winners for different dead cores can race).
    fn alloc_respawn_slot(&mut self) -> bigtiny_coherence::Addr {
        let rt = Arc::clone(&self.rt);
        let slot = self.port.amo_word(rt.respawn_cursor_addr, || {
            let mut c = rt.respawn_cursor.write();
            let s = *c;
            *c += 1;
            s
        });
        assert!((slot + 1) * field::SIZE <= rt.respawn_bytes, "respawn arena exhausted");
        bigtiny_coherence::Addr(rt.respawn_base + slot * field::SIZE)
    }

    /// Queues a rescued or re-spawned task on this worker's own deque
    /// (falling back to immediate execution if full). Recovered tasks
    /// always have remote parents, so the inline path completes with an
    /// AMO like a stolen task.
    fn enqueue_recovered(&mut self, t: TaskId) {
        let rt = Arc::clone(&self.rt);
        let dq = &rt.deques[self.wid];
        let dts = self.rt.cfg.kind == RuntimeKind::Dts;
        if dts {
            self.port.uli_disable();
        }
        let ok = match self.rt.cfg.kind {
            RuntimeKind::Baseline => match self.rt.cfg.deque_kind {
                DequeKind::Locked => {
                    dq.lock(self.port);
                    let ok = dq.push_tail(self.port, t);
                    dq.unlock(self.port);
                    ok
                }
                DequeKind::ChaseLev => dq.cl_push_tail(self.port, t),
                DequeKind::FenceFree | DequeKind::Idempotent => dq.mp_push_tail(self.port, t),
            },
            RuntimeKind::Hcc | RuntimeKind::Dts => {
                dq.lock(self.port);
                self.cache_invalidate();
                let ok = dq.push_tail(self.port, t);
                self.cache_flush();
                dq.unlock(self.port);
                ok
            }
        };
        if dts {
            self.port.uli_enable();
        }
        if !ok {
            self.cache_invalidate();
            self.execute_task(t);
            self.cache_flush();
            self.complete_task_stolen(t);
        }
    }

    /// Host-side check the dormant revival loop polls: has this core's
    /// recovery finished?
    fn recovery_done(&self) -> bool {
        *self.rt.claims[self.wid].done.read()
    }

    /// Rejoins scheduling after a revival: clear the state the crash
    /// unwind left behind, unseal the mailbox, and mark the ULI unit
    /// alive again (sequenced, so thieves' next probes see it). The stack
    /// region below the frozen `stack_top` is leaked — in-flight
    /// decrements against dead task records may still touch it.
    fn rejoin_after_revival(&mut self) {
        self.current = None;
        self.uli_fail_streak = 0;
        self.backoff = self.rt.cfg.steal_backoff_cycles;
        self.rt.exec_stacks[self.wid].write().clear();
        *self.rt.mailboxes[self.wid].sealed.write() = false;
        self.port.revive_now();
        self.rt.counters.write().revivals += 1;
    }

    // ------------------------------------------------------------------
    // Task execution and completion
    // ------------------------------------------------------------------

    fn execute_task(&mut self, t: TaskId) {
        // Task execution is real forward progress: let the liveness
        // watchdog know (free when no watchdog is armed).
        self.port.mark_progress();
        // Attribute everything from dispatch to the post-body profile fold
        // to this task (save/restore nests across inlined child execution).
        let saved_attr = self.port.attr_switch(Some(t.0));
        // Dispatch: read the task descriptor and call through it.
        let desc = self.rt.tasks.read()[t.0 as usize].desc_addr();
        self.port.load_words(desc, 2, || ());
        self.port.advance(4);

        let body = self.rt.tasks.write()[t.0 as usize]
            .body
            .take()
            .expect("task executed twice")
            .into_inner();
        self.rt.counters.write().tasks_executed += 1;

        let saved_current = self.current.replace(t);
        let saved_stack = self.stack_top;
        if self.crash_armed {
            // Crash bookkeeping: an unwind skips the pop below, freezing
            // this worker's execution stack for recovery to read.
            self.rt.exec_stacks[self.wid].write().push(t.0);
        }
        self.record_event(t.0, TaskEventKind::ExecBegin);
        self.remark();
        body.run(self);
        self.tally_user();
        self.record_event(t.0, TaskEventKind::ExecEnd);
        if self.crash_armed {
            let popped = self.rt.exec_stacks[self.wid].write().pop();
            debug_assert_eq!(popped, Some(t.0));
        }
        self.stack_top = saved_stack;
        self.current = saved_current;
        self.port.attr_switch(saved_attr);

        // Fold this task's completed span into its parent's candidate path,
        // and count its serial work.
        let (span, serial, parent, spawn_path, is_dup) = {
            let tasks = self.rt.tasks.read();
            let rec = &tasks[t.0 as usize];
            (
                rec.profile.span(),
                rec.profile.serial_work,
                rec.parent,
                rec.profile.spawn_path,
                rec.duplicate_of.is_some(),
            )
        };
        {
            let mut counters = self.rt.counters.write();
            counters.workspan.work += serial;
            counters.workspan.tasks += 1;
        }
        match parent {
            Some(p) => {
                let mut tasks = self.rt.tasks.write();
                let pp = &mut tasks[p.0 as usize].profile;
                pp.candidate = pp.candidate.max(spawn_path + span);
            }
            None if is_dup => {
                // A multiplicity duplicate is parentless but is *not* the
                // root; it must not overwrite the program span.
            }
            None => {
                // Root task: its span is the program span.
                self.rt.counters.write().workspan.span = span;
            }
        }
        self.remark();
    }

    /// Completion of a locally-executed task.
    fn complete_task(&mut self, t: TaskId) {
        let parent = self.rt.parent_of(t);
        let Some(p) = parent else { return };
        match self.rt.cfg.kind {
            RuntimeKind::Baseline | RuntimeKind::Hcc => self.dec_rc_amo(p),
            RuntimeKind::Dts => {
                if self.dts_hsc_opt() {
                    // Figure 3(c) lines 17-20, with ULIs masked across the
                    // check-and-decrement: a steal handler running between
                    // the `has_stolen_child` read and a plain decrement
                    // could otherwise lose an update to `rc` on real
                    // hardware (the parent lives on this core, so masking
                    // this core's ULIs is sufficient).
                    self.port.uli_disable();
                    if self.read_hsc(p) {
                        self.dec_rc_amo(p);
                    } else {
                        self.port.annotate_sync(SyncNote::HscElide { task: p.0 });
                        self.rt.tel.write().hsc_elisions += 1;
                        self.dec_rc_plain(p);
                    }
                    self.port.uli_enable();
                } else {
                    self.dec_rc_amo(p);
                }
            }
        }
    }

    /// Completion of a stolen task: always an AMO (the parent is remote).
    fn complete_task_stolen(&mut self, t: TaskId) {
        if let Some(p) = self.rt.parent_of(t) {
            self.dec_rc_amo(p);
        }
    }

    fn is_done(&mut self) -> bool {
        self.port.is_done()
    }

    /// The outer scheduling loop for workers that do not run the program's
    /// main thread: keep executing and stealing until the program finishes.
    fn schedule_loop(&mut self) {
        while !self.is_done() {
            match self.rt.cfg.kind {
                RuntimeKind::Baseline => self.step_baseline(),
                RuntimeKind::Hcc => self.step_hcc(),
                RuntimeKind::Dts => self.step_dts(),
            }
        }
    }
}

/// Runs `root` as the root task of a task-parallel program on the simulated
/// system `sys` with runtime `cfg`, using `space` for the runtime's
/// simulated allocations (pass the same space used for application data).
///
/// Core 0 executes the root task (and schedules work while waiting inside
/// it); every other core runs the scheduling loop until the root completes.
///
/// # Panics
///
/// Re-raises panics from task bodies; panics on internal invariant
/// violations (reference-count underflow, double execution).
pub fn run_task_parallel(
    sys: &SystemConfig,
    cfg: &RuntimeConfig,
    space: &mut AddrSpace,
    root: impl FnOnce(&mut TaskCx<'_>) + Send + 'static,
) -> TaskRun {
    let n = sys.num_cores();
    assert!(n >= 1);
    let crash_armed = sys.faults.crash_armed();
    let rt = Arc::new(RtShared::new(cfg.clone(), space, n, sys.topology(), crash_armed));
    let dts = cfg.kind == RuntimeKind::Dts;

    let mut workers: Vec<Worker> = Vec::with_capacity(n);
    {
        let rt = Arc::clone(&rt);
        workers.push(Box::new(move |port: &mut CorePort| {
            // Attribute core 0's whole timeline — first cycle through
            // `set_done` — to the root task (id 0). With nothing charged
            // after `set_done`, core 0's final clock equals the completion
            // time exactly, which is what makes the profiler's measured-Tp
            // bounds (`ceil(T1/P) <= Tp <= T1`) exact rather than
            // approximate. No-op unless `sys.attr` is armed.
            port.attr_switch(Some(0));
            if dts {
                let h = Arc::clone(&rt);
                port.set_uli_handler(Box::new(move |p, msg| {
                    h.handle_steal_request(p, 0, msg.from)
                }));
                port.uli_enable();
            }
            let mut cx = TaskCx::new(port, Arc::clone(&rt), 0);
            // No respawn factory: core 0 is never crash-eligible.
            let root_id = cx.alloc_task(Box::new(root), None);
            cx.remark();
            cx.execute_task(root_id);
            if dts {
                cx.port.uli_disable();
            }
            cx.port.set_done();
        }));
    }
    for wid in 1..n {
        let rt = Arc::clone(&rt);
        workers.push(Box::new(move |port: &mut CorePort| {
            if dts {
                let h = Arc::clone(&rt);
                port.set_uli_handler(Box::new(move |p, msg| {
                    h.handle_steal_request(p, wid, msg.from)
                }));
                port.uli_enable();
            }
            let mut cx = TaskCx::new(port, rt, wid);
            if !cx.crash_armed {
                cx.schedule_loop();
            } else {
                // A fail-stopping worker unwinds to here with `CrashToken`.
                // Permanent crash: return, retiring this core's sequencer
                // token so the grant rotation never waits on it again.
                // Revivable crash: dormant sequenced-idle loop (grants keep
                // flowing) until the scheduled revival cycle AND the
                // survivors' recovery of this core have both passed, then
                // rejoin with a fresh scheduling loop.
                while let Err(payload) =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cx.schedule_loop()))
                {
                    if !payload.is::<CrashToken>() {
                        std::panic::resume_unwind(payload);
                    }
                    let after = cx.port.revive_after();
                    if after == 0 {
                        return;
                    }
                    let revive_at = cx.port.now().saturating_add(after);
                    loop {
                        if cx.is_done() {
                            return;
                        }
                        if cx.port.now() >= revive_at && cx.recovery_done() {
                            break;
                        }
                        cx.port.idle(256);
                    }
                    cx.rejoin_after_revival();
                }
            }
            if dts {
                cx.port.uli_disable();
            }
        }));
    }

    // If the engine's liveness watchdog aborts the run, enrich its
    // diagnostic bundle with the runtime-level picture (deque depths and
    // unclaimed mailbox entries) before re-raising: by far the most common
    // cause of a hung run is work parked where no live worker looks.
    let report =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_system(sys, workers))) {
            Ok(report) => report,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&'static str>().copied());
                match msg {
                    Some(m) if m.contains(WATCHDOG_MSG) => {
                        let mut out = String::from(m);
                        out.push_str("\nruntime state:\n");
                        for (w, dq) in rt.deques.iter().enumerate() {
                            let mb = rt.mailboxes[w].value.read().len();
                            out.push_str(&format!(
                                "  worker {w}: deque depth {}{}, {mb} unclaimed mailbox task(s)\n",
                                dq.host_len(),
                                if dq.host_locked() { " (locked)" } else { "" },
                            ));
                        }
                        let c = rt.counters.read();
                        out.push_str(&format!(
                            "  tasks: {} spawned, {} executed; steals: {} ok / {} attempts, \
                         {} nacks, {} timeouts, {} fallback\n",
                            c.spawns,
                            c.tasks_executed,
                            c.steals,
                            c.steal_attempts,
                            c.steal_nacks,
                            c.uli_timeouts,
                            c.fallback_steals,
                        ));
                        if sys.faults.crash_armed() {
                            out.push_str(&format!(
                                "  recovery: {} orphans discarded, {} mailbox rescues, \
                             {} re-executions, {} quarantines, {} revivals\n",
                                c.orphans_reclaimed,
                                c.mailbox_rescues,
                                c.reexecutions,
                                c.quarantines,
                                c.revivals,
                            ));
                        }
                        std::panic::panic_any(out)
                    }
                    _ => std::panic::resume_unwind(payload),
                }
            }
        };
    let stats = *rt.counters.read();
    let telemetry = rt.tel.read().clone();
    // Worker id == core id, so the per-core histories are the per-worker
    // recording orders this view merges.
    let task_events = task_events(&report.flight_history);
    TaskRun { report, stats, telemetry, task_events }
}
