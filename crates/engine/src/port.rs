//! The per-core operation interface.
//!
//! A [`CorePort`] is handed to each worker closure and is the only way to
//! act on the simulated machine: compute, loads/stores/AMOs on simulated
//! addresses, bulk cache operations, and user-level interrupts. Every
//! operation advances the core's local clock; operations on shared state are
//! serialized by the global [`Sequencer`](crate::sequencer::Sequencer) in
//! simulated-time order.
//!
//! **Locking discipline:** a sequenced operation may park the calling
//! thread until its simulated turn. Never hold a lock (or a guard
//! temporary) across a `CorePort` call — bind values out of guards first —
//! or a token holder blocking on that lock deadlocks the simulation.
//!
//! ULIs are delivered at instruction boundaries: every sequenced operation
//! checks (inside the same critical section, at no extra cost) whether an
//! enabled ULI request has arrived, and if so invokes the installed handler
//! after charging the architectural interrupt cost.
//!
//! **Recording:** each event is recorded once, by the flight log, the
//! checker stream, trace spans or attribution spans. An event describing a
//! sequenced operation is stamped at its grant clock, before a ULI
//! admitted in the same critical section is dispatched (`seq_with`), so a
//! handler's events follow the operation that admitted it.

use std::sync::Arc;

use bigtiny_coherence::Addr;
use bigtiny_mesh::{CoreSet, UliMessage, UliOutcome, XorShift64};

use crate::breakdown::{TimeBreakdown, TimeCategory};
use crate::config::CoreKind;
use crate::event::{MemEvent, MemOp, RacyTag, SyncNote};
use crate::fault::{FaultCounters, FaultPlan, FaultState, UliSendFault};
use crate::flight::{FlightKind, FlightLog, LiveCounters};
use crate::system::{GlobalState, Shared};

/// A ULI handler installed by the runtime: invoked with the port and the
/// incoming request message (the thief's core id is `msg.from`).
pub type UliHandler = Box<dyn FnMut(&mut CorePort, UliMessage) + Send>;

/// Entries in each core's store buffer: stores retire into the buffer and
/// only stall the core when it is full (or at drain points: AMOs, flushes).
const STORE_BUFFER_ENTRIES: usize = 8;

/// Bound on coalesced-but-uncharged compute cycles. Coalescing defers the
/// bookkeeping of consecutive pure-compute advances, and the flush is also
/// where the poison flag is polled — so an unbounded accumulation on a core
/// with no ULI handler could spin forever in a poisoned run. The bound is
/// far above any real kernel's inter-operation compute stretch, so it only
/// exists as that safety valve.
const MAX_PENDING_COMPUTE: u64 = 4096;

/// One contiguous stretch of a core's timeline attributed to a single task
/// (or to no task — scheduler time between tasks: steal loops, idling,
/// runtime bookkeeping). Recorded when [`crate::SystemConfig::attr`] is
/// armed; the spans of one core tile its timeline without gaps or overlap,
/// and each span carries the [`TimeBreakdown`] of exactly its interval, so
/// summing span breakdowns reproduces the core's report breakdown.
#[derive(Clone, Debug)]
pub struct AttrSpan {
    /// The task this interval's cycles belong to, or `None` for scheduler
    /// time outside any task body.
    pub task: Option<u32>,
    /// First cycle of the interval (inclusive).
    pub start: u64,
    /// One past the last cycle of the interval (`end - start` cycles).
    pub end: u64,
    /// Where the interval's cycles went; totals exactly `end - start`.
    pub breakdown: TimeBreakdown,
}

/// Recorder state for attribution spans: the open span's owner plus the
/// clock/breakdown snapshot at its start. Same zero-overhead discipline as
/// the trace buffer — snapshots are pure reads of already-computed values.
struct AttrState {
    current: Option<u32>,
    mark_clock: u64,
    mark_breakdown: TimeBreakdown,
    spans: Vec<AttrSpan>,
}

/// Handle through which a worker drives one simulated core.
pub struct CorePort {
    core: usize,
    kind: CoreKind,
    clock: u64,
    instructions: u64,
    /// Completion times of in-flight stores.
    store_buffer: std::collections::VecDeque<u64>,
    /// Compute cycles accumulated since the last ULI-delivery opportunity;
    /// long pure-compute stretches poll at this granularity so a core stays
    /// interruptible (ULIs are delivered at instruction granularity on real
    /// hardware).
    compute_since_poll: u64,
    /// Compute cycles accumulated by consecutive [`CorePort::advance`]
    /// calls but not yet folded into `clock`/`breakdown`/trace (compute
    /// coalescing). Flushed before anything observes the clock: sequenced
    /// ops, non-compute charges, store-buffer arithmetic, [`CorePort::now`],
    /// and the final report. Timing-invisible by construction — only the
    /// number of bookkeeping operations changes, never their sum.
    pending_compute: u64,
    breakdown: TimeBreakdown,
    trace: Option<Vec<crate::trace::TraceEvent>>,
    /// Checker event stream, buffered per core when a
    /// [`CheckMode`](crate::CheckMode) is armed. `None` (the default) makes
    /// every emission a single never-taken branch, so unarmed timing and
    /// grant streams are bit-for-bit unchanged. Each event carries the
    /// sequencer's grant counter at its sequenced operation (see
    /// `last_stamp`), letting the engine merge per-core buffers in true
    /// grant order even under a [`crate::SchedulePolicy::Scripted`] run,
    /// where time ties are not broken by core id.
    events: Option<Vec<(u64, MemEvent)>>,
    /// Sequencer grant counter captured inside the most recent sequenced
    /// section (between `enter` and `leave`, no other core can be granted,
    /// so the counter uniquely identifies this core's grant). Sync
    /// annotations and handler-entry events take the stamp of the
    /// operation they ride on.
    last_stamp: u64,
    /// Per-task attribution spans, buffered when
    /// [`crate::SystemConfig::attr`] is armed. `None` (the default) makes
    /// every switch/mark a single never-taken branch.
    attr: Option<AttrState>,
    /// The always-on flight recorder: the ring of the last N events on
    /// this core plus, when armed, its task/ULI history (see
    /// [`crate::flight`]). Observation-only — every hook records clocks
    /// and ids the simulation already computed, and with both sinks off
    /// each hook is a never-taken branch — so recording can stay
    /// default-on without perturbing a single simulated cycle
    /// (golden-pinned by `armed_observability`).
    flight: FlightLog,
    /// Live-counter sink for the heartbeat, published at the top of every
    /// sequenced section (under the token). `None` unless a heartbeat is
    /// armed.
    live: Option<Arc<LiveCounters>>,
    rng: XorShift64,
    faults: FaultState,
    shared: Arc<Shared>,
    handler: Option<UliHandler>,
    in_handler: bool,
    issue_width: u64,
    overlap_div: u64,
    uli_cost: u64,
    num_cores: usize,
}

impl std::fmt::Debug for CorePort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorePort")
            .field("core", &self.core)
            .field("kind", &self.kind)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl CorePort {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        core: usize,
        kind: CoreKind,
        shared: Arc<Shared>,
        seed: u64,
        faults: FaultPlan,
        issue_width: u64,
        overlap_div: u64,
        uli_cost: u64,
        num_cores: usize,
    ) -> Self {
        CorePort {
            core,
            kind,
            clock: 0,
            instructions: 0,
            store_buffer: std::collections::VecDeque::new(),
            compute_since_poll: 0,
            pending_compute: 0,
            breakdown: TimeBreakdown::new(),
            trace: None,
            events: None,
            last_stamp: 0,
            attr: None,
            flight: FlightLog::new(0, false),
            live: None,
            rng: XorShift64::new(seed ^ (core as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)),
            // Only tiny cores other than core 0 are crash-eligible: core 0
            // runs the program's root task, and the paper's big cores are
            // the reliable hosts of last resort.
            faults: FaultState::new(faults, core, kind == CoreKind::Tiny && core != 0),
            shared,
            handler: None,
            in_handler: false,
            issue_width,
            overlap_div,
            uli_cost,
            num_cores,
        }
    }

    /// This core's id.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Number of cores in the system.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// This core's microarchitecture class.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// Current local simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.clock + self.pending_compute
    }

    /// Instructions retired so far (used for work/span accounting).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The accumulated execution-time breakdown, including compute cycles
    /// still coalesced (not yet folded into the clock).
    pub fn breakdown(&self) -> TimeBreakdown {
        let mut b = self.breakdown;
        b.add(TimeCategory::Compute, self.pending_compute);
        b
    }

    /// Deterministic per-core random value in `0..bound`.
    pub fn rng_below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Runs `f` on the global state under the token, delivering at most one
    /// pending ULI observed in the same critical section.
    fn seq<R>(&mut self, f: impl FnOnce(&mut GlobalState, u64, usize) -> R) -> R {
        self.seq_with(f, |_, _| {})
    }

    /// [`CorePort::seq`] plus event recording: `record` sees the sequenced
    /// result and records the checker and flight events that describe the
    /// operation. This is the one stamping rule for such events: `record`
    /// runs after `leave` with `self.clock` still the grant clock, and
    /// before any ULI admitted in the same critical section is dispatched
    /// — otherwise a handler's own events would precede the operation that
    /// admitted the interrupt, and the recorded cycle would include
    /// handler time.
    fn seq_with<R>(
        &mut self,
        f: impl FnOnce(&mut GlobalState, u64, usize) -> R,
        record: impl FnOnce(&mut Self, &R),
    ) -> R {
        self.flush_compute();
        let check_uli = self.handler.is_some() && !self.in_handler;
        let (r, msg) = {
            self.shared.seq.enter(self.core, self.clock);
            self.flight.record(self.clock, FlightKind::Grant);
            if let Some(live) = &self.live {
                // Under the token: no other core can be granted until we
                // leave, so heartbeat reads of these counters are a
                // deterministic function of the grant stream.
                live.publish(self.core, self.clock, &self.breakdown, &self.faults.counters);
            }
            if self.events.is_some() {
                // Between our grant and `leave` no other core can be
                // granted, so the counter read here uniquely stamps this
                // sequenced operation with its global grant index.
                self.last_stamp = self.shared.seq.total_grants();
            }
            let mut st = self.shared.state.lock();
            let r = f(&mut st, self.clock, self.core);
            let msg = if check_uli { st.uli.take_request(self.core, self.clock) } else { None };
            drop(st);
            self.shared.seq.leave(self.core);
            (r, msg)
        };
        record(self, &r);
        // Every sequenced operation is a ULI-delivery opportunity.
        self.compute_since_poll = 0;
        if let Some(m) = msg {
            // Fault injection: a taken request can be lost before the
            // handler sees it (a dropped interrupt).
            if !self.faults.on_uli_receive() {
                self.dispatch_uli(m);
            } else {
                self.flight.record(self.clock, FlightKind::FaultRxDrop);
            }
        }
        r
    }

    fn dispatch_uli(&mut self, msg: UliMessage) {
        // Architectural interrupt cost: drain in-flight instructions and
        // vector to the user-level handler.
        self.breakdown.add(TimeCategory::Uli, self.uli_cost);
        self.clock += self.uli_cost;
        self.flight.record(self.clock, FlightKind::UliReqRecv { from: msg.from });
        self.emit(MemOp::Sync(SyncNote::HandlerEnter { from: msg.from }));
        let mut h = self.handler.take().expect("handler present when dispatching");
        self.in_handler = true;
        h(self, msg);
        self.in_handler = false;
        self.handler = Some(h);
    }

    /// Memory-stall latency as seen by this core: big out-of-order cores
    /// overlap part of every miss with independent work.
    fn mem_latency(&self, raw: u64) -> u64 {
        match self.kind {
            CoreKind::Big => (raw / self.overlap_div).max(1),
            CoreKind::Tiny => raw,
        }
    }

    fn charge(&mut self, cat: TimeCategory, cycles: u64) {
        self.flush_compute();
        self.charge_now(cat, cycles);
    }

    /// Folds any coalesced compute into the clock/breakdown/trace. Between
    /// the first deferred `advance` and this flush the clock never moves
    /// (every other charge flushes first), so the single merged trace event
    /// spans exactly the cycles the individual events would have.
    fn flush_compute(&mut self) {
        let pending = std::mem::take(&mut self.pending_compute);
        if pending > 0 {
            self.charge_now(TimeCategory::Compute, pending);
        }
    }

    fn charge_now(&mut self, cat: TimeCategory, cycles: u64) {
        if cycles > 0 {
            // A core looping on purely local time (back-off, spin-waits)
            // never takes the sequencer lock, so it must poll the poison
            // flag here or a poisoned run could not unwind it.
            if self.shared.seq.check_poison() {
                panic!("{}", crate::sequencer::POISON_MSG);
            }
            // Productive local cycles are liveness evidence for the
            // watchdog's wall-clock fallback; idle spinning is not (it only
            // waits on sequenced state, which needs a grant to change).
            if cat != TimeCategory::Idle {
                self.shared.seq.note_local_progress();
            }
            if let Some(t) = self.trace.as_mut() {
                t.push(crate::trace::TraceEvent { start: self.clock, cycles, category: cat });
            }
        }
        self.breakdown.add(cat, cycles);
        self.clock += cycles;
    }

    /// Enables trace recording on this port (set by the engine when the
    /// system configuration requests traces).
    pub(crate) fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Enables checker event collection on this port (set by the engine
    /// when [`crate::SystemConfig::check`] is armed).
    pub(crate) fn enable_events(&mut self) {
        self.events = Some(Vec::new());
    }

    /// Sizes this port's flight-recorder ring and arms its history (set
    /// by the engine from [`crate::SystemConfig::flight_ring`], 0 disables
    /// the ring, and [`crate::SystemConfig::flight_history`]).
    pub(crate) fn set_flight_log(&mut self, ring: usize, history: bool) {
        self.flight = FlightLog::new(ring, history);
    }

    /// Installs the live-counter sink the heartbeat reads (set by the
    /// engine when [`crate::SystemConfig::heartbeat`] is armed).
    pub(crate) fn set_live(&mut self, live: Arc<LiveCounters>) {
        self.live = Some(live);
    }

    /// Records one event on this core's flight recorder at the current
    /// local clock. Observation-only: never sequences, never charges a
    /// cycle — runtimes call this from their scheduler hooks (task
    /// lifecycle, steal attempts, deque operations) without perturbing
    /// simulated state. With the ring and history off this is two
    /// never-taken branches.
    #[inline]
    pub fn flight_note(&mut self, kind: FlightKind) {
        let t = self.now();
        self.flight.record(t, kind);
    }

    /// Records one checker event at the current clock. Called right after
    /// a sequenced operation returns — before its latency is charged — so
    /// `self.clock` is exactly the grant time of the operation. Never
    /// sequences and never charges: with events disabled this is one
    /// never-taken branch.
    #[inline]
    fn emit(&mut self, op: MemOp) {
        if let Some(ev) = self.events.as_mut() {
            ev.push((self.last_stamp, MemEvent { cycle: self.clock, core: self.core, op }));
        }
    }

    /// Inserts a zero-cost synchronization annotation into the checker
    /// event stream (deque acquire/release, `has_stolen_child`
    /// transitions). Pure metadata: takes no sequencer grant, charges no
    /// cycles, and compiles to a never-taken branch when checking is off —
    /// so annotating the runtime cannot perturb any golden hash.
    pub fn annotate_sync(&mut self, note: SyncNote) {
        if let Some(ev) = self.events.as_mut() {
            let cycle = self.clock + self.pending_compute;
            ev.push((self.last_stamp, MemEvent { cycle, core: self.core, op: MemOp::Sync(note) }));
        }
    }

    /// Enables attribution-span recording on this port (set by the engine
    /// when [`crate::SystemConfig::attr`] is armed).
    pub(crate) fn enable_attr(&mut self) {
        self.attr = Some(AttrState {
            current: None,
            mark_clock: 0,
            mark_breakdown: TimeBreakdown::new(),
            spans: Vec::new(),
        });
    }

    /// Switches the open attribution span to `task`, returning the previous
    /// owner so callers can save/restore around nested task execution.
    /// Closes the span in flight at the current clock (empty spans are
    /// dropped) and opens a new one. Never sequences, never charges, and
    /// reads the clock and breakdown *with* coalesced compute folded in
    /// (without flushing it), so arming attribution is bit-for-bit
    /// invisible to simulated timing. Returns `None` when disarmed.
    pub fn attr_switch(&mut self, task: Option<u32>) -> Option<u32> {
        let now = self.clock + self.pending_compute;
        let breakdown = self.breakdown();
        if let Some(a) = self.attr.as_mut() {
            let prev = a.current;
            if now > a.mark_clock {
                a.spans.push(AttrSpan {
                    task: prev,
                    start: a.mark_clock,
                    end: now,
                    breakdown: breakdown.diff(&a.mark_breakdown),
                });
            }
            a.current = task;
            a.mark_clock = now;
            a.mark_breakdown = breakdown;
            prev
        } else {
            None
        }
    }

    /// Closes and reopens the current attribution span at the current
    /// clock without changing its owner. Called at task-lifecycle event
    /// points so every recorded event cycle is also a span boundary — the
    /// DAG replay can then apportion a task's cycles across its events
    /// exactly, never splitting a span.
    #[inline]
    pub fn attr_mark(&mut self) {
        if self.attr.is_some() {
            let cur = self.attr.as_ref().and_then(|a| a.current);
            self.attr_switch(cur);
        }
    }

    // ------------------------------------------------------------------
    // Compute and idling
    // ------------------------------------------------------------------

    /// Executes `insts` non-memory instructions (purely local: no
    /// sequencing). Big cores retire `issue_width` per cycle.
    pub fn advance(&mut self, insts: u64) {
        self.instructions += insts;
        let cycles = match self.kind {
            CoreKind::Big => insts.div_ceil(self.issue_width),
            CoreKind::Tiny => insts,
        };
        // Coalesce consecutive pure-compute advances into one deferred
        // clock bump; the ULI-delivery boundary below is still checked on
        // the accumulated total, so delivery opportunities land at the same
        // simulated cycle they always did.
        self.pending_compute += cycles;
        if self.pending_compute >= MAX_PENDING_COMPUTE {
            self.flush_compute();
        }
        // Long pure-compute stretches must remain interruptible: poll for
        // ULIs every ~256 accumulated compute cycles.
        if self.handler.is_some() && !self.in_handler {
            self.compute_since_poll += cycles;
            if self.compute_since_poll >= 256 {
                self.uli_poll();
            }
        }
    }

    /// Burns `cycles` in the given accounting category (back-off, waits).
    pub fn wait_cycles(&mut self, cycles: u64, cat: TimeCategory) {
        self.charge(cat, cycles);
    }

    /// Burns `cycles` as idle time.
    pub fn idle(&mut self, cycles: u64) {
        self.charge(TimeCategory::Idle, cycles);
    }

    // ------------------------------------------------------------------
    // Memory operations
    // ------------------------------------------------------------------

    /// Loads `words` consecutive words starting at `addr`; `f` produces the
    /// functional value and runs race-free under the global token.
    pub fn load_words<R>(&mut self, addr: Addr, words: u64, f: impl FnOnce() -> R) -> R {
        self.load_words_impl(addr, words, None, f)
    }

    /// Like [`CorePort::load_words`], but a declared benign race: exempt
    /// from the runtime staleness counter and race-whitelisted in the DRF
    /// checker's happens-before pass under the audited `tag` (the staleness
    /// pass still counts it per tag). Timing is identical to
    /// [`CorePort::load_words`].
    pub fn load_words_racy<R>(
        &mut self,
        addr: Addr,
        words: u64,
        tag: RacyTag,
        f: impl FnOnce() -> R,
    ) -> R {
        self.load_words_impl(addr, words, Some(tag), f)
    }

    fn load_words_impl<R>(
        &mut self,
        addr: Addr,
        words: u64,
        racy: Option<RacyTag>,
        f: impl FnOnce() -> R,
    ) -> R {
        assert!(words >= 1, "load of zero words");
        for w in 0..words - 1 {
            let a = addr.offset(w * 8);
            let lat = self.seq_with(
                move |st, now, core| {
                    if racy.is_some() {
                        st.mem.load_racy(core, a, now)
                    } else {
                        st.mem.load(core, a, now)
                    }
                },
                |p, _| p.emit(MemOp::Load { addr: a, racy }),
            );
            let lat = self.mem_latency(lat);
            self.charge(TimeCategory::Load, lat);
        }
        let a = addr.offset((words - 1) * 8);
        let mut out = None;
        let lat = {
            let out_ref = &mut out;
            self.seq_with(
                move |st, now, core| {
                    let l = if racy.is_some() {
                        st.mem.load_racy(core, a, now)
                    } else {
                        st.mem.load(core, a, now)
                    };
                    *out_ref = Some(f());
                    l
                },
                |p, _| p.emit(MemOp::Load { addr: a, racy }),
            )
        };
        let lat = self.mem_latency(lat);
        self.charge(TimeCategory::Load, lat);
        self.instructions += words;
        out.expect("functional closure ran")
    }

    /// Loads one word at `addr` for timing only.
    pub fn load(&mut self, addr: Addr) {
        self.load_words(addr, 1, || ());
    }

    /// Retires a store of raw latency `raw` into the store buffer,
    /// returning the cycles the core actually stalls: one issue cycle plus
    /// any wait for a free buffer entry.
    fn buffer_store(&mut self, raw: u64) -> u64 {
        self.flush_compute();
        let now = self.clock;
        while self.store_buffer.front().is_some_and(|done| *done <= now) {
            self.store_buffer.pop_front();
        }
        let stall = if self.store_buffer.len() >= STORE_BUFFER_ENTRIES {
            let head = self.store_buffer.pop_front().expect("nonempty");
            head.saturating_sub(now)
        } else {
            0
        };
        self.store_buffer.push_back(now + stall + 1 + raw);
        stall + 1
    }

    /// Cycles until every buffered store has completed (drain at AMOs and
    /// flush points, which have release semantics).
    fn drain_store_buffer(&mut self) -> u64 {
        self.flush_compute();
        let last = self.store_buffer.back().copied().unwrap_or(0);
        self.store_buffer.clear();
        last.saturating_sub(self.clock)
    }

    /// Stores `words` consecutive words starting at `addr`; `f` applies the
    /// functional effect under the global token. Stores retire through a
    /// bounded store buffer: the core stalls only when the buffer is full.
    pub fn store_words<R>(&mut self, addr: Addr, words: u64, f: impl FnOnce() -> R) -> R {
        self.store_words_impl(addr, words, None, f)
    }

    /// Like [`CorePort::store_words`], but a declared benign write-write
    /// race (concurrent same-value idempotent stores): the DRF checker's
    /// happens-before pass treats it as an atomic-like write under the
    /// audited `tag` — no race against other audited accesses, still a
    /// race against unordered plain accesses. Timing is identical to
    /// [`CorePort::store_words`].
    pub fn store_words_racy<R>(
        &mut self,
        addr: Addr,
        words: u64,
        tag: RacyTag,
        f: impl FnOnce() -> R,
    ) -> R {
        self.store_words_impl(addr, words, Some(tag), f)
    }

    fn store_words_impl<R>(
        &mut self,
        addr: Addr,
        words: u64,
        racy: Option<RacyTag>,
        f: impl FnOnce() -> R,
    ) -> R {
        assert!(words >= 1, "store of zero words");
        for w in 0..words - 1 {
            let a = addr.offset(w * 8);
            let lat = self.seq_with(
                move |st, now, core| st.mem.store(core, a, now),
                |p, _| p.emit(MemOp::Store { addr: a, racy }),
            );
            let lat = self.mem_latency(lat);
            let charged = self.buffer_store(lat);
            self.charge(TimeCategory::Store, charged);
        }
        let a = addr.offset((words - 1) * 8);
        let mut out = None;
        let lat = {
            let out_ref = &mut out;
            self.seq_with(
                move |st, now, core| {
                    let l = st.mem.store(core, a, now);
                    *out_ref = Some(f());
                    l
                },
                |p, _| p.emit(MemOp::Store { addr: a, racy }),
            )
        };
        let lat = self.mem_latency(lat);
        let charged = self.buffer_store(lat);
        self.charge(TimeCategory::Store, charged);
        self.instructions += words;
        out.expect("functional closure ran")
    }

    /// Stores one word at `addr` for timing only.
    pub fn store(&mut self, addr: Addr) {
        self.store_words(addr, 1, || ());
    }

    /// Atomic read-modify-write of the word at `addr`; `f` applies the
    /// functional effect atomically under the global token. Atomics have
    /// release semantics: the store buffer drains first.
    pub fn amo_word<R>(&mut self, addr: Addr, f: impl FnOnce() -> R) -> R {
        let drain = self.drain_store_buffer();
        self.charge(TimeCategory::Atomic, drain);
        let mut out = None;
        let lat = {
            let out_ref = &mut out;
            self.seq_with(
                move |st, now, core| {
                    let l = st.mem.amo(core, addr, now);
                    *out_ref = Some(f());
                    l
                },
                |p, _| p.emit(MemOp::Amo { addr }),
            )
        };
        let lat = self.mem_latency(lat);
        self.charge(TimeCategory::Atomic, lat);
        self.instructions += 1;
        out.expect("functional closure ran")
    }

    /// Bulk self-invalidation of clean data in this core's L1
    /// (`cache_invalidate`; a no-op under MESI). Returns lines invalidated.
    pub fn invalidate_cache(&mut self) -> u64 {
        let (lat, lines) = self.seq_with(
            |st, now, core| st.mem.invalidate_all(core, now),
            |p, _| p.emit(MemOp::InvalidateAll),
        );
        self.charge(TimeCategory::Invalidate, lat);
        self.instructions += 1;
        lines
    }

    /// Bulk write-back of dirty data in this core's L1 (`cache_flush`; a
    /// no-op under MESI/DeNovo, a store-buffer drain under GPU-WT). Returns
    /// lines flushed.
    pub fn flush_cache(&mut self) -> u64 {
        let drain = self.drain_store_buffer();
        self.charge(TimeCategory::Flush, drain);
        let (lat, lines) = self
            .seq_with(|st, now, core| st.mem.flush_all(core, now), |p, _| p.emit(MemOp::FlushAll));
        self.charge(TimeCategory::Flush, lat);
        self.instructions += 1;
        lines
    }

    // ------------------------------------------------------------------
    // User-level interrupts
    // ------------------------------------------------------------------

    /// Installs the ULI handler for this core (the runtime's steal handler).
    pub fn set_uli_handler(&mut self, handler: UliHandler) {
        self.handler = Some(handler);
    }

    /// Enables ULI reception.
    pub fn uli_enable(&mut self) {
        self.seq(|st, _, core| st.uli.set_enabled(core, true));
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Disables ULI reception (requests arriving while disabled are NACKed
    /// or deferred per the ULI network model).
    pub fn uli_disable(&mut self) {
        self.seq(|st, _, core| st.uli.set_enabled(core, false));
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Sends a ULI request to `victim`. On NACK the core stalls until the
    /// NACK returns. The response must be collected with
    /// [`CorePort::uli_poll_response`].
    ///
    /// Under an armed [`FaultPlan`] the request may be silently dropped
    /// (the caller still observes [`UliOutcome::Sent`] — only a response
    /// timeout reveals the loss), force-NACKed, or delivered late.
    pub fn uli_send_request(&mut self, victim: usize, payload: u64) -> UliOutcome {
        let fault = self.faults.on_uli_send();
        let out = self.seq_with(
            move |st, now, core| match fault {
                UliSendFault::None => st.uli.try_send_request(core, victim, payload, now),
                UliSendFault::Drop => {
                    st.uli.drop_request(core, victim);
                    UliOutcome::Sent
                }
                UliSendFault::Nack => st.uli.forced_nack(core, victim, now),
                UliSendFault::Delay(extra) => {
                    let out = st.uli.try_send_request(core, victim, payload, now);
                    if out == UliOutcome::Sent {
                        st.uli.delay_request(victim, extra);
                    }
                    out
                }
            },
            // Every event here describes the send: stamp it at its grant.
            move |p, out| {
                let to = victim;
                match fault {
                    UliSendFault::None if *out == UliOutcome::Sent => {
                        p.emit(MemOp::Sync(SyncNote::UliReqSend { to }));
                        p.flight.record(p.clock, FlightKind::UliReqSend { to });
                    }
                    UliSendFault::None => {}
                    UliSendFault::Drop => p.flight.record(p.clock, FlightKind::FaultUliDrop),
                    UliSendFault::Nack => p.flight.record(p.clock, FlightKind::FaultUliNack),
                    UliSendFault::Delay(extra) => {
                        p.flight.record(p.clock, FlightKind::FaultUliDelay { extra })
                    }
                }
                match *out {
                    UliOutcome::Sent => {}
                    UliOutcome::Nack { .. } => p.flight.record(p.clock, FlightKind::UliNack { to }),
                    UliOutcome::Dead { .. } => p.flight.record(p.clock, FlightKind::UliDead { to }),
                }
            },
        );
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
        if let UliOutcome::Nack { reply_at } | UliOutcome::Dead { reply_at } = out {
            let wait = reply_at.saturating_sub(self.clock);
            self.charge(TimeCategory::UliWait, wait);
        }
        out
    }

    /// Sends a ULI response back to `thief` (from inside a handler).
    pub fn uli_send_response(&mut self, thief: usize, payload: u64) {
        self.seq_with(
            move |st, now, core| st.uli.send_response(core, thief, payload, now),
            |p, _| {
                p.emit(MemOp::Sync(SyncNote::UliRespSend { to: thief }));
                p.flight.record(p.clock, FlightKind::UliRespSend { to: thief });
            },
        );
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Collects a ULI response if one has arrived.
    pub fn uli_poll_response(&mut self) -> Option<UliMessage> {
        let msg = self.seq_with(
            |st, now, core| st.uli.take_response(core, now),
            |p, m: &Option<UliMessage>| {
                if let Some(m) = m {
                    p.emit(MemOp::Sync(SyncNote::UliRespRecv { from: m.from }));
                    p.flight.record(p.clock, FlightKind::UliRespRecv { from: m.from });
                }
            },
        );
        self.charge(TimeCategory::UliWait, 1);
        self.instructions += 1;
        msg
    }

    /// Explicitly polls for an incoming ULI request and services it (used in
    /// wait loops; ordinary sequenced operations poll automatically).
    pub fn uli_poll(&mut self) {
        if self.handler.is_none() || self.in_handler {
            return;
        }
        // `seq` itself delivers (or fault-drops) any pending request.
        self.seq(|_, _, _| ());
    }

    // ------------------------------------------------------------------
    // Program lifecycle
    // ------------------------------------------------------------------

    /// Signals global completion (called by the main worker when the
    /// program's root task finishes).
    pub fn set_done(&mut self) {
        self.seq(|st, now, _| {
            st.done = true;
            st.done_time = st.done_time.max(now);
        });
        self.mark_progress();
    }

    /// Tells the liveness watchdog that real forward progress happened
    /// (a task executed, a steal completed). Free when no watchdog is
    /// armed; never affects simulated timing.
    pub fn mark_progress(&mut self) {
        self.shared.seq.mark_progress();
    }

    /// Whether a fault plan is armed on this run. Runtimes use this to
    /// switch on their hardened (timeout + fallback) protocols, which cost
    /// extra bookkeeping and are kept off the golden path.
    pub fn faults_active(&self) -> bool {
        self.faults.active()
    }

    /// Fault-injection hook for the runtime's victim selection: `true`
    /// forces this lookup to miss. Always `false` without an armed plan.
    pub fn fault_steal_miss(&mut self) -> bool {
        let miss = self.faults.on_steal_lookup();
        if miss {
            let t = self.now();
            self.flight.record(t, FlightKind::FaultStealMiss);
        }
        miss
    }

    /// Whether fail-stop crashes are armed in this run's fault plan (on
    /// any core). Runtimes gate their crash-recovery machinery on this;
    /// `false` guarantees none of it runs and the golden path is
    /// bit-for-bit unchanged.
    pub fn crash_armed(&self) -> bool {
        self.faults.crash_armed()
    }

    /// Whether this core's scheduled fail-stop is due. A pure host-side
    /// check (no sequencing, no cycle charge): runtimes poll it at
    /// scheduler safe points — never inside a ULI handler or while holding
    /// a simulated lock — and take the crash with [`CorePort::crash_now`].
    pub fn crash_pending(&self) -> bool {
        !self.in_handler && self.faults.crash_pending(self.now())
    }

    /// Takes this core's fail-stop: a sequenced operation that marks the
    /// core's ULI unit dead (all future steal requests answer
    /// [`UliOutcome::Dead`]) and records the crash. The caller — the
    /// runtime's scheduler loop — then unwinds its own task frames and
    /// either retires the core (permanent crash) or goes dormant until
    /// [`CorePort::revive_now`].
    pub fn crash_now(&mut self) {
        self.seq_with(
            |st, now, core| st.uli.set_dead(core, now),
            |p, _| p.flight.record(p.clock, FlightKind::Crash),
        );
        self.faults.note_crashed();
        // A crash is liveness-relevant: survivors need watchdog budget to
        // observe it and run recovery.
        self.mark_progress();
    }

    /// Revives this core after a crash (the `revive_after_cycles`
    /// rejoin): a sequenced operation clearing the dead flag. The runtime
    /// then re-enters its scheduler loop as a fresh worker.
    pub fn revive_now(&mut self) {
        self.seq_with(
            |st, _, core| st.uli.set_alive(core),
            |p, _| p.flight.record(p.clock, FlightKind::Revive),
        );
        self.mark_progress();
    }

    /// Cycles after its crash at which this core revives (0 = permanent).
    pub fn revive_after(&self) -> u64 {
        self.faults.revive_after()
    }

    /// Sequenced read of the dead-core set (every core that has
    /// fail-stopped, with no 64-core ceiling). The universal crash
    /// observer: survivors poll this in their wait loops to detect deaths
    /// even on runtimes that never send ULIs. Charges one idle cycle,
    /// like [`CorePort::is_done`].
    pub fn dead_mask(&mut self) -> CoreSet {
        let m = self.seq(|st, _, _| st.uli.dead_mask());
        self.charge(TimeCategory::Idle, 1);
        m
    }

    /// Faults injected on this core so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.counters
    }

    /// Whether global completion has been signalled.
    pub fn is_done(&mut self) -> bool {
        let d = self.seq(|st, _, _| st.done);
        self.charge(TimeCategory::Idle, 1);
        d
    }

    pub(crate) fn into_report(mut self) -> PortReport {
        // Terminal flush: fold any coalesced compute without the poison
        // poll — report assembly runs after a worker has already unwound,
        // and panicking here again would lose the report (and abort the
        // process on the fiber backend).
        let pending = std::mem::take(&mut self.pending_compute);
        if pending > 0 {
            if let Some(t) = self.trace.as_mut() {
                t.push(crate::trace::TraceEvent {
                    start: self.clock,
                    cycles: pending,
                    category: TimeCategory::Compute,
                });
            }
            self.breakdown.add(TimeCategory::Compute, pending);
            self.clock += pending;
        }
        // Close the final attribution span so the spans tile [0, clock].
        let attr_spans = match self.attr.take() {
            Some(mut a) => {
                if self.clock > a.mark_clock {
                    a.spans.push(AttrSpan {
                        task: a.current,
                        start: a.mark_clock,
                        end: self.clock,
                        breakdown: self.breakdown.diff(&a.mark_breakdown),
                    });
                }
                a.spans
            }
            None => Vec::new(),
        };
        PortReport {
            clock: self.clock,
            breakdown: self.breakdown,
            instructions: self.instructions,
            trace: self.trace.unwrap_or_default(),
            faults: self.faults.counters,
            events: self.events.unwrap_or_default(),
            attr_spans,
            flight_total: self.flight.total(),
            flight: self.flight.tail(),
            flight_history: self.flight.take_history(),
        }
    }
}

/// Everything one core hands back to the system driver, including partial
/// state from a panicked or watchdog-aborted worker.
pub(crate) struct PortReport {
    pub clock: u64,
    pub breakdown: TimeBreakdown,
    pub instructions: u64,
    pub trace: Vec<crate::trace::TraceEvent>,
    pub faults: FaultCounters,
    /// Checker events with their sequencer grant stamps (see
    /// `CorePort::last_stamp`); the engine merges per-core buffers by
    /// stamp to reconstruct grant order.
    pub events: Vec<(u64, MemEvent)>,
    pub attr_spans: Vec<AttrSpan>,
    /// Flight-recorder tail in chronological order (empty with a
    /// capacity-0 ring).
    pub flight: Vec<crate::flight::FlightEvent>,
    /// Events ever recorded on this core's ring (`flight` keeps the last
    /// capacity of them).
    pub flight_total: u64,
    /// Flight history in time order (empty unless armed).
    pub flight_history: Vec<crate::flight::FlightEvent>,
}
