//! Deterministic min-time token sequencing of simulated cores.
//!
//! Each simulated core keeps a real call stack of its own — a stackful
//! fiber on the simulation thread, or an OS thread on the portable
//! backend — so arbitrarily nested task execution works, but **at most one
//! core executes at a time**: before any operation that touches shared
//! simulated state, a core enters the sequencer with its local clock and is
//! granted the token only when it holds the globally minimum
//! `(time, core_id)`. This makes the whole simulation a single logical
//! thread of execution in simulated-time order — bit-for-bit deterministic
//! and free of data races by construction.
//!
//! The sequencer doubles as the attachment point of the liveness
//! [`watchdog`](crate::watchdog): every grant is counted, and if too many
//! grants pass without a progress mark (or the wall-clock detector,
//! [`Sequencer::watch_wall_clock`], sees no grant and no productive local
//! work for a whole window) the sequencer is poisoned with
//! [`PoisonReason::Watchdog`] and every core unwinds.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use crate::fiber::{FiberId, FiberRt};
use crate::flight::{CoreBeat, Heartbeat, HeartbeatSnap, LiveCounters};
use crate::sync::Mutex;
use crate::watchdog::{PoisonReason, SeqCoreDiag, WatchdogConfig, WATCHDOG_MSG};

pub(crate) const POISON_MSG: &str = "simulation poisoned by a panic on another core";

#[derive(Debug, Default, Clone, Copy)]
struct CoreState {
    grants: u64,
    last_time: u64,
    retired: bool,
}

/// One recorded grant where ≥ 2 waiters shared the minimum time — a point
/// where the schedule could legally have gone more than one way. Recorded
/// only under [`SchedulePolicy::Scripted`]; the schedule-space explorer
/// enumerates alternatives by replaying a prefix of `chosen` indices with
/// the last one flipped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChoicePoint {
    /// The tied minimum time.
    pub time: u64,
    /// The tied cores, in ascending core-id order.
    pub candidates: Vec<usize>,
    /// Index into `candidates` that was granted (what the script chose,
    /// clamped to the candidate range; 0 when the script was exhausted).
    pub chosen: u32,
}

/// Scripted tie-break replay state (present only under
/// [`SchedulePolicy::Scripted`]).
#[derive(Debug)]
struct ScriptState {
    /// The choice sequence being replayed.
    script: Vec<u32>,
    /// Next script entry to consume.
    pos: usize,
    /// Every tie encountered, in grant order.
    choices: Vec<ChoicePoint>,
}

#[derive(Debug)]
struct Inner {
    /// Cores blocked in `enter`, keyed by (time, core) for min dispatch.
    waiting: BTreeSet<(u64, usize)>,
    /// Cores currently executing user code (not waiting, not retired).
    running: usize,
    /// Core currently granted the token (inside its sequenced section or
    /// running user code after `leave`).
    current: Option<usize>,
    poisoned: bool,
    reason: Option<PoisonReason>,
    cores: Vec<CoreState>,
    /// OS thread driving each core, registered on the core's first `enter`.
    /// Token handoff uses `Thread::unpark` *after* the sequencer lock is
    /// released: waking a core through a condvar while still holding the
    /// lock made the woken thread contend on it (an extra futex round trip
    /// and context switch per handoff on a loaded host).
    threads: Vec<Option<std::thread::Thread>>,
    /// Order-sensitive FNV-1a fold of every `(time, core)` grant: the
    /// fingerprint of the sequenced-op stream. Golden-trace tests pin this
    /// to prove engine optimizations never reorder or change a single
    /// simulated operation.
    op_hash: u64,
    /// Scripted tie-break state. `None` under [`SchedulePolicy::MinCore`]:
    /// the default policy takes the plain minimum-waiter path, records
    /// nothing, and costs nothing.
    script: Option<ScriptState>,
}

use crate::config::SchedulePolicy;

use crate::hash::{fold_u64, FNV_OFFSET};

/// Increments a counter that only the executing core writes (see
/// `Sequencer::since_progress`) and returns the new value.
#[inline]
fn bump(counter: &AtomicU64) -> u64 {
    let v = counter.load(Ordering::Relaxed) + 1;
    counter.store(v, Ordering::Relaxed);
    v
}

/// Folds one `(time, core)` grant into the op-stream hash.
#[inline]
fn fold_grant(h: u64, time: u64, core: usize) -> u64 {
    fold_u64(fold_u64(h, time), core as u64)
}

/// The token scheduler. See the module docs.
#[derive(Debug)]
pub struct Sequencer {
    inner: Mutex<Inner>,
    watchdog: Option<WatchdogConfig>,
    /// Grants since the last progress mark (watchdog budget counter).
    ///
    /// The counters are bumped with a plain load + store rather than an
    /// atomic read-modify-write, which was a measurable per-grant cost.
    /// Successive writers are ordered by the sequencer itself: grants are
    /// counted under the lock, and only the one core the sequencer lets
    /// run charges `activity`, with the lock ordering each handover (on
    /// threads, cores still in their startup wave can race there, which can
    /// only drop a liveness tick). `Relaxed` suffices because the counters publish no
    /// other data; the wall-clock detector only needs to see them move.
    since_progress: AtomicU64,
    /// Total grants over the run (wall-clock stall discriminator + stats).
    total_grants: AtomicU64,
    /// Grants taken through the inline fast re-grant path (no waiting-set
    /// churn, no condvar). Diagnostic for the perf harness: fast-path hit
    /// rate is the fraction of sequenced ops that avoid the parked path.
    fast_grants: AtomicU64,
    /// Host-level liveness ticks from purely local *productive* work
    /// (compute/memory charging between sequenced ops). Only bumped while a
    /// watchdog is armed. The wall-clock fallback requires *both* this and
    /// `total_grants` to stand still for a full window before poisoning, so
    /// a slow-but-progressing run on an overloaded host (long local
    /// compute, no grants) is never killed. Idle charges deliberately do
    /// not count: an idle-spinning core is waiting on sequenced state,
    /// which cannot change without a grant, so idle loops with zero grants
    /// are a real deadlock and must still trip.
    activity: AtomicU64,
    /// Lock-free mirror of `Inner::poisoned`, so cores spinning in purely
    /// local operations (which never take the sequencer lock) can still
    /// observe the poison and unwind.
    poison_flag: AtomicBool,
    /// Fiber-backend contexts: when set, cores are stackful fibers on one
    /// OS thread and a blocked `enter` *switches stacks* to the dispatched
    /// core instead of parking — no futex, no kernel context switch. The
    /// grant-selection logic is shared with the thread backend, so both
    /// produce the identical sequenced-op stream (pinned by the golden
    /// hashes).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fiber: Option<FiberRt>,
    /// Heartbeat hook: every `heartbeat.every` grants the granting core
    /// emits a [`HeartbeatSnap`] *after* releasing the sequencer lock (the
    /// sink may do I/O). `None` is zero-cost: one never-taken branch in
    /// `record_grant`.
    heartbeat: Option<HeartbeatHook>,
}

/// Installed heartbeat state: the user's cadence + sink plus the live
/// counters the ports publish into.
#[derive(Debug)]
struct HeartbeatHook {
    config: Heartbeat,
    live: Arc<LiveCounters>,
}

impl Sequencer {
    /// Creates a sequencer for `num_cores` cores, all initially running.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0);
        Sequencer {
            inner: Mutex::new(Inner {
                waiting: BTreeSet::new(),
                running: num_cores,
                current: None,
                poisoned: false,
                reason: None,
                cores: vec![CoreState::default(); num_cores],
                threads: (0..num_cores).map(|_| None).collect(),
                op_hash: FNV_OFFSET,
                script: None,
            }),
            watchdog: None,
            since_progress: AtomicU64::new(0),
            total_grants: AtomicU64::new(0),
            fast_grants: AtomicU64::new(0),
            activity: AtomicU64::new(0),
            poison_flag: AtomicBool::new(false),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            fiber: None,
            heartbeat: None,
        }
    }

    /// Arms the heartbeat: every `config.every` grants, the granting core
    /// snapshots the run (grant totals, per-core strip, the live counters
    /// ports publish into `live`) and hands it to `config.sink` with no
    /// engine lock held. Must be called before core threads start.
    pub fn set_heartbeat(&mut self, config: Heartbeat, live: Arc<LiveCounters>) {
        self.heartbeat = Some(HeartbeatHook { config, live });
    }

    /// Installs the grant tie-breaking policy. Must be called before core
    /// threads start. [`SchedulePolicy::MinCore`] (the initial state) is
    /// free; [`SchedulePolicy::Scripted`] arms choice-point recording and
    /// script replay.
    pub fn set_policy(&self, policy: SchedulePolicy) {
        let mut g = self.inner.lock();
        g.script = match policy {
            SchedulePolicy::MinCore => None,
            SchedulePolicy::Scripted(script) => {
                Some(ScriptState { script, pos: 0, choices: Vec::new() })
            }
        };
    }

    /// Every tie recorded so far, in grant order (always empty under
    /// [`SchedulePolicy::MinCore`]).
    pub fn choice_points(&self) -> Vec<ChoicePoint> {
        self.inner.lock().script.as_ref().map_or_else(Vec::new, |s| s.choices.clone())
    }

    /// Arms the liveness watchdog. Must be called before the run starts;
    /// the wall-clock fallback also needs [`Sequencer::watch_wall_clock`]
    /// running beside the cores (`run_system` does this).
    pub fn set_watchdog(&mut self, config: WatchdogConfig) {
        assert!(config.budget > 0, "watchdog budget must be positive");
        self.watchdog = Some(config);
    }

    /// Switches this sequencer to the fiber backend. Must be called before
    /// the run starts.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn set_fiber_backend(&mut self, rt: FiberRt) {
        self.fiber = Some(rt);
    }

    /// The fiber-backend runtime, if this sequencer uses fibers.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn fiber_rt(&self) -> Option<&FiberRt> {
        self.fiber.as_ref()
    }

    /// The wall-clock stall detector shared by every backend; a no-op when
    /// no watchdog is armed. Run it on a thread of its own for the whole
    /// run: every `wall_ms` window it compares the liveness counters
    /// (`total_grants`, `activity`), and if neither moved — no grant and no
    /// productive local work anywhere — the run is stuck, not slow, and it
    /// poisons the sequencer with a [`PoisonReason::Watchdog`] naming the
    /// earliest waiter. Parked threads are unparked into `enter`'s poison
    /// assertion; a running core (fiber or thread) sees the poison flag at
    /// its next charge. The detector never panics itself: the unwinding
    /// cores raise the panics `run_system` reports as a watchdog bundle.
    ///
    /// Returns as soon as `stop` receives or its sender is dropped, so a
    /// run never waits out a window at exit.
    pub fn watch_wall_clock(&self, stop: &Receiver<()>) {
        let Some(wd) = self.watchdog else { return };
        let window = Duration::from_millis(wd.wall_ms);
        let mut before = self.liveness_snapshot();
        while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(window) {
            let now = self.liveness_snapshot();
            if now == before {
                self.stall_trip();
                return;
            }
            before = now;
        }
    }

    /// Non-panicking watchdog trip of the wall-clock detector: poisons with
    /// a [`PoisonReason::Watchdog`] naming the earliest waiter and wakes
    /// every parked thread.
    fn stall_trip(&self) {
        let mut g = self.inner.lock();
        if g.poisoned {
            return;
        }
        let (time, core) = g.waiting.iter().next().copied().unwrap_or((0, 0));
        self.poison_locked(&mut g, PoisonReason::Watchdog { core, time });
    }

    /// Poisons for `reason` (an earlier reason wins) and wakes every parked
    /// thread so its `enter` observes the poison.
    fn poison_locked(&self, g: &mut Inner, reason: PoisonReason) {
        g.poisoned = true;
        g.reason.get_or_insert(reason);
        self.poison_flag.store(true, Ordering::Relaxed);
        for t in g.threads.iter().flatten() {
            t.unpark();
        }
    }

    /// Snapshot of the liveness counters the wall-clock detector compares
    /// across a window: `(total_grants, activity)`.
    fn liveness_snapshot(&self) -> (u64, u64) {
        (self.total_grants.load(Ordering::Relaxed), self.activity.load(Ordering::Relaxed))
    }

    /// Grants the token to a minimum-*time* waiter, if any. This is the
    /// single grant-selection rule shared by both execution backends, so
    /// threads and fibers produce the identical op stream. Under
    /// [`SchedulePolicy::MinCore`] a time tie goes to the lowest core id;
    /// under [`SchedulePolicy::Scripted`] the script picks among the tied
    /// cores and the tie is recorded as a [`ChoicePoint`].
    fn pick_next(inner: &mut Inner) -> Option<usize> {
        debug_assert!(inner.current.is_none());
        let core = if inner.script.is_none() {
            inner.waiting.iter().next()?.1
        } else {
            Self::pick_scripted(inner)?
        };
        inner.current = Some(core);
        Some(core)
    }

    /// Scripted grant selection: collects every waiter tied at the minimum
    /// time, consults the script when there are at least two, and records
    /// the tie. Grants only happen when every live core sits in the
    /// waiting set (or via the single-runner fast path, which under
    /// `Scripted` never fires on a tie), so the candidate set — and with
    /// it the whole choice tree — is deterministic.
    fn pick_scripted(inner: &mut Inner) -> Option<usize> {
        let &(min_time, first) = inner.waiting.iter().next()?;
        let candidates: Vec<usize> =
            inner.waiting.iter().take_while(|&&(t, _)| t == min_time).map(|&(_, c)| c).collect();
        if candidates.len() < 2 {
            return Some(first);
        }
        let st = inner.script.as_mut().expect("scripted pick without a script");
        let idx = st.script.get(st.pos).map_or(0, |&i| (i as usize).min(candidates.len() - 1));
        st.pos += 1;
        let chosen = candidates[idx];
        st.choices.push(ChoicePoint { time: min_time, candidates, chosen: idx as u32 });
        Some(chosen)
    }

    /// Thread backend: picks the next waiter and returns the thread to
    /// unpark — the caller must deliver the unpark AFTER releasing the
    /// sequencer lock, so the woken core never contends on it. When the
    /// caller selects itself, no wake is needed: it re-checks `current`
    /// before parking.
    #[must_use]
    fn dispatch(&self, inner: &mut Inner, caller: Option<usize>) -> Option<std::thread::Thread> {
        let core = Self::pick_next(inner)?;
        if caller == Some(core) {
            return None;
        }
        Some(inner.threads[core].clone().expect("waiting core has registered its thread"))
    }

    /// Per-grant bookkeeping: stats, the op-stream hash fold, and the
    /// watchdog budget check. Shared by the parked and fast re-grant paths
    /// so both produce the identical op stream.
    ///
    /// Returns whether a heartbeat is due at this grant. The *caller* must
    /// drop the inner guard and then call [`Sequencer::emit_heartbeat`]:
    /// the sink may do I/O and must never run under the sequencer lock.
    #[must_use]
    fn record_grant(&self, g: &mut Inner, core: usize, time: u64) -> bool {
        g.cores[core].grants += 1;
        g.cores[core].last_time = time;
        g.op_hash = fold_grant(g.op_hash, time, core);
        let total = bump(&self.total_grants);
        if let Some(wd) = self.watchdog {
            if bump(&self.since_progress) > wd.budget {
                self.trip(g, core, time);
            }
        }
        match &self.heartbeat {
            Some(hb) => total.is_multiple_of(hb.config.every),
            None => false,
        }
    }

    /// Builds and delivers the heartbeat snapshot due at grant-time `time`.
    /// Called by the granting core after releasing the sequencer lock (it
    /// still holds the token, so nothing can be granted while the snapshot
    /// is taken — the deterministic fields are frozen).
    fn emit_heartbeat(&self, time: u64) {
        let Some(hb) = &self.heartbeat else { return };
        let total = self.total_grants.load(Ordering::Relaxed);
        let cores = {
            let g = self.inner.lock();
            let waiting: std::collections::HashMap<usize, u64> =
                g.waiting.iter().map(|&(t, c)| (c, t)).collect();
            g.cores
                .iter()
                .enumerate()
                .map(|(core, s)| CoreBeat {
                    grants: s.grants,
                    last_time: s.last_time,
                    retired: s.retired,
                    waiting_at: waiting.get(&core).copied(),
                })
                .collect()
        };
        let snap = HeartbeatSnap::new(
            total / hb.config.every,
            time,
            total,
            self.fast_grants.load(Ordering::Relaxed),
            Some(hb.live.as_ref()),
            cores,
        );
        (hb.config.sink)(&snap);
    }

    /// Poisons with a watchdog reason and panics on the calling thread.
    fn trip(&self, g: &mut Inner, core: usize, time: u64) -> ! {
        self.poison_locked(g, PoisonReason::Watchdog { core, time });
        panic!("{WATCHDOG_MSG} (tripped on core {core} at cycle {time})");
    }

    /// Blocks until `core` (at simulated time `time`) holds the global
    /// minimum and is granted the token.
    ///
    /// # Panics
    ///
    /// Panics if the simulation was poisoned by a panic on another core, or
    /// if the armed watchdog finds the simulation stuck.
    pub fn enter(&self, core: usize, time: u64) {
        let mut g = self.inner.lock();
        assert!(!g.poisoned, "{}", POISON_MSG);
        // Fast re-grant: this core is the only one running, nobody holds
        // the token, and every parked core waits at a later `(time, core)`
        // — dispatch would pick this core right back. Grant inline and skip
        // the waiting-set churn and park/unpark round trip entirely. This
        // is the steady state of steal-free inner loops and serial phases.
        // Under `Scripted`, a time tie with the earliest waiter must fall
        // through to the slow path: the tie is a choice point the script
        // decides and the run records. `MinCore` can take the tie inline —
        // `(time, core) < min` already encodes its lowest-core-id rule.
        let fast_ok = if g.script.is_none() {
            g.waiting.first().is_none_or(|&min| (time, core) < min)
        } else {
            g.waiting.first().is_none_or(|&min| time < min.0)
        };
        if g.running == 1 && g.current.is_none() && fast_ok {
            g.current = Some(core);
            bump(&self.fast_grants);
            let hb_due = self.record_grant(&mut g, core, time);
            drop(g);
            if hb_due {
                self.emit_heartbeat(time);
            }
            return;
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if self.fiber.is_some() {
            return self.enter_fiber(g, core, time);
        }
        if g.threads[core].is_none() {
            g.threads[core] = Some(std::thread::current());
        }
        g.waiting.insert((time, core));
        g.running -= 1;
        if g.running == 0 {
            if let Some(next) = self.dispatch(&mut g, Some(core)) {
                drop(g);
                next.unpark();
                g = self.inner.lock();
            }
        }
        while g.current != Some(core) {
            assert!(!g.poisoned, "{}", POISON_MSG);
            drop(g);
            std::thread::park();
            g = self.inner.lock();
        }
        assert!(!g.poisoned, "{}", POISON_MSG);
        let removed = g.waiting.remove(&(time, core));
        debug_assert!(removed, "granted core must be in the waiting set");
        g.running += 1;
        let hb_due = self.record_grant(&mut g, core, time);
        drop(g);
        if hb_due {
            self.emit_heartbeat(time);
        }
    }

    /// Fiber-backend slow path of [`Sequencer::enter`]: same bookkeeping
    /// and grant-selection as the thread path, but "parking" is a direct
    /// user-space stack switch to the dispatched core (or to the launcher
    /// while cores are still being started), and "unparking" is someone
    /// switching back to us.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn enter_fiber<'a>(
        &'a self,
        mut g: crate::sync::MutexGuard<'a, Inner>,
        core: usize,
        time: u64,
    ) {
        let rt = self.fiber.as_ref().expect("fiber backend armed");
        g.waiting.insert((time, core));
        g.running -= 1;
        loop {
            if g.current == Some(core) {
                break;
            }
            assert!(!g.poisoned, "{}", POISON_MSG);
            // `running > 0` here means unstarted fibers remain (a started,
            // live, non-waiting fiber is the caller itself): hand control
            // back to the launcher so it can start them. Otherwise dispatch
            // the minimum waiter and jump straight onto its stack.
            let target = if g.running == 0 && g.current.is_none() {
                match Self::pick_next(&mut g) {
                    Some(c) if c == core => continue, // re-granted ourselves
                    Some(c) => FiberId::Core(c),
                    None => unreachable!("we inserted ourselves into the waiting set"),
                }
            } else {
                FiberId::Launcher
            };
            drop(g);
            // SAFETY: single simulation thread, no guard held, target is a
            // live suspended context (the dispatched waiter or launcher).
            unsafe { rt.switch(FiberId::Core(core), target) };
            g = self.inner.lock();
        }
        assert!(!g.poisoned, "{}", POISON_MSG);
        let removed = g.waiting.remove(&(time, core));
        debug_assert!(removed, "granted core must be in the waiting set");
        g.running += 1;
        let hb_due = self.record_grant(&mut g, core, time);
        drop(g);
        if hb_due {
            self.emit_heartbeat(time);
        }
    }

    /// Fiber-backend retirement: the usual bookkeeping, plus the choice of
    /// where the finished fiber must switch next — the dispatched minimum
    /// waiter, or the launcher when none exists (run over, or poison drain
    /// in progress). The caller performs the switch after storing its
    /// report, because nothing else runs until it yields the thread.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn retire_fiber_target(&self, core: usize) -> FiberId {
        let mut g = self.inner.lock();
        g.cores[core].retired = true;
        if g.poisoned {
            return FiberId::Launcher;
        }
        g.running -= 1;
        if g.running == 0 && g.current.is_none() {
            if let Some(c) = Self::pick_next(&mut g) {
                return FiberId::Core(c);
            }
        }
        FiberId::Launcher
    }

    /// Releases the token after a sequenced section. The core keeps running
    /// user code exclusively until its next `enter`.
    pub fn leave(&self, core: usize) {
        let mut g = self.inner.lock();
        if g.poisoned {
            return;
        }
        debug_assert_eq!(g.current, Some(core), "leave() by a core that does not hold the token");
        g.current = None;
    }

    /// Removes `core` from the simulation (its worker returned).
    pub fn retire(&self, core: usize) {
        let mut g = self.inner.lock();
        g.cores[core].retired = true;
        if g.poisoned {
            return;
        }
        g.running -= 1;
        let next =
            if g.running == 0 && g.current.is_none() { self.dispatch(&mut g, None) } else { None };
        drop(g);
        if let Some(t) = next {
            t.unpark();
        }
    }

    /// Resets the watchdog's no-progress counter. Called by the runtime
    /// whenever real forward progress happens (a task ran, a steal
    /// completed, completion was signalled). Free when no watchdog is
    /// armed.
    pub fn mark_progress(&self) {
        if self.watchdog.is_some() {
            self.since_progress.store(0, Ordering::Relaxed);
        }
    }

    /// Total token grants so far.
    pub fn total_grants(&self) -> u64 {
        self.total_grants.load(Ordering::Relaxed)
    }

    /// Grants that took the inline fast re-grant path.
    pub fn fast_grants(&self) -> u64 {
        self.fast_grants.load(Ordering::Relaxed)
    }

    /// Order-sensitive hash of the `(time, core)` grant stream so far.
    pub fn op_hash(&self) -> u64 {
        self.inner.lock().op_hash
    }

    /// Marks the simulation as failed (a core panicked) and wakes every
    /// waiting core so its `enter` panics too, unwinding all threads.
    pub fn poison(&self) {
        self.poison_locked(&mut self.inner.lock(), PoisonReason::WorkerPanic);
    }

    /// Lock-free poison check for hot purely-local paths (see
    /// [`poison_flag`](Self::poison_flag) on the field). A core that only
    /// burns local cycles between sequenced operations polls this so a
    /// poisoned run unwinds it too instead of letting it spin forever.
    pub(crate) fn check_poison(&self) -> bool {
        self.poison_flag.load(Ordering::Relaxed)
    }

    /// Records liveness evidence from a purely local *productive* charge
    /// (compute, memory, ULI work — anything but idling), feeding the
    /// wall-clock fallback's activity discriminator. Free when no watchdog
    /// is armed. Callers must not report idle charges: idle cycles only
    /// pass while waiting for sequenced state, which cannot change without
    /// a grant, so an idle spinner with zero grants is genuinely stuck.
    pub(crate) fn note_local_progress(&self) {
        if self.watchdog.is_some() {
            bump(&self.activity);
        }
    }

    /// Why the simulation was poisoned (`None` if it was not).
    pub fn poison_reason(&self) -> Option<PoisonReason> {
        self.inner.lock().reason
    }

    /// Whether the simulation has been poisoned.
    #[cfg(test)]
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Per-core sequencer diagnostics (for the crash bundle).
    pub fn core_diag(&self) -> Vec<SeqCoreDiag> {
        let g = self.inner.lock();
        let waiting: std::collections::HashMap<usize, u64> =
            g.waiting.iter().map(|&(t, c)| (c, t)).collect();
        g.cores
            .iter()
            .enumerate()
            .map(|(core, s)| SeqCoreDiag {
                waiting_at: waiting.get(&core).copied(),
                grants: s.grants,
                last_time: s.last_time,
                retired: s.retired,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Three cores perform interleaved sequenced ops; the observed global
    /// order must be exactly ascending (time, core).
    #[test]
    fn grants_follow_time_order() {
        let seq = Arc::new(Sequencer::new(3));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in 0..3usize {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut t = core as u64; // staggered start times
                for _ in 0..50 {
                    seq.enter(core, t);
                    log.lock().push((t, core));
                    seq.leave(core);
                    t += 3; // all cores advance at the same rate
                }
                seq.retire(core);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let log = log.lock();
        assert_eq!(log.len(), 150);
        let mut sorted = log.clone();
        sorted.sort();
        assert_eq!(*log, sorted, "grants must be in global (time, core) order");
    }

    #[test]
    fn single_core_never_blocks() {
        let seq = Sequencer::new(1);
        for t in 0..10 {
            seq.enter(0, t);
            seq.leave(0);
        }
        seq.retire(0);
    }

    #[test]
    fn retire_unblocks_waiters() {
        let seq = Arc::new(Sequencer::new(2));
        let seq2 = Arc::clone(&seq);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            // Core 1 waits at a later time than core 0 will ever reach; it
            // can only be granted after core 0 retires.
            seq2.enter(1, 1_000_000);
            done2.store(1, Ordering::SeqCst);
            seq2.leave(1);
            seq2.retire(1);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(done.load(Ordering::SeqCst), 0, "core 1 must still be waiting");
        seq.retire(0);
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn poison_unblocks_with_panic() {
        let seq = Arc::new(Sequencer::new(2));
        let seq2 = Arc::clone(&seq);
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                seq2.enter(1, 42);
            }));
            assert!(r.is_err(), "poisoned enter must panic");
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        seq.poison();
        h.join().unwrap();
        assert!(seq.is_poisoned());
        assert_eq!(seq.poison_reason(), Some(PoisonReason::WorkerPanic));
    }

    #[test]
    fn ties_break_by_core_id() {
        let seq = Arc::new(Sequencer::new(2));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in [1usize, 0usize] {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                seq.enter(core, 5);
                log.lock().push(core);
                seq.leave(core);
                seq.retire(core);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*log.lock(), vec![0, 1]);
    }

    /// Runs two cores that tie at time 5 under `policy` and returns the
    /// observed grant order plus the recorded choice points.
    fn tied_pair(policy: SchedulePolicy) -> (Vec<usize>, Vec<ChoicePoint>) {
        let seq = Arc::new(Sequencer::new(2));
        seq.set_policy(policy);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in [1usize, 0usize] {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                seq.enter(core, 5);
                log.lock().push(core);
                seq.leave(core);
                seq.retire(core);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = log.lock().clone();
        (order, seq.choice_points())
    }

    #[test]
    fn scripted_tie_flip_reverses_grant_order() {
        let (order, choices) = tied_pair(SchedulePolicy::Scripted(vec![1]));
        assert_eq!(order, vec![1, 0]);
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0], ChoicePoint { time: 5, candidates: vec![0, 1], chosen: 1 });
    }

    #[test]
    fn empty_script_replays_min_core_but_records_the_tie() {
        let (order, choices) = tied_pair(SchedulePolicy::Scripted(vec![]));
        assert_eq!(order, vec![0, 1], "exhausted script falls back to the lowest core id");
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].chosen, 0);
        // MinCore records nothing at all.
        let (order, choices) = tied_pair(SchedulePolicy::MinCore);
        assert_eq!(order, vec![0, 1]);
        assert!(choices.is_empty());
    }

    #[test]
    fn out_of_range_script_entries_clamp_to_the_last_candidate() {
        let (order, choices) = tied_pair(SchedulePolicy::Scripted(vec![99]));
        assert_eq!(order, vec![1, 0]);
        assert_eq!(choices[0].chosen, 1, "the recorded index is the clamped one");
    }

    #[test]
    fn scripted_op_hash_matches_min_core_on_the_default_path() {
        // A tie-free schedule must hash identically under both policies
        // (the fast re-grant path is gated differently but grants the
        // same stream).
        let run = |policy: SchedulePolicy| {
            let seq = Sequencer::new(1);
            seq.set_policy(policy);
            for t in 0..10 {
                seq.enter(0, t);
                seq.leave(0);
            }
            seq.retire(0);
            seq.op_hash()
        };
        assert_eq!(run(SchedulePolicy::MinCore), run(SchedulePolicy::Scripted(vec![])));
    }

    #[test]
    fn watchdog_trips_on_grant_budget() {
        let mut seq = Sequencer::new(1);
        seq.set_watchdog(WatchdogConfig { budget: 10, wall_ms: 60_000 });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for t in 0..100 {
                seq.enter(0, t);
                seq.leave(0);
            }
        }));
        let err = r.expect_err("budget of 10 must trip within 100 grants");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(WATCHDOG_MSG), "got: {msg}");
        assert!(matches!(seq.poison_reason(), Some(PoisonReason::Watchdog { core: 0, .. })));
    }

    #[test]
    fn progress_marks_keep_watchdog_quiet() {
        let mut seq = Sequencer::new(1);
        seq.set_watchdog(WatchdogConfig { budget: 10, wall_ms: 60_000 });
        for t in 0..100 {
            seq.enter(0, t);
            seq.leave(0);
            if t % 5 == 0 {
                seq.mark_progress();
            }
        }
        seq.retire(0);
        assert!(!seq.is_poisoned());
        assert_eq!(seq.total_grants(), 100);
    }

    #[test]
    fn wall_clock_fallback_trips_when_nothing_is_granted() {
        let mut seq = Sequencer::new(2);
        seq.set_watchdog(WatchdogConfig { budget: 1_000_000, wall_ms: 30 });
        let seq = Arc::new(seq);
        let seq2 = Arc::clone(&seq);
        // Core 1 parks; core 0 never enters or retires (simulating a core
        // stuck in host-level code while holding the logical token).
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                seq2.enter(1, 0);
            }));
            assert!(r.is_err(), "stalled run must trip the wall-clock fallback");
        });
        let (_stop, rx) = std::sync::mpsc::channel();
        seq.watch_wall_clock(&rx);
        h.join().unwrap();
        assert!(matches!(seq.poison_reason(), Some(PoisonReason::Watchdog { .. })));
    }

    /// The detector returns as soon as its stop channel closes, long before
    /// its window, and never trips a run that simply ended.
    #[test]
    fn wall_clock_detector_stops_without_waiting_out_its_window() {
        let mut seq = Sequencer::new(1);
        seq.set_watchdog(WatchdogConfig { budget: 1_000_000, wall_ms: 60_000 });
        let (stop, rx) = std::sync::mpsc::channel::<()>();
        let t0 = std::time::Instant::now();
        let seq = &seq;
        std::thread::scope(|s| {
            s.spawn(move || seq.watch_wall_clock(&rx));
            drop(stop);
        });
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
        assert!(!seq.is_poisoned());
    }

    #[test]
    fn core_diag_reflects_state() {
        let seq = Sequencer::new(2);
        // Core 1 retires first so core 0's enter can be granted.
        seq.retire(1);
        seq.enter(0, 7);
        seq.leave(0);
        let d = seq.core_diag();
        assert_eq!(d[0].grants, 1);
        assert_eq!(d[0].last_time, 7);
        assert!(!d[0].retired);
        assert!(d[1].retired);
    }
}
