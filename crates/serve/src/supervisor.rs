//! The supervision tree: every long-lived server thread runs as a named,
//! heartbeat-monitored, restartable **component**.
//!
//! The serving stack survives hostile networks (the chaos grid) and faulty
//! GPU instances (the health circuit), but before this module the server's
//! *own* threads had no failure story: a panic in the timer silently
//! stopped health ticks and GPU re-granting forever, and a wedged flusher
//! let armed batch deadlines rot in the heap. The supervisor closes that
//! gap with the classic supervision-tree contract:
//!
//! - **Named components.** Each long-lived thread is registered under a
//!   stable name (`accept`, `shard-3`, `timer`, `coordinator`,
//!   `flusher-{i}`) and spawned through a wrapper that catches panics and
//!   reports exit.
//! - **Heartbeats.** The component body receives a [`SupervisedCtx`] and
//!   calls [`SupervisedCtx::park`] immediately before any *intentional*
//!   blocking wait and [`SupervisedCtx::beat`] once per loop iteration,
//!   right after that wait returns. The monitor flags a component
//!   **stalled** when its beat counter freezes while unparked for longer
//!   than the stall grace — a live thread that has stopped making
//!   progress. (Threads cannot be killed, so stalls are detected and
//!   logged, not preempted.)
//! - **Typed restart policies.** [`RestartPolicy::Restart`] (flusher,
//!   timer, coordinator) respawns a panicked component after a backoff, up
//!   to a budget; the caller's body closure re-attaches to surviving state
//!   (a restarted flusher carries on servicing the executor's surviving
//!   deadline heap, a restarted timer resumes health ticks). [`RestartPolicy::Escalate`] (the acceptor, epoll shard
//!   loops) and budget exhaustion instead trigger the **escalation hook**
//!   exactly once — the server installs a fail-fast tenant drain there, so
//!   an unrecoverable component failure ends in a clean, conserving drain
//!   rather than a wedge.
//! - **Structured events.** Every panic, restart, stall, and escalation
//!   is appended to a [`SupervisorEvent`] log with a millisecond
//!   timestamp, surfaced through `DrainReport` and
//!   `Server::supervisor_events` so benches can assert bounded recovery.
//!
//! Deterministic fault injection lives in
//! [`crate::chaos::ComponentChaos`]: a seeded per-component schedule
//! consulted on every beat, so a failing resilience cell reproduces from
//! its seed alone. Chaos is injected *inside* [`SupervisedCtx::beat`],
//! which places induced panics exactly at loop-iteration boundaries —
//! where the component's drop guards re-account any work caught
//! mid-flight and conservation stays exact.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chaos::ComponentChaos;

/// Monitor poll cadence: how often the supervisor thread scans components
/// for deaths, due restarts, and frozen heartbeats.
const MONITOR_POLL: Duration = Duration::from_millis(2);

/// A per-component liveness counter. The component beats it once per loop
/// iteration; the monitor reads it to distinguish "making progress" from
/// "alive but wedged".
#[derive(Debug)]
pub struct Heartbeat {
    beats: AtomicU64,
    /// Set across intentional blocking waits (queue pop, epoll wait,
    /// timer sleep) so an idle component is never misread as stalled.
    /// Starts parked: a component that has not run yet is not stalled.
    parked: AtomicBool,
}

impl Heartbeat {
    fn new() -> Self {
        Heartbeat {
            beats: AtomicU64::new(0),
            parked: AtomicBool::new(true),
        }
    }

    fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
        self.parked.store(false, Ordering::Relaxed);
    }

    fn park(&self) {
        self.parked.store(true, Ordering::Relaxed);
    }

    fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }

    fn is_parked(&self) -> bool {
        self.parked.load(Ordering::Relaxed)
    }
}

/// What the supervisor does when a component panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Respawn after `backoff`, at most `budget` times over the
    /// component's lifetime; exhausting the budget escalates.
    Restart {
        /// Wait this long before respawning a panicked incarnation.
        backoff: Duration,
        /// Lifetime respawn allowance; spending it all escalates.
        budget: u32,
    },
    /// Do not restart: trigger the escalation hook (fail-fast drain).
    /// For components whose state cannot be re-attached — the acceptor
    /// owns the listener's accept loop position, a shard loop owns live
    /// connection state machines.
    Escalate,
}

/// The handle a supervised body uses to report liveness (and receive
/// injected chaos). One fresh `SupervisedCtx` per incarnation; it never
/// leaves the component's own thread.
pub struct SupervisedCtx {
    hb: Arc<Heartbeat>,
    incarnation: u32,
    chaos: Option<RefCell<crate::chaos::ComponentChaosPlan>>,
}

impl SupervisedCtx {
    /// One loop iteration completed. Also the chaos injection point: an
    /// injected panic fires here, at the iteration boundary, where the
    /// component's conservation guards are armed.
    pub fn beat(&self) {
        self.hb.beat();
        if let Some(chaos) = &self.chaos {
            chaos.borrow_mut().on_beat();
        }
    }

    /// About to block intentionally (queue pop, epoll wait, sleep); the
    /// monitor will not count the wait as a stall. The next
    /// [`SupervisedCtx::beat`] unparks.
    ///
    /// The required order in a loop body is **park, block, beat, work**:
    /// the beat comes directly after the blocking call returns, before the
    /// wake-up's work. A body that beats first and works while still
    /// marked parked hides every wedge in that work from the monitor,
    /// which skips parked components.
    pub fn park(&self) {
        self.hb.park();
    }

    /// Which incarnation of the component this is (0 = original spawn).
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }
}

/// What happened, to which component, when (ms since supervisor start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorEvent {
    /// Milliseconds since the supervisor was created.
    pub at_ms: u64,
    /// The component's registered name.
    pub component: String,
    /// The event.
    pub kind: SupervisorEventKind,
}

/// The kinds of [`SupervisorEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEventKind {
    /// The component's thread died by panic.
    Panicked,
    /// The component was respawned; `incarnation` is the new generation.
    Restarted {
        /// Generation of the respawn (original spawn is 0).
        incarnation: u32,
    },
    /// The component is alive but its heartbeat froze while unparked for
    /// longer than the stall grace.
    Stalled,
    /// The component was unrecoverable ([`RestartPolicy::Escalate`] or
    /// restart budget exhausted); the escalation hook ran.
    Escalated,
}

/// One registered component: identity, policy, respawnable body, and the
/// monitor's bookkeeping.
struct Component {
    name: String,
    policy: RestartPolicy,
    /// The respawnable loop. `Arc` so a restart re-invokes the same
    /// closure — state re-attachment is the closure's captures: the
    /// surviving queue, the executor, the shared server state.
    body: Arc<dyn Fn(&SupervisedCtx) + Send + Sync>,
    hb: Arc<Heartbeat>,
    handle: Option<JoinHandle<()>>,
    /// Set by the wrapper when the thread exits (any reason).
    done: Arc<AtomicBool>,
    /// Set by the wrapper when the exit was a panic.
    panicked: Arc<AtomicBool>,
    incarnation: u32,
    restarts_used: u32,
    /// A scheduled (backoff-delayed) respawn, if one is pending.
    restart_at: Option<Instant>,
    last_beats: u64,
    beats_changed_at: Instant,
    /// One `Stalled` event per freeze episode, not one per poll.
    stalled_episode: bool,
    /// Exited cleanly, or given up on (escalated / budget spent).
    finished: bool,
}

struct Inner {
    components: Mutex<Vec<Component>>,
    events: Mutex<Vec<SupervisorEvent>>,
    restarts: AtomicU64,
    stalls: AtomicU64,
    escalations: AtomicU64,
    shutdown: AtomicBool,
    escalated: AtomicBool,
    escalate_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    chaos: Option<ComponentChaos>,
    stall_grace: Duration,
    started: Instant,
}

impl Inner {
    fn push_event(&self, component: &str, kind: SupervisorEventKind) {
        let at_ms = self.started.elapsed().as_millis() as u64;
        self.events
            .lock()
            .expect("supervisor events poisoned")
            .push(SupervisorEvent {
                at_ms,
                component: component.to_string(),
                kind,
            });
    }

    /// Latch escalation and run the hook exactly once, ever. Called
    /// without the components lock held — the hook touches server state
    /// (flips it into draining), never the supervisor's own registry.
    fn escalate(&self) {
        if self.escalated.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(hook) = self
            .escalate_hook
            .lock()
            .expect("supervisor hook poisoned")
            .as_ref()
        {
            hook();
        }
    }
}

/// Spawn (or respawn) a component's thread through the panic-catching
/// wrapper, resetting its liveness bookkeeping.
fn spawn_component(inner: &Inner, comp: &mut Component) {
    comp.done.store(false, Ordering::SeqCst);
    comp.panicked.store(false, Ordering::SeqCst);
    let plan = inner
        .chaos
        .as_ref()
        .and_then(|c| c.plan_for(&comp.name, comp.incarnation));
    let hb = Arc::clone(&comp.hb);
    let body = Arc::clone(&comp.body);
    let done = Arc::clone(&comp.done);
    let panicked = Arc::clone(&comp.panicked);
    let incarnation = comp.incarnation;
    hb.park();
    let handle = std::thread::Builder::new()
        .name(format!("arlo-{}", comp.name))
        .spawn(move || {
            let ctx = SupervisedCtx {
                hb,
                incarnation,
                chaos: plan.map(RefCell::new),
            };
            if catch_unwind(AssertUnwindSafe(|| (body)(&ctx))).is_err() {
                panicked.store(true, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        })
        .expect("spawn supervised component");
    comp.handle = Some(handle);
    comp.last_beats = comp.hb.beats();
    comp.beats_changed_at = Instant::now();
    comp.stalled_episode = false;
}

fn monitor_loop(inner: &Inner) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut run_escalation = false;
        {
            let mut comps = inner.components.lock().expect("supervisor poisoned");
            let now = Instant::now();
            let halted =
                inner.escalated.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst);
            for comp in comps.iter_mut() {
                if comp.finished {
                    continue;
                }
                if let Some(at) = comp.restart_at {
                    if halted {
                        // A drain or escalation is in progress: the
                        // pending respawn would race component teardown.
                        comp.restart_at = None;
                        comp.finished = true;
                    } else if now >= at {
                        comp.restart_at = None;
                        comp.incarnation += 1;
                        inner.restarts.fetch_add(1, Ordering::Relaxed);
                        inner.push_event(
                            &comp.name,
                            SupervisorEventKind::Restarted {
                                incarnation: comp.incarnation,
                            },
                        );
                        spawn_component(inner, comp);
                    }
                    continue;
                }
                if comp.done.load(Ordering::SeqCst) {
                    if let Some(h) = comp.handle.take() {
                        let _ = h.join();
                    }
                    if comp.panicked.swap(false, Ordering::SeqCst) {
                        inner.push_event(&comp.name, SupervisorEventKind::Panicked);
                        match comp.policy {
                            RestartPolicy::Restart { backoff, budget }
                                if comp.restarts_used < budget && !halted =>
                            {
                                comp.restarts_used += 1;
                                comp.restart_at = Some(now + backoff);
                            }
                            _ => {
                                comp.finished = true;
                                if !inner.escalated.load(Ordering::SeqCst) {
                                    inner.escalations.fetch_add(1, Ordering::Relaxed);
                                    inner.push_event(&comp.name, SupervisorEventKind::Escalated);
                                    run_escalation = true;
                                }
                            }
                        }
                    } else {
                        // Clean exit (shutdown-driven); nothing to do.
                        comp.finished = true;
                    }
                    continue;
                }
                // Alive: stall detection on the heartbeat counter.
                let beats = comp.hb.beats();
                if beats != comp.last_beats {
                    comp.last_beats = beats;
                    comp.beats_changed_at = now;
                    comp.stalled_episode = false;
                } else if !comp.hb.is_parked()
                    && !comp.stalled_episode
                    && now.duration_since(comp.beats_changed_at) >= inner.stall_grace
                {
                    comp.stalled_episode = true;
                    inner.stalls.fetch_add(1, Ordering::Relaxed);
                    inner.push_event(&comp.name, SupervisorEventKind::Stalled);
                }
            }
        }
        if run_escalation {
            inner.escalate();
        }
        std::thread::sleep(MONITOR_POLL);
    }
}

/// The supervision tree. One per [`crate::server::Server`]; components are
/// registered at spawn time and torn down by [`Supervisor::shutdown_join`]
/// during drain.
pub struct Supervisor {
    inner: Arc<Inner>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl Supervisor {
    /// A supervisor with optional component chaos.
    pub fn new(chaos: Option<ComponentChaos>, stall_grace: Duration) -> Self {
        Supervisor {
            inner: Arc::new(Inner {
                components: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                restarts: AtomicU64::new(0),
                stalls: AtomicU64::new(0),
                escalations: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                escalated: AtomicBool::new(false),
                escalate_hook: Mutex::new(None),
                chaos,
                stall_grace,
                started: Instant::now(),
            }),
            monitor: Mutex::new(None),
        }
    }

    /// Install the escalation hook (the server's fail-fast tenant drain).
    /// Must be set before [`Supervisor::start`]; runs at most once.
    pub fn set_escalate_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self
            .inner
            .escalate_hook
            .lock()
            .expect("supervisor hook poisoned") = Some(Box::new(hook));
    }

    /// Register and spawn a component. The body is the component's whole
    /// loop; it must call [`SupervisedCtx::beat`] per iteration and
    /// [`SupervisedCtx::park`] before blocking waits, and it must return
    /// when the server's shutdown flag is set (clean exits are final).
    pub fn supervise(
        &self,
        name: &str,
        policy: RestartPolicy,
        body: impl Fn(&SupervisedCtx) + Send + Sync + 'static,
    ) {
        let mut comp = Component {
            name: name.to_string(),
            policy,
            body: Arc::new(body),
            hb: Arc::new(Heartbeat::new()),
            handle: None,
            done: Arc::new(AtomicBool::new(false)),
            panicked: Arc::new(AtomicBool::new(false)),
            incarnation: 0,
            restarts_used: 0,
            restart_at: None,
            last_beats: 0,
            beats_changed_at: Instant::now(),
            stalled_episode: false,
            finished: false,
        };
        spawn_component(&self.inner, &mut comp);
        self.inner
            .components
            .lock()
            .expect("supervisor poisoned")
            .push(comp);
    }

    /// Start the monitor thread.
    pub fn start(&self) {
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("arlo-supervisor".into())
            .spawn(move || monitor_loop(&inner))
            .expect("spawn supervisor monitor");
        *self.monitor.lock().expect("supervisor poisoned") = Some(handle);
    }

    /// Snapshot of the event log so far.
    pub fn events(&self) -> Vec<SupervisorEvent> {
        self.inner
            .events
            .lock()
            .expect("supervisor events poisoned")
            .clone()
    }

    /// Components restarted so far.
    pub fn restarts(&self) -> u64 {
        self.inner.restarts.load(Ordering::Relaxed)
    }

    /// Stall episodes detected so far.
    pub fn stalls_detected(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Unrecoverable component failures so far.
    pub fn escalations(&self) -> u64 {
        self.inner.escalations.load(Ordering::Relaxed)
    }

    /// Whether the escalation hook has fired.
    pub fn is_escalated(&self) -> bool {
        self.inner.escalated.load(Ordering::SeqCst)
    }

    /// Stop the monitor thread (idempotent) without joining components.
    /// After this returns no further restart can fire, so external
    /// teardown — disconnecting flusher channels, closing queues — cannot
    /// race a pending respawn re-attaching to the state being torn down.
    /// [`Supervisor::shutdown_join`] completes the teardown.
    pub fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(m) = self.monitor.lock().expect("supervisor poisoned").take() {
            let _ = m.join();
        }
    }

    /// Stop the monitor, join every component (panics tolerated and
    /// recorded), and drop the registry — releasing the body closures'
    /// captured state (executor handles, shared server state). Callers
    /// must first make components exit: set the server shutdown flag, wake
    /// the shard wakers, stop the flushers.
    pub fn shutdown_join(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(m) = self.monitor.lock().expect("supervisor poisoned").take() {
            let _ = m.join();
        }
        let mut comps =
            std::mem::take(&mut *self.inner.components.lock().expect("supervisor poisoned"));
        for comp in comps.iter_mut() {
            if let Some(h) = comp.handle.take() {
                let _ = h.join();
            }
            if comp.panicked.load(Ordering::SeqCst) {
                // Died after the monitor stopped looking: the drain report
                // still deserves the truth.
                self.inner
                    .push_event(&comp.name, SupervisorEventKind::Panicked);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_restart(budget: u32) -> RestartPolicy {
        RestartPolicy::Restart {
            backoff: Duration::from_millis(1),
            budget,
        }
    }

    /// Spin until `cond` or the deadline; panics on timeout.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn panicking_component_restarts_and_reattaches() {
        let sup = Supervisor::new(None, Duration::from_millis(200));
        let runs = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let runs = Arc::clone(&runs);
            let stop = Arc::clone(&stop);
            sup.supervise("worker-0", quick_restart(8), move |ctx| {
                let run = runs.fetch_add(1, Ordering::SeqCst);
                if run < 2 {
                    panic!("induced");
                }
                while !stop.load(Ordering::SeqCst) {
                    ctx.beat();
                    ctx.park();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        sup.start();
        wait_for("two restarts", || sup.restarts() >= 2);
        // The surviving incarnation keeps beating; the log holds both
        // panics and both restarts in order.
        let events = sup.events();
        let panics = events
            .iter()
            .filter(|e| e.kind == SupervisorEventKind::Panicked)
            .count();
        assert_eq!(panics, 2);
        assert!(events
            .iter()
            .any(|e| e.kind == SupervisorEventKind::Restarted { incarnation: 2 }));
        assert_eq!(sup.escalations(), 0);
        stop.store(true, Ordering::SeqCst);
        sup.shutdown_join();
        assert_eq!(runs.load(Ordering::SeqCst), 3, "0,1 panicked; 2 served");
    }

    #[test]
    fn escalate_policy_fires_hook_once_and_never_restarts() {
        let sup = Supervisor::new(None, Duration::from_millis(200));
        let hook_fired = Arc::new(AtomicU64::new(0));
        {
            let hook_fired = Arc::clone(&hook_fired);
            sup.set_escalate_hook(move || {
                hook_fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        let runs = Arc::new(AtomicU64::new(0));
        {
            let runs = Arc::clone(&runs);
            sup.supervise("shard-0", RestartPolicy::Escalate, move |_ctx| {
                runs.fetch_add(1, Ordering::SeqCst);
                panic!("induced");
            });
        }
        sup.start();
        wait_for("escalation", || sup.escalations() >= 1);
        assert!(sup.is_escalated());
        assert_eq!(hook_fired.load(Ordering::SeqCst), 1);
        assert_eq!(sup.restarts(), 0);
        sup.shutdown_join();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "Escalate never respawns");
    }

    #[test]
    fn budget_exhaustion_escalates_instead_of_looping() {
        let sup = Supervisor::new(None, Duration::from_millis(200));
        let hook_fired = Arc::new(AtomicBool::new(false));
        {
            let hook_fired = Arc::clone(&hook_fired);
            sup.set_escalate_hook(move || hook_fired.store(true, Ordering::SeqCst));
        }
        sup.supervise("worker-0", quick_restart(2), |_ctx| panic!("always"));
        sup.start();
        wait_for("budget-exhaustion escalation", || sup.escalations() >= 1);
        assert_eq!(sup.restarts(), 2, "exactly the budget, then give up");
        assert!(hook_fired.load(Ordering::SeqCst));
        sup.shutdown_join();
    }

    #[test]
    fn frozen_unparked_heartbeat_is_one_stall_episode() {
        let sup = Supervisor::new(None, Duration::from_millis(50));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let stop = Arc::clone(&stop);
            sup.supervise("worker-0", quick_restart(0), move |ctx| {
                ctx.beat();
                // Wedge: unparked, no beats, well past the 50 ms grace.
                std::thread::sleep(Duration::from_millis(300));
                while !stop.load(Ordering::SeqCst) {
                    ctx.beat();
                    ctx.park();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        sup.start();
        wait_for("stall detection", || sup.stalls_detected() >= 1);
        stop.store(true, Ordering::SeqCst);
        sup.shutdown_join();
        assert_eq!(sup.stalls_detected(), 1, "one episode, not one per poll");
        assert_eq!(sup.restarts(), 0, "stalls are detected, not preempted");
    }

    #[test]
    fn parked_idle_component_is_never_stalled() {
        let sup = Supervisor::new(None, Duration::from_millis(20));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let stop = Arc::clone(&stop);
            sup.supervise("worker-0", quick_restart(0), move |ctx| {
                ctx.beat();
                ctx.park();
                // A long intentional block — a consumer waiting on an
                // empty queue — must not read as a stall.
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        sup.start();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(sup.stalls_detected(), 0);
        stop.store(true, Ordering::SeqCst);
        sup.shutdown_join();
    }

    /// A body shaped like `server::shard_loop` — park, block, beat, then
    /// the wake-up's work — that wedges in that work. The beat after the
    /// wait is what unparks it, so the monitor sees the freeze. (Beating
    /// before the park instead leaves the work marked parked, and this
    /// wedge is never flagged.)
    #[test]
    fn wedge_after_the_wait_is_flagged_within_the_grace() {
        let grace = Duration::from_millis(50);
        let sup = Supervisor::new(None, grace);
        let stop = Arc::new(AtomicBool::new(false));
        let wedged_at = Arc::new(Mutex::new(None));
        {
            let stop = Arc::clone(&stop);
            let wedged_at = Arc::clone(&wedged_at);
            sup.supervise("shard-0", RestartPolicy::Escalate, move |ctx| {
                for wakeup in 0.. {
                    ctx.park();
                    std::thread::sleep(Duration::from_millis(1)); // epoll_wait
                    ctx.beat();
                    if wakeup == 3 {
                        *wedged_at.lock().unwrap() = Some(Instant::now());
                        // drive_conn deadlocks: alive, silent, unparked.
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        return;
                    }
                }
            });
        }
        sup.start();
        wait_for("stall detection", || sup.stalls_detected() >= 1);
        let flagged_after = wedged_at.lock().unwrap().expect("wedged").elapsed();
        stop.store(true, Ordering::SeqCst);
        sup.shutdown_join();
        // Grace plus monitor-poll and scheduling slack, far under the 5 s
        // `wait_for` allows.
        assert!(
            flagged_after < grace + Duration::from_millis(500),
            "flagged {flagged_after:?} after the wedge"
        );
        assert!(sup
            .events()
            .iter()
            .any(|e| { e.component == "shard-0" && e.kind == SupervisorEventKind::Stalled }));
        assert_eq!(sup.stalls_detected(), 1);
    }

    #[test]
    fn clean_exit_is_final() {
        let sup = Supervisor::new(None, Duration::from_millis(200));
        let runs = Arc::new(AtomicU64::new(0));
        {
            let runs = Arc::clone(&runs);
            sup.supervise("worker-0", quick_restart(8), move |ctx| {
                runs.fetch_add(1, Ordering::SeqCst);
                ctx.beat();
            });
        }
        sup.start();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(sup.restarts(), 0, "returning normally is not a failure");
        sup.shutdown_join();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn injected_component_chaos_panics_are_deterministic_and_targeted() {
        let chaos = ComponentChaos::panics("worker", 1, 42);
        let sup = Supervisor::new(Some(chaos), Duration::from_millis(200));
        let stop = Arc::new(AtomicBool::new(false));
        let timer_runs = Arc::new(AtomicU64::new(0));
        {
            let stop = Arc::clone(&stop);
            sup.supervise("worker-0", quick_restart(3), move |ctx| {
                while !stop.load(Ordering::SeqCst) {
                    ctx.beat(); // chaos fires here: panic_one_in = 1
                    ctx.park();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        {
            let stop = Arc::clone(&stop);
            let timer_runs = Arc::clone(&timer_runs);
            sup.supervise("timer", quick_restart(3), move |ctx| {
                timer_runs.fetch_add(1, Ordering::SeqCst);
                while !stop.load(Ordering::SeqCst) {
                    ctx.beat(); // untargeted: chaos never fires
                    ctx.park();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        sup.start();
        wait_for("worker restarts from chaos", || sup.restarts() >= 1);
        stop.store(true, Ordering::SeqCst);
        sup.shutdown_join();
        assert_eq!(
            timer_runs.load(Ordering::SeqCst),
            1,
            "chaos targeted 'worker'; the timer never died"
        );
    }
}
