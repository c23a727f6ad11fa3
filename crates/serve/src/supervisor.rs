//! Supervision: escalation plus a stall check.
//!
//! The server runs one kind of thread, the epoll shards, which carry every
//! request and fire their executors' deadlines; shard 0 also runs the
//! periodic health, reallocation and re-granting ticks of the planner.
//! Nothing is restarted — a shard owns connection state machines that
//! cannot be re-attached, and a planner tick holds no state between ticks
//! — so supervising them takes three things and no thread of its own:
//!
//! - **Heartbeats.** Each shard is spawned through `Supervisor::spawn`
//!   under a stable name (`shard-{i}`); its body calls
//!   `SupervisedCtx::park` right before any intentional blocking wait and
//!   `SupervisedCtx::beat` right after it returns.
//! - **Escalation.** A panic that escapes a body is logged and runs the
//!   escalation hook — the server's fail-fast drain — on the dying thread,
//!   once per server. Shard 0 runs each planner tick behind
//!   `Supervisor::recover` instead: a panicking tick is logged and the
//!   next one runs.
//! - **A stall check.** `Supervisor::check_stalls` flags a component
//!   whose beat counter stayed frozen while unparked for longer than the
//!   stall grace (a wedged planner tick is shard 0's). Whoever polls the
//!   server calls it (`arlo serve`, every 50 ms). Stalls are detected and
//!   logged, not preempted.
//!
//! Every panic, stall and escalation lands in a [`SupervisorEvent`] log
//! that keeps the most recent [`LOG_CAPACITY`](crate::tenants::LOG_CAPACITY);
//! the stall and escalation counts stay exact.
//! Deterministic fault injection ([`crate::chaos::ComponentChaos`]) fires
//! inside `SupervisedCtx::beat` (the planner's, at the top of each tick) —
//! at loop-iteration boundaries, where the component's drop guards
//! re-account work caught mid-flight — so a failing resilience cell
//! reproduces from its seed alone.

use std::cell::RefCell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chaos::{ComponentChaos, ComponentChaosPlan};
use crate::tenants::BoundedLog;

/// A per-component liveness counter. The component beats it once per loop
/// iteration; the stall check reads it to distinguish "making progress"
/// from "alive but wedged".
#[derive(Debug)]
struct Heartbeat {
    beats: AtomicU64,
    /// Set across intentional blocking waits (the epoll wait) and
    /// once the thread has exited, so an idle or finished component is
    /// never misread as stalled. Starts parked: a component that has not
    /// run yet is not stalled.
    parked: AtomicBool,
}

impl Heartbeat {
    fn new() -> Self {
        Heartbeat {
            beats: AtomicU64::new(0),
            parked: AtomicBool::new(true),
        }
    }
}

/// The handle a component body uses to report liveness (and receive
/// injected chaos). It never leaves the component's own thread.
pub(crate) struct SupervisedCtx {
    hb: Arc<Heartbeat>,
    chaos: Option<RefCell<ComponentChaosPlan>>,
}

impl SupervisedCtx {
    /// One loop iteration began. Also the chaos injection point: an
    /// injected panic fires here, at the iteration boundary, where the
    /// component's conservation guards are armed.
    pub(crate) fn beat(&self) {
        self.hb.beats.fetch_add(1, Ordering::Relaxed);
        self.hb.parked.store(false, Ordering::Relaxed);
        if let Some(chaos) = &self.chaos {
            chaos.borrow_mut().on_beat();
        }
    }

    /// About to block intentionally; the stall check will not count the
    /// wait as a stall. The next [`SupervisedCtx::beat`] unparks.
    ///
    /// The required order in a loop body is **park, block, beat, work**:
    /// the beat comes directly after the blocking call returns, before the
    /// wake-up's work. A body that beats first and works while still
    /// marked parked hides every wedge in that work from the check, which
    /// skips parked components.
    pub(crate) fn park(&self) {
        self.hb.parked.store(true, Ordering::Relaxed);
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
    /// A panic: one that killed the component's thread (followed by
    /// `Escalated`), or one caught at a planner tick.
    Panicked,
    /// The component is alive but its heartbeat froze while unparked for
    /// longer than the stall grace.
    Stalled,
    /// A panic escaped the component's body; the escalation hook ran.
    Escalated,
}

/// The stall check's bookkeeping for one component.
struct Watch {
    name: String,
    hb: Arc<Heartbeat>,
    last_beats: u64,
    changed_at: Instant,
    /// One `Stalled` event per freeze episode, not one per check.
    stalled: bool,
}

struct Inner {
    watches: Mutex<Vec<Watch>>,
    events: Mutex<BoundedLog<SupervisorEvent>>,
    stalls: AtomicU64,
    escalations: AtomicU64,
    escalate_hook: Box<dyn Fn() + Send + Sync>,
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
}

/// One per [`crate::server::Server`]: spawns its components, logs their
/// failures and checks their heartbeats. Cheap to clone (one `Arc`).
#[derive(Clone)]
pub(crate) struct Supervisor {
    inner: Arc<Inner>,
}

impl Supervisor {
    /// A supervisor with optional component chaos. `escalate` runs at most
    /// once, on the thread of the first component whose body panics.
    pub(crate) fn new(
        chaos: Option<ComponentChaos>,
        stall_grace: Duration,
        escalate: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        Supervisor {
            inner: Arc::new(Inner {
                watches: Mutex::new(Vec::new()),
                events: Mutex::new(BoundedLog::default()),
                stalls: AtomicU64::new(0),
                escalations: AtomicU64::new(0),
                escalate_hook: Box::new(escalate),
                chaos,
                stall_grace,
                started: Instant::now(),
            }),
        }
    }

    /// Register component `name` and run `body` on a thread of its own
    /// (`arlo-{name}`). The body is the component's whole loop: it beats
    /// and parks through its [`SupervisedCtx`] and returns when the server
    /// shuts down. A panic that escapes it is logged as `Panicked` and
    /// `Escalated`, and runs the escalation hook on the dying thread.
    pub(crate) fn spawn(
        &self,
        name: &str,
        body: impl FnOnce(&SupervisedCtx) + Send + 'static,
    ) -> io::Result<JoinHandle<()>> {
        let hb = Arc::new(Heartbeat::new());
        self.inner
            .watches
            .lock()
            .expect("supervisor poisoned")
            .push(Watch {
                name: name.to_string(),
                hb: Arc::clone(&hb),
                last_beats: 0,
                changed_at: Instant::now(),
                stalled: false,
            });
        let ctx = SupervisedCtx {
            hb,
            chaos: self.chaos_plan(name).map(RefCell::new),
        };
        let inner = Arc::clone(&self.inner);
        let name = name.to_string();
        std::thread::Builder::new()
            .name(format!("arlo-{name}"))
            .spawn(move || {
                let died = catch_unwind(AssertUnwindSafe(|| body(&ctx))).is_err();
                // Finished either way: a frozen heartbeat is not a stall.
                ctx.park();
                if died {
                    inner.push_event(&name, SupervisorEventKind::Panicked);
                    inner.push_event(&name, SupervisorEventKind::Escalated);
                    if inner.escalations.fetch_add(1, Ordering::SeqCst) == 0 {
                        (inner.escalate_hook)();
                    }
                }
            })
    }

    /// Component `name`'s chaos schedule, if the chaos targets it.
    pub(crate) fn chaos_plan(&self, name: &str) -> Option<ComponentChaosPlan> {
        self.inner.chaos.as_ref()?.plan_for(name)
    }

    /// Run one tick of component `name`'s work behind `catch_unwind`. A
    /// panic is logged as `Panicked` and swallowed, so the caller carries
    /// on with its next tick. Returns whether `work` finished.
    pub(crate) fn recover(&self, name: &str, work: impl FnOnce()) -> bool {
        let finished = catch_unwind(AssertUnwindSafe(work)).is_ok();
        if !finished {
            self.inner.push_event(name, SupervisorEventKind::Panicked);
        }
        finished
    }

    /// Compare every component's heartbeat with its reading at the
    /// previous check: one whose beats have not moved while it was
    /// unparked for at least the stall grace is logged `Stalled`, once per
    /// freeze episode. Returns the episodes this call found.
    pub(crate) fn check_stalls(&self) -> u64 {
        let now = Instant::now();
        let mut found = 0;
        for w in self
            .inner
            .watches
            .lock()
            .expect("supervisor poisoned")
            .iter_mut()
        {
            let beats = w.hb.beats.load(Ordering::Relaxed);
            if beats != w.last_beats {
                w.last_beats = beats;
                w.changed_at = now;
                w.stalled = false;
            } else if !w.hb.parked.load(Ordering::Relaxed)
                && !w.stalled
                && now.duration_since(w.changed_at) >= self.inner.stall_grace
            {
                w.stalled = true;
                found += 1;
                self.inner.push_event(&w.name, SupervisorEventKind::Stalled);
            }
        }
        self.inner.stalls.fetch_add(found, Ordering::Relaxed);
        found
    }

    /// Snapshot of the retained event log, oldest first.
    pub(crate) fn events(&self) -> Vec<SupervisorEvent> {
        self.inner
            .events
            .lock()
            .expect("supervisor events poisoned")
            .to_vec()
    }

    /// Stall episodes detected so far.
    pub(crate) fn stalls_detected(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Components whose body panicked so far (the hook ran at the first).
    pub(crate) fn escalations(&self) -> u64 {
        self.inner.escalations.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supervisor(grace: Duration) -> (Supervisor, Arc<AtomicU64>) {
        let hooks = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&hooks);
        let sup = Supervisor::new(None, grace, move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        (sup, hooks)
    }

    /// Call the stall check every 2 ms until `cond` or a 5 s deadline.
    fn check_until(sup: &Supervisor, what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            sup.check_stalls();
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn an_escaped_panic_escalates_once_on_the_dying_thread() {
        let (sup, hooks) = supervisor(Duration::from_millis(200));
        for name in ["shard-0", "shard-1"] {
            let handle = sup.spawn(name, |_ctx| panic!("induced")).unwrap();
            handle.join().expect("the wrapper catches the panic");
        }
        // Both deaths are logged and counted; the hook ran once, before
        // the first dying thread finished.
        assert_eq!(hooks.load(Ordering::SeqCst), 1);
        assert_eq!(sup.escalations(), 2);
        let kinds: Vec<_> = sup.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                SupervisorEventKind::Panicked,
                SupervisorEventKind::Escalated,
                SupervisorEventKind::Panicked,
                SupervisorEventKind::Escalated
            ]
        );
    }

    #[test]
    fn a_recovered_tick_panic_is_logged_and_does_not_escalate() {
        let (sup, hooks) = supervisor(Duration::from_millis(200));
        let ticks = Arc::new(AtomicU64::new(0));
        let handle = {
            let (sup2, ticks) = (sup.clone(), Arc::clone(&ticks));
            sup.spawn("planner", move |ctx| {
                for tick in 0..4 {
                    ctx.park();
                    sup2.recover("planner", || {
                        ctx.beat();
                        if tick % 2 == 0 {
                            panic!("induced tick panic");
                        }
                        ticks.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
            .unwrap()
        };
        handle.join().unwrap();
        assert_eq!(ticks.load(Ordering::SeqCst), 2, "ticks 1 and 3 ran");
        assert_eq!(hooks.load(Ordering::SeqCst), 0);
        assert_eq!(sup.escalations(), 0);
        let panics = sup
            .events()
            .iter()
            .filter(|e| e.component == "planner" && e.kind == SupervisorEventKind::Panicked)
            .count();
        assert_eq!(panics, 2);
    }

    /// A long intentional block — an epoll wait with nothing to do — is
    /// not a stall, and neither is a component that has exited: its
    /// heartbeat is parked on the way out. A clean exit is no failure.
    #[test]
    fn parked_and_exited_components_are_never_stalled() {
        let (sup, hooks) = supervisor(Duration::from_millis(20));
        let handle = sup
            .spawn("shard-0", |ctx| {
                ctx.beat();
                ctx.park();
                std::thread::sleep(Duration::from_millis(100));
                ctx.beat();
            })
            .unwrap();
        for _ in 0..100 {
            sup.check_stalls();
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.join().unwrap();
        assert_eq!(sup.stalls_detected(), 0);
        assert_eq!(hooks.load(Ordering::SeqCst), 0);
        assert!(sup.events().is_empty());
    }

    /// A body shaped like `server::shard_loop` — park, block, beat, then
    /// the wake-up's work — that wedges in that work. The beat after the
    /// wait is what unparks it, so the check sees the freeze, once per
    /// episode however often it checks. (Beating before the park instead
    /// leaves the work marked parked, and this wedge is never flagged.)
    #[test]
    fn wedge_after_the_wait_is_flagged_within_the_grace() {
        let grace = Duration::from_millis(50);
        let (sup, _) = supervisor(grace);
        let stop = Arc::new(AtomicBool::new(false));
        let wedged_at = Arc::new(Mutex::new(None));
        let handle = {
            let stop = Arc::clone(&stop);
            let wedged_at = Arc::clone(&wedged_at);
            sup.spawn("shard-0", move |ctx| {
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
            })
            .unwrap()
        };
        check_until(&sup, "stall detection", || sup.stalls_detected() >= 1);
        let flagged_after = wedged_at.lock().unwrap().expect("wedged").elapsed();
        // Still wedged: further checks find the same episode.
        for _ in 0..50 {
            sup.check_stalls();
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
        // Grace plus check-interval and scheduling slack, far under the
        // 5 s the poll allows.
        assert!(
            flagged_after < grace + Duration::from_millis(500),
            "flagged {flagged_after:?} after the wedge"
        );
        assert!(sup
            .events()
            .iter()
            .any(|e| e.component == "shard-0" && e.kind == SupervisorEventKind::Stalled));
        assert_eq!(sup.stalls_detected(), 1);
    }

    #[test]
    fn injected_chaos_hits_only_its_target() {
        let chaos = ComponentChaos::panics("shard", 1, 42);
        let sup = Supervisor::new(Some(chaos), Duration::from_millis(200), || {});
        let beat = |ctx: &SupervisedCtx| ctx.beat(); // chaos fires here
        sup.spawn("planner", beat).unwrap().join().unwrap();
        assert_eq!(sup.escalations(), 0, "chaos targeted 'shard'");
        sup.spawn("shard-0", beat).unwrap().join().unwrap();
        assert_eq!(sup.escalations(), 1, "one-in-one chaos kills the shard");
    }
}
