//! The multi-tenant engine: shared ingest, per-scope routing, fan-out.
//!
//! One [`MultiEngine`] serves every registered predicate over a single
//! event stream. Three design decisions make per-session verdicts *and*
//! metrics independent of tenancy, timing and transport:
//!
//! 1. **One merge per scope class.** Sessions whose predicates name
//!    exactly the same processes form a *scope class*. Each class merges
//!    its own processes' FIFO streams by a watermark rule: an event is
//!    routed only when every still-open process *of the scope* has a
//!    pending event (so no unseen event of the scope can precede it), and
//!    the pending event with the smallest `(interval, process)` key is
//!    routed first. A class's routed log is therefore the unique
//!    `(interval, process)`-sorted merge of its scope's streams: the
//!    projection of the whole computation's sorted merge onto the scope,
//!    a pure function of the computation whatever the arrival
//!    interleaving was. Like the paper's checker (Figure 2), a class waits
//!    only for the processes its predicate names, never for the rest of
//!    the engine.
//! 2. **Shared rows, private cursors.** Snapshots are appended to the
//!    [`SharedStore`] once at ingest; classes and sessions reference rows
//!    by index, and a class keeps only a cursor and a close flag per scope
//!    position. Session state is `O(scope)` cursors + counters. Routing is
//!    shared per class, elimination never is: every session runs its own
//!    loop, even next to sessions with an equal scope.
//! 3. **Replay-from-origin registration.** A predicate registered
//!    mid-stream first replays everything its class has routed — rebuilt
//!    from the store by merging each scope position's routed rows, which
//!    is cheap and keeps no log — so a late session is indistinguishable
//!    from one registered before the first event. A scope with no class
//!    yet gets a fresh one, which routes from the store origin at the next
//!    pump; a class whose sessions all resolved or left is dropped at the
//!    sweep and rebuilt that way when its scope is registered again.
//!
//! A pump's work follows the classes with something to route, not the
//! class count: a class whose merge stopped at an open, silent process
//! waits on that process and is routed again only after input to it, and
//! a pass visits only the classes that routed entries.
//!
//! Fan-out is driven by [`pump`](MultiEngine::pump) (serial, the order the
//! service actor uses) or [`pump_parallel`](MultiEngine::pump_parallel)
//! (sessions partitioned across the persistent [`wcp_clocks::par`] worker
//! pool; per-session delivery order is unchanged, so results are
//! bit-identical to serial). A class keeps one subscriber-list entry per
//! session, so striding over the pass's sessions gives every session to
//! exactly one worker. Resolved and unregistered sessions are skipped on
//! one atomic load (their state mutex is never locked again) and
//! compacted out of the lists by a threshold-triggered sweep at pump
//! start.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use wcp_clocks::{par, scoped_workers, ProcessId};
use wcp_detect::DetectionMetrics;
use wcp_trace::Wcp;

use crate::registry::{PredicateId, Registry, SessionSlot};
use crate::session::SessionVerdict;
use crate::store::{SharedStore, StoreView};

/// Why a registration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The id is already registered.
    Duplicate(PredicateId),
    /// The predicate names a process outside `0..N`.
    ScopeOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// The engine's process count.
        n: usize,
    },
    /// The predicate scope is empty.
    EmptyScope,
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::Duplicate(id) => write!(f, "predicate {id} is already registered"),
            RegisterError::ScopeOutOfRange { process, n } => {
                write!(f, "scope process {process} out of range for N={n}")
            }
            RegisterError::EmptyScope => write!(f, "predicate scope is empty"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// The scope checks [`MultiEngine::register`] makes before it looks at
/// the registry: a non-empty scope inside `0..n`.
pub(crate) fn check_scope(n: usize, wcp: &Wcp) -> Result<(), RegisterError> {
    if wcp.n() == 0 {
        return Err(RegisterError::EmptyScope);
    }
    match wcp.scope().iter().find(|p| p.index() >= n) {
        Some(&process) => Err(RegisterError::ScopeOutOfRange { process, n }),
        None => Ok(()),
    }
}

/// Why a snapshot or an end-of-stream mark was refused at ingest. A
/// refused input changes nothing: the store, the streams and every
/// session are as they were.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The process is outside `0..N`.
    ProcessOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// The engine's process count.
        n: usize,
    },
    /// The snapshot clock's width is not `N`.
    ClockWidth {
        /// The sending process.
        process: ProcessId,
        /// The clock's width.
        width: usize,
        /// The engine's process count.
        n: usize,
    },
    /// The snapshot's own clock component is not its interval (Figure 2
    /// stamps `p`'s interval-`k` snapshot with `clock[p] == k`).
    OwnComponent {
        /// The sending process.
        process: ProcessId,
        /// The interval the snapshot claims.
        interval: u64,
        /// The clock's component at `process`.
        component: u64,
    },
    /// The interval does not exceed the process's previous one: the FIFO
    /// discipline of Figure 2's channels is broken.
    NotIncreasing {
        /// The sending process.
        process: ProcessId,
        /// The interval the snapshot claims.
        interval: u64,
        /// The process's previous interval (0 before its first).
        last: u64,
    },
    /// The process already ended its stream.
    AfterClose {
        /// The sending process.
        process: ProcessId,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::ProcessOutOfRange { process, n } => {
                write!(f, "process {process} out of range for N={n}")
            }
            IngestError::ClockWidth { process, width, n } => write!(
                f,
                "snapshot clock width from {process} must equal N={n}, got {width}"
            ),
            IngestError::OwnComponent {
                process,
                interval,
                component,
            } => write!(
                f,
                "snapshot from {process} claims interval {interval} but its own clock \
                 component is {component}"
            ),
            IngestError::NotIncreasing {
                process,
                interval,
                last,
            } => write!(
                f,
                "snapshots must arrive in increasing interval order: {process} sent \
                 {interval} after {last}"
            ),
            IngestError::AfterClose { process } => {
                write!(f, "snapshot from {process} after end of stream")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Monotonic / gauge counters surfaced through `wcp stats` and `wcp top`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Currently registered sessions.
    pub sessions_active: u64,
    /// Routed-log entries delivered to (unresolved) sessions, total.
    pub routed_events: u64,
    /// Sessions that resolved `Detected`, total.
    pub detections: u64,
}

#[derive(Debug, Default)]
struct EngineCounters {
    sessions_active: AtomicU64,
    routed_events: AtomicU64,
    detections: AtomicU64,
    unresolved: AtomicU64,
    /// Subscriber-list entries, one per subscribed session.
    total_subs: AtomicU64,
    /// Entries whose session is resolved or unregistered — reclaimed by
    /// the next pump's sweep once they cross the compaction threshold.
    dead_subs: AtomicU64,
}

/// Per-worker delivery counters, folded into [`EngineCounters`] once per
/// worker per pump — the hot path touches no shared atomics.
#[derive(Debug, Default, Clone, Copy)]
struct PumpTally {
    routed_events: u64,
    detections: u64,
    /// Sessions that reached a verdict during this pass; each leaves one
    /// dead subscriber-list entry behind.
    resolved_sessions: u64,
}

/// Deliveries each worker must get before a pump is split across the pool
/// (the [`par::width`] cutoff). A delivery costs about 50 ns
/// (`session.ns_per_delivery` in traced perfbench `session-stream` runs,
/// 48–54 ns), while a 2-unit pool dispatch measured about 2 µs with the
/// worker spinning and 3 µs with it parked, and the traced runs'
/// `par.dispatch_us` reads 1.0–1.6 µs (2-vCPU x86-64 VM). A worker's 64
/// deliveries, about 3 µs, are the least that pays for a dispatch;
/// smaller pumps run faster on the calling thread.
const DELIVERY_GRAIN: usize = 64;

/// One entry of a class's routed stream.
#[derive(Debug, Clone, Copy)]
struct Routed {
    /// Scope position of the process the entry belongs to.
    pos: u32,
    /// `false`: the next dense arena row of that process; `true`: end of
    /// its stream.
    close: bool,
}

/// Per-process ingest state; the rows themselves live in the store.
#[derive(Debug)]
struct Streams {
    /// Interval of the newest snapshot (0 before the first).
    last: Vec<u64>,
    /// Snapshots stored.
    rows: Vec<usize>,
    /// End of stream declared.
    closed: Vec<bool>,
    /// Input arrived since the last pump: the classes waiting on the
    /// process are routed again at the next one.
    woken: Vec<bool>,
}

impl Streams {
    fn new(n: usize) -> Self {
        Streams {
            last: vec![0; n],
            rows: vec![0; n],
            closed: vec![false; n],
            woken: vec![false; n],
        }
    }

    /// The one ingest validation: everything a snapshot must satisfy
    /// before it may touch the store.
    fn check(&self, process: ProcessId, interval: u64, clock: &[u64]) -> Result<(), IngestError> {
        let n = self.closed.len();
        let p = process.index();
        if p >= n {
            return Err(IngestError::ProcessOutOfRange { process, n });
        }
        if self.closed[p] {
            return Err(IngestError::AfterClose { process });
        }
        if clock.len() != n {
            return Err(IngestError::ClockWidth {
                process,
                width: clock.len(),
                n,
            });
        }
        if clock[p] != interval {
            return Err(IngestError::OwnComponent {
                process,
                interval,
                component: clock[p],
            });
        }
        let last = self.last[p];
        if interval <= last {
            return Err(IngestError::NotIncreasing {
                process,
                interval,
                last,
            });
        }
        Ok(())
    }
}

/// One scope position of a class's merge: its process and how far the
/// merge has routed it.
#[derive(Debug, Clone, Copy)]
struct Position {
    process: ProcessId,
    /// End of stream routed.
    closed: bool,
    /// Rows routed.
    rows: usize,
}

/// Entries routed through `positions` so far.
fn routed_count(positions: &[Position]) -> usize {
    positions
        .iter()
        .map(|pos| pos.rows + usize::from(pos.closed))
        .sum()
}

/// Appends to `out`, in `(interval, process)` order, the items of every
/// position past its cursor and within `limit(i, p)` — the `(rows,
/// closed)` available at position `i` of process `p` — advancing the
/// cursors over them. With `wait`, an open position whose available rows
/// are used up stops the merge (a smaller-keyed row may still arrive
/// there) and the process to wait for is returned: of the stopping
/// positions, the one whose next row sorts last, so that in-order arrival
/// wakes the class once. Without `wait` such a position just drops out,
/// which replays a prefix already routed. A row's interval is its own
/// clock component, which ingest checks.
fn merge(
    positions: &mut [Position],
    view: &StoreView<'_>,
    limit: impl Fn(usize, usize) -> (usize, bool),
    wait: bool,
    out: &mut Vec<Routed>,
) -> Option<usize> {
    loop {
        // The smallest next item, and the stopping position whose next row
        // sorts last. Positions follow process order, so comparing keys
        // alone orders ties by process: `<` keeps the first of equal keys,
        // `>=` the last.
        let mut best: Option<(u64, usize, bool)> = None;
        let mut stop: Option<(u64, usize)> = None;
        for (i, pos) in positions.iter().enumerate() {
            let p = pos.process.index();
            let (rows, closed) = limit(i, p);
            if pos.rows < rows {
                let key = view.row(p, pos.rows)[p];
                if best.is_none_or(|(k, _, _)| key < k) {
                    best = Some((key, i, false));
                }
            } else if !pos.closed && (closed || wait) {
                // A close, or the earliest row that can still arrive,
                // sorts right after the process's last row.
                let key = pos.rows.checked_sub(1).map_or(0, |r| view.row(p, r)[p]) + 1;
                if closed {
                    if best.is_none_or(|(k, _, _)| key < k) {
                        best = Some((key, i, true));
                    }
                } else if stop.is_none_or(|(k, _)| key >= k) {
                    stop = Some((key, p));
                }
            }
        }
        if let Some((_, p)) = stop {
            return Some(p);
        }
        let (_, i, close) = best?;
        let pos = &mut positions[i];
        if close {
            pos.closed = true;
        } else {
            pos.rows += 1;
        }
        out.push(Routed {
            pos: i as u32,
            close,
        });
    }
}

/// The sessions over one scope and the merge of that scope's streams.
#[derive(Debug)]
struct ScopeClass {
    /// One per scope process, in process order.
    positions: Vec<Position>,
    /// The class's sessions, one entry each.
    subscribers: Vec<Arc<SessionSlot>>,
}

impl ScopeClass {
    /// Everything the class has routed so far, rebuilt from the store:
    /// the merge of each position's routed rows (and close), which is what
    /// a joining session replays.
    fn replay(&self, view: &StoreView<'_>) -> Vec<Routed> {
        let mut origin: Vec<Position> = self
            .positions
            .iter()
            .map(|&pos| Position {
                closed: false,
                rows: 0,
                ..pos
            })
            .collect();
        let mut out = Vec::with_capacity(routed_count(&self.positions));
        let done = |i: usize, _| (self.positions[i].rows, self.positions[i].closed);
        merge(&mut origin, view, done, false, &mut out);
        out
    }
}

/// The scope classes, and what keeps a pump's work proportional to the
/// classes with something to route.
#[derive(Debug)]
struct Classes {
    /// By class id; ids are stable between sweeps, which compact this.
    all: Vec<ScopeClass>,
    by_scope: HashMap<Vec<ProcessId>, usize>,
    /// `waiting[p]`: classes whose merge stopped at open process `p` with
    /// nothing pending. Input to `p` moves them to `ready`.
    waiting: Vec<Vec<usize>>,
    /// Classes the next pump routes: new ones and woken ones.
    ready: Vec<usize>,
    /// Entries routed by the running pump, class after class; delivered
    /// before it returns.
    fresh: Vec<Routed>,
    /// The classes that routed in the running pump, in routing order,
    /// with their share of `fresh`.
    routed: Vec<(usize, Range<usize>)>,
}

impl Classes {
    fn new(n: usize) -> Self {
        Classes {
            all: Vec::new(),
            by_scope: HashMap::new(),
            waiting: vec![Vec::new(); n],
            ready: Vec::new(),
            fresh: Vec::new(),
            routed: Vec::new(),
        }
    }

    /// Adds `slot` to the class of `scope` and returns what the session
    /// replays to catch up. A new class routes from the store origin at
    /// the next pump, so it has nothing to replay yet.
    fn join(
        &mut self,
        scope: &[ProcessId],
        slot: Arc<SessionSlot>,
        view: &StoreView<'_>,
    ) -> Vec<Routed> {
        let id = match self.by_scope.get(scope) {
            Some(&id) => id,
            None => {
                let id = self.all.len();
                let positions = scope
                    .iter()
                    .map(|&process| Position {
                        process,
                        closed: false,
                        rows: 0,
                    })
                    .collect();
                self.all.push(ScopeClass {
                    positions,
                    subscribers: Vec::new(),
                });
                self.by_scope.insert(scope.to_vec(), id);
                self.ready.push(id);
                id
            }
        };
        let class = &mut self.all[id];
        class.subscribers.push(slot);
        if routed_count(&class.positions) == 0 {
            return Vec::new();
        }
        class.replay(view)
    }

    /// Compacts resolved and unregistered sessions out of the subscriber
    /// lists and drops every class left without one; returns the entries
    /// left.
    fn sweep(&mut self) -> u64 {
        let mut total = 0u64;
        let mut kept = 0;
        let mut moved = Vec::with_capacity(self.all.len());
        self.all.retain_mut(|class| {
            class
                .subscribers
                .retain(|s| s.is_live() && !s.is_resolved());
            total += class.subscribers.len() as u64;
            let keep = !class.subscribers.is_empty();
            moved.push(keep.then_some(kept));
            kept += usize::from(keep);
            keep
        });
        let renumber = |id: &mut usize| moved[*id].map(|new| *id = new).is_some();
        self.by_scope.retain(|_, id| renumber(id));
        for list in self.waiting.iter_mut().chain([&mut self.ready]) {
            list.retain_mut(|id| renumber(id));
        }
        total
    }

    /// Wakes the classes waiting on processes with new input, then routes
    /// every ready class as far as its own scope allows.
    fn route(&mut self, streams: &mut Streams, view: &StoreView<'_>) {
        for (p, woken) in streams.woken.iter_mut().enumerate() {
            if std::mem::take(woken) {
                self.ready.append(&mut self.waiting[p]);
            }
        }
        // In id order, which is registration order: consecutive classes'
        // sessions were allocated together.
        self.ready.sort_unstable();
        for id in self.ready.drain(..) {
            let class = &mut self.all[id];
            let available = |_, p: usize| (streams.rows[p], streams.closed[p]);
            let start = self.fresh.len();
            let fresh = &mut self.fresh;
            if let Some(p) = merge(&mut class.positions, view, available, true, fresh) {
                self.waiting[p].push(id);
            }
            if self.fresh.len() > start {
                self.routed.push((id, start..self.fresh.len()));
            }
        }
    }
}

/// Verdict and paper-unit metrics of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Final verdict, or `None` while the stream is still open.
    pub verdict: Option<SessionVerdict>,
    /// Metrics so far (frozen once resolved).
    pub metrics: DetectionMetrics,
}

/// What a fan-out pass reads: the store and the scope classes, shared
/// with the pool's pump workers through an [`Arc`] (the workers outlive
/// any one pump call).
#[derive(Debug)]
struct Fanout {
    store: SharedStore,
    /// Only written under the pump lock, which freezes the classes for a
    /// whole pass.
    classes: RwLock<Classes>,
}

impl Fanout {
    /// Subscriber-list entries the fresh entries fan out to — the work
    /// the running pass does.
    fn deliveries(&self) -> usize {
        let classes = self.classes.read().expect("engine poisoned");
        classes
            .routed
            .iter()
            .map(|(id, entries)| entries.len() * classes.all[*id].subscribers.len())
            .sum()
    }

    /// Delivers the routed classes' fresh entries to sessions `first`,
    /// `first + step`, `first + 2·step`, … of the pass — the routed
    /// classes' subscriber lists laid end to end — one session at a time.
    /// Striding over the whole pass, not each list, spreads many small
    /// classes across the workers too. A session has one entry, so it is
    /// served by one worker and sees its class's entries in routed order,
    /// which is all the bit-identity invariant needs. Returns resolutions
    /// + this worker's tally.
    ///
    /// Takes its own read guards: a caller waiting on pool workers must
    /// hold no store guard, or an ingest queued for the write lock would
    /// block the workers' reads behind it.
    fn deliver_part(
        &self,
        first: usize,
        step: usize,
    ) -> (Vec<(PredicateId, SessionVerdict)>, PumpTally) {
        let classes = self.classes.read().expect("engine poisoned");
        let mut out = Vec::new();
        let mut tally = PumpTally::default();
        if classes.routed.is_empty() {
            return (out, tally);
        }
        let view = self.store.read();
        // Sessions of the classes before this one in the pass.
        let mut before = 0;
        for (id, entries) in &classes.routed {
            let class = &classes.all[*id];
            let entries = &classes.fresh[entries.clone()];
            let skip = (first + step - before % step) % step;
            for slot in class.subscribers.iter().skip(skip).step_by(step) {
                if let Some(v) = deliver(slot, entries, &view, &mut tally) {
                    out.push((slot.id, v));
                }
            }
            before += class.subscribers.len();
        }
        (out, tally)
    }

    /// Marks the pass's fresh entries delivered.
    fn mark_delivered(&self) {
        let mut classes = self.classes.write().expect("engine poisoned");
        classes.fresh.clear();
        classes.routed.clear();
    }
}

/// Delivers routed `entries`, in order, to one session until it
/// resolves; returns its verdict iff these deliveries resolved it.
fn deliver(
    slot: &SessionSlot,
    entries: &[Routed],
    view: &StoreView<'_>,
    tally: &mut PumpTally,
) -> Option<SessionVerdict> {
    // Fast path: resolved or unregistered sessions are skipped on atomic
    // loads alone — their state mutex is never locked again.
    if slot.is_resolved() || !slot.is_live() {
        return None;
    }
    let mut state = slot.state.lock().expect("engine poisoned");
    for &Routed { pos, close } in entries {
        tally.routed_events += 1;
        let pos = pos as usize;
        let verdict = if close {
            state.on_close(pos, view)
        } else {
            state.on_snapshot(pos, view)
        };
        if let Some(v) = verdict {
            slot.mark_resolved();
            tally.resolved_sessions += 1;
            if matches!(v, SessionVerdict::Detected(_)) {
                tally.detections += 1;
            }
            return Some(v);
        }
    }
    None
}

/// The shared multi-tenant detection engine.
#[derive(Debug)]
pub struct MultiEngine {
    n: usize,
    fanout: Arc<Fanout>,
    streams: Mutex<Streams>,
    registry: Registry,
    /// Serializes fan-out and (un)registration.
    pump_lock: Mutex<()>,
    counters: EngineCounters,
}

impl MultiEngine {
    /// An empty engine over `n ≥ 1` application processes.
    pub fn new(n: usize) -> Self {
        MultiEngine {
            n,
            fanout: Arc::new(Fanout {
                store: SharedStore::new(n),
                classes: RwLock::new(Classes::new(n)),
            }),
            streams: Mutex::new(Streams::new(n)),
            registry: Registry::new(),
            pump_lock: Mutex::new(()),
            counters: EngineCounters::default(),
        }
    }

    /// Number of application processes.
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// The shared snapshot store (bytes stored once, whatever the tenant
    /// count).
    pub fn store(&self) -> &SharedStore {
        &self.fanout.store
    }

    /// Registers predicate `id` over `wcp`'s scope. The new session first
    /// replays everything its scope class has routed, so its verdict and
    /// metrics are identical to having registered before the first event;
    /// if that replay already resolves it, the verdict is returned. A
    /// scope with no class yet gets a fresh one, which routes from the
    /// store origin at the next pump.
    pub fn register(
        &self,
        id: PredicateId,
        wcp: &Wcp,
    ) -> Result<Option<SessionVerdict>, RegisterError> {
        check_scope(self.n, wcp)?;
        let _pump = self.pump_lock.lock().expect("engine poisoned");
        let slot = SessionSlot::new(id, wcp.scope());
        self.registry
            .insert(Arc::clone(&slot))
            .map_err(|()| RegisterError::Duplicate(id))?;
        let mut classes = self.fanout.classes.write().expect("engine poisoned");
        let view = self.fanout.store.read();
        // Outside a pump, everything a class routed has been delivered.
        // A session its replay resolves is a dead entry from the start,
        // swept like any other.
        let replay = classes.join(wcp.scope(), Arc::clone(&slot), &view);
        self.counters.total_subs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .sessions_active
            .fetch_add(1, Ordering::Relaxed);
        self.counters.unresolved.fetch_add(1, Ordering::Relaxed);
        let mut tally = PumpTally::default();
        let resolved = deliver(&slot, &replay, &view, &mut tally);
        self.fold(tally);
        Ok(resolved)
    }

    /// Unregisters `id`, dropping its session state. Returns `false` if
    /// the id was not registered. `O(1)`: the slot is only marked dead
    /// here; its subscriber-list entry is reclaimed by a later pump's
    /// sweep (fan-out skips dead slots on an atomic load meanwhile).
    pub fn unregister(&self, id: PredicateId) -> bool {
        let _pump = self.pump_lock.lock().expect("engine poisoned");
        let Some(slot) = self.registry.remove(id) else {
            return false;
        };
        slot.live.store(false, Ordering::Release);
        self.counters
            .sessions_active
            .fetch_sub(1, Ordering::Relaxed);
        if !slot.is_resolved() {
            self.counters.unresolved.fetch_sub(1, Ordering::Relaxed);
            // Resolved slots already counted their entry dead when the
            // verdict landed (or never entered the lists at all).
            self.counters.dead_subs.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Ingests the interval-`interval` snapshot of `p` (full-width clock).
    /// Per-process calls must arrive in increasing interval order — the
    /// FIFO channel discipline the paper's Figure 2 assumes.
    ///
    /// # Panics
    ///
    /// Panics on any input [`try_ingest`](Self::try_ingest) refuses.
    pub fn ingest(&self, p: ProcessId, interval: u64, clock: &[u64]) {
        if let Err(e) = self.try_ingest(p, interval, clock) {
            panic!("{e}");
        }
    }

    /// [`ingest`](Self::ingest) for input from outside the program: a
    /// snapshot that fails the ingest validation is refused with its
    /// reason and changes nothing.
    pub fn try_ingest(
        &self,
        p: ProcessId,
        interval: u64,
        clock: &[u64],
    ) -> Result<(), IngestError> {
        let mut streams = self.streams.lock().expect("engine poisoned");
        streams.check(p, interval, clock)?;
        streams.last[p.index()] = interval;
        streams.rows[p.index()] += 1;
        streams.woken[p.index()] = true;
        self.fanout.store.append(p, clock);
        Ok(())
    }

    /// Declares `p`'s stream finished (end of trace).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn close(&self, p: ProcessId) {
        if let Err(e) = self.try_close(p) {
            panic!("{e}");
        }
    }

    /// [`close`](Self::close) for input from outside the program: an
    /// out-of-range process is refused. Closing twice is harmless.
    pub fn try_close(&self, p: ProcessId) -> Result<(), IngestError> {
        let mut streams = self.streams.lock().expect("engine poisoned");
        if p.index() >= self.n {
            return Err(IngestError::ProcessOutOfRange {
                process: p,
                n: self.n,
            });
        }
        streams.closed[p.index()] = true;
        streams.woken[p.index()] = true;
        Ok(())
    }

    /// If enough dead (resolved or unregistered) entries accumulated,
    /// compacts them out of the subscriber lists and drops every class
    /// left without a session; then routes the classes that are new or
    /// whose waited-on process had input since the last pump. Called at
    /// pump start under the pump lock. The sweep is threshold-triggered
    /// (≥ a quarter of all entries) rather than per-pump: the service
    /// actor pumps after every message, and an unconditional sweep would
    /// rescan every list per event.
    fn sweep_and_route(&self) {
        let mut classes = self.fanout.classes.write().expect("engine poisoned");
        let dead = self.counters.dead_subs.load(Ordering::Relaxed);
        if dead > 0 && dead * 4 >= self.counters.total_subs.load(Ordering::Relaxed) {
            let total = classes.sweep();
            self.counters.total_subs.store(total, Ordering::Relaxed);
            self.counters.dead_subs.store(0, Ordering::Relaxed);
        }
        let mut streams = self.streams.lock().expect("engine poisoned");
        classes.route(&mut streams, &self.fanout.store.read());
    }

    /// Folds one worker's tally into the shared counters before the pump
    /// returns, so `all_resolved` and `stats` are exact at pump boundaries.
    fn fold(&self, tally: PumpTally) {
        self.counters
            .routed_events
            .fetch_add(tally.routed_events, Ordering::Relaxed);
        self.counters
            .detections
            .fetch_add(tally.detections, Ordering::Relaxed);
        self.counters
            .unresolved
            .fetch_sub(tally.resolved_sessions, Ordering::Relaxed);
        self.counters
            .dead_subs
            .fetch_add(tally.resolved_sessions, Ordering::Relaxed);
    }

    /// Routes everything routable and fans it out to every session,
    /// serially, in canonical order. Returns the sessions that resolved
    /// during this pump, in resolution order.
    pub fn pump(&self) -> Vec<(PredicateId, SessionVerdict)> {
        let _pump = self.pump_lock.lock().expect("engine poisoned");
        self.sweep_and_route();
        // Registration and routing hold the pump lock, so the classes are
        // frozen for the whole pass.
        let (resolved, tally) = self.fanout.deliver_part(0, 1);
        self.fold(tally);
        self.fanout.mark_delivered();
        resolved
    }

    /// [`pump`](Self::pump) with the pass's sessions partitioned across
    /// `threads` pool workers: worker `w` serves every `threads`-th
    /// session of the routed classes, so total work equals the serial
    /// pump's. Each session still sees its events in canonical order from
    /// a single worker, so verdicts, metrics and counter totals are
    /// bit-identical to the serial pump; only the resolution order
    /// differs, so the result is sorted by id. A pump with fewer than
    /// `DELIVERY_GRAIN` deliveries per worker runs on the calling thread.
    pub fn pump_parallel(&self, threads: usize) -> Vec<(PredicateId, SessionVerdict)> {
        let _pump = self.pump_lock.lock().expect("engine poisoned");
        self.sweep_and_route();
        let threads = par::width(threads, self.fanout.deliveries(), DELIVERY_GRAIN);
        let fanout = Arc::clone(&self.fanout);
        let parts = scoped_workers(threads, move |w| fanout.deliver_part(w, threads));
        let mut resolved = Vec::new();
        for (out, tally) in parts {
            resolved.extend(out);
            self.fold(tally);
        }
        resolved.sort_by_key(|(id, _)| *id);
        self.fanout.mark_delivered();
        resolved
    }

    /// Whether every registered session has a final verdict.
    pub fn all_resolved(&self) -> bool {
        self.counters.unresolved.load(Ordering::Relaxed) == 0
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.registry.len()
    }

    /// Verdict + metrics of session `id`, if registered.
    pub fn report(&self, id: PredicateId) -> Option<SessionReport> {
        let slot = self.registry.get(id)?;
        let state = slot.state.lock().expect("engine poisoned");
        Some(SessionReport {
            verdict: state.verdict().cloned(),
            metrics: state.metrics(),
        })
    }

    /// Every session's report, sorted by id.
    pub fn reports(&self) -> Vec<(PredicateId, SessionReport)> {
        self.registry
            .all()
            .into_iter()
            .map(|slot| {
                let state = slot.state.lock().expect("engine poisoned");
                (
                    slot.id,
                    SessionReport {
                        verdict: state.verdict().cloned(),
                        metrics: state.metrics(),
                    },
                )
            })
            .collect()
    }

    /// Current counter values.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            sessions_active: self.counters.sessions_active.load(Ordering::Relaxed),
            routed_events: self.counters.routed_events.load(Ordering::Relaxed),
            detections: self.counters.detections.load(Ordering::Relaxed),
        }
    }

    /// Entries routed so far by the busiest scope class — the longest
    /// class log, and the most any one late registration replays.
    pub fn routed_log_len(&self) -> usize {
        let classes = self.fanout.classes.read().expect("engine poisoned");
        classes
            .all
            .iter()
            .map(|c| routed_count(&c.positions))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;
    use wcp_trace::Wcp;

    /// The resolved fast-path: once a session has its verdict, subsequent
    /// pumps (serial and parallel) must never lock its state mutex again.
    /// The test *holds* the resolved session's mutex while pumping from
    /// another thread; a regression deadlocks that thread and trips the
    /// timeout instead of hanging the suite.
    #[test]
    fn resolved_sessions_mutex_is_never_locked_by_later_pumps() {
        let engine = Arc::new(MultiEngine::new(2));
        // Padding sessions that never resolve (p1's clock always claims
        // to be ahead of p0, so scope position 0 is eliminated every
        // round) — they keep the dead fraction under the sweep threshold,
        // so the resolved slot genuinely stays in the subscriber lists.
        for i in 0..8u64 {
            engine
                .register(PredicateId::new(i), &Wcp::over_first(2))
                .unwrap();
        }
        let id = PredicateId::new(100);
        engine.register(id, &Wcp::over_first(1)).unwrap();
        engine.ingest(ProcessId::new(0), 1, &[1, 0]);
        engine.ingest(ProcessId::new(1), 1, &[6, 1]);
        let resolved = engine.pump();
        assert_eq!(resolved.len(), 1, "only the singleton scope resolves");
        assert_eq!(resolved[0].0, id);

        let slot = engine.registry.get(id).expect("registered");
        let guard = slot.state.lock().expect("state poisoned");
        let (tx, rx) = mpsc::channel();
        let pumper = Arc::clone(&engine);
        std::thread::spawn(move || {
            pumper.ingest(ProcessId::new(0), 2, &[2, 0]);
            pumper.ingest(ProcessId::new(1), 2, &[7, 2]);
            pumper.pump();
            pumper.ingest(ProcessId::new(0), 3, &[3, 0]);
            pumper.ingest(ProcessId::new(1), 3, &[8, 3]);
            pumper.pump_parallel(4);
            tx.send(()).expect("test receiver gone");
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("pump tried to lock a resolved session's state mutex");
        drop(guard);
    }

    /// A class waits only for its own scope: process 2 stays open and
    /// silent, yet the `{0, 1}` session resolves in the pump right after
    /// its own snapshots — on both pumps — while the `{0, 1, 2}` session
    /// waits. (Process 0's second snapshot is what lets `(1, p1)` route:
    /// no smaller key can follow it.)
    #[test]
    fn a_class_routes_without_waiting_for_processes_outside_its_scope() {
        for parallel in [false, true] {
            let engine = MultiEngine::new(3);
            let pair = PredicateId::new(1);
            let all = PredicateId::new(2);
            engine.register(pair, &Wcp::over_first(2)).unwrap();
            engine.register(all, &Wcp::over_first(3)).unwrap();
            engine.ingest(ProcessId::new(0), 1, &[1, 0, 0]);
            engine.ingest(ProcessId::new(1), 1, &[0, 1, 0]);
            engine.ingest(ProcessId::new(0), 2, &[2, 0, 0]);
            let resolved = if parallel {
                engine.pump_parallel(2)
            } else {
                engine.pump()
            };
            assert_eq!(
                resolved,
                vec![(pair, SessionVerdict::Detected(vec![1, 1]))],
                "parallel {parallel}"
            );
            let waiting = engine.report(all).unwrap();
            assert_eq!(waiting.verdict, None, "process 2 may still send");
            assert_eq!(engine.stats().routed_events, 2, "parallel {parallel}");
        }
    }

    /// A pump routes only what input can have unblocked: a class waits on
    /// an open process that stopped its merge — the one whose next row
    /// sorts last — and a process's snapshot wakes only the classes
    /// waiting on it.
    #[test]
    fn classes_wait_on_the_process_that_stopped_their_merge() {
        let engine = MultiEngine::new(3);
        let scopes: [&[u32]; 3] = [&[0], &[1], &[0, 1, 2]];
        for (id, scope) in scopes.iter().enumerate() {
            let wcp = Wcp::over(scope.iter().map(|&p| ProcessId::new(p)));
            engine.register(PredicateId::new(id as u64), &wcp).unwrap();
        }
        let waiting = || {
            let classes = engine.fanout.classes.read().unwrap();
            classes.waiting.iter().map(Vec::len).collect::<Vec<_>>()
        };
        engine.pump();
        assert_eq!(waiting(), [1, 1, 1], "{{0,1,2}} waits on 2");
        engine.ingest(ProcessId::new(1), 1, &[0, 1, 0]);
        engine.pump();
        assert_eq!(engine.stats().routed_events, 1, "only {{1}} was woken");
        assert_eq!(waiting(), [1, 1, 1]);
        engine.ingest(ProcessId::new(0), 1, &[1, 0, 0]);
        engine.pump();
        assert_eq!(engine.stats().routed_events, 2, "only {{0}} was woken");
        // {1}'s session resolved, so this pump's sweep dropped its class.
        assert_eq!(waiting(), [1, 0, 1]);
        engine.ingest(ProcessId::new(2), 1, &[0, 0, 1]);
        engine.pump();
        assert_eq!(engine.stats().routed_events, 3, "{{0,1,2}} routed (1, 0)");
        // {0}'s class went at this pump's sweep; {0,1,2} waits on 0 again.
        assert_eq!(waiting(), [1, 0, 0]);
    }

    #[test]
    fn sweep_reclaims_unregistered_and_resolved_subscriber_entries() {
        let engine = MultiEngine::new(1);
        for i in 0..100u64 {
            engine
                .register(PredicateId::new(i), &Wcp::over_first(1))
                .unwrap();
        }
        assert_eq!(engine.counters.total_subs.load(Ordering::Relaxed), 100);
        for i in 0..60u64 {
            assert!(engine.unregister(PredicateId::new(i)));
        }
        assert_eq!(engine.counters.dead_subs.load(Ordering::Relaxed), 60);
        // 60/100 dead crosses the quarter threshold: pump sweeps first.
        engine.ingest(ProcessId::new(0), 1, &[1]);
        let resolved = engine.pump();
        assert_eq!(resolved.len(), 40, "survivors resolve on the snapshot");
        assert_eq!(engine.counters.total_subs.load(Ordering::Relaxed), 40);
        assert_eq!(engine.counters.dead_subs.load(Ordering::Relaxed), 40);
        // All remaining entries are dead now; the next pump drains them
        // and drops the class they leave empty.
        engine.pump();
        assert_eq!(engine.counters.total_subs.load(Ordering::Relaxed), 0);
        assert_eq!(engine.counters.dead_subs.load(Ordering::Relaxed), 0);
        assert!(engine.fanout.classes.read().unwrap().all.is_empty());
        assert!(engine.all_resolved());
        assert_eq!(engine.stats().detections, 40);
    }
}
