//! Session lifecycle and the thread-local recording hot path.
//!
//! One trace *session* is active at a time (BFS runs are serial within a
//! process). [`start`] arms recording, worker threads append events to
//! thread-local ring buffers — the hot path is one relaxed atomic load, a
//! monotonic clock read, and a `Vec` push; no `lock`-prefixed instruction,
//! which matters in a codebase whose whole thesis is that `lock xadd` is
//! the scaling bottleneck — and [`finish`] collects every buffer into a
//! [`Trace`].
//!
//! Buffers reach the session either by an explicit [`flush_thread`] (the
//! algorithms call it before their scoped worker returns) or by the TLS
//! destructor when a thread dies. Sessions are numbered with an epoch; a
//! buffer left over from an earlier session is discarded lazily, so stale
//! threads can never pollute a later trace.
//!
//! With the `capture` feature disabled every function here is an empty
//! `#[inline]` stub and the instrumented call sites in `mcbfs-sync` /
//! `mcbfs-core` compile to nothing.

use crate::event::{EventKind, TraceEvent};

/// Identity of one traced run, written into every export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Free-form label (e.g. the graph description).
    pub label: String,
    /// Algorithm name, e.g. `"hybrid:auto"` or `"single-socket"`.
    pub algorithm: String,
    /// `"native"` or `"model"`.
    pub mode: String,
    /// Worker threads the run was configured with.
    pub threads: usize,
}

/// Per-level facts derived from the run's [`WorkProfile`]-equivalent,
/// attached to the session after the traversal so exporters can tag level
/// spans with direction, frontier size, and edges scanned.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelMeta {
    /// Level index (0 = root level).
    pub level: u32,
    /// `"td"` or `"bu"`.
    pub direction: String,
    /// Vertices in the frontier processed by this level.
    pub frontier: u64,
    /// Adjacency entries examined during this level.
    pub edges_scanned: u64,
}

/// Every event one thread recorded, plus how many were dropped when its
/// bounded buffer filled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Worker thread id ([`UNTAGGED_BASE`]`+ k` for unregistered threads).
    pub tid: usize,
    /// Events in start-time order.
    pub events: Vec<TraceEvent>,
    /// Events lost to buffer overflow.
    pub dropped: u64,
}

/// The complete result of one traced run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Run identity.
    pub meta: RunMeta,
    /// Per-level facts, indexed by level.
    pub levels: Vec<LevelMeta>,
    /// Per-thread event streams, sorted by tid.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Total [`EventKind::Level`] spans across all threads — the quantity
    /// the native-vs-model parity test compares.
    pub fn level_span_count(&self) -> usize {
        self.threads
            .iter()
            .map(|t| {
                t.events
                    .iter()
                    .filter(|e| e.kind == EventKind::Level)
                    .count()
            })
            .sum()
    }

    /// Total events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events dropped to buffer overflow across all threads.
    pub fn dropped_events(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// Thread ids at or above this value were auto-assigned to threads that
/// recorded events without calling [`register_worker`].
pub const UNTAGGED_BASE: usize = 1 << 20;

/// Measures one span with two clock reads. `Copy` so guards can hold one
/// and finish it from `Drop`. Constructed disabled when no session is
/// active, making an unfinished timer free.
#[derive(Clone, Copy, Debug)]
pub struct SpanTimer(u64);

const TIMER_OFF: u64 = u64::MAX;

impl SpanTimer {
    /// A timer that will never record.
    pub const DISABLED: SpanTimer = SpanTimer(TIMER_OFF);

    /// Starts timing if a session is active, else returns a dead timer.
    #[inline]
    pub fn start() -> Self {
        #[cfg(feature = "capture")]
        {
            if imp::enabled() {
                return SpanTimer(imp::now_ns());
            }
        }
        Self::DISABLED
    }

    /// True if this timer will record on [`SpanTimer::finish`].
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.0 != TIMER_OFF
    }

    /// Ends the span and records it under `kind` with payload `arg`.
    #[inline]
    pub fn finish(self, kind: EventKind, arg: u64) {
        #[cfg(feature = "capture")]
        {
            if self.0 != TIMER_OFF && imp::enabled() {
                let now = imp::now_ns();
                imp::record(kind, self.0, now.saturating_sub(self.0), arg);
            }
        }
        #[cfg(not(feature = "capture"))]
        {
            let _ = (kind, arg);
        }
    }
}

/// True while a trace session is active (one relaxed atomic load; callers
/// use it to skip side computations like occupancy sampling).
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "capture")]
    {
        imp::enabled()
    }
    #[cfg(not(feature = "capture"))]
    {
        false
    }
}

/// Nanoseconds since the process trace clock origin (0 when `capture` is
/// compiled out).
#[inline]
pub fn now_ns() -> u64 {
    #[cfg(feature = "capture")]
    {
        imp::now_ns()
    }
    #[cfg(not(feature = "capture"))]
    {
        0
    }
}

/// Opens a new session, arming recording. An unfinished previous session
/// is discarded.
pub fn start(meta: RunMeta) {
    #[cfg(feature = "capture")]
    {
        imp::start(meta)
    }
    #[cfg(not(feature = "capture"))]
    {
        let _ = meta;
    }
}

/// Disarms recording, flushes the calling thread, and returns the
/// collected trace (None if no session was active or `capture` is off).
pub fn finish() -> Option<Trace> {
    #[cfg(feature = "capture")]
    {
        imp::finish()
    }
    #[cfg(not(feature = "capture"))]
    {
        None
    }
}

/// Tags the calling thread's buffer with a worker id. Call at worker entry
/// so events carry the BFS thread id instead of an auto-assigned one.
#[inline]
pub fn register_worker(tid: usize) {
    #[cfg(feature = "capture")]
    {
        imp::register_worker(tid)
    }
    #[cfg(not(feature = "capture"))]
    {
        let _ = tid;
    }
}

/// Deposits the calling thread's buffer into the session. Workers call
/// this before returning; threads that die deposit automatically via the
/// TLS destructor.
pub fn flush_thread() {
    #[cfg(feature = "capture")]
    {
        imp::flush_thread()
    }
}

/// Records an instant event on the calling thread.
#[inline]
pub fn instant(kind: EventKind, arg: u64) {
    #[cfg(feature = "capture")]
    {
        if imp::enabled() {
            imp::record(kind, imp::now_ns(), 0, arg);
        }
    }
    #[cfg(not(feature = "capture"))]
    {
        let _ = (kind, arg);
    }
}

/// Attaches per-level metadata to the active session (no-op otherwise).
pub fn record_level_meta(levels: Vec<LevelMeta>) {
    #[cfg(feature = "capture")]
    {
        imp::record_level_meta(levels)
    }
    #[cfg(not(feature = "capture"))]
    {
        let _ = levels;
    }
}

/// Deposits a pre-built event stream for a (possibly virtual) thread into
/// the active session — the model-mode path synthesizes its timeline
/// and hands it over here so native and model traces flow through one
/// pipeline.
pub fn inject(tid: usize, events: Vec<TraceEvent>) {
    #[cfg(feature = "capture")]
    {
        imp::inject(tid, events)
    }
    #[cfg(not(feature = "capture"))]
    {
        let _ = (tid, events);
    }
}

#[cfg(feature = "capture")]
mod imp {
    use super::{LevelMeta, RunMeta, ThreadTrace, Trace, UNTAGGED_BASE};
    use crate::event::{EventKind, TraceEvent};
    use crate::ring::EventRing;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static EPOCH: AtomicU64 = AtomicU64::new(1);
    static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);
    static NEXT_UNTAGGED: AtomicUsize = AtomicUsize::new(UNTAGGED_BASE);

    struct Active {
        epoch: u64,
        meta: RunMeta,
        levels: Vec<LevelMeta>,
        deposits: Vec<ThreadTrace>,
    }

    struct LocalBuf {
        epoch: u64,
        tid: usize,
        ring: EventRing,
    }

    /// TLS slot whose destructor deposits any live buffer, so worker
    /// threads that die before `finish()` still contribute their events.
    struct LocalSlot(Option<LocalBuf>);

    impl Drop for LocalSlot {
        fn drop(&mut self) {
            if let Some(buf) = self.0.take() {
                deposit(buf);
            }
        }
    }

    thread_local! {
        static LOCAL: RefCell<LocalSlot> = const { RefCell::new(LocalSlot(None)) };
    }

    fn clock() -> &'static Instant {
        static CLOCK: OnceLock<Instant> = OnceLock::new();
        CLOCK.get_or_init(Instant::now)
    }

    #[inline]
    pub fn now_ns() -> u64 {
        clock().elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    fn lock_active() -> MutexGuard<'static, Option<Active>> {
        ACTIVE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn deposit(buf: LocalBuf) {
        let mut guard = lock_active();
        if let Some(active) = guard.as_mut() {
            if active.epoch == buf.epoch {
                let (events, dropped) = buf.ring.into_parts();
                if !events.is_empty() || dropped > 0 {
                    active.deposits.push(ThreadTrace {
                        tid: buf.tid,
                        events,
                        dropped,
                    });
                }
            }
        }
        // Stale epoch or no session: the buffer's session is gone, drop it.
    }

    pub fn start(meta: RunMeta) {
        // Make the clock's origin precede every event timestamp.
        let _ = clock();
        let mut guard = lock_active();
        let epoch = EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
        *guard = Some(Active {
            epoch,
            meta,
            levels: Vec::new(),
            deposits: Vec::new(),
        });
        ENABLED.store(true, Ordering::Release);
    }

    pub fn finish() -> Option<Trace> {
        ENABLED.store(false, Ordering::Release);
        flush_thread();
        let active = lock_active().take()?;
        // Merge multiple deposits from the same tid (a thread may flush
        // and then record again within one session).
        let mut by_tid: BTreeMap<usize, ThreadTrace> = BTreeMap::new();
        for d in active.deposits {
            let entry = by_tid.entry(d.tid).or_insert_with(|| ThreadTrace {
                tid: d.tid,
                events: Vec::new(),
                dropped: 0,
            });
            entry.events.extend(d.events);
            entry.dropped += d.dropped;
        }
        let mut threads: Vec<ThreadTrace> = by_tid.into_values().collect();
        // Normalize timestamps so the trace starts at t=0.
        let origin = threads
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.start_ns))
            .min()
            .unwrap_or(0);
        for t in &mut threads {
            for e in &mut t.events {
                e.start_ns -= origin;
            }
            t.events.sort_by_key(|e| e.start_ns);
        }
        Some(Trace {
            meta: active.meta,
            levels: active.levels,
            threads,
        })
    }

    pub fn register_worker(tid: usize) {
        if !enabled() {
            return;
        }
        let epoch = EPOCH.load(Ordering::Relaxed);
        let _ = LOCAL.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some(old) = slot.0.take() {
                deposit(old);
            }
            slot.0 = Some(LocalBuf {
                epoch,
                tid,
                ring: EventRing::new(),
            });
        });
    }

    pub fn flush_thread() {
        let _ = LOCAL.try_with(|slot| {
            if let Some(buf) = slot.borrow_mut().0.take() {
                deposit(buf);
            }
        });
    }

    /// The hot path: append to this thread's buffer, creating or replacing
    /// it if absent or left over from an earlier session.
    #[inline]
    pub fn record(kind: EventKind, start_ns: u64, dur_ns: u64, arg: u64) {
        let ev = TraceEvent {
            start_ns,
            dur_ns,
            kind,
            arg,
        };
        let _ = LOCAL.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let epoch = EPOCH.load(Ordering::Relaxed);
            match slot.0.as_mut() {
                Some(buf) if buf.epoch == epoch => buf.ring.push(ev),
                _ => {
                    let tid = NEXT_UNTAGGED.fetch_add(1, Ordering::Relaxed);
                    let mut ring = EventRing::new();
                    ring.push(ev);
                    slot.0 = Some(LocalBuf { epoch, tid, ring });
                }
            }
        });
    }

    pub fn record_level_meta(levels: Vec<LevelMeta>) {
        if let Some(active) = lock_active().as_mut() {
            active.levels = levels;
        }
    }

    pub fn inject(tid: usize, events: Vec<TraceEvent>) {
        if let Some(active) = lock_active().as_mut() {
            active.deposits.push(ThreadTrace {
                tid,
                events,
                dropped: 0,
            });
        }
    }
}

#[cfg(all(test, feature = "capture"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Sessions are process-global; serialize every test that opens one.
    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    fn meta() -> RunMeta {
        RunMeta {
            label: "test".into(),
            algorithm: "seq".into(),
            mode: "native".into(),
            threads: 1,
        }
    }

    #[test]
    fn lifecycle_records_and_collects() {
        let _g = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        assert!(finish().is_none());

        start(meta());
        assert!(enabled());
        register_worker(0);
        let t = SpanTimer::start();
        assert!(t.is_armed());
        t.finish(EventKind::Level, 3);
        instant(EventKind::DirectionSwitch, 1);

        let trace = finish().expect("session yields a trace");
        assert!(!enabled());
        assert_eq!(trace.meta.algorithm, "seq");
        assert_eq!(trace.threads.len(), 1);
        assert_eq!(trace.threads[0].tid, 0);
        assert_eq!(trace.event_count(), 2);
        assert_eq!(trace.level_span_count(), 1);
        assert_eq!(trace.threads[0].events[0].start_ns, 0, "normalized origin");
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _g = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // No session: timers are dead, instants vanish, flush is harmless.
        let t = SpanTimer::start();
        assert!(!t.is_armed());
        t.finish(EventKind::BarrierWait, 0);
        instant(EventKind::ChannelStall, 9);
        flush_thread();
        register_worker(5);
        assert!(finish().is_none());
    }

    #[test]
    fn stale_buffers_do_not_leak_across_sessions() {
        let _g = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        start(meta());
        register_worker(0);
        let t = SpanTimer::start();
        t.finish(EventKind::Level, 0);
        // Abandon session A without flushing this thread, then open B: the
        // epoch check must discard A's buffered events.
        start(RunMeta {
            mode: "model".into(),
            ..meta()
        });
        register_worker(0);
        let t = SpanTimer::start();
        t.finish(EventKind::Level, 0);
        let t = SpanTimer::start();
        t.finish(EventKind::Level, 1);
        let trace = finish().unwrap();
        assert_eq!(trace.meta.mode, "model");
        assert_eq!(trace.level_span_count(), 2, "session A's span discarded");
    }

    #[test]
    fn unregistered_threads_get_untagged_ids_and_injection_merges() {
        let _g = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        start(meta());
        let handle = std::thread::spawn(|| {
            // Never registers: events land under an auto-assigned tid and
            // deposit via the TLS destructor when this thread dies.
            let t = SpanTimer::start();
            t.finish(EventKind::LockWait, 0);
        });
        handle.join().unwrap();
        inject(
            7,
            vec![TraceEvent {
                start_ns: 10,
                dur_ns: 5,
                kind: EventKind::Level,
                arg: 0,
            }],
        );
        let trace = finish().unwrap();
        assert_eq!(trace.threads.len(), 2);
        assert_eq!(trace.threads[0].tid, 7, "threads sorted by tid");
        assert!(trace.threads[1].tid >= UNTAGGED_BASE);
        assert_eq!(trace.level_span_count(), 1);
    }
}
