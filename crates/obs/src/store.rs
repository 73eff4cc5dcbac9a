//! Causal tracing: the one span model (DESIGN.md §10, §17).
//!
//! A [`TraceContext`] (trace id + parent span id) is minted at entry
//! points, carried across thread boundaries (on `DcpItem`s, in the
//! flusher's dirty queues), and joined back into a single span tree per
//! operation inside a bounded, cluster-wide [`TraceStore`]. The same tree
//! answers "where did this slow operation spend its time?"
//! ([`TraceStore::slow_traces`]) and feeds N1QL `phaseTimes` ([`capture`]).
//!
//! Design points:
//!
//! - **A thread-local buffer is the fast path.** The outermost guard on a
//!   thread — a minted root, or the replication pump's
//!   [`TraceStore::child_of`] span — owns a span buffer. Every span opened
//!   beneath it on that thread, including the free function [`span`],
//!   appends there, and the owner hands the whole buffer to the trace's
//!   slot under one lock when it drops. [`span`] on a thread with no guard
//!   is a no-op that never allocates.
//! - **Head sampling decides publication, nothing else.** A deterministic
//!   1-in-N counter (`CBS_TRACE_SAMPLE`, default every operation) picks the
//!   traces that reach the store. An unsampled operation (or one whose
//!   slot is still busy) keeps its local buffer — its spans still feed
//!   `phaseTimes` — but is never published and carries no context across
//!   threads.
//! - **Bounded everywhere.** Traces live in a fixed slot array while
//!   collecting spans (slot = `trace_id % slots`); a trace holds at most
//!   [`MAX_SPANS_PER_TRACE`] spans (extras are counted, not stored);
//!   finished traces are retired into a fixed-capacity completed ring.
//! - **Slow/failed traces always retained.** Ring eviction drops the
//!   oldest *unremarkable* trace first; traces that failed or ran past
//!   the slow threshold (`CBS_SLOW_OP_MS`, default 100 ms) survive until
//!   only retained traces remain.
//! - **Late spans are welcome.** A trace's root can finish before the
//!   replication pump records its delivery span (the replica ack races
//!   the client's observe loop). Finished traces therefore stay in their
//!   slot, still accepting spans, until a new trace needs the slot.
//!
//! Wall-clock reads (`Instant::now`) happen only inside the guards here,
//! so instrumented crates (notably `cbs-cluster`, which bans ad-hoc clock
//! reads) never touch the clock themselves.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::metrics::Counter;
use crate::registry::Registry;

/// Trace slots collecting in-flight (and recently finished) traces.
const TRACE_SLOTS: usize = 64;

/// Completed traces retained for `system:completed_traces` / export.
const COMPLETED_RING_CAP: usize = 128;

/// Hard per-trace span cap: spans past this are counted as dropped.
pub const MAX_SPANS_PER_TRACE: usize = 192;

/// Default slow threshold: traces whose root runs at least this long are
/// retained and listed by [`TraceStore::slow_traces`].
const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(100);

/// The slow threshold a new [`TraceStore`] (and the N1QL request log)
/// starts with: `CBS_SLOW_OP_MS` (milliseconds) when set and parseable,
/// else [`DEFAULT_SLOW_THRESHOLD`]. Read per call so tests can vary the
/// environment; construction is far off any hot path.
pub fn default_slow_threshold() -> Duration {
    std::env::var("CBS_SLOW_OP_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_SLOW_THRESHOLD)
}

/// The causal context one operation carries across thread and service
/// boundaries: which trace it belongs to and which span is its parent.
/// `Copy` on purpose — attaching it to a `DcpItem` or a dirty-queue entry
/// is two `u64` stores, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this operation belongs to (nonzero).
    pub trace_id: u64,
    /// The span to parent new child spans under (nonzero).
    pub span_id: u64,
}

/// The span buffer owned by the outermost guard on a thread.
struct Frame {
    /// Where the buffer is published when its owner drops; `None` for a
    /// local-only trace (unsampled, busy slot, or no store at all).
    store: Option<Arc<TraceStore>>,
    /// The published trace's id (0 when local-only).
    trace_id: u64,
    /// The owner's start: buffered `start_ns` offsets are relative to it.
    base: Instant,
    /// Index of the innermost open span — the parent of the next one.
    cur: usize,
    /// Spans in open order (pre-order); `spans[0]` is the owner's.
    spans: Vec<SpanRec>,
    /// Spans refused past [`MAX_SPANS_PER_TRACE`].
    dropped: u32,
    failed: bool,
    /// Span ids of a local-only trace (published ones draw store ids).
    next_local: u64,
}

impl Frame {
    fn next_id(&mut self) -> u64 {
        match &self.store {
            Some(store) => store.next_span_id(),
            None => {
                self.next_local += 1;
                self.next_local
            }
        }
    }

    /// Open a span under the innermost open one (or under `parent`),
    /// inheriting its lane unless `lane` is given.
    fn open(
        &mut self,
        name: &'static str,
        lane: Option<&Arc<str>>,
        parent: Option<u64>,
    ) -> SpanGuard {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            self.dropped += 1;
            return SpanGuard::INERT;
        }
        let up = &self.spans[self.cur];
        let parent = parent.unwrap_or(up.id);
        let lane = Arc::clone(lane.unwrap_or(&up.lane));
        let id = self.next_id();
        let start_ns = self.base.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec { id, parent, name, lane, start_ns, dur_ns: 0 });
        let up = std::mem::replace(&mut self.cur, self.spans.len() - 1);
        SpanGuard::open(Open { index: self.cur, up, owner: None })
    }

    /// The context of the span at `index`, when this trace is published.
    fn ctx_of(&self, index: usize) -> Option<TraceContext> {
        self.store.as_ref()?;
        Some(TraceContext { trace_id: self.trace_id, span_id: self.spans.get(index)?.id })
    }
}

/// Per-thread tracing state: the current frame plus recycled buffer
/// storage, so steady-state tracing does not allocate.
struct Local {
    frame: Option<Frame>,
    spare: Vec<SpanRec>,
}

thread_local! {
    static LOCAL: RefCell<Local> =
        const { RefCell::new(Local { frame: None, spare: Vec::new() }) };
}

/// The ambient [`TraceContext`] of the calling thread, if a guard of a
/// published trace is live on it.
pub fn current_context() -> Option<TraceContext> {
    LOCAL.with(|l| l.borrow().frame.as_ref().and_then(|f| f.ctx_of(f.cur)))
}

/// Open a child span of the thread's innermost open span, on its lane.
/// No-op (and allocation-free) when no guard is live on the thread. Close
/// it by dropping the guard.
pub fn span(name: &'static str) -> SpanGuard {
    join(name, None, None).unwrap_or(SpanGuard::INERT)
}

/// Open a span in the thread's frame if there is one.
fn join(name: &'static str, lane: Option<&Arc<str>>, parent: Option<u64>) -> Option<SpanGuard> {
    LOCAL.with(|l| l.borrow_mut().frame.as_mut().map(|f| f.open(name, lane, parent)))
}

/// Open a span that owns a fresh frame on this thread. A frame of another
/// trace already on the thread is set aside and restored on drop.
fn own(
    store: Option<Arc<TraceStore>>,
    trace_id: u64,
    parent: u64,
    name: &'static str,
    lane: &Arc<str>,
    base: Instant,
    root: bool,
) -> SpanGuard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let spans = std::mem::take(&mut l.spare);
        let mut frame = Frame {
            store,
            trace_id,
            base,
            cur: 0,
            spans,
            dropped: 0,
            failed: false,
            next_local: 0,
        };
        let id = frame.next_id();
        frame.spans.push(SpanRec {
            id,
            parent,
            name,
            lane: Arc::clone(lane),
            start_ns: 0,
            dur_ns: 0,
        });
        let outer = l.frame.replace(frame).map(Box::new);
        SpanGuard::open(Open { index: 0, up: 0, owner: Some(Owner { root, outer }) })
    })
}

/// Collect the spans the calling thread records from now until
/// [`Capture::finish`] — the request's view for `phaseTimes`. Inside a
/// live guard the capture reads that guard's buffer; otherwise it opens a
/// local-only root named `root_name`, which is never published.
pub fn capture(root_name: &'static str) -> Capture {
    match LOCAL.with(|l| l.borrow().frame.as_ref().map(|f| f.spans.len())) {
        Some(from) => Capture { from, root: None },
        None => Capture {
            from: 0,
            root: Some(own(None, 0, 0, root_name, &Arc::from("local"), Instant::now(), true)),
        },
    }
}

/// In-progress span capture started by [`capture`].
#[must_use = "a capture must be finished to yield its spans"]
pub struct Capture {
    from: usize,
    root: Option<SpanGuard>,
}

impl Capture {
    /// Stop capturing and hand `read` the spans recorded since
    /// [`capture`], in open order, with parent links — read in place, so
    /// a per-request rollup copies nothing. An owned root is included,
    /// closed now; a borrowed enclosing guard is not (it is still open).
    pub fn finish<R>(self, read: impl FnOnce(&[SpanRec]) -> R) -> R {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(f) = l.frame.as_mut() else { return read(&[]) };
            if self.root.is_some() {
                f.spans[0].dur_ns = f.base.elapsed().as_nanos() as u64;
            }
            read(f.spans.get(self.from..).unwrap_or(&[]))
        })
    }
}

/// One recorded span: offsets are nanoseconds since the owning trace's
/// start, `parent == 0` marks the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span id (unique within its trace; published traces draw ids that
    /// are unique within the store).
    pub id: u64,
    /// Parent span id, `0` for the root span.
    pub parent: u64,
    /// Span name (`service.component.op`).
    pub name: &'static str,
    /// Where the span ran: `client`, `query`, `txn`, or a node lane
    /// (`n0`, `n1`, …).
    pub lane: Arc<str>,
    /// Start offset from the trace start, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// A trace collecting spans in its slot.
struct ActiveTrace {
    trace_id: u64,
    root_name: &'static str,
    start: Instant,
    spans: Vec<SpanRec>,
    root_done: bool,
    failed: bool,
    total_ns: u64,
    dropped_spans: u32,
}

impl ActiveTrace {
    fn to_completed(&self) -> CompletedTrace {
        CompletedTrace {
            trace_id: self.trace_id,
            root_name: self.root_name,
            total: Duration::from_nanos(self.total_ns),
            spans: self.spans.clone(),
            failed: self.failed,
            dropped_spans: self.dropped_spans,
        }
    }
}

/// A finished trace: the stitched span tree of one end-to-end operation.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The trace id every span shares.
    pub trace_id: u64,
    /// The root span's name (the entry point).
    pub root_name: &'static str,
    /// Root span duration.
    pub total: Duration,
    /// All spans, in recording order (children may precede or follow
    /// their parent — cross-thread spans land when their guard drops).
    pub spans: Vec<SpanRec>,
    /// True if any span in the trace reported failure.
    pub failed: bool,
    /// Spans discarded past [`MAX_SPANS_PER_TRACE`].
    pub dropped_spans: u32,
}

impl CompletedTrace {
    /// Distinct lanes the trace touched, sorted.
    pub fn lanes(&self) -> Vec<Arc<str>> {
        let mut lanes: Vec<Arc<str>> = self.spans.iter().map(|s| Arc::clone(&s.lane)).collect();
        lanes.sort();
        lanes.dedup();
        lanes
    }

    /// Find a span by name (first match).
    pub fn span(&self, name: &str) -> Option<&SpanRec> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Walk parent links from `span` up to the root; returns the chain of
    /// span names root-first, or `None` if a link is broken or cyclic.
    pub fn path_to_root(&self, span: &SpanRec) -> Option<Vec<&'static str>> {
        let mut chain = vec![span.name];
        let mut cur = span;
        for _ in 0..self.spans.len() {
            if cur.parent == 0 {
                chain.reverse();
                return Some(chain);
            }
            cur = self.spans.iter().find(|s| s.id == cur.parent)?;
            chain.push(cur.name);
        }
        None
    }

    /// Render the span tree, indented by causal depth:
    ///
    /// ```text
    /// client.kv.durable                [client]  total 1.2ms
    ///   kv.engine.set                  [n0]      +3µs 12µs
    ///     cluster.replication.deliver  [n1]      +80µs 15µs
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match self.spans.iter().position(|p| p.id == s.parent) {
                Some(p) if s.parent != 0 => children[p].push(i),
                _ => roots.push(i),
            }
        }
        for c in &mut children {
            c.sort_by_key(|&i| self.spans[i].start_ns);
        }
        roots.sort_by_key(|&i| self.spans[i].start_ns);
        let mut stack: Vec<(usize, usize)> = roots.into_iter().rev().map(|i| (i, 0)).collect();
        // The children lists partition the span set, so each span is
        // visited exactly once even if parent links form a cycle.
        while let Some((i, depth)) = stack.pop() {
            let s = &self.spans[i];
            out.push_str(&format!(
                "{:indent$}{:<width$} [{}] +{:.1?} {:.1?}\n",
                "",
                s.name,
                s.lane,
                Duration::from_nanos(s.start_ns),
                Duration::from_nanos(s.dur_ns),
                indent = depth * 2,
                width = 36usize.saturating_sub(depth * 2),
            ));
            for &c in children[i].iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!("  … {} span(s) dropped at the cap\n", self.dropped_spans));
        }
        out
    }
}

/// The cluster-wide causal trace store: bounded slots for in-flight
/// traces, a bounded ring of completed ones, and `obs.trace.*` accounting
/// on its own registry.
pub struct TraceStore {
    slots: Vec<Mutex<Option<ActiveTrace>>>,
    ring: Mutex<std::collections::VecDeque<CompletedTrace>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    sample_tick: AtomicU64,
    sample_every: AtomicU64,
    slow_nanos: AtomicU64,
    registry: Arc<Registry>,
    minted: Arc<Counter>,
    completed: Arc<Counter>,
    unsampled: Arc<Counter>,
    evicted: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl TraceStore {
    /// A fresh store. The head-sampling rate comes from `CBS_TRACE_SAMPLE`
    /// (sample 1 in N mints; default 1 = every operation), the slow
    /// threshold from [`default_slow_threshold`].
    pub fn new() -> Arc<TraceStore> {
        let sample = std::env::var("CBS_TRACE_SAMPLE")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1);
        let registry = Arc::new(Registry::new("obs"));
        Arc::new(TraceStore {
            slots: (0..TRACE_SLOTS).map(|_| Mutex::new(None)).collect(),
            ring: Mutex::new(std::collections::VecDeque::new()),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            sample_tick: AtomicU64::new(0),
            sample_every: AtomicU64::new(sample),
            slow_nanos: AtomicU64::new(
                default_slow_threshold().as_nanos().min(u64::MAX as u128) as u64
            ),
            minted: registry.counter_with_help("obs.trace.minted", "Root traces started"),
            completed: registry
                .counter_with_help("obs.trace.completed", "Traces whose root span finished"),
            unsampled: registry.counter_with_help(
                "obs.trace.unsampled",
                "Entry points not published (head sampling or slot pressure)",
            ),
            evicted: registry.counter_with_help(
                "obs.trace.evicted",
                "Completed traces dropped from the bounded ring",
            ),
            dropped: registry.counter_with_help(
                "obs.trace.dropped_spans",
                "Spans discarded past the per-trace cap or after trace eviction",
            ),
            registry,
        })
    }

    /// The store's `obs.trace.*` accounting registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Sample 1 in `n` minted entry points (1 = trace everything).
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// The slow threshold: traces at least this slow are always retained
    /// in the ring and listed by [`TraceStore::slow_traces`].
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_nanos(self.slow_nanos.load(Ordering::Relaxed))
    }

    /// Set the slow threshold (`Duration::ZERO` makes every trace slow).
    pub fn set_slow_threshold(&self, d: Duration) {
        self.slow_nanos.store(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Start (or join) a trace at an entry point. If the calling thread
    /// already has a live guard — e.g. `upsert` inside `upsert_durable`,
    /// or a N1QL fetch inside a traced request — the new span becomes a
    /// child of it instead of starting a second trace. Otherwise the
    /// guard owns a new root; head sampling or a busy slot make it
    /// local-only (recorded on this thread, never published).
    pub fn mint(self: &Arc<Self>, name: &'static str, lane: &Arc<str>) -> SpanGuard {
        if let Some(joined) = join(name, Some(lane), None) {
            return joined;
        }
        let start = Instant::now();
        match self.claim(name, start) {
            Some(trace_id) => own(Some(Arc::clone(self)), trace_id, 0, name, lane, start, true),
            None => own(None, 0, 0, name, lane, start, true),
        }
    }

    /// Decide whether a new root is published and, if so, claim its slot.
    fn claim(&self, name: &'static str, start: Instant) -> Option<u64> {
        let every = self.sample_every.load(Ordering::Relaxed);
        if !self.sample_tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(every) {
            self.unsampled.inc();
            return None;
        }
        let trace_id = self.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slot = self.slots[trace_id as usize % TRACE_SLOTS].lock();
        match slot.as_ref() {
            Some(t) if !t.root_done => {
                // The slot still belongs to a live trace: spilling it
                // would lose the live trace's late spans, so the new
                // operation goes unpublished instead (bounded memory wins).
                self.unsampled.inc();
                return None;
            }
            Some(t) => {
                let done = t.to_completed();
                self.retire(done);
            }
            None => {}
        }
        *slot = Some(ActiveTrace {
            trace_id,
            root_name: name,
            start,
            spans: Vec::new(),
            root_done: false,
            failed: false,
            total_ns: 0,
            dropped_spans: 0,
        });
        drop(slot);
        self.minted.inc();
        Some(trace_id)
    }

    /// A child span of the calling thread's innermost open span; inert
    /// (and no work at all) when no guard is live on the thread.
    pub fn child(&self, name: &'static str, lane: &Arc<str>) -> SpanGuard {
        join(name, Some(lane), None).unwrap_or(SpanGuard::INERT)
    }

    /// A child span of an explicit carried context — the cross-thread
    /// stitch (replication pump, any hand-off that shipped a
    /// [`TraceContext`] instead of a thread). On a thread already inside
    /// that trace the span joins the thread's buffer; otherwise it owns a
    /// new buffer, published to the trace's slot when it drops.
    pub fn child_of(
        self: &Arc<Self>,
        ctx: TraceContext,
        name: &'static str,
        lane: &Arc<str>,
    ) -> SpanGuard {
        let same_trace = LOCAL.with(|l| {
            l.borrow()
                .frame
                .as_ref()
                .is_some_and(|f| f.store.is_some() && f.trace_id == ctx.trace_id)
        });
        match same_trace {
            true => join(name, Some(lane), Some(ctx.span_id)).unwrap_or(SpanGuard::INERT),
            false => own(
                Some(Arc::clone(self)),
                ctx.trace_id,
                ctx.span_id,
                name,
                lane,
                Instant::now(),
                false,
            ),
        }
    }

    fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record one already-timed span straight into a trace's slot — the
    /// flusher's shape: one fsync interval is attributed to every traced
    /// mutation in the commit cycle without holding guards across the
    /// batch. Spans for evicted traces and spans past the cap are counted,
    /// not stored.
    pub fn record_span(
        &self,
        ctx: TraceContext,
        name: &'static str,
        lane: &Arc<str>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_span_id();
        let mut slot = self.slots[ctx.trace_id as usize % TRACE_SLOTS].lock();
        match slot.as_mut() {
            Some(t) if t.trace_id == ctx.trace_id => {
                if t.spans.len() >= MAX_SPANS_PER_TRACE {
                    t.dropped_spans += 1;
                    self.dropped.inc();
                } else {
                    t.spans.push(SpanRec {
                        id,
                        parent: ctx.span_id,
                        name,
                        lane: Arc::clone(lane),
                        start_ns: start.saturating_duration_since(t.start).as_nanos() as u64,
                        dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
                    });
                }
            }
            _ => self.dropped.inc(),
        }
    }

    /// Hand a finished frame's spans to its trace's slot under one lock;
    /// a root frame also marks the trace finished. The trace stays in its
    /// slot (late spans still land) until a new trace claims the slot.
    fn publish(&self, frame: &mut Frame, root: bool) {
        let mut slot = self.slots[frame.trace_id as usize % TRACE_SLOTS].lock();
        let Some(t) = slot.as_mut().filter(|t| t.trace_id == frame.trace_id) else {
            self.dropped.add(frame.spans.len() as u64 + u64::from(frame.dropped));
            return;
        };
        if root {
            t.root_done = true;
            t.total_ns = frame.spans[0].dur_ns;
            self.completed.inc();
        }
        let shift = frame.base.saturating_duration_since(t.start).as_nanos() as u64;
        let room = MAX_SPANS_PER_TRACE.saturating_sub(t.spans.len());
        let refused = frame.spans.len().saturating_sub(room) as u32 + frame.dropped;
        t.spans.extend(frame.spans.drain(..).take(room).map(|mut s| {
            s.start_ns += shift;
            s
        }));
        t.failed |= frame.failed;
        t.dropped_spans += refused;
        self.dropped.add(u64::from(refused));
    }

    /// Push a finished trace into the completed ring, evicting the oldest
    /// unremarkable (not slow, not failed) trace when full.
    fn retire(&self, trace: CompletedTrace) {
        let slow = self.slow_threshold();
        let mut ring = self.ring.lock();
        ring.push_back(trace);
        if ring.len() > COMPLETED_RING_CAP {
            let victim = ring.iter().position(|t| !t.failed && t.total < slow).unwrap_or(0);
            let _ = ring.remove(victim);
            self.evicted.inc();
        }
    }

    /// Every finished trace: the completed ring plus root-finished traces
    /// still sitting in their slots, sorted by trace id. Non-destructive —
    /// slot traces keep accepting late spans after this snapshot.
    pub fn completed_traces(&self) -> Vec<CompletedTrace> {
        self.finished(|_, _| true)
    }

    /// The finished traces an operator should look at — failed, or at
    /// least the slow threshold long — sorted by trace id. This is the
    /// cluster's slow-op log.
    pub fn slow_traces(&self) -> Vec<CompletedTrace> {
        let slow = self.slow_threshold();
        self.finished(|failed, total| failed || total >= slow)
    }

    /// Finished traces for which `keep(failed, total)` holds.
    fn finished(&self, keep: impl Fn(bool, Duration) -> bool) -> Vec<CompletedTrace> {
        let mut out: Vec<CompletedTrace> =
            self.ring.lock().iter().filter(|t| keep(t.failed, t.total)).cloned().collect();
        for slot in &self.slots {
            let slot = slot.lock();
            if let Some(t) = slot.as_ref() {
                if t.root_done && keep(t.failed, Duration::from_nanos(t.total_ns)) {
                    out.push(t.to_completed());
                }
            }
        }
        out.sort_by_key(|t| t.trace_id);
        out
    }

    /// Export every completed trace as Chrome `trace_event` JSON (load it
    /// in `chrome://tracing` / Perfetto). Lanes become processes, traces
    /// become tracks.
    pub fn export_chrome(&self) -> String {
        chrome_trace_json(&self.completed_traces())
    }
}

/// Serialize traces in the Chrome `trace_event` format: one `M`
/// (`process_name`) metadata event per lane, one complete (`X`) event per
/// span. `pid` is the lane (alphabetical), `tid` the trace id, `ts`/`dur`
/// are microseconds. Hand-built — this crate takes no JSON dependency.
pub fn chrome_trace_json(traces: &[CompletedTrace]) -> String {
    let mut lanes: Vec<Arc<str>> = Vec::new();
    for t in traces {
        for lane in t.lanes() {
            if !lanes.contains(&lane) {
                lanes.push(lane);
            }
        }
    }
    lanes.sort();
    let pid_of = |lane: &Arc<str>| lanes.iter().position(|l| l == lane).unwrap_or(0) + 1;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&ev);
    };
    for lane in &lanes {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                pid_of(lane),
                escape_json(lane),
            ),
        );
    }
    for t in traces {
        for s in &t.spans {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"cat\":\"{}\",\
                     \"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
                    escape_json(s.name),
                    pid_of(&s.lane),
                    t.trace_id,
                    s.start_ns as f64 / 1000.0,
                    s.dur_ns as f64 / 1000.0,
                    escape_json(t.root_name),
                    t.trace_id,
                    s.id,
                    s.parent,
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// RAII guard for one span — the only span guard. Dropping it records
/// the span's duration in the thread's buffer; the guard that owns the
/// buffer (the outermost on its thread) then publishes it. Guards restore
/// the thread's previous innermost span on drop, so they must drop in
/// LIFO order per thread (the natural scope order) and never cross
/// threads.
#[must_use = "a span records the scope it is alive for"]
pub struct SpanGuard {
    open: Option<Open>,
    _thread: PhantomData<*const ()>,
}

/// A live span's place in its thread's frame.
struct Open {
    /// This span's index in the frame's buffer.
    index: usize,
    /// The innermost open span before this one.
    up: usize,
    /// Set iff this guard owns the frame.
    owner: Option<Owner>,
}

struct Owner {
    /// Dropping the owner finishes the trace.
    root: bool,
    /// A frame of another trace this guard set aside; restored on drop.
    outer: Option<Box<Frame>>,
}

impl SpanGuard {
    /// A guard that records nothing.
    const INERT: SpanGuard = SpanGuard { open: None, _thread: PhantomData };

    fn open(open: Open) -> SpanGuard {
        SpanGuard { open: Some(open), _thread: PhantomData }
    }

    /// The context downstream work should carry to join this trace as a
    /// child of this span; `None` unless the trace is published.
    pub fn ctx(&self) -> Option<TraceContext> {
        let index = self.open.as_ref()?.index;
        LOCAL.with(|l| l.borrow().frame.as_ref()?.ctx_of(index))
    }

    /// Mark the span's trace failed — failed traces are always retained in
    /// the completed ring. A guard left inert by the span cap still marks
    /// the trace it was opened in.
    pub fn fail(&mut self) {
        LOCAL.with(|l| {
            if let Some(f) = l.borrow_mut().frame.as_mut() {
                f.failed = true;
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(frame) = l.frame.as_mut() else { return };
            if let Some(s) = frame.spans.get_mut(open.index) {
                s.dur_ns = (frame.base.elapsed().as_nanos() as u64).saturating_sub(s.start_ns);
            }
            frame.cur = open.up;
            let Some(owner) = open.owner else { return };
            let outer = owner.outer.map(|f| *f);
            let Some(mut frame) = std::mem::replace(&mut l.frame, outer) else { return };
            if let Some(store) = frame.store.take() {
                store.publish(&mut frame, owner.root);
            }
            frame.spans.clear();
            if l.spare.capacity() < frame.spans.capacity() {
                l.spare = frame.spans;
            }
        });
    }
}

/// A store handle bound to one lane — what a node's engine (or a service)
/// keeps so instrumentation sites never repeat the lane plumbing.
#[derive(Clone)]
pub struct TraceSink {
    store: Arc<TraceStore>,
    lane: Arc<str>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").field("lane", &self.lane).finish()
    }
}

impl TraceSink {
    /// Bind `store` to a lane label (`client`, `n0`, …).
    pub fn new(store: Arc<TraceStore>, lane: &str) -> TraceSink {
        TraceSink { store, lane: Arc::from(lane) }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }

    /// This sink's lane label.
    pub fn lane(&self) -> &Arc<str> {
        &self.lane
    }

    /// [`TraceStore::mint`] on this lane.
    pub fn mint(&self, name: &'static str) -> SpanGuard {
        self.store.mint(name, &self.lane)
    }

    /// [`TraceStore::child`] on this lane.
    pub fn child(&self, name: &'static str) -> SpanGuard {
        self.store.child(name, &self.lane)
    }

    /// [`TraceStore::child_of`] on this lane.
    pub fn child_of(&self, ctx: TraceContext, name: &'static str) -> SpanGuard {
        self.store.child_of(ctx, name, &self.lane)
    }

    /// [`TraceStore::record_span`] on this lane.
    pub fn record_span(&self, ctx: TraceContext, name: &'static str, start: Instant, end: Instant) {
        self.store.record_span(ctx, name, &self.lane, start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn mint_child_and_cross_thread_stitch_one_trace() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        let client = lane("client");
        let node = lane("n0");
        let carried;
        {
            let root = store.mint("client.kv.durable", &client);
            {
                let child = store.child("kv.engine.set", &node);
                carried = child.ctx().expect("sampled");
            }
            // Cross-thread hand-off: another thread records under the
            // carried context with no TLS of its own.
            let store2 = Arc::clone(&store);
            let remote = lane("n1");
            std::thread::spawn(move || {
                let _d = store2.child_of(carried, "cluster.replication.deliver", &remote);
            })
            .join()
            .unwrap();
            drop(root);
        }
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 1, "one entry point, one trace");
        let t = &traces[0];
        assert_eq!(t.root_name, "client.kv.durable");
        assert_eq!(t.spans.len(), 3);
        let deliver = t.span("cluster.replication.deliver").unwrap();
        assert_eq!(
            t.path_to_root(deliver).unwrap(),
            vec!["client.kv.durable", "kv.engine.set", "cluster.replication.deliver"],
        );
        assert_eq!(&*deliver.lane, "n1");
        assert_eq!(t.lanes().len(), 3);
    }

    #[test]
    fn late_spans_land_after_root_finishes() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        let ctx;
        {
            let root = store.mint("client.kv.upsert", &lane("client"));
            ctx = root.ctx().expect("sampled");
        }
        assert_eq!(store.completed_traces()[0].spans.len(), 1);
        // The replica ack races the root: its span must still stitch in.
        let t0 = Instant::now();
        store.record_span(ctx, "kv.flusher.wal_commit", &lane("n0"), t0, Instant::now());
        let t = &store.completed_traces()[0];
        assert_eq!(t.spans.len(), 2);
        assert!(t.span("kv.flusher.wal_commit").is_some());
    }

    #[test]
    fn head_sampling_skips_deterministically() {
        let store = TraceStore::new();
        store.set_sample_every(4);
        let client = lane("client");
        let minted =
            (0..16).filter(|_| store.mint("client.kv.get", &client).ctx().is_some()).count();
        assert_eq!(minted, 4);
        assert_eq!(store.registry().snapshot().counters["obs.trace.unsampled"], 12);
        assert_eq!(store.completed_traces().len(), 4, "only sampled roots are published");
    }

    #[test]
    fn unsampled_roots_still_buffer_spans_locally() {
        let store = TraceStore::new();
        store.set_sample_every(u64::MAX);
        let _ = store.mint("client.kv.get", &lane("client")); // tick 0 is sampled
        let root = store.mint("n1ql.query.execute", &lane("query"));
        assert!(root.ctx().is_none(), "unsampled: no context leaves the thread");
        assert!(current_context().is_none());
        let cap = capture("n1ql.query.execute");
        {
            let _p = span("n1ql.query.plan");
            spin(Duration::from_micros(20));
        }
        let spans = cap.finish(<[SpanRec]>::to_vec);
        drop(root);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "n1ql.query.plan");
        assert_eq!(&*spans[0].lane, "query", "child inherits the root's lane");
        assert!(spans[0].dur_ns >= 20_000);
        assert_eq!(store.registry().snapshot().counters["obs.trace.unsampled"], 1);
        assert_eq!(store.completed_traces().len(), 1, "the unsampled root is never published");
    }

    #[test]
    fn untraced_child_spans_are_noops() {
        let g = span("kv.engine.set");
        assert!(g.ctx().is_none());
        drop(g);
        assert!(current_context().is_none());
        // Nothing recorded anywhere, and TLS is clean for a real trace.
        let store = TraceStore::new();
        store.set_sample_every(1);
        drop(store.mint("kv.engine.get", &lane("n0")));
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].spans.len(), 1, "the stray span did not leak into it");
    }

    #[test]
    fn slow_trace_keeps_its_multi_level_tree() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        store.set_slow_threshold(Duration::ZERO);
        {
            let _root = store.mint("kv.engine.set", &lane("n0"));
            {
                let _c = span("kv.cache.insert");
                spin(Duration::from_micros(50));
            }
            {
                let _c = span("kv.flusher.wait");
                let _gc = span("storage.wal.fsync");
                spin(Duration::from_micros(50));
            }
        }
        let slow = store.slow_traces();
        assert_eq!(slow.len(), 1);
        let t = &slow[0];
        assert_eq!(t.root_name, "kv.engine.set");
        let fsync = t.span("storage.wal.fsync").unwrap();
        assert_eq!(
            t.path_to_root(fsync).unwrap(),
            vec!["kv.engine.set", "kv.flusher.wait", "storage.wal.fsync"]
        );
        assert!(t.total >= Duration::from_micros(100));
        assert!(fsync.dur_ns >= 50_000);
        let insert = t.span("kv.cache.insert").unwrap();
        assert!(fsync.start_ns >= insert.start_ns + insert.dur_ns);
        assert!(t.render().contains("    storage.wal.fsync"), "{}", t.render());
    }

    #[test]
    fn fast_traces_are_not_slow() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        store.set_slow_threshold(Duration::from_secs(3600));
        drop(store.mint("kv.engine.get", &lane("n0")));
        {
            let mut failing = store.mint("kv.engine.get", &lane("n0"));
            failing.fail();
        }
        let slow = store.slow_traces();
        assert_eq!(slow.len(), 1, "only the failed trace is listed");
        assert!(slow[0].failed);
    }

    #[test]
    fn nested_entry_points_join_the_outer_trace() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        {
            let _q = store.mint("n1ql.query.execute", &lane("query"));
            let _g = store.mint("client.kv.get", &lane("client"));
        }
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 1, "inner root joined the outer trace");
        let names: Vec<_> = traces[0].spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["n1ql.query.execute", "client.kv.get"]);
        let get = traces[0].span("client.kv.get").unwrap();
        assert_eq!(traces[0].path_to_root(get).unwrap(), names);
        assert_eq!(store.registry().snapshot().counters["obs.trace.minted"], 1);
    }

    #[test]
    fn foreign_child_of_sets_the_outer_frame_aside() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        let other = {
            let g = store.mint("client.kv.upsert", &lane("client"));
            g.ctx().unwrap()
        };
        {
            let _root = store.mint("client.kv.get", &lane("client"));
            {
                let _d = store.child_of(other, "cluster.replication.deliver", &lane("n1"));
                let _a = span("kv.engine.replica_apply");
            }
            let _after = span("kv.cache.get");
        }
        let traces = store.completed_traces();
        assert_eq!(traces.len(), 2);
        let names = |t: &CompletedTrace| t.spans.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(
            names(&traces[0]),
            vec!["client.kv.upsert", "cluster.replication.deliver", "kv.engine.replica_apply"]
        );
        assert_eq!(names(&traces[1]), vec!["client.kv.get", "kv.cache.get"]);
    }

    #[test]
    fn span_cap_counts_drops_instead_of_growing() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        let l = lane("client");
        let root = store.mint("client.kv.get", &l);
        let ctx = root.ctx().expect("sampled");
        let t0 = Instant::now();
        for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
            store.record_span(ctx, "kv.engine.get", &l, t0, t0);
        }
        drop(root);
        let t = &store.completed_traces()[0];
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        // +1: the root span itself arrived after the cap filled.
        assert_eq!(t.dropped_spans as usize, 11);
    }

    #[test]
    fn buffered_span_cap_counts_drops() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        {
            let _root = store.mint("kv.engine.scan", &lane("n0"));
            for _ in 0..2 * MAX_SPANS_PER_TRACE {
                drop(span("kv.engine.step"));
            }
            // A span refused at the cap still fails its trace.
            span("kv.engine.step").fail();
        }
        let t = &store.completed_traces()[0];
        assert!(t.failed);
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.dropped_spans as usize, MAX_SPANS_PER_TRACE + 2);
        assert_eq!(
            store.registry().snapshot().counters["obs.trace.dropped_spans"],
            MAX_SPANS_PER_TRACE as u64 + 2
        );
    }

    #[test]
    fn capture_without_a_guard_owns_a_local_root() {
        let cap = capture("n1ql.query.execute");
        {
            let _a = span("n1ql.query.parse");
            spin(Duration::from_micros(20));
        }
        {
            let _b = span("n1ql.exec.index_scan");
            let _c = span("index.manager.scan");
            spin(Duration::from_micros(20));
        }
        let spans = cap.finish(<[SpanRec]>::to_vec);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "n1ql.query.execute",
                "n1ql.query.parse",
                "n1ql.exec.index_scan",
                "index.manager.scan"
            ]
        );
        assert_eq!(spans[3].parent, spans[2].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert!(spans[0].dur_ns >= 40_000);
        // TLS state is fully cleaned up.
        assert!(current_context().is_none());
        assert_eq!(capture("n1ql.query.execute").finish(<[SpanRec]>::len), 1);
    }

    #[test]
    fn capture_reads_the_enclosing_guards_buffer() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        {
            let _root = store.mint("n1ql.query.execute", &lane("query"));
            drop(span("n1ql.query.parse"));
            let cap = capture("n1ql.query.execute");
            {
                let _s = span("n1ql.exec.fetch");
                spin(Duration::from_micros(10));
            }
            let spans = cap.finish(<[SpanRec]>::to_vec);
            assert_eq!(spans.iter().map(|s| s.name).collect::<Vec<_>>(), vec!["n1ql.exec.fetch"]);
            assert!(spans[0].dur_ns >= 10_000);
        }
        // The enclosing trace still reached the store untouched.
        let t = &store.completed_traces()[0];
        assert_eq!(
            t.spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["n1ql.query.execute", "n1ql.query.parse", "n1ql.exec.fetch"]
        );
    }

    #[test]
    fn env_overrides_default_slow_threshold() {
        std::env::set_var("CBS_SLOW_OP_MS", "7");
        let store = TraceStore::new();
        std::env::remove_var("CBS_SLOW_OP_MS");
        assert_eq!(store.slow_threshold(), Duration::from_millis(7));
        // Garbage values fall back to the built-in default.
        std::env::set_var("CBS_SLOW_OP_MS", "not-a-number");
        let store2 = TraceStore::new();
        std::env::remove_var("CBS_SLOW_OP_MS");
        assert_eq!(store2.slow_threshold(), DEFAULT_SLOW_THRESHOLD);
        // Runtime override still wins after construction.
        store.set_slow_threshold(Duration::from_millis(1));
        assert_eq!(store.slow_threshold(), Duration::from_millis(1));
    }

    #[test]
    fn failed_and_slow_traces_survive_ring_eviction() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        store.set_slow_threshold(Duration::from_secs(3600));
        let l = lane("client");
        {
            let mut failing = store.mint("client.kv.remove", &l);
            failing.fail();
        }
        let failed_id = store.completed_traces()[0].trace_id;
        // Push enough traces through to wrap every slot and overflow the
        // ring many times over.
        for _ in 0..(TRACE_SLOTS * 3 + COMPLETED_RING_CAP * 2) {
            drop(store.mint("client.kv.get", &l));
        }
        let traces = store.completed_traces();
        assert!(traces.len() <= COMPLETED_RING_CAP + TRACE_SLOTS, "ring is bounded");
        assert!(
            traces.iter().any(|t| t.trace_id == failed_id && t.failed),
            "failed trace was evicted"
        );
    }

    #[test]
    fn busy_slot_spills_new_mint_not_the_live_trace() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        // One thread per trace: roots are minted per entry point, and the
        // span buffer is thread-local, so same-thread mints would nest.
        let barrier = std::sync::Barrier::new(TRACE_SLOTS + 1);
        std::thread::scope(|s| {
            for _ in 0..TRACE_SLOTS {
                let store = &store;
                let barrier = &barrier;
                s.spawn(move || {
                    let g = store.mint("client.kv.get", &lane("client"));
                    assert!(g.ctx().is_some(), "sampled");
                    barrier.wait(); // every slot now holds a live trace
                    barrier.wait(); // hold the slot until the spill is checked
                    drop(g);
                });
            }
            barrier.wait();
            // Every slot is live: the next mint goes unpublished rather
            // than evicting an in-flight trace.
            let spilled = store.mint("client.kv.get", &lane("client"));
            assert!(spilled.ctx().is_none());
            drop(spilled);
            barrier.wait();
        });
        assert_eq!(store.completed_traces().len(), TRACE_SLOTS);
    }

    #[test]
    fn chrome_export_is_valid_and_lane_mapped() {
        let store = TraceStore::new();
        store.set_sample_every(1);
        {
            let _root = store.mint("client.kv.durable", &lane("client"));
            let _a = store.child("kv.engine.set", &lane("n0"));
            let _b = store.child("cluster.replication.deliver", &lane("n1"));
        }
        let json = store.export_chrome();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"args\":{\"name\":\"n0\"}"));
        assert!(json.contains("\"args\":{\"name\":\"n1\"}"));
        assert!(json.contains("\"name\":\"kv.engine.set\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
