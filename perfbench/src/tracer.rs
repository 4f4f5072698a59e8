//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions.
//! Each records its name, start, end, parent span, request id and the
//! amount of work it covered (bytes, events, samples — whatever the
//! layer's rate metric divides by). Spans stay in memory and are written
//! once, at the end, as Chrome `trace_event` JSON that Perfetto opens.
//!
//! Recording is off unless the run was started with `--trace 1`; a
//! thread can additionally pause it (`set_local`) so the traced run can
//! alternate traced and untraced iterations and measure its own cost.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where a span came from: the workload's own loop, or the layer pass
/// that measures layers the workload does not exercise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Origin {
    Workload,
    Pass,
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
    pub req: u64,
    pub work: f64,
    pub origin: Origin,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    /// Request id → its first span, the parent of spans of that request
    /// opened on other threads.
    roots: Mutex<HashMap<u64, u64>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();
static PASS: AtomicBool = AtomicBool::new(false);

thread_local! {
    static LOCAL_ON: Cell<bool> = const { Cell::new(true) };
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        roots: Mutex::new(HashMap::new()),
    })
}

/// Turn recording on for the whole run.
pub fn enable() {
    tracer();
    ON.store(true, Ordering::SeqCst);
}

/// Is this run traced at all?
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Pause (`false`) or resume (`true`) recording on the calling thread.
pub fn set_local(on: bool) {
    LOCAL_ON.with(|c| c.set(on));
}

/// Mark the spans recorded from now on as layer-pass spans.
pub fn set_pass(on: bool) {
    PASS.store(on, Ordering::SeqCst);
}

fn active() -> bool {
    ON.load(Ordering::Relaxed) && LOCAL_ON.with(|c| c.get())
}

/// Nanoseconds since the tracer's epoch.
pub fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(tracer().next_tid.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span; records itself when dropped.
pub struct Span {
    rec: Option<SpanRec>,
}

impl Span {
    /// Attach the amount of work the span covered.
    pub fn work(&mut self, amount: f64) {
        if let Some(r) = &mut self.rec {
            r.work = amount;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.end_ns = now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&(id, _)| id == rec.id) {
                    s.truncate(pos);
                }
            });
            if let Ok(mut spans) = tracer().spans.lock() {
                spans.push(rec);
            }
        }
    }
}

/// Open a span that inherits the request id of its parent.
pub fn span(name: &'static str) -> Span {
    let req = STACK.with(|s| s.borrow().last().map(|&(_, r)| r).unwrap_or(0));
    span_req(name, req)
}

/// Open a span that starts request `req` (its children inherit it).
pub fn span_req(name: &'static str, req: u64) -> Span {
    span_req_from(name, req, now_ns())
}

/// Like [`span_req`], for a request that began at `start_ns` (an
/// open-loop request is timed from when it was due).
pub fn span_req_from(name: &'static str, req: u64, start_ns: u64) -> Span {
    if !active() {
        return Span { rec: None };
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|&(p, _)| p);
        s.push((id, req));
        parent
    });
    let parent = parent.unwrap_or_else(|| request_root(t, req, id));
    Span {
        rec: Some(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns: 0,
            tid: tid(),
            req,
            work: 0.0,
            origin: if PASS.load(Ordering::Relaxed) {
                Origin::Pass
            } else {
                Origin::Workload
            },
        }),
    }
}

/// The parent of a span opened with no enclosing span on its thread: the
/// first span of its request, unless it is that span.
fn request_root(t: &Tracer, req: u64, id: u64) -> u64 {
    if req == 0 {
        return 0;
    }
    let mut roots = t.roots.lock().unwrap_or_else(|e| e.into_inner());
    match *roots.entry(req).or_insert(id) {
        root if root == id => 0,
        root => root,
    }
}

/// Record a span whose interval was measured by the caller (e.g. a
/// request timed from its scheduled send rather than from the call).
pub fn record(name: &'static str, req: u64, start_ns: u64, end_ns: u64, work: f64) {
    if !active() {
        return;
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK
        .with(|s| s.borrow().last().map(|&(p, _)| p))
        .unwrap_or_else(|| request_root(t, req, id));
    let rec = SpanRec {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        tid: tid(),
        req,
        work,
        origin: if PASS.load(Ordering::Relaxed) {
            Origin::Pass
        } else {
            Origin::Workload
        },
    };
    if let Ok(mut spans) = t.spans.lock() {
        spans.push(rec);
    }
}

/// Every finished span, in start order.
pub fn spans() -> Vec<SpanRec> {
    let mut v = tracer().spans.lock().map(|s| s.clone()).unwrap_or_default();
    v.sort_by_key(|s| (s.start_ns, s.id));
    v
}

/// Spans named `name`: the workload's own if it recorded any, else the
/// layer pass's.
pub fn named<'a>(all: &'a [SpanRec], name: &str) -> Vec<&'a SpanRec> {
    let own: Vec<&SpanRec> = all
        .iter()
        .filter(|s| s.name == name && s.origin == Origin::Workload)
        .collect();
    if !own.is_empty() {
        return own;
    }
    all.iter()
        .filter(|s| s.name == name && s.origin == Origin::Pass)
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span (by id): its duration minus the part its
/// direct children cover.
pub fn self_times(all: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for c in all {
        children
            .entry(c.parent)
            .or_default()
            .push((c.start_ns, c.end_ns));
    }
    all.iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Chrome `trace_event` JSON of `spans` (complete events, one track per
/// benchmark thread), with self time in each event's args.
pub fn chrome_json(all: &[SpanRec]) -> String {
    let mut events = vec![
        r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"tempest perfbench"}}"#
            .to_string(),
    ];
    let self_ns = self_times(all);
    for s in all {
        events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{"id":{},"parent":{},"req":{},"work":{},"self_us":{}}}}}"#,
            s.name,
            match s.origin {
                Origin::Workload => "workload",
                Origin::Pass => "pass",
            },
            us(s.start_ns),
            us(s.dur_ns()),
            s.tid,
            s.id,
            s.parent,
            s.req,
            s.work,
            us(self_ns[&s.id]),
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}
