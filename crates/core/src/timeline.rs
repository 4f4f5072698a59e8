//! Function-timeline reconstruction.
//!
//! §3.1 explains why Tempest could not be a gprof patch: *"gprof creates
//! buckets for functions … gprof does not pinpoint which function was
//! executing at time X in a program. Tempest requires a function level
//! timeline since temperature readings from sensors occur and vary in real
//! time."* This module turns the raw entry/exit event stream back into that
//! timeline: a set of [`Interval`]s (who was on the stack, when, at what
//! depth), robust to interleaving, recursion, and truncated or slightly
//! malformed traces.

use crate::columns::SlotIndex;
use std::collections::HashMap;
use tempest_probe::event::{Event, EventKind, ThreadId};
use tempest_probe::func::FunctionId;

/// One stretch of a function being on the call stack of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Which function was on the stack.
    pub func: FunctionId,
    /// Which thread's stack.
    pub thread: ThreadId,
    /// Entry timestamp, inclusive.
    pub start_ns: u64,
    /// Exit timestamp, exclusive.
    pub end_ns: u64,
    /// Stack depth at entry (0 = outermost frame of the thread).
    pub depth: u32,
    /// True if the trace ended before the function returned and the
    /// interval was closed artificially at the last known instant.
    pub truncated: bool,
}

impl Interval {
    /// Interval length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Does the instant `t` fall inside this interval (`[start, end)`)?
    pub fn contains(&self, t: u64) -> bool {
        t >= self.start_ns && t < self.end_ns
    }
}

/// Problems encountered while rebuilding the timeline. The parser keeps
/// going — a mostly-good trace still yields a useful profile — but records
/// what it had to repair.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineWarning {
    /// An exit arrived for a function not on top of the stack; the frames
    /// above it were force-closed.
    MismatchedExit {
        /// Thread on which the mismatch occurred.
        thread: ThreadId,
        /// Function on top of the stack at the time.
        expected: FunctionId,
        /// Function the exit event named.
        got: FunctionId,
        /// Timestamp of the exit event.
        at_ns: u64,
    },
    /// An exit arrived for a function not on the stack at all; ignored.
    ExitWithoutEnter {
        /// Thread the stray exit arrived on.
        thread: ThreadId,
        /// Function the exit named.
        func: FunctionId,
        /// Timestamp of the stray exit.
        at_ns: u64,
    },
    /// Frames still open at end of trace; closed at the last timestamp.
    UnclosedFrames {
        /// Thread whose stack was still open.
        thread: ThreadId,
        /// Number of frames force-closed.
        count: usize,
    },
}

/// Per-function aggregate times over the whole timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FunctionTimes {
    /// Wall time during which the function was on the stack at least once
    /// (recursion counted once) — the paper's "Total time (inclusive)".
    pub inclusive_ns: u64,
    /// Wall time during which the function was the innermost frame.
    pub exclusive_ns: u64,
    /// Number of entries.
    pub calls: u64,
}

/// The reconstructed timeline of one node.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// All intervals, sorted by start time.
    pub intervals: Vec<Interval>,
    /// Aggregate times per function.
    pub times: HashMap<FunctionId, FunctionTimes>,
    /// Repairs performed during reconstruction.
    pub warnings: Vec<TimelineWarning>,
    /// First and last event timestamps (0,0 if no events).
    pub span: (u64, u64),
}

impl Timeline {
    /// Rebuild the timeline from scope events.
    ///
    /// Events must be sorted by timestamp (ties keep stream order, which is
    /// how [`tempest_probe::trace::Trace::from_mixed_events`] sorts them);
    /// each thread's subsequence is then interpreted as a call-stack
    /// history. Repairs at the end of the trace (`UnclosedFrames` and the
    /// truncated intervals) follow the order in which threads first
    /// appear, so the output is the same on every run.
    pub fn build(events: &[Event]) -> Timeline {
        let mut tl = Timeline::default();
        if events.is_empty() {
            return tl;
        }
        tl.span = (
            events.first().unwrap().timestamp_ns,
            events.last().unwrap().timestamp_ns,
        );
        // Every enter becomes exactly one interval (closed or truncated),
        // emitted in its enter slot.
        let enters = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Enter { .. }))
            .count();
        let mut emitted = Emitted {
            intervals: Vec::with_capacity(enters),
            close_seq: vec![0; enters],
            closed: 0,
        };

        // Dense thread and function slots index the per-thread state and
        // the per-function times.
        let mut thread_slots = SlotIndex::default();
        let mut threads: Vec<ThreadState> = Vec::new();
        let mut funcs = Funcs::default();

        for e in events {
            let (func, is_enter) = match e.kind {
                EventKind::Enter { func } => (func, true),
                EventKind::Exit { func } => (func, false),
                EventKind::Sample { .. } | EventKind::Gap { .. } => continue,
            };
            let t = e.timestamp_ns;
            let tslot = thread_slots.slot(e.thread.0) as usize;
            if tslot == threads.len() {
                threads.push(ThreadState {
                    id: e.thread,
                    stack: Vec::new(),
                    prev_ts: None,
                });
            }
            let th = &mut threads[tslot];

            // Attribute the elapsed slice to the current top (exclusive).
            if let (Some(p), Some(top)) = (th.prev_ts, th.stack.last()) {
                funcs.times[top.fslot as usize].exclusive_ns += t.saturating_sub(p);
            }
            th.prev_ts = Some(t);

            if is_enter {
                let fslot = funcs.enter(func);
                // Recursion-safe inclusive time: only the outermost frame
                // of a function on this thread's stack counts. Recursion
                // finds its frame near the top.
                let outermost = !th.stack.iter().rev().any(|f| f.fslot == fslot);
                let slot = emitted.open(func, e.thread, t, th.stack.len() as u32);
                th.stack.push(Frame {
                    fslot,
                    slot,
                    outermost,
                });
                continue;
            }
            // Find the frame; tolerate mismatches.
            let pos = funcs
                .slots
                .get(func.0)
                .and_then(|fslot| th.stack.iter().rposition(|f| f.fslot == fslot));
            let Some(pos) = pos else {
                tl.warnings.push(TimelineWarning::ExitWithoutEnter {
                    thread: e.thread,
                    func,
                    at_ns: t,
                });
                continue;
            };
            if pos != th.stack.len() - 1 {
                let top = th.stack.last().unwrap().fslot;
                tl.warnings.push(TimelineWarning::MismatchedExit {
                    thread: e.thread,
                    expected: funcs.ids[top as usize],
                    got: func,
                    at_ns: t,
                });
            }
            // Close the target and anything above it, innermost first.
            for frame in th.stack.drain(pos..).rev() {
                emitted.close(&mut funcs, frame, t, false);
            }
        }

        // Close anything still open at the end of the trace, threads in
        // first-seen order.
        let end = tl.span.1;
        for th in &mut threads {
            if th.stack.is_empty() {
                continue;
            }
            tl.warnings.push(TimelineWarning::UnclosedFrames {
                thread: th.id,
                count: th.stack.len(),
            });
            for frame in th.stack.drain(..).rev() {
                emitted.close(&mut funcs, frame, end, true);
            }
        }

        tl.times = funcs.ids.into_iter().zip(funcs.times).collect();
        // Order the slots by `(start, depth)`, ties — frames of different
        // threads entered at one instant — in the order they closed. Enter
        // order is start order for time-sorted events, so this stable sort
        // is a linear pass over presorted runs, and sorting slots rather
        // than intervals keeps its scratch small.
        let Emitted {
            mut intervals,
            close_seq,
            ..
        } = emitted;
        let mut order: Vec<u32> = (0..intervals.len() as u32).collect();
        order.sort_by_key(|&slot| {
            let i = &intervals[slot as usize];
            (i.start_ns, i.depth, close_seq[slot as usize])
        });
        permute(&mut intervals, &mut order);
        tl.intervals = intervals;
        tl
    }

    /// Every interval covering instant `t` (linear scan — fine for tests
    /// and spot queries; [`crate::correlate`] sweeps instead).
    pub fn active_at(&self, t: u64) -> Vec<&Interval> {
        self.intervals.iter().filter(|i| i.contains(t)).collect()
    }

    /// The innermost (deepest) interval covering `t` on `thread`.
    pub fn executing_at(&self, thread: ThreadId, t: u64) -> Option<&Interval> {
        self.intervals
            .iter()
            .filter(|i| i.thread == thread && i.contains(t))
            .max_by_key(|i| i.depth)
    }

    /// Total wall span of the timeline, ns.
    pub fn span_ns(&self) -> u64 {
        self.span.1.saturating_sub(self.span.0)
    }

    /// Flatten the intervals into the struct-of-arrays batch the correlate
    /// sweep consumes ([`crate::columns::IntervalColumns`]).
    pub fn columns(&self) -> crate::columns::IntervalColumns {
        crate::columns::IntervalColumns::from_timeline(self)
    }
}

/// One open frame on a thread's stack.
#[derive(Clone, Copy)]
struct Frame {
    fslot: u32,
    /// The frame's interval in [`Emitted::intervals`].
    slot: u32,
    /// No other frame of the same function was open on this thread when
    /// this one was entered: its span is the function's inclusive time.
    outermost: bool,
}

/// Per-thread reconstruction state, indexed by thread slot.
struct ThreadState {
    id: ThreadId,
    stack: Vec<Frame>,
    /// Timestamp of the thread's previous scope event, for exclusive time.
    prev_ts: Option<u64>,
}

/// Per-function state, indexed by function slot. A function gets a slot
/// on its first enter, so one seen only in a stray exit never gets a
/// `times` key.
#[derive(Default)]
struct Funcs {
    slots: SlotIndex,
    ids: Vec<FunctionId>,
    times: Vec<FunctionTimes>,
}

impl Funcs {
    /// Count a call of `func` and return its slot.
    fn enter(&mut self, func: FunctionId) -> u32 {
        let fslot = self.slots.slot(func.0);
        if fslot as usize == self.ids.len() {
            self.ids.push(func);
            self.times.push(FunctionTimes::default());
        }
        self.times[fslot as usize].calls += 1;
        fslot
    }
}

/// Intervals in enter order, with the sequence number of each one's close.
struct Emitted {
    intervals: Vec<Interval>,
    /// Per interval slot: how many intervals closed before it.
    close_seq: Vec<u32>,
    closed: u32,
}

impl Emitted {
    /// Open the interval of a frame entered at `start_ns`; returns its
    /// slot. The end is filled in by [`Emitted::close`].
    fn open(&mut self, func: FunctionId, thread: ThreadId, start_ns: u64, depth: u32) -> u32 {
        let slot = u32::try_from(self.intervals.len()).expect("fewer than 2^32 intervals");
        self.intervals.push(Interval {
            func,
            thread,
            start_ns,
            end_ns: start_ns,
            depth,
            truncated: false,
        });
        slot
    }

    /// Close `frame`'s interval at `end_ns`, crediting its inclusive time.
    fn close(&mut self, funcs: &mut Funcs, frame: Frame, end_ns: u64, truncated: bool) {
        let interval = &mut self.intervals[frame.slot as usize];
        interval.end_ns = end_ns;
        interval.truncated = truncated;
        self.close_seq[frame.slot as usize] = self.closed;
        self.closed += 1;
        if frame.outermost {
            funcs.times[frame.fslot as usize].inclusive_ns +=
                end_ns.saturating_sub(interval.start_ns);
        }
    }
}

/// Reorder `items` in place so position `i` holds the item that was at
/// `order[i]`, walking each cycle of the permutation once. `order` is
/// consumed (left as the identity).
fn permute<T: Copy>(items: &mut [T], order: &mut [u32]) {
    for start in 0..items.len() {
        if order[start] as usize == start {
            continue;
        }
        let first = items[start];
        let mut at = start;
        loop {
            let from = order[at] as usize;
            order[at] = at as u32;
            if from == start {
                items[at] = first;
                break;
            }
            items[at] = items[from];
            at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const MAIN: FunctionId = FunctionId(0);
    const FOO1: FunctionId = FunctionId(1);
    const FOO2: FunctionId = FunctionId(2);

    fn enter(t: u64, th: ThreadId, f: FunctionId) -> Event {
        Event::enter(t, th, f)
    }
    fn exit(t: u64, th: ThreadId, f: FunctionId) -> Event {
        Event::exit(t, th, f)
    }

    /// Micro-benchmark B of Table 1: main calls one function.
    #[test]
    fn single_call() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            exit(90, T0, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert_eq!(tl.intervals.len(), 2);
        assert!(tl.warnings.is_empty());
        let main = tl.times[&MAIN];
        assert_eq!(main.inclusive_ns, 100);
        assert_eq!(main.exclusive_ns, 20); // 0-10 and 90-100
        assert_eq!(main.calls, 1);
        let foo = tl.times[&FOO1];
        assert_eq!(foo.inclusive_ns, 80);
        assert_eq!(foo.exclusive_ns, 80);
    }

    /// Micro-benchmark A: main alone.
    #[test]
    fn main_alone() {
        let tl = Timeline::build(&[enter(5, T0, MAIN), exit(105, T0, MAIN)]);
        assert_eq!(tl.intervals.len(), 1);
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.times[&MAIN].exclusive_ns, 100);
        assert_eq!(tl.span_ns(), 100);
    }

    /// Micro-benchmark C/D: multiple functions with interleaving
    /// (Table 1's `main { foo1 { foo2 } foo2 }`).
    #[test]
    fn interleaving_micro_benchmark_d() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            enter(20, T0, FOO2),
            exit(30, T0, FOO2),
            exit(60, T0, FOO1),
            enter(70, T0, FOO2),
            exit(90, T0, FOO2),
            exit(100, T0, MAIN),
        ]);
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.times[&FOO1].inclusive_ns, 50);
        assert_eq!(tl.times[&FOO2].inclusive_ns, 30); // 10 + 20
        assert_eq!(tl.times[&FOO2].calls, 2);
        // Exclusive: main 0-10,60-70,90-100 = 30; foo1 10-20,30-60 = 40.
        assert_eq!(tl.times[&MAIN].exclusive_ns, 30);
        assert_eq!(tl.times[&FOO1].exclusive_ns, 40);
        assert_eq!(tl.times[&FOO2].exclusive_ns, 30);
    }

    /// Micro-benchmark E: recursion with interleaving. Inclusive time must
    /// not double-count overlapping recursive frames.
    #[test]
    fn recursion_counts_inclusive_once() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            enter(20, T0, FOO1), // recursive call
            enter(30, T0, FOO2),
            exit(40, T0, FOO2),
            exit(50, T0, FOO1),
            exit(80, T0, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.times[&FOO1].inclusive_ns, 70, "10→80 counted once");
        assert_eq!(tl.times[&FOO1].calls, 2);
        // foo1 exclusive: 10-20 (outer), 20-30 (inner), 40-50 (inner),
        // 50-80 (outer) = 60.
        assert_eq!(tl.times[&FOO1].exclusive_ns, 60);
        // Four intervals for foo1? No: two (outer, inner) + foo2 + main.
        assert_eq!(tl.intervals.len(), 4);
        let depths: Vec<u32> = tl
            .intervals
            .iter()
            .filter(|i| i.func == FOO1)
            .map(|i| i.depth)
            .collect();
        assert_eq!(depths.len(), 2);
        assert!(depths.contains(&1) && depths.contains(&2));
    }

    #[test]
    fn threads_are_independent_stacks() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(5, T1, FOO1),
            exit(50, T1, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.times[&FOO1].inclusive_ns, 45);
        // Exclusive time is per-thread: main gets its full 100.
        assert_eq!(tl.times[&MAIN].exclusive_ns, 100);
        let i = tl.executing_at(T1, 10).unwrap();
        assert_eq!(i.func, FOO1);
        assert_eq!(tl.executing_at(T1, 60), None);
    }

    #[test]
    fn unclosed_frames_are_truncated_at_trace_end() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            exit(50, T0, FOO1),
            // trace cut: main never exits
        ]);
        assert_eq!(tl.warnings.len(), 1);
        assert!(matches!(
            tl.warnings[0],
            TimelineWarning::UnclosedFrames {
                thread: T0,
                count: 1
            }
        ));
        let main_iv = tl.intervals.iter().find(|i| i.func == MAIN).unwrap();
        assert!(main_iv.truncated);
        assert_eq!(main_iv.end_ns, 50);
        assert_eq!(tl.times[&MAIN].inclusive_ns, 50);
    }

    #[test]
    fn repairs_follow_first_seen_thread_order() {
        // Eight threads, first seen in a scrambled order, each cut off
        // with two frames open at the same instant and depth.
        let order = [5u32, 2, 7, 0, 6, 1, 4, 3];
        let mut events = Vec::new();
        for &th in &order {
            events.push(enter(0, ThreadId(th), MAIN));
        }
        for &th in &order {
            events.push(enter(10, ThreadId(th), FunctionId(th + 1)));
        }
        let a = Timeline::build(&events);
        let b = Timeline::build(&events);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.warnings, b.warnings);
        let repaired: Vec<u32> = a
            .warnings
            .iter()
            .map(|w| match w {
                TimelineWarning::UnclosedFrames { thread, count } => {
                    assert_eq!(*count, 2);
                    thread.0
                }
                other => panic!("unexpected warning {other:?}"),
            })
            .collect();
        assert_eq!(repaired, order);
        // Ties on (start, depth) keep the repair order too.
        let outer: Vec<u32> = a
            .intervals
            .iter()
            .filter(|i| i.depth == 0)
            .map(|i| i.thread.0)
            .collect();
        assert_eq!(outer, order);
        assert!(a.intervals.iter().all(|i| i.truncated && i.end_ns == 10));
    }

    #[test]
    fn start_and_depth_ties_keep_close_order() {
        // f on T0 and g on T1 both enter at 100 at depth 0; g exits first,
        // so g's interval comes first although f was entered first.
        let tl = Timeline::build(&[
            enter(100, T0, FOO1),
            enter(100, T1, FOO2),
            exit(150, T1, FOO2),
            exit(200, T0, FOO1),
        ]);
        let order: Vec<FunctionId> = tl.intervals.iter().map(|i| i.func).collect();
        assert_eq!(order, vec![FOO2, FOO1]);
    }

    #[test]
    fn mismatched_exit_force_closes_above() {
        // Enter main, foo1, foo2 — then exit foo1 (foo2's exit was lost).
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            enter(20, T0, FOO2),
            exit(60, T0, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert_eq!(tl.warnings.len(), 1);
        assert!(matches!(
            tl.warnings[0],
            TimelineWarning::MismatchedExit { got: FOO1, .. }
        ));
        // foo2 closed at 60 alongside foo1.
        let foo2 = tl.intervals.iter().find(|i| i.func == FOO2).unwrap();
        assert_eq!(foo2.end_ns, 60);
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
    }

    #[test]
    fn exit_without_enter_is_ignored() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            exit(10, T0, FOO1), // never entered
            exit(100, T0, MAIN),
        ]);
        assert_eq!(tl.warnings.len(), 1);
        assert!(matches!(
            tl.warnings[0],
            TimelineWarning::ExitWithoutEnter { func: FOO1, .. }
        ));
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.intervals.len(), 1);
    }

    #[test]
    fn empty_input_is_empty_timeline() {
        let tl = Timeline::build(&[]);
        assert!(tl.intervals.is_empty());
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.span_ns(), 0);
    }

    #[test]
    fn active_at_respects_half_open_intervals() {
        let tl = Timeline::build(&[
            enter(10, T0, MAIN),
            exit(20, T0, MAIN),
            enter(20, T0, FOO1),
            exit(30, T0, FOO1),
        ]);
        let at20: Vec<FunctionId> = tl.active_at(20).iter().map(|i| i.func).collect();
        assert_eq!(at20, vec![FOO1], "end is exclusive, start inclusive");
        assert!(tl.active_at(9).is_empty());
        assert!(tl.active_at(30).is_empty());
    }

    #[test]
    fn zero_length_function_is_recorded_but_contains_nothing() {
        let tl = Timeline::build(&[
            enter(10, T0, MAIN),
            enter(15, T0, FOO1),
            exit(15, T0, FOO1),
            exit(20, T0, MAIN),
        ]);
        let foo = tl.intervals.iter().find(|i| i.func == FOO1).unwrap();
        assert_eq!(foo.duration_ns(), 0);
        assert!(!foo.contains(15));
        assert_eq!(tl.times[&FOO1].calls, 1);
    }

    #[test]
    fn deep_recursion_is_linear_not_quadratic() {
        // 10k-deep recursion should build fine (guards a stack-walk
        // accident turning this O(n²)).
        let mut events = Vec::new();
        let n = 10_000u64;
        for i in 0..n {
            events.push(enter(i, T0, FOO1));
        }
        for i in 0..n {
            events.push(exit(n + i, T0, FOO1));
        }
        let tl = Timeline::build(&events);
        assert_eq!(tl.intervals.len(), n as usize);
        assert_eq!(tl.times[&FOO1].calls, n);
        assert_eq!(tl.times[&FOO1].inclusive_ns, 2 * n - 1);
    }
}
