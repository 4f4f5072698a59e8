//! Event sinks and per-thread buffering.
//!
//! The <7 % overhead claim of §3.4 depends on the entry/exit hot path doing
//! almost nothing: stamp, push into a thread-local vector, return. Flushing
//! to the shared sink happens in batches. [`EventSink`] is the shared
//! endpoint; [`VecSink`] collects in memory (native profiling and tests),
//! [`ChannelSink`] forwards through a *bounded* crossbeam channel to a
//! writer thread (how the original's trace-file writer was decoupled).
//!
//! ## Backpressure
//!
//! The channel is bounded so a slow writer (disk stall, fsync storm) can
//! never let the queue grow without limit and take the process down with
//! it. What happens at the limit is an explicit [`OverflowPolicy`]:
//! `Block` applies backpressure to the submitting thread (no data loss,
//! the profiled code momentarily pays the writer's cost), `DropNewest`
//! sheds the incoming batch and counts every shed event per producing
//! thread, so the loss is surfaced instead of silently absorbed.

use crate::event::{Event, ThreadId};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Receives batches of events from instrumented threads and `tempd`.
pub trait EventSink: Send + Sync {
    /// Accept a batch. Implementations must tolerate being called from
    /// many threads concurrently.
    fn submit(&self, batch: &[Event]);

    /// Events this sink has dropped (overflow shedding) that were produced
    /// by `thread`. Lossless sinks report 0.
    fn dropped_for(&self, thread: ThreadId) -> u64 {
        let _ = thread;
        0
    }

    /// Total events this sink has dropped across all threads.
    fn dropped_total(&self) -> u64 {
        0
    }
}

/// An in-memory sink: a mutex-protected vector.
#[derive(Default)]
pub struct VecSink {
    events: Mutex<Vec<Event>>,
}

impl VecSink {
    /// New empty sink.
    pub fn new() -> Arc<Self> {
        Arc::new(VecSink::default())
    }

    /// Drain everything collected so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn submit(&self, batch: &[Event]) {
        self.events.lock().extend_from_slice(batch);
    }
}

/// What a bounded [`ChannelSink`] does when its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the submitting thread until the writer frees a slot. No data
    /// loss; the profiled code absorbs the writer's latency.
    #[default]
    Block,
    /// Drop the incoming batch and account every shed event against its
    /// producing thread. The profiled code never stalls; the loss is
    /// reported through [`EventSink::dropped_for`].
    DropNewest,
}

/// A sink that forwards batches over a *bounded* channel to a consumer
/// thread, with an explicit [`OverflowPolicy`] and exact per-thread
/// dropped-event accounting.
pub struct ChannelSink {
    tx: crossbeam::channel::SyncSender<Vec<Event>>,
    policy: OverflowPolicy,
    dropped_total: AtomicU64,
    // Per-thread shed counts. Only touched on the overflow path, which is
    // already slow (the queue is full), so a mutex-protected map is fine.
    dropped_by_thread: Mutex<BTreeMap<ThreadId, u64>>,
    dropped_metric: tempest_obs::Counter,
}

impl ChannelSink {
    /// Default queue depth, in batches. At the default
    /// [`ThreadBuffer::DEFAULT_CAPACITY`] of 4096 events per batch this
    /// bounds in-flight memory to ≈24 MiB while still riding out multi-
    /// second writer stalls.
    pub const DEFAULT_QUEUE_BATCHES: usize = 256;

    /// Create a sink whose queue holds at most `capacity` batches,
    /// overflowing according to `policy`.
    pub fn bounded(capacity: usize, policy: OverflowPolicy) -> (Arc<Self>, Receiver<Vec<Event>>) {
        let (tx, rx) = crossbeam::channel::bounded(capacity.max(1));
        (
            Arc::new(ChannelSink {
                tx,
                policy,
                dropped_total: AtomicU64::new(0),
                dropped_by_thread: Mutex::new(BTreeMap::new()),
                dropped_metric: tempest_obs::global().counter("sink_dropped_events_total"),
            }),
            rx,
        )
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Per-thread dropped-event counts (snapshot), for sinks that shed.
    pub fn dropped_by_thread(&self) -> BTreeMap<ThreadId, u64> {
        self.dropped_by_thread.lock().clone()
    }

    fn account_dropped(&self, batch: &[Event]) {
        self.dropped_total
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.dropped_metric.add(batch.len() as u64);
        let mut map = self.dropped_by_thread.lock();
        for e in batch {
            *map.entry(e.thread).or_insert(0) += 1;
        }
    }
}

impl EventSink for ChannelSink {
    fn submit(&self, batch: &[Event]) {
        if batch.is_empty() {
            return;
        }
        match self.policy {
            OverflowPolicy::Block => {
                // A closed receiver means the session is over; drop
                // silently, like the original library ignoring writes after
                // its destructor ran. (send never blocks forever: a full
                // queue whose receiver disappears errors out.)
                let _ = self.tx.send(batch.to_vec());
            }
            OverflowPolicy::DropNewest => {
                use crossbeam::channel::TrySendError;
                match self.tx.try_send(batch.to_vec()) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => self.account_dropped(batch),
                    // Session over: not backpressure, not counted.
                    Err(TrySendError::Disconnected(_)) => {}
                }
            }
        }
    }

    fn dropped_for(&self, thread: ThreadId) -> u64 {
        *self.dropped_by_thread.lock().get(&thread).unwrap_or(&0)
    }

    fn dropped_total(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }
}

/// A per-thread staging buffer. Push is the hot path: one bounds check and
/// a vector write; the batch is handed to the sink when `capacity` is
/// reached or on flush/drop.
pub struct ThreadBuffer {
    buf: Vec<Event>,
    capacity: usize,
    sink: Arc<dyn EventSink>,
    flushes: tempest_obs::Counter,
    batch_events: tempest_obs::Histogram,
}

impl ThreadBuffer {
    /// Default staging capacity — 4096 events ≈ 96 KiB, large enough that
    /// flushes are rare for realistic call rates.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// New buffer feeding `sink`.
    pub fn new(sink: Arc<dyn EventSink>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let reg = tempest_obs::global();
        ThreadBuffer {
            buf: Vec::with_capacity(capacity),
            capacity,
            sink,
            flushes: reg.counter("probe_flush_total"),
            batch_events: reg.histogram("probe_flush_batch_events"),
        }
    }

    /// Record one event.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        self.buf.push(ev);
        if self.buf.len() >= self.capacity {
            self.flush();
        }
    }

    /// Hand everything staged to the sink.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.sink.submit(&self.buf);
            self.flushes.inc();
            self.batch_events.record(self.buf.len() as u64);
            self.buf.clear();
        }
    }

    /// Events currently staged (not yet flushed).
    pub fn staged(&self) -> usize {
        self.buf.len()
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ThreadId;
    use crate::func::FunctionId;

    fn ev(ts: u64) -> Event {
        Event::enter(ts, ThreadId(0), FunctionId(0))
    }

    #[test]
    fn vec_sink_collects_batches() {
        let sink = VecSink::new();
        sink.submit(&[ev(1), ev(2)]);
        sink.submit(&[ev(3)]);
        assert_eq!(sink.len(), 3);
        let drained = sink.drain();
        assert_eq!(drained.len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn thread_buffer_flushes_at_capacity() {
        let sink = VecSink::new();
        let mut buf = ThreadBuffer::new(sink.clone(), 4);
        for i in 0..3 {
            buf.push(ev(i));
        }
        assert_eq!(sink.len(), 0, "below capacity: nothing flushed");
        assert_eq!(buf.staged(), 3);
        buf.push(ev(3));
        assert_eq!(sink.len(), 4, "capacity reached: flushed");
        assert_eq!(buf.staged(), 0);
    }

    #[test]
    fn thread_buffer_flushes_on_drop() {
        let sink = VecSink::new();
        {
            let mut buf = ThreadBuffer::new(sink.clone(), 100);
            buf.push(ev(1));
            buf.push(ev(2));
        }
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn explicit_flush_is_idempotent() {
        let sink = VecSink::new();
        let mut buf = ThreadBuffer::new(sink.clone(), 100);
        buf.push(ev(1));
        buf.flush();
        buf.flush();
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn channel_sink_forwards_batches() {
        let (sink, rx) =
            ChannelSink::bounded(ChannelSink::DEFAULT_QUEUE_BATCHES, OverflowPolicy::Block);
        sink.submit(&[ev(1), ev(2)]);
        sink.submit(&[ev(3)]);
        drop(sink);
        let all: Vec<Event> = rx.iter().flatten().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].timestamp_ns, 3);
    }

    #[test]
    fn channel_sink_survives_closed_receiver() {
        let (sink, rx) =
            ChannelSink::bounded(ChannelSink::DEFAULT_QUEUE_BATCHES, OverflowPolicy::Block);
        drop(rx);
        sink.submit(&[ev(1)]); // must not panic
    }

    #[test]
    fn concurrent_submission_loses_nothing() {
        let sink = VecSink::new();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let sink = sink.clone();
            handles.push(std::thread::spawn(move || {
                let mut buf = ThreadBuffer::new(sink, 16);
                for i in 0..1000 {
                    buf.push(ev(t * 10_000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 8000);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let sink = VecSink::new();
        let mut buf = ThreadBuffer::new(sink.clone(), 0);
        buf.push(ev(1));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn drop_newest_sheds_when_full_and_counts_exactly() {
        let (sink, rx) = ChannelSink::bounded(2, OverflowPolicy::DropNewest);
        // Nobody draining: slots 1 and 2 fill, the rest shed.
        sink.submit(&[ev(1), ev(2)]);
        sink.submit(&[ev(3)]);
        sink.submit(&[ev(4), ev(5), ev(6)]); // shed: 3 events
        sink.submit(&[ev(7)]); // shed: 1 event
        assert_eq!(sink.dropped_total(), 4);
        assert_eq!(sink.dropped_for(ThreadId(0)), 4);
        assert_eq!(sink.dropped_for(ThreadId(9)), 0);
        let delivered: Vec<Event> = rx.try_iter().flatten().collect();
        assert_eq!(delivered.len(), 3, "queued batches still delivered");
    }

    #[test]
    fn per_thread_drop_accounting_is_exact_under_concurrency() {
        // Queue permanently full (no consumer, capacity 1, pre-filled):
        // every subsequent submit sheds, so the accounting must equal
        // exactly what each thread produced.
        let (sink, rx) = ChannelSink::bounded(1, OverflowPolicy::DropNewest);
        sink.submit(&[ev(0)]);
        const THREADS: u32 = 8;
        const PER_THREAD: u64 = 500;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let sink = sink.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    sink.submit(&[Event::enter(i, ThreadId(t), FunctionId(0))]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.dropped_total(), THREADS as u64 * PER_THREAD);
        for t in 0..THREADS {
            assert_eq!(sink.dropped_for(ThreadId(t)), PER_THREAD);
        }
        drop(rx);
    }

    #[test]
    fn blocking_policy_loses_nothing_under_concurrency() {
        let (sink, rx) = ChannelSink::bounded(2, OverflowPolicy::Block);
        let consumer = std::thread::spawn(move || rx.iter().flatten().count());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let sink = sink.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    sink.submit(&[Event::enter(i, ThreadId(t), FunctionId(0))]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.dropped_total(), 0);
        drop(sink); // close channel → consumer finishes
        assert_eq!(consumer.join().unwrap(), 4000);
    }

    #[test]
    fn blocked_submitters_do_not_deadlock_on_shutdown() {
        // Producers blocked on a full queue must unblock (with the batch
        // discarded, not delivered) once the receiver goes away.
        let (sink, rx) = ChannelSink::bounded(1, OverflowPolicy::Block);
        sink.submit(&[ev(1)]); // fills the queue
        let blocked: Vec<_> = (0..4)
            .map(|_| {
                let sink = sink.clone();
                std::thread::spawn(move || sink.submit(&[ev(2)]))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx); // shutdown while submitters are parked on the full queue
        for h in blocked {
            h.join().expect("submitter must unblock after shutdown");
        }
    }
}
