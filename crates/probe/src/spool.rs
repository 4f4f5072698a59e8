//! Crash-consistent trace spooling: a segmented write-ahead log.
//!
//! The in-memory [`Trace`] loses everything on a crash. This module
//! gives Tempest a durability story strong enough for `kill -9`: events
//! stream to disk as CRC-checksummed, length-prefixed frames inside
//! bounded-size *segment* files. The active segment is `seg-NNNNNN.open`;
//! when it fills it is fsynced and atomically renamed to `seg-NNNNNN.seg`,
//! so every sealed segment is a complete, verifiable unit. A small text
//! manifest records the session; recovery does not depend on it (the
//! manifest itself could be torn) — [`recover`] rescans the segments,
//! verifies every frame checksum, discards the torn tail, and reassembles
//! a [`Trace`] plus a [`SpoolReport`] accounting exactly what survived.
//!
//! Layout per segment: 8-byte magic `TMPSPOL1`, `u64` sequence number,
//! then frames. Frame = `kind: u8 | len: u32 | crc: u32 | payload`, with
//! the CRC-32 computed over `kind || len || payload` so a bit flip in any
//! of the three is caught. Frame kinds: 1 = event batch (fixed 21-byte
//! records), 2 = symbol-table snapshot, 3 = node metadata, 4 = session
//! footer. The footer is written only on orderly shutdown — its presence
//! is the "clean" marker — and carries the backpressure drop counters so
//! shed events are reported, never silently forgotten.

use crate::buffer::{ChannelSink, EventSink, OverflowPolicy};
use crate::event::{Event, EventKind, ThreadId};
use crate::func::{FunctionDef, FunctionId, FunctionRegistry, ScopeKind};
use crate::limits::{CancelToken, DecodeLimits, LimitExceeded};
use crate::trace::{NodeMeta, SalvageReport, SensorMeta, Trace, TraceError, TraceSection};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tempest_sensors::SensorId;

/// Magic prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"TMPSPOL1";
/// Segment header: magic + sequence number. Public so corruption
/// injectors can damage the frame area without destroying the header.
pub const SEGMENT_HEADER_LEN: usize = 8 + 8;
/// Frame header: kind + payload length + checksum.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4;
/// One spooled event record: tag + thread + payload + aux + timestamp.
const EVENT_RECORD_LEN: usize = 1 + 4 + 4 + 4 + 8;
/// Session-footer payload: four u64 counters.
const FOOTER_LEN: usize = 4 * 8;
/// Manifest file name inside a spool directory.
pub const MANIFEST_NAME: &str = "spool.manifest";
/// Shipper cursor file name inside a source spool directory.
pub const SHIP_CURSOR_NAME: &str = "ship.cursor";

/// Frame kind: a batch of fixed-width event records.
pub const FRAME_EVENTS: u8 = 1;
/// Frame kind: a symbol-table snapshot.
pub const FRAME_SYMBOLS: u8 = 2;
/// Frame kind: node metadata.
pub const FRAME_NODE: u8 = 3;
/// Frame kind: the orderly-shutdown session footer.
pub const FRAME_FOOTER: u8 = 4;
// Frame kind 5 was the first shipped-frame envelope, which carried no
// transit timestamps. It is retired: nothing writes it and readers skip it
// as an unknown kind. Never reuse the byte.
/// Frame kind: an encoded [`tempest_obs::Telemetry`] snapshot of the
/// writing process's metric registry plus sampling health. Written
/// periodically by the spool writer thread so self-telemetry rides the
/// same CRC-framed, ACKed, resumable transport as the data it describes.
/// Recovery verifies and counts these frames but does not fold them into
/// the trace; readers that predate them skip them as unknown kinds.
pub const FRAME_METRICS: u8 = 6;
/// Frame kind: a network-shipped frame. The payload is the source-spool
/// cursor (`seg: u64 | off: u64`), the shipper's send time and the
/// collector's receive time (both wall-clock Unix nanoseconds), then the
/// original frame's kind byte and payload. The collector daemon writes
/// every received frame wrapped this way so its spool is self-describing:
/// recovery unwraps the inner frame, uses the cursor to discard
/// duplicates a reconnecting shipper may have re-sent (which is what
/// makes resume idempotent), and turns the stamps into per-frame
/// spool→ship→collect latency. [`unwrap_frame`] is its one decoder.
pub const FRAME_SHIPPED2: u8 = 7;
/// The shipped-frame wrapper prefix: cursor (two u64), origin and
/// collect timestamps (two u64), inner kind.
pub const SHIPPED2_PREFIX_LEN: usize = 8 + 8 + 8 + 8 + 1;
/// Flight-recorder dump file name beside a spool's segments.
pub const FLIGHT_DUMP_NAME: &str = "flight.json";

// ---- CRC-32 (IEEE) ---------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Running CRC-32 state; feed slices, then [`Crc32::finish`].
#[derive(Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC-32 (IEEE 802.3) of one contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The checksum stored in a frame header: CRC-32 over
/// `kind || len_le || payload`, so damage to any of the three is caught.
pub fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&[kind]);
    c.update(&(payload.len() as u32).to_le_bytes());
    c.update(payload);
    c.finish()
}

/// Append one encoded frame (header + payload) to `buf`. This is the
/// exact byte layout [`SpoolWriter`] produces; the collector daemon uses
/// it to write received frames back out as standard spool segments.
pub fn encode_frame_into(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame_crc(kind, payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// The header bytes that open every segment file with sequence `seq`.
pub fn segment_header_bytes(seq: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut head = [0u8; SEGMENT_HEADER_LEN];
    head[..8].copy_from_slice(SEGMENT_MAGIC);
    head[8..].copy_from_slice(&seq.to_le_bytes());
    head
}

// ---- configuration ---------------------------------------------------------

/// When the spool writer forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; rely on the OS page cache. Fastest, weakest: a power
    /// loss can take recently-sealed segments with it (a plain process
    /// kill cannot — the kernel still holds the written pages).
    Never,
    /// Fsync once per segment, as it is sealed. A crash loses at most the
    /// open segment.
    PerSegment,
    /// Fsync after every appended batch. `kill -9` loses at most the
    /// batches the writer had not yet drained from the queue.
    #[default]
    PerBatch,
}

/// Spool-writer configuration.
#[derive(Debug, Clone)]
pub struct SpoolConfig {
    /// Directory that holds the segments and manifest (created if absent).
    pub dir: PathBuf,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Durability/performance trade-off for fsync.
    pub fsync: FsyncPolicy,
    /// Depth of the bounded submit queue, in batches.
    pub queue_batches: usize,
    /// What submitters do when the queue is full.
    pub overflow: OverflowPolicy,
    /// How often the writer thread appends a [`FRAME_METRICS`] snapshot
    /// of the process's metric registry to the spool (`None` disables).
    /// Emission is opportunistic — checked after each drained batch and
    /// once more at shutdown — so an idle spool emits nothing.
    pub telemetry_interval: Option<std::time::Duration>,
}

impl SpoolConfig {
    /// Default segment size: small enough that a torn segment loses
    /// little, large enough that rotation is rare.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

    /// Default spacing between self-telemetry frames.
    pub const DEFAULT_TELEMETRY_INTERVAL: std::time::Duration = std::time::Duration::from_secs(5);

    /// Configuration with defaults for everything but the directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpoolConfig {
            dir: dir.into(),
            segment_bytes: Self::DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::default(),
            queue_batches: ChannelSink::DEFAULT_QUEUE_BATCHES,
            overflow: OverflowPolicy::default(),
            telemetry_interval: Some(Self::DEFAULT_TELEMETRY_INTERVAL),
        }
    }

    /// Override the segment rotation threshold (clamped to ≥ 4 KiB).
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(4096);
        self
    }

    /// Override the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Override the bounded-queue depth (in batches, clamped to ≥ 1).
    pub fn queue_batches(mut self, batches: usize) -> Self {
        self.queue_batches = batches.max(1);
        self
    }

    /// Override the overflow policy of the bounded queue.
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Override how often self-telemetry frames are spooled (`None`
    /// disables them entirely).
    pub fn telemetry_interval(mut self, interval: Option<std::time::Duration>) -> Self {
        self.telemetry_interval = interval;
        self
    }
}

/// Counters reported by a finished spool writer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoolStats {
    /// Segments written (sealed + the final one).
    pub segments: u32,
    /// Scope events that reached disk.
    pub events_written: u64,
    /// Sensor samples that reached disk.
    pub samples_written: u64,
    /// Scope events shed by the bounded queue before reaching the writer.
    pub events_dropped: u64,
    /// Sensor samples shed by the bounded queue.
    pub samples_dropped: u64,
    /// Total payload bytes appended across all segments.
    pub bytes_written: u64,
    /// Whole batches dropped because the disk rejected the write
    /// (`ENOSPC`, permission loss, a vanished directory, …). The writer
    /// degrades instead of killing the session; see
    /// [`SpoolWriter::append_batch`].
    pub batches_dropped_io: u64,
    /// Scope events lost inside IO-dropped batches.
    pub events_dropped_io: u64,
    /// Sensor samples lost inside IO-dropped batches.
    pub samples_dropped_io: u64,
    /// Distinct write failures observed (degradation entries plus failed
    /// revival attempts).
    pub io_errors: u64,
}

// ---- writer ----------------------------------------------------------------

/// Appends frames to the active segment, rotating and sealing as it fills.
///
/// Singly threaded by design: the [`SpoolSink`] writer thread owns one.
/// Kept symbol-free (the caller passes the symbol table into
/// [`rotate`](Self::rotate)/[`finish`](Self::finish)) so it is unit-testable
/// without a live profiler.
pub struct SpoolWriter {
    dir: PathBuf,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    node: NodeMeta,
    seq: u64,
    out: BufWriter<File>,
    open_name: String,
    bytes_in_segment: u64,
    sealed: Vec<String>,
    events_written: u64,
    samples_written: u64,
    total_bytes: u64,
    scratch: Vec<u8>,
    metrics: SpoolMetrics,
    /// Set after a write failure: the active segment is poisoned (its
    /// tail may be torn), so appends are shed until a fresh segment can
    /// be opened. Keeps an `ENOSPC` from killing the profiled run.
    degraded: bool,
    drops_since_revive: u32,
    batches_dropped_io: u64,
    events_dropped_io: u64,
    samples_dropped_io: u64,
    io_errors: u64,
    telemetry_interval: Option<std::time::Duration>,
    last_telemetry: std::time::Instant,
    telemetry_frames: u64,
}

/// Self-metrics handles for one spool writer; resolved once at
/// [`SpoolWriter::create`] so the append path touches only atomics.
struct SpoolMetrics {
    frames: tempest_obs::Counter,
    bytes: tempest_obs::Counter,
    fsyncs: tempest_obs::Counter,
    fsync_ns: tempest_obs::Histogram,
    segments_sealed: tempest_obs::Counter,
    io_errors: tempest_obs::Counter,
    batches_dropped_io: tempest_obs::Counter,
    telemetry_frames: tempest_obs::Counter,
}

impl SpoolMetrics {
    fn resolve() -> Self {
        let reg = tempest_obs::global();
        SpoolMetrics {
            frames: reg.counter("spool_frames_total"),
            bytes: reg.counter("spool_bytes_total"),
            fsyncs: reg.counter("spool_fsyncs_total"),
            fsync_ns: reg.histogram("spool_fsync_ns"),
            segments_sealed: reg.counter("spool_segments_sealed_total"),
            io_errors: reg.counter("spool_io_errors_total"),
            batches_dropped_io: reg.counter("spool_batches_dropped_io_total"),
            telemetry_frames: reg.counter("spool_telemetry_frames_total"),
        }
    }
}

impl SpoolWriter {
    /// Create the spool directory (if needed) and open the first segment.
    /// The node metadata is stamped at the head of every segment so each
    /// one is independently attributable after a crash.
    pub fn create(config: &SpoolConfig, node: NodeMeta) -> io::Result<SpoolWriter> {
        std::fs::create_dir_all(&config.dir)?;
        let mut w = SpoolWriter {
            dir: config.dir.clone(),
            segment_bytes: config.segment_bytes.max(4096),
            fsync: config.fsync,
            node,
            seq: 0,
            // Replaced by open_segment below; a throwaway sink keeps the
            // field non-optional.
            out: BufWriter::new(File::create(config.dir.join(".spool-init"))?),
            open_name: String::new(),
            bytes_in_segment: 0,
            sealed: Vec::new(),
            events_written: 0,
            samples_written: 0,
            total_bytes: 0,
            scratch: Vec::new(),
            metrics: SpoolMetrics::resolve(),
            degraded: false,
            drops_since_revive: 0,
            batches_dropped_io: 0,
            events_dropped_io: 0,
            samples_dropped_io: 0,
            io_errors: 0,
            telemetry_interval: config.telemetry_interval,
            last_telemetry: std::time::Instant::now(),
            telemetry_frames: 0,
        };
        std::fs::remove_file(w.dir.join(".spool-init")).ok();
        w.open_segment()?;
        w.write_manifest(false)?;
        Ok(w)
    }

    fn open_segment(&mut self) -> io::Result<()> {
        self.open_name = format!("seg-{:06}.open", self.seq);
        let file = File::create(self.dir.join(&self.open_name))?;
        self.out = BufWriter::new(file);
        self.out.write_all(SEGMENT_MAGIC)?;
        self.out.write_all(&self.seq.to_le_bytes())?;
        self.bytes_in_segment = SEGMENT_HEADER_LEN as u64;
        self.total_bytes += SEGMENT_HEADER_LEN as u64;
        let node = encode_node(&self.node);
        self.write_frame(FRAME_NODE, &node)
    }

    fn write_frame(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        let crc = frame_crc(kind, payload);
        self.out.write_all(&[kind])?;
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(payload)?;
        let n = (FRAME_HEADER_LEN + payload.len()) as u64;
        self.bytes_in_segment += n;
        self.total_bytes += n;
        self.metrics.frames.inc();
        self.metrics.bytes.add(n);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        self.metrics.fsyncs.inc();
        self.metrics.fsync_ns.record_duration(t0.elapsed());
        Ok(())
    }

    /// Retry opening a fresh segment after this many IO-dropped batches.
    const REVIVE_INTERVAL: u32 = 64;

    /// Append one batch of mixed events as a single checksummed frame.
    /// Under [`FsyncPolicy::PerBatch`] the frame is on stable storage when
    /// this returns.
    ///
    /// Write failures (`ENOSPC`, a vanished directory, permission loss)
    /// do **not** bubble out and kill the run: the writer degrades
    /// gracefully. The poisoned segment is abandoned where it stands (its
    /// torn tail is exactly what recovery already discards), the batch is
    /// counted as IO-dropped in [`SpoolStats`] and the
    /// `spool_batches_dropped_io_total` counter, and every
    /// `REVIVE_INTERVAL` dropped batches the writer tries to open a fresh
    /// segment in case the disk recovered.
    pub fn append_batch(&mut self, batch: &[Event]) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.degraded && !self.try_revive() {
            self.count_io_drop(batch);
            return Ok(());
        }
        if let Err(_e) = self.append_batch_inner(batch) {
            self.enter_degraded();
            self.count_io_drop(batch);
        }
        Ok(())
    }

    fn append_batch_inner(&mut self, batch: &[Event]) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.reserve(batch.len() * EVENT_RECORD_LEN);
        let mut events = 0u64;
        let mut samples = 0u64;
        for e in batch {
            let mut rec = [0u8; EVENT_RECORD_LEN];
            let (tag, payload, aux) = match e.kind {
                EventKind::Enter { func } => (1u8, func.0, 0i32),
                EventKind::Exit { func } => (2u8, func.0, 0),
                EventKind::Gap { sensor } => (3u8, sensor.0 as u32, 0),
                EventKind::Sample {
                    sensor,
                    millicelsius,
                } => (4u8, sensor.0 as u32, millicelsius),
            };
            if tag == 4 {
                samples += 1;
            } else {
                events += 1;
            }
            rec[0] = tag;
            rec[1..5].copy_from_slice(&e.thread.0.to_le_bytes());
            rec[5..9].copy_from_slice(&payload.to_le_bytes());
            rec[9..13].copy_from_slice(&aux.to_le_bytes());
            rec[13..21].copy_from_slice(&e.timestamp_ns.to_le_bytes());
            self.scratch.extend_from_slice(&rec);
        }
        let payload = std::mem::take(&mut self.scratch);
        let result = self.write_frame(FRAME_EVENTS, &payload);
        self.scratch = payload;
        result?;
        if self.fsync == FsyncPolicy::PerBatch {
            self.sync()?;
        }
        // Counted only once the frame (and, per policy, its fsync)
        // succeeded, so a failed batch is accounted as dropped, not both.
        self.events_written += events;
        self.samples_written += samples;
        Ok(())
    }

    /// Append one [`FRAME_METRICS`] snapshot of the process registry if
    /// the configured interval has elapsed. Called by the writer thread
    /// between batches; a write failure degrades the writer exactly like
    /// a failed data batch rather than bubbling an error.
    pub fn maybe_append_telemetry(&mut self) {
        let Some(interval) = self.telemetry_interval else {
            return;
        };
        if self.last_telemetry.elapsed() < interval {
            return;
        }
        self.append_telemetry_now();
    }

    /// Unconditionally append one telemetry frame (unless degraded or
    /// metrics are globally disabled). Used by
    /// [`maybe_append_telemetry`](Self::maybe_append_telemetry) and once
    /// more at shutdown so the spool's last snapshot carries final totals.
    pub fn append_telemetry_now(&mut self) {
        if self.degraded || self.telemetry_interval.is_none() {
            return;
        }
        let reg = tempest_obs::global();
        if !reg.is_enabled() {
            return;
        }
        self.last_telemetry = std::time::Instant::now();
        let payload = tempest_obs::encode_telemetry(&tempest_obs::Telemetry {
            node_id: self.node.node_id,
            hostname: self.node.hostname.clone(),
            origin_unix_ns: tempest_obs::unix_now_ns(),
            snapshot: reg.snapshot(),
        });
        if self.write_frame(FRAME_METRICS, &payload).is_err() {
            self.enter_degraded();
        } else {
            self.telemetry_frames += 1;
            self.metrics.telemetry_frames.inc();
        }
    }

    /// Telemetry frames appended so far.
    pub fn telemetry_frames(&self) -> u64 {
        self.telemetry_frames
    }

    /// Record one write failure and poison the active segment.
    fn enter_degraded(&mut self) {
        self.degraded = true;
        self.drops_since_revive = 0;
        self.io_errors += 1;
        self.metrics.io_errors.inc();
        tempest_obs::event!(
            Error,
            "spool",
            "write failed; shedding batches until the disk revives",
            dir = self.dir.display(),
            seq = self.seq,
            io_errors = self.io_errors,
        );
        tempest_obs::flight::dump_now("spool writer degraded");
    }

    /// Account a batch shed because the disk is rejecting writes.
    fn count_io_drop(&mut self, batch: &[Event]) {
        self.batches_dropped_io += 1;
        self.metrics.batches_dropped_io.inc();
        for e in batch {
            if matches!(e.kind, EventKind::Sample { .. }) {
                self.samples_dropped_io += 1;
            } else {
                self.events_dropped_io += 1;
            }
        }
    }

    /// Periodically attempt to leave degraded mode by opening a brand-new
    /// segment (the poisoned one is abandoned; recovery discards its torn
    /// tail). Returns true when the writer is healthy again.
    fn try_revive(&mut self) -> bool {
        self.drops_since_revive += 1;
        if self.drops_since_revive < Self::REVIVE_INTERVAL {
            return false;
        }
        self.drops_since_revive = 0;
        self.revive_now()
    }

    /// One immediate revival attempt: fresh directory (it may have been
    /// deleted), fresh segment, fresh sequence number.
    fn revive_now(&mut self) -> bool {
        let attempt = (|| -> io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            self.seq += 1;
            self.open_segment()
        })();
        match attempt {
            Ok(()) => {
                self.degraded = false;
                tempest_obs::event!(
                    Info,
                    "spool",
                    "writer revived on a fresh segment",
                    seq = self.seq
                );
                true
            }
            Err(_) => {
                self.io_errors += 1;
                self.metrics.io_errors.inc();
                false
            }
        }
    }

    /// True while the writer is shedding batches after a write failure.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// True once the active segment has outgrown the configured size.
    /// Never true while degraded: there is no healthy segment to seal.
    pub fn should_rotate(&self) -> bool {
        !self.degraded && self.bytes_in_segment >= self.segment_bytes
    }

    /// Seal the active segment (symbol snapshot, flush, fsync per policy,
    /// atomic rename to `.seg`) and open the next one. The snapshot makes
    /// every sealed segment decodable with real names even if the process
    /// dies before the footer.
    pub fn rotate(&mut self, functions: &[FunctionDef]) -> io::Result<()> {
        if !functions.is_empty() {
            let payload = encode_symbols(functions);
            self.write_frame(FRAME_SYMBOLS, &payload)?;
        }
        self.seal_segment()?;
        self.seq += 1;
        self.open_segment()?;
        self.write_manifest(false)
    }

    /// [`rotate`](Self::rotate), but a failure degrades the writer
    /// instead of bubbling an error — the writer-thread variant, so a
    /// full disk at rotation time cannot kill the session.
    pub fn rotate_or_degrade(&mut self, functions: &[FunctionDef]) {
        if self.degraded {
            return;
        }
        if self.rotate(functions).is_err() {
            self.enter_degraded();
        }
    }

    fn seal_segment(&mut self) -> io::Result<()> {
        match self.fsync {
            FsyncPolicy::Never => self.out.flush()?,
            FsyncPolicy::PerSegment | FsyncPolicy::PerBatch => self.sync()?,
        }
        let sealed_name = format!("seg-{:06}.seg", self.seq);
        std::fs::rename(self.dir.join(&self.open_name), self.dir.join(&sealed_name))?;
        sync_dir(&self.dir);
        self.sealed.push(sealed_name);
        self.metrics.segments_sealed.inc();
        Ok(())
    }

    /// Orderly shutdown: write the symbol snapshot and the session footer
    /// (carrying the backpressure drop counters, with IO-shed events
    /// folded in), seal the final segment, and mark the manifest clean.
    ///
    /// A degraded writer makes one last revival attempt so the footer can
    /// land on a fresh segment; if the disk is still refusing writes the
    /// statistics are returned anyway — shutdown accounting must survive
    /// the same faults the data path does.
    pub fn finish(
        mut self,
        functions: &[FunctionDef],
        events_dropped: u64,
        samples_dropped: u64,
    ) -> io::Result<SpoolStats> {
        if self.degraded && !self.revive_now() {
            self.io_errors += 1; // the footer itself was lost
            return Ok(self.stats(events_dropped, samples_dropped));
        }
        // Final telemetry snapshot so the last spooled frame before the
        // footer carries the session's closing totals.
        self.append_telemetry_now();
        let seal = (|| -> io::Result<()> {
            if !functions.is_empty() {
                let payload = encode_symbols(functions);
                self.write_frame(FRAME_SYMBOLS, &payload)?;
            }
            let mut footer = [0u8; FOOTER_LEN];
            footer[0..8].copy_from_slice(&self.events_written.to_le_bytes());
            footer[8..16].copy_from_slice(&self.samples_written.to_le_bytes());
            footer[16..24]
                .copy_from_slice(&(events_dropped + self.events_dropped_io).to_le_bytes());
            footer[24..32]
                .copy_from_slice(&(samples_dropped + self.samples_dropped_io).to_le_bytes());
            self.write_frame(FRAME_FOOTER, &footer)?;
            self.seal_segment()?;
            self.write_manifest(true)
        })();
        if seal.is_err() {
            self.io_errors += 1;
            self.metrics.io_errors.inc();
        }
        Ok(self.stats(events_dropped, samples_dropped))
    }

    fn stats(&self, events_dropped: u64, samples_dropped: u64) -> SpoolStats {
        SpoolStats {
            segments: self.sealed.len() as u32,
            events_written: self.events_written,
            samples_written: self.samples_written,
            events_dropped,
            samples_dropped,
            bytes_written: self.total_bytes,
            batches_dropped_io: self.batches_dropped_io,
            events_dropped_io: self.events_dropped_io,
            samples_dropped_io: self.samples_dropped_io,
            io_errors: self.io_errors,
        }
    }

    /// Write the manifest via sibling-temp + rename, so readers never see
    /// a half-written manifest. Informational: recovery rescans segments.
    fn write_manifest(&self, clean: bool) -> io::Result<()> {
        write_manifest_file(
            &self.dir,
            self.node.node_id,
            &self.node.hostname,
            clean,
            &self.sealed,
        )
    }
}

/// Write a spool manifest (atomic sibling-temp + rename). Shared with the
/// collector daemon, whose session directories are standard spools.
pub fn write_manifest_file(
    dir: &Path,
    node_id: u32,
    hostname: &str,
    clean: bool,
    sealed: &[String],
) -> io::Result<()> {
    let mut text = String::new();
    text.push_str("tempest-spool v1\n");
    text.push_str(&format!("node {node_id} {hostname}\n"));
    text.push_str(&format!("clean {}\n", u8::from(clean)));
    text.push_str(&format!("segments {}\n", sealed.len()));
    for name in sealed {
        text.push_str(name);
        text.push('\n');
    }
    let path = dir.join(MANIFEST_NAME);
    let tmp = dir.join(format!(".{}.tmp.{}", MANIFEST_NAME, std::process::id()));
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(()),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// What [`check_manifest`] found when comparing the manifest against the
/// segment files actually on disk. Recovery never trusts the manifest —
/// but `tempest doctor` flags disagreements, because a manifest that
/// claims segments the disk no longer has (or vice versa) means something
/// other than the writer touched the spool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManifestCheck {
    /// The manifest's clean-shutdown flag.
    pub clean: bool,
    /// Sealed segments the manifest lists.
    pub listed: u32,
    /// Listed in the manifest but missing on disk.
    pub missing: Vec<String>,
    /// Sealed on disk but absent from the manifest.
    pub unlisted: Vec<String>,
    /// `.open` (unsealed) segments present on disk. One is normal for a
    /// crashed session; any are suspect when the manifest says clean.
    pub unsealed: Vec<String>,
}

impl ManifestCheck {
    /// True when manifest and disk agree (allowing an unsealed segment
    /// only for unclean sessions).
    pub fn consistent(&self) -> bool {
        self.missing.is_empty()
            && self.unlisted.is_empty()
            && (!self.clean || self.unsealed.is_empty())
    }

    /// Human one-liners describing each disagreement, for doctor.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for name in &self.missing {
            out.push(format!("manifest lists {name} but it is missing on disk"));
        }
        for name in &self.unlisted {
            out.push(format!("sealed segment {name} is not in the manifest"));
        }
        if self.clean {
            for name in &self.unsealed {
                out.push(format!(
                    "unsealed segment {name} present although the manifest says clean"
                ));
            }
        }
        out
    }
}

/// Compare the manifest in `dir` against the segment files on disk.
/// Returns `Ok(None)` when there is no parseable manifest (recovery
/// does not need one, so its absence is not itself an inconsistency).
pub fn check_manifest(dir: &Path) -> io::Result<Option<ManifestCheck>> {
    let text = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    if lines.next() != Some("tempest-spool v1") {
        return Ok(None);
    }
    let mut check = ManifestCheck::default();
    let mut listed: Vec<String> = Vec::new();
    for line in lines {
        if let Some(flag) = line.strip_prefix("clean ") {
            check.clean = flag.trim() == "1";
        } else if line.starts_with("seg-") {
            listed.push(line.trim().to_string());
        }
    }
    check.listed = listed.len() as u32;
    let mut sealed_on_disk: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("seg-") && name.ends_with(".seg") {
            sealed_on_disk.push(name.to_string());
        } else if name.starts_with("seg-") && name.ends_with(".open") {
            check.unsealed.push(name.to_string());
        }
    }
    sealed_on_disk.sort();
    check.unsealed.sort();
    for name in &listed {
        if !sealed_on_disk.iter().any(|d| d == name) {
            check.missing.push(name.clone());
        }
    }
    for name in &sealed_on_disk {
        if !listed.iter().any(|l| l == name) {
            check.unlisted.push(name.clone());
        }
    }
    Ok(Some(check))
}

/// Fsync a directory so a just-renamed entry survives power loss. Best
/// effort: some filesystems reject directory fsync, and a failure here
/// only weakens durability, never correctness.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
}

// ---- payload encoding ------------------------------------------------------

fn push_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..len]);
}

fn encode_node(node: &NodeMeta) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&node.node_id.to_le_bytes());
    push_str(&mut buf, &node.hostname);
    buf.extend_from_slice(&(node.sensors.len() as u16).to_le_bytes());
    for s in &node.sensors {
        buf.extend_from_slice(&s.id.0.to_le_bytes());
        buf.push(crate::trace::encode_sensor_kind(s.kind));
        push_str(&mut buf, &s.label);
    }
    buf
}

fn encode_symbols(functions: &[FunctionDef]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(functions.len() as u32).to_le_bytes());
    for f in functions {
        buf.extend_from_slice(&f.id.0.to_le_bytes());
        buf.extend_from_slice(&f.address.to_le_bytes());
        buf.push(match f.kind {
            ScopeKind::Function => 0,
            ScopeKind::Block => 1,
        });
        push_str(&mut buf, &f.name);
    }
    buf
}

// ---- payload decoding ------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A length-prefixed string whose claimed length is checked against
    /// the limit *before* any bytes are touched.
    fn str(&mut self, limits: &DecodeLimits, what: &'static str) -> Result<String, FrameFail> {
        let len = self.u16().ok_or(FrameFail::Corrupt)? as usize;
        limits.check_string(what, len)?;
        let bytes = self.take(len).ok_or(FrameFail::Corrupt)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| FrameFail::Corrupt)
    }
}

/// Why a checksum-valid frame still failed to decode: structural damage
/// (discard the frame, keep scanning) versus a resource-limit overrun
/// (stop and surface the typed error — scanning further would let a
/// hostile spool keep costing us).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FrameFail {
    /// Structurally undecodable payload.
    Corrupt,
    /// A declared quantity exceeded the configured [`DecodeLimits`].
    Limit(LimitExceeded),
}

impl From<LimitExceeded> for FrameFail {
    fn from(e: LimitExceeded) -> Self {
        FrameFail::Limit(e)
    }
}

fn decode_events(payload: &[u8]) -> Option<Vec<Event>> {
    if !payload.len().is_multiple_of(EVENT_RECORD_LEN) {
        return None;
    }
    let mut out = Vec::with_capacity(payload.len() / EVENT_RECORD_LEN);
    for rec in payload.chunks_exact(EVENT_RECORD_LEN) {
        let tag = rec[0];
        let thread = ThreadId(u32::from_le_bytes(rec[1..5].try_into().unwrap()));
        let payload = u32::from_le_bytes(rec[5..9].try_into().unwrap());
        let aux = i32::from_le_bytes(rec[9..13].try_into().unwrap());
        let ts = u64::from_le_bytes(rec[13..21].try_into().unwrap());
        let kind = match tag {
            1 => EventKind::Enter {
                func: FunctionId(payload),
            },
            2 => EventKind::Exit {
                func: FunctionId(payload),
            },
            3 => EventKind::Gap {
                sensor: SensorId(payload as u16),
            },
            4 => EventKind::Sample {
                sensor: SensorId(payload as u16),
                millicelsius: aux,
            },
            _ => return None,
        };
        out.push(Event {
            timestamp_ns: ts,
            thread,
            kind,
        });
    }
    Some(out)
}

/// Minimum encoded size of one symbol entry: id + address + kind + empty
/// name. Bounds how many entries a payload of a given size can hold.
const SYMBOL_ENTRY_MIN_LEN: usize = 4 + 8 + 1 + 2;
/// Minimum encoded size of one sensor entry: id + kind + empty label.
const SENSOR_ENTRY_MIN_LEN: usize = 2 + 1 + 2;

fn decode_symbols(payload: &[u8], limits: &DecodeLimits) -> Result<Vec<FunctionDef>, FrameFail> {
    let mut r = Reader::new(payload);
    let count = r.u32().ok_or(FrameFail::Corrupt)? as usize;
    limits.check_count("symbols", count as u64, limits.max_functions as u64)?;
    // The declared count never drives the reservation directly: clamp to
    // what the payload bytes can actually hold.
    let mut out =
        Vec::with_capacity(limits.clamp_prealloc(count, r.remaining(), SYMBOL_ENTRY_MIN_LEN));
    for _ in 0..count {
        let id = FunctionId(r.u32().ok_or(FrameFail::Corrupt)?);
        let address = r.u64().ok_or(FrameFail::Corrupt)?;
        let kind = match r.u8().ok_or(FrameFail::Corrupt)? {
            0 => ScopeKind::Function,
            1 => ScopeKind::Block,
            _ => return Err(FrameFail::Corrupt),
        };
        let name = r.str(limits, "symbol name")?;
        out.push(FunctionDef {
            id,
            name,
            address,
            kind,
        });
    }
    Ok(out)
}

pub(crate) fn decode_node(payload: &[u8], limits: &DecodeLimits) -> Result<NodeMeta, FrameFail> {
    let mut r = Reader::new(payload);
    let node_id = r.u32().ok_or(FrameFail::Corrupt)?;
    let hostname = r.str(limits, "hostname")?;
    let nsensors = r.u16().ok_or(FrameFail::Corrupt)? as usize;
    limits.check_count("sensors", nsensors as u64, limits.max_sensors as u64)?;
    // An untrusted count must not size the allocation (this exact line
    // used to be `Vec::with_capacity(nsensors)` — a 64 KiB payload could
    // claim 65535 sensors and reserve for all of them upfront).
    let mut sensors =
        Vec::with_capacity(limits.clamp_prealloc(nsensors, r.remaining(), SENSOR_ENTRY_MIN_LEN));
    for _ in 0..nsensors {
        let id = SensorId(r.u16().ok_or(FrameFail::Corrupt)?);
        let kind = crate::trace::decode_sensor_kind(r.u8().ok_or(FrameFail::Corrupt)?)
            .map_err(|_| FrameFail::Corrupt)?;
        let label = r.str(limits, "sensor label")?;
        sensors.push(SensorMeta { id, label, kind });
    }
    Ok(NodeMeta {
        node_id,
        hostname,
        sensors,
    })
}

// ---- recovery --------------------------------------------------------------

/// What a spool recovery found and discarded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpoolReport {
    /// Segment files scanned (sealed and open).
    pub segments_scanned: u32,
    /// Frames that passed their checksum and decoded.
    pub frames_recovered: u64,
    /// Torn, checksum-failed, or undecodable frames discarded. At most
    /// one per segment can be *torn*; the rest were corrupted in place.
    pub frames_discarded: u64,
    /// Scope events recovered.
    pub events_recovered: u64,
    /// Sensor samples recovered.
    pub samples_recovered: u64,
    /// True when a session footer was found: the writer shut down
    /// cleanly, so the spool holds everything that was ever submitted.
    pub clean_shutdown: bool,
    /// Shipped frames skipped because their source cursor was not past
    /// the highest already applied — re-sends from a reconnecting
    /// shipper. Zero for locally-written spools.
    pub frames_deduped: u64,
    /// Highest source-spool cursor `(segment, offset)` seen in shipped
    /// frames; `None` for locally-written spools.
    pub shipped_through: Option<(u64, u64)>,
    /// Telemetry ([`FRAME_METRICS`]) frames that decoded cleanly.
    pub telemetry_frames: u64,
    /// Per-frame transit records recovered from [`FRAME_SHIPPED2`]
    /// wrappers, in cursor order. Empty for locally-written spools.
    pub frame_traces: Vec<FrameTrace>,
    /// The equivalent [`SalvageReport`], for feeding the analyzer's data
    /// quality accounting.
    pub salvage: SalvageReport,
}

/// Transit record of one network-shipped frame: where it came from and
/// when it passed each hop. Both timestamps are wall-clock Unix
/// nanoseconds (from different hosts — treat skew as part of the signal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameTrace {
    /// Source-spool segment sequence.
    pub seg: u64,
    /// Byte offset of the frame within that segment.
    pub off: u64,
    /// When the shipper sent the frame.
    pub origin_unix_ns: u64,
    /// When the collector accepted and stamped it.
    pub collect_unix_ns: u64,
}

impl FrameTrace {
    /// Ship→collect transit latency in nanoseconds; `None` when clock
    /// skew makes the difference negative.
    pub fn transit_ns(&self) -> Option<u64> {
        self.collect_unix_ns.checked_sub(self.origin_unix_ns)
    }
}

/// True if `path` looks like a spool directory: it is a directory holding
/// a manifest or at least one segment file.
pub fn is_spool_dir(path: &Path) -> bool {
    if !path.is_dir() {
        return false;
    }
    if path.join(MANIFEST_NAME).is_file() {
        return true;
    }
    list_segments(path).map(|s| !s.is_empty()).unwrap_or(false)
}

/// Segment files in `dir`, ordered by sequence number. Sealed segments
/// sort before an open one with the same sequence (the open one is a
/// leftover from a crashed rotation and scanning it second is harmless —
/// duplicate protection comes from sequence ordering being strict).
fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segs: Vec<(u64, u8, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let (rank, stem) = if let Some(stem) = name.strip_suffix(".seg") {
            (0u8, stem)
        } else if let Some(stem) = name.strip_suffix(".open") {
            (1u8, stem)
        } else {
            continue;
        };
        let Some(seq) = stem
            .strip_prefix("seg-")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        segs.push((seq, rank, entry.path()));
    }
    segs.sort();
    Ok(segs.into_iter().map(|(_, _, p)| p).collect())
}

/// Segment files in `dir` as `(sequence, path)`, ordered by sequence and
/// deduplicated: when a sealed and an open file share a sequence (a
/// crashed rotation), the sealed one wins. This is the shipper's view of
/// a spool — a cursor keyed by sequence must be unambiguous.
pub fn list_segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out: Vec<(u64, PathBuf)> = Vec::new();
    for path in list_segments(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let stem = name
            .strip_suffix(".seg")
            .or_else(|| name.strip_suffix(".open"))
            .unwrap_or(name);
        let Some(seq) = stem
            .strip_prefix("seg-")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        // list_segments sorts sealed before open at equal sequence, so
        // the first occurrence is the one to keep.
        if out.last().map(|(s, _)| *s) != Some(seq) {
            out.push((seq, path));
        }
    }
    Ok(out)
}

/// One checksum-verified frame inside a segment file, with the byte
/// offset its header starts at — the offset is what the network shipper
/// uses as its resume cursor.
#[derive(Debug, Clone, Copy)]
pub struct RawFrame<'a> {
    /// Byte offset of the frame header within the segment file.
    pub offset: u64,
    /// Frame kind byte.
    pub kind: u8,
    /// Checksum-verified payload.
    pub payload: &'a [u8],
}

/// Parse one segment's bytes into frames; stops at the first torn or
/// checksum-failed frame (everything after it is untrustworthy).
/// Returns `(frames, discarded)` where `discarded` is 1 if a damaged
/// frame terminated the scan.
pub fn parse_segment_frames(bytes: &[u8]) -> (Vec<RawFrame<'_>>, u64) {
    let mut frames = Vec::new();
    if bytes.len() < SEGMENT_HEADER_LEN || &bytes[..8] != SEGMENT_MAGIC {
        // Not even a segment header: nothing recoverable, one discard.
        return (frames, u64::from(!bytes.is_empty()));
    }
    let mut pos = SEGMENT_HEADER_LEN;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER_LEN {
            return (frames, 1); // torn header
        }
        let kind = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap());
        if remaining - FRAME_HEADER_LEN < len {
            return (frames, 1); // torn payload
        }
        let payload = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
        if frame_crc(kind, payload) != crc {
            return (frames, 1); // bit flip somewhere in this frame
        }
        frames.push(RawFrame {
            offset: pos as u64,
            kind,
            payload,
        });
        pos += FRAME_HEADER_LEN + len;
    }
    (frames, 0)
}

/// Build a [`FRAME_SHIPPED2`] payload: the source cursor, the shipper's
/// send timestamp, the collector's receive timestamp (both wall-clock
/// Unix nanoseconds), then the wrapped frame. The two stamps are what
/// recovery turns into per-frame transit latency.
pub fn shipped2_payload(
    seg: u64,
    off: u64,
    origin_unix_ns: u64,
    collect_unix_ns: u64,
    inner_kind: u8,
    inner_payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHIPPED2_PREFIX_LEN + inner_payload.len());
    out.extend_from_slice(&seg.to_le_bytes());
    out.extend_from_slice(&off.to_le_bytes());
    out.extend_from_slice(&origin_unix_ns.to_le_bytes());
    out.extend_from_slice(&collect_unix_ns.to_le_bytes());
    out.push(inner_kind);
    out.extend_from_slice(inner_payload);
    out
}

/// A frame with its [`FRAME_SHIPPED2`] envelope, if it had one, taken off.
#[derive(Debug, Clone, Copy)]
pub struct FrameBody<'a> {
    /// Kind of the frame, or of the frame the envelope wrapped.
    pub kind: u8,
    /// Payload of the frame, or of the frame the envelope wrapped.
    pub payload: &'a [u8],
    /// The envelope's source cursor and transit stamps; `None` for a
    /// frame that was not shipped.
    pub shipped: Option<FrameTrace>,
}

/// Take the [`FRAME_SHIPPED2`] envelope off `frame`; any other kind comes
/// back as it is. Borrows, never allocates. `None` for a malformed
/// envelope: one too short for its prefix, or one wrapping another
/// envelope. Every reader of collected spools goes through here, so they
/// all reject the same frames.
pub fn unwrap_frame<'a>(frame: &RawFrame<'a>) -> Option<FrameBody<'a>> {
    if frame.kind != FRAME_SHIPPED2 {
        return Some(FrameBody {
            kind: frame.kind,
            payload: frame.payload,
            shipped: None,
        });
    }
    let p = frame.payload;
    let kind = *p.get(SHIPPED2_PREFIX_LEN - 1)?;
    if kind == FRAME_SHIPPED2 {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(p[i * 8..i * 8 + 8].try_into().unwrap());
    Some(FrameBody {
        kind,
        payload: &p[SHIPPED2_PREFIX_LEN..],
        shipped: Some(FrameTrace {
            seg: word(0),
            off: word(1),
            origin_unix_ns: word(2),
            collect_unix_ns: word(3),
        }),
    })
}

/// Build a placeholder symbol table (ids only) for an event stream whose
/// real symbol table was lost to a crash.
fn synthesize_functions(events: &[Event]) -> Vec<FunctionDef> {
    let mut ids: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Enter { func } | EventKind::Exit { func } => Some(func.0),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| FunctionDef {
            id: FunctionId(id),
            name: format!("fn#{id}"),
            address: 0x400000 + 16 * id as u64,
            kind: ScopeKind::Function,
        })
        .collect()
}

/// Scan a spool directory and reassemble the trace it holds.
///
/// Deliberately manifest-independent: every segment file present is
/// scanned, every frame is checksum-verified, and parsing of a segment
/// stops at its first damaged frame (later segments are still used — a
/// torn rotation does not sacrifice everything after it). Never panics on
/// arbitrary input; a directory with no usable segment data is an error.
pub fn recover(dir: &Path) -> Result<(Trace, SpoolReport), TraceError> {
    recover_with(dir, &DecodeLimits::default(), &CancelToken::default())
}

/// [`recover`] under explicit [`DecodeLimits`] and a [`CancelToken`].
///
/// A limit overrun (symbol/sensor cardinality, byte budget over the
/// accumulated event stream) or a tripped deadline stops the scan at that
/// point: everything recovered before it is still assembled and returned,
/// with the overrun recorded in `report.salvage.limit` — the spool
/// analogue of [`Trace::decode_salvage_with`]'s bounded partial results.
pub fn recover_with(
    dir: &Path,
    limits: &DecodeLimits,
    cancel: &CancelToken,
) -> Result<(Trace, SpoolReport), TraceError> {
    let segments = list_segments(dir)?;
    if segments.is_empty() {
        return Err(TraceError::Corrupt("no spool segments found"));
    }

    let mut report = SpoolReport::default();
    let mut mixed: Vec<Event> = Vec::new();
    let mut functions: Vec<FunctionDef> = Vec::new();
    let mut node: Option<NodeMeta> = None;
    let mut footer: Option<[u64; 4]> = None;
    let budget = limits.budget();
    let mut limit_hit: Option<LimitExceeded> = None;

    'scan: for path in &segments {
        if let Err(e) = cancel.check("spool recover") {
            limit_hit = Some(e);
            break;
        }
        let bytes = std::fs::read(path)?;
        report.segments_scanned += 1;
        let (frames, discarded) = parse_segment_frames(&bytes);
        report.frames_discarded += discarded;
        for frame in frames {
            // Collector-written spools wrap every frame with its source
            // cursor and transit timestamps; unwrap, and drop any frame
            // whose cursor does not advance (a re-send after a reconnect).
            let Some(FrameBody {
                kind,
                payload,
                shipped,
            }) = unwrap_frame(&frame)
            else {
                report.frames_discarded += 1;
                continue;
            };
            if let Some(trace) = shipped {
                let cursor = (trace.seg, trace.off);
                if report.shipped_through.is_some_and(|c| cursor <= c) {
                    report.frames_deduped += 1;
                    continue;
                }
                report.shipped_through = Some(cursor);
                report.frame_traces.push(trace);
            }
            let decoded = match kind {
                FRAME_EVENTS => match decode_events(payload) {
                    Some(events) => {
                        // The accumulated mixed stream is the one spot a
                        // many-segment spool can grow without bound —
                        // meter it against the byte budget.
                        if let Err(e) = budget.charge(
                            "spool events",
                            (events.len() * std::mem::size_of::<Event>()) as u64,
                        ) {
                            limit_hit = Some(e);
                            break 'scan;
                        }
                        mixed.extend_from_slice(&events);
                        true
                    }
                    None => false,
                },
                FRAME_SYMBOLS => match decode_symbols(payload, limits) {
                    Ok(syms) => {
                        // Later snapshots supersede earlier ones: the
                        // registry only grows, so the newest is a superset.
                        functions = syms;
                        true
                    }
                    Err(FrameFail::Limit(e)) => {
                        limit_hit = Some(e);
                        break 'scan;
                    }
                    Err(FrameFail::Corrupt) => false,
                },
                FRAME_NODE => match decode_node(payload, limits) {
                    Ok(n) => {
                        if node.is_none() {
                            node = Some(n);
                        }
                        true
                    }
                    Err(FrameFail::Limit(e)) => {
                        limit_hit = Some(e);
                        break 'scan;
                    }
                    Err(FrameFail::Corrupt) => false,
                },
                FRAME_FOOTER if payload.len() == FOOTER_LEN => {
                    let mut vals = [0u64; 4];
                    for (i, v) in vals.iter_mut().enumerate() {
                        *v = u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().unwrap());
                    }
                    footer = Some(vals);
                    true
                }
                // Self-telemetry snapshots are verified and counted but
                // not folded into the trace; `tempest fleet` reads them.
                FRAME_METRICS => match tempest_obs::decode_telemetry(payload) {
                    Some(_) => {
                        report.telemetry_frames += 1;
                        true
                    }
                    None => false,
                },
                // Unknown kind with a valid checksum: written by a newer
                // format revision; skip it rather than distrust the rest.
                _ => false,
            };
            if decoded {
                report.frames_recovered += 1;
            } else {
                report.frames_discarded += 1;
            }
        }
    }

    if let Some(limit) = &limit_hit {
        // A tripped decode limit is exactly the kind of event the flight
        // recorder exists for: note it and leave the black box beside the
        // spool (best effort — the dump must not fail recovery).
        tempest_obs::event!(
            Error,
            "recover",
            format!("recovery stopped early: {limit}"),
            dir = dir.display(),
            frames_recovered = report.frames_recovered,
        );
        let _ = tempest_obs::flight::flight()
            .dump_to(&dir.join(FLIGHT_DUMP_NAME), "recover limit exceeded");
    }

    if node.is_none()
        && mixed.is_empty()
        && functions.is_empty()
        && footer.is_none()
        && limit_hit.is_none()
    {
        return Err(TraceError::Corrupt(
            "spool segments held no decodable frames",
        ));
    }

    if functions.is_empty() {
        functions = synthesize_functions(&mixed);
    }

    let events_recovered = mixed
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::Sample { .. }))
        .count() as u64;
    let samples_recovered = mixed.len() as u64 - events_recovered;
    report.events_recovered = events_recovered;
    report.samples_recovered = samples_recovered;
    report.clean_shutdown = footer.is_some();

    let [events_declared, samples_declared, events_dropped, samples_dropped] =
        footer.unwrap_or([events_recovered, samples_recovered, 0, 0]);
    report.salvage = SalvageReport {
        truncated_in: if report.clean_shutdown
            && report.frames_discarded == 0
            && limit_hit.is_none()
        {
            None
        } else {
            Some(TraceSection::Events)
        },
        events_declared,
        events_salvaged: events_recovered,
        samples_declared,
        samples_salvaged: samples_recovered,
        nonfinite_samples_skipped: 0,
        events_dropped_backpressure: events_dropped,
        samples_dropped_backpressure: samples_dropped,
        limit: limit_hit,
    };

    let trace =
        Trace::from_mixed_events(node.unwrap_or_else(NodeMeta::anonymous), functions, mixed);
    Ok((trace, report))
}

// ---- deep verification (doctor --fsck) -------------------------------------

/// Per-segment result of a deep verification pass ([`fsck_dir`]).
#[derive(Debug, Clone)]
pub struct SegmentFsck {
    /// The segment file examined.
    pub path: PathBuf,
    /// Frames that passed their checksum *and* re-decoded cleanly under
    /// the verification limits.
    pub frames_ok: u64,
    /// Frames lost to tearing or checksum failure (at most one per
    /// segment — the scan stops at the first).
    pub frames_torn: u64,
    /// Human-readable violations: checksum-valid frames that failed to
    /// decode, or whose declared quantities exceeded the limits.
    pub violations: Vec<String>,
}

impl SegmentFsck {
    /// True when every frame in the segment verified cleanly.
    pub fn is_clean(&self) -> bool {
        self.frames_torn == 0 && self.violations.is_empty()
    }
}

/// Deep-verify every segment in a spool directory: re-decode every
/// checksum-valid frame under `limits` and report, per segment, what
/// failed and why. Unlike [`recover_with`] this never stops early — the
/// point is a complete damage survey, and each frame decodes into a
/// bounded amount of memory that is dropped before the next one.
pub fn fsck_dir(dir: &Path, limits: &DecodeLimits) -> io::Result<Vec<SegmentFsck>> {
    let mut out = Vec::new();
    for path in list_segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let (frames, torn) = parse_segment_frames(&bytes);
        let mut fsck = SegmentFsck {
            path,
            frames_ok: 0,
            frames_torn: torn,
            violations: Vec::new(),
        };
        for frame in frames {
            let Some(FrameBody { kind, payload, .. }) = unwrap_frame(&frame) else {
                fsck.violations.push(format!(
                    "frame @{}: malformed shipped wrapper",
                    frame.offset
                ));
                continue;
            };
            let verdict: Result<(), FrameFail> = match kind {
                FRAME_EVENTS => decode_events(payload).map(drop).ok_or(FrameFail::Corrupt),
                FRAME_SYMBOLS => decode_symbols(payload, limits).map(drop),
                FRAME_NODE => decode_node(payload, limits).map(drop),
                FRAME_FOOTER if payload.len() == FOOTER_LEN => Ok(()),
                FRAME_FOOTER => Err(FrameFail::Corrupt),
                FRAME_METRICS => tempest_obs::decode_telemetry(payload)
                    .map(drop)
                    .ok_or(FrameFail::Corrupt),
                // Unknown kinds are forward-compatibility, not damage.
                _ => Ok(()),
            };
            match verdict {
                Ok(()) => fsck.frames_ok += 1,
                Err(FrameFail::Corrupt) => fsck.violations.push(format!(
                    "frame @{} kind {}: checksum ok but payload undecodable",
                    frame.offset, kind
                )),
                Err(FrameFail::Limit(e)) => fsck
                    .violations
                    .push(format!("frame @{} kind {}: {e}", frame.offset, kind)),
            }
        }
        out.push(fsck);
    }
    Ok(out)
}

// ---- SpoolSink -------------------------------------------------------------

/// Final backpressure drop counters, latched by [`SpoolSink::finish`] for
/// the writer thread to stamp into the session footer.
#[derive(Default)]
struct FinalDrops {
    events: AtomicU64,
    samples: AtomicU64,
    set: AtomicBool,
}

/// An [`EventSink`] that spools every batch to disk through a bounded
/// queue and a dedicated writer thread.
///
/// Submissions delegate to an inner [`ChannelSink`] (bounded, with the
/// configured [`OverflowPolicy`]); the writer thread drains the queue into
/// a [`SpoolWriter`], rotating segments as they fill. [`finish`]
/// closes the queue, waits for the writer to seal the final segment with
/// the session footer, and returns the [`SpoolStats`].
///
/// [`finish`]: SpoolSink::finish
pub struct SpoolSink {
    inner: Mutex<Option<Arc<ChannelSink>>>,
    writer: Mutex<Option<std::thread::JoinHandle<io::Result<SpoolStats>>>>,
    registry: Arc<Mutex<Option<FunctionRegistry>>>,
    final_drops: Arc<FinalDrops>,
    latched_by_thread: Mutex<BTreeMap<ThreadId, u64>>,
    latched_total: AtomicU64,
}

impl SpoolSink {
    /// Open the spool on disk and start the writer thread. Fails eagerly
    /// (in the caller) if the spool directory cannot be created.
    pub fn spawn(config: &SpoolConfig, node: NodeMeta) -> io::Result<Arc<SpoolSink>> {
        let mut writer = SpoolWriter::create(config, node)?;
        let (sink, rx) = ChannelSink::bounded(config.queue_batches, config.overflow);
        let registry: Arc<Mutex<Option<FunctionRegistry>>> = Arc::new(Mutex::new(None));
        let final_drops = Arc::new(FinalDrops::default());

        let registry_for_writer = registry.clone();
        let drops_for_writer = final_drops.clone();
        let handle = std::thread::Builder::new()
            .name("tempest-spool".to_string())
            .spawn(move || -> io::Result<SpoolStats> {
                for batch in rx.iter() {
                    // Both calls degrade internally on I/O errors (ENOSPC
                    // and friends) instead of erroring: the session stays
                    // alive and the drops are accounted in SpoolStats.
                    writer.append_batch(&batch)?;
                    if writer.should_rotate() {
                        let snapshot = registry_for_writer
                            .lock()
                            .as_ref()
                            .map(|r| r.snapshot())
                            .unwrap_or_default();
                        writer.rotate_or_degrade(&snapshot);
                    }
                    // Opportunistic self-telemetry: ride the same queue
                    // cadence as the data instead of waking a timer. An
                    // idle spool (no batches) emits nothing, which is the
                    // right overhead for an idle spool.
                    writer.maybe_append_telemetry();
                }
                // Queue closed: orderly shutdown. The drop counters were
                // latched by finish() before it closed the queue.
                let snapshot = registry_for_writer
                    .lock()
                    .as_ref()
                    .map(|r| r.snapshot())
                    .unwrap_or_default();
                let (ev_drops, sa_drops) = if drops_for_writer.set.load(Ordering::Acquire) {
                    (
                        drops_for_writer.events.load(Ordering::Acquire),
                        drops_for_writer.samples.load(Ordering::Acquire),
                    )
                } else {
                    (0, 0)
                };
                writer.finish(&snapshot, ev_drops, sa_drops)
            })?;

        Ok(Arc::new(SpoolSink {
            inner: Mutex::new(Some(sink)),
            writer: Mutex::new(Some(handle)),
            registry,
            final_drops,
            latched_by_thread: Mutex::new(BTreeMap::new()),
            latched_total: AtomicU64::new(0),
        }))
    }

    /// Give the writer thread access to the live symbol table, so segment
    /// seals carry real names. Called once the profiler exists (the
    /// profiler needs the sink first, so this cannot happen at spawn).
    pub fn attach_registry(&self, registry: FunctionRegistry) {
        *self.registry.lock() = Some(registry);
    }

    /// Close the queue, wait for the writer to seal the spool, and return
    /// its statistics. Subsequent submissions are silently discarded;
    /// calling `finish` twice is an error.
    pub fn finish(&self) -> io::Result<SpoolStats> {
        let sink = self
            .inner
            .lock()
            .take()
            .ok_or_else(|| io::Error::other("spool already finished"))?;
        // Latch the drop counters while the ChannelSink is still alive,
        // and publish them for the writer *before* the queue closes.
        let samples_dropped = sink.dropped_for(Event::TEMPD_THREAD);
        let events_dropped = sink.dropped_total() - samples_dropped;
        *self.latched_by_thread.lock() = sink.dropped_by_thread();
        self.latched_total
            .store(sink.dropped_total(), Ordering::Release);
        self.final_drops
            .events
            .store(events_dropped, Ordering::Release);
        self.final_drops
            .samples
            .store(samples_dropped, Ordering::Release);
        self.final_drops.set.store(true, Ordering::Release);
        let obs = tempest_obs::global();
        obs.counter("spool_events_dropped_backpressure")
            .add(events_dropped);
        obs.counter("spool_samples_dropped_backpressure")
            .add(samples_dropped);
        if events_dropped + samples_dropped > 0 {
            tempest_obs::event!(
                Warn,
                "spool",
                "bounded queue shed submissions under backpressure",
                events_dropped = events_dropped,
                samples_dropped = samples_dropped,
            );
        }
        drop(sink); // last sender gone → writer drains and seals
        let handle = self
            .writer
            .lock()
            .take()
            .ok_or_else(|| io::Error::other("spool writer already joined"))?;
        handle
            .join()
            .map_err(|_| io::Error::other("spool writer thread panicked"))?
    }
}

impl EventSink for SpoolSink {
    fn submit(&self, batch: &[Event]) {
        // The lock is held across the send so finish() cannot close the
        // queue between our liveness check and the send. A submitter
        // blocked here on a full queue does stall finish() briefly — but
        // only until the writer drains a slot, never indefinitely.
        let guard = self.inner.lock();
        if let Some(sink) = guard.as_ref() {
            sink.submit(batch);
        }
    }

    fn dropped_for(&self, thread: ThreadId) -> u64 {
        if let Some(sink) = self.inner.lock().as_ref() {
            return sink.dropped_for(thread);
        }
        *self.latched_by_thread.lock().get(&thread).unwrap_or(&0)
    }

    fn dropped_total(&self) -> u64 {
        if let Some(sink) = self.inner.lock().as_ref() {
            return sink.dropped_total();
        }
        self.latched_total.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionId;
    use std::sync::atomic::AtomicU32;

    static DIR_SERIAL: AtomicU32 = AtomicU32::new(0);

    fn temp_spool_dir(tag: &str) -> PathBuf {
        let n = DIR_SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tempest-spool-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn demo_node() -> NodeMeta {
        NodeMeta {
            node_id: 3,
            hostname: "spoolhost".into(),
            sensors: vec![SensorMeta {
                id: SensorId(0),
                label: "die".into(),
                kind: tempest_sensors::SensorKind::CpuCore,
            }],
        }
    }

    fn demo_functions() -> Vec<FunctionDef> {
        vec![FunctionDef {
            id: FunctionId(0),
            name: "main".into(),
            address: 0x400000,
            kind: ScopeKind::Function,
        }]
    }

    fn demo_batch(base_ts: u64) -> Vec<Event> {
        vec![
            Event::enter(base_ts, ThreadId(0), FunctionId(0)),
            Event::sample(base_ts + 1, SensorId(0), 41.5),
            Event::gap(base_ts + 2, SensorId(0)),
            Event::exit(base_ts + 3, ThreadId(0), FunctionId(0)),
        ]
    }

    /// Append one hand-crafted checksummed frame to raw segment bytes.
    fn push_frame(seg: &mut Vec<u8>, kind: u8, payload: &[u8]) {
        seg.push(kind);
        seg.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        seg.extend_from_slice(&frame_crc(kind, payload).to_le_bytes());
        seg.extend_from_slice(payload);
    }

    /// A raw segment file holding exactly the given frames.
    fn raw_segment(dir: &Path, frames: &[(u8, Vec<u8>)]) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        for (kind, payload) in frames {
            push_frame(&mut bytes, *kind, payload);
        }
        let path = dir.join("seg-000001.seg");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn hostile_symbols_frame_declaring_2_to_31_entries_is_limited() {
        // A checksum-valid symbols frame claiming 2^31 entries over a
        // 4-byte payload: recovery must stop with a typed overrun, not
        // attempt the allocation the count implies.
        let dir = temp_spool_dir("hostile-symbols");
        raw_segment(
            &dir,
            &[(FRAME_SYMBOLS, (1u32 << 31).to_le_bytes().to_vec())],
        );
        let limits = DecodeLimits::strict();
        let (_, report) = recover_with(&dir, &limits, &CancelToken::default()).unwrap();
        let hit = report.salvage.limit.expect("limit recorded");
        assert_eq!(hit.what, "symbols");
        assert_eq!(hit.observed, 1 << 31);
        assert!(!report.salvage.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_node_frame_sensor_count_is_limited_and_default_clamped() {
        // Node frame claiming 65535 sensors over an empty remainder.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        push_str(&mut payload, "evil");
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        // Under strict limits the cardinality cap trips...
        assert!(matches!(
            decode_node(&payload, &DecodeLimits::strict()),
            Err(FrameFail::Limit(_))
        ));
        // ...and under the generous defaults the claim passes the cap but
        // the preallocation is clamped by remaining bytes, so the decode
        // just fails structurally (no bytes back the claim) without any
        // count-sized reservation.
        assert!(matches!(
            decode_node(&payload, &DecodeLimits::default()),
            Err(FrameFail::Corrupt)
        ));
    }

    #[test]
    fn recover_respects_byte_budget_with_partial_results() {
        let dir = temp_spool_dir("budget");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        for i in 0..200 {
            w.append_batch(&demo_batch(100 * i)).unwrap();
        }
        w.finish(&demo_functions(), 0, 0).unwrap();

        let limits = DecodeLimits {
            budget_bytes: 2_048,
            ..DecodeLimits::default()
        };
        let (trace, report) = recover_with(&dir, &limits, &CancelToken::default()).unwrap();
        let hit = report.salvage.limit.expect("budget trip recorded");
        assert_eq!(hit.kind, crate::limits::LimitKind::ByteBudget);
        assert!(
            trace.events.len() + trace.samples.len() < 200 * 4,
            "scan stopped early under budget"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_with_expired_deadline_is_partial_not_error() {
        let dir = temp_spool_dir("deadline");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();

        let cancel = CancelToken::with_deadline(std::time::Duration::from_secs(0));
        let (_, report) = recover_with(&dir, &DecodeLimits::default(), &cancel).unwrap();
        let hit = report.salvage.limit.expect("deadline recorded");
        assert_eq!(hit.kind, crate::limits::LimitKind::Deadline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_reports_violations_per_segment() {
        let dir = temp_spool_dir("fsck");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();

        // A clean spool fscks clean under strict limits.
        let clean = fsck_dir(&dir, &DecodeLimits::strict()).unwrap();
        assert!(!clean.is_empty());
        assert!(clean.iter().all(|s| s.is_clean()), "{clean:?}");

        // Add a segment with a hostile symbols frame and a garbage events
        // frame: both surface as violations, and the scan covers every
        // frame (no early stop).
        raw_segment(
            &dir.join("evil"),
            &[
                (FRAME_SYMBOLS, (1u32 << 31).to_le_bytes().to_vec()),
                (FRAME_EVENTS, vec![0xFF; EVENT_RECORD_LEN]),
            ],
        );
        let evil = fsck_dir(&dir.join("evil"), &DecodeLimits::strict()).unwrap();
        assert_eq!(evil.len(), 1);
        assert_eq!(evil[0].violations.len(), 2, "{:?}", evil[0].violations);
        assert!(evil[0].violations[0].contains("limit exceeded"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn clean_spool_roundtrips_with_footer() {
        let dir = temp_spool_dir("clean");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        let stats = w.finish(&demo_functions(), 0, 0).unwrap();
        assert_eq!(stats.events_written, 6); // 2 enter + 2 exit + 2 gap
        assert_eq!(stats.samples_written, 2);
        assert_eq!(stats.segments, 1);

        let (trace, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(report.frames_discarded, 0);
        assert!(report.salvage.is_clean());
        assert_eq!(trace.events.len(), 6);
        assert_eq!(trace.samples.len(), 2);
        assert_eq!(trace.node, demo_node());
        assert_eq!(trace.function(FunctionId(0)).unwrap().name, "main");
        assert!((trace.samples[0].temperature.celsius() - 41.5).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_and_recovery_spans_them() {
        let dir = temp_spool_dir("rotate");
        let config = SpoolConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .segment_bytes(4096);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        let mut written = 0u64;
        for i in 0..200 {
            w.append_batch(&demo_batch(i * 10)).unwrap();
            written += 3;
            if w.should_rotate() {
                w.rotate(&demo_functions()).unwrap();
            }
        }
        let stats = w.finish(&demo_functions(), 0, 0).unwrap();
        assert!(stats.segments > 1, "4 KiB segments must have rotated");
        assert_eq!(stats.events_written, written);

        let sealed: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".seg")))
            .collect();
        assert_eq!(sealed.len() as u32, stats.segments);
        assert!(
            !dir.join(format!("seg-{:06}.open", stats.segments)).exists(),
            "no dangling open segment after finish"
        );

        let (trace, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(trace.events.len() as u64, written);
        assert_eq!(report.segments_scanned, stats.segments);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_prefix_recovered() {
        let dir = temp_spool_dir("torn");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        drop(w); // crash: no footer, segment still .open

        // Tear the final frame mid-payload.
        let open = dir.join("seg-000000.open");
        let mut bytes = std::fs::read(&open).unwrap();
        let torn_len = bytes.len() - 10;
        bytes.truncate(torn_len);
        std::fs::write(&open, &bytes).unwrap();

        let (trace, report) = recover(&dir).unwrap();
        assert!(!report.clean_shutdown);
        assert_eq!(report.frames_discarded, 1);
        assert!(!report.salvage.is_clean());
        // First batch survived intact; second lost its tail frame whole.
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.samples.len(), 1);
        assert_eq!(trace.node.hostname, "spoolhost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let dir = temp_spool_dir("flip");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        drop(w);

        let open = dir.join("seg-000000.open");
        let mut bytes = std::fs::read(&open).unwrap();
        let n = bytes.len();
        bytes[n - 4] ^= 0x40; // flip one bit inside the event payload
        std::fs::write(&open, &bytes).unwrap();

        let (trace, report) = recover(&dir).unwrap();
        assert_eq!(report.frames_discarded, 1, "flipped frame rejected");
        assert!(trace.events.is_empty(), "no unverified event leaks through");
        // The node frame before the damage still decoded.
        assert_eq!(trace.node.hostname, "spoolhost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_spool_without_symbols_synthesizes_names() {
        let dir = temp_spool_dir("nosym");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&[Event::enter(1, ThreadId(0), FunctionId(7))])
            .unwrap();
        drop(w); // crash before any rotation/finish: no symbol frame

        let (trace, report) = recover(&dir).unwrap();
        assert!(!report.clean_shutdown);
        assert_eq!(trace.function(FunctionId(7)).unwrap().name, "fn#7");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_drop_counters_flow_into_salvage() {
        let dir = temp_spool_dir("drops");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.finish(&demo_functions(), 5, 2).unwrap();

        let (_, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(report.salvage.events_dropped_backpressure, 5);
        assert_eq!(report.salvage.samples_dropped_backpressure, 2);
        assert!(!report.salvage.is_clean(), "shed events are not clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_is_written_and_marks_clean_shutdown() {
        let dir = temp_spool_dir("manifest");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let w = SpoolWriter::create(&config, demo_node()).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        assert!(manifest.starts_with("tempest-spool v1\n"));
        assert!(manifest.contains("clean 0"));
        w.finish(&demo_functions(), 0, 0).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        assert!(manifest.contains("clean 1"));
        assert!(manifest.contains("seg-000000.seg"));
        assert!(is_spool_dir(&dir));
        assert!(!is_spool_dir(&dir.join("nope")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_of_empty_or_junk_dir_is_an_error_not_a_panic() {
        let dir = temp_spool_dir("junk");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(recover(&dir).is_err(), "no segments");
        std::fs::write(dir.join("seg-000000.seg"), b"not a segment at all").unwrap();
        assert!(recover(&dir).is_err(), "no decodable frames");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spool_sink_end_to_end() {
        let dir = temp_spool_dir("sink");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let sink = SpoolSink::spawn(&config, demo_node()).unwrap();
        let submitters: Vec<_> = (0..4u32)
            .map(|t| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        sink.submit(&[
                            Event::enter(i * 2, ThreadId(t), FunctionId(0)),
                            Event::exit(i * 2 + 1, ThreadId(t), FunctionId(0)),
                        ]);
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        let stats = sink.finish().unwrap();
        assert_eq!(stats.events_written, 400);
        assert_eq!(stats.events_dropped, 0);
        assert!(sink.finish().is_err(), "double finish is an error");
        sink.submit(&demo_batch(9_999)); // post-finish submit: discarded, no panic

        let (trace, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(trace.events.len(), 400);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spool_sink_reports_drops_after_finish() {
        let dir = temp_spool_dir("sinkdrop");
        // Capacity one batch, shedding: force drops deterministically by
        // never letting the writer drain (batches pile behind a slow disk
        // is hard to fake, so use a tiny queue and beat it with submits).
        let config = SpoolConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .queue_batches(1)
            .overflow(OverflowPolicy::DropNewest);
        let sink = SpoolSink::spawn(&config, demo_node()).unwrap();
        for i in 0..2_000u64 {
            sink.submit(&[Event::sample(i, SensorId(0), 40.0)]);
        }
        let stats = sink.finish().unwrap();
        assert_eq!(
            stats.samples_written + stats.samples_dropped,
            2_000,
            "every sample is either on disk or accounted as dropped"
        );
        assert_eq!(stats.events_dropped, 0);
        // Post-finish the latched counters still answer.
        assert_eq!(sink.dropped_total(), stats.samples_dropped);
        assert_eq!(sink.dropped_for(Event::TEMPD_THREAD), stats.samples_dropped);

        let (_, report) = recover(&dir).unwrap();
        assert_eq!(
            report.salvage.samples_dropped_backpressure,
            stats.samples_dropped
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_of_arbitrary_truncation_never_panics_or_leaks_bad_frames() {
        // Exhaustive truncation sweep: every prefix of a real segment must
        // recover cleanly to a checksummed prefix (or error), never panic.
        let dir = temp_spool_dir("truncsweep");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();
        let seg = dir.join("seg-000000.seg");
        let full = std::fs::read(&seg).unwrap();
        let mut last_events = usize::MAX;
        for cut in (0..=full.len()).rev() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            // A recover error (header too short) is fine, as long as
            // nothing panics.
            if let Ok((trace, _)) = recover(&dir) {
                assert!(
                    trace.events.len() + trace.samples.len() <= 8,
                    "cannot recover more than was written"
                );
                assert!(
                    trace.events.len() <= last_events.max(trace.events.len()),
                    "shorter prefix cannot recover more"
                );
                last_events = trace.events.len();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_failure_degrades_and_revives_instead_of_killing_the_session() {
        // /dev/full accepts the open but fails every write with ENOSPC —
        // the exact fault this path exists for. Skip where absent.
        if !Path::new("/dev/full").exists() {
            eprintln!("skipped: /dev/full not available");
            return;
        }
        let dir = temp_spool_dir("enospc");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::PerBatch);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        // Point the active segment at the always-full device.
        w.out = BufWriter::new(File::options().write(true).open("/dev/full").unwrap());
        w.append_batch(&demo_batch(0)).unwrap();
        assert!(w.is_degraded(), "ENOSPC must degrade, not error");
        assert!(!w.should_rotate(), "no healthy segment to rotate");
        // Shed until the periodic revival attempt fires; the directory
        // itself is healthy, so the writer comes back on a new segment.
        let mut appends = 1u64;
        while w.is_degraded() {
            w.append_batch(&demo_batch(appends * 10)).unwrap();
            appends += 1;
            assert!(appends < 1_000, "writer never revived");
        }
        w.append_batch(&demo_batch(99_000)).unwrap();
        let stats = w.finish(&demo_functions(), 0, 0).unwrap();
        assert_eq!(
            stats.batches_dropped_io,
            SpoolWriter::REVIVE_INTERVAL as u64
        );
        assert_eq!(stats.events_dropped_io, stats.batches_dropped_io * 3);
        assert_eq!(stats.samples_dropped_io, stats.batches_dropped_io);
        assert!(stats.io_errors >= 1);
        // The reviving batch and the one after it made it to disk.
        assert_eq!(stats.events_written, 6);
        assert_eq!(stats.samples_written, 2);

        let (trace, report) = recover(&dir).unwrap();
        assert!(
            report.clean_shutdown,
            "footer landed on the revived segment"
        );
        assert_eq!(trace.events.len(), 6);
        // IO-shed batches surface in the footer's drop accounting.
        assert_eq!(
            report.salvage.events_dropped_backpressure,
            stats.events_dropped_io
        );
        assert_eq!(
            report.salvage.samples_dropped_backpressure,
            stats.samples_dropped_io
        );
        assert!(!report.salvage.is_clean(), "shed batches are not clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_check_flags_disk_disagreements() {
        let dir = temp_spool_dir("mancheck");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.rotate(&demo_functions()).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();
        let check = check_manifest(&dir).unwrap().unwrap();
        assert!(check.consistent());
        assert!(check.clean);
        assert_eq!(check.listed, 2);
        assert!(check.problems().is_empty());

        // Delete a listed segment, plant one the manifest never heard of,
        // and leave an unsealed leftover although the manifest says clean.
        std::fs::remove_file(dir.join("seg-000000.seg")).unwrap();
        std::fs::write(dir.join("seg-000099.seg"), b"x").unwrap();
        std::fs::write(dir.join("seg-000100.open"), b"x").unwrap();
        let check = check_manifest(&dir).unwrap().unwrap();
        assert!(!check.consistent());
        assert_eq!(check.missing, vec!["seg-000000.seg".to_string()]);
        assert_eq!(check.unlisted, vec!["seg-000099.seg".to_string()]);
        assert_eq!(check.unsealed, vec!["seg-000100.open".to_string()]);
        assert_eq!(check.problems().len(), 3);

        // No manifest at all is not an inconsistency: recovery never
        // needed one in the first place.
        std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        assert!(check_manifest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_listing_for_shipping_prefers_sealed_at_equal_sequence() {
        let dir = temp_spool_dir("seglist");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-000000.seg"), b"").unwrap();
        std::fs::write(dir.join("seg-000000.open"), b"").unwrap();
        std::fs::write(dir.join("seg-000001.open"), b"").unwrap();
        let files = list_segment_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "crashed rotation must not double-ship");
        assert_eq!(files[0].0, 0);
        assert!(files[0].1.ends_with("seg-000000.seg"));
        assert_eq!(files[1].0, 1);
        assert!(files[1].1.ends_with("seg-000001.open"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shipped_frames_unwrap_and_dedupe_on_recovery() {
        // Write a normal source spool...
        let src = temp_spool_dir("shipsrc");
        let config = SpoolConfig::new(&src).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();
        let (src_trace, _) = recover(&src).unwrap();

        // ...and replay its frames into a collector-style spool wrapped
        // with their source cursors and transit stamps, then re-send
        // everything after the node frame a second time — what a shipper
        // that lost an ACK and resumed from a stale cursor would produce.
        // The re-sends carry later stamps than the originals.
        let stamps = |f: &RawFrame, resend: u64| (1_000 + f.offset, 2_000 + f.offset + resend);
        let push_shipped = |out: &mut Vec<u8>, f: &RawFrame, resend: u64| {
            let (origin, collect) = stamps(f, resend);
            let payload = shipped2_payload(0, f.offset, origin, collect, f.kind, f.payload);
            encode_frame_into(out, FRAME_SHIPPED2, &payload);
        };
        let dst = temp_spool_dir("shipdst");
        std::fs::create_dir_all(&dst).unwrap();
        let bytes = std::fs::read(src.join("seg-000000.seg")).unwrap();
        let (frames, _) = parse_segment_frames(&bytes);
        assert!(frames.len() >= 4, "node + events + symbols + footer");
        let mut out = Vec::new();
        out.extend_from_slice(&segment_header_bytes(0));
        for f in &frames {
            push_shipped(&mut out, f, 0);
        }
        for f in frames.iter().skip(1) {
            push_shipped(&mut out, f, 500);
        }
        // A shipped frame too short to hold its cursor prefix is
        // quarantined as discarded, never decoded.
        encode_frame_into(&mut out, FRAME_SHIPPED2, &[0u8; SHIPPED2_PREFIX_LEN - 1]);
        std::fs::write(dst.join("seg-000000.seg"), &out).unwrap();

        let (trace, report) = recover(&dst).unwrap();
        assert_eq!(report.frames_deduped, frames.len() as u64 - 1);
        assert_eq!(report.frames_discarded, 1, "runt shipped frame rejected");
        assert_eq!(
            report.shipped_through,
            Some((0, frames.last().unwrap().offset))
        );
        assert!(report.clean_shutdown, "the wrapped footer still counts");
        // One transit record per kept frame, carrying the first send's
        // stamps: the deduped re-sends leave no trace.
        let expected: Vec<FrameTrace> = frames
            .iter()
            .map(|f| {
                let (origin_unix_ns, collect_unix_ns) = stamps(f, 0);
                FrameTrace {
                    seg: 0,
                    off: f.offset,
                    origin_unix_ns,
                    collect_unix_ns,
                }
            })
            .collect();
        assert_eq!(report.frame_traces, expected);
        assert_eq!(
            trace, src_trace,
            "collector-side recovery must equal local recovery"
        );
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dst).ok();
    }
}
