//! `record`: the ADI block solver bare and under a spooled recording
//! session, in alternating pairs.
//!
//! The only workload that runs probe → sink → tempd → spool write. The
//! solver is instrumented at block granularity (the BT helpers
//! `binvcrhs`/`matvec_sub`/`matmul_sub` of Table 3), so it is call-dense
//! and a probe or spool change moves its slowdown directly.

use crate::tracer::{self, span, span_req};
use crate::util::{median, obs_counter, secs};
use crate::{Ctx, Outcome};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempest_probe::buffer::ThreadBuffer;
use tempest_probe::profiler::ThreadProfiler;
use tempest_probe::spool::{self, SpoolConfig};
use tempest_probe::{EventKind, MonotonicClock, SpooledSession, TempdConfig};
use tempest_workloads::native::adi::{AdiKernel, BlockTriSystem};
use tempest_workloads::native::NativeKernel;

/// Cells per block-tridiagonal system (the `AdiKernel` default).
const CELLS: usize = 512;
/// Systems solved per kernel run: 614k probe events in 150 probe batches.
const SWEEPS: usize = 200;
/// tempd's rate, as `tempest record` samples.
const TEMPD_HZ: f64 = 20.0;
/// Set-up repetitions; the reported set-up time is their median.
const SETUPS: usize = 5;
/// Longest wait for the spool writer to catch up. A batch dropped by
/// backpressure or I/O is never written; its events count as failed.
const WRITER_WAIT_S: f64 = 5.0;
/// Warm-up before the measured pairs. A process's first seconds of
/// spooled recording run at up to twice the later per-event cost on the
/// reference host, so the window starts after this.
const WARMUP_S: f64 = 8.0;

/// `AdiKernel::run` at block granularity, with the system seeds offset
/// by the workload seed so the seed chooses the solver's inputs.
fn kernel(tp: Option<&ThreadProfiler>, seed: u64, sweeps: usize) -> f64 {
    let mut checksum = 0.0;
    for s in 0..sweeps {
        let _g = tp.map(|t| t.scope("adi_"));
        let mut sys = BlockTriSystem::synthetic(CELLS, seed.wrapping_mul(1_000_003) + s as u64 + 1);
        let x = sys.solve(tp, true);
        checksum += x[CELLS / 2][2];
    }
    black_box(checksum)
}

/// Probe events one instrumented run records (enter + exit per scope).
fn expected_events(sweeps: usize) -> u64 {
    let k = AdiKernel {
        n: CELLS,
        sweeps,
        block_granularity: true,
    };
    2 * k.instrumented_calls()
}

/// The portable fallback sensor bank `tempest record` samples.
pub fn opteron_bank(seed: u64) -> Box<dyn tempest_sensors::SensorSource> {
    Box::new(tempest_sensors::sim::SimulatedSensorBank::new(
        tempest_sensors::platform::PlatformSpec::opteron_full(),
        tempest_sensors::node_model::NodeThermalModel::new(
            tempest_sensors::node_model::NodeThermalParams::opteron_node(),
        ),
        seed,
        0.1,
    ))
}

fn start_session(dir: &std::path::Path, seed: u64) -> std::io::Result<SpooledSession> {
    SpooledSession::start(
        SpoolConfig::new(dir),
        Arc::new(MonotonicClock::new()),
        Some(opteron_bank(seed)),
        TempdConfig::at_rate(TEMPD_HZ),
    )
}

/// The spool writer's and tempd's counters when a session starts.
struct WriterMark {
    fsyncs: u64,
    sealed: u64,
    rounds: u64,
}

impl WriterMark {
    fn now() -> WriterMark {
        WriterMark {
            fsyncs: obs_counter("spool_fsyncs_total"),
            sealed: obs_counter("spool_segments_sealed_total"),
            rounds: obs_counter("tempd_rounds_total"),
        }
    }

    /// Wait until the writer has written and fsynced every batch
    /// submitted so far: the probe's `probe_batches` and one per tempd
    /// round. Under the per-batch policy each batch and each segment seal
    /// fsyncs once, so batches written are fsyncs minus seals; exact to
    /// within the one batch whose counters are being updated. `finish`
    /// is left out because it first waits for tempd's next tick (up to
    /// one 50 ms period), which would round every run up to that grid.
    /// Gives up after WRITER_WAIT_S.
    fn wait_written(&self, probe_batches: u64) {
        let submitted = probe_batches + obs_counter("tempd_rounds_total") - self.rounds;
        let give_up = Instant::now() + Duration::from_secs_f64(WRITER_WAIT_S);
        loop {
            let fsyncs = obs_counter("spool_fsyncs_total") - self.fsyncs;
            let sealed = obs_counter("spool_segments_sealed_total") - self.sealed;
            if fsyncs.saturating_sub(sealed) >= submitted || Instant::now() > give_up {
                return;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// One instrumented run's outcome.
struct Instrumented {
    /// Wall time from session start until the spool writer has written
    /// and fsynced every batch: probe, sink, tempd and spool write.
    secs: f64,
    /// Wall time of `finish` (tempd's last tick, the seal), after `secs`.
    finish_s: f64,
    fsyncs: u64,
    checksum: f64,
    recorded: u64,
    recovered: u64,
    events_dropped: u64,
    samples_written: u64,
    samples_dropped: u64,
}

fn instrumented(ctx: &Ctx, dir: &std::path::Path, sweeps: usize) -> std::io::Result<Instrumented> {
    let mark = WriterMark::now();
    let t_run = Instant::now();
    let session = {
        let _s = span("probe.session_start");
        start_session(dir, ctx.seed)?
    };
    let tp = session.thread_profiler();
    let checksum = {
        let mut s = span("probe.kernel");
        let c = kernel(Some(&tp), ctx.seed, sweeps);
        tp.flush();
        s.work(expected_events(sweeps) as f64);
        c
    };
    let batches = expected_events(sweeps).div_ceil(ThreadBuffer::DEFAULT_CAPACITY as u64);
    {
        let _s = span("spool.drain");
        mark.wait_written(batches);
    }
    let run_s = secs(t_run);
    drop(tp);
    let t0 = Instant::now();
    let (stats, _) = {
        let _s = span("probe.session_finish");
        session.finish()?
    };
    let finish_s = secs(t0);
    let fsyncs = obs_counter("spool_fsyncs_total") - mark.fsyncs;
    let (trace, _) = {
        let mut s = span("recover");
        s.work(crate::util::dir_bytes(dir) as f64);
        spool::recover(dir).map_err(|e| std::io::Error::other(format!("{e:?}")))?
    };
    let recovered = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Enter { .. } | EventKind::Exit { .. }))
        .count() as u64;
    std::fs::remove_dir_all(dir).ok();
    Ok(Instrumented {
        secs: run_s,
        finish_s,
        fsyncs,
        checksum,
        recorded: stats.events_written,
        recovered,
        events_dropped: stats.events_dropped + stats.events_dropped_io,
        samples_written: stats.samples_written,
        samples_dropped: stats.samples_dropped + stats.samples_dropped_io,
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    out.condition("fsync_policy", "per-batch (SpoolConfig default)");
    out.condition("tempd", &format!("simulated Opteron bank at {TEMPD_HZ} Hz"));
    out.condition(
        "kernel",
        &format!("AdiKernel n={CELLS} sweeps={SWEEPS} block_granularity=true"),
    );
    out.condition("generator", "1 thread, alternating bare/instrumented pairs");
    out.condition(
        "warmup",
        &format!("{WARMUP_S} s of pairs before the window"),
    );

    // Set-up: warm-up pairs until WARMUP_S has passed. The set-up time
    // is the median of the first SETUPS of them, each its bare and its
    // instrumented run.
    let warmup_end = Instant::now() + std::time::Duration::from_secs_f64(WARMUP_S);
    let mut i = 0;
    while i < SETUPS || Instant::now() < warmup_end {
        let t0 = Instant::now();
        kernel(None, ctx.seed, SWEEPS);
        let bare_s = secs(t0);
        let warm = instrumented(ctx, &ctx.work.join(format!("setup-{i}")), SWEEPS)?;
        if i < SETUPS {
            out.setup_s.push(bare_s + warm.secs);
        }
        i += 1;
    }

    let expected = expected_events(SWEEPS);
    let mut ratios = Vec::new();
    let mut finish_ms = Vec::new();
    let mut fsyncs = Vec::new();
    let t_start = out.open_window();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut pair = 0u64;
    while Instant::now() < t_end || pair < 2 {
        let traced = tracer::enabled() && pair.is_multiple_of(2);
        tracer::set_local(traced);
        let t_pair = Instant::now();
        let dir = ctx.work.join(format!("pair-{pair}"));
        let iter = span_req("iter", pair + 1);
        let mut bare = (0.0, 0.0);
        let mut inst = None;
        for step in 0..2 {
            if (step == 0) == (pair.is_multiple_of(2)) {
                let _s = span("app.kernel");
                let t0 = Instant::now();
                let c = kernel(None, ctx.seed, SWEEPS);
                bare = (secs(t0), c);
            } else {
                inst = Some(instrumented(ctx, &dir, SWEEPS)?);
            }
        }
        let inst = inst.expect("the pair ran its instrumented half");
        drop(iter);
        let pair_s = secs(t_pair);
        tracer::set_local(true);
        out.attempted += expected + inst.samples_written + inst.samples_dropped;
        out.failed += inst.events_dropped + inst.samples_dropped;
        if inst.checksum.to_bits() != bare.1.to_bits() {
            out.problem(format!(
                "pair {pair}: checksum {} instrumented vs {} bare",
                inst.checksum, bare.1
            ));
        }
        if inst.recovered != inst.recorded || inst.recorded + inst.events_dropped != expected {
            out.problem(format!(
                "pair {pair}: {} events recorded, {} recovered, {expected} expected",
                inst.recorded, inst.recovered
            ));
        }
        out.layer("probe.events", inst.recovered as f64);
        out.add_layer("probe.dropped_events", inst.events_dropped as f64);
        ratios.push(inst.secs / bare.0);
        finish_ms.push(inst.finish_s * 1e3);
        fsyncs.push(inst.fsyncs as f64);
        out.op(inst.secs * 1e3, pair_s * 1e3, traced);
        pair += 1;
    }
    out.close_window(t_start);
    out.named("record_slowdown", median(&ratios), "x");
    out.named("record_finish_ms", median(&finish_ms), "ms");
    out.named("record_pairs", pair as f64, "count");
    out.layer("spool.fsyncs", median(&fsyncs));
    out.named("record_events_per_run", expected as f64, "count");
    Ok(())
}
