//! A profiling session: profiler + tempd + trace assembly in one handle.
//!
//! This is the user-facing composition the paper describes in Figure 1:
//! "compile with instrumentation enabled, link to one or more Tempest
//! libraries, run their code, and invoke the Tempest parser for post
//! processing". In Rust terms: start a session, instrument scopes with
//! [`crate::profile_fn!`], finish the session to obtain a
//! [`Trace`] ready for the `tempest-core` parser.

use crate::buffer::VecSink;
use crate::clock::{Clock, MonotonicClock};
use crate::profiler::{Profiler, ThreadProfiler};
use crate::tempd::{Tempd, TempdConfig, TempdStats};
use crate::trace::{NodeMeta, SensorMeta, Trace};
use std::sync::Arc;
use tempest_sensors::SensorSource;

/// A live profiling session on one node.
pub struct ProfilingSession {
    profiler: Arc<Profiler>,
    sink: Arc<VecSink>,
    tempd: Option<Tempd>,
    node: NodeMeta,
    tempd_stats: Option<TempdStats>,
}

impl ProfilingSession {
    /// Start a session with the default monotonic clock and no sensor
    /// daemon (pure performance profiling).
    pub fn start() -> Self {
        Self::start_with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Start a session on an explicit clock, no sensors.
    pub fn start_with_clock(clock: Arc<dyn Clock>) -> Self {
        let sink = VecSink::new();
        let profiler = Profiler::new(clock, sink.clone());
        ProfilingSession {
            profiler,
            sink,
            tempd: None,
            node: NodeMeta::anonymous(),
            tempd_stats: None,
        }
    }

    /// Start a session and launch `tempd` over the given sensor source at
    /// the paper's default 4 Hz (or any configured rate).
    pub fn start_with_sensors(
        clock: Arc<dyn Clock>,
        source: Box<dyn SensorSource>,
        config: TempdConfig,
    ) -> Self {
        let sink = VecSink::new();
        let profiler = Profiler::new(clock.clone(), sink.clone());
        let sensors = source
            .sensors()
            .iter()
            .map(|s| SensorMeta {
                id: s.id,
                label: s.label.clone(),
                kind: s.kind,
            })
            .collect();
        let node = NodeMeta {
            node_id: 0,
            hostname: hostname(),
            sensors,
        };
        let tempd = Tempd::spawn(source, clock, sink.clone(), config);
        ProfilingSession {
            profiler,
            sink,
            tempd: Some(tempd),
            node,
            tempd_stats: None,
        }
    }

    /// Set the cluster rank recorded in the trace.
    pub fn set_node_id(&mut self, id: u32) {
        self.node.node_id = id;
    }

    /// The session's profiler, for spawning [`ThreadProfiler`]s.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// Shorthand: a recording handle for the calling thread.
    pub fn thread_profiler(&self) -> ThreadProfiler {
        self.profiler.thread_profiler()
    }

    /// Stop tempd (if running) and assemble the trace. Thread profilers
    /// must be flushed/dropped by the caller before this — their staged
    /// events flush on drop.
    pub fn finish(mut self) -> Trace {
        if let Some(t) = self.tempd.take() {
            self.tempd_stats = Some(t.shutdown());
        }
        let mixed = self.sink.drain();
        let functions = self.profiler.registry().snapshot();
        Trace::from_mixed_events(self.node.clone(), functions, mixed)
    }

    /// Like [`finish`](Self::finish) but also returns tempd statistics
    /// (for the §4.1 steady-state/overhead experiments).
    pub fn finish_with_stats(mut self) -> (Trace, Option<TempdStats>) {
        if let Some(t) = self.tempd.take() {
            self.tempd_stats = Some(t.shutdown());
        }
        let stats = self.tempd_stats;
        let mixed = self.sink.drain();
        let functions = self.profiler.registry().snapshot();
        (
            Trace::from_mixed_events(self.node.clone(), functions, mixed),
            stats,
        )
    }
}

/// A profiling session whose events are spooled to a crash-consistent
/// segmented log (see [`crate::spool`]) while the program runs.
///
/// The spool checksums every frame, seals bounded segments atomically,
/// and bounds the submit queue with an explicit overflow policy — so a
/// `kill -9` mid-run leaves a directory that [`crate::spool::recover`]
/// can always turn back into a verified trace.
pub struct SpooledSession {
    profiler: Arc<Profiler>,
    tempd: Option<Tempd>,
    node: NodeMeta,
    sink: Arc<crate::spool::SpoolSink>,
}

impl SpooledSession {
    /// Start a spooled session writing into `spool.dir`, with an optional
    /// sensor source for tempd.
    pub fn start(
        spool: crate::spool::SpoolConfig,
        clock: Arc<dyn Clock>,
        source: Option<Box<dyn SensorSource>>,
        config: TempdConfig,
    ) -> std::io::Result<SpooledSession> {
        let sensors = source
            .as_ref()
            .map(|s| {
                s.sensors()
                    .iter()
                    .map(|m| SensorMeta {
                        id: m.id,
                        label: m.label.clone(),
                        kind: m.kind,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let node = NodeMeta {
            node_id: 0,
            hostname: hostname(),
            sensors,
        };
        // Crash dumps from the flight recorder land beside the spool,
        // where `tempest doctor` will look for them.
        tempest_obs::flight::set_dump_path(spool.dir.join(crate::spool::FLIGHT_DUMP_NAME));
        let sink = crate::spool::SpoolSink::spawn(&spool, node.clone())?;
        let profiler = Profiler::new(clock.clone(), sink.clone());
        // The profiler owns the registry; hand it to the spool writer so
        // sealed segments carry real symbol names.
        sink.attach_registry(profiler.registry().clone());
        let tempd = source.map(|s| Tempd::spawn(s, clock, sink.clone(), config));
        Ok(SpooledSession {
            profiler,
            tempd,
            node,
            sink,
        })
    }

    /// The session's profiler.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// A recording handle for the calling thread.
    pub fn thread_profiler(&self) -> ThreadProfiler {
        self.profiler.thread_profiler()
    }

    /// Node metadata stamped into every segment.
    pub fn node(&self) -> &NodeMeta {
        &self.node
    }

    /// Stop tempd, seal the spool, and return the writer statistics plus
    /// tempd's (if it ran). The tempd shutdown happens first so its
    /// backpressure drop count is read while the sink is still live, and
    /// the spool footer then records the same loss for recovery to report.
    pub fn finish(mut self) -> std::io::Result<(crate::spool::SpoolStats, Option<TempdStats>)> {
        let tempd_stats = self.tempd.take().map(|t| t.shutdown());
        let stats = self.sink.finish()?;
        Ok((stats, tempd_stats))
    }
}

fn hostname() -> String {
    std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use tempest_sensors::source::ConstantSource;

    #[test]
    fn plain_session_produces_scope_trace() {
        let session = ProfilingSession::start();
        let tp = session.thread_profiler();
        {
            let _m = tp.scope("main");
            let _f = tp.scope("foo1");
        }
        tp.flush();
        drop(tp);
        let trace = session.finish();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.functions.len(), 2);
        assert!(trace.samples.is_empty());
    }

    #[test]
    fn sensor_session_collects_both_streams() {
        let session = ProfilingSession::start_with_sensors(
            Arc::new(MonotonicClock::new()),
            Box::new(ConstantSource::single(40.0)),
            TempdConfig::at_rate(200.0),
        );
        let tp = session.thread_profiler();
        {
            let _g = tp.scope("work");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        drop(tp); // flush on drop
        let (trace, stats) = session.finish_with_stats();
        assert_eq!(trace.events.len(), 2);
        assert!(!trace.samples.is_empty(), "tempd should have sampled");
        assert_eq!(trace.node.sensors.len(), 1);
        let stats = stats.unwrap();
        assert!(stats.rounds > 0);
    }

    #[test]
    fn events_and_samples_share_the_clock_axis() {
        let session = ProfilingSession::start_with_sensors(
            Arc::new(MonotonicClock::new()),
            Box::new(ConstantSource::single(40.0)),
            TempdConfig::at_rate(500.0),
        );
        let tp = session.thread_profiler();
        {
            let _g = tp.scope("work");
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        drop(tp);
        let trace = session.finish();
        let enter_ts = trace.events[0].timestamp_ns;
        let exit_ts = trace.events[1].timestamp_ns;
        assert!(matches!(trace.events[0].kind, EventKind::Enter { .. }));
        // Samples taken during the scope fall inside [enter, exit].
        let inside = trace
            .samples
            .iter()
            .filter(|s| s.timestamp_ns >= enter_ts && s.timestamp_ns <= exit_ts)
            .count();
        assert!(
            inside >= 5,
            "expected several samples inside the 30 ms scope, got {inside}"
        );
    }

    #[test]
    fn spooled_session_recovers_full_trace_from_disk() {
        let dir = std::env::temp_dir().join(format!("tempest-spooled-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let session = SpooledSession::start(
            crate::spool::SpoolConfig::new(&dir).fsync(crate::spool::FsyncPolicy::Never),
            Arc::new(MonotonicClock::new()),
            Some(Box::new(ConstantSource::single(39.0))),
            TempdConfig::at_rate(200.0),
        )
        .unwrap();
        {
            let tp = session.thread_profiler();
            let _g = tp.scope("spooled_main");
            std::thread::sleep(std::time::Duration::from_millis(30));
        } // thread profiler dropped (flushes) before finish
        let (stats, tempd_stats) = session.finish().unwrap();
        assert_eq!(stats.events_written, 2);
        assert!(stats.samples_written > 0);
        assert_eq!(stats.events_dropped + stats.samples_dropped, 0);
        assert_eq!(
            tempd_stats.unwrap().health.samples_dropped_backpressure,
            0,
            "block policy sheds nothing"
        );

        let (trace, report) = crate::spool::recover(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(report.clean_shutdown);
        assert!(report.salvage.is_clean());
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.samples.len() as u64, stats.samples_written);
        assert!(trace.functions.iter().any(|f| f.name == "spooled_main"));
        assert_eq!(trace.node.sensors.len(), 1);
    }

    #[test]
    fn node_id_is_recorded() {
        let mut session = ProfilingSession::start();
        session.set_node_id(3);
        let trace = session.finish();
        assert_eq!(trace.node.node_id, 3);
    }
}
