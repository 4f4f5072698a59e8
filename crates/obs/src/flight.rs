//! Flight recorder: a bounded, lock-light ring of structured pipeline
//! events that survives to disk when something goes wrong.
//!
//! Counters say *how often* the pipeline degraded; the flight recorder
//! says *what happened, in order*. Call sites record state transitions
//! (sensor quarantine, backpressure shedding, decode limit hits,
//! ship retry/backoff, degrade-to-local) through the
//! [`event!`](crate::event!) macro; the ring keeps the most recent [`DEFAULT_FLIGHT_CAPACITY`]
//! events. On panic, `LimitExceeded`, or shipping degradation the ring
//! is dumped as `flight.json` beside the spool, where `tempest doctor`
//! picks it up for triage.
//!
//! Recording takes one short mutex hold (the ring is append/evict on a
//! `VecDeque`) and never allocates on the reader side; events off the
//! hot sampling path only — this is a black box, not a tracing system.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::codec::unix_now_ns;
use crate::json::escape;

/// Default number of events the global flight ring retains.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Severity of a flight event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightLevel {
    /// Expected-but-notable transition (e.g. session sealed).
    Info,
    /// Degradation the pipeline absorbed (retry, shed, quarantine).
    Warn,
    /// Lost data or abandoned work (limit hit, degrade-to-local).
    Error,
}

impl FlightLevel {
    /// Lowercase name used in the JSON dump.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightLevel::Info => "info",
            FlightLevel::Warn => "warn",
            FlightLevel::Error => "error",
        }
    }
}

/// One recorded pipeline transition.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Wall-clock nanoseconds since the Unix epoch.
    pub unix_ns: u64,
    /// Severity.
    pub level: FlightLevel,
    /// Subsystem that recorded the event (`"ship"`, `"tempd"`, ...).
    pub target: String,
    /// Human-readable description of the transition.
    pub message: String,
    /// Structured `(key, value)` context, already stringified.
    pub fields: Vec<(String, String)>,
}

/// Bounded ring of [`FlightEvent`]s; oldest entries evicted when full.
pub struct FlightRecorder {
    capacity: usize,
    enabled: AtomicBool,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// Creates an enabled recorder retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            enabled: AtomicBool::new(true),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&self, event: FlightEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Convenience constructor + record used by the
    /// [`event!`](crate::event!) macro.
    pub fn record_parts(
        &self,
        level: FlightLevel,
        target: &str,
        message: String,
        fields: Vec<(String, String)>,
    ) {
        self.record(FlightEvent {
            unix_ns: unix_now_ns(),
            level,
            target: target.to_string(),
            message,
            fields,
        });
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Copies the retained events, oldest first, without clearing.
    pub fn drain_copy(&self) -> Vec<FlightEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Renders the ring as the `flight.json` document.
    pub fn to_json(&self, reason: &str) -> String {
        use std::fmt::Write as _;
        let events = self.drain_copy();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"dumped_unix_ns\": {},", unix_now_ns());
        let _ = writeln!(out, "  \"reason\": \"{}\",", escape(reason));
        out.push_str("  \"events\": [");
        for (i, e) in events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"unix_ns\": {}, \"level\": \"{}\", \"target\": \"{}\", \"message\": \"{}\", \"fields\": {{",
                e.unix_ns,
                e.level.as_str(),
                escape(&e.target),
                escape(&e.message),
            );
            for (j, (k, v)) in e.fields.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the ring to `path` atomically (temp + rename). An empty
    /// ring still dumps — "nothing was recorded" is itself evidence.
    pub fn dump_to(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        let doc = self.to_json(reason);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, doc)?;
        std::fs::rename(&tmp, path)
    }
}

static GLOBAL_FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder. Always enabled — it is the black
/// box, and recording is off the hot sampling path.
pub fn flight() -> &'static FlightRecorder {
    GLOBAL_FLIGHT.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
}

static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static PANIC_HOOK: OnceLock<()> = OnceLock::new();

/// Registers where crash dumps should land (typically
/// `<spool>/flight.json`) and installs the panic hook on first call.
/// The hook chains the previous one, so test harness panic output is
/// preserved.
pub fn set_dump_path(path: PathBuf) {
    *DUMP_PATH.lock() = Some(path);
    PANIC_HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            flight().record_parts(
                FlightLevel::Error,
                "panic",
                msg,
                info.location()
                    .map(|l| {
                        vec![
                            ("file".to_string(), l.file().to_string()),
                            ("line".to_string(), l.line().to_string()),
                        ]
                    })
                    .unwrap_or_default(),
            );
            dump_now("panic");
            prev(info);
        }));
    });
}

/// Dumps the global ring to the registered path, if any; returns the
/// path written. Best effort — IO errors are swallowed (the recorder
/// must never take the process down with it).
pub fn dump_now(reason: &str) -> Option<PathBuf> {
    let path = DUMP_PATH.lock().clone()?;
    flight().dump_to(&path, reason).ok()?;
    Some(path)
}

/// Records a structured event on the [global flight recorder](flight).
///
/// ```
/// tempest_obs::event!(Warn, "ship", "retrying connect", attempt = 3, backoff_ms = 50);
/// ```
#[macro_export]
macro_rules! event {
    ($level:ident, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::flight::flight().record_parts(
            $crate::flight::FlightLevel::$level,
            $target,
            ::std::string::ToString::to_string(&$msg),
            ::std::vec![$((
                ::std::string::String::from(stringify!($key)),
                ::std::format!("{}", $value)
            )),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn ring_bounds_and_orders_events() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record_parts(
                FlightLevel::Info,
                "test",
                format!("e{i}"),
                vec![("i".into(), i.to_string())],
            );
        }
        let got = rec.drain_copy();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].message, "e2");
        assert_eq!(got[2].message, "e4");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::new(8);
        rec.set_enabled(false);
        rec.record_parts(FlightLevel::Warn, "t", "dropped".into(), vec![]);
        assert!(rec.is_empty());
    }

    #[test]
    fn dump_parses_back_through_json() {
        let rec = FlightRecorder::new(8);
        rec.record_parts(
            FlightLevel::Error,
            "spool",
            "write failed, degrading".into(),
            vec![("errno".into(), "28".into()), ("seg".into(), "2".into())],
        );
        let doc = rec.to_json("test \"quoted\" reason");
        let v = Json::parse(&doc).expect("flight dump must be valid JSON");
        assert!(v.get("dumped_unix_ns").unwrap().as_f64().unwrap() > 0.0);
        let events = v.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("level").unwrap().as_str(), Some("error"));
        assert_eq!(events[0].get("target").unwrap().as_str(), Some("spool"));
        assert_eq!(
            events[0]
                .get("fields")
                .unwrap()
                .get("errno")
                .unwrap()
                .as_str(),
            Some("28")
        );
    }

    #[test]
    fn event_macro_hits_the_global_ring() {
        let before = flight().len();
        crate::event!(
            Warn,
            "macro-test",
            "something bent",
            count = 2,
            detail = "x"
        );
        assert!(flight().len() > before || flight().len() == DEFAULT_FLIGHT_CAPACITY);
        let last = flight().drain_copy().into_iter().last().unwrap();
        // Another test may have recorded after us; only check when ours is last.
        if last.target == "macro-test" {
            assert_eq!(last.fields[0], ("count".to_string(), "2".to_string()));
        }
    }

    #[test]
    fn dump_to_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("tempest-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.json");
        let rec = FlightRecorder::new(4);
        rec.record_parts(FlightLevel::Info, "t", "hello".into(), vec![]);
        rec.dump_to(&path, "unit").unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&doc).is_ok());
        assert!(!dir.join("flight.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
