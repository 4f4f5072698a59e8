//! The one-call front door: trace in, profile out.
//!
//! Figure 1 of the paper: users "invoke the Tempest parser for post
//! processing" after a run. [`AnalysisRequest`] is that invocation — it
//! chains timeline reconstruction, symbolisation (validating that every
//! event's function id resolves through the trace's symbol table, as the
//! original resolved addresses against the executable), correlation, and
//! profile assembly.
//!
//! Two dispositions toward damaged input:
//!
//! * **Strict** (default): any malformed content — an event referencing a
//!   function absent from the symbol table, timestamps running backwards,
//!   a non-finite sample temperature — is a typed [`ParseError`].
//! * **Recover** ([`AnalysisOptions::recover`]): malformed content is
//!   dropped, the longest usable subsequence is analysed, and every loss
//!   is tallied in the profile's [`DataQuality`] record.
//!   [`AnalysisRequest::analyze_salvaged`] also folds in the losses a
//!   [`SalvageReport`] observed while reading a truncated trace file.
//!
//! [`AnalysisRequest`]: crate::api::AnalysisRequest
//! [`AnalysisRequest::analyze_salvaged`]: crate::api::AnalysisRequest::analyze_salvaged

use crate::columns::SlotIndex;
use crate::correlate::correlate_with_cancel;
use crate::profile::{build_profiles, DataQuality, NodeProfile};
use crate::timeline::Timeline;
use std::borrow::Cow;
use tempest_probe::event::{Event, EventKind};
use tempest_probe::limits::CancelToken;
use tempest_probe::trace::{NodeMeta, SalvageReport, Trace};
use tempest_sensors::SensorReading;

/// Knobs for the analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisOptions {
    /// Override the estimated sampling interval (ns) used by the
    /// significance rule. `None` = estimate from the trace.
    pub sample_interval_ns: Option<u64>,
    /// Recover from malformed input instead of erroring: drop events whose
    /// function id is unknown, greedily skip non-monotonic timestamp
    /// windows, discard non-finite samples, and record each loss in the
    /// resulting profile's [`DataQuality`].
    pub recover: bool,
    /// Number of time-window shards the correlate sweep splits the sample
    /// stream into: `0` (the default) picks one per available CPU, clamped
    /// so small traces stay sequential; `1` forces a sequential sweep;
    /// `n` uses exactly `n` shards. Every value produces bit-identical
    /// output — sharding only changes wall-clock time.
    pub shards: usize,
    /// Absolute wall-clock deadline for the whole analysis. When it
    /// passes mid-pipeline, the remaining work is skipped and the profile
    /// carries whatever was computed so far, flagged via
    /// [`DataQuality::deadline_hit`] — partial results, never an abort.
    /// A set deadline implies recover-style tolerance in the event walk
    /// (a hard error would defeat the point of a bounded best effort).
    pub deadline: Option<std::time::Instant>,
}

impl AnalysisOptions {
    /// Defaults with recovery enabled.
    pub fn recovering() -> Self {
        AnalysisOptions {
            recover: true,
            ..Default::default()
        }
    }
}

/// Errors from a strict analysis. Recover mode converts each of these
/// into counted drops instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// An event references a function id missing from the symbol table.
    UnknownFunction(u32),
    /// A scope event's timestamp ran backwards relative to its
    /// predecessor — the time-sorted contract is broken.
    NonMonotonicTimestamps {
        /// Index of the offending event in `trace.events`.
        index: usize,
        /// Timestamp of the last in-order scope event, ns.
        prev_ns: u64,
        /// The offending (earlier) timestamp, ns.
        ts_ns: u64,
    },
    /// A sensor sample carries a non-finite (NaN/∞) temperature.
    NonFiniteSample {
        /// Index of the offending sample in `trace.samples`.
        index: usize,
    },
    /// The trace contains no scope events at all — there is nothing to
    /// profile. Only reported by diagnostics ([`ParseError::classify`]);
    /// analysis itself tolerates empty traces.
    NoScopeEvents,
}

impl ParseError {
    /// Pre-flight a trace: return the first problem a strict parse would
    /// hit, or `None` for a clean trace. Used by `tempest doctor`.
    pub fn classify(trace: &Trace) -> Option<ParseError> {
        let symbols = symbol_index(trace);
        let mut scope_events = 0usize;
        let mut last_ts = 0u64;
        for (index, e) in trace.events.iter().enumerate() {
            let func = match e.kind {
                EventKind::Enter { func } | EventKind::Exit { func } => func,
                _ => continue,
            };
            scope_events += 1;
            if symbols.get(func.0).is_none() {
                return Some(ParseError::UnknownFunction(func.0));
            }
            if e.timestamp_ns < last_ts {
                return Some(ParseError::NonMonotonicTimestamps {
                    index,
                    prev_ns: last_ts,
                    ts_ns: e.timestamp_ns,
                });
            }
            last_ts = e.timestamp_ns;
        }
        if let Some(index) = trace
            .samples
            .iter()
            .position(|s| !s.temperature.celsius().is_finite())
        {
            return Some(ParseError::NonFiniteSample { index });
        }
        if scope_events == 0 {
            return Some(ParseError::NoScopeEvents);
        }
        None
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownFunction(id) => {
                write!(
                    f,
                    "event references unknown function id {id} (corrupt symbol table?)"
                )
            }
            ParseError::NonMonotonicTimestamps {
                index,
                prev_ns,
                ts_ns,
            } => write!(
                f,
                "event {index} steps backwards in time ({ts_ns} ns after {prev_ns} ns) — \
                 clock step or unserialised writers?"
            ),
            ParseError::NonFiniteSample { index } => {
                write!(f, "sample {index} has a non-finite temperature")
            }
            ParseError::NoScopeEvents => {
                write!(f, "trace contains no function entry/exit events")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Analyse one node's trace into a [`NodeProfile`], folding the losses a
/// salvage read observed ([`Trace::read_salvage`]), if any, into the
/// profile's [`DataQuality`]. The body behind [`crate::api::AnalysisRequest`].
pub(crate) fn analyze_trace_salvaged(
    trace: &Trace,
    salvage: Option<&SalvageReport>,
    options: AnalysisOptions,
) -> Result<NodeProfile, ParseError> {
    let mut quality = DataQuality {
        recovered: options.recover,
        ..Default::default()
    };
    if let Some(report) = salvage {
        quality.absorb_salvage(report);
    }
    let cancel = CancelToken::until_opt(options.deadline);
    // A deadline asks for the best bounded effort, so the walk tolerates
    // damage the way recover mode does instead of erroring out.
    let tolerant = options.recover || options.deadline.is_some();

    // Symbolisation + monotonicity walk. The original tool did the
    // analogous address→symbol lookup via the ELF symbol table; an
    // unresolvable address meant a corrupt trace. In recover mode the
    // offending events are dropped (greedy monotonic filter: keep a scope
    // event only if it does not precede the last kept one) and counted.
    let symbols = symbol_index(trace);
    let mut kept: Vec<Event> = Vec::new();
    let mut last_ts = 0u64;
    for (index, e) in trace.events.iter().enumerate() {
        if index & 0xFFF == 0 && cancel.is_cancelled() {
            // Deadline passed mid-walk: profile what was kept so far.
            quality.deadline_hit = true;
            break;
        }
        let func = match e.kind {
            EventKind::Enter { func } | EventKind::Exit { func } => func,
            _ => {
                if matches!(e.kind, EventKind::Gap { .. }) {
                    quality.gap_events += 1;
                }
                if tolerant {
                    kept.push(*e);
                }
                continue;
            }
        };
        quality.events_seen += 1;
        if symbols.get(func.0).is_none() {
            if tolerant {
                quality.events_dropped_unknown_func += 1;
                continue;
            }
            return Err(ParseError::UnknownFunction(func.0));
        }
        if e.timestamp_ns < last_ts {
            if tolerant {
                quality.events_dropped_nonmonotonic += 1;
                continue;
            }
            return Err(ParseError::NonMonotonicTimestamps {
                index,
                prev_ns: last_ts,
                ts_ns: e.timestamp_ns,
            });
        }
        last_ts = e.timestamp_ns;
        if tolerant {
            kept.push(*e);
        }
    }
    let events: Cow<'_, [Event]> = if tolerant {
        Cow::Owned(kept)
    } else {
        Cow::Borrowed(&trace.events)
    };

    // Sample hygiene: the statistics layer requires finite temperatures.
    let samples: Cow<'_, [SensorReading]> = match trace
        .samples
        .iter()
        .position(|s| !s.temperature.celsius().is_finite())
    {
        None => Cow::Borrowed(&trace.samples),
        Some(index) if !tolerant => {
            return Err(ParseError::NonFiniteSample { index });
        }
        Some(_) => {
            let finite: Vec<SensorReading> = trace
                .samples
                .iter()
                .filter(|s| s.temperature.celsius().is_finite())
                .copied()
                .collect();
            quality.nonfinite_samples_skipped += (trace.samples.len() - finite.len()) as u64;
            Cow::Owned(finite)
        }
    };

    let timeline = {
        let _stage = tempest_obs::stage("timeline");
        Timeline::build(&events)
    };
    let correlation = correlate_with_cancel(&timeline, &samples, options.shards, &cancel);
    quality.samples_resorted = correlation.resorted;
    quality.deadline_hit |= correlation.cancelled;
    let mut profile = {
        let _stage = tempest_obs::stage("profile");
        build_profiles(
            trace.node.clone(),
            &trace.functions,
            &timeline,
            &correlation,
            &samples,
        )
    };
    if let Some(dt) = options.sample_interval_ns {
        profile.sample_interval_ns = Some(dt);
        // Re-apply the significance rule under the forced interval.
        for f in &mut profile.functions {
            let long_enough = f.inclusive_ns >= dt;
            if !long_enough {
                f.significant = false;
                f.thermal.clear();
                f.thermal_exclusive.clear();
            }
        }
    }
    quality.gap_time_ns = profile
        .sample_interval_ns
        .unwrap_or(0)
        .saturating_mul(quality.gap_events as u64);
    quality.sensor_coverage = sensor_coverage(&trace.node, &samples);
    profile.quality = quality;
    Ok(profile)
}

/// The trace's symbol table as an O(1) function-id lookup, built once so
/// the per-event checks do not scan `trace.functions`.
fn symbol_index(trace: &Trace) -> SlotIndex {
    let mut symbols = SlotIndex::default();
    for f in &trace.functions {
        symbols.slot(f.id.0);
    }
    symbols
}

/// Fraction of expected sensor samples actually present.
///
/// Expectation is inferred from the data itself: the best-covered sensor
/// defines how many samples a healthy sensor should have produced, and
/// the node's inventory (or, if empty, the set of sensors observed)
/// defines how many sensors should have produced them. A sensor that was
/// dead all run therefore drags coverage down even though it wrote no
/// samples at all.
fn sensor_coverage(node: &NodeMeta, samples: &[SensorReading]) -> f64 {
    use std::collections::HashMap;
    let mut per_sensor: HashMap<u16, usize> = HashMap::new();
    for s in samples {
        *per_sensor.entry(s.sensor.0).or_default() += 1;
    }
    let expected_sensors = node.sensors.len().max(per_sensor.len());
    if expected_sensors == 0 {
        return 1.0; // nothing expected, nothing missing
    }
    let best = per_sensor.values().copied().max().unwrap_or(0);
    if best == 0 {
        return 0.0; // sensors exist but none ever produced a sample
    }
    let total: usize = per_sensor.values().sum();
    (total as f64 / (best * expected_sensors) as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
    use tempest_sensors::{SensorId, Temperature};

    fn mini_trace() -> Trace {
        let sec = 1_000_000_000u64;
        Trace {
            node: NodeMeta::anonymous(),
            functions: vec![FunctionDef {
                id: FunctionId(0),
                name: "main".into(),
                address: 0x400000,
                kind: ScopeKind::Function,
            }],
            events: vec![
                Event::enter(0, ThreadId(0), FunctionId(0)),
                Event::exit(10 * sec, ThreadId(0), FunctionId(0)),
            ],
            samples: (0..40)
                .map(|i| {
                    SensorReading::new(
                        SensorId(0),
                        i * 250_000_000,
                        Temperature::from_celsius(40.0),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn end_to_end_analysis() {
        let p = analyze_trace_salvaged(&mini_trace(), None, AnalysisOptions::default()).unwrap();
        assert_eq!(p.functions.len(), 1);
        let main = p.by_name("main").unwrap();
        assert!(main.significant);
        assert_eq!(main.thermal[&SensorId(0)].count, 40);
        assert!((main.thermal[&SensorId(0)].avg - 104.0).abs() < 1e-9);
        assert!(p.quality.is_pristine(), "{}", p.quality);
        assert!(!p.quality.recovered);
    }

    #[test]
    fn unknown_function_id_is_an_error() {
        let mut t = mini_trace();
        t.events.push(Event::enter(1, ThreadId(0), FunctionId(9)));
        let err = analyze_trace_salvaged(&t, None, AnalysisOptions::default()).unwrap_err();
        assert!(matches!(err, ParseError::UnknownFunction(9)));
        assert!(err.to_string().contains("unknown function id 9"));
    }

    #[test]
    fn forced_sample_interval_reapplies_significance() {
        // Force an interval longer than main's 10 s: nothing significant.
        let p = analyze_trace_salvaged(
            &mini_trace(),
            None,
            AnalysisOptions {
                sample_interval_ns: Some(11_000_000_000),
                ..Default::default()
            },
        )
        .unwrap();
        let main = p.by_name("main").unwrap();
        assert!(!main.significant);
        assert!(main.thermal.is_empty());
    }

    #[test]
    fn recover_drops_unknown_function_events() {
        let mut t = mini_trace();
        t.events.push(Event::enter(1, ThreadId(0), FunctionId(9)));
        let p = analyze_trace_salvaged(&t, None, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.events_dropped_unknown_func, 1);
        assert!(p.quality.recovered);
        // The valid part of the trace still profiles normally.
        assert!(p.by_name("main").unwrap().significant);
    }

    #[test]
    fn strict_rejects_backwards_timestamps_recover_skips_them() {
        let mut t = mini_trace();
        // Splice in a window that runs backwards: 5 s, then 2 s.
        t.events
            .insert(1, Event::enter(5_000_000_000, ThreadId(0), FunctionId(0)));
        t.events
            .insert(2, Event::exit(2_000_000_000, ThreadId(0), FunctionId(0)));
        let err = analyze_trace_salvaged(&t, None, AnalysisOptions::default()).unwrap_err();
        assert!(
            matches!(err, ParseError::NonMonotonicTimestamps { index: 2, .. }),
            "{err:?}"
        );
        let p = analyze_trace_salvaged(&t, None, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.events_dropped_nonmonotonic, 1);
        assert!(p.by_name("main").is_some());
    }

    #[test]
    fn strict_rejects_nan_samples_recover_discards_them() {
        let mut t = mini_trace();
        t.samples.push(SensorReading::new(
            SensorId(0),
            1,
            Temperature::from_celsius(f64::NAN),
        ));
        let err = analyze_trace_salvaged(&t, None, AnalysisOptions::default()).unwrap_err();
        assert!(matches!(err, ParseError::NonFiniteSample { index: 40 }));
        let p = analyze_trace_salvaged(&t, None, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.nonfinite_samples_skipped, 1);
        assert_eq!(p.by_name("main").unwrap().thermal[&SensorId(0)].count, 40);
    }

    #[test]
    fn gap_markers_are_counted_and_costed() {
        let mut t = mini_trace();
        for i in 0..4 {
            t.events.push(Event::gap(i * 250_000_000, SensorId(0)));
        }
        let p = analyze_trace_salvaged(&t, None, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.gap_events, 4);
        // 4 gaps × 250 ms estimated interval.
        assert_eq!(p.quality.gap_time_ns, 1_000_000_000);
        assert!(!p.quality.is_pristine());
    }

    #[test]
    fn coverage_reflects_missing_sensor_data() {
        // Inventory says two sensors; only sensor 0 produced samples.
        let mut t = mini_trace();
        t.node.sensors = vec![
            tempest_probe::trace::SensorMeta {
                id: SensorId(0),
                label: "CPU0".into(),
                kind: tempest_sensors::SensorKind::CpuCore,
            },
            tempest_probe::trace::SensorMeta {
                id: SensorId(1),
                label: "CPU1".into(),
                kind: tempest_sensors::SensorKind::CpuCore,
            },
        ];
        let p = analyze_trace_salvaged(&t, None, AnalysisOptions::recovering()).unwrap();
        assert!(
            (p.quality.sensor_coverage - 0.5).abs() < 1e-9,
            "{}",
            p.quality.sensor_coverage
        );
    }

    #[test]
    fn salvage_report_losses_flow_into_quality() {
        let report = SalvageReport {
            truncated_in: Some(tempest_probe::trace::TraceSection::Samples),
            events_declared: 100,
            events_salvaged: 100,
            samples_declared: 40,
            samples_salvaged: 25,
            nonfinite_samples_skipped: 2,
            events_dropped_backpressure: 7,
            samples_dropped_backpressure: 3,
            limit: None,
        };
        let p = analyze_trace_salvaged(&mini_trace(), Some(&report), AnalysisOptions::recovering())
            .unwrap();
        assert_eq!(p.quality.samples_lost_in_salvage, 15);
        assert_eq!(p.quality.nonfinite_samples_skipped, 2);
        assert_eq!(p.quality.events_lost_in_salvage, 0);
        assert_eq!(p.quality.events_dropped_backpressure, 7);
        assert_eq!(p.quality.samples_dropped_backpressure, 3);
        assert!(!p.quality.is_pristine(), "shed events are not pristine");
        assert!(p.quality.to_string().contains("backpressure"));
    }

    #[test]
    fn limit_overruns_surface_in_data_quality() {
        use tempest_probe::limits::{LimitExceeded, LimitKind};
        let report = SalvageReport {
            truncated_in: Some(tempest_probe::trace::TraceSection::Functions),
            limit: Some(LimitExceeded {
                kind: LimitKind::Cardinality,
                what: "functions",
                observed: 1 << 31,
                limit: 65_536,
            }),
            ..Default::default()
        };
        let p = analyze_trace_salvaged(&mini_trace(), Some(&report), AnalysisOptions::recovering())
            .unwrap();
        let hit = p.quality.limit.expect("limit carried into quality");
        assert_eq!(hit.what, "functions");
        assert!(!p.quality.is_pristine());
        assert!(p.quality.was_limited());
        assert!(p.quality.to_string().contains("stopped by limit"));
    }

    #[test]
    fn expired_deadline_still_renders_partial_results() {
        let t = mini_trace();
        let options = AnalysisOptions {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..Default::default()
        };
        // Strict options + expired deadline: no error, a flagged profile.
        let p = analyze_trace_salvaged(&t, None, options).unwrap();
        assert!(p.quality.deadline_hit);
        assert!(p.quality.was_limited());
        assert!(!p.quality.is_pristine());
        // A generous deadline leaves the analysis untouched.
        let future = AnalysisOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let full = analyze_trace_salvaged(&t, None, future).unwrap();
        assert!(!full.quality.deadline_hit);
        assert!(full.by_name("main").unwrap().significant);
    }

    #[test]
    fn classify_triages_trace_damage() {
        assert_eq!(ParseError::classify(&mini_trace()), None);
        let mut unknown = mini_trace();
        unknown
            .events
            .push(Event::enter(1, ThreadId(0), FunctionId(7)));
        assert!(matches!(
            ParseError::classify(&unknown),
            Some(ParseError::UnknownFunction(7))
        ));
        let empty = Trace {
            node: NodeMeta::anonymous(),
            functions: vec![],
            events: vec![],
            samples: vec![],
        };
        assert_eq!(
            ParseError::classify(&empty),
            Some(ParseError::NoScopeEvents)
        );
    }
}
