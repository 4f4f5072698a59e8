//! An independent oracle for the paper's correlation (§3.2) and its
//! statistics (§4.2).
//!
//! The oracle applies the definition literally, in O(samples × intervals):
//! a sample at instant `t` is attributed *inclusively* to every distinct
//! function with an interval `start ≤ t < end` on any thread, and
//! *exclusively* to the deepest such frame of each thread (on a depth tie,
//! the one earliest in `Timeline::intervals`). The optimised
//! per-instant sweep must agree with it at every shard count,
//! `build_profiles` must report the oracle's Min/Avg/Max/Sdv/Var/Med/Mod,
//! and `hotspots` must rank functions as the oracle's cells do.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tempest_core::analysis::hotspots;
use tempest_core::correlate::{correlate_with, Correlation};
use tempest_core::stats::{Summary, SummaryStats};
use tempest_core::timeline::{Interval, Timeline};
use tempest_core::{AnalysisRequest, NodeProfile};
use tempest_probe::corrupt::TraceCorruptor;
use tempest_probe::event::{Event, EventKind, ThreadId};
use tempest_probe::func::FunctionId;
use tempest_probe::{Trace, TraceGenerator, TraceSpec};
use tempest_sensors::{SensorId, SensorReading, Temperature};

type Cells = BTreeMap<(FunctionId, SensorId), Vec<f64>>;

/// The naive attribution: °F values per (function, sensor).
#[derive(Default)]
struct Oracle {
    inclusive: Cells,
    exclusive: Cells,
    unattributed: usize,
}

fn oracle(timeline: &Timeline, samples: &[SensorReading]) -> Oracle {
    let mut o = Oracle::default();
    for s in samples {
        let t = s.timestamp_ns;
        let covering: Vec<&Interval> = timeline
            .intervals
            .iter()
            .filter(|i| i.start_ns <= t && t < i.end_ns)
            .collect();
        if covering.is_empty() {
            o.unattributed += 1;
            continue;
        }
        let value = s.temperature.fahrenheit();
        let funcs: BTreeSet<FunctionId> = covering.iter().map(|i| i.func).collect();
        for f in funcs {
            o.inclusive.entry((f, s.sensor)).or_default().push(value);
        }
        let mut deepest: BTreeMap<ThreadId, &Interval> = BTreeMap::new();
        for i in covering {
            let d = deepest.entry(i.thread).or_insert(i);
            if i.depth > d.depth {
                *d = i;
            }
        }
        for i in deepest.values() {
            o.exclusive
                .entry((i.func, s.sensor))
                .or_default()
                .push(value);
        }
    }
    o
}

fn naive_summary(values: &[f64]) -> Summary {
    SummaryStats::from_samples(values)
        .summary()
        .expect("non-empty cell")
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

fn assert_summary(got: &Summary, want: &Summary, what: &str) {
    assert_eq!(got.count, want.count, "{what}: count");
    assert_eq!(got.min, want.min, "{what}: min");
    assert_eq!(got.max, want.max, "{what}: max");
    assert_eq!(got.med, want.med, "{what}: median");
    assert_eq!(got.mode, want.mode, "{what}: mode");
    assert!(
        close(got.avg, want.avg),
        "{what}: mean {} vs {}",
        got.avg,
        want.avg
    );
    assert!(
        close(got.var, want.var),
        "{what}: var {} vs {}",
        got.var,
        want.var
    );
    assert!(
        close(got.sdv, want.sdv),
        "{what}: sdv {} vs {}",
        got.sdv,
        want.sdv
    );
}

/// The sweep at `shards` must hold exactly the oracle's cells.
fn check_correlation(c: &Correlation, o: &Oracle, shards: usize) {
    assert_eq!(
        c.unattributed, o.unattributed,
        "shards {shards}: unattributed"
    );
    for (exclusive, cells) in [(false, &o.inclusive), (true, &o.exclusive)] {
        let mut seen = 0;
        for (func, fs) in &c.per_function {
            let map = if exclusive {
                &fs.exclusive
            } else {
                &fs.inclusive
            };
            for (sensor, stats) in map {
                let what = format!("shards {shards} {func:?} {sensor:?} exclusive={exclusive}");
                let want = cells
                    .get(&(*func, *sensor))
                    .unwrap_or_else(|| panic!("{what}: extra"));
                assert_summary(
                    &stats.summary().expect("non-empty"),
                    &naive_summary(want),
                    &what,
                );
                seen += 1;
            }
        }
        assert_eq!(seen, cells.len(), "shards {shards}: missing cells");
    }
}

/// `build_profiles` (through the public analysis entry point) must report
/// the oracle's statistics for every significant function.
fn check_profile(p: &NodeProfile, o: &Oracle) {
    let dt = p.sample_interval_ns;
    for f in &p.functions {
        let id = f.func.id;
        let sensors = |cells: &Cells| -> BTreeMap<SensorId, Summary> {
            cells
                .range((id, SensorId(0))..=(id, SensorId(u16::MAX)))
                .map(|(&(_, s), v)| (s, naive_summary(v)))
                .collect()
        };
        let (inc, exc) = (sensors(&o.inclusive), sensors(&o.exclusive));
        let significant = !inc.is_empty() && dt.is_some_and(|dt| f.inclusive_ns >= dt);
        assert_eq!(f.significant, significant, "{}: significance", f.func.name);
        for (got, want) in [(&f.thermal, &inc), (&f.thermal_exclusive, &exc)] {
            if !significant {
                assert!(
                    got.is_empty(),
                    "{}: insignificant but has stats",
                    f.func.name
                );
                continue;
            }
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>()
            );
            for (s, sum) in got {
                assert_summary(sum, &want[s], &format!("{} {s:?}", f.func.name));
            }
        }
    }
}

/// The hot-spot ranking from the oracle's cells and the timeline's times:
/// each significant function scored by (its peak per-sensor average °F −
/// the coolest significant function's peak average) × exclusive seconds,
/// highest first. Significance is the §4.2 rule `check_profile` applies.
fn naive_hotspots(
    trace: &Trace,
    timeline: &Timeline,
    o: &Oracle,
    dt: Option<u64>,
) -> Vec<(String, f64)> {
    let peak_avg = |id: FunctionId| {
        o.inclusive
            .range((id, SensorId(0))..=(id, SensorId(u16::MAX)))
            .map(|(_, v)| v.iter().sum::<f64>() / v.len() as f64)
            .reduce(f64::max)
    };
    let significant: Vec<(&str, f64, u64)> = trace
        .functions
        .iter()
        .filter_map(|f| {
            let times = timeline.times.get(&f.id)?;
            let avg = peak_avg(f.id)?;
            dt.filter(|&dt| times.inclusive_ns >= dt)?;
            Some((f.name.as_str(), avg, times.exclusive_ns))
        })
        .collect();
    let coolest = significant
        .iter()
        .map(|&(_, avg, _)| avg)
        .fold(f64::MAX, f64::min);
    let mut ranked: Vec<(String, f64)> = significant
        .iter()
        .map(|&(name, avg, excl)| (name.to_string(), (avg - coolest) * excl as f64 / 1e9))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
}

/// `hotspots(profile, k)` must return the naive ranking's top `k`: the
/// same scores in the same order, each on a function the naive ranking
/// gives that score (tied functions may come in either order).
fn check_hotspots(p: &NodeProfile, naive: &[(String, f64)], k: usize) {
    let got = hotspots(p, k);
    assert_eq!(got.len(), naive.len().min(k), "k {k}: ranking length");
    for (spot, (_, want)) in got.iter().zip(naive) {
        assert!(
            close(spot.score, *want),
            "k {k}: score {} vs {want}",
            spot.score
        );
        let own = naive
            .iter()
            .find(|(name, _)| *name == spot.name)
            .unwrap_or_else(|| panic!("k {k}: {} is not significant", spot.name));
        assert!(close(own.1, spot.score), "k {k}: {} score", spot.name);
    }
}

fn check_all_shards(timeline: &Timeline, samples: &[SensorReading]) -> Oracle {
    let o = oracle(timeline, samples);
    for shards in [1, 2, 3, 7] {
        check_correlation(&correlate_with(timeline, samples, shards), &o, shards);
    }
    o
}

/// Recover mode's event filter, as documented on `AnalysisOptions::recover`:
/// drop scope events with an unknown function id, then keep a scope event
/// only if it does not precede the last kept one.
fn recovered_events(trace: &Trace) -> Vec<Event> {
    let known: BTreeSet<FunctionId> = trace.functions.iter().map(|f| f.id).collect();
    let mut last = 0;
    let mut kept = Vec::new();
    for e in &trace.events {
        if let EventKind::Enter { func } | EventKind::Exit { func } = e.kind {
            if !known.contains(&func) || e.timestamp_ns < last {
                continue;
            }
            last = e.timestamp_ns;
        }
        kept.push(*e);
    }
    kept
}

/// Nested, recursive multi-thread calls over a 4-function alphabet, with
/// steps of 0 (same-instant events) to 9 ns.
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u32..3, 0u32..4, prop::bool::ANY, 0u64..10), 1..80).prop_map(|ops| {
        let mut stacks: Vec<Vec<FunctionId>> = vec![Vec::new(); 3];
        let (mut events, mut t) = (Vec::new(), 0u64);
        for (th, f, enter, step) in ops {
            t += step;
            let stack = &mut stacks[th as usize];
            if enter || stack.is_empty() {
                stack.push(FunctionId(f));
                events.push(Event::enter(t, ThreadId(th), FunctionId(f)));
            } else {
                let f = stack.pop().expect("non-empty");
                events.push(Event::exit(t, ThreadId(th), f));
            }
        }
        events // frames left open are closed by the timeline's repair
    })
}

/// Sampling rounds: 1–4 sensors read at one instant, quantised to 0.5 °C,
/// optionally delivered out of order.
fn arb_samples() -> impl Strategy<Value = (Vec<SensorReading>, bool)> {
    let round = (0u64..400, 1u16..5, 0u32..8);
    (prop::collection::vec(round, 1..40), prop::bool::ANY).prop_map(|(rounds, shuffle)| {
        let mut samples: Vec<SensorReading> = Vec::new();
        for (t, sensors, level) in rounds {
            for s in 0..sensors {
                let c = 30.0 + 0.5 * f64::from((level + u32::from(s)) % 8);
                samples.push(SensorReading::new(
                    SensorId(s),
                    t,
                    Temperature::from_celsius(c),
                ));
            }
        }
        if !shuffle {
            samples.sort_by_key(|s| s.timestamp_ns);
        }
        (samples, shuffle)
    })
}

proptest! {
    #[test]
    fn sweep_matches_oracle_on_recursive_multithread_timelines(
        events in arb_events(),
        (samples, shuffled) in arb_samples(),
    ) {
        let timeline = Timeline::build(&events);
        check_all_shards(&timeline, &samples);
        let resorted = correlate_with(&timeline, &samples, 1).resorted;
        prop_assert!(resorted == (shuffled && samples.windows(2).any(|w| w[0].timestamp_ns > w[1].timestamp_ns)));
    }
}

/// Hand-built timelines that no call stack produces: intervals overlap
/// freely on one thread, share depths and nest in no particular way. The
/// sweep must still apply the oracle's definition, because `Timeline`'s
/// fields are public; only the documented start order is kept.
fn arb_loose_timeline() -> impl Strategy<Value = Timeline> {
    let interval = (0u64..300, 0u64..120, 0u32..3, 0u32..4, 0u32..5);
    prop::collection::vec(interval, 1..40).prop_map(|raw| {
        let mut intervals: Vec<Interval> = raw
            .into_iter()
            .map(|(start_ns, len, thread, depth, func)| Interval {
                func: FunctionId(func),
                thread: ThreadId(thread),
                start_ns,
                end_ns: start_ns + len,
                depth,
                truncated: false,
            })
            .collect();
        intervals.sort_by_key(|i| i.start_ns);
        Timeline {
            intervals,
            ..Timeline::default()
        }
    })
}

proptest! {
    #[test]
    fn sweep_matches_oracle_on_overlapping_hand_built_timelines(
        timeline in arb_loose_timeline(),
        (samples, _) in arb_samples(),
    ) {
        check_all_shards(&timeline, &samples);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovered_damaged_traces_match_oracle(
        seed in 0u64..10_000,
        damage in 0u32..4,
    ) {
        let spec = TraceSpec {
            seed,
            events: 1_500,
            max_depth: 6,
            threads: 2,
            functions: 8,
            sensors: 3,
            duration_ns: 500_000_000,
            sample_interval_ns: 2_000_000,
        };
        let mut trace = TraceGenerator::new(spec).generate(0);
        let mut corruptor = TraceCorruptor::new(seed);
        let span = trace.span_ns();
        match damage {
            0 => { corruptor.drop_exit_events(&mut trace, 0.05); }
            1 => { corruptor.poison_symbol_ids(&mut trace, 0.05); }
            2 => { corruptor.shuffle_timestamp_window(&mut trace, span / 4, span / 8); }
            _ => {
                let n = trace.samples.len();
                trace.samples[n / 4..n / 2].reverse();
            }
        }
        let timeline = Timeline::build(&recovered_events(&trace));
        let o = check_all_shards(&timeline, &trace.samples);
        for shards in [1, 3] {
            let profile = AnalysisRequest::new()
                .recover(true)
                .shards(shards)
                .analyze_trace(&trace)
                .expect("recover mode always yields a profile");
            check_profile(&profile, &o);
            let naive = naive_hotspots(&trace, &timeline, &o, profile.sample_interval_ns);
            for k in [3, usize::MAX] {
                check_hotspots(&profile, &naive, k);
            }
        }
    }
}

#[test]
fn shard_boundary_inside_one_instant_matches_oracle() {
    // main spans everything; foo is on the stack from 20 to 31.
    let main = FunctionId(0);
    let foo = FunctionId(1);
    let timeline = Timeline::build(&[
        Event::enter(0, ThreadId(0), main),
        Event::enter(20, ThreadId(0), foo),
        Event::exit(31, ThreadId(0), foo),
        Event::exit(100, ThreadId(0), main),
    ]);
    // 5 rounds × 3 sensors = 15 samples: two shards split at sample 8,
    // inside the round at t = 20.
    let samples: Vec<SensorReading> = (0..5u64)
        .flat_map(|r| {
            (0..3u16).map(move |s| {
                let c = 40.0 + f64::from(s) + r as f64;
                SensorReading::new(SensorId(s), r * 10, Temperature::from_celsius(c))
            })
        })
        .collect();
    let boundary = samples.len().div_ceil(2);
    assert_eq!(
        samples[boundary - 1].timestamp_ns,
        samples[boundary].timestamp_ns
    );
    let o = check_all_shards(&timeline, &samples);
    assert_eq!(
        o.inclusive[&(foo, SensorId(0))].len(),
        2,
        "rounds at 20 and 30"
    );
    assert_eq!(o.exclusive.get(&(main, SensorId(0))).map(Vec::len), Some(3));
}
