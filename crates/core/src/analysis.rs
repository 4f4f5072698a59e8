//! Higher-level analyses over profiles and traces.
//!
//! These answer the paper's four motivating questions (§1):
//!
//! 1. *What parts of my application will benefit from thermal management?*
//!    → [`hotspots`] ranks functions by heat × time.
//! 2. *Where do I start optimizing?* → the same ranking, exclusive-time
//!    weighted.
//! 3. *Are the thermal properties similar across machines?* →
//!    [`crate::merge::ClusterProfile::node_divergence_f`] plus
//!    [`series_correlation`] between nodes.
//! 4. *What and where are the performance effects of thermal
//!    optimizations?* → [`compare_profiles`] diffs two runs.
//!
//! It also implements the §4 observation checks: ambient sensors are
//! uncorrelated with compute phases ([`activity_correlation`]) and BT's
//! synchronised warm-up ([`detect_sync_rise`]).

use crate::plot::TimeSeries;
use crate::profile::NodeProfile;
use crate::timeline::Timeline;
use tempest_sensors::{SensorId, SensorReading};

/// A ranked hot spot.
#[derive(Debug, Clone)]
pub struct HotSpot {
    /// Function name.
    pub name: String,
    /// Hottest per-sensor average, °F.
    pub avg_f: f64,
    /// Inclusive time, seconds.
    pub inclusive_secs: f64,
    /// Ranking score: excess heat above the coolest significant function,
    /// weighted by exclusive time (heat you could actually remove by
    /// optimising this function's own code).
    pub score: f64,
}

/// Rank the `k` hottest functions of a node profile.
///
/// Score = (peak avg °F − the peak avg °F of this node's coolest
/// significant function) × exclusive seconds, where a function's peak avg
/// is its hottest per-sensor average. A hot but instantaneous function and
/// a long but cool one both rank low; the paper's "hot spots in code" are
/// functions that are both hot *and* where time is spent.
pub fn hotspots(profile: &NodeProfile, k: usize) -> Vec<HotSpot> {
    let significant: Vec<_> = profile.functions.iter().filter(|f| f.significant).collect();
    let coolest = significant
        .iter()
        .filter_map(|f| f.peak_avg_f())
        .fold(f64::MAX, f64::min);
    if significant.is_empty() {
        return Vec::new();
    }
    let mut spots: Vec<HotSpot> = significant
        .iter()
        .filter_map(|f| {
            let avg = f.peak_avg_f()?;
            let excl_secs = f.exclusive_ns as f64 / 1e9;
            Some(HotSpot {
                name: f.func.name.clone(),
                avg_f: avg,
                inclusive_secs: f.inclusive_secs(),
                score: (avg - coolest) * excl_secs,
            })
        })
        .collect();
    // total_cmp: a NaN score (possible when thermal data degraded to NaN
    // summaries) must not panic the sort; descending total order sinks
    // -NaN to the bottom and keeps the ranking deterministic.
    spots.sort_by(|a, b| b.score.total_cmp(&a.score));
    spots.truncate(k);
    spots
}

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0.0 for degenerate inputs (length < 2 or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs paired samples");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Correlate one sensor's readings with compute activity.
///
/// Activity at a sample instant is 1.0 when some function beyond the
/// outermost frame is executing (the program is inside a work routine),
/// else 0.0. Core CPU sensors track this; the paper found ambient sensors
/// "were more a reflection of external temperatures and airflow" — i.e.
/// low correlation (E13).
pub fn activity_correlation(
    timeline: &Timeline,
    samples: &[SensorReading],
    sensor: SensorId,
) -> f64 {
    let picked: Vec<&SensorReading> = samples.iter().filter(|s| s.sensor == sensor).collect();
    if picked.len() < 2 {
        return 0.0;
    }
    let temps: Vec<f64> = picked.iter().map(|s| s.temperature.celsius()).collect();
    let activity: Vec<f64> = picked
        .iter()
        .map(|s| {
            let deep = timeline
                .active_at(s.timestamp_ns)
                .iter()
                .any(|iv| iv.depth >= 1);
            if deep {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    pearson(&temps, &activity)
}

/// Correlation between two temperature time series (e.g. the same sensor
/// on two nodes), paired by sample index.
pub fn series_correlation(a: &TimeSeries, b: &TimeSeries) -> f64 {
    let n = a.points.len().min(b.points.len());
    if n < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = a.points[..n].iter().map(|p| p.1).collect();
    let ys: Vec<f64> = b.points[..n].iter().map(|p| p.1).collect();
    pearson(&xs, &ys)
}

/// Detect the first instant at which *every* series rises faster than
/// `rate_f_per_s` (°F/s) over a sliding window of `window_s` seconds — the
/// synchronised warm-up the paper sees ~1.5 s into BT (Figure 4).
/// Returns the detection time in seconds, if any.
pub fn detect_sync_rise(series: &[TimeSeries], window_s: f64, rate_f_per_s: f64) -> Option<f64> {
    if series.is_empty() {
        return None;
    }
    // Candidate times: the first series' sample times.
    for &(t, _) in &series[0].points {
        let all_rising = series.iter().all(|s| {
            let before = value_at(s, t);
            let after = value_at(s, t + window_s);
            match (before, after) {
                (Some(a), Some(b)) => (b - a) / window_s >= rate_f_per_s,
                _ => false,
            }
        });
        if all_rising {
            return Some(t);
        }
    }
    None
}

/// Linear interpolation of a series at time `t` (None outside its range).
fn value_at(s: &TimeSeries, t: f64) -> Option<f64> {
    let pts = &s.points;
    if pts.is_empty() || t < pts[0].0 || t > pts[pts.len() - 1].0 {
        return None;
    }
    let idx = pts.partition_point(|p| p.0 <= t);
    if idx == 0 {
        return Some(pts[0].1);
    }
    if idx >= pts.len() {
        return Some(pts[pts.len() - 1].1);
    }
    let (t0, v0) = pts[idx - 1];
    let (t1, v1) = pts[idx];
    if t1 <= t0 {
        return Some(v0);
    }
    Some(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
}

/// Difference between two runs of the same program — the question-4 tool.
#[derive(Debug, Clone)]
pub struct ProfileDelta {
    /// Function name.
    pub name: String,
    /// Seconds of inclusive time: after − before (positive = slower).
    pub dtime_secs: f64,
    /// Hottest average °F: after − before (negative = cooler).
    pub dtemp_f: f64,
}

/// Compare two profiles function by function (functions present in both).
pub fn compare_profiles(before: &NodeProfile, after: &NodeProfile) -> Vec<ProfileDelta> {
    before
        .functions
        .iter()
        .filter_map(|b| {
            let a = after.by_name(&b.func.name)?;
            let dtemp = match (a.peak_avg_f(), b.peak_avg_f()) {
                (Some(x), Some(y)) => x - y,
                _ => 0.0,
            };
            Some(ProfileDelta {
                name: b.func.name.clone(),
                dtime_secs: a.inclusive_secs() - b.inclusive_secs(),
                dtemp_f: dtemp,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::correlate;
    use crate::profile::build_profiles;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
    use tempest_probe::trace::NodeMeta;
    use tempest_sensors::Temperature;

    const T0: ThreadId = ThreadId(0);
    const S0: SensorId = SensorId(0);
    const S1: SensorId = SensorId(1);

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0); // zero variance
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn pearson_length_mismatch_panics() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn activity_correlation_separates_core_from_ambient() {
        // Timeline: idle (only main) 0..50, work 50..100.
        let sec = 1_000_000_000u64;
        let tl = Timeline::build(&[
            Event::enter(0, T0, FunctionId(0)),
            Event::enter(50 * sec, T0, FunctionId(1)),
            Event::exit(100 * sec, T0, FunctionId(1)),
            Event::exit(100 * sec, T0, FunctionId(0)),
        ]);
        // Core sensor: cool then hot. Ambient: flat wander.
        let mut samples = Vec::new();
        for i in 0..100u64 {
            let t = i * sec;
            let core = if i < 50 { 35.0 } else { 45.0 };
            let amb = 25.0 + ((i as f64) * 0.7).sin() * 0.5;
            samples.push(SensorReading::new(S0, t, Temperature::from_celsius(core)));
            samples.push(SensorReading::new(S1, t, Temperature::from_celsius(amb)));
        }
        samples.sort_by_key(|s| s.timestamp_ns);
        let core_r = activity_correlation(&tl, &samples, S0);
        let amb_r = activity_correlation(&tl, &samples, S1);
        assert!(core_r > 0.9, "core correlation {core_r}");
        assert!(amb_r.abs() < 0.3, "ambient correlation {amb_r}");
    }

    #[test]
    fn sync_rise_detected_when_all_nodes_jump() {
        let mk = |offset: f64| TimeSeries {
            label: "n".into(),
            points: (0..100)
                .map(|i| {
                    let t = i as f64 * 0.1;
                    // Flat until 1.5 s, then ramp at 4 °F/s.
                    let v = if t < 1.5 {
                        100.0
                    } else {
                        100.0 + (t - 1.5) * 4.0
                    };
                    (t, v + offset)
                })
                .collect(),
        };
        let series = vec![mk(0.0), mk(2.0), mk(5.0), mk(-1.0)];
        let t = detect_sync_rise(&series, 0.5, 2.0).expect("should detect");
        assert!((1.0..=1.8).contains(&t), "detected at {t}, expected ≈1.5");
    }

    #[test]
    fn sync_rise_not_detected_when_one_node_flat() {
        let ramp = TimeSeries {
            label: "r".into(),
            points: (0..50)
                .map(|i| (i as f64 * 0.1, 100.0 + i as f64))
                .collect(),
        };
        let flat = TimeSeries {
            label: "f".into(),
            points: (0..50).map(|i| (i as f64 * 0.1, 100.0)).collect(),
        };
        assert_eq!(detect_sync_rise(&[ramp, flat], 0.5, 2.0), None);
        assert_eq!(detect_sync_rise(&[], 0.5, 2.0), None);
    }

    #[test]
    fn series_correlation_of_twins_is_one() {
        let a = TimeSeries {
            label: "a".into(),
            points: vec![(0.0, 100.0), (1.0, 105.0), (2.0, 103.0)],
        };
        let b = a.clone();
        assert!((series_correlation(&a, &b) - 1.0).abs() < 1e-12);
    }

    fn quick_profile(heat_c: f64, work_secs: u64) -> NodeProfile {
        let sec = 1_000_000_000u64;
        let defs = vec![
            FunctionDef {
                id: FunctionId(0),
                name: "main".into(),
                address: 0x400000,
                kind: ScopeKind::Function,
            },
            FunctionDef {
                id: FunctionId(1),
                name: "hot_fn".into(),
                address: 0x400010,
                kind: ScopeKind::Function,
            },
            FunctionDef {
                id: FunctionId(2),
                name: "cool_fn".into(),
                address: 0x400020,
                kind: ScopeKind::Function,
            },
        ];
        let total = work_secs * 2 + 2;
        let events = vec![
            Event::enter(0, T0, FunctionId(0)),
            Event::enter(sec, T0, FunctionId(1)),
            Event::exit((1 + work_secs) * sec, T0, FunctionId(1)),
            Event::enter((1 + work_secs) * sec, T0, FunctionId(2)),
            Event::exit((1 + 2 * work_secs) * sec, T0, FunctionId(2)),
            Event::exit(total * sec, T0, FunctionId(0)),
        ];
        let tl = Timeline::build(&events);
        let samples: Vec<SensorReading> = (0..total * 4)
            .map(|i| {
                let t = i * 250_000_000;
                // hot while in hot_fn, cooler elsewhere
                let in_hot = t >= sec && t < (1 + work_secs) * sec;
                let c = if in_hot { heat_c } else { 35.0 };
                SensorReading::new(S0, t, Temperature::from_celsius(c))
            })
            .collect();
        let corr = correlate(&tl, &samples);
        build_profiles(NodeMeta::anonymous(), &defs, &tl, &corr, &samples)
    }

    #[test]
    fn hotspots_rank_hot_long_functions_first() {
        let p = quick_profile(48.0, 20);
        let spots = hotspots(&p, 10);
        assert!(!spots.is_empty());
        assert_eq!(spots[0].name, "hot_fn", "spots: {spots:?}");
        assert!(spots[0].score > 0.0);
    }

    #[test]
    fn hotspots_empty_when_nothing_significant() {
        let p = quick_profile(48.0, 0); // zero-length work functions
        let spots = hotspots(&p, 10);
        // Only main might be significant; hot_fn/cool_fn have no length.
        assert!(spots.iter().all(|s| s.name == "main"));
    }

    #[test]
    fn compare_profiles_reports_cooling_and_slowdown() {
        let before = quick_profile(48.0, 20);
        let after = quick_profile(42.0, 22); // cooler but slower
        let deltas = compare_profiles(&before, &after);
        let hot = deltas.iter().find(|d| d.name == "hot_fn").unwrap();
        assert!(
            hot.dtemp_f < -5.0,
            "should report cooling, got {}",
            hot.dtemp_f
        );
        assert!(hot.dtime_secs > 1.0, "should report slowdown");
    }
}
