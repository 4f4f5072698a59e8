//! Small helpers shared by the workloads: order statistics, process and
//! filesystem facts, and directory sizes.

use std::path::Path;
use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median by the midpoint rule (mean of the two middle values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (VmHWM), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in /proc/self/mounts), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), kind.to_string()));
        }
    }
    best.map(|(_, k)| k).unwrap_or_else(|| "unknown".into())
}

/// Total bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A counter of the process-wide metrics registry.
pub fn obs_counter(name: &str) -> u64 {
    tempest_obs::global().counter(name).get()
}

/// Non-empty `(bound, count)` buckets of a registry histogram.
pub fn obs_histogram(name: &str) -> Vec<(u64, u64)> {
    tempest_obs::global()
        .snapshot()
        .histogram(name)
        .map(|h| h.buckets.clone())
        .unwrap_or_default()
}

/// p50 of the observations a log2 histogram gained between two
/// snapshots, interpolated inside the bucket that holds it.
pub fn histogram_delta_p50(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    let prior = |bound: u64| {
        before
            .iter()
            .find(|(b, _)| *b == bound)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    let delta: Vec<(u64, u64)> = after
        .iter()
        .map(|&(b, n)| (b, n - prior(b)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: u64 = delta.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = total as f64 / 2.0;
    let mut seen = 0.0;
    for &(bound, n) in &delta {
        if seen + n as f64 >= rank {
            let lo = (bound / 2) as f64;
            let frac = (rank - seen) / n as f64;
            return lo + frac * (bound as f64 - lo);
        }
        seen += n as f64;
    }
    f64::NAN
}

/// `(count, sum)` of a registry histogram.
pub fn obs_count_sum(name: &str) -> (u64, u64) {
    tempest_obs::global()
        .snapshot()
        .histogram(name)
        .map(|h| (h.count, h.sum))
        .unwrap_or((0, 0))
}
