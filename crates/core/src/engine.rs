//! Parallel cluster analysis engine.
//!
//! A cluster run produces one trace file per node, and each node's
//! load → decode → timeline → correlate pipeline is independent of every
//! other node's — embarrassingly parallel work the sequential CLI used to
//! do one file at a time. [`Engine`] fans the per-node pipelines out over
//! a work-stealing thread pool and returns results **in input order**, so
//! callers render reports and merge [`ClusterProfile`]s deterministically:
//! the output of an N-worker engine is byte-identical to a 1-worker run.
//!
//! The requested job count is clamped to the machine's available
//! parallelism — asking for 4 workers on a 1-CPU box used to *cost* time
//! (context-switch churn on pure CPU work); now it resolves to 1 and the
//! engine runs inline without spawning a pool at all. Whatever width is
//! left over is budgeted down to the per-file correlate shard count, so a
//! cluster-wide fan-out never multiplies into `files × shards` threads.
//!
//! [`Engine::render_files`] layers the [`AnalysisCache`] over the same
//! pipeline: each trace's raw bytes are hashed first, and on a cache hit
//! the decode/timeline/correlate/render work is skipped entirely.
//!
//! [`ClusterProfile`]: crate::merge::ClusterProfile

use crate::cache::{AnalysisCache, CacheKey};
use crate::parser::{analyze_trace_salvaged, AnalysisOptions};
use crate::profile::NodeProfile;
use rayon::prelude::*;
use std::cell::RefCell;
use std::io::Read;
use tempest_probe::limits::{CancelToken, DecodeLimits};
use tempest_probe::trace::Trace;

/// A configured degree of parallelism for per-node analysis.
pub struct Engine {
    /// `None` at effective width 1: work runs inline on the caller's
    /// thread with zero pool overhead.
    pool: Option<rayon::ThreadPool>,
    width: usize,
}

impl Engine {
    /// Build an engine fanning out to `jobs` workers; `0` means one per
    /// available CPU. Requests beyond the machine's available parallelism
    /// are clamped — oversubscribing pure CPU work only adds switch churn.
    pub fn new(jobs: usize) -> Engine {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let width = if jobs == 0 { avail } else { jobs.min(avail) };
        let pool = if width > 1 {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .expect("thread pool construction is infallible"),
            )
        } else {
            None
        };
        Engine { pool, width }
    }

    /// The worker count this engine resolves to (after clamping).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Parallel map preserving input order. The unit the engine schedules:
    /// per-node analyses, doctor triage, any independent per-file work.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        match &self.pool {
            Some(pool) => pool.install(|| items.into_par_iter().map(f).collect()),
            None => items.into_iter().map(f).collect(),
        }
    }

    /// Run the full single-node pipeline (read file → decode → analyze)
    /// for each path concurrently. The result vector is parallel to
    /// `paths`; each failure carries a `"{path}: {cause}"` message exactly
    /// as the sequential loader produced, so error reporting is unchanged.
    ///
    /// Under `options.recover` each file is decoded with salvage and its
    /// losses flow into the profile's `DataQuality`; otherwise decoding
    /// and analysis are strict. The pipeline behind
    /// [`crate::api::AnalysisRequest::analyze_on`].
    pub(crate) fn analyze_files(
        &self,
        paths: &[String],
        options: AnalysisOptions,
    ) -> Vec<Result<NodeProfile, String>> {
        let options = self.budget_shards(paths.len(), options);
        let paths: Vec<String> = paths.to_vec();
        self.map(paths, move |path| analyze_one(&path, options))
    }

    /// Read → hash → (cache hit | decode → analyze → render → store) for
    /// each path, concurrently and in input order. `render` turns one
    /// node's profile into its final output text; that text — cached under
    /// the trace's content hash and the options/`format` fingerprint — is
    /// exactly what a later run with an unchanged trace gets back without
    /// re-analyzing. Without a cache this is `analyze_files` + `render`.
    pub fn render_files<F>(
        &self,
        paths: &[String],
        options: AnalysisOptions,
        cache: Option<&AnalysisCache>,
        format: &str,
        render: F,
    ) -> Vec<Result<String, String>>
    where
        F: Fn(&NodeProfile) -> String + Sync,
    {
        let options = self.budget_shards(paths.len(), options);
        let format = format.to_string();
        let paths: Vec<String> = paths.to_vec();
        self.map(paths, move |path| {
            with_file_bytes(&path, |bytes| {
                let key = cache.map(|c| (c, CacheKey::new(bytes, options, &format)));
                if let Some((cache, key)) = &key {
                    if let Some(text) = cache.lookup(key) {
                        return Ok(text);
                    }
                }
                let profile = decode_and_analyze(bytes, &path, options)?;
                let text = {
                    let _stage = tempest_obs::stage("render");
                    render(&profile)
                };
                if let Some((cache, key)) = &key {
                    // Best-effort: an unwritable cache dir degrades to
                    // uncached operation, it doesn't fail the report.
                    // Profiles bounded by a limit or deadline are partial
                    // by policy, not a property of the input bytes — they
                    // must never be served as the full answer later.
                    if !profile.quality.was_limited() {
                        let _ = cache.store(key, &text);
                    }
                }
                Ok(text)
            })?
        })
    }

    /// Divide this engine's width across `n_files` concurrent pipelines:
    /// when the caller didn't pin a shard count, each file's correlate
    /// gets `width / n_files` shards (at least 1) so a cluster fan-out
    /// never oversubscribes into `files × CPUs` threads. Single-file runs
    /// keep auto sharding, clamped to the engine width.
    fn budget_shards(&self, n_files: usize, mut options: AnalysisOptions) -> AnalysisOptions {
        if options.shards == 0 && n_files > 0 {
            options.shards = (self.width / n_files).max(1);
        }
        options
    }
}

thread_local! {
    /// Per-worker scratch buffer for raw trace bytes, reused across files
    /// so a multi-node analysis does one large allocation per worker
    /// instead of one per file.
    static READ_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Read `path` into the worker's reusable scratch buffer and hand the
/// bytes to `f`. The buffer keeps its capacity between files (bounded by
/// the largest trace this worker has seen) but is shrunk when a small
/// file follows a much larger one, so peak RSS tracks the working set
/// rather than the high-water mark.
fn with_file_bytes<R>(path: &str, f: impl FnOnce(&[u8]) -> R) -> Result<R, String> {
    READ_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        let mut file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        file.read_to_end(&mut buf)
            .map_err(|e| format!("{path}: {e}"))?;
        let out = f(&buf);
        if buf.capacity() > 4 * buf.len().max(64 * 1024) {
            buf.shrink_to_fit();
        }
        Ok(out)
    })
}

/// One node's pipeline minus the file read: decode (salvaging when
/// recovery is on), then analyze.
fn decode_and_analyze(
    bytes: &[u8],
    path: &str,
    options: AnalysisOptions,
) -> Result<NodeProfile, String> {
    let cancel = CancelToken::until_opt(options.deadline);
    let limits = DecodeLimits::default();
    let (trace, salvage) = {
        let _stage = tempest_obs::stage("decode");
        // A deadline implies salvage decoding even without --recover: a
        // deadline trip mid-decode must yield the partial prefix, not an
        // error that discards everything already decoded.
        if options.recover || options.deadline.is_some() {
            let (t, r) = Trace::decode_salvage_with(bytes, &limits, &cancel)
                .map_err(|e| format!("{path}: {e}"))?;
            (t, Some(r))
        } else {
            (
                Trace::decode_with(bytes, &limits, &cancel).map_err(|e| format!("{path}: {e}"))?,
                None,
            )
        }
    };
    analyze_trace_salvaged(&trace, salvage.as_ref(), options).map_err(|e| format!("{path}: {e}"))
}

/// One node's pipeline: read the whole file, decode, analyze.
fn analyze_one(path: &str, options: AnalysisOptions) -> Result<NodeProfile, String> {
    with_file_bytes(path, |bytes| decode_and_analyze(bytes, path, options))?
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
    use tempest_probe::trace::{NodeMeta, SensorMeta};
    use tempest_sensors::{SensorId, SensorKind, SensorReading, Temperature};

    fn mini_trace(node_id: u32) -> Trace {
        let sec = 1_000_000_000u64;
        Trace {
            node: NodeMeta {
                node_id,
                hostname: format!("node{node_id}"),
                sensors: vec![SensorMeta {
                    id: SensorId(0),
                    label: "CPU0 die".into(),
                    kind: SensorKind::CpuCore,
                }],
            },
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
                        Temperature::from_celsius(40.0 + node_id as f64),
                    )
                })
                .collect(),
        }
    }

    fn write_traces(tag: &str, n: u32) -> (std::path::PathBuf, Vec<String>) {
        let dir = std::env::temp_dir().join(format!("tempest-engine-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths = (0..n)
            .map(|i| {
                let p = dir.join(format!("node{i}.trace"));
                mini_trace(i).save(&p).unwrap();
                p.to_str().unwrap().to_string()
            })
            .collect();
        (dir, paths)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let (dir, mut paths) = write_traces("order", 6);
        paths.reverse(); // input order 5,4,3,2,1,0
        let engine = Engine::new(4);
        let results = engine.analyze_files(&paths, AnalysisOptions::default());
        let ids: Vec<u32> = results
            .iter()
            .map(|r| r.as_ref().unwrap().node.node_id)
            .collect();
        assert_eq!(ids, vec![5, 4, 3, 2, 1, 0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_matches_sequential() {
        let (dir, paths) = write_traces("match", 4);
        let seq = Engine::new(1).analyze_files(&paths, AnalysisOptions::default());
        let par = Engine::new(4).analyze_files(&paths, AnalysisOptions::default());
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.node, b.node);
            assert_eq!(a.functions.len(), b.functions.len());
            for (fa, fb) in a.functions.iter().zip(&b.functions) {
                assert_eq!(fa.func, fb.func);
                assert_eq!(fa.inclusive_ns, fb.inclusive_ns);
                assert_eq!(fa.thermal, fb.thermal);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_error_carries_path_in_place() {
        let (dir, mut paths) = write_traces("err", 2);
        paths.insert(1, "/nonexistent/gone.trace".to_string());
        let results = Engine::new(2).analyze_files(&paths, AnalysisOptions::default());
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(err.starts_with("/nonexistent/gone.trace:"), "{err}");
        assert!(results[2].is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_salvages_truncated_member() {
        let (dir, paths) = write_traces("salvage", 1);
        let bytes = std::fs::read(&paths[0]).unwrap();
        let cut = dir.join("cut.trace");
        std::fs::write(&cut, &bytes[..bytes.len() * 6 / 10]).unwrap();
        let cut_s = cut.to_str().unwrap().to_string();

        // Strict: decode error mentions the path.
        let strict =
            Engine::new(2).analyze_files(std::slice::from_ref(&cut_s), AnalysisOptions::default());
        assert!(strict[0].is_err());

        // Recover: profile produced, losses recorded.
        let rec = Engine::new(2).analyze_files(&[cut_s], AnalysisOptions::recovering());
        let p = rec[0].as_ref().unwrap();
        assert!(!p.quality.is_pristine());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let engine = Engine::new(0);
        assert!(engine.width() >= 1);
    }

    #[test]
    fn jobs_clamped_to_available_parallelism() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(Engine::new(4096).width(), avail);
        assert_eq!(Engine::new(1).width(), 1);
    }

    #[test]
    fn width_one_runs_inline_without_a_pool() {
        let engine = Engine::new(1);
        assert!(engine.pool.is_none());
        let caller = std::thread::current().id();
        let seen = engine.map(vec![1, 2, 3], |i| (i * 2, std::thread::current().id()));
        assert_eq!(
            seen.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![2, 4, 6]
        );
        assert!(seen.iter().all(|(_, t)| *t == caller));
    }

    #[test]
    fn render_files_matches_analyze_plus_render() {
        let (dir, paths) = write_traces("render", 3);
        let engine = Engine::new(2);
        let direct: Vec<String> = engine
            .analyze_files(&paths, AnalysisOptions::default())
            .into_iter()
            .map(|r| crate::report::render_stdout(&r.unwrap()))
            .collect();
        let rendered = engine.render_files(
            &paths,
            AnalysisOptions::default(),
            None,
            "text",
            crate::report::render_stdout,
        );
        let rendered: Vec<String> = rendered.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(direct, rendered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_files_second_run_hits_cache_byte_identical() {
        let (dir, paths) = write_traces("cache", 2);
        let cache_dir = dir.join("cache");
        let cache = AnalysisCache::open(&cache_dir).unwrap();
        let engine = Engine::new(2);
        tempest_obs::global().set_enabled(true);
        let hits_before = tempest_obs::global().counter("cache_hits_total").get();

        let first = engine.render_files(
            &paths,
            AnalysisOptions::default(),
            Some(&cache),
            "text",
            crate::report::render_stdout,
        );
        let after_first = tempest_obs::global().counter("cache_hits_total").get();
        assert_eq!(after_first, hits_before, "cold cache cannot hit");

        let second = engine.render_files(
            &paths,
            AnalysisOptions::default(),
            Some(&cache),
            "text",
            crate::report::render_stdout,
        );
        let after_second = tempest_obs::global().counter("cache_hits_total").get();
        assert_eq!(
            after_second - after_first,
            2,
            "both files served from cache"
        );
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }

        // Replacing the trace content invalidates just that file's entry.
        mini_trace(7).save(std::path::Path::new(&paths[0])).unwrap();
        let third = engine.render_files(
            &paths,
            AnalysisOptions::default(),
            Some(&cache),
            "text",
            crate::report::render_stdout,
        );
        assert_ne!(
            third[0].as_ref().unwrap(),
            second[0].as_ref().unwrap(),
            "changed trace re-renders"
        );
        assert_eq!(third[1].as_ref().unwrap(), second[1].as_ref().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_budget_divides_width_across_files() {
        let engine = Engine {
            pool: None,
            width: 8,
        };
        let auto = AnalysisOptions::default();
        assert_eq!(engine.budget_shards(1, auto).shards, 8);
        assert_eq!(engine.budget_shards(4, auto).shards, 2);
        assert_eq!(engine.budget_shards(16, auto).shards, 1);
        // Explicit shard counts pass through untouched.
        let pinned = AnalysisOptions {
            shards: 3,
            ..Default::default()
        };
        assert_eq!(engine.budget_shards(16, pinned).shards, 3);
    }
}
