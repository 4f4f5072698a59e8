//! The consolidated analysis entry point.
//!
//! One request type and one verb: build an [`AnalysisRequest`] (jobs,
//! recovery, deadline, cache, sampling — all in one place), call
//! [`AnalysisRequest::analyze`] (or [`analyze`]), get a typed
//! [`AnalysisOutcome`] back. [`AnalysisRequest::analyze_trace`] and
//! [`AnalysisRequest::analyze_salvaged`] cover traces already in memory.
//!
//! Both `AnalysisRequest` and `AnalysisOutcome` are `#[non_exhaustive]`:
//! fields can be added (a new knob, a new result facet) without a
//! breaking change, which is the property that lets the query daemon's
//! v1 API stay stable while the engine underneath evolves.

use crate::cache::AnalysisCache;
use crate::engine::Engine;
use crate::parser::{AnalysisOptions, ParseError};
use crate::profile::NodeProfile;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tempest_probe::trace::{SalvageReport, Trace};

/// Everything one analysis needs, in one place.
///
/// Construct with [`AnalysisRequest::new`] and chain builder setters;
/// the struct is `#[non_exhaustive]`, so field-literal construction is
/// reserved to this crate and new knobs never break callers.
///
/// ```
/// use tempest_core::api::AnalysisRequest;
/// let request = AnalysisRequest::new().jobs(4).recover(true);
/// # let _ = request;
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AnalysisRequest {
    /// Worker threads for multi-file analysis; `0` = one per CPU.
    pub jobs: usize,
    /// Decode and parse tolerantly, salvaging what a damaged input
    /// still holds (the CLI's `--recover`).
    pub recover: bool,
    /// Override the estimated sensor sampling interval (ns) used by the
    /// §4.2 significance rule.
    pub sample_interval_ns: Option<u64>,
    /// Correlate shard count; `0` = auto (budgeted from engine width).
    pub shards: usize,
    /// Wall-clock deadline; analysis past it returns bounded partial
    /// results flagged in `DataQuality`.
    pub deadline: Option<Instant>,
    /// Directory for the content-hash render cache used by
    /// [`AnalysisRequest::render`]; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl Default for AnalysisRequest {
    fn default() -> Self {
        AnalysisRequest {
            jobs: 1,
            recover: false,
            sample_interval_ns: None,
            shards: 0,
            deadline: None,
            cache_dir: None,
        }
    }
}

impl AnalysisRequest {
    /// A strict, single-threaded request with every knob at its default.
    pub fn new() -> AnalysisRequest {
        AnalysisRequest::default()
    }

    /// Adopt an existing [`AnalysisOptions`] bundle (migration helper
    /// for call sites that already assemble one).
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.recover = options.recover;
        self.sample_interval_ns = options.sample_interval_ns;
        self.shards = options.shards;
        self.deadline = options.deadline;
        self
    }

    /// Set the worker count (`0` = one per CPU).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enable or disable tolerant decode/parse.
    pub fn recover(mut self, recover: bool) -> Self {
        self.recover = recover;
        self
    }

    /// Force the sampling interval used by the significance rule.
    pub fn sample_interval_ns(mut self, ns: Option<u64>) -> Self {
        self.sample_interval_ns = ns;
        self
    }

    /// Pin the correlate shard count (`0` = auto).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Bound the analysis by a wall-clock deadline.
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Use (creating if needed) a content-hash render cache at `dir`.
    pub fn cache_dir(mut self, dir: Option<&Path>) -> Self {
        self.cache_dir = dir.map(Path::to_path_buf);
        self
    }

    /// The option bundle this request resolves to — what the pipeline
    /// stages underneath actually consume.
    pub fn options(&self) -> AnalysisOptions {
        AnalysisOptions {
            sample_interval_ns: self.sample_interval_ns,
            recover: self.recover,
            shards: self.shards,
            deadline: self.deadline,
        }
    }

    /// Analyze one already-decoded trace on the calling thread.
    pub fn analyze_trace(&self, trace: &Trace) -> Result<NodeProfile, ParseError> {
        crate::parser::analyze_trace_salvaged(trace, None, self.options())
    }

    /// Analyze one trace, folding a salvage reader's losses into the
    /// profile's `DataQuality`.
    pub fn analyze_salvaged(
        &self,
        trace: &Trace,
        salvage: Option<&SalvageReport>,
    ) -> Result<NodeProfile, ParseError> {
        crate::parser::analyze_trace_salvaged(trace, salvage, self.options())
    }

    /// Run the full load → decode → analyze pipeline over `paths`,
    /// fanning out across `self.jobs` workers. Results come back in
    /// input order; per-file failures carry `"{path}: {cause}"`.
    pub fn analyze(&self, paths: &[String]) -> AnalysisOutcome {
        self.analyze_on(&Engine::new(self.jobs), paths)
    }

    /// Like [`AnalysisRequest::analyze`] but reusing a caller-owned
    /// [`Engine`] — what a long-running daemon does so every request
    /// shares one clamped pool width instead of re-resolving it.
    pub fn analyze_on(&self, engine: &Engine, paths: &[String]) -> AnalysisOutcome {
        AnalysisOutcome {
            profiles: engine.analyze_files(paths, self.options()),
            jobs: engine.width(),
        }
    }

    /// Render each path's profile with `render`, serving unchanged
    /// traces from the request's cache (when `cache_dir` is set) and
    /// storing fresh renders back, exactly as `tempest report` does.
    pub fn render<F>(
        &self,
        paths: &[String],
        format: &str,
        render: F,
    ) -> Vec<Result<String, String>>
    where
        F: Fn(&NodeProfile) -> String + Sync,
    {
        let cache = self
            .cache_dir
            .as_deref()
            .and_then(|dir| AnalysisCache::open(dir).ok());
        self.render_on(
            &Engine::new(self.jobs),
            cache.as_ref(),
            paths,
            format,
            render,
        )
    }

    /// Like [`AnalysisRequest::render`] but reusing a caller-owned
    /// engine and an already-open cache.
    pub fn render_on<F>(
        &self,
        engine: &Engine,
        cache: Option<&AnalysisCache>,
        paths: &[String],
        format: &str,
        render: F,
    ) -> Vec<Result<String, String>>
    where
        F: Fn(&NodeProfile) -> String + Sync,
    {
        engine.render_files(paths, self.options(), cache, format, render)
    }
}

/// What an analysis produced.
///
/// `#[non_exhaustive]` so future facets (timings, cache statistics)
/// can be added without breaking consumers.
#[derive(Debug)]
#[non_exhaustive]
pub struct AnalysisOutcome {
    /// Per-input profiles, parallel to the request's path list; each
    /// failure carries `"{path}: {cause}"`.
    pub profiles: Vec<Result<NodeProfile, String>>,
    /// The worker count the engine actually resolved to.
    pub jobs: usize,
}

impl AnalysisOutcome {
    /// Consume the outcome, yielding just the per-input results.
    pub fn into_profiles(self) -> Vec<Result<NodeProfile, String>> {
        self.profiles
    }
}

/// Free-function form of [`AnalysisRequest::analyze`] — the module's
/// single verb for callers who prefer `api::analyze(&request, paths)`.
pub fn analyze(request: &AnalysisRequest, paths: &[String]) -> AnalysisOutcome {
    request.analyze(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
    use tempest_probe::trace::NodeMeta;
    use tempest_probe::trace::SensorMeta;
    use tempest_sensors::{SensorId, SensorKind, SensorReading, Temperature};

    fn mini_trace() -> Trace {
        let sec = 1_000_000_000u64;
        Trace {
            node: NodeMeta {
                node_id: 3,
                hostname: "api-test".into(),
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
                        Temperature::from_celsius(42.0),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn analyze_runs_the_file_pipeline() {
        let dir = std::env::temp_dir().join(format!("tempest-api-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.trace");
        mini_trace().save(&path).unwrap();
        let paths = vec![path.to_str().unwrap().to_string()];

        let outcome = AnalysisRequest::new().jobs(2).analyze(&paths);
        assert!(outcome.jobs >= 1);
        let profiles = outcome.into_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].as_ref().unwrap().node.node_id, 3);

        let free = analyze(&AnalysisRequest::new(), &paths);
        assert_eq!(free.profiles.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn with_options_round_trips_every_knob() {
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let options = AnalysisOptions {
            sample_interval_ns: Some(7),
            recover: true,
            shards: 5,
            deadline: Some(deadline),
        };
        let back = AnalysisRequest::new().with_options(options).options();
        assert_eq!(back.sample_interval_ns, Some(7));
        assert!(back.recover);
        assert_eq!(back.shards, 5);
        assert_eq!(back.deadline, Some(deadline));
    }

    #[test]
    fn render_uses_the_cache_dir() {
        let dir = std::env::temp_dir().join(format!("tempest-api-render-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.trace");
        mini_trace().save(&path).unwrap();
        let paths = vec![path.to_str().unwrap().to_string()];
        let cache_dir = dir.join("cache");

        let request = AnalysisRequest::new().cache_dir(Some(&cache_dir));
        let first = request.render(&paths, "text", crate::report::render_stdout);
        let second = request.render(&paths, "text", crate::report::render_stdout);
        assert_eq!(first[0].as_ref().unwrap(), second[0].as_ref().unwrap());
        assert!(AnalysisCache::is_cache_dir(&cache_dir));
        std::fs::remove_dir_all(&dir).ok();
    }
}
