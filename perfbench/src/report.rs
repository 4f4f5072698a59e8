//! `report`: cold post-mortem analysis of a 4-node cluster's trace files,
//! rendered as the text report.
//!
//! Decode, timeline, correlate, profile, render and the engine do almost
//! all the work; no spool write, network or cache is involved. The input
//! is `perf_smoke`'s generator spec, so the numbers continue the
//! `BENCH_parse.json` history.

use crate::tracer::{self, span, span_req};
use crate::util::{median, secs};
use crate::{Ctx, Outcome};
use std::path::Path;
use std::time::Instant;
use tempest_core::correlate::correlate_with;
use tempest_core::dto::HotspotsDto;
use tempest_core::profile::build_profiles;
use tempest_core::{analysis, report, AnalysisRequest, Engine, Timeline};
use tempest_probe::{Trace, TraceGenerator, TraceSpec};

pub const NODES: u32 = 4;
const SETUPS: usize = 9;

/// `perf_smoke`'s cluster: 250k scope events and 1 kHz samples of 4
/// sensors over 60 s per node.
pub fn cluster_spec(seed: u64) -> TraceSpec {
    TraceSpec {
        seed,
        events: 250_000,
        max_depth: 8,
        threads: 4,
        functions: 64,
        sensors: 4,
        duration_ns: 60 * 1_000_000_000,
        sample_interval_ns: 1_000_000,
    }
}

/// The CLI's `tempest report` over `paths`, uncached, on `engine`.
fn report_files(engine: &Engine, paths: &[String]) -> Vec<Result<String, String>> {
    AnalysisRequest::new().render_on(engine, None, paths, "text", report::render_stdout)
}

/// The same report built stage by stage from the layers' public
/// functions, with a span around each stage.
pub fn report_staged(
    engine: &Engine,
    paths: &[String],
    req: u64,
    traced: bool,
) -> Vec<Result<String, String>> {
    let shards = (engine.width() / paths.len().max(1)).max(1);
    engine.map(paths.to_vec(), |path| {
        tracer::set_local(traced);
        let _node = span_req("report.node", req);
        let bytes = {
            let mut s = span("read");
            let b = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
            s.work(b.len() as f64);
            b
        };
        let trace = {
            let mut s = span("decode");
            s.work(bytes.len() as f64);
            Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))?
        };
        drop(bytes);
        let timeline = {
            let mut s = span("timeline");
            s.work(trace.events.len() as f64);
            Timeline::build(&trace.events)
        };
        let corr = {
            let mut s = span("correlate");
            s.work(trace.samples.len() as f64);
            correlate_with(&timeline, &trace.samples, shards)
        };
        let profile = {
            let _s = span("profile");
            build_profiles(
                trace.node.clone(),
                &trace.functions,
                &timeline,
                &corr,
                &trace.samples,
            )
        };
        {
            let _s = span("render.hotspots");
            let spots = analysis::hotspots(&profile, 10);
            std::hint::black_box(
                HotspotsDto::from_hotspots("report", "temp", 10, &spots).to_json(),
            );
        }
        let _s = span("render");
        Ok(report::render_stdout(&profile))
    })
}

/// The cold report of `paths` at width 1 over its time at `wide`'s
/// width, each the median of two runs.
pub fn engine_speedup(wide: &Engine, paths: &[String]) -> f64 {
    let narrow = Engine::new(1);
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (engine, times) in [(&narrow, &mut one), (wide, &mut many)] {
            let t0 = Instant::now();
            std::hint::black_box(report_files(engine, paths));
            times.push(secs(t0));
        }
    }
    median(&one) / median(&many)
}

/// Generate the cluster's traces in memory (benchmark input, untimed).
pub fn generate(seed: u64) -> Vec<Trace> {
    TraceGenerator::new(cluster_spec(seed)).generate_cluster(NODES)
}

/// Write the traces as `.trace` files in `dir`; returns their paths.
pub fn save(traces: &[Trace], dir: &Path) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    traces
        .iter()
        .map(|t| {
            let p = dir.join(format!("node{}.trace", t.node.node_id));
            t.save(&p)?;
            Ok(p.to_string_lossy().into_owned())
        })
        .collect()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    let width = crate::util::nproc();
    out.condition(
        "spec",
        "perf_smoke: 4 nodes x 250k events, 4 sensors at 1 kHz over 60 s",
    );
    out.condition("engine_width", &width.to_string());
    out.condition("cache", "none (cold)");

    let traces = generate(ctx.seed);
    let samples: usize = traces.iter().map(|t| t.samples.len()).sum();
    let events: usize = traces.iter().map(|t| t.events.len()).sum();
    let dir = ctx.work.join("traces");
    let mut paths = Vec::new();
    // Set-up: the trace files a report starts from.
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        paths = save(&traces, &dir)?;
        out.setup_s.push(secs(t0));
    }
    let node0 = traces.into_iter().next().expect("cluster has a node 0");
    let bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    out.named("report_events", events as f64, "count");
    out.named("report_samples", samples as f64, "count");
    out.named("report_trace_mb", bytes as f64 / 1e6, "MB");

    let narrow = Engine::new(1);
    let wide = Engine::new(width);
    let reference: Vec<String> = report_files(&narrow, &paths)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(std::io::Error::other)?;

    let t_start = out.open_window();
    let t_end = t_start + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut rep = 0u64;
    while Instant::now() < t_end || rep < 3 {
        let traced = tracer::enabled() && rep.is_multiple_of(2);
        let t0 = Instant::now();
        let results = if tracer::enabled() {
            // The traced run builds the report stage by stage, traced and
            // untraced on alternate reps, so the difference is tracing.
            tracer::set_local(traced);
            let iter = span_req("iter", rep + 1);
            let r = report_staged(&wide, &paths, rep + 1, traced);
            drop(iter);
            tracer::set_local(true);
            r
        } else {
            report_files(&wide, &paths)
        };
        let ms = secs(t0) * 1e3;
        out.attempted += results.len() as u64;
        for (node, result) in results.iter().enumerate() {
            match result {
                Ok(text) if *text == reference[node] => {}
                Ok(_) => out.problem(format!(
                    "rep {rep}: node {node} report differs from the width-1 report"
                )),
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("rep {rep}: node {node} failed: {e}"));
                }
            }
        }
        out.op(ms, ms, traced);
        rep += 1;
    }
    out.close_window(t_start);
    out.named("report_s", median(&out.op_ms) / 1e3, "s");

    if tracer::enabled() {
        out.layer("engine.speedup", engine_speedup(&wide, &paths));
        let timeline = Timeline::build(&node0.events);
        out.layer(
            "correlate.alloc_calls",
            crate::layers::correlate_allocs(&timeline, &node0.samples),
        );
    }
    Ok(())
}
