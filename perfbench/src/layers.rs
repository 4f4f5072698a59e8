//! Per-layer metrics of the traced run.
//!
//! A workload's traced loop spans the layer calls it makes itself. The
//! layer pass then drives every layer once more over a small fixture
//! from the same seed, so that every traced run reports every layer; a
//! metric prefers the workload's own spans and values and falls back to
//! the pass's only for layers the workload does not exercise.

use crate::serve::{header, Client, IngestCounters};
use crate::tracer::{self, named, span, SpanRec};
use crate::util::{histogram_delta_p50, median, obs_counter, obs_histogram};
use crate::{Ctx, Outcome};
use std::collections::BTreeMap;
use std::sync::Arc;
use tempest_collect::{QueryConfig, QueryServer};
use tempest_core::correlate::correlate_with;
use tempest_core::{AnalysisCache, AnalysisOptions, Engine, Timeline};
use tempest_probe::ship;
use tempest_probe::spool::{self, SpoolConfig, SpoolWriter};
use tempest_probe::tempd::ResilientSampler;
use tempest_probe::{
    EventKind, MonotonicClock, SpooledSession, TempdConfig, Trace, TraceGenerator, TraceSpec,
    VecSink,
};

/// Probe enter/exit pairs per timed batch.
const PROBE_PAIRS: usize = 100_000;
const PROBE_BATCHES: usize = 5;
const TEMPD_ROUNDS: usize = 200;
const DISPATCHES: usize = 50;
const LOOKUPS: usize = 100;
const HTTP_ROUNDS: usize = 10;

/// The pass's fixture: one small node of the `report` spec's shape.
fn fixture_spec(seed: u64) -> TraceSpec {
    TraceSpec {
        seed,
        events: 40_000,
        max_depth: 8,
        threads: 4,
        functions: 64,
        sensors: 4,
        duration_ns: 10 * 1_000_000_000,
        sample_interval_ns: 1_000_000,
    }
}

fn io_err(e: impl std::fmt::Debug) -> std::io::Error {
    std::io::Error::other(format!("{e:?}"))
}

/// Batches of probe calls into a spooled session: `enter`/`exit` pairs on
/// one function, timed per batch.
fn probe(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    let dir = ctx.work.join("pass-probe");
    let session = SpooledSession::start(
        SpoolConfig::new(&dir),
        Arc::new(MonotonicClock::new()),
        None,
        TempdConfig::default(),
    )?;
    let tp = session.thread_profiler();
    let f = tp.register("probe_batch");
    for _ in 0..PROBE_BATCHES {
        let mut s = span("probe.batch");
        for _ in 0..PROBE_PAIRS {
            tp.enter(f);
            tp.exit(f);
        }
        tp.flush();
        s.work((2 * PROBE_PAIRS) as f64);
    }
    drop(tp);
    let (stats, _) = session.finish()?;
    let (trace, _) = spool::recover(&dir).map_err(io_err)?;
    let recorded = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Enter { .. } | EventKind::Exit { .. }))
        .count();
    let expected = 2 * PROBE_PAIRS * PROBE_BATCHES;
    if recorded != expected {
        out.problem(format!(
            "pass: probe recorded {recorded} of {expected} events"
        ));
    }
    out.layer_default("probe.events", recorded as f64);
    out.layer_default(
        "probe.dropped_events",
        (stats.events_dropped + stats.events_dropped_io) as f64,
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// `ResilientSampler::round` over the simulated Opteron bank.
fn tempd(ctx: &Ctx) {
    let mut source = crate::record::opteron_bank(ctx.seed);
    let mut sampler = ResilientSampler::new(TempdConfig::at_rate(20.0));
    let sink = VecSink::new();
    for i in 0..TEMPD_ROUNDS {
        let _s = span("tempd.round");
        sampler.round(&mut *source, i as u64 * 50_000_000, &*sink);
    }
}

/// Spool append + rotate of the fixture, then ship to a collector,
/// recover the collected copy and serve it.
fn spool_ship_serve(ctx: &Ctx, out: &mut Outcome, trace: &Trace) -> std::io::Result<()> {
    let dir = ctx.work.join("pass-spool");
    let events = crate::serve::spool_events(trace);
    let fsyncs0 = obs_counter("spool_fsyncs_total");
    let bytes0 = obs_counter("spool_bytes_total");
    let mut writer = SpoolWriter::create(
        &SpoolConfig::new(&dir).segment_bytes(256 * 1024),
        trace.node.clone(),
    )?;
    crate::serve::append_all(&mut writer, trace, &events)?;
    let bytes = obs_counter("spool_bytes_total") - bytes0;
    writer.finish(&trace.functions, 0, 0)?;
    out.layer_default(
        "spool.fsyncs",
        (obs_counter("spool_fsyncs_total") - fsyncs0) as f64,
    );
    out.layer_default("spool.bytes_per_event", bytes as f64 / events.len() as f64);

    // Ship through a loopback collector.
    let collected = ctx.work.join("pass-collected");
    let collector = crate::serve::CollectorProc::start(&collected)?;
    let ingest0 = IngestCounters::now();
    let shipped = {
        let mut s = span("ship");
        let r = ship::ship(&crate::serve::ship_config(&dir, &collector.addr(), "pass"))?;
        s.work(r.frames_sent as f64);
        r
    };
    collector.stop()?;
    if !shipped.complete || shipped.degraded {
        out.problem(format!("pass: ship incomplete: {shipped:?}"));
    }
    for (name, value) in ingest0.layers(std::slice::from_ref(&shipped)) {
        out.layer_default(name, value);
    }

    let session_dir = collected.join(format!("pass-node{}", trace.node.node_id));
    {
        let mut s = span("recover");
        s.work(crate::util::dir_bytes(&session_dir) as f64);
        spool::recover(&session_dir).map_err(io_err)?;
    }

    // Serve it: start, then health, a cold and warm hot-spot question,
    // and revalidations.
    let server = {
        let _s = span("query.start");
        QueryServer::start(QueryConfig {
            dir: collected.clone(),
            jobs: 2,
            cache_dir: Some(ctx.work.join("pass-serve-cache")),
            ..Default::default()
        })?
    };
    let rescans0 = obs_counter("serve_rescan_total");
    let handler0 = obs_histogram("serve_latency_hotspots_ns");
    let path = format!(
        "/api/v1/sessions/pass-node{}/hotspots?top=10&sort=temp",
        trace.node.node_id
    );
    let mut client = Client::new(&server.addr().to_string());
    let (_, headers, _) = client.get(&path, &[])?;
    let etag = header(&headers, "etag").unwrap_or_default().to_string();
    for _ in 0..HTTP_ROUNDS {
        for (name, p, revalidate) in [
            ("http.health", "/api/v1/health", false),
            ("http.hotspots", path.as_str(), false),
            ("http.not_modified", path.as_str(), true),
        ] {
            let headers: &[(&str, &str)] = if revalidate {
                &[("If-None-Match", etag.as_str())]
            } else {
                &[]
            };
            let (status, _, _) = {
                let _s = span(name);
                client.get(p, headers)?
            };
            if !matches!(status, 200 | 304) {
                out.problem(format!("pass: {p} answered {status}"));
            }
        }
    }
    server.join();
    let handler_ms =
        histogram_delta_p50(&handler0, &obs_histogram("serve_latency_hotspots_ns")) / 1e6;
    let client_ms: Vec<f64> = tracer::spans()
        .iter()
        .filter(|s| s.name == "http.hotspots" && s.origin == tracer::Origin::Pass)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.layer_default("serve.handler_ms", handler_ms);
    out.layer_default("serve.unattributed_ms", median(&client_ms) - handler_ms);
    out.layer_default(
        "query.rescans",
        (obs_counter("serve_rescan_total") - rescans0) as f64,
    );
    Ok(())
}

/// The fixture cluster's report stage by stage as `report` builds it
/// (read, decode, timeline, correlate, profile, render), plus the engine
/// and the analysis cache.
fn analysis_layers(ctx: &Ctx, out: &mut Outcome, traces: &[Trace]) -> std::io::Result<()> {
    let paths = crate::report::save(traces, &ctx.work.join("pass-traces"))?;
    let wide = Engine::new(crate::util::nproc());
    let reports: Vec<String> = crate::report::report_staged(&wide, &paths, 0, true)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(std::io::Error::other)?;
    let node0 = &traces[0];
    out.layer_default(
        "correlate.alloc_calls",
        correlate_allocs(&Timeline::build(&node0.events), &node0.samples),
    );

    // Engine: dispatch cost of one map over trivial items, and the
    // speed-up of the fixture cluster's report at width nproc over 1.
    for _ in 0..DISPATCHES {
        let _s = span("engine.map");
        std::hint::black_box(wide.map(vec![0u64; 4], |x| x + 1));
    }
    out.layer_default(
        "engine.speedup",
        crate::report::engine_speedup(&wide, &paths),
    );

    // Cache: one miss, one store, then hits.
    let cache = AnalysisCache::open(&ctx.work.join("pass-cache"))?;
    let bytes = std::fs::read(&paths[0])?;
    let key = tempest_core::cache::CacheKey::new(&bytes, AnalysisOptions::default(), "text");
    let hits0 = obs_counter("cache_hits_total");
    let misses0 = obs_counter("cache_misses_total");
    let stale = cache.lookup(&key).is_some();
    cache.store(&key, &reports[0])?;
    let mut found = !stale;
    for _ in 0..LOOKUPS {
        let _s = span("cache.lookup");
        found &= cache.lookup(&key).is_some();
    }
    if !found {
        out.problem("pass: cache hit before the store, or a stored entry not found".into());
    }
    let hits = obs_counter("cache_hits_total") - hits0;
    let misses = obs_counter("cache_misses_total") - misses0;
    out.layer_default(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}

/// Heap allocations of one sequential `correlate_with` call, after a
/// warm-up call so lazily built per-thread state is not counted.
pub fn correlate_allocs(timeline: &Timeline, samples: &[tempest_sensors::SensorReading]) -> f64 {
    std::hint::black_box(correlate_with(timeline, samples, 1));
    let (allocs, _) = crate::count_allocs(|| correlate_with(timeline, samples, 1));
    allocs as f64
}

/// Drive every layer over the fixture, marking its spans as the pass's.
pub fn pass(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    tracer::set_pass(true);
    let traces = TraceGenerator::new(fixture_spec(ctx.seed)).generate_cluster(crate::report::NODES);
    let result = (|| {
        probe(ctx, out)?;
        tempd(ctx);
        spool_ship_serve(ctx, out, &traces[0])?;
        analysis_layers(ctx, out, &traces)
    })();
    tracer::set_pass(false);
    result
}

fn median_ms(spans: &[&SpanRec]) -> f64 {
    median(
        &spans
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Work per second over spans' total duration.
fn rate(spans: &[&SpanRec]) -> f64 {
    let work: f64 = spans.iter().map(|s| s.work).sum();
    let ns: u64 = spans.iter().map(|s| s.dur_ns()).sum();
    work / (ns as f64 / 1e9)
}

/// Every per-layer metric, from the spans and the outcome's values.
pub fn per_layer(out: &Outcome) -> BTreeMap<String, f64> {
    let all = tracer::spans();
    let get = |name: &str| named(&all, name);
    let mut m: BTreeMap<String, f64> = out.layer.clone();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let probe = get("probe.batch");
    set(
        "probe.ns_per_event",
        probe.iter().map(|s| s.dur_ns() as f64).sum::<f64>()
            / probe.iter().map(|s| s.work).sum::<f64>(),
    );
    set("tempd.round_us", median_ms(&get("tempd.round")) * 1e3);
    let mut spool = get("spool.append");
    spool.extend(get("spool.rotate"));
    set("spool.append_mb_s", rate(&spool) / 1e6);
    set("ship.frames_per_s", rate(&get("ship")));
    set("recover.mb_s", rate(&get("recover")) / 1e6);
    set("decode.mb_s", rate(&get("decode")) / 1e6);
    set("timeline.ms", median_ms(&get("timeline")));
    set("correlate.samples_per_s", rate(&get("correlate")));
    set("profile.ms", median_ms(&get("profile")));
    set("render.ms", median_ms(&get("render")));
    set(
        "render.hotspots_us",
        median_ms(&get("render.hotspots")) * 1e3,
    );
    set("engine.dispatch_us", median_ms(&get("engine.map")) * 1e3);
    set("cache.lookup_us", median_ms(&get("cache.lookup")) * 1e3);
    set("query.start_ms", median_ms(&get("query.start")));
    set("http.health_ms", median_ms(&get("http.health")));
    set("http.not_modified_ms", median_ms(&get("http.not_modified")));

    // Whole run: the share of traced iterations no layer span covers,
    // and the traced iterations' cost against the untraced ones.
    let iters: Vec<&SpanRec> = all
        .iter()
        .filter(|s| s.name == "iter" && s.origin == tracer::Origin::Workload)
        .collect();
    let mut by_req: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in all.iter().filter(|s| s.name != "iter" && s.req != 0) {
        by_req
            .entry(s.req)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let total: u64 = iters.iter().map(|s| s.dur_ns()).sum();
    let covered: u64 = iters
        .iter()
        .map(|it| {
            tracer::covered_ns(
                by_req.get(&it.req).cloned().unwrap_or_default(),
                it.start_ns,
                it.end_ns,
            )
        })
        .sum();
    m.insert(
        "trace.unattributed_pct".into(),
        100.0 * (total - covered) as f64 / total.max(1) as f64,
    );
    m.insert(
        "trace.overhead_pct".into(),
        100.0 * (median(&out.iter_ms.0) / median(&out.iter_ms.1) - 1.0),
    );
    m
}

/// Count, total and self time per span name, as a table on stdout.
pub fn print_span_table(all: &[SpanRec]) {
    let self_ns = tracer::self_times(all);
    let mut rows: BTreeMap<(&str, bool), (u64, u64, u64)> = BTreeMap::new();
    for s in all {
        let row = rows
            .entry((s.name, s.origin == tracer::Origin::Pass))
            .or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += self_ns[&s.id];
    }
    println!("span                       origin      count    total_ms     self_ms");
    for ((name, pass), (n, total, own)) in rows {
        println!(
            "{name:<26} {:<8} {n:>8} {:>11.3} {:>11.3}",
            if pass { "pass" } else { "workload" },
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
