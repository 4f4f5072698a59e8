//! `serve` and `live`: the query daemon over shipped sessions.
//!
//! Both start from the same cluster: 4 sessions of the `report` spec,
//! each written to a node spool, shipped through an in-process collector
//! and served by `QueryServer` with its analysis cache.
//!
//! - `serve` answers every distinct request once during set-up, then two
//!   keep-alive clients run a closed loop over a fixed mix: the warm path
//!   (HTTP, routing, cache) with analysis bypassed.
//! - `live` adds a fifth session that grows while it is served: one
//!   thread replays it into a node spool, sealing and shipping a segment
//!   on a fixed schedule, while another sends hot-spot queries on one
//!   connection in an open loop. The daemon rescans every 2 s, so each
//!   catalog change costs one answer a recover + analyze.

use crate::report::{cluster_spec, generate};
use crate::tracer::{self, span, span_req};
use crate::util::{
    histogram_delta_p50, median, obs_count_sum, obs_counter, obs_histogram, percentile, secs,
};
use crate::{Ctx, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempest_collect::{
    Collector, CollectorConfig, CollectorHandle, HttpClient, QueryConfig, QueryServer,
};
use tempest_core::dto::{HotspotsDto, ProfileDto};
use tempest_core::{analysis, AnalysisRequest, NodeProfile};
use tempest_probe::ship::{self, RetryPolicy, ShipConfig, ShipReport};
use tempest_probe::spool::{self, SpoolConfig, SpoolWriter};
use tempest_probe::{Event, Trace, TraceGenerator};

const SETUPS: usize = 3;
/// Closed-loop clients of `serve`.
const CLIENTS: usize = 2;
/// `tempest serve`'s default rescan interval.
const RESCAN_MS: u64 = 2000;
/// Open-loop rate of `live`'s query thread, requests per second.
const LIVE_RATE: f64 = 10.0;
/// Segments the live session is sealed and shipped in.
const LIVE_SEGMENTS: usize = 6;
/// Share of the window over which the live session is replayed; the
/// rest lets the daemon catch up with the final segment.
const LIVE_REPLAY_SHARE: f64 = 0.6;
/// Events per spool batch: a probe thread buffer's default capacity.
const BATCH: usize = 4096;

/// Hot-spot variants the mix draws from: `(top, sort)`.
const VARIANTS: [(usize, &str); 4] = [(5, "temp"), (10, "temp"), (5, "time"), (10, "time")];

/// A trace's scope events and samples as spool events, in time order.
pub fn spool_events(trace: &Trace) -> Vec<Event> {
    let mut events: Vec<Event> = trace.events.clone();
    events.extend(
        trace
            .samples
            .iter()
            .map(|s| Event::sample(s.timestamp_ns, s.sensor, s.temperature.celsius())),
    );
    events.sort_by_key(|e| e.timestamp_ns);
    events
}

/// Append `events` in probe-sized batches, sealing segments as they fill.
pub fn append_all(
    writer: &mut SpoolWriter,
    trace: &Trace,
    events: &[Event],
) -> std::io::Result<()> {
    for batch in events.chunks(BATCH) {
        {
            let mut s = span("spool.append");
            let bytes0 = obs_counter("spool_bytes_total");
            writer.append_batch(batch)?;
            s.work((obs_counter("spool_bytes_total") - bytes0) as f64);
        }
        if writer.should_rotate() {
            let _s = span("spool.rotate");
            writer.rotate(&trace.functions)?;
        }
    }
    Ok(())
}

/// Write `trace` as a sealed node spool (default `SpoolConfig`).
fn write_spool(trace: &Trace, dir: &Path) -> std::io::Result<()> {
    let mut writer = SpoolWriter::create(&SpoolConfig::new(dir), trace.node.clone())?;
    append_all(&mut writer, trace, &spool_events(trace))?;
    writer.finish(&trace.functions, 0, 0)?;
    Ok(())
}

pub fn ship_config(dir: &Path, addr: &str, session: &str) -> ShipConfig {
    let mut config = ShipConfig::new(dir, addr);
    config.session = session.to_string();
    config.retry = RetryPolicy {
        max_failures: 10,
        base_ms: 1,
        cap_ms: 5,
        seed: 0xBE2C,
    };
    config
}

/// The collector's and the shipper's counters at one moment, so a run
/// can report what one stretch of shipping added to them.
pub struct IngestCounters {
    frames: u64,
    dups: u64,
    latency: (u64, u64),
    bytes: u64,
}

impl IngestCounters {
    pub fn now() -> IngestCounters {
        IngestCounters {
            frames: obs_counter("collect_frames_total"),
            dups: obs_counter("collect_dup_frames_total"),
            latency: obs_count_sum("collect_frame_latency_ns"),
            bytes: obs_counter("collect_bytes_total"),
        }
    }

    /// The `collect.*` and `ship.*` values of the ships in `reports`,
    /// all made since this snapshot.
    pub fn layers(&self, reports: &[ShipReport]) -> [(&'static str, f64); 5] {
        let latency = obs_count_sum("collect_frame_latency_ns");
        let sent: u64 = reports.iter().map(|r| r.frames_sent).sum();
        [
            (
                "collect.frame_latency_us",
                (latency.1 - self.latency.1) as f64
                    / (latency.0 - self.latency.0).max(1) as f64
                    / 1e3,
            ),
            (
                "collect.frames",
                (obs_counter("collect_frames_total") - self.frames) as f64,
            ),
            (
                "collect.dup_frames",
                (obs_counter("collect_dup_frames_total") - self.dups) as f64,
            ),
            (
                "ship.frame_bytes",
                (obs_counter("collect_bytes_total") - self.bytes) as f64 / sent.max(1) as f64,
            ),
            (
                "ship.reconnects",
                reports.iter().map(|r| r.reconnects).sum::<u64>() as f64,
            ),
        ]
    }
}

/// An in-process collector and its accept thread.
pub struct CollectorProc {
    handle: CollectorHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl CollectorProc {
    pub fn start(out: &Path) -> std::io::Result<CollectorProc> {
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(out))?;
        let handle = collector.handle()?;
        let thread = std::thread::spawn(move || collector.run());
        Ok(CollectorProc { handle, thread })
    }

    pub fn addr(&self) -> String {
        self.handle.addr().to_string()
    }

    pub fn stop(self) -> std::io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("collector thread panicked"))?
    }
}

/// One request of the mix.
#[derive(Clone, Debug)]
enum Ask {
    Health,
    Sessions,
    Profile(String),
    Hotspots(String, usize, &'static str),
    /// A hot-spot request revalidated with the ETag the client holds.
    Revalidate(String, usize, &'static str),
}

impl Ask {
    fn path(&self) -> String {
        match self {
            Ask::Health => "/api/v1/health".into(),
            Ask::Sessions => "/api/v1/sessions".into(),
            Ask::Profile(id) => format!("/api/v1/sessions/{id}/profile"),
            Ask::Hotspots(id, top, sort) | Ask::Revalidate(id, top, sort) => {
                format!("/api/v1/sessions/{id}/hotspots?top={top}&sort={sort}")
            }
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            Ask::Health => "http.health",
            Ask::Sessions => "http.sessions",
            Ask::Profile(_) => "http.profile",
            Ask::Hotspots(..) => "http.hotspots",
            Ask::Revalidate(..) => "http.not_modified",
        }
    }
}

/// What the daemon must answer, built in-process from the collected
/// session: `AnalysisRequest` (as the daemon configures it) →
/// `analysis::hotspots` → `HotspotsDto`, and `ProfileDto`.
struct Expected {
    /// `(session, top, sort)` → hot-spot body.
    hotspots: BTreeMap<(String, usize, String), String>,
    /// session → profile body.
    profiles: BTreeMap<String, String>,
}

fn analyze_collected(dir: &Path) -> Result<NodeProfile, String> {
    let (trace, report) = {
        let mut s = span("recover");
        s.work(crate::util::dir_bytes(dir) as f64);
        spool::recover(dir).map_err(|e| format!("{}: {e:?}", dir.display()))?
    };
    AnalysisRequest::new()
        .recover(true)
        .analyze_salvaged(&trace, Some(&report.salvage))
        .map_err(|e| format!("{}: {e:?}", dir.display()))
}

fn hotspots_body(profile: &NodeProfile, session: &str, top: usize, sort: &str) -> String {
    let mut spots = analysis::hotspots(profile, usize::MAX);
    if sort == "time" {
        spots.sort_by(|a, b| b.inclusive_secs.total_cmp(&a.inclusive_secs));
    }
    spots.truncate(top);
    HotspotsDto::from_hotspots(session, sort, top, &spots).to_json()
}

impl Expected {
    fn build(collected: &Path, ids: &[String]) -> Result<Expected, String> {
        let mut expected = Expected {
            hotspots: BTreeMap::new(),
            profiles: BTreeMap::new(),
        };
        for id in ids {
            let profile = analyze_collected(&collected.join(id))?;
            for (top, sort) in VARIANTS {
                expected.hotspots.insert(
                    (id.clone(), top, sort.to_string()),
                    hotspots_body(&profile, id, top, sort),
                );
            }
            expected
                .profiles
                .insert(id.clone(), ProfileDto::from_profile(&profile).to_json());
        }
        Ok(expected)
    }
}

/// The served cluster: collected sessions plus the running daemon.
struct Cluster {
    collected: PathBuf,
    ids: Vec<String>,
    server: QueryServer,
    collector: CollectorProc,
    /// session → ETag the daemon answered with during set-up.
    etags: BTreeMap<String, String>,
}

/// A keep-alive client. Like common HTTP clients it retries a GET once
/// on a fresh connection when a reused one turns out to be closed (the
/// daemon closes a connection after `max_requests_per_conn` requests
/// without announcing it); such retries are counted.
pub struct Client {
    addr: String,
    conn: Option<HttpClient>,
    retries: u64,
}

pub type Answer = (u16, Vec<(String, String)>, String);

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            retries: 0,
        }
    }

    pub fn get(&mut self, path: &str, headers: &[(&str, &str)]) -> std::io::Result<Answer> {
        let reused = self.conn.is_some();
        let answer = self.try_get(path, headers);
        if answer.is_err() && reused {
            self.retries += 1;
            return self.try_get(path, headers);
        }
        answer
    }

    fn try_get(&mut self, path: &str, headers: &[(&str, &str)]) -> std::io::Result<Answer> {
        let conn = match &mut self.conn {
            Some(c) => c,
            None => self.conn.insert(HttpClient::connect(&self.addr)?),
        };
        let answer = conn.get(path, headers);
        match &answer {
            Ok((_, h, _)) if header(h, "connection").is_none_or(|v| v != "close") => {}
            _ => self.conn = None,
        }
        answer
    }
}

pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Every distinct request of the `serve` mix.
fn distinct_asks(ids: &[String]) -> Vec<Ask> {
    let mut asks = vec![Ask::Health, Ask::Sessions];
    for id in ids {
        asks.push(Ask::Profile(id.clone()));
        for (top, sort) in VARIANTS {
            asks.push(Ask::Hotspots(id.clone(), top, sort));
        }
    }
    asks
}

/// Set up the 4-session cluster: spool, ship, collect, start the
/// daemon and answer every distinct request once.
fn start_cluster(
    root: &Path,
    traces: &[Trace],
    rescan_ms: u64,
    extra: Option<(&Path, &str)>,
) -> std::io::Result<Cluster> {
    let collected = root.join("collected");
    let collector = CollectorProc::start(&collected)?;
    let addr = collector.addr();
    let mut ids = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        let dir = root.join(format!("node{i}"));
        write_spool(trace, &dir)?;
        let session = format!("s{i}");
        let report = ship::ship(&ship_config(&dir, &addr, &session))?;
        if !report.complete || report.degraded {
            return Err(std::io::Error::other(format!(
                "ship of {session}: {report:?}"
            )));
        }
        ids.push(format!("{session}-node{}", trace.node.node_id));
    }
    if let Some((dir, session)) = extra {
        ship::ship(&ship_config(dir, &addr, session))?;
    }
    let server = {
        let _s = span("query.start");
        QueryServer::start(QueryConfig {
            dir: collected.clone(),
            jobs: 2,
            cache_dir: Some(root.join("serve-cache")),
            rescan_ms,
            ..Default::default()
        })?
    };
    let mut client = Client::new(&server.addr().to_string());
    let mut etags = BTreeMap::new();
    for ask in distinct_asks(&ids) {
        let (status, headers, _) = client.get(&ask.path(), &[])?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "{}: status {status}",
                ask.path()
            )));
        }
        if let Ask::Hotspots(id, ..) = &ask {
            if let Some(etag) = header(&headers, "etag") {
                etags.insert(id.clone(), etag.to_string());
            }
        }
    }
    Ok(Cluster {
        collected,
        ids,
        server,
        collector,
        etags,
    })
}

impl Cluster {
    fn stop(self) -> std::io::Result<()> {
        self.server.join();
        self.collector.stop()
    }
}

/// Judge one answer against the expected bodies. Returns whether it
/// counts as a failure (non-200/304, wrong 304); body mismatches are
/// reported as problems.
fn judge(
    ask: &Ask,
    answer: &std::io::Result<Answer>,
    expected: &Expected,
    etags: &BTreeMap<String, String>,
    problems: &mut Vec<String>,
) -> bool {
    let (status, _, body) = match answer {
        Ok(a) => a,
        Err(_) => return true,
    };
    let want = match ask {
        Ask::Hotspots(id, top, sort) => {
            expected.hotspots.get(&(id.clone(), *top, sort.to_string()))
        }
        Ask::Profile(id) => expected.profiles.get(id),
        _ => None,
    };
    match (*status, ask) {
        (304, Ask::Revalidate(..)) => false,
        (304, _) => {
            problems.push(format!(
                "{}: 304 without a matching If-None-Match",
                ask.path()
            ));
            false
        }
        (200, Ask::Revalidate(id, ..)) => {
            problems.push(format!(
                "{}: 200 although If-None-Match {:?} was current",
                ask.path(),
                etags.get(id)
            ));
            false
        }
        (200, Ask::Health) => {
            if !body.contains("\"status\":\"ok\"") {
                problems.push(format!("health answered {body}"));
            }
            false
        }
        (200, Ask::Sessions) => false,
        (200, _) => {
            if want != Some(body) {
                problems.push(format!(
                    "{}: body differs from the in-process answer",
                    ask.path()
                ));
            }
            false
        }
        _ => true,
    }
}

/// The `serve` mix, drawn by a seeded generator: hot spots (top 5/10 ×
/// sort temp/time) 50 %, profile 10 %, sessions 10 %, health 10 %,
/// revalidated hot spots 20 %. No recorded traffic backs these shares;
/// they are an assumption, so each kind's p50 is reported on its own.
fn draw(rng: &mut ship::Rng, ids: &[String]) -> Ask {
    let id = ids[rng.below(ids.len() as u64) as usize].clone();
    let (top, sort) = VARIANTS[rng.below(VARIANTS.len() as u64) as usize];
    match rng.below(10) {
        0..=4 => Ask::Hotspots(id, top, sort),
        5 => Ask::Profile(id),
        6 => Ask::Sessions,
        7 => Ask::Health,
        _ => Ask::Revalidate(id, top, sort),
    }
}

/// Latencies one client measured, by request kind.
#[derive(Default)]
struct ClientLog {
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    all: Vec<f64>,
    traced_iter: Vec<f64>,
    untraced_iter: Vec<f64>,
    attempted: u64,
    failed: u64,
    retries: u64,
    problems: Vec<String>,
}

fn serve_client(
    addr: &str,
    ids: &[String],
    expected: &Expected,
    etags: &BTreeMap<String, String>,
    seed: u64,
    deadline: Instant,
    client_no: u64,
) -> ClientLog {
    let mut rng = ship::Rng::new(seed ^ (client_no + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut client = Client::new(addr);
    let mut log = ClientLog::default();
    let mut n = 0u64;
    while Instant::now() < deadline {
        let ask = draw(&mut rng, ids);
        let traced = tracer::enabled() && n.is_multiple_of(2);
        tracer::set_local(traced);
        let req = client_no * 1_000_000 + n + 1;
        let etag;
        let headers: Vec<(&str, &str)> = match &ask {
            Ask::Revalidate(id, ..) => {
                etag = etags.get(id).cloned().unwrap_or_default();
                vec![("If-None-Match", etag.as_str())]
            }
            _ => Vec::new(),
        };
        let t0 = Instant::now();
        let answer = {
            let _it = span_req("iter", req);
            let _s = span(ask.span_name());
            client.get(&ask.path(), &headers)
        };
        let ms = secs(t0) * 1e3;
        tracer::set_local(true);
        log.attempted += 1;
        if judge(&ask, &answer, expected, etags, &mut log.problems) {
            log.failed += 1;
        } else {
            log.all.push(ms);
            log.by_kind.entry(ask.span_name()).or_default().push(ms);
        }
        if traced {
            log.traced_iter.push(ms);
        } else {
            log.untraced_iter.push(ms);
        }
        n += 1;
    }
    log.retries = client.retries;
    log
}

/// Merge the clients' logs into `out`, print each request kind's p50, and
/// return the latencies by kind.
fn record_client_logs(out: &mut Outcome, logs: Vec<ClientLog>) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let retries: u64 = logs.iter().map(|l| l.retries).sum();
    out.named("stale_connection_retries", retries as f64, "count");
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        for p in log.problems {
            out.problem(p);
        }
        out.op_ms.extend(log.all);
        out.iter_ms.0.extend(log.traced_iter);
        out.iter_ms.1.extend(log.untraced_iter);
        for (k, v) in log.by_kind {
            by_kind.entry(k).or_default().extend(v);
        }
    }
    for (kind, ms) in &by_kind {
        out.named(&format!("p50_ms.{kind}"), median(ms), "ms");
    }
    by_kind
}

fn describe_mix(out: &mut Outcome) {
    out.condition("rescan_ms", &RESCAN_MS.to_string());
    out.condition(
        "fsync_policy",
        "per-batch (node spools, SpoolConfig default)",
    );
    out.condition(
        "cluster",
        "4 sessions of the report spec, shipped through an in-process collector",
    );
}

pub fn run_serve(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    describe_mix(out);
    out.condition(
        "request_mix",
        "closed loop, 2 keep-alive clients: hotspots top 5/10 x sort temp/time 50%, profile 10%, sessions 10%, health 10%, If-None-Match hotspots 20% (assumed shares, not taken from recorded traffic)",
    );
    out.condition("serve_rescan", "off (static catalog)");
    let traces = generate(ctx.seed);
    let mut cluster = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let c = start_cluster(&ctx.work.join(format!("setup-{i}")), &traces, 0, None)?;
        out.setup_s.push(secs(t0));
        if let Some(old) = cluster.replace(c) {
            old.stop()?;
        }
    }
    drop(traces);
    let cluster = cluster.expect("at least one set-up");
    let expected =
        Expected::build(&cluster.collected, &cluster.ids).map_err(std::io::Error::other)?;
    let addr = cluster.server.addr().to_string();

    let hits0 = obs_counter("cache_hits_total");
    let misses0 = obs_counter("cache_misses_total");
    let handler0 = obs_histogram("serve_latency_hotspots_ns");
    let t_start = out.open_window();
    let deadline = t_start + Duration::from_secs_f64(ctx.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let (addr, cluster, expected) = (&addr, &cluster, &expected);
                s.spawn(move || {
                    serve_client(
                        addr,
                        &cluster.ids,
                        expected,
                        &cluster.etags,
                        ctx.seed,
                        deadline,
                        c,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    out.close_window(t_start);
    let handler_p50_ms =
        histogram_delta_p50(&handler0, &obs_histogram("serve_latency_hotspots_ns")) / 1e6;
    let hits = obs_counter("cache_hits_total") - hits0;
    let misses = obs_counter("cache_misses_total") - misses0;
    let by_kind = record_client_logs(out, logs);
    cluster.stop()?;

    out.named("serve_p50_ms", median(&out.op_ms), "ms");
    out.named("serve_p99_ms", percentile(&out.op_ms, 0.99), "ms");
    out.named("serve_rps", out.op_ms.len() as f64 / out.window_s, "1/s");
    out.named("serve_requests", out.op_ms.len() as f64, "count");
    set_http_layers(
        out,
        by_kind
            .get("http.hotspots")
            .map(Vec::as_slice)
            .unwrap_or_default(),
        handler_p50_ms,
    );
    out.layer(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}

/// The daemon's own hot-spot handler p50, and what the client waited
/// beyond it.
fn set_http_layers(out: &mut Outcome, hotspots_ms: &[f64], handler_p50_ms: f64) {
    out.layer("serve.handler_ms", handler_p50_ms);
    out.layer(
        "serve.unattributed_ms",
        median(hotspots_ms) - handler_p50_ms,
    );
}

/// Replays the live session into its node spool and ships it segment by
/// segment; returns the ship reports, bytes the collector acknowledged,
/// and the seconds spent inside `ship::ship`.
struct LiveFeed {
    reports: Vec<ShipReport>,
    acked_bytes: u64,
    ship_secs: f64,
}

fn live_feed(
    trace: &Trace,
    mut writer: SpoolWriter,
    chunks: &[&[Event]],
    spool_dir: &Path,
    addr: &str,
    start: Instant,
    period: Duration,
) -> std::io::Result<LiveFeed> {
    let mut feed = LiveFeed {
        reports: Vec::new(),
        acked_bytes: 0,
        ship_secs: 0.0,
    };
    let ship_one = |feed: &mut LiveFeed, i: usize| -> std::io::Result<()> {
        let bytes0 = obs_counter("collect_bytes_total");
        let t0 = Instant::now();
        let report = {
            let mut s = span_req("ship", 1_000_000_000 + i as u64);
            let r = ship::ship(&ship_config(spool_dir, addr, "live"))?;
            s.work(r.frames_sent as f64);
            r
        };
        feed.ship_secs += secs(t0);
        feed.acked_bytes += obs_counter("collect_bytes_total") - bytes0;
        feed.reports.push(report);
        Ok(())
    };
    let wait_for = |i: usize| {
        let due = start + period * (i as u32 + 1);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    };
    let (last, sealed) = chunks.split_last().expect("the live feed has chunks");
    for (i, chunk) in sealed.iter().enumerate() {
        wait_for(i);
        append_all(&mut writer, trace, chunk)?;
        writer.rotate(&trace.functions)?;
        ship_one(&mut feed, i)?;
    }
    wait_for(sealed.len());
    append_all(&mut writer, trace, last)?;
    writer.finish(&trace.functions, 0, 0)?;
    ship_one(&mut feed, sealed.len())?;
    Ok(feed)
}

/// The daemon's ETag for a collected session, computed as its catalog
/// scan does: CRC and length over the segments in cursor order.
fn catalog_etag(dir: &Path) -> std::io::Result<String> {
    let mut bytes = Vec::new();
    for (_, path) in spool::list_segment_files(dir)? {
        bytes.extend_from_slice(&std::fs::read(path)?);
    }
    Ok(format!(
        "\"{:08x}-{:x}\"",
        spool::crc32(&bytes),
        bytes.len()
    ))
}

pub fn run_live(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    describe_mix(out);
    out.condition(
        "request_mix",
        "open loop on 1 keep-alive connection: hotspots top 10 sort temp, round-robin over the live session and the 4 static ones",
    );
    out.condition("open_loop_rate", &format!("{LIVE_RATE} req/s"));
    out.condition(
        "live_feed",
        &format!("{LIVE_SEGMENTS} segments sealed and shipped evenly over the first {:.0}% of the window", LIVE_REPLAY_SHARE * 100.0),
    );
    let traces = generate(ctx.seed);
    let live_trace = TraceGenerator::new(cluster_spec(ctx.seed)).generate(crate::report::NODES);
    let live_events = spool_events(&live_trace);
    let per_chunk = live_events.len().div_ceil(LIVE_SEGMENTS + 1);
    let chunks: Vec<&[Event]> = live_events.chunks(per_chunk).collect();

    // Set-up: the static cluster plus the live session's first segment,
    // shipped before the daemon starts so it is catalogued from the start.
    let mut cluster = None;
    let mut live_writer = None;
    for i in 0..SETUPS {
        let root = ctx.work.join(format!("setup-{i}"));
        let t0 = Instant::now();
        let live_dir = root.join("live-node");
        let mut writer =
            SpoolWriter::create(&SpoolConfig::new(&live_dir), live_trace.node.clone())?;
        append_all(&mut writer, &live_trace, chunks[0])?;
        writer.rotate(&live_trace.functions)?;
        let c = start_cluster(&root, &traces, RESCAN_MS, Some((&live_dir, "live")))?;
        out.setup_s.push(secs(t0));
        if let Some((old, _, _)) = cluster.replace((c, live_dir, root)) {
            old.stop()?;
        }
        live_writer = Some(writer);
    }
    drop(traces);
    let (cluster, live_dir, _) = cluster.expect("at least one set-up");
    let live_writer = live_writer.expect("at least one set-up");
    let live_id = format!("live-node{}", live_trace.node.node_id);
    let expected =
        Expected::build(&cluster.collected, &cluster.ids).map_err(std::io::Error::other)?;
    let addr = cluster.server.addr().to_string();
    let collector_addr = cluster.collector.addr();
    let mut ids = vec![live_id.clone()];
    ids.extend(cluster.ids.iter().cloned());

    let ingest0 = IngestCounters::now();
    let rescans0 = obs_counter("serve_rescan_total");
    let hits0 = obs_counter("cache_hits_total");
    let misses0 = obs_counter("cache_misses_total");
    let handler0 = obs_histogram("serve_latency_hotspots_ns");

    let t_start = out.open_window();
    let span_of_run = Duration::from_secs_f64(ctx.seconds);
    let period = span_of_run.mul_f64(LIVE_REPLAY_SHARE) / (chunks.len() as u32 - 1);
    let interval = Duration::from_secs_f64(1.0 / LIVE_RATE);
    let n_requests = (ctx.seconds * LIVE_RATE).floor() as u64;
    let (feed, log, misses_ms, lateness_ms) = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            live_feed(
                &live_trace,
                live_writer,
                &chunks[1..],
                &live_dir,
                &collector_addr,
                t_start,
                period,
            )
        });
        let mut client = Client::new(&addr);
        let mut log = ClientLog::default();
        let mut seen: BTreeMap<String, String> = cluster.etags.clone();
        let mut misses_ms = Vec::new();
        let mut lateness_ms = Vec::new();
        for n in 0..n_requests {
            let due = t_start + interval * n as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lateness_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let id = &ids[(n as usize) % ids.len()];
            let ask = Ask::Hotspots(id.clone(), 10, "temp");
            let traced = tracer::enabled() && n.is_multiple_of(2);
            tracer::set_local(traced);
            let due_ns = tracer::now_ns() - due.elapsed().as_nanos() as u64;
            // The iteration: the request from its due time, then judging
            // the answer.
            let iter = tracer::span_req_from("iter", n + 1, due_ns);
            let answer = client.get(&ask.path(), &[]);
            let ms = due.elapsed().as_secs_f64() * 1e3;
            tracer::record("http.hotspots", n + 1, due_ns, tracer::now_ns(), 0.0);
            log.attempted += 1;
            let failed = if *id == live_id {
                !matches!(&answer, Ok((200, ..)))
            } else {
                judge(&ask, &answer, &expected, &cluster.etags, &mut log.problems)
            };
            if failed {
                log.failed += 1;
            } else if let Ok((_, headers, _)) = &answer {
                if let Some(etag) = header(headers, "etag") {
                    if seen.get(id).is_some_and(|old| old != etag) {
                        misses_ms.push(ms);
                    }
                    seen.insert(id.clone(), etag.to_string());
                }
                log.all.push(ms);
                log.by_kind.entry(ask.span_name()).or_default().push(ms);
                if traced {
                    log.traced_iter.push(ms);
                } else {
                    log.untraced_iter.push(ms);
                }
            }
            drop(iter);
            tracer::set_local(true);
        }
        let feed = feeder.join().expect("live feeder thread");
        log.retries = client.retries;
        (feed, log, misses_ms, lateness_ms)
    });
    out.close_window(t_start);
    let feed = feed?;
    let hotspots_ms = log.all.clone();
    let handler_p50_ms =
        histogram_delta_p50(&handler0, &obs_histogram("serve_latency_hotspots_ns")) / 1e6;
    let rescans = obs_counter("serve_rescan_total") - rescans0;
    let hits = obs_counter("cache_hits_total") - hits0;
    let misses = obs_counter("cache_misses_total") - misses0;
    record_client_logs(out, vec![log]);

    // Ship accounting: every frame sent must be acknowledged, no ship
    // may degrade.
    for r in &feed.reports {
        out.attempted += r.frames_sent;
        out.failed += r.frames_sent - r.frames_acked.min(r.frames_sent);
        if r.degraded {
            out.failed += 1;
        }
    }
    let last = feed.reports.last();
    if !last.is_some_and(|r| r.complete) {
        out.problem(format!("live session never shipped completely: {last:?}"));
    }

    // After the last segment: wait for the daemon to catalogue the final
    // content, then its answer must equal a direct analysis of the whole
    // collected session.
    let live_collected = cluster.collected.join(&live_id);
    let final_etag = catalog_etag(&live_collected)?;
    let mut client = Client::new(&addr);
    let path = Ask::Hotspots(live_id.clone(), 10, "temp").path();
    let give_up = Instant::now() + Duration::from_millis(3 * RESCAN_MS + 2000);
    let served = loop {
        let answer = client.get(&path, &[]);
        if let Ok((200, headers, body)) = &answer {
            if header(headers, "etag") == Some(final_etag.as_str()) {
                break Some(body.clone());
            }
        }
        if Instant::now() > give_up {
            break None;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    let direct = analyze_collected(&live_collected)
        .map(|p| hotspots_body(&p, &live_id, 10, "temp"))
        .map_err(std::io::Error::other)?;
    match served {
        Some(body) if body == direct => {}
        Some(_) => out.problem("live: final served answer differs from a direct analysis".into()),
        None => out.problem("live: the daemon never served the final session content".into()),
    }
    let original = live_trace.events.len();
    let recovered = spool::recover(&live_collected)
        .map(|(t, _)| t.events.len())
        .unwrap_or(0);
    if recovered != original {
        out.problem(format!(
            "live: {recovered} events collected, {original} replayed"
        ));
    }
    cluster.stop()?;

    out.named("serve_p50_ms", median(&out.op_ms), "ms");
    out.named("serve_p99_ms", percentile(&out.op_ms, 0.99), "ms");
    out.named("miss_p50_ms", median(&misses_ms), "ms");
    out.named("misses", misses_ms.len() as f64, "count");
    out.named(
        "ingest_mb_s",
        feed.acked_bytes as f64 / 1e6 / feed.ship_secs,
        "MB/s",
    );
    out.named("generator_late_p50_ms", median(&lateness_ms), "ms");
    out.named("generator_late_max_ms", percentile(&lateness_ms, 1.0), "ms");

    set_http_layers(out, &hotspots_ms, handler_p50_ms);
    for (name, value) in ingest0.layers(&feed.reports) {
        out.layer(name, value);
    }
    out.layer("query.rescans", rescans as f64);
    out.layer(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}
