//! Tempest's benchmark: one command, four workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload record|report|serve|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload checks its outputs; any failed check prints the
//! problem, reports `"correct": false` and exits with status 1. The last
//! line of standard output is the JSON result. Scratch files live under
//! `.bench_tmp/` and traced runs leave their Chrome trace under
//! `.bench_out/`, both relative to the working directory. See
//! `perfbench/README.md` for the workloads and metrics.

mod layers;
mod record;
mod report;
mod serve;
mod tracer;
mod util;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts the heap allocations each thread makes, so a layer call can
/// report an exact allocation count unaffected by other threads, and
/// tracks the bytes live on the heap and their peak, so peak memory does
/// not depend on how the allocator spreads threads over arenas.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point of a thread's life without allocating.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

static HEAP_NOW: AtomicU64 = AtomicU64::new(0);
static HEAP_PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let now = HEAP_NOW.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    if now > HEAP_PEAK.load(Ordering::Relaxed) {
        HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    HEAP_NOW.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the wrapper
// only updates counters, which publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread makes while `f` runs.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.with(Cell::get);
    let out = f();
    (ALLOC_CALLS.with(Cell::get) - before, out)
}

/// What one run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Each set-up repetition's wall time.
    pub setup_s: Vec<f64>,
    /// Latency of every measured operation, in ms.
    pub op_ms: Vec<f64>,
    /// Iteration wall times of the traced run, split by whether that
    /// iteration was traced: `(traced, untraced)`.
    pub iter_ms: (Vec<f64>, Vec<f64>),
    /// Length of the measurement window.
    pub window_s: f64,
    /// Peak bytes live on the heap during the window, in MB.
    pub heap_mb: f64,
    /// Workload-specific figures printed beside the metrics.
    pub named: Vec<(String, f64, String)>,
    pub conditions: Vec<(String, String)>,
    /// Per-layer values the workload measured directly (counts, ratios).
    pub layer: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn problem(&mut self, p: String) {
        eprintln!("check failed: {p}");
        self.problems.push(p);
    }

    pub fn condition(&mut self, key: &str, value: &str) {
        self.conditions.push((key.to_string(), value.to_string()));
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_string(), value, unit.to_string()));
    }

    /// Set a per-layer value measured by the workload itself.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    pub fn add_layer(&mut self, name: &str, value: f64) {
        *self.layer.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Set a per-layer value unless the workload already measured it.
    pub fn layer_default(&mut self, name: &str, value: f64) {
        self.layer.entry(name.to_string()).or_insert(value);
    }

    /// Open the measurement window: restart the heap peak from the bytes
    /// live now.
    pub fn open_window(&self) -> Instant {
        HEAP_PEAK.store(HEAP_NOW.load(Ordering::SeqCst), Ordering::SeqCst);
        Instant::now()
    }

    /// Close the window opened at `start`.
    pub fn close_window(&mut self, start: Instant) {
        self.window_s = util::secs(start);
        self.heap_mb = HEAP_PEAK.load(Ordering::SeqCst) as f64 / 1e6;
    }

    /// One measured operation: its latency, and the wall time of the
    /// iteration that produced it (for the traced run's own overhead).
    pub fn op(&mut self, latency_ms: f64, iter_ms: f64, traced: bool) {
        self.op_ms.push(latency_ms);
        if traced {
            self.iter_ms.0.push(iter_ms);
        } else {
            self.iter_ms.1.push(iter_ms);
        }
    }
}

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by the traced run.
const PER_LAYER: [(&str, &str); 33] = [
    ("probe.ns_per_event", "ns"),
    ("probe.events", "count"),
    ("probe.dropped_events", "count"),
    ("tempd.round_us", "us"),
    ("spool.append_mb_s", "MB/s"),
    ("spool.bytes_per_event", "B"),
    ("spool.fsyncs", "count"),
    ("ship.frames_per_s", "1/s"),
    ("ship.frame_bytes", "B"),
    ("ship.reconnects", "count"),
    ("collect.frame_latency_us", "us"),
    ("collect.frames", "count"),
    ("collect.dup_frames", "count"),
    ("recover.mb_s", "MB/s"),
    ("decode.mb_s", "MB/s"),
    ("timeline.ms", "ms"),
    ("correlate.samples_per_s", "1/s"),
    ("correlate.alloc_calls", "count"),
    ("profile.ms", "ms"),
    ("render.ms", "ms"),
    ("render.hotspots_us", "us"),
    ("engine.dispatch_us", "us"),
    ("engine.speedup", "x"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("query.start_ms", "ms"),
    ("query.rescans", "count"),
    ("http.health_ms", "ms"),
    ("http.not_modified_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} wants a value"))
    };
    let workload = value("--workload")?;
    if !matches!(workload.as_str(), "record" | "report" | "serve" | "live") {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").as_deref() {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(other) => return Err(format!("--trace wants 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload record|report|serve|live --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if args.trace {
        tracer::enable();
    }
    let work = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let mut out = Outcome::default();
    out.condition("workload", &ctx.workload);
    out.condition("seed", &ctx.seed.to_string());
    out.condition("seconds", &ctx.seconds.to_string());
    out.condition("trace", if args.trace { "1" } else { "0" });
    out.condition("nproc", &util::nproc().to_string());
    out.condition("tmp_fs", &util::fs_type(&work));

    let result = match ctx.workload.as_str() {
        "record" => record::run(&ctx, &mut out),
        "report" => report::run(&ctx, &mut out),
        "serve" => serve::run_serve(&ctx, &mut out),
        _ => serve::run_live(&ctx, &mut out),
    };
    if let Err(e) = result {
        out.problem(format!("workload aborted: {e}"));
    }
    if args.trace && out.problems.is_empty() {
        if let Err(e) = layers::pass(&ctx, &mut out) {
            out.problem(format!("layer pass aborted: {e}"));
        }
    }
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(".bench_tmp").ok();

    for (k, v) in &out.conditions {
        println!("condition {k} = {v}");
    }
    for (name, value, unit) in &out.named {
        println!("figure {name} = {value} {unit}");
    }
    println!(
        "figure op_p99_ms = {} ms ({} operations)",
        util::percentile(&out.op_ms, 0.99),
        out.op_ms.len()
    );
    println!("figure peak_rss_mb = {} MB", util::peak_rss_mb());
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "figure failed_ratio = {failed_ratio} ratio ({} of {})",
        out.failed, out.attempted
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let values = layers::per_layer(&out);
        let trace_path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
        let spans = tracer::spans();
        if std::fs::create_dir_all(".bench_out").is_ok() {
            match std::fs::write(&trace_path, tracer::chrome_json(&spans)) {
                Ok(()) => println!("trace written to {}", trace_path.display()),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", trace_path.display()),
            }
        }
        layers::print_span_table(&spans);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(f64::NAN);
                (name, v, unit)
            })
            .collect()
    } else {
        let n = out.op_ms.len() as f64;
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => util::median(&out.setup_s),
                    "peak_heap_mb" => out.heap_mb,
                    "p50_ms" => util::median(&out.op_ms),
                    _ => n / out.window_s,
                };
                (name, v, unit)
            })
            .collect()
    };
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            out.problem(format!("metric {name} was not measured"));
        }
        println!("metric {name} = {value} {unit}");
    }
    let correct = out.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
