#![warn(missing_docs)]
//! # tempest-core
//!
//! The analysis side of the Tempest reproduction — the paper's *parser*.
//!
//! §3.2: *"The Tempest parser acquires function timestamps and provides a
//! mapping between timestamps and temperature for the workload on the
//! cluster. The parser then reads the symbol table of the executable to map
//! addresses of functions to their names to generate a human-readable
//! functional temperature profile."*
//!
//! Pipeline, one module per stage:
//!
//! 1. [`timeline`] — rebuild the per-thread call timeline from the raw
//!    entry/exit event stream (handling interleaving, recursion, and
//!    truncated traces; this is what distinguishes Tempest from gprof's
//!    buckets, §3.1).
//! 2. [`correlate`] — walk the sensor samples along that timeline and
//!    attribute each sample to every function active at that instant,
//!    sweeping the columnar batches of [`columns`] in time-window shards.
//! 3. [`stats`] — the Min/Avg/Max/Sdv/Var/Med/Mod summary statistics of
//!    the paper's tables.
//! 4. [`profile`] — per-function, per-sensor thermal profiles with the
//!    §4.2 significance rule (no thermal stats for functions shorter than
//!    the sampling interval).
//! 5. [`report`] — the Figure 2(a) standard-output format.
//! 6. [`plot`] — ASCII/CSV renderings of the Figure 2(b)/3/4 temperature
//!    timelines.
//! 7. [`merge`] — multi-node aggregation for cluster runs.
//! 8. [`analysis`] — hot-spot ranking, node-divergence metrics,
//!    synchronisation-event detection, and phase↔sensor correlation.
//! 9. [`parser`] and [`api`] — the one-call front door:
//!    [`AnalysisRequest`].
//!
//! Beyond the pipeline: [`callgraph`] recovers gprof's caller/callee view
//! exactly from the timeline, [`phases`] segments runs into thermal
//! phases and per-function warming-rate traits (§5), [`reliability`]
//! turns temperature deltas into Arrhenius MTBF factors (§1),
//! [`export`] renders profiles as CSV, key/value, or markdown (Figure 1's
//! "variety of formats"), [`chrome`] renders the reconstructed timeline +
//! temperature counter tracks as Chrome `trace_event` JSON that loads in
//! Perfetto, [`engine`] fans the per-node pipelines of a
//! cluster run across a work-stealing thread pool with deterministic,
//! input-ordered results, and [`cache`] makes repeat analysis of
//! unchanged traces near-free via a content-hash result cache.

pub mod analysis;
pub mod api;
pub mod cache;
pub mod callgraph;
pub mod chrome;
pub mod columns;
pub mod correlate;
pub mod dto;
pub mod engine;
pub mod export;
pub mod merge;
pub mod parser;
pub mod phases;
pub mod plot;
pub mod profile;
pub mod reliability;
pub mod report;
pub mod stats;
pub mod timeline;

/// Input/resource governance primitives (re-exported from `tempest_probe`):
/// decode limits, byte budgets, typed `LimitExceeded` overruns, and the
/// cooperative [`limits::CancelToken`] honoured by decode and sweep loops.
pub use tempest_probe::limits;

pub use api::{AnalysisOutcome, AnalysisRequest};
pub use cache::AnalysisCache;
pub use chrome::{chrome_fleet_trace_json, chrome_trace_json};
pub use engine::Engine;
pub use merge::ClusterProfile;
pub use parser::{AnalysisOptions, ParseError};
pub use profile::{DataQuality, FunctionProfile, NodeProfile};
pub use stats::SummaryStats;
pub use timeline::{Interval, Timeline};
