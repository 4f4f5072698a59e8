//! Byte-identity guard for the analysis outputs and the on-disk formats.
//!
//! Small seeded generator traces — healthy, and damaged by
//! [`TraceCorruptor`] then analysed in recover mode — are rendered through
//! every output a user sees: the stdout report, the CSV, kv, markdown and
//! JSON exports, the Chrome trace, and the `Debug` form of the rebuilt
//! `Timeline::intervals` (which pins their order). Each
//! output's FNV-1a digest must equal the constant recorded here, so a
//! performance change to decode, timeline, correlate, profile or render
//! cannot alter a single byte unnoticed. The same traces' `.trace`
//! encodings, and every segment file of a deterministic spool, are
//! pinned the same way, so a codec refactor cannot alter a stored byte
//! either. A deliberate output change updates the constants in the same
//! commit and says why.

use tempest_core::export::{profile_to_csv, profile_to_json, profile_to_kv, profile_to_markdown};
use tempest_core::timeline::Timeline;
use tempest_core::{chrome_trace_json, report, AnalysisRequest};
use tempest_probe::corrupt::TraceCorruptor;
use tempest_probe::spool::{self, FsyncPolicy, SpoolConfig, SpoolWriter};
use tempest_probe::{Event, Trace, TraceGenerator, TraceSpec};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn spec(seed: u64, events: usize, threads: u32) -> TraceSpec {
    TraceSpec {
        seed,
        events,
        max_depth: 8,
        threads,
        functions: 24,
        sensors: 4,
        duration_ns: 20 * 1_000_000_000,
        sample_interval_ns: 20_000_000,
    }
}

/// Drop exits, poison symbol ids and scramble a timestamp window.
fn damage(trace: &mut Trace, seed: u64) {
    let mut corruptor = TraceCorruptor::new(seed);
    corruptor.drop_exit_events(trace, 0.02);
    corruptor.poison_symbol_ids(trace, 0.01);
    let span = trace.span_ns();
    corruptor.shuffle_timestamp_window(trace, span / 3, span / 50);
}

/// Digests of every output of one trace, labelled for failure messages.
fn digests(trace: &Trace, recover: bool) -> Vec<(&'static str, u64)> {
    let profile = AnalysisRequest::new()
        .recover(recover)
        .analyze_trace(trace)
        .expect("healthy traces and recover mode always yield a profile");
    let intervals = format!("{:?}", Timeline::build(&trace.events).intervals);
    vec![
        ("report", fnv1a(report::render_stdout(&profile).as_bytes())),
        ("csv", fnv1a(profile_to_csv(&profile).as_bytes())),
        ("kv", fnv1a(profile_to_kv(&profile).as_bytes())),
        ("md", fnv1a(profile_to_markdown(&profile).as_bytes())),
        ("json", fnv1a(profile_to_json(&profile).as_bytes())),
        ("chrome", fnv1a(chrome_trace_json(trace).as_bytes())),
        ("intervals", fnv1a(intervals.as_bytes())),
    ]
}

/// One case: `(seed, events, threads, damaged)`.
type Case = (u64, usize, u32, bool);

/// Each case's seven digests, in [`digests`] order.
#[rustfmt::skip]
const EXPECTED: &[(Case, [u64; 7])] = &[
    ((1, 20000, 1, false), [0x5f3859f1d69575b6, 0xef0fd57cf76d2dce, 0xb0452e2a7eccb3f9, 0x37c6b3fe45ce3488, 0x917594abe56a8ca7, 0x408b8dfdddd4c7e2, 0x9d56a5d0f0484142]),
    ((1, 20000, 1, true), [0x7ffde9328e31ef44, 0xb4ded97626dd353d, 0x5b3499567fe8f146, 0xba361044dfc3d1e6, 0xe095033b800e8bee, 0x3d704a3b79820410, 0xd8393de8a3b995ef]),
    ((1, 40000, 3, false), [0x19ac37ec0804c6e5, 0x312e4c3031481201, 0xb11caf7c248fdbf7, 0x66081cbfa622c5b7, 0x8cbbe18a80403522, 0x631b87bcfe9771a2, 0x8252b060022cb563]),
    ((1, 40000, 3, true), [0x2ee7eed66b12d659, 0xae67b0f3d58e5f97, 0x627e6d83a29445b9, 0x53da3f8a1babf221, 0xb33aeb2410c35140, 0x48ab176a56c7cdb6, 0xaf542da4c05fc543]),
    ((2, 20000, 1, false), [0x976c7558cc4f641a, 0xf4a3547ab9fcbb96, 0xa5924657712ca86c, 0xe69d55b1b0167361, 0xeeab3f8ac1869b7a, 0x21f5d2c4aff8dea0, 0x1106589c661ec26c]),
    ((2, 20000, 1, true), [0xf9c0ed693259f0e2, 0xec7c0a4b8fe3416f, 0x66924f20ac43538b, 0x7d7b8aeb437034b5, 0x0b44c78d137db4d3, 0x51357894444a00c4, 0xd5bf3b3cf72c04df]),
    ((2, 40000, 3, false), [0xb8c97c3a1de70bda, 0x577148f75e8975de, 0x7a89306ead381b9a, 0x17aba7a503ac700a, 0x5ca4fdeb96f247e3, 0xa66a1287bfcb43bb, 0x55f2daac01709b5b]),
    ((2, 40000, 3, true), [0xede3f744b40c983e, 0xf912d5f853af9781, 0x1d31397ed5ddae28, 0xba5fc75f003d0795, 0x5e5337bc852fb67d, 0x15577756a3b743c5, 0x2d3cd73398e45757]),
];

#[test]
fn outputs_match_recorded_digests() {
    let mut mismatches = Vec::new();
    for seed in [1u64, 2] {
        for (events, threads) in [(20_000, 1), (40_000, 3)] {
            for damaged in [false, true] {
                let mut trace = TraceGenerator::new(spec(seed, events, threads)).generate(0);
                if damaged {
                    damage(&mut trace, seed);
                }
                let got = digests(&trace, damaged);
                let key = (seed, events, threads, damaged);
                let want = EXPECTED.iter().find(|(k, _)| *k == key).map(|(_, d)| d);
                for (i, (what, digest)) in got.iter().enumerate() {
                    if want.map(|d| d[i]) != Some(*digest) {
                        mismatches.push(format!("{key:?} {what}: {digest:#018x}"));
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "output digests changed:\n{}",
        mismatches.join("\n")
    );
}

/// FNV-1a of `Trace::to_bytes()` for each case of [`EXPECTED`].
#[rustfmt::skip]
const TRACE_BYTES: &[(Case, u64)] = &[
    ((1, 20000, 1, false), 0x271f145525a9b25f),
    ((1, 20000, 1, true), 0x01e2b9f6596fc207),
    ((1, 40000, 3, false), 0xd490abf372e4a084),
    ((1, 40000, 3, true), 0x43c290e58931f408),
    ((2, 20000, 1, false), 0x39fe4978e5b3e4a1),
    ((2, 20000, 1, true), 0x16d95454a5fdd2ba),
    ((2, 40000, 3, false), 0x4e8bb0b0d7bef411),
    ((2, 40000, 3, true), 0xd2955921ea191c96),
];

/// FNV-1a of each segment file of [`spool_segments`]' spool, in
/// sequence order.
#[rustfmt::skip]
const SPOOL_SEGMENTS: &[u64] = &[
    0xc5911f364826b244, 0x634634a1529ac1a2, 0x4e7b87c1435efedc, 0xd8870b116a36d612,
    0xba5a9a41d70c3148, 0x5689b10abe3c8452, 0x95a3e52d00e5d225,
];

/// Spool one generator trace — its scope events, then its samples as
/// millicelsius sample events — through the production writer with
/// telemetry off and small segments so it rotates, and return the bytes
/// of every segment file in sequence order.
fn spool_segments() -> Vec<Vec<u8>> {
    let trace = TraceGenerator::new(spec(3, 20_000, 3)).generate(0);
    let dir = std::env::temp_dir().join(format!("tempest-digest-spool-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = SpoolConfig::new(&dir)
        .segment_bytes(64 * 1024)
        .fsync(FsyncPolicy::Never)
        .telemetry_interval(None);
    let mut writer = SpoolWriter::create(&config, trace.node.clone()).unwrap();
    let samples: Vec<Event> = trace
        .samples
        .iter()
        .map(|s| Event::sample(s.timestamp_ns, s.sensor, s.temperature.celsius()))
        .collect();
    for batch in trace.events.chunks(1_000).chain(samples.chunks(500)) {
        writer.append_batch(batch).unwrap();
        if writer.should_rotate() {
            writer.rotate(&trace.functions).unwrap();
        }
    }
    writer.finish(&trace.functions, 7, 3).unwrap();
    let segments = spool::list_segment_files(&dir)
        .unwrap()
        .into_iter()
        .map(|(_, path)| std::fs::read(path).unwrap())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    segments
}

#[test]
fn stored_bytes_match_recorded_digests() {
    let mut mismatches = Vec::new();
    for ((seed, events, threads, damaged), want) in TRACE_BYTES {
        let mut trace = TraceGenerator::new(spec(*seed, *events, *threads)).generate(0);
        if *damaged {
            damage(&mut trace, *seed);
        }
        let got = fnv1a(&trace.to_bytes());
        if got != *want {
            mismatches.push(format!(
                "{:?} trace bytes: {got:#018x}",
                (seed, events, threads, damaged)
            ));
        }
    }
    let segments: Vec<u64> = spool_segments().iter().map(|b| fnv1a(b)).collect();
    assert!(segments.len() >= 3, "the spool must rotate: {segments:?}");
    if segments != SPOOL_SEGMENTS {
        mismatches.push(format!("spool segments: {segments:#018x?}"));
    }
    assert!(
        mismatches.is_empty(),
        "stored bytes changed:\n{}",
        mismatches.join("\n")
    );
}
