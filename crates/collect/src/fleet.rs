//! Fleet telemetry state: the collector's aggregated view of every
//! node's shipped metric snapshots.
//!
//! Each accepted `METRICS` message (and each spooled [`FRAME_METRICS`]
//! frame riding the DATA stream) replaces that node's entry here —
//! telemetry is a *state*, not a log, so the newest snapshot wins and
//! memory stays bounded by the number of nodes. Staleness is tracked per
//! node from the collector's own clock: a node that stops reporting is
//! flagged, never silently dropped, because "went quiet" is exactly the
//! signal a fleet view exists to surface.
//!
//! [`FRAME_METRICS`]: tempest_probe::spool::FRAME_METRICS

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tempest_core::dto::{FleetDto, FleetNodeDto, DTO_VERSION};
use tempest_obs::{escape, unix_now_ns, Telemetry};

/// Default age after which a node's snapshot is flagged stale.
pub const DEFAULT_STALE_AFTER: Duration = Duration::from_secs(10);

/// One node's latest snapshot plus bookkeeping.
#[derive(Clone)]
pub struct NodeRecord {
    /// Session directory key (`<session>-node<id>`); unique per fleet row.
    pub key: String,
    /// Raw session name from HELLO.
    pub session: String,
    /// The node's latest telemetry snapshot.
    pub telemetry: Telemetry,
    /// Collector wall-clock time of the latest update.
    pub received_unix_ns: u64,
    /// Snapshots received for this node so far.
    pub updates: u64,
    /// Monotonic receipt time, for staleness.
    received_at: Instant,
}

impl NodeRecord {
    /// Time since the node last reported.
    pub fn age(&self) -> Duration {
        self.received_at.elapsed()
    }
}

/// The collector's shared, concurrently-updated fleet view.
pub struct FleetState {
    stale_after: Duration,
    nodes: Mutex<BTreeMap<String, NodeRecord>>,
}

impl Default for FleetState {
    fn default() -> Self {
        FleetState::new(DEFAULT_STALE_AFTER)
    }
}

impl FleetState {
    /// Empty fleet view flagging nodes stale after `stale_after`.
    pub fn new(stale_after: Duration) -> FleetState {
        FleetState {
            stale_after: stale_after.max(Duration::from_millis(1)),
            nodes: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured staleness horizon.
    pub fn stale_after(&self) -> Duration {
        self.stale_after
    }

    /// Replace (or create) a node's snapshot.
    pub fn update(&self, key: &str, session: &str, telemetry: Telemetry) {
        let mut nodes = self.nodes.lock();
        let updates = nodes.get(key).map_or(0, |n| n.updates) + 1;
        nodes.insert(
            key.to_string(),
            NodeRecord {
                key: key.to_string(),
                session: session.to_string(),
                telemetry,
                received_unix_ns: unix_now_ns(),
                updates,
                received_at: Instant::now(),
            },
        );
    }

    /// Number of nodes ever seen.
    pub fn len(&self) -> usize {
        self.nodes.lock().len()
    }

    /// True when no node has reported yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.lock().is_empty()
    }

    /// Copy of every node record, ordered by key.
    pub fn nodes(&self) -> Vec<NodeRecord> {
        self.nodes.lock().values().cloned().collect()
    }

    /// True when the record is older than the staleness horizon.
    pub fn is_stale(&self, record: &NodeRecord) -> bool {
        record.age() > self.stale_after
    }

    /// Sum of every node's counters by name — the fleet-wide totals.
    pub fn aggregate_counters(&self) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for record in self.nodes.lock().values() {
            for (name, value) in &record.telemetry.snapshot.counters {
                *totals.entry(name.clone()).or_insert(0) += value;
            }
        }
        totals.into_iter().collect()
    }

    /// The fleet as the shared versioned DTO
    /// ([`tempest_core::dto::FleetDto`]) — the single schema behind
    /// `/fleet.json`, `tempest fleet --json`, and `GET /api/v1/fleet`.
    pub fn to_dto(&self) -> FleetDto {
        let nodes = self.nodes();
        FleetDto {
            v: DTO_VERSION,
            generated_unix_ns: unix_now_ns(),
            stale_after_ms: self.stale_after.as_millis() as u64,
            node_count: nodes.len(),
            nodes: nodes
                .iter()
                .map(|n| FleetNodeDto {
                    key: n.key.clone(),
                    session: n.session.clone(),
                    node_id: n.telemetry.node_id,
                    hostname: n.telemetry.hostname.clone(),
                    origin_unix_ns: n.telemetry.origin_unix_ns,
                    received_unix_ns: n.received_unix_ns,
                    age_ms: n.age().as_millis() as u64,
                    stale: self.is_stale(n),
                    updates: n.updates,
                    metrics_json: tempest_obs::to_json(&n.telemetry.snapshot),
                })
                .collect(),
        }
    }

    /// Render the fleet as the `/fleet.json` document: per-node identity,
    /// age and staleness, plus the full metric snapshot.
    pub fn to_json(&self) -> String {
        self.to_dto().to_json()
    }

    /// Scan a collector output directory (or a single spool directory)
    /// into an aggregated fleet view — the offline analogue of the
    /// collector's live in-memory state, built from the newest
    /// [`FRAME_METRICS`](tempest_probe::spool::FRAME_METRICS) snapshot
    /// found in each member spool. Directories holding no telemetry
    /// contribute nothing; the result may be empty.
    pub fn from_collected_dir(dir: &Path, stale_after: Duration) -> FleetState {
        let fleet = FleetState::new(stale_after);
        for member in member_dirs(dir) {
            let key = member
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("spool")
                .to_string();
            if let Some(t) = latest_telemetry(&member) {
                fleet.update(&key, &key, t);
            }
        }
        fleet
    }

    /// Render the fleet section of the Prometheus exposition: fleet
    /// gauges plus one labelled series per node counter/gauge, under the
    /// fixed family names `fleet_node_counter` / `fleet_node_gauge` so
    /// the metric-name inventory stays closed.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let nodes = self.nodes();
        let stale = nodes.iter().filter(|n| self.is_stale(n)).count();
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE fleet_nodes gauge\nfleet_nodes {}", nodes.len());
        let _ = writeln!(
            out,
            "# TYPE fleet_stale_nodes gauge\nfleet_stale_nodes {stale}"
        );
        let _ = writeln!(out, "# TYPE fleet_node_counter gauge");
        for n in &nodes {
            for (name, value) in &n.telemetry.snapshot.counters {
                let _ = writeln!(
                    out,
                    "fleet_node_counter{{node=\"{}\",name=\"{}\"}} {value}",
                    escape(&n.key),
                    escape(name)
                );
            }
        }
        let _ = writeln!(out, "# TYPE fleet_node_gauge gauge");
        for n in &nodes {
            for (name, value) in &n.telemetry.snapshot.gauges {
                let _ = writeln!(
                    out,
                    "fleet_node_gauge{{node=\"{}\",name=\"{}\"}} {value}",
                    escape(&n.key),
                    escape(name)
                );
            }
        }
        out
    }
}

/// The spool directories a collected-output target covers: the target
/// itself if it is a spool, otherwise each child spool directory (the
/// layout `collect serve --out` produces), sorted by name.
pub fn member_dirs(dir: &Path) -> Vec<PathBuf> {
    if tempest_probe::spool::is_spool_dir(dir) {
        return vec![dir.to_path_buf()];
    }
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| tempest_probe::spool::is_spool_dir(p))
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    dirs
}

/// Newest telemetry snapshot in one spool directory, whether it was
/// written locally ([`FRAME_METRICS`](tempest_probe::spool::FRAME_METRICS)
/// directly) or collected (inside a shipped envelope).
pub fn latest_telemetry(dir: &Path) -> Option<Telemetry> {
    use tempest_probe::spool as sp;
    let mut latest: Option<Telemetry> = None;
    for (_, path) in sp::list_segment_files(dir).ok()? {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let (frames, _) = sp::parse_segment_frames(&bytes);
        for f in frames {
            let Some(body) = sp::unwrap_frame(&f) else {
                continue;
            };
            if body.kind != sp::FRAME_METRICS {
                continue;
            }
            if let Some(t) = tempest_obs::decode_telemetry(body.payload) {
                if latest
                    .as_ref()
                    .is_none_or(|l| t.origin_unix_ns >= l.origin_unix_ns)
                {
                    latest = Some(t);
                }
            }
        }
    }
    latest
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_obs::{Json, Registry};

    fn telemetry(node_id: u32, acked: u64) -> Telemetry {
        let reg = Registry::new();
        reg.counter("ship_frames_acked_total").add(acked);
        reg.gauge("ship_backoff_seconds").set(0.5);
        Telemetry {
            node_id,
            hostname: format!("host{node_id}"),
            origin_unix_ns: unix_now_ns(),
            snapshot: reg.snapshot(),
        }
    }

    #[test]
    fn updates_replace_and_aggregate() {
        let fleet = FleetState::new(Duration::from_secs(10));
        fleet.update("run-node0", "run", telemetry(0, 5));
        fleet.update("run-node1", "run", telemetry(1, 7));
        fleet.update("run-node0", "run", telemetry(0, 9));
        assert_eq!(fleet.len(), 2);
        let totals = fleet.aggregate_counters();
        assert_eq!(
            totals,
            vec![("ship_frames_acked_total".to_string(), 16)],
            "newest snapshot replaces, never adds twice"
        );
        let rec = &fleet.nodes()[0];
        assert_eq!(rec.updates, 2);
        assert!(!fleet.is_stale(rec));
    }

    #[test]
    fn staleness_flags_quiet_nodes() {
        let fleet = FleetState::new(Duration::from_millis(1));
        fleet.update("run-node0", "run", telemetry(0, 1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(fleet.is_stale(&fleet.nodes()[0]));
        let doc = fleet.to_json();
        let v = Json::parse(&doc).expect("fleet.json must parse");
        let nodes = v.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].get("stale").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn fleet_json_carries_full_snapshots() {
        let fleet = FleetState::default();
        fleet.update("s-node3", "s", telemetry(3, 42));
        let v = Json::parse(&fleet.to_json()).unwrap();
        let node = &v.get("nodes").unwrap().as_arr().unwrap()[0];
        assert_eq!(node.get("node_id").unwrap().as_f64(), Some(3.0));
        assert_eq!(node.get("hostname").unwrap().as_str(), Some("host3"));
        assert_eq!(
            node.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("ship_frames_acked_total")
                .unwrap()
                .as_f64(),
            Some(42.0)
        );
    }

    #[test]
    fn prometheus_section_is_labelled_per_node() {
        let fleet = FleetState::default();
        fleet.update("s-node0", "s", telemetry(0, 3));
        fleet.update("s-node1", "s", telemetry(1, 4));
        let text = fleet.to_prometheus();
        assert!(text.contains("fleet_nodes 2"));
        assert!(text
            .contains("fleet_node_counter{node=\"s-node0\",name=\"ship_frames_acked_total\"} 3"));
        assert!(text
            .contains("fleet_node_counter{node=\"s-node1\",name=\"ship_frames_acked_total\"} 4"));
        assert!(
            text.contains("fleet_node_gauge{node=\"s-node0\",name=\"ship_backoff_seconds\"} 0.5")
        );
    }
}
