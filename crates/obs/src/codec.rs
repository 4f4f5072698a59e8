//! Tempest's binary codec, and the [`Telemetry`] record built on it.
//!
//! Every Tempest binary format — the `.trace` file, spool frames, ship
//! messages and telemetry records — is little-endian with `u16`
//! length-prefixed UTF-8 strings. [`Reader`] is the one bounds-checked
//! reader of those bytes and [`put_str`] the one string writer; this
//! crate owns them because every format crate already depends on it.
//! The reader applies no limits of its own: a declared count or string
//! length is a claim, and each caller checks it against its own caps
//! before acting on it.
//!
//! A [`Telemetry`] record is one node's point-in-time [`Snapshot`]
//! (counters, gauges, histograms — spans are deliberately dropped, they
//! are process-local debugging detail) plus the identity needed to file
//! it into a fleet view: node id, hostname, and the wall-clock origin
//! timestamp. It rides inside spool frames and ship messages that are
//! already CRC-framed; its decoder refuses hostile declared counts
//! rather than sizing allocations from them.

use crate::registry::{HistogramSnapshot, Snapshot, HISTOGRAM_BUCKETS};

/// Magic + version prefix of an encoded [`Telemetry`] record.
pub const TELEMETRY_MAGIC: &[u8; 4] = b"TMT1";

/// Decoder cap on the number of metrics of one kind in a record.
const MAX_METRICS: u32 = 4096;
/// Decoder cap on a metric-name or hostname length.
const MAX_NAME_LEN: u16 = 512;

/// One node's metric snapshot plus its fleet identity.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Node rank within the session.
    pub node_id: u32,
    /// Reporting host, best effort.
    pub hostname: String,
    /// Wall-clock time the snapshot was taken, nanoseconds since the
    /// Unix epoch.
    pub origin_unix_ns: u64,
    /// The metrics themselves. `spans` is always empty after decode.
    pub snapshot: Snapshot,
}

/// Wall-clock nanoseconds since the Unix epoch (0 if the clock is
/// before the epoch).
pub fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Why a [`Reader`] could not produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside the value.
    Truncated,
    /// The bytes are there but the format does not allow them (reason
    /// attached): invalid UTF-8, a bad tag or magic, a count over a cap.
    Invalid(&'static str),
}

/// Bounds-checked little-endian reader over an in-memory buffer. Reads
/// borrow from the buffer; only [`Reader::string`] allocates, and only
/// after the caller has checked the length it read.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `len` bytes as a UTF-8 string. A string is written by
    /// [`put_str`] as a `u16` length then the bytes: read the length with
    /// [`Reader::u16`], check it against the caller's limit, then call
    /// this, so a hostile length is refused before anything is read.
    pub fn string(&mut self, len: usize) -> Result<String, DecodeError> {
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| DecodeError::Invalid("invalid UTF-8 string"))
    }
}

/// Appends `s` as a `u16` byte length then its bytes, cut to at most
/// `max` bytes at the last character boundary at or below it, so the cut
/// string still decodes.
pub fn put_str(out: &mut Vec<u8>, s: &str, max: u16) {
    let s = &s[..s.floor_char_boundary(max as usize)];
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a telemetry record for transport.
pub fn encode_telemetry(t: &Telemetry) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(TELEMETRY_MAGIC);
    out.extend_from_slice(&t.node_id.to_le_bytes());
    out.extend_from_slice(&t.origin_unix_ns.to_le_bytes());
    put_str(&mut out, &t.hostname, MAX_NAME_LEN);
    let snap = &t.snapshot;
    out.extend_from_slice(&(snap.counters.len().min(MAX_METRICS as usize) as u32).to_le_bytes());
    for (name, value) in snap.counters.iter().take(MAX_METRICS as usize) {
        put_str(&mut out, name, MAX_NAME_LEN);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(snap.gauges.len().min(MAX_METRICS as usize) as u32).to_le_bytes());
    for (name, value) in snap.gauges.iter().take(MAX_METRICS as usize) {
        put_str(&mut out, name, MAX_NAME_LEN);
        out.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(snap.histograms.len().min(MAX_METRICS as usize) as u32).to_le_bytes());
    for h in snap.histograms.iter().take(MAX_METRICS as usize) {
        put_str(&mut out, &h.name, MAX_NAME_LEN);
        out.extend_from_slice(&h.count.to_le_bytes());
        out.extend_from_slice(&h.sum.to_le_bytes());
        out.extend_from_slice(&(h.buckets.len().min(HISTOGRAM_BUCKETS) as u16).to_le_bytes());
        for &(bound, count) in h.buckets.iter().take(HISTOGRAM_BUCKETS) {
            out.extend_from_slice(&bound.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    out
}

/// Decodes a telemetry record; `None` on truncation, bad magic, or a
/// hostile declared count.
pub fn decode_telemetry(bytes: &[u8]) -> Option<Telemetry> {
    read_telemetry(&mut Reader::new(bytes)).ok()
}

fn read_telemetry(r: &mut Reader<'_>) -> Result<Telemetry, DecodeError> {
    if r.take(4)? != TELEMETRY_MAGIC {
        return Err(DecodeError::Invalid("bad telemetry magic"));
    }
    let node_id = r.u32()?;
    let origin_unix_ns = r.u64()?;
    let hostname = read_name(r)?;
    let mut snapshot = Snapshot::default();
    let n = read_count(r)?;
    snapshot.counters.reserve(n.min(64) as usize);
    for _ in 0..n {
        let name = read_name(r)?;
        let value = r.u64()?;
        snapshot.counters.push((name, value));
    }
    let n = read_count(r)?;
    snapshot.gauges.reserve(n.min(64) as usize);
    for _ in 0..n {
        let name = read_name(r)?;
        let value = f64::from_bits(r.u64()?);
        snapshot.gauges.push((name, value));
    }
    let n = read_count(r)?;
    snapshot.histograms.reserve(n.min(64) as usize);
    for _ in 0..n {
        let name = read_name(r)?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let nbuckets = r.u16()?;
        if nbuckets as usize > HISTOGRAM_BUCKETS {
            return Err(DecodeError::Invalid("too many histogram buckets"));
        }
        let mut buckets = Vec::with_capacity(nbuckets as usize);
        for _ in 0..nbuckets {
            let bound = r.u64()?;
            let bucket_count = r.u64()?;
            buckets.push((bound, bucket_count));
        }
        snapshot.histograms.push(HistogramSnapshot {
            name,
            count,
            sum,
            buckets,
        });
    }
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes"));
    }
    Ok(Telemetry {
        node_id,
        hostname,
        origin_unix_ns,
        snapshot,
    })
}

fn read_name(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    let len = r.u16()?;
    if len > MAX_NAME_LEN {
        return Err(DecodeError::Invalid("name too long"));
    }
    r.string(len as usize)
}

fn read_count(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    let n = r.u32()?;
    if n > MAX_METRICS {
        return Err(DecodeError::Invalid("too many metrics"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Telemetry {
        let reg = Registry::new();
        reg.counter("ship_frames_sent_total").add(42);
        reg.counter("ship_frames_acked_total").add(41);
        reg.gauge("ship_backoff_seconds").set(0.25);
        let h = reg.histogram("collect_frame_latency_ns");
        h.record(1_000);
        h.record(2_000_000);
        Telemetry {
            node_id: 3,
            hostname: "nodeA".into(),
            origin_unix_ns: 1_700_000_000_000_000_000,
            snapshot: reg.snapshot(),
        }
    }

    #[test]
    fn roundtrip_preserves_every_metric() {
        let t = sample();
        let bytes = encode_telemetry(&t);
        let back = decode_telemetry(&bytes).expect("roundtrip must decode");
        assert_eq!(back.node_id, 3);
        assert_eq!(back.hostname, "nodeA");
        assert_eq!(back.origin_unix_ns, t.origin_unix_ns);
        assert_eq!(back.snapshot.counters, t.snapshot.counters);
        assert_eq!(back.snapshot.gauges.len(), 1);
        assert_eq!(back.snapshot.gauge("ship_backoff_seconds"), Some(0.25));
        let h = back.snapshot.histogram("collect_frame_latency_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 2_001_000);
        assert_eq!(h.buckets, t.snapshot.histograms[0].buckets);
        assert!(back.snapshot.spans.is_empty());
    }

    #[test]
    fn truncation_and_bad_magic_refused() {
        let bytes = encode_telemetry(&sample());
        assert!(decode_telemetry(&[]).is_none());
        assert!(decode_telemetry(b"NOPE").is_none());
        for cut in [1, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_telemetry(&bytes[..cut]).is_none(),
                "cut at {cut} must not decode"
            );
        }
        // Trailing garbage is refused too — the record must be exact.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_telemetry(&padded).is_none());
    }

    #[test]
    fn name_cut_at_the_cap_keeps_whole_characters() {
        let hostname = format!("{}é", "h".repeat(MAX_NAME_LEN as usize - 1));
        let t = Telemetry {
            hostname: hostname.clone(),
            ..Telemetry::default()
        };
        let back = decode_telemetry(&encode_telemetry(&t)).expect("a cut name still decodes");
        assert_eq!(back.hostname, hostname[..MAX_NAME_LEN as usize - 1]);
    }

    #[test]
    fn reader_refuses_truncation_and_bad_utf8() {
        let mut out = Vec::new();
        put_str(&mut out, "héllo", u16::MAX);
        put_str(&mut out, "aé", 2);
        let mut r = Reader::new(&out);
        let len = r.u16().unwrap() as usize;
        assert_eq!(r.string(len).unwrap(), "héllo");
        let len = r.u16().unwrap() as usize;
        assert_eq!(
            r.string(len).unwrap(),
            "a",
            "cut before the split character"
        );
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
        let mut r = Reader::new(&[0xC3, 0x28]);
        assert!(matches!(r.string(2), Err(DecodeError::Invalid(_))));
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(DecodeError::Truncated));
    }

    #[test]
    fn hostile_counts_refused() {
        let mut bytes = encode_telemetry(&Telemetry::default());
        // Counter count lives right after magic+node_id+origin+hostname len.
        let at = 4 + 4 + 8 + 2;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_telemetry(&bytes).is_none());
    }
}
