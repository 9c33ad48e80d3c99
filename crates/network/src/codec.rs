//! The wire format.
//!
//! Each message is one frame:
//!
//! ```text
//! magic "MP" (2) | version u8 | type u8 | payload_len u32 LE | payload
//! ```
//!
//! Payloads are JSON-serialized message bodies — self-describing and
//! diff-able in logs, which is what an open protocol for "many diverse
//! expert systems" (§7.1) needs more than raw compactness.
//!
//! Five message families share the header: ship network messages, and
//! the gateway's and fleet router's requests and responses. Each owns
//! one range of type tags in [`TAG_FAMILIES`], and every family encodes
//! and decodes through [`encode_body`] / [`decode_body`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mpros_core::{ConditionReport, DcId, Error, MachineId, Result};
use mpros_telemetry::TraceContext;
use serde::{Deserialize, Serialize};
use std::ops::Range;

const MAGIC: [u8; 2] = *b"MP";
/// Wire version. v7 made [`TAG_FAMILIES`] the one tag allocator and
/// dropped the fleet router's forwarding of single-ship request frames;
/// v6 added the fleet request and response families; v5 grew the
/// gateway families with the observability plane (`GetMetrics`,
/// `StreamJournal`, `ListIncidents`, `GetIncident`, `GetTrace`); v4
/// opened the header to the gateway query protocol; v3 added the
/// per-report [`TraceContext`] on batch entries; v2 added the batch
/// restart `epoch` and the `Ack` message. Older peers are rejected
/// rather than mis-parsed.
pub const WIRE_VERSION: u8 = 7;
const VERSION: u8 = WIRE_VERSION;
/// Frames larger than this are rejected (corrupted length field guard).
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;
/// Reports per batch frame; larger batches must be split by the sender.
pub const MAX_BATCH: usize = 1024;

/// One message family's slice of the frame type-tag space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagFamily {
    /// Human-readable family name, used in decode errors.
    pub name: &'static str,
    /// The family's tags, half-open.
    pub tags: Range<u8>,
}

impl TagFamily {
    const fn new(name: &'static str, tags: Range<u8>) -> Self {
        TagFamily { name, tags }
    }

    /// Whether `kind_count` variants fit in the family's range.
    pub const fn fits(&self, kind_count: usize) -> bool {
        kind_count <= (self.tags.end - self.tags.start) as usize
    }
}

/// Ship network messages ([`NetMessage`]).
pub const SHIP: TagFamily = TagFamily::new("ship message", 1..32);
/// Gateway requests (`mpros_gateway::GatewayRequest`).
pub const GATEWAY_REQUEST: TagFamily = TagFamily::new("gateway request", 32..64);
/// Gateway responses (`mpros_gateway::GatewayResponse`).
pub const GATEWAY_RESPONSE: TagFamily = TagFamily::new("gateway response", 64..96);
/// Fleet router requests (`mpros_fleet::FleetRequest`).
pub const FLEET_REQUEST: TagFamily = TagFamily::new("fleet request", 96..112);
/// Fleet router responses (`mpros_fleet::FleetResponse`).
pub const FLEET_RESPONSE: TagFamily = TagFamily::new("fleet response", 112..128);

/// Every message family sharing the one frame header, in tag order.
/// This table is the only tag allocator: a family's decoder accepts
/// exactly its own range, so the ranges must never overlap.
pub const TAG_FAMILIES: [TagFamily; 5] = [
    SHIP,
    GATEWAY_REQUEST,
    GATEWAY_RESPONSE,
    FLEET_REQUEST,
    FLEET_RESPONSE,
];

// Every family is non-empty and starts at or after the previous one's
// end, so no tag belongs to two families.
const _: () = {
    let mut i = 0;
    while i < TAG_FAMILIES.len() {
        let tags = &TAG_FAMILIES[i].tags;
        assert!(tags.start < tags.end, "empty tag family");
        if i > 0 {
            assert!(
                TAG_FAMILIES[i - 1].tags.end <= tags.start,
                "tag families overlap"
            );
        }
        i += 1;
    }
};

/// A message enum carried on the wire: one family of tags, one variant
/// per tag. Each implementor pins `FAMILY.fits(KIND_COUNT)` with a
/// `const` assertion, so a variant can leave its range only by editing
/// [`TAG_FAMILIES`].
pub trait WireMessage: Serialize + Deserialize {
    /// The family whose range this message's tags come from.
    const FAMILY: TagFamily;
    /// Number of variants.
    const KIND_COUNT: usize;

    /// The variant's index, `0..KIND_COUNT`.
    fn kind_index(&self) -> usize;

    /// Frame type tag: the family's base plus the variant's index.
    fn type_tag(&self) -> u8 {
        Self::FAMILY.tags.start + self.kind_index() as u8
    }

    /// Well-formedness beyond what serde checks, run on both encode
    /// and decode.
    fn validate(&self) -> Result<()> {
        Ok(())
    }
}

/// One entry of a [`NetMessage::ReportBatch`]: a report tagged with the
/// originating DC's emission sequence number. Sequence numbers are
/// strictly increasing per DC, which lets the receiver reject duplicate
/// or replayed entries without inspecting report contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchEntry {
    /// The DC's emission sequence number for this report.
    pub seq: u64,
    /// The report's causal trace context (v3). Carried on every
    /// retransmission unchanged, so retries land on the same trace.
    pub trace: TraceContext,
    /// The report itself.
    pub report: ConditionReport,
}

/// Messages carried on the ship network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetMessage {
    /// A §7.2 failure-prediction report, DC → PDME.
    Report(ConditionReport),
    /// A batch of reports emitted by one DC in a single step, carried
    /// as one frame. Entries are ordered by strictly increasing
    /// sequence number; frames violating that (duplicates, reordering)
    /// are rejected by the codec on both encode and decode.
    ReportBatch {
        /// Originating DC.
        dc: DcId,
        /// The DC's restart epoch. A DC that crashes and restarts
        /// allocates report ids (and therefore batch sequence numbers)
        /// from scratch; the bumped epoch lets the receiver's replay
        /// guard distinguish a legitimate post-restart frame from a
        /// replay of a pre-crash one.
        epoch: u64,
        /// The batched reports, in emission order.
        entries: Vec<BatchEntry>,
    },
    /// Command a DC to run a test immediately (§5.8: "the PDME or any
    /// other client can command the scheduler to conduct another test").
    RunTest {
        /// Target DC.
        dc: DcId,
        /// Machine to survey.
        machine: MachineId,
    },
    /// Download a new SBFR machine image into a DC (§6.3).
    DownloadSbfr {
        /// Target DC.
        dc: DcId,
        /// Slot to replace.
        slot: u32,
        /// Encoded program image.
        image: Vec<u8>,
    },
    /// Liveness probe.
    Heartbeat {
        /// Originating DC.
        dc: DcId,
        /// Sender's simulated-clock seconds.
        at_secs: f64,
    },
    /// Cumulative acknowledgement, PDME → DC: every
    /// [`NetMessage::ReportBatch`] of `(dc, epoch)` whose highest entry
    /// sequence is ≤ `last_seq` has been ingested and may be released
    /// from the sender's retry outbox.
    Ack {
        /// The DC whose batches are acknowledged.
        dc: DcId,
        /// The restart epoch the acknowledgement applies to.
        epoch: u64,
        /// Highest acknowledged entry sequence number, cumulative.
        last_seq: u64,
    },
}

impl WireMessage for NetMessage {
    const FAMILY: TagFamily = SHIP;
    const KIND_COUNT: usize = 6;

    fn kind_index(&self) -> usize {
        match self {
            NetMessage::Report(_) => 0,
            NetMessage::RunTest { .. } => 1,
            NetMessage::DownloadSbfr { .. } => 2,
            NetMessage::Heartbeat { .. } => 3,
            NetMessage::ReportBatch { .. } => 4,
            NetMessage::Ack { .. } => 5,
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            NetMessage::ReportBatch { entries, .. } => validate_batch(entries),
            _ => Ok(()),
        }
    }
}

const _: () = assert!(SHIP.fits(NetMessage::KIND_COUNT));

/// Batch well-formedness: bounded size and strictly increasing sequence
/// numbers (which also rules out duplicates). Empty batches are legal —
/// they encode "nothing this step" for protocols that frame every step.
fn validate_batch(entries: &[BatchEntry]) -> Result<()> {
    if entries.len() > MAX_BATCH {
        return Err(Error::Encoding(format!(
            "batch of {} entries exceeds cap {MAX_BATCH}",
            entries.len()
        )));
    }
    for pair in entries.windows(2) {
        if pair[1].seq <= pair[0].seq {
            return Err(Error::Encoding(format!(
                "batch sequence numbers not strictly increasing: {} then {}",
                pair[0].seq, pair[1].seq
            )));
        }
    }
    Ok(())
}

/// Assemble one wire frame around an already-serialized payload: the
/// header layout, version byte and length cap every family shares.
pub fn frame_payload(tag: u8, payload: &[u8]) -> Result<Bytes> {
    if payload.len() > MAX_PAYLOAD {
        return Err(Error::Encoding(format!(
            "payload length {} exceeds cap",
            payload.len()
        )));
    }
    let mut buf = BytesMut::with_capacity(8 + payload.len());
    buf.put_slice(&MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(tag);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    Ok(buf.freeze())
}

/// Strip and validate a frame header; returns the declared type tag and
/// the payload bytes. Rejects bad magic, foreign versions, oversized or
/// mismatched lengths — the caller only deserializes what survived.
fn deframe(mut frame: Bytes) -> Result<(u8, Bytes)> {
    if frame.len() < 8 {
        return Err(Error::Encoding("frame shorter than header".into()));
    }
    let mut magic = [0u8; 2];
    frame.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(Error::Encoding("bad frame magic".into()));
    }
    let version = frame.get_u8();
    if version != VERSION {
        return Err(Error::Encoding(format!(
            "unsupported frame version {version}"
        )));
    }
    let tag = frame.get_u8();
    let len = frame.get_u32_le() as usize;
    if len > MAX_PAYLOAD {
        return Err(Error::Encoding(format!("payload length {len} exceeds cap")));
    }
    if frame.len() != len {
        return Err(Error::Encoding(format!(
            "payload length mismatch: header {len}, actual {}",
            frame.len()
        )));
    }
    Ok((tag, frame))
}

/// Encode any wire message into one frame: validate, serialize the JSON
/// body, stamp the variant's tag.
pub fn encode_body<M: WireMessage>(msg: &M) -> Result<Bytes> {
    msg.validate()?;
    let payload = serde_json::to_vec(msg)
        .map_err(|e| Error::Encoding(format!("{} serialization: {e}", M::FAMILY.name)))?;
    frame_payload(msg.type_tag(), &payload)
}

/// Decode one frame of family `M`. The tag must lie in `M`'s range (so
/// a misrouted frame fails before its body is parsed), and must match
/// the decoded body (defense against frame corruption).
pub fn decode_body<M: WireMessage>(frame: Bytes) -> Result<M> {
    let (tag, payload) = deframe(frame)?;
    if !M::FAMILY.tags.contains(&tag) {
        return Err(Error::Encoding(format!(
            "type tag {tag} is not a {}",
            M::FAMILY.name
        )));
    }
    let msg: M = serde_json::from_slice(&payload)
        .map_err(|e| Error::Encoding(format!("{} deserialization: {e}", M::FAMILY.name)))?;
    if msg.type_tag() != tag {
        return Err(Error::Encoding("type tag does not match body".into()));
    }
    msg.validate()?;
    Ok(msg)
}

/// Encode a ship network message into one frame.
pub fn encode_message(msg: &NetMessage) -> Result<Bytes> {
    encode_body(msg)
}

/// Decode one ship network frame.
pub fn decode_message(frame: Bytes) -> Result<NetMessage> {
    decode_body(frame)
}
#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{Belief, MachineCondition, PrognosticVector, ReportId, SimTime};

    fn sample_report() -> ConditionReport {
        ConditionReport::builder(
            MachineId::new(3),
            MachineCondition::GearToothWear,
            Belief::new(0.8),
        )
        .id(ReportId::new(42))
        .dc(DcId::new(2))
        .severity(0.6)
        .timestamp(SimTime::from_secs(99.0))
        .explanation("gear mesh sidebands")
        .prognostic(PrognosticVector::from_months(&[(1.0, 0.4)]).unwrap())
        .build()
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        let msgs = vec![
            NetMessage::Report(sample_report()),
            NetMessage::RunTest {
                dc: DcId::new(1),
                machine: MachineId::new(3),
            },
            NetMessage::DownloadSbfr {
                dc: DcId::new(1),
                slot: 2,
                image: vec![1, 2, 3, 255],
            },
            NetMessage::Heartbeat {
                dc: DcId::new(7),
                at_secs: 123.5,
            },
            NetMessage::Ack {
                dc: DcId::new(7),
                epoch: 3,
                last_seq: 12_345,
            },
        ];
        for m in msgs {
            let frame = encode_message(&m).unwrap();
            let back = decode_message(frame).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn report_payload_survives_fully() {
        let r = sample_report();
        let frame = encode_message(&NetMessage::Report(r.clone())).unwrap();
        match decode_message(frame).unwrap() {
            NetMessage::Report(back) => assert_eq!(back, r),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let frame = encode_message(&NetMessage::Heartbeat {
            dc: DcId::new(1),
            at_secs: 0.0,
        })
        .unwrap();
        // Too short.
        assert!(decode_message(frame.slice(0..4)).is_err());
        // Bad magic.
        let mut bad = frame.to_vec();
        bad[0] = b'X';
        assert!(decode_message(Bytes::from(bad)).is_err());
        // Bad version.
        let mut bad = frame.to_vec();
        bad[2] = 99;
        assert!(decode_message(Bytes::from(bad)).is_err());
        // Mismatched type tag.
        let mut bad = frame.to_vec();
        bad[3] = 1;
        assert!(decode_message(Bytes::from(bad)).is_err());
        // Truncated payload.
        let bad = frame.slice(0..frame.len() - 1);
        assert!(decode_message(bad).is_err());
        // Garbage payload bytes.
        let mut bad = frame.to_vec();
        let n = bad.len();
        bad[n - 3] = 0xFF;
        assert!(decode_message(Bytes::from(bad)).is_err());
    }

    fn batch(seqs: &[u64]) -> NetMessage {
        NetMessage::ReportBatch {
            dc: DcId::new(2),
            epoch: 0,
            entries: seqs
                .iter()
                .map(|&seq| BatchEntry {
                    seq,
                    trace: TraceContext::for_enqueued(mpros_telemetry::TraceId(seq ^ 0xDEAD)),
                    report: sample_report(),
                })
                .collect(),
        }
    }

    #[test]
    fn report_batches_roundtrip() {
        for seqs in [&[][..], &[1], &[1, 2, 9], &[100, 200, 201]] {
            let m = batch(seqs);
            let back = decode_message(encode_message(&m).unwrap()).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn batch_with_duplicate_or_reordered_seqs_is_rejected() {
        for seqs in [&[1u64, 1][..], &[5, 3], &[1, 2, 2], &[9, 9, 9]] {
            assert!(encode_message(&batch(seqs)).is_err(), "encoded {seqs:?}");
        }
        // A frame forged past the encoder is still caught on decode:
        // serialize a valid batch, then corrupt is hard via JSON, so
        // build the payload straight from serde like an attacker would.
        let forged = serde_json::to_vec(&batch(&[4, 4])).unwrap();
        let mut buf = BytesMut::new();
        buf.put_slice(b"MP");
        buf.put_u8(VERSION);
        buf.put_u8(5);
        buf.put_u32_le(forged.len() as u32);
        buf.put_slice(&forged);
        assert!(decode_message(buf.freeze()).is_err());
    }

    #[test]
    fn batch_size_cap_is_enforced() {
        let entries: Vec<BatchEntry> = (0..=MAX_BATCH as u64)
            .map(|seq| BatchEntry {
                seq,
                trace: TraceContext::default(),
                report: sample_report(),
            })
            .collect();
        let over = NetMessage::ReportBatch {
            dc: DcId::new(1),
            epoch: 0,
            entries,
        };
        assert!(encode_message(&over).is_err());
    }

    /// Every older wire version is refused on the version byte before
    /// serde can mis-parse or mis-default a body: v1 batches lack the
    /// epoch, v2 entries the trace context; v3 predates the gateway
    /// families, v4 the observability tags, v5 the fleet families, and
    /// v6 peers still send single-ship frames to the fleet router.
    #[test]
    fn older_wire_versions_are_rejected_by_version() {
        let frames: [(u8, u8, &[u8]); 6] = [
            (1, 5, br#"{"ReportBatch":{"dc":2,"entries":[]}}"#),
            (2, 5, br#"{"ReportBatch":{"dc":2,"epoch":0,"entries":[]}}"#),
            (3, 4, br#"{"Heartbeat":{"dc":2,"at_secs":1.0}}"#),
            (4, 36, br#""GetCounters""#),
            (5, 33, br#""GetIcas""#),
            (6, 96, br#""ListShips""#),
        ];
        for (version, tag, payload) in frames {
            let mut buf = BytesMut::new();
            buf.put_slice(b"MP");
            buf.put_u8(version);
            buf.put_u8(tag);
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(payload);
            let err = decode_message(buf.freeze()).unwrap_err();
            assert!(err.to_string().contains("version"), "v{version}: {err}");
        }
    }

    #[test]
    fn length_cap_is_enforced() {
        let mut frame = BytesMut::new();
        frame.put_slice(b"MP");
        frame.put_u8(VERSION);
        frame.put_u8(4);
        frame.put_u32_le(u32::MAX);
        assert!(decode_message(frame.freeze()).is_err());
    }

    #[test]
    fn framing_helpers_roundtrip_arbitrary_payloads() {
        let payload = br#"{"anything":42}"#;
        let frame = frame_payload(33, payload).unwrap();
        let (tag, body) = deframe(frame).unwrap();
        assert_eq!(tag, 33);
        assert_eq!(&body[..], payload);
    }
}
