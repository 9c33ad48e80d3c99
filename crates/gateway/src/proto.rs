//! The gateway query protocol.
//!
//! Requests and responses ride the same frame layout as the ship
//! network (`magic "MP" | version u8 | type u8 | payload_len u32 LE |
//! JSON payload`) and go through the one codec path,
//! [`mpros_network::encode_body`] / [`mpros_network::decode_body`].
//! Their tags come from the `GATEWAY_REQUEST` and `GATEWAY_RESPONSE`
//! rows of [`mpros_network::TAG_FAMILIES`]; each decoder rejects every
//! other family's tags, so a misrouted frame fails loudly instead of
//! half-parsing.

use bytes::Bytes;
use mpros_core::{PrognosticVector, Result};
use mpros_network::codec::{GATEWAY_REQUEST, GATEWAY_RESPONSE};
use mpros_network::{decode_body, encode_body, TagFamily, WireMessage};
use mpros_pdme::icas::IcasMachine;
use mpros_pdme::IcasSnapshot;
use mpros_telemetry::{
    CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, HopRecord, Incident,
    IncidentSummary, SloVerdict,
};
use serde::{Deserialize, Serialize};

/// Gateway payload schema version, stamped into every response.
pub const GATEWAY_SCHEMA_VERSION: u32 = 1;

/// A client request against the published serving snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GatewayRequest {
    /// The named machine's ICAS entry (health, status, conditions).
    GetMachineStatus {
        /// Raw machine id.
        machine: u64,
    },
    /// The full ICAS interchange document.
    GetIcas,
    /// The fused prognostic curve for one `(machine, condition)` pair.
    GetPrognosticVector {
        /// Raw machine id.
        machine: u64,
        /// Condition catalog index.
        condition_id: usize,
    },
    /// The SLO watchdog's verdict captured with the snapshot.
    GetSloVerdict,
    /// The ship's telemetry counters at snapshot time (minus the
    /// scheduling-only `exec` and serving-side `gateway` components).
    GetCounters,
    /// Register (idempotently) as a subscriber and drain the session's
    /// queued degraded/recovered deltas. Subscription is registration
    /// *and* poll: the first call opens the session, every call returns
    /// whatever edge-triggered deltas publishing queued since the last.
    Subscribe {
        /// Caller-chosen session id.
        session: u64,
    },
    /// The full sim-domain telemetry view at snapshot time — structured
    /// counters/gauges/histograms plus the pre-rendered Prometheus-style
    /// text exposition (wire v5).
    GetMetrics,
    /// One page of the normalized journal tail: a cursor-based bounded
    /// oldest-drop stream; pass cursor 0 to start, then feed the
    /// returned `next_cursor` back in (wire v5).
    StreamJournal {
        /// Recorder stream sequence to resume from.
        cursor: u64,
        /// Maximum events to return in this page.
        max: u32,
    },
    /// Summaries of the sealed incidents the flight recorder retains
    /// (wire v5).
    ListIncidents,
    /// One sealed incident bundle by its deterministic id (wire v5).
    GetIncident {
        /// The incident id (see `mpros_telemetry::incident_id`).
        id: u64,
    },
    /// Every recorded hop of one trace, canonically ordered — the
    /// remote form of `TraceLog::trace` (wire v5).
    GetTrace {
        /// Raw trace id.
        trace: u64,
    },
}

impl WireMessage for GatewayRequest {
    const FAMILY: TagFamily = GATEWAY_REQUEST;
    const KIND_COUNT: usize = Self::KINDS.len();

    fn kind_index(&self) -> usize {
        match self {
            GatewayRequest::GetMachineStatus { .. } => 0,
            GatewayRequest::GetIcas => 1,
            GatewayRequest::GetPrognosticVector { .. } => 2,
            GatewayRequest::GetSloVerdict => 3,
            GatewayRequest::GetCounters => 4,
            GatewayRequest::Subscribe { .. } => 5,
            GatewayRequest::GetMetrics => 6,
            GatewayRequest::StreamJournal { .. } => 7,
            GatewayRequest::ListIncidents => 8,
            GatewayRequest::GetIncident { .. } => 9,
            GatewayRequest::GetTrace { .. } => 10,
        }
    }
}

const _: () = assert!(GATEWAY_REQUEST.fits(GatewayRequest::KIND_COUNT));

impl GatewayRequest {
    /// Every request kind name, indexed by `kind_index()` — the gateway
    /// pre-registers one `service_time` histogram per entry so the
    /// serve path never touches the registry lock.
    pub const KINDS: [&'static str; 11] = [
        "get_machine_status",
        "get_icas",
        "get_prognostic_vector",
        "get_slo_verdict",
        "get_counters",
        "subscribe",
        "get_metrics",
        "stream_journal",
        "list_incidents",
        "get_incident",
        "get_trace",
    ];

    /// Stable snake_case name of the request kind (used for the
    /// gateway's per-request `service_time` histograms).
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

/// One edge-triggered supervision transition between two published
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaKind {
    /// The machine's status flipped to `degraded`.
    Degraded,
    /// The machine's status returned to `ok`.
    Recovered,
}

/// A queued subscription event: machine `machine_id` changed
/// supervision status in the snapshot stamped `snapshot_version`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusDelta {
    /// The snapshot whose publication observed the edge.
    pub snapshot_version: u64,
    /// Simulated seconds of that snapshot.
    pub at_secs: f64,
    /// The machine that changed status.
    pub machine_id: u64,
    /// Direction of the change.
    pub kind: DeltaKind,
}

/// A server response. Every variant carries the version of the
/// snapshot it was served from, so clients can order what they see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GatewayResponse {
    /// Answer to [`GatewayRequest::GetMachineStatus`].
    MachineStatus {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The machine's ICAS entry.
        machine: IcasMachine,
    },
    /// Answer to [`GatewayRequest::GetIcas`].
    Icas {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The full interchange document.
        icas: IcasSnapshot,
    },
    /// Answer to [`GatewayRequest::GetPrognosticVector`].
    PrognosticVector {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Raw machine id echoed back.
        machine: u64,
        /// Condition catalog index echoed back.
        condition_id: usize,
        /// The fused (conservative-envelope) curve.
        vector: PrognosticVector,
    },
    /// Answer to [`GatewayRequest::GetSloVerdict`]; `None` while no
    /// watchdog pass has run (empty policy or before the first step).
    SloVerdict {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The captured verdict.
        verdict: Option<SloVerdict>,
    },
    /// Answer to [`GatewayRequest::GetCounters`].
    Counters {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Every counter, sorted by `(component, name)`.
        counters: Vec<CounterSnapshot>,
    },
    /// Answer to [`GatewayRequest::Subscribe`]: the session's queued
    /// deltas, oldest first, plus how many were evicted by backpressure
    /// since the previous poll.
    Deltas {
        /// Serving snapshot version at poll time.
        snapshot_version: u64,
        /// The polling session.
        session: u64,
        /// Deltas evicted (oldest-drop) since the last poll.
        dropped: u64,
        /// The surviving deltas, oldest first.
        deltas: Vec<StatusDelta>,
    },
    /// The requested entity does not exist in the snapshot.
    NotFound {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// What was missing.
        detail: String,
    },
    /// Answer to [`GatewayRequest::GetMetrics`] (wire v5).
    Metrics {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Simulated seconds of the snapshot.
        at_secs: f64,
        /// Sim-domain counters, sorted by `(component, name)`.
        counters: Vec<CounterSnapshot>,
        /// Sim-domain gauges, sorted by `(component, name)`.
        gauges: Vec<GaugeSnapshot>,
        /// Sim-domain (simulated-time) histograms, sorted by
        /// `(component, name)`.
        histograms: Vec<HistogramSnapshot>,
        /// Prometheus-style text exposition of the above.
        exposition: String,
    },
    /// Answer to [`GatewayRequest::StreamJournal`] (wire v5).
    Journal {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Cursor for the next poll.
        next_cursor: u64,
        /// Events the cursor missed to oldest-drop eviction.
        dropped: u64,
        /// The served events, oldest first.
        events: Vec<EventSnapshot>,
    },
    /// Answer to [`GatewayRequest::ListIncidents`] (wire v5).
    Incidents {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Retained sealed incidents, oldest first.
        incidents: Vec<IncidentSummary>,
    },
    /// Answer to [`GatewayRequest::GetIncident`] (wire v5).
    Incident {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The sealed bundle.
        incident: Incident,
    },
    /// Answer to [`GatewayRequest::GetTrace`] (wire v5).
    Trace {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Raw trace id echoed back.
        trace: u64,
        /// The trace's hops, canonically ordered.
        hops: Vec<HopRecord>,
    },
}

impl WireMessage for GatewayResponse {
    const FAMILY: TagFamily = GATEWAY_RESPONSE;
    const KIND_COUNT: usize = 12;

    fn kind_index(&self) -> usize {
        match self {
            GatewayResponse::MachineStatus { .. } => 0,
            GatewayResponse::Icas { .. } => 1,
            GatewayResponse::PrognosticVector { .. } => 2,
            GatewayResponse::SloVerdict { .. } => 3,
            GatewayResponse::Counters { .. } => 4,
            GatewayResponse::Deltas { .. } => 5,
            GatewayResponse::NotFound { .. } => 6,
            GatewayResponse::Metrics { .. } => 7,
            GatewayResponse::Journal { .. } => 8,
            GatewayResponse::Incidents { .. } => 9,
            GatewayResponse::Incident { .. } => 10,
            GatewayResponse::Trace { .. } => 11,
        }
    }
}

const _: () = assert!(GATEWAY_RESPONSE.fits(GatewayResponse::KIND_COUNT));

impl GatewayResponse {
    /// The snapshot version stamped on the response.
    pub fn snapshot_version(&self) -> u64 {
        match self {
            GatewayResponse::MachineStatus {
                snapshot_version, ..
            }
            | GatewayResponse::Icas {
                snapshot_version, ..
            }
            | GatewayResponse::PrognosticVector {
                snapshot_version, ..
            }
            | GatewayResponse::SloVerdict {
                snapshot_version, ..
            }
            | GatewayResponse::Counters {
                snapshot_version, ..
            }
            | GatewayResponse::Deltas {
                snapshot_version, ..
            }
            | GatewayResponse::NotFound {
                snapshot_version, ..
            }
            | GatewayResponse::Metrics {
                snapshot_version, ..
            }
            | GatewayResponse::Journal {
                snapshot_version, ..
            }
            | GatewayResponse::Incidents {
                snapshot_version, ..
            }
            | GatewayResponse::Incident {
                snapshot_version, ..
            }
            | GatewayResponse::Trace {
                snapshot_version, ..
            } => *snapshot_version,
        }
    }
}

/// Encode a request into one wire frame.
pub fn encode_request(req: &GatewayRequest) -> Result<Bytes> {
    encode_body(req)
}

/// Decode one gateway request frame.
pub fn decode_request(frame: Bytes) -> Result<GatewayRequest> {
    decode_body(frame)
}

/// Encode a response into one wire frame.
pub fn encode_response(resp: &GatewayResponse) -> Result<Bytes> {
    encode_body(resp)
}

/// Decode one gateway response frame.
pub fn decode_response(frame: Bytes) -> Result<GatewayResponse> {
    decode_body(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            GatewayRequest::GetMachineStatus { machine: 3 },
            GatewayRequest::GetIcas,
            GatewayRequest::GetPrognosticVector {
                machine: 1,
                condition_id: 4,
            },
            GatewayRequest::GetSloVerdict,
            GatewayRequest::GetCounters,
            GatewayRequest::Subscribe { session: 99 },
            GatewayRequest::GetMetrics,
            GatewayRequest::StreamJournal {
                cursor: 17,
                max: 64,
            },
            GatewayRequest::ListIncidents,
            GatewayRequest::GetIncident { id: 0xDEAD_BEEF },
            GatewayRequest::GetTrace { trace: 42 },
        ];
        for req in reqs {
            let back = decode_request(encode_request(&req).unwrap()).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            GatewayResponse::SloVerdict {
                snapshot_version: 7,
                verdict: None,
            },
            GatewayResponse::Counters {
                snapshot_version: 7,
                counters: vec![CounterSnapshot {
                    component: "gateway".into(),
                    name: "requests".into(),
                    value: 12,
                }],
            },
            GatewayResponse::Deltas {
                snapshot_version: 9,
                session: 4,
                dropped: 2,
                deltas: vec![StatusDelta {
                    snapshot_version: 8,
                    at_secs: 240.0,
                    machine_id: 2,
                    kind: DeltaKind::Degraded,
                }],
            },
            GatewayResponse::NotFound {
                snapshot_version: 7,
                detail: "machine 42".into(),
            },
            GatewayResponse::Metrics {
                snapshot_version: 7,
                at_secs: 180.0,
                counters: vec![],
                gauges: vec![GaugeSnapshot {
                    component: "pdme".into(),
                    name: "dc_staleness_max".into(),
                    value: 1.5,
                }],
                histograms: vec![],
                exposition: "# TYPE mpros_pdme_dc_staleness_max gauge\n\
                             mpros_pdme_dc_staleness_max 1.5\n"
                    .into(),
            },
            GatewayResponse::Journal {
                snapshot_version: 7,
                next_cursor: 12,
                dropped: 3,
                events: vec![EventSnapshot {
                    seq: 11,
                    at_secs: 170.0,
                    component: "net".into(),
                    kind: "partition".into(),
                    detail: "Dc(2) unreachable".into(),
                }],
            },
            GatewayResponse::Incidents {
                snapshot_version: 7,
                incidents: vec![IncidentSummary {
                    id: 99,
                    trigger: mpros_telemetry::IncidentTrigger::DcCrashed { dc: 2 },
                    step: 40,
                    at_secs: 120.0,
                    records: 5,
                }],
            },
            GatewayResponse::Trace {
                snapshot_version: 7,
                trace: 42,
                hops: vec![HopRecord {
                    trace: 42,
                    span: 7,
                    parent: None,
                    kind: "dc_emit".into(),
                    attempt: 0,
                    track: "dc1".into(),
                    sim_start: 3.0,
                    sim_end: 3.0,
                    detail: String::new(),
                }],
            },
        ];
        for resp in resps {
            let back = decode_response(encode_response(&resp).unwrap()).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn request_and_response_tag_ranges_are_disjoint() {
        // A response frame fed to the request decoder (and vice versa)
        // must be rejected on the tag range, not mis-parsed.
        let resp = GatewayResponse::SloVerdict {
            snapshot_version: 1,
            verdict: None,
        };
        assert!(decode_request(encode_response(&resp).unwrap()).is_err());
        let req = GatewayRequest::GetIcas;
        assert!(decode_response(encode_request(&req).unwrap()).is_err());
    }

    #[test]
    fn ship_network_frames_are_rejected() {
        let msg = mpros_network::NetMessage::Heartbeat {
            dc: mpros_core::DcId::new(1),
            at_secs: 0.0,
        };
        let frame = mpros_network::encode_message(&msg).unwrap();
        assert!(decode_request(frame.clone()).is_err());
        assert!(decode_response(frame).is_err());
    }
}
