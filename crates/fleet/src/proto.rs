//! The fleet router's query protocol.
//!
//! Fleet frames ride the same header and the same codec path as
//! everything else ([`mpros_network::encode_body`] /
//! [`mpros_network::decode_body`]). Their tags come from the
//! `FLEET_REQUEST` and `FLEET_RESPONSE` rows of
//! [`mpros_network::TAG_FAMILIES`]; each decoder rejects every other
//! family's tags, so a misrouted frame fails loudly instead of
//! half-parsing. Single-ship requests reach a ship only wrapped in
//! [`FleetRequest::ForShip`].

use crate::snapshot::FleetRollup;
use bytes::Bytes;
use mpros_core::Result;
use mpros_gateway::{GatewayRequest, GatewayResponse, StatusDelta};
use mpros_network::codec::{FLEET_REQUEST, FLEET_RESPONSE};
use mpros_network::{decode_body, encode_body, TagFamily, WireMessage};
use mpros_pdme::IcasSnapshot;
use serde::{Deserialize, Serialize};

/// A client request against the published fleet snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FleetRequest {
    /// Every shard's id, availability and pinned snapshot version.
    ListShips,
    /// The fleet-wide knowledge rollup.
    GetFleetRollup,
    /// One ship's pinned ICAS interchange document.
    GetShipIcas {
        /// Target ship id.
        ship: u64,
    },
    /// Register (idempotently) as a fleet-scoped subscriber and drain
    /// the session's queued per-ship status deltas.
    Subscribe {
        /// Caller-chosen session id.
        session: u64,
    },
    /// Route a single-ship gateway request to one shard, served from
    /// that ship's snapshot as pinned in the current fleet snapshot.
    ForShip {
        /// Target ship id.
        ship: u64,
        /// The inner single-ship request.
        request: GatewayRequest,
    },
}

impl WireMessage for FleetRequest {
    const FAMILY: TagFamily = FLEET_REQUEST;
    const KIND_COUNT: usize = Self::KINDS.len();

    fn kind_index(&self) -> usize {
        match self {
            FleetRequest::ListShips => 0,
            FleetRequest::GetFleetRollup => 1,
            FleetRequest::GetShipIcas { .. } => 2,
            FleetRequest::Subscribe { .. } => 3,
            FleetRequest::ForShip { .. } => 4,
        }
    }
}

const _: () = assert!(FLEET_REQUEST.fits(FleetRequest::KIND_COUNT));

impl FleetRequest {
    /// Every request kind name, indexed by `kind_index()`; the fleet
    /// gateway pre-registers one `service_time` histogram per entry.
    pub const KINDS: [&'static str; 5] = [
        "list_ships",
        "get_fleet_rollup",
        "get_ship_icas",
        "subscribe",
        "for_ship",
    ];

    /// Stable snake_case name of the request kind.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

/// One row of a [`FleetResponse::Ships`] listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShipInfo {
    /// The shard's ship id.
    pub ship_id: u64,
    /// False while the shard is crashed/crash-restoring.
    pub available: bool,
    /// The ship's pinned serving-snapshot version.
    pub snapshot_version: u64,
    /// Simulated seconds of the pinned snapshot.
    pub at_secs: f64,
    /// Machines in the ship's ICAS document.
    pub machines: usize,
    /// The ship's own SLO verdict, if its watchdog has run.
    pub slo_pass: Option<bool>,
}

/// A queued fleet-scoped subscription event: one ship's machine changed
/// supervision status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShipDelta {
    /// The ship whose machine changed.
    pub ship_id: u64,
    /// Fleet version whose publication observed the edge.
    pub fleet_version: u64,
    /// The underlying single-ship delta.
    pub delta: StatusDelta,
}

/// A fleet router response. Every variant carries the fleet snapshot
/// version it was served from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FleetResponse {
    /// Answer to [`FleetRequest::ListShips`].
    Ships {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// One row per shard, ascending ship id.
        ships: Vec<ShipInfo>,
    },
    /// Answer to [`FleetRequest::GetFleetRollup`].
    FleetRollup {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// Simulated seconds of the fleet snapshot.
        at_secs: f64,
        /// The rollup.
        rollup: FleetRollup,
    },
    /// Answer to [`FleetRequest::GetShipIcas`].
    ShipIcas {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// The ship echoed back.
        ship: u64,
        /// The ship's pinned serving-snapshot version.
        snapshot_version: u64,
        /// The ship's ICAS interchange document.
        icas: IcasSnapshot,
    },
    /// Answer to [`FleetRequest::Subscribe`]: the session's queued
    /// per-ship deltas, oldest first.
    FleetDeltas {
        /// Fleet snapshot version at poll time.
        fleet_version: u64,
        /// The polling session.
        session: u64,
        /// Deltas evicted (oldest-drop) since the last poll.
        dropped: u64,
        /// The surviving deltas, oldest first.
        deltas: Vec<ShipDelta>,
    },
    /// The addressed shard is crashed/crash-restoring (or the ship id
    /// is unknown); the rest of the fleet keeps serving.
    ShipUnavailable {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// The ship echoed back.
        ship: u64,
        /// `shard_unavailable` or `unknown_ship`.
        detail: String,
    },
    /// Answer to [`FleetRequest::ForShip`]: the inner single-ship
    /// response, served from the ship's pinned snapshot.
    ShipReply {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// The ship echoed back.
        ship: u64,
        /// The inner single-ship response.
        response: GatewayResponse,
    },
}

impl WireMessage for FleetResponse {
    const FAMILY: TagFamily = FLEET_RESPONSE;
    const KIND_COUNT: usize = 6;

    fn kind_index(&self) -> usize {
        match self {
            FleetResponse::Ships { .. } => 0,
            FleetResponse::FleetRollup { .. } => 1,
            FleetResponse::ShipIcas { .. } => 2,
            FleetResponse::FleetDeltas { .. } => 3,
            FleetResponse::ShipUnavailable { .. } => 4,
            FleetResponse::ShipReply { .. } => 5,
        }
    }
}

const _: () = assert!(FLEET_RESPONSE.fits(FleetResponse::KIND_COUNT));

impl FleetResponse {
    /// The fleet snapshot version stamped on the response.
    pub fn fleet_version(&self) -> u64 {
        match self {
            FleetResponse::Ships { fleet_version, .. }
            | FleetResponse::FleetRollup { fleet_version, .. }
            | FleetResponse::ShipIcas { fleet_version, .. }
            | FleetResponse::FleetDeltas { fleet_version, .. }
            | FleetResponse::ShipUnavailable { fleet_version, .. }
            | FleetResponse::ShipReply { fleet_version, .. } => *fleet_version,
        }
    }
}

/// Encode a fleet request into one wire frame.
pub fn encode_fleet_request(req: &FleetRequest) -> Result<Bytes> {
    encode_body(req)
}

/// Decode one fleet request frame.
pub fn decode_fleet_request(frame: Bytes) -> Result<FleetRequest> {
    decode_body(frame)
}

/// Encode a fleet response into one wire frame.
pub fn encode_fleet_response(resp: &FleetResponse) -> Result<Bytes> {
    encode_body(resp)
}

/// Decode one fleet response frame.
pub fn decode_fleet_response(frame: Bytes) -> Result<FleetResponse> {
    decode_body(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::FleetSnapshot;

    #[test]
    fn fleet_requests_roundtrip() {
        let reqs = [
            FleetRequest::ListShips,
            FleetRequest::GetFleetRollup,
            FleetRequest::GetShipIcas { ship: 3 },
            FleetRequest::Subscribe { session: 42 },
            FleetRequest::ForShip {
                ship: 1,
                request: GatewayRequest::GetIcas,
            },
        ];
        for req in reqs {
            let back = decode_fleet_request(encode_fleet_request(&req).unwrap()).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn fleet_responses_roundtrip() {
        let resps = [
            FleetResponse::Ships {
                fleet_version: 7,
                ships: vec![ShipInfo {
                    ship_id: 0,
                    available: true,
                    snapshot_version: 12,
                    at_secs: 3.0,
                    machines: 2,
                    slo_pass: Some(true),
                }],
            },
            FleetResponse::FleetRollup {
                fleet_version: 7,
                at_secs: 3.0,
                rollup: FleetSnapshot::empty().rollup,
            },
            FleetResponse::ShipUnavailable {
                fleet_version: 7,
                ship: 2,
                detail: "shard_unavailable".into(),
            },
            FleetResponse::ShipReply {
                fleet_version: 7,
                ship: 1,
                response: GatewayResponse::SloVerdict {
                    snapshot_version: 12,
                    verdict: None,
                },
            },
        ];
        for resp in resps {
            let back = decode_fleet_response(encode_fleet_response(&resp).unwrap()).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn fleet_request_and_response_tags_are_disjoint() {
        let req = encode_fleet_request(&FleetRequest::ListShips).unwrap();
        assert!(decode_fleet_response(req).is_err());
        let resp = encode_fleet_response(&FleetResponse::ShipUnavailable {
            fleet_version: 1,
            ship: 0,
            detail: "unknown_ship".into(),
        })
        .unwrap();
        assert!(decode_fleet_request(resp).is_err());
    }
}
