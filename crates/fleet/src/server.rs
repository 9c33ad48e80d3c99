//! The fleet router: one gateway in front of N ship shards.
//!
//! Concurrency model mirrors the single-ship gateway: the fleet's
//! control thread is the only writer — [`FleetGateway::publish`] swaps
//! an `Arc<FleetSnapshot>` under a write lock held only for the pointer
//! exchange; any number of client threads call
//! [`FleetGateway::handle_frame`] concurrently and serve from the
//! immutable snapshot.
//!
//! Every frame must decode as a [`FleetRequest`]; anything else is a
//! counted bad frame. [`FleetRequest::ForShip`] answers its inner
//! single-ship request against the addressed ship's snapshot as pinned
//! in the current [`FleetSnapshot`], so a fleet response is a pure
//! function of `(fleet version, request)`. A crashed/crash-restoring
//! shard answers `shard_unavailable` (and is flagged in the rollup)
//! while every other shard keeps serving.

use crate::proto::{FleetRequest, FleetResponse, ShipDelta, ShipInfo};
use crate::snapshot::FleetSnapshot;
use bytes::Bytes;
use mpros_core::Result;
use mpros_gateway::{FrameHandler, Gateway, SessionQueues, FLEET_SESSION_QUEUE_CAPACITY};
use mpros_telemetry::{Counter, Telemetry};
use parking_lot::RwLock;
use std::sync::Arc;

/// The fleet query router. Shared as `Arc<FleetGateway>`.
#[derive(Debug)]
pub struct FleetGateway {
    /// The published fleet snapshot. Writers swap the `Arc`; readers
    /// clone it.
    current: RwLock<Arc<FleetSnapshot>>,
    /// Every ship's own gateway, indexed by ship id. `ForShip` requests
    /// serve against pinned snapshots through the addressed ship's
    /// gateway.
    ships: Vec<Arc<Gateway>>,
    /// Fleet-scoped subscriber sessions.
    sessions: SessionQueues<ShipDelta>,
    /// Instruments in the fleet's own telemetry domain — distinct from
    /// every ship's domain, so router load never perturbs a ship's
    /// deterministic serving surface. Registered once, so the serve
    /// path never takes the registry lock.
    serving: FrameHandler,
    publishes: Arc<Counter>,
    routed_ship_requests: Arc<Counter>,
    unavailable_hits: Arc<Counter>,
}

impl FleetGateway {
    /// A router over `ships` (ship `i`'s gateway at index `i`),
    /// counting into `telemetry`'s `fleet` component.
    pub(crate) fn new(telemetry: &Telemetry, ships: Vec<Arc<Gateway>>) -> Self {
        let counter = |name| telemetry.counter("fleet", name);
        FleetGateway {
            current: RwLock::new(Arc::new(FleetSnapshot::empty())),
            ships,
            sessions: SessionQueues::new(FLEET_SESSION_QUEUE_CAPACITY, telemetry, "fleet"),
            serving: FrameHandler::new(telemetry, "fleet", &FleetRequest::KINDS),
            publishes: counter("publishes"),
            routed_ship_requests: counter("routed_ship_requests"),
            unavailable_hits: counter("unavailable_hits"),
        }
    }

    /// The currently published fleet snapshot (an `Arc` clone).
    pub fn snapshot(&self) -> Arc<FleetSnapshot> {
        self.current.read().clone()
    }

    /// The published fleet snapshot's version (0 until the first
    /// publish).
    pub fn version(&self) -> u64 {
        self.current.read().version
    }

    /// Registered fleet-scoped subscriber sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.session_count()
    }

    /// Publish a freshly built fleet snapshot: diff every ship's pinned
    /// snapshot against the previous fleet snapshot's (ascending ship
    /// order), fan the per-ship status deltas out to every fleet
    /// session (bounded queues, oldest-drop), then swap the snapshot in.
    pub fn publish(&self, snapshot: FleetSnapshot) {
        let prev = self.snapshot();
        let mut deltas: Vec<ShipDelta> = Vec::new();
        for ship in &snapshot.ships {
            if !ship.available {
                continue;
            }
            let Some(prev_ship) = prev.ship(ship.ship_id) else {
                continue;
            };
            for delta in ship.snapshot.deltas_since(&prev_ship.snapshot) {
                deltas.push(ShipDelta {
                    ship_id: ship.ship_id,
                    fleet_version: snapshot.version,
                    delta,
                });
            }
        }
        self.sessions.publish(&deltas);
        *self.current.write() = Arc::new(snapshot);
        self.publishes.inc();
    }

    /// Serve one fleet request against the current snapshot. Pure with
    /// respect to the snapshot (modulo `Subscribe`'s session drain).
    pub fn serve(&self, req: &FleetRequest) -> FleetResponse {
        let snap = self.snapshot();
        self.serve_on(&snap, req)
    }

    fn serve_on(&self, snap: &FleetSnapshot, req: &FleetRequest) -> FleetResponse {
        let fleet_version = snap.version;
        match req {
            FleetRequest::ListShips => FleetResponse::Ships {
                fleet_version,
                ships: snap
                    .ships
                    .iter()
                    .map(|s| ShipInfo {
                        ship_id: s.ship_id,
                        available: s.available,
                        snapshot_version: s.snapshot.version,
                        at_secs: s.snapshot.at_secs,
                        machines: s.snapshot.icas.machines.len(),
                        slo_pass: s.snapshot.slo.as_ref().map(|v| v.pass),
                    })
                    .collect(),
            },
            FleetRequest::GetFleetRollup => FleetResponse::FleetRollup {
                fleet_version,
                at_secs: snap.at_secs,
                rollup: snap.rollup.clone(),
            },
            FleetRequest::GetShipIcas { ship } => match self.pinned(snap, *ship, fleet_version) {
                Ok(entry) => FleetResponse::ShipIcas {
                    fleet_version,
                    ship: *ship,
                    snapshot_version: entry.snapshot.version,
                    icas: entry.snapshot.icas.clone(),
                },
                Err(unavailable) => *unavailable,
            },
            FleetRequest::Subscribe { session } => {
                let (dropped, deltas) = self.sessions.drain(*session);
                FleetResponse::FleetDeltas {
                    fleet_version,
                    session: *session,
                    dropped,
                    deltas,
                }
            }
            FleetRequest::ForShip { ship, request } => {
                self.routed_ship_requests.inc();
                match self.pinned(snap, *ship, fleet_version) {
                    // `pinned` vetted the id: every snapshot entry is a
                    // shard, and shards are numbered 0..n.
                    Ok(entry) => FleetResponse::ShipReply {
                        fleet_version,
                        ship: *ship,
                        response: self.ships[*ship as usize].serve_on(&entry.snapshot, request),
                    },
                    Err(unavailable) => *unavailable,
                }
            }
        }
    }

    /// The pinned entry for `ship`, or the `ShipUnavailable` response
    /// that should be served instead (boxed: the error path is the
    /// exceptional one, the happy path stays a thin reference).
    fn pinned<'a>(
        &self,
        snap: &'a FleetSnapshot,
        ship: u64,
        fleet_version: u64,
    ) -> std::result::Result<&'a crate::snapshot::ShipEntry, Box<FleetResponse>> {
        match snap.ship(ship) {
            Some(entry) if entry.available => Ok(entry),
            Some(_) => {
                self.unavailable_hits.inc();
                Err(Box::new(FleetResponse::ShipUnavailable {
                    fleet_version,
                    ship,
                    detail: "shard_unavailable".into(),
                }))
            }
            None => Err(Box::new(FleetResponse::ShipUnavailable {
                fleet_version,
                ship,
                detail: "unknown_ship".into(),
            })),
        }
    }

    /// Serve one framed fleet request: decode, route, answer, encode.
    /// Thread-safe; the entry point client transports call
    /// concurrently. Frames that do not decode as a [`FleetRequest`]
    /// count as `fleet.bad_frames`.
    pub fn handle_frame(&self, frame: Bytes) -> Result<Bytes> {
        let snap = self.snapshot();
        let (out, _) = self
            .serving
            .handle(frame, |req: &FleetRequest| self.serve_on(&snap, req))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ShipEntry;
    use mpros_gateway::{GatewayConfig, ServingSnapshot};

    fn router_with_one_empty_shard(fleet_tel: &Telemetry) -> FleetGateway {
        let ship_tel = Telemetry::new();
        let gateway = Arc::new(Gateway::new(GatewayConfig::new(), &ship_tel));
        let router = FleetGateway::new(fleet_tel, vec![gateway]);
        router.publish(
            FleetSnapshot::build(
                1,
                vec![ShipEntry {
                    ship_id: 0,
                    available: true,
                    snapshot: Arc::new(ServingSnapshot::empty()),
                }],
            )
            .unwrap(),
        );
        router
    }

    #[test]
    fn unknown_ship_is_distinguished_from_crashed_ship() {
        let router = router_with_one_empty_shard(&Telemetry::new());
        match router.serve(&FleetRequest::GetShipIcas { ship: 9 }) {
            FleetResponse::ShipUnavailable { detail, .. } => assert_eq!(detail, "unknown_ship"),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn single_ship_request_frames_are_bad_frames() {
        let fleet_tel = Telemetry::new();
        let router = router_with_one_empty_shard(&fleet_tel);
        let frame = mpros_gateway::encode_request(&mpros_gateway::GatewayRequest::GetIcas).unwrap();
        assert!(router.handle_frame(frame).is_err());
        let counters = fleet_tel.snapshot();
        assert_eq!(counters.counter("fleet", "bad_frames"), 1);
        assert_eq!(counters.counter("fleet", "routed_ship_requests"), 0);
    }

    #[test]
    fn garbage_frames_count_as_bad() {
        let router = router_with_one_empty_shard(&Telemetry::new());
        assert!(router
            .handle_frame(Bytes::copy_from_slice(b"nonsense"))
            .is_err());
    }
}
