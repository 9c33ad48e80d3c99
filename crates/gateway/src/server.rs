//! The gateway router: concurrent query serving over published
//! snapshots, with per-client sessions and bounded delta queues.
//!
//! Concurrency model: the simulation's control thread is the only
//! writer — it calls [`Gateway::publish`] once per step, which swaps an
//! `Arc<ServingSnapshot>` under a write lock held only for the pointer
//! exchange. Any number of client threads call
//! [`Gateway::handle_frame`] concurrently; each takes the read lock
//! just long enough to clone the `Arc`, then serves entirely from the
//! immutable snapshot. Neither side ever waits on the other for longer
//! than a pointer swap, so serving load cannot stall the sim thread.
//!
//! Backpressure: subscription deltas are queued per session in the
//! bounded oldest-drop [`SessionQueues`].

use crate::proto::{GatewayRequest, GatewayResponse, StatusDelta};
use crate::session::SessionQueues;
use crate::snapshot::ServingSnapshot;
use bytes::Bytes;
use mpros_core::Result;
use mpros_network::{decode_body, encode_body, WireMessage};
use mpros_telemetry::{
    Counter, FlightRecorder, Histogram, HopRecord, Stage, Telemetry, TraceId, WallTimer,
};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

/// Gateway tuning knobs, builder-style like the other MPROS configs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct GatewayConfig {
    /// Queued deltas a session may hold before oldest-drop eviction.
    pub session_queue_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            session_queue_capacity: 64,
        }
    }
}

impl GatewayConfig {
    /// The default configuration (64 queued deltas per session).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-session delta queue capacity (clamped to at least 1).
    pub fn with_session_queue_capacity(mut self, capacity: usize) -> Self {
        self.session_queue_capacity = capacity.max(1);
        self
    }
}

/// The frame-serving path both serving planes share: decode, answer,
/// encode, count. Its instruments are registered once, so the serve
/// path never touches the registry lock.
#[derive(Debug)]
pub struct FrameHandler {
    /// `<component>.requests`: frames answered.
    requests: Arc<Counter>,
    /// `<component>.bad_frames`: frames that did not decode.
    bad_frames: Arc<Counter>,
    /// Wall-clock service time, one histogram per request kind.
    service_time: Vec<Arc<Histogram>>,
}

impl FrameHandler {
    /// Instruments in `component`, one service-time histogram per entry
    /// of `kinds` (a request family's kind names, in index order).
    pub fn new(telemetry: &Telemetry, component: &str, kinds: &[&str]) -> Self {
        FrameHandler {
            requests: telemetry.counter(component, "requests"),
            bad_frames: telemetry.counter(component, "bad_frames"),
            service_time: kinds
                .iter()
                .map(|kind| telemetry.histogram(component, &format!("service_time.{kind}.wall_s")))
                .collect(),
        }
    }

    /// Decode one request frame, answer it with `serve`, and encode the
    /// answer; returns the response frame and the wall time spent.
    pub fn handle<Q: WireMessage, R: WireMessage>(
        &self,
        frame: Bytes,
        serve: impl FnOnce(&Q) -> R,
    ) -> Result<(Bytes, Duration)> {
        let timer = WallTimer::start();
        let req: Q = decode_body(frame).inspect_err(|_| self.bad_frames.inc())?;
        let out = encode_body(&serve(&req))?;
        self.requests.inc();
        let wall = timer.elapsed();
        self.service_time[req.kind_index()].record(wall.as_secs_f64());
        Ok((out, wall))
    }
}

/// The query server. Shared as `Arc<Gateway>`: the publisher and every
/// client thread hold clones of the same handle.
#[derive(Debug)]
pub struct Gateway {
    /// The published snapshot. Writers swap the `Arc`; readers clone it.
    current: RwLock<Arc<ServingSnapshot>>,
    /// Subscriber sessions, keyed by caller-chosen id.
    sessions: SessionQueues<StatusDelta>,
    telemetry: Telemetry,
    serving: FrameHandler,
    publishes: Arc<Counter>,
    /// Exposition bytes shipped through `GetMetrics` responses.
    exposition_bytes: Arc<Counter>,
    /// The scenario's flight recorder, when one is attached; backs the
    /// `StreamJournal` / `ListIncidents` / `GetIncident` requests.
    recorder: Option<Arc<FlightRecorder>>,
}

impl Gateway {
    /// A gateway joined to `telemetry`, serving the empty version-0
    /// snapshot until the first [`Gateway::publish`].
    pub fn new(config: GatewayConfig, telemetry: &Telemetry) -> Self {
        Gateway {
            current: RwLock::new(Arc::new(ServingSnapshot::empty())),
            sessions: SessionQueues::new(config.session_queue_capacity, telemetry, "gateway"),
            telemetry: telemetry.clone(),
            serving: FrameHandler::new(telemetry, "gateway", &GatewayRequest::KINDS),
            publishes: telemetry.counter("gateway", "publishes"),
            exposition_bytes: telemetry.counter("gateway", "exposition_bytes"),
            recorder: None,
        }
    }

    /// Attach the scenario's flight recorder. Called at wiring time,
    /// before the gateway is shared; without one, the recorder-backed
    /// requests answer `NotFound`.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The currently published snapshot (an `Arc` clone; never blocks
    /// longer than the publisher's pointer swap).
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.current.read().clone()
    }

    /// The published snapshot's version (0 until the first publish).
    pub fn version(&self) -> u64 {
        self.current.read().version
    }

    /// Registered subscriber sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.session_count()
    }

    /// Publish a freshly built snapshot: fan its edge-triggered
    /// degraded/recovered deltas out to every registered session
    /// (bounded queues, oldest-drop), then swap it in as current.
    /// Called by the simulation's control thread after each step.
    pub fn publish(&self, snapshot: ServingSnapshot) {
        let prev = self.snapshot();
        let deltas = snapshot.deltas_since(&prev);
        self.sessions.publish(&deltas);
        *self.current.write() = Arc::new(snapshot);
        self.publishes.inc();
    }

    /// Serve one request against the current snapshot. Pure with
    /// respect to the snapshot: every `Get*` answer is a function of
    /// `(snapshot version, request)` alone; `Subscribe` additionally
    /// drains the session's queue (registration is idempotent).
    pub fn serve(&self, req: &GatewayRequest) -> GatewayResponse {
        let snap = self.snapshot();
        self.serve_on(&snap, req)
    }

    /// Serve one request against an explicit snapshot rather than the
    /// currently published one. The fleet router pins each ship's
    /// snapshot into its own `FleetSnapshot` and answers ship-scoped
    /// requests from the pinned state, so a fleet response is a pure
    /// function of `(fleet version, request)` even while the ship
    /// gateway publishes ahead of the fleet.
    pub fn serve_on(&self, snap: &ServingSnapshot, req: &GatewayRequest) -> GatewayResponse {
        let snapshot_version = snap.version;
        match req {
            GatewayRequest::GetMachineStatus { machine } => match snap.machine(*machine) {
                Some(m) => GatewayResponse::MachineStatus {
                    snapshot_version,
                    machine: m.clone(),
                },
                None => GatewayResponse::NotFound {
                    snapshot_version,
                    detail: format!("machine {machine}"),
                },
            },
            GatewayRequest::GetIcas => GatewayResponse::Icas {
                snapshot_version,
                icas: snap.icas.clone(),
            },
            GatewayRequest::GetPrognosticVector {
                machine,
                condition_id,
            } => match snap.prognostic(*machine, *condition_id) {
                Some(vector) => GatewayResponse::PrognosticVector {
                    snapshot_version,
                    machine: *machine,
                    condition_id: *condition_id,
                    vector: vector.clone(),
                },
                None => GatewayResponse::NotFound {
                    snapshot_version,
                    detail: format!("prognostic for machine {machine} condition {condition_id}"),
                },
            },
            GatewayRequest::GetSloVerdict => GatewayResponse::SloVerdict {
                snapshot_version,
                verdict: snap.slo.clone(),
            },
            GatewayRequest::GetCounters => GatewayResponse::Counters {
                snapshot_version,
                counters: snap.counters.clone(),
            },
            GatewayRequest::Subscribe { session } => {
                let (dropped, deltas) = self.sessions.drain(*session);
                GatewayResponse::Deltas {
                    snapshot_version,
                    session: *session,
                    dropped,
                    deltas,
                }
            }
            GatewayRequest::GetMetrics => {
                self.exposition_bytes.add(snap.exposition.len() as u64);
                GatewayResponse::Metrics {
                    snapshot_version,
                    at_secs: snap.at_secs,
                    counters: snap.counters.clone(),
                    gauges: snap.gauges.clone(),
                    histograms: snap.sim_histograms.clone(),
                    exposition: snap.exposition.clone(),
                }
            }
            GatewayRequest::StreamJournal { cursor, max } => match &self.recorder {
                Some(recorder) => {
                    let batch = recorder.journal_tail(*cursor, *max as usize);
                    GatewayResponse::Journal {
                        snapshot_version,
                        next_cursor: batch.next_cursor,
                        dropped: batch.dropped,
                        events: batch.events,
                    }
                }
                None => self.no_recorder(snapshot_version),
            },
            GatewayRequest::ListIncidents => match &self.recorder {
                Some(recorder) => GatewayResponse::Incidents {
                    snapshot_version,
                    incidents: recorder.incidents(),
                },
                None => self.no_recorder(snapshot_version),
            },
            GatewayRequest::GetIncident { id } => match &self.recorder {
                Some(recorder) => match recorder.incident(*id) {
                    Some(incident) => GatewayResponse::Incident {
                        snapshot_version,
                        incident,
                    },
                    None => GatewayResponse::NotFound {
                        snapshot_version,
                        detail: format!("incident {id:016x}"),
                    },
                },
                None => self.no_recorder(snapshot_version),
            },
            GatewayRequest::GetTrace { trace } => {
                let hops = self.telemetry.trace_log().trace(TraceId(*trace));
                if hops.is_empty() {
                    GatewayResponse::NotFound {
                        snapshot_version,
                        detail: format!("trace {trace:016x}"),
                    }
                } else {
                    GatewayResponse::Trace {
                        snapshot_version,
                        trace: *trace,
                        hops: hops.iter().map(HopRecord::from).collect(),
                    }
                }
            }
        }
    }

    fn no_recorder(&self, snapshot_version: u64) -> GatewayResponse {
        GatewayResponse::NotFound {
            snapshot_version,
            detail: "no flight recorder attached".into(),
        }
    }

    /// Serve one framed request: decode, answer, encode. Thread-safe;
    /// this is the entry point client transports call concurrently.
    ///
    /// Telemetry: counts `gateway.requests` (and `gateway.bad_frames`
    /// for undecodable input), and records the service span in both
    /// clocks — wall seconds for the host cost of the call, simulated
    /// seconds for the *staleness* of the data served (simulated now
    /// minus the snapshot's timestamp).
    pub fn handle_frame(&self, frame: Bytes) -> Result<Bytes> {
        let snap = self.snapshot();
        let (out, wall) = self
            .serving
            .handle(frame, |req: &GatewayRequest| self.serve_on(&snap, req))?;
        let staleness = self
            .telemetry
            .sim_now()
            .since(mpros_core::SimTime::from_secs(snap.at_secs));
        self.telemetry
            .record_span(Stage::GatewayServe, wall, staleness);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DeltaKind;
    use mpros_pdme::icas::{IcasMachine, IcasSnapshot, ICAS_SCHEMA_VERSION};

    fn snap_with(version: u64, statuses: &[(u64, &str)]) -> ServingSnapshot {
        let mut snap = ServingSnapshot::empty();
        snap.version = version;
        snap.at_secs = version as f64;
        snap.icas = IcasSnapshot {
            schema_version: ICAS_SCHEMA_VERSION,
            at_secs: version as f64,
            machines: statuses
                .iter()
                .map(|&(id, status)| IcasMachine {
                    machine_id: id,
                    name: format!("machine {id}"),
                    health: 1.0,
                    status: status.to_string(),
                    report_count: 0,
                    conditions: Vec::new(),
                })
                .collect(),
            data_concentrators: Vec::new(),
        };
        snap
    }

    #[test]
    fn publish_swaps_the_served_version() {
        let gw = Gateway::new(GatewayConfig::new(), &Telemetry::new());
        assert_eq!(gw.version(), 0);
        gw.publish(snap_with(3, &[(1, "ok")]));
        assert_eq!(gw.version(), 3);
        match gw.serve(&GatewayRequest::GetIcas) {
            GatewayResponse::Icas {
                snapshot_version, ..
            } => assert_eq!(snapshot_version, 3),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn subscribe_sees_edge_triggered_deltas_only() {
        let gw = Gateway::new(GatewayConfig::new(), &Telemetry::new());
        gw.publish(snap_with(1, &[(1, "ok"), (2, "ok")]));
        // Register before the edge.
        let _ = gw.serve(&GatewayRequest::Subscribe { session: 9 });
        // Machine 2 degrades at version 2, stays degraded at 3 (no new
        // delta), recovers at 4.
        gw.publish(snap_with(2, &[(1, "ok"), (2, "degraded")]));
        gw.publish(snap_with(3, &[(1, "ok"), (2, "degraded")]));
        gw.publish(snap_with(4, &[(1, "ok"), (2, "ok")]));
        match gw.serve(&GatewayRequest::Subscribe { session: 9 }) {
            GatewayResponse::Deltas {
                dropped, deltas, ..
            } => {
                assert_eq!(dropped, 0);
                let kinds: Vec<(u64, u64, DeltaKind)> = deltas
                    .iter()
                    .map(|d| (d.snapshot_version, d.machine_id, d.kind))
                    .collect();
                assert_eq!(
                    kinds,
                    vec![(2, 2, DeltaKind::Degraded), (4, 2, DeltaKind::Recovered)]
                );
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn slow_sessions_drop_oldest_deltas() {
        let t = Telemetry::new();
        let gw = Gateway::new(GatewayConfig::new().with_session_queue_capacity(2), &t);
        gw.publish(snap_with(1, &[(1, "ok")]));
        let _ = gw.serve(&GatewayRequest::Subscribe { session: 1 });
        // Four edges against a capacity-2 queue: the two oldest evict.
        for v in 2..=5 {
            let status = if v % 2 == 0 { "degraded" } else { "ok" };
            gw.publish(snap_with(v, &[(1, status)]));
        }
        match gw.serve(&GatewayRequest::Subscribe { session: 1 }) {
            GatewayResponse::Deltas {
                dropped, deltas, ..
            } => {
                assert_eq!(dropped, 2);
                let versions: Vec<u64> = deltas.iter().map(|d| d.snapshot_version).collect();
                assert_eq!(versions, vec![4, 5], "newest survive, oldest dropped");
            }
            other => panic!("wrong response {other:?}"),
        }
        assert_eq!(t.counter("gateway", "drops").get(), 2);
    }
}
