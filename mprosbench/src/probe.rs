//! Sampled extra calls: layer entry points a step does not make, timed
//! on sampled steps outside the step's timing window.
//!
//! The single-ship serving calls run against a probe gateway in a
//! telemetry domain of its own, so sampling never touches the measured
//! ships' counters. Fleet routing is timed on the traced fleet's router,
//! which counts only in the fleet's own domain.

use crate::spans::SpanLog;
use mpros_core::{Result, SimDuration, SimTime};
use mpros_fleet::{FleetGateway, FleetRequest};
use mpros_gateway::{encode_request, Gateway, GatewayConfig, GatewayRequest, ServingSnapshot};
use mpros_pdme::PdmeExecutive;
use mpros_telemetry::Telemetry;
use std::hint::black_box;

/// The single-ship requests timed both in-process and through a frame.
fn ship_requests() -> [GatewayRequest; 4] {
    [
        GatewayRequest::GetMachineStatus { machine: 1 },
        GatewayRequest::GetIcas,
        GatewayRequest::GetMetrics,
        GatewayRequest::GetCounters,
    ]
}

pub struct Probes {
    gateway: Gateway,
}

impl Probes {
    pub fn new() -> Self {
        Probes {
            gateway: Gateway::new(GatewayConfig::new(), &Telemetry::new()),
        }
    }

    /// `icas::export_snapshot` and `Telemetry::snapshot`.
    pub fn sample_pdme(
        log: &mut SpanLog,
        pdme: &PdmeExecutive,
        now: SimTime,
        dc_timeout: SimDuration,
        telemetry: &Telemetry,
    ) {
        let s = log.open("pdme.icas_export");
        let icas = mpros_pdme::export_snapshot(pdme, now, dc_timeout);
        log.close_with(s, icas.machines.len() as u64);
        black_box(icas);
        let s = log.open("telemetry.snapshot");
        black_box(telemetry.snapshot());
        log.close(s);
    }

    /// `Gateway::serve` against `Gateway::handle_frame` for the same
    /// requests on `snapshot`; the gap is the codec's cost.
    pub fn sample_gateway(&self, log: &mut SpanLog, snapshot: &ServingSnapshot) -> Result<()> {
        self.gateway.publish(snapshot.clone());
        for request in ship_requests() {
            let s = log.open("gateway.serve");
            black_box(self.gateway.serve(&request));
            log.close(s);
            let frame = encode_request(&request)?;
            let s = log.open("gateway.frame");
            let out = self.gateway.handle_frame(frame);
            log.close_with(s, out.as_ref().map_or(0, |b| b.len() as u64));
            out?;
        }
        Ok(())
    }

    /// `FleetGateway::serve` — routing without the codec — for every
    /// read-only fleet request kind on each of `ships` ships.
    pub fn sample_route(log: &mut SpanLog, router: &FleetGateway, ships: u64) {
        for ship in 0..ships {
            let requests = [
                FleetRequest::GetFleetRollup,
                FleetRequest::ListShips,
                FleetRequest::GetShipIcas { ship },
                FleetRequest::ForShip {
                    ship,
                    request: GatewayRequest::GetMachineStatus { machine: 1 },
                },
                FleetRequest::ForShip {
                    ship,
                    request: GatewayRequest::GetMetrics,
                },
            ];
            for request in &requests {
                let s = log.open("fleet.serve");
                black_box(router.serve(request));
                log.close(s);
            }
        }
    }
}
