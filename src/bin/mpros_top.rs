//! `mpros-top` — a live console dashboard over the fleet wire.
//!
//! Runs a faulted multi-ship fleet scenario on its own thread and
//! watches it the way a remote fleet console would: every refresh
//! issues `ListShips` + `GetFleetRollup` for the fleet-overview pane,
//! then routes `GetMetrics`, `StreamJournal` and `ListIncidents` to the
//! focused ship through `ForShip` (rendered with the same `dashboard`
//! code the in-process monitoring example uses). Nothing here reads
//! engine state directly — every byte crosses the framed fleet
//! protocol, so this binary doubles as an end-to-end smoke test of the
//! fleet observability plane.
//!
//! Usage:
//!   mpros-top [--ships N] [--ship ID] [--dcs N] [--minutes M]
//!             [--refresh-ms MS] [--frames N]
//!
//! `--ship ID` picks which ship's dashboard fills the lower pane (the
//! fleet overview always shows every shard). `--frames N` exits after
//! N renders (for CI / scripted runs); the default 0 keeps rendering
//! until the scenario finishes.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::network::{WireMessage, WIRE_VERSION};
use mpros::prelude::*;
use mpros::telemetry::dashboard;
use mpros::telemetry::{TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<T>().ok())
        .unwrap_or(default)
}

/// The faulted scenario under observation: every ship carries a bearing
/// defect progressing on two plants (independent dynamics per ship —
/// each shard sails its own derived seed), and ship 0 additionally
/// takes a mid-run DC crash window, so the shards visibly diverge, the
/// rollup has degradation to report, and ship 0's flight recorder seals
/// at least one incident for the console to list.
fn build_fleet(ships: usize, dcs: usize, minutes: f64) -> Fleet {
    let crash_from = SimTime::from_secs(minutes * 60.0 * 0.3);
    let crash_until = SimTime::from_secs(minutes * 60.0 * 0.5);
    let mut fleet = Fleet::new(
        FleetConfig::new()
            .with_ship_count(ships)
            .with_seed(11)
            .with_ship(
                ShipboardSimConfig::new()
                    .with_dc_count(dcs)
                    .with_survey_period(SimDuration::from_secs(30.0)),
            )
            .with_ship_fault_plan(
                0,
                FaultPlan::none().with_dc_crash(DcId::new(2), crash_from, crash_until),
            ),
    )
    .expect("fleet builds");
    for ship in 0..ships {
        for idx in [0usize, dcs / 2] {
            fleet.ship_mut(ship).seed_fault(
                idx,
                FaultSeed {
                    condition: MachineCondition::MotorBearingDefect,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_minutes(minutes * 0.8),
                    profile: FaultProfile::EarlyOnset,
                },
            );
        }
    }
    fleet
}

/// Rebuild a `TelemetrySnapshot` from the wire-served metrics and
/// journal page so the remote view can reuse the in-process dashboard
/// renderer verbatim.
fn snapshot_from_wire(metrics: &MetricsReport, journal: &JournalPage) -> TelemetrySnapshot {
    TelemetrySnapshot {
        schema_version: TELEMETRY_SCHEMA_VERSION,
        at_secs: metrics.at_secs,
        counters: metrics.counters.clone(),
        gauges: metrics.gauges.clone(),
        histograms: metrics.histograms.clone(),
        events: journal.events.clone(),
        events_dropped: journal.dropped,
    }
}

/// The fleet-overview pane: one line per shard plus the rollup verdict,
/// all taken from `ListShips`/`GetFleetRollup` responses.
fn render_fleet_pane(ships: &[ShipInfo], rollup: &RollupReport, focused: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} ships, rollup v{} t+{:.1}s",
        ships.len(),
        rollup.fleet_version,
        rollup.at_secs
    );
    for ship in ships {
        let marker = if ship.ship_id == focused { '>' } else { ' ' };
        let state = if !ship.available {
            "UNAVAILABLE".to_string()
        } else {
            match ship.slo_pass {
                Some(true) => "slo PASS".to_string(),
                Some(false) => "slo FAIL".to_string(),
                None => "slo --".to_string(),
            }
        };
        let _ = writeln!(
            out,
            " {marker}ship {:>2}  snap v{:<5} t+{:>8.1}s  {:>2} machines  {state}",
            ship.ship_id, ship.snapshot_version, ship.at_secs, ship.machines
        );
    }
    let r = &rollup.rollup;
    let degraded = r.machines.iter().filter(|m| m.status == "degraded").count();
    let verdict = if !r.slo.pass {
        format!("FAIL (ships {:?})", r.slo.failing_ships)
    } else if !r.unavailable_ships.is_empty() {
        format!("PASS* (unavailable {:?})", r.unavailable_ships)
    } else {
        "PASS".to_string()
    };
    let _ = writeln!(
        out,
        "rollup: {}/{} machine classes degraded, {} fused curves, fleet SLO {verdict}",
        degraded,
        r.machines.len(),
        r.prognostics.len()
    );
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ships = arg_value(&args, "--ships", 2usize).max(1);
    let ship = arg_value(&args, "--ship", 0u64).min(ships as u64 - 1);
    let dcs = arg_value(&args, "--dcs", 4usize).max(1);
    let minutes = arg_value(&args, "--minutes", 10.0f64).max(1.0);
    let refresh_ms = arg_value(&args, "--refresh-ms", 250u64).max(10);
    let frames = arg_value(&args, "--frames", 0u64);

    let mut fleet = build_fleet(ships, dcs, minutes);
    let gateway = fleet.gateway().clone();
    let done = Arc::new(AtomicBool::new(false));

    let fleet_done = done.clone();
    let stepper = std::thread::spawn(move || {
        let dt = SimDuration::from_secs(5.0);
        let steps = (minutes * 60.0 / dt.as_secs()).ceil() as u64;
        for _ in 0..steps {
            fleet.step(dt).expect("scenario step");
            // Pace the scenario so a human watching the dashboard sees
            // it evolve rather than finish in one refresh.
            std::thread::sleep(Duration::from_millis(20));
        }
        fleet_done.store(true, Ordering::Relaxed);
    });

    let client = FleetClient::connect(gateway, 1);
    let mut cursor = 0u64;
    let mut rendered = 0u64;
    let interactive = frames == 0;

    loop {
        let ship_rows = match client.ships() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mpros-top: ListShips failed: {e}");
                std::process::exit(1);
            }
        };
        let rollup = match client.rollup() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mpros-top: GetFleetRollup failed: {e}");
                std::process::exit(1);
            }
        };
        let metrics = match client.ship_metrics(ship) {
            Ok(GatewayResponse::Metrics {
                snapshot_version,
                at_secs,
                counters,
                gauges,
                histograms,
                exposition,
            }) => MetricsReport {
                snapshot_version,
                at_secs,
                counters,
                gauges,
                histograms,
                exposition,
            },
            Ok(other) => {
                eprintln!(
                    "mpros-top: unexpected GetMetrics reply tag {}",
                    other.type_tag()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("mpros-top: GetMetrics for ship {ship} failed: {e}");
                std::process::exit(1);
            }
        };
        let journal = match client.ship_journal(ship, cursor, 64) {
            Ok(GatewayResponse::Journal {
                snapshot_version,
                next_cursor,
                dropped,
                events,
            }) => JournalPage {
                snapshot_version,
                next_cursor,
                dropped,
                events,
            },
            Ok(other) => {
                eprintln!(
                    "mpros-top: unexpected StreamJournal reply tag {}",
                    other.type_tag()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("mpros-top: StreamJournal for ship {ship} failed: {e}");
                std::process::exit(1);
            }
        };
        cursor = journal.next_cursor;
        let incidents = match client.for_ship(ship, GatewayRequest::ListIncidents) {
            Ok(GatewayResponse::Incidents { incidents, .. }) => incidents,
            _ => Vec::new(),
        };

        let snap = snapshot_from_wire(&metrics, &journal);
        let mut out = render_fleet_pane(&ship_rows, &rollup, ship);
        let _ = writeln!(out, "\n-- ship {ship} --");
        out.push_str(&dashboard::render(&snap));
        let _ = writeln!(
            out,
            "\nship {ship} incidents ({} sealed, snapshot v{})",
            incidents.len(),
            metrics.snapshot_version
        );
        for inc in incidents.iter().rev().take(6).rev() {
            let _ = writeln!(
                out,
                "  {:016x} step {:>5} t+{:.1}s {} ({} records)",
                inc.id,
                inc.step,
                inc.at_secs,
                inc.trigger.kind(),
                inc.records
            );
        }
        let _ = writeln!(
            out,
            "exposition: {} bytes served over wire v{WIRE_VERSION} (fleet v{})",
            metrics.exposition.len(),
            rollup.fleet_version
        );

        if interactive {
            // Clear and home between frames for a stable live view.
            print!("\x1b[2J\x1b[H{out}");
        } else {
            println!("--- frame {rendered} ---\n{out}");
        }

        rendered += 1;
        if frames > 0 && rendered >= frames {
            break;
        }
        if done.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms));
    }

    // In frame-limited mode the scenario thread may still be stepping;
    // let it finish so the process exits cleanly either way.
    stepper.join().expect("scenario thread joins");
    println!("mpros-top: {rendered} frames rendered, exiting");
}
