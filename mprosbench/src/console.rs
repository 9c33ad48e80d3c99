//! The `console` workload: a 2-ship fleet whose control thread steps
//! every ship and publishes the fleet snapshot, then serves a fleet
//! console's requests through the fleet router.
//!
//! Each ship has 4 DCs, a survey every round and one seeded plant
//! fault. Every round therefore costs the same — eight surveys, two
//! ship steps and a fleet publish — so its quantiles time the same work
//! in every run. The serving layers — fleet router, gateway, codec — do
//! the client-side work: the client reads on the same thread between
//! rounds (a closed loop of 16 requests a round), so the run stays
//! single-threaded like `survey`.

use crate::layers::{self, LayerInputs, Readings};
use crate::load::{ClientLog, FleetScript, Rng};
use crate::probe::Probes;
use crate::rebuild::{ShipOutputs, TracedShip};
use crate::report::{Metric, Tally};
use crate::ship::Ship;
use crate::spans::SpanLog;
use crate::{end_to_end, set_up_repeatedly, Args, Budget, RoundLog};
use mpros_chiller::{FaultProfile, FaultSeed};
use mpros_core::{derive_salted_seed, MachineCondition, Result, SimDuration, SimTime};
use mpros_fleet::{
    Fleet, FleetClient, FleetConfig, FleetGateway, FleetResponse, FleetSnapshot, ShipEntry,
    SHIP_STREAM_SALT,
};
use mpros_gateway::GatewayResponse;
use mpros_ship::ShipboardSimConfig;
use mpros_telemetry::SloPolicy;
use std::sync::Arc;
use std::time::Instant;

const SESSION: u64 = 7;
const SHIPS: usize = 2;
const DCS_PER_SHIP: usize = 4;
const REQUESTS_PER_ROUND: usize = 16;
/// Sampled extra calls every this many rounds (traced runs).
const SAMPLE_EVERY: u64 = 20;

pub struct Scenario {
    seed: u64,
    config: FleetConfig,
    /// `(ship, plant, fault)`.
    plant_faults: Vec<(usize, usize, FaultSeed)>,
    dt: SimDuration,
}

impl Scenario {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 12);
        let dt = SimDuration::from_secs(7.5);
        let ship = ShipboardSimConfig::new()
            .with_dc_count(DCS_PER_SHIP)
            .with_survey_period(dt)
            .with_slo(SloPolicy::standard(60.0, 120.0, 0.5))
            .with_snapshot_every(10);
        let conditions = [
            MachineCondition::MotorBearingDefect,
            MachineCondition::MotorImbalance,
            MachineCondition::MotorMisalignment,
            MachineCondition::BearingHousingLooseness,
        ];
        let plant_faults = (0..SHIPS)
            .map(|ship| {
                let plant = rng.below(DCS_PER_SHIP as u64) as usize;
                let condition = conditions[rng.below(conditions.len() as u64) as usize];
                let fault = FaultSeed {
                    condition,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_minutes(rng.uniform(10.0, 30.0)),
                    profile: FaultProfile::Linear,
                };
                (ship, plant, fault)
            })
            .collect();
        Scenario {
            seed,
            config: FleetConfig::new()
                .with_ship_count(SHIPS)
                .with_seed(rng.next_u64())
                .with_ship(ship),
            plant_faults,
            dt,
        }
    }

    fn dc_timeout(&self) -> SimDuration {
        self.config.ship.dc_timeout
    }

    fn build_fleet(&self) -> Result<Fleet> {
        let mut fleet = Fleet::new(self.config.clone())?;
        for (ship, plant, fault) in &self.plant_faults {
            fleet.ship_mut(*ship).seed_fault(*plant, *fault);
        }
        Ok(fleet)
    }

    fn build_traced(&self) -> Result<TracedFleet> {
        // The ships `Fleet::new` builds, rebuilt: the same derived seeds.
        let mut ships = Vec::with_capacity(SHIPS);
        for i in 0..SHIPS {
            let seed = derive_salted_seed(self.config.seed, i as u64, SHIP_STREAM_SALT);
            let mut ship = TracedShip::new(self.config.ship.clone().with_seed(seed))?;
            ship.attach_gateway(self.config.gateway.clone());
            ships.push(ship);
        }
        for (ship, plant, fault) in &self.plant_faults {
            ships[*ship].seed_fault(*plant, *fault);
        }
        // A router for the rebuilt ships: a fleet of idle one-DC ships
        // whose router serves the fleet snapshots published into it.
        // Routed requests read only the pinned snapshots.
        let router = Fleet::new(
            FleetConfig::new()
                .with_ship_count(SHIPS)
                .with_ship(ShipboardSimConfig::new().with_dc_count(1)),
        )?;
        let mut fleet = TracedFleet {
            ships,
            router,
            version: 0,
        };
        fleet.publish(&mut SpanLog::disabled())?;
        Ok(fleet)
    }

    /// Construction plus the warm-up round (every DC's first survey).
    fn set_up<F: FleetUnderTest>(&self, build: impl Fn(&Self) -> Result<F>) -> Result<(F, f64)> {
        let start = Instant::now();
        let mut fleet = build(self)?;
        fleet.round(self.dt, &mut SpanLog::disabled())?;
        Ok((fleet, start.elapsed().as_secs_f64()))
    }
}

/// A fleet round and what the workload reads back, real or rebuilt.
trait FleetUnderTest {
    fn round(&mut self, dt: SimDuration, log: &mut SpanLog) -> Result<()>;
    fn version(&self) -> u64;
    fn router(&self) -> Arc<FleetGateway>;
    fn ship(&self, i: usize) -> &dyn Ship;
}

impl FleetUnderTest for Fleet {
    fn round(&mut self, dt: SimDuration, _: &mut SpanLog) -> Result<()> {
        self.step(dt)
    }
    fn version(&self) -> u64 {
        Fleet::version(self)
    }
    fn router(&self) -> Arc<FleetGateway> {
        self.gateway().clone()
    }
    fn ship(&self, i: usize) -> &dyn Ship {
        Fleet::ship(self, i)
    }
}

/// `Fleet::step` rebuilt over traced ships: every ship's step, then
/// `Fleet::publish`'s calls.
struct TracedFleet {
    ships: Vec<TracedShip>,
    router: Fleet,
    version: u64,
}

impl TracedFleet {
    fn publish(&mut self, log: &mut SpanLog) -> Result<()> {
        self.version += 1;
        let entries = self
            .ships
            .iter()
            .enumerate()
            .map(|(i, ship)| ShipEntry {
                ship_id: i as u64,
                available: true,
                snapshot: ship.gateway().snapshot(),
            })
            .collect();
        let root = log.open("fleet.publish");
        let s = log.open("fleet.snapshot_build");
        let snapshot = FleetSnapshot::build(self.version, entries);
        log.close(s);
        let published = snapshot.map(|snapshot| {
            let s = log.open("fleet.gateway_publish");
            self.router.gateway().publish(snapshot);
            log.close(s);
        });
        log.close(root);
        published
    }
}

impl FleetUnderTest for TracedFleet {
    fn round(&mut self, dt: SimDuration, log: &mut SpanLog) -> Result<()> {
        for ship in &mut self.ships {
            ship.step(dt, log)?;
        }
        self.publish(log)
    }
    fn version(&self) -> u64 {
        self.version
    }
    fn router(&self) -> Arc<FleetGateway> {
        self.router.gateway().clone()
    }
    fn ship(&self, i: usize) -> &dyn Ship {
        &self.ships[i]
    }
}

/// The client's verdict on one response: its fleet version, or why it
/// is not a valid answer.
fn judge(response: Result<FleetResponse>) -> std::result::Result<u64, String> {
    match response {
        Ok(FleetResponse::ShipUnavailable { detail, .. }) => Err(format!("unavailable: {detail}")),
        Ok(FleetResponse::ShipReply {
            response: GatewayResponse::NotFound { detail, .. },
            ..
        }) => Err(format!("not found: {detail}")),
        Ok(response) => Ok(response.fleet_version()),
        Err(e) => Err(e.to_string()),
    }
}

#[derive(Default)]
struct Drive {
    rounds: RoundLog,
    client: ClientLog,
}

/// Timed rounds until the budget is spent. A round's window runs from
/// its start to the fleet snapshot being published; the console then
/// reads it through the router, outside the window.
fn drive<F: FleetUnderTest>(
    sc: &Scenario,
    fleet: &mut F,
    budget: Budget,
    log: &mut SpanLog,
    probes: Option<&Probes>,
) -> Result<Drive> {
    let client = FleetClient::connect(fleet.router(), SESSION);
    let mut script = FleetScript::new(sc.seed, SHIPS as u64, DCS_PER_SHIP as u64, SESSION);
    let mut d = Drive::default();
    while budget.more(d.rounds.steps()) {
        let version = fleet.version() + 1;
        log.set_step(version);
        let start = Instant::now();
        let root = log.open("fleet.round");
        let result = fleet.round(sc.dt, log);
        log.close(root);
        d.rounds.push(start.elapsed().as_secs_f64());
        if let Err(e) = result {
            d.rounds.fail(e.to_string());
        }

        let mut fresh = None;
        for _ in 0..REQUESTS_PER_ROUND {
            let request = script.next();
            let s = log.open("loadgen.request");
            let sent = Instant::now();
            let outcome = judge(client.call(&request));
            log.close(s);
            let done = Instant::now();
            if fresh.is_none() && outcome.as_ref().is_ok_and(|&v| v >= version) {
                fresh = Some((done - start).as_secs_f64());
            }
            d.client.record((done - sent).as_secs_f64(), outcome);
        }
        if let Some(fresh) = fresh {
            d.rounds.fresh.push(fresh);
        }

        if let Some(p) = probes {
            let early = d.rounds.steps() == 1;
            if early || version.is_multiple_of(SAMPLE_EVERY) {
                sample(p, &*fleet, sc, log, if early { 3 } else { 1 })?;
            }
        }
    }
    Ok(d)
}

/// The sampled extra calls, outside any round window.
fn sample(
    p: &Probes,
    fleet: &dyn FleetUnderTest,
    sc: &Scenario,
    log: &mut SpanLog,
    exports: usize,
) -> Result<()> {
    for i in 0..SHIPS {
        let ship = fleet.ship(i);
        for _ in 0..exports {
            Probes::sample_pdme(
                log,
                ship.pdme(),
                ship.now(),
                sc.dc_timeout(),
                ship.telemetry(),
            );
        }
        p.sample_gateway(log, &ship.gateway().snapshot())?;
    }
    Probes::sample_route(log, &fleet.router(), SHIPS as u64);
    Ok(())
}

fn check_outputs<F: FleetUnderTest>(
    sc: &Scenario,
    fleet: &F,
    d: &Drive,
    tally: &mut Tally,
) -> Result<()> {
    d.rounds.tally(tally);
    tally.ops(d.client.requests, d.client.failed);
    tally.check(
        "client responses decode, versions never go backwards",
        d.client.failed == 0,
        format!(
            "{} of {} failed, {} regressions{}",
            d.client.failed,
            d.client.requests,
            d.client.regressions,
            d.client
                .first_failure
                .as_ref()
                .map_or(String::new(), |f| format!("; first: {f}"))
        ),
    );
    let client = FleetClient::connect(fleet.router(), SESSION + 1);
    for i in 0..SHIPS {
        let ship = fleet.ship(i);
        let expected = mpros_pdme::export_snapshot(ship.pdme(), ship.now(), sc.dc_timeout());
        let served = client.ship_icas(i as u64)?;
        tally.check(
            format!("ship {i}: served ICAS equals icas::export_snapshot"),
            served.to_json()? == expected.to_json()?,
            format!("{} machines", expected.machines.len()),
        );
    }
    Ok(())
}

pub fn run_untraced(sc: &Scenario, args: &Args) -> Result<(Vec<Metric>, Tally)> {
    let (mut fleet, setups) = set_up_repeatedly(5, || sc.set_up(Scenario::build_fleet))?;
    let budget = Budget::for_seconds(args.seconds);
    let d = drive(sc, &mut fleet, budget, &mut SpanLog::disabled(), None)?;
    let mut tally = Tally::default();
    check_outputs(sc, &fleet, &d, &mut tally)?;
    let metrics = end_to_end(&setups, &d.rounds, &d.client.latency, &tally);
    Ok((metrics, tally))
}

/// A traced run, then an untraced replay of the same rounds through
/// the real `Fleet::step`; every ship's outputs must agree.
pub fn run_traced(sc: &Scenario, args: &Args) -> Result<(Vec<Metric>, Tally, SpanLog)> {
    let probes = Probes::new();
    let (mut fleet, _) = sc.set_up(Scenario::build_traced)?;
    for ship in &mut fleet.ships {
        ship.take_ingest_totals();
    }
    let mut log = SpanLog::new(Instant::now());
    let budget = Budget::for_seconds(args.seconds);
    let d = drive(sc, &mut fleet, budget, &mut log, Some(&probes))?;
    drop(probes);
    let last = fleet.version();
    log.set_step(last);
    let readings = Readings::finish(&mut log, &mut fleet.ships, sc.dc_timeout())?;
    let mut tally = Tally::default();
    check_outputs(sc, &fleet, &d, &mut tally)?;
    let traced: Vec<ShipOutputs> = fleet
        .ships
        .iter()
        .map(TracedShip::outputs)
        .collect::<Result<_>>()?;
    drop(fleet);

    let rounds = d.rounds.steps();
    let (mut real, _) = sc.set_up(Scenario::build_fleet)?;
    let replay = drive(
        sc,
        &mut real,
        Budget::Steps(rounds),
        &mut SpanLog::disabled(),
        None,
    )?;
    let mut diffs = Vec::new();
    for (i, traced) in traced.iter().enumerate() {
        if let Some(diff) = traced.diff(&FleetUnderTest::ship(&real, i).outputs(sc.dc_timeout())?) {
            diffs.push(format!("ship {i}: {diff}"));
        }
    }
    tally.check(
        "traced run's outputs equal the untraced run's",
        diffs.is_empty(),
        if diffs.is_empty() {
            format!("{rounds} rounds, {SHIPS} ships: ICAS JSON, WAL bytes, served counters")
        } else {
            diffs.join("; ")
        },
    );
    let metrics = layers::per_layer(&LayerInputs {
        log: &log,
        round: "fleet.round",
        steps: (d.rounds.first_step(last), last),
        readings,
        traced_rounds: d.rounds.total(),
        untraced_rounds: replay.rounds.total(),
    });
    Ok((metrics, tally, log))
}
