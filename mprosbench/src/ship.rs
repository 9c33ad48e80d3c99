//! The `survey` workload: one 8-DC ship over a lossy network under a
//! seeded fault campaign; every step is a full vibration survey on
//! every live DC.
//!
//! The ship serves through an attached gateway; after each step a
//! closed-loop client reads the freshly published snapshot.

use crate::layers::{self, LayerInputs, Readings};
use crate::load::{ClientLog, Rng, ShipScript};
use crate::probe::Probes;
use crate::rebuild::{ShipOutputs, TracedShip};
use crate::report::{Metric, Tally};
use crate::spans::SpanLog;
use crate::{end_to_end, set_up_repeatedly, Args, Budget, RoundLog};
use mpros_chiller::{FaultProfile, FaultSeed};
use mpros_core::{
    DcId, FaultPlan, FaultPlanConfig, MachineCondition, Result, SimDuration, SimTime,
};
use mpros_gateway::{Gateway, GatewayClient, GatewayConfig, GatewayResponse};
use mpros_network::{NetStats, NetworkConfig};
use mpros_pdme::PdmeExecutive;
use mpros_ship::{ShipboardSim, ShipboardSimConfig};
use mpros_store::{RecoveryManager, StoreHandle};
use mpros_telemetry::{SloPolicy, Telemetry};
use std::sync::Arc;
use std::time::Instant;

const SESSION: u64 = 1;
const DCS: usize = 8;
/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 5;
/// Closed-loop client requests after each step.
const REQUESTS_PER_STEP: usize = 20;
/// Sampled extra calls every this many steps (traced runs).
const SAMPLE_EVERY: u64 = 5;

/// The workload's fixed shape; everything random in it comes from the
/// workload seed.
pub struct Scenario {
    seed: u64,
    config: ShipboardSimConfig,
    plant_faults: Vec<(usize, FaultSeed)>,
    dt: SimDuration,
}

impl Scenario {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 10);
        let dt = SimDuration::from_secs(30.0);
        let network = NetworkConfig::default()
            .with_drop_probability(0.1)
            .with_jitter(SimDuration::from_millis(5.0))
            .with_seed(rng.next_u64());
        // One DC crash, one partition, one sensor dropout inside the
        // first 20 steps, each shorter than the outbox's retry patience;
        // plus one PDME crash-restore from the WAL.
        let mut campaign = FaultPlanConfig::default();
        campaign.dcs = (1..=DCS as u64).map(DcId::new).collect();
        campaign.horizon = SimDuration::from_secs(20.0 * 30.0);
        (
            campaign.crashes,
            campaign.partitions,
            campaign.sensor_dropouts,
        ) = (1, 1, 1);
        campaign.min_outage = SimDuration::from_secs(30.0);
        campaign.max_outage = SimDuration::from_secs(90.0);
        let crash_at = rng.uniform(90.0, 600.0);
        let plan = FaultPlan::seeded(rng.next_u64(), &campaign).with_pdme_crash(
            SimTime::from_secs(crash_at),
            SimTime::from_secs(crash_at + 30.0),
        );
        let first = rng.below(DCS as u64) as usize;
        let second = (first + 1 + rng.below(DCS as u64 - 1) as usize) % DCS;
        let plant_faults = [first, second]
            .into_iter()
            .zip([
                MachineCondition::MotorBearingDefect,
                MachineCondition::CompressorBearingDefect,
            ])
            .map(|(idx, condition)| {
                (
                    idx,
                    FaultSeed {
                        condition,
                        onset: SimTime::ZERO,
                        time_to_failure: SimDuration::from_minutes(rng.uniform(8.0, 20.0)),
                        profile: FaultProfile::EarlyOnset,
                    },
                )
            })
            .collect();
        Scenario {
            seed,
            config: ShipboardSimConfig::new()
                .with_dc_count(DCS)
                .with_seed(rng.next_u64())
                .with_network(network)
                .with_fault_plan(plan)
                .with_survey_period(dt)
                .with_slo(SloPolicy::standard(60.0, 120.0, 0.5))
                .with_snapshot_every(10),
            plant_faults,
            dt,
        }
    }

    fn dc_count(&self) -> u64 {
        self.config.dc_count as u64
    }

    fn dc_timeout(&self) -> SimDuration {
        self.config.dc_timeout
    }

    fn build_sim(&self) -> Result<ShipboardSim> {
        let mut sim = ShipboardSim::new(self.config.clone())?;
        for (idx, fault) in &self.plant_faults {
            sim.seed_fault(*idx, *fault);
        }
        sim.attach_gateway(GatewayConfig::new());
        Ok(sim)
    }

    fn build_traced(&self) -> Result<TracedShip> {
        let mut ship = TracedShip::new(self.config.clone())?;
        for (idx, fault) in &self.plant_faults {
            ship.seed_fault(*idx, *fault);
        }
        ship.attach_gateway(GatewayConfig::new());
        Ok(ship)
    }

    /// Construction plus the warm-up step (every DC's first survey:
    /// FFT plans and scratch buffers), timed.
    fn set_up<S: Ship>(&self, build: impl Fn(&Self) -> Result<S>) -> Result<(S, f64)> {
        let start = Instant::now();
        let mut ship = build(self)?;
        ship.step(self.dt, &mut SpanLog::disabled())?;
        Ok((ship, start.elapsed().as_secs_f64()))
    }
}

/// The calls a workload makes on a ship, real or rebuilt.
pub trait Ship {
    fn step(&mut self, dt: SimDuration, log: &mut SpanLog) -> Result<usize>;
    fn net_stats(&self) -> NetStats;
    fn gateway(&self) -> Arc<Gateway>;
    fn pdme(&self) -> &PdmeExecutive;
    fn telemetry(&self) -> &Telemetry;
    fn store(&self) -> &StoreHandle;
    fn now(&self) -> SimTime;
    fn steps(&self) -> u64;
    fn outputs(&self, dc_timeout: SimDuration) -> Result<ShipOutputs>;
}

impl Ship for ShipboardSim {
    fn step(&mut self, dt: SimDuration, _: &mut SpanLog) -> Result<usize> {
        ShipboardSim::step(self, dt)
    }
    fn net_stats(&self) -> NetStats {
        self.network().stats()
    }
    fn gateway(&self) -> Arc<Gateway> {
        ShipboardSim::gateway(self)
            .expect("benchmark ships serve")
            .clone()
    }
    fn pdme(&self) -> &PdmeExecutive {
        ShipboardSim::pdme(self)
    }
    fn telemetry(&self) -> &Telemetry {
        ShipboardSim::telemetry(self)
    }
    fn store(&self) -> &StoreHandle {
        ShipboardSim::store(self)
    }
    fn now(&self) -> SimTime {
        ShipboardSim::now(self)
    }
    fn steps(&self) -> u64 {
        ShipboardSim::steps(self)
    }
    fn outputs(&self, dc_timeout: SimDuration) -> Result<ShipOutputs> {
        ShipOutputs::of_sim(self, dc_timeout)
    }
}

impl Ship for TracedShip {
    fn step(&mut self, dt: SimDuration, log: &mut SpanLog) -> Result<usize> {
        TracedShip::step(self, dt, log)
    }
    fn net_stats(&self) -> NetStats {
        self.network().stats()
    }
    fn gateway(&self) -> Arc<Gateway> {
        TracedShip::gateway(self).clone()
    }
    fn pdme(&self) -> &PdmeExecutive {
        TracedShip::pdme(self)
    }
    fn telemetry(&self) -> &Telemetry {
        TracedShip::telemetry(self)
    }
    fn store(&self) -> &StoreHandle {
        TracedShip::store(self)
    }
    fn now(&self) -> SimTime {
        TracedShip::now(self)
    }
    fn steps(&self) -> u64 {
        TracedShip::steps(self)
    }
    fn outputs(&self, _: SimDuration) -> Result<ShipOutputs> {
        TracedShip::outputs(self)
    }
}

/// What driving a ship through the timed steps produced.
#[derive(Default)]
struct Drive {
    rounds: RoundLog,
    client: ClientLog,
}

/// Timed steps until the budget is spent. A step's window runs from
/// its inputs entering (the survey sampled) to the serving snapshot
/// being published; the client then reads it, outside the window.
fn drive<S: Ship>(
    sc: &Scenario,
    ship: &mut S,
    budget: Budget,
    log: &mut SpanLog,
    probes: Option<&Probes>,
) -> Result<Drive> {
    let client = GatewayClient::connect(ship.gateway(), SESSION);
    let mut script = ShipScript::new(sc.seed, sc.dc_count(), SESSION);
    let mut d = Drive::default();
    let first_step = ship.steps() + 1;
    while budget.more(d.rounds.steps()) {
        let step = ship.steps() + 1;
        log.set_step(step);
        let start = Instant::now();
        let root = log.open("ship.round");
        let result = ship.step(sc.dt, log);
        log.close(root);
        let round = start.elapsed().as_secs_f64();
        if let Err(e) = result {
            d.rounds.fail(e.to_string());
        }
        d.rounds.push(round);

        let mut fresh = None;
        for _ in 0..REQUESTS_PER_STEP {
            let request = script.next();
            let s = log.open("loadgen.request");
            let sent = Instant::now();
            let outcome = match client.call(&request) {
                Ok(GatewayResponse::NotFound { detail, .. }) => Err(format!("not found: {detail}")),
                Ok(response) => Ok(response.snapshot_version()),
                Err(e) => Err(e.to_string()),
            };
            log.close(s);
            let done = Instant::now();
            if fresh.is_none() && outcome.as_ref().is_ok_and(|&v| v >= step) {
                fresh = Some((done - start).as_secs_f64());
            }
            d.client.record((done - sent).as_secs_f64(), outcome);
        }
        if let Some(fresh) = fresh {
            d.rounds.fresh.push(fresh);
        }

        if let Some(p) = probes {
            let early = step == first_step;
            if early || step.is_multiple_of(SAMPLE_EVERY) {
                sample(p, ship, sc, log, if early { 3 } else { 1 })?;
            }
        }
    }
    Ok(d)
}

/// The sampled extra calls, outside any step window.
fn sample<S: Ship>(
    p: &Probes,
    ship: &S,
    sc: &Scenario,
    log: &mut SpanLog,
    exports: usize,
) -> Result<()> {
    for _ in 0..exports {
        Probes::sample_pdme(
            log,
            ship.pdme(),
            ship.now(),
            sc.dc_timeout(),
            ship.telemetry(),
        );
    }
    p.sample_gateway(log, &ship.gateway().snapshot())
}

/// The output checks every run of a ship workload makes.
fn check_outputs<S: Ship>(sc: &Scenario, ship: &S, d: &Drive, tally: &mut Tally) -> Result<()> {
    let net = ship.net_stats();
    tally.check(
        "no report frame expired",
        net.expired == 0,
        format!("net.expired = {}", net.expired),
    );
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
    // A PDME restored from the run's WAL exports the live ICAS document.
    let live = mpros_pdme::export_snapshot(ship.pdme(), ship.now(), sc.dc_timeout()).to_json()?;
    let recovered = RecoveryManager::new(&Telemetry::new()).recover(&ship.store().contents()?);
    let restored = PdmeExecutive::restore(&recovered)?;
    let from_wal = mpros_pdme::export_snapshot(&restored, ship.now(), sc.dc_timeout()).to_json()?;
    tally.check(
        "PDME restored from the WAL exports the live ICAS JSON",
        live == from_wal,
        format!("{} WAL frames replayed", recovered.tail.len()),
    );
    Ok(())
}

fn count_ops(d: &Drive, tally: &mut Tally) {
    d.rounds.tally(tally);
    tally.ops(d.client.requests, d.client.failed);
}

/// An untraced run: set up several times, then time steps with
/// tracing off.
pub fn run_untraced(sc: &Scenario, args: &Args) -> Result<(Vec<Metric>, Tally)> {
    let (mut ship, setups) = set_up_repeatedly(SETUPS, || sc.set_up(Scenario::build_sim))?;
    let budget = Budget::for_seconds(args.seconds);
    let d = drive(sc, &mut ship, budget, &mut SpanLog::disabled(), None)?;
    let mut tally = Tally::default();
    count_ops(&d, &mut tally);
    check_outputs(sc, &ship, &d, &mut tally)?;
    let metrics = end_to_end(&setups, &d.rounds, &d.client.latency, &tally);
    Ok((metrics, tally))
}

/// A traced run, then an untraced replay of the same steps with the
/// same seed; outputs must agree.
pub fn run_traced(sc: &Scenario, args: &Args) -> Result<(Vec<Metric>, Tally, SpanLog)> {
    let probes = Probes::new();
    let (mut ship, _) = sc.set_up(Scenario::build_traced)?;
    ship.take_ingest_totals();
    let mut log = SpanLog::new(Instant::now());
    let d = drive(
        sc,
        &mut ship,
        Budget::for_seconds(args.seconds),
        &mut log,
        Some(&probes),
    )?;
    drop(probes);
    let last = ship.steps();
    log.set_step(last);
    let readings = Readings::finish(&mut log, std::slice::from_mut(&mut ship), sc.dc_timeout())?;
    let mut tally = Tally::default();
    count_ops(&d, &mut tally);
    check_outputs(sc, &ship, &d, &mut tally)?;
    let traced = ship.outputs()?;
    drop(ship);

    // The untraced replay of exactly the traced steps.
    let steps = d.rounds.steps();
    let (mut sim, _) = sc.set_up(Scenario::build_sim)?;
    let replay = drive(
        sc,
        &mut sim,
        Budget::Steps(steps),
        &mut SpanLog::disabled(),
        None,
    )?;
    let diff = traced.diff(&sim.outputs(sc.dc_timeout())?);
    tally.check(
        "traced run's outputs equal the untraced run's",
        diff.is_none(),
        diff.unwrap_or_else(|| {
            format!(
                "{steps} steps: ICAS JSON, {} WAL bytes, {} served counters",
                traced.wal.len(),
                traced.counters.len()
            )
        }),
    );
    let metrics = layers::per_layer(&LayerInputs {
        log: &log,
        round: "ship.round",
        steps: (d.rounds.first_step(last), last),
        readings,
        traced_rounds: d.rounds.total(),
        untraced_rounds: replay.rounds.total(),
    });
    Ok((metrics, tally, log))
}
