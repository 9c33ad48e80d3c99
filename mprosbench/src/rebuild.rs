//! `ShipboardSim::new`, `attach_gateway` and `step` rebuilt from the
//! public calls they make, in the same order, with a span around each
//! call into a layer.
//!
//! The rebuild covers the sequential execution mode only (every
//! workload steps sequentially). Its outputs — ICAS JSON, WAL bytes,
//! served counters — must equal `ShipboardSim`'s for the same
//! configuration and inputs; the traced runs check that, so a rebuild
//! that drifts from the real step cannot report layer numbers.

use crate::spans::SpanLog;
use mpros_chiller::plant::PlantConfig;
use mpros_chiller::{ChillerPlant, FaultSeed};
use mpros_core::{
    derive_stream_seed, DcId, FaultKind, FaultPlan, FaultTarget, FaultTransition, MachineId,
    Result, SimClock, SimDuration, SimTime,
};
use mpros_dc::{DataConcentrator, DcConfig, SensorFault};
use mpros_gateway::{Gateway, GatewayConfig, ServingSnapshot};
use mpros_network::{Endpoint, Envelope, NetMessage, ShipNetwork};
use mpros_pdme::PdmeExecutive;
use mpros_ship::{ExecMode, ShipboardSim, ShipboardSimConfig};
use mpros_store::{RecoveryManager, StoreHandle};
use mpros_telemetry::trace::dc_trace_seed;
use mpros_telemetry::{
    FlightRecorder, IncidentTrigger, Instrumented, SloVerdict, SloWatchdog, Stage, Telemetry,
    WallTimer,
};
use std::sync::Arc;

/// The outputs two runs of one scenario must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct ShipOutputs {
    pub icas_json: String,
    pub wal: Vec<u8>,
    /// Served counters of the last published snapshot, as
    /// `component.name=value` lines.
    pub counters: Vec<String>,
}

impl ShipOutputs {
    fn collect(icas_json: String, wal: Vec<u8>, served: &ServingSnapshot) -> Self {
        ShipOutputs {
            icas_json,
            wal,
            counters: served
                .counters
                .iter()
                .map(|c| format!("{}.{}={}", c.component, c.name, c.value))
                .collect(),
        }
    }

    /// The outputs of a real simulation with an attached gateway.
    pub fn of_sim(sim: &ShipboardSim, dc_timeout: SimDuration) -> Result<Self> {
        let gateway = sim.gateway().expect("benchmark ships serve");
        let icas = mpros_pdme::export_snapshot(sim.pdme(), sim.now(), dc_timeout);
        Ok(Self::collect(
            icas.to_json()?,
            sim.store().contents()?,
            &gateway.snapshot(),
        ))
    }

    /// What differs between `self` and `other`, if anything.
    pub fn diff(&self, other: &ShipOutputs) -> Option<String> {
        if self.icas_json != other.icas_json {
            Some("ICAS JSON differs".into())
        } else if self.wal != other.wal {
            Some(format!(
                "WAL differs ({} vs {} bytes)",
                self.wal.len(),
                other.wal.len()
            ))
        } else if self.counters != other.counters {
            let first = self
                .counters
                .iter()
                .zip(&other.counters)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("{a} vs {b}"))
                .unwrap_or_else(|| "counter sets differ".into());
            Some(format!("served counters differ: {first}"))
        } else {
            None
        }
    }
}

/// What the PDME's ingest passes did, summed over steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestTotals {
    pub posted: u64,
    pub fused: u64,
    pub replays: u64,
}

pub struct TracedShip {
    ingest: IngestTotals,
    plants: Vec<ChillerPlant>,
    dcs: Vec<DataConcentrator>,
    dc_ids: Vec<DcId>,
    dc_configs: Vec<DcConfig>,
    epochs: Vec<u64>,
    crashed: Vec<bool>,
    stalled: bool,
    fault_plan: FaultPlan,
    dc_timeout: SimDuration,
    network: ShipNetwork,
    pdme: PdmeExecutive,
    clock: SimClock,
    heartbeat_period: SimDuration,
    last_heartbeat: Vec<SimTime>,
    telemetry: Telemetry,
    master_seed: u64,
    trace_seeds: Vec<u64>,
    watchdog: SloWatchdog,
    store: StoreHandle,
    snapshot_every: u64,
    steps: u64,
    gateway: Option<Arc<Gateway>>,
    recorder: Arc<FlightRecorder>,
    pending_triggers: Vec<IncidentTrigger>,
    last_slo_pass: Option<bool>,
}

impl TracedShip {
    /// `ShipboardSim::new`.
    pub fn new(config: ShipboardSimConfig) -> Result<Self> {
        assert_eq!(config.exec, ExecMode::Sequential, "rebuild is sequential");
        let telemetry = Telemetry::new();
        let mut network = ShipNetwork::new(config.network.clone());
        network.set_telemetry(&telemetry);
        network.register(Endpoint::Pdme);
        let mut pdme = PdmeExecutive::new();
        pdme.set_telemetry(&telemetry);
        let sbfr_images = DataConcentrator::default_sbfr_images()?;
        let n = config.dc_count;
        let (mut plants, mut dcs, mut dc_ids, mut dc_configs, mut trace_seeds) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for i in 0..n {
            let machine = MachineId::new(i as u64 + 1);
            let dc_id = DcId::new(i as u64 + 1);
            plants.push(ChillerPlant::new(PlantConfig::new(
                machine,
                derive_stream_seed(config.seed, dc_id.raw()),
            )));
            let trace_seed = dc_trace_seed(config.seed, dc_id.raw(), 0);
            trace_seeds.push(trace_seed);
            let dc_cfg = DcConfig::new(dc_id, machine)
                .with_survey_period(config.survey_period)
                .with_trace_seed(trace_seed);
            let mut dc = DataConcentrator::new(dc_cfg.clone())?;
            dc.set_telemetry(&telemetry);
            dcs.push(dc);
            dc_ids.push(dc_id);
            dc_configs.push(dc_cfg);
            network.register(Endpoint::Dc(dc_id));
            pdme.register_machine(machine, &format!("A/C Plant {} Chiller", i + 1));
            pdme.assign_dc(dc_id, vec![machine], sbfr_images.clone());
        }
        let store = StoreHandle::in_memory(&telemetry);
        pdme.attach_store(store.clone());
        pdme.snapshot_to_store()?;
        Ok(TracedShip {
            ingest: IngestTotals::default(),
            last_heartbeat: vec![SimTime::ZERO - config.heartbeat_period; n],
            epochs: vec![0; n],
            crashed: vec![false; n],
            stalled: false,
            fault_plan: config.fault_plan,
            dc_timeout: config.dc_timeout,
            plants,
            dcs,
            dc_ids,
            dc_configs,
            network,
            pdme,
            clock: SimClock::new(),
            heartbeat_period: config.heartbeat_period,
            telemetry,
            master_seed: config.seed,
            trace_seeds,
            watchdog: SloWatchdog::new(config.slo),
            store,
            snapshot_every: config.snapshot_every,
            steps: 0,
            gateway: None,
            recorder: Arc::new(FlightRecorder::new(config.recorder, config.seed)),
            pending_triggers: Vec::new(),
            last_slo_pass: None,
        })
    }

    /// `ShipboardSim::attach_gateway`.
    pub fn attach_gateway(&mut self, config: GatewayConfig) -> Arc<Gateway> {
        let mut gateway = Gateway::new(config, &self.telemetry);
        gateway.set_recorder(self.recorder.clone());
        let gateway = Arc::new(gateway);
        self.gateway = Some(gateway.clone());
        let snapshot = self.build_snapshot();
        gateway.publish(snapshot);
        gateway
    }

    pub fn seed_fault(&mut self, idx: usize, seed: FaultSeed) {
        self.plants[idx].seed_fault(seed);
    }

    pub fn network(&self) -> &ShipNetwork {
        &self.network
    }

    pub fn pdme(&self) -> &PdmeExecutive {
        &self.pdme
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    pub fn dcs(&self) -> &[DataConcentrator] {
        &self.dcs
    }

    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The ingest totals since the last call.
    pub fn take_ingest_totals(&mut self) -> IngestTotals {
        std::mem::take(&mut self.ingest)
    }

    pub fn gateway(&self) -> &Arc<Gateway> {
        self.gateway.as_ref().expect("benchmark ships serve")
    }

    pub fn outputs(&self) -> Result<ShipOutputs> {
        let icas = mpros_pdme::export_snapshot(&self.pdme, self.now(), self.dc_timeout);
        Ok(ShipOutputs::collect(
            icas.to_json()?,
            self.store.contents()?,
            &self.gateway().snapshot(),
        ))
    }

    fn build_snapshot(&self) -> ServingSnapshot {
        ServingSnapshot::build(
            self.steps,
            self.clock.now(),
            &self.pdme,
            self.dc_timeout,
            self.watchdog.last_verdict(),
            &self.telemetry,
        )
    }

    fn publish_serving_snapshot(&self, log: &mut SpanLog) {
        let Some(gateway) = &self.gateway else {
            return;
        };
        let s = log.open("gateway.snapshot_build");
        let snapshot = self.build_snapshot();
        log.close_with(s, snapshot.exposition.len() as u64);
        let s = log.open("gateway.publish");
        gateway.publish(snapshot);
        log.close(s);
    }

    fn record_flight(&mut self, log: &mut SpanLog) {
        let s = log.open("telemetry.recorder");
        let verdict: Option<SloVerdict> = self.watchdog.last_verdict().cloned();
        if let Some(v) = &verdict {
            if !v.pass && self.last_slo_pass.unwrap_or(true) {
                self.pending_triggers.push(IncidentTrigger::SloViolation);
            }
            self.last_slo_pass = Some(v.pass);
        }
        let triggers = std::mem::take(&mut self.pending_triggers);
        self.recorder.observe_step(
            self.steps,
            self.clock.now().as_secs(),
            &self.telemetry,
            verdict.as_ref(),
            &triggers,
        );
        log.close(s);
    }

    fn evaluate_watchdog(&mut self, log: &mut SpanLog) {
        let s = log.open("telemetry.watchdog");
        self.watchdog.evaluate(&self.telemetry);
        log.close(s);
    }

    /// `ShipboardSim::crash_restore_pdme`.
    fn crash_restore_pdme(&mut self, log: &mut SpanLog) -> Result<()> {
        let now = self.clock.now();
        self.telemetry.event_at(
            now,
            "sim",
            "pdme_crash",
            "PDME lost; restoring from snapshot + WAL tail",
        );
        let s = log.open("store.recover");
        let recovered = RecoveryManager::new(&self.telemetry).recover(&self.store.contents()?);
        log.close_with(s, recovered.tail.len() as u64);
        let s = log.open("pdme.restore");
        let mut fresh = PdmeExecutive::restore(&recovered)?;
        fresh.rebind_telemetry(&self.telemetry);
        fresh.attach_store(self.store.clone());
        log.close(s);
        self.pdme = fresh;
        self.pending_triggers
            .push(IncidentTrigger::PdmeCrashRestore);
        self.telemetry.event_at(
            now,
            "sim",
            "pdme_restored",
            format!(
                "replayed {} WAL record(s) past the last snapshot",
                recovered.tail.len()
            ),
        );
        Ok(())
    }

    fn dc_index(&self, dc: DcId) -> usize {
        self.dc_ids
            .iter()
            .position(|&id| id == dc)
            .expect("fault plans target configured DCs")
    }

    /// `ShipboardSim::apply_fault_transitions`.
    fn apply_fault_transitions(
        &mut self,
        prev: SimTime,
        now: SimTime,
        log: &mut SpanLog,
    ) -> Result<()> {
        for transition in self.fault_plan.transitions(prev, now) {
            let (label, start) = match &transition {
                FaultTransition::Start(kind) => (kind.label(), true),
                FaultTransition::End(kind) => (kind.label(), false),
            };
            self.pdme.journal_fault_transition(now, label, start)?;
            match transition {
                FaultTransition::Start(FaultKind::DcCrash { dc }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        self.crashed[idx] = true;
                        self.network.crash_dc(dc);
                        self.pending_triggers
                            .push(IncidentTrigger::DcCrashed { dc: dc.raw() });
                    }
                }
                FaultTransition::End(FaultKind::DcCrash { dc }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        continue;
                    }
                    let epoch = self.epochs[idx] + 1;
                    self.trace_seeds[idx] = dc_trace_seed(self.master_seed, dc.raw(), epoch);
                    let mut fresh = DataConcentrator::new(
                        self.dc_configs[idx]
                            .clone()
                            .with_trace_seed(self.trace_seeds[idx]),
                    )?;
                    fresh.set_telemetry(&self.telemetry);
                    for window in self.fault_plan.windows() {
                        if let FaultKind::SensorDropout { dc: d, channel } = window.kind {
                            if d == dc && window.active_at(now) {
                                fresh
                                    .chain_mut()
                                    .fail_sensor(channel, SensorFault::Flatline)?;
                            }
                        }
                    }
                    self.dcs[idx] = fresh;
                    self.crashed[idx] = false;
                    self.epochs[idx] = epoch;
                    self.network.restart_dc(dc, self.epochs[idx]);
                    if self.fault_plan.any_active(now, |k| {
                        matches!(k, FaultKind::Partition { target: FaultTarget::Dc(d) } if *d == dc)
                    }) {
                        self.network.set_partitioned(Endpoint::Dc(dc), true);
                    }
                }
                FaultTransition::Start(FaultKind::SensorDropout { dc, channel }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        self.dcs[idx]
                            .chain_mut()
                            .fail_sensor(channel, SensorFault::Flatline)?;
                    }
                }
                FaultTransition::End(FaultKind::SensorDropout { dc, channel }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        self.dcs[idx].chain_mut().repair_sensor(channel)?;
                    }
                }
                FaultTransition::Start(FaultKind::PdmeStall) => {
                    self.stalled = true;
                    self.telemetry
                        .event_at(now, "sim", "pdme_stall", "fusion pass suspended");
                }
                FaultTransition::End(FaultKind::PdmeStall) => {
                    self.stalled = false;
                    self.telemetry
                        .event_at(now, "sim", "pdme_resume", "fusion pass resumed");
                }
                FaultTransition::Start(FaultKind::PdmeCrash) => self.crash_restore_pdme(log)?,
                FaultTransition::End(FaultKind::PdmeCrash) => {}
                FaultTransition::Start(FaultKind::Partition { target }) => {
                    self.network.set_partitioned(endpoint_of(target), true);
                }
                FaultTransition::End(FaultKind::Partition { target }) => {
                    if let FaultTarget::Dc(dc) = target {
                        if self.crashed[self.dc_index(dc)] {
                            continue;
                        }
                    }
                    self.network.set_partitioned(endpoint_of(target), false);
                }
            }
        }
        Ok(())
    }

    /// `ShipboardSim::step`, under one `ship.step` span.
    pub fn step(&mut self, dt: SimDuration, log: &mut SpanLog) -> Result<usize> {
        let root = log.open("ship.step");
        let fused = self.step_phases(dt, log);
        log.close(root);
        fused
    }

    fn step_phases(&mut self, dt: SimDuration, log: &mut SpanLog) -> Result<usize> {
        let prev = self.clock.now();
        self.clock.advance(dt);
        let now = self.clock.now();
        self.telemetry.set_sim_now(now);
        self.steps += 1;
        let s = log.open("ship.faults");
        let faults = self.apply_fault_transitions(prev, now, log);
        log.close(s);
        faults?;

        // Phase 1: deliver pending traffic, in DC-index order.
        let s = log.open("network.deliver");
        let mut commands: Vec<Vec<NetMessage>> = Vec::with_capacity(self.dc_ids.len());
        for (i, &id) in self.dc_ids.iter().enumerate() {
            let delivered = self.network.recv(Endpoint::Dc(id), now);
            let mut rest = Vec::new();
            for msg in delivered {
                if self.crashed[i] {
                    continue;
                }
                match msg {
                    NetMessage::Ack {
                        dc,
                        epoch,
                        last_seq,
                    } => self.network.acknowledge(dc, epoch, last_seq),
                    other => rest.push(other),
                }
            }
            commands.push(rest);
        }
        log.close(s);

        // Phase 2: every live DC's step, inline.
        let mut outputs = Vec::with_capacity(commands.len());
        for (i, commands) in commands.into_iter().enumerate() {
            if self.crashed[i] {
                continue;
            }
            let s = log.open("dc.step");
            let timer = WallTimer::start();
            let result = self.dcs[i].step(&self.plants[i], now, &commands);
            self.telemetry
                .record_span_wall(Stage::DcStep, timer.elapsed());
            log.close_with(s, result.as_ref().map_or(0, |r| r.len() as u64));
            outputs.push((i, result));
        }

        // Phase 3: merge into the network in DC-index order, then pump.
        let s = log.open("network.merge");
        let merged = self.merge(now, outputs);
        log.close(s);
        merged?;

        // Phase 4: PDME ingest, acks, supervision.
        if self.stalled {
            self.evaluate_watchdog(log);
            self.record_flight(log);
            self.publish_serving_snapshot(log);
            return Ok(0);
        }
        let s = log.open("network.deliver");
        let msgs = self.network.recv(Endpoint::Pdme, now);
        log.close(s);
        let s = log.open("pdme.ingest");
        let summary = self.pdme.ingest(&msgs, now);
        log.close_with(s, summary.as_ref().map_or(0, |x| x.posted as u64));
        let summary = summary?;
        self.ingest.posted += summary.posted as u64;
        self.ingest.fused += summary.fused as u64;
        self.ingest.replays += summary.replays as u64;
        let s = log.open("network.merge");
        let acked = summary.acks.iter().try_for_each(|ack| {
            self.network.post(
                now,
                Envelope::to_dc(
                    ack.dc,
                    NetMessage::Ack {
                        dc: ack.dc,
                        epoch: ack.epoch,
                        last_seq: ack.last_seq,
                    },
                ),
            )
        });
        log.close(s);
        acked?;
        let s = log.open("pdme.supervise");
        let commands = self.pdme.supervise(now, self.dc_timeout);
        log.close(s);
        let s = log.open("network.merge");
        let posted = commands?.into_iter().try_for_each(|cmd| {
            let NetMessage::DownloadSbfr { dc, .. } = &cmd else {
                return Ok(());
            };
            let dc = *dc;
            self.network.post(now, Envelope::to_dc(dc, cmd))
        });
        log.close(s);
        posted?;
        self.evaluate_watchdog(log);
        if self.snapshot_every > 0 && self.steps.is_multiple_of(self.snapshot_every) {
            let s = log.open("pdme.checkpoint");
            let checkpoint = self.pdme.snapshot_to_store();
            log.close(s);
            checkpoint?;
        }
        self.record_flight(log);
        self.publish_serving_snapshot(log);
        Ok(summary.fused)
    }

    /// Phase 3: each live DC's reports parked as one batched frame, its
    /// heartbeat posted if due, then every due outbox frame pumped.
    fn merge(
        &mut self,
        now: SimTime,
        outputs: Vec<(usize, Result<Vec<mpros_core::ConditionReport>>)>,
    ) -> Result<()> {
        for (i, reports) in outputs {
            let reports = reports?;
            self.network
                .enqueue_report_batch(now, self.dc_ids[i], reports, self.trace_seeds[i])?;
            if now.since(self.last_heartbeat[i]) >= self.heartbeat_period {
                self.last_heartbeat[i] = now;
                self.network.post(
                    now,
                    Envelope::to_pdme(
                        self.dc_ids[i],
                        NetMessage::Heartbeat {
                            dc: self.dc_ids[i],
                            at_secs: now.as_secs(),
                        },
                    ),
                )?;
            }
        }
        self.network.pump_outboxes(now)
    }
}

fn endpoint_of(target: FaultTarget) -> Endpoint {
    match target {
        FaultTarget::Dc(dc) => Endpoint::Dc(dc),
        FaultTarget::Pdme => Endpoint::Pdme,
    }
}
