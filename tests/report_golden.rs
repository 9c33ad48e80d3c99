//! The report stream of a seeded, faulted ship, pinned against a
//! checked-in golden list.
//!
//! An 8-DC ship runs 30 survey steps over a lossy network under a DC
//! crash, a partition, a sensor dropout and a PDME crash-restore, with
//! a plant fault seeded on seven of the eight DCs: bearing bursts and
//! every tone-signature family the vibration synthesizer has. Every report the PDME holds at the end is compared with
//! `tests/golden/report_stream.txt`:
//! * report id, DC, machine, condition and timestamp exactly;
//! * severity and belief to 1e-6 (the vibration synthesizer's
//!   arithmetic may move the last digits, never the diagnosis);
//! * the SLO verdict's pass flag after every step, exactly.
//!
//! To regenerate the golden list after a deliberate behaviour change,
//! run `MPROS_BLESS_GOLDEN=1 cargo test --release --test report_golden`
//! and say why in the change log.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{DcId, FaultPlan, FaultPlanConfig, MachineCondition, SimDuration, SimTime};
use mpros::network::NetworkConfig;
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::SloPolicy;
use std::path::PathBuf;

const DCS: usize = 8;
const STEPS: usize = 30;
const TOLERANCE: f64 = 1e-6;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report_stream.txt")
}

fn faulted_ship() -> ShipboardSim {
    let dt = SimDuration::from_secs(30.0);
    let mut campaign = FaultPlanConfig::default();
    campaign.dcs = (1..=DCS as u64).map(DcId::new).collect();
    campaign.horizon = SimDuration::from_secs(20.0 * 30.0);
    campaign.min_outage = SimDuration::from_secs(30.0);
    campaign.max_outage = SimDuration::from_secs(90.0);
    let plan = FaultPlan::seeded(17, &campaign)
        .with_pdme_crash(SimTime::from_secs(300.0), SimTime::from_secs(330.0));
    let config = ShipboardSimConfig::new()
        .with_dc_count(DCS)
        .with_seed(5)
        .with_network(
            NetworkConfig::default()
                .with_drop_probability(0.1)
                .with_jitter(SimDuration::from_millis(5.0))
                .with_seed(23),
        )
        .with_fault_plan(plan)
        .with_survey_period(dt)
        .with_slo(SloPolicy::standard(60.0, 120.0, 0.5))
        .with_snapshot_every(10);
    let mut sim = ShipboardSim::new(config).expect("sim builds");
    for (idx, condition, minutes, profile) in [
        (
            1,
            MachineCondition::MotorBearingDefect,
            12.0,
            FaultProfile::EarlyOnset,
        ),
        (
            4,
            MachineCondition::CompressorBearingDefect,
            9.0,
            FaultProfile::EarlyOnset,
        ),
        (
            6,
            MachineCondition::GearToothWear,
            15.0,
            FaultProfile::Step(0.8),
        ),
        (
            0,
            MachineCondition::MotorImbalance,
            10.0,
            FaultProfile::Step(0.7),
        ),
        (
            3,
            MachineCondition::MotorMisalignment,
            10.0,
            FaultProfile::EarlyOnset,
        ),
        (
            5,
            MachineCondition::MotorRotorBarCrack,
            20.0,
            FaultProfile::Step(0.9),
        ),
        (
            7,
            MachineCondition::BearingHousingLooseness,
            14.0,
            FaultProfile::Step(0.6),
        ),
    ] {
        sim.seed_fault(
            idx,
            FaultSeed {
                condition,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(minutes),
                profile,
            },
        );
    }
    sim
}

/// One pinned report.
#[derive(Debug)]
struct Pinned {
    id: u64,
    dc: u64,
    machine: u64,
    condition: String,
    timestamp: f64,
    severity: f64,
    belief: f64,
}

/// The run's report stream and per-step SLO pass flags.
fn run() -> (Vec<Pinned>, Vec<bool>) {
    let mut sim = faulted_ship();
    let mut slo = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        sim.step(SimDuration::from_secs(30.0)).expect("step");
        slo.push(sim.slo_verdict().is_some_and(|v| v.pass));
    }
    let mut reports: Vec<Pinned> = sim
        .pdme()
        .machines()
        .into_iter()
        .flat_map(|m| sim.pdme().reports_for_machine(m))
        .map(|r| Pinned {
            id: r.id.raw(),
            dc: r.dc.raw(),
            machine: r.machine.raw(),
            condition: format!("{:?}", r.condition),
            timestamp: r.timestamp.as_secs(),
            severity: r.severity.value(),
            belief: r.belief.value(),
        })
        .collect();
    reports.sort_by(|a, b| {
        (a.timestamp, a.dc, a.id)
            .partial_cmp(&(b.timestamp, b.dc, b.id))
            .expect("finite timestamps")
    });
    (reports, slo)
}

fn render(reports: &[Pinned], slo: &[bool]) -> String {
    let mut text = String::new();
    for r in reports {
        text.push_str(&format!(
            "report {} {} {} {} {:?} {:.12} {:.12}\n",
            r.id, r.dc, r.machine, r.condition, r.timestamp, r.severity, r.belief
        ));
    }
    for (step, pass) in slo.iter().enumerate() {
        text.push_str(&format!("slo {step} {pass}\n"));
    }
    text
}

fn parse(text: &str) -> (Vec<Pinned>, Vec<bool>) {
    let (mut reports, mut slo) = (Vec::new(), Vec::new());
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> f64 { fields[i].parse().expect("golden number") };
        match fields[0] {
            "report" => reports.push(Pinned {
                id: fields[1].parse().expect("golden id"),
                dc: fields[2].parse().expect("golden dc"),
                machine: fields[3].parse().expect("golden machine"),
                condition: fields[4].to_string(),
                timestamp: num(5),
                severity: num(6),
                belief: num(7),
            }),
            "slo" => slo.push(fields[2].parse().expect("golden flag")),
            other => panic!("unknown golden line kind {other:?}"),
        }
    }
    (reports, slo)
}

#[test]
fn faulted_ship_report_stream_matches_the_golden_list() {
    let (reports, slo) = run();
    assert!(
        reports.len() > 10,
        "the campaign should produce a real report stream, got {}",
        reports.len()
    );
    if std::env::var_os("MPROS_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path().parent().expect("has a parent")).expect("mkdir");
        std::fs::write(golden_path(), render(&reports, &slo)).expect("golden written");
        return;
    }
    let text = std::fs::read_to_string(golden_path()).expect("golden list is checked in");
    let (golden, golden_slo) = parse(&text);
    assert_eq!(
        reports.len(),
        golden.len(),
        "report count differs from the golden list"
    );
    for (got, want) in reports.iter().zip(&golden) {
        let same = (
            got.id,
            got.dc,
            got.machine,
            &got.condition,
            got.timestamp.to_bits(),
        ) == (
            want.id,
            want.dc,
            want.machine,
            &want.condition,
            want.timestamp.to_bits(),
        );
        assert!(
            same,
            "report identity differs:\n got {got:?}\nwant {want:?}"
        );
        assert!(
            (got.severity - want.severity).abs() <= TOLERANCE,
            "severity of report {} differs: {got:?} vs {want:?}",
            got.id
        );
        assert!(
            (got.belief - want.belief).abs() <= TOLERANCE,
            "belief of report {} differs: {got:?} vs {want:?}",
            got.id
        );
    }
    assert_eq!(slo, golden_slo, "per-step SLO pass flags differ");
}
