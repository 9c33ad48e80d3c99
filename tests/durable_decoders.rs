//! Totality of the durable plane's decoders.
//!
//! A restore reads bytes that a crash may have torn or a bad medium may
//! have corrupted, so every decoder on that path must be *total*: for any
//! input it returns `Err`, or an `Ok` value whose canonical encoding is
//! exactly the bytes it consumed. None may panic or abort on an absurd
//! length prefix. The inputs are arbitrary byte strings plus single-byte
//! mutations (overwrite, truncate, insert) of valid encodings, which
//! reach far deeper into each decoder than uniform noise does.

use mpros::core::{
    Belief, ConditionReport, DcId, Durable, MachineCondition, MachineId, PrognosticVector,
    ReportId, SimDuration, SimTime,
};
use mpros::network::{BatchEntry, NetMessage};
use mpros::pdme::{
    Historian, MaintenanceRecord, Outcome, PdmeExecutive, PdmeWalRecord, Supervisor,
};
use mpros::store::{
    encode_frame, scan_frame, scan_log, Frame, FrameScan, RecoveryManager, FRAME_HEADER_LEN,
    FRAME_TRAILER_LEN,
};
use mpros::telemetry::{SpanId, Telemetry, TraceContext, TraceId};
use proptest::prelude::*;
use std::sync::OnceLock;

fn sample_report() -> ConditionReport {
    ConditionReport::builder(
        MachineId::new(3),
        MachineCondition::MotorBearingDefect,
        Belief::new(0.7),
    )
    .dc(DcId::new(2))
    .severity(0.4)
    .timestamp(SimTime::from_secs(61.5))
    .explanation("BPFO line in the envelope spectrum")
    .prognostic(PrognosticVector::from_months(&[(1.0, 0.2), (6.0, 0.9)]).expect("monotone"))
    .build()
}

fn sample_historian() -> Historian {
    let mut historian = Historian::new();
    historian.component_installed(
        MachineId::new(1),
        MachineCondition::MotorImbalance,
        SimTime::from_secs(5.0),
    );
    historian.record(MaintenanceRecord {
        at: SimTime::from_secs(90.0),
        machine: MachineId::new(2),
        condition: MachineCondition::GearToothWear,
        outcome: Outcome::Confirmed,
        service_life: Some(SimDuration::from_hours(300.0)),
    });
    historian.record(MaintenanceRecord {
        at: SimTime::from_secs(120.0),
        machine: MachineId::new(1),
        condition: MachineCondition::MotorImbalance,
        outcome: Outcome::Reversed,
        service_life: None,
    });
    historian
}

fn sample_supervisor() -> Supervisor {
    let mut supervisor = Supervisor::new();
    supervisor.assign(DcId::new(1), vec![MachineId::new(1)], vec![(0, vec![9, 8])]);
    supervisor.assign(
        DcId::new(4),
        vec![MachineId::new(2), MachineId::new(3)],
        Vec::new(),
    );
    supervisor
}

fn sample_records() -> Vec<PdmeWalRecord> {
    vec![
        PdmeWalRecord::RegisterMachine {
            machine: MachineId::new(1),
            name: "chiller".into(),
        },
        PdmeWalRecord::AssignDc {
            dc: DcId::new(2),
            machines: vec![MachineId::new(1)],
            sbfr_images: vec![(0, vec![1, 2, 3])],
        },
        PdmeWalRecord::Ingest {
            now: SimTime::from_secs(12.5),
            msgs: vec![
                NetMessage::Report(sample_report()),
                NetMessage::Heartbeat {
                    dc: DcId::new(2),
                    at_secs: 12.0,
                },
            ],
        },
        PdmeWalRecord::Supervise {
            now: SimTime::from_secs(13.0),
            timeout: SimDuration::from_secs(30.0),
        },
        PdmeWalRecord::Maintenance(MaintenanceRecord {
            at: SimTime::from_secs(99.0),
            machine: MachineId::new(1),
            condition: MachineCondition::MotorBearingDefect,
            outcome: Outcome::Confirmed,
            service_life: Some(SimDuration::from_hours(100.0)),
        }),
        PdmeWalRecord::ComponentInstalled {
            machine: MachineId::new(1),
            condition: MachineCondition::MotorBearingDefect,
            at: SimTime::from_secs(99.0),
        },
        PdmeWalRecord::FaultTransition {
            at: SimTime::from_secs(40.0),
            label: "pdme_crash".into(),
            start: true,
        },
    ]
}

/// A full PDME snapshot with state in every section: registered
/// machines and their reports and fused beliefs (OOSM, fusion), a DC
/// assignment and a degraded DC (supervisor), a maintenance record
/// (historian), liveness entries and a batch replay guard.
fn sample_pdme_snapshot() -> &'static [u8] {
    static SNAPSHOT: OnceLock<Vec<u8>> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut pdme = PdmeExecutive::new();
        pdme.register_machine(MachineId::new(3), "chiller 3");
        pdme.register_machine(MachineId::new(4), "chiller 4");
        pdme.assign_dc(
            DcId::new(2),
            vec![MachineId::new(3), MachineId::new(4)],
            vec![(0, vec![9, 8, 7])],
        );
        pdme.assign_dc(DcId::new(5), vec![MachineId::new(4)], Vec::new());
        let mut batched = sample_report();
        batched.id = ReportId::new(2);
        batched.machine = MachineId::new(4);
        batched.condition = MachineCondition::GearToothWear;
        let batch = NetMessage::ReportBatch {
            dc: DcId::new(2),
            epoch: 1,
            entries: vec![BatchEntry {
                seq: 1,
                trace: TraceContext {
                    trace: TraceId(11),
                    parent: SpanId(12),
                },
                report: batched,
            }],
        };
        let msgs = [
            NetMessage::Report(sample_report()),
            batch,
            NetMessage::Heartbeat {
                dc: DcId::new(5),
                at_secs: 60.0,
            },
        ];
        pdme.ingest(&msgs, SimTime::from_secs(62.0))
            .expect("ingests");
        pdme.ingest(&msgs[2..], SimTime::from_secs(200.0))
            .expect("ingests");
        pdme.supervise(SimTime::from_secs(200.0), SimDuration::from_secs(30.0))
            .expect("supervises");
        pdme.record_maintenance(MaintenanceRecord {
            at: SimTime::from_secs(210.0),
            machine: MachineId::new(3),
            condition: MachineCondition::MotorBearingDefect,
            outcome: Outcome::Confirmed,
            service_life: Some(SimDuration::from_hours(400.0)),
        })
        .expect("records");
        pdme.snapshot_bytes()
    })
}

/// A small valid log: a record, a snapshot, then two more records.
fn sample_log() -> Vec<u8> {
    let records = sample_records();
    let frames = [
        Frame {
            kind: records[0].kind(),
            seq: 1,
            payload: records[0].payload().expect("encodes"),
        },
        Frame {
            kind: 0,
            seq: 2,
            payload: sample_supervisor().to_durable_bytes(),
        },
        Frame {
            kind: records[3].kind(),
            seq: 3,
            payload: records[3].payload().expect("encodes"),
        },
        Frame {
            kind: records[6].kind(),
            seq: 4,
            payload: records[6].payload().expect("encodes"),
        },
    ];
    frames.iter().flat_map(encode_frame).collect()
}

/// One edit of a valid encoding: overwrite, truncate at, or insert
/// before position `at` (taken modulo the length).
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Overwrite { at: usize, byte: u8 },
    Truncate { at: usize },
    Insert { at: usize, byte: u8 },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..4096, 0u8..=255).prop_map(|(at, byte)| Mutation::Overwrite { at, byte }),
        (0usize..4096).prop_map(|at| Mutation::Truncate { at }),
        (0usize..4096, 0u8..=255).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
    ]
}

fn mutate(mut bytes: Vec<u8>, mutation: Mutation) -> Vec<u8> {
    let len = bytes.len().max(1);
    match mutation {
        Mutation::Overwrite { at, byte } => {
            if !bytes.is_empty() {
                bytes[at % len] = byte;
            }
        }
        Mutation::Truncate { at } => bytes.truncate(at % len),
        Mutation::Insert { at, byte } => bytes.insert(at % (bytes.len() + 1), byte),
    }
    bytes
}

/// Inputs for one case: arbitrary bytes, and a mutation of `valid`.
fn inputs(noise: &[u8], valid: Vec<u8>, mutation: Mutation) -> [Vec<u8>; 2] {
    [noise.to_vec(), mutate(valid, mutation)]
}

/// `T` decodes `bytes` to `Err`, or to a value that re-encodes to them.
fn assert_total<T: Durable>(bytes: &[u8], what: &str) {
    if let Ok(value) = T::from_durable_bytes(bytes) {
        assert_eq!(
            value.to_durable_bytes(),
            bytes,
            "{what}: decoded value re-encodes differently"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn durable_state_decoders_are_total(
        noise in proptest::collection::vec(0u8..=255, 0..256),
        mutation in arb_mutation()
    ) {
        for bytes in inputs(&noise, sample_report().to_durable_bytes(), mutation) {
            assert_total::<ConditionReport>(&bytes, "ConditionReport");
        }
        for bytes in inputs(&noise, sample_historian().to_durable_bytes(), mutation) {
            assert_total::<Historian>(&bytes, "Historian");
        }
        for bytes in inputs(&noise, sample_supervisor().to_durable_bytes(), mutation) {
            assert_total::<Supervisor>(&bytes, "Supervisor");
        }
    }

    #[test]
    fn pdme_snapshot_decoder_is_total(
        noise in proptest::collection::vec(0u8..=255, 0..512),
        mutation in arb_mutation()
    ) {
        for bytes in inputs(&noise, sample_pdme_snapshot().to_vec(), mutation) {
            if let Ok(pdme) = PdmeExecutive::from_snapshot_bytes(&bytes) {
                prop_assert_eq!(pdme.snapshot_bytes(), bytes);
            }
        }
    }

    #[test]
    fn journal_frame_decoder_is_total(
        which in 0usize..7,
        kind in 0u8..=255,
        noise in proptest::collection::vec(0u8..=255, 0..256),
        mutation in arb_mutation()
    ) {
        let record = &sample_records()[which];
        let valid = record.payload().expect("encodes");
        let [noise, mutated] = inputs(&noise, valid, mutation);
        // Noise under an arbitrary kind, and a mutated payload under its
        // own kind (so the decoder gets past the kind dispatch).
        for (kind, payload) in [(kind, noise), (record.kind(), mutated)] {
            let frame = Frame { kind, seq: 1, payload };
            if let Ok(back) = PdmeWalRecord::decode_frame(&frame) {
                prop_assert_eq!(back.kind(), frame.kind);
                prop_assert_eq!(back.payload().expect("re-encodes"), frame.payload);
            }
        }
    }

    #[test]
    fn recovery_scan_is_total(
        noise in proptest::collection::vec(0u8..=255, 0..256),
        mutation in arb_mutation()
    ) {
        let recovery = RecoveryManager::new(&Telemetry::new());
        for bytes in inputs(&noise, sample_log(), mutation) {
            let recovered = recovery.recover(&bytes);
            let valid = recovered.valid_len as usize;
            prop_assert_eq!(valid as u64 + recovered.dropped_bytes, bytes.len() as u64);
            // The valid prefix is exactly the scanned frames, re-encoded.
            let rescanned: Vec<u8> = scan_log(&bytes).frames.iter().flat_map(encode_frame).collect();
            prop_assert_eq!(&rescanned[..], &bytes[..valid]);
            // The replay tail re-encodes to the end of that prefix, and a
            // recovered snapshot is the snapshot frame just before it.
            let tail: Vec<u8> = recovered.tail.iter().flat_map(encode_frame).collect();
            prop_assert!(tail.len() <= valid);
            let tail_start = valid - tail.len();
            prop_assert_eq!(&tail[..], &bytes[tail_start..valid]);
            if let Some(snapshot) = &recovered.snapshot {
                let frame_len = FRAME_HEADER_LEN + snapshot.len() + FRAME_TRAILER_LEN;
                prop_assert!(frame_len <= tail_start);
                match scan_frame(&bytes[tail_start - frame_len..tail_start]) {
                    FrameScan::Valid(frame, consumed) => {
                        prop_assert!(frame.is_snapshot());
                        prop_assert_eq!(&frame.payload, snapshot);
                        prop_assert_eq!(consumed, frame_len);
                    }
                    other => prop_assert!(false, "snapshot frame did not rescan: {:?}", other),
                }
            }
        }
    }
}

/// Every single-byte edit of a real snapshot, at every position: the
/// truncation, overwrites with a few telling values (zero, `z` above
/// every name's letters, `0xff` past every tag, the neighbours of the
/// original byte) and inserts. Random cases rarely land on the one
/// byte that breaks an ordering or a count, so this walks them all.
#[test]
fn pdme_snapshot_decoder_is_total_under_every_single_byte_edit() {
    let valid = sample_pdme_snapshot();
    let check = |bytes: &[u8], what: &str| {
        if let Ok(pdme) = PdmeExecutive::from_snapshot_bytes(bytes) {
            assert!(
                pdme.snapshot_bytes() == bytes,
                "{what}: decoded snapshot re-encodes differently"
            );
        }
    };
    for at in 0..valid.len() {
        check(&valid[..at], &format!("truncate at {at}"));
        let orig = valid[at];
        for byte in [0x00, b'z', 0xff, orig.wrapping_add(1), orig.wrapping_sub(1)] {
            let mut bytes = valid.to_vec();
            bytes[at] = byte;
            check(&bytes, &format!("overwrite {at} with {byte:#04x}"));
        }
        for byte in [0x00, b'z'] {
            let mut bytes = valid.to_vec();
            bytes.insert(at, byte);
            check(&bytes, &format!("insert {byte:#04x} at {at}"));
        }
    }
}
