//! E7 performance leg: the Data Concentrator's per-survey and
//! per-process-sample costs — acquisition, feature extraction, rule
//! evaluation — that set the "millions of data points per second"
//! aggregate in `exp_throughput`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mpros_bench::labeled_survey;
use mpros_chiller::plant::{ChillerPlant, PlantConfig};
use mpros_chiller::vibration::AccelLocation;
use mpros_chiller::{FaultProfile, FaultSeed};
use mpros_core::{MachineCondition, MachineId, SimDuration, SimTime};
use mpros_dc::{AcquisitionChain, HwConfig};
use mpros_dli::{DliExpertSystem, SpectralFeatures};
use mpros_fuzzy::FuzzyDiagnostics;
use std::hint::black_box;

fn bench_acquisition(c: &mut Criterion) {
    let plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 3));
    let n = 32_768usize;
    let mut group = c.benchmark_group("dc_acquisition");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("one_channel_32k", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t += 2.0;
            black_box(plant.sample_vibration(
                AccelLocation::MotorDriveEnd,
                SimTime::from_secs(t),
                n,
                16_384.0,
            ))
        });
    });
    // A whole 5-channel survey through the acquisition chain on a plant
    // whose compressor-bearing defect adds four tones to every channel.
    let mut faulted = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 3));
    faulted.seed_fault(FaultSeed {
        condition: MachineCondition::CompressorBearingDefect,
        onset: SimTime::ZERO,
        time_to_failure: SimDuration::from_minutes(10.0),
        profile: FaultProfile::Step(1.0),
    });
    let mut chain = AcquisitionChain::new(HwConfig::standard()).expect("standard hardware");
    let mut blocks = Vec::new();
    group.throughput(Throughput::Elements((5 * n) as u64));
    group.bench_function("survey_5ch_32k_compressor_bearing", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t += 30.0;
            chain.survey_into(&faulted, SimTime::from_secs(t), &mut blocks);
            black_box(blocks.len())
        });
    });
    group.finish();
}

fn bench_feature_extraction_and_rules(c: &mut Criterion) {
    let survey = labeled_survey(
        Some(MachineCondition::MotorBearingDefect),
        0.7,
        0.9,
        5,
        32_768,
    );
    let dli = DliExpertSystem::new();
    c.bench_function("dli_feature_extraction_5ch_32k", |b| {
        b.iter(|| black_box(SpectralFeatures::extract(black_box(&survey)).expect("valid")))
    });
    let features = SpectralFeatures::extract(&survey).expect("valid");
    c.bench_function("dli_rule_evaluation", |b| {
        b.iter(|| black_box(dli.diagnose(black_box(&features))))
    });
}

fn bench_fuzzy_window(c: &mut Criterion) {
    let plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 3));
    let window: Vec<_> = (0..40)
        .map(|i| plant.sample_process(SimTime::from_secs(i as f64 * 0.25)))
        .collect();
    let fuzzy = FuzzyDiagnostics::new();
    c.bench_function("fuzzy_analyze_40_sample_window", |b| {
        b.iter(|| black_box(fuzzy.analyze(black_box(&window)).expect("valid")))
    });
}

criterion_group!(
    benches,
    bench_acquisition,
    bench_feature_extraction_and_rules,
    bench_fuzzy_window
);
criterion_main!(benches);
