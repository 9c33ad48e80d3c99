//! Allocation-regression gate for the DSP hot path.
//!
//! A counting global allocator wraps the system allocator; the test runs
//! one full DC survey pass (acquisition → spectral features → WNN
//! preprocessing) to warm every scratch buffer and cached plan, then
//! runs a second pass at a different sim time with counting enabled and
//! asserts that the steady state performs **zero** heap allocations.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mpros_chiller::plant::{ChillerPlant, PlantConfig};
use mpros_chiller::vibration::AccelLocation;
use mpros_core::{MachineId, SimTime};
use mpros_dc::hw::{AcquisitionChain, HwConfig};
use mpros_dli::{SpectralFeatures, SurveyScratch, VibrationSurvey};
use mpros_signal::features::WaveformStats;
use mpros_signal::DspContext;
use mpros_wnn::WnnConfig;

/// Wraps [`System`]; counts alloc/realloc/alloc_zeroed while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One steady-state survey pass: acquire every channel into the reused
/// workspace, compute each block's waveform statistics, extract spectral
/// features, and build the WNN input vector — the exact per-step DSP
/// work a `DataConcentrator` performs.
#[allow(clippy::too_many_arguments)]
fn survey_pass(
    plant: &ChillerPlant,
    chain: &mut AcquisitionChain,
    survey: &mut VibrationSurvey,
    block_stats: &mut Vec<WaveformStats>,
    ctx: &mut DspContext,
    scratch: &mut SurveyScratch,
    features: &mut SpectralFeatures,
    wnn: &WnnConfig,
    wnn_features: &mut Vec<f64>,
    t0: SimTime,
) {
    survey.load = plant.load_at(t0);
    chain.survey_into(plant, t0, &mut survey.blocks);
    block_stats.clear();
    block_stats.extend(survey.blocks.iter().map(|(_, b)| WaveformStats::of(b)));
    SpectralFeatures::extract_into(ctx, survey, block_stats, scratch, features)
        .expect("feature extraction");
    wnn.extract_features_into(ctx, &survey.blocks, survey.load, wnn_features)
        .expect("wnn preprocessing");
}

#[test]
fn steady_state_survey_performs_zero_dsp_allocations() {
    let plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 42));
    let hw = HwConfig::standard();
    let channels = hw.channels.len();
    let mut chain = AcquisitionChain::new(hw).expect("chain builds");

    let mut survey = VibrationSurvey {
        train: plant.train().clone(),
        load: 0.0,
        sample_rate: 16_384.0,
        blocks: Vec::new(),
    };
    while survey.blocks.len() < channels {
        survey
            .blocks
            .push((AccelLocation::MotorDriveEnd, Vec::new()));
    }
    let mut block_stats = Vec::new();
    let mut ctx = DspContext::new();
    let mut scratch = SurveyScratch::default();
    let mut features = SpectralFeatures::default();
    let wnn = WnnConfig::small_test();
    let mut wnn_features = Vec::new();

    // Cold pass: sizes every block, scratch buffer, and FFT plan.
    survey_pass(
        &plant,
        &mut chain,
        &mut survey,
        &mut block_stats,
        &mut ctx,
        &mut scratch,
        &mut features,
        &wnn,
        &mut wnn_features,
        SimTime::from_secs(0.0),
    );
    let cold_stats = ctx.stats();
    assert!(cold_stats.plans_created > 0, "cold pass must create plans");

    // Warm pass at a different instant: everything must be reused.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    survey_pass(
        &plant,
        &mut chain,
        &mut survey,
        &mut block_stats,
        &mut ctx,
        &mut scratch,
        &mut features,
        &wnn,
        &mut wnn_features,
        SimTime::from_secs(120.0),
    );
    ARMED.store(false, Ordering::SeqCst);
    let heap_hits = ALLOCATIONS.load(Ordering::SeqCst);

    let warm_stats = ctx.stats();
    assert_eq!(
        warm_stats.plans_created, cold_stats.plans_created,
        "warm pass must not create new FFT plans"
    );
    assert!(
        warm_stats.scratch_reuses > cold_stats.scratch_reuses,
        "warm pass must reuse scratch buffers"
    );
    assert_eq!(
        heap_hits, 0,
        "steady-state DC survey allocated {heap_hits} times in the DSP path \
         (plans {:?} -> {:?})",
        cold_stats, warm_stats
    );
}
