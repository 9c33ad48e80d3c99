//! Vibration-waveform synthesis.
//!
//! Produces the "dynamic vibration signals ... acquired using high
//! sampling rates" (§2) that the DC's spectrum analyzer card digitizes.
//! Each accelerometer location sees a healthy baseline (residual 1×,
//! gear-mesh tone at the gear case, broadband noise) plus, for every
//! active fault, that fault's canonical signature scaled by severity and
//! attenuated by the structural coupling between the fault's source and
//! the measurement location.
//!
//! Signatures implemented (standard vibration-analysis practice):
//! * imbalance → 1× shaft radial tone;
//! * misalignment → 2× dominant with elevated 1×;
//! * rolling-element defects → periodic exponentially-decaying resonance
//!   bursts at BPFO/BPFI rate (impulsive: raises kurtosis and envelope
//!   spectrum lines);
//! * rotor-bar crack → pole-pass sidebands around 1×;
//! * gear tooth wear → gear-mesh harmonics with shaft-rate sidebands;
//! * housing looseness → running-speed harmonic series plus ½× subharmonic;
//! * surge → low-frequency (≈ 4 Hz) pulsation at the compressor.

use crate::fault::FaultState;
use crate::machine::{MachineTrain, RotatingElement};
use mpros_core::{MachineCondition, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Accelerometer mounting locations on the chiller train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccelLocation {
    /// Motor drive-end bearing housing.
    MotorDriveEnd,
    /// Motor non-drive-end bearing housing.
    MotorNonDriveEnd,
    /// Gear case.
    GearCase,
    /// Compressor bearing housing.
    CompressorBearing,
    /// Chilled-water pump bearing housing.
    PumpBearing,
}

impl AccelLocation {
    /// All locations, in channel order.
    pub const ALL: [AccelLocation; 5] = [
        AccelLocation::MotorDriveEnd,
        AccelLocation::MotorNonDriveEnd,
        AccelLocation::GearCase,
        AccelLocation::CompressorBearing,
        AccelLocation::PumpBearing,
    ];

    /// The rotating element this location is mounted on.
    pub fn element(self) -> RotatingElement {
        match self {
            AccelLocation::MotorDriveEnd | AccelLocation::MotorNonDriveEnd => {
                RotatingElement::Motor
            }
            AccelLocation::GearCase => RotatingElement::GearSet,
            AccelLocation::CompressorBearing => RotatingElement::Compressor,
            AccelLocation::PumpBearing => RotatingElement::ChilledWaterPump,
        }
    }

    /// Structural transmissibility from the source of `condition` to this
    /// location (1.0 at the source, attenuated across the train). The
    /// paper's OOSM "proximity" relation carries the same physics at the
    /// model level.
    pub fn coupling(self, condition: MachineCondition) -> f64 {
        use AccelLocation::*;
        use MachineCondition::*;
        let source: AccelLocation = match condition {
            MotorImbalance | MotorMisalignment | MotorBearingDefect | MotorRotorBarCrack => {
                MotorDriveEnd
            }
            GearToothWear => GearCase,
            CompressorBearingDefect | CompressorSurge => CompressorBearing,
            BearingHousingLooseness => MotorDriveEnd,
            // Process faults have no direct vibration source.
            MotorWindingInsulation | RefrigerantLeak | CondenserFouling | LubeOilDegradation => {
                return 0.0
            }
        };
        // Hop distance along the train: motor DE/NDE adjacent, then gear,
        // then compressor; the pump is on a separate skid.
        fn pos(l: AccelLocation) -> i32 {
            match l {
                MotorNonDriveEnd => 0,
                MotorDriveEnd => 1,
                GearCase => 2,
                CompressorBearing => 3,
                PumpBearing => 6,
            }
        }
        let hops = (pos(self) - pos(source)).unsigned_abs();
        0.5f64.powi(hops as i32)
    }
}

/// Deterministic vibration synthesizer for one machine train.
#[derive(Debug, Clone)]
pub struct VibrationSynthesizer {
    train: MachineTrain,
    /// Master seed: same seed ⇒ identical waveforms.
    seed: u64,
    /// Broadband noise RMS, g.
    pub noise_rms: f64,
    /// Healthy residual 1× amplitude, g.
    pub baseline_1x: f64,
}

/// Full-severity signature amplitudes, g.
const IMBALANCE_AMP: f64 = 0.60;
const MISALIGN_AMP: f64 = 0.45;
const BEARING_BURST_AMP: f64 = 0.50;
const COMP_BEARING_TONE_AMP: f64 = 0.35;
const ROTOR_BAR_SIDEBAND_AMP: f64 = 0.25;
const GEAR_WEAR_AMP: f64 = 0.40;
const LOOSENESS_AMP: f64 = 0.35;
const SURGE_AMP: f64 = 0.80;
/// Structural resonance excited by bearing impacts, Hz.
const MOTOR_RESONANCE_HZ: f64 = 2_400.0;

impl VibrationSynthesizer {
    /// Create a synthesizer for `train` with deterministic `seed`.
    pub fn new(train: MachineTrain, seed: u64) -> Self {
        VibrationSynthesizer {
            train,
            seed,
            noise_rms: 0.02,
            baseline_1x: 0.05,
        }
    }

    /// The kinematic train description.
    pub fn train(&self) -> &MachineTrain {
        &self.train
    }

    /// Synthesize `n` samples at `sample_rate` Hz from `location`,
    /// starting at absolute time `t0`, with machine `load` (0..=1) and the
    /// given fault state. Deterministic in all arguments.
    pub fn sample_block(
        &self,
        location: AccelLocation,
        t0: SimTime,
        n: usize,
        sample_rate: f64,
        load: f64,
        faults: &FaultState,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        self.sample_block_into(location, t0, n, sample_rate, load, faults, &mut out);
        out
    }

    /// [`VibrationSynthesizer::sample_block`] writing into a
    /// caller-provided buffer (cleared and refilled; zero allocations
    /// once `out` has capacity). Waveforms are bit-identical to
    /// [`VibrationSynthesizer::sample_block`]: the noise stream is keyed
    /// on `(seed, location, t0)` only, never on the buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_block_into(
        &self,
        location: AccelLocation,
        t0: SimTime,
        n: usize,
        sample_rate: f64,
        load: f64,
        faults: &FaultState,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(n, 0.0);
        let out = &mut out[..];
        let dt = 1.0 / sample_rate;
        let shaft = self.train.shaft_hz(location.element(), load);

        // Healthy baseline: residual 1× plus (at the gear case) the mesh tone.
        add_tone(out, t0, dt, shaft, self.baseline_1x, 0.3);
        if location == AccelLocation::GearCase {
            add_tone(out, t0, dt, self.train.gear_mesh_hz(load), 0.04, 1.1);
        }
        if location == AccelLocation::PumpBearing {
            add_tone(out, t0, dt, self.train.pump_vane_pass_hz(), 0.03, 2.0);
        }

        // Fault signatures.
        for c in MachineCondition::ALL {
            let sev = faults.severity(c, t0);
            if sev <= 0.0 {
                continue;
            }
            let k = location.coupling(c);
            if k <= 0.0 {
                continue;
            }
            self.add_fault_signature(out, location, t0, dt, load, c, sev * k);
        }

        // Broadband noise, deterministic per (seed, location, block start).
        let mut rng = self.block_rng(location, t0);
        add_gaussian_noise(out, &mut rng, self.noise_rms);
    }

    fn block_rng(&self, location: AccelLocation, t0: SimTime) -> StdRng {
        // Mix the master seed, channel, and block start into one stream.
        let loc = AccelLocation::ALL
            .iter()
            .position(|l| *l == location)
            .expect("known location") as u64;
        let t_bits = t0.as_secs().to_bits();
        let mixed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(loc.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(t_bits.rotate_left(17));
        StdRng::seed_from_u64(mixed)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_fault_signature(
        &self,
        out: &mut [f64],
        location: AccelLocation,
        t0: SimTime,
        dt: f64,
        load: f64,
        condition: MachineCondition,
        strength: f64,
    ) {
        use MachineCondition::*;
        let motor = self.train.motor_hz(load);
        match condition {
            MotorImbalance => {
                add_tone(out, t0, dt, motor, IMBALANCE_AMP * strength, 0.0);
            }
            MotorMisalignment => {
                add_tone(out, t0, dt, 2.0 * motor, MISALIGN_AMP * strength, 0.7);
                add_tone(out, t0, dt, motor, 0.3 * MISALIGN_AMP * strength, 0.9);
            }
            MotorBearingDefect => {
                let bpfo = self.train.motor_bearing.bpfo(motor);
                add_bearing_bursts(
                    out,
                    t0,
                    dt,
                    bpfo,
                    MOTOR_RESONANCE_HZ,
                    BEARING_BURST_AMP * strength,
                );
            }
            CompressorBearingDefect => {
                // On the high-speed compressor shaft the BPFI (≈ 1.1 kHz)
                // is commensurate with the structural ring-down, so the
                // defect expresses as direct non-synchronous spectral
                // tones with shaft-rate modulation sidebands rather than
                // resolvable impact bursts.
                let comp = self.train.compressor_hz(load);
                let bpfi = self.train.compressor_bearing.bpfi(comp);
                let amp = COMP_BEARING_TONE_AMP * strength;
                add_tone(out, t0, dt, bpfi, amp, 0.4);
                add_tone(out, t0, dt, 2.0 * bpfi, 0.4 * amp, 1.1);
                add_tone(out, t0, dt, bpfi - comp, 0.3 * amp, 1.9);
                add_tone(out, t0, dt, bpfi + comp, 0.3 * amp, 2.4);
            }
            MotorRotorBarCrack => {
                let pp = self.train.pole_pass_hz(load).max(0.5);
                let amp = ROTOR_BAR_SIDEBAND_AMP * strength;
                add_tone(out, t0, dt, motor - pp, amp, 1.3);
                add_tone(out, t0, dt, motor + pp, amp, 2.1);
                add_tone(out, t0, dt, motor, 0.4 * amp, 0.2);
            }
            GearToothWear => {
                let gmf = self.train.gear_mesh_hz(load);
                let amp = GEAR_WEAR_AMP * strength;
                add_tone(out, t0, dt, gmf, amp, 0.0);
                add_tone(out, t0, dt, 2.0 * gmf, 0.5 * amp, 0.5);
                // Shaft-rate sidebands around the mesh.
                add_tone(out, t0, dt, gmf - motor, 0.4 * amp, 1.0);
                add_tone(out, t0, dt, gmf + motor, 0.4 * amp, 1.5);
            }
            BearingHousingLooseness => {
                let amp = LOOSENESS_AMP * strength;
                for h in 1..=6 {
                    add_tone(out, t0, dt, h as f64 * motor, amp / h as f64, h as f64);
                }
                add_tone(out, t0, dt, 0.5 * motor, 0.3 * amp, 0.1);
            }
            CompressorSurge => {
                if location == AccelLocation::CompressorBearing {
                    add_tone(out, t0, dt, 4.0, SURGE_AMP * strength, 0.0);
                    add_tone(out, t0, dt, 8.0, 0.4 * SURGE_AMP * strength, 0.8);
                }
            }
            MotorWindingInsulation | RefrigerantLeak | CondenserFouling | LubeOilDegradation => { /* process-only faults */
            }
        }
    }
}

/// Samples per synthesis chunk. Every chunk starts from one exact libm
/// anchor; the samples inside it come from a per-call table.
const CHUNK: usize = 64;

/// Add a sinusoid to a block.
///
/// Chunk-anchored: each 64-sample chunk takes one exact `sin_cos` of its
/// start argument `w·(base + i0·dt) + phase`, and angle addition against
/// the table `amp·(sin, cos)(w·j·dt)` gives the samples inside it. No
/// state carries from one chunk to the next, so rounding error cannot
/// accumulate (DESIGN.md §10.6 has the algebra and the error bound).
fn add_tone(out: &mut [f64], t0: SimTime, dt: f64, freq: f64, amp: f64, phase: f64) {
    if amp == 0.0 || freq <= 0.0 {
        return;
    }
    let w = 2.0 * PI * freq;
    let base = t0.as_secs();
    let (mut sin_j, mut cos_j) = ([0.0; CHUNK], [0.0; CHUNK]);
    for j in 0..CHUNK {
        let (s, c) = (w * (j as f64 * dt)).sin_cos();
        sin_j[j] = amp * s;
        cos_j[j] = amp * c;
    }
    for (k, chunk) in out.chunks_mut(CHUNK).enumerate() {
        let (s0, c0) = (w * (base + (k * CHUNK) as f64 * dt) + phase).sin_cos();
        for ((o, &sj), &cj) in chunk.iter_mut().zip(&sin_j).zip(&cos_j) {
            *o += s0 * cj + c0 * sj;
        }
    }
}

/// Add periodic exponentially decaying resonance bursts (bearing-impact
/// model): an impulse train at `rate` Hz ringing a resonance at `res_hz`,
/// `amp·e^{-t/τ}·sin(w·t)` for `t ≥ 0` after each impact.
///
/// Chunk-anchored like [`add_tone`]: each chunk of a burst takes one
/// exact `exp` and `sin_cos` at its first sample's `t`, and the damped
/// table `e^{-j·dt/τ}·(cos, sin)(w·j·dt)` gives the rest.
fn add_bearing_bursts(out: &mut [f64], t0: SimTime, dt: f64, rate: f64, res_hz: f64, amp: f64) {
    if amp == 0.0 || rate <= 0.0 {
        return;
    }
    let period = 1.0 / rate;
    let tau = period / 8.0; // burst decays well before the next impact
    let w = 2.0 * PI * res_hz;
    let base = t0.as_secs();
    let block_len = out.len() as f64 * dt;
    let (mut damped_cos, mut damped_sin) = ([0.0; CHUNK], [0.0; CHUNK]);
    for j in 0..CHUNK {
        let u = j as f64 * dt;
        let decay = (-u / tau).exp();
        let (s, c) = (w * u).sin_cos();
        damped_cos[j] = decay * c;
        damped_sin[j] = decay * s;
    }
    // Bursts whose ring-down can reach into this block.
    let first = ((base - 6.0 * tau) / period).floor() as i64;
    let last = ((base + block_len) / period).ceil() as i64;
    for k in first..=last {
        let impact = k as f64 * period;
        let since_impact = |i: usize| base + i as f64 * dt - impact;
        // Index range influenced by this burst.
        let mut start = (((impact - base) / dt).ceil()).max(0.0) as usize;
        let end = ((((impact + 6.0 * tau) - base) / dt).ceil()).max(0.0) as usize;
        let end = end.min(out.len());
        // `since_impact` is nondecreasing in `i`, so the samples with
        // `t ≥ 0` are a suffix of the window.
        while start < end && since_impact(start) < 0.0 {
            start += 1;
        }
        if start >= end {
            continue;
        }
        for (c, chunk) in out[start..end].chunks_mut(CHUNK).enumerate() {
            let t = since_impact(start + c * CHUNK);
            let a = amp * (-t / tau).exp();
            let (s0, c0) = (w * t).sin_cos();
            let (s0, c0) = (a * s0, a * c0);
            for ((o, &dc), &ds) in chunk.iter_mut().zip(&damped_cos).zip(&damped_sin) {
                *o += s0 * dc + c0 * ds;
            }
        }
    }
}

/// Add white Gaussian noise (Box–Muller over the crate-approved `rand`).
fn add_gaussian_noise(out: &mut [f64], rng: &mut StdRng, rms: f64) {
    if rms <= 0.0 {
        return;
    }
    let mut i = 0;
    while i < out.len() {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * PI * u2).sin_cos();
        out[i] += rms * r * c;
        if i + 1 < out.len() {
            out[i + 1] += rms * r * s;
        }
        i += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSeed, FaultState};
    use mpros_core::{MachineId, SimDuration};
    use mpros_signal::features::WaveformStats;
    use mpros_signal::spectrum::Spectrum;
    use mpros_signal::window::Window;

    const FS: f64 = 16_384.0;
    const N: usize = 8192;

    fn synth() -> VibrationSynthesizer {
        VibrationSynthesizer::new(MachineTrain::navy_chiller(MachineId::new(1)), 42)
    }

    fn active(condition: MachineCondition) -> FaultState {
        let mut f = FaultState::healthy();
        f.seed(FaultSeed {
            condition,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: crate::fault::FaultProfile::Step(1.0),
        });
        f
    }

    fn spectrum_of(loc: AccelLocation, faults: &FaultState) -> (Spectrum, f64) {
        let s = synth();
        let load = 1.0;
        let block = s.sample_block(loc, SimTime::from_secs(10.0), N, FS, load, faults);
        let shaft = s.train().shaft_hz(loc.element(), load);
        (Spectrum::compute(&block, FS, Window::Hann).unwrap(), shaft)
    }

    #[test]
    fn determinism_same_seed_same_block() {
        let s = synth();
        let f = FaultState::healthy();
        let a = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        let b = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        assert_eq!(a, b);
        // Different seed → different noise.
        let s2 = VibrationSynthesizer::new(MachineTrain::navy_chiller(MachineId::new(1)), 43);
        let c = s2.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn sample_block_into_a_used_buffer_is_bit_identical() {
        let s = synth();
        let mut f = active(MachineCondition::MotorBearingDefect);
        f.seed(FaultSeed {
            condition: MachineCondition::CompressorBearingDefect,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: crate::fault::FaultProfile::Step(1.0),
        });
        let t0 = SimTime::from_secs(301.5);
        let mut buf = vec![7.0; 5000];
        for loc in AccelLocation::ALL {
            s.sample_block_into(loc, t0, 1000, FS, 0.8, &f, &mut buf);
            let fresh = s.sample_block(loc, t0, 1000, FS, 0.8, &f);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&buf), bits(&fresh), "{loc:?}");
        }
    }

    #[test]
    fn healthy_spectrum_is_quiet() {
        let (spec, shaft) = spectrum_of(AccelLocation::MotorDriveEnd, &FaultState::healthy());
        let a1x = spec.amplitude_at_order(shaft, 1.0);
        assert!(a1x < 0.1, "healthy 1x {a1x}");
        assert!(spec.amplitude_at_order(shaft, 2.0) < 0.05);
    }

    #[test]
    fn imbalance_raises_1x() {
        let (spec, shaft) = spectrum_of(
            AccelLocation::MotorDriveEnd,
            &active(MachineCondition::MotorImbalance),
        );
        let a1x = spec.amplitude_at_order(shaft, 1.0);
        assert!(a1x > 0.4, "imbalance 1x {a1x}");
        assert!(spec.amplitude_at_order(shaft, 2.0) < 0.1);
    }

    #[test]
    fn misalignment_raises_2x_above_1x() {
        let (spec, shaft) = spectrum_of(
            AccelLocation::MotorDriveEnd,
            &active(MachineCondition::MotorMisalignment),
        );
        let a1x = spec.amplitude_at_order(shaft, 1.0);
        let a2x = spec.amplitude_at_order(shaft, 2.0);
        assert!(a2x > 0.3, "2x {a2x}");
        assert!(a2x > a1x, "2x {a2x} should dominate 1x {a1x}");
    }

    #[test]
    fn bearing_defect_is_impulsive_with_bpfo_line() {
        let s = synth();
        let f = active(MachineCondition::MotorBearingDefect);
        let block = s.sample_block(AccelLocation::MotorDriveEnd, SimTime::ZERO, N, FS, 1.0, &f);
        let stats = WaveformStats::of(&block);
        assert!(stats.kurtosis > 3.0, "bearing kurtosis {}", stats.kurtosis);
        // Envelope spectrum shows the BPFO line.
        let env = mpros_signal::envelope::bandpass_envelope(&block, FS, 1_800.0, 3_000.0).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        let ac: Vec<f64> = env.iter().map(|e| e - mean).collect();
        let espec = Spectrum::compute(&ac, FS, Window::Hann).unwrap();
        let bpfo = s.train().motor_bearing.bpfo(s.train().motor_hz(1.0));
        let line = espec.amplitude_near(bpfo, 6.0);
        let off = espec.amplitude_near(bpfo * 1.37, 6.0);
        assert!(line > 2.0 * off, "BPFO envelope line {line} vs off {off}");
    }

    #[test]
    fn rotor_bar_sidebands_straddle_1x() {
        let s = synth();
        let f = active(MachineCondition::MotorRotorBarCrack);
        let block = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            65536,
            FS,
            1.0,
            &f,
        );
        let spec = Spectrum::compute(&block, FS, Window::Hann).unwrap();
        let motor = s.train().motor_hz(1.0);
        let pp = s.train().pole_pass_hz(1.0);
        let lower = spec.amplitude_near(motor - pp, 0.4);
        let upper = spec.amplitude_near(motor + pp, 0.4);
        assert!(lower > 0.1 && upper > 0.1, "sidebands {lower}/{upper}");
    }

    #[test]
    fn gear_wear_shows_mesh_harmonics_at_gear_case() {
        let (spec, _) = spectrum_of(
            AccelLocation::GearCase,
            &active(MachineCondition::GearToothWear),
        );
        let s = synth();
        let gmf = s.train().gear_mesh_hz(1.0);
        assert!(spec.amplitude_near(gmf, 20.0) > 0.25);
        assert!(spec.amplitude_near(2.0 * gmf, 30.0) > 0.1);
    }

    #[test]
    fn looseness_generates_harmonic_series() {
        let (spec, shaft) = spectrum_of(
            AccelLocation::MotorDriveEnd,
            &active(MachineCondition::BearingHousingLooseness),
        );
        for h in 1..=4 {
            assert!(
                spec.amplitude_at_order(shaft, h as f64) > 0.03,
                "harmonic {h} missing"
            );
        }
        assert!(
            spec.amplitude_at_order(shaft, 0.5) > 0.02,
            "subharmonic missing"
        );
    }

    #[test]
    fn surge_pulsates_at_low_frequency_on_compressor_only() {
        let (spec, _) = spectrum_of(
            AccelLocation::CompressorBearing,
            &active(MachineCondition::CompressorSurge),
        );
        assert!(
            spec.amplitude_near(4.0, 1.5) > 0.4,
            "surge pulsation missing"
        );
        let (spec_m, _) = spectrum_of(
            AccelLocation::MotorNonDriveEnd,
            &active(MachineCondition::CompressorSurge),
        );
        assert!(
            spec_m.amplitude_near(4.0, 1.5) < 0.1,
            "surge leaked to motor"
        );
    }

    #[test]
    fn process_faults_produce_no_vibration() {
        for c in [
            MachineCondition::RefrigerantLeak,
            MachineCondition::CondenserFouling,
            MachineCondition::LubeOilDegradation,
            MachineCondition::MotorWindingInsulation,
        ] {
            let (spec, shaft) = spectrum_of(AccelLocation::MotorDriveEnd, &active(c));
            assert!(
                spec.amplitude_at_order(shaft, 1.0) < 0.1,
                "{c} should not vibrate"
            );
        }
    }

    #[test]
    fn coupling_attenuates_with_distance() {
        let c = MachineCondition::MotorImbalance;
        let at_src = AccelLocation::MotorDriveEnd.coupling(c);
        let at_gear = AccelLocation::GearCase.coupling(c);
        let at_pump = AccelLocation::PumpBearing.coupling(c);
        assert_eq!(at_src, 1.0);
        assert!(at_gear < at_src && at_pump < at_gear);
    }

    #[test]
    fn severity_scales_signature_amplitude() {
        let s = synth();
        let mut half = FaultState::healthy();
        half.seed(FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: crate::fault::FaultProfile::Step(0.5),
        });
        let full = active(MachineCondition::MotorImbalance);
        let shaft = s.train().motor_hz(1.0);
        let spec_h = Spectrum::compute(
            &s.sample_block(
                AccelLocation::MotorDriveEnd,
                SimTime::ZERO,
                N,
                FS,
                1.0,
                &half,
            ),
            FS,
            Window::Hann,
        )
        .unwrap();
        let spec_f = Spectrum::compute(
            &s.sample_block(
                AccelLocation::MotorDriveEnd,
                SimTime::ZERO,
                N,
                FS,
                1.0,
                &full,
            ),
            FS,
            Window::Hann,
        )
        .unwrap();
        let (ah, af) = (
            spec_h.amplitude_at_order(shaft, 1.0),
            spec_f.amplitude_at_order(shaft, 1.0),
        );
        assert!(af > 1.5 * ah, "full {af} vs half {ah}");
    }

    #[test]
    fn blocks_are_continuous_across_time() {
        // Two adjacent blocks of a pure-tone-dominated signal should join
        // without a phase jump: synthesize one long and two short and
        // compare the deterministic (noise-free) part.
        let mut s = synth();
        s.noise_rms = 0.0;
        let f = active(MachineCondition::MotorImbalance);
        let long = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            2048,
            FS,
            1.0,
            &f,
        );
        let a = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        let b = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::from_secs(1024.0 / FS),
            1024,
            FS,
            1.0,
            &f,
        );
        for i in 0..1024 {
            assert!((long[i] - a[i]).abs() < 1e-9);
            assert!((long[1024 + i] - b[i]).abs() < 1e-6);
        }
    }
}

/// The chunk-anchored kernels against the per-sample formulas they
/// replace. The reference evaluates `sin`/`exp` at every sample's own
/// rounded argument, so it carries an argument-rounding error of a few
/// `w·ulp(t)`; the bound below is that error's size, with margin.
#[cfg(test)]
mod kernel_props {
    use super::*;
    use proptest::prelude::*;

    /// The per-sample tone formula.
    fn reference_tone(n: usize, base: f64, dt: f64, freq: f64, amp: f64, phase: f64) -> Vec<f64> {
        let w = 2.0 * PI * freq;
        (0..n)
            .map(|i| amp * (w * (base + i as f64 * dt) + phase).sin())
            .collect()
    }

    /// The per-sample burst formula.
    fn reference_bursts(
        n: usize,
        base: f64,
        dt: f64,
        rate: f64,
        res_hz: f64,
        amp: f64,
    ) -> Vec<f64> {
        let mut out = vec![0.0; n];
        let period = 1.0 / rate;
        let tau = period / 8.0;
        let w = 2.0 * PI * res_hz;
        let first = ((base - 6.0 * tau) / period).floor() as i64;
        let last = ((base + n as f64 * dt) / period).ceil() as i64;
        for k in first..=last {
            let impact = k as f64 * period;
            let start = (((impact - base) / dt).ceil()).max(0.0) as usize;
            let end = ((((impact + 6.0 * tau) - base) / dt).ceil()).max(0.0) as usize;
            for (i, o) in out.iter_mut().enumerate().take(end).skip(start) {
                let t = base + i as f64 * dt - impact;
                if t >= 0.0 {
                    *o += amp * (-t / tau).exp() * (w * t).sin();
                }
            }
        }
        out
    }

    /// `8·amp·rate·ulp(t0 + n·dt) + 1e-12`, where `rate` bounds the
    /// signal's slope per unit of `t` (`w` for a tone, `w + 1/τ` for a
    /// burst).
    fn bound(amp: f64, rate: f64, base: f64, n: usize, dt: f64) -> f64 {
        let t_end = base + n as f64 * dt;
        8.0 * amp * rate * (t_end.next_up() - t_end) + 1e-12
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= tol,
                "{what}: sample {i} of {}: {g} vs {w} (|Δ| {} > {tol})",
                got.len(),
                (g - w).abs()
            );
        }
    }

    fn check_tone(base: f64, n: usize, fs: f64, freq: f64, amp: f64, phase: f64) {
        let dt = 1.0 / fs;
        let mut out = vec![0.0; n];
        add_tone(&mut out, SimTime::from_secs(base), dt, freq, amp, phase);
        let want = reference_tone(n, base, dt, freq, amp, phase);
        let tol = bound(amp, 2.0 * PI * freq, base, n, dt);
        let what = format!("tone t0={base} n={n} fs={fs} f={freq} amp={amp} phase={phase}");
        assert_close(&out, &want, tol, &what);
    }

    fn check_bursts(base: f64, n: usize, fs: f64, rate: f64, res_hz: f64, amp: f64) {
        let dt = 1.0 / fs;
        let mut out = vec![0.0; n];
        add_bearing_bursts(&mut out, SimTime::from_secs(base), dt, rate, res_hz, amp);
        let want = reference_bursts(n, base, dt, rate, res_hz, amp);
        let tau = 1.0 / (8.0 * rate);
        let tol = bound(amp, 2.0 * PI * res_hz + 1.0 / tau, base, n, dt);
        let what = format!("bursts t0={base} n={n} fs={fs} rate={rate} res={res_hz} amp={amp}");
        assert_close(&out, &want, tol, &what);
        // Same support: a sample no burst reaches (outside every window,
        // or at `t < 0`) stays exactly zero.
        for (i, (g, w)) in out.iter().zip(&want).enumerate() {
            assert!(
                *w != 0.0 || *g == 0.0,
                "{what}: sample {i} should be silent, got {g}"
            );
        }
    }

    #[test]
    fn tone_matches_per_sample_formula_on_a_grid() {
        let fs = 16_384.0;
        for n in [1, 2, 63, 64, 65, 127, 1000, 4097, 32_768] {
            for base in [0.0, 300.0, 86_400.0, 1e5] {
                for freq in [0.5, 29.6, 1_234.5, 2_400.0, fs / 2.0 - 0.1, fs / 2.0] {
                    check_tone(base, n, fs, freq, 0.3, 1.1);
                }
            }
        }
    }

    #[test]
    fn bursts_match_per_sample_formula_on_a_grid() {
        let fs = 16_384.0;
        for n in [1, 2, 63, 64, 65, 127, 1000, 4097, 32_768] {
            for base in [0.0, 300.0, 86_400.0, 1e5] {
                for res in [900.0, MOTOR_RESONANCE_HZ, fs / 2.0] {
                    check_bursts(base, n, fs, 87.3, res, 0.5);
                }
            }
        }
    }

    #[test]
    fn bursts_straddling_both_block_edges_match() {
        // 100 Hz impacts ring for 7.5 ms: the block starts 4 ms after
        // the impact at 3.00 s and ends 0.1 ms after the one at 3.01 s.
        let (fs, rate, base, n) = (16_384.0, 100.0, 3.004, 100);
        let dt = 1.0 / fs;
        let mut out = vec![0.0; n];
        add_bearing_bursts(&mut out, SimTime::from_secs(base), dt, rate, 2_400.0, 0.5);
        assert!(out[0] != 0.0, "a burst should ring into the block");
        assert!(out[n - 1] != 0.0, "a burst should start inside the block");
        check_bursts(base, n, fs, rate, 2_400.0, 0.5);
        // Split the block at every chunk-boundary-adjacent offset: each
        // piece still matches the formula where a burst crosses the cut.
        for split in [1, 37, 63, 64, 65, 99] {
            let t_split = base + split as f64 * dt;
            check_bursts(base, split, fs, rate, 2_400.0, 0.5);
            check_bursts(t_split, n - split, fs, rate, 2_400.0, 0.5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tone_matches_per_sample_formula(
            base in 0.0..1e5f64,
            n in 1usize..3_000,
            fs_idx in 0usize..3,
            freq_frac in 0.0..=1.0f64,
            amp in 0.001..2.0f64,
            phase in 0.0..(2.0 * PI)
        ) {
            let fs = [10_000.0, 16_384.0, 48_000.0][fs_idx];
            let freq = (freq_frac * fs / 2.0).max(0.01);
            check_tone(base, n, fs, freq, amp, phase);
        }

        #[test]
        fn bursts_match_per_sample_formula(
            base in 0.0..1e5f64,
            n in 1usize..3_000,
            fs_idx in 0usize..3,
            rate in 5.0..500.0f64,
            res_frac in 0.0..=1.0f64,
            amp in 0.001..2.0f64
        ) {
            let fs = [10_000.0, 16_384.0, 48_000.0][fs_idx];
            let res = (res_frac * fs / 2.0).max(1.0);
            check_bursts(base, n, fs, rate, res, amp);
        }
    }
}
