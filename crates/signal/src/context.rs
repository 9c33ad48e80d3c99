//! The reusable DSP execution context: cached FFT plans, cached window
//! tables, and a scratch arena of preallocated buffers behind
//! `*_into`-style APIs.
//!
//! §8.1 sizes the DC pipeline at "millions of data points per second";
//! at that rate, rebuilding twiddle/bit-reversal tables and allocating
//! fresh `Vec`s per [`crate::Spectrum`], cepstrum or DWT pass is the
//! dominant cost. A [`DspContext`] amortizes all of it:
//!
//! * **Plan cache** — one [`FftPlan`] per transform size, built once and
//!   shared via `Arc` (cloning an `Arc` is allocation-free).
//! * **Window cache** — materialized coefficient tables plus the
//!   coherent gain per `(window, size)`, replacing the per-sample
//!   `coefficient()` calls and the per-call `coherent_gain()` vector.
//! * **Scratch arena** — [`DspScratch`]: windowed-input, spectrum,
//!   real-valued and DWT ping-pong buffers that are cleared (capacity
//!   retained) and refilled on every call.
//!
//! Every `*_into` operation produces results **bit-identical** to its
//! allocating counterpart (`fft_real`, `ifft_real`,
//! [`crate::Spectrum::compute`], `real_cepstrum`, `hilbert_envelope`,
//! `bandpass_envelope`, [`crate::features::FeatureVector::extract`]),
//! because those are one-shot wrappers over the same kernels; only the
//! storage differs. Every real input goes through the half-size
//! real-input FFT, and the band-pass envelope is one forward transform,
//! one spectral mask and one inverse (DESIGN.md §10.5).

use crate::cepstrum::{dominant_quefrency, LOG_FLOOR};
use crate::dct::dct_features_into;
use crate::features::{FeatureConfig, FeatureVector, WaveformStats};
use crate::fft::{Complex, FftPlan};
use crate::spectrum::Spectrum;
use crate::window::Window;
use mpros_core::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Counters describing how much work a [`DspContext`] has avoided.
///
/// All fields are monotone over the context's lifetime; consumers
/// publish deltas to telemetry. Because scratch growth follows the
/// deterministic call sequence, these counters are themselves
/// deterministic and reproduce exactly across execution modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DspStats {
    /// FFT plans built and cached (one per distinct size).
    pub plans_created: u64,
    /// FFT plan cache hits (transforms that skipped table construction).
    pub plan_hits: u64,
    /// Window tables built and cached (one per distinct window/size).
    pub windows_created: u64,
    /// Buffer preparations that reused existing capacity instead of
    /// allocating.
    pub scratch_reuses: u64,
    /// Bytes of buffer storage those reuses avoided allocating.
    pub bytes_avoided: u64,
}

/// A cached window: materialized coefficients plus the coherent gain.
#[derive(Debug, Clone)]
struct WindowTable {
    coeffs: Vec<f64>,
    /// Mean coefficient, computed with the same summation order as
    /// [`Window::coherent_gain`] (hence bit-identical to it).
    gain: f64,
}

/// Plan and window caches keyed by transform size.
#[derive(Debug, Default)]
struct DspCache {
    plans: HashMap<usize, Arc<FftPlan>>,
    windows: HashMap<(Window, usize), WindowTable>,
}

impl DspCache {
    fn plan(&mut self, n: usize, stats: &mut DspStats) -> Result<Arc<FftPlan>> {
        if let Some(plan) = self.plans.get(&n) {
            stats.plan_hits += 1;
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(FftPlan::new(n)?);
        stats.plans_created += 1;
        self.plans.insert(n, Arc::clone(&plan));
        Ok(plan)
    }

    fn window<'a>(&'a mut self, window: Window, n: usize, stats: &mut DspStats) -> &'a WindowTable {
        self.windows.entry((window, n)).or_insert_with(|| {
            stats.windows_created += 1;
            let coeffs = window.coefficients(n);
            let gain = coeffs.iter().sum::<f64>() / n as f64;
            WindowTable { coeffs, gain }
        })
    }
}

/// The scratch arena: preallocated working buffers reused across calls.
///
/// Private to the context — callers never see intermediate state, they
/// only provide the *output* buffers of each `*_into` call.
#[derive(Debug, Default)]
pub struct DspScratch {
    /// Windowed input samples for spectrum computation.
    windowed: Vec<f64>,
    /// Primary frequency-domain buffer.
    freq: Vec<Complex>,
    /// Secondary frequency-domain buffer (inverse-transform output).
    freq2: Vec<Complex>,
    /// Band-pass envelope awaiting its spectrum.
    envelope: Vec<f64>,
    /// Cepstrum workspace for feature extraction.
    cep: Vec<f64>,
    /// Reusable multi-level DWT pyramid.
    dwt: crate::dwt::MultiLevelDwt,
}

/// A reusable DSP execution context (see the module docs).
///
/// One context serves one thread of execution — in MPROS, each data
/// concentrator owns one across sim steps, so the parallel engine's
/// per-worker stepping reuses exactly the state the sequential engine
/// would.
#[derive(Debug, Default)]
pub struct DspContext {
    cache: DspCache,
    scratch: DspScratch,
    stats: DspStats,
}

/// Count a buffer preparation: a reuse if capacity already suffices.
fn prep_f64(stats: &mut DspStats, buf: &mut Vec<f64>, n: usize) {
    if n > 0 && buf.capacity() >= n {
        stats.scratch_reuses += 1;
        stats.bytes_avoided += (n * std::mem::size_of::<f64>()) as u64;
    }
    buf.clear();
}

/// Count a complex-buffer preparation: a reuse if capacity suffices.
fn prep_complex(stats: &mut DspStats, buf: &mut Vec<Complex>, n: usize) {
    if n > 0 && buf.capacity() >= n {
        stats.scratch_reuses += 1;
        stats.bytes_avoided += (n * std::mem::size_of::<Complex>()) as u64;
    }
    buf.clear();
}

/// Fill `out` with the real cepstrum of `signal`. The log-magnitude
/// spectrum of a real signal is real and even, so its inverse transform
/// is the forward real transform scaled by `1/n`.
fn cepstrum_fill(
    plan: &FftPlan,
    signal: &[f64],
    freq: &mut Vec<Complex>,
    out: &mut Vec<f64>,
) -> Result<()> {
    plan.forward_real_into(signal, freq)?;
    out.extend(freq.iter().map(|z| z.norm_sq().sqrt().max(LOG_FLOOR).ln()));
    plan.forward_real_into(out, freq)?;
    let inv = 1.0 / plan.len() as f64;
    out.clear();
    out.extend(freq.iter().map(|z| z.re * inv));
    Ok(())
}

/// Fill `out` with the analytic-signal envelope of `signal` restricted
/// to the bins `in_band` accepts (`k` ranges over `0..=n/2`). One mask
/// does both the brick-wall band-pass and the Hilbert weighting: in-band
/// bins strictly between DC and Nyquist are doubled, in-band DC and
/// Nyquist stay as they are, everything else (including the whole
/// negative-frequency half) is zeroed.
fn envelope_fill(
    plan: &FftPlan,
    signal: &[f64],
    in_band: impl Fn(usize) -> bool,
    freq: &mut Vec<Complex>,
    work: &mut Vec<Complex>,
    out: &mut Vec<f64>,
) -> Result<()> {
    plan.forward_real_into(signal, freq)?;
    let half = plan.len() / 2;
    let (positive, negative) = freq.split_at_mut(half + 1);
    for (k, z) in positive.iter_mut().enumerate() {
        if !in_band(k) {
            *z = Complex::ZERO;
        } else if k != 0 && k != half {
            *z = z.scale(2.0);
        }
    }
    negative.fill(Complex::ZERO);
    plan.inverse_into(freq, work)?;
    out.extend(work.iter().map(|z| z.norm_sq().sqrt()));
    Ok(())
}

/// The band mask of [`envelope_fill`] for a brick-wall pass band
/// `[lo_hz, hi_hz]` on an `n`-point transform at `sample_rate`.
fn pass_band(n: usize, sample_rate: f64, lo_hz: f64, hi_hz: f64) -> impl Fn(usize) -> bool {
    let df = sample_rate / n as f64;
    move |k| {
        let f = k as f64 * df;
        !(f < lo_hz || f > hi_hz)
    }
}

/// Fill `out` from an already-windowed block: the single-sided,
/// window-corrected amplitude spectrum.
fn spectrum_fill(
    plan: &FftPlan,
    windowed: &[f64],
    gain: f64,
    sample_rate: f64,
    freq: &mut Vec<Complex>,
    out: &mut Spectrum,
) -> Result<()> {
    plan.forward_real_into(windowed, freq)?;
    let n = plan.len();
    let half = n / 2;
    let norm = 1.0 / (n as f64 * gain);
    let mag = |z: &Complex| z.norm_sq().sqrt();
    out.amplitudes.push(mag(&freq[0]) * norm);
    out.amplitudes
        .extend(freq[1..half].iter().map(|z| 2.0 * mag(z) * norm));
    out.amplitudes.push(mag(&freq[half]) * norm);
    out.df = sample_rate / n as f64;
    out.sample_rate = sample_rate;
    Ok(())
}

impl DspContext {
    /// An empty context; caches and scratch grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the context's avoidance counters.
    pub fn stats(&self) -> DspStats {
        self.stats
    }

    /// The cached [`FftPlan`] for size `n`, building it on first
    /// request. Cloning the returned `Arc` is allocation-free.
    pub fn plan(&mut self, n: usize) -> Result<Arc<FftPlan>> {
        self.cache.plan(n, &mut self.stats)
    }

    /// Forward FFT of a real signal into `out`. Bit-identical to
    /// [`crate::fft::fft_real`], allocation-free once `out` has
    /// capacity.
    pub fn fft_real_into(&mut self, signal: &[f64], out: &mut Vec<Complex>) -> Result<()> {
        let plan = self.plan(signal.len())?;
        prep_complex(&mut self.stats, out, signal.len());
        plan.forward_real_into(signal, out)
    }

    /// Inverse FFT of a conjugate-symmetric spectrum into `out` (real
    /// parts). Bit-identical to [`crate::fft::ifft_real`].
    pub fn ifft_real_into(&mut self, spectrum: &[Complex], out: &mut Vec<f64>) -> Result<()> {
        let plan = self.plan(spectrum.len())?;
        let n = spectrum.len();
        prep_complex(&mut self.stats, &mut self.scratch.freq2, n);
        plan.inverse_into(spectrum, &mut self.scratch.freq2)?;
        prep_f64(&mut self.stats, out, n);
        out.extend(self.scratch.freq2.iter().map(|z| z.re));
        Ok(())
    }

    /// Windowed single-sided amplitude spectrum of `block` into `out`.
    /// Bit-identical to [`Spectrum::compute`].
    pub fn spectrum_into(
        &mut self,
        block: &[f64],
        sample_rate: f64,
        window: Window,
        out: &mut Spectrum,
    ) -> Result<()> {
        if sample_rate <= 0.0 {
            return Err(Error::invalid("sample rate must be positive"));
        }
        let n = block.len();
        let plan = self.plan(n)?;
        let table = self.cache.window(window, n, &mut self.stats);
        let scratch = &mut self.scratch;
        let stats = &mut self.stats;
        prep_f64(stats, &mut scratch.windowed, n);
        scratch
            .windowed
            .extend(block.iter().zip(&table.coeffs).map(|(&x, &w)| x * w));
        prep_complex(stats, &mut scratch.freq, n);
        prep_f64(stats, &mut out.amplitudes, n / 2 + 1);
        spectrum_fill(
            &plan,
            &scratch.windowed,
            table.gain,
            sample_rate,
            &mut scratch.freq,
            out,
        )
    }

    /// Real cepstrum of `signal` into `out`. Bit-identical to
    /// [`crate::cepstrum::real_cepstrum`].
    pub fn cepstrum_into(&mut self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let plan = self.plan(signal.len())?;
        let n = signal.len();
        prep_complex(&mut self.stats, &mut self.scratch.freq, n);
        prep_f64(&mut self.stats, out, n);
        cepstrum_fill(&plan, signal, &mut self.scratch.freq, out)
    }

    /// Hilbert (analytic-signal) envelope of `signal` into `out`.
    /// Bit-identical to [`crate::envelope::hilbert_envelope`].
    pub fn hilbert_envelope_into(&mut self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let plan = self.plan(signal.len())?;
        let n = signal.len();
        let scratch = &mut self.scratch;
        let stats = &mut self.stats;
        prep_complex(stats, &mut scratch.freq, n);
        prep_complex(stats, &mut scratch.freq2, n);
        prep_f64(stats, out, n);
        envelope_fill(
            &plan,
            signal,
            |_| true,
            &mut scratch.freq,
            &mut scratch.freq2,
            out,
        )
    }

    /// Brick-wall band-pass to `[lo_hz, hi_hz]` and the Hilbert envelope
    /// of the result, into `out`, as one forward transform, one mask and
    /// one inverse (DESIGN.md §10.5). Bit-identical to
    /// [`crate::envelope::bandpass_envelope`].
    pub fn bandpass_envelope_into(
        &mut self,
        signal: &[f64],
        sample_rate: f64,
        lo_hz: f64,
        hi_hz: f64,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let plan = self.plan(signal.len())?;
        let n = signal.len();
        let scratch = &mut self.scratch;
        let stats = &mut self.stats;
        prep_complex(stats, &mut scratch.freq, n);
        prep_complex(stats, &mut scratch.freq2, n);
        prep_f64(stats, out, n);
        envelope_fill(
            &plan,
            signal,
            pass_band(n, sample_rate, lo_hz, hi_hz),
            &mut scratch.freq,
            &mut scratch.freq2,
            out,
        )
    }

    /// The bearing-demodulation chain fused end to end: band-pass
    /// envelope of `block`, mean (DC) removal, then the windowed
    /// spectrum of the AC-coupled envelope into `out`. Matches the
    /// arithmetic of running [`crate::envelope::bandpass_envelope`],
    /// subtracting the mean, and calling [`Spectrum::compute`].
    #[allow(clippy::too_many_arguments)]
    pub fn envelope_spectrum_into(
        &mut self,
        block: &[f64],
        sample_rate: f64,
        lo_hz: f64,
        hi_hz: f64,
        window: Window,
        out: &mut Spectrum,
    ) -> Result<()> {
        if sample_rate <= 0.0 {
            return Err(Error::invalid("sample rate must be positive"));
        }
        let n = block.len();
        let plan = self.plan(n)?;
        let table = self.cache.window(window, n, &mut self.stats);
        let scratch = &mut self.scratch;
        let stats = &mut self.stats;
        prep_complex(stats, &mut scratch.freq, n);
        prep_complex(stats, &mut scratch.freq2, n);
        prep_f64(stats, &mut scratch.envelope, n);
        envelope_fill(
            &plan,
            block,
            pass_band(n, sample_rate, lo_hz, hi_hz),
            &mut scratch.freq,
            &mut scratch.freq2,
            &mut scratch.envelope,
        )?;
        // AC-couple the envelope (subtract its mean) and window it in one
        // pass: the same `(e - mean) * w` the two-step chain computes.
        let mean = scratch.envelope.iter().sum::<f64>() / n as f64;
        prep_f64(stats, &mut scratch.windowed, n);
        scratch.windowed.extend(
            scratch
                .envelope
                .iter()
                .zip(&table.coeffs)
                .map(|(&e, &w)| (e - mean) * w),
        );
        prep_f64(stats, &mut out.amplitudes, n / 2 + 1);
        spectrum_fill(
            &plan,
            &scratch.windowed,
            table.gain,
            sample_rate,
            &mut scratch.freq,
            out,
        )
    }

    /// Append the §6.2 feature values of `block` (plus `process_scalars`)
    /// to `out`, in the exact layout of
    /// [`FeatureVector::extract`]. Appending (rather than clearing)
    /// lets the WNN concatenate per-channel features into one flat
    /// vector without intermediate storage. On error `out` may hold a
    /// partial prefix.
    pub fn feature_values_into(
        &mut self,
        block: &[f64],
        config: &FeatureConfig,
        process_scalars: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let stats = WaveformStats::of(block);
        let plan = self.plan(block.len())?;
        let n = block.len();
        {
            let scratch = &mut self.scratch;
            let st = &mut self.stats;
            prep_complex(st, &mut scratch.freq, n);
            prep_f64(st, &mut scratch.cep, n);
            cepstrum_fill(&plan, block, &mut scratch.freq, &mut scratch.cep)?;
        }
        let cep = &self.scratch.cep;
        let max_q = n / 2;
        let q = dominant_quefrency(cep, 2, max_q).unwrap_or(0);
        let cep_peak = cep.get(q).copied().unwrap_or(0.0);
        out.extend_from_slice(&[
            stats.mean,
            stats.rms,
            stats.peak,
            stats.std_dev,
            stats.crest_factor,
            stats.kurtosis,
            stats.skewness,
        ]);
        out.push(q as f64 / n as f64); // normalized quefrency
        out.push(cep_peak);
        dct_features_into(block, config.dct_coefficients, out);
        self.scratch
            .dwt
            .analyze_into(block, config.wavelet, config.wavelet_levels)?;
        self.scratch.dwt.energy_map_into(out);
        out.extend_from_slice(process_scalars);
        Ok(())
    }

    /// Refill `out` with the §6.2 feature vector of `block`.
    /// Bit-identical to [`FeatureVector::extract`].
    pub fn feature_vector_into(
        &mut self,
        block: &[f64],
        config: &FeatureConfig,
        process_scalars: &[f64],
        out: &mut FeatureVector,
    ) -> Result<()> {
        prep_f64(
            &mut self.stats,
            &mut out.values,
            FeatureVector::dimension(config, process_scalars.len()),
        );
        self.feature_values_into(block, config, process_scalars, &mut out.values)
    }
}
