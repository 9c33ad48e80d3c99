//! Property-based conformance for the DSP substrate: round-trips,
//! perfect reconstruction, window identities, bit-identical scratch
//! reuse through the [`DspContext`] hot path, and the real-input and
//! fused-envelope kernels against their complex-FFT definitions.

use mpros_signal::dwt::{Wavelet, WaveletDecomposition};
use mpros_signal::envelope::bandpass_envelope;
use mpros_signal::fft::{fft_real, ifft_real, FftPlan};
use mpros_signal::{Complex, DspContext, Spectrum, Window};
use proptest::prelude::*;

/// Largest proptest block: signals are sliced from one generated pool.
const POOL: usize = 4096;

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// FFT → IFFT round-trips within 1e-9 at *every* supported power-of-two
/// size — the deterministic sweep the property test below samples from.
#[test]
fn fft_roundtrip_all_power_of_two_sizes() {
    for exp in 1..=14usize {
        let n = 1 << exp;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + exp) as f64 * 0.63).sin())
            .collect();
        let back = ifft_real(&fft_real(&x).expect("forward")).expect("inverse");
        let err = max_abs_diff(&x, &back);
        assert!(err <= 1e-9, "n={n}: round-trip error {err}");
    }
}

/// Largest error between the real-input transform and the complex
/// transform of the same signal, relative to `n · max|x|`.
fn real_vs_complex_forward_error(x: &[f64]) -> f64 {
    let n = x.len();
    let plan = FftPlan::new(n).expect("power of two");
    let mut real = Vec::new();
    plan.forward_real_into(x, &mut real).expect("forward real");
    let mut full: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
    plan.forward(&mut full).expect("forward");
    assert_eq!(real.len(), n);
    let scale = n as f64 * x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    real.iter()
        .zip(&full)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max)
        / scale
}

/// The real-input FFT agrees with the complex FFT of the same signal at
/// every power-of-two size the DC uses, down to the n = 2 and n = 4
/// edge cases where the half-size transform has no or one stage.
#[test]
fn forward_real_matches_complex_forward_at_every_size() {
    for exp in 1..=15usize {
        let n = 1 << exp;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 53 + exp) as f64 * 0.41).sin() + 0.25)
            .collect();
        let err = real_vs_complex_forward_error(&x);
        assert!(err <= 1e-9, "n={n}: relative error {err}");
    }
    // Closed forms at the smallest sizes.
    let plan = FftPlan::new(2).expect("n = 2");
    let mut out = Vec::new();
    plan.forward_real_into(&[3.0, -1.0], &mut out)
        .expect("n = 2");
    assert_eq!(out, [Complex::real(2.0), Complex::real(4.0)]);
    let plan = FftPlan::new(4).expect("n = 4");
    plan.forward_real_into(&[1.0, 2.0, 3.0, 4.0], &mut out)
        .expect("n = 4");
    let want = [
        Complex::real(10.0),
        Complex::new(-2.0, 2.0),
        Complex::real(-2.0),
        Complex::new(-2.0, -2.0),
    ];
    for (k, (got, want)) in out.iter().zip(&want).enumerate() {
        assert!((*got - *want).abs() < 1e-12, "n=4 bin {k}: {got:?}");
    }
}

/// The two-stage bearing-demodulation chain the fused kernel replaces,
/// written out on the complex FFT: mirrored brick-wall band mask,
/// inverse, real part; then the analytic-signal Hilbert envelope.
fn two_stage_bandpass_envelope(x: &[f64], fs: f64, lo_hz: f64, hi_hz: f64) -> Vec<f64> {
    let n = x.len();
    let half = n / 2;
    let df = fs / n as f64;
    let plan = FftPlan::new(n).expect("power of two");
    let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
    plan.forward(&mut buf).expect("forward");
    for (k, z) in buf.iter_mut().enumerate() {
        let f = if k <= half { k } else { n - k } as f64 * df;
        if f < lo_hz || f > hi_hz {
            *z = Complex::ZERO;
        }
    }
    plan.inverse(&mut buf).expect("inverse");
    let mut buf: Vec<Complex> = buf.iter().map(|z| Complex::real(z.re)).collect();
    plan.forward(&mut buf).expect("forward");
    for (k, z) in buf.iter_mut().enumerate() {
        if k > half {
            *z = Complex::ZERO;
        } else if k != 0 && k != half {
            *z = z.scale(2.0);
        }
    }
    plan.inverse(&mut buf).expect("inverse");
    buf.iter().map(|z| z.abs()).collect()
}

proptest! {
    /// Random contents at a random size: real-input ≡ complex forward.
    #[test]
    fn forward_real_matches_complex_forward(
        exp in 1usize..=12,
        vals in proptest::collection::vec(-100.0..100.0f64, POOL..=POOL)
    ) {
        let err = real_vs_complex_forward_error(&vals[..1 << exp]);
        prop_assert!(err <= 1e-9, "n={}: relative error {err}", 1 << exp);
    }

    /// The fused band-pass envelope (one real forward, one mask, one
    /// inverse) equals band-pass followed by Hilbert, for bands that may
    /// include DC and Nyquist.
    #[test]
    fn fused_bandpass_envelope_matches_two_stage_chain(
        exp in 2usize..=12,
        lo_frac in 0.0..0.6f64,
        width_frac in 0.0..0.6f64,
        vals in proptest::collection::vec(-10.0..10.0f64, POOL..=POOL)
    ) {
        let fs = 16_384.0;
        let nyquist = fs / 2.0;
        // A lower fraction under 0.1 pins the band to DC and a band
        // reaching past 1 is clipped at Nyquist, so both edges occur.
        let lo = (lo_frac - 0.1).max(0.0) * nyquist;
        let hi = (lo + width_frac * nyquist).min(nyquist);
        let x = &vals[..1 << exp];
        let fused = bandpass_envelope(x, fs, lo, hi).expect("fused");
        let reference = two_stage_bandpass_envelope(x, fs, lo, hi);
        let err = max_abs_diff(&fused, &reference);
        prop_assert!(err <= 1e-9, "n={}, band [{lo}, {hi}]: error {err}", 1 << exp);
    }

    /// Round-trip at a random power-of-two size with random contents.
    #[test]
    fn fft_ifft_roundtrip(
        exp in 1usize..=12,
        vals in proptest::collection::vec(-100.0..100.0f64, POOL..=POOL)
    ) {
        let x = &vals[..1 << exp];
        let back = ifft_real(&fft_real(x).expect("forward")).expect("inverse");
        let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prop_assert!(max_abs_diff(x, &back) <= 1e-9 * scale);
    }

    /// Multi-level DWT reconstructs the signal perfectly, for both
    /// wavelet families and every level depth the block supports —
    /// through the legacy pyramid and the reusable workspace alike.
    #[test]
    fn dwt_perfect_reconstruction(
        levels in 1usize..=5,
        haar in 0usize..2,
        vals in proptest::collection::vec(-10.0..10.0f64, 1024..=1024)
    ) {
        let wavelet = if haar == 1 { Wavelet::Haar } else { Wavelet::Daubechies4 };
        let decomp = WaveletDecomposition::analyze(&vals, wavelet, levels).expect("analyzes");
        let back = decomp.synthesize().expect("synthesizes");
        prop_assert!(max_abs_diff(&vals, &back) <= 1e-9);

        let mut dwt = mpros_signal::MultiLevelDwt::new();
        dwt.analyze_into(&vals, wavelet, levels).expect("analyzes");
        let mut rec = Vec::new();
        dwt.reconstruct_into(&mut rec).expect("reconstructs");
        prop_assert!(max_abs_diff(&vals, &rec) <= 1e-9);
    }

    /// Windows are symmetric (`w[i] = w[n-1-i]`) and their coherent gain
    /// is exactly the mean of the coefficients.
    #[test]
    fn window_symmetry_and_coherent_gain(n in 2usize..=1024, which in 0usize..5) {
        let window = Window::ALL[which];
        for i in 0..n {
            let (a, b) = (window.coefficient(i, n), window.coefficient(n - 1 - i, n));
            prop_assert!((a - b).abs() < 1e-12, "{}[{i}] asymmetric: {a} vs {b}", window.name());
        }
        let mean = (0..n).map(|i| window.coefficient(i, n)).sum::<f64>() / n as f64;
        let gain = window.coherent_gain(n);
        prop_assert!((gain - mean).abs() < 1e-15, "gain {gain} vs mean {mean}");
    }

    /// Repeated calls through one context reuse scratch buffers and
    /// cached plans yet stay bit-identical — including after the plan
    /// cache has been stretched across block sizes.
    #[test]
    fn scratch_reuse_is_bit_identical(
        vals in proptest::collection::vec(-50.0..50.0f64, POOL..=POOL)
    ) {
        let fs = 16_384.0;
        let mut ctx = DspContext::new();
        let mut first = Spectrum::default();
        let mut again = Spectrum::default();
        ctx.spectrum_into(&vals, fs, Window::Hann, &mut first).expect("first");
        // Stretch the scratch arena with a different (smaller) size in
        // between, then recompute the original.
        let mut small = Spectrum::default();
        ctx.spectrum_into(&vals[..256], fs, Window::Blackman, &mut small).expect("small");
        ctx.spectrum_into(&vals, fs, Window::Hann, &mut again).expect("again");
        prop_assert_eq!(first.amplitudes().len(), again.amplitudes().len());
        for (a, b) in first.amplitudes().iter().zip(again.amplitudes()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let reuses = ctx.stats().scratch_reuses;
        prop_assert!(reuses > 0, "second pass must reuse scratch, stats: {:?}", ctx.stats());

        let mut cep1 = Vec::new();
        let mut cep2 = Vec::new();
        ctx.cepstrum_into(&vals[..2048], &mut cep1).expect("cepstrum");
        ctx.cepstrum_into(&vals[..2048], &mut cep2).expect("cepstrum again");
        for (a, b) in cep1.iter().zip(&cep2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
