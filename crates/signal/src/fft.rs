//! Complex numbers and the radix-2 Cooley–Tukey FFT.
//!
//! Implemented from scratch (no external numerics crates): an iterative
//! in-place decimation-in-time FFT with bit-reversal permutation and
//! precomputable twiddle tables, plus a real-input transform that runs
//! one half-size complex FFT and a split pass. Sizes must be powers of
//! two, which is what the DC's spectrum analyzer card produces anyway.

use mpros_core::{Error, Result};
use std::f64::consts::PI;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real value.
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (no square root; preferred in hot loops).
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Argument (phase) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// A reusable FFT plan for a fixed power-of-two size.
///
/// Precomputes the bit-reversal permutation and twiddle factors once; the
/// DC pipeline runs thousands of transforms per second at a fixed block
/// size, so plan reuse keeps the hot path allocation-free.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Twiddles for each butterfly stage, forward direction. Stage `s`
    /// (`len = 2^s`) starts at offset `2^(s-1) - 1`, independent of `n`,
    /// so the first `log2(n) - 1` stages are exactly the tables of an
    /// `n/2`-point plan.
    twiddles: Vec<Complex>,
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Create a plan for transforms of length `n` (power of two, ≥ 2).
    pub fn new(n: usize) -> Result<Self> {
        if n < 2 || !n.is_power_of_two() {
            return Err(Error::invalid(format!(
                "FFT size must be a power of two >= 2, got {n}"
            )));
        }
        let log2n = n.trailing_zeros();
        // Stage s (len = 2^s) uses twiddles w^j for j in 0..len/2 with
        // w = e^{-2πi/len}; store them contiguously per stage.
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            for j in 0..half {
                twiddles.push(Complex::cis(-2.0 * PI * j as f64 / len as f64));
            }
            len <<= 1;
        }
        let mut bitrev = vec![0u32; n];
        for (i, r) in bitrev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - log2n);
        }
        Ok(FftPlan {
            n,
            twiddles,
            bitrev,
        })
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the plan length is zero (never: plans are ≥ 2; provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT.
    pub fn forward(&self, data: &mut [Complex]) -> Result<()> {
        self.check_len(data.len())?;
        self.bit_reverse(data);
        self.butterflies::<false>(data);
        Ok(())
    }

    /// In-place inverse FFT (including the 1/n normalization).
    pub fn inverse(&self, data: &mut [Complex]) -> Result<()> {
        self.check_len(data.len())?;
        self.bit_reverse(data);
        self.butterflies::<true>(data);
        self.normalize(data);
        Ok(())
    }

    /// Out-of-place forward FFT of a real signal into a caller-provided
    /// buffer, which receives the full `n`-bin spectrum. `dst` is cleared
    /// and refilled; with sufficient capacity this performs **zero
    /// allocations**, which is what the DC's steady-state survey loop
    /// relies on.
    ///
    /// The `n` real samples are packed as `n/2` complex values
    /// `z[m] = x[2m] + i·x[2m+1]`, transformed by one `n/2`-point FFT
    /// (the plan's own first `log2 n − 1` stages), and split into the
    /// spectrum with the last stage's twiddles (DESIGN.md §10.5).
    pub fn forward_real_into(&self, signal: &[f64], dst: &mut Vec<Complex>) -> Result<()> {
        self.check_len(signal.len())?;
        let half = self.n / 2;
        // bitrev_{n/2}(m) = bitrev_n(2m): the even entries of the n-point
        // permutation are the n/2-point one.
        dst.clear();
        dst.extend(self.bitrev.iter().step_by(2).map(|&r| {
            let r = r as usize;
            Complex::new(signal[2 * r], signal[2 * r + 1])
        }));
        self.butterflies::<false>(dst);
        dst.resize(self.n, Complex::ZERO);
        let w = &self.twiddles[half - 1..];
        let z0 = dst[0];
        dst[0] = Complex::real(z0.re + z0.im);
        dst[half] = Complex::real(z0.re - z0.im);
        let (lo, hi) = dst.split_at_mut(half);
        // For 0 < k ≤ n/4, with a = Z[k], b = conj(Z[n/2−k]):
        //   E = (a + b)/2, O = −i(a − b)/2, t = W^k·O,
        //   X[k] = E + t, X[n/2−k] = conj(E − t),
        // and the upper half is the conjugate mirror.
        for k in 1..=half / 2 {
            let a = lo[k];
            let b = lo[half - k].conj();
            let e = (a + b).scale(0.5);
            let d = (a - b).scale(0.5);
            let t = w[k] * Complex::new(d.im, -d.re);
            let xk = e + t;
            let xm = e - t;
            lo[k] = xk;
            lo[half - k] = xm.conj();
            hi[half - k] = xk.conj();
            hi[k] = xm;
        }
        Ok(())
    }

    /// Out-of-place inverse FFT (including the 1/n normalization) into a
    /// caller-provided buffer, leaving `spectrum` untouched. `dst` is
    /// cleared and refilled; with sufficient capacity this performs zero
    /// allocations. Bit-identical to copying the spectrum and calling
    /// [`FftPlan::inverse`]: the bit-reversal permutation is an
    /// involution, so gathering `spectrum[bitrev[i]]` into slot `i`
    /// produces exactly the buffer the in-place swap pass would.
    pub fn inverse_into(&self, spectrum: &[Complex], dst: &mut Vec<Complex>) -> Result<()> {
        self.check_len(spectrum.len())?;
        dst.clear();
        dst.extend(self.bitrev.iter().map(|&r| spectrum[r as usize]));
        self.butterflies::<true>(dst);
        self.normalize(dst);
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<()> {
        if len != self.n {
            return Err(Error::invalid(format!(
                "buffer length {len} does not match plan size {}",
                self.n
            )));
        }
        Ok(())
    }

    fn bit_reverse(&self, data: &mut [Complex]) {
        for (i, &r) in self.bitrev.iter().enumerate() {
            let j = r as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn normalize(&self, data: &mut [Complex]) {
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }

    /// Iterative radix-2 butterflies over an already bit-reversed buffer
    /// whose length is a power of two no larger than the plan (the
    /// stage tables are shared by every such length). `INVERSE`
    /// conjugates the twiddles; it is a const parameter so each
    /// direction compiles to its own branch-free loop.
    fn butterflies<const INVERSE: bool>(&self, data: &mut [Complex]) {
        let mut len = 2;
        while len <= data.len() {
            let half = len / 2;
            let stage = &self.twiddles[half - 1..len - 1];
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let w = if INVERSE { w.conj() } else { w };
                    let t = *b * w;
                    let x = *a;
                    *a = x + t;
                    *b = x - t;
                }
            }
            len <<= 1;
        }
    }
}

/// Forward FFT of a real signal; returns the full complex spectrum.
/// Convenience wrapper that builds a one-shot plan for
/// [`FftPlan::forward_real_into`].
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>> {
    let plan = FftPlan::new(signal.len())?;
    let mut buf = Vec::with_capacity(signal.len());
    plan.forward_real_into(signal, &mut buf)?;
    Ok(buf)
}

/// Inverse FFT returning only real parts (caller asserts the spectrum is
/// conjugate-symmetric, as spectra of real signals are). Transforms
/// out-of-place via [`FftPlan::inverse_into`] rather than cloning the
/// input spectrum into a mutable working copy first.
pub fn ifft_real(spectrum: &[Complex]) -> Result<Vec<f64>> {
    let plan = FftPlan::new(spectrum.len())?;
    let mut work = Vec::with_capacity(spectrum.len());
    plan.inverse_into(spectrum, &mut work)?;
    Ok(work.iter().map(|z| z.re).collect())
}

/// Naive O(n²) DFT used as a test oracle for the FFT.
#[doc(hidden)]
pub fn dft_reference(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in data.iter().enumerate() {
                acc += x * Complex::cis(-2.0 * PI * (k * j) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a - b).abs() <= tol,
            "expected {b:?}, got {a:?} (tol {tol})"
        );
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(FftPlan::new(0).is_err());
        assert!(FftPlan::new(1).is_err());
        assert!(FftPlan::new(3).is_err());
        assert!(FftPlan::new(100).is_err());
        assert!(FftPlan::new(128).is_ok());
    }

    #[test]
    fn rejects_mismatched_buffer() {
        let plan = FftPlan::new(8).unwrap();
        let mut buf = vec![Complex::ZERO; 4];
        assert!(plan.forward(&mut buf).is_err());
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        FftPlan::new(8).unwrap().forward(&mut data).unwrap();
        for z in data {
            assert_close(z, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let mut data = vec![Complex::real(2.5); 16];
        FftPlan::new(16).unwrap().forward(&mut data).unwrap();
        assert_close(data[0], Complex::real(40.0), 1e-9);
        for z in &data[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_lands_in_its_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal).unwrap();
        // cos splits into bins k and n-k with magnitude n/2 each.
        assert!((spec[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, z) in spec.iter().enumerate() {
            if i != k && i != n - k {
                assert!(z.abs() < 1e-8, "leakage at bin {i}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut fast = data.clone();
        FftPlan::new(n).unwrap().forward(&mut fast).unwrap();
        let slow = dft_reference(&data);
        for (a, b) in fast.iter().zip(&slow) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn real_forward_matches_naive_dft() {
        for exp in 1..=7 {
            let n = 1 << exp;
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos() - 0.2).collect();
            let mut fast = Vec::new();
            FftPlan::new(n)
                .unwrap()
                .forward_real_into(&x, &mut fast)
                .unwrap();
            let slow = dft_reference(&x.iter().map(|&v| Complex::real(v)).collect::<Vec<_>>());
            for (a, b) in fast.iter().zip(&slow) {
                assert_close(*a, *b, 1e-9);
            }
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        let plan = FftPlan::new(32).unwrap();
        let data: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let mut buf = data.clone();
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&data) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn plan_is_reusable() {
        let plan = FftPlan::new(16).unwrap();
        for trial in 0..3 {
            let mut data: Vec<Complex> =
                (0..16).map(|i| Complex::real((i + trial) as f64)).collect();
            let expect = dft_reference(&data);
            plan.forward(&mut data).unwrap();
            for (a, b) in data.iter().zip(&expect) {
                assert_close(*a, *b, 1e-9);
            }
        }
    }

    #[test]
    fn complex_arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sq(), 25.0);
        assert_eq!(z.conj().im, 4.0);
        assert_close(z * Complex::ONE, z, 0.0);
        assert_close(z + (-z), Complex::ZERO, 0.0);
        assert!((Complex::cis(PI / 2.0) - Complex::new(0.0, 1.0)).abs() < 1e-15);
    }

    proptest! {
        #[test]
        fn forward_inverse_roundtrip(
            raw in proptest::collection::vec(-100.0..100.0f64, 8..=8)
        ) {
            let spec = fft_real(&raw).unwrap();
            let back = ifft_real(&spec).unwrap();
            for (a, b) in raw.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn parseval_energy_is_preserved(
            raw in proptest::collection::vec(-10.0..10.0f64, 64..=64)
        ) {
            let time_energy: f64 = raw.iter().map(|x| x * x).sum();
            let spec = fft_real(&raw).unwrap();
            let freq_energy: f64 =
                spec.iter().map(|z| z.norm_sq()).sum::<f64>() / raw.len() as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
        }

        #[test]
        fn linearity(
            a in proptest::collection::vec(-10.0..10.0f64, 16..=16),
            b in proptest::collection::vec(-10.0..10.0f64, 16..=16)
        ) {
            let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let fa = fft_real(&a).unwrap();
            let fb = fft_real(&b).unwrap();
            let fsum = fft_real(&sum).unwrap();
            for i in 0..16 {
                prop_assert!(((fa[i] + fb[i]) - fsum[i]).abs() < 1e-8);
            }
        }
    }
}
