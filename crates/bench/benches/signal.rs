//! DSP substrate benches: the per-block costs behind the E7 throughput
//! numbers (complex and real-input FFT, spectrum, envelope chain, §6.2
//! feature vector).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpros_signal::envelope::bandpass_envelope;
use mpros_signal::features::{FeatureConfig, FeatureVector};
use mpros_signal::fft::FftPlan;
use mpros_signal::spectrum::Spectrum;
use mpros_signal::window::Window;
use mpros_signal::DspContext;
use std::hint::black_box;

fn tone_block(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / 16_384.0;
            (2.0 * std::f64::consts::PI * 59.0 * t).sin()
                + 0.3 * (2.0 * std::f64::consts::PI * 170.0 * t).sin()
        })
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[4096usize, 32_768] {
        let plan = FftPlan::new(n).expect("power of two");
        let block = tone_block(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            let mut buf: Vec<mpros_signal::Complex> = block
                .iter()
                .map(|&x| mpros_signal::Complex::real(x))
                .collect();
            b.iter(|| {
                plan.forward(black_box(&mut buf)).expect("sized buffer");
            });
        });
        group.bench_with_input(BenchmarkId::new("forward_real", n), &n, |b, _| {
            let mut buf = Vec::with_capacity(n);
            b.iter(|| {
                plan.forward_real_into(black_box(&block), &mut buf)
                    .expect("sized buffer");
            });
        });
    }
    group.finish();
}

fn bench_spectrum_and_envelope(c: &mut Criterion) {
    let block = tone_block(32_768);
    // The DLI's bearing chain through a warm context: band-pass
    // envelope, AC coupling and the Hann spectrum of the envelope.
    let mut ctx = DspContext::new();
    let mut env_spec = Spectrum::default();
    c.bench_function("envelope_spectrum_32k", |b| {
        b.iter(|| {
            ctx.envelope_spectrum_into(
                black_box(&block),
                16_384.0,
                1_800.0,
                3_000.0,
                Window::Hann,
                &mut env_spec,
            )
            .expect("valid")
        })
    });
    c.bench_function("spectrum_32k_hann", |b| {
        b.iter(|| {
            black_box(Spectrum::compute(black_box(&block), 16_384.0, Window::Hann).expect("valid"))
        })
    });
    c.bench_function("bandpass_envelope_32k", |b| {
        b.iter(|| {
            black_box(
                bandpass_envelope(black_box(&block), 16_384.0, 1_800.0, 3_000.0).expect("valid"),
            )
        })
    });
}

fn bench_feature_vector(c: &mut Criterion) {
    let config = FeatureConfig::default();
    let block = tone_block(4096);
    c.bench_function("wnn_feature_vector_4k", |b| {
        b.iter(|| {
            black_box(FeatureVector::extract(black_box(&block), &config, &[0.8]).expect("valid"))
        })
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_spectrum_and_envelope,
    bench_feature_vector
);
criterion_main!(benches);
