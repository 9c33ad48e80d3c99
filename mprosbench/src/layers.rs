//! Per-layer metrics of a traced run, named `<crate>.<quantity>`.
//!
//! Times come from the benchmark's own spans (medians per call unless
//! noted); counts come from the program's counters and stats at the end
//! of the run. No quantity is read from the program's histograms.

use crate::probe::Probes;
use crate::rebuild::{IngestTotals, TracedShip};
use crate::report::{metric, sampled, Metric};
use crate::spans::SpanLog;
use crate::stats::Samples;
use mpros_core::{Result, SimDuration};
use mpros_network::NetStats;
use mpros_pdme::PdmeExecutive;
use mpros_signal::DspStats;
use mpros_store::RecoveryManager;
use mpros_telemetry::Telemetry;

/// What the per-layer metrics read back from the traced ships.
pub struct Readings {
    /// Every live DC's DSP context stats.
    dsp: Vec<DspStats>,
    net: NetStats,
    ingest: IngestTotals,
    /// Reports the OOSM holds at the end, summed over machines.
    reports_stored: u64,
    wal_appends: u64,
    wal_bytes: u64,
    trace_hops: u64,
    exposition_bytes: u64,
}

impl Readings {
    /// The end-of-run sampled calls on every ship — three ICAS exports
    /// at the final history and a timed recovery from its WAL — then
    /// the ships' stats and counters, summed.
    pub fn finish(
        log: &mut SpanLog,
        ships: &mut [TracedShip],
        dc_timeout: SimDuration,
    ) -> Result<Readings> {
        let mut r = Readings {
            dsp: Vec::new(),
            net: NetStats::default(),
            ingest: IngestTotals::default(),
            reports_stored: 0,
            wal_appends: 0,
            wal_bytes: 0,
            trace_hops: 0,
            exposition_bytes: 0,
        };
        for ship in ships {
            for _ in 0..3 {
                Probes::sample_pdme(log, ship.pdme(), ship.now(), dc_timeout, ship.telemetry());
            }
            let s = log.open("store.recover");
            let recovered =
                RecoveryManager::new(&Telemetry::new()).recover(&ship.store().contents()?);
            log.close_with(s, recovered.tail.len() as u64);
            let s = log.open("pdme.restore");
            let restored = PdmeExecutive::restore(&recovered);
            log.close(s);
            drop(restored?);

            r.dsp.extend(ship.dcs().iter().map(|dc| dc.dsp_stats()));
            let net = ship.network().stats();
            r.net.sent += net.sent;
            r.net.delivered += net.delivered;
            r.net.dropped += net.dropped;
            r.net.retries += net.retries;
            r.net.expired += net.expired;
            let ingest = ship.take_ingest_totals();
            r.ingest.posted += ingest.posted;
            r.ingest.fused += ingest.fused;
            r.ingest.replays += ingest.replays;
            r.reports_stored += mpros_pdme::export_snapshot(ship.pdme(), ship.now(), dc_timeout)
                .machines
                .iter()
                .map(|m| m.report_count as u64)
                .sum::<u64>();
            let counters = ship.telemetry().snapshot();
            r.wal_appends += counters.counter("store", "wal_appends");
            r.wal_bytes += counters.counter("store", "wal_bytes");
            r.trace_hops += ship.telemetry().trace_hops().len() as u64;
            r.exposition_bytes += ship.gateway().snapshot().exposition.len() as u64;
        }
        Ok(r)
    }
}

pub struct LayerInputs<'a> {
    pub log: &'a SpanLog,
    /// Root span of one timed step (`ship.round` or `fleet.round`).
    pub round: &'static str,
    /// First and last timed step.
    pub steps: (u64, u64),
    pub readings: Readings,
    /// Wall seconds inside the traced and the untraced runs' step
    /// windows, over the same steps.
    pub traced_rounds: f64,
    pub untraced_rounds: f64,
}

fn median(name: &'static str, samples: Samples) -> Metric {
    sampled(name, samples.median(), "s", samples.len())
}

pub fn per_layer(i: &LayerInputs) -> Vec<Metric> {
    let log = i.log;
    let r = &i.readings;
    let (first, last) = i.steps;
    let tenth = ((last + 1 - first) / 10).max(1);
    let early = first..=(first + tenth - 1);
    let late = (last + 1 - tenth)..=last;
    let per_report = |range| {
        let (secs, reports) = log.totals_in("pdme.ingest", range);
        secs / reports.max(1) as f64
    };
    let (dc_busy, dc_max) = log.per_step(i.round, "dc.step");
    let (merge, _) = log.per_step(i.round, "network.merge");
    let (deliver, _) = log.per_step(i.round, "network.deliver");
    let replayed = log
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == "store.recover")
        .map_or(0, |s| s.items);
    let frames = log.items("gateway.frame");
    vec![
        metric(
            "ship.trace_overhead_frac",
            i.traced_rounds / i.untraced_rounds.max(f64::MIN_POSITIVE),
            "1",
        ),
        metric(
            "ship.unattributed_frac",
            log.unattributed_frac("ship.step"),
            "1",
        ),
        median("dc.step_busy_s", dc_busy),
        median("dc.step_max_s", dc_max),
        metric(
            "dc.reports",
            log.totals_in("dc.step", first..=last).1 as f64,
            "count",
        ),
        metric(
            "signal.plans_created",
            r.dsp.iter().map(|d| d.plans_created).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "signal.scratch_reuses",
            r.dsp.iter().map(|d| d.scratch_reuses).sum::<u64>() as f64,
            "count",
        ),
        median("network.merge_s", merge),
        median("network.deliver_s", deliver),
        metric("network.sent", r.net.sent as f64, "count"),
        metric("network.retries", r.net.retries as f64, "count"),
        metric("network.dropped", r.net.dropped as f64, "count"),
        metric("network.expired", r.net.expired as f64, "count"),
        metric(
            "network.first_try_ratio",
            r.net.delivered as f64 / r.net.sent.max(1) as f64,
            "1",
        ),
        median("pdme.ingest_s", log.durations("pdme.ingest")),
        metric("pdme.ingest_per_report_early_s", per_report(early), "s"),
        metric("pdme.ingest_per_report_late_s", per_report(late), "s"),
        median("pdme.supervise_s", log.durations("pdme.supervise")),
        median("pdme.checkpoint_s", log.durations("pdme.checkpoint")),
        median(
            "pdme.icas_export_early_s",
            log.durations_in("pdme.icas_export", first..=first),
        ),
        median(
            "pdme.icas_export_late_s",
            log.durations_in("pdme.icas_export", last..=last),
        ),
        metric(
            "pdme.fused_ratio",
            r.ingest.fused as f64 / (r.ingest.posted + r.ingest.replays).max(1) as f64,
            "1",
        ),
        metric("oosm.reports_stored", r.reports_stored as f64, "count"),
        metric("store.wal_appends", r.wal_appends as f64, "count"),
        metric("store.wal_bytes", r.wal_bytes as f64, "bytes"),
        median("store.recover_s", log.durations("store.recover")),
        metric("store.replayed_frames", replayed as f64, "count"),
        median(
            "gateway.snapshot_build_s",
            log.durations("gateway.snapshot_build"),
        ),
        median("gateway.publish_s", log.durations("gateway.publish")),
        median("gateway.serve_s", log.durations("gateway.serve")),
        median("gateway.frame_s", log.durations("gateway.frame")),
        sampled(
            "gateway.response_bytes",
            frames.median(),
            "bytes",
            frames.len(),
        ),
        median("fleet.publish_s", log.durations("fleet.publish")),
        median("fleet.rollup_s", log.durations("fleet.snapshot_build")),
        median("fleet.route_s", log.durations("fleet.serve")),
        median("telemetry.recorder_s", log.durations("telemetry.recorder")),
        median("telemetry.watchdog_s", log.durations("telemetry.watchdog")),
        median("telemetry.snapshot_s", log.durations("telemetry.snapshot")),
        metric("telemetry.trace_hops", r.trace_hops as f64, "count"),
        metric(
            "telemetry.exposition_bytes",
            r.exposition_bytes as f64,
            "bytes",
        ),
    ]
}
