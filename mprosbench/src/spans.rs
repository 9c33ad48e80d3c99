//! Spans recorded from outside the program, around each call into a
//! layer's public functions.
//!
//! A span carries its name (`layer.call`), wall start and end relative
//! to the run's origin, its parent (the span open when it started), the
//! step it belongs to, and an item count (reports ingested, bytes
//! served). Spans stay in memory and are written out as JSON lines when
//! the run ends.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub step: u64,
    pub items: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A run's spans. A disabled log records nothing, so untraced runs
/// drive the same code with tracing off.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    pub fn disabled() -> Self {
        SpanLog {
            enabled: false,
            ..SpanLog::new(Instant::now())
        }
    }

    /// Step ordinal stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
            items: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    pub fn close(&mut self, id: SpanId) {
        self.close_with(id, 0);
    }

    /// Close the innermost open span, which must be `id`, recording
    /// `items` units of work done under it.
    pub fn close_with(&mut self, id: SpanId, items: u64) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.items = items;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        self.named(name).map(Span::secs).collect()
    }

    /// Per-call item counts of every span named `name`.
    pub fn items(&self, name: &str) -> Samples {
        self.named(name).map(|s| s.items as f64).collect()
    }

    /// Per-call durations of `name` restricted to `steps`.
    pub fn durations_in(&self, name: &str, steps: std::ops::RangeInclusive<u64>) -> Samples {
        self.named(name)
            .filter(|s| steps.contains(&s.step))
            .map(Span::secs)
            .collect()
    }

    /// Total seconds and items of `name` within `steps`.
    pub fn totals_in(&self, name: &str, steps: std::ops::RangeInclusive<u64>) -> (f64, u64) {
        self.named(name)
            .filter(|s| steps.contains(&s.step))
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + s.items))
    }

    /// For each step that has a `root` span, the sum and the maximum
    /// of the `name` spans recorded in that step.
    pub fn per_step(&self, root: &str, name: &str) -> (Samples, Samples) {
        let mut by_step: BTreeMap<u64, (f64, f64)> =
            self.named(root).map(|s| (s.step, (0.0, 0.0))).collect();
        for s in self.named(name) {
            if let Some((sum, max)) = by_step.get_mut(&s.step) {
                *sum += s.secs();
                *max = f64::max(*max, s.secs());
            }
        }
        (
            by_step.values().map(|v| v.0).collect(),
            by_step.values().map(|v| v.1).collect(),
        )
    }

    /// Share of the `root` spans' total time that none of their direct
    /// children covers.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let mut total = 0.0;
        let mut covered = 0.0;
        for s in &self.spans {
            if s.name == root {
                total += s.secs();
            } else if s.parent.is_some_and(|p| self.spans[p].name == root) {
                covered += s.secs();
            }
        }
        if total > 0.0 {
            ((total - covered) / total).max(0.0)
        } else {
            0.0
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{},\"items\":{}}}",
                s.name, s.start_ns, s.end_ns, s.step, s.items
            )?;
        }
        out.flush()
    }
}
