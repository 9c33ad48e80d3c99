//! Order statistics over one run's raw samples.
//!
//! Every quantile the benchmark reports is computed here, by nearest
//! rank over the exact samples the run took — never read back from
//! the program's own bucketed histograms.

/// A named series of raw samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; 0 for an empty series.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let s: Samples = (1..=100).map(f64::from).collect();
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::new().median(), 0.0);
    }
}
