//! Summary statistics for repeated benchmark runs.
//!
//! The paper plots the **median** of several runs with a band delimited by
//! the **first and last decile**. [`Summary`] reproduces exactly that, plus
//! a few extras used in report tables.

/// Quantile of a sample set using linear interpolation between order
/// statistics (type-7 estimator, the numpy/R default). `q` in [0,1].
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median / decile / extrema summary of a sample of repeated measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First decile (10th percentile) — lower edge of the paper's bands.
    pub d1: f64,
    /// Last decile (90th percentile) — upper edge of the paper's bands.
    pub d9: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarize a sample set.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            d1: quantile(&sorted, 0.1),
            d9: quantile(&sorted, 0.9),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// Relative width of the decile band, `(d9 - d1) / median`. The paper
    /// calls Omni-Path's bandwidth "wide deviation" — this is the metric we
    /// check it with.
    pub fn band_rel(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.d9 - self.d1) / self.median
        }
    }
}

/// One point of a figure: an x value plus summaries for each plotted series.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// The swept parameter (cores, bytes, flop/B…).
    pub x: f64,
    /// Summary of the repeated measurements at this x.
    pub y: Summary,
}

/// A named series of summarized points (one curve of a figure).
#[derive(Clone, Debug)]
pub struct Series {
    /// Curve label.
    pub name: String,
    /// Points in sweep order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point from raw repeated samples.
    pub fn push(&mut self, x: f64, samples: &[f64]) {
        self.points.push(SeriesPoint {
            x,
            y: Summary::of(samples),
        });
    }

    /// Median y at the given x (exact match), if present.
    pub fn median_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-12 * x.abs().max(1.0))
            .map(|p| p.y.median)
    }

    /// Medians as (x, y) pairs.
    pub fn medians(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.x, p.y.median)).collect()
    }

    /// First x (scanning left to right) at which the median deviates from
    /// the reference `baseline` by more than `rel` (e.g. 0.10 for 10 %).
    /// This is how "latency starts being impacted from N computing cores"
    /// onsets are extracted.
    pub fn onset_x(&self, baseline: f64, rel: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.y.median - baseline).abs() > rel * baseline.abs())
            .map(|p| p.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_endpoints() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn quantile_interpolates() {
        let s = [10.0, 20.0];
        assert!((quantile(&s, 0.5) - 15.0).abs() < 1e-12);
        let s = [
            0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
        ];
        assert!((quantile(&s, 0.1) - 10.0).abs() < 1e-12);
        assert!((quantile(&s, 0.9) - 90.0).abs() < 1e-12);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!(s.d1 >= s.min && s.d9 <= s.max && s.d1 <= s.median && s.median <= s.d9);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.d1, 42.0);
        assert_eq!(s.d9, 42.0);
        assert_eq!(s.band_rel(), 0.0);
    }

    #[test]
    fn band_rel() {
        let s = Summary::of(&[90.0, 95.0, 100.0, 105.0, 110.0]);
        assert!(s.band_rel() > 0.0 && s.band_rel() < 0.5);
    }

    #[test]
    fn series_onset() {
        let mut series = Series::new("latency");
        for (x, y) in [(1.0, 10.0), (2.0, 10.2), (3.0, 13.0), (4.0, 20.0)] {
            series.push(x, &[y]);
        }
        // Baseline 10, 10 % threshold → first deviation at x=3 (13 > 11).
        assert_eq!(series.onset_x(10.0, 0.10), Some(3.0));
        // 50 % threshold → x=4 only (20 > 15).
        assert_eq!(series.onset_x(10.0, 0.50), Some(4.0));
        // Huge threshold → never.
        assert_eq!(series.onset_x(10.0, 5.0), None);
    }

    #[test]
    fn series_median_at() {
        let mut series = Series::new("bw");
        series.push(8.0, &[1.0, 2.0, 3.0]);
        assert_eq!(series.median_at(8.0), Some(2.0));
        assert_eq!(series.median_at(9.0), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }
}
