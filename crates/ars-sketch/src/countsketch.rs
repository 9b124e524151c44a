//! CountSketch: `L₂` point queries and heavy hitters (Charikar–Chen–
//! Farach-Colton, Lemma 6.4 of the paper).
//!
//! The sketch keeps `d` rows of `w` counters. Each row `r` has a pairwise
//! independent bucket hash `h_r` and a 4-wise independent sign hash `s_r`;
//! an update `(i, Δ)` adds `s_r(i)·Δ` to counter `h_r(i)` of every row. The
//! point-query estimate of `f_i` is the median over rows of
//! `s_r(i) · C_r[h_r(i)]`, which is within `ε‖f‖₂` of the truth with
//! probability `1 − δ` when `w = O(1/ε²)` and `d = O(log(n/δ))`.
//!
//! For the heavy-hitters problem the sketch additionally maintains a small
//! candidate set of the items with the largest current point estimates, so
//! the query "all items with `|f_i| ≥ ε‖f‖₂`" can be answered without
//! enumerating the domain.

use std::collections::HashMap;

use ars_hash::{KWiseHash, SignHash};
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Estimator, EstimatorFactory, PointQueryEstimator};

/// Configuration for [`CountSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountSketchConfig {
    /// Counters per row; `Θ(1/ε²)` for the `ε‖f‖₂` point-query guarantee.
    pub width: usize,
    /// Number of rows; `Θ(log(n/δ))`.
    pub depth: usize,
    /// Maximum number of candidate heavy items retained for
    /// [`PointQueryEstimator::candidates`].
    pub candidate_capacity: usize,
}

impl CountSketchConfig {
    /// Sizes the sketch for `(ε, δ)` point queries over a domain of size `n`.
    #[must_use]
    pub fn for_accuracy(epsilon: f64, delta: f64, domain: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let width = ((6.0 / (epsilon * epsilon)).ceil() as usize).max(8);
        let depth = (((domain.max(2) as f64 / delta).ln() / std::f64::consts::LN_2).ceil()
            as usize)
            .clamp(3, 64)
            | 1;
        let candidate_capacity = ((2.0 / epsilon).ceil() as usize).max(16);
        Self {
            width,
            depth,
            candidate_capacity,
        }
    }
}

/// The CountSketch data structure.
#[derive(Debug, Clone)]
pub struct CountSketch {
    config: CountSketchConfig,
    bucket_hashes: Vec<KWiseHash>,
    sign_hashes: Vec<SignHash>,
    /// Row-major `depth × width` counter matrix.
    counters: Vec<f64>,
    /// Candidate heavy items and their last refreshed estimates.
    candidates: HashMap<u64, f64>,
}

impl CountSketch {
    /// Builds a CountSketch with fresh randomness derived from `seed`.
    #[must_use]
    pub fn new(config: CountSketchConfig, seed: u64) -> Self {
        assert!(config.width > 0 && config.depth > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let bucket_hashes = (0..config.depth)
            .map(|_| KWiseHash::from_rng(2, &mut rng))
            .collect();
        let sign_hashes = (0..config.depth)
            .map(|_| SignHash::from_rng(&mut rng))
            .collect();
        Self {
            counters: vec![0.0; config.width * config.depth],
            bucket_hashes,
            sign_hashes,
            candidates: HashMap::with_capacity(config.candidate_capacity + 1),
            config,
        }
    }

    #[inline]
    fn counter_index(&self, row: usize, item: u64) -> usize {
        row * self.config.width
            + self.bucket_hashes[row].bucket(item, self.config.width as u64) as usize
    }

    /// Median-over-rows point estimate of `f_item`.
    #[must_use]
    pub fn query(&self, item: u64) -> f64 {
        let mut row_estimates: Vec<f64> = (0..self.config.depth)
            .map(|r| {
                self.sign_hashes[r].sign(item) as f64 * self.counters[self.counter_index(r, item)]
            })
            .collect();
        row_estimates.sort_by(f64::total_cmp);
        let mid = row_estimates.len() / 2;
        if row_estimates.len() % 2 == 1 {
            row_estimates[mid]
        } else {
            (row_estimates[mid - 1] + row_estimates[mid]) / 2.0
        }
    }

    /// An `F₂` estimate from the first row of counters (`Σ_b C[b]²` is the
    /// AMS estimator applied bucket-wise). Used only as a coarse norm proxy;
    /// the robust heavy-hitters algorithm pairs this sketch with a dedicated
    /// robust `F₂` estimator instead.
    #[must_use]
    pub fn f2_estimate(&self) -> f64 {
        let mut row_sums: Vec<f64> = (0..self.config.depth)
            .map(|r| {
                self.counters[r * self.config.width..(r + 1) * self.config.width]
                    .iter()
                    .map(|c| c * c)
                    .sum()
            })
            .collect();
        row_sums.sort_by(f64::total_cmp);
        row_sums[row_sums.len() / 2]
    }

    /// All candidate items whose estimated frequency is at least `threshold`.
    #[must_use]
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .candidates
            .keys()
            .copied()
            .filter(|&item| self.query(item).abs() >= threshold)
            .collect();
        out.sort_unstable();
        out
    }

    fn refresh_candidate(&mut self, item: u64) {
        let estimate = self.query(item).abs();
        self.candidates.insert(item, estimate);
        if self.candidates.len() > self.config.candidate_capacity {
            // Evict the candidate with the smallest refreshed estimate.
            if let Some((&weakest, _)) = self.candidates.iter().min_by(|a, b| a.1.total_cmp(b.1)) {
                if weakest != item || self.candidates.len() > self.config.candidate_capacity {
                    self.candidates.remove(&weakest);
                }
            }
        }
    }
}

impl Estimator for CountSketch {
    fn update(&mut self, update: Update) {
        let delta = update.delta as f64;
        for r in 0..self.config.depth {
            let idx = self.counter_index(r, update.item);
            self.counters[idx] += self.sign_hashes[r].sign(update.item) as f64 * delta;
        }
        self.refresh_candidate(update.item);
    }

    fn estimate(&self) -> f64 {
        self.f2_estimate()
    }

    fn space_bytes(&self) -> usize {
        let counters = self.counters.len() * 8;
        let hashes = self.config.depth * (2 + 4) * 8;
        let candidates = self.config.candidate_capacity * (8 + 8);
        counters + hashes + candidates
    }
}

impl PointQueryEstimator for CountSketch {
    fn point_estimate(&self, item: u64) -> f64 {
        self.query(item)
    }

    fn candidates(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .candidates
            .keys()
            .map(|&item| (item, self.query(item)))
            .collect();
        out.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        out
    }
}

/// Factory for [`CountSketch`] instances.
#[derive(Debug, Clone, Copy)]
pub struct CountSketchFactory {
    /// Configuration shared by every built instance.
    pub config: CountSketchConfig,
}

impl EstimatorFactory for CountSketchFactory {
    type Output = CountSketch;

    fn build(&self, seed: u64) -> CountSketch {
        CountSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!(
            "countsketch(w={}, d={})",
            self.config.width, self.config.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{BurstyGenerator, Generator};
    use ars_stream::FrequencyVector;

    fn skewed_stream(m: usize, seed: u64) -> Vec<Update> {
        BurstyGenerator::new(10_000, 4, 0.4, seed).take_updates(m)
    }

    #[test]
    fn point_queries_track_heavy_items() {
        let updates = skewed_stream(30_000, 3);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = CountSketch::new(CountSketchConfig::for_accuracy(0.05, 0.01, 10_000), 7);
        for &u in &updates {
            sketch.update(u);
        }
        let tolerance = 0.05 * truth.l2();
        for item in 0..4u64 {
            let est = sketch.query(item);
            let actual = truth.get(item) as f64;
            assert!(
                (est - actual).abs() <= tolerance,
                "item {item}: estimate {est} vs true {actual} (tolerance {tolerance})"
            );
        }
    }

    #[test]
    fn light_items_are_not_overestimated_badly() {
        let updates = skewed_stream(30_000, 5);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = CountSketch::new(CountSketchConfig::for_accuracy(0.05, 0.01, 10_000), 11);
        for &u in &updates {
            sketch.update(u);
        }
        let tolerance = 0.05 * truth.l2();
        // An item that never appeared should have a small estimate.
        let est = sketch.query(999_999);
        assert!(est.abs() <= tolerance, "absent item estimated at {est}");
    }

    #[test]
    fn heavy_hitters_recall_planted_items() {
        let updates = skewed_stream(40_000, 13);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = CountSketch::new(CountSketchConfig::for_accuracy(0.05, 0.01, 10_000), 17);
        for &u in &updates {
            sketch.update(u);
        }
        let threshold = 0.1 * truth.l2();
        let reported = sketch.heavy_hitters(threshold);
        for item in truth.heavy_hitters(threshold) {
            assert!(
                reported.contains(&item),
                "true heavy hitter {item} missing from {reported:?}"
            );
        }
    }

    #[test]
    fn deletions_cancel_insertions() {
        let mut sketch = CountSketch::new(CountSketchConfig::for_accuracy(0.1, 0.01, 1000), 23);
        for i in 0..100u64 {
            sketch.insert(i);
            sketch.insert(i);
        }
        for i in 0..100u64 {
            sketch.update(Update::delete(i));
        }
        // Every frequency is now exactly 1.
        for i in 0..10u64 {
            let est = sketch.query(i);
            assert!((est - 1.0).abs() < 0.5 + 0.1 * (100f64).sqrt());
        }
    }

    #[test]
    fn candidate_set_is_bounded() {
        let mut config = CountSketchConfig::for_accuracy(0.1, 0.01, 100_000);
        config.candidate_capacity = 10;
        let mut sketch = CountSketch::new(config, 31);
        for i in 0..10_000u64 {
            sketch.insert(i);
        }
        assert!(sketch.candidates().len() <= 10);
    }

    #[test]
    fn f2_estimate_is_reasonable() {
        let updates = skewed_stream(20_000, 41);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = CountSketch::new(CountSketchConfig::for_accuracy(0.05, 0.01, 10_000), 43);
        for &u in &updates {
            sketch.update(u);
        }
        let est = sketch.f2_estimate();
        let f2 = truth.f2();
        assert!(
            (est - f2).abs() <= 0.2 * f2,
            "F2 estimate {est} vs truth {f2}"
        );
    }

    #[test]
    fn space_accounting_scales_with_width() {
        let narrow = CountSketch::new(
            CountSketchConfig {
                width: 32,
                depth: 5,
                candidate_capacity: 8,
            },
            0,
        );
        let wide = CountSketch::new(
            CountSketchConfig {
                width: 512,
                depth: 5,
                candidate_capacity: 8,
            },
            0,
        );
        assert!(wide.space_bytes() > narrow.space_bytes());
    }
}
