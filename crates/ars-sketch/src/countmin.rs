//! Count-Min sketch: `L₁` point queries with one-sided error.
//!
//! Maintains `d` rows of `w` non-negative counters with pairwise
//! independent bucket hashes. The point query returns the minimum counter
//! an item hashes to, which overestimates `f_i` by at most `(e/w)·‖f‖₁`
//! with probability `1 − e^{−d}` on insertion-only streams.
//!
//! In this repository Count-Min serves as the cheap `L₁` baseline in the
//! heavy-hitters comparisons (Table 1 contrasts `L₁` and `L₂` guarantees);
//! the paper's robust heavy-hitters algorithm itself uses CountSketch.

use ars_hash::MultiplyShiftHash;
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Estimator, EstimatorFactory, PointQueryEstimator};

/// Configuration for [`CountMinSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountMinConfig {
    /// Counters per row; `Θ(1/ε)` for an `ε‖f‖₁` overestimate bound.
    pub width: usize,
    /// Number of rows; `Θ(log 1/δ)`.
    pub depth: usize,
    /// Maximum number of candidate heavy items retained.
    pub candidate_capacity: usize,
}

impl CountMinConfig {
    /// Sizes the sketch for `(ε, δ)` `L₁` point queries.
    #[must_use]
    pub fn for_accuracy(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        Self {
            width: ((std::f64::consts::E / epsilon).ceil() as usize).max(4),
            depth: ((1.0 / delta).ln().ceil() as usize).max(2),
            candidate_capacity: ((2.0 / epsilon).ceil() as usize).max(16),
        }
    }
}

/// The Count-Min sketch.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    config: CountMinConfig,
    hashes: Vec<MultiplyShiftHash>,
    counters: Vec<f64>,
    candidates: std::collections::HashMap<u64, f64>,
    total_mass: f64,
}

impl CountMinSketch {
    /// Builds a Count-Min sketch with randomness derived from `seed`.
    #[must_use]
    pub fn new(config: CountMinConfig, seed: u64) -> Self {
        assert!(config.width > 0 && config.depth > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let hashes = (0..config.depth)
            .map(|_| MultiplyShiftHash::from_rng(64, &mut rng))
            .collect();
        Self {
            counters: vec![0.0; config.width * config.depth],
            hashes,
            candidates: std::collections::HashMap::new(),
            total_mass: 0.0,
            config,
        }
    }

    #[inline]
    fn counter_index(&self, row: usize, item: u64) -> usize {
        row * self.config.width + self.hashes[row].bucket(item, self.config.width as u64) as usize
    }

    /// The minimum-counter point query estimate of `f_item`.
    #[must_use]
    pub fn query(&self, item: u64) -> f64 {
        (0..self.config.depth)
            .map(|r| self.counters[self.counter_index(r, item)])
            .fold(f64::INFINITY, f64::min)
    }

    /// All candidate items with estimated frequency at least `threshold`.
    #[must_use]
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .candidates
            .keys()
            .copied()
            .filter(|&item| self.query(item) >= threshold)
            .collect();
        out.sort_unstable();
        out
    }
}

impl Estimator for CountMinSketch {
    fn update(&mut self, update: Update) {
        let delta = update.delta as f64;
        self.total_mass += delta;
        for r in 0..self.config.depth {
            let idx = self.counter_index(r, update.item);
            self.counters[idx] += delta;
        }
        let estimate = self.query(update.item);
        self.candidates.insert(update.item, estimate);
        if self.candidates.len() > self.config.candidate_capacity {
            if let Some((&weakest, _)) = self.candidates.iter().min_by(|a, b| a.1.total_cmp(b.1)) {
                self.candidates.remove(&weakest);
            }
        }
    }

    /// The estimate of a Count-Min sketch as a bare [`Estimator`] is the
    /// total stream mass `‖f‖₁` (exact for insertion-only streams), which is
    /// what the heavy-hitters threshold `ε‖f‖₁` needs.
    fn estimate(&self) -> f64 {
        self.total_mass
    }

    fn space_bytes(&self) -> usize {
        self.counters.len() * 8 + self.config.depth * 16 + self.config.candidate_capacity * 16
    }
}

impl PointQueryEstimator for CountMinSketch {
    fn point_estimate(&self, item: u64) -> f64 {
        self.query(item)
    }

    fn candidates(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .candidates
            .keys()
            .map(|&item| (item, self.query(item)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Factory for [`CountMinSketch`] instances.
#[derive(Debug, Clone, Copy)]
pub struct CountMinFactory {
    /// Configuration shared by every built instance.
    pub config: CountMinConfig,
}

impl EstimatorFactory for CountMinFactory {
    type Output = CountMinSketch;

    fn build(&self, seed: u64) -> CountMinSketch {
        CountMinSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!("countmin(w={}, d={})", self.config.width, self.config.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{Generator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    #[test]
    fn never_underestimates_on_insertion_only_streams() {
        let updates = ZipfGenerator::new(1000, 1.1, 3).take_updates(20_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut cm = CountMinSketch::new(CountMinConfig::for_accuracy(0.01, 0.01), 5);
        for &u in &updates {
            cm.update(u);
        }
        for item in 0..50u64 {
            assert!(
                cm.query(item) + 1e-9 >= truth.get(item) as f64,
                "Count-Min must not underestimate item {item}"
            );
        }
    }

    #[test]
    fn overestimate_is_bounded_by_epsilon_l1() {
        let updates = ZipfGenerator::new(1000, 1.1, 7).take_updates(20_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let epsilon = 0.01;
        let mut cm = CountMinSketch::new(CountMinConfig::for_accuracy(epsilon, 0.001), 9);
        for &u in &updates {
            cm.update(u);
        }
        let slack = epsilon * truth.l1();
        let mut violations = 0;
        for item in 0..200u64 {
            if cm.query(item) > truth.get(item) as f64 + slack {
                violations += 1;
            }
        }
        assert!(
            violations <= 2,
            "{violations} items overestimated beyond eps*L1"
        );
    }

    #[test]
    fn heavy_hitters_contains_the_head_of_the_zipf() {
        let updates = ZipfGenerator::new(10_000, 1.3, 11).take_updates(50_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut cm = CountMinSketch::new(CountMinConfig::for_accuracy(0.005, 0.001), 13);
        for &u in &updates {
            cm.update(u);
        }
        let threshold = 0.05 * truth.l1();
        for item in truth.l1_heavy_hitters(0.05) {
            assert!(cm.heavy_hitters(threshold).contains(&item));
        }
    }

    #[test]
    fn total_mass_is_exact_for_insertions() {
        let mut cm = CountMinSketch::new(CountMinConfig::for_accuracy(0.1, 0.1), 1);
        for i in 0..1234u64 {
            cm.insert(i % 17);
        }
        assert_eq!(cm.estimate(), 1234.0);
    }

    #[test]
    fn factory_name_and_space() {
        let factory = CountMinFactory {
            config: CountMinConfig::for_accuracy(0.1, 0.1),
        };
        let cm = factory.build(0);
        assert!(factory.name().contains("countmin"));
        assert!(cm.space_bytes() > 0);
    }
}
