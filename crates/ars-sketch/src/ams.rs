//! The Alon–Matias–Szegedy (AMS) sketch for `F₂` estimation.
//!
//! The AMS sketch maintains `t` counters `z_j = Σ_i s_j(i) · f_i` where each
//! `s_j` is a 4-wise independent ±1 sign function. Each `z_j²` is an
//! unbiased estimator of `F₂ = ‖f‖₂²` with variance at most `2 F₂²`, so the
//! mean of `t = O(1/ε²)` of them is a `(1 ± ε)` approximation with constant
//! probability, and the median of `O(log 1/δ)` independent means boosts the
//! success probability to `1 − δ`.
//!
//! This sketch is the *attack target* of Section 9: the estimate
//! `(1/t)‖S f‖₂²` leaks enough information about the random signs for an
//! adaptive adversary to drive the estimate far below the true `F₂` after
//! only `O(t)` chosen updates ([`ars_adversary`'s](https://docs.rs) attack
//! module reproduces Algorithm 3). It is therefore the canonical example of
//! a statically correct but non-robust linear sketch.

use ars_hash::SignHash;
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Estimator, EstimatorFactory};

/// Configuration for [`AmsSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmsConfig {
    /// Number of counters (rows) per independent mean; `Θ(1/ε²)`.
    pub rows_per_mean: usize,
    /// Number of independent means the median is taken over; `Θ(log 1/δ)`.
    pub means: usize,
}

impl AmsConfig {
    /// Sizes the sketch for a `(1 ± ε)` guarantee with failure probability δ
    /// on an oblivious stream, using the standard mean-of-`6/ε²` /
    /// median-of-`O(log 1/δ)` parametrization.
    #[must_use]
    pub fn for_accuracy(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let rows_per_mean = ((6.0 / (epsilon * epsilon)).ceil() as usize).max(1);
        let means = ((8.0 * (1.0 / delta).ln()).ceil() as usize).max(1) | 1;
        Self {
            rows_per_mean,
            means,
        }
    }

    /// A sketch with exactly `t` rows and a single mean (no median
    /// boosting). This is the plain `S ∈ R^{t×n}` sketch attacked in
    /// Section 9, whose estimate is `(1/t) ‖S f‖₂²`.
    #[must_use]
    pub fn single_mean(rows: usize) -> Self {
        Self {
            rows_per_mean: rows.max(1),
            means: 1,
        }
    }
}

/// The AMS `F₂` sketch.
#[derive(Debug, Clone)]
pub struct AmsSketch {
    config: AmsConfig,
    /// Sign functions, one per (mean, row).
    signs: Vec<SignHash>,
    /// Counters `z_{g,j} = Σ_i s_{g,j}(i) f_i`, flattened row-major by mean.
    counters: Vec<f64>,
}

impl AmsSketch {
    /// Builds the sketch with fresh randomness derived from `seed`.
    #[must_use]
    pub fn new(config: AmsConfig, seed: u64) -> Self {
        let total = config.rows_per_mean * config.means;
        let mut rng = StdRng::seed_from_u64(seed);
        let signs = (0..total).map(|_| SignHash::from_rng(&mut rng)).collect();
        Self {
            config,
            signs,
            counters: vec![0.0; total],
        }
    }

    /// The number of rows per independent mean.
    #[must_use]
    pub fn rows_per_mean(&self) -> usize {
        self.config.rows_per_mean
    }

    /// The mean of squared counters within one group — an unbiased `F₂`
    /// estimate for an oblivious stream.
    fn group_mean(&self, group: usize) -> f64 {
        let start = group * self.config.rows_per_mean;
        let end = start + self.config.rows_per_mean;
        let sum: f64 = self.counters[start..end].iter().map(|z| z * z).sum();
        sum / self.config.rows_per_mean as f64
    }
}

impl Estimator for AmsSketch {
    fn update(&mut self, update: Update) {
        let delta = update.delta as f64;
        for (counter, sign) in self.counters.iter_mut().zip(&self.signs) {
            *counter += sign.sign(update.item) as f64 * delta;
        }
    }

    fn estimate(&self) -> f64 {
        let mut means: Vec<f64> = (0..self.config.means).map(|g| self.group_mean(g)).collect();
        means.sort_by(f64::total_cmp);
        means[means.len() / 2]
    }

    fn space_bytes(&self) -> usize {
        // Each counter is one machine word; each 4-wise sign hash stores
        // four 8-byte field coefficients.
        self.counters.len() * 8 + self.signs.len() * 4 * 8
    }
}

/// Factory for [`AmsSketch`] instances, used by the robust wrappers.
#[derive(Debug, Clone, Copy)]
pub struct AmsFactory {
    /// The configuration every built instance shares.
    pub config: AmsConfig,
}

impl EstimatorFactory for AmsFactory {
    type Output = AmsSketch;

    fn build(&self, seed: u64) -> AmsSketch {
        AmsSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!(
            "ams(t={}, medians={})",
            self.config.rows_per_mean, self.config.means
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::FrequencyVector;
    use rand::Rng;

    fn random_stream(n: u64, m: usize, seed: u64) -> Vec<Update> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| Update::insert(rng.gen_range(0..n)))
            .collect()
    }

    #[test]
    fn estimates_f2_of_a_point_mass_exactly() {
        // All mass on one item: every counter is ±f_1, so z² = f² exactly.
        let mut sketch = AmsSketch::new(AmsConfig::single_mean(16), 1);
        for _ in 0..100 {
            sketch.insert(42);
        }
        assert!((sketch.estimate() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn estimates_f2_within_epsilon_on_random_streams() {
        let updates = random_stream(500, 20_000, 3);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let f2 = truth.f2();

        let mut sketch = AmsSketch::new(AmsConfig::for_accuracy(0.1, 0.01), 7);
        for &u in &updates {
            sketch.update(u);
        }
        let est = sketch.estimate();
        assert!((est - f2).abs() <= 0.1 * f2, "estimate {est} vs truth {f2}");
    }

    #[test]
    fn handles_deletions_linearly() {
        let mut sketch = AmsSketch::new(AmsConfig::for_accuracy(0.2, 0.05), 5);
        for i in 0..200u64 {
            sketch.insert(i);
        }
        // Delete everything: the sketch is linear so it returns to zero.
        for i in 0..200u64 {
            sketch.update(Update::delete(i));
        }
        assert!(sketch.estimate().abs() < 1e-9);
    }

    #[test]
    fn accuracy_improves_with_more_rows() {
        let updates = random_stream(2_000, 30_000, 11);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let f2 = truth.f2();

        let mut coarse_errors = 0.0;
        let mut fine_errors = 0.0;
        for trial in 0..5u64 {
            let mut coarse = AmsSketch::new(AmsConfig::single_mean(8), 100 + trial);
            let mut fine = AmsSketch::new(AmsConfig::single_mean(512), 200 + trial);
            for &u in &updates {
                coarse.update(u);
                fine.update(u);
            }
            coarse_errors += ((coarse.estimate() - f2) / f2).abs();
            fine_errors += ((fine.estimate() - f2) / f2).abs();
        }
        assert!(
            fine_errors < coarse_errors,
            "512-row sketch should beat 8-row sketch on average \
             (fine {fine_errors} vs coarse {coarse_errors})"
        );
    }

    #[test]
    fn space_accounting_grows_with_configuration() {
        let small = AmsSketch::new(AmsConfig::single_mean(8), 0);
        let large = AmsSketch::new(AmsConfig::single_mean(64), 0);
        assert!(large.space_bytes() > small.space_bytes());
    }

    #[test]
    fn factory_builds_independent_instances() {
        let factory = AmsFactory {
            config: AmsConfig::single_mean(32),
        };
        let mut a = factory.build(1);
        let mut b = factory.build(2);
        for i in 0..50u64 {
            a.insert(i);
            b.insert(i);
        }
        // Different seeds give different internal states (counters differ)
        // even though both estimate the same quantity.
        assert_ne!(a.counters, b.counters);
        assert!(factory.name().contains("ams"));
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let sketch = AmsSketch::new(AmsConfig::for_accuracy(0.5, 0.1), 9);
        assert_eq!(sketch.estimate(), 0.0);
    }
}
