//! Misra–Gries deterministic heavy hitters.
//!
//! The classic `O(ε^{-1} log n)`-space deterministic algorithm for `L₁`
//! heavy hitters on insertion-only streams [32 in the paper]. Deterministic
//! algorithms are inherently adversarially robust, so Misra–Gries is the
//! deterministic baseline in the Table 1 heavy-hitters comparison: it shows
//! what robustness costs *without* randomness (an `L₁` rather than `L₂`
//! guarantee, i.e. potentially far weaker recall on skewed streams).

use std::collections::HashMap;

use ars_stream::Update;

use crate::{Estimator, PointQueryEstimator};

/// The Misra–Gries summary with `k` counters.
///
/// For every item, the estimate returned by [`MisraGries::query`]
/// undercounts the true frequency by at most `‖f‖₁ / (k + 1)`.
#[derive(Debug, Clone)]
pub struct MisraGries {
    k: usize,
    counters: HashMap<u64, u64>,
    total: u64,
}

impl MisraGries {
    /// Creates a summary with `k` counters (`k = ⌈1/ε⌉` for an `ε‖f‖₁`
    /// undercount bound).
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            k,
            counters: HashMap::with_capacity(k + 1),
            total: 0,
        }
    }

    /// Creates a summary sized for an `ε‖f‖₁` undercount bound.
    #[must_use]
    pub fn for_accuracy(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self::new((1.0 / epsilon).ceil() as usize)
    }

    /// Lower-bound estimate of `f_item` (never overestimates).
    #[must_use]
    pub fn query(&self, item: u64) -> u64 {
        self.counters.get(&item).copied().unwrap_or(0)
    }

    /// Items whose estimated frequency is at least `threshold`.
    #[must_use]
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .counters
            .iter()
            .filter(|(_, &c)| c as f64 >= threshold)
            .map(|(&i, _)| i)
            .collect();
        out.sort_unstable();
        out
    }

    /// The total number of unit insertions processed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Estimator for MisraGries {
    fn update(&mut self, update: Update) {
        if update.delta <= 0 {
            return; // insertion-only algorithm
        }
        let weight = update.delta as u64;
        self.total += weight;
        if let Some(c) = self.counters.get_mut(&update.item) {
            *c += weight;
            return;
        }
        if self.counters.len() < self.k {
            self.counters.insert(update.item, weight);
            return;
        }
        // Decrement-all step, repeated `weight` times but executed in one
        // pass: subtract the largest amount that keeps all counters
        // non-negative, insert the remainder if any budget is left.
        let min_counter = self.counters.values().copied().min().unwrap_or(0);
        let decrement = min_counter.min(weight);
        if decrement > 0 {
            self.counters.retain(|_, c| {
                *c -= decrement;
                *c > 0
            });
        }
        let remaining = weight - decrement;
        if remaining > 0 && self.counters.len() < self.k {
            self.counters.insert(update.item, remaining);
        }
    }

    /// As a bare estimator, Misra–Gries reports the exact stream mass
    /// (which is what its heavy-hitter threshold is relative to).
    fn estimate(&self) -> f64 {
        self.total as f64
    }

    fn space_bytes(&self) -> usize {
        self.k * (8 + 8) + 8
    }
}

impl PointQueryEstimator for MisraGries {
    fn point_estimate(&self, item: u64) -> f64 {
        self.query(item) as f64
    }

    fn candidates(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self.counters.iter().map(|(&i, &c)| (i, c as f64)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{Generator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    #[test]
    fn undercount_is_bounded() {
        let updates = ZipfGenerator::new(5_000, 1.2, 3).take_updates(40_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let epsilon = 0.01;
        let mut mg = MisraGries::for_accuracy(epsilon);
        for &u in &updates {
            mg.update(u);
        }
        let bound = epsilon * truth.l1();
        for item in 0..100u64 {
            let est = mg.query(item) as f64;
            let actual = truth.get(item) as f64;
            assert!(est <= actual + 1e-9, "Misra-Gries must never overestimate");
            assert!(
                actual - est <= bound + 1e-9,
                "undercount of item {item} is {} > {bound}",
                actual - est
            );
        }
    }

    #[test]
    fn finds_l1_heavy_hitters() {
        let updates = ZipfGenerator::new(10_000, 1.5, 7).take_updates(50_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut mg = MisraGries::for_accuracy(0.005);
        for &u in &updates {
            mg.update(u);
        }
        // Anything with frequency >= 5% of the mass must be reported at the
        // 4% threshold (undercount is at most 0.5%).
        let reported = mg.heavy_hitters(0.04 * truth.l1());
        for item in truth.l1_heavy_hitters(0.05) {
            assert!(reported.contains(&item));
        }
    }

    #[test]
    fn counter_budget_is_respected() {
        let mut mg = MisraGries::new(5);
        for i in 0..1_000u64 {
            mg.insert(i);
        }
        assert!(mg.counters.len() <= 5);
    }

    #[test]
    fn weighted_insertions_match_repeated_unit_insertions() {
        let mut weighted = MisraGries::new(4);
        let mut units = MisraGries::new(4);
        let stream = [(1u64, 5i64), (2, 3), (3, 1), (1, 2), (4, 4), (5, 1)];
        for &(item, w) in &stream {
            weighted.update(Update::new(item, w));
            for _ in 0..w {
                units.insert(item);
            }
        }
        // Estimates may differ slightly in how decrements interleave, but
        // the undercount bound must hold for both; check the guarantee.
        let total: i64 = stream.iter().map(|&(_, w)| w).sum();
        for &(item, _) in &stream {
            let exact: i64 = stream
                .iter()
                .filter(|&&(i, _)| i == item)
                .map(|&(_, w)| w)
                .sum();
            for mg in [&weighted, &units] {
                let est = mg.query(item) as i64;
                assert!(est <= exact);
                assert!(exact - est <= total / 5 + 1);
            }
        }
    }

    #[test]
    fn deterministic_and_deletion_insensitive() {
        let mut a = MisraGries::new(8);
        let mut b = MisraGries::new(8);
        for i in 0..500u64 {
            a.insert(i % 20);
            b.insert(i % 20);
        }
        b.update(Update::delete(3));
        // Compare as item -> count maps: candidate ordering may differ for
        // equal counts, but the retained counters must be identical.
        let to_map = |mg: &MisraGries| {
            let mut v = mg.candidates();
            v.sort_by_key(|&(item, _)| item);
            v
        };
        assert_eq!(to_map(&a), to_map(&b));
    }
}
