//! KMV (k-minimum values / bottom-k) distinct elements estimation.
//!
//! Hash every item to the unit interval with a pairwise independent hash
//! and keep the `k` smallest distinct hash values seen. If `v_k` is the
//! k-th smallest value then `(k − 1)/v_k` is a `(1 ± ε)` estimate of `F₀`
//! for `k = O(1/ε²)`, with constant failure probability (boosted by the
//! median wrapper in [`crate::tracking`]).
//!
//! This is the repository's stand-in for the space-optimal static `F₀`
//! tracking algorithm of Błasiok \[6\] that Theorem 1.1 invokes: it has the
//! same `poly(1/ε) + O(log n)`-bits shape (the constant-factor
//! optimizations of \[6\] are orthogonal to the robustification overhead the
//! experiments measure). It also has the "ignores repeated items" property
//! required by the cryptographic transformation of Section 10: an item
//! whose hash is already present in the bottom-k set leaves the state
//! unchanged.
//!
//! The retained minima live in one sorted `Vec<u64>` that reserves exactly
//! `k` slots on the first insertion, so a sketch allocates once in its
//! lifetime and an update never touches the allocator. Once the set is
//! full, a hash at or above the current maximum — nearly every update on a
//! long stream — is rejected by one comparison; anything smaller is placed
//! by binary search, evicting the maximum.

use ars_hash::KWiseHash;
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Estimator, EstimatorFactory};

/// Configuration for [`KmvSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmvConfig {
    /// Number of minimum hash values retained; `Θ(1/ε²)`.
    pub k: usize,
}

impl KmvConfig {
    /// Sizes the sketch for a `(1 ± ε)` estimate with constant failure
    /// probability.
    #[must_use]
    pub fn for_accuracy(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            k: ((4.0 / (epsilon * epsilon)).ceil() as usize).max(8),
        }
    }
}

/// The KMV bottom-k sketch.
#[derive(Debug, Clone)]
pub struct KmvSketch {
    config: KmvConfig,
    hash: KWiseHash,
    /// The k smallest distinct hash values seen so far, sorted ascending
    /// (normalized to integers for exact ordering; converted to unit floats
    /// on estimate). Never longer than `k`.
    bottom: Vec<u64>,
}

impl KmvSketch {
    /// Builds a KMV sketch with randomness derived from `seed`.
    #[must_use]
    pub fn new(config: KmvConfig, seed: u64) -> Self {
        assert!(config.k >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            config,
            hash: KWiseHash::from_rng(2, &mut rng),
            bottom: Vec::new(),
        }
    }

    /// The number of retained minima.
    #[must_use]
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Whether an insertion of `item` would leave the sketch state
    /// unchanged (duplicate hash already present and not among the k
    /// minima, or already stored). Exposed for the Section 10 analysis,
    /// which relies on duplicate items never changing the state.
    #[must_use]
    pub fn would_ignore(&self, item: u64) -> bool {
        let h = self.hash.hash(item);
        (self.is_full() && self.bottom.last().is_some_and(|&largest| h >= largest))
            || self.bottom.binary_search(&h).is_ok()
    }

    fn is_full(&self) -> bool {
        self.bottom.len() >= self.config.k
    }
}

impl Estimator for KmvSketch {
    fn update(&mut self, update: Update) {
        // KMV is defined for insertion-only streams; deletions are ignored
        // (the robust wrappers only use it in the insertion-only model).
        if update.delta <= 0 {
            return;
        }
        let h = self.hash.hash(update.item);
        let full = self.is_full();
        if full && self.bottom.last().is_some_and(|&largest| h >= largest) {
            return;
        }
        let Err(at) = self.bottom.binary_search(&h) else {
            return;
        };
        if full {
            self.bottom.pop();
        } else if self.bottom.len() == self.bottom.capacity() {
            // The first insertion (or the first after a clone, which keeps
            // only the length): one allocation that lasts the sketch's life.
            self.bottom.reserve_exact(self.config.k - self.bottom.len());
        }
        self.bottom.insert(at, h);
    }

    fn estimate(&self) -> f64 {
        if !self.is_full() {
            // Fewer than k distinct hashes seen: the sketch stores them all,
            // so the count is exact (collisions are negligible in a 61-bit
            // range at these cardinalities).
            return self.bottom.len() as f64;
        }
        let v_k = *self.bottom.last().expect("a full set is non-empty") as f64
            / ars_hash::field::MERSENNE_P as f64;
        (self.config.k as f64 - 1.0) / v_k
    }

    fn space_bytes(&self) -> usize {
        // k stored hash values + the 2-wise hash description.
        self.bottom.len().max(self.config.k) * 8 + 2 * 8
    }
}

/// Factory for [`KmvSketch`] instances.
#[derive(Debug, Clone, Copy)]
pub struct KmvFactory {
    /// Configuration shared by every built instance.
    pub config: KmvConfig,
}

impl EstimatorFactory for KmvFactory {
    type Output = KmvSketch;

    fn build(&self, seed: u64) -> KmvSketch {
        KmvSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!("kmv(k={})", self.config.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{Generator, UniformGenerator};
    use ars_stream::FrequencyVector;
    use std::collections::BTreeSet;

    #[test]
    fn exact_below_k_distinct_items() {
        let mut sketch = KmvSketch::new(KmvConfig { k: 128 }, 3);
        for i in 0..100u64 {
            sketch.insert(i);
            sketch.insert(i); // duplicates must not matter
        }
        assert_eq!(sketch.estimate(), 100.0);
    }

    #[test]
    fn approximates_large_cardinalities() {
        let mut sketch = KmvSketch::new(KmvConfig::for_accuracy(0.05), 7);
        let n = 50_000u64;
        for i in 0..n {
            sketch.insert(i);
        }
        let est = sketch.estimate();
        assert!(
            (est - n as f64).abs() <= 0.1 * n as f64,
            "estimate {est} for {n} distinct items"
        );
    }

    #[test]
    fn duplicates_do_not_change_the_state() {
        let mut sketch = KmvSketch::new(KmvConfig::for_accuracy(0.1), 11);
        for i in 0..10_000u64 {
            sketch.insert(i);
        }
        let before = sketch.bottom.clone();
        for i in 0..10_000u64 {
            assert!(sketch.would_ignore(i) || !sketch.bottom.contains(&sketch.hash.hash(i)));
            sketch.insert(i);
        }
        assert_eq!(before, sketch.bottom, "re-inserting seen items is a no-op");
    }

    #[test]
    fn estimate_tracks_growth_on_random_streams() {
        let updates = UniformGenerator::new(20_000, 5).take_updates(60_000);
        let mut truth = FrequencyVector::new();
        let mut sketch = KmvSketch::new(KmvConfig::for_accuracy(0.05), 13);
        let mut max_err: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            sketch.update(u);
            let t = truth.f0() as f64;
            if t > 1000.0 {
                max_err = max_err.max(((sketch.estimate() - t) / t).abs());
            }
        }
        assert!(max_err < 0.15, "worst tracking error {max_err}");
    }

    #[test]
    fn deletions_are_ignored() {
        let mut sketch = KmvSketch::new(KmvConfig { k: 16 }, 17);
        sketch.insert(1);
        sketch.update(Update::delete(1));
        assert_eq!(sketch.estimate(), 1.0);
    }

    #[test]
    fn space_is_proportional_to_k() {
        let small = KmvSketch::new(KmvConfig { k: 16 }, 0);
        let large = KmvSketch::new(KmvConfig { k: 1024 }, 0);
        assert!(large.space_bytes() > small.space_bytes());
    }

    /// A reference bottom-k set: a `BTreeSet` under the same
    /// insert-then-evict rule. Returns whether the set changed.
    fn reference_update(reference: &mut BTreeSet<u64>, k: usize, h: u64) -> bool {
        if reference.contains(&h) {
            return false;
        }
        if reference.len() < k {
            return reference.insert(h);
        }
        let largest = *reference.iter().next_back().expect("non-empty");
        h < largest && reference.insert(h) && reference.remove(&largest)
    }

    #[test]
    fn sorted_vec_matches_a_btreeset_reference_after_every_update() {
        for (seed, k, domain) in [(1u64, 8usize, 40u64), (2, 64, 200), (3, 300, 5_000)] {
            let mut sketch = KmvSketch::new(KmvConfig { k }, seed);
            let mut reference = BTreeSet::new();
            let mut buffer = None;
            // Items repeat (the domain is small next to the stream), and the
            // stream crosses the not-full -> full boundary early on.
            for u in UniformGenerator::new(domain, seed).take_updates(20 * domain as usize) {
                let ignored = sketch.would_ignore(u.item);
                sketch.update(u);
                let changed = reference_update(&mut reference, k, sketch.hash.hash(u.item));
                assert!(sketch.bottom.iter().eq(reference.iter()), "seed {seed}");
                assert_eq!(ignored, !changed, "would_ignore disagrees, seed {seed}");
                let expected = if reference.len() < k {
                    reference.len() as f64
                } else {
                    (k as f64 - 1.0)
                        / (*reference.iter().next_back().expect("full") as f64
                            / ars_hash::field::MERSENNE_P as f64)
                };
                assert_eq!(sketch.estimate().to_bits(), expected.to_bits());
                // One allocation for the sketch's lifetime: the buffer never
                // moves after the first insertion.
                if !sketch.bottom.is_empty() {
                    let at = sketch.bottom.as_ptr();
                    assert_eq!(*buffer.get_or_insert(at), at, "the set reallocated");
                }
            }
            assert_eq!(sketch.bottom.len(), k, "the stream must fill the set");
        }
    }

    #[test]
    fn factory_produces_independent_sketches() {
        let factory = KmvFactory {
            config: KmvConfig::for_accuracy(0.1),
        };
        let mut a = factory.build(1);
        let mut b = factory.build(2);
        for i in 0..1000u64 {
            a.insert(i);
            b.insert(i);
        }
        assert_ne!(a.bottom, b.bottom, "different seeds hash differently");
        assert!(factory.name().starts_with("kmv"));
    }
}
