//! p-stable sketching for `F_p` estimation, `0 < p ≤ 2`.
//!
//! The sketch keeps `rows = Θ(1/ε²)` linear counters and no per-item state.
//! How an update `(i, Δ)` reaches them depends on `p`:
//!
//! * **`p = 2`: fast AMS** (Thorup–Zhang bucketing). One 4-wise hash sends
//!   the item to a bucket `b(i)`, an independent 4-wise hash gives it a
//!   sign `s(i) = ±1`, and the update adds `s(i)·Δ` to counter `b(i)`: two
//!   hash evaluations and one add, whatever `rows` is. The estimate is
//!   `F₂ ≈ Σ_b z_b²`, which is unbiased with variance at most
//!   `2F₂²/rows`, the same bound as the mean of `rows` dense AMS squares.
//! * **`p ≠ 2`: Indyk's estimator.** Every counter is a measurement
//!   `z_j = Σ_i X_{j,i} · f_i` with standard p-stable `X_{j,i}`, built by
//!   the Chambers–Mallows–Stuck (CMS) transform from two hash-derived
//!   uniforms. The Cauchy case `p = 1` needs one uniform and a tangent,
//!   which `cauchy` evaluates without libm: an exact reduction in
//!   uniform space and one rational function with a single division.
//!   By p-stability each `z_j` is distributed as `‖f‖_p · X`, so the median
//!   of `|z_j|` rescaled by the median of `|X|` is a `(1 ± ε)` estimate of
//!   `‖f‖_p` with constant probability. The hash keys of one item's rows,
//!   `i·φ + j`, are consecutive, so [`KWiseHash::hash_consecutive`] walks
//!   them with three field additions a row after four Horner evaluations.
//!   An update walks the row hashes into a fixed stack chunk of 128
//!   values, then runs a straight-line transform-and-add
//!   loop over the chunk: `rows` hash-walk steps, variate transforms and
//!   multiply-adds in all. The calibration constant `median(|X_p|)` is a
//!   fixed-seed Monte-Carlo estimate, computed once per `p` in a process.
//!
//! The strong-tracking wrapper in [`crate::tracking`] boosts either
//! estimator to the `(ε, δ)` guarantee of Lemma 2.2.
//!
//! This is the static ingredient behind Theorems 1.4, 1.5 and 4.3 of the
//! paper. The Kane–Nelson–Woodruff sketch cited there (\[27\]) achieves
//! optimal constants; the construction used here has the same
//! `O(ε^{-2} log n · log δ^{-1})`-bit shape, which is what the experiments
//! compare against.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use ars_hash::field::MERSENNE_P;
use ars_hash::KWiseHash;
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Estimator, EstimatorFactory};

/// Configuration for [`PStableSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PStableConfig {
    /// The moment order `p ∈ (0, 2]`.
    pub p: f64,
    /// Number of counters; `Θ(1/ε²)`.
    pub rows: usize,
}

impl PStableConfig {
    /// Sizes the sketch for a `(1 ± ε)` estimate of `‖f‖_p` with constant
    /// failure probability.
    #[must_use]
    pub fn for_accuracy(p: f64, epsilon: f64) -> Self {
        assert!(p > 0.0 && p <= 2.0, "p must lie in (0, 2]");
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            p,
            rows: ((8.0 / (epsilon * epsilon)).ceil() as usize).max(16) | 1,
        }
    }

    /// Sizes the sketch for a `(1 ± ε)` estimate with per-query failure
    /// probability δ: the median-over-rows estimator concentrates
    /// exponentially in the row count, so rows scale as
    /// `Θ(ε^{-2} log(1/δ))`. The `log(1/δ)` boost is capped (part of the
    /// documented constant-factor substitutions in DESIGN.md) so the
    /// composite robust estimators stay laptop-runnable. For `p = 2` the
    /// boost instead shrinks the fast AMS variance bound `2F₂²/rows`.
    #[must_use]
    pub fn for_tracking(p: f64, epsilon: f64, delta: f64) -> Self {
        assert!(p > 0.0 && p <= 2.0, "p must lie in (0, 2]");
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let boost = ((1.0 / delta).ln() / 3.0).clamp(1.0, 4.0);
        Self {
            p,
            rows: ((6.0 * boost / (epsilon * epsilon)).ceil() as usize).max(16) | 1,
        }
    }
}

/// Multiplier that spreads one item's row keys `item·φ + row` over the
/// key space (φ = 2⁶⁴ / golden ratio, odd, so `item ↦ item·φ` is a
/// bijection of `u64`).
const ROW_KEY_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The independence of both hashes: 4-wise, as AMS signs need.
const HASH_INDEPENDENCE: usize = 4;

/// Row hashes an update walks into its stack chunk at a time.
const ROW_CHUNK: usize = 128;

/// Whether `p` takes the fast AMS path instead of a p-stable transform.
#[inline]
fn is_gaussian(p: f64) -> bool {
    (p - 2.0).abs() < 1e-12
}

/// Whether `p` takes the Cauchy transform [`cauchy`].
#[inline]
fn is_cauchy(p: f64) -> bool {
    (p - 1.0).abs() < 1e-9
}

/// Generates a standard p-stable variate from two uniforms in `(0, 1)` via
/// the Chambers–Mallows–Stuck transform ([`cauchy`] of `u1` for `p = 1`).
#[must_use]
fn cms_pstable(p: f64, u1: f64, u2: f64) -> f64 {
    if is_cauchy(p) {
        return cauchy(u1);
    }
    // Clamp away from the boundary so logs and divisions stay finite.
    let u1 = u1.clamp(1e-12, 1.0 - 1e-12);
    let u2 = u2.clamp(1e-12, 1.0 - 1e-12);
    let theta = std::f64::consts::PI * (u1 - 0.5);
    let w = -u2.ln();
    let a = (p * theta).sin() / theta.cos().powf(1.0 / p);
    let b = ((theta * (1.0 - p)).cos() / w).powf((1.0 - p) / p);
    a * b
}

/// A standard Cauchy (1-stable) variate from one uniform in `(0, 1)`:
/// `tan(π·(u − ½))`, branch-free and without libm.
///
/// The argument is reduced exactly in `u`-space, before any rounding by π:
/// for `u ∈ [¼, ¾]` the tangent is taken at `s = |u − ½|`, and otherwise
/// the cotangent at the pole distance `s = min(u, 1 − u)` (all three
/// differences are exact in `f64`). The Cephes tangent
/// `tan x = x + x·z·P(z)/Q(z)`, `z = x²`, at `x = π·s ∈ [0, π/4]` is
/// written as one fraction `N/D`, so the tangent is `N/D` and the cotangent
/// `D/N`: one division either way. The sign is that of `u − ½`. The result
/// is within a few ULPs of the exact value everywhere, including near the
/// poles, where rounding `π·(u − ½)` first would lose the pole distance.
#[inline]
fn cauchy(u: f64) -> f64 {
    const P: [f64; 3] = [
        -1.309_369_391_813_837_9e4,
        1.153_516_648_385_874_2e6,
        -1.795_652_519_764_848_8e7,
    ];
    const Q: [f64; 4] = [
        1.368_129_634_706_929_6e4,
        -1.320_892_344_402_109_7e6,
        2.500_838_018_233_579e7,
        -5.386_957_559_294_546_4e7,
    ];
    // Clamp away from the poles so the variate stays finite.
    let u = u.clamp(1e-12, 1.0 - 1e-12);
    let t = u - 0.5;
    let inner = t.abs() <= 0.25;
    let s = if inner { t.abs() } else { u.min(1.0 - u) };
    let x = std::f64::consts::PI * s;
    let z = x * x;
    let p = (P[0] * z + P[1]) * z + P[2];
    let q = (((z + Q[0]) * z + Q[1]) * z + Q[2]) * z + Q[3];
    let n = x * (q + z * p);
    let (num, den) = if inner { (n, q) } else { (q, n) };
    (num / den).copysign(t)
}

/// Maps a field hash value to `[0, 1)`, bitwise as [`KWiseHash::to_unit`]
/// does.
#[inline]
fn unit(hash: u64) -> f64 {
    hash as f64 / MERSENNE_P as f64
}

/// The median of `|X|` for a standard p-stable variable, estimated by
/// Monte-Carlo with a fixed seed, so every sketch built for the same `p`
/// uses the same calibration constant. The estimate costs 40,001 CMS
/// draws and a sort, so it is computed once per `p` in a process.
#[must_use]
fn median_abs_pstable(p: f64) -> f64 {
    static MEDIANS: Mutex<BTreeMap<u64, f64>> = Mutex::new(BTreeMap::new());
    // A panic while sampling inserts nothing, so a poisoned map is valid.
    let mut medians = MEDIANS.lock().unwrap_or_else(PoisonError::into_inner);
    *medians.entry(p.to_bits()).or_insert_with(|| {
        const SAMPLES: usize = 40_001;
        let mut rng = StdRng::seed_from_u64(0xC0FF_EE00 ^ (p * 1_000_000.0) as u64);
        let mut values: Vec<f64> = (0..SAMPLES)
            .map(|_| cms_pstable(p, rng.gen(), rng.gen()).abs())
            .collect();
        values.sort_by(f64::total_cmp);
        values[SAMPLES / 2]
    })
}

/// The p-stable `F_p` sketch: fast AMS for `p = 2`, Indyk's median
/// estimator for every other `p ∈ (0, 2)`.
///
/// An update costs two hash evaluations and one add for `p = 2`, and
/// `rows` hash-walk steps, variate transforms and multiply-adds otherwise,
/// in chunks of 128 rows on the stack (see the module docs). The
/// Cauchy transform of `p = 1` is one rational function and one division
/// a row. The space is `rows` counters plus two degree-3 hash polynomials
/// either way.
#[derive(Debug, Clone)]
pub struct PStableSketch {
    config: PStableConfig,
    /// `p = 2`: the sign hash. Otherwise: the first per-(row, item) uniform.
    uniform_a: KWiseHash,
    /// `p = 2`: the bucket hash. Otherwise: the second per-(row, item)
    /// uniform (unused by the Cauchy transform).
    uniform_b: KWiseHash,
    counters: Vec<f64>,
    /// `median(|X_p|)` calibration constant.
    calibration: f64,
}

impl PStableSketch {
    /// Builds the sketch with randomness derived from `seed`.
    #[must_use]
    pub fn new(config: PStableConfig, seed: u64) -> Self {
        assert!(config.p > 0.0 && config.p <= 2.0);
        assert!(config.rows > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let calibration = if is_gaussian(config.p) {
            // The p = 2 estimator is a sum of squares and needs no
            // calibration constant.
            1.0
        } else {
            median_abs_pstable(config.p)
        };
        Self {
            uniform_a: KWiseHash::from_rng(HASH_INDEPENDENCE, &mut rng),
            uniform_b: KWiseHash::from_rng(HASH_INDEPENDENCE, &mut rng),
            counters: vec![0.0; config.rows],
            calibration,
            config,
        }
    }

    /// The p-stable variate assigned to `(row, item)` for `p ≠ 2`, one key
    /// at a time. [`Estimator::update`] walks the same keys with
    /// [`KWiseHash::hash_consecutive`] and produces the same values.
    #[inline]
    fn variate(&self, row: usize, item: u64) -> f64 {
        // Mix the row into the key so one pair of hash functions serves all
        // rows; distinct (row, item) pairs map to distinct keys because the
        // row count is far below 2^20.
        let key = item
            .wrapping_mul(ROW_KEY_MULTIPLIER)
            .wrapping_add(row as u64);
        let u1 = self.uniform_a.to_unit(key);
        let u2 = self.uniform_b.to_unit(key);
        cms_pstable(self.config.p, u1, u2)
    }

    /// The `(1 ± ε)` estimate of the norm `‖f‖_p`.
    #[must_use]
    pub fn norm_estimate(&self) -> f64 {
        if is_gaussian(self.config.p) {
            return self.counters.iter().map(|z| z * z).sum::<f64>().sqrt();
        }
        let mut magnitudes: Vec<f64> = self.counters.iter().map(|z| z.abs()).collect();
        let middle = magnitudes.len() / 2;
        let (_, median, _) = magnitudes.select_nth_unstable_by(middle, f64::total_cmp);
        *median / self.calibration
    }

    /// The moment order this sketch estimates.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.config.p
    }
}

impl Estimator for PStableSketch {
    fn update(&mut self, update: Update) {
        let delta = update.delta as f64;
        let rows = self.config.rows;
        let p = self.config.p;
        if is_gaussian(p) {
            let bucket = self.uniform_b.bucket(update.item, rows as u64) as usize;
            let sign = if self.uniform_a.hash(update.item) & 1 == 0 {
                1.0
            } else {
                -1.0
            };
            self.counters[bucket] += sign * delta;
            return;
        }
        let first_key = update.item.wrapping_mul(ROW_KEY_MULTIPLIER);
        if first_key.checked_add(rows as u64).is_none() {
            // The row keys wrap u64 (a jump of −8 in the field), so they are
            // not one progression: hash them one at a time.
            for row in 0..rows {
                self.counters[row] += self.variate(row, update.item) * delta;
            }
            return;
        }
        let mut walk_a = self
            .uniform_a
            .hash_consecutive::<HASH_INDEPENDENCE>(first_key, rows);
        let mut chunk_a = [0u64; ROW_CHUNK];
        if is_cauchy(p) {
            for counters in self.counters.chunks_mut(ROW_CHUNK) {
                let hashes = &mut chunk_a[..counters.len()];
                walk_a.fill(hashes);
                for (counter, &h) in counters.iter_mut().zip(hashes.iter()) {
                    *counter += cauchy(unit(h)) * delta;
                }
            }
            return;
        }
        let mut walk_b = self
            .uniform_b
            .hash_consecutive::<HASH_INDEPENDENCE>(first_key, rows);
        let mut chunk_b = [0u64; ROW_CHUNK];
        for counters in self.counters.chunks_mut(ROW_CHUNK) {
            let hashes_a = &mut chunk_a[..counters.len()];
            let hashes_b = &mut chunk_b[..counters.len()];
            walk_a.fill(hashes_a);
            walk_b.fill(hashes_b);
            for ((counter, &h1), &h2) in counters
                .iter_mut()
                .zip(hashes_a.iter())
                .zip(hashes_b.iter())
            {
                *counter += cms_pstable(p, unit(h1), unit(h2)) * delta;
            }
        }
    }

    /// Returns the estimate of the moment `F_p = ‖f‖_p^p`.
    fn estimate(&self) -> f64 {
        self.norm_estimate().powf(self.config.p)
    }

    fn space_bytes(&self) -> usize {
        self.counters.len() * 8 + 2 * 4 * 8
    }
}

/// Factory for [`PStableSketch`] instances.
#[derive(Debug, Clone, Copy)]
pub struct PStableFactory {
    /// Configuration shared by every built instance.
    pub config: PStableConfig,
}

impl EstimatorFactory for PStableFactory {
    type Output = PStableSketch;

    fn build(&self, seed: u64) -> PStableSketch {
        PStableSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!("pstable(p={}, rows={})", self.config.p, self.config.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{Generator, UniformGenerator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    fn relative_error(estimate: f64, truth: f64) -> f64 {
        ((estimate - truth) / truth).abs()
    }

    #[test]
    fn cms_variates_are_finite() {
        for p in [0.5, 1.0, 1.5, 2.0] {
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..10_000 {
                let x = cms_pstable(p, rng.gen(), rng.gen());
                assert!(x.is_finite(), "p={p} produced a non-finite variate");
            }
        }
    }

    #[test]
    fn cauchy_is_exact_at_the_center_and_within_an_ulp_at_the_quarters() {
        assert_eq!(cauchy(0.5).to_bits(), 0.0f64.to_bits());
        // tan(∓π/4) = ∓1; f64::EPSILON is one ULP of 1.0.
        assert!(
            (cauchy(0.25) + 1.0).abs() <= f64::EPSILON,
            "{}",
            cauchy(0.25)
        );
        assert!(
            (cauchy(0.75) - 1.0).abs() <= f64::EPSILON,
            "{}",
            cauchy(0.75)
        );
    }

    #[test]
    fn cauchy_is_odd_and_monotone() {
        // On a dyadic grid 1 − u is exact, so oddness holds bitwise (away
        // from the center, where the kernel returns +0 for both).
        for i in (1..1024u32).filter(|&i| i != 512) {
            let u = f64::from(i) / 1024.0;
            assert_eq!(cauchy(1.0 - u).to_bits(), (-cauchy(u)).to_bits(), "u={u}");
        }
        const POINTS: u32 = 100_000;
        let mut previous = f64::NEG_INFINITY;
        for i in 1..POINTS {
            let value = cauchy(f64::from(i) / f64::from(POINTS));
            assert!(value > previous, "not increasing at i={i}");
            previous = value;
        }
    }

    #[test]
    fn cauchy_matches_the_libm_tangent_away_from_the_poles() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..100_000 {
            let u: f64 = rng.gen_range(0.05..0.95);
            let libm = (std::f64::consts::PI * (u - 0.5)).tan();
            let err = ((cauchy(u) - libm) / libm).abs();
            assert!(err < 1e-13, "u={u}: relative difference {err}");
        }
    }

    #[test]
    fn calibration_constant_for_cauchy_is_one() {
        // For p = 1 the variates are standard Cauchy, whose |X| has median
        // tan(pi/4) = 1.
        let m = median_abs_pstable(1.0);
        assert!((m - 1.0).abs() < 0.03, "Cauchy |median| estimate {m}");
    }

    #[test]
    fn estimates_f1_of_a_point_mass() {
        // A single heavy item: ||f||_p = f for every p, easy ground truth.
        let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(1.0, 0.1), 3);
        for _ in 0..500 {
            sketch.insert(9);
        }
        let est = sketch.norm_estimate();
        assert!(
            relative_error(est, 500.0) < 0.15,
            "norm estimate {est} for a 500-count point mass"
        );
    }

    #[test]
    fn estimates_f2_on_zipf_streams() {
        let updates = ZipfGenerator::new(2_000, 1.1, 5).take_updates(30_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(2.0, 0.1), 7);
        for &u in &updates {
            sketch.update(u);
        }
        let err = relative_error(sketch.estimate(), truth.f2());
        assert!(err < 0.2, "F2 relative error {err}");
    }

    #[test]
    fn fast_ams_tracks_f2_across_seeds_and_streams() {
        // The fast AMS estimator at tracking sizing stays within the bound
        // of `estimates_f2_on_zipf_streams` (0.2) on skewed and flat
        // streams.
        let config = PStableConfig::for_tracking(2.0, 0.1, 1e-3);
        for seed in 0..10u64 {
            let streams = [
                ZipfGenerator::new(2_000, 1.1, 100 + seed).take_updates(30_000),
                UniformGenerator::new(5_000, 200 + seed).take_updates(30_000),
            ];
            for updates in &streams {
                let truth: FrequencyVector = updates.iter().copied().collect();
                let mut sketch = PStableSketch::new(config, 300 + seed);
                for &u in updates {
                    sketch.update(u);
                }
                let err = relative_error(sketch.estimate(), truth.f2());
                assert!(err < 0.2, "seed {seed}: F2 relative error {err}");
            }
        }
    }

    #[test]
    fn cauchy_kernel_tracks_f1_across_seeds_and_streams() {
        // The Cauchy kernel at tracking sizing stays within the F2 bound of
        // `fast_ams_tracks_f2_across_seeds_and_streams` on skewed and flat
        // streams.
        let config = PStableConfig::for_tracking(1.0, 0.1, 1e-3);
        for seed in 0..10u64 {
            let streams = [
                ZipfGenerator::new(2_000, 1.1, 100 + seed).take_updates(30_000),
                UniformGenerator::new(5_000, 200 + seed).take_updates(30_000),
            ];
            for updates in &streams {
                let truth: FrequencyVector = updates.iter().copied().collect();
                let mut sketch = PStableSketch::new(config, 300 + seed);
                for &u in updates {
                    sketch.update(u);
                }
                let err = relative_error(sketch.estimate(), truth.fp(1.0));
                assert!(err < 0.2, "seed {seed}: F1 relative error {err}");
            }
        }
    }

    #[test]
    fn fast_ams_cancels_deletions_and_keeps_its_space() {
        let config = PStableConfig::for_tracking(2.0, 0.1, 1e-3);
        let mut sketch = PStableSketch::new(config, 29);
        for i in 0..300u64 {
            sketch.update(Update::new(i, 3));
        }
        assert!(sketch.estimate() > 0.0);
        for i in 0..300u64 {
            sketch.update(Update::new(i, -3));
        }
        assert_eq!(sketch.estimate(), 0.0);
        // Same bytes as any p ≠ 2 sketch with the same rows: the counters
        // plus two degree-3 hash polynomials.
        assert_eq!(sketch.space_bytes(), config.rows * 8 + 2 * 4 * 8);
        let cauchy = PStableSketch::new(PStableConfig { p: 1.0, ..config }, 29);
        assert_eq!(sketch.space_bytes(), cauchy.space_bytes());
    }

    #[test]
    fn hash_walk_matches_the_per_row_variates_bitwise() {
        // The inverse of the row-key multiplier mod 2^64 (Newton's
        // iteration doubles the correct low bits each step).
        let mut inverse = ROW_KEY_MULTIPLIER;
        for _ in 0..6 {
            inverse =
                inverse.wrapping_mul(2u64.wrapping_sub(ROW_KEY_MULTIPLIER.wrapping_mul(inverse)));
        }
        assert_eq!(ROW_KEY_MULTIPLIER.wrapping_mul(inverse), 1);
        // This item's first row key is u64::MAX − 5, so its row keys wrap
        // and the update takes the per-row fallback.
        let wrapping_item = (u64::MAX - 5).wrapping_mul(inverse);
        let updates = [
            Update::new(0, 1),
            Update::new(17, 4),
            Update::new(wrapping_item, 2),
            Update::new(123_456_789, -3),
            Update::new(u64::MAX, 1),
            Update::new(wrapping_item, -1),
        ];
        // Row counts inside one chunk, one past two whole chunks, and
        // crossing two chunk boundaries mid-chunk.
        for rows in [77, 2 * ROW_CHUNK + 1, 300] {
            assert!(wrapping_item
                .wrapping_mul(ROW_KEY_MULTIPLIER)
                .checked_add(rows as u64)
                .is_none());
            // 1 + 5·10⁻¹⁰ is within `is_cauchy`'s tolerance, so it must
            // produce exactly the p = 1 counters.
            let mut cauchy_counters = Vec::new();
            for p in [0.5, 1.0, 1.0 + 5e-10, 1.5] {
                let mut sketch = PStableSketch::new(PStableConfig { p, rows }, 31);
                let mut reference = vec![0.0f64; rows];
                for &u in &updates {
                    sketch.update(u);
                    for (row, counter) in reference.iter_mut().enumerate() {
                        *counter += sketch.variate(row, u.item) * u.delta as f64;
                    }
                }
                for (row, (&got, &want)) in sketch.counters.iter().zip(&reference).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "p={p} rows={rows} row {row}");
                }
                if is_cauchy(p) {
                    cauchy_counters.push(sketch.counters);
                }
            }
            assert_eq!(cauchy_counters.len(), 2);
            assert!(
                cauchy_counters[0]
                    .iter()
                    .zip(&cauchy_counters[1])
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "rows={rows}: p within 1e-9 of 1 left the Cauchy kernel"
            );
        }
    }

    #[test]
    fn estimates_fractional_moments() {
        let updates = ZipfGenerator::new(2_000, 1.1, 9).take_updates(30_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        for p in [0.5, 1.5] {
            let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(p, 0.1), 11);
            for &u in &updates {
                sketch.update(u);
            }
            let err = relative_error(sketch.estimate(), truth.fp(p));
            assert!(err < 0.25, "F_{p} relative error {err}");
        }
    }

    #[test]
    fn estimates_f1_on_uniformish_streams() {
        // F1 of an insertion-only stream is just the update count, a strict
        // accuracy check for the Cauchy sketch.
        let updates = ZipfGenerator::new(500, 1.0, 13).take_updates(20_000);
        let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(1.0, 0.1), 17);
        for &u in &updates {
            sketch.update(u);
        }
        let err = relative_error(sketch.estimate(), 20_000.0);
        assert!(err < 0.2, "F1 relative error {err}");
    }

    #[test]
    fn linearity_under_deletions() {
        let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(1.5, 0.2), 19);
        for i in 0..300u64 {
            sketch.insert(i);
        }
        for i in 0..300u64 {
            sketch.update(Update::delete(i));
        }
        assert!(sketch.norm_estimate().abs() < 1e-6);
    }

    #[test]
    fn variates_are_consistent_across_calls() {
        let sketch = PStableSketch::new(PStableConfig::for_accuracy(1.0, 0.5), 23);
        for row in 0..4 {
            for item in [0u64, 17, 123_456] {
                assert_eq!(sketch.variate(row, item), sketch.variate(row, item));
            }
        }
    }

    #[test]
    fn space_scales_with_rows_only() {
        let small = PStableSketch::new(PStableConfig { p: 1.0, rows: 16 }, 0);
        let big = PStableSketch::new(PStableConfig { p: 1.0, rows: 1024 }, 0);
        assert!(big.space_bytes() > small.space_bytes());
        let mut used = PStableSketch::new(PStableConfig { p: 1.0, rows: 16 }, 0);
        for i in 0..10_000u64 {
            used.insert(i);
        }
        assert_eq!(
            used.space_bytes(),
            small.space_bytes(),
            "space is data-independent"
        );
    }

    #[test]
    #[should_panic(expected = "p must lie in (0, 2]")]
    fn rejects_p_above_two() {
        let _ = PStableConfig::for_accuracy(3.0, 0.1);
    }
}
