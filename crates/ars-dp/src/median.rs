//! An ε-DP median via the exponential mechanism over a fixed answer grid.
//!
//! Given `n` values (in the streaming application: the estimates of the
//! `O(√λ)` sketch copies) and a data-independent candidate grid (the
//! ε-rounded estimate grid of the robustification engine), the mechanism
//! snaps each value to its nearest candidate and scores every candidate
//! `c` by the tie-aware interval-rank utility
//! `u(c) = −max(#{vᵢ < c} − n/2, n/2 − #{vᵢ ≤ c}, 0)`, sampling a
//! candidate with probability `∝ exp(ε·u/2)`. (The strict rank
//! `−|#{vᵢ < c} − n/2|` would score every candidate equally badly on a
//! tied dataset — the common all-copies-agree case — and degenerate into
//! uniform grid sampling; see [`private_median`].) Changing one value
//! moves each count by at most one, so the utility has sensitivity 1 and
//! the release is ε-DP with respect to any single copy — which is exactly
//! the granularity the Hassidim et al. robustness argument protects (one
//! copy = one record).
//!
//! The standard utility guarantee applies: with probability `1 − η` the
//! returned candidate's rank is within `(2/ε)·ln(|grid|/η)` of the true
//! median rank, so with enough copies the DP median inherits the accuracy
//! of the copy ensemble's central order statistics.

use rand::Rng;

/// The data-independent candidate grid `{(1+γ)^k : lo ≤ (1+γ)^k ≤ hi·(1+γ)}`
/// — the same power-of-`(1+γ)` grid the robustification engine rounds its
/// published outputs onto. `lo` is clamped to at least 1.
#[must_use]
pub fn estimate_grid(gamma: f64, lo: f64, hi: f64) -> Vec<f64> {
    assert!(gamma > 0.0 && gamma < 1.0, "grid resolution in (0,1)");
    assert!(hi.is_finite() && hi >= 1.0, "grid upper bound must be >= 1");
    let lo = lo.max(1.0);
    let base = 1.0 + gamma;
    let first = (lo.ln() / base.ln()).floor() as i64;
    let last = (hi.ln() / base.ln()).ceil() as i64;
    (first..=last).map(|k| base.powi(k as i32)).collect()
}

/// The candidate nearest to `v` in multiplicative distance (`candidates`
/// must be sorted ascending and non-empty). Non-positive or NaN `v` snaps
/// to the bottom of the grid.
fn nearest_candidate(candidates: &[f64], v: f64) -> f64 {
    let i = candidates.partition_point(|&c| c < v);
    if i == 0 {
        return candidates[0];
    }
    if i == candidates.len() {
        return candidates[candidates.len() - 1];
    }
    let (lo, hi) = (candidates[i - 1], candidates[i]);
    if v / lo <= hi / v {
        lo
    } else {
        hi
    }
}

/// Selects an ε-DP median of `values` from `candidates` with the
/// exponential mechanism (Gumbel-max sampling: `argmax_c ε·u(c)/2 + G_c`
/// with i.i.d. standard Gumbel noise is exactly the exponential
/// mechanism's distribution, with no normalization pass).
///
/// Values are first snapped to their nearest candidate — the mechanism is
/// a median over the *discretized* domain. This matters for the utility:
/// with the tie-aware interval rank
/// `u(c) = −max(#{v < c} − n/2, n/2 − #{v ≤ c}, 0)`, a candidate carrying
/// the median mass scores 0 even when many values are identical, whereas
/// a strict rank count would score every candidate equally badly on a
/// tied dataset and degenerate into uniform sampling over the grid.
/// Changing one value moves each count by at most one, so the utility
/// keeps sensitivity 1 and the release is ε-DP per value.
///
/// # Panics
/// Panics if `candidates` is empty or `epsilon ≤ 0`. `candidates` must be
/// sorted ascending (as [`estimate_grid`] returns).
#[must_use]
pub fn private_median<R: Rng + ?Sized>(
    values: &[f64],
    candidates: &[f64],
    epsilon: f64,
    rng: &mut R,
) -> f64 {
    assert!(!candidates.is_empty(), "candidate grid must be non-empty");
    assert!(epsilon > 0.0, "epsilon must be positive");
    let mut snapped: Vec<f64> = values
        .iter()
        .map(|&v| nearest_candidate(candidates, v))
        .collect();
    snapped.sort_by(f64::total_cmp);
    let half = snapped.len() as f64 / 2.0;

    let mut best = candidates[0];
    let mut best_score = f64::NEG_INFINITY;
    for &c in candidates {
        let below = snapped.partition_point(|&v| v < c) as f64;
        let below_or_equal = snapped.partition_point(|&v| v <= c) as f64;
        let utility = -(below - half).max(half - below_or_equal).max(0.0);
        let u: f64 = rng.gen();
        // Standard Gumbel via inverse CDF, clamped away from u = 0.
        let gumbel = -(-(u.max(f64::MIN_POSITIVE)).ln()).ln();
        let score = 0.5 * epsilon * utility + gumbel;
        if score > best_score {
            best_score = score;
            best = c;
        }
    }
    best
}

/// The rank distance of `answer` from the median of `values` — the error
/// measure the exponential-mechanism guarantee bounds. Used by tests and
/// experiment reports.
#[must_use]
pub fn rank_error(values: &[f64], answer: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.partition_point(|&v| v < answer) as f64;
    (rank - sorted.len() as f64 / 2.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn grid_covers_the_requested_range_with_the_requested_resolution() {
        let grid = estimate_grid(0.1, 1.0, 1e6);
        assert!(grid.first().copied().unwrap() <= 1.0 + 1e-9);
        assert!(grid.last().copied().unwrap() >= 1e6);
        // Adjacent candidates are a (1+gamma) factor apart.
        for w in grid.windows(2) {
            assert!((w[1] / w[0] - 1.1).abs() < 1e-9);
        }
        // ~log_{1.1}(1e6) = 145 candidates, not thousands.
        assert!((140..=150).contains(&grid.len()), "grid len {}", grid.len());
    }

    #[test]
    fn private_median_lands_near_the_true_median_rank() {
        // 25 "copy estimates" clustered around 1000, grid over [1, 1e6].
        // The exponential-mechanism bound at eps=3 over ~290 candidates
        // gives rank error <= (2/eps) ln(|grid|/eta) ~ 5.3 with eta = 1e-4;
        // assert the mean over seeded trials respects it and that draws
        // essentially never escape the cluster (rank error n/2).
        let values: Vec<f64> = (0..25).map(|i| 950.0 + 4.0 * i as f64).collect();
        let grid = estimate_grid(0.05, 1.0, 1e6);
        let mut total_rank_err = 0.0;
        let mut escapes = 0;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let answer = private_median(&values, &grid, 3.0, &mut rng);
            let err = rank_error(&values, answer);
            total_rank_err += err;
            if err >= 12.5 {
                // rank 0 or n: the answer fell outside the cluster.
                escapes += 1;
            }
        }
        let mean = total_rank_err / 200.0;
        assert!(mean <= 6.0, "mean rank error {mean} too large");
        assert!(escapes <= 20, "{escapes}/200 draws escaped the cluster");
    }

    #[test]
    fn higher_epsilon_concentrates_harder() {
        let values: Vec<f64> = (0..25).map(|i| 500.0 + 10.0 * i as f64).collect();
        let grid = estimate_grid(0.05, 1.0, 1e6);
        let mean_err = |epsilon: f64| {
            let mut total = 0.0;
            for seed in 0..300 {
                let mut rng = StdRng::seed_from_u64(900 + seed);
                total += rank_error(&values, private_median(&values, &grid, epsilon, &mut rng));
            }
            total / 300.0
        };
        let loose = mean_err(0.2);
        let tight = mean_err(4.0);
        assert!(
            tight < loose,
            "eps=4 mean rank error {tight} not below eps=0.2 error {loose}"
        );
    }

    #[test]
    fn tied_values_concentrate_on_their_grid_bin() {
        // All copies reporting the same estimate is the common case early
        // in a stream (exact small-count regime); the tie-aware utility
        // must give the carrying grid point utility 0 and everything else
        // a majority penalty, not degenerate into uniform grid sampling.
        let values = [3.0; 20];
        let grid = estimate_grid(0.0625, 1.0, 1e9);
        let mut on_bin = 0;
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let answer = private_median(&values, &grid, 3.0, &mut rng);
            if (answer / 3.0 - 1.0).abs() < 0.1 {
                on_bin += 1;
            }
        }
        assert!(on_bin >= 95, "only {on_bin}/100 draws hit the 3.0 bin");
    }

    #[test]
    fn answers_are_always_grid_candidates() {
        let grid = estimate_grid(0.1, 1.0, 1e4);
        let values = [3.0, 40.0, 500.0];
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let answer = private_median(&values, &grid, 1.0, &mut rng);
            assert!(grid.contains(&answer), "answer {answer} not on the grid");
        }
    }

    #[test]
    fn non_finite_copy_estimates_still_yield_a_reading() {
        // A copy that reports NaN snaps to the bottom of the grid and one
        // that reports ∞ to the top, so the mechanism still releases a
        // grid value.
        let grid = estimate_grid(0.1, 1.0, 1e4);
        let values = [f64::NAN, 50.0, 50.0, 50.0, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(3);
        let answer = private_median(&values, &grid, 3.0, &mut rng);
        assert!(grid.contains(&answer), "answer {answer} not on the grid");
        // Positive NaN orders after ∞, so the rank error is still a rank.
        assert!(rank_error(&values, answer) <= 2.5);
    }

    #[test]
    #[should_panic(expected = "candidate grid must be non-empty")]
    fn rejects_empty_grid() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = private_median(&[1.0], &[], 1.0, &mut rng);
    }
}
