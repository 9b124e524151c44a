//! Robustification strategies: the seam between "a static sketch" and
//! "a robust estimator".
//!
//! A [`RobustStrategy`] turns any [`EstimatorFactory`] into a ready
//! [`DynRobust`] engine under a [`RobustPlan`]. The three strategies the
//! paper gives are implemented here:
//!
//! * [`SketchSwitchStrategy`] — pool of copies, retire-on-publish
//!   (Algorithm 1 / Theorem 4.1);
//! * [`ComputationPathsStrategy`] — single tiny-δ copy, union bound over
//!   output sequences (Lemma 3.8);
//! * [`CryptoMaskStrategy`] — PRF-mask every item, publish raw estimates
//!   (Theorem 10.1; only sound for sketches that ignore duplicates, like
//!   the `F₀` family).
//!
//! Follow-up frameworks are *exactly* new implementations of this trait,
//! and two have already landed this way: the differential-privacy wrapper
//! of Hassidim–Kaplan–Mansour–Matias–Stemmer (NeurIPS 2020,
//! [`crate::dp_aggregation::DpAggregationStrategy`]) aggregates copies
//! through a DP median instead of switching, and the difference estimators
//! of Attias–Cohen–Shechner–Stemmer (2022,
//! [`crate::difference_estimators::DifferenceEstimatorsStrategy`]) split
//! the stream into geometrically scheduled chunks whose telescoped
//! difference estimates are summed at publication. Both slotted in without
//! touching the engine, the builder surface, or any driver loop; the
//! repo-level `docs/ARCHITECTURE.md` records the recipe.

use ars_hash::prf::{ChaChaPrf, Prf, RandomOracle};
use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;

use crate::computation_paths::{ComputationPaths, ComputationPathsConfig};
use crate::engine::{DynRobust, RobustPlan, Robustify, RoundingMode, StrategyCore};
use crate::sketch_switch::{SketchSwitch, SketchSwitchConfig};

/// A robustification strategy: wraps a static-estimator factory into a
/// robust estimator engine under a given plan.
///
/// Implementations decide how the static state is organised (one copy,
/// a pool, a masked copy, …); the returned engine owns publication,
/// budgeting and accounting. See the module docs for the extension story.
pub trait RobustStrategy {
    /// The strategy's name for reports and builder diagnostics.
    fn name(&self) -> &'static str;

    /// Wraps `factory` into a robust estimator.
    fn wrap<F>(&self, factory: F, plan: &RobustPlan, seed: u64) -> DynRobust
    where
        F: EstimatorFactory + Send + 'static,
        F::Output: Send + 'static;
}

/// How a [`SketchSwitchStrategy`] sizes and manages its pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolPolicy {
    /// Theorem 4.1's restarting pool of `Θ(ε^{-1} log ε^{-1})` copies,
    /// scaled by `max(p, 1)` when tracking a `p`-th moment.
    Restarting {
        /// Moment order of the tracked quantity (1.0 for `F₀`-like
        /// monotone counts).
        moment: f64,
    },
    /// Lemma 3.6's exhaustible pool of `min(λ, cap)` copies.
    Exhaustible {
        /// Practical cap on the pool size (the analytic λ can be huge;
        /// the pool degrades gracefully by keeping its last copy).
        cap: usize,
    },
    /// An explicit pool configuration, for callers that have already done
    /// the sizing.
    Explicit(SketchSwitchConfig),
}

/// Sketch switching (Algorithm 1 / Theorem 4.1) as a [`RobustStrategy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSwitchStrategy {
    /// Pool sizing / management policy.
    pub pool: PoolPolicy,
}

impl SketchSwitchStrategy {
    /// The optimized restarting wrapper for a monotone count (`F₀`).
    #[must_use]
    pub fn restarting() -> Self {
        Self {
            pool: PoolPolicy::Restarting { moment: 1.0 },
        }
    }

    /// The optimized restarting wrapper for a `p`-th moment.
    #[must_use]
    pub fn restarting_for_moment(p: f64) -> Self {
        Self {
            pool: PoolPolicy::Restarting { moment: p },
        }
    }

    /// The plain Lemma 3.6 wrapper with a practical pool cap.
    #[must_use]
    pub fn exhaustible(cap: usize) -> Self {
        Self {
            pool: PoolPolicy::Exhaustible { cap },
        }
    }

    fn config_for(&self, plan: &RobustPlan) -> SketchSwitchConfig {
        match self.pool {
            PoolPolicy::Restarting { moment } => {
                SketchSwitchConfig::restarting_for_moment(plan.rounding_epsilon, moment)
            }
            PoolPolicy::Exhaustible { cap } => {
                SketchSwitchConfig::exhaustible(plan.rounding_epsilon, plan.lambda.min(cap.max(1)))
            }
            PoolPolicy::Explicit(config) => config,
        }
    }
}

impl RobustStrategy for SketchSwitchStrategy {
    fn name(&self) -> &'static str {
        "sketch-switching"
    }

    fn wrap<F>(&self, factory: F, plan: &RobustPlan, seed: u64) -> DynRobust
    where
        F: EstimatorFactory + Send + 'static,
        F::Output: Send + 'static,
    {
        let config = self.config_for(plan);
        let core: Box<dyn StrategyCore + Send> = Box::new(SketchSwitch::new(factory, config, seed));
        Robustify::new(core, *plan)
    }
}

/// Computation paths (Lemma 3.8) as a [`RobustStrategy`].
///
/// The factory handed to [`RobustStrategy::wrap`] must already be
/// instantiated with the union-bound failure probability; use
/// [`ComputationPathsStrategy::required_delta`] to obtain it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputationPathsStrategy;

impl ComputationPathsStrategy {
    /// The per-path failure probability δ₀ the static sketch must be built
    /// with (clamped to `f64::MIN_POSITIVE`, floored at `floor` for
    /// practicality — the theoretical value underflows `f64` and would
    /// make the static sketch enormous; experiments report the theoretical
    /// exponent alongside).
    #[must_use]
    pub fn required_delta(plan: &RobustPlan, floor: f64) -> f64 {
        ComputationPathsConfig::from_plan(plan)
            .required_delta_clamped()
            .max(floor)
    }
}

impl RobustStrategy for ComputationPathsStrategy {
    fn name(&self) -> &'static str {
        "computation-paths"
    }

    fn wrap<F>(&self, factory: F, plan: &RobustPlan, seed: u64) -> DynRobust
    where
        F: EstimatorFactory + Send + 'static,
        F::Output: Send + 'static,
    {
        let config = ComputationPathsConfig::from_plan(plan);
        let core: Box<dyn StrategyCore + Send> =
            Box::new(ComputationPaths::new(&factory, config, seed));
        Robustify::new(core, *plan)
    }
}

/// Which keyed-function backend the cryptographic transformation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CryptoBackend {
    /// A concrete exponentially-secure PRF instantiated with ChaCha20 (the
    /// "under a suitable cryptographic assumption" half of Theorem 10.1).
    #[default]
    ChaChaPrf,
    /// An idealized random oracle (the random-oracle-model half); its
    /// per-item images are not charged to the algorithm's space.
    RandomOracle,
}

/// The cryptographic transformation of Theorem 10.1 (Section 10) as a
/// [`RobustStrategy`]: mask every inserted item through a secret PRF and
/// feed the image to an ordinary static sketch.
///
/// Against a *computationally bounded* adversary this is a much cheaper
/// route to robust distinct elements than sketch switching. The argument
/// needs exactly two properties:
///
/// 1. the static sketch never changes its state when it receives an item
///    it has already incorporated — true for KMV and the level-list
///    sketch, both of which store (hashes of) item identities; and
/// 2. the adversary cannot distinguish the PRF images of fresh items from
///    fresh uniform values.
///
/// Given those, any adaptive adversary is equivalent to one that streams
/// `1, 2, 3, …`, i.e. a static adversary, and the static tracking
/// guarantee applies. So the strategy is only sound for duplicate-invariant
/// sketches (the `F₀` family): [`crate::builder::RobustBuilder::f0`] with
/// `Strategy::Crypto(..)` is its one builder route, and the `F_p`
/// constructors reject it. Outputs are published raw — the argument does
/// not go through ε-rounding, so the wrapped estimator reports no flip
/// budget ([`crate::estimate::FlipBudget::Unbounded`]).
///
/// The cost over the static algorithm is just the PRF key: `O(c log n)`
/// bits against `n^c`-time adversaries — the "essentially no extra cost"
/// row of Table 1. [`Estimator::space_bytes`] charges the key for the
/// concrete PRF and only the seed in the random-oracle model. Theorem 10.1
/// states success probability 3/4;
/// [`crate::builder::RobustBuilder::theorem_10_1`] pins that δ = 1/4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CryptoMaskStrategy {
    /// Keyed-function backend.
    pub backend: CryptoBackend,
}

impl RobustStrategy for CryptoMaskStrategy {
    fn name(&self) -> &'static str {
        "crypto-mask"
    }

    fn wrap<F>(&self, factory: F, plan: &RobustPlan, seed: u64) -> DynRobust
    where
        F: EstimatorFactory + Send + 'static,
        F::Output: Send + 'static,
    {
        let prf = match self.backend {
            CryptoBackend::ChaChaPrf => PrfBackend::ChaCha(ChaChaPrf::new(seed)),
            CryptoBackend::RandomOracle => PrfBackend::Oracle(RandomOracle::new(seed)),
        };
        let core: Box<dyn StrategyCore + Send> = Box::new(CryptoMaskCore {
            prf,
            sketch: factory.build(seed.wrapping_add(1)),
        });
        let mut plan = *plan;
        // The crypto argument needs no flip budget; report "unlimited" so
        // budget_exceeded stays false.
        plan.lambda = usize::MAX;
        Robustify::new(core, plan)
    }
}

#[derive(Debug)]
enum PrfBackend {
    ChaCha(ChaChaPrf),
    Oracle(RandomOracle),
}

impl PrfBackend {
    fn evaluate(&mut self, item: u64) -> u64 {
        match self {
            Self::ChaCha(prf) => prf.evaluate(item),
            Self::Oracle(oracle) => oracle.evaluate(item),
        }
    }

    fn charged_state_bits(&self) -> usize {
        match self {
            Self::ChaCha(prf) => prf.charged_state_bits(),
            Self::Oracle(oracle) => oracle.charged_state_bits(),
        }
    }
}

/// The strategy core of the cryptographic route: PRF plus one static
/// sketch, publishing raw.
struct CryptoMaskCore<E> {
    prf: PrfBackend,
    sketch: E,
}

impl<E: Estimator + Send> StrategyCore for CryptoMaskCore<E> {
    fn ingest(&mut self, update: Update) {
        // Insertion-only model: deletions are ignored by the F0 family.
        if update.delta <= 0 {
            return;
        }
        let masked = self.prf.evaluate(update.item);
        self.sketch.update(Update::new(masked, update.delta));
    }

    fn raw_estimate(&self) -> f64 {
        self.sketch.estimate()
    }

    fn space_bytes(&self) -> usize {
        // The static sketch plus the *charged* PRF state (the key for the
        // concrete PRF; only the seed in the random-oracle model).
        self.sketch.space_bytes() + self.prf.charged_state_bits().div_ceil(8)
    }

    fn rounding_mode(&self) -> RoundingMode {
        RoundingMode::Raw
    }

    fn strategy_name(&self) -> &'static str {
        "crypto-mask"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RobustEstimator;
    use ars_sketch::kmv::{KmvConfig, KmvFactory};

    fn kmv_factory() -> KmvFactory {
        KmvFactory {
            config: KmvConfig::for_accuracy(0.1),
        }
    }

    #[test]
    fn every_strategy_wraps_the_same_factory() {
        let plan = RobustPlan::new(0.2, 500);
        let strategies: Vec<(&str, DynRobust)> = vec![
            (
                "sketch-switching",
                SketchSwitchStrategy::restarting().wrap(kmv_factory(), &plan, 1),
            ),
            (
                "computation-paths",
                ComputationPathsStrategy.wrap(kmv_factory(), &plan, 2),
            ),
            (
                "crypto-mask",
                CryptoMaskStrategy::default().wrap(kmv_factory(), &plan, 3),
            ),
        ];
        for (name, mut robust) in strategies {
            for i in 0..2_000u64 {
                robust.insert(i % 700);
            }
            let est = robust.estimate();
            assert!(
                (est - 700.0).abs() <= 0.25 * 700.0,
                "{name}: estimate {est} for 700 distinct"
            );
            assert!(robust.space_bytes() > 0, "{name}");
        }
    }

    #[test]
    fn crypto_strategy_reports_unlimited_budget() {
        let plan = RobustPlan::new(0.2, 10);
        let mut robust = CryptoMaskStrategy::default().wrap(kmv_factory(), &plan, 7);
        for i in 0..5_000u64 {
            robust.insert(i);
        }
        assert_eq!(robust.flip_budget(), usize::MAX);
        assert!(!robust.budget_exceeded());
        assert_eq!(robust.output_changes(), 0, "raw mode tracks no rounding");
    }

    #[test]
    fn pool_policies_produce_expected_configs() {
        let mut plan = RobustPlan::new(0.2, 1_000);
        plan.rounding_epsilon = 0.2;
        let restarting = SketchSwitchStrategy::restarting().config_for(&plan);
        assert_eq!(
            restarting.strategy,
            crate::sketch_switch::SwitchStrategy::Restart
        );
        let capped = SketchSwitchStrategy::exhaustible(64).config_for(&plan);
        assert_eq!(capped.copies, 64);
        let explicit = SketchSwitchStrategy {
            pool: PoolPolicy::Explicit(SketchSwitchConfig::exhaustible(0.2, 7)),
        }
        .config_for(&plan);
        assert_eq!(explicit.copies, 7);
    }
}
