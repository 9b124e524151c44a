//! The generic robustification engine.
//!
//! The paper's central message is that robustness is a *generic
//! transformation*: take any static sketch with a strong-tracking
//! guarantee, bound the flip number of the tracked function, and wrap the
//! sketch so that only ε-rounded outputs are ever published. Everything
//! that is common to the transformations — the ε-rounding of published
//! outputs, the flip-number budget accounting, the switch bookkeeping, the
//! space accounting — lives exactly once, here, in [`Robustify`].
//!
//! What *varies* between the paper's constructions is how the static
//! sketch state is organised and what happens when a new value is
//! published; that seam is the [`StrategyCore`] trait:
//!
//! * sketch switching ([`crate::sketch_switch::SketchSwitch`]) feeds every
//!   update to a pool of copies and retires the active copy whenever its
//!   estimate is exposed through a publication;
//! * computation paths ([`crate::computation_paths::ComputationPaths`])
//!   keeps a single tiny-δ copy and does nothing on publication — the
//!   union bound over output sequences does the work;
//! * the cryptographic route ([`crate::strategy::CryptoMaskStrategy`])
//!   masks items through a PRF and publishes raw estimates
//!   ([`RoundingMode::Raw`]).
//!
//! New strategies implement [`StrategyCore`] +
//! [`crate::strategy::RobustStrategy`] and inherit the whole engine,
//! builder and trait-object surface for free — the differential-privacy
//! wrapper ([`crate::dp_aggregation`]) and the difference estimators
//! ([`crate::difference_estimators`]) both arrived exactly this way; see
//! `docs/ARCHITECTURE.md` for the worked recipe.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use ars_sketch::Estimator;
use ars_stream::Update;

use crate::api::RobustEstimator;
use crate::error::{ArsError, BuildError};
use crate::estimate::{Estimate, FlipBudget};
use crate::rounding::EpsilonRounder;

/// Derives the seed for copy `index` of a pool strategy from the pool's
/// base seed (SplitMix64-style mixing). Shared by every strategy that
/// instantiates multiple copies so their seed streams stay in one place.
#[must_use]
pub(crate) fn derive_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .rotate_left(17)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Pool work a batch must have, measured as (copies left × the first
/// copy's time on the batch), before its remaining copies are split across
/// threads. A worker costs a thread start and the wake-up of a core that
/// may be busy, whatever the batch, so only work well above that cost is
/// worth splitting. The gate also has to sit far from any common batch:
/// it reads a wall clock, and a batch whose work is near the gate splits in
/// one run and not in the next. On a 2-core host a 64-update F0 batch or a
/// 256-update fp2 pool batch is ~1–3 ms of work and a 256-update fp1 batch
/// ~80–140 ms, so 20 ms leaves a wide margin on both sides.
const SPLIT_MIN_WORK: Duration = Duration::from_millis(20);

/// The cores this process may use (`taskset` and cgroup quotas included),
/// read once.
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Feeds a whole batch to every copy of a pool, copy-major: each copy
/// streams the batch in order before the next copy is touched, so its
/// state stays cache-resident across the batch. The one place that decides
/// ingest order and threading for every pool strategy.
///
/// The caller's thread ingests copy 0 and times it. When more than one core
/// is available and the rest of the pool would take at least
/// [`SPLIT_MIN_WORK`] at that pace, the remaining copies are split across
/// the cores by [`ingest_split`]; otherwise they run here, one by one. Each
/// copy sees the same updates in the same order either way, and no copy
/// reads another's state, so the pool ends bitwise identical.
pub(crate) fn ingest_pool<E: Estimator + Send>(copies: &mut [E], updates: &[Update]) {
    let Some((first, rest)) = copies.split_first_mut() else {
        return;
    };
    let start = Instant::now();
    ingest_copies(std::slice::from_mut(first), updates);
    let threads = available_threads();
    let rest_work = start
        .elapsed()
        .saturating_mul(u32::try_from(rest.len()).unwrap_or(u32::MAX));
    if threads > 1 && rest_work >= SPLIT_MIN_WORK {
        ingest_split(rest, updates, threads);
    } else {
        ingest_copies(rest, updates);
    }
}

/// Ingests the batch into `copies` on up to `threads` threads, the
/// caller's included: each thread takes the next untouched copy and streams
/// the whole batch into it until none is left. Copies are handed out one
/// at a time, not in fixed chunks, so a thread that shares its core with
/// other work takes fewer of them and the batch does not wait on it. A
/// worker's panic reaches the caller with its original payload.
pub(crate) fn ingest_split<E: Estimator + Send>(
    copies: &mut [E],
    updates: &[Update],
    threads: usize,
) {
    let workers = threads.min(copies.len()).saturating_sub(1);
    let next = Mutex::new(copies.iter_mut());
    let drain = || loop {
        let Some(copy) = next.lock().unwrap_or_else(PoisonError::into_inner).next() else {
            return;
        };
        for &u in updates {
            copy.update(u);
        }
    };
    thread::scope(|scope| {
        let workers: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
        drain();
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic::resume_unwind(payload);
            }
        }
    });
}

fn ingest_copies<E: Estimator>(copies: &mut [E], updates: &[Update]) {
    for copy in copies {
        for &u in updates {
            copy.update(u);
        }
    }
}

/// The engine's publication accounting, as captured for (and restored
/// from) a snapshot: the raw published anchor, the flip ledger, and the
/// provisioned λ.
///
/// In [`RoundingMode::Windowed`] a reading is a pure function of this
/// state (plus the deterministic plan and copy count) — the published
/// value is a *path-dependent* rounding anchor, so replaying the exact
/// frequency vector into a fresh estimator reproduces the sketch state but
/// **not** the anchor or the ledger. Restoring this state alongside the
/// replay is what makes a restored reading bitwise-identical; see
/// [`crate::manager::SessionManager::restore_json`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublicationState {
    /// The raw published value (pre any additive/log transform), `None` if
    /// nothing has been published yet or the mode is [`RoundingMode::Raw`]
    /// (where readings are recomputed from the sketch, not anchored).
    pub published: Option<f64>,
    /// Output changes spent so far against the budget.
    pub flips: usize,
    /// The provisioned flip budget λ, raw (`usize::MAX` = unbounded). Kept
    /// here because re-provisioning doubles λ in place: a snapshot taken
    /// after a rebuild must restore the doubled budget, not the spec's
    /// original one.
    pub lambda: usize,
}

/// How the engine publishes outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundingMode {
    /// Publish ε-rounded values that only change when the raw estimate
    /// leaves the current window (Definition 3.7). Used by sketch
    /// switching and computation paths.
    #[default]
    Windowed,
    /// Publish the raw estimate directly. Used by the cryptographic
    /// route, whose robustness argument does not go through rounding.
    Raw,
}

/// The strategy-specific state driven by [`Robustify`].
///
/// Object-safe on purpose: the problem-specific estimator types store a
/// `Box<dyn StrategyCore + Send>`, so one engine type serves every
/// strategy × sketch combination without an enum per problem.
pub trait StrategyCore: Send {
    /// Feeds one update to the underlying static state. Must **not**
    /// publish anything: publication decisions belong to the engine.
    fn ingest(&mut self, update: Update);

    /// Feeds a whole batch of updates, with no publication in between.
    /// The default loops over [`StrategyCore::ingest`]; pool strategies
    /// override it with `ingest_pool`, which iterates copy-major (every
    /// copy streams the whole batch before the next copy is touched) and
    /// splits a heavy pool across cores.
    fn ingest_batch(&mut self, updates: &[Update]) {
        for &u in updates {
            self.ingest(u);
        }
    }

    /// The current raw (unrounded, unpublished) estimate.
    fn raw_estimate(&self) -> f64;

    /// Called by the engine immediately after it changes the published
    /// value — i.e. whenever the active state's randomness has been
    /// exposed to the adversary. Sketch switching retires/restarts the
    /// active copy here; single-copy strategies do nothing.
    fn on_publish(&mut self) {}

    /// Memory footprint of the strategy state in bytes.
    fn space_bytes(&self) -> usize;

    /// Number of independent static-sketch copies the strategy maintains —
    /// the quantity the paper's space bounds count (`O(λ)` for exhaustible
    /// sketch switching, `O(ε⁻¹ log ε⁻¹)` restarting, 1 for computation
    /// paths and the crypto route, `O(√λ)` for DP aggregation).
    fn copies(&self) -> usize {
        1
    }

    /// Publication mode this strategy's robustness argument requires.
    fn rounding_mode(&self) -> RoundingMode {
        RoundingMode::Windowed
    }

    /// Strategy name for reports.
    fn strategy_name(&self) -> &'static str;
}

impl StrategyCore for Box<dyn StrategyCore + Send> {
    fn ingest(&mut self, update: Update) {
        (**self).ingest(update);
    }

    fn ingest_batch(&mut self, updates: &[Update]) {
        (**self).ingest_batch(updates);
    }

    fn raw_estimate(&self) -> f64 {
        (**self).raw_estimate()
    }

    fn on_publish(&mut self) {
        (**self).on_publish();
    }

    fn space_bytes(&self) -> usize {
        (**self).space_bytes()
    }

    fn copies(&self) -> usize {
        (**self).copies()
    }

    fn rounding_mode(&self) -> RoundingMode {
        (**self).rounding_mode()
    }

    fn strategy_name(&self) -> &'static str {
        (**self).strategy_name()
    }
}

/// The parameter sheet a robust estimator was provisioned from.
///
/// Problem constructors ([`crate::builder::RobustBuilder`]) compute one of
/// these once; the engine keeps it for budget accounting and reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustPlan {
    /// User-facing approximation parameter ε (multiplicative for moments,
    /// additive bits for entropy).
    pub epsilon: f64,
    /// Window / rounding parameter actually used for publication. Equal to
    /// `epsilon` except where the tracked quantity is a transform of the
    /// user-facing one (entropy tracks `2^H`, so its window is `2^ε − 1`).
    pub rounding_epsilon: f64,
    /// Overall failure probability δ.
    pub delta: f64,
    /// Maximum stream length `m`.
    pub stream_length: u64,
    /// Domain size `n`.
    pub domain: u64,
    /// Frequency magnitude bound `M`.
    pub max_frequency: u64,
    /// Flip-number budget λ (`usize::MAX` when the strategy needs none).
    pub lambda: usize,
    /// Bound `T` with tracked values in `[1/T, T] ∪ {0}` (drives the
    /// computation-paths union bound).
    pub value_range: f64,
    /// Whether the user-facing guarantee is additive (entropy, in bits)
    /// rather than multiplicative. Shapes the interval
    /// [`crate::estimate::Estimate`] readings report.
    pub additive: bool,
    /// Per-chunk flip-budget accounting, present only for the
    /// difference-estimator strategy: the geometric chunk count and the
    /// provisioned budget `Σ_j b_j` (which `lambda` is set to, so readings
    /// report the improved budget). `None` for every other strategy.
    pub difference_schedule: Option<crate::difference_estimators::ChunkScheduleInfo>,
}

impl RobustPlan {
    /// A plan with the given ε and this crate's defaults for everything
    /// else (δ = 10⁻³, `m = n = M = 2²⁰`, λ = explicit).
    #[must_use]
    pub fn new(epsilon: f64, lambda: usize) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        Self {
            epsilon,
            rounding_epsilon: epsilon,
            delta: 1e-3,
            stream_length: 1 << 20,
            domain: 1 << 20,
            max_frequency: 1 << 20,
            lambda: lambda.max(1),
            value_range: 1e18,
            additive: false,
            difference_schedule: None,
        }
    }
}

/// The robustification engine: one strategy core plus the shared
/// publication, budgeting and accounting machinery (Definition 3.7's
/// algorithm `A'`, factored out of every per-problem construction).
///
/// `Robustify` is generic over the core so monomorphised hot paths are
/// available (`Robustify<SketchSwitch<F>>`), while every
/// [`crate::builder::RobustBuilder`] constructor returns the type-erased
/// [`DynRobust`].
pub struct Robustify<C: StrategyCore = Box<dyn StrategyCore + Send>> {
    core: C,
    plan: RobustPlan,
    rounder: EpsilonRounder,
    mode: RoundingMode,
}

/// The type-erased engine: the one estimator type every engine-backed
/// problem constructor returns.
pub type DynRobust = Robustify<Box<dyn StrategyCore + Send>>;

impl<C: StrategyCore> Robustify<C> {
    /// Assembles an engine from a strategy core and its plan, panicking on
    /// an invalid plan — a thin wrapper over [`Robustify::try_new`].
    #[must_use]
    pub fn new(core: C, plan: RobustPlan) -> Self {
        Self::try_new(core, plan).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Assembles an engine from a strategy core and its plan, rejecting an
    /// invalid plan with a typed error instead of a panic.
    pub fn try_new(core: C, plan: RobustPlan) -> Result<Self, ArsError> {
        if !(plan.rounding_epsilon > 0.0 && plan.rounding_epsilon < 1.0) {
            return Err(BuildError::out_of_range(
                "rounding epsilon",
                plan.rounding_epsilon,
                "(0,1)",
            )
            .into());
        }
        let mode = core.rounding_mode();
        Ok(Self {
            core,
            plan,
            rounder: EpsilonRounder::new(plan.rounding_epsilon / 2.0),
            mode,
        })
    }

    /// The plan this estimator was provisioned from.
    #[must_use]
    pub fn plan(&self) -> &RobustPlan {
        &self.plan
    }

    /// Read access to the strategy core (used by tests).
    #[must_use]
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The publication mode in force.
    #[must_use]
    pub fn rounding_mode(&self) -> RoundingMode {
        self.mode
    }

    /// The currently published value (ε-rounded in windowed mode, raw in
    /// raw mode) — the `value` field of every [`Estimate`] reading.
    fn published_value(&self) -> f64 {
        match self.mode {
            RoundingMode::Raw => self.core.raw_estimate(),
            RoundingMode::Windowed => self.rounder.published().unwrap_or(0.0),
        }
    }

    /// Re-derives the published output from the current raw estimate,
    /// changing it (and notifying the core) only when the current
    /// published value has left the `(1 ± ε/2)` window.
    fn refresh_publication(&mut self) {
        if self.mode == RoundingMode::Raw {
            return;
        }
        let raw = self.core.raw_estimate();
        if self.rounder.needs_update(raw) {
            self.rounder.round(raw);
            self.core.on_publish();
        }
    }
}

impl<C: StrategyCore> std::fmt::Debug for Robustify<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Robustify")
            .field("strategy", &self.core.strategy_name())
            .field("mode", &self.mode)
            .field("epsilon", &self.plan.epsilon)
            .field("lambda", &self.plan.lambda)
            .field("output_changes", &self.rounder.changes())
            .finish_non_exhaustive()
    }
}

impl<C: StrategyCore> Estimator for Robustify<C> {
    fn update(&mut self, update: Update) {
        self.core.ingest(update);
        self.refresh_publication();
    }

    /// The thin `query().value` shim: the bare float is a projection of
    /// the typed reading, never a separate code path.
    fn estimate(&self) -> f64 {
        RobustEstimator::query(self).value
    }

    fn space_bytes(&self) -> usize {
        // Strategy state plus the engine's own bookkeeping (plan + rounder).
        self.core.space_bytes() + std::mem::size_of::<RobustPlan>() + 32
    }
}

impl<C: StrategyCore> RobustEstimator for Robustify<C> {
    /// The amortized hot path: one (possibly copy-major, cache-friendly)
    /// ingest pass over the batch, then a single publication refresh. No
    /// output is published mid-batch, so per-update rounding/switch checks
    /// would be observable by no one; see
    /// [`RobustEstimator::update_batch`] for the adaptivity argument.
    fn update_batch(&mut self, updates: &[Update]) {
        // An empty batch must be a no-op: refreshing publication on zero
        // data would publish 0.0 and retire a pool copy for nothing.
        if updates.is_empty() {
            return;
        }
        self.core.ingest_batch(updates);
        self.refresh_publication();
    }

    fn epsilon(&self) -> f64 {
        self.plan.epsilon
    }

    fn output_changes(&self) -> usize {
        match self.mode {
            RoundingMode::Raw => 0,
            RoundingMode::Windowed => self.rounder.changes(),
        }
    }

    fn flip_budget(&self) -> usize {
        self.plan.lambda
    }

    fn copies(&self) -> usize {
        self.core.copies()
    }

    /// The one plan-aware implementation of the typed read surface: every
    /// strategy — switching pools, computation paths, the crypto route, DP
    /// aggregation — inherits this through the engine.
    ///
    /// Additive plans (entropy) track the *exponential* `2^H` through the
    /// multiplicative rounding machinery — the Section 7 reduction — so the
    /// reading takes the logarithm back to bits here, exactly once, and
    /// reports the additive `± ε` interval the user-facing guarantee is
    /// stated in.
    fn query(&self) -> Estimate {
        let published = self.published_value();
        let value = if self.plan.additive {
            if published <= 0.0 {
                0.0
            } else {
                published.log2().max(0.0)
            }
        } else {
            published
        };
        Estimate::new(
            value,
            self.plan.epsilon,
            self.plan.additive,
            self.output_changes(),
            FlipBudget::from_raw(self.plan.lambda),
            self.core.copies(),
        )
    }

    fn strategy_name(&self) -> &'static str {
        self.core.strategy_name()
    }

    fn publication_state(&self) -> Option<PublicationState> {
        Some(PublicationState {
            published: match self.mode {
                RoundingMode::Raw => None,
                RoundingMode::Windowed => self.rounder.published(),
            },
            flips: self.output_changes(),
            lambda: self.plan.lambda,
        })
    }

    fn restore_publication(&mut self, state: &PublicationState) {
        self.plan.lambda = state.lambda.max(1);
        if self.mode == RoundingMode::Windowed {
            self.rounder.restore(state.published, state.flips);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_sketch::kmv::{KmvConfig, KmvFactory};
    use ars_sketch::pstable::{PStableConfig, PStableFactory};
    use ars_sketch::tracking::{MedianTrackingConfig, MedianTrackingFactory};
    use ars_sketch::EstimatorFactory;
    use ars_stream::generator::{Generator, UniformGenerator, ZipfGenerator};

    /// A deterministic core tracking the number of ingested updates, used
    /// to pin down the engine's publication/accounting contract without
    /// any sketch noise.
    #[derive(Debug)]
    struct CountingCore {
        count: u64,
        publishes: usize,
        mode: RoundingMode,
    }

    impl CountingCore {
        fn windowed() -> Self {
            Self {
                count: 0,
                publishes: 0,
                mode: RoundingMode::Windowed,
            }
        }
    }

    impl StrategyCore for CountingCore {
        fn ingest(&mut self, _update: Update) {
            self.count += 1;
        }

        fn raw_estimate(&self) -> f64 {
            self.count as f64
        }

        fn on_publish(&mut self) {
            self.publishes += 1;
        }

        fn space_bytes(&self) -> usize {
            16
        }

        fn rounding_mode(&self) -> RoundingMode {
            self.mode
        }

        fn strategy_name(&self) -> &'static str {
            "counting"
        }
    }

    fn plan(epsilon: f64) -> RobustPlan {
        RobustPlan::new(epsilon, 1_000)
    }

    #[test]
    fn publishes_rounded_tracking_outputs() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.2));
        for i in 1..=10_000u64 {
            engine.update(Update::insert(i));
            let est = engine.estimate();
            let truth = i as f64;
            assert!(
                (est - truth).abs() <= 0.2 * truth + 1e-9,
                "estimate {est} not within 20% of {truth}"
            );
        }
    }

    #[test]
    fn output_changes_count_matches_core_publish_notifications() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.3));
        for i in 1..=5_000u64 {
            engine.update(Update::insert(i));
        }
        assert_eq!(engine.output_changes(), engine.core().publishes);
        assert!(engine.output_changes() > 0);
        // Monotone counter: changes are logarithmic, not linear.
        let bound = ((5_000f64).ln() / 1.15f64.ln()).ceil() as usize + 2;
        assert!(engine.output_changes() <= bound);
    }

    #[test]
    fn batch_path_publishes_once_per_batch() {
        let mut per_update = Robustify::new(CountingCore::windowed(), plan(0.2));
        let mut batched = Robustify::new(CountingCore::windowed(), plan(0.2));
        let updates: Vec<Update> = (1..=4_096u64).map(Update::insert).collect();
        for &u in &updates {
            per_update.update(u);
        }
        batched.update_batch(&updates);
        // The batched engine exposed its state exactly once.
        assert_eq!(batched.core().publishes, 1);
        assert!(per_update.core().publishes > 1);
        // Both final estimates are within the ε window of the same truth.
        let truth = updates.len() as f64;
        for engine in [&per_update, &batched] {
            let est = engine.estimate();
            assert!(
                (est - truth).abs() <= 0.2 * truth + 1e-9,
                "estimate {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.2));
        engine.update_batch(&[]);
        assert_eq!(engine.estimate(), 0.0);
        assert_eq!(engine.output_changes(), 0);
        assert_eq!(
            engine.core().publishes,
            0,
            "no copy may be retired on zero data"
        );
    }

    #[test]
    fn raw_mode_skips_rounding_entirely() {
        let core = CountingCore {
            count: 0,
            publishes: 0,
            mode: RoundingMode::Raw,
        };
        let mut engine = Robustify::new(core, plan(0.2));
        for i in 1..=100u64 {
            engine.update(Update::insert(i));
            assert_eq!(engine.estimate(), i as f64, "raw mode must not round");
        }
        assert_eq!(engine.core().publishes, 0);
        assert_eq!(engine.output_changes(), 0);
    }

    #[test]
    fn budget_accounting_flags_overruns() {
        let mut engine = Robustify::new(CountingCore::windowed(), RobustPlan::new(0.2, 3));
        for i in 1..=10_000u64 {
            engine.update(Update::insert(i));
        }
        assert_eq!(engine.flip_budget(), 3);
        assert!(engine.budget_exceeded());
        // The typed surfaces agree: the reading reports BudgetExhausted and
        // the fallible path surfaces the typed error (while still applying
        // the update).
        assert_eq!(
            RobustEstimator::query(&engine).health,
            crate::estimate::Health::BudgetExhausted
        );
        let before = engine.core().count;
        let verdict = engine.try_update(Update::insert(1));
        assert!(matches!(
            verdict,
            Err(ArsError::BudgetExhausted { budget: 3, .. })
        ));
        assert_eq!(engine.core().count, before + 1, "update must still apply");
    }

    #[test]
    fn query_readings_match_the_float_surface() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.2));
        for i in 1..=1_000u64 {
            engine.update(Update::insert(i));
        }
        let reading = RobustEstimator::query(&engine);
        assert_eq!(reading.value, engine.estimate());
        assert_eq!(reading.flips_used, engine.output_changes());
        assert_eq!(
            reading.flip_budget,
            crate::estimate::FlipBudget::Bounded(1_000)
        );
        assert!(!reading.guarantee.additive);
        assert!(
            reading.guarantee.lower <= reading.value && reading.value <= reading.guarantee.upper
        );
        assert!(engine.try_update_batch(&[Update::insert(7)]).is_ok());
    }

    #[test]
    fn additive_plans_answer_in_log_scale() {
        // An additive plan models the entropy reduction: the core tracks
        // the exponential 2^H, the reading answers in bits with a ± ε
        // interval.
        let mut additive_plan = plan(0.3);
        additive_plan.additive = true;
        let mut engine = Robustify::new(CountingCore::windowed(), additive_plan);
        for i in 1..=64u64 {
            engine.update(Update::insert(i));
        }
        let reading = RobustEstimator::query(&engine);
        assert_eq!(engine.estimate(), reading.value, "estimate is the shim");
        assert!(reading.guarantee.additive);
        // The published exponential sits within the rounding window of 64,
        // so the bits reading sits within log2(1.15) of 6.
        assert!(
            (reading.value - 6.0).abs() <= 0.5,
            "bits reading {} far from log2(64)",
            reading.value
        );
        assert!((reading.guarantee.upper - reading.value - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_engine_estimates_zero() {
        let engine = Robustify::new(CountingCore::windowed(), plan(0.1));
        assert_eq!(engine.estimate(), 0.0);
        assert!(engine.space_bytes() > 0);
        assert_eq!(RobustEstimator::epsilon(&engine), 0.1);
    }

    #[test]
    #[should_panic(expected = "rounding epsilon must be in (0,1)")]
    fn invalid_plan_is_rejected() {
        let mut bad = plan(0.5);
        bad.rounding_epsilon = 0.0;
        let _ = Robustify::new(CountingCore::windowed(), bad);
    }

    /// Builds a pool of `copies` independently seeded copies.
    fn pool<F: EstimatorFactory>(factory: &F, copies: u64) -> Vec<F::Output> {
        (0..copies)
            .map(|i| factory.build(derive_seed(7, i)))
            .collect()
    }

    /// Splitting a pool across 1, 2, 3 and more threads than copies leaves
    /// every copy bitwise equal to a copy fed update by update.
    fn assert_split_matches_update_major<F>(factory: &F, copies: u64, updates: &[Update])
    where
        F: EstimatorFactory,
        F::Output: Send + std::fmt::Debug,
    {
        let mut reference = pool(factory, copies);
        for &u in updates {
            for copy in &mut reference {
                copy.update(u);
            }
        }
        let (head, tail) = updates.split_at(updates.len() / 3);
        for threads in [1, 2, 3, copies as usize + 1] {
            let mut split = pool(factory, copies);
            ingest_split(&mut split, head, threads);
            ingest_split(&mut split, tail, threads);
            let mut gated = pool(factory, copies);
            ingest_pool(&mut gated, head);
            ingest_pool(&mut gated, tail);
            for got in [&split, &gated] {
                for (i, (want, got)) in reference.iter().zip(got).enumerate() {
                    assert_eq!(
                        want.estimate().to_bits(),
                        got.estimate().to_bits(),
                        "copy {i}, {threads} threads"
                    );
                    assert_eq!(
                        format!("{want:?}"),
                        format!("{got:?}"),
                        "copy {i}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn split_ingest_is_bitwise_equal_for_pstable_copies() {
        let factory = PStableFactory {
            config: PStableConfig::for_accuracy(1.0, 0.3),
        };
        let mut updates = ZipfGenerator::new(2_000, 1.1, 3).take_updates(600);
        // Turnstile: the p = 1 counters take deletions too.
        updates.extend((0..100u64).map(Update::delete));
        assert_split_matches_update_major(&factory, 7, &updates);
    }

    #[test]
    fn split_ingest_is_bitwise_equal_for_kmv_ensemble_copies() {
        let factory = MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig::for_accuracy(0.2),
            },
            config: MedianTrackingConfig { copies: 3 },
        };
        let updates = UniformGenerator::new(5_000, 4).take_updates(3_000);
        assert_split_matches_update_major(&factory, 5, &updates);
    }

    /// A copy that counts its updates, records the thread that fed it last,
    /// can take a fixed time per update and can panic on its Nth update
    /// when a thread other than `home` feeds it.
    #[derive(Debug, Default)]
    struct Probe {
        seen: u64,
        panic_at: Option<u64>,
        home: Option<thread::ThreadId>,
        work: Duration,
        thread: Option<thread::ThreadId>,
    }

    impl Estimator for Probe {
        fn update(&mut self, _update: Update) {
            self.seen += 1;
            let current = thread::current().id();
            self.thread = Some(current);
            if Some(self.seen) == self.panic_at && Some(current) != self.home {
                panic!("probe copy failed on update {}", self.seen);
            }
            thread::sleep(self.work);
        }

        fn estimate(&self) -> f64 {
            self.seen as f64
        }

        fn space_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        // Every copy panics on its fifth update, but only on a worker. The
        // caller spends 16 ms on each copy it takes, so the worker takes one
        // long before the caller could drain all eight.
        let caller = thread::current().id();
        let mut copies: Vec<Probe> = (0..8)
            .map(|_| Probe {
                panic_at: Some(5),
                home: Some(caller),
                work: Duration::from_millis(2),
                ..Probe::default()
            })
            .collect();
        let updates: Vec<Update> = (0..8u64).map(Update::insert).collect();
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            ingest_split(&mut copies, &updates, 2);
        }))
        .expect_err("the worker's panic must reach the caller");
        let message = caught
            .downcast_ref::<String>()
            .expect("the original String payload, not a scope's own panic");
        assert_eq!(message, "probe copy failed on update 5");
        let (failed, finished): (Vec<&Probe>, Vec<&Probe>) =
            copies.iter().partition(|copy| copy.seen < 8);
        assert_eq!(failed.len(), 1, "the worker stops at its first copy");
        assert_eq!(failed[0].seen, 5);
        assert_ne!(failed[0].thread, Some(caller));
        assert!(
            finished.iter().all(|copy| copy.thread == Some(caller)),
            "the caller drains every other copy"
        );
    }

    #[test]
    fn light_batches_stay_on_the_caller_and_heavy_ones_split_when_cores_allow() {
        let caller = thread::current().id();
        let updates: Vec<Update> = (0..3u64).map(Update::insert).collect();

        // ~0.3 ms on copy 0, so the other seven copies are worth ~2 ms:
        // enough for a worker to take some if the pool split at all.
        let mut light: Vec<Probe> = (0..8)
            .map(|_| Probe {
                work: Duration::from_micros(100),
                ..Probe::default()
            })
            .collect();
        ingest_pool(&mut light, &updates);
        assert!(light
            .iter()
            .all(|copy| copy.seen == 3 && copy.thread == Some(caller)));

        // 9 ms on copy 0, so the other seven copies are worth 63 ms.
        let mut heavy: Vec<Probe> = (0..8)
            .map(|_| Probe {
                work: Duration::from_millis(3),
                ..Probe::default()
            })
            .collect();
        ingest_pool(&mut heavy, &updates);
        assert!(heavy.iter().all(|copy| copy.seen == 3));
        assert_eq!(
            heavy[0].thread,
            Some(caller),
            "copy 0 is timed on the caller"
        );
        let elsewhere = heavy
            .iter()
            .filter(|copy| copy.thread != Some(caller))
            .count();
        if available_threads() > 1 {
            assert!(elsewhere > 0, "a worker takes some of the rest");
        } else {
            assert_eq!(elsewhere, 0, "one core: the pool stays serial");
        }
    }
}
