//! The closed-loop in-process workloads: one caller feeds a fleet through
//! `SessionManager::update_batch`, reading each tenant after every batch.
//! Nothing crosses a socket or contends for a lock, so the time is the
//! pools' kernels, the validators and the manager.
//!
//! A run is a series of repetitions, each on a freshly registered fleet
//! with the same seeded streams and a fixed number of rounds (one batch
//! and one read per tenant), until `--seconds` have passed. Rates come
//! from the median repetition: every repetition does the same work at the
//! same stream positions, and the median shrugs off the ones a stall of
//! the host slowed down.

use std::time::{Duration, Instant};

use ars_core::manager::SessionManager;
use ars_core::spec::{ProblemSpec, ProvisionerSpec};
use ars_core::{ArsError, Strategy};
use ars_stream::generator::WorkloadSpec;
use ars_workload::{compile_fleet, FleetConfig, TenantBehavior, TenantGroup, TenantRuntime};

use crate::report::Tally;
use crate::trace::Tracer;

/// A closed-loop workload: its name, fleet and repetition length.
pub struct ClosedLoop {
    pub name: &'static str,
    fleet: fn(u64) -> FleetConfig,
    rounds: usize,
}

/// Four Fp tenants with large pools, in batches of 256.
pub const FP_POOLS: ClosedLoop = ClosedLoop {
    name: "bulk-fp-pools",
    fleet: fp_pools,
    rounds: 2,
};

/// The committed 11-tenant F0 fleet (`serve-f0-mixed`'s), in its batches
/// of 64, without the wire or a second caller.
pub const F0_FLEET: ClosedLoop = ClosedLoop {
    name: "bulk-f0-fleet",
    fleet: f0_fleet,
    rounds: 60,
};

pub const BATCH: usize = 256;

/// The four pool tenants at ε = 0.25 (71, 30, 64 and 13 copies).
pub fn specs() -> [(&'static str, ProvisionerSpec); 4] {
    let fp = |p: f64| ProvisionerSpec::new(ProblemSpec::Fp { p }, 0.25);
    [
        ("fp2-ss", fp(2.0)),
        ("fp1-ss", fp(1.0)),
        ("fp2-dp", fp(2.0).strategy(Strategy::DpAggregation)),
        ("fp2-de", fp(2.0).strategy(Strategy::DifferenceEstimators)),
    ]
}

fn fp_pools(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        ramp: Default::default(),
        knee: Default::default(),
        groups: specs()
            .into_iter()
            .map(|(name, spec)| TenantGroup {
                name: name.to_string(),
                count: 1,
                behavior: TenantBehavior::Honest,
                batch: BATCH,
                spec,
                workload: WorkloadSpec::Zipf {
                    domain: 1 << 16,
                    exponent: 1.1,
                },
            })
            .collect(),
    }
}

fn f0_fleet(seed: u64) -> FleetConfig {
    crate::serve::fleet_config(&crate::serve::F0_MIXED, seed)
}

fn set_up(config: &FleetConfig) -> (SessionManager, Vec<TenantRuntime>) {
    let fleet = compile_fleet(config);
    let mut manager = SessionManager::new();
    for tenant in &fleet {
        manager
            .register_spec(tenant.name(), tenant.spec())
            .expect("the fleet's specs build");
    }
    (manager, fleet)
}

pub struct BulkRun {
    pub setup_s: Vec<f64>,
    /// Time each repetition spent in the manager's calls, excluding the
    /// stream generation and truth checks.
    pub repetition_s: Vec<f64>,
    /// Updates one repetition offers.
    pub updates_per_repetition: u64,
    /// Batches and reads one repetition makes.
    pub calls_per_repetition: u64,
    pub write_ms: Vec<f64>,
    /// Read-your-write latency: from submitting a batch to holding the
    /// reading that reflects it. An in-process `query` alone takes tens of
    /// nanoseconds, about what reading the clock costs.
    pub read_ms: Vec<f64>,
    pub tally: Tally,
    pub sketch_bytes: usize,
    pub max_err_over_eps: f64,
}

impl BulkRun {
    /// The median repetition's time.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.repetition_s)
    }
}

/// Runs repetitions until `seconds` have passed (at least one).
pub fn run(workload: &ClosedLoop, seed: u64, seconds: f64, tracer: &Tracer) -> BulkRun {
    let config = (workload.fleet)(seed);
    let mut run = BulkRun {
        setup_s: Vec::new(),
        repetition_s: Vec::new(),
        updates_per_repetition: 0,
        calls_per_repetition: 0,
        write_ms: Vec::new(),
        read_ms: Vec::new(),
        tally: Tally::default(),
        sketch_bytes: 0,
        max_err_over_eps: 0.0,
    };
    let started = Instant::now();
    while run.repetition_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (mut manager, mut fleet) = set_up(&config);
        run.setup_s.push(t.elapsed().as_secs_f64());
        let mut busy = Duration::ZERO;
        let mut updates = 0u64;
        for _ in 0..workload.rounds {
            for tenant in &mut fleet {
                busy += step(&mut manager, tenant, &mut run, tracer);
                updates += tenant.batch_size() as u64;
            }
        }
        run.repetition_s.push(busy.as_secs_f64());
        run.updates_per_repetition = updates;
        run.calls_per_repetition = 2 * (workload.rounds * fleet.len()) as u64;
        run.sketch_bytes = manager
            .health_report()
            .iter()
            .map(|row| row.space_bytes)
            .sum();
    }
    run
}

/// One batch and the read after it; returns the time spent in the
/// manager's two calls.
fn step(
    manager: &mut SessionManager,
    tenant: &mut TenantRuntime,
    run: &mut BulkRun,
    tracer: &Tracer,
) -> Duration {
    let batch = tenant.next_batch();
    let refusal_expected = batch.iter().any(|u| u.delta < 0);
    let span = tracer.open("manager.update_batch");
    let t = Instant::now();
    let ingested = manager.update_batch(tenant.name(), &batch);
    let wrote = t.elapsed();
    tracer.close(span);
    run.write_ms.push(wrote.as_secs_f64() * 1e3);
    let tally = &mut run.tally;
    tally.attempted += 1;
    tally.expected_refusals += u64::from(refusal_expected);
    let violating = tenant.behavior() == TenantBehavior::ModelViolating;
    match ingested {
        Ok(_) if refusal_expected => tally.refusal_mismatches += 1,
        Ok(_) => {}
        Err(ArsError::Stream(_)) if violating && refusal_expected => tally.refusals += 1,
        Err(ArsError::Stream(_)) => {
            // A refused honest batch.
            tally.failed += 1;
            tally.refusals += 1;
            tally.refusal_mismatches += 1;
        }
        Err(_) => tally.failed += 1,
    }

    let span = tracer.open("manager.query");
    let t = Instant::now();
    let reading = manager.query(tenant.name());
    let read = t.elapsed();
    tracer.close(span);
    run.read_ms.push((wrote + read).as_secs_f64() * 1e3);
    tally.attempted += 1;
    let Ok(reading) = reading else {
        tally.failed += 1;
        return wrote + read;
    };
    tenant.observe(reading.value);
    if let Some(truth) = tenant.truth() {
        if reading.health.is_trustworthy() {
            tally.scored += 1;
            if !reading.guarantee.contains(truth) {
                tally.violations += 1;
                tally.failed += 1;
            }
            if truth > 0.0 {
                let err = (reading.value - truth).abs() / (truth * reading.epsilon);
                run.max_err_over_eps = run.max_err_over_eps.max(err);
            }
        }
    }
    wrote + read
}
