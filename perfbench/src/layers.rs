//! The per-layer ledger of a traced run.
//!
//! * The layer ladder drives one seeded stream per group through each
//!   layer in its own pass: one static copy, the copy pool (the whole
//!   stream as one `update_batch`), the `Robustify` engine, the
//!   `StreamSession` and the `SessionManager` (each in the group's batch
//!   size, with a read after every batch). A layer's self time is its pass
//!   minus the pass of the layer it wraps.
//! * The lock replay runs the `serve-f0-mixed` reference schedule
//!   in-process against the benchmark's own `Arc<Mutex<SessionManager>>`
//!   and times each acquisition and hold.

use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ars_core::manager::SessionManager;
use ars_core::spec::{ProblemSpec, ProvisionerSpec};
use ars_core::{DifferenceSchedule, DpAggregationConfig, RobustBuilder, StreamSession};
use ars_sketch::pstable::PStableFactory;
use ars_sketch::{Estimator, EstimatorFactory, PStableConfig};
use ars_stream::generator::WorkloadSpec;
use ars_stream::Update;
use ars_workload::compile_fleet;

use crate::report::{Metrics, Tally};
use crate::serve;
use crate::stats::{self, percentile};
use crate::trace::Tracer;

/// One ladder group: a robust spec, the static copy its pool is made of,
/// the stream length and the batch size its workload uses.
struct Group {
    name: &'static str,
    spec: ProvisionerSpec,
    copy: Box<dyn Fn(u64) -> Box<dyn Estimator>>,
    updates: usize,
    batch: usize,
}

/// Boxes a copy factory's output behind the object-safe estimator trait.
fn copies_of<F>(factory: F) -> Box<dyn Fn(u64) -> Box<dyn Estimator>>
where
    F: EstimatorFactory + 'static,
    F::Output: 'static,
{
    Box::new(move |seed| Box::new(factory.build(seed)) as Box<dyn Estimator>)
}

/// The `p`-stable copy the `Fp` routes build, at per-copy failure `delta`.
fn pstable(p: f64, epsilon: f64, delta: f64) -> Box<dyn Fn(u64) -> Box<dyn Estimator>> {
    copies_of(PStableFactory {
        config: PStableConfig::for_tracking(p, epsilon / 2.0, delta.max(1e-4)),
    })
}

/// The five groups. Each copy recipe restates the builder's: per-copy
/// failure δ split over the pool (λ copies for switching, the DP pool,
/// the difference-estimator chunks). `copy_check` in the ledger confirms
/// that copies × copy bytes matches the pool's space.
fn groups() -> Vec<Group> {
    let f0 = serve::fleet_config(&serve::F0_MIXED, 0).groups[0].spec;
    let f0_builder = RobustBuilder::new(f0.epsilon)
        .delta(f0.delta)
        .stream_length(f0.stream_length)
        .domain(f0.domain);
    let f0_lambda = f0_builder.f0_flip_number();

    let [(_, fp2), (_, fp1), (_, fp2_dp), (_, fp2_de)] = crate::bulk::specs();
    let fp_builder = RobustBuilder::new(fp2.epsilon)
        .delta(fp2.delta)
        .stream_length(fp2.stream_length)
        .domain(fp2.domain)
        .max_frequency(fp2.max_frequency);
    let (eps, delta) = (fp2.epsilon, fp2.delta);
    let lambda2 = fp_builder.fp_flip_number(2.0);
    let lambda1 = fp_builder.fp_flip_number(1.0);
    let dp_copies = DpAggregationConfig::copies_for_flip_budget(lambda2);
    let chunks = DifferenceSchedule::for_flip_budget(lambda2).chunks();

    vec![
        Group {
            name: "f0-ss",
            spec: f0,
            copy: copies_of(
                f0_builder.f0_tracking_factory((f0.delta / f0_lambda as f64).max(1e-6)),
            ),
            updates: 4_096,
            batch: 64,
        },
        Group {
            name: "fp2-ss",
            spec: fp2,
            copy: pstable(2.0, eps, delta / lambda2 as f64),
            updates: 512,
            batch: crate::bulk::BATCH,
        },
        Group {
            name: "fp1-ss",
            spec: fp1,
            copy: pstable(1.0, eps, delta / lambda1 as f64),
            updates: 512,
            batch: crate::bulk::BATCH,
        },
        Group {
            name: "fp2-dp",
            spec: fp2_dp,
            copy: pstable(2.0, eps, delta / dp_copies as f64),
            updates: 512,
            batch: crate::bulk::BATCH,
        },
        Group {
            name: "fp2-de",
            spec: fp2_de,
            copy: pstable(2.0, eps, delta / chunks as f64),
            updates: 512,
            batch: crate::bulk::BATCH,
        },
    ]
}

fn per_update_ns(elapsed: Duration, updates: usize) -> f64 {
    elapsed.as_nanos() as f64 / updates as f64
}

/// Times one pass: `f` ingests the whole stream into a fresh instance.
fn pass(tracer: &Tracer, name: &'static str, updates: usize, f: impl FnOnce()) -> f64 {
    let span = tracer.open(name);
    let started = Instant::now();
    f();
    let ns = per_update_ns(started.elapsed(), updates);
    tracer.close(span);
    ns
}

/// Runs the layer ladder and records its metrics. Returns whether every
/// group's copy recipe matched its pool's space.
pub fn ladder(seed: u64, tracer: &Tracer, metrics: &mut Metrics) -> String {
    let mut checks = Vec::new();
    for group in groups() {
        let spec = group.spec.seed(seed);
        let mut generator = WorkloadSpec::Zipf {
            domain: 1 << 16,
            exponent: 1.1,
        }
        .build(seed ^ 0x5eed);
        let stream: Vec<Update> = (0..group.updates)
            .map(|_| generator.next_update())
            .collect();
        let n = stream.len();
        let g = group.name;

        let mut copy = (group.copy)(seed);
        let copy_ns = pass(tracer, "layer.copy", n, || {
            for &u in &stream {
                copy.update(u);
            }
        });
        let copy_bytes = copy.space_bytes();

        let mut pool = spec.build(None).expect("group spec builds");
        let pool_ns = pass(tracer, "layer.pool", n, || pool.update_batch(&stream));
        let copies = pool.copies();

        let mut engine = spec.build(None).expect("group spec builds");
        let engine_ns = pass(tracer, "layer.engine", n, || {
            for chunk in stream.chunks(group.batch) {
                engine.update_batch(chunk);
                std::hint::black_box(engine.query());
            }
        });

        let mut session =
            StreamSession::new(spec.model(), spec.build(None).expect("group spec builds"))
                .with_exact_state();
        let session_ns = pass(tracer, "layer.session", n, || {
            for chunk in stream.chunks(group.batch) {
                session
                    .update_batch(chunk)
                    .expect("the Zipf stream is in-model");
                std::hint::black_box(session.query());
            }
        });

        let mut manager = SessionManager::new();
        manager.register_spec(g, spec).expect("group spec builds");
        let manager_ns = pass(tracer, "layer.manager", n, || {
            for chunk in stream.chunks(group.batch) {
                manager
                    .update_batch(g, chunk)
                    .expect("the Zipf stream is in-model");
                std::hint::black_box(manager.query(g).expect("registered"));
            }
        });

        metrics.set(format!("copy.ns_per_update.{g}"), copy_ns, "ns");
        metrics.set(format!("copy.bytes.{g}"), copy_bytes as f64, "bytes");
        metrics.set(format!("pool.copies.{g}"), copies as f64, "count");
        metrics.set(format!("pool.ns_per_update.{g}"), pool_ns, "ns");
        metrics.set(
            format!("pool.overhead_ratio.{g}"),
            stats::overhead_ratio(pool_ns, copies, copy_ns),
            "ratio",
        );
        metrics.set(
            format!("engine.self_ns_per_update.{g}"),
            stats::self_time(engine_ns, pool_ns),
            "ns",
        );
        metrics.set(
            format!("engine.flips_per_1k.{g}"),
            engine.output_changes() as f64 * 1e3 / n as f64,
            "count",
        );
        metrics.set(
            format!("session.self_ns_per_update.{g}"),
            stats::self_time(session_ns, engine_ns),
            "ns",
        );
        metrics.set(
            format!("manager.self_ns_per_update.{g}"),
            stats::self_time(manager_ns, session_ns),
            "ns",
        );
        let pool_bytes = pool.space_bytes() as f64;
        checks.push(format!(
            "{{\"group\": \"{g}\", \"updates\": {n}, \"copy_bytes_x_copies\": {}, \"pool_bytes\": {}}}",
            copy_bytes * copies,
            pool_bytes
        ));
    }
    format!("[{}]", checks.join(", "))
}

/// Replays the `serve-f0-mixed` reference schedule in-process, each
/// request taking the benchmark's own manager lock, and records lock wait
/// and hold times and re-provisions.
pub fn lock_replay(seed: u64, metrics: &mut Metrics, tally: &mut Tally) {
    let mix = serve::F0_MIXED;
    let config = serve::fleet_config(&mix, seed);
    let fleet = compile_fleet(&config);
    let mut manager = SessionManager::new();
    for tenant in &fleet {
        manager
            .register_spec(tenant.name(), tenant.spec())
            .expect("fleet spec builds");
    }
    let manager = Arc::new(Mutex::new(manager));
    let senders = crate::report::nproc();
    let interval = Duration::from_secs_f64(1.0 / mix.reference_rps);
    let tenants = fleet.len();
    let barrier = Barrier::new(senders);
    let start = OnceLock::new();

    let lanes: Vec<(Vec<f64>, Vec<f64>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|lane| {
                let manager = Arc::clone(&manager);
                let (config, barrier, start) = (&config, &barrier, &start);
                scope.spawn(move || {
                    // Runtimes stay on their thread; each lane uses its own.
                    let mut fleet = compile_fleet(config);
                    barrier.wait();
                    let start = *start.get_or_init(Instant::now);
                    let mut waits = Vec::new();
                    let mut holds = Vec::new();
                    let mut tally = Tally::default();
                    for index in
                        (0..mix.reference_requests).filter(|i| (i % tenants) % senders == lane)
                    {
                        let due = interval * index as u32;
                        let now = start.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let tenant = &mut fleet[index % tenants];
                        let batch = tenant.next_batch();
                        let refusal_expected = batch.iter().any(|u| u.delta < 0);
                        let asked = Instant::now();
                        let mut guard = manager.lock().expect("manager lock");
                        let acquired = Instant::now();
                        let ingested = guard.update_batch(tenant.name(), &batch);
                        let reading = guard.query(tenant.name());
                        drop(guard);
                        let released = Instant::now();
                        waits.push((acquired - asked).as_secs_f64() * 1e6);
                        holds.push((released - acquired).as_secs_f64() * 1e6);
                        tally.attempted += 2;
                        if ingested.is_err() != refusal_expected {
                            tally.refusal_mismatches += 1;
                        }
                        if let Ok(reading) = reading {
                            tenant.observe(reading.value);
                            if let Some(truth) = tenant.truth() {
                                if reading.health.is_trustworthy()
                                    && !reading.guarantee.contains(truth)
                                {
                                    tally.violations += 1;
                                    tally.failed += 1;
                                }
                            }
                        } else {
                            tally.failed += 1;
                        }
                    }
                    (waits, holds, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane panicked"))
            .collect()
    });

    let mut waits = Vec::new();
    let mut holds = Vec::new();
    for (w, h, t) in lanes {
        waits.extend(w);
        holds.extend(h);
        tally.absorb(&t);
    }
    let value = |sample: &mut Vec<f64>, p: f64| percentile(sample, p).map_or(f64::NAN, |q| q.value);
    metrics.set("manager.lock_wait_p50_us", value(&mut waits, 50.0), "us");
    metrics.set("manager.lock_wait_p99_us", value(&mut waits, 99.0), "us");
    metrics.set("manager.hold_p50_us", value(&mut holds, 50.0), "us");
    let reprovisions: usize = manager
        .lock()
        .expect("manager lock")
        .health_report()
        .iter()
        .map(|row| row.reprovisions)
        .sum();
    metrics.set("manager.reprovisions", reprovisions as f64, "count");
}

/// Problems the ledger exercises, for the results file.
pub fn describe() -> String {
    groups()
        .iter()
        .map(|g| format!("\"{}\": \"{}\"", g.name, describe_spec(&g.spec)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn describe_spec(spec: &ProvisionerSpec) -> String {
    let problem = match spec.problem {
        ProblemSpec::F0 => "f0".to_string(),
        ProblemSpec::Fp { p } => format!("fp p={p}"),
        other => other.name().to_string(),
    };
    format!(
        "{problem} eps={} strategy={:?}",
        spec.epsilon, spec.strategy
    )
}
