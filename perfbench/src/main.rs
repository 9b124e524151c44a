//! The repository's benchmark: one command per named workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-fp-pools --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! records spans and prints the per-layer ledger instead. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and a results file recording the
//! host and method is written under `perfbench/results/`. See
//! `perfbench/README.md` for the workloads and what each metric should
//! move.

mod bulk;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use report::{num, Host, Metrics, RunRecord, Tally};
use serve::{Kind, Mix, Step};
use trace::Tracer;

/// Windows the reference step is split into; its latencies are the median
/// of the windows' percentiles.
const WINDOWS: usize = 3;

const WORKLOADS: [&str; 4] = [
    bulk::FP_POOLS.name,
    bulk::F0_FLEET.name,
    serve::F0_MIXED.name,
    serve::READ_HEAVY.name,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let tracer = Tracer::new(args.trace);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let started = Instant::now();
    let detail = if args.trace {
        traced(&args, &tracer, &mut metrics, &mut tally)
    } else if let Some(workload) = closed_loop(&args.workload) {
        bulk_end_to_end(workload, &args, &tracer, &mut metrics, &mut tally)
    } else {
        serve_end_to_end(
            mix_of(&args.workload),
            &args,
            &tracer,
            &mut metrics,
            &mut tally,
        )
    };

    if !args.trace {
        // Every request is one connection, and the server's side of each
        // stays in TIME_WAIT for a minute; tens of thousands of them slow
        // every later connect (the read p50 of `serve-read-heavy` grew 5x
        // over six back-to-back runs). Sitting out the rest of the run
        // keeps one run's connections from slowing the next.
        let rest = Duration::from_secs(args.seconds).saturating_sub(started.elapsed());
        std::thread::sleep(rest);
    }
    let record = RunRecord {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host: &host,
        tally: &tally,
        metrics: &metrics,
        detail,
    };
    match record.write() {
        Ok(path) => eprintln!("perfbench: results in {}", path.display()),
        Err(err) => eprintln!("perfbench: could not write results: {err}"),
    }
    if args.trace {
        let path = std::path::Path::new(report::RESULTS_DIR)
            .join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        if let Err(err) = std::fs::write(&path, tracer.to_json_lines()) {
            eprintln!("perfbench: could not write spans: {err}");
        }
    }
    if !host.comparable() {
        eprintln!(
            "perfbench: {} cores here, {} on the reference host: not comparable",
            host.nproc,
            report::REFERENCE_NPROC
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
}

fn closed_loop(workload: &str) -> Option<&'static bulk::ClosedLoop> {
    [&bulk::FP_POOLS, &bulk::F0_FLEET]
        .into_iter()
        .find(|w| w.name == workload)
}

fn mix_of(workload: &str) -> &'static Mix {
    [&serve::F0_MIXED, &serve::READ_HEAVY]
        .into_iter()
        .find(|mix| mix.name == workload)
        .expect("workload names are checked when parsed")
}

fn p(values: &[f64], q: f64) -> f64 {
    let mut sample = values.to_vec();
    stats::percentile(&mut sample, q).map_or(f64::NAN, |r| r.value)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

fn ok_frac(tally: &Tally) -> f64 {
    1.0 - tally.failed as f64 / tally.attempted.max(1) as f64
}

/// p50 and p99 of a sample, with whether the p99 has ten samples beyond it.
fn latency_json(name: &str, values: &[f64]) -> String {
    let mut sample = values.to_vec();
    let p99 = stats::percentile(&mut sample, 99.0);
    format!(
        "\"{name}\": {{\"samples\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p95_ms\": {}, \
         \"p98_ms\": {}, \"p99_ms\": {}, \"p99_supported\": {}}}",
        values.len(),
        num(p(values, 50.0)),
        num(p(values, 90.0)),
        num(p(values, 95.0)),
        num(p(values, 98.0)),
        num(p99.map_or(f64::NAN, |q| q.value)),
        p99.is_some_and(|q| q.supported)
    )
}

fn serve_end_to_end(
    mix: &Mix,
    args: &Args,
    tracer: &Tracer,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> String {
    let run = serve::run_ladder(mix, args.seed, Duration::from_secs(args.seconds), tracer);
    for step in run.steps() {
        tally.absorb(&step.tally);
    }
    let setups: Vec<f64> = run.steps().map(|s| s.setup_s).collect();
    let sustained = run.sustained_step();
    let reference = &run.reference;
    let writes = reference.latencies_ms(Kind::Write);
    let reads = reference.latencies_ms(Kind::Read);
    let write_windows = reference.windowed_latencies_ms(Kind::Write, WINDOWS);
    let read_windows = reference.windowed_latencies_ms(Kind::Read, WINDOWS);

    metrics.set("setup_s", stats::median(&setups), "s");
    metrics.set(
        "updates_per_s",
        reference.ingested_updates as f64 / reference.elapsed.as_secs_f64(),
        "1/s",
    );
    metrics.set(
        "write_p50_ms",
        stats::windowed_percentile(&write_windows, 50.0),
        "ms",
    );
    metrics.set(
        "write_p95_ms",
        stats::windowed_percentile(&write_windows, stats::TAIL),
        "ms",
    );
    metrics.set(
        "read_p50_ms",
        stats::windowed_percentile(&read_windows, 50.0),
        "ms",
    );
    metrics.set(
        "read_p95_ms",
        stats::windowed_percentile(&read_windows, stats::TAIL),
        "ms",
    );
    metrics.set("sustained_rps", sustained.achieved_rps(), "1/s");
    metrics.set("ok_frac", ok_frac(tally), "ratio");
    metrics.set("peak_rss_mb", run.reference_rss_mb, "MiB");
    metrics.set("sketch_mb", mib(reference.sketch_bytes), "MiB");
    format!(
        "{{\"reference\": {{\"offered_rps\": {}, \"achieved_rps\": {}, {}, {}, \
         \"window_tail_ms\": {{\"write\": [{}], \"read\": [{}]}}}}, \"ladder\": {}, \"setups\": {}}}",
        num(reference.offered_rps),
        num(reference.achieved_rps()),
        latency_json("write", &writes),
        latency_json("read", &reads),
        window_tails(&write_windows),
        window_tails(&read_windows),
        run.detail_json(mix),
        setups.len()
    )
}

fn bulk_end_to_end(
    workload: &bulk::ClosedLoop,
    args: &Args,
    tracer: &Tracer,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> String {
    let run = bulk::run(workload, args.seed, args.seconds as f64, tracer);
    tally.absorb(&run.tally);
    let median = run.median_s();
    metrics.set("setup_s", stats::median(&run.setup_s), "s");
    metrics.set(
        "updates_per_s",
        run.updates_per_repetition as f64 / median,
        "1/s",
    );
    metrics.set("write_p50_ms", p(&run.write_ms, 50.0), "ms");
    metrics.set("write_p95_ms", p(&run.write_ms, stats::TAIL), "ms");
    metrics.set("read_p50_ms", p(&run.read_ms, 50.0), "ms");
    metrics.set("read_p95_ms", p(&run.read_ms, stats::TAIL), "ms");
    // The closed loop's own rate: its batches and reads per second.
    metrics.set(
        "sustained_rps",
        run.calls_per_repetition as f64 / median,
        "1/s",
    );
    metrics.set("ok_frac", ok_frac(tally), "ratio");
    metrics.set("peak_rss_mb", report::peak_rss_mb(), "MiB");
    metrics.set("sketch_mb", mib(run.sketch_bytes), "MiB");
    let repetitions: Vec<String> = run.repetition_s.iter().map(|&r| num(r)).collect();
    format!(
        "{{\"updates_per_repetition\": {}, \"repetition_s\": [{}], \"tally\": {}, {}, {}}}",
        run.updates_per_repetition,
        repetitions.join(", "),
        run.tally.to_json(),
        latency_json("write", &run.write_ms),
        latency_json("read", &run.read_ms)
    )
}

/// Each window's tail percentile, for the results file.
fn window_tails(windows: &[Vec<f64>]) -> String {
    let tails: Vec<String> = windows.iter().map(|w| num(p(w, stats::TAIL))).collect();
    tails.join(", ")
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Mean due-time latency of every request a step sent.
fn mean_latency_ms(step: &Step) -> f64 {
    mean(
        step.records
            .iter()
            .filter(|r| !r.failed)
            .map(|r| r.limited_ms()),
    )
}

/// The traced run: the workload once untraced and once traced (their
/// difference is the tracing overhead), then the layer ledger, the lock
/// replay and the wire figures of a serve reference step.
fn traced(args: &Args, tracer: &Tracer, metrics: &mut Metrics, tally: &mut Tally) -> String {
    let off = Tracer::new(false);
    let (overhead, err_over_eps, http_step) = if let Some(workload) = closed_loop(&args.workload) {
        let half = args.seconds as f64 / 2.0;
        let plain = bulk::run(workload, args.seed, half, &off);
        let traced = bulk::run(workload, args.seed, half, tracer);
        tally.absorb(&plain.tally);
        tally.absorb(&traced.tally);
        (
            traced.median_s() / plain.median_s() - 1.0,
            plain.max_err_over_eps.max(traced.max_err_over_eps),
            None,
        )
    } else {
        let mix = mix_of(&args.workload);
        let reference = |tracer| {
            serve::run_step(
                mix,
                args.seed,
                mix.reference_rps,
                mix.reference_requests,
                false,
                tracer,
            )
        };
        let plain = reference(&off);
        let traced = reference(tracer);
        tally.absorb(&plain.tally);
        let overhead = mean_latency_ms(&traced) / mean_latency_ms(&plain) - 1.0;
        let err = plain.max_err_over_eps.max(traced.max_err_over_eps);
        (overhead, err, Some(traced))
    };
    // The wire figures come from an HTTP reference step: the workload's
    // own, or `serve-f0-mixed`'s for the closed loops, which bypass it.
    let wire_step = http_step.unwrap_or_else(|| {
        let mix = &serve::F0_MIXED;
        serve::run_step(
            mix,
            args.seed,
            mix.reference_rps,
            mix.reference_requests,
            false,
            tracer,
        )
    });
    tally.absorb(&wire_step.tally);
    wire_metrics(&wire_step, metrics);
    metrics.set("quality.err_over_eps", err_over_eps, "ratio");
    metrics.set("trace.overhead_frac", overhead, "ratio");

    let started = Instant::now();
    let checks = layers::ladder(args.seed, tracer, metrics);
    let ladder_s = started.elapsed().as_secs_f64();
    layers::lock_replay(args.seed, metrics, tally);
    format!(
        "{{\"ledger_groups\": {{{}}}, \"copy_checks\": {}, \"ladder_s\": {}, \"spans\": {}}}",
        layers::describe(),
        checks,
        num(ladder_s),
        tracer.len()
    )
}

fn wire_metrics(step: &Step, metrics: &mut Metrics) {
    let client_us = mean(step.records.iter().map(|r| r.service_us()));
    let server_us = step.server_sum_s / step.server_count * 1e6;
    let writes = step.records.iter().filter(|r| r.kind == Kind::Write);
    let (bytes, updates) = writes.fold((0usize, 0usize), |(b, u), r| {
        (b + r.body_bytes, u + r.updates)
    });
    let scheduled: Vec<&serve::Record> = step.records.iter().filter(|r| !r.follow_up).collect();
    let lateness: Vec<f64> = scheduled
        .iter()
        .map(|r| stats::generator_lateness(r.due, r.sender_free, r.started).as_secs_f64() * 1e3)
        .collect();
    let waits: Vec<f64> = scheduled
        .iter()
        .map(|r| stats::queue_wait(r.due, r.sender_free).as_secs_f64() * 1e3)
        .collect();
    metrics.set("wire.client_mean_us", client_us, "us");
    metrics.set("wire.server_mean_us", server_us, "us");
    metrics.set("wire.overhead_mean_us", client_us - server_us, "us");
    metrics.set(
        "wire.bytes_per_update",
        bytes as f64 / updates.max(1) as f64,
        "bytes",
    );
    metrics.set("wire.metrics_p50_us", p(&step.metrics_us, 50.0), "us");
    let errors = step
        .records
        .iter()
        .filter(|r| r.status == 0 || r.status >= 500)
        .count();
    let refused = step.records.iter().filter(|r| r.status == 422).count();
    metrics.set("wire.errors", errors as f64, "count");
    metrics.set("wire.refused", refused as f64, "count");
    metrics.set("loadgen.lateness_p99_ms", p(&lateness, 99.0), "ms");
    metrics.set("loadgen.queue_wait_p99_ms", p(&waits, 99.0), "ms");
}
