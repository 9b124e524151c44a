//! The HTTP workloads: an open-loop driver over the `ars-serve` wire, one
//! freshly registered fleet per step, and the rate ladder.
//!
//! The schedule is fixed before a step starts: request `k` is due at
//! `k / rate` and its tenant and kind come from the seed alone, so every
//! step serves the identical sequence and steps differ only in rate.
//! Each tenant is pinned to one sending thread, which keeps its requests
//! in order: a dip-hunter's next batch needs the reading of the previous
//! one, so when it falls due before that reading is back it waits, and the
//! wait is part of its latency. Latency always runs from the due time.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use ars_core::estimate::Estimate;
use ars_core::manager::SessionManager;
use ars_core::spec::{ProblemSpec, ProvisionerSpec};
use ars_core::Strategy;
use ars_serve::{client, FleetServer, ServerConfig, ServerHandle};
use ars_stream::generator::WorkloadSpec;
use ars_stream::Update;
use ars_workload::{compile_fleet, FleetConfig, TenantBehavior, TenantGroup, TenantRuntime};

use crate::report::{num, Tally};
use crate::stats::{self, Ladder, StepOutcome, Verdict};
use crate::trace::Tracer;

/// The committed 11-tenant F0 fleet.
const FLEET_JSON: &str = include_str!("../../examples/fleet.json");

/// Ratio between neighbouring ladder rungs.
pub const RUNG_GROWTH: f64 = 1.05;
/// Rungs the ladder climbs at a time before it has bracketed the knee.
pub const RUNG_STRIDE: u32 = 4;
/// Sequential `GET /metrics` a traced step times after its schedule.
const METRICS_PROBES: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Read,
    Metrics,
}

/// A fleet workload: its fleet, transport, rates and latency limit.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub name: &'static str,
    /// The committed F0 fleet (else the 32-tenant read-heavy fleet).
    f0_fleet: bool,
    pub reference_rps: f64,
    pub limited: Kind,
    pub limit_ms: f64,
    /// Requests per ladder rung: enough that the limited kind supports the
    /// tail percentile.
    pub rung_requests: usize,
    /// Requests in the reference step, which reports both kinds' tails.
    pub reference_requests: usize,
    /// Whether each write is followed by a read of the same tenant.
    read_after_write: bool,
}

pub const F0_MIXED: Mix = Mix {
    name: "serve-f0-mixed",
    f0_fleet: true,
    reference_rps: 150.0,
    limited: Kind::Write,
    limit_ms: 25.0,
    rung_requests: 400,
    reference_requests: 1_650,
    read_after_write: true,
};

pub const READ_HEAVY: Mix = Mix {
    name: "serve-read-heavy",
    f0_fleet: false,
    reference_rps: 2_000.0,
    limited: Kind::Read,
    limit_ms: 5.0,
    rung_requests: 300,
    reference_requests: 7_500,
    read_after_write: false,
};

/// The fleet a workload registers, with every stream seed derived from the
/// benchmark seed.
pub fn fleet_config(mix: &Mix, seed: u64) -> FleetConfig {
    if mix.f0_fleet {
        let mut config =
            FleetConfig::try_from_json(FLEET_JSON).expect("the committed fleet parses");
        config.seed = seed;
        return config;
    }
    let group = |name: &str, problem: ProblemSpec, strategy: Option<Strategy>| {
        let mut spec = ProvisionerSpec::new(problem, 0.25)
            .domain(1 << 16)
            .stream_length(1 << 16);
        spec.strategy = strategy;
        TenantGroup {
            name: name.to_string(),
            count: 8,
            behavior: TenantBehavior::Honest,
            batch: 16,
            spec,
            workload: WorkloadSpec::Zipf {
                domain: 1 << 16,
                exponent: 1.1,
            },
        }
    };
    FleetConfig {
        seed,
        ramp: Default::default(),
        knee: Default::default(),
        groups: vec![
            group("paths", ProblemSpec::F0, Some(Strategy::ComputationPaths)),
            group("crypto", ProblemSpec::CryptoF0, None),
            group("fp3", ProblemSpec::FpLarge { p: 3.0 }, None),
            group(
                "diff",
                ProblemSpec::F0,
                Some(Strategy::DifferenceEstimators),
            ),
        ],
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Job {
    index: usize,
    due: Duration,
    kind: Kind,
    /// `usize::MAX` for `/metrics`, which belongs to no tenant.
    tenant: usize,
}

/// splitmix64: the schedule's own seeded stream.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The first `requests` jobs of the workload's schedule at `rate`.
fn schedule(mix: &Mix, tenants: usize, seed: u64, requests: usize, rate: f64) -> Vec<Job> {
    (0..requests)
        .map(|index| {
            let due = Duration::from_secs_f64(index as f64 / rate);
            if mix.read_after_write {
                // Round robin over the fleet, one batch per request.
                return Job {
                    index,
                    due,
                    kind: Kind::Write,
                    tenant: index % tenants,
                };
            }
            let draw = mix64(seed ^ mix64(index as u64));
            let (kind, tenant) = match draw % 100 {
                0..=1 => (Kind::Metrics, usize::MAX),
                2..=9 => (Kind::Write, (draw >> 32) as usize % tenants),
                _ => (Kind::Read, (draw >> 32) as usize % tenants),
            };
            Job {
                index,
                due,
                kind,
                tenant,
            }
        })
        .collect()
}

/// What one request did.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub kind: Kind,
    pub due: Duration,
    pub sender_free: Duration,
    pub started: Duration,
    pub done: Duration,
    /// HTTP status, or 0 for a transport error.
    pub status: u16,
    pub failed: bool,
    pub body_bytes: usize,
    pub updates: usize,
    /// A read issued the moment its write returned, not a scheduled job.
    pub follow_up: bool,
    /// The request's span in a traced run, else 0.
    pub span: u64,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        stats::due_latency(self.due, self.done).as_secs_f64() * 1e3
    }

    /// The latency the limit sees: failures miss any limit.
    pub fn limited_ms(&self) -> f64 {
        if self.failed {
            f64::INFINITY
        } else {
            self.latency_ms()
        }
    }

    pub fn service_us(&self) -> f64 {
        self.done.saturating_sub(self.started).as_secs_f64() * 1e6
    }
}

/// Everything one step measured.
pub struct Step {
    pub offered_rps: f64,
    pub setup_s: f64,
    pub records: Vec<Record>,
    pub unsent: usize,
    pub elapsed: Duration,
    pub tally: Tally,
    pub sketch_bytes: usize,
    pub ingested_updates: u64,
    /// `/metrics` request-duration sum (s) and count after the step.
    pub server_sum_s: f64,
    pub server_count: f64,
    /// Largest `|reading − truth| / (truth · ε)` over scored readings.
    pub max_err_over_eps: f64,
    /// Service times (µs) of `GET /metrics`: the mix's own, plus a probe
    /// of sequential ones after the schedule in a traced run.
    pub metrics_us: Vec<f64>,
}

impl Step {
    pub fn outcome(&self, mix: &Mix) -> StepOutcome {
        let mut limited: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| r.kind == mix.limited)
            .collect();
        limited.sort_by_key(|r| r.due);
        StepOutcome {
            offered_rps: self.offered_rps,
            achieved_rps: self.achieved_rps(),
            limited_ms: limited.iter().map(|r| r.limited_ms()).collect(),
            unsent: self.unsent,
        }
    }

    /// Requests completed over the span from the step's start to its last
    /// completion (the schedule plus whatever backlog it left).
    pub fn achieved_rps(&self) -> f64 {
        let jobs = self.records.iter().filter(|r| !r.follow_up).count();
        jobs as f64 / self.elapsed.as_secs_f64()
    }

    pub fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(Record::limited_ms)
            .collect()
    }

    /// Latencies of one kind split by due time into `windows` spans of
    /// equal length.
    pub fn windowed_latencies_ms(&self, kind: Kind, windows: usize) -> Vec<Vec<f64>> {
        let span = self
            .records
            .iter()
            .map(|r| r.due.as_secs_f64())
            .fold(0.0, f64::max);
        let mut out = vec![Vec::new(); windows];
        for r in self.records.iter().filter(|r| r.kind == kind) {
            let window =
                (r.due.as_secs_f64() / span.max(f64::MIN_POSITIVE) * windows as f64) as usize;
            out[window.min(windows - 1)].push(r.limited_ms());
        }
        out
    }
}

/// A running step's shared state: the early-stop rule and the tracer.
struct Shared<'a> {
    mix: &'a Mix,
    addr: SocketAddr,
    /// Set by the first sender past the start barrier.
    start: OnceLock<Instant>,
    config: FleetConfig,
    barrier: Barrier,
    misses: AtomicUsize,
    miss_budget: usize,
    stop: AtomicBool,
    tracer: &'a Tracer,
}

impl Shared<'_> {
    fn elapsed(&self) -> Duration {
        self.start.get().map_or(Duration::ZERO, Instant::elapsed)
    }
}

/// Registers the fleet on a fresh server: the set-up a step pays.
fn set_up(config: &FleetConfig, workers: usize) -> (ServerHandle, usize) {
    let fleet = compile_fleet(config);
    let server = FleetServer::with_config(
        SessionManager::new(),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .spawn()
    .expect("the server binds a loopback port");
    for tenant in &fleet {
        let path = format!("/tenants/{}", client::encode_segment(tenant.name()));
        let (status, body) =
            client::request(server.addr(), "POST", &path, &tenant.spec().to_json())
                .expect("registration reaches the server");
        assert_eq!(status, 201, "registering {}: {body}", tenant.name());
    }
    (server, fleet.len())
}

/// Runs `requests` scheduled requests at `rate` against a freshly
/// registered fleet. With `stop_early`, the step ends once its limited
/// requests have missed the limit often enough that their tail must
/// exceed it.
pub fn run_step(
    mix: &Mix,
    seed: u64,
    rate: f64,
    requests: usize,
    stop_early: bool,
    tracer: &Tracer,
) -> Step {
    let config = fleet_config(mix, seed);
    let senders = crate::report::nproc();
    let setup_started = Instant::now();
    let (server, tenants) = set_up(&config, senders);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let (sum_before, count_before) = server_histogram(server.addr());

    let jobs = schedule(mix, tenants, seed, requests, rate);
    let limited_jobs = jobs.iter().filter(|j| j.kind == mix.limited).count();
    let shared = Shared {
        mix,
        addr: server.addr(),
        start: OnceLock::new(),
        config,
        barrier: Barrier::new(senders),
        misses: AtomicUsize::new(0),
        miss_budget: if stop_early {
            stats::miss_budget(limited_jobs)
        } else {
            usize::MAX
        },
        stop: AtomicBool::new(false),
        tracer,
    };
    let lanes: Vec<Vec<Job>> = (0..senders)
        .map(|lane| {
            jobs.iter()
                .filter(|j| {
                    let owner = if j.tenant == usize::MAX {
                        j.index
                    } else {
                        j.tenant
                    };
                    owner % senders == lane
                })
                .copied()
                .collect()
        })
        .collect();

    let results: Vec<(Vec<Record>, Tally, usize, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| scope.spawn(|| drive_lane(&shared, lane)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sending thread panicked"))
            .collect()
    });
    let mut records = Vec::with_capacity(requests * 2);
    let mut tally = Tally::default();
    let mut unsent = 0;
    let mut max_err = 0.0f64;
    for (lane_records, lane_tally, lane_unsent, lane_err) in results {
        records.extend(lane_records);
        tally.absorb(&lane_tally);
        unsent += lane_unsent;
        max_err = max_err.max(lane_err);
    }
    let elapsed = records
        .iter()
        .map(|r| r.done)
        .max()
        .unwrap_or_else(|| shared.elapsed());

    let (sketch_bytes, ingested_updates) = {
        let manager = server.manager();
        let guard = manager.lock().expect("manager lock");
        let report = guard.health_report();
        (
            report.iter().map(|row| row.space_bytes).sum(),
            report.iter().map(|row| row.accepted).sum(),
        )
    };
    let mut metrics_us: Vec<f64> = records
        .iter()
        .filter(|r| r.kind == Kind::Metrics)
        .map(Record::service_us)
        .collect();
    let (sum_after, count_after) = server_histogram(server.addr());
    if tracer.enabled() {
        for _ in 0..METRICS_PROBES {
            let started = Instant::now();
            let answered = client::request(server.addr(), "GET", "/metrics", "");
            if matches!(answered, Ok((200, _))) {
                metrics_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    server.shutdown();

    Step {
        offered_rps: rate,
        setup_s,
        records,
        unsent,
        elapsed,
        tally,
        sketch_bytes,
        ingested_updates,
        server_sum_s: sum_after - sum_before,
        server_count: count_after - count_before,
        max_err_over_eps: max_err,
        metrics_us,
    }
}

/// Reads the server's request-duration histogram sum and count.
fn server_histogram(addr: SocketAddr) -> (f64, f64) {
    let Ok((200, text)) = client::request(addr, "GET", "/metrics", "") else {
        return (f64::NAN, f64::NAN);
    };
    let sample = |name: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.trim().parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (
        sample("ars_http_request_duration_seconds_sum "),
        sample("ars_http_request_duration_seconds_count "),
    )
}

fn update_body(updates: &[Update]) -> String {
    let mut body = String::with_capacity(16 + 12 * updates.len());
    body.push_str("{\"updates\":[");
    for (i, u) in updates.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("[{},{}]", u.item, u.delta));
    }
    body.push_str("]}");
    body
}

/// One sending thread: sleeps until each job is due, sends it, and checks
/// the answer.
fn drive_lane(shared: &Shared<'_>, lane: &[Job]) -> (Vec<Record>, Tally, usize, f64) {
    // Tenant runtimes stay on the thread that drives them: every lane
    // compiles the same deterministic fleet and uses only its own tenants.
    let mut fleet = compile_fleet(&shared.config);
    shared.barrier.wait();
    shared.start.get_or_init(Instant::now);
    let mut records = Vec::with_capacity(lane.len() * 2);
    let mut tally = Tally::default();
    let mut max_err = 0.0f64;
    let mut sender_free = Duration::ZERO;
    for (position, job) in lane.iter().enumerate() {
        if shared.stop.load(Ordering::Relaxed) {
            return (records, tally, lane.len() - position, max_err);
        }
        let now = shared.elapsed();
        if now < job.due {
            std::thread::sleep(job.due - now);
        }
        let at = Timing {
            due: job.due,
            sender_free,
            parent: 0,
        };
        let record = match job.kind {
            Kind::Metrics => exchange(shared, at, Op::Metrics).0,
            Kind::Read => read(shared, at, &mut fleet[job.tenant], &mut tally, &mut max_err),
            Kind::Write => {
                let tenant = &mut fleet[job.tenant];
                let updates = tenant.next_batch();
                let refusal_expected = updates.iter().any(|u| u.delta < 0);
                let (mut record, _) = exchange(shared, at, Op::Write(tenant.name(), &updates));
                let violating = tenant.behavior() == TenantBehavior::ModelViolating;
                match record.status {
                    200 if refusal_expected => tally.refusal_mismatches += 1,
                    422 if violating && refusal_expected => {
                        tally.refusals += 1;
                        record.failed = false;
                    }
                    422 => {
                        // A refused honest batch.
                        tally.refusals += 1;
                        tally.refusal_mismatches += 1;
                    }
                    _ => {}
                }
                if refusal_expected {
                    tally.expected_refusals += 1;
                }
                record
            }
        };
        sender_free = record.done;
        tally.attempted += 1;
        tally.failed += u64::from(record.failed);
        if record.status != 0 && (400..500).contains(&record.status) && record.status != 422 {
            tally.unexpected += 1;
        }
        count_miss(shared, &record);
        let write_ok = record.kind == Kind::Write && record.status != 0;
        records.push(record);

        if write_ok && shared.mix.read_after_write {
            // The follow-up read is due the moment its write returns, and
            // its span names the write as its cause.
            let at = Timing {
                due: record.done,
                sender_free: record.done,
                parent: record.span,
            };
            let mut follow = read(shared, at, &mut fleet[job.tenant], &mut tally, &mut max_err);
            follow.follow_up = true;
            sender_free = follow.done;
            tally.attempted += 1;
            tally.failed += u64::from(follow.failed);
            count_miss(shared, &follow);
            records.push(follow);
        }
    }
    (records, tally, 0, max_err)
}

fn count_miss(shared: &Shared<'_>, record: &Record) {
    if record.kind == shared.mix.limited && record.limited_ms() > shared.mix.limit_ms {
        let misses = shared.misses.fetch_add(1, Ordering::Relaxed) + 1;
        if misses > shared.miss_budget {
            shared.stop.store(true, Ordering::Relaxed);
        }
    }
}

/// Queries one tenant, scores the reading against the exact truth of
/// everything it has ingested, and feeds it to an adaptive tenant.
fn read(
    shared: &Shared<'_>,
    at: Timing,
    tenant: &mut TenantRuntime,
    tally: &mut Tally,
    max_err: &mut f64,
) -> Record {
    let (mut record, reading) = exchange(shared, at, Op::Read(tenant.name()));
    if record.status != 200 {
        return record;
    }
    let Some(reading) = reading else {
        record.failed = true;
        return record;
    };
    tenant.observe(reading.value);
    if let Some(truth) = tenant.truth() {
        if reading.health.is_trustworthy() {
            tally.scored += 1;
            if !reading.guarantee.contains(truth) {
                tally.violations += 1;
                record.failed = true;
            }
            if truth > 0.0 {
                *max_err = max_err.max((reading.value - truth).abs() / (truth * reading.epsilon));
            }
        }
    }
    record
}

/// When a request was due, when its sender came free, and the span that
/// caused it (0 for none).
#[derive(Debug, Clone, Copy)]
struct Timing {
    due: Duration,
    sender_free: Duration,
    parent: u64,
}

/// One operation on a tenant (or the fleet's metrics).
#[derive(Clone, Copy)]
enum Op<'a> {
    Write(&'a str, &'a [Update]),
    Read(&'a str),
    Metrics,
}

/// Sends one operation and times it. Returns the record and, for a
/// successful read, the reading. Anything but a 200 is marked failed; the
/// caller clears that for an expected refusal.
fn exchange(shared: &Shared<'_>, at: Timing, op: Op<'_>) -> (Record, Option<Estimate>) {
    let kind = match op {
        Op::Write(..) => Kind::Write,
        Op::Read(_) => Kind::Read,
        Op::Metrics => Kind::Metrics,
    };
    let (method, path, body, updates) = match op {
        Op::Write(name, updates) => (
            "POST",
            format!("/tenants/{}/update", client::encode_segment(name)),
            update_body(updates),
            updates.len(),
        ),
        Op::Read(name) => (
            "GET",
            format!("/tenants/{}/query", client::encode_segment(name)),
            String::new(),
            0,
        ),
        Op::Metrics => ("GET", "/metrics".to_string(), String::new(), 0),
    };
    let started = shared.elapsed();
    let span = shared.tracer.open_child("wire.request", at.parent);
    let result = client::request(shared.addr, method, &path, &body);
    let done = shared.elapsed();
    let span_id = span.map_or(0, |s| s.id());
    shared.tracer.close(span);
    let (status, text) = result.unwrap_or((0, String::new()));
    let reading = (kind == Kind::Read && status == 200)
        .then(|| Estimate::try_from_json(&text).ok())
        .flatten();
    let record = Record {
        kind,
        due: at.due,
        sender_free: at.sender_free,
        started,
        done,
        status,
        failed: status != 200,
        body_bytes: body.len(),
        updates,
        follow_up: false,
        span: span_id,
    };
    (record, reading)
}

/// One ladder rung as run.
pub struct Rung {
    pub rung: u32,
    pub outcome: StepOutcome,
    pub verdict: Verdict,
    pub setup_s: f64,
    /// `None` for rung 0, which is the reference step.
    pub step: Option<Step>,
}

/// The whole workload: the reference step, then the ladder.
pub struct LadderRun {
    pub reference: Step,
    pub rungs: Vec<Rung>,
    pub highest: Option<u32>,
    pub complete: bool,
    /// Peak resident memory when the reference step ended, before the
    /// ladder's extra fleets.
    pub reference_rss_mb: f64,
}

/// Runs the reference step and then the ladder, starting no new rung once
/// `budget` has passed (the run is then flagged incomplete).
pub fn run_ladder(mix: &Mix, seed: u64, budget: Duration, tracer: &Tracer) -> LadderRun {
    let started = Instant::now();
    let reference = run_step(
        mix,
        seed,
        mix.reference_rps,
        mix.reference_requests,
        false,
        tracer,
    );
    let reference_rss_mb = crate::report::peak_rss_mb();
    let mut ladder = Ladder::new(RUNG_STRIDE);
    let mut rungs = Vec::new();
    let mut complete = true;
    while let Some(rung) = ladder.next() {
        // Rung 0 is the reference step: the same rate, and a sequence
        // that starts with the rungs' sequence.
        let step = if rung == 0 {
            None
        } else if started.elapsed() >= budget {
            complete = false;
            break;
        } else {
            let rate = stats::rung_rate(mix.reference_rps, RUNG_GROWTH, rung);
            Some(run_step(mix, seed, rate, mix.rung_requests, true, tracer))
        };
        let measured = step.as_ref().unwrap_or(&reference);
        let outcome = measured.outcome(mix);
        let verdict = stats::judge(&outcome, mix.limit_ms);
        ladder.record(rung, verdict == Verdict::Sustained);
        rungs.push(Rung {
            rung,
            outcome,
            verdict,
            setup_s: measured.setup_s,
            step,
        });
    }
    LadderRun {
        reference,
        highest: ladder.highest_pass,
        rungs,
        complete,
        reference_rss_mb,
    }
}

impl LadderRun {
    /// The highest sustained rung's step, or the reference step when that
    /// is rung 0 or even rung 0 missed the limit.
    pub fn sustained_step(&self) -> &Step {
        self.rungs
            .iter()
            .find(|r| Some(r.rung) == self.highest)
            .and_then(|r| r.step.as_ref())
            .unwrap_or(&self.reference)
    }

    /// Every step run, the reference step first.
    pub fn steps(&self) -> impl Iterator<Item = &Step> {
        std::iter::once(&self.reference).chain(self.rungs.iter().filter_map(|r| r.step.as_ref()))
    }

    pub fn detail_json(&self, mix: &Mix) -> String {
        let rungs: Vec<String> = self
            .rungs
            .iter()
            .map(|r| {
                let mut sample = r.outcome.limited_ms.clone();
                let tail =
                    stats::percentile(&mut sample, stats::TAIL).map_or(f64::NAN, |q| q.value);
                format!(
                    "{{\"rung\": {}, \"offered_rps\": {}, \"achieved_rps\": {}, \"tail_ms\": {}, \
                     \"verdict\": \"{:?}\", \"setup_s\": {}}}",
                    r.rung,
                    num(r.outcome.offered_rps),
                    num(r.outcome.achieved_rps),
                    num(tail),
                    r.verdict,
                    num(r.setup_s)
                )
            })
            .collect();
        format!(
            "{{\"limit_ms\": {}, \"tail_percentile\": {}, \"limited\": \"{:?}\", \"rung_growth\": {}, \"rung_stride\": {}, \
             \"ladder_complete\": {}, \"highest_rung\": {}, \"rungs\": [{}]}}",
            num(mix.limit_ms),
            num(stats::TAIL),
            mix.limited,
            num(RUNG_GROWTH),
            RUNG_STRIDE,
            self.complete,
            self.highest.map_or("null".to_string(), |r| r.to_string()),
            rungs.join(", ")
        )
    }
}
