//! The benchmark's arithmetic: percentiles, the sustained-rate rule,
//! self time by subtraction and due-time latency. Kept free of I/O so the
//! unit tests below pin every rule the reported numbers depend on.

use std::time::Duration;

/// Samples a percentile must leave beyond itself before it is reported as
/// supported: a p95 needs about 200 samples, a p99 about 1000.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile the latency limits and the reported tails use. On
/// the reference host (2 vCPUs) a few scheduling stalls of 5-20 ms a
/// second delay about 1% of requests, so a p99 flips between the quiet
/// and the stalled regime from run to run; a p95 stays in the quiet one.
pub const TAIL: f64 = 95.0;

/// A percentile read off a sample, with whether the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    pub supported: bool,
}

/// Nearest-rank percentile `p ∈ [0, 100]` of `values` (sorted in place).
/// Returns `None` on an empty sample. The result is flagged unsupported
/// when fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(values: &mut [f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let last = values.len() - 1;
    let rank = ((p / 100.0) * last as f64).round() as usize;
    let rank = rank.min(last);
    let beyond = last - rank;
    Some(Percentile {
        value: values[rank],
        beyond,
        supported: beyond >= MIN_BEYOND,
    })
}

/// Median of a sample (the nearest-rank p50); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut copy = values.to_vec();
    percentile(&mut copy, 50.0).map_or(f64::NAN, |q| q.value)
}

/// Percentile `p` of each window, then the median across windows: a host
/// stall that spoils one window of a run leaves the figure alone.
pub fn windowed_percentile(windows: &[Vec<f64>], p: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter_map(|w| percentile(&mut w.clone(), p).map(|q| q.value))
        .collect();
    median(&per_window)
}

/// Latency of a request measured from the moment it was due, not from
/// when a sender picked it up: waiting behind a stalled sender or a
/// previous reading is part of what the caller sees.
pub fn due_latency(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// How late the generator itself ran: the gap between the moment a request
/// could have started (its due time, or the moment its sender came free if
/// later) and the moment it did start.
pub fn generator_lateness(due: Duration, sender_free: Duration, started: Duration) -> Duration {
    started.saturating_sub(due.max(sender_free))
}

/// Time a request waited for a busy sender before it could start.
pub fn queue_wait(due: Duration, sender_free: Duration) -> Duration {
    sender_free.saturating_sub(due)
}

/// A layer's own cost: its measured cost minus that of the layer it
/// wraps, which ran the same input in a separate pass.
pub fn self_time(outer_ns: f64, inner_ns: f64) -> f64 {
    outer_ns - inner_ns
}

/// Overhead of a pool over its copies: `pool / (copies × one copy)`.
pub fn overhead_ratio(pool_ns: f64, copies: usize, copy_ns: f64) -> f64 {
    pool_ns / (copies as f64 * copy_ns)
}

/// What one ladder step measured, as the sustained-rate rule reads it.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    pub offered_rps: f64,
    pub achieved_rps: f64,
    /// Due-time latencies (ms) of the requests the limit applies to, in
    /// due order. Failed or refused requests are `f64::INFINITY`: they miss
    /// any limit.
    pub limited_ms: Vec<f64>,
    /// Requests of the step that were never sent because it was cut short.
    pub unsent: usize,
}

/// Share of the offered rate a step must achieve to count as sustained.
pub const MIN_ACHIEVED: f64 = 0.95;

/// Why a step does or does not sustain its offered rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Sustained,
    OverLimit,
    TooFewSamples,
    Underachieved,
    GrowingBacklog,
    CutShort,
}

/// The sustained-rate rule: a step sustains its rate when every request
/// was sent, its [`TAIL`] percentile is supported and within `limit_ms`
/// (failures count as misses), it achieved at least [`MIN_ACHIEVED`] of the offered rate,
/// and its backlog did not grow, meaning the mean latency of its last
/// tenth of requests is within the limit too.
pub fn judge(step: &StepOutcome, limit_ms: f64) -> Verdict {
    if step.unsent > 0 {
        return Verdict::CutShort;
    }
    let mut sample = step.limited_ms.clone();
    let Some(tail) = percentile(&mut sample, TAIL) else {
        return Verdict::TooFewSamples;
    };
    if !tail.supported {
        return Verdict::TooFewSamples;
    }
    if tail.value > limit_ms {
        return Verdict::OverLimit;
    }
    if step.achieved_rps < MIN_ACHIEVED * step.offered_rps {
        return Verdict::Underachieved;
    }
    let tail = &step.limited_ms[step.limited_ms.len() - step.limited_ms.len().div_ceil(10)..];
    if tail.iter().sum::<f64>() / tail.len() as f64 > limit_ms {
        return Verdict::GrowingBacklog;
    }
    Verdict::Sustained
}

/// Misses a step may have before its [`TAIL`] percentile is certain to
/// exceed the limit: past this many, the step can stop early.
pub fn miss_budget(requests: usize) -> usize {
    let last = requests.saturating_sub(1);
    last - ((TAIL / 100.0 * last as f64).round() as usize)
}

/// The offered rate of ladder rung `k`: geometric from `base` with ratio
/// `growth` (at most 1.10, so neighbouring rungs are ≤ 10% apart).
pub fn rung_rate(base: f64, growth: f64, k: u32) -> f64 {
    base * growth.powi(k as i32)
}

/// Search state over the rung ladder. Rung 0 (the reference rate) is
/// always run first. Above it the search gallops `stride` rungs at a time
/// until a rung fails, then bisects the bracket; it ends when the highest
/// sustained rung's next rung has failed, which is where a rung-by-rung
/// walk would have ended, given latency that does not fall as load rises.
#[derive(Debug, Clone)]
pub struct Ladder {
    stride: u32,
    pub highest_pass: Option<u32>,
    lowest_fail: Option<u32>,
}

impl Ladder {
    pub fn new(stride: u32) -> Self {
        Self {
            stride: stride.max(1),
            highest_pass: None,
            lowest_fail: None,
        }
    }

    /// The next rung to run, or `None` when the search has ended.
    pub fn next(&self) -> Option<u32> {
        match (self.highest_pass, self.lowest_fail) {
            (None, None) => Some(0),
            // The reference rung itself failed: nothing above it is run.
            (None, Some(_)) => None,
            (Some(pass), None) => Some(pass + self.stride),
            (Some(pass), Some(fail)) if fail > pass + 1 => Some(pass + (fail - pass) / 2),
            (Some(_), Some(_)) => None,
        }
    }

    pub fn record(&mut self, rung: u32, sustained: bool) {
        if sustained {
            self.highest_pass = Some(self.highest_pass.map_or(rung, |p| p.max(rung)));
        } else {
            self.lowest_fail = Some(self.lowest_fail.map_or(rung, |f| f.min(rung)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest sample that supports percentile `p`.
    fn min_samples_for(p: f64) -> usize {
        (1..)
            .find(|&n| percentile(&mut vec![0.0; n], p).is_some_and(|q| q.supported))
            .unwrap_or(0)
    }

    #[test]
    fn percentile_is_nearest_rank_and_flags_thin_tails() {
        let mut sample: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&mut sample, 50.0).unwrap();
        assert_eq!(p50.value, 51.0);
        assert!(p50.supported);
        // 100 samples leave one beyond the p99 rank: unsupported.
        let p99 = percentile(&mut sample, 99.0).unwrap();
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        assert!(!p99.supported);
        assert!(percentile(&mut [], 50.0).is_none());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let n = min_samples_for(99.0);
        assert!(percentile(&mut vec![1.0; n], 99.0).unwrap().supported);
        assert!(!percentile(&mut vec![1.0; n - 1], 99.0).unwrap().supported);
        assert!((950..=1000).contains(&n), "{n}");
        assert!((190..=210).contains(&min_samples_for(TAIL)));
        assert_eq!(min_samples_for(50.0), 21);
    }

    #[test]
    fn percentile_sorts_unsorted_input() {
        let mut sample = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut sample, 50.0).unwrap().value, 3.0);
        assert_eq!(percentile(&mut sample, 100.0).unwrap().value, 5.0);
        assert_eq!(percentile(&mut sample, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn windowed_percentile_ignores_one_spoiled_window() {
        let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
        let spoiled: Vec<f64> = quiet.iter().map(|v| v * 50.0).collect();
        let windows = vec![quiet.clone(), spoiled, quiet];
        assert_eq!(windowed_percentile(&windows, 95.0), 95.0);
        assert_eq!(windowed_percentile(&windows[..1], 50.0), 51.0);
        assert!(windowed_percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn due_time_latency_counts_the_wait_for_a_sender() {
        let ms = Duration::from_millis;
        // Due at 10 ms, the sender frees at 14 ms, starts at 15 ms and
        // finishes at 18 ms: the caller waited 8 ms, not 3.
        assert_eq!(due_latency(ms(10), ms(18)), ms(8));
        assert_eq!(queue_wait(ms(10), ms(14)), ms(4));
        assert_eq!(generator_lateness(ms(10), ms(14), ms(15)), ms(1));
        // An idle sender: no queue wait, lateness from the due time.
        assert_eq!(queue_wait(ms(10), ms(2)), Duration::ZERO);
        assert_eq!(generator_lateness(ms(10), ms(2), ms(10)), Duration::ZERO);
    }

    #[test]
    fn self_time_is_outer_minus_inner() {
        assert_eq!(self_time(120.0, 100.0), 20.0);
        assert_eq!(self_time(100.0, 100.0), 0.0);
        assert!((overhead_ratio(2_600.0, 71, 36.0) - 2_600.0 / 2_556.0).abs() < 1e-12);
    }

    fn step(offered: f64, achieved: f64, latencies: Vec<f64>) -> StepOutcome {
        StepOutcome {
            offered_rps: offered,
            achieved_rps: achieved,
            limited_ms: latencies,
            unsent: 0,
        }
    }

    #[test]
    fn sustained_rule_checks_limit_rate_backlog_and_sample() {
        let quiet = vec![2.0; 1100];
        assert_eq!(
            judge(&step(100.0, 99.0, quiet.clone()), 25.0),
            Verdict::Sustained
        );
        // Too few samples to read the tail.
        assert_eq!(
            judge(&step(100.0, 99.0, vec![2.0; 150]), 25.0),
            Verdict::TooFewSamples
        );
        // 10% of requests failed: the tail is infinite.
        let mut failing = quiet.clone();
        for slot in failing.iter_mut().step_by(10) {
            *slot = f64::INFINITY;
        }
        assert_eq!(judge(&step(100.0, 99.0, failing), 25.0), Verdict::OverLimit);
        // Under 95% of the offered rate.
        assert_eq!(
            judge(&step(100.0, 94.0, quiet.clone()), 25.0),
            Verdict::Underachieved
        );
        // A backlog building at the very end: the tail holds (under 1% of
        // the requests are slow) but the last tenth averages over the limit.
        let mut backlog = quiet.clone();
        let n = backlog.len();
        for (i, slot) in backlog[n - 10..].iter_mut().enumerate() {
            *slot = 500.0 * (i + 1) as f64;
        }
        assert_eq!(
            judge(&step(100.0, 99.0, backlog), 25.0),
            Verdict::GrowingBacklog
        );
        let mut cut = step(100.0, 99.0, quiet);
        cut.unsent = 3;
        assert_eq!(judge(&cut, 25.0), Verdict::CutShort);
    }

    #[test]
    fn miss_budget_matches_the_tail_rank() {
        for n in [250, 600, 1100, 2500] {
            let budget = miss_budget(n);
            let mut sample = vec![1.0; n];
            for slot in sample.iter_mut().take(budget) {
                *slot = f64::INFINITY;
            }
            assert!(percentile(&mut sample, TAIL).unwrap().value.is_finite());
            sample[budget] = f64::INFINITY;
            assert!(percentile(&mut sample, TAIL).unwrap().value.is_infinite());
        }
    }

    #[test]
    fn ladder_gallops_then_bisects_to_the_first_failing_rung() {
        // Rungs 0..=9 sustain, 10 and up fail.
        let knee = 9;
        let mut ladder = Ladder::new(4);
        let mut visited = Vec::new();
        while let Some(rung) = ladder.next() {
            visited.push(rung);
            ladder.record(rung, rung <= knee);
        }
        assert_eq!(ladder.highest_pass, Some(knee));
        assert_eq!(visited, vec![0, 4, 8, 12, 10, 9]);
        // A failing reference rung ends the search at once.
        let mut ladder = Ladder::new(4);
        ladder.record(0, false);
        assert_eq!(ladder.next(), None);
        assert_eq!(ladder.highest_pass, None);
        assert!((rung_rate(150.0, 1.05, 2) - 165.375).abs() < 1e-9);
    }
}
