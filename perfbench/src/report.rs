//! Metric collection, the one-line result the benchmark ends with, and the
//! results file that records the host and method next to the numbers.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Directory, relative to where the benchmark runs, that results and
/// traces are written to.
pub const RESULTS_DIR: &str = "perfbench/results";

/// Core count of the host the committed figures were taken on; results
/// from any other core count are flagged as not comparable with them.
pub const REFERENCE_NPROC: usize = 2;

/// Metrics in the order they were recorded, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit the `f64` carries.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the benchmark only writes ASCII names and
/// tool output, so escaping quotes, backslashes and controls suffices).
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Operation counts behind the final line.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Scored readings whose guarantee interval missed the exact truth.
    pub violations: u64,
    /// Refusals that did not match the expected ones, either way.
    pub refusal_mismatches: u64,
    /// Responses no request of the workload should get (e.g. a 404).
    pub unexpected: u64,
    pub expected_refusals: u64,
    pub refusals: u64,
    pub scored: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        self.refusal_mismatches += other.refusal_mismatches;
        self.unexpected += other.unexpected;
        self.expected_refusals += other.expected_refusals;
        self.refusals += other.refusals;
        self.scored += other.scored;
    }

    pub fn correct(&self) -> bool {
        self.violations == 0 && self.refusal_mismatches == 0 && self.unexpected == 0
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"violations\": {}, \"refusal_mismatches\": {}, \
             \"unexpected\": {}, \"expected_refusals\": {}, \"refusals\": {}, \"scored\": {}}}",
            self.attempted,
            self.failed,
            self.violations,
            self.refusal_mismatches,
            self.unexpected,
            self.expected_refusals,
            self.refusals,
            self.scored
        )
    }
}

/// The host and method a result was produced under.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub profile: &'static str,
    pub rustc: String,
    pub revision: String,
}

impl Host {
    pub fn detect() -> Self {
        Self {
            nproc: nproc(),
            profile: if cfg!(debug_assertions) {
                "dev"
            } else {
                "release"
            },
            rustc: tool_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // Ask git only inside a repository root, so it never walks out
            // of the checkout looking for one.
            revision: Path::new(".git")
                .exists()
                .then(|| tool_output("git", &["rev-parse", "HEAD"]))
                .flatten()
                .map(|rev| format!("git:{rev}"))
                .unwrap_or_else(|| format!("source:{:016x}", source_digest(Path::new("crates")))),
        }
    }

    pub fn comparable(&self) -> bool {
        self.nproc == REFERENCE_NPROC
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs a tool to completion and returns its trimmed standard output.
fn tool_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// FNV-1a over every file under `root` in path order: identifies the
/// measured source when the checkout carries no git metadata.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for byte in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything one run records.
pub struct RunRecord<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub host: &'a Host,
    pub tally: &'a Tally,
    pub metrics: &'a Metrics,
    /// Workload-specific detail (already JSON), e.g. the ladder steps.
    pub detail: String,
}

impl RunRecord<'_> {
    pub fn to_json(&self) -> String {
        let host = self.host;
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"run_seconds\": {},\n  \"trace\": {},\n  \
             \"host\": {{\"nproc\": {}, \"profile\": {}, \"rustc\": {}, \"revision\": {}, \
             \"reference_nproc\": {}, \"comparable\": {}}},\n  \"correct\": {},\n  \"tally\": {},\n  \
             \"metrics\": {},\n  \"detail\": {}\n}}\n",
            string(self.workload),
            self.seed,
            self.seconds,
            self.trace,
            host.nproc,
            string(host.profile),
            string(&host.rustc),
            string(&host.revision),
            REFERENCE_NPROC,
            host.comparable(),
            self.tally.correct(),
            self.tally.to_json(),
            self.metrics.to_json(),
            self.detail
        )
    }

    /// Writes the record to the results directory and returns its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(RESULTS_DIR)?;
        let path = Path::new(RESULTS_DIR).join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_every_digit_and_replace_duplicates() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.123_456_789_012, "s");
        m.set("setup_s", 0.5, "s");
        m.set("sketch_mb", 12.0, "MB");
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"sketch_mb\": {\"value\": 12.0, \"unit\": \"MB\"}}"
        );
        assert_eq!(num(0.123_456_789_012), "0.123456789012");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
