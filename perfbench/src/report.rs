//! The run report the binary prints as its last line, and the order
//! statistics every workload shares.
//!
//! The report is one JSON object; `run.py` attaches units and kinds from
//! `catalog.json` and turns it into the benchmark's result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value, enough of one for the report.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/inf: a non-finite number is written as null,
            // which `run.py` reports as a missing metric.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => {
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
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
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize on one line.
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → measured (or modeled) value.
    pub metrics: BTreeMap<String, f64>,
    /// Context a reader needs to interpret the metrics (sample counts,
    /// which percentile the tail is, tracing overhead, …).
    pub info: BTreeMap<String, Json>,
    /// Output checks: name → (passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted (training steps or served queries).
    pub attempted: u64,
    /// Operations that failed (non-finite or mismatching output, error,
    /// rejection).
    pub failed: u64,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record context.
    pub fn info(&mut self, name: &str, value: impl Into<Json>) {
        self.info.insert(name.to_string(), value.into());
    }

    /// Record an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }
}

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The nearest-rank `p`-th percentile (0 for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Percentiles the tail metric may fall back to, highest first.
const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a sample at percentile `p` (the workload's fixed choice,
/// which keeps runs comparable when their sample counts differ) or, when
/// fewer than ten samples lie beyond it, at the highest lower percentile
/// of [`TAIL_LADDER`] that has ten beyond: `(percentile, value)`, the
/// value at nearest rank `ceil(p/100 · n)`.
pub fn tail(values: &[f64], p: f64) -> (f64, f64) {
    let n = values.len();
    let fits = |q: f64| n - ((q / 100.0) * n as f64).ceil() as usize >= 10;
    let q = std::iter::once(p)
        .chain(TAIL_LADDER.into_iter().filter(|&q| q < p))
        .find(|&q| fits(q))
        .unwrap_or(50.0);
    (q, percentile(values, q))
}

/// A sample's p50/p90/p95/p98/p99 in milliseconds, for the report's info.
pub fn percentiles_ms(values: &[f64]) -> Json {
    Json::Obj(
        [50.0, 90.0, 95.0, 98.0, 99.0]
            .iter()
            .map(|&p| (format!("p{p}"), Json::Num(percentile(values, p) * 1e3)))
            .collect(),
    )
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process,
/// exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run so far, all threads (time stolen by
/// a hypervisor excluded).
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel
    // supports, so the call only writes `ts` and returns.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.secs as f64 + ts.nanos as f64 * 1e-9
}

/// CPU accounting marks, to tell a contended run from a slow program.
#[derive(Debug, Clone, Copy)]
pub struct CpuMark {
    /// Host-wide `/proc/stat` ticks: all, and stolen by the hypervisor.
    host_total: u64,
    host_steal: u64,
    /// This process's CPU seconds.
    process: f64,
}

impl CpuMark {
    /// Read the counters now (host ticks read as zero where procfs is
    /// unreadable).
    pub fn now() -> Self {
        let host: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        CpuMark {
            host_total: host.iter().sum(),
            host_steal: host.get(7).copied().unwrap_or(0),
            process: process_cpu_secs(),
        }
    }

    /// Share of host CPU time the hypervisor stole since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuMark) -> f64 {
        let total = self.host_total.saturating_sub(earlier.host_total);
        self.host_steal.saturating_sub(earlier.host_steal) as f64 / total.max(1) as f64
    }

    /// This process's CPU seconds since `earlier`.
    pub fn process_secs_since(&self, earlier: &CpuMark) -> f64 {
        self.process - earlier.process
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, from procfs.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(tail(&v, 99.0), (99.0, 990.0));
        assert_eq!(tail(&v, 95.0), (95.0, 950.0));
        let v: Vec<f64> = (1..=999).map(|i| i as f64).collect();
        assert_eq!(tail(&v, 99.0), (98.0, 980.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0], 90.0), (50.0, 2.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_escapes_and_nulls() {
        let mut m = BTreeMap::new();
        m.insert("a\"b".to_string(), Json::Num(f64::NAN));
        m.insert(
            "c".to_string(),
            Json::Arr(vec![Json::Num(1.5), Json::Bool(true)]),
        );
        assert_eq!(Json::Obj(m).to_line(), r#"{"a\"b":null,"c":[1.5,true]}"#);
    }
}
