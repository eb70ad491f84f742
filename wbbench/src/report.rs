//! Metric tables, sample statistics and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: every untraced run prints each [`END_TO_END`] metric,
//! every traced run each [`PER_LAYER`] metric, by these names and units.
//! A layer a workload never calls reports 0 — the "bypass" reading.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, measured untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mups", "Mups"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, measured by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("core.aggregate_s", "s"),
    ("core.distinct_ratio", "ratio"),
    ("sketch.kernel_s.phi_eps_hh", "s"),
    ("sketch.kernel_s.sis_l0", "s"),
    ("sketch.kernel_s.robust_hh", "s"),
    ("sketch.query_s", "s"),
    ("referee.observe_s", "s"),
    ("referee.check_s", "s"),
    ("engine.checks", "count"),
    ("engine.residual_s", "s"),
    ("crypto.pedersen_digest_ns", "ns"),
    ("crypto.pow_mod_ns", "ns"),
    ("crypto.mul_mod_ns", "ns"),
    ("json.parse_s", "s"),
    ("proto.decode_s", "s"),
    ("proto.encode_s", "s"),
    ("wire.bytes_per_update", "B"),
    ("tenant.validate_s", "s"),
    ("tenant.apply_s", "s"),
    ("tenant.query_s", "s"),
    ("wbd.reactor_thread_s", "s"),
    ("wbd.worker_s", "s"),
    ("wbd.residual_s", "s"),
    ("reactor.ready_events_per_req", "1/req"),
    ("reactor.wakeups_per_req", "1/req"),
    ("reactor.pending_ops_per_req", "1/req"),
    ("reactor.deferred_submits", "count"),
    ("reactor.write_stalls", "count"),
    ("pool.jobs_per_req", "1/req"),
    ("pool.submit_stalls", "count"),
    ("pool.peak_depth", "count"),
    ("tenant.inbox_stalls", "count"),
    ("tenant.shard_queue_stalls", "count"),
    ("loadgen.wait_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("latency.ingest_samples", "count"),
    ("latency.query_samples", "count"),
];

/// What one workload run produced: operation counts and metric values.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (engine: cells played; wbd: requests sent).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Metric values by name (a subset of the two tables).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric; the name must be in one of the two tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Count one failed operation, with the reason on stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("wbbench: FAILED: {}", why.as_ref());
    }

    /// The result line: one JSON object with the untraced (`traced =
    /// false`) or traced metric table. End-to-end metrics must all be
    /// present; per-layer metrics a workload bypasses read 0.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table of every measured metric, for stderr.
    pub fn print_table(&self) {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.metrics.get(name) {
                eprintln!("  {name:<32} {v:>16.6} {unit}");
            }
        }
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Share of a run's units the end-to-end rates and latencies are taken
/// from: the fastest tenth.
const FAST_SHARE: f64 = 0.1;

/// A stretch of a run (an engine cell or cycle, a bulk round): its rate
/// and where its latency samples end in the run's sample buffers, which
/// the units fill in order.
#[derive(Clone, Copy, Default)]
pub struct Unit {
    /// Updates per second.
    pub rate: f64,
    /// One past the unit's last ingest sample.
    pub ingest_end: usize,
    /// One past the unit's last query sample.
    pub query_end: usize,
}

/// What the fastest units of a run measured.
pub struct Fastest {
    /// Units chosen.
    pub units: usize,
    /// Median rate of the chosen units, in updates per second.
    pub rate: f64,
    /// `(p50, p99)` of the chosen units' pooled ingest samples, in ms.
    pub ingest_ms: (f64, f64),
    /// `(p50, p99)` of the chosen units' pooled query samples, in ms.
    pub query_ms: (f64, f64),
    /// Ingest samples pooled.
    pub ingest_samples: usize,
    /// Query samples pooled.
    pub query_samples: usize,
}

/// The end-to-end estimates of a run: rate and latencies of its fastest
/// `FAST_SHARE` of units (at least one). The host the benchmark runs on
/// is shared, and its other tenants slow whole stretches of a run down,
/// by amounts and for lengths that differ from run to run; interference
/// only ever adds time, so the fastest stretches are the least
/// contaminated. A tenth rather than the single fastest unit, so that
/// the estimate is a median and the percentiles rest on many samples.
pub fn fastest(units: &[Unit], ingest_ns: &[u64], query_ns: &[u64]) -> Fastest {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| units[b].rate.total_cmp(&units[a].rate));
    let take = ((units.len() as f64 * FAST_SHARE).round() as usize).max(1);
    let chosen = &order[..take.min(units.len())];
    let (mut ingest, mut query) = (Vec::new(), Vec::new());
    let mut rates = Vec::with_capacity(chosen.len());
    for &i in chosen {
        let (ingest_start, query_start) = match i {
            0 => (0, 0),
            _ => (units[i - 1].ingest_end, units[i - 1].query_end),
        };
        ingest.extend_from_slice(&ingest_ns[ingest_start..units[i].ingest_end]);
        query.extend_from_slice(&query_ns[query_start..units[i].query_end]);
        rates.push(units[i].rate);
    }
    Fastest {
        units: chosen.len(),
        rate: median(&rates),
        ingest_samples: ingest.len(),
        query_samples: query.len(),
        ingest_ms: percentiles_ms(&mut ingest),
        query_ms: percentiles_ms(&mut query),
    }
}

/// One line describing a run's unit rates in Mups, for stderr.
pub fn describe_rates(units: &[Unit]) -> String {
    let mut v: Vec<f64> = units.iter().map(|u| u.rate / 1e6).collect();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        v.get(((v.len().max(1) - 1) as f64 * q) as usize)
            .copied()
            .unwrap_or(0.0)
    };
    format!(
        "{} units, Mups p10 {:.4} median {:.4} p90 {:.4} best {:.4}",
        v.len(),
        at(0.1),
        at(0.5),
        at(0.9),
        at(1.0)
    )
}

/// `(p50, p_hi)` of a sample in nanoseconds, as milliseconds. `p_hi` is
/// the 99th percentile when at least ten samples lie beyond it, else the
/// highest percentile that still has ten beyond it (the maximum when the
/// sample has ten or fewer points).
fn percentiles_ms(samples_ns: &mut [u64]) -> (f64, f64) {
    if samples_ns.is_empty() {
        return (0.0, 0.0);
    }
    samples_ns.sort_unstable();
    let n = samples_ns.len();
    let p50 = samples_ns[(n - 1) / 2];
    let rank99 = (n * 99).div_ceil(100).max(1) - 1;
    let hi = if n > 10 { rank99.min(n - 11) } else { n - 1 };
    (p50 as f64 / 1e6, samples_ns[hi] as f64 / 1e6)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
