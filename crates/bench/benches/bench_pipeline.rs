//! Streaming vs materialized ingestion throughput — the acceptance gauge
//! of the pull-based workload pipeline and the source of the committed
//! perf trajectory.
//!
//! Two paths over the identical stream (same spec, same seed, byte-equal
//! updates):
//!
//! * **materialized** — the historical dataflow: `WorkloadSpec::generate()`
//!   allocates the whole `Vec<Update>`, then the algorithm ingests it
//!   slice-chunk by slice-chunk;
//! * **streamed** — `WorkloadSpec::stream()` pulls chunks into one reused
//!   buffer (O(chunk) memory), ingesting as it generates.
//!
//! Chunked streaming must be at least as fast as materializing: it does
//! the same generation and ingestion work without the big allocation, the
//! second pass over memory, or the cache misses of a multi-MB script.
//!
//! Besides the criterion groups, the bench's `main` measures both paths
//! directly and **appends a dated snapshot** to `BENCH_pipeline.json`
//! (repo root when invoked via `cargo bench`). The file is a JSON array of
//! snapshots — one per perf PR — so the committed artifact is a
//! trajectory, not a single point; CI's no-regression gate compares the
//! freshest run cell by cell against the best of the last three
//! committed snapshots.

use criterion::{black_box, criterion_group, Criterion};
use std::time::Instant;
use wb_core::rng::TranscriptRng;
use wb_engine::registry::{self, Params};
use wb_engine::workload::UpdateSource;
use wb_engine::{Update, WorkloadSpec};

const CHUNK: usize = 4096;

/// The benched (workload, algorithm, log₂ m) cells — the **full registry**:
/// every algorithm appears on its fastest compatible workload (cycle for
/// the insert-only randomized sketches, churn for the turnstile ones), the
/// zipf × {misra_gries, count_min, space_saving} headline covers the
/// sampler rewrite, and the original nine cells keep their exact shape so
/// the committed trajectory stays comparable. `m` varies per cell — the
/// gauge is Mups, which normalizes by length — so the constant-factor-heavy
/// algorithms (a `MedianMorris` re-estimate on nearly every update for
/// `robust_hh` and `phi_eps_hh`, plus a Pedersen digest per sampled update
/// for `phi_eps_hh`) don't dominate wall-clock.
const MATRIX: &[(&str, &str, u32)] = &[
    ("uniform", "misra_gries", 20),
    ("uniform", "count_min", 20),
    ("cycle", "misra_gries", 20),
    ("cycle", "count_min", 20),
    ("cycle", "morris", 20),
    ("cycle", "median_morris", 20),
    ("cycle", "bern_mg", 20),
    ("cycle", "bernoulli_hh", 20),
    ("cycle", "robust_hh", 18),
    ("cycle", "phi_eps_hh", 15),
    ("zipf", "misra_gries", 20),
    ("zipf", "count_min", 20),
    ("zipf", "space_saving", 20),
    ("ddos", "misra_gries", 20),
    ("ddos", "count_min", 20),
    ("churn", "ams_f2", 20),
    ("churn", "exact_l0", 20),
    ("churn", "sis_l0", 20),
];

fn spec(kind: &str, n: u64, m: u64) -> WorkloadSpec {
    match kind {
        "uniform" => WorkloadSpec::Uniform { n, m, seed: 97 },
        "cycle" => WorkloadSpec::Cycle { items: 8, m },
        "zipf" => WorkloadSpec::Zipf {
            n,
            m,
            heavy: 64,
            seed: 97,
        },
        "ddos" => WorkloadSpec::Ddos { m, seed: 97 },
        // waves × (wave + wave/2) updates ≈ m.
        "churn" => WorkloadSpec::Churn {
            n,
            waves: m / 6144,
            wave: 4096,
            seed: 97,
        },
        other => panic!("unknown bench workload {other}"),
    }
}

/// Materialized path: generate the whole stream, then ingest it in chunks.
fn ingest_materialized(alg_name: &str, params: &Params, spec: &WorkloadSpec) -> u64 {
    let mut alg = registry::get(alg_name, params).expect("registry");
    let mut rng = TranscriptRng::from_seed(1);
    let script = spec.generate();
    for chunk in script.chunks(CHUNK) {
        alg.process_batch_dyn(chunk, &mut rng).expect("model");
    }
    alg.space_bits_dyn()
}

/// Streamed path: pull chunks into one reused buffer, ingesting lazily.
fn ingest_streamed(alg_name: &str, params: &Params, spec: &WorkloadSpec) -> u64 {
    let mut alg = registry::get(alg_name, params).expect("registry");
    let mut rng = TranscriptRng::from_seed(1);
    let mut source = spec.stream();
    let mut buf: Vec<Update> = Vec::with_capacity(CHUNK);
    while source.next_chunk(&mut buf) > 0 {
        alg.process_batch_dyn(&buf, &mut rng).expect("model");
    }
    alg.space_bits_dyn()
}

fn bench_pipeline(c: &mut Criterion) {
    let params = Params::default().with_n(1 << 12);
    for &(workload, alg, m_shift) in MATRIX {
        let m = 1u64 << m_shift.min(18);
        let spec = spec(workload, params.n, m);
        let mut g = c.benchmark_group(&format!("pipeline_{workload}_{alg}"));
        g.bench_function("materialized", |b| {
            b.iter(|| black_box(ingest_materialized(alg, &params, &spec)))
        });
        g.bench_function("streamed", |b| {
            b.iter(|| black_box(ingest_streamed(alg, &params, &spec)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_pipeline);

/// Fastest-of-`trials` wall time of `f`, in seconds. Minimum, not
/// median: on shared runners interference (scheduler preemption,
/// hypervisor steal) is strictly additive, so the fastest trial is the
/// least-contaminated estimate of the code's own cost and the most
/// stable statistic across runs — medians were observed swinging ±20%
/// run to run on otherwise idle cloud hardware.
fn measure(trials: usize, mut f: impl FnMut() -> u64) -> f64 {
    (0..trials)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock via the
/// days-to-civil algorithm (no date dependency in the workspace).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_secs();
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() {
    benches();

    // The committed perf artifact: million-updates-per-second for both
    // paths, per (workload, algorithm) cell, appended as a dated snapshot
    // to the trajectory array.
    let params = Params::default().with_n(1 << 12);
    let trials = 7;
    let mut rows = Vec::new();
    for &(workload, alg, m_shift) in MATRIX {
        let s = spec(workload, params.n, 1u64 << m_shift);
        // Actual emitted length (churn rounds m down to whole waves).
        let len = s.stream().len_hint().expect("generators know their length");
        let mat = measure(trials, || ingest_materialized(alg, &params, &s));
        let str_ = measure(trials, || ingest_streamed(alg, &params, &s));
        let mups = |secs: f64| len as f64 / secs / 1e6;
        rows.push(format!(
            concat!(
                r#"{{"workload":"{}","alg":"{}","m":{},"materialized_mups":{:.1},"#,
                r#""streamed_mups":{:.1},"speedup":{:.3}}}"#
            ),
            workload,
            alg,
            len,
            mups(mat),
            mups(str_),
            mat / str_,
        ));
    }
    let snapshot = format!(
        "{{\"date\":\"{}\",\"bench\":\"pipeline\",\"chunk\":{CHUNK},\"trials\":{trials},\"results\":[\n  {}\n]}}",
        today_utc(),
        rows.join(",\n  ")
    );
    // Append to the trajectory at the workspace root (benches run with the
    // package as CWD). A legacy single-object file becomes the array's
    // first point.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim();
    let json = if trimmed.is_empty() {
        format!("[\n{snapshot}\n]\n")
    } else if let Some(body) = trimmed.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        format!("[\n{},\n{snapshot}\n]\n", body.trim())
    } else {
        format!("[\n{trimmed},\n{snapshot}\n]\n")
    };
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("\nBENCH_pipeline.json:\n{json}");
}
