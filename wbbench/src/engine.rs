//! Engine workloads: tournament-shaped cells driven in the bench process.
//!
//! A cell is what `tournament` plays for its prelude: `registry::get`,
//! `tournament::referee_for`, and the `run_source_erased` loop over a
//! folded workload stream with chunk 4096, the referee checking the
//! answer at every chunk boundary. A *cycle* plays one cell per algorithm
//! of the workload, each on a fresh stream and fresh seeds derived from
//! the benchmark seed and the cycle index; the untraced pass plays cycles
//! until the time is up.
//!
//! The traced pass replays the same cycles with the body of
//! `run_source_erased` written out and a timer around each public call,
//! and checks that every traced report equals its untraced twin.
//!
//! Both passes read every span from the bench thread's CPU-time clock
//! ([`CpuInstant`]); only the length of the untraced pass is wall time.

use crate::clock::CpuInstant;
use crate::report::{describe_rates, fastest, median, peak_rss_mb, Fastest, Outcome, Unit};
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wb_core::game::Verdict;
use wb_core::rng::{derive_seed, TranscriptRng};
use wb_core::snap::{SnapError, SnapWriter, Snapshot};
use wb_core::stream::RunAggregator;
use wb_core::WbError;
use wb_crypto::modular::{mul_mod, pow_mod};
use wb_engine::erased::run_source_erased;
use wb_engine::registry::{self, Params};
use wb_engine::report::GameReport;
use wb_engine::tournament::{referee_for, workload_spec};
use wb_engine::workload::{FoldSource, UpdateSource};
use wb_engine::{Answer, DynReferee, DynStreamAlg, StreamModel, Update, WorkloadSpec};
use wb_sketch::PhiEpsHeavyHitters;

/// Chunk size of every cell: the tournament's `--chunk` default.
const CHUNK: usize = 4096;
/// Universe size of every cell (the tournament default).
const N: u64 = 1 << 12;

/// The stream generator a cell pulls from.
#[derive(Clone, Copy)]
enum Stream {
    /// The tournament's `cycle` workload (8 items round-robin).
    Cycle,
    /// The tournament's `churn` workload (insert/delete waves).
    Churn,
}

/// One algorithm of a workload: registry key, stream, stream length.
type CellShape = (&'static str, Stream, u64);

/// `engine_tail`: the slow cryptographic and randomized tail.
const ENGINE_TAIL: &[CellShape] = &[
    ("phi_eps_hh", Stream::Cycle, 1 << 16),
    ("sis_l0", Stream::Churn, 1 << 18),
    ("robust_hh", Stream::Cycle, 1 << 17),
];

/// The kernel whose `process_batch` aggregates the chunk with
/// `RunAggregator` (over `i128` deltas); the traced pass replays the
/// aggregation on its chunks.
const AGGREGATING: &str = "sis_l0";

/// Latency samples per second of run the untraced pass preallocates for
/// (one per chunk; `engine_tail` runs about 400 chunks/s today, so the
/// buffers hold a tenfold speed-up without growing).
const SAMPLES_PER_SEC: f64 = 4_000.0;

/// Updates per chunk whose Pedersen digest and `pow_mod` the traced pass
/// replays on `phi_eps_hh` cells (`mul_mod` is replayed on every update).
const CRYPTO_SAMPLE: usize = 32;

/// Whether `workload` names an engine workload.
pub fn is_engine(workload: &str) -> bool {
    shapes(workload).is_some()
}

/// Cell shapes of an engine workload, or `None` for other names.
fn shapes(workload: &str) -> Option<&'static [CellShape]> {
    match workload {
        "engine_tail" => Some(ENGINE_TAIL),
        _ => None,
    }
}

/// Everything a cell needs, derived from (seed, workload, alg, cycle).
struct CellPlan {
    alg: &'static str,
    params: Params,
    spec: WorkloadSpec,
    game_seed: u64,
}

impl CellPlan {
    fn new(seed: u64, workload: &str, shape: &CellShape, cycle: u64) -> CellPlan {
        let (alg, stream, m) = *shape;
        let tag = cycle.to_string();
        let role = |r: &str| derive_seed(seed, &[workload, alg, &tag, r]);
        let mut params = Params::default().with_n(N).with_seed(role("ctor"));
        params.m_guess = m;
        let wl_seed = role("workload");
        let spec = match stream {
            Stream::Cycle => workload_spec("cycle", N, m, wl_seed).expect("known workload"),
            Stream::Churn => workload_spec("churn", N, m, wl_seed).expect("known workload"),
        };
        CellPlan {
            alg,
            params,
            spec,
            game_seed: role("game"),
        }
    }

    fn source(&self) -> FoldSource<wb_engine::WorkloadStream> {
        FoldSource::new(self.spec.stream(), N)
    }
}

/// What a finished cell must reproduce under tracing.
struct CellResult {
    survived: bool,
    report: Vec<u8>,
    final_space_bits: u64,
}

fn report_bytes(report: &GameReport) -> Vec<u8> {
    let mut w = SnapWriter::new();
    report.snap(&mut w);
    w.finish()
}

/// Pass-through wrapper that times the engine's ingest call at the API
/// boundary: two clock reads per chunk, nothing inside the engine.
struct IngestProbe<'a> {
    inner: &'a mut dyn DynStreamAlg,
    ingest_ns: Vec<u64>,
}

impl DynStreamAlg for IngestProbe<'_> {
    fn process_dyn(&mut self, update: &Update, rng: &mut TranscriptRng) -> Result<(), WbError> {
        self.inner.process_dyn(update, rng)
    }

    fn process_batch_dyn(
        &mut self,
        updates: &[Update],
        rng: &mut TranscriptRng,
    ) -> Result<(), WbError> {
        let t = CpuInstant::now();
        let r = self.inner.process_batch_dyn(updates, rng);
        self.ingest_ns.push(t.elapsed().as_nanos() as u64);
        r
    }

    fn query_dyn(&self) -> Answer {
        self.inner.query_dyn()
    }

    fn space_bits_dyn(&self) -> u64 {
        self.inner.space_bits_dyn()
    }

    fn name_dyn(&self) -> &'static str {
        self.inner.name_dyn()
    }

    fn model_dyn(&self) -> StreamModel {
        self.inner.model_dyn()
    }

    fn merge_dyn(&mut self, other: &dyn DynStreamAlg) -> Result<(), wb_core::MergeError> {
        self.inner.merge_dyn(other)
    }

    fn snapshot_dyn(&self) -> Result<Vec<u8>, SnapError> {
        self.inner.snapshot_dyn()
    }

    fn restore_dyn(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.inner.restore_dyn(bytes)
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Pass-through referee wrapper that times each chunk from its arrival
/// (`observe_batch`) to its verdict (`check` returning): the latency of
/// the engine's checked answer to that chunk.
struct VerdictProbe<'a> {
    inner: &'a mut dyn DynReferee,
    arrived: Option<CpuInstant>,
    verdict_ns: Vec<u64>,
}

impl DynReferee for VerdictProbe<'_> {
    fn observe(&mut self, update: &Update) {
        self.inner.observe(update)
    }

    fn observe_batch(&mut self, updates: &[Update]) {
        self.arrived = Some(CpuInstant::now());
        self.inner.observe_batch(updates)
    }

    fn check(&mut self, t: u64, answer: &Answer) -> Verdict {
        let verdict = self.inner.check(t, answer);
        if let Some(arrived) = self.arrived.take() {
            self.verdict_ns.push(arrived.elapsed().as_nanos() as u64);
        }
        verdict
    }

    fn snapshot_dyn(&self) -> Result<Vec<u8>, SnapError> {
        self.inner.snapshot_dyn()
    }

    fn restore_dyn(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.inner.restore_dyn(bytes)
    }
}

/// Accumulators of the untraced pass.
#[derive(Default)]
struct Untraced {
    setup_per_cycle: Vec<f64>,
    /// Each cycle's games as a unit (rate only).
    cycles: Vec<Unit>,
    /// Each algorithm's cells as units over its latency samples, in
    /// shape order.
    cells: Vec<Vec<Unit>>,
    game: Duration,
    /// Game time and updates per algorithm, for the time shares.
    game_per_alg: BTreeMap<&'static str, (Duration, u64)>,
    /// Latency samples per algorithm of the workload, in shape order.
    ingest_ns: Vec<Vec<u64>>,
    query_ns: Vec<Vec<u64>>,
}

/// Play one cell untraced: construction is set-up, the
/// `run_source_erased` call is the game.
fn untraced_cell(
    plan: &CellPlan,
    slot: usize,
    acc: &mut Untraced,
) -> Result<(CellResult, Duration), WbError> {
    let t0 = CpuInstant::now();
    let mut alg = registry::get(plan.alg, &plan.params)?;
    let mut referee = referee_for(plan.alg, &plan.params).build();
    let setup = t0.elapsed();
    let mut source = plan.source();
    let mut ingest = IngestProbe {
        inner: alg.as_mut(),
        ingest_ns: std::mem::take(&mut acc.ingest_ns[slot]),
    };
    let mut verdict = VerdictProbe {
        inner: referee.as_mut(),
        arrived: None,
        verdict_ns: std::mem::take(&mut acc.query_ns[slot]),
    };
    let g0 = CpuInstant::now();
    let played = run_source_erased(
        &mut ingest,
        &mut source,
        &mut verdict,
        CHUNK,
        plan.game_seed,
    );
    let game = g0.elapsed();
    acc.game += game;
    let (time, updates) = acc.game_per_alg.entry(plan.alg).or_default();
    (*time, *updates) = (*time + game, *updates + plan.spec.len());
    acc.ingest_ns[slot] = ingest.ingest_ns;
    acc.query_ns[slot] = verdict.verdict_ns;
    acc.cells[slot].push(Unit {
        rate: plan.spec.len() as f64 / game.as_secs_f64(),
        ingest_end: acc.ingest_ns[slot].len(),
        query_end: acc.query_ns[slot].len(),
    });
    let report = played?;
    Ok((
        CellResult {
            survived: report.survived(),
            report: report_bytes(&report),
            final_space_bits: alg.space_bits_dyn(),
        },
        setup,
    ))
}

/// Accumulators of the traced pass: busy time per layer, and the
/// replays that run beside the loop and are kept out of its time.
#[derive(Default)]
struct Traced {
    gen: Duration,
    observe: Duration,
    kernel: BTreeMap<&'static str, Duration>,
    query: Duration,
    check: Duration,
    checks: u64,
    wall: Duration,
    aggregate: Duration,
    aggregated: u64,
    runs: u64,
    digest: (Duration, u64),
    pow: (Duration, u64),
    mul: (Duration, u64),
}

/// Play one cell with the loop of `run_source_erased` written out and a
/// timer around each public call. The aggregator and crypto replays run
/// between chunks and are subtracted from the loop's time.
fn traced_cell(plan: &CellPlan, tr: &mut Traced) -> Result<CellResult, WbError> {
    let mut alg = registry::get(plan.alg, &plan.params)?;
    let mut referee = referee_for(plan.alg, &plan.params).build();
    let mut source = plan.source();
    let crhf = alg
        .as_any()
        .downcast_ref::<PhiEpsHeavyHitters>()
        .map(|a| *a.crhf());
    let aggregating = plan.alg == AGGREGATING;
    let mut aggregator: RunAggregator<i128> = RunAggregator::new();
    let mut kernel = Duration::ZERO;
    let mut replay = Duration::ZERO;

    let wall = CpuInstant::now();
    let mut rng = TranscriptRng::from_seed(plan.game_seed);
    let expected_checks = source
        .len_hint()
        .map_or(1, |len| len.div_ceil(CHUNK as u64).max(1));
    let mut report = GameReport::new(alg.space_bits_dyn(), expected_checks);
    let mut buf: Vec<Update> = Vec::with_capacity(CHUNK);
    let mut t = 0u64;
    loop {
        let t0 = CpuInstant::now();
        let got = source.next_chunk(&mut buf);
        let t1 = CpuInstant::now();
        tr.gen += t1 - t0;
        if got == 0 {
            break;
        }
        referee.observe_batch(&buf);
        let t2 = CpuInstant::now();
        tr.observe += t2 - t1;
        alg.process_batch_dyn(&buf, &mut rng)?;
        let t3 = CpuInstant::now();
        kernel += t3 - t2;
        t += buf.len() as u64;
        let space = alg.space_bits_dyn();
        let answer = alg.query_dyn();
        let t4 = CpuInstant::now();
        tr.query += t4 - t3;
        let verdict = referee.check(t, &answer);
        let t5 = CpuInstant::now();
        tr.check += t5 - t4;
        report.record_check(t, space, &verdict);
        tr.checks += 1;

        let r0 = CpuInstant::now();
        if aggregating {
            let pairs = buf.iter().map(|u| (u.item(), i128::from(u.delta())));
            let runs = aggregator.aggregate(pairs, buf.len()).len();
            tr.aggregate += r0.elapsed();
            tr.aggregated += buf.len() as u64;
            tr.runs += runs as u64;
        }
        if let Some(md) = &crhf {
            replay_crypto(md, &buf, tr);
        }
        replay += r0.elapsed();
        if !verdict.is_correct() {
            break;
        }
    }
    report.finish(t, alg.space_bits_dyn());
    tr.wall += wall.elapsed() - replay;
    *tr.kernel.entry(plan.alg).or_default() += kernel;
    Ok(CellResult {
        survived: report.survived(),
        report: report_bytes(&report),
        final_space_bits: alg.space_bits_dyn(),
    })
}

/// Replay the Theorem 1.2 primitives on a chunk of `phi_eps_hh` items
/// with the cell's own 40-bit Pedersen parameters: the digest of each
/// sampled item, `pow_mod` with the digest as a full-size exponent, and a
/// dependent `mul_mod` chain over the whole chunk.
fn replay_crypto(md: &wb_crypto::crhf::PedersenMd, buf: &[Update], tr: &mut Traced) {
    let p = md.inner().params();
    let sample = &buf[..buf.len().min(CRYPTO_SAMPLE)];
    let c0 = CpuInstant::now();
    let digests: Vec<u64> = sample
        .iter()
        .map(|u| black_box(md.hash_words(&[u.item()])))
        .collect();
    let c1 = CpuInstant::now();
    for &d in &digests {
        black_box(pow_mod(p.g, d % p.q, p.p));
    }
    let c2 = CpuInstant::now();
    let mut acc = 1u64;
    for u in buf {
        acc = mul_mod(acc, u.item() + p.g, p.p);
    }
    black_box(acc);
    let c3 = CpuInstant::now();
    tr.digest.0 += c1 - c0;
    tr.digest.1 += sample.len() as u64;
    tr.pow.0 += c2 - c1;
    tr.pow.1 += digests.len() as u64;
    tr.mul.0 += c3 - c2;
    tr.mul.1 += buf.len() as u64;
}

/// An empty vector whose `cap` slots have all been written once, so its
/// pages are resident before the run starts.
fn touched(cap: usize) -> Vec<u64> {
    let mut v = vec![u64::MAX; cap];
    v.clear();
    v
}

/// The end-to-end estimates of an engine run (see [`fastest`]): the rate
/// of the fastest cycles, and the latencies of each algorithm's fastest
/// cells averaged over the workload's algorithms. Chunk latencies of
/// different algorithms differ by up to 10×, so pooled percentiles would
/// fall at the edge between two algorithms' ranges and jump with their
/// mix; each algorithm's own percentiles do not.
fn fastest_engine(acc: &Untraced) -> Fastest {
    let per_alg: Vec<Fastest> = (0..acc.cells.len())
        .map(|slot| fastest(&acc.cells[slot], &acc.ingest_ns[slot], &acc.query_ns[slot]))
        .collect();
    let mean = |f: fn(&Fastest) -> f64| per_alg.iter().map(f).sum::<f64>() / per_alg.len() as f64;
    let cycles = fastest(&acc.cycles, &[], &[]);
    Fastest {
        units: cycles.units,
        rate: cycles.rate,
        ingest_ms: (mean(|f| f.ingest_ms.0), mean(|f| f.ingest_ms.1)),
        query_ms: (mean(|f| f.query_ms.0), mean(|f| f.query_ms.1)),
        ingest_samples: per_alg.iter().map(|f| f.ingest_samples).sum(),
        query_samples: per_alg.iter().map(|f| f.query_samples).sum(),
    }
}

fn ns_per_call((total, calls): (Duration, u64)) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total.as_nanos() as f64 / calls as f64
    }
}

/// Run an engine workload for `seconds`, then (when `traced`) replay the
/// same cycles through the traced loop.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let shapes = shapes(workload).expect("engine workload");
    let mut out = Outcome::default();
    // The bench's own bookkeeping is resident in the process whose peak
    // RSS is reported, so it must not grow with the engine's speed: the
    // latency buffers are sized from the run length and touched up front,
    // and the untraced reports are kept only when a traced pass needs them.
    let chunks = |&(_, _, m): &CellShape| m.div_ceil(CHUNK as u64) as f64;
    let per_cycle: f64 = shapes.iter().map(chunks).sum();
    let caps: Vec<usize> = shapes
        .iter()
        .map(|s| (seconds * SAMPLES_PER_SEC * chunks(s) / per_cycle) as usize + 1)
        .collect();
    let mut acc = Untraced {
        cells: vec![Vec::new(); shapes.len()],
        ingest_ns: caps.iter().map(|&c| touched(c)).collect(),
        query_ns: caps.iter().map(|&c| touched(c)).collect(),
        ..Untraced::default()
    };
    let mut results: Vec<Option<CellResult>> = Vec::new();
    let start = Instant::now();
    let mut cycles = 0u64;
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        let (mut setup, game_before, mut updates) = (0.0, acc.game, 0u64);
        for (slot, shape) in shapes.iter().enumerate() {
            let plan = CellPlan::new(seed, workload, shape, cycles);
            out.attempted += 1;
            match untraced_cell(&plan, slot, &mut acc) {
                Ok((cell, cell_setup)) => {
                    setup += cell_setup.as_secs_f64();
                    updates += plan.spec.len();
                    if !cell.survived {
                        out.fail(format!(
                            "{workload} cycle {cycles}: {} lost its game",
                            plan.alg
                        ));
                    }
                    if traced {
                        results.push(Some(cell));
                    }
                }
                Err(e) => {
                    out.fail(format!("{workload} cycle {cycles}: {}: {e}", plan.alg));
                    if traced {
                        results.push(None);
                    }
                }
            }
        }
        let game = (acc.game - game_before).as_secs_f64();
        acc.setup_per_cycle.push(setup);
        acc.cycles.push(Unit {
            rate: updates as f64 / game,
            ..Unit::default()
        });
        cycles += 1;
    }
    let untraced_wall = acc.game.as_secs_f64();
    // Read before the estimates copy samples, which the run itself did not hold.
    let rss = peak_rss_mb("self").expect("VmHWM in /proc/self/status");
    let fast = fastest_engine(&acc);
    out.set("setup_s", median(&acc.setup_per_cycle));
    out.set("throughput_mups", fast.rate / 1e6);
    eprintln!(
        "wbbench: cycle rates: {}; the fastest {} give the rate",
        describe_rates(&acc.cycles),
        fast.units
    );
    out.set("ingest_p50_ms", fast.ingest_ms.0);
    out.set("ingest_p99_ms", fast.ingest_ms.1);
    out.set("query_p50_ms", fast.query_ms.0);
    out.set("query_p99_ms", fast.query_ms.1);
    out.set("peak_rss_mb", rss);
    out.set("latency.ingest_samples", fast.ingest_samples as f64);
    out.set("latency.query_samples", fast.query_samples as f64);
    let shares: Vec<String> = acc
        .game_per_alg
        .iter()
        .map(|(alg, (d, m))| {
            let secs = d.as_secs_f64();
            let mups = *m as f64 / secs / 1e6;
            format!(
                "{alg} {:.1}% ({mups:.2} Mups)",
                100.0 * secs / untraced_wall
            )
        })
        .collect();
    eprintln!(
        "wbbench: {workload}: {cycles} cycles, {untraced_wall:.3} s of games; time shares: {}",
        shares.join(", ")
    );
    if !traced {
        return out;
    }

    let mut tr = Traced::default();
    let mut cells = results.iter();
    for cycle in 0..cycles {
        for shape in shapes {
            let plan = CellPlan::new(seed, workload, shape, cycle);
            let untraced = cells.next().expect("one result per cell");
            match (traced_cell(&plan, &mut tr), untraced) {
                (Ok(cell), Some(twin)) => {
                    if cell.report != twin.report || cell.final_space_bits != twin.final_space_bits
                    {
                        out.fail(format!(
                            "{workload} cycle {cycle}: traced {} report differs from run_source_erased",
                            plan.alg
                        ));
                    }
                }
                (Err(e), _) => out.fail(format!(
                    "{workload} cycle {cycle}: traced {}: {e}",
                    plan.alg
                )),
                (Ok(_), None) => {}
            }
        }
    }
    let secs = Duration::as_secs_f64;
    let kernel_total: f64 = tr.kernel.values().map(secs).sum();
    let attributed =
        secs(&tr.gen) + secs(&tr.observe) + kernel_total + secs(&tr.query) + secs(&tr.check);
    let traced_wall = secs(&tr.wall);
    out.set("workload.gen_s", secs(&tr.gen));
    out.set("referee.observe_s", secs(&tr.observe));
    for (alg, d) in &tr.kernel {
        out.set(kernel_metric(alg), secs(d));
    }
    out.set("sketch.query_s", secs(&tr.query));
    out.set("referee.check_s", secs(&tr.check));
    out.set("engine.checks", tr.checks as f64);
    out.set("engine.residual_s", traced_wall - attributed);
    out.set("core.aggregate_s", secs(&tr.aggregate));
    if tr.aggregated > 0 {
        out.set("core.distinct_ratio", tr.runs as f64 / tr.aggregated as f64);
    }
    out.set("crypto.pedersen_digest_ns", ns_per_call(tr.digest));
    out.set("crypto.pow_mod_ns", ns_per_call(tr.pow));
    out.set("crypto.mul_mod_ns", ns_per_call(tr.mul));
    out.set("trace.untraced_wall_s", untraced_wall);
    out.set("trace.traced_wall_s", traced_wall);
    out.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    eprintln!(
        "wbbench: split: gen {:.3} + observe {:.3} + kernel {:.3} + query {:.3} + check {:.3} \
         + residual {:.3} = traced {:.3} s; untraced {:.3} s",
        secs(&tr.gen),
        secs(&tr.observe),
        kernel_total,
        secs(&tr.query),
        secs(&tr.check),
        traced_wall - attributed,
        traced_wall,
        untraced_wall
    );
    out
}

fn kernel_metric(alg: &str) -> &'static str {
    match alg {
        "phi_eps_hh" => "sketch.kernel_s.phi_eps_hh",
        "sis_l0" => "sketch.kernel_s.sis_l0",
        "robust_hh" => "sketch.kernel_s.robust_hh",
        other => panic!("no kernel metric for {other}"),
    }
}
