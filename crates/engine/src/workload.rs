//! Named workload generators, the declarative [`WorkloadSpec`] used by the
//! experiment runner, and the pull-based streaming layer ([`UpdateSource`])
//! every ingestion path in the engine is built on.
//!
//! The raw generators were born in the `bench` crate (which now delegates
//! here) so every consumer — binaries, tests, criterion benches, the
//! registry's scripted adversaries — draws from one set of streams.
//!
//! # Streaming vs materializing
//!
//! The paper's guarantees (and the lower bounds they are contrasted
//! against) are asymptotic in the stream length `m`; a harness that
//! materializes the whole stream as a `Vec<Update>` before ingesting caps
//! `m` at available RAM and spends most of its wall-clock on allocation.
//! [`WorkloadSpec::stream`] therefore produces a [`WorkloadStream`] — a
//! lazy generator that fills a caller-owned, reused chunk buffer — and
//! [`WorkloadSpec::generate`] is a thin collect wrapper kept for tests and
//! small scripts. The two are **byte-identical**: the stream drives the
//! same RNG in the same order, so concatenating chunks of any size
//! reproduces `generate()` exactly (asserted by the
//! `streaming_pipeline` proptest suite for every variant and chunk size).

use crate::erased::Update;
use wb_core::rng::{Reciprocal, TranscriptRng, Xoshiro256StarStar};
use wb_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use wb_core::stream::Turnstile;

/// Default chunk size of the streaming pipeline: the buffer length
/// [`UpdateSource::next_chunk`] falls back to when the caller's buffer has
/// no capacity, and the default of the `--chunk` CLI flag.
pub const DEFAULT_CHUNK: usize = 4096;

/// A pull-based source of erased updates — the streaming replacement for
/// materialized `Vec<Update>` preludes.
///
/// Callers own the chunk buffer and reuse it across pulls, so a whole
/// ingestion run allocates O(chunk) memory regardless of the stream length:
///
/// ```
/// use wb_engine::workload::{UpdateSource, WorkloadSpec};
///
/// let spec = WorkloadSpec::Uniform { n: 1 << 10, m: 100_000, seed: 7 };
/// let mut source = spec.stream();
/// let mut buf = Vec::with_capacity(4096); // the chunk size
/// let mut total = 0;
/// while source.next_chunk(&mut buf) > 0 {
///     total += buf.len(); // ingest the chunk...
/// }
/// assert_eq!(total, 100_000);
/// ```
pub trait UpdateSource {
    /// Clear `buf` and refill it with the next chunk of the stream: up to
    /// `buf.capacity()` updates (or [`DEFAULT_CHUNK`] if the buffer has no
    /// capacity yet). Returns the number of updates written; `0` means the
    /// source is exhausted (and stays exhausted).
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize;

    /// Exact number of updates remaining, when cheaply known. Used only to
    /// size report timeline strides — `None` never changes verdicts,
    /// rounds, or check counts, and timelines stay bounded either way (a
    /// report decimates itself when a prediction turns out wrong); only
    /// the sampling granularity can differ.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// Chunk budget for one [`UpdateSource::next_chunk`] call.
fn chunk_cap(buf: &Vec<Update>) -> usize {
    if buf.capacity() == 0 {
        DEFAULT_CHUNK
    } else {
        buf.capacity()
    }
}

/// An [`UpdateSource`] over a borrowed, already-materialized slice — the
/// bridge that lets slice-shaped callers (tests, literal scripts) drive the
/// streaming ingestion paths.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    rest: &'a [Update],
}

impl<'a> SliceSource<'a> {
    /// Stream `updates` in order, chunk by chunk.
    pub fn new(updates: &'a [Update]) -> Self {
        SliceSource { rest: updates }
    }
}

impl UpdateSource for SliceSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        buf.clear();
        let take = chunk_cap(buf).min(self.rest.len());
        buf.extend_from_slice(&self.rest[..take]);
        self.rest = &self.rest[take..];
        take
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.rest.len() as u64)
    }
}

/// An [`UpdateSource`] adapter folding every item into the universe
/// `[0, n)` by `item % n` (see [`Update::fold_into`]) — the rule the
/// tournament and the registry's scripted adversaries apply so
/// universe-bounded algorithms can ingest raw-address generators like
/// `ddos`.
#[derive(Debug, Clone)]
pub struct FoldSource<S> {
    inner: S,
    /// Precomputed reciprocal of `n`: the fold is a per-update hot path,
    /// and [`Reciprocal::rem`] is bit-identical to the `% n` it replaces.
    recip: Reciprocal,
}

impl<S: UpdateSource> FoldSource<S> {
    /// Fold `inner`'s items into `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (see [`Update::fold_into`]).
    pub fn new(inner: S, n: u64) -> Self {
        assert!(n > 0, "FoldSource requires a nonempty universe (n >= 1)");
        FoldSource {
            inner,
            recip: Reciprocal::new(n),
        }
    }
}

impl<S: Snapshot> Snapshot for FoldSource<S> {
    /// Pure delegation: the fold modulus (and its reciprocal) is
    /// construction config the restoring twin already holds.
    fn snap(&self, w: &mut SnapWriter) {
        self.inner.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore(r)
    }
}

impl<S: UpdateSource> UpdateSource for FoldSource<S> {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        let wrote = self.inner.next_chunk(buf);
        for u in buf.iter_mut() {
            *u = u.fold_with(&self.recip);
        }
        wrote
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// An [`UpdateSource`] adapter invoking a callback on every chunk before
/// handing it on — how the tournament's sharded path lets the referee
/// observe the stream in original order while the shard pipeline consumes
/// it, without a second pass or a materialized copy.
pub struct InspectSource<S, F> {
    inner: S,
    inspect: F,
}

impl<S: UpdateSource, F: FnMut(&[Update])> InspectSource<S, F> {
    /// Call `inspect` on each non-empty chunk pulled from `inner`.
    pub fn new(inner: S, inspect: F) -> Self {
        InspectSource { inner, inspect }
    }
}

impl<S: UpdateSource, F: FnMut(&[Update])> UpdateSource for InspectSource<S, F> {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        let wrote = self.inner.next_chunk(buf);
        if wrote > 0 {
            (self.inspect)(buf);
        }
        wrote
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Words fetched per refill of a [`WordTape`] — one bulk
/// [`Xoshiro256StarStar::fill_u64`] call amortized over this many scalar
/// consumptions.
const WORD_TAPE_BUF: usize = 1024;

/// The refillable word-buffer layer under [`WorkloadStream`]: a xoshiro
/// generator whose raw 64-bit words are produced in bulk (the unrolled
/// [`Xoshiro256StarStar::fill_u64`]) and consumed one at a time — or a
/// chunk at a time by the vectorized kernels — in **exactly the order** the
/// historical per-draw `TranscriptRng` consumed them. Every conversion
/// helper mirrors the `TranscriptRng` method of the same name bit for bit
/// (same seed expansion, same rejection zones, reciprocal remainder equal
/// to the hardware remainder), so each workload variant emits a
/// draw-for-draw identical stream by construction. Workload generators are
/// *environment* randomness — the white-box transcript of the algorithm
/// under test is a separate `TranscriptRng` and is untouched — so the tape
/// keeps no transcript and pays no per-draw accounting.
#[derive(Debug, Clone)]
struct WordTape {
    rng: Xoshiro256StarStar,
    buf: Vec<u64>,
    pos: usize,
    scratch: Vec<u64>,
    recip: Option<Reciprocal>,
}

impl WordTape {
    /// Seeded exactly like `TranscriptRng::from_seed`, so the raw word
    /// tape is identical.
    fn from_seed(seed: u64) -> Self {
        WordTape {
            rng: Xoshiro256StarStar::from_seed(seed),
            buf: Vec::new(),
            pos: 0,
            scratch: Vec::new(),
            recip: None,
        }
    }

    /// Next raw tape word (buffered; refilled in bulk).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == self.buf.len() {
            self.buf.resize(WORD_TAPE_BUF, 0);
            self.rng.fill_u64(&mut self.buf);
            self.pos = 0;
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    /// Fills `out` with the next raw tape words: buffered words first
    /// (they are earlier tape positions), then one direct bulk fill.
    fn fill_words(&mut self, out: &mut [u64]) {
        let buffered = self.buf.len() - self.pos;
        let take = buffered.min(out.len());
        out[..take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
        self.pos += take;
        if take < out.len() {
            self.rng.fill_u64(&mut out[take..]);
        }
    }

    /// Mirrors `TranscriptRng::next_f64` bit for bit.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Mirrors `TranscriptRng::bernoulli` bit for bit.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Cached reciprocal for modulus `n` (recomputed only on change).
    #[inline]
    fn recip_for(&mut self, n: u64) -> Reciprocal {
        match self.recip {
            Some(r) if r.n() == n => r,
            _ => {
                let r = Reciprocal::new(n);
                self.recip = Some(r);
                r
            }
        }
    }

    /// Mirrors `TranscriptRng::below` bit for bit: same power-of-two mask,
    /// same rejection zone, same word consumption.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let r = self.recip_for(n);
        loop {
            let v = self.next_u64();
            if v < r.zone() {
                return r.rem(v);
            }
        }
    }

    /// The vectorized uniform kernel: `k` draws below `n` as a reused
    /// scratch slice. Word consumption (rejections included) is identical
    /// to `k` scalar `below(n)` calls — raw words are taken in tape order,
    /// rejected words skipped, and the shortfall redrawn round by round
    /// exactly as the scalar rejection loop would.
    fn below_chunk(&mut self, n: u64, k: usize) -> &[u64] {
        assert!(n > 0, "below(0) is undefined");
        let mut s = std::mem::take(&mut self.scratch);
        s.resize(k, 0);
        if n.is_power_of_two() {
            let mask = n - 1;
            self.fill_words(&mut s);
            for v in s.iter_mut() {
                *v &= mask;
            }
        } else {
            let r = self.recip_for(n);
            self.fill_words(&mut s);
            let mut filled = 0;
            for i in 0..k {
                let v = s[i];
                if v < r.zone() {
                    s[filled] = r.rem(v);
                    filled += 1;
                }
            }
            let mut spare = [0u64; 32];
            while filled < k {
                let need = (k - filled).min(spare.len());
                self.fill_words(&mut spare[..need]);
                for &v in &spare[..need] {
                    if v < r.zone() {
                        s[filled] = r.rem(v);
                        filled += 1;
                    }
                }
            }
        }
        self.scratch = s;
        &self.scratch
    }

    /// `k` raw tape words as a reused scratch slice — for kernels doing
    /// their own conversion (the ddos address mixer).
    fn word_chunk(&mut self, k: usize) -> &[u64] {
        let mut s = std::mem::take(&mut self.scratch);
        s.resize(k, 0);
        self.fill_words(&mut s);
        self.scratch = s;
        &self.scratch
    }
}

impl Snapshot for WordTape {
    /// Layout: `rng | unconsumed buffered words`. Only the words not yet
    /// consumed (`buf[pos..]`) are captured — together with the generator
    /// state they pin the exact tape position, so a restored tape emits the
    /// same word sequence draw for draw. `scratch` and `recip` are pure
    /// caches and are rebuilt on demand.
    fn snap(&self, w: &mut SnapWriter) {
        self.rng.snap(w);
        w.put_u64_seq(&self.buf[self.pos..]);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng.restore(r)?;
        let buffered = r.take_u64_seq()?;
        if buffered.len() > WORD_TAPE_BUF {
            return Err(SnapError::corrupt(format!(
                "WordTape buffer holds {} words, max is {WORD_TAPE_BUF}",
                buffered.len()
            )));
        }
        self.buf = buffered;
        self.pos = 0;
        self.recip = None;
        Ok(())
    }
}

/// The draw interface shared by the reference generators (`TranscriptRng`)
/// and the streaming [`WordTape`], so per-update generator logic is written
/// once and consumes the same draws on both paths by construction.
trait DrawSource {
    fn next_f64(&mut self) -> f64;
    fn bernoulli(&mut self, p: f64) -> bool;
    fn below(&mut self, n: u64) -> u64;
}

impl DrawSource for TranscriptRng {
    fn next_f64(&mut self) -> f64 {
        TranscriptRng::next_f64(self)
    }
    fn bernoulli(&mut self, p: f64) -> bool {
        TranscriptRng::bernoulli(self, p)
    }
    fn below(&mut self, n: u64) -> u64 {
        TranscriptRng::below(self, n)
    }
}

impl DrawSource for WordTape {
    fn next_f64(&mut self) -> f64 {
        WordTape::next_f64(self)
    }
    fn bernoulli(&mut self, p: f64) -> bool {
        WordTape::bernoulli(self, p)
    }
    fn below(&mut self, n: u64) -> u64 {
        WordTape::below(self, n)
    }
}

/// A Zipf-flavoured insertion stream: item `i ∈ [heavy_items]` receives a
/// `~1/(i+1)`-proportional share of 70% of the mass; the rest is uniform
/// noise over `[n]`.
pub fn zipf_stream(n: u64, m: u64, heavy_items: u64, seed: u64) -> Vec<u64> {
    let mut rng = TranscriptRng::from_seed(seed);
    let sampler = ZipfSampler::new(n, heavy_items);
    (0..m).map(|_| sampler.next(&mut rng)).collect()
}

/// One Zipf draw by the historical per-draw linear CDF walk — kept as the
/// reference the precomputed [`ZipfSampler`] is pinned against (and its
/// fallback for heads too large to tabulate).
fn zipf_next<R: DrawSource>(
    rng: &mut R,
    n: u64,
    heavy_items: u64,
    weights: &[f64],
    total: f64,
) -> u64 {
    if rng.bernoulli(0.7) {
        zipf_head_walk(rng.next_f64() * total, heavy_items, weights)
    } else {
        heavy_items + rng.below(n - heavy_items)
    }
}

/// The sequential head walk: subtract weights until the residual drops
/// below the next weight. Every `u -= w` rounds, so the walk's item is a
/// function of the *floating-point* trajectory, not the real-valued CDF —
/// any replacement structure must reproduce these exact roundings.
fn zipf_head_walk(mut u: f64, heavy_items: u64, weights: &[f64]) -> u64 {
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i as u64;
        }
        u -= w;
    }
    heavy_items - 1
}

/// Largest Zipf head for which the exact threshold table is precomputed;
/// construction is O(heavy²) ulp-refined float inversions, so oversized
/// heads keep the linear walk instead.
const ZIPF_TABLE_MAX_HEAVY: u64 = 2048;
/// First-level bucket count of the threshold lookup (indexed by the top
/// bits of the 53-bit draw), a power of two.
const ZIPF_BUCKETS: usize = 1024;
/// Bits to shift a 53-bit draw right to get its bucket index.
const ZIPF_BUCKET_SHIFT: u32 = 53 - ZIPF_BUCKETS.trailing_zeros();
/// The draw grid: `next_f64` yields `k / 2^53` for a 53-bit integer `k`.
const ZIPF_GRID: f64 = (1u64 << 53) as f64;
/// The Bernoulli(0.7) coin cutoff on the draw grid: `fl(0.7)·2^53` is
/// exact (same binade, power-of-two scale), so `(word >> 11) < CUT` is
/// bit-identical to `next_f64() < 0.7`.
const ZIPF_COIN_CUT: u64 = (0.7 * ZIPF_GRID) as u64;

/// Precomputed inverse CDF of the Zipf head walk, mapping each
/// `TranscriptRng` draw to the **identical** item the linear walk returns.
///
/// Why draw-identity constrains the structure: the walk's comparisons run
/// on rounded partial sums (`u -= w` after every miss), so item boundaries
/// sit on floating-point values that differ from the real-valued CDF by
/// accumulated rounding. The table therefore stores, per head item `i`,
/// the *exact* smallest draw whose walk survives stages `0..=i` — computed
/// by inverting each `fl(x − w)` step backward with ulp refinement, taking
/// the running max across stages (the walk is monotone in its start
/// value), and snapping the result onto the 53-bit draw grid. A draw's
/// item is then the number of thresholds ≤ it: one bucket lookup (top 10
/// draw bits) plus a binary search over the rare bucket straddling more
/// than one item — O(1) typical, O(log heavy) worst case, byte-identical
/// to the walk by construction.
#[derive(Debug, Clone)]
struct ZipfSampler {
    n: u64,
    heavy: u64,
    weights: Vec<f64>,
    total: f64,
    /// `thresholds[i]` = smallest grid draw (as its 53-bit integer `k`,
    /// the draw being `k·2⁻⁵³`) with `item(k) > i`, non-decreasing;
    /// entries of `u64::MAX` mark unreachable stages. Storing the grid
    /// *integer* rather than the float keeps the per-draw lookup in pure
    /// integer compares (a draw word maps to its grid point by one shift).
    thresholds: Vec<u64>,
    /// Per-bucket `[start, end)` index range into `thresholds` that can
    /// still straddle the bucket; empty when the table is not built.
    buckets: Vec<(u32, u32)>,
}

/// Next representable `f64` above positive finite `x`.
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// Next representable `f64` below positive finite `x`.
fn ulp_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Smallest `x` with `fl(x − w) ≥ t`, for positive finite `t`, `w`. The
/// candidate `fl(t + w)` is within a couple of ulps of the answer; refine
/// by stepping, relying on the monotonicity of float subtraction.
fn min_x_sub_ge(t: f64, w: f64) -> f64 {
    let mut x = t + w;
    let mut steps = 0u32;
    while x - w < t {
        x = ulp_up(x);
        steps += 1;
        assert!(steps < 1024, "min_x_sub_ge: candidate too far below");
    }
    while x > w && ulp_down(x) - w >= t {
        x = ulp_down(x);
        steps += 1;
        assert!(steps < 1024, "min_x_sub_ge: candidate too far above");
    }
    x
}

impl ZipfSampler {
    fn new(n: u64, heavy: u64) -> Self {
        let weights: Vec<f64> = (0..heavy).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut sampler = ZipfSampler {
            n,
            heavy,
            weights,
            total,
            thresholds: Vec::new(),
            buckets: Vec::new(),
        };
        if (1..=ZIPF_TABLE_MAX_HEAVY).contains(&heavy) {
            sampler.build_table();
        }
        sampler
    }

    /// Precompute the stop thresholds and the bucket index (see the type
    /// docs for the invariants).
    fn build_table(&mut self) {
        let k = self.weights.len();
        let mut running = 0.0f64;
        let mut thresholds = Vec::with_capacity(k - 1);
        for j in 0..k - 1 {
            // Smallest start value u whose walk survives stage j
            // (`u_j ≥ w_j`), by inverting stages j−1..0 backward.
            let mut t = self.weights[j];
            for m in (0..j).rev() {
                t = min_x_sub_ge(t, self.weights[m]);
            }
            // The walk survives stages 0..=j iff it survives each; the
            // binding constraint is the running max.
            running = running.max(t);
            thresholds.push(Self::min_grid_draw(running, self.total));
        }
        let mut buckets = Vec::with_capacity(ZIPF_BUCKETS);
        for b in 0..ZIPF_BUCKETS {
            // Bucket boundaries are grid-aligned: `b/1024 = (b·2⁴³)·2⁻⁵³`.
            let left = (b as u64) << ZIPF_BUCKET_SHIFT;
            let right = (b as u64 + 1) << ZIPF_BUCKET_SHIFT;
            let s = thresholds.partition_point(|&t| t < left);
            let e = thresholds.partition_point(|&t| t < right);
            buckets.push((s as u32, e as u32));
        }
        self.thresholds = thresholds;
        self.buckets = buckets;
    }

    /// Smallest grid draw `k` (the draw being `k·2⁻⁵³`) with
    /// `fl(k·2⁻⁵³ · total) ≥ rec`, or the sentinel `u64::MAX` when no
    /// draw reaches `rec`.
    fn min_grid_draw(rec: f64, total: f64) -> u64 {
        let grid = |k: u64| k as f64 * (1.0 / ZIPF_GRID);
        let cond = |k: u64| grid(k) * total >= rec;
        let max_k = 1u64 << 53;
        let mut k = ((rec / total) * ZIPF_GRID).min(max_k as f64).max(0.0) as u64;
        let mut steps = 0u32;
        while k < max_k && !cond(k) {
            k += 1;
            steps += 1;
            assert!(steps < 1024, "min_grid_draw: guess too far below");
        }
        while k > 0 && cond(k - 1) {
            k -= 1;
            steps += 1;
            assert!(steps < 1024, "min_grid_draw: guess too far above");
        }
        if k >= max_k {
            // Unreachable even at f = 1.0⁻: never counted (draws are < 1).
            return u64::MAX;
        }
        k
    }

    /// Head item for the grid draw `k` (i.e. raw word `>> 11`): the number
    /// of thresholds ≤ `k` — one bucket lookup plus a binary search over
    /// the rare bucket straddling more than one item, all in integers.
    #[inline]
    fn head_item_bits(&self, k: u64) -> u64 {
        let (s, e) = self.buckets[(k >> ZIPF_BUCKET_SHIFT) as usize];
        let (s, e) = (s as usize, e as usize);
        (s + self.thresholds[s..e].partition_point(|&t| t <= k)) as u64
    }

    /// Head item for draw `f`: recovers the 53-bit integer grid point
    /// exactly (`f = k·2⁻⁵³`, so the rescale is lossless) and counts
    /// thresholds ≤ it.
    #[inline]
    fn head_item(&self, f: f64) -> u64 {
        self.head_item_bits((f * ZIPF_GRID) as u64)
    }

    /// One Zipf draw, consuming the same words in the same order as
    /// [`zipf_next`] and returning the same item.
    #[inline]
    fn next<R: DrawSource>(&self, rng: &mut R) -> u64 {
        if self.buckets.is_empty() {
            return zipf_next(rng, self.n, self.heavy, &self.weights, self.total);
        }
        if rng.bernoulli(0.7) {
            self.head_item(rng.next_f64())
        } else {
            self.heavy + rng.below(self.n - self.heavy)
        }
    }

    /// The vectorized chunk kernel: `k` draws appended to `buf`, consuming
    /// the exact word tape of `k` scalar [`ZipfSampler::next`] calls.
    ///
    /// Every Zipf draw consumes at least two words — the Bernoulli coin
    /// plus either the head draw or the first tail candidate — so the
    /// kernel prefetches exactly `2k` words in one bulk fill, never
    /// reaching past what these draws will consume, and tops up word by
    /// word only on the (vanishingly rare) tail rejection. Word order is
    /// the scalar order by construction: the prefetched slice *is* the
    /// next stretch of tape, read left to right.
    fn next_chunk_into(&self, tape: &mut WordTape, k: usize, buf: &mut Vec<Update>) {
        if self.buckets.is_empty() {
            for _ in 0..k {
                buf.push(Update::Insert(zipf_next(
                    tape,
                    self.n,
                    self.heavy,
                    &self.weights,
                    self.total,
                )));
            }
            return;
        }
        let mut words = std::mem::take(&mut tape.scratch);
        words.resize(2 * k, 0);
        tape.fill_words(&mut words);
        let tail = self.n - self.heavy;
        if tail == 0 {
            // Degenerate head-only universe: preserve the scalar panic on
            // the first tail draw (`below(0)`), draw by draw.
            let mut wi = 0usize;
            for _ in 0..k {
                let coin = take_word(&words, &mut wi, tape);
                assert!(
                    (coin >> 11) < ZIPF_COIN_CUT,
                    "below(0) is undefined" // the scalar tail draw panics here
                );
                let v = take_word(&words, &mut wi, tape);
                buf.push(Update::Insert(self.head_item_bits(v >> 11)));
            }
            tape.scratch = words;
            return;
        }
        let pow2 = tail.is_power_of_two();
        let mask = tail.wrapping_sub(1);
        // Hoisted reciprocal: the scalar path computes it lazily per tail
        // draw, but `tape.recip` is a pure cache (excluded from snapshots),
        // so warming it eagerly is unobservable. `Reciprocal::new(1)` is
        // well-defined, so a pow2 tail just never reads it.
        let recip = tape.recip_for(if pow2 { 1 } else { tail });
        let mut wi = 0usize;
        for _ in 0..k {
            // Head and tail consume the same value word, so a draw is a
            // fixed (coin, value) pair unless a non-pow2 tail rejects —
            // compute both interpretations and select on the coin, keeping
            // the 70/30 branch out of the pipeline.
            let coin = take_word(&words, &mut wi, tape);
            let v = take_word(&words, &mut wi, tape);
            let is_head = (coin >> 11) < ZIPF_COIN_CUT;
            let head = self.head_item_bits(v >> 11);
            let tail_raw = if pow2 { v & mask } else { recip.rem(v) };
            let mut item = if is_head { head } else { self.heavy + tail_raw };
            if !pow2 && !is_head && v >= recip.zone() {
                // Rare tail rejection: keep drawing, exactly like `below`.
                item = loop {
                    let v = take_word(&words, &mut wi, tape);
                    if v < recip.zone() {
                        break self.heavy + recip.rem(v);
                    }
                };
            }
            buf.push(Update::Insert(item));
        }
        tape.scratch = words;
    }
}

/// Next word for the zipf chunk kernel: the prefetched slice first (it is
/// the next stretch of raw tape), then — only when rejections pushed the
/// cursor past the prefetch — fresh words straight off the tape.
#[inline]
fn take_word(words: &[u64], wi: &mut usize, tape: &mut WordTape) -> u64 {
    if *wi < words.len() {
        *wi += 1;
        words[*wi - 1]
    } else {
        tape.next_u64()
    }
}

/// Synthetic IPv4 DDoS traffic: one hot /24 prefix (25%), one hot host
/// (15%), uniform noise elsewhere.
pub fn ddos_stream(m: u64, seed: u64) -> Vec<u64> {
    let mut rng = TranscriptRng::from_seed(seed);
    (0..m).map(|t| ddos_next(&mut rng, t)).collect()
}

/// One DDoS draw at stream position `t` (shared with the streaming path).
fn ddos_next(rng: &mut TranscriptRng, t: u64) -> u64 {
    match t % 20 {
        0..=4 => (10 << 24) | (1 << 16) | (7 << 8) | rng.below(256),
        5..=7 => (203 << 24) | (113 << 8) | 5,
        _ => rng.below(1 << 32),
    }
}

/// Turnstile churn: waves of insertions followed by partial deletions.
pub fn churn_stream(n: u64, waves: u64, wave_size: u64, seed: u64) -> Vec<Turnstile> {
    let mut rng = TranscriptRng::from_seed(seed);
    let mut out = Vec::with_capacity((waves * wave_size * 3 / 2) as usize);
    for _ in 0..waves {
        let base = rng.below(n);
        for i in 0..wave_size {
            out.push(Turnstile::insert((base + i * 7) % n));
        }
        for i in 0..wave_size / 2 {
            out.push(Turnstile::delete((base + i * 7) % n));
        }
    }
    out
}

/// Uniform insertions over `[n]`.
pub fn uniform_stream(n: u64, m: u64, seed: u64) -> Vec<u64> {
    let mut rng = TranscriptRng::from_seed(seed);
    (0..m).map(|_| rng.below(n)).collect()
}

/// Deterministic round-robin over `items` ids (`t % items`) — the
/// few-distinct-items worst case for `log m`-bit counters. The `t % items`
/// of the historical implementation is carried as a running wrap counter:
/// same output, no division in the per-update loop.
pub fn cycle_stream(items: u64, m: u64) -> Vec<u64> {
    let items = items.max(1);
    let mut out = Vec::with_capacity(usize::try_from(m).unwrap_or(0));
    let mut cur = 0u64;
    for _ in 0..m {
        out.push(cur);
        cur += 1;
        if cur == items {
            cur = 0;
        }
    }
    out
}

/// Declarative workload for registry-driven experiment rows.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// [`zipf_stream`] insertions.
    Zipf {
        /// Universe size.
        n: u64,
        /// Stream length.
        m: u64,
        /// Size of the Zipf head.
        heavy: u64,
        /// Generator seed.
        seed: u64,
    },
    /// [`ddos_stream`] insertions.
    Ddos {
        /// Stream length.
        m: u64,
        /// Generator seed.
        seed: u64,
    },
    /// [`churn_stream`] turnstile updates.
    Churn {
        /// Universe size.
        n: u64,
        /// Number of insert/delete waves.
        waves: u64,
        /// Insertions per wave.
        wave: u64,
        /// Generator seed.
        seed: u64,
    },
    /// [`uniform_stream`] insertions.
    Uniform {
        /// Universe size.
        n: u64,
        /// Stream length.
        m: u64,
        /// Generator seed.
        seed: u64,
    },
    /// [`cycle_stream`] insertions (`t % items`).
    Cycle {
        /// Number of distinct items.
        items: u64,
        /// Stream length.
        m: u64,
    },
    /// A literal update script.
    Script(Vec<Update>),
}

impl WorkloadSpec {
    /// The lazy, chunk-at-a-time generator for this workload, seeded from
    /// the spec's own embedded seed — the RNG derivation is exactly the one
    /// [`WorkloadSpec::generate`] uses, so concatenating the chunks (of any
    /// size) reproduces the materialized stream byte for byte.
    ///
    /// Memory is O(1) in the stream length for every generator variant;
    /// only a literal [`WorkloadSpec::Script`] keeps its updates resident
    /// (it *is* the materialized form).
    pub fn stream(&self) -> WorkloadStream {
        let state = match self {
            WorkloadSpec::Zipf { n, m, heavy, seed } => StreamState::Zipf {
                tape: WordTape::from_seed(*seed),
                sampler: ZipfSampler::new(*n, *heavy),
                remaining: *m,
            },
            WorkloadSpec::Ddos { m, seed } => StreamState::Ddos {
                tape: WordTape::from_seed(*seed),
                t: 0,
                m: *m,
            },
            WorkloadSpec::Churn {
                n,
                waves,
                wave,
                seed,
            } => StreamState::Churn {
                tape: WordTape::from_seed(*seed),
                n: *n,
                step7: if *n == 0 { 0 } else { 7 % *n },
                wave: *wave,
                waves_left: *waves,
                base: 0,
                phase: ChurnPhase::NextWave,
            },
            WorkloadSpec::Uniform { n, m, seed } => StreamState::Uniform {
                tape: WordTape::from_seed(*seed),
                n: *n,
                remaining: *m,
            },
            WorkloadSpec::Cycle { items, m } => StreamState::Cycle {
                items: (*items).max(1),
                t: 0,
                m: *m,
                cur: 0,
            },
            WorkloadSpec::Script(v) => StreamState::Script {
                script: v.clone(),
                pos: 0,
            },
        };
        WorkloadStream { state }
    }

    /// Materialize the update stream — a thin collect over
    /// [`WorkloadSpec::stream`], kept for tests and small literal scripts.
    /// Large-`m` callers should pull chunks from the stream instead.
    pub fn generate(&self) -> Vec<Update> {
        if let WorkloadSpec::Script(v) = self {
            // A script already is its materialized form; skip the pull
            // loop's two extra copies.
            return v.clone();
        }
        let mut source = self.stream();
        let mut out = Vec::with_capacity(self.len().min(1 << 20) as usize);
        let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
        while source.next_chunk(&mut buf) > 0 {
            out.extend_from_slice(&buf);
        }
        out
    }

    /// Nominal stream length before generation.
    pub fn len(&self) -> u64 {
        match self {
            WorkloadSpec::Zipf { m, .. }
            | WorkloadSpec::Ddos { m, .. }
            | WorkloadSpec::Uniform { m, .. }
            | WorkloadSpec::Cycle { m, .. } => *m,
            WorkloadSpec::Churn { waves, wave, .. } => waves * (wave + wave / 2),
            WorkloadSpec::Script(v) => v.len() as u64,
        }
    }

    /// `true` iff the workload has no updates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same workload capped at roughly `cap` updates — the `--quick`
    /// smoke mode of the experiment runner.
    pub fn capped(&self, cap: u64) -> WorkloadSpec {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::Zipf { m, .. }
            | WorkloadSpec::Ddos { m, .. }
            | WorkloadSpec::Uniform { m, .. }
            | WorkloadSpec::Cycle { m, .. } => *m = (*m).min(cap),
            WorkloadSpec::Churn { waves, wave, .. } => {
                while *waves > 1 && *waves * (*wave + *wave / 2) > cap {
                    *waves /= 2;
                }
                while *wave > 1 && *waves * (*wave + *wave / 2) > cap {
                    *wave /= 2;
                }
            }
            WorkloadSpec::Script(v) => v.truncate(cap as usize),
        }
        w
    }

    /// The same workload resized to roughly `m` updates (up or down) — how
    /// the `--prelude-m` CLI flag rescales declarative rows without
    /// touching their other parameters. A literal script cannot grow; it is
    /// truncated like [`WorkloadSpec::capped`].
    pub fn resized(&self, m: u64) -> WorkloadSpec {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::Zipf { m: len, .. }
            | WorkloadSpec::Ddos { m: len, .. }
            | WorkloadSpec::Uniform { m: len, .. }
            | WorkloadSpec::Cycle { m: len, .. } => *len = m,
            WorkloadSpec::Churn { waves, wave, .. } => {
                *waves = (m / (*wave + *wave / 2).max(1)).max(1);
            }
            WorkloadSpec::Script(v) => v.truncate(m as usize),
        }
        w
    }

    /// Short name for report lines.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadSpec::Zipf { .. } => "zipf",
            WorkloadSpec::Ddos { .. } => "ddos",
            WorkloadSpec::Churn { .. } => "churn",
            WorkloadSpec::Uniform { .. } => "uniform",
            WorkloadSpec::Cycle { .. } => "cycle",
            WorkloadSpec::Script(_) => "script",
        }
    }
}

/// Where a churn stream is inside its wave state machine. `Insert` and
/// `Delete` carry the position `i` and the precomputed item
/// `(base + 7·i) % n`, maintained incrementally (add the precomputed
/// `7 % n`, conditional wrap) so the per-update modulo of the historical
/// implementation disappears while the emitted walk stays identical.
#[derive(Debug, Clone, Copy)]
enum ChurnPhase {
    /// Draw the next wave's base (or finish if no waves remain).
    NextWave,
    /// Emitting insertion `i` of the current wave, at item `cur`.
    Insert(u64, u64),
    /// Emitting deletion `i` of the current wave, at item `cur`.
    Delete(u64, u64),
}

#[derive(Debug, Clone)]
enum StreamState {
    Zipf {
        tape: WordTape,
        sampler: ZipfSampler,
        remaining: u64,
    },
    Ddos {
        tape: WordTape,
        t: u64,
        m: u64,
    },
    Churn {
        tape: WordTape,
        n: u64,
        /// Precomputed `7 % n`: the stride of the wave walk.
        step7: u64,
        wave: u64,
        waves_left: u64,
        base: u64,
        phase: ChurnPhase,
    },
    Uniform {
        tape: WordTape,
        n: u64,
        remaining: u64,
    },
    Cycle {
        items: u64,
        t: u64,
        m: u64,
        /// Running `t % items` wrap counter (no division per update).
        cur: u64,
    },
    Script {
        script: Vec<Update>,
        pos: usize,
    },
}

/// The lazy generator behind [`WorkloadSpec::stream`]: an [`UpdateSource`]
/// holding only the generator's RNG/position state, never the stream.
///
/// Since the bulk-kernel rework, every variant consumes pre-filled raw
/// words from a `WordTape` in the same order as the historical scalar
/// draws; uniform, ddos, cycle, and script chunks are produced by
/// vectorized kernels, zipf and churn by the shared per-draw logic over
/// the buffered tape.
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    state: StreamState,
}

impl WorkloadStream {
    /// Updates not yet emitted.
    fn remaining(&self) -> u64 {
        match &self.state {
            StreamState::Zipf { remaining, .. } | StreamState::Uniform { remaining, .. } => {
                *remaining
            }
            StreamState::Ddos { t, m, .. } | StreamState::Cycle { t, m, .. } => {
                m.saturating_sub(*t)
            }
            StreamState::Churn {
                wave,
                waves_left,
                phase,
                ..
            } => {
                let per_wave = wave + wave / 2;
                let in_wave = match phase {
                    ChurnPhase::NextWave => 0,
                    ChurnPhase::Insert(i, _) => per_wave.saturating_sub(*i),
                    ChurnPhase::Delete(i, _) => (wave / 2).saturating_sub(*i),
                };
                waves_left * per_wave + in_wave
            }
            StreamState::Script { script, pos } => script.len().saturating_sub(*pos) as u64,
        }
    }
}

/// Variant tag used in [`WorkloadStream`] snapshot frames.
fn stream_tag(state: &StreamState) -> u8 {
    match state {
        StreamState::Zipf { .. } => 0,
        StreamState::Ddos { .. } => 1,
        StreamState::Churn { .. } => 2,
        StreamState::Uniform { .. } => 3,
        StreamState::Cycle { .. } => 4,
        StreamState::Script { .. } => 5,
    }
}

/// Human label for a variant tag, for mismatch diagnostics.
fn tag_label(tag: u8) -> &'static str {
    match tag {
        0 => "zipf",
        1 => "ddos",
        2 => "churn",
        3 => "uniform",
        4 => "cycle",
        5 => "script",
        _ => "unknown",
    }
}

impl Snapshot for WorkloadStream {
    /// Layout: `variant tag | config params | position state | tape`.
    ///
    /// Restore targets a twin built from the **same [`WorkloadSpec`]**:
    /// configuration parameters are validated (wrong spec ⇒
    /// [`SnapError::Mismatch`]), position state and the word tape are
    /// overwritten, so the resumed stream emits exactly the updates the
    /// snapshotted one had left — draw for draw, independent of how either
    /// side chunked its pulls.
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(stream_tag(&self.state));
        match &self.state {
            StreamState::Zipf {
                tape,
                sampler,
                remaining,
            } => {
                w.put_u64(sampler.n);
                w.put_u64(sampler.heavy);
                w.put_u64(*remaining);
                tape.snap(w);
            }
            StreamState::Ddos { tape, t, m } => {
                w.put_u64(*m);
                w.put_u64(*t);
                tape.snap(w);
            }
            StreamState::Churn {
                tape,
                n,
                wave,
                waves_left,
                base,
                phase,
                ..
            } => {
                w.put_u64(*n);
                w.put_u64(*wave);
                w.put_u64(*waves_left);
                w.put_u64(*base);
                match *phase {
                    ChurnPhase::NextWave => w.put_u8(0),
                    ChurnPhase::Insert(i, cur) => {
                        w.put_u8(1);
                        w.put_u64(i);
                        w.put_u64(cur);
                    }
                    ChurnPhase::Delete(i, cur) => {
                        w.put_u8(2);
                        w.put_u64(i);
                        w.put_u64(cur);
                    }
                }
                tape.snap(w);
            }
            StreamState::Uniform { tape, n, remaining } => {
                w.put_u64(*n);
                w.put_u64(*remaining);
                tape.snap(w);
            }
            StreamState::Cycle { items, t, m, cur } => {
                w.put_u64(*items);
                w.put_u64(*m);
                w.put_u64(*t);
                w.put_u64(*cur);
            }
            StreamState::Script { script, pos } => {
                w.put_u64(script.len() as u64);
                w.put_usize(*pos);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.take_u8()?;
        let own = stream_tag(&self.state);
        if tag != own {
            return Err(SnapError::mismatch(tag_label(own), tag_label(tag)));
        }
        match &mut self.state {
            StreamState::Zipf {
                tape,
                sampler,
                remaining,
            } => {
                let (sn, sheavy) = (r.take_u64()?, r.take_u64()?);
                if sn != sampler.n || sheavy != sampler.heavy {
                    return Err(SnapError::mismatch(
                        format!("zipf(n={}, heavy={})", sampler.n, sampler.heavy),
                        format!("zipf(n={sn}, heavy={sheavy})"),
                    ));
                }
                *remaining = r.take_u64()?;
                tape.restore(r)
            }
            StreamState::Ddos { tape, t, m } => {
                let sm = r.take_u64()?;
                if sm != *m {
                    return Err(SnapError::mismatch(
                        format!("ddos(m={m})"),
                        format!("ddos(m={sm})"),
                    ));
                }
                let st = r.take_u64()?;
                if st > *m {
                    return Err(SnapError::corrupt(format!("ddos position {st} > m {m}")));
                }
                *t = st;
                tape.restore(r)
            }
            StreamState::Churn {
                tape,
                n,
                wave,
                waves_left,
                base,
                phase,
                ..
            } => {
                let (sn, swave) = (r.take_u64()?, r.take_u64()?);
                if sn != *n || swave != *wave {
                    return Err(SnapError::mismatch(
                        format!("churn(n={n}, wave={wave})"),
                        format!("churn(n={sn}, wave={swave})"),
                    ));
                }
                *waves_left = r.take_u64()?;
                let sbase = r.take_u64()?;
                if sbase >= *n {
                    return Err(SnapError::corrupt(format!("churn base {sbase} >= n {n}")));
                }
                *base = sbase;
                *phase = match r.take_u8()? {
                    0 => ChurnPhase::NextWave,
                    ptag @ (1 | 2) => {
                        let (i, cur) = (r.take_u64()?, r.take_u64()?);
                        let bound = if ptag == 1 { *wave } else { *wave / 2 };
                        if i > bound || cur >= *n {
                            return Err(SnapError::corrupt(format!(
                                "churn phase {ptag} position (i={i}, cur={cur}) out of range"
                            )));
                        }
                        if ptag == 1 {
                            ChurnPhase::Insert(i, cur)
                        } else {
                            ChurnPhase::Delete(i, cur)
                        }
                    }
                    other => {
                        return Err(SnapError::corrupt(format!("unknown churn phase {other}")))
                    }
                };
                tape.restore(r)
            }
            StreamState::Uniform { tape, n, remaining } => {
                let sn = r.take_u64()?;
                if sn != *n {
                    return Err(SnapError::mismatch(
                        format!("uniform(n={n})"),
                        format!("uniform(n={sn})"),
                    ));
                }
                *remaining = r.take_u64()?;
                tape.restore(r)
            }
            StreamState::Cycle { items, t, m, cur } => {
                let (sitems, sm) = (r.take_u64()?, r.take_u64()?);
                if sitems != *items || sm != *m {
                    return Err(SnapError::mismatch(
                        format!("cycle(items={items}, m={m})"),
                        format!("cycle(items={sitems}, m={sm})"),
                    ));
                }
                let (st, scur) = (r.take_u64()?, r.take_u64()?);
                if st > *m || scur >= *items {
                    return Err(SnapError::corrupt(format!(
                        "cycle position (t={st}, cur={scur}) out of range"
                    )));
                }
                *t = st;
                *cur = scur;
                Ok(())
            }
            StreamState::Script { script, pos } => {
                let slen = r.take_u64()?;
                if slen != script.len() as u64 {
                    return Err(SnapError::mismatch(
                        format!("script(len={})", script.len()),
                        format!("script(len={slen})"),
                    ));
                }
                let spos = r.take_usize()?;
                if spos > script.len() {
                    return Err(SnapError::corrupt(format!(
                        "script position {spos} > len {}",
                        script.len()
                    )));
                }
                *pos = spos;
                Ok(())
            }
        }
    }
}

/// Chunk budget left for a generator with `left` updates remaining.
#[inline]
fn take_of(cap: usize, len: usize, left: u64) -> usize {
    debug_assert!(len <= cap);
    usize::try_from(left).unwrap_or(usize::MAX).min(cap - len)
}

impl UpdateSource for WorkloadStream {
    fn next_chunk(&mut self, buf: &mut Vec<Update>) -> usize {
        buf.clear();
        let cap = chunk_cap(buf);
        match &mut self.state {
            StreamState::Zipf {
                tape,
                sampler,
                remaining,
            } => {
                let k = take_of(cap, 0, *remaining);
                sampler.next_chunk_into(tape, k, buf);
                *remaining -= k as u64;
            }
            StreamState::Ddos { tape, t, m } => {
                let k = take_of(cap, 0, m.saturating_sub(*t));
                // Phases 5..=7 of the 20-step pattern draw no word. Count
                // the words this chunk needs, bulk-fill exactly that many,
                // then mix addresses — one word per drawing position, in
                // tape order, exactly as the scalar `ddos_next` consumed
                // them (both its `below` calls are power-of-two masks).
                let mut phase = (*t % 20) as u32;
                let mut draws = 0usize;
                let mut ph = phase;
                for _ in 0..k {
                    if !(5..=7).contains(&ph) {
                        draws += 1;
                    }
                    ph += 1;
                    if ph == 20 {
                        ph = 0;
                    }
                }
                let words = tape.word_chunk(draws);
                let mut wi = 0;
                for _ in 0..k {
                    let item = match phase {
                        0..=4 => {
                            let w = words[wi];
                            wi += 1;
                            (10 << 24) | (1 << 16) | (7 << 8) | (w & 255)
                        }
                        5..=7 => (203 << 24) | (113 << 8) | 5,
                        _ => {
                            let w = words[wi];
                            wi += 1;
                            w & 0xFFFF_FFFF
                        }
                    };
                    buf.push(Update::Insert(item));
                    phase += 1;
                    if phase == 20 {
                        phase = 0;
                    }
                }
                *t += k as u64;
            }
            StreamState::Churn {
                tape,
                n,
                step7,
                wave,
                waves_left,
                base,
                phase,
            } => loop {
                if buf.len() == cap {
                    break;
                }
                match *phase {
                    ChurnPhase::NextWave => {
                        if *waves_left == 0 {
                            break;
                        }
                        *waves_left -= 1;
                        *base = tape.below(*n);
                        *phase = ChurnPhase::Insert(0, *base);
                    }
                    ChurnPhase::Insert(i, cur) => {
                        if i < *wave {
                            let mut next = cur + *step7;
                            if next >= *n {
                                next -= *n;
                            }
                            *phase = ChurnPhase::Insert(i + 1, next);
                            buf.push(Update::from(Turnstile::insert(cur)));
                        } else {
                            *phase = ChurnPhase::Delete(0, *base);
                        }
                    }
                    ChurnPhase::Delete(i, cur) => {
                        if i < *wave / 2 {
                            let mut next = cur + *step7;
                            if next >= *n {
                                next -= *n;
                            }
                            *phase = ChurnPhase::Delete(i + 1, next);
                            buf.push(Update::from(Turnstile::delete(cur)));
                        } else {
                            *phase = ChurnPhase::NextWave;
                        }
                    }
                }
            },
            StreamState::Uniform { tape, n, remaining } => {
                let k = take_of(cap, 0, *remaining);
                buf.extend(tape.below_chunk(*n, k).iter().map(|&v| Update::Insert(v)));
                *remaining -= k as u64;
            }
            StreamState::Cycle { items, t, m, cur } => {
                let k = take_of(cap, 0, m.saturating_sub(*t));
                let mut c = *cur;
                for _ in 0..k {
                    buf.push(Update::Insert(c));
                    c += 1;
                    if c == *items {
                        c = 0;
                    }
                }
                *cur = c;
                *t += k as u64;
            }
            StreamState::Script { script, pos } => {
                let take = cap.min(script.len() - *pos);
                buf.extend_from_slice(&script[*pos..*pos + take]);
                *pos += take;
            }
        }
        buf.len()
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.remaining())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_has_heavy_head() {
        let s = zipf_stream(1 << 16, 20_000, 8, 1);
        let head = s.iter().filter(|&&i| i == 0).count();
        assert!(head > 3_000, "head count {head}");
        assert_eq!(s.len(), 20_000);
    }

    #[test]
    fn zipf_sampler_matches_cdf_walk_draw_for_draw() {
        // The inverse-CDF table must map every draw to the item the linear
        // walk would have produced, consuming the same words.
        for &(n, heavy, seed) in &[
            (1u64 << 16, 64u64, 1u64),
            (1 << 16, 64, 97),
            (1 << 12, 1, 5),
            (1 << 10, 16, 7),
            (257, 8, 11),
            (1 << 10, 512, 3),
        ] {
            let sampler = ZipfSampler::new(n, heavy);
            assert!(!sampler.buckets.is_empty(), "table expected for {heavy}");
            let mut fast = WordTape::from_seed(seed);
            let mut slow = WordTape::from_seed(seed);
            for t in 0..20_000u64 {
                let a = sampler.next(&mut fast);
                let b = zipf_next(&mut slow, n, heavy, &sampler.weights, sampler.total);
                assert_eq!(a, b, "n={n} heavy={heavy} seed={seed} draw {t}");
            }
            // Equal word consumption ⇒ the tapes are still in lock-step.
            assert_eq!(fast.next_u64(), slow.next_u64());
        }
    }

    #[test]
    fn zipf_sampler_head_exact_on_grid() {
        // `next_f64` only ever produces k/2^53; the table must agree with
        // the walk at every stored threshold, one grid step below it, and
        // on a pseudorandom sample of grid points.
        let sampler = ZipfSampler::new(1 << 12, 64);
        let grid = |k: u64| k as f64 * (1.0 / ZIPF_GRID);
        let check = |f: f64| {
            let walked = zipf_head_walk(f * sampler.total, sampler.heavy, &sampler.weights);
            assert_eq!(sampler.head_item(f), walked, "f = {f}");
        };
        for &t in &sampler.thresholds {
            if t == u64::MAX {
                continue; // sentinel: unreachable within [0, 1)
            }
            check(grid(t));
            if t > 0 {
                check(grid(t - 1));
            }
        }
        let mut x = 0x243F_6A88_85A3_08D3u64; // pseudorandom grid probes
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            check(grid(x >> 11));
        }
    }

    #[test]
    fn zipf_sampler_falls_back_for_oversized_head() {
        // Above the table cap construction would be quadratic in `heavy`;
        // the sampler must delegate to the walk instead, identically.
        let (n, heavy) = (1u64 << 14, ZIPF_TABLE_MAX_HEAVY + 1);
        let sampler = ZipfSampler::new(n, heavy);
        assert!(sampler.buckets.is_empty());
        let mut fast = WordTape::from_seed(13);
        let mut slow = WordTape::from_seed(13);
        for _ in 0..2_000 {
            assert_eq!(
                sampler.next(&mut fast),
                zipf_next(&mut slow, n, heavy, &sampler.weights, sampler.total)
            );
        }
        assert_eq!(fast.next_u64(), slow.next_u64());
    }

    #[test]
    fn ddos_stream_shares() {
        let s = ddos_stream(20_000, 2);
        let subnet = s
            .iter()
            .filter(|&&ip| ip >> 8 == (10 << 16) | (1 << 8) | 7)
            .count();
        assert!((4000..6000).contains(&subnet), "subnet share {subnet}");
    }

    #[test]
    fn churn_stream_shape() {
        let s = churn_stream(1 << 10, 4, 100, 3);
        assert_eq!(s.len(), 4 * 150);
        assert!(s.iter().any(|u| u.delta < 0));
    }

    #[test]
    fn specs_generate_and_cap() {
        let spec = WorkloadSpec::Zipf {
            n: 1 << 12,
            m: 4096,
            heavy: 4,
            seed: 9,
        };
        assert_eq!(spec.generate().len(), 4096);
        assert_eq!(spec.capped(100).generate().len(), 100);
        assert_eq!(spec.label(), "zipf");

        let churn = WorkloadSpec::Churn {
            n: 256,
            waves: 8,
            wave: 64,
            seed: 1,
        };
        assert_eq!(churn.len(), 8 * 96);
        assert!(churn.capped(100).len() <= 100 + 96);
        assert!(churn
            .generate()
            .iter()
            .any(|u| matches!(u, Update::Turnstile { delta, .. } if *delta < 0)));

        let cyc = WorkloadSpec::Cycle { items: 3, m: 9 };
        assert_eq!(cyc.generate()[4], Update::Insert(1));
        assert!(!cyc.is_empty());
    }

    #[test]
    fn stream_matches_raw_generators_byte_for_byte() {
        // The streaming path must reproduce the original materialized
        // generators exactly — same RNG, same order — for every variant.
        let (n, m, seed) = (1 << 10, 1000, 17);
        let cases: Vec<(WorkloadSpec, Vec<Update>)> = vec![
            (
                WorkloadSpec::Zipf {
                    n,
                    m,
                    heavy: 8,
                    seed,
                },
                zipf_stream(n, m, 8, seed)
                    .into_iter()
                    .map(Update::Insert)
                    .collect(),
            ),
            (
                WorkloadSpec::Ddos { m, seed },
                ddos_stream(m, seed)
                    .into_iter()
                    .map(Update::Insert)
                    .collect(),
            ),
            (
                WorkloadSpec::Churn {
                    n,
                    waves: 7,
                    wave: 64,
                    seed,
                },
                churn_stream(n, 7, 64, seed)
                    .into_iter()
                    .map(Update::from)
                    .collect(),
            ),
            (
                WorkloadSpec::Uniform { n, m, seed },
                uniform_stream(n, m, seed)
                    .into_iter()
                    .map(Update::Insert)
                    .collect(),
            ),
            (
                WorkloadSpec::Cycle { items: 5, m },
                cycle_stream(5, m).into_iter().map(Update::Insert).collect(),
            ),
        ];
        for (spec, reference) in cases {
            assert_eq!(spec.generate(), reference, "{}", spec.label());
            // Chunked pulls concatenate to the same stream.
            let mut source = spec.stream();
            assert_eq!(source.len_hint(), Some(reference.len() as u64));
            let mut got = Vec::new();
            let mut buf = Vec::with_capacity(7);
            while source.next_chunk(&mut buf) > 0 {
                got.extend_from_slice(&buf);
            }
            assert_eq!(got, reference, "{} chunked", spec.label());
            assert_eq!(source.len_hint(), Some(0));
        }
    }

    #[test]
    fn slice_and_fold_and_inspect_sources() {
        let updates: Vec<Update> = (0..10).map(Update::Insert).collect();
        let mut buf = Vec::with_capacity(4);
        let mut source = SliceSource::new(&updates);
        assert_eq!(source.len_hint(), Some(10));
        assert_eq!(source.next_chunk(&mut buf), 4);
        assert_eq!(buf, updates[..4]);
        assert_eq!(source.len_hint(), Some(6));

        let mut folded = FoldSource::new(SliceSource::new(&updates), 3);
        folded.next_chunk(&mut buf);
        assert_eq!(buf[..4], [0, 1, 2, 0].map(Update::Insert));

        let mut seen = 0usize;
        let mut inspected = InspectSource::new(SliceSource::new(&updates), |chunk: &[Update]| {
            seen += chunk.len();
        });
        while inspected.next_chunk(&mut buf) > 0 {}
        assert_eq!(seen, 10);
    }

    #[test]
    fn zero_capacity_buffer_falls_back_to_default_chunk() {
        let spec = WorkloadSpec::Cycle {
            items: 3,
            m: DEFAULT_CHUNK as u64 + 10,
        };
        let mut source = spec.stream();
        let mut buf = Vec::new();
        assert_eq!(source.next_chunk(&mut buf), DEFAULT_CHUNK);
        assert_eq!(source.next_chunk(&mut buf), 10);
        assert_eq!(source.next_chunk(&mut buf), 0);
    }

    /// All workload variants at a small, draw-heavy size, for cross-variant
    /// snapshot and len_hint sweeps.
    fn all_specs() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Zipf {
                n: 1 << 10,
                m: 500,
                heavy: 8,
                seed: 21,
            },
            WorkloadSpec::Ddos { m: 500, seed: 22 },
            WorkloadSpec::Churn {
                n: 300,
                waves: 5,
                wave: 64,
                seed: 23,
            },
            WorkloadSpec::Uniform {
                n: 1000,
                m: 500,
                seed: 24,
            },
            WorkloadSpec::Cycle { items: 7, m: 500 },
            WorkloadSpec::Script((0..500).map(Update::Insert).collect()),
        ]
    }

    #[test]
    fn len_hint_tracks_remaining_after_partial_consumption() {
        // The satellite-3 audit contract: len_hint is the count REMAINING,
        // not the original total, at every point of a partially consumed
        // stream — including streams produced by resized().
        for spec in all_specs() {
            let total = spec.len();
            let mut source = spec.stream();
            assert_eq!(source.len_hint(), Some(total), "{} fresh", spec.label());
            let mut buf = Vec::with_capacity(64);
            let mut consumed = 0u64;
            while source.next_chunk(&mut buf) > 0 {
                consumed += buf.len() as u64;
                assert_eq!(
                    source.len_hint(),
                    Some(total - consumed),
                    "{} after {consumed} updates",
                    spec.label()
                );
            }
            assert_eq!(source.len_hint(), Some(0), "{} drained", spec.label());
        }
    }

    #[test]
    fn len_hint_on_resized_streams_reports_new_total_minus_consumed() {
        let spec = WorkloadSpec::Uniform {
            n: 1 << 10,
            m: 100,
            seed: 5,
        };
        let resized = spec.resized(1000);
        let mut source = resized.stream();
        assert_eq!(source.len_hint(), Some(1000), "resized total, not original");
        let mut buf = Vec::with_capacity(64);
        source.next_chunk(&mut buf);
        assert_eq!(
            source.len_hint(),
            Some(1000 - buf.len() as u64),
            "resized remaining after a pull"
        );
    }

    #[test]
    fn stream_snapshot_resumes_draw_for_draw() {
        // Snapshot mid-stream at an offset that is NOT chunk-aligned (so
        // the word tape holds buffered words), restore into a twin built
        // from the same spec, and check the twin emits exactly the updates
        // the original had left — including a correct len_hint.
        for spec in all_specs() {
            let reference = spec.generate();
            let mut source = spec.stream();
            let mut buf = Vec::with_capacity(13);
            let mut consumed = 0usize;
            while consumed < 200 {
                let wrote = source.next_chunk(&mut buf);
                assert!(wrote > 0);
                consumed += wrote;
            }
            let frame = wb_core::snap::to_bytes(&source);
            let mut twin = spec.stream();
            wb_core::snap::from_bytes(&mut twin, &frame).unwrap();
            assert_eq!(
                twin.len_hint(),
                Some(reference.len() as u64 - consumed as u64),
                "{} resumed len_hint",
                spec.label()
            );
            let mut got = Vec::new();
            let mut buf2 = Vec::with_capacity(31);
            while twin.next_chunk(&mut buf2) > 0 {
                got.extend_from_slice(&buf2);
            }
            assert_eq!(got, reference[consumed..], "{} resumed tail", spec.label());
        }
    }

    #[test]
    fn stream_snapshot_rejects_wrong_spec() {
        let uniform = WorkloadSpec::Uniform {
            n: 1000,
            m: 100,
            seed: 1,
        };
        let frame = wb_core::snap::to_bytes(&uniform.stream());
        // Wrong variant.
        let mut cycle = WorkloadSpec::Cycle { items: 3, m: 100 }.stream();
        assert!(matches!(
            wb_core::snap::from_bytes(&mut cycle, &frame),
            Err(SnapError::Mismatch { .. })
        ));
        // Same variant, different universe.
        let mut other = WorkloadSpec::Uniform {
            n: 2000,
            m: 100,
            seed: 1,
        }
        .stream();
        assert!(matches!(
            wb_core::snap::from_bytes(&mut other, &frame),
            Err(SnapError::Mismatch { .. })
        ));
    }

    #[test]
    fn resized_rescales_every_variant() {
        let zipf = WorkloadSpec::Zipf {
            n: 1 << 10,
            m: 100,
            heavy: 4,
            seed: 1,
        };
        assert_eq!(zipf.resized(5000).len(), 5000);
        let churn = WorkloadSpec::Churn {
            n: 256,
            waves: 2,
            wave: 64,
            seed: 1,
        };
        let grown = churn.resized(10_000);
        assert!(grown.len() >= 10_000 - 96 && grown.len() <= 10_000 + 96);
        let script = WorkloadSpec::Script((0..50).map(Update::Insert).collect());
        assert_eq!(script.resized(10).len(), 10, "scripts cannot grow");
    }
}
