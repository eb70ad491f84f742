//! The fluent game builder — the single typed entry point for driving a
//! white-box adversarial game.
//!
//! ```
//! use wb_engine::{Game, RecordingObserver};
//! use wb_core::game::{FnReferee, ScriptAdversary, Verdict};
//! use wb_core::stream::InsertOnly;
//! use wb_sketch::MisraGries;
//!
//! let script: Vec<InsertOnly> = (0..500).map(|t| InsertOnly(t % 4)).collect();
//! let mut timeline = RecordingObserver::new();
//! let report = Game::new(MisraGries::new(0.1, 1 << 10))
//!     .adversary(ScriptAdversary::new(script))
//!     .referee(FnReferee::new(|_t, _out: &Vec<(u64, f64)>| Verdict::Correct))
//!     .max_rounds(500)
//!     .seed(7)
//!     .observer(&mut timeline)
//!     .run();
//! assert!(report.survived());
//! assert_eq!(report.result.rounds, 500);
//! assert_eq!(timeline.rounds.len(), 500);
//! ```
//!
//! Two stream sources share one builder: an adaptive
//! [`WhiteBoxAdversary`] plays one update per round, and an oblivious
//! stream ([`Game::stream`], or [`Game::script`] for a materialized one)
//! is ingested in [`Game::batch`]-sized chunks. Either way [`Observer`]
//! hooks see every update and check, and the game returns a structured
//! [`GameReport`] with space/verdict timelines.

use crate::report::GameReport;
use wb_core::game::{Referee, Verdict, WhiteBoxAdversary};
use wb_core::rng::{RandTranscript, TranscriptRng};
use wb_core::space::SpaceUsage;
use wb_core::stream::StreamAlg;

/// Default round cap when [`Game::max_rounds`] is not called: generous for
/// experiments, finite so an adversary that never stops cannot hang a run.
pub const DEFAULT_MAX_ROUNDS: u64 = 1 << 20;

/// Per-round hook into an engine-driven game.
///
/// All methods have no-op defaults; implement what you need. Observers are
/// usually attached by mutable reference ([`Game::observer`] accepts
/// `&mut O`) so the caller keeps the collected data after the game.
pub trait Observer<A: StreamAlg> {
    /// Called for every update before the algorithm processes it.
    fn on_update(&mut self, t: u64, update: &A::Update) {
        let _ = (t, update);
    }

    /// Called after every referee check (per round in the adaptive game,
    /// per batch boundary under batched ingestion).
    fn on_round(&mut self, t: u64, output: &A::Output, verdict: &Verdict, space_bits: u64) {
        let _ = (t, output, verdict, space_bits);
    }
}

/// The do-nothing default observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl<A: StreamAlg> Observer<A> for NullObserver {}

impl<A: StreamAlg, O: Observer<A>> Observer<A> for &mut O {
    fn on_update(&mut self, t: u64, update: &A::Update) {
        (**self).on_update(t, update);
    }

    fn on_round(&mut self, t: u64, output: &A::Output, verdict: &Verdict, space_bits: u64) {
        (**self).on_round(t, output, verdict, space_bits);
    }
}

/// One checked round as seen by a [`RecordingObserver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round index (1-indexed update count at the check).
    pub t: u64,
    /// `space_bits()` after the round.
    pub space_bits: u64,
    /// Whether the referee accepted the answer.
    pub correct: bool,
}

/// An [`Observer`] that records every checked round's space and verdict —
/// the full-resolution counterpart of the strided timeline in
/// [`GameReport`].
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// One record per referee check, in order.
    pub rounds: Vec<RoundRecord>,
}

impl RecordingObserver {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<A: StreamAlg> Observer<A> for RecordingObserver {
    fn on_round(&mut self, t: u64, _output: &A::Output, verdict: &Verdict, space_bits: u64) {
        self.rounds.push(RoundRecord {
            t,
            space_bits,
            correct: verdict.is_correct(),
        });
    }
}

/// Placeholder adversary for a builder whose stream source has not been
/// chosen yet (or is an oblivious stream): it ends the stream immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdversary;

impl<A: StreamAlg> WhiteBoxAdversary<A> for NoAdversary {
    fn next_update(
        &mut self,
        _t: u64,
        _alg: &A,
        _transcript: &RandTranscript,
        _last_output: Option<&A::Output>,
    ) -> Option<A::Update> {
        None
    }
}

/// Referee that accepts every answer — the default until
/// [`Game::referee`] is called (throughput and attack-demo runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl<A: StreamAlg> Referee<A> for AcceptAll {
    fn observe(&mut self, _update: &A::Update) {}

    fn check(&mut self, _t: u64, _output: &A::Output) -> Verdict {
        Verdict::Correct
    }
}

enum Driver<U, Adv> {
    Adversary(Adv),
    /// A pull-based update stream: the prelude is generated (or read) lazily
    /// and ingested in `batch`-sized chunks through one reused buffer, so
    /// memory stays O(batch) for any stream length.
    Stream(Box<dyn Iterator<Item = U>>),
}

/// Fluent builder for one white-box adversarial game.
///
/// `Game::new(alg)` starts with no adversary (empty stream), an accept-all
/// referee, [`DEFAULT_MAX_ROUNDS`], seed 0, a null observer, and batch
/// size 1. Each setter returns the builder; [`Game::run`] plays the game
/// and returns a [`GameReport`]; [`Game::play`] additionally hands back the
/// algorithm for post-game inspection.
pub struct Game<A: StreamAlg, Adv, R, O> {
    alg: A,
    driver: Driver<A::Update, Adv>,
    referee: R,
    observer: O,
    max_rounds: u64,
    seed: u64,
    batch: usize,
}

impl<A: StreamAlg> Game<A, NoAdversary, AcceptAll, NullObserver> {
    /// Start building a game around `alg`.
    pub fn new(alg: A) -> Self {
        Game {
            alg,
            driver: Driver::Adversary(NoAdversary),
            referee: AcceptAll,
            observer: NullObserver,
            max_rounds: DEFAULT_MAX_ROUNDS,
            seed: 0,
            batch: 1,
        }
    }
}

impl<A: StreamAlg, Adv, R, O> Game<A, Adv, R, O> {
    /// Set the white-box adversary (the adaptive stream source).
    pub fn adversary<Adv2>(self, adversary: Adv2) -> Game<A, Adv2, R, O>
    where
        Adv2: WhiteBoxAdversary<A>,
    {
        Game {
            alg: self.alg,
            driver: Driver::Adversary(adversary),
            referee: self.referee,
            observer: self.observer,
            max_rounds: self.max_rounds,
            seed: self.seed,
            batch: self.batch,
        }
    }

    /// Use a fixed, oblivious update script as the stream source: a
    /// [`Game::stream`] over the script's elements, so script games may
    /// ingest in batches ([`Game::batch`]) through the algorithms'
    /// optimized [`StreamAlg::process_batch`] path.
    pub fn script(self, updates: Vec<A::Update>) -> Game<A, NoAdversary, R, O>
    where
        A::Update: 'static,
    {
        self.stream(updates.into_iter())
    }

    /// Use a lazy, pull-based update stream as the oblivious stream source:
    /// updates are drawn on demand and ingested in [`Game::batch`]-sized
    /// chunks through one reused buffer, so the game's memory is O(batch)
    /// regardless of the stream length — the typed mirror of the engine's
    /// chunked prelude pipeline. Verdicts, rounds, and check counts do not
    /// depend on the iterator's `size_hint`; the report's timeline
    /// *sampling stride* is derived from it, so an inexact hint can sample
    /// at different rounds (the timeline self-bounds either way).
    pub fn stream(
        self,
        updates: impl Iterator<Item = A::Update> + 'static,
    ) -> Game<A, NoAdversary, R, O> {
        Game {
            alg: self.alg,
            driver: Driver::Stream(Box::new(updates)),
            referee: self.referee,
            observer: self.observer,
            max_rounds: self.max_rounds,
            seed: self.seed,
            batch: self.batch,
        }
    }

    /// Set the referee holding ground truth.
    pub fn referee<R2>(self, referee: R2) -> Game<A, Adv, R2, O>
    where
        R2: Referee<A>,
    {
        Game {
            alg: self.alg,
            driver: self.driver,
            referee,
            observer: self.observer,
            max_rounds: self.max_rounds,
            seed: self.seed,
            batch: self.batch,
        }
    }

    /// Attach an observer (commonly `&mut RecordingObserver`).
    pub fn observer<O2>(self, observer: O2) -> Game<A, Adv, R, O2>
    where
        O2: Observer<A>,
    {
        Game {
            alg: self.alg,
            driver: self.driver,
            referee: self.referee,
            observer,
            max_rounds: self.max_rounds,
            seed: self.seed,
            batch: self.batch,
        }
    }

    /// Cap the number of rounds (default [`DEFAULT_MAX_ROUNDS`]).
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Set the algorithm's public random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chunk size for script and stream ingestion (default 1 — check
    /// after every update, exactly the per-round game). Ignored for
    /// adaptive adversaries, which force one update per round by nature.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

impl<A, Adv, R, O> Game<A, Adv, R, O>
where
    A: StreamAlg + SpaceUsage,
    Adv: WhiteBoxAdversary<A>,
    R: Referee<A>,
    O: Observer<A>,
{
    /// Play the game, returning the structured report.
    pub fn run(self) -> GameReport {
        self.play().0
    }

    /// Play the game, returning the report and the final algorithm state
    /// (for post-game inspection of answers or internals).
    pub fn play(mut self) -> (GameReport, A) {
        let mut rng = TranscriptRng::from_seed(self.seed);
        let expected_checks = match &self.driver {
            Driver::Adversary(_) => self.max_rounds,
            Driver::Stream(iter) => {
                let (lo, hi) = iter.size_hint();
                (hi.unwrap_or(lo).max(lo) as u64)
                    .min(self.max_rounds)
                    .div_ceil(self.batch as u64)
            }
        };
        let mut report = GameReport::new(self.alg.space_bits(), expected_checks);
        let mut t = 0u64;
        match self.driver {
            Driver::Adversary(mut adversary) => {
                let mut last: Option<A::Output> = None;
                for round in 1..=self.max_rounds {
                    let update = match adversary.next_update(
                        round,
                        &self.alg,
                        rng.transcript(),
                        last.as_ref(),
                    ) {
                        Some(u) => u,
                        None => break,
                    };
                    self.observer.on_update(round, &update);
                    self.referee.observe(&update);
                    self.alg.process(&update, &mut rng);
                    t = round;
                    let space = self.alg.space_bits();
                    let output = self.alg.query();
                    let verdict = self.referee.check(t, &output);
                    self.observer.on_round(t, &output, &verdict, space);
                    report.record_check(t, space, &verdict);
                    if !verdict.is_correct() {
                        break;
                    }
                    last = Some(output);
                }
            }
            Driver::Stream(mut iter) => {
                // Pull-based chunked ingestion: one reused buffer, refilled
                // lazily — the stream is never materialized.
                let mut buf: Vec<A::Update> = Vec::with_capacity(self.batch);
                'stream: while t < self.max_rounds {
                    buf.clear();
                    let want = self.batch.min((self.max_rounds - t) as usize);
                    while buf.len() < want {
                        match iter.next() {
                            Some(u) => buf.push(u),
                            None => break,
                        }
                    }
                    if buf.is_empty() {
                        break 'stream;
                    }
                    for (k, update) in buf.iter().enumerate() {
                        self.observer.on_update(t + 1 + k as u64, update);
                        self.referee.observe(update);
                    }
                    self.alg.process_batch(&buf, &mut rng);
                    t += buf.len() as u64;
                    let space = self.alg.space_bits();
                    let output = self.alg.query();
                    let verdict = self.referee.check(t, &output);
                    self.observer.on_round(t, &output, &verdict, space);
                    report.record_check(t, space, &verdict);
                    if !verdict.is_correct() {
                        break 'stream;
                    }
                }
            }
        }
        report.finish(t, self.alg.space_bits());
        (report, self.alg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::game::{FnAdversary, FnReferee, ScriptAdversary};
    use wb_core::referee::HeavyHitterReferee;
    use wb_core::space::bits_for_count;
    use wb_core::stream::InsertOnly;
    use wb_sketch::{MisraGries, RobustL1HeavyHitters};

    struct ExactCounter(u64);
    impl StreamAlg for ExactCounter {
        type Update = InsertOnly;
        type Output = u64;
        fn process(&mut self, _u: &InsertOnly, _rng: &mut TranscriptRng) {
            self.0 += 1;
        }
        fn query(&self) -> u64 {
            self.0
        }
    }
    impl SpaceUsage for ExactCounter {
        fn space_bits(&self) -> u64 {
            bits_for_count(self.0)
        }
    }

    fn count_referee() -> FnReferee<impl FnMut(u64, &u64) -> Verdict> {
        FnReferee::new(|t: u64, out: &u64| {
            if *out == t {
                Verdict::Correct
            } else {
                Verdict::violation(format!("expected {t}, got {out}"))
            }
        })
    }

    /// A "leaky" randomized counter that adds a random word to its state and
    /// is wrong as soon as the adversary predicts that word — a toy showing
    /// the white-box view in action.
    struct LeakyCounter {
        count: u64,
        pad: u64,
    }
    impl StreamAlg for LeakyCounter {
        type Update = InsertOnly;
        type Output = u64;
        fn process(&mut self, u: &InsertOnly, rng: &mut TranscriptRng) {
            // The counter wrongly trusts the update value whenever the item
            // equals its current pad (an adversary-reachable trap state);
            // the pad is then redrawn, so only a state-observing adversary
            // can hit the trap reliably.
            if u.0 == self.pad % 1000 {
                self.count += 2;
            } else {
                self.count += 1;
            }
            self.pad = rng.next_u64();
        }
        fn query(&self) -> u64 {
            self.count
        }
    }
    impl SpaceUsage for LeakyCounter {
        fn space_bits(&self) -> u64 {
            bits_for_count(self.count) + 64
        }
    }

    #[test]
    fn adversary_game_survives_a_short_script() {
        let report = Game::new(ExactCounter(0))
            .adversary(ScriptAdversary::new(vec![InsertOnly(0); 100]))
            .referee(count_referee())
            .max_rounds(1_000)
            .seed(1)
            .run();
        assert!(report.survived());
        assert_eq!(report.result.rounds, 100);
        assert_eq!(report.checks, 100);
        assert!(report.result.peak_space_bits >= bits_for_count(100));
    }

    #[test]
    fn white_box_adversary_beats_leaky_counter() {
        // The adversary reads the pad from the algorithm's state (white-box!)
        // and sends exactly the item that triggers the double count.
        let report = Game::new(LeakyCounter { count: 0, pad: 0 })
            .adversary(FnAdversary::new(
                |_t: u64, alg: &LeakyCounter, _tr: &RandTranscript, _last: Option<&u64>| {
                    Some(InsertOnly(alg.pad % 1000))
                },
            ))
            .referee(count_referee())
            .max_rounds(1_000)
            .seed(2)
            .run();
        assert!(
            !report.survived(),
            "adversary should exploit the state leak"
        );
        // First adaptive exploitation is possible from round 2 onward (pad is
        // drawn during round 1).
        let failure = report.result.failure.unwrap();
        assert!(
            failure.round <= 10,
            "exploit should land almost immediately"
        );
    }

    #[test]
    fn blind_adversary_rarely_beats_leaky_counter_quickly() {
        // The same trap state exists, but a script adversary cannot see the
        // pad; hitting `pad % 1000` blindly is a 1/1000-per-round event.
        let report = Game::new(LeakyCounter { count: 0, pad: 0 })
            .adversary(ScriptAdversary::new(vec![InsertOnly(1); 20]))
            .referee(count_referee())
            .max_rounds(20)
            .seed(3)
            .run();
        // With this fixed seed, 20 blind rounds never hit the trap.
        assert!(report.survived());
        assert_eq!(report.result.rounds, 20);
    }

    #[test]
    fn builder_stops_at_first_violation() {
        let report = Game::new(ExactCounter(0))
            .adversary(ScriptAdversary::new(vec![InsertOnly(0); 100]))
            .referee(FnReferee::new(|_t, out: &u64| {
                if *out <= 5 {
                    Verdict::Correct
                } else {
                    Verdict::violation("count exceeded 5")
                }
            }))
            .max_rounds(100)
            .run();
        assert_eq!(report.result.rounds, 6);
        assert_eq!(report.result.failure.as_ref().unwrap().round, 6);
    }

    #[test]
    fn script_mode_with_batching_matches_per_round_final_state() {
        let script: Vec<InsertOnly> = (0..512u64).map(|t| InsertOnly(t % 7)).collect();
        let (r1, a1) = Game::new(MisraGries::new(0.2, 1 << 10))
            .script(script.clone())
            .referee(HeavyHitterReferee::new(0.2, 0.2))
            .seed(5)
            .play();
        let (r2, a2) = Game::new(MisraGries::new(0.2, 1 << 10))
            .script(script)
            .referee(HeavyHitterReferee::new(0.2, 0.2))
            .seed(5)
            .batch(64)
            .play();
        assert!(r1.survived() && r2.survived());
        assert_eq!(r1.result.rounds, r2.result.rounds);
        assert_eq!(a1.entries(), a2.entries());
        assert_eq!(r1.checks, 512);
        assert_eq!(r2.checks, 8);
    }

    #[test]
    fn stream_driver_matches_script_driver() {
        // A lazily-pulled stream must play exactly like its materialized
        // script: same rounds, same checks, same final algorithm state.
        let script: Vec<InsertOnly> = (0..777u64).map(|t| InsertOnly(t % 9)).collect();
        let (rs, a_script) = Game::new(MisraGries::new(0.2, 1 << 10))
            .script(script.clone())
            .referee(HeavyHitterReferee::new(0.2, 0.2))
            .seed(3)
            .batch(64)
            .play();
        let (rt, a_stream) = Game::new(MisraGries::new(0.2, 1 << 10))
            .stream((0..777u64).map(|t| InsertOnly(t % 9)))
            .referee(HeavyHitterReferee::new(0.2, 0.2))
            .seed(3)
            .batch(64)
            .play();
        assert!(rs.survived() && rt.survived());
        assert_eq!(rs.result.rounds, rt.result.rounds);
        assert_eq!(rs.checks, rt.checks);
        assert_eq!(a_script.entries(), a_stream.entries());

        // max_rounds truncates a stream mid-pull.
        let report = Game::new(MisraGries::new(0.2, 1 << 10))
            .stream((0..).map(|t: u64| InsertOnly(t % 9)))
            .max_rounds(100)
            .batch(32)
            .run();
        assert_eq!(report.result.rounds, 100);
    }

    #[test]
    fn observer_sees_every_check_and_update() {
        let mut obs = RecordingObserver::new();
        let report = Game::new(ExactCounter(0))
            .adversary(ScriptAdversary::new(vec![InsertOnly(0); 50]))
            .referee(count_referee())
            .max_rounds(100)
            .observer(&mut obs)
            .run();
        assert_eq!(obs.rounds.len(), 50);
        assert!(obs.rounds.iter().all(|r| r.correct));
        assert_eq!(obs.rounds.last().unwrap().t, 50);
        assert_eq!(report.checks, 50);
    }

    #[test]
    fn white_box_adversary_through_builder() {
        // The builder preserves the full white-box view: an adversary
        // reading the answering instance's tracked items still works.
        let (report, alg) = Game::new(RobustL1HeavyHitters::new(1 << 10, 0.25))
            .adversary(FnAdversary::new(
                |_t,
                 alg: &RobustL1HeavyHitters,
                 _tr: &RandTranscript,
                 _l: Option<&Vec<(u64, f64)>>| {
                    let tracked = alg.answering().inner().entries();
                    Some(InsertOnly(if tracked.is_empty() { 1 } else { 2 }))
                },
            ))
            .referee(HeavyHitterReferee::new(0.25, 0.25).with_grace(32))
            .max_rounds(2_000)
            .seed(11)
            .play();
        assert!(report.survived(), "failed: {:?}", report.result.failure);
        assert_eq!(report.result.rounds, 2_000);
        assert!(alg.t_hat() > 0.0);
    }

    #[test]
    fn default_driver_plays_zero_rounds() {
        let report = Game::new(ExactCounter(0)).run();
        assert_eq!(report.result.rounds, 0);
        assert!(report.survived());
    }
}
