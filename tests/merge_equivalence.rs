//! Merge equivalence: for every `Mergeable` registry algorithm, sharded
//! ingestion (partition across S instances, batched per-shard ingest,
//! deterministic reduction-tree merge) must answer within the **same
//! referee guarantee** as single-stream ingestion of the identical update
//! sequence — for 1, 2, 4, and 8 shards and both partition rules. The
//! linear sketches are held to the stronger bar of exact answer equality
//! (their merge is addition, so nothing may drift at all).

use proptest::prelude::*;
use wbstream::core::rng::TranscriptRng;
use wbstream::engine::registry::{self, Params};
use wbstream::engine::shard::{ingest_sharded, probe_mergeable, Partition, ShardConfig};
use wbstream::engine::{Answer, RefereeSpec, Update};

/// Mergeable registry algorithms whose merge is exact (linear state):
/// sharded answers must equal single-stream answers bit-for-bit.
const LINEAR: &[&str] = &["count_min", "ams_f2", "exact_l0"];

/// Mergeable counter summaries: sharded answers drift within the
/// mergeable-summaries error bound and are checked against the same
/// heavy-hitter referee guarantee as single-stream ingestion.
const COUNTER: &[&str] = &["misra_gries", "space_saving"];

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn params() -> Params {
    Params::default().with_n(64).with_m_guess(1 << 10)
}

/// Ingest single-stream through the same batched erased path the shard
/// pipeline uses (same chunking, same derived shard-0 seed), so the only
/// difference under test is partitioning + merging.
fn single_answer(name: &str, updates: &[Update], cfg: &ShardConfig) -> Answer {
    let p = params();
    let mut alg = registry::get(name, &p).unwrap();
    let mut rng = TranscriptRng::from_seed(cfg.shard_seed(0));
    for chunk in updates.chunks(cfg.batch) {
        alg.process_batch_dyn(chunk, &mut rng)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    alg.query_dyn()
}

fn sharded_answer(name: &str, updates: &[Update], cfg: &ShardConfig) -> Answer {
    let p = params();
    let out = ingest_sharded(&|_| registry::get(name, &p), updates, cfg)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    out.merged.query_dyn()
}

/// The referee guarding the counter summaries' guarantee, matching the
/// tournament's calibration.
fn hh_referee() -> RefereeSpec {
    let p = params();
    RefereeSpec::HeavyHitters {
        eps: p.eps,
        tol: p.eps,
        phi: None,
        grace: 64,
    }
}

fn shard_config(shards: usize, partition: Partition, seed: u64) -> ShardConfig {
    ShardConfig {
        shards,
        partition,
        batch: 128,
        master_seed: seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn linear_sketches_merge_exactly(
        items in proptest::collection::vec(0u64..64, 64..400),
        seed in 0u64..1000,
    ) {
        let updates: Vec<Update> = items.iter().map(|&i| Update::Insert(i)).collect();
        for name in LINEAR {
            for shards in SHARD_COUNTS {
                for partition in [Partition::Hash, Partition::RoundRobin] {
                    let cfg = shard_config(shards, partition, seed);
                    assert_eq!(
                        sharded_answer(name, &updates, &cfg),
                        single_answer(name, &updates, &cfg),
                        "{name} diverged at {shards} shards ({partition:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_turnstile_sketches_merge_exactly_with_deletions(
        raw in proptest::collection::vec((0u64..64, -3i64..=3), 64..300),
        seed in 0u64..1000,
    ) {
        let updates: Vec<Update> = raw
            .iter()
            .map(|&(item, delta)| Update::Turnstile {
                item,
                delta: if delta == 0 { 1 } else { delta },
            })
            .collect();
        for name in ["ams_f2", "exact_l0"] {
            for shards in SHARD_COUNTS {
                let cfg = shard_config(shards, Partition::RoundRobin, seed);
                assert_eq!(
                    sharded_answer(name, &updates, &cfg),
                    single_answer(name, &updates, &cfg),
                    "{name} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn counter_summaries_merge_within_the_referee_guarantee(
        items in proptest::collection::vec(0u64..64, 100..400),
        hot_share in 2u64..5,
        seed in 0u64..1000,
    ) {
        // Plant a genuinely heavy item so the coverage clause has teeth.
        let updates: Vec<Update> = items
            .iter()
            .enumerate()
            .map(|(j, &i)| {
                Update::Insert(if (j as u64).is_multiple_of(hot_share) {
                    7
                } else {
                    i
                })
            })
            .collect();
        for name in COUNTER {
            for shards in SHARD_COUNTS {
                for partition in [Partition::Hash, Partition::RoundRobin] {
                    let cfg = shard_config(shards, partition, seed);
                    let merged = sharded_answer(name, &updates, &cfg);
                    let single = single_answer(name, &updates, &cfg);
                    let t = updates.len() as u64;
                    for (label, answer) in [("merged", &merged), ("single", &single)] {
                        let mut referee = hh_referee().build();
                        referee.observe_batch(&updates);
                        let verdict = referee.check(t, answer);
                        assert!(
                            verdict.is_correct(),
                            "{name} {label} answer violates the guarantee at \
                             {shards} shards ({partition:?}): {verdict:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_registry_algorithm_has_a_definite_merge_story() {
    // The mergeable set is exactly LINEAR ∪ COUNTER; everything else in the
    // registry refuses with a typed error rather than merging unsoundly.
    let p = params();
    let mergeable: Vec<&str> = LINEAR.iter().chain(COUNTER).copied().collect();
    for name in registry::names() {
        let ctor = |_: usize| registry::get(name, &p);
        let probed = probe_mergeable(&ctor).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            probed,
            mergeable.contains(&name),
            "{name}: mergeability drifted from the documented set"
        );
    }
}
