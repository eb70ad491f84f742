//! The streaming-pipeline contract: pull-based chunked generation is
//! **byte-identical** to the materialized path, end to end.
//!
//! * `WorkloadSpec::stream()` chunk-concatenation equals `generate()` for
//!   every workload variant and for chunk sizes {1, 7, 4096};
//! * sharded ingestion through the streaming pipeline matches the
//!   classic materialized-bucket dataflow (`partition_updates` +
//!   per-bucket batched ingest + reduction-tree merge) bit for bit, for
//!   both partition rules;
//! * the tournament's report is invariant under the transport chunk size.

use proptest::prelude::*;
use wbstream::core::rng::TranscriptRng;
use wbstream::engine::registry::{self, Params};
use wbstream::engine::shard::{
    ingest_sharded_source, merge_reduce, partition_updates, Partition, ShardConfig,
};
use wbstream::engine::workload::UpdateSource;
use wbstream::engine::{DynStreamAlg, Update, WorkloadSpec};

/// Every generator variant at proptest-friendly sizes, plus a literal
/// script. `m` perturbs the stream length, `seed` the tape.
fn variants(m: u64, seed: u64) -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Zipf {
            n: 1 << 10,
            m,
            heavy: 8,
            seed,
        },
        WorkloadSpec::Ddos { m, seed },
        WorkloadSpec::Churn {
            n: 1 << 10,
            waves: (m / 96).max(1),
            wave: 64,
            seed,
        },
        WorkloadSpec::Uniform {
            n: 1 << 10,
            m,
            seed,
        },
        WorkloadSpec::Cycle { items: 8, m },
        WorkloadSpec::Script((0..m).map(|t| Update::Insert(t % 37)).collect()),
    ]
}

/// Concatenate `spec.stream()` pulled with a buffer of capacity `chunk`.
fn concat_chunks(spec: &WorkloadSpec, chunk: usize) -> Vec<Update> {
    let mut source = spec.stream();
    let mut out = Vec::new();
    let mut buf = Vec::with_capacity(chunk);
    while source.next_chunk(&mut buf) > 0 {
        assert!(
            buf.len() <= chunk,
            "chunk overflow: {} > {chunk}",
            buf.len()
        );
        out.extend_from_slice(&buf);
    }
    out
}

/// The historical materialized-bucket sharded dataflow, kept here as the
/// reference the streaming shard pipeline is checked against.
fn ingest_bucketed(
    name: &str,
    params: &Params,
    updates: &[Update],
    cfg: &ShardConfig,
) -> Box<dyn DynStreamAlg> {
    let buckets = partition_updates(updates, cfg.shards, cfg.partition);
    let mut instances = Vec::new();
    for (i, bucket) in buckets.iter().enumerate() {
        let mut alg = registry::get(name, params).unwrap();
        let mut rng = TranscriptRng::from_seed(cfg.shard_seed(i));
        for chunk in bucket.chunks(cfg.batch.max(1)) {
            alg.process_batch_dyn(chunk, &mut rng).unwrap();
        }
        instances.push(alg);
    }
    merge_reduce(instances).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stream_concatenation_equals_generate_for_every_variant(
        m in 1u64..1200,
        seed in 0u64..10_000,
    ) {
        for spec in variants(m, seed) {
            let reference = spec.generate();
            prop_assert_eq!(reference.len() as u64, spec.len(), "{}", spec.label());
            for chunk in [1usize, 7, 4096] {
                let streamed = concat_chunks(&spec, chunk);
                prop_assert_eq!(
                    &streamed,
                    &reference,
                    "{} diverges at chunk {}",
                    spec.label(),
                    chunk
                );
            }
        }
    }

    #[test]
    fn sharded_pipeline_matches_materialized_buckets(
        m in 64u64..3000,
        seed in 0u64..1000,
        batch in 1usize..300,
        shards in 2usize..6,
    ) {
        let spec = WorkloadSpec::Zipf { n: 1 << 10, m, heavy: 4, seed };
        let updates = spec.generate();
        let params = Params::default().with_n(1 << 10);
        for name in ["misra_gries", "count_min"] {
            for partition in [Partition::Hash, Partition::RoundRobin] {
                let cfg = ShardConfig {
                    shards,
                    partition,
                    batch,
                    master_seed: 5,
                };
                let reference = ingest_bucketed(name, &params, &updates, &cfg);
                let ctor = |_: usize| registry::get(name, &params);
                let out = ingest_sharded_source(&ctor, &mut spec.stream(), &cfg).unwrap();
                prop_assert_eq!(
                    out.merged.query_dyn(),
                    reference.query_dyn(),
                    "{} {:?} diverged from buckets",
                    name, partition
                );
                prop_assert_eq!(
                    out.merged.space_bits_dyn(),
                    reference.space_bits_dyn()
                );
                prop_assert_eq!(out.stats.total() as usize, updates.len());
            }
        }
    }
}

#[test]
fn tournament_report_is_invariant_under_chunk_size() {
    use wbstream::engine::tournament::{run_tournament, TournamentConfig};
    let with_chunk = |batch: usize, shards: usize| {
        let mut cfg = TournamentConfig::default().quick();
        cfg.master_seed = 0xC0FFEE;
        cfg.threads = 2;
        cfg.prelude_m = 384;
        cfg.rounds = 96;
        cfg.batch = batch;
        cfg.shards = shards;
        cfg
    };
    for shards in [1usize, 4] {
        let small = run_tournament(&with_chunk(32, shards)).json_lines();
        let large = run_tournament(&with_chunk(1024, shards)).json_lines();
        assert!(!small.is_empty());
        assert_eq!(
            small, large,
            "shards {shards}: chunk size leaked into the report"
        );
    }
}

#[test]
fn streamed_prelude_is_len_bounded_not_materialized() {
    // Smoke-check the O(chunk) claim structurally: a 2^20-update stream
    // pulled through a 256-slot buffer never grows the buffer.
    let spec = WorkloadSpec::Uniform {
        n: 1 << 16,
        m: 1 << 20,
        seed: 3,
    };
    let mut source = spec.stream();
    let mut buf = Vec::with_capacity(256);
    let mut total = 0u64;
    while source.next_chunk(&mut buf) > 0 {
        total += buf.len() as u64;
        assert!(buf.capacity() == 256, "buffer grew: {}", buf.capacity());
    }
    assert_eq!(total, 1 << 20);
}
