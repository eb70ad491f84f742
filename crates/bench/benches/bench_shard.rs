//! Sharded vs single-stream ingestion throughput — the cost gauge for the
//! `wb_engine::shard` path. Measures one logical stream ingested (a)
//! single-stream through `process_batch_dyn` and (b) partitioned across 4
//! shard instances on the caller's thread. The (a)→(b) gap is the
//! partition + merge overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wb_core::rng::TranscriptRng;
use wb_engine::registry::{self, Params};
use wb_engine::shard::{ingest_sharded, Partition, ShardConfig};
use wb_engine::workload::zipf_stream;
use wb_engine::Update;

const M: u64 = 1 << 18;
const BATCH: usize = 1 << 10;

fn workload(n: u64) -> Vec<Update> {
    zipf_stream(n, M, 8, 97)
        .into_iter()
        .map(Update::Insert)
        .collect()
}

fn bench_sharded_ingestion(c: &mut Criterion) {
    let params = Params::default().with_n(1 << 12);
    let stream = workload(params.n);

    for alg in ["count_min", "misra_gries", "space_saving"] {
        let mut g = c.benchmark_group(&format!("shard_{alg}"));
        g.bench_function("single_stream", |b| {
            b.iter(|| {
                let mut a = registry::get(alg, &params).unwrap();
                let mut rng = TranscriptRng::from_seed(1);
                for chunk in stream.chunks(BATCH) {
                    a.process_batch_dyn(chunk, &mut rng).unwrap();
                }
                black_box(a.query_dyn())
            })
        });
        g.bench_function("shards_4", |b| {
            b.iter(|| {
                let cfg = ShardConfig {
                    shards: 4,
                    partition: Partition::Hash,
                    batch: BATCH,
                    master_seed: 1,
                };
                let out = ingest_sharded(&|_| registry::get(alg, &params), &stream, &cfg).unwrap();
                black_box(out.merged.query_dyn())
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_sharded_ingestion);
criterion_main!(benches);
