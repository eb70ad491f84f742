//! Primitive costs: SHA-256, modular exponentiation, Pedersen hashing,
//! SIS column application.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wb_core::rng::TranscriptRng;
use wb_crypto::crhf::PedersenMd;
use wb_crypto::modular::pow_mod;
use wb_crypto::sha256::sha256;
use wb_crypto::sis::{SisMatrix, SisParams};

fn bench_primitives(c: &mut Criterion) {
    c.bench_function("sha256_1kb", |b| {
        let data = vec![0xABu8; 1024];
        b.iter(|| black_box(sha256(black_box(&data))))
    });

    c.bench_function("pow_mod_61bit", |b| {
        let p = (1u64 << 61) - 1;
        b.iter(|| black_box(pow_mod(black_box(123456789), black_box(p - 2), p)))
    });

    c.bench_function("pedersen_md_8words", |b| {
        let mut rng = TranscriptRng::from_seed(17);
        let md = PedersenMd::generate(40, &mut rng);
        let words = [1u64, 2, 3, 4, 5, 6, 7, 8];
        b.iter(|| black_box(md.hash_words(black_box(&words))))
    });

    c.bench_function("oracle_zq_column_d16", |b| {
        let params = SisParams {
            d: 16,
            w: 64,
            q: 1_000_003,
            beta_inf: 100,
        };
        let m = SisMatrix::from_oracle(params, b"bench");
        let mut col = vec![0u64; 16];
        b.iter(|| {
            m.column_into(black_box(3), &mut col);
            black_box(&col);
        })
    });

    c.bench_function("sis_add_scaled_column", |b| {
        let params = SisParams {
            d: 16,
            w: 64,
            q: 1_000_003,
            beta_inf: 100,
        };
        let mut rng = TranscriptRng::from_seed(18);
        let m = SisMatrix::random_explicit(params, &mut rng);
        let mut acc = vec![0u64; 16];
        b.iter(|| {
            m.add_scaled_column(black_box(7), black_box(3), &mut acc);
            black_box(acc[0])
        })
    });
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
