//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use std::sync::OnceLock;
use wbstream::core::rng::TranscriptRng;
use wbstream::core::space::SpaceUsage;
use wbstream::crypto::crhf::{PedersenMd, PedersenParams};
use wbstream::crypto::modular::{add_mod, balanced, inv_mod, mul_mod, pow_mod, sub_mod};
use wbstream::crypto::prime::{factorize, is_prime};
use wbstream::crypto::sha256::{sha256, Sha256};
use wbstream::crypto::sis::{SisMatrix, SisParams};
use wbstream::sketch::PhiEpsHeavyHitters;

const P61: u64 = (1 << 61) - 1;

proptest! {
    #[test]
    fn add_mod_is_commutative_and_associative(a in 0..P61, b in 0..P61, c in 0..P61) {
        prop_assert_eq!(add_mod(a, b, P61), add_mod(b, a, P61));
        prop_assert_eq!(
            add_mod(add_mod(a, b, P61), c, P61),
            add_mod(a, add_mod(b, c, P61), P61)
        );
    }

    #[test]
    fn sub_mod_inverts_add_mod(a in 0..P61, b in 0..P61) {
        prop_assert_eq!(sub_mod(add_mod(a, b, P61), b, P61), a);
    }

    #[test]
    fn mul_mod_distributes_over_add(a in 0..P61, b in 0..P61, c in 0..P61) {
        let lhs = mul_mod(a, add_mod(b, c, P61), P61);
        let rhs = add_mod(mul_mod(a, b, P61), mul_mod(a, c, P61), P61);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn pow_mod_addition_law(a in 1..P61, e1 in 0u64..1000, e2 in 0u64..1000) {
        // a^(e1+e2) = a^e1 · a^e2
        prop_assert_eq!(
            pow_mod(a, e1 + e2, P61),
            mul_mod(pow_mod(a, e1, P61), pow_mod(a, e2, P61), P61)
        );
    }

    #[test]
    fn inverse_roundtrip(a in 1..P61) {
        let inv = inv_mod(a, P61).expect("prime modulus");
        prop_assert_eq!(mul_mod(a, inv, P61), 1);
        prop_assert_eq!(inv_mod(inv, P61), Some(a));
    }

    #[test]
    fn balanced_lift_roundtrip(x in 0..P61) {
        let b = balanced(x, P61);
        prop_assert!(b.unsigned_abs() <= P61 / 2 + 1);
        let back = b.rem_euclid(P61 as i64) as u64;
        prop_assert_eq!(back, x);
    }

    #[test]
    fn factorization_reassembles_and_is_prime(n in 2u64..1_000_000_000) {
        let fs = factorize(n);
        let product: u64 = fs.iter().map(|&(p, e)| p.pow(e)).product();
        prop_assert_eq!(product, n);
        for (p, _) in fs {
            prop_assert!(is_prime(p), "{p} not prime");
        }
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..500),
                                         split in 0usize..500) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_distinguishes_any_flip(data in proptest::collection::vec(any::<u8>(), 1..100),
                                     idx in 0usize..100, bit in 0u8..8) {
        let idx = idx % data.len();
        let mut tweaked = data.clone();
        tweaked[idx] ^= 1 << bit;
        prop_assert_ne!(sha256(&data), sha256(&tweaked));
    }

    #[test]
    fn sis_apply_is_linear(seed in 0u64..1000,
                           x in proptest::collection::vec(-3i64..=3, 6),
                           y in proptest::collection::vec(-3i64..=3, 6)) {
        let params = SisParams { d: 3, w: 6, q: 1_000_003, beta_inf: 10 };
        let mut rng = TranscriptRng::from_seed(seed);
        let m = SisMatrix::random_explicit(params, &mut rng);
        let ax = m.apply(&x);
        let ay = m.apply(&y);
        let sum: Vec<i64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let asum = m.apply(&sum);
        for i in 0..3 {
            prop_assert_eq!(asum[i], add_mod(ax[i], ay[i], params.q));
        }
    }

    #[test]
    fn oracle_and_explicit_columns_stay_in_range(j in 0usize..16) {
        let params = SisParams { d: 4, w: 16, q: 97, beta_inf: 2 };
        let m = SisMatrix::from_oracle(params, b"prop");
        for v in m.column(j) {
            prop_assert!(v < 97);
        }
    }
}

/// One Pedersen CRHF per safe-prime size `34..=62` bits, generated once for
/// the whole file.
fn pedersen_by_size() -> &'static [PedersenMd] {
    static ALL: OnceLock<Vec<PedersenMd>> = OnceLock::new();
    ALL.get_or_init(|| {
        (34..=62u32)
            .map(|bits| {
                let mut rng = TranscriptRng::from_seed(0xC0DE ^ u64::from(bits));
                PedersenMd::generate(bits, &mut rng)
            })
            .collect()
    })
}

/// The compression function by its definition: two square-and-multiply
/// powers.
fn reference_compress(p: &PedersenParams, x1: u64, x2: u64) -> u64 {
    mul_mod(pow_mod(p.g, x1, p.p), pow_mod(p.h, x2, p.p), p.p)
}

/// The Merkle–Damgård chain of `hash_bytes` by its definition: bytes
/// packed big-endian into a word vector with the byte length appended,
/// each word absorbed as two 32-bit halves, a word-count block, and an
/// unfolded final compression.
fn reference_hash_bytes(p: &PedersenParams, data: &[u8]) -> u64 {
    let mut words: Vec<u64> = data
        .chunks(8)
        .map(|c| c.iter().fold(0u64, |w, &b| (w << 8) | u64::from(b)))
        .collect();
    words.push(data.len() as u64);
    let mut state = 1 % p.q;
    for &w in &words {
        state = reference_compress(p, state, w >> 32) % p.q;
        state = reference_compress(p, state, w & 0xFFFF_FFFF) % p.q;
    }
    state = reference_compress(p, state, words.len() as u64 & 0xFFFF_FFFF) % p.q;
    reference_compress(p, state, 0x5A5A_5A5A)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pedersen_tables_equal_pow_mod_at_every_size(x1 in any::<u64>(), x2 in any::<u64>()) {
        for md in pedersen_by_size() {
            let h = md.inner();
            let p = h.params();
            // In range, as the Merkle–Damgård chain calls it…
            let (a, b) = (x1 % p.q, x2 % p.q);
            prop_assert_eq!(h.compress(a, b), reference_compress(p, a, b));
            // …and the raw draws, almost all ≥ q.
            prop_assert_eq!(h.compress(x1, x2), reference_compress(p, x1, x2));
        }
    }

    #[test]
    fn pedersen_md_hash_bytes_equals_reference_chain(
        data in proptest::collection::vec(any::<u8>(), 0..=64),
        size in 0usize..29,
    ) {
        let md = &pedersen_by_size()[size];
        let p = md.inner().params();
        prop_assert_eq!(md.hash_bytes(&data), reference_hash_bytes(p, &data));
    }
}

#[test]
fn pedersen_tables_equal_pow_mod_on_edge_exponents() {
    for md in pedersen_by_size() {
        let h = md.inner();
        let p = h.params();
        let edges = [
            0,
            1,
            (1 << 32) - 1,
            p.q - 1,
            p.q,
            p.q + 1,
            p.p - 1,
            p.p,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &x1 in &edges {
            for &x2 in &edges {
                assert_eq!(
                    h.compress(x1, x2),
                    reference_compress(p, x1, x2),
                    "p={} x1={x1} x2={x2}",
                    p.p
                );
            }
        }
    }
}

#[test]
fn pedersen_md_hash_bytes_equals_reference_on_snapshot_probe() {
    for md in pedersen_by_size() {
        let p = md.inner().params();
        for data in [&b"wbsn-crhf"[..], b"", b"\0", &[0xFF; 64]] {
            assert_eq!(md.hash_bytes(data), reference_hash_bytes(p, data));
        }
        // `hash_words` is the same chain over caller-packed words.
        assert_eq!(
            md.hash_bytes(&0x0123_4567_89AB_CDEFu64.to_be_bytes()),
            md.hash_words(&[0x0123_4567_89AB_CDEF, 8])
        );
    }
}

#[test]
fn pedersen_space_excludes_the_window_tables() {
    // `space_bits` counts the four public residues only, as before the
    // tables existed; the tables are reported on their own.
    let mut rng = TranscriptRng::from_seed(7);
    let md = PedersenMd::generate(40, &mut rng);
    assert_eq!(md.space_bits(), 160);
    assert_eq!(md.inner().space_bits(), 160);
    assert_eq!(md.inner().table_bits(), 2 * 16 * 16 * 64);
    for md in pedersen_by_size() {
        assert_eq!(md.space_bits(), 4 * md.output_bits());
    }
    // The snapshot fingerprint of this CRHF, as the `pow_mod` chain gave it.
    assert_eq!(md.hash_bytes(b"wbsn-crhf"), 0xdc9c_da588);
}

#[test]
fn phi_eps_hh_space_is_pinned() {
    // Values from the square-and-multiply implementation: the tables must
    // not enter `space_bits`.
    let mut rng = TranscriptRng::from_seed(61);
    let mut alg = PhiEpsHeavyHitters::new(1 << 20, 0.2, 0.125, 1 << 16, &mut rng);
    assert_eq!(alg.space_bits(), 170);
    let mut play = TranscriptRng::from_seed(62);
    for t in 0..3000u64 {
        alg.insert([5, 9, 5, t % 97][(t % 4) as usize], &mut play);
    }
    assert_eq!(alg.space_bits(), 4019);
}
