//! Collision-resistant hash functions (Definition 2.4 of the paper).
//!
//! Two constructions:
//!
//! * [`PedersenHash`] / [`PedersenMd`] — the discrete-log-based CRHF of
//!   Theorem 2.5 (Katz–Lindell §7.73 / folklore): a fixed-input-length
//!   compression function `h(x₁, x₂) = g^{x₁} · h^{x₂} mod p` over the
//!   prime-order quadratic-residue subgroup of a safe prime, extended to
//!   arbitrary-length inputs with Merkle–Damgård strengthening. Collision
//!   ⇒ discrete log of `h` base `g`. Used by the `(φ, ε)`-heavy-hitters
//!   algorithm (Theorem 1.2) and vertex-neighborhood identification
//!   (Theorem 1.3), where whole objects are hashed into a small universe.
//! * [`DlExpHash`] — the *streaming* exponent hash the paper uses for
//!   string fingerprints (§2.6): `h(U) = g^{int(U)} mod p`, computable
//!   character by character and supporting the concatenation law
//!   `h(U∘V) = h(U)^{B^{|V|}} · h(V)`. Its collision resistance for
//!   unbounded-length inputs rests on the multiplicative order of `g` being
//!   hard to compute; at the word-sized demo parameters used here that is a
//!   *scaling* statement measured by the attack experiments, not a
//!   production security claim (see DESIGN.md §3).
//!
//! **Evaluation cost.** `g` and `h` never change, so [`PedersenHash`]
//! precomputes a fixed-base window table for each at construction: entry
//! `[w][d]` holds `g^{d·16^w} mod p`, for all sixteen 4-bit windows of a
//! `u64` exponent. A compression is then one `mul_mod` per exponent digit
//! — about 2 × 10 at the 40-bit parameters the sketches use — instead of
//! two `pow_mod` square-and-multiply loops of about 60 each, and its value
//! is bit-identical to `mul_mod(pow_mod(g, x₁, p), pow_mod(h, x₂, p), p)`
//! for every input. The 4 KiB of tables are public constants derived from
//! `(p, g, h)`; they are reported by [`PedersenHash::table_bits`], not by
//! `space_bits`, so the space bounds the experiments measure stay the
//! paper's.
//!
//! Everything is public — the white-box adversary sees `p, q, g, h` the
//! moment they are generated. Collision resistance (unlike, say, a PRF key)
//! survives publication: that is exactly why the paper reaches for CRHFs.

use crate::modular::{mul_mod, pow_mod};
use crate::prime::{qr_generator, random_prime, random_safe_prime};
use wb_core::rng::TranscriptRng;
use wb_core::space::{bits_for_count, SpaceUsage};

/// Public parameters of a Pedersen compression function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PedersenParams {
    /// Safe prime `p = 2q + 1`.
    pub p: u64,
    /// Prime order of the QR subgroup, `q = (p − 1) / 2`.
    pub q: u64,
    /// First generator of the QR subgroup.
    pub g: u64,
    /// Second generator, with `log_g h` unknown to everyone (sampled from
    /// public randomness; knowing the *transcript* does not reveal the
    /// discrete log — that still takes a DL computation).
    pub h: u64,
}

/// Bits per window of the fixed-base tables.
const WINDOW_BITS: u32 = 4;
/// Entries per window: every 4-bit digit `0..16`.
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;
/// Windows per table: enough for any `u64` exponent.
const NUM_WINDOWS: usize = (u64::BITS / WINDOW_BITS) as usize;

/// Fixed-base window table of one generator `b`: entry `[w][d]` is
/// `b^{d·16^w} mod p`, so `b^e` is the product of one entry per 4-bit
/// digit of `e`.
type WindowTable = [[u64; WINDOW_SIZE]; NUM_WINDOWS];

/// Fixed-input-length Pedersen hash `Z_q × Z_q → QR_p`.
///
/// Construction precomputes the fixed-base window tables of `g` and `h`
/// (see the module docs): 2 × 2 KiB inline, so the hash stays `Copy`. They
/// are reported by [`PedersenHash::table_bits`], not by
/// [`SpaceUsage::space_bits`].
#[derive(Clone, Copy)]
pub struct PedersenHash {
    params: PedersenParams,
    g_table: WindowTable,
    h_table: WindowTable,
}

impl PedersenHash {
    /// Generates fresh public parameters. `bits` is the size of `p`
    /// (`34 ≤ bits ≤ 62`, so that 32-bit blocks fit in `Z_q`).
    pub fn generate(bits: u32, rng: &mut TranscriptRng) -> Self {
        assert!((34..=62).contains(&bits), "need 34..=62 bit safe prime");
        let p = random_safe_prime(bits, rng);
        let q = (p - 1) / 2;
        let g = qr_generator(p, rng);
        let h = loop {
            let cand = qr_generator(p, rng);
            if cand != g {
                break cand;
            }
        };
        Self::from_params(PedersenParams { p, q, g, h })
    }

    /// Construct from existing public parameters.
    pub fn from_params(params: PedersenParams) -> Self {
        PedersenHash {
            params,
            g_table: window_table(params.g, params.p),
            h_table: window_table(params.h, params.p),
        }
    }

    /// The public parameters.
    pub fn params(&self) -> &PedersenParams {
        &self.params
    }

    /// `g^{x₁} · h^{x₂} mod p`. Collision resistance is over inputs
    /// `x₁, x₂ < q`, but the tables cover all 64 exponent bits, so the value
    /// equals `mul_mod(pow_mod(g, x₁, p), pow_mod(h, x₂, p), p)` for every
    /// `u64` input.
    pub fn compress(&self, x1: u64, x2: u64) -> u64 {
        let gx = self.fixed_pow(&self.g_table, x1);
        let hx = self.fixed_pow(&self.h_table, x2);
        mul_mod(gx, hx, self.params.p)
    }

    /// `b^e mod p` from `b`'s window table: one product per 4-bit digit,
    /// stopping at the exponent's own bit length.
    #[inline]
    fn fixed_pow(&self, table: &WindowTable, e: u64) -> u64 {
        let mut acc = table[0][(e % WINDOW_SIZE as u64) as usize];
        let mut rest = e >> WINDOW_BITS;
        let mut w = 1;
        while rest != 0 {
            acc = mul_mod(
                acc,
                table[w][(rest % WINDOW_SIZE as u64) as usize],
                self.params.p,
            );
            rest >>= WINDOW_BITS;
            w += 1;
        }
        acc
    }

    /// Memory of the two precomputed window tables, in bits. They are
    /// public constants computed from the parameters, so
    /// [`SpaceUsage::space_bits`] does not include them.
    pub fn table_bits(&self) -> u64 {
        2 * (NUM_WINDOWS * WINDOW_SIZE) as u64 * u64::from(u64::BITS)
    }
}

/// The window table of `base` modulo `p`.
fn window_table(base: u64, p: u64) -> WindowTable {
    let mut table = [[0u64; WINDOW_SIZE]; NUM_WINDOWS];
    // `step` is `base^{16^w}` while row `w` is filled.
    let mut step = base % p;
    for row in table.iter_mut() {
        let mut acc = 1 % p;
        for entry in row.iter_mut() {
            *entry = acc;
            acc = mul_mod(acc, step, p);
        }
        step = acc;
    }
    table
}

impl std::fmt::Debug for PedersenHash {
    /// The parameters only: the tables are a function of them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PedersenHash")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl PartialEq for PedersenHash {
    /// Equal parameters imply equal tables.
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
    }
}

impl Eq for PedersenHash {}

impl SpaceUsage for PedersenHash {
    /// Public parameters: four residues mod `p`.
    fn space_bits(&self) -> u64 {
        4 * bits_for_count(self.params.p)
    }
}

/// Arbitrary-length CRHF: Merkle–Damgård over [`PedersenHash`] with length
/// strengthening.
///
/// The chaining value (a group element in `[1, p)`) is folded into `Z_q` by
/// reduction mod `q` between rounds. At the word-sized demo parameters this
/// loses at most one bit of the chaining value per round (`p = 2q + 1`); the
/// fold is injective on `[0, q)` and maps `[q, p)` onto `[0, q)`, so a
/// collision in the fold still pins the chaining value to one of two known
/// preimages — the unit tests check collision-freeness empirically and the
/// attack experiments measure search cost.
#[derive(Debug, Clone, Copy)]
pub struct PedersenMd {
    inner: PedersenHash,
}

/// Public Merkle–Damgård IV.
const MD_IV: u64 = 1;
/// Block of the final, unfolded compression.
const MD_FINAL: u64 = 0x5A5A_5A5A;

impl PedersenMd {
    /// Generate fresh public parameters (see [`PedersenHash::generate`]).
    pub fn generate(bits: u32, rng: &mut TranscriptRng) -> Self {
        PedersenMd {
            inner: PedersenHash::generate(bits, rng),
        }
    }

    /// Construct from existing parameters.
    pub fn from_params(params: PedersenParams) -> Self {
        PedersenMd {
            inner: PedersenHash::from_params(params),
        }
    }

    /// The underlying compression function.
    pub fn inner(&self) -> &PedersenHash {
        &self.inner
    }

    /// Hash a slice of `u64` words to a group element in `[1, p)`.
    ///
    /// Words are split into 32-bit halves (each `< q` since `q > 2^32`),
    /// chained through the compression function, and finished with a length
    /// block (Merkle–Damgård strengthening).
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        let state = words
            .iter()
            .fold(MD_IV, |state, &w| self.absorb_word(state, w));
        self.finish(state, words.len() as u64)
    }

    /// Hash arbitrary bytes (packed big-endian into u64 words, with the byte
    /// length absorbed, so `"ab" ‖ "c"` and `"a" ‖ "bc"` differ). Equals
    /// [`PedersenMd::hash_words`] of the packed words followed by the byte
    /// length, chained without building that word vector.
    pub fn hash_bytes(&self, data: &[u8]) -> u64 {
        let chunks = data.chunks(8);
        let words = chunks.len() as u64 + 1;
        let state = chunks.fold(MD_IV, |state, chunk| {
            let w = chunk.iter().fold(0u64, |w, &b| (w << 8) | u64::from(b));
            self.absorb_word(state, w)
        });
        let state = self.absorb_word(state, data.len() as u64);
        self.finish(state, words)
    }

    /// One chaining round: compress and fold the result into `Z_q`.
    #[inline]
    fn absorb(&self, state: u64, block: u64) -> u64 {
        self.inner.compress(state, block) % self.inner.params.q
    }

    /// Absorb a word as its high then its low 32-bit half.
    #[inline]
    fn absorb_word(&self, state: u64, w: u64) -> u64 {
        let state = self.absorb(state, w >> 32);
        self.absorb(state, w & 0xFFFF_FFFF)
    }

    /// Absorb the word count (strengthening), then compress once more
    /// without folding, so the output universe is `[1, p)`.
    fn finish(&self, state: u64, words: u64) -> u64 {
        let state = self.absorb(state, words & 0xFFFF_FFFF);
        self.inner.compress(state, MD_FINAL)
    }

    /// Output width in bits (`⌈log₂ p⌉`).
    pub fn output_bits(&self) -> u64 {
        bits_for_count(self.inner.params.p)
    }
}

impl SpaceUsage for PedersenMd {
    /// The compression function's public parameters; its window tables are
    /// reported separately by [`PedersenHash::table_bits`].
    fn space_bits(&self) -> u64 {
        self.inner.space_bits()
    }
}

/// Public parameters of the streaming DL-exponent hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlExpParams {
    /// Prime modulus. The *factorization of `p − 1` is not published*;
    /// computing the order of `g` (the collision-finding step) requires the
    /// adversary to factor it.
    pub p: u64,
    /// Group element whose order is the hidden quantity.
    pub g: u64,
    /// Alphabet radix `B`: symbols are integers in `[0, B)`.
    pub base: u64,
}

impl DlExpParams {
    /// Generate parameters with a `bits`-bit prime and alphabet radix
    /// `base ≥ 2`.
    pub fn generate(bits: u32, base: u64, rng: &mut TranscriptRng) -> Self {
        assert!(base >= 2);
        let p = random_prime(bits, rng);
        let g = rng.range(2, p - 1);
        DlExpParams { p, g, base }
    }
}

/// Streaming exponent hash `h(U) = g^{int_B(U)} mod p` (§2.6 of the paper).
///
/// Supports O(1)-space left-to-right absorption and the concatenation law
/// used by the streaming pattern matcher (Algorithm 6):
/// `h(U ∘ V) = h(U)^{B^{|V|}} · h(V) mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlExpHash {
    params: DlExpParams,
    /// Current value `g^{int(U)} mod p`.
    acc: u64,
    /// Number of symbols absorbed.
    len: u64,
}

impl DlExpHash {
    /// Empty-string hash (`g^0 = 1`).
    pub fn new(params: DlExpParams) -> Self {
        DlExpHash {
            params,
            acc: 1,
            len: 0,
        }
    }

    /// The public parameters.
    pub fn params(&self) -> &DlExpParams {
        &self.params
    }

    /// Absorb one symbol `c ∈ [0, B)`: `int ← int·B + c`, i.e.
    /// `acc ← acc^B · g^c mod p`.
    pub fn absorb(&mut self, c: u64) {
        debug_assert!(c < self.params.base);
        let p = self.params.p;
        self.acc = mul_mod(
            pow_mod(self.acc, self.params.base, p),
            pow_mod(self.params.g, c, p),
            p,
        );
        self.len += 1;
    }

    /// Current hash value in `[1, p)`.
    pub fn value(&self) -> u64 {
        self.acc
    }

    /// Number of symbols absorbed.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff no symbols have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Concatenation law: the hash of `U ∘ V` from the hashes of `U` and
    /// `V`. Exponent arithmetic is done mod `p − 1` (valid by Fermat).
    pub fn concat(&self, v: &DlExpHash) -> DlExpHash {
        debug_assert_eq!(self.params, v.params);
        let p = self.params.p;
        // B^{|V|} mod (p-1): a^{e mod (p-1)} = a^e for units a by Fermat.
        let shift = pow_mod(self.params.base, v.len, p - 1);
        DlExpHash {
            params: self.params,
            acc: mul_mod(pow_mod(self.acc, shift, p), v.acc, p),
            len: self.len + v.len,
        }
    }

    /// One-shot hash of a symbol slice.
    pub fn hash_symbols(params: DlExpParams, symbols: &[u64]) -> u64 {
        let mut h = DlExpHash::new(params);
        for &c in symbols {
            h.absorb(c);
        }
        h.value()
    }
}

impl SpaceUsage for DlExpHash {
    /// Accumulator + length counter + public parameters (three residues).
    fn space_bits(&self) -> u64 {
        bits_for_count(self.acc) + bits_for_count(self.len) + 3 * bits_for_count(self.params.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pedersen() -> PedersenHash {
        let mut rng = TranscriptRng::from_seed(100);
        PedersenHash::generate(36, &mut rng)
    }

    #[test]
    fn pedersen_params_sane() {
        let h = pedersen();
        let p = h.params().p;
        let q = h.params().q;
        assert_eq!(p, 2 * q + 1);
        assert!(crate::prime::is_prime(p) && crate::prime::is_prime(q));
        // Generators have order q.
        assert_eq!(pow_mod(h.params().g, q, p), 1);
        assert_eq!(pow_mod(h.params().h, q, p), 1);
        assert_ne!(h.params().g, h.params().h);
    }

    #[test]
    fn pedersen_compress_is_homomorphic() {
        // compress(a+b, c+d) = compress(a,c)·compress(b,d): the Pedersen
        // structure the SIS/DL arguments rely on.
        let h = pedersen();
        let q = h.params().q;
        let p = h.params().p;
        let (a, b, c, d) = (123 % q, 456 % q, 789 % q, 1011 % q);
        let lhs = h.compress((a + b) % q, (c + d) % q);
        let rhs = mul_mod(h.compress(a, c), h.compress(b, d), p);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn table_compress_matches_pow_mod() {
        let h = pedersen();
        let PedersenParams { p, q, g, h: hh } = *h.params();
        let edges = [0u64, 1, 15, 16, 0xFFFF_FFFF, q - 1, q, p, u64::MAX];
        for &x1 in &edges {
            for &x2 in &edges {
                let want = mul_mod(pow_mod(g, x1, p), pow_mod(hh, x2, p), p);
                assert_eq!(h.compress(x1, x2), want, "x1={x1} x2={x2}");
            }
        }
    }

    #[test]
    fn tables_are_reported_apart_from_space() {
        let h = pedersen();
        assert_eq!(h.table_bits(), 2 * 16 * 16 * 64);
        assert_eq!(h.space_bits(), 4 * 36);
        assert_eq!(PedersenHash::from_params(*h.params()), h);
    }

    #[test]
    fn pedersen_md_distinguishes_lengths_and_content() {
        let mut rng = TranscriptRng::from_seed(101);
        let md = PedersenMd::generate(36, &mut rng);
        assert_ne!(md.hash_bytes(b"ab"), md.hash_bytes(b"ba"));
        assert_ne!(md.hash_bytes(b"a"), md.hash_bytes(b"a\0"));
        assert_ne!(md.hash_bytes(b""), md.hash_bytes(b"\0"));
        assert_eq!(md.hash_bytes(b"hello"), md.hash_bytes(b"hello"));
        // Concatenation-sliding must be blocked by length strengthening.
        assert_ne!(md.hash_words(&[1, 2]), md.hash_words(&[1, 2, 0]));
    }

    #[test]
    fn pedersen_md_no_collisions_in_small_sample() {
        let mut rng = TranscriptRng::from_seed(102);
        let md = PedersenMd::generate(40, &mut rng);
        let mut seen = std::collections::HashMap::new();
        for i in 0..2000u64 {
            let v = md.hash_words(&[i]);
            if let Some(prev) = seen.insert(v, i) {
                panic!("collision between {prev} and {i}");
            }
        }
    }

    #[test]
    fn dlexp_matches_direct_exponentiation() {
        let mut rng = TranscriptRng::from_seed(103);
        let params = DlExpParams::generate(40, 2, &mut rng);
        // int(1011₂) = 11
        let mut h = DlExpHash::new(params);
        for c in [1u64, 0, 1, 1] {
            h.absorb(c);
        }
        assert_eq!(h.value(), pow_mod(params.g, 11, params.p));
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn dlexp_concat_law() {
        let mut rng = TranscriptRng::from_seed(104);
        let params = DlExpParams::generate(40, 4, &mut rng);
        let u = [3u64, 1, 0, 2, 3];
        let v = [0u64, 2, 1];
        let mut hu = DlExpHash::new(params);
        u.iter().for_each(|&c| hu.absorb(c));
        let mut hv = DlExpHash::new(params);
        v.iter().for_each(|&c| hv.absorb(c));
        let mut huv = DlExpHash::new(params);
        u.iter().chain(v.iter()).for_each(|&c| huv.absorb(c));
        let composed = hu.concat(&hv);
        assert_eq!(composed.value(), huv.value());
        assert_eq!(composed.len(), 8);
    }

    #[test]
    fn dlexp_concat_with_empty_is_identity() {
        let mut rng = TranscriptRng::from_seed(105);
        let params = DlExpParams::generate(38, 2, &mut rng);
        let mut hu = DlExpHash::new(params);
        [1u64, 1, 0, 1].iter().for_each(|&c| hu.absorb(c));
        let he = DlExpHash::new(params);
        assert_eq!(hu.concat(&he).value(), hu.value());
        assert_eq!(he.concat(&hu).value(), hu.value());
    }

    #[test]
    fn dlexp_distinct_short_strings_distinct_hashes() {
        // For strings shorter than log_B(ord(g)) the map int() is injective
        // below the group order w.h.p., so no collisions should appear.
        let mut rng = TranscriptRng::from_seed(106);
        let params = DlExpParams::generate(40, 2, &mut rng);
        let mut seen = std::collections::HashMap::new();
        for x in 0..256u64 {
            let symbols: Vec<u64> = (0..8).rev().map(|i| (x >> i) & 1).collect();
            let v = DlExpHash::hash_symbols(params, &symbols);
            if let Some(prev) = seen.insert(v, x) {
                panic!("collision between {prev:08b} and {x:08b}");
            }
        }
    }

    #[test]
    fn space_accounting_present() {
        let mut rng = TranscriptRng::from_seed(107);
        let params = DlExpParams::generate(40, 2, &mut rng);
        let h = DlExpHash::new(params);
        assert!(h.space_bits() > 0);
        let md = PedersenMd::generate(36, &mut rng);
        assert!(md.space_bits() >= 4 * 36);
        assert!(md.output_bits() >= 36);
    }
}
