//! Keyed message authentication codes: two constructions, one tag width.
//!
//! The paper's integrity scheme is `MAC = Hash_key(version, address, cipher)`
//! with 56-bit tags (eight tags packed per 64-byte MAC block, Fig. 4) — the
//! layout of client SGX's memory encryption engine, whose MAC is a
//! Carter–Wegman construction, not a serial PRF (Gueron, "A Memory
//! Encryption Engine Suitable for General Purpose Processors", 2016).
//!
//! # [`LineMac`] — the protection engine's line MAC
//!
//! `tag = low 56 bits of (H_k(ciphertext) + pad) mod p`, `p = 2^61 − 1`.
//!
//! * `H_k` is a multilinear universal hash: the 64 ciphertext bytes are
//!   encoded injectively as ten limbs `mᵢ < 2^56` (the low 56 bits of each
//!   of the eight little-endian words, then the eight top bytes gathered
//!   into two 32-bit limbs) and `H_k = Σ kᵢ·mᵢ mod p`. The ten products are
//!   below `2^117`, so the sum accumulates in one `u128` and is reduced
//!   once. The key limbs `kᵢ < p` are expanded once from a 16-byte subkey
//!   with AES as a PRF, rejection-sampled. Two distinct lines collide with
//!   probability `1/p` over the key.
//! * `pad` is the low 61 bits of `AES_tweakkey(version ‖ address | 1)`,
//!   which [`AesXts::line_pads`](crate::modes::AesXts::line_pads) encrypts
//!   in the same two-lane pass as the XTS tweak
//!   `AES_tweakkey(version ‖ address)`. Line addresses are 64-byte
//!   aligned, so the two inputs never coincide, and two distinct points of
//!   one PRP are jointly pseudorandom — all XEX and Carter–Wegman each
//!   need.
//!
//! **The nonce argument.** Carter–Wegman is secure as long as no
//! `(version, address)` pair is ever used under one key with two different
//! ciphertexts: the pad then hides `H_k` perfectly and a forgery must guess
//! a difference of hashes. That is the engine's freshness invariant
//! itself: a line's stealth version strictly advances on every write
//! within one upper-version epoch; the upper version advances on every
//! stealth reset and page free; the reset walk re-seals each resident line
//! exactly once under the new `(UV, base)`; and shard recovery re-keys
//! (the hash key included). A blank line — one that holds no ciphertext —
//! carries the tag of the zero block under a third input,
//! `AES_tweakkey(version ‖ address | 2)`, that neither a tweak nor a data
//! pad can equal. Blank pads never meet data pads, and one only ever tags
//! the zero block: a page's birth tags each blank once at its version, and
//! the walk re-tags each blank once under the new `(UV, base)`. A forgery succeeds with probability at most
//! about `2^-55` per attempt — `ε = 1/p`, times `2^5` for the 32
//! residues that share a truncated tag, times 2 for the pad being 61
//! uniform bits rather than a uniform residue — and the first failed
//! verification kills the engine for that key generation, so there is no
//! second attempt. The pad and the tweak are computed before the tag is
//! checked, but neither touches ciphertext; decryption still happens only
//! after tag equality.
//!
//! # [`MacKey`] — SipHash-2-4, a PRF
//!
//! No scheme tags with it. The baselines' data lines seal with
//! [`LineMac`], as Toleo's do, and `toleo-baselines`' SGX counter tree
//! tags each node with [`LineMac`] under `(parent counter, node
//! address)`: both have a nonce. Its one caller is the benchmark
//! harness's per-layer timing (`benchmark/src/layers.rs`). It costs 11
//! dependent compressions for an 80-byte message, which is why the line
//! path does not use it.

// audit: allow-file(indexing, SipHash state words, 8-byte chunks and the ten hash limbs have fixed widths by construction)

use crate::aes::Aes128;

/// A 56-bit MAC tag as stored in the MAC block.
///
/// # Examples
///
/// ```
/// use toleo_crypto::mac::{MacKey, Tag56};
///
/// let key = MacKey::new([0u8; 16]);
/// let tag: Tag56 = key.mac(7, 0x1000, b"ciphertext bytes");
/// assert!(tag.verify(&key.mac(7, 0x1000, b"ciphertext bytes")));
/// assert!(!tag.verify(&key.mac(8, 0x1000, b"ciphertext bytes")));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tag56(u64);

impl Tag56 {
    /// Bit width of the stored tag.
    pub const BITS: u32 = 56;

    /// Builds a tag from a raw value (masked to 56 bits).
    pub fn from_raw(v: u64) -> Self {
        Tag56(v & ((1u64 << 56) - 1))
    }

    /// The raw 56-bit value.
    pub fn as_raw(self) -> u64 {
        self.0
    }

    /// Constant-shape comparison against another tag.
    pub fn verify(self, other: &Tag56) -> bool {
        // A real implementation would be constant-time; for the simulator a
        // branch-free xor-compare keeps the spirit.
        (self.0 ^ other.0) == 0
    }
}

/// `p = 2^61 − 1`, the Mersenne prime the line hash works modulo.
const P61: u64 = (1 << 61) - 1;

/// Low 56 bits of a ciphertext word: one hash limb.
const LOW56: u64 = (1 << 56) - 1;

/// Key of the protection engine's Carter–Wegman line MAC (see the
/// [module docs](self)): ten limbs below `p = 2^61 − 1`.
///
/// # Examples
///
/// ```
/// use toleo_crypto::mac::LineMac;
/// use toleo_crypto::modes::{AesXts, Tweak};
///
/// let xts = AesXts::new(b"data-unit key 1!", b"tweak key 2 ....");
/// let mac = LineMac::new(b"mac subkey 16 B.");
/// let pads = xts.line_pads(Tweak { version: 7, address: 0x4000 });
/// let mut line = [0xabu8; 64];
/// xts.encrypt_line_with_tweak(pads.tweak, &mut line);
/// let tag = mac.tag(&pads.mac_pad, &line);
/// line[3] ^= 1;
/// assert!(!tag.verify(&mac.tag(&pads.mac_pad, &line)));
/// ```
#[derive(Clone)]
pub struct LineMac {
    k: [u64; 10],
}

impl std::fmt::Debug for LineMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineMac")
            .field("limbs", &"<redacted>")
            .finish()
    }
}

impl LineMac {
    /// Expands 16 bytes of key material into the ten hash limbs: AES
    /// under `subkey` as a PRF over a labelled counter, keeping the low 61
    /// bits of each output and drawing again on the one value (`p` itself)
    /// that is not a residue.
    pub fn new(subkey: &[u8; 16]) -> Self {
        let prf = Aes128::new(subkey);
        let mut block = *b"\0\0\0\0\0\0\0\0line-mac";
        let mut counter = 0u64;
        let mut draw = || loop {
            block[..8].copy_from_slice(&counter.to_le_bytes());
            counter += 1;
            let limb = low64(&prf.encrypt_block(&block)) & P61;
            if limb < P61 {
                return limb;
            }
        };
        LineMac {
            k: core::array::from_fn(|_| draw()),
        }
    }

    /// The 56-bit tag of `ciphertext` under `pad`, the
    /// [`mac_pad`](crate::modes::LinePads::mac_pad) of the line's
    /// `(version, address)`. The caller owes the nonce invariant of the
    /// [module docs](self): one pad, one ciphertext.
    #[inline]
    pub fn tag(&self, pad: &[u8; 16], ciphertext: &[u8; 64]) -> Tag56 {
        let mut acc = u128::from(low64(pad) & P61);
        let mut tops = [0u64; 2];
        let words = ciphertext.as_chunks::<8>().0;
        for (i, (word, k)) in words.iter().zip(&self.k).enumerate() {
            let word = u64::from_le_bytes(*word);
            acc += u128::from(word & LOW56) * u128::from(*k);
            tops[i / 4] |= (word >> 56) << (8 * (i % 4));
        }
        acc += u128::from(tops[0]) * u128::from(self.k[8]);
        acc += u128::from(tops[1]) * u128::from(self.k[9]);
        // Eleven terms below 2^117: `acc < 2^121`, so `acc >> 61` fits a
        // u64 and two folds of `2^61 ≡ 1` leave at most `p`.
        let folded = (acc as u64 & P61) + (acc >> 61) as u64;
        let folded = (folded & P61) + (folded >> 61);
        Tag56::from_raw(if folded == P61 { 0 } else { folded })
    }
}

/// The low eight bytes of an AES output block as a little-endian word.
#[inline]
fn low64(block: &[u8; 16]) -> u64 {
    u64::from_le_bytes(block.as_chunks::<8>().0[0])
}

/// Key for the SipHash-2-4 PRF MAC, which no scheme tags with (see the
/// module docs).
#[derive(Clone)]
pub struct MacKey {
    k0: u64,
    k1: u64,
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MacKey")
            .field("key", &"<redacted>")
            .finish()
    }
}

impl MacKey {
    /// Creates a MAC key from 16 bytes of key material.
    pub fn new(key: [u8; 16]) -> Self {
        let halves = key.as_chunks::<8>().0;
        MacKey {
            k0: u64::from_le_bytes(halves[0]),
            k1: u64::from_le_bytes(halves[1]),
        }
    }

    /// Computes the 56-bit tag over `(version, address, ciphertext)`.
    ///
    /// The `(version, address)` prefix is fed to SipHash as two
    /// pre-packed 64-bit words, so no concatenation buffer is allocated.
    /// No scheme tags with it: outside this crate's tests, its one caller
    /// is `benchmark/`, which times it as a PRF-MAC reference point.
    pub fn mac(&self, version: u64, address: u64, ciphertext: &[u8]) -> Tag56 {
        Tag56::from_raw(siphash24_prefixed(
            self.k0,
            self.k1,
            [version, address],
            ciphertext,
        ))
    }
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// One SipHash message-word compression (two c-rounds).
#[inline]
fn sip_compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

/// SipHash-2-4 (Aumasson & Bernstein), from scratch, over the message
/// `prefix words ‖ data`, hashing the prefix as pre-packed little-endian
/// 64-bit words: byte-identical to SipHash over the concatenated buffer,
/// without materializing it.
fn siphash24_prefixed<const N: usize>(k0: u64, k1: u64, prefix: [u64; N], data: &[u8]) -> u64 {
    let mut v = [
        k0 ^ 0x736f6d6570736575,
        k1 ^ 0x646f72616e646f6d,
        k0 ^ 0x6c7967656e657261,
        k1 ^ 0x7465646279746573,
    ];
    for m in prefix {
        sip_compress(&mut v, m);
    }
    let (words, rem) = data.as_chunks::<8>();
    for chunk in words {
        let m = u64::from_le_bytes(*chunk);
        sip_compress(&mut v, m);
    }
    let total_len = 8 * N + data.len();
    let mut last = (total_len as u64 & 0xff) << 56;
    for (i, b) in rem.iter().enumerate() {
        last |= (*b as u64) << (8 * i);
    }
    sip_compress(&mut v, last);
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{AesXts, Tweak};
    use proptest::prelude::*;

    /// Plain SipHash-2-4 over one buffer.
    fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
        siphash24_prefixed(k0, k1, [], data)
    }

    /// The line MAC written the obvious way — limbs assembled byte by
    /// byte, a `u128 %` per term, its own copy of every constant. Shares
    /// no code with [`LineMac::tag`].
    fn naive_tag(k: &[u64; 10], pad: &[u8; 16], ct: &[u8; 64]) -> u64 {
        let p = (1u128 << 61) - 1;
        let mut limbs = [0u128; 10];
        for word in 0..8 {
            for byte in 0..7 {
                limbs[word] |= u128::from(ct[8 * word + byte]) << (8 * byte);
            }
            limbs[8 + word / 4] |= u128::from(ct[8 * word + 7]) << (8 * (word % 4));
        }
        let mut pad_bits = 0u128;
        for (byte, v) in pad[..8].iter().enumerate() {
            pad_bits |= u128::from(*v) << (8 * byte);
        }
        let mut sum = pad_bits % (1 << 61) % p;
        for (k, m) in k.iter().zip(limbs) {
            sum = (sum + u128::from(*k) % p * m % p) % p;
        }
        (sum % (1 << 56)) as u64
    }

    fn line(halves: ([u8; 32], [u8; 32])) -> [u8; 64] {
        core::array::from_fn(|i| {
            if i < 32 {
                halves.0[i]
            } else {
                halves.1[i - 32]
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn line_tag_matches_naive_oracle(
            limbs in proptest::array::uniform16(0u64..P61),
            pad in proptest::array::uniform16(any::<u8>()),
            halves in (proptest::array::uniform32(any::<u8>()), proptest::array::uniform32(any::<u8>())),
        ) {
            let k: [u64; 10] = core::array::from_fn(|i| limbs[i]);
            let ct = line(halves);
            prop_assert_eq!(LineMac { k }.tag(&pad, &ct).as_raw(), naive_tag(&k, &pad, &ct));
        }
    }

    /// The corners of the encoding and of the arithmetic: extreme lines,
    /// a lone bit either side of every limb boundary, extreme key limbs
    /// and pads whose low 61 bits are 0, `p − 1` and `p` itself (≡ 0).
    #[test]
    fn line_tag_matches_naive_oracle_at_the_edges() {
        let mut lines = vec![[0u8; 64], [0xff; 64]];
        for word in 0..8 {
            for bit in [0, 55, 56, 63] {
                let mut ct = [0u8; 64];
                ct[8 * word + bit / 8] = 1 << (bit % 8);
                lines.push(ct);
                lines.push(ct.map(|b| !b));
            }
        }
        let keys = [
            [0u64; 10],
            [1; 10],
            [P61 - 1; 10],
            core::array::from_fn(|i| if i % 2 == 0 { P61 - 1 } else { 0 }),
            LineMac::new(&[0x42; 16]).k,
        ];
        let pad_words = [0u64, 1, P61 - 1, P61, P61 + 1, u64::MAX];
        for k in keys {
            for word in pad_words {
                let mut pad = [0xa5u8; 16];
                pad[..8].copy_from_slice(&word.to_le_bytes());
                for ct in &lines {
                    let tag = LineMac { k }.tag(&pad, ct);
                    assert_eq!(tag.as_raw(), naive_tag(&k, &pad, ct), "{k:x?} {word:#x}");
                    assert!(tag.as_raw() < 1 << 56);
                }
            }
        }
        // All ten products at their largest: the accumulator's headroom.
        let pad = [0xff; 16];
        let k = [P61 - 1; 10];
        assert_eq!(
            LineMac { k }.tag(&pad, &[0xff; 64]).as_raw(),
            naive_tag(&k, &pad, &[0xff; 64])
        );
    }

    /// Key expansion is AES under the subkey over `counter ‖ "line-mac"`,
    /// low 61 bits, in counter order; every limb is a residue.
    #[test]
    fn line_key_expansion_is_the_labelled_aes_prf() {
        let subkey: [u8; 16] = core::array::from_fn(|i| 0x55 ^ (i as u8 * 7));
        let prf = crate::aes::reference::RefAes128::new(&subkey);
        let key = LineMac::new(&subkey);
        for (counter, limb) in key.k.iter().enumerate() {
            let mut block = [0u8; 16];
            block[0] = counter as u8;
            block[8..].copy_from_slice(b"line-mac");
            let out = prf.encrypt_block(&block);
            let word = u64::from_le_bytes(out[..8].try_into().unwrap());
            assert_eq!(*limb, word & P61, "limb {counter}");
            assert!(*limb < P61);
        }
        assert_eq!(key.k[0], 0x0811_e53e_b908_4d95, "pinned first limb");
        assert_ne!(key.k, LineMac::new(&[0; 16]).k, "the subkey is bound");
    }

    /// Changing any one key limb changes the tag of a line whose matching
    /// message limb is non-zero.
    #[test]
    fn line_keys_that_differ_in_one_limb_give_different_tags() {
        let base = LineMac::new(b"one limb differs");
        let ct: [u8; 64] = core::array::from_fn(|i| i as u8 | 0x80);
        let pad = [3u8; 16];
        let tag = base.tag(&pad, &ct);
        for i in 0..10 {
            for delta in [1, 2, P61 / 2] {
                let mut other = base.clone();
                other.k[i] = (other.k[i] + delta) % P61;
                assert_ne!(other.tag(&pad, &ct), tag, "limb {i} + {delta:#x}");
            }
        }
    }

    /// One sealed line, then every single-bit change an adversary or a
    /// stale version could present at verification: each of the 512
    /// ciphertext bits, the 64 version bits, the 58 line-address bits and
    /// the 56 stored-tag bits. None verifies.
    #[test]
    fn every_single_bit_flip_fails_line_verification() {
        for kind in crate::backend::available_backends() {
            let xts = AesXts::with_backend(&[0x11; 16], &[0x22; 16], kind);
            let mac = LineMac::new(&[0x33; 16]);
            let tweak = Tweak {
                version: 0x0123_4567_89ab_cdef,
                address: 0x0000_19f3_c0de_0040,
            };
            let mut ct: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(3));
            let pads = xts.line_pads(tweak);
            xts.encrypt_line_with_tweak(pads.tweak, &mut ct);
            let stored = mac.tag(&pads.mac_pad, &ct);
            let verifies = |tweak: Tweak, ct: &[u8; 64], stored: Tag56| {
                mac.tag(&xts.line_pads(tweak).mac_pad, ct).verify(&stored)
            };
            assert!(verifies(tweak, &ct, stored));
            for bit in 0..512 {
                let mut bad = ct;
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(!verifies(tweak, &bad, stored), "ciphertext bit {bit}");
            }
            for bit in 0..64 {
                let version = tweak.version ^ (1 << bit);
                assert!(
                    !verifies(Tweak { version, ..tweak }, &ct, stored),
                    "version bit {bit}"
                );
            }
            for bit in 6..64 {
                let address = tweak.address ^ (1 << bit);
                assert!(
                    !verifies(Tweak { address, ..tweak }, &ct, stored),
                    "address bit {bit}"
                );
            }
            for bit in 0..56 {
                let forged = Tag56::from_raw(stored.as_raw() ^ (1 << bit));
                assert!(!verifies(tweak, &ct, forged), "tag bit {bit}");
            }
        }
    }

    #[test]
    fn line_key_debug_redacts_limbs() {
        let key = LineMac::new(&[7u8; 16]);
        let dbg = format!("{key:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains(&format!("{}", key.k[0])));
    }

    /// Reference vector from the SipHash paper (Appendix A):
    /// key = 00..0f, message = 00..0e, output 0xa129ca6149be45e5.
    #[test]
    fn siphash_reference_vector() {
        let key: Vec<u8> = (0..16u8).collect();
        let k0 = u64::from_le_bytes(key[..8].try_into().unwrap());
        let k1 = u64::from_le_bytes(key[8..].try_into().unwrap());
        let msg: Vec<u8> = (0..15u8).collect();
        assert_eq!(siphash24(k0, k1, &msg), 0xa129ca6149be45e5);
    }

    #[test]
    fn tag_is_56_bits() {
        let key = MacKey::new([0xffu8; 16]);
        for i in 0..100u64 {
            let tag = key.mac(i, i * 64, &[0u8; 64]);
            assert!(tag.as_raw() < (1 << 56));
        }
    }

    /// The prefixed (allocation-free) path is byte-identical to hashing
    /// the concatenated `version ‖ address ‖ ciphertext` buffer, at every
    /// tail length mod 8.
    #[test]
    fn mac_matches_concatenated_siphash() {
        let key = MacKey::new([0x3cu8; 16]);
        for len in 0..=67usize {
            let ct: Vec<u8> = (0..len as u8).collect();
            let mut buf = Vec::with_capacity(16 + len);
            buf.extend_from_slice(&0xdead_beef_u64.to_le_bytes());
            buf.extend_from_slice(&0x1040_u64.to_le_bytes());
            buf.extend_from_slice(&ct);
            let expect = Tag56::from_raw(siphash24(key.k0, key.k1, &buf));
            assert_eq!(key.mac(0xdead_beef, 0x1040, &ct), expect, "len {len}");
        }
    }

    #[test]
    fn mac_binds_version_address_and_data() {
        let key = MacKey::new([1u8; 16]);
        let base = key.mac(1, 0x1000, b"data");
        assert_ne!(base, key.mac(2, 0x1000, b"data"), "version must be bound");
        assert_ne!(base, key.mac(1, 0x1040, b"data"), "address must be bound");
        assert_ne!(base, key.mac(1, 0x1000, b"data!"), "data must be bound");
        assert_eq!(base, key.mac(1, 0x1000, b"data"));
    }

    #[test]
    fn mac_key_separation() {
        let a = MacKey::new([1u8; 16]);
        let b = MacKey::new([2u8; 16]);
        assert_ne!(a.mac(0, 0, b"x"), b.mac(0, 0, b"x"));
    }

    #[test]
    fn debug_redacts_key() {
        let key = MacKey::new([7u8; 16]);
        assert!(format!("{key:?}").contains("redacted"));
    }
}
