//! Block-cipher modes used by the Toleo protection engine.
//!
//! * [`AesXts`] — XEX-based tweaked-codebook mode with ciphertext stealing
//!   (we only need whole 16-byte blocks, so no stealing is implemented).
//!   Scalable SGX uses XTS with an address tweak only; Toleo uses XTS with a
//!   (version, address) tweak so freshness is bound into the ciphertext.
//!   Its unit of work is the 64-byte cache line:
//!   [`line_pads`](AesXts::line_pads) encrypts a line's XTS tweak and the
//!   pad of its Carter–Wegman MAC ([`crate::mac`]) as two lanes of one
//!   AES pass — `AES_tweakkey(version ‖ address)` and
//!   `AES_tweakkey(version ‖ address | 1)`, distinct inputs because lines
//!   are 64-byte aligned, so the pad rides in a lane the tweak encryption
//!   left idle — and
//!   [`encrypt_line_with_tweak`](AesXts::encrypt_line_with_tweak) /
//!   [`decrypt_line_with_tweak`](AesXts::decrypt_line_with_tweak) are one
//!   backend call each
//!   ([`Aes128Backend::xts_line`](crate::backend::Aes128Backend::xts_line)).
//!   The slice API walks its input as whole lines through that same call,
//!   then any sub-line tail sector by sector. Every scheme in the
//!   workspace — Toleo and the three baselines — seals its lines this
//!   way.

// audit: allow-file(indexing, lane indices are bounded by the 8-block pipeline width)

use crate::aes::Aes128;
use crate::backend::{gf128_mul_alpha, xor16};

/// A 128-bit XTS tweak: in Toleo it encodes the 64-bit full version number
/// and the 64-bit physical address of the cache-block sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tweak {
    /// Full version number (UV << 27 | stealth), or 0 for version-less XTS.
    pub version: u64,
    /// Physical address of the 16-byte sector being processed.
    pub address: u64,
}

impl Tweak {
    /// Packs the tweak into the 16-byte little-endian block fed to AES.
    pub fn to_bytes(self) -> [u8; 16] {
        self.packed().to_le_bytes()
    }

    /// [`to_bytes`](Self::to_bytes) as one little-endian integer.
    fn packed(self) -> u128 {
        u128::from(self.address) << 64 | u128::from(self.version)
    }

    /// The tweak-key input whose encryption pads this line's MAC: the
    /// same block with address bit 0 set, which no 64-byte-aligned line
    /// address has.
    pub fn mac_pad(self) -> Tweak {
        Tweak {
            address: self.address | 1,
            ..self
        }
    }
}

/// The two tweak-key outputs one protected line needs, from
/// [`AesXts::line_pads`] or two adjacent slots of a
/// [`tweak_blocks`](AesXts::tweak_blocks) pass over `[tweak,
/// tweak.mac_pad()]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LinePads {
    /// The encrypted XTS data-unit tweak, for the `_with_tweak` entry
    /// points.
    pub tweak: [u8; 16],
    /// The one-time pad of the line's tag, for
    /// [`LineMac::tag`](crate::mac::LineMac::tag).
    pub mac_pad: [u8; 16],
}

impl std::fmt::Debug for LinePads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Pad and tag together give away the line's hash.
        f.debug_struct("LinePads")
            .field("pads", &"<redacted>")
            .finish()
    }
}

/// AES-128-XTS for whole 16-byte sectors (IEEE 1619-2007 without ciphertext
/// stealing).
///
/// The memory protection engine encrypts each 64-byte cache block as four
/// consecutive sectors under one data-unit tweak.
///
/// # Examples
///
/// ```
/// use toleo_crypto::modes::{AesXts, Tweak};
///
/// let xts = AesXts::new(b"data-unit key 1!", b"tweak key 2 ....");
/// let tweak = Tweak { version: 7, address: 0x4000 };
/// let mut block = [0xabu8; 64];
/// xts.encrypt(tweak, &mut block);
/// assert_ne!(block, [0xabu8; 64]);
/// xts.decrypt(tweak, &mut block);
/// assert_eq!(block, [0xabu8; 64]);
/// ```
// audit: allow(secret, Aes128's manual Debug impl already redacts its round keys)
#[derive(Debug, Clone)]
pub struct AesXts {
    data_cipher: Aes128,
    tweak_cipher: Aes128,
}

impl AesXts {
    /// Creates an XTS cipher from the data key and the tweak key.
    pub fn new(data_key: &[u8; 16], tweak_key: &[u8; 16]) -> Self {
        AesXts {
            data_cipher: Aes128::new(data_key),
            tweak_cipher: Aes128::new(tweak_key),
        }
    }

    /// Creates an XTS cipher pinned to an explicit AES backend (testing
    /// and benchmarking; falls back to software if `kind` is unavailable).
    pub fn with_backend(
        data_key: &[u8; 16],
        tweak_key: &[u8; 16],
        kind: crate::backend::BackendKind,
    ) -> Self {
        AesXts {
            data_cipher: Aes128::with_backend(data_key, kind),
            tweak_cipher: Aes128::with_backend(tweak_key, kind),
        }
    }

    /// The backend the data cipher dispatches to.
    pub fn backend(&self) -> crate::backend::BackendKind {
        self.data_cipher.backend()
    }

    /// Encrypts the data-unit tweak once; per-16-byte-unit tweaks are then
    /// derived by GF(2^128) doubling, so a 64-byte cache block costs one
    /// tweak encryption plus four data-block encryptions.
    ///
    /// The returned bundle can be precomputed (and batched via
    /// [`tweak_blocks`](Self::tweak_blocks)) and replayed through the
    /// `_with_tweak` entry points, which is how the protection engine
    /// amortizes tweak encryption across a page walk. A protected line
    /// wants [`line_pads`](Self::line_pads) instead: the same tweak plus
    /// its MAC pad for one AES latency.
    pub fn tweak_block(&self, tweak: Tweak) -> [u8; 16] {
        self.tweak_cipher.encrypt_block(&tweak.to_bytes())
    }

    /// Encrypts a whole run of data-unit tweaks through the pipelined
    /// multi-block API (tweak encryptions are mutually independent, so
    /// eight can be in flight at once). `out` receives one tweak bundle
    /// per input at the same index.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `tweaks`.
    pub fn tweak_blocks(&self, tweaks: &[Tweak], out: &mut [[u8; 16]]) {
        // audit: allow(secret, only the tweak count reaches the panic message, never tweak values)
        assert!(out.len() >= tweaks.len(), "output bundle slice too short");
        for (slot, tweak) in out.iter_mut().zip(tweaks.iter()) {
            *slot = tweak.to_bytes();
        }
        self.tweak_cipher.encrypt_blocks(&mut out[..tweaks.len()]);
    }

    /// Encrypts `data` (length must be a multiple of 16) in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() % 16 != 0`.
    pub fn encrypt(&self, tweak: Tweak, data: &mut [u8]) {
        self.encrypt_with_tweak(self.tweak_block(tweak), data);
    }

    /// Decrypts `data` (length must be a multiple of 16) in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() % 16 != 0`.
    pub fn decrypt(&self, tweak: Tweak, data: &mut [u8]) {
        self.decrypt_with_tweak(self.tweak_block(tweak), data);
    }

    /// Encrypts `data` in place under a precomputed
    /// [`tweak_block`](Self::tweak_block) bundle: each whole 64-byte line
    /// is one line-kernel call (four sectors in flight), a sub-line tail
    /// goes one sector at a time.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() % 16 != 0`.
    pub fn encrypt_with_tweak(&self, tweak0: [u8; 16], data: &mut [u8]) {
        self.apply_with_tweak(tweak0, data, true);
    }

    /// Decrypts `data` in place under a precomputed tweak bundle.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() % 16 != 0`.
    pub fn decrypt_with_tweak(&self, tweak0: [u8; 16], data: &mut [u8]) {
        self.apply_with_tweak(tweak0, data, false);
    }

    /// Encrypts the XTS tweak of the line at `tweak` and the pad of its
    /// MAC in one two-lane pass under the tweak key
    /// ([`Aes128::encrypt_pair`]): the pad costs a lane, not a latency.
    ///
    /// # Panics
    ///
    /// Panics if `tweak.address` is not 64-byte aligned — the pad input
    /// would then be some other sector's tweak input.
    #[inline]
    pub fn line_pads(&self, tweak: Tweak) -> LinePads {
        let aligned = tweak.address.is_multiple_of(64);
        assert!(aligned, "line address must be 64-byte aligned");
        let [tweak, mac_pad] = self
            .tweak_cipher
            .encrypt_pair(tweak.packed(), tweak.mac_pad().packed());
        LinePads { tweak, mac_pad }
    }

    /// Encrypts one 64-byte cache line in place under a
    /// [`line_pads`](Self::line_pads) / [`tweak_block`](Self::tweak_block)
    /// tweak: α-multiples and the four sector XEXes are one
    /// [`Aes128::xts_line`] call — on a hardware backend, one kernel.
    #[inline]
    pub fn encrypt_line_with_tweak(&self, tweak0: [u8; 16], line: &mut [u8; 64]) {
        self.data_cipher.xts_line(tweak0, true, line);
    }

    /// Decrypts one 64-byte cache line in place under an encrypted tweak.
    #[inline]
    pub fn decrypt_line_with_tweak(&self, tweak0: [u8; 16], line: &mut [u8; 64]) {
        self.data_cipher.xts_line(tweak0, false, line);
    }

    /// Walks `data` as whole 64-byte lines through the line kernel, then
    /// any sub-line tail one sector at a time; `t` carries the running
    /// α-multiple across both.
    fn apply_with_tweak(&self, tweak0: [u8; 16], data: &mut [u8], encrypt: bool) {
        assert_eq!(data.len() % 16, 0, "XTS data must be whole sectors");
        let mut t = tweak0;
        let (lines, tail) = data.as_chunks_mut::<64>();
        for line in lines {
            self.data_cipher.xts_line(t, encrypt, line);
            for _ in 0..4 {
                gf128_mul_alpha(&mut t);
            }
        }
        for sector in tail.as_chunks_mut::<16>().0 {
            xor16(sector, &t);
            *sector = if encrypt {
                self.data_cipher.encrypt_block(sector)
            } else {
                self.data_cipher.decrypt_block(sector)
            };
            xor16(sector, &t);
            gf128_mul_alpha(&mut t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference::RefAes128;
    use proptest::prelude::*;

    /// Byte-wise GF(2^128) doubling, as originally implemented — the
    /// oracle for the u128 fast path.
    fn ref_gf128_mul_alpha(block: &mut [u8; 16]) {
        let mut carry = 0u8;
        for b in block.iter_mut() {
            let new_carry = *b >> 7;
            *b = (*b << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            block[0] ^= 0x87;
        }
    }

    /// XTS over the byte-oriented reference cipher: the oracle for
    /// [`AesXts`].
    fn ref_xts(
        data_key: &[u8; 16],
        tweak_key: &[u8; 16],
        tweak: Tweak,
        data: &mut [u8],
        encrypt: bool,
    ) {
        let data_cipher = RefAes128::new(data_key);
        let mut t = RefAes128::new(tweak_key).encrypt_block(&tweak.to_bytes());
        for chunk in data.chunks_mut(16) {
            let mut block: [u8; 16] = chunk.try_into().unwrap();
            for (b, k) in block.iter_mut().zip(t.iter()) {
                *b ^= k;
            }
            block = if encrypt {
                data_cipher.encrypt_block(&block)
            } else {
                data_cipher.decrypt_block(&block)
            };
            for (b, k) in block.iter_mut().zip(t.iter()) {
                *b ^= k;
            }
            chunk.copy_from_slice(&block);
            ref_gf128_mul_alpha(&mut t);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// u128 GF doubling agrees with the byte-wise original.
        #[test]
        fn gf128_matches_reference(block in proptest::array::uniform16(any::<u8>())) {
            let mut fast = block;
            let mut slow = block;
            gf128_mul_alpha(&mut fast);
            ref_gf128_mul_alpha(&mut slow);
            prop_assert_eq!(fast, slow);
        }

        /// The optimized XTS agrees with XTS over the reference cipher on
        /// random keys and tweaks, both directions, on every backend, at
        /// every length from 16 to 160 bytes: sector tails alone, whole
        /// lines, and lines followed by a tail.
        #[test]
        fn xts_matches_reference(
            data_key in proptest::array::uniform16(any::<u8>()),
            tweak_key in proptest::array::uniform16(any::<u8>()),
            version in any::<u64>(),
            address in any::<u64>(),
            sectors in 1usize..11,
            seed in any::<u8>(),
        ) {
            let tweak = Tweak { version, address };
            let data: Vec<u8> = (0..sectors * 16).map(|i| seed.wrapping_add(i as u8)).collect();
            let mut slow = data.clone();
            ref_xts(&data_key, &tweak_key, tweak, &mut slow, true);
            for kind in crate::backend::available_backends() {
                let xts = AesXts::with_backend(&data_key, &tweak_key, kind);
                let mut fast = data.clone();
                xts.encrypt(tweak, &mut fast);
                prop_assert!(fast == slow, "{} encrypt", kind.name());
                xts.decrypt(tweak, &mut fast);
                prop_assert!(fast == data, "{} decrypt", kind.name());
            }
            ref_xts(&data_key, &tweak_key, tweak, &mut slow, false);
            prop_assert_eq!(&slow, &data);
        }

        /// `line_pads` is the reference cipher's encryption of the tweak
        /// block and of the same block with address bit 0 set, and the
        /// line kernel under its tweak agrees with XTS over the reference
        /// cipher in both directions, on every backend.
        #[test]
        fn line_kernel_matches_reference(
            data_key in proptest::array::uniform16(any::<u8>()),
            tweak_key in proptest::array::uniform16(any::<u8>()),
            version in any::<u64>(),
            line_index in any::<u64>(),
            seed in any::<u8>(),
        ) {
            let tweak = Tweak { version, address: line_index << 6 };
            let oracle = RefAes128::new(&tweak_key);
            let mut pad_input = tweak.to_bytes();
            pad_input[8] |= 1;
            let expect = LinePads {
                tweak: oracle.encrypt_block(&tweak.to_bytes()),
                mac_pad: oracle.encrypt_block(&pad_input),
            };
            let plain: [u8; 64] = core::array::from_fn(|i| seed.wrapping_mul(i as u8 | 1));
            let mut sealed = plain;
            ref_xts(&data_key, &tweak_key, tweak, &mut sealed, true);
            // Decryption of arbitrary bytes, not only of valid ciphertext.
            let mut unsealed = plain;
            ref_xts(&data_key, &tweak_key, tweak, &mut unsealed, false);
            for kind in crate::backend::available_backends() {
                let xts = AesXts::with_backend(&data_key, &tweak_key, kind);
                let pads = xts.line_pads(tweak);
                prop_assert!(pads == expect, "{} line_pads", kind.name());
                prop_assert_eq!(pads.tweak, xts.tweak_block(tweak));
                prop_assert_eq!(pads.mac_pad, xts.tweak_block(tweak.mac_pad()));
                let mut line = plain;
                xts.encrypt_line_with_tweak(pads.tweak, &mut line);
                prop_assert!(line == sealed, "{} encrypt_line_with_tweak", kind.name());
                xts.decrypt_line_with_tweak(pads.tweak, &mut line);
                prop_assert!(line == plain, "{} roundtrip", kind.name());
                xts.decrypt_line_with_tweak(pads.tweak, &mut line);
                prop_assert!(line == unsealed, "{} decrypt_line_with_tweak", kind.name());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Precomputing tweak bundles in a batch and replaying them via
        /// the `_with_tweak` entry points is identical to the one-shot
        /// API, for every backend this host enables.
        #[test]
        fn precomputed_tweaks_match_one_shot(
            data_key in proptest::array::uniform16(any::<u8>()),
            tweak_key in proptest::array::uniform16(any::<u8>()),
            versions in proptest::collection::vec(any::<u64>(), 1..12),
            address in any::<u64>(),
            seed in any::<u8>(),
        ) {
            for kind in crate::backend::available_backends() {
                let xts = AesXts::with_backend(&data_key, &tweak_key, kind);
                let tweaks: Vec<Tweak> = versions
                    .iter()
                    .map(|&v| Tweak { version: v, address })
                    .collect();
                let mut bundles = vec![[0u8; 16]; tweaks.len()];
                xts.tweak_blocks(&tweaks, &mut bundles);
                for (tw, bundle) in tweaks.iter().zip(bundles.iter()) {
                    prop_assert_eq!(*bundle, xts.tweak_block(*tw));
                    let data: Vec<u8> = (0..64).map(|i| seed.wrapping_add(i)).collect();
                    let mut one_shot = data.clone();
                    xts.encrypt(*tw, &mut one_shot);
                    let mut replayed = data.clone();
                    xts.encrypt_with_tweak(*bundle, &mut replayed);
                    prop_assert_eq!(&one_shot, &replayed);
                    xts.decrypt_with_tweak(*bundle, &mut replayed);
                    prop_assert_eq!(&replayed, &data);
                }
            }
        }

        /// XTS produces identical bytes on every enabled backend
        /// (hardware and software are interchangeable bit-for-bit).
        #[test]
        fn modes_agree_across_backends(
            key in proptest::array::uniform16(any::<u8>()),
            key2 in proptest::array::uniform16(any::<u8>()),
            version in any::<u64>(),
            address in any::<u64>(),
            sectors in 1usize..10,
            seed in any::<u8>(),
        ) {
            let data: Vec<u8> = (0..sectors * 16).map(|i| seed.wrapping_add(i as u8)).collect();
            let tweak = Tweak { version, address };
            let mut reference: Option<Vec<u8>> = None;
            for kind in crate::backend::available_backends() {
                let mut xts_out = data.clone();
                AesXts::with_backend(&key, &key2, kind).encrypt(tweak, &mut xts_out);
                match &reference {
                    None => reference = Some(xts_out),
                    Some(x) => prop_assert_eq!(&xts_out, x),
                }
            }
        }
    }

    fn unhex<const N: usize>(hex: &str) -> [u8; N] {
        assert_eq!(hex.len(), 2 * N);
        core::array::from_fn(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
    }

    /// Every way of sealing one line must produce `expect`: the slice
    /// API, the line kernel, and a precomputed bundle replayed through
    /// the slice API. `pt` may be shorter than a line; the kernel then
    /// runs on it zero-padded (sectors are independent without stealing).
    fn assert_seals_to(xts: &AesXts, tweak: Tweak, pt: &[u8], expect: &[u8], what: &str) {
        let mut via_slice = pt.to_vec();
        xts.encrypt(tweak, &mut via_slice);
        assert_eq!(via_slice, expect, "{what}: encrypt");
        let mut line = [0u8; 64];
        line[..pt.len()].copy_from_slice(pt);
        xts.encrypt_line_with_tweak(xts.line_pads(tweak).tweak, &mut line);
        assert_eq!(&line[..pt.len()], expect, "{what}: line_pads + line kernel");
        let mut via_bundle = pt.to_vec();
        xts.encrypt_with_tweak(xts.tweak_block(tweak), &mut via_bundle);
        assert_eq!(
            via_bundle, expect,
            "{what}: tweak_block + encrypt_with_tweak"
        );
        xts.decrypt(tweak, &mut via_bundle);
        assert_eq!(via_bundle, pt, "{what}: decrypt");
    }

    /// IEEE 1619-2007 Annex B, XTS-AES-128 vectors 1-3 (32-byte data
    /// units). The data-unit sequence number is the low 64 bits of the
    /// little-endian tweak block, i.e. `version`; `address` is zero.
    #[test]
    fn ieee1619_xts_aes128_vectors_per_backend() {
        let vectors: [(&str, &str, u64, &str, &str); 3] = [
            (
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                0,
                "0000000000000000000000000000000000000000000000000000000000000000",
                "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e",
            ),
            (
                "11111111111111111111111111111111",
                "22222222222222222222222222222222",
                0x33_3333_3333,
                "4444444444444444444444444444444444444444444444444444444444444444",
                "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0",
            ),
            (
                "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0",
                "22222222222222222222222222222222",
                0x33_3333_3333,
                "4444444444444444444444444444444444444444444444444444444444444444",
                "af85336b597afc1a900b2eb21ec949d292df4c047e0b21532186a5971a227a89",
            ),
        ];
        for kind in crate::backend::available_backends() {
            for (i, (key1, key2, seq, ptx, ctx)) in vectors.iter().enumerate() {
                let xts = AesXts::with_backend(&unhex(key1), &unhex(key2), kind);
                let tweak = Tweak {
                    version: *seq,
                    address: 0,
                };
                let what = format!("{} vector {}", kind.name(), i + 1);
                assert_seals_to(&xts, tweak, &unhex::<32>(ptx), &unhex::<32>(ctx), &what);
            }
        }
    }

    /// One 64-byte line with its ciphertext pinned from the commit before
    /// the line kernel existed (the bytes an engine leaves in untrusted
    /// memory did not change, on any backend), its MAC pad and line tag
    /// pinned from an independent computation (OpenSSL's AES, Python
    /// integers), and the SipHash tag `MacKey` gives the same line.
    #[test]
    fn pinned_line_ciphertext_and_tag_per_backend() {
        let data_key: [u8; 16] = core::array::from_fn(|i| 0x10 + i as u8);
        let tweak_key: [u8; 16] = core::array::from_fn(|i| 0xa0 + i as u8);
        let mac_key: [u8; 16] = core::array::from_fn(|i| 0x55 ^ (i as u8 * 7));
        let tweak = Tweak {
            version: 0x0123_4567_89ab_cdef,
            address: 0x0000_19f3_c0de_0040,
        };
        let pt: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(3).wrapping_add(1));
        let ct: [u8; 64] = unhex(
            "9408dbe33203b60e8c73fe6befe1c2c3d3ac5515f65d1c92cbe8cb6d5f2ddad7\
             262ef2fe0abc968ac0f912ff15a310f8588d7eb9177c34eba367d7b709225b1e",
        );
        for kind in crate::backend::available_backends() {
            let xts = AesXts::with_backend(&data_key, &tweak_key, kind);
            assert_eq!(
                xts.tweak_block(tweak),
                unhex("bd2bbbe60f49d4091920553d48abde9c"),
                "{} tweak bundle",
                kind.name()
            );
            assert_seals_to(&xts, tweak, &pt, &ct, kind.name());
            let pads = xts.line_pads(tweak);
            assert_eq!(
                pads.mac_pad,
                unhex("e629507467169b0741f36b354aa67f9c"),
                "{} MAC pad",
                kind.name()
            );
            let tag = crate::mac::LineMac::new(&mac_key).tag(&pads.mac_pad, &ct);
            assert_eq!(tag.as_raw(), 0x8_a5ea_d5fb_4256, "{} line tag", kind.name());
            let tag = crate::mac::MacKey::new(mac_key).mac(tweak.version, tweak.address, &ct);
            assert_eq!(tag.as_raw(), 0xe3_97d1_67b4_27b9, "{} tag", kind.name());
        }
    }

    #[test]
    fn xts_roundtrip_64_bytes() {
        let xts = AesXts::new(&[1u8; 16], &[2u8; 16]);
        let orig: Vec<u8> = (0..64u8).collect();
        let mut buf = orig.clone();
        let tw = Tweak {
            version: 99,
            address: 0xdead_beef,
        };
        xts.encrypt(tw, &mut buf);
        assert_ne!(buf, orig);
        xts.decrypt(tw, &mut buf);
        assert_eq!(buf, orig);
    }

    #[test]
    fn xts_same_data_same_tweak_same_ct() {
        // This is the scalable-SGX confidentiality weakness: deterministic
        // encryption under a fixed tweak.
        let xts = AesXts::new(&[1u8; 16], &[2u8; 16]);
        let tw = Tweak {
            version: 0,
            address: 0x1000,
        };
        let mut a = [7u8; 16];
        let mut b = [7u8; 16];
        xts.encrypt(tw, &mut a);
        xts.encrypt(tw, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn xts_version_tweak_breaks_determinism() {
        // Toleo folds the version into the tweak: same write data at the
        // same address yields fresh ciphertext.
        let xts = AesXts::new(&[1u8; 16], &[2u8; 16]);
        let mut a = [7u8; 16];
        let mut b = [7u8; 16];
        xts.encrypt(
            Tweak {
                version: 1,
                address: 0x1000,
            },
            &mut a,
        );
        xts.encrypt(
            Tweak {
                version: 2,
                address: 0x1000,
            },
            &mut b,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn xts_blocks_are_position_dependent() {
        let xts = AesXts::new(&[1u8; 16], &[2u8; 16]);
        let tw = Tweak {
            version: 5,
            address: 0,
        };
        let mut buf = [9u8; 32];
        xts.encrypt(tw, &mut buf);
        assert_ne!(
            buf[..16],
            buf[16..],
            "sequential sectors must differ via alpha tweak"
        );
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn xts_rejects_partial_sector() {
        let xts = AesXts::new(&[1u8; 16], &[2u8; 16]);
        let mut buf = [0u8; 15];
        xts.encrypt(
            Tweak {
                version: 0,
                address: 0,
            },
            &mut buf,
        );
    }

    #[test]
    fn gf128_known_doubling() {
        let mut t = [0u8; 16];
        t[0] = 0x80; // high bit of first byte -> shifts within the byte
        gf128_mul_alpha(&mut t);
        assert_eq!(t[1], 0x01);
        // Overflow of the topmost bit folds back the polynomial 0x87.
        let mut t = [0u8; 16];
        t[15] = 0x80;
        gf128_mul_alpha(&mut t);
        assert_eq!(t[0], 0x87);
        assert_eq!(t[15], 0x00);
    }
}
