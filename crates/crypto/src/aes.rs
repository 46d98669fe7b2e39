//! AES-128 block cipher implemented from scratch (FIPS-197).
//!
//! This is the cipher substrate the Toleo memory-protection engine uses for
//! AES-XTS (data confidentiality, scalable-SGX style). The *latency* of
//! the hardware AES engine (40 cycles in the paper's Table 3) is modelled
//! separately in `toleo-sim`; this implementation is about
//! functional-engine wall-clock.
//!
//! [`Aes128`] is a thin dispatcher over the pluggable [`crate::backend`]
//! layer: at construction it selects the best [`BackendKind`] the host
//! offers (x86_64 AES-NI, aarch64 crypto extensions, or the portable
//! [`TtableAes`] software fallback) and every operation — single blocks,
//! the [`encrypt_blocks`](Aes128::encrypt_blocks) multi-block API for
//! independent blocks, [`encrypt_pair`](Aes128::encrypt_pair) for two
//! blocks in registers, and [`xts_line`](Aes128::xts_line), a whole
//! 64-byte XTS line as one backend call — routes to that backend with a
//! single enum match.
//!
//! [`TtableAes`] is the classic T-table formulation: SubBytes, ShiftRows
//! and MixColumns are fused into four 256-entry u32 lookup tables per
//! direction (built at compile time from the S-box), the state is held as
//! four u32 column words, and the key schedule — including the
//! InvMixColumns-transformed decryption round keys of the equivalent
//! inverse cipher — is expanded once at construction. Table lookups are
//! the classic AES cache-timing side channel, which is one more reason the
//! hardware backends are preferred whenever the host supports them.
//!
//! The original byte-oriented implementation is retained under
//! `#[cfg(test)]` as [`reference`] and every backend is property-tested
//! for equivalence against it over random keys and blocks.
//!
//! # Examples
//!
//! ```
//! use toleo_crypto::aes::Aes128;
//!
//! let key = [0u8; 16];
//! let aes = Aes128::new(&key);
//! let pt = *b"attack at dawn!!";
//! let ct = aes.encrypt_block(&pt);
//! assert_eq!(aes.decrypt_block(&ct), pt);
//! ```

// audit: allow-file(indexing, state words and T-table lookups use 8-bit indices into 256-entry tables and fixed-width round-key arrays)

use crate::backend::{Aes128Backend, BackendKind};

/// Number of 32-bit words in an AES-128 key.
const NK: usize = 4;
/// Number of rounds for AES-128.
const NR: usize = 10;

/// The AES S-box.
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse AES S-box.
#[rustfmt::skip]
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (0x1b * (b >> 7))
}

/// General GF(2^8) multiplication (small multiplier, used for table
/// construction and by the reference MixColumns).
#[inline]
const fn gmul(a: u8, b: u8) -> u8 {
    let mut p = 0u8;
    let mut a = a;
    let mut b = b;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// Builds the four forward T-tables. `TE[0][x]` packs one MixColumns column
/// of `SBOX[x]` as `(2s, s, s, 3s)` big-endian; `TE[k]` is the same word
/// rotated right by `8k` bits, so one table lookup per state byte covers
/// SubBytes, ShiftRows (via the byte the caller picks) and MixColumns.
const fn build_enc_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let w = ((xtime(s) as u32) << 24)
            | ((s as u32) << 16)
            | ((s as u32) << 8)
            | (xtime(s) ^ s) as u32;
        t[0][x] = w;
        t[1][x] = w.rotate_right(8);
        t[2][x] = w.rotate_right(16);
        t[3][x] = w.rotate_right(24);
        x += 1;
    }
    t
}

/// Builds the four inverse T-tables: `TD[0][x]` packs the InvMixColumns
/// column of `INV_SBOX[x]` as `(14s, 9s, 13s, 11s)` big-endian.
const fn build_dec_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = INV_SBOX[x];
        let w = ((gmul(s, 0x0e) as u32) << 24)
            | ((gmul(s, 0x09) as u32) << 16)
            | ((gmul(s, 0x0d) as u32) << 8)
            | gmul(s, 0x0b) as u32;
        t[0][x] = w;
        t[1][x] = w.rotate_right(8);
        t[2][x] = w.rotate_right(16);
        t[3][x] = w.rotate_right(24);
        x += 1;
    }
    t
}

/// Forward T-tables (SubBytes + ShiftRows + MixColumns fused).
static TE: [[u32; 256]; 4] = build_enc_tables();
/// Inverse T-tables (InvSubBytes + InvShiftRows + InvMixColumns fused).
static TD: [[u32; 256]; 4] = build_dec_tables();

/// InvMixColumns of a round-key word, expressed through the TD tables:
/// `TD[k][x]` applies InvMixColumns to `INV_SBOX[x]`, so indexing with
/// `SBOX[byte]` cancels the S-box and leaves pure InvMixColumns.
#[inline]
fn inv_mix_word(w: u32) -> u32 {
    TD[0][SBOX[(w >> 24) as usize] as usize]
        ^ TD[1][SBOX[(w >> 16) as usize & 0xff] as usize]
        ^ TD[2][SBOX[(w >> 8) as usize & 0xff] as usize]
        ^ TD[3][SBOX[w as usize & 0xff] as usize]
}

/// The portable T-table software backend: an expanded AES-128 key ready
/// for block encryption/decryption on any architecture.
///
/// Construct with [`TtableAes::new`]; both the 44 encryption round-key
/// words and the InvMixColumns-transformed decryption round keys of the
/// equivalent inverse cipher are precomputed. Most callers should use
/// [`Aes128`], which picks a hardware backend when one is available.
#[derive(Clone)]
pub struct TtableAes {
    /// Encryption round keys, one u32 per state column, big-endian packed.
    ek: [u32; 4 * (NR + 1)],
    /// Decryption round keys for the equivalent inverse cipher.
    dk: [u32; 4 * (NR + 1)],
}

impl std::fmt::Debug for TtableAes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("TtableAes")
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl TtableAes {
    /// Expands `key` into encryption and decryption round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut ek = [0u32; 4 * (NR + 1)];
        for (i, chunk) in key.as_chunks::<4>().0.iter().enumerate() {
            ek[i] = u32::from_be_bytes(*chunk);
        }
        for i in NK..4 * (NR + 1) {
            let mut temp = ek[i - 1];
            if i % NK == 0 {
                let r = temp.rotate_left(8);
                temp = ((SBOX[(r >> 24) as usize] as u32) << 24)
                    | ((SBOX[(r >> 16) as usize & 0xff] as u32) << 16)
                    | ((SBOX[(r >> 8) as usize & 0xff] as u32) << 8)
                    | SBOX[r as usize & 0xff] as u32;
                temp ^= (RCON[i / NK - 1] as u32) << 24;
            }
            ek[i] = ek[i - NK] ^ temp;
        }
        // Equivalent inverse cipher: reverse the round order and apply
        // InvMixColumns to every round key except the first and last.
        let mut dk = [0u32; 4 * (NR + 1)];
        for r in 0..=NR {
            for j in 0..4 {
                let w = ek[4 * (NR - r) + j];
                dk[4 * r + j] = if r == 0 || r == NR {
                    w
                } else {
                    inv_mix_word(w)
                };
            }
        }
        TtableAes { ek, dk }
    }

    /// Raw big-endian (encryption, decryption) round-key words. The
    /// aarch64 hardware backend reuses this scalar key schedule (ARMv8 has
    /// no keygen-assist instruction).
    #[cfg(target_arch = "aarch64")]
    pub(crate) fn round_key_words(&self) -> (&[u32; 4 * (NR + 1)], &[u32; 4 * (NR + 1)]) {
        (&self.ek, &self.dk)
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.ek;
        let words = block.as_chunks::<4>().0;
        let mut s0 = u32::from_be_bytes(words[0]) ^ rk[0];
        let mut s1 = u32::from_be_bytes(words[1]) ^ rk[1];
        let mut s2 = u32::from_be_bytes(words[2]) ^ rk[2];
        let mut s3 = u32::from_be_bytes(words[3]) ^ rk[3];
        // Middle rounds: iterate round keys by 4-word chunks so the
        // compiler sees in-bounds indexing without checks.
        for k in rk[4..4 * NR].chunks_exact(4) {
            let t0 = TE[0][(s0 >> 24) as usize]
                ^ TE[1][(s1 >> 16) as usize & 0xff]
                ^ TE[2][(s2 >> 8) as usize & 0xff]
                ^ TE[3][s3 as usize & 0xff]
                ^ k[0];
            let t1 = TE[0][(s1 >> 24) as usize]
                ^ TE[1][(s2 >> 16) as usize & 0xff]
                ^ TE[2][(s3 >> 8) as usize & 0xff]
                ^ TE[3][s0 as usize & 0xff]
                ^ k[1];
            let t2 = TE[0][(s2 >> 24) as usize]
                ^ TE[1][(s3 >> 16) as usize & 0xff]
                ^ TE[2][(s0 >> 8) as usize & 0xff]
                ^ TE[3][s1 as usize & 0xff]
                ^ k[2];
            let t3 = TE[0][(s3 >> 24) as usize]
                ^ TE[1][(s0 >> 16) as usize & 0xff]
                ^ TE[2][(s1 >> 8) as usize & 0xff]
                ^ TE[3][s2 as usize & 0xff]
                ^ k[3];
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }
        // Final round: SubBytes + ShiftRows only.
        let k = 4 * NR;
        let o0 = sub_word_shifted(s0, s1, s2, s3) ^ rk[k];
        let o1 = sub_word_shifted(s1, s2, s3, s0) ^ rk[k + 1];
        let o2 = sub_word_shifted(s2, s3, s0, s1) ^ rk[k + 2];
        let o3 = sub_word_shifted(s3, s0, s1, s2) ^ rk[k + 3];
        pack_state(o0, o1, o2, o3)
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.dk;
        let words = block.as_chunks::<4>().0;
        let mut s0 = u32::from_be_bytes(words[0]) ^ rk[0];
        let mut s1 = u32::from_be_bytes(words[1]) ^ rk[1];
        let mut s2 = u32::from_be_bytes(words[2]) ^ rk[2];
        let mut s3 = u32::from_be_bytes(words[3]) ^ rk[3];
        for k in rk[4..4 * NR].chunks_exact(4) {
            let t0 = TD[0][(s0 >> 24) as usize]
                ^ TD[1][(s3 >> 16) as usize & 0xff]
                ^ TD[2][(s2 >> 8) as usize & 0xff]
                ^ TD[3][s1 as usize & 0xff]
                ^ k[0];
            let t1 = TD[0][(s1 >> 24) as usize]
                ^ TD[1][(s0 >> 16) as usize & 0xff]
                ^ TD[2][(s3 >> 8) as usize & 0xff]
                ^ TD[3][s2 as usize & 0xff]
                ^ k[1];
            let t2 = TD[0][(s2 >> 24) as usize]
                ^ TD[1][(s1 >> 16) as usize & 0xff]
                ^ TD[2][(s0 >> 8) as usize & 0xff]
                ^ TD[3][s3 as usize & 0xff]
                ^ k[2];
            let t3 = TD[0][(s3 >> 24) as usize]
                ^ TD[1][(s2 >> 16) as usize & 0xff]
                ^ TD[2][(s1 >> 8) as usize & 0xff]
                ^ TD[3][s0 as usize & 0xff]
                ^ k[3];
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }
        // Final round: InvSubBytes + InvShiftRows only.
        let k = 4 * NR;
        let o0 = inv_sub_word_shifted(s0, s3, s2, s1) ^ rk[k];
        let o1 = inv_sub_word_shifted(s1, s0, s3, s2) ^ rk[k + 1];
        let o2 = inv_sub_word_shifted(s2, s1, s0, s3) ^ rk[k + 2];
        let o3 = inv_sub_word_shifted(s3, s2, s1, s0) ^ rk[k + 3];
        pack_state(o0, o1, o2, o3)
    }
}

impl Aes128Backend for TtableAes {
    fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        TtableAes::encrypt_block(self, block)
    }

    fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        TtableAes::decrypt_block(self, block)
    }
}

/// AES-128 with the backend chosen at construction.
///
/// [`Aes128::new`] consults [`crate::backend::default_backend`]: hardware
/// AES (AES-NI / ARMv8-CE) when the host supports it, the T-table software
/// cipher otherwise, overridable through the `TOLEO_AES_BACKEND`
/// environment variable. The choice is per-instance and immutable, so a
/// protection engine built with one backend keeps it for life.
#[derive(Clone)]
pub struct Aes128 {
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    Soft(TtableAes),
    #[cfg(target_arch = "x86_64")]
    AesNi(crate::backend::AesNiAes),
    #[cfg(target_arch = "aarch64")]
    ArmCe(crate::backend::ArmCeAes),
}

/// Dispatches `$body` to the selected backend with `$b` bound to it.
macro_rules! dispatch {
    ($self:expr, $b:ident => $body:expr) => {
        match &$self.inner {
            Inner::Soft($b) => $body,
            #[cfg(target_arch = "x86_64")]
            Inner::AesNi($b) => $body,
            #[cfg(target_arch = "aarch64")]
            Inner::ArmCe($b) => $body,
        }
    };
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128")
            .field("backend", &self.backend().name())
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands `key` under the process-default backend.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, crate::backend::default_backend())
    }

    /// Expands `key` under an explicit backend. If `kind` is not available
    /// on this host the portable software backend is used instead, so the
    /// result is always functional (and always computes the same cipher).
    pub fn with_backend(key: &[u8; 16], kind: BackendKind) -> Self {
        let inner = match kind {
            #[cfg(target_arch = "x86_64")]
            BackendKind::AesNi => match crate::backend::AesNiAes::new(key) {
                Some(hw) => Inner::AesNi(hw),
                None => Inner::Soft(TtableAes::new(key)),
            },
            #[cfg(target_arch = "aarch64")]
            BackendKind::ArmCe => match crate::backend::ArmCeAes::new(key) {
                Some(hw) => Inner::ArmCe(hw),
                None => Inner::Soft(TtableAes::new(key)),
            },
            _ => Inner::Soft(TtableAes::new(key)),
        };
        Aes128 { inner }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> BackendKind {
        match &self.inner {
            Inner::Soft(_) => BackendKind::Software,
            #[cfg(target_arch = "x86_64")]
            Inner::AesNi(_) => BackendKind::AesNi,
            #[cfg(target_arch = "aarch64")]
            Inner::ArmCe(_) => BackendKind::ArmCe,
        }
    }

    /// Encrypts one 16-byte block.
    #[inline]
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        dispatch!(self, b => b.encrypt_block(block))
    }

    /// Decrypts one 16-byte block.
    #[inline]
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        dispatch!(self, b => b.decrypt_block(block))
    }

    /// Encrypts eight independent blocks in place, exploiting the
    /// instruction-level parallelism of hardware AES.
    #[inline]
    pub fn encrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        dispatch!(self, b => b.encrypt_blocks8(blocks))
    }

    /// Decrypts eight independent blocks in place.
    #[inline]
    pub fn decrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        dispatch!(self, b => b.decrypt_blocks8(blocks))
    }

    /// Encrypts any number of independent blocks in place, pipelining in
    /// groups of up to eight. The single enum dispatch is paid once per
    /// call, not per block.
    #[inline]
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        dispatch!(self, b => b.encrypt_blocks(blocks))
    }

    /// Decrypts any number of independent blocks in place.
    #[inline]
    pub fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        dispatch!(self, b => b.decrypt_blocks(blocks))
    }

    /// Encrypts two independent blocks given as little-endian integers:
    /// one [`Aes128Backend::encrypt_pair`] call, two lanes of one pass on
    /// a hardware backend.
    #[inline]
    pub fn encrypt_pair(&self, a: u128, b: u128) -> [[u8; 16]; 2] {
        dispatch!(self, c => c.encrypt_pair(a, b))
    }

    /// XTS-encrypts or -decrypts one 64-byte line in place with `self` as
    /// the data cipher under the already-encrypted `tweak`: one
    /// [`Aes128Backend::xts_line`] call.
    #[inline]
    pub fn xts_line(&self, tweak: [u8; 16], encrypt: bool, line: &mut [u8; 64]) {
        dispatch!(self, c => c.xts_line(tweak, encrypt, line))
    }
}

/// SubBytes over the ShiftRows byte selection `(a>>24, b>>16, c>>8, d)`.
#[inline]
fn sub_word_shifted(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((SBOX[(a >> 24) as usize] as u32) << 24)
        | ((SBOX[(b >> 16) as usize & 0xff] as u32) << 16)
        | ((SBOX[(c >> 8) as usize & 0xff] as u32) << 8)
        | SBOX[d as usize & 0xff] as u32
}

/// InvSubBytes over the InvShiftRows byte selection.
#[inline]
fn inv_sub_word_shifted(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((INV_SBOX[(a >> 24) as usize] as u32) << 24)
        | ((INV_SBOX[(b >> 16) as usize & 0xff] as u32) << 16)
        | ((INV_SBOX[(c >> 8) as usize & 0xff] as u32) << 8)
        | INV_SBOX[d as usize & 0xff] as u32
}

#[inline]
fn pack_state(s0: u32, s1: u32, s2: u32, s3: u32) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&s0.to_be_bytes());
    out[4..8].copy_from_slice(&s1.to_be_bytes());
    out[8..12].copy_from_slice(&s2.to_be_bytes());
    out[12..16].copy_from_slice(&s3.to_be_bytes());
    out
}

/// The original byte-oriented FIPS-197 implementation, retained verbatim as
/// the correctness oracle for the T-table cipher. Test-only: production code
/// always uses [`Aes128`].
#[cfg(test)]
pub(crate) mod reference {
    use super::{gmul, xtime, INV_SBOX, NK, NR, RCON, SBOX};

    /// Byte-oriented AES-128 (round keys as 16-byte arrays).
    #[derive(Clone)]
    pub struct RefAes128 {
        round_keys: [[u8; 16]; NR + 1],
    }

    impl RefAes128 {
        /// Expands `key` into round keys.
        pub fn new(key: &[u8; 16]) -> Self {
            let mut w = [[0u8; 4]; 4 * (NR + 1)];
            for (i, chunk) in key.chunks_exact(4).enumerate() {
                w[i].copy_from_slice(chunk);
            }
            for i in NK..4 * (NR + 1) {
                let mut temp = w[i - 1];
                if i % NK == 0 {
                    temp.rotate_left(1);
                    for t in temp.iter_mut() {
                        *t = SBOX[*t as usize];
                    }
                    temp[0] ^= RCON[i / NK - 1];
                }
                for j in 0..4 {
                    w[i][j] = w[i - NK][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; NR + 1];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            RefAes128 { round_keys }
        }

        /// Encrypts one 16-byte block.
        pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let mut state = *block;
            add_round_key(&mut state, &self.round_keys[0]);
            for round in 1..NR {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &self.round_keys[NR]);
            state
        }

        /// Decrypts one 16-byte block.
        pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let mut state = *block;
            add_round_key(&mut state, &self.round_keys[NR]);
            for round in (1..NR).rev() {
                inv_shift_rows(&mut state);
                inv_sub_bytes(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
                inv_mix_columns(&mut state);
            }
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &self.round_keys[0]);
            state
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = INV_SBOX[*s as usize];
        }
    }

    /// State is column-major: state[4*c + r] is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + r) % 4) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + 4 - r) % 4) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] =
                gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
            state[4 * c + 1] =
                gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
            state[4 * c + 2] =
                gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
            state[4 * c + 3] =
                gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expect);
        assert_eq!(aes.decrypt_block(&expect), pt);
        let oracle = reference::RefAes128::new(&key);
        assert_eq!(oracle.encrypt_block(&pt), expect);
        assert_eq!(oracle.decrypt_block(&expect), pt);
    }

    /// FIPS-197 Appendix C.1 vector.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = (0..16u8).collect::<Vec<_>>().try_into().unwrap();
        let pt = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expect);
        assert_eq!(aes.decrypt_block(&expect), pt);
        let oracle = reference::RefAes128::new(&key);
        assert_eq!(oracle.encrypt_block(&pt), expect);
        assert_eq!(oracle.decrypt_block(&expect), pt);
    }

    #[test]
    fn roundtrip_many_blocks() {
        let aes = Aes128::new(b"0123456789abcdef");
        for i in 0..64u64 {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&i.to_le_bytes());
            block[8..].copy_from_slice(&(i.wrapping_mul(0x9e3779b97f4a7c15)).to_le_bytes());
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let pt = [7u8; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }

    #[test]
    fn debug_redacts_key() {
        let aes = Aes128::new(&[9u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains('9'));
    }

    #[test]
    fn gmul_identity_and_known() {
        assert_eq!(gmul(0x57, 0x01), 0x57);
        assert_eq!(gmul(0x57, 0x02), 0xae);
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS-197 example
    }

    #[test]
    fn tables_relate_by_rotation() {
        for x in 0..256usize {
            for k in 1..4usize {
                assert_eq!(TE[k][x], TE[0][x].rotate_right(8 * k as u32));
                assert_eq!(TD[k][x], TD[0][x].rotate_right(8 * k as u32));
            }
        }
    }

    /// Walk the whole byte space through both ciphers at a fixed key.
    #[test]
    fn matches_reference_exhaustive_single_byte_sweep() {
        let key = *b"table-vs-bytes!!";
        let fast = Aes128::new(&key);
        let slow = reference::RefAes128::new(&key);
        for b in 0..=255u8 {
            let block = [b; 16];
            let ct = fast.encrypt_block(&block);
            assert_eq!(ct, slow.encrypt_block(&block), "byte {b:#04x}");
            assert_eq!(fast.decrypt_block(&ct), slow.decrypt_block(&ct));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The T-table cipher agrees with the byte-oriented oracle on
        /// random keys and blocks, both directions.
        #[test]
        fn matches_reference(key in proptest::array::uniform16(any::<u8>()),
                             block in proptest::array::uniform16(any::<u8>())) {
            let fast = Aes128::new(&key);
            let slow = reference::RefAes128::new(&key);
            prop_assert_eq!(fast.encrypt_block(&block), slow.encrypt_block(&block));
            prop_assert_eq!(fast.decrypt_block(&block), slow.decrypt_block(&block));
        }

        /// Roundtrip under the optimized cipher alone.
        #[test]
        fn roundtrip(key in proptest::array::uniform16(any::<u8>()),
                     block in proptest::array::uniform16(any::<u8>())) {
            let aes = Aes128::new(&key);
            prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }
    }
}
