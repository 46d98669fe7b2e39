//! Pluggable AES-128 backends with runtime dispatch.
//!
//! The protection engine is crypto-bound: every 64-byte cache block pays a
//! tweak encryption plus four data-block AES passes, so the cipher
//! implementation decides end-to-end throughput. This module provides
//!
//! * [`Aes128Backend`] — the backend contract: single-block encrypt and
//!   decrypt; a multi-block encrypt ([`encrypt_blocks8`] /
//!   [`encrypt_blocks`]) for callers that hold several *independent*
//!   blocks — a page walk's tweaks — so the pipelined AESENC units see
//!   eight in flight instead of a serial chain at instruction *latency*;
//!   [`encrypt_pair`], two blocks handed over and encrypted in registers
//!   (a line's XTS tweak and its MAC pad); and [`xts_line`], the whole XEX
//!   of one 64-byte cache line (α-multiples, four sectors) as one call.
//! * [`TtableAes`](crate::aes::TtableAes) — the portable software
//!   fallback (re-exported from [`crate::aes`]), and the only backend on
//!   every other architecture. T-table lookups are also the classic AES
//!   cache-timing side channel; prefer hardware.
//! * `AesNiAes` — x86_64 AES-NI, guarded by
//!   `is_x86_feature_detected!("aes")`. Its kernels come in fixed shapes
//!   only — 1, 2, 4 and 8 lanes, and the fused line — with the lane count a
//!   compile-time constant, so the cipher state is XMM registers from
//!   load to store; other counts are composed from the 8-, 4- and 1-lane
//!   kernels.
//!
//! A platform backend is added only with a host that compiles and times
//! it: the kernels here are the ones CI builds and runs.
//!
//! Selection happens **once at cipher construction**
//! ([`default_backend`]): hardware when detected, overridable for testing
//! with the `TOLEO_AES_BACKEND` environment variable (`software`, `aesni`,
//! `auto`; any other value means detection). CI runs the whole suite once
//! with `TOLEO_AES_BACKEND=software` so the fallback stays covered on
//! runners with AES hardware.
//!
//! [`encrypt_blocks8`]: Aes128Backend::encrypt_blocks8
//! [`encrypt_blocks`]: Aes128Backend::encrypt_blocks
//! [`encrypt_pair`]: Aes128Backend::encrypt_pair
//! [`xts_line`]: Aes128Backend::xts_line

// audit: allow-file(indexing, round-key and lane indices are bounded by the AES-128 schedule: 11 round keys, 8 lanes)

use std::sync::OnceLock;

/// Contract every AES-128 backend fulfills. All methods compute plain
/// FIPS-197 AES-128, so backends are interchangeable bit-for-bit; they
/// differ only in speed and side-channel profile.
pub trait Aes128Backend {
    /// Encrypts one 16-byte block.
    fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16];

    /// Decrypts one 16-byte block.
    fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16];

    /// Encrypts eight independent blocks in place. The default loops over
    /// [`encrypt_block`](Self::encrypt_block); hardware backends override
    /// it with an interleaved schedule that keeps all eight blocks in
    /// flight through the AES pipeline.
    fn encrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
        for b in blocks.iter_mut() {
            *b = self.encrypt_block(b);
        }
    }

    /// Encrypts any number of independent blocks in place, pipelining in
    /// groups of up to eight.
    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        let (groups, rest) = blocks.as_chunks_mut::<8>();
        for lanes in groups {
            self.encrypt_blocks8(lanes);
        }
        for b in rest {
            *b = self.encrypt_block(b);
        }
    }

    /// Encrypts two independent blocks, given as little-endian integers
    /// so a caller that assembles them from `u64`s hands them over in
    /// registers: a 16-byte load over two fresh 8-byte stores cannot be
    /// store-forwarded, and on this path that stall serialises every
    /// protected access (measured: 20 ns for the pair through
    /// [`encrypt_blocks`](Self::encrypt_blocks), 5 ns in registers). The
    /// default is two [`encrypt_block`](Self::encrypt_block) calls; a
    /// hardware backend overrides it with one two-lane kernel, the second
    /// block riding in a pipeline slot the first leaves idle.
    fn encrypt_pair(&self, a: u128, b: u128) -> [[u8; 16]; 2] {
        [a, b].map(|block| self.encrypt_block(&block.to_le_bytes()))
    }

    /// XTS-encrypts (`encrypt`) or -decrypts one 64-byte line in place:
    /// sector `j` is XEXed under `tweak·αʲ` with `self` as the data
    /// cipher, `tweak` being the data-unit tweak already encrypted under
    /// the tweak key. This is the one XEX core of
    /// [`AesXts`](crate::modes::AesXts). The default composes the block
    /// methods above; a hardware backend overrides it with a single
    /// kernel that keeps the tweaks and all four sectors in registers.
    fn xts_line(&self, tweak: [u8; 16], encrypt: bool, line: &mut [u8; 64]) {
        let mut t = tweak;
        let sectors = line.as_chunks_mut::<16>().0;
        let mut tweaks = [[0u8; 16]; 4];
        for (tj, sector) in tweaks.iter_mut().zip(sectors.iter_mut()) {
            *tj = t;
            xor16(sector, tj);
            gf128_mul_alpha(&mut t);
        }
        if encrypt {
            self.encrypt_blocks(sectors);
        } else {
            for sector in sectors.iter_mut() {
                *sector = self.decrypt_block(sector);
            }
        }
        for (tj, sector) in tweaks.iter().zip(sectors.iter_mut()) {
            xor16(sector, tj);
        }
    }
}

/// Multiply a 128-bit value by x (alpha) in GF(2^128) with the XTS
/// polynomial x^128 + x^7 + x^2 + x + 1, as one little-endian u128 shift
/// (byte i bit 7 carries into byte i+1 bit 0; the top bit folds back the
/// reduction constant 0x87).
#[inline]
pub(crate) fn gf128_mul_alpha(block: &mut [u8; 16]) {
    let v = u128::from_le_bytes(*block);
    let folded = (v << 1) ^ ((v >> 127) * 0x87);
    *block = folded.to_le_bytes();
}

#[inline]
pub(crate) fn xor16(dst: &mut [u8; 16], src: &[u8; 16]) {
    *dst = (u128::from_ne_bytes(*dst) ^ u128::from_ne_bytes(*src)).to_ne_bytes();
}

/// The AES implementations a host may offer. All variants exist on every
/// architecture so reports and configuration stay portable;
/// [`is_available`](BackendKind::is_available) says whether this host can
/// actually run one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Portable T-table software cipher (always available).
    Software,
    /// x86_64 AES-NI instructions.
    AesNi,
}

impl BackendKind {
    /// Stable lowercase name used in reports and the `TOLEO_AES_BACKEND`
    /// override.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Software => "software",
            BackendKind::AesNi => "aes-ni",
        }
    }

    /// Whether this host can construct the backend.
    pub fn is_available(self) -> bool {
        match self {
            BackendKind::Software => true,
            #[cfg(target_arch = "x86_64")]
            BackendKind::AesNi => std::arch::is_x86_feature_detected!("aes"),
            #[cfg(not(target_arch = "x86_64"))]
            BackendKind::AesNi => false,
        }
    }

    /// The best backend this host offers: hardware AES when detected,
    /// software otherwise.
    pub fn detect() -> Self {
        if BackendKind::AesNi.is_available() {
            BackendKind::AesNi
        } else {
            BackendKind::Software
        }
    }
}

/// Every backend this host can run, software fallback always included and
/// listed first. Tests iterate this to property-check each enabled
/// backend against the reference oracle.
pub fn available_backends() -> Vec<BackendKind> {
    [BackendKind::Software, BackendKind::AesNi]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// Resolves the `TOLEO_AES_BACKEND` override. Unknown values and `auto`
/// fall through to detection; a hardware backend requested on a host that
/// lacks it degrades to the software fallback (deterministic, and the
/// cipher is identical).
fn resolve_default() -> BackendKind {
    let requested = match std::env::var("TOLEO_AES_BACKEND") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "software" | "soft" | "table" | "ttable" => Some(BackendKind::Software),
            "aesni" | "aes-ni" | "ni" => Some(BackendKind::AesNi),
            _ => None,
        },
        Err(_) => None,
    };
    match requested {
        Some(kind) if kind.is_available() => kind,
        Some(_) => BackendKind::Software,
        None => BackendKind::detect(),
    }
}

/// The backend new [`Aes128`](crate::aes::Aes128) instances dispatch to.
/// Resolved once per process (environment override, then hardware
/// detection) and cached.
pub fn default_backend() -> BackendKind {
    static DEFAULT_BACKEND: OnceLock<BackendKind> = OnceLock::new();
    *DEFAULT_BACKEND.get_or_init(resolve_default)
}

/// x86_64 AES-NI backend.
#[cfg(target_arch = "x86_64")]
pub use hw_x86::AesNiAes;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw_x86 {
    //! AES-NI implementation. The only unsafe code in the workspace; every
    //! intrinsic call is guarded by the construction-time `aes` feature
    //! check (`AesNiAes::new` returns `None` without it).

    use super::Aes128Backend;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi64, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128,
        _mm_aesenclast_si128, _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_and_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_shuffle_epi32, _mm_slli_si128,
        _mm_srai_epi32, _mm_storeu_si128, _mm_xor_si128,
    };

    /// AES-128 on the x86_64 AES-NI instructions: fixed-shape 1-, 2-, 4-
    /// and 8-lane kernels and a fused XTS line kernel.
    #[derive(Clone, Copy)]
    pub struct AesNiAes {
        /// Encryption round keys.
        ek: [__m128i; 11],
        /// Equivalent-inverse-cipher decryption round keys (middle keys
        /// passed through AESIMC).
        dk: [__m128i; 11],
    }

    impl std::fmt::Debug for AesNiAes {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Never print key material.
            f.debug_struct("AesNiAes")
                .field("round_keys", &"<redacted>")
                .finish()
        }
    }

    impl AesNiAes {
        /// Expands `key`, or returns `None` when the CPU lacks AES-NI.
        pub fn new(key: &[u8; 16]) -> Option<Self> {
            if !std::arch::is_x86_feature_detected!("aes") {
                return None;
            }
            // SAFETY: the `aes` feature (which implies the SSE2 baseline
            // of x86_64) was verified on this CPU immediately above.
            Some(unsafe { Self::expand(key) })
        }

        /// # Safety
        ///
        /// The `aes` target feature must be available on the running CPU
        /// (`new` verifies it via `is_x86_feature_detected!` before the
        /// only call site).
        #[target_feature(enable = "aes")]
        unsafe fn expand(key: &[u8; 16]) -> Self {
            let mut ek = [_mm_setzero(); 11];
            ek[0] = _mm_loadu_si128(key.as_ptr().cast());
            // One key-schedule round: AESKEYGENASSIST supplies
            // RotWord/SubWord/Rcon in its top word; the xor-cascade of
            // shifted copies reproduces w[i] = w[i-4] ^ w[i-1] chaining.
            macro_rules! round {
                ($i:expr, $rcon:expr) => {{
                    let t = _mm_shuffle_epi32(_mm_aeskeygenassist_si128(ek[$i - 1], $rcon), 0xff);
                    let mut k = ek[$i - 1];
                    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
                    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
                    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
                    ek[$i] = _mm_xor_si128(k, t);
                }};
            }
            round!(1, 0x01);
            round!(2, 0x02);
            round!(3, 0x04);
            round!(4, 0x08);
            round!(5, 0x10);
            round!(6, 0x20);
            round!(7, 0x40);
            round!(8, 0x80);
            round!(9, 0x1b);
            round!(10, 0x36);
            let mut dk = [_mm_setzero(); 11];
            dk[0] = ek[10];
            dk[10] = ek[0];
            for i in 1..10 {
                dk[i] = _mm_aesimc_si128(ek[10 - i]);
            }
            AesNiAes { ek, dk }
        }
    }

    /// `_mm_setzero_si128` without importing another intrinsic name.
    #[inline]
    fn _mm_setzero() -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { core::arch::x86_64::_mm_setzero_si128() }
    }

    /// The ten AES-128 rounds over `N` independent blocks, encrypting
    /// under an `ek` schedule (`ENC`) or decrypting under a `dk` one. `N`
    /// is a compile-time constant, so both loops unroll and — inlined into
    /// a caller that shares the `aes` feature — the state array is `N` XMM
    /// registers for the whole kernel: each AESENC consumes the previous
    /// round's register, never a store-forwarded stack slot. Instantiated
    /// at 1 (a dependent chain runs at instruction latency), 2 (a line's
    /// tweak and MAC pad), 4 (one cache line) and 8 (the pipelined units
    /// saturated) lanes.
    ///
    /// # Safety
    ///
    /// The `aes` target feature must be available on the running CPU; an
    /// `AesNiAes` value (whose constructor verified it) is proof.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn rounds<const N: usize, const ENC: bool>(
        rk: &[__m128i; 11],
        mut s: [__m128i; N],
    ) -> [__m128i; N] {
        for lane in &mut s {
            *lane = _mm_xor_si128(*lane, rk[0]);
        }
        for k in &rk[1..10] {
            for lane in &mut s {
                *lane = if ENC {
                    _mm_aesenc_si128(*lane, *k)
                } else {
                    _mm_aesdec_si128(*lane, *k)
                };
            }
        }
        for lane in &mut s {
            *lane = if ENC {
                _mm_aesenclast_si128(*lane, rk[10])
            } else {
                _mm_aesdeclast_si128(*lane, rk[10])
            };
        }
        s
    }

    /// Loads `N` blocks, runs them through [`rounds`] and stores them
    /// back in place.
    ///
    /// # Safety
    ///
    /// As [`rounds`]: the `aes` target feature must be available.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn crypt_lanes<const N: usize, const ENC: bool>(
        rk: &[__m128i; 11],
        blocks: &mut [[u8; 16]; N],
    ) {
        let mut s = [_mm_setzero(); N];
        for (lane, block) in s.iter_mut().zip(blocks.iter()) {
            *lane = _mm_loadu_si128(block.as_ptr().cast());
        }
        let s = rounds::<N, ENC>(rk, s);
        for (lane, block) in s.iter().zip(blocks.iter_mut()) {
            _mm_storeu_si128(block.as_mut_ptr().cast(), *lane);
        }
    }

    /// Any number of blocks as 8-lane groups, then one 4-lane group, then
    /// single lanes (consecutive 1-lane kernels are independent, so the
    /// out-of-order core still overlaps them).
    ///
    /// # Safety
    ///
    /// As [`rounds`]: the `aes` target feature must be available.
    #[target_feature(enable = "aes")]
    unsafe fn crypt_slice<const ENC: bool>(rk: &[__m128i; 11], blocks: &mut [[u8; 16]]) {
        let (eights, rest) = blocks.as_chunks_mut::<8>();
        for group in eights {
            crypt_lanes::<8, ENC>(rk, group);
        }
        let (fours, rest) = rest.as_chunks_mut::<4>();
        for group in fours {
            crypt_lanes::<4, ENC>(rk, group);
        }
        for block in rest {
            crypt_lanes::<1, ENC>(rk, core::array::from_mut(block));
        }
    }

    /// [`gf128_mul_alpha`](super::gf128_mul_alpha) on an XMM register:
    /// PADDQ doubles both 64-bit halves, and the two bits it drops (bit 63
    /// into bit 64, bit 127 into the 0x87 reduction) are broadcast by
    /// PSHUFD + PSRAD and xored back in.
    #[inline]
    fn mul_alpha(t: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe {
            let dropped = _mm_srai_epi32(_mm_shuffle_epi32(t, 0x13), 31);
            let fold = _mm_and_si128(dropped, _mm_set_epi32(0, 1, 0, 0x87));
            _mm_xor_si128(_mm_add_epi64(t, t), fold)
        }
    }

    /// The two-lane kernel behind
    /// [`encrypt_pair`](Aes128Backend::encrypt_pair): both blocks arrive
    /// in general registers and meet memory only as finished ciphertext.
    ///
    /// # Safety
    ///
    /// As [`rounds`]: the `aes` target feature must be available.
    #[target_feature(enable = "aes")]
    unsafe fn pair(ek: &[__m128i; 11], a: u128, b: u128) -> [[u8; 16]; 2] {
        let s = [
            _mm_set_epi64x((a >> 64) as i64, a as i64),
            _mm_set_epi64x((b >> 64) as i64, b as i64),
        ];
        let s = rounds::<2, true>(ek, s);
        let mut out = [[0u8; 16]; 2];
        for (lane, block) in s.iter().zip(out.iter_mut()) {
            _mm_storeu_si128(block.as_mut_ptr().cast(), *lane);
        }
        out
    }

    /// The fused line kernel: the three α-multiples and the XEX of all
    /// four sectors in one `aes` region, so nothing but the line itself
    /// touches memory. `data_rk` is the data key's `ek` (`ENC`) or `dk`
    /// schedule. `tweak` is the encrypted little-endian tweak block; it
    /// arrives in two general registers so that a caller holding it as
    /// two `u64`s never pays a 16-byte load over two fresh 8-byte stores,
    /// which cannot be store-forwarded (measured: 7 ns per line).
    ///
    /// # Safety
    ///
    /// As [`rounds`]: the `aes` target feature must be available.
    #[target_feature(enable = "aes")]
    unsafe fn xts_line<const ENC: bool>(data_rk: &[__m128i; 11], tweak: u128, line: &mut [u8; 64]) {
        let mut t = [_mm_set_epi64x((tweak >> 64) as i64, tweak as i64); 4];
        for j in 1..4 {
            t[j] = mul_alpha(t[j - 1]);
        }
        let sectors = line.as_chunks_mut::<16>().0;
        let mut s = [_mm_setzero(); 4];
        for ((lane, sector), tj) in s.iter_mut().zip(sectors.iter()).zip(&t) {
            *lane = _mm_xor_si128(_mm_loadu_si128(sector.as_ptr().cast()), *tj);
        }
        let s = rounds::<4, ENC>(data_rk, s);
        for ((lane, sector), tj) in s.iter().zip(sectors.iter_mut()).zip(&t) {
            _mm_storeu_si128(sector.as_mut_ptr().cast(), _mm_xor_si128(*lane, *tj));
        }
    }

    impl Aes128Backend for AesNiAes {
        fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let mut out = [*block];
            // SAFETY: constructing `AesNiAes` proved the `aes` feature.
            unsafe { crypt_lanes::<1, true>(&self.ek, &mut out) };
            out[0]
        }

        fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let mut out = [*block];
            // SAFETY: constructing `AesNiAes` proved the `aes` feature.
            unsafe { crypt_lanes::<1, false>(&self.dk, &mut out) };
            out[0]
        }

        fn encrypt_blocks8(&self, blocks: &mut [[u8; 16]; 8]) {
            // SAFETY: constructing `AesNiAes` proved the `aes` feature.
            unsafe { crypt_lanes::<8, true>(&self.ek, blocks) };
        }

        fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
            // SAFETY: constructing `AesNiAes` proved the `aes` feature.
            unsafe { crypt_slice::<true>(&self.ek, blocks) };
        }

        fn encrypt_pair(&self, a: u128, b: u128) -> [[u8; 16]; 2] {
            // SAFETY: constructing `AesNiAes` proved the `aes` feature.
            unsafe { pair(&self.ek, a, b) }
        }

        fn xts_line(&self, tweak: [u8; 16], encrypt: bool, line: &mut [u8; 64]) {
            let t = u128::from_le_bytes(tweak);
            // SAFETY: constructing `AesNiAes` proved the `aes` feature.
            unsafe {
                if encrypt {
                    xts_line::<true>(&self.ek, t, line);
                } else {
                    xts_line::<false>(&self.dk, t, line);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{reference::RefAes128, Aes128, TtableAes};
    use proptest::prelude::*;

    /// FIPS-197 Appendix B and C.1 vectors, run against every backend the
    /// host can construct.
    #[test]
    fn fips197_vectors_per_backend() {
        let vectors: [([u8; 16], [u8; 16], [u8; 16]); 2] = [
            (
                [
                    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09,
                    0xcf, 0x4f, 0x3c,
                ],
                [
                    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0,
                    0x37, 0x07, 0x34,
                ],
                [
                    0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19,
                    0x6a, 0x0b, 0x32,
                ],
            ),
            (
                [
                    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c,
                    0x0d, 0x0e, 0x0f,
                ],
                [
                    0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc,
                    0xdd, 0xee, 0xff,
                ],
                [
                    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                    0xb4, 0xc5, 0x5a,
                ],
            ),
        ];
        for kind in available_backends() {
            for (key, pt, ct) in &vectors {
                let aes = Aes128::with_backend(key, kind);
                assert_eq!(aes.backend(), kind, "requested backend must be honored");
                assert_eq!(aes.encrypt_block(pt), *ct, "{} encrypt", kind.name());
                assert_eq!(aes.decrypt_block(ct), *pt, "{} decrypt", kind.name());
            }
        }
    }

    #[test]
    fn software_is_always_available_and_first() {
        let all = available_backends();
        assert_eq!(all[0], BackendKind::Software);
        assert!(BackendKind::Software.is_available());
    }

    /// A kind the host cannot run — AES-NI on a CPU or an architecture
    /// without it — degrades to the software cipher. That arm only fires
    /// on such a host; on one with AES-NI every kind is honoured, and all
    /// of them must still compute the software cipher's bytes.
    #[test]
    fn unavailable_backend_falls_back_to_software() {
        let soft = TtableAes::new(&[7u8; 16]);
        for kind in [BackendKind::Software, BackendKind::AesNi] {
            let aes = Aes128::with_backend(&[7u8; 16], kind);
            let expect = if kind.is_available() {
                kind
            } else {
                BackendKind::Software
            };
            assert_eq!(aes.backend(), expect, "{}", kind.name());
            assert_eq!(
                aes.encrypt_block(&[1u8; 16]),
                soft.encrypt_block(&[1u8; 16])
            );
        }
    }

    #[test]
    fn detect_prefers_hardware_when_available() {
        let detected = BackendKind::detect();
        assert!(detected.is_available());
        if BackendKind::AesNi.is_available() {
            assert_eq!(detected, BackendKind::AesNi);
        }
    }

    /// Whatever this process was started with — CI's software-backend
    /// job sets `TOLEO_AES_BACKEND=software` — is what every cipher in it
    /// gets, on the first call and on every later one.
    #[test]
    fn default_backend_is_the_environment_override_or_the_detected_one() {
        let resolved = resolve_default();
        assert_eq!(default_backend(), resolved);
        assert_eq!(default_backend(), resolved);
        if std::env::var("TOLEO_AES_BACKEND").as_deref() == Ok("software") {
            assert_eq!(resolved, BackendKind::Software);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BackendKind::Software.name(), "software");
        assert_eq!(BackendKind::AesNi.name(), "aes-ni");
    }

    #[test]
    fn blocks8_matches_singles_per_backend() {
        for kind in available_backends() {
            let aes = Aes128::with_backend(b"interleave-key!!", kind);
            let mut lanes = [[0u8; 16]; 8];
            for (i, lane) in lanes.iter_mut().enumerate() {
                lane[0] = i as u8;
                lane[15] = 0xa5;
            }
            let singles: Vec<[u8; 16]> = lanes.iter().map(|b| aes.encrypt_block(b)).collect();
            let mut batch = lanes;
            aes.encrypt_blocks8(&mut batch);
            assert_eq!(batch.to_vec(), singles, "{} encrypt8", kind.name());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Every enabled backend agrees with the byte-oriented FIPS-197
        /// reference oracle on random keys and blocks, both directions.
        #[test]
        fn backends_match_reference_oracle(
            key in proptest::array::uniform16(any::<u8>()),
            block in proptest::array::uniform16(any::<u8>()),
        ) {
            let oracle = RefAes128::new(&key);
            let expect_ct = oracle.encrypt_block(&block);
            let expect_pt = oracle.decrypt_block(&block);
            for kind in available_backends() {
                let aes = Aes128::with_backend(&key, kind);
                prop_assert_eq!(aes.backend(), kind);
                prop_assert_eq!(aes.encrypt_block(&block), expect_ct);
                prop_assert_eq!(aes.decrypt_block(&block), expect_pt);
            }
        }

        /// `xts_line` and `encrypt_pair` — the hardware kernels and the
        /// defaults the software backend takes — give the same bytes on
        /// every backend, and the pair is two single-block encryptions.
        #[test]
        fn xts_line_and_encrypt_pair_agree_across_backends(
            key in proptest::array::uniform16(any::<u8>()),
            tweak in proptest::array::uniform16(any::<u8>()),
            other in proptest::array::uniform16(any::<u8>()),
            fill in any::<u8>(),
            encrypt in any::<bool>(),
        ) {
            let plain: [u8; 64] = core::array::from_fn(|i| fill ^ (i as u8).wrapping_mul(29));
            let soft = Aes128::with_backend(&key, BackendKind::Software);
            let mut expect = plain;
            soft.xts_line(tweak, encrypt, &mut expect);
            let pair = [soft.encrypt_block(&tweak), soft.encrypt_block(&other)];
            for kind in available_backends() {
                let aes = Aes128::with_backend(&key, kind);
                let mut line = plain;
                aes.xts_line(tweak, encrypt, &mut line);
                prop_assert!(line == expect, "xts_line on {}", kind.name());
                let got = aes.encrypt_pair(u128::from_le_bytes(tweak), u128::from_le_bytes(other));
                prop_assert!(got == pair, "encrypt_pair on {}", kind.name());
            }
        }

        /// The multi-block encrypt agrees with single-block calls for every
        /// enabled backend at every batch length (1..=20 covers full
        /// 8-lane chunks plus ragged remainders).
        #[test]
        fn batch_api_matches_singles(
            key in proptest::array::uniform16(any::<u8>()),
            blocks in proptest::collection::vec(proptest::array::uniform16(any::<u8>()), 1..20),
        ) {
            for kind in available_backends() {
                let aes = Aes128::with_backend(&key, kind);
                let mut batch = blocks.clone();
                aes.encrypt_blocks(&mut batch);
                for (b, orig) in batch.iter().zip(blocks.iter()) {
                    prop_assert_eq!(*b, aes.encrypt_block(orig));
                }
            }
        }
    }
}
