//! D-RaNGe-style DRAM true-random number generator model.
//!
//! The Toleo controller uses D-RaNGe [Kim et al., HPCA'19] as its source of
//! randomness for stealth-version re-initialization and reset draws.
//! D-RaNGe reads DRAM cells with deliberately violated `tRCD` timing; some
//! cells ("RNG cells") then fail non-deterministically, and those failures
//! are harvested as entropy.
//!
//! We model the physics with a deterministic-but-well-mixed failure process
//! (so simulations are reproducible given a seed) exposed through the same
//! harvest-and-whiten pipeline real D-RaNGe uses: sample a segment of cells,
//! collect failure bits, whiten them (von Neumann extraction), and buffer
//! the output. The type implements [`rand::RngCore`] so any consumer in the
//! workspace can draw from it.

use rand::RngCore;

/// Number of simulated RNG cells harvested per activation.
const CELLS_PER_ACTIVATION: usize = 256;

/// Cells sampled per splitmix draw: one activation reads all 256 cells in
/// four 64-cell row segments, one well-mixed u64 per segment.
const CELLS_PER_DRAW: usize = 64;

/// Von Neumann whitening of one byte of cell reads, four bit pairs
/// LSB-first: `(bits, count)`, where the `count` bits emitted on 01/10
/// pairs are in emission order from the most significant, as the
/// whitener shifts them in.
const WHITEN: [(u8, u8); 256] = {
    let mut table = [(0u8, 0u8); 256];
    let (mut rest, mut byte): (&mut [(u8, u8)], u32) = (&mut table, 0);
    while let Some((entry, tail)) = { rest }.split_first_mut() {
        let (mut bits, mut count, mut pair) = (0u8, 0u8, 0);
        while pair < 4 {
            let p = (byte >> (2 * pair)) & 3;
            if p == 0b01 || p == 0b10 {
                bits = (bits << 1) | (p & 1) as u8;
                count += 1;
            }
            pair += 1;
        }
        *entry = (bits, count);
        (rest, byte) = (tail, byte + 1);
    }
    table
};

/// A modelled D-RaNGe generator.
///
/// # Examples
///
/// ```
/// use toleo_crypto::range::DRange;
/// use rand::RngCore;
///
/// let mut rng = DRange::from_seed(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct DRange {
    /// Per-cell latent state: cells flip pseudo-randomly under reduced tRCD.
    cell_state: u64,
    /// Whitened output bits awaiting consumption (LSB-first).
    bit_buffer: u64,
    /// Number of valid bits in `bit_buffer`.
    bits_avail: u32,
    /// Count of raw cell reads performed (exposed for throughput stats).
    activations: u64,
}

impl DRange {
    /// Creates a generator whose cell process is seeded for reproducibility.
    pub fn from_seed(seed: u64) -> Self {
        DRange {
            cell_state: seed ^ 0x9e3779b97f4a7c15,
            bit_buffer: 0,
            bits_avail: 0,
            activations: 0,
        }
    }

    /// Number of reduced-latency DRAM activations performed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// One splitmix64 step: models the charge race a 64-cell row segment of
    /// failed-timing reads loses or wins, one bit per cell.
    #[inline]
    fn sample_segment(&mut self) -> u64 {
        self.cell_state = self.cell_state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.cell_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// One reduced-tRCD activation: harvest failure bits from all 256 RNG
    /// cells (four 64-cell segments) and refill the buffer with von-Neumann
    /// whitened bits (consume bit pairs, emit the first bit on 01/10), at
    /// most 64 of them. The pairs are whitened a byte at a time through
    /// [`WHITEN`], with no branch per pair.
    fn activate(&mut self) {
        self.activations += 1;
        let mut out = 0u64;
        let mut n = 0u32;
        for _ in 0..CELLS_PER_ACTIVATION / CELLS_PER_DRAW {
            for byte in self.sample_segment().to_le_bytes() {
                let (bits, count) = WHITEN.get(usize::from(byte)).copied().unwrap_or_default();
                let take = u32::from(count).min(64 - n);
                // `take <= 4`, so neither shift reaches the word width.
                out = (out << take) | u64::from(bits >> (u32::from(count) - take));
                n += take;
            }
        }
        self.bit_buffer = out;
        self.bits_avail = n;
    }

    /// Consumes `n` whitened entropy bits (`n <= 64`), LSB-aligned.
    #[inline]
    fn take_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        let mut out = 0u64;
        let mut got = 0u32;
        while got < n {
            if self.bits_avail == 0 {
                self.activate();
                continue;
            }
            let take = (n - got).min(self.bits_avail);
            let chunk = if take == 64 {
                self.bit_buffer
            } else {
                self.bit_buffer & ((1u64 << take) - 1)
            };
            self.bit_buffer = if take == 64 {
                0
            } else {
                self.bit_buffer >> take
            };
            self.bits_avail -= take;
            out |= chunk << got;
            got += take;
        }
        out
    }

    /// Draws a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Bernoulli draw with probability `1 / 2^log2_denominator`.
    ///
    /// This is the primitive the stealth reset policy uses (p = 2^-20). It
    /// consumes exactly `log2_denominator` entropy bits — the draw succeeds
    /// iff they are all zero — so the per-write reset check on the device
    /// hot path does not burn a full word of whitened entropy.
    pub fn one_in_pow2(&mut self, log2_denominator: u32) -> bool {
        debug_assert!(log2_denominator <= 63);
        self.take_bits(log2_denominator) == 0
    }
}

impl RngCore for DRange {
    fn next_u32(&mut self) -> u32 {
        self.take_bits(32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.take_bits(64)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for d in dest.iter_mut() {
            *d = self.take_bits(8) as u8;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pair-at-a-time whitener `activate` replaced, kept as its
    /// oracle: the same cell stream, one branch per pair.
    fn activate_by_pairs(rng: &mut DRange) {
        rng.activations += 1;
        let mut out = 0u64;
        let mut n = 0u32;
        for _ in 0..CELLS_PER_ACTIVATION / CELLS_PER_DRAW {
            let mut raw = rng.sample_segment();
            for _ in 0..CELLS_PER_DRAW / 2 {
                let pair = raw & 3;
                raw >>= 2;
                if (pair == 0b01 || pair == 0b10) && n < 64 {
                    out = (out << 1) | (pair & 1);
                    n += 1;
                }
            }
        }
        rng.bit_buffer = out;
        rng.bits_avail = n;
    }

    #[test]
    fn table_whitening_matches_the_pair_loop_bit_for_bit() {
        for seed in 0..64u64 {
            let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            let (mut table, mut pairs) = (DRange::from_seed(seed), DRange::from_seed(seed));
            for activation in 0..20_000 {
                table.activate();
                activate_by_pairs(&mut pairs);
                assert_eq!(
                    (table.bit_buffer, table.bits_avail),
                    (pairs.bit_buffer, pairs.bits_avail),
                    "seed {seed:#x}, activation {activation}"
                );
            }
            assert_eq!(table.cell_state, pairs.cell_state);
        }
    }

    #[test]
    fn take_bits_partial_draws_compose() {
        // Drawing 64 bits in uneven pieces consumes the same stream as one
        // whole-word draw from an identically seeded generator.
        let mut whole = DRange::from_seed(123);
        let mut pieces = DRange::from_seed(123);
        let expect = whole.take_bits(64);
        let lo = pieces.take_bits(7);
        let mid = pieces.take_bits(33);
        let hi = pieces.take_bits(24);
        assert_eq!(lo | (mid << 7) | (hi << 40), expect);
    }

    #[test]
    fn zero_bit_draw_is_free_and_true() {
        let mut rng = DRange::from_seed(5);
        // p = 2^0 = 1: always fires, consumes nothing.
        let before = rng.activations();
        assert!(rng.one_in_pow2(0));
        assert_eq!(rng.activations(), before);
    }

    #[test]
    fn reproducible_given_seed() {
        let mut a = DRange::from_seed(7);
        let mut b = DRange::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DRange::from_seed(1);
        let mut b = DRange::from_seed(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DRange::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.below(1 << 27) < (1 << 27));
        }
        for _ in 0..1000 {
            assert!(rng.below(3) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_panics() {
        DRange::from_seed(0).below(0);
    }

    #[test]
    fn one_in_pow2_rate_is_plausible() {
        let mut rng = DRange::from_seed(11);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| rng.one_in_pow2(4)).count();
        let expected = trials / 16;
        // within 25% of 1/16
        assert!(
            (hits as f64 - expected as f64).abs() < expected as f64 * 0.25,
            "hits={hits} expected~{expected}"
        );
    }

    #[test]
    fn whitened_bytes_are_balanced() {
        let mut rng = DRange::from_seed(5);
        let mut ones = 0u32;
        let n = 10_000;
        for _ in 0..n {
            ones += (rng.take_bits(8) as u8).count_ones();
        }
        let total_bits = n * 8;
        let frac = ones as f64 / total_bits as f64;
        assert!((frac - 0.5).abs() < 0.02, "bit balance {frac}");
    }

    #[test]
    fn activations_counter_advances() {
        let mut rng = DRange::from_seed(5);
        let before = rng.activations();
        let _ = rng.next_u64();
        assert!(rng.activations() > before);
    }
}
