//! Configuration for the Toleo device and protection engine.

use crate::error::ToleoError;
use serde::{Deserialize, Serialize};

/// Bytes per cache block (paper: 64 B).
pub const CACHE_BLOCK_BYTES: usize = 64;
/// Cache blocks per page (paper: 4 KB pages / 64 B lines).
pub const LINES_PER_PAGE: usize = 64;
/// Bytes per page.
pub const PAGE_BYTES: usize = CACHE_BLOCK_BYTES * LINES_PER_PAGE;

/// Size of a flat Trip entry in Toleo memory (2-bit type + 27-bit base +
/// 64-bit vector, padded to 12 bytes; paper Fig. 3).
pub const FLAT_ENTRY_BYTES: usize = 12;
/// Size of an uneven Trip entry (64 x 7-bit private offsets = 56 bytes).
pub const UNEVEN_ENTRY_BYTES: usize = 56;
/// Logical size of a full Trip entry (64 x 27-bit stealth = 216 bytes).
pub const FULL_ENTRY_BYTES: usize = 216;
/// Allocation granule in Toleo's dynamic region (one uneven entry). A full
/// entry consumes four granules (paper Fig. 5: "1 full entry takes 4 56B
/// blocks").
pub const DYNAMIC_BLOCK_BYTES: usize = 56;
/// Dynamic blocks consumed by one full entry.
pub const FULL_ENTRY_BLOCKS: usize = 4;
/// Largest offset an uneven entry's 7-bit field holds; one more upgrades
/// the page to full (paper: strides up to 128).
pub const MAX_UNEVEN_OFFSET: u32 = 127;

/// Configuration of the Toleo freshness system.
///
/// Defaults are the paper's design point: 27-bit stealth versions (the
/// upper version is the rest of the 64-bit full version, 37 bits),
/// probabilistic reset with p = 2^-20, 4 KB pages of 64-byte cache
/// blocks, and a 168 GB device.
// audit: allow(secret, rng_seed is a simulation reproducibility knob serialized with bench configs, not key material)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToleoConfig {
    /// Width of the stealth (lower) version in bits. Paper: 27.
    pub stealth_bits: u32,
    /// Reset probability exponent: on each leading-version increment the
    /// stealth version resets with probability `2^-reset_log2`. Paper: 20.
    pub reset_log2: u32,
    /// Total Toleo device capacity in bytes (version storage). Paper:
    /// 168 GB shared across the rack.
    pub device_capacity_bytes: u64,
    /// Bytes of protected conventional memory (data region). Paper:
    /// 24.8 TB of a 28 TB pool (the rest holds MACs + UVs).
    pub protected_bytes: u64,
    /// Seed for the device's D-RaNGe generator (reproducible simulation).
    pub rng_seed: u64,
}

impl Default for ToleoConfig {
    fn default() -> Self {
        ToleoConfig {
            stealth_bits: 27,
            reset_log2: 20,
            device_capacity_bytes: 168 * (1u64 << 30),
            protected_bytes: 24_800 * (1u64 << 30), // 24.8 TB
            rng_seed: 0xF01E0,
        }
    }
}

impl ToleoConfig {
    /// A small configuration for unit tests and examples: 64 MB protected,
    /// 1 MB device.
    pub fn small() -> Self {
        ToleoConfig {
            device_capacity_bytes: 1 << 20,
            protected_bytes: 64 << 20,
            ..Self::default()
        }
    }

    /// Number of protected pages.
    pub fn protected_pages(&self) -> u64 {
        self.protected_bytes / PAGE_BYTES as u64
    }

    /// The address of `page`'s first byte. Every protected page's fits a
    /// `u64`, so a page number from outside is checked before it is
    /// multiplied.
    ///
    /// # Errors
    ///
    /// [`ToleoError::PageOutOfRange`] past the protected pool.
    pub(crate) fn page_address(&self, page: u64) -> crate::error::Result<u64> {
        let pages = self.protected_pages();
        if page >= pages {
            return Err(ToleoError::PageOutOfRange { page, pages });
        }
        Ok(page * PAGE_BYTES as u64)
    }

    /// Bytes of Toleo memory statically consumed by the flat-entry array
    /// (one flat entry per protected page; paper: 74.6 GB for 24.8 TB).
    pub fn flat_array_bytes(&self) -> u64 {
        self.protected_pages() * FLAT_ENTRY_BYTES as u64
    }

    /// Bytes of Toleo memory available for dynamically allocated uneven and
    /// full entries (paper: 93.4 GB).
    ///
    /// # Panics
    ///
    /// Panics if the device is smaller than the flat array it must host.
    pub fn dynamic_region_bytes(&self) -> u64 {
        let flat = self.flat_array_bytes();
        assert!(
            self.device_capacity_bytes >= flat,
            "device capacity {} B cannot hold flat array {} B",
            self.device_capacity_bytes,
            flat
        );
        self.device_capacity_bytes - flat
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.stealth_bits == 0 || self.stealth_bits > 32 {
            return Err(format!(
                "stealth_bits {} out of range 1..=32",
                self.stealth_bits
            ));
        }
        if self.reset_log2 >= self.stealth_bits + 8 {
            return Err(format!(
                "reset_log2 {} too large relative to stealth space (resets would be \
                 rarer than wraparound)",
                self.reset_log2
            ));
        }
        if self.device_capacity_bytes < self.flat_array_bytes() {
            return Err(format!(
                "device capacity {} B smaller than flat array {} B",
                self.device_capacity_bytes,
                self.flat_array_bytes()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_design_point() {
        let cfg = ToleoConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.stealth_bits, 27);
        assert_eq!(cfg.reset_log2, 20);
        // 24.8 TB protected -> ~74.6 GB of flat entries (paper §4.4; the
        // paper's GB arithmetic is approximate, so allow a few GB of slack:
        // 24.8 TB / 4 KB * 12 B = 72.7 GiB).
        let flat_gb = cfg.flat_array_bytes() as f64 / (1u64 << 30) as f64;
        assert!((flat_gb - 74.6).abs() < 4.0, "flat array = {flat_gb} GB");
        // Remaining dynamic region ~93.4 GB.
        let dyn_gb = cfg.dynamic_region_bytes() as f64 / (1u64 << 30) as f64;
        assert!((dyn_gb - 93.4).abs() < 4.0, "dynamic region = {dyn_gb} GB");
    }

    #[test]
    fn flat_ratio_is_341_to_1() {
        // Paper Table 4: flat protects 4 KB with 12 B -> 341:1.
        let ratio = PAGE_BYTES as f64 / FLAT_ENTRY_BYTES as f64;
        assert!((ratio - 341.0).abs() < 1.0);
    }

    #[test]
    fn uneven_ratio_is_60_to_1() {
        // Uneven pages use flat + uneven entries: 68 B per 4 KB -> 60:1.
        let ratio = PAGE_BYTES as f64 / (FLAT_ENTRY_BYTES + UNEVEN_ENTRY_BYTES) as f64;
        assert!((ratio - 60.0).abs() < 0.5);
    }

    #[test]
    fn full_ratio_is_18_to_1() {
        // Full pages: flat + full = 228 B per 4 KB -> 18:1.
        let ratio = PAGE_BYTES as f64 / (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES) as f64;
        assert!((ratio - 18.0).abs() < 0.5);
    }

    #[test]
    fn validate_rejects_bad_widths() {
        let mut cfg = ToleoConfig::small();
        cfg.stealth_bits = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ToleoConfig::small();
        cfg.stealth_bits = 40;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_undersized_device() {
        let mut cfg = ToleoConfig::small();
        cfg.device_capacity_bytes = 16;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn small_config_is_valid() {
        ToleoConfig::small().validate().unwrap();
    }
}
