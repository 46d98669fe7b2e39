//! Conventional-memory layout for ciphertext data, MAC tags and UVs
//! (paper §4.4, Fig. 4).
//!
//! The physical pool is partitioned into a data region and a MAC region
//! with ratio 8:1 — eight 56-bit MACs pack into one 64-byte MAC block, and
//! the spare 8 bytes of each MAC block hold the shared upper version (UV)
//! of the page its data blocks belong to. Storing UV in the MAC block's
//! slack means fetching a MAC also fetches the UV for free, eliminating a
//! third memory access per read.

use crate::config::{CACHE_BLOCK_BYTES, LINES_PER_PAGE, PAGE_BYTES};

/// MACs packed per 64-byte MAC block.
pub const MACS_PER_BLOCK: u64 = 8;

/// Static partition of a physical memory pool into data and MAC+UV regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Bytes of the whole pool.
    pub pool_bytes: u64,
    /// Bytes usable for ciphertext data.
    pub data_bytes: u64,
    /// Bytes reserved for MAC blocks (and co-located UVs).
    pub mac_bytes: u64,
}

impl MemoryLayout {
    /// Splits `pool_bytes` into data and MAC regions in the 8:1 packing
    /// ratio (data gets 8/9 of the pool, MACs 1/9), rounded down to whole
    /// pages.
    ///
    /// # Examples
    ///
    /// ```
    /// use toleo_core::layout::MemoryLayout;
    ///
    /// // The paper's 28 TB pool -> ~24.8 TB data + ~3.2 TB MACs.
    /// let l = MemoryLayout::split(28 * (1u64 << 40));
    /// let data_tb = l.data_bytes as f64 / (1u64 << 40) as f64;
    /// assert!((data_tb - 24.8).abs() < 0.2);
    /// ```
    pub fn split(pool_bytes: u64) -> Self {
        let data_bytes = (pool_bytes / 9 * 8) / PAGE_BYTES as u64 * PAGE_BYTES as u64;
        let mac_bytes = pool_bytes - data_bytes;
        MemoryLayout {
            pool_bytes,
            data_bytes,
            mac_bytes,
        }
    }
}

/// Index of the MAC block covering a 64-byte data block address.
pub fn mac_block_index(data_addr: u64) -> u64 {
    (data_addr / CACHE_BLOCK_BYTES as u64) / MACS_PER_BLOCK
}

/// Page number of a physical address.
pub fn page_of(addr: u64) -> u64 {
    addr / PAGE_BYTES as u64
}

/// Cache-line index (0..64) of a physical address within its page.
pub fn line_of(addr: u64) -> usize {
    ((addr / CACHE_BLOCK_BYTES as u64) % LINES_PER_PAGE as u64) as usize
}

/// The 64-byte-aligned base of the cache block containing `addr`.
pub fn block_base(addr: u64) -> u64 {
    addr & !(CACHE_BLOCK_BYTES as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ratio_matches_paper() {
        let l = MemoryLayout::split(28 * (1u64 << 40));
        assert_eq!(l.data_bytes + l.mac_bytes, l.pool_bytes);
        let ratio = l.data_bytes as f64 / l.mac_bytes as f64;
        assert!((ratio - 8.0).abs() < 0.01, "data:mac = {ratio}");
    }

    #[test]
    fn mac_indexing() {
        assert_eq!(mac_block_index(0), 0);
        assert_eq!(mac_block_index(7 * 64), 0);
        assert_eq!(mac_block_index(8 * 64), 1);
    }

    #[test]
    fn page_and_line_of() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 1);
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_of(4096 + 130), 2);
        assert_eq!(block_base(130), 128);
    }

    #[test]
    fn one_page_spans_eight_mac_blocks() {
        let first = mac_block_index(0);
        let last = mac_block_index(4095);
        assert_eq!(last - first + 1, 8);
    }
}
