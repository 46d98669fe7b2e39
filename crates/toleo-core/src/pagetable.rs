//! Open-addressed flat page index.
//!
//! `std::collections::HashMap` sat on every hot path of the engine: the
//! device probed it once per READ/UPDATE to find a page's Trip entry, and
//! the arena probed it on every last-page-cache miss to find a page's
//! slot. A `HashMap<u64, _>` probe pays SipHash over the key plus the
//! control-byte group scan of the general-purpose table — far more than
//! the lookup deserves for dense page numbers.
//!
//! [`PageIndex`] replaces it with the minimum machinery the access
//! pattern needs: a power-of-two flat array of `(page, value)` pairs,
//! Fibonacci multiplicative hashing (one multiply, one shift), linear
//! probing, and **no deletion** — pages are never unmapped (RESET
//! re-randomizes a page's versions; it does not forget the page), so
//! there are no tombstones and probe chains never rot. Values are `u32`
//! indices into a caller-owned dense `Vec`, which is exactly the shape
//! both consumers already had (arena slots, device entries).

// audit: allow-file(indexing, bucket indices are masked to the power-of-two table size)

/// Sentinel key marking an empty bucket. Page numbers live far below this
/// (a 2^64-page pool would be 2^76 bytes of protected memory).
const EMPTY: u64 = u64::MAX;

/// Initial bucket count (power of two).
const INITIAL_BUCKETS: usize = 16;

/// Fibonacci hashing constant (2^64 / φ, odd).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A flat open-addressed `page -> u32` index with linear probing.
///
/// # Examples
///
/// ```
/// use toleo_core::pagetable::PageIndex;
///
/// let mut idx = PageIndex::new();
/// idx.insert(7, 0);
/// idx.insert(4096, 1);
/// assert_eq!(idx.get(7), Some(0));
/// assert_eq!(idx.get(8), None);
/// assert_eq!(idx.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PageIndex {
    /// Bucket page numbers; [`EMPTY`] marks a free bucket.
    pages: Box<[u64]>,
    /// Bucket values, parallel to `pages`.
    vals: Box<[u32]>,
    /// Number of live entries.
    len: usize,
    /// `pages.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// Right-shift that maps the Fibonacci product to a bucket index.
    shift: u32,
}

impl Default for PageIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl PageIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        let buckets = INITIAL_BUCKETS;
        PageIndex {
            pages: vec![EMPTY; buckets].into_boxed_slice(),
            vals: vec![0u32; buckets].into_boxed_slice(),
            len: 0,
            mask: buckets - 1,
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home bucket of `page`.
    #[inline]
    fn bucket(&self, page: u64) -> usize {
        (page.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The value mapped to `page`, if any. Querying the sentinel value
    /// `u64::MAX` (never insertable) is answered `None`, not matched
    /// against empty buckets.
    #[inline]
    pub fn get(&self, page: u64) -> Option<u32> {
        let mut i = self.bucket(page);
        loop {
            let k = self.pages[i];
            // EMPTY must be tested first: a `page == u64::MAX` query would
            // otherwise "match" the first free bucket's sentinel key and
            // return whatever stale value sits there.
            if k == EMPTY {
                return None;
            }
            if k == page {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Maps `page` to `val`, replacing any existing mapping.
    ///
    /// # Panics
    ///
    /// Panics if `page == u64::MAX` (the empty-bucket sentinel).
    pub fn insert(&mut self, page: u64, val: u32) {
        assert_ne!(page, EMPTY, "page number collides with the empty sentinel");
        // Grow at 7/8 load so probe chains stay short.
        if (self.len + 1) * 8 > self.pages.len() * 7 {
            self.grow();
        }
        let mut i = self.bucket(page);
        loop {
            let k = self.pages[i];
            if k == page {
                self.vals[i] = val;
                return;
            }
            if k == EMPTY {
                self.pages[i] = page;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles the bucket array and re-inserts every live entry.
    fn grow(&mut self) {
        let buckets = self.pages.len() * 2;
        let old_pages = std::mem::replace(&mut self.pages, vec![EMPTY; buckets].into_boxed_slice());
        let old_vals = std::mem::replace(&mut self.vals, vec![0u32; buckets].into_boxed_slice());
        self.mask = buckets - 1;
        self.shift = 64 - buckets.trailing_zeros();
        self.len = 0;
        for (k, v) in old_pages.iter().zip(old_vals.iter()) {
            if *k != EMPTY {
                self.insert(*k, *v);
            }
        }
    }

    /// Iterates over `(page, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.pages
            .iter()
            .zip(self.vals.iter())
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn empty_index_finds_nothing() {
        let idx = PageIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        for page in [0u64, 1, 42, u64::MAX - 1] {
            assert_eq!(idx.get(page), None);
        }
    }

    #[test]
    fn insert_get_replace() {
        let mut idx = PageIndex::new();
        idx.insert(5, 10);
        assert_eq!(idx.get(5), Some(10));
        idx.insert(5, 11);
        assert_eq!(idx.get(5), Some(11));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut idx = PageIndex::new();
        for page in 0..10_000u64 {
            idx.insert(page, page as u32);
        }
        assert_eq!(idx.len(), 10_000);
        for page in 0..10_000u64 {
            assert_eq!(idx.get(page), Some(page as u32), "page {page}");
        }
        assert_eq!(idx.get(10_000), None);
    }

    /// Random inserts/replacements/lookups against a `HashMap` model,
    /// including adversarially clustered keys (sequential pages, stride
    /// patterns, high-bit-only entropy).
    #[test]
    fn matches_hashmap_model_under_random_ops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9A6E);
        let mut idx = PageIndex::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for step in 0..30_000u32 {
            let page: u64 = match step % 4 {
                0 => rng.gen_range(0..512u64),       // dense cluster
                1 => rng.gen_range(0..64u64) * 4096, // stride pattern
                2 => rng.gen::<u64>() >> 1,          // sparse
                // High-bit-only entropy (low 32 bits zero, so never the
                // EMPTY sentinel): the case that stresses the hash shift.
                _ => (rng.gen::<u32>() as u64) << 32,
            };
            if rng.gen_bool(0.7) {
                idx.insert(page, step);
                model.insert(page, step);
            }
            assert_eq!(idx.get(page), model.get(&page).copied(), "step {step}");
        }
        assert_eq!(idx.len(), model.len());
        // Full iteration agrees with the model.
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for (k, v) in idx.iter() {
            assert!(seen.insert(k, v).is_none(), "duplicate key {k}");
        }
        assert_eq!(seen, model);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_page_rejected() {
        PageIndex::new().insert(u64::MAX, 0);
    }

    #[test]
    fn sentinel_page_lookup_is_none() {
        // Regression: `get(u64::MAX)` used to match an empty bucket's
        // sentinel key and report a phantom mapping to value 0.
        let mut idx = PageIndex::new();
        assert_eq!(idx.get(u64::MAX), None);
        for page in 0..100u64 {
            idx.insert(page, page as u32);
        }
        assert_eq!(idx.get(u64::MAX), None);
    }

    #[test]
    fn colliding_probe_chains_resolve() {
        // Force many keys into few buckets by exceeding initial capacity
        // with keys whose hashes land close together (sequential keys under
        // Fibonacci hashing spread, so use the model test above for spread;
        // here verify correctness right at the growth boundary).
        let mut idx = PageIndex::new();
        for page in 0..15u64 {
            idx.insert(page * 1_000_003, page as u32);
        }
        for page in 0..15u64 {
            assert_eq!(idx.get(page * 1_000_003), Some(page as u32));
        }
    }
}
