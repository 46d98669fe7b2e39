//! # toleo-baselines
//!
//! The protection schemes Toleo is evaluated against, built from scratch:
//!
//! * [`tree`] — a functional Merkle counter tree with MAC chains and a
//!   node cache: the freshness mechanism of client SGX, VAULT and
//!   Morphable Counters, and the scalability bottleneck Toleo removes.
//! * [`sgx`] — a client-SGX-style memory encryption engine (versions
//!   from the counter tree over a bounded EPC).
//! * [`schemes`] — the Table 1 guarantee matrix and Table 4 version-size
//!   rows for every compared design (Client/Scalable SGX, VAULT,
//!   MorphCtr-128, InvisiMem, Toleo).
//! * [`vault`] — VAULT's variable-arity tree with small-counter overflow
//!   resets under per-group epochs.
//! * [`morph`] — Morphable Counters' uniform/skewed leaf encodings.
//!
//! The three engines are one engine, [`Baseline`], over three
//! [`VersionStore`]s: it seals exactly as Toleo does, through
//! [`LineSealer`] into an [`UntrustedDram`] page arena, and a VAULT
//! group reset or a Morphable re-base is its page walk
//! ([`LineSealer::reseal_page`]). A scheme is only where a line's
//! version comes from. [`Baseline`] implements
//! [`ProtectedMemory`], so the benchmark and the security suite drive
//! Toleo and the baselines through one interface — same workloads, same
//! batch entry points, same tamper/replay corpus on the same arena.
//!
//! The timing-level comparison (CI and InvisiMem configurations) lives in
//! `toleo-sim`, which models them as protection modes of the same node.
//!
//! ```
//! use toleo_baselines::sgx::SgxEngine;
//! use toleo_baselines::schemes::Scheme;
//! use toleo_core::protected::{MemoryError, ProtectedMemory};
//!
//! let mut sgx = SgxEngine::new(128 << 20); // the classic 128 MB EPC
//! sgx.write(0, &[1u8; 64])?;
//! assert_eq!(sgx.read(0)?, [1u8; 64]);
//! assert_eq!(Scheme::ClientSgx.guarantees().freshness.to_string(), "Yes");
//! # Ok::<(), MemoryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod morph;
pub mod schemes;
pub mod sgx;
pub mod tree;
pub mod vault;

pub use morph::MorphEngine;
pub use schemes::{Guarantees, Level, Scheme, VersionScheme};
pub use sgx::SgxEngine;
pub use tree::CounterTree;
pub use vault::VaultEngine;

use toleo_core::arena::{Block, UntrustedDram};
use toleo_core::config::{LINES_PER_PAGE, PAGE_BYTES};
use toleo_core::layout;
use toleo_core::protected::{MemoryError, MemoryStats, ProtectedMemory};
use toleo_core::seal::LineSealer;

/// A line's version and the version-store fetches it cost: node-cache
/// misses of a tree walk, or one per access for the flat stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetched {
    /// The version the line is sealed under.
    pub version: u64,
    /// Version-store accesses that went to backing storage.
    pub fetches: u64,
}

/// The lines a re-base moves besides the written one: every line of the
/// whole pages from `first_page`, in address order, goes from version
/// `old` to version `new`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Moved {
    /// The first page the re-base covers.
    pub first_page: u64,
    /// Each covered line's version before the write.
    pub old: Vec<u64>,
    /// Each covered line's version after it.
    pub new: Vec<u64>,
}

/// Where a baseline's line versions come from: everything that tells one
/// scheme from another.
pub trait VersionStore {
    /// Stable scheme name used in reports.
    const SCHEME: &'static str;
    /// The scheme's line-sealing key material.
    const KEY: &'static [u8; 48];

    /// A store for the whole 64-byte blocks of `bytes` of memory.
    fn for_bytes(bytes: u64) -> Self;

    /// The version `block` is sealed under. `None` is a store that failed
    /// its own verification.
    fn fetch(&mut self, block: u64) -> Option<Fetched>;

    /// Advances `block`'s version for a write, with the lines a re-base
    /// moved. `None` as for [`fetch`](Self::fetch).
    fn advance(&mut self, block: u64) -> Option<(Fetched, Option<Moved>)>;

    /// Re-bases so far, each a bulk re-encryption of what [`Moved`] named.
    fn rebases(&self) -> u64;
}

/// A baseline protection engine: `V`'s versions sealing 64-byte lines
/// into the page arena every scheme shares.
#[derive(Debug)]
pub struct Baseline<V> {
    store: V,
    sealer: LineSealer,
    dram: UntrustedDram,
    /// One trusted bit per page, set at the page's first write (its
    /// birth): on-chip state, like the valid bit of SGX's enclave page
    /// cache map.
    born: Vec<u64>,
    bytes: u64,
    reads: u64,
    writes: u64,
    version_fetches: u64,
}

impl<V: VersionStore> Baseline<V> {
    /// An engine protecting the whole 64-byte blocks of `bytes` of memory;
    /// a trailing partial block is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 64`.
    pub fn new(bytes: u64) -> Self {
        Baseline {
            store: V::for_bytes(bytes),
            sealer: LineSealer::new(V::KEY),
            dram: UntrustedDram::default(),
            born: vec![0; (bytes / PAGE_BYTES as u64 + 1).div_ceil(64) as usize],
            bytes,
            reads: 0,
            writes: 0,
            version_fetches: 0,
        }
    }

    /// The block index of `addr`, the range check of every scheme.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    fn block(&self, addr: u64) -> Result<u64, MemoryError> {
        assert_eq!(addr % 64, 0, "unaligned block access");
        (addr / 64 < self.bytes / 64)
            .then_some(addr / 64)
            .ok_or(MemoryError::OutOfRange { address: addr })
    }

    /// Whether `page` is born.
    fn is_born(&self, page: u64) -> bool {
        let word = self.born.get((page / 64) as usize);
        word.is_some_and(|word| word >> (page % 64) & 1 != 0)
    }

    /// A page's birth at its first write, to `addr`: every other line in
    /// range takes the blank tag of the version the store has *verified*
    /// for it. An unverified read would be unsound where the store keeps
    /// its counters in untrusted memory (the SGX tree): a tampered
    /// counter here would mint a blank tag that turns valid at a future
    /// version.
    fn birth(&mut self, addr: u64) -> Result<(), MemoryError> {
        let (page, line) = (layout::page_of(addr), layout::line_of(addr));
        let mut versions = [None; LINES_PER_PAGE];
        let first = page * LINES_PER_PAGE as u64;
        let lines = (self.bytes / 64).saturating_sub(first);
        for (l, version) in versions.iter_mut().enumerate().take(lines as usize) {
            if l != line {
                let block = first + l as u64;
                let fetched = self.store.fetch(block).ok_or(tampered(block * 64))?;
                self.version_fetches += fetched.fetches;
                *version = Some(fetched.version);
            }
        }
        let id = self.dram.ensure_slot(page);
        self.sealer
            .blank_page(self.dram.slot_mut(id), page, &versions);
        if let Some(word) = self.born.get_mut((page / 64) as usize) {
            *word |= 1 << (page % 64);
        }
        Ok(())
    }

    /// A re-base's page walks for a write to `addr`: every other line of
    /// each covered page that holds ciphertext or a blank tag goes from
    /// its old version to its new one, and a line that does not verify is
    /// tamper at the lowest such line.
    fn reseal(&mut self, addr: u64, moved: &Moved) -> Result<(), MemoryError> {
        let pages = moved
            .old
            .chunks(LINES_PER_PAGE)
            .zip(moved.new.chunks(LINES_PER_PAGE));
        for (page, (old, new)) in (moved.first_page..).zip(pages) {
            let Some(id) = self.dram.slot_id(page) else {
                continue;
            };
            let skip = (page == layout::page_of(addr)).then_some(layout::line_of(addr));
            let [old, new] = [old, new].map(|v| move |l: usize| v.get(l).copied().unwrap_or(0));
            let slot = self.dram.slot_mut(id);
            let failed = self
                .sealer
                .reseal_page(&self.sealer, slot, page, skip, old, new);
            if failed != 0 {
                let line = failed.trailing_zeros() as usize;
                return Err(tampered(layout::line_address(page, line)));
            }
        }
        Ok(())
    }
}

/// The failure of a line, or of the store's own check, at `address`.
fn tampered(address: u64) -> MemoryError {
    MemoryError::IntegrityViolation { address }
}

impl<V: VersionStore> ProtectedMemory for Baseline<V> {
    fn scheme(&self) -> &'static str {
        V::SCHEME
    }

    fn read(&mut self, addr: u64) -> Result<Block, MemoryError> {
        let fetched = self.store.fetch(self.block(addr)?).ok_or(tampered(addr))?;
        self.version_fetches += fetched.fetches;
        self.reads += 1;
        // A page with no slot was never born — the arena never drops a
        // slot, and every birth creates one — so zeros are its content.
        match self.dram.slot_id(layout::page_of(addr)) {
            Some(id) => self
                .sealer
                .unseal(self.dram.slot(id), addr, fetched.version),
            None => Some([0; 64]),
        }
        .ok_or(tampered(addr))
    }

    fn write(&mut self, addr: u64, data: &Block) -> Result<(), MemoryError> {
        let (fetched, moved) = self
            .store
            .advance(self.block(addr)?)
            .ok_or(tampered(addr))?;
        self.version_fetches += fetched.fetches;
        self.writes += 1;
        if let Some(moved) = moved {
            self.reseal(addr, &moved)?;
        }
        if !self.is_born(layout::page_of(addr)) {
            self.birth(addr)?;
        }
        let id = self.dram.ensure_slot(layout::page_of(addr));
        self.sealer
            .seal(self.dram.slot_mut(id), addr, fetched.version, data);
        Ok(())
    }

    fn stats(&self) -> MemoryStats {
        MemoryStats {
            reads: self.reads,
            writes: self.writes,
            version_fetches: self.version_fetches,
            reencryption_events: self.store.rebases(),
        }
    }

    fn untrusted(&mut self, _addr: u64) -> &mut UntrustedDram {
        &mut self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The Carter–Wegman nonce invariant, observed rather than argued:
    /// every `(version, address)` a verifying line was seen under, with
    /// the ciphertext it held (the baselines' mirror of the engine's
    /// `no_nonce_ever_seals_two_ciphertexts`). Blank lines are recorded
    /// under their own domain, the zero block as their ciphertext.
    #[derive(Default)]
    pub(crate) struct Nonces(HashMap<(u64, u64, bool), Block>);

    impl Nonces {
        /// Records each line of `e`'s arena that verifies under its
        /// store's version, panicking if its `(version, address)` was seen
        /// before with another ciphertext.
        pub(crate) fn observe(&mut self, e: &mut Baseline<impl VersionStore>) {
            for (page, id) in e.dram.pages() {
                let slot = e.dram.slot(id);
                for line in 0..LINES_PER_PAGE {
                    let addr = layout::line_address(page, line);
                    if slot.held() & 1 << line == 0 || addr >= e.bytes {
                        continue;
                    }
                    let (blank, ct) = match slot.block(line) {
                        Some(&ct) => (false, ct),
                        None => (true, [0; 64]),
                    };
                    let v = e.store.fetch(addr / 64).unwrap().version;
                    if e.sealer.unseal(slot, addr, v).is_some() {
                        let earlier = self.0.insert((v, addr, blank), ct);
                        assert!(
                            earlier.is_none_or(|old| old == ct),
                            "{addr:#x} sealed two ciphertexts under version {v:#x}"
                        );
                    }
                }
            }
        }

        /// Resident-line nonces seen, and blank ones.
        pub(crate) fn len(&self) -> (usize, usize) {
            let blanks = self.0.keys().filter(|key| key.2).count();
            (self.0.len() - blanks, blanks)
        }
    }

    /// Every baseline's counters and the data it reads back, pinned over
    /// one seeded mixed trace: a read in three ops, six hot lines that
    /// drive VAULT through overflow resets and Morph through re-bases,
    /// and a cold quarter over 64 Ki blocks that misses the SGX tree's
    /// node cache. The literals are each engine's `(stats, FNV fold of
    /// every byte read)`. Each page's first write is a birth that fetches
    /// the verified version of its other 63 lines: one fetch each for
    /// VAULT and Morph, node-cache misses for the SGX tree (4 422 of its
    /// 7 962, and the walks' evictions cost the data path 519 more misses
    /// than the 3 021 it took without births).
    #[test]
    fn baseline_counters_are_pinned() {
        fn run(mut m: impl ProtectedMemory) -> (MemoryStats, u64) {
            let mut fold = 0xcbf2_9ce4_8422_2325u64;
            for (i, (block, fill)) in hot_trace(34, 6000, 6, 1 << 16).into_iter().enumerate() {
                if i % 3 == 0 {
                    for byte in m.read(block * 64).unwrap() {
                        fold = (fold ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                } else {
                    m.write(block * 64, &[fill; 64]).unwrap();
                }
            }
            (m.stats(), fold)
        }
        let stats = |reads, writes, version_fetches, reencryption_events| MemoryStats {
            reads,
            writes,
            version_fetches,
            reencryption_events,
        };
        let fold = 0xd65c_51ac_e5d3_8ce5_u64;
        let trace = hot_trace(34, 6000, 6, 1 << 16).into_iter().enumerate();
        let born: std::collections::HashSet<u64> = trace
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, (block, _))| block / LINES_PER_PAGE as u64)
            .collect();
        assert_eq!(born.len(), 634);
        let flat_fetches = 6000 + 63 * born.len() as u64;
        assert_eq!(
            run(SgxEngine::new(1 << 22)),
            (stats(2000, 4000, 7962, 0), fold)
        );
        assert_eq!(
            run(VaultEngine::new(1 << 22)),
            (stats(2000, 4000, flat_fetches, 9), fold)
        );
        assert_eq!(
            run(MorphEngine::new(1 << 22)),
            (stats(2000, 4000, flat_fetches, 52), fold)
        );
    }

    /// A seeded hot-block write trace of `(block, fill)`: three writes in
    /// four go to one of the first `hot` blocks, the rest anywhere below
    /// `blocks`.
    pub(crate) fn hot_trace(seed: u64, ops: usize, hot: u64, blocks: u64) -> Vec<(u64, u8)> {
        let mut x = seed | 1;
        (0..ops)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let range = if x.is_multiple_of(4) { blocks } else { hot };
                ((x >> 8) % range, (x >> 40) as u8)
            })
            .collect()
    }
}
