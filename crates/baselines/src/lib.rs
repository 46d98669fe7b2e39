//! # toleo-baselines
//!
//! The protection schemes Toleo is evaluated against, built from scratch:
//!
//! * [`tree`] — a functional Merkle counter tree with MAC chains and a
//!   node cache: the freshness mechanism of client SGX, VAULT and
//!   Morphable Counters, and the scalability bottleneck Toleo removes.
//! * [`sgx`] — a client-SGX-style memory encryption engine (versions
//!   from the counter tree over a bounded EPC) with adversary hooks.
//! * [`schemes`] — the Table 1 guarantee matrix and Table 4 version-size
//!   rows for every compared design (Client/Scalable SGX, VAULT,
//!   MorphCtr-128, InvisiMem, Toleo).
//! * [`vault`] — VAULT's variable-arity tree with small-counter overflow
//!   resets, plus the functional [`VaultEngine`].
//! * [`morph`] — Morphable Counters' uniform/skewed leaf encodings, plus
//!   the functional [`MorphEngine`].
//!
//! The three engines seal exactly as Toleo does, through
//! [`LineSealer`] into an [`UntrustedDram`] page arena, and a VAULT
//! group reset or a Morphable re-base is the engine's own page walk
//! ([`LineSealer::reseal_page`]). They differ from Toleo only in where a
//! line's version comes from. Every engine implements
//! [`ProtectedMemory`](toleo_core::protected::ProtectedMemory), so the
//! benchmark and the security suite drive Toleo and the baselines
//! through one interface — same workloads, same batch entry
//! points, same tamper/replay corpus on the same arena.
//!
//! The timing-level comparison (CI and InvisiMem configurations) lives in
//! `toleo-sim`, which models them as protection modes of the same node.
//!
//! ```
//! use toleo_baselines::sgx::SgxEngine;
//! use toleo_baselines::schemes::Scheme;
//!
//! let mut sgx = SgxEngine::new(128 << 20); // the classic 128 MB EPC
//! sgx.write(0, &[1u8; 64])?;
//! assert_eq!(sgx.read(0)?, [1u8; 64]);
//! assert_eq!(Scheme::ClientSgx.guarantees().freshness.to_string(), "Yes");
//! # Ok::<(), toleo_baselines::sgx::SgxError>(())
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
use toleo_core::config::{CACHE_BLOCK_BYTES, PAGE_BYTES};
use toleo_core::layout;
use toleo_core::protected::MemoryError;
use toleo_core::seal::LineSealer;

/// The index of the block at `addr` if it is one of the whole 64-byte
/// blocks of a `bytes`-sized memory — the range check of all three
/// engines, so a trailing partial block is out of range.
///
/// # Panics
///
/// Panics if `addr` is not 64-byte aligned.
fn whole_block(addr: u64, bytes: u64) -> Option<u64> {
    assert_eq!(addr % 64, 0, "unaligned block access");
    (addr / 64 < bytes / 64).then_some(addr / 64)
}

/// Seals `data` for `addr` under `version` into `dram`.
fn seal(sealer: &LineSealer, dram: &mut UntrustedDram, addr: u64, version: u64, data: &Block) {
    let id = dram.ensure_slot(layout::page_of(addr));
    sealer.seal(dram.slot_mut(id), addr, version, data);
}

/// Unseals the line at `addr` under `version`; a page never written reads
/// as zeros. `None` is tamper or replay.
fn unseal(sealer: &LineSealer, dram: &UntrustedDram, addr: u64, version: u64) -> Option<Block> {
    match dram.slot_id(layout::page_of(addr)) {
        Some(id) => sealer.unseal(dram.slot(id), addr, version),
        None => Some([0; 64]),
    }
}

/// The page walk of a VAULT group reset or a Morphable re-base: every
/// resident line of `page` but `skip` goes from `old(l)` to `new(l)`, and
/// a line that does not verify is tamper at the lowest such line.
fn reseal(
    sealer: &LineSealer,
    dram: &mut UntrustedDram,
    page: u64,
    skip: Option<usize>,
    old: impl Fn(usize) -> u64,
    new: impl Fn(usize) -> u64,
) -> Result<(), MemoryError> {
    let Some(id) = dram.slot_id(page) else {
        return Ok(());
    };
    match sealer.reseal_page(sealer, dram.slot_mut(id), page, skip, old, new) {
        0 => Ok(()),
        failed => Err(MemoryError::IntegrityViolation {
            address: page * PAGE_BYTES as u64
                + u64::from(failed.trailing_zeros()) * CACHE_BLOCK_BYTES as u64,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use toleo_core::config::LINES_PER_PAGE;

    /// The Carter–Wegman nonce invariant, observed rather than argued:
    /// every `(version, address)` a verifying line was seen under, with
    /// the ciphertext it held (the baselines' mirror of the engine's
    /// `no_nonce_ever_seals_two_ciphertexts`).
    #[derive(Default)]
    pub(crate) struct Nonces(HashMap<(u64, u64), Block>);

    impl Nonces {
        /// Records each resident line of `dram` that verifies under
        /// `version(block)`, panicking if its `(version, address)` was
        /// seen before with another ciphertext.
        pub(crate) fn observe(
            &mut self,
            sealer: &LineSealer,
            dram: &UntrustedDram,
            mut version: impl FnMut(u64) -> u64,
        ) {
            for (page, id) in dram.pages() {
                let slot = dram.slot(id);
                for line in 0..LINES_PER_PAGE {
                    let Some(&ct) = slot.block(line) else {
                        continue;
                    };
                    let addr = page * PAGE_BYTES as u64 + (line * CACHE_BLOCK_BYTES) as u64;
                    let v = version(addr / 64);
                    if sealer.unseal(slot, addr, v).is_some() {
                        let earlier = self.0.insert((v, addr), ct);
                        assert!(
                            earlier.is_none_or(|old| old == ct),
                            "{addr:#x} sealed two ciphertexts under version {v:#x}"
                        );
                    }
                }
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.0.len()
        }
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
