//! Sealing cache lines into untrusted memory: the one seal every scheme
//! shares.
//!
//! A sealed line is its AES-XTS ciphertext under the `(version, address)`
//! tweak plus a 56-bit Carter–Wegman tag ([`toleo_crypto::mac::LineMac`])
//! whose pad is the tweak's twin `(version, address | 1)`, encrypted in the
//! same AES pass; both land in the line's [`PageSlot`]. The schemes differ
//! only in where the version comes from: Toleo's trusted device (the
//! [`engine`](crate::engine)), or a Merkle leaf, a VAULT counter or a
//! Morphable leaf (`toleo-baselines`).
//!
//! The tag is sound only while `(version, address)` never seals two
//! ciphertexts under one key. Each scheme argues that for its own versions,
//! and a test per scheme (`no_nonce_ever_seals_two_ciphertexts`) observes
//! it over a seeded trace.

use crate::arena::{Block, PageSlot};
use crate::config::{CACHE_BLOCK_BYTES, LINES_PER_PAGE, PAGE_BYTES};
use crate::layout;
use toleo_crypto::mac::{LineMac, Tag56};
use toleo_crypto::modes::{AesXts, LinePads, Tweak};

/// The keys that seal lines: the XTS data and tweak keys and the line-MAC
/// key. Its `Debug` is its parts', which redact.
#[derive(Debug, Clone)]
pub struct LineSealer {
    xts: AesXts,
    mac: LineMac,
}

/// Splits 48 bytes of key material into its three 16-byte subkeys (XTS
/// data, XTS tweak, MAC) without a fallible slice-to-array conversion.
pub(crate) fn split_key_material(key_material: &[u8; 48]) -> [[u8; 16]; 3] {
    let mut keys = [[0u8; 16]; 3];
    for (key, subkey) in keys.iter_mut().zip(key_material.as_chunks().0) {
        *key = *subkey;
    }
    keys
}

impl LineSealer {
    /// A sealer keyed by 48 bytes: the XTS data key, the XTS tweak key and
    /// the MAC key, 16 bytes each.
    pub fn new(key_material: &[u8; 48]) -> Self {
        let [data_key, tweak_key, mac_key] = split_key_material(key_material);
        LineSealer {
            xts: AesXts::new(&data_key, &tweak_key),
            mac: LineMac::new(&mac_key),
        }
    }

    /// Encrypts `plaintext` for the line at `addr` under `version`, MACs
    /// the ciphertext, and stores both in `slot`, the page holding `addr`.
    #[inline]
    pub fn seal(&self, slot: &mut PageSlot, addr: u64, version: u64, plaintext: &Block) {
        let line = layout::line_of(addr);
        self.seal_with(slot, line, self.pads(version, addr), plaintext);
    }

    /// Verifies and decrypts the line at `addr` under `version`. `None` is
    /// a failed verification — the recomputed tag does not match the
    /// stored one, or a resident line has no stored tag — which every
    /// scheme answers as tamper. A line with no ciphertext reads as zeros
    /// without consulting anything trusted (ROADMAP item 1: a replayed
    /// blank line rolls a written one back).
    #[inline]
    pub fn unseal(&self, slot: &PageSlot, addr: u64, version: u64) -> Option<Block> {
        let line = layout::line_of(addr);
        self.unseal_fetched(slot.block(line).copied(), slot.tag(line), addr, version)
    }

    /// [`unseal`](Self::unseal) of a line already fetched from its slot:
    /// its ciphertext (`None` when absent) and its stored tag, by value,
    /// so a caller can issue those loads before it waits on the version.
    #[inline]
    pub fn unseal_fetched(
        &self,
        ct: Option<Block>,
        tag: Option<Tag56>,
        addr: u64,
        version: u64,
    ) -> Option<Block> {
        let Some(ct) = ct else {
            return Some([0u8; CACHE_BLOCK_BYTES]);
        };
        self.open(ct, tag, self.pads(version, addr))
    }

    /// Re-seals every resident line of `page` but `skip` from version
    /// `old(l)` to `new(l)`: a stealth reset's UV bump, a VAULT group
    /// reset, a Morphable leaf re-base. Every old and new tweak and MAC pad
    /// of the walk is encrypted up front in one pipelined pass, so their
    /// cost is amortized over the page instead of paid as two serial AES
    /// passes per line.
    ///
    /// # Errors
    ///
    /// The address of the first line that does not verify under `old`.
    /// Lines before it are already re-sealed under `new`, so the caller
    /// must treat the whole page as tampered.
    pub fn reseal_page(
        &self,
        slot: &mut PageSlot,
        page: u64,
        skip: Option<usize>,
        old: impl Fn(usize) -> u64,
        new: impl Fn(usize) -> u64,
    ) -> Result<(), u64> {
        let base = page * PAGE_BYTES as u64;
        let addr = |l: usize| base + (l * CACHE_BLOCK_BYTES) as u64;
        let resident = (0..LINES_PER_PAGE).filter(|&l| Some(l) != skip && slot.has_block(l));
        // Per resident line, four adjacent inputs of the pass: its old
        // tweak and MAC pad, then its new ones.
        let mut lines = [0usize; LINES_PER_PAGE];
        let mut inputs = [Tweak::default(); 4 * LINES_PER_PAGE];
        let mut n = 0;
        let slots = lines.iter_mut().zip(inputs.as_chunks_mut::<4>().0);
        for ((line, quad), l) in slots.zip(resident) {
            let tweak = |version| Tweak {
                version,
                address: addr(l),
            };
            let (from, to) = (tweak(old(l)), tweak(new(l)));
            *quad = [from, from.mac_pad(), to, to.mac_pad()];
            *line = l;
            n += 1;
        }
        let mut pads = [[0u8; 16]; 4 * LINES_PER_PAGE];
        let pads = pads.get_mut(..4 * n).unwrap_or_default();
        self.xts
            .tweak_blocks(inputs.get(..4 * n).unwrap_or_default(), pads);
        for (&l, &[tweak, mac_pad, new_tweak, new_mac_pad]) in
            lines.iter().zip(pads.as_chunks::<4>().0)
        {
            let plaintext = slot
                .block(l)
                .and_then(|&ct| self.open(ct, slot.tag(l), LinePads { tweak, mac_pad }))
                .ok_or(addr(l))?;
            let pads = LinePads {
                tweak: new_tweak,
                mac_pad: new_mac_pad,
            };
            self.seal_with(slot, l, pads, &plaintext);
        }
        Ok(())
    }

    #[inline]
    fn pads(&self, version: u64, address: u64) -> LinePads {
        self.xts.line_pads(Tweak { version, address })
    }

    #[inline]
    fn seal_with(&self, slot: &mut PageSlot, line: usize, pads: LinePads, plaintext: &Block) {
        let mut ct = *plaintext;
        self.xts.encrypt_line_with_tweak(pads.tweak, &mut ct);
        slot.set_tag(line, self.mac.tag(&pads.mac_pad, &ct));
        slot.set_block(line, ct);
    }

    /// MAC verification gates decryption: the pads touch no ciphertext,
    /// and no key does until the stored tag checks out.
    #[inline]
    fn open(&self, mut ct: Block, stored: Option<Tag56>, pads: LinePads) -> Option<Block> {
        let stored = stored?;
        if !self.mac.tag(&pads.mac_pad, &ct).verify(&stored) {
            return None;
        }
        self.xts.decrypt_line_with_tweak(pads.tweak, &mut ct);
        Some(ct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::UntrustedDram;

    fn sealer() -> LineSealer {
        LineSealer::new(b"seal-data-key 16seal-tweak-key16seal-mac-key 16B")
    }

    /// The slot holding `addr` in `dram`, materialized.
    fn slot(dram: &mut UntrustedDram, addr: u64) -> &mut PageSlot {
        let id = dram.ensure_slot(layout::page_of(addr));
        dram.slot_mut(id)
    }

    #[test]
    fn seal_unseal_roundtrip_and_zero_fill() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        s.seal(slot(&mut dram, 0x40), 0x40, 7, &[9u8; 64]);
        assert_ne!(dram.ciphertext(0x40), Some(&[9u8; 64]), "sealed at rest");
        assert_eq!(s.unseal(slot(&mut dram, 0x40), 0x40, 7), Some([9u8; 64]));
        assert_eq!(s.unseal(slot(&mut dram, 0x80), 0x80, 1), Some([0u8; 64]));
    }

    #[test]
    fn wrong_version_fails() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        s.seal(slot(&mut dram, 0x40), 0x40, 7, &[9u8; 64]);
        assert_eq!(s.unseal(slot(&mut dram, 0x40), 0x40, 8), None);
        // The tag binds the address too: line 1 sealed, line 2 claimed.
        let line = *dram.ciphertext(0x40).unwrap();
        let tag = slot(&mut dram, 0x40).tag(1).unwrap();
        slot(&mut dram, 0x80).set_block(2, line);
        slot(&mut dram, 0x80).set_tag(2, tag);
        assert_eq!(s.unseal(slot(&mut dram, 0x80), 0x80, 7), None);
    }

    /// The page walk moves every resident line but `skip` from its old
    /// version to its new one, leaves absent lines absent, and stops at
    /// the first line that does not verify, naming its address.
    #[test]
    fn reseal_moves_versions_and_detects_tamper() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        let page = slot(&mut dram, 0x1000);
        for l in [1usize, 5, 9] {
            s.seal(page, 0x1000 + 64 * l as u64, l as u64, &[l as u8; 64]);
        }
        let old = |l: usize| l as u64;
        let new = |l: usize| 100 + l as u64;
        s.reseal_page(page, 1, Some(9), old, new).unwrap();
        for (l, v) in [(1u64, 101), (5, 105), (9, 9)] {
            let addr = 0x1000 + 64 * l;
            assert_eq!(s.unseal(page, addr, v), Some([l as u8; 64]), "line {l}");
            assert_eq!(s.unseal(page, addr, v ^ 1), None, "line {l}: old version");
        }
        assert!(!page.has_block(0), "absent lines stay absent");
        assert!(page.corrupt(5, 13, 0x20));
        let moved = |l: usize| 100 + l as u64;
        let err = s.reseal_page(page, 1, Some(9), moved, |l| 200 + l as u64);
        assert_eq!(err, Err(0x1000 + 5 * 64), "tamper caught mid-walk");
        assert_eq!(
            s.unseal(page, 0x1040, 201),
            Some([1u8; 64]),
            "line 1 went first"
        );
    }

    #[test]
    fn capture_replay_restores_stale_state() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        s.seal(slot(&mut dram, 0x40), 0x40, 1, &[1u8; 64]);
        let stale = dram.capture(0x40);
        s.seal(slot(&mut dram, 0x40), 0x40, 2, &[2u8; 64]);
        dram.replay(&stale);
        let page = slot(&mut dram, 0x40);
        assert_eq!(
            s.unseal(page, 0x40, 2),
            None,
            "stale tag under the new version"
        );
        assert_eq!(s.unseal(page, 0x40, 1), Some([1u8; 64]));
    }
}
