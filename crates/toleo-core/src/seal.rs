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
    /// `old(l)` under this sealer to version `new(l)` under `to`: a stealth
    /// reset's UV bump, a VAULT group reset, a Morphable leaf re-base (each
    /// with `to = self`), or a recovered shard's move to its new key. The
    /// walk's old and new tweaks and MAC pads are encrypted up front, one
    /// pipelined pass per sealer, so their cost is amortized over the page
    /// instead of paid as two serial AES passes per line.
    ///
    /// Returns the mask of lines (bit `l` for line `l`) that do not verify
    /// under `old`: they are left as they were, and every other line is
    /// walked.
    pub fn reseal_page(
        &self,
        to: &LineSealer,
        slot: &mut PageSlot,
        page: u64,
        skip: Option<usize>,
        old: impl Fn(usize) -> u64,
        new: impl Fn(usize) -> u64,
    ) -> u64 {
        let resident = (0..LINES_PER_PAGE).filter(|&l| Some(l) != skip && slot.has_block(l));
        // Per resident line, its tweak and MAC pad under `old` for this
        // sealer's pass, and under `new` for `to`'s.
        let mut lines = [0usize; LINES_PER_PAGE];
        let mut inputs = [[[Tweak::default(); 2]; LINES_PER_PAGE]; 2];
        let mut n = 0;
        let [from, into] = &mut inputs;
        for (((line, from), into), l) in lines.iter_mut().zip(from).zip(into).zip(resident) {
            let address = page * PAGE_BYTES as u64 + (l * CACHE_BLOCK_BYTES) as u64;
            let [was, now] = [old(l), new(l)].map(|version| Tweak { version, address });
            (*line, *from, *into) = (l, [was, was.mac_pad()], [now, now.mac_pad()]);
            n += 1;
        }
        let mut pads = [[[[0u8; 16]; 2]; LINES_PER_PAGE]; 2];
        for ((sealer, inputs), pads) in [self, to].into_iter().zip(&inputs).zip(&mut pads) {
            let pads = pads.get_mut(..n).unwrap_or_default().as_flattened_mut();
            let inputs = inputs.get(..n).unwrap_or_default().as_flattened();
            sealer.xts.tweak_blocks(inputs, pads);
        }
        let [from, into] = pads;
        let pads = |[tweak, mac_pad]: [[u8; 16]; 2]| LinePads { tweak, mac_pad };
        let mut failed = 0;
        for ((&l, from), into) in lines.iter().zip(from).zip(into).take(n) {
            let ct = slot.block(l).copied();
            match ct.and_then(|ct| self.open(ct, slot.tag(l), pads(from))) {
                Some(plaintext) => to.seal_with(slot, l, pads(into), &plaintext),
                None => failed |= 1 << l,
            }
        }
        failed
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
    /// version to its new one, leaves absent lines absent, and reports each
    /// line that does not verify in its mask while it walks on past it.
    #[test]
    fn reseal_moves_versions_and_detects_tamper() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        let page = slot(&mut dram, 0x1000);
        for l in [1usize, 5, 7, 9] {
            s.seal(page, 0x1000 + 64 * l as u64, l as u64, &[l as u8; 64]);
        }
        let old = |l: usize| l as u64;
        let new = |l: usize| 100 + l as u64;
        assert_eq!(s.reseal_page(&s, page, 1, Some(9), old, new), 0);
        for (l, v) in [(1u64, 101), (5, 105), (7, 107), (9, 9)] {
            let addr = 0x1000 + 64 * l;
            assert_eq!(s.unseal(page, addr, v), Some([l as u8; 64]), "line {l}");
            assert_eq!(s.unseal(page, addr, v ^ 1), None, "line {l}: old version");
        }
        assert!(!page.has_block(0), "absent lines stay absent");
        assert!(page.corrupt(5, 13, 0x20));
        let tampered = *page.block(5).unwrap();
        let moved = |l: usize| 100 + l as u64;
        let failed = s.reseal_page(&s, page, 1, Some(9), moved, |l| 200 + l as u64);
        assert_eq!(failed, 1 << 5, "tamper caught mid-walk");
        assert_eq!(
            page.block(5),
            Some(&tampered),
            "a failed line is left as it was"
        );
        for l in [1u64, 7] {
            let addr = 0x1000 + 64 * l;
            assert_eq!(
                s.unseal(page, addr, 200 + l),
                Some([l as u8; 64]),
                "line {l}"
            );
        }
    }

    /// Across two sealers the walk moves a line to the target's key: it
    /// opens under `to` at its new version and no longer under the source.
    #[test]
    fn reseal_moves_lines_to_the_target_sealer() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        let to = LineSealer::new(b"other-data-key16other-tweak-k16other-mac-key 16B");
        let page = slot(&mut dram, 0x2000);
        for l in [0u64, 3, 63] {
            s.seal(page, 0x2000 + 64 * l, 40 + l, &[l as u8 + 1; 64]);
        }
        assert_eq!(
            s.reseal_page(&to, page, 2, None, |l| 40 + l as u64, |_| 7),
            0
        );
        for l in [0u64, 3, 63] {
            let addr = 0x2000 + 64 * l;
            assert_eq!(
                to.unseal(page, addr, 7),
                Some([l as u8 + 1; 64]),
                "line {l}"
            );
            assert_eq!(s.unseal(page, addr, 7), None, "line {l}: source key");
            assert_eq!(
                s.unseal(page, addr, 40 + l),
                None,
                "line {l}: source version"
            );
        }
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
