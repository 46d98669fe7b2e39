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
//! A line nothing has been written to since its page's birth is **blank**:
//! it holds no ciphertext, only a blank tag, the line MAC of the zero block
//! under the pad of `(version, address | 2)` ([`Tweak::blank_pad`]). A
//! birth ([`blank_page`](LineSealer::blank_page)) writes those tags, the
//! page walk moves them to new versions like any other line, and a read
//! answers zeros only when the blank tag verifies. Absence is therefore a
//! verifiable state: a line with neither ciphertext nor a tag, or a
//! replayed blank capture, fails like tampered ciphertext does.
//!
//! The tag is sound only while `(version, address)` never seals two
//! ciphertexts under one key. Each scheme argues that for its own versions,
//! and a test per scheme (`no_nonce_ever_seals_two_ciphertexts`) observes
//! it over a seeded trace. Blank pads are a separate domain that only ever
//! tags the zero block.

use crate::arena::{Block, PageSlot};
use crate::config::{CACHE_BLOCK_BYTES, LINES_PER_PAGE};
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

    /// Verifies and decrypts the line at `addr` under `version`. A line
    /// with ciphertext opens if its tag verifies; a line without
    /// ciphertext reads as zeros if it holds the blank tag of `(version,
    /// addr)`. `None` is a failed verification — a tag that does not
    /// match, a resident line with no tag, a line with neither ciphertext
    /// nor a tag — which every scheme answers as tamper.
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
        match ct {
            Some(ct) => self.open(ct, tag, self.pads(version, addr)),
            None => {
                let tweak = Tweak {
                    version,
                    address: addr,
                };
                let pad = self.xts.tweak_block(tweak.blank_pad());
                self.is_blank(tag, &pad).then_some([0; CACHE_BLOCK_BYTES])
            }
        }
    }

    /// A page's birth: every line `l` with `Some` version in `versions`
    /// drops its ciphertext and takes the blank tag of `(version,
    /// address)`, its pads in one pipelined pass. Lines with `None` are
    /// left as they are.
    pub fn blank_page(
        &self,
        slot: &mut PageSlot,
        page: u64,
        versions: &[Option<u64>; LINES_PER_PAGE],
    ) {
        let blanks = (0..).zip(versions).filter_map(|(l, v)| Some((l, (*v)?)));
        for (l, [pad]) in self.pads_of(page, blanks, |t| [t.blank_pad()]) {
            slot.clear_block(l);
            slot.set_tag(l, self.blank_tag(&pad));
        }
    }

    /// Moves every line of `page` but `skip` that holds ciphertext or a
    /// tag from version `old(l)` under this sealer to version `new(l)`
    /// under `to`: a stealth reset's UV bump, a VAULT group reset, a
    /// Morphable leaf re-base (each with `to = self`), or a recovered
    /// shard's move to its new key. A resident line opens and re-seals; a
    /// blank line has its blank tag checked under `old` and is re-tagged
    /// under `new` — two pads, with no decrypt and no encrypt. Re-tagging
    /// without the check would launder a replayed blank capture into a
    /// valid blank.
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
        let held = slot.held() & !skip.map_or(0, |l| 1 << l);
        let resident = held & slot.present();
        let lines = |mask: u64| (0..LINES_PER_PAGE).filter(move |&l| mask & 1 << l != 0);
        let mut failed = 0;
        let data = |t: Tweak| [t, t.mac_pad()];
        let from = self.pads_of(page, lines(resident).map(|l| (l, old(l))), data);
        let into = to.pads_of(page, lines(resident).map(|l| (l, new(l))), data);
        let pads = |[tweak, mac_pad]: [[u8; 16]; 2]| LinePads { tweak, mac_pad };
        for ((l, was), (_, now)) in from.zip(into) {
            let ct = slot.block(l).copied();
            match ct.and_then(|ct| self.open(ct, slot.tag(l), pads(was))) {
                Some(plaintext) => to.seal_with(slot, l, pads(now), &plaintext),
                None => failed |= 1 << l,
            }
        }
        let blank = |t: Tweak| [t.blank_pad()];
        let from = self.pads_of(page, lines(held & !resident).map(|l| (l, old(l))), blank);
        let into = to.pads_of(page, lines(held & !resident).map(|l| (l, new(l))), blank);
        for ((l, [was]), (_, [now])) in from.zip(into) {
            if self.is_blank(slot.tag(l), &was) {
                slot.set_tag(l, to.blank_tag(&now));
            } else {
                failed |= 1 << l;
            }
        }
        failed
    }

    /// `K` tweak-key inputs per `(line, version)` of `lines`, made by
    /// `inputs` from the line's tweak, encrypted in one pipelined pass so
    /// their cost is amortized over the page instead of paid as serial AES
    /// passes per line. Yields each line with its pads, in order.
    fn pads_of<const K: usize>(
        &self,
        page: u64,
        lines: impl Iterator<Item = (usize, u64)>,
        inputs: impl Fn(Tweak) -> [Tweak; K],
    ) -> impl Iterator<Item = (usize, [[u8; 16]; K])> {
        let mut walked = [0usize; LINES_PER_PAGE];
        let mut tweaks = [[Tweak::default(); K]; LINES_PER_PAGE];
        let mut n = 0;
        for ((line, tweak), (l, version)) in walked.iter_mut().zip(&mut tweaks).zip(lines) {
            let address = layout::line_address(page, l);
            (*line, *tweak) = (l, inputs(Tweak { version, address }));
            n += 1;
        }
        let mut pads = [[[0u8; 16]; K]; LINES_PER_PAGE];
        let out = pads.get_mut(..n).unwrap_or_default().as_flattened_mut();
        let tweaks = tweaks.get(..n).unwrap_or_default().as_flattened();
        self.xts.tweak_blocks(tweaks, out);
        walked.into_iter().zip(pads).take(n)
    }

    #[inline]
    fn pads(&self, version: u64, address: u64) -> LinePads {
        self.xts.line_pads(Tweak { version, address })
    }

    /// The blank tag under an encrypted [`Tweak::blank_pad`].
    #[inline]
    fn blank_tag(&self, pad: &[u8; 16]) -> Tag56 {
        self.mac.tag(pad, &[0; CACHE_BLOCK_BYTES])
    }

    /// Whether `stored` is the blank tag under `pad`; a missing tag is not.
    #[inline]
    fn is_blank(&self, stored: Option<Tag56>, pad: &[u8; 16]) -> bool {
        stored.is_some_and(|stored| self.blank_tag(pad).verify(&stored))
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
    fn seal_unseal_roundtrip_and_blank_lines() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        s.seal(slot(&mut dram, 0x40), 0x40, 7, &[9u8; 64]);
        assert_ne!(dram.ciphertext(0x40), Some(&[9u8; 64]), "sealed at rest");
        assert_eq!(s.unseal(slot(&mut dram, 0x40), 0x40, 7), Some([9u8; 64]));
        assert_eq!(s.unseal(slot(&mut dram, 0x80), 0x80, 3), None, "no tag");
        // A birth blanks every line but the written one at its version.
        let mut versions = [Some(3); LINES_PER_PAGE];
        versions[1] = None;
        s.blank_page(slot(&mut dram, 0x80), 0, &versions);
        let page = slot(&mut dram, 0x80);
        assert_eq!(s.unseal(page, 0x40, 7), Some([9u8; 64]), "skipped");
        assert_eq!(s.unseal(page, 0x80, 3), Some([0u8; 64]));
        assert_eq!(s.unseal(page, 0x80, 4), None, "blank tag binds the version");
        assert!(!page.has_block(2) && page.resident() == 1);
        // The zero block's hash is zero, so without a domain of its own a
        // blank tag would verify ciphertext `[0; 64]` too.
        page.set_block(2, [0; 64]);
        assert_eq!(s.unseal(page, 0x80, 3), None, "zero ciphertext on a blank");
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

    /// The page walk moves every resident line and every blank line but
    /// `skip` from its old version to its new one, leaves lines with
    /// neither ciphertext nor a tag as they are, and reports each line
    /// that does not verify in its mask while it walks on past it.
    #[test]
    fn reseal_moves_versions_and_detects_tamper() {
        let (s, mut dram) = (sealer(), UntrustedDram::default());
        let page = slot(&mut dram, 0x1000);
        let mut blanks = [None; LINES_PER_PAGE];
        blanks[2] = Some(2);
        blanks[3] = Some(3);
        s.blank_page(page, 1, &blanks);
        for l in [1usize, 5, 7, 9] {
            s.seal(page, 0x1000 + 64 * l as u64, l as u64, &[l as u8; 64]);
        }
        let old = |l: usize| l as u64;
        let new = |l: usize| 100 + l as u64;
        assert_eq!(s.reseal_page(&s, page, 1, Some(9), old, new), 0);
        for (l, v, data) in [(1u64, 101, 1u8), (2, 102, 0), (3, 103, 0), (5, 105, 5)] {
            let addr = 0x1000 + 64 * l;
            assert_eq!(s.unseal(page, addr, v), Some([data; 64]), "line {l}");
            assert_eq!(s.unseal(page, addr, v - 100), None, "line {l}: old version");
        }
        assert_eq!(
            s.unseal(page, 0x1000 + 64 * 9, 9),
            Some([9u8; 64]),
            "skipped"
        );
        assert!(
            !page.has_block(0) && page.tag(0).is_none(),
            "absent stays absent"
        );
        assert!(!page.has_block(2), "a blank stays blank");
        // A flipped ciphertext bit, and a blank tag replayed from before the
        // walk: each fails, the rest walk on.
        assert!(page.corrupt(5, 13, 0x20));
        let tampered = *page.block(5).unwrap();
        let stale = first_blank_tag(&s, 3);
        page.set_tag(3, stale);
        let moved = |l: usize| 100 + l as u64;
        let failed = s.reseal_page(&s, page, 1, Some(9), moved, |l| 200 + l as u64);
        assert_eq!(failed, 1 << 5 | 1 << 3, "tamper caught mid-walk");
        assert_eq!(
            page.block(5),
            Some(&tampered),
            "a failed line is left as it was"
        );
        assert_eq!(page.tag(3), Some(stale));
        for (l, data) in [(1u64, 1u8), (2, 0), (7, 7)] {
            let addr = 0x1000 + 64 * l;
            assert_eq!(s.unseal(page, addr, 200 + l), Some([data; 64]), "line {l}");
        }
    }

    /// The blank tag line `l` of page 1 held at version `l`, before any walk.
    fn first_blank_tag(s: &LineSealer, l: usize) -> Tag56 {
        let mut dram = UntrustedDram::default();
        let mut versions = [None; LINES_PER_PAGE];
        versions[l] = Some(l as u64);
        let page = slot(&mut dram, 0x1000);
        s.blank_page(page, 1, &versions);
        page.tag(l).unwrap()
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
