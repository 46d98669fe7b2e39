//! Page-granular storage arena for untrusted conventional memory.
//!
//! The seed implementation kept three `HashMap<u64, …>` keyed by block
//! address (ciphertext, MACs) and page (UVs), so every engine operation
//! paid 3–4 hash probes and the stealth-reset re-encryption loop hashed 64
//! block addresses per page. This module replaces them with one slot per
//! *page*: a single probe of the flat open-addressed
//! [`PageIndex`] (or none, via the engine's
//! last-page cache) yields the page's [`PageSlot`], so per-line work is
//! plain array indexing and the re-encryption loop walks a slab.
//!
//! A [`PageSlot`] is one pointer to one cache-line-aligned heap slab per
//! page: the 64 ciphertext blocks first, so every block is exactly one
//! cache line, then the 64 MAC tags, the two residency bitmaps and the
//! page's shared UV. One op's untrusted state is therefore three
//! independent lines of one slab (block, tag, bitmaps + UV), which the
//! engine fetches before it walks to the device. The slot table itself is
//! 8 bytes per page.
//!
//! Slots live in a `Vec` and are addressed by stable [`SlotId`]s — pages
//! are never deallocated (freeing a page scrambles its *versions*, not the
//! simulated DRAM), so ids handed to the engine's last-page cache stay
//! valid for the arena's lifetime.
//!
//! Everything here is adversary-accessible by construction: the public
//! methods are tampering entry points for security testing.

// audit: allow-file(indexing, slot ids are handed out by this arena and index its own slots Vec)

use crate::config::{CACHE_BLOCK_BYTES, LINES_PER_PAGE};
use crate::layout;
use crate::pagetable::PageIndex;
use crate::version::UpperVersion;
use toleo_crypto::mac::Tag56;

/// A 64-byte cache block of plaintext or ciphertext.
pub type Block = [u8; CACHE_BLOCK_BYTES];

/// Stable handle to a page's slot in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

/// All untrusted state of one 4 KB page: 64 ciphertext blocks, 64 MAC
/// tags, and the shared upper version stored in the MAC blocks' slack
/// space (Fig. 4) — a handle to the page's one heap slab.
#[derive(Debug, Clone)]
pub struct PageSlot {
    slab: Box<Slab>,
}

/// The slab behind a [`PageSlot`]. `repr(C)` keeps the blocks at offset
/// 0 of a 64-byte-aligned allocation, so no block straddles two lines.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct Slab {
    blocks: [Block; LINES_PER_PAGE],
    tags: [Tag56; LINES_PER_PAGE],
    /// Bit `l` set <=> ciphertext block `l` is resident.
    present: u64,
    /// Bit `l` set <=> a MAC tag is stored for block `l`.
    tag_present: u64,
    uv: UpperVersion,
}

impl PageSlot {
    fn new() -> Self {
        PageSlot {
            slab: Box::new(Slab {
                blocks: [[0u8; CACHE_BLOCK_BYTES]; LINES_PER_PAGE],
                tags: [Tag56::from_raw(0); LINES_PER_PAGE],
                present: 0,
                tag_present: 0,
                uv: UpperVersion::default(),
            }),
        }
    }

    /// Whether ciphertext is resident for `line`.
    #[inline]
    pub fn has_block(&self, line: usize) -> bool {
        self.slab.present & (1u64 << line) != 0
    }

    /// The resident ciphertext block, if any.
    #[inline]
    pub fn block(&self, line: usize) -> Option<&Block> {
        if self.has_block(line) {
            Some(&self.slab.blocks[line])
        } else {
            None
        }
    }

    /// Stores ciphertext for `line`.
    #[inline]
    pub fn set_block(&mut self, line: usize, block: Block) {
        self.slab.blocks[line] = block;
        self.slab.present |= 1u64 << line;
    }

    /// Drops the ciphertext for `line` (models an unwritten block).
    #[inline]
    pub fn clear_block(&mut self, line: usize) {
        self.slab.present &= !(1u64 << line);
    }

    /// The stored MAC tag for `line`, if any.
    #[inline]
    pub fn tag(&self, line: usize) -> Option<Tag56> {
        if self.slab.tag_present & (1u64 << line) != 0 {
            Some(self.slab.tags[line])
        } else {
            None
        }
    }

    /// Stores the MAC tag for `line`.
    #[inline]
    pub fn set_tag(&mut self, line: usize, tag: Tag56) {
        self.slab.tags[line] = tag;
        self.slab.tag_present |= 1u64 << line;
    }

    /// Drops the MAC tag for `line`.
    #[inline]
    pub fn clear_tag(&mut self, line: usize) {
        self.slab.tag_present &= !(1u64 << line);
    }

    /// The lines that hold ciphertext: bit `l` for line `l`.
    #[inline]
    pub fn present(&self) -> u64 {
        self.slab.present
    }

    /// The lines that hold ciphertext or a tag: bit `l` for line `l`.
    #[inline]
    pub fn held(&self) -> u64 {
        self.slab.present | self.slab.tag_present
    }

    /// The page's shared upper version.
    #[inline]
    pub fn uv(&self) -> UpperVersion {
        self.slab.uv
    }

    /// Overwrites the page's shared upper version.
    #[inline]
    pub fn set_uv(&mut self, uv: UpperVersion) {
        self.slab.uv = uv;
    }

    /// Number of resident ciphertext blocks.
    pub fn resident(&self) -> usize {
        self.slab.present.count_ones() as usize
    }

    /// XORs `mask` into byte `offset` of the resident ciphertext at `line`;
    /// `false` (and nothing changed) when the block is absent.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 64`: a tampering test asking for an
    /// out-of-range byte is a bug in the test, not an attack to remap.
    pub fn corrupt(&mut self, line: usize, offset: usize, mask: u8) -> bool {
        assert!(
            offset < CACHE_BLOCK_BYTES,
            "corrupt offset {offset} outside the 64-byte block"
        );
        let resident = self.has_block(line);
        if resident {
            self.slab.blocks[line][offset] ^= mask;
        }
        resident
    }
}

/// Untrusted conventional memory: one [`PageSlot`] per touched page.
///
/// Everything in here is adversary-accessible: the struct deliberately
/// exposes tampering entry points for security testing.
#[derive(Debug, Default, Clone)]
pub struct UntrustedDram {
    /// Flat open-addressed `page -> slot` map: one multiply-shift hash and
    /// a short linear probe on the hot path instead of a `HashMap` lookup.
    index: PageIndex,
    slots: Vec<PageSlot>,
}

/// Everything an adversary can capture about one cache block at an instant:
/// the ciphertext, its MAC, and the co-located UV. Replaying a stale
/// capsule is the attack freshness must defeat.
#[derive(Debug, Clone)]
pub struct ReplayCapsule {
    address: u64,
    data: Option<Block>,
    tag: Option<Tag56>,
    uv: UpperVersion,
}

impl ReplayCapsule {
    /// The block address the capsule was captured at.
    pub fn address(&self) -> u64 {
        self.address
    }
}

impl UntrustedDram {
    /// The slot id for `page`, if the page has ever been touched.
    #[inline]
    pub fn slot_id(&self, page: u64) -> Option<SlotId> {
        self.index.get(page).map(SlotId)
    }

    /// The slot id for `page`, materializing an empty slot on first touch.
    pub fn ensure_slot(&mut self, page: u64) -> SlotId {
        if let Some(id) = self.index.get(page) {
            return SlotId(id);
        }
        // audit: allow(panic, 2^32 page slots exhaust memory long before this overflows; a wrapped id would alias two pages)
        let id = u32::try_from(self.slots.len()).expect("arena slot count fits u32");
        self.slots.push(PageSlot::new());
        self.index.insert(page, id);
        SlotId(id)
    }

    /// Direct slot access. Ids are stable for the arena's lifetime.
    #[inline]
    pub fn slot(&self, id: SlotId) -> &PageSlot {
        &self.slots[id.0 as usize]
    }

    /// Direct mutable slot access.
    #[inline]
    pub fn slot_mut(&mut self, id: SlotId) -> &mut PageSlot {
        &mut self.slots[id.0 as usize]
    }

    /// Captures the current (ciphertext, MAC, UV) for the block at `addr`.
    pub fn capture(&self, addr: u64) -> ReplayCapsule {
        let base = layout::block_base(addr);
        let line = layout::line_of(base);
        match self.slot_id(layout::page_of(base)).map(|id| self.slot(id)) {
            Some(slot) => ReplayCapsule {
                address: base,
                data: slot.block(line).copied(),
                tag: slot.tag(line),
                uv: slot.uv(),
            },
            None => ReplayCapsule {
                address: base,
                data: None,
                tag: None,
                uv: UpperVersion::default(),
            },
        }
    }

    /// Replays a previously captured capsule — the classic replay attack.
    pub fn replay(&mut self, capsule: &ReplayCapsule) {
        let base = capsule.address;
        let line = layout::line_of(base);
        let id = self.ensure_slot(layout::page_of(base));
        let slot = self.slot_mut(id);
        match capsule.data {
            Some(d) => slot.set_block(line, d),
            None => slot.clear_block(line),
        }
        match capsule.tag {
            Some(t) => slot.set_tag(line, t),
            None => slot.clear_tag(line),
        }
        slot.set_uv(capsule.uv);
    }

    /// Flips bits in byte `offset` of the stored ciphertext at `addr`
    /// (integrity attack at an arbitrary position within the block).
    /// Returns `false` if no ciphertext is resident there: a never-written
    /// block has nothing to corrupt.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 64`.
    pub fn corrupt_data(&mut self, addr: u64, offset: usize, xor_mask: u8) -> bool {
        let base = layout::block_base(addr);
        match self.slot_id(layout::page_of(base)) {
            Some(id) => self
                .slot_mut(id)
                .corrupt(layout::line_of(base), offset, xor_mask),
            None => false,
        }
    }

    /// Overwrites the stored MAC at `addr` (forgery attempt).
    pub fn forge_mac(&mut self, addr: u64, tag: Tag56) {
        let base = layout::block_base(addr);
        let id = self.ensure_slot(layout::page_of(base));
        self.slot_mut(id).set_tag(layout::line_of(base), tag);
    }

    /// Raw ciphertext view (for traffic-analysis experiments).
    pub fn ciphertext(&self, addr: u64) -> Option<&Block> {
        let base = layout::block_base(addr);
        self.slot_id(layout::page_of(base))
            .and_then(|id| self.slot(id).block(layout::line_of(base)))
    }

    /// The page's shared UV (0 if never written).
    pub fn uv(&self, page: u64) -> UpperVersion {
        self.slot_id(page)
            .map(|id| self.slot(id).uv())
            .unwrap_or_default()
    }

    /// Number of resident data blocks.
    pub fn resident_blocks(&self) -> usize {
        self.slots.iter().map(PageSlot::resident).sum()
    }

    /// Iterates over every touched page and its slot id in unspecified
    /// order — the walk a recovery scrub uses to re-verify a quarantined
    /// shard's entire untrusted state.
    pub fn pages(&self) -> impl Iterator<Item = (u64, SlotId)> + '_ {
        self.index.iter().map(|(page, id)| (page, SlotId(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The seed implementation's storage layout, as a model: three maps
    /// keyed by block address / page.
    #[derive(Default)]
    struct ModelDram {
        data: HashMap<u64, Block>,
        macs: HashMap<u64, Tag56>,
        uvs: HashMap<u64, UpperVersion>,
    }

    impl ModelDram {
        fn store(&mut self, addr: u64, block: Block, tag: Tag56) {
            self.data.insert(addr, block);
            self.macs.insert(addr, tag);
        }
        fn uv(&self, page: u64) -> UpperVersion {
            self.uvs.get(&page).copied().unwrap_or_default()
        }
    }

    fn store(dram: &mut UntrustedDram, addr: u64, block: Block, tag: Tag56) {
        let id = dram.ensure_slot(layout::page_of(addr));
        let slot = dram.slot_mut(id);
        slot.set_block(layout::line_of(addr), block);
        slot.set_tag(layout::line_of(addr), tag);
    }

    /// Drive the arena and the seed's map-per-kind model with the same
    /// random operation stream; every observable must agree.
    #[test]
    fn arena_matches_model_maps_under_random_ops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA2E4A);
        let mut arena = UntrustedDram::default();
        let mut model = ModelDram::default();
        let addrs: Vec<u64> = (0..256).map(|i| i * 64).collect();
        for step in 0..20_000 {
            let addr = addrs[rng.gen_range(0..addrs.len())];
            let page = layout::page_of(addr);
            match rng.gen_range(0..5) {
                0 => {
                    let block = [rng.gen::<u8>(); 64];
                    let tag = Tag56::from_raw(rng.gen::<u64>() & ((1 << 56) - 1));
                    store(&mut arena, addr, block, tag);
                    model.store(addr, block, tag);
                }
                1 => {
                    let offset = rng.gen_range(0..64);
                    let mask = rng.gen::<u8>();
                    arena.corrupt_data(addr, offset, mask);
                    if let Some(b) = model.data.get_mut(&addr) {
                        b[offset] ^= mask;
                    }
                }
                2 => {
                    let tag = Tag56::from_raw(rng.gen::<u64>() & ((1 << 56) - 1));
                    arena.forge_mac(addr, tag);
                    model.macs.insert(addr, tag);
                }
                3 => {
                    let uv = UpperVersion::new(rng.gen_range(0..1 << 20));
                    let id = arena.ensure_slot(page);
                    arena.slot_mut(id).set_uv(uv);
                    model.uvs.insert(page, uv);
                }
                _ => {
                    // Capture here, mutate, replay: both worlds must agree
                    // after the round trip.
                    let capsule = arena.capture(addr);
                    let model_snapshot = (
                        model.data.get(&addr).copied(),
                        model.macs.get(&addr).copied(),
                        model.uv(page),
                    );
                    let block = [rng.gen::<u8>(); 64];
                    let tag = Tag56::from_raw(step as u64);
                    store(&mut arena, addr, block, tag);
                    model.store(addr, block, tag);
                    arena.replay(&capsule);
                    match model_snapshot.0 {
                        Some(d) => {
                            model.data.insert(addr, d);
                        }
                        None => {
                            model.data.remove(&addr);
                        }
                    }
                    match model_snapshot.1 {
                        Some(t) => {
                            model.macs.insert(addr, t);
                        }
                        None => {
                            model.macs.remove(&addr);
                        }
                    }
                    model.uvs.insert(page, model_snapshot.2);
                }
            }
            // Observables agree at every step.
            assert_eq!(
                arena.ciphertext(addr),
                model.data.get(&addr),
                "step {step} data at {addr:#x}"
            );
            let id = arena.slot_id(page);
            assert_eq!(
                id.and_then(|id| arena.slot(id).tag(layout::line_of(addr))),
                model.macs.get(&addr).copied(),
                "step {step} tag at {addr:#x}"
            );
            assert_eq!(arena.uv(page), model.uv(page), "step {step} uv of {page}");
        }
        assert_eq!(arena.resident_blocks(), model.data.len());
    }

    #[test]
    fn slot_ids_are_stable_across_later_inserts() {
        let mut arena = UntrustedDram::default();
        let first = arena.ensure_slot(7);
        for page in 100..200 {
            arena.ensure_slot(page);
        }
        assert_eq!(arena.ensure_slot(7), first);
        arena.slot_mut(first).set_block(3, [9u8; 64]);
        assert_eq!(arena.ciphertext(7 * 4096 + 3 * 64), Some(&[9u8; 64]));
    }

    #[test]
    fn capture_of_untouched_address_replays_to_empty() {
        let mut arena = UntrustedDram::default();
        let capsule = arena.capture(0x4000);
        store(&mut arena, 0x4000, [1u8; 64], Tag56::from_raw(5));
        arena.replay(&capsule);
        assert_eq!(arena.ciphertext(0x4000), None);
        assert_eq!(arena.resident_blocks(), 0);
    }

    #[test]
    fn corrupt_data_targets_the_requested_byte() {
        let mut arena = UntrustedDram::default();
        store(&mut arena, 0, [0u8; 64], Tag56::from_raw(1));
        arena.corrupt_data(0, 17, 0xff);
        let ct = arena.ciphertext(0).unwrap();
        assert_eq!(ct[17], 0xff);
        assert!(ct.iter().enumerate().all(|(i, &b)| i == 17 || b == 0));
    }

    #[test]
    fn pages_walk_visits_every_touched_page_once() {
        let mut arena = UntrustedDram::default();
        for page in [3u64, 9, 1000, 7] {
            let id = arena.ensure_slot(page);
            arena.slot_mut(id).set_block(1, [page as u8; 64]);
        }
        let mut seen: Vec<u64> = arena.pages().map(|(page, _)| page).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 7, 9, 1000]);
        for (page, id) in arena.pages() {
            assert_eq!(arena.slot(id).block(1), Some(&[page as u8; 64]));
        }
    }

    /// The slot table holds one pointer per page, and every block of a
    /// slab is exactly one cache line.
    #[test]
    fn every_block_is_one_aligned_cache_line() {
        assert_eq!(
            std::mem::size_of::<PageSlot>(),
            std::mem::size_of::<usize>()
        );
        let mut arena = UntrustedDram::default();
        for page in 0..8u64 {
            let id = arena.ensure_slot(page * 13);
            let slot = arena.slot_mut(id);
            for line in 0..LINES_PER_PAGE {
                slot.set_block(line, [line as u8; 64]);
                let block = slot.block(line).unwrap();
                assert_eq!(
                    block.as_ptr() as usize % CACHE_BLOCK_BYTES,
                    0,
                    "page {page} line {line}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the 64-byte block")]
    fn corrupt_data_rejects_out_of_range_offset() {
        let mut arena = UntrustedDram::default();
        store(&mut arena, 0, [0u8; 64], Tag56::from_raw(1));
        arena.corrupt_data(0, 64, 0xff);
    }
}
