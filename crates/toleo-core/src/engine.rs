//! The host-side memory protection engine.
//!
//! Sits between the LLC and the memory system, like client SGX's memory
//! encryption engine, but sources freshness from the Toleo device instead
//! of a Merkle tree:
//!
//! * **write** (dirty LLC eviction): UPDATE the block's stealth version in
//!   Toleo, encrypt the plaintext with AES-XTS under the
//!   `(full version, address)` tweak, compute the 56-bit MAC over
//!   `(version, address, ciphertext)`, store ciphertext + MAC (+ shared UV)
//!   in untrusted conventional memory.
//! * **read** (LLC miss): fetch ciphertext, MAC and UV from untrusted
//!   memory and the stealth version from Toleo (or the on-chip stealth
//!   cache), recompute the MAC, and *only if it verifies* decrypt and
//!   return plaintext. A mismatch — or a resident block whose tag is gone
//!   — means tampering or replay: the kill switch engages and the engine
//!   refuses all further service.
//!
//! The MAC is the Carter–Wegman line MAC of [`toleo_crypto::mac`]: a
//! universal hash of the ciphertext plus a one-time pad that
//! `(version, address)` selects, encrypted beside the XTS tweak in one AES
//! pass. It needs `(version, address)` never to seal two ciphertexts under
//! one key, which is the freshness invariant this engine exists to keep:
//! [`LineSealer::seal`] is reached only with a stealth version the device
//! has just advanced, or from the reset walk under a just-incremented UV,
//! or from recovery's walk into a freshly keyed engine.
//!
//! Both ops issue the untrusted fetch first. The page's slot is looked up
//! without materialising it, and a read loads the line's ciphertext and
//! tag and the page's UV by value (a write, the UV) *before*
//! [`StealthCache::read`] / [`StealthCache::update`] walks to the device,
//! so the misses into untrusted memory overlap the device's index and
//! entry misses instead of following them. The op then uses those values:
//! nothing is fetched twice, and a last-page hit costs what it did. A
//! write materialises a never-touched page's slot only after the device
//! has accepted the UPDATE; a refused access leaves untrusted memory as
//! it was.
//!
//! The [`UntrustedDram`] it writes to is fully exposed to the adversary —
//! integration tests replay old (ciphertext, MAC, UV) triples through it
//! to demonstrate detection.

// audit: allow-file(indexing, sector/line offsets derive from the fixed page and cache-block layout constants)

use crate::arena::SlotId;
use crate::cache::{CacheStats, MacCache, StealthCache};
use crate::channel::{ChannelStats, DeviceChannel, RetryPolicy};
use crate::config::{ToleoConfig, CACHE_BLOCK_BYTES, LINES_PER_PAGE, PAGE_BYTES};
use crate::device::{DeviceStats, ToleoDevice};
use crate::error::{BatchError, Result, ToleoError};
use crate::fault::{FaultPlan, FaultPlanConfig};
use crate::layout;
use crate::seal::LineSealer;
use crate::version::FullVersion;

pub use crate::arena::{Block, ReplayCapsule, UntrustedDram};

/// Engine event counters (feeds Figs. 7–9 via the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Blocks written (dirty evictions processed).
    pub writes: u64,
    /// Blocks read (LLC miss fills).
    pub reads: u64,
    /// UPDATE requests that reached the Toleo device.
    pub device_updates: u64,
    /// READ requests that reached the Toleo device (stealth-cache misses).
    pub device_reads: u64,
    /// MAC-block fetches from conventional DRAM (MAC-cache misses).
    pub mac_fetches: u64,
    /// Stealth resets processed (pages re-encrypted).
    pub pages_reencrypted: u64,
    /// Pages freed/downgraded at OS request.
    pub pages_freed: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters into this one (used by
    /// [`ShardedEngine`](crate::sharded::ShardedEngine) to aggregate
    /// per-shard statistics).
    pub fn merge(&mut self, other: &EngineStats) {
        self.writes += other.writes;
        self.reads += other.reads;
        self.device_updates += other.device_updates;
        self.device_reads += other.device_reads;
        self.mac_fetches += other.mac_fetches;
        self.pages_reencrypted += other.pages_reencrypted;
        self.pages_freed += other.pages_freed;
    }
}

/// Snapshot of every observable counter at the instant the kill switch
/// engaged. After a kill the engine is fully inert: operations fail
/// without touching the device, the caches, or untrusted memory, and the
/// stats getters report exactly this frozen state (the detecting access
/// itself is included — it physically happened).
///
/// Public because a sharded deployment carries it out in
/// [`ToleoError::ShardQuarantined`]: the forensic record of a quarantined
/// shard travels with the refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KillSnapshot {
    /// Engine counters at the kill instant.
    pub stats: EngineStats,
    /// Stealth-cache counters at the kill instant.
    pub stealth_cache: CacheStats,
    /// MAC-cache counters at the kill instant.
    pub mac_cache: CacheStats,
    /// Device counters at the kill instant.
    pub device: DeviceStats,
    /// Device-channel (fault plane) counters at the kill instant.
    pub channel: ChannelStats,
}

impl KillSnapshot {
    /// Accumulates another engine's snapshot into this one — the one
    /// merge behind every aggregated
    /// [`ShardedEngine`](crate::sharded::ShardedEngine) accessor.
    pub fn merge(&mut self, other: &KillSnapshot) {
        self.stats.merge(&other.stats);
        self.stealth_cache.merge(&other.stealth_cache);
        self.mac_cache.merge(&other.mac_cache);
        self.device.merge(&other.device);
        self.channel.merge(&other.channel);
    }
}

/// The memory protection engine in the Toleo configuration (CIF:
/// confidentiality + integrity + freshness).
///
/// # Examples
///
/// ```
/// use toleo_core::engine::ProtectionEngine;
/// use toleo_core::config::ToleoConfig;
///
/// let mut engine = ProtectionEngine::try_new(ToleoConfig::small(), [7u8; 48]).unwrap();
/// engine.write(0x1000, &[42u8; 64]).unwrap();
/// assert_eq!(engine.read(0x1000).unwrap(), [42u8; 64]);
/// ```
#[derive(Debug)]
pub struct ProtectionEngine {
    cfg: ToleoConfig,
    sealer: LineSealer,
    channel: DeviceChannel,
    dram: UntrustedDram,
    /// Last-page fast path: the most recently touched page and its arena
    /// slot, so consecutive accesses to one page skip the index probe.
    last_slot: Option<(u64, SlotId)>,
    stealth_cache: StealthCache,
    mac_cache: MacCache,
    stats: EngineStats,
    /// `Some` once the kill switch has engaged; carries the frozen
    /// statistics every getter serves from then on.
    killed: Option<Box<KillSnapshot>>,
}

impl ProtectionEngine {
    /// Creates an engine. `key_material` supplies the XTS data key, XTS
    /// tweak key and MAC key (16 bytes each). A bad configuration is
    /// reported as an error, never a panic. If the `TOLEO_FAULT_PLAN`
    /// environment variable is set (see [`FaultPlanConfig::parse`]), the
    /// device channel is armed with that fault campaign — how the CI
    /// `fault-smoke` job runs the whole suite under injected link faults.
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] if `cfg` fails
    /// [`ToleoConfig::validate`] or `TOLEO_FAULT_PLAN` is malformed.
    pub fn try_new(cfg: ToleoConfig, key_material: [u8; 48]) -> Result<Self> {
        let fault_plan = FaultPlanConfig::from_env()?;
        Self::try_new_with_robustness(cfg, key_material, fault_plan, RetryPolicy::default())
    }

    /// Creates an engine with an explicit robustness configuration: an
    /// optional fault-injection campaign for the device link and the
    /// retry policy that absorbs its transients. The plan's stream is
    /// salted with `cfg.rng_seed`, so per-shard engines (whose configs
    /// carry derived seeds) draw independent fault streams from one
    /// campaign spec.
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] if `cfg` or the fault plan is
    /// invalid.
    pub fn try_new_with_robustness(
        cfg: ToleoConfig,
        key_material: [u8; 48],
        fault_plan: Option<FaultPlanConfig>,
        policy: RetryPolicy,
    ) -> Result<Self> {
        let plan = match fault_plan {
            Some(plan_cfg) => Some(FaultPlan::with_salt(plan_cfg, cfg.rng_seed)?),
            None => None,
        };
        let device = ToleoDevice::new(cfg.clone())?;
        Ok(ProtectionEngine {
            channel: DeviceChannel::new(device, plan, policy),
            cfg,
            sealer: LineSealer::new(&key_material),
            dram: UntrustedDram::default(),
            last_slot: None,
            stealth_cache: StealthCache::paper_default(),
            mac_cache: MacCache::paper_default(),
            stats: EngineStats::default(),
            killed: None,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ToleoConfig {
        &self.cfg
    }

    /// Every observable counter at once: the frozen snapshot if the kill
    /// switch has engaged, else what a kill would freeze right now. The
    /// five accessors below are its fields.
    pub fn snapshot(&self) -> KillSnapshot {
        match &self.killed {
            Some(frozen) => **frozen,
            None => KillSnapshot {
                stats: self.stats,
                stealth_cache: self.stealth_cache.stats(),
                mac_cache: self.mac_cache.stats(),
                device: self.channel.device().stats(),
                channel: self.channel.stats(),
            },
        }
    }

    /// Engine event counters. After a kill this is frozen at the state
    /// observed when the kill switch engaged.
    pub fn stats(&self) -> EngineStats {
        self.snapshot().stats
    }

    /// Stealth-cache statistics (Fig. 7); frozen after a kill.
    pub fn stealth_cache_stats(&self) -> CacheStats {
        self.snapshot().stealth_cache
    }

    /// MAC-cache statistics (Fig. 7); frozen after a kill.
    pub fn mac_cache_stats(&self) -> CacheStats {
        self.snapshot().mac_cache
    }

    /// Device event counters; frozen after a kill (a dead platform stops
    /// issuing requests, so its last observed device state is final).
    pub fn device_stats(&self) -> DeviceStats {
        self.snapshot().device
    }

    /// Device-channel (fault plane) counters: faults injected and
    /// absorbed, retries, backoff budget spent. Frozen after a kill.
    pub fn channel_stats(&self) -> ChannelStats {
        self.snapshot().channel
    }

    /// The frozen kill-switch snapshot, if the engine is killed. A
    /// sharded deployment clones this into
    /// [`ToleoError::ShardQuarantined`] so the forensic record travels
    /// with the refusal.
    pub fn kill_snapshot(&self) -> Option<KillSnapshot> {
        self.killed.as_deref().copied()
    }

    /// Whether a fault-injection plan is armed on the device channel.
    pub fn fault_plan_armed(&self) -> bool {
        self.channel.fault_plan_armed()
    }

    /// The trusted device (for usage/format statistics).
    pub fn device(&self) -> &ToleoDevice {
        self.channel.device()
    }

    /// Adversary access to untrusted memory. Anything reachable from here
    /// is outside the trust boundary by construction.
    pub fn adversary(&mut self) -> &mut UntrustedDram {
        &mut self.dram
    }

    /// Whether the kill switch has engaged.
    pub fn is_killed(&self) -> bool {
        self.killed.is_some()
    }

    /// Engages the kill switch from outside the engine's own detection
    /// paths — the platform-wide kill signal. A sharded deployment uses
    /// this to halt every peer engine the moment any one shard detects
    /// tampering; idempotent.
    pub fn force_kill(&mut self) {
        self.kill();
    }

    /// Engages the kill switch, freezing every observable counter at its
    /// current value. All subsequent operations fail without mutating the
    /// device, the caches, or untrusted memory.
    fn kill(&mut self) {
        if self.killed.is_none() {
            self.killed = Some(Box::new(self.snapshot()));
        }
    }

    /// Escalation hook for device-channel failures: a host that cannot
    /// reach its freshness device within the retry budget can no longer
    /// verify freshness and must fail closed — engage the kill switch.
    /// Protocol errors ([`ToleoError::DeviceFull`],
    /// [`ToleoError::PageOutOfRange`]) are the device *answering*, so
    /// they pass through without killing.
    fn note_device_err(&mut self, e: ToleoError) -> ToleoError {
        if matches!(e, ToleoError::DeviceUnavailable { .. }) {
            self.kill();
        }
        e
    }

    fn check_alive(&self, address: u64) -> Result<()> {
        if self.killed.is_some() {
            return Err(ToleoError::IntegrityViolation { address });
        }
        Ok(())
    }

    /// Arena slot for `page`, materializing it and refreshing the
    /// last-page cache.
    #[inline]
    fn slot_id(&mut self, page: u64) -> SlotId {
        if let Some((p, id)) = self.last_slot {
            if p == page {
                return id;
            }
        }
        let id = self.dram.ensure_slot(page);
        self.last_slot = Some((page, id));
        id
    }

    /// Arena slot for `page` without materializing untouched pages (reads
    /// of never-written memory must not allocate).
    #[inline]
    fn slot_id_if_resident(&mut self, page: u64) -> Option<SlotId> {
        if let Some((p, id)) = self.last_slot {
            if p == page {
                return Some(id);
            }
        }
        let id = self.dram.slot_id(page)?;
        self.last_slot = Some((page, id));
        Some(id)
    }

    /// Writes a 64-byte block at `addr` (must be block-aligned).
    ///
    /// # Errors
    ///
    /// Propagates [`ToleoError::DeviceFull`] (retryable after the OS frees
    /// pages) and address-range errors; fails permanently after a kill.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    pub fn write(&mut self, addr: u64, plaintext: &Block) -> Result<()> {
        assert_eq!(addr % CACHE_BLOCK_BYTES as u64, 0, "unaligned block write");
        self.check_alive(addr)?;
        let page = layout::page_of(addr);
        let line = layout::line_of(addr);

        // The untrusted fetch goes first: the page's UV is loaded while the
        // walk below waits on the stealth cache and the device. A page
        // seen for the first time is materialised only once the device
        // has accepted the UPDATE.
        let fetched = self
            .slot_id_if_resident(page)
            .map(|id| (id, self.dram.slot(id).uv()));

        // The UPDATE goes through to the device regardless (write-through);
        // the walk's stealth-cache hit only says the host knew the current
        // version and did not stall on the CXL round trip.
        let (resp, _) = self
            .stealth_cache
            .update(&mut self.channel, page, line)
            .map_err(|e| self.note_device_err(e))?;
        self.stats.device_updates += 1;
        self.stats.writes += 1;

        // MAC block access (it must be fetched to update the block's slot).
        if !self.mac_cache.access(addr) {
            self.stats.mac_fetches += 1;
        }

        let stealth_bits = self.cfg.stealth_bits;
        let (id, mut uv) = match fetched {
            Some(fetched) => fetched,
            None => {
                let id = self.slot_id(page);
                (id, self.dram.slot(id).uv())
            }
        };
        if let Some(notice) = resp.reset {
            // UV_UPDATE (the walk has already dropped the page's cached
            // entry): bump the shared UV and re-encrypt every resident
            // line of the page under the fresh stealth base — one slab
            // walk over the page's slot, its pads in one pipelined pass.
            let new_uv = uv.incremented();
            let version = |uv, stealth| FullVersion::compose(uv, stealth, stealth_bits).raw();
            let slot = self.dram.slot_mut(id);
            let failed = self.sealer.reseal_page(
                &self.sealer,
                slot,
                page,
                Some(line),
                |l| version(uv, notice.old_stealth[l]),
                |_| version(new_uv, notice.new_base),
            );
            if failed != 0 {
                // The other lines are already re-sealed under the new UV
                // while the slot's UV is not bumped: the page is unreadable
                // either way, and the engine must not serve on.
                self.kill();
                let line = failed.trailing_zeros() as usize;
                let address = page * PAGE_BYTES as u64 + (line * CACHE_BLOCK_BYTES) as u64;
                return Err(ToleoError::IntegrityViolation { address });
            }
            slot.set_uv(new_uv);
            self.stats.pages_reencrypted += 1;
            uv = new_uv;
        }

        let fv = FullVersion::compose(uv, resp.stealth, stealth_bits);
        self.sealer
            .seal(self.dram.slot_mut(id), addr, fv.raw(), plaintext);
        Ok(())
    }

    /// Reads the 64-byte block at `addr` (must be block-aligned), verifying
    /// integrity and freshness.
    ///
    /// # Errors
    ///
    /// [`ToleoError::IntegrityViolation`] on any MAC mismatch — tampering
    /// or replay. This engages the kill switch: all subsequent operations
    /// fail.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned.
    pub fn read(&mut self, addr: u64) -> Result<Block> {
        assert_eq!(addr % CACHE_BLOCK_BYTES as u64, 0, "unaligned block read");
        self.check_alive(addr)?;
        let page = layout::page_of(addr);
        let line = layout::line_of(addr);
        self.stats.reads += 1;

        // The untrusted fetch goes first: the line's ciphertext and tag and
        // the page's UV are loaded, by value, before the walk below waits
        // on the stealth cache and the device, so their misses overlap it.
        let fetched = self.slot_id_if_resident(page).map(|id| {
            let slot = self.dram.slot(id);
            (slot.block(line).copied(), slot.tag(line), slot.uv())
        });

        let (stealth, _, hit) = self
            .stealth_cache
            .read(&mut self.channel, page, line)
            .map_err(|e| self.note_device_err(e))?;
        if !hit {
            self.stats.device_reads += 1;
        }
        if !self.mac_cache.access(addr) {
            self.stats.mac_fetches += 1;
        }

        let Some((ct, tag, uv)) = fetched else {
            // Never-written page: treated as zero-filled (the OS scrubs
            // pages at allocation; no MAC exists yet).
            return Ok([0u8; CACHE_BLOCK_BYTES]);
        };
        let fv = FullVersion::compose(uv, stealth, self.cfg.stealth_bits);
        match self.sealer.unseal_fetched(ct, tag, addr, fv.raw()) {
            Some(pt) => Ok(pt),
            None => {
                self.kill();
                Err(ToleoError::IntegrityViolation { address: addr })
            }
        }
    }

    /// OS page free / remap: downgrade the page's Toleo entry to flat and
    /// bump its UV *without* re-encrypting (§4.3 "Page free and remap").
    /// Old contents become unreadable — their MACs can no longer verify.
    ///
    /// # Errors
    ///
    /// Address-range errors only; freeing is always safe.
    pub fn free_page(&mut self, page: u64) -> Result<()> {
        self.check_alive(page * PAGE_BYTES as u64)?;
        self.channel
            .reset(page)
            .map_err(|e| self.note_device_err(e))?;
        // Bump the UV only when the page holds untrusted state: a
        // never-written page has no ciphertext to scramble, and
        // materializing a slot for it would waste a whole-page slab.
        //
        // `last_slot` coherence: `slot_id_if_resident` refreshes the
        // one-entry cache to this page, and the mapping it caches stays
        // valid forever — arena slots are never deallocated or moved
        // (`SlotId`s are stable for the arena's lifetime), and every
        // mutator of page state (`write`, `read`, this function,
        // the adversary entry points) goes through `slot_id` /
        // `slot_id_if_resident` or touches slots by id, never by
        // re-binding a page to a different slot. The regression test
        // `free_write_read_interleaving_keeps_slot_cache_coherent` drives
        // exactly the interleavings that would expose a stale cache.
        if let Some(id) = self.slot_id_if_resident(page) {
            let slot = self.dram.slot_mut(id);
            slot.set_uv(slot.uv().incremented());
        }
        self.stealth_cache.invalidate_page(page);
        self.stats.pages_freed += 1;
        Ok(())
    }

    /// Reads a batch of block-aligned addresses: [`read`](Self::read) per
    /// address, stopping at the first error. A batch *is* its
    /// op-at-a-time loop — results, every counter, the fault plane's
    /// verdicts and a kill's frozen snapshot are the loop's by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`BatchError`] carrying the failing index and the underlying error;
    /// earlier ops were served, later ops were not attempted.
    ///
    /// # Panics
    ///
    /// Panics if any processed address is not 64-byte aligned.
    pub fn read_batch(&mut self, addrs: &[u64]) -> std::result::Result<Vec<Block>, BatchError> {
        let mut out = Vec::with_capacity(addrs.len());
        for (index, &addr) in addrs.iter().enumerate() {
            let block = self.read(addr);
            out.push(block.map_err(|error| BatchError { index, error })?);
        }
        Ok(out)
    }

    /// Re-admits `old`, a quarantined engine, by moving its untrusted
    /// memory to this freshly keyed engine in place. This device has seen
    /// no UPDATE, so its pages are flat and unwritten: one READ per page
    /// with a resident line, through the stealth cache, is the version of
    /// every line of it. All READs come first, so an error leaves `old` as
    /// it was. Then one [`LineSealer::reseal_page`] per page opens each
    /// line under `old`'s key at `old`'s device version and seals it under
    /// this key, keeping the slab's UV; nothing was sealed under this key
    /// before, so every `(version, address)` is fresh. `old`'s device is
    /// read directly: the post-mortem is no victim traffic over the link.
    /// A line that fails to open, or sits on a page outside the protected
    /// range, is dropped. This engine then adopts the walked arena.
    ///
    /// Returns the pages and resident lines walked and the dropped lines'
    /// addresses.
    ///
    /// # Errors
    ///
    /// [`ToleoError::DeviceUnavailable`] from a READ.
    pub(crate) fn readmit(&mut self, old: &mut ProtectionEngine) -> Result<(u64, u64, Vec<u64>)> {
        let mut pages = Vec::new();
        for (page, id) in old.dram.pages() {
            let version = match old.dram.slot(id).resident() {
                0 => None,
                _ => match self.stealth_cache.read(&mut self.channel, page, 0) {
                    Ok((stealth, _, hit)) => {
                        self.stats.device_reads += u64::from(!hit);
                        Some(stealth)
                    }
                    Err(e @ ToleoError::DeviceUnavailable { .. }) => return Err(e),
                    Err(_) => None,
                },
            };
            pages.push((page, id, version));
        }
        let (bits, mut blocks, mut lost) = (self.cfg.stealth_bits, 0, Vec::new());
        for &(page, id, version) in &pages {
            let slot = old.dram.slot_mut(id);
            let (uv, device) = (slot.uv(), old.channel.device_mut());
            let resident = (0..LINES_PER_PAGE).filter(|&l| slot.has_block(l));
            let failed = match version {
                Some(stealth) => {
                    let mut from = [0; LINES_PER_PAGE];
                    for line in resident {
                        let stealth = device.read(page, line).unwrap_or_default();
                        from[line] = FullVersion::compose(uv, stealth, bits).raw();
                    }
                    let into = FullVersion::compose(uv, stealth, bits).raw();
                    old.sealer
                        .reseal_page(&self.sealer, slot, page, None, |l| from[l], |_| into)
                }
                None => resident.fold(0, |mask, l| mask | 1 << l),
            };
            blocks += slot.resident() as u64;
            for line in (0..LINES_PER_PAGE).filter(|&l| failed & 1 << l != 0) {
                slot.clear_block(line);
                slot.clear_tag(line);
                lost.push(page * PAGE_BYTES as u64 + (line * CACHE_BLOCK_BYTES) as u64);
            }
        }
        self.dram = std::mem::take(&mut old.dram);
        Ok((pages.len() as u64, blocks, lost))
    }

    /// Writes a batch of `(address, plaintext)` pairs:
    /// [`write`](Self::write) per pair, stopping at the first error.
    ///
    /// # Errors
    ///
    /// [`BatchError`] carrying the failing index and the underlying error;
    /// earlier ops have fully landed, later ops were not attempted.
    ///
    /// # Panics
    ///
    /// Panics if any processed address is not 64-byte aligned.
    pub fn write_batch(&mut self, ops: &[(u64, Block)]) -> std::result::Result<(), BatchError> {
        for (index, (addr, plaintext)) in ops.iter().enumerate() {
            self.write(*addr, plaintext)
                .map_err(|error| BatchError { index, error })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ProtectionEngine {
        ProtectionEngine::try_new(ToleoConfig::small(), [0x5cu8; 48]).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut e = engine();
        let data = [0xabu8; 64];
        e.write(0x4_0000, &data).unwrap();
        assert_eq!(e.read(0x4_0000).unwrap(), data);
    }

    #[test]
    fn unwritten_reads_as_zero() {
        let mut e = engine();
        assert_eq!(e.read(0x8_0000).unwrap(), [0u8; 64]);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut e = engine();
        e.write(0, &[1u8; 64]).unwrap();
        e.write(0, &[2u8; 64]).unwrap();
        assert_eq!(e.read(0).unwrap(), [2u8; 64]);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_across_versions() {
        let mut e = engine();
        e.write(0, &[9u8; 64]).unwrap();
        let ct1 = *e.adversary().ciphertext(0).unwrap();
        assert_ne!(ct1, [9u8; 64], "data must be encrypted at rest");
        e.write(0, &[9u8; 64]).unwrap();
        let ct2 = *e.adversary().ciphertext(0).unwrap();
        assert_ne!(
            ct1, ct2,
            "same plaintext re-encrypts differently (fresh version)"
        );
    }

    #[test]
    fn try_new_reports_invalid_config() {
        let mut cfg = ToleoConfig::small();
        cfg.stealth_bits = 0; // fails validate()
        match ProtectionEngine::try_new(cfg, [0u8; 48]) {
            Err(ToleoError::InvalidConfig { detail }) => {
                assert!(detail.contains("stealth_bits"), "detail: {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    /// Regression test for the de-panicked construction path: every
    /// constructor — engine and sharded — must report a bad
    /// configuration as `InvalidConfig`, never panic. Each mutation here
    /// fails `ToleoConfig::validate` a different way.
    #[test]
    fn no_constructor_panics_on_bad_config() {
        let bad_configs: Vec<ToleoConfig> = vec![
            {
                let mut c = ToleoConfig::small();
                c.stealth_bits = 0;
                c
            },
            {
                let mut c = ToleoConfig::small();
                c.stealth_bits = 64;
                c
            },
            {
                let mut c = ToleoConfig::small();
                c.device_capacity_bytes = 0; // smaller than the flat array
                c
            },
            {
                let mut c = ToleoConfig::small();
                c.reset_log2 = c.stealth_bits + 8; // rarer than wraparound
                c
            },
        ];
        for (i, cfg) in bad_configs.into_iter().enumerate() {
            assert!(
                matches!(
                    ProtectionEngine::try_new(cfg.clone(), [1u8; 48]),
                    Err(ToleoError::InvalidConfig { .. })
                ),
                "config {i} must be rejected as InvalidConfig"
            );
            assert!(
                matches!(
                    crate::sharded::ShardedEngine::new(cfg, 4, [1u8; 48]),
                    Err(ToleoError::InvalidConfig { .. })
                ),
                "sharded config {i} must be rejected as InvalidConfig"
            );
        }
    }

    #[test]
    fn tampered_ciphertext_detected_and_kills() {
        let mut e = engine();
        e.write(0x40, &[7u8; 64]).unwrap();
        e.adversary().corrupt_data(0x40, 0, 0x01);
        assert!(matches!(
            e.read(0x40),
            Err(ToleoError::IntegrityViolation { .. })
        ));
        assert!(e.is_killed());
        // Kill switch: even untampered addresses now refuse service.
        assert!(e.read(0x80).is_err());
        assert!(e.write(0x80, &[0u8; 64]).is_err());
    }

    #[test]
    fn replay_attack_detected() {
        let mut e = engine();
        e.write(0x1000, &[1u8; 64]).unwrap();
        let stale = e.adversary().capture(0x1000);
        e.write(0x1000, &[2u8; 64]).unwrap();
        e.adversary().replay(&stale);
        // The stealth version advanced, so the stale MAC cannot verify.
        assert!(matches!(
            e.read(0x1000),
            Err(ToleoError::IntegrityViolation { .. })
        ));
        assert!(e.is_killed());
    }

    #[test]
    fn forged_mac_detected() {
        let mut e = engine();
        e.write(0, &[5u8; 64]).unwrap();
        e.adversary()
            .forge_mac(0, toleo_crypto::mac::Tag56::from_raw(0xdead));
        assert!(e.read(0).is_err());
    }

    #[test]
    fn freed_page_contents_unreadable() {
        let mut e = engine();
        e.write(0x2000, &[3u8; 64]).unwrap();
        e.free_page(layout::page_of(0x2000)).unwrap();
        // UV bumped + stealth re-randomized without re-encryption: the old
        // MAC can no longer verify, so a malicious OS cannot read the page.
        assert!(matches!(
            e.read(0x2000),
            Err(ToleoError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn survives_stealth_resets() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 4; // force frequent resets
        let mut e = ProtectionEngine::try_new(cfg, [1u8; 48]).unwrap();
        // Hot-line writes so every update advances the leading version.
        for i in 0..500u64 {
            let val = [(i % 251) as u8; 64];
            e.write(0x3000, &val).unwrap();
            assert_eq!(e.read(0x3000).unwrap(), val, "iteration {i}");
        }
        assert!(e.stats().pages_reencrypted > 0, "test must exercise resets");
    }

    #[test]
    fn reset_reencryption_preserves_other_lines() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 4;
        let mut e = ProtectionEngine::try_new(cfg, [2u8; 48]).unwrap();
        // Populate several lines of page 1.
        for l in 0..8u64 {
            e.write(0x1000 + l * 64, &[l as u8 + 1; 64]).unwrap();
        }
        // Hammer line 9 until resets have certainly fired.
        for _ in 0..300 {
            e.write(0x1000 + 9 * 64, &[0xee; 64]).unwrap();
        }
        assert!(e.stats().pages_reencrypted > 0);
        for l in 0..8u64 {
            assert_eq!(
                e.read(0x1000 + l * 64).unwrap(),
                [l as u8 + 1; 64],
                "line {l}"
            );
        }
    }

    #[test]
    fn free_of_untouched_page_allocates_no_dram() {
        let mut e = engine();
        e.free_page(3).unwrap();
        assert!(
            e.dram.slot_id(3).is_none(),
            "freeing a never-written page must not materialize a slab"
        );
        assert_eq!(e.stats().pages_freed, 1);
        // The page is still usable afterwards.
        e.write(3 * 4096, &[1u8; 64]).unwrap();
        assert_eq!(e.read(3 * 4096).unwrap(), [1u8; 64]);
    }

    /// The early untrusted fetch never materialises a slot: a write the
    /// device refuses, a write whose UPDATE never reaches it, and a read
    /// of a never-written page each leave untrusted memory untouched.
    #[test]
    fn a_refused_access_materialises_no_slot() {
        let cfg = ToleoConfig::small();
        let engine = |plan| {
            ProtectionEngine::try_new_with_robustness(
                cfg.clone(),
                [6u8; 48],
                plan,
                RetryPolicy::default(),
            )
            .unwrap()
        };
        let untouched = |e: &ProtectionEngine, page| {
            e.dram.slot_id(page).is_none() && e.dram.resident_blocks() == 0
        };

        let mut e = engine(None);
        let page = cfg.protected_pages();
        let refused = e.write(page * PAGE_BYTES as u64, &[1u8; 64]);
        assert!(matches!(refused, Err(ToleoError::PageOutOfRange { .. })));
        assert!(untouched(&e, page));

        let mut plan = FaultPlanConfig::uniform(5, 0.0);
        plan.update.timeout = 1.0;
        let mut e = engine(Some(plan));
        let refused = e.write(3 * PAGE_BYTES as u64, &[1u8; 64]);
        assert!(matches!(refused, Err(ToleoError::DeviceUnavailable { .. })));
        assert!(e.is_killed());
        assert!(untouched(&e, 3));

        let mut e = engine(None);
        assert_eq!(e.read(5 * PAGE_BYTES as u64).unwrap(), [0u8; 64]);
        assert!(untouched(&e, 5));
    }

    #[test]
    fn write_after_free_starts_cleanly() {
        let mut e = engine();
        e.write(0x5000, &[1u8; 64]).unwrap();
        e.free_page(layout::page_of(0x5000)).unwrap();
        e.write(0x5000, &[9u8; 64]).unwrap();
        assert_eq!(e.read(0x5000).unwrap(), [9u8; 64]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        engine().write(3, &[0u8; 64]).unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let mut e = engine();
        e.write(0, &[1u8; 64]).unwrap();
        e.read(0).unwrap();
        e.read(0).unwrap();
        let s = e.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.device_updates, 1);
        // Second read hits the stealth cache.
        assert!(e.stealth_cache_stats().hits >= 1);
    }

    #[test]
    fn killed_engine_is_fully_inert() {
        let mut e = engine();
        for line in 0..4u64 {
            e.write(0x1000 + line * 64, &[line as u8; 64]).unwrap();
        }
        e.read(0x1000).unwrap();
        e.adversary().corrupt_data(0x1040, 5, 0xff);
        assert!(e.read(0x1040).is_err());
        assert!(e.is_killed());

        // Snapshot every observable the instant after the kill...
        let stats = e.stats();
        let stealth = e.stealth_cache_stats();
        let mac = e.mac_cache_stats();
        let device = e.device_stats();
        let resident = e.adversary().resident_blocks();

        // ...then hammer the dead engine with every operation kind.
        for i in 0..32u64 {
            assert!(e.read(i * 64).is_err(), "read {i} must fail after kill");
            assert!(e.write(i * 64, &[1u8; 64]).is_err());
            assert!(e.free_page(i).is_err());
        }

        // Nothing moved: stats, cache probes, device traffic and untrusted
        // memory are all frozen at the kill point.
        assert_eq!(e.stats(), stats);
        assert_eq!(e.stealth_cache_stats(), stealth);
        assert_eq!(e.mac_cache_stats(), mac);
        assert_eq!(e.device_stats(), device);
        assert_eq!(e.adversary().resident_blocks(), resident);
    }

    /// The in-tree check that the benchmark's exact metrics cannot move:
    /// one seeded trace through every way the engine drives its caches —
    /// page-local sweeps, uniform random traffic over 2.3x the TLB
    /// extension's reach, a hot line under `reset_log2 = 6` (upgrades,
    /// resets, re-encryption walks), page frees, single and batch reads —
    /// with every counter the caches decide asserted against literals
    /// generated at the parent of PR 19, from the `Vec` LRU model.
    #[test]
    fn engine_counters_are_pinned() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const PAGES: u64 = 600;
        const LINES: u64 = LINES_PER_PAGE as u64;
        fn addr(page: u64, line: u64) -> u64 {
            page * PAGE_BYTES as u64 + line * CACHE_BLOCK_BYTES as u64
        }
        fn put(e: &mut ProtectionEngine, live: &mut [bool], page: u64, line: u64) {
            e.write(addr(page, line), &[(page ^ line) as u8; 64])
                .unwrap();
            live[(page * LINES + line) as usize] = true;
        }
        // Reads only what was written: an unwritten line would not
        // exercise the MAC path the same way on every page.
        fn get(e: &mut ProtectionEngine, live: &mut [bool], page: u64, line: u64) {
            if live[(page * LINES + line) as usize] {
                let want = [(page ^ line) as u8; 64];
                assert_eq!(e.read(addr(page, line)).unwrap(), want);
            } else {
                put(e, live, page, line);
            }
        }

        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 6;
        let mut e = ProtectionEngine::try_new_with_robustness(
            cfg,
            [0x19; 48],
            None,
            RetryPolicy::default(),
        )
        .unwrap();
        let mut live = vec![false; (PAGES * LINES) as usize];
        let mut rng = StdRng::seed_from_u64(19);

        // Page-local sweep.
        for page in 0..PAGES {
            for line in 0..8 {
                put(&mut e, &mut live, page, line);
            }
            for line in 0..8 {
                get(&mut e, &mut live, page, line);
            }
        }
        // Uniform random, with a page free every 64 ops. Freed pages hold
        // one line each (a reset walk must never meet a stale line).
        for op in 0..40_000u64 {
            let (page, line) = (rng.gen_range(0..PAGES), rng.gen_range(0..LINES));
            if rng.gen_bool(0.5) {
                put(&mut e, &mut live, page, line);
            } else {
                get(&mut e, &mut live, page, line);
            }
            if op % 64 == 0 {
                let scratch = PAGES + rng.gen_range(0..64u64);
                e.write(addr(scratch, 0), &[1; 64]).unwrap();
                e.free_page(scratch).unwrap();
            }
        }
        // Hot reset: 16 pages, 90% writes to one hot line.
        for _ in 0..20_000 {
            if rng.gen_bool(0.9) {
                put(&mut e, &mut live, 3, 5);
            } else {
                get(
                    &mut e,
                    &mut live,
                    rng.gen_range(0..16),
                    rng.gen_range(0..LINES),
                );
            }
        }
        // Mixed single and batch reads over two pages' live lines.
        for _ in 0..1_500 {
            let mut addrs = Vec::new();
            for page in [rng.gen_range(0..PAGES), rng.gen_range(0..PAGES)] {
                let from = rng.gen_range(0..LINES - 8);
                addrs.extend(
                    (from..from + 8)
                        .filter(|line| live[(page * LINES + line) as usize])
                        .map(|line| addr(page, line)),
                );
            }
            e.read_batch(&addrs).unwrap();
            get(
                &mut e,
                &mut live,
                rng.gen_range(0..PAGES),
                rng.gen_range(0..8),
            );
        }

        assert!(!e.is_killed());
        let (hits, misses) = (60_542, 27_497);
        assert_eq!(e.stealth_cache_stats(), CacheStats { hits, misses });
        let (hits, misses) = (45_134, 42_905);
        assert_eq!(e.mac_cache_stats(), CacheStats { hits, misses });
        assert_eq!(
            e.stats(),
            EngineStats {
                writes: 54_579,
                reads: 33_460,
                device_updates: 54_579,
                device_reads: 7_763,
                mac_fetches: 42_905,
                pages_reencrypted: 301,
                pages_freed: 625,
            }
        );
    }

    /// The same guard in the benchmark's `tenants` shape, the one the TLB
    /// extension's CAM is measured on: a populated working set *inside*
    /// its reach (128 pages per engine), uniform over every block, 70%
    /// reads, so each probe is a hit at a random recency position —
    /// through one engine, then through an 8-shard `ShardedEngine` over
    /// 8 x 128 pages. `reset_log2 = 6` adds the stealth resets that
    /// invalidate a page wherever it sits. Literals generated at the
    /// parent of PR 23, from the recency ring.
    #[test]
    fn tenants_shape_counters_are_pinned() {
        use crate::arena::Block;
        use crate::sharded::ShardedEngine;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        fn tenants(pages: u64, seed: u64, mut op: impl FnMut(u64, Option<&Block>) -> Block) {
            let blocks = pages * LINES_PER_PAGE as u64;
            let mut last = vec![0u8; blocks as usize];
            for block in 0..blocks {
                op(block * CACHE_BLOCK_BYTES as u64, Some(&[0; 64]));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..40_000u32 {
                let block = rng.gen_range(0..blocks);
                let addr = block * CACHE_BLOCK_BYTES as u64;
                if rng.gen_range(0..100u32) < 70 {
                    assert_eq!(op(addr, None), [last[block as usize]; 64]);
                } else {
                    last[block as usize] = i as u8;
                    op(addr, Some(&[i as u8; 64]));
                }
            }
        }
        fn pinned(
            [writes, reads, device_reads, mac_fetches, stealth_resets, upgrades]: [u64; 6],
            (hits, misses): (u64, u64),
        ) -> KillSnapshot {
            let stealth_cache = CacheStats { hits, misses };
            let mac_cache = CacheStats {
                hits: writes + reads - mac_fetches,
                misses: mac_fetches,
            };
            KillSnapshot {
                stats: EngineStats {
                    writes,
                    reads,
                    device_updates: writes,
                    device_reads,
                    mac_fetches,
                    pages_reencrypted: stealth_resets,
                    pages_freed: 0,
                },
                stealth_cache,
                mac_cache,
                device: DeviceStats {
                    reads,
                    updates: writes,
                    stealth_resets,
                    upgrades_to_uneven: upgrades,
                    ..DeviceStats::default()
                },
                channel: ChannelStats::default(),
            }
        }
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 6;
        let policy = RetryPolicy::default();

        let mut e =
            ProtectionEngine::try_new_with_robustness(cfg.clone(), [0x23; 48], None, policy)
                .unwrap();
        tenants(128, 23, |addr, data| match data {
            Some(data) => e.write(addr, data).map(|()| *data).unwrap(),
            None => e.read(addr).unwrap(),
        });
        assert!(!e.is_killed());
        assert_eq!(
            e.snapshot(),
            pinned([20_171, 28_021, 89, 20_949, 7, 132], (47_927, 265))
        );

        let e = ShardedEngine::new_with_robustness(cfg, 8, [0x23; 48], None, policy).unwrap();
        tenants(8 * 128, 2023, |addr, data| match data {
            Some(data) => e.write(addr, data).map(|()| *data).unwrap(),
            None => e.read(addr).unwrap(),
        });
        assert!(!e.is_killed());
        assert_eq!(
            e.snapshot(),
            pinned([77_519, 28_017, 448, 28_214, 54, 641], (103_840, 1_696))
        );
    }

    #[test]
    fn force_kill_is_sticky_and_freezes_stats() {
        let mut e = engine();
        e.write(0x40, &[1u8; 64]).unwrap();
        let stats = e.stats();
        e.force_kill();
        assert!(e.is_killed());
        assert!(e.read(0x40).is_err());
        assert!(e.write(0x40, &[2u8; 64]).is_err());
        assert_eq!(e.stats(), stats, "force_kill must freeze counters");
        e.force_kill(); // idempotent
        assert_eq!(e.stats(), stats);
    }

    /// Regression test for the `last_slot` one-entry cache: interleave
    /// free/write/read on the same page (and on competing pages that
    /// repopulate the cache in between) so every operation runs both with
    /// the cache hot on the target page and hot on a different page. A
    /// stale or wrongly-refreshed cache would read another page's slot —
    /// surfacing as wrong data or a spurious MAC failure.
    #[test]
    fn free_write_read_interleaving_keeps_slot_cache_coherent() {
        let mut e = engine();
        let page_a = 3u64;
        let page_b = 9u64;
        let addr_a = page_a * PAGE_BYTES as u64;
        let addr_b = page_b * PAGE_BYTES as u64;
        for round in 0..20u8 {
            // Hot on A, then free A through the cached slot. (Reading a
            // freed page before rewriting would be a freshness violation
            // by design, so the next access must be the write.)
            e.write(addr_a, &[round; 64]).unwrap();
            assert_eq!(e.read(addr_a).unwrap(), [round; 64]);
            e.free_page(page_a).unwrap();
            // Repopulate the cache with B, then come back to A cold.
            e.write(addr_b, &[0xB0 ^ round; 64]).unwrap();
            e.write(addr_a, &[round ^ 0xFF; 64]).unwrap();
            assert_eq!(e.read(addr_a).unwrap(), [round ^ 0xFF; 64], "round {round}");
            assert_eq!(e.read(addr_b).unwrap(), [0xB0 ^ round; 64]);
            // Free B while the cache points at B, then immediately write
            // through the still-cached slot.
            e.free_page(page_b).unwrap();
            e.write(addr_b, &[round; 64]).unwrap();
            assert_eq!(e.read(addr_b).unwrap(), [round; 64]);
            assert!(!e.is_killed(), "round {round} must not kill");
        }
        assert_eq!(e.stats().pages_freed, 40);
    }

    #[test]
    fn batch_read_write_roundtrip_and_zeros() {
        let mut e = engine();
        let ops: Vec<(u64, Block)> = (0..200u64)
            .map(|i| ((i % 50) * 64 + (i / 50) * PAGE_BYTES as u64, [i as u8; 64]))
            .collect();
        e.write_batch(&ops).unwrap();
        let addrs: Vec<u64> = ops.iter().map(|(a, _)| *a).collect();
        let blocks = e.read_batch(&addrs).unwrap();
        for (k, block) in blocks.iter().enumerate() {
            assert_eq!(*block, [k as u8; 64], "op {k}");
        }
        // Unwritten pages read as zeros through the batch path too.
        let far = vec![100 * PAGE_BYTES as u64, 100 * PAGE_BYTES as u64 + 64];
        assert_eq!(e.read_batch(&far).unwrap(), vec![[0u8; 64]; 2]);
    }

    #[test]
    fn batch_read_reports_failing_index_and_kills_on_tamper() {
        let mut e = engine();
        for i in 0..8u64 {
            e.write(i * 64, &[i as u8 + 1; 64]).unwrap();
        }
        e.adversary().corrupt_data(5 * 64, 9, 0x80);
        let addrs: Vec<u64> = (0..8u64).map(|i| i * 64).collect();
        let err = e.read_batch(&addrs).unwrap_err();
        assert_eq!(err.index, 5);
        assert!(matches!(
            err.error,
            ToleoError::IntegrityViolation { address } if address == 5 * 64
        ));
        assert!(e.is_killed());
        // Dead engine: batches fail at index 0 without touching state.
        let err = e.read_batch(&addrs).unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(e.write_batch(&[(0, [0u8; 64])]).unwrap_err().index, 0);
    }

    /// A flipped ciphertext bit and a stale tag under fresh ciphertext are
    /// each caught by the MAC check in front of every decryption path —
    /// `read`, a `read_batch` run (failing index reported) and the reset
    /// re-encryption walk — as `IntegrityViolation` at the victim's
    /// address, with the engine killed afterwards.
    #[test]
    fn tamper_and_stale_tag_fail_closed_on_every_unseal_path() {
        #[derive(Debug, Clone, Copy)]
        enum Attack {
            FlippedBit,
            StaleTag,
        }
        #[derive(Debug, Clone, Copy)]
        enum Path {
            Read,
            ReadBatch,
            ResetWalk,
        }
        let base = 0x1000u64;
        let victim = base + 5 * 64;
        for attack in [Attack::FlippedBit, Attack::StaleTag] {
            for path in [Path::Read, Path::ReadBatch, Path::ResetWalk] {
                let mut cfg = ToleoConfig::small();
                cfg.reset_log2 = 4; // frequent resets, so the walk runs soon
                let mut e = ProtectionEngine::try_new(cfg, [4u8; 48]).unwrap();
                for l in 0..8u64 {
                    e.write(base + l * 64, &[l as u8 + 1; 64]).unwrap();
                }
                match attack {
                    Attack::FlippedBit => {
                        assert!(e.adversary().corrupt_data(victim, 17, 0x04));
                    }
                    Attack::StaleTag => {
                        let id = e.dram.slot_id(layout::page_of(victim)).unwrap();
                        let stale = e.dram.slot(id).tag(layout::line_of(victim)).unwrap();
                        e.write(victim, &[0x77; 64]).unwrap();
                        e.adversary().forge_mac(victim, stale);
                    }
                }
                let error = match path {
                    Path::Read => e.read(victim).unwrap_err(),
                    Path::ReadBatch => {
                        let addrs: Vec<u64> = (0..8u64).map(|l| base + l * 64).collect();
                        let err = e.read_batch(&addrs).unwrap_err();
                        assert_eq!(err.index, 5, "{attack:?} via {path:?}");
                        err.error
                    }
                    // Hammer another line of the page until a reset's
                    // walk over the resident lines reaches the victim.
                    Path::ResetWalk => (0..2000)
                        .find_map(|_| e.write(base + 9 * 64, &[0xee; 64]).err())
                        .expect("a reset walk must reach the victim"),
                };
                assert!(
                    matches!(error, ToleoError::IntegrityViolation { address } if address == victim),
                    "{attack:?} via {path:?}: {error:?}"
                );
                assert!(e.is_killed(), "{attack:?} via {path:?} must kill");
            }
        }
    }

    /// A resident block whose tag the adversary deleted is tampering like
    /// any other: `read`, a `read_batch` run and the reset walk each
    /// report `IntegrityViolation` at the victim's address, kill at once,
    /// and freeze every counter at the detecting access. (The walk used
    /// to return the error with the engine alive, lines before the victim
    /// already re-sealed under a UV the slot never received.)
    #[test]
    fn missing_tag_fails_closed_on_every_unseal_path() {
        let base = 0x1000u64;
        let victim = base + 5 * 64;
        for path in ["read", "read_batch", "reset walk"] {
            let mut cfg = ToleoConfig::small();
            cfg.reset_log2 = 4;
            let mut e = ProtectionEngine::try_new(cfg, [4u8; 48]).unwrap();
            for l in 0..8u64 {
                e.write(base + l * 64, &[l as u8 + 1; 64]).unwrap();
            }
            let id = e.dram.slot_id(layout::page_of(victim)).unwrap();
            e.adversary()
                .slot_mut(id)
                .clear_tag(layout::line_of(victim));
            let error = match path {
                "read" => e.read(victim).unwrap_err(),
                "read_batch" => {
                    let addrs: Vec<u64> = (0..8u64).map(|l| base + l * 64).collect();
                    let err = e.read_batch(&addrs).unwrap_err();
                    assert_eq!(err.index, 5);
                    err.error
                }
                _ => (0..2000)
                    .find_map(|_| e.write(base + 9 * 64, &[0xee; 64]).err())
                    .expect("a reset walk must reach the victim"),
            };
            assert!(
                matches!(error, ToleoError::IntegrityViolation { address } if address == victim),
                "{path}: {error:?}"
            );
            assert!(e.is_killed(), "{path} must kill");
            let frozen = e.kill_snapshot().unwrap();
            assert!(e.write(base + 9 * 64, &[1; 64]).is_err(), "{path}");
            assert!(e.read(base).is_err(), "{path}: untampered line 0");
            assert_eq!(e.snapshot(), frozen, "{path}: counters frozen at the kill");
        }
    }

    /// The Carter–Wegman nonce invariant, observed rather than argued: a
    /// seeded mixed trace through a 2-shard engine at `reset_log2 = 3` —
    /// writes over several pages, hot lines that force reset walks, page
    /// frees, reads, two tamper + `recover_shard` rounds — and after every
    /// op each line that verifies under its current `(UV, stealth)` is
    /// recorded: no `(key generation, full version, address)` is ever
    /// seen with two different ciphertexts.
    #[test]
    fn no_nonce_ever_seals_two_ciphertexts() {
        use crate::sharded::ShardedEngine;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashMap;

        /// Every line of `e` whose stored tag verifies, as
        /// `((full version, address), ciphertext)`.
        fn sealed_lines(e: &mut ProtectionEngine) -> Vec<((u64, u64), Block)> {
            let bits = e.cfg.stealth_bits;
            let pages: Vec<(u64, SlotId)> = e.dram.pages().collect();
            let mut out = Vec::new();
            for (page, id) in pages {
                for line in 0..LINES_PER_PAGE {
                    let Some(&ct) = e.dram.slot(id).block(line) else {
                        continue;
                    };
                    let uv = e.dram.slot(id).uv();
                    let stealth = e.channel.device_mut().read(page, line).unwrap();
                    let fv = FullVersion::compose(uv, stealth, bits).raw();
                    let addr = page * PAGE_BYTES as u64 + (line * CACHE_BLOCK_BYTES) as u64;
                    if e.sealer.unseal(e.dram.slot(id), addr, fv).is_some() {
                        out.push(((fv, addr), ct));
                    }
                }
            }
            out
        }

        const SHARDS: usize = 2;
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 3;
        let mut e = ShardedEngine::new_with_robustness(
            cfg,
            SHARDS,
            [0x22; 48],
            None,
            RetryPolicy::default(),
        )
        .unwrap();
        let mut generation = [0u64; SHARDS];
        let mut seen: HashMap<(usize, u64, u64, u64), Block> = HashMap::new();
        // Returns how many nonces it saw for the first time.
        let mut observe = |e: &mut ShardedEngine, generation: &[u64; SHARDS], op: usize| {
            let mut fresh = 0;
            for (shard, &generation) in generation.iter().enumerate() {
                for ((fv, addr), ct) in sealed_lines(e.shard_engine_mut(shard)) {
                    let earlier = seen.insert((shard, generation, fv, addr), ct);
                    assert!(
                        earlier.is_none_or(|old| old == ct),
                        "op {op}: generation {generation} sealed {addr:#x} twice under version {fv:#x}"
                    );
                    fresh += u64::from(earlier.is_none());
                }
            }
            fresh
        };

        let mut rng = StdRng::seed_from_u64(22);
        let addr = |page: u64, line: u64| page * PAGE_BYTES as u64 + line * 64;
        // Pages 0..6 take mixed traffic; 6 and 7 (one per shard) hold a
        // single line and are the ones freed — a reset walk must never
        // meet a freed page's stale lines (ROADMAP item 2).
        let (mut resets, mut frees, mut recoveries) = (0, 0, 0);
        for op in 0..3_000usize {
            let fill = [rng.gen::<u8>(); 64];
            match rng.gen_range(0..100) {
                0..=49 => {
                    let (page, line) = (rng.gen_range(0..6), rng.gen_range(0..12));
                    e.write(addr(page, line), &fill).unwrap();
                }
                50..=74 => e.write(addr(rng.gen_range(0..6), 3), &fill).unwrap(),
                75..=84 => {
                    e.read(addr(rng.gen_range(0..6), rng.gen_range(0..12)))
                        .unwrap();
                }
                85..=94 => e.write(addr(rng.gen_range(6..8), 0), &fill).unwrap(),
                _ => {
                    e.free_page(rng.gen_range(6..8)).unwrap();
                    frees += 1;
                }
            }
            if op == 1_000 || op == 2_000 {
                let victim = addr((op / 1_000) as u64, 3);
                e.write(victim, &fill).unwrap();
                observe(&mut e, &generation, op);
                e.with_adversary(victim, |dram| dram.corrupt_data(victim, 9, 0x10));
                assert!(e.read(victim).is_err());
                let shard = e.shard_of_addr(victim);
                let out = e.recover_shard(shard).unwrap();
                generation[shard] = out.generation;
                // The walk moved every intact line, and nothing else, to a
                // nonce of the new key.
                assert_eq!(observe(&mut e, &generation, op), out.blocks_intact);
                recoveries += 1;
            }
            observe(&mut e, &generation, op);
        }
        for shard in 0..SHARDS {
            resets += e.shard_engine_mut(shard).stats().pages_reencrypted;
        }
        assert!(!e.is_killed() && e.quarantined_shard_count() == 0);
        assert!(
            resets > 50 && frees > 50 && recoveries == 2,
            "{resets} {frees}"
        );
        assert!(seen.len() > 3_000, "only {} nonces observed", seen.len());
    }

    #[test]
    fn uv_advances_on_reset_never_repeats_full_version() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 3;
        let mut e = ProtectionEngine::try_new(cfg.clone(), [3u8; 48]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..400u64 {
            e.write(0x7000, &[i as u8; 64]).unwrap();
            let page = layout::page_of(0x7000);
            let line = layout::line_of(0x7000);
            let stealth = e.channel.device_mut().read(page, line).unwrap();
            let uv = e.dram.uv(page);
            let fv = FullVersion::compose(uv, stealth, cfg.stealth_bits);
            assert!(seen.insert(fv.raw()), "full version repeated at write {i}");
        }
    }
}
