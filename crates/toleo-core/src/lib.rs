//! # toleo-core
//!
//! A from-scratch reproduction of **Toleo** (*Scaling Freshness to
//! Tera-scale Memory using CXL and PIM*, ASPLOS 2024): freshness
//! protection for tera-scale memory pools using a small trusted smart
//! memory device, instead of an unscalable Merkle tree.
//!
//! ## Architecture
//!
//! * [`version`] — 64-bit full versions split into a 37-bit upper version
//!   (UV, stored with the MACs in conventional memory) and a 27-bit
//!   *stealth version* (stored only in trusted Toleo memory).
//! * [`trip`] — the Trip (Tri-level Page) compression: flat (12 B / 4 KB
//!   page, 341:1), uneven (+56 B, 60:1) and full (+216 B, 18:1) formats,
//!   upgraded on demand as version locality degrades.
//! * [`device`] — the Toleo device: READ / UPDATE / RESET requests, the
//!   probabilistic stealth reset (p = 2^-20) with random re-initialization,
//!   and dynamic space management.
//! * [`engine`] — the host-side protection engine: AES-XTS with a
//!   `(version, address)` tweak, 56-bit MACs, UV management, page
//!   re-encryption on reset, and the kill switch.
//! * [`seal`] — the one line seal every scheme stores through: XTS
//!   ciphertext + Carter–Wegman tag into the page arena, and the batched
//!   page re-encryption walk.
//! * [`sharded`] — the concurrent scale-out layer: page-wise sharding
//!   across N independent engines behind a thread-safe handle, with
//!   batched reads/writes drained shard by shard on the calling thread,
//!   per-shard quarantine on tamper detection (healthy shards keep serving), and
//!   a world-kill escalation for device-level failures.
//! * [`channel`] / [`fault`] — the device fault plane: a [`channel`]
//!   layer that absorbs transient link faults with bounded exponential
//!   backoff and an idempotency guard, driven by a deterministic seeded
//!   [`fault`] injection plan (per-op-type rates, burst windows).
//! * [`cache`] — the L2-TLB stealth extension, the 28 KB overflow buffer,
//!   and the per-core MAC cache.
//! * [`layout`] — data / MAC+UV partitioning of conventional memory.
//! * [`pagetable`] — the open-addressed flat page index backing the
//!   device's Trip-entry array and the arena's page->slot map (one
//!   multiply-shift hash + linear probe instead of a `HashMap` probe on
//!   every memory operation).
//! * [`protected`] — the scheme-agnostic [`ProtectedMemory`] evaluation
//!   interface (single + batch ops, stats, tamper/replay adversary hooks)
//!   that `toleo-baselines` also implements, so every scheme runs the same
//!   harness and the same attack corpus.
//! * [`analysis`] — closed-form and Monte-Carlo §6.2 security margins.
//!
//! ## Quickstart
//!
//! ```
//! use toleo_core::config::ToleoConfig;
//! use toleo_core::engine::ProtectionEngine;
//!
//! let mut engine = ProtectionEngine::try_new(ToleoConfig::small(), [0u8; 48])?;
//!
//! // Ordinary protected accesses.
//! engine.write(0x1000, &[1u8; 64])?;
//! assert_eq!(engine.read(0x1000)?, [1u8; 64]);
//!
//! // A replay attack: capture stale ciphertext+MAC, write new data,
//! // replay the stale capsule — the read is detected and killed.
//! let stale = engine.adversary().capture(0x1000);
//! engine.write(0x1000, &[2u8; 64])?;
//! engine.adversary().replay(&stale);
//! assert!(engine.read(0x1000).is_err());
//! # Ok::<(), toleo_core::error::ToleoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod arena;
pub mod cache;
pub mod channel;
pub mod config;
pub mod device;
pub mod engine;
pub mod error;
pub mod fault;
pub mod layout;
pub mod pagetable;
pub mod protected;
pub mod seal;
pub mod sharded;
pub mod trip;
pub mod version;

pub use channel::{ChannelStats, DeviceChannel, RetryPolicy};
pub use config::ToleoConfig;
pub use device::ToleoDevice;
pub use engine::{KillSnapshot, ProtectionEngine};
pub use error::{Result, ToleoError};
pub use fault::{FaultPlan, FaultPlanConfig};
pub use protected::ProtectedMemory;
pub use sharded::ShardedEngine;
