//! # toleo-crypto
//!
//! Cryptographic substrate for the Toleo reproduction
//! (*Toleo: Scaling Freshness to Tera-scale Memory using CXL and PIM*,
//! ASPLOS 2024). Everything here is implemented from scratch:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197, test vectors included),
//!   dispatching at construction to the best [`backend`] the host offers.
//! * [`backend`] — pluggable AES-128 backends: the portable T-table
//!   software cipher plus hardware AES (x86_64 AES-NI / aarch64 crypto
//!   extensions) selected by runtime feature detection, all exposing a
//!   pipelined multi-block API and a one-call 64-byte XTS line so
//!   hardware instruction-level parallelism is actually exploited.
//! * [`modes`] — AES-CTR (client-SGX MEE style) and AES-XTS (scalable-SGX /
//!   Toleo style, with a `(version, address)` tweak).
//! * [`mac`] — 56-bit truncated SipHash-2-4 tags, as packed eight-per-block
//!   in the paper's MAC layout.
//! * [`ide`] — CXL 2.0 IDE link model: non-deterministic stream cipher,
//!   per-flit MAC, replay counter (the properties §4.1/§6.1 rely on).
//! * [`range`] — D-RaNGe DRAM true-random generator model, the Toleo
//!   controller's entropy source for stealth re-initialization.
//! * [`tdisp`] — TDISP-style attestation and TVM attach/detach lifecycle
//!   with per-epoch IDE key derivation.
//!
//! # Quick example
//!
//! ```
//! use toleo_crypto::modes::{AesXts, Tweak};
//! use toleo_crypto::mac::MacKey;
//!
//! let xts = AesXts::new(b"0123456789abcdef", b"fedcba9876543210");
//! let mac = MacKey::new(*b"mac-key-16-bytes");
//!
//! // Encrypt one 64-byte cache block under version 3 at address 0x4_0000.
//! let mut block = [0u8; 64];
//! let tweak = Tweak { version: 3, address: 0x4_0000 };
//! xts.encrypt(tweak, &mut block);
//! let tag = mac.mac(3, 0x4_0000, &block);
//!
//! // Verify on read-back.
//! assert!(tag.verify(&mac.mac(3, 0x4_0000, &block)));
//! xts.decrypt(tweak, &mut block);
//! assert_eq!(block, [0u8; 64]);
//! ```

// `unsafe` is denied everywhere except the hardware AES backends, which
// need `core::arch` intrinsics; `backend::hw` carries the only allow and
// every unsafe block there documents its safety contract.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod backend;
pub mod ide;
pub mod mac;
pub mod modes;
pub mod range;
pub mod tdisp;
