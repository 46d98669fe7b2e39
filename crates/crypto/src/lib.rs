//! # toleo-crypto
//!
//! Cryptographic substrate for the Toleo reproduction
//! (*Toleo: Scaling Freshness to Tera-scale Memory using CXL and PIM*,
//! ASPLOS 2024). Everything here is implemented from scratch:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197, test vectors included),
//!   dispatching at construction to the best [`backend`] the host offers.
//! * [`backend`] — pluggable AES-128 backends: the portable T-table
//!   software cipher plus x86_64 AES-NI selected by runtime feature
//!   detection, both exposing a pipelined multi-block encrypt and a
//!   one-call 64-byte XTS line so hardware instruction-level parallelism
//!   is actually exploited. Every other architecture runs the software
//!   cipher, with bit-identical output.
//! * [`modes`] — AES-XTS (scalable-SGX / Toleo style, with a
//!   `(version, address)` tweak), the one data cipher of every scheme.
//! * [`mac`] — 56-bit tags, as packed eight-per-block in the paper's MAC
//!   layout: the Carter–Wegman line MAC every scheme's data lines carry (a
//!   universal hash of the ciphertext plus an AES pad encrypted beside the
//!   XTS tweak) — the SGX counter tree tags its nodes with it too — and
//!   SipHash-2-4 as a PRF MAC that no scheme uses: its one caller is the
//!   benchmark harness's per-layer timing.
//! * [`range`] — D-RaNGe DRAM true-random generator model, the Toleo
//!   controller's entropy source for stealth re-initialization.
//!
//! # Quick example
//!
//! ```
//! use toleo_crypto::modes::{AesXts, Tweak};
//! use toleo_crypto::mac::LineMac;
//!
//! let xts = AesXts::new(b"0123456789abcdef", b"fedcba9876543210");
//! let mac = LineMac::new(b"mac-key-16-bytes");
//!
//! // Seal one 64-byte cache block under version 3 at address 0x4_0000:
//! // tweak and MAC pad in one AES pass, then the line, then its tag.
//! let mut block = [0u8; 64];
//! let pads = xts.line_pads(Tweak { version: 3, address: 0x4_0000 });
//! xts.encrypt_line_with_tweak(pads.tweak, &mut block);
//! let tag = mac.tag(&pads.mac_pad, &block);
//!
//! // On read-back, verify first and only then decrypt.
//! assert!(tag.verify(&mac.tag(&pads.mac_pad, &block)));
//! xts.decrypt_line_with_tweak(pads.tweak, &mut block);
//! assert_eq!(block, [0u8; 64]);
//! ```

// `unsafe` is denied everywhere except the AES-NI backend, which needs
// `core::arch` intrinsics; `backend::hw_x86` carries the only allow and
// every unsafe block there documents its safety contract.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod backend;
pub mod mac;
pub mod modes;
pub mod range;
