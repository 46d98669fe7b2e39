//! # toleo-baselines
//!
//! The protection schemes Toleo is evaluated against, built from scratch:
//!
//! * [`tree`] — a functional Merkle counter tree with MAC chains and a
//!   node cache: the freshness mechanism of client SGX, VAULT and
//!   Morphable Counters, and the scalability bottleneck Toleo removes.
//! * [`sgx`] — a client-SGX-style memory encryption engine (AES-CTR +
//!   MAC + counter tree over a bounded EPC) with adversary hooks.
//! * [`schemes`] — the Table 1 guarantee matrix and Table 4 version-size
//!   rows for every compared design (Client/Scalable SGX, VAULT,
//!   MorphCtr-128, InvisiMem, Toleo).
//! * [`vault`] — VAULT's variable-arity tree with small-counter overflow
//!   resets, plus the functional [`VaultEngine`].
//! * [`morph`] — Morphable Counters' uniform/skewed leaf encodings, plus
//!   the functional [`MorphEngine`].
//! * [`store`] — the shared sealed-block storage (AES-CTR + MAC + the
//!   corrupt/capture/replay adversary surface) the baseline engines wrap
//!   their version stores around.
//!
//! Every engine implements
//! [`ProtectedMemory`](toleo_core::protected::ProtectedMemory), so the
//! benchmark and the security suite drive Toleo and the baselines
//! through one interface — same workloads, same batch entry
//! points, same tamper/replay corpus.
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
pub mod store;
pub mod tree;
pub mod vault;

pub use morph::MorphEngine;
pub use schemes::{Guarantees, Level, Scheme, VersionScheme};
pub use sgx::SgxEngine;
pub use tree::CounterTree;
pub use vault::VaultEngine;
