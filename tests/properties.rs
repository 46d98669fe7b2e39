//! Property-based tests (proptest) on the core invariants:
//!
//! * Trip entries agree with a naive per-line counter model under any
//!   write sequence, through all upgrades and renormalizations.
//! * The protection engine is a faithful memory under any op sequence.
//! * Full versions never repeat per address under any write pattern.
//! * Crypto round-trips hold for arbitrary data/tweaks.
//! * The counter tree stays consistent under arbitrary update patterns.

use proptest::prelude::*;
use toleo_baselines::tree::CounterTree;
use toleo_baselines::{MorphEngine, SgxEngine, VaultEngine};
use toleo_core::channel::RetryPolicy;
use toleo_core::config::{ToleoConfig, LINES_PER_PAGE};
use toleo_core::engine::ProtectionEngine;
use toleo_core::error::BatchError;
use toleo_core::fault::FaultPlanConfig;
use toleo_core::protected::{MemoryError, ProtectedMemory};
use toleo_core::sharded::ShardedEngine;
use toleo_core::trip::PageEntry;
use toleo_core::version::StealthVersion;
use toleo_crypto::modes::{AesXts, Tweak};

/// Fresh engines for every scheme in the evaluation arena, protecting at
/// least 1 MB each.
fn arena() -> Vec<Box<dyn ProtectedMemory>> {
    vec![
        Box::new(ProtectionEngine::try_new(ToleoConfig::small(), [0x61u8; 48]).unwrap()),
        Box::new(ShardedEngine::new(ToleoConfig::small(), 4, [0x62u8; 48]).unwrap()),
        Box::new(SgxEngine::new(1 << 20)),
        Box::new(VaultEngine::new(1 << 20)),
        Box::new(MorphEngine::new(1 << 20)),
    ]
}

/// Two identically keyed engines under the same explicitly armed fault
/// plan (not the environment's): one to drive through the batch entry
/// points, one to drive an op at a time.
fn armed_pair(reset_log2: u32, plan_seed: u64) -> (ProtectionEngine, ProtectionEngine) {
    let mut cfg = ToleoConfig::small();
    cfg.reset_log2 = reset_log2;
    let build = || {
        let plan = FaultPlanConfig::uniform(plan_seed, 1e-2);
        let policy = RetryPolicy::default();
        ProtectionEngine::try_new_with_robustness(cfg.clone(), [0x17u8; 48], Some(plan), policy)
            .unwrap()
    };
    (build(), build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trip versions always equal a wrapping per-line shadow counter.
    #[test]
    fn trip_matches_shadow_counters(
        base in 0u64..(1 << 27),
        writes in proptest::collection::vec(0usize..LINES_PER_PAGE, 1..600),
    ) {
        let cfg = ToleoConfig::small();
        let mask = (1u32 << 27) - 1;
        let mut entry = PageEntry::new_flat(StealthVersion::new(base, 27));
        let mut shadow = [base as u32; LINES_PER_PAGE];
        for line in writes {
            entry.record_write(line, &cfg);
            shadow[line] = shadow[line].wrapping_add(1) & mask;
            for (l, expect) in shadow.iter().enumerate() {
                prop_assert_eq!(entry.version_of(l, &cfg).raw(), *expect);
            }
        }
    }

    /// Trip's leading version is always the max of the per-line versions
    /// (modulo wrap, which these bounded sequences cannot reach).
    #[test]
    fn trip_leading_is_max(
        writes in proptest::collection::vec(0usize..LINES_PER_PAGE, 1..400),
    ) {
        let cfg = ToleoConfig::small();
        let mut entry = PageEntry::new_flat(StealthVersion::new(0, 27));
        for line in writes {
            entry.record_write(line, &cfg);
            let max = (0..LINES_PER_PAGE)
                .map(|l| entry.version_of(l, &cfg).raw())
                .max()
                .unwrap();
            prop_assert_eq!(entry.leading_version(&cfg).raw(), max);
        }
    }

    /// The engine behaves as an ordinary memory for any access sequence:
    /// reads return the last write.
    #[test]
    fn engine_is_a_faithful_memory(
        ops in proptest::collection::vec((0u64..64, 0u8..=255, any::<bool>()), 1..150),
    ) {
        let mut e = ProtectionEngine::try_new(ToleoConfig::small(), [9u8; 48]).unwrap();
        let mut model = std::collections::HashMap::new();
        for (slot, val, is_write) in ops {
            let addr = slot * 64;
            if is_write {
                e.write(addr, &[val; 64]).unwrap();
                model.insert(addr, val);
            } else {
                let got = e.read(addr).unwrap();
                let expect = model.get(&addr).map(|v| [*v; 64]).unwrap_or([0u8; 64]);
                prop_assert_eq!(got, expect);
            }
        }
    }

    /// The page-arena-backed engine remains a faithful memory when the
    /// access stream spans many pages and aggressive stealth resets force
    /// the slab re-encryption walk — the storage-refactor equivalence
    /// check against a simple model map.
    #[test]
    fn engine_is_faithful_across_pages_and_resets(
        ops in proptest::collection::vec((0u64..512, 0u8..=255, any::<bool>()), 1..300),
    ) {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 4; // frequent resets
        let mut e = ProtectionEngine::try_new(cfg, [7u8; 48]).unwrap();
        let mut model = std::collections::HashMap::new();
        for (slot, val, is_write) in ops {
            let addr = slot * 64; // spans 8 pages
            if is_write {
                e.write(addr, &[val; 64]).unwrap();
                model.insert(addr, val);
            } else {
                let got = e.read(addr).unwrap();
                let expect = model.get(&addr).map(|v| [*v; 64]).unwrap_or([0u8; 64]);
                prop_assert_eq!(got, expect);
            }
        }
        prop_assert!(!e.is_killed());
    }

    /// Full versions (UV, stealth) never repeat per address, even with an
    /// aggressive reset policy.
    #[test]
    fn full_versions_never_repeat(n_writes in 50usize..400) {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 4; // aggressive resets
        let mut e = ProtectionEngine::try_new(cfg.clone(), [2u8; 48]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..n_writes {
            e.write(0x40, &[i as u8; 64]).unwrap();
            let stealth = e.device().peek_base(0).expect("touched");
            // Reconstruct the full version of the hammered line via a
            // fresh read of device state.
            let _ = stealth;
            let fv = {
                // Engine-internal: UV from untrusted memory would need a
                // getter; use ciphertext uniqueness as the observable
                // proxy for version uniqueness.
                *e.adversary().ciphertext(0x40).expect("resident")
            };
            prop_assert!(seen.insert(fv.to_vec()), "ciphertext repeated at write {}", i);
        }
    }

    /// XTS round-trips for arbitrary block contents and tweaks.
    #[test]
    fn xts_roundtrip(
        data in proptest::array::uniform32(any::<u8>()),
        version in any::<u64>(),
        address in any::<u64>(),
    ) {
        let xts = AesXts::new(b"prop test key 16", b"prop tweak key16");
        let mut buf = [0u8; 64];
        buf[..32].copy_from_slice(&data);
        buf[32..].copy_from_slice(&data);
        let orig = buf;
        let tweak = Tweak { version, address };
        xts.encrypt(tweak, &mut buf);
        prop_assert_ne!(buf, orig);
        xts.decrypt(tweak, &mut buf);
        prop_assert_eq!(buf, orig);
    }

    /// The counter tree stays verifiable under arbitrary update sequences
    /// and counts versions exactly.
    #[test]
    fn counter_tree_consistency(
        updates in proptest::collection::vec(0u64..512, 1..120),
    ) {
        let mut tree = CounterTree::new(512, 32);
        let mut model = std::collections::HashMap::new();
        for b in updates {
            tree.update(b).unwrap();
            *model.entry(b).or_insert(0u64) += 1;
        }
        for (b, count) in model {
            prop_assert_eq!(tree.verify(b).unwrap().version, count);
        }
    }

    /// Device UPDATE responses always match a subsequent READ.
    #[test]
    fn device_update_matches_read(
        ops in proptest::collection::vec((0u64..16, 0usize..LINES_PER_PAGE), 1..300),
    ) {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 5;
        let mut dev = toleo_core::device::ToleoDevice::new(cfg).unwrap();
        for (page, line) in ops {
            let resp = dev.update(page, line).unwrap();
            prop_assert_eq!(dev.read(page, line).unwrap(), resp.stealth);
        }
    }

    /// A batch is its op-at-a-time loop: after any stream, driven through
    /// `read_batch`/`write_batch` on one engine and through `read`/`write`
    /// on its twin, both under the same armed fault plan, the two hold
    /// the same results and the same `snapshot()` — engine, both caches,
    /// device *and* channel counters, so every op drew the fault verdict
    /// the loop's op drew. Stealth resets fire identically in both worlds
    /// (same seed, same update sequence).
    #[test]
    fn engine_batches_match_op_at_a_time_loop(
        ops in proptest::collection::vec((0u64..256, 0u8..=255, any::<bool>()), 1..300),
        reset_log2 in 4u32..8,
        plan_seed in any::<u64>(),
    ) {
        // Reset walks are common in-test.
        let (mut batched, mut looped) = armed_pair(reset_log2, plan_seed);
        let mut i = 0usize;
        while i < ops.len() {
            let is_write = ops[i].2;
            let mut j = i;
            while j < ops.len() && ops[j].2 == is_write {
                j += 1;
            }
            if is_write {
                let batch: Vec<(u64, [u8; 64])> = ops[i..j]
                    .iter()
                    .map(|&(block, val, _)| (block * 64, [val; 64]))
                    .collect();
                batched.write_batch(&batch).unwrap();
                for (addr, data) in &batch {
                    looped.write(*addr, data).unwrap();
                }
            } else {
                let addrs: Vec<u64> =
                    ops[i..j].iter().map(|&(block, _, _)| block * 64).collect();
                let got = batched.read_batch(&addrs).unwrap();
                for (k, addr) in addrs.iter().enumerate() {
                    prop_assert_eq!(got[k], looped.read(*addr).unwrap());
                }
            }
            i = j;
        }
        prop_assert_eq!(batched.snapshot(), looped.snapshot());
        // One device request is one link transaction, batch or not.
        let (stats, channel) = (batched.stats(), batched.channel_stats());
        prop_assert_eq!(channel.ops, stats.reads + stats.device_updates + stats.pages_freed);
    }

    /// The same equality on the failure path: a block tampered in the
    /// middle of a same-page batch fails both worlds at the same index
    /// with the same error, and the kill freezes the same snapshot — the
    /// ops past the failure touched nothing.
    #[test]
    fn engine_batch_failure_matches_op_at_a_time_loop(
        victim in 0usize..64,
        plan_seed in any::<u64>(),
    ) {
        let (mut batched, mut looped) = armed_pair(6, plan_seed);
        let addrs: Vec<u64> = (0..64u64).map(|line| 0x1000 + line * 64).collect();
        for engine in [&mut batched, &mut looped] {
            for (line, &addr) in addrs.iter().enumerate() {
                engine.write(addr, &[line as u8; 64]).unwrap();
            }
            engine.adversary().corrupt_data(addrs[victim], 11, 0x10);
        }
        let err = batched.read_batch(&addrs).unwrap_err();
        let loop_err = addrs
            .iter()
            .enumerate()
            .find_map(|(index, &addr)| {
                let error = looped.read(addr).err()?;
                Some(BatchError { index, error })
            })
            .expect("the loop must reach the tampered block");
        prop_assert_eq!(err.index, victim);
        prop_assert_eq!(err, loop_err);
        let frozen = batched.kill_snapshot().expect("tamper must kill");
        prop_assert_eq!(Some(frozen), looped.kill_snapshot());
        prop_assert_eq!(frozen.stats.reads, victim as u64 + 1);
    }

    /// Every `ProtectedMemory` scheme is a faithful memory under any
    /// mixed single/batch op sequence: reads return the last write,
    /// never-written blocks read as zeros, and the batch entry points
    /// agree with the model exactly like the single-op path.
    #[test]
    fn every_scheme_is_a_faithful_memory(
        ops in proptest::collection::vec(
            (0u64..256, 0u8..=255, any::<bool>(), any::<bool>()),
            1..120,
        ),
    ) {
        for mut m in arena() {
            let scheme = m.scheme();
            let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
            let mut i = 0usize;
            while i < ops.len() {
                // Group same-kind runs; every other run goes through the
                // batch entry points so both paths face the same stream.
                let (_, _, is_write, batch) = ops[i];
                let mut j = i;
                while j < ops.len() && ops[j].2 == is_write {
                    j += 1;
                }
                let run = &ops[i..j];
                if is_write {
                    for &(block, val, _, _) in run {
                        model.insert(block * 64, val);
                    }
                    if batch {
                        let writes: Vec<(u64, [u8; 64])> =
                            run.iter().map(|&(b, v, _, _)| (b * 64, [v; 64])).collect();
                        m.write_batch(&writes)
                            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
                    } else {
                        for &(b, v, _, _) in run {
                            m.write(b * 64, &[v; 64])
                                .unwrap_or_else(|e| panic!("{scheme}: {e}"));
                        }
                    }
                } else {
                    let addrs: Vec<u64> = run.iter().map(|&(b, _, _, _)| b * 64).collect();
                    let got = if batch {
                        m.read_batch(&addrs).unwrap_or_else(|e| panic!("{scheme}: {e}"))
                    } else {
                        addrs
                            .iter()
                            .map(|a| m.read(*a).unwrap_or_else(|e| panic!("{scheme}: {e}")))
                            .collect()
                    };
                    for (k, addr) in addrs.iter().enumerate() {
                        let expect = model.get(addr).map(|v| [*v; 64]).unwrap_or([0u8; 64]);
                        prop_assert!(
                            got[k] == expect,
                            "{} addr {:#x}: wrong block",
                            scheme,
                            addr
                        );
                    }
                }
                i = j;
            }
        }
    }

    /// Every `ProtectedMemory` scheme detects the shared tamper corpus:
    /// after an arbitrary warm-up stream, either a single-byte ciphertext
    /// corruption at any offset or a stale-capsule replay over newer data
    /// must fail the next read with an integrity violation.
    #[test]
    fn every_scheme_detects_the_shared_tamper_corpus(
        warmup in proptest::collection::vec((0u64..128, 0u8..=255), 0..60),
        target in 0u64..128,
        offset in 0usize..64,
        xor in 1u8..=255,
        use_replay in any::<bool>(),
        depth in 1u8..4,
    ) {
        for mut m in arena() {
            let scheme = m.scheme();
            for &(b, v) in &warmup {
                m.write(b * 64, &[v; 64]).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            }
            let addr = target * 64;
            m.write(addr, &[0x5Au8; 64]).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            if use_replay {
                let stale = m.capture(addr);
                for d in 0..depth {
                    m.write(addr, &[d; 64]).unwrap_or_else(|e| panic!("{scheme}: {e}"));
                }
                m.replay(&stale);
            } else {
                prop_assert!(m.corrupt(addr, offset, xor), "{}: nothing resident", scheme);
            }
            prop_assert!(
                matches!(m.read(addr), Err(MemoryError::IntegrityViolation { .. })),
                "{}: tamper (replay={}) must be detected at {:#x}",
                scheme, use_replay, addr
            );
        }
    }
}
