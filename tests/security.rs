//! End-to-end security tests: every attack in the threat model (§2.1)
//! must be detected by **every** scheme in the evaluation arena — Toleo,
//! sharded Toleo, and the Merkle baselines — driven through the shared
//! [`ProtectedMemory`] trait so all schemes face the same tamper/replay
//! corpus. The §6 confidentiality arguments must hold on observable
//! traces.

use toleo_baselines::sgx::SgxEngine;
use toleo_baselines::{MorphEngine, VaultEngine};
use toleo_core::config::ToleoConfig;
use toleo_core::engine::ProtectionEngine;
use toleo_core::error::ToleoError;
use toleo_core::layout::{line_of, page_of};
use toleo_core::protected::{MemoryError, ProtectedMemory};
use toleo_core::sharded::ShardedEngine;

fn engine() -> ProtectionEngine {
    ProtectionEngine::try_new(ToleoConfig::small(), [0xabu8; 48]).unwrap()
}

/// Footprint the baseline engines protect in the shared corpus.
const ARENA_BYTES: u64 = 1 << 20;

/// One fresh engine per scheme in the arena, behind the shared trait.
fn arena() -> Vec<Box<dyn ProtectedMemory>> {
    vec![
        Box::new(ProtectionEngine::try_new(ToleoConfig::small(), [0xabu8; 48]).unwrap()),
        Box::new(ShardedEngine::new(ToleoConfig::small(), 4, [0xacu8; 48]).unwrap()),
        Box::new(SgxEngine::new(ARENA_BYTES)),
        Box::new(VaultEngine::new(ARENA_BYTES)),
        Box::new(MorphEngine::new(ARENA_BYTES)),
    ]
}

#[test]
fn arena_covers_every_scheme_exactly_once() {
    let names: Vec<&str> = arena().iter().map(|m| m.scheme()).collect();
    assert_eq!(
        names,
        vec!["toleo", "toleo-sharded", "sgx-tree", "vault", "morph"]
    );
}

#[test]
fn every_scheme_roundtrips_and_zero_fills() {
    for mut m in arena() {
        let scheme = m.scheme();
        for i in 0..32u64 {
            m.write(i * 64, &[i as u8 + 1; 64])
                .unwrap_or_else(|e| panic!("{scheme}: write {i}: {e}"));
        }
        for i in 0..32u64 {
            assert_eq!(
                m.read(i * 64).unwrap(),
                [i as u8 + 1; 64],
                "{scheme} op {i}"
            );
        }
        assert_eq!(m.read(0x8000).unwrap(), [0u8; 64], "{scheme} zero fill");
        let ops: Vec<(u64, [u8; 64])> = (0..32u64).map(|i| (i * 64, [i as u8; 64])).collect();
        m.write_batch(&ops)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        let addrs: Vec<u64> = ops.iter().map(|(a, _)| *a).collect();
        let blocks = m.read_batch(&addrs).unwrap();
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(*b, [i as u8; 64], "{scheme} batch op {i}");
        }
    }
}

#[test]
fn every_scheme_detects_corruption_at_any_offset() {
    for offset in [0usize, 1, 17, 31, 48, 63] {
        for mut m in arena() {
            let scheme = m.scheme();
            m.write(0x40, &[7u8; 64]).unwrap();
            assert!(m.corrupt(0x40, offset, 0x01), "{scheme} offset {offset}");
            assert!(
                matches!(
                    m.read(0x40),
                    Err(MemoryError::IntegrityViolation { address: 0x40 })
                ),
                "{scheme}: corruption at byte {offset} must be detected"
            );
        }
    }
}

#[test]
fn every_scheme_detects_replay_at_every_overwrite_depth() {
    for depth in 1..5u8 {
        for mut m in arena() {
            let scheme = m.scheme();
            m.write(0x40, &[0u8; 64]).unwrap();
            let stale = m.capture(0x40);
            for v in 0..depth {
                m.write(0x40, &[v + 1; 64]).unwrap();
            }
            m.replay(&stale);
            assert!(
                matches!(m.read(0x40), Err(MemoryError::IntegrityViolation { .. })),
                "{scheme}: replay at depth {depth} must be detected"
            );
        }
    }
}

#[test]
fn every_scheme_detects_tamper_inside_a_batch_read() {
    for mut m in arena() {
        let scheme = m.scheme();
        let ops: Vec<(u64, [u8; 64])> = (0..8u64).map(|i| (i * 64, [i as u8 + 1; 64])).collect();
        m.write_batch(&ops).unwrap();
        assert!(m.corrupt(5 * 64, 9, 0x80), "{scheme}");
        let addrs: Vec<u64> = ops.iter().map(|(a, _)| *a).collect();
        let err = m.read_batch(&addrs).unwrap_err();
        assert!(
            matches!(err.error, MemoryError::IntegrityViolation { .. }),
            "{scheme}: batch must surface the violation, got {err}"
        );
        assert_eq!(err.index, 5, "{scheme}: at the tampered op's own index");
    }
}

#[test]
fn every_scheme_rejects_out_of_range_addresses() {
    // Each scheme bounds a different resource (Toleo protected pages,
    // the EPC, a tree's covered blocks); all must refuse service beyond
    // it rather than silently wrap.
    for mut m in arena() {
        let scheme = m.scheme();
        let beyond = match scheme {
            "toleo" | "toleo-sharded" => {
                ToleoConfig::small().protected_pages() * 4096 // first page past the pool
            }
            _ => ARENA_BYTES,
        };
        assert!(
            matches!(
                m.write(beyond, &[1u8; 64]),
                Err(MemoryError::OutOfRange { .. })
            ),
            "{scheme}: write beyond the range must be rejected"
        );
        assert!(
            matches!(m.read(beyond), Err(MemoryError::OutOfRange { .. })),
            "{scheme}: read beyond the range must be rejected"
        );
    }
}

#[test]
fn quickstart_replay_capture_overwrite_replay_detected() {
    // The toleo-core crate-docs quickstart, as a named integration test:
    // ordinary protected accesses work, then a replay attack (capture
    // stale ciphertext+MAC, overwrite with new data, replay the stale
    // capsule) is detected on the next read and kills the platform.
    let mut engine = ProtectionEngine::try_new(ToleoConfig::small(), [0u8; 48]).unwrap();

    // Ordinary protected accesses.
    engine.write(0x1000, &[1u8; 64]).unwrap();
    assert_eq!(engine.read(0x1000).unwrap(), [1u8; 64]);

    // Capture the current (ciphertext, MAC) capsule at 0x1000...
    let stale = engine.adversary().capture(0x1000);
    // ...let the victim overwrite it...
    engine.write(0x1000, &[2u8; 64]).unwrap();
    // ...and replay the stale capsule.
    engine.adversary().replay(&stale);

    // The stale capsule carries an out-of-date version: detected.
    assert!(
        matches!(
            engine.read(0x1000),
            Err(ToleoError::IntegrityViolation { address: 0x1000 })
        ),
        "replayed capsule must fail the freshness check"
    );
    assert!(engine.is_killed(), "detection must engage the kill switch");
}

#[test]
fn replay_detected_at_every_overwrite_depth() {
    // Capture at each historical version; all replays must fail.
    for depth in 1..6u8 {
        let mut e = engine();
        e.write(0x40, &[0u8; 64]).unwrap();
        let stale = e.adversary().capture(0x40);
        for v in 0..depth {
            e.write(0x40, &[v + 1; 64]).unwrap();
        }
        e.adversary().replay(&stale);
        assert!(
            matches!(e.read(0x40), Err(ToleoError::IntegrityViolation { .. })),
            "replay at depth {depth} must be detected"
        );
    }
}

#[test]
fn replay_detected_across_stealth_resets() {
    // A reset re-randomizes the stealth version AND bumps the UV: even if
    // the adversary replays a capsule from before the reset (including its
    // old UV), the full version has moved on.
    let mut cfg = ToleoConfig::small();
    cfg.reset_log2 = 3; // frequent resets
    let mut e = ProtectionEngine::try_new(cfg, [1u8; 48]).unwrap();
    e.write(0x40, &[1u8; 64]).unwrap();
    let stale = e.adversary().capture(0x40);
    for i in 0..100u8 {
        e.write(0x40, &[i; 64]).unwrap();
    }
    assert!(e.stats().pages_reencrypted > 0, "resets must have fired");
    e.adversary().replay(&stale);
    assert!(e.read(0x40).is_err());
}

/// Every scheme seals into the same page arena, so one splice fits all:
/// copy block A's valid ciphertext and tag into block B's line. The tag
/// binds the address, so B fails.
#[test]
fn cross_address_splice_detected() {
    let (a, b) = (0x40u64, 0x80u64);
    for mut m in arena() {
        let scheme = m.scheme();
        m.write(a, &[1u8; 64]).unwrap();
        m.write(b, &[2u8; 64]).unwrap();
        let dram = m.untrusted(a);
        let id = dram.slot_id(page_of(a)).expect("A's page is resident");
        let ct = *dram.ciphertext(a).expect("A is resident");
        let tag = dram.slot(id).tag(line_of(a)).expect("A is tagged");
        dram.slot_mut(id).set_block(line_of(b), ct);
        dram.forge_mac(b, tag);
        assert!(
            matches!(
                m.read(b),
                Err(MemoryError::IntegrityViolation { address }) if address == b
            ),
            "{scheme}: A's line spliced into B must be detected"
        );
    }
}

/// ROADMAP item 1 across the arena: capture a never-written line of a
/// written page, write the line, replay the blank capture. Every scheme
/// unseals through `LineSealer::unseal`, which answers a line with no
/// ciphertext with zeros, so all five serve the rollback today — and one
/// fix there closes it for all five.
#[test]
#[ignore = "ROADMAP item 1"]
fn every_scheme_detects_rollback_to_blank() {
    let missed: Vec<&str> = arena()
        .into_iter()
        .filter_map(|mut m| {
            m.write(0x1000, &[1u8; 64]).unwrap(); // materialises the page
            let blank = m.capture(0x1040);
            m.write(0x1040, &[2u8; 64]).unwrap();
            m.replay(&blank);
            let detected = matches!(
                m.read(0x1040),
                Err(MemoryError::IntegrityViolation { address: 0x1040 })
            );
            (!detected).then_some(m.scheme())
        })
        .collect();
    assert!(missed.is_empty(), "rollback to blank served by {missed:?}");
}

#[test]
fn corruption_at_any_byte_offset_detected() {
    // The MAC covers the whole 64-byte ciphertext: flipping bits at any
    // position — not just byte 0 — must be detected.
    for offset in [1usize, 17, 31, 48, 63] {
        let mut e = engine();
        e.write(0x40, &[7u8; 64]).unwrap();
        e.adversary().corrupt_data(0x40, offset, 0x01);
        assert!(
            matches!(e.read(0x40), Err(ToleoError::IntegrityViolation { .. })),
            "corruption at byte {offset} must be detected"
        );
        assert!(e.is_killed(), "offset {offset} must engage the kill switch");
    }
}

#[test]
fn tamper_and_replay_still_kill_after_storage_refactor() {
    // Regression for the page-arena storage layer: drive a page through
    // uneven/full upgrades and stealth resets (slab re-encryption), then
    // confirm a mid-page tamper and a stale-capsule replay each still kill.
    let mut cfg = ToleoConfig::small();
    cfg.reset_log2 = 5;
    let mut tampered = ProtectionEngine::try_new(cfg.clone(), [8u8; 48]).unwrap();
    for line in 0..16u64 {
        tampered
            .write(0x2000 + line * 64, &[line as u8; 64])
            .unwrap();
    }
    for i in 0..300u64 {
        tampered.write(0x2000 + 3 * 64, &[i as u8; 64]).unwrap();
    }
    assert!(tampered.stats().pages_reencrypted > 0, "resets must fire");
    tampered.adversary().corrupt_data(0x2000 + 7 * 64, 42, 0x10);
    assert!(tampered.read(0x2000 + 7 * 64).is_err());
    assert!(tampered.is_killed());

    let mut replayed = ProtectionEngine::try_new(cfg, [9u8; 48]).unwrap();
    replayed.write(0x2000, &[1u8; 64]).unwrap();
    let stale = replayed.adversary().capture(0x2000);
    for i in 0..300u64 {
        replayed.write(0x2000, &[i as u8; 64]).unwrap();
    }
    assert!(replayed.stats().pages_reencrypted > 0, "resets must fire");
    replayed.adversary().replay(&stale);
    assert!(replayed.read(0x2000).is_err());
    assert!(replayed.is_killed());
}

#[test]
fn kill_switch_is_global_and_sticky() {
    let mut e = engine();
    e.write(0x40, &[1u8; 64]).unwrap();
    e.write(0x80, &[2u8; 64]).unwrap();
    e.adversary().corrupt_data(0x40, 0, 1);
    assert!(e.read(0x40).is_err());
    // Every subsequent operation on any address fails.
    assert!(e.read(0x80).is_err());
    assert!(e.write(0xc0, &[3u8; 64]).is_err());
    assert!(e.free_page(0).is_err());
    assert!(e.is_killed());
}

#[test]
fn same_plaintext_never_repeats_ciphertext_across_writes() {
    // §6.3: the full version never repeats, so identical writes to the
    // same address always yield distinct ciphertexts (traffic analysis
    // defeated). 200 rewrites with frequent resets exercise UV bumps too.
    let mut cfg = ToleoConfig::small();
    cfg.reset_log2 = 4;
    let mut e = ProtectionEngine::try_new(cfg, [3u8; 48]).unwrap();
    let mut seen = std::collections::HashSet::new();
    for i in 0..200 {
        e.write(0x1000, &[0x77u8; 64]).unwrap();
        let ct = *e.adversary().ciphertext(0x1000).expect("resident");
        assert!(seen.insert(ct.to_vec()), "ciphertext repeated at write {i}");
    }
}

#[test]
fn stealth_version_not_inferable_from_fresh_pages() {
    // §4.2 address side-channel: two engines observing identical write
    // traces must still hold different (random) stealth versions, because
    // initial values are drawn from the device RNG, not from the trace.
    let mut cfg_a = ToleoConfig::small();
    cfg_a.rng_seed = 111;
    let mut cfg_b = ToleoConfig::small();
    cfg_b.rng_seed = 222;
    let mut a = ProtectionEngine::try_new(cfg_a, [5u8; 48]).unwrap();
    let mut b = ProtectionEngine::try_new(cfg_b, [5u8; 48]).unwrap();
    let mut diffs = 0;
    for page in 0..8u64 {
        a.write(page * 4096, &[1u8; 64]).unwrap();
        b.write(page * 4096, &[1u8; 64]).unwrap();
        let va = a.device().peek_base(page);
        let vb = b.device().peek_base(page);
        if va != vb {
            diffs += 1;
        }
    }
    assert!(
        diffs >= 7,
        "stealth bases must be trace-independent ({diffs}/8 differ)"
    );
}

#[test]
fn sgx_baseline_detects_the_same_attacks() {
    let mut sgx = SgxEngine::new(1 << 20);
    sgx.write(0x40, &[1u8; 64]).unwrap();
    let stale = sgx.capture(0x40);
    sgx.write(0x40, &[2u8; 64]).unwrap();
    sgx.replay(&stale);
    assert!(sgx.read(0x40).is_err());
}

#[test]
fn freed_page_is_scrambled_without_reencryption() {
    let mut e = engine();
    for line in 0..8u64 {
        e.write(0x3000 + line * 64, &[line as u8; 64]).unwrap();
    }
    e.free_page(0x3000 / 4096).unwrap();
    // The first read fails and engages the kill switch, which covers the
    // rest of the page by construction.
    assert!(e.read(0x3000).is_err(), "freed page must be unreadable");
    assert!(e.is_killed());
}

/// ROADMAP item 1's rollback-to-blank finding on the engine, asserting
/// the *correct* behaviour: `LineSealer::unseal` answers an absent line
/// with zeros without consulting anything trusted, so rolling a written
/// line back to its never-written state goes undetected — and the engine
/// is not killed — today.
#[test]
#[ignore = "ROADMAP item 1"]
fn rollback_to_the_scrubbed_state_is_detected() {
    let mut e = engine();
    e.write(0x1000, &[1u8; 64]).unwrap(); // materialises the page
    let blank = e.adversary().capture(0x1040); // a never-written line
    e.write(0x1040, &[2u8; 64]).unwrap();
    e.adversary().replay(&blank);
    assert!(matches!(
        e.read(0x1040),
        Err(ToleoError::IntegrityViolation { address: 0x1040 })
    ));
    assert!(e.is_killed());
}
