//! End-to-end robustness tests for the fault plane and shard quarantine
//! (the PR 7 acceptance criteria):
//!
//! * Under an injected transient-fault rate of 1e-3 with retries enabled,
//!   all four bench workloads complete with **zero false kills** and
//!   **bit-identical observations** vs the fault-free run.
//! * Tampering one shard under traffic quarantines only that shard; the
//!   remaining shards keep serving (no world-kill).
//! * A fault plan of dropped/duplicated responses is observation-
//!   equivalent to the fault-free engine under arbitrary op sequences
//!   (proptest), because retries replay buffered responses and never
//!   re-issue to the device.
//! * A replay attack mounted *inside a retry window* is still detected
//!   and quarantined — transient-fault absorption never masks integrity.
//! * Exhausting the retry budget (device unreachable) escalates past
//!   quarantine to the world-kill.

use proptest::prelude::*;
use toleo_core::channel::RetryPolicy;
use toleo_core::config::ToleoConfig;
use toleo_core::engine::ProtectionEngine;
use toleo_core::error::ToleoError;
use toleo_core::fault::FaultPlanConfig;
use toleo_core::sharded::{RobustnessStats, ShardedEngine};
use toleo_workloads::campaign::{tamper_schedule, FAULT_RATE_SWEEP};
use toleo_workloads::concurrent::multi_tenant;
use toleo_workloads::pattern::{engine_pattern, EnginePattern};
use toleo_workloads::trace::{Op, Trace};

/// Footprint the replay traces touch; well inside `ToleoConfig::small()`.
const FOOTPRINT: u64 = 1 << 19;
/// Memory ops per workload trace: small enough for a debug-profile test,
/// large enough that a 1e-3 fault rate injects dozens of faults.
const OPS: u64 = 12_000;
const SHARDS: usize = 4;

fn workloads() -> Vec<(&'static str, Trace)> {
    vec![
        (
            "sequential",
            engine_pattern(EnginePattern::Sequential, OPS, FOOTPRINT, 0x2C),
        ),
        (
            "random",
            engine_pattern(EnginePattern::Random, OPS, FOOTPRINT, 0x2D),
        ),
        (
            "hot-reset",
            engine_pattern(EnginePattern::HotReset, OPS, FOOTPRINT, 0x2E),
        ),
        (
            "multi-tenant",
            multi_tenant(4, OPS / 4, FOOTPRINT / 4, 0x2F),
        ),
    ]
}

/// Replays `trace` on a sharded engine with the given fault plan and
/// returns (observation checksum, blocks served, robustness stats). Every
/// op must succeed: a refusal or kill under a transient-only plan is a
/// false kill and fails the test via the expect.
fn replay(trace: &Trace, plan: Option<FaultPlanConfig>) -> (u64, u64, RobustnessStats) {
    let engine = ShardedEngine::new_with_robustness(
        ToleoConfig::small(),
        SHARDS,
        [0x42u8; 48],
        plan,
        RetryPolicy::default(),
    )
    .expect("sharded engine");
    let mut blocks = 0u64;
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for op in &trace.ops {
        match op {
            Op::Write(addr) => {
                let fill = (addr >> 6) as u8 ^ blocks as u8;
                engine.write(*addr, &[fill; 64]).expect("protected write");
                blocks += 1;
            }
            Op::Read(addr) => {
                let block = engine.read(*addr).expect("protected read");
                for b in block {
                    checksum = (checksum ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                blocks += 1;
            }
            Op::Compute(_) => {}
        }
    }
    (checksum, blocks, engine.robustness_stats())
}

/// Transient events that would be wrongly terminal: any of these under a
/// transient-only fault plan is a false kill.
fn false_kills(stats: &RobustnessStats) -> u64 {
    stats.quarantined_shards + u64::from(stats.world_killed) + stats.channel.retry_exhaustions
}

/// The headline acceptance criterion: all four workloads, fault rate
/// 1e-3 (and the rest of the sweep), zero false kills, observations
/// bit-identical to the fault-free run.
#[test]
fn faulted_workloads_are_observation_identical_with_zero_false_kills() {
    for (name, trace) in workloads() {
        let (ref_checksum, ref_blocks, ref_stats) = replay(&trace, None);
        assert_eq!(false_kills(&ref_stats), 0, "{name}: fault-free run");
        for (i, &rate) in FAULT_RATE_SWEEP.iter().enumerate().skip(1) {
            let plan = FaultPlanConfig::uniform(0xFA00 + i as u64, rate);
            let (checksum, blocks, stats) = replay(&trace, Some(plan));
            assert_eq!(blocks, ref_blocks, "{name} rate {rate}: blocks served");
            assert_eq!(
                checksum, ref_checksum,
                "{name} rate {rate}: observations must be bit-identical"
            );
            assert_eq!(false_kills(&stats), 0, "{name} rate {rate}: false kills");
            if rate >= 1e-3 {
                assert!(
                    stats.channel.faults_injected > 0,
                    "{name} rate {rate}: campaign must actually inject faults"
                );
                assert_eq!(
                    stats.channel.faults_absorbed, stats.channel.faults_injected,
                    "{name} rate {rate}: every injected transient must be absorbed"
                );
            }
        }
    }
}

/// A campaign-scheduled tamper mid-trace quarantines the owner shard
/// only; the rest of the trace keeps serving on healthy shards and the
/// platform stays alive.
#[test]
fn scheduled_tamper_quarantines_owner_shard_only_mid_trace() {
    let trace = engine_pattern(EnginePattern::Random, 8_000, FOOTPRINT, 0x51);
    let event = tamper_schedule(&trace, 1, 0xFA17)[0];
    let engine = ShardedEngine::new(ToleoConfig::small(), SHARDS, [0x42u8; 48]).unwrap();
    let tampered_shard = engine.shard_of_addr(event.addr);

    let mut blocks = 0u64;
    let mut tampered = false;
    let mut detected = false;
    let mut healthy_after_detection = 0u64;
    let mut refused_after_detection = 0u64;
    for op in &trace.ops {
        if !tampered && blocks == event.at_op {
            engine.with_adversary(event.addr, |dram| dram.corrupt_data(event.addr, 11, 0x5a));
            tampered = true;
        }
        let addr = match op {
            Op::Write(addr) | Op::Read(addr) => *addr,
            Op::Compute(_) => continue,
        };
        blocks += 1;
        let result = match op {
            Op::Write(_) => engine.write(addr, &[blocks as u8; 64]),
            Op::Read(_) => engine.read(addr).map(|_| ()),
            Op::Compute(_) => unreachable!(),
        };
        match result {
            Ok(()) => {
                if detected {
                    healthy_after_detection += 1;
                    assert_ne!(
                        engine.shard_of_addr(addr),
                        tampered_shard,
                        "quarantined shard must refuse, not serve"
                    );
                }
            }
            Err(ToleoError::IntegrityViolation { address }) => {
                assert!(tampered, "no violation before the tamper event");
                assert!(!detected, "only the detecting access reports the violation");
                assert_eq!(address, event.addr);
                detected = true;
            }
            Err(ToleoError::ShardQuarantined { shard, .. }) => {
                assert!(detected, "refusals only after detection");
                assert_eq!(shard, tampered_shard);
                refused_after_detection += 1;
            }
            Err(other) => panic!("unexpected error mid-trace: {other}"),
        }
    }

    assert!(
        detected,
        "the corrupted block must be re-accessed and detected"
    );
    assert!(
        !engine.is_killed(),
        "one tampered shard must not kill the world"
    );
    assert!(engine.is_shard_quarantined(tampered_shard));
    assert!(
        healthy_after_detection > 0,
        "healthy shards must keep serving after the quarantine"
    );
    // The random trace revisits the hot quarantined shard.
    assert!(refused_after_detection > 0, "trace must exercise refusals");
    let stats = engine.robustness_stats();
    assert!(!stats.world_killed);
    assert_eq!(stats.quarantined_shards, 1);
}

/// Device unreachability (retry budget exhausted) is not a shard-local
/// event: it escalates past quarantine to the world-kill, end to end.
#[test]
fn retry_budget_exhaustion_escalates_to_world_kill() {
    let mut plan = FaultPlanConfig::uniform(9, 0.0);
    plan.update.timeout = 1.0; // the device link never delivers an UPDATE
    let policy = RetryPolicy {
        max_attempts: 3,
        ..RetryPolicy::default()
    };
    let engine = ShardedEngine::new_with_robustness(
        ToleoConfig::small(),
        SHARDS,
        [0x42u8; 48],
        Some(plan),
        policy,
    )
    .unwrap();

    match engine.write(0, &[1u8; 64]) {
        Err(ToleoError::DeviceUnavailable { attempts: 3, .. }) => {}
        other => panic!("expected DeviceUnavailable after 3 attempts, got {other:?}"),
    }
    assert!(
        engine.is_killed(),
        "an unreachable freshness device fails the world closed"
    );
    let stats = engine.robustness_stats();
    assert!(stats.world_killed);
    assert!(stats.channel.retry_exhaustions >= 1);
    // Every shard — including ones that never saw the fault — refuses.
    for shard in 0..SHARDS as u64 {
        let addr = shard * 4096;
        assert!(
            matches!(
                engine.read(addr),
                Err(ToleoError::IntegrityViolation { .. })
            ),
            "shard {shard} must be dead after the world-kill"
        );
    }
}

/// A replay attack mounted while the victim's device link is degraded
/// (nearly every READ suffers a dropped response, so detection happens
/// inside a retry window) is still detected, and detection still
/// quarantines exactly the victim shard. Retry absorption and integrity
/// enforcement compose; they never mask each other.
#[test]
fn replay_attack_inside_a_retry_window_is_detected_and_quarantined() {
    let mut plan = FaultPlanConfig::uniform(0xC0FFEE, 0.0);
    plan.read.dropped = 0.9;
    plan.read.duplicated = 0.05;
    let engine = ShardedEngine::new_with_robustness(
        ToleoConfig::small(),
        SHARDS,
        [0x42u8; 48],
        Some(plan),
        RetryPolicy::default(),
    )
    .unwrap();

    let victim = 2 * 4096u64;
    let shard = engine.shard_of_addr(victim);
    engine.write(victim, &[0xA1u8; 64]).unwrap();
    assert_eq!(engine.read(victim).unwrap(), [0xA1u8; 64]);

    // Capture the stale capsule, let the victim overwrite, replay it.
    let stale = engine.with_adversary(victim, |dram| dram.capture(victim));
    engine.write(victim, &[0xB2u8; 64]).unwrap();
    engine.with_adversary(victim, |dram| dram.replay(&stale));

    assert!(
        matches!(
            engine.read(victim),
            Err(ToleoError::IntegrityViolation { address }) if address == victim
        ),
        "stale capsule must fail the freshness check despite link faults"
    );
    assert!(engine.is_shard_quarantined(shard));
    assert!(
        !engine.is_killed(),
        "replay detection quarantines, never world-kills"
    );

    let stats = engine.robustness_stats();
    assert!(
        stats.channel.replayed_responses > 0,
        "the campaign must actually have opened retry windows (dropped responses)"
    );
    assert!(stats.channel.retries > 0);
    assert_eq!(stats.quarantined_shards, 1);

    // Healthy shards still serve through their own degraded links.
    for page in [0u64, 1, 3] {
        let addr = page * 4096;
        engine.write(addr, &[page as u8 + 1; 64]).unwrap();
        assert_eq!(engine.read(addr).unwrap(), [page as u8 + 1; 64]);
    }
    // The quarantined shard refuses; its frozen forensic record stays
    // with the shard.
    assert_eq!(
        engine.read(victim),
        Err(ToleoError::ShardQuarantined {
            shard,
            address: victim
        })
    );
    assert!(
        engine.per_shard_stats()[shard].reads > 0,
        "the shard keeps its frozen counters"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observation-equivalence under response-delivery faults: a fault
    /// plan that drops and duplicates responses (the faults where a
    /// naive retry would double-apply) yields exactly the fault-free
    /// engine's reads, device state, and counters, for arbitrary op
    /// sequences — the idempotency guard, as a property.
    #[test]
    fn dropped_and_duplicated_responses_are_observation_equivalent(
        seed in any::<u64>(),
        dropped_pct in 0u32..45,
        duplicated_pct in 0u32..45,
        ops in proptest::collection::vec((0u64..96, any::<u8>(), any::<bool>()), 1..140),
    ) {
        let dropped = f64::from(dropped_pct) / 100.0;
        let duplicated = f64::from(duplicated_pct) / 100.0;
        let mut plan = FaultPlanConfig::uniform(seed, 0.0);
        for rates in [&mut plan.read, &mut plan.update, &mut plan.reset] {
            rates.dropped = dropped;
            rates.duplicated = duplicated;
        }
        let mut faulted = ProtectionEngine::try_new_with_robustness(
            ToleoConfig::small(),
            [0x7Cu8; 48],
            Some(plan),
            RetryPolicy::default(),
        )
        .unwrap();
        let mut clean =
            ProtectionEngine::try_new(ToleoConfig::small(), [0x7Cu8; 48]).unwrap();

        for (block, fill, is_write) in ops {
            let addr = block * 64;
            if is_write {
                faulted.write(addr, &[fill; 64]).unwrap();
                clean.write(addr, &[fill; 64]).unwrap();
            } else {
                let a = faulted.read(addr).unwrap();
                let b = clean.read(addr).unwrap();
                prop_assert_eq!(a, b);
            }
        }

        // Retries must never re-issue an operation to the device.
        prop_assert_eq!(faulted.device_stats(), clean.device_stats());
        prop_assert_eq!(faulted.stats().reads, clean.stats().reads);
        prop_assert_eq!(faulted.stats().writes, clean.stats().writes);
        let ch = faulted.channel_stats();
        prop_assert_eq!(ch.faults_absorbed, ch.faults_injected);
        prop_assert_eq!(ch.retry_exhaustions, 0);
        prop_assert!(!faulted.is_killed());
    }
}
