//! The CI model-check surface: proves every injected bug is caught by
//! a search of the protocol's whole state space, and replays every
//! ordering of the model's four critical sections against a real
//! `toleo_core::sharded::ShardedEngine` so the model cannot drift from
//! the code it stands for. (The clean protocol's own state counts are
//! pinned beside the model, in `src/handshake.rs`.) Nothing here is
//! sampled: a failure reproduces by running the test again.

use toleo_core::channel::RetryPolicy;
use toleo_core::config::{ToleoConfig, PAGE_BYTES};
use toleo_core::error::ToleoError;
use toleo_core::sharded::ShardedEngine;
use toleo_model::handshake::{CALLER, DETECTOR, PEER, PEER_OPS, RECOVERER, RECOVERY_BUDGET};
use toleo_model::{explore, Bug, FinalState, Handshake, Outcome, Program, Step};

/// What a complete search of one (bug, budget) cell must end in: an
/// error naming the broken rule (any one of the needles), or no error —
/// the bug cannot bite in that configuration, which is a finding about
/// the protocol and is pinned like the catches.
type Verdict = Option<&'static [&'static str]>;
const SPACE_PASSES: Verdict = None;

/// Every injected protocol bug must be caught, with a message naming
/// the broken rule — that is the evidence that the clean protocol
/// passing means something. Each row: the bug, the verdict with the
/// recovery budget unspent, the verdict with it spent.
#[test]
fn every_injected_bug_is_detected() {
    const BUDGET_RULES: Verdict = Some(&[
        // Whichever the search reaches first: the kill that never
        // comes, or the recovery it alone would have refused.
        "never reached the world-kill",
        "past its recovery budget",
    ]);
    let cases: [(Bug, Verdict, Verdict); 8] = [
        // Nothing below reads the kill flag or the budget until a
        // quarantine finds the budget spent.
        (Bug::SkipKillOnBudget, SPACE_PASSES, BUDGET_RULES),
        (
            Bug::SkipChunkPoll,
            SPACE_PASSES,
            Some(&["kill-poll bound exceeded"]),
        ),
        // With the budget spent the quarantine *is* the world-kill, and
        // the chunk poll refuses what the admission check would have.
        (
            Bug::SkipAdmissionCheck,
            Some(&["admission check bypassed"]),
            SPACE_PASSES,
        ),
        (
            Bug::AdmitBeforeLock,
            Some(&["admission check bypassed"]),
            SPACE_PASSES,
        ),
        (
            Bug::SkipFinishWorldKill,
            SPACE_PASSES,
            Some(&["never finished"]),
        ),
        (Bug::CheckAliveBeforeLock, SPACE_PASSES, BUDGET_RULES),
        (Bug::TripKillUnderLock, SPACE_PASSES, Some(&["deadlock"])),
        (
            Bug::SkipFlushOnFailure,
            Some(&["served-op flush skipped"]),
            Some(&["served-op flush skipped"]),
        ),
    ];
    for (bug, unspent, spent) in cases {
        assert!(
            unspent.or(spent).is_some(),
            "{bug:?} is caught in neither configuration"
        );
        for (budget_spent, verdict) in [(false, unspent), (true, spent)] {
            let found = explore(&Handshake::new(bug, budget_spent));
            let as_pinned = match (verdict, &found) {
                (None, Ok(_)) => true,
                (Some(needles), Err(err)) => needles.iter().any(|n| err.contains(n)),
                _ => false,
            };
            assert!(
                as_pinned,
                "{bug:?}, budget_spent={budget_spent}: pinned {verdict:?}, a complete search \
                 returned {found:?}"
            );
        }
    }
}

/// Shard B is shard 0 of the real engine (even pages), shard A shard 1.
const REAL_B: usize = 0;

fn page(p: u64) -> u64 {
    p * PAGE_BYTES as u64
}

/// A real 2-shard engine in the model's initial state: one tampered
/// block and two intact ones resident on B, a batch's worth on A, and —
/// when `budget_spent` — B's whole recovery budget consumed first.
/// Returns the engine with `(intact_b, tampered_b, caller_b)` addresses.
fn real_engine(budget_spent: bool) -> (ShardedEngine, [u64; 3]) {
    let engine = ShardedEngine::new_with_robustness(
        ToleoConfig::small(),
        2,
        [0x3du8; 48],
        None,
        RetryPolicy::default(),
    )
    .expect("engine");
    let [intact, tampered, caller] = [page(0), page(2), page(4)];
    let populate = |value: u8| {
        for addr in [intact, tampered, caller] {
            engine.write(addr, &[value; 64]).expect("write");
        }
    };
    let tamper = || engine.with_adversary(tampered, |dram| dram.corrupt_data(tampered, 0, 0x01));
    if budget_spent {
        for generation in 1..=RECOVERY_BUDGET {
            populate(generation as u8);
            tamper();
            assert!(engine.read(tampered).is_err());
            engine.recover_shard(REAL_B).expect("within budget");
        }
    }
    populate(0x77);
    for k in 0..u64::from(PEER_OPS) {
        engine.write(page(2 * k + 1), &[0x11; 64]).expect("write");
    }
    tamper();
    (engine, [intact, tampered, caller])
}

/// Runs critical section `tid` on the real engine.
fn real_section(engine: &ShardedEngine, addrs: [u64; 3], tid: usize) -> Outcome {
    let [intact, tampered, caller] = addrs;
    let of_drain = |result: Result<(), ToleoError>| match result {
        Ok(()) => Outcome::Served,
        Err(ToleoError::ShardQuarantined { .. }) => Outcome::ShardQuarantined,
        Err(ToleoError::IntegrityViolation { .. }) => Outcome::IntegrityViolation,
        Err(other) => panic!("section {tid}: unmodelled error {other:?}"),
    };
    match tid {
        DETECTOR => of_drain(engine.read_batch(&[intact, tampered]).map(|_| ())),
        CALLER => of_drain(engine.read(caller).map(|_| ())),
        PEER => {
            let addrs: Vec<u64> = (0..u64::from(PEER_OPS)).map(|k| page(2 * k + 1)).collect();
            of_drain(engine.read_batch(&addrs).map(|_| ()))
        }
        RECOVERER => match engine.recover_shard(REAL_B) {
            Ok(_) => Outcome::Recovered,
            Err(ToleoError::IntegrityViolation { .. }) => Outcome::IntegrityViolation,
            Err(ToleoError::InvalidConfig { .. }) => Outcome::NotQuarantined,
            Err(other) => panic!("recover_shard: unmodelled error {other:?}"),
        },
        _ => unreachable!(),
    }
}

/// All 24 orderings of the four critical sections.
fn orderings() -> Vec<[usize; 4]> {
    let mut out = Vec::new();
    for a in 0..4 {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                out.push([a, b, c, 6 - a - b - c]);
            }
        }
    }
    out
}

/// The drift guard: every ordering of the model's critical sections —
/// the detecting run on B, `recover_shard(B)`, a single op on B, a batch
/// on A — budget spent and unspent, replayed on one thread through both
/// the model and a real `ShardedEngine`. Each section's outcome and the
/// final state the engine's accessors report must be equal. (A
/// sequential replay cannot tell the model's chunk size from the real
/// `KILL_POLL_OPS`; the batch is `PEER_OPS` reads in both.)
#[test]
fn model_and_real_engine_agree_on_every_critical_section_ordering() {
    assert_eq!(RECOVERY_BUDGET, toleo_core::sharded::RECOVERY_BUDGET);
    for budget_spent in [false, true] {
        for order in orderings() {
            let mut model = Handshake::new(Bug::None, budget_spent);
            let (engine, addrs) = real_engine(budget_spent);
            let base = engine.robustness_stats().ops_served;
            for tid in order {
                assert_eq!(model.run_thread(tid), Step::Done);
                assert_eq!(
                    model.outcome(tid),
                    real_section(&engine, addrs, tid),
                    "section {tid} in {order:?}, budget_spent={budget_spent}"
                );
            }
            let rs = engine.robustness_stats();
            let real = FinalState {
                killed: engine.is_killed(),
                quarantined_shards: engine.quarantined_shard_count(),
                generation: rs.recovery.recoveries,
                budget_kills: rs.recovery.budget_kills,
                ops_served: rs.ops_served - base,
                ops_at_last_quarantine: rs.ops_at_last_quarantine - base,
            };
            assert_eq!(
                model.final_state(),
                real,
                "{order:?}, budget_spent={budget_spent}"
            );
            model
                .check_final()
                .expect("a sequential schedule is a schedule");
        }
    }
}
