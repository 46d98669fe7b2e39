//! The CI model-check surface: proves every injected bug is caught by
//! a search of the protocol's whole state space, and replays every
//! ordering of the model's three calls against a real
//! `toleo_core::sharded::ShardedEngine` so the model cannot drift from
//! the code it stands for. (The clean protocol's own state counts are
//! pinned beside the model, in `src/handshake.rs`.) Nothing here is
//! sampled: a failure reproduces by running the test again.

use std::collections::HashSet;
use toleo_core::channel::RetryPolicy;
use toleo_core::config::{ToleoConfig, PAGE_BYTES};
use toleo_core::error::ToleoError;
use toleo_core::sharded::ShardedEngine;
use toleo_model::handshake::{CALLER, HELPER, PEER, PEER_OPS, RECOVERER, RECOVERY_BUDGET};
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
        // Only a kill the helper flags is left for the peer to finish.
        (
            Bug::FinishBeforeHelperReturns,
            SPACE_PASSES,
            Some(&["never finished"]),
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

/// Shard B is shard 1 of the real engine (odd pages), shard A shard 0:
/// the upper of the peer's two runs, the helper's half, is B's.
const REAL_B: usize = 1;

fn page(p: u64) -> u64 {
    p * PAGE_BYTES as u64
}

/// A real 2-shard engine in the model's initial state: one tampered
/// block and two intact ones resident on B, the peer's run resident on
/// A, and — when `budget_spent` — B's whole recovery budget consumed
/// first. Returns the engine with `(intact_b, tampered_b, caller_b)`.
fn real_engine(budget_spent: bool) -> (ShardedEngine, [u64; 3]) {
    let engine = ShardedEngine::new_with_robustness(
        ToleoConfig::small(),
        2,
        [0x3du8; 48],
        None,
        RetryPolicy::default(),
    )
    .expect("engine");
    let [intact, tampered, caller] = [page(1), page(3), page(5)];
    assert_eq!(engine.shard_of_addr(intact), REAL_B);
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
        engine.write(page(2 * k), &[0x11; 64]).expect("write");
    }
    tamper();
    (engine, [intact, tampered, caller])
}

/// Runs call `tid` on the real engine.
fn real_call(engine: &ShardedEngine, addrs: [u64; 3], tid: usize) -> Outcome {
    let [intact, tampered, caller] = addrs;
    let of_drain = |result: Result<(), ToleoError>| match result {
        Ok(()) => Outcome::Served,
        Err(ToleoError::ShardQuarantined { .. }) => Outcome::ShardQuarantined,
        Err(ToleoError::IntegrityViolation { .. }) => Outcome::IntegrityViolation,
        Err(other) => panic!("call {tid}: unmodelled error {other:?}"),
    };
    match tid {
        CALLER => of_drain(engine.read(caller).map(|_| ())),
        PEER => {
            let mut batch: Vec<u64> = (0..u64::from(PEER_OPS)).map(|k| page(2 * k)).collect();
            batch.extend([intact, tampered]);
            of_drain(engine.read_batch(&batch).map(|_| ()))
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

/// Every state the model ends in when the threads `tids`, and nobody
/// else, run until each is done — under every interleaving of them.
fn run_call(from: &Handshake, tids: &[usize]) -> Vec<Handshake> {
    let mut seen = HashSet::new();
    let mut stack = vec![from.clone()];
    let mut ends = Vec::new();
    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        let mut done = true;
        for &tid in tids {
            let mut next = state.clone();
            match next.step(tid) {
                Step::Done => {}
                Step::Blocked => done = false,
                Step::Ran => {
                    done = false;
                    stack.push(next);
                }
            }
        }
        if done {
            ends.push(state);
        }
    }
    ends
}

/// The drift guard: every ordering of the model's three calls — a
/// single op on B, `recover_shard(B)`, and the peer's batch over A and
/// B with its upper half offered to the helper — budget spent and
/// unspent, on one thread against a real `ShardedEngine`. The peer's
/// batch really runs beside the helper, so the model runs it under every
/// interleaving of peer and helper: each real outcome must be one the
/// model reaches, and the real final state one it ends in along those
/// outcomes. The model polls the kill flag once per run here, as the
/// real `KILL_POLL_OPS` does.
#[test]
fn model_and_real_engine_agree_on_every_critical_section_ordering() {
    assert_eq!(RECOVERY_BUDGET, toleo_core::sharded::RECOVERY_BUDGET);
    let calls = [CALLER, PEER, RECOVERER];
    let mut orders = Vec::new();
    for a in calls {
        for b in calls.into_iter().filter(|&b| b != a) {
            let c = calls
                .into_iter()
                .find(|&c| c != a && c != b)
                .expect("three calls");
            orders.push([a, b, c]);
        }
    }
    let chunk = u8::try_from(toleo_core::sharded::KILL_POLL_OPS).expect("fits");
    assert!(chunk >= PEER_OPS);
    for budget_spent in [false, true] {
        for order in &orders {
            let mut states = vec![Handshake::new(Bug::None, budget_spent).with_chunk(chunk)];
            let (engine, addrs) = real_engine(budget_spent);
            let base = engine.robustness_stats().ops_served;
            for &tid in order {
                let real = real_call(&engine, addrs, tid);
                let tids: &[usize] = if tid == PEER { &[PEER, HELPER] } else { &[tid] };
                states = states
                    .iter()
                    .flat_map(|state| run_call(state, tids))
                    .filter(|state| state.outcome(tid) == real)
                    .collect();
                assert!(
                    !states.is_empty(),
                    "call {tid} returned {real:?}, which the model never does, in {order:?}, \
                     budget_spent={budget_spent}"
                );
            }
            let rs = engine.robustness_stats();
            let real = FinalState {
                killed: engine.is_killed(),
                quarantined_shards: rs.quarantined_shards,
                generation: rs.recovery.recoveries,
                budget_kills: rs.recovery.budget_kills,
                ops_served: rs.ops_served - base,
            };
            let ends: HashSet<FinalState> = states
                .into_iter()
                .map(|mut state| {
                    assert_eq!(state.run_thread(HELPER), Step::Done);
                    state.check_final().expect("a schedule is a schedule");
                    state.final_state()
                })
                .collect();
            assert!(
                ends.contains(&real),
                "{order:?}, budget_spent={budget_spent}: the real engine ended in {real:?}, \
                 the model in one of {ends:?}"
            );
        }
    }
}
