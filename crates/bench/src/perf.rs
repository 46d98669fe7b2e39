//! The machinery behind the `reproduce` harness's two robustness
//! experiments: the availability sweep with its quarantine containment
//! run, and the adversary-campaign recovery experiment.
//!
//! What they gate is correctness — zero false kills, bit-identical
//! observations, one frozen shard, detection within the kill poll,
//! every step re-admitted — asserted here and gated on every run. Every
//! run walks its trace once, on one thread, through an engine built with
//! an explicit fault plan, so every cell is an exact count that the
//! committed `expected/` reference pins. There is no clock in this
//! module: a wall-clock number comes from `benchmark/`'s paired
//! parent/change compare (its `siege` workload clocks retries,
//! quarantine and `recover_shard`).

// audit: allow-file(panic, perf harness: abort on setup/serialization failure rather than emit bad data)

use std::collections::{BTreeMap, HashSet};
use toleo_core::channel::{ChannelStats, RetryPolicy};
use toleo_core::config::ToleoConfig;
use toleo_core::error::ToleoError;
use toleo_core::fault::FaultPlanConfig;
use toleo_core::sharded::ShardedEngine;
use toleo_workloads::campaign::{
    same_shard_campaign, tamper_schedule, TamperEvent, FAULT_RATE_SWEEP,
};
use toleo_workloads::concurrent::multi_tenant;
use toleo_workloads::pattern::{engine_pattern, EnginePattern};
use toleo_workloads::{Op, Trace};

/// Default memory operations replayed per workload.
pub const DEFAULT_OPS: u64 = 200_000;
/// Footprint each pattern is confined to (1024 pages).
pub const FOOTPRINT_BYTES: u64 = 4 << 20;
/// Shard count of every engine the experiments build.
pub const SHARDS: usize = 8;
/// Tenants in the multi-tenant workload (each runs its pattern in its own
/// footprint window).
pub const TENANTS: usize = 8;
/// Tamper steps the recovery campaign mounts against one shard: two
/// full quarantine → scrub → re-key → re-admit cycles, inside the
/// default per-shard recovery budget so the ladder never escalates.
pub const RECOVERY_CAMPAIGN_STEPS: usize = 2;

/// The device links the recovery campaign runs over, as `(label,
/// TOLEO_FAULT_PLAN spec)`: a clean link, and the aggressive chaos plan
/// (5% per-op faults, a periodic burst window multiplying it 8x) that the
/// CI `chaos-smoke` job arms for the test suites.
pub const RECOVERY_LINKS: [(&str, Option<&str>); 2] = [
    ("clean", None),
    ("chaos", Some("seed=41,rate=5e-2,burst=4096:64:8")),
];

/// One fault rate of a workload's availability curve.
pub struct AvailabilityPoint {
    /// Injected transient-fault rate.
    pub fault_rate: f64,
    /// Blocks replayed.
    pub blocks: u64,
    /// Device-link counters summed over every shard: faults injected and
    /// absorbed, retries, modeled backoff.
    pub link_stats: ChannelStats,
    /// Whether the run's observation checksum is bit-identical to the
    /// fault-free run's (retries must be invisible to the application).
    pub observations_match: bool,
    /// Shard quarantines + world-kills during the run; any non-zero value
    /// is a false kill, since injected transients are never integrity
    /// failures.
    pub false_kills: u64,
}

/// One workload's availability curve over [`FAULT_RATE_SWEEP`].
pub struct AvailabilityWorkload {
    /// Workload name.
    pub workload: &'static str,
    /// One point per fault rate.
    pub points: Vec<AvailabilityPoint>,
}

/// The one-shard-tampered-under-traffic experiment.
pub struct QuarantineExperiment {
    /// Workload name.
    pub workload: &'static str,
    /// Trace op index at which the tamper was mounted.
    pub tamper_at_op: u64,
    /// Shard owning the tampered address.
    pub tampered_shard: usize,
    /// Shards quarantined by the end of the run (must be 1).
    pub quarantined_shards: u64,
    /// Whether the engine world-killed (must be false).
    pub world_killed: bool,
    /// Ops served by healthy shards after the quarantine engaged.
    pub healthy_blocks: u64,
    /// Trace ops refused with `ShardQuarantined` after detection.
    pub refused_blocks: u64,
    /// Total ops the engine served.
    pub ops_served_total: u64,
    /// Ops served when the quarantine engaged.
    pub ops_at_quarantine: u64,
}

/// One faulted replay's raw outcome.
pub struct FaultedRun {
    /// Blocks replayed.
    pub blocks: u64,
    /// FNV fold of every read byte: two runs match iff the application
    /// observed bit-identical data.
    pub checksum: u64,
    /// Engine robustness counters after the run.
    pub stats: toleo_core::sharded::RobustnessStats,
}

/// Replays `trace` single-op through a sharded engine under `plan`.
pub fn replay_sharded_faulted(
    trace: &Trace,
    cfg: &ToleoConfig,
    plan: Option<FaultPlanConfig>,
) -> FaultedRun {
    let engine = engine_with_plan(cfg, plan);
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
    FaultedRun {
        blocks,
        checksum,
        stats: engine.robustness_stats(),
    }
}

/// The four workload traces the availability sweep replays, with their
/// tuned configs.
pub fn availability_workloads(ops: u64) -> Vec<(&'static str, Trace, ToleoConfig)> {
    let mut workloads: Vec<(&'static str, Trace, ToleoConfig)> = EnginePattern::all()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                p.name(),
                engine_pattern(*p, ops, FOOTPRINT_BYTES, 0xBE2C + i as u64),
                engine_cfg(Some(*p)),
            )
        })
        .collect();
    workloads.push((
        "multi-tenant",
        multi_tenant(
            TENANTS,
            ops / TENANTS as u64,
            FOOTPRINT_BYTES / TENANTS as u64,
            0xBE2F,
        ),
        engine_cfg(None),
    ));
    workloads
}

/// The availability sweep: each workload replayed under every fault rate
/// of [`FAULT_RATE_SWEEP`] through the fault-injected device channel,
/// counting what the link injected and the retries that absorbed it, and
/// proving the transients were fully absorbed (observations identical to
/// the fault-free run, zero kills).
pub fn run_availability(ops: u64) -> Vec<AvailabilityWorkload> {
    availability_workloads(ops)
        .into_iter()
        .map(|(name, trace, cfg)| {
            let mut points: Vec<AvailabilityPoint> = Vec::with_capacity(FAULT_RATE_SWEEP.len());
            let mut reference: Option<(u64, u64)> = None;
            for (i, &rate) in FAULT_RATE_SWEEP.iter().enumerate() {
                let plan = if rate > 0.0 {
                    // Per-point seeds so the curve's rates don't share one
                    // fault stream.
                    Some(FaultPlanConfig::uniform(0xFA01 + i as u64, rate))
                } else {
                    None
                };
                let run = replay_sharded_faulted(&trace, &cfg, plan);
                let (ref_blocks, ref_checksum) =
                    *reference.get_or_insert((run.blocks, run.checksum));
                assert_eq!(run.blocks, ref_blocks, "{name}: faulted run lost ops");
                let false_kills = run.stats.quarantined_shards
                    + u64::from(run.stats.world_killed)
                    + run.stats.channel.retry_exhaustions;
                assert_eq!(false_kills, 0, "{name}: transients at rate {rate} killed");
                points.push(AvailabilityPoint {
                    fault_rate: rate,
                    blocks: run.blocks,
                    link_stats: run.stats.channel,
                    observations_match: run.checksum == ref_checksum,
                    false_kills,
                });
            }
            AvailabilityWorkload {
                workload: name,
                points,
            }
        })
        .collect()
}

/// Tamper one shard mid-traffic (at a `tamper_schedule` point) and count
/// what the remaining shards still serve: the quarantine containment
/// the availability story rests on.
pub fn run_quarantine_experiment(ops: u64) -> QuarantineExperiment {
    let trace = engine_pattern(EnginePattern::Random, ops, FOOTPRINT_BYTES, 0xBE2D);
    let cfg = engine_cfg(Some(EnginePattern::Random));
    let engine = engine_with_plan(&cfg, None);
    let event = tamper_schedule(&trace, 1, 0xFA17)
        .first()
        .copied()
        .expect("random trace has writes to tamper");
    let tampered_shard = engine.shard_of_addr(event.addr);

    let mut blocks = 0u64;
    let mut healthy_blocks = 0u64;
    let mut refused_blocks = 0u64;
    let mut tampered = false;
    for op in &trace.ops {
        let addr = match op {
            Op::Write(addr) | Op::Read(addr) => *addr,
            Op::Compute(_) => continue,
        };
        if !tampered && blocks == event.at_op {
            // Mount the corruption, then act as the victim's next access
            // to the block: detection quarantines the owning shard.
            engine.with_adversary(event.addr, |dram| dram.corrupt_data(event.addr, 11, 0x5a));
            match engine.read(event.addr) {
                Err(ToleoError::IntegrityViolation { .. }) => {}
                other => panic!("tamper must be detected, got {other:?}"),
            }
            assert!(engine.is_shard_quarantined(tampered_shard));
            tampered = true;
        }
        let result = match op {
            Op::Write(_) => engine.write(addr, &[(addr >> 6) as u8 ^ blocks as u8; 64]),
            Op::Read(addr) => engine.read(*addr).map(|_| ()),
            Op::Compute(_) => unreachable!(),
        };
        blocks += 1;
        match result {
            Ok(()) => {
                if tampered {
                    healthy_blocks += 1;
                }
            }
            Err(ToleoError::ShardQuarantined { shard, .. }) => {
                assert_eq!(shard, tampered_shard, "only the tampered shard refuses");
                assert!(tampered);
                refused_blocks += 1;
            }
            Err(e) => panic!("unexpected error under quarantine: {e}"),
        }
    }
    assert!(!engine.is_killed(), "a tamper must never world-kill");
    assert_eq!(engine.quarantined_shard_count(), 1);
    let rs = engine.robustness_stats();
    QuarantineExperiment {
        workload: "random",
        tamper_at_op: event.at_op,
        tampered_shard,
        quarantined_shards: rs.quarantined_shards,
        world_killed: rs.world_killed,
        healthy_blocks,
        refused_blocks,
        ops_served_total: rs.ops_served,
        ops_at_quarantine: rs.ops_at_last_quarantine,
    }
}

/// One mounted adversary step of the recovery campaign, in victim ops:
/// detection latency, then a fixed outage window served while the shard
/// is still quarantined, then the inline recovery.
pub struct RecoveryStepResult {
    /// Index of the step in the campaign.
    pub step: usize,
    /// The shard the step attacked.
    pub shard: usize,
    /// Victim ops executed when the corruption was mounted.
    pub mounted_at_op: u64,
    /// Victim ops between mounting and the quarantine verdict. Bounded
    /// by the engine's kill-poll interval: the victim's periodic
    /// integrity poll fires if its own traffic has not touched the
    /// tampered block by then.
    pub detection_latency_ops: u64,
    /// Trace ops healthy shards served during the outage window.
    pub healthy_blocks_during_outage: u64,
    /// Trace ops the quarantined shard refused with `ShardQuarantined`
    /// during the outage window.
    pub refused_blocks_during_outage: u64,
    /// Blocks the scrub classified lost.
    pub blocks_lost: u64,
    /// The shard's new key generation after the re-key.
    pub generation: u64,
    /// Pages the scrub walked.
    pub pages_scrubbed: u64,
}

/// One full run of the adversary campaign over one device link.
pub struct CampaignRun {
    /// Link label (see [`RECOVERY_LINKS`]).
    pub link: &'static str,
    /// Per-step measurements, in mount order.
    pub steps: Vec<RecoveryStepResult>,
    /// Victim ops attempted over the whole run.
    pub blocks: u64,
    /// Reads that surfaced a lost block as `PageLost`.
    pub lost_reads_surfaced: u64,
    /// `PageLost` reads on addresses the campaign never attacked — any
    /// non-zero value means the lost-block ledger over-approximates.
    pub lost_reads_unaccounted: u64,
    /// Reads of never-attacked addresses that were not bit-identical to
    /// the victim's shadow model (including the post-run sweep).
    pub observation_mismatches: u64,
    /// Quarantines/kills beyond the mounted campaign: leftover
    /// quarantined shards, world-kill, retry exhaustions, budget kills
    /// and unexpected per-op errors.
    pub false_kills: u64,
    /// Whether the engine world-killed.
    pub world_killed: bool,
    /// Recovery-plane counters at the end of the run.
    pub recovery: toleo_core::sharded::RecoveryStats,
    /// Device-link counters over the whole run: the live engines' plus
    /// the forensic snapshot of every engine a recovery replaced.
    pub link_stats: ChannelStats,
}

/// The recovery experiment: a multi-step tamper campaign against one
/// shard under victim traffic, each step driven through the full
/// quarantine → scrub → re-key → re-admit cycle, once per link of
/// [`RECOVERY_LINKS`].
pub struct RecoveryExperiment {
    /// Workload name.
    pub workload: &'static str,
    /// Shard count.
    pub shards: usize,
    /// Per-shard recovery budget in force.
    pub recovery_budget: u64,
    /// The victim's integrity-poll bound on detection latency — and the
    /// length of the outage window — in ops.
    pub kill_poll_ops: u64,
    /// One campaign run per link, in [`RECOVERY_LINKS`] order.
    pub runs: Vec<CampaignRun>,
    /// Whether every step on every link was detected within the poll
    /// bound.
    pub detection_within_poll_bound: bool,
    /// Whether every mounted step ended with the shard re-admitted.
    pub readmitted_all: bool,
}

/// The victim of a recovery campaign: serves trace ops against the
/// sharded engine while keeping a shadow model of every write, so
/// observations can be checked bit-identical across quarantine,
/// recovery and re-admission.
struct CampaignVictim {
    /// Expected plaintext per written address (ordered, so the post-run
    /// sweep issues the same reads in the same order on every run).
    shadow: BTreeMap<u64, [u8; 64]>,
    /// Addresses the campaign attacked whose blocks are (or may be)
    /// marked lost; a `PageLost` read outside this set is unaccounted.
    lost: HashSet<u64>,
    /// Victim memory ops attempted so far (drives the fill pattern).
    blocks: u64,
    /// Ops refused with `ShardQuarantined`.
    refused: u64,
    /// Reads not bit-identical to the shadow model.
    mismatches: u64,
    /// Reads that surfaced `PageLost` on an attacked address.
    lost_reads: u64,
    /// Reads that surfaced `PageLost` on a never-attacked address.
    lost_reads_unaccounted: u64,
    /// Errors outside the quarantine/lost vocabulary.
    unexpected: u64,
}

impl CampaignVictim {
    fn new() -> Self {
        CampaignVictim {
            shadow: BTreeMap::new(),
            lost: HashSet::new(),
            blocks: 0,
            refused: 0,
            mismatches: 0,
            lost_reads: 0,
            lost_reads_unaccounted: 0,
            unexpected: 0,
        }
    }

    /// Executes one victim memory op; returns whether it was served.
    fn serve(&mut self, engine: &ShardedEngine, op: Op) -> bool {
        let result = match op {
            Op::Write(addr) => {
                let fill = (addr >> 6) as u8 ^ self.blocks as u8;
                engine.write(addr, &[fill; 64]).map(|()| {
                    // A fresh write repopulates a lost block.
                    self.shadow.insert(addr, [fill; 64]);
                    self.lost.remove(&addr);
                })
            }
            Op::Read(addr) => engine.read(addr).map(|block| {
                if self
                    .shadow
                    .get(&addr)
                    .is_some_and(|expected| block != *expected)
                {
                    self.mismatches += 1;
                }
            }),
            Op::Compute(_) => return true,
        };
        self.blocks += 1;
        match (result, op) {
            (Ok(()), _) => return true,
            (Err(ToleoError::ShardQuarantined { .. }), _) => self.refused += 1,
            (Err(ToleoError::PageLost { .. }), Op::Read(addr)) if self.lost.contains(&addr) => {
                self.lost_reads += 1;
            }
            (Err(ToleoError::PageLost { .. }), Op::Read(_)) => self.lost_reads_unaccounted += 1,
            (Err(_), _) => self.unexpected += 1,
        }
        false
    }
}

/// Runs one adversary campaign over `trace`, walking it exactly once on
/// one thread: every step is mounted, detected, left quarantined for a
/// fixed outage window of victim traffic, then recovered inline — the
/// victim acting as operator, as `benchmark/`'s `siege` client does.
fn run_campaign(
    trace: &Trace,
    cfg: &ToleoConfig,
    campaign: &[TamperEvent],
    (link, plan): (&'static str, Option<&str>),
) -> CampaignRun {
    let plan = plan.map(|spec| FaultPlanConfig::parse(spec).expect("campaign fault plan"));
    let engine = engine_with_plan(cfg, plan);
    let poll_bound = toleo_core::sharded::KILL_POLL_OPS as u64;
    let mem_ops: Vec<Op> = trace
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Read(_) | Op::Write(_)))
        .copied()
        .collect();
    assert!(!mem_ops.is_empty(), "campaign trace has no memory ops");

    let mut victim = CampaignVictim::new();
    let mut steps: Vec<RecoveryStepResult> = Vec::new();
    let mut link_stats = ChannelStats::default();
    let mut queue = campaign.iter().copied().peekable();
    let mut cursor = 0usize;
    // A step still queued when the trace runs out is already due (the
    // victim has attempted at least `cursor` ops and every `at_op` lies
    // inside the trace), so it mounts with empty detection and outage
    // windows and the loop terminates.
    while cursor < mem_ops.len() || queue.peek().is_some() {
        if let Some(step) = queue.next_if(|step| victim.blocks >= step.at_op) {
            let addr = step.addr;
            let shard = engine.shard_of_addr(addr);
            let mounted_at_op = victim.blocks;
            engine.with_adversary(addr, |dram| dram.corrupt_data(addr, 11, 0x5a));
            // Victim traffic keeps flowing until the victim's own
            // traffic touches the tampered block or its periodic
            // integrity poll fires — whichever comes first bounds the
            // detection latency by the kill-poll interval.
            let mut since_mount = 0u64;
            while since_mount < poll_bound
                && cursor < mem_ops.len()
                && !matches!(mem_ops[cursor], Op::Read(a) | Op::Write(a) if a == addr)
            {
                victim.serve(&engine, mem_ops[cursor]);
                cursor += 1;
                since_mount += 1;
            }
            // The detecting access: integrity violation, shard
            // quarantined, world alive.
            match engine.read(addr) {
                Err(ToleoError::IntegrityViolation { .. }) => {}
                other => panic!("recovery campaign: tamper must be detected, got {other:?}"),
            }
            assert!(
                engine.is_shard_quarantined(shard),
                "detection must quarantine"
            );
            victim.blocks += 1;
            victim.lost.insert(addr);
            // The outage: the next `poll_bound` trace ops are issued
            // while the shard is still quarantined. Healthy shards
            // serve, the frozen one refuses; both are exact counts.
            let refused_before = victim.refused;
            let mut healthy = 0u64;
            let window_end = mem_ops.len().min(cursor + poll_bound as usize);
            while cursor < window_end {
                if victim.serve(&engine, mem_ops[cursor]) {
                    healthy += 1;
                }
                cursor += 1;
            }
            let outcome = engine
                .recover_shard(shard)
                .expect("recovery must re-admit the shard");
            assert!(
                !engine.is_shard_quarantined(shard),
                "shard must be re-admitted"
            );
            link_stats.merge(&outcome.forensic.channel);
            steps.push(RecoveryStepResult {
                step: steps.len(),
                shard,
                mounted_at_op,
                detection_latency_ops: since_mount,
                healthy_blocks_during_outage: healthy,
                refused_blocks_during_outage: victim.refused - refused_before,
                blocks_lost: outcome.blocks_lost,
                generation: outcome.generation,
                pages_scrubbed: outcome.pages_scrubbed,
            });
            continue;
        }
        victim.serve(&engine, mem_ops[cursor]);
        cursor += 1;
    }
    assert!(queue.peek().is_none(), "campaign steps left unmounted");

    // Post-run sweep: every surviving write must read back bit-identical;
    // every lost block must surface as PageLost, never as silent data.
    for (addr, expected) in &victim.shadow {
        match engine.read(*addr) {
            Ok(block) => {
                if block != *expected {
                    victim.mismatches += 1;
                }
            }
            Err(ToleoError::PageLost { .. }) if victim.lost.contains(addr) => {
                victim.lost_reads += 1;
            }
            Err(_) => victim.mismatches += 1,
        }
    }

    let rs = engine.robustness_stats();
    link_stats.merge(&rs.channel);
    let false_kills = engine.quarantined_shard_count()
        + u64::from(rs.world_killed)
        + link_stats.retry_exhaustions
        + rs.recovery.budget_kills
        + victim.unexpected;
    CampaignRun {
        link,
        steps,
        blocks: victim.blocks,
        lost_reads_surfaced: victim.lost_reads,
        lost_reads_unaccounted: victim.lost_reads_unaccounted,
        observation_mismatches: victim.mismatches,
        false_kills,
        world_killed: rs.world_killed,
        recovery: rs.recovery,
        link_stats,
    }
}

/// Builds the recovery campaign for `trace`: the first shard that
/// supports [`RECOVERY_CAMPAIGN_STEPS`] tamper steps with pairwise
/// distinct target addresses (each mount must land on live, not
/// already-lost, ciphertext).
pub fn recovery_campaign(trace: &Trace) -> Vec<TamperEvent> {
    (0..SHARDS)
        .find_map(|shard| {
            let mut seen = HashSet::new();
            let steps: Vec<TamperEvent> =
                same_shard_campaign(trace, SHARDS, shard, RECOVERY_CAMPAIGN_STEPS * 3, 0xFA19)
                    .into_iter()
                    .filter(|s| seen.insert(s.addr))
                    .take(RECOVERY_CAMPAIGN_STEPS)
                    .collect();
            (steps.len() == RECOVERY_CAMPAIGN_STEPS).then_some(steps)
        })
        .expect("some shard supports a full recovery campaign")
}

/// The recovery experiment: quarantine as a bounded outage, counted.
/// A same-shard tamper campaign is mounted under victim traffic, once
/// per link of [`RECOVERY_LINKS`]; every step must be detected within
/// the kill-poll bound, scrubbed, re-keyed and re-admitted while healthy
/// shards keep serving. Correctness (zero false kills, bit-identical
/// observations on never-attacked addresses, lost blocks surfacing as
/// typed errors) is asserted on every run.
pub fn run_recovery_experiment(ops: u64) -> RecoveryExperiment {
    let trace = engine_pattern(EnginePattern::Random, ops, FOOTPRINT_BYTES, 0xBE2D);
    let cfg = engine_cfg(Some(EnginePattern::Random));
    let campaign = recovery_campaign(&trace);

    let runs: Vec<CampaignRun> = RECOVERY_LINKS
        .iter()
        .map(|&link| {
            let run = run_campaign(&trace, &cfg, &campaign, link);
            assert_eq!(run.false_kills, 0, "recovery campaign false-killed");
            assert!(!run.world_killed, "recovery campaign world-killed");
            assert_eq!(run.observation_mismatches, 0, "observations diverged");
            assert_eq!(
                run.lost_reads_unaccounted, 0,
                "lost ledger over-approximated"
            );
            assert_eq!(run.steps.len(), campaign.len(), "campaign steps dropped");
            run
        })
        .collect();
    let kill_poll = toleo_core::sharded::KILL_POLL_OPS as u64;
    let all_steps = || runs.iter().flat_map(|run| &run.steps);
    let detection_within_poll_bound = all_steps().all(|s| s.detection_latency_ops <= kill_poll);
    let readmitted_all = all_steps().all(|s| s.generation as usize == s.step + 1);
    RecoveryExperiment {
        workload: "random",
        shards: SHARDS,
        recovery_budget: toleo_core::sharded::RECOVERY_BUDGET,
        kill_poll_ops: kill_poll,
        detection_within_poll_bound,
        readmitted_all,
        runs,
    }
}

/// An [`SHARDS`]-way engine over an explicit fault plan — never the
/// `TOLEO_FAULT_PLAN` environment variable, so a report is a function of
/// the tree alone. The channel's plan is salted per shard from the
/// engine seed, so one spec fans out to independent fault streams.
fn engine_with_plan(cfg: &ToleoConfig, plan: Option<FaultPlanConfig>) -> ShardedEngine {
    ShardedEngine::new_with_robustness(
        cfg.clone(),
        SHARDS,
        [0x42u8; 48],
        plan,
        RetryPolicy::default(),
    )
    .expect("sharded engine")
}

/// The Toleo config each engine pattern runs under (hot-reset gets a
/// fast-firing probabilistic reset so the re-encryption path dominates).
pub fn engine_cfg(pattern: Option<EnginePattern>) -> ToleoConfig {
    let mut cfg = ToleoConfig::small();
    if pattern == Some(EnginePattern::HotReset) {
        // Make the probabilistic stealth reset fire roughly every 256 hot
        // writes so the page re-encryption slab walk dominates.
        cfg.reset_log2 = 8;
    }
    cfg
}
