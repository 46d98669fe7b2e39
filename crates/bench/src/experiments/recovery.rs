//! Recovery experiment: quarantine as a *bounded* outage. A same-shard
//! tamper campaign is mounted under victim traffic, once on a clean
//! device link and once under the chaos fault plan; every step must be
//! detected within the kill-poll bound, sit out a fixed outage window
//! while healthy shards keep serving, then be scrubbed, re-keyed and
//! re-admitted. Every cell is an exact count.
//!
//! The correctness invariants (zero false kills, no world-kill,
//! bit-identical observations on never-attacked addresses, lost blocks
//! surfacing only as typed `PageLost` errors) are asserted inside
//! [`crate::perf`] on every run; this report records them as gateable
//! metrics so a reproduce run fails loudly if they regress.

use super::RunCtx;
use crate::perf;
use crate::report::{Cell, Report, Table};

/// Runs the recovery campaign experiment.
pub fn run(ctx: &RunCtx) -> Report {
    let ops = ctx.perf_ops;
    let mut report = Report::new(
        "recovery",
        format!("Shard recovery under an adversary campaign ({ops} ops)"),
        ops,
    );

    let r = perf::run_recovery_experiment(ops);
    report.note(format!(
        "workload {}, {} shards, recovery budget {}; detection is bounded by the \
         {poll}-op kill poll and each outage window is the next {poll} trace ops, \
         issued while the shard is still quarantined",
        r.workload,
        r.shards,
        r.recovery_budget,
        poll = r.kill_poll_ops,
    ));
    for (link, plan) in perf::RECOVERY_LINKS {
        report.note(format!(
            "link `{link}`: fault plan {}",
            plan.map_or("none".to_string(), |spec| format!("`{spec}`"))
        ));
    }

    let mut steps = Table::new(
        "adversary campaign steps (tamper -> quarantine -> outage -> scrub -> re-key -> re-admit)",
        &[
            "link",
            "step",
            "shard",
            "mounted at op",
            "detection latency (ops)",
            "served by healthy shards during outage",
            "refused during outage",
            "pages scrubbed",
            "blocks lost",
            "generation",
        ],
    );
    for run in &r.runs {
        for s in &run.steps {
            steps.row(vec![
                Cell::text(run.link),
                Cell::int(s.step as u64),
                Cell::int(s.shard as u64),
                Cell::int(s.mounted_at_op),
                Cell::int(s.detection_latency_ops),
                Cell::int(s.healthy_blocks_during_outage),
                Cell::int(s.refused_blocks_during_outage),
                Cell::int(s.pages_scrubbed),
                Cell::int(s.blocks_lost),
                Cell::int(s.generation),
            ]);
        }
    }
    report.tables.push(steps);

    let mut totals = Table::new(
        "recovery plane and device link totals",
        &[
            "link",
            "victim ops",
            "recoveries",
            "pages scrubbed",
            "blocks scrubbed",
            "blocks lost",
            "still lost at end",
            "PageLost reads surfaced",
            "link faults",
            "absorbed",
            "retries",
            "backoff (virtual ns)",
            "world killed",
            "false kills",
        ],
    );
    for run in &r.runs {
        totals.row(vec![
            Cell::text(run.link),
            Cell::int(run.blocks),
            Cell::int(run.recovery.recoveries),
            Cell::int(run.recovery.pages_scrubbed),
            Cell::int(run.recovery.blocks_scrubbed),
            Cell::int(run.recovery.blocks_lost),
            Cell::int(run.recovery.blocks_still_lost),
            Cell::int(run.lost_reads_surfaced),
            Cell::int(run.link_stats.faults_injected),
            Cell::int(run.link_stats.faults_absorbed),
            Cell::int(run.link_stats.retries),
            Cell::int(run.link_stats.backoff_nanos),
            Cell::bool(run.world_killed),
            Cell::int(run.false_kills),
        ]);
    }
    report.tables.push(totals);

    // Gateable metrics, folded over both links.
    let sum = |f: fn(&perf::CampaignRun) -> u64| r.runs.iter().map(f).sum::<u64>() as f64;
    let detection_max = r
        .runs
        .iter()
        .flat_map(|run| &run.steps)
        .map(|s| s.detection_latency_ops)
        .max()
        .unwrap_or(0);
    report.metric("recoveries.completed", sum(|run| run.recovery.recoveries));
    report.metric("detection_latency.max_ops", detection_max as f64);
    report.metric("blocks_lost.total", sum(|run| run.recovery.blocks_lost));
    report.metric(
        "blocks_lost.still_lost",
        sum(|run| run.recovery.blocks_still_lost),
    );
    report.metric("false_kills.total", sum(|run| run.false_kills));
    report.metric("world_killed", sum(|run| u64::from(run.world_killed)));
    report.metric(
        "observations.mismatches",
        sum(|run| run.observation_mismatches),
    );
    report.metric(
        "pages_lost.unaccounted",
        sum(|run| run.lost_reads_unaccounted),
    );
    report.metric(
        "detection.within_poll_bound",
        u64::from(r.detection_within_poll_bound) as f64,
    );
    report.metric(
        "recovery.readmitted_all",
        u64::from(r.readmitted_all) as f64,
    );
    report
}
