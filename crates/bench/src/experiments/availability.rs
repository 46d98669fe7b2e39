//! Availability experiment: what the fault-injected device channel
//! injects and absorbs at each transient-fault rate, plus the
//! one-shard-tampered quarantine containment run. Every cell is an exact
//! count.
//!
//! The correctness invariants (zero false kills, bit-identical
//! observations at every fault rate, exactly one quarantined shard, no
//! world-kill) are asserted inside [`crate::perf`]; this report records
//! them as gateable metrics so a reproduce run fails loudly if they
//! regress.

use super::RunCtx;
use crate::perf;
use crate::report::{Cell, Report, Table};

/// Runs the availability sweep and the quarantine experiment.
pub fn run(ctx: &RunCtx) -> Report {
    let ops = ctx.perf_ops;
    let mut report = Report::new(
        "availability",
        format!("Availability under injected faults ({ops} ops/workload)"),
        ops,
    );

    let availability = perf::run_availability(ops);
    let mut sweep = Table::new(
        "injected transient faults absorbed by retry (8 shards, retry/backoff channel)",
        &[
            "workload",
            "fault rate",
            "blocks",
            "faults",
            "absorbed",
            "retries",
            "backoff (virtual ns)",
            "observations",
            "false kills",
        ],
    );
    let mut total_false_kills = 0u64;
    let mut all_match = true;
    for a in &availability {
        for p in &a.points {
            total_false_kills += p.false_kills;
            all_match &= p.observations_match;
            sweep.row(vec![
                Cell::text(a.workload),
                Cell::sci(p.fault_rate),
                Cell::int(p.blocks),
                Cell::int(p.link_stats.faults_injected),
                Cell::int(p.link_stats.faults_absorbed),
                Cell::int(p.link_stats.retries),
                Cell::int(p.link_stats.backoff_nanos),
                Cell::text(if p.observations_match {
                    "match"
                } else {
                    "DIVERGE"
                }),
                Cell::int(p.false_kills),
            ]);
        }
    }
    report.tables.push(sweep);
    report.metric("false_kills.total", total_false_kills as f64);
    report.metric("observations_match.all", u64::from(all_match) as f64);

    let q = perf::run_quarantine_experiment(ops);
    let mut quarantine = Table::new(
        "one-shard tamper under traffic (quarantine containment)",
        &["quantity", "value"],
    );
    quarantine.row(vec![Cell::text("workload"), Cell::text(q.workload)]);
    quarantine.row(vec![Cell::text("tamper at op"), Cell::int(q.tamper_at_op)]);
    quarantine.row(vec![
        Cell::text("tampered shard"),
        Cell::int(q.tampered_shard as u64),
    ]);
    quarantine.row(vec![
        Cell::text("quarantined shards"),
        Cell::int(q.quarantined_shards),
    ]);
    quarantine.row(vec![Cell::text("world killed"), Cell::bool(q.world_killed)]);
    quarantine.row(vec![
        Cell::text("healthy blocks served after quarantine"),
        Cell::int(q.healthy_blocks),
    ]);
    quarantine.row(vec![
        Cell::text("refused (ShardQuarantined)"),
        Cell::int(q.refused_blocks),
    ]);
    quarantine.row(vec![
        Cell::text("ops served when the quarantine engaged"),
        Cell::int(q.tamper_at_op),
    ]);
    quarantine.row(vec![
        Cell::text("ops served in total"),
        Cell::int(q.ops_served_total),
    ]);
    report.tables.push(quarantine);
    report.metric("quarantine.quarantined_shards", q.quarantined_shards as f64);
    report.metric("quarantine.world_killed", u64::from(q.world_killed) as f64);
    report.metric("quarantine.healthy_blocks", q.healthy_blocks as f64);
    report
}
