//! Wall-clock throughput experiment: per-backend AES microbenchmarks,
//! the three engine workloads, the sharded thread-scaling curves and
//! the five-scheme head-to-head arena, shaped as a [`Report`] with
//! metric keys `engine.<workload>.blocks_per_sec`,
//! `scheme.<scheme>.<workload>.blocks_per_sec` and
//! `aes.<backend>.encrypt8_ns_per_block`. Reported, never gated: the
//! numbers are comparable only on one host in one session.

use super::RunCtx;
use crate::perf;
use crate::report::{Cell, Report, Table};
use toleo_crypto::backend::default_backend;

/// Runs the full wall-clock sweep at `ctx.perf_ops`.
pub fn run(ctx: &RunCtx) -> Report {
    let ops = ctx.perf_ops;
    let mut report = Report::new(
        "throughput",
        format!("Wall-clock throughput harness ({ops} ops/workload)"),
        ops,
    );

    let selected = default_backend();
    report.note(format!("selected AES backend: {}", selected.name()));
    let backends = perf::measure_backends(ctx.aes_iters);
    let mut aes = Table::new(
        "AES-128 backends (ns/block)",
        &[
            "backend",
            "encrypt",
            "decrypt",
            "encrypt 8-wide",
            "decrypt 8-wide",
            "selected",
        ],
    );
    for b in &backends {
        let name = b.kind.name();
        report.metric(format!("aes.{name}.encrypt_ns_per_block"), b.encrypt_ns);
        report.metric(format!("aes.{name}.encrypt8_ns_per_block"), b.encrypt8_ns);
        report.metric(format!("aes.{name}.decrypt8_ns_per_block"), b.decrypt8_ns);
        aes.row(vec![
            Cell::text(name),
            Cell::num(b.encrypt_ns, 1),
            Cell::num(b.decrypt_ns, 1),
            Cell::num(b.encrypt8_ns, 1),
            Cell::num(b.decrypt8_ns, 1),
            Cell::bool(b.kind == selected),
        ]);
    }
    report.tables.push(aes);

    let results = perf::run_engine_workloads(ops);
    let mut engine = Table::new(
        "engine workloads (selected backend)",
        &[
            "workload",
            "blocks",
            "blocks/s",
            "batch blocks/s",
            "software blocks/s",
            "vs seed",
            "spread",
        ],
    );
    for r in &results {
        report.metric(
            format!("engine.{}.blocks_per_sec", r.name),
            r.blocks_per_sec,
        );
        report.metric(
            format!("engine.{}.batch_blocks_per_sec", r.name),
            r.batch_blocks_per_sec,
        );
        report.metric(
            format!("engine.{}.software_blocks_per_sec", r.name),
            r.software_blocks_per_sec,
        );
        engine.row(vec![
            Cell::text(r.name),
            Cell::int(r.blocks),
            Cell::num(r.blocks_per_sec, 0),
            Cell::num(r.batch_blocks_per_sec, 0),
            Cell::num(r.software_blocks_per_sec, 0),
            Cell::num(r.speedup_vs_seed, 2),
            Cell::num(r.timing_spread, 3),
        ]);
    }
    report.tables.push(engine);

    let curves = perf::run_scaling_curves(ops);
    let mut sharded = Table::new(
        "sharded thread-scaling (critical-path model; wall numbers time-slice on few cores)",
        &["workload", "threads", "blocks/s", "vs 1t", "wall blocks/s"],
    );
    for curve in &curves {
        report.metric(
            format!("sharded.{}.speedup_4t_vs_1t", curve.workload),
            curve.speedup_4t_vs_1t,
        );
        let one = curve
            .points
            .iter()
            .find(|p| p.threads == 1)
            .map_or(1.0, |p| p.blocks_per_sec);
        for p in &curve.points {
            sharded.row(vec![
                Cell::text(&curve.workload),
                Cell::int(p.threads as u64),
                Cell::num(p.blocks_per_sec, 0),
                Cell::num(p.blocks_per_sec / one, 2),
                Cell::num(p.wall_blocks_per_sec, 0),
            ]);
        }
    }
    report.tables.push(sharded);

    let schemes = perf::run_scheme_sweep(ops);
    let mut arena = Table::new(
        "scheme head-to-head (ProtectedMemory trait)",
        &[
            "scheme",
            "workload",
            "blocks/s",
            "batch blocks/s",
            "version fetches",
            "re-enc events",
            "spread",
        ],
    );
    for s in &schemes {
        for w in &s.workloads {
            report.metric(
                format!("scheme.{}.{}.blocks_per_sec", s.scheme, w.workload),
                w.blocks_per_sec,
            );
            report.metric(
                format!("scheme.{}.{}.batch_blocks_per_sec", s.scheme, w.workload),
                w.batch_blocks_per_sec,
            );
            arena.row(vec![
                Cell::text(s.scheme),
                Cell::text(w.workload),
                Cell::num(w.blocks_per_sec, 0),
                Cell::num(w.batch_blocks_per_sec, 0),
                Cell::int(w.version_fetches),
                Cell::int(w.reencryption_events),
                Cell::num(w.timing_spread, 3),
            ]);
        }
    }
    report.tables.push(arena);
    report.note(format!(
        "wall-clock measurement: numbers vary by host and run, so they are reported, not \
         compared; blocks/s is the best of {} repeats and `spread` is (worst - best) / best; \
         a speed claim is judged by `benchmark/`'s paired parent/change compare",
        perf::GATE_TIMING_REPEATS
    ));
    report
}
