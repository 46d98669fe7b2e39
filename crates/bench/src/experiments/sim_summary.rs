//! Raw simulator summary: the modeled-cycles run every figure derives
//! from, dumped directly so the functional engine's counts and the
//! simulator's modeled cycles land side by side in the `results/` tree.

use super::RunCtx;
use crate::report::{Cell, Report, Table};
use toleo_sim::config::Protection;

/// Dumps modeled cycles, misses and traffic for every workload under
/// every protection.
pub fn run(ctx: &RunCtx) -> Report {
    let mut report = Report::new(
        "sim-summary",
        "Simulator summary: modeled cycles and traffic, 12 workloads x 5 protections",
        ctx.gen.mem_ops as u64,
    );
    for p in Protection::all() {
        let mut table = Table::new(
            format!("{p}"),
            &[
                "bench",
                "instructions",
                "cycles",
                "LLC misses",
                "mpki",
                "bytes/instr",
                "read lat (ns)",
            ],
        );
        for s in ctx.run_all(p).iter() {
            report.metric(format!("cycles.{p}.{}", s.name), s.cycles);
            table.row(vec![
                Cell::text(&s.name),
                Cell::int(s.instructions),
                Cell::num(s.cycles, 0),
                Cell::int(s.llc_misses),
                Cell::num(s.llc_mpki, 2),
                Cell::num(s.bytes_per_instruction(), 3),
                Cell::num(s.avg_read_latency_ns(), 1),
            ]);
        }
        report.tables.push(table);
    }
    report.note(
        "modeled numbers are deterministic: same trace seeds + same simulator \
         config => bit-identical cycles on any host",
    );
    report
}
