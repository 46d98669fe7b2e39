//! Table 3: simulation configuration dump (paper preset + scaled
//! preset).

use super::RunCtx;
use crate::report::{Cell, Report, Table};
use toleo_core::cache::MacCache;
use toleo_sim::config::{Protection, SimConfig};

fn cfg_table(label: &str, c: &SimConfig) -> Table {
    let mut t = Table::new(label, &["component", "configuration"]);
    let mut row = |k: &str, v: String| t.row(vec![Cell::text(k), Cell::text(v)]);
    row(
        "Processor",
        format!("{} GHz, {}-wide dispatch", c.freq_ghz, c.dispatch_width),
    );
    row(
        "L1-D cache",
        format!(
            "{} KB, {}-way, {} cycles",
            c.l1.capacity >> 10,
            c.l1.ways,
            c.l1.latency_cycles
        ),
    );
    row(
        "L2 cache",
        format!(
            "{} KB, {}-way, {} cycles",
            c.l2.capacity >> 10,
            c.l2.ways,
            c.l2.latency_cycles
        ),
    );
    row(
        "L3 cache",
        format!(
            "{} KB, {}-way, {} cycles",
            c.l3.capacity >> 10,
            c.l3.ways,
            c.l3.latency_cycles
        ),
    );
    row(
        "Local DRAM",
        format!("DDR4-3200, {} channels", c.dram.channels),
    );
    row(
        "CXL mem pool",
        format!(
            "{} GB/s, {} ns (PCIe5 x8 w/ re-timer), DDR4 x{}",
            c.pool_link.bytes_per_ns, c.pool_link.latency_ns, c.pool_dram.channels
        ),
    );
    row(
        "Toleo link",
        format!(
            "{} GB/s, {} ns (CXL2.0 IDE x2)",
            c.toleo_link.bytes_per_ns, c.toleo_link.latency_ns
        ),
    );
    row("Toleo DRAM", format!("HMC-style, {} ns", c.toleo_dram_ns));
    row("AES engine", format!("{} cycles", c.aes_cycles));
    row(
        "MAC cache",
        format!("{} KB/core, {}-way", MacCache::PAPER_KIB, MacCache::WAYS),
    );
    row(
        "Remote pages",
        format!("{:.1}%", c.remote_page_fraction * 100.0),
    );
    row(
        "Stealth caches",
        "L2-TLB ext 256 entries + 28 KB overflow buffer".to_string(),
    );
    t
}

/// Dumps both presets (scale-independent).
pub fn run(_ctx: &RunCtx) -> Report {
    let mut report = Report::new("table3", "Table 3. Simulation Configuration", 0);
    let paper = SimConfig::paper(Protection::Toleo);
    let scaled = SimConfig::scaled(Protection::Toleo);
    report
        .tables
        .push(cfg_table("paper preset (Table 3)", &paper));
    report.tables.push(cfg_table(
        "scaled preset (used for figures; caches 1:16)",
        &scaled,
    ));
    report.metric("paper.aes_cycles", paper.aes_cycles as f64);
    report.metric("scaled.aes_cycles", scaled.aes_cycles as f64);
    report.metric("scaled.l3_kib", (scaled.l3.capacity >> 10) as f64);
    report
}
