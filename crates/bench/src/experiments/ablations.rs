//! Ablation studies for the design choices DESIGN.md §6 calls out:
//!
//! 1. probabilistic reset vs naive stored-initial-value reset (storage);
//! 2. Trip's three-format dynamism vs flat-only / full-only;
//! 3. stealth width sweep (security margin vs space);
//! 4. TLB-extension version cache vs Merkle-tree caching (accesses per
//!    miss);
//! 5. hot-write cost across VAULT / MorphCtr / Toleo.

// audit: allow-file(panic, figure experiment: abort on setup failure rather than emit bad data)

use super::RunCtx;
use crate::report::{Cell, Report, Table};
use toleo_baselines::morph::MorphLeaf;
use toleo_baselines::tree::CounterTree;
use toleo_baselines::vault::VaultTree;
use toleo_core::analysis::StealthAnalysis;
use toleo_core::config::{ToleoConfig, FLAT_ENTRY_BYTES, FULL_ENTRY_BYTES, UNEVEN_ENTRY_BYTES};
use toleo_core::device::ToleoDevice;
use toleo_sim::config::Protection;

/// Runs all five ablations.
pub fn run(ctx: &RunCtx) -> Report {
    let mut report = Report::new(
        "ablations",
        "Ablation studies: reset policy, Trip dynamism, stealth width, tree walks, hot writes",
        ctx.gen.mem_ops as u64,
    );
    reset_policy(&mut report);
    trip_formats(ctx, &mut report);
    stealth_width(&mut report);
    tree_walks(&mut report);
    hot_write_cost(&mut report);
    report
}

/// 1\. Naive reset needs the initial value stored next to the current
/// value (2x stealth bits); probabilistic reset needs none.
fn reset_policy(report: &mut Report) {
    let bits = 27.0;
    let naive_flat = (2.0 * bits + 64.0 + 2.0) / 8.0; // two stealth copies
    let prob_flat = (bits + 64.0 + 2.0) / 8.0;
    let mut t = Table::new(
        "Ablation 1: reset policy storage cost",
        &["policy", "flat entry (B/page)"],
    );
    t.row(vec![
        Cell::text("probabilistic reset"),
        Cell::num(prob_flat, 1),
    ]);
    t.row(vec![
        Cell::text("naive stored-initial"),
        Cell::num(naive_flat, 1),
    ]);
    report.tables.push(t);
    let a = StealthAnalysis::default();
    report.metric("reset.naive_overhead", naive_flat / prob_flat - 1.0);
    report.metric("reset.probabilistic_residual_risk", a.p_exhaustion());
    report.note(format!(
        "naive stored-initial is {:.0}% larger; probabilistic residual risk {:.1e} (acceptable)",
        (naive_flat / prob_flat - 1.0) * 100.0,
        a.p_exhaustion()
    ));
}

/// 2\. Fixed-format alternatives: flat-only cannot represent strided
/// pages (forced resets/re-encryptions), full-only pays 19x space.
fn trip_formats(ctx: &RunCtx, report: &mut Report) {
    let stats = ctx.run_all(Protection::Toleo);
    let (mut flat, mut uneven, mut full) = (0u64, 0u64, 0u64);
    for s in stats.iter() {
        flat += s.trip_pages.0;
        uneven += s.trip_pages.1;
        full += s.trip_pages.2;
    }
    let pages = flat + uneven + full;
    let trip_bytes = flat * FLAT_ENTRY_BYTES as u64
        + uneven * (FLAT_ENTRY_BYTES + UNEVEN_ENTRY_BYTES) as u64
        + full * (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES) as u64;
    let full_only = pages * (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES) as u64;
    let flat_only = pages * FLAT_ENTRY_BYTES as u64;
    let mut t = Table::new(
        "Ablation 2: Trip dynamism vs fixed formats",
        &["layout", "MB", "vs Trip"],
    );
    t.row(vec![
        Cell::text("Trip (dynamic)"),
        Cell::num(trip_bytes as f64 / 1e6, 2),
        Cell::num(1.0, 1),
    ]);
    t.row(vec![
        Cell::text("full-only"),
        Cell::num(full_only as f64 / 1e6, 2),
        Cell::num(full_only as f64 / trip_bytes as f64, 1),
    ]);
    t.row(vec![
        Cell::text("flat-only (cannot encode strides)"),
        Cell::num(flat_only as f64 / 1e6, 2),
        Cell::num(flat_only as f64 / trip_bytes as f64, 1),
    ]);
    report.tables.push(t);
    report.metric(
        "trip.full_only_blowup",
        full_only as f64 / trip_bytes as f64,
    );
    report.metric(
        "trip.unencodable_fraction",
        (uneven + full) as f64 / pages as f64,
    );
    report.note(format!(
        "pages: {pages} ({flat} flat / {uneven} uneven / {full} full); flat-only leaves {} pages \
         ({:.1}%) needing strides it cannot encode, each forcing a UV bump + full-page \
         re-encryption per write",
        uneven + full,
        (uneven + full) as f64 / pages as f64 * 100.0
    ));
}

/// 3\. Wider stealth = better replay odds, more space; the 27-bit point
/// balances a 2^-27 guess probability against 12 B flat entries.
fn stealth_width(report: &mut Report) {
    let mut t = Table::new(
        "Ablation 3: stealth width sweep",
        &["bits", "P(replay)", "P(exhaustion)", "flat B/page"],
    );
    for bits in [20u32, 24, 27, 30, 32] {
        let a = StealthAnalysis {
            stealth_bits: bits,
            ..Default::default()
        };
        let flat_bytes = (bits as f64 + 64.0 + 2.0) / 8.0;
        if bits == 27 {
            report.metric("stealth27.p_replay", a.p_replay_success());
            report.metric("stealth27.p_exhaustion", a.p_exhaustion());
        }
        t.row(vec![
            Cell::int(bits as u64),
            Cell::sci(a.p_replay_success()),
            Cell::sci(a.p_exhaustion()),
            Cell::num(flat_bytes, 1),
        ]);
    }
    report.tables.push(t);
}

/// 4\. Merkle walk accesses vs Toleo's single access, as memory grows.
fn tree_walks(report: &mut Report) {
    let mut t = Table::new(
        "Ablation 4: Merkle walk cost vs memory size (cold paths)",
        &["blocks", "levels", "accesses/miss (cold)"],
    );
    for log2_blocks in [14u32, 17, 20, 23] {
        let mut tree = CounterTree::new(1 << log2_blocks, 64);
        // Sample cold walks across the space.
        let mut total = 0;
        let n = 64u64;
        for i in 0..n {
            let block = (i * ((1u64 << log2_blocks) / n)) % (1 << log2_blocks);
            total += tree.verify(block).unwrap().fetches;
        }
        let per_miss = total as f64 / n as f64;
        report.metric(
            format!("merkle.accesses_per_miss.2pow{log2_blocks}"),
            per_miss,
        );
        t.row(vec![
            Cell::int(1u64 << log2_blocks),
            Cell::int(tree.depth() as u64),
            Cell::num(per_miss, 1),
        ]);
    }
    report.tables.push(t);
    // Exercise a device at the paper's design point for reference.
    let dev = ToleoDevice::new(ToleoConfig::small()).expect("valid ToleoConfig");
    report.note(format!(
        "Toleo: 1 stealth access per miss at any scale (98% filtered by the cache); device flat \
         array for this config: {} KB",
        dev.config().flat_array_bytes() / 1024
    ));
}

/// 5\. Hot-write handling: compressed Merkle leaves (VAULT, MorphCtr) pay
/// group re-encryptions when a small counter overflows; Toleo's uneven
/// format absorbs the same skew with one side-entry allocation.
fn hot_write_cost(report: &mut Report) {
    let mut t = Table::new(
        "Ablation 5: hot-write cost (10k writes to one block)",
        &["scheme", "blocks re-encrypted", "events"],
    );
    let mut vault = VaultTree::new(4096);
    let mut vault_reenc = 0u64;
    for _ in 0..10_000 {
        vault_reenc += vault.update(0);
    }
    t.row(vec![
        Cell::text("VAULT"),
        Cell::int(vault_reenc),
        Cell::text(format!("{} overflow resets", vault.overflow_resets)),
    ]);

    let mut morph = MorphLeaf::new();
    let mut morph_reenc = 0u64;
    for _ in 0..10_000 {
        morph_reenc += morph.update(0);
    }
    t.row(vec![
        Cell::text("MorphCtr"),
        Cell::int(morph_reenc),
        Cell::text(format!(
            "{} rebases, {} morphs",
            morph.rebases, morph.morphs
        )),
    ]);

    let mut cfg = ToleoConfig::small();
    cfg.reset_log2 = 20;
    let mut dev = ToleoDevice::new(cfg).expect("valid ToleoConfig");
    let mut toleo_reenc = 0u64;
    for _ in 0..10_000 {
        if dev.update(0, 0).expect("in range").uv_update() {
            toleo_reenc += 64;
        }
    }
    let s = dev.stats();
    t.row(vec![
        Cell::text("Toleo"),
        Cell::int(toleo_reenc),
        Cell::text(format!(
            "{} probabilistic resets; {} uneven + {} full upgrades",
            s.stealth_resets, s.upgrades_to_uneven, s.upgrades_to_full
        )),
    ]);
    report.tables.push(t);
    report.metric("hot_write.vault_reenc", vault_reenc as f64);
    report.metric("hot_write.morph_reenc", morph_reenc as f64);
    report.metric("hot_write.toleo_reenc", toleo_reenc as f64);
}
