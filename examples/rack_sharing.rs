//! Figure 1's deployment: multiple compute nodes sharing one memory pool
//! and ONE Toleo device over CXL. Each node runs a different workload;
//! the shared device serves all of their version traffic.
//!
//! ```sh
//! cargo run --release -p toleo-bench --example rack_sharing
//! ```

use toleo_sim::config::{Protection, SimConfig};
use toleo_sim::system::Rack;
use toleo_workloads::{generate, Benchmark, GenConfig};

fn main() {
    // A genomics node, a graph-analytics node, an LLM node and a database
    // node share the rack (the paper's motivating mix).
    let mix = [
        Benchmark::Bsw,
        Benchmark::Bfs,
        Benchmark::Llama2Gen,
        Benchmark::Hyrise,
    ];
    let gen = GenConfig {
        mem_ops: 60_000,
        ..GenConfig::default()
    };
    let traces: Vec<_> = mix.iter().map(|b| generate(*b, &gen)).collect();

    let mut rack = Rack::new(SimConfig::scaled(Protection::Toleo), mix.len());
    let stats = rack.run(&traces);

    println!("4-node rack sharing one Toleo device\n");
    println!(
        "{:<12}{:>14}{:>13}{:>13}{:>11}",
        "node", "cycles", "stealth hit", "read lat", "MPKI"
    );
    for s in &stats {
        println!(
            "{:<12}{:>14.0}{:>12.1}%{:>11.0}ns{:>11.1}",
            s.name,
            s.cycles,
            s.stealth_hit_rate * 100.0,
            s.avg_read_latency_ns(),
            s.llc_mpki
        );
    }

    // Every node's `trip_pages` and `peak_toleo` describe the one shared
    // device, so its totals are read once, not summed over nodes.
    println!("\nshared Toleo device totals:");
    let device = rack.shared().device.as_ref().expect("Toleo device");
    let usage = device.device().usage();
    println!(
        "  pages: {} flat / {} uneven / {} full",
        usage.flat_pages, usage.uneven_pages, usage.full_pages
    );
    let peak = stats
        .iter()
        .map(|s| s.peak_toleo.total_bytes())
        .max()
        .unwrap_or_default();
    let rss: u64 = stats.iter().map(|s| s.rss_bytes).sum();
    println!(
        "  version storage: {:.2} MB for {:.1} MB protected ({:.1} GB per TB)",
        peak as f64 / 1e6,
        rss as f64 / 1e6,
        peak as f64 / rss as f64 * 1000.0
    );
    println!("\nOne small trusted device scales freshness across the whole rack.");
}
