//! Cross-crate integration tests: workloads → simulator → device, and the
//! end-to-end shapes the paper's evaluation claims.

use toleo_sim::config::{Protection, SimConfig};
use toleo_sim::system::{Rack, SharedMemory, System};
use toleo_workloads::{generate, Benchmark, GenConfig};

fn quick(b: Benchmark) -> toleo_workloads::Trace {
    generate(
        b,
        &GenConfig {
            mem_ops: 20_000,
            ..GenConfig::default()
        },
    )
}

/// A longer trace for tests that need warmed caches / converged formats.
fn warm(b: Benchmark) -> toleo_workloads::Trace {
    generate(
        b,
        &GenConfig {
            mem_ops: 100_000,
            ..GenConfig::default()
        },
    )
}

#[test]
fn every_benchmark_runs_under_every_protection() {
    for b in Benchmark::all() {
        let trace = generate(
            b,
            &GenConfig {
                mem_ops: 4_000,
                ..GenConfig::default()
            },
        );
        for p in Protection::all() {
            let s = System::new(SimConfig::scaled(p)).run(&trace);
            assert!(s.cycles > 0.0, "{b}/{p}");
            assert_eq!(s.name, b.name());
            assert!(s.instructions > 0);
        }
    }
}

#[test]
fn fig6_shape_toleo_freshness_is_cheap() {
    // The paper's headline: freshness adds only a few percent over CI.
    let mut ratios = Vec::new();
    for b in [
        Benchmark::Bsw,
        Benchmark::Chain,
        Benchmark::Llama2Gen,
        Benchmark::Sssp,
    ] {
        let t = quick(b);
        let ci = System::new(SimConfig::scaled(Protection::Ci)).run(&t);
        let toleo = System::new(SimConfig::scaled(Protection::Toleo)).run(&t);
        ratios.push(toleo.cycles / ci.cycles);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        avg < 1.06,
        "Toleo over CI averaged {:.1}% (paper: 1-2%)",
        (avg - 1.0) * 100.0
    );
}

#[test]
fn fig6_shape_invisimem_costs_more_than_toleo_on_bandwidth_bound() {
    let t = quick(Benchmark::Pr);
    let toleo = System::new(SimConfig::scaled(Protection::Toleo)).run(&t);
    let inv = System::new(SimConfig::scaled(Protection::InvisiMem)).run(&t);
    let base = System::new(SimConfig::scaled(Protection::NoProtect)).run(&t);
    assert!(
        inv.cycles / base.cycles > toleo.cycles / base.cycles * 0.95,
        "InvisiMem must not beat Toleo on pr"
    );
}

#[test]
fn fig7_shape_kv_stores_are_stealth_cache_outliers() {
    let regular = System::new(SimConfig::scaled(Protection::Toleo)).run(&quick(Benchmark::Bsw));
    let redis = System::new(SimConfig::scaled(Protection::Toleo)).run(&quick(Benchmark::Redis));
    assert!(
        regular.stealth_hit_rate > 0.93,
        "bsw: {}",
        regular.stealth_hit_rate
    );
    assert!(
        redis.stealth_hit_rate < regular.stealth_hit_rate - 0.1,
        "redis must be an outlier: {} vs {}",
        redis.stealth_hit_rate,
        regular.stealth_hit_rate
    );
}

#[test]
fn fig8_shape_stealth_traffic_is_marginal() {
    let t = warm(Benchmark::Pr);
    let s = System::new(SimConfig::scaled(Protection::Toleo)).run(&t);
    let stealth_frac =
        s.bytes_stealth as f64 / (s.bytes_data + s.bytes_mac + s.bytes_stealth) as f64;
    // Paper reports ~2% for pr; our synthetic trace has somewhat less
    // page locality, so allow up to 8% — still far below MAC traffic.
    assert!(
        stealth_frac < 0.08,
        "stealth traffic {:.1}%",
        stealth_frac * 100.0
    );
    assert!(
        s.bytes_mac > s.bytes_stealth,
        "MAC traffic dominates metadata"
    );
}

#[test]
fn fig9_shape_latency_components_ordered() {
    let t = quick(Benchmark::Bfs);
    let s = System::new(SimConfig::scaled(Protection::Toleo)).run(&t);
    assert!(s.avg_dram_ns > 0.0);
    assert!(s.avg_aes_ns > 0.0);
    assert!(
        s.avg_dram_ns > s.avg_fresh_ns,
        "freshness must be a minor component"
    );
}

#[test]
fn fig10_shape_dp_flat_graphs_mixed() {
    let cfg = SimConfig::scaled(Protection::Toleo);
    let bsw = System::new(cfg.clone()).run(&quick(Benchmark::Bsw));
    let (f, u, fl) = bsw.trip_pages;
    assert_eq!(u + fl, 0, "bsw pages must all stay flat");
    assert!(f > 0);
    let pr = System::new(cfg).run(&warm(Benchmark::Pr));
    let (pf, pu, _) = pr.trip_pages;
    assert!(pu > 0, "pr must produce uneven pages");
    assert!(pf > pu, "flat still dominates pr");
}

#[test]
fn fig11_shape_toleo_usage_a_few_gb_per_tb() {
    let t = quick(Benchmark::Llama2Gen);
    let s = System::new(SimConfig::scaled(Protection::Toleo)).run(&t);
    let gb_per_tb = s.toleo_gb_per_tb();
    // Static flat floor is 2.93 GB/TB (12 B / 4 KB); paper average 4.27.
    assert!(
        gb_per_tb > 2.8 && gb_per_tb < 10.0,
        "usage {gb_per_tb:.2} GB/TB"
    );
}

#[test]
fn table2_shape_mpki_ranking() {
    let cfg = GenConfig {
        mem_ops: 20_000,
        ..GenConfig::default()
    };
    let mpki = |b| {
        System::new(SimConfig::scaled(Protection::NoProtect))
            .run(&generate(b, &cfg))
            .llc_mpki
    };
    let pr = mpki(Benchmark::Pr);
    let llama = mpki(Benchmark::Llama2Gen);
    let bfs = mpki(Benchmark::Bfs);
    let chain = mpki(Benchmark::Chain);
    assert!(
        pr > llama && llama > bfs && bfs > chain,
        "pr {pr} > llama {llama} > bfs {bfs} > chain {chain}"
    );
}

#[test]
fn rack_of_four_shares_one_device() {
    let mix = [
        Benchmark::Bsw,
        Benchmark::Dbg,
        Benchmark::Hyrise,
        Benchmark::Chain,
    ];
    let gen = GenConfig {
        mem_ops: 5_000,
        ..GenConfig::default()
    };
    let traces: Vec<_> = mix.iter().map(|b| generate(*b, &gen)).collect();
    let cfg = SimConfig::scaled(Protection::Toleo);
    let mut rack = Rack::new(cfg.clone(), 4);
    let stats = rack.run(&traces);
    assert_eq!(stats.len(), 4);
    for s in &stats {
        assert!(s.cycles > 0.0);
        assert!(s.stealth_hit_rate > 0.0);
    }
    // Every node's writebacks reach the one device: its UPDATEs are the
    // four traces' UPDATEs run alone, not node 0's.
    let updates = |shared: &SharedMemory| {
        let device = shared
            .device
            .as_ref()
            .expect("Toleo configuration has a device");
        device.device().stats().updates
    };
    let solo: u64 = traces
        .iter()
        .map(|t| {
            let mut system = System::new(cfg.clone());
            system.run(t);
            updates(system.shared())
        })
        .sum();
    assert!(solo > 0);
    assert_eq!(updates(rack.shared()), solo);
}
