//! Simulation configuration (paper Table 3).
//!
//! Two presets are provided: [`SimConfig::paper`] mirrors Table 3's 32-core
//! node, and [`SimConfig::scaled`] shrinks caches in proportion to the
//! workload generators' 1000x-smaller working sets so miss behaviour — and
//! therefore the *shape* of every figure — is preserved while simulations
//! complete in seconds.

use serde::{Deserialize, Serialize};

/// Which memory-protection configuration a run models (§7, four setups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protection {
    /// No memory protection (baseline).
    NoProtect,
    /// Confidentiality only: AES-XTS (Intel TME-like).
    C,
    /// Confidentiality + integrity: AES-XTS + MACs (scalable SGX + I).
    Ci,
    /// Confidentiality + integrity + freshness via the Toleo device.
    Toleo,
    /// InvisiMem-far: all-smart-memory with address/timing-channel
    /// defenses (double encryption, size-padded packets, dummy traffic).
    InvisiMem,
}

impl Protection {
    /// All configurations, in the paper's comparison order.
    pub fn all() -> [Protection; 5] {
        [
            Protection::NoProtect,
            Protection::C,
            Protection::Ci,
            Protection::Toleo,
            Protection::InvisiMem,
        ]
    }
}

impl std::fmt::Display for Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Protection::NoProtect => "NoProtect",
            Protection::C => "C",
            Protection::Ci => "CI",
            Protection::Toleo => "Toleo",
            Protection::InvisiMem => "InvisiMem",
        };
        f.write_str(s)
    }
}

/// Cache geometry + latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles.
    pub latency_cycles: u32,
}

impl CacheConfig {
    /// Number of 64-byte blocks.
    pub fn blocks(&self) -> usize {
        self.capacity / 64
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.blocks() / self.ways).max(1)
    }
}

/// DRAM timing (DDR4-3200-like).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Column access (row hit) latency, ns.
    pub t_cas_ns: f64,
    /// Row activate latency, ns.
    pub t_rcd_ns: f64,
    /// Precharge latency, ns.
    pub t_rp_ns: f64,
    /// Fixed controller + on-chip interconnect overhead, ns.
    pub ctrl_ns: f64,
    /// Peak bandwidth per channel, bytes per ns (DDR4-3200: 25.6 GB/s).
    pub bytes_per_ns_per_channel: f64,
}

impl DramConfig {
    /// DDR4-3200 with the given channel count.
    pub fn ddr4_3200(channels: usize) -> Self {
        DramConfig {
            channels,
            banks_per_channel: 16,
            row_bytes: 8192,
            t_cas_ns: 13.75,
            t_rcd_ns: 13.75,
            t_rp_ns: 13.75,
            ctrl_ns: 25.0,
            bytes_per_ns_per_channel: 25.6,
        }
    }

    /// Zero-load row-hit read latency in ns.
    pub fn zero_load_ns(&self) -> f64 {
        self.ctrl_ns + self.t_cas_ns + 64.0 / self.bytes_per_ns_per_channel
    }
}

/// CXL link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// One-way added latency, ns (paper: 95 ns with a re-timer).
    pub latency_ns: f64,
    /// Usable bandwidth, bytes per ns.
    pub bytes_per_ns: f64,
}

/// Full node configuration (Table 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Core clock in GHz (2.25).
    pub freq_ghz: f64,
    /// Dispatch width (6).
    pub dispatch_width: u32,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3 (per node in this model).
    pub l3: CacheConfig,
    /// Local DDR4.
    pub dram: DramConfig,
    /// Remote CXL memory-pool DRAM.
    pub pool_dram: DramConfig,
    /// CXL 2.0 x8 link to the memory pool (12.7 GB/s, 95 ns).
    pub pool_link: LinkConfig,
    /// CXL 2.0 IDE x2 link to Toleo (3.32 GB/s, 95 ns).
    pub toleo_link: LinkConfig,
    /// Toleo-internal HMC access latency, ns (Table 3: 15 ns).
    pub toleo_dram_ns: f64,
    /// AES engine latency in cycles (Table 3: 40).
    pub aes_cycles: u32,
    /// Fraction of pages mapped to the remote pool (bandwidth-proportional:
    /// 12.7 / (3*25.6 + 12.7) ≈ 0.142).
    pub remote_page_fraction: f64,
    /// Protection configuration.
    pub protection: Protection,
}

impl SimConfig {
    /// Table 3 configuration (one core of the 32-core node).
    pub fn paper(protection: Protection) -> Self {
        SimConfig {
            freq_ghz: 2.25,
            dispatch_width: 6,
            l1: CacheConfig {
                capacity: 32 << 10,
                ways: 8,
                latency_cycles: 4,
            },
            l2: CacheConfig {
                capacity: 1 << 20,
                ways: 16,
                latency_cycles: 14,
            },
            l3: CacheConfig {
                capacity: 16 << 20,
                ways: 16,
                latency_cycles: 49,
            },
            dram: DramConfig::ddr4_3200(3),
            pool_dram: DramConfig::ddr4_3200(2),
            pool_link: LinkConfig {
                latency_ns: 95.0,
                bytes_per_ns: 12.7,
            },
            toleo_link: LinkConfig {
                latency_ns: 95.0,
                bytes_per_ns: 3.32,
            },
            toleo_dram_ns: 15.0,
            aes_cycles: 40,
            remote_page_fraction: 12.7 / (3.0 * 25.6 + 12.7),
            protection,
        }
    }

    /// Cache capacities scaled 1:16 to match the workload generators'
    /// down-scaled working sets (LLC 1 MB vs ~7–26 MB RSS, preserving the
    /// paper's LLC-much-smaller-than-RSS regime).
    pub fn scaled(protection: Protection) -> Self {
        let mut cfg = Self::paper(protection);
        cfg.l1.capacity = 8 << 10;
        cfg.l2.capacity = 64 << 10;
        cfg.l3.capacity = 1 << 20;
        cfg
    }

    /// Nanoseconds for `cycles` core cycles.
    pub fn cycles_to_ns(&self, cycles: u32) -> f64 {
        cycles as f64 / self.freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table3() {
        let c = SimConfig::paper(Protection::Toleo);
        assert_eq!(c.dispatch_width, 6);
        assert_eq!(c.l1.capacity, 32 << 10);
        assert_eq!(c.l2.latency_cycles, 14);
        assert_eq!(c.l3.latency_cycles, 49);
        assert_eq!(c.dram.channels, 3);
        assert_eq!(c.aes_cycles, 40);
        assert!((c.pool_link.bytes_per_ns - 12.7).abs() < 1e-9);
        assert!((c.toleo_link.bytes_per_ns - 3.32).abs() < 1e-9);
        assert!((c.remote_page_fraction - 0.1417).abs() < 0.01);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig {
            capacity: 32 << 10,
            ways: 8,
            latency_cycles: 4,
        };
        assert_eq!(c.blocks(), 512);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn zero_load_latency_sane() {
        let d = DramConfig::ddr4_3200(3);
        let z = d.zero_load_ns();
        assert!(z > 30.0 && z < 60.0, "zero-load {z} ns");
    }

    #[test]
    fn cycles_to_ns() {
        let c = SimConfig::paper(Protection::NoProtect);
        assert!((c.cycles_to_ns(45) - 20.0).abs() < 0.1); // 45 cyc @2.25GHz
    }

    #[test]
    fn scaled_preserves_timings() {
        let p = SimConfig::paper(Protection::Ci);
        let s = SimConfig::scaled(Protection::Ci);
        assert_eq!(p.l3.latency_cycles, s.l3.latency_cycles);
        assert!(s.l3.capacity < p.l3.capacity);
    }
}
