//! The metric catalogue (the same names `BENCHMARK.json` declares) and
//! how a set of rounds becomes the numbers that are printed.

use crate::json::Value;
use crate::stats::{self, Quartiles};
use crate::workloads::{Round, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What kind of number a metric is. Every metric is reported as the
/// median of its rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock, taken to the host-speed reference's nominal speed
    /// round by round (see `reference.rs`) where the rounds were
    /// calibrated.
    WallClock,
    /// A count fixed by the inputs: identical in every round, and
    /// compared for equality between runs of one seed.
    Exact,
    /// Neither (heap bytes).
    Plain,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
    pub kind: Kind,
}

pub const END_TO_END: [MetricSpec; 7] = [
    MetricSpec {
        name: "blocks_per_s",
        unit: "blocks/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::WallClock,
    },
    MetricSpec {
        name: "op_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::WallClock,
    },
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::WallClock,
    },
    MetricSpec {
        name: "served_ops_per_mop",
        unit: "count",
        better: Better::Higher,
        bound: 0.001,
        kind: Kind::Exact,
    },
    MetricSpec {
        name: "version_fetches_per_kop",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
        kind: Kind::Exact,
    },
    MetricSpec {
        name: "trusted_bytes_per_mib",
        unit: "B/MiB",
        better: Better::Lower,
        bound: 0.1,
        kind: Kind::Exact,
    },
    MetricSpec {
        name: "heap_peak_bytes_per_block",
        unit: "B/block",
        better: Better::Lower,
        bound: 0.05,
        kind: Kind::Plain,
    },
];

/// Per-layer metrics: `(name, unit, direction)`. No bounds; a layer's
/// number explains an end-to-end one, it does not gate anything.
pub const PER_LAYER: [(&str, &str, Better); 61] = {
    use Better::{Higher, Lower};
    [
        ("crypto.aes.enc_ns_per_block", "ns", Lower),
        ("crypto.aes.dec_ns_per_block", "ns", Lower),
        ("crypto.aes.enc8_ns_per_block", "ns", Lower),
        ("crypto.xts.seal_ns_per_line", "ns", Lower),
        ("crypto.xts.unseal_ns_per_line", "ns", Lower),
        ("crypto.xts.tweak8_ns_per_tweak", "ns", Lower),
        ("crypto.mac.ns_per_tag", "ns", Lower),
        ("crypto.range.ns_per_draw", "ns", Lower),
        ("core.trip.record_write_ns", "ns", Lower),
        ("core.trip.upgrades_per_kop", "count", Lower),
        ("core.pagetable.get_ns", "ns", Lower),
        ("core.pagetable.insert_ns", "ns", Lower),
        ("core.device.update_ns", "ns", Lower),
        ("core.device.read_ns", "ns", Lower),
        ("core.device.read_run_ns_per_op", "ns", Lower),
        ("core.device.resets_per_kop", "count", Lower),
        ("core.device.dynamic_bytes", "bytes", Lower),
        ("core.channel.update_self_ns", "ns", Lower),
        ("core.channel.read_self_ns", "ns", Lower),
        ("core.channel.retries_per_kop", "count", Lower),
        ("core.channel.replays_per_kop", "count", Lower),
        ("core.channel.backoff_virtual_ns_per_kop", "ns", Lower),
        ("core.fault.decide_ns", "ns", Lower),
        ("core.stealth_cache.access_ns", "ns", Lower),
        ("core.stealth_cache.hit_rate", "ratio", Higher),
        ("core.mac_cache.access_ns", "ns", Lower),
        ("core.mac_cache.hit_rate", "ratio", Higher),
        ("core.arena.slot_lookup_ns", "ns", Lower),
        ("core.arena.block_store_ns", "ns", Lower),
        ("core.arena.block_load_ns", "ns", Lower),
        ("core.engine.write_ns", "ns", Lower),
        ("core.engine.read_ns", "ns", Lower),
        ("core.engine.batch_write_ns_per_op", "ns", Lower),
        ("core.engine.batch_read_ns_per_op", "ns", Lower),
        ("core.engine.device_reads_per_kop", "count", Lower),
        ("core.engine.mac_fetches_per_kop", "count", Lower),
        ("core.engine.pages_reencrypted_per_kop", "count", Lower),
        ("core.engine.op_ns", "ns", Lower),
        ("core.engine.attributed_ns", "ns", Lower),
        ("core.engine.residual_ns", "ns", Lower),
        ("core.sharded.single_self_ns", "ns", Lower),
        ("core.sharded.batch_ns_per_op", "ns", Lower),
        ("core.sharded.dispatch_ns_per_batch", "ns", Lower),
        ("core.sharded.scaling_2t", "ratio", Higher),
        ("core.sharded.detect_ops", "count", Lower),
        ("core.recovery.recover_ms", "ms", Lower),
        ("core.recovery.pages_scrubbed", "count", Lower),
        ("core.recovery.blocks_lost", "count", Lower),
        ("core.recovery.refused_ops", "count", Lower),
        ("baselines.sgx_tree.ns_per_op", "ns", Lower),
        ("baselines.sgx_tree.version_fetches_per_kop", "count", Lower),
        ("baselines.vault.ns_per_op", "ns", Lower),
        ("baselines.vault.version_fetches_per_kop", "count", Lower),
        ("baselines.morph.ns_per_op", "ns", Lower),
        ("baselines.morph.version_fetches_per_kop", "count", Lower),
        ("workloads.gen_ns_per_op", "ns", Lower),
        ("harness.clock_ns", "ns", Lower),
        ("harness.loop_ns_per_op", "ns", Lower),
        ("harness.trace_overhead_pct", "%", Lower),
        ("harness.refused_ops_per_mop", "count", Lower),
        // An end-to-end metric by nature. It lives here because on this
        // host it does not repeat within any bound the pipeline accepts
        // (a fanout batch's tail is the latest of eight thread spawns),
        // and a bound is set per metric, not per workload.
        ("harness.op_p99_ns", "ns", Lower),
    ]
};

/// Whether `name` is one the pipeline accepts for a workload or metric:
/// at most 64 letters, digits, `_`, `.` and `-`, starting with a letter
/// or a digit.
pub fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One metric as measured: its rounds, their quartiles, the value
/// reported for it (their median) and, for a wall-clock metric, the
/// median of the rounds as the clock read them, before they were taken
/// to the reference's nominal speed.
#[derive(Debug, Clone)]
pub struct Measured {
    pub spec: MetricSpec,
    pub rounds: Vec<f64>,
    pub quartiles: Quartiles,
    pub value: f64,
    pub as_clocked: f64,
}

fn median(values: &[f64]) -> f64 {
    stats::quartiles(values)
        .expect("a metric needs at least one round")
        .median
}

impl Measured {
    pub fn new(spec: MetricSpec, rounds: Vec<f64>) -> Self {
        let as_clocked = median(&rounds);
        Self::calibrated(spec, rounds, as_clocked)
    }

    fn calibrated(spec: MetricSpec, rounds: Vec<f64>, as_clocked: f64) -> Self {
        let quartiles = stats::quartiles(&rounds).expect("a metric needs at least one round");
        Measured {
            spec,
            rounds,
            quartiles,
            value: quartiles.median,
            as_clocked,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("unit", Value::Str(self.spec.unit.into())),
            ("value", Value::Num(self.value)),
            ("q1", Value::Num(self.quartiles.q1)),
            ("median", Value::Num(self.quartiles.median)),
            ("q3", Value::Num(self.quartiles.q3)),
            ("as_clocked", Value::Num(self.as_clocked)),
            ("rounds", Value::nums(&self.rounds)),
        ])
    }
}

/// Clocked-op latency of one round at `permille`, with the samples that
/// lie beyond it.
fn latency_at(round: &Round, permille: usize) -> (f64, usize) {
    let mut sorted = round.latencies.clone();
    sorted.sort_unstable();
    stats::percentile_sorted(&sorted, permille).expect("a latency round clocks ops")
}

/// How much slower than nominal the host ran around `round`, as the
/// reference memory saw it (1 when the round was not calibrated). A
/// time measured in the round is divided by this, a rate multiplied.
fn slowdown(spec: &Spec, round: &Round) -> f64 {
    let host = round.host;
    if host.blocks_per_s > 0.0 {
        spec.ref_blocks_per_s / host.blocks_per_s
    } else if host.op_p50_ns > 0.0 {
        host.op_p50_ns / spec.ref_op_p50_ns
    } else {
        1.0
    }
}

/// Boils a run's rounds down to the end-to-end metrics, in catalogue
/// order. `timed` rounds ran with every clock off; `latency` rounds
/// clocked every 8th op and sampled device usage.
///
/// # Panics
///
/// If either list is empty, or if a workload's exact counts differ
/// between rounds (the inputs are the same, so the counts must be).
pub fn end_to_end(spec: &Spec, timed: &[Round], latency: &[Round]) -> Vec<Measured> {
    let all = || timed.iter().chain(latency);
    let p50: Vec<f64> = latency.iter().map(|r| latency_at(r, 500).0).collect();
    // (rounds as reported, rounds as the clock read them)
    let wall_clock: [(Vec<f64>, Vec<f64>); 3] = [
        (
            timed
                .iter()
                .map(|r| r.blocks_per_s() * slowdown(spec, r))
                .collect(),
            timed.iter().map(Round::blocks_per_s).collect(),
        ),
        (
            latency
                .iter()
                .zip(&p50)
                .map(|(r, p50)| p50 / slowdown(spec, r))
                .collect(),
            p50.clone(),
        ),
        // Clock-free rounds only: in a long process the allocator keeps
        // what the first latency rounds freed, and set-up (mostly first
        // touches of fresh buffers) halves from then on.
        (
            timed
                .iter()
                .map(|r| r.setup_s / slowdown(spec, r))
                .collect(),
            timed.iter().map(|r| r.setup_s).collect(),
        ),
    ];
    let counted: [Vec<f64>; 4] = [
        all().map(Round::served_per_mop).collect(),
        all()
            .map(|r| r.per_kop(r.counts.version_fetches()))
            .collect(),
        latency.iter().map(|r| r.usage.bytes_per_mib()).collect(),
        timed.iter().map(Round::heap_peak_per_block).collect(),
    ];
    let (clocks, counts) = END_TO_END.split_at(wall_clock.len());
    let mut metrics: Vec<Measured> = clocks
        .iter()
        .zip(wall_clock)
        .map(|(m, (rounds, clocked))| Measured::calibrated(*m, rounds, median(&clocked)))
        .collect();
    metrics.extend(counts.iter().zip(counted).map(|(m, rounds)| {
        if m.kind == Kind::Exact {
            assert!(
                rounds.windows(2).all(|w| w[0] == w[1]),
                "{}: {} differs between rounds of one seed: {rounds:?}",
                spec.name,
                m.name
            );
        }
        Measured::new(*m, rounds)
    }));
    metrics
}

/// p99 of the clocked ops: median of the rounds' p99s, as the clock
/// read them.
///
/// # Panics
///
/// If a `full_size` round's p99 has fewer than ten samples beyond it
/// (the self-test's shrunken rounds are let off).
pub fn op_p99_ns(spec: &Spec, latency: &[Round], full_size: bool) -> f64 {
    let p99: Vec<(f64, usize)> = latency.iter().map(|r| latency_at(r, 990)).collect();
    let thin = p99.iter().map(|&(_, beyond)| beyond).min().unwrap_or(0);
    assert!(
        !full_size || thin >= stats::MIN_BEYOND,
        "{}: p99 of a latency round has only {thin} samples beyond it",
        spec.name
    );
    let rounds: Vec<f64> = p99.into_iter().map(|(ns, _)| ns).collect();
    median(&rounds)
}

/// The tail the latency rounds can support beyond p99: the highest of
/// the usual tail points with at least ten samples beyond it in the
/// pooled sample, as `(permille, ns, samples, beyond)`.
pub fn pooled_tail(latency: &[Round]) -> Option<(usize, f64, usize, usize)> {
    let mut pooled: Vec<u32> = latency
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    pooled.sort_unstable();
    let permille = stats::highest_supported_permille(pooled.len())?;
    let (ns, beyond) = stats::percentile_sorted(&pooled, permille)?;
    Some((permille, ns, pooled.len(), beyond))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| well_formed_name(n)));
        assert!(!well_formed_name("") && !well_formed_name(".hidden") && !well_formed_name("a b"));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn the_first_three_metrics_are_the_wall_clock_ones() {
        // `end_to_end` splits the catalogue there.
        let kinds: Vec<Kind> = END_TO_END.iter().map(|m| m.kind).collect();
        assert!(kinds[..3].iter().all(|&k| k == Kind::WallClock));
        assert!(kinds[3..].iter().all(|&k| k != Kind::WallClock));
    }

    #[test]
    fn a_slow_host_is_taken_out_of_rates_and_times_alike() {
        let spec = &crate::workloads::WORKLOADS[0];
        let mut round = Round {
            attempted: 1_000,
            replay_s: 2.0,
            setup_s: 0.5,
            ..Round::default()
        };
        assert_eq!(slowdown(spec, &round), 1.0);
        // The reference ran at half its nominal rate: the engine's 500
        // blocks/s count as 1000, its half second of set-up as a quarter.
        round.host.blocks_per_s = spec.ref_blocks_per_s / 2.0;
        assert_eq!(round.blocks_per_s() * slowdown(spec, &round), 1_000.0);
        assert_eq!(round.setup_s / slowdown(spec, &round), 0.25);
        // Its ops took twice their nominal median: 800 ns count as 400.
        round.host = crate::reference::HostSpeed {
            blocks_per_s: 0.0,
            op_p50_ns: spec.ref_op_p50_ns * 2.0,
        };
        assert_eq!(800.0 / slowdown(spec, &round), 400.0);
    }
}
