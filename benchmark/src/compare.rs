//! `compare <a.json> <b.json>`: is run B worse than run A, by the rule
//! the choosing-metrics guide gives for a small, noisy sandbox.

use crate::json::Value;
use crate::report::{Better, Kind, MetricSpec, END_TO_END};
use crate::stats::{quartiles, Quartiles};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The rounds of at least one run spread wider than the bound and
    /// the two runs' inter-quartile ranges overlap: the difference, or
    /// its absence, cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the rounds behind
/// it.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub quartiles: Quartiles,
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// The verdict on one metric of one workload. `exact` says whether the
/// metric must repeat bit-for-bit (an exact-kind metric, two runs of one
/// seed).
pub fn verdict(m: &MetricSpec, exact: bool, a: &Side, b: &Side) -> Verdict {
    let worse_by = worsening(m.better, a.value, b.value);
    if exact {
        return match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let noisy = a.quartiles.spread() > m.bound || b.quartiles.spread() > m.bound;
    let overlap = a.quartiles.q1 <= b.quartiles.q3 && b.quartiles.q1 <= a.quartiles.q3;
    if noisy && overlap {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(result: &Value, workload: &str, metric: &str) -> Result<Side, String> {
    let m = result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("{workload}.{metric}: not in the result file"))?;
    let value = m
        .get("value")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{workload}.{metric}: no value"))?;
    let rounds: Vec<f64> = m
        .get("rounds")
        .and_then(Value::as_arr)
        .map(|r| r.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let quartiles = quartiles(&rounds).ok_or_else(|| format!("{workload}.{metric}: no rounds"))?;
    Ok(Side { value, quartiles })
}

/// Compares two result files; prints one line per workload and metric
/// and returns whether B is acceptable (nothing `worse`, no more failed
/// ops than A).
///
/// # Errors
///
/// A message if either file lacks a workload or metric of the catalogue.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let mut ok = true;
    // Counts are fixed by the inputs; other inputs, other counts.
    let seed = |v: &Value| v.get("seed").and_then(Value::as_f64);
    let same_inputs = seed(a).is_some() && seed(a) == seed(b);
    if !same_inputs {
        println!("seeds differ: exact metrics are held to their bounds, not to equality");
    }
    println!(
        "{:<8} {:<26} {:>44} {:>44} {:>14} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A value [q1 median q3]",
        "B value [q1 median q3]",
        "B/A (base A)",
        "better",
        "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (sa, sb) = (side(a, w.name, m.name)?, side(b, w.name, m.name)?);
            let exact = same_inputs && m.kind == Kind::Exact;
            let v = verdict(m, exact, &sa, &sb);
            ok &= v != Verdict::Worse;
            let show = |s: &Side| {
                format!(
                    "{:.6e} [{:.4e} {:.4e} {:.4e}]",
                    s.value, s.quartiles.q1, s.quartiles.median, s.quartiles.q3
                )
            };
            println!(
                "{:<8} {:<26} {:>44} {:>44} {:>14.4} {:>7} {:>6}  {}",
                w.name,
                m.name,
                show(&sa),
                show(&sb),
                sb.value / sa.value,
                m.better.as_str(),
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.1}%", m.bound * 100.0)
                },
                v.as_str()
            );
        }
        // Served ops falling is failed ops rising; said once more in
        // the words the acceptance rule uses.
        let served = "served_ops_per_mop";
        let (sa, sb) = (side(a, w.name, served)?, side(b, w.name, served)?);
        if sb.value < sa.value {
            println!(
                "{:<8} more ops failed in B than in A ({} vs {} served per 10^6)",
                w.name, sb.value, sa.value
            );
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side_of(rounds: &[f64], better: Better) -> Side {
        let quartiles = quartiles(rounds).unwrap();
        let value = match better {
            Better::Higher => quartiles.q3,
            Better::Lower => quartiles.q1,
        };
        Side { value, quartiles }
    }

    const RATE: MetricSpec = MetricSpec {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        kind: Kind::WallClock,
    };

    #[test]
    fn a_real_twelve_percent_loss_is_worse() {
        let a = side_of(&[99.0, 100.0, 101.0, 100.5, 99.5], RATE.better);
        let b = side_of(&[87.0, 88.0, 89.0, 88.5, 87.5], RATE.better);
        assert_eq!(verdict(&RATE, false, &a, &b), Verdict::Worse);
        assert_eq!(verdict(&RATE, false, &b, &a), Verdict::Better);
    }

    #[test]
    fn twelve_percent_inside_overlapping_quartiles_is_unresolved() {
        // Same medians apart, but each run's rounds spread by a quarter
        // and the inter-quartile ranges overlap.
        let a = side_of(&[80.0, 92.0, 100.0, 108.0, 120.0], RATE.better);
        let b = side_of(&[70.0, 80.0, 88.0, 96.0, 106.0], RATE.better);
        assert!(a.quartiles.spread() > RATE.bound);
        assert_eq!(verdict(&RATE, false, &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn noise_without_overlap_is_still_resolved() {
        let a = side_of(&[80.0, 92.0, 100.0, 108.0, 120.0], RATE.better);
        let b = side_of(&[40.0, 46.0, 50.0, 54.0, 60.0], RATE.better);
        assert_eq!(verdict(&RATE, false, &a, &b), Verdict::Worse);
    }

    #[test]
    fn small_differences_are_the_same_and_times_read_the_other_way() {
        let a = side_of(&[99.0, 100.0, 101.0], RATE.better);
        let b = side_of(&[95.0, 96.0, 97.0], RATE.better);
        assert_eq!(verdict(&RATE, false, &a, &b), Verdict::Same);
        let time = MetricSpec {
            better: Better::Lower,
            ..RATE
        };
        let a = side_of(&[99.0, 100.0, 101.0], time.better);
        let b = side_of(&[119.0, 120.0, 121.0], time.better);
        assert_eq!(verdict(&time, false, &a, &b), Verdict::Worse);
        assert_eq!(verdict(&time, false, &b, &a), Verdict::Better);
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let count = MetricSpec {
            better: Better::Lower,
            kind: Kind::Exact,
            ..RATE
        };
        let a = side_of(&[515.5859375], count.better);
        let same = side_of(&[515.5859375], count.better);
        let more = side_of(&[515.5859376], count.better);
        assert_eq!(verdict(&count, true, &a, &same), Verdict::Same);
        assert_eq!(verdict(&count, true, &a, &more), Verdict::Worse);
        assert_eq!(verdict(&count, true, &more, &a), Verdict::Better);
        // Other seeds: the same metric is held to its bound instead.
        assert_eq!(verdict(&count, false, &a, &more), Verdict::Same);
    }
}
