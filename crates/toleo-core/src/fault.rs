//! Deterministic fault injection for the device link.
//!
//! A production deployment of a CXL-attached version device sees transient
//! link faults — timeouts, busy retries, dropped and duplicated responses —
//! that the paper's trust model abstracts away. [`FaultPlan`] injects those
//! faults *deterministically* from a seeded pseudo-random stream with
//! per-operation-type rates and optional burst windows, so an entire fault
//! campaign replays bit-for-bit from one seed.
//!
//! The plan draws from its **own** splitmix64 stream, never from the
//! device's D-RaNGe generator: injecting faults must not perturb the
//! stealth-version stream, or a faulted run would diverge from the
//! fault-free run for reasons unrelated to the faults themselves. The
//! [`DeviceChannel`](crate::channel::DeviceChannel) consumes the verdicts
//! and decides what to retry; this module only decides *what goes wrong
//! and when*.
//!
//! Set `TOLEO_FAULT_PLAN` (e.g. `seed=7,rate=1e-3`) to arm every engine
//! constructed through the default constructors — the CI `fault-smoke` job
//! runs the whole test suite this way.

use crate::error::{Result, ToleoError};

/// The transient fault classes the device link can exhibit. All of them
/// are *link-layer* events: the request or response is delayed, lost or
/// repeated, but no verification state is wrong. Integrity failures (MAC
/// or version mismatch) are **not** faults — they are never injected here
/// and never retried by the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request timed out before reaching the device; nothing executed.
    Timeout,
    /// The device answered "busy, retry later"; nothing executed.
    Busy,
    /// The device executed the request but the response was lost in
    /// transit. The link layer retransmits the buffered response on
    /// retry — the operation must **not** be re-issued (idempotency).
    DroppedResponse,
    /// The response arrived twice; the duplicate is discarded by the
    /// channel's sequence check.
    DuplicatedResponse,
}

/// Device operation classes a [`FaultPlan`] rates independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOp {
    /// READ / READ-run version fetches.
    Read,
    /// UPDATE version increments.
    Update,
    /// OS RESET downgrades.
    Reset,
}

/// Per-kind injection probabilities for one [`DeviceOp`] class. Each field
/// is the probability that one operation of this class suffers that fault
/// on a given delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability of [`FaultKind::Timeout`].
    pub timeout: f64,
    /// Probability of [`FaultKind::Busy`].
    pub busy: f64,
    /// Probability of [`FaultKind::DroppedResponse`].
    pub dropped: f64,
    /// Probability of [`FaultKind::DuplicatedResponse`].
    pub duplicated: f64,
}

impl FaultRates {
    /// Spreads `rate` evenly across the four fault kinds.
    pub fn uniform(rate: f64) -> Self {
        let each = rate / 4.0;
        FaultRates {
            timeout: each,
            busy: each,
            dropped: each,
            duplicated: each,
        }
    }

    /// Sum of all kind probabilities.
    pub fn total(&self) -> f64 {
        self.timeout + self.busy + self.dropped + self.duplicated
    }

    fn scaled(&self, factor: f64) -> Self {
        FaultRates {
            timeout: self.timeout * factor,
            busy: self.busy * factor,
            dropped: self.dropped * factor,
            duplicated: self.duplicated * factor,
        }
    }

    fn validate(&self, op: &str) -> Result<()> {
        for (name, p) in [
            ("timeout", self.timeout),
            ("busy", self.busy),
            ("dropped", self.dropped),
            ("duplicated", self.duplicated),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(ToleoError::InvalidConfig {
                    detail: format!("fault rate {op}.{name} = {p} outside 0..=1"),
                });
            }
        }
        if self.total() > 1.0 {
            return Err(ToleoError::InvalidConfig {
                detail: format!("fault rates for {op} sum to {} > 1", self.total()),
            });
        }
        Ok(())
    }
}

/// A periodic burst window during which all rates are multiplied: every
/// `period_ops` operations, the next `len_ops` operations see their fault
/// probabilities scaled by `multiplier` (clamped so the per-op total never
/// exceeds 1). Models correlated link noise — a flapping retimer, a
/// congested switch interval — rather than independent per-op faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindow {
    /// Window period in operations (must be non-zero).
    pub period_ops: u64,
    /// Burst length in operations at the start of each period.
    pub len_ops: u64,
    /// Rate multiplier inside the burst.
    pub multiplier: f64,
}

/// Full configuration of a fault plan: the stream seed, one
/// [`FaultRates`] per operation class, and an optional burst window.
// audit: allow(secret, seed is the fault-injection stream seed for reproducible campaigns, not key material)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed of the plan's private splitmix64 stream.
    pub seed: u64,
    /// Rates for READ-class operations.
    pub read: FaultRates,
    /// Rates for UPDATE-class operations.
    pub update: FaultRates,
    /// Rates for RESET-class operations.
    pub reset: FaultRates,
    /// Optional burst window applied on top of the base rates.
    pub burst: Option<BurstWindow>,
}

impl FaultPlanConfig {
    /// A plan injecting each fault kind with probability `rate / 4` on
    /// every operation class — the shape the acceptance campaigns use.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let rates = FaultRates::uniform(rate);
        FaultPlanConfig {
            seed,
            read: rates,
            update: rates,
            reset: rates,
            burst: None,
        }
    }

    /// Validates rates and the burst window.
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        self.read.validate("read")?;
        self.update.validate("update")?;
        self.reset.validate("reset")?;
        if let Some(b) = self.burst {
            if b.period_ops == 0 {
                return Err(ToleoError::InvalidConfig {
                    detail: "burst period_ops must be non-zero".to_string(),
                });
            }
            if b.len_ops > b.period_ops {
                return Err(ToleoError::InvalidConfig {
                    detail: format!(
                        "burst len_ops {} exceeds period_ops {}",
                        b.len_ops, b.period_ops
                    ),
                });
            }
            if !b.multiplier.is_finite() || b.multiplier < 0.0 {
                return Err(ToleoError::InvalidConfig {
                    detail: format!("burst multiplier {} must be finite and >= 0", b.multiplier),
                });
            }
        }
        Ok(())
    }

    /// Parses the `TOLEO_FAULT_PLAN` environment variable, if set.
    /// Returns `Ok(None)` when unset or empty — the fault-free default.
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] on malformed input: an armed but
    /// unparseable fault campaign must fail construction loudly, not run
    /// silently fault-free.
    pub fn from_env() -> Result<Option<Self>> {
        match std::env::var("TOLEO_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Parses a plan spec of comma-separated `key=value` pairs:
    ///
    /// * `seed=N` — stream seed (default 0).
    /// * `rate=R` — total per-op fault probability, spread evenly over the
    ///   four kinds and applied to all operation classes.
    /// * `timeout=R`, `busy=R`, `dropped=R`, `duplicated=R` — per-kind
    ///   overrides (applied to all operation classes, after `rate`).
    /// * `burst=PERIOD:LEN:MULT` — burst window.
    ///
    /// Example: `seed=7,rate=1e-3` or `seed=9,dropped=0.01,burst=1000:50:10`.
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] describing the offending token.
    pub fn parse(spec: &str) -> Result<Self> {
        fn bad(detail: String) -> ToleoError {
            ToleoError::InvalidConfig { detail }
        }
        fn f64_of(field: &str, v: &str) -> Result<f64> {
            v.parse::<f64>()
                .map_err(|e| bad(format!("TOLEO_FAULT_PLAN {field}={v:?}: {e}")))
        }
        let mut cfg = FaultPlanConfig::uniform(0, 0.0);
        let mut set_all = |f: &mut dyn FnMut(&mut FaultRates)| {
            f(&mut cfg.read);
            f(&mut cfg.update);
            f(&mut cfg.reset);
        };
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (field, value) = token
                .split_once('=')
                .ok_or_else(|| bad(format!("TOLEO_FAULT_PLAN token {token:?} is not key=value")))?;
            match field.trim() {
                "seed" => {
                    cfg.seed = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|e| bad(format!("TOLEO_FAULT_PLAN seed={value:?}: {e}")))?;
                }
                "rate" => {
                    let rates = FaultRates::uniform(f64_of("rate", value.trim())?);
                    set_all(&mut |r| *r = rates);
                }
                "timeout" => {
                    let p = f64_of("timeout", value.trim())?;
                    set_all(&mut |r| r.timeout = p);
                }
                "busy" => {
                    let p = f64_of("busy", value.trim())?;
                    set_all(&mut |r| r.busy = p);
                }
                "dropped" => {
                    let p = f64_of("dropped", value.trim())?;
                    set_all(&mut |r| r.dropped = p);
                }
                "duplicated" => {
                    let p = f64_of("duplicated", value.trim())?;
                    set_all(&mut |r| r.duplicated = p);
                }
                "burst" => {
                    let mut parts = value.trim().split(':');
                    let mut next = |name: &str| -> Result<&str> {
                        parts.next().ok_or_else(|| {
                            bad(format!("TOLEO_FAULT_PLAN burst={value:?} missing {name}"))
                        })
                    };
                    let period = next("period")?;
                    let len = next("len")?;
                    let mult = next("multiplier")?;
                    cfg.burst = Some(BurstWindow {
                        period_ops: period
                            .parse::<u64>()
                            .map_err(|e| bad(format!("burst period {period:?}: {e}")))?,
                        len_ops: len
                            .parse::<u64>()
                            .map_err(|e| bad(format!("burst len {len:?}: {e}")))?,
                        multiplier: f64_of("burst multiplier", mult)?,
                    });
                }
                other => {
                    return Err(bad(format!("TOLEO_FAULT_PLAN unknown key {other:?}")));
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// The armed fault injector: a validated [`FaultPlanConfig`] plus the
/// private splitmix64 stream and an operation counter for burst windows.
/// One plan belongs to one [`DeviceChannel`](crate::channel::DeviceChannel)
/// — per-shard channels derive distinct effective seeds so shards draw
/// independent fault streams.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    state: u64,
    ops_seen: u64,
}

impl FaultPlan {
    /// Arms a plan after validating its configuration.
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] from [`FaultPlanConfig::validate`].
    pub fn new(cfg: FaultPlanConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(FaultPlan {
            cfg,
            state: cfg.seed,
            ops_seen: 0,
        })
    }

    /// Arms a plan whose stream is re-seeded by mixing `salt` into the
    /// configured seed — how a sharded engine gives every shard its own
    /// independent fault stream from one campaign spec.
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] from [`FaultPlanConfig::validate`].
    pub fn with_salt(cfg: FaultPlanConfig, salt: u64) -> Result<Self> {
        let mut plan = Self::new(cfg)?;
        plan.state = splitmix64(cfg.seed ^ splitmix64(salt));
        plan.cfg.seed = plan.state;
        Ok(plan)
    }

    /// The plan's configuration (with the effective, possibly salted seed).
    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    /// Operations this plan has judged so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Judges one delivery attempt of an operation of class `op`: returns
    /// the fault to inject, or `None` for a clean delivery. Deterministic
    /// in (seed, call sequence).
    pub fn decide(&mut self, op: DeviceOp) -> Option<FaultKind> {
        let n = self.ops_seen;
        self.ops_seen += 1;
        let mut rates = match op {
            DeviceOp::Read => self.cfg.read,
            DeviceOp::Update => self.cfg.update,
            DeviceOp::Reset => self.cfg.reset,
        };
        if let Some(b) = self.cfg.burst {
            if n % b.period_ops < b.len_ops {
                rates = rates.scaled(b.multiplier);
                let total = rates.total();
                if total > 1.0 {
                    rates = rates.scaled(1.0 / total);
                }
            }
        }
        let draw = self.next_f64();
        let mut acc = rates.timeout;
        if draw < acc {
            return Some(FaultKind::Timeout);
        }
        acc += rates.busy;
        if draw < acc {
            return Some(FaultKind::Busy);
        }
        acc += rates.dropped;
        if draw < acc {
            return Some(FaultKind::DroppedResponse);
        }
        acc += rates.duplicated;
        if draw < acc {
            return Some(FaultKind::DuplicatedResponse);
        }
        None
    }

    fn next_f64(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = splitmix64(self.state);
        // 53 uniform mantissa bits in [0, 1).
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The splitmix64 finalizer (same constants as the shard-seed derivation).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let cfg = FaultPlanConfig::uniform(42, 0.3);
        let mut a = FaultPlan::new(cfg).unwrap();
        let mut b = FaultPlan::new(cfg).unwrap();
        for _ in 0..10_000 {
            assert_eq!(a.decide(DeviceOp::Read), b.decide(DeviceOp::Read));
        }
    }

    #[test]
    fn different_seeds_diverge_and_salt_reseeds() {
        let mut a = FaultPlan::new(FaultPlanConfig::uniform(1, 0.5)).unwrap();
        let mut b = FaultPlan::new(FaultPlanConfig::uniform(2, 0.5)).unwrap();
        let va: Vec<_> = (0..256).map(|_| a.decide(DeviceOp::Update)).collect();
        let vb: Vec<_> = (0..256).map(|_| b.decide(DeviceOp::Update)).collect();
        assert_ne!(va, vb);
        let mut s1 = FaultPlan::with_salt(FaultPlanConfig::uniform(1, 0.5), 10).unwrap();
        let mut s2 = FaultPlan::with_salt(FaultPlanConfig::uniform(1, 0.5), 11).unwrap();
        let v1: Vec<_> = (0..256).map(|_| s1.decide(DeviceOp::Update)).collect();
        let v2: Vec<_> = (0..256).map(|_| s2.decide(DeviceOp::Update)).collect();
        assert_ne!(v1, v2, "different salts must give different streams");
    }

    #[test]
    fn injection_rate_tracks_configuration() {
        let mut plan = FaultPlan::new(FaultPlanConfig::uniform(7, 0.2)).unwrap();
        let n = 100_000u64;
        let faults = (0..n)
            .filter(|_| plan.decide(DeviceOp::Read).is_some())
            .count() as f64;
        let rate = faults / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn zero_rate_never_faults() {
        let mut plan = FaultPlan::new(FaultPlanConfig::uniform(3, 0.0)).unwrap();
        for _ in 0..10_000 {
            assert_eq!(plan.decide(DeviceOp::Update), None);
        }
    }

    #[test]
    fn per_op_rates_are_independent() {
        let mut cfg = FaultPlanConfig::uniform(5, 0.0);
        cfg.update = FaultRates::uniform(0.8);
        let mut plan = FaultPlan::new(cfg).unwrap();
        let read_faults = (0..4_000)
            .filter(|_| plan.decide(DeviceOp::Read).is_some())
            .count();
        let update_faults = (0..4_000)
            .filter(|_| plan.decide(DeviceOp::Update).is_some())
            .count();
        assert_eq!(read_faults, 0);
        assert!(update_faults > 2_800, "update faults: {update_faults}");
    }

    #[test]
    fn burst_windows_concentrate_faults() {
        let mut cfg = FaultPlanConfig::uniform(9, 0.01);
        cfg.burst = Some(BurstWindow {
            period_ops: 1_000,
            len_ops: 100,
            multiplier: 50.0,
        });
        let mut plan = FaultPlan::new(cfg).unwrap();
        let mut in_burst = 0u64;
        let mut outside = 0u64;
        for i in 0..100_000u64 {
            let fault = plan.decide(DeviceOp::Read).is_some();
            if fault {
                if i % 1_000 < 100 {
                    in_burst += 1;
                } else {
                    outside += 1;
                }
            }
        }
        // 10% of ops sit in bursts at 50x the rate: bursts should dominate.
        assert!(
            in_burst > 5 * outside,
            "in_burst {in_burst} vs outside {outside}"
        );
    }

    #[test]
    fn parse_accepts_the_smoke_spec() {
        let cfg = FaultPlanConfig::parse("seed=7,rate=1e-3").unwrap();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.read.total() - 1e-3).abs() < 1e-12);
        assert!((cfg.update.total() - 1e-3).abs() < 1e-12);
        assert_eq!(cfg.burst, None);
    }

    #[test]
    fn parse_accepts_overrides_and_bursts() {
        let cfg = FaultPlanConfig::parse("seed=9, dropped=0.01, burst=1000:50:10").unwrap();
        assert_eq!(cfg.read.dropped, 0.01);
        assert_eq!(cfg.read.timeout, 0.0);
        let b = cfg.burst.unwrap();
        assert_eq!((b.period_ops, b.len_ops), (1_000, 50));
        assert_eq!(b.multiplier, 10.0);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "seed",
            "seed=x",
            "rate=2.0",      // total > 1
            "rate=-0.1",     // negative
            "burst=10:20:1", // len > period
            "burst=0:0:1",   // zero period
            "burst=10:2",    // missing multiplier
            "unknown=1",
        ] {
            assert!(
                matches!(
                    FaultPlanConfig::parse(bad),
                    Err(ToleoError::InvalidConfig { .. })
                ),
                "spec {bad:?} must be rejected"
            );
        }
    }

    /// One fixture per malformed shape the `TOLEO_FAULT_PLAN` grammar can
    /// produce: each must yield a typed [`ToleoError::InvalidConfig`]
    /// whose detail names the offending token — never a panic, and never
    /// a silently fault-free plan.
    #[test]
    fn parse_reports_the_offending_token_per_malformed_shape() {
        let fixtures: [(&str, &str); 15] = [
            // key=value framing
            ("seed", "is not key=value"),
            ("seed=7,, burst", "is not key=value"),
            ("=3", "unknown key \"\""),
            ("frobnicate=1", "unknown key \"frobnicate\""),
            // seed shapes
            ("seed=x", "seed=\"x\""),
            ("seed=-1", "seed=\"-1\""),
            ("seed=1.5", "seed=\"1.5\""),
            // rate shapes
            ("rate=abc", "rate=\"abc\""),
            ("rate=1e", "rate=\"1e\""),
            ("rate=nan", "outside 0..=1"),
            ("dropped=2", "outside 0..=1"),
            ("timeout=0.6,busy=0.6", "sum to 1.2 > 1"),
            // burst shapes
            ("burst=10", "missing len"),
            ("burst=ten:2:1", "burst period \"ten\""),
            ("burst=10:2:x", "burst multiplier=\"x\""),
        ];
        for (spec, expected) in fixtures {
            match FaultPlanConfig::parse(spec) {
                Err(ToleoError::InvalidConfig { detail }) => assert!(
                    detail.contains(expected),
                    "spec {spec:?}: detail {detail:?} must mention {expected:?}"
                ),
                other => panic!("spec {spec:?} must fail typed, got {other:?}"),
            }
        }
        // The complement of "never silently fault-free": a well-formed
        // spec arms exactly what it says.
        let ok = FaultPlanConfig::parse("seed=3,timeout=0.2").unwrap();
        assert_eq!(ok.seed, 3);
        assert_eq!(ok.read.timeout, 0.2);
        assert!(ok.read.total() > 0.0);
    }

    #[test]
    fn validate_rejects_oversubscribed_rates() {
        let mut cfg = FaultPlanConfig::uniform(0, 0.9);
        cfg.read.timeout = 0.5; // total now > 1
        assert!(matches!(
            FaultPlan::new(cfg),
            Err(ToleoError::InvalidConfig { .. })
        ));
    }
}
