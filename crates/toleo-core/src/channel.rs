//! The fault plane between the protection engine and the Toleo device.
//!
//! [`DeviceChannel`] wraps every device operation the engine issues and
//! classifies each outcome:
//!
//! * **Transient** — link timeout, device busy, dropped or duplicated
//!   response (injected deterministically by a [`FaultPlan`]). The channel
//!   absorbs these with bounded exponential backoff under a per-op retry
//!   budget. A dropped response is retransmitted from the link buffer,
//!   **never** re-issued to the device — so a retried UPDATE can never
//!   double-apply a version increment, and the device's state and counters
//!   stay bit-identical to a fault-free run.
//! * **Integrity** — MAC or version mismatch. These are *not* channel
//!   events: they surface from the engine's verification, are never
//!   retried, and always fail closed. The channel also never retries the
//!   device's own protocol errors ([`DeviceFull`](crate::error::ToleoError::DeviceFull),
//!   [`PageOutOfRange`](crate::error::ToleoError::PageOutOfRange)) — those
//!   are well-formed responses, not link failures.
//!
//! Exhausting the retry budget means the freshness device is unreachable:
//! the channel reports [`ToleoError::DeviceUnavailable`] and the engine
//! fails closed (a host that cannot verify freshness must stop serving).
//!
//! Backoff is accounted in *virtual* nanoseconds ([`ChannelStats::backoff_nanos`])
//! rather than slept, keeping fault campaigns fast and deterministic.

use crate::config::ToleoConfig;
use crate::device::{ToleoDevice, UpdateResponse};
use crate::error::{Result, ToleoError};
use crate::fault::{DeviceOp, FaultKind, FaultPlan};
use crate::trip::TripFormat;
use crate::version::StealthVersion;

/// Retry policy for transient device-link faults: how many delivery
/// attempts one operation gets, and the exponential backoff between them.
/// A tunable policy surface, not a hardcoded constant — deployments trade
/// tail latency against fail-closed sensitivity here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum delivery attempts per operation (>= 1). Attempt
    /// `max_attempts` failing transiently reports
    /// [`ToleoError::DeviceUnavailable`].
    pub max_attempts: u32,
    /// Backoff before the first retry, in nanoseconds.
    pub base_backoff_nanos: u64,
    /// Upper bound on any single backoff, in nanoseconds.
    pub max_backoff_nanos: u64,
}

impl Default for RetryPolicy {
    /// CXL-flavored defaults: 8 attempts, 200 ns doubling to a 100 µs cap.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_nanos: 200,
            max_backoff_nanos: 100_000,
        }
    }
}

impl RetryPolicy {
    /// The exponential backoff charged before retry number `retry`
    /// (1-based): `base * 2^(retry-1)`, capped at `max_backoff_nanos`.
    pub fn backoff_nanos(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(63);
        self.base_backoff_nanos
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_nanos)
    }
}

/// Channel event counters: everything the fault plane observed and did.
/// Thread through [`RobustnessStats`](crate::sharded::RobustnessStats) for
/// the sharded aggregate and the bench `availability` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Operations that entered the channel while a fault plan was armed.
    pub ops: u64,
    /// Faults the plan injected.
    pub faults_injected: u64,
    /// Injected faults absorbed by an operation that ultimately succeeded.
    pub faults_absorbed: u64,
    /// Retries performed (delivery attempts beyond the first).
    pub retries: u64,
    /// Virtual nanoseconds of exponential backoff charged.
    pub backoff_nanos: u64,
    /// Responses replayed from the link buffer after a dropped response —
    /// each is an operation that was *not* re-issued to the device.
    pub replayed_responses: u64,
    /// Duplicate responses discarded by the sequence check.
    pub duplicates_discarded: u64,
    /// Operations that exhausted the retry budget
    /// ([`ToleoError::DeviceUnavailable`]).
    pub retry_exhaustions: u64,
}

impl ChannelStats {
    /// Accumulates another channel's counters into this one (sharded
    /// aggregation).
    pub fn merge(&mut self, other: &ChannelStats) {
        self.ops += other.ops;
        self.faults_injected += other.faults_injected;
        self.faults_absorbed += other.faults_absorbed;
        self.retries += other.retries;
        self.backoff_nanos += other.backoff_nanos;
        self.replayed_responses += other.replayed_responses;
        self.duplicates_discarded += other.duplicates_discarded;
        self.retry_exhaustions += other.retry_exhaustions;
    }
}

/// The device channel: owns the [`ToleoDevice`] and mediates every
/// request with fault classification, bounded retry, and idempotent
/// response replay. With no fault plan armed (the production default in
/// this simulation), every call is a direct pass-through plus one branch.
#[derive(Debug)]
pub struct DeviceChannel {
    device: ToleoDevice,
    plan: Option<FaultPlan>,
    policy: RetryPolicy,
    stats: ChannelStats,
}

impl DeviceChannel {
    /// Wraps `device` with a retry `policy` and an optional fault plan.
    pub fn new(device: ToleoDevice, plan: Option<FaultPlan>, policy: RetryPolicy) -> Self {
        DeviceChannel {
            device,
            plan,
            policy,
            stats: ChannelStats::default(),
        }
    }

    /// The wrapped device (telemetry: usage, stats, config).
    pub fn device(&self) -> &ToleoDevice {
        &self.device
    }

    /// Mutable access to the wrapped device, bypassing the fault plane
    /// (in-crate tests and tooling only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn device_mut(&mut self) -> &mut ToleoDevice {
        &mut self.device
    }

    /// The device configuration.
    pub fn config(&self) -> &ToleoConfig {
        self.device.config()
    }

    /// Channel event counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// UPDATE through the fault plane (see [`ToleoDevice::update`]).
    ///
    /// # Errors
    ///
    /// The device's own errors pass through unretried;
    /// [`ToleoError::DeviceUnavailable`] if transient faults exhaust the
    /// retry budget.
    pub fn update(&mut self, page: u64, line: usize) -> Result<UpdateResponse> {
        self.run_op(DeviceOp::Update, page, |dev| dev.update(page, line))
    }

    /// READ-with-format through the fault plane (see
    /// [`ToleoDevice::read_versioned`]).
    ///
    /// # Errors
    ///
    /// As [`update`](Self::update).
    pub fn read_versioned(
        &mut self,
        page: u64,
        line: usize,
    ) -> Result<(StealthVersion, TripFormat)> {
        self.run_op(DeviceOp::Read, page, |dev| dev.read_versioned(page, line))
    }

    /// RESET through the fault plane (see [`ToleoDevice::reset`]).
    ///
    /// # Errors
    ///
    /// As [`update`](Self::update).
    pub fn reset(&mut self, page: u64) -> Result<StealthVersion> {
        self.run_op(DeviceOp::Reset, page, |dev| dev.reset(page))
    }

    /// The retry loop: judges each delivery attempt against the fault
    /// plan, absorbs transients with backoff, and enforces the idempotency
    /// guard — an operation whose response was dropped is replayed from
    /// the link buffer (`pending`), never re-issued to the device.
    fn run_op<T>(
        &mut self,
        op: DeviceOp,
        page: u64,
        mut issue: impl FnMut(&mut ToleoDevice) -> Result<T>,
    ) -> Result<T> {
        let Some(plan) = self.plan.as_mut() else {
            return issue(&mut self.device);
        };
        self.stats.ops += 1;
        let mut attempts: u32 = 1;
        let mut injected_this_op: u64 = 0;
        // Link buffer for a response whose delivery was dropped: the op
        // executed exactly once; the retry consumes this instead of
        // re-issuing.
        let mut pending: Option<T> = None;
        loop {
            if let Some(response) = pending.take() {
                self.stats.replayed_responses += 1;
                self.stats.faults_absorbed += injected_this_op;
                return Ok(response);
            }
            match plan.decide(op) {
                None => {
                    let result = issue(&mut self.device);
                    if result.is_ok() {
                        self.stats.faults_absorbed += injected_this_op;
                    }
                    return result;
                }
                Some(FaultKind::DuplicatedResponse) => {
                    self.stats.faults_injected += 1;
                    injected_this_op += 1;
                    let response = issue(&mut self.device)?;
                    self.stats.duplicates_discarded += 1;
                    self.stats.faults_absorbed += injected_this_op;
                    return Ok(response);
                }
                Some(FaultKind::DroppedResponse) => {
                    self.stats.faults_injected += 1;
                    injected_this_op += 1;
                    // The device executes the op; only the response is
                    // lost. Buffer it for the retry.
                    pending = Some(issue(&mut self.device)?);
                }
                Some(FaultKind::Timeout) | Some(FaultKind::Busy) => {
                    // The request never executed; a plain re-issue is safe.
                    self.stats.faults_injected += 1;
                    injected_this_op += 1;
                }
            }
            if attempts >= self.policy.max_attempts {
                self.stats.retry_exhaustions += 1;
                return Err(ToleoError::DeviceUnavailable { page, attempts });
            }
            self.stats.retries += 1;
            self.stats.backoff_nanos += self.policy.backoff_nanos(attempts);
            attempts += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlanConfig;

    fn device() -> ToleoDevice {
        ToleoDevice::new(ToleoConfig::small()).unwrap()
    }

    fn channel(rate: f64, seed: u64) -> DeviceChannel {
        let plan = FaultPlan::new(FaultPlanConfig::uniform(seed, rate)).unwrap();
        DeviceChannel::new(device(), Some(plan), RetryPolicy::default())
    }

    /// The core idempotency theorem, exhaustively: under any mix of
    /// transient faults, a faulted channel and a fault-free device that
    /// execute the same operation sequence end in bit-identical device
    /// state (versions AND counters) and return identical responses.
    #[test]
    fn faulted_channel_matches_fault_free_device_exactly() {
        for seed in 0..8u64 {
            let mut faulted = channel(0.45, seed);
            let mut clean = device();
            for i in 0..2_000u64 {
                let page = i % 7;
                let line = (i % 64) as usize;
                match i % 5 {
                    0 | 1 => {
                        let a = faulted.update(page, line).unwrap();
                        let b = clean.update(page, line).unwrap();
                        assert_eq!(a.stealth, b.stealth, "seed {seed} op {i}");
                        assert_eq!(a.format, b.format);
                        assert_eq!(a.reset.is_some(), b.reset.is_some());
                    }
                    _ => {
                        let a = faulted.read_versioned(page, line).unwrap();
                        let b = clean.read_versioned(page, line).unwrap();
                        assert_eq!(a, b, "seed {seed} op {i}");
                    }
                }
            }
            assert_eq!(
                faulted.device().stats(),
                clean.stats(),
                "seed {seed}: retries must never re-issue to the device"
            );
            let s = faulted.stats();
            assert!(s.faults_injected > 0, "seed {seed} must exercise faults");
            assert_eq!(s.retry_exhaustions, 0);
            assert!(s.retries > 0 && s.backoff_nanos > 0);
        }
    }

    #[test]
    fn dropped_response_is_replayed_not_reissued() {
        let mut cfg = FaultPlanConfig::uniform(11, 0.0);
        // Every op drops its first response, then delivers the replay.
        cfg.update.dropped = 0.9999;
        let mut ch = DeviceChannel::new(
            device(),
            Some(FaultPlan::new(cfg).unwrap()),
            RetryPolicy::default(),
        );
        let r1 = ch.update(0, 0).unwrap();
        let before = ch.device().stats().updates;
        assert_eq!(before, 1, "exactly one device UPDATE despite the retry");
        // The version advanced exactly once.
        let v = ch.read_versioned(0, 0).map(|(s, _)| s);
        assert_eq!(v.unwrap(), r1.stealth);
        assert!(ch.stats().replayed_responses >= 1);
    }

    #[test]
    fn duplicate_responses_are_discarded() {
        let mut cfg = FaultPlanConfig::uniform(3, 0.0);
        cfg.update.duplicated = 0.9999;
        let mut ch = DeviceChannel::new(
            device(),
            Some(FaultPlan::new(cfg).unwrap()),
            RetryPolicy::default(),
        );
        for _ in 0..50 {
            ch.update(1, 2).unwrap();
        }
        assert_eq!(ch.device().stats().updates, 50);
        assert_eq!(ch.stats().duplicates_discarded, 50);
        assert_eq!(ch.stats().retries, 0, "duplicates need no retry");
    }

    #[test]
    fn budget_exhaustion_reports_device_unavailable() {
        let mut cfg = FaultPlanConfig::uniform(5, 0.0);
        cfg.read.timeout = 1.0;
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let mut ch = DeviceChannel::new(device(), Some(FaultPlan::new(cfg).unwrap()), policy);
        match ch.read_versioned(3, 0) {
            Err(ToleoError::DeviceUnavailable {
                page: 3,
                attempts: 4,
            }) => {}
            other => panic!("expected DeviceUnavailable after 4 attempts, got {other:?}"),
        }
        let s = ch.stats();
        assert_eq!(s.retry_exhaustions, 1);
        assert_eq!(s.retries, 3, "4 attempts = 3 retries");
        assert_eq!(
            ch.device().stats().reads,
            0,
            "timed-out requests never reach the device"
        );
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let policy = RetryPolicy {
            max_attempts: 16,
            base_backoff_nanos: 100,
            max_backoff_nanos: 1_000,
        };
        assert_eq!(policy.backoff_nanos(1), 100);
        assert_eq!(policy.backoff_nanos(2), 200);
        assert_eq!(policy.backoff_nanos(3), 400);
        assert_eq!(policy.backoff_nanos(4), 800);
        assert_eq!(policy.backoff_nanos(5), 1_000, "capped");
        assert_eq!(policy.backoff_nanos(60), 1_000, "still capped");
    }

    #[test]
    fn device_protocol_errors_pass_through_unretried() {
        let mut cfg = ToleoConfig::small();
        cfg.device_capacity_bytes = cfg.flat_array_bytes(); // zero dynamic blocks
        let dev = ToleoDevice::new(cfg).unwrap();
        let plan = FaultPlan::new(FaultPlanConfig::uniform(1, 0.0)).unwrap();
        let mut ch = DeviceChannel::new(dev, Some(plan), RetryPolicy::default());
        ch.update(0, 3).unwrap();
        assert!(matches!(
            ch.update(0, 3),
            Err(ToleoError::DeviceFull { page: 0 })
        ));
        assert_eq!(
            ch.stats().retries,
            0,
            "DeviceFull is a response, not a fault"
        );
        let pages = ch.config().protected_pages();
        assert!(matches!(
            ch.read_versioned(pages, 0),
            Err(ToleoError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn unarmed_channel_is_transparent() {
        let mut ch = DeviceChannel::new(device(), None, RetryPolicy::default());
        ch.update(0, 0).unwrap();
        ch.read_versioned(0, 0).unwrap();
        ch.reset(0).unwrap();
        assert_eq!(ch.stats(), ChannelStats::default());
    }
}
