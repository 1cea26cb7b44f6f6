//! Overload policies: feasibility shedding, stall watchdog, and brownout
//! degradation.
//!
//! Everything decision-shaped in this module is a **pure function** of
//! explicitly-passed observations — the same discipline as
//! [`flush_decision`](crate::flush_decision) — so the proptest suite can
//! pin monotonicity and arrival-order invariance without threads. The
//! impure parts (atomics holding the EWMA, the supervisor thread driving
//! the watchdog and the brownout controller) live in `service.rs` and
//! `metrics.rs` and only ever *call* these functions.
//!
//! The three policies:
//!
//! * [`FeasibilityPolicy`] — refuse requests whose predicted queue wait
//!   ([`predicted_wait`]: `ceil(queued / max_batch)` flushes at the lane's
//!   EWMA flush latency, [`ewma_update`]) already exceeds their deadline.
//!   Shedding a doomed request at submit hands its chain straight back
//!   instead of burning a queue slot to produce a late failure.
//! * [`WatchdogPolicy`] — bound how long a flush may sit inside execution
//!   before the supervisor declares the lane stalled and fails it through
//!   the quarantine machinery ([`ServeError::FlushStalled`](crate::ServeError::FlushStalled)).
//! * [`BrownoutPolicy`] / [`BrownoutLevel`] / [`BrownoutState`] — a
//!   hysteresis ladder stepping service quality down (and back up) one
//!   level at a time as shed-rate and memory-budget signals persist.

use std::time::Duration;

/// EWMA weight: each new sample contributes `1/2^EWMA_SHIFT` (= 1/8) of
/// the estimate. Integer shift keeps the policy types `Copy + Eq` and the
/// update branch-free on the dispatcher.
pub const EWMA_SHIFT: u32 = 3;

/// Folds one observed flush latency into the running EWMA (both in
/// nanoseconds). A zero `prev` means "no estimate yet" and adopts the
/// sample outright; afterwards
/// `next = prev - prev/2^`[`EWMA_SHIFT`]` + sample/2^`[`EWMA_SHIFT`].
///
/// Monotone in both arguments (pinned by proptests): a slower sample or a
/// slower history never *lowers* the estimate.
pub fn ewma_update(prev_nanos: u64, sample_nanos: u64) -> u64 {
    if prev_nanos == 0 {
        return sample_nanos;
    }
    prev_nanos - (prev_nanos >> EWMA_SHIFT) + (sample_nanos >> EWMA_SHIFT)
}

/// Predicted queue wait behind `queued` already-pending requests:
/// `ceil(queued / max_batch)` flushes, each taking `ewma_flush`. The
/// arriving request does not count itself — [`admit`](crate::admit) passes
/// the current queue depth, so an empty queue predicts zero wait.
///
/// Pure in its arguments — two submitters observing the same queue depth
/// and estimate get the same prediction regardless of arrival order (the
/// `flush_decision`-style invariance the proptests pin). Monotone in
/// `queued` and in `ewma_flush`, anti-monotone in `max_batch`.
pub fn predicted_wait(queued: usize, max_batch: usize, ewma_flush: Duration) -> Duration {
    debug_assert!(max_batch > 0, "predicted_wait: max_batch must be non-zero");
    let flushes = queued.div_ceil(max_batch.max(1)) as u32;
    ewma_flush.saturating_mul(flushes)
}

/// Feasibility sub-policy of [`ShedPolicy`](crate::ShedPolicy): refuse a
/// request up front ([`SubmitError::Infeasible`](crate::SubmitError::Infeasible))
/// when its predicted wait exceeds its deadline.
///
/// The estimator needs history before it can be trusted: no request is
/// ever shed on feasibility before the lane has timed at least
/// [`min_flushes`](Self::min_flushes) flushes (the cold-start gate), and a
/// still-warming lane — which has timed none — therefore never
/// feasibility-sheds at all (warming admission stays governed by
/// [`ShedPolicy::min_warming_delay`](crate::ShedPolicy::min_warming_delay)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasibilityPolicy {
    /// Observed (timed) flushes required before predictions are acted on.
    /// `0` behaves as `1`: an estimate only exists after the first timed
    /// flush.
    pub min_flushes: u64,
}

impl Default for FeasibilityPolicy {
    /// Trust the estimator after 8 timed flushes — one full EWMA window at
    /// the [`EWMA_SHIFT`] weight.
    fn default() -> Self {
        Self { min_flushes: 8 }
    }
}

impl FeasibilityPolicy {
    /// Whether a request that can wait at most `deadline` should be
    /// refused, given the lane's current estimate. `estimate` is `None`
    /// below the cold-start gate (then nothing is shed). Pure; exclusive
    /// boundary — a predicted wait exactly equal to the deadline is still
    /// feasible.
    pub fn sheds(
        &self,
        queued: usize,
        max_batch: usize,
        estimate: Option<Duration>,
        deadline: Duration,
    ) -> bool {
        match estimate {
            Some(ewma) => predicted_wait(queued, max_batch, ewma) > deadline,
            None => false,
        }
    }
}

/// Stall-watchdog configuration: enables the per-service supervisor
/// thread via [`ServeConfig::watchdog`](crate::ServeConfig::watchdog).
///
/// The dispatcher publishes each flush's ticket set and start instant
/// before executing; the supervisor polls every
/// [`poll_interval`](Self::poll_interval) and, when a flush has been
/// executing longer than [`stall_budget`](Self::stall_budget), condemns
/// the lane: assembled requests fail with
/// [`ServeError::FlushStalled`](crate::ServeError::FlushStalled), queued
/// requests fail with chains handed back, and the shape is quarantined
/// for the breaker cool-down (half-open probe recovery as usual). Every
/// affected waiter therefore resolves within
/// `stall_budget + poll_interval` plus scheduling grace — no ticket ever
/// hangs on a stalled (not panicked) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Longest a single flush may sit inside execution before the lane is
    /// declared stalled.
    pub stall_budget: Duration,
    /// How often the supervisor samples lane progress. Bounds detection
    /// latency on top of `stall_budget`; keep it a fraction of the budget.
    pub poll_interval: Duration,
}

impl Default for WatchdogPolicy {
    /// A 2 s stall budget sampled every 100 ms — far above any healthy
    /// flush, far below a hung one.
    fn default() -> Self {
        Self {
            stall_budget: Duration::from_secs(2),
            poll_interval: Duration::from_millis(100),
        }
    }
}

impl WatchdogPolicy {
    /// Panics if the policy is not internally consistent (zero budget or
    /// poll interval).
    pub fn validate(&self) {
        assert!(
            !self.stall_budget.is_zero(),
            "WatchdogPolicy::stall_budget must be non-zero"
        );
        assert!(
            !self.poll_interval.is_zero(),
            "WatchdogPolicy::poll_interval must be non-zero"
        );
    }

    /// Pure stall predicate: has a flush running `elapsed` exceeded the
    /// budget? Exclusive boundary — exactly `stall_budget` is not yet a
    /// stall.
    pub fn is_stalled(&self, elapsed: Duration) -> bool {
        elapsed > self.stall_budget
    }
}

/// Degradation levels a service steps through under sustained pressure,
/// most degraded last. Each level includes every effect of the levels
/// before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum BrownoutLevel {
    /// Full service quality.
    #[default]
    Normal = 0,
    /// New lane warm-ups plan unsegmented (cheaper plans, less peak
    /// concurrency per request). Existing lanes keep their plans.
    NoSegmentation = 1,
    /// Additionally, dispatchers halve their effective `max_batch`
    /// (smaller flushes bound per-flush latency and workspace pressure).
    HalfBatch = 2,
    /// Additionally, cold shapes are declined at the router
    /// ([`SubmitError::MemoryPressure`](crate::SubmitError::MemoryPressure))
    /// instead of creating new lanes.
    DeclineColdShapes = 3,
}

impl BrownoutLevel {
    /// Recovers a level from its `u8` encoding (out-of-range saturates to
    /// the most degraded level — fail safe, not fail open).
    pub fn from_u8(raw: u8) -> Self {
        match raw {
            0 => Self::Normal,
            1 => Self::NoSegmentation,
            2 => Self::HalfBatch,
            _ => Self::DeclineColdShapes,
        }
    }

    /// The effective batch cap at this level: halved (min 1) from
    /// [`HalfBatch`](Self::HalfBatch) up.
    pub fn effective_max_batch(self, max_batch: usize) -> usize {
        if self >= Self::HalfBatch {
            (max_batch / 2).max(1)
        } else {
            max_batch
        }
    }
}

/// Hysteresis thresholds for the brownout controller, enabled via
/// [`ServeConfig::brownout`](crate::ServeConfig::brownout).
///
/// Each supervisor poll computes the service's shed *rate* (refusals per
/// attempt over the poll window) and memory-budget utilization, classifies
/// the window as hot, calm, or neutral ([`BrownoutPolicy::signal`]), and
/// feeds it to [`BrownoutState::observe`]: only
/// [`hot_polls`](Self::hot_polls) *consecutive* hot windows step service
/// quality down one [`BrownoutLevel`], and only
/// [`calm_polls`](Self::calm_polls) consecutive calm windows step it back
/// up — a flapping load pattern holds the current level rather than
/// oscillating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutPolicy {
    /// Shed rate (refused / attempts, in `[0, 1]`) at or above which a
    /// window is hot.
    pub shed_rate_high: f64,
    /// Shed rate strictly below which a window can be calm.
    pub shed_rate_low: f64,
    /// Memory-budget utilization (reserved / limit) at or above which a
    /// window is hot regardless of shed rate. Ignored when no budget is
    /// configured.
    pub budget_high: f64,
    /// Consecutive hot windows required to step down one level.
    pub hot_polls: u32,
    /// Consecutive calm windows required to step back up one level.
    pub calm_polls: u32,
}

impl Default for BrownoutPolicy {
    /// Step down after 3 consecutive windows shedding ≥ 20 % (or ≥ 90 %
    /// budget use); step up after 10 consecutive windows under 5 %.
    fn default() -> Self {
        Self {
            shed_rate_high: 0.20,
            shed_rate_low: 0.05,
            budget_high: 0.90,
            hot_polls: 3,
            calm_polls: 10,
        }
    }
}

impl BrownoutPolicy {
    /// Panics if thresholds are inconsistent (`low > high`, rates outside
    /// `[0, 1]`, or zero streak requirements).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.shed_rate_high) && (0.0..=1.0).contains(&self.shed_rate_low),
            "BrownoutPolicy: shed rates must be in [0, 1]"
        );
        assert!(
            self.shed_rate_low <= self.shed_rate_high,
            "BrownoutPolicy: shed_rate_low must be <= shed_rate_high"
        );
        assert!(
            (0.0..=1.0).contains(&self.budget_high),
            "BrownoutPolicy: budget_high must be in [0, 1]"
        );
        assert!(
            self.hot_polls > 0 && self.calm_polls > 0,
            "BrownoutPolicy: hot_polls and calm_polls must be non-zero"
        );
    }

    /// Classifies one poll window. `refused` / `attempts` are deltas over
    /// the window; `budget_utilization` is `None` when no budget is
    /// configured. A window with no attempts has no shed signal: it is
    /// calm unless the budget alone is hot.
    pub fn signal(
        &self,
        refused: u64,
        attempts: u64,
        budget_utilization: Option<f64>,
    ) -> BrownoutSignal {
        let budget_hot = budget_utilization.is_some_and(|u| u >= self.budget_high);
        let shed_rate = if attempts == 0 {
            0.0
        } else {
            refused as f64 / attempts as f64
        };
        if budget_hot || (attempts > 0 && shed_rate >= self.shed_rate_high) {
            BrownoutSignal::Hot
        } else if shed_rate < self.shed_rate_low {
            BrownoutSignal::Calm
        } else {
            BrownoutSignal::Neutral
        }
    }
}

/// One poll window's pressure classification (see
/// [`BrownoutPolicy::signal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutSignal {
    /// Pressure above the step-down thresholds.
    Hot,
    /// Pressure below the step-up thresholds.
    Calm,
    /// In the hysteresis band: hold the current level and reset streaks.
    Neutral,
}

/// The brownout controller's pure state machine: level plus hot/calm
/// streak counters. Owned by the supervisor thread; unit-testable without
/// any service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrownoutState {
    level: BrownoutLevel,
    hot_streak: u32,
    calm_streak: u32,
}

impl BrownoutState {
    /// The current degradation level.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Feeds one window's signal; returns the (possibly stepped) level.
    /// Steps are single: even a long hot streak descends one level per
    /// [`BrownoutPolicy::hot_polls`] windows, and any step resets both
    /// streaks.
    pub fn observe(&mut self, signal: BrownoutSignal, policy: &BrownoutPolicy) -> BrownoutLevel {
        match signal {
            BrownoutSignal::Hot => {
                self.calm_streak = 0;
                self.hot_streak += 1;
                if self.hot_streak >= policy.hot_polls
                    && self.level < BrownoutLevel::DeclineColdShapes
                {
                    self.level = BrownoutLevel::from_u8(self.level as u8 + 1);
                    self.hot_streak = 0;
                }
            }
            BrownoutSignal::Calm => {
                self.hot_streak = 0;
                self.calm_streak += 1;
                if self.calm_streak >= policy.calm_polls && self.level > BrownoutLevel::Normal {
                    self.level = BrownoutLevel::from_u8(self.level as u8 - 1);
                    self.calm_streak = 0;
                }
            }
            BrownoutSignal::Neutral => {
                self.hot_streak = 0;
                self.calm_streak = 0;
            }
        }
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_adopts_first_sample_then_blends() {
        assert_eq!(ewma_update(0, 8000), 8000);
        let next = ewma_update(8000, 16000);
        assert_eq!(next, 8000 - 1000 + 2000);
        // Converges toward a constant stream.
        let mut e = 0;
        for _ in 0..200 {
            e = ewma_update(e, 1_000_000);
        }
        assert!(e > 990_000 && e <= 1_000_000, "converged near 1ms: {e}");
    }

    #[test]
    fn predicted_wait_counts_full_flushes_ahead() {
        let ewma = Duration::from_millis(2);
        // Position 1..=max_batch: one flush away.
        assert_eq!(predicted_wait(1, 8, ewma), ewma);
        assert_eq!(predicted_wait(8, 8, ewma), ewma);
        // Position max_batch+1: two flushes.
        assert_eq!(predicted_wait(9, 8, ewma), ewma * 2);
        assert_eq!(predicted_wait(0, 8, ewma), Duration::ZERO);
    }

    #[test]
    fn feasibility_boundary_is_exclusive_and_cold_start_never_sheds() {
        let p = FeasibilityPolicy { min_flushes: 8 };
        let ewma = Duration::from_millis(1);
        // Exactly-equal predicted wait is still feasible.
        assert!(!p.sheds(4, 4, Some(ewma), Duration::from_millis(1)));
        assert!(p.sheds(5, 4, Some(ewma), Duration::from_millis(1)));
        // Below the cold-start gate there is no estimate → no shedding,
        // whatever the deadline.
        assert!(!p.sheds(1000, 1, None, Duration::ZERO));
    }

    #[test]
    fn watchdog_stall_boundary_is_exclusive() {
        let w = WatchdogPolicy {
            stall_budget: Duration::from_millis(50),
            poll_interval: Duration::from_millis(5),
        };
        w.validate();
        assert!(!w.is_stalled(Duration::from_millis(50)));
        assert!(w.is_stalled(Duration::from_millis(51)));
    }

    #[test]
    #[should_panic(expected = "stall_budget must be non-zero")]
    fn zero_stall_budget_rejected() {
        WatchdogPolicy {
            stall_budget: Duration::ZERO,
            poll_interval: Duration::from_millis(5),
        }
        .validate();
    }

    #[test]
    fn brownout_levels_order_and_effective_batch() {
        assert!(BrownoutLevel::Normal < BrownoutLevel::NoSegmentation);
        assert!(BrownoutLevel::HalfBatch < BrownoutLevel::DeclineColdShapes);
        assert_eq!(
            BrownoutLevel::from_u8(200),
            BrownoutLevel::DeclineColdShapes
        );
        assert_eq!(BrownoutLevel::Normal.effective_max_batch(8), 8);
        assert_eq!(BrownoutLevel::NoSegmentation.effective_max_batch(8), 8);
        assert_eq!(BrownoutLevel::HalfBatch.effective_max_batch(8), 4);
        assert_eq!(BrownoutLevel::DeclineColdShapes.effective_max_batch(1), 1);
    }

    #[test]
    fn brownout_steps_down_with_hysteresis_and_recovers() {
        let p = BrownoutPolicy {
            hot_polls: 3,
            calm_polls: 2,
            ..BrownoutPolicy::default()
        };
        p.validate();
        let mut s = BrownoutState::default();
        // Two hot polls are not enough; a neutral poll resets the streak.
        s.observe(BrownoutSignal::Hot, &p);
        s.observe(BrownoutSignal::Hot, &p);
        s.observe(BrownoutSignal::Neutral, &p);
        assert_eq!(s.level(), BrownoutLevel::Normal);
        // Three consecutive hot polls step down exactly one level.
        for _ in 0..3 {
            s.observe(BrownoutSignal::Hot, &p);
        }
        assert_eq!(s.level(), BrownoutLevel::NoSegmentation);
        // Sustained heat keeps descending one level per hot_polls window.
        for _ in 0..6 {
            s.observe(BrownoutSignal::Hot, &p);
        }
        assert_eq!(s.level(), BrownoutLevel::DeclineColdShapes);
        // And stays pinned at the floor.
        for _ in 0..9 {
            s.observe(BrownoutSignal::Hot, &p);
        }
        assert_eq!(s.level(), BrownoutLevel::DeclineColdShapes);
        // Recovery: calm_polls consecutive calm windows per step up.
        for _ in 0..2 {
            s.observe(BrownoutSignal::Calm, &p);
        }
        assert_eq!(s.level(), BrownoutLevel::HalfBatch);
        for _ in 0..4 {
            s.observe(BrownoutSignal::Calm, &p);
        }
        assert_eq!(s.level(), BrownoutLevel::Normal);
    }

    #[test]
    fn brownout_signal_classification() {
        let p = BrownoutPolicy::default();
        assert_eq!(p.signal(20, 100, None), BrownoutSignal::Hot);
        assert_eq!(p.signal(0, 100, None), BrownoutSignal::Calm);
        assert_eq!(p.signal(10, 100, None), BrownoutSignal::Neutral);
        // Budget pressure alone is hot, even with zero shedding.
        assert_eq!(p.signal(0, 100, Some(0.95)), BrownoutSignal::Hot);
        // No attempts and a healthy budget: calm.
        assert_eq!(p.signal(0, 0, Some(0.1)), BrownoutSignal::Calm);
        assert_eq!(p.signal(0, 0, None), BrownoutSignal::Calm);
    }

    #[test]
    #[should_panic(expected = "shed_rate_low must be <=")]
    fn inverted_brownout_thresholds_rejected() {
        BrownoutPolicy {
            shed_rate_low: 0.5,
            shed_rate_high: 0.1,
            ..BrownoutPolicy::default()
        }
        .validate();
    }
}
