//! SLO burn-rate watchdog: multi-window burn rates over the serve
//! telemetry with hysteresis.
//!
//! A request is **good** when it completed successfully within the
//! configured latency target; everything else an accepted request can
//! become (slow completion, failure, expiry, loss) is **bad**. The burn
//! rate over a window is `bad_fraction / error_budget` where the error
//! budget is `1 - objective` — burn 1.0 means the model is consuming its
//! budget exactly as fast as the SLO allows, burn 10 means ten times
//! faster.
//!
//! The watchdog follows the classic multi-window pattern: it alerts only
//! when **both** a fast window (reacts quickly, noisy) and a slow window
//! (confirms the trend) exceed the alert threshold, and clears only when
//! both fall below the (lower) clear threshold — the gap is the
//! hysteresis band that keeps a burn rate hovering near the threshold
//! from flapping alert→clear→alert on every tick.
//!
//! [`BurnRateTracker`] is pure state-machine logic (proptested in
//! `tests/slo_props.rs`); the watchdog is a cadence thread that
//! feeds it from [`Telemetry`] snapshots, publishes each model's
//! [`SloState`] back into its telemetry (the `nimble_slo_*` rows of the
//! family table read it), and emits `slo_alert` / `slo_clear` events.

use crate::router::Cadence;
use crate::telemetry::{as_ns, ModelStats, Telemetry};
use nimble_obs::events::{emit, FieldVal};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Watchdog shape: objective, windows, thresholds, cadence.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Fraction of accepted requests that must be good (e.g. `0.999`).
    pub objective: f64,
    /// A completed request is good when its latency is at or below this.
    pub latency_target: Duration,
    /// Tick cadence of the watchdog thread.
    pub interval: Duration,
    /// Fast window, in ticks (must be ≤ `slow_window`).
    pub fast_window: usize,
    /// Slow window, in ticks.
    pub slow_window: usize,
    /// Alert when both windows' burn rates are ≥ this.
    pub alert_burn: f64,
    /// Clear when both windows' burn rates are < this (must be ≤
    /// `alert_burn`; the gap is the hysteresis band).
    pub clear_burn: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            objective: 0.99,
            latency_target: Duration::from_millis(100),
            interval: Duration::from_millis(100),
            fast_window: 3,
            slow_window: 30,
            alert_burn: 2.0,
            clear_burn: 1.0,
        }
    }
}

/// An alert-state transition reported by [`BurnRateTracker::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Entered the alerting state (both windows ≥ alert threshold).
    Alert,
    /// Left the alerting state (both windows < clear threshold).
    Clear,
}

/// Pure burn-rate state machine over cumulative `(good, total)` counters.
///
/// Feed one cumulative observation per tick with [`observe`]; the
/// tracker keeps the last `slow_window + 1` observations, computes both
/// windows' burn rates from the deltas, and applies the hysteresis rule.
/// A window with no traffic (or not yet fully observed) has no burn rate
/// and can neither raise an alert nor block a clear.
///
/// [`observe`]: BurnRateTracker::observe
#[derive(Debug, Clone)]
pub struct BurnRateTracker {
    objective: f64,
    fast_window: usize,
    slow_window: usize,
    alert_burn: f64,
    clear_burn: f64,
    /// Cumulative `(good, total)` per tick, oldest first; bounded at
    /// `slow_window + 1`.
    samples: VecDeque<(u64, u64)>,
    alerting: bool,
}

impl BurnRateTracker {
    /// A tracker with `config`'s objective/windows/thresholds (the
    /// cadence fields are unused here).
    pub fn new(config: &SloConfig) -> BurnRateTracker {
        let fast = config.fast_window.max(1);
        let slow = config.slow_window.max(fast);
        BurnRateTracker {
            objective: config.objective.clamp(0.0, 1.0 - 1e-9),
            fast_window: fast,
            slow_window: slow,
            alert_burn: config.alert_burn,
            clear_burn: config.clear_burn.min(config.alert_burn),
            samples: VecDeque::with_capacity(slow + 1),
            alerting: false,
        }
    }

    /// Burn rate over the last `window` ticks: `None` until `window + 1`
    /// observations exist or when the window saw no traffic.
    pub fn burn(&self, window: usize) -> Option<f64> {
        let n = self.samples.len();
        if n < window + 1 {
            return None;
        }
        let (good_then, total_then) = self.samples[n - 1 - window];
        let (good_now, total_now) = self.samples[n - 1];
        let total = total_now.saturating_sub(total_then);
        if total == 0 {
            return None;
        }
        let good = good_now.saturating_sub(good_then).min(total);
        let bad_frac = (total - good) as f64 / total as f64;
        Some(bad_frac / (1.0 - self.objective))
    }

    /// Fast-window burn rate.
    pub fn fast_burn(&self) -> Option<f64> {
        self.burn(self.fast_window)
    }

    /// Slow-window burn rate.
    pub fn slow_burn(&self) -> Option<f64> {
        self.burn(self.slow_window)
    }

    /// Whether the tracker is currently alerting.
    pub fn alerting(&self) -> bool {
        self.alerting
    }

    /// Push one tick's cumulative `(good, total)` counters and evaluate
    /// the hysteresis rule. Returns the transition, if one occurred.
    pub fn observe(&mut self, good: u64, total: u64) -> Option<Transition> {
        if self.samples.len() == self.slow_window + 1 {
            self.samples.pop_front();
        }
        self.samples.push_back((good, total));
        let fast = self.fast_burn();
        let slow = self.slow_burn();
        if !self.alerting {
            // Alert only on evidence from BOTH windows.
            if let (Some(f), Some(s)) = (fast, slow) {
                if f >= self.alert_burn && s >= self.alert_burn {
                    self.alerting = true;
                    return Some(Transition::Alert);
                }
            }
        } else {
            // Clear when neither window shows burn at or above the clear
            // threshold (an idle window cannot block the clear).
            let f_ok = fast.is_none_or(|f| f < self.clear_burn);
            let s_ok = slow.is_none_or(|s| s < self.clear_burn);
            if f_ok && s_ok {
                self.alerting = false;
                return Some(Transition::Clear);
            }
        }
        None
    }
}

/// Good/total cumulative counters for one model, derived from its stats.
/// Good = completed within the latency target; `count_le` is log-bucket
/// approximate and failures' latencies are indistinguishable from
/// successes' in the histogram, so good is conservatively clamped to
/// `completed` and reduced by every failure.
pub(crate) fn good_total(stats: &ModelStats, target: Duration) -> (u64, u64) {
    let total = stats.terminal();
    let within = stats.latency.count_le(as_ns(target));
    let good = within.saturating_sub(stats.failed).min(stats.completed);
    (good, total)
}

/// Per-model published state, exposed as the `nimble_slo_*` families.
#[derive(Debug, Clone, Default)]
pub struct SloState {
    /// Configured good-request objective.
    pub objective: f64,
    /// Fast-window burn rate (NaN when unknown).
    pub fast_burn: f64,
    /// Slow-window burn rate (NaN when unknown).
    pub slow_burn: f64,
    /// Whether the model is currently alerting.
    pub alerting: bool,
}

/// The watchdog, ticked by a [`Cadence`] thread: each tick snapshots
/// [`Telemetry`], feeds each model's [`BurnRateTracker`], publishes the
/// resulting [`SloState`] into the model's telemetry, and emits
/// `slo_alert`/`slo_clear` events on transitions. Holds only a weak
/// telemetry reference, and withdraws the published states when the
/// thread drops it, so a stopped watchdog leaves no stale alert behind.
pub(crate) struct SloWatchdog {
    telemetry: Weak<Telemetry>,
    config: SloConfig,
    trackers: BTreeMap<String, BurnRateTracker>,
}

impl SloWatchdog {
    /// Spawn the watchdog thread over `telemetry`.
    pub(crate) fn spawn(telemetry: &Arc<Telemetry>, config: SloConfig) -> Cadence {
        let interval = config.interval;
        let mut watchdog = SloWatchdog {
            telemetry: Arc::downgrade(telemetry),
            config,
            trackers: BTreeMap::new(),
        };
        Cadence::spawn("nimble-slo", interval, move || watchdog.tick())
    }

    /// One evaluation pass; `false` once the telemetry is gone.
    fn tick(&mut self) -> bool {
        let Some(telemetry) = self.telemetry.upgrade() else {
            return false;
        };
        let config = &self.config;
        let snap = telemetry.snapshot();
        for (name, stats) in &snap.models {
            let tracker = self
                .trackers
                .entry(name.clone())
                .or_insert_with(|| BurnRateTracker::new(config));
            let (good, total) = good_total(stats, config.latency_target);
            let transition = tracker.observe(good, total);
            let entry = SloState {
                objective: config.objective,
                fast_burn: tracker.fast_burn().unwrap_or(f64::NAN),
                slow_burn: tracker.slow_burn().unwrap_or(f64::NAN),
                alerting: tracker.alerting(),
            };
            if let Some(t) = transition {
                let kind = match t {
                    Transition::Alert => "slo_alert",
                    Transition::Clear => "slo_clear",
                };
                emit(
                    kind,
                    name,
                    &[
                        ("fast_burn", FieldVal::F64(entry.fast_burn)),
                        ("slow_burn", FieldVal::F64(entry.slow_burn)),
                        ("objective", FieldVal::F64(config.objective)),
                    ],
                );
            }
            telemetry.model(name).record_slo(Some(entry));
        }
        true
    }
}

impl Drop for SloWatchdog {
    fn drop(&mut self) {
        if let Some(telemetry) = self.telemetry.upgrade() {
            for name in self.trackers.keys() {
                telemetry.model(name).record_slo(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(fast: usize, slow: usize, alert: f64, clear: f64) -> SloConfig {
        SloConfig {
            objective: 0.9, // budget 0.1 → burn = bad_frac × 10
            fast_window: fast,
            slow_window: slow,
            alert_burn: alert,
            clear_burn: clear,
            ..SloConfig::default()
        }
    }

    #[test]
    fn alerts_only_when_both_windows_burn() {
        let mut t = BurnRateTracker::new(&cfg(1, 3, 2.0, 1.0));
        // Warm up with perfect traffic: never alerts.
        let mut good = 0u64;
        let mut total = 0u64;
        for _ in 0..5 {
            good += 10;
            total += 10;
            assert_eq!(t.observe(good, total), None);
        }
        // One bad tick: fast window burns (bad_frac 1.0 → burn 10) but
        // the slow window is still diluted below 2.0? 10 bad / 40 total
        // = 0.25 → burn 2.5 ≥ 2.0 — both fire.
        total += 10;
        assert_eq!(t.observe(good, total), Some(Transition::Alert));
        assert!(t.alerting());
        // Recovery: good traffic pushes both windows below clear.
        let mut transition = None;
        for _ in 0..4 {
            good += 10;
            total += 10;
            if let Some(tr) = t.observe(good, total) {
                transition = Some(tr);
            }
        }
        assert_eq!(transition, Some(Transition::Clear));
        assert!(!t.alerting());
    }

    #[test]
    fn idle_tracker_never_alerts() {
        let mut t = BurnRateTracker::new(&cfg(2, 5, 1.0, 0.5));
        for _ in 0..50 {
            assert_eq!(t.observe(0, 0), None);
        }
        assert!(!t.alerting());
        assert_eq!(t.fast_burn(), None);
        assert_eq!(t.slow_burn(), None);
    }

    #[test]
    fn good_total_derivation() {
        use crate::telemetry::{bump, ModelTelemetry};
        let t = ModelTelemetry::default();
        let ms = Duration::from_millis;
        t.record_completed(true, ms(0), ms(1), 1);
        t.record_completed(true, ms(0), ms(500), 1); // slow
        bump(&t.expired);
        let stats = t.snapshot();
        let (good, total) = good_total(&stats, Duration::from_millis(100));
        assert_eq!(total, 3);
        assert_eq!(good, 1);
    }
}
