//! Self-profiling for the fast engine and the scheduler: where does a
//! round go?
//!
//! The engine samples an injected monotonic counter around its four
//! phases (arrivals, injections, arbitration, accounting) and
//! accumulates the deltas here. The counter is a plain `fn() -> u64`
//! chosen at `Network` construction, so the engine's behaviour never
//! depends on it. [`wall_clock`] gives real nanoseconds. A test that
//! wants exact counts passes its own counting clock, a thread-local
//! counter that each sample advances by one, so every phase total
//! becomes an exact round count. This module holds no counter of its
//! own: a `fn() -> u64` cannot own per-run state, and a process-wide
//! one would let parallel tests perturb each other.

use std::sync::OnceLock;
use std::time::Instant;

/// Accumulated per-phase timings of a fast-engine run, in whatever
/// unit the injected clock counts (nanoseconds for [`wall_clock`],
/// samples for a counting clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Rounds the engine actually executed (idle-skipped rounds are
    /// never entered, so they cost — and count — nothing).
    pub rounds: u64,
    /// Ticks spent delivering arrival batches (phase 1).
    pub arrivals_ticks: u64,
    /// Ticks spent retrying stalls and injecting new packets
    /// (phase 2).
    pub injections_ticks: u64,
    /// Ticks spent in worklist arbitration + escape drain (phase 3).
    pub arbitration_ticks: u64,
    /// Ticks spent in wait/stall accounting and deadlock detection
    /// (phase 4).
    pub accounting_ticks: u64,
}

impl PhaseProfile {
    /// Total ticks across all four phases.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.arrivals_ticks + self.injections_ticks + self.arbitration_ticks + self.accounting_ticks
    }

    /// Render as a per-phase table with percentages.
    #[must_use]
    pub fn render(&self) -> String {
        let total = self.total_ticks().max(1);
        let pct = |t: u64| t as f64 * 100.0 / total as f64;
        let mut out = format!(
            "fast-engine phase profile: {} executed rounds, {} ticks\n",
            self.rounds,
            self.total_ticks()
        );
        for (name, t) in [
            ("arrivals", self.arrivals_ticks),
            ("injections", self.injections_ticks),
            ("arbitration", self.arbitration_ticks),
            ("accounting", self.accounting_ticks),
        ] {
            out.push_str(&format!("  {name:>12} {t:>14} ({:>5.1}%)\n", pct(t)));
        }
        out
    }
}

/// Accumulated per-phase timings of one `sg-sched` event-loop run, in
/// whatever unit the injected clock counts (nanoseconds for
/// [`wall_clock`], samples for a counting clock).
///
/// The scheduler samples the clock around the four phases of each
/// event round: capacity **release** (heap drain), arrival intake +
/// FCFS **placement**, the **drain** co-simulation a
/// `ReleaseMode::Drained` placement runs to size its hold, and the
/// EASY **backfill** probe (shadow-time computation + queue scan).
/// Nested phases share one running mark, so a drained placement's
/// co-simulation is charged to `drain_ticks` and subtracted from the
/// surrounding placement phase automatically. With a counting clock
/// every charge is exactly 1, so the totals become exact counts:
/// `release_ticks == rounds + 1`, `placement_ticks == rounds +
/// drained placements`, and so on — assertable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedPhaseProfile {
    /// Event rounds the scheduler loop executed (one per distinct
    /// wake-up time: an arrival or a release).
    pub rounds: u64,
    /// Ticks spent admitting arrivals and placing FCFS heads
    /// (allocator queries included, drain co-simulation excluded).
    pub placement_ticks: u64,
    /// Ticks spent co-simulating drain times for
    /// `ReleaseMode::Drained` placements.
    pub drain_ticks: u64,
    /// Ticks spent computing EASY shadow times and scanning the queue
    /// for backfill candidates (their placements/drains self-charge).
    pub backfill_ticks: u64,
    /// Ticks spent draining the release heap (capacity returns).
    pub release_ticks: u64,
}

impl SchedPhaseProfile {
    /// Total ticks across all four phases.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.placement_ticks + self.drain_ticks + self.backfill_ticks + self.release_ticks
    }
}

/// Monotonic wall-clock nanoseconds since the first call in this
/// process. Suitable as the profiler clock for real measurements.
#[must_use]
pub fn wall_clock() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    u64::try_from(ANCHOR.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let a = wall_clock();
        let b = wall_clock();
        assert!(b >= a);
    }

    #[test]
    fn profile_renders_percentages() {
        let p = PhaseProfile {
            rounds: 10,
            arrivals_ticks: 10,
            injections_ticks: 10,
            arbitration_ticks: 20,
            accounting_ticks: 10,
        };
        assert_eq!(p.total_ticks(), 50);
        let text = p.render();
        assert!(text.contains("arbitration"));
        assert!(text.contains("40.0%"));
    }
}
