//! The tracing seam: [`TelemetryHook`], its disarmed unit type
//! [`NoTelemetry`], and the phase/event vocabulary.
//!
//! Mirrors the `FaultHook`/`GuardHook` compile-time switch discipline
//! from `moat-sim`: the simulators are generic over `T: TelemetryHook`
//! and guard every call with `if T::ARMED { ... }`. With
//! [`NoTelemetry`] the branches constant-fold away, so the disarmed
//! loops compile to exactly the uninstrumented code. Hook ordering at a
//! boundary is fault → guard → telemetry: telemetry observes the
//! settled, post-repair state and must never mutate the simulation.

use moat_dram::Nanos;

/// Where simulated time goes inside a simulator loop. The vocabulary is
/// shared by `SecuritySim` and `PerfSim` so per-cell profiles compare
/// across both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Activations flowing through the mitigation engine (the tracker
    /// update itself — MOAT's per-row counters, Panopticon's queue).
    EngineUpdate,
    /// ALERT episode churn: RFM drains and their tRFC-class stalls.
    EpisodeChurn,
    /// Periodic refresh (REF) windows.
    Refresh,
    /// Simulated time with no work attributed (attacker idles, slack).
    Idle,
}

impl SimPhase {
    /// Number of phases (array-profile width).
    pub const COUNT: usize = 4;

    /// Every phase, in fixed render order.
    pub const ALL: [SimPhase; SimPhase::COUNT] = [
        SimPhase::EngineUpdate,
        SimPhase::EpisodeChurn,
        SimPhase::Refresh,
        SimPhase::Idle,
    ];

    /// Stable index into a per-phase array.
    pub fn index(self) -> usize {
        match self {
            SimPhase::EngineUpdate => 0,
            SimPhase::EpisodeChurn => 1,
            SimPhase::Refresh => 2,
            SimPhase::Idle => 3,
        }
    }

    /// Render name (also the metrics taxonomy token).
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::EngineUpdate => "engine-update",
            SimPhase::EpisodeChurn => "episode-churn",
            SimPhase::Refresh => "refresh",
            SimPhase::Idle => "idle",
        }
    }
}

/// A point event at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A bank engine asserted ALERT.
    Alert,
    /// An ALERT episode (RFM drain) completed; payload = RFMs issued.
    Episode {
        /// RFM mitigations the episode performed.
        rfms: u64,
    },
    /// A periodic refresh was performed.
    Ref,
}

impl SimEvent {
    /// Render name (also the metrics taxonomy token).
    pub fn name(self) -> &'static str {
        match self {
            SimEvent::Alert => "alert",
            SimEvent::Episode { .. } => "episode",
            SimEvent::Ref => "ref",
        }
    }
}

/// The observation seam the simulators thread through their loops.
///
/// All default method bodies are empty so an armed hook implements only
/// what it needs; [`NoTelemetry`] relies on `ARMED = false` to erase
/// the call sites entirely. Implementations observe — they must not
/// mutate simulation state, and they must derive everything they record
/// from the arguments (sim time, ACT counts), never from wall-clock.
pub trait TelemetryHook {
    /// Whether the simulator should call this hook at all. Call sites
    /// guard with `if T::ARMED`, so a `false` here constant-folds the
    /// instrumentation away.
    const ARMED: bool;

    /// An event-horizon boundary was reached (one iteration of a
    /// batched loop; one settled step of the per-step reference).
    fn on_boundary(&mut self, _now: Nanos) {}

    /// A point event fired at simulated instant `now`.
    fn on_event(&mut self, _now: Nanos, _event: SimEvent) {}

    /// Simulated time `[start, end)` was spent in `phase`, covering
    /// `units` units of work (ACTs for engine phases, RFMs for episode
    /// churn, REFs for refresh).
    fn on_phase(&mut self, _phase: SimPhase, _start: Nanos, _end: Nanos, _units: u64) {}
}

/// The disarmed hook: never called, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl TelemetryHook for NoTelemetry {
    const ARMED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_match_all_order() {
        for (i, phase) in SimPhase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn no_telemetry_is_disarmed() {
        const { assert!(!NoTelemetry::ARMED) };
        // The defaults must be callable (the armed paths share them).
        let mut t = NoTelemetry;
        t.on_boundary(Nanos::new(0));
        t.on_event(Nanos::new(0), SimEvent::Alert);
        t.on_phase(SimPhase::Idle, Nanos::new(0), Nanos::new(1), 0);
    }
}
