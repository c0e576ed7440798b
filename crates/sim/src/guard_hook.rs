//! The integrity-guard hook, the second member of the simulator's
//! [`Hooks`](crate::Hooks) bundle — the recovery-side twin of
//! [`FaultHook`](crate::FaultHook).
//!
//! Where a [`FaultHook`](crate::FaultHook) *corrupts* the engine at
//! event-horizon boundaries, a [`GuardHook`] *inspects and repairs* it:
//! at each boundary it may run the engine's
//! [`integrity_check`](moat_dram::MitigationEngine::integrity_check),
//! force conservative mitigations for untrusted rows, and periodically
//! [`scrub_resync`](moat_dram::MitigationEngine::scrub_resync) the
//! tracker against the authoritative in-array counters (see the
//! `moat-guard` crate for the concrete policy).
//!
//! The hook follows the same *compile-time* switch discipline:
//! [`GuardHook::ARMED`] is an associated `const`, every call site in the
//! simulator is guarded by `if G::ARMED`, and the default [`NoGuard`]
//! hook (`ARMED = false`) constant-folds every guard branch away — the
//! plain `run`/`run_semi_scripted` entry points pass the disarmed
//! `Hooks::default()` and are unchanged in behaviour and cost.
//!
//! Ordering contract: the simulator calls the guard **after** the fault
//! hook at each boundary (inject → detect/repair → promise). Corruption
//! injected at a boundary is therefore visible to the guard before the
//! engine's [`min_acts_to_alert`](moat_dram::MitigationEngine::min_acts_to_alert)
//! promise for that boundary is computed — which is what lets an armed
//! guard with the conservative fallback close every SEU-induced unsound
//! horizon.

use moat_dram::{MitigationEngine, Nanos};

use crate::unit::BankUnit;

/// A recovery policy consulted once per event-horizon boundary.
///
/// Unlike [`FaultHook`](crate::FaultHook), the hook receives the whole
/// [`BankUnit`] — detection lives in the engine, but repair needs the
/// bank too: the conservative fallback issues forced mitigations
/// ([`BankUnit::force_mitigate`]) and the scrub reads the authoritative
/// in-array counters ([`BankUnit::scrub_resync`]). The method is generic
/// over the engine type (the hook is monomorphized into the simulation
/// loop, never boxed), so `GuardHook` is not object-safe — by design.
///
/// Repair decisions must be deterministic functions of the hook's own
/// state and the observed reports — never of wall-clock time — so a
/// guarded run replays bit-identically.
pub trait GuardHook {
    /// Whether this hook does anything at all. `false` removes every
    /// guard branch from the monomorphized simulation loops.
    const ARMED: bool;

    /// An event-horizon boundary at `now`, observed immediately after
    /// the fault hook's injection point; the hook may check, repair, and
    /// scrub the unit.
    fn at_boundary<E: MitigationEngine>(&mut self, _now: Nanos, _unit: &mut BankUnit<E>) {}
}

/// The disarmed hook: checks nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGuard;

impl GuardHook for NoGuard {
    const ARMED: bool = false;
}
