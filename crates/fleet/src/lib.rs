//! Fleet-scale sharded serving for the MOAT reproduction.
//!
//! The paper evaluates MOAT per sub-channel; this crate models the
//! deployment the ROADMAP aims at — a datacenter node whose memory is a
//! multi-channel × multi-DIMM × multi-rank **fleet**, serving thousands
//! of tenant request streams, where individual shards stall, panic, or
//! run slow and the fleet must keep answering with a trustworthy
//! partial report.
//!
//! The pieces:
//!
//! - [`FleetTopology`] / [`ShardId`]: the physical shape; one shard is
//!   one rank's bank set with its own `PerfSim`/`SecuritySim` pair.
//! - [`shard::run_shard`]: a pure function of (config, shard) that
//!   multiplexes the shard's tenants (striped [`WorkloadStream`]
//!   profiles) onto its sims.
//! - [`run_supervised`]: the one supervised cell runner — checkpoint
//!   replay through a [`ShardStore`], `catch_unwind`, and bounded retry
//!   with deterministic exponential backoff ([`RetryPolicy`]). The
//!   sweeps and the arena in `moat-bench` run their grids through it
//!   too.
//! - [`FleetSupervisor`]: the self-healing layer over that runner —
//!   per-attempt worker threads under a watchdog deadline, and
//!   quarantine on repeated failure.
//! - [`FleetFaultPlan`]: seeded fleet-level fault injection (crash,
//!   stall, slow, poisoned tenant) layered over the engine-level
//!   [`FaultPlan`](moat_faults::FaultPlan), so supervisor behavior is
//!   bit-reproducible.
//! - [`FleetReport`]: the deterministic merge — ALERT rates, slowdown
//!   percentiles, blast-radius incidents, and a structured incident
//!   log that marks degraded coverage instead of failing the run.
//!
//! Determinism contract: for a fixed config, the merged
//! [`FleetReport::render`] artifact is byte-identical across shard
//! submission orders, worker thread counts, and checkpoint resumes.
//! Wall-clock throughput is reported separately ([`FleetStats`]) so the
//! artifact never embeds machine speed.
//!
//! [`WorkloadStream`]: moat_workloads::WorkloadStream

pub mod faults;
pub mod report;
pub mod retry;
pub mod runner;
pub mod shard;
pub mod supervisor;
pub mod topology;

pub use faults::{FleetFaultPlan, ShardFault};
pub use report::{FleetReport, FleetStats, Incident};
pub use retry::RetryPolicy;
pub use runner::{panic_message, run_supervised, CellOutcome, Replay, ShardStore};
pub use shard::{run_shard, ShardReport};
pub use supervisor::{FleetConfig, FleetSupervisor, QuarantineReason, ShardOutcome, ShardState};
pub use topology::{FleetTopology, ShardId};
