//! A cycle-synchronous packet-switching simulator for the IADM network.
//! One engine drives every run; its statistics are checked against a
//! dense reference loop compiled only into this crate's unit tests
//! (DESIGN.md §9). [`EngineKind`] and [`LaneArbitration`] survive as
//! record labels only: no code branches on either.
//!
//! The paper motivates the SSDT scheme's state choice as a *load balancing*
//! device: "Assume that each nonstraight link has an associated buffer
//! (queue). When both nonstraight links are busy due to message traffic
//! congestion, a switch can choose which nonstraight buffer to assign a
//! message to … based on the number of messages present in the buffers in
//! order to evenly distribute the message load to the nonstraight links."
//! The authors had no testbed; this simulator is the synthetic equivalent
//! (see DESIGN.md): store-and-forward switches with one bounded FIFO per
//! output link, one link transfer per cycle, and pluggable routing
//! policies, so the claim becomes measurable (experiment E7). Switches are
//! single-input (IADM) by default or `3x3` crossbars (Gamma) via
//! [`Simulator::with_crossbar_switches`]; a circuit-switched mode with
//! exclusive link occupancy and blocking-probability statistics lives in
//! [`circuit`] (experiment E12); a wormhole mode where packets pipeline
//! as flits over chains of reserved link lanes is enabled by
//! [`Simulator::with_wormhole_switching`] (experiment E16, pinned by the
//! flit-conservation suite in `tests/wormhole.rs`).
//!
//! # Example
//!
//! ```
//! use iadm_sim::{EngineKind, Simulator, SimConfig, RoutingPolicy, TrafficPattern};
//! use iadm_topology::Size;
//!
//! # fn main() -> Result<(), iadm_topology::SizeError> {
//! let config = SimConfig {
//!     size: Size::new(8)?,
//!     queue_capacity: 4,
//!     cycles: 200,
//!     warmup: 50,
//!     offered_load: 0.5,
//!     seed: 42,
//!     engine: EngineKind::Synchronous,
//! };
//! let stats = Simulator::new(config, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform)
//!     .run();
//! assert!(stats.delivered > 0);
//! assert_eq!(stats.misrouted, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
mod engine;
mod packet;
mod queue;
mod scratch;
mod stats;
mod tags;

// The histogram and traffic-pattern types moved to `iadm-workload`
// together with the rest of the workload subsystem; these re-exports
// keep every established `iadm_sim::` path working unchanged.
pub use iadm_workload::histogram;

pub use engine::{
    run_once, EngineKind, LaneArbitration, LaneLedger, RoutingPolicy, SimConfig, Simulator,
    SwitchingMode,
};
// Re-exported so campaign engines can prebuild shared route tables for
// [`Simulator::with_shared_lut`] without depending on `iadm-core`.
pub use iadm_core::lut::RouteLut;
pub use iadm_workload::{
    Adversarial, ClosedLoop, Collective, Injection, LatencyHistogram, OpenLoopSource,
    TrafficPattern, WorkloadSource, WorkloadSpec, WorkloadStats, NO_OP,
};
pub use packet::Packet;
pub use queue::{QueueArena, ReservationTable};
pub use scratch::SimScratch;
pub use stats::SimStats;
pub use tags::TagRepair;

#[cfg(test)]
mod reference;
