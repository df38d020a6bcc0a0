//! Cycle-accurate network simulator for single-switch fabrics.
//!
//! Reproduces the methodology of §V of the Hi-Rise paper: a cycle
//! accurate simulator drives a behavioural switch model
//! ([`hirise_core::Fabric`]) with synthetic traffic. Each port has 4
//! virtual channels of 4-flit depth, flits are 128 bits, and packets are
//! 4 flits, matching the paper's setup. [`SwitchCycle`] is the switch
//! cycle itself, shared with the many-core simulator and stepped once
//! per router by the network simulator.
//!
//! The simulator works in *switch cycles*; converting latency to
//! nanoseconds and throughput to Tbps requires the design's clock
//! frequency, which the `hirise-phys` crate provides.
//!
//! Beyond the paper's single-switch methodology this crate also offers
//! closed-loop (windowed) injection ([`SimConfig::window`]), streaming
//! log-bucketed latency percentiles
//! ([`SimReport::latency_percentile_cycles`], backed by the mergeable
//! [`LatencyHistogram`]), and a flit-level network simulator
//! ([`shard::ShardedSim`]) that steps a topology of switches on one
//! thread or many with byte-identical results: 2D meshes of Hi-Rise
//! switches with XY routing and credit-based back-pressure
//! ([`shard::sharded_mesh`] over [`mesh_sim`]'s geometry, realising the
//! paper's Fig. 13 topology; [`mesh`] holds the matching graph-level
//! analysis) and wafer-scale [`dragonfly`]s. Load sweeps and the
//! saturation search live in the `hirise-lab` experiment-campaign crate,
//! which drives this simulator in parallel across configurations, one
//! solo [`NetworkSim`] run per job.
//!
//! Correctness is audited two ways: [`diff`] co-simulates every fabric
//! against an ideal golden-model crossbar ([`RefSwitch`]) under
//! identical schedules and shrinks any divergence to a minimal
//! counterexample, while [`InvariantChecker`] (on by default in debug
//! builds, and in recording mode for every `hirise-lab` job) asserts
//! flit conservation, buffer bounds, FIFO-lane order and grant legality
//! on every simulated cycle.
//!
//! # Example
//!
//! ```
//! use hirise_core::{HiRiseConfig, HiRiseSwitch};
//! use hirise_sim::{NetworkSim, SimConfig, traffic::UniformRandom};
//!
//! # fn main() -> Result<(), hirise_core::ConfigError> {
//! let cfg = HiRiseConfig::paper_optimal();
//! let sim_cfg = SimConfig::new(64)
//!     .injection_rate(0.2)
//!     .warmup(500)
//!     .measure(2_000);
//! let mut sim = NetworkSim::new(
//!     HiRiseSwitch::new(&cfg),
//!     UniformRandom::new(64),
//!     sim_cfg,
//! );
//! let report = sim.run();
//! assert!(report.avg_latency_cycles() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod diff;
pub mod dragonfly;
mod engine;
mod invariant;
pub mod mesh;
pub mod mesh_sim;
mod packet;
mod port;
pub mod shard;
mod sim;
mod stats;
mod switch_cycle;
pub mod traffic;

pub use diff::{
    check_arbitrate_into_equivalence, check_schedule, fuzz, run_schedule, shrink, standard_fleet,
    ArbitrateIntoDivergence, CoSimOutcome, DiffFailure, DiffFailureKind, FabricBuilder, RefSwitch,
    SchedPacket, Schedule, Violation,
};
pub use engine::NetSchedule;
pub use invariant::{InvariantChecker, InvariantViolation};
pub use packet::Packet;
pub use port::InputPort;
pub use sim::{NetworkSim, SimConfig};
pub use stats::{LatencyHistogram, SimReport};
pub use switch_cycle::SwitchCycle;
