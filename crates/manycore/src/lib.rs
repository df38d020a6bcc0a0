//! Trace-driven many-core (CMP) simulator for evaluating switch fabrics
//! on application-like workloads (§V, §VI-D of the Hi-Rise paper).
//!
//! The paper integrates a trace-driven, cycle-accurate many-core
//! simulator with a single-switch system: 64 two-way out-of-order cores
//! at 2 GHz, private L1s, a 64-bank shared L2 with MSHRs, and 8 memory
//! controllers (Table III), with instruction traces collected by Pin.
//!
//! Proprietary traces are not available, so this crate substitutes a
//! *synthetic trace generator*: each benchmark is characterised by its
//! per-core L1+L2 misses-per-kilo-instruction — the quantity Table VI
//! itself reports as "the network load for the workloads" — plus a
//! memory-intensity split. The eight multi-programmed mixes of Table VI
//! are reproduced with per-benchmark MPKI values calibrated so that
//! every mix's average MPKI matches the paper exactly.
//!
//! The system model:
//!
//! * 64 tiles on one switch; tile = core + shared-L2 bank, and 8 tiles
//!   also host a memory controller.
//! * Cores retire up to 2 instructions per 2 GHz cycle, generate L1
//!   misses per their benchmark profile, and stall when their
//!   memory-level parallelism budget is exhausted.
//! * L1 misses travel the switch to an address-hashed L2 bank (6-cycle
//!   bank access); L2 misses go on to a memory controller (80 ns), and
//!   data replies retrace the path. Control packets are 1 flit, data
//!   packets 4 flits of 128 bits (a 64 B line).
//! * The switch runs in its own clock domain (the design's frequency
//!   from `hirise-phys`); the simulation advances both domains on a
//!   picosecond timeline.
//! * The simulation is event-driven in the core domain: each core cycle
//!   visits only the cores with an eventful tick due (a miss or the
//!   finish), the L2 banks with an access in service or queued, and the
//!   memory controllers with fills in flight. A core's cycles between
//!   events only retire instructions or count stalls, so they are
//!   applied in closed form when it next runs; a core stalled on its
//!   MLP budget waits for a reply to wake it. The switch pays per event
//!   too: a transfer is a last beat and a release beat on its
//!   `SwitchCycle`'s transfer wheel. Reports are bit-identical to
//!   stepping everything every cycle.
//!
//! # Example
//!
//! ```no_run
//! use hirise_core::{HiRiseConfig, HiRiseSwitch, Switch2d};
//! use hirise_manycore::{table_vi_mixes, CmpSystem, SystemConfig};
//!
//! let mix = &table_vi_mixes()[0];
//! let cfg = SystemConfig::new().instructions_per_core(20_000);
//! let flat = CmpSystem::new(Switch2d::new(64), 1.69, mix, cfg.clone()).run();
//! let hirise = CmpSystem::new(
//!     HiRiseSwitch::new(&HiRiseConfig::paper_optimal()),
//!     2.2,
//!     mix,
//!     cfg,
//! )
//! .run();
//! println!("speedup: {:.3}", hirise.system_ipc() / flat.system_ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod core_model;
mod memory;
mod message;
mod netif;
mod profiles;
mod system;
mod trace;

pub use cache::L2Bank;
pub use core_model::Core;
pub use memory::MemoryController;
pub use message::Message;
pub use netif::{DeliveryTimeout, SwitchNet};
pub use profiles::{benchmark_profile, table_vi_mixes, BenchmarkProfile, WorkloadMix};
pub use system::{CmpSystem, SystemConfig, SystemReport};
pub use trace::SyntheticTrace;
