//! Experiment harness for the Hi-Rise reproduction.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` that regenerates it (see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for paper-vs-measured results):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table I (2D vs 3D folded cost) |
//! | `table4` | Table IV (channel-multiplicity design space) |
//! | `table5` | Table V (arbitration variants) |
//! | `table6` | Table VI (application mixes, 64-core CMP) |
//! | `fig9` | Fig. 9a/b/c (frequency & energy scaling) |
//! | `fig10` | Fig. 10 (latency vs load, uniform random) |
//! | `fig11` | Fig. 11a/b/c (arbitration fairness) |
//! | `fig12` | Fig. 12 (TSV pitch sensitivity) |
//! | `fig13` | Fig. 13 / §VI-E (flit-level mesh-of-Hi-Rise, 1000 cores) |
//! | `headline` | §I/§VI-A headline comparison |
//! | `pathological` | §VI-B inter-layer corner case |
//! | `discussion` | §VI-E power chain vs mesh / flattened butterfly |
//! | `ablation` | CLRG class count, halving, allocation, local arbiter |
//! | `patterns` | locality sweep across all synthetic traffic patterns |
//! | `explore` | ad-hoc CLI: any config × pattern × load |
//! | `cyclebench` | word-vs-scalar kernel and active-set-vs-dense schedule floors (not a paper artifact) |
//!
//! Pass `quick` as an argument to any binary for a shorter (but
//! noisier) run. Whole-workload performance is measured by the
//! repository benchmark (`benchmark/`, declared in `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runs;
pub mod table;

pub use runs::{build_fabric, saturation_tbps, CostRow, RunScale};
pub use table::Table;
