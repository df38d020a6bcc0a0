//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] names a grid — fabrics × arbitration schemes ×
//! channel allocations × traffic patterns × offered loads × replicates
//! — and expands it into a flat list of independent [`Job`]s. Each job
//! carries a seed derived purely from the campaign's master seed and
//! the job's position in the expansion, so results are bit-identical
//! regardless of how many worker threads execute the list or in what
//! order they pick jobs up.

use crate::result::{JobResult, Metrics};
use hirise_core::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use hirise_core::{
    ArbitrationScheme, ChannelAllocation, Fabric, Fault, FaultSite, FoldedSwitch, HiRiseConfig,
    HiRiseSwitch, LocalArbiterKind, MatchPolicy, MatchingSwitch, OutputId, Switch2d,
};
use hirise_phys::{DesignPoint, SwitchDesign};
use hirise_sim::dragonfly::{sample_dead_links, DragonflyConfig, DragonflyGeometry, GlobalLinkMap};
use hirise_sim::mesh_sim::{MeshPortMap, MeshReport, MeshSimConfig};
use hirise_sim::shard::{sharded_mesh, ShardedConfig, ShardedSim};
use hirise_sim::traffic::{
    BitComplement, Bursty, Diurnal, Hotspot, Incast, InterLayerOnly, NeighborShift,
    RandomPermutation, Rpc, Tornado, TrafficPattern, Transpose, UniformRandom, WorstCaseL2lc,
};
use hirise_sim::{NetworkSim, SimConfig, SimReport};
use std::fmt::Write as _;

/// The default base seed, matching [`SimConfig::new`]'s default so
/// single-job campaigns reproduce the historical bench numbers.
pub const DEFAULT_SEED: u64 = 0x5EED_0001;

/// A switch fabric under test, in declarative form. Mirrors
/// `hirise_phys::DesignPoint` but is constructible without a
/// technology and knows how to build the behavioural model.
#[derive(Clone, Debug, PartialEq)]
pub enum FabricSpec {
    /// Flat 2D Swizzle-Switch baseline.
    Flat2d {
        /// Switch radix.
        radix: usize,
    },
    /// The 2D switch folded over silicon layers.
    Folded {
        /// Switch radix.
        radix: usize,
        /// Stacked layer count.
        layers: usize,
    },
    /// The hierarchical Hi-Rise switch.
    HiRise(HiRiseConfig),
    /// A flat crossbar scheduled by an iterative-matching arbiter
    /// (iSLIP / ESLIP / wavefront) — the datacenter-router baseline the
    /// face-off experiments compare Hi-Rise against.
    Matching {
        /// Switch radix.
        radix: usize,
        /// The matching policy (and its iteration count).
        policy: MatchPolicy,
    },
}

impl FabricSpec {
    /// A Hi-Rise spec from an already-validated configuration.
    pub fn hirise(cfg: HiRiseConfig) -> Self {
        FabricSpec::HiRise(cfg)
    }

    /// The spec for a physical design point.
    pub fn from_point(point: &DesignPoint) -> Self {
        match point {
            DesignPoint::Flat2d { radix, .. } => FabricSpec::Flat2d { radix: *radix },
            DesignPoint::Folded { radix, layers, .. } => FabricSpec::Folded {
                radix: *radix,
                layers: *layers,
            },
            DesignPoint::HiRise(cfg) => FabricSpec::HiRise(cfg.clone()),
            _ => unreachable!("all design points are covered"),
        }
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        match self {
            FabricSpec::Flat2d { radix }
            | FabricSpec::Folded { radix, .. }
            | FabricSpec::Matching { radix, .. } => *radix,
            FabricSpec::HiRise(cfg) => cfg.radix(),
        }
    }

    /// Compact label used in telemetry records, e.g. `2d64`,
    /// `folded64x4`, `hirise64x4c4-clrg3-in`, `islip64k2`,
    /// `wavefront64`.
    pub fn label(&self) -> String {
        match self {
            FabricSpec::Flat2d { radix } => format!("2d{radix}"),
            FabricSpec::Folded { radix, layers } => format!("folded{radix}x{layers}"),
            FabricSpec::HiRise(cfg) => format!(
                "hirise{}x{}c{}-{}-{}",
                cfg.radix(),
                cfg.layers(),
                cfg.channel_multiplicity(),
                scheme_label(cfg.scheme()),
                allocation_label(cfg.allocation()),
            ),
            FabricSpec::Matching { radix, policy } => match policy {
                MatchPolicy::Islip { iterations } => format!("islip{radix}k{iterations}"),
                MatchPolicy::Eslip { iterations } => format!("eslip{radix}k{iterations}"),
                MatchPolicy::Wavefront => format!("wavefront{radix}"),
            },
        }
    }

    /// Builds the behavioural fabric.
    pub fn build(&self) -> Box<dyn Fabric> {
        match self {
            FabricSpec::Flat2d { radix } => Box::new(Switch2d::new(*radix)),
            FabricSpec::Folded { radix, layers } => Box::new(FoldedSwitch::new(*radix, *layers)),
            FabricSpec::HiRise(cfg) => Box::new(HiRiseSwitch::new(cfg)),
            FabricSpec::Matching { radix, policy } => {
                Box::new(MatchingSwitch::new(*radix, *policy))
            }
        }
    }

    /// The physical design point (128-bit bus for the 2D/folded
    /// baselines, matching `hirise_phys`'s constructors). An
    /// iterative-matching fabric schedules the same flat crossbar
    /// datapath as the 2D baseline, so it shares that design point —
    /// only the arbitration logic differs, which the physical model
    /// does not resolve.
    pub fn design(&self) -> SwitchDesign {
        match self {
            FabricSpec::Flat2d { radix } | FabricSpec::Matching { radix, .. } => {
                SwitchDesign::flat_2d(*radix)
            }
            FabricSpec::Folded { radix, layers } => SwitchDesign::folded(*radix, *layers),
            FabricSpec::HiRise(cfg) => SwitchDesign::hirise(cfg),
        }
    }

    /// This spec with the inter-layer scheme replaced (Hi-Rise only;
    /// `None` for non-Hi-Rise fabrics, where the axis does not apply).
    pub fn with_scheme(&self, scheme: ArbitrationScheme) -> Option<Self> {
        match self {
            FabricSpec::HiRise(cfg) => {
                rebuild(cfg, scheme, cfg.allocation()).map(FabricSpec::HiRise)
            }
            _ => None,
        }
    }

    /// This spec with the channel allocation replaced (Hi-Rise only;
    /// `None` when the axis does not apply or the geometry cannot bin
    /// evenly under the new policy).
    pub fn with_allocation(&self, allocation: ChannelAllocation) -> Option<Self> {
        match self {
            FabricSpec::HiRise(cfg) => {
                rebuild(cfg, cfg.scheme(), allocation).map(FabricSpec::HiRise)
            }
            _ => None,
        }
    }

    fn canonical_json(&self, out: &mut String) {
        match self {
            FabricSpec::Flat2d { radix } => {
                let _ = write!(out, r#"{{"kind":"2d","radix":{radix}}}"#);
            }
            FabricSpec::Folded { radix, layers } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"folded","radix":{radix},"layers":{layers}}}"#
                );
            }
            FabricSpec::Matching { radix, policy } => {
                let (name, iterations) = match policy {
                    MatchPolicy::Islip { iterations } => ("islip", *iterations),
                    MatchPolicy::Eslip { iterations } => ("eslip", *iterations),
                    MatchPolicy::Wavefront => ("wavefront", 0),
                };
                let _ = write!(
                    out,
                    r#"{{"kind":"matching","radix":{radix},"policy":"{name}""#
                );
                if iterations > 0 {
                    let _ = write!(out, r#","iterations":{iterations}"#);
                }
                out.push('}');
            }
            FabricSpec::HiRise(cfg) => {
                let _ = write!(
                    out,
                    r#"{{"kind":"hirise","radix":{},"layers":{},"c":{},"flit_bits":{},"scheme":"{}","alloc":"{}","local":"{}"}}"#,
                    cfg.radix(),
                    cfg.layers(),
                    cfg.channel_multiplicity(),
                    cfg.flit_bits(),
                    scheme_label(cfg.scheme()),
                    allocation_label(cfg.allocation()),
                    match cfg.local_arbiter() {
                        LocalArbiterKind::Lrg => "lrg",
                        LocalArbiterKind::RoundRobin => "rr",
                        _ => "other",
                    },
                );
            }
        }
    }
}

fn scheme_label(scheme: ArbitrationScheme) -> String {
    match scheme {
        ArbitrationScheme::LayerToLayerLrg => "lrg".to_string(),
        ArbitrationScheme::WeightedLrg => "wlrg".to_string(),
        ArbitrationScheme::ClassBased { classes } => format!("clrg{classes}"),
    }
}

fn allocation_label(allocation: ChannelAllocation) -> &'static str {
    match allocation {
        ChannelAllocation::InputBinned => "in",
        ChannelAllocation::OutputBinned => "out",
        ChannelAllocation::PriorityBased => "pri",
        _ => "other",
    }
}

fn rebuild(
    cfg: &HiRiseConfig,
    scheme: ArbitrationScheme,
    allocation: ChannelAllocation,
) -> Option<HiRiseConfig> {
    HiRiseConfig::builder(cfg.radix(), cfg.layers())
        .channel_multiplicity(cfg.channel_multiplicity())
        .flit_bits(cfg.flit_bits())
        .scheme(scheme)
        .allocation(allocation)
        .local_arbiter(cfg.local_arbiter())
        .build()
        .ok()
}

/// A synthetic traffic pattern, in declarative form.
#[derive(Clone, Debug, PartialEq)]
pub enum PatternSpec {
    /// Uniform random destinations.
    Uniform,
    /// All traffic to one output.
    Hotspot {
        /// Target output index.
        output: usize,
    },
    /// On/off bursts with the crate's default duty cycle and burst
    /// length.
    Bursty,
    /// Matrix-transpose permutation.
    Transpose,
    /// Bit-complement permutation.
    BitComplement,
    /// Tornado (half-way rotation) permutation.
    Tornado,
    /// Nearest-neighbour shift.
    NeighborShift,
    /// A fixed random permutation drawn from `salt`.
    RandomPermutation {
        /// Seed for drawing the permutation (independent of the job
        /// seed so every job in a campaign sees the same permutation).
        salt: u64,
    },
    /// Only inter-layer destinations (§VI-B).
    InterLayerOnly {
        /// Stacked layer count of the switch under test.
        layers: usize,
    },
    /// The paper's pathological L2LC corner case (§VI-B).
    WorstCaseL2lc {
        /// Stacked layer count of the switch under test.
        layers: usize,
    },
    /// Datacenter incast: a rotating block of `fanin` inputs converges
    /// on one epoch victim output.
    Incast {
        /// Number of simultaneous senders per epoch.
        fanin: usize,
    },
    /// RPC request/response chains between paired client and server
    /// ports, with uniform background load on the upper half.
    Rpc {
        /// Server think time in cycles between request and response.
        delay: u64,
    },
    /// Diurnal load: a triangle envelope modulates the offered rate
    /// over `period` cycles.
    Diurnal {
        /// Envelope period in cycles.
        period: u64,
    },
}

impl PatternSpec {
    /// Compact label used in telemetry records.
    pub fn label(&self) -> String {
        match self {
            PatternSpec::Uniform => "uniform".to_string(),
            PatternSpec::Hotspot { output } => format!("hotspot{output}"),
            PatternSpec::Bursty => "bursty".to_string(),
            PatternSpec::Transpose => "transpose".to_string(),
            PatternSpec::BitComplement => "bitcomp".to_string(),
            PatternSpec::Tornado => "tornado".to_string(),
            PatternSpec::NeighborShift => "neighbor".to_string(),
            PatternSpec::RandomPermutation { salt } => format!("randperm{salt}"),
            PatternSpec::InterLayerOnly { layers } => format!("interlayer{layers}"),
            PatternSpec::WorstCaseL2lc { layers } => format!("worstl2lc{layers}"),
            PatternSpec::Incast { fanin } => format!("incast{fanin}"),
            PatternSpec::Rpc { delay } => format!("rpc{delay}"),
            PatternSpec::Diurnal { period } => format!("diurnal{period}"),
        }
    }

    /// Checks that [`build`](Self::build) can make the pattern for `n`
    /// endpoints, and says why not: a destination beyond the endpoints,
    /// or a shape the endpoint count does not have.
    pub fn check(&self, n: usize) -> Result<(), String> {
        let square = |n: usize| {
            let side = (n as f64).sqrt().round() as usize;
            side * side == n
        };
        Err(match *self {
            _ if n == 0 => "there are no endpoints to send between".to_string(),
            PatternSpec::Hotspot { output } if output >= n => {
                format!("hotspot output {output} is not one of the {n} endpoints")
            }
            PatternSpec::Transpose if !square(n) => {
                format!("transpose needs a square endpoint count, not {n}")
            }
            PatternSpec::BitComplement if !n.is_power_of_two() => {
                format!("bit complement needs a power-of-two endpoint count, not {n}")
            }
            PatternSpec::Tornado | PatternSpec::NeighborShift if n < 2 => {
                format!("{} needs at least 2 endpoints", self.label())
            }
            PatternSpec::InterLayerOnly { layers } | PatternSpec::WorstCaseL2lc { layers }
                if layers < 2 || !n.is_multiple_of(layers) =>
            {
                format!("{n} endpoints do not divide over {layers} layers (at least 2)")
            }
            PatternSpec::Incast { fanin } if !(1..=n).contains(&fanin) => {
                format!("incast fan-in {fanin} is not within 1 to the {n} endpoints")
            }
            PatternSpec::Rpc { delay } if n < 4 || delay == 0 => {
                format!("rpc needs at least 4 endpoints and a positive delay, not {n} and {delay}")
            }
            PatternSpec::Diurnal { period } if period < 2 => {
                format!("diurnal period must be at least 2, not {period}")
            }
            _ => return Ok(()),
        })
    }

    /// Builds the generator for `n` endpoints (the switch radix, or the
    /// core count for mesh topologies).
    pub fn build(&self, n: usize) -> Box<dyn TrafficPattern> {
        match self {
            PatternSpec::Uniform => Box::new(UniformRandom::new(n)),
            PatternSpec::Hotspot { output } => Box::new(Hotspot::new(OutputId::new(*output))),
            PatternSpec::Bursty => Box::new(Bursty::with_defaults(n)),
            PatternSpec::Transpose => Box::new(Transpose::new(n)),
            PatternSpec::BitComplement => Box::new(BitComplement::new(n)),
            PatternSpec::Tornado => Box::new(Tornado::new(n)),
            PatternSpec::NeighborShift => Box::new(NeighborShift::new(n)),
            PatternSpec::RandomPermutation { salt } => Box::new(RandomPermutation::new(n, *salt)),
            PatternSpec::InterLayerOnly { layers } => Box::new(InterLayerOnly::new(n, *layers)),
            PatternSpec::WorstCaseL2lc { layers } => Box::new(WorstCaseL2lc::new(n, *layers)),
            PatternSpec::Incast { fanin } => Box::new(Incast::new(n, *fanin)),
            PatternSpec::Rpc { delay } => Box::new(Rpc::new(n, *delay)),
            PatternSpec::Diurnal { period } => Box::new(Diurnal::new(n, *period)),
        }
    }

    fn canonical_json(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.label());
    }
}

/// A deterministic fault-injection scenario: how many of each fault
/// site class go down before the run starts. Sites are *sampled*, not
/// enumerated — the concrete dead TSV bundles, ports and crosspoints
/// are drawn from a PRNG seeded purely by the job's seed and this
/// spec's `salt`, so a campaign produces byte-identical results at any
/// thread count, and two replicates of the same grid point see
/// different fault placements.
///
/// Counts are clamped to what the fabric's geometry offers (the flat
/// 2D switch has zero TSV bundles, so a TSV axis collapses there).
/// A spec with all counts zero — [`FaultSpec::none`] — never touches
/// the fabric's fault machinery at all, which keeps zero-fault runs
/// bit-identical to fault-free fabrics.
///
/// In single-switch campaigns the spec applies to the one fabric under
/// test. In mesh and dragonfly campaigns it applies to every router,
/// each sampling an independent fault mix from a node-derived seed —
/// except that a dragonfly reinterprets `dead_tsvs` as dead wafer
/// (group-pair) links, the wafer-scale analogue of a severed bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Number of TSV bundles (L2LCs for Hi-Rise, output-bus boundary
    /// crossings for the folded switch) stuck permanently dead.
    pub dead_tsvs: usize,
    /// Number of input ports stuck permanently dead.
    pub dead_ports: usize,
    /// Number of individual crosspoints stuck permanently dead.
    pub dead_crosspoints: usize,
    /// Number of TSV bundles that are transiently flaky (down with
    /// probability [`flake_probability`](Self::flake_probability) each
    /// cycle). Sampled distinct from the dead bundles.
    pub flaky_tsvs: usize,
    /// Per-cycle down probability of each flaky bundle, clamped to
    /// `[0, 1]` at application time.
    pub flake_probability: f64,
    /// Extra entropy for fault-site sampling, so several fault axes
    /// with the same counts place faults differently.
    pub salt: u64,
}

impl FaultSpec {
    /// The fault-free scenario.
    pub fn none() -> Self {
        Self {
            dead_tsvs: 0,
            dead_ports: 0,
            dead_crosspoints: 0,
            flaky_tsvs: 0,
            flake_probability: 0.0,
            salt: 0,
        }
    }

    /// `n` dead TSV bundles, nothing else.
    pub fn dead_tsv_bundles(n: usize) -> Self {
        Self {
            dead_tsvs: n,
            ..Self::none()
        }
    }

    /// This spec with `n` dead ports.
    pub fn with_dead_ports(mut self, n: usize) -> Self {
        self.dead_ports = n;
        self
    }

    /// This spec with `n` dead crosspoints.
    pub fn with_dead_crosspoints(mut self, n: usize) -> Self {
        self.dead_crosspoints = n;
        self
    }

    /// This spec with `n` flaky TSV bundles at per-cycle probability `p`.
    pub fn with_flaky_tsvs(mut self, n: usize, p: f64) -> Self {
        self.flaky_tsvs = n;
        self.flake_probability = p;
        self
    }

    /// This spec with a different sampling salt.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Whether this is the fault-free scenario (all counts zero).
    pub fn is_none(&self) -> bool {
        self.dead_tsvs == 0
            && self.dead_ports == 0
            && self.dead_crosspoints == 0
            && self.flaky_tsvs == 0
    }

    /// Compact label used in telemetry records, e.g. `none` or
    /// `dt4`, `dt1dp2ft2q0.01s7`.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut s = String::new();
        if self.dead_tsvs > 0 {
            let _ = write!(s, "dt{}", self.dead_tsvs);
        }
        if self.dead_ports > 0 {
            let _ = write!(s, "dp{}", self.dead_ports);
        }
        if self.dead_crosspoints > 0 {
            let _ = write!(s, "dx{}", self.dead_crosspoints);
        }
        if self.flaky_tsvs > 0 {
            let _ = write!(s, "ft{}q{}", self.flaky_tsvs, self.flake_probability);
        }
        if self.salt != 0 {
            let _ = write!(s, "s{}", self.salt);
        }
        s
    }

    /// Samples this scenario's concrete fault sites and injects them
    /// into `fabric`. Deterministic in `(job_seed, self)` alone — no
    /// shared state, so any thread applying the same job gets the same
    /// faults. A [`FaultSpec::none`] spec is a no-op that leaves the
    /// fabric's fault machinery disabled entirely.
    pub fn apply<F: Fabric + ?Sized>(&self, fabric: &mut F, job_seed: u64) {
        if self.is_none() {
            return;
        }
        let sampler_seed = derive_seed(job_seed ^ 0xFA17_BA5E_D00D_F00D, self.salt);
        fabric
            .enable_faults(derive_seed(sampler_seed, 1))
            .expect("all workspace fabrics support fault injection");
        let mut rng = StdRng::seed_from_u64(sampler_seed);
        let inject = |fabric: &mut F, fault: Fault| {
            fabric
                .inject_fault(fault)
                .expect("sampled fault sites are in range");
        };
        // One shuffled permutation of the bundles: the first `dead_tsvs`
        // die, the next `flaky_tsvs` flake — always distinct sites.
        let tsvs = fabric.tsv_bundle_count();
        let mut bundles: Vec<usize> = (0..tsvs).collect();
        bundles.shuffle(&mut rng);
        let dead = self.dead_tsvs.min(tsvs);
        let flaky = self.flaky_tsvs.min(tsvs - dead);
        let p = if self.flake_probability.is_finite() {
            self.flake_probability.clamp(0.0, 1.0)
        } else {
            0.0
        };
        for &index in &bundles[..dead] {
            inject(fabric, Fault::dead(FaultSite::TsvBundle { index }));
        }
        for &index in &bundles[dead..dead + flaky] {
            inject(fabric, Fault::flaky(FaultSite::TsvBundle { index }, p));
        }
        let radix = fabric.radix();
        let mut ports: Vec<usize> = (0..radix).collect();
        ports.shuffle(&mut rng);
        for &input in &ports[..self.dead_ports.min(radix)] {
            inject(fabric, Fault::dead(FaultSite::Port { input }));
        }
        let mut seen = std::collections::HashSet::new();
        while seen.len() < self.dead_crosspoints.min(radix * radix) {
            let input = rng.gen_range(0..radix);
            let output = rng.gen_range(0..radix);
            if seen.insert((input, output)) {
                inject(fabric, Fault::dead(FaultSite::Crosspoint { input, output }));
            }
        }
    }

    fn canonical_json(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"dead_tsvs":{},"dead_ports":{},"dead_crosspoints":{},"flaky_tsvs":{},"flake_probability":"#,
            self.dead_tsvs, self.dead_ports, self.dead_crosspoints, self.flaky_tsvs,
        );
        crate::json::write_f64(out, self.flake_probability);
        let _ = write!(out, r#","salt":{}}}"#, self.salt);
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// Simulation methodology shared by every job of a campaign:
/// everything except the fabric, the pattern, the offered load and the
/// seed. Defaults match the paper's methodology (4 VCs × 4 flits,
/// 4-flit packets, 2k warmup / 20k measure / 20k drain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimParams {
    /// Virtual channels per input port (single-switch topology only).
    pub vcs: usize,
    /// VC buffer depth in flits (single-switch topology only).
    pub vc_depth_flits: usize,
    /// Packet length in flits.
    pub packet_len_flits: usize,
    /// Warmup cycles (statistics ignored).
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Drain cap in cycles.
    pub drain: u64,
    /// Closed-loop window (max packets in flight per input), `None`
    /// for the standard open-loop methodology.
    pub window: Option<usize>,
    /// Run the invariant checker in recording mode so violations end
    /// up in the job's result record instead of panicking (on by
    /// default). A radix-64 job takes 1.2–1.25× as long with the
    /// checker on as with it off.
    pub record_invariants: bool,
}

impl SimParams {
    /// The paper's defaults (see [`SimConfig::new`]), with invariant
    /// recording on.
    pub fn new() -> Self {
        Self {
            vcs: 4,
            vc_depth_flits: 4,
            packet_len_flits: 4,
            warmup: 2_000,
            measure: 20_000,
            drain: 20_000,
            window: None,
            record_invariants: true,
        }
    }

    /// The scale behind the recorded EXPERIMENTS.md numbers
    /// (3k warmup / 30k measure / 30k drain).
    pub fn full() -> Self {
        Self::new().cycles(3_000, 30_000, 30_000)
    }

    /// A fast smoke scale (500 / 3k / 3k; noisier).
    pub fn quick() -> Self {
        Self::new().cycles(500, 3_000, 3_000)
    }

    /// Sets warmup, measurement and drain lengths together.
    pub fn cycles(mut self, warmup: u64, measure: u64, drain: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self.drain = drain;
        self
    }

    /// Sets the drain cap (0 for saturation measurements).
    pub fn drain(mut self, cycles: u64) -> Self {
        self.drain = cycles;
        self
    }

    /// Sets the closed-loop window.
    pub fn window(mut self, window: Option<usize>) -> Self {
        self.window = window;
        self
    }

    /// Turns invariant recording on or off.
    pub fn record_invariants(mut self, on: bool) -> Self {
        self.record_invariants = on;
        self
    }

    /// The concrete [`SimConfig`] for one job.
    pub fn to_sim_config(&self, radix: usize, load: f64, seed: u64) -> SimConfig {
        SimConfig::new(radix)
            .vcs(self.vcs)
            .vc_depth_flits(self.vc_depth_flits)
            .packet_len_flits(self.packet_len_flits)
            .injection_rate(load)
            .window(self.window)
            .warmup(self.warmup)
            .measure(self.measure)
            .drain(self.drain)
            .seed(seed)
            .record_invariants(self.record_invariants)
    }

    fn canonical_json(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"vcs":{},"vc_depth":{},"packet_len":{},"warmup":{},"measure":{},"drain":{},"window":{},"record_invariants":{}}}"#,
            self.vcs,
            self.vc_depth_flits,
            self.packet_len_flits,
            self.warmup,
            self.measure,
            self.drain,
            match self.window {
                Some(w) => w.to_string(),
                None => "null".to_string(),
            },
            self.record_invariants,
        );
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::new()
    }
}

/// What the fabric under test is embedded in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// A single switch driven directly by the traffic pattern (the
    /// paper's main methodology).
    SingleSwitch,
    /// A `cols x rows` mesh of switches with XY routing (§VI-E); the
    /// pattern addresses cores, `radix - 4*ports_per_direction` per
    /// node.
    Mesh {
        /// Mesh columns.
        cols: usize,
        /// Mesh rows.
        rows: usize,
        /// Switch ports reserved per mesh direction.
        ports_per_direction: usize,
        /// `Some(layers)` uses the layer-aware port mapping of §VI-E;
        /// `None` the contiguous default.
        layer_aware: Option<usize>,
    },
    /// A wafer-scale dragonfly of switches: groups of `routers_per_group`
    /// fully-meshed routers, each with `endpoints_per_router` endpoints
    /// and `global_per_router` wafer links to other groups. The fabric
    /// radix must cover `endpoints_per_router + routers_per_group - 1 +
    /// global_per_router` ports. A campaign fault axis maps `dead_tsvs`
    /// to dead wafer (group-pair) links; the remaining fault fields
    /// apply per router.
    Dragonfly {
        /// Routers per group (`a`).
        routers_per_group: usize,
        /// Endpoints per router (`p`).
        endpoints_per_router: usize,
        /// Wafer links per router (`h`).
        global_per_router: usize,
        /// Group count (`g`, at most `a*h + 1`).
        groups: usize,
        /// `true` for the palmtree global-link arrangement, `false` for
        /// consecutive.
        palmtree: bool,
    },
}

impl Topology {
    fn canonical_json(&self, out: &mut String) {
        match self {
            Topology::SingleSwitch => out.push_str(r#""single-switch""#),
            Topology::Mesh {
                cols,
                rows,
                ports_per_direction,
                layer_aware,
            } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"mesh","cols":{cols},"rows":{rows},"ports_per_direction":{ports_per_direction},"layer_aware":{}}}"#,
                    match layer_aware {
                        Some(l) => l.to_string(),
                        None => "null".to_string(),
                    },
                );
            }
            Topology::Dragonfly {
                routers_per_group,
                endpoints_per_router,
                global_per_router,
                groups,
                palmtree,
            } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"dragonfly","routers_per_group":{routers_per_group},"endpoints_per_router":{endpoints_per_router},"global_per_router":{global_per_router},"groups":{groups},"palmtree":{palmtree}}}"#,
                );
            }
        }
    }
}

/// One expanded grid point: everything needed to run one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Position in the campaign's expansion (stable across runs; keys
    /// the checkpoint file).
    pub index: usize,
    /// The fabric under test.
    pub fabric: FabricSpec,
    /// The traffic pattern.
    pub pattern: PatternSpec,
    /// Offered load in packets/input/cycle.
    pub load: f64,
    /// The fault scenario this job runs under.
    pub fault: FaultSpec,
    /// Replicate number (seeds differ between replicates).
    pub replicate: usize,
    /// The derived RNG seed, a pure function of the campaign's master
    /// seed and this job's expansion position.
    pub seed: u64,
}

/// Derives a job seed from the campaign master seed and the job's
/// expansion index. Pure and order-free: the seed depends only on
/// `(master, index)`, never on which thread runs the job or when.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    hirise_core::rng::derive_stream_seed(master, index)
}

/// A declarative experiment campaign: the grid axes plus the shared
/// methodology. Expand with [`jobs`](Self::jobs), run with
/// [`run`](Self::run) or [`run_to_file`](Self::run_to_file).
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (recorded in the telemetry header).
    pub name: String,
    /// Master seed; per-job seeds derive from it via [`derive_seed`].
    pub master_seed: u64,
    /// What the fabrics are embedded in.
    pub topology: Topology,
    /// Fabrics under test.
    pub fabrics: Vec<FabricSpec>,
    /// Inter-layer arbitration schemes to sweep on each Hi-Rise fabric
    /// (empty keeps each fabric's own scheme; the axis collapses for
    /// non-Hi-Rise fabrics).
    pub schemes: Vec<ArbitrationScheme>,
    /// Channel allocations to sweep on each Hi-Rise fabric (empty
    /// keeps each fabric's own; collapses for non-Hi-Rise fabrics).
    pub allocations: Vec<ChannelAllocation>,
    /// Traffic patterns.
    pub patterns: Vec<PatternSpec>,
    /// Offered loads in packets/input/cycle.
    pub loads: Vec<f64>,
    /// Fault scenarios to sweep (empty means one fault-free run per
    /// grid point, identical to a campaign with no fault axis at all).
    pub faults: Vec<FaultSpec>,
    /// Independent repetitions per grid point (different seeds).
    pub replicates: usize,
    /// Shared simulation methodology.
    pub sim: SimParams,
    /// Shard count for mesh and dragonfly jobs: each job's topology is
    /// partitioned into this many lockstep worker threads (clamped to
    /// the topology's router count per job). Purely an
    /// *execution* knob — results are byte-identical at any shard
    /// count, so it is deliberately excluded from
    /// [`canonical_json`](Self::canonical_json), the digest and the
    /// job key (a resharded rerun resumes checkpoints and hits the
    /// result cache). Single-switch jobs ignore it.
    pub shards: usize,
}

impl CampaignSpec {
    /// An empty single-switch campaign with the paper's methodology
    /// and [`DEFAULT_SEED`].
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            master_seed: DEFAULT_SEED,
            topology: Topology::SingleSwitch,
            fabrics: Vec::new(),
            schemes: Vec::new(),
            allocations: Vec::new(),
            patterns: Vec::new(),
            loads: Vec::new(),
            faults: Vec::new(),
            replicates: 1,
            sim: SimParams::new(),
            shards: 1,
        }
    }

    /// The endpoints a traffic pattern runs over on `fabric`: the
    /// fabric radix on a single switch, the cores of a mesh (the ports
    /// its four directions leave on each router, times the routers),
    /// the endpoints of a dragonfly. `None` for a mesh whose radix
    /// cannot hold its direction ports.
    pub fn endpoints(&self, fabric: &FabricSpec) -> Option<usize> {
        let radix = fabric.radix();
        match self.topology {
            Topology::SingleSwitch => Some(radix),
            Topology::Mesh {
                cols,
                rows,
                ports_per_direction,
                ..
            } => radix
                .checked_sub(4 * ports_per_direction)
                .map(|cores| cores * cols * rows),
            Topology::Dragonfly {
                routers_per_group,
                endpoints_per_router,
                groups,
                ..
            } => Some(routers_per_group * endpoints_per_router * groups),
        }
    }

    /// Sets the master seed.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Adds a fabric to the grid.
    pub fn fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabrics.push(fabric);
        self
    }

    /// Adds an arbitration scheme to the grid.
    pub fn scheme(mut self, scheme: ArbitrationScheme) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Adds a channel allocation to the grid.
    pub fn allocation(mut self, allocation: ChannelAllocation) -> Self {
        self.allocations.push(allocation);
        self
    }

    /// Adds a traffic pattern to the grid.
    pub fn pattern(mut self, pattern: PatternSpec) -> Self {
        self.patterns.push(pattern);
        self
    }

    /// Sets the offered-load axis.
    pub fn loads(mut self, loads: impl IntoIterator<Item = f64>) -> Self {
        self.loads = loads.into_iter().collect();
        self
    }

    /// Adds a fault scenario to the grid. An empty fault axis (the
    /// default) behaves like a single [`FaultSpec::none`] entry; to
    /// compare degraded fabrics against a healthy baseline, add
    /// `FaultSpec::none()` explicitly alongside the faulty scenarios.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the replicate count (minimum 1).
    pub fn replicates(mut self, n: usize) -> Self {
        self.replicates = n.max(1);
        self
    }

    /// Sets the shared methodology.
    pub fn sim(mut self, sim: SimParams) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the shard count (minimum 1) for mesh and dragonfly jobs.
    /// An execution knob only: results, digests and job keys are
    /// invariant to it.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// The fabric axis after applying the scheme and allocation sweeps.
    /// Hi-Rise fabrics fan out over `schemes x allocations`
    /// (combinations the geometry rejects are skipped); 2D and folded
    /// fabrics appear exactly once since those axes do not apply to
    /// them.
    pub fn expanded_fabrics(&self) -> Vec<FabricSpec> {
        let mut out = Vec::new();
        for fabric in &self.fabrics {
            if !matches!(fabric, FabricSpec::HiRise(_))
                || (self.schemes.is_empty() && self.allocations.is_empty())
            {
                out.push(fabric.clone());
                continue;
            }
            let schemed: Vec<FabricSpec> = if self.schemes.is_empty() {
                vec![fabric.clone()]
            } else {
                self.schemes
                    .iter()
                    .filter_map(|&s| fabric.with_scheme(s))
                    .collect()
            };
            for f in schemed {
                if self.allocations.is_empty() {
                    out.push(f);
                } else {
                    out.extend(
                        self.allocations
                            .iter()
                            .filter_map(|&a| f.with_allocation(a)),
                    );
                }
            }
        }
        out
    }

    /// Expands the grid into its job list. The expansion order (fabric,
    /// then pattern, then load, then fault, then replicate) is part of
    /// the campaign's identity: job indices key the checkpoint file and
    /// feed the per-job seeds.
    pub fn jobs(&self) -> Vec<Job> {
        let fault_axis: Vec<FaultSpec> = if self.faults.is_empty() {
            vec![FaultSpec::none()]
        } else {
            self.faults.clone()
        };
        let mut jobs = Vec::new();
        for fabric in self.expanded_fabrics() {
            for pattern in &self.patterns {
                for &load in &self.loads {
                    for fault in &fault_axis {
                        for replicate in 0..self.replicates.max(1) {
                            let index = jobs.len();
                            jobs.push(Job {
                                index,
                                fabric: fabric.clone(),
                                pattern: pattern.clone(),
                                load,
                                fault: fault.clone(),
                                replicate,
                                seed: derive_seed(self.master_seed, index as u64),
                            });
                        }
                    }
                }
            }
        }
        jobs
    }

    /// A canonical JSON encoding of the spec, the input to
    /// [`digest`](Self::digest). Field order is fixed so equal specs
    /// produce equal strings.
    pub fn canonical_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        crate::json::write_escaped(&mut out, &self.name);
        let _ = write!(out, ",\"master_seed\":{}", self.master_seed);
        out.push_str(",\"topology\":");
        self.topology.canonical_json(&mut out);
        out.push_str(",\"fabrics\":[");
        for (i, f) in self.fabrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            f.canonical_json(&mut out);
        }
        out.push_str("],\"schemes\":[");
        for (i, &s) in self.schemes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", scheme_label(s));
        }
        out.push_str("],\"allocations\":[");
        for (i, &a) in self.allocations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", allocation_label(a));
        }
        out.push_str("],\"patterns\":[");
        for (i, p) in self.patterns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            p.canonical_json(&mut out);
        }
        out.push_str("],\"loads\":[");
        for (i, &l) in self.loads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::write_f64(&mut out, l);
        }
        out.push_str("],\"faults\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            f.canonical_json(&mut out);
        }
        let _ = write!(out, "],\"replicates\":{},\"sim\":", self.replicates.max(1));
        self.sim.canonical_json(&mut out);
        out.push('}');
        out
    }

    /// FNV-1a 64-bit digest of [`canonical_json`](Self::canonical_json).
    /// Identifies the campaign in the telemetry header; a checkpoint
    /// file whose digest disagrees belongs to a different campaign and
    /// is not resumed from.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canonical_json().as_bytes())
    }

    /// A canonical JSON encoding of everything that determines one
    /// job's result record: the shared methodology (topology, sim
    /// parameters) plus the job's own grid coordinates, index,
    /// replicate and seed. Deliberately excludes the campaign's name
    /// and master seed — the job seed already captures all the
    /// randomness — so differently-named campaigns over the same grid
    /// share content-addressed cache entries (the result-serving
    /// daemon keys its cache on a hash of this string).
    pub fn job_key_json(&self, job: &Job) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"topology\":");
        self.topology.canonical_json(&mut out);
        out.push_str(",\"sim\":");
        self.sim.canonical_json(&mut out);
        out.push_str(",\"fabric\":");
        job.fabric.canonical_json(&mut out);
        out.push_str(",\"pattern\":");
        job.pattern.canonical_json(&mut out);
        out.push_str(",\"load\":");
        crate::json::write_f64(&mut out, job.load);
        out.push_str(",\"fault\":");
        job.fault.canonical_json(&mut out);
        let _ = write!(
            out,
            ",\"index\":{},\"replicate\":{},\"seed\":{}}}",
            job.index, job.replicate, job.seed
        );
        out
    }

    /// Assembles a job's result record from its finished simulator and
    /// report.
    fn single_switch_result(
        job: &Job,
        sim: &NetworkSim<Box<dyn Fabric>, Box<dyn TrafficPattern>>,
        report: &SimReport,
    ) -> JobResult {
        let fault_events = sim.fault_event_count();
        let (violations, messages) = match sim.checker() {
            Some(checker) => (
                checker.violation_count(),
                checker
                    .violations()
                    .iter()
                    .take(3)
                    .map(|v| match v.cycle {
                        Some(c) => format!("cycle {c}: {}", v.message),
                        None => v.message.clone(),
                    })
                    .collect(),
            ),
            None => (0, Vec::new()),
        };
        JobResult {
            index: job.index,
            fabric: job.fabric.label(),
            pattern: job.pattern.label(),
            load: job.load,
            fault: job.fault.label(),
            replicate: job.replicate,
            seed: job.seed,
            metrics: Metrics {
                accepted_rate: report.accepted_rate(),
                avg_latency_cycles: report.avg_latency_cycles(),
                p50: report.latency_percentile_cycles(50.0),
                p95: report.latency_percentile_cycles(95.0),
                p99: report.latency_percentile_cycles(99.0),
                max_latency_cycles: report.max_latency_cycles(),
                injected: report.injected_measured(),
                completed: report.completed_measured(),
                stable: report.is_stable(),
                avg_hops: None,
            },
            violations,
            violation_messages: messages,
            fault_events,
            per_input_accepted: Some(report.per_input_accepted().to_vec()),
            histogram: report.latency_histogram().clone(),
        }
    }

    /// Runs `jobs` one after another on the calling thread, returning
    /// their records in order: `results[k]` is `run_job(&jobs[k])`.
    pub fn run_job_batch(&self, jobs: &[Job]) -> Vec<JobResult> {
        jobs.iter().map(|job| self.run_job(job)).collect()
    }

    /// Runs one job to completion, producing its result record. This
    /// is the only place a job touches a simulator; everything it reads
    /// is in the job and the spec, so calls are independent and can run
    /// on any thread.
    pub fn run_job(&self, job: &Job) -> JobResult {
        match &self.topology {
            Topology::SingleSwitch => {
                let radix = job.fabric.radix();
                let cfg = self.sim.to_sim_config(radix, job.load, job.seed);
                let mut fabric = job.fabric.build();
                job.fault.apply(&mut fabric, job.seed);
                let mut sim = NetworkSim::new(fabric, job.pattern.build(radix), cfg);
                let report = sim.run();
                Self::single_switch_result(job, &sim, &report)
            }
            Topology::Mesh {
                cols,
                rows,
                ports_per_direction,
                layer_aware,
            } => {
                let cfg = MeshSimConfig::new(*cols, *rows, *ports_per_direction)
                    .injection_rate(job.load)
                    .packet_len_flits(self.sim.packet_len_flits)
                    .warmup(self.sim.warmup)
                    .measure(self.sim.measure)
                    .drain(self.sim.drain)
                    .seed(job.seed)
                    .port_map(match layer_aware {
                        Some(layers) => MeshPortMap::LayerAware { layers: *layers },
                        None => MeshPortMap::Contiguous,
                    });
                let radix = job.fabric.radix();
                let cores = self
                    .endpoints(&job.fabric)
                    .expect("mesh radix holds its direction ports");
                let mut sim = sharded_mesh(
                    &cfg,
                    radix,
                    self.shards.min(cols * rows),
                    |node| self.routed_fabric(job, &job.fault, node),
                    || job.pattern.build(cores),
                );
                let report = sim.run();
                Self::routed_result(
                    job,
                    &report,
                    sim.fault_event_count(),
                    sim.invariant_violation_count(),
                )
            }
            Topology::Dragonfly {
                routers_per_group,
                endpoints_per_router,
                global_per_router,
                groups,
                palmtree,
            } => {
                let radix = job.fabric.radix();
                let dcfg = DragonflyConfig::new(
                    *routers_per_group,
                    *endpoints_per_router,
                    *global_per_router,
                    *groups,
                )
                .map(if *palmtree {
                    GlobalLinkMap::Palmtree
                } else {
                    GlobalLinkMap::Consecutive
                });
                // The fault axis's dead-TSV count becomes dead wafer
                // links between group pairs; the per-router fault fields
                // keep their single-switch meaning.
                let dead = sample_dead_links(
                    *groups,
                    job.fault.dead_tsvs,
                    derive_seed(job.seed ^ 0xFA17_BA5E_D00D_F00D, job.fault.salt),
                );
                let geo = DragonflyGeometry::new(dcfg, radix, &dead)
                    .expect("campaign dragonfly must be buildable and routable");
                let endpoints = self.endpoints(&job.fabric).expect("dragonfly endpoints");
                let mut cfg = ShardedConfig::new()
                    .injection_rate(job.load)
                    .warmup(self.sim.warmup)
                    .measure(self.sim.measure)
                    .drain(self.sim.drain)
                    .seed(job.seed);
                cfg.vcs = self.sim.vcs;
                cfg.packet_len_flits = self.sim.packet_len_flits;
                let router_fault = FaultSpec {
                    dead_tsvs: 0,
                    ..job.fault.clone()
                };
                let mut sim = ShardedSim::new(
                    geo,
                    cfg,
                    self.shards.min(routers_per_group * groups),
                    |node| self.routed_fabric(job, &router_fault, node),
                    || job.pattern.build(endpoints),
                );
                let report = sim.run();
                Self::routed_result(
                    job,
                    &report,
                    sim.fault_event_count(),
                    sim.invariant_violation_count(),
                )
            }
        }
    }

    /// Builds one node's fabric for a routed (mesh or dragonfly)
    /// topology, applying the job's fault plan with a seed derived from
    /// the node position so every node samples an independent fault mix
    /// regardless of which shard builds it.
    fn routed_fabric(&self, job: &Job, fault: &FaultSpec, node: usize) -> Box<dyn Fabric> {
        let mut fabric = job.fabric.build();
        fault.apply(&mut fabric, derive_seed(job.seed, node as u64));
        fabric
    }

    /// Assembles a routed-topology job result from the merged shard
    /// report, the fault events and the violations the engine recorded.
    /// The mesh and dragonfly arms share this, so the two paths cannot
    /// disagree on what a record contains.
    fn routed_result(
        job: &Job,
        report: &MeshReport,
        fault_events: u64,
        violations: u64,
    ) -> JobResult {
        JobResult {
            index: job.index,
            fabric: job.fabric.label(),
            pattern: job.pattern.label(),
            load: job.load,
            fault: job.fault.label(),
            replicate: job.replicate,
            seed: job.seed,
            metrics: Metrics {
                accepted_rate: report.accepted_rate(),
                avg_latency_cycles: report.avg_latency_cycles(),
                p50: report.latency_percentile_cycles(50.0),
                p95: report.latency_percentile_cycles(95.0),
                p99: report.latency_percentile_cycles(99.0),
                max_latency_cycles: report.latency_histogram().max().unwrap_or(0),
                injected: report.injected_measured(),
                completed: report.completed_measured(),
                stable: report.is_stable(),
                avg_hops: Some(report.avg_hops()),
            },
            violations,
            violation_messages: Vec::new(),
            fault_events,
            per_input_accepted: None,
            histogram: report.latency_histogram().clone(),
        }
    }
}

/// FNV-1a 64-bit hash.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_fabric_spec() -> CampaignSpec {
        CampaignSpec::new("test")
            .fabric(FabricSpec::Flat2d { radix: 8 })
            .fabric(FabricSpec::hirise(
                HiRiseConfig::builder(8, 2).build().unwrap(),
            ))
            .pattern(PatternSpec::Uniform)
            .pattern(PatternSpec::Transpose)
            .loads([0.05, 0.2])
            .replicates(2)
    }

    #[test]
    fn routed_records_carry_the_engine_violation_count() {
        let job = two_fabric_spec().jobs().remove(0);
        let cfg = MeshSimConfig::new(2, 1, 1).warmup(0).measure(20).drain(20);
        let mut sim = sharded_mesh(
            &cfg,
            8,
            1,
            |_| hirise_core::Switch2d::new(8),
            || Box::new(UniformRandom::new(8)) as Box<dyn TrafficPattern>,
        );
        let report = sim.run();
        assert_eq!(sim.invariant_violation_count(), 0);
        assert_eq!(
            CampaignSpec::routed_result(&job, &report, 0, 0).violations,
            0
        );
        let record = CampaignSpec::routed_result(&job, &report, 0, 3);
        assert_eq!(record.violations, 3, "the count reaches the record");
    }

    #[test]
    fn expansion_order_is_fabric_pattern_load_replicate() {
        let jobs = two_fabric_spec().jobs();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        assert_eq!(jobs[0].fabric.label(), "2d8");
        assert_eq!(jobs[0].pattern.label(), "uniform");
        assert_eq!(jobs[0].load, 0.05);
        assert_eq!(jobs[0].replicate, 0);
        assert_eq!(jobs[1].replicate, 1);
        assert_eq!(jobs[2].load, 0.2);
        assert_eq!(jobs[4].pattern.label(), "transpose");
        assert_eq!(jobs[8].fabric.label(), "hirise8x2c1-clrg3-in");
        assert!(jobs.iter().enumerate().all(|(i, j)| j.index == i));
    }

    #[test]
    fn seeds_are_a_pure_function_of_master_and_index() {
        let a = two_fabric_spec().jobs();
        let b = two_fabric_spec().jobs();
        assert_eq!(a, b);
        let c = two_fabric_spec().master_seed(99).jobs();
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
        // All seeds within a campaign are distinct.
        let mut seeds: Vec<u64> = a.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn scheme_axis_fans_out_hirise_only() {
        let spec = two_fabric_spec()
            .scheme(ArbitrationScheme::LayerToLayerLrg)
            .scheme(ArbitrationScheme::class_based());
        let fabrics = spec.expanded_fabrics();
        // 2D once + Hi-Rise twice.
        assert_eq!(fabrics.len(), 3);
        assert_eq!(fabrics[0].label(), "2d8");
        assert_eq!(fabrics[1].label(), "hirise8x2c1-lrg-in");
        assert_eq!(fabrics[2].label(), "hirise8x2c1-clrg3-in");
    }

    #[test]
    fn invalid_grid_combinations_are_skipped() {
        // 8 radix / 2 layers -> 4 inputs per layer; c=4 with input
        // binning is fine, but an 8x2c3 rebuild is impossible, so
        // with_allocation on a c=3 priority-based config cannot switch
        // to binned.
        let cfg = HiRiseConfig::builder(48, 3)
            .channel_multiplicity(3)
            .allocation(ChannelAllocation::PriorityBased)
            .build()
            .unwrap();
        let spec = FabricSpec::hirise(cfg);
        assert!(spec
            .with_allocation(ChannelAllocation::InputBinned)
            .is_none());
        assert!(spec
            .with_allocation(ChannelAllocation::PriorityBased)
            .is_some());
    }

    #[test]
    fn digest_identifies_the_campaign() {
        let a = two_fabric_spec();
        assert_eq!(a.digest(), two_fabric_spec().digest());
        assert_ne!(a.digest(), a.clone().loads([0.05]).digest());
        assert_ne!(a.digest(), a.clone().master_seed(7).digest());
        assert_ne!(
            a.digest(),
            a.clone().sim(SimParams::new().drain(0)).digest()
        );
    }

    #[test]
    fn canonical_json_parses_as_json() {
        let spec = two_fabric_spec()
            .scheme(ArbitrationScheme::WeightedLrg)
            .allocation(ChannelAllocation::OutputBinned)
            .topology(Topology::Mesh {
                cols: 2,
                rows: 2,
                ports_per_direction: 1,
                layer_aware: Some(2),
            });
        let parsed = crate::json::parse(&spec.canonical_json()).expect("canonical json is valid");
        assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some("test"));
    }

    #[test]
    fn from_point_round_trips_radix_and_label_style() {
        let spec = FabricSpec::from_point(&DesignPoint::Folded {
            radix: 64,
            layers: 4,
            flit_bits: 128,
        });
        assert_eq!(spec.radix(), 64);
        assert_eq!(spec.label(), "folded64x4");
        assert_eq!(spec.design().label(), "[16x64]x4");
    }
}
