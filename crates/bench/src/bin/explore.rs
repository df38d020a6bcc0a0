//! Ad-hoc experiment CLI: simulate any switch configuration under any
//! traffic pattern at any load, reporting latency/throughput in both
//! cycle and wall-clock units.
//!
//! ```sh
//! cargo run --release -p hirise-bench --bin explore -- \
//!     --radix 64 --layers 4 --channels 4 --scheme clrg \
//!     --pattern hotspot --load 0.1
//! ```
//!
//! Options (all have defaults):
//! `--radix N` `--layers L` (`--layers 0` = flat 2D switch)
//! `--channels C` `--scheme l2l|wlrg|clrg` `--alloc input|output|priority`
//! `--pattern uniform|hotspot|adversarial|bursty|tornado|neighbor|`
//! `transpose|bitcomp|interlayer|worstcase` `--load packets/input/cycle`
//! `--cycles N` `--seed S`

use hirise_core::{
    ArbitrationScheme, ChannelAllocation, Fabric, HiRiseConfig, HiRiseSwitch, OutputId, Switch2d,
};
use hirise_lab::args::{arg_error, parse_flag_value};
use hirise_phys::{ns_from_cycles, packets_per_ns, SwitchDesign};
use hirise_sim::traffic::{
    paper_adversarial, BitComplement, Bursty, Hotspot, InterLayerOnly, NeighborShift, Tornado,
    TrafficPattern, Transpose, UniformRandom, WorstCaseL2lc,
};
use hirise_sim::{NetworkSim, SimConfig};

const USAGE: &str = "explore [--radix N] [--layers L] [--channels C] \
[--scheme l2l|wlrg|clrg] [--alloc input|output|priority] \
[--pattern uniform|hotspot|adversarial|bursty|tornado|neighbor|transpose|\
bitcomp|interlayer|worstcase] [--load RATE] [--cycles N] [--seed S]";

#[derive(Debug)]
struct Options {
    radix: usize,
    layers: usize,
    channels: usize,
    scheme: ArbitrationScheme,
    alloc: ChannelAllocation,
    pattern: String,
    load: f64,
    cycles: u64,
    seed: u64,
}

impl Options {
    fn parse() -> Options {
        let mut options = Options {
            radix: 64,
            layers: 4,
            channels: 4,
            scheme: ArbitrationScheme::class_based(),
            alloc: ChannelAllocation::InputBinned,
            pattern: "uniform".to_string(),
            load: 0.1,
            cycles: 20_000,
            seed: 1,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = || -> String {
                args.iter()
                    .skip_while(|a| *a != flag)
                    .nth(1)
                    .unwrap_or_else(|| arg_error(format!("missing value for {flag}"), USAGE))
                    .clone()
            };
            match flag.as_str() {
                "--radix" => options.radix = parse_flag_value(flag, &value(), USAGE),
                "--layers" => options.layers = parse_flag_value(flag, &value(), USAGE),
                "--channels" => options.channels = parse_flag_value(flag, &value(), USAGE),
                "--scheme" => {
                    options.scheme = match value().as_str() {
                        "l2l" => ArbitrationScheme::LayerToLayerLrg,
                        "wlrg" => ArbitrationScheme::WeightedLrg,
                        "clrg" => ArbitrationScheme::class_based(),
                        other => arg_error(format!("unknown scheme {other:?}"), USAGE),
                    }
                }
                "--alloc" => {
                    options.alloc = match value().as_str() {
                        "input" => ChannelAllocation::InputBinned,
                        "output" => ChannelAllocation::OutputBinned,
                        "priority" => ChannelAllocation::PriorityBased,
                        other => arg_error(format!("unknown allocation {other:?}"), USAGE),
                    }
                }
                "--pattern" => options.pattern = value(),
                "--load" => options.load = parse_flag_value(flag, &value(), USAGE),
                "--cycles" => options.cycles = parse_flag_value(flag, &value(), USAGE),
                "--seed" => options.seed = parse_flag_value(flag, &value(), USAGE),
                other if other.starts_with("--") => {
                    arg_error(format!("unknown flag {other}"), USAGE)
                }
                _ => {}
            }
            if flag.starts_with("--") {
                iter.next(); // consume the value
            }
        }
        options
    }

    fn make_pattern(&self) -> Box<dyn TrafficPattern> {
        let n = self.radix;
        let l = self.layers.max(2);
        match self.pattern.as_str() {
            "uniform" => Box::new(UniformRandom::new(n)),
            "hotspot" => Box::new(Hotspot::new(OutputId::new(n - 1))),
            "adversarial" => Box::new(paper_adversarial()),
            "bursty" => Box::new(Bursty::with_defaults(n)),
            "tornado" => Box::new(Tornado::new(n)),
            "neighbor" => Box::new(NeighborShift::new(n)),
            "transpose" => Box::new(Transpose::new(n)),
            "bitcomp" => Box::new(BitComplement::new(n)),
            "interlayer" => Box::new(InterLayerOnly::new(n, l)),
            "worstcase" => Box::new(WorstCaseL2lc::new(n, l)),
            other => arg_error(format!("unknown pattern {other:?}"), USAGE),
        }
    }
}

fn main() {
    let options = Options::parse();
    let hirise_cfg = (options.layers > 0).then(|| {
        HiRiseConfig::builder(options.radix, options.layers)
            .channel_multiplicity(options.channels)
            .scheme(options.scheme)
            .allocation(options.alloc)
            .build()
            .expect("valid configuration")
    });
    let (fabric, design): (Box<dyn Fabric>, SwitchDesign) = match &hirise_cfg {
        None => (
            Box::new(Switch2d::new(options.radix)),
            SwitchDesign::flat_2d(options.radix),
        ),
        Some(cfg) => (Box::new(HiRiseSwitch::new(cfg)), SwitchDesign::hirise(cfg)),
    };
    let freq = design.frequency_ghz();

    println!("design    : {} @ {:.2} GHz", design.label(), freq);
    println!(
        "physical  : {:.3} mm2, {:.0} pJ/transaction, {} TSVs",
        design.area_mm2(),
        design.energy_per_transaction_pj(),
        design.tsv_count()
    );
    println!(
        "run       : pattern {}, load {} packets/input/cycle, {} cycles, seed {}",
        options.pattern, options.load, options.cycles, options.seed
    );

    let sim_cfg = SimConfig::new(options.radix)
        .injection_rate(options.load)
        .warmup(options.cycles / 10)
        .measure(options.cycles)
        .drain(options.cycles)
        .seed(options.seed);

    // Run on the concrete switch when it is a Hi-Rise so the L2LC
    // utilisation counters remain accessible afterwards.
    let report = match &hirise_cfg {
        None => {
            drop(fabric);
            NetworkSim::new(
                Switch2d::new(options.radix),
                options.make_pattern(),
                sim_cfg,
            )
            .run()
        }
        Some(cfg) => {
            drop(fabric);
            let mut sim = NetworkSim::new(HiRiseSwitch::new(cfg), options.make_pattern(), sim_cfg);
            let report = sim.run();
            let switch = sim.fabric();
            println!(
                "\ntraffic   : {:.1}% of grants crossed layers (L2LCs)",
                100.0 * switch.inter_layer_fraction()
            );
            let l = cfg.layers();
            let c = cfg.channel_multiplicity();
            let mut min = u64::MAX;
            let mut max = 0u64;
            for src in 0..l {
                for dst in 0..l {
                    if src == dst {
                        continue;
                    }
                    for k in 0..c {
                        let g = switch.channel_grant_count(
                            hirise_core::LayerId::new(src),
                            hirise_core::LayerId::new(dst),
                            hirise_core::ChannelId::new(k),
                        );
                        min = min.min(g);
                        max = max.max(g);
                    }
                }
            }
            println!("channels  : grants per L2LC min {min}, max {max}");
            report
        }
    };

    println!();
    println!(
        "accepted  : {:.4} packets/cycle = {:.2} packets/ns",
        report.accepted_rate(),
        packets_per_ns(report.accepted_rate(), freq)
    );
    println!(
        "latency   : mean {:.1} cycles = {:.2} ns | p50 {:.0} | p99 {:.0} | max {} cycles",
        report.avg_latency_cycles(),
        ns_from_cycles(report.avg_latency_cycles(), freq),
        report.latency_percentile_cycles(50.0).unwrap_or(0.0),
        report.latency_percentile_cycles(99.0).unwrap_or(0.0),
        report.max_latency_cycles()
    );
    println!(
        "stability : {} ({} of {} measured packets completed)",
        if report.is_stable() {
            "stable"
        } else {
            "SATURATED"
        },
        report.completed_measured(),
        report.injected_measured()
    );
}
