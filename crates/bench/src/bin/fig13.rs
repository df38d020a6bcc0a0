//! Fig. 13 / §VI-E: a 2D mesh NoC composed of Hi-Rise switches for
//! kilo-core systems. The paper sketches the topology; this experiment
//! simulates it flit-by-flit — XY dimension-ordered routing in the
//! plane, the 3D switch providing the Z dimension inside each hop —
//! and reports latency/throughput at increasing load.
//!
//! The load sweep runs as one parallel `hirise_lab` campaign over a
//! `Topology::Mesh`; the port-mapping comparison needs a closure-based
//! traffic pattern and drives `sharded_mesh` directly at one shard.

use hirise_bench::{RunScale, Table};
use hirise_core::{HiRiseConfig, HiRiseSwitch, InputId, OutputId};
use hirise_lab::{default_threads, CampaignSpec, FabricSpec, PatternSpec, Topology};
use hirise_phys::SwitchDesign;
use hirise_sim::mesh_sim::{MeshPortMap, MeshSimConfig};
use hirise_sim::shard::sharded_mesh;
use hirise_sim::traffic::{Custom, TrafficPattern};

fn main() {
    let scale = RunScale::from_args();
    let switch_cfg = HiRiseConfig::paper_optimal();
    let design = SwitchDesign::hirise(&switch_cfg);
    let freq = design.frequency_ghz();

    // 5x5 mesh of 64-radix switches, 6 ports per direction -> 40 cores
    // per node, 1000 cores total (the kilo-core design point of
    // `HiRiseMesh::kilocore`).
    let (cols, rows, ports_per_dir) = (5, 5, 6);
    let cores = (64 - 4 * ports_per_dir) * cols * rows;
    println!(
        "Fig. 13: {cols}x{rows} mesh of Hi-Rise CLRG switches, {cores} cores, \
         {freq:.2} GHz\n"
    );

    let loads_per_ns: Vec<f64> = (1..=6).map(|step| 0.002 * step as f64).collect();
    let spec = CampaignSpec::new("fig13-mesh")
        .topology(Topology::Mesh {
            cols,
            rows,
            ports_per_direction: ports_per_dir,
            layer_aware: None,
        })
        .fabric(FabricSpec::hirise(switch_cfg.clone()))
        .pattern(PatternSpec::Uniform)
        .loads(loads_per_ns.iter().map(|&l| l / freq))
        .sim(
            scale
                .sim_params()
                .cycles(scale.warmup / 2, scale.measure / 2, scale.drain),
        );
    let results = spec.run(default_threads());

    let mut table = Table::new([
        "load(p/core/ns)",
        "accepted(p/ns)",
        "latency(ns)",
        "avg hops",
        "stable",
    ]);
    for (result, &load_per_ns) in results.iter().zip(&loads_per_ns) {
        table.add_row([
            format!("{load_per_ns:.3}"),
            format!("{:.2}", result.metrics.accepted_rate * freq),
            format!("{:.2}", result.metrics.avg_latency_cycles / freq),
            format!("{:.2}", result.metrics.avg_hops.unwrap_or(f64::NAN)),
            format!("{}", result.metrics.stable),
        ]);
    }
    table.print();
    println!(
        "\nuniform random over {cores} cores; mean XY route ~4.2 switches \
         (graph analysis in `hirise_sim::mesh`). The paper presents this\n\
         topology qualitatively; these are this reproduction's numbers."
    );

    // §VI-E's closing point: layer-aware port assignment keeps
    // straight-through traffic on one switch layer, easing the L2LC
    // bottleneck. Compare the two mappings under horizontal-dominated
    // traffic (west-edge cores to east-edge cores, same row).
    println!("\nlayer-aware port mapping (horizontal cross traffic):\n");
    let cores_per_node = 64 - 4 * ports_per_dir;
    let mut map_table = Table::new(["mapping", "accepted(p/ns)", "latency(ns)"]);
    for (name, map) in [
        ("contiguous", MeshPortMap::Contiguous),
        ("layer-aware", MeshPortMap::LayerAware { layers: 4 }),
    ] {
        let rate = 0.05 / freq;
        let cfg = MeshSimConfig::new(cols, rows, ports_per_dir)
            .port_map(map)
            .injection_rate(rate)
            .warmup(scale.warmup / 2)
            .measure(scale.measure / 2)
            .drain(scale.drain);
        let pattern = move || {
            Box::new(Custom::new("horizontal", move |input: InputId, r, rng| {
                use hirise_core::rng::Rng;
                let node = input.index() / cores_per_node;
                if !node.is_multiple_of(cols) {
                    return None; // only the west-edge column injects
                }
                if !rng.gen_bool(f64::clamp(r, 0.0, 1.0)) {
                    return None;
                }
                let dst_node = node + (cols - 1); // same row, east edge
                Some(OutputId::new(
                    dst_node * cores_per_node + rng.gen_range(0..cores_per_node),
                ))
            })) as Box<dyn TrafficPattern>
        };
        let report =
            sharded_mesh(&cfg, 64, 1, |_node| HiRiseSwitch::new(&switch_cfg), pattern).run();
        map_table.add_row([
            name.to_string(),
            format!("{:.2}", report.accepted_rate() * freq),
            format!("{:.2}", report.avg_latency_cycles() / freq),
        ]);
    }
    map_table.print();
    println!("\nlayer-aware placement keeps a straight-through packet on one");
    println!("switch layer per hop (no L2LC crossing), as §VI-E anticipates.");
}
