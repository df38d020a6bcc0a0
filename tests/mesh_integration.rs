//! Integration tests for the mesh-of-Hi-Rise topology (§VI-E, Fig. 13):
//! flit-level delivery across switches, agreement with the graph-level
//! analysis, and the layer-aware port-mapping benefit.

use hirise::core::{HiRiseConfig, HiRiseSwitch, InputId, OutputId};
use hirise::sim::mesh::{HiRiseMesh, NodeId};
use hirise::sim::mesh_sim::{MeshPortMap, MeshReport, MeshSimConfig};
use hirise::sim::shard::sharded_mesh;
use hirise::sim::traffic::{Custom, TrafficPattern, UniformRandom};

fn paper_switch() -> HiRiseConfig {
    HiRiseConfig::paper_optimal()
}

/// Runs `cfg` on paper-optimal 64-radix switches at one shard, driven
/// by `make_pattern` traffic.
fn run_mesh(
    cfg: &MeshSimConfig,
    make_pattern: impl FnMut() -> Box<dyn TrafficPattern>,
) -> MeshReport {
    let switch_cfg = paper_switch();
    sharded_mesh(
        cfg,
        64,
        1,
        |_node| HiRiseSwitch::new(&switch_cfg),
        make_pattern,
    )
    .run()
}

#[test]
fn flit_level_hops_match_graph_analysis() {
    // 3x3 mesh of 64-radix switches, 6 ports/direction -> 40 cores/node.
    let cfg = MeshSimConfig::new(3, 3, 6)
        .injection_rate(0.002)
        .warmup(500)
        .measure(4_000)
        .drain(8_000);
    let report = run_mesh(&cfg, || Box::new(UniformRandom::new(9 * 40)));
    assert!(report.is_stable());

    let mesh = HiRiseMesh::new(3, 3, paper_switch(), 6);
    let expected = mesh.avg_hops_uniform();
    assert!(
        (report.avg_hops() - expected).abs() < 0.15,
        "simulated {} vs analytic {expected}",
        report.avg_hops()
    );
}

#[test]
fn corner_to_corner_route_length() {
    let cfg = MeshSimConfig::new(4, 4, 6)
        .warmup(0)
        .measure(500)
        .drain(500);
    let cores = 16 * 40;
    let report = run_mesh(&cfg, || {
        let mut fired = false;
        Box::new(Custom::new(
            "corner",
            move |input: InputId, _r, _rng: &mut _| {
                if input.index() == 0 && !fired {
                    fired = true;
                    Some(OutputId::new(cores - 1))
                } else {
                    None
                }
            },
        ))
    });
    assert_eq!(report.completed_measured(), 1);
    // (0,0) to (3,3): 3 east + 3 south + 1 eject = 7 switch traversals,
    // matching the graph route.
    let mesh = HiRiseMesh::new(4, 4, paper_switch(), 6);
    let route = mesh.xy_route(NodeId { x: 0, y: 0 }, NodeId { x: 3, y: 3 });
    assert_eq!(report.avg_hops() as usize, route.len());
}

/// §VI-E's layer-aware mapping must beat (or at worst match) the naive
/// contiguous assignment under straight-through cross traffic.
#[test]
fn layer_aware_mapping_helps_cross_traffic() {
    let run = |map: MeshPortMap| -> MeshReport {
        let cols = 4;
        let cores_per_node = 64 - 24;
        let cfg = MeshSimConfig::new(cols, 2, 6)
            .port_map(map)
            .injection_rate(0.03)
            .warmup(500)
            .measure(4_000)
            .drain(0)
            .seed(3);
        run_mesh(&cfg, || {
            Box::new(Custom::new("horizontal", move |input: InputId, r, rng| {
                use hirise_core::rng::Rng;
                let node = input.index() / cores_per_node;
                if !node.is_multiple_of(cols) {
                    return None;
                }
                if !rng.gen_bool(f64::clamp(r, 0.0, 1.0)) {
                    return None;
                }
                let dst_node = node + (cols - 1);
                Some(OutputId::new(
                    dst_node * cores_per_node + rng.gen_range(0..cores_per_node),
                ))
            }))
        })
    };
    let contiguous = run(MeshPortMap::Contiguous);
    let aware = run(MeshPortMap::LayerAware { layers: 4 });
    assert!(
        aware.accepted_rate() >= contiguous.accepted_rate() * 0.98,
        "layer-aware {} vs contiguous {}",
        aware.accepted_rate(),
        contiguous.accepted_rate()
    );
}
