//! Wall-clock micro-benches of whole simulations: cycles/second of the
//! network simulator and end-to-end CMP runs (small instruction
//! budgets so the bench suite stays fast).

use hirise_bench::quickbench::Criterion;
use hirise_bench::{criterion_group, criterion_main};
use hirise_core::{HiRiseConfig, HiRiseSwitch, Switch2d};
use hirise_manycore::{table_vi_mixes, CmpSystem, SystemConfig};
use hirise_sim::mesh_sim::MeshSimConfig;
use hirise_sim::shard::sharded_mesh;
use hirise_sim::traffic::{TrafficPattern, UniformRandom};
use hirise_sim::{NetworkSim, SimConfig};

fn bench_network_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_sim_2k_cycles");
    group.sample_size(20);
    group.bench_function("switch2d_ur_mid_load", |b| {
        b.iter(|| {
            let cfg = SimConfig::new(64)
                .injection_rate(0.08)
                .warmup(200)
                .measure(2_000)
                .drain(500);
            NetworkSim::new(Switch2d::new(64), UniformRandom::new(64), cfg).run()
        })
    });
    group.bench_function("hirise_clrg_ur_mid_load", |b| {
        let hirise_cfg = HiRiseConfig::paper_optimal();
        b.iter(|| {
            let cfg = SimConfig::new(64)
                .injection_rate(0.08)
                .warmup(200)
                .measure(2_000)
                .drain(500);
            NetworkSim::new(HiRiseSwitch::new(&hirise_cfg), UniformRandom::new(64), cfg).run()
        })
    });
    group.finish();
}

fn bench_cmp_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("cmp_system_mix1");
    group.sample_size(10);
    group.bench_function("switch2d_1k_instructions", |b| {
        let mix = &table_vi_mixes()[0];
        b.iter(|| {
            let cfg = SystemConfig::new().instructions_per_core(1_000);
            CmpSystem::new(Switch2d::new(64), 1.69, mix, cfg).run()
        })
    });
    group.finish();
}

fn bench_mesh_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_sim_3x3");
    group.sample_size(10);
    group.bench_function("hirise_1k_cycles", |b| {
        let switch_cfg = HiRiseConfig::paper_optimal();
        b.iter(|| {
            let cfg = MeshSimConfig::new(3, 3, 6)
                .injection_rate(0.002)
                .warmup(100)
                .measure(1_000)
                .drain(500);
            let cores = 9 * (64 - 4 * 6);
            sharded_mesh(
                &cfg,
                64,
                1,
                |_node| HiRiseSwitch::new(&switch_cfg),
                || Box::new(UniformRandom::new(cores)) as Box<dyn TrafficPattern>,
            )
            .run()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_network_sim, bench_cmp_system, bench_mesh_sim);
criterion_main!(benches);
