//! `wafer-dragonfly`: one big topology — the `wafer_scale` example's
//! full shape as a `Topology::Dragonfly` campaign: 1,027 radix-32
//! Hi-Rise c2 routers, 13,351 endpoints, palmtree wiring, at 2 shards.
//!
//! The `NodeEngine` router cycle, active-set skipping (sparse at 0.01,
//! dense past the ~0.042 knee at 0.045) and the shard barrier and
//! exchange do the work; radix-64 arbitration does none.

use super::{job_attrs, Finishes, Run};
use crate::check::Projection;
use crate::stats::median;
use crate::trace::{hot_call_attrs, Attr, Counter, Counts, TracedFabric, TracedPattern};
use hirise_core::{Fabric, HiRiseConfig};
use hirise_lab::{
    derive_seed, CampaignSpec, FabricSpec, Job, JobResult, PatternSpec, SimParams, Topology,
};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry, GlobalLinkMap};
use hirise_sim::shard::{ShardedConfig, ShardedSim};
use hirise_sim::traffic::TrafficPattern;
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "wafer-dragonfly";
const SHARDS: usize = 2;
const ROUTERS_PER_GROUP: usize = 13;
const ENDPOINTS_PER_ROUTER: usize = 13;
const GLOBAL_PER_ROUTER: usize = 6;
const GROUPS: usize = 79;
const ROUTERS: usize = ROUTERS_PER_GROUP * GROUPS;
const ENDPOINTS: usize = ROUTERS * ENDPOINTS_PER_ROUTER;

/// One round's campaign: three loads, one job each.
pub fn campaign(master_seed: u64) -> CampaignSpec {
    let router = HiRiseConfig::builder(32, 4)
        .channel_multiplicity(2)
        .build()
        .expect("32x4 c2 is a valid Hi-Rise configuration");
    CampaignSpec::new(NAME)
        .master_seed(master_seed)
        .topology(Topology::Dragonfly {
            routers_per_group: ROUTERS_PER_GROUP,
            endpoints_per_router: ENDPOINTS_PER_ROUTER,
            global_per_router: GLOBAL_PER_ROUTER,
            groups: GROUPS,
            palmtree: true,
        })
        .fabric(FabricSpec::hirise(router))
        .pattern(PatternSpec::Uniform)
        .loads([0.01, 0.03, 0.045])
        .sim(SimParams::new().cycles(100, 500, 1_000))
        .shards(SHARDS)
}

type HotCounters<'a> = Option<(&'a Arc<Counter>, &'a Arc<Counter>)>;

/// A job's sharded simulator rebuilt from public pieces as the lab
/// builds it, optionally with every router and traffic generator
/// wrapped. The workload is fault-free, so no wafer link is dead.
fn sharded(
    spec: &CampaignSpec,
    job: &Job,
    hot: HotCounters,
) -> ShardedSim<Box<dyn Fabric>, DragonflyGeometry> {
    assert!(job.fault.is_none(), "{NAME} samples no dead wafer links");
    let dcfg = DragonflyConfig::new(
        ROUTERS_PER_GROUP,
        ENDPOINTS_PER_ROUTER,
        GLOBAL_PER_ROUTER,
        GROUPS,
    )
    .map(GlobalLinkMap::Palmtree);
    let geo = DragonflyGeometry::new(dcfg, job.fabric.radix(), &[])
        .expect("the wafer shape is buildable and routable");
    let mut cfg = ShardedConfig::new()
        .injection_rate(job.load)
        .warmup(spec.sim.warmup)
        .measure(spec.sim.measure)
        .drain(spec.sim.drain)
        .seed(job.seed);
    cfg.vcs = spec.sim.vcs;
    cfg.packet_len_flits = spec.sim.packet_len_flits;
    ShardedSim::new(
        geo,
        cfg,
        SHARDS,
        |node| {
            let mut fabric = job.fabric.build();
            job.fault
                .apply(&mut fabric, derive_seed(job.seed, node as u64));
            match hot {
                Some((arb, _)) => Box::new(TracedFabric::new(fabric, Arc::clone(arb))),
                None => fabric,
            }
        },
        || -> Box<dyn TrafficPattern> {
            let pattern = job.pattern.build(ENDPOINTS);
            match hot {
                Some((_, traffic)) => Box::new(TracedPattern::new(pattern, Arc::clone(traffic))),
                None => pattern,
            }
        },
    )
}

pub fn run(run: &mut Run) {
    let first = campaign(run.seed("wafer-dragonfly/round", 0));
    let first_jobs = first.jobs();
    // Set-up: build the wafer's sharded simulator.
    let setup = || sharded(&first, &first_jobs[0], None);

    let mut round0: Vec<JobResult> = Vec::new();
    // Seconds of the sparse (lowest-load) job, the first to run, in
    // timed rounds; and of the whole of round 0.
    let (mut sparse_s, mut round0_s) = (Vec::new(), 0.0);
    let walls = run.rounds(setup, |run, r| {
        let spec = campaign(run.seed("wafer-dragonfly/round", r));
        let start = Instant::now();
        let finishes = Finishes::new();
        let results = spec.run_with_progress(1, &finishes);
        let finished = finishes.instants();
        run.attempted += results.len() as u64;
        if r == 0 {
            round0_s = start.elapsed().as_secs_f64();
            round0 = results;
        } else {
            sparse_s.push((finished[0] - start).as_secs_f64());
        }
        finished
    });

    // The lowest-load job again at 1 shard: telemetry is byte-identical
    // at any shard count.
    let t = Instant::now();
    let one_shard = first.clone().shards(1).run_job(&first_jobs[0]);
    let one_shard_s = t.elapsed().as_secs_f64();
    if one_shard.to_jsonl_line() != round0[0].to_jsonl_line() {
        run.fail("r0/j0: 1-shard record differs from the 2-shard one");
    }

    for record in &round0 {
        run.digests.push(
            format!("r0/j{}", record.index),
            Projection::from_job(record).digest(),
        );
    }
    if run.pinned_seed() {
        for key in run.digests.check_pins(NAME, |_| true) {
            run.fail(format!("pin mismatch: {key}"));
        }
    }

    if run.traced() {
        run.layer("shard.speedup_2v1", one_shard_s / median(&sparse_s));
        traced(run, &first, &first_jobs, &round0, median(&walls), round0_s);
    }
}

/// Re-runs round 0 from public pieces with every router and generator
/// wrapped, checks each digest, and sets the engine's per-layer
/// metrics: counts from the traced run, speeds from the untraced one.
fn traced(
    run: &mut Run,
    spec: &CampaignSpec,
    jobs: &[Job],
    round0: &[JobResult],
    round_s: f64,
    untraced_round0_s: f64,
) {
    let start = Instant::now();
    let (mut arb, mut traffic) = (Counts::default(), Counts::default());
    let (mut thread_s, mut router_cycles, mut active) = (0.0, 0u64, 0u64);
    for (job, record) in jobs.iter().zip(round0) {
        let trace = format!("{NAME}/r0/j{}", job.index);
        let tracer = &run.tracer;
        let root = tracer.open();
        let build = tracer.open();
        let counters = (Counter::new(), Counter::new());
        let mut sim = sharded(spec, job, Some((&counters.0, &counters.1)));
        tracer.close(build, &trace, Some(root.id), "build", Vec::new());
        let running = tracer.open();
        let report = sim.run();
        let (cycles, active_cycles) = (sim.now(), sim.active_node_cycles());
        let violations = sim.invariant_violation_count();
        drop(sim);
        let counts = (counters.0.counts(), counters.1.counts());
        let mut attrs = hot_call_attrs(counts.0, counts.1);
        attrs.extend([
            ("cycles", Attr::U(cycles)),
            ("routers", Attr::U(ROUTERS as u64)),
            ("active_router_cycles", Attr::U(active_cycles)),
            ("shards", Attr::U(SHARDS as u64)),
        ]);
        let sim_s = tracer.close(running, &trace, Some(root.id), "run", attrs);
        let digest = Projection::from_mesh(&report, violations).digest();
        tracer.close(root, &trace, None, "job", job_attrs(job, digest));

        if digest != Projection::from_job(record).digest() {
            run.fail(format!("r0/j{}: traced digest differs", job.index));
        }
        arb += counts.0;
        traffic += counts.1;
        thread_s += sim_s * SHARDS as f64;
        router_cycles += cycles * ROUTERS as u64;
        active += active_cycles;
    }
    run.layer("trace.overhead", start.elapsed().as_secs_f64() / round_s);
    run.hot_call_layers(arb, traffic, thread_s);
    run.layer("engine.router_cycles", router_cycles as f64);
    run.layer(
        "engine.active_frac",
        active as f64 / router_cycles.max(1) as f64,
    );
    run.layer(
        "engine.mactive_per_s",
        active as f64 / untraced_round0_s / 1e6,
    );
}
