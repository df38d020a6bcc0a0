//! `cmp-mixes`: Table VI — all eight multi-programmed mixes on the
//! 64-core CMP, each on the flat 2D switch and on Hi-Rise CLRG, run one
//! after another through `CmpSystem::run`.
//!
//! This is the third cycle driver (`SwitchNet`, which keeps messages in
//! a `HashMap`); without it, moving that driver onto the shared engine
//! would go unmeasured.

use super::Run;
use crate::check::Projection;
use crate::stats::median;
use crate::trace::{hot_call_attrs, Attr, Counter, Counts, TracedFabric, Tracer};
use hirise_core::{Fabric, HiRiseConfig, HiRiseSwitch, Switch2d};
use hirise_manycore::{table_vi_mixes, CmpSystem, SystemConfig, SystemReport, WorkloadMix};
use hirise_phys::SwitchDesign;
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "cmp-mixes";
const INSTRUCTIONS_PER_CORE: u64 = 50_000;
const CORES: u64 = 64;

/// The two interconnects of Table VI, each at its design's clock.
#[derive(Clone, Copy, Debug)]
enum Net {
    Flat2d,
    HiRise,
}

impl Net {
    const BOTH: [Net; 2] = [Net::Flat2d, Net::HiRise];

    fn label(self) -> &'static str {
        match self {
            Net::Flat2d => "2d",
            Net::HiRise => "hirise",
        }
    }

    fn fabric(self) -> Box<dyn Fabric> {
        match self {
            Net::Flat2d => Box::new(Switch2d::new(64)),
            Net::HiRise => Box::new(HiRiseSwitch::new(&HiRiseConfig::paper_optimal())),
        }
    }

    fn freq_ghz(self) -> f64 {
        match self {
            Net::Flat2d => SwitchDesign::flat_2d(64),
            Net::HiRise => SwitchDesign::hirise(&HiRiseConfig::paper_optimal()),
        }
        .frequency_ghz()
    }
}

/// One CMP run of a round: a mix on one interconnect, with the trace
/// seed shared by both interconnects of that mix.
struct System {
    mix: WorkloadMix,
    net: Net,
    cfg: SystemConfig,
}

impl System {
    fn key(&self, round: u64) -> String {
        format!("r{round}/{}/{}", self.mix.name, self.net.label())
    }

    fn build<F: Fabric>(&self, fabric: F) -> CmpSystem<F> {
        CmpSystem::new(fabric, self.net.freq_ghz(), &self.mix, self.cfg.clone())
    }
}

fn systems(run: &Run, round: u64) -> Vec<System> {
    table_vi_mixes()
        .into_iter()
        .enumerate()
        .flat_map(|(i, mix)| {
            let cfg = SystemConfig::new()
                .instructions_per_core(INSTRUCTIONS_PER_CORE)
                .seed(run.seed(&format!("cmp-mixes/round{round}"), i as u64));
            Net::BOTH.map(|net| System {
                mix: mix.clone(),
                net,
                cfg: cfg.clone(),
            })
        })
        .collect()
}

pub fn run(run: &mut Run) {
    let first = systems(run, 0);
    // Set-up: build a round's sixteen systems in turn.
    let setup = || {
        for s in &first {
            std::hint::black_box(s.build(s.net.fabric()));
        }
    };

    let mut round0: Vec<SystemReport> = Vec::new();
    let walls = run.rounds(setup, |run, r| {
        let systems = systems(run, r);
        let mut reports = Vec::new();
        let mut finished = Vec::new();
        for system in &systems {
            let report = system.build(system.net.fabric()).run();
            finished.push(Instant::now());
            run.attempted += 1;
            if !report.finished() {
                run.fail(format!("{}: did not finish", system.key(r)));
            }
            reports.push(report);
        }
        if r == 0 {
            round0 = reports;
        }
        finished
    });
    // Every run simulates the same instruction count, so the simulated
    // instruction rate is the run rate scaled.
    let minstr_per_s = median(&run.jobs_per_s) * (CORES * INSTRUCTIONS_PER_CORE) as f64 / 1e6;
    run.info("minstr_per_s", minstr_per_s, "Minstr/s");

    for (system, report) in first.iter().zip(&round0) {
        run.digests
            .push(system.key(0), Projection::from_system(report).digest());
    }
    // There is one CMP path, so the check at other seeds is that a
    // sampled run repeats exactly.
    let k = (run.seed("cmp-mixes/rerun", 0) % first.len() as u64) as usize;
    if Projection::from_system(&first[k].build(first[k].net.fabric()).run())
        != Projection::from_system(&round0[k])
    {
        run.fail(format!("{}: rerun differs", first[k].key(0)));
    }
    if run.pinned_seed() {
        for key in run.digests.check_pins(NAME, |_| true) {
            run.fail(format!("pin mismatch: {key}"));
        }
    }

    let gap_pp = 100.0
        * round0
            .chunks(2)
            .zip(table_vi_mixes())
            .map(|(pair, mix)| {
                (pair[1].system_ipc() / pair[0].system_ipc() - mix.paper_speedup).abs()
            })
            .sum::<f64>()
        / (round0.len() / 2) as f64;
    run.info("paper_gap_pp", gap_pp, "pp");

    if run.traced() {
        run.layer("accuracy.paper_gap_pp", gap_pp);
        run.layer("manycore.minstr_per_s", minstr_per_s);
        traced(run, &first, &round0, median(&walls));
    }
}

/// Rebuilds one CMP run with its switch wrapped and records its spans.
/// Returns the report, the arbitration totals and the seconds in `run`.
fn traced_system(tracer: &Tracer, system: &System) -> (SystemReport, Counts, f64) {
    let trace = format!("{NAME}/{}", system.key(0));
    let root = tracer.open();
    let build = tracer.open();
    let arb = Counter::new();
    let mut cmp = system.build(TracedFabric::new(system.net.fabric(), Arc::clone(&arb)));
    tracer.close(build, &trace, Some(root.id), "build", Vec::new());
    let running = tracer.open();
    let report = cmp.run();
    drop(cmp);
    let arb = arb.counts();
    let mut attrs = hot_call_attrs(arb, Counts::default());
    attrs.extend([
        ("net_cycles", Attr::U(arb.calls)),
        ("net_delivered", Attr::U(report.net_delivered())),
    ]);
    let sim_s = tracer.close(running, &trace, Some(root.id), "run", attrs);
    let digest = Projection::from_system(&report).digest();
    tracer.close(
        root,
        &trace,
        None,
        "job",
        vec![
            ("mix", Attr::S(system.mix.name.to_string())),
            ("net", Attr::S(system.net.label().to_string())),
            ("digest", Attr::S(format!("{digest:016x}"))),
        ],
    );
    (report, arb, sim_s)
}

fn traced(run: &mut Run, systems: &[System], round0: &[SystemReport], round_s: f64) {
    let start = Instant::now();
    let mut arb = Counts::default();
    let (mut sim_s, mut msgs, mut latencies) = (0.0, 0, Vec::new());
    for (system, untraced) in systems.iter().zip(round0) {
        let (report, counts, secs) = traced_system(&run.tracer, system);
        if Projection::from_system(&report) != Projection::from_system(untraced) {
            run.fail(format!("{}: traced digest differs", system.key(0)));
        }
        arb += counts;
        sim_s += secs;
        msgs += report.net_delivered();
        latencies.push(report.net_avg_latency_cycles());
    }
    run.layer("trace.overhead", start.elapsed().as_secs_f64() / round_s);
    run.hot_call_layers(arb, Counts::default(), sim_s);
    run.layer("manycore.msgs", msgs as f64);
    run.layer(
        "manycore.net_latency_cycles",
        latencies.iter().sum::<f64>() / latencies.len() as f64,
    );
}
