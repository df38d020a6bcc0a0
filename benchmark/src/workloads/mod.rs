//! The four workloads and what they share: the timed-round loop, the
//! repeated set-up, seeds, failure accounting and the traced run's
//! per-layer totals.

use crate::check::{Digests, Projection};
use crate::stats::fnv1a64;
use crate::trace::{hot_call_attrs, Attr, Counter, Counts, TracedFabric, TracedPattern, Tracer};
use hirise_core::Fabric;
use hirise_lab::{derive_seed, CampaignSpec, Job, JobResult, Progress};
use hirise_sim::traffic::TrafficPattern;
use hirise_sim::{NetworkSim, SimConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

pub mod cmp_mixes;
pub mod serve_mix;
pub mod switch_sweep;
pub mod wafer_dragonfly;

/// Set-up repetitions timed before each round.
const SETUP_REPS_PER_ROUND: usize = 3;

/// What one workload run was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Where the traced run writes its spans; `None` runs untraced.
    pub trace: Option<PathBuf>,
}

/// Everything one workload run measured.
pub struct Run {
    pub opts: Opts,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Jobs per second of each timed round (or window).
    pub jobs_per_s: Vec<f64>,
    /// How long each timed job or request waited for its result, in ms,
    /// one group per timed round (a batch workload) or a single group
    /// (serve-mix's open loop).
    pub waits_ms: Vec<Vec<f64>>,
    /// The process's peak resident set when timing ended, in MB: the
    /// checks that follow (solo re-runs, the overload jobs, direct runs
    /// of served jobs) are not the workload, and the overload jobs alone
    /// would take switch-sweep's peak from about 30 MB to 118 MB.
    pub peak_rss_mb: f64,
    /// Operations (jobs, CMP runs, requests) whose output was checked.
    pub attempted: u64,
    /// Descriptions of the operations that failed.
    pub failures: Vec<String>,
    /// Extra `name value unit` lines for the report.
    pub info: Vec<(&'static str, f64, &'static str)>,
    pub digests: Digests,
    /// Per-layer metrics, filled by the traced run only.
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

impl Run {
    pub fn new(opts: Opts) -> Self {
        Self {
            opts,
            setup_s: Vec::new(),
            jobs_per_s: Vec::new(),
            waits_ms: Vec::new(),
            peak_rss_mb: 0.0,
            attempted: 0,
            failures: Vec::new(),
            info: Vec::new(),
            digests: Digests::default(),
            layers: BTreeMap::new(),
            tracer: Tracer::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.opts.trace.is_some()
    }

    /// Whether this run uses the seed the pins were taken at.
    pub fn pinned_seed(&self) -> bool {
        self.opts.seed == crate::DEFAULT_SEED
    }

    /// A seed for input `index` of the named `stream`, a pure function
    /// of the run's `--seed`.
    pub fn seed(&self, stream: &str, index: u64) -> u64 {
        derive_seed(
            derive_seed(self.opts.seed, fnv1a64(stream.as_bytes())),
            index,
        )
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Runs `build` `reps` times, recording each duration, and returns
    /// the last product (earlier ones are dropped untimed).
    pub fn setup<T>(&mut self, reps: usize, mut build: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let start = Instant::now();
            let product = build();
            self.setup_s.push(start.elapsed().as_secs_f64());
            last = Some(product);
        }
        last.expect("at least one repetition ran")
    }

    /// Runs round 0, then rounds 1, 2, ... until they have taken
    /// `--seconds`; each round is a campaign a user submits and waits
    /// for. `round(self, r)` returns the instant each of its jobs'
    /// results arrived. Round 0 warms the allocator and caches: its
    /// outputs are checked like any round's, but it is not timed. Each
    /// timed round adds its rate to `jobs_per_s` and, as one group of
    /// `waits_ms`, each job's wait from the round's start to its result.
    ///
    /// Before every round, `setup` runs [`SETUP_REPS_PER_ROUND`] times.
    /// Spreading the repetitions over the run makes their median see the
    /// host's slow and fast spells alike, as the rounds do: a burst of
    /// repetitions caught one spell and read up to twice another run's.
    ///
    /// Returns the timed rounds' wall times in seconds.
    pub fn rounds<T>(
        &mut self,
        mut setup: impl FnMut() -> T,
        mut round: impl FnMut(&mut Self, u64) -> Vec<Instant>,
    ) -> Vec<f64> {
        let mut walls = Vec::new();
        for r in 0.. {
            drop(self.setup(SETUP_REPS_PER_ROUND, &mut setup));
            let start = Instant::now();
            let finished = round(self, r);
            let wall = start.elapsed().as_secs_f64();
            if r == 0 {
                continue;
            }
            self.jobs_per_s.push(finished.len() as f64 / wall);
            self.waits_ms.push(
                finished
                    .iter()
                    .map(|t| (*t - start).as_secs_f64() * 1e3)
                    .collect(),
            );
            walls.push(wall);
            if walls.iter().sum::<f64>() >= self.opts.seconds {
                break;
            }
        }
        self.peak_rss_mb = crate::machine::peak_rss_mb();
        walls
    }

    /// Sets the per-layer metrics derived from the hot-call totals of
    /// the traced run: `arb` and `traffic` over simulator time `sim_s`.
    pub fn hot_call_layers(&mut self, arb: Counts, traffic: Counts, sim_s: f64) {
        let sim_ns = (sim_s * 1e9).max(1.0);
        self.layer("core.arb_calls", arb.calls as f64);
        self.layer(
            "core.arb_ns_per_call",
            arb.ns as f64 / arb.calls.max(1) as f64,
        );
        self.layer("core.arb_share", arb.ns as f64 / sim_ns);
        self.layer(
            "core.grant_ratio",
            arb.grants as f64 / arb.requests.max(1) as f64,
        );
        self.layer("traffic.next_calls", traffic.calls as f64);
        self.layer(
            "traffic.mcalls_per_s",
            traffic.calls as f64 * 1e3 / traffic.ns.max(1) as f64,
        );
        self.layer("traffic.share", traffic.ns as f64 / sim_ns);
    }
}

/// A campaign's progress observer that notes when, and on which worker
/// thread, each job's result arrived, so a round run through the lab's
/// own runner (`CampaignSpec::run_with_progress`) can be timed per job.
pub struct Finishes {
    start: Instant,
    log: Mutex<Vec<(ThreadId, Instant)>>,
}

impl Finishes {
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The instants the results arrived, in arrival order.
    pub fn instants(&self) -> Vec<Instant> {
        self.log().iter().map(|&(_, t)| t).collect()
    }

    /// Worker seconds from the start to each worker's last result: the
    /// round's wall time per worker, less the idle tail.
    pub fn busy_s(&self) -> f64 {
        let last: HashMap<ThreadId, Instant> = self.log().iter().copied().collect();
        last.values().map(|t| (*t - self.start).as_secs_f64()).sum()
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<(ThreadId, Instant)>> {
        self.log.lock().expect("finish log poisoned")
    }
}

impl Progress for Finishes {
    fn job_done(&self, _finished: usize, _total: usize, _job: &Job, _result: &JobResult) {
        let arrived = Instant::now();
        self.log().push((std::thread::current().id(), arrived));
    }
}

/// Maps `f` over `items` on `threads` scoped workers pulling from a
/// shared cursor, for the traced runs that rebuild jobs one by one.
/// Returns each result with the seconds `f` took, in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<(R, f64)> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, f64)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let start = Instant::now();
                let out = f(item);
                let secs = start.elapsed().as_secs_f64();
                *slots[i].lock().expect("result slot poisoned") = Some((out, secs));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item was mapped")
        })
        .collect()
}

/// A single-switch job's simulator inputs, rebuilt from the campaign's
/// public pieces exactly as the lab builds them.
pub fn single_switch_pieces(
    spec: &CampaignSpec,
    job: &Job,
) -> (Box<dyn Fabric>, Box<dyn TrafficPattern>, SimConfig) {
    let radix = job.fabric.radix();
    let mut fabric = job.fabric.build();
    job.fault.apply(&mut fabric, job.seed);
    let cfg = spec.sim.to_sim_config(radix, job.load, job.seed);
    (fabric, job.pattern.build(radix), cfg)
}

/// What the traced rebuild of one job measured.
pub struct TracedJob {
    pub digest: u64,
    pub arb: Counts,
    pub traffic: Counts,
    /// Seconds inside the simulator's run.
    pub sim_s: f64,
    /// Cycles simulated.
    pub cycles: u64,
}

/// Rebuilds a single-switch job with the hot-call wrappers, runs it,
/// and records its spans under `trace`: `job`, with children `build`
/// and `run`.
pub fn traced_single_switch(
    tracer: &Tracer,
    trace: &str,
    parent: Option<u64>,
    spec: &CampaignSpec,
    job: &Job,
) -> TracedJob {
    let root = tracer.open();
    let build = tracer.open();
    let (fabric, pattern, cfg) = single_switch_pieces(spec, job);
    let (arb, traffic) = (Counter::new(), Counter::new());
    let mut sim = NetworkSim::new(
        TracedFabric::new(fabric, Arc::clone(&arb)),
        TracedPattern::new(pattern, Arc::clone(&traffic)),
        cfg,
    );
    tracer.close(build, trace, Some(root.id), "build", Vec::new());
    let running = tracer.open();
    let report = sim.run();
    let cycles = sim.now();
    let violations = sim.checker().map_or(0, |c| c.violation_count());
    drop(sim);
    let (arb, traffic) = (arb.counts(), traffic.counts());
    let mut attrs = hot_call_attrs(arb, traffic);
    attrs.push(("cycles", Attr::U(cycles)));
    let sim_s = tracer.close(running, trace, Some(root.id), "run", attrs);
    let digest = Projection::from_sim(&report, violations).digest();
    tracer.close(root, trace, parent, "job", job_attrs(job, digest));
    TracedJob {
        digest,
        arb,
        traffic,
        sim_s,
        cycles,
    }
}

/// The identifying attributes of a campaign job's root span.
pub fn job_attrs(job: &Job, digest: u64) -> Vec<(&'static str, Attr)> {
    vec![
        ("fabric", Attr::S(job.fabric.label())),
        ("pattern", Attr::S(job.pattern.label())),
        ("load", Attr::F(job.load)),
        ("replicate", Attr::U(job.replicate as u64)),
        ("digest", Attr::S(format!("{digest:016x}"))),
    ]
}

/// Runs one workload by name.
pub fn run(name: &str, opts: Opts) -> Option<Run> {
    let mut run = Run::new(opts);
    match name {
        "switch-sweep" => switch_sweep::run(&mut run),
        "wafer-dragonfly" => wafer_dragonfly::run(&mut run),
        "cmp-mixes" => cmp_mixes::run(&mut run),
        "serve-mix" => serve_mix::run(&mut run),
        _ => return None,
    }
    Some(run)
}
