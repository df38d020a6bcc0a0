//! The traced run: spans kept in memory and written as JSONL at exit,
//! and forwarding wrappers that count and time the two hot calls —
//! arbitration and traffic generation — from outside the crates.
//!
//! Hot calls get no span each. A wrapper accumulates a count and a total
//! into plain fields, adds them to its shared [`Counter`] when dropped,
//! and the caller attaches the totals to the span that owned the
//! simulator.

use hirise_core::rng::StdRng;
use hirise_core::{ConfigError, Fabric, Fault, FaultLog, Grant, InputId, OutputId, Request};
use hirise_lab::json;
use hirise_sim::traffic::TrafficPattern;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Totals of one hot call site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls made.
    pub calls: u64,
    /// Estimated nanoseconds inside the calls (timer cost removed).
    pub ns: u64,
    /// Requests presented (arbitration only).
    pub requests: u64,
    /// Grants returned (arbitration only).
    pub grants: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Self) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.requests += o.requests;
        self.grants += o.grants;
    }
}

/// A shared total that wrappers add to when they are dropped. Relaxed
/// atomics suffice: the totals publish no other data and are read after
/// the simulator that owned the wrappers is gone.
#[derive(Debug, Default)]
pub struct Counter {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
    requests: AtomicU64,
    grants: AtomicU64,
}

impl Counter {
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// The totals so far. Time is measured on a sample of the calls and
    /// scaled to all of them.
    pub fn counts(&self) -> Counts {
        let calls = self.calls.load(Ordering::Relaxed);
        let timed = self.timed.load(Ordering::Relaxed);
        let timed_ns = self.timed_ns.load(Ordering::Relaxed);
        Counts {
            calls,
            ns: if timed == 0 {
                0
            } else {
                (timed_ns as u128 * calls as u128 / timed as u128) as u64
            },
            requests: self.requests.load(Ordering::Relaxed),
            grants: self.grants.load(Ordering::Relaxed),
        }
    }
}

/// The cost of reading the clock twice, subtracted from every timed
/// call so that cheap calls are not dominated by the timer.
fn timer_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut samples: Vec<u64> = (0..2_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Per-wrapper accumulator, flushed into its [`Counter`] on drop.
#[derive(Debug)]
struct Local {
    sink: Arc<Counter>,
    /// Time one call in `every`.
    every: u64,
    calls: u64,
    timed: u64,
    timed_ns: u64,
    requests: u64,
    grants: u64,
}

impl Local {
    fn new(sink: Arc<Counter>, every: u64) -> Self {
        Self {
            sink,
            every,
            calls: 0,
            timed: 0,
            timed_ns: 0,
            requests: 0,
            grants: 0,
        }
    }

    /// Runs `f`, timing it when this call is in the sample.
    #[inline]
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(self.every) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.timed += 1;
        self.timed_ns += ns.saturating_sub(timer_cost_ns());
        out
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let s = &self.sink;
        s.calls.fetch_add(self.calls, Ordering::Relaxed);
        s.timed.fetch_add(self.timed, Ordering::Relaxed);
        s.timed_ns.fetch_add(self.timed_ns, Ordering::Relaxed);
        s.requests.fetch_add(self.requests, Ordering::Relaxed);
        s.grants.fetch_add(self.grants, Ordering::Relaxed);
    }
}

/// A [`Fabric`] that forwards every method to `inner` and times each
/// arbitration. It must forward the defaulted methods too: the default
/// `ticks_when_idle` is `true`, which would pin every wrapped router in
/// the engine's active set and change what is being measured.
#[derive(Debug)]
pub struct TracedFabric<F> {
    inner: F,
    local: Local,
}

impl<F: Fabric> TracedFabric<F> {
    pub fn new(inner: F, sink: Arc<Counter>) -> Self {
        Self {
            inner,
            local: Local::new(sink, 1),
        }
    }
}

impl<F: Fabric> Fabric for TracedFabric<F> {
    fn radix(&self) -> usize {
        self.inner.radix()
    }

    fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        let inner = &mut self.inner;
        let grants = self.local.call(|| inner.arbitrate(requests));
        self.local.requests += requests.len() as u64;
        self.local.grants += grants.len() as u64;
        grants
    }

    fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        let inner = &mut self.inner;
        self.local.call(|| inner.arbitrate_into(requests, grants));
        self.local.requests += requests.len() as u64;
        self.local.grants += grants.len() as u64;
    }

    fn release(&mut self, input: InputId) {
        self.inner.release(input)
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        self.inner.connection(input)
    }

    fn output_busy(&self, output: OutputId) -> bool {
        self.inner.output_busy(output)
    }

    fn input_busy(&self, input: InputId) -> bool {
        self.inner.input_busy(input)
    }

    fn active_connections(&self) -> usize {
        self.inner.active_connections()
    }

    fn tsv_bundle_count(&self) -> usize {
        self.inner.tsv_bundle_count()
    }

    fn enable_faults(&mut self, seed: u64) -> Result<(), ConfigError> {
        self.inner.enable_faults(seed)
    }

    fn inject_fault(&mut self, fault: Fault) -> Result<(), ConfigError> {
        self.inner.inject_fault(fault)
    }

    fn fault_log(&self) -> Option<&FaultLog> {
        self.inner.fault_log()
    }

    fn ticks_when_idle(&self) -> bool {
        self.inner.ticks_when_idle()
    }
}

/// One traffic poll in this many is timed: a poll costs about as much
/// as two clock reads, so timing each would mostly measure the clock.
const TRAFFIC_SAMPLE: u64 = 16;

/// A [`TrafficPattern`] that forwards to `inner`, counting every poll
/// and timing a sample of them.
#[derive(Debug)]
pub struct TracedPattern<T> {
    inner: T,
    local: Local,
}

impl<T: TrafficPattern> TracedPattern<T> {
    pub fn new(inner: T, sink: Arc<Counter>) -> Self {
        Self {
            inner,
            local: Local::new(sink, TRAFFIC_SAMPLE),
        }
    }
}

impl<T: TrafficPattern> TrafficPattern for TracedPattern<T> {
    fn next(&mut self, input: InputId, base_rate: f64, rng: &mut StdRng) -> Option<OutputId> {
        let inner = &mut self.inner;
        self.local.call(|| inner.next(input, base_rate, rng))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A span attribute value.
#[derive(Clone, Debug)]
pub enum Attr {
    U(u64),
    F(f64),
    S(String),
}

/// The attributes a simulator span carries for its hot calls.
pub fn hot_call_attrs(arb: Counts, traffic: Counts) -> Vec<(&'static str, Attr)> {
    vec![
        ("arb_calls", Attr::U(arb.calls)),
        ("arb_ns", Attr::U(arb.ns)),
        ("arb_requests", Attr::U(arb.requests)),
        ("arb_grants", Attr::U(arb.grants)),
        ("traffic_calls", Attr::U(traffic.calls)),
        ("traffic_ns", Attr::U(traffic.ns)),
    ]
}

#[derive(Debug)]
struct Span {
    trace: String,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, Attr)>,
}

/// A span whose id is allocated but which has not ended yet, so its
/// children can name it as their parent.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    start: Instant,
}

/// In-memory span store shared by the traced run's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span now.
    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Ends `open` now and stores it. Returns its duration in seconds.
    pub fn close(
        &self,
        open: Open,
        trace: &str,
        parent: Option<u64>,
        name: &'static str,
        attrs: Vec<(&'static str, Attr)>,
    ) -> f64 {
        let end = Instant::now();
        self.store(open, end, trace, parent, name, attrs);
        (end - open.start).as_secs_f64()
    }

    /// Stores a span whose ends were observed elsewhere (e.g. client
    /// timestamps of a served request). Returns its id.
    pub fn record(
        &self,
        trace: &str,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, Attr)>,
    ) -> u64 {
        let open = Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start,
        };
        self.store(open, end, trace, parent, name, attrs);
        open.id
    }

    fn store(
        &self,
        open: Open,
        end: Instant,
        trace: &str,
        parent: Option<u64>,
        name: &'static str,
        attrs: Vec<(&'static str, Attr)>,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            trace: trace.to_string(),
            id: open.id,
            parent,
            name,
            start_ns: ns(open.start),
            end_ns: ns(end),
            attrs,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Writes `header` then one JSON line per span, in start order.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::with_capacity(spans.len() * 160 + header.len());
        out.push_str(header);
        out.push('\n');
        for s in spans.iter() {
            out.push_str("{\"trace\":");
            json::write_escaped(&mut out, &s.trace);
            let _ = write!(out, ",\"span\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            json::write_escaped(&mut out, s.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.start_ns, s.end_ns
            );
            for (i, (key, value)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(&mut out, key);
                out.push(':');
                match value {
                    Attr::U(v) => {
                        let _ = write!(out, "{v}");
                    }
                    Attr::F(v) => json::write_f64(&mut out, *v),
                    Attr::S(v) => json::write_escaped(&mut out, v),
                }
            }
            out.push_str("}}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_core::{HiRiseConfig, HiRiseSwitch};
    use hirise_lab::{FabricSpec, PatternSpec};
    use hirise_sim::dragonfly::{DragonflyConfig, DragonflyGeometry, GlobalLinkMap};
    use hirise_sim::shard::{ShardedConfig, ShardedSim};
    use hirise_sim::{NetworkSim, SimConfig};

    #[test]
    fn fabric_wrapper_forwards_every_method() {
        let sink = Counter::new();
        let mut plain = HiRiseSwitch::new(&HiRiseConfig::builder(16, 4).build().unwrap());
        let mut wrapped = TracedFabric::new(plain.clone(), Arc::clone(&sink));
        let requests = [
            Request::new(InputId::new(0), OutputId::new(5)),
            Request::new(InputId::new(1), OutputId::new(5)),
            Request::new(InputId::new(2), OutputId::new(9)),
        ];
        assert_eq!(wrapped.radix(), plain.radix());
        assert_eq!(wrapped.tsv_bundle_count(), plain.tsv_bundle_count());
        assert_eq!(wrapped.ticks_when_idle(), plain.ticks_when_idle());
        assert!(
            !wrapped.ticks_when_idle(),
            "fault-free Hi-Rise skips idle cycles"
        );
        assert_eq!(wrapped.arbitrate(&requests), plain.arbitrate(&requests));
        for i in 0..16 {
            let input = InputId::new(i);
            assert_eq!(wrapped.connection(input), plain.connection(input));
            assert_eq!(wrapped.input_busy(input), plain.input_busy(input));
            assert_eq!(
                wrapped.output_busy(OutputId::new(i)),
                plain.output_busy(OutputId::new(i))
            );
        }
        assert_eq!(wrapped.active_connections(), plain.active_connections());
        wrapped.release(InputId::new(2));
        plain.release(InputId::new(2));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        wrapped.arbitrate_into(&requests, &mut a);
        plain.arbitrate_into(&requests, &mut b);
        assert_eq!(a, b);

        // Faults reach the inner fabric, and flaky ones pin it active.
        assert_eq!(wrapped.enable_faults(7), plain.enable_faults(7));
        let flaky = Fault::flaky(hirise_core::FaultSite::TsvBundle { index: 0 }, 0.5);
        assert_eq!(wrapped.inject_fault(flaky), plain.inject_fault(flaky));
        assert!(wrapped.ticks_when_idle());
        assert_eq!(
            wrapped.fault_log().map(|l| l.total()),
            plain.fault_log().map(|l| l.total())
        );

        drop(wrapped);
        let counts = sink.counts();
        assert_eq!(counts.calls, 2);
        assert_eq!(counts.requests, 6);
        assert_eq!(counts.grants, 2 + a.len() as u64);
    }

    #[test]
    fn wrapped_sims_match_unwrapped_and_count_every_call() {
        let cfg = SimConfig::new(16)
            .injection_rate(0.2)
            .warmup(50)
            .measure(300)
            .drain(300);
        let fabric = || FabricSpec::Flat2d { radix: 16 }.build();
        let pattern = || PatternSpec::Uniform.build(16);
        let plain = NetworkSim::new(fabric(), pattern(), cfg.clone()).run();
        let (arb, traffic) = (Counter::new(), Counter::new());
        let mut sim = NetworkSim::new(
            TracedFabric::new(fabric(), Arc::clone(&arb)),
            TracedPattern::new(pattern(), Arc::clone(&traffic)),
            cfg,
        );
        let wrapped = sim.run();
        let cycles = sim.now();
        drop(sim);
        assert_eq!(plain, wrapped);
        assert_eq!(arb.counts().calls, cycles);
        assert_eq!(traffic.counts().calls, cycles * 16);
        assert!(arb.counts().grants <= arb.counts().requests);
    }

    /// The engine skips idle routers only if the fabric says it may: a
    /// wrapper that fell back to the default `ticks_when_idle` would
    /// keep every router active and inflate this count.
    #[test]
    fn wrapped_wafer_keeps_the_active_set() {
        let run = |wrap: bool| {
            let dcfg = DragonflyConfig::new(4, 4, 2, 9).map(GlobalLinkMap::Palmtree);
            let geo = DragonflyGeometry::new(dcfg, 16, &[]).unwrap();
            let cfg = ShardedConfig::new()
                .injection_rate(0.01)
                .warmup(20)
                .measure(100)
                .drain(100);
            let hirise = HiRiseConfig::builder(16, 4)
                .channel_multiplicity(2)
                .build()
                .unwrap();
            let mut sim = ShardedSim::new(
                geo,
                cfg,
                2,
                |_| -> Box<dyn Fabric> {
                    let sw = HiRiseSwitch::new(&hirise);
                    if wrap {
                        Box::new(TracedFabric::new(sw, Counter::new()))
                    } else {
                        Box::new(sw)
                    }
                },
                || PatternSpec::Uniform.build(144),
            );
            let report = sim.run();
            (report, sim.active_node_cycles(), sim.now() * 36)
        };
        let (plain, plain_active, router_cycles) = run(false);
        let (wrapped, wrapped_active, _) = run(true);
        assert_eq!(plain, wrapped);
        assert_eq!(plain_active, wrapped_active);
        assert!(
            wrapped_active < router_cycles / 2,
            "sparse load leaves routers idle"
        );
    }

    #[test]
    fn spans_are_written_as_jsonl() {
        let tracer = Tracer::new();
        let root = tracer.open();
        let child = tracer.open();
        tracer.close(child, "t1", Some(root.id), "child", vec![("n", Attr::U(3))]);
        tracer.close(
            root,
            "t1",
            None,
            "root",
            vec![("s", Attr::S("a\"b".into()))],
        );
        let path =
            std::env::temp_dir().join(format!("hirise-bench-spans-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path, "{\"machine\":{}}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines[1..] {
            let v = json::parse(line).unwrap();
            for key in [
                "trace", "span", "parent", "name", "start_ns", "end_ns", "attrs",
            ] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
        let root_line = json::parse(lines[1]).unwrap();
        assert_eq!(root_line.get("name").and_then(|v| v.as_str()), Some("root"));
    }
}
