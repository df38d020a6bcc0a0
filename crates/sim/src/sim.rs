//! The cycle loop: injection, buffering, arbitration, transfer, and
//! statistics, mirroring §V of the paper. The switch itself steps the
//! shared [`SwitchCycle`]; this loop adds traffic, statistics and the
//! invariant checker around it.

use crate::invariant::InvariantChecker;
use crate::packet::Packet;
use crate::stats::SimReport;
use crate::switch_cycle::SwitchCycle;
use crate::traffic::TrafficPattern;
use hirise_core::rng::SeedableRng;
use hirise_core::rng::StdRng;
use hirise_core::{Fabric, InputId};

/// Simulation parameters. Defaults match the paper's methodology:
/// 4 virtual channels of 4-flit depth per port and 4-flit packets.
#[derive(Clone, Debug)]
pub struct SimConfig {
    radix: usize,
    vcs: usize,
    vc_depth_flits: usize,
    packet_len_flits: usize,
    injection_rate: f64,
    window: Option<usize>,
    warmup: u64,
    measure: u64,
    drain: u64,
    seed: u64,
    /// `None` follows `debug_assertions`; `Some` forces it either way.
    invariants: Option<bool>,
    /// Record invariant violations instead of panicking (implies the
    /// checker is on).
    record_invariants: bool,
    /// Static QoS class per input for per-class latency telemetry;
    /// `None` (the default) disables class accounting entirely.
    qos_classes: Option<Vec<u8>>,
}

impl SimConfig {
    /// Creates a configuration for a switch of the given radix with the
    /// paper's defaults (4 VCs x 4 flits, 4-flit packets, 10% load,
    /// 2k-cycle warmup, 20k-cycle measurement, 20k-cycle drain cap).
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    pub fn new(radix: usize) -> Self {
        assert!(radix > 0, "radix must be at least 1");
        Self {
            radix,
            vcs: 4,
            vc_depth_flits: 4,
            packet_len_flits: 4,
            injection_rate: 0.1,
            window: None,
            warmup: 2_000,
            measure: 20_000,
            drain: 20_000,
            seed: 0x5EED_0001,
            invariants: None,
            record_invariants: false,
            qos_classes: None,
        }
    }

    /// Sets the offered load in packets/input/cycle.
    pub fn injection_rate(mut self, rate: f64) -> Self {
        self.injection_rate = rate;
        self
    }

    /// Closed-loop mode: caps the packets each input may have in
    /// flight (injected but not delivered). `None` (the default) is the
    /// standard open-loop methodology; a small window models clients
    /// that wait for their transactions, like the CMP cores of §VI-D.
    pub fn window(mut self, window: Option<usize>) -> Self {
        self.window = window;
        self
    }

    /// Sets the number of virtual channels per input port.
    pub fn vcs(mut self, vcs: usize) -> Self {
        self.vcs = vcs;
        self
    }

    /// Sets the VC buffer depth in flits.
    pub fn vc_depth_flits(mut self, depth: usize) -> Self {
        self.vc_depth_flits = depth;
        self
    }

    /// Sets the packet length in flits.
    pub fn packet_len_flits(mut self, len: usize) -> Self {
        self.packet_len_flits = len;
        self
    }

    /// Sets the warmup length in cycles (statistics ignored).
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets the measurement window length in cycles.
    pub fn measure(mut self, cycles: u64) -> Self {
        self.measure = cycles;
        self
    }

    /// Sets the maximum drain length in cycles (waiting for measured
    /// packets to complete after the window closes).
    pub fn drain(mut self, cycles: u64) -> Self {
        self.drain = cycles;
        self
    }

    /// Sets the RNG seed; runs are deterministic for a given seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Forces the per-cycle [`InvariantChecker`] on or off. The default
    /// follows the build profile: on under `debug_assertions`, off in
    /// release builds. A radix-64 run takes 1.2–1.25× as long with the
    /// checker on as with it off.
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.invariants = Some(on);
        self
    }

    /// Runs the [`InvariantChecker`] in recording mode: violations are
    /// collected on the checker (see [`NetworkSim::checker`]) instead of
    /// panicking, and the checker is enabled regardless of build
    /// profile. This is how `hirise-lab` campaigns surface the offending
    /// configuration instead of dying mid-run.
    pub fn record_invariants(mut self, on: bool) -> Self {
        self.record_invariants = on;
        self
    }

    /// Enables per-QoS-class latency telemetry: `classes[i]` is the
    /// static class of input `i` (0 = highest). The report then carries
    /// one latency histogram per class alongside the aggregate one (see
    /// `SimReport::class_latency_percentile_cycles`), which is how the
    /// matching face-off separates SLO-bound traffic from best-effort
    /// background. Telemetry-only: scheduling is not affected.
    ///
    /// # Panics
    ///
    /// Panics if `classes` does not have one entry per input.
    pub fn qos_classes(mut self, classes: Vec<u8>) -> Self {
        assert_eq!(classes.len(), self.radix, "one class per input required");
        self.qos_classes = Some(classes);
        self
    }

    fn invariants_enabled(&self) -> bool {
        self.record_invariants || self.invariants.unwrap_or(cfg!(debug_assertions))
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Offered load in packets/input/cycle.
    pub fn rate(&self) -> f64 {
        self.injection_rate
    }

    /// Packet length in flits.
    pub fn packet_len(&self) -> usize {
        self.packet_len_flits
    }
}

/// A cycle-accurate simulation of one switch fabric under one traffic
/// pattern.
#[derive(Debug)]
pub struct NetworkSim<F, T> {
    fabric: F,
    pattern: T,
    cfg: SimConfig,
    rng: StdRng,
    cycle: SwitchCycle,
    in_flight: Vec<usize>,
    now: u64,
    next_packet_id: u64,
    checker: Option<InvariantChecker>,
}

impl<F: Fabric, T: TrafficPattern> NetworkSim<F, T> {
    /// Creates a simulation over `fabric` driven by `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if the fabric radix disagrees with the configuration, or
    /// if a packet does not fit in a VC buffer.
    pub fn new(fabric: F, pattern: T, cfg: SimConfig) -> Self {
        assert_eq!(fabric.radix(), cfg.radix, "fabric/config radix mismatch");
        assert!(
            cfg.packet_len_flits <= cfg.vc_depth_flits,
            "a packet must fit in one VC buffer ({} > {} flits)",
            cfg.packet_len_flits,
            cfg.vc_depth_flits
        );
        let radix = cfg.radix;
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            fabric,
            pattern,
            rng,
            cycle: SwitchCycle::new(radix, cfg.vcs),
            in_flight: vec![0; radix],
            now: 0,
            next_packet_id: 0,
            checker: cfg.invariants_enabled().then(|| {
                if cfg.record_invariants {
                    InvariantChecker::recording()
                } else {
                    InvariantChecker::new()
                }
            }),
            cfg,
        }
    }

    /// Runs warmup, measurement and drain, returning the report.
    pub fn run(&mut self) -> SimReport {
        let mut report = self.report();
        let end_of_window = self.cfg.warmup + self.cfg.measure;
        for _ in 0..end_of_window {
            self.step(&mut report);
        }
        let mut drained = 0;
        while report.completed_measured() < report.injected_measured() && drained < self.cfg.drain {
            self.step(&mut report);
            drained += 1;
        }
        report
    }

    /// Creates an empty [`SimReport`] compatible with this simulation's
    /// configuration, for use with [`NetworkSim::run_cycles`].
    pub fn report(&self) -> SimReport {
        let mut report = SimReport::new(
            self.cfg.radix,
            self.cfg.injection_rate,
            self.pattern.name().to_string(),
            self.cfg.measure,
        );
        if let Some(classes) = &self.cfg.qos_classes {
            report.set_qos_classes(classes);
        }
        report
    }

    /// Steps the simulation forward by exactly `cycles` cycles,
    /// recording into `report`. Lower-level than [`NetworkSim::run`]:
    /// no warmup/measure/drain policy is applied, which makes it the
    /// building block for throughput benchmarks (`cyclebench`) and
    /// allocation audits that need to time or instrument a precise
    /// cycle count. Whether a cycle's statistics count is still
    /// governed by the configured warmup/measure window.
    pub fn run_cycles(&mut self, report: &mut SimReport, cycles: u64) {
        for _ in 0..cycles {
            self.step(report);
        }
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Read access to the fabric under test.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// Mutable access to the fabric under test, e.g. for injecting
    /// faults before (or between) runs.
    pub fn fabric_mut(&mut self) -> &mut F {
        &mut self.fabric
    }

    /// The invariant checker, when enabled (debug builds by default,
    /// or via [`SimConfig::check_invariants`]).
    pub fn checker(&self) -> Option<&InvariantChecker> {
        self.checker.as_ref()
    }

    /// The fabric's fault-event log, when fault injection was enabled
    /// (see [`Fabric::enable_faults`]). Campaigns read it after a run to
    /// report degradation events alongside invariant violations rather
    /// than crashing on a faulty fabric.
    pub fn fault_log(&self) -> Option<&hirise_core::FaultLog> {
        self.fabric.fault_log()
    }

    /// Total fault transitions observed by the fabric, `0` when fault
    /// injection is disabled.
    pub fn fault_event_count(&self) -> u64 {
        self.fault_log().map_or(0, |log| log.total())
    }

    fn in_measure_window(&self) -> bool {
        self.now >= self.cfg.warmup && self.now < self.cfg.warmup + self.cfg.measure
    }

    /// One simulation cycle.
    fn step(&mut self, report: &mut SimReport) {
        let in_window = self.in_measure_window();

        // (a) Progress in-flight transfers; complete and release.
        self.cycle
            .transfers(&mut self.fabric, |input, vc, _, packet| {
                report.record_completion(
                    input,
                    packet.latency(self.now),
                    in_window,
                    packet.measured,
                );
                self.in_flight[input] -= 1;
                if let Some(checker) = &mut self.checker {
                    checker.on_delivery(input, vc, &packet);
                }
            });

        // (b) Injection (closed-loop mode skips inputs at their window).
        for input in 0..self.cfg.radix {
            if let Some(window) = self.cfg.window {
                if self.in_flight[input] >= window {
                    continue;
                }
            }
            if let Some(dst) =
                self.pattern
                    .next(InputId::new(input), self.cfg.injection_rate, &mut self.rng)
            {
                let packet = Packet {
                    id: self.next_packet_id,
                    src: InputId::new(input),
                    dst,
                    len_flits: self.cfg.packet_len_flits,
                    birth_cycle: self.now,
                    measured: in_window,
                    handle: hirise_core::PacketHandle::NONE,
                };
                self.next_packet_id += 1;
                if in_window {
                    report.record_injection_measured();
                }
                self.in_flight[input] += 1;
                if let Some(checker) = &mut self.checker {
                    checker.on_injection(&packet);
                }
                self.cycle.inject(packet);
            }
        }

        // (c)+(d) Move packets into free VCs, arbitrate one candidate
        // per idle port, and start the winners' transfers. The checker
        // reads the busy state of the requested outputs before the
        // fabric answers.
        self.cycle.collect(|_, packet| packet.dst, |_, _| true);
        if let Some(checker) = &mut self.checker {
            let fabric = &self.fabric;
            checker.before_arbitration(self.cfg.radix, &self.cycle.requests, |output| {
                fabric.output_busy(output)
            });
        }
        self.fabric
            .arbitrate_into(&self.cycle.requests, &mut self.cycle.grants);
        self.cycle.commit();
        if let Some(checker) = &mut self.checker {
            // The port audit walks only the ports the cycle marks
            // occupied or transferring. A stale bitmap still trips it: a
            // packet held by a port outside that set is missing from the
            // in-flight sum and breaks conservation.
            checker.after_switch_cycle(self.now, &self.cycle, self.cfg.vcs);
        }

        self.now += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Custom, Hotspot, UniformRandom};
    use hirise_core::{OutputId, Switch2d};

    #[test]
    fn zero_load_latency_is_packet_serialisation_time() {
        // A single packet: inject at t, arbitrate same cycle, 4 flit
        // beats -> latency 4 cycles.
        let mut fired = false;
        let pattern = Custom::new("single", move |input: InputId, _rate, _rng: &mut _| {
            if input.index() == 0 && !fired {
                fired = true;
                Some(OutputId::new(3))
            } else {
                None
            }
        });
        let cfg = SimConfig::new(8).warmup(0).measure(100).drain(100);
        let mut sim = NetworkSim::new(Switch2d::new(8), pattern, cfg);
        let report = sim.run();
        assert_eq!(report.completed_measured(), 1);
        assert_eq!(report.avg_latency_cycles(), 4.0);
    }

    #[test]
    fn qos_class_telemetry_splits_latencies_without_perturbing_the_run() {
        let radix = 16;
        let classes: Vec<u8> = (0..radix).map(|i| u8::from(i >= radix / 2)).collect();
        let cfg = SimConfig::new(radix)
            .injection_rate(0.05)
            .warmup(500)
            .measure(5_000);
        let mut plain =
            NetworkSim::new(Switch2d::new(radix), UniformRandom::new(radix), cfg.clone());
        let mut classed = NetworkSim::new(
            Switch2d::new(radix),
            UniformRandom::new(radix),
            cfg.qos_classes(classes),
        );
        let plain_report = plain.run();
        let classed_report = classed.run();
        // Telemetry-only: the classed run is cycle-identical.
        assert_eq!(
            plain_report.latency_histogram(),
            classed_report.latency_histogram()
        );
        assert_eq!(
            plain_report.accepted_packets(),
            classed_report.accepted_packets()
        );
        // The per-class histograms partition the measured population.
        assert_eq!(classed_report.class_count(), 2);
        let merged: u64 = (0..2)
            .map(|c| classed_report.class_latency_histogram(c).unwrap().count())
            .sum();
        assert_eq!(merged, classed_report.latency_histogram().count());
        assert!(classed_report
            .class_latency_percentile_cycles(0, 99.0)
            .is_some());
    }

    #[test]
    fn low_load_uniform_random_is_stable() {
        let cfg = SimConfig::new(16)
            .injection_rate(0.05)
            .warmup(500)
            .measure(5_000);
        let mut sim = NetworkSim::new(Switch2d::new(16), UniformRandom::new(16), cfg);
        let report = sim.run();
        assert!(report.is_stable());
        // Accepted ~ offered: 16 inputs * 0.05 = 0.8 packets/cycle.
        let accepted = report.accepted_rate();
        assert!((0.7..0.9).contains(&accepted), "accepted {accepted}");
    }

    #[test]
    fn overload_saturates_below_one_packet_per_port_cycle() {
        let cfg = SimConfig::new(16)
            .injection_rate(1.0)
            .warmup(1_000)
            .measure(5_000)
            .drain(0);
        let mut sim = NetworkSim::new(Switch2d::new(16), UniformRandom::new(16), cfg);
        let report = sim.run();
        assert!(!report.is_stable());
        // A 4-flit packet occupies an output for 5 cycles (1 arb + 4
        // data), so per-output throughput tops out at 0.2 packets/cycle;
        // uniform-random head-of-line blocking keeps it below that.
        let per_output = report.accepted_rate() / 16.0;
        assert!(per_output <= 0.2 + 1e-9, "per-output rate {per_output}");
        assert!(per_output > 0.10, "per-output rate {per_output}");
    }

    #[test]
    fn hotspot_throughput_is_one_output_bus() {
        let cfg = SimConfig::new(16)
            .injection_rate(1.0)
            .warmup(1_000)
            .measure(5_000)
            .drain(0);
        let mut sim = NetworkSim::new(Switch2d::new(16), Hotspot::new(OutputId::new(5)), cfg);
        let report = sim.run();
        // One output bus, 5-cycle occupancy per packet: 0.2 packets/cycle.
        let rate = report.accepted_rate();
        assert!((0.19..=0.201).contains(&rate), "hotspot rate {rate}");
    }

    #[test]
    fn closed_loop_window_bounds_in_flight() {
        // Window of 1 on hotspot traffic: each input can have one packet
        // outstanding, so total accepted is bounded by the single output
        // bus but latency stays bounded too (no unbounded queueing).
        let cfg = SimConfig::new(16)
            .injection_rate(1.0)
            .window(Some(1))
            .warmup(500)
            .measure(4_000)
            .drain(2_000);
        let mut sim = NetworkSim::new(Switch2d::new(16), Hotspot::new(OutputId::new(0)), cfg);
        let report = sim.run();
        // One output bus, 5-cycle occupancy: 0.2 packets/cycle.
        assert!((0.18..=0.201).contains(&report.accepted_rate()));
        // With window 1, the worst case is waiting behind 15 other
        // single-packet clients: far below open-loop queueing blowup.
        assert!(
            report.max_latency_cycles() < 16 * 6 + 50,
            "max {}",
            report.max_latency_cycles()
        );
    }

    #[test]
    fn open_loop_hotspot_latency_is_unbounded_by_contrast() {
        // 2x the hotspot capacity, no warmup so the measured packets are
        // the ones that pile up; a long drain lets them all complete so
        // their queueing delay is visible.
        let cfg = SimConfig::new(16)
            .injection_rate(0.025)
            .warmup(0)
            .measure(4_000)
            .drain(30_000);
        let mut sim = NetworkSim::new(Switch2d::new(16), Hotspot::new(OutputId::new(0)), cfg);
        let report = sim.run();
        assert!(
            report.max_latency_cycles() > 1_000,
            "max {}",
            report.max_latency_cycles()
        );
    }

    #[test]
    fn same_seed_same_result() {
        let run = || {
            let cfg = SimConfig::new(16)
                .injection_rate(0.2)
                .warmup(200)
                .measure(2_000)
                .seed(42);
            NetworkSim::new(Switch2d::new(16), UniformRandom::new(16), cfg)
                .run()
                .accepted_packets()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let cfg = SimConfig::new(16)
                .injection_rate(0.2)
                .warmup(200)
                .measure(2_000)
                .seed(seed);
            NetworkSim::new(Switch2d::new(16), UniformRandom::new(16), cfg)
                .run()
                .accepted_packets()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    #[should_panic(expected = "radix mismatch")]
    fn radix_mismatch_panics() {
        let cfg = SimConfig::new(8);
        let _ = NetworkSim::new(Switch2d::new(16), UniformRandom::new(16), cfg);
    }

    #[test]
    #[should_panic(expected = "must fit in one VC")]
    fn oversized_packets_rejected() {
        let cfg = SimConfig::new(8).packet_len_flits(8).vc_depth_flits(4);
        let _ = NetworkSim::new(Switch2d::new(8), UniformRandom::new(8), cfg);
    }
}
