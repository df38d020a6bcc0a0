//! The full 64-tile CMP bound to one switch fabric.
//!
//! Tiles host a core and an L2 bank each; eight tiles also host a
//! memory controller. Cores and the memory system run in the 2 GHz core
//! domain; the switch runs at its own design frequency (from
//! `hirise-phys`), and the simulation advances both domains on a
//! picosecond timeline.

use crate::cache::{BankEvent, L2Bank};
use crate::core_model::Core;
use crate::memory::MemoryController;
use crate::message::Message;
use crate::netif::SwitchNet;
use crate::profiles::WorkloadMix;
use crate::trace::{MemAccess, SyntheticTrace};
use hirise_core::Fabric;
use std::collections::VecDeque;

/// The due cycle of a core with no event ahead: stalled on its MLP
/// budget until a reply arrives, or finished.
const NEVER: u64 = u64::MAX;

/// System parameters (defaults follow Table III).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    core_freq_ghz: f64,
    core_width: u64,
    mlp: usize,
    l2_latency_cycles: u64,
    mem_latency_ns: f64,
    mem_service_ns: f64,
    mem_controllers: usize,
    instructions_per_core: u64,
    seed: u64,
    max_core_cycles: u64,
}

impl SystemConfig {
    /// The Table III configuration: 2 GHz 2-way cores, 6-cycle L2
    /// banks, 8 memory controllers at 80 ns, 50 k instructions per core.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            core_freq_ghz: 2.0,
            core_width: 2,
            // Table III allows up to 16 outstanding requests per core;
            // an MLP budget of 8 calibrates the network-sensitivity of
            // the mixes to the paper's observed speedup range (see
            // EXPERIMENTS.md).
            mlp: 8,
            l2_latency_cycles: 6,
            mem_latency_ns: 80.0,
            mem_service_ns: 1.0,
            mem_controllers: 8,
            instructions_per_core: 50_000,
            seed: 0xCAFE,
            max_core_cycles: 50_000_000,
        }
    }

    /// Sets the per-core instruction budget.
    pub fn instructions_per_core(mut self, n: u64) -> Self {
        self.instructions_per_core = n;
        self
    }

    /// Sets the memory-level-parallelism budget per core.
    pub fn mlp(mut self, mlp: usize) -> Self {
        self.mlp = mlp;
        self
    }

    /// Sets the RNG seed (trace generation).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the safety cap on simulated core cycles.
    pub fn max_core_cycles(mut self, cycles: u64) -> Self {
        self.max_core_cycles = cycles;
        self
    }
}

/// Results of one CMP run.
#[derive(Clone, Debug)]
pub struct SystemReport {
    per_core_ipc: Vec<f64>,
    elapsed_cycles: u64,
    net_delivered: u64,
    net_avg_latency_cycles: f64,
    mem_fills: u64,
    bank_peak_queue: usize,
    finished: bool,
}

impl SystemReport {
    /// Per-core IPC (instructions / core cycles to finish).
    pub fn per_core_ipc(&self) -> &[f64] {
        &self.per_core_ipc
    }

    /// Sum of per-core IPCs — the "system IPC" used for speedups.
    pub fn system_ipc(&self) -> f64 {
        self.per_core_ipc.iter().sum()
    }

    /// Core cycles until the last core finished.
    pub fn elapsed_cycles(&self) -> u64 {
        self.elapsed_cycles
    }

    /// Messages the switch delivered.
    pub fn net_delivered(&self) -> u64 {
        self.net_delivered
    }

    /// Mean switch latency in switch cycles.
    pub fn net_avg_latency_cycles(&self) -> f64 {
        self.net_avg_latency_cycles
    }

    /// Whether every core retired its budget before the cycle cap.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Cache lines fetched from memory across all controllers.
    pub fn mem_fills(&self) -> u64 {
        self.mem_fills
    }

    /// Deepest L2 bank queue observed (contention indicator; Table III
    /// provisions 32 MSHRs per bank).
    pub fn bank_peak_queue(&self) -> usize {
        self.bank_peak_queue
    }

    /// Weighted speedup of this run over `baseline`: the mean of
    /// per-core IPC ratios (the standard multi-programmed metric, which
    /// keeps one sped-up benchmark from hiding another's slowdown).
    ///
    /// # Panics
    ///
    /// Panics if the runs have different core counts.
    pub fn weighted_speedup(&self, baseline: &SystemReport) -> f64 {
        assert_eq!(
            self.per_core_ipc.len(),
            baseline.per_core_ipc.len(),
            "core counts must match"
        );
        let n = self.per_core_ipc.len() as f64;
        self.per_core_ipc
            .iter()
            .zip(&baseline.per_core_ipc)
            .map(|(a, b)| a / b)
            .sum::<f64>()
            / n
    }
}

/// A 64-tile CMP around one switch.
#[derive(Debug)]
pub struct CmpSystem<F> {
    cfg: SystemConfig,
    cores: Vec<Core>,
    /// `core_due[i]`: the cycle of core `i`'s next eventful tick, or
    /// [`NEVER`].
    core_due: Vec<u64>,
    /// `core_synced[i]`: the first cycle core `i` has not been stepped
    /// through.
    core_synced: Vec<u64>,
    /// The cycle whose core phase runs next: a reply that wakes a core
    /// stalled on its MLP budget makes it due then.
    next_core_phase: u64,
    finished_cores: usize,
    banks: Vec<L2Bank>,
    /// Bitmap over banks with an access in service or queued.
    live_banks: Vec<u64>,
    mcs: Vec<MemoryController>,
    net: SwitchNet<F>,
    net_period_ps: f64,
    core_period_ps: f64,
    mc_rr: Vec<usize>,
    pending_local: VecDeque<(usize, Message)>,
    outbox: Vec<(usize, usize, Message)>,
}

impl<F: Fabric> CmpSystem<F> {
    /// Builds the system: `fabric` at `net_freq_ghz`, cores assigned
    /// from `mix` (one benchmark instance per tile, Table VI layout).
    ///
    /// # Panics
    ///
    /// Panics if the fabric radix is not 64 or the controller count
    /// does not divide the tile count.
    pub fn new(fabric: F, net_freq_ghz: f64, mix: &WorkloadMix, cfg: SystemConfig) -> Self {
        let tiles = fabric.radix();
        assert_eq!(tiles, 64, "the Table III system has 64 tiles");
        assert!(
            tiles.is_multiple_of(cfg.mem_controllers),
            "controllers must divide tiles"
        );
        assert!(net_freq_ghz > 0.0, "network frequency must be positive");
        let profiles = mix.assign_cores();
        let cores = profiles
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let seed = cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Core::new(
                    SyntheticTrace::new(p, tiles, seed),
                    cfg.core_width,
                    cfg.mlp,
                    cfg.instructions_per_core,
                )
            })
            .collect();
        Self {
            cores,
            // Every core ticks on the first cycle.
            core_due: vec![0; tiles],
            core_synced: vec![0; tiles],
            next_core_phase: 0,
            finished_cores: 0,
            banks: (0..tiles)
                .map(|_| L2Bank::new(cfg.l2_latency_cycles))
                .collect(),
            live_banks: vec![0; tiles.div_ceil(64)],
            mcs: (0..cfg.mem_controllers)
                .map(|_| MemoryController::new(cfg.mem_latency_ns, cfg.mem_service_ns))
                .collect(),
            net: SwitchNet::new(fabric),
            net_period_ps: 1000.0 / net_freq_ghz,
            core_period_ps: 1000.0 / cfg.core_freq_ghz,
            mc_rr: vec![0; tiles],
            pending_local: VecDeque::new(),
            outbox: Vec::new(),
            cfg,
        }
    }

    /// Tile hosting memory controller `index`.
    fn mc_tile(&self, index: usize) -> usize {
        index * (self.cores.len() / self.mcs.len())
    }

    /// Memory controller index hosted at `tile`, if any.
    fn mc_at_tile(&self, tile: usize) -> Option<usize> {
        let stride = self.cores.len() / self.mcs.len();
        tile.is_multiple_of(stride).then(|| tile / stride)
    }

    /// Runs to completion (or the cycle cap) and reports.
    ///
    /// Each core cycle steps the switch domain up to the current time,
    /// then visits only what has an event: the banks with an access in
    /// service or queued, the memory controllers with fills in flight,
    /// and the cores due this cycle, in ascending index. A core's
    /// cycles between events (retiring `width` instructions, or
    /// stalled) are applied in closed form when it next runs.
    pub fn run(&mut self) -> SystemReport {
        let mut now_cycles: u64 = 0;
        let mut net_next_ps: f64 = 0.0;
        let mut now_ps: f64 = 0.0;

        while now_cycles < self.cfg.max_core_cycles {
            // Advance the switch domain up to the current time.
            while net_next_ps <= now_ps {
                self.net.step();
                net_next_ps += self.net_period_ps;
            }
            let now_ns = now_ps / 1000.0;
            self.next_core_phase = now_cycles;

            // Deliver network arrivals. Same-tile messages they trigger
            // queue behind them.
            while let Some((tile, message)) = self.net.pop_arrival() {
                self.dispatch(tile, message, now_ns);
            }
            self.drain_dispatch(now_ns);

            // L2 banks with an access in service or queued.
            for word_idx in 0..self.live_banks.len() {
                let mut word = self.live_banks[word_idx];
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let bank = word_idx * 64 + bit;
                    if let Some(event) = self.banks[bank].tick() {
                        self.route_bank_event(bank, event);
                    }
                    if self.banks[bank].occupancy() == 0 {
                        self.live_banks[word_idx] &= !(1u64 << bit);
                    }
                }
            }
            self.flush_outbox();
            self.drain_dispatch(now_ns);

            // Memory controllers with fills in flight.
            for mc in 0..self.mcs.len() {
                if self.mcs[mc].occupancy() == 0 {
                    continue;
                }
                let tile = self.mc_tile(mc);
                while let Some((core, bank)) = self.mcs[mc].pop_ready(now_ns) {
                    self.outbox
                        .push((tile, bank, Message::MemReply { core, bank }));
                }
            }
            self.flush_outbox();
            self.drain_dispatch(now_ns);

            // Cores due this cycle, in ascending index: a branch-free
            // compare over the due cycles, then the set bits.
            for word_idx in 0..self.core_due.len().div_ceil(64) {
                let chunk = &self.core_due[word_idx * 64..];
                let mut word = chunk
                    .iter()
                    .take(64)
                    .enumerate()
                    .fold(0u64, |word, (bit, &due)| {
                        word | u64::from(due == now_cycles) << bit
                    });
                while word != 0 {
                    let core = word_idx * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if let Some(access) = self.tick_core(core, now_cycles) {
                        self.outbox.push((
                            core,
                            access.bank,
                            Message::L2Request {
                                core,
                                l2_miss: access.l2_miss,
                            },
                        ));
                    }
                }
            }
            self.next_core_phase = now_cycles + 1;
            self.flush_outbox();
            self.drain_dispatch(now_ns);

            now_cycles += 1;
            now_ps += self.core_period_ps;

            if self.finished_cores == self.cores.len() {
                break;
            }
        }

        // Cut off by the cap: step every unfinished core through the
        // last cycle run.
        for (core, synced) in self.cores.iter_mut().zip(&mut self.core_synced) {
            core.skip_quiet_ticks(now_cycles - *synced);
            *synced = now_cycles;
        }
        self.report(now_cycles)
    }

    /// Runs core `core`'s eventful tick at `now`, after applying the
    /// quiet cycles since it last ran, and schedules its next one.
    fn tick_core(&mut self, core: usize, now: u64) -> Option<MemAccess> {
        let c = &mut self.cores[core];
        c.skip_quiet_ticks(now - self.core_synced[core]);
        let access = c.tick(now);
        self.core_synced[core] = now + 1;
        if c.finished_at() == Some(now) {
            self.finished_cores += 1;
        }
        self.core_due[core] = (now + 1).saturating_add(c.quiet_ticks());
        access
    }

    /// The report of a run that stopped after `now_cycles` core cycles;
    /// an unfinished core's IPC is over all of them.
    fn report(&self, now_cycles: u64) -> SystemReport {
        let finished = self.cores.iter().all(Core::is_finished);
        let per_core_ipc = self
            .cores
            .iter()
            .map(|c| {
                let cycles = c.finished_at().unwrap_or(now_cycles).max(1);
                c.retired() as f64 / cycles as f64
            })
            .collect();
        SystemReport {
            per_core_ipc,
            elapsed_cycles: now_cycles,
            net_delivered: self.net.delivered(),
            net_avg_latency_cycles: self.net.avg_latency_cycles(),
            mem_fills: self.mcs.iter().map(MemoryController::served).sum(),
            bank_peak_queue: self.banks.iter().map(L2Bank::peak_queue).max().unwrap_or(0),
            finished,
        }
    }

    /// Moves outbox messages onto the switch (or the local queue for
    /// same-tile traffic).
    fn flush_outbox(&mut self) {
        for (src, dst, message) in self.outbox.drain(..) {
            if src == dst {
                self.pending_local.push_back((dst, message));
            } else {
                self.net.send(src, dst, message);
            }
        }
    }

    /// Processes queued deliveries, including cascades they trigger.
    fn drain_dispatch(&mut self, now_ns: f64) {
        while let Some((tile, message)) = self.pending_local.pop_front() {
            self.dispatch(tile, message, now_ns);
        }
    }

    /// Delivers `message` at `tile`; a same-tile message it triggers
    /// joins the back of the local queue.
    fn dispatch(&mut self, tile: usize, message: Message, now_ns: f64) {
        match message {
            Message::L2Request { core, l2_miss } => {
                self.banks[tile].enqueue(core, l2_miss);
                self.live_banks[tile / 64] |= 1u64 << (tile % 64);
            }
            Message::L2Reply { core } => {
                self.cores[core].on_reply();
                // A core stalled on its MLP budget issues its miss at
                // the next core phase.
                if self.core_due[core] == NEVER && self.cores[core].waits_on_budget() {
                    self.core_due[core] = self.next_core_phase;
                }
            }
            Message::MemRequest { core, bank } => {
                let mc = self
                    .mc_at_tile(tile)
                    .expect("MemRequest routed to a controller tile");
                self.mcs[mc].request(now_ns, core, bank);
            }
            Message::MemReply { core, bank } => {
                let event = self.banks[bank].fill(core);
                self.route_bank_event(bank, event);
                self.flush_outbox();
            }
        }
    }

    /// Converts a bank completion into its follow-on message.
    fn route_bank_event(&mut self, bank: usize, event: BankEvent) {
        match event {
            BankEvent::Hit { core } => {
                self.outbox.push((bank, core, Message::L2Reply { core }));
            }
            BankEvent::Miss { core } => {
                let mc = self.mc_rr[bank] % self.mcs.len();
                self.mc_rr[bank] += 1;
                let mc_tile = self.mc_tile(mc);
                self.outbox
                    .push((bank, mc_tile, Message::MemRequest { core, bank }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::table_vi_mixes;
    use hirise_core::{HiRiseConfig, HiRiseSwitch, Switch2d};

    fn quick_cfg() -> SystemConfig {
        SystemConfig::new()
            .instructions_per_core(2_000)
            .max_core_cycles(5_000_000)
    }

    /// The per-cycle reference model: every phase visits every core,
    /// bank and memory controller on every core cycle, and the finish
    /// check scans every core. `run` must report exactly what it does.
    fn run_per_cycle<F: Fabric>(sys: &mut CmpSystem<F>) -> SystemReport {
        let mut now_cycles: u64 = 0;
        let mut net_next_ps: f64 = 0.0;
        let mut now_ps: f64 = 0.0;

        while now_cycles < sys.cfg.max_core_cycles {
            while net_next_ps <= now_ps {
                sys.net.step();
                net_next_ps += sys.net_period_ps;
            }
            let now_ns = now_ps / 1000.0;

            while let Some((tile, message)) = sys.net.pop_arrival() {
                sys.pending_local.push_back((tile, message));
            }
            sys.drain_dispatch(now_ns);

            for bank in 0..sys.banks.len() {
                if let Some(event) = sys.banks[bank].tick() {
                    sys.route_bank_event(bank, event);
                }
            }
            sys.flush_outbox();
            sys.drain_dispatch(now_ns);

            for mc in 0..sys.mcs.len() {
                let tile = sys.mc_tile(mc);
                while let Some((core, bank)) = sys.mcs[mc].pop_ready(now_ns) {
                    sys.outbox
                        .push((tile, bank, Message::MemReply { core, bank }));
                }
            }
            sys.flush_outbox();
            sys.drain_dispatch(now_ns);

            for core in 0..sys.cores.len() {
                if let Some(access) = sys.cores[core].tick(now_cycles) {
                    sys.outbox.push((
                        core,
                        access.bank,
                        Message::L2Request {
                            core,
                            l2_miss: access.l2_miss,
                        },
                    ));
                }
            }
            sys.flush_outbox();
            sys.drain_dispatch(now_ns);

            now_cycles += 1;
            now_ps += sys.core_period_ps;

            if sys.cores.iter().all(Core::is_finished) {
                break;
            }
        }
        sys.report(now_cycles)
    }

    /// Builds Table VI mix `mix` on the 2D fabric at 1.69 GHz or the
    /// paper-optimal Hi-Rise at 2.2 GHz.
    fn system(mix: usize, hirise: bool, cfg: SystemConfig) -> CmpSystem<Box<dyn Fabric>> {
        let fabric: Box<dyn Fabric> = if hirise {
            Box::new(HiRiseSwitch::new(&HiRiseConfig::paper_optimal()))
        } else {
            Box::new(Switch2d::new(64))
        };
        let ghz = if hirise { 2.2 } else { 1.69 };
        CmpSystem::new(fabric, ghz, &table_vi_mixes()[mix], cfg)
    }

    /// Runs `cfg` both ways on every Table VI mix and fabric and checks
    /// every report field (IPCs as bits) and every core's end state.
    fn assert_matches_the_per_cycle_model(label: &str, cfg: &SystemConfig) {
        for mix in 0..8 {
            for hirise in [false, true] {
                let case = format!("{label}: Mix{} hirise={hirise}", mix + 1);
                let mut fast = system(mix, hirise, cfg.clone());
                let mut slow = system(mix, hirise, cfg.clone());
                let a = fast.run();
                let b = run_per_cycle(&mut slow);
                let bits = |r: &SystemReport| -> Vec<u64> {
                    r.per_core_ipc().iter().map(|ipc| ipc.to_bits()).collect()
                };
                assert_eq!(bits(&a), bits(&b), "{case}: per-core IPC");
                assert_eq!(a.elapsed_cycles(), b.elapsed_cycles(), "{case}: cycles");
                assert_eq!(a.net_delivered(), b.net_delivered(), "{case}: delivered");
                assert_eq!(
                    a.net_avg_latency_cycles().to_bits(),
                    b.net_avg_latency_cycles().to_bits(),
                    "{case}: latency"
                );
                assert_eq!(a.mem_fills(), b.mem_fills(), "{case}: fills");
                assert_eq!(a.bank_peak_queue(), b.bank_peak_queue(), "{case}: peak");
                assert_eq!(a.finished(), b.finished(), "{case}: finished");
                for (i, (x, y)) in fast.cores.iter().zip(&slow.cores).enumerate() {
                    assert_eq!(x.retired(), y.retired(), "{case}: core {i} retired");
                    assert_eq!(
                        x.stalled_cycles(),
                        y.stalled_cycles(),
                        "{case}: core {i} stalls"
                    );
                    assert_eq!(x.outstanding(), y.outstanding(), "{case}: core {i} misses");
                    assert_eq!(x.finished_at(), y.finished_at(), "{case}: core {i} finish");
                }
            }
        }
    }

    #[test]
    fn run_matches_the_per_cycle_model_over_three_seeds() {
        for seed in [1, 2, 3] {
            let cfg = SystemConfig::new().instructions_per_core(2_000).seed(seed);
            assert_matches_the_per_cycle_model(&format!("seed {seed}"), &cfg);
        }
    }

    #[test]
    fn run_matches_the_per_cycle_model_when_capped() {
        for (seed, cap) in [(1, 300), (2, 701), (3, 1_500)] {
            let cfg = SystemConfig::new()
                .instructions_per_core(2_000)
                .seed(seed)
                .max_core_cycles(cap);
            assert_matches_the_per_cycle_model(&format!("seed {seed} cap {cap}"), &cfg);
        }
    }

    #[test]
    fn run_matches_the_per_cycle_model_at_mlp_one() {
        for seed in [1, 2, 3] {
            let cfg = SystemConfig::new()
                .instructions_per_core(2_000)
                .seed(seed)
                .mlp(1);
            assert_matches_the_per_cycle_model(&format!("seed {seed} mlp 1"), &cfg);
        }
    }

    #[test]
    fn low_mpki_mix_finishes_fast() {
        let mix = &table_vi_mixes()[0]; // Mix1, 15 MPKI
        let report = CmpSystem::new(Switch2d::new(64), 1.69, mix, quick_cfg()).run();
        assert!(report.finished());
        assert!(report.system_ipc() > 10.0, "ipc {}", report.system_ipc());
        assert!(report.net_delivered() > 0);
    }

    #[test]
    fn higher_mpki_means_lower_ipc() {
        let mixes = table_vi_mixes();
        let run = |i: usize| {
            CmpSystem::new(Switch2d::new(64), 1.69, &mixes[i], quick_cfg())
                .run()
                .system_ipc()
        };
        let light = run(0); // 15.0 MPKI
        let heavy = run(7); // 76.0 MPKI
        assert!(
            heavy < light,
            "heavy mix should be slower: {heavy} vs {light}"
        );
    }

    #[test]
    fn hirise_speeds_up_a_memory_bound_mix() {
        let mix = &table_vi_mixes()[7]; // Mix8, 76 MPKI
        let flat = CmpSystem::new(Switch2d::new(64), 1.69, mix, quick_cfg())
            .run()
            .system_ipc();
        let hirise = CmpSystem::new(
            HiRiseSwitch::new(&HiRiseConfig::paper_optimal()),
            2.2,
            mix,
            quick_cfg(),
        )
        .run()
        .system_ipc();
        let speedup = hirise / flat;
        assert!(speedup > 1.0, "speedup {speedup}");
    }

    #[test]
    fn memory_stats_are_populated_for_memory_bound_mixes() {
        let mix = &table_vi_mixes()[7]; // Mix8
        let report = CmpSystem::new(Switch2d::new(64), 1.69, mix, quick_cfg()).run();
        assert!(report.mem_fills() > 0, "Mix8 must touch memory");
        assert!(report.bank_peak_queue() >= 1);
        // Light mixes fetch far fewer lines.
        let light =
            CmpSystem::new(Switch2d::new(64), 1.69, &table_vi_mixes()[0], quick_cfg()).run();
        assert!(light.mem_fills() < report.mem_fills());
    }

    #[test]
    fn weighted_speedup_of_identical_runs_is_one() {
        let mix = &table_vi_mixes()[1];
        let a = CmpSystem::new(Switch2d::new(64), 1.69, mix, quick_cfg()).run();
        let b = CmpSystem::new(Switch2d::new(64), 1.69, mix, quick_cfg()).run();
        assert!((a.weighted_speedup(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_and_system_speedups_agree_in_direction() {
        let mix = &table_vi_mixes()[7];
        let flat = CmpSystem::new(Switch2d::new(64), 1.69, mix, quick_cfg()).run();
        let hirise = CmpSystem::new(
            HiRiseSwitch::new(&HiRiseConfig::paper_optimal()),
            2.2,
            mix,
            quick_cfg(),
        )
        .run();
        assert!(hirise.weighted_speedup(&flat) > 1.0);
        assert!(hirise.system_ipc() > flat.system_ipc());
    }

    #[test]
    fn deterministic_across_runs() {
        let mix = &table_vi_mixes()[2];
        let run = || {
            CmpSystem::new(Switch2d::new(64), 1.69, mix, quick_cfg())
                .run()
                .system_ipc()
        };
        assert_eq!(run(), run());
    }
}
