//! The 2D mesh of switches (§VI-E, Fig. 13): its geometry, its
//! configuration and its report.
//!
//! Each mesh node is a full switch fabric (normally a
//! [`HiRiseSwitch`](hirise_core::HiRiseSwitch)) whose ports are split
//! between the four mesh directions and the locally attached cores.
//! Packets are routed XY dimension-ordered: store-and-forward per hop,
//! with the per-switch single-cycle arbitration, connection hold and
//! release semantics of the single-switch simulator. The Z (layer)
//! dimension is handled *inside* each Hi-Rise switch, which is exactly
//! the paper's point: "the 3D switch can provide the adaptable Z
//! dimension routing". [`sharded_mesh`](crate::shard::sharded_mesh)
//! runs the mesh, on one shard or many.
//!
//! Core numbering is global: core `g` lives on node
//! `(g / cores_per_node)` in row-major order, at local core index
//! `g % cores_per_node`.

use crate::engine::NetSchedule;
use crate::stats::LatencyHistogram;
use hirise_core::OutputId;

/// The four mesh directions, in port-bank order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
}

impl Direction {
    fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }
}

/// How switch ports are assigned to mesh directions and cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MeshPortMap {
    /// Direction banks occupy consecutive ports (N, E, S, W, then
    /// cores). Simple, but straight-through traffic usually enters and
    /// leaves on different switch layers, consuming L2LC bandwidth
    /// inside every Hi-Rise hop.
    #[default]
    Contiguous,
    /// Layer-aware assignment (§VI-E: "layer-aware routing algorithms
    /// that minimize the traversal of traffic in the vertical direction
    /// will also help alleviate the L2LC bottleneck"): all four
    /// direction ports of a lane are placed on the *same* switch layer,
    /// so straight-through packets (which keep their lane hop to hop)
    /// never cross layers inside a switch.
    LayerAware {
        /// Stacked layer count of the mesh's switches.
        layers: usize,
    },
}

/// Configuration of a mesh-of-switches simulation.
#[derive(Clone, Debug)]
pub struct MeshSimConfig {
    pub(crate) cols: usize,
    pub(crate) rows: usize,
    pub(crate) ports_per_direction: usize,
    pub(crate) vcs: usize,
    pub(crate) packet_len_flits: usize,
    pub(crate) injection_rate: f64,
    pub(crate) link_buffer_packets: usize,
    pub(crate) port_map: MeshPortMap,
    pub(crate) warmup: u64,
    pub(crate) measure: u64,
    pub(crate) drain: u64,
    pub(crate) seed: u64,
    pub(crate) schedule: NetSchedule,
}

impl MeshSimConfig {
    /// Creates a `cols x rows` mesh reserving `ports_per_direction`
    /// switch ports per mesh direction; the defaults mirror the
    /// single-switch methodology (4 VCs, 4-flit packets).
    ///
    /// # Panics
    ///
    /// Panics if the mesh is empty or no ports are reserved.
    pub fn new(cols: usize, rows: usize, ports_per_direction: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "mesh must have at least one node");
        assert!(
            ports_per_direction >= 1,
            "need at least one port per direction"
        );
        Self {
            cols,
            rows,
            ports_per_direction,
            vcs: 4,
            packet_len_flits: 4,
            injection_rate: 0.02,
            link_buffer_packets: 4,
            port_map: MeshPortMap::Contiguous,
            warmup: 1_000,
            measure: 10_000,
            drain: 10_000,
            seed: 0x3D_3E54,
            schedule: NetSchedule::default(),
        }
    }

    /// Selects the per-cycle scheduling strategy (see [`NetSchedule`]).
    /// An execution knob, never a results knob: telemetry is
    /// byte-identical across schedules.
    pub fn schedule(mut self, schedule: NetSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the offered load in packets/core/cycle.
    pub fn injection_rate(mut self, rate: f64) -> Self {
        self.injection_rate = rate;
        self
    }

    /// Sets the downstream buffering a link-fed input port advertises
    /// (in packets). A sender may only start a hop when the receiving
    /// port has a free slot — credit-based back-pressure. XY
    /// dimension-ordered routing plus guaranteed ejection keeps the
    /// mesh deadlock-free at any buffer depth ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `packets` is zero.
    pub fn link_buffer_packets(mut self, packets: usize) -> Self {
        assert!(packets >= 1, "links need at least one buffer slot");
        self.link_buffer_packets = packets;
        self
    }

    /// Selects the port-to-direction mapping (see [`MeshPortMap`]).
    pub fn port_map(mut self, map: MeshPortMap) -> Self {
        self.port_map = map;
        self
    }

    /// Sets the warmup length in cycles.
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets the measurement window in cycles.
    pub fn measure(mut self, cycles: u64) -> Self {
        self.measure = cycles;
        self
    }

    /// Sets the drain cap in cycles.
    pub fn drain(mut self, cycles: u64) -> Self {
        self.drain = cycles;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the packet length in flits.
    pub fn packet_len_flits(mut self, len: usize) -> Self {
        self.packet_len_flits = len;
        self
    }
}

/// Results of a mesh (or sharded-topology) simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeshReport {
    pub(crate) measured_cycles: u64,
    pub(crate) delivered_in_window: u64,
    pub(crate) injected_measured: u64,
    pub(crate) completed_measured: u64,
    pub(crate) latency_sum: u64,
    pub(crate) hop_sum: u64,
    pub(crate) cores: usize,
    pub(crate) histogram: LatencyHistogram,
}

impl MeshReport {
    /// An all-zero report: the identity element for
    /// [`absorb`](Self::absorb). Every counter is a plain sum and the
    /// histogram is mergeable, so per-shard partial reports combine into
    /// exactly the report a single instance would have produced.
    pub(crate) fn empty(measured_cycles: u64, cores: usize) -> Self {
        Self {
            measured_cycles,
            delivered_in_window: 0,
            injected_measured: 0,
            completed_measured: 0,
            latency_sum: 0,
            hop_sum: 0,
            cores,
            histogram: LatencyHistogram::new(),
        }
    }

    /// Folds another partial report into this one (commutative and
    /// associative in every field).
    pub(crate) fn absorb(&mut self, other: &MeshReport) {
        self.delivered_in_window += other.delivered_in_window;
        self.injected_measured += other.injected_measured;
        self.completed_measured += other.completed_measured;
        self.latency_sum += other.latency_sum;
        self.hop_sum += other.hop_sum;
        self.histogram.merge(&other.histogram);
    }
    /// Aggregate accepted throughput in packets/cycle.
    pub fn accepted_rate(&self) -> f64 {
        self.delivered_in_window as f64 / self.measured_cycles as f64
    }

    /// Mean end-to-end packet latency in switch cycles.
    pub fn avg_latency_cycles(&self) -> f64 {
        if self.completed_measured == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.completed_measured as f64
        }
    }

    /// Mean switch traversals per delivered packet.
    pub fn avg_hops(&self) -> f64 {
        if self.completed_measured == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.completed_measured as f64
        }
    }

    /// Whether the mesh kept up with the offered load.
    pub fn is_stable(&self) -> bool {
        self.completed_measured as f64 >= 0.99 * self.injected_measured as f64
    }

    /// Total cores injecting.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Measured packets injected during the window.
    pub fn injected_measured(&self) -> u64 {
        self.injected_measured
    }

    /// Measured packets that completed.
    pub fn completed_measured(&self) -> u64 {
        self.completed_measured
    }

    /// The streaming end-to-end latency histogram over the measured
    /// population.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }

    /// The `p`-th end-to-end latency percentile in cycles (`p` in
    /// `[0, 100]`), or `None` if nothing completed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile_cycles(&self, p: f64) -> Option<f64> {
        self.histogram.percentile(p)
    }
}

/// What a switch port is wired to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortRole {
    /// A mesh link in `dir` on spreading lane `lane`.
    Link { dir: Direction, lane: usize },
    /// Local core `local` (injection input / ejection output).
    Core { local: usize },
}

/// The port assignment shared by every switch of the mesh.
#[derive(Clone, Debug)]
struct PortLayout {
    /// `dir_ports[d][k]`: the port of direction `d`, lane `k`.
    dir_ports: Vec<Vec<usize>>,
    /// `core_ports[c]`: the port of local core `c`.
    core_ports: Vec<usize>,
    /// Inverse map.
    roles: Vec<PortRole>,
}

impl PortLayout {
    fn new(radix: usize, ports_per_direction: usize, map: MeshPortMap) -> Self {
        let p = ports_per_direction;
        let mut dir_ports = vec![vec![usize::MAX; p]; 4];
        let mut taken = vec![false; radix];
        match map {
            MeshPortMap::Contiguous => {
                for (d, bank) in dir_ports.iter_mut().enumerate() {
                    for (k, port) in bank.iter_mut().enumerate() {
                        *port = d * p + k;
                        taken[d * p + k] = true;
                    }
                }
            }
            MeshPortMap::LayerAware { layers } => {
                assert!(
                    layers >= 1 && radix.is_multiple_of(layers),
                    "bad layer count"
                );
                let per_layer = radix / layers;
                for k in 0..p {
                    let preferred = k % layers;
                    for bank in dir_ports.iter_mut() {
                        // First free port on the preferred layer, else
                        // anywhere (keeps the layout total).
                        let start = preferred * per_layer;
                        let slot = (start..start + per_layer)
                            .find(|&q| !taken[q])
                            .or_else(|| (0..radix).find(|&q| !taken[q]))
                            .expect("more ports than direction lanes");
                        bank[k] = slot;
                        taken[slot] = true;
                    }
                }
            }
        }
        let core_ports: Vec<usize> = (0..radix).filter(|&q| !taken[q]).collect();
        let mut roles = vec![PortRole::Core { local: 0 }; radix];
        for (d, bank) in dir_ports.iter().enumerate() {
            for (k, &port) in bank.iter().enumerate() {
                roles[port] = PortRole::Link {
                    dir: match d {
                        0 => Direction::North,
                        1 => Direction::East,
                        2 => Direction::South,
                        _ => Direction::West,
                    },
                    lane: k,
                };
            }
        }
        for (c, &port) in core_ports.iter().enumerate() {
            roles[port] = PortRole::Core { local: c };
        }
        Self {
            dir_ports,
            core_ports,
            roles,
        }
    }
}

/// The pure geometry of a 2D mesh of switches: node grid, port layout,
/// XY routing and link wiring — the [`ShardTopology`](crate::shard::ShardTopology)
/// the sharded engine ([`ShardedSim`](crate::shard::ShardedSim)) walks.
#[derive(Clone, Debug)]
pub struct MeshGeometry {
    cols: usize,
    rows: usize,
    ports_per_direction: usize,
    radix: usize,
    cores_per_node: usize,
    layout: PortLayout,
}

/// Why a [`MeshGeometry`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeshShapeError {
    /// A shape dimension is zero.
    ZeroDimension {
        /// The dimension: `cols`, `rows` or `ports_per_direction`.
        field: &'static str,
    },
    /// The switch radix leaves no port for a core beside the four
    /// directions' ports.
    RadixTooSmall {
        /// The offered radix.
        radix: usize,
        /// Ports the directions take (`4 * ports_per_direction`).
        direction_ports: usize,
    },
    /// A layer-aware port map over zero layers, or over a layer count
    /// that does not divide the radix.
    BadLayerCount {
        /// The configured layer count.
        layers: usize,
        /// The switch radix.
        radix: usize,
    },
}

impl std::fmt::Display for MeshShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshShapeError::ZeroDimension { field } => write!(f, "{field} must be at least 1"),
            MeshShapeError::RadixTooSmall {
                radix,
                direction_ports,
            } => write!(
                f,
                "radix {radix} cannot serve {direction_ports} direction ports and cores"
            ),
            MeshShapeError::BadLayerCount { layers, radix } => write!(
                f,
                "a layer-aware port map needs a layer count that divides radix {radix}, \
                 got {layers}"
            ),
        }
    }
}

impl std::error::Error for MeshShapeError {}

impl MeshGeometry {
    /// Checks that `cols x rows` switches of `radix` ports can build a
    /// mesh reserving `ports_per_direction` per direction under `map`:
    /// what [`new`](Self::new) would otherwise panic on.
    ///
    /// # Errors
    ///
    /// A zero dimension, a radix with no port left for a core, or a
    /// layer-aware map whose layer count is zero or does not divide the
    /// radix.
    pub fn check(
        cols: usize,
        rows: usize,
        ports_per_direction: usize,
        radix: usize,
        map: MeshPortMap,
    ) -> Result<(), MeshShapeError> {
        for (field, value) in [
            ("cols", cols),
            ("rows", rows),
            ("ports_per_direction", ports_per_direction),
        ] {
            if value == 0 {
                return Err(MeshShapeError::ZeroDimension { field });
            }
        }
        let direction_ports = 4 * ports_per_direction;
        if radix <= direction_ports {
            return Err(MeshShapeError::RadixTooSmall {
                radix,
                direction_ports,
            });
        }
        if let MeshPortMap::LayerAware { layers } = map {
            if layers == 0 || !radix.is_multiple_of(layers) {
                return Err(MeshShapeError::BadLayerCount { layers, radix });
            }
        }
        Ok(())
    }

    /// Builds the geometry for `cols x rows` switches of `radix` ports,
    /// reserving `ports_per_direction` per mesh direction.
    ///
    /// # Panics
    ///
    /// Panics on any shape [`check`](Self::check) rejects.
    pub fn new(
        cols: usize,
        rows: usize,
        ports_per_direction: usize,
        radix: usize,
        map: MeshPortMap,
    ) -> Self {
        if let Err(e) = Self::check(cols, rows, ports_per_direction, radix, map) {
            panic!("{e}");
        }
        let cores_per_node = radix - 4 * ports_per_direction;
        let layout = PortLayout::new(radix, ports_per_direction, map);
        Self {
            cols,
            rows,
            ports_per_direction,
            radix,
            cores_per_node,
            layout,
        }
    }

    /// Number of mesh nodes (switches).
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Cores attached to each node.
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Total cores attached to the mesh.
    pub fn total_cores(&self) -> usize {
        self.cores_per_node * self.nodes()
    }

    fn node_of_core(&self, core: usize) -> usize {
        core / self.cores_per_node
    }

    fn node_xy(&self, node: usize) -> (usize, usize) {
        (node % self.cols, node / self.cols)
    }

    /// The node across the link in `dir`, or `None` off the grid edge
    /// (XY routing never targets an off-grid port; the `None` arm only
    /// matters when enumerating all ports, e.g. for shard frontiers).
    fn neighbor(&self, node: usize, dir: Direction) -> Option<usize> {
        let (x, y) = self.node_xy(node);
        let (nx, ny) = match dir {
            Direction::North => (x, y.checked_sub(1)?),
            Direction::East => (x + 1, y),
            Direction::South => (x, y + 1),
            Direction::West => (x.checked_sub(1)?, y),
        };
        (nx < self.cols && ny < self.rows).then(|| ny * self.cols + nx)
    }

    /// XY next-hop output port at `node` for a packet to `dst_core`
    /// with spreading lane `lane`.
    pub fn route(&self, node: usize, dst_core: usize, lane: usize) -> OutputId {
        let p = self.ports_per_direction;
        let dst_node = self.node_of_core(dst_core);
        let (x, y) = self.node_xy(node);
        let (dx, dy) = self.node_xy(dst_node);
        let dir = if x < dx {
            Some(Direction::East)
        } else if x > dx {
            Some(Direction::West)
        } else if y < dy {
            Some(Direction::South)
        } else if y > dy {
            Some(Direction::North)
        } else {
            None
        };
        match dir {
            Some(d) => OutputId::new(self.layout.dir_ports[d as usize][lane % p]),
            None => OutputId::new(self.layout.core_ports[dst_core % self.cores_per_node]),
        }
    }

    /// Which (node, input port) an output port of `node` feeds, or
    /// `None` for a local ejection port or an unwired grid-edge port.
    pub fn link_endpoint(&self, node: usize, output: OutputId) -> Option<(usize, usize)> {
        match self.layout.roles[output.index()] {
            PortRole::Core { .. } => None, // local ejection port
            PortRole::Link { dir, lane } => {
                let next = self.neighbor(node, dir)?;
                Some((next, self.layout.dir_ports[dir.opposite() as usize][lane]))
            }
        }
    }

    /// The switch input port of local core `local`.
    pub fn core_port(&self, local: usize) -> usize {
        self.layout.core_ports[local]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{sharded_mesh, ShardedSim};
    use crate::traffic::{Custom, TrafficPattern, UniformRandom};
    use hirise_core::{HiRiseConfig, HiRiseSwitch, InputId};

    fn small_mesh(
        cfg: MeshSimConfig,
        pattern: impl TrafficPattern + 'static,
    ) -> ShardedSim<HiRiseSwitch, MeshGeometry> {
        // 16-radix Hi-Rise switches over 2 layers; 2 ports per direction
        // leaves 8 cores per node.
        let switch_cfg = HiRiseConfig::builder(16, 2)
            .channel_multiplicity(2)
            .build()
            .expect("valid configuration");
        let mut pattern = Some(pattern);
        sharded_mesh(
            &cfg,
            16,
            1,
            move |_node| HiRiseSwitch::new(&switch_cfg),
            move || Box::new(pattern.take().expect("one shard")) as Box<dyn TrafficPattern>,
        )
    }

    #[test]
    fn geometry_is_consistent() {
        let sim = small_mesh(MeshSimConfig::new(3, 2, 2), UniformRandom::new(48));
        assert_eq!(sim.topology().cores_per_node(), 8);
        assert_eq!(sim.total_endpoints(), 48);
    }

    #[test]
    fn single_packet_crosses_the_mesh() {
        // One packet from core 0 (node 0) to core 47 (node 5).
        let mut fired = false;
        let pattern = Custom::new("single", move |input: InputId, _r, _rng: &mut _| {
            if input.index() == 0 && !fired {
                fired = true;
                Some(OutputId::new(47))
            } else {
                None
            }
        });
        let report = small_mesh(
            MeshSimConfig::new(3, 2, 2)
                .warmup(0)
                .measure(200)
                .drain(200),
            pattern,
        )
        .run();
        assert_eq!(report.completed_measured(), 1);
        // Node 0 -> 1 -> 2 -> 5: 3 switch hops... XY: (0,0) to (2,1):
        // East, East, South, then eject = 4 traversals.
        assert_eq!(report.avg_hops(), 4.0);
        assert!(
            report.avg_latency_cycles() >= 12.0,
            "{}",
            report.avg_latency_cycles()
        );
    }

    #[test]
    fn same_node_traffic_stays_local() {
        let mut fired = false;
        let pattern = Custom::new("local", move |input: InputId, _r, _rng: &mut _| {
            if input.index() == 1 && !fired {
                fired = true;
                Some(OutputId::new(3)) // same node 0
            } else {
                None
            }
        });
        let report = small_mesh(
            MeshSimConfig::new(2, 2, 2)
                .warmup(0)
                .measure(100)
                .drain(100),
            pattern,
        )
        .run();
        assert_eq!(report.completed_measured(), 1);
        assert_eq!(report.avg_hops(), 1.0);
    }

    #[test]
    fn low_load_uniform_random_is_stable() {
        let report = small_mesh(
            MeshSimConfig::new(2, 2, 2)
                .injection_rate(0.01)
                .warmup(500)
                .measure(4_000)
                .drain(6_000),
            UniformRandom::new(32),
        )
        .run();
        assert!(
            report.is_stable(),
            "{} of {} completed",
            report.completed_measured(),
            report.injected_measured()
        );
        assert!(report.avg_hops() >= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let report = small_mesh(
                MeshSimConfig::new(2, 2, 2)
                    .injection_rate(0.02)
                    .warmup(100)
                    .measure(1_000)
                    .seed(seed),
                UniformRandom::new(32),
            )
            .run();
            (report.completed_measured(), report.latency_sum)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn port_layouts_are_permutations() {
        for map in [
            MeshPortMap::Contiguous,
            MeshPortMap::LayerAware { layers: 2 },
        ] {
            let layout = PortLayout::new(16, 2, map);
            let mut seen = [false; 16];
            for bank in &layout.dir_ports {
                for &port in bank {
                    assert!(!seen[port], "{map:?}: port {port} assigned twice");
                    seen[port] = true;
                }
            }
            for &port in &layout.core_ports {
                assert!(!seen[port], "{map:?}: port {port} assigned twice");
                seen[port] = true;
            }
            assert!(seen.iter().all(|&s| s), "{map:?}: unassigned ports");
            assert_eq!(layout.core_ports.len(), 8);
        }
    }

    #[test]
    fn layer_aware_aligns_opposite_directions() {
        // Radix 16 over 2 layers: 8 ports per layer. Each lane's four
        // direction ports must share a layer.
        let layout = PortLayout::new(16, 2, MeshPortMap::LayerAware { layers: 2 });
        let layer_of = |port: usize| port / 8;
        for lane in 0..2 {
            let layers: Vec<usize> = (0..4)
                .map(|d| layer_of(layout.dir_ports[d][lane]))
                .collect();
            assert!(
                layers.iter().all(|&l| l == layers[0]),
                "lane {lane} spans layers {layers:?}"
            );
        }
        // And the two lanes land on the two different layers.
        assert_ne!(
            layer_of(layout.dir_ports[0][0]),
            layer_of(layout.dir_ports[0][1])
        );
    }

    #[test]
    fn layer_aware_mesh_delivers_traffic() {
        let cfg = MeshSimConfig::new(3, 2, 2)
            .port_map(MeshPortMap::LayerAware { layers: 2 })
            .injection_rate(0.01)
            .warmup(500)
            .measure(3_000)
            .drain(6_000);
        let report = small_mesh(cfg, UniformRandom::new(48)).run();
        assert!(report.is_stable());
        assert!(report.avg_hops() >= 1.0);
    }

    #[test]
    fn back_pressure_bounds_link_buffers() {
        // Funnel traffic from every core to one corner node; with
        // credit-based links the interior buffers must never exceed the
        // advertised depth (the packets pile up at the sources instead).
        let cores = 9 * 8;
        let pattern = Custom::new("corner", move |_input: InputId, rate, rng: &mut _| {
            use hirise_core::rng::Rng;
            rng.gen_bool(f64::clamp(rate, 0.0, 1.0))
                .then(|| OutputId::new(cores - 1))
        });
        let mut sim = small_mesh(
            MeshSimConfig::new(3, 3, 2)
                .injection_rate(0.05)
                .link_buffer_packets(2)
                .warmup(0)
                .measure(2_000)
                .drain(0),
            pattern,
        );
        let report = sim.run();
        // The run should deliver something and never violate the credit
        // invariant (checked below on the final state).
        assert!(report.accepted_rate() > 0.0);
        for node in 0..9 {
            let p = 2 * 4; // link-fed ports are the first 4*p
            for input in 0..p {
                assert!(
                    sim.occupancy(node, input) <= 2,
                    "node {node} port {input} overflowed"
                );
            }
        }
    }

    #[test]
    fn congestion_raises_latency() {
        let latency_at = |rate: f64| {
            small_mesh(
                MeshSimConfig::new(2, 2, 2)
                    .injection_rate(rate)
                    .warmup(500)
                    .measure(3_000)
                    .drain(8_000),
                UniformRandom::new(32),
            )
            .run()
            .avg_latency_cycles()
        };
        assert!(latency_at(0.02) > latency_at(0.002));
    }
}
