//! The Hi-Rise hierarchical 3D switch (§III).
//!
//! For a radix-`N` switch over `L` layers, each layer hosts `N/L` inputs
//! and `N/L` outputs, a *local switch* (`N/L x (N/L + c(L-1))`) and an
//! *inter-layer switch* of `N/L` sub-blocks (`(c(L-1)+1) x 1` each),
//! joined by `c` dedicated layer-to-layer channels per ordered layer
//! pair.
//!
//! A connection from input `i` to output `o` arbitrates in a single
//! cycle with two phases (Fig. 8's two-phase clocking):
//!
//! 1. **Local phase** — `i` competes with the other inputs of its layer
//!    for the local resource: the intermediate output feeding `o` when
//!    `o` is on the same layer, otherwise an L2LC towards `o`'s layer.
//! 2. **Inter-layer phase** — the phase-1 winners (one per L2LC plus the
//!    local intermediate) compete at `o`'s sub-block under the configured
//!    scheme (L-2-L LRG, WLRG, or CLRG).
//!
//! The final winner holds the output, its local column and its L2LC until
//! [`released`](crate::Fabric::release). Local-switch priorities update
//! only on a final win (back-propagation, §III-B1), which guarantees
//! every persistent requestor eventually rises to the top and is served.

mod channel;
mod interlayer;
mod local;

use crate::bits::BitSet;
use crate::config::HiRiseConfig;
use crate::error::ConfigError;
use crate::fabric::{Fabric, Grant, Request};
use crate::fault::{Fault, FaultLog, FaultState, TsvMap};
use crate::ids::{ChannelId, InputId, LayerId, OutputId};
use crate::kernel::{ArbiterKernel, KernelSel};
use channel::ChannelTable;
use interlayer::{Contender, SubBlocks};
use local::LocalSwitches;
use std::cell::RefCell;
use std::sync::Arc;

/// The local resource a connection holds on its source layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathResource {
    /// Same-layer connection through the dedicated intermediate output.
    Intermediate,
    /// Inter-layer connection through channel `k` from `src` to `dst`.
    Channel { src: usize, dst: usize, k: usize },
}

/// An established connection's footprint: its output, and the flat
/// index of the L2LC it holds or [`Path::INTERMEDIATE`].
#[derive(Clone, Copy, Debug)]
struct Path {
    output: u16,
    channel: u16,
}

impl Path {
    /// `channel` of a same-layer connection, which holds no L2LC.
    const INTERMEDIATE: u16 = u16::MAX;
}

/// A request that survived admission and was binned to a local column.
#[derive(Clone, Copy, Debug)]
struct ColumnRequest {
    local_input: usize,
    input: InputId,
    output: OutputId,
}

/// A phase-1 winner headed to an inter-layer sub-block.
#[derive(Clone, Copy, Debug)]
struct Phase1Winner {
    layer: usize,
    column: usize,
    request: ColumnRequest,
    weight: u32,
    resource: PathResource,
}

/// What kind of column a local-switch column index refers to.
#[derive(Clone, Copy, Debug)]
enum ColumnKind {
    Intermediate,
    Channel { compressed_dst: usize, k: usize },
}

/// Precomputed index-decode tables. The admission loop runs per
/// request per cycle; these tables replace the `/ % ` arithmetic of the
/// `HiRiseConfig` helpers (runtime-divisor divisions) with single
/// loads. They are read-only and depend only on the switch's shape, so
/// the switches of one shape share one copy (see
/// [`shared`](Self::shared)).
#[derive(Debug)]
struct Decode {
    /// `(radix, layers, channel multiplicity)` the tables describe.
    shape: (usize, usize, usize),
    /// `(layer, local index)` per global input.
    input: Vec<(u16, u16)>,
    /// `(layer, local index)` per global output.
    output: Vec<(u16, u16)>,
    /// Flat column index (`layer * cols + column`) -> `(layer, column)`.
    col: Vec<(u16, u16)>,
    /// Channel allocation policy, hoisted out of the request loop.
    allocation: crate::config::ChannelAllocation,
    /// Statically-bound channel per input (input-binned policy).
    in_k: Vec<u16>,
    /// Statically-bound channel per output (output-binned policy).
    out_k: Vec<u16>,
    /// What each column of a layer's local switch feeds.
    kinds: Vec<ColumnKind>,
}

thread_local! {
    /// The decode tables of the last Hi-Rise shape built on this
    /// thread. A network's routers share one shape and are built on one
    /// thread, so they share one copy of the tables.
    static DECODE: RefCell<Option<Arc<Decode>>> = const { RefCell::new(None) };
}

impl Decode {
    /// The tables for `cfg`'s shape: the ones last built on this thread
    /// if they describe it, else fresh ones, which later switches of
    /// the shape then share.
    fn shared(cfg: &HiRiseConfig) -> Arc<Self> {
        let shape = (cfg.radix(), cfg.layers(), cfg.channel_multiplicity());
        DECODE.with(|cell| {
            let mut last = cell.borrow_mut();
            match &*last {
                Some(decode) if decode.shape == shape && decode.allocation == cfg.allocation() => {
                    Arc::clone(decode)
                }
                _ => {
                    let decode = Arc::new(Self::new(cfg));
                    *last = Some(Arc::clone(&decode));
                    decode
                }
            }
        })
    }

    fn new(cfg: &HiRiseConfig) -> Self {
        let p = cfg.ports_per_layer();
        let l = cfg.layers();
        let c = cfg.channel_multiplicity();
        let cols = p + cfg.channels_per_layer();
        let split = |index: usize| ((index / p) as u16, (index % p) as u16);
        let mut kinds = vec![ColumnKind::Intermediate; p];
        for compressed_dst in 0..l - 1 {
            for k in 0..c {
                kinds.push(ColumnKind::Channel { compressed_dst, k });
            }
        }
        Self {
            shape: (cfg.radix(), l, c),
            input: (0..cfg.radix()).map(split).collect(),
            output: (0..cfg.radix()).map(split).collect(),
            col: (0..cfg.layers() * cols)
                .map(|flat| ((flat / cols) as u16, (flat % cols) as u16))
                .collect(),
            allocation: cfg.allocation(),
            in_k: (0..cfg.radix()).map(|i| ((i % p) % c) as u16).collect(),
            out_k: (0..cfg.radix()).map(|o| ((o % p) % c) as u16).collect(),
            kinds,
        }
    }
}

thread_local! {
    /// The working memory of every Hi-Rise arbitration on this thread.
    /// A switch keeps only its architectural state; the per-cycle
    /// arenas live here, shared by all the switches a thread steps, so
    /// a network of a thousand routers arbitrates in one cache-hot
    /// scratch instead of a thousand cold ones.
    static SCRATCH: RefCell<ArbScratch> = RefCell::new(ArbScratch::default());
}

/// Per-cycle scratch for the arbitration hot path: flat clear-and-reuse
/// arenas. After a few warmup cycles every inner vector has reached its
/// steady-state capacity and an arbitration cycle performs zero heap
/// allocations.
///
/// Every arbitration leaves the arenas as it found them (see
/// [`reset`](Self::reset)), so the next switch on the thread can reuse
/// them; [`fit`](Self::fit) rebuilds them for a switch of another shape,
/// or after an arbitration unwound mid-cycle.
#[derive(Debug, Default)]
struct ArbScratch {
    /// `(radix, layers, channel multiplicity)` the arenas are sized for.
    shape: Option<(usize, usize, usize)>,
    /// Cleared while an arbitration runs: a scratch found unclean was
    /// left mid-cycle by a panic and may hold stale mask bits.
    clean: bool,
    /// Per-input duplicate-request filter.
    seen: Vec<bool>,
    /// `layer * columns + column` -> statically-binned admitted requests.
    column_reqs: Vec<Vec<ColumnRequest>>,
    /// `src * layers + dst` -> priority-based allocation pools.
    pools: Vec<Vec<ColumnRequest>>,
    /// Phase-1 winners of the current cycle.
    winners: Vec<Phase1Winner>,
    /// Local-input request mask handed to the column arbiters.
    local_mask: BitSet,
    /// Per final output: indices into `winners`.
    per_output: Vec<Vec<usize>>,
    /// Outputs with contenders, in first-seen order.
    touched_outputs: Vec<usize>,
    /// Contender list for one sub-block at a time.
    contenders: Vec<Contender>,
    /// Word-kernel arena: `(layer * columns + column) * W` request words
    /// of local-input bits (the masked-word form of `column_reqs`).
    col_masks: Vec<u64>,
    /// Word-kernel arena: bitmap over flat column indices with at least
    /// one admitted request.
    touched_cols: Vec<u64>,
    /// Word-kernel arena: `(src * layers + dst) * W` request words (the
    /// masked-word form of `pools`).
    pool_masks: Vec<u64>,
    /// Word-kernel arena: the output each admitted input requested this
    /// cycle, indexed by global input (valid only for set mask bits).
    dest: Vec<u32>,
    /// Word-kernel arena: bitmap over outputs, used to detect whether
    /// any two phase-1 winners share a final output this cycle.
    out_bits: Vec<u64>,
}

impl ArbScratch {
    fn new(cfg: &HiRiseConfig) -> Self {
        let l = cfg.layers();
        let cols = cfg.ports_per_layer() + cfg.channels_per_layer();
        // Word arenas are sized for the word kernel's mask width; the
        // scalar kernel simply never touches them (a few hundred bytes).
        let w = cfg.ports_per_layer().div_ceil(64).max(1);
        Self {
            shape: Some((cfg.radix(), l, cfg.channel_multiplicity())),
            clean: true,
            seen: vec![false; cfg.radix()],
            column_reqs: vec![Vec::new(); l * cols],
            pools: vec![Vec::new(); l * l],
            winners: Vec::new(),
            local_mask: BitSet::new(cfg.ports_per_layer()),
            per_output: vec![Vec::new(); cfg.radix()],
            touched_outputs: Vec::new(),
            contenders: Vec::new(),
            col_masks: vec![0; l * cols * w],
            touched_cols: vec![0; (l * cols).div_ceil(64)],
            pool_masks: vec![0; l * l * w],
            dest: vec![0; cfg.radix()],
            out_bits: vec![0; cfg.radix().div_ceil(64)],
        }
    }

    /// Makes the arenas fit `cfg`'s switch, rebuilding them only when
    /// the last switch arbitrated on this thread had another shape (or
    /// unwound mid-cycle).
    fn fit(&mut self, cfg: &HiRiseConfig) {
        let shape = (cfg.radix(), cfg.layers(), cfg.channel_multiplicity());
        if self.shape != Some(shape) || !self.clean {
            *self = Self::new(cfg);
        }
    }

    /// Empties the arenas both kernels share while keeping capacity.
    ///
    /// `col_masks`/`touched_cols`/`pool_masks` are clear-on-consume:
    /// the word-kernel loops zero every bit they set within the same
    /// cycle, so no per-cycle sweep is needed here. The same holds for
    /// `per_output` (drained by the phase-2 loop) and the scalar bins
    /// (see [`reset_scalar_bins`](Self::reset_scalar_bins)). `dest`
    /// holds stale values by design (read only for set mask bits).
    fn reset(&mut self) {
        self.seen.fill(false);
        self.winners.clear();
        self.touched_outputs.clear();
        self.contenders.clear();
    }

    /// Empties the scalar kernel's binning arenas. Separate from
    /// [`reset`](Self::reset) because sweeping these ~`L * columns` Vec
    /// headers every cycle is a measurable fraction of an arbitration
    /// when the word kernel (which never touches them) is active.
    fn reset_scalar_bins(&mut self) {
        for list in &mut self.column_reqs {
            list.clear();
        }
        for pool in &mut self.pools {
            pool.clear();
        }
    }
}

/// The Hi-Rise hierarchical 3D switch.
///
/// See the [module documentation](self) for the architecture and the
/// [crate documentation](crate) for a usage example.
#[derive(Clone, Debug)]
pub struct HiRiseSwitch {
    cfg: HiRiseConfig,
    /// Every layer's local-switch columns, as rows of one bank.
    locals: LocalSwitches,
    /// Every output's sub-block, as rows of one bank.
    subblocks: SubBlocks,
    channels: ChannelTable,
    /// Per input, the connection it holds.
    connections: Vec<Option<Path>>,
    /// Bitmap mirror of `connections.is_some()`, so the per-request
    /// admission check is one bit test instead of an `Option<Path>`
    /// load.
    connected: Vec<u64>,
    /// Bitmap over outputs: the output is held by a connection.
    owned: Vec<u64>,
    /// Grants that travelled over each L2LC (flat channel index).
    channel_grants: Vec<u64>,
    /// Grants that used the local intermediate path, per layer.
    local_grants: Vec<u64>,
    /// Resolved arbitration kernel (see [`ArbiterKernel`]).
    kernel: KernelSel,
    /// Index-decode tables, shared by every switch of this shape.
    decode: Arc<Decode>,
    /// Fault-injection state; `None` until faults are enabled. Boxed:
    /// it is large and cold, and most switches never enable it.
    faults: Option<Box<FaultState>>,
}

impl HiRiseSwitch {
    /// Builds a switch for `cfg` with the default (word-parallel)
    /// arbitration kernel.
    pub fn new(cfg: &HiRiseConfig) -> Self {
        Self::with_kernel(cfg, ArbiterKernel::default())
    }

    /// Builds a switch for `cfg` with an explicit arbitration kernel.
    ///
    /// The word kernel carries the request→bin→priority-pool→grant
    /// pipeline as masked `u64` word operations, monomorphized over the
    /// local-switch mask width at construction (`N/L` bits; radix
    /// 16/32/64 over 4 layers all resolve to one word). Geometries the
    /// word kernels do not cover — or sub-blocks wider than 64 slots —
    /// fall back to the scalar pipeline. Both kernels produce
    /// bit-identical grant sequences.
    ///
    /// # Panics
    ///
    /// Panics if the radix or the L2LC count reaches 65,535, past the
    /// switch's `u16` port and channel tables.
    pub fn with_kernel(cfg: &HiRiseConfig, kernel: ArbiterKernel) -> Self {
        let p = cfg.ports_per_layer();
        let l = cfg.layers();
        let c = cfg.channel_multiplicity();
        assert!(
            cfg.radix() < usize::from(u16::MAX) && l * (l - 1) * c < usize::from(u16::MAX),
            "radix {} with {} L2LCs exceeds the switch's u16 tables",
            cfg.radix(),
            l * (l - 1) * c
        );
        let locals = LocalSwitches::new(cfg.local_arbiter(), l, p, c * (l - 1), c);
        let subblocks = SubBlocks::new(
            cfg.radix(),
            cfg.subblock_inputs(),
            cfg.radix(),
            cfg.scheme(),
        );
        // The sub-block word path carries its candidate-slot set in one
        // u64, so a sub-block wider than 64 slots forces the scalar
        // pipeline regardless of the local mask width.
        let sel = if cfg.subblock_inputs() <= 64 {
            KernelSel::resolve(kernel, p)
        } else {
            KernelSel::Scalar
        };
        Self {
            cfg: cfg.clone(),
            locals,
            subblocks,
            channels: ChannelTable::new(l, c),
            connections: vec![None; cfg.radix()],
            connected: vec![0; cfg.radix().div_ceil(64)],
            owned: vec![0; cfg.radix().div_ceil(64)],
            channel_grants: vec![0; l * (l - 1) * c],
            local_grants: vec![0; l],
            kernel: sel,
            decode: Decode::shared(cfg),
            faults: None,
        }
    }

    /// The switch's configuration.
    pub fn config(&self) -> &HiRiseConfig {
        &self.cfg
    }

    /// The arbitration kernel actually in effect (word fallbacks report
    /// as scalar).
    pub fn kernel(&self) -> ArbiterKernel {
        self.kernel.effective()
    }

    /// Whether the L2LC `k` from `src` to `dst` is currently held by a
    /// connection.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `src == dst` or an index is out of
    /// range.
    pub fn channel_busy(&self, src: LayerId, dst: LayerId, k: ChannelId) -> bool {
        self.channels.is_busy(src.index(), dst.index(), k.index())
    }

    /// The sub-block slot polled by channel `k` arriving from `src` at
    /// any sub-block on `dst` (Fig. 7's cross-point ordering).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or an index is out of range.
    pub fn subblock_slot(&self, src: LayerId, k: ChannelId, dst: LayerId) -> usize {
        assert!(src != dst, "no channel from a layer to itself");
        assert!(src.index() < self.cfg.layers() && dst.index() < self.cfg.layers());
        assert!(k.index() < self.cfg.channel_multiplicity());
        let compressed_src = if src.index() < dst.index() {
            src.index()
        } else {
            src.index() - 1
        };
        compressed_src * self.cfg.channel_multiplicity() + k.index()
    }

    /// The sub-block slot of the local intermediate output (the last
    /// slot).
    pub fn local_subblock_slot(&self) -> usize {
        self.cfg.subblock_inputs() - 1
    }

    /// The CLRG priority class of `input` at `output`'s sub-block, or
    /// `None` when the switch is not running CLRG.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn clrg_class(&self, output: OutputId, input: InputId) -> Option<u8> {
        assert!(input.index() < self.cfg.radix(), "input out of range");
        self.subblocks.clrg_class(output.index(), input)
    }

    /// Seeds the LRG order of the local-switch column feeding channel `k`
    /// from `src` towards `dst`, highest-priority local input first.
    /// For reproducing the paper's worked examples (Figs. 4 and 5).
    ///
    /// # Errors
    ///
    /// [`ConfigError::SeedingRequiresLrg`] when the switch was built
    /// with a non-LRG local arbiter — priority seeding has no meaning
    /// for round-robin columns, so the combination is rejected before
    /// any simulation starts instead of panicking mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, an index is out of range, or `order` is
    /// not a permutation of `0..N/L`.
    pub fn seed_local_channel_priority(
        &mut self,
        src: LayerId,
        dst: LayerId,
        k: ChannelId,
        order: &[usize],
    ) -> Result<(), ConfigError> {
        assert!(src != dst, "no channel from a layer to itself");
        let compressed_dst = if dst.index() < src.index() {
            dst.index()
        } else {
            dst.index() - 1
        };
        let column = self.locals.channel_column(compressed_dst, k.index());
        self.locals
            .seed_column(src.index() * self.column_count() + column, order)
    }

    /// Seeds the LRG order of the local-switch column feeding the
    /// intermediate output for `output` (which selects the layer too).
    ///
    /// # Errors
    ///
    /// As [`seed_local_channel_priority`](Self::seed_local_channel_priority).
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `order` is not a
    /// permutation of `0..N/L`.
    pub fn seed_local_intermediate_priority(
        &mut self,
        output: OutputId,
        order: &[usize],
    ) -> Result<(), ConfigError> {
        let layer = self.cfg.layer_of_output(output);
        let column = self
            .locals
            .intermediate_column(self.cfg.local_output_index(output));
        self.locals
            .seed_column(layer.index() * self.column_count() + column, order)
    }

    /// Seeds the slot-level LRG order of `output`'s sub-block, highest
    /// priority first (`order` is a permutation of `0..c(L-1)+1`).
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `order` is not a permutation.
    pub fn seed_subblock_priority(&mut self, output: OutputId, order: &[usize]) {
        self.subblocks.seed_priority(output.index(), order);
    }

    /// Grants that have travelled over L2LC `k` from `src` to `dst`
    /// since construction — the raw material of an L2LC-utilisation
    /// analysis (the paper's §VI-B bottleneck discussion).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or an index is out of range.
    pub fn channel_grant_count(&self, src: LayerId, dst: LayerId, k: ChannelId) -> u64 {
        assert!(src != dst, "no channel from a layer to itself");
        assert!(src.index() < self.cfg.layers() && dst.index() < self.cfg.layers());
        assert!(k.index() < self.cfg.channel_multiplicity());
        let compressed_dst = if dst.index() < src.index() {
            dst.index()
        } else {
            dst.index() - 1
        };
        let c = self.cfg.channel_multiplicity();
        let l = self.cfg.layers();
        self.channel_grants[(src.index() * (l - 1) + compressed_dst) * c + k.index()]
    }

    /// Grants that used `layer`'s local intermediate path (same-layer
    /// connections) since construction.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn local_grant_count(&self, layer: LayerId) -> u64 {
        self.local_grants[layer.index()]
    }

    /// Fraction of all grants so far that crossed layers (used an
    /// L2LC). Uniform random traffic over `L` layers approaches
    /// `(L-1)/L`.
    pub fn inter_layer_fraction(&self) -> f64 {
        let crossed: u64 = self.channel_grants.iter().sum();
        let local: u64 = self.local_grants.iter().sum();
        if crossed + local == 0 {
            0.0
        } else {
            crossed as f64 / (crossed + local) as f64
        }
    }

    /// Enables signal-level validation: every inter-layer arbitration
    /// decision is re-derived through the circuit model of
    /// [`crate::xpoint`] (the Fig. 7 priority-line bus) and asserted to
    /// agree with the behavioural arbiter. A debugging and verification
    /// aid; it roughly doubles arbitration cost.
    pub fn enable_signal_validation(&mut self) {
        self.subblocks.enable_signal_validation();
    }

    fn column_count(&self) -> usize {
        debug_assert_eq!(
            self.locals.column_count(),
            self.cfg.ports_per_layer() + self.cfg.channels_per_layer()
        );
        self.cfg.ports_per_layer() + self.cfg.channels_per_layer()
    }

    fn dst_of_compressed(&self, src: usize, compressed_dst: usize) -> usize {
        if compressed_dst < src {
            compressed_dst
        } else {
            compressed_dst + 1
        }
    }

    /// First usable channel from `src` to `dst`, scanning forward from
    /// the statically-bound channel `k0` (graceful degradation: a dead
    /// L2LC re-bins its traffic onto the next live channel of the same
    /// layer pair). `None` when every channel of the pair is down.
    fn usable_channel(&self, src: usize, dst: usize, k0: usize) -> Option<usize> {
        let Some(faults) = &self.faults else {
            return Some(k0);
        };
        let c = self.cfg.channel_multiplicity();
        (0..c)
            .map(|d| (k0 + d) % c)
            .find(|&k| !faults.tsv_down(self.channels.index(src, dst, k)))
    }

    /// Phase 1: admit requests into local columns (or priority pools) and
    /// elect one winner per column. Winners accumulate in
    /// `scratch.winners`; all working memory comes from `scratch`.
    fn phase1(&self, requests: &[Request], scratch: &mut ArbScratch) {
        let l = self.cfg.layers();
        let c = self.cfg.channel_multiplicity();
        let cols = self.column_count();

        for request in requests {
            let input = request.input;
            let output = request.output;
            assert!(
                input.index() < self.cfg.radix(),
                "input {input} out of range"
            );
            assert!(
                output.index() < self.cfg.radix(),
                "output {output} out of range"
            );
            if scratch.seen[input.index()]
                || self.connected[input.index() / 64] >> (input.index() % 64) & 1 == 1
            {
                continue;
            }
            if let Some(faults) = &self.faults {
                if faults.input_down(input.index())
                    || faults.xpoint_down(input.index(), output.index())
                {
                    continue; // dead port or crosspoint: request is masked out
                }
            }
            scratch.seen[input.index()] = true;
            let src = self.cfg.layer_of_input(input).index();
            let dst = self.cfg.layer_of_output(output).index();
            let col_req = ColumnRequest {
                local_input: self.cfg.local_input_index(input),
                input,
                output,
            };
            if src == dst {
                let column = self
                    .locals
                    .intermediate_column(self.cfg.local_output_index(output));
                scratch.column_reqs[src * cols + column].push(col_req);
            } else {
                match self.cfg.bound_channel(input, output) {
                    Some(k) => {
                        // Graceful degradation: if the bound L2LC is dead,
                        // re-bin onto the next live channel of the pair.
                        let Some(k) = self.usable_channel(src, dst, k.index()) else {
                            continue; // every channel of the pair is down
                        };
                        if self.channels.is_busy(src, dst, k) {
                            continue; // channel held by a transfer; retry later
                        }
                        let compressed_dst = if dst < src { dst } else { dst - 1 };
                        let column = self.locals.channel_column(compressed_dst, k);
                        scratch.column_reqs[src * cols + column].push(col_req);
                    }
                    None => scratch.pools[src * l + dst].push(col_req),
                }
            }
        }

        // Statically-binned columns arbitrate in parallel.
        for layer in 0..l {
            for column in 0..cols {
                let list = &scratch.column_reqs[layer * cols + column];
                if list.is_empty() {
                    continue;
                }
                scratch.local_mask.clear();
                for request in list {
                    scratch.local_mask.insert(request.local_input);
                }
                let winner_local = self
                    .locals
                    .grant_mask(layer * cols + column, &scratch.local_mask)
                    .expect("non-empty request set");
                let request = *list
                    .iter()
                    .find(|r| r.local_input == winner_local)
                    .expect("winner comes from the request list");
                let resource = match self.decode.kinds[column] {
                    ColumnKind::Intermediate => PathResource::Intermediate,
                    ColumnKind::Channel { compressed_dst, k } => PathResource::Channel {
                        src: layer,
                        dst: self.dst_of_compressed(layer, compressed_dst),
                        k,
                    },
                };
                scratch.winners.push(Phase1Winner {
                    layer,
                    column,
                    request,
                    weight: list.len() as u32,
                    resource,
                });
            }
        }

        // Priority-based allocation serializes over the channels of each
        // layer pair: the highest-priority remaining requestor takes the
        // next free channel (§III-A).
        for src in 0..l {
            for dst in 0..l {
                if src == dst {
                    continue;
                }
                let pool = &mut scratch.pools[src * l + dst];
                if pool.is_empty() {
                    continue;
                }
                let compressed_dst = if dst < src { dst } else { dst - 1 };
                for k in 0..c {
                    if pool.is_empty() {
                        break;
                    }
                    if self.channels.is_busy(src, dst, k) {
                        continue;
                    }
                    if let Some(faults) = &self.faults {
                        if faults.tsv_down(self.channels.index(src, dst, k)) {
                            continue; // dead L2LC: skip it, later channels absorb
                        }
                    }
                    let column = self.locals.channel_column(compressed_dst, k);
                    scratch.local_mask.clear();
                    for request in pool.iter() {
                        scratch.local_mask.insert(request.local_input);
                    }
                    let winner_local = self
                        .locals
                        .grant_mask(src * cols + column, &scratch.local_mask)
                        .expect("non-empty pool");
                    let pos = pool
                        .iter()
                        .position(|r| r.local_input == winner_local)
                        .expect("winner comes from the pool");
                    let weight = pool.len() as u32;
                    let request = pool.swap_remove(pos);
                    scratch.winners.push(Phase1Winner {
                        layer: src,
                        column,
                        request,
                        weight,
                        resource: PathResource::Channel { src, dst, k },
                    });
                }
            }
        }
    }

    /// Word-parallel phase 1: the same admission → bin → arbitrate
    /// pipeline as [`phase1`](Self::phase1), but carrying every request
    /// set as `W` masked `u64` words of local-input bits. Binning ORs a
    /// bit into the column's mask, column election runs
    /// [`LocalSwitches::grant_words`] directly on the words, and winner
    /// weight is a popcount. Columns are visited in ascending flat
    /// `(layer, column)` order — exactly the scalar loop order — so the
    /// LRG state and the winner sequence evolve bit-identically.
    fn phase1_words<const W: usize>(&self, requests: &[Request], scratch: &mut ArbScratch) {
        debug_assert_eq!(W, self.cfg.ports_per_layer().div_ceil(64).max(1));
        let l = self.cfg.layers();
        let c = self.cfg.channel_multiplicity();
        let p = self.cfg.ports_per_layer();
        let cols = self.column_count();

        for request in requests {
            let input = request.input;
            let output = request.output;
            assert!(
                input.index() < self.cfg.radix(),
                "input {input} out of range"
            );
            assert!(
                output.index() < self.cfg.radix(),
                "output {output} out of range"
            );
            if scratch.seen[input.index()]
                || self.connected[input.index() / 64] >> (input.index() % 64) & 1 == 1
            {
                continue;
            }
            if let Some(faults) = &self.faults {
                if faults.input_down(input.index())
                    || faults.xpoint_down(input.index(), output.index())
                {
                    continue; // dead port or crosspoint: request is masked out
                }
            }
            scratch.seen[input.index()] = true;
            let (src, local) = self.decode.input[input.index()];
            let (src, local) = (src as usize, local as usize);
            let (dst, out_local) = self.decode.output[output.index()];
            let (dst, out_local) = (dst as usize, out_local as usize);
            scratch.dest[input.index()] = output.index() as u32;
            if src == dst {
                // An intermediate column is 1:1 with its output, so every
                // request binned here contends for `output` alone. If the
                // output is still mid-transfer the whole column loses in
                // phase 2 with no state updates, so dropping the request
                // now is exact — and it skips the column election for the
                // common head-of-line-blocked case, where a stalled VC
                // re-requests the same busy output every cycle.
                if self.owned[output.index() / 64] >> (output.index() % 64) & 1 == 1 {
                    continue;
                }
                // Intermediate column index == the output's local index.
                let flat = src * cols + out_local;
                scratch.col_masks[flat * W + local / 64] |= 1u64 << (local % 64);
                scratch.touched_cols[flat / 64] |= 1u64 << (flat % 64);
            } else {
                use crate::config::ChannelAllocation;
                let bound = match self.decode.allocation {
                    ChannelAllocation::InputBinned => {
                        Some(self.decode.in_k[input.index()] as usize)
                    }
                    ChannelAllocation::OutputBinned => {
                        Some(self.decode.out_k[output.index()] as usize)
                    }
                    ChannelAllocation::PriorityBased => None,
                };
                match bound {
                    Some(k) => {
                        let Some(k) = self.usable_channel(src, dst, k) else {
                            continue; // every channel of the pair is down
                        };
                        if self.channels.is_busy(src, dst, k) {
                            continue; // channel held by a transfer; retry later
                        }
                        let compressed_dst = if dst < src { dst } else { dst - 1 };
                        // channel_column(compressed_dst, k) without the call.
                        let flat = src * cols + p + compressed_dst * c + k;
                        scratch.col_masks[flat * W + local / 64] |= 1u64 << (local % 64);
                        scratch.touched_cols[flat / 64] |= 1u64 << (flat % 64);
                    }
                    None => {
                        let pool = src * l + dst;
                        scratch.pool_masks[pool * W + local / 64] |= 1u64 << (local % 64);
                    }
                }
            }
        }

        // Statically-binned columns: ascending flat index = the scalar
        // path's (layer-major, column-minor) order. Masks are
        // clear-on-consume so the arenas stay zero between cycles.
        for word_index in 0..scratch.touched_cols.len() {
            let mut bits = scratch.touched_cols[word_index];
            scratch.touched_cols[word_index] = 0;
            while bits != 0 {
                let flat = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (layer, column) = self.decode.col[flat];
                let (layer, column) = (layer as usize, column as usize);
                let base = flat * W;
                let mask_words = &mut scratch.col_masks[base..base + W];
                let mask: [u64; W] = (&*mask_words).try_into().expect("exact W-word slice");
                mask_words.fill(0);
                let weight: u32 = mask.iter().map(|w| w.count_ones()).sum();
                let winner_local = self
                    .locals
                    .grant_words::<W>(flat, &mask)
                    .expect("non-empty request set");
                let input = InputId::new(layer * p + winner_local);
                let output = OutputId::new(scratch.dest[input.index()] as usize);
                if self.owned[output.index() / 64] >> (output.index() % 64) & 1 == 1 {
                    // The elected winner's output is mid-transfer, so it
                    // is a guaranteed phase-2 loser: the whole per-output
                    // group is dropped there with no state updates
                    // (election itself is read-only). Dropping the winner
                    // here skips the grouping work. Only channel columns
                    // reach this — intermediate columns to owned outputs
                    // were filtered at admission.
                    continue;
                }
                let resource = match self.decode.kinds[column] {
                    ColumnKind::Intermediate => PathResource::Intermediate,
                    ColumnKind::Channel { compressed_dst, k } => PathResource::Channel {
                        src: layer,
                        dst: self.dst_of_compressed(layer, compressed_dst),
                        k,
                    },
                };
                scratch.winners.push(Phase1Winner {
                    layer,
                    column,
                    request: ColumnRequest {
                        local_input: winner_local,
                        input,
                        output,
                    },
                    weight,
                    resource,
                });
            }
        }

        // Priority-based pools, serialized over each pair's channels in
        // the scalar path's (src, dst, k) order. The winner's bit is
        // cleared from the pool between channels; the mask is zeroed
        // when the pair is done (unserved requestors simply lose). The
        // binned policies never fill a pool, so they skip the scan.
        if self.decode.allocation != crate::config::ChannelAllocation::PriorityBased {
            return;
        }
        for src in 0..l {
            for dst in 0..l {
                if src == dst {
                    continue;
                }
                let base = (src * l + dst) * W;
                if scratch.pool_masks[base..base + W].iter().all(|&w| w == 0) {
                    continue;
                }
                let compressed_dst = if dst < src { dst } else { dst - 1 };
                for k in 0..c {
                    let mask: [u64; W] = (&scratch.pool_masks[base..base + W])
                        .try_into()
                        .expect("exact W-word slice");
                    let weight: u32 = mask.iter().map(|w| w.count_ones()).sum();
                    if weight == 0 {
                        break;
                    }
                    if self.channels.is_busy(src, dst, k) {
                        continue;
                    }
                    if let Some(faults) = &self.faults {
                        if faults.tsv_down(self.channels.index(src, dst, k)) {
                            continue; // dead L2LC: skip it, later channels absorb
                        }
                    }
                    let column = self.locals.channel_column(compressed_dst, k);
                    let winner_local = self
                        .locals
                        .grant_words::<W>(src * cols + column, &mask)
                        .expect("non-empty pool");
                    scratch.pool_masks[base + winner_local / 64] &= !(1u64 << (winner_local % 64));
                    let input = InputId::new(src * p + winner_local);
                    let output = OutputId::new(scratch.dest[input.index()] as usize);
                    if self.owned[output.index() / 64] >> (output.index() % 64) & 1 == 1 {
                        // Guaranteed phase-2 loser (see the binned-column
                        // loop above): the winner still leaves the pool —
                        // it lost its shot this cycle either way — but is
                        // not carried into phase 2.
                        continue;
                    }
                    scratch.winners.push(Phase1Winner {
                        layer: src,
                        column,
                        request: ColumnRequest {
                            local_input: winner_local,
                            input,
                            output,
                        },
                        weight,
                        resource: PathResource::Channel { src, dst, k },
                    });
                }
                scratch.pool_masks[base..base + W].fill(0);
            }
        }
    }

    /// The sub-block contender a phase-1 winner presents at its output.
    fn contender_of(&self, w: &Phase1Winner) -> Contender {
        let slot = match w.resource {
            PathResource::Intermediate => self.local_subblock_slot(),
            PathResource::Channel { src, dst, k } => {
                self.subblock_slot(LayerId::new(src), ChannelId::new(k), LayerId::new(dst))
            }
        };
        Contender {
            slot,
            input: w.request.input,
            weight: w.weight,
        }
    }

    /// Phase-2 commit for the winner of `output`: back-propagate the
    /// local priority update, seize the path resources, and record the
    /// connection.
    fn commit_winner(&mut self, winner: &Phase1Winner, output: usize, grants: &mut Vec<Grant>) {
        let flat = winner.layer * self.column_count() + winner.column;
        self.locals.update(flat, winner.request.local_input);
        let channel = match winner.resource {
            PathResource::Channel { src, dst, k } => {
                let index = self.channels.index(src, dst, k);
                self.channels.acquire(index);
                self.channel_grants[index] += 1;
                index as u16
            }
            PathResource::Intermediate => {
                self.local_grants[winner.layer] += 1;
                Path::INTERMEDIATE
            }
        };
        let input = winner.request.input;
        self.connections[input.index()] = Some(Path {
            output: output as u16,
            channel,
        });
        self.connected[input.index() / 64] |= 1u64 << (input.index() % 64);
        self.owned[output / 64] |= 1u64 << (output % 64);
        grants.push(Grant {
            input,
            output: OutputId::new(output),
        });
    }

    /// One arbitration cycle in the thread's `scratch`: phase 1 elects
    /// a winner per local column, phase 2 arbitrates each output's
    /// sub-block among them and commits the final winners.
    fn arbitrate_with(
        &mut self,
        requests: &[Request],
        grants: &mut Vec<Grant>,
        scratch: &mut ArbScratch,
    ) {
        scratch.reset();
        match self.kernel {
            KernelSel::Scalar => {
                scratch.reset_scalar_bins();
                self.phase1(requests, scratch);
            }
            KernelSel::Word1 => self.phase1_words::<1>(requests, scratch),
            KernelSel::Word2 => self.phase1_words::<2>(requests, scratch),
            KernelSel::Word4 => self.phase1_words::<4>(requests, scratch),
        }

        // Phase 2. In the word kernel, phase 1 never emits a winner for
        // an owned output, and on most cycles no two winners share a
        // final output either — every sub-block sees exactly one
        // contender. Detect that with one bitmap pass and, when it
        // holds, skip the per-output grouping entirely: processing
        // winners in emission order is then identical to the grouped
        // path's first-seen output order, so the state evolution stays
        // bit-for-bit the same (the twin tests pin this).
        let mut collision = false;
        if self.kernel != KernelSel::Scalar {
            for winner in &scratch.winners {
                let output = winner.request.output.index();
                let word = &mut scratch.out_bits[output / 64];
                collision |= *word >> (output % 64) & 1 == 1;
                *word |= 1u64 << (output % 64);
            }
            for word in &mut scratch.out_bits {
                *word = 0;
            }
        }

        if self.kernel != KernelSel::Scalar && !collision {
            for index in 0..scratch.winners.len() {
                let winner = scratch.winners[index];
                let output = winner.request.output.index();
                let contender = self.contender_of(&winner);
                let winner_pos = self
                    .subblocks
                    .arbitrate_word(output, std::slice::from_ref(&contender))
                    .expect("non-empty contender set");
                debug_assert_eq!(winner_pos, 0);
                self.commit_winner(&winner, output, grants);
            }
            return;
        }

        // Grouped path: collect phase-1 winners per final output and run
        // the sub-block arbitration over each contender set.
        for (index, winner) in scratch.winners.iter().enumerate() {
            let output = winner.request.output.index();
            if scratch.per_output[output].is_empty() {
                scratch.touched_outputs.push(output);
            }
            scratch.per_output[output].push(index);
        }

        for touched in 0..scratch.touched_outputs.len() {
            let output = scratch.touched_outputs[touched];
            if self.owned[output / 64] >> (output % 64) & 1 == 1 {
                // Output mid-transfer: contenders lose silently. The
                // group is still drained (`per_output` is
                // clear-on-consume).
                scratch.per_output[output].clear();
                continue;
            }
            scratch.contenders.clear();
            for &index in &scratch.per_output[output] {
                scratch
                    .contenders
                    .push(self.contender_of(&scratch.winners[index]));
            }
            let winner_pos = match self.kernel {
                KernelSel::Scalar => self.subblocks.arbitrate(output, &scratch.contenders),
                _ => self.subblocks.arbitrate_word(output, &scratch.contenders),
            }
            .expect("non-empty contender set");
            let winner = scratch.winners[scratch.per_output[output][winner_pos]];
            scratch.per_output[output].clear();
            self.commit_winner(&winner, output, grants);
        }
    }
}

impl Fabric for HiRiseSwitch {
    fn radix(&self) -> usize {
        self.cfg.radix()
    }

    fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.arbitrate_into(requests, &mut grants);
        grants
    }

    fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        grants.clear();
        if let Some(faults) = &mut self.faults {
            faults.advance();
        }
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.fit(&self.cfg);
            scratch.clean = false;
            self.arbitrate_with(requests, grants, &mut scratch);
            scratch.clean = true;
        });
    }

    fn release(&mut self, input: InputId) {
        assert!(
            input.index() < self.cfg.radix(),
            "input {input} out of range"
        );
        if let Some(path) = self.connections[input.index()].take() {
            self.connected[input.index() / 64] &= !(1u64 << (input.index() % 64));
            let out = usize::from(path.output);
            self.owned[out / 64] &= !(1u64 << (out % 64));
            if path.channel != Path::INTERMEDIATE {
                self.channels.release(usize::from(path.channel));
            }
        }
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        self.connections[input.index()].map(|p| OutputId::new(usize::from(p.output)))
    }

    fn output_busy(&self, output: OutputId) -> bool {
        let output = output.index();
        self.owned[output / 64] >> (output % 64) & 1 == 1
    }

    /// One fault-site bundle per L2LC: `L * (L-1) * c` bundles, indexed
    /// `(src * (L-1) + compressed_dst) * c + k` like the channel table.
    fn tsv_bundle_count(&self) -> usize {
        let l = self.cfg.layers();
        l * (l - 1) * self.cfg.channel_multiplicity()
    }

    fn enable_faults(&mut self, seed: u64) -> Result<(), ConfigError> {
        let tsvs = Fabric::tsv_bundle_count(self);
        self.faults = Some(Box::new(FaultState::new(
            self.cfg.radix(),
            tsvs,
            TsvMap::Direct,
            seed,
        )));
        Ok(())
    }

    fn inject_fault(&mut self, fault: Fault) -> Result<(), ConfigError> {
        if self.faults.is_none() {
            Fabric::enable_faults(self, 0)?;
        }
        self.faults
            .as_mut()
            .expect("fault state enabled above")
            .inject(fault)
    }

    fn fault_log(&self) -> Option<&FaultLog> {
        self.faults.as_ref().map(|f| f.log())
    }

    fn ticks_when_idle(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.has_flaky())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbitrationScheme;
    use crate::config::ChannelAllocation;

    /// Seeded property test of the flat layout: a switch's banks (local
    /// columns at 4, 8 and 16 ports; sub-blocks at 7 and 13 slots under
    /// every scheme) are driven through long random streams beside one
    /// standalone `MatrixArbiter`, `RoundRobinArbiter`, `ClrgState` and
    /// `WlrgState` per matrix. Winners, priority orders, classes and
    /// credits must match at every step, so no matrix of a bank ever
    /// reads or writes a neighbour's rows.
    #[test]
    fn flat_banks_match_standalone_arbiters() {
        use crate::arbiter::clrg::ClrgState;
        use crate::arbiter::matrix::MatrixArbiter;
        use crate::arbiter::round_robin::RoundRobinArbiter;
        use crate::arbiter::wlrg::WlrgState;
        use crate::config::LocalArbiterKind;
        use crate::rng::{Rng, RngCore, SeedableRng, StdRng};

        /// A random request word over `n` bits, sparse or dense.
        fn requests(rng: &mut StdRng, n: usize) -> u64 {
            let all = if n == 64 { !0 } else { (1u64 << n) - 1 };
            let word = rng.next_u64() & all;
            if rng.gen_bool(0.5) {
                word & rng.next_u64() & rng.next_u64()
            } else {
                word
            }
        }

        for (ports, seed) in [(4usize, 1u64), (8, 2), (16, 3)] {
            let (layers, channel_columns) = (3, 4);
            let count = layers * (ports + channel_columns);
            let mut rng = StdRng::seed_from_u64(0xF1A7_0000 + seed);
            let mut lrg = LocalSwitches::new(LocalArbiterKind::Lrg, layers, ports, 4, 2);
            let mut rr = LocalSwitches::new(LocalArbiterKind::RoundRobin, layers, ports, 4, 2);
            let mut lrg_ref: Vec<_> = (0..count).map(|_| MatrixArbiter::new(ports)).collect();
            let mut rr_ref: Vec<_> = (0..count).map(|_| RoundRobinArbiter::new(ports)).collect();
            for step in 0..5_000 {
                let flat = rng.gen_range(0..count);
                let word = requests(&mut rng, ports);
                let mut mask = BitSet::new(ports);
                (0..ports)
                    .filter(|&i| word >> i & 1 == 1)
                    .for_each(|i| mask.insert(i));
                let expected = lrg_ref[flat].grant_mask(&mask);
                assert_eq!(
                    lrg.grant_words::<1>(flat, &[word]),
                    expected,
                    "{ports} {step}"
                );
                assert_eq!(lrg.grant_mask(flat, &mask), expected, "{ports} {step}");
                let rr_expected = rr_ref[flat].grant_mask(&mask);
                assert_eq!(rr.grant_words::<1>(flat, &[word]), rr_expected);
                if let Some(winner) = expected {
                    lrg.update(flat, winner);
                    lrg_ref[flat].update(winner);
                }
                if let Some(winner) = rr_expected {
                    rr.update(flat, winner);
                    rr_ref[flat].update(winner);
                }
                let probe = rng.gen_range(0..count);
                for column in [flat, probe] {
                    assert_eq!(
                        lrg.priority_order(column),
                        lrg_ref[column].priority_order(),
                        "{ports} ports, column {column}, step {step}"
                    );
                }
            }
        }

        let schemes = [
            ArbitrationScheme::LayerToLayerLrg,
            ArbitrationScheme::WeightedLrg,
            ArbitrationScheme::ClassBased { classes: 2 },
            ArbitrationScheme::class_based(),
        ];
        for (slots, seed) in [(7usize, 4u64), (13, 5)] {
            for scheme in schemes {
                let (outputs, radix) = (16, 32);
                let mut rng = StdRng::seed_from_u64(0xF1A7_0000 + seed);
                let mut banks = SubBlocks::new(outputs, slots, radix, scheme);
                let mut lrg_ref: Vec<_> = (0..outputs).map(|_| MatrixArbiter::new(slots)).collect();
                let mut clrg_ref: Vec<_> = (0..outputs)
                    .map(|_| match scheme {
                        ArbitrationScheme::ClassBased { classes } => {
                            Some(ClrgState::new(radix, classes))
                        }
                        _ => None,
                    })
                    .collect();
                let mut wlrg_ref: Vec<_> = (0..outputs)
                    .map(|_| {
                        (scheme == ArbitrationScheme::WeightedLrg).then(|| WlrgState::new(slots))
                    })
                    .collect();
                for step in 0..5_000 {
                    let output = rng.gen_range(0..outputs);
                    let word = requests(&mut rng, slots);
                    let contenders: Vec<Contender> = (0..slots)
                        .filter(|&slot| word >> slot & 1 == 1)
                        .map(|slot| Contender {
                            slot,
                            input: InputId::new(rng.gen_range(0..radix)),
                            weight: rng.gen_range(1..5),
                        })
                        .collect();
                    // The standalone arbiters: best class first under
                    // CLRG, LRG among the rest, then the scheme's update.
                    let best = contenders
                        .iter()
                        .map(|c| {
                            clrg_ref[output]
                                .as_ref()
                                .map_or(0, |s| s.class_of(c.input.index()))
                        })
                        .min();
                    let candidates: Vec<usize> = contenders
                        .iter()
                        .filter(|c| {
                            Some(
                                clrg_ref[output]
                                    .as_ref()
                                    .map_or(0, |s| s.class_of(c.input.index())),
                            ) == best
                        })
                        .map(|c| c.slot)
                        .collect();
                    let expected = lrg_ref[output]
                        .grant(&candidates)
                        .map(|slot| contenders.iter().position(|c| c.slot == slot).unwrap());
                    if let Some(index) = expected {
                        let winner = contenders[index];
                        let demote = match &mut wlrg_ref[output] {
                            Some(wlrg) => wlrg.record_win(winner.slot, winner.weight),
                            None => true,
                        };
                        if demote {
                            lrg_ref[output].update(winner.slot);
                        }
                        if let Some(clrg) = &mut clrg_ref[output] {
                            clrg.record_win(winner.input.index());
                        }
                    }
                    let got = if step % 2 == 0 {
                        banks.arbitrate(output, &contenders)
                    } else {
                        banks.arbitrate_word(output, &contenders)
                    };
                    assert_eq!(got, expected, "{scheme:?} {slots} slots, step {step}");
                    let probe = rng.gen_range(0..outputs);
                    for o in [output, probe] {
                        let label = format!("{scheme:?} {slots} slots, output {o}, step {step}");
                        assert_eq!(
                            banks.priority_order(o),
                            lrg_ref[o].priority_order(),
                            "{label}"
                        );
                        for input in 0..radix {
                            let class = clrg_ref[o].as_ref().map(|s| s.class_of(input));
                            assert_eq!(banks.clrg_class(o, InputId::new(input)), class, "{label}");
                        }
                        for slot in 0..slots {
                            let credit = wlrg_ref[o].as_ref().map(|s| s.credit(slot));
                            assert_eq!(banks.wlrg_credit(o, slot), credit, "{label}");
                        }
                    }
                }
            }
        }
    }

    fn req(i: usize, o: usize) -> Request {
        Request::new(InputId::new(i), OutputId::new(o))
    }

    fn one_channel_switch(scheme: ArbitrationScheme) -> HiRiseSwitch {
        let cfg = HiRiseConfig::builder(64, 4).scheme(scheme).build().unwrap();
        HiRiseSwitch::new(&cfg)
    }

    /// Runs one pure arbitration cycle (grant then immediately release),
    /// returning the winning input for `output`.
    fn arbitration_winner(sw: &mut HiRiseSwitch, contenders: &[usize], output: usize) -> usize {
        let requests: Vec<Request> = contenders.iter().map(|&i| req(i, output)).collect();
        let grants = sw.arbitrate(&requests);
        assert_eq!(grants.len(), 1, "exactly one winner for a single output");
        let winner = grants[0].input;
        sw.release(winner);
        winner.index()
    }

    /// Fig. 4: baseline L-2-L LRG allocates disproportionately to the
    /// lone requestor from L2. Inputs {3,7,11,15} on L1 and {20} on L2
    /// all request output 63 on L4; the observed pattern must be
    /// {15, 20, 11, 20, 7, 20, 3, 20, 15, 20, ...}.
    #[test]
    fn fig4_baseline_l2l_lrg_sequence() {
        let mut sw = one_channel_switch(ArbitrationScheme::LayerToLayerLrg);
        // Initial L1 local LRG: 15 > 11 > 7 > 3 (priorities decrease top
        // to bottom in the figure); the rest of the order is immaterial.
        let mut order = vec![15, 11, 7, 3];
        order.extend((0..16).filter(|i| ![15, 11, 7, 3].contains(i)));
        sw.seed_local_channel_priority(LayerId::new(0), LayerId::new(3), ChannelId::new(0), &order)
            .expect("default local arbiter is LRG");
        // Fig. 4 cycle 1: "Input 15 wins as C1,4 has higher priority than
        // C2,4" — the default slot order (C1,4 first) already encodes it.

        let contenders = [3, 7, 11, 15, 20];
        let sequence: Vec<usize> = (0..10)
            .map(|_| arbitration_winner(&mut sw, &contenders, 63))
            .collect();
        assert_eq!(sequence, vec![15, 20, 11, 20, 7, 20, 3, 20, 15, 20]);
    }

    /// Fig. 5: CLRG restores 2D-LRG-like fairness for the same traffic.
    /// Expected pattern: {20, 15, 11, 7, 3, 20, 15, 11, 7, 3, ...}.
    #[test]
    fn fig5_clrg_sequence() {
        let mut sw = one_channel_switch(ArbitrationScheme::class_based());
        let mut order = vec![15, 11, 7, 3];
        order.extend((0..16).filter(|i| ![15, 11, 7, 3].contains(i)));
        sw.seed_local_channel_priority(LayerId::new(0), LayerId::new(3), ChannelId::new(0), &order)
            .expect("default local arbiter is LRG");
        // Fig. 5 cycle 1: "Input 20 wins, as C2,4 has higher LRG priority
        // than C1,4" — seed the sub-block so slot C2,4 outranks C1,4.
        let c14 = sw.subblock_slot(LayerId::new(0), ChannelId::new(0), LayerId::new(3));
        let c24 = sw.subblock_slot(LayerId::new(1), ChannelId::new(0), LayerId::new(3));
        let c34 = sw.subblock_slot(LayerId::new(2), ChannelId::new(0), LayerId::new(3));
        let local = sw.local_subblock_slot();
        sw.seed_subblock_priority(OutputId::new(63), &[c24, c14, c34, local]);

        let contenders = [3, 7, 11, 15, 20];
        let sequence: Vec<usize> = (0..11)
            .map(|_| arbitration_winner(&mut sw, &contenders, 63))
            .collect();
        assert_eq!(sequence, vec![20, 15, 11, 7, 3, 20, 15, 11, 7, 3, 20]);
    }

    /// WLRG also resolves the Fig. 4 bias: the four-requestor channel is
    /// held at high priority for four consecutive wins.
    #[test]
    fn wlrg_balances_adversarial_pattern() {
        let mut sw = one_channel_switch(ArbitrationScheme::WeightedLrg);
        let contenders = [3, 7, 11, 15, 20];
        let mut wins = [0usize; 64];
        for _ in 0..100 {
            let w = arbitration_winner(&mut sw, &contenders, 63);
            wins[w] += 1;
        }
        // Every contender gets 1/5 of the bandwidth.
        for &i in &contenders {
            assert_eq!(wins[i], 20, "input {i} should win exactly 20 of 100");
        }
    }

    /// The baseline's unfairness quantified: input 20 gets ~half the
    /// bandwidth while the four L1 inputs split the other half.
    #[test]
    fn baseline_gives_lone_contender_half_the_slots() {
        let mut sw = one_channel_switch(ArbitrationScheme::LayerToLayerLrg);
        let contenders = [3, 7, 11, 15, 20];
        let mut wins = [0usize; 64];
        for _ in 0..100 {
            let w = arbitration_winner(&mut sw, &contenders, 63);
            wins[w] += 1;
        }
        assert_eq!(wins[20], 50);
        for &i in &[3, 7, 11, 15] {
            assert!(
                (11..=14).contains(&wins[i]),
                "input {i} won {} times",
                wins[i]
            );
        }
    }

    /// CLRG gives each contender an equal share regardless of layer.
    #[test]
    fn clrg_equalizes_adversarial_throughput() {
        let mut sw = one_channel_switch(ArbitrationScheme::class_based());
        let contenders = [3, 7, 11, 15, 20];
        let mut wins = [0usize; 64];
        for _ in 0..100 {
            let w = arbitration_winner(&mut sw, &contenders, 63);
            wins[w] += 1;
        }
        for &i in &contenders {
            assert_eq!(wins[i], 20, "input {i} should win exactly 20 of 100");
        }
    }

    #[test]
    fn same_layer_connection_uses_intermediate_output() {
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        // Input 0 and output 5 are both on layer 0.
        let grants = sw.arbitrate(&[req(0, 5)]);
        assert_eq!(grants.len(), 1);
        // No channel should be held.
        for dst in 1..4 {
            for k in 0..4 {
                assert!(!sw.channel_busy(LayerId::new(0), LayerId::new(dst), ChannelId::new(k)));
            }
        }
        sw.release(InputId::new(0));
        assert!(!sw.output_busy(OutputId::new(5)));
    }

    #[test]
    fn inter_layer_connection_holds_its_channel() {
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        // Input 0 (layer 0, local 0, bound to channel 0) to output 63.
        let grants = sw.arbitrate(&[req(0, 63)]);
        assert_eq!(grants.len(), 1);
        assert!(sw.channel_busy(LayerId::new(0), LayerId::new(3), ChannelId::new(0)));
        // Input 4 is also bound to channel 0 towards layer 3: blocked.
        assert!(sw.arbitrate(&[req(4, 62)]).is_empty());
        // Input 1 rides channel 1: free to connect to another output.
        assert_eq!(sw.arbitrate(&[req(1, 62)]).len(), 1);
        sw.release(InputId::new(0));
        assert!(!sw.channel_busy(LayerId::new(0), LayerId::new(3), ChannelId::new(0)));
        // Channel 0 is free again.
        assert_eq!(sw.arbitrate(&[req(4, 61)]).len(), 1);
    }

    #[test]
    fn one_channel_serializes_inter_layer_transfers() {
        let cfg = HiRiseConfig::builder(64, 4).build().unwrap();
        let mut sw = HiRiseSwitch::new(&cfg);
        // Two layer-0 inputs to two different outputs on layer 3: only
        // one can hold the single L2LC.
        let grants = sw.arbitrate(&[req(0, 60), req(1, 61)]);
        assert_eq!(grants.len(), 1);
        let loser = if grants[0].input == InputId::new(0) {
            1
        } else {
            0
        };
        assert!(sw.arbitrate(&[req(loser, 60 + loser)]).is_empty());
    }

    #[test]
    fn distinct_layers_connect_in_parallel() {
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        // One input per layer, each to a distinct output on the next
        // layer: all four should connect in a single cycle.
        let requests = [req(0, 16), req(16, 32), req(32, 48), req(48, 0)];
        let grants = sw.arbitrate(&requests);
        assert_eq!(grants.len(), 4);
        assert_eq!(sw.active_connections(), 4);
    }

    #[test]
    fn busy_input_and_duplicate_requests_are_ignored() {
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        assert_eq!(sw.arbitrate(&[req(0, 63)]).len(), 1);
        assert!(sw.arbitrate(&[req(0, 62)]).is_empty());
        // Duplicate in the same cycle: only the first counts.
        let grants = sw.arbitrate(&[req(1, 40), req(1, 41)]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].output, OutputId::new(40));
    }

    #[test]
    fn output_binned_allocation_respects_output_channel() {
        let cfg = HiRiseConfig::builder(64, 4)
            .channel_multiplicity(4)
            .allocation(ChannelAllocation::OutputBinned)
            .build()
            .unwrap();
        let mut sw = HiRiseSwitch::new(&cfg);
        // Output 63 has local index 15 -> channel 3.
        assert_eq!(sw.arbitrate(&[req(0, 63)]).len(), 1);
        assert!(sw.channel_busy(LayerId::new(0), LayerId::new(3), ChannelId::new(3)));
    }

    #[test]
    fn priority_based_allocation_uses_all_channels() {
        let cfg = HiRiseConfig::builder(64, 4)
            .channel_multiplicity(4)
            .allocation(ChannelAllocation::PriorityBased)
            .build()
            .unwrap();
        let mut sw = HiRiseSwitch::new(&cfg);
        // Four inputs that input-binning would map to the SAME channel
        // (locals 0, 4, 8, 12 are all k = 0): priority allocation spreads
        // them over the four channels so all four connect at once.
        let grants = sw.arbitrate(&[req(0, 60), req(4, 61), req(8, 62), req(12, 63)]);
        assert_eq!(grants.len(), 4);
    }

    #[test]
    fn input_binned_same_channel_inputs_serialize() {
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        // Locals 0, 4, 8, 12 all bind to channel 0 towards layer 3.
        let grants = sw.arbitrate(&[req(0, 60), req(4, 61), req(8, 62), req(12, 63)]);
        assert_eq!(grants.len(), 1);
    }

    /// §III-B1: back-propagated local updates guarantee no starvation —
    /// under persistent full contention every requesting input
    /// eventually wins.
    #[test]
    fn no_starvation_under_persistent_contention() {
        for scheme in [
            ArbitrationScheme::LayerToLayerLrg,
            ArbitrationScheme::WeightedLrg,
            ArbitrationScheme::class_based(),
        ] {
            let mut sw = one_channel_switch(scheme);
            let contenders: Vec<usize> = (0..64).collect();
            let mut wins = [0usize; 64];
            for _ in 0..64 * 20 {
                let w = arbitration_winner(&mut sw, &contenders, 63);
                wins[w] += 1;
            }
            for (i, &w) in wins.iter().enumerate() {
                assert!(w > 0, "{}: input {i} starved", scheme.label());
            }
        }
    }

    #[test]
    fn grant_counters_track_paths() {
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        // One local connection on layer 0, one inter-layer 0 -> 3.
        assert_eq!(sw.arbitrate(&[req(0, 5)]).len(), 1);
        assert_eq!(sw.arbitrate(&[req(1, 63)]).len(), 1);
        assert_eq!(sw.local_grant_count(LayerId::new(0)), 1);
        // Input 1 is bound to channel 1 (local index 1 mod 4).
        assert_eq!(
            sw.channel_grant_count(LayerId::new(0), LayerId::new(3), ChannelId::new(1)),
            1
        );
        assert!((sw.inter_layer_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inter_layer_fraction_matches_uniform_expectation() {
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..2_000 {
            let mut requests = Vec::new();
            for i in 0..64 {
                requests.push(Request::new(InputId::new(i), OutputId::new(next() % 64)));
            }
            let grants = sw.arbitrate(&requests);
            for grant in grants {
                sw.release(grant.input);
            }
        }
        // Uniform destinations over 4 layers: 3/4 of grants cross.
        let fraction = sw.inter_layer_fraction();
        assert!((0.70..0.80).contains(&fraction), "fraction {fraction}");
    }

    #[test]
    fn clrg_class_introspection() {
        let mut sw = one_channel_switch(ArbitrationScheme::class_based());
        assert_eq!(sw.clrg_class(OutputId::new(63), InputId::new(20)), Some(0));
        let _ = arbitration_winner(&mut sw, &[20], 63);
        assert_eq!(sw.clrg_class(OutputId::new(63), InputId::new(20)), Some(1));
        // A different output's sub-block is untouched.
        assert_eq!(sw.clrg_class(OutputId::new(62), InputId::new(20)), Some(0));
    }

    /// Long random runs with per-decision circuit validation: the
    /// behavioural sub-block and the Fig. 7 signal model never diverge.
    #[test]
    fn signal_validation_holds_under_random_traffic() {
        for scheme in [
            ArbitrationScheme::LayerToLayerLrg,
            ArbitrationScheme::WeightedLrg,
            ArbitrationScheme::class_based(),
        ] {
            let cfg = HiRiseConfig::builder(64, 4)
                .channel_multiplicity(4)
                .scheme(scheme)
                .build()
                .unwrap();
            let mut sw = HiRiseSwitch::new(&cfg);
            sw.enable_signal_validation();
            // Deterministic pseudo-random request stream.
            let mut state = 0x12345u64;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for _ in 0..500 {
                let mut requests = Vec::new();
                for i in 0..64 {
                    if next() % 3 != 0 {
                        requests.push(Request::new(InputId::new(i), OutputId::new(next() % 64)));
                    }
                }
                let grants = sw.arbitrate(&requests);
                for grant in grants {
                    if next() % 2 == 0 {
                        sw.release(grant.input);
                    }
                }
                // Periodically release everything to avoid deadlocking
                // the request stream.
                if next() % 7 == 0 {
                    for i in 0..64 {
                        sw.release(InputId::new(i));
                    }
                }
            }
        }
    }

    #[test]
    fn baseline_switch_has_no_clrg_state() {
        let sw = one_channel_switch(ArbitrationScheme::LayerToLayerLrg);
        assert_eq!(sw.clrg_class(OutputId::new(63), InputId::new(20)), None);
    }

    #[test]
    fn seeding_a_round_robin_switch_is_a_typed_error() {
        use crate::config::LocalArbiterKind;
        let cfg = HiRiseConfig::builder(64, 4)
            .local_arbiter(LocalArbiterKind::RoundRobin)
            .build()
            .unwrap();
        let mut sw = HiRiseSwitch::new(&cfg);
        let order: Vec<usize> = (0..16).collect();
        let err = sw
            .seed_local_channel_priority(
                LayerId::new(0),
                LayerId::new(3),
                ChannelId::new(0),
                &order,
            )
            .unwrap_err();
        assert_eq!(err, ConfigError::SeedingRequiresLrg);
        let err = sw
            .seed_local_intermediate_priority(OutputId::new(5), &order)
            .unwrap_err();
        assert_eq!(err, ConfigError::SeedingRequiresLrg);
    }

    #[test]
    fn dead_l2lc_rebins_input_binned_traffic() {
        use crate::fault::{Fault, FaultSite};
        let cfg = HiRiseConfig::paper_optimal(); // input-binned, c = 4
        let mut sw = HiRiseSwitch::new(&cfg);
        assert_eq!(Fabric::tsv_bundle_count(&sw), 4 * 3 * 4);
        // Input 0 (layer 0, local 0) binds to channel 0 towards layer 3.
        // Kill that bundle: (src 0 * 3 + compressed_dst 2) * 4 + k 0.
        sw.inject_fault(Fault::dead(FaultSite::TsvBundle { index: 2 * 4 }))
            .unwrap();
        // The request still connects, re-binned onto channel 1.
        let grants = sw.arbitrate(&[req(0, 63)]);
        assert_eq!(grants.len(), 1);
        assert!(!sw.channel_busy(LayerId::new(0), LayerId::new(3), ChannelId::new(0)));
        assert!(sw.channel_busy(LayerId::new(0), LayerId::new(3), ChannelId::new(1)));
    }

    #[test]
    fn all_channels_dead_blocks_the_pair_gracefully() {
        use crate::fault::{Fault, FaultSite};
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        for k in 0..4 {
            sw.inject_fault(Fault::dead(FaultSite::TsvBundle { index: 2 * 4 + k }))
                .unwrap();
        }
        // Layer 0 -> layer 3 has no live channel left: the request
        // simply loses this cycle instead of panicking or deadlocking.
        assert!(sw.arbitrate(&[req(0, 63)]).is_empty());
        // Other layer pairs are untouched.
        assert_eq!(sw.arbitrate(&[req(0, 16)]).len(), 1);
        assert_eq!(sw.fault_log().unwrap().total(), 4);
    }

    #[test]
    fn dead_l2lc_is_skipped_by_priority_allocation() {
        use crate::fault::{Fault, FaultSite};
        let cfg = HiRiseConfig::builder(64, 4)
            .channel_multiplicity(4)
            .allocation(ChannelAllocation::PriorityBased)
            .build()
            .unwrap();
        let mut sw = HiRiseSwitch::new(&cfg);
        sw.inject_fault(Fault::dead(FaultSite::TsvBundle { index: 2 * 4 }))
            .unwrap();
        // Four contenders for layer 0 -> 3 but only three live channels:
        // exactly three connect, none over the dead channel.
        let grants = sw.arbitrate(&[req(0, 60), req(4, 61), req(8, 62), req(12, 63)]);
        assert_eq!(grants.len(), 3);
        assert!(!sw.channel_busy(LayerId::new(0), LayerId::new(3), ChannelId::new(0)));
    }

    /// The word kernel must twin the scalar kernel bit-for-bit: same
    /// grant sequences under random traffic across every scheme and
    /// channel-allocation policy, with connections held and released at
    /// random so channel-busy and pool serialization paths all fire.
    #[test]
    fn word_kernel_twins_scalar_kernel() {
        use crate::kernel::ArbiterKernel;
        for scheme in [
            ArbitrationScheme::LayerToLayerLrg,
            ArbitrationScheme::WeightedLrg,
            ArbitrationScheme::class_based(),
        ] {
            for allocation in [
                ChannelAllocation::InputBinned,
                ChannelAllocation::OutputBinned,
                ChannelAllocation::PriorityBased,
            ] {
                let cfg = HiRiseConfig::builder(64, 4)
                    .channel_multiplicity(4)
                    .scheme(scheme)
                    .allocation(allocation)
                    .build()
                    .unwrap();
                let mut scalar = HiRiseSwitch::with_kernel(&cfg, ArbiterKernel::Scalar);
                let mut word = HiRiseSwitch::with_kernel(&cfg, ArbiterKernel::Word);
                assert_eq!(scalar.kernel(), ArbiterKernel::Scalar);
                assert_eq!(word.kernel(), ArbiterKernel::Word);
                let mut state = 0xFEED_5EEDu64;
                let mut next = move || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as usize
                };
                for cycle in 0..1500 {
                    let mut requests = Vec::new();
                    for i in 0..64 {
                        if next() % 3 != 0 {
                            requests
                                .push(Request::new(InputId::new(i), OutputId::new(next() % 64)));
                        }
                    }
                    let a = scalar.arbitrate(&requests);
                    let b = word.arbitrate(&requests);
                    assert_eq!(
                        a,
                        b,
                        "{} / {allocation:?} diverged at cycle {cycle}",
                        scheme.label()
                    );
                    for grant in a {
                        if next() % 3 == 0 {
                            scalar.release(grant.input);
                            word.release(grant.input);
                        }
                    }
                }
                assert_eq!(
                    scalar.inter_layer_fraction(),
                    word.inter_layer_fraction(),
                    "grant counters must match too"
                );
            }
        }
    }

    #[test]
    fn word_kernel_matches_scalar_under_faults() {
        use crate::fault::{Fault, FaultSite};
        use crate::kernel::ArbiterKernel;
        let cfg = HiRiseConfig::paper_optimal();
        let mut scalar = HiRiseSwitch::with_kernel(&cfg, ArbiterKernel::Scalar);
        let mut word = HiRiseSwitch::with_kernel(&cfg, ArbiterKernel::Word);
        for sw in [&mut scalar, &mut word] {
            sw.inject_fault(Fault::dead(FaultSite::TsvBundle { index: 2 * 4 }))
                .unwrap();
            sw.inject_fault(Fault::dead(FaultSite::Port { input: 7 }))
                .unwrap();
            sw.inject_fault(Fault::dead(FaultSite::Crosspoint {
                input: 1,
                output: 63,
            }))
            .unwrap();
        }
        let mut state = 0xC0FF_EE00u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for cycle in 0..1000 {
            let mut requests = Vec::new();
            for i in 0..64 {
                if next() % 2 == 0 {
                    requests.push(Request::new(InputId::new(i), OutputId::new(next() % 64)));
                }
            }
            let a = scalar.arbitrate(&requests);
            let b = word.arbitrate(&requests);
            assert_eq!(a, b, "faulted twin diverged at cycle {cycle}");
            for grant in a {
                if next() % 3 == 0 {
                    scalar.release(grant.input);
                    word.release(grant.input);
                }
            }
        }
    }

    #[test]
    fn oversized_subblock_falls_back_to_scalar() {
        // 2 layers x 64 channels -> sub-block of 65 slots: the word
        // kernel cannot carry the slot set in one u64, so the switch
        // must report (and run) the scalar pipeline.
        let cfg = HiRiseConfig::builder(256, 2)
            .channel_multiplicity(64)
            .build()
            .unwrap();
        let sw = HiRiseSwitch::new(&cfg);
        assert_eq!(sw.kernel(), crate::kernel::ArbiterKernel::Scalar);
    }

    #[test]
    fn dead_port_and_crosspoint_are_masked() {
        use crate::fault::{Fault, FaultSite};
        let cfg = HiRiseConfig::paper_optimal();
        let mut sw = HiRiseSwitch::new(&cfg);
        sw.inject_fault(Fault::dead(FaultSite::Port { input: 0 }))
            .unwrap();
        sw.inject_fault(Fault::dead(FaultSite::Crosspoint {
            input: 1,
            output: 63,
        }))
        .unwrap();
        assert!(sw.arbitrate(&[req(0, 63)]).is_empty());
        assert!(sw.arbitrate(&[req(1, 63)]).is_empty());
        // Input 1's other outputs still work.
        assert_eq!(sw.arbitrate(&[req(1, 62)]).len(), 1);
    }
}
