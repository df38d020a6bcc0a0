//! The flat 2D Swizzle-Switch baseline (§II-A).
//!
//! An `N x N` matrix crossbar with arbitration embedded in the
//! cross-points. Every output column holds an `N`-bit LRG priority vector
//! and resolves its requests in a single cycle; winners hold the
//! connection until released. This is the design the paper compares
//! Hi-Rise against throughout §VI.
//!
//! As an extension (following the Swizzle-Switch line the paper builds
//! on — Satpathy et al., DAC 2012, which adds "multiple arbitration
//! schemes and quality of service" to the same fabric), the switch
//! optionally supports **static QoS classes**: each input carries a
//! fixed priority class, higher classes win outright, and LRG breaks
//! ties within a class — the same priority-select-mux structure CLRG
//! uses with counters (Fig. 7), with static class inputs instead.

use crate::arbiter::matrix::LrgBank;
use crate::bits::BitSet;
use crate::error::ConfigError;
use crate::fabric::{Fabric, Grant, Request};
use crate::fault::{Fault, FaultLog, FaultState, TsvMap};
use crate::ids::{InputId, OutputId};
use crate::kernel::{ArbiterKernel, KernelSel};

/// A flat 2D Swizzle-Switch with per-output LRG arbitration and
/// optional static QoS classes.
#[derive(Clone, Debug)]
pub struct Switch2d {
    /// Every output column's LRG ranks, as rows of one bank.
    arbiters: LrgBank,
    /// Per-input connected output.
    connections: Vec<Option<OutputId>>,
    /// Per-output owning input.
    owners: Vec<Option<InputId>>,
    /// Static QoS class per input (0 = highest); `None` disables QoS.
    qos: Option<Vec<u8>>,
    radix: usize,
    /// Resolved arbitration kernel, fixed at construction.
    kernel: KernelSel,
    // Scratch reused across arbitration cycles to avoid reallocations.
    requestors: Vec<Vec<usize>>,
    seen: Vec<bool>,
    mask: BitSet,
    /// Word-kernel scratch: per-output request masks, `W` words each.
    out_reqs: Vec<u64>,
    /// Word-kernel scratch: bitmap over outputs with admitted requests.
    touched: Vec<u64>,
    /// Fault-injection state; `None` until faults are enabled. Boxed:
    /// it is large and cold, and most switches never enable it.
    faults: Option<Box<FaultState>>,
}

impl Switch2d {
    /// Creates a 2D switch of the given radix with the default
    /// (word-parallel) arbitration kernel.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    pub fn new(radix: usize) -> Self {
        Self::with_kernel(radix, ArbiterKernel::default())
    }

    /// Creates a 2D switch with an explicit arbitration kernel. Both
    /// kernels grant identically; `Scalar` keeps the original
    /// per-request pipeline as a differential baseline.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    pub fn with_kernel(radix: usize, kernel: ArbiterKernel) -> Self {
        assert!(radix > 0, "radix must be at least 1");
        let kernel = KernelSel::resolve(kernel, radix);
        let words = kernel.words().unwrap_or(0);
        Self {
            arbiters: LrgBank::new(radix, radix),
            connections: vec![None; radix],
            owners: vec![None; radix],
            qos: None,
            radix,
            kernel,
            requestors: vec![Vec::new(); radix],
            seen: vec![false; radix],
            mask: BitSet::new(radix),
            out_reqs: vec![0; radix * words],
            touched: vec![0; if words > 0 { radix.div_ceil(64) } else { 0 }],
            faults: None,
        }
    }

    /// The arbitration kernel in effect (accounting for geometry
    /// fallbacks and the QoS scalar requirement).
    pub fn kernel(&self) -> ArbiterKernel {
        self.kernel.effective()
    }

    /// Installs fault state with a fabric-specific TSV geometry; the
    /// folded baseline uses this to route its bundle faults through the
    /// shared 2D datapath.
    pub(crate) fn enable_faults_mapped(&mut self, tsv_count: usize, map: TsvMap, seed: u64) {
        self.faults = Some(Box::new(FaultState::new(self.radix, tsv_count, map, seed)));
    }

    pub(crate) fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    pub(crate) fn inject_fault_inner(&mut self, fault: Fault) -> Result<(), ConfigError> {
        self.faults
            .as_mut()
            .expect("fault state enabled before injection")
            .inject(fault)
    }

    /// Enables static QoS: `classes[i]` is input `i`'s priority class
    /// (0 = highest). Higher-class requests win outright; LRG breaks
    /// ties within a class. Extension beyond the paper, following
    /// Satpathy et al. (DAC 2012).
    ///
    /// QoS filtering runs on the scalar pipeline, so enabling it pins
    /// the instance to the scalar kernel.
    ///
    /// # Panics
    ///
    /// Panics if `classes` does not have one entry per input.
    pub fn with_qos_classes(mut self, classes: &[u8]) -> Self {
        assert_eq!(classes.len(), self.radix, "one class per input required");
        self.qos = Some(classes.to_vec());
        self.kernel = KernelSel::Scalar;
        self
    }

    /// Seeds the LRG priority order of one output column, highest
    /// priority first. Intended for reproducing the paper's worked
    /// examples, which start from specific LRG states.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or `order` is not a permutation
    /// of `0..radix`.
    pub fn seed_output_priority(&mut self, output: OutputId, order: &[usize]) {
        assert!(output.index() < self.radix, "output {output} out of range");
        self.arbiters.seed(output.index(), order);
    }

    /// The input currently owning `output`, if any.
    pub fn owner(&self, output: OutputId) -> Option<InputId> {
        self.owners[output.index()]
    }

    /// Shared admission filter: duplicate, busy-input, and faulted
    /// requests are dropped; requests to busy outputs lose silently.
    /// Returns `true` when the request should compete for its output.
    #[inline]
    fn admit(&mut self, input: usize, output: usize) -> bool {
        assert!(input < self.radix, "input {input} out of range");
        assert!(output < self.radix, "output {output} out of range");
        if self.seen[input] || self.connections[input].is_some() {
            return false; // duplicate or already transferring
        }
        if let Some(faults) = &self.faults {
            if faults.input_down(input) || faults.xpoint_down(input, output) {
                return false; // masked out: the request loses silently
            }
        }
        self.seen[input] = true;
        // Output busy: request simply loses this cycle.
        self.owners[output].is_none()
    }

    /// Commits `winner` on `output`: LRG update, connection bookkeeping,
    /// and the grant record. Identical for both kernels.
    #[inline]
    fn commit(&mut self, winner: usize, output: usize, grants: &mut Vec<Grant>) {
        self.arbiters.update(output, winner);
        self.connections[winner] = Some(OutputId::new(output));
        self.owners[output] = Some(InputId::new(winner));
        grants.push(Grant {
            input: InputId::new(winner),
            output: OutputId::new(output),
        });
    }

    /// The original per-request scalar pipeline (also the QoS path).
    fn arbitrate_scalar(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        for list in &mut self.requestors {
            list.clear();
        }
        self.seen.fill(false);
        for request in requests {
            let input = request.input.index();
            let output = request.output.index();
            if self.admit(input, output) {
                self.requestors[output].push(input);
            }
        }

        for output in 0..self.radix {
            let list = &self.requestors[output];
            if list.is_empty() {
                continue;
            }
            // With QoS enabled, only the best (lowest) class competes;
            // LRG decides within it.
            self.mask.clear();
            match &self.qos {
                None => {
                    for &input in list {
                        self.mask.insert(input);
                    }
                }
                Some(classes) => {
                    let best = list
                        .iter()
                        .map(|&i| classes[i])
                        .min()
                        .expect("non-empty request set");
                    for &input in list {
                        if classes[input] == best {
                            self.mask.insert(input);
                        }
                    }
                }
            }
            let winner = self
                .arbiters
                .grant_mask(output, &self.mask)
                .expect("non-empty request set always has an LRG winner");
            self.commit(winner, output, grants);
        }
    }

    /// The word-parallel pipeline: requests bin into per-output `u64`
    /// masks, a bitmap tracks the touched outputs, and each touched
    /// output grants straight from its mask words. Outputs are visited
    /// in ascending order, exactly like the scalar loop, so the grant
    /// sequence (and therefore all LRG state evolution) is identical.
    fn arbitrate_words<const W: usize>(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        self.seen.fill(false);
        for request in requests {
            let input = request.input.index();
            let output = request.output.index();
            if self.admit(input, output) {
                self.out_reqs[output * W + input / 64] |= 1u64 << (input % 64);
                self.touched[output / 64] |= 1u64 << (output % 64);
            }
        }

        for touched_word in 0..self.touched.len() {
            let mut bits = self.touched[touched_word];
            self.touched[touched_word] = 0;
            while bits != 0 {
                let output = touched_word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let base = output * W;
                let mask_words = &mut self.out_reqs[base..base + W];
                let mask: [u64; W] = (&*mask_words).try_into().expect("exact W-word slice");
                mask_words.fill(0);
                let winner = self
                    .arbiters
                    .grant_words::<W>(output, &mask)
                    .expect("non-empty request set always has an LRG winner");
                self.commit(winner, output, grants);
            }
        }
    }
}

impl Fabric for Switch2d {
    fn radix(&self) -> usize {
        self.radix
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
        match self.kernel {
            KernelSel::Scalar => self.arbitrate_scalar(requests, grants),
            KernelSel::Word1 => self.arbitrate_words::<1>(requests, grants),
            KernelSel::Word2 => self.arbitrate_words::<2>(requests, grants),
            KernelSel::Word4 => self.arbitrate_words::<4>(requests, grants),
        }
    }

    fn release(&mut self, input: InputId) {
        assert!(input.index() < self.radix, "input {input} out of range");
        if let Some(output) = self.connections[input.index()].take() {
            self.owners[output.index()] = None;
        }
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        self.connections[input.index()]
    }

    fn output_busy(&self, output: OutputId) -> bool {
        self.owners[output.index()].is_some()
    }

    fn enable_faults(&mut self, seed: u64) -> Result<(), ConfigError> {
        self.enable_faults_mapped(0, TsvMap::Direct, seed);
        Ok(())
    }

    fn inject_fault(&mut self, fault: Fault) -> Result<(), ConfigError> {
        if self.faults.is_none() {
            Fabric::enable_faults(self, 0)?;
        }
        self.inject_fault_inner(fault)
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
    use crate::fault::FaultSite;

    fn req(i: usize, o: usize) -> Request {
        Request::new(InputId::new(i), OutputId::new(o))
    }

    #[test]
    fn grants_distinct_outputs_in_parallel() {
        let mut sw = Switch2d::new(8);
        let grants = sw.arbitrate(&[req(0, 3), req(1, 5), req(2, 7)]);
        assert_eq!(grants.len(), 3);
        assert_eq!(sw.active_connections(), 3);
        assert!(sw.output_busy(OutputId::new(3)));
    }

    #[test]
    fn contention_resolved_by_lrg() {
        let mut sw = Switch2d::new(4);
        let grants = sw.arbitrate(&[req(0, 2), req(1, 2), req(3, 2)]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].input, InputId::new(0)); // default order favours 0
        sw.release(InputId::new(0));
        // After the win, input 0 has dropped to the back of the LRG order.
        let grants = sw.arbitrate(&[req(0, 2), req(1, 2), req(3, 2)]);
        assert_eq!(grants[0].input, InputId::new(1));
    }

    #[test]
    fn busy_output_rejects_requests() {
        let mut sw = Switch2d::new(4);
        assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1);
        assert!(sw.arbitrate(&[req(2, 1)]).is_empty());
        sw.release(InputId::new(0));
        assert_eq!(sw.arbitrate(&[req(2, 1)]).len(), 1);
    }

    #[test]
    fn busy_input_requests_are_ignored() {
        let mut sw = Switch2d::new(4);
        assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1);
        // Input 0 is mid-transfer; its stray request must be ignored.
        assert!(sw.arbitrate(&[req(0, 2)]).is_empty());
        assert_eq!(sw.connection(InputId::new(0)), Some(OutputId::new(1)));
    }

    #[test]
    fn lrg_serves_all_contenders_round_robin_fairly() {
        let mut sw = Switch2d::new(4);
        let mut wins = [0usize; 4];
        for _ in 0..40 {
            let grants = sw.arbitrate(&[req(0, 0), req(1, 0), req(2, 0), req(3, 0)]);
            let winner = grants[0].input;
            wins[winner.index()] += 1;
            sw.release(winner);
        }
        assert_eq!(wins, [10, 10, 10, 10]);
    }

    #[test]
    fn seeded_priority_orders_first_round() {
        let mut sw = Switch2d::new(4);
        sw.seed_output_priority(OutputId::new(0), &[2, 3, 1, 0]);
        let grants = sw.arbitrate(&[req(0, 0), req(1, 0), req(2, 0), req(3, 0)]);
        assert_eq!(grants[0].input, InputId::new(2));
    }

    #[test]
    fn release_is_idempotent() {
        let mut sw = Switch2d::new(4);
        sw.arbitrate(&[req(0, 1)]);
        sw.release(InputId::new(0));
        sw.release(InputId::new(0));
        assert_eq!(sw.active_connections(), 0);
    }

    #[test]
    fn qos_classes_override_lrg() {
        let mut classes = vec![1u8; 4];
        classes[2] = 0; // input 2 is high priority
        let mut sw = Switch2d::new(4).with_qos_classes(&classes);
        // Despite LRG favouring input 0, input 2 wins on class.
        for _ in 0..5 {
            let grants = sw.arbitrate(&[req(0, 1), req(2, 1), req(3, 1)]);
            assert_eq!(grants[0].input, InputId::new(2));
            sw.release(InputId::new(2));
        }
    }

    #[test]
    fn qos_ties_fall_back_to_lrg() {
        let mut sw = Switch2d::new(4).with_qos_classes(&[0, 0, 1, 1]);
        let mut sequence = Vec::new();
        for _ in 0..4 {
            let grants = sw.arbitrate(&[req(0, 2), req(1, 2)]);
            sequence.push(grants[0].input.index());
            sw.release(grants[0].input);
        }
        assert_eq!(sequence, vec![0, 1, 0, 1]);
    }

    #[test]
    fn qos_low_class_served_when_alone() {
        let mut sw = Switch2d::new(4).with_qos_classes(&[0, 0, 0, 3]);
        let grants = sw.arbitrate(&[req(3, 0)]);
        assert_eq!(grants.len(), 1);
    }

    #[test]
    #[should_panic(expected = "one class per input")]
    fn qos_class_length_is_validated() {
        let _ = Switch2d::new(4).with_qos_classes(&[0, 1]);
    }

    #[test]
    fn paper_2d_reference_sequence() {
        // §III-B2: "In a 2D flat switch with LRG the output pattern would
        // be {20, 15, 11, 7, 3, 20, 15 ...}" for inputs {3,7,11,15,20} all
        // requesting output 63 — given an initial LRG order that ranks 20
        // above 15 above 11 above 7 above 3.
        let mut sw = Switch2d::new(64);
        let mut order: Vec<usize> = vec![20, 15, 11, 7, 3];
        order.extend((0..64).filter(|i| ![20, 15, 11, 7, 3].contains(i)));
        sw.seed_output_priority(OutputId::new(63), &order);

        let contenders = [3, 7, 11, 15, 20];
        let mut sequence = Vec::new();
        for _ in 0..10 {
            let requests: Vec<Request> = contenders.iter().map(|&i| req(i, 63)).collect();
            let grants = sw.arbitrate(&requests);
            let winner = grants[0].input;
            sequence.push(winner.index());
            sw.release(winner);
        }
        assert_eq!(sequence, vec![20, 15, 11, 7, 3, 20, 15, 11, 7, 3]);
    }

    #[test]
    fn dead_port_is_masked_out_of_arbitration() {
        let mut sw = Switch2d::new(4);
        sw.inject_fault(Fault::dead(FaultSite::Port { input: 1 }))
            .unwrap();
        // Input 1 can never win; input 2 takes the output unopposed.
        let grants = sw.arbitrate(&[req(1, 3), req(2, 3)]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].input, InputId::new(2));
        assert_eq!(sw.fault_log().unwrap().total(), 1);
    }

    #[test]
    fn dead_crosspoint_blocks_only_its_path() {
        let mut sw = Switch2d::new(4);
        sw.inject_fault(Fault::dead(FaultSite::Crosspoint {
            input: 0,
            output: 2,
        }))
        .unwrap();
        assert!(sw.arbitrate(&[req(0, 2)]).is_empty());
        // The same input reaches every other output.
        assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1);
    }

    #[test]
    fn flat_switch_has_no_tsv_bundles() {
        let mut sw = Switch2d::new(4);
        assert_eq!(sw.tsv_bundle_count(), 0);
        let site = FaultSite::TsvBundle { index: 0 };
        assert_eq!(
            sw.inject_fault(Fault::dead(site)),
            Err(ConfigError::FaultSiteOutOfRange { site })
        );
    }

    /// Scalar and word kernels must evolve identically: randomized
    /// request/release streams at several radices, grant vectors
    /// compared every cycle.
    #[test]
    fn word_kernel_twins_scalar_kernel() {
        use crate::rng::{Rng, SeedableRng, StdRng};

        for radix in [16usize, 32, 64] {
            let mut word = Switch2d::with_kernel(radix, ArbiterKernel::Word);
            let mut scalar = Switch2d::with_kernel(radix, ArbiterKernel::Scalar);
            assert_eq!(word.kernel(), ArbiterKernel::Word);
            assert_eq!(scalar.kernel(), ArbiterKernel::Scalar);
            let mut rng = StdRng::seed_from_u64(0x2D2D_0000 + radix as u64);
            let mut requests = Vec::new();
            let mut held = vec![false; radix];
            for cycle in 0..2_000 {
                for (input, holding) in held.iter_mut().enumerate() {
                    if *holding && rng.gen_bool(0.3) {
                        word.release(InputId::new(input));
                        scalar.release(InputId::new(input));
                        *holding = false;
                    }
                }
                requests.clear();
                for input in 0..radix {
                    if rng.gen_bool(0.3) {
                        requests.push(req(input, rng.gen_range(0..radix)));
                    }
                }
                let a = word.arbitrate(&requests);
                let b = scalar.arbitrate(&requests);
                assert_eq!(a, b, "radix {radix} cycle {cycle}");
                for grant in &a {
                    held[grant.input.index()] = true;
                }
            }
        }
    }

    #[test]
    fn in_flight_connection_survives_a_late_fault() {
        let mut sw = Switch2d::new(4);
        assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1);
        sw.inject_fault(Fault::dead(FaultSite::Port { input: 0 }))
            .unwrap();
        // The held connection is untouched; only new arbitration fails.
        assert_eq!(sw.connection(InputId::new(0)), Some(OutputId::new(1)));
        sw.release(InputId::new(0));
        assert!(sw.arbitrate(&[req(0, 1)]).is_empty());
    }
}
