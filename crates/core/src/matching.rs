//! Iterative-matching crossbar schedulers: iSLIP, ESLIP, and wavefront.
//!
//! These are the canonical multi-iteration baselines the paper's
//! single-cycle claim is measured against (§VII contrasts CLRG with
//! "round-robin based allocators such as iSLIP"). *The Tiny Tera*
//! (PAPERS.md) defines the family:
//!
//! * **iSLIP** (McKeown): per-output *grant* pointers and per-input
//!   *accept* pointers, both rotating round-robin. Each iteration runs a
//!   grant phase (every unmatched output offers its rotating-priority
//!   requester) then an accept phase (every input accepts one offer).
//!   Pointers advance past the winner **only on an accepted grant, and
//!   only in the first iteration** — the update discipline that makes
//!   the pointers desynchronise and reach 100% throughput under
//!   saturated uniform traffic.
//! * **ESLIP**: the Tiny Tera's combined unicast/multicast scheduler.
//!   [`Request`] is unicast, so this models the unicast specialisation:
//!   the same grant/accept engine, but pointers advance on accepted
//!   grants in *every* iteration, trading some desynchronisation for
//!   faster pointer movement under mixed traffic.
//! * **Wavefront**: the wrapped wavefront allocator (Tamir & Chi). The
//!   request matrix is swept one wrapped diagonal at a time starting
//!   from a rotating priority diagonal; every cell on a diagonal is
//!   conflict-free by construction, so a diagonal commits in parallel
//!   and the full sweep yields a maximal matching.
//!
//! # Iteration accounting
//!
//! All `k` iterations complete within one [`Fabric::arbitrate`] call —
//! the *single-cycle-idealised* accounting EXPERIMENTS.md describes. In
//! hardware a k-iteration scheduler needs k sub-cycles (or a k-times
//! slower clock); the face-off experiment charges that cost analytically
//! rather than in the cycle loop, so latency numbers here are a lower
//! bound for the iterative schedulers.
//!
//! # VOQ extension to the fabric contract
//!
//! [`Fabric::arbitrate`] documents at most one request per input. A
//! matching scheduler only becomes interesting when an input can offer
//! several virtual output queues at once, so [`MatchingSwitch`] extends
//! the contract: multiple requests per input are accepted (at most one
//! is granted per cycle), and duplicate `(input, output)` pairs
//! collapse. Callers that follow the stricter one-request contract (the
//! differential harness, the network simulator) remain fully valid.

use crate::arbiter::round_robin::RoundRobinArbiter;
use crate::error::ConfigError;
use crate::fabric::{Fabric, Grant, Request};
use crate::fault::{Fault, FaultLog, FaultState, TsvMap};
use crate::ids::{InputId, OutputId};
use crate::kernel::{ArbiterKernel, KernelSel};

/// Which matching policy a [`MatchingSwitch`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchPolicy {
    /// iSLIP with the given iteration count: pointers advance only on
    /// first-iteration accepted grants.
    Islip {
        /// Grant/accept iterations per arbitration cycle (≥ 1).
        iterations: usize,
    },
    /// ESLIP (unicast specialisation) with the given iteration count:
    /// pointers advance on accepted grants in every iteration.
    Eslip {
        /// Grant/accept iterations per arbitration cycle (≥ 1).
        iterations: usize,
    },
    /// Wrapped wavefront allocation with a rotating priority diagonal.
    Wavefront,
}

impl MatchPolicy {
    /// Grant/accept iterations per cycle (1 for wavefront, whose single
    /// sweep is already maximal).
    pub fn iterations(&self) -> usize {
        match *self {
            Self::Islip { iterations } | Self::Eslip { iterations } => iterations,
            Self::Wavefront => 1,
        }
    }
}

/// An `N × N` input-queued crossbar scheduler running an iterative
/// matching policy ([`MatchPolicy`]), with held connections and fault
/// injection matching the Swizzle fabrics.
///
/// Unlike [`Switch2d`](crate::Switch2d), inputs may present several
/// requests per cycle (one per virtual output queue); see the module
/// docs for the contract extension.
#[derive(Clone, Debug)]
pub struct MatchingSwitch {
    policy: MatchPolicy,
    radix: usize,
    /// Resolved arbitration kernel, fixed at construction.
    kernel: KernelSel,
    /// Per-output grant pointers (iSLIP/ESLIP).
    grant_ptrs: Vec<RoundRobinArbiter>,
    /// Per-input accept pointers (iSLIP/ESLIP).
    accept_ptrs: Vec<RoundRobinArbiter>,
    /// Rotating priority diagonal (wavefront); advances one position per
    /// arbitration cycle that admits at least one request.
    wave_diag: usize,
    /// Per-input connected output.
    connections: Vec<Option<OutputId>>,
    /// Per-output owning input.
    owners: Vec<Option<InputId>>,
    // Scalar scratch, reused across cycles.
    out_lists: Vec<Vec<usize>>,
    grant_to: Vec<Vec<usize>>,
    cand: Vec<usize>,
    matched_in: Vec<bool>,
    matched_out: Vec<bool>,
    /// Wavefront-scalar request matrix, row-major `radix × radix`.
    req_matrix: Vec<bool>,
    row_any: Vec<bool>,
    // Word-kernel scratch: per-port masks, `W` words each.
    out_reqs: Vec<u64>,
    in_grants: Vec<u64>,
    in_reqs: Vec<u64>,
    matched_in_w: Vec<u64>,
    matched_out_w: Vec<u64>,
    touched_out: Vec<u64>,
    touched_in: Vec<u64>,
    /// Fault-injection state; `None` until faults are enabled. Boxed:
    /// it is large and cold, and most switches never enable it.
    faults: Option<Box<FaultState>>,
}

impl MatchingSwitch {
    /// Creates a matching switch with the default (word-parallel)
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero or the policy's iteration count is.
    pub fn new(radix: usize, policy: MatchPolicy) -> Self {
        Self::with_kernel(radix, policy, ArbiterKernel::default())
    }

    /// Creates a matching switch with an explicit arbitration kernel.
    /// Both kernels grant identically; `Scalar` keeps the per-request
    /// list pipeline as a differential baseline.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero or the policy's iteration count is.
    pub fn with_kernel(radix: usize, policy: MatchPolicy, kernel: ArbiterKernel) -> Self {
        assert!(radix > 0, "radix must be at least 1");
        assert!(
            policy.iterations() > 0,
            "iteration count must be at least 1"
        );
        let kernel = KernelSel::resolve(kernel, radix);
        let words = kernel.words().unwrap_or(0);
        let wavefront = matches!(policy, MatchPolicy::Wavefront);
        Self {
            policy,
            radix,
            kernel,
            grant_ptrs: (0..radix).map(|_| RoundRobinArbiter::new(radix)).collect(),
            accept_ptrs: (0..radix).map(|_| RoundRobinArbiter::new(radix)).collect(),
            wave_diag: 0,
            connections: vec![None; radix],
            owners: vec![None; radix],
            out_lists: vec![Vec::new(); radix],
            grant_to: vec![Vec::new(); radix],
            cand: Vec::new(),
            matched_in: vec![false; radix],
            matched_out: vec![false; radix],
            req_matrix: vec![
                false;
                if wavefront && words == 0 {
                    radix * radix
                } else {
                    0
                }
            ],
            row_any: vec![false; radix],
            out_reqs: vec![0; radix * words],
            in_grants: vec![0; radix * words],
            in_reqs: vec![0; radix * words],
            matched_in_w: vec![0; words],
            matched_out_w: vec![0; words],
            touched_out: vec![0; words],
            touched_in: vec![0; words],
            faults: None,
        }
    }

    /// iSLIP with `iterations` grant/accept rounds per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `radix` or `iterations` is zero.
    pub fn islip(radix: usize, iterations: usize) -> Self {
        Self::new(radix, MatchPolicy::Islip { iterations })
    }

    /// ESLIP (unicast specialisation) with `iterations` rounds per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `radix` or `iterations` is zero.
    pub fn eslip(radix: usize, iterations: usize) -> Self {
        Self::new(radix, MatchPolicy::Eslip { iterations })
    }

    /// Wrapped wavefront allocator with a rotating priority diagonal.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    pub fn wavefront(radix: usize) -> Self {
        Self::new(radix, MatchPolicy::Wavefront)
    }

    /// The matching policy in effect.
    pub fn policy(&self) -> MatchPolicy {
        self.policy
    }

    /// The arbitration kernel in effect (accounting for geometry
    /// fallbacks).
    pub fn kernel(&self) -> ArbiterKernel {
        self.kernel.effective()
    }

    /// The grant pointer of `output` (iSLIP/ESLIP state; wavefront
    /// instances hold the pointers but never consult them). Exposed so
    /// tests can audit the pointer-update-only-on-accept discipline.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    pub fn grant_pointer(&self, output: OutputId) -> usize {
        self.grant_ptrs[output.index()].pointer()
    }

    /// The accept pointer of `input`; see
    /// [`grant_pointer`](Self::grant_pointer).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn accept_pointer(&self, input: InputId) -> usize {
        self.accept_ptrs[input.index()].pointer()
    }

    /// The input currently owning `output`, if any.
    pub fn owner(&self, output: OutputId) -> Option<InputId> {
        self.owners[output.index()]
    }

    /// Shared admission filter: busy-input and faulted requests are
    /// dropped; requests to busy outputs lose silently. Duplicate
    /// `(input, output)` pairs collapse idempotently downstream, and —
    /// the VOQ extension — several distinct requests per input are all
    /// admitted.
    #[inline]
    fn admit(&self, input: usize, output: usize) -> bool {
        assert!(input < self.radix, "input {input} out of range");
        assert!(output < self.radix, "output {output} out of range");
        if self.connections[input].is_some() {
            return false; // already transferring: its VOQs wait
        }
        if let Some(faults) = &self.faults {
            if faults.input_down(input) || faults.xpoint_down(input, output) {
                return false; // masked out: the request loses silently
            }
        }
        // Output busy: request simply loses this cycle.
        self.owners[output].is_none()
    }

    /// Commits a matched pair: connection bookkeeping and the grant
    /// record. Pointer updates are policy-specific and stay with the
    /// caller. Identical for both kernels.
    #[inline]
    fn commit(&mut self, input: usize, output: usize, grants: &mut Vec<Grant>) {
        self.connections[input] = Some(OutputId::new(output));
        self.owners[output] = Some(InputId::new(input));
        grants.push(Grant {
            input: InputId::new(input),
            output: OutputId::new(output),
        });
    }

    /// iSLIP/ESLIP scalar pipeline: per-output requester lists, grant
    /// and accept phases over index vectors.
    fn islip_scalar(
        &mut self,
        requests: &[Request],
        iterations: usize,
        update_every_iteration: bool,
        grants: &mut Vec<Grant>,
    ) {
        for list in &mut self.out_lists {
            list.clear();
        }
        for request in requests {
            let input = request.input.index();
            let output = request.output.index();
            if self.admit(input, output) {
                self.out_lists[output].push(input);
            }
        }
        self.matched_in.fill(false);
        self.matched_out.fill(false);

        for iteration in 0..iterations {
            // Grant phase: every unmatched output offers its
            // rotating-priority unmatched requester.
            for list in &mut self.grant_to {
                list.clear();
            }
            let mut any_grant = false;
            for output in 0..self.radix {
                if self.matched_out[output] || self.out_lists[output].is_empty() {
                    continue;
                }
                self.cand.clear();
                for &input in &self.out_lists[output] {
                    if !self.matched_in[input] {
                        self.cand.push(input);
                    }
                }
                if let Some(winner) = self.grant_ptrs[output].grant(&self.cand) {
                    self.grant_to[winner].push(output);
                    any_grant = true;
                }
            }
            if !any_grant {
                break; // the matching can only stay fixed from here
            }
            // Accept phase: each offered input accepts one grant.
            for input in 0..self.radix {
                if self.grant_to[input].is_empty() {
                    continue;
                }
                let output = self.accept_ptrs[input]
                    .grant(&self.grant_to[input])
                    .expect("non-empty grant set always has an accept winner");
                self.matched_in[input] = true;
                self.matched_out[output] = true;
                if iteration == 0 || update_every_iteration {
                    self.grant_ptrs[output].update(input);
                    self.accept_ptrs[input].update(output);
                }
                self.commit(input, output, grants);
            }
        }
    }

    /// iSLIP/ESLIP word pipeline: requests bin into per-output mask
    /// words; grant and accept phases visit ports in the same ascending
    /// order as the scalar loops, so pointer evolution is identical.
    fn islip_words<const W: usize>(
        &mut self,
        requests: &[Request],
        iterations: usize,
        update_every_iteration: bool,
        grants: &mut Vec<Grant>,
    ) {
        for request in requests {
            let input = request.input.index();
            let output = request.output.index();
            if self.admit(input, output) {
                self.out_reqs[output * W + input / 64] |= 1u64 << (input % 64);
                self.touched_out[output / 64] |= 1u64 << (output % 64);
            }
        }
        self.matched_in_w.fill(0);
        self.matched_out_w.fill(0);

        for iteration in 0..iterations {
            let mut any_grant = false;
            self.touched_in.fill(0);
            for touched_word in 0..self.touched_out.len() {
                let mut bits = self.touched_out[touched_word];
                while bits != 0 {
                    let output = touched_word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.matched_out_w[output / 64] >> (output % 64) & 1 != 0 {
                        continue;
                    }
                    let base = output * W;
                    let mut mask = [0u64; W];
                    for (w, word) in mask.iter_mut().enumerate() {
                        *word = self.out_reqs[base + w] & !self.matched_in_w[w];
                    }
                    if let Some(winner) = self.grant_ptrs[output].grant_words::<W>(&mask) {
                        self.in_grants[winner * W + output / 64] |= 1u64 << (output % 64);
                        self.touched_in[winner / 64] |= 1u64 << (winner % 64);
                        any_grant = true;
                    }
                }
            }
            if !any_grant {
                break;
            }
            for touched_word in 0..self.touched_in.len() {
                let mut bits = self.touched_in[touched_word];
                while bits != 0 {
                    let input = touched_word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let base = input * W;
                    let grant_words = &mut self.in_grants[base..base + W];
                    let gmask: [u64; W] = (&*grant_words).try_into().expect("exact W-word slice");
                    grant_words.fill(0);
                    let output = self.accept_ptrs[input]
                        .grant_words::<W>(&gmask)
                        .expect("non-empty grant set always has an accept winner");
                    self.matched_in_w[input / 64] |= 1u64 << (input % 64);
                    self.matched_out_w[output / 64] |= 1u64 << (output % 64);
                    if iteration == 0 || update_every_iteration {
                        self.grant_ptrs[output].update(input);
                        self.accept_ptrs[input].update(output);
                    }
                    self.commit(input, output, grants);
                }
            }
        }
        // Clear the per-cycle request bins.
        for touched_word in 0..self.touched_out.len() {
            let mut bits = self.touched_out[touched_word];
            self.touched_out[touched_word] = 0;
            while bits != 0 {
                let output = touched_word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.out_reqs[output * W..(output + 1) * W].fill(0);
            }
        }
    }

    /// Wavefront scalar pipeline over the boolean request matrix.
    fn wavefront_scalar(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        let n = self.radix;
        let mut any = false;
        for request in requests {
            let input = request.input.index();
            let output = request.output.index();
            if self.admit(input, output) {
                self.req_matrix[input * n + output] = true;
                self.row_any[input] = true;
                any = true;
            }
        }
        if any {
            self.matched_in.fill(false);
            self.matched_out.fill(false);
            for offset in 0..n {
                let diag = (self.wave_diag + offset) % n;
                for input in 0..n {
                    if !self.row_any[input] || self.matched_in[input] {
                        continue;
                    }
                    let output = (diag + n - input) % n;
                    if self.matched_out[output] || !self.req_matrix[input * n + output] {
                        continue;
                    }
                    self.matched_in[input] = true;
                    self.matched_out[output] = true;
                    self.commit(input, output, grants);
                }
            }
            // The diagonal only rotates on cycles that admitted work, so
            // an idle cycle is a true no-op (`ticks_when_idle` contract).
            self.wave_diag = (self.wave_diag + 1) % n;
            for input in 0..n {
                if self.row_any[input] {
                    self.req_matrix[input * n..(input + 1) * n].fill(false);
                    self.row_any[input] = false;
                }
            }
        }
    }

    /// Wavefront word pipeline: per-input request mask words swept in
    /// the same diagonal-major, input-ascending order as the scalar
    /// matrix walk.
    fn wavefront_words<const W: usize>(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        let n = self.radix;
        let mut any = false;
        for request in requests {
            let input = request.input.index();
            let output = request.output.index();
            if self.admit(input, output) {
                self.in_reqs[input * W + output / 64] |= 1u64 << (output % 64);
                self.touched_in[input / 64] |= 1u64 << (input % 64);
                any = true;
            }
        }
        if any {
            self.matched_in_w.fill(0);
            self.matched_out_w.fill(0);
            for offset in 0..n {
                let diag = (self.wave_diag + offset) % n;
                for touched_word in 0..self.touched_in.len() {
                    let mut bits = self.touched_in[touched_word];
                    while bits != 0 {
                        let input = touched_word * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if self.matched_in_w[input / 64] >> (input % 64) & 1 != 0 {
                            continue;
                        }
                        let output = (diag + n - input) % n;
                        if self.matched_out_w[output / 64] >> (output % 64) & 1 != 0 {
                            continue;
                        }
                        if self.in_reqs[input * W + output / 64] >> (output % 64) & 1 == 0 {
                            continue;
                        }
                        self.matched_in_w[input / 64] |= 1u64 << (input % 64);
                        self.matched_out_w[output / 64] |= 1u64 << (output % 64);
                        self.commit(input, output, grants);
                    }
                }
            }
            self.wave_diag = (self.wave_diag + 1) % n;
            for touched_word in 0..self.touched_in.len() {
                let mut bits = self.touched_in[touched_word];
                self.touched_in[touched_word] = 0;
                while bits != 0 {
                    let input = touched_word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.in_reqs[input * W..(input + 1) * W].fill(0);
                }
            }
        }
    }
}

impl Fabric for MatchingSwitch {
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
        let (iterations, update_every_iteration) = match self.policy {
            MatchPolicy::Islip { iterations } => (iterations, false),
            MatchPolicy::Eslip { iterations } => (iterations, true),
            MatchPolicy::Wavefront => (1, false),
        };
        if matches!(self.policy, MatchPolicy::Wavefront) {
            match self.kernel {
                KernelSel::Scalar => self.wavefront_scalar(requests, grants),
                KernelSel::Word1 => self.wavefront_words::<1>(requests, grants),
                KernelSel::Word2 => self.wavefront_words::<2>(requests, grants),
                KernelSel::Word4 => self.wavefront_words::<4>(requests, grants),
            }
        } else {
            match self.kernel {
                KernelSel::Scalar => {
                    self.islip_scalar(requests, iterations, update_every_iteration, grants)
                }
                KernelSel::Word1 => {
                    self.islip_words::<1>(requests, iterations, update_every_iteration, grants)
                }
                KernelSel::Word2 => {
                    self.islip_words::<2>(requests, iterations, update_every_iteration, grants)
                }
                KernelSel::Word4 => {
                    self.islip_words::<4>(requests, iterations, update_every_iteration, grants)
                }
            }
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
        self.faults = Some(Box::new(FaultState::new(
            self.radix,
            0,
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
            .expect("fault state enabled before injection")
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
    use crate::fault::FaultSite;
    use crate::rng::{Rng, SeedableRng, StdRng};

    fn req(i: usize, o: usize) -> Request {
        Request::new(InputId::new(i), OutputId::new(o))
    }

    fn policies() -> Vec<(&'static str, MatchPolicy)> {
        vec![
            ("islip1", MatchPolicy::Islip { iterations: 1 }),
            ("islip2", MatchPolicy::Islip { iterations: 2 }),
            ("islip4", MatchPolicy::Islip { iterations: 4 }),
            ("eslip", MatchPolicy::Eslip { iterations: 2 }),
            ("wavefront", MatchPolicy::Wavefront),
        ]
    }

    #[test]
    fn grants_distinct_outputs_in_parallel() {
        for (name, policy) in policies() {
            let mut sw = MatchingSwitch::new(8, policy);
            let grants = sw.arbitrate(&[req(0, 3), req(1, 5), req(2, 7)]);
            assert_eq!(grants.len(), 3, "{name}");
            assert_eq!(sw.active_connections(), 3, "{name}");
            assert!(sw.output_busy(OutputId::new(3)), "{name}");
        }
    }

    #[test]
    fn voq_input_gets_at_most_one_grant() {
        for (name, policy) in policies() {
            let mut sw = MatchingSwitch::new(4, policy);
            // Input 0 offers three VOQs at once; exactly one may win.
            let grants = sw.arbitrate(&[req(0, 1), req(0, 2), req(0, 3)]);
            assert_eq!(grants.len(), 1, "{name}");
            assert_eq!(grants[0].input, InputId::new(0), "{name}");
        }
    }

    #[test]
    fn busy_output_rejects_requests() {
        for (name, policy) in policies() {
            let mut sw = MatchingSwitch::new(4, policy);
            assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1, "{name}");
            assert!(sw.arbitrate(&[req(2, 1)]).is_empty(), "{name}");
            sw.release(InputId::new(0));
            assert_eq!(sw.arbitrate(&[req(2, 1)]).len(), 1, "{name}");
        }
    }

    #[test]
    fn busy_input_requests_are_ignored() {
        for (name, policy) in policies() {
            let mut sw = MatchingSwitch::new(4, policy);
            assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1, "{name}");
            assert!(sw.arbitrate(&[req(0, 2)]).is_empty(), "{name}");
            assert_eq!(sw.connection(InputId::new(0)), Some(OutputId::new(1)));
        }
    }

    #[test]
    fn release_is_idempotent() {
        for (_, policy) in policies() {
            let mut sw = MatchingSwitch::new(4, policy);
            sw.arbitrate(&[req(0, 1)]);
            sw.release(InputId::new(0));
            sw.release(InputId::new(0));
            assert_eq!(sw.active_connections(), 0);
        }
    }

    #[test]
    fn dead_port_is_masked_out_of_arbitration() {
        for (name, policy) in policies() {
            let mut sw = MatchingSwitch::new(4, policy);
            sw.inject_fault(Fault::dead(FaultSite::Port { input: 1 }))
                .unwrap();
            let grants = sw.arbitrate(&[req(1, 3), req(2, 3)]);
            assert_eq!(grants.len(), 1, "{name}");
            assert_eq!(grants[0].input, InputId::new(2), "{name}");
            assert_eq!(sw.fault_log().unwrap().total(), 1, "{name}");
        }
    }

    #[test]
    fn dead_crosspoint_blocks_only_its_path() {
        for (name, policy) in policies() {
            let mut sw = MatchingSwitch::new(4, policy);
            sw.inject_fault(Fault::dead(FaultSite::Crosspoint {
                input: 0,
                output: 2,
            }))
            .unwrap();
            assert!(sw.arbitrate(&[req(0, 2)]).is_empty(), "{name}");
            assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1, "{name}");
        }
    }

    #[test]
    fn matching_switch_has_no_tsv_bundles() {
        let mut sw = MatchingSwitch::islip(4, 1);
        assert_eq!(sw.tsv_bundle_count(), 0);
        let site = FaultSite::TsvBundle { index: 0 };
        assert_eq!(
            sw.inject_fault(Fault::dead(site)),
            Err(ConfigError::FaultSiteOutOfRange { site })
        );
    }

    #[test]
    #[should_panic(expected = "iteration count")]
    fn zero_iterations_are_rejected() {
        let _ = MatchingSwitch::islip(4, 0);
    }

    /// Grant legality under dense random VOQ request sets: no output
    /// granted twice per cycle, no input granted twice per cycle, every
    /// grant backed by a presented request, no grant to a busy port.
    #[test]
    fn grants_are_legal_under_random_voq_load() {
        for (name, policy) in policies() {
            for radix in [16usize, 32, 64] {
                let mut sw = MatchingSwitch::new(radix, policy);
                let mut rng = StdRng::seed_from_u64(0x1517_0000 + radix as u64);
                let mut requests = Vec::new();
                for cycle in 0..500 {
                    for input in 0..radix {
                        if sw.input_busy(InputId::new(input)) && rng.gen_bool(0.4) {
                            sw.release(InputId::new(input));
                        }
                    }
                    requests.clear();
                    for input in 0..radix {
                        for _ in 0..rng.gen_range(0usize..4) {
                            requests.push(req(input, rng.gen_range(0..radix)));
                        }
                    }
                    let busy_in: Vec<bool> =
                        (0..radix).map(|i| sw.input_busy(InputId::new(i))).collect();
                    let busy_out: Vec<bool> = (0..radix)
                        .map(|o| sw.output_busy(OutputId::new(o)))
                        .collect();
                    let grants = sw.arbitrate(&requests);
                    let mut in_granted = vec![false; radix];
                    let mut out_granted = vec![false; radix];
                    for grant in &grants {
                        let (i, o) = (grant.input.index(), grant.output.index());
                        assert!(
                            requests
                                .iter()
                                .any(|r| r.input.index() == i && r.output.index() == o),
                            "{name} radix {radix} cycle {cycle}: grant without request"
                        );
                        assert!(!in_granted[i], "{name}: input granted twice");
                        assert!(!out_granted[o], "{name}: output granted twice");
                        assert!(!busy_in[i], "{name}: busy input granted");
                        assert!(!busy_out[o], "{name}: busy output granted");
                        in_granted[i] = true;
                        out_granted[o] = true;
                    }
                }
            }
        }
    }

    /// iSLIP pointer discipline: an unaccepted grant must not move the
    /// output's grant pointer.
    #[test]
    fn islip_pointer_updates_only_on_accepted_grants() {
        let mut sw = MatchingSwitch::islip(4, 1);
        // Input 0 offers VOQs to outputs 0 and 1; both outputs grant it
        // (pointers at 0), the accept pointer picks output 0.
        let grants = sw.arbitrate(&[req(0, 0), req(0, 1)]);
        assert_eq!(
            grants,
            vec![Grant {
                input: InputId::new(0),
                output: OutputId::new(0),
            }]
        );
        // Accepted: output 0's grant pointer moved past input 0, input
        // 0's accept pointer moved past output 0.
        assert_eq!(sw.grant_pointer(OutputId::new(0)), 1);
        assert_eq!(sw.accept_pointer(InputId::new(0)), 1);
        // Not accepted: output 1's pointer must not have moved.
        assert_eq!(sw.grant_pointer(OutputId::new(1)), 0);
    }

    /// iSLIP only moves pointers on first-iteration accepts; a match
    /// completed in iteration 2 leaves its pointers alone. ESLIP, by
    /// contrast, moves them in every iteration.
    #[test]
    fn later_iteration_accepts_move_eslip_but_not_islip_pointers() {
        // Input 0 requests outputs 0 and 1; input 1 requests output 1
        // only. Iteration 1 matches (0, 0) — output 1's grant went to
        // input 0 and was declined. Iteration 2 matches (1, 1).
        let schedule = [req(0, 0), req(0, 1), req(1, 1)];

        let mut islip = MatchingSwitch::islip(4, 2);
        assert_eq!(islip.arbitrate(&schedule).len(), 2);
        assert_eq!(islip.grant_pointer(OutputId::new(1)), 0, "islip");
        assert_eq!(islip.accept_pointer(InputId::new(1)), 0, "islip");

        let mut eslip = MatchingSwitch::eslip(4, 2);
        assert_eq!(eslip.arbitrate(&schedule).len(), 2);
        assert_eq!(eslip.grant_pointer(OutputId::new(1)), 2, "eslip");
        assert_eq!(eslip.accept_pointer(InputId::new(1)), 2, "eslip");
    }

    /// A second iteration picks up matches the first left behind.
    #[test]
    fn extra_iterations_grow_the_matching() {
        // Pointers all at 0: outputs 0 and 1 both grant input 0 in
        // iteration 1, so input 1's request at output 1 only matches in
        // iteration 2.
        let schedule = [req(0, 0), req(0, 1), req(1, 1)];
        let mut one = MatchingSwitch::islip(4, 1);
        let mut two = MatchingSwitch::islip(4, 2);
        assert_eq!(one.arbitrate(&schedule).len(), 1);
        assert_eq!(two.arbitrate(&schedule).len(), 2);
    }

    /// The classic iSLIP result: under saturated uniform VOQ load the
    /// output pointers desynchronise and a *single*-iteration scheduler
    /// reaches 100% throughput — `radix` grants every cycle, with the
    /// grant pointers forming a permutation of the inputs.
    #[test]
    fn islip_pointers_desynchronize_under_saturation() {
        let radix = 8;
        let mut sw = MatchingSwitch::islip(radix, 1);
        let full: Vec<Request> = (0..radix)
            .flat_map(|i| (0..radix).map(move |o| req(i, o)))
            .collect();
        let mut steady = 0usize;
        for _ in 0..200 {
            let grants = sw.arbitrate(&full);
            for grant in &grants {
                sw.release(grant.input);
            }
            if grants.len() == radix {
                steady += 1;
            } else {
                steady = 0;
            }
        }
        assert!(
            steady >= 100,
            "desynchronised steady state not reached (tail run {steady})"
        );
        let mut pointers: Vec<usize> = (0..radix)
            .map(|o| sw.grant_pointer(OutputId::new(o)))
            .collect();
        pointers.sort_unstable();
        assert_eq!(pointers, (0..radix).collect::<Vec<_>>());
    }

    /// Wavefront with a full request matrix matches everyone at once,
    /// and the rotating diagonal serves every contender of a single
    /// output in turn.
    #[test]
    fn wavefront_is_maximal_and_rotates_priority() {
        let radix = 8;
        let mut sw = MatchingSwitch::wavefront(radix);
        let full: Vec<Request> = (0..radix)
            .flat_map(|i| (0..radix).map(move |o| req(i, o)))
            .collect();
        for cycle in 0..20 {
            let grants = sw.arbitrate(&full);
            assert_eq!(grants.len(), radix, "cycle {cycle}");
            for grant in &grants {
                sw.release(grant.input);
            }
        }
        // Single-output contention: the diagonal rotation must hand the
        // output to every requester within `radix` cycles.
        let mut sw = MatchingSwitch::wavefront(radix);
        let mut wins = vec![0usize; radix];
        let contenders: Vec<Request> = (0..radix).map(|i| req(i, 0)).collect();
        for _ in 0..radix * 4 {
            let grants = sw.arbitrate(&contenders);
            assert_eq!(grants.len(), 1);
            wins[grants[0].input.index()] += 1;
            sw.release(grants[0].input);
        }
        assert_eq!(wins, vec![4; radix]);
    }

    /// Scalar and word kernels must evolve identically: randomized VOQ
    /// request/release streams at several radices, grant vectors
    /// compared every cycle — for every policy.
    #[test]
    fn word_kernel_twins_scalar_kernel() {
        for (name, policy) in policies() {
            for radix in [16usize, 32, 64] {
                let mut word = MatchingSwitch::with_kernel(radix, policy, ArbiterKernel::Word);
                let mut scalar = MatchingSwitch::with_kernel(radix, policy, ArbiterKernel::Scalar);
                assert_eq!(word.kernel(), ArbiterKernel::Word);
                assert_eq!(scalar.kernel(), ArbiterKernel::Scalar);
                let mut rng = StdRng::seed_from_u64(0x3A7C_0000 + radix as u64);
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
                        for _ in 0..rng.gen_range(0usize..3) {
                            requests.push(req(input, rng.gen_range(0..radix)));
                        }
                    }
                    let a = word.arbitrate(&requests);
                    let b = scalar.arbitrate(&requests);
                    assert_eq!(a, b, "{name} radix {radix} cycle {cycle}");
                    for grant in &a {
                        held[grant.input.index()] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn in_flight_connection_survives_a_late_fault() {
        let mut sw = MatchingSwitch::islip(4, 2);
        assert_eq!(sw.arbitrate(&[req(0, 1)]).len(), 1);
        sw.inject_fault(Fault::dead(FaultSite::Port { input: 0 }))
            .unwrap();
        assert_eq!(sw.connection(InputId::new(0)), Some(OutputId::new(1)));
        sw.release(InputId::new(0));
        assert!(sw.arbitrate(&[req(0, 1)]).is_empty());
    }
}
