//! The per-output *inter-layer sub-block* (§III-A, §IV-B).
//!
//! Each final output has a `(c(L-1)+1) x 1` sub-block that chooses, every
//! cycle, between the incoming L2LCs from every other layer and the one
//! local intermediate output. The sub-block embeds the inter-layer
//! arbitration scheme: baseline layer-to-layer LRG, Weighted LRG, or the
//! paper's Class-based LRG (Fig. 7's cross-point with class counters,
//! priority-select muxes and a 13-bit LRG).

use crate::arbiter::clrg::ClrgBank;
use crate::arbiter::matrix::LrgBank;
use crate::arbiter::wlrg::WlrgBank;
use crate::arbiter::ArbitrationScheme;
use crate::bits::BitSet;
use crate::ids::InputId;

/// A contender presented to a sub-block for one arbitration cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Contender {
    /// Sub-block slot: `compressed_src * c + k` for an L2LC, or the last
    /// slot for the local intermediate output.
    pub slot: usize,
    /// The primary input riding this slot (the phase-1 winner).
    pub input: InputId,
    /// Parallel requestors the slot represented at phase 1 (WLRG weight).
    pub weight: u32,
}

/// The scheme state every sub-block of a switch carries beside its
/// slot-level LRG, one bank per switch.
#[derive(Clone, Debug)]
enum SchemeBank {
    LayerToLayer,
    Weighted(WlrgBank),
    ClassBased(ClrgBank),
}

/// The inter-layer sub-blocks of a switch, one per final output. Their
/// slot-level LRG ranks are rows of one bank, and their WLRG credits
/// or CLRG counters one array, all indexed by output.
#[derive(Clone, Debug)]
pub(crate) struct SubBlocks {
    lrg: LrgBank,
    scheme: SchemeBank,
    /// Cross-check every decision against the signal-level circuit
    /// model of `crate::xpoint` (debug aid; see
    /// [`HiRiseSwitch::enable_signal_validation`](crate::HiRiseSwitch::enable_signal_validation)).
    validate_signals: bool,
    /// Candidate-slot mask of the scalar path, reused across cycles so
    /// the hot path stays allocation-free.
    mask: BitSet,
}

impl SubBlocks {
    /// Creates `outputs` sub-blocks with `slots` contender slots each
    /// over a switch of `radix` primary inputs, using `scheme`.
    pub(crate) fn new(
        outputs: usize,
        slots: usize,
        radix: usize,
        scheme: ArbitrationScheme,
    ) -> Self {
        let scheme = match scheme {
            ArbitrationScheme::LayerToLayerLrg => SchemeBank::LayerToLayer,
            ArbitrationScheme::WeightedLrg => SchemeBank::Weighted(WlrgBank::new(outputs, slots)),
            ArbitrationScheme::ClassBased { classes } => {
                SchemeBank::ClassBased(ClrgBank::new(outputs, radix, classes))
            }
        };
        Self {
            lrg: LrgBank::new(outputs, slots),
            scheme,
            validate_signals: false,
            mask: BitSet::new(slots),
        }
    }

    /// Enables per-decision validation against the circuit model.
    pub(crate) fn enable_signal_validation(&mut self) {
        self.validate_signals = true;
    }

    /// Runs one arbitration cycle of `output`'s sub-block, commits the
    /// scheme's state updates, and returns the index into `contenders`
    /// of the winner.
    ///
    /// Returns `None` for an empty contender set.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if two contenders share a slot.
    pub(crate) fn arbitrate(&mut self, output: usize, contenders: &[Contender]) -> Option<usize> {
        if contenders.is_empty() {
            return None;
        }

        // Debug-only duplicate-slot check, via the reused mask (rebuilt
        // below).
        #[cfg(debug_assertions)]
        {
            self.mask.clear();
            for contender in contenders {
                assert!(
                    !self.mask.contains(contender.slot),
                    "contender slots must be unique"
                );
                self.mask.insert(contender.slot);
            }
        }

        // Build the candidate-slot mask in the reused scratch set.
        self.mask.clear();
        if let SchemeBank::ClassBased(clrg) = &self.scheme {
            // Class-based LRG: best (lowest-count) class wins; LRG breaks
            // ties within that class. The slot-level LRG is updated every
            // cycle even when the class decided the winner (Fig. 5,
            // arbitration cycle 2: "Even though LRG is not used for this
            // arbitration cycle, it is still updated").
            let classes = clrg.counters(output);
            let best = contenders
                .iter()
                .map(|c| classes[c.input.index()])
                .min()
                .expect("non-empty contender set");
            for contender in contenders {
                if classes[contender.input.index()] == best {
                    self.mask.insert(contender.slot);
                }
            }
        } else {
            for contender in contenders {
                self.mask.insert(contender.slot);
            }
        }
        let slot = self
            .lrg
            .grant_mask(output, &self.mask)
            .expect("non-empty candidate set");
        Some(self.finish(output, contenders, slot))
    }

    /// As [`arbitrate`](Self::arbitrate), but carrying the candidate-slot
    /// set as one raw `u64` word — the word-parallel kernel path. The
    /// caller guarantees a sub-block has at most 64 slots (checked at
    /// kernel resolution; see [`crate::kernel::KernelSel`]). Decisions
    /// and state updates are bit-identical to the scalar path.
    pub(crate) fn arbitrate_word(
        &mut self,
        output: usize,
        contenders: &[Contender],
    ) -> Option<usize> {
        if contenders.is_empty() {
            return None;
        }

        #[cfg(debug_assertions)]
        {
            let mut seen = 0u64;
            for contender in contenders {
                assert!(
                    seen >> contender.slot & 1 == 0,
                    "contender slots must be unique"
                );
                seen |= 1 << contender.slot;
            }
        }

        if contenders.len() == 1 {
            // A lone contender wins regardless of priority state; skip
            // the mask build and the matrix scan. `finish` still applies
            // the exact same priority updates (and, under
            // `validate_signals`, the same circuit cross-check).
            return Some(self.finish(output, contenders, contenders[0].slot));
        }

        let mut mask = 0u64;
        if let SchemeBank::ClassBased(clrg) = &self.scheme {
            let classes = clrg.counters(output);
            let best = contenders
                .iter()
                .map(|c| classes[c.input.index()])
                .min()
                .expect("non-empty contender set");
            for contender in contenders {
                if classes[contender.input.index()] == best {
                    mask |= 1 << contender.slot;
                }
            }
        } else {
            for contender in contenders {
                mask |= 1 << contender.slot;
            }
        }
        let slot = self
            .lrg
            .grant_words::<1>(output, &[mask])
            .expect("non-empty candidate set");
        Some(self.finish(output, contenders, slot))
    }

    /// Shared tail of both arbitration paths: map the winning slot back
    /// to its contender, optionally cross-check the circuit model, and
    /// commit the scheme's state updates.
    fn finish(&mut self, output: usize, contenders: &[Contender], slot: usize) -> usize {
        let winner_index = contenders.iter().position(|c| c.slot == slot).unwrap();

        if self.validate_signals {
            let classed: Vec<crate::xpoint::ClassedContender> = contenders
                .iter()
                .map(|c| crate::xpoint::ClassedContender {
                    slot: c.slot,
                    class: self.clrg_class(output, c.input).unwrap_or(0),
                })
                .collect();
            let classes = match &self.scheme {
                SchemeBank::ClassBased(clrg) => clrg.classes(),
                _ => 1,
            };
            let circuit =
                crate::xpoint::arbitrate_clrg_column(&classed, &self.lrg.matrix(output), classes);
            assert_eq!(
                circuit,
                Some(winner_index),
                "behavioural winner disagrees with the Fig. 7 circuit model"
            );
        }

        let winner = contenders[winner_index];
        match &mut self.scheme {
            SchemeBank::Weighted(wlrg) => {
                // WLRG holds the winner's LRG priority until its weight
                // credit is spent (§III-B3).
                if wlrg.record_win(output, winner.slot, winner.weight) {
                    self.lrg.update(output, winner.slot);
                }
            }
            SchemeBank::ClassBased(clrg) => {
                self.lrg.update(output, winner.slot);
                clrg.record_win(output, winner.input.index());
            }
            SchemeBank::LayerToLayer => {
                // Baseline: "its priority is updated after every
                // arbitration cycle" (§III-B1).
                self.lrg.update(output, winner.slot);
            }
        }
        winner_index
    }

    /// The CLRG class of `input` at `output`'s sub-block, if running CLRG.
    pub(crate) fn clrg_class(&self, output: usize, input: InputId) -> Option<u8> {
        match &self.scheme {
            SchemeBank::ClassBased(clrg) => Some(clrg.counters(output)[input.index()]),
            _ => None,
        }
    }

    /// `output`'s slot-level LRG order, highest first.
    #[cfg(test)]
    pub(crate) fn priority_order(&self, output: usize) -> Vec<usize> {
        self.lrg.priority_order(output)
    }

    /// `slot`'s WLRG hold credit at `output`'s sub-block, if running
    /// WLRG.
    #[cfg(test)]
    pub(crate) fn wlrg_credit(&self, output: usize, slot: usize) -> Option<u32> {
        match &self.scheme {
            SchemeBank::Weighted(wlrg) => Some(wlrg.credit(output, slot)),
            _ => None,
        }
    }

    /// Replaces `output`'s slot-level LRG order (tests and worked
    /// examples).
    pub(crate) fn seed_priority(&mut self, output: usize, order: &[usize]) {
        self.lrg.seed(output, order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contender(slot: usize, input: usize) -> Contender {
        Contender {
            slot,
            input: InputId::new(input),
            weight: 1,
        }
    }

    #[test]
    fn baseline_uses_pure_slot_lrg() {
        let mut sb = SubBlocks::new(1, 4, 64, ArbitrationScheme::LayerToLayerLrg);
        // Slot 0 wins, then drops behind slot 1.
        let cs = [contender(0, 10), contender(1, 20)];
        assert_eq!(sb.arbitrate(0, &cs), Some(0));
        assert_eq!(sb.arbitrate(0, &cs), Some(1));
        assert_eq!(sb.arbitrate(0, &cs), Some(0));
    }

    #[test]
    fn clrg_class_overrides_lrg() {
        let mut sb = SubBlocks::new(1, 4, 64, ArbitrationScheme::class_based());
        let a = contender(0, 10);
        let b = contender(1, 20);
        // First win goes to slot 0 (LRG tie-break in class P0); input 10
        // moves to class P1, so input 20 must win next even though slot 0
        // may outrank slot 1.
        assert_eq!(sb.arbitrate(0, &[a, b]), Some(0));
        assert_eq!(sb.clrg_class(0, InputId::new(10)), Some(1));
        assert_eq!(sb.arbitrate(0, &[a, b]), Some(1));
        assert_eq!(sb.clrg_class(0, InputId::new(20)), Some(1));
    }

    #[test]
    fn wlrg_holds_priority_for_weighted_winners() {
        let mut sb = SubBlocks::new(1, 2, 64, ArbitrationScheme::WeightedLrg);
        // Slot 0 carries 2 requestors; it should win twice before slot 1
        // gets a turn.
        let heavy = Contender {
            slot: 0,
            input: InputId::new(3),
            weight: 2,
        };
        let light = contender(1, 20);
        assert_eq!(sb.arbitrate(0, &[heavy, light]), Some(0));
        assert_eq!(sb.arbitrate(0, &[heavy, light]), Some(0));
        assert_eq!(sb.arbitrate(0, &[heavy, light]), Some(1));
    }

    #[test]
    fn arbitrate_word_twins_arbitrate_across_schemes() {
        for scheme in [
            ArbitrationScheme::LayerToLayerLrg,
            ArbitrationScheme::WeightedLrg,
            ArbitrationScheme::class_based(),
        ] {
            let mut scalar = SubBlocks::new(1, 13, 64, scheme);
            let mut word = SubBlocks::new(1, 13, 64, scheme);
            let mut state = 0xABCD_1234u64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for step in 0..500 {
                let mut contenders = Vec::new();
                for slot in 0..13 {
                    if next() % 3 == 0 {
                        contenders.push(Contender {
                            slot,
                            input: InputId::new(next() % 64),
                            weight: (next() % 4 + 1) as u32,
                        });
                    }
                }
                assert_eq!(
                    scalar.arbitrate(0, &contenders),
                    word.arbitrate_word(0, &contenders),
                    "{scheme:?} step {step}"
                );
            }
        }
    }

    #[test]
    fn empty_contenders_yield_none() {
        let mut sb = SubBlocks::new(1, 4, 64, ArbitrationScheme::class_based());
        assert_eq!(sb.arbitrate(0, &[]), None);
    }

    #[test]
    fn single_contender_always_wins() {
        let mut sb = SubBlocks::new(1, 13, 64, ArbitrationScheme::class_based());
        for _ in 0..5 {
            assert_eq!(sb.arbitrate(0, &[contender(7, 42)]), Some(0));
        }
        // Its class keeps degrading, halving on saturation.
        let class = sb.clrg_class(0, InputId::new(42)).unwrap();
        assert!(class >= 1);
    }
}
