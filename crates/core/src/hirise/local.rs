//! The per-layer *local switch* (§III-A).
//!
//! On each layer an `N/L x (N/L + c(L-1))` switch lets the layer's inputs
//! arbitrate for the `N/L` local intermediate outputs (one per final
//! output on this layer) and the `c(L-1)` outgoing L2LCs. Every column
//! carries its own priority state in the cross-points; crucially, a
//! column's priority is only updated when its winner also wins the final
//! output at the inter-layer switch (the back-propagated update of
//! §III-B1 — this is what guarantees freedom from starvation).

use crate::arbiter::matrix::LrgBank;
use crate::arbiter::round_robin::RoundRobinBank;
use crate::bits::BitSet;
use crate::config::LocalArbiterKind;
use crate::error::ConfigError;

/// The priority state of every local-switch column, one bank per switch.
#[derive(Clone, Debug)]
enum ColumnBank {
    Lrg(LrgBank),
    RoundRobin(RoundRobinBank),
}

/// The local switches of every layer: per layer, `ports` intermediate
/// columns followed by `channel_columns` L2LC columns. Columns are
/// addressed by their flat index `layer * column_count() + column`, and
/// their arbiters are rows of one bank, in that order.
#[derive(Clone, Debug)]
pub(crate) struct LocalSwitches {
    bank: ColumnBank,
    ports: usize,
    columns: usize,
    multiplicity: usize,
}

impl LocalSwitches {
    pub(crate) fn new(
        kind: LocalArbiterKind,
        layers: usize,
        ports: usize,
        channel_columns: usize,
        multiplicity: usize,
    ) -> Self {
        let columns = ports + channel_columns;
        let bank = match kind {
            LocalArbiterKind::Lrg => ColumnBank::Lrg(LrgBank::new(layers * columns, ports)),
            LocalArbiterKind::RoundRobin => {
                ColumnBank::RoundRobin(RoundRobinBank::new(layers * columns, ports))
            }
        };
        Self {
            bank,
            ports,
            columns,
            multiplicity,
        }
    }

    /// Columns per layer (intermediate + L2LC).
    pub(crate) fn column_count(&self) -> usize {
        self.columns
    }

    /// Column index of the intermediate output feeding local output
    /// `local_output`.
    pub(crate) fn intermediate_column(&self, local_output: usize) -> usize {
        debug_assert!(local_output < self.ports);
        local_output
    }

    /// Column index of channel `k` towards `dst` from `src`
    /// (`compressed_dst` packs the destination layers excluding `src`).
    pub(crate) fn channel_column(&self, compressed_dst: usize, k: usize) -> usize {
        debug_assert!(k < self.multiplicity);
        self.ports + compressed_dst * self.multiplicity + k
    }

    /// Slice-path reference implementation; the hot path uses
    /// [`grant_mask`](Self::grant_mask).
    #[cfg(test)]
    pub(crate) fn grant(&self, flat: usize, requests: &[usize]) -> Option<usize> {
        let mut mask = BitSet::new(self.ports);
        for &r in requests {
            mask.insert(r);
        }
        self.grant_mask(flat, &mask)
    }

    /// Elects column `flat`'s winner among a mask of local-input bits.
    pub(crate) fn grant_mask(&self, flat: usize, requests: &BitSet) -> Option<usize> {
        match &self.bank {
            ColumnBank::Lrg(bank) => bank.grant_mask(flat, requests),
            ColumnBank::RoundRobin(bank) => bank.grant_mask(flat, requests),
        }
    }

    /// As [`grant_mask`](Self::grant_mask) over raw request words
    /// (`requests[w]` holds local inputs `64w..64w+63`) — the
    /// word-parallel kernel path. `W` must equal `ceil(ports / 64)`.
    #[inline]
    pub(crate) fn grant_words<const W: usize>(
        &self,
        flat: usize,
        requests: &[u64; W],
    ) -> Option<usize> {
        match &self.bank {
            ColumnBank::Lrg(bank) => bank.grant_words::<W>(flat, requests),
            ColumnBank::RoundRobin(bank) => bank.grant_words::<W>(flat, requests),
        }
    }

    #[inline]
    pub(crate) fn update(&mut self, flat: usize, winner: usize) {
        match &mut self.bank {
            ColumnBank::Lrg(bank) => bank.update(flat, winner),
            ColumnBank::RoundRobin(bank) => bank.update(flat, winner),
        }
    }

    /// LRG column `flat`'s priority order, highest first.
    #[cfg(test)]
    pub(crate) fn priority_order(&self, flat: usize) -> Vec<usize> {
        let ColumnBank::Lrg(bank) = &self.bank else {
            panic!("round-robin columns keep no priority matrix");
        };
        bank.priority_order(flat)
    }

    /// Seeds column `flat` with an LRG order (tests and worked examples).
    ///
    /// # Errors
    ///
    /// [`ConfigError::SeedingRequiresLrg`] when the local arbiter kind
    /// is not LRG — an invalid fabric x scheme combination that callers
    /// must reject before simulation starts.
    pub(crate) fn seed_column(&mut self, flat: usize, order: &[usize]) -> Result<(), ConfigError> {
        match &mut self.bank {
            ColumnBank::Lrg(bank) => {
                bank.seed(flat, order);
                Ok(())
            }
            ColumnBank::RoundRobin(_) => Err(ConfigError::SeedingRequiresLrg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_layout_matches_paper_geometry() {
        // 64-radix 4-layer 4-channel: local switch is 16 x 28.
        let local = LocalSwitches::new(LocalArbiterKind::Lrg, 1, 16, 12, 4);
        assert_eq!(local.column_count(), 28);
        assert_eq!(local.intermediate_column(15), 15);
        assert_eq!(local.channel_column(0, 0), 16);
        assert_eq!(local.channel_column(2, 3), 27);
    }

    #[test]
    fn columns_arbitrate_independently() {
        let mut local = LocalSwitches::new(LocalArbiterKind::Lrg, 1, 4, 3, 1);
        assert_eq!(local.grant(0, &[1, 2]), Some(1));
        local.update(0, 1);
        // Column 0's update must not affect column 1.
        assert_eq!(local.grant(0, &[1, 2]), Some(2));
        assert_eq!(local.grant(1, &[1, 2]), Some(1));
    }

    #[test]
    fn grant_mask_matches_grant_for_both_kinds() {
        for kind in [LocalArbiterKind::Lrg, LocalArbiterKind::RoundRobin] {
            let local = LocalSwitches::new(kind, 1, 4, 2, 1);
            let mut mask = BitSet::new(4);
            mask.insert(1);
            mask.insert(3);
            for column in 0..local.column_count() {
                assert_eq!(
                    local.grant_mask(column, &mask),
                    local.grant(column, &[1, 3]),
                    "{kind:?} column {column}"
                );
            }
        }
    }

    #[test]
    fn grant_words_matches_grant_mask_for_both_kinds() {
        for kind in [LocalArbiterKind::Lrg, LocalArbiterKind::RoundRobin] {
            let mut local = LocalSwitches::new(kind, 1, 16, 12, 4);
            let mut state = 0xD00D_F00Du64;
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let word = (state >> 24) & 0xFFFF; // 16 local inputs
                let mut mask = BitSet::new(16);
                for bit in 0..16 {
                    if word >> bit & 1 == 1 {
                        mask.insert(bit);
                    }
                }
                for column in 0..local.column_count() {
                    let expected = local.grant_mask(column, &mask);
                    assert_eq!(
                        local.grant_words::<1>(column, &[word]),
                        expected,
                        "{kind:?}"
                    );
                    if let Some(winner) = expected {
                        local.update(column, winner);
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_flavour_works() {
        let mut local = LocalSwitches::new(LocalArbiterKind::RoundRobin, 1, 4, 0, 1);
        assert_eq!(local.grant(2, &[0, 3]), Some(0));
        local.update(2, 0);
        assert_eq!(local.grant(2, &[0, 3]), Some(3));
    }

    #[test]
    fn seeding_round_robin_is_a_typed_error() {
        let mut local = LocalSwitches::new(LocalArbiterKind::RoundRobin, 1, 4, 0, 1);
        assert_eq!(
            local.seed_column(0, &[3, 2, 1, 0]),
            Err(ConfigError::SeedingRequiresLrg)
        );
        let mut local = LocalSwitches::new(LocalArbiterKind::Lrg, 1, 4, 0, 1);
        assert_eq!(local.seed_column(0, &[3, 2, 1, 0]), Ok(()));
    }
}
