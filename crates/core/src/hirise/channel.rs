//! Layer-to-layer channel (L2LC) bookkeeping.
//!
//! Each ordered pair of layers is joined by `c` dedicated vertical
//! channels (Fig. 2). A channel is owned by at most one in-flight
//! connection at a time; ownership is what makes the L2LCs a bandwidth
//! bottleneck under inter-layer-heavy traffic (§VI-B's pathological case).

/// Busy state for every L2LC of a switch, indexed by `(source layer,
/// destination layer, channel)` or by the flat [`index`](Self::index)
/// of that triple.
#[derive(Clone, Debug)]
pub(crate) struct ChannelTable {
    layers: usize,
    multiplicity: usize,
    /// Bit `index(src, dst, k)` is set while a connection holds the
    /// channel; the arbitration admission loop probes it once per
    /// inter-layer request per cycle.
    busy: Vec<u64>,
}

impl ChannelTable {
    pub(crate) fn new(layers: usize, multiplicity: usize) -> Self {
        let count = layers * (layers - 1) * multiplicity;
        Self {
            layers,
            multiplicity,
            busy: vec![0; count.div_ceil(64).max(1)],
        }
    }

    /// Flat index of channel `k` from `src` to `dst` (`src != dst`).
    pub(crate) fn index(&self, src: usize, dst: usize, k: usize) -> usize {
        debug_assert!(src != dst, "no channel from a layer to itself");
        debug_assert!(src < self.layers && dst < self.layers && k < self.multiplicity);
        let compressed_dst = if dst < src { dst } else { dst - 1 };
        (src * (self.layers - 1) + compressed_dst) * self.multiplicity + k
    }

    pub(crate) fn is_busy(&self, src: usize, dst: usize, k: usize) -> bool {
        let idx = self.index(src, dst, k);
        self.busy[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Marks the channel at flat index `idx` held.
    pub(crate) fn acquire(&mut self, idx: usize) {
        debug_assert!(
            self.busy[idx / 64] >> (idx % 64) & 1 == 0,
            "channel already owned"
        );
        self.busy[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Frees the channel at flat index `idx`.
    pub(crate) fn release(&mut self, idx: usize) {
        debug_assert!(
            self.busy[idx / 64] >> (idx % 64) & 1 == 1,
            "releasing a free channel"
        );
        self.busy[idx / 64] &= !(1u64 << (idx % 64));
    }

    #[cfg(test)]
    pub(crate) fn busy_count(&self) -> usize {
        self.busy.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_unique_and_dense() {
        let table = ChannelTable::new(4, 4);
        let mut seen = [false; 4 * 3 * 4];
        for src in 0..4 {
            for dst in 0..4 {
                if src == dst {
                    continue;
                }
                for k in 0..4 {
                    let idx = table.index(src, dst, k);
                    assert!(!seen[idx], "duplicate index for ({src},{dst},{k})");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn acquire_release_cycle() {
        let mut table = ChannelTable::new(3, 2);
        assert!(!table.is_busy(0, 2, 1));
        table.acquire(table.index(0, 2, 1));
        assert!(table.is_busy(0, 2, 1));
        assert!(!table.is_busy(2, 0, 1)); // direction matters
        assert_eq!(table.busy_count(), 1);
        table.release(table.index(0, 2, 1));
        assert!(!table.is_busy(0, 2, 1));
    }
}
