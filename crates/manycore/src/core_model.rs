//! Core model: 2-way retirement at 2 GHz, non-blocking misses up to a
//! memory-level-parallelism budget, full stall beyond it (Table III:
//! 2-way out-of-order cores with up to 16 outstanding requests; the
//! *effective* overlap an OoO window sustains is far smaller, so the
//! MLP budget is a system parameter).

use crate::trace::{MemAccess, SyntheticTrace};

/// One core executing a synthetic trace.
#[derive(Clone, Debug)]
pub struct Core {
    trace: SyntheticTrace,
    gap: u64,
    outstanding: usize,
    mlp: usize,
    width: u64,
    retired: u64,
    target: u64,
    finished_at: Option<u64>,
    stalled_cycles: u64,
    pending: Option<MemAccess>,
}

impl Core {
    /// Creates a core that will retire `target` instructions from
    /// `trace`, issuing up to `width` instructions per cycle and
    /// tolerating `mlp` outstanding misses before stalling.
    ///
    /// # Panics
    ///
    /// Panics if `width`, `mlp` or `target` is zero.
    pub fn new(mut trace: SyntheticTrace, width: u64, mlp: usize, target: u64) -> Self {
        assert!(
            width > 0 && mlp > 0 && target > 0,
            "parameters must be non-zero"
        );
        let gap = trace.next_gap();
        Self {
            trace,
            gap,
            outstanding: 0,
            mlp,
            width,
            retired: 0,
            target,
            finished_at: None,
            stalled_cycles: 0,
            pending: None,
        }
    }

    /// Advances one core cycle at time `now_cycles`; returns a miss to
    /// send to the memory system, if one issues this cycle.
    pub fn tick(&mut self, now_cycles: u64) -> Option<MemAccess> {
        if self.finished_at.is_some() {
            return None;
        }
        // A miss that could not issue (MLP exhausted) blocks retirement.
        if let Some(access) = self.pending {
            if self.outstanding < self.mlp {
                self.pending = None;
                self.outstanding += 1;
                return Some(access);
            }
            self.stalled_cycles += 1;
            return None;
        }
        let mut budget = self.width;
        while budget > 0 {
            if self.gap == 0 {
                let access = self.trace.next_access();
                self.gap = self.trace.next_gap();
                if self.outstanding < self.mlp {
                    self.outstanding += 1;
                    return Some(access);
                }
                self.pending = Some(access);
                self.stalled_cycles += 1;
                return None;
            }
            let step = budget.min(self.gap);
            self.retired += step;
            self.gap -= step;
            budget -= step;
            if self.retired >= self.target {
                self.finished_at = Some(now_cycles);
                return None;
            }
        }
        None
    }

    /// Ticks from now on that would each only retire `width`
    /// instructions or count a stalled cycle: those before the next
    /// miss or the finish, and `u64::MAX` (never an event) while a miss
    /// waits on a full MLP budget or once the core has finished.
    pub(crate) fn quiet_ticks(&self) -> u64 {
        if self.finished_at.is_some() {
            return u64::MAX;
        }
        if self.pending.is_some() {
            return if self.outstanding < self.mlp {
                0
            } else {
                u64::MAX
            };
        }
        // A tick is quiet while the burst lasts past its whole width and
        // the target is still beyond it.
        let to_miss = self.gap / self.width;
        let to_finish = (self.target - self.retired).div_ceil(self.width) - 1;
        to_miss.min(to_finish)
    }

    /// Applies `ticks` quiet ticks (at most what
    /// [`quiet_ticks`](Self::quiet_ticks) allowed when they began) in
    /// closed form: a stalled core counts them as stalled cycles, any
    /// other retires `width` instructions in each.
    pub(crate) fn skip_quiet_ticks(&mut self, ticks: u64) {
        if self.finished_at.is_some() {
            return;
        }
        if self.pending.is_some() {
            self.stalled_cycles += ticks;
        } else {
            self.retired += ticks * self.width;
            self.gap -= ticks * self.width;
        }
    }

    /// Whether a miss waits on the MLP budget: the core can issue it as
    /// soon as one outstanding miss completes.
    pub(crate) fn waits_on_budget(&self) -> bool {
        self.pending.is_some()
    }

    /// Delivers a data reply: one outstanding miss completes.
    ///
    /// # Panics
    ///
    /// Panics if no miss is outstanding.
    pub fn on_reply(&mut self) {
        assert!(self.outstanding > 0, "reply with no outstanding miss");
        self.outstanding -= 1;
    }

    /// Whether the core has retired its instruction target.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Cycle at which the core finished, if it has.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles spent fully stalled on the memory system.
    pub fn stalled_cycles(&self) -> u64 {
        self.stalled_cycles
    }

    /// Misses currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::benchmark_profile;

    fn core_for(name: &str, mlp: usize, target: u64) -> Core {
        Core::new(
            SyntheticTrace::new(benchmark_profile(name), 64, 42),
            2,
            mlp,
            target,
        )
    }

    #[test]
    fn compute_bound_core_finishes_at_full_width() {
        let mut core = core_for("sjeng", 4, 1_000);
        let mut cycles = 0;
        while !core.is_finished() {
            let _ = core.tick(cycles);
            cycles += 1;
            assert!(cycles < 2_000, "should finish ~500 cycles");
        }
        // 1000 instructions at width 2: about 500 cycles.
        assert!((500..600).contains(&cycles), "{cycles}");
    }

    #[test]
    fn memory_bound_core_stalls_without_replies() {
        let mut core = core_for("mcf", 4, 10_000);
        let mut misses = 0;
        for t in 0..2_000 {
            if core.tick(t).is_some() {
                misses += 1;
            }
        }
        // MLP of 4 and no replies: exactly 4 misses issue, then stall.
        assert_eq!(misses, 4);
        assert!(!core.is_finished());
        assert!(core.stalled_cycles() > 1_000);
    }

    #[test]
    fn replies_unblock_the_core() {
        let mut core = core_for("mcf", 1, 10_000);
        let mut issued = 0;
        for t in 0..1_000 {
            if core.tick(t).is_some() {
                issued += 1;
                core.on_reply(); // instant memory
            }
        }
        assert!(
            issued > 50,
            "steady progress with instant replies: {issued}"
        );
        assert!(core.retired() > 1_000);
    }

    #[test]
    #[should_panic(expected = "no outstanding miss")]
    fn spurious_reply_panics() {
        let mut core = core_for("sjeng", 4, 100);
        core.on_reply();
    }
}
