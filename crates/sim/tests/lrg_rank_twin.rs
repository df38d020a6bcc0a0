//! An independent twin for the LRG rank kernel: `Switch2d` (one rank
//! array per output, `hirise-core`'s `LrgBank`) and the golden
//! `RefSwitch` (one explicit priority list per output, written without
//! any of `hirise-core`'s arbitration code) are stepped through the same
//! random requests and releases, and must grant identically on every
//! cycle. The radices cover a one-requestor arbiter, odd sizes, the one-
//! and two-word kernels (8, 64, 65) and the scalar fallback (130, 300).

use hirise_core::rng::{Rng, SeedableRng, StdRng};
use hirise_core::{Fabric, Grant, InputId, OutputId, Request, Switch2d};
use hirise_sim::diff::RefSwitch;

/// Steps both switches for `cycles` cycles of random traffic and
/// returns the number of grants compared.
fn co_step(radix: usize, cycles: u64, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranks = Switch2d::new(radix);
    let mut lists = RefSwitch::new(radix);
    let mut requests = Vec::new();
    let mut grants: Vec<Grant> = Vec::new();
    let mut compared = 0;
    // A few hot outputs keep contention high at every radix.
    let hot = radix.min(4);
    for cycle in 0..cycles {
        // Releases first, as a switch cycle's release beat precedes its
        // arbitration; each held connection ends with probability 1/3.
        for input in 0..radix {
            let held = lists.connection(InputId::new(input));
            assert_eq!(
                ranks.connection(InputId::new(input)),
                held,
                "radix {radix} cycle {cycle} input {input}"
            );
            if held.is_some() && rng.gen_bool(1.0 / 3.0) {
                ranks.release(InputId::new(input));
                lists.release(InputId::new(input));
            }
        }
        // Requests from busy and idle inputs alike, sometimes twice
        // from one input (the first counts), mostly to the hot outputs.
        requests.clear();
        for input in 0..radix {
            for _ in 0..rng.gen_range(0..3usize) {
                let output = if rng.gen_bool(0.7) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..radix)
                };
                requests.push(Request::new(InputId::new(input), OutputId::new(output)));
            }
        }
        // Present the requests in a shuffled order.
        for i in (1..requests.len()).rev() {
            requests.swap(i, rng.gen_range(0..i + 1));
        }
        ranks.arbitrate_into(&requests, &mut grants);
        let expected = lists.arbitrate(&requests);
        assert_eq!(grants, expected, "radix {radix} cycle {cycle}");
        compared += grants.len();
    }
    compared
}

#[test]
fn switch2d_ranks_grant_as_explicit_priority_lists() {
    let mut compared = 0;
    for (radix, cycles) in [
        (1usize, 20_000u64),
        (3, 20_000),
        (8, 20_000),
        (64, 5_000),
        (65, 5_000),
        (130, 2_000),
        (300, 1_000),
    ] {
        compared += co_step(radix, cycles, 0x7A4C_0000 + radix as u64);
    }
    assert!(compared > 100_000, "only {compared} grants compared");
}
