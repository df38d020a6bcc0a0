//! What switch-state locality costs arbitration: the same two-request
//! arbitrations on radix-32 Hi-Rise switches (4 layers, c = 2, the
//! wafer dragonfly's router), timed on one hot switch and rotating over
//! 1,027 switches, the way the wafer's routers take turns. The rotating
//! case reads each switch's state from memory rather than cache, so the
//! gap between the two is what a switch's memory layout costs.
//!
//! ```sh
//! cargo run --release --example arbitration_locality
//! ```

use std::time::Instant;

use hirise::core::{Fabric, HiRiseConfig, HiRiseSwitch, InputId, OutputId, Request};

/// Routers of the wafer-scale dragonfly.
const SWITCHES: usize = 1_027;
const CALLS: usize = 3_000_000;
const RADIX: usize = 32;

fn main() {
    let cfg = HiRiseConfig::builder(RADIX, 4)
        .channel_multiplicity(2)
        .build()
        .expect("32x4 c2 is a valid Hi-Rise configuration");
    let mut switches: Vec<HiRiseSwitch> = (0..SWITCHES).map(|_| HiRiseSwitch::new(&cfg)).collect();
    let mut grants = Vec::with_capacity(RADIX);
    println!("two-request arbitrations on radix-32 Hi-Rise 32x4 c2, release included");
    for (label, rotate) in [("hot (one switch)", false), ("rotating over 1,027", true)] {
        // The same pseudo-random request stream in both cases.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % RADIX
        };
        let start = Instant::now();
        for call in 0..CALLS {
            let switch = &mut switches[if rotate { call % SWITCHES } else { 0 }];
            let requests = [
                Request::new(InputId::new(next()), OutputId::new(next())),
                Request::new(InputId::new(next()), OutputId::new(next())),
            ];
            switch.arbitrate_into(&requests, &mut grants);
            for grant in &grants {
                switch.release(grant.input);
            }
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
        println!("{label:<22} {ns:>8.1} ns per call");
    }
}
