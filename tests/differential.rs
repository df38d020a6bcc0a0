//! Differential acceptance suite: every fabric in the standard fleet
//! (golden-model crossbar, 2D Swizzle, 3D folded, Hi-Rise under
//! L-2-L LRG / WLRG / CLRG at channel multiplicities 1 and 2, and the
//! iterative-matching schedulers iSLIP/ESLIP/wavefront) is co-stepped
//! for at least ten thousand randomized cycles, with zero
//! grant-legality or delivery-equivalence violations, and the full
//! simulator's invariant checker is held on for ten thousand cycles per
//! arbitration scheme.

use hirise::core::rng::{SeedableRng, StdRng};
use hirise::core::{
    ArbiterKernel, ArbitrationScheme, Fabric, FoldedSwitch, HiRiseConfig, HiRiseSwitch,
    MatchPolicy, MatchingSwitch, Switch2d,
};
use hirise::sim::diff::{check_arbitrate_into_equivalence, run_schedule, standard_fleet, Schedule};
use hirise::sim::traffic::UniformRandom;
use hirise::sim::{NetworkSim, SimConfig};

/// Co-steps every fleet member through identical random schedules until
/// each has simulated >= 10k cycles, asserting per-cycle grant legality
/// (inside `run_schedule`) and end-of-run delivery-set equivalence
/// against the golden model.
#[test]
fn fleet_co_steps_ten_thousand_cycles_against_golden_model() {
    const TARGET_CYCLES: u64 = 10_000;
    let fleet = standard_fleet();
    let mut cycles = vec![0u64; fleet.len()];
    let mut round = 0u64;
    while cycles.iter().any(|&c| c < TARGET_CYCLES) {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0000 + round);
        let schedule = Schedule::random(&mut rng, 16, 200, 0.15, 4);
        let mut golden: Option<Vec<usize>> = None;
        for (index, (name, build)) in fleet.iter().enumerate() {
            let mut fabric = build(16);
            let outcome = run_schedule(&mut fabric, &schedule)
                .unwrap_or_else(|violation| panic!("round {round}, {name}: {violation}"));
            cycles[index] += outcome.cycles;
            let mut delivered = outcome.delivered.clone();
            delivered.sort_unstable();
            match &golden {
                None => golden = Some(delivered),
                Some(reference) => assert_eq!(
                    &delivered, reference,
                    "round {round}: {name} delivered a different packet set \
                     than the golden model"
                ),
            }
        }
        round += 1;
    }
    for ((name, _), simulated) in fleet.iter().zip(&cycles) {
        assert!(
            *simulated >= TARGET_CYCLES,
            "{name}: only {simulated} cycles co-stepped"
        );
    }
}

/// The allocating [`Fabric::arbitrate`] and the buffer-reusing
/// [`Fabric::arbitrate_into`] entry points must produce bit-identical
/// grant vectors: twin instances of every fleet member (covering all
/// three Hi-Rise arbitration schemes at two channel multiplicities plus
/// both baselines) are co-stepped through identical fuzzed schedules for
/// >= 10k cycles each, diverging nowhere.
#[test]
fn arbitrate_into_matches_arbitrate_for_ten_thousand_cycles() {
    const TARGET_CYCLES: u64 = 10_000;
    let fleet = standard_fleet();
    let mut cycles = vec![0u64; fleet.len()];
    let mut round = 0u64;
    while cycles.iter().any(|&c| c < TARGET_CYCLES) {
        let mut rng = StdRng::seed_from_u64(0x1AB0_0000 + round);
        let schedule = Schedule::random(&mut rng, 16, 200, 0.15, 4);
        for (index, (name, build)) in fleet.iter().enumerate() {
            let compared = check_arbitrate_into_equivalence(*build, &schedule)
                .unwrap_or_else(|divergence| panic!("round {round}, {name}: {divergence}"));
            cycles[index] += compared;
        }
        round += 1;
    }
    for ((name, _), compared) in fleet.iter().zip(&cycles) {
        assert!(
            *compared >= TARGET_CYCLES,
            "{name}: only {compared} cycles compared"
        );
    }
}

/// Adversarial fixed patterns: single hotspot (all inputs to one
/// output) and a full permutation, checked across the whole fleet.
#[test]
fn hotspot_and_permutation_schedules_agree() {
    let hotspot = Schedule {
        radix: 16,
        packets: (0..16)
            .map(|src| hirise::sim::SchedPacket {
                inject_cycle: 0,
                src,
                dst: 9,
                len_flits: 4,
            })
            .collect(),
    };
    let permutation = Schedule {
        radix: 16,
        packets: (0..16)
            .map(|src| hirise::sim::SchedPacket {
                inject_cycle: 0,
                src,
                dst: (src + 5) % 16,
                len_flits: 4,
            })
            .collect(),
    };
    for schedule in [&hotspot, &permutation] {
        for (name, build) in standard_fleet() {
            let mut fabric = build(16);
            let outcome = run_schedule(&mut fabric, schedule)
                .unwrap_or_else(|violation| panic!("{name}: {violation}"));
            assert_eq!(outcome.delivered.len(), 16, "{name}");
        }
    }
}

/// Co-steps a fault-free fabric against a twin with the fault machinery
/// enabled and loaded with only zero-probability flaky faults, demanding
/// bit-identical grant vectors every cycle. Returns cycles compared.
///
/// The engine mirrors `check_arbitrate_into_equivalence`'s cycle loop:
/// winners hold their connection for `len_flits` beats plus a release
/// beat, and the run stops at the schedule deadline.
fn co_step_zero_fault_twin(
    name: &str,
    build: fn(usize) -> Box<dyn hirise::core::Fabric>,
    schedule: &Schedule,
) -> u64 {
    use hirise::core::{Fabric, Fault, FaultSite, Grant, InputId, OutputId, Request};
    use std::collections::VecDeque;

    let radix = schedule.radix;
    let mut vanilla = build(radix);
    let mut faulty = build(radix);
    faulty
        .enable_faults(0xFA17_0000)
        .unwrap_or_else(|e| panic!("{name}: fault injection unsupported: {e}"));
    // Zero-probability flaky faults never take a resource down, so the
    // twin must behave exactly like the fault-free fabric — but the
    // masking and per-cycle resampling code paths are all live.
    let mut sites = vec![
        FaultSite::Port { input: 0 },
        FaultSite::Crosspoint {
            input: 0,
            output: 1,
        },
    ];
    if faulty.tsv_bundle_count() > 0 {
        sites.push(FaultSite::TsvBundle { index: 0 });
    }
    for site in sites {
        faulty
            .inject_fault(Fault::flaky(site, 0.0))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    let deadline = schedule.deadline();
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); radix];
    let mut next_packet = 0usize;
    let mut by_cycle: Vec<usize> = (0..schedule.packets.len()).collect();
    by_cycle.sort_by_key(|&i| schedule.packets[i].inject_cycle);

    let mut transfers: Vec<Option<(usize, usize)>> = vec![None; radix];
    let mut delivered = 0usize;
    let mut grants_vanilla: Vec<Grant> = Vec::new();
    let mut grants_faulty: Vec<Grant> = Vec::new();
    let mut now = 0u64;

    while delivered < schedule.packets.len() && now <= deadline {
        for (input, transfer) in transfers.iter_mut().enumerate() {
            if let Some((_, flits)) = transfer {
                if *flits > 0 {
                    *flits -= 1;
                    if *flits == 0 {
                        delivered += 1;
                    }
                } else {
                    vanilla.release(InputId::new(input));
                    faulty.release(InputId::new(input));
                    *transfer = None;
                }
            }
        }

        while next_packet < by_cycle.len()
            && schedule.packets[by_cycle[next_packet]].inject_cycle <= now
        {
            let index = by_cycle[next_packet];
            queues[schedule.packets[index].src].push_back(index);
            next_packet += 1;
        }

        let mut requests = Vec::new();
        for (input, queue) in queues.iter().enumerate() {
            if transfers[input].is_some() {
                continue;
            }
            if let Some(&index) = queue.front() {
                requests.push(Request::new(
                    InputId::new(input),
                    OutputId::new(schedule.packets[index].dst),
                ));
            }
        }

        vanilla.arbitrate_into(&requests, &mut grants_vanilla);
        faulty.arbitrate_into(&requests, &mut grants_faulty);
        assert_eq!(
            grants_vanilla, grants_faulty,
            "{name}: cycle {now}: zero-probability faults perturbed arbitration"
        );

        for grant in &grants_vanilla {
            let input = grant.input.index();
            let index = queues[input]
                .pop_front()
                .expect("granted input has a queued packet");
            transfers[input] = Some((index, schedule.packets[index].len_flits));
        }

        now += 1;
    }
    now
}

/// A fabric whose fault layer holds only zero-probability flaky faults
/// must be bit-identical to a fault-free twin: every fabric that models
/// faults (all but the golden reference) is co-stepped for >= 10k cycles
/// of randomized traffic with identical grant vectors demanded per cycle.
#[test]
fn zero_probability_faults_are_bit_identical_to_fault_free() {
    const TARGET_CYCLES: u64 = 10_000;
    let fleet: Vec<_> = standard_fleet()
        .into_iter()
        .filter(|(name, _)| name != "ref")
        .collect();
    let mut cycles = vec![0u64; fleet.len()];
    let mut round = 0u64;
    while cycles.iter().any(|&c| c < TARGET_CYCLES) {
        let mut rng = StdRng::seed_from_u64(0xFA17_0000 + round);
        let schedule = Schedule::random(&mut rng, 16, 200, 0.15, 4);
        for (index, (name, build)) in fleet.iter().enumerate() {
            cycles[index] += co_step_zero_fault_twin(name, *build, &schedule);
        }
        round += 1;
    }
    for ((name, _), compared) in fleet.iter().zip(&cycles) {
        assert!(
            *compared >= TARGET_CYCLES,
            "{name}: only {compared} cycles compared"
        );
    }
}

/// The kernel-twin fleet: every fabric at one radix, built under the
/// given arbitration kernel. Hi-Rise appears once per arbitration
/// scheme, so the word kernels for L-2-L LRG, WLRG and CLRG are all
/// pinned against their scalar references.
fn kernel_fleet(radix: usize, kernel: ArbiterKernel) -> Vec<(String, Box<dyn Fabric>)> {
    let mut fleet: Vec<(String, Box<dyn Fabric>)> = vec![
        (
            format!("switch2d-{radix}"),
            Box::new(Switch2d::with_kernel(radix, kernel)),
        ),
        (
            format!("folded3d-{radix}"),
            Box::new(FoldedSwitch::with_kernel(radix, 4, 128, kernel)),
        ),
    ];
    for (label, scheme) in [
        ("lrg", ArbitrationScheme::LayerToLayerLrg),
        ("wlrg", ArbitrationScheme::WeightedLrg),
        ("clrg", ArbitrationScheme::class_based()),
    ] {
        let cfg = HiRiseConfig::builder(radix, 4)
            .channel_multiplicity(4)
            .scheme(scheme)
            .build()
            .expect("valid Hi-Rise configuration");
        fleet.push((
            format!("hirise-{label}-{radix}"),
            Box::new(HiRiseSwitch::with_kernel(&cfg, kernel)),
        ));
    }
    for (label, policy) in [
        ("islip1", MatchPolicy::Islip { iterations: 1 }),
        ("islip2", MatchPolicy::Islip { iterations: 2 }),
        ("islip4", MatchPolicy::Islip { iterations: 4 }),
        ("eslip", MatchPolicy::Eslip { iterations: 2 }),
        ("wavefront", MatchPolicy::Wavefront),
    ] {
        fleet.push((
            format!("{label}-{radix}"),
            Box::new(MatchingSwitch::with_kernel(radix, policy, kernel)),
        ));
    }
    fleet
}

/// Co-steps a scalar-kernel fabric against its word-kernel twin through
/// one schedule, demanding bit-identical grant vectors every cycle.
/// With `faults`, both twins get the same fault plan under the same
/// seed — nonzero-probability flaky faults, so resources genuinely go
/// down and recover mid-run — which must perturb both kernels
/// identically. Returns cycles compared.
fn co_step_kernel_twins(
    name: &str,
    scalar: &mut Box<dyn Fabric>,
    word: &mut Box<dyn Fabric>,
    schedule: &Schedule,
    faults: bool,
) -> u64 {
    use hirise::core::{Fault, FaultSite, Grant, InputId, OutputId, Request};
    use std::collections::VecDeque;

    let radix = schedule.radix;
    if faults {
        for twin in [&mut *scalar, &mut *word] {
            twin.enable_faults(0x7317_F417)
                .unwrap_or_else(|e| panic!("{name}: fault injection unsupported: {e}"));
            let mut sites = vec![
                FaultSite::Port { input: 1 },
                FaultSite::Crosspoint {
                    input: 0,
                    output: 2,
                },
            ];
            if twin.tsv_bundle_count() > 0 {
                sites.push(FaultSite::TsvBundle { index: 0 });
            }
            for site in sites {
                twin.inject_fault(Fault::flaky(site, 0.3))
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    let deadline = schedule.deadline();
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); radix];
    let mut next_packet = 0usize;
    let mut by_cycle: Vec<usize> = (0..schedule.packets.len()).collect();
    by_cycle.sort_by_key(|&i| schedule.packets[i].inject_cycle);

    let mut transfers: Vec<Option<(usize, usize)>> = vec![None; radix];
    let mut delivered = 0usize;
    let mut grants_scalar: Vec<Grant> = Vec::new();
    let mut grants_word: Vec<Grant> = Vec::new();
    let mut now = 0u64;

    while delivered < schedule.packets.len() && now <= deadline {
        for (input, transfer) in transfers.iter_mut().enumerate() {
            if let Some((_, flits)) = transfer {
                if *flits > 0 {
                    *flits -= 1;
                    if *flits == 0 {
                        delivered += 1;
                    }
                } else {
                    scalar.release(InputId::new(input));
                    word.release(InputId::new(input));
                    *transfer = None;
                }
            }
        }

        while next_packet < by_cycle.len()
            && schedule.packets[by_cycle[next_packet]].inject_cycle <= now
        {
            let index = by_cycle[next_packet];
            queues[schedule.packets[index].src].push_back(index);
            next_packet += 1;
        }

        let mut requests = Vec::new();
        for (input, queue) in queues.iter().enumerate() {
            if transfers[input].is_some() {
                continue;
            }
            if let Some(&index) = queue.front() {
                requests.push(Request::new(
                    InputId::new(input),
                    OutputId::new(schedule.packets[index].dst),
                ));
            }
        }

        scalar.arbitrate_into(&requests, &mut grants_scalar);
        word.arbitrate_into(&requests, &mut grants_word);
        assert_eq!(
            grants_scalar, grants_word,
            "{name}: cycle {now}: scalar and word kernels diverged"
        );

        for grant in &grants_scalar {
            let input = grant.input.index();
            let index = queues[input]
                .pop_front()
                .expect("granted input has a queued packet");
            transfers[input] = Some((index, schedule.packets[index].len_flits));
        }

        now += 1;
    }
    now
}

/// The word-parallel arbitration kernels must be grant-for-grant
/// identical to the scalar reference loops: twin instances of every
/// fabric — both baselines plus Hi-Rise under all three arbitration
/// schemes — at radix 16, 32 and 64 are co-stepped through identical
/// randomized schedules for >= 10k cycles per fabric × scheme × radix.
#[test]
fn word_kernel_matches_scalar_kernel_across_fabrics_and_radices() {
    const TARGET_CYCLES: u64 = 10_000;
    for radix in [16usize, 32, 64] {
        let mut scalars = kernel_fleet(radix, ArbiterKernel::Scalar);
        let mut words = kernel_fleet(radix, ArbiterKernel::Word);
        let mut cycles = vec![0u64; scalars.len()];
        let mut round = 0u64;
        while cycles.iter().any(|&c| c < TARGET_CYCLES) {
            let mut rng = StdRng::seed_from_u64(0x5CA1AB1E + round);
            let schedule = Schedule::random(&mut rng, radix, 200, 0.15, 4);
            for (index, ((name, scalar), (_, word))) in
                scalars.iter_mut().zip(words.iter_mut()).enumerate()
            {
                cycles[index] += co_step_kernel_twins(name, scalar, word, &schedule, false);
            }
            round += 1;
        }
        for ((name, _), compared) in scalars.iter().zip(&cycles) {
            assert!(
                *compared >= TARGET_CYCLES,
                "{name}: only {compared} cycles compared"
            );
        }
    }
}

/// As above, but with live fault injection: the twins share a fault
/// seed and plan, so ports, crosspoints and TSV bundles flap
/// identically under both kernels, and the masked-request word paths
/// must agree with the scalar loops cycle by cycle for >= 10k cycles
/// per fabric × radix.
#[test]
fn word_kernel_matches_scalar_kernel_under_faults() {
    const TARGET_CYCLES: u64 = 10_000;
    for radix in [16usize, 32, 64] {
        let mut scalars = kernel_fleet(radix, ArbiterKernel::Scalar);
        let mut words = kernel_fleet(radix, ArbiterKernel::Word);
        let mut cycles = vec![0u64; scalars.len()];
        let mut round = 0u64;
        while cycles.iter().any(|&c| c < TARGET_CYCLES) {
            let mut rng = StdRng::seed_from_u64(0xFA17_5CA1 + round);
            let schedule = Schedule::random(&mut rng, radix, 200, 0.15, 4);
            for (index, ((name, scalar), (_, word))) in
                scalars.iter_mut().zip(words.iter_mut()).enumerate()
            {
                cycles[index] += co_step_kernel_twins(name, scalar, word, &schedule, true);
            }
            round += 1;
        }
        for ((name, _), compared) in scalars.iter().zip(&cycles) {
            assert!(
                *compared >= TARGET_CYCLES,
                "{name}: only {compared} cycles compared"
            );
        }
    }
}

/// The iterative-matching schedulers specifically, co-stepped against
/// the golden model at every standard radix (the fleet-wide test above
/// only runs radix 16): iSLIP at 1/2/4 iterations, ESLIP and wavefront
/// each simulate >= 10k randomized cycles at radix 16, 32 and 64 with
/// per-cycle grant legality and delivery-set equivalence enforced.
#[test]
fn matching_fabrics_co_step_golden_model_at_every_radix() {
    use hirise::sim::diff::RefSwitch;

    const TARGET_CYCLES: u64 = 10_000;
    type BuildFabric = fn(usize) -> Box<dyn Fabric>;
    let fleet: Vec<(&str, BuildFabric)> = vec![
        ("islip1", |r| Box::new(MatchingSwitch::islip(r, 1))),
        ("islip2", |r| Box::new(MatchingSwitch::islip(r, 2))),
        ("islip4", |r| Box::new(MatchingSwitch::islip(r, 4))),
        ("eslip", |r| Box::new(MatchingSwitch::eslip(r, 2))),
        ("wavefront", |r| Box::new(MatchingSwitch::wavefront(r))),
    ];
    for radix in [16usize, 32, 64] {
        let mut cycles = vec![0u64; fleet.len()];
        let mut round = 0u64;
        while cycles.iter().any(|&c| c < TARGET_CYCLES) {
            let mut rng = StdRng::seed_from_u64(0x3354_1000 + radix as u64 * 1_000 + round);
            let schedule = Schedule::random(&mut rng, radix, 200, 0.15, 4);
            let mut golden = Box::new(RefSwitch::new(radix)) as Box<dyn Fabric>;
            let reference = run_schedule(&mut golden, &schedule).unwrap_or_else(|violation| {
                panic!("radix {radix} round {round}: ref: {violation}")
            });
            let mut reference_delivered = reference.delivered.clone();
            reference_delivered.sort_unstable();
            for (index, (name, build)) in fleet.iter().enumerate() {
                let mut fabric = build(radix);
                let outcome = run_schedule(&mut fabric, &schedule).unwrap_or_else(|violation| {
                    panic!("radix {radix} round {round}, {name}: {violation}")
                });
                cycles[index] += outcome.cycles;
                let mut delivered = outcome.delivered.clone();
                delivered.sort_unstable();
                assert_eq!(
                    delivered, reference_delivered,
                    "radix {radix} round {round}: {name} delivered a different \
                     packet set than the golden model"
                );
            }
            round += 1;
        }
        for ((name, _), simulated) in fleet.iter().zip(&cycles) {
            assert!(
                *simulated >= TARGET_CYCLES,
                "{name} radix {radix}: only {simulated} cycles co-stepped"
            );
        }
    }
}

/// The full simulator runs 10k cycles per arbitration scheme (plus the
/// two baseline fabrics) with the per-cycle invariant checker forced on:
/// flit conservation, buffer bounds, FIFO-lane order, grant legality.
#[test]
fn invariant_checker_clean_for_ten_thousand_cycles_per_scheme() {
    let sim_cfg = || {
        SimConfig::new(16)
            .injection_rate(0.15)
            .warmup(0)
            .measure(10_000)
            .drain(2_000)
            .check_invariants(true)
    };
    let audit = |checker: Option<&hirise::sim::InvariantChecker>, label: &str| {
        let checker = checker.expect("checker was forced on");
        assert!(
            checker.cycles_checked() >= 10_000,
            "{label}: only {} cycles audited",
            checker.cycles_checked()
        );
        assert!(
            checker.injected_packets() > 0,
            "{label}: no traffic simulated"
        );
    };

    for scheme in [
        ArbitrationScheme::LayerToLayerLrg,
        ArbitrationScheme::WeightedLrg,
        ArbitrationScheme::class_based(),
    ] {
        let cfg = HiRiseConfig::builder(16, 4)
            .scheme(scheme)
            .build()
            .expect("valid configuration");
        let mut sim = NetworkSim::new(HiRiseSwitch::new(&cfg), UniformRandom::new(16), sim_cfg());
        sim.run();
        audit(sim.checker(), &format!("hirise {scheme:?}"));
    }

    let mut sim = NetworkSim::new(Switch2d::new(16), UniformRandom::new(16), sim_cfg());
    sim.run();
    audit(sim.checker(), "switch2d");

    let mut sim = NetworkSim::new(FoldedSwitch::new(16, 4), UniformRandom::new(16), sim_cfg());
    sim.run();
    audit(sim.checker(), "folded");
}
