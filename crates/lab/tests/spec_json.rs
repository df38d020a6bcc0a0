//! Canonical-JSON properties of [`CampaignSpec`]: serialization
//! round-trips exactly, and the content digest is invariant under JSON
//! key reordering and whitespace — the properties that make
//! content-addressed result caching sound (two requests that *mean*
//! the same campaign hash the same, however their JSON was formatted).

use hirise_core::rng::{Rng, SeedableRng, StdRng};
use hirise_core::{
    ArbitrationScheme, ChannelAllocation, HiRiseConfig, LocalArbiterKind, MatchPolicy,
};
use hirise_lab::json::{self, Json};
use hirise_lab::{
    campaign_from_json, CampaignSpec, FabricSpec, FaultSpec, PatternSpec, SimParams, Topology,
};
use std::fmt::Write as _;

// --- scrambler: same JSON document, different text ---------------------

/// Serializes a parsed value back to text with object keys in a
/// seeded-random order and random whitespace between tokens.
fn write_scrambled(value: &Json, rng: &mut StdRng, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Num(n) => {
            // f64 Display is shortest-round-trip, so the reparsed value
            // is bit-identical.
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => json::write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                write_scrambled(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(map) => {
            let mut pairs: Vec<_> = map.iter().collect();
            // Fisher-Yates over the (sorted) pairs.
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..i + 1));
            }
            out.push('{');
            for (i, (key, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                json::write_escaped(out, key);
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                write_scrambled(val, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
}

fn ws(rng: &mut StdRng, out: &mut String) {
    out.push_str(["", " ", "  ", "\n", "\t", " \n "][rng.gen_range(0usize..6)]);
}

fn scramble(text: &str, rng: &mut StdRng) -> String {
    let value = json::parse(text).expect("canonical JSON parses");
    let mut out = String::with_capacity(text.len() * 2);
    write_scrambled(&value, rng, &mut out);
    out
}

// --- random spec generator ---------------------------------------------

fn random_pattern(rng: &mut StdRng) -> PatternSpec {
    match rng.gen_range(0u32..13) {
        0 => PatternSpec::Uniform,
        1 => PatternSpec::Hotspot {
            output: rng.gen_range(0usize..16),
        },
        2 => PatternSpec::Bursty,
        3 => PatternSpec::Transpose,
        4 => PatternSpec::BitComplement,
        5 => PatternSpec::Tornado,
        6 => PatternSpec::NeighborShift,
        7 => PatternSpec::RandomPermutation {
            salt: rng.gen_range(0u64..u64::MAX),
        },
        8 => PatternSpec::InterLayerOnly {
            layers: rng.gen_range(2usize..5),
        },
        9 => PatternSpec::Incast {
            fanin: rng.gen_range(1usize..9),
        },
        10 => PatternSpec::Rpc {
            delay: rng.gen_range(1u64..64),
        },
        11 => PatternSpec::Diurnal {
            period: rng.gen_range(2u64..2_048),
        },
        _ => PatternSpec::WorstCaseL2lc {
            layers: rng.gen_range(2usize..5),
        },
    }
}

fn random_fabric(rng: &mut StdRng) -> FabricSpec {
    match rng.gen_range(0u32..4) {
        0 => FabricSpec::Flat2d {
            radix: [8, 16, 32][rng.gen_range(0usize..3)],
        },
        1 => FabricSpec::Folded {
            radix: 16,
            layers: [2, 4][rng.gen_range(0usize..2)],
        },
        2 => FabricSpec::Matching {
            radix: [8, 16, 32][rng.gen_range(0usize..3)],
            policy: match rng.gen_range(0u32..3) {
                0 => MatchPolicy::Islip {
                    iterations: rng.gen_range(1usize..5),
                },
                1 => MatchPolicy::Eslip {
                    iterations: rng.gen_range(1usize..5),
                },
                _ => MatchPolicy::Wavefront,
            },
        },
        _ => {
            let layers = [2, 4][rng.gen_range(0usize..2)];
            let mut builder =
                HiRiseConfig::builder(16, layers).channel_multiplicity(rng.gen_range(1usize..3));
            if rng.gen_bool(0.5) {
                builder = builder.scheme(
                    [
                        ArbitrationScheme::LayerToLayerLrg,
                        ArbitrationScheme::WeightedLrg,
                        ArbitrationScheme::ClassBased { classes: 2 },
                    ][rng.gen_range(0usize..3)],
                );
            }
            if rng.gen_bool(0.5) {
                builder = builder.allocation(
                    [
                        ChannelAllocation::InputBinned,
                        ChannelAllocation::OutputBinned,
                        ChannelAllocation::PriorityBased,
                    ][rng.gen_range(0usize..3)],
                );
            }
            if rng.gen_bool(0.3) {
                builder = builder.local_arbiter(LocalArbiterKind::RoundRobin);
            }
            FabricSpec::HiRise(builder.build().expect("generated geometry is valid"))
        }
    }
}

fn random_fault(rng: &mut StdRng) -> FaultSpec {
    FaultSpec {
        dead_tsvs: rng.gen_range(0usize..3),
        dead_ports: rng.gen_range(0usize..3),
        dead_crosspoints: rng.gen_range(0usize..5),
        flaky_tsvs: rng.gen_range(0usize..2),
        flake_probability: rng.gen_range(0u32..100) as f64 / 128.0,
        salt: rng.gen_range(0u64..u64::MAX),
    }
}

fn random_spec(round: usize, rng: &mut StdRng) -> CampaignSpec {
    let mut spec = CampaignSpec::new(format!("prop-{round}"))
        .master_seed(rng.gen_range(0u64..u64::MAX))
        .replicates(rng.gen_range(1usize..4));
    if rng.gen_bool(0.2) {
        spec = spec.topology(Topology::Mesh {
            cols: rng.gen_range(2usize..5),
            rows: rng.gen_range(2usize..5),
            ports_per_direction: rng.gen_range(1usize..3),
            layer_aware: if rng.gen_bool(0.5) { Some(4) } else { None },
        });
    }
    for _ in 0..rng.gen_range(1usize..3) {
        spec = spec.fabric(random_fabric(rng));
    }
    if rng.gen_bool(0.4) {
        spec = spec.scheme(ArbitrationScheme::WeightedLrg);
        spec = spec.scheme(ArbitrationScheme::ClassBased { classes: 2 });
    }
    if rng.gen_bool(0.4) {
        spec = spec.allocation(ChannelAllocation::OutputBinned);
    }
    for _ in 0..rng.gen_range(1usize..4) {
        spec = spec.pattern(random_pattern(rng));
    }
    let loads: Vec<f64> = (0..rng.gen_range(1usize..4))
        .map(|_| rng.gen_range(1u32..1000) as f64 / 1000.0)
        .collect();
    spec = spec.loads(loads);
    for _ in 0..rng.gen_range(0usize..3) {
        spec = spec.fault(random_fault(rng));
    }
    let mut sim = SimParams::new().cycles(
        rng.gen_range(0u64..5_000),
        rng.gen_range(1u64..50_000),
        rng.gen_range(0u64..50_000),
    );
    sim.vcs = rng.gen_range(1usize..8);
    sim.vc_depth_flits = rng.gen_range(1usize..8);
    sim.packet_len_flits = rng.gen_range(1usize..8);
    // A single-switch packet must fit one VC buffer (the parser rejects
    // the rest); the network engine does not read the VC depth.
    if spec.topology == Topology::SingleSwitch {
        sim.vc_depth_flits = sim.vc_depth_flits.max(sim.packet_len_flits);
    }
    if rng.gen_bool(0.3) {
        sim = sim.window(Some(rng.gen_range(1usize..16)));
    }
    sim = sim.record_invariants(rng.gen_bool(0.5));
    // Keep every router of a mesh with cores, and only the patterns its
    // fabrics' endpoints can carry (the parser rejects the rest).
    if let Topology::Mesh {
        ports_per_direction,
        ..
    } = &mut spec.topology
    {
        if spec
            .fabrics
            .iter()
            .any(|f| f.radix() <= 4 * *ports_per_direction)
        {
            *ports_per_direction = 1;
        }
    }
    let patterns = std::mem::take(&mut spec.patterns);
    spec.patterns = patterns
        .into_iter()
        .filter(|p| {
            spec.fabrics
                .iter()
                .all(|f| p.check(spec.endpoints(f).expect("cores")).is_ok())
        })
        .collect();
    if spec.patterns.is_empty() {
        spec.patterns.push(PatternSpec::Uniform);
    }
    spec.sim(sim)
}

// --- properties ---------------------------------------------------------

/// Seeded property: for random campaigns across every axis, parsing
/// the canonical JSON reproduces the spec exactly (same digest, same
/// canonical bytes).
#[test]
fn random_specs_round_trip_through_canonical_json() {
    let mut rng = StdRng::seed_from_u64(0x5EC1_A11B);
    for round in 0..60 {
        let spec = random_spec(round, &mut rng);
        let text = spec.canonical_json();
        let parsed = campaign_from_json(&text)
            .unwrap_or_else(|e| panic!("round {round}: canonical JSON rejected: {e}\n{text}"));
        assert_eq!(parsed, spec, "round {round}");
        assert_eq!(parsed.digest(), spec.digest(), "round {round}");
        assert_eq!(parsed.canonical_json(), text, "round {round}");
    }
}

/// Seeded property: the digest is invariant under JSON key reordering
/// and whitespace — scrambled text parses to an equal spec with an
/// equal digest and equal per-job cache keys.
#[test]
fn digest_is_invariant_under_key_order_and_whitespace() {
    let mut rng = StdRng::seed_from_u64(0xD16E_57AB);
    let mut some_text_differed = false;
    for round in 0..60 {
        let spec = random_spec(round, &mut rng);
        let canonical = spec.canonical_json();
        let scrambled = scramble(&canonical, &mut rng);
        some_text_differed |= scrambled != canonical;
        let parsed = campaign_from_json(&scrambled)
            .unwrap_or_else(|e| panic!("round {round}: scrambled JSON rejected: {e}\n{scrambled}"));
        assert_eq!(parsed, spec, "round {round}\n{scrambled}");
        assert_eq!(parsed.digest(), spec.digest(), "round {round}");
        // The job-level cache identity is equally format-independent.
        let (jobs_a, jobs_b) = (spec.jobs(), parsed.jobs());
        assert_eq!(jobs_a.len(), jobs_b.len(), "round {round}");
        for (a, b) in jobs_a.iter().zip(&jobs_b) {
            assert_eq!(
                spec.job_key_json(a),
                parsed.job_key_json(b),
                "round {round}"
            );
        }
    }
    assert!(
        some_text_differed,
        "scrambler never changed the text; the property is vacuous"
    );
}

/// A hand-written (non-random) pin of the same invariant, so a failure
/// prints a minimal reproducible case.
#[test]
fn reordered_and_reformatted_text_parses_to_the_same_digest() {
    let canonical = CampaignSpec::new("pin")
        .master_seed(7)
        .fabric(FabricSpec::Flat2d { radix: 8 })
        .pattern(PatternSpec::Uniform)
        .loads([0.25]);
    let reformatted = concat!(
        "{\n",
        "  \"loads\": [ 0.25 ],\n",
        "  \"patterns\": [\"uniform\"],\n",
        "  \"fabrics\": [ { \"radix\": 8, \"kind\": \"2d\" } ],\n",
        "  \"master_seed\": 7,\n",
        "  \"name\": \"pin\"\n",
        "}"
    );
    let parsed = campaign_from_json(reformatted).unwrap();
    assert_eq!(parsed, canonical);
    assert_eq!(parsed.digest(), canonical.digest());
}
