//! CI smoke checks for the campaign runner.
//!
//! Default mode runs a small three-fabric × two-pattern × two-load
//! campaign on two threads, writes its JSONL telemetry, then re-reads
//! and validates every line — exercising the whole spec → runner →
//! sink → parser path in a few seconds.
//!
//! `--faults` runs a tiny campaign over all four fabric families with
//! a fault axis (fault-free plus one dead TSV bundle) under uniform and
//! RPC traffic at 1, 2 and 8 threads, asserts the three JSONL files are
//! byte-identical, and checks every faulty record stayed
//! invariant-clean while still delivering traffic.
//!
//! `--shards` runs small mesh and dragonfly campaigns (each with a
//! fault axis) once per shard count and asserts the JSONL files —
//! headers included, since the digest excludes the shard knob — are
//! byte-for-byte identical: the CI gate on the sharded engine's
//! determinism contract.
//!
//! Usage: `lab_smoke [--threads N] [--out PATH] [--faults | --shards]`

use hirise_core::{HiRiseConfig, MatchPolicy};
use hirise_lab::args::{arg_error, flag_value, parse_flag_value};
use hirise_lab::{
    json, CampaignSpec, FabricSpec, FaultSpec, PatternSpec, Silent, SimParams, Stderr, Topology,
};
use std::path::PathBuf;
use std::time::Instant;

/// Runtime failures (unwritable output path, torn telemetry, a record
/// that does not validate) are operator-visible errors, not program
/// bugs: report them plainly and exit 1 instead of panicking.
fn fail(what: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}");
    std::process::exit(1);
}

const USAGE: &str = "lab_smoke [--threads N] [--out PATH] [--faults | --shards]";

enum Mode {
    Smoke,
    Faults,
    Shards,
}

fn parse_args() -> (usize, PathBuf, Mode) {
    let mut threads = 2;
    let mut out =
        std::env::temp_dir().join(format!("hirise-lab-smoke-{}.jsonl", std::process::id()));
    let mut mode = Mode::Smoke;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = parse_flag_value(
                    "--threads",
                    &flag_value("--threads", &mut args, USAGE),
                    USAGE,
                );
                if threads == 0 {
                    arg_error("--threads needs a positive integer", USAGE);
                }
            }
            "--out" => {
                out = PathBuf::from(flag_value("--out", &mut args, USAGE));
            }
            "--faults" => mode = Mode::Faults,
            "--shards" => mode = Mode::Shards,
            other => arg_error(format!("unknown argument {other:?}"), USAGE),
        }
    }
    (threads, out, mode)
}

/// Validates a finalized campaign file: the header and every record
/// must parse, record count must match, and job indices must be 0..n.
fn validate_jsonl(path: &std::path::Path, expected_jobs: usize) {
    let content = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read telemetry {}: {e}", path.display())));
    let mut lines = content.lines();
    let header = lines
        .next()
        .unwrap_or_else(|| fail("telemetry file is empty"));
    let header = json::parse(header).unwrap_or_else(|e| fail(format!("bad header line: {e}")));
    assert_eq!(
        header.get("jobs").and_then(json::Json::as_u64),
        Some(expected_jobs as u64),
        "header job count"
    );
    let mut count = 0usize;
    for line in lines {
        let record =
            json::parse(line).unwrap_or_else(|e| fail(format!("record {count} is torn: {e}")));
        assert_eq!(
            record.get("job").and_then(json::Json::as_u64),
            Some(count as u64),
            "records are sorted by job index"
        );
        for field in ["accepted_rate", "avg_latency_cycles", "violations", "hist"] {
            assert!(record.get(field).is_some(), "record has {field}");
        }
        count += 1;
    }
    assert_eq!(count, expected_jobs, "one record per job");
}

fn smoke(threads: usize, out: PathBuf) {
    let spec = CampaignSpec::new("ci-smoke")
        .fabric(FabricSpec::Flat2d { radix: 16 })
        .fabric(FabricSpec::hirise(
            HiRiseConfig::builder(16, 2)
                .channel_multiplicity(2)
                .build()
                .unwrap_or_else(|e| fail(format!("invalid built-in configuration: {e}"))),
        ))
        .fabric(FabricSpec::Matching {
            radix: 16,
            policy: MatchPolicy::Islip { iterations: 2 },
        })
        .pattern(PatternSpec::Uniform)
        .pattern(PatternSpec::Incast { fanin: 4 })
        .loads([0.05, 0.15])
        .sim(SimParams::quick());
    let jobs = spec.jobs().len();
    let _ = std::fs::remove_file(&out);

    let start = Instant::now();
    let outcome = spec
        .run_to_file(&out, threads, &Stderr)
        .unwrap_or_else(|e| fail(format!("campaign failed: {e}")));
    assert_eq!(outcome.ran, jobs);
    validate_jsonl(&out, jobs);
    println!(
        "smoke ok: {jobs} jobs on {threads} threads in {:.2}s, telemetry at {}",
        start.elapsed().as_secs_f64(),
        out.display()
    );
}

/// A tiny fault campaign across all four fabric families — fault-free
/// plus one dead TSV bundle — run at 1, 2 and 8 threads, under uniform
/// and RPC request/response traffic. Asserts the three JSONL files are
/// byte-identical (fault sampling and the RPC schedule are pure
/// functions of the job seed), every record is invariant-clean with
/// nonzero deliveries, and the fabrics that model TSVs actually logged
/// fault events.
fn faults(out: PathBuf) {
    let spec = CampaignSpec::new("fault-smoke")
        .fabric(FabricSpec::Flat2d { radix: 16 })
        .fabric(FabricSpec::Folded {
            radix: 16,
            layers: 4,
        })
        .fabric(FabricSpec::hirise(
            HiRiseConfig::builder(16, 4)
                .channel_multiplicity(2)
                .build()
                .unwrap_or_else(|e| fail(format!("invalid built-in configuration: {e}"))),
        ))
        .fabric(FabricSpec::Matching {
            radix: 16,
            policy: MatchPolicy::Islip { iterations: 2 },
        })
        .pattern(PatternSpec::Uniform)
        .pattern(PatternSpec::Rpc { delay: 8 })
        .loads([0.1])
        .fault(FaultSpec::none())
        .fault(FaultSpec::dead_tsv_bundles(1))
        .sim(SimParams::quick());
    let jobs = spec.jobs().len();

    let start = Instant::now();
    let mut reference: Option<Vec<u8>> = None;
    for threads in [1usize, 2, 8] {
        let path = out.with_extension(format!("faults-t{threads}.jsonl"));
        let _ = std::fs::remove_file(&path);
        spec.run_to_file(&path, threads, &Silent)
            .unwrap_or_else(|e| fail(format!("fault campaign failed: {e}")));
        validate_jsonl(&path, jobs);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| fail(format!("cannot read fault telemetry: {e}")));
        if let Some(reference) = &reference {
            assert_eq!(
                reference, &bytes,
                "fault-campaign JSONL must be byte-identical at any thread count"
            );
        } else {
            reference = Some(bytes);
        }
        let _ = std::fs::remove_file(&path);
    }

    let reference = reference.unwrap_or_else(|| fail("no fault campaign ran"));
    let content = String::from_utf8(reference)
        .unwrap_or_else(|e| fail(format!("telemetry is not UTF-8: {e}")));
    let mut faulty_events = 0u64;
    for line in content.lines().skip(1) {
        let record = json::parse(line).unwrap_or_else(|e| fail(format!("record is torn: {e}")));
        let field_str = |key: &str| {
            record
                .get(key)
                .and_then(json::Json::as_str)
                .unwrap_or_else(|| fail(format!("record is missing {key}: {line}")))
                .to_string()
        };
        let field_u64 = |key: &str| {
            record
                .get(key)
                .and_then(json::Json::as_u64)
                .unwrap_or_else(|| fail(format!("record is missing {key}: {line}")))
        };
        let fabric = field_str("fabric");
        let fault = field_str("fault");
        let violations = field_u64("violations");
        let completed = field_u64("completed");
        assert_eq!(violations, 0, "{fabric}/{fault}: invariant violations");
        assert!(completed > 0, "{fabric}/{fault}: no packets delivered");
        if fault != "none" {
            faulty_events += field_u64("fault_events");
        }
    }
    assert!(
        faulty_events > 0,
        "no fabric logged a fault event under the dead-TSV scenario"
    );
    println!(
        "faults ok: {jobs} jobs x 3 thread counts in {:.2}s, byte-identical, \
         all records clean, {faulty_events} fault events logged",
        start.elapsed().as_secs_f64()
    );
}

/// Sharded campaigns at 1 vs several shard counts: headers and every
/// record must be byte-identical, because the shard knob is excluded
/// from the campaign digest and results are invariant to it. Covers a
/// mesh and a dragonfly, both with a fault axis (per-router faults on
/// the mesh, dead wafer links on the dragonfly).
fn shards(out: PathBuf) {
    let hirise16 = || {
        FabricSpec::hirise(
            HiRiseConfig::builder(16, 2)
                .channel_multiplicity(2)
                .build()
                .unwrap_or_else(|e| fail(format!("invalid built-in configuration: {e}"))),
        )
    };
    let mesh = CampaignSpec::new("shard-smoke-mesh")
        .topology(Topology::Mesh {
            cols: 4,
            rows: 2,
            ports_per_direction: 2,
            layer_aware: None,
        })
        .fabric(hirise16())
        .pattern(PatternSpec::Uniform)
        .pattern(PatternSpec::Incast { fanin: 4 })
        .pattern(PatternSpec::Rpc { delay: 8 })
        .pattern(PatternSpec::Diurnal { period: 64 })
        .loads([0.02])
        .fault(FaultSpec::none())
        .fault(FaultSpec::dead_tsv_bundles(1))
        .sim(SimParams::quick());
    let dragonfly = CampaignSpec::new("shard-smoke-dragonfly")
        .topology(Topology::Dragonfly {
            routers_per_group: 4,
            endpoints_per_router: 4,
            global_per_router: 2,
            groups: 9,
            palmtree: false,
        })
        .fabric(hirise16())
        .pattern(PatternSpec::Uniform)
        .loads([0.02])
        .fault(FaultSpec::dead_tsv_bundles(2))
        .sim(SimParams::quick());

    let start = Instant::now();
    for (name, spec) in [("mesh", mesh), ("dragonfly", dragonfly)] {
        let jobs = spec.jobs().len();
        let mut reference: Option<Vec<u8>> = None;
        for shard_count in [1usize, 2, 8] {
            let path = out.with_extension(format!("{name}-s{shard_count}.jsonl"));
            let _ = std::fs::remove_file(&path);
            spec.clone()
                .shards(shard_count)
                .run_to_file(&path, 2, &Silent)
                .unwrap_or_else(|e| fail(format!("{name} shard campaign failed: {e}")));
            validate_jsonl(&path, jobs);
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| fail(format!("cannot read shard telemetry: {e}")));
            if let Some(reference) = &reference {
                assert_eq!(
                    reference, &bytes,
                    "{name} JSONL must be byte-identical at any shard count"
                );
            } else {
                reference = Some(bytes);
            }
            let _ = std::fs::remove_file(&path);
        }
        println!("  {name}: {jobs} jobs x 3 shard counts byte-identical");
    }
    println!(
        "shards ok: mesh and dragonfly campaigns shard-count-invariant in {:.2}s",
        start.elapsed().as_secs_f64()
    );
}

fn main() {
    let (threads, out, mode) = parse_args();
    match mode {
        Mode::Faults => faults(out),
        Mode::Shards => shards(out),
        Mode::Smoke => smoke(threads, out),
    }
}
