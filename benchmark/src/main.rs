//! The repository benchmark: four workloads, each run in its own child
//! process, measured end to end with tracing off and, on request, layer
//! by layer in a traced re-run.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|PATH]
//! ```
//!
//! Every metric prints as a `workload metric value unit` line; the last
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or the per-layer ones when
//! traced). A failed check makes the exit code 1.

mod check;
mod machine;
mod stats;
mod trace;
mod workloads;

use hirise_lab::json::{self, Json};
use machine::Machine;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Opts;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["switch-sweep", "wafer-dragonfly", "cmp-mixes", "serve-mix"];

/// The seed the pins in `expected/` were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Measured seconds per workload when `--seconds` is not given; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 26.0;

/// `(name, unit)` of the end-to-end metrics, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("wait_p50_ms", "ms"),
    ("wait_p98_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, as in `BENCHMARK.json`. A
/// layer a workload does not reach reads 0; such metrics are counts,
/// fractions or rates, never times.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("core.arb_calls", "count"),
    ("core.arb_ns_per_call", "ns"),
    ("core.arb_share", "fraction"),
    ("core.grant_ratio", "ratio"),
    ("traffic.next_calls", "count"),
    ("traffic.mcalls_per_s", "Mcalls/s"),
    ("traffic.share", "fraction"),
    ("sim.cycles", "count"),
    ("sim.kcycles_per_s", "kcycles/s"),
    ("sim.self_share", "fraction"),
    ("engine.router_cycles", "count"),
    ("engine.active_frac", "fraction"),
    ("engine.mactive_per_s", "Mcycles/s"),
    ("shard.speedup_2v1", "ratio"),
    ("lab.expand_share", "fraction"),
    ("lab.encode_share", "fraction"),
    ("lab.busy_frac", "fraction"),
    ("lab.batch_vs_solo", "ratio"),
    ("manycore.minstr_per_s", "Minstr/s"),
    ("manycore.msgs", "count"),
    ("manycore.net_latency_cycles", "cycles"),
    ("serve.admit_frac", "fraction"),
    ("serve.cold_vs_hit", "ratio"),
    ("serve.hit_ratio", "fraction"),
    ("serve.jobs_run", "count"),
    ("serve.rejected", "count"),
    ("serve.late_frac", "fraction"),
    ("accuracy.paper_gap_pp", "pp"),
    ("trace.overhead", "ratio"),
];

const USAGE: &str = "usage: hirise-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1|PATH]";

/// The benchmark package directory (`benchmark/` of the checkout).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout's root.
pub fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    /// `None` untraced, `Some(None)` traced to the default path.
    trace: Option<Option<PathBuf>>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: want a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(PathBuf::from(path))),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let parsed = match parse(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("hirise-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode.as_str() {
        "run" => parent(&parsed),
        "workload" if parsed.workload.is_some() => child(&parsed),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One child process per workload, so each reports its own peak memory.
fn parent(args: &Args) -> ExitCode {
    Machine::detect().print();
    let names: Vec<&str> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &name in &names {
        let trace = match &args.trace {
            None => "0".to_string(),
            Some(None) => default_trace_path(name).display().to_string(),
            Some(Some(path)) if names.len() == 1 => path.display().to_string(),
            Some(Some(path)) => path
                .with_extension(format!("{name}.jsonl"))
                .display()
                .to_string(),
        };
        match run_child(name, args, &trace, names.len() == 1) {
            Some((ok, a, f, m)) => {
                correct &= ok;
                attempted += a;
                failed += f;
                metrics.extend(m.into_iter().map(|(k, v, u)| (format!("{name}.{k}"), v, u)));
            }
            None => {
                correct = false;
                attempted += 1;
                failed += 1;
            }
        }
    }
    // A single workload's own result line is already the last line,
    // unless its child died without one.
    if names.len() > 1 || metrics.is_empty() {
        println!("{}", result_json(correct, attempted, failed, &metrics));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn default_trace_path(workload: &str) -> PathBuf {
    bench_dir()
        .join("target")
        .join("trace")
        .join(format!("{workload}.jsonl"))
}

type ChildResult = (bool, u64, u64, Vec<(String, f64, String)>);

/// Runs one workload in a child process, echoing its output. The
/// child's last line is its JSON result; it is echoed only when it is
/// also the run's last line (`echo_result`).
fn run_child(name: &str, args: &Args, trace: &str, echo_result: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .args(["workload", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", trace])
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    // Read to the end whatever arrives, so the child never blocks on a
    // full pipe.
    let mut last: Option<String> = None;
    for line in BufReader::new(stdout).split(b'\n').map_while(Result::ok) {
        let line = String::from_utf8_lossy(&line).into_owned();
        if let Some(previous) = last.replace(line) {
            println!("{previous}");
        }
    }
    let status = child.wait().ok()?;
    let last = last?;
    if echo_result {
        println!("{last}");
    }
    let parsed = json::parse(&last).ok()?;
    let metrics = parsed
        .get("metrics")
        .and_then(|m| match m {
            Json::Obj(members) => Some(members),
            _ => None,
        })?
        .iter()
        .filter_map(|(k, v)| {
            let value = v.get("value").and_then(Json::as_f64)?;
            let unit = v.get("unit").and_then(Json::as_str)?;
            Some((k.clone(), value, unit.to_string()))
        })
        .collect();
    let correct = parsed.get("correct").and_then(Json::as_bool)? && status.success();
    let attempted = parsed.get("attempted").and_then(Json::as_u64)?;
    let failed = parsed.get("failed").and_then(Json::as_u64)?;
    Some((correct, attempted, failed, metrics))
}

/// Runs one workload in this process and reports it.
fn child(args: &Args) -> ExitCode {
    let name = args.workload.expect("checked by main");
    let trace = args
        .trace
        .as_ref()
        .map(|path| path.clone().unwrap_or_else(|| default_trace_path(name)));
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: trace.clone(),
    };
    let run = workloads::run(name, opts).expect("workload names are validated");
    for layer in run.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(metric, _)| metric == layer),
            "{layer} is not a per-layer metric of BENCHMARK.json"
        );
    }
    for (key, digest) in run.digests.iter() {
        println!("digest {name} {key} {digest:016x}");
    }
    for failure in run.failures.iter().take(20) {
        println!("{name} failure {failure}");
    }
    let attempted = run.attempted.max(1);
    let mut failed = run.failures.len() as u64;

    // Each wait statistic is taken within each group and the median over
    // groups reported. A batch workload's round has too few jobs for a
    // p98 with ten samples beyond it, so no single round may decide it;
    // and its jobs finish in steps, so a median pooled over rounds would
    // fall between two steps' clusters and jump from one to the other.
    let waits = run.waits_ms.concat();
    let over_groups = |statistic: fn(&[f64]) -> f64| {
        stats::median(
            &run.waits_ms
                .iter()
                .map(|g| statistic(g))
                .collect::<Vec<_>>(),
        )
    };
    let end_to_end = [
        stats::median(&run.setup_s),
        stats::median(&run.jobs_per_s),
        over_groups(stats::median),
        over_groups(|g| stats::percentile(g, 98.0)),
        run.peak_rss_mb,
    ];
    let end_to_end: Vec<(String, f64, String)> = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|(&(metric, unit), value)| (metric.to_string(), value, unit.to_string()))
        .collect();
    for (metric, value, unit) in &end_to_end {
        println!("{name} {metric} {value} {unit}");
    }
    println!(
        "{name} failed_frac {} ratio",
        failed as f64 / attempted as f64
    );
    if let Some([q1, q2, q3]) = stats::quartiles(&run.jobs_per_s) {
        println!("{name} jobs_per_s_spread {} fraction", (q3 - q1) / q2);
    }
    println!("{name} wait_samples {} count", waits.len());
    println!("{name} wait_groups {} count", run.waits_ms.len());
    if let [group] = run.waits_ms.as_slice() {
        if stats::supported_percentile(group, 98.0).is_none() {
            println!("{name} wait_p98_ms unsupported: fewer than ten samples beyond it");
        }
    }
    match stats::highest_supported_tail(&waits) {
        Some((p, v)) => println!("{name} wait_tail_p{p}_ms {v} ms"),
        None => println!("{name} wait_tail_ms none (no tail percentile has ten samples beyond it)"),
    }
    for (metric, value, unit) in &run.info {
        println!("{name} {metric} {value} {unit}");
    }

    let metrics = match &trace {
        None => end_to_end,
        Some(path) => {
            let mut layers = Vec::new();
            for (metric, unit) in PER_LAYER {
                let value = run.layers.get(metric).copied().unwrap_or(0.0);
                println!("{name} {metric} {value} {unit}");
                layers.push((metric.to_string(), value, unit.to_string()));
            }
            let header = format!(
                "{{\"machine\":{},\"workload\":\"{name}\",\"seed\":{},\"seconds\":{}}}",
                Machine::detect().json(),
                args.seed,
                args.seconds
            );
            match run.tracer.write_jsonl(path, &header) {
                Ok(()) => println!("{name} spans {}", path.display()),
                Err(e) => {
                    println!(
                        "{name} failure spans not written to {}: {e}",
                        path.display()
                    );
                    failed += 1;
                }
            }
            layers
        }
    };
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json::write_escaped(&mut s, name);
        // Display of a finite f64 is exact and never uses an exponent.
        let value = if value.is_finite() { *value } else { 0.0 };
        s.push_str(&format!(":{{\"value\":{value},\"unit\":"));
        json::write_escaped(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(key: &str) -> Vec<(String, String)> {
        manifest()
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = manifest()
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            manifest().get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let line = result_json(true, 3, 0, &[("jobs_per_s".into(), 12.5, "jobs/s".into())]);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        let metric = v.get("metrics").and_then(|m| m.get("jobs_per_s")).unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(12.5));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("jobs/s"));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&args(
            "--workload serve-mix --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some("serve-mix"));
        assert_eq!((a.seed, a.seconds), (7, 2.5));
        assert_eq!(a.trace, Some(None));
        assert!(parse(&args("--trace 0")).unwrap().trace.is_none());
        assert_eq!(
            parse(&args("--trace x.jsonl")).unwrap().trace,
            Some(Some("x.jsonl".into()))
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
