//! Load generator for the campaign daemon (`hirise-serve`).
//!
//! Starts an in-process server, then hammers it over real TCP from
//! `--clients` concurrent connections until `--requests` campaign
//! submissions have been answered, drawing each submission from a
//! small pool of `--specs` distinct campaigns so repeats exercise the
//! content-addressed cache. Reports the numbers EXPERIMENTS.md records
//! for the load test: request rate, cache-hit rate, completed/rejected
//! split (rejections are the typed admission-control responses, not
//! errors), and p50/p99/max end-to-end latency.
//!
//! The defaults oversubscribe the daemon (64 clients against a
//! 32-request admission limit), so a healthy run shows BOTH served
//! traffic and typed `overloaded` rejections — that is the admission
//! contract under overload, not a failure. A rejected client backs off
//! (exponentially, 1 ms doubling to 64 ms, reset by a served request)
//! before its next submission, as a well-behaved client of an admission
//! limit would; without it the clients left out of the admission window
//! would spend the request budget on rejections within milliseconds.
//! The run fails (exit 1) if any request dies without a typed response,
//! or if repeats produce no cache hits.

use hirise_lab::args::{arg_error, flag_value, parse_flag_value};
use hirise_lab::json::{self, Json};
use hirise_lab::{CampaignSpec, FabricSpec, PatternSpec, SimParams};
use hirise_serve::{ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest pause a client takes after consecutive rejections.
const MAX_BACKOFF: Duration = Duration::from_millis(64);

const USAGE: &str = "loadgen [--requests N] [--clients N] [--specs N] [--workers N] \
                     [--max-inflight N] [--queue-cap N]";

struct Options {
    requests: usize,
    clients: usize,
    specs: usize,
    workers: usize,
    max_inflight: usize,
    queue_cap: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        requests: 1000,
        clients: 64,
        specs: 8,
        workers: hirise_lab::default_threads(),
        max_inflight: 32,
        queue_cap: 1024,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |flag: &str| -> usize {
            let v = flag_value(flag, &mut args, USAGE);
            parse_flag_value(flag, &v, USAGE)
        };
        match arg.as_str() {
            "--requests" => opts.requests = numeric("--requests"),
            "--clients" => opts.clients = numeric("--clients"),
            "--specs" => opts.specs = numeric("--specs"),
            "--workers" => opts.workers = numeric("--workers"),
            "--max-inflight" => opts.max_inflight = numeric("--max-inflight"),
            "--queue-cap" => opts.queue_cap = numeric("--queue-cap"),
            other => arg_error(format!("unknown argument {other:?}"), USAGE),
        }
    }
    if opts.requests == 0 || opts.clients == 0 || opts.specs == 0 || opts.workers == 0 {
        arg_error("counts must all be at least 1", USAGE);
    }
    opts
}

/// The spec pool: tiny single-job campaigns distinguished by seed, so
/// a request is dominated by service overhead (the quantity under
/// test) rather than simulation time, and repeats are cache hits.
fn spec_pool(n: usize) -> Vec<CampaignSpec> {
    (0..n)
        .map(|i| {
            CampaignSpec::new(format!("loadgen-{i}"))
                .master_seed(0x10AD_0000 + i as u64)
                .fabric(FabricSpec::Flat2d { radix: 8 })
                .pattern(PatternSpec::Uniform)
                .loads([0.2])
                .sim(SimParams::new().cycles(20, 100, 100))
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    completed: usize,
    latencies_us: Vec<u64>,
    rejections: BTreeMap<String, usize>,
    failures: Vec<String>,
}

fn main() {
    let opts = parse_args();
    let data_dir = std::env::temp_dir().join(format!("hirise-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut cfg = ServeConfig::new(&data_dir);
    cfg.workers = opts.workers;
    cfg.max_inflight = opts.max_inflight;
    cfg.max_per_client = opts.clients.max(1);
    cfg.queue_cap = opts.queue_cap;
    let server = match ServerHandle::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("loadgen: cannot start server: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();

    let pool: Arc<Vec<String>> = Arc::new(
        spec_pool(opts.specs)
            .iter()
            .map(|spec| {
                format!(
                    "{{\"op\":\"submit\",\"client\":\"CLIENT\",\"spec\":{}}}\n",
                    { spec.canonical_json() }
                )
            })
            .collect(),
    );

    let next = Arc::new(AtomicUsize::new(0));
    let tally = Arc::new(Mutex::new(Tally::default()));
    let started = Instant::now();

    let threads: Vec<_> = (0..opts.clients)
        .map(|thread| {
            let pool = Arc::clone(&pool);
            let next = Arc::clone(&next);
            let tally = Arc::clone(&tally);
            let requests = opts.requests;
            std::thread::spawn(move || {
                let mut stream = connect_with_retry(addr);
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut backoff = Duration::ZERO;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= requests {
                        return;
                    }
                    let line = pool[index % pool.len()].replace("CLIENT", &format!("c{thread}"));
                    let begun = Instant::now();
                    match one_request(&mut stream, &mut reader, &line) {
                        Ok(None) => {
                            backoff = Duration::ZERO;
                            let us = begun.elapsed().as_micros() as u64;
                            let mut t = tally.lock().expect("tally poisoned");
                            t.completed += 1;
                            t.latencies_us.push(us);
                        }
                        Ok(Some(code)) => {
                            {
                                let mut t = tally.lock().expect("tally poisoned");
                                *t.rejections.entry(code).or_insert(0) += 1;
                            }
                            backoff = (backoff * 2).clamp(Duration::from_millis(1), MAX_BACKOFF);
                            std::thread::sleep(backoff);
                        }
                        Err(e) => {
                            tally
                                .lock()
                                .expect("tally poisoned")
                                .failures
                                .push(format!("request {index}: {e}"));
                        }
                    }
                }
            })
        })
        .collect();
    for thread in threads {
        if thread.join().is_err() {
            eprintln!("loadgen: a client thread panicked");
            std::process::exit(1);
        }
    }
    let elapsed = started.elapsed();

    let stats = server.stats();
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&data_dir);

    let mut tally = Arc::try_unwrap(tally)
        .unwrap_or_else(|_| panic!("tally still shared"))
        .into_inner()
        .expect("tally poisoned");
    report(&opts, &tally, elapsed, &stats);

    if !tally.failures.is_empty() {
        for f in tally.failures.iter().take(5) {
            eprintln!("loadgen: FAIL: {f}");
        }
        std::process::exit(1);
    }
    let rejected: usize = tally.rejections.values().sum();
    if tally.completed + rejected != opts.requests {
        eprintln!(
            "loadgen: FAIL: {} completed + {rejected} rejected != {} requests",
            tally.completed, opts.requests
        );
        std::process::exit(1);
    }
    if opts.requests > opts.specs && stats.cache_hits == 0 {
        eprintln!("loadgen: FAIL: repeated specs produced no cache hits");
        std::process::exit(1);
    }
    tally.latencies_us.clear();
    println!("loadgen: OK");
}

fn connect_with_retry(addr: std::net::SocketAddr) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(300)))
                    .expect("set timeout");
                stream.set_nodelay(true).expect("set nodelay");
                return stream;
            }
            Err(e) => {
                if Instant::now() > deadline {
                    eprintln!("loadgen: cannot connect: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// One submit round-trip for `line` (newline included). `Ok(None)` on a
/// completed stream, `Ok(code)` on a typed rejection, `Err` on anything
/// unprotocol-like.
///
/// The request goes out in one write on a `TCP_NODELAY` socket. Written
/// as a line and then its newline, the second small segment waits for
/// the daemon's delayed ACK of the first (Nagle), stalling every request
/// by tens of milliseconds.
fn one_request(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<Option<String>, String> {
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    loop {
        let mut response = String::new();
        if reader
            .read_line(&mut response)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("connection closed mid-request".into());
        }
        let value =
            json::parse(response.trim_end()).map_err(|e| format!("bad response line: {e}"))?;
        match value.get("op").and_then(Json::as_str) {
            Some("done") => return Ok(None),
            Some("error") => {
                return Ok(Some(
                    value
                        .get("code")
                        .and_then(Json::as_str)
                        .unwrap_or("untyped")
                        .to_string(),
                ))
            }
            Some("accepted") | None => {} // record lines and the stream opener
            Some(op) => return Err(format!("unexpected control line {op:?}")),
        }
    }
}

fn report(opts: &Options, tally: &Tally, elapsed: Duration, stats: &hirise_serve::StatsSnapshot) {
    let mut sorted = tally.latencies_us.clone();
    sorted.sort_unstable();
    let pct = |p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as f64 * p) as usize]
    };
    let rejected: usize = tally.rejections.values().sum();
    let lookups = stats.cache_hits + stats.cache_misses;
    println!(
        "loadgen: {} requests, {} clients, {} distinct specs, {} workers",
        opts.requests, opts.clients, opts.specs, opts.workers
    );
    println!(
        "  wall time      {:.2}s  ({:.0} requests/s)",
        elapsed.as_secs_f64(),
        opts.requests as f64 / elapsed.as_secs_f64()
    );
    println!(
        "  completed      {} ({rejected} rejected, {:.1}% rejection rate)",
        tally.completed,
        100.0 * rejected as f64 / opts.requests as f64
    );
    for (code, count) in &tally.rejections {
        println!("    rejected[{code}] {count}");
    }
    println!(
        "  cache          {} hits / {} lookups ({:.1}% hit rate), {} jobs simulated",
        stats.cache_hits,
        lookups,
        100.0 * stats.cache_hits as f64 / lookups.max(1) as f64,
        stats.jobs_run
    );
    println!(
        "  latency        p50 {}us  p99 {}us  max {}us",
        pct(0.50),
        pct(0.99),
        pct(1.0)
    );
}
