//! `serve-mix`: an in-process `hirise-serve` daemon with 2 workers,
//! driven over loopback by 2 client connections.
//!
//! * Phase A, open loop: submits due at a fixed, evenly spaced 25 req/s,
//!   each timed from when it was due, so a stall also charges the
//!   requests queued behind it. 75% repeat one of 32 specs that set-up
//!   pre-warmed into the cache (reads); 25% carry fresh seeds, so they
//!   simulate and write the cache and journal (writes). Reads run beside
//!   writes, so a change that speeds hits but slows misses shows.
//! * Phase B, closed loop: both connections submit pool specs back to
//!   back; the completion rate is the daemon's cached-read capacity.
//!
//! This is the only workload where admission, the cache, the journal
//! and response streaming dominate.

use super::{traced_single_switch, Run};
use crate::check::Projection;
use crate::stats::{median, percentile};
use crate::trace::{Attr, Counts};
use hirise_core::rng::{Rng, SeedableRng, StdRng};
use hirise_core::HiRiseConfig;
use hirise_lab::json::{self, Json};
use hirise_lab::{CampaignSpec, FabricSpec, PatternSpec, SimParams};
use hirise_serve::{ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const NAME: &str = "serve-mix";
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const POOL: usize = 32;
/// Phase A's request rate: below the knee of the daemon's per-line
/// flush stall, which a 40 req/s load already crossed.
const RATE_HZ: f64 = 25.0;
const HIT_SHARE: f64 = 0.75;
/// Phase A's share of the measured seconds; phase B gets the rest. At
/// the default 26 seconds phase A sends 600 requests, which leave 12
/// samples beyond the reported p98.
const OPEN_LOOP_SHARE: f64 = 12.0 / 13.0;
/// A phase-A send this far behind schedule counts as generator lag.
const LATE: Duration = Duration::from_millis(1);
/// Phase B's completions are split into this many windows.
const RATE_WINDOWS: usize = 10;

/// A 2-job campaign on a radix-16 Hi-Rise: small enough that a request
/// costs service overhead more than simulation.
fn spec(name: String, master_seed: u64) -> CampaignSpec {
    let switch = HiRiseConfig::builder(16, 4)
        .build()
        .expect("16x4 is a valid Hi-Rise configuration");
    CampaignSpec::new(name)
        .master_seed(master_seed)
        .fabric(FabricSpec::hirise(switch))
        .pattern(PatternSpec::Uniform)
        .loads([0.05, 0.1])
        .sim(SimParams::new().cycles(200, 2_000, 2_000))
}

/// The daemon, owning its data directory inside the checkout. Dropping
/// it drains and joins the daemon's threads and removes the directory.
struct Daemon {
    handle: Option<ServerHandle>,
    dir: PathBuf,
    /// The pre-warmed pool's records, one `Vec` of job lines per spec.
    pool_records: Vec<Vec<String>>,
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("daemon is running").addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a daemon on a fresh data directory and pre-warms the pool.
fn start(pool: &[CampaignSpec], generation: usize) -> std::io::Result<Daemon> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("{NAME}-{}-{generation}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = WORKERS;
    let mut daemon = Daemon {
        handle: Some(ServerHandle::start(cfg)?),
        dir,
        pool_records: Vec::new(),
    };
    let mut client = Client::connect(daemon.addr(), 0)?;
    for spec in pool {
        let reply = client.submit(&submit_line(spec, 0));
        daemon.pool_records.push(reply.records);
    }
    Ok(daemon)
}

fn submit_line(spec: &CampaignSpec, connection: usize) -> String {
    format!(
        "{{\"op\":\"submit\",\"client\":\"c{connection}\",\"spec\":{}}}\n",
        spec.canonical_json()
    )
}

/// One client connection speaking the line protocol.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    connection: usize,
}

/// What a client observed for one submit.
#[derive(Clone, Debug)]
struct Reply {
    sent: Instant,
    accepted: Option<Instant>,
    done: Option<Instant>,
    /// The request id on the `accepted` line.
    id: String,
    records: Vec<String>,
    /// A typed rejection code or an I/O or protocol error.
    error: Option<String>,
}

impl Client {
    fn connect(addr: SocketAddr, connection: usize) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // With Nagle on, a request sent in pieces waits for the delayed
        // ACK of its first piece. Sending the line and its newline as
        // two writes without TCP_NODELAY stalled each request ~44 ms per
        // piece, and the open-loop backlog reached a 574 ms p50 at 25
        // req/s in a 15 s run, so requests go out in one write.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            connection,
        })
    }

    /// Sends `line` (newline included) in one write and reads the
    /// response stream to its `done` or `error` line.
    fn submit(&mut self, line: &str) -> Reply {
        let mut reply = Reply {
            sent: Instant::now(),
            accepted: None,
            done: None,
            id: String::new(),
            records: Vec::new(),
            error: None,
        };
        if let Err(e) = self.stream.write_all(line.as_bytes()) {
            reply.error = Some(format!("write: {e}"));
            return reply;
        }
        loop {
            let mut response = String::new();
            match self.reader.read_line(&mut response) {
                Ok(0) => reply.error = Some("connection closed mid-request".into()),
                Err(e) => reply.error = Some(format!("read: {e}")),
                Ok(_) => {}
            }
            if reply.error.is_some() {
                return reply;
            }
            let response = response.trim_end();
            if response.starts_with("{\"job\":") {
                reply.records.push(response.to_string());
                continue;
            }
            let parsed = json::parse(response).ok();
            let field = |key: &str| {
                parsed
                    .as_ref()
                    .and_then(|v| v.get(key))
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            match field("op").as_deref() {
                Some("accepted") => {
                    reply.accepted = Some(Instant::now());
                    reply.id = field("request").unwrap_or_default();
                }
                Some("done") => {
                    reply.done = Some(Instant::now());
                    return reply;
                }
                Some("error") => {
                    reply.error = Some(field("code").unwrap_or_else(|| "untyped".into()));
                    return reply;
                }
                _ => {
                    reply.error = Some(format!("unexpected line {response:?}"));
                    return reply;
                }
            }
        }
    }

    fn stats(&mut self) -> Option<Json> {
        self.stream.write_all(b"{\"op\":\"stats\"}\n").ok()?;
        let mut line = String::new();
        self.reader.read_line(&mut line).ok()?;
        json::parse(line.trim_end()).ok()
    }
}

/// Which kind of request a submit was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A pool spec, served from the cache.
    Hit(usize),
    /// A fresh seed: simulated, cached and journaled.
    Cold,
}

/// One phase-A request as planned and as observed.
struct Request {
    due: Instant,
    kind: Kind,
    spec: CampaignSpec,
    reply: Option<Reply>,
    /// How far behind schedule the generator sent it, beyond waiting
    /// for the connection's previous request.
    late: Duration,
}

pub fn run(run: &mut Run) {
    let pool: Vec<CampaignSpec> = (0..POOL)
        .map(|k| {
            spec(
                format!("{NAME}-pool-{k}"),
                run.seed("serve-mix/pool", k as u64),
            )
        })
        .collect();
    let mut generation = 0;
    let daemon = run.setup(3, || {
        generation += 1;
        start(&pool, generation)
    });
    let daemon = match daemon {
        Ok(daemon) => daemon,
        Err(e) => {
            run.fail(format!("daemon did not start: {e}"));
            return;
        }
    };

    let open_s = run.opts.seconds * OPEN_LOOP_SHARE;
    let mut requests = plan(run, &pool, open_s);
    let clients: Vec<std::io::Result<Client>> = (0..CONNECTIONS)
        .map(|c| Client::connect(daemon.addr(), c))
        .collect();
    let mut clients: Vec<Client> = match clients.into_iter().collect() {
        Ok(clients) => clients,
        Err(e) => {
            run.fail(format!("cannot connect: {e}"));
            return;
        }
    };

    open_loop(&mut clients, &mut requests);
    let closed_s = run.opts.seconds - open_s;
    let phase_b = Instant::now();
    let closed = closed_loop(
        &mut clients,
        &daemon,
        &pool,
        closed_s,
        run.seed("serve-mix/closed", 0),
    );
    let stats = clients[0].stats();
    drop(clients);
    run.peak_rss_mb = crate::machine::peak_rss_mb();
    run.jobs_per_s = window_rates(phase_b, &closed, pool[0].jobs().len());
    for reply in &closed {
        run.attempted += 1;
        if let Some(error) = &reply.error {
            run.fail(format!("closed loop: {error}"));
        }
    }

    let mut waits_ms = Vec::new();
    let mut hit_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut admit_ms = Vec::new();
    let mut stream_ms = Vec::new();
    for request in &requests {
        let reply = request
            .reply
            .as_ref()
            .expect("every planned request was sent");
        run.attempted += 1;
        let (Some(accepted), Some(done)) = (reply.accepted, reply.done) else {
            run.fail(format!(
                "{}: {}",
                request.spec.name,
                reply.error.as_deref().unwrap_or("no reply")
            ));
            continue;
        };
        let ms = (done - request.due).as_secs_f64() * 1e3;
        waits_ms.push(ms);
        match request.kind {
            Kind::Hit(_) => hit_ms.push(ms),
            Kind::Cold => cold_ms.push(ms),
        }
        admit_ms.push((accepted - reply.sent).as_secs_f64() * 1e3);
        stream_ms.push((done - accepted).as_secs_f64() * 1e3);
    }
    run.waits_ms.push(waits_ms);
    let late_ms: Vec<f64> = requests
        .iter()
        .map(|r| r.late.as_secs_f64() * 1e3)
        .collect();
    run.info("open_loop_requests", requests.len() as f64, "count");
    run.info("closed_loop_requests", closed.len() as f64, "count");
    run.info("hit_p50_ms", median(&hit_ms), "ms");
    run.info("cold_p50_ms", median(&cold_ms), "ms");
    run.info("admit_p50_ms", median(&admit_ms), "ms");
    run.info("stream_p50_ms", median(&stream_ms), "ms");
    run.info("late_p98_ms", percentile(&late_ms, 98.0), "ms");

    let direct = verify(run, &daemon, &pool, &requests);
    drop(daemon);

    if run.traced() {
        let count = |key: &str| {
            stats
                .as_ref()
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let lookups = count("cache_hits") + count("cache_misses");
        run.layer("serve.hit_ratio", count("cache_hits") / lookups.max(1.0));
        run.layer("serve.jobs_run", count("jobs_run"));
        run.layer("serve.rejected", count("rejected"));
        run.layer(
            "serve.admit_frac",
            admit_ms.iter().sum::<f64>()
                / (admit_ms.iter().sum::<f64>() + stream_ms.iter().sum::<f64>())
                    .max(f64::MIN_POSITIVE),
        );
        run.layer("serve.cold_vs_hit", median(&cold_ms) / median(&hit_ms));
        run.layer(
            "serve.late_frac",
            requests.iter().filter(|r| r.late > LATE).count() as f64 / requests.len().max(1) as f64,
        );
        traced(run, &pool, &requests, &direct);
    }
}

/// How many requests phase A sends in `seconds`.
fn open_loop_requests(seconds: f64) -> usize {
    ((seconds * RATE_HZ).round() as usize).max(1)
}

/// Phase A's schedule: evenly spaced due times, a seeded hit/cold draw
/// per request, and a unique campaign name per request so each has its
/// own request id (the cache key ignores the name).
fn plan(run: &Run, pool: &[CampaignSpec], seconds: f64) -> Vec<Request> {
    let n = open_loop_requests(seconds);
    let mut rng = StdRng::seed_from_u64(run.seed("serve-mix/open", 0));
    let t0 = Instant::now() + Duration::from_millis(20);
    (0..n)
        .map(|i| {
            let name = format!("{NAME}-a{i}");
            let (kind, spec) = if rng.gen_bool(HIT_SHARE) {
                let k = rng.gen_range(0..pool.len());
                let mut spec = pool[k].clone();
                spec.name = name;
                (Kind::Hit(k), spec)
            } else {
                (Kind::Cold, spec(name, run.seed("serve-mix/cold", i as u64)))
            };
            Request {
                due: t0 + Duration::from_secs_f64(i as f64 / RATE_HZ),
                kind,
                spec,
                reply: None,
                late: Duration::ZERO,
            }
        })
        .collect()
}

/// Sends request `i` on connection `i % CONNECTIONS` at its due time, or
/// as soon as that connection is free.
fn open_loop(clients: &mut [Client], requests: &mut [Request]) {
    std::thread::scope(|scope| {
        let mut lanes: Vec<Vec<&mut Request>> = (0..clients.len()).map(|_| Vec::new()).collect();
        for (i, request) in requests.iter_mut().enumerate() {
            lanes[i % clients.len()].push(request);
        }
        for (client, lane) in clients.iter_mut().zip(lanes) {
            scope.spawn(move || {
                let mut free_at: Option<Instant> = None;
                for request in lane {
                    let line = submit_line(&request.spec, client.connection);
                    wait_until(request.due);
                    let reply = client.submit(&line);
                    let ready = free_at.map_or(request.due, |f| f.max(request.due));
                    request.late = reply.sent.saturating_duration_since(ready);
                    free_at = Some(reply.done.unwrap_or_else(Instant::now));
                    request.reply = Some(reply);
                }
            });
        }
    });
}

/// Sleeps until shortly before `due`, then spins to it. A sleep alone
/// wakes late by the timer slack and the wake-up latency, tens of
/// microseconds that vary with the host's load, and a wait is timed
/// from the due time, so that lateness would count against the daemon.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(500);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Phase B: every connection submits seeded pool picks back to back
/// for `seconds`. Each reply's records are compared with the pool's on
/// arrival and then dropped, so a fast daemon costs no memory; a
/// mismatch becomes the reply's error.
fn closed_loop(
    clients: &mut [Client],
    daemon: &Daemon,
    pool: &[CampaignSpec],
    seconds: f64,
    seed: u64,
) -> Vec<Reply> {
    let end = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let c = client.connection;
                    let mut rng = StdRng::seed_from_u64(hirise_lab::derive_seed(seed, c as u64));
                    let mut replies = Vec::new();
                    while Instant::now() < end {
                        let k = rng.gen_range(0..pool.len());
                        let mut spec = pool[k].clone();
                        spec.name = format!("{NAME}-b{c}-{}", replies.len());
                        let mut reply = client.submit(&submit_line(&spec, c));
                        if reply.error.is_none() && reply.records != daemon.pool_records[k] {
                            reply.error =
                                Some(format!("{}: records differ from the pool's", spec.name));
                        }
                        reply.records = Vec::new();
                        replies.push(reply);
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    })
}

/// Splits the completions since `start` into [`RATE_WINDOWS`] windows
/// of equal count and returns each window's rate in jobs per second
/// (`jobs` per completed request). Equal counts keep every rate a
/// measured time, not a count of whole seconds, and the median of the
/// windows shrugs off one stalled window.
fn window_rates(start: Instant, replies: &[Reply], jobs: usize) -> Vec<f64> {
    let mut done: Vec<Instant> = replies.iter().filter_map(|r| r.done).collect();
    done.sort_unstable();
    let per_window = (done.len() / RATE_WINDOWS).max(1);
    let mut from = start;
    done.chunks_exact(per_window)
        .map(|chunk| {
            let to = *chunk.last().expect("chunks are non-empty");
            let rate = (chunk.len() * jobs) as f64 / (to - from).as_secs_f64();
            from = to;
            rate
        })
        .collect()
}

/// The direct `run_job` results the served records were checked
/// against: their digests by `<spec name>/j<index>`, and the seconds
/// the direct runs took.
struct Direct {
    digests: BTreeMap<String, u64>,
    secs: f64,
}

/// Checks every record the daemon streamed: the pool's and the cold
/// requests' against direct `run_job` calls, cache hits against the
/// pool. The pool's digests are pinned; cold requests depend on
/// `--seconds`, so theirs are not.
fn verify(run: &mut Run, daemon: &Daemon, pool: &[CampaignSpec], requests: &[Request]) -> Direct {
    let mut direct = Direct {
        digests: BTreeMap::new(),
        secs: 0.0,
    };
    let mut lines = |spec: &CampaignSpec| -> Vec<String> {
        let t = Instant::now();
        let results: Vec<_> = spec.jobs().iter().map(|job| spec.run_job(job)).collect();
        direct.secs += t.elapsed().as_secs_f64();
        for r in &results {
            let digest = Projection::from_job(r).digest();
            direct
                .digests
                .insert(format!("{}/j{}", spec.name, r.index), digest);
        }
        results.iter().map(|r| r.to_jsonl_line()).collect()
    };
    for (k, spec) in pool.iter().enumerate() {
        run.attempted += 1;
        if daemon.pool_records[k] != lines(spec) {
            run.fail(format!("{}: served records differ from run_job", spec.name));
        }
    }
    for request in requests {
        let Some(reply) = request.reply.as_ref().filter(|r| r.done.is_some()) else {
            continue; // counted as failed already
        };
        let expected = match request.kind {
            Kind::Hit(k) => daemon.pool_records[k].clone(),
            Kind::Cold => lines(&request.spec),
        };
        if reply.records != expected {
            run.fail(format!("{}: served records differ", request.spec.name));
        }
    }
    for (k, spec) in pool.iter().enumerate() {
        for j in 0..spec.jobs().len() {
            let digest = direct.digests[&format!("{}/j{j}", spec.name)];
            run.digests.push(format!("pool/p{k}/j{j}"), digest);
        }
    }
    if run.pinned_seed() {
        for key in run.digests.check_pins(NAME, |_| true) {
            run.fail(format!("pin mismatch: {key}"));
        }
    }
    direct
}

/// Records each phase-A request as a trace named by its request id
/// (`request`, with children `admit` and `stream`), then rebuilds every
/// simulated job with the hot-call wrappers — cold jobs under their
/// request's trace — and checks them against the served records.
fn traced(run: &mut Run, pool: &[CampaignSpec], requests: &[Request], direct: &Direct) {
    let start = Instant::now();
    let (mut arb, mut traffic) = (Counts::default(), Counts::default());
    let (mut sim_s, mut cycles) = (0.0, 0);
    // (trace, parent span, spec)
    let mut rebuilt: Vec<(String, Option<u64>, &CampaignSpec)> = pool
        .iter()
        .map(|spec| (spec.name.clone(), None, spec))
        .collect();
    for request in requests {
        let Some(reply) = request.reply.as_ref() else {
            continue;
        };
        let (Some(accepted), Some(done)) = (reply.accepted, reply.done) else {
            continue;
        };
        let kind = match request.kind {
            Kind::Hit(_) => "hit",
            Kind::Cold => "cold",
        };
        let tracer = &run.tracer;
        let root = tracer.record(
            &reply.id,
            None,
            "request",
            request.due,
            done,
            vec![
                ("kind", Attr::S(kind.to_string())),
                ("late_ns", Attr::U(request.late.as_nanos() as u64)),
            ],
        );
        tracer.record(
            &reply.id,
            Some(root),
            "admit",
            reply.sent,
            accepted,
            Vec::new(),
        );
        tracer.record(&reply.id, Some(root), "stream", accepted, done, Vec::new());
        if request.kind == Kind::Cold {
            rebuilt.push((reply.id.clone(), Some(root), &request.spec));
        }
    }
    for (trace, parent, spec) in rebuilt {
        for job in spec.jobs() {
            let t = traced_single_switch(&run.tracer, &trace, parent, spec, &job);
            let key = format!("{}/j{}", spec.name, job.index);
            if direct.digests.get(&key) != Some(&t.digest) {
                run.fail(format!("{key}: traced digest differs"));
            }
            arb += t.arb;
            traffic += t.traffic;
            sim_s += t.sim_s;
            cycles += t.cycles;
        }
    }
    run.layer(
        "trace.overhead",
        start.elapsed().as_secs_f64() / direct.secs,
    );
    run.hot_call_layers(arb, traffic, sim_s);
    run.layer("sim.cycles", cycles as f64);
    run.layer("sim.kcycles_per_s", cycles as f64 / direct.secs / 1e3);
    run.layer(
        "sim.self_share",
        1.0 - (arb.ns + traffic.ns) as f64 / (sim_s * 1e9),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::supported_percentile;

    #[test]
    fn default_open_loop_supports_its_p98() {
        let n = open_loop_requests(crate::DEFAULT_SECONDS * OPEN_LOOP_SHARE);
        assert_eq!(n, 600);
        let waits: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert!(supported_percentile(&waits, 98.0).is_some(), "{n} requests");
    }
}
