//! Integration tests for the campaign daemon, run in-process against
//! [`ServerHandle`]: protocol robustness (malformed input gets typed
//! errors and never costs a connection or the daemon), cache-hit
//! byte-identity against fresh simulation, typed admission rejections
//! under each configured limit, journal recovery after a simulated
//! crash, and graceful drain.

use hirise_lab::json::{self, Json};
use hirise_lab::{CampaignSpec, FabricSpec, PatternSpec, SimParams};
use hirise_serve::{ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hirise-serve-test-{tag}-{}", std::process::id()))
}

fn config(tag: &str) -> ServeConfig {
    let mut cfg = ServeConfig::new(temp_dir(tag));
    cfg.workers = 2;
    cfg
}

fn small_campaign(name: &str) -> CampaignSpec {
    CampaignSpec::new(name)
        .fabric(FabricSpec::Flat2d { radix: 8 })
        .pattern(PatternSpec::Uniform)
        .loads([0.1, 0.2])
        .master_seed(21)
        .sim(SimParams::new().cycles(50, 200, 200))
}

fn fresh_lines(spec: &CampaignSpec) -> Vec<String> {
    spec.jobs()
        .iter()
        .map(|job| spec.run_job(job).to_jsonl_line())
        .collect()
}

/// A line-protocol client against an in-process server.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(server: &ServerHandle) -> Self {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set timeout");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "connection closed unexpectedly");
        line.trim_end().to_string()
    }

    fn recv_json(&mut self) -> Json {
        let line = self.recv();
        json::parse(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    fn submit_line(client: &str, spec: &CampaignSpec) -> String {
        format!(
            "{{\"op\":\"submit\",\"client\":\"{client}\",\"spec\":{}}}",
            spec.canonical_json()
        )
    }

    /// Submits and reads the whole response stream; `Ok` carries
    /// (records, cache_hits, cache_misses), `Err` the rejection code.
    fn submit(
        &mut self,
        client: &str,
        spec: &CampaignSpec,
    ) -> Result<(Vec<String>, u64, u64), String> {
        self.send(&Self::submit_line(client, spec));
        let first = self.recv_json();
        match first.get("op").and_then(Json::as_str) {
            Some("accepted") => {}
            Some("error") => {
                return Err(first
                    .get("code")
                    .and_then(Json::as_str)
                    .expect("error has a code")
                    .to_string())
            }
            other => panic!("expected accepted/error, got {other:?}"),
        }
        let mut records = Vec::new();
        loop {
            let line = self.recv();
            let value = json::parse(&line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            match value.get("op").and_then(Json::as_str) {
                Some("done") => {
                    let count = |k| value.get(k).and_then(Json::as_u64).expect("done counter");
                    return Ok((records, count("cache_hits"), count("cache_misses")));
                }
                Some(op) => panic!("unexpected control line {op:?} mid-stream"),
                None => records.push(line),
            }
        }
    }
}

#[test]
fn malformed_input_gets_typed_errors_and_the_connection_survives() {
    let dir = temp_dir("malformed");
    let _ = std::fs::remove_dir_all(&dir);
    let server = ServerHandle::start(config("malformed")).expect("start");
    let mut client = Client::connect(&server);

    // Each bad line answers with a typed error on the SAME connection.
    for (line, want_code) in [
        ("garbage", "parse"),
        ("{\"op\":\"warp\"}", "parse"),
        ("{\"op\":\"submit\"}", "parse"),
        ("{\"op\":\"submit\",\"spec\":{\"name\":\"x\",\"loads\":[-1]}}", "bad_spec"),
        (
            // Impossible Hi-Rise geometry: builder rejection, not a panic.
            "{\"op\":\"submit\",\"spec\":{\"name\":\"x\",\"fabrics\":[{\"kind\":\"hirise\",\"radix\":10,\"layers\":4}]}}",
            "bad_spec",
        ),
        (
            // A runnable grid with no virtual channels: rejected at
            // admission, not by a worker panic.
            "{\"op\":\"submit\",\"spec\":{\"name\":\"x\",\"fabrics\":[{\"kind\":\"2d\",\"radix\":8}],\"patterns\":[\"uniform\"],\"loads\":[0.1],\"sim\":{\"vcs\":0}}}",
            "bad_spec",
        ),
    ] {
        client.send(line);
        let response = client.recv_json();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
        assert_eq!(
            response.get("code").and_then(Json::as_str),
            Some(want_code),
            "{line}"
        );
    }

    // The daemon is alive and the connection still serves real work.
    client.send("{\"op\":\"ping\"}");
    assert_eq!(
        client.recv_json().get("op").and_then(Json::as_str),
        Some("pong")
    );
    let spec = small_campaign("after-garbage");
    let (records, _, misses) = client.submit("c1", &spec).expect("submit after garbage");
    assert_eq!(records.len(), 2);
    assert_eq!(misses, 2);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_resubmit_is_byte_identical_to_fresh_simulation() {
    let dir = temp_dir("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let server = ServerHandle::start(config("cache")).expect("start");
    let spec = small_campaign("cache-id");
    let expected = fresh_lines(&spec);

    let mut client = Client::connect(&server);
    let (first, hits, misses) = client.submit("c1", &spec).expect("first submit");
    assert_eq!((hits, misses), (0, 2));
    assert_eq!(first, expected, "fresh records differ from in-process run");

    // Second submit: all hits, identical bytes — also from another
    // client and a campaign with a different name (the cache key
    // excludes the name).
    let renamed = {
        let mut s = spec.clone();
        s.name = "cache-id-renamed".to_string();
        s
    };
    let mut other = Client::connect(&server);
    let (second, hits, misses) = other.submit("c2", &renamed).expect("resubmit");
    assert_eq!((hits, misses), (2, 0), "expected pure cache hits");
    assert_eq!(second, expected, "cached records differ from fresh");

    let stats = server.stats();
    assert_eq!(stats.requests_done, 2);
    assert_eq!(stats.jobs_run, 2, "cache hits must not re-simulate");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_admission_limit_rejects_with_its_code() {
    let spec = small_campaign("admission");

    // Global in-flight cap.
    let dir = temp_dir("adm-overload");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config("adm-overload");
    cfg.max_inflight = 0;
    let server = ServerHandle::start(cfg).expect("start");
    let mut client = Client::connect(&server);
    assert_eq!(client.submit("c1", &spec), Err("overloaded".to_string()));
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    // Per-client cap.
    let dir = temp_dir("adm-client");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config("adm-client");
    cfg.max_per_client = 0;
    let server = ServerHandle::start(cfg).expect("start");
    let mut client = Client::connect(&server);
    assert_eq!(
        client.submit("c1", &spec),
        Err("too_many_inflight".to_string())
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    // Queue capacity: a campaign expanding past it.
    let dir = temp_dir("adm-queue");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config("adm-queue");
    cfg.queue_cap = 1;
    let server = ServerHandle::start(cfg).expect("start");
    let mut client = Client::connect(&server);
    assert_eq!(client.submit("c1", &spec), Err("queue_full".to_string()));
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    // Draining daemon.
    let dir = temp_dir("adm-drain");
    let _ = std::fs::remove_dir_all(&dir);
    let server = ServerHandle::start(config("adm-drain")).expect("start");
    let mut client = Client::connect(&server);
    // Round-trip first: draining stops the accept loop, so the
    // connection must be fully established before shutdown.
    client.send("{\"op\":\"ping\"}");
    client.recv_json();
    server.shutdown();
    assert_eq!(client.submit("c1", &spec), Err("shutting_down".to_string()));
    let stats = server.stats();
    assert!(stats.draining);
    assert_eq!(stats.rejected, 1);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborted_campaign_is_recovered_from_the_journal() {
    let dir = temp_dir("recovery");
    let _ = std::fs::remove_dir_all(&dir);
    // Enough work that the abort lands mid-campaign.
    let spec = small_campaign("recover-me")
        .loads([0.05, 0.1, 0.15, 0.2])
        .replicates(2)
        .sim(SimParams::new().cycles(200, 2_000, 2_000));
    let total_jobs = spec.jobs().len();

    let cfg = config("recovery");
    let server = ServerHandle::start(cfg.clone()).expect("start");
    let mut client = Client::connect(&server);
    client.send(&Client::submit_line("c1", &spec));
    let accepted = client.recv_json();
    assert_eq!(
        accepted.get("op").and_then(Json::as_str),
        Some("accepted"),
        "admission must be journaled before the crash"
    );
    // Crash: workers halt, the queue is dropped, nothing marks the
    // journal entry done.
    server.abort();

    // Restart on the same data directory; recovery runs in the
    // background until the campaign is complete.
    let server = ServerHandle::start(cfg).expect("restart");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = server.stats();
        if stats.recovering == 0 && stats.queued == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "recovery did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The recovered results are complete, byte-identical to fresh
    // simulation, and a resubmit recomputes nothing.
    let mut client = Client::connect(&server);
    let (records, hits, misses) = client.submit("c1", &spec).expect("resubmit");
    assert_eq!(hits as usize, total_jobs);
    assert_eq!(misses, 0, "recovery left unfinished jobs");
    assert_eq!(records, fresh_lines(&spec));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_finishes_admitted_work() {
    let dir = temp_dir("drain");
    let _ = std::fs::remove_dir_all(&dir);
    let server = ServerHandle::start(config("drain")).expect("start");
    let spec = small_campaign("drain-work")
        .loads([0.05, 0.1, 0.15, 0.2])
        .sim(SimParams::new().cycles(200, 2_000, 2_000));

    let mut client = Client::connect(&server);
    client.send(&Client::submit_line("c1", &spec));
    let accepted = client.recv_json();
    assert_eq!(accepted.get("op").and_then(Json::as_str), Some("accepted"));

    // Drain while the campaign is (very likely still) running: the
    // admitted work must complete and stream fully.
    server.shutdown();
    let mut records = Vec::new();
    loop {
        let line = client.recv();
        let value = json::parse(&line).expect("response line");
        match value.get("op").and_then(Json::as_str) {
            Some("done") => break,
            Some(op) => panic!("unexpected control line {op:?}"),
            None => records.push(line),
        }
    }
    assert_eq!(records, fresh_lines(&spec));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
