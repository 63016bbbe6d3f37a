//! End-to-end tests for `t1000 serve`: a real daemon process, concurrent
//! Unix-socket clients, the shared analysis cache, deadline shedding,
//! malformed requests, graceful shutdown, and the stdio transport.
//! The wire protocol these exercise is specified in `docs/SERVING.md`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use t1000_bench::engine::{CellRunner, RunOptions};
use t1000_bench::json::Json;
use t1000_bench::plan::{Cell, MachineSpec, SelectionSpec};
use t1000_bench::results::cell_result_json;
use t1000_core::ExtractConfig;
use t1000_workloads::Scale;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_t1000")
}

struct Daemon {
    child: Child,
    path: std::path::PathBuf,
}

impl Daemon {
    fn spawn(name: &str) -> Daemon {
        let path =
            std::env::temp_dir().join(format!("t1000_serve_{}_{name}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let child = Command::new(bin())
            .args([
                "serve",
                "--socket",
                path.to_str().unwrap(),
                "--workers",
                "3",
                "--queue",
                "8",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        // Daemon's Drop kills and reaps the child on every exit path.
        let daemon = Daemon { child, path };
        for _ in 0..200 {
            if UnixStream::connect(&daemon.path).is_ok() {
                return daemon;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!(
            "daemon did not start listening on {}",
            daemon.path.display()
        );
    }

    /// One request over a fresh connection; returns the parsed response.
    fn request(&self, line: &str) -> Json {
        let mut stream = UnixStream::connect(&self.path).expect("connect");
        writeln!(stream, "{line}").expect("send");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response `{resp}`: {e}"))
    }

    fn wait_for_exit(&mut self, limit: Duration) -> bool {
        let deadline = std::time::Instant::now() + limit;
        while std::time::Instant::now() < deadline {
            if self.child.try_wait().expect("try_wait").is_some() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}

fn result(resp: &Json) -> &Json {
    assert!(
        resp.get("error").is_none(),
        "unexpected error: {}",
        resp.to_string_compact()
    );
    resp.get("result").expect("result")
}

fn error_code(resp: &Json) -> u64 {
    resp.get("error")
        .unwrap_or_else(|| panic!("expected error: {}", resp.to_string_compact()))
        .get("code")
        .and_then(Json::as_u64)
        .expect("error.code")
}

/// Drops the host-timing fields (`host_ns`, `sim_khz`) — the only
/// nondeterministic content in a cell document.
fn strip_timing(cell: &Json) -> String {
    let mut cell = cell.clone();
    if let Json::Obj(fields) = &mut cell {
        fields.retain(|(k, _)| k != "host_ns" && k != "sim_khz");
    }
    cell.to_string_compact()
}

#[test]
fn concurrent_clients_share_one_analysis_and_match_t1000_run() {
    let daemon = Daemon::spawn("conc");

    // N concurrent clients, same workload x different strategies.
    let strategies = [
        r#""strategy": "selective", "pfus": 2"#,
        r#""strategy": "selective", "pfus": 1"#,
        r#""strategy": "greedy""#,
        r#""strategy": "knapsack", "lut_budget": 200"#,
    ];
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = strategies
            .iter()
            .enumerate()
            .map(|(i, strat)| {
                let daemon = &daemon;
                s.spawn(move || {
                    daemon.request(&format!(
                        r#"{{"id": {i}, "method": "run", "params": {{"workload": "gsm_dec", {strat}}}}}"#
                    ))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(i as u64));
        let cell = result(resp).get("cell").expect("cell");
        assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        assert!(cell.get("attribution").is_some());
    }

    // Exactly one analysis for the program, however many clients.
    let stats = daemon.request(r#"{"id": 10, "method": "cache_stats"}"#);
    let stats = result(&stats);
    assert_eq!(stats.get("programs").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("analyses").and_then(Json::as_u64), Some(1));
    assert!(stats.get("session_hits").and_then(Json::as_u64).unwrap() >= 3);

    // The served document is bit-identical (modulo host timing) to the
    // same cell executed in-process through the engine's CellRunner.
    let opts = RunOptions::default();
    let runner =
        CellRunner::for_workload("gsm_dec", ExtractConfig::default(), Scale::Test, &opts).unwrap();
    let cell = Cell::new(
        "gsm_dec",
        SelectionSpec::selective_std(Some(2)),
        MachineSpec::with_pfus(2, 10),
    );
    let local = runner.run_cell(cell, &opts).unwrap();
    let speedup = runner.baseline_cycles() as f64 / local.cycles as f64;
    let want = cell_result_json(&local, Some(speedup));
    let served = result(&responses[0]).get("cell").unwrap();
    assert_eq!(strip_timing(served), strip_timing(&want));
    assert_eq!(
        result(&responses[0])
            .get("baseline_cycles")
            .and_then(Json::as_u64),
        Some(runner.baseline_cycles())
    );

    // ...and to the same cell run via `t1000 run bench:gsm_dec --pfus 2`.
    let out = Command::new(bin())
        .args(["run", "bench:gsm_dec", "--pfus", "2"])
        .output()
        .expect("t1000 run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("baseline: "))
        .unwrap_or_else(|| panic!("no baseline line in: {text}"));
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let cli_baseline: u64 = tokens[1].parse().unwrap();
    let cli_cycles: u64 = tokens[5].parse().unwrap();
    assert_eq!(
        result(&responses[0])
            .get("baseline_cycles")
            .and_then(Json::as_u64),
        Some(cli_baseline)
    );
    assert_eq!(
        served.get("cycles").and_then(Json::as_u64),
        Some(cli_cycles)
    );
}

#[test]
fn deadline_shed_and_malformed_requests() {
    let daemon = Daemon::spawn("errs");

    // An already-expired deadline is shed deterministically.
    let resp = daemon.request(
        r#"{"id": 1, "method": "run", "params": {"workload": "gsm_dec", "deadline_ms": 0}}"#,
    );
    assert_eq!(error_code(&resp), 408);

    // Unparseable request: id null, typed 400.
    let resp = daemon.request("{not json");
    assert_eq!(error_code(&resp), 400);
    assert_eq!(resp.get("id"), Some(&Json::Null));

    // Structurally invalid requests: typed 400 with the id echoed.
    for bad in [
        r#"{"id": 2, "method": "run"}"#,
        r#"{"id": 3, "method": "run", "params": {"workload": "nope"}}"#,
        r#"{"id": 4, "method": "frobnicate"}"#,
    ] {
        let resp = daemon.request(bad);
        assert_eq!(error_code(&resp), 400, "{bad}");
        assert!(resp.get("id").and_then(Json::as_u64).is_some());
    }

    let status = daemon.request(r#"{"id": 5, "method": "status"}"#);
    let requests = result(&status).get("requests").unwrap();
    assert_eq!(
        requests.get("deadline_exceeded").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(requests.get("malformed").and_then(Json::as_u64), Some(1));
    assert!(requests.get("failed").and_then(Json::as_u64).unwrap() >= 5);
}

#[test]
fn shutdown_drains_and_exits() {
    let mut daemon = Daemon::spawn("down");
    let resp = daemon.request(r#"{"id": 1, "method": "shutdown"}"#);
    assert_eq!(
        result(&resp).get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );
    assert!(daemon.wait_for_exit(Duration::from_secs(10)), "no exit");
}

/// Regression test for shutdown-vs-`run_shard` draining: a `shutdown`
/// received while a shard stream is mid-flight must let the stream run to
/// its final result envelope before the process exits (the coordinator
/// would otherwise see a torn stream and burn a retry wave).
#[test]
fn shutdown_drains_inflight_run_shard() {
    let mut daemon = Daemon::spawn("drain");

    // Connection A carries the shard stream; we deliberately do not read
    // from it until after shutdown has been requested elsewhere.
    let mut shard_conn = UnixStream::connect(&daemon.path).expect("connect shard stream");
    writeln!(
        shard_conn,
        r#"{{"id": 7, "method": "run_shard", "params": {{"plan": "run_all", "scale": "test", "cells": [0, 1, 2, 3, 4, 5], "deterministic": true}}}}"#
    )
    .expect("send run_shard");
    shard_conn.flush().expect("flush");

    // Wait until the daemon reports the stream as in-flight (or, if the
    // machine is fast enough to finish it already, as completed).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = daemon.request(r#"{"id": 1, "method": "status"}"#);
        let streams = result(&status).get("shard_streams").expect("shard_streams");
        let active = streams.get("active").and_then(Json::as_u64).unwrap_or(0);
        let done = streams.get("completed").and_then(Json::as_u64).unwrap_or(0);
        if active > 0 || done > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "run_shard never showed up in status: {}",
            status.to_string_compact()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Health probe still answers inline, then order the shutdown.
    let pong = daemon.request(r#"{"id": 2, "method": "ping"}"#);
    assert_eq!(
        result(&pong).get("pong").and_then(Json::as_bool),
        Some(true)
    );
    let down = daemon.request(r#"{"id": 3, "method": "shutdown"}"#);
    assert_eq!(
        result(&down).get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );

    // The in-flight stream must still deliver every event line and the
    // final id-echoing envelope.
    let mut reader = BufReader::new(shard_conn);
    let mut cells = 0u64;
    let envelope = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("stream read") > 0,
            "shard stream was torn by shutdown after {cells} cell(s)"
        );
        let doc = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        if doc.get("method").and_then(Json::as_str) == Some("cell") {
            cells += 1;
        }
        if doc.get("result").is_some() {
            break doc;
        }
    };
    assert_eq!(envelope.get("id").and_then(Json::as_u64), Some(7));
    assert_eq!(
        result(&envelope).get("cells").and_then(Json::as_u64),
        Some(6)
    );
    assert_eq!(cells, 6, "every assigned cell streams an event line");

    assert!(
        daemon.wait_for_exit(Duration::from_secs(30)),
        "daemon did not exit after draining the shard stream"
    );
}

/// A `t1000 serve --tcp 127.0.0.1:0` daemon on an OS-assigned loopback
/// port, parsed from the startup banner. Killed and reaped on drop.
struct TcpDaemon {
    child: Child,
    addr: String,
}

impl TcpDaemon {
    fn spawn() -> TcpDaemon {
        let mut child = Command::new(bin())
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tcp daemon");
        // The banner carries the OS-chosen port: "... listening on tcp://ADDR ...".
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).expect("banner") == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon exited before announcing its TCP address");
            }
            if let Some(rest) = line.split("listening on tcp://").nth(1) {
                break rest.split_whitespace().next().expect("addr").to_string();
            }
        };
        TcpDaemon { child, addr }
    }

    fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }
}

impl Drop for TcpDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn recv(reader: &mut BufReader<TcpStream>) -> Json {
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response `{resp}`: {e}"))
}

/// The TCP transport speaks the identical wire contract as the Unix
/// socket: bind loopback on an OS-assigned port (parsed from the startup
/// banner), run a scripted session over `TcpStream`, shut down cleanly.
#[test]
fn tcp_transport_speaks_the_same_wire_contract() {
    let mut daemon = TcpDaemon::spawn();
    let (mut stream, mut reader) = daemon.connect();
    let mut ask = |line: &str| -> Json {
        writeln!(stream, "{line}").expect("send");
        stream.flush().expect("flush");
        recv(&mut reader)
    };

    let status = ask(r#"{"id": 1, "method": "status"}"#);
    assert!(result(&status).get("uptime_ms").is_some());

    let run = ask(
        r#"{"id": 2, "method": "run", "params": {"workload": "gsm_dec", "strategy": "selective", "pfus": 2}}"#,
    );
    let cell = result(&run).get("cell").expect("cell");
    assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        cell.get("checksum").and_then(Json::as_str).map(str::len),
        Some(18)
    );

    let resp = ask("{not json");
    assert_eq!(error_code(&resp), 400);

    let down = ask(r#"{"id": 3, "method": "shutdown"}"#);
    assert_eq!(
        result(&down).get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tcp daemon did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success());
}

/// A request whose TCP segments arrive 600 ms apart — three of the
/// reader's read timeouts — is still one request, answered with its own
/// id: partial bytes survive a timeout.
#[test]
fn delayed_split_request_is_answered_with_its_own_id() {
    let daemon = TcpDaemon::spawn();
    let (mut stream, mut reader) = daemon.connect();
    stream.set_nodelay(true).expect("nodelay");
    let request = b"{\"id\": 7, \"method\": \"ping\"}\n";
    stream.write_all(&request[..10]).expect("first half");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(600));
    stream.write_all(&request[10..]).expect("second half");
    stream.flush().expect("flush");
    let resp = recv(&mut reader);
    assert_eq!(
        resp.get("id").and_then(Json::as_u64),
        Some(7),
        "{}",
        resp.to_string_compact()
    );
    assert_eq!(
        result(&resp).get("pong").and_then(Json::as_bool),
        Some(true)
    );
}

/// A request line longer than the cap earns a typed 400 and its
/// connection is closed; the daemon keeps answering fresh connections.
#[test]
fn over_long_request_line_is_refused_and_the_daemon_keeps_serving() {
    let daemon = TcpDaemon::spawn();
    let (mut stream, mut reader) = daemon.connect();
    // One byte past the cap and no newline: the daemon reads it all,
    // refuses it, and closes without unread input left behind.
    let line = vec![b'['; t1000_bench::lines::MAX_LINE_BYTES + 1];
    stream.write_all(&line).expect("send over-long line");
    stream.flush().expect("flush");
    let resp = recv(&mut reader);
    assert_eq!(error_code(&resp), 400);
    let kind = resp
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("line_too_long"));
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("eof"),
        0,
        "connection stays open: {rest}"
    );

    let (mut fresh, mut fresh_reader) = daemon.connect();
    writeln!(fresh, r#"{{"id": 8, "method": "ping"}}"#).expect("send");
    let pong = recv(&mut fresh_reader);
    assert_eq!(pong.get("id").and_then(Json::as_u64), Some(8));
    assert_eq!(
        result(&pong).get("pong").and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn stdio_transport_runs_a_scripted_session() {
    let mut child = Command::new(bin())
        .arg("serve")
        .args(["--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stdio daemon");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    // Lockstep request/response, as in docs/SERVING.md's transcript.
    let mut ask = |line: &str| -> Json {
        writeln!(stdin, "{line}").expect("send");
        stdin.flush().expect("flush");
        let mut resp = String::new();
        stdout.read_line(&mut resp).expect("recv");
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response `{resp}`: {e}"))
    };

    let status = ask(r#"{"id": 1, "method": "status"}"#);
    assert!(result(&status).get("uptime_ms").is_some());

    let run = ask(
        r#"{"id": 2, "method": "run", "params": {"workload": "gsm_dec", "strategy": "selective", "pfus": 2}}"#,
    );
    let cell = result(&run).get("cell").expect("cell");
    assert!(cell.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        cell.get("checksum").and_then(Json::as_str).map(str::len),
        Some(18) // 0x + 16 hex digits
    );

    let stats = ask(r#"{"id": 3, "method": "cache_stats"}"#);
    assert_eq!(
        result(&stats).get("analyses").and_then(Json::as_u64),
        Some(1)
    );

    let down = ask(r#"{"id": 4, "method": "shutdown"}"#);
    assert_eq!(
        result(&down).get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );
    drop(stdin);
    let status = child.wait().expect("wait");
    assert!(status.success());
}
