//! End-to-end test for sharded `t1000 bench --all`: sharding runs one
//! shard per `--remote` endpoint, so a coordinator splitting the cell
//! matrix over 1 and 3 real `t1000 serve --tcp` daemons must merge an
//! artifact byte-identical to the single-process one. Fault, resume and
//! knob coverage for the same path lives in `remote_shard.rs`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use t1000_bench::engine::{execute_with, EngineConfig};
use t1000_bench::json::Json;
use t1000_bench::plan::run_all_plan;
use t1000_bench::results::to_json;
use t1000_workloads::Scale;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_t1000")
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("t1000_shard_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// The canonical single-process artifact text (`--deterministic`, test
/// scale), computed in-process.
fn reference() -> String {
    let config = EngineConfig {
        deterministic: true,
        ..EngineConfig::default()
    };
    let run = execute_with(&run_all_plan(), Scale::Test, &config);
    assert!(run.failures.is_empty(), "reference run must be healthy");
    to_json(&run).to_string_pretty()
}

/// A `t1000 serve --tcp 127.0.0.1:0` daemon on an OS-assigned loopback
/// port, parsed from the startup banner. Killed (and reaped) on drop.
struct Endpoint {
    child: Child,
    addr: String,
}

impl Endpoint {
    fn spawn() -> Endpoint {
        let mut child = Command::new(bin())
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve endpoint");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).expect("banner") == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("endpoint exited before announcing its TCP address");
            }
            if let Some(rest) = line.split("listening on tcp://").nth(1) {
                break rest.split_whitespace().next().expect("addr").to_string();
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Endpoint { child, addr }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn cleanup(path: &str) {
    for p in [
        path.to_string(),
        format!("{path}.partial"),
        format!("{path}.shards.json"),
    ] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sharded_artifacts_are_byte_identical_to_single_process() {
    let reference = reference();
    for shards in [1usize, 3] {
        let endpoints: Vec<Endpoint> = (0..shards).map(|_| Endpoint::spawn()).collect();
        let remote = endpoints
            .iter()
            .map(|e| e.addr.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let path = tmp(&format!("identity_{shards}.json"));
        let out = Command::new(bin())
            .args([
                "bench",
                "--all",
                "--scale",
                "test",
                "--deterministic",
                "--json",
                &path,
                "--remote",
                &remote,
            ])
            .output()
            .expect("run bench");
        let log = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.status.success(), "{shards} shard(s) failed:\n{log}");
        assert!(
            log.contains(&format!("Remote: {shards} endpoint(s)")),
            "{log}"
        );
        let artifact =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        assert_eq!(
            artifact, reference,
            "{shards}-shard artifact diverges from the single-process one"
        );

        let sc = Json::parse(
            &std::fs::read_to_string(format!("{path}.shards.json")).expect("sidecar written"),
        )
        .expect("sidecar parses");
        assert_eq!(
            sc.get("kind").and_then(Json::as_str),
            Some("t1000.bench-shards")
        );
        assert_eq!(sc.get("shards").and_then(Json::as_u64), Some(shards as u64));
        assert_eq!(sc.get("worker_crashes").and_then(Json::as_u64), Some(0));
        cleanup(&path);
    }
}
