//! End-to-end tests for `t1000 bench --all --remote ...`: a real
//! coordinator dispatching one shard per endpoint to real `t1000 serve
//! --tcp` daemons over loopback, checked for byte-identity against the
//! in-process engine — including under injected network faults
//! (`net@shard`, `netdrop@shard`), an endpoint crash (`abort@cell`), a
//! dead endpoint, resume from a checkpoint and non-default config-plane
//! knobs, where the degradation ladder must heal the run without
//! changing a byte of the artifact.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
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
        .join(format!("t1000_remote_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// The canonical in-process artifact text (`--deterministic`, test
/// scale), computed once in-process for every test in this binary.
fn reference() -> &'static str {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| {
        let config = EngineConfig {
            deterministic: true,
            ..EngineConfig::default()
        };
        let run = execute_with(&run_all_plan(), Scale::Test, &config);
        assert!(run.failures.is_empty(), "reference run must be healthy");
        to_json(&run).to_string_pretty()
    })
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
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "2"])
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
        // Drain the rest of stderr in the background so the daemon never
        // blocks on a full pipe while streaming shard after shard.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Endpoint { child, addr }
    }

    /// Two endpoints and their `--remote` list.
    fn pair() -> (Endpoint, Endpoint, String) {
        let a = Endpoint::spawn();
        let b = Endpoint::spawn();
        let remote = format!("{},{}", a.addr, b.addr);
        (a, b, remote)
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `t1000 bench --all --scale test --deterministic --json <path>`
/// with `extra` appended; returns (success, stdout+stderr).
fn bench_all(path: &str, extra: &[&str]) -> (bool, String) {
    let mut args = vec![
        "bench",
        "--all",
        "--scale",
        "test",
        "--deterministic",
        "--json",
        path,
    ];
    args.extend_from_slice(extra);
    let out = Command::new(bin()).args(&args).output().expect("run bench");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// `t1000 bench --validate <path> --expect <spec>`; returns (success,
/// stdout+stderr).
fn validate(path: &str, spec: &str) -> (bool, String) {
    let out = Command::new(bin())
        .args(["bench", "--validate", path, "--expect", spec])
        .output()
        .expect("validate");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn sidecar(path: &str) -> Json {
    Json::parse(&read(&format!("{path}.shards.json"))).expect("sidecar parses")
}

fn sidecar_u64(sc: &Json, key: &str) -> u64 {
    sc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("sidecar has no {key}: {}", sc.to_string_compact()))
}

fn retried_cells(sc: &Json) -> usize {
    sc.get("retried_cells")
        .and_then(Json::as_array)
        .expect("retried_cells array")
        .len()
}

fn degradations(sc: &Json) -> Vec<String> {
    sc.get("degradations")
        .and_then(Json::as_array)
        .expect("degradations array")
        .iter()
        .map(|d| d.as_str().expect("degradation string").to_string())
        .collect()
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

/// Two healthy loopback endpoints, one shard each: the merged artifact
/// is byte-identical to the in-process run, the sidecar records the
/// topology, and `--expect remotes=2,shards=2` asserts it through
/// `bench --validate`.
#[test]
fn remote_artifacts_are_byte_identical_and_validated() {
    let (_a, _b, remote) = Endpoint::pair();
    let path = tmp("identity.json");

    let (ok, log) = bench_all(&path, &["--remote", &remote]);
    assert!(ok, "remote run failed:\n{log}");
    assert!(log.contains("Remote: 2 endpoint(s)"), "{log}");
    assert_eq!(read(&path), reference(), "remote artifact diverges");

    let sc = sidecar(&path);
    assert_eq!(sidecar_u64(&sc, "remotes"), 2);
    assert_eq!(sidecar_u64(&sc, "shards"), 2);
    assert_eq!(sidecar_u64(&sc, "worker_crashes"), 0);
    assert!(
        degradations(&sc).is_empty(),
        "healthy run degraded: {}",
        sc.to_string_compact()
    );
    let endpoints = sc.get("endpoints").and_then(Json::as_array).unwrap();
    assert_eq!(endpoints.len(), 2);
    for e in endpoints {
        assert_eq!(
            e.get("dispatches").and_then(Json::as_u64),
            Some(1),
            "shard s must go to endpoint s: {}",
            sc.to_string_compact()
        );
    }

    let (ok, text) = validate(&path, "remotes=2,shards=2,failed_cells=0");
    assert!(ok, "{text}");
    assert!(text.contains("expectations: 3 satisfied"), "{text}");
    cleanup(&path);
}

/// One endpoint carries the whole plan. `--expect shards=N` passes
/// against the sidecar, a wrong count is a typed expectation failure,
/// and without the sidecar the key cannot be asserted at all.
#[test]
fn expect_asserts_shard_topology_via_the_sidecar() {
    let a = Endpoint::spawn();
    let path = tmp("expect.json");
    let (ok, log) = bench_all(&path, &["--remote", &a.addr]);
    assert!(ok, "{log}");
    assert_eq!(read(&path), reference(), "1-endpoint artifact diverges");

    let (ok, text) = validate(&path, "shards=1,total_sim_khz=0,failed_cells=0,scale=test");
    assert!(ok, "{text}");
    assert!(text.contains("expectations: 4 satisfied"), "{text}");

    let (ok, text) = validate(&path, "shards=4");
    assert!(!ok);
    assert!(text.contains("sidecar records 1"), "{text}");

    std::fs::remove_file(format!("{path}.shards.json")).unwrap();
    let (ok, text) = validate(&path, "shards=1");
    assert!(!ok, "{text}");
    cleanup(&path);
}

/// Chaos round: shard 1's stream is cut mid-flight (`netdrop@1`). The
/// coordinator's merge accounting spots the unaccounted cells and
/// re-dispatches them to a surviving endpoint; the healed artifact is
/// byte-identical and the sidecar records the degradation.
#[test]
fn mid_stream_disconnect_heals_to_the_identical_artifact() {
    let (_a, _b, remote) = Endpoint::pair();
    let path = tmp("netdrop.json");

    let (ok, log) = bench_all(&path, &["--remote", &remote, "--inject", "netdrop@1"]);
    assert!(ok, "healed run must succeed:\n{log}");
    assert!(log.contains("retrying on surviving endpoint"), "{log}");
    assert_eq!(read(&path), reference(), "healed artifact diverges");

    let sc = sidecar(&path);
    let degr = degradations(&sc);
    assert!(
        degr.iter().any(|d| d.starts_with("remote_retry:tcp://")),
        "expected a remote retry rung, got {degr:?}"
    );
    assert!(sidecar_u64(&sc, "worker_crashes") >= 1);
    assert!(
        retried_cells(&sc) > 0,
        "sidecar must list the retried cells"
    );
    cleanup(&path);
}

/// An endpoint that aborts mid-shard (`abort@3` crashes whichever daemon
/// runs cell 3) is detected by the coordinator; its unfinished cells
/// heal on the surviving endpoint with the abort stripped, and the
/// artifact is byte-identical — the crash shows up only in the sidecar.
#[test]
fn endpoint_crash_is_retried_and_heals_to_the_identical_artifact() {
    let (_a, _b, remote) = Endpoint::pair();
    let path = tmp("healed.json");

    let (ok, log) = bench_all(&path, &["--remote", &remote, "--inject", "abort@3"]);
    assert!(ok, "healed run must succeed:\n{log}");
    assert!(log.contains("unaccounted for"), "{log}");
    assert_eq!(read(&path), reference(), "healed artifact diverges");

    let sc = sidecar(&path);
    assert!(sidecar_u64(&sc, "worker_crashes") >= 1);
    assert!(
        retried_cells(&sc) > 0,
        "sidecar must list the retried cells"
    );
    cleanup(&path);
}

/// Connect-refusal chaos: shard 0's first two connect attempts fail
/// (`net@0x2`), the third — still inside the transport's retry/backoff
/// loop — succeeds. No degradation rung fires; the sidecar counts the
/// connect retries.
#[test]
fn connect_refusal_is_retried_with_backoff() {
    let a = Endpoint::spawn();
    let path = tmp("netretry.json");

    let (ok, log) = bench_all(
        &path,
        &[
            "--remote",
            &a.addr,
            "--inject",
            "net@0x2",
            "--backoff-ms",
            "1",
        ],
    );
    assert!(ok, "retried run must succeed:\n{log}");
    assert_eq!(read(&path), reference(), "retried artifact diverges");

    let sc = sidecar(&path);
    assert!(
        degradations(&sc).is_empty(),
        "no rung should fire: {}",
        sc.to_string_compact()
    );
    let endpoints = sc.get("endpoints").and_then(Json::as_array).unwrap();
    assert!(
        endpoints[0]
            .get("connect_retries")
            .and_then(Json::as_u64)
            .unwrap()
            >= 2,
        "{}",
        sc.to_string_compact()
    );
    cleanup(&path);
}

/// A dead endpoint (connection refused on every attempt) exhausts the
/// remote rungs and the coordinator runs the whole plan in-process —
/// still producing the byte-identical artifact.
#[test]
fn dead_endpoint_degrades_to_in_process() {
    let path = tmp("dead.json");
    let (ok, log) = bench_all(
        &path,
        &[
            "--remote",
            "127.0.0.1:1",
            "--retries",
            "2",
            "--backoff-ms",
            "1",
        ],
    );
    assert!(ok, "degraded run must succeed:\n{log}");
    assert!(log.contains("running them in-process"), "{log}");
    assert_eq!(read(&path), reference(), "degraded artifact diverges");

    let sc = sidecar(&path);
    assert!(
        degradations(&sc).contains(&"local_fallback".to_string()),
        "{}",
        sc.to_string_compact()
    );
    assert_eq!(sidecar_u64(&sc, "remotes"), 1);
    cleanup(&path);
}

/// Resume under remote sharding: an interrupted in-process run's
/// checkpoint feeds the coordinator, which only dispatches the missing
/// cells — and still reproduces the uninterrupted artifact
/// byte-for-byte.
#[test]
fn resume_skips_checkpointed_cells_and_reproduces_the_artifact() {
    let path = tmp("resume.json");
    // Interrupted run: cell 2 panics on every attempt, so the command
    // exits nonzero but leaves every other cell in the checkpoint.
    let (ok, log) = bench_all(&path, &["--inject", "panic@2x3"]);
    assert!(!ok, "injected run should report the failure:\n{log}");
    assert!(
        std::path::Path::new(&format!("{path}.partial")).exists(),
        "interrupted run must leave its checkpoint"
    );

    let (_a, _b, remote) = Endpoint::pair();
    let (ok, log) = bench_all(&path, &["--remote", &remote, "--resume"]);
    assert!(ok, "resumed run failed:\n{log}");
    assert_eq!(read(&path), reference(), "resumed artifact diverges");
    assert!(sidecar_u64(&sidecar(&path), "cells_restored") > 0);
    cleanup(&path);
}

/// Config-plane knobs travel on the wire: a `--pfu-planes 2
/// --pfu-prefetch 2` remote run is byte-identical to the in-process run
/// with the same knobs (and differs from the default-knob artifact, so
/// the knobs demonstrably reached the endpoints).
#[test]
fn config_plane_knobs_reach_the_endpoints() {
    let knobs = ["--pfu-planes", "2", "--pfu-prefetch", "2"];
    let local = tmp("knobs_local.json");
    let (ok, log) = bench_all(&local, &knobs);
    assert!(ok, "{log}");
    assert_ne!(read(&local), reference(), "knobs must change the artifact");

    let (_a, _b, remote) = Endpoint::pair();
    let path = tmp("knobs_remote.json");
    let mut extra = vec!["--remote", remote.as_str()];
    extra.extend_from_slice(&knobs);
    let (ok, log) = bench_all(&path, &extra);
    assert!(ok, "{log}");
    assert_eq!(
        read(&path),
        read(&local),
        "knobbed remote artifact diverges"
    );
    assert!(degradations(&sidecar(&path)).is_empty());
    cleanup(&path);
    cleanup(&local);
}

/// Every registry plan rides the one remote path: a sweep dispatched
/// over two endpoints merges into the artifact the in-process run of the
/// same plan writes, byte for byte, and renders the sweep's own table.
#[test]
fn registry_plans_run_remotely_byte_identical() {
    let plan = ["--plan", "pfu_policy_sweep"];
    let local = tmp("policy_local.json");
    let (ok, log) = bench_all(&local, &plan);
    assert!(ok, "{log}");
    assert!(log.contains("PFU replacement ablation"), "{log}");

    let (_a, _b, remote) = Endpoint::pair();
    let path = tmp("policy_remote.json");
    let mut extra = vec!["--remote", remote.as_str()];
    extra.extend_from_slice(&plan);
    let (ok, log) = bench_all(&path, &extra);
    assert!(ok, "{log}");
    assert!(log.contains("PFU replacement ablation"), "{log}");
    assert_eq!(read(&path), read(&local), "remote sweep artifact diverges");
    assert!(degradations(&sidecar(&path)).is_empty());
    cleanup(&path);
    cleanup(&local);
}
