//! The serve workload: a seeded stream of `run` requests from closed-loop
//! clients (each waits for its reply before sending the next, like DSE
//! scripts and the shard coordinator) against a loopback
//! `t1000 serve --tcp` daemon.
//!
//! Three requests in four are *warm*: a registry workload at test scale,
//! served from the daemon's session store and runner map after the first
//! time, and mostly exact repeats. One in four is *cold*: inline assembly
//! of one of the eight kernels with a fresh input seed, which misses every
//! cache and pays assemble, profile, extract, cost, select and baseline
//! simulation before its own simulation.

use crate::host;
use crate::layers;
use crate::metrics::{self, LayerWork, Metrics, SimCounts};
use crate::rng::Rng;
use crate::span::{Recorder, Span};
use crate::stats;
use crate::{Outcome, SETUPS, THREADS};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use t1000_bench::json::Json;
use t1000_bench::plan::{MachineSpec, SelectionSpec};
use t1000_core::StrategySpec;
use t1000_workloads::gen::fold_all;
use t1000_workloads::{epic, g721, gsm, mpeg2};

/// Daemon worker threads, and closed-loop client connections.
pub const WORKERS: usize = THREADS;
pub const CONNECTIONS: usize = THREADS;

/// Requests issued per second of `--seconds`: a fixed amount of work per
/// run (so memory and cache behaviour do not depend on host speed), at
/// about the rate two closed-loop clients reach on a 2-core host.
pub const REQUESTS_PER_SECOND: u64 = 30;
/// Never fewer, so the latency tail is a p99 with ten samples beyond it.
pub const MIN_REQUESTS: usize = 1000;

/// The eight kernels with their registry test-scale sizes (frames for
/// epic/unepic, samples for gsm/g721, blocks for mpeg2).
pub const KERNELS: [(&str, u32); 8] = [
    ("epic", 3),
    ("unepic", 2),
    ("gsm_enc", 600),
    ("gsm_dec", 400),
    ("g721_enc", 1200),
    ("g721_dec", 1200),
    ("mpeg2_enc", 25),
    ("mpeg2_dec", 25),
];

/// A kernel's assembly and the checksum words its Rust reference
/// predicts, built by the workload crate's public generators.
pub fn kernel_program(kernel: &str, n: u32, seed: u32) -> (String, Vec<u32>) {
    match kernel {
        "epic" => (
            epic::encoder_asm(n, seed),
            epic::encoder_reference(n, seed).to_vec(),
        ),
        "unepic" => (
            epic::decoder_asm(n, seed),
            epic::decoder_reference(n, seed).to_vec(),
        ),
        "gsm_enc" => (
            gsm::encoder_asm(n, seed),
            gsm::encoder_reference(n, seed).to_vec(),
        ),
        "gsm_dec" => (
            gsm::decoder_asm(n, seed),
            gsm::decoder_reference(n, seed).to_vec(),
        ),
        "g721_enc" => (
            g721::encoder_asm(n, seed),
            g721::encoder_reference(n, seed).to_vec(),
        ),
        "g721_dec" => (
            g721::decoder_asm(n, seed),
            g721::decoder_reference(n, seed).to_vec(),
        ),
        "mpeg2_enc" => (
            mpeg2::encoder_asm(n, seed),
            mpeg2::encoder_reference(n, seed).to_vec(),
        ),
        "mpeg2_dec" => (
            mpeg2::decoder_asm(n, seed),
            mpeg2::decoder_reference(n, seed).to_vec(),
        ),
        other => panic!("unknown kernel {other}"),
    }
}

const STRATEGIES: [&str; 3] = ["greedy", "selective", "knapsack"];
/// PFU counts of the machine axis; `None` is the unlimited machine.
const MACHINES: [Option<u64>; 3] = [Some(2), Some(4), None];

/// One `run` request of the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The request's `params` object, compact JSON.
    pub params: String,
    /// The checksum its response must carry.
    pub expected: u64,
    /// `Some(asm)` for a cold (inline-assembly) request.
    pub asm: Option<String>,
    /// The program it names: a registry workload or `kernel#seed`.
    pub program: String,
    pub selection: SelectionSpec,
}

impl Request {
    pub fn is_cold(&self) -> bool {
        self.asm.is_some()
    }
}

/// Deals the next of `n` choices: a seeded shuffle of all `n`, dealt out
/// one at a time and reshuffled when used up, so every choice occurs
/// equally often whatever the seed.
fn deal(rng: &mut Rng, deck: &mut Vec<usize>, n: usize) -> usize {
    if deck.is_empty() {
        deck.extend(0..n);
        rng.shuffle(deck);
    }
    deck.pop().expect("a refilled deck is not empty")
}

/// The seeded request stream. In every group of four, one request (at a
/// seeded position) is cold, the rest warm. Warm requests are dealt from
/// the 72 (workload, strategy, machine) combinations; cold requests take
/// their kernel from the 8 kernels and their strategy and machine from
/// the 9 pairs, each dealt the same way. The seed thus sets the order,
/// the positions and the cold input seeds, while the mix is the same for
/// every seed.
pub fn stream(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let registry: Vec<u64> = KERNELS
        .iter()
        .map(|(name, _)| {
            t1000_workloads::by_name(name, t1000_workloads::Scale::Test)
                .expect("registry workload")
                .expected_checksum()
        })
        .collect();
    let pairs = STRATEGIES.len() * MACHINES.len();
    let (mut warm, mut cold_kernels, mut cold_pairs) = (Vec::new(), Vec::new(), Vec::new());
    let mut cold_seeds = HashSet::new();
    let mut cold_slot = 0;
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                cold_slot = rng.below(4);
            }
            let cold = i % 4 == cold_slot;
            let (k, pair) = if cold {
                let k = deal(&mut rng, &mut cold_kernels, KERNELS.len());
                (k, deal(&mut rng, &mut cold_pairs, pairs))
            } else {
                let w = deal(&mut rng, &mut warm, KERNELS.len() * pairs);
                (w / pairs, w % pairs)
            };
            let (kernel, size) = KERNELS[k];
            let strategy = STRATEGIES[pair / MACHINES.len()];
            let machine = MACHINES[pair % MACHINES.len()];
            let mut params: Vec<(&str, Json)> = vec![("strategy", Json::Str(strategy.into()))];
            params.push(match machine {
                Some(pfus) => ("pfus", Json::UInt(pfus)),
                None => (
                    "machine",
                    Json::obj(vec![("pfus", Json::Str("unlimited".into()))]),
                ),
            });
            let pfus = machine.unwrap_or(2) as usize;
            let selection = match strategy {
                "greedy" => SelectionSpec::Greedy,
                "selective" => SelectionSpec::selective_std(Some(pfus)),
                _ => SelectionSpec::knapsack(256),
            };
            if cold {
                // A fresh input seed: a program no earlier request sent.
                let input_seed = loop {
                    let s = rng.next_u64() as u32;
                    if cold_seeds.insert((kernel, s)) {
                        break s;
                    }
                };
                let (asm, words) = kernel_program(kernel, size, input_seed);
                params.push(("asm", Json::Str(asm.clone())));
                Request {
                    params: Json::obj(params).to_string_compact(),
                    expected: fold_all(&words),
                    asm: Some(asm),
                    program: format!("{kernel}#{input_seed}"),
                    selection,
                }
            } else {
                params.push(("workload", Json::Str(kernel.into())));
                params.push(("scale", Json::Str("test".into())));
                Request {
                    params: Json::obj(params).to_string_compact(),
                    expected: registry[k],
                    asm: None,
                    program: kernel.to_string(),
                    selection,
                }
            }
        })
        .collect()
}

fn request_line(id: usize, method: &str, params: Option<&str>) -> String {
    match params {
        Some(p) => format!("{{\"id\":{id},\"method\":\"{method}\",\"params\":{p}}}\n"),
        None => format!("{{\"id\":{id},\"method\":\"{method}\"}}\n"),
    }
}

/// A connection speaking the daemon's newline-delimited JSON-RPC.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn call_json(&mut self, method: &str) -> Result<Json, String> {
        let text = self.call(&request_line(0, method, None))?;
        let doc = Json::parse(&text).map_err(|e| format!("{method}: {e}"))?;
        doc.get("result")
            .cloned()
            .ok_or_else(|| format!("{method}: {}", text.trim()))
    }
}

/// A `t1000 serve --tcp` daemon on a free loopback port: this binary
/// re-executed with `serve` arguments, which hands them to the CLI
/// library exactly as the `t1000` binary does. Killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    log: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn start() -> Result<Daemon, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        let child = Command::new(exe)
            .args([
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: None,
        };
        let stderr = daemon.child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        // The startup banner names the bound address.
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading the daemon banner: {e}"))?;
            if let Some(rest) = line.split("tcp://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("daemon address {addr}: {e}"))?;
                break;
            }
            eprintln!("{line}");
        }
        if daemon.addr.port() == 0 {
            return Err("the daemon exited before binding".into());
        }
        daemon.log = Some(std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("{line}");
            }
        }));
        let pong = Conn::open(daemon.addr)
            .map_err(|e| format!("connecting to the daemon: {e}"))?
            .call_json("ping")?;
        if pong.get("pong").and_then(Json::as_bool) != Some(true) {
            return Err("the daemon did not answer ping".into());
        }
        Ok(daemon)
    }

    /// Asks the daemon to drain and exit, and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::open(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call_json("shutdown"));
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.join_log();
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(format!("shutdown request: {e}")),
                    (_, false) => Err(format!("daemon exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the daemon did not exit after shutdown".into())
    }

    fn join_log(&mut self) {
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.join_log();
    }
}

/// One answered request.
pub struct Reply {
    pub index: usize,
    pub latency_ns: u64,
    /// Server-side simulation time of the cell (`cell.host_ns`).
    pub host_ns: u64,
    pub sim: SimCounts,
}

/// Drives `requests` through `CONNECTIONS` closed-loop connections; each
/// takes the next unsent request when its previous reply has arrived.
/// With a recorder, each request is a span with the reply's `host_ns` as
/// its simulate child. Failed requests are reported as errors.
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    rec: Option<&Recorder>,
) -> (Vec<Reply>, Vec<String>) {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(requests.len()));
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let fail = |e: String| errors.lock().expect("error list").push(e);
                let mut conn = match Conn::open(addr) {
                    Ok(c) => c,
                    Err(e) => return fail(format!("connect: {e}")),
                };
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(index) else {
                        return;
                    };
                    let line = request_line(index + 1, "run", Some(&req.params));
                    let span_start = rec.map(Recorder::now_ns);
                    let t0 = Instant::now();
                    let response = conn.call(&line);
                    let latency_ns = t0.elapsed().as_nanos() as u64;
                    let reply = response.and_then(|text| parse_reply(&text, req));
                    match reply {
                        Ok((host_ns, sim)) => {
                            if let (Some(rec), Some(start_ns)) = (rec, span_start) {
                                let span = Span {
                                    id: rec.next_id(),
                                    parent: None,
                                    trace: index as u64,
                                    name: if req.is_cold() {
                                        "request.cold"
                                    } else {
                                        "request.warm"
                                    },
                                    start_ns,
                                    end_ns: start_ns + latency_ns,
                                };
                                rec.record_within("server_simulate", &span, host_ns);
                                rec.record(span);
                            }
                            replies.lock().expect("reply list").push(Reply {
                                index,
                                latency_ns,
                                host_ns,
                                sim,
                            });
                        }
                        Err(e) => fail(format!("request {index} ({}): {e}", req.program)),
                    }
                }
            });
        }
    });
    let mut replies = replies.into_inner().expect("reply list");
    replies.sort_by_key(|r| r.index);
    (replies, errors.into_inner().expect("error list"))
}

/// Checks a `run` response against its request's expected checksum and
/// extracts its measurements.
fn parse_reply(text: &str, req: &Request) -> Result<(u64, SimCounts), String> {
    let doc = Json::parse(text).map_err(|e| format!("unparseable response: {e}"))?;
    if let Some(err) = doc.get("error") {
        return Err(format!("error response: {}", err.to_string_compact()));
    }
    let cell = doc
        .get("result")
        .and_then(|r| r.get("cell"))
        .ok_or("response has no result.cell")?;
    let u64_at = |path: &[&str]| -> Result<u64, String> {
        path.iter()
            .try_fold(cell, |j, k| j.get(k))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("response lacks cell.{}", path.join(".")))
    };
    let checksum = cell
        .get("checksum")
        .and_then(Json::as_str)
        .unwrap_or_default();
    let expected = format!("0x{:016x}", req.expected);
    if checksum != expected {
        return Err(format!("checksum {checksum}, reference {expected}"));
    }
    let sim = SimCounts {
        cycles: u64_at(&["cycles"])?,
        base_instructions: u64_at(&["base_instructions"])?,
        speedup: cell.get("speedup").and_then(Json::as_f64),
        replayed_iters: u64_at(&["fast_path", "replayed_iters"])?,
        deopts: u64_at(&["fast_path", "deopts"])?,
        reconfigurations: u64_at(&["reconfigurations"])?,
        conf_hits: u64_at(&["conf_hits"])?,
    };
    Ok((u64_at(&["host_ns"])?, sim))
}

/// Number of requests in a run of `seconds`.
pub fn request_count(seconds: u64) -> usize {
    ((seconds * REQUESTS_PER_SECOND) as usize).max(MIN_REQUESTS)
}

/// Set-up: generate the request stream (programs and reference
/// checksums), start the daemon and see it answer `ping`.
fn set_up(seed: u64, n: usize) -> Result<(Vec<Request>, Daemon), String> {
    let requests = stream(seed, n);
    Ok((requests, Daemon::start()?))
}

/// Everything one measured pass over the stream produced.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    replies: Vec<Reply>,
    status: Json,
    cache_stats: Json,
}

/// Sends the whole stream, then reads `status` and `cache_stats` and
/// shuts the daemon down. CPU time counts this process and the daemon;
/// peak memory is the daemon's, which holds the session store.
fn pass(
    requests: &[Request],
    daemon: Daemon,
    rec: Option<&Recorder>,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    let children0 = host::children_usage().cpu_s;
    let cpu0 = host::self_usage().cpu_s;
    let t0 = Instant::now();
    let (replies, errors) = drive(daemon.addr, requests, rec);
    let wall_s = t0.elapsed().as_secs_f64();
    let client_cpu_s = host::self_usage().cpu_s - cpu0;
    outcome.attempted += requests.len() as u64;
    outcome.failed += (requests.len() - replies.len()) as u64;
    outcome.errors.extend(errors);

    let mut control = Conn::open(daemon.addr).map_err(|e| format!("control connection: {e}"))?;
    let status = control.call_json("status")?;
    let cache_stats = control.call_json("cache_stats")?;
    drop(control);
    daemon.shutdown()?;
    let children = host::children_usage();

    let programs: HashSet<&str> = requests.iter().map(|r| r.program.as_str()).collect();
    let analyses = cache_stats.get("analyses").and_then(Json::as_u64);
    if analyses != Some(programs.len() as u64) {
        outcome.errors.push(format!(
            "daemon analysed {analyses:?} programs for {} distinct programs sent",
            programs.len()
        ));
    }
    Ok(Pass {
        wall_s,
        cpu_s: client_cpu_s + children.cpu_s - children0,
        peak_rss_mb: children.peak_rss_mb,
        replies,
        status,
        cache_stats,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Untraced run: set up `SETUPS` times (median reported; all but the
/// last daemon are shut down again), then one pass over the stream.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let n = request_count(seconds);
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some((_, daemon)) = ready.take() {
            if let Err(e) = Daemon::shutdown(daemon) {
                outcome.errors.push(e);
            }
        }
        let t0 = Instant::now();
        match set_up(seed, n) {
            Ok(r) => ready = Some(r),
            Err(e) => {
                outcome.errors.push(e);
                return outcome;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (requests, daemon) = ready.expect("set up at least once");
    let p = match pass(&requests, daemon, None, &mut outcome) {
        Ok(p) => p,
        Err(e) => {
            outcome.errors.push(e);
            return outcome;
        }
    };
    let latencies: Vec<f64> = p.replies.iter().map(|r| ms(r.latency_ns)).collect();
    let Some(tail) = stats::tail(&latencies) else {
        outcome
            .errors
            .push("too few replies for a latency tail".into());
        return outcome;
    };
    let instructions: u64 = p.replies.iter().map(|r| r.sim.base_instructions).sum();
    let m = &mut outcome.metrics;
    m.insert("wall_s", p.wall_s);
    m.insert("cpu_s", p.cpu_s);
    m.insert("sim_mips", instructions as f64 / p.wall_s / 1e6);
    m.insert("lat_p50_ms", stats::median(&latencies).expect("replies"));
    m.insert("lat_tail_ms", tail.value);
    m.insert("req_per_s", p.replies.len() as f64 / p.wall_s);
    m.insert("peak_rss_mb", p.peak_rss_mb);
    m.insert(
        "setup_s",
        stats::median(&setups).expect("set up at least once"),
    );
    let cold = requests.iter().filter(|r| r.is_cold()).count();
    outcome.notes.push(format!(
        "peak RSS: daemon {:.1} MB, client {:.1} MB",
        p.peak_rss_mb,
        host::self_usage().peak_rss_mb
    ));
    outcome.notes.push(format!(
        "{} requests ({cold} cold) over {CONNECTIONS} connections to {WORKERS} workers; latency tail is p{} of {} samples ({} beyond)",
        requests.len(),
        tail.percentile,
        tail.samples,
        tail.beyond
    ));
    let mut fingerprint = Metrics::new();
    let counts: Vec<SimCounts> = p.replies.iter().map(|r| r.sim).collect();
    metrics::sim_metrics(&counts, &mut fingerprint);
    outcome.notes.push(format!(
        "sim: cycles {} base_instructions {}",
        fingerprint["sim.cycles"], fingerprint["sim.base_instructions"]
    ));
    outcome
}

/// Cold programs whose layers the traced run times client-side, besides
/// every registry workload the stream names.
const COLD_SAMPLE: usize = 32;

/// Traced run: an untraced pass (for its CPU time), a traced pass over
/// the same stream against a fresh daemon, then client-side timing of
/// the analysis and simulation layers on the programs the stream sent.
pub fn traced(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let n = request_count(seconds);
    let rec = Recorder::new();
    let passes = (|| -> Result<(Pass, Pass, Vec<Request>), String> {
        let (requests, daemon) = set_up(seed, n)?;
        let untraced = pass(&requests, daemon, None, &mut outcome)?;
        let traced = pass(&requests, Daemon::start()?, Some(&rec), &mut outcome)?;
        Ok((untraced, traced, requests))
    })();
    let (untraced, traced, requests) = match passes {
        Ok(p) => p,
        Err(e) => {
            outcome.errors.push(e);
            return outcome;
        }
    };

    let mut work = LayerWork::default();
    sample_layers(&rec, &requests, &mut work, &mut outcome.errors);
    let spans = rec.finish();

    let m = &mut outcome.metrics;
    let p50 = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let replies = &traced.replies;
    m.insert(
        "serve.warm_p50_ms",
        p50(replies
            .iter()
            .filter(|r| !requests[r.index].is_cold())
            .map(|r| ms(r.latency_ns))
            .collect()),
    );
    m.insert(
        "serve.cold_p50_ms",
        p50(replies
            .iter()
            .filter(|r| requests[r.index].is_cold())
            .map(|r| ms(r.latency_ns))
            .collect()),
    );
    m.insert(
        "serve.sim_p50_ms",
        p50(replies.iter().map(|r| ms(r.host_ns)).collect()),
    );
    m.insert(
        "serve.overhead_p50_ms",
        p50(replies
            .iter()
            .map(|r| ms(r.latency_ns.saturating_sub(r.host_ns)))
            .collect()),
    );
    let mut seen = HashSet::new();
    let repeats = requests.iter().filter(|r| !seen.insert(&r.params)).count();
    m.insert("serve.repeat_frac", repeats as f64 / requests.len() as f64);
    let count = |doc: &Json, path: &[&str]| {
        path.iter()
            .try_fold(doc, |j, k| j.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let hits = count(&traced.cache_stats, &["session_hits"]);
    let analyses = count(&traced.cache_stats, &["analyses"]);
    m.insert("serve.store_hit_ratio", hits / (hits + analyses).max(1.0));
    m.insert("serve.shed", count(&traced.status, &["requests", "shed"]));
    m.insert(
        "serve.errors",
        count(&traced.status, &["requests", "failed"]),
    );
    let counts: Vec<SimCounts> = replies.iter().map(|r| r.sim).collect();
    metrics::sim_metrics(&counts, m);
    metrics::layer_metrics(&spans, &work, m);
    m.insert("trace.overhead_frac", traced.cpu_s / untraced.cpu_s - 1.0);
    outcome.spans = spans;
    outcome
}

/// Client-side layer timing on the programs the stream sent: every
/// registry workload it names and the first `COLD_SAMPLE` cold programs,
/// each through the analysis layers (with the strategies requested for
/// it) and, on a 2-PFU machine with its 2-PFU selective selection,
/// through the functional core and the timing model with the fast path
/// on and off.
fn sample_layers(
    rec: &Recorder,
    requests: &[Request],
    work: &mut LayerWork,
    errors: &mut Vec<String>,
) {
    let mut programs: Vec<&Request> = Vec::new();
    let mut cold = 0;
    for r in requests {
        if programs.iter().any(|p| p.program == r.program) || (r.is_cold() && cold == COLD_SAMPLE) {
            continue;
        }
        cold += usize::from(r.is_cold());
        programs.push(r);
    }
    let samples: Vec<(usize, &Request)> = programs.into_iter().enumerate().collect();
    let runs = t1000_bench::engine::parallel_map(&samples, THREADS, |&(i, req)| {
        let asm = match &req.asm {
            Some(asm) => asm.clone(),
            None => {
                t1000_workloads::by_name(&req.program, t1000_workloads::Scale::Test)
                    .expect("registry workload")
                    .asm
            }
        };
        let strategies: Vec<StrategySpec> = {
            let mut specs: Vec<StrategySpec> = Vec::new();
            for s in requests.iter().filter(|r| r.program == req.program) {
                let spec = s.selection.strategy_spec().expect("run requests select");
                if !specs.contains(&spec) {
                    specs.push(spec);
                }
            }
            specs
        };
        let trace = i as u64;
        let program = layers::analyse(rec, trace, &asm, &strategies)?;
        let session = t1000_core::Session::new(program).map_err(|e| e.to_string())?;
        let selective = SelectionSpec::selective_std(Some(2)).strategy_spec();
        let selection = session.select_shared(&selective.expect("selective selects"));
        let cpu = MachineSpec::with_pfus(2, 10).cpu_config();
        let accurate =
            layers::time_cpu(rec, trace, session.program(), &selection.fusion, cpu, true)?;
        Ok::<_, String>((asm.len() as u64, accurate))
    });
    for run in runs {
        match run {
            Ok((bytes, accurate)) => {
                work.asm_bytes += bytes;
                work.analysed_instrs += accurate.timing.base_instructions;
                // The fast-path-on time is in the `simulate` spans.
                work.add_run(&accurate, 0);
            }
            Err(e) => errors.push(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t1000_isa::FusionMap;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        assert_eq!(stream(7, 64), stream(7, 64));
    }

    #[test]
    fn another_seed_gives_other_cold_programs() {
        let cold = |seed| -> Vec<String> {
            stream(seed, 64)
                .into_iter()
                .filter(Request::is_cold)
                .map(|r| r.program)
                .collect()
        };
        let (a, b) = (cold(7), cold(8));
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|p| !b.contains(p)));
    }

    #[test]
    fn one_request_in_four_is_cold_and_every_cold_program_is_new() {
        let s = stream(3, 400);
        for group in s.chunks(4) {
            assert_eq!(group.iter().filter(|r| r.is_cold()).count(), 1);
        }
        let cold: HashSet<&str> = s
            .iter()
            .filter(|r| r.is_cold())
            .map(|r| r.program.as_str())
            .collect();
        assert_eq!(cold.len(), 100);
        // Warm requests repeat: the 72 workload/strategy/machine
        // combinations come round equally often (300 warm = 4 x 72 + 12).
        let warm: Vec<&str> = s
            .iter()
            .filter(|r| !r.is_cold())
            .map(|r| r.params.as_str())
            .collect();
        let distinct: HashSet<&str> = warm.iter().copied().collect();
        assert_eq!(distinct.len(), 72);
        for p in &distinct {
            let n = warm.iter().filter(|w| *w == p).count();
            assert!(n == 4 || n == 5, "{p} sent {n} times");
        }
        // Cold kernels too: 100 cold = 12 x 8 + 4.
        for (kernel, _) in KERNELS {
            let n = s
                .iter()
                .filter(|r| r.is_cold() && r.program.starts_with(&format!("{kernel}#")))
                .count();
            assert!(n == 12 || n == 13, "{kernel} cold {n} times");
        }
    }

    #[test]
    fn every_kernel_generator_matches_its_rust_reference() {
        for (kernel, n) in KERNELS {
            for seed in [1, 0xdead_beef] {
                let (asm, words) = kernel_program(kernel, n, seed);
                let program = t1000_asm::assemble(&asm).unwrap();
                let (sys, _) = t1000_cpu::execute(&program, &FusionMap::new(), 0).unwrap();
                assert_eq!(sys.checksum, fold_all(&words), "{kernel} seed {seed}");
            }
        }
    }

    #[test]
    fn warm_requests_expect_the_registry_checksum() {
        for r in stream(5, 40).iter().filter(|r| !r.is_cold()) {
            let w = t1000_workloads::by_name(&r.program, t1000_workloads::Scale::Test).unwrap();
            assert_eq!(r.expected, w.expected_checksum());
        }
    }
}
