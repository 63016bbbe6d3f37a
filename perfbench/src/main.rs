//! # t1000-perfbench — the repository's benchmark
//!
//! ```text
//! t1000-perfbench --workload batch_codec|batch_loop|serve_mixed
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics untraced; with
//! `--trace 1` it runs the same work once untraced and once with a span
//! around every call into a layer, and reports the per-layer metrics.
//! Either way it checks every output against its reference, prints each
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! It exits nonzero if any output is wrong. See `README.md`.
//!
//! `t1000-perfbench serve ...` runs the `t1000 serve` daemon itself (the
//! serve workload starts its daemon that way).

mod batch;
mod host;
mod layers;
mod metrics;
mod rng;
mod serve;
mod span;
mod stats;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use span::Span;
use std::path::Path;

/// Engine threads, serve workers and client connections: the 2-core
/// host's `nproc`, so one process generates all load without
/// oversubscribing it.
pub const THREADS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const WORKLOADS: [&str; 3] = ["batch_codec", "batch_loop", "serve_mixed"];

const USAGE: &str = "usage: t1000-perfbench --workload batch_codec|batch_loop|serve_mixed --seed N --seconds S --trace 0|1";

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells simulated, or requests sent.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Every correctness violation, failed operations included.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        match t1000_cli::run(&argv) {
            Ok(summary) => eprint!("{summary}"),
            Err(e) => {
                eprintln!("t1000: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("t1000-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The engine sizes its pool from this variable.
    std::env::set_var("T1000_THREADS", THREADS.to_string());
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("t1000-perfbench: creating {}: {e}", out.display());
        std::process::exit(1);
    }

    let (seed, seconds) = (args.seed, args.seconds);
    let mut outcome = match (args.workload, args.trace) {
        ("batch_codec", false) => batch::run(&batch::CODEC, seed, seconds, &out),
        ("batch_codec", true) => batch::traced(&batch::CODEC, seed, &out),
        ("batch_loop", false) => batch::run(&batch::LOOP, seed, seconds, &out),
        ("batch_loop", true) => batch::traced(&batch::LOOP, seed, &out),
        (_, false) => serve::run(seed, seconds),
        (_, true) => serve::traced(seed, seconds),
    };

    let host = host::Fingerprint::detect();
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"revision\":\"{}\",\"engine_threads\":{THREADS},\"serve_workers\":{}}}",
        args.workload,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model.replace(['"', '\\'], ""),
        host.rustc,
        host.revision,
        serve::WORKERS,
    );
    println!("# run {header}");
    for note in &outcome.notes {
        println!("# {note}");
    }

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome.errors.push(format!("{name} is not finite ({v})"));
                0.0
            }
            // A layer this workload does not exercise reads 0.
            None if args.trace && (name.starts_with("engine.") || name.starts_with("serve.")) => {
                0.0
            }
            None => {
                outcome.errors.push(format!("{name} was not measured"));
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }

    if args.trace {
        for (name, ns) in span::self_time_by_name(&outcome.spans) {
            println!("# self time {name}: {:.3} ms", ns as f64 / 1e6);
        }
        let path = out.join(format!("spans.{}.jsonl", args.workload));
        let text = format!("{header}\n{}", span::to_jsonl(&outcome.spans));
        match std::fs::write(&path, text) {
            Ok(()) => println!(
                "# {} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => outcome
                .errors
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    if outcome.attempted == 0 {
        // Nothing ran: count the run itself as one failed attempt.
        outcome.attempted = 1;
        outcome.failed = 1;
    }
    println!(
        "# fail_ratio = {} ({} of {} failed)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    for e in &outcome.errors {
        eprintln!("t1000-perfbench: INCORRECT: {e}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
