//! The batch workloads: the `run_all` experiment plan at full scale,
//! split by whether the replay fast path engages.
//!
//! Inputs are the registry programs, whose inputs are pinned so every
//! cell's checksum can be checked against the workload's Rust reference;
//! the seed only sets the order in which cells enter the plan (and hence
//! which worker thread simulates which cell, and when).

use crate::host;
use crate::layers;
use crate::metrics::{self, LayerWork, Metrics, SimCounts};
use crate::rng::Rng;
use crate::span::Recorder;
use crate::stats;
use crate::{Outcome, SETUPS, THREADS};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use t1000_bench::engine::{self, CellResult, CellRunner, EngineConfig, EngineRun, RunOptions};
use t1000_bench::plan::{run_all_plan, Cell, Plan, SelectionSpec};
use t1000_bench::results;
use t1000_core::{ExtractConfig, Selection, Session};
use t1000_workloads::{Scale, Workload};

/// Codec kernels: most of the suite's host time, and the fast path never
/// engages on them, so the timing model's per-instruction cost dominates.
pub const CODEC: [&str; 4] = ["gsm_enc", "gsm_dec", "g721_enc", "g721_dec"];
/// Loop kernels: the fast path converges and replays iterations here.
pub const LOOP: [&str; 4] = ["epic", "unepic", "mpeg2_enc", "mpeg2_dec"];

/// Set-up products: the generated programs and the seed-ordered plan.
pub struct Inputs {
    pub programs: Vec<Workload>,
    pub plan: Plan,
}

impl Inputs {
    /// Generates the full-scale registry programs of `names` (source and
    /// reference checksums) and builds their slice of the `run_all` plan,
    /// cells shuffled by `seed`; each cell's baseline is implied.
    pub fn generate(names: &[&'static str], seed: u64) -> Inputs {
        let programs = names
            .iter()
            .map(|n| t1000_workloads::by_name(n, Scale::Full).expect("registry workload"))
            .collect();
        let mut cells: Vec<Cell> = run_all_plan()
            .cells()
            .iter()
            .filter(|c| names.contains(&c.workload) && c.selection != SelectionSpec::Baseline)
            .copied()
            .collect();
        Rng::new(seed).shuffle(&mut cells);
        let mut plan = Plan::new();
        plan.extend(cells);
        Inputs { programs, plan }
    }

    fn expected_checksum(&self, workload: &str) -> u64 {
        self.programs
            .iter()
            .find(|w| w.name == workload)
            .map(Workload::expected_checksum)
            .expect("plan cells name generated programs")
    }
}

/// One untraced plan execution plus artifact serialization.
struct Execution {
    wall_s: f64,
    cpu_s: f64,
    serialize_s: f64,
    run: EngineRun,
}

fn execute(inputs: &Inputs, artifact_path: &Path, errors: &mut Vec<String>) -> Execution {
    let cpu0 = host::self_usage().cpu_s;
    let t0 = Instant::now();
    let run = engine::execute_with(&inputs.plan, Scale::Full, &EngineConfig::default());
    let t_serialize = Instant::now();
    let artifact = results::to_json(&run).to_string_pretty();
    if let Err(e) = std::fs::write(artifact_path, &artifact) {
        errors.push(format!("writing {}: {e}", artifact_path.display()));
    }
    let serialize_s = t_serialize.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::self_usage().cpu_s - cpu0;
    match results::validate_artifact(&artifact) {
        Ok(summary) if summary.cells == run.cells.len() && summary.failed_cells == 0 => {}
        Ok(summary) => errors.push(format!(
            "artifact summary disagrees with the run: {summary:?}"
        )),
        Err(e) => errors.push(format!("artifact fails validation: {e}")),
    }
    Execution {
        wall_s,
        cpu_s,
        serialize_s,
        run,
    }
}

/// The correctness gate: every planned cell completed, and each one's
/// checksum equals its workload's registry reference. Returns the
/// number of failed cells.
fn failed_cells(inputs: &Inputs, run: &EngineRun, errors: &mut Vec<String>) -> u64 {
    let mut failed = run.failures.len() as u64;
    for f in &run.failures {
        errors.push(format!("cell {} failed: {}", f.cell.workload, f.cause));
    }
    for c in &run.cells {
        let expected = inputs.expected_checksum(c.cell.workload);
        if c.checksum != expected {
            failed += 1;
            errors.push(format!(
                "{}: checksum {:#x}, reference {expected:#x}",
                c.cell.workload, c.checksum
            ));
        }
    }
    failed
}

fn sim_counts(run: &EngineRun) -> Vec<SimCounts> {
    run.cells
        .iter()
        .map(|c| SimCounts {
            cycles: c.cycles,
            base_instructions: c.base_instructions,
            speedup: (c.cell.selection != SelectionSpec::Baseline)
                .then(|| run.speedup(c.cell))
                .flatten(),
            replayed_iters: c.fast.replayed_iters,
            deopts: c.fast.deopts,
            reconfigurations: c.reconfigurations,
            conf_hits: c.conf_hits,
        })
        .collect()
}

/// Plan executions per untraced run, at least: the median of two is
/// their mean, which halves the variance host noise adds.
const MIN_EXECUTIONS: usize = 2;

/// Untraced run: set up `SETUPS` times (median reported), then execute
/// and serialize the plan `MIN_EXECUTIONS` times and again while
/// `seconds` have not passed. Each metric is measured per execution
/// (latencies over that execution's cells) and reported as the median
/// over executions, so it does not depend on how many fit in the time.
pub fn run(names: &[&'static str], seed: u64, seconds: u64, out: &Path) -> Outcome {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inputs = Some(black_box(Inputs::generate(names, seed)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up at least once");

    let mut outcome = Outcome::default();
    let mut per_execution: Vec<Metrics> = Vec::new();
    let t0 = Instant::now();
    while per_execution.len() < MIN_EXECUTIONS || t0.elapsed().as_secs() < seconds {
        let exec = execute(
            &inputs,
            &out.join("BENCH_results.json"),
            &mut outcome.errors,
        );
        let run = &exec.run;
        outcome.attempted += inputs.plan.cells().len() as u64;
        outcome.failed += failed_cells(&inputs, run, &mut outcome.errors);
        let latencies: Vec<f64> = run.cells.iter().map(|c| c.host_ns as f64 / 1e6).collect();
        let tail = stats::tail(&latencies).expect("a batch plan has more than ten cells");
        let instructions: u64 = run.cells.iter().map(|c| c.base_instructions).sum();
        if per_execution.is_empty() {
            outcome.notes.push(format!(
                "{} cells ({} requested) per execution; cell latency tail is p{} of {} cells",
                run.cells.len(),
                inputs.plan.requested(),
                tail.percentile,
                tail.samples,
            ));
            let mut fingerprint = Metrics::new();
            metrics::sim_metrics(&sim_counts(run), &mut fingerprint);
            outcome.notes.push(format!(
                "sim: cycles {} base_instructions {} replayed_iters {}",
                fingerprint["sim.cycles"],
                fingerprint["sim.base_instructions"],
                fingerprint["cpu.fastpath.replayed_iters"]
            ));
        }
        per_execution.push(Metrics::from([
            ("wall_s", exec.wall_s),
            ("cpu_s", exec.cpu_s),
            ("sim_mips", instructions as f64 / exec.wall_s / 1e6),
            ("lat_p50_ms", stats::median(&latencies).expect("cells")),
            ("lat_tail_ms", tail.value),
            ("req_per_s", run.cells.len() as f64 / exec.wall_s),
        ]));
    }
    outcome.notes.push(format!(
        "{} execution(s); medians over them",
        per_execution.len()
    ));
    for name in per_execution[0].keys() {
        let values: Vec<f64> = per_execution.iter().map(|m| m[name]).collect();
        let median = stats::median(&values).expect("executed at least once");
        outcome.metrics.insert(name, median);
    }
    outcome
        .metrics
        .insert("peak_rss_mb", host::self_usage().peak_rss_mb);
    outcome.metrics.insert(
        "setup_s",
        stats::median(&setups).expect("set up at least once"),
    );
    outcome
}

/// Traced run: one untraced execution (the engine's own phase timings,
/// the reference cycles and CPU time), then the same cells driven layer
/// by layer through public entry points with a span around each call,
/// then the extra per-layer timings.
pub fn traced(names: &[&'static str], seed: u64, out: &Path) -> Outcome {
    let inputs = Inputs::generate(names, seed);
    let mut outcome = Outcome::default();
    let exec = execute(
        &inputs,
        &out.join("BENCH_results.json"),
        &mut outcome.errors,
    );
    outcome.attempted += inputs.plan.cells().len() as u64;
    outcome.failed += failed_cells(&inputs, &exec.run, &mut outcome.errors);

    let rec = Recorder::new();
    let cpu0 = host::self_usage().cpu_s;
    let replayed = match replay(&rec, &inputs) {
        Ok(r) => r,
        Err(e) => {
            outcome.errors.push(format!("traced replay: {e}"));
            return outcome;
        }
    };
    let replay_cpu_s = host::self_usage().cpu_s - cpu0;

    // The fingerprint: both runs must have simulated the same work.
    for r in &replayed.cells {
        match exec.run.cell(r.cell) {
            Some(c) if c.cycles == r.cycles => {}
            Some(c) => outcome.errors.push(format!(
                "{} {}: traced replay simulated {} cycles, engine run {}",
                r.cell.workload,
                r.cell.selection.strategy_id(),
                r.cycles,
                c.cycles
            )),
            None => outcome.errors.push(format!(
                "{}: cell missing from the engine run",
                r.cell.workload
            )),
        }
    }

    let mut work = LayerWork::default();
    extra_layers(&rec, &inputs, &replayed, &mut work, &mut outcome.errors);
    let spans = rec.finish();

    let m = &mut outcome.metrics;
    let stats = &exec.run.stats;
    m.insert("engine.prepare_s", stats.prepare_secs);
    m.insert("engine.select_s", stats.select_secs);
    m.insert("engine.simulate_s", stats.simulate_secs);
    m.insert("engine.serialize_s", exec.serialize_s);
    let simulated_ns: u64 = exec
        .run
        .cells
        .iter()
        .filter(|c| c.cell.selection != SelectionSpec::Baseline)
        .map(|c| c.host_ns)
        .sum();
    m.insert(
        "engine.busy_frac",
        simulated_ns as f64 / 1e9 / (stats.simulate_secs * stats.threads as f64),
    );
    let max_cell_ns = exec.run.cells.iter().map(|c| c.host_ns).max().unwrap_or(0);
    m.insert("engine.max_cell_s", max_cell_ns as f64 / 1e9);
    metrics::sim_metrics(&sim_counts(&exec.run), m);
    metrics::layer_metrics(&spans, &work, m);
    m.insert("trace.overhead_frac", replay_cpu_s / exec.cpu_s - 1.0);
    outcome.spans = spans;
    outcome
}

/// What the traced replay produced.
struct Replay {
    runners: HashMap<&'static str, CellRunner>,
    selections: HashMap<(&'static str, ExtractConfig, SelectionSpec), Arc<Selection>>,
    /// In plan order; cell `k`'s spans carry trace id `first_cell_trace + k`.
    cells: Vec<CellResult>,
    first_cell_trace: u64,
}

/// Drives the plan's cells through the layers' public entry points in
/// the engine's phase order and with its thread count: per program
/// `assemble` → `Session::with_extract` → `CellRunner::from_session`;
/// per selection job `select_shared`; per cell `run_cell_with` →
/// `cell_result_json`.
fn replay(rec: &Recorder, inputs: &Inputs) -> Result<Replay, String> {
    let opts = RunOptions::default();
    let programs: Vec<usize> = (0..inputs.programs.len()).collect();
    let prepared = engine::parallel_map(&programs, THREADS, |&i| {
        let w = &inputs.programs[i];
        let trace = i as u64;
        rec.span("prepare", trace, None, |root| {
            let program = rec
                .span(layers::ASSEMBLE, trace, Some(root), |_| {
                    t1000_asm::assemble(&w.asm)
                })
                .map_err(|e| format!("{}: {e}", w.name))?;
            let session = rec
                .span("Session::with_extract", trace, Some(root), |_| {
                    Session::with_extract(program, ExtractConfig::default())
                })
                .map_err(|e| format!("{}: {e}", w.name))?;
            rec.span("CellRunner::from_session", trace, Some(root), |_| {
                CellRunner::from_session(Arc::new(session), Some(w.expected_checksum()), &opts)
            })
            .map(|r| (w.name, r))
            .map_err(|e| format!("{}: {e}", w.name))
        })
    });
    let runners: HashMap<&'static str, CellRunner> =
        prepared.into_iter().collect::<Result<_, _>>()?;

    let keys = engine::selection_keys(&inputs.plan);
    let offset = programs.len();
    let jobs: Vec<(usize, _)> = keys.iter().copied().enumerate().collect();
    let selections = engine::parallel_map(&jobs, THREADS, |&(j, (name, _, spec))| {
        let spec = spec
            .strategy_spec()
            .expect("selection jobs exclude baselines");
        rec.span("select_shared", (offset + j) as u64, None, |_| {
            runners[name].session().select_shared(&spec)
        })
    });
    let selections: HashMap<_, _> = keys.into_iter().zip(selections).collect();

    let first_cell_trace = (offset + jobs.len()) as u64;
    let cells: Vec<(usize, Cell)> = inputs.plan.cells().iter().copied().enumerate().collect();
    let results = engine::parallel_map(&cells, THREADS, |&(k, cell)| {
        let trace = first_cell_trace + k as u64;
        let runner = &runners[cell.workload];
        let selection = selections
            .get(&(cell.workload, cell.extract, cell.selection))
            .map(|s| &**s);
        rec.span("cell", trace, None, |root| {
            let result = rec
                .span("run_cell_with", trace, Some(root), |_| {
                    runner.run_cell_with(cell, selection, &opts)
                })
                .map_err(|e| format!("{}: {e}", cell.workload))?;
            let speedup = runner.baseline_cycles() as f64 / result.cycles as f64;
            rec.span("cell_result_json", trace, Some(root), |_| {
                black_box(results::cell_result_json(&result, Some(speedup)).to_string_compact())
            });
            Ok(result)
        })
    });
    Ok(Replay {
        runners,
        selections,
        cells: results.into_iter().collect::<Result<_, String>>()?,
        first_cell_trace,
    })
}

/// The per-layer timings the replay does not give: each program through
/// the analysis layers, and each fused cell through the functional core
/// and the fast-path-off timing model.
fn extra_layers(
    rec: &Recorder,
    inputs: &Inputs,
    replay: &Replay,
    work: &mut LayerWork,
    errors: &mut Vec<String>,
) {
    let keys = engine::selection_keys(&inputs.plan);
    for (i, w) in inputs.programs.iter().enumerate() {
        let strategies: Vec<_> = keys
            .iter()
            .filter(|k| k.0 == w.name)
            .filter_map(|k| k.2.strategy_spec())
            .collect();
        if let Err(e) = layers::analyse(rec, i as u64, &w.asm, &strategies) {
            errors.push(format!("{}: {e}", w.name));
        }
        work.asm_bytes += 2 * w.asm.len() as u64; // assembled here and in the replay
        work.analysed_instrs += replay
            .cells
            .iter()
            .find(|c| c.cell.workload == w.name)
            .map_or(0, |c| c.base_instructions);
    }
    let fused: Vec<(u64, &CellResult)> = (replay.first_cell_trace..)
        .zip(&replay.cells)
        .filter(|(_, c)| c.cell.selection != SelectionSpec::Baseline)
        .collect();
    let runs = engine::parallel_map(&fused, THREADS, |&(trace, c)| {
        let session = replay.runners[c.cell.workload].session();
        let selection = &replay.selections[&(c.cell.workload, c.cell.extract, c.cell.selection)];
        layers::time_cpu(
            rec,
            trace,
            session.program(),
            &selection.fusion,
            c.cell.machine.cpu_config(),
            false,
        )
        .and_then(|accurate| {
            if accurate.timing.cycles == c.cycles {
                Ok(accurate)
            } else {
                Err(format!(
                    "{}: {} cycles with the fast path off, {} with it on",
                    c.cell.workload, accurate.timing.cycles, c.cycles
                ))
            }
        })
    });
    for ((_, c), run) in fused.iter().zip(runs) {
        match run {
            Ok(accurate) => work.add_run(&accurate, c.host_ns),
            Err(e) => errors.push(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_batch_workloads_split_the_run_all_plan_exactly() {
        let all: HashSet<Cell> = run_all_plan().cells().iter().copied().collect();
        assert_eq!(all.len(), 72);
        let codec = Inputs::generate(&CODEC, 1).plan;
        let loops = Inputs::generate(&LOOP, 1).plan;
        let split: HashSet<Cell> = codec.cells().iter().chain(loops.cells()).copied().collect();
        assert_eq!(split, all);
        assert_eq!(codec.cells().len() + loops.cells().len(), 72);
    }

    #[test]
    fn the_seed_orders_cells_and_nothing_else() {
        let a = Inputs::generate(&LOOP, 1);
        let b = Inputs::generate(&LOOP, 1);
        let c = Inputs::generate(&LOOP, 2);
        assert_eq!(a.plan.cells(), b.plan.cells());
        assert_ne!(a.plan.cells(), c.plan.cells());
        let set = |p: &Plan| p.cells().iter().copied().collect::<HashSet<Cell>>();
        assert_eq!(set(&a.plan), set(&c.plan));
        let asm = |i: &Inputs| i.programs.iter().map(|w| w.asm.clone()).collect::<Vec<_>>();
        assert_eq!(asm(&a), asm(&c));
    }
}
