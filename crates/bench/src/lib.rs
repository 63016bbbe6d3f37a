//! # t1000-bench — experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation through
//! one execution path: a named plan from the registry
//! ([`plan::PLANS`]) run by the engine ([`engine::execute_with`]) and
//! rendered by the plan's own report. `t1000 bench --all --plan NAME`
//! is the driver:
//!
//! | plan | paper artefact |
//! |---|---|
//! | `run_all` | Fig. 2, §4.1, Fig. 6, Fig. 7 and §5.2 — the body of EXPERIMENTS.md |
//! | `run_all_strategies` | `run_all` plus knapsack selection at two LUT budgets |
//! | `reconfig_sweep` | §5.2 — robustness up to 500-cycle reconfiguration |
//! | `bitwidth_sweep` | ablation: candidate bitwidth threshold |
//! | `ports_sweep` | ablation: PFU input-port budget |
//! | `branch_sweep` | ablation: branch predictor ladder |
//! | `pfu_policy_sweep` | ablation: PFU replacement policy |
//! | `width_sweep` | ablation: machine issue width |
//! | `reload_sweep` | reload cost × prefetch depth × PFU count pareto |
//!
//! Run with `--release`; full-scale runs simulate millions of cycles.

// Robustness gate: library code must surface failures as typed errors,
// not unwrap/expect panics. Tests are exempt; the reference helpers
// below (`prepare`, `run_verified`) assert by design — the integration
// tests use them as the path the engine is checked against.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod engine;
pub mod fault;
pub mod json;
pub mod lines;
pub mod plan;
pub mod results;
pub mod runstats;
pub mod shard;
pub mod sweep;

use t1000_core::{Error, Selection, Session};
use t1000_cpu::{CpuConfig, RunResult};
use t1000_workloads::Workload;

/// One benchmark's sessions and baseline run, shared across experiments.
pub struct Prepared {
    pub name: &'static str,
    pub session: Session,
    pub baseline: RunResult,
}

/// Assembles, profiles and baselines one workload.
pub fn prepare(w: &Workload) -> Result<Prepared, Error> {
    let program = w.program().map_err(Error::Asm)?;
    let session = Session::new(program)?;
    let baseline = session.run_baseline(CpuConfig::baseline())?;
    // The harness refuses to report results for an incorrect simulation.
    assert_eq!(
        baseline.sys.checksum,
        w.expected_checksum(),
        "{}: simulator checksum diverges from the Rust reference",
        w.name
    );
    Ok(Prepared {
        name: w.name,
        session,
        baseline,
    })
}

/// Runs one selection on one machine configuration and verifies
/// architectural results against the baseline.
pub fn run_verified(p: &Prepared, sel: &Selection, cpu: CpuConfig) -> RunResult {
    let run = p
        .session
        .run_with(sel, cpu)
        .unwrap_or_else(|e| panic!("{}: {e}", p.name));
    assert_eq!(
        run.sys, p.baseline.sys,
        "{}: fused run changed architectural results",
        p.name
    );
    run
}

/// Execution-time speedup over the prepared baseline (1.0 = no change,
/// >1 = faster), the y-axis of Figs. 2 and 6.
pub fn speedup(p: &Prepared, run: &RunResult) -> f64 {
    p.baseline.timing.cycles as f64 / run.timing.cycles as f64
}
