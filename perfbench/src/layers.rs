//! Traced calls into the analysis and simulation layers, one program at a
//! time: `asm` → `profile` → `core` (extraction, selection) → `hwcost`,
//! and the functional core and timing model of `cpu`. Every call is a
//! span; the per-layer metrics are computed from the spans afterwards.

use crate::span::Recorder;
use std::hint::black_box;
use t1000_core::{
    canonicalize, maximal_sites, run_selection, Analysis, ExtractConfig, StrategySpec,
};
use t1000_cpu::{AttrCollector, CpuConfig, RunResult};
use t1000_isa::{FusionMap, Program};

/// Span names, one per layer entry point timed here.
pub const ASSEMBLE: &str = "assemble";
pub const ANALYSIS: &str = "Analysis::build";
pub const EXTRACT: &str = "maximal_sites";
pub const SELECT: &str = "run_selection";
pub const COST: &str = "cost_of";
pub const EXECUTE: &str = "execute";
pub const SIMULATE: &str = "simulate";
pub const SIMULATE_NOFP: &str = "simulate_nofp";

/// Runs `asm` through the analysis layers under one `program_layers`
/// span: assemble, profile, extract maximal sites, run each strategy's
/// selection uncached, and cost every maximal site at its profiled width.
/// Returns the assembled program.
pub fn analyse(
    rec: &Recorder,
    trace: u64,
    asm: &str,
    strategies: &[StrategySpec],
) -> Result<Program, String> {
    rec.span("program_layers", trace, None, |root| {
        let program = rec
            .span(ASSEMBLE, trace, Some(root), |_| t1000_asm::assemble(asm))
            .map_err(|e| format!("assemble: {e}"))?;
        let analysis = rec
            .span(ANALYSIS, trace, Some(root), |_| Analysis::build(&program))
            .map_err(|e| format!("profile: {e}"))?;
        let extract = ExtractConfig::default();
        let sites = rec.span(EXTRACT, trace, Some(root), |_| {
            maximal_sites(&program, &analysis, &extract)
        });
        for spec in strategies {
            let strategy = spec.instantiate();
            rec.span(SELECT, trace, Some(root), |_| {
                black_box(run_selection(
                    &program,
                    &analysis,
                    &extract,
                    strategy.as_ref(),
                    false,
                ))
            });
        }
        let forms: Vec<_> = sites
            .iter()
            .map(|s| (canonicalize(&s.instrs).skeleton, s.width))
            .collect();
        rec.span(COST, trace, Some(root), |_| {
            for (skeleton, width) in &forms {
                black_box(t1000_hwcost::cost_of(skeleton, *width));
            }
        });
        Ok(program)
    })
}

/// Times the functional core alone (`execute`) and the timing model with
/// the fast path off (`simulate_nofp`) on one program and fusion map —
/// plus, when `with_fast_path`, the timing model as configured
/// (`simulate`). Both timing runs collect cycle attribution, as the
/// engine's runs do, so their times compare like for like.
///
/// Fails if the functional core and the timing model disagree on the
/// architectural checksum, or if the fast path changes the cycle count.
pub fn time_cpu(
    rec: &Recorder,
    trace: u64,
    program: &Program,
    fusion: &FusionMap,
    cpu: CpuConfig,
    with_fast_path: bool,
) -> Result<RunResult, String> {
    let (sys, _) = rec
        .span(EXECUTE, trace, None, |_| {
            t1000_cpu::execute(program, fusion, 0)
        })
        .map_err(|e| format!("execute: {e}"))?;
    let simulate = |name, fast_path| {
        rec.span(name, trace, None, |_| {
            let cpu = CpuConfig { fast_path, ..cpu };
            t1000_cpu::simulate_with(program, fusion, cpu, &mut AttrCollector::new())
        })
        .map_err(|e| format!("{name}: {e}"))
    };
    let accurate = simulate(SIMULATE_NOFP, false)?;
    if with_fast_path {
        let fast = simulate(SIMULATE, true)?;
        if fast.timing.cycles != accurate.timing.cycles {
            return Err(format!(
                "fast path changed the cycle count: {} with, {} without",
                fast.timing.cycles, accurate.timing.cycles
            ));
        }
    }
    if accurate.sys.checksum != sys.checksum {
        return Err(format!(
            "functional core checksum {:#x} differs from the timing model's {:#x}",
            sys.checksum, accurate.sys.checksum
        ));
    }
    Ok(accurate)
}
