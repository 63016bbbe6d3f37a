//! The metric catalogue and the per-layer metrics every workload derives
//! the same way. `BENCHMARK.json` lists the same names; `README.md`
//! gives each one's meaning and the end-to-end metric it should move.

use crate::layers;
use crate::span::{self, Span};
use std::collections::BTreeMap;
use t1000_cpu::RunResult;

pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run), with units. A layer a workload does
/// not exercise (`engine` on serve_mixed, `serve` on batch_*) reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("engine.prepare_s", "s"),
    ("engine.select_s", "s"),
    ("engine.simulate_s", "s"),
    ("engine.serialize_s", "s"),
    ("engine.busy_frac", "ratio"),
    ("engine.max_cell_s", "s"),
    ("cpu.func_ns_per_instr", "ns"),
    ("cpu.sim_ns_per_instr", "ns"),
    ("cpu.ooo_ns_per_instr", "ns"),
    ("cpu.sim_ns_per_instr_nofp", "ns"),
    ("cpu.fastpath.saved_frac", "ratio"),
    ("cpu.fastpath.engaged_frac", "ratio"),
    ("cpu.fastpath.replayed_iters", "count"),
    ("cpu.fastpath.deopts", "count"),
    ("cpu.pfu.reconfigurations", "count"),
    ("cpu.pfu.conf_hit_ratio", "ratio"),
    ("sim.cycles", "count"),
    ("sim.base_instructions", "count"),
    ("sim.ipc", "instr/cycle"),
    ("sim.speedup_geomean", "x"),
    ("mem.il1_miss_ratio", "ratio"),
    ("mem.dl1_miss_ratio", "ratio"),
    ("mem.ul2_miss_ratio", "ratio"),
    ("mem.dtlb_miss_ratio", "ratio"),
    ("profile.analysis_ms", "ms"),
    ("profile.ns_per_instr", "ns"),
    ("asm.assemble_ms", "ms"),
    ("asm.mb_per_s", "MB/s"),
    ("core.extract_ms", "ms"),
    ("core.select_ms", "ms"),
    ("hwcost.cost_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.sim_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.repeat_frac", "ratio"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("trace.overhead_frac", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The simulated outcome of one cell or one `run` response: exact counts
/// that repeat bit for bit at a given seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimCounts {
    pub cycles: u64,
    pub base_instructions: u64,
    /// Over the cell's baseline; `None` for baseline cells.
    pub speedup: Option<f64>,
    pub replayed_iters: u64,
    pub deopts: u64,
    pub reconfigurations: u64,
    pub conf_hits: u64,
}

/// `sim.*`, plus the fast-path and PFU counters of `cpu.*`.
pub fn sim_metrics(counts: &[SimCounts], m: &mut Metrics) {
    let sum = |f: fn(&SimCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let cycles = sum(|c| c.cycles);
    let instrs = sum(|c| c.base_instructions);
    m.insert("sim.cycles", cycles);
    m.insert("sim.base_instructions", instrs);
    m.insert("sim.ipc", ratio(instrs, cycles));
    let speedups: Vec<f64> = counts.iter().filter_map(|c| c.speedup).collect();
    let log_mean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64;
    m.insert("sim.speedup_geomean", log_mean.exp());
    let engaged = counts.iter().filter(|c| c.replayed_iters > 0).count();
    m.insert(
        "cpu.fastpath.engaged_frac",
        ratio(engaged as f64, counts.len() as f64),
    );
    m.insert("cpu.fastpath.replayed_iters", sum(|c| c.replayed_iters));
    m.insert("cpu.fastpath.deopts", sum(|c| c.deopts));
    let reconfigurations = sum(|c| c.reconfigurations);
    let hits = sum(|c| c.conf_hits);
    m.insert("cpu.pfu.reconfigurations", reconfigurations);
    m.insert(
        "cpu.pfu.conf_hit_ratio",
        ratio(hits, hits + reconfigurations),
    );
}

/// What the traced layer calls did, beyond the span timings.
#[derive(Default)]
pub struct LayerWork {
    /// Assembly source bytes assembled.
    pub asm_bytes: u64,
    /// Dynamic base instructions of the programs analysed (profiling runs
    /// execute each once).
    pub analysed_instrs: u64,
    /// Dynamic base instructions over the runs timed by `time_cpu`.
    cpu_instrs: u64,
    /// Timing-model nanoseconds, fast path on, over those same runs, when
    /// measured outside a `simulate` span (the batch engine's own cell
    /// timings); added to the `simulate` spans' time.
    sim_on_ns: u64,
    /// (misses, accesses) of il1, dl1, ul2 and dtlb over the fast-path-off
    /// runs.
    mem: [(u64, u64); 4],
}

impl LayerWork {
    /// Adds one timed run: its instructions, its fast-path-on time, and
    /// its simulated memory-hierarchy counts.
    pub fn add_run(&mut self, accurate: &RunResult, sim_on_ns: u64) {
        self.cpu_instrs += accurate.timing.base_instructions;
        self.sim_on_ns += sim_on_ns;
        let t = &accurate.timing.mem;
        let counts = [
            (t.il1.misses, t.il1.accesses),
            (t.dl1.misses, t.dl1.accesses),
            (t.ul2.misses, t.ul2.accesses),
            (t.dtlb.misses, t.dtlb.accesses),
        ];
        for (total, (misses, accesses)) in self.mem.iter_mut().zip(counts) {
            total.0 += misses;
            total.1 += accesses;
        }
    }
}

/// `asm.*`, `profile.*`, `core.*`, `hwcost.*`, the host rates of `cpu.*`,
/// and `mem.*`.
pub fn layer_metrics(spans: &[Span], work: &LayerWork, m: &mut Metrics) {
    let ms_per_call = |name| {
        let (ns, calls) = span::total(spans, name);
        ratio(ns as f64, calls as f64) / 1e6
    };
    let ns = |name| span::total(spans, name).0 as f64;
    m.insert("asm.assemble_ms", ms_per_call(layers::ASSEMBLE));
    // bytes per microsecond = MB/s
    m.insert(
        "asm.mb_per_s",
        ratio(work.asm_bytes as f64 * 1e3, ns(layers::ASSEMBLE)),
    );
    m.insert("profile.analysis_ms", ms_per_call(layers::ANALYSIS));
    m.insert(
        "profile.ns_per_instr",
        ratio(ns(layers::ANALYSIS), work.analysed_instrs as f64),
    );
    m.insert("core.extract_ms", ms_per_call(layers::EXTRACT));
    m.insert("core.select_ms", ms_per_call(layers::SELECT));
    m.insert("hwcost.cost_ms", ms_per_call(layers::COST));

    let instrs = work.cpu_instrs as f64;
    let func = ratio(ns(layers::EXECUTE), instrs);
    let sim = ratio(work.sim_on_ns as f64 + ns(layers::SIMULATE), instrs);
    let nofp = ratio(ns(layers::SIMULATE_NOFP), instrs);
    m.insert("cpu.func_ns_per_instr", func);
    m.insert("cpu.sim_ns_per_instr", sim);
    m.insert("cpu.ooo_ns_per_instr", sim - func);
    m.insert("cpu.sim_ns_per_instr_nofp", nofp);
    m.insert("cpu.fastpath.saved_frac", 1.0 - ratio(sim, nofp));

    let names = [
        "mem.il1_miss_ratio",
        "mem.dl1_miss_ratio",
        "mem.ul2_miss_ratio",
        "mem.dtlb_miss_ratio",
    ];
    for (name, (misses, accesses)) in names.into_iter().zip(work.mem) {
        m.insert(name, ratio(misses as f64, accesses as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t1000_bench::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }
}
