//! The sweeps of the plan registry ([`crate::plan::PLANS`]): the §5.2
//! reconfiguration-cost sweep, the ablations of the paper's fixed
//! parameters, and the reconfiguration-hiding pareto sweep.
//!
//! A single-axis sweep is data only — the selections it compares, an
//! axis of (label, extraction config, machine) points, and an optional
//! second number per point — and [`Sweep::render`] turns any of them
//! into one table: a row per workload and selection, a speedup per point
//! over a baseline with the same branch model and issue width (the
//! engine derives the matching baselines itself).

use crate::engine::CellResult;
use crate::plan::{workload_names, Cell, MachineSpec, Plan, SelectionSpec};
use crate::results::{fmt3, RunView};
use std::fmt::Write as _;
use t1000_core::ExtractConfig;
use t1000_cpu::{BranchModel, PfuReplacement};

/// A second number printed per axis point after the speedups, under
/// the point's label plus `suffix`, for the points from `from` on.
pub struct Extra {
    pub suffix: &'static str,
    pub from: usize,
    pub value: fn(&CellResult) -> String,
}

/// One axis point: column label, extraction config, machine.
type Point = (String, ExtractConfig, MachineSpec);

/// One single-axis sweep.
pub struct Sweep {
    /// Report heading, one `# ` line each.
    pub title: &'static [&'static str],
    /// The selections compared; more than one adds an `algo` column.
    pub selections: Vec<SelectionSpec>,
    pub axis: Vec<Point>,
    pub extra: Option<Extra>,
}

/// Machine-only axis points with the paper's extraction parameters.
fn machines(points: impl IntoIterator<Item = (String, MachineSpec)>) -> Vec<Point> {
    points
        .into_iter()
        .map(|(label, m)| (label, ExtractConfig::default(), m))
        .collect()
}

impl Sweep {
    fn cell(workload: &'static str, selection: SelectionSpec, point: &Point) -> Cell {
        let (_, extract, machine) = *point;
        Cell {
            workload,
            extract,
            selection,
            machine,
        }
    }

    /// Every cell of the table, in row order.
    pub fn plan(&self) -> Plan {
        let mut plan = Plan::new();
        for w in workload_names() {
            for &s in &self.selections {
                plan.extend(self.axis.iter().map(|p| Sweep::cell(w, s, p)));
            }
        }
        plan
    }

    /// The table; a failed cell renders as `n/a`.
    pub fn render(&self, v: &RunView) -> String {
        let mut o = String::new();
        for line in self.title {
            let _ = writeln!(o, "# {line}");
        }
        let algo = self.selections.len() > 1;
        let extra = self.extra.as_ref();
        let extra_points = extra.map_or(&[][..], |e| &self.axis[e.from..]);
        let mut header = format!("{:>10}", "bench");
        if algo {
            let _ = write!(header, " {:>9}", "algo");
        }
        for (label, ..) in &self.axis {
            let _ = write!(header, "  {label:>9}");
        }
        for (label, ..) in extra_points {
            let suffix = extra.map_or("", |e| e.suffix);
            let _ = write!(header, "  {:>9}", format!("{label}{suffix}"));
        }
        let _ = writeln!(o, "{header}");
        for info in &v.run.workloads {
            for &s in &self.selections {
                let _ = write!(o, "{:>10}", info.name);
                if algo {
                    let _ = write!(o, " {:>9}", s.algorithm());
                }
                for p in &self.axis {
                    let _ = write!(o, "  {:>9}", fmt3(v.speedup(Sweep::cell(info.name, s, p))));
                }
                for p in extra_points {
                    let value = v.cell(Sweep::cell(info.name, s, p));
                    let text = match (value, extra) {
                        (Some(c), Some(e)) => (e.value)(c),
                        _ => "n/a".to_string(),
                    };
                    let _ = write!(o, "  {text:>9}");
                }
                let _ = writeln!(o);
            }
        }
        o
    }
}

/// §5.2 — "we retain our excellent speedups even with reconfiguration
/// times as high as 500 cycles": the selective algorithm stays nearly
/// flat across the penalty while greedy collapses.
pub fn reconfig() -> Sweep {
    Sweep {
        title: &[
            "Reconfiguration-penalty sweep, 2 PFUs (speedup per penalty in cycles)",
            "selective speedups should stay nearly flat; greedy collapses",
        ],
        selections: vec![SelectionSpec::selective_std(Some(2)), SelectionSpec::Greedy],
        axis: machines(
            [0u32, 10, 50, 100, 250, 500].map(|c| (c.to_string(), MachineSpec::with_pfus(2, c))),
        ),
        extra: None,
    }
}

/// The candidate bitwidth threshold, fixed at 18 bits in §4 but "a
/// parameter that can be varied": narrow thresholds exclude profitable
/// sequences; past the workloads' natural widths the curve saturates.
pub fn bitwidth() -> Sweep {
    Sweep {
        title: &[
            "Bitwidth-threshold ablation, selective algorithm, 4 PFUs (speedup over baseline)",
        ],
        selections: vec![SelectionSpec::selective_std(Some(4))],
        axis: [8u8, 12, 18, 24, 32]
            .map(|b| {
                let x = ExtractConfig {
                    max_width: b,
                    ..Default::default()
                };
                (format!("{b}b"), x, MachineSpec::with_pfus(4, 10))
            })
            .into(),
        extra: None,
    }
}

/// The PFU input-port budget: the paper allows two input registers
/// because extra PFU inputs cost register-file ports (§1, §4); 3- and
/// 4-input PFUs show what that constraint costs.
pub fn ports() -> Sweep {
    Sweep {
        title: &["Input-port ablation, selective algorithm, 4 PFUs (speedup over baseline)"],
        selections: vec![SelectionSpec::selective_std(Some(4))],
        axis: [2usize, 3, 4]
            .map(|p| {
                let x = ExtractConfig {
                    max_inputs: p,
                    ..Default::default()
                };
                (format!("{p}-in"), x, MachineSpec::with_pfus(4, 10))
            })
            .into(),
        extra: None,
    }
}

/// The perfect-branch-prediction assumption (§3.1): the Fig. 6 2-PFU
/// experiment across the predictor ladder, then each real predictor's
/// hit rate. Mispredictions dilate baseline and T1000 alike, so the
/// relative benefit shrinks only modestly.
pub fn branch() -> Sweep {
    let predictors = [
        ("perfect", BranchModel::Perfect),
        ("static", BranchModel::Static { penalty: 6 }),
        (
            "bimodal",
            BranchModel::Bimodal {
                entries: 2048,
                penalty: 6,
            },
        ),
        (
            "gshare",
            BranchModel::Gshare {
                entries: 4096,
                penalty: 6,
            },
        ),
    ];
    Sweep {
        title: &[
            "Branch-prediction ablation: selective, 2 PFUs, 10-cy reconfig",
            "speedup per predictor, then each real predictor's hit rate",
        ],
        selections: vec![SelectionSpec::selective_std(Some(2))],
        axis: machines(predictors.map(|(label, branch)| {
            let m = MachineSpec {
                branch,
                ..MachineSpec::with_pfus(2, 10)
            };
            (label.to_string(), m)
        })),
        extra: Some(Extra {
            suffix: "%",
            from: 1,
            value: |c| format!("{:.1}%", 100.0 * c.branch_accuracy),
        }),
    }
}

/// PFU configuration replacement (LRU in §2.2) against FIFO and random,
/// for greedy selection at 2 PFUs — where replacement matters; the
/// selective algorithm barely reconfigures.
pub fn pfu_policy() -> Sweep {
    let policies = [
        ("lru", PfuReplacement::Lru),
        ("fifo", PfuReplacement::Fifo),
        ("random", PfuReplacement::Random),
    ];
    Sweep {
        title: &["PFU replacement ablation: greedy selection, 2 PFUs, 10-cy reconfig (speedup, then reconfigurations)"],
        selections: vec![SelectionSpec::Greedy],
        axis: machines(policies.map(|(label, replacement)| {
            let m = MachineSpec {
                replacement,
                ..MachineSpec::with_pfus(2, 10)
            };
            (label.to_string(), m)
        })),
        extra: Some(Extra {
            suffix: "#",
            from: 0,
            value: |c| c.reconfigurations.to_string(),
        }),
    }
}

/// Machine issue width (§7): out-of-order issue already tolerates some
/// dependent-chain latency, so PFU speedups are largest on narrow
/// machines but remain substantial at 4-wide. Each width is compared
/// against an equally narrow superscalar.
pub fn width() -> Sweep {
    Sweep {
        title: &[
            "Issue-width ablation: selective, 2 PFUs, 10-cy reconfig (PFU speedup at that width)",
        ],
        selections: vec![SelectionSpec::selective_std(Some(2))],
        axis: machines([1u32, 2, 4, 8].map(|w| {
            let m = MachineSpec {
                issue_width: Some(w),
                ..MachineSpec::with_pfus(2, 10)
            };
            (format!("{w}-wide"), m)
        })),
        extra: None,
    }
}

// ---------------------------------------------------------------------
// Reconfiguration-hiding pareto sweep
// ---------------------------------------------------------------------

const RELOAD_PFUS: [usize; 3] = [1, 2, 4];
const RELOAD_CYCLES: [u32; 2] = [10, 500];
/// Prefetch depth 0 is the legacy blocking machine (single plane);
/// nonzero depths run double-buffered.
const RELOAD_PREFETCH: [u32; 2] = [0, 2];

/// The pareto points in report order: (selection, PFUs, reload cycles,
/// prefetch depth) and the machine of each.
fn reload_points() -> Vec<(SelectionSpec, usize, u32, u32, MachineSpec)> {
    let mut points = Vec::new();
    for spec in [SelectionSpec::Greedy, SelectionSpec::selective_std(Some(2))] {
        for pfus in RELOAD_PFUS {
            for reload in RELOAD_CYCLES {
                for prefetch in RELOAD_PREFETCH {
                    let m = MachineSpec::with_pfus(pfus, reload);
                    let m = if prefetch == 0 {
                        m
                    } else {
                        m.config_plane(2, prefetch, 0.0)
                    };
                    points.push((spec, pfus, reload, prefetch, m));
                }
            }
        }
    }
    points
}

/// Reload cost × prefetch depth × PFU count, both strategies: the §5.2
/// robustness story is the `prefetch=0` rows; the others show a
/// thrashing greedy selection recovering most of its reload bill once
/// loads are prefetched into the shadow plane.
pub fn reload_plan() -> Plan {
    let mut plan = Plan::new();
    for w in workload_names() {
        for &(spec, .., m) in &reload_points() {
            plan.push(Cell::new(w, spec, m));
        }
    }
    plan
}

/// The pareto table: geomean speedup over the workloads plus the reload
/// cycles the config planes hid and the cycles left exposed. `Err` when
/// prefetch-enabled greedy cells hid nothing — greedy reloads the most,
/// so an inert config-plane model shows there first.
pub fn render_reload(v: &RunView) -> Result<String, String> {
    let mut o = String::new();
    let _ = writeln!(o, "# Reload-cost × prefetch-depth × PFU-count pareto sweep");
    let _ = writeln!(
        o,
        "# hidden/exposed = PFU reload cycles overlapped vs stalled, summed over workloads"
    );
    let _ = writeln!(
        o,
        "{:>9} {:>5} {:>7} {:>9} {:>10} {:>12} {:>12}",
        "algo", "pfus", "reload", "prefetch", "geomean", "hidden", "exposed"
    );
    let mut greedy_hidden = 0u64;
    for (spec, pfus, reload, prefetch, m) in reload_points() {
        let (mut log_sum, mut hidden, mut exposed) = (Some(0.0f64), 0u64, 0u64);
        for info in &v.run.workloads {
            let cell = Cell::new(info.name, spec, m);
            log_sum = log_sum.zip(v.speedup(cell)).map(|(sum, s)| sum + s.ln());
            if let Some(c) = v.cell(cell) {
                hidden += c.pfu_hidden_reload_cycles;
                exposed += c.pfu_exposed_reload_cycles;
            }
        }
        if spec == SelectionSpec::Greedy {
            greedy_hidden += hidden;
        }
        let n = v.run.workloads.len().max(1) as f64;
        let geomean = fmt3(log_sum.map(|sum| (sum / n).exp()));
        let algo = spec.algorithm();
        let _ = writeln!(
            o,
            "{algo:>9} {pfus:>5} {reload:>7} {prefetch:>9} {geomean:>10} {hidden:>12} {exposed:>12}"
        );
    }
    if greedy_hidden == 0 {
        return Err(
            "reload_sweep: prefetch-enabled greedy cells hid no reload cycles — the config-plane model is inert"
                .to_string(),
        );
    }
    let _ = writeln!(
        o,
        "# greedy hidden-reload cycles across the sweep: {greedy_hidden}"
    );
    Ok(o)
}
