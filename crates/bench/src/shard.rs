//! Multi-process execution: shard a bench plan's cell space across
//! remote `t1000 serve --tcp` endpoints and merge the streamed results
//! into one artifact.
//!
//! The coordinator (`t1000 bench --all --remote HOST:PORT[,…]`)
//! partitions the plan's cells deterministically ([`partition`]) into
//! one shard per endpoint, dispatches shard `s` to endpoint `s` as a
//! `run_shard` request, and merges the per-cell schema-v6 documents the
//! endpoints stream back over newline-delimited JSON-RPC framing (the
//! same framing every `t1000 serve` method speaks). The merge
//! ([`MergeState`]) verifies every document twice — a wire checksum
//! ([`t1000_core::stable_hash64`] of the document bytes) and the
//! workload's architectural reference checksum — and assembles an
//! [`EngineRun`] whose artifact is **byte-identical** (modulo wall-clock
//! fields, zeroed under `--deterministic`) to the one an in-process run
//! produces.
//!
//! Wire protocol, one JSON document per line:
//!
//! coordinator → endpoint (after a `ping` handshake on the connection):
//!
//! ```text
//! {"id":0,"method":"run_shard","params":{"plan":"run_all","scale":"test",
//!  "cells":[0,3,5],"selections":[],"deterministic":true,
//!  "no_fast_path":false,"max_cycles":0,"inject":"","retries":3,
//!  "backoff_ms":0,"pfu_planes":1,"pfu_prefetch":0,"conf_compress":0.0}}
//! ```
//!
//! endpoint → coordinator (streamed, then a final id-echoing envelope):
//!
//! ```text
//! {"method":"selection","params":{"index":0,"record":{...}}}
//! {"method":"cell","params":{"index":3,"check":"0x…","doc":{...}}}
//! {"method":"cell_failed","params":{"index":5,"kind":"panic","payload":"…","attempts":3}}
//! {"id":0,"result":{"cells":2,"failed":1,"retries":2,...}}
//! ```
//!
//! `index` is always a *global* position: into `plan.cells()` for cells
//! and failures, into [`engine::selection_keys`] for selection records —
//! both derivable from the plan name and the config-plane knobs alone,
//! which is why the wire never carries cell descriptions.
//!
//! Every network interaction is wrapped in an explicit fault-tolerance
//! layer — connect retry with capped exponential backoff and
//! deterministic jitter, a `ping` handshake before every dispatch and an
//! idle-stream watchdog — and unaccounted cells walk a degradation
//! ladder: surviving remote endpoints first, then the coordinator's own
//! in-process engine ([`execute_shard`] with aborts stripped), so a bench
//! never fails merely because the network or an endpoint did. Every rung
//! feeds the same [`MergeState`]; anything still missing after the
//! ladder is reported as [`FailureCause::Panic`] on the schema-v3
//! `failed_cells` path. The `net@`/`netdrop@`/`netstall@` [`FaultPlan`]
//! arms make each rung testable without a real flaky network, and
//! `abort@N` crashes the endpoint that runs cell `N` (see
//! `docs/SERVING.md` and `docs/ROBUSTNESS.md`).

use crate::checkpoint;
use crate::engine::{
    self, CellResult, ConfSummary, EngineConfig, EngineError, EngineRun, EngineStats, FailureCause,
    RetryPolicy, SelectionRecord,
};
use crate::fault::FaultPlan;
use crate::json::Json;
use crate::lines::{LineError, LineReader, MAX_LINE_BYTES};
use crate::plan::{Cell, Plan, PlaneKnobs, SelectionSpec, DEFAULT_PLANE};
use crate::results;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use t1000_core::{stable_hash64, ExtractConfig};
use t1000_workloads::Scale;

fn scale_str(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Full => "full",
    }
}

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

/// Deterministic, group-atomic partition of `indices` (global positions
/// into `plan.cells()`) across `shards` shards: cells are grouped by
/// (workload, extraction config) in first-appearance order over the
/// *full* plan, and group `i` goes to shard `i % shards`. Group-atomicity
/// means each profiling session is built by exactly one shard, every
/// selection job lands whole on one shard, and every cell travels with
/// the baseline it is normalised against. Grouping over the full plan
/// (not `indices`) keeps the assignment stable under `--resume`, where
/// already-completed cells are simply absent from `indices`.
pub fn partition(plan: &Plan, indices: &[usize], shards: usize) -> Vec<Vec<usize>> {
    let cells = plan.cells();
    let groups = group_map(plan);
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for &i in indices {
        let g = groups[&(cells[i].workload, cells[i].extract)];
        out[g % shards].push(i);
    }
    for shard in &mut out {
        shard.sort_unstable();
    }
    out
}

/// (workload, extraction config) → group index, in first-appearance
/// order over the full plan — the one numbering both [`partition`] and
/// the selection-key assignment agree on.
fn group_map(plan: &Plan) -> HashMap<(&'static str, ExtractConfig), usize> {
    let mut groups: HashMap<(&'static str, ExtractConfig), usize> = HashMap::new();
    for c in plan.cells() {
        let next = groups.len();
        groups.entry((c.workload, c.extract)).or_insert(next);
    }
    groups
}

/// Assigns selection-key indices (into [`engine::selection_keys`]) to
/// shards by the same group → `group % shards` rule as [`partition`], so
/// every selection job lands on the shard that owns its group's cells.
/// Needed because the merged artifact records *all* selection jobs even
/// when `--resume` restored every cell that depends on them — exactly as
/// the in-process engine recomputes selections on resume.
pub fn partition_selections(plan: &Plan, keys: &[usize], shards: usize) -> Vec<Vec<usize>> {
    let all = engine::selection_keys(plan);
    let groups = group_map(plan);
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for &k in keys {
        let (workload, extract, _) = all[k];
        let g = groups[&(workload, extract)];
        out[g % shards].push(k);
    }
    for shard in &mut out {
        shard.sort_unstable();
    }
    out
}

/// Local cell indices a shard's sub-plan will assign to `assigned`
/// (global indices): mirrors [`Plan::push`], where an implied baseline
/// occupies its own slot the first time it is (explicitly or implicitly)
/// reached. Needed to rewrite `--inject` arms into shard-local
/// numbering — exact for any assignment, group-atomic or not.
fn local_indices(plan_cells: &[Cell], assigned: &[usize]) -> HashMap<usize, usize> {
    let mut order: Vec<Cell> = Vec::new();
    let mut seen: HashSet<Cell> = HashSet::new();
    for &g in assigned {
        let cell = plan_cells[g];
        let base = cell.baseline_cell();
        if seen.insert(base) {
            order.push(base);
        }
        if seen.insert(cell) {
            order.push(cell);
        }
    }
    let pos: HashMap<Cell, usize> = order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    assigned.iter().map(|&g| (g, pos[&plan_cells[g]])).collect()
}

/// The slice of `faults` a shard assigned `cells` should receive, with
/// per-cell arms rewritten from global to shard-local indices.
fn local_faults(faults: &FaultPlan, plan_cells: &[Cell], assigned: &[usize]) -> FaultPlan {
    let map = local_indices(plan_cells, assigned);
    faults.remap_cells(|g| map.get(&g).copied())
}

// ---------------------------------------------------------------------
// FailureCause wire round-trip
// ---------------------------------------------------------------------

/// Encodes a failure cause as `(kind, payload)` for the wire. `kind` is
/// the artifact's stable snake_case tag ([`FailureCause::kind`]); the
/// payload carries the variant's data so [`cause_from_wire`] rebuilds a
/// cause whose `kind()`/`Display`/`retryable()` are identical — which is
/// what keeps merged `failed_cells` entries byte-identical.
pub fn cause_to_wire(cause: &FailureCause) -> (&'static str, String) {
    let payload = match cause {
        FailureCause::Prepare(m)
        | FailureCause::Selection(m)
        | FailureCause::Simulate(m)
        | FailureCause::Panic(m) => m.clone(),
        FailureCause::Timeout { max_cycles } => max_cycles.to_string(),
        FailureCause::ChecksumMismatch { got, expected } => {
            format!("0x{got:016x},0x{expected:016x}")
        }
        FailureCause::UnknownWorkload
        | FailureCause::WallClock
        | FailureCause::SemanticsChanged => String::new(),
    };
    (cause.kind(), payload)
}

/// Decodes a `(kind, payload)` pair produced by [`cause_to_wire`].
pub fn cause_from_wire(kind: &str, payload: &str) -> Result<FailureCause, String> {
    match kind {
        "unknown_workload" => Ok(FailureCause::UnknownWorkload),
        "prepare" => Ok(FailureCause::Prepare(payload.to_string())),
        "selection" => Ok(FailureCause::Selection(payload.to_string())),
        "simulate" => Ok(FailureCause::Simulate(payload.to_string())),
        "timeout" => payload
            .parse()
            .map(|max_cycles| FailureCause::Timeout { max_cycles })
            .map_err(|_| format!("bad timeout payload {payload:?}")),
        "wall_clock" => Ok(FailureCause::WallClock),
        "checksum_mismatch" => {
            let (got, expected) = payload
                .split_once(',')
                .ok_or_else(|| format!("bad checksum_mismatch payload {payload:?}"))?;
            match (parse_hex64(got), parse_hex64(expected)) {
                (Some(got), Some(expected)) => Ok(FailureCause::ChecksumMismatch { got, expected }),
                _ => Err(format!("bad checksum_mismatch payload {payload:?}")),
            }
        }
        "semantics_changed" => Ok(FailureCause::SemanticsChanged),
        "panic" => Ok(FailureCause::Panic(payload.to_string())),
        other => Err(format!("unknown failure kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Wire documents
// ---------------------------------------------------------------------

/// The coordinator's `run_shard` request to an endpoint. `selections`
/// lists the global selection-key indices the endpoint must compute *in
/// addition* to the jobs its assigned cells already imply — needed under
/// `--resume`, where a fully-restored group still owes its selection
/// records. `retries`/`backoff_ms` forward the coordinator's
/// [`RetryPolicy`] so every endpoint's in-cell retry behaviour matches
/// (`backoff_ms` 0 means "use the default schedule"); `pfu_planes`/
/// `pfu_prefetch`/`conf_compress` forward the config-plane knobs the
/// plan was built with.
pub fn shard_request(
    (plan_name, knobs): (&str, PlaneKnobs),
    scale: Scale,
    cells: &[usize],
    selections: &[usize],
    config: &EngineConfig,
    faults: &FaultPlan,
) -> Json {
    let (planes, prefetch, compress) = knobs;
    let indices = |v: &[usize]| Json::Arr(v.iter().map(|&i| Json::UInt(i as u64)).collect());
    Json::obj(vec![
        ("id", Json::UInt(0)),
        ("method", Json::Str("run_shard".to_string())),
        (
            "params",
            Json::obj(vec![
                ("plan", Json::Str(plan_name.to_string())),
                ("scale", Json::Str(scale_str(scale).to_string())),
                ("cells", indices(cells)),
                ("selections", indices(selections)),
                ("deterministic", Json::Bool(config.deterministic)),
                ("no_fast_path", Json::Bool(config.no_fast_path)),
                ("max_cycles", Json::UInt(config.max_cycles)),
                ("inject", Json::Str(faults.render())),
                ("retries", Json::UInt(u64::from(config.retry.max_attempts))),
                (
                    "backoff_ms",
                    Json::UInt(config.retry.backoff_override_ms.unwrap_or(0)),
                ),
                ("pfu_planes", Json::UInt(u64::from(planes))),
                ("pfu_prefetch", Json::UInt(u64::from(prefetch))),
                ("conf_compress", Json::Float(compress)),
            ]),
        ),
    ])
}

/// An endpoint's per-cell event: the global index, the schema-v6 cell
/// document (`speedup` null — the coordinator recomputes it against the
/// merged baseline), and the wire checksum: [`stable_hash64`] over the
/// document's compact rendering, verified at merge time.
pub fn cell_event(index: usize, result: &CellResult) -> Json {
    let doc = results::cell_result_json(result, None);
    let check = stable_hash64(doc.to_string_compact().as_bytes());
    Json::obj(vec![
        ("method", Json::Str("cell".to_string())),
        (
            "params",
            Json::obj(vec![
                ("index", Json::UInt(index as u64)),
                ("check", Json::Str(format!("0x{check:016x}"))),
                ("doc", doc),
            ]),
        ),
    ])
}

/// An endpoint's per-selection event: the global selection-key index and the
/// record's schema-v6 summary document.
pub fn selection_event(index: usize, record: &SelectionRecord) -> Json {
    Json::obj(vec![
        ("method", Json::Str("selection".to_string())),
        (
            "params",
            Json::obj(vec![
                ("index", Json::UInt(index as u64)),
                ("record", results::selection_json(record)),
            ]),
        ),
    ])
}

/// An endpoint's per-failure event ([`cause_to_wire`] encoding).
pub fn failure_event(index: usize, error: &EngineError) -> Json {
    let (kind, payload) = cause_to_wire(&error.cause);
    Json::obj(vec![
        ("method", Json::Str("cell_failed".to_string())),
        (
            "params",
            Json::obj(vec![
                ("index", Json::UInt(index as u64)),
                ("kind", Json::Str(kind.to_string())),
                ("payload", Json::Str(payload)),
                ("attempts", Json::UInt(u64::from(error.attempts))),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------
// Shard execution
// ---------------------------------------------------------------------

/// One `run_shard` job: the plan (rebuilt from its wire name and
/// config-plane knobs), the assigned global cell/selection-key indices,
/// and the engine knobs. The `t1000 serve` `run_shard` method builds it
/// with [`parse_shard_params`]; the coordinator's last degradation rung
/// builds it directly. Both execute it with [`execute_shard`].
pub struct ShardJob {
    pub plan: Plan,
    pub scale: Scale,
    pub indices: Vec<usize>,
    pub key_indices: Vec<usize>,
    pub config: EngineConfig,
}

/// Validates the `params` object of a `run_shard` request into a
/// [`ShardJob`]. Rejects unknown plans, bad scales, bad config-plane
/// knobs, and out-of-range indices with messages suitable for an error
/// envelope. Absent knobs default to [`DEFAULT_PLANE`].
pub fn parse_shard_params(params: &Json) -> Result<ShardJob, String> {
    let plan_name = params
        .get("plan")
        .and_then(Json::as_str)
        .ok_or("missing plan")?;
    let knob = |key: &str, default: u32| match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("bad {key}")),
    };
    let planes = knob("pfu_planes", DEFAULT_PLANE.0)?;
    if !(1..=2).contains(&planes) {
        return Err(format!("pfu_planes must be 1 or 2, got {planes}"));
    }
    let compress = match params.get("conf_compress") {
        None => DEFAULT_PLANE.2,
        Some(v) => v
            .as_f64()
            .filter(|r| *r >= 0.0 && r.is_finite())
            .ok_or("bad conf_compress")?,
    };
    let knobs = (planes, knob("pfu_prefetch", DEFAULT_PLANE.1)?, compress);
    let plan = crate::plan::by_name(plan_name, knobs)?;
    let scale = match params.get("scale").and_then(Json::as_str) {
        Some("test") => Scale::Test,
        Some("full") => Scale::Full,
        other => return Err(format!("bad scale {other:?}")),
    };
    let n_cells = plan.cells().len();
    let mut indices: Vec<usize> = Vec::new();
    for v in params
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing cells")?
    {
        let i = v.as_u64().ok_or("bad cell index")? as usize;
        if i >= n_cells {
            return Err(format!("cell index {i} out of range (plan has {n_cells})"));
        }
        indices.push(i);
    }
    let n_keys = engine::selection_keys(&plan).len();
    let mut key_indices: Vec<usize> = Vec::new();
    for v in params
        .get("selections")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let k = v.as_u64().ok_or("bad selection index")? as usize;
        if k >= n_keys {
            return Err(format!(
                "selection index {k} out of range (plan has {n_keys})"
            ));
        }
        key_indices.push(k);
    }
    let faults = match params.get("inject").and_then(Json::as_str) {
        Some(text) => FaultPlan::parse(text)?,
        None => FaultPlan::none(),
    };
    let mut retry = RetryPolicy::default();
    if let Some(n) = params.get("retries").and_then(Json::as_u64) {
        retry.max_attempts = (n as u32).max(1);
    }
    match params.get("backoff_ms").and_then(Json::as_u64) {
        Some(0) | None => {}
        Some(ms) => retry.backoff_override_ms = Some(ms),
    }
    let config = EngineConfig {
        max_cycles: params.get("max_cycles").and_then(Json::as_u64).unwrap_or(0),
        deterministic: params
            .get("deterministic")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        no_fast_path: params
            .get("no_fast_path")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        faults,
        retry,
        ..EngineConfig::default()
    };
    Ok(ShardJob {
        plan,
        scale,
        indices,
        key_indices,
        config,
    })
}

/// Executes a parsed [`ShardJob`] on an in-process engine and streams the
/// `selection`/`cell`/`cell_failed` events plus the final result envelope
/// (echoing `id`) through `emit` — the endpoint half of the shard wire
/// protocol, transport-agnostic so the TCP `run_shard` method and the
/// coordinator's in-process rung share it verbatim.
pub fn execute_shard(
    job: &ShardJob,
    id: &Json,
    emit: &mut dyn FnMut(Json) -> Result<(), String>,
) -> Result<(), String> {
    let cells = job.plan.cells();
    let keys = engine::selection_keys(&job.plan);

    // The sub-plan: assigned cells pushed in global order. For the
    // coordinator's group-atomic partitions this reproduces exactly the
    // assigned set (every baseline travels with its group and precedes
    // its users); for arbitrary assignments the plan machinery adds the
    // implied baselines, which are simulated but filtered out below.
    let mut sub = Plan::new();
    for &i in &job.indices {
        sub.push(cells[i]);
    }
    // Explicitly-requested selection jobs (resume path). `push_selection`
    // appends the implied baseline cell after the assigned ones, so the
    // fault plan's local indices stay valid; the extra baseline result is
    // filtered from the wire by the assigned-set check below.
    for &k in &job.key_indices {
        let (workload, extract, spec) = keys[k];
        sub.push_selection(workload, extract, spec);
    }
    let run = engine::execute_with(&sub, job.scale, &job.config);

    // Map everything back to global numbering before it hits the wire.
    let global_cell: HashMap<Cell, usize> =
        cells.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let global_selection: HashMap<(&'static str, ExtractConfig, SelectionSpec), usize> =
        keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
    let assigned: HashSet<usize> = job.indices.iter().copied().collect();

    for s in &run.selections {
        if let Some(&gi) = global_selection.get(&(s.workload, s.extract, s.spec)) {
            emit(selection_event(gi, s))?;
        }
    }
    for c in &run.cells {
        match global_cell.get(&c.cell) {
            Some(&gi) if assigned.contains(&gi) => emit(cell_event(gi, c))?,
            _ => {}
        }
    }
    for e in &run.failures {
        match global_cell.get(&e.cell) {
            Some(&gi) if assigned.contains(&gi) => emit(failure_event(gi, e))?,
            _ => {}
        }
    }
    let stats = &run.stats;
    emit(Json::obj(vec![
        ("id", id.clone()),
        (
            "result",
            Json::obj(vec![
                ("cells", Json::UInt(run.cells.len() as u64)),
                ("failed", Json::UInt(run.failures.len() as u64)),
                ("retries", Json::UInt(stats.retries)),
                ("prepare_secs", Json::Float(stats.prepare_secs)),
                ("select_secs", Json::Float(stats.select_secs)),
                ("simulate_secs", Json::Float(stats.simulate_secs)),
                (
                    "selection_compute_secs",
                    Json::Float(stats.selection_compute_secs),
                ),
            ]),
        ),
    ]))
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

/// A shard's final self-reported totals (wall-clock and retry counters;
/// everything else in the merged stats is derived from the plan).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    pub retries: u64,
    pub prepare_secs: f64,
    pub select_secs: f64,
    pub simulate_secs: f64,
    pub selection_compute_secs: f64,
}

impl ShardStats {
    fn add(&mut self, s: &ShardStats) {
        self.retries += s.retries;
        self.prepare_secs += s.prepare_secs;
        self.select_secs += s.select_secs;
        self.simulate_secs += s.simulate_secs;
        self.selection_compute_secs += s.selection_compute_secs;
    }
}

/// What one streamed shard line turned out to be.
#[derive(Debug)]
pub enum WireLine {
    /// A cell document was verified and merged.
    Cell,
    /// Any other event (selection record, recorded failure).
    Event,
    /// The shard's final id-0 result envelope.
    Done(ShardStats),
    /// The endpoint rejected the request with an error envelope.
    Failed(String),
}

/// Merges shard-streamed documents back into one [`EngineRun`].
/// Transport-free by construction: the coordinator feeds it lines read
/// from endpoint streams and documents its in-process rung emits, and
/// tests feed it events synthesized from in-process runs — the merge
/// math is identical.
pub struct MergeState {
    scale: Scale,
    cells: Vec<Cell>,
    keys: Vec<(&'static str, ExtractConfig, SelectionSpec)>,
    /// Workload → architectural reference checksum, recomputed locally —
    /// an endpoint cannot vouch for its own results.
    expected: HashMap<&'static str, u64>,
    merged: BTreeMap<usize, CellResult>,
    selections: BTreeMap<usize, SelectionRecord>,
    failures: BTreeMap<usize, (FailureCause, u32)>,
    restored: usize,
}

impl MergeState {
    pub fn new(plan: &Plan, scale: Scale) -> MergeState {
        let cells = plan.cells().to_vec();
        let expected = engine::workload_infos(scale, &cells)
            .into_iter()
            .map(|w| (w.name, w.expected_checksum))
            .collect();
        MergeState {
            scale,
            keys: engine::selection_keys(plan),
            cells,
            expected,
            merged: BTreeMap::new(),
            selections: BTreeMap::new(),
            failures: BTreeMap::new(),
            restored: 0,
        }
    }

    /// Pre-populates a cell restored from the coordinator's `--resume`
    /// checkpoint, so no shard is asked to re-simulate it.
    pub fn restore(&mut self, index: usize, result: CellResult) {
        if self.merged.insert(index, result).is_none() {
            self.restored += 1;
        }
    }

    /// Cells restored via [`MergeState::restore`].
    pub fn restored_count(&self) -> usize {
        self.restored
    }

    /// The merged cells so far, keyed by global plan index — the
    /// coordinator's checkpoint body.
    pub fn completed(&self) -> &BTreeMap<usize, CellResult> {
        &self.merged
    }

    /// Cells neither merged nor recorded as failed — the coordinator's
    /// crash-retry work list.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|i| !self.merged.contains_key(i) && !self.failures.contains_key(i))
            .collect()
    }

    /// Selection keys with no merged record yet — what the resume path
    /// assigns explicitly and the retry rungs recompute.
    pub fn missing_selections(&self) -> Vec<usize> {
        (0..self.keys.len())
            .filter(|k| !self.selections.contains_key(k))
            .collect()
    }

    /// Records a coordinator-observed failure for a cell no shard
    /// reported (a crash that survived the retry wave).
    pub fn fail(&mut self, index: usize, cause: FailureCause, attempts: u32) {
        if index < self.cells.len() && !self.merged.contains_key(&index) {
            self.failures.entry(index).or_insert((cause, attempts));
        }
    }

    /// Dispatches one streamed shard line. A verification failure (wire
    /// checksum, architectural checksum, malformed document) is an `Err`:
    /// the line is rejected, the cell stays [`MergeState::missing`], and
    /// the coordinator's retry/report machinery picks it up.
    pub fn on_line(&mut self, line: &str) -> Result<WireLine, String> {
        let doc = Json::parse(line).map_err(|e| format!("bad shard line: {e}"))?;
        if let Some(result) = doc.get("result") {
            let f = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            return Ok(WireLine::Done(ShardStats {
                retries: result.get("retries").and_then(Json::as_u64).unwrap_or(0),
                prepare_secs: f("prepare_secs"),
                select_secs: f("select_secs"),
                simulate_secs: f("simulate_secs"),
                selection_compute_secs: f("selection_compute_secs"),
            }));
        }
        if let Some(err) = doc.get("error") {
            let msg = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string();
            return Ok(WireLine::Failed(msg));
        }
        let params = doc.get("params").ok_or("shard event missing params")?;
        let index = params
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("shard event missing index")? as usize;
        match doc.get("method").and_then(Json::as_str) {
            Some("cell") => {
                self.on_cell(index, params)?;
                Ok(WireLine::Cell)
            }
            Some("selection") => {
                self.on_selection(index, params)?;
                Ok(WireLine::Event)
            }
            Some("cell_failed") => {
                self.on_cell_failed(index, params)?;
                Ok(WireLine::Event)
            }
            other => Err(format!("unknown shard event {other:?}")),
        }
    }

    fn on_cell(&mut self, index: usize, params: &Json) -> Result<(), String> {
        let cell = *self
            .cells
            .get(index)
            .ok_or_else(|| format!("cell index {index} out of range"))?;
        let doc = params.get("doc").ok_or("cell event missing doc")?;
        let claimed = params
            .get("check")
            .and_then(Json::as_str)
            .and_then(parse_hex64)
            .ok_or("cell event missing check")?;
        let got = stable_hash64(doc.to_string_compact().as_bytes());
        if got != claimed {
            return Err(format!(
                "cell {index}: wire checksum 0x{got:016x} != claimed 0x{claimed:016x}"
            ));
        }
        let result = results::cell_result_from_json(doc, cell)?;
        // Defense in depth: the wire hash proves transport integrity; the
        // architectural checksum proves the simulation itself converged on
        // the locally recomputed workload reference.
        if let Some(&reference) = self.expected.get(cell.workload) {
            if result.checksum != reference {
                return Err(format!(
                    "cell {index} ({}): checksum 0x{:016x} diverges from reference 0x{reference:016x}",
                    cell.workload, result.checksum
                ));
            }
        }
        // Duplicate deliveries (a cell re-run on a retry rung after a
        // mid-stream crash) are deterministic replicas; first write wins.
        self.merged.entry(index).or_insert(result);
        Ok(())
    }

    fn on_selection(&mut self, index: usize, params: &Json) -> Result<(), String> {
        let &(workload, extract, spec) = self
            .keys
            .get(index)
            .ok_or_else(|| format!("selection index {index} out of range"))?;
        let rec = params
            .get("record")
            .ok_or("selection event missing record")?;
        let u = |k: &str| -> Result<u64, String> {
            rec.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("selection {index}: bad {k}"))
        };
        let confs_json = rec
            .get("confs")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("selection {index}: missing confs"))?;
        let mut confs = Vec::with_capacity(confs_json.len());
        for c in confs_json {
            let cu = |k: &str| -> Result<u64, String> {
                c.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("selection {index}: bad conf {k}"))
            };
            confs.push(ConfSummary {
                luts: cu("luts")? as u32,
                depth: cu("depth")? as u32,
                width: cu("width")? as u8,
                seq_len: cu("seq_len")? as usize,
                num_sites: cu("num_sites")? as usize,
                total_gain: cu("total_gain")?,
            });
        }
        let record = SelectionRecord::from_summaries(
            workload,
            extract,
            spec,
            u("num_confs")? as usize,
            u("num_sites")? as usize,
            confs,
        );
        self.selections.entry(index).or_insert(record);
        Ok(())
    }

    fn on_cell_failed(&mut self, index: usize, params: &Json) -> Result<(), String> {
        if index >= self.cells.len() {
            return Err(format!("cell index {index} out of range"));
        }
        let kind = params
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("cell_failed event missing kind")?;
        let payload = params.get("payload").and_then(Json::as_str).unwrap_or("");
        let attempts = params.get("attempts").and_then(Json::as_u64).unwrap_or(0) as u32;
        let cause = cause_from_wire(kind, payload)?;
        self.failures.entry(index).or_insert((cause, attempts));
        Ok(())
    }

    /// Assembles the merged run with *canonical* engine stats — the
    /// numbers the in-process engine would report for `plan`: dedup
    /// counters from the plan, one selection-cache miss per selection
    /// job, the coordinator's own thread count. The merge computes
    /// nothing itself (even the in-process rung reports through it), so
    /// deriving these from the plan rather than summing shard-local views is what keeps the merged
    /// artifact byte-identical to the in-process one. Only wall-clock
    /// totals and in-cell retry counts come from the shards, and
    /// `deterministic` zeroes the former.
    pub fn finish(self, plan: &Plan, totals: ShardStats, deterministic: bool) -> EngineRun {
        let MergeState {
            scale,
            cells,
            keys,
            expected: _,
            merged,
            selections,
            failures,
            restored,
        } = self;
        let workloads = engine::workload_infos(scale, &cells);
        let mut merged_cells: Vec<CellResult> = merged.into_values().collect();
        if deterministic {
            // Shards zero their own wall-clock before it hits the wire,
            // but checkpoint-restored cells still carry the interrupted
            // run's real timings — zero them the same way the in-process
            // engine does at assembly.
            for r in &mut merged_cells {
                r.host_ns = 0;
                r.sim_khz = 0.0;
            }
        }
        let merged_selections: Vec<SelectionRecord> = selections.into_values().collect();
        let merged_failures: Vec<EngineError> = failures
            .into_iter()
            .map(|(i, (cause, attempts))| EngineError {
                cell: cells[i],
                cause,
                attempts,
            })
            .collect();
        let selection_jobs = keys.len();
        let mut stats = EngineStats {
            cells_requested: plan.requested(),
            cells_simulated: merged_cells.len(),
            selection_jobs,
            selection_hits: 0,
            selection_misses: selection_jobs as u64,
            selection_compute_secs: totals.selection_compute_secs,
            prepare_secs: totals.prepare_secs,
            select_secs: totals.select_secs,
            simulate_secs: totals.simulate_secs,
            threads: engine::num_threads(),
            cells_deduped: plan.deduped(),
            retries: totals.retries,
            failed_cells: merged_failures.len(),
            cells_restored: restored,
        };
        if deterministic {
            stats.selection_compute_secs = 0.0;
            stats.prepare_secs = 0.0;
            stats.select_secs = 0.0;
            stats.simulate_secs = 0.0;
        }
        EngineRun::assemble(
            scale,
            workloads,
            merged_selections,
            merged_cells,
            merged_failures,
            stats,
        )
    }
}

// ---------------------------------------------------------------------
// Remote transport
// ---------------------------------------------------------------------

/// Environment override for the idle-stream watchdog (milliseconds of
/// silence on an open remote stream before the dispatch is abandoned and
/// its cells fall to the next rung of the degradation ladder).
pub const REMOTE_IDLE_ENV: &str = "T1000_REMOTE_IDLE_MS";

/// Per-endpoint dispatch accounting, reported in the `.shards.json`
/// sidecar's `endpoints` array.
#[derive(Clone, Copy, Debug, Default)]
struct EndpointStats {
    dispatches: u64,
    connect_retries: u64,
    failures: u64,
}

/// The remote endpoint pool: addresses, per-endpoint counters, and the
/// idle-stream watchdog.
struct RemoteState {
    addrs: Vec<String>,
    stats: Mutex<Vec<EndpointStats>>,
    /// Max silence on an open stream before the dispatch is abandoned.
    idle: Duration,
}

impl RemoteState {
    fn new(addrs: &[String]) -> RemoteState {
        let idle_ms = std::env::var(REMOTE_IDLE_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(120_000);
        RemoteState {
            addrs: addrs.to_vec(),
            stats: Mutex::new(vec![EndpointStats::default(); addrs.len()]),
            idle: Duration::from_millis(idle_ms),
        }
    }
}

/// One remote dispatch's TCP stream, read through the shared
/// [`LineReader`] in short timeout slices so an *idle* watchdog (time
/// since the last byte arrived) turns a hung network into a typed,
/// retryable error instead of a stuck coordinator. A read timeout
/// mid-line never loses partial data, and a line longer than
/// [`MAX_LINE_BYTES`] fails the dispatch.
struct RemoteReader {
    lines: LineReader<TcpStream>,
}

impl RemoteReader {
    fn new(stream: TcpStream) -> Result<RemoteReader, String> {
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| format!("setting read timeout: {e}"))?;
        Ok(RemoteReader {
            lines: LineReader::new(stream),
        })
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        let stream = self.lines.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .map_err(|e| format!("writing request: {e}"))
    }

    /// Next newline-terminated line; `Ok(None)` is a clean EOF. `stalled`
    /// simulates a `netstall@` fault: reads are skipped entirely, so the
    /// genuine idle-watchdog branch is what fires.
    fn read_line(&mut self, idle: Duration, stalled: bool) -> Result<Option<String>, String> {
        let start = Instant::now();
        loop {
            if !stalled {
                match self.lines.read_line() {
                    Ok(line) => return Ok(line),
                    Err(LineError::Timeout) => {}
                    Err(LineError::TooLong) => {
                        return Err(format!("line exceeds {MAX_LINE_BYTES} bytes"))
                    }
                    Err(LineError::Io(e)) => return Err(format!("reading stream: {e}")),
                }
            }
            if self.lines.last_read().max(start).elapsed() >= idle {
                return Err(format!("stream idle for {} ms", idle.as_millis()));
            }
            if stalled {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// TCP connect + `ping` handshake against one endpoint: proves the peer
/// is a live, accepting `t1000 serve` before any work is dispatched (and
/// doubles as the between-waves health probe). Consumes the ping response
/// — it must never reach the merge loop, where any `result` document
/// reads as a final envelope — and rejects endpoints that are draining
/// for shutdown.
fn connect_and_handshake(addr: &str) -> Result<RemoteReader, String> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("no address for {addr}"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, Duration::from_secs(1))
        .map_err(|e| format!("connecting: {e}"))?;
    let mut reader = RemoteReader::new(stream)?;
    let ping = Json::obj(vec![
        ("id", Json::UInt(0)),
        ("method", Json::Str("ping".to_string())),
    ]);
    reader.write_line(&ping.to_string_compact())?;
    let line = reader
        .read_line(Duration::from_secs(5), false)?
        .ok_or("connection closed during handshake")?;
    let doc = Json::parse(&line).map_err(|e| format!("bad ping response: {e}"))?;
    let result = doc
        .get("result")
        .ok_or_else(|| format!("ping rejected: {line}"))?;
    if result.get("pong").and_then(Json::as_bool) != Some(true) {
        return Err("peer is not a t1000 serve endpoint".to_string());
    }
    if result.get("shutting_down").and_then(Json::as_bool) == Some(true) {
        return Err("endpoint is shutting down".to_string());
    }
    Ok(reader)
}

/// Wait before remote connect attempt `attempt` (1-based; attempt 1 never
/// waits): the shared [`RetryPolicy`] schedule as the base, doubled per
/// prior failure and capped at 2 s, plus *deterministic* jitter hashed
/// from (shard, attempt) — concurrent shards never retry in lock-step,
/// yet every run waits identically, keeping fault-injected runs
/// reproducible.
fn net_backoff(retry: &RetryPolicy, shard: usize, attempt: u32) -> Duration {
    if attempt <= 1 {
        return Duration::ZERO;
    }
    let base = (retry.backoff_before(attempt).as_millis() as u64).max(1);
    let capped = base.saturating_mul(1u64 << (attempt - 2).min(6)).min(2_000);
    let jitter =
        stable_hash64(format!("net-backoff:{shard}:{attempt}").as_bytes()) % (capped / 2 + 1);
    Duration::from_millis(capped + jitter)
}

/// Dispatches one wave entry to its remote endpoint and merges the
/// streamed events, behind the fault-tolerance layer: connect retry with
/// [`net_backoff`], the [`connect_and_handshake`] health probe, the idle
/// stream watchdog, and the injected `net*@` arms (fired only when
/// `inject_net`, i.e. on first-wave dispatches — retries run clean).
fn drive_remote(ctx: &WaveCtx<'_>, entry: &WaveEntry) -> Result<(), String> {
    let remote = ctx.remote;
    let addr = &remote.addrs[entry.endpoint];
    let retry = ctx.config.retry;
    let fail = |msg: String| -> Result<(), String> {
        lock(&remote.stats)[entry.endpoint].failures += 1;
        Err(format!("tcp://{addr}: {msg}"))
    };
    let faults = &ctx.config.faults;
    let shard = entry.shard;

    let mut reader = None;
    let mut last_err = String::new();
    for attempt in 1..=retry.max_attempts {
        if attempt > 1 {
            std::thread::sleep(net_backoff(&retry, shard, attempt));
            lock(&remote.stats)[entry.endpoint].connect_retries += 1;
        }
        if entry.inject_net && faults.net_connect_fails(shard, attempt) {
            last_err = format!("injected connect refusal (attempt {attempt})");
            continue;
        }
        match connect_and_handshake(addr) {
            Ok(r) => {
                reader = Some(r);
                break;
            }
            Err(e) => last_err = e,
        }
    }
    let Some(mut reader) = reader else {
        return fail(format!(
            "connect failed after {} attempt(s): {last_err}",
            retry.max_attempts
        ));
    };
    lock(&remote.stats)[entry.endpoint].dispatches += 1;

    let request = shard_request(
        (ctx.plan_name, ctx.knobs),
        ctx.scale,
        &entry.cells,
        &entry.keys,
        ctx.config,
        &entry.faults,
    );
    if let Err(e) = reader.write_line(&request.to_string_compact()) {
        return fail(e);
    }

    let drop_midstream = entry.inject_net && faults.net_drop(shard);
    let stalled = entry.inject_net && faults.net_stall(shard);
    // An injected stall still times out via the *real* watchdog branch —
    // just quickly, so chaos tests stay fast.
    let idle = if stalled {
        remote.idle.min(Duration::from_millis(250))
    } else {
        remote.idle
    };

    loop {
        let line = match reader.read_line(idle, stalled) {
            Ok(Some(line)) => line,
            Ok(None) => return fail("stream ended without a final response".to_string()),
            Err(e) => return fail(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        match ctx.merge_line(&line) {
            // First cell merged; the "network" now cuts the stream.
            // Everything unmerged heals downstream.
            Ok(WireLine::Cell) if drop_midstream => {
                return fail("injected mid-stream disconnect".to_string())
            }
            Ok(WireLine::Cell | WireLine::Event) => {}
            // The serve connection stays open after the final envelope —
            // return, don't wait for EOF.
            Ok(WireLine::Done(_)) => return Ok(()),
            Ok(WireLine::Failed(msg)) => {
                return fail(format!("endpoint rejected the request: {msg}"))
            }
            Err(e) => eprintln!("[t1000-bench] shard {shard}: rejected remote line: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Everything a coordinator run produced: the merged run plus the shard
/// topology sidecar (written next to the artifact as
/// `<artifact>.shards.json`, asserted by `--expect shards=N`).
pub struct ShardedRun {
    pub run: EngineRun,
    pub sidecar: Json,
}

struct WaveCtx<'a> {
    plan_name: &'a str,
    knobs: PlaneKnobs,
    scale: Scale,
    config: &'a EngineConfig,
    remote: &'a RemoteState,
    merge: &'a Mutex<MergeState>,
    totals: &'a Mutex<ShardStats>,
    /// Checkpoint flush, run after every merged cell.
    flush: &'a (dyn Fn(&MergeState) + Sync),
}

impl WaveCtx<'_> {
    /// Feeds one streamed line through the double-checksum merge, flushes
    /// the checkpoint after a merged cell and folds a final envelope into
    /// the totals — the one merge step every rung of the ladder shares.
    fn merge_line(&self, line: &str) -> Result<WireLine, String> {
        let mut m = lock(self.merge);
        let wire = m.on_line(line)?;
        match &wire {
            WireLine::Cell => (self.flush)(&m),
            WireLine::Done(s) => lock(self.totals).add(s),
            WireLine::Event | WireLine::Failed(_) => {}
        }
        Ok(wire)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One remote dispatch: the shard label, the endpoint it goes to, its
/// assigned global cells and selection keys, the endpoint-local fault
/// plan, and whether the coordinator-side `net*@` arms may fire
/// (first-wave dispatches only — every retry rung runs with injection
/// disarmed, so each network fault fires at most once and the run always
/// heals).
struct WaveEntry {
    shard: usize,
    endpoint: usize,
    cells: Vec<usize>,
    keys: Vec<usize>,
    faults: FaultPlan,
    inject_net: bool,
}

/// Executes the plan `plan_name` (built with `knobs`, see
/// [`crate::plan::by_name`]) across the `remotes` endpoints — one shard per
/// endpoint, shard `s` to endpoint `s` — and merges the streamed results.
/// Honors the coordinator-side parts of `config` — checkpoint/resume,
/// fault injection (cell arms are forwarded to the owning endpoint,
/// network arms fire in the transport, I/O arms stay local), determinism
/// — and forwards the per-simulation knobs to every endpoint.
///
/// Unaccounted work walks the degradation ladder: re-dispatch to each
/// surviving (ping-healthy) endpoint, then the coordinator's own
/// in-process engine — the artifact stays byte-identical to the
/// in-process run whichever rung completes the cells.
pub fn run_sharded(
    plan_name: &str,
    knobs: PlaneKnobs,
    scale: Scale,
    config: &EngineConfig,
    remotes: &[String],
) -> Result<ShardedRun, String> {
    if remotes.is_empty() {
        return Err("sharded execution needs at least one remote endpoint".to_string());
    }
    let shards = remotes.len();
    let plan = crate::plan::by_name(plan_name, knobs)?;

    let mut merge = MergeState::new(&plan, scale);
    // Resume: cells any previous run — sharded or in-process, the
    // checkpoint format is shared — already completed are restored and
    // never dispatched.
    if let Some(path) = &config.checkpoint {
        if config.resume && path.exists() {
            match checkpoint::load(path, scale) {
                Ok(restored) => {
                    for (i, cell) in plan.cells().iter().enumerate() {
                        if let Some(r) = restored.get(&checkpoint::cell_key(cell)) {
                            merge.restore(i, CellResult::from_restored(*cell, r));
                        }
                    }
                }
                Err(e) => eprintln!("[t1000-bench] ignoring unusable checkpoint: {e}"),
            }
        }
    }
    let restored_cells = merge.restored_count();

    let remaining = merge.missing();
    let assignment = partition(&plan, &remaining, shards);
    let per_shard: Vec<usize> = assignment.iter().map(Vec::len).collect();

    // Selection keys no remaining cell implies (their whole group was
    // restored from the checkpoint) still owe their records: the
    // in-process engine recomputes every selection on resume, and
    // byte-identity demands we do too. Assign each orphan key to the
    // shard that owns its group; on a fresh run this set is empty.
    let all_keys = engine::selection_keys(&plan);
    let key_index: HashMap<(&'static str, ExtractConfig, SelectionSpec), usize> = all_keys
        .iter()
        .copied()
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect();
    let covered: HashSet<usize> = remaining
        .iter()
        .filter_map(|&i| {
            let c = plan.cells()[i];
            key_index
                .get(&(c.workload, c.extract, c.selection))
                .copied()
        })
        .collect();
    let orphans: Vec<usize> = (0..all_keys.len())
        .filter(|k| !covered.contains(k))
        .collect();
    let key_assignment = partition_selections(&plan, &orphans, shards);

    let merge = Mutex::new(merge);
    let totals = Mutex::new(ShardStats::default());
    let checkpoint_writes = AtomicU32::new(0);
    // Mirrors the in-process engine: after every completed cell, flush
    // the whole completed set atomically (same `io@checkpoint` fault
    // accounting, same kill-anywhere recovery guarantee).
    let flush = |m: &MergeState| {
        if let Some(path) = &config.checkpoint {
            let attempt = checkpoint_writes.fetch_add(1, Ordering::Relaxed) + 1;
            if config.faults.checkpoint_write_fails(attempt) {
                eprintln!(
                    "[t1000-bench] injected checkpoint I/O failure (write {attempt}); continuing"
                );
            } else if let Err(e) = checkpoint::write(path, scale, m.completed()) {
                eprintln!("[t1000-bench] checkpoint write failed: {e}; continuing");
            }
        }
    };
    let remote = RemoteState::new(remotes);
    let ctx = WaveCtx {
        plan_name,
        knobs,
        scale,
        config,
        remote: &remote,
        merge: &merge,
        totals: &totals,
        flush: &flush,
    };
    let mut degradations: Vec<String> = Vec::new();

    let wave: Vec<WaveEntry> = assignment
        .into_iter()
        .zip(key_assignment)
        .enumerate()
        .filter(|(_, (cells, keys))| !cells.is_empty() || !keys.is_empty())
        .map(|(s, (cells, keys))| WaveEntry {
            shard: s,
            endpoint: s,
            faults: local_faults(&config.faults, plan.cells(), &cells),
            cells,
            keys,
            inject_net: true,
        })
        .collect();
    let mut worker_crashes = drive_wave(&ctx, &wave);

    // Crash recovery — the degradation ladder. Rung 1: re-dispatch
    // everything unaccounted for to each surviving endpoint in turn,
    // health-probed first, until the run heals. Rung 2: the coordinator
    // runs what is left in-process. Both rungs strip process-abort
    // injections and run with network injection disarmed so the retry
    // can complete; anything still missing after the ladder is reported
    // on the schema-v3 `failed_cells` path.
    let stripped = config.faults.without_aborts();
    let unaccounted = || {
        let m = lock(&merge);
        (m.missing(), m.missing_selections())
    };
    let mut retried: BTreeSet<usize> = BTreeSet::new();
    let (mut missing, mut missing_sel) = unaccounted();
    for endpoint in 0..shards {
        if missing.is_empty() && missing_sel.is_empty() {
            break;
        }
        let addr = &remote.addrs[endpoint];
        if let Err(e) = connect_and_handshake(addr) {
            eprintln!("[t1000-bench] tcp://{addr}: unhealthy, skipping retry rung: {e}");
            continue;
        }
        eprintln!(
            "[t1000-bench] {} cell(s) and {} selection(s) unaccounted for; retrying on surviving endpoint tcp://{addr}",
            missing.len(),
            missing_sel.len()
        );
        degradations.push(format!("remote_retry:tcp://{addr}"));
        retried.extend(missing.iter().copied());
        let entry = WaveEntry {
            shard: shards,
            endpoint,
            faults: local_faults(&stripped, plan.cells(), &missing),
            cells: missing,
            keys: missing_sel,
            inject_net: false,
        };
        worker_crashes += drive_wave(&ctx, &[entry]);
        (missing, missing_sel) = unaccounted();
    }
    if !missing.is_empty() || !missing_sel.is_empty() {
        eprintln!(
            "[t1000-bench] {} cell(s) and {} selection(s) unaccounted for after the remote rungs; running them in-process",
            missing.len(),
            missing_sel.len()
        );
        degradations.push("local_fallback".to_string());
        retried.extend(missing.iter().copied());
        let job = ShardJob {
            plan: plan.clone(),
            scale,
            config: EngineConfig {
                faults: local_faults(&stripped, plan.cells(), &missing),
                checkpoint: None,
                resume: false,
                ..config.clone()
            },
            indices: missing,
            key_indices: missing_sel,
        };
        let mut emit = |doc: Json| -> Result<(), String> {
            if let Err(e) = ctx.merge_line(&doc.to_string_compact()) {
                eprintln!("[t1000-bench] in-process rung: rejected line: {e}");
            }
            Ok(())
        };
        // `emit` never fails, so neither does the rung: a cell the engine
        // cannot complete comes back as a `cell_failed` event.
        let _ = execute_shard(&job, &Json::UInt(0), &mut emit);
    }
    {
        let mut m = lock(&merge);
        for i in m.missing() {
            m.fail(
                i,
                FailureCause::Panic(format!("no rung of the ladder completed cell {i}")),
                1,
            );
        }
    }

    let totals = totals
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let merge = merge
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let endpoint_stats = remote
        .stats
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let run = merge.finish(&plan, totals, config.deterministic);
    let sidecar = Json::obj(vec![
        ("schema_version", Json::UInt(2)),
        ("kind", Json::Str("t1000.bench-shards".to_string())),
        ("shards", Json::UInt(shards as u64)),
        (
            "cells_per_shard",
            Json::Arr(per_shard.iter().map(|&n| Json::UInt(n as u64)).collect()),
        ),
        ("cells_restored", Json::UInt(restored_cells as u64)),
        ("worker_crashes", Json::UInt(worker_crashes as u64)),
        (
            "retried_cells",
            Json::Arr(retried.iter().map(|&i| Json::UInt(i as u64)).collect()),
        ),
        ("remotes", Json::UInt(shards as u64)),
        (
            "endpoints",
            Json::Arr(
                remote
                    .addrs
                    .iter()
                    .zip(&endpoint_stats)
                    .map(|(addr, s)| {
                        Json::obj(vec![
                            ("addr", Json::Str(addr.clone())),
                            ("dispatches", Json::UInt(s.dispatches)),
                            ("connect_retries", Json::UInt(s.connect_retries)),
                            ("failures", Json::UInt(s.failures)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "degradations",
            Json::Arr(degradations.into_iter().map(Json::Str).collect()),
        ),
    ]);
    Ok(ShardedRun { run, sidecar })
}

/// Drives one wave's dispatches concurrently and returns how many failed
/// (refused connection, dropped or stalled stream, crashed endpoint).
fn drive_wave(ctx: &WaveCtx<'_>, wave: &[WaveEntry]) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = wave
            .iter()
            .map(|entry| (entry.shard, scope.spawn(move || drive_remote(ctx, entry))))
            .collect();
        let mut failed = 0;
        for (shard, handle) in handles {
            let result = handle
                .join()
                .unwrap_or_else(|_| Err("dispatch thread panicked".to_string()));
            if let Err(e) = result {
                eprintln!("[t1000-bench] shard {shard}: {e}");
                failed += 1;
            }
        }
        failed
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_with;
    use crate::plan::{run_all_plan, MachineSpec};
    use crate::results::to_json;
    use proptest::prelude::*;

    fn small_plan() -> Plan {
        let mut plan = Plan::new();
        for w in ["gsm_dec", "g721_enc"] {
            plan.push(Cell::new(
                w,
                SelectionSpec::selective_std(Some(2)),
                MachineSpec::with_pfus(2, 10),
            ));
            plan.push(Cell::new(
                w,
                SelectionSpec::Greedy,
                MachineSpec::with_pfus(2, 10),
            ));
        }
        plan
    }

    fn det_config() -> EngineConfig {
        EngineConfig {
            deterministic: true,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn partition_is_total_group_atomic_and_baseline_closed() {
        let plan = run_all_plan();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        for shards in [1, 3, 4, 8, 64] {
            let parts = partition(&plan, &all, shards);
            assert_eq!(parts.len(), shards);
            let mut seen = vec![false; all.len()];
            for part in &parts {
                let set: std::collections::HashSet<usize> = part.iter().copied().collect();
                for &i in part {
                    assert!(!seen[i], "cell {i} assigned twice");
                    seen[i] = true;
                    // Group-atomicity: the whole (workload, extract) group
                    // — in particular every cell's baseline — co-locates.
                    let base = plan.cells()[i].baseline_cell();
                    let bi = plan.cells().iter().position(|&c| c == base).unwrap();
                    assert!(set.contains(&bi), "cell {i} split from its baseline");
                }
            }
            assert!(seen.iter().all(|&b| b), "partition dropped a cell");
        }
        // Deterministic: same inputs, same assignment.
        assert_eq!(partition(&plan, &all, 4), partition(&plan, &all, 4));
    }

    #[test]
    fn causes_round_trip_over_the_wire() {
        for cause in [
            FailureCause::UnknownWorkload,
            FailureCause::Prepare("p".into()),
            FailureCause::Selection("s".into()),
            FailureCause::Simulate("m".into()),
            FailureCause::Timeout { max_cycles: 123 },
            FailureCause::WallClock,
            FailureCause::ChecksumMismatch {
                got: 0xdead,
                expected: 0xbeef,
            },
            FailureCause::SemanticsChanged,
            FailureCause::Panic("boom".into()),
        ] {
            let (kind, payload) = cause_to_wire(&cause);
            let back = cause_from_wire(kind, &payload).expect("round trip");
            assert_eq!(back, cause);
        }
        assert!(cause_from_wire("gremlin", "").is_err());
        assert!(cause_from_wire("timeout", "x").is_err());
        assert!(cause_from_wire("checksum_mismatch", "0xzz,0x1").is_err());
    }

    /// Runs each part's cells in-process, pushes the results through the
    /// wire rendering + parsing, and merges — the exact merge math the
    /// coordinator runs, minus the OS processes.
    fn merge_via_wire(plan: &Plan, parts: &[Vec<usize>]) -> EngineRun {
        let mut merge = MergeState::new(plan, Scale::Test);
        let global_cell: HashMap<Cell, usize> = plan
            .cells()
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        let global_selection: HashMap<_, usize> = engine::selection_keys(plan)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i))
            .collect();
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let mut sub = Plan::new();
            for &i in part {
                sub.push(plan.cells()[i]);
            }
            let run = execute_with(&sub, Scale::Test, &det_config());
            assert!(run.failures.is_empty());
            let assigned: HashSet<usize> = part.iter().copied().collect();
            for s in &run.selections {
                let gi = global_selection[&(s.workload, s.extract, s.spec)];
                let line = selection_event(gi, s).to_string_compact();
                assert!(matches!(merge.on_line(&line).unwrap(), WireLine::Event));
            }
            for c in &run.cells {
                let gi = global_cell[&c.cell];
                if !assigned.contains(&gi) {
                    continue; // implied baseline owned by another part
                }
                let line = cell_event(gi, c).to_string_compact();
                assert!(matches!(merge.on_line(&line).unwrap(), WireLine::Cell));
            }
        }
        merge.finish(plan, ShardStats::default(), true)
    }

    #[test]
    fn sharded_merge_reproduces_the_single_process_artifact() {
        let plan = small_plan();
        let reference =
            to_json(&execute_with(&plan, Scale::Test, &det_config())).to_string_pretty();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        for shards in [1, 2, 3] {
            let parts = partition(&plan, &all, shards);
            let merged = merge_via_wire(&plan, &parts);
            assert_eq!(
                to_json(&merged).to_string_pretty(),
                reference,
                "shards={shards}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // ANY assignment of cells to shards — group-atomic or not, even
        // ones that split a baseline from its users — merges to the
        // byte-identical single-process artifact.
        #[test]
        fn any_partition_merges_to_the_canonical_artifact(
            assign in prop::collection::vec(0usize..3, 6)
        ) {
            let plan = small_plan();
            prop_assert_eq!(plan.cells().len(), assign.len());
            let mut parts = vec![Vec::new(); 3];
            for (i, &s) in assign.iter().enumerate() {
                parts[s].push(i);
            }
            let reference = to_json(&execute_with(&plan, Scale::Test, &det_config()))
                .to_string_pretty();
            let merged = merge_via_wire(&plan, &parts);
            prop_assert_eq!(to_json(&merged).to_string_pretty(), reference);
        }
    }

    #[test]
    fn merge_rejects_corrupted_cell_documents() {
        let plan = small_plan();
        let run = execute_with(&plan, Scale::Test, &det_config());
        let target = &run.cells[1]; // a fused (non-baseline) cell
        let gi = plan.cells().iter().position(|&c| c == target.cell).unwrap();

        // Tampered measurement under an unchanged wire checksum: caught
        // by the transport-integrity hash before any parsing.
        let mut merge = MergeState::new(&plan, Scale::Test);
        let line = cell_event(gi, target).to_string_compact().replace(
            &format!("\"cycles\":{}", target.cycles),
            &format!("\"cycles\":{}", target.cycles + 1),
        );
        let err = merge.on_line(&line).unwrap_err();
        assert!(err.contains("wire checksum"), "{err}");

        // A consistent document whose *architectural* checksum diverges
        // from the local reference: caught by the registry re-check.
        let mut lying = target.clone();
        lying.checksum ^= 1;
        let err = merge
            .on_line(&cell_event(gi, &lying).to_string_compact())
            .unwrap_err();
        assert!(err.contains("diverges from reference"), "{err}");

        // Either way the cell is still missing — retryable, not merged.
        assert!(merge.missing().contains(&gi));

        // And a malformed line is an error, not a panic.
        assert!(merge.on_line("{\"method\":\"cell\"}").is_err());
        assert!(merge.on_line("not json").is_err());
    }

    #[test]
    fn coordinator_marks_unreported_cells_as_crashed() {
        let plan = small_plan();
        let mut merge = MergeState::new(&plan, Scale::Test);
        assert_eq!(merge.missing().len(), plan.cells().len());
        merge.fail(2, FailureCause::Panic("endpoint crashed".into()), 1);
        assert!(!merge.missing().contains(&2));
        let run = merge.finish(&plan, ShardStats::default(), true);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].cell, plan.cells()[2]);
        assert_eq!(run.stats.failed_cells, 1);
        assert!(run.failures[0].cause.retryable());
    }

    #[test]
    fn worker_streams_exactly_the_assigned_cells() {
        // One group of the full run_all plan, through the endpoint entry
        // points (`parse_shard_params` + `execute_shard`) with an
        // in-memory sink instead of a socket.
        let plan = run_all_plan();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        let indices = partition(&plan, &all, 8)[0].clone();
        assert!(!indices.is_empty());
        let req = shard_request(
            ("run_all", DEFAULT_PLANE),
            Scale::Test,
            &indices,
            &[],
            &det_config(),
            &FaultPlan::none(),
        );
        let job = parse_shard_params(req.get("params").unwrap()).unwrap();
        let mut lines = Vec::new();
        execute_shard(&job, &Json::UInt(0), &mut |doc| {
            lines.push(doc.to_string_compact());
            Ok(())
        })
        .unwrap();
        let mut merge = MergeState::new(&plan, Scale::Test);
        let mut done = false;
        for line in &lines {
            if let WireLine::Done(_) = merge.on_line(line).unwrap() {
                done = true;
            }
        }
        assert!(done, "a shard must end with the final envelope");
        let completed: Vec<usize> = merge.completed().keys().copied().collect();
        assert_eq!(completed, indices);

        // A malformed request is rejected before anything executes.
        assert!(parse_shard_params(&Json::parse(r#"{"plan":"nope"}"#).unwrap()).is_err());
    }

    #[test]
    fn every_registry_plan_round_trips_through_the_shard_request() {
        for e in crate::plan::PLANS {
            for knobs in [DEFAULT_PLANE, (2, 2, 0.0), (1, 0, 2.0)] {
                let plan = crate::plan::by_name(e.name, knobs).unwrap();
                let last = plan.cells().len() - 1;
                let req = shard_request(
                    (e.name, knobs),
                    Scale::Test,
                    &[0, last],
                    &[],
                    &det_config(),
                    &FaultPlan::none(),
                );
                let job = parse_shard_params(req.get("params").unwrap()).unwrap();
                assert_eq!(job.plan.cells(), plan.cells(), "{} {knobs:?}", e.name);
                assert_eq!(job.indices, vec![0, last]);
            }
        }
        let err = parse_shard_params(
            &Json::parse(r#"{"plan":"nope","scale":"test","cells":[]}"#).unwrap(),
        )
        .err()
        .unwrap();
        assert!(
            err.contains("unknown plan") && err.contains("reload_sweep"),
            "{err}"
        );
    }

    #[test]
    fn config_plane_knobs_ride_the_shard_request() {
        let knobs = (2, 2, 0.0);
        let req = shard_request(
            ("run_all", knobs),
            Scale::Test,
            &[1],
            &[],
            &det_config(),
            &FaultPlan::none(),
        );
        let job = parse_shard_params(req.get("params").unwrap()).unwrap();
        let expected = crate::plan::by_name("run_all", knobs).unwrap();
        assert_eq!(job.plan.cells(), expected.cells());
        assert_ne!(
            job.plan.cells(),
            crate::plan::by_name("run_all", DEFAULT_PLANE)
                .unwrap()
                .cells(),
            "knobs must reach the endpoint's plan"
        );
        // Knobs outside the machine model are typed request errors.
        for (key, bad) in [
            ("pfu_planes", Json::UInt(3)),
            ("pfu_prefetch", Json::Int(-1)),
            ("conf_compress", Json::Float(-1.0)),
        ] {
            let mut params = req.get("params").unwrap().clone();
            if let Json::Obj(pairs) = &mut params {
                pairs.retain(|(k, _)| k != key);
                pairs.push((key.to_string(), bad));
            }
            assert!(parse_shard_params(&params).is_err(), "{key} accepted");
        }
    }

    #[test]
    fn merge_rejects_a_document_from_a_different_machine() {
        // An endpoint that built the default-machine plan streams a
        // consistent, checksum-true document for a cell the coordinator
        // planned with config-plane knobs: the merge must refuse it.
        let plan = small_plan();
        let knobbed = plan.clone().with_config_plane((2, 2, 0.0));
        let run = execute_with(&plan, Scale::Test, &det_config());
        let target = &run.cells[1]; // a fused (non-baseline) cell
        let gi = plan.cells().iter().position(|&c| c == target.cell).unwrap();
        assert_eq!(knobbed.cells()[gi].workload, target.cell.workload);
        assert_ne!(knobbed.cells()[gi].machine, target.cell.machine);

        let line = cell_event(gi, target).to_string_compact();
        let mut merge = MergeState::new(&knobbed, Scale::Test);
        let err = merge.on_line(&line).unwrap_err();
        assert!(err.contains("machine"), "{err}");
        assert!(merge.missing().contains(&gi));
        // The same line is accepted against the plan it was run for.
        let mut merge = MergeState::new(&plan, Scale::Test);
        assert!(matches!(merge.on_line(&line).unwrap(), WireLine::Cell));
    }

    #[test]
    fn over_long_remote_lines_fail_the_dispatch() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // No newline, ever: the reader must give up at the cap rather
            // than buffer without bound.
            let chunk = vec![b'x'; 64 * 1024];
            while peer.write_all(&chunk).is_ok() {}
        });
        let mut reader = RemoteReader::new(TcpStream::connect(addr).unwrap()).unwrap();
        let err = reader
            .read_line(Duration::from_secs(30), false)
            .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        drop(reader);
        writer.join().unwrap();
    }

    #[test]
    fn net_backoff_is_deterministic_capped_and_jittered() {
        let retry = RetryPolicy::default();
        assert_eq!(net_backoff(&retry, 0, 1), Duration::ZERO);
        for shard in 0..4 {
            for attempt in 2..10 {
                let a = net_backoff(&retry, shard, attempt);
                let b = net_backoff(&retry, shard, attempt);
                assert_eq!(a, b, "same inputs must wait identically");
                // Cap 2 s + jitter ≤ half the capped base.
                assert!(a <= Duration::from_millis(3_000), "{a:?}");
                assert!(a > Duration::ZERO);
            }
        }
        // Jitter decorrelates shards: not every shard waits the same.
        let waits: HashSet<Duration> = (0..8).map(|s| net_backoff(&retry, s, 3)).collect();
        assert!(waits.len() > 1, "jitter must vary across shards");
        // A flat --backoff-ms override feeds the exponential base.
        let flat = RetryPolicy {
            backoff_override_ms: Some(4),
            ..RetryPolicy::default()
        };
        assert!(net_backoff(&flat, 0, 2) >= Duration::from_millis(4));
    }

    #[test]
    fn retry_policy_rides_the_shard_request() {
        let tuned = EngineConfig {
            retry: RetryPolicy {
                max_attempts: 5,
                backoff_override_ms: Some(7),
                ..RetryPolicy::default()
            },
            ..det_config()
        };
        let req = shard_request(
            ("run_all", DEFAULT_PLANE),
            Scale::Test,
            &[0],
            &[],
            &tuned,
            &FaultPlan::none(),
        );
        let job = parse_shard_params(req.get("params").unwrap()).unwrap();
        assert_eq!(job.config.retry.max_attempts, 5);
        assert_eq!(job.config.retry.backoff_override_ms, Some(7));
        // A request without the fields (an older coordinator) gets the
        // defaults — backoff_ms 0 on the wire means "default schedule".
        let req = shard_request(
            ("run_all", DEFAULT_PLANE),
            Scale::Test,
            &[0],
            &[],
            &det_config(),
            &FaultPlan::none(),
        );
        let job = parse_shard_params(req.get("params").unwrap()).unwrap();
        assert_eq!(job.config.retry, RetryPolicy::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // Merge accounting never loses or double-counts a cell, whatever
        // the transport does: each shard's stream may arrive whole, be
        // cut after its first cell (netdrop), vanish entirely (connect
        // refusal / stall), or be delivered twice (a retry racing its
        // supposedly-dead predecessor). Healing by re-delivering whatever
        // is still missing always converges on the byte-identical
        // artifact — the invariant the degradation ladder leans on.
        #[test]
        fn merge_accounting_survives_arbitrary_transport_faults(
            outcomes in prop::collection::vec(0u8..4, 3)
        ) {
            let plan = small_plan();
            let run = execute_with(&plan, Scale::Test, &det_config());
            prop_assert!(run.failures.is_empty());
            let reference = to_json(&run).to_string_pretty();
            let global_cell: HashMap<Cell, usize> = plan
                .cells()
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i))
                .collect();
            let cell_lines: BTreeMap<usize, String> = run
                .cells
                .iter()
                .map(|c| (global_cell[&c.cell], cell_event(global_cell[&c.cell], c).to_string_compact()))
                .collect();
            let global_selection: HashMap<_, usize> = engine::selection_keys(&plan)
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, i))
                .collect();
            let sel_lines: BTreeMap<usize, String> = run
                .selections
                .iter()
                .map(|s| {
                    let k = global_selection[&(s.workload, s.extract, s.spec)];
                    (k, selection_event(k, s).to_string_compact())
                })
                .collect();

            let all: Vec<usize> = (0..plan.cells().len()).collect();
            let all_keys: Vec<usize> = (0..sel_lines.len()).collect();
            let parts = partition(&plan, &all, 3);
            let key_parts = partition_selections(&plan, &all_keys, 3);

            let mut merge = MergeState::new(&plan, Scale::Test);
            for (shard, &outcome) in outcomes.iter().enumerate() {
                let deliveries = if outcome == 3 { 2 } else { 1 };
                for _ in 0..deliveries {
                    if outcome == 2 {
                        continue; // total loss: nothing arrives
                    }
                    for &k in &key_parts[shard] {
                        merge.on_line(&sel_lines[&k]).unwrap();
                    }
                    for (n, &gi) in parts[shard].iter().enumerate() {
                        merge.on_line(&cell_lines[&gi]).unwrap();
                        if outcome == 1 && n == 0 {
                            break; // stream cut after the first cell
                        }
                    }
                }
            }
            // Heal: exactly what the ladder re-dispatches.
            for gi in merge.missing() {
                merge.on_line(&cell_lines[&gi]).unwrap();
            }
            for k in merge.missing_selections() {
                merge.on_line(&sel_lines[&k]).unwrap();
            }
            prop_assert_eq!(merge.completed().len(), plan.cells().len());
            let healed = merge.finish(&plan, ShardStats::default(), true);
            prop_assert_eq!(to_json(&healed).to_string_pretty(), reference);
        }
    }

    #[test]
    fn fault_arms_are_localized_per_shard() {
        let plan = small_plan();
        let all: Vec<usize> = (0..plan.cells().len()).collect();
        let parts = partition(&plan, &all, 2);
        // One global arm per shard: each endpoint sees exactly its own,
        // renumbered to its sub-plan.
        let g0 = parts[0][1]; // a non-baseline-first index on shard 0
        let g1 = parts[1][0];
        let faults = FaultPlan::parse(&format!("pfu@{g0},abort@{g1}")).unwrap();
        let f0 = local_faults(&faults, plan.cells(), &parts[0]);
        let f1 = local_faults(&faults, plan.cells(), &parts[1]);
        assert_eq!(f0.render(), "pfu@1");
        assert_eq!(f1.render(), "abort@0");
    }
}
