//! The one request vocabulary and the one call that answers it.
//! `picpredict`'s replaying commands and the service's JSON endpoints ask
//! the same question — a grid of (mapping, ranks, filter, stride) points
//! over one mesh, order, machine and sync mode, optionally SimPoint-reduced:
//!
//! * [`admit`] holds a request's keys to the list its command or endpoint
//!   accepts (a key not on it, a key given twice or a required key left out
//!   is refused on both transports);
//! * [`Request::parse`] is the one field table: flag text (a list
//!   comma-separated) or a JSON value (a list as an array) parses into the
//!   request through the `FromStr` of the type that owns each name, an error
//!   names the key as its transport spells it (`--ranks`, `"ranks"`), and
//!   every front-end admission rule runs once; [`Request::default`] is the
//!   only place a default is written;
//! * [`answer`] replays, gates and predicts the request against what the
//!   front end resolved, for every command and endpoint alike; the front
//!   ends differ only in how they render its [`Answer`].
//!
//! The grid expansion (mapping-major) and its serialization live here too,
//! so `POST /sweep` answers byte for byte what `picpredict sweep --out`
//! writes.

use crate::pipeline::{predict_grid, PredictSpec, Prediction};
use crate::serve::http::json_escape;
use crate::simpoint::replay_reduced_gated;
use crate::KernelModels;
use pic_analysis::{ReductionBudget, ReductionReport, WorkloadViolation};
use pic_des::{MachineSpec, SyncMode};
use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_trace::ParticleTrace;
use pic_types::{Aabb, PicError, Result};
use pic_workload::{
    AssignmentCache, DynamicWorkload, PrettyJson, ReductionPlan, ReplayOptions, SweepPoint,
    SweepStats, WorkloadConfig,
};
use serde::{Serialize, Value};
use std::str::FromStr;

/// What `picpredict`'s replaying commands (`workload`, `predict`, `study`,
/// `sweep`, `simpoint`) and the service's `/sweep`, `/predict` and `/check`
/// are asked: the union of the keys they read. Each front end reads the
/// fields its keys set; the others keep their defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The grid axes: `ranks`, `mapping`/`mappings`, `filter`/`filters`,
    /// `strides` and `ghosts`.
    pub grid: SweepGridSpec,
    /// Element mesh dims (`mesh`, `AxBxC`) over the trace's domain.
    pub mesh: Option<MeshDims>,
    /// Element order `N` (`order`).
    pub order: usize,
    /// Target machine (`machine`: a preset, or on the command line a
    /// machine JSON file).
    pub machine: MachineSpec,
    /// Synchronization semantics between steps (`sync`).
    pub sync: SyncMode,
    /// Replay SimPoint representatives instead of every sample
    /// (`reduced`).
    pub reduced: bool,
    /// Cluster count of the reduction (`k`, `reduced_k`); `None` selects
    /// it automatically.
    pub k: Option<usize>,
    /// Peak-load holdout error budget of the reduction (`budget`,
    /// `reduced_budget`); `None` is `pic_analysis::ReductionBudget`'s.
    pub budget: Option<f64>,
}

impl Default for Request {
    fn default() -> Request {
        Request {
            grid: SweepGridSpec {
                mappings: vec![MappingAlgorithm::BinBased],
                ranks: Vec::new(),
                filters: vec![0.03],
                strides: vec![1],
                compute_ghosts: true,
            },
            mesh: None,
            order: 3,
            machine: MachineSpec::quartz_like(),
            sync: SyncMode::BulkSynchronous,
            reduced: false,
            k: None,
            budget: None,
        }
    }
}

/// How a front end spells a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `picpredict` flags: `--ranks`.
    Flags,
    /// A service request body: `"ranks"`.
    Json,
}

impl Transport {
    fn spell(self, key: &str) -> String {
        match self {
            Transport::Flags => format!("--{key}"),
            Transport::Json => format!("\"{key}\""),
        }
    }
}

/// The value of a key as its transport gives it.
#[derive(Debug, Clone, Copy)]
pub enum Raw<'a> {
    /// Flag text; a list is comma-separated.
    Text(&'a str),
    /// A JSON value; a list is an array.
    Json(&'a Value),
}

impl Raw<'_> {
    fn spell(self, key: &str) -> String {
        match self {
            Raw::Text(_) => Transport::Flags.spell(key),
            Raw::Json(_) => Transport::Json.spell(key),
        }
    }
}

/// The keys `command` accepts — a `picpredict` command (a `study` kind as
/// `study bins`) or a service endpoint — as `(key, list, required)`: `*`
/// marks a key that takes a list, `!` one a request is refused without.
/// `None` for a command that does not exist. The CLI's global `--threads`
/// is every command's.
fn keys(command: &str) -> Option<impl Iterator<Item = (&'static str, bool, bool)>> {
    let keys = match command {
        "run" => "config trace records precision",
        "default-config" => "",
        "info" => "trace",
        "check" => "workload particles trace models",
        "workload" => "trace ranks! mapping! filter stream mesh order out",
        "benchmark" => "out wallclock order filter",
        "fit" => "records out strategy",
        "predict" => "trace models ranks*! mapping* machine sync filter* mesh order",
        "extrapolate" => "trace out particles seed",
        "study scalability" => "trace ranks*! mapping filter mesh order",
        "study bins" => "trace filter",
        "study sampling" => "trace ranks! mapping filter mesh order strides*",
        "sweep" => "trace ranks*! mappings* filters* strides* ghosts stream mesh order out",
        "simpoint" => {
            "trace ranks! mapping! filter mesh order k k-max seed bins features budget holdout \
             plan-out out"
        }
        "compact" => "trace out precision",
        "serve" => "addr budget-mb read-timeout-ms max-body-mb",
        "/sweep" => {
            "trace! ranks*! mappings* filters* strides* ghosts mesh order reduced reduced_k \
             reduced_budget"
        }
        "/predict" => "trace! models! ranks! mapping filters* machine sync mesh order",
        "/check" => "trace! ranks! mapping filters* mesh order",
        _ => return None,
    };
    Some(keys.split_whitespace().map(|key| {
        let required = key.ends_with('!');
        let key = key.trim_end_matches('!');
        (key.trim_end_matches('*'), key.ends_with('*'), required)
    }))
}

/// The endpoints that answer one grid point although their `filters` key
/// takes a list: it must hold exactly one filter.
const ONE_POINT: [&str; 2] = ["/predict", "/check"];

/// Hold `given`, the keys and values a request names in the order it
/// names them, to the keys `command` accepts: a key not on its list, a key
/// given twice, or a required key left out is a configuration error naming
/// the key the way `transport` spells it — though a value of a repeated
/// key that does not parse is reported first. A command that does not
/// exist admits anything; its dispatcher refuses it.
pub fn admit(command: &str, given: &[(&str, Raw)], transport: Transport) -> Result<()> {
    let Some(keys) = keys(command) else {
        return Ok(());
    };
    let keys: Vec<_> = keys.collect();
    let noun = match transport {
        Transport::Flags => "flag",
        Transport::Json => "key",
    };
    let refuse = |what: &str, key: &str| {
        let key = transport.spell(key);
        Err(PicError::config(format!(
            "{what} {noun} {key} for '{command}'"
        )))
    };
    let known = |key: &str| keys.iter().find(|k| k.0 == key);
    let global = |key: &str| transport == Transport::Flags && key == "threads";
    let unknown = given
        .iter()
        .map(|g| g.0)
        .filter(|&key| known(key).is_none() && !global(key));
    if let Some(key) = unknown.min() {
        return refuse("unknown", key);
    }
    let repeated = (given.iter().enumerate()).find(|&(i, g)| given[..i].iter().any(|h| h.0 == g.0));
    if let Some((_, &(key, _))) = repeated {
        for &(_, raw) in given.iter().filter(|g| g.0 == key) {
            let list = known(key).is_some_and(|k| k.1);
            Request::default().set(key, raw, list)?;
        }
        return refuse("repeated", key);
    }
    match (keys.iter()).find(|k| k.2 && !given.iter().any(|g| g.0 == k.0)) {
        Some(&(key, ..)) => refuse("missing required", key),
        None => Ok(()),
    }
}

impl Request {
    /// The request `command` names, its keys already [`admit`]ted: each of
    /// its keys that is a request field parsed from `value` (`None` for a
    /// key not given), then every front-end admission rule. The other keys
    /// (`trace`, `models`, `out`, …) are the front end's.
    pub fn parse<'a>(command: &str, value: impl Fn(&str) -> Option<Raw<'a>>) -> Result<Request> {
        let keys = keys(command)
            .ok_or_else(|| PicError::config(format!("unknown command '{command}'")))?;
        let mut request = Request::default();
        for (key, list, _) in keys {
            if let Some(raw) = value(key) {
                request.set(key, raw, list)?;
            }
        }
        request.validate(ONE_POINT.contains(&command))?;
        Ok(request)
    }

    /// The field table: `raw`, the value of `key` (a list if `list` is
    /// set), parsed into the request. A key that is no request field is
    /// left alone.
    fn set(&mut self, key: &str, raw: Raw, list: bool) -> Result<()> {
        match key {
            "ranks" => self.grid.ranks = values(key, raw, list, integer)?,
            "mapping" | "mappings" => self.grid.mappings = values(key, raw, list, named)?,
            "filter" | "filters" => self.grid.filters = values(key, raw, list, number)?,
            "strides" => self.grid.strides = values(key, raw, list, integer)?,
            "ghosts" => self.grid.compute_ghosts = boolean(key, raw)?,
            "mesh" => self.mesh = optional(key, raw, named)?,
            "order" => self.order = integer(key, raw)?,
            "machine" => self.machine = machine(key, raw)?,
            "sync" => self.sync = named(key, raw)?,
            "reduced" => self.reduced = boolean(key, raw)?,
            "k" | "reduced_k" => self.k = optional(key, raw, integer)?,
            "budget" | "reduced_budget" => self.budget = optional(key, raw, number)?,
            _ => {}
        }
        Ok(())
    }

    /// Every front-end admission rule, once: a one-point endpoint's single
    /// filter, a value on every grid axis, stride 1 under reduction, the
    /// mesh dims and order [`ElementMesh::new`] accepts — checked whether or
    /// not a mesh is given, so an order means the same on every request —
    /// and the machine [`MachineSpec::validate`] accepts. What the replay
    /// engine refuses (zero or unholdable ranks, filters that are not
    /// finite and positive, stride 0) it refuses for every caller.
    fn validate(&self, one_point: bool) -> Result<()> {
        let grid = &self.grid;
        if one_point && grid.filters.len() != 1 {
            return Err(PicError::config(format!(
                "expected exactly one filter, got {}",
                grid.filters.len()
            )));
        }
        for (name, empty) in [
            ("mappings", grid.mappings.is_empty()),
            ("ranks", grid.ranks.is_empty()),
            ("filters", grid.filters.is_empty()),
            ("strides", grid.strides.is_empty()),
        ] {
            if empty {
                return Err(PicError::config(format!(
                    "sweep grid axis '{name}' is empty"
                )));
            }
        }
        if self.reduced && grid.strides.iter().any(|&s| s > 1) {
            return Err(PicError::config(
                "reduced replay serves stride 1 only (strided reconstruction is unguarded)",
            ));
        }
        let dims = self.mesh.unwrap_or(MeshDims::cube(1));
        ElementMesh::new(Aabb::unit(), dims, self.order).map_err(|e| match (self.mesh, e) {
            (Some(_), PicError::Config(message)) => {
                PicError::config(format!("bad mesh: {message}"))
            }
            (_, e) => e,
        })?;
        self.machine.validate()
    }

    /// The request's element mesh over `domain`; `None` without a mesh.
    pub fn element_mesh(&self, domain: Aabb) -> Result<Option<ElementMesh>> {
        element_mesh(domain, self.mesh, self.order)
    }

    /// One [`PredictSpec`] per grid point, in grid order, each sharing the
    /// request's mesh, order, machine and sync mode: what `picpredict
    /// predict` and `/predict` answer.
    pub fn specs(&self) -> Vec<PredictSpec> {
        (self.grid.points().iter())
            .map(|p| PredictSpec {
                ranks: p.config.ranks,
                mapping: p.config.mapping,
                filter: p.config.projection_filter,
                mesh: self.mesh,
                order: self.order,
                machine: self.machine.clone(),
                sync: self.sync,
            })
            .collect()
    }
}

/// What a front end resolved for a request: the trace it names, and the
/// kernel models, the trace's assignment cache and the reduction plan it
/// holds for it.
pub struct Resident<'a> {
    /// The trace the request names.
    pub trace: &'a ParticleTrace,
    /// Kernel models, which a prediction needs.
    pub models: Option<&'a KernelModels>,
    /// Assignment artifacts shared with other requests against the trace.
    pub cache: Option<&'a AssignmentCache>,
    /// Replay one representative per phase of this plan, behind the holdout
    /// gate.
    pub plan: Option<&'a ReductionPlan>,
    /// Samples that gate replays exactly; `None` is [`ReductionBudget`]'s.
    pub holdout: Option<usize>,
}

/// What [`answer`] returns, each with one JSON rendering
/// ([`Answer::to_json`]).
pub enum Answer {
    /// A replayed grid, gated, with what the replay shared and ran and, for
    /// a reduced replay, one holdout report per point (none otherwise).
    Grid {
        /// The points and their workloads, in grid order.
        entries: Vec<SweepGridEntry>,
        /// The replay's sharing accounting.
        stats: SweepStats,
        /// The holdout gate's reports.
        reports: Vec<ReductionReport>,
    },
    /// One prediction per grid point, in grid order.
    Predictions(Vec<Prediction>),
    /// The one point's workload, ungated, and the invariants it violates.
    Checked(DynamicWorkload, Vec<WorkloadViolation>),
}

impl Answer {
    /// The answer as JSON: a grid as [`grid_to_json`] writes it, each
    /// prediction's `Display` on a line of its own, a check as one object.
    pub fn to_json(&self) -> String {
        match self {
            Answer::Grid { entries, .. } => grid_to_json(entries),
            Answer::Predictions(predictions) => {
                let lines: Vec<String> = predictions.iter().map(Prediction::to_string).collect();
                lines.join("\n")
            }
            Answer::Checked(workload, violations) => {
                let rendered: Vec<String> = (violations.iter())
                    .map(|v| json_escape(&v.to_string()))
                    .collect();
                format!(
                    "{{\"ok\":{},\"ranks\":{},\"samples\":{},\"violations\":[{}]}}",
                    violations.is_empty(),
                    workload.ranks,
                    workload.samples(),
                    rendered.join(",")
                )
            }
        }
    }
}

/// Answer `request` as `command` — a `picpredict` command or a service
/// endpoint — asks it, against what the front end resolved, through the
/// resident assignment cache if there is one:
///
/// * `predict` and `/predict`: [`predict_grid`] over [`Request::specs`];
/// * `/check`: the one point replayed and held to the invariant catalog;
/// * `workload`, `sweep`, `/sweep`, `simpoint` and the `study` kinds that
///   replay a grid: every point replayed and gated — a full replay on the
///   invariant catalog, one reduced by the resident plan on the holdout
///   error budget ([`pic_analysis::assert_reduction_valid`]).
///
/// A gate that fails is a [`PicError::ModelFit`].
pub fn answer(command: &str, request: &Request, resident: &Resident) -> Result<Answer> {
    let trace = resident.trace;
    if let "predict" | "/predict" = command {
        let models = (resident.models)
            .ok_or_else(|| PicError::config(format!("'{command}' needs kernel models")))?;
        let predictions = predict_grid(trace, models, &request.specs(), resident.cache)?;
        return Ok(Answer::Predictions(predictions));
    }
    let particles = Some(trace.particle_count() as u64);
    let mesh = request.element_mesh(trace.meta().domain)?;
    let points = request.grid.points();
    let full = ReplayOptions::new(mesh.as_ref(), resident.cache, None);
    match command {
        "/check" => {
            let workload = pic_workload::replay(trace, &points, &full)?.0.remove(0);
            let violations = pic_analysis::check_workload(&workload, particles);
            Ok(Answer::Checked(workload, violations))
        }
        "workload" | "sweep" | "/sweep" | "simpoint" | "study scalability" | "study sampling" => {
            let (workloads, stats, reports) = match resident.plan {
                Some(plan) => {
                    let default = ReductionBudget::default();
                    let budget = ReductionBudget {
                        max_peak_rel_error: request.budget.unwrap_or(default.max_peak_rel_error),
                        holdout: resident.holdout.unwrap_or(default.holdout),
                        ..default
                    };
                    let (mesh, cache) = (mesh.as_ref(), resident.cache);
                    replay_reduced_gated(trace, &points, mesh, cache, plan, &budget)?
                }
                None => {
                    let (workloads, stats) = pic_workload::replay(trace, &points, &full)?;
                    pic_analysis::assert_sweep_valid(&workloads, particles)?;
                    (workloads, stats, Vec::new())
                }
            };
            let entries = grid_entries(&points, workloads);
            Ok(Answer::Grid {
                entries,
                stats,
                reports,
            })
        }
        _ => Err(PicError::config(format!(
            "'{command}' is not answered by a replay"
        ))),
    }
}

/// The element mesh `dims` at `order` over `domain`; `None` without dims.
/// Every front end and [`crate::predict`] build their mesh here.
pub(crate) fn element_mesh(
    domain: Aabb,
    dims: Option<MeshDims>,
    order: usize,
) -> Result<Option<ElementMesh>> {
    dims.map(|dims| ElementMesh::new(domain, dims, order))
        .transpose()
}

/// The values of `key`: each entry of a list (comma-separated text, a JSON
/// array) if `list` is set, else the one value, parsed by `parse`.
fn values<T>(key: &str, raw: Raw, list: bool, parse: Parse<T>) -> Result<Vec<T>> {
    match raw {
        Raw::Text(s) if list => s
            .split(',')
            .map(|p| parse(key, Raw::Text(p.trim())))
            .collect(),
        Raw::Json(Value::Array(items)) if list => {
            items.iter().map(|v| parse(key, Raw::Json(v))).collect()
        }
        Raw::Json(_) if list => refuse(key, raw, "a list"),
        raw => Ok(vec![parse(key, raw)?]),
    }
}

/// How one value of a key parses.
type Parse<T> = fn(&str, Raw) -> Result<T>;

/// The error for a value of `key` that is not `what`, quoting the value.
fn refuse<T>(key: &str, raw: Raw, what: &str) -> Result<T> {
    let shown = match raw {
        Raw::Text(s) => s.to_string(),
        Raw::Json(Value::Str(s)) => s.clone(),
        Raw::Json(v) => serde_json::to_string(v).unwrap_or_default(),
    };
    let key = raw.spell(key);
    Err(PicError::config(format!(
        "{key} must be {what}, got '{shown}'"
    )))
}

/// A scalar: flag text through `FromStr`, a JSON value through `json`.
fn scalar<T: FromStr>(key: &str, raw: Raw, what: &str, json: fn(&Value) -> Option<T>) -> Result<T> {
    let value = match raw {
        Raw::Text(s) => s.parse().ok(),
        Raw::Json(v) => json(v),
    };
    value.map_or_else(|| refuse(key, raw, what), Ok)
}

fn integer(key: &str, raw: Raw) -> Result<usize> {
    scalar(key, raw, "an integer", |v| v.as_u64()?.try_into().ok())
}

fn number(key: &str, raw: Raw) -> Result<f64> {
    scalar(key, raw, "a number", Value::as_f64)
}

/// `true` or `false`; on the command line a flag given last with no value
/// is `true`.
fn boolean(key: &str, raw: Raw) -> Result<bool> {
    match raw {
        Raw::Text("") => Ok(true),
        raw => scalar(key, raw, "true or false", Value::as_bool),
    }
}

/// A name: flag text, or a JSON string.
fn name<'a>(key: &str, raw: Raw<'a>) -> Result<&'a str> {
    match raw {
        Raw::Text(s) => Ok(s),
        Raw::Json(Value::Str(s)) => Ok(s),
        Raw::Json(_) => refuse(key, raw, "a name"),
    }
}

/// A name in the vocabulary of the type that owns it (mapping, sync mode,
/// mesh dims); the type's error, prefixed with the key.
fn named<T: FromStr<Err = PicError>>(key: &str, raw: Raw) -> Result<T> {
    name(key, raw)?.parse().map_err(|e| match e {
        PicError::Config(message) => PicError::config(format!("{}: {message}", raw.spell(key))),
        e => e,
    })
}

/// `parse`d, or `None` for a JSON `null`.
fn optional<T>(key: &str, raw: Raw, parse: Parse<T>) -> Result<Option<T>> {
    match raw {
        Raw::Json(Value::Null) => Ok(None),
        raw => parse(key, raw).map(Some),
    }
}

/// A machine preset by name ([`MachineSpec::preset`]), or on the command
/// line, failing that, a machine JSON file. The service reads no files.
fn machine(key: &str, raw: Raw) -> Result<MachineSpec> {
    let name = name(key, raw)?;
    if let Some(preset) = MachineSpec::preset(name) {
        return Ok(preset);
    }
    if let Raw::Json(_) = raw {
        let message = format!("unknown machine '{name}' (the service accepts presets only)");
        return Err(PicError::config(message));
    }
    let text = std::fs::read_to_string(name).map_err(|e| {
        PicError::config(format!(
            "machine '{name}' is not a preset and not a readable file: {e}"
        ))
    })?;
    serde_json::from_str(&text)
        .map_err(|e| PicError::config(format!("bad machine JSON in {name}: {e}")))
}

/// A cross-product sweep grid: every `(mapping, ranks, filter, stride)`
/// combination, expanded mapping-major, then ranks, filter, stride — the
/// order `picpredict sweep` has always printed and written.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGridSpec {
    /// Mapping algorithms to evaluate.
    pub mappings: Vec<MappingAlgorithm>,
    /// Rank counts to evaluate.
    pub ranks: Vec<usize>,
    /// Projection-filter radii to evaluate.
    pub filters: Vec<f64>,
    /// Sampling strides to evaluate.
    pub strides: Vec<usize>,
    /// Whether grid points compute ghost matrices.
    pub compute_ghosts: bool,
}

impl SweepGridSpec {
    fn len(&self) -> usize {
        self.mappings.len() * self.ranks.len() * self.filters.len() * self.strides.len()
    }

    /// Expand to sweep points in the canonical order.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        for &mapping in &self.mappings {
            for &ranks in &self.ranks {
                for &filter in &self.filters {
                    for &stride in &self.strides {
                        let mut cfg = WorkloadConfig::new(ranks, mapping, filter);
                        cfg.compute_ghosts = self.compute_ghosts;
                        points.push(SweepPoint::with_stride(cfg, stride));
                    }
                }
            }
        }
        points
    }
}

/// One emitted grid point: the configuration alongside its full workload.
/// Its derived `Serialize` is the oracle [`grid_to_json`] is tested against.
#[derive(Serialize)]
pub struct SweepGridEntry {
    /// Index of this point in the grid's canonical order.
    pub point: usize,
    /// Mapping algorithm of the point.
    pub mapping: MappingAlgorithm,
    /// Rank count of the point.
    pub ranks: usize,
    /// Projection-filter radius of the point.
    pub projection_filter: f64,
    /// Sampling stride of the point.
    pub stride: usize,
    /// The generated workload.
    pub workload: DynamicWorkload,
}

/// Pair grid points with their generated workloads, in grid order.
pub fn grid_entries(points: &[SweepPoint], workloads: Vec<DynamicWorkload>) -> Vec<SweepGridEntry> {
    points
        .iter()
        .zip(workloads)
        .enumerate()
        .map(|(point, (p, workload))| SweepGridEntry {
            point,
            mapping: p.config.mapping,
            ranks: p.config.ranks,
            projection_filter: p.config.projection_filter,
            stride: p.stride,
            workload,
        })
        .collect()
}

/// The canonical serialized grid — the bytes `picpredict sweep --out`
/// writes and `POST /sweep` returns: `serde_json::to_string_pretty` of the
/// entries' derived `Serialize`, written straight to text by the workload
/// renderer ([`DynamicWorkload::write_json`]).
pub fn grid_to_json(entries: &[SweepGridEntry]) -> String {
    let mut w = PrettyJson::default();
    w.begin_array();
    for e in entries {
        w.begin_object();
        w.key("point");
        w.uint(e.point as u64);
        w.key("mapping");
        w.string(&e.mapping.to_string());
        w.key("ranks");
        w.uint(e.ranks as u64);
        w.key("projection_filter");
        w.float(e.projection_filter);
        w.key("stride");
        w.uint(e.stride as u64);
        w.key("workload");
        e.workload.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_mapping_major_cross_product() {
        let spec = SweepGridSpec {
            mappings: vec![MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased],
            ranks: vec![16, 32],
            filters: vec![0.01, 0.02],
            strides: vec![1],
            compute_ghosts: true,
        };
        assert_eq!(spec.len(), 8);
        let points = spec.points();
        assert_eq!(points.len(), 8);
        assert!(points[..4]
            .iter()
            .all(|p| p.config.mapping == MappingAlgorithm::ElementBased));
        assert!(points[4..]
            .iter()
            .all(|p| p.config.mapping == MappingAlgorithm::BinBased));
        assert_eq!(points[0].config.ranks, 16);
        assert_eq!(points[1].config.projection_filter, 0.02);
        assert_eq!(points[2].config.ranks, 32);
        assert!(points
            .iter()
            .all(|p| p.stride == 1 && p.config.compute_ghosts));
        let no_ghosts = SweepGridSpec {
            mappings: vec![MappingAlgorithm::BinBased],
            ranks: vec![4],
            filters: vec![0.1],
            strides: vec![2],
            compute_ghosts: false,
        };
        let pts = no_ghosts.points();
        assert!(!pts[0].config.compute_ghosts);
        assert_eq!(pts[0].stride, 2);
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut request = Request {
            grid: SweepGridSpec {
                mappings: vec![MappingAlgorithm::BinBased],
                ranks: vec![4],
                filters: vec![0.1],
                strides: vec![1],
                compute_ghosts: true,
            },
            ..Request::default()
        };
        assert!(request.validate(false).is_ok());
        request.grid.ranks.clear();
        assert!(request.validate(false).is_err());
        assert!(request.grid.points().is_empty());
    }

    fn flags<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<Raw<'a>> {
        move |key| (pairs.iter()).find(|p| p.0 == key).map(|p| Raw::Text(p.1))
    }

    fn json(body: &str) -> Value {
        serde_json::from_str(body).unwrap()
    }

    fn parse_json(command: &str, body: &Value) -> Result<Request> {
        let fields = body.as_map().unwrap();
        Request::parse(command, |key| serde::find_key(fields, key).map(Raw::Json))
    }

    /// One key list per command and endpoint: a key not on it, a key given
    /// twice and a required key left out are refused on both transports,
    /// each named the way the transport spells it.
    #[test]
    fn admission_refuses_unknown_repeated_and_missing_keys() {
        let one = Value::UInt(1);
        let admits = |command: &str, keys: &[&str], transport| {
            let raw = |_| match transport {
                Transport::Flags => Raw::Text("1"),
                Transport::Json => Raw::Json(&one),
            };
            let given: Vec<_> = keys.iter().map(|&key| (key, raw(key))).collect();
            admit(command, &given, transport)
        };
        let flags = Transport::Flags;
        admits("predict", &["trace", "ranks", "threads"], flags).unwrap();
        let cases = [
            (
                "predict",
                &["ranks", "filtr"][..],
                flags,
                "unknown flag --filtr",
            ),
            (
                "predict",
                &["ranks", "ranks"],
                flags,
                "repeated flag --ranks",
            ),
            (
                "predict",
                &["ranks", "threads", "threads"],
                flags,
                "repeated flag --threads",
            ),
            (
                "predict",
                &["mapping"],
                flags,
                "missing required flag --ranks",
            ),
            (
                "workload",
                &["ranks"],
                flags,
                "missing required flag --mapping",
            ),
            (
                "/sweep",
                &["trace", "ranks", "filter"],
                Transport::Json,
                "unknown key \"filter\"",
            ),
            (
                "/check",
                &["trace", "ranks", "ranks"],
                Transport::Json,
                "repeated key \"ranks\"",
            ),
            (
                "/predict",
                &["trace", "ranks"],
                Transport::Json,
                "missing required key \"models\"",
            ),
            (
                "/check",
                &["trace", "ranks", "threads"],
                Transport::Json,
                "unknown key \"threads\"",
            ),
        ];
        for (command, keys, transport, want) in cases {
            let err = admits(command, keys, transport).unwrap_err().to_string();
            assert_eq!(err, format!("configuration error: {want} for '{command}'"));
        }
        // a value of a repeated key that does not parse is named first
        let given = [("ranks", Raw::Text("4")), ("ranks", Raw::Text("4,four"))];
        let err = admit("predict", &given, flags).unwrap_err().to_string();
        assert!(
            err.ends_with("--ranks must be an integer, got 'four'"),
            "{err}"
        );
        // a command that does not exist is its dispatcher's to refuse
        admits("frobnicate", &["x", "x"], flags).unwrap();
    }

    /// The same request through both transports parses to the same value;
    /// a list key takes a list, a one-value key one value, and a JSON
    /// `null` leaves an optional field unset.
    #[test]
    fn both_transports_fill_the_same_fields() {
        let cli = [
            ("ranks", "4,8"),
            ("mappings", "element-based, hilbert-ordered"),
            ("filters", "0.02,0.05"),
            ("strides", "1,2"),
            ("ghosts", "false"),
            ("mesh", "4x4x4"),
            ("order", "4"),
        ];
        let from_flags = Request::parse("sweep", flags(&cli)).unwrap();
        let body = json(
            r#"{"ranks":[4,8],"mappings":["element-based","hilbert-ordered"],
                "filters":[0.02,0.05],"strides":[1,2],"ghosts":false,"mesh":"4x4x4",
                "order":4,"reduced_k":null}"#,
        );
        assert_eq!(parse_json("/sweep", &body).unwrap(), from_flags);
        assert_eq!(from_flags.grid.points().len(), 16);
        assert_eq!(from_flags.mesh, Some(MeshDims::cube(4)));
        let (ranks, sync) = (Value::UInt(8), Value::Str(String::new()));
        let predict = Request::parse("/predict", |key| match key {
            "ranks" => Some(Raw::Json(&ranks)),
            "sync" => Some(Raw::Json(&sync)),
            _ => None,
        });
        let err = predict.unwrap_err().to_string();
        assert!(err.contains("\"sync\": unknown sync mode ''"), "{err}");
        for (command, body, want) in [
            (
                "/sweep",
                r#"{"ranks":4}"#,
                "\"ranks\" must be a list, got '4'",
            ),
            (
                "/check",
                r#"{"ranks":[4]}"#,
                "\"ranks\" must be an integer, got '[4]'",
            ),
            (
                "/check",
                r#"{"ranks":-4}"#,
                "\"ranks\" must be an integer, got '-4'",
            ),
            (
                "/sweep",
                r#"{"ranks":[4],"ghosts":"no"}"#,
                "must be true or false, got 'no'",
            ),
            (
                "/predict",
                r#"{"ranks":4,"machine":"m.json"}"#,
                "accepts presets only",
            ),
            (
                "/predict",
                r#"{"ranks":4,"filters":[0.1,0.2]}"#,
                "exactly one filter, got 2",
            ),
            (
                "/sweep",
                r#"{"ranks":[4],"mappings":[]}"#,
                "axis 'mappings' is empty",
            ),
        ] {
            let err = parse_json(command, &json(body)).unwrap_err().to_string();
            assert!(err.contains(want), "{body}: {err}");
        }
    }

    /// The order rule holds with and without a mesh, reduced replay
    /// refuses strides past 1, and dims the mesh refuses name the mesh.
    #[test]
    fn validation_runs_the_library_rules_once() {
        for pairs in [
            &[("ranks", "8"), ("order", "0")][..],
            &[("ranks", "8"), ("order", "1"), ("mesh", "4x4x4")],
        ] {
            let err = Request::parse("predict", flags(pairs))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("element order (N) must be at least 2"),
                "{err}"
            );
        }
        let err = Request::parse("sweep", flags(&[("ranks", "4"), ("mesh", "0x4x4")]));
        let err = err.unwrap_err().to_string();
        assert!(
            err.contains("bad mesh: mesh dims must be non-zero"),
            "{err}"
        );
        let body = json(r#"{"trace":"t","ranks":[4],"strides":[1,2],"reduced":true}"#);
        let err = parse_json("/sweep", &body).unwrap_err().to_string();
        assert!(err.contains("stride 1 only"), "{err}");
        let request = Request::parse("predict", flags(&[("ranks", "8")])).unwrap();
        assert_eq!(request.specs(), vec![PredictSpec::new(8)]);
    }
}
