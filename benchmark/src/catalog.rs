//! The workload and metric catalog: names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repo root states the same catalog for the
//! driver; the `benchmark_json_matches_catalog` test keeps the two equal.

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20210517;
/// Default `--seconds` (the `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 12;
/// Untraced runs per workload in the all-workloads document. Three is the
/// fewest whose quartiles differ from their median, which `compare` needs
/// to call a row `unresolved`.
pub const RUNS: usize = 3;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "predict-4k",
        why: "The paper's single prediction at 4176 ranks: DWG single-radius ghost kernel and bin assignment dominate; sweep sharing, event queue and reduction are bypassed.",
    },
    WorkloadDef {
        name: "explore-grid",
        why: "Fig 9/10 design-space study: one 24-point sweep over 4 mappers x 2 rank counts x 3 filters (shared assignment groups, multi-radius kernel), then model eval, schedule and NeighborSync DES 24x.",
    },
    WorkloadDef {
        name: "machine-16k",
        why: "Rank-heavy: 16384 ranks, most idle with identical compute times, under BulkSynchronous and NeighborSync. Not DES-dominated: DWG ~60%, model eval ~18%, NeighborSync ~18% of the pass.",
    },
    WorkloadDef {
        name: "phased-reduced",
        why: "Long 12-phase trace through the compact decoder, SimPoint plan build (features, k-means), reduced replay and the holdout gate; full-replay kernels barely run.",
    },
    WorkloadDef {
        name: "serve-closed2",
        why: "The same product through the resident service: closed loop of 2 clients, 70% cached /sweep, 10% /sweep with a never-seen filter (assignment-cache miss), 20% /predict.",
    },
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, measured with tracing off; every workload reports
/// all of them. The bounds are the contract's largest because the
/// reference box is that noisy: the run-to-run quartile range of a
/// run's median is several percent of it for every timing and every
/// workload (see README.md, "Run-to-run spread").
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("psamples_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer reports 0 for its metrics.
pub const PER_LAYER: [MetricDef; 59] = [
    layer("sim.run_s", "s", Lower),
    layer("sim.particle_steps_per_s", "1/s", Higher),
    layer("trace.decode_s", "s", Lower),
    layer("trace.decode_mb_per_s", "MB/s", Higher),
    layer("trace.decode_bytes", "count", Lower),
    layer("trace.compact_decode_s", "s", Lower),
    layer("trace.features_s", "s", Lower),
    layer("grid.decompose_s", "s", Lower),
    layer("mapping.assign_s", "s", Lower),
    layer("mapping.assign_psamples_per_s", "1/s", Higher),
    layer("mapping.assign_s.element", "s", Lower),
    layer("mapping.assign_s.bin", "s", Lower),
    layer("mapping.assign_s.hilbert", "s", Lower),
    layer("mapping.assign_s.load-balanced", "s", Lower),
    layer("workload.generate_s", "s", Lower),
    layer("workload.generate_noghost_s", "s", Lower),
    layer("workload.ghost_share", "ratio", Lower),
    layer("workload.ghost_pairs", "count", Lower),
    layer("workload.comm_entries", "count", Lower),
    layer("workload.sweep_s", "s", Lower),
    layer("workload.sweep_groups", "count", Lower),
    layer("workload.sweep_assign_passes", "count", Lower),
    layer("workload.reduce_replay_s", "s", Lower),
    layer("workload.replayed_samples", "count", Lower),
    layer("models.eval_s", "s", Lower),
    layer("models.evals", "count", Lower),
    layer("models.evals_per_s", "1/s", Higher),
    layer("models.fit_s", "s", Lower),
    layer("models.kmeans_s", "s", Lower),
    layer("predict.schedule_s", "s", Lower),
    layer("predict.schedule_msgs", "count", Lower),
    layer("predict.simpoint_plan_s", "s", Lower),
    layer("predict.plan_k", "count", Lower),
    layer("des.bs_s", "s", Lower),
    layer("des.ns_s", "s", Lower),
    layer("des.events", "count", Lower),
    layer("des.bs_events_per_s", "1/s", Higher),
    layer("des.ns_events_per_s", "1/s", Higher),
    layer("analysis.gate_s", "s", Lower),
    layer("analysis.holdout_samples", "count", Lower),
    layer("serve.request_p50_ms", "ms", Lower),
    layer("serve.request_p95_ms", "ms", Lower),
    layer("serve.sweep_hit_p50_ms", "ms", Lower),
    layer("serve.sweep_miss_p50_ms", "ms", Lower),
    layer("serve.predict_p50_ms", "ms", Lower),
    layer("serve.qps", "1/s", Higher),
    layer("serve.ingest_s", "s", Lower),
    layer("serve.cache_hit_rate", "ratio", Higher),
    layer("serve.batched_requests", "count", Higher),
    layer("serve.errors", "count", Lower),
    layer("pass.wall_s", "s", Lower),
    layer("pass.unattributed_s", "s", Lower),
    layer("pass.coverage", "ratio", Higher),
    layer("pass.trace_overhead_pct", "%", Lower),
    layer("scaling.threads", "count", Higher),
    layer("scaling.wall_1t_s", "s", Lower),
    layer("scaling.speedup_nt", "ratio", Higher),
    layer("verify.answer_err_pct", "%", Lower),
    layer("verify.predicted_seconds", "s", Lower),
];

/// FNV-1a digests of the workload matrices of each library workload's
/// first answer at [`DEFAULT_SEED`], as measured when the benchmark was
/// defined. Reported as `digest_matches_committed`; never gated.
pub fn committed_digest(workload: &str) -> Option<&'static str> {
    COMMITTED_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| *d)
}

const COMMITTED_DIGESTS: [(&str, &str); 4] = [
    ("predict-4k", "af0cfd51d4df1de097bd229b516a34ff"),
    ("explore-grid", "30cfbd63321a81d1a8639593635b4745"),
    ("machine-16k", "3d3f2b6307585b00b56df0f3c0a3e78a"),
    ("phased-reduced", "9747c7324d4497f631f3cd406983f50a"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{field, Json};
    use serde::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        field(v, key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                (
                    field(m, "name")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string(),
                    field(m, "unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    field(m, "better")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    field(m, "bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let Json(doc) = serde_json::from_str(&text).expect("valid JSON");
        let w: Vec<String> = names(&doc, "workloads").into_iter().map(|n| n.0).collect();
        assert_eq!(w, WORKLOADS.map(|w| w.name.to_string()));
        for (defs, key) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let got = names(&doc, key);
            assert_eq!(got.len(), defs.len(), "{key} length");
            for (g, d) in got.iter().zip(defs) {
                assert_eq!(
                    (g.0.as_str(), g.1.as_str(), g.2.as_str()),
                    (d.name, d.unit, d.better.as_str())
                );
                if key == "end_to_end" {
                    assert_eq!(g.3, Some(d.bound), "{}", d.name);
                }
            }
        }
        assert_eq!(
            field(&doc, "run_seconds").and_then(Value::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
