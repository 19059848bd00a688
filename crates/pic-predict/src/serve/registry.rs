//! Content-addressed trace registry with a byte-budgeted LRU.
//!
//! Every trace the service ingests is read **once**, addressed by the
//! 128-bit FNV-1a digest of its raw encoded bytes, and kept resident
//! together with its [`AssignmentCache`] — the per-sample assignment
//! artifacts (owners, real counts, and the rank regions of mappings whose
//! regions move) keyed by (mesh, binning), with each ghost radius's rows
//! and each stride's migration diffs, that subsequent sweep/predict/check requests
//! replay against without re-running the mapper or, for a radius already
//! asked for, the ghost kernel. Fitted [`KernelModels`] are registered the same
//! way (addressed by digest of their JSON). Re-ingesting identical bytes
//! lands on the identical address and, after an eviction, rebuilds
//! bit-identical artifacts — content-address stability the integration
//! tests assert.
//!
//! Eviction is strict LRU over *trace* entries by last-touch tick, where
//! an entry's weight is its trace's resident bytes (`f64` positions, or
//! the encoded frames, keyframes and dequantization table of a compact
//! trace, fixed at admission) plus everything its
//! assignment cache holds; the most recently ingested entry is never
//! evicted by its own arrival. Model entries are tiny and capped by
//! count, LRU as well.

use pic_trace::ParticleTrace;
use pic_types::sync::Mutex;
use pic_workload::{AssignmentCache, ReductionPlan};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::kernel_models::KernelModels;

/// Maximum fitted-model sets kept resident.
pub const MAX_MODELS: usize = 64;

/// Per-trace cache of SimPoint reduction plans, keyed by the requested
/// cluster count (`None`: automatic selection); every other clustering
/// knob is `SimpointOptions::default()`'s, so the count and the owning
/// trace fix a plan bit for bit. Plans are built *outside* this lock
/// (clustering is seconds on large traces); two racing builders both
/// build and the first insert wins — deterministic construction makes both
/// results identical, so the race only costs duplicate work, never
/// divergent answers.
pub struct PlanCache {
    inner: Mutex<HashMap<Option<usize>, Arc<ReductionPlan>>>,
    /// The plans' bytes, stored under the lock on every insert, so
    /// [`PlanCache::resident_bytes`] reads them without the lock.
    bytes: AtomicUsize,
}

impl PlanCache {
    fn new() -> PlanCache {
        PlanCache {
            inner: Mutex::new(HashMap::new()),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Fetch the cached plan of `k` clusters, if one is resident.
    pub(crate) fn get(&self, k: Option<usize>) -> Option<Arc<ReductionPlan>> {
        self.inner.lock().get(&k).map(Arc::clone)
    }

    /// Insert a freshly built plan; if another builder won the race the
    /// resident plan is returned instead and the argument is dropped.
    pub(crate) fn insert(&self, k: Option<usize>, plan: ReductionPlan) -> Arc<ReductionPlan> {
        let mut inner = self.inner.lock();
        let plan = Arc::clone(inner.entry(k).or_insert_with(|| Arc::new(plan)));
        let bytes = inner.values().map(|p| p.approx_bytes()).sum();
        self.bytes.store(bytes, Ordering::Relaxed);
        plan
    }

    /// Approximate resident bytes across every cached plan, counted into
    /// the owning trace entry's LRU weight. Takes no lock.
    pub fn resident_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One resident trace: its samples and the artifact cache every request
/// against this trace shares.
pub struct ResidentTrace {
    /// The trace, in the storage its file's format chose.
    pub trace: Arc<ParticleTrace>,
    /// Shared per-trace assignment artifacts and ghost rows.
    pub cache: Arc<AssignmentCache>,
    /// Shared per-trace reduction plans (SimPoint clustering results).
    pub plans: Arc<PlanCache>,
    /// Raw encoded bytes ingested (for reporting; the bytes themselves
    /// are not kept).
    pub encoded_bytes: u64,
}

struct TraceEntry {
    resident: ResidentTrace,
    last_used: u64,
}

struct ModelEntry {
    models: Arc<KernelModels>,
    last_used: u64,
}

/// Registry counters, serialized into `GET /stats` responses.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RegistryStats {
    /// Trace lookups served from residency.
    pub trace_hits: u64,
    /// Trace lookups that found nothing resident.
    pub trace_misses: u64,
    /// Trace entries evicted under budget pressure.
    pub trace_evictions: u64,
    /// Traces ingested (including re-ingests of a resident address).
    pub ingests: u64,
    /// Traces currently resident.
    pub resident_traces: usize,
    /// Approximate bytes resident (traces + assignment caches).
    pub resident_bytes: usize,
    /// Model sets currently resident.
    pub resident_models: usize,
}

struct RegistryInner {
    traces: HashMap<String, TraceEntry>,
    models: HashMap<String, ModelEntry>,
    tick: u64,
    stats: RegistryStats,
}

/// The registry. `Send + Sync`; all mutation behind one mutex — every
/// critical section is bookkeeping only, never a replay (replays happen
/// outside the lock against `Arc`-shared entries). That bookkeeping-only
/// contract is also what makes poison recovery sound: a panic under the
/// lock cannot leave a half-applied multi-step update. Weighing an entry
/// under the lock reads its caches' byte counts without taking their locks.
pub struct TraceRegistry {
    budget_bytes: usize,
    inner: Mutex<RegistryInner>,
}

fn entry_bytes(e: &ResidentTrace) -> usize {
    e.trace.resident_bytes() + e.cache.resident_bytes() + e.plans.resident_bytes()
}

impl TraceRegistry {
    /// A registry holding at most ~`budget_bytes` of traces and
    /// assignment artifacts.
    pub fn new(budget_bytes: usize) -> TraceRegistry {
        TraceRegistry {
            budget_bytes,
            inner: Mutex::new(RegistryInner {
                traces: HashMap::new(),
                models: HashMap::new(),
                tick: 0,
                stats: RegistryStats::default(),
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Register a trace under its content address. If the address
    /// is already resident the existing entry (and its warmed-up artifact
    /// cache) is kept and returned — identical bytes, identical artifacts.
    /// Returns the resident handle and the addresses evicted to make room.
    pub fn insert_trace(
        &self,
        address: &str,
        trace: ParticleTrace,
        encoded_bytes: u64,
    ) -> (Arc<ParticleTrace>, Vec<String>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.stats.ingests += 1;
        if let Some(e) = inner.traces.get_mut(address) {
            e.last_used = tick;
            let out = Arc::clone(&e.resident.trace);
            drop(inner);
            return (out, Vec::new());
        }
        let resident = ResidentTrace {
            trace: Arc::new(trace),
            // Each trace's artifact cache shares the registry-wide budget;
            // the eviction loop below weighs whatever it actually holds.
            cache: Arc::new(AssignmentCache::new(self.budget_bytes)),
            plans: Arc::new(PlanCache::new()),
            encoded_bytes,
        };
        let out = Arc::clone(&resident.trace);
        inner.traces.insert(
            address.to_string(),
            TraceEntry {
                resident,
                last_used: tick,
            },
        );
        let evicted = Self::evict_over_budget(&mut inner, self.budget_bytes, Some(address));
        (out, evicted)
    }

    fn evict_over_budget(
        inner: &mut RegistryInner,
        budget: usize,
        keep: Option<&str>,
    ) -> Vec<String> {
        let mut evicted = Vec::new();
        loop {
            let total: usize = inner
                .traces
                .values()
                .map(|e| entry_bytes(&e.resident))
                .sum();
            inner.stats.resident_bytes = total;
            inner.stats.resident_traces = inner.traces.len();
            if total <= budget || inner.traces.len() <= 1 {
                break;
            }
            let victim = inner
                .traces
                .iter()
                .filter(|(addr, _)| keep != Some(addr.as_str()))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(addr, _)| addr.clone());
            match victim {
                Some(addr) => {
                    inner.traces.remove(&addr);
                    inner.stats.trace_evictions += 1;
                    evicted.push(addr);
                }
                None => break,
            }
        }
        evicted
    }

    /// Look up a resident trace by content address, bumping its recency.
    pub fn get_trace(&self, address: &str) -> Option<(Arc<ParticleTrace>, Arc<AssignmentCache>)> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.traces.get_mut(address) {
            Some(e) => {
                e.last_used = tick;
                let out = (Arc::clone(&e.resident.trace), Arc::clone(&e.resident.cache));
                inner.stats.trace_hits += 1;
                Some(out)
            }
            None => {
                inner.stats.trace_misses += 1;
                None
            }
        }
    }

    /// The reduction-plan cache of a resident trace, without bumping its
    /// recency (a plan lookup always follows a `get_trace` on the same
    /// address, which already did).
    pub(crate) fn plan_cache(&self, address: &str) -> Option<Arc<PlanCache>> {
        let inner = self.inner.lock();
        inner
            .traces
            .get(address)
            .map(|e| Arc::clone(&e.resident.plans))
    }

    /// Register fitted models under their content address.
    pub fn insert_models(&self, address: &str, models: KernelModels) -> Arc<KernelModels> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.models.get_mut(address) {
            e.last_used = tick;
            return Arc::clone(&e.models);
        }
        let arc = Arc::new(models);
        inner.models.insert(
            address.to_string(),
            ModelEntry {
                models: Arc::clone(&arc),
                last_used: tick,
            },
        );
        while inner.models.len() > MAX_MODELS {
            let victim = inner
                .models
                .iter()
                .filter(|(addr, _)| addr.as_str() != address)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(addr, _)| addr.clone());
            match victim {
                Some(a) => {
                    inner.models.remove(&a);
                }
                None => break,
            }
        }
        inner.stats.resident_models = inner.models.len();
        arc
    }

    /// Look up resident models by content address.
    pub fn get_models(&self, address: &str) -> Option<Arc<KernelModels>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.models.get_mut(address).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.models)
        })
    }

    /// One line per resident trace: `(address, particles, samples,
    /// encoded bytes, approx resident bytes)`, address-sorted.
    pub fn list_traces(&self) -> Vec<(String, usize, usize, u64, usize)> {
        let inner = self.inner.lock();
        let mut out: Vec<_> = inner
            .traces
            .iter()
            .map(|(addr, e)| {
                (
                    addr.clone(),
                    e.resident.trace.particle_count(),
                    e.resident.trace.sample_count(),
                    e.resident.encoded_bytes,
                    entry_bytes(&e.resident),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Current counters (recomputes resident bytes so assignment-cache
    /// growth since the last eviction pass is reflected).
    pub fn stats(&self) -> RegistryStats {
        let mut inner = self.inner.lock();
        inner.stats.resident_bytes = inner
            .traces
            .values()
            .map(|e| entry_bytes(&e.resident))
            .sum();
        inner.stats.resident_traces = inner.traces.len();
        inner.stats.resident_models = inner.models.len();
        inner.stats
    }

    /// Aggregate assignment-cache counters across every resident trace,
    /// read after the registry lock is released.
    pub fn aggregate_cache_stats(&self) -> pic_workload::AssignmentCacheStats {
        let caches: Vec<_> = (self.inner.lock().traces.values())
            .map(|e| Arc::clone(&e.resident.cache))
            .collect();
        let mut agg = pic_workload::AssignmentCacheStats::default();
        for cache in caches {
            let s = cache.stats();
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.evictions += s.evictions;
            agg.resident_bytes += s.resident_bytes;
            agg.entries += s.entries;
            agg.radius_rows += s.radius_rows;
            agg.radius_hits += s.radius_hits;
            agg.radius_misses += s.radius_misses;
            agg.diff_sets += s.diff_sets;
            agg.diff_hits += s.diff_hits;
            agg.diff_misses += s.diff_misses;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_trace::TraceMeta;
    use pic_types::{Aabb, Vec3};

    fn trace(n: usize, samples: usize, tag: &str) -> ParticleTrace {
        let meta = TraceMeta::new(n, 10, Aabb::unit(), tag);
        let mut tr = ParticleTrace::new(meta);
        for k in 0..samples {
            tr.push_positions(vec![Vec3::splat(0.1 * (k + 1) as f64); n])
                .unwrap();
        }
        tr
    }

    #[test]
    fn insert_get_and_reingest_share_entry() {
        let reg = TraceRegistry::new(usize::MAX);
        let (a1, ev) = reg.insert_trace("aa", trace(10, 3, "x"), 100);
        assert!(ev.is_empty());
        let (t, _cache) = reg.get_trace("aa").unwrap();
        assert!(Arc::ptr_eq(&a1, &t));
        // re-ingest: same entry survives, no duplicate
        let (a2, _) = reg.insert_trace("aa", trace(10, 3, "x"), 100);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(reg.stats().resident_traces, 1);
        assert_eq!(reg.stats().ingests, 2);
        assert!(reg.get_trace("bb").is_none());
        assert_eq!(reg.stats().trace_misses, 1);
    }

    #[test]
    fn lru_eviction_under_byte_pressure() {
        let one = trace(100, 4, "x").resident_bytes();
        let reg = TraceRegistry::new(2 * one + one / 2);
        reg.insert_trace("t1", trace(100, 4, "a"), 1);
        reg.insert_trace("t2", trace(100, 4, "b"), 1);
        // touch t1 so t2 is the LRU when t3 arrives
        reg.get_trace("t1").unwrap();
        let (_, evicted) = reg.insert_trace("t3", trace(100, 4, "c"), 1);
        assert_eq!(evicted, vec!["t2".to_string()]);
        assert!(reg.get_trace("t2").is_none());
        assert!(reg.get_trace("t1").is_some());
        assert!(reg.get_trace("t3").is_some());
        assert_eq!(reg.stats().trace_evictions, 1);
    }

    #[test]
    fn oversized_single_entry_is_admitted() {
        let reg = TraceRegistry::new(1);
        let (_, ev) = reg.insert_trace("big", trace(1000, 4, "big"), 1);
        assert!(ev.is_empty());
        assert!(reg.get_trace("big").is_some());
    }

    fn tiny_recorder() -> pic_sim::Recorder {
        let mut rec = pic_sim::Recorder::new();
        let oracle = pic_sim::CostOracle::noiseless();
        for np in [0.0, 10.0, 100.0, 500.0] {
            for k in pic_sim::KernelKind::ALL {
                let p = pic_sim::instrument::WorkloadParams {
                    np,
                    ngp: np / 10.0,
                    nel: 8.0,
                    n_order: 3.0,
                    filter: 0.04,
                };
                rec.record(k, p, oracle.true_cost(k, &p));
            }
        }
        rec
    }

    #[test]
    fn models_capped_by_count() {
        let reg = TraceRegistry::new(usize::MAX);
        let rec = tiny_recorder();
        for i in 0..(MAX_MODELS + 3) {
            let m = KernelModels::fit(&rec, &crate::kernel_models::FitStrategy::Linear, 1).unwrap();
            reg.insert_models(&format!("m{i:03}"), m);
        }
        assert_eq!(reg.stats().resident_models, MAX_MODELS);
        // newest still resident, oldest gone
        assert!(reg.get_models(&format!("m{:03}", MAX_MODELS + 2)).is_some());
        assert!(reg.get_models("m000").is_none());
    }
}
