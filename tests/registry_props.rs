//! Property-based tests for the serve registry's LRU weight accounting
//! (ISSUE 8, satellite 3).
//!
//! The accounting runs under one lock, so its correctness is a property of
//! op *sequences*, not interleavings, and this corpus is its check: it
//! samples random op sequences against the *real* `TraceRegistry` (and
//! the real per-trace `AssignmentCache`s its entries carry) and asserts:
//!
//! * the reported resident-bytes aggregate equals the sum of the
//!   per-entry weights (`stats` vs `list_traces` never disagree);
//! * each assignment cache's incremental resident-bytes counter never
//!   drifts from the sum recomputed from what its entries actually hold
//!   (assignments, ghost rows and migration diffs);
//! * after every settling pass (a new-address ingest; a cache insert)
//!   the budget holds unless a single oversized resident remains;
//! * eviction is strict LRU, stops as soon as the budget holds, and the
//!   just-ingested address survives;
//! * re-ingest of a resident address is a recency bump that returns the
//!   *same* `Arc` and charges nothing;
//! * repeat sweeps served from the cache are bit-identical to the
//!   first (cache-hit replay equals recompute).
//!
//! Runs under the debug-build lock-order witness: the registry →
//! assignment-cache nesting is exercised on every weighing pass, and the
//! suite ends by asserting the witness saw no ordering violations.

use pic_mapping::MappingAlgorithm;
use pic_predict::TraceRegistry;
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::{Aabb, Vec3};
use pic_workload::{
    replay, AssignmentKey, CachedGroup, GhostRow, ReplayOptions, SweepPoint, WorkloadConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Distinct content addresses the sequences ingest.
const ADDRS: u8 = 4;

/// The deterministic trace living at address index `idx`: sizes vary per
/// address so entry weights differ and eviction order actually matters.
fn trace_for(idx: u8) -> ParticleTrace {
    let particles = 8 + 5 * idx as usize;
    let samples = 2 + (idx as usize % 3);
    let meta = TraceMeta::new(particles, 10, Aabb::unit(), format!("prop{idx}"));
    let mut tr = ParticleTrace::new(meta);
    for k in 0..samples {
        tr.push_positions(vec![Vec3::splat(0.09 * (k + 1) as f64); particles])
            .unwrap();
    }
    tr
}

fn addr_name(idx: u8) -> String {
    format!("addr{idx}")
}

/// One registry operation: `Ingest` inserts-or-bumps, `Get` bumps
/// recency, `Sweep` (at a rank count, ghosts on or off, a stride) grows
/// the entry's assignment-cache weight between ingests — with ghosts on
/// after off, by ghost rows added to a resident cache entry, and with a new
/// stride, by that step's migration diffs.
#[derive(Debug, Clone, Copy)]
enum Op {
    Ingest(u8),
    Get(u8),
    Sweep(u8, usize, bool, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ADDRS).prop_map(Op::Ingest),
        (0..ADDRS).prop_map(Op::Get),
        ((0..ADDRS), 2usize..5, any::<bool>(), 1usize..3)
            .prop_map(|(a, r, g, s)| Op::Sweep(a, r, g, s)),
    ]
}

/// Recompute the byte weight `AssignmentCache::insert` and `insert_diffs`
/// charged for an entry from what it holds — its assignments, every
/// radius's ghost rows and every step's migration diffs — the independent
/// sum the incremental counter is checked against.
fn entry_bytes(entry: &CachedGroup) -> usize {
    let assignments = &entry.assignments;
    let rows = entry.rows.iter().map(|(_, rows)| {
        rows.capacity() * std::mem::size_of::<GhostRow>()
            + (rows.iter())
                .map(|(recv, sent)| {
                    (recv.capacity() + sent.capacity()) * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    });
    let diffs = entry.diffs.iter().map(|(_, diffs)| {
        diffs.capacity() * std::mem::size_of::<Vec<(u32, u32, u32)>>()
            + (diffs.iter())
                .map(|d| d.capacity() * std::mem::size_of::<(u32, u32, u32)>())
                .sum::<usize>()
    });
    assignments.iter().map(|a| a.approx_bytes()).sum::<usize>()
        + assignments.capacity() * std::mem::size_of::<pic_workload::SampleAssignment>()
        + rows.sum::<usize>()
        + diffs.sum::<usize>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lru_weight_accounting_holds_over_random_op_sequences(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        budget in 800usize..6000,
    ) {
        let reg = TraceRegistry::new(budget);
        // Shadow model: resident addresses oldest-first, the Arc handle
        // each ingest returned, and which sweep configs ran per address.
        let mut lru_order: Vec<String> = Vec::new();
        let mut handles: HashMap<String, Arc<ParticleTrace>> = HashMap::new();
        // Per-address: the entry's cache handle (captured at sweep time so
        // the drift check below never touches the registry and perturbs
        // its LRU order) plus the ranks swept against it.
        let mut swept: HashMap<String, (Arc<pic_workload::AssignmentCache>, Vec<usize>)> =
            HashMap::new();
        // Keyed by (address, ranks, ghosts, stride).
        type Swept = (String, usize, bool, usize);
        let mut first_sweep: HashMap<Swept, Vec<pic_workload::DynamicWorkload>> = HashMap::new();
        // Each resident entry's weight after the previous op.
        let mut weights: HashMap<String, usize> = HashMap::new();

        for op in ops {
            match op {
                Op::Ingest(idx) => {
                    let addr = addr_name(idx);
                    let was_resident = handles.contains_key(&addr);
                    let (arc, evicted) = reg.insert_trace(&addr, trace_for(idx), 64);
                    if was_resident {
                        // Re-ingest: recency bump only — same entry, no
                        // eviction pass, nothing charged.
                        prop_assert!(Arc::ptr_eq(&arc, &handles[&addr]),
                            "re-ingest of {addr} rebuilt the resident entry");
                        prop_assert!(evicted.is_empty(),
                            "re-ingest of {addr} evicted {evicted:?}");
                        lru_order.retain(|a| *a != addr);
                        lru_order.push(addr);
                    } else {
                        // New insert: strict-LRU victims, never itself,
                        // no more than needed, and the budget holds
                        // afterwards unless a single oversized entry is all
                        // that remains.
                        prop_assert!(!evicted.contains(&addr),
                            "{addr} was evicted by its own ingest");
                        let expected: Vec<String> =
                            lru_order.iter().take(evicted.len()).cloned().collect();
                        prop_assert_eq!(&evicted, &expected,
                            "eviction order is not strict LRU");
                        for v in &evicted {
                            lru_order.retain(|a| a != v);
                            handles.remove(v);
                            swept.remove(v);
                        }
                        lru_order.push(addr.clone());
                        handles.insert(addr, arc);
                        let s = reg.stats();
                        prop_assert!(
                            s.resident_bytes <= budget || s.resident_traces == 1,
                            "unsettled after ingest: {} bytes > {budget} with {} residents",
                            s.resident_bytes, s.resident_traces
                        );
                        if let Some(last) = evicted.last() {
                            prop_assert!(s.resident_bytes + weights[last] > budget,
                                "evicted {last} although the budget held without it");
                        }
                    }
                }
                Op::Get(idx) => {
                    let addr = addr_name(idx);
                    match reg.get_trace(&addr) {
                        Some((arc, _cache)) => {
                            prop_assert!(handles.contains_key(&addr),
                                "{addr} resident in registry but not in shadow");
                            prop_assert!(Arc::ptr_eq(&arc, &handles[&addr]));
                            lru_order.retain(|a| *a != addr);
                            lru_order.push(addr);
                        }
                        None => prop_assert!(!handles.contains_key(&addr),
                            "{addr} resident in shadow but missed in registry"),
                    }
                }
                Op::Sweep(idx, ranks, ghosts, stride) => {
                    let addr = addr_name(idx);
                    let Some((trace, cache)) = reg.get_trace(&addr) else {
                        prop_assert!(!handles.contains_key(&addr));
                        continue;
                    };
                    lru_order.retain(|a| *a != addr);
                    lru_order.push(addr.clone());
                    let cfg = WorkloadConfig {
                        compute_ghosts: ghosts,
                        ..WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05)
                    };
                    let opts = ReplayOptions::new(None, Some(&cache), None);
                    let (workloads, _) =
                        replay(&trace, &[SweepPoint::with_stride(cfg, stride)], &opts)
                            .expect("sweep");
                    // Cache-hit replay must be bit-identical to the first
                    // computation of the same configuration.
                    match first_sweep.entry((addr.clone(), ranks, ghosts, stride)) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            prop_assert_eq!(e.get(), &workloads,
                                "cached sweep replay diverged");
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(workloads);
                        }
                    }
                    let entry = swept
                        .entry(addr)
                        .or_insert_with(|| (Arc::clone(&cache), Vec::new()));
                    if !Arc::ptr_eq(&entry.0, &cache) {
                        // The address was evicted and re-ingested since we
                        // last swept it: a fresh cache, fresh bookkeeping.
                        *entry = (Arc::clone(&cache), Vec::new());
                    }
                    if !entry.1.contains(&ranks) {
                        entry.1.push(ranks);
                    }
                    // Each cache insert is a settling pass of its own.
                    let cs = cache.stats();
                    prop_assert!(
                        cs.resident_bytes <= budget || cs.entries <= 1,
                        "assignment cache unsettled: {} bytes > {budget} with {} entries",
                        cs.resident_bytes, cs.entries
                    );
                }
            }

            // Invariants re-checked after *every* op.
            let listed = reg.list_traces();
            let stats = reg.stats();
            let listed_sum: usize = listed.iter().map(|(_, _, _, _, b)| *b).sum();
            prop_assert_eq!(stats.resident_bytes, listed_sum,
                "aggregate resident bytes disagrees with the per-entry weights");
            prop_assert_eq!(stats.resident_traces, listed.len());
            let mut shadow: Vec<&String> = lru_order.iter().collect();
            shadow.sort();
            let registry: Vec<&String> = listed.iter().map(|(a, _, _, _, _)| a).collect();
            prop_assert_eq!(shadow, registry, "resident set diverged from shadow");
            weights = listed.into_iter().map(|(a, _, _, _, b)| (a, b)).collect();

            // The incremental per-cache counter never drifts from the
            // recomputed sum of the artifacts the cache still holds
            // (`accounted == Σ resident weights`).
            for (addr, (cache, ranks_list)) in &swept {
                let mut true_sum = 0usize;
                for &r in ranks_list {
                    let cfg = WorkloadConfig::new(r, MappingAlgorithm::BinBased, 0.05);
                    let key = AssignmentKey::for_config(&cfg, None);
                    if let Some(entry) = cache.get(&key, &[], &[]) {
                        true_sum += entry_bytes(&entry);
                    }
                }
                prop_assert_eq!(cache.stats().resident_bytes, true_sum,
                    "assignment-cache counter drifted for {}", addr);
            }
        }

        // The registry → assignment-cache lock nesting was exercised on
        // every weighing pass above; the witness must have seen no
        // ordering violations.
        pic_types::sync::assert_witness_clean();
    }
}
