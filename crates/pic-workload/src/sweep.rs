//! The DWG replay engine: one trace replay, any number of workloads.
//!
//! [`replay`] is the door: a trace, a grid of [`SweepPoint`]s and
//! [`ReplayOptions`] (mesh, assignment cache, reduction plan, each
//! optional and every combination valid). [`sweep_streaming`] is the one
//! streamed driver. DESIGN.md §7 has the arguments:
//!
//! * **Plan.** [`SweepPoint`]s whose assignment is provably identical
//!   share an assignment group — `(mapping, ranks)`, plus the filter bits
//!   for `bin-based`, whose partition stops at the bin-size threshold. A
//!   group builds its mapper once and carries every distinct ghost radius
//!   its members ask for; a member is a (group, radius slot, stride)
//!   triple. A single configuration is a plan with one group and one slot.
//!   Bin groups differ in (ranks, filter) but not in their cuts, so they
//!   share per sample at run time, not in the plan (next bullet).
//! * **Kernel.** `process_group_sample` is the only per-sample code. A
//!   bin group walks the sample's [`BinTree`], which the caller shares
//!   between every bin group it runs on that sample, so each node is cut
//!   once per sample ([`SweepStats::bin_cuts`] counts the attempts), and
//!   counts its one radius's ghosts over that tree
//!   ([`BinTree::ghost_counts`]). A mesh group assigns, counts, and
//!   serves every radius slot in one pruned join over a [`RankTree`]
//!   ([`RankTree::ghost_counts`]) — built once per group where the regions
//!   are fixed (element), per sample otherwise — which prunes at the
//!   group's largest radius (sphere–box overlap is monotone in the radius,
//!   so filtering the same `d²` at `d² ≤ r²` is bit-exact for each smaller
//!   one). Both joins are `pic-mapping`'s one pruned dual-tree traversal.
//! * **Two drivers.** `replay_groups` is the resident loop: it runs the
//!   kernel over the (group, sample) pairs a caller selects — all samples,
//!   a [`ReductionPlan`]'s representatives and their predecessors, or a
//!   holdout list — optionally through an [`AssignmentCache`], which
//!   keeps each group's assignments, every radius's ghost rows and every
//!   step's migration diffs, so a repeated grid point runs no kernel and
//!   diffs no ownership at all.
//!   [`sweep_streaming`] is the bounded decoder → workers → in-order-merge
//!   pipeline for traces larger than memory.
//! * **Assembly.** `assemble` turns replayed slots into one
//!   [`DynamicWorkload`] per member: a stride-`s` member keeps every
//!   `s`-th sample, exactly the full replay of `trace.subsample(s)`. Its
//!   migration diffs come from the cache entry where resident, and a full
//!   replay publishes the ones it computed.
//!
//! Outputs are **bit-identical** to the sequential
//! [`crate::reference::generate_reference`] oracle; `tests/props.rs`
//! checks every option combination against it on random grids.

use crate::generator::{DynamicWorkload, WorkloadConfig};
use crate::matrices::{migration_pairs, CommMatrix, CompMatrix};
use crate::reduce::ReductionPlan;
use pic_grid::ElementMesh;
use pic_mapping::{BinPartition, BinTree, MappingAlgorithm, ParticleMapper, RankTree};
use pic_trace::ParticleTrace;
use pic_types::sync::Mutex;
use pic_types::{Aabb, PicError, Rank, Result, Vec3};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One grid point of a sweep: a generator configuration plus a sampling
/// stride (`1` = every trace sample; `s` = the workload of
/// `trace.subsample(s)`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The generator configuration to evaluate.
    pub config: WorkloadConfig,
    /// Sampling stride over the trace; `0` is refused.
    pub stride: usize,
}

impl SweepPoint {
    /// A stride-1 point (every sample).
    pub fn new(config: WorkloadConfig) -> SweepPoint {
        SweepPoint { config, stride: 1 }
    }

    /// A point that consumes every `stride`-th sample.
    pub fn with_stride(config: WorkloadConfig, stride: usize) -> SweepPoint {
        SweepPoint { config, stride }
    }
}

/// Sharing accounting from one sweep run: how much replay the grouping
/// actually avoided.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Grid points evaluated.
    pub points: usize,
    /// Assignment groups the points collapsed into.
    pub groups: usize,
    /// Trace samples replayed through the full kernel (a reduction plan's
    /// representatives, or every sample).
    pub samples: usize,
    /// Assignment + index passes executed (`groups × samples`, less the
    /// groups an [`AssignmentCache`] served).
    pub assign_passes: usize,
    /// Owner-only passes executed on representatives' predecessors, for
    /// their migration diffs (always `0` without a reduction plan; a
    /// cached group needs none).
    #[serde(default)]
    pub owner_only_passes: usize,
    /// Passes the per-configuration loop would have run
    /// (`points × samples`).
    pub naive_assign_passes: usize,
    /// Distinct ghost radii evaluated across all groups.
    pub ghost_radii: usize,
    /// Groups with two or more ghost radii, all served by a single
    /// maximum-radius candidate query per particle.
    pub shared_query_groups: usize,
    /// Groups whose assignment artifacts were served from an
    /// [`AssignmentCache`] instead of being recomputed (always `0` on the
    /// cacheless paths).
    #[serde(default)]
    pub cached_groups: usize,
    /// Radius slots whose ghost rows were served from an
    /// [`AssignmentCache`] instead of running the ghost kernel (always `0`
    /// on the cacheless paths). A replay with `cached_groups == groups`
    /// and `cached_radii == ghost_radii` runs no kernel pass at all.
    #[serde(default)]
    pub cached_radii: usize,
    /// Migration diffs computed (`migration_pairs` calls): one per
    /// retained sample after a member's first, per (group, step), less the
    /// diff sets an [`AssignmentCache`] served. A full cache hit makes none.
    #[serde(default)]
    pub migration_diffs: usize,
    /// Bin tree node cuts attempted, failed ones included. The bin groups
    /// of one sample share a tree, so a grid of bin points costs the cuts
    /// of the union of its partitions, not their sum.
    #[serde(default)]
    pub bin_cuts: usize,
}

/// Assignment identity of a configuration: mapping, ranks, and the filter
/// bits iff bin-based (mesh-based mappings ignore the filter while
/// assigning).
type GroupKey = (MappingAlgorithm, usize, Option<u64>);

fn group_key(cfg: &WorkloadConfig) -> GroupKey {
    let filter_bits =
        (cfg.mapping == MappingAlgorithm::BinBased).then(|| cfg.projection_filter.to_bits());
    (cfg.mapping, cfg.ranks, filter_bits)
}

/// One assignment group: a mapper built once, plus every ghost radius its
/// members need.
pub(crate) struct GroupPlan {
    /// Built (and so validated) for every group; a bin group assigns by
    /// walking the sample's [`BinTree`] instead.
    mapper: Box<dyn ParticleMapper>,
    ranks: usize,
    /// With a mesh fingerprint this addresses cached assignment artifacts.
    key: GroupKey,
    /// The distinct ghost radii (projection filters) of its members, one
    /// per radius slot.
    radii: Vec<f64>,
    /// The rank tree over the mapper's regions where they are the same for
    /// every sample (element mapping): built once, by the group's first
    /// sample that counts ghosts, so a replay served from the cache never
    /// builds it.
    fixed_tree: OnceLock<RankTree>,
}

impl GroupPlan {
    /// The bin-size threshold of a bin-based group.
    fn bin_threshold(&self) -> Option<f64> {
        self.key.2.map(f64::from_bits)
    }
}

/// One sweep point resolved against the plan.
pub(crate) struct MemberPlan {
    group: usize,
    stride: usize,
    /// Index into the group's radius slots; `None` when ghosts are off.
    pub(crate) ghost_slot: Option<usize>,
}

pub(crate) struct SweepPlan {
    pub(crate) groups: Vec<GroupPlan>,
    pub(crate) members: Vec<MemberPlan>,
}

/// Resolve `points` into groups and members. Errors are the
/// per-configuration ones: a projection filter that is not finite and
/// positive, a stride of zero, zero ranks, a rank count whose per-rank
/// state this host cannot hold (see [`check_rank_state`]; `samples` is the
/// trace's sample count where it is known), a mesh-requiring mapping
/// without a mesh. Every replay entry point comes through here, so the
/// ghost kernel only ever sees validated radii and affordable rank counts.
pub(crate) fn build_plan(
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
    samples: Option<usize>,
) -> Result<SweepPlan> {
    // Each group's key, the filter its mapper is built with, and radii.
    let mut specs: Vec<(GroupKey, f64, Vec<f64>)> = Vec::new();
    let mut members = Vec::with_capacity(points.len());
    for p in points {
        let filter = p.config.projection_filter;
        if !(filter.is_finite() && filter > 0.0) {
            return Err(PicError::config(format!(
                "projection filter must be positive and finite, got {filter}"
            )));
        }
        if p.stride == 0 {
            return Err(PicError::config("sampling stride must be positive, got 0"));
        }
        let key = group_key(&p.config);
        let g = (specs.iter().position(|s| s.0 == key)).unwrap_or_else(|| {
            specs.push((key, filter, Vec::new()));
            specs.len() - 1
        });
        let radii = &mut specs[g].2;
        let ghost_slot = p.config.compute_ghosts.then(|| {
            let existing = (radii.iter()).position(|r| r.to_bits() == filter.to_bits());
            existing.unwrap_or_else(|| {
                radii.push(filter);
                radii.len() - 1
            })
        });
        members.push(MemberPlan {
            group: g,
            stride: p.stride,
            ghost_slot,
        });
    }
    let groups = (specs.into_iter().enumerate())
        .map(|(g, (key, filter, radii))| {
            let (mapping, ranks, _) = key;
            let output_samples = samples.map(|t| {
                (members.iter().filter(|m| m.group == g))
                    .map(|m| t.div_ceil(m.stride))
                    .sum()
            });
            check_rank_state(ranks, radii.len(), output_samples)?;
            // Mapper construction (mesh validation, decomposition) happens
            // here, once per group — not once per grid point.
            Ok(GroupPlan {
                mapper: mapping.mapper(mesh, ranks, filter)?,
                ranks,
                key,
                radii,
                fixed_tree: OnceLock::new(),
            })
        })
        .collect::<Result<_>>()?;
    Ok(SweepPlan { groups, members })
}

/// Per-rank state below which [`check_rank_state`] does not probe: any
/// host that replays at all holds it, and glibc raises its mmap threshold
/// to the size of a freed mapping up to 32 MiB, so a smaller probe would
/// change how every later allocation of the process is served (measured:
/// +14 % peak RSS on a 16 384-rank replay). Larger probes leave it alone.
const RANK_STATE_PROBE_FLOOR: usize = 32 << 20;

/// Refuse a group's rank count before anything is sized by it. Rank ids
/// are `u32`, so a count past `u32::MAX` is refused outright; otherwise
/// the group's per-rank state — the mapper's rank regions, the real
/// counts, one `(recv, sent)` histogram pair per radius and, where the
/// sample count is known, the `output_samples` dense rows of real, recv
/// and sent counts its members emit — must be reservable in one
/// `try_reserve_exact`, released at once. A count this host cannot hold
/// is a configuration error naming it, not an allocation abort deep in a
/// mapper. A state under [`RANK_STATE_PROBE_FLOOR`] is not probed.
///
/// The `u32` bound is the hard guarantee. The reservation probe is a
/// best-effort guard: whether `try_reserve_exact` refuses depends on the
/// host's overcommit mode, and the probe leaves out what an
/// [`AssignmentCache`] keeps per sample (one `real` row per assignment
/// and one `(recv, sent)` row pair per radius), so a cached replay of a
/// count that passes may still run out of memory.
fn check_rank_state(ranks: usize, radii: usize, output_samples: Option<usize>) -> Result<()> {
    if u32::try_from(ranks).is_err() {
        return Err(PicError::config(format!(
            "ranks must be at most {} (rank ids are 32-bit), got {ranks}",
            u32::MAX
        )));
    }
    let u32s_per_rank =
        (output_samples.unwrap_or(0).checked_mul(3)).and_then(|n| n.checked_add(1 + 2 * radii));
    let bytes = u32s_per_rank
        .and_then(|n| n.checked_mul(std::mem::size_of::<u32>()))
        .and_then(|n| n.checked_add(std::mem::size_of::<pic_types::Aabb>()))
        .and_then(|n| n.checked_mul(ranks));
    let reserved = bytes.is_some_and(|b| {
        b < RANK_STATE_PROBE_FLOOR || Vec::<u8>::new().try_reserve_exact(b).is_ok()
    });
    if !reserved {
        let size = bytes.map_or("more than usize::MAX".to_string(), |b| b.to_string());
        return Err(PicError::config(format!(
            "ranks {ranks} need {size} bytes of per-rank state, which cannot be allocated"
        )));
    }
    Ok(())
}

/// The accounting of `samples` full-kernel and `owner_only` owner-only
/// samples per group, less the `cached_groups` and `cached_radii` a cache
/// served, with the `migration_diffs` and `bin_cuts` the run made.
fn stats_for(
    plan: &SweepPlan,
    samples: usize,
    owner_only: usize,
    (cached_groups, cached_radii): (usize, usize),
    (migration_diffs, bin_cuts): (usize, usize),
) -> SweepStats {
    let computed = plan.groups.len() - cached_groups;
    SweepStats {
        points: plan.members.len(),
        groups: plan.groups.len(),
        samples,
        assign_passes: computed * samples,
        owner_only_passes: computed * owner_only,
        naive_assign_passes: plan.members.len() * samples,
        ghost_radii: plan.groups.iter().map(|g| g.radii.len()).sum(),
        shared_query_groups: plan.groups.iter().filter(|g| g.radii.len() > 1).count(),
        cached_groups,
        cached_radii,
        migration_diffs,
        bin_cuts,
    }
}

/// The radius-independent artifact of one (group, sample) assignment
/// pass: per-rank real counts, bin count, particle owners, and for a
/// Hilbert or load-balanced group the rank regions: everything a ghost
/// count at *any* radius needs, which makes it the radius-independent half
/// of an [`AssignmentCache`] entry — the resident prediction service keeps
/// these as registry artifacts keyed by (mesh, binning) and replays new
/// filters and strides off them without re-running the assignment. An
/// element group's regions are the same for every sample and live in its
/// plan, and a bin group has one radius, whose rows its entry holds, so
/// neither keeps regions.
#[derive(Debug, Clone)]
pub struct SampleAssignment {
    pub(crate) real: Vec<u32>,
    bin_count: Option<usize>,
    owners: Vec<Rank>,
    /// Present in a cached artifact of a group whose regions move; dropped
    /// as soon as the ghost phase is done when no cache will receive it.
    regions: Option<Vec<Aabb>>,
}

impl SampleAssignment {
    /// Approximate resident bytes, for cache budget accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.real.capacity() * std::mem::size_of::<u32>()
            + self.owners.capacity() * std::mem::size_of::<Rank>()
            + self.regions.as_ref().map_or(0, |r| r.capacity()) * std::mem::size_of::<Aabb>()
    }
}

/// One sample's per-rank `(recv, sent)` ghost histograms at one radius.
pub type GhostRow = (Vec<u32>, Vec<u32>);

/// One radius's ghost rows, shared between a replay and an
/// [`AssignmentCache`] entry: in an entry, row `s` is trace sample `s`.
pub type RadiusRows = Arc<Vec<GhostRow>>;

/// One sample's migrations: sorted `(from, to, count)` triples.
type Migrations = Vec<(u32, u32, u32)>;

/// One step's migration diffs, shared between a replay and an
/// [`AssignmentCache`] entry: in an entry, row `s` is trace sample `s`
/// diffed against sample `s - step` where a stride-`step` member retains
/// `s` (`s` a positive multiple of `step`), and empty elsewhere.
pub type DiffRows = Arc<Vec<Vec<(u32, u32, u32)>>>;

/// What the kernel made of one (group, sample): the assignment it
/// computed (`None` when a cached one was supplied) and the ghost
/// histograms parallel to the radii it was given (empty for an
/// owner-only pass).
pub(crate) struct GroupSample {
    assignment: Option<SampleAssignment>,
    ghosts: Vec<GhostRow>,
}

/// One sample's [`BinTree`], shared by the bin groups a task runs on that
/// sample: built for the first walk, kept through each walk's ghost
/// kernel, and dropped after the last.
struct SampleTree {
    tree: Option<BinTree>,
    walks_left: usize,
    cuts: usize,
}

impl SampleTree {
    /// A tree for `walks` bin group passes.
    fn new(walks: usize) -> SampleTree {
        SampleTree {
            tree: None,
            walks_left: walks,
            cuts: 0,
        }
    }

    /// One bin group's pass: its walk, then its ghost histograms at each
    /// of `radii` over the tree, and the assignment unless `assign` is
    /// false (a cached group that only lacks ghost rows).
    fn pass(
        &mut self,
        positions: &[Vec3],
        (ranks, threshold): (usize, f64),
        radii: &[f64],
        assign: bool,
    ) -> GroupSample {
        let tree = self.tree.get_or_insert_with(|| BinTree::new(positions));
        // The bin boxes stay in the tree: the walk's copy goes at once.
        let BinPartition {
            counts, assignment, ..
        } = tree.walk(ranks, threshold);
        let ghosts: Vec<GhostRow> = (radii.iter())
            .map(|&r| {
                let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
                tree.ghost_counts(r, &mut recv, &mut sent);
                (recv, sent)
            })
            .collect();
        self.walks_left = self.walks_left.saturating_sub(1);
        if self.walks_left == 0 {
            self.cuts += tree.cuts();
            self.tree = None;
        }
        // After the drop: the assignment outlives the task, so it is not
        // allocated above the tree's buffers in the allocator's heap.
        let assignment = assign.then(|| {
            let mut real = vec![0u32; ranks];
            real[..counts.len()].copy_from_slice(&counts);
            SampleAssignment {
                real,
                bin_count: Some(counts.len()),
                owners: assignment.iter().map(|&b| Rank::new(b)).collect(),
                regions: None,
            }
        });
        GroupSample { assignment, ghosts }
    }

    /// The cut attempts made, at the end of the task.
    fn cuts(self) -> usize {
        self.cuts + self.tree.map_or(0, |t| t.cuts())
    }
}

/// The per-sample kernel over the group's mapper at each of `radii`: the
/// empty list is the owner-only pass; `cached` skips the assignment phase,
/// and with no radius left to compute the call does no work at all.
///
/// A bin group walks `tree`, which callers share between every bin group
/// they run on one sample, and counts its ghosts over that tree; a cached
/// bin group that lacks its radius walks again for it. A mesh group counts
/// its ghosts over a [`RankTree`]: its plan's when its regions are fixed,
/// else one built over the sample's regions, which `keep_regions` leaves
/// in the returned artifact for a cache to receive.
fn process_group_sample(
    positions: &[Vec3],
    group: &GroupPlan,
    radii: &[f64],
    cached: Option<&SampleAssignment>,
    keep_regions: bool,
    tree: &mut SampleTree,
) -> GroupSample {
    if cached.is_some() && radii.is_empty() {
        return GroupSample {
            assignment: None,
            ghosts: Vec::new(),
        };
    }
    if let Some(threshold) = group.bin_threshold() {
        return tree.pass(positions, (group.ranks, threshold), radii, cached.is_none());
    }
    let mut computed = cached.is_none().then(|| {
        let outcome = group.mapper.assign(positions);
        let mut real = vec![0u32; group.ranks];
        for r in &outcome.ranks {
            real[r.index()] += 1;
        }
        SampleAssignment {
            real,
            bin_count: outcome.bin_count,
            owners: outcome.ranks,
            regions: (group.mapper.fixed_regions().is_none())
                .then(|| outcome.rank_regions.into_owned()),
        }
    });
    let ghosts = match cached.or(computed.as_ref()) {
        Some(a) if !radii.is_empty() => {
            let built;
            let rank_tree = match (group.mapper.fixed_regions(), &a.regions) {
                (Some(fixed), _) => group.fixed_tree.get_or_init(|| RankTree::new(fixed)),
                (None, Some(regions)) => {
                    built = RankTree::new(regions);
                    &built
                }
                (None, None) => unreachable!("a mesh assignment keeps moving regions"),
            };
            rank_tree.ghost_counts(positions, &a.owners, radii)
        }
        _ => Vec::new(),
    };
    if !keep_regions {
        if let Some(a) = &mut computed {
            a.regions = None;
        }
    }
    GroupSample {
        assignment: computed,
        ghosts,
    }
}

/// One group's replayed samples, as [`replay_groups`] leaves them. Rows
/// that came out of the cache are indexed by trace sample; computed ones
/// by slot, `r` being trace sample `full[r]`.
pub(crate) struct GroupReplay {
    assignments: Arc<Vec<SampleAssignment>>,
    /// One row set per radius slot of the group, each with whether it
    /// came out of the cache.
    ghosts: Vec<(RadiusRows, bool)>,
    /// Ownership of the owner-only samples, parallel to `owner_only`
    /// (empty when cached: the artifacts hold every sample's owners).
    pred_owners: Vec<Vec<Rank>>,
    /// Whether `assignments` came out of the cache.
    cached: bool,
    /// The cache entry's diff sets, keyed by step (empty on a miss).
    diffs: Vec<(usize, DiffRows)>,
}

impl GroupReplay {
    /// The assignment of slot `r`, trace sample `full[r]`.
    pub(crate) fn assignment(&self, r: usize, full: &[usize]) -> &SampleAssignment {
        &self.assignments[if self.cached { full[r] } else { r }]
    }

    /// The ghost histograms of radius slot `k` at slot `r`, trace sample
    /// `full[r]`.
    pub(crate) fn ghost_row(&self, k: usize, r: usize, full: &[usize]) -> &GhostRow {
        let (rows, cached) = &self.ghosts[k];
        &rows[if *cached { full[r] } else { r }]
    }
}

/// The step a member's migrations are diffed at: a full replay diffs a
/// retained sample against the previous retained one (`step = stride`); a
/// broadcast diffs each representative against its immediate trace
/// predecessor (`step = 1`).
fn diff_step(m: &MemberPlan, broadcast: bool) -> usize {
    if broadcast {
        1
    } else {
        m.stride
    }
}

/// The distinct `(group, step)` migration diff sets [`assemble`] reads,
/// sorted.
fn diff_keys(plan: &SweepPlan, broadcast: bool) -> Vec<(usize, usize)> {
    let mut keys: Vec<(usize, usize)> = (plan.members.iter())
        .map(|m| (m.group, diff_step(m, broadcast)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The resident driver: run the kernel over every (group, sample) pair
/// selected — the full kernel on `full`, an owner-only pass on
/// `owner_only` — as one flattened parallel fan-out (large samples split
/// further inside the ghost kernels), and return each group's replay with
/// the bin cuts made.
///
/// A task is one group over one run of samples from
/// [`ParticleTrace::read_runs`] (a single sample on `f64` storage; on an
/// encoded trace, consecutive samples of one keyframe block, read in one
/// pass so each frame is folded once), except that the bin groups that
/// walk (uncached, or cached without their radius) are one task per run,
/// walking one [`BinTree`] per sample, dropped after its last walk. Those
/// tasks are the heaviest, so they are handed out first. A cached group
/// with every radius resident gets no task.
///
/// A `cache` (with the mesh fingerprint its keys carry) is consulted per
/// group, counting the group's `diff_keys` steps as diff hits or misses. A
/// hit serves every selected sample's assignment, owner-only ones
/// included, the ghost rows of every radius it holds and its diff sets;
/// the kernel runs only the radii it lacks, and not at all when it lacks
/// none. An entry holds one row per trace sample, so the cache receives
/// what was computed — a new entry on a miss, added radius rows on a hit —
/// only when `full` is every sample in order.
pub(crate) fn replay_groups(
    trace: &ParticleTrace,
    plan: &SweepPlan,
    full: &[usize],
    owner_only: &[usize],
    cache: Option<(&AssignmentCache, Option<u64>)>,
    diff_keys: &[(usize, usize)],
) -> (Vec<GroupReplay>, usize) {
    let key_of = |g: &GroupPlan, fp| AssignmentKey::for_group(g.key, fp);
    let hits: Vec<Option<CachedGroup>> = (plan.groups.iter().enumerate())
        .map(|(i, g)| {
            let steps: Vec<usize> = (diff_keys.iter())
                .filter(|(dg, _)| *dg == i)
                .map(|&(_, step)| step)
                .collect();
            cache.and_then(|(c, fp)| c.get(&key_of(g, fp), &g.radii, &steps))
        })
        .collect();
    // The radii each group's kernel still runs, in slot order.
    let missing: Vec<Vec<f64>> = (plan.groups.iter().zip(&hits))
        .map(|(g, hit)| {
            let cached = |r: f64| hit.as_ref().is_some_and(|h| h.rows_at(r).is_some());
            g.radii.iter().copied().filter(|&r| !cached(r)).collect()
        })
        .collect();
    let publish = cache.filter(|_| full.iter().copied().eq(0..trace.sample_count()));
    let (nf, per_group) = (full.len(), full.len() + owner_only.len());
    let ids: Vec<usize> = (0..plan.groups.len()).collect();
    // Whether bin group `g` walks the tree at slot `j`: a cached one only
    // for the radii it lacks, which the owner-only slots do not compute.
    let walks_at = |g: usize, j: usize| {
        plan.groups[g].bin_threshold().is_some()
            && (hits[g].is_none() || (j < nf && !missing[g].is_empty()))
    };
    // Slot 0 is a full slot whenever there is one, so a group walks at
    // some slot exactly when it walks at slot 0.
    let (tree_groups, lone): (Vec<usize>, Vec<usize>) = ids.iter().partition(|&&g| walks_at(g, 0));
    // The sample at each slot `j`, and the runs of slots read in one pass.
    let slots: Vec<usize> = full.iter().chain(owner_only).copied().collect();
    let runs = trace.read_runs(&slots);
    // Each task: the groups it runs, and a run of slots.
    let mut tasks: Vec<(&[usize], &Range<usize>)> = Vec::new();
    if !tree_groups.is_empty() {
        tasks.extend(runs.iter().map(|js| (&tree_groups[..], js)));
    }
    // A cached group with every radius resident has nothing to run.
    for g in lone
        .into_iter()
        .filter(|&g| hits[g].is_none() || !missing[g].is_empty())
    {
        tasks.extend(runs.iter().map(|js| (&ids[g..=g], js)));
    }
    type Outcomes = (Option<GroupSample>, Vec<GroupSample>);
    type Done = ((Outcomes, Vec<Outcomes>), usize);
    let done: Vec<Done> = pic_types::pool::install(|| {
        (tasks.par_iter())
            .map(|&(groups, js)| {
                let mut cuts = 0;
                let reads = js.clone().zip(trace.positions_of(&slots[js.clone()]));
                let mut outcomes = reads.map(|(j, positions)| {
                    let s = slots[j];
                    let walks = groups.iter().filter(|&&g| walks_at(g, j)).count();
                    let mut tree = SampleTree::new(walks);
                    let mut run = |g: usize| {
                        let radii = if j < nf { &missing[g][..] } else { &[][..] };
                        let cached = hits[g].as_ref().map(|h| &h.assignments[s]);
                        let keep_regions = j < nf && publish.is_some();
                        let group = &plan.groups[g];
                        process_group_sample(
                            &positions,
                            group,
                            radii,
                            cached,
                            keep_regions,
                            &mut tree,
                        )
                    };
                    // A one-group slot's outcome comes back unboxed, and so
                    // does a run's first slot, so a one-sample task boxes
                    // nothing: one small vector per task, allocated here
                    // and freed by the caller's thread, measurably kept
                    // worker heap resident.
                    let outcome = match groups {
                        [g] => (Some(run(*g)), Vec::new()),
                        _ => (None, groups.iter().map(|&g| run(g)).collect()),
                    };
                    cuts += tree.cuts();
                    outcome
                });
                let first = outcomes.next().expect("a run holds a slot");
                let rest = outcomes.collect();
                ((first, rest), cuts)
            })
            .collect()
    });
    let mut bin_cuts = 0;
    let mut outcomes: Vec<Option<GroupSample>> =
        (0..plan.groups.len() * per_group).map(|_| None).collect();
    for (&(groups, js), ((first, rest), cuts)) in tasks.iter().zip(done) {
        bin_cuts += cuts;
        for (j, (one, many)) in js.clone().zip(std::iter::once(first).chain(rest)) {
            for (&g, o) in groups.iter().zip(one.into_iter().chain(many)) {
                outcomes[g * per_group + j] = Some(o);
            }
        }
    }
    let mut outcomes = (outcomes.into_iter()).map(|o| {
        o.unwrap_or(GroupSample {
            assignment: None,
            ghosts: Vec::new(),
        })
    });
    let replays = (plan.groups.iter().zip(hits).zip(missing))
        .map(|((group, hit), missing)| {
            let mut fresh = Vec::with_capacity(nf);
            let mut computed: Vec<Vec<GhostRow>> =
                (0..missing.len()).map(|_| Vec::with_capacity(nf)).collect();
            for o in outcomes.by_ref().take(nf) {
                fresh.extend(o.assignment);
                for (rows, row) in computed.iter_mut().zip(o.ghosts) {
                    rows.push(row);
                }
            }
            let pred_owners = (outcomes.by_ref().take(owner_only.len()))
                .filter_map(|o| o.assignment.map(|a| a.owners))
                .collect();
            let computed: Vec<RadiusRows> = computed.into_iter().map(Arc::new).collect();
            let mut next_computed = computed.iter();
            let ghosts = (group.radii.iter())
                .map(|&r| match hit.as_ref().and_then(|h| h.rows_at(r)) {
                    Some(rows) => (Arc::clone(rows), true),
                    None => {
                        let rows = next_computed
                            .next()
                            .expect("one row set per missing radius");
                        (Arc::clone(rows), false)
                    }
                })
                .collect();
            let cached = hit.is_some();
            let (assignments, diffs) = match hit {
                Some(h) => (h.assignments, h.diffs),
                None => (Arc::new(fresh), Vec::new()),
            };
            if let Some((c, fp)) = publish.filter(|_| !cached || !missing.is_empty()) {
                let rows = missing.iter().map(|r| r.to_bits()).zip(computed).collect();
                c.insert(key_of(group, fp), Arc::clone(&assignments), rows);
            }
            GroupReplay {
                assignments,
                ghosts,
                pred_owners,
                cached,
                diffs,
            }
        })
        .collect();
    (replays, bin_cuts)
}

/// One output workload under construction — the single place a replayed
/// (assignment, ghosts, migrations) row becomes matrix rows.
struct MemberRows {
    workload: DynamicWorkload,
    zeros: Vec<u32>,
}

impl MemberRows {
    fn new(ranks: usize) -> MemberRows {
        MemberRows {
            workload: DynamicWorkload {
                ranks,
                iterations: Vec::new(),
                real: CompMatrix::new(ranks),
                ghost_recv: CompMatrix::new(ranks),
                ghost_sent: CompMatrix::new(ranks),
                comm: CommMatrix::default(),
                bin_counts: Vec::new(),
            },
            zeros: vec![0u32; ranks],
        }
    }

    /// Append one sample: its assignment, the member's ghost row (`None`
    /// with ghosts off: zeros), iteration and migrations.
    fn push(
        &mut self,
        a: &SampleAssignment,
        ghost: Option<&GhostRow>,
        iteration: u64,
        comm: Migrations,
    ) {
        let (recv, sent) = ghost.map_or((&self.zeros, &self.zeros), |(recv, sent)| (recv, sent));
        let w = &mut self.workload;
        w.real.push_sample(&a.real);
        w.ghost_recv.push_sample(recv);
        w.ghost_sent.push_sample(sent);
        w.bin_counts.push(a.bin_count);
        w.iterations.push(iteration);
        w.comm.entries.push(comm);
    }
}

/// Assemble one workload per member from replayed slots, returning the
/// number of migration diffs it computed.
///
/// Output sample `t` (one per trace sample) takes slot `t`, or
/// slot `broadcast[t]` under a reduction plan; a member keeps every
/// `stride`-th output sample. Migrations are one diff set per
/// [`diff_keys`] entry, shared by the members that read it. A full replay
/// takes the sets its cache entries hold and diffs the rest in parallel
/// over slots, then publishes those to `cache` (an entry evicted since
/// [`replay_groups`] is skipped). A broadcast neither reads nor publishes:
/// its step-1 diffs of representatives stand in for the strided interval
/// at stride > 1, which is no full replay's diff.
fn assemble(
    plan: &SweepPlan,
    replayed: &[GroupReplay],
    trace: &ParticleTrace,
    (full, owner_only): (&[usize], &[usize]),
    broadcast: Option<&[usize]>,
    cache: Option<(&AssignmentCache, Option<u64>)>,
    keys: &[(usize, usize)],
) -> (Vec<DynamicWorkload>, usize) {
    let iterations = trace.iterations();
    let slot_of: HashMap<usize, usize> = full.iter().enumerate().map(|(r, &s)| (s, r)).collect();
    let pred_of: HashMap<usize, usize> =
        (owner_only.iter().enumerate().map(|(i, &s)| (s, i))).collect();
    let owners_at = |g: usize, sample: usize| -> Option<&[Rank]> {
        let group = &replayed[g];
        if group.cached {
            return Some(&group.assignments[sample].owners);
        }
        match slot_of.get(&sample) {
            Some(&r) => Some(&group.assignments[r].owners),
            None => (pred_of.get(&sample)).map(|&i| group.pred_owners[i].as_slice()),
        }
    };
    let resident: Vec<Option<DiffRows>> = (keys.iter())
        .map(|&(g, step)| {
            let found = replayed[g].diffs.iter().find(|(s, _)| *s == step);
            found
                .filter(|_| broadcast.is_none())
                .map(|(_, rows)| Arc::clone(rows))
        })
        .collect();
    let todo: Vec<(usize, usize)> = (keys.iter().zip(&resident))
        .filter(|(_, rows)| rows.is_none())
        .map(|(&key, _)| key)
        .collect();
    let nf = full.len();
    let computed: Vec<Option<Migrations>> = pic_types::pool::install(|| {
        (0..todo.len() * nf)
            .into_par_iter()
            .map(|i| {
                let ((g, step), r) = (todo[i / nf], i % nf);
                let read = broadcast.is_some() || r % step == 0;
                let prev = full[r].checked_sub(step).and_then(|p| owners_at(g, p));
                (prev.filter(|_| read))
                    .map(|prev| migration_pairs(prev, &replayed[g].assignment(r, full).owners))
            })
            .collect()
    });
    let diffed = computed.iter().filter(|d| d.is_some()).count();
    let mut computed = computed.into_iter().map(Option::unwrap_or_default);
    let publish = cache.filter(|_| broadcast.is_none());
    let diffs: Vec<DiffRows> = (keys.iter().zip(resident))
        .map(|(&(g, step), rows)| {
            rows.unwrap_or_else(|| {
                let rows: DiffRows = Arc::new(computed.by_ref().take(nf).collect());
                if let Some((c, fp)) = publish {
                    let key = AssignmentKey::for_group(plan.groups[g].key, fp);
                    c.insert_diffs(&key, step, Arc::clone(&rows));
                }
                rows
            })
        })
        .collect();
    let workloads = pic_types::pool::install(|| {
        plan.members
            .par_iter()
            .map(|m| {
                let g = &replayed[m.group];
                let k = keys
                    .binary_search(&(m.group, diff_step(m, broadcast.is_some())))
                    .expect("every member's key was collected");
                let mut rows = MemberRows::new(plan.groups[m.group].ranks);
                for (pos, t) in (0..iterations.len()).step_by(m.stride).enumerate() {
                    let r = broadcast.map_or(t, |b| b[t]);
                    let comm = if pos == 0 {
                        Vec::new()
                    } else {
                        diffs[k][r].clone()
                    };
                    let ghost = m.ghost_slot.map(|k| g.ghost_row(k, r, full));
                    rows.push(g.assignment(r, full), ghost, iterations[t], comm);
                }
                rows.workload
            })
            .collect()
    });
    (workloads, diffed)
}

/// What a [`replay`] runs against besides the trace and the grid. Every
/// field is optional and every combination is valid.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOptions<'a> {
    /// The element mesh the mesh-based mappings assign against (bin-based
    /// ignores it).
    pub mesh: Option<&'a ElementMesh>,
    /// Assignment artifacts of this trace: a group found here skips its
    /// assignment passes, and a replay of every sample publishes the
    /// groups it computed.
    pub cache: Option<&'a AssignmentCache>,
    /// Replay only the plan's representatives (plus owner-only passes on
    /// their predecessors, for migrations) and broadcast each over its
    /// cluster.
    pub plan: Option<&'a ReductionPlan>,
}

impl<'a> ReplayOptions<'a> {
    /// All three options at once, each `None` to leave it out.
    pub fn new(
        mesh: Option<&'a ElementMesh>,
        cache: Option<&'a AssignmentCache>,
        plan: Option<&'a ReductionPlan>,
    ) -> ReplayOptions<'a> {
        ReplayOptions { mesh, cache, plan }
    }
}

/// Replay `trace` once and produce one [`DynamicWorkload`] per sweep
/// point, in point order, plus the sharing accounting.
///
/// Without a plan, each workload is bit-identical to the straight-line
/// replay of `trace.subsample(stride)` under that point's configuration.
/// With a plan, each point's full `T`-sample series is reconstructed by
/// cluster broadcast; under [`ReductionPlan::identity`] at stride 1 that
/// is the full replay again. A cache never changes a bit.
///
/// Errors: a point whose filter is not finite and positive, whose stride
/// or rank count is zero, or whose mapping needs a missing mesh; a plan
/// that is inconsistent or built for another sample count.
///
/// ```
/// use pic_trace::{ParticleTrace, TraceMeta};
/// use pic_types::{Aabb, Vec3};
/// use pic_workload::{replay, ReplayOptions, SweepPoint, WorkloadConfig};
/// use pic_mapping::MappingAlgorithm;
///
/// let mut trace = ParticleTrace::new(TraceMeta::new(2, 100, Aabb::unit(), "demo"));
/// trace.push_positions(vec![Vec3::new(0.2, 0.5, 0.5), Vec3::new(0.3, 0.5, 0.5)])?;
/// trace.push_positions(vec![Vec3::new(0.7, 0.5, 0.5), Vec3::new(0.8, 0.5, 0.5)])?;
///
/// let point = SweepPoint::new(WorkloadConfig::new(4, MappingAlgorithm::BinBased, 0.05));
/// let (workloads, stats) = replay(&trace, &[point], &ReplayOptions::default())?;
/// assert_eq!(workloads[0].samples(), 2);
/// assert_eq!(workloads[0].real.sample_total(0), 2); // particles conserved
/// assert_eq!(stats.assign_passes, 2);
/// # Ok::<(), pic_types::PicError>(())
/// ```
pub fn replay(
    trace: &ParticleTrace,
    points: &[SweepPoint],
    opts: &ReplayOptions,
) -> Result<(Vec<DynamicWorkload>, SweepStats)> {
    let every: Vec<usize>;
    let (full, owner_only, broadcast) = match opts.plan {
        Some(plan) => {
            plan.validate()?;
            if plan.total_samples != trace.sample_count() {
                return Err(PicError::config(format!(
                    "reduction plan covers {} samples, trace has {}",
                    plan.total_samples,
                    trace.sample_count()
                )));
            }
            let preds = plan.owner_only_predecessors();
            (&plan.representatives[..], preds, Some(&plan.assignment[..]))
        }
        None => {
            every = (0..trace.sample_count()).collect();
            (&every[..], Vec::new(), None)
        }
    };
    let sweep = build_plan(points, opts.mesh, Some(trace.sample_count()))?;
    let cache = opts.cache.map(|c| (c, opts.mesh.map(mesh_fingerprint)));
    let keys = diff_keys(&sweep, broadcast.is_some());
    // A broadcast reads no diff set from the cache, so it looks up none.
    let cached_keys = if broadcast.is_some() {
        &[][..]
    } else {
        &keys[..]
    };
    let (replayed, bin_cuts) = replay_groups(trace, &sweep, full, &owner_only, cache, cached_keys);
    let slots = (full, &owner_only[..]);
    let (workloads, diffed) = assemble(&sweep, &replayed, trace, slots, broadcast, cache, &keys);
    let cached = (
        replayed.iter().filter(|g| g.cached).count(),
        (replayed.iter().flat_map(|g| &g.ghosts))
            .filter(|(_, cached)| *cached)
            .count(),
    );
    let work = (diffed, bin_cuts);
    let stats = stats_for(&sweep, full.len(), owner_only.len(), cached, work);
    Ok((workloads, stats))
}

/// [`replay`] of a grid with a mesh and no cache or plan. Kept because the
/// end-to-end benchmark pins this name (`benchmark/src/calls.rs`) until
/// ROADMAP's "Re-baseline the benchmark" unpins it.
pub fn sweep_with_stats(
    trace: &ParticleTrace,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
) -> Result<(Vec<DynamicWorkload>, SweepStats)> {
    replay(trace, points, &ReplayOptions::new(mesh, None, None))
}

/// Structural fingerprint of a mesh specification: two meshes with the
/// same domain bits, dimensions, and order assign identically under every
/// mesh-based mapping, so their fingerprints may (and do) collide — that
/// collision is exactly the sharing the [`AssignmentCache`] wants.
pub fn mesh_fingerprint(mesh: &ElementMesh) -> u64 {
    let mut bytes = Vec::with_capacity(6 * 8 + 4 * 8);
    let d = mesh.domain();
    for v in [d.min, d.max] {
        for c in [v.x, v.y, v.z] {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    for n in mesh.dims().to_array() {
        bytes.extend_from_slice(&(n as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&(mesh.order() as u64).to_le_bytes());
    pic_types::hash::fnv1a_64(&bytes)
}

/// Cache key for one group's assignment artifacts **within one trace**:
/// the assignment-identity group key plus a mesh fingerprint. Bin-based
/// partitions ignore the mesh entirely, so their keys carry no mesh
/// component and survive mesh changes. The key deliberately does *not*
/// identify the trace — an [`AssignmentCache`] is scoped to the trace it
/// was populated from (the serve registry keeps one per resident trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AssignmentKey {
    mapping: MappingAlgorithm,
    ranks: usize,
    filter_bits: Option<u64>,
    mesh_fp: Option<u64>,
}

impl AssignmentKey {
    fn for_group(key: GroupKey, mesh_fp: Option<u64>) -> AssignmentKey {
        let (mapping, ranks, filter_bits) = key;
        AssignmentKey {
            mapping,
            ranks,
            filter_bits,
            // Bin-based assignment never consults the mesh.
            mesh_fp: (mapping != MappingAlgorithm::BinBased)
                .then_some(mesh_fp)
                .flatten(),
        }
    }

    /// The key a sweep point's assignment artifacts live under, given the
    /// mesh (if any) the sweep runs against.
    pub fn for_config(cfg: &WorkloadConfig, mesh: Option<&ElementMesh>) -> AssignmentKey {
        AssignmentKey::for_group(group_key(cfg), mesh.map(mesh_fingerprint))
    }
}

/// Counters exposed by [`AssignmentCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssignmentCacheStats {
    /// Lookups served from resident artifacts.
    pub hits: u64,
    /// Lookups that required an assignment replay.
    pub misses: u64,
    /// Entries dropped to stay within the byte budget.
    pub evictions: u64,
    /// Approximate bytes currently resident.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Radius row sets currently resident, summed over entries.
    #[serde(default)]
    pub radius_rows: usize,
    /// Radius lookups served from resident rows.
    #[serde(default)]
    pub radius_hits: u64,
    /// Radius lookups that ran the ghost kernel (every radius of a missed
    /// entry included).
    #[serde(default)]
    pub radius_misses: u64,
    /// Migration diff sets currently resident, summed over entries.
    #[serde(default)]
    pub diff_sets: usize,
    /// Step lookups served from resident diff sets.
    #[serde(default)]
    pub diff_hits: u64,
    /// Step lookups whose diffs were computed (every step of a missed
    /// entry included; a reduced replay looks up none).
    #[serde(default)]
    pub diff_misses: u64,
}

/// One group's whole per-sample replay, as an [`AssignmentCache`] entry
/// holds it and [`AssignmentCache::get`] hands it out: entry `s` of
/// `assignments`, of every row set and of every diff set is trace sample
/// `s`. Cloning copies `Arc`s, never artifact data.
#[derive(Debug, Clone)]
pub struct CachedGroup {
    /// The radius-independent half: one assignment per trace sample.
    pub assignments: Arc<Vec<SampleAssignment>>,
    /// One row set per ghost radius, keyed by `f64::to_bits`. Without
    /// `assignments` (the real counts and owners) they cannot be used, so
    /// they live and are evicted with their entry.
    pub rows: Vec<(u64, RadiusRows)>,
    /// One migration diff set per step (member stride), keyed by the step.
    /// Like the rows, they live and are evicted with their entry.
    pub diffs: Vec<(usize, DiffRows)>,
}

impl CachedGroup {
    /// The rows of `radius`, if resident.
    fn rows_at(&self, radius: f64) -> Option<&RadiusRows> {
        let bits = radius.to_bits();
        self.rows
            .iter()
            .find(|(b, _)| *b == bits)
            .map(|(_, rows)| rows)
    }
}

/// Approximate resident bytes of an entry's assignments.
fn assignment_bytes(assignments: &Arc<Vec<SampleAssignment>>) -> usize {
    assignments.iter().map(|a| a.approx_bytes()).sum::<usize>()
        + assignments.capacity() * std::mem::size_of::<SampleAssignment>()
}

/// Approximate resident bytes of one radius's rows.
fn row_bytes(rows: &RadiusRows) -> usize {
    rows.capacity() * std::mem::size_of::<GhostRow>()
        + (rows.iter())
            .map(|(recv, sent)| (recv.capacity() + sent.capacity()) * std::mem::size_of::<u32>())
            .sum::<usize>()
}

/// Approximate resident bytes of one step's diffs.
fn diff_bytes(diffs: &DiffRows) -> usize {
    diffs.capacity() * std::mem::size_of::<Migrations>()
        + (diffs.iter())
            .map(|d| d.capacity() * std::mem::size_of::<(u32, u32, u32)>())
            .sum::<usize>()
}

struct CacheEntry {
    group: CachedGroup,
    bytes: usize,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<AssignmentKey, CacheEntry>,
    resident_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    radius_hits: u64,
    radius_misses: u64,
    diff_hits: u64,
    diff_misses: u64,
}

impl CacheInner {
    /// Charge `added` bytes, then evict least-recently-used entries other
    /// than `keep` until `budget` holds.
    fn settle(&mut self, added: usize, keep: &AssignmentKey, budget: usize) {
        self.resident_bytes += added;
        while self.resident_bytes > budget && self.entries.len() > 1 {
            let victim = (self.entries.iter())
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(v) = victim else { break };
            let e = self.entries.remove(&v).expect("victim vanished");
            self.resident_bytes -= e.bytes;
            self.evictions += 1;
        }
    }
}

/// Byte-budgeted LRU cache of per-sample replays, shared across concurrent
/// sweeps of **one** trace (`Send + Sync`; interior mutability behind a
/// mutex — lookups move `Arc`s, never artifact data).
///
/// An entry is one assignment group's [`CachedGroup`]: its per-sample
/// [`SampleAssignment`]s plus, per ghost radius already asked for, every
/// sample's `(recv, sent)` histograms, and per step (member stride) already
/// asked for, every sample's migration diff. [`replay`] consults it per
/// group: a hit skips the group's assignment + index replay, runs the ghost
/// kernel only for the radii the entry has no rows for and diffs only the
/// steps it has no diffs for, so a repeated grid point is a lookup, and a
/// new filter radius or stride on a resident group never touches the
/// mapper. Rows and diffs are charged to the same byte budget as the
/// assignments and evicted with them. Eviction is strict LRU by
/// lookup/insert tick; an entry larger than the whole budget is admitted
/// alone (the cache never refuses to serve the request it was asked to
/// back).
pub struct AssignmentCache {
    budget_bytes: usize,
    inner: Mutex<CacheInner>,
    /// `inner.resident_bytes`, stored under the lock after every change,
    /// so [`AssignmentCache::resident_bytes`] reads it without the lock.
    resident: AtomicUsize,
}

impl std::fmt::Debug for AssignmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("AssignmentCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &s)
            .finish()
    }
}

impl AssignmentCache {
    /// A cache that holds at most ~`budget_bytes` of artifacts.
    pub fn new(budget_bytes: usize) -> AssignmentCache {
        AssignmentCache {
            budget_bytes,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                radius_hits: 0,
                radius_misses: 0,
                diff_hits: 0,
                diff_misses: 0,
            }),
            resident: AtomicUsize::new(0),
        }
    }

    /// Look up the replay for `key`, bumping its recency on a hit, and
    /// count each of `radii` as a radius hit (its rows are resident) or a
    /// radius miss, and each of `steps` as a diff hit or miss.
    pub fn get(&self, key: &AssignmentKey, radii: &[f64], steps: &[usize]) -> Option<CachedGroup> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(e) = inner.entries.get_mut(key) else {
            inner.misses += 1;
            inner.radius_misses += radii.len() as u64;
            inner.diff_misses += steps.len() as u64;
            return None;
        };
        e.last_used = tick;
        let group = e.group.clone();
        let resident = radii
            .iter()
            .filter(|&&r| group.rows_at(r).is_some())
            .count();
        let diffs = (steps.iter())
            .filter(|&&step| group.diffs.iter().any(|(s, _)| *s == step))
            .count();
        inner.hits += 1;
        inner.radius_hits += resident as u64;
        inner.radius_misses += (radii.len() - resident) as u64;
        inner.diff_hits += diffs as u64;
        inner.diff_misses += (steps.len() - diffs) as u64;
        Some(group)
    }

    /// Publish a group's replay under `key`: a new entry, or — when `key`
    /// is resident — only the radius `rows` it lacks. The first insert of a
    /// radius wins; racing replays compute identical bits. Then evict
    /// least-recently-used entries until the budget holds; the entry just
    /// touched is never evicted by its own insertion.
    pub fn insert(
        &self,
        key: AssignmentKey,
        assignments: Arc<Vec<SampleAssignment>>,
        rows: Vec<(u64, RadiusRows)>,
    ) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Bytes this call adds: a new entry's assignments, and each row set
        // the entry did not hold yet.
        let mut added = 0;
        let entry = match inner.entries.entry(key) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                added = assignment_bytes(&assignments);
                v.insert(CacheEntry {
                    group: CachedGroup {
                        assignments,
                        rows: Vec::new(),
                        diffs: Vec::new(),
                    },
                    bytes: added,
                    last_used: tick,
                })
            }
        };
        for (bits, radius_rows) in rows {
            if entry.group.rows.iter().all(|(b, _)| *b != bits) {
                let bytes = row_bytes(&radius_rows);
                entry.bytes += bytes;
                added += bytes;
                entry.group.rows.push((bits, radius_rows));
            }
        }
        entry.last_used = tick;
        inner.settle(added, &key, self.budget_bytes);
        self.resident.store(inner.resident_bytes, Ordering::Relaxed);
    }

    /// Add the migration diffs of `step` to the entry under `key`, the
    /// same way [`AssignmentCache::insert`] adds radius rows. An entry
    /// evicted since its replay started is not re-created: diffs alone
    /// cannot serve a lookup.
    pub fn insert_diffs(&self, key: &AssignmentKey, step: usize, diffs: DiffRows) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(entry) = inner.entries.get_mut(key) else {
            return;
        };
        entry.last_used = tick;
        if entry.group.diffs.iter().any(|(s, _)| *s == step) {
            return;
        }
        let added = diff_bytes(&diffs);
        entry.bytes += added;
        entry.group.diffs.push((step, diffs));
        inner.settle(added, key, self.budget_bytes);
        self.resident.store(inner.resident_bytes, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> AssignmentCacheStats {
        let inner = self.inner.lock();
        AssignmentCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.resident_bytes,
            entries: inner.entries.len(),
            radius_rows: inner.entries.values().map(|e| e.group.rows.len()).sum(),
            radius_hits: inner.radius_hits,
            radius_misses: inner.radius_misses,
            diff_sets: inner.entries.values().map(|e| e.group.diffs.len()).sum(),
            diff_hits: inner.diff_hits,
            diff_misses: inner.diff_misses,
        }
    }

    /// Bytes the cache holds, read without taking its lock (so a caller
    /// that holds a lock of its own can weigh the cache).
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

/// Observability counters from one [`sweep_streaming`] run: how much was
/// ingested and where the pipeline's time went. Exposed because a
/// full-scale ingest runs for hours over hundreds of gigabytes (§II-D) —
/// "is it the disk, the decode, or the ghost kernel?" must be answerable
/// from the stats block alone.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Frames successfully decoded and folded into the workload.
    pub frames_decoded: usize,
    /// Bytes consumed from the trace stream, header included.
    pub bytes_read: u64,
    /// Wall-clock seconds the decoder thread spent inside `read_sample`.
    pub decode_seconds: f64,
    /// Summed busy seconds across workers in the mapping + ghost kernel.
    pub ghost_seconds: f64,
    /// Wall-clock seconds the consumer spent merging outcomes in order
    /// (including the sequential migration diff).
    pub merge_seconds: f64,
}

/// Decoded frames in flight between pipeline stages. Bounds resident
/// memory to `O(PIPELINE_DEPTH + workers)` samples regardless of trace
/// length, preserving the streaming path's reason to exist.
const PIPELINE_DEPTH: usize = 4;

/// Terminal state handed back by the decoder thread: its status plus the
/// ingestion counters only it can observe.
struct DecoderReport {
    status: Result<()>,
    frames: usize,
    bytes: u64,
    seconds: f64,
}

/// The streaming merge's migration state for one (group, stride): the
/// ownership of the last sample that stride retained, held once however
/// many members read it, and the current sample's diff against it.
struct MigrationFold {
    group: usize,
    stride: usize,
    prev_owners: Option<Arc<Vec<Rank>>>,
    row: Migrations,
}

/// The streaming driver: every sweep point sample-by-sample off one
/// [`pic_trace::TraceReader`] pass over either on-disk format —
/// bit-identical to [`replay`] of the decoded trace without a plan.
///
/// This is the path for the paper's §II-D regime, where full-scale traces
/// run to hundreds of gigabytes. A decoder thread pulls frames off the
/// reader and feeds a bounded channel; a pool of workers runs the kernel
/// once per group on each frame; the caller's thread reorders worker
/// results by sample index and folds them into one accumulator per
/// member (frame `t`'s migration diff needs frame `t − stride`'s
/// ownership, so the merge is the one inherently serial stage). Resident
/// memory is `O(PIPELINE_DEPTH + workers)` frames plus the accumulated
/// output rows: one sample × configurations, never trace length ×
/// configurations.
///
/// On a malformed or failing stream the decoder thread stops at the first
/// error, the workers drain whatever was already queued and exit, the
/// merge completes over the cleanly decoded prefix, and the decoder's
/// *positioned* error is returned. Every pipeline thread is joined before
/// this function returns: a corrupt trace fails the run, it cannot hang
/// it.
pub fn sweep_streaming<R: std::io::Read + Send>(
    mut reader: pic_trace::TraceReader<R>,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
) -> Result<(Vec<DynamicWorkload>, SweepStats, IngestStats)> {
    let plan = build_plan(points, mesh, None)?;
    let plan = &plan;
    // Worker count follows the shared-pool policy: an ambient install (a
    // bench's `--threads` override) wins, otherwise the shared pool's
    // `RAYON_NUM_THREADS`-aware size applies.
    let workers = pic_types::pool::install(rayon::current_num_threads).max(1);
    let ghost_nanos = AtomicU64::new(0);
    let ghost_nanos = &ghost_nanos;
    let bin_cuts = AtomicU64::new(0);
    let bin_cuts = &bin_cuts;

    std::thread::scope(|scope| {
        let (frame_tx, frame_rx) = sync_channel::<(usize, pic_trace::TraceSample)>(PIPELINE_DEPTH);
        let (out_tx, out_rx) =
            sync_channel::<(usize, u64, Vec<GroupSample>)>(PIPELINE_DEPTH + workers);
        // The workers share one receiver, which drops with the last of
        // them; each takes the lock only to pull a frame.
        let frame_rx = Arc::new(Mutex::new(frame_rx));

        let decoder = scope.spawn(move || -> DecoderReport {
            let mut seconds = 0.0;
            let mut frames = 0usize;
            let status = loop {
                let t0 = Instant::now();
                let next = reader.read_sample();
                seconds += t0.elapsed().as_secs_f64();
                match next {
                    Ok(Some(frame)) => {
                        // A send error means every worker hung up; stop.
                        if frame_tx.send((frames, frame)).is_err() {
                            break Ok(());
                        }
                        frames += 1;
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            DecoderReport {
                status,
                frames,
                bytes: reader.bytes_read(),
                seconds,
            }
        });

        for _ in 0..workers {
            let rx = Arc::clone(&frame_rx);
            let tx = out_tx.clone();
            scope.spawn(move || {
                // Frame-level fan-out is the parallelism here; pin each
                // worker's intra-sample kernels to one thread so the
                // stages don't oversubscribe each other.
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .expect("single-thread rayon pool");
                loop {
                    // Bound first: in a `while let` scrutinee the guard
                    // would live through the body.
                    let next = rx.lock().recv();
                    let Ok((i, frame)) = next else { break };
                    let t0 = Instant::now();
                    // The frame's bin groups share one tree.
                    let walks = (plan.groups.iter())
                        .filter(|g| g.bin_threshold().is_some())
                        .count();
                    let mut tree = SampleTree::new(walks);
                    let outcomes: Vec<GroupSample> = pool.install(|| {
                        (plan.groups.iter())
                            .map(|g| {
                                let positions = &frame.positions;
                                process_group_sample(positions, g, &g.radii, None, false, &mut tree)
                            })
                            .collect()
                    });
                    bin_cuts.fetch_add(tree.cuts() as u64, Ordering::Relaxed);
                    ghost_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if tx.send((i, frame.iteration, outcomes)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(frame_rx);
        drop(out_tx);

        let mut folds: Vec<MigrationFold> = Vec::new();
        let mut accums: Vec<(usize, MemberRows)> = (plan.members.iter())
            .map(|m| {
                let fold = (folds.iter())
                    .position(|f| (f.group, f.stride) == (m.group, m.stride))
                    .unwrap_or_else(|| {
                        folds.push(MigrationFold {
                            group: m.group,
                            stride: m.stride,
                            prev_owners: None,
                            row: Vec::new(),
                        });
                        folds.len() - 1
                    });
                (fold, MemberRows::new(plan.groups[m.group].ranks))
            })
            .collect();
        let mut merge_seconds = 0.0;
        let mut diffed = 0;
        // Reorder buffer: results stall here until their predecessors
        // land, so the fold below always sees samples in trace order. Its
        // size is bounded by the channel capacities above.
        let mut pending: BTreeMap<usize, (u64, Vec<GroupSample>)> = BTreeMap::new();
        let mut next = 0usize;
        while let Ok((i, iteration, outcomes)) = out_rx.recv() {
            let t0 = Instant::now();
            pending.insert(i, (iteration, outcomes));
            while let Some((iteration, mut outcomes)) = pending.remove(&next) {
                let mut assignments: Vec<SampleAssignment> = (outcomes.iter_mut())
                    .map(|o| o.assignment.take().expect("uncached kernel assigns"))
                    .collect();
                // Ownership is shared, not copied: every fold retaining
                // this frame holds the same vector.
                let owners: Vec<Arc<Vec<Rank>>> = (assignments.iter_mut())
                    .map(|a| Arc::new(std::mem::take(&mut a.owners)))
                    .collect();
                for f in folds.iter_mut().filter(|f| next.is_multiple_of(f.stride)) {
                    f.row = match &f.prev_owners {
                        Some(prev) => {
                            diffed += 1;
                            migration_pairs(prev, &owners[f.group])
                        }
                        None => Vec::new(),
                    };
                    f.prev_owners = Some(Arc::clone(&owners[f.group]));
                }
                for (m, (fold, rows)) in plan.members.iter().zip(&mut accums) {
                    if next.is_multiple_of(m.stride) {
                        let comm = folds[*fold].row.clone();
                        let ghost = m.ghost_slot.map(|k| &outcomes[m.group].ghosts[k]);
                        rows.push(&assignments[m.group], ghost, iteration, comm);
                    }
                }
                next += 1;
            }
            merge_seconds += t0.elapsed().as_secs_f64();
        }
        // out_rx closed ⇒ every worker has already exited; the decoder is
        // done too (its channel has no readers left). Joining here cannot
        // block on a stalled stream, so surfacing the decode error
        // (truncated frame, I/O failure) is hang-free by construction.
        let report = decoder.join().expect("trace decoder thread panicked");
        report.status?;

        let ingest = IngestStats {
            frames_decoded: report.frames,
            bytes_read: report.bytes,
            decode_seconds: report.seconds,
            ghost_seconds: ghost_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            merge_seconds,
        };
        let workloads = accums.into_iter().map(|(_, rows)| rows.workload).collect();
        let work = (diffed, bin_cuts.load(Ordering::Relaxed) as usize);
        let stats = stats_for(plan, report.frames, 0, (0, 0), work);
        Ok((workloads, stats, ingest))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator;
    use pic_grid::MeshDims;
    use pic_trace::TraceMeta;
    use pic_types::rng::SplitMix64;
    use pic_types::Aabb;

    fn make_trace(np: usize, t: usize, seed: u64) -> ParticleTrace {
        let mut rng = SplitMix64::new(seed);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "sweep-test");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let scale = 0.05 + 0.05 * k as f64;
            let drift = Vec3::new(0.03 * k as f64, 0.0, 0.0);
            let positions: Vec<Vec3> = dirs
                .iter()
                .map(|d| (Vec3::splat(0.5) + *d * scale + drift).clamp(Vec3::ZERO, Vec3::ONE))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap()
    }

    fn run(
        trace: &ParticleTrace,
        points: &[SweepPoint],
        mesh: Option<&ElementMesh>,
    ) -> Result<(Vec<DynamicWorkload>, SweepStats)> {
        replay(trace, points, &ReplayOptions::new(mesh, None, None))
    }

    fn run_cached(
        trace: &ParticleTrace,
        points: &[SweepPoint],
        mesh: Option<&ElementMesh>,
        cache: &AssignmentCache,
    ) -> Result<(Vec<DynamicWorkload>, SweepStats)> {
        let opts = ReplayOptions::new(mesh, Some(cache), None);
        replay(trace, points, &opts)
    }

    /// The oracle: what the per-config sequential reference produces for
    /// one sweep point (subsampling the trace for stride > 1).
    fn reference_for(
        trace: &ParticleTrace,
        point: &SweepPoint,
        mesh: Option<&ElementMesh>,
    ) -> DynamicWorkload {
        let sub;
        let tr = if point.stride == 1 {
            trace
        } else {
            sub = trace.subsample(point.stride);
            &sub
        };
        generator::generate_reference(tr, &point.config, mesh).unwrap()
    }

    fn assert_matches_reference(
        trace: &ParticleTrace,
        points: &[SweepPoint],
        mesh: Option<&ElementMesh>,
    ) {
        let swept = run(trace, points, mesh).unwrap().0;
        assert_eq!(swept.len(), points.len());
        for (i, (w, p)) in swept.iter().zip(points).enumerate() {
            let reference = reference_for(trace, p, mesh);
            assert_eq!(*w, reference, "point {i} diverged: {p:?}");
        }
    }

    /// `run` under pools of 1, 2, 3 and 7 threads: 1 is the sequential
    /// path, 3 and 7 leave uneven block remainders and fewer items than
    /// threads. Every result must equal `expect`.
    fn assert_same_under_every_pool<T: PartialEq + std::fmt::Debug>(
        expect: &T,
        run: impl Fn() -> T,
    ) {
        for threads in [1usize, 2, 3, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(&pool.install(&run), expect, "{threads} thread(s)");
        }
    }

    #[test]
    fn generate_with_mesh_is_bit_equal_across_thread_counts() {
        // A few thousand particles per sample, and fewer samples (3) than
        // the widest pool's threads.
        let tr = make_trace(4173, 3, 11);
        let m = mesh();
        for mapping in [MappingAlgorithm::BinBased, MappingAlgorithm::ElementBased] {
            let cfg = WorkloadConfig::new(24, mapping, 0.05);
            let oracle = generator::generate_reference(&tr, &cfg, Some(&m)).unwrap();
            assert_same_under_every_pool(&oracle, || {
                generator::generate_with_mesh(&tr, &cfg, Some(&m)).unwrap()
            });
        }
    }

    #[test]
    fn two_group_sweep_is_bit_equal_across_thread_counts() {
        // A bin group (costly assignment) next to an element group (cheap,
        // two shared radii, one strided): the uneven items the scheduler
        // rebalances.
        let tr = make_trace(600, 9, 12);
        let m = mesh();
        let points = vec![
            SweepPoint::new(WorkloadConfig::new(32, MappingAlgorithm::BinBased, 0.03)),
            SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::ElementBased,
                0.02,
            )),
            SweepPoint::with_stride(
                WorkloadConfig::new(16, MappingAlgorithm::ElementBased, 0.06),
                2,
            ),
        ];
        let oracle: Vec<DynamicWorkload> = points
            .iter()
            .map(|p| reference_for(&tr, p, Some(&m)))
            .collect();
        let expect_stats = run(&tr, &points, Some(&m)).unwrap().1;
        assert_eq!(expect_stats.groups, 2);
        assert_same_under_every_pool(&(oracle, expect_stats), || {
            run(&tr, &points, Some(&m)).unwrap()
        });
    }

    #[test]
    fn encoded_trace_replays_in_runs_as_its_decoded_samples() {
        use pic_trace::codec::{decode_trace, Precision};
        use pic_trace::trace::KEYFRAME_SPACING;
        // Three keyframe blocks, the last one partial; a strided point
        // reads every third sample of each block in one run.
        let tr = make_trace(300, 2 * KEYFRAME_SPACING + 5, 13);
        let bytes = pic_trace::compact::encode_compact(&tr, Precision::F32).unwrap();
        let encoded = decode_trace(&bytes).unwrap();
        let all: Vec<usize> = (0..encoded.sample_count()).collect();
        assert_eq!(encoded.read_runs(&all).len(), 3);
        let mut decoded = ParticleTrace::new(encoded.meta().clone());
        for s in encoded.samples() {
            decoded.push_sample(s.into_owned()).unwrap();
        }
        let m = mesh();
        let points = vec![
            SweepPoint::new(WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.03)),
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05)),
            SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::ElementBased,
                0.02,
            )),
            SweepPoint::with_stride(
                WorkloadConfig::new(16, MappingAlgorithm::HilbertOrdered, 0.04),
                3,
            ),
        ];
        let expect = run(&decoded, &points, Some(&m)).unwrap();
        assert_same_under_every_pool(&expect, || run(&encoded, &points, Some(&m)).unwrap());
        let series = |tr: &ParticleTrace| generator::unbounded_bin_series(tr, &[0.03, 0.1]);
        assert_eq!(series(&encoded).unwrap(), series(&decoded).unwrap());
    }

    #[test]
    fn filter_sweep_matches_per_config_reference() {
        let tr = make_trace(400, 5, 1);
        let m = mesh();
        let points: Vec<SweepPoint> = [0.01, 0.03, 0.08, 0.15]
            .iter()
            .map(|&f| SweepPoint::new(WorkloadConfig::new(16, MappingAlgorithm::ElementBased, f)))
            .collect();
        assert_matches_reference(&tr, &points, Some(&m));
    }

    #[test]
    fn mixed_grid_matches_reference_for_all_mappings() {
        let tr = make_trace(300, 4, 2);
        let m = mesh();
        let mut points = Vec::new();
        for mapping in [
            MappingAlgorithm::BinBased,
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
            MappingAlgorithm::LoadBalanced,
        ] {
            for ranks in [4, 16] {
                for filter in [0.02, 0.06] {
                    points.push(SweepPoint::new(WorkloadConfig::new(ranks, mapping, filter)));
                }
            }
        }
        assert_matches_reference(&tr, &points, Some(&m));
    }

    #[test]
    fn strides_match_subsampled_reference() {
        let tr = make_trace(250, 9, 3);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.04);
        let mut points = vec![
            SweepPoint::new(cfg.clone()),
            SweepPoint::with_stride(cfg.clone(), 2),
            SweepPoint::with_stride(cfg.clone(), 4),
        ];
        assert_matches_reference(&tr, &points, None);
        // Stride 0 is refused, naming the value, never run as stride 1.
        points.push(SweepPoint::with_stride(cfg, 0));
        let err = run(&tr, &points, None).expect_err("stride 0 accepted");
        assert!(
            err.to_string().contains("stride must be positive, got 0"),
            "{err}"
        );
    }

    #[test]
    fn ghost_toggle_and_weird_radii_match_reference() {
        let tr = make_trace(200, 3, 4);
        let m = mesh();
        let mut off = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.05);
        off.compute_ghosts = false;
        let points = vec![
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.05)),
            SweepPoint::new(off),
        ];
        assert_matches_reference(&tr, &points, Some(&m));
        // A filter that is not finite and positive is refused up front,
        // under every mapping, naming the value.
        for mapping in [MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased] {
            for filter in [0.0, -0.3, f64::NAN, f64::INFINITY] {
                let bad = SweepPoint::new(WorkloadConfig::new(8, mapping, filter));
                let err = run(&tr, &[points[0].clone(), bad], Some(&m))
                    .expect_err("invalid filter accepted")
                    .to_string();
                assert!(
                    err.contains(&format!("got {filter}")),
                    "{mapping:?} {filter}: {err}"
                );
            }
        }
    }

    #[test]
    fn grouping_collapses_shared_assignments() {
        let tr = make_trace(150, 3, 5);
        let m = mesh();
        let mut points = Vec::new();
        for filter in [0.01, 0.02, 0.04, 0.08] {
            points.push(SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::ElementBased,
                filter,
            )));
            // bin-based groups carry the filter in their key: no collapse
            points.push(SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::BinBased,
                filter,
            )));
        }
        let (_, stats) = run(&tr, &points, Some(&m)).unwrap();
        assert_eq!(stats.points, 8);
        // 1 element-based group (4 radii shared) + 4 bin-based groups
        assert_eq!(stats.groups, 5);
        assert_eq!(stats.samples, 3);
        assert_eq!(stats.assign_passes, 15);
        assert_eq!(stats.naive_assign_passes, 24);
        assert_eq!(stats.ghost_radii, 4 + 4);
        assert_eq!(stats.shared_query_groups, 1);
    }

    fn bin_point(ranks: usize, filter: f64) -> SweepPoint {
        SweepPoint::new(WorkloadConfig::new(
            ranks,
            MappingAlgorithm::BinBased,
            filter,
        ))
    }

    #[test]
    fn rank_scan_cuts_as_much_as_its_largest_point() {
        // At one filter the cuts for R ranks are a prefix of those for any
        // larger count, so sixteen counts cost the largest one's cuts.
        let tr = make_trace(2000, 3, 21);
        let points: Vec<SweepPoint> = (1..=16).map(|k| bin_point(8 * k, 0.01)).collect();
        let (_, scan) = run(&tr, &points, None).unwrap();
        let (_, largest) = run(&tr, &points[15..], None).unwrap();
        assert!(largest.bin_cuts >= 3 * 127, "{}", largest.bin_cuts);
        assert_eq!(scan.bin_cuts, largest.bin_cuts);
        assert_eq!(scan.groups, 16);
        assert_matches_reference(&tr, &points, None);
    }

    #[test]
    fn bin_grid_shares_one_tree_per_sample() {
        // A 2 x 3 (ranks x filter) grid next to a mesh group: the bin groups
        // of a sample walk one tree, on every driver, and the bits are
        // those of each point alone.
        let tr = make_trace(1500, 3, 22);
        let m = mesh();
        let mut points: Vec<SweepPoint> = [16, 64]
            .iter()
            .flat_map(|&r| [0.01, 0.02, 0.04].map(|f| bin_point(r, f)))
            .collect();
        points.push(SweepPoint::new(WorkloadConfig::new(
            16,
            MappingAlgorithm::ElementBased,
            0.02,
        )));
        let (grid, stats) = run(&tr, &points, Some(&m)).unwrap();
        let alone: Vec<SweepStats> = (points.iter())
            .map(|p| run(&tr, std::slice::from_ref(p), Some(&m)).unwrap().1)
            .collect();
        assert_eq!(alone[6].bin_cuts, 0, "a mesh group cuts nothing");
        let sum: usize = alone.iter().map(|s| s.bin_cuts).sum();
        assert!(
            2 * stats.bin_cuts <= sum,
            "{} cuts shared, {sum} alone",
            stats.bin_cuts
        );
        let max = alone.iter().map(|s| s.bin_cuts).max().unwrap();
        assert!(stats.bin_cuts >= max);
        assert_matches_reference(&tr, &points, Some(&m));

        let bytes = pic_trace::codec::encode_trace(&tr, pic_trace::codec::Precision::F64).unwrap();
        let reader = pic_trace::TraceReader::new(&bytes[..]).unwrap();
        let (streamed, streamed_stats, _) = sweep_streaming(reader, &points, Some(&m)).unwrap();
        assert_eq!((streamed, streamed_stats.bin_cuts), (grid, stats.bin_cuts));

        // A cached bin group walks no tree: a warm replay cuts nothing, and
        // with one group evicted only that group's walks cut again.
        let cache = AssignmentCache::new(usize::MAX);
        assert_eq!(run_cached(&tr, &points, Some(&m), &cache).unwrap().1, stats);
        let (_, warm) = run_cached(&tr, &points, Some(&m), &cache).unwrap();
        assert_eq!(warm.bin_cuts, 0);
        let (_, fresh) = run_cached(&tr, &[bin_point(32, 0.02)], Some(&m), &cache).unwrap();
        assert_eq!(
            fresh.bin_cuts,
            run(&tr, &[bin_point(32, 0.02)], None).unwrap().1.bin_cuts
        );
    }

    #[test]
    fn streaming_sweep_surfaces_decode_errors() {
        use pic_trace::codec::{encode_trace, Precision};
        let tr = make_trace(100, 4, 7);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let truncated = &bytes[..bytes.len() - 7];
        let reader = pic_trace::TraceReader::new(truncated).unwrap();
        let points = vec![SweepPoint::new(WorkloadConfig::new(
            8,
            MappingAlgorithm::BinBased,
            0.05,
        ))];
        assert!(sweep_streaming(reader, &points, None).is_err());
    }

    #[test]
    fn config_errors_mirror_per_config_path() {
        let tr = make_trace(50, 2, 8);
        // mesh-requiring mapping without a mesh
        let points = vec![SweepPoint::new(WorkloadConfig::new(
            4,
            MappingAlgorithm::ElementBased,
            0.05,
        ))];
        assert!(run(&tr, &points, None).is_err());
        // zero ranks
        let bad = WorkloadConfig {
            ranks: 0,
            mapping: MappingAlgorithm::BinBased,
            projection_filter: 0.1,
            compute_ghosts: false,
        };
        assert!(run(&tr, &[SweepPoint::new(bad)], None).is_err());
    }

    #[test]
    fn empty_point_list_and_empty_trace() {
        let tr = make_trace(50, 2, 9);
        assert!(run(&tr, &[], None).unwrap().0.is_empty());
        let empty = ParticleTrace::new(TraceMeta::new(5, 100, Aabb::unit(), "empty"));
        let points = vec![SweepPoint::new(WorkloadConfig::new(
            4,
            MappingAlgorithm::BinBased,
            0.1,
        ))];
        let w = run(&empty, &points, None).unwrap().0;
        assert_eq!(w[0].samples(), 0);
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_skips_assignment() {
        let tr = make_trace(300, 4, 11);
        let m = mesh();
        let mut points = Vec::new();
        for mapping in [
            MappingAlgorithm::BinBased,
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
        ] {
            for filter in [0.02, 0.06] {
                points.push(SweepPoint::new(WorkloadConfig::new(8, mapping, filter)));
            }
        }
        points.push(SweepPoint::with_stride(
            WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.06),
            2,
        ));
        let baseline = run(&tr, &points, Some(&m)).unwrap().0;

        let cache = AssignmentCache::new(64 << 20);
        let (cold, cold_stats) = run_cached(&tr, &points, Some(&m), &cache).unwrap();
        assert_eq!(cold, baseline);
        assert_eq!(cold_stats.cached_groups, 0);
        assert_eq!(cold_stats.assign_passes, cold_stats.groups * 4);

        assert_eq!(cold_stats.cached_radii, 0);
        assert_eq!(cache.stats().radius_rows, cold_stats.ghost_radii);
        // Four groups, the element group at strides 1 and 2: five diff
        // sets, each published; 3 + 3 + 3 + 3 + 1 samples diffed.
        assert_eq!(cache.stats().diff_sets, 5);
        assert_eq!(cold_stats.migration_diffs, 13);

        // A repeat is a lookup: every group and every radius slot served.
        let (warm, warm_stats) = run_cached(&tr, &points, Some(&m), &cache).unwrap();
        assert_eq!(warm, baseline);
        assert_eq!(warm_stats.cached_groups, warm_stats.groups);
        assert_eq!(warm_stats.cached_radii, warm_stats.ghost_radii);
        assert_eq!(warm_stats.assign_passes, 0);
        let cs = cache.stats();
        assert_eq!(cs.hits, warm_stats.groups as u64);
        assert_eq!(cs.misses, cold_stats.groups as u64);
        assert!(cs.resident_bytes > 0 && cs.entries > 0);
        assert_eq!(cs.radius_hits, warm_stats.ghost_radii as u64);
        assert_eq!(cs.radius_misses, cold_stats.ghost_radii as u64);
        assert_eq!(warm_stats.migration_diffs, 0);
        assert_eq!((cs.diff_hits, cs.diff_misses, cs.diff_sets), (5, 5, 5));

        // A new filter radius on a resident mesh-based group skips the
        // assignment and runs the kernel for that radius alone, which the
        // entry then keeps.
        let fresh = vec![SweepPoint::new(WorkloadConfig::new(
            8,
            MappingAlgorithm::ElementBased,
            0.11,
        ))];
        let bytes = cache.stats().resident_bytes;
        let (w, s) = run_cached(&tr, &fresh, Some(&m), &cache).unwrap();
        assert_eq!(w[0], reference_for(&tr, &fresh[0], Some(&m)));
        assert_eq!(
            (s.cached_groups, s.cached_radii, s.assign_passes),
            (1, 0, 0)
        );
        let cs = cache.stats();
        assert_eq!(cs.hits, warm_stats.groups as u64 + 1);
        assert_eq!(cs.radius_rows, cold_stats.ghost_radii + 1);
        assert!(cs.resident_bytes > bytes, "added rows are charged");
        let (again, s) = run_cached(&tr, &fresh, Some(&m), &cache).unwrap();
        assert_eq!(again, w);
        assert_eq!((s.cached_groups, s.cached_radii), (1, 1));
        assert_eq!(s.migration_diffs, 0);

        // A new stride on a resident group diffs that step alone (sample
        // 3 against sample 0) and the entry keeps it.
        let strided = vec![SweepPoint::with_stride(
            WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.06),
            3,
        )];
        let bytes = cache.stats().resident_bytes;
        let (w, s) = run_cached(&tr, &strided, Some(&m), &cache).unwrap();
        assert_eq!(w[0], reference_for(&tr, &strided[0], Some(&m)));
        assert_eq!((s.cached_radii, s.migration_diffs), (1, 1));
        let cs = cache.stats();
        assert_eq!(cs.diff_sets, 6);
        assert!(cs.resident_bytes > bytes, "added diffs are charged");
        let (again, s) = run_cached(&tr, &strided, Some(&m), &cache).unwrap();
        assert_eq!((again, s.migration_diffs), (w, 0));
    }

    #[test]
    fn rank_counts_the_host_cannot_hold_are_refused() {
        let tr = make_trace(50, 2, 15);
        let point = |ranks| {
            vec![SweepPoint::new(WorkloadConfig::new(
                ranks,
                MappingAlgorithm::BinBased,
                0.05,
            ))]
        };
        // Rank ids are u32: a larger count is refused on every door,
        // naming the count, before the mapper sizes anything by it.
        for ranks in [1usize << 32, 1 << 40] {
            let err = run(&tr, &point(ranks), None)
                .expect_err("accepted")
                .to_string();
            assert!(err.contains(&format!("got {ranks}")), "{err}");
            let cache = AssignmentCache::new(usize::MAX);
            assert!(run_cached(&tr, &point(ranks), None, &cache).is_err());
            let bytes =
                pic_trace::codec::encode_trace(&tr, pic_trace::codec::Precision::F64).unwrap();
            let reader = pic_trace::TraceReader::new(&bytes[..]).unwrap();
            let err = sweep_streaming(reader, &point(ranks), None).expect_err("accepted");
            assert!(err.to_string().contains(&format!("got {ranks}")), "{err}");
        }
        // A count within u32 whose state cannot be reserved: past the
        // address space, and past usize.
        let max = u32::MAX as usize;
        let err = check_rank_state(max, 1, Some(10_000))
            .unwrap_err()
            .to_string();
        assert!(err.contains("ranks 4294967295 need"), "{err}");
        let err = check_rank_state(max, 1, Some(usize::MAX / 2))
            .unwrap_err()
            .to_string();
        assert!(err.contains("more than usize::MAX"), "{err}");
        // Idle ranks (more ranks than particles) stay admitted.
        assert!(run(&tr, &point(500), None).is_ok());
    }

    #[test]
    fn cache_eviction_recomputes_identically() {
        let tr = make_trace(200, 3, 12);
        let m = mesh();
        let mk = |ranks| {
            vec![SweepPoint::new(WorkloadConfig::new(
                ranks,
                MappingAlgorithm::ElementBased,
                0.05,
            ))]
        };
        // A budget of one entry: every new rank count evicts the previous.
        let one = {
            let probe = AssignmentCache::new(usize::MAX);
            run_cached(&tr, &mk(4), Some(&m), &probe).unwrap();
            probe.stats().resident_bytes
        };
        let cache = AssignmentCache::new(one + one / 2);
        let (a1, _) = run_cached(&tr, &mk(4), Some(&m), &cache).unwrap();
        for ranks in [8, 16, 32] {
            run_cached(&tr, &mk(ranks), Some(&m), &cache).unwrap();
        }
        assert!(cache.stats().evictions > 0, "budget never forced eviction");
        // Re-ingesting the evicted key replays to bit-identical artifacts
        // and output (content-address stability of the sweep kernels).
        let (a2, s2) = run_cached(&tr, &mk(4), Some(&m), &cache).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(s2.cached_groups, 0);
        let (a3, s3) = run_cached(&tr, &mk(4), Some(&m), &cache).unwrap();
        assert_eq!(a1, a3);
        assert_eq!(s3.cached_groups, 1);
    }

    #[test]
    fn reduced_replay_reads_the_cache_but_never_publishes() {
        let tr = make_trace(200, 6, 14);
        let m = mesh();
        let points = vec![
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.05)),
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05)),
        ];
        let plan = ReductionPlan::new(6, vec![2, 4], vec![0, 0, 0, 1, 1, 1]).unwrap();
        let reduced = |cache| ReplayOptions::new(Some(&m), cache, Some(&plan));
        let (expect, cold_stats) = replay(&tr, &points, &reduced(None)).unwrap();
        assert_eq!(
            (cold_stats.assign_passes, cold_stats.owner_only_passes),
            (4, 4)
        );

        // A cold cache: the replay covered two samples of six, so nothing
        // is published.
        let cache = AssignmentCache::new(usize::MAX);
        let (cold, stats) = replay(&tr, &points, &reduced(Some(&cache))).unwrap();
        assert_eq!(cold, expect);
        assert_eq!(stats, cold_stats);
        assert_eq!(cache.stats().entries, 0);

        // After a full replay publishes both groups, the reduced replay is
        // served from hits, predecessors included, with the same bits.
        run_cached(&tr, &points, Some(&m), &cache).unwrap();
        assert_eq!(cache.stats().entries, 2);
        let before = cache.stats();
        assert_eq!(before.diff_sets, 2);
        let (warm, stats) = replay(&tr, &points, &reduced(Some(&cache))).unwrap();
        assert_eq!(warm, expect);
        assert_eq!(stats.cached_groups, 2);
        assert_eq!((stats.assign_passes, stats.owner_only_passes), (0, 0));
        // Its step-1 diffs of representatives are its own: it diffs them
        // (two representatives per group) and neither reads nor publishes.
        assert_eq!(stats.migration_diffs, 4);
        let after = cache.stats();
        assert_eq!(
            (after.diff_sets, after.diff_hits, after.diff_misses),
            (before.diff_sets, before.diff_hits, before.diff_misses)
        );
        assert_eq!(after.resident_bytes, before.resident_bytes);
    }

    #[test]
    fn assignment_keys_separate_meshes_but_not_for_bin_based() {
        let m1 = mesh();
        let m2 = ElementMesh::new(Aabb::unit(), MeshDims::cube(8), 5).unwrap();
        let eb = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.05);
        let bb = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
        assert_ne!(
            AssignmentKey::for_config(&eb, Some(&m1)),
            AssignmentKey::for_config(&eb, Some(&m2))
        );
        assert_eq!(
            AssignmentKey::for_config(&bb, Some(&m1)),
            AssignmentKey::for_config(&bb, Some(&m2))
        );
        assert_eq!(
            AssignmentKey::for_config(&bb, Some(&m1)),
            AssignmentKey::for_config(&bb, None)
        );
        assert_eq!(mesh_fingerprint(&m1), mesh_fingerprint(&mesh()));
    }

    #[test]
    fn concurrent_cached_sweeps_are_bit_identical() {
        let tr = make_trace(250, 3, 13);
        let m = mesh();
        let points: Vec<SweepPoint> = [0.02, 0.05, 0.09]
            .iter()
            .map(|&f| SweepPoint::new(WorkloadConfig::new(12, MappingAlgorithm::ElementBased, f)))
            .collect();
        let baseline = run(&tr, &points, Some(&m)).unwrap().0;
        let cache = AssignmentCache::new(64 << 20);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| run_cached(&tr, &points, Some(&m), &cache).unwrap().0))
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), baseline);
            }
        });
    }

    #[test]
    fn large_sample_counts_every_radius_over_the_rank_tree() {
        // A few thousand particles, three radii per mesh group's one join,
        // under every mesh mapping: a fixed tree (element) and trees built
        // per sample (Hilbert, load-balanced), the latter at more ranks
        // than the mesh's 64 elements.
        let tr = make_trace(4153, 2, 10);
        let m = mesh();
        let mut points = Vec::new();
        for (mapping, ranks) in [
            (MappingAlgorithm::ElementBased, 24),
            (MappingAlgorithm::HilbertOrdered, 37),
            (MappingAlgorithm::LoadBalanced, 90),
        ] {
            for f in [0.02, 0.09, 0.05] {
                points.push(SweepPoint::new(WorkloadConfig::new(ranks, mapping, f)));
            }
        }
        assert_matches_reference(&tr, &points, Some(&m));
    }
}
