//! The mini PIC application driver.
//!
//! [`MiniPic`] advances the particle population through the PIC solver loop
//! on a single process with *simulated ranks*. Off-sample steps advance only
//! the particle state (interpolation → equation solver → pusher); at every
//! sample step the full instrumented loop runs rank-by-rank, producing the
//! trace frame, the ground-truth workload, and kernel timing records.
//!
//! Under [`TimingMode::Oracle`](crate::config::TimingMode) the two stand-in
//! kernels whose results nothing reads (`fluid_solver`, `projection`) are
//! not executed: their seconds come from the oracle like every kernel's.
//! Under wall-clock timing they run and are timed, because that path
//! produces measured training data. Neither choice moves a trace bit.

use crate::clock;
use crate::config::SimConfig;
use crate::field::FluidField;
use crate::instrument::{KernelKind, Recorder, WorkloadParams};
use crate::kernels::{self, KernelContext};
use crate::oracle::CostOracle;
use crate::particles::{CellList, ParticleSet};
use pic_des::MachineSpec;
use pic_grid::gll::GllRule;
use pic_grid::{ElementMesh, RcbDecomposition};
use pic_mapping::{MappingAlgorithm, MappingOutcome, ParticleMapper, RegionIndex};
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::{ElementId, PicError, Rank, Result, Vec3};
use std::time::Instant;

/// Ground-truth workload observed at one sample step.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthSample {
    /// Step (iteration) index of the sample.
    pub iteration: u64,
    /// Real particles residing on each rank.
    pub real_counts: Vec<u32>,
    /// Ghost particles received by each rank.
    pub ghost_recv_counts: Vec<u32>,
    /// Ghost copies sent by each rank (created from its residents).
    pub ghost_sent_counts: Vec<u32>,
    /// Bins generated at this sample (bin-based mapping only).
    pub bin_count: Option<usize>,
    /// Sparse particle migrations `(from, to, count)` since the previous
    /// sample, sorted lexicographically. Empty at the first sample.
    pub migrations: Vec<(u32, u32, u32)>,
    /// Observed per-rank kernel times, indexed `[rank][k]` with `k` in
    /// [`KernelKind::ALL`] order.
    pub kernel_seconds: Vec<[f64; 6]>,
}

/// All ground-truth samples of one run.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Rank count.
    pub ranks: usize,
    /// Elements per rank (static — RCB decomposition).
    pub elements_per_rank: Vec<u32>,
    /// One record per trace sample.
    pub samples: Vec<GroundTruthSample>,
}

impl GroundTruth {
    /// Resource utilization: the fraction of ranks holding at least one
    /// real particle at some sample (paper §II-A / Fig 9).
    pub fn utilization(&self) -> f64 {
        if self.ranks == 0 || self.samples.is_empty() {
            return 0.0;
        }
        let mut ever = vec![false; self.ranks];
        for s in &self.samples {
            for (r, &c) in s.real_counts.iter().enumerate() {
                if c > 0 {
                    ever[r] = true;
                }
            }
        }
        ever.iter().filter(|&&e| e).count() as f64 / self.ranks as f64
    }

    /// Total migrated particles over the whole run.
    pub fn total_migrations(&self) -> u64 {
        self.samples
            .iter()
            .flat_map(|s| s.migrations.iter())
            .map(|&(_, _, c)| c as u64)
            .sum()
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// The particle trace (DWG input).
    pub trace: ParticleTrace,
    /// Ground-truth workload (DWG validation target).
    pub ground_truth: GroundTruth,
    /// Kernel timing records (Model Generator training data).
    pub recorder: Recorder,
    /// The application clock's total, `Σ iteration_seconds`; `None` when
    /// [`SimConfig::clock`] is off.
    pub application_seconds: Option<f64>,
    /// The application clock's seconds of every iteration, in step order
    /// (empty when the clock is off).
    pub iteration_seconds: Vec<f64>,
}

/// The mini PIC application.
pub struct MiniPic {
    cfg: SimConfig,
    mesh: ElementMesh,
    gll: GllRule,
    decomp: RcbDecomposition,
    rank_elements: Vec<Vec<ElementId>>,
    mapper: Box<dyn ParticleMapper>,
    field: Box<dyn FluidField>,
    particles: ParticleSet,
    oracle: Option<CostOracle>,
    time: f64,
}

impl MiniPic {
    /// Build the application from a validated configuration.
    pub fn new(cfg: SimConfig) -> Result<MiniPic> {
        cfg.validate()?;
        let mesh = ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order)?;
        let gll = GllRule::new(cfg.order);
        let decomp = RcbDecomposition::decompose(&mesh, cfg.ranks)?;
        let rank_elements = Rank::all(cfg.ranks)
            .map(|r| decomp.elements_of_rank(r))
            .collect();
        let mapper = build_mapper(cfg.mapping, &mesh, cfg.ranks, cfg.projection_filter)?;
        let field = cfg.scenario.field(cfg.domain);
        let particles = cfg
            .scenario
            .init_particles(cfg.domain, cfg.particles, cfg.seed);
        let oracle = cfg.timing.oracle();
        Ok(MiniPic {
            cfg,
            mesh,
            gll,
            decomp,
            rank_elements,
            mapper,
            field,
            particles,
            oracle,
            time: 0.0,
        })
    }

    /// The configuration this app was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The element mesh.
    pub fn mesh(&self) -> &ElementMesh {
        &self.mesh
    }

    /// The static element decomposition (fluid workload).
    pub fn decomposition(&self) -> &RcbDecomposition {
        &self.decomp
    }

    /// Current particle positions.
    pub fn positions(&self) -> &[Vec3] {
        &self.particles.position
    }

    /// Run the configured number of steps, producing trace, ground truth,
    /// and timing records.
    pub fn run(mut self) -> Result<SimOutput> {
        let meta = TraceMeta::new(
            self.cfg.particles,
            self.cfg.sample_interval as u32,
            self.cfg.domain,
            format!(
                "scenario={} mapping={} seed={}",
                self.cfg.scenario, self.cfg.mapping, self.cfg.seed
            ),
        );
        let mut trace = ParticleTrace::new(meta);
        let mut ground_truth = GroundTruth {
            ranks: self.cfg.ranks,
            elements_per_rank: self
                .decomp
                .element_counts()
                .iter()
                .map(|&c| c as u32)
                .collect(),
            samples: Vec::new(),
        };
        let mut recorder = Recorder::new();
        let mut prev_owners: Option<Vec<Rank>> = None;
        let mut clock = (self.cfg.clock.clone()).map(|machine| Clock {
            machine,
            owners: None,
            seconds: Vec::with_capacity(self.cfg.steps),
        });

        for step in 0..self.cfg.steps {
            if step % self.cfg.sample_interval == 0 {
                // The trace frame must capture the positions the mapping
                // (and therefore the ground-truth workload) is computed
                // from — i.e. *before* this step's pusher phase runs.
                trace.push_sample(pic_trace::TraceSample {
                    iteration: step as u64,
                    positions: self.particles.position.clone(),
                })?;
                let sample =
                    self.sample_step(step as u64, &mut recorder, prev_owners.as_deref())?;
                if let Some(clock) = &mut clock {
                    clock.tick(&sample.0.kernel_seconds, sample.1.clone())?;
                }
                prev_owners = Some(sample.1);
                ground_truth.samples.push(sample.0);
                // the sample step also advanced the particles
            } else {
                if let Some(clock) = &mut clock {
                    let (kernel_seconds, owners) = self.census(step as u64);
                    clock.tick(&kernel_seconds, owners)?;
                }
                self.motion_step();
            }
            self.check_finite(step)?;
            self.time += self.cfg.dt;
        }

        let iteration_seconds = clock.map(|c| c.seconds).unwrap_or_default();
        Ok(SimOutput {
            trace,
            ground_truth,
            recorder,
            application_seconds: (self.cfg.clock.is_some())
                .then(|| iteration_seconds.iter().sum::<f64>()),
            iteration_seconds,
        })
    }

    /// Refuse a state the push left non-finite, naming the first particle:
    /// an ill-conditioned configuration (a huge `dt` against a short
    /// `drag_tau`, say) is a simulation error, not a malformed trace.
    fn check_finite(&self, step: usize) -> Result<()> {
        let p = &self.particles;
        match (0..p.len()).find(|&i| !(p.position[i].is_finite() && p.velocity[i].is_finite())) {
            None => Ok(()),
            Some(i) => Err(PicError::sim(format!(
                "particle {i} left the finite range at step {step} \
                 (position {:?}, velocity {:?}) with dt = {:?} and drag_tau = {:?}",
                p.position[i].to_array(),
                p.velocity[i].to_array(),
                self.cfg.dt,
                self.cfg.drag_tau
            ))),
        }
    }

    /// The kernel seconds every rank observes at `iteration`, off the
    /// samples, and the ownership they are counted under: the sample
    /// step's counts and oracle observations without its kernels. The
    /// application clock's view of that iteration.
    fn census(&self, iteration: u64) -> (Vec<[f64; 6]>, Vec<Rank>) {
        let outcome = self.mapper.assign(&self.particles.position);
        let ghosts = self.ghosts(&outcome);
        let kernel_seconds = self.kernel_seconds(iteration, &ghosts, None, |_, _, _| {});
        (kernel_seconds, outcome.ranks)
    }

    /// Who holds and who ghosts what under `outcome`, with the wall time
    /// of each source rank's sphere queries (`create_ghost_particles`).
    fn ghosts(&self, outcome: &MappingOutcome) -> Ghosts {
        let ranks = self.cfg.ranks;
        let subsets = subsets_of(outcome, ranks);
        let index = RegionIndex::build(&outcome.rank_regions);
        let mut recv: Vec<Vec<u32>> = vec![Vec::new(); ranks];
        let mut sent = vec![0u32; ranks];
        let mut seconds = vec![0.0f64; ranks];
        let filter = self.cfg.projection_filter;
        let mut scratch = pic_mapping::RegionQueryScratch::new();
        for r in 0..ranks {
            let t0 = Instant::now();
            for &i in &subsets[r] {
                let p = self.particles.position[i as usize];
                index.for_each_rank_touching_sphere(p, filter, &mut scratch, |target| {
                    if target.index() != r {
                        recv[target.index()].push(i);
                        sent[r] += 1;
                    }
                });
            }
            seconds[r] = t0.elapsed().as_secs_f64();
        }
        Ghosts {
            subsets,
            recv,
            sent,
            seconds,
        }
    }

    /// Every rank's six kernel seconds at `iteration`, in
    /// [`KernelKind::ALL`] order: the cost oracle's observation, or under
    /// wall-clock timing `wall[kernel][rank]`. `record` sees each
    /// kernel's parameters and seconds, kernel by kernel.
    fn kernel_seconds(
        &self,
        iteration: u64,
        ghosts: &Ghosts,
        wall: Option<[&[f64]; 6]>,
        mut record: impl FnMut(KernelKind, WorkloadParams, f64),
    ) -> Vec<[f64; 6]> {
        let ranks = self.cfg.ranks;
        let mut kernel_seconds = vec![[0.0f64; 6]; ranks];
        for (slot, kernel) in KernelKind::ALL.into_iter().enumerate() {
            for (r, seconds) in kernel_seconds.iter_mut().enumerate() {
                let ngp = match kernel {
                    KernelKind::CreateGhostParticles => ghosts.sent[r],
                    _ => ghosts.recv[r].len() as u32,
                };
                let params = WorkloadParams {
                    np: ghosts.subsets[r].len() as f64,
                    ngp: ngp as f64,
                    nel: self.decomp.elements_on_rank(Rank::from_index(r)) as f64,
                    n_order: self.cfg.order as f64,
                    filter: self.cfg.projection_filter,
                };
                seconds[slot] = match (&self.oracle, wall) {
                    (Some(o), _) => {
                        o.observed_cost(kernel, &params, iteration * ranks as u64 + r as u64)
                    }
                    (None, Some(wall)) => wall[slot][r],
                    (None, None) => unreachable!("only oracle timing prices without kernels"),
                };
                record(kernel, params, seconds[slot]);
            }
        }
        kernel_seconds
    }

    /// Advance one step without instrumentation (single global "rank").
    fn motion_step(&mut self) {
        let ctx = make_ctx(&self.cfg, &self.mesh, &self.gll, self.field.as_ref());
        let n = self.particles.len();
        let all: Vec<u32> = (0..n as u32).collect();
        let mut fluid_vel = Vec::new();
        kernels::interpolate(
            &ctx,
            &self.particles.position,
            &all,
            self.time,
            &mut fluid_vel,
        );
        let cell = collision_cells(&self.cfg, &self.particles.position);
        let mut accel = Vec::new();
        kernels::equation_solver(
            &ctx,
            &self.particles.position,
            &self.particles.velocity,
            &all,
            &fluid_vel,
            &cell,
            &mut accel,
        );
        kernels::particle_pusher(
            &ctx,
            &mut self.particles.position,
            &mut self.particles.velocity,
            &all,
            &accel,
        );
    }

    /// Advance one step with full per-rank instrumentation, returning the
    /// ground-truth sample and the ownership vector (for the next sample's
    /// migration diff).
    fn sample_step(
        &mut self,
        iteration: u64,
        recorder: &mut Recorder,
        prev_owners: Option<&[Rank]>,
    ) -> Result<(GroundTruthSample, Vec<Rank>)> {
        let ranks = self.cfg.ranks;
        let outcome = self.mapper.assign(&self.particles.position);
        let ghosts = self.ghosts(&outcome);
        let subsets = &ghosts.subsets;

        // --- per-rank instrumented phases -----------------------------
        // Phase: fluid solver (regular workload). A stand-in whose result
        // nothing reads: it runs only when its wall time is the record.
        let timed = self.oracle.is_none();
        let mut fluid_seconds = vec![0.0f64; ranks];
        if timed {
            let ctx = make_ctx(&self.cfg, &self.mesh, &self.gll, self.field.as_ref());
            #[allow(clippy::needless_range_loop)] // r is the rank id across parallel arrays
            for r in 0..ranks {
                let t0 = Instant::now();
                let v = kernels::fluid_solver(&ctx, &self.rank_elements[r], self.time);
                std::hint::black_box(v);
                fluid_seconds[r] = t0.elapsed().as_secs_f64();
            }
        }

        // Phase: interpolation (collect fluid velocities for all ranks).
        let n = self.particles.len();
        let mut fluid_vel_all = vec![Vec3::ZERO; n];
        let mut interp_seconds = vec![0.0f64; ranks];
        {
            let ctx = make_ctx(&self.cfg, &self.mesh, &self.gll, self.field.as_ref());
            let mut chunk = Vec::new();
            for r in 0..ranks {
                let t0 = Instant::now();
                kernels::interpolate(
                    &ctx,
                    &self.particles.position,
                    &subsets[r],
                    self.time,
                    &mut chunk,
                );
                interp_seconds[r] = t0.elapsed().as_secs_f64();
                for (k, &i) in subsets[r].iter().enumerate() {
                    fluid_vel_all[i as usize] = chunk[k];
                }
            }
        }

        // Phase: equation solver.
        let cell = collision_cells(&self.cfg, &self.particles.position);
        let mut accel_all = vec![Vec3::ZERO; n];
        let mut eq_seconds = vec![0.0f64; ranks];
        {
            let ctx = make_ctx(&self.cfg, &self.mesh, &self.gll, self.field.as_ref());
            let mut chunk_vel = Vec::new();
            let mut chunk_acc = Vec::new();
            for r in 0..ranks {
                chunk_vel.clear();
                chunk_vel.extend(subsets[r].iter().map(|&i| fluid_vel_all[i as usize]));
                let t0 = Instant::now();
                kernels::equation_solver(
                    &ctx,
                    &self.particles.position,
                    &self.particles.velocity,
                    &subsets[r],
                    &chunk_vel,
                    &cell,
                    &mut chunk_acc,
                );
                eq_seconds[r] = t0.elapsed().as_secs_f64();
                for (k, &i) in subsets[r].iter().enumerate() {
                    accel_all[i as usize] = chunk_acc[k];
                }
            }
        }

        // Phase: pusher.
        let mut push_seconds = vec![0.0f64; ranks];
        {
            let ctx = make_ctx(&self.cfg, &self.mesh, &self.gll, self.field.as_ref());
            let mut chunk_acc = Vec::new();
            for r in 0..ranks {
                chunk_acc.clear();
                chunk_acc.extend(subsets[r].iter().map(|&i| accel_all[i as usize]));
                let t0 = Instant::now();
                kernels::particle_pusher(
                    &ctx,
                    &mut self.particles.position,
                    &mut self.particles.velocity,
                    &subsets[r],
                    &chunk_acc,
                );
                push_seconds[r] = t0.elapsed().as_secs_f64();
            }
        }

        // Phase: projection (real + received ghosts). A stand-in like the
        // fluid solver: run only under wall-clock timing.
        let mut proj_seconds = vec![0.0f64; ranks];
        if timed {
            let ctx = make_ctx(&self.cfg, &self.mesh, &self.gll, self.field.as_ref());
            let mut combined = Vec::new();
            for r in 0..ranks {
                combined.clear();
                combined.extend_from_slice(&subsets[r]);
                combined.extend_from_slice(&ghosts.recv[r]);
                let t0 = Instant::now();
                let v = kernels::projection(&ctx, &self.particles.position, &combined);
                std::hint::black_box(v);
                proj_seconds[r] = t0.elapsed().as_secs_f64();
            }
        }

        // --- record timings (wall-clock or oracle) --------------------
        let wall: [&[f64]; 6] = [
            &fluid_seconds,
            &ghosts.seconds,
            &interp_seconds,
            &eq_seconds,
            &push_seconds,
            &proj_seconds,
        ];
        let kernel_seconds =
            self.kernel_seconds(iteration, &ghosts, Some(wall), |kernel, params, seconds| {
                recorder.record(kernel, params, seconds)
            });

        // --- migrations since previous sample --------------------------
        let migrations = match prev_owners {
            Some(prev) => migration_counts(prev, &outcome.ranks),
            None => Vec::new(),
        };

        let sample = GroundTruthSample {
            iteration,
            real_counts: subsets.iter().map(|s| s.len() as u32).collect(),
            ghost_recv_counts: ghosts.recv.iter().map(|g| g.len() as u32).collect(),
            ghost_sent_counts: ghosts.sent,
            bin_count: outcome.bin_count,
            migrations,
            kernel_seconds,
        };
        Ok((sample, outcome.ranks))
    }
}

/// Who holds and who ghosts what at one iteration (see
/// [`MiniPic::ghosts`]).
struct Ghosts {
    /// Each rank's particles.
    subsets: Vec<Vec<u32>>,
    /// The particles each rank receives as ghosts.
    recv: Vec<Vec<u32>>,
    /// How many ghosts each rank sends.
    sent: Vec<u32>,
    /// Wall seconds of each rank's sphere queries.
    seconds: Vec<f64>,
}

/// The application clock while a run goes (see [`crate::clock`]).
struct Clock {
    machine: MachineSpec,
    /// Ownership at the previous iteration.
    owners: Option<Vec<Rank>>,
    /// Seconds of every iteration so far.
    seconds: Vec<f64>,
}

impl Clock {
    /// Price one iteration: its kernel seconds, and the particles that
    /// changed rank since the previous one. A machine whose numbers pass
    /// validation can still price an iteration past the largest `f64`
    /// (a bandwidth of 1e-307 B/s); that run is refused here.
    fn tick(&mut self, kernel_seconds: &[[f64; 6]], owners: Vec<Rank>) -> Result<()> {
        let migrations = (self.owners.as_deref())
            .map(|prev| migration_counts(prev, &owners))
            .unwrap_or_default();
        let seconds = clock::iteration_seconds(&self.machine, kernel_seconds, &migrations);
        if !seconds.is_finite() {
            return Err(PicError::sim(format!(
                "the application clock priced iteration {} at {seconds} s on machine '{}'",
                self.seconds.len(),
                self.machine.name
            )));
        }
        self.seconds.push(seconds);
        self.owners = Some(owners);
        Ok(())
    }
}

/// Build a kernel context from the app's parts. A free function (rather
/// than a `&self` method) so that the borrow is per-field, letting the
/// pusher phase mutate the particle arrays while the context borrows the
/// mesh and field.
fn make_ctx<'a>(
    cfg: &'a SimConfig,
    mesh: &'a ElementMesh,
    gll: &'a GllRule,
    field: &'a dyn FluidField,
) -> KernelContext<'a> {
    KernelContext {
        mesh,
        gll,
        field,
        filter: cfg.projection_filter,
        dt: cfg.dt,
        gravity: cfg.gravity,
        drag_tau: cfg.drag_tau,
        collision_radius: cfg.collision_radius,
        collision_stiffness: cfg.collision_stiffness,
    }
}

/// Construct the mapper selected by the configuration.
pub fn build_mapper(
    algorithm: MappingAlgorithm,
    mesh: &ElementMesh,
    ranks: usize,
    filter: f64,
) -> Result<Box<dyn ParticleMapper>> {
    algorithm.mapper(Some(mesh), ranks, filter)
}

/// Group particle indices by owning rank.
fn subsets_of(outcome: &MappingOutcome, ranks: usize) -> Vec<Vec<u32>> {
    let mut subsets: Vec<Vec<u32>> = vec![Vec::new(); ranks];
    for (i, r) in outcome.ranks.iter().enumerate() {
        subsets[r.index()].push(i as u32);
    }
    subsets
}

/// Sparse sorted migration counts between two ownership snapshots.
fn migration_counts(prev: &[Rank], cur: &[Rank]) -> Vec<(u32, u32, u32)> {
    debug_assert_eq!(prev.len(), cur.len());
    let mut moves: Vec<(u32, u32)> = prev
        .iter()
        .zip(cur)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.0, b.0))
        .collect();
    moves.sort_unstable();
    let mut out: Vec<(u32, u32, u32)> = Vec::new();
    for (from, to) in moves {
        match out.last_mut() {
            Some(last) if last.0 == from && last.1 == to => last.2 += 1,
            _ => out.push((from, to, 1)),
        }
    }
    out
}

/// The collision-neighbour cell list, with cells of the collision radius.
/// `equation_solver` reads it only when collisions are on, so with
/// `collision_radius == 0` it is an empty list and costs nothing to build.
fn collision_cells(cfg: &SimConfig, positions: &[Vec3]) -> CellList {
    if cfg.collision_radius > 0.0 {
        CellList::build(positions, cfg.collision_radius)
    } else {
        CellList::build(&[], 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingMode;
    use pic_grid::MeshDims;

    fn small_cfg() -> SimConfig {
        SimConfig {
            ranks: 16,
            mesh_dims: MeshDims::cube(4),
            order: 3,
            particles: 400,
            steps: 30,
            sample_interval: 10,
            ..SimConfig::default()
        }
    }

    #[test]
    fn run_produces_consistent_output() {
        let out = MiniPic::new(small_cfg()).unwrap().run().unwrap();
        assert_eq!(out.trace.sample_count(), 3); // steps 0, 10, 20
        assert_eq!(out.ground_truth.samples.len(), 3);
        for s in &out.ground_truth.samples {
            assert_eq!(s.real_counts.iter().sum::<u32>(), 400);
            assert_eq!(s.real_counts.len(), 16);
            let sent: u32 = s.ghost_sent_counts.iter().sum();
            let recv: u32 = s.ghost_recv_counts.iter().sum();
            assert_eq!(sent, recv, "every sent ghost is received somewhere");
            assert!(s.bin_count.unwrap() <= 16);
        }
        // recorder: 6 kernels × 16 ranks × 3 samples
        assert_eq!(out.recorder.len(), 6 * 16 * 3);
    }

    #[test]
    fn runs_are_deterministic_with_oracle_timing() {
        let a = MiniPic::new(small_cfg()).unwrap().run().unwrap();
        let b = MiniPic::new(small_cfg()).unwrap().run().unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.ground_truth.samples, b.ground_truth.samples);
        assert_eq!(a.recorder.records(), b.recorder.records());
    }

    fn clocked(cfg: SimConfig) -> SimConfig {
        SimConfig {
            clock: Some(MachineSpec::quartz_like()),
            ..cfg
        }
    }

    #[test]
    fn the_clock_is_bit_deterministic_and_changes_nothing_else() {
        let run = |cfg| MiniPic::new(cfg).unwrap().run().unwrap();
        let (a, b) = (run(clocked(small_cfg())), run(clocked(small_cfg())));
        let bits = |o: &SimOutput| -> Vec<u64> {
            (o.iteration_seconds.iter()).map(|s| s.to_bits()).collect()
        };
        assert_eq!(a.iteration_seconds.len(), 30);
        assert_eq!(bits(&a), bits(&b));
        let total = a.application_seconds.unwrap();
        assert_eq!(total.to_bits(), b.application_seconds.unwrap().to_bits());
        assert_eq!(total, a.iteration_seconds.iter().sum::<f64>());
        assert!(a
            .iteration_seconds
            .iter()
            .all(|&s| s > 0.0 && s.is_finite()));
        let off = run(small_cfg());
        assert_eq!(
            (off.application_seconds, off.iteration_seconds.len()),
            (None, 0)
        );
        assert_eq!(off.trace, a.trace);
        assert_eq!(off.ground_truth.samples, a.ground_truth.samples);
        assert_eq!(off.recorder.records(), a.recorder.records());
    }

    #[test]
    fn the_clock_charges_a_return_trip_twice() {
        // One particle goes rank 0 → 1 → 0: the sampled diff between the
        // first and last ownership is empty, the clock sends two messages.
        let machine = MachineSpec {
            link_latency: 1.0,
            link_bandwidth: 80.0,
            collective_latency: 0.25,
            topology: pic_des::Topology::FullyConnected,
            ..MachineSpec::quartz_like()
        };
        let mut clock = Clock {
            machine,
            owners: None,
            seconds: Vec::new(),
        };
        let idle = [[0.0; 6]; 2];
        for owner in [0u32, 1, 0] {
            clock
                .tick(&idle, vec![Rank::new(owner), Rank::new(1)])
                .unwrap();
        }
        // Barrier: one stage of 0.25; each message α 1 + 80 B at 80 B/s.
        assert_eq!(clock.seconds, vec![0.25, 2.25, 2.25]);
        assert!(migration_counts(&[Rank::new(0)], &[Rank::new(0)]).is_empty());
    }

    #[test]
    fn an_iteration_priced_past_f64_stops_the_run() {
        // 1e-307 B/s passes the machine's validation, yet one particle's
        // 80 bytes take longer than the largest f64.
        let machine = MachineSpec {
            link_bandwidth: 1e-307,
            ..MachineSpec::quartz_like()
        };
        machine.validate().unwrap();
        let mut clock = Clock {
            machine,
            owners: None,
            seconds: Vec::new(),
        };
        let idle = [[0.0; 6]; 2];
        clock.tick(&idle, vec![Rank::new(0)]).unwrap();
        let err = clock.tick(&idle, vec![Rank::new(1)]).unwrap_err();
        assert!(err.to_string().contains("iteration 1 at inf s"), "{err}");
        assert_eq!(clock.seconds.len(), 1);
    }

    #[test]
    fn hele_shaw_boundary_expands() {
        let mut cfg = small_cfg();
        cfg.steps = 60;
        cfg.sample_interval = 20;
        let out = MiniPic::new(cfg).unwrap().run().unwrap();
        let vols = pic_trace::stats::boundary_volume_series(&out.trace);
        assert!(
            vols.last().unwrap() > &(vols[0] * 1.5),
            "blast should expand the bed: {vols:?}"
        );
    }

    #[test]
    fn particles_stay_in_domain() {
        let mut cfg = small_cfg();
        cfg.steps = 50;
        let app = MiniPic::new(cfg.clone()).unwrap();
        let out = app.run().unwrap();
        let last = out.trace.positions_at(out.trace.sample_count() - 1);
        for &p in last.iter() {
            assert!(cfg.domain.contains_closed(p), "{p}");
        }
    }

    #[test]
    fn element_mapping_is_concentrated_bin_mapping_is_not() {
        let mut cfg_el = small_cfg();
        cfg_el.mapping = MappingAlgorithm::ElementBased;
        let mut cfg_bin = small_cfg();
        cfg_bin.mapping = MappingAlgorithm::BinBased;
        cfg_bin.projection_filter = 1e-3; // tiny threshold → bins == ranks
        let out_el = MiniPic::new(cfg_el).unwrap().run().unwrap();
        let out_bin = MiniPic::new(cfg_bin).unwrap().run().unwrap();
        let u_el = out_el.ground_truth.utilization();
        let u_bin = out_bin.ground_truth.utilization();
        assert!(u_bin > u_el, "bin {u_bin} must beat element {u_el}");
        // peak workload: element mapping worse (higher peak)
        let first_peak = |out: &SimOutput| {
            *out.ground_truth.samples[0]
                .real_counts
                .iter()
                .max()
                .unwrap()
        };
        let (p_el, p_bin) = (first_peak(&out_el), first_peak(&out_bin));
        assert!(p_el > p_bin, "element peak {p_el} vs bin peak {p_bin}");
    }

    #[test]
    fn migrations_are_recorded_for_moving_particles() {
        let mut cfg = small_cfg();
        cfg.scenario = crate::scenario::ScenarioKind::VortexCluster;
        cfg.mapping = MappingAlgorithm::ElementBased;
        cfg.steps = 40;
        cfg.sample_interval = 10;
        let out = MiniPic::new(cfg).unwrap().run().unwrap();
        assert!(
            out.ground_truth.total_migrations() > 0,
            "vortex must migrate particles"
        );
        // first sample has no migrations by definition
        assert!(out.ground_truth.samples[0].migrations.is_empty());
    }

    #[test]
    fn migration_counts_helper() {
        let prev = vec![Rank(0), Rank(0), Rank(1), Rank(2)];
        let cur = vec![Rank(1), Rank(1), Rank(1), Rank(0)];
        let m = migration_counts(&prev, &cur);
        assert_eq!(m, vec![(0, 1, 2), (2, 0, 1)]);
        assert!(migration_counts(&cur, &cur).is_empty());
    }

    #[test]
    fn motion_that_leaves_the_finite_range_is_a_simulation_error() {
        // dt = 1e300 passes validation (finite, positive) but the first
        // motion step after the first push overflows the velocity.
        let mut cfg = small_cfg();
        cfg.dt = 1e300;
        let err = MiniPic::new(cfg).unwrap().run().unwrap_err();
        assert!(matches!(err, PicError::Simulation(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.starts_with("simulation error: particle 0 left the finite range at step 1"),
            "{msg}"
        );
        assert!(msg.contains("dt = 1e300 and drag_tau = 0.05"), "{msg}");
        // A stiff collision term overflows the same way.
        let mut cfg = small_cfg();
        cfg.collision_radius = 0.1;
        cfg.collision_stiffness = 1e308;
        let err = MiniPic::new(cfg).unwrap().run().unwrap_err();
        assert!(err.to_string().contains("left the finite range"), "{err}");
    }

    #[test]
    fn wall_clock_mode_produces_positive_times() {
        let mut cfg = small_cfg();
        cfg.timing = TimingMode::WallClock;
        cfg.steps = 10;
        cfg.sample_interval = 10;
        let out = MiniPic::new(cfg).unwrap().run().unwrap();
        // at least the loaded ranks must show nonzero interpolation time
        let total: f64 = out.recorder.total_seconds(KernelKind::Interpolation);
        assert!(total > 0.0);
    }
}
