//! Golden digests of whole mini-app runs: the trace bits, every
//! ground-truth field (kernel seconds by bits) and every training record,
//! for each scenario × mapper under oracle timing. Kernel rewrites that
//! claim to move no bit (cell-sorted interpolation, skipped stand-ins)
//! must leave every digest here unchanged.

use pic_grid::MeshDims;
use pic_mapping::MappingAlgorithm;
use pic_sim::config::TimingMode;
use pic_sim::{MiniPic, ScenarioKind, SimConfig, SimOutput};
use pic_types::hash::Fnv128;

const SCENARIOS: [ScenarioKind; 3] = [
    ScenarioKind::HeleShaw,
    ScenarioKind::UniformCloud,
    ScenarioKind::VortexCluster,
];

const MAPPERS: [MappingAlgorithm; 4] = [
    MappingAlgorithm::ElementBased,
    MappingAlgorithm::BinBased,
    MappingAlgorithm::HilbertOrdered,
    MappingAlgorithm::LoadBalanced,
];

/// `(scenario, mapper, trace, ground truth, records)` digests, pinned.
const GOLDEN: [(&str, &str, u128, u128, u128); 12] = [
    (
        "hele-shaw",
        "element-based",
        0x9ee10bfac00c2a37694928e38903d574,
        0x85e87145291f217619a48c8b72a68bc0,
        0x65a16e9f02c802cbd4d3121853f78edf,
    ),
    (
        "hele-shaw",
        "bin-based",
        0x9ee10bfac00c2a37694928e38903d574,
        0x761d342c8cb67420853bbe1f151b9495,
        0x67e297b98f23f3cb7f2bd20b85253d39,
    ),
    (
        "hele-shaw",
        "hilbert-ordered",
        0x9ee10bfac00c2a37694928e38903d574,
        0xeae6fbbf6e1864a516eeec1cc663ec72,
        0x48c63d38a91031ff77feb00fcd45793f,
    ),
    (
        "hele-shaw",
        "load-balanced",
        0x9ee10bfac00c2a37694928e38903d574,
        0xa716e8803c657437052e2205f58795b6,
        0x9f084191c5943db50fb671911a62c1cf,
    ),
    (
        "uniform-cloud",
        "element-based",
        0xb70ac0e5469229c379968d25f72a2f01,
        0xb5a3e0aff509ce193ae614ae24384bcb,
        0xe50c3c8a4c7f2ee4414a044e02d2f8f8,
    ),
    (
        "uniform-cloud",
        "bin-based",
        0xb70ac0e5469229c379968d25f72a2f01,
        0x99d26cac1bf4baa0e2825c9fca9ff10,
        0x99892a01f021563a22263398d809296f,
    ),
    (
        "uniform-cloud",
        "hilbert-ordered",
        0xb70ac0e5469229c379968d25f72a2f01,
        0x49d5ac20437b4b88bb3631610a67018e,
        0x42aac8fc993ef0474460464b9297350c,
    ),
    (
        "uniform-cloud",
        "load-balanced",
        0xb70ac0e5469229c379968d25f72a2f01,
        0xb5a3e0aff509ce193ae614ae24384bcb,
        0xe50c3c8a4c7f2ee4414a044e02d2f8f8,
    ),
    (
        "vortex-cluster",
        "element-based",
        0x433d8eea555dab46bafa5e97939981f,
        0x245e3b018665c1d5ebaf57d825b4c5c8,
        0x7dbfd2aa3112d38969bca487de032c50,
    ),
    (
        "vortex-cluster",
        "bin-based",
        0x433d8eea555dab46bafa5e97939981f,
        0xf9c4c0d2386179b2b325ea319df5a1fc,
        0xd42aa64b65809995ff47f680190a89,
    ),
    (
        "vortex-cluster",
        "hilbert-ordered",
        0x433d8eea555dab46bafa5e97939981f,
        0xb34380c8ea700277fa17be10d0ca0f76,
        0x2fd1fab74e7f5e2031e4fafa194f12c4,
    ),
    (
        "vortex-cluster",
        "load-balanced",
        0x433d8eea555dab46bafa5e97939981f,
        0xab36d87f143143be2d48d92c2a0ef817,
        0xd1cae725c34f8ca477f54c0c1697551d,
    ),
];

/// Soft-sphere collisions on (so motion steps read the cell list), pinned
/// separately: `(trace, ground truth, records)`.
const GOLDEN_COLLISIONS: (u128, u128, u128) = (
    0x8cc212da56c8baa2a81b69a7902866e3,
    0x5907838ab3f66c2a3280f39985a62e33,
    0xc45b0cace4fad6ea1d8c1674a8731a1a,
);

fn small_cfg(scenario: ScenarioKind, mapping: MappingAlgorithm) -> SimConfig {
    SimConfig {
        ranks: 8,
        mesh_dims: MeshDims::cube(4),
        order: 3,
        particles: 300,
        steps: 30,
        sample_interval: 10,
        scenario,
        mapping,
        ..SimConfig::default()
    }
}

fn trace_digest(out: &SimOutput) -> u128 {
    let mut h = Fnv128::new();
    for s in out.trace.samples() {
        h.update(&s.iteration.to_le_bytes());
        for p in &s.positions {
            for c in [p.x, p.y, p.z] {
                h.update(&c.to_bits().to_le_bytes());
            }
        }
    }
    h.digest()
}

fn ground_truth_digest(out: &SimOutput) -> u128 {
    let gt = &out.ground_truth;
    let mut h = Fnv128::new();
    let u32s = |h: &mut Fnv128, xs: &[u32]| {
        h.update(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            h.update(&x.to_le_bytes());
        }
    };
    h.update(&(gt.ranks as u64).to_le_bytes());
    u32s(&mut h, &gt.elements_per_rank);
    for s in &gt.samples {
        h.update(&s.iteration.to_le_bytes());
        u32s(&mut h, &s.real_counts);
        u32s(&mut h, &s.ghost_recv_counts);
        u32s(&mut h, &s.ghost_sent_counts);
        match s.bin_count {
            Some(b) => {
                h.update(&[1]);
                h.update(&(b as u64).to_le_bytes());
            }
            None => h.update(&[0]),
        }
        h.update(&(s.migrations.len() as u64).to_le_bytes());
        for &(from, to, count) in &s.migrations {
            for x in [from, to, count] {
                h.update(&x.to_le_bytes());
            }
        }
        for row in &s.kernel_seconds {
            for t in row {
                h.update(&t.to_bits().to_le_bytes());
            }
        }
    }
    h.digest()
}

fn records_digest(out: &SimOutput) -> u128 {
    let mut h = Fnv128::new();
    for r in out.recorder.records() {
        h.update(r.kernel.name().as_bytes());
        for f in r.params.features() {
            h.update(&f.to_bits().to_le_bytes());
        }
        h.update(&r.seconds.to_bits().to_le_bytes());
    }
    h.digest()
}

fn digests(cfg: SimConfig) -> (u128, u128, u128) {
    let out = MiniPic::new(cfg).unwrap().run().unwrap();
    (
        trace_digest(&out),
        ground_truth_digest(&out),
        records_digest(&out),
    )
}

#[test]
fn oracle_runs_match_their_golden_digests() {
    let mut actual = Vec::new();
    for scenario in SCENARIOS {
        for mapping in MAPPERS {
            let (t, g, r) = digests(small_cfg(scenario, mapping));
            actual.push((scenario.name().to_string(), mapping.to_string(), t, g, r));
        }
    }
    let mut cfg = small_cfg(ScenarioKind::UniformCloud, MappingAlgorithm::BinBased);
    cfg.collision_radius = 0.05;
    let collisions = digests(cfg);
    let table: String = actual
        .iter()
        .map(|(s, m, t, g, r)| format!("    (\"{s}\", \"{m}\", {t:#x}, {g:#x}, {r:#x}),\n"))
        .collect();
    let report = format!(
        "actual digests:\n{table}collisions: ({:#x}, {:#x}, {:#x})",
        collisions.0, collisions.1, collisions.2
    );
    for ((s, m, t, g, r), golden) in actual.iter().zip(GOLDEN) {
        assert_eq!(
            (s.as_str(), m.as_str(), *t, *g, *r),
            golden,
            "{s} × {m}\n{report}"
        );
    }
    assert_eq!(collisions, GOLDEN_COLLISIONS, "collisions\n{report}");
}

#[test]
fn wall_clock_timing_never_changes_the_physics() {
    for mapping in MAPPERS {
        let cfg = small_cfg(ScenarioKind::HeleShaw, mapping);
        let oracle = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
        let wall = MiniPic::new(SimConfig {
            timing: TimingMode::WallClock,
            ..cfg
        })
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(wall.trace, oracle.trace, "{mapping}");
        let (a, b) = (&wall.ground_truth, &oracle.ground_truth);
        assert_eq!(a.elements_per_rank, b.elements_per_rank);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.iteration, y.iteration);
            assert_eq!(x.real_counts, y.real_counts, "{mapping}");
            assert_eq!(x.ghost_recv_counts, y.ghost_recv_counts, "{mapping}");
            assert_eq!(x.ghost_sent_counts, y.ghost_sent_counts, "{mapping}");
            assert_eq!(x.bin_count, y.bin_count, "{mapping}");
            assert_eq!(x.migrations, y.migrations, "{mapping}");
        }
    }
}
