//! The Stage-B plan cached on a graph never goes stale: every mutation
//! clears it, clones carry an equivalent one, and concurrent first use
//! lowers the graph once.

use fast_arch::presets;
use fast_ir::{Conv2dGeom, DType, EwKind, Graph, MatMulGeom, NodeId, OpKind};
use fast_models::{EfficientNet, Workload};
use fast_sim::{simulate, MapperCache, SimOptions};

/// Every field of a simulation, floats included: `Debug` prints each float
/// in its shortest round-trip form, so equal text means equal bits.
fn sim_text(g: &Graph) -> String {
    let perf = simulate(g, &presets::fast_large(), &SimOptions::default()).unwrap();
    format!("{perf:?}")
}

fn id(g: &Graph, name: &str) -> NodeId {
    g.nodes().find(|n| n.name() == name).unwrap_or_else(|| panic!("no node {name}")).id()
}

/// The graph's construction, one mutation per step: plain adds, outputs
/// marked on nodes with and without in-region consumers, and a group.
const STEPS: [fn(&mut Graph); 12] = [
    |g| {
        g.input("x", [2, 8, 8, 16]);
    },
    |g| {
        let x = id(g, "x");
        g.add("c1", OpKind::Conv2d(Conv2dGeom::same(8, 8, 16, 16, 3, 1)), &[x]).unwrap();
    },
    |g| {
        let c1 = id(g, "c1");
        g.add("r1", OpKind::Elementwise(EwKind::Relu), &[c1]).unwrap();
    },
    |g| g.mark_output(id(g, "r1")),
    |g| {
        g.begin_group("block");
    },
    |g| {
        let r1 = id(g, "r1");
        g.conv2d("c2", r1, Conv2dGeom::same(8, 8, 16, 32, 1, 1)).unwrap();
    },
    |g| {
        let c2 = id(g, "c2");
        g.relu("r2", c2).unwrap();
    },
    |g| g.end_group(),
    // c1's only consumer shares its region: marking it an output adds
    // its bytes to the region's outputs.
    |g| g.mark_output(id(g, "c1")),
    |g| {
        let r2 = id(g, "r2");
        g.reshape("flat", r2, [2, 8 * 8 * 32]).unwrap();
    },
    |g| {
        let flat = id(g, "flat");
        g.matmul("head", flat, MatMulGeom { k: 8 * 8 * 32, n: 10 }).unwrap();
    },
    |g| g.mark_output(id(g, "head")),
];

fn built(steps: usize) -> Graph {
    let mut g = Graph::new("plan-cache", DType::Bf16);
    for step in &STEPS[..steps] {
        step(&mut g);
    }
    g
}

#[test]
fn every_mutation_invalidates_the_plan() {
    let mut g = built(0);
    for (k, step) in STEPS.iter().enumerate() {
        // Simulate first so the mutation meets a built plan.
        let _ = sim_text(&g);
        step(&mut g);
        assert_eq!(sim_text(&g), sim_text(&built(k + 1)), "stale plan after step {k}");
        assert_eq!(g.sim_plan().nodes.len(), g.len());
    }
    // The last steps changed the simulated result, so a stale plan would
    // have shown: the region outputs grew when c1 became an output.
    assert_ne!(sim_text(&built(8)), sim_text(&built(9)));
}

#[test]
fn a_clone_of_a_planned_graph_simulates_identically() {
    let g = built(STEPS.len());
    let planned = sim_text(&g);
    let mut clone = g.clone();
    assert_eq!(sim_text(&clone), planned);
    // Mutating the clone leaves the original's plan alone.
    let head = id(&clone, "head");
    clone.relu("tail", head).unwrap();
    assert_eq!(sim_text(&g), planned);
    assert_ne!(sim_text(&clone), planned);
    assert_eq!(clone.sim_plan().nodes.len(), g.len() + 1);
}

#[test]
fn concurrent_first_use_builds_one_plan() {
    let g = Workload::EfficientNet(EfficientNet::B0).build(8).unwrap();
    let cfg = presets::fast_large();
    let opts = SimOptions::default();
    let mapper = MapperCache::new();
    let seen: Vec<(String, usize)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let perf = fast_sim::simulate_staged(&g, &cfg, &opts, &mapper).unwrap();
                    (format!("{perf:?}"), std::ptr::from_ref(g.sim_plan()) as usize)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let one_plan = std::ptr::from_ref(g.sim_plan()) as usize;
    for (text, plan) in &seen {
        assert_eq!(*plan, one_plan, "every thread read the one plan");
        assert_eq!(text, &seen[0].0);
    }
    let fresh = Workload::EfficientNet(EfficientNet::B0).build(8).unwrap();
    assert_eq!(seen[0].0, format!("{:?}", simulate(&fresh, &cfg, &opts).unwrap()));
}
