//! A simulation looks each distinct loop nest of a graph up once, yet its
//! op-tier traffic and its errors equal a per-op walk in node order.

use fast_arch::{presets, DatapathConfig};
use fast_ir::Graph;
use fast_models::Workload;
use fast_sim::{simulate_staged, MapperCache, PaddingMode, SimError, SimOptions};

/// One [`MapperCache::map`] per matrix op in node order, as the simulator
/// once priced a graph; the first error, if any.
fn per_op_walk(
    g: &Graph,
    cfg: &DatapathConfig,
    opts: &SimOptions,
    cache: &MapperCache,
) -> Option<SimError> {
    let mut first = None;
    for node in g.nodes() {
        if let Some(nest) = g.loop_nest(node.id()) {
            if let Err(e) = cache.map(&nest, cfg, opts, node.name()) {
                first.get_or_insert(e);
            }
        }
    }
    first
}

fn bert() -> Graph {
    let g = Workload::Bert { seq_len: 128 }.build(4).expect("BERT builds");
    let plan = g.sim_plan();
    assert!(plan.repeated_nests > plan.nests.len() as u64, "BERT repeats its layers' shapes");
    g
}

#[test]
fn distinct_nest_lookups_count_like_a_per_op_walk() {
    let g = bert();
    let opts = SimOptions::default();
    let staged = MapperCache::new();
    let walked = MapperCache::new();
    // Cold on each design, then warm from the first: the second FAST-Large
    // variant changes only Global Memory, which the op tier ignores.
    let mut roomy = presets::fast_large();
    roomy.global_memory_mib *= 2;
    for cfg in [presets::fast_large(), presets::tpu_v3(), roomy, presets::fast_small()] {
        simulate_staged(&g, &cfg, &opts, &staged).expect("the preset schedules BERT");
        assert_eq!(per_op_walk(&g, &cfg, &opts, &walked), None);
        assert_eq!(staged.stats(), walked.stats(), "{cfg:?}");
        assert_eq!(staged.len(), walked.len());
    }
    assert!(staged.stats().hits > staged.stats().misses);
}

/// Simulates `g` twice on one cache, cold then warm, and checks each
/// error and the traffic against a per-op walk; returns the error.
fn first_failure(g: &Graph, cfg: &DatapathConfig, opts: &SimOptions) -> SimError {
    let staged = MapperCache::new();
    let walked = MapperCache::new();
    let got = simulate_staged(g, cfg, opts, &staged).expect_err("the design cannot map BERT");
    let want = per_op_walk(g, cfg, opts, &walked).expect("the walk fails too");
    assert_eq!(got, want);
    assert_eq!(staged.stats(), walked.stats());
    // Cached, the failure still names the first failing op.
    let again = simulate_staged(g, cfg, opts, &staged).expect_err("cached failure");
    assert_eq!(per_op_walk(g, cfg, opts, &walked), Some(again.clone()));
    assert_eq!(again, want);
    assert_eq!(staged.stats(), walked.stats());
    got
}

fn first_matrix_op(g: &Graph) -> &str {
    g.nodes().find(|n| g.loop_nest(n.id()).is_some()).expect("BERT has matrix ops").name()
}

#[test]
fn an_l1_failure_names_the_first_failing_op() {
    let g = bert();
    let mut cfg = presets::tpu_v3();
    cfg.l1_input_kib = 1;
    cfg.l1_weight_kib = 1;
    cfg.l1_output_kib = 1;
    let e = first_failure(&g, &cfg, &SimOptions::default());
    assert_eq!(e.op, first_matrix_op(&g), "1 KiB L1s fail every op");
}

#[test]
fn a_later_ops_failure_is_named_in_node_order() {
    // Without padding, a 12-row array factorizes the projections but not
    // the 64-deep attention reductions further down.
    let g = bert();
    let mut cfg = presets::tpu_v3();
    cfg.sa_x = 12;
    let opts = SimOptions { padding: PaddingMode::Exact, ..SimOptions::default() };
    let e = first_failure(&g, &cfg, &opts);
    assert_ne!(e.op, first_matrix_op(&g));
    assert_eq!(e.op, "l0.attn.qk");
}
