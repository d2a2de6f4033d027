//! Bit-identity oracle for Stage B (`simulate_staged`).
//!
//! Every zoo workload is simulated on three presets under two schedule
//! options, and each result is folded into a 64-bit digest of every
//! `RegionPerf` field (floats by their bit patterns), the `WorkloadPerf`
//! scalars and each node's compute and unfused seconds. The digests were
//! recorded from the per-design region-assembly implementation that
//! predates the cached per-graph plan; any drift in any float, count or
//! linkage the simulator produces changes a digest. A schedule failure's
//! op name and cause are pinned the same way.

use fast_arch::{presets, DatapathConfig};
use fast_models::Workload;
use fast_sim::{simulate, RegionPerf, SimError, SimOptions, WorkloadPerf};

/// `(workload, [digest per preset × options])`, presets in the order
/// tpu_v3, fast_large, fast_small and, within each, `SimOptions::default()`
/// then `SimOptions::tpu_baseline()`.
const GOLDEN: &[(&str, [u64; 6])] = &[
    (
        "EfficientNet-B0",
        [
            0x478d5876a2bacf9c,
            0xed5d57331f83f0e1,
            0xb6f6eb7abf7eb18b,
            0xf7a4a46ccaaf2b74,
            0x276e040a7522141c,
            0xee475814cf824626,
        ],
    ),
    (
        "EfficientNet-B1",
        [
            0xe38b64fd1536a9d0,
            0x7cc1fd2f5400a410,
            0xd4a81d34e05d3a8a,
            0x113c429364de85a4,
            0xb6d3edfce35d51fe,
            0x80f08806163a7306,
        ],
    ),
    (
        "EfficientNet-B2",
        [
            0x107f99d41351510a,
            0x50024b1562355a9a,
            0x92d1356b7064f1c3,
            0x764c422a7f346400,
            0x1b554bc9d4f1bbe0,
            0xc755ebeba457fe37,
        ],
    ),
    (
        "EfficientNet-B3",
        [
            0xc17d9c2e94102787,
            0xe2581cb3e5d95a85,
            0x034a3479ce38e4e6,
            0xfcd4839f66565fd3,
            0x1277d8ee05d8cb04,
            0x5297038345423f14,
        ],
    ),
    (
        "EfficientNet-B4",
        [
            0xc3efac621a897819,
            0xc3dea5dc31f5d9d7,
            0x19f082151a9b995f,
            0x5ff76d85d000a397,
            0x3b69928bda933b8d,
            0xd145045e5e08ab9d,
        ],
    ),
    (
        "EfficientNet-B5",
        [
            0x82bff73b33e66f80,
            0xfd0bce82489eccda,
            0x4e05b20883b1a85d,
            0x4c1afd9cb40a6a5c,
            0x01dd9f1676e4aa14,
            0x64e5e1ac8bcd0e66,
        ],
    ),
    (
        "EfficientNet-B6",
        [
            0x45224aa8de771ead,
            0xed4a69bb1f7e8b4b,
            0x637bb7d3adc06db4,
            0xc2fb89e228a21931,
            0x2e919136c538b845,
            0xd4357858f3b95fe7,
        ],
    ),
    (
        "EfficientNet-B7",
        [
            0xbd89fe683c9c897b,
            0x585721902f4cd2df,
            0xb096a0b50ea685f2,
            0x47f756fe6155e2ca,
            0x3df4f19eb1f00ce4,
            0x9df9d259f7cca872,
        ],
    ),
    (
        "ResNet50v2",
        [
            0x67ce04379682675f,
            0x3e18b0b02dea3051,
            0xec5be7ff0169a43e,
            0x9e61bf687ab5481c,
            0x91bf4e5a5b1ffde1,
            0x6ea92408fe212d69,
        ],
    ),
    (
        "OCR-RPN",
        [
            0x124d793b33f64d67,
            0xfe075f59c1d9f876,
            0x882f91c3a66d5ac6,
            0x42991427086a8cdd,
            0xa8ef02a6755fb7f6,
            0x160a25a56f34f430,
        ],
    ),
    (
        "OCR-Recognizer",
        [
            0x9bdcafb6cbffde0b,
            0x41064ca839182ef7,
            0x06301f173d52ff3c,
            0x794114ff7d539ca3,
            0x45949f11d7e956ca,
            0x188ce0000e2797f1,
        ],
    ),
    (
        "BERT-128",
        [
            0x71a061316988f131,
            0x339e1db397727be7,
            0x36b06a0ab5454d5c,
            0x68aacdac7f80b324,
            0xfb23d7a1927c08d8,
            0xa68be5be2a5a70da,
        ],
    ),
    (
        "BERT-1024",
        [
            0x459f84e2548783c8,
            0xe77e3f365d8d2176,
            0x6eacf484e9dd538d,
            0xe271d8e76bfa6ced,
            0x500c8fd3255be6d9,
            0xb623359cc2d49933,
        ],
    ),
    (
        "LLM-prefill-512",
        [
            0x0557c0e607c65f71,
            0xa9dc6dd56818042b,
            0x79bb91b0a341eaf6,
            0x8e0412985eae51b2,
            0x344fe8eb4f9c6140,
            0x0d2fce906cac8990,
        ],
    ),
    (
        "LLM-decode-2048",
        [
            0xe7910294605b1bf3,
            0x58b64cd4db056121,
            0xf4edeb5828dcb51a,
            0x6c4d5caa4143ed93,
            0xe3ab716e681875d6,
            0x6084e5d903dbf934,
        ],
    ),
    (
        "DLRM",
        [
            0x5e56fcc6289f62df,
            0xaf90b0069e2c4c69,
            0x90ec28a5e2414087,
            0x1e9cc8a907928619,
            0x88270ac832675ea4,
            0xfb1eab2422592105,
        ],
    ),
    (
        "Diffusion-UNet",
        [
            0x011f581249a79672,
            0x1d0aacec9c5a772b,
            0x4177d1ab84f765fa,
            0xd461ba41bb557fcf,
            0xf6939cd4f828a43c,
            0x232be2b3d0521c1f,
        ],
    ),
];

/// Digest of the schedule failure of ResNet-50 on a TPU-v3 whose L1
/// buffers are 1 KiB.
const GOLDEN_FAILURE: u64 = 0x6c5b_a8a1_47ad_a5a9;

/// FNV-1a over 64-bit words: each word is folded in as one unit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &byte in b {
            self.word(u64::from(byte));
        }
    }

    fn option(&mut self, v: Option<u64>) {
        self.word(v.map_or(0, |v| v + 1));
    }
}

fn zoo() -> Vec<Workload> {
    let mut zoo = Workload::suite();
    zoo.extend(Workload::serving_suite());
    zoo
}

fn presets() -> [(&'static str, DatapathConfig); 3] {
    [
        ("tpu_v3", presets::tpu_v3()),
        ("fast_large", presets::fast_large()),
        ("fast_small", presets::fast_small()),
    ]
}

fn region_digest(d: &mut Digest, r: &RegionPerf) {
    let RegionPerf {
        region,
        name,
        group,
        compute_seconds,
        flops,
        in_bytes,
        primary_in_bytes,
        out_bytes,
        weight_bytes,
        weight_store_bytes,
        spill_bytes,
        t_min,
        t_max,
        t_in,
        t_fixed,
        t_out,
        t_weight,
        resident_buffer_bytes,
        primary_input,
        row_streamable,
    } = r;
    d.word(region.index() as u64);
    d.bytes(name.as_bytes());
    d.option(group.map(u64::from));
    d.float(*compute_seconds);
    for v in [
        flops,
        in_bytes,
        primary_in_bytes,
        out_bytes,
        weight_bytes,
        weight_store_bytes,
        spill_bytes,
    ] {
        d.word(*v);
    }
    for v in [t_min, t_max, t_in, t_fixed, t_out, t_weight] {
        d.float(*v);
    }
    d.word(*resident_buffer_bytes);
    d.option(primary_input.map(|p| p as u64));
    d.word(u64::from(*row_streamable));
}

fn perf_digest(p: &WorkloadPerf) -> u64 {
    let mut d = Digest::new();
    d.bytes(p.workload.as_bytes());
    d.word(p.batch_per_core);
    d.word(p.cores);
    d.float(p.compute_seconds);
    d.float(p.dram_seconds);
    d.float(p.prefusion_seconds);
    d.word(p.total_flops);
    d.word(p.matrix_flops);
    d.float(p.peak_flops_per_core);
    d.word(p.prefusion_dram_bytes);
    d.word(p.nodes.len() as u64);
    for n in &p.nodes {
        d.float(n.compute_seconds);
        d.float(n.unfused_seconds);
    }
    d.word(p.regions.len() as u64);
    for r in &p.regions {
        region_digest(&mut d, r);
    }
    d.0
}

fn failure_digest(e: &SimError) -> u64 {
    let mut d = Digest::new();
    d.bytes(e.op.as_bytes());
    d.bytes(format!("{:?}", e.cause).as_bytes());
    d.0
}

#[test]
fn stage_b_matches_recorded_digests() {
    let mut rows = Vec::new();
    for w in zoo() {
        let mut digests = [0u64; 6];
        for (p, (_, cfg)) in presets().iter().enumerate() {
            let graph = w.build(cfg.native_batch).unwrap();
            for (o, opts) in [SimOptions::default(), SimOptions::tpu_baseline()].iter().enumerate()
            {
                let perf = simulate(&graph, cfg, opts)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name(), presets()[p].0));
                digests[2 * p + o] = perf_digest(&perf);
            }
        }
        rows.push((w.name(), digests));
    }
    let table: String = rows
        .iter()
        .map(|(name, d)| {
            let cells: Vec<String> = d.iter().map(|v| format!("0x{v:016x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    let golden: Vec<(String, [u64; 6])> =
        GOLDEN.iter().map(|(n, d)| ((*n).to_string(), *d)).collect();
    assert_eq!(rows, golden, "Stage-B output drifted; digests now:\n{table}");
}

#[test]
fn schedule_failure_matches_recorded_digest() {
    let graph = Workload::ResNet50.build(1).unwrap();
    let mut cfg = presets::tpu_v3();
    cfg.l1_input_kib = 1;
    cfg.l1_weight_kib = 1;
    cfg.l1_output_kib = 1;
    let err = simulate(&graph, &cfg, &SimOptions::default()).unwrap_err();
    assert_eq!(
        failure_digest(&err),
        GOLDEN_FAILURE,
        "schedule failure drifted: op `{}`, cause {:?} (digest 0x{:016x})",
        err.op,
        err.cause,
        failure_digest(&err)
    );
}
