//! Golden counters for the two paper kernels on the simulated device.
//!
//! Every seeded launch below pins its whole [`LaunchStats`]: the block
//! cost totals, every [`MemoryStats`] field (L1, L2, texture-cache and
//! texture-L2 hits and misses included), the shared-memory bank counters,
//! and the cycle figures bit for bit, plus a CRC of the scores the launch
//! wrote. The simulator's hot path (coalescing, cache routing, bank
//! conflicts, the launch loop) may be restructured for speed only if
//! every line here stays identical.
//!
//! On a mismatch the test prints the whole observed table in source form
//! so a deliberate model change can be reviewed line by line.

use cudasw_core::seqstore::{GroupImage, ProfileImage, SeqImage};
use cudasw_core::{
    residue_balanced_bins, ImprovedIntraKernel, ImprovedParams, InterTaskKernel, IntraPair,
    VariantConfig,
};
use gpu_sim::{crc32_words, DeviceSpec, GpuDevice, LaunchStats};
use sw_align::{PackedProfile, SwParams};
use sw_db::synth::{database_with_lengths, make_query};

/// The four memory hierarchies: Fermi and GT200, each with its caches on
/// and off.
fn devices() -> Vec<(&'static str, DeviceSpec)> {
    let mut c1060_off = DeviceSpec::tesla_c1060();
    c1060_off.tex_cache = None;
    c1060_off.tex_l2 = None;
    vec![
        ("c2050", DeviceSpec::tesla_c2050()),
        ("c2050-off", DeviceSpec::tesla_c2050_caches_off()),
        ("c1060", DeviceSpec::tesla_c1060()),
        ("c1060-off", c1060_off),
    ]
}

/// Every counter of a launch, in a stable textual form.
fn render(s: &LaunchStats, score_crc: u32) -> String {
    let t = &s.totals;
    let m = &s.memory;
    let sh = &s.shared;
    format!(
        "{} b={} d={} | instr={} near={} l2h={} dram={} shcyc={} sync={} lat={} hid={} cells={} \
         | ld={}/{} st={}/{} rd={} wr={} tex={}/{}/{} texl2={}/{} l1={}/{} l2={}/{} texc={}/{} \
         | shi={} shc={} shx={} | cyc={:016x} sec={:016x} max={:016x} min={:016x} | crc={:08x}",
        s.kernel,
        s.blocks,
        s.block_dim,
        t.warp_instructions,
        t.near_hits,
        t.l2_hits,
        t.dram_bytes,
        t.shared_cycles,
        t.syncs,
        t.latency_cycles,
        t.hidden_latency_cycles,
        t.cells,
        m.load_instructions,
        m.load_transactions,
        m.store_instructions,
        m.store_transactions,
        m.dram_read_bytes,
        m.dram_write_bytes,
        m.tex_instructions,
        m.tex_transactions,
        m.tex_dram_bytes,
        m.tex_l2_stats.hits,
        m.tex_l2_stats.misses,
        m.l1.hits,
        m.l1.misses,
        m.l2.hits,
        m.l2.misses,
        m.tex_cache.hits,
        m.tex_cache.misses,
        sh.instructions,
        sh.bank_cycles,
        sh.conflicted_accesses,
        s.cycles.to_bits(),
        s.seconds.to_bits(),
        s.max_block_cycles.to_bits(),
        s.min_block_cycles.to_bits(),
        score_crc,
    )
}

/// One inter-task launch over a 40-sequence group (two blocks of 32, the
/// second a partial warp) against a 44-residue query: six strips, the
/// last one half-height. `staged` selects the §VII column-panel order
/// with multi-panel subjects.
fn inter_launch(spec: &DeviceSpec, staged: bool) -> String {
    let lengths: Vec<usize> = (0..40).map(|i| 10 + (i * 37) % 118).collect();
    let db = database_with_lengths("golden-inter", &lengths, 7);
    let query = make_query(44, 11);
    let sw = SwParams::cudasw_default();
    let mut dev = GpuDevice::new(spec.clone());
    let packed = PackedProfile::build(&sw.matrix, &query);
    let (profile, _) = ProfileImage::upload(&mut dev, &packed).unwrap();
    let (group, _) = GroupImage::upload(&mut dev, db.sequences()).unwrap();
    let max_cols = *lengths.iter().max().unwrap();
    let threads = 32;
    let panel_cols = if staged {
        InterTaskKernel::panel_cols(threads, spec.shared_mem_per_sm)
    } else {
        0
    };
    let boundary = dev
        .alloc(InterTaskKernel::boundary_words(group.width, max_cols))
        .unwrap();
    let edge_words = InterTaskKernel::edge_words(group.width, query.len(), panel_cols, max_cols);
    let edge = (edge_words > 0).then(|| dev.alloc(edge_words).unwrap());
    let kernel = InterTaskKernel {
        group: &group,
        profile: &profile,
        gaps: sw.gaps,
        boundary,
        max_cols,
        threads_per_block: threads,
        panel_cols,
        edge,
    };
    let stats = dev
        .launch(&kernel, kernel.grid_blocks(), "inter_task")
        .unwrap();
    let (scores, _) = dev.copy_from_device(group.scores, group.width).unwrap();
    render(&stats, crc32_words(&scores))
}

/// One improved intra-task launch over five pairs against a 72-residue
/// query (two strips at 16 threads × 4 rows, the second partial).
/// `balanced` runs the SaLoBa schedule on two blocks.
fn intra_launch(
    spec: &DeviceSpec,
    params: ImprovedParams,
    variant: VariantConfig,
    balanced: bool,
) -> String {
    let lengths = [150usize, 233, 301, 96, 180];
    let db = database_with_lengths("golden-intra", &lengths, 13);
    let query = make_query(72, 17);
    let sw = SwParams::cudasw_default();
    let mut dev = GpuDevice::new(spec.clone());
    let packed = PackedProfile::build(&sw.matrix, &query);
    let (profile, _) = ProfileImage::upload(&mut dev, &packed).unwrap();
    let pairs: Vec<IntraPair> = db
        .sequences()
        .iter()
        .map(|s| {
            let (img, _) = SeqImage::upload(&mut dev, s).unwrap();
            IntraPair {
                tex: img.tex,
                len: img.len,
                score: img.score,
            }
        })
        .collect();
    let max_len = *lengths.iter().max().unwrap();
    let boundary = dev
        .alloc(ImprovedIntraKernel::boundary_words(pairs.len(), max_len))
        .unwrap();
    let local_spill = dev
        .alloc(ImprovedIntraKernel::spill_words(pairs.len(), &params))
        .unwrap();
    let bins = residue_balanced_bins(&lengths, 2);
    let kernel = ImprovedIntraKernel {
        pairs: &pairs,
        profile: &profile,
        gaps: sw.gaps,
        boundary,
        boundary_stride: max_len,
        local_spill,
        params,
        variant,
        step_latency_cycles: 30,
        schedule: balanced.then_some(bins.as_slice()),
    };
    let blocks = if balanced { bins.len() } else { pairs.len() };
    let stats = dev
        .launch(&kernel, blocks as u32, "intra_improved")
        .unwrap();
    let scores: Vec<u32> = pairs
        .iter()
        .map(|p| dev.copy_from_device(p.score, 1).unwrap().0[0])
        .collect();
    render(&stats, crc32_words(&scores))
}

/// Every (device, kernel case) pair, rendered.
fn observed() -> Vec<(String, String)> {
    let p16 = ImprovedParams {
        threads_per_block: 16,
        tile_height: 4,
    };
    let p8x8 = ImprovedParams {
        threads_per_block: 8,
        tile_height: 8,
    };
    let improved = VariantConfig::improved();
    let mut out = Vec::new();
    for (dev_name, spec) in devices() {
        let mut case = |name: &str, line: String| out.push((format!("{dev_name}/{name}"), line));
        case("inter", inter_launch(&spec, false));
        case("inter-staged", inter_launch(&spec, true));
        case("intra", intra_launch(&spec, p16, improved, false));
        case(
            "intra-naive",
            intra_launch(&spec, p16, VariantConfig::naive(), false),
        );
        case(
            "intra-coalesced-fused",
            intra_launch(
                &spec,
                p16,
                VariantConfig {
                    coalesce_boundary: true,
                    continuous_pipeline: true,
                    ..improved
                },
                false,
            ),
        );
        case(
            "intra-shared-boundary",
            intra_launch(
                &spec,
                p16,
                VariantConfig {
                    boundary_in_shared: true,
                    ..improved
                },
                false,
            ),
        );
        case(
            "intra-8x8-balanced",
            intra_launch(&spec, p8x8, improved, true),
        );
    }
    out
}

/// The pinned counters, one line per `device/case`, in [`observed`] order.
const GOLDEN: &[(&str, &str)] = &[
    (
        "c2050/inter",
        "inter_task b=2 d=32 | instr=129883 near=20839 l2h=2580 dram=344768 shcyc=0 sync=0 lat=0 hid=0 cells=119240 | ld=2270/2680 st=2272/2682 rd=0 wr=343296 tex=2845/20785/1472 texl2=0/0 l1=210/2470 l2=4959/349 texc=20629/156 | shi=0 shc=0 shx=0 | cyc=40f333c000000000 sec=3f11edc78a40db82 max=40f17e4000000000 min=40ec6ee000000000 | crc=af7dd95a",
    ),
    (
        "c2050/inter-staged",
        "inter_task b=2 d=32 | instr=130291 near=20679 l2h=340 dram=37568 shcyc=4540 sync=0 lat=0 hid=0 cells=119240 | ld=204/280 st=206/282 rd=0 wr=36096 tex=2845/20785/1472 texl2=0/0 l1=50/230 l2=492/176 texc=20629/156 | shi=4540 shc=4540 shx=0 | cyc=40f3408000000000 sec=3f11f9af1975e5b9 max=40f18b0000000000 min=40ec886000000000 | crc=af7dd95a",
    ),
    (
        "c2050/intra",
        "intra_improved b=5 d=16 | instr=111657 near=18370 l2h=300 dram=247104 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=0 wr=246400 tex=3512/16772/704 texl2=0/0 l1=1852/68 l2=2152/95 texc=16518/254 | shi=7980 shc=7980 shx=0 | cyc=40f3305000000000 sec=3f11ea91e4e6022a max=40f17ad000000000 min=40d791c000000000 | crc=a4be5fef",
    ),
    (
        "c2050/intra-naive",
        "intra_improved b=5 d=16 | instr=149657 near=79158 l2h=300 dram=2297664 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=17920/17920 st=17925/17925 rd=2560 wr=2294400 tex=9512/61580/704 texl2=0/0 l1=17832/88 l2=18152/115 texc=61326/254 | shi=7980 shc=7980 shx=0 | cyc=410280a5b05b05b0 sec=3f21468da140a52b max=4101a5e5b05b05b0 min=40e7882fa4fa4fa4 | crc=a4be5fef",
    ),
    (
        "c2050/intra-coalesced-fused",
        "intra_improved b=5 d=16 | instr=111913 near=16571 l2h=300 dram=16832 shcyc=11948 sync=1995 lat=59700 hid=300 cells=69120 | ld=64/121 st=69/126 rd=0 wr=16128 tex=3512/16772/704 texl2=0/0 l1=53/68 l2=353/95 texc=16518/254 | shi=11948 shc=11948 shx=0 | cyc=40f32dd000000000 sec=3f11e83c555e1e47 max=40f1785000000000 min=40d779c000000000 | crc=a4be5fef",
    ),
    (
        "c2050/intra-shared-boundary",
        "intra_improved b=5 d=16 | instr=111657 near=16518 l2h=232 dram=1344 shcyc=11820 sync=2005 lat=60000 hid=0 cells=69120 | ld=0/0 st=5/5 rd=0 wr=640 tex=3512/16772/704 texl2=0/0 l1=0/0 l2=232/27 texc=16518/254 | shi=11820 shc=11820 shx=0 | cyc=40f3305000000000 sec=3f11ea91e4e6022a max=40f17ad000000000 min=40d791c000000000 | crc=a4be5fef",
    ),
    (
        "c2050/intra-8x8-balanced",
        "intra_improved b=2 d=8 | instr=202875 near=19262 l2h=168 dram=247104 shcyc=5890 sync=1960 lat=58650 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=0 wr=246400 tex=5140/17532/704 texl2=0/0 l1=1852/68 l2=2020/95 texc=17410/122 | shi=5890 shc=5890 shx=0 | cyc=410ca17000000000 sec=3f2abb696cdf6d61 max=410bc6b000000000 min=40f6a6f000000000 | crc=a4be5fef",
    ),
    (
        "c2050-off/inter",
        "inter_task b=2 d=32 | instr=129883 near=20629 l2h=0 dram=691328 shcyc=0 sync=0 lat=0 hid=0 cells=119240 | ld=2270/2680 st=2272/2682 rd=343040 wr=343296 tex=2845/20785/4992 texl2=0/0 l1=0/0 l2=0/0 texc=20629/156 | shi=0 shc=0 shx=0 | cyc=40f333c000000000 sec=3f11edc78a40db82 max=40f17e4000000000 min=40ec6ee000000000 | crc=af7dd95a",
    ),
    (
        "c2050-off/inter-staged",
        "inter_task b=2 d=32 | instr=130291 near=20629 l2h=0 dram=76928 shcyc=4540 sync=0 lat=0 hid=0 cells=119240 | ld=204/280 st=206/282 rd=35840 wr=36096 tex=2845/20785/4992 texl2=0/0 l1=0/0 l2=0/0 texc=20629/156 | shi=4540 shc=4540 shx=0 | cyc=40f3408000000000 sec=3f11f9af1975e5b9 max=40f18b0000000000 min=40ec886000000000 | crc=af7dd95a",
    ),
    (
        "c2050-off/intra",
        "intra_improved b=5 d=16 | instr=111657 near=16518 l2h=0 dram=500288 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=245760 wr=246400 tex=3512/16772/8128 texl2=0/0 l1=0/0 l2=0/0 texc=16518/254 | shi=7980 shc=7980 shx=0 | cyc=40f3305000000000 sec=3f11ea91e4e6022a max=40f17ad000000000 min=40d791c000000000 | crc=a4be5fef",
    ),
    (
        "c2050-off/intra-naive",
        "intra_improved b=5 d=16 | instr=149657 near=61326 l2h=0 dram=4596288 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=17920/17920 st=17925/17925 rd=2293760 wr=2294400 tex=9512/61580/8128 texl2=0/0 l1=0/0 l2=0/0 texc=61326/254 | shi=7980 shc=7980 shx=0 | cyc=410b766777777777 sec=3f29a43533b67bc1 max=410a9ba777777777 min=40f1bcf27d27d27d | crc=a4be5fef",
    ),
    (
        "c2050-off/intra-coalesced-fused",
        "intra_improved b=5 d=16 | instr=111913 near=16518 l2h=0 dram=39744 shcyc=11948 sync=1995 lat=59700 hid=300 cells=69120 | ld=64/121 st=69/126 rd=15488 wr=16128 tex=3512/16772/8128 texl2=0/0 l1=0/0 l2=0/0 texc=16518/254 | shi=11948 shc=11948 shx=0 | cyc=40f32dd000000000 sec=3f11e83c555e1e47 max=40f1785000000000 min=40d779c000000000 | crc=a4be5fef",
    ),
    (
        "c2050-off/intra-shared-boundary",
        "intra_improved b=5 d=16 | instr=111657 near=16518 l2h=0 dram=8768 shcyc=11820 sync=2005 lat=60000 hid=0 cells=69120 | ld=0/0 st=5/5 rd=0 wr=640 tex=3512/16772/8128 texl2=0/0 l1=0/0 l2=0/0 texc=16518/254 | shi=11820 shc=11820 shx=0 | cyc=40f3305000000000 sec=3f11ea91e4e6022a max=40f17ad000000000 min=40d791c000000000 | crc=a4be5fef",
    ),
    (
        "c2050-off/intra-8x8-balanced",
        "intra_improved b=2 d=8 | instr=202875 near=17410 l2h=0 dram=496064 shcyc=5890 sync=1960 lat=58650 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=245760 wr=246400 tex=5140/17532/3904 texl2=0/0 l1=0/0 l2=0/0 texc=17410/122 | shi=5890 shc=5890 shx=0 | cyc=410ca17000000000 sec=3f2abb696cdf6d61 max=410bc6b000000000 min=40f6a6f000000000 | crc=a4be5fef",
    ),
    (
        "c1060/inter",
        "inter_task b=2 d=32 | instr=129883 near=20629 l2h=28 dram=690432 shcyc=0 sync=0 lat=0 hid=0 cells=119240 | ld=2270/2680 st=2272/2682 rd=343040 wr=343296 tex=2845/20785/4096 texl2=28/128 l1=0/0 l2=0/0 texc=20629/156 | shi=0 shc=0 shx=0 | cyc=4111eba000000000 sec=3f2db1bc611fa082 max=41117e4000000000 min=410c6ee000000000 | crc=af7dd95a",
    ),
    (
        "c1060/inter-staged",
        "inter_task b=2 d=32 | instr=130291 near=20629 l2h=28 dram=76032 shcyc=5560 sync=0 lat=0 hid=0 cells=119240 | ld=204/280 st=206/282 rd=35840 wr=36096 tex=2845/20785/4096 texl2=28/128 l1=0/0 l2=0/0 texc=20629/156 | shi=4540 shc=5560 shx=1020 | cyc=4111f86000000000 sec=3f2dc6dcdb524cb7 max=41118b0000000000 min=410c886000000000 | crc=af7dd95a",
    ),
    (
        "c1060/intra",
        "intra_improved b=5 d=16 | instr=111657 near=16518 l2h=177 dram=494624 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=245760 wr=246400 tex=3512/16772/2464 texl2=177/77 l1=0/0 l2=0/0 texc=16518/254 | shi=7980 shc=7980 shx=0 | cyc=4106395000000000 sec=3f22699ef816c5c6 max=41055e9000000000 min=40ecd04000000000 | crc=a4be5fef",
    ),
    (
        "c1060/intra-naive",
        "intra_improved b=5 d=16 | instr=149657 near=61326 l2h=177 dram=4590624 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=17920/17920 st=17925/17925 rd=2293760 wr=2294400 tex=9512/61580/2464 texl2=177/77 l1=0/0 l2=0/0 texc=61326/254 | shi=7980 shc=7980 shx=0 | cyc=41228bf5f18b24be sec=3f3ebb69e070f902 max=41225545f18b24be min=41088b4ac92f95fc | crc=a4be5fef",
    ),
    (
        "c1060/intra-coalesced-fused",
        "intra_improved b=5 d=16 | instr=111913 near=16518 l2h=177 dram=34080 shcyc=12068 sync=1995 lat=59700 hid=300 cells=69120 | ld=64/121 st=69/126 rd=15488 wr=16128 tex=3512/16772/2464 texl2=177/77 l1=0/0 l2=0/0 texc=16518/254 | shi=11948 shc=12068 shx=120 | cyc=41063f9000000000 sec=3f226ecc938795a0 max=410564d000000000 min=40eccd4000000000 | crc=a4be5fef",
    ),
    (
        "c1060/intra-shared-boundary",
        "intra_improved b=5 d=16 | instr=111657 near=16518 l2h=177 dram=3104 shcyc=11820 sync=2005 lat=60000 hid=0 cells=69120 | ld=0/0 st=5/5 rd=0 wr=640 tex=3512/16772/2464 texl2=177/77 l1=0/0 l2=0/0 texc=16518/254 | shi=11820 shc=11820 shx=0 | cyc=4106395000000000 sec=3f22699ef816c5c6 max=41055e9000000000 min=40ecd04000000000 | crc=a4be5fef",
    ),
    (
        "c1060/intra-8x8-balanced",
        "intra_improved b=2 d=8 | instr=202875 near=17410 l2h=45 dram=494624 shcyc=5890 sync=1960 lat=58650 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=245760 wr=246400 tex=5140/17532/2464 texl2=45/77 l1=0/0 l2=0/0 texc=17410/122 | shi=5890 shc=5890 shx=0 | cyc=412459fc00000000 sec=3f40dc7ed6f48b25 max=4124234c00000000 min=41106c4000000000 | crc=a4be5fef",
    ),
    (
        "c1060-off/inter",
        "inter_task b=2 d=32 | instr=129883 near=0 l2h=0 dram=1351456 shcyc=0 sync=0 lat=0 hid=0 cells=119240 | ld=2270/2680 st=2272/2682 rd=343040 wr=343296 tex=2845/20785/665120 texl2=0/0 l1=0/0 l2=0/0 texc=0/0 | shi=0 shc=0 shx=0 | cyc=4111eba000000000 sec=3f2db1bc611fa082 max=41117e4000000000 min=41117ceaeaeaeaeb | crc=af7dd95a",
    ),
    (
        "c1060-off/inter-staged",
        "inter_task b=2 d=32 | instr=130291 near=0 l2h=0 dram=737056 shcyc=5560 sync=0 lat=0 hid=0 cells=119240 | ld=204/280 st=206/282 rd=35840 wr=36096 tex=2845/20785/665120 texl2=0/0 l1=0/0 l2=0/0 texc=0/0 | shi=4540 shc=5560 shx=1020 | cyc=4111f86000000000 sec=3f2dc6dcdb524cb7 max=41118b0000000000 min=410c886000000000 | crc=af7dd95a",
    ),
    (
        "c1060-off/intra",
        "intra_improved b=5 d=16 | instr=111657 near=0 l2h=0 dram=1028864 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=245760 wr=246400 tex=3512/16772/536704 texl2=0/0 l1=0/0 l2=0/0 texc=0/0 | shi=7980 shc=7980 shx=0 | cyc=4106395000000000 sec=3f22699ef816c5c6 max=41055e9000000000 min=40ecd04000000000 | crc=a4be5fef",
    ),
    (
        "c1060-off/intra-naive",
        "intra_improved b=5 d=16 | instr=149657 near=0 l2h=0 dram=6558720 shcyc=7980 sync=2005 lat=60000 hid=0 cells=69120 | ld=17920/17920 st=17925/17925 rd=2293760 wr=2294400 tex=9512/61580/1970560 texl2=0/0 l1=0/0 l2=0/0 texc=0/0 | shi=7980 shc=7980 shx=0 | cyc=4129328439d36d06 sec=3f44e0482b818645 max=4128fbd439d36d06 min=411062bff18b24be | crc=a4be5fef",
    ),
    (
        "c1060-off/intra-coalesced-fused",
        "intra_improved b=5 d=16 | instr=111913 near=0 l2h=0 dram=568320 shcyc=12068 sync=1995 lat=59700 hid=300 cells=69120 | ld=64/121 st=69/126 rd=15488 wr=16128 tex=3512/16772/536704 texl2=0/0 l1=0/0 l2=0/0 texc=0/0 | shi=11948 shc=12068 shx=120 | cyc=41063f9000000000 sec=3f226ecc938795a0 max=410564d000000000 min=40eccd4000000000 | crc=a4be5fef",
    ),
    (
        "c1060-off/intra-shared-boundary",
        "intra_improved b=5 d=16 | instr=111657 near=0 l2h=0 dram=537344 shcyc=11820 sync=2005 lat=60000 hid=0 cells=69120 | ld=0/0 st=5/5 rd=0 wr=640 tex=3512/16772/536704 texl2=0/0 l1=0/0 l2=0/0 texc=0/0 | shi=11820 shc=11820 shx=0 | cyc=4106395000000000 sec=3f22699ef816c5c6 max=41055e9000000000 min=40ecd04000000000 | crc=a4be5fef",
    ),
    (
        "c1060-off/intra-8x8-balanced",
        "intra_improved b=2 d=8 | instr=202875 near=0 l2h=0 dram=1053184 shcyc=5890 sync=1960 lat=58650 hid=0 cells=69120 | ld=1920/1920 st=1925/1925 rd=245760 wr=246400 tex=5140/17532/561024 texl2=0/0 l1=0/0 l2=0/0 texc=0/0 | shi=5890 shc=5890 shx=0 | cyc=412459fc00000000 sec=3f40dc7ed6f48b25 max=4124234c00000000 min=41106c4000000000 | crc=a4be5fef",
    ),
];

#[test]
fn launch_counters_match_the_golden_table() {
    let observed = observed();
    let matches = observed.len() == GOLDEN.len()
        && observed
            .iter()
            .zip(GOLDEN)
            .all(|((name, line), (g_name, g_line))| name == g_name && line == g_line);
    if !matches {
        let mut table = String::new();
        for (name, line) in &observed {
            let golden = GOLDEN.iter().find(|(g, _)| g == name).map(|(_, l)| *l);
            let mark = if golden == Some(line.as_str()) {
                ""
            } else {
                "    // CHANGED\n"
            };
            table.push_str(&format!(
                "{mark}    (\n        {name:?},\n        {line:?},\n    ),\n"
            ));
        }
        panic!("launch counters differ from the golden table; observed:\n{table}");
    }
}
