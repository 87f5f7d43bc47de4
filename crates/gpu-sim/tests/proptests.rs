//! Property-based tests for the device simulator's invariants.

use gpu_sim::memory::{MemorySystem, LINE_WORDS, TEX_SEGMENT_WORDS};
use gpu_sim::shared::conflict_degree;
use gpu_sim::{
    Cache, CacheConfig, DevicePtr, DeviceSpec, GpuDevice, GpuError, TexRef, WarpAccess, WARP_SIZE,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn warp_access(max_addr: usize) -> impl Strategy<Value = WarpAccess> {
    proptest::collection::vec((0usize..WARP_SIZE, 0usize..max_addr), 0..=WARP_SIZE)
        .prop_map(WarpAccess::from_lanes)
}

/// The bank-conflict rule written out plainly: per bank, the set of
/// distinct addresses; the access costs the largest set (at least 1).
fn reference_conflict_degree(a: &WarpAccess, banks: usize) -> u32 {
    let mut per_bank: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for lane in 0..WARP_SIZE {
        if a.is_active(lane) {
            per_bank
                .entry(a.addr[lane] % banks)
                .or_default()
                .insert(a.addr[lane]);
        }
    }
    per_bank
        .values()
        .map(|s| s.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Distinct lines in first-touch lane order, by scanning all 32 lanes.
fn reference_lines(a: &WarpAccess, line_words: usize) -> Vec<usize> {
    let mut lines = Vec::new();
    for lane in 0..WARP_SIZE {
        if a.is_active(lane) && !lines.contains(&(a.addr[lane] / line_words)) {
            lines.push(a.addr[lane] / line_words);
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn conflict_degree_matches_the_distinct_address_rule(
        a in warp_access(160),
        wide in warp_access(1 << 12),
        base in 0usize..256,
        steps in proptest::collection::vec(0usize..40, 1..=WARP_SIZE),
    ) {
        // Lane-ordered rising (or, with zero steps, repeating) addresses:
        // the strided and contiguous patterns kernels issue.
        let rising = WarpAccess::from_lanes(steps.iter().scan(base, |addr, &step| {
            *addr += step;
            Some(*addr)
        }).enumerate());
        for banks in [16, 32, 24] {
            for access in [&a, &wide, &rising] {
                prop_assert_eq!(
                    conflict_degree(access, banks),
                    reference_conflict_degree(access, banks)
                );
            }
        }
    }

    #[test]
    fn active_lanes_and_lines_match_a_full_lane_scan(a in warp_access(1 << 10)) {
        let lanes: Vec<usize> = a.iter_active().map(|(l, _)| l).collect();
        let expected: Vec<usize> = (0..WARP_SIZE).filter(|&l| a.is_active(l)).collect();
        prop_assert_eq!(lanes, expected);
        // The lines each access kind presents to the caches, in order.
        let mut m = MemorySystem::new(&DeviceSpec::tesla_c2050());
        let words = m.alloc(1 << 10).unwrap().addr() + (1 << 10);
        let (_, cost) = m.warp_load(0, &a).unwrap();
        let want = reference_lines(&a, LINE_WORDS);
        prop_assert_eq!(cost.transactions as usize, want.len());
        prop_assert_eq!(m.last_access_lines().collect::<Vec<_>>(), want.clone());
        let cost = m.warp_store(0, &a, &[0; WARP_SIZE]).unwrap();
        prop_assert_eq!(cost.transactions as usize, want.len());
        prop_assert_eq!(m.last_access_lines().collect::<Vec<_>>(), want);
        let (_, cost) = m.warp_tex_load(0, TexRef::new(DevicePtr(0), words), &a).unwrap();
        let want = reference_lines(&a, TEX_SEGMENT_WORDS);
        prop_assert_eq!(cost.transactions as usize, want.len());
        prop_assert_eq!(m.last_access_lines().collect::<Vec<_>>(), want);
    }

    #[test]
    fn out_of_bounds_accesses_fail_before_counting(
        a in warp_access(96),
        tex_base in 0usize..64,
        tex_words in 1usize..64,
    ) {
        let mut m = MemorySystem::new(&DeviceSpec::tesla_c2050());
        let words = m.alloc(64).unwrap().addr() + 64;
        let max = a.iter_active().map(|(_, addr)| addr).max();
        let bad_mem = max.filter(|&addr| addr >= words).map(|addr| GpuError::BadAccess {
            addr,
            mem_words: words,
        });
        let before = m.stats();
        match (m.warp_load(0, &a), &bad_mem) {
            (Err(e), Some(want)) => prop_assert_eq!(&e, want),
            (Ok(_), None) => {}
            (got, want) => prop_assert!(false, "load {:?} vs expected {:?}", got.err(), want),
        }
        match (m.warp_store(0, &a, &[1; WARP_SIZE]), &bad_mem) {
            (Err(e), Some(want)) => prop_assert_eq!(&e, want),
            (Ok(_), None) => {}
            (got, want) => prop_assert!(false, "store {:?} vs expected {:?}", got.err(), want),
        }
        // Texture fetches: the lowest lane outside the binding wins, then
        // the memory bound.
        let tex = TexRef::new(DevicePtr(tex_base), tex_words);
        let outside = a
            .iter_active()
            .find(|&(_, addr)| !tex.contains(addr))
            .map(|(_, addr)| GpuError::BadAccess { addr, mem_words: tex_words });
        let want = outside.or(bad_mem.clone());
        match (m.warp_tex_load(0, tex, &a), &want) {
            (Err(e), Some(want)) => prop_assert_eq!(&e, want),
            (Ok(_), None) => {}
            (got, want) => prop_assert!(false, "tex {:?} vs expected {:?}", got.err(), want),
        }
        if bad_mem.is_some() {
            prop_assert_eq!(m.stats(), before, "a failed access counts nothing");
        }
    }

    #[test]
    fn transactions_bounded_by_active_lanes(a in warp_access(1 << 16)) {
        let mut m = MemorySystem::new(&DeviceSpec::tesla_c2050());
        m.alloc(1 << 16).unwrap();
        let (_, cost) = m.warp_load(0, &a).unwrap();
        prop_assert!(cost.transactions <= a.active_lanes());
        if a.active_lanes() > 0 {
            prop_assert!(cost.transactions >= 1);
        } else {
            prop_assert_eq!(cost.transactions, 0);
        }
    }

    #[test]
    fn lines_cover_all_active_addresses(a in warp_access(1 << 12)) {
        let mut m = MemorySystem::new(&DeviceSpec::tesla_c2050());
        m.alloc(1 << 12).unwrap();
        m.warp_load(0, &a).unwrap();
        let lines: Vec<usize> = m.last_access_lines().collect();
        for (_, addr) in a.iter_active() {
            prop_assert!(lines.contains(&(addr / LINE_WORDS)));
        }
        // And no duplicates.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), lines.len());
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(lines in proptest::collection::vec(0usize..512, 1..200)) {
        let mut c = Cache::new(CacheConfig::fermi_l1_16k());
        for &l in &lines {
            c.access(l);
        }
        prop_assert_eq!(c.stats().accesses(), lines.len() as u64);
    }

    #[test]
    fn cache_is_lru_consistent(lines in proptest::collection::vec(0usize..8, 1..100)) {
        // A direct-mapped-sized working set (8 lines into a cache with
        // >= 8 ways * sets) must stop missing after the first pass.
        let mut c = Cache::new(CacheConfig::fermi_l2());
        for &l in &lines {
            c.access(l);
        }
        c.reset_stats();
        for &l in &lines {
            c.access(l);
        }
        prop_assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn memory_roundtrip_arbitrary_pattern(
        vals in proptest::collection::vec(any::<u32>(), WARP_SIZE),
        offsets in proptest::collection::vec(0usize..256, WARP_SIZE),
    ) {
        // Distinct per-lane addresses: base + lane-unique offset.
        let mut dev = GpuDevice::new(DeviceSpec::tesla_c2050());
        let buf = dev.alloc(1024).unwrap();
        // Make offsets unique by adding the lane index * 256.
        let addrs: Vec<usize> = offsets
            .iter()
            .enumerate()
            .map(|(l, &o)| buf.addr() + (o + l * 256) % 1024)
            .collect();
        // Deduplicate collisions by lane priority: later lanes win on store,
        // so only assert lanes whose address is not reused by a later lane.
        let access = WarpAccess::from_lanes(addrs.iter().copied().enumerate());
        let mut varr = [0u32; WARP_SIZE];
        varr.copy_from_slice(&vals);

        struct K {
            access: WarpAccess,
            vals: [u32; WARP_SIZE],
        }
        impl gpu_sim::BlockKernel for K {
            fn config(&self) -> gpu_sim::LaunchConfig {
                gpu_sim::LaunchConfig {
                    threads_per_block: 32,
                    regs_per_thread: 4,
                    shared_words: 0,
                }
            }
            fn run_block(&self, ctx: &mut gpu_sim::BlockCtx<'_>) -> Result<(), gpu_sim::GpuError> {
                ctx.global_store(&self.access, &self.vals)?;
                Ok(())
            }
        }
        dev.launch(&K { access, vals: varr }, 1, "store").unwrap();
        let (data, _) = dev.copy_from_device(buf, 1024).unwrap();
        for lane in 0..WARP_SIZE {
            let addr = addrs[lane];
            if addrs[lane + 1..].contains(&addr) {
                continue; // a later lane overwrote this address
            }
            prop_assert_eq!(data[addr - buf.addr()], varr[lane]);
        }
    }

    #[test]
    fn block_cycles_monotone_in_work(
        instr in 0u64..100_000,
        extra in 1u64..10_000,
    ) {
        let tm = gpu_sim::TimingModel::default();
        let spec = DeviceSpec::tesla_c1060();
        let base = gpu_sim::timing::BlockCost {
            warp_instructions: instr,
            ..Default::default()
        };
        let more = gpu_sim::timing::BlockCost {
            warp_instructions: instr + extra,
            ..Default::default()
        };
        prop_assert!(tm.block_cycles(&spec, &more) >= tm.block_cycles(&spec, &base));
    }

    #[test]
    fn makespan_at_least_mean_and_max(blocks in proptest::collection::vec(1.0f64..10_000.0, 1..200)) {
        let tm = gpu_sim::TimingModel::default();
        let spec = DeviceSpec::tesla_c1060();
        let t = tm.launch_cycles(&spec, &blocks, 0) - tm.launch_overhead_cycles;
        let total: f64 = blocks.iter().sum();
        let max = blocks.iter().cloned().fold(0.0, f64::max);
        prop_assert!(t + 1e-9 >= total / spec.sm_count as f64);
        prop_assert!(t + 1e-9 >= max);
    }
}
