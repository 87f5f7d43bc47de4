//! Per-block shared memory with bank-conflict accounting.
//!
//! The improved intra-task kernel keeps vertical and diagonal dependencies
//! in shared memory; its access pattern (lane `l` touching word `l·stride`)
//! determines bank conflicts. GT200 serves shared memory per half-warp
//! over 16 banks, Fermi per warp over 32 banks; a warp access costs as many
//! shared cycles as the maximum number of distinct addresses mapping to
//! one bank (broadcast of the *same* address is free), computed by
//! [`conflict_degree`].

use crate::warp::{WarpAccess, WARP_SIZE};

/// Shared-memory statistics for a launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Warp-level shared load/store instructions.
    pub instructions: u64,
    /// Total serialized bank cycles (1 per conflict-free access).
    pub bank_cycles: u64,
    /// Accesses that had at least one conflict.
    pub conflicted_accesses: u64,
}

/// One block's shared memory. A launch allocates one and
/// [`SharedMem::clear`]s it for each block, so every block starts from
/// zeroed words without a fresh allocation.
#[derive(Debug)]
pub struct SharedMem {
    data: Vec<u32>,
    banks: usize,
    stats: SharedStats,
}

/// Serialization factor of one warp access over `banks` banks: the
/// maximum, over banks, of the number of *distinct* addresses hitting
/// that bank (lanes reading the same address share one cycle). An access
/// with no active lanes still costs one cycle.
#[inline]
pub fn conflict_degree(access: &WarpAccess, banks: usize) -> u32 {
    let (mut lo, mut hi) = (usize::MAX, 0);
    for (_, addr) in access.iter_active() {
        lo = lo.min(addr);
        hi = hi.max(addr);
    }
    // Addresses spanning fewer words than there are banks fall in
    // pairwise distinct banks unless they are equal: conflict-free. This
    // is every contiguous or broadcast pattern on 32 banks.
    if lo > hi || hi - lo < banks {
        return 1;
    }
    // Otherwise sort (bank, address) pairs and count the distinct
    // addresses in each bank's run.
    let mut keys = [(0usize, 0usize); WARP_SIZE];
    let mut n = 0;
    for (_, addr) in access.iter_active() {
        keys[n] = (addr % banks, addr);
        n += 1;
    }
    let keys = &mut keys[..n];
    keys.sort_unstable();
    let mut degree = 1u32;
    let mut run = 1u32;
    for pair in keys.windows(2) {
        let ((bank_a, addr_a), (bank_b, addr_b)) = (pair[0], pair[1]);
        if bank_a != bank_b {
            run = 1;
        } else if addr_a != addr_b {
            run += 1;
            degree = degree.max(run);
        }
    }
    degree
}

impl SharedMem {
    /// Allocate `words` words of shared memory served by `banks` banks.
    pub fn new(words: usize, banks: u32) -> Self {
        Self {
            data: vec![0; words],
            banks: banks as usize,
            stats: SharedStats::default(),
        }
    }

    /// Size in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Zero every word for the next block. Counters keep accumulating.
    pub(crate) fn clear(&mut self) {
        self.data.fill(0);
    }

    #[inline]
    fn account(&mut self, access: &WarpAccess) -> u32 {
        let degree = conflict_degree(access, self.banks);
        self.stats.instructions += 1;
        self.stats.bank_cycles += degree as u64;
        if degree > 1 {
            self.stats.conflicted_accesses += 1;
        }
        degree
    }

    /// Warp-collective load. Returns `(values, serialization cycles)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds shared addresses — that is a kernel bug, the
    /// moral equivalent of a CUDA shared-memory overrun, and tests rely on
    /// it being loud.
    #[inline]
    pub fn warp_load(&mut self, access: &WarpAccess) -> ([u32; WARP_SIZE], u32) {
        let cycles = self.account(access);
        let mut out = [0u32; WARP_SIZE];
        for (lane, addr) in access.iter_active() {
            out[lane] = self.data[addr];
        }
        (out, cycles)
    }

    /// Warp-collective store. Returns serialization cycles.
    #[inline]
    pub fn warp_store(&mut self, access: &WarpAccess, values: &[u32; WARP_SIZE]) -> u32 {
        let cycles = self.account(access);
        for (lane, addr) in access.iter_active() {
            self.data[addr] = values[lane];
        }
        cycles
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SharedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SharedMem {
        SharedMem::new(1024, 32)
    }

    #[test]
    fn contiguous_access_is_conflict_free() {
        let mut m = mem();
        let a = WarpAccess::contiguous(0);
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 1);
        assert_eq!(m.stats().conflicted_accesses, 0);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        let mut m = mem();
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, l * 32)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 32);
        assert_eq!(m.stats().conflicted_accesses, 1);
    }

    #[test]
    fn stride_2_is_two_way_conflict() {
        let mut m = mem();
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, l * 2)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 2);
    }

    #[test]
    fn broadcast_same_address_is_free() {
        let mut m = mem();
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, 5)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 1, "broadcast should not serialize");
    }

    #[test]
    fn repeated_address_counts_once_per_bank() {
        // Lanes 0 and 1 read word 0, lane 2 reads word 32: two distinct
        // addresses in bank 0, so two cycles (not three).
        let mut m = mem();
        let a = WarpAccess::from_lanes([(0, 0), (1, 0), (2, 32)]);
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 2);
        assert_eq!(m.stats().conflicted_accesses, 1);
    }

    #[test]
    fn empty_access_costs_one_cycle() {
        assert_eq!(conflict_degree(&WarpAccess::empty(), 32), 1);
    }

    #[test]
    fn clear_zeroes_words_and_keeps_counters() {
        let mut m = mem();
        let a = WarpAccess::contiguous(0);
        m.warp_store(&a, &[7; 32]);
        m.clear();
        let (back, _) = m.warp_load(&a);
        assert_eq!(back, [0; 32]);
        assert_eq!(m.stats().instructions, 2);
    }

    #[test]
    fn gt200_16_banks() {
        let mut m = SharedMem::new(1024, 16);
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, l * 16)));
        let (_, cycles) = m.warp_load(&a);
        assert_eq!(cycles, 32);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut m = mem();
        let a = WarpAccess::contiguous(64);
        let mut vals = [0u32; 32];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = 1000 + i as u32;
        }
        m.warp_store(&a, &vals);
        let (back, _) = m.warp_load(&a);
        assert_eq!(back, vals);
        assert_eq!(m.stats().instructions, 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let mut m = SharedMem::new(8, 32);
        let a = WarpAccess::contiguous(0); // lanes reach word 31 > 7
        let _ = m.warp_load(&a);
    }
}
