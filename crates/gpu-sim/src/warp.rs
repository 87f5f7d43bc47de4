//! Warp-collective access descriptors.
//!
//! Kernels issue memory operations one warp at a time: a [`WarpAccess`]
//! carries up to 32 lane addresses plus an active mask. This is the unit
//! the coalescer, the caches and the bank-conflict model all operate on.

/// Number of threads per warp on every modelled architecture.
pub const WARP_SIZE: usize = 32;

/// One warp-wide memory instruction: per-lane word addresses + active mask.
#[derive(Debug, Clone)]
pub struct WarpAccess {
    /// Bit `l` set means lane `l` participates.
    pub mask: u32,
    /// Word address per lane (ignored for inactive lanes).
    pub addr: [usize; WARP_SIZE],
}

impl WarpAccess {
    /// An access with no active lanes.
    #[inline]
    pub fn empty() -> Self {
        Self {
            mask: 0,
            addr: [0; WARP_SIZE],
        }
    }

    /// Deactivate every lane, so one access can be rebuilt for the next
    /// instruction without zeroing its addresses again.
    #[inline]
    pub fn clear(&mut self) {
        self.mask = 0;
    }

    /// Activate lane `lane` with word address `addr`.
    #[inline]
    pub fn set(&mut self, lane: usize, addr: usize) {
        debug_assert!(lane < WARP_SIZE);
        self.mask |= 1 << lane;
        self.addr[lane] = addr;
    }

    /// Build an access from an iterator of `(lane, addr)` pairs.
    #[inline]
    pub fn from_lanes(lanes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut a = Self::empty();
        for (lane, addr) in lanes {
            a.set(lane, addr);
        }
        a
    }

    /// Fully-active access where lane `l` touches `base + l` (the perfectly
    /// coalesced pattern).
    pub fn contiguous(base: usize) -> Self {
        let mut a = Self::empty();
        for l in 0..WARP_SIZE {
            a.set(l, base + l);
        }
        a
    }

    /// True when lane `lane` is active.
    #[inline]
    pub fn is_active(&self, lane: usize) -> bool {
        self.mask & (1 << lane) != 0
    }

    /// Number of active lanes.
    #[inline]
    pub fn active_lanes(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Iterate active lane indices in ascending order (walks the set bits
    /// of the mask, not all 32 lanes).
    #[inline]
    pub fn lanes(&self) -> impl Iterator<Item = usize> {
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(lane)
        })
    }

    /// Iterate active `(lane, addr)` pairs in ascending lane order.
    #[inline]
    pub fn iter_active(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.lanes().map(move |l| (l, self.addr[l]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_access_activates_every_lane() {
        let a = WarpAccess::contiguous(64);
        assert_eq!(a.active_lanes(), 32);
        assert!(a.lanes().eq(0..WARP_SIZE));
        assert!(a.iter_active().all(|(l, addr)| addr == 64 + l));
    }

    #[test]
    fn empty_access() {
        let a = WarpAccess::empty();
        assert_eq!(a.active_lanes(), 0);
        assert_eq!(a.lanes().count(), 0);
    }

    #[test]
    fn partial_mask() {
        let mut a = WarpAccess::empty();
        a.set(5, 100);
        a.set(0, 0);
        assert!(a.is_active(5));
        assert!(!a.is_active(1));
        assert_eq!(a.active_lanes(), 2);
        assert_eq!(a.iter_active().collect::<Vec<_>>(), [(0, 0), (5, 100)]);
    }

    #[test]
    fn clear_deactivates_every_lane() {
        let mut a = WarpAccess::contiguous(0);
        a.clear();
        assert_eq!(a.active_lanes(), 0);
        a.set(3, 9);
        assert_eq!(a.iter_active().collect::<Vec<_>>(), [(3, 9)]);
    }
}
