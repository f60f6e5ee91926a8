//! Network fences — paper §V.
//!
//! A network fence guarantees its receivers that *all packets sent before
//! the fence, by all participating sources, have arrived*. Fence packets
//! flow through the ordinary network but are **merged** at router input
//! ports (a per-port counter fires once the expected number of upstream
//! fence packets has arrived) and **multicast** to the output ports named
//! by a preconfigured mask (Figure 10). Because a fence must sweep every
//! path a data packet could have taken, fence packets are injected on all
//! request VCs and both channel slices at every channel crossing (§V-C),
//! and each VC merges independently.
//!
//! This module provides the router-level merge/multicast state machine
//! and the concurrent-fence slot allocator with adapter flow control
//! (§V-D). A fence's cost depends only on its hop budget (§V-A's
//! `fence(pattern, number_of_hops)`); `anton-machine`'s
//! `barrier::barrier_latency` prices the GC-to-GC barrier by it.

use anton_model::asic::MAX_CONCURRENT_FENCES;

/// One of the up-to-14 concurrent fence contexts in flight (§V-D).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FenceSlot(pub u8);

/// Per-input-port, per-VC merge state inside one router (Figure 10a).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct MergeState {
    counter: u8,
    expected: u8,
    output_mask: u16,
}

/// The fence counter array of one router: merge counters and output masks
/// indexed by (input port, VC).
///
/// ```
/// use anton_net::fence::RouterFence;
/// // A router port expecting fences from two upstream paths, multicast to
/// // output ports 1 and 3 (Figure 10b).
/// let mut rf = RouterFence::new(4, 1);
/// rf.configure(0, 0, 2, 0b1010);
/// assert_eq!(rf.receive(0, 0), None);          // first arrival: merge
/// assert_eq!(rf.receive(0, 0), Some(0b1010));  // second: fire + multicast
/// assert_eq!(rf.receive(0, 0), None);          // counter auto-reset
/// ```
#[derive(Clone, Debug)]
pub struct RouterFence {
    ports: usize,
    vcs: usize,
    state: Vec<MergeState>,
}

impl RouterFence {
    /// Creates an unconfigured array for a router with `ports` input ports
    /// and `vcs` virtual channels.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(ports: usize, vcs: usize) -> Self {
        assert!(ports > 0 && vcs > 0, "router must have ports and VCs");
        RouterFence {
            ports,
            vcs,
            state: vec![MergeState::default(); ports * vcs],
        }
    }

    fn idx(&self, port: usize, vc: usize) -> usize {
        assert!(port < self.ports, "port {port} out of range");
        assert!(vc < self.vcs, "vc {vc} out of range");
        port * self.vcs + vc
    }

    /// Preconfigures the expected arrival count and output multicast mask
    /// for `(port, vc)` — done by software per fence pattern (§V-B).
    pub fn configure(&mut self, port: usize, vc: usize, expected: u8, output_mask: u16) {
        assert!(expected > 0, "expected count must be positive");
        let i = self.idx(port, vc);
        self.state[i] = MergeState {
            counter: 0,
            expected,
            output_mask,
        };
    }

    /// A fence packet arrives at `(port, vc)`. Returns `Some(mask)` when
    /// this arrival completes the merge: a single fence packet is then
    /// multicast to each output port set in the mask, and the counter
    /// resets for the next fence.
    ///
    /// # Panics
    /// Panics if the port/VC was never configured (expected count 0) —
    /// a fence packet arriving at an unconfigured port indicates a
    /// misprogrammed fence route.
    pub fn receive(&mut self, port: usize, vc: usize) -> Option<u16> {
        let i = self.idx(port, vc);
        let s = &mut self.state[i];
        assert!(
            s.expected > 0,
            "fence packet at unconfigured port {port} vc {vc}"
        );
        s.counter += 1;
        if s.counter == s.expected {
            s.counter = 0;
            Some(s.output_mask)
        } else {
            None
        }
    }

    /// Current counter value (for observability and tests).
    pub fn counter(&self, port: usize, vc: usize) -> u8 {
        self.state[self.idx(port, vc)].counter
    }

    /// True when every merge counter is zero (no partially merged fence).
    pub fn quiescent(&self) -> bool {
        self.state.iter().all(|s| s.counter == 0)
    }
}

/// The concurrent-fence allocator with adapter flow control (§V-D): the
/// network supports up to 14 outstanding fences; network adapters limit
/// injection of new fences so the Edge Router needs only 96 counters per
/// input port.
#[derive(Clone, Debug)]
pub struct FenceAllocator {
    in_flight: [bool; MAX_CONCURRENT_FENCES],
    active: usize,
    peak: usize,
}

impl Default for FenceAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl FenceAllocator {
    /// Creates an allocator with all slots free.
    pub fn new() -> Self {
        FenceAllocator {
            in_flight: [false; MAX_CONCURRENT_FENCES],
            active: 0,
            peak: 0,
        }
    }

    /// Attempts to begin a new fence; `None` when all 14 slots are in
    /// flight (the adapter stalls the injecting GC until one retires).
    pub fn try_acquire(&mut self) -> Option<FenceSlot> {
        let slot = self.in_flight.iter().position(|&b| !b)?;
        self.in_flight[slot] = true;
        self.active += 1;
        self.peak = self.peak.max(self.active);
        Some(FenceSlot(slot as u8))
    }

    /// Retires a completed fence.
    ///
    /// # Panics
    /// Panics if the slot was not in flight (double release).
    pub fn release(&mut self, slot: FenceSlot) {
        let i = slot.0 as usize;
        assert!(self.in_flight[i], "slot {i} released twice");
        self.in_flight[i] = false;
        self.active -= 1;
    }

    /// Fences currently in flight.
    pub fn active(&self) -> usize {
        self.active
    }

    /// High-water mark of concurrent fences.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// Computes the expected fence-packet count for a node-level merge point:
/// local sources plus one merged fence per (neighbor direction × slice ×
/// request VC). Used by the machine model to arm its per-node fence state,
/// mirroring the per-router configuration of §V-B at node granularity.
pub fn node_expected_count(local_sources: u32, neighbor_units: u32) -> u32 {
    local_sources + neighbor_units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_fires_at_expected_count() {
        let mut rf = RouterFence::new(6, 4);
        rf.configure(2, 1, 3, 0b101);
        assert_eq!(rf.receive(2, 1), None);
        assert_eq!(rf.receive(2, 1), None);
        assert_eq!(rf.counter(2, 1), 2);
        assert_eq!(rf.receive(2, 1), Some(0b101));
        assert_eq!(rf.counter(2, 1), 0, "counter resets when the fence fires");
    }

    #[test]
    fn vcs_merge_independently() {
        let mut rf = RouterFence::new(2, 4);
        for vc in 0..4 {
            rf.configure(0, vc, 2, 1 << vc);
        }
        for vc in 0..4 {
            assert_eq!(rf.receive(0, vc), None);
        }
        for vc in 0..4 {
            assert_eq!(rf.receive(0, vc), Some(1 << vc), "vc {vc}");
        }
    }

    #[test]
    fn ports_merge_independently() {
        let mut rf = RouterFence::new(3, 1);
        rf.configure(0, 0, 1, 0b001);
        rf.configure(1, 0, 1, 0b010);
        assert_eq!(rf.receive(0, 0), Some(0b001));
        assert_eq!(rf.receive(1, 0), Some(0b010));
    }

    #[test]
    fn consecutive_fences_reuse_counters() {
        let mut rf = RouterFence::new(1, 1);
        rf.configure(0, 0, 2, 0b1);
        for round in 0..5 {
            assert_eq!(rf.receive(0, 0), None, "round {round}");
            assert_eq!(rf.receive(0, 0), Some(0b1), "round {round}");
        }
        assert!(rf.quiescent());
    }

    #[test]
    #[should_panic(expected = "unconfigured port")]
    fn unconfigured_port_panics() {
        let mut rf = RouterFence::new(1, 1);
        let _ = rf.receive(0, 0);
    }

    #[test]
    fn allocator_caps_at_14() {
        let mut a = FenceAllocator::new();
        let slots: Vec<FenceSlot> = std::iter::from_fn(|| a.try_acquire()).collect();
        assert_eq!(slots.len(), MAX_CONCURRENT_FENCES);
        assert_eq!(a.try_acquire(), None, "15th fence must stall");
        a.release(slots[3]);
        assert_eq!(a.try_acquire(), Some(FenceSlot(3)), "freed slot is reused");
        assert_eq!(a.peak(), 14);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_panics() {
        let mut a = FenceAllocator::new();
        let s = a.try_acquire().unwrap();
        a.release(s);
        a.release(s);
    }

    #[test]
    fn node_expected_counts() {
        // 576 local GCs plus 6 directions x 2 slices x 4 VCs of merged
        // neighbor fences.
        assert_eq!(node_expected_count(576, 6 * 2 * 4), 624);
    }
}
