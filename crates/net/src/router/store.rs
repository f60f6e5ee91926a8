//! The flit store: all of one router's per-VC input queues in one
//! structure-of-arrays slab, grown lazily toward each queue's credit
//! window.

use super::*;

/// The placeholder flit filling unoccupied [`FlitStore`] slots.
const NULL_FLIT: Flit = Flit {
    packet: 0,
    index: 0,
    of: 1,
    dest: 0,
    vc: 0,
    tag: 0,
    injected_at: 0,
};

/// Structure-of-arrays flit store: every per-VC input queue of one
/// router lives in a single contiguous slab instead of one `VecDeque`
/// per `(port, VC)` pair.
///
/// # Layout
///
/// Queues are indexed flat (`port * vcs + vc`, the round-robin rank and
/// the bit of the router's occupied-queue bitsets). Queue `q` is a ring
/// of `alloc[q]` allocated entries occupying slots
/// `slots[off[q] .. off[q] + alloc[q]]` (rings never interleave). The
/// ring cursors — `head[q]`, `len[q]`, `cap[q]`, `alloc[q]` — are
/// themselves dense parallel arrays, so the hot per-queue questions a
/// saturated fabric asks thousands of times per cycle (front lookup,
/// occupancy for credit checks) walk small contiguous memory instead
/// of chasing per-queue heap blocks. Entries carry their arrival cycle
/// next to the flit so pipeline latency and queue occupancy stay
/// decoupled: the router is fully pipelined (one flit per cycle per
/// output) with a fixed traversal latency.
///
/// # Capacity versus allocation
///
/// `cap[q]` is the queue's **credit window** — the flow-control
/// behavior, untouched by anything below. `alloc[q] <= cap[q]` is how
/// many slots are physically allocated, grown geometrically on demand
/// by the (private) `push`. A fresh store allocates **nothing**: a
/// 32³ fabric has ~2.3 M input queues whose deep bandwidth-delay-product
/// credit windows would cost gigabytes if materialized eagerly, yet in
/// any real run only the queues traffic actually reaches ever hold a
/// flit. Growth re-packs the store's slab (amortized by doubling, and a
/// queue never shrinks), so steady state is allocation-free exactly like
/// the eager layout was. Credit math reads `cap` only — allocation is
/// invisible to arbitration, injection, and the sharded stepper, which
/// keeps every stepper bit-identical to the eager layout.
///
/// Queues default to the paper's 8-flit router depth
/// ([`INPUT_QUEUE_FLITS`]); ports standing in for bigger buffers (the
/// Channel Adapter's receive buffering on inter-node links) get a
/// deeper credit window via [`CycleRouter::set_input_depth`] (a
/// setup-time operation that adjusts `cap` alone).
#[derive(Clone, Debug)]
pub struct FlitStore {
    /// The slab: per-queue rings at their individual offsets.
    slots: Vec<(Flit, u64)>,
    /// Start of each queue's ring within `slots`.
    off: Vec<u32>,
    /// Ring read cursor per queue.
    head: Vec<u16>,
    /// Occupancy per queue.
    len: Vec<u16>,
    /// Credit window per queue (flow control; may exceed `alloc`).
    cap: Vec<u16>,
    /// Allocated ring slots per queue (`len <= alloc <= cap`).
    alloc: Vec<u16>,
}

impl FlitStore {
    /// A store of `queues` rings with an 8-flit credit window and no
    /// slots allocated yet.
    pub(super) fn new(queues: usize) -> Self {
        FlitStore {
            slots: Vec::new(),
            off: vec![0; queues],
            head: vec![0; queues],
            len: vec![0; queues],
            cap: vec![INPUT_QUEUE_FLITS as u16; queues],
            alloc: vec![0; queues],
        }
    }

    /// Number of queues in the store.
    pub(super) fn queues(&self) -> usize {
        self.cap.len()
    }

    /// Sets queue `q`'s credit window to `cap` slots. Allocation is
    /// untouched (it grows lazily on push and is clamped here if the
    /// window shrank below it).
    ///
    /// # Panics
    /// Panics if the queue holds more flits than the new capacity, or if
    /// the capacity exceeds the `u16` ring cursors.
    pub(super) fn set_cap(&mut self, q: usize, cap: usize) {
        assert!(cap <= u16::MAX as usize, "queue depth must fit u16");
        assert!(self.len[q] as usize <= cap, "cannot shrink below occupancy");
        self.cap[q] = cap as u16;
        if self.alloc[q] > self.cap[q] {
            // Occupancy fits the new window (asserted above); re-pack the
            // ring into a smaller allocation so `alloc <= cap` holds.
            self.grow(q, cap.max(self.len[q] as usize));
        }
    }

    /// Re-sizes queue `q`'s ring to exactly `alloc` slots, rebuilding
    /// the slab with every queue's ring compacted to `head == 0`. Cold:
    /// called only when a push meets a full allocation (amortized by
    /// doubling) or a credit window shrinks at setup time.
    fn grow(&mut self, q: usize, alloc: usize) {
        let mut slots = Vec::new();
        let total: usize = (0..self.queues())
            .map(|i| {
                if i == q {
                    alloc
                } else {
                    self.alloc[i] as usize
                }
            })
            .sum();
        slots.resize(total, (NULL_FLIT, 0));
        let mut off = 0usize;
        for i in 0..self.queues() {
            let new_alloc = if i == q {
                alloc
            } else {
                self.alloc[i] as usize
            };
            for k in 0..self.len[i] as usize {
                let from = (self.head[i] as usize + k) % self.alloc[i] as usize;
                slots[off + k] = self.slots[self.off[i] as usize + from];
            }
            self.off[i] = off as u32;
            self.head[i] = 0;
            self.alloc[i] = new_alloc as u16;
            off += new_alloc;
        }
        self.slots = slots;
    }

    /// Capacity of queue `q` (its credit window).
    #[inline]
    pub(super) fn capacity(&self, q: usize) -> usize {
        self.cap[q] as usize
    }

    /// Occupancy of queue `q` in flits.
    #[inline]
    pub(super) fn len(&self, q: usize) -> usize {
        self.len[q] as usize
    }

    /// Whether queue `q` is empty.
    #[inline]
    pub(super) fn is_empty(&self, q: usize) -> bool {
        self.len[q] == 0
    }

    /// Free flit slots on queue `q` (credits not yet consumed).
    #[inline]
    pub(super) fn free_slots(&self, q: usize) -> usize {
        (self.cap[q] - self.len[q]) as usize
    }

    /// The front entry of queue `q`, as `(flit, arrival cycle)`.
    #[inline]
    pub(super) fn front(&self, q: usize) -> Option<&(Flit, u64)> {
        if self.len[q] == 0 {
            return None;
        }
        Some(&self.slots[self.off[q] as usize + self.head[q] as usize])
    }

    /// Appends a flit to queue `q`, growing its ring if the allocation
    /// is exhausted (never beyond the credit window).
    #[inline]
    pub(super) fn push(&mut self, q: usize, f: Flit, cycle: u64) {
        debug_assert!(self.len[q] < self.cap[q], "flit accepted without a credit");
        if self.len[q] == self.alloc[q] {
            let grown = (self.alloc[q] as usize * 2)
                .max(INPUT_QUEUE_FLITS)
                .min(self.cap[q] as usize);
            self.grow(q, grown);
        }
        let at = (self.head[q] + self.len[q]) % self.alloc[q];
        self.slots[self.off[q] as usize + at as usize] = (f, cycle);
        self.len[q] += 1;
    }

    /// Pops the front flit of queue `q`.
    #[inline]
    pub(super) fn pop(&mut self, q: usize) -> Option<Flit> {
        if self.len[q] == 0 {
            return None;
        }
        let f = self.slots[self.off[q] as usize + self.head[q] as usize].0;
        self.head[q] = (self.head[q] + 1) % self.alloc[q];
        self.len[q] -= 1;
        Some(f)
    }

    /// Heap bytes behind the store, as `(flit slab, ring cursors)`.
    pub(super) fn memory_bytes(&self) -> (usize, usize) {
        let slab = self.slots.capacity() * std::mem::size_of::<(Flit, u64)>();
        let cursors = self.off.capacity() * std::mem::size_of::<u32>()
            + (self.head.capacity()
                + self.len.capacity()
                + self.cap.capacity()
                + self.alloc.capacity())
                * std::mem::size_of::<u16>();
        (slab, cursors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::tests::flit;

    #[test]
    fn queue_depth_is_eight_flits() {
        let mut store = FlitStore::new(2);
        for i in 0..INPUT_QUEUE_FLITS {
            assert!(store.free_slots(0) > 0, "flit {i}");
            store.push(0, flit(i as u64, 0, 1, 0, 0), 0);
        }
        assert_eq!(
            store.free_slots(0),
            0,
            "ninth flit must be refused by credits"
        );
        assert_eq!(store.len(0), 8);
        assert!(store.is_empty(1), "neighboring ring untouched");
    }

    #[test]
    fn flit_store_repacks_on_deepening() {
        // Fill two rings, deepen one: the slab re-packs as the rings grow
        // lazily and both rings keep their contents and FIFO order.
        let mut store = FlitStore::new(2);
        let (slab, _) = store.memory_bytes();
        assert_eq!(slab, 0, "a fresh store allocates no flit slots");
        for i in 0..6u64 {
            store.push(0, flit(i, 0, 1, 0, 0), i);
            store.push(1, flit(100 + i, 0, 1, 0, 1), i);
        }
        // Rotate ring 0 so its head is mid-slab before the re-pack.
        for i in 0..3u64 {
            assert_eq!(store.pop(0).unwrap().packet, i);
        }
        store.set_cap(0, 32);
        assert_eq!(store.capacity(0), 32);
        assert_eq!(store.capacity(1), INPUT_QUEUE_FLITS);
        for i in 6..30u64 {
            store.push(0, flit(i, 0, 1, 0, 0), i);
        }
        for i in 3..30u64 {
            assert_eq!(store.pop(0).unwrap().packet, i, "FIFO order after re-pack");
        }
        for i in 0..6u64 {
            assert_eq!(store.pop(1).unwrap().packet, 100 + i);
        }
    }
}
