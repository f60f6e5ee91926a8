//! The flit store: all of one router's per-VC input queues in one
//! structure-of-arrays slab, grown lazily toward each queue's credit
//! window.

use super::*;

/// The placeholder flit filling unoccupied [`FlitStore`] slots.
const NULL_FLIT: PackedFlit = PackedFlit {
    packet: 0,
    injected_at: 0,
    dest: 0,
    tag: 0,
    index: 0,
    of: 1,
};

// A saturated fabric grows its slabs toward the credit windows; keep a
// slot small.
const _: () = assert!(std::mem::size_of::<(PackedFlit, u64)>() == 32);

/// Structure-of-arrays flit store: every per-VC input queue of one
/// router lives in a single contiguous slab instead of one `VecDeque`
/// per `(port, VC)` pair.
///
/// # Layout
///
/// Queues are indexed flat (`port * vcs + vc`, the round-robin rank and
/// the bit of the router's front bitsets). Each queue's ring
/// cursors — `off`, `head`, `len`, `cap`, `alloc` — form one 12-byte
/// record in one dense `Vec`, and queue `q` is a ring of its `alloc`
/// entries at `slots[off .. off + alloc]` (rings never interleave). A
/// push or a pop, and the hot per-queue questions a saturated fabric
/// asks thousands of times per cycle (front lookup, occupancy for
/// credit checks), touch one small record in contiguous memory instead
/// of chasing per-queue heap blocks. A slot is 32 bytes: the flit
/// without its VC, which is the queue's own (the [`CycleRouter`] puts
/// it back when it reads or pops the flit), next to its arrival cycle,
/// so pipeline latency and queue occupancy stay decoupled: the router
/// is fully pipelined (one flit per cycle per output) with a fixed
/// traversal latency.
///
/// # Capacity versus allocation
///
/// A queue's `cap` is its **credit window** — the flow-control
/// behavior, untouched by anything below. Its `alloc <= cap` is how
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
    /// The slab: per-queue rings at their individual offsets, each
    /// slot a flit and its arrival cycle.
    slots: Vec<(PackedFlit, u64)>,
    /// Each queue's ring cursors.
    rings: Vec<Ring>,
}

/// One queue's ring cursors within its [`FlitStore`]'s slab.
#[derive(Clone, Copy, Debug)]
struct Ring {
    /// Start of the ring within the slab.
    off: u32,
    /// Read cursor, relative to `off`.
    head: u16,
    /// Occupancy.
    len: u16,
    /// Credit window (flow control; may exceed `alloc`).
    cap: u16,
    /// Allocated ring slots (`len <= alloc <= cap`).
    alloc: u16,
}

// A 32³ fabric has ~2.3 M queues; keep a record small.
const _: () = assert!(std::mem::size_of::<Ring>() == 12);

impl FlitStore {
    /// A store of `queues` rings with an 8-flit credit window and no
    /// slots allocated yet.
    pub(super) fn new(queues: usize) -> Self {
        let ring = Ring {
            off: 0,
            head: 0,
            len: 0,
            cap: INPUT_QUEUE_FLITS as u16,
            alloc: 0,
        };
        FlitStore {
            slots: Vec::new(),
            rings: vec![ring; queues],
        }
    }

    /// Number of queues in the store.
    pub(super) fn queues(&self) -> usize {
        self.rings.len()
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
        let ring = &mut self.rings[q];
        assert!(ring.len as usize <= cap, "cannot shrink below occupancy");
        ring.cap = cap as u16;
        if ring.alloc > ring.cap {
            // Occupancy fits the new window (asserted above); re-pack the
            // ring into a smaller allocation so `alloc <= cap` holds.
            self.grow(q, cap);
        }
    }

    /// Re-sizes queue `q`'s ring to exactly `alloc` slots, rebuilding
    /// the slab with every queue's ring compacted to `head == 0`. Cold:
    /// called only when a push meets a full allocation (amortized by
    /// doubling) or a credit window shrinks at setup time.
    fn grow(&mut self, q: usize, alloc: usize) {
        // The slab holds exactly every ring's allocation.
        let mut slots = Vec::new();
        slots.resize(
            self.slots.len() - self.rings[q].alloc as usize + alloc,
            (NULL_FLIT, 0),
        );
        let mut off = 0usize;
        for (i, ring) in self.rings.iter_mut().enumerate() {
            for k in 0..ring.len as usize {
                let from = (ring.head as usize + k) % ring.alloc as usize;
                slots[off + k] = self.slots[ring.off as usize + from];
            }
            if i == q {
                ring.alloc = alloc as u16;
            }
            ring.off = off as u32;
            ring.head = 0;
            off += ring.alloc as usize;
        }
        debug_assert_eq!(off, slots.len(), "a ring allocation outside the slab");
        self.slots = slots;
    }

    /// Capacity of queue `q` (its credit window).
    #[inline]
    pub(super) fn capacity(&self, q: usize) -> usize {
        self.rings[q].cap as usize
    }

    /// Occupancy of queue `q` in flits.
    #[inline]
    pub(super) fn len(&self, q: usize) -> usize {
        self.rings[q].len as usize
    }

    /// Whether queue `q` is empty.
    #[inline]
    pub(super) fn is_empty(&self, q: usize) -> bool {
        self.rings[q].len == 0
    }

    /// Free flit slots on queue `q` (credits not yet consumed).
    #[inline]
    pub(super) fn free_slots(&self, q: usize) -> usize {
        let ring = &self.rings[q];
        (ring.cap - ring.len) as usize
    }

    /// The front entry of queue `q`, as `(flit, arrival cycle)`.
    #[inline]
    pub(super) fn front(&self, q: usize) -> Option<(PackedFlit, u64)> {
        let ring = &self.rings[q];
        if ring.len == 0 {
            return None;
        }
        Some(self.slots[ring.off as usize + ring.head as usize])
    }

    /// Appends a flit to queue `q`, growing its ring if the allocation
    /// is exhausted (never beyond the credit window). Panics, in release
    /// builds too, if the queue is full: the flit had no credit.
    #[inline]
    pub(super) fn push(&mut self, q: usize, f: PackedFlit, cycle: u64) {
        let ring = self.rings[q];
        if ring.len == ring.alloc {
            // Only a full allocation can be a full queue (`alloc <= cap`).
            let cap = ring.cap;
            assert!(ring.len < cap, "queue {q} is full at its {cap}-flit depth");
            let grown = (ring.alloc as usize * 2)
                .max(INPUT_QUEUE_FLITS)
                .min(cap as usize);
            self.grow(q, grown);
        }
        let ring = &mut self.rings[q];
        let at = (ring.head + ring.len) % ring.alloc;
        self.slots[ring.off as usize + at as usize] = (f, cycle);
        ring.len += 1;
    }

    /// Pops the front flit of queue `q`.
    #[inline]
    pub(super) fn pop(&mut self, q: usize) -> Option<PackedFlit> {
        let ring = &mut self.rings[q];
        if ring.len == 0 {
            return None;
        }
        let f = self.slots[ring.off as usize + ring.head as usize].0;
        ring.head = (ring.head + 1) % ring.alloc;
        ring.len -= 1;
        Some(f)
    }

    /// Heap bytes behind the store, as `(flit slab, ring cursors)`.
    pub(super) fn memory_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let slab = self.slots.capacity() * size_of::<(PackedFlit, u64)>();
        (slab, self.rings.capacity() * size_of::<Ring>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::tests::flit;

    /// A one-flit packet `packet`, as a queue slot holds it.
    fn packed(packet: u64) -> PackedFlit {
        PackedFlit::new(&flit(packet, 0, 1, 0, 0))
    }

    #[test]
    fn queue_depth_is_eight_flits() {
        let mut store = FlitStore::new(2);
        for i in 0..INPUT_QUEUE_FLITS {
            assert!(store.free_slots(0) > 0, "flit {i}");
            store.push(0, packed(i as u64), 0);
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
            store.push(0, packed(i), i);
            store.push(1, packed(100 + i), i);
        }
        // Rotate ring 0 so its head is mid-slab before the re-pack.
        for i in 0..3u64 {
            assert_eq!(store.pop(0).unwrap().packet, i);
        }
        store.set_cap(0, 32);
        assert_eq!(store.capacity(0), 32);
        assert_eq!(store.capacity(1), INPUT_QUEUE_FLITS);
        for i in 6..30u64 {
            store.push(0, packed(i), i);
        }
        for i in 3..30u64 {
            assert_eq!(store.pop(0).unwrap().packet, i, "FIFO order after re-pack");
        }
        for i in 0..6u64 {
            assert_eq!(store.pop(1).unwrap().packet, 100 + i);
        }
    }
}
