//! Cycle-level router microarchitecture — paper §III-B.
//!
//! The Anton 3 routers use virtual cut-through flow control with small
//! (8-flit) per-VC input queues and credit-based backpressure; control
//! information runs two cycles ahead of the datapath so the per-hop
//! latency stays at 2 cycles (Core Router U direction), 5 cycles (V
//! direction) or 3 cycles (Edge Router). This module implements that
//! microarchitecture at flit granularity:
//!
//! - [`FlitStore`] — all of a router's 8-flit per-VC input queues as
//!   one structure-of-arrays slab with credit accounting;
//! - [`CycleRouter`] — input-queued router: per-cycle route computation,
//!   round-robin output arbitration across (port, VC), cut-through
//!   forwarding, credit return;
//! - [`RouterFabric`] — a network of routers wired port-to-port, stepped
//!   cycle by cycle, with injection/ejection endpoints and per-link
//!   latency/bandwidth channels ([`LinkSpec`]) for modeling the long
//!   SERDES + wire crossings between nodes.
//!
//! Route decisions are computed per hop by a [`RouteFn`] from the head
//! flit itself: each [`Flit`] carries an opaque [`Flit::tag`] so routing
//! schemes with per-packet state — the randomized dimension orders and
//! dateline VC switches of [`crate::routing`], built into a full torus by
//! [`crate::fabric3d`] — can thread that state through the fabric. The
//! latency-formula models in [`crate::path`] are calibrated against this
//! implementation (see the `hop_latencies_match_paper` tests): the
//! formulas are what the large experiments use; the cycle model is the
//! ground truth for the per-hop constants.
//!
//! # Event-driven stepping
//!
//! Every production step runs one kernel, the lookahead-epoch kernel of
//! the `shard` module: inline on the calling thread at one shard, with
//! pool workers for the other regions after [`RouterFabric::set_shards`].
//! Large fabrics are mostly idle, and even saturated ones keep most
//! (port, VC) pairs empty, so the kernel is organized around work lists
//! rather than full scans:
//!
//! - an **active-router worklist**: routers enqueue themselves when they
//!   accept a flit (link arrival, same-cycle move, or injection) and are
//!   dropped when they go idle, so arbitration visits only routers that
//!   can possibly act;
//! - **per-shard arrival wheels**: a departure onto a positive-latency
//!   link books the flit on the downstream shard's calendar wheel at the
//!   arrival cycle, where its landing accepts it into the downstream
//!   queue — no per-link delay line, no serial replay;
//! - **sender-held credits**: each router keeps one credit count per
//!   (output, VC) for the queue its link feeds. A departure spends one,
//!   a pop returns one to the link feeding the popped queue at the end
//!   of the cycle, and a landing touches none, so a credit check is one
//!   read of the router's own row. Arbitration asks it for the target
//!   of each ready head front it walks, and stall classification asks
//!   the same check — the counts cannot change while a cycle
//!   arbitrates, so no snapshot or probe table is needed;
//! - **one walk over the occupied queue fronts**: each router keeps a
//!   bitset of its occupied input queues, the subset whose front is a
//!   head, and a per-queue memo of each front's target (a head's route
//!   decision, a body flit's owned output), filled once and cleared
//!   when the front pops. Arbitration walks the head fronts that have
//!   cleared the pipeline in ascending order, keeping per output the
//!   head the round-robin scan would grant; with telemetry on, stall
//!   classification walks every occupied front that has cleared the
//!   pipeline through the same memo (one compare skips a front still in
//!   it: pipeline time is not a stall), and each shard writes its own
//!   links' advances and stalls straight into the telemetry counters,
//!   so nothing is buffered or replayed;
//! - **allocation-free hot path**: the per-cycle buffers (picks,
//!   departures) persist across cycles, so a steady-state step
//!   allocates nothing but, at more than one shard, each epoch's short
//!   list of per-shard row views;
//! - an event fast-forward ([`RouterFabric::step_batched`],
//!   [`RouterFabric::step_endpoints`]) that jumps the dead cycles between
//!   link-arrival events when no router has queued work — in-flight wire
//!   time is the dominant idle span on calibrated tori;
//! - **node endpoints inside the windows** ([`RouterFabric::step_endpoints`]):
//!   traffic sources that generate, inject and react to deliveries run in
//!   the shard owning their routers, at the top of every private cycle
//!   and at every ejection, so a reacting workload does not pin epochs to
//!   one cycle;
//! - **borrowed shard rows**: each window borrows only its own shard's
//!   rows of the fabric (routers, links, credit rows, scratch),
//!   split off with ordinary slices, so the compiler checks the
//!   partition; handing the rows to the pool's worker threads is the
//!   crate's one `unsafe` block.
//!
//! The pre-worklist full-scan stepper is retained verbatim as
//! [`RouterFabric::step_reference`] (arbitrating via
//! [`CycleRouter::tick`]): it is the executable specification the
//! kernel must match bit for bit at every shard count and window — same
//! delivery log, same cycle numbers, same per-link counters, telemetry
//! and packet trace — and the `stepper_equivalence` property tests and the
//! committed benchmark's traced checks hold the two to exactly that.

use crate::telemetry::{
    LinkRecorder, StallCause, Telemetry, TelemetryConfig, TraceEvent, TraceEventKind,
};
use anton_model::asic::INPUT_QUEUE_FLITS;
use core::fmt;

/// A flit in flight through the fabric: routing state plus bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Flit {
    /// Packet identifier (all flits of a packet carry the same id).
    pub packet: u64,
    /// Flit index within the packet (0 = head).
    pub index: u8,
    /// Total flits in the packet (1 or 2).
    pub of: u8,
    /// Destination endpoint id (fabric-level).
    pub dest: u32,
    /// Virtual channel (of the input queue currently holding the flit;
    /// rewritten on each hop from the [`RouteDecision`]).
    pub vc: u8,
    /// Opaque per-packet routing state, carried untouched by the routers
    /// and interpreted/updated only by the fabric's [`RouteFn`] (e.g.
    /// dimension order, dateline-crossing, and wire-byte-kind bits in
    /// [`crate::fabric3d`]). Zero for fabrics that don't need it.
    pub tag: u16,
    /// Cycle the flit was injected (for latency measurement).
    pub injected_at: u64,
}

impl Flit {
    /// Whether this is the head flit (carries routing information).
    pub fn is_head(&self) -> bool {
        self.index == 0
    }

    /// Whether this is the tail flit (frees the VC allocation).
    pub fn is_tail(&self) -> bool {
        self.index + 1 == self.of
    }
}

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
    fn new(queues: usize) -> Self {
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
    fn queues(&self) -> usize {
        self.cap.len()
    }

    /// Sets queue `q`'s credit window to `cap` slots. Allocation is
    /// untouched (it grows lazily on push and is clamped here if the
    /// window shrank below it).
    ///
    /// # Panics
    /// Panics if the queue holds more flits than the new capacity, or if
    /// the capacity exceeds the `u16` ring cursors.
    fn set_cap(&mut self, q: usize, cap: usize) {
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
    fn capacity(&self, q: usize) -> usize {
        self.cap[q] as usize
    }

    /// Occupancy of queue `q` in flits.
    #[inline]
    fn len(&self, q: usize) -> usize {
        self.len[q] as usize
    }

    /// Whether queue `q` is empty.
    #[inline]
    fn is_empty(&self, q: usize) -> bool {
        self.len[q] == 0
    }

    /// Free flit slots on queue `q` (credits not yet consumed).
    #[inline]
    fn free_slots(&self, q: usize) -> usize {
        (self.cap[q] - self.len[q]) as usize
    }

    /// The front entry of queue `q`, as `(flit, arrival cycle)`.
    #[inline]
    fn front(&self, q: usize) -> Option<&(Flit, u64)> {
        if self.len[q] == 0 {
            return None;
        }
        Some(&self.slots[self.off[q] as usize + self.head[q] as usize])
    }

    /// Appends a flit to queue `q`, growing its ring if the allocation
    /// is exhausted (never beyond the credit window).
    #[inline]
    fn push(&mut self, q: usize, f: Flit, cycle: u64) {
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
    fn pop(&mut self, q: usize) -> Option<Flit> {
        if self.len[q] == 0 {
            return None;
        }
        let f = self.slots[self.off[q] as usize + self.head[q] as usize].0;
        self.head[q] = (self.head[q] + 1) % self.alloc[q];
        self.len[q] -= 1;
        Some(f)
    }

    /// Heap bytes behind the store, as `(flit slab, ring cursors)`.
    fn memory_bytes(&self) -> (usize, usize) {
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

/// The routing decision for a head flit at a router: the output port plus
/// the VC and tag the flit carries on the *outgoing* link (dateline
/// schemes switch VCs between hops; see [`crate::routing`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteDecision {
    /// Output port the packet leaves through.
    pub port: usize,
    /// Virtual channel on the outgoing link (the downstream input queue).
    pub vc: u8,
    /// Updated routing tag for the downstream hop.
    pub tag: u16,
}

impl RouteDecision {
    /// A decision that keeps the flit's current VC and tag — the common
    /// case for fabrics without per-hop VC switching.
    pub fn keep(port: usize, f: &Flit) -> Self {
        RouteDecision {
            port,
            vc: f.vc,
            tag: f.tag,
        }
    }
}

/// The per-hop routing function: maps a head flit at a router to the
/// output port / outgoing VC / updated tag.
///
/// A route function must be a **pure** function of the flit and the
/// router id. The epoch kernel routes a head once and keeps the
/// decision until the head departs, while the reference stepper routes
/// it again every cycle, so a function with hidden state would diverge
/// between the two (the `stepper_equivalence` tests would catch it).
/// Route functions are `Send + Sync`: the sharded stepper
/// ([`RouterFabric::set_shards`]) calls one route function from every
/// shard worker concurrently.
pub type RouteFn = dyn Fn(&Flit, usize /*router id*/) -> RouteDecision + Send + Sync;

/// A per-flit class extractor for the per-class link traffic counters:
/// maps a flit (typically via its [`Flit::tag`]) to a dense class index
/// below the count given to [`RouterFabric::set_flit_classes`]. The
/// torus fabric uses this to type wire bytes by
/// [`crate::channel::ByteKind`].
pub type FlitClassFn = dyn Fn(&Flit) -> usize + Send + Sync;

/// The (input port, input VC, outgoing VC, outgoing tag) of the packet
/// currently owning an output port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct OutputOwner {
    packet: u64,
    in_port: usize,
    in_vc: u8,
    out_vc: u8,
    out_tag: u16,
}

/// A queue front's resolved target: the output it waits on and the VC
/// it takes there — a head's route decision (with the outgoing tag its
/// departure carries), or a body flit's owned output.
#[derive(Clone, Copy, Debug)]
struct FrontTarget {
    tag: u16,
    out: u8,
    out_vc: u8,
}

/// An input-queued, credit-flow-controlled router stepped per cycle.
#[derive(Clone)]
pub struct CycleRouter {
    /// Router id within its fabric (passed to the routing function).
    pub id: usize,
    /// All input queues, flat-indexed `port * vcs + vc` (see
    /// [`FlitStore`] for the slab layout).
    store: FlitStore,
    ports: usize,
    /// In-flight VC allocation: which (input port, vc) currently owns each
    /// output port (packet-granular cut-through: interleaving flits of
    /// different packets on one output VC is not allowed).
    output_owner: Vec<Option<OutputOwner>>,
    /// Round-robin arbitration pointer per output port.
    rr: Vec<usize>,
    /// Pipeline latency in cycles from head arrival to head departure.
    pub pipeline: u64,
    vcs: usize,
    /// Total flits across all input queues (kept incrementally so the
    /// per-cycle idle check is O(1) — large fabrics are mostly idle).
    queued: usize,
    /// Output ports currently owned by an in-flight packet.
    owned: usize,
    /// Queues this router popped during the current arbitration phase,
    /// as flat indices. The fabric drains this after every router has
    /// arbitrated and returns each credit to the link feeding the popped
    /// queue then — credit return is
    /// uniformly visible one cycle later, never mid-arbitration, so a
    /// credit check cannot depend on router visit order (the invariant
    /// the sharded stepper rests on).
    popped: Vec<u16>,
    /// Flat per-queue cycle at which the current front flit clears the
    /// router pipeline (`u64::MAX` when the queue is empty).
    front_ready: Vec<u64>,
    /// Occupied-queue bitset, bit `port * vcs + vc` set while that
    /// queue holds a flit, so stall classification walks the occupied
    /// fronts instead of every port × VC slot.
    occupied: Vec<u64>,
    /// The bits of `occupied` whose front is a head flit: the fronts
    /// arbitration walks. [`Self::accept`] and the pops keep both
    /// bitsets, so both steppers keep them.
    heads: Vec<u64>,
    /// Per-queue memo of the front's target, filled on first use by
    /// arbitration or stall classification and cleared when the front
    /// pops: a head is routed once while it waits, and a body front
    /// looks up its owned output once.
    front_target: Vec<Option<FrontTarget>>,
    /// Each output's pick while [`Self::arbitrate_into`] runs, as a
    /// flat queue index; all `None` between calls.
    picks: Vec<Option<u16>>,
    /// Per-cycle head-flit route snapshot (`[port * vcs + vc]`) used by
    /// the reference full-scan arbiter [`Self::tick`]; reused across
    /// ticks to avoid per-cycle allocation.
    decision_scratch: Vec<Option<(usize, u8, u16)>>,
}

impl CycleRouter {
    /// Creates a router with `ports` input/output ports, `vcs` VCs and a
    /// `pipeline`-cycle traversal latency.
    pub fn new(id: usize, ports: usize, vcs: usize, pipeline: u64) -> Self {
        let queues = ports * vcs;
        assert!(
            queues <= u16::MAX as usize + 1,
            "flat (port, vc) index must fit the u16 picks and pop list"
        );
        assert!(ports <= 256, "port index must fit the packed route memo");
        CycleRouter {
            id,
            store: FlitStore::new(queues),
            ports,
            output_owner: vec![None; ports],
            rr: vec![0; ports],
            pipeline,
            vcs,
            queued: 0,
            owned: 0,
            popped: Vec::new(),
            front_ready: vec![u64::MAX; queues],
            occupied: vec![0; queues.div_ceil(64)],
            heads: vec![0; queues.div_ceil(64)],
            front_target: vec![None; queues],
            picks: vec![None; ports],
            decision_scratch: Vec::new(),
        }
    }

    /// Whether this router can do no work this cycle (no queued flits
    /// and no output owned by a packet still streaming through).
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.owned == 0
    }

    /// Heap bytes behind this router as `(flit slab, scheduler state)`:
    /// the slab is the [`FlitStore`] slot storage; the state covers ring
    /// cursors, the front mirrors (pipeline-ready cycles, the occupied
    /// and head bitsets and the front-target memo), output ownership and
    /// arbitration scratch. Capacity-based — what the allocator actually
    /// handed out.
    pub fn memory_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let (slab, cursors) = self.store.memory_bytes();
        let words = self.front_ready.capacity() + self.occupied.capacity() + self.heads.capacity();
        let fronts = words * size_of::<u64>()
            + self.front_target.capacity() * size_of::<Option<FrontTarget>>();
        let state = cursors
            + fronts
            + self.output_owner.capacity() * size_of::<Option<OutputOwner>>()
            + self.rr.capacity() * size_of::<usize>()
            + self.popped.capacity() * size_of::<u16>()
            + self.picks.capacity() * size_of::<Option<u16>>()
            + self.decision_scratch.capacity() * size_of::<Option<(usize, u8, u16)>>();
        (slab, state)
    }

    /// Resizes the input buffers of one port (all VCs) to `depth` flits.
    /// Ports that model a whole Channel Adapter receive path rather than
    /// a bare Edge Router queue need a credit window covering the link's
    /// bandwidth-delay product, or the wire idles waiting on credits.
    ///
    /// # Panics
    /// Panics if the port already holds more flits than `depth`.
    pub fn set_input_depth(&mut self, port: usize, depth: usize) {
        for v in 0..self.vcs {
            self.store.set_cap(port * self.vcs + v, depth);
        }
    }

    /// Free slots on input `(port, vc)`. (The fabric's arbitration reads
    /// the upstream sender's credit count instead, which lags a pop by a
    /// cycle; see `RouterFabric::credits`.)
    pub fn free_slots(&self, port: usize, vc: u8) -> usize {
        self.store.free_slots(port * self.vcs + vc as usize)
    }

    /// Flits currently queued on input `(port, vc)`.
    pub fn queue_len(&self, port: usize, vc: u8) -> usize {
        self.store.len(port * self.vcs + vc as usize)
    }

    /// The front entry of input queue `(port, vc)` as
    /// `(flit, arrival cycle)`, if any.
    pub(crate) fn front(&self, port: usize, vc: u8) -> Option<&(Flit, u64)> {
        self.store.front(port * self.vcs + vc as usize)
    }

    /// Delivers a flit to input `(port, vc)` at `cycle`.
    ///
    /// # Panics
    /// Panics (in debug) if no credit was available — callers must check
    /// [`Self::free_slots`], exactly as the upstream credit counter would.
    pub fn accept(&mut self, port: usize, vc: u8, flit: Flit, cycle: u64) {
        let idx = port * self.vcs + vc as usize;
        if self.store.is_empty(idx) {
            let bit = 1 << (idx % 64);
            self.occupied[idx / 64] |= bit;
            if flit.is_head() {
                self.heads[idx / 64] |= bit;
            }
            self.front_ready[idx] = cycle + self.pipeline;
        }
        self.store.push(idx, flit, cycle);
        self.queued += 1;
    }

    /// Pops the front flit of input `(p, v)`, maintaining the queued
    /// total, the front mirrors and memo, and the bitsets.
    fn take_front(&mut self, p: usize, v: u8) -> Flit {
        let idx = p * self.vcs + v as usize;
        let flit = self.store.pop(idx).expect("front exists");
        self.queued -= 1;
        self.popped.push(idx as u16);
        self.front_target[idx] = None;
        let (w, bit) = (idx / 64, 1 << (idx % 64));
        match self.store.front(idx) {
            Some(&(next, arrived)) => {
                self.front_ready[idx] = arrived + self.pipeline;
                if next.is_head() {
                    self.heads[w] |= bit;
                } else {
                    self.heads[w] &= !bit;
                }
            }
            None => {
                self.front_ready[idx] = u64::MAX;
                self.occupied[w] &= !bit;
                self.heads[w] &= !bit;
            }
        }
        flit
    }

    /// Completes one departure through `out`: pops the flit from input
    /// `(p, v)`, applies the outgoing VC/tag, and updates the cut-through
    /// ownership and round-robin pointer. Shared by the reference arbiter
    /// ([`Self::tick`]) and the event-driven one
    /// ([`Self::arbitrate_into`]) so the two cannot drift.
    fn depart(&mut self, out: usize, p: usize, v: u8, out_vc: u8, out_tag: u16) -> Flit {
        let mut flit = self.take_front(p, v);
        flit.vc = out_vc;
        flit.tag = out_tag;
        let was_owned = self.output_owner[out].is_some();
        if flit.is_tail() {
            self.output_owner[out] = None;
            self.rr[out] = (p * self.vcs + v as usize + 1) % (self.ports * self.vcs);
        } else {
            self.output_owner[out] = Some(OutputOwner {
                packet: flit.packet,
                in_port: p,
                in_vc: v,
                out_vc,
                out_tag,
            });
        }
        match (was_owned, flit.is_tail()) {
            (false, false) => self.owned += 1,
            (true, true) => self.owned -= 1,
            _ => {}
        }
        flit
    }

    /// Total queued flits (for drain checks).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            (0..self.store.queues())
                .map(|q| self.store.len(q))
                .sum::<usize>(),
            "incremental occupancy diverged"
        );
        self.queued
    }

    /// The target of occupied queue `i`'s front, memoized until the
    /// front pops: a head's route decision, or a body flit's owned
    /// output. `None` for a body front whose packet owns no output,
    /// which the cut-through protocol rules out.
    fn target(&mut self, i: usize, route: &RouteFn) -> Option<FrontTarget> {
        if let Some(t) = self.front_target[i] {
            return Some(t);
        }
        let &(front, _) = self.store.front(i).expect("occupied queue has a front");
        let t = if front.is_head() {
            let d = route(&front, self.id);
            FrontTarget {
                tag: d.tag,
                out: d.port as u8,
                out_vc: d.vc,
            }
        } else {
            let (out, out_vc) = self.owner_output(i / self.vcs, (i % self.vcs) as u8)?;
            FrontTarget {
                tag: 0,
                out: out as u8,
                out_vc,
            }
        };
        self.front_target[i] = Some(t);
        Some(t)
    }

    /// Event-driven arbitration, pushing departures as `(router id,
    /// output, flit)` with the outgoing VC/tag applied. `downstream_ok`
    /// answers the full departure question for `(output, outgoing vc)`,
    /// serialization and downstream credit, exactly as for
    /// [`Self::tick`].
    ///
    /// One ascending walk over the head fronts that have cleared the
    /// pipeline picks, for each unowned output, the first head at or
    /// after the output's round-robin pointer whose check passes, or
    /// else the first one before it: the head `tick`'s rotated scan
    /// grants. Nothing a check reads changes while a router arbitrates,
    /// so asking the checks in walk order changes no grant. Departures
    /// follow in ascending output order, an owner continuing its packet,
    /// and none happens before every pick is made, so a front a pop
    /// reveals waits a cycle, as in `tick`'s route snapshot. The
    /// `stepper_equivalence` tests pin the two bit for bit.
    pub(crate) fn arbitrate_into(
        &mut self,
        cycle: u64,
        route: &RouteFn,
        mut downstream_ok: impl FnMut(usize, u8) -> bool,
        moves: &mut Vec<(usize, usize, Flit)>,
    ) {
        let mut picked = false;
        for w in 0..self.heads.len() {
            let mut bits = self.heads[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.front_ready[i] > cycle {
                    continue;
                }
                let t = self.target(i, route).expect("a head front is routed");
                let out = t.out as usize;
                let rr = self.rr[out];
                // A pick at or after the pointer is final, and so is one
                // before it while the walk is still before it.
                let settled = self.picks[out].is_some_and(|p| p as usize >= rr || i < rr);
                if self.output_owner[out].is_none() && !settled && downstream_ok(out, t.out_vc) {
                    self.picks[out] = Some(i as u16);
                    picked = true;
                }
            }
        }
        if !picked && self.owned == 0 {
            return;
        }
        for out in 0..self.ports {
            let depart = match self.output_owner[out] {
                // Cut-through owners continue their own packet: sources
                // must keep a packet's flits contiguous per (port, VC) —
                // see [`RouterFabric::inject`].
                Some(o) => {
                    let oidx = o.in_port * self.vcs + o.in_vc as usize;
                    let go = self.front_ready[oidx] <= cycle && downstream_ok(out, o.out_vc);
                    debug_assert!(
                        !go || self.store.front(oidx).expect("ready front").0.packet == o.packet,
                        "interleaved flits of two packets on one input VC"
                    );
                    go.then_some((o.in_port, o.in_vc, o.out_vc, o.out_tag))
                }
                None => self.picks[out].take().map(|i| {
                    let i = i as usize;
                    let t = self.front_target[i].expect("a pick is routed");
                    (i / self.vcs, (i % self.vcs) as u8, t.out_vc, t.tag)
                }),
            };
            if let Some((p, v, out_vc, out_tag)) = depart {
                let flit = self.depart(out, p, v, out_vc, out_tag);
                moves.push((self.id, out, flit));
            }
        }
    }

    /// The output port (and outgoing VC) currently owned by input
    /// `(p, v)`'s in-flight packet, if any — the continuation target of
    /// a body flit at that queue's front.
    fn owner_output(&self, p: usize, v: u8) -> Option<(usize, u8)> {
        self.output_owner.iter().enumerate().find_map(|(out, o)| {
            o.filter(|o| o.in_port == p && o.in_vc == v)
                .map(|o| (out, o.out_vc))
        })
    }

    /// Visits every occupied queue front that has cleared the router
    /// pipeline at `cycle`, in ascending flat-index order (the reference
    /// classifier's port × VC order), as `(output, outgoing VC)` — the
    /// per-front inputs of the epoch kernel's stall classification. A
    /// front still in the pipeline costs one compare and is not visited:
    /// pipeline time is not a stall. Targets come from the memo
    /// arbitration fills too, so a stalled front costs no slab read or
    /// route call after its first cycle. A body front whose packet owns
    /// no output is skipped, as [`RouterFabric`]'s reference classifier
    /// skips it.
    pub(crate) fn for_each_front_target(
        &mut self,
        cycle: u64,
        route: &RouteFn,
        mut f: impl FnMut(usize, u8),
    ) {
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.front_ready[i] > cycle {
                    continue;
                }
                if let Some(t) = self.target(i, route) {
                    f(t.out as usize, t.out_vc);
                }
            }
        }
    }

    /// One **reference** arbitration cycle — the naive full scan over
    /// every (port, VC) pair and every output, retained as the
    /// executable specification of the event-driven
    /// `arbitrate_into` path (the `stepper_equivalence` property
    /// tests run both and require bit-identical results). Selects at
    /// most one flit per output port (and at most one per input VC queue
    /// — a single queue read port) and returns the departures as
    /// `(output_port, flit)` with the outgoing VC/tag already applied.
    /// `downstream_ok` reports whether the downstream queue for
    /// `(output_port, outgoing vc)` has a credit and the link is free to
    /// serialize.
    pub fn tick(
        &mut self,
        cycle: u64,
        route: &RouteFn,
        mut downstream_ok: impl FnMut(usize, u8) -> bool,
    ) -> Vec<(usize, Flit)> {
        let ports = self.ports;
        let mut sent = Vec::new();
        if self.is_idle() {
            return sent;
        }
        // Route computation runs once per eligible head flit per cycle
        // (it is a pure function of the flit, so the snapshot stays valid
        // through the per-output arbitration below). An entry is cleared
        // when its flit departs, which also enforces the single read port
        // per input queue.
        let mut decisions = std::mem::take(&mut self.decision_scratch);
        decisions.clear();
        decisions.resize(ports * self.vcs, None);
        for (q, decision) in decisions.iter_mut().enumerate() {
            if let Some(&(head, arrived)) = self.store.front(q) {
                if head.is_head() && arrived + self.pipeline <= cycle {
                    let d = route(&head, self.id);
                    *decision = Some((d.port, d.vc, d.tag));
                }
            }
        }
        for out in 0..ports {
            // If an owner holds the output, it continues its packet;
            // otherwise round-robin over (port, vc) pairs whose head flit
            // routes to this output, has cleared the pipeline, and can be
            // accepted downstream.
            let depart: Option<(usize, u8, u8, u16)> = match self.output_owner[out] {
                Some(o) => match self.store.front(o.in_port * self.vcs + o.in_vc as usize) {
                    Some(&(body, arrived))
                        if arrived + self.pipeline <= cycle && downstream_ok(out, o.out_vc) =>
                    {
                        debug_assert_eq!(
                            body.packet, o.packet,
                            "interleaved flits of two packets on one input VC"
                        );
                        Some((o.in_port, o.in_vc, o.out_vc, o.out_tag))
                    }
                    _ => None,
                },
                None => {
                    let mut found = None;
                    for i in 0..ports * self.vcs {
                        let idx = (self.rr[out] + i) % (ports * self.vcs);
                        if let Some((dout, dvc, dtag)) = decisions[idx] {
                            if dout == out && downstream_ok(out, dvc) {
                                decisions[idx] = None;
                                found = Some((idx / self.vcs, (idx % self.vcs) as u8, dvc, dtag));
                                break;
                            }
                        }
                    }
                    found
                }
            };
            if let Some((p, v, out_vc, out_tag)) = depart {
                let flit = self.depart(out, p, v, out_vc, out_tag);
                sent.push((out, flit));
            }
        }
        self.decision_scratch = decisions;
        sent
    }
}

/// A wiring entry: output port `port` of router `router` feeds input port
/// `dest_port` of router `dest_router` (or an ejection endpoint).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortLink {
    /// Connects to another router's input port.
    Router {
        /// Downstream router index in the fabric.
        router: usize,
        /// Downstream input port.
        port: usize,
    },
    /// Ejects to endpoint `id` (flits are collected for the caller).
    Endpoint(u32),
    /// An input-only port with no outgoing link (injection ports). The
    /// wiring table is self-describing: routing a flit out of an unused
    /// port is a bug, and the fabric refuses to serialize toward one and
    /// panics rather than silently delivering to a bogus endpoint.
    Unused,
}

/// Latency/bandwidth parameters of one physical link.
///
/// On-chip links are effectively instantaneous at this model's
/// granularity (`latency == 0`: arrival lands the same cycle, matching
/// the paper's inclusive per-hop cycle counts). The inter-node SERDES +
/// wire crossing is tens of nanoseconds long and pipelined, so it is
/// modeled as a pipelined wire: flits depart at most one per `interval`
/// cycles (serialization bandwidth) and arrive `latency` cycles later.
/// A departure spends one of the sender's credits — queued plus
/// in-flight flits never exceed the 8-flit downstream queue, exactly as
/// a hardware credit loop sized to the round trip would behave.
///
/// Only router-to-router links have flight time: an ejection link
/// delivers the cycle its flit departs (the endpoint's receive path is
/// part of the last router's pipeline constant), so
/// [`RouterFabric::set_link_spec`] refuses a positive latency on any
/// other port. Its `interval` still paces ejection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkSpec {
    /// Flight cycles from departure to arrival at the downstream queue.
    pub latency: u64,
    /// Minimum cycles between consecutive flits entering the link.
    pub interval: u64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            latency: 0,
            interval: 1,
        }
    }
}

/// One link's spec and traffic counters. The serialization timer and
/// the sender's credits live in the fabric's `next_free` / `credits`
/// rows — they are the arbitration hot path, and a compact per-router
/// array is far cheaper to read than a stride through these (much
/// larger) channel records.
#[derive(Clone, Debug, Default)]
struct ChannelState {
    spec: LinkSpec,
    /// Flits that have entered this link since construction.
    flits_sent: u64,
    /// Packets (tail flits) that have entered this link.
    packets_sent: u64,
    /// Flits that have entered this link, split by the fabric's flit
    /// classes (empty until [`RouterFabric::set_flit_classes`]).
    class_flits: Vec<u64>,
}

/// A flit bound for input `port` of `router`. On an arrival wheel it is
/// a flit in flight, landing at the cycle of its wheel slot: it sits on
/// the wheel of the shard owning `router`, and its landing touches no
/// credit (the sender spent one at departure).
#[derive(Clone, Copy, Debug)]
struct Arrival {
    flit: Flit,
    router: u32,
    port: u8,
}

// A saturated fabric keeps thousands of bookings live; keep them small.
const _: () = assert!(std::mem::size_of::<Arrival>() <= 40);

/// Files `a.flit` into input `(a.port, a.flit.vc)` of router `a.router`
/// at `cycle`, and lists the router on `activated` unless it is active
/// already. The one accept routine of a row view whose first router is
/// `lo`: a shard window's landings and zero-latency hops, and
/// [`InjectPort::inject`]. The sender has spent the credit.
fn accept_and_activate(
    routers: &mut [CycleRouter],
    is_active: &mut [bool],
    activated: &mut Vec<usize>,
    lo: usize,
    a: Arrival,
    cycle: u64,
) {
    let r = a.router as usize;
    routers[r - lo].accept(a.port as usize, a.flit.vc, a.flit, cycle);
    if !is_active[r - lo] {
        is_active[r - lo] = true;
        activated.push(r);
    }
}

/// Why an injection was refused. Callers (injection harnesses, endpoint
/// models) use this to distinguish *source queuing* — the local input
/// port is busy but the fabric is fine, so retrying later succeeds —
/// from a packet that can never be accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectError {
    /// The input VC queue has no credit: every slot of its configured
    /// depth (default [`INPUT_QUEUE_FLITS`], see
    /// [`CycleRouter::set_input_depth`]) is occupied or held by a flit in
    /// flight toward it, so the fabric is backpressuring the source.
    /// Transient: the same injection succeeds once the queue drains.
    NoCredit {
        /// Router whose input port refused the flit.
        router: usize,
        /// Input port that refused the flit.
        port: usize,
        /// Virtual channel with exhausted credits.
        vc: u8,
        /// Flits queued on that VC when the injection was refused.
        occupancy: usize,
    },
    /// The packet has more flits than its injection VC queue is deep,
    /// so it could not enter even an empty fabric (packets inject whole,
    /// see [`crate::fabric3d::TorusFabric::inject`]). Permanent:
    /// retrying can never succeed.
    TooLarge {
        /// Flits in the refused packet.
        nflits: usize,
        /// Depth of the injection VC queue, in flits.
        capacity: usize,
    },
    /// The packet's source or destination is not a node of the fabric
    /// (see [`crate::fabric3d::TorusFabric::inject`]). Permanent: no
    /// flit was taken, and retrying can never succeed.
    NodeOutOfRange {
        /// The out-of-range node index (the source if both are).
        node: usize,
        /// Nodes in the fabric; valid indices are `0..nodes`.
        nodes: usize,
    },
    /// The addressed input queue does not exist: the router index, the
    /// port, or the VC is out of range for the fabric (see
    /// [`RouterFabric::inject`]). Permanent: no flit was taken, and
    /// retrying can never succeed.
    QueueOutOfRange {
        /// Requested router index.
        router: usize,
        /// Requested input port.
        port: usize,
        /// Requested virtual channel.
        vc: u8,
    },
    /// A field of the packet's spec is out of range (see
    /// [`crate::fabric3d::PacketSpec::validate`]). Permanent: no flit
    /// was taken, and retrying the same spec can never succeed.
    InvalidSpec {
        /// Name of the first offending `PacketSpec` field.
        field: &'static str,
        /// Its value.
        value: usize,
    },
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::NoCredit {
                router,
                port,
                vc,
                occupancy,
            } => write!(
                f,
                "no credit on router {router} port {port} vc {vc} ({occupancy} flits queued)"
            ),
            InjectError::TooLarge { nflits, capacity } => write!(
                f,
                "a {nflits}-flit packet can never fit the {capacity}-flit injection queue"
            ),
            InjectError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} is outside the {nodes}-node fabric")
            }
            InjectError::QueueOutOfRange { router, port, vc } => write!(
                f,
                "router {router} has no input queue at port {port} vc {vc}"
            ),
            InjectError::InvalidSpec { field, value } => {
                write!(f, "invalid packet spec: {field} {value} is out of range")
            }
        }
    }
}

/// Node-local traffic of a group of routers, run by the epoch kernel
/// inside the owning shard's private window ([`RouterFabric::step_endpoints`]):
/// at the top of every private cycle ([`Self::begin_cycle`], before that
/// cycle's link arrivals land) and at every ejection
/// ([`Self::deliver`], in apply order). One endpoint serves each shard,
/// covering exactly that shard's routers, so everything it touches —
/// its own state and, through the [`InjectPort`], its routers'
/// injection queues — belongs to one shard.
pub trait Endpoint: Send {
    /// Runs cycle `cycle`'s generation and injection attempts through
    /// `port`.
    fn begin_cycle(&mut self, cycle: u64, port: &mut InjectPort<'_>);

    /// A flit ejected to one of the endpoint's routers at `cycle`.
    fn deliver(&mut self, cycle: u64, flit: &Flit);

    /// Whether [`Self::begin_cycle`] has nothing left to do from
    /// `cycle` on: no generation ahead and no packet waiting to inject.
    /// The kernel ends a shard's window early, or rewinds a drained
    /// epoch to `cycle`, only past cycles its endpoint is idle from, so
    /// neither skips nor repeats a draw or an injection attempt.
    fn idle(&self, cycle: u64) -> bool;
}

/// Injection access to a contiguous range of a fabric's routers: their
/// input queues at ports no link feeds (the injection ports) from inside
/// a shard window ([`Endpoint::begin_cycle`]), and every input queue from
/// serial code ([`RouterFabric::inject`] and
/// [`RouterFabric::step_reference_with`] go through a view over the
/// whole fabric). An injection into a port a link feeds spends that
/// link's credit; every injection activates its router and, while
/// tracing, lists an `Inject` event.
pub struct InjectPort<'a> {
    cycle: u64,
    /// First router of the view.
    lo: usize,
    /// Routers in the whole fabric.
    n_routers: usize,
    routers: &'a mut [CycleRouter],
    is_active: &'a mut [bool],
    /// Where activated routers go: the shard's incoming list, or the
    /// fabric's active list.
    activated: &'a mut Vec<usize>,
    /// The view's rows of `RouterFabric::feeder`.
    feeder: &'a [Vec<Option<(u32, u32)>>],
    /// Every router's credit row, which an injection into a fed port
    /// spends from; `None` inside a shard window, where fed ports are out
    /// of reach (their sender may be another shard's router).
    credits: Option<&'a mut [Vec<u32>]>,
    /// `Inject` events as `(rank, event)`, while tracing.
    trace: Option<&'a mut Vec<(u8, TraceEvent)>>,
    /// Order of this view's injections among one cycle's `Inject`
    /// events: the merged trace lists a cycle's events by rank, then by
    /// router.
    pub(crate) rank: u8,
}

impl InjectPort<'_> {
    /// The cycle injections through this view happen at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Routers in the whole fabric (valid endpoint ids).
    pub fn router_count(&self) -> usize {
        self.n_routers
    }

    /// The credits an injection into `(router, port, vc)` may spend now
    /// ([`RouterFabric::inject_capacity`]).
    ///
    /// # Errors
    /// [`InjectError::QueueOutOfRange`] when the queue does not exist or
    /// the view does not reach it: a router outside the view, or a port
    /// a link feeds while inside a shard window.
    pub fn capacity(&self, router: usize, port: usize, vc: u8) -> Result<usize, InjectError> {
        let out_of_range = InjectError::QueueOutOfRange { router, port, vc };
        let Some(r) = router
            .checked_sub(self.lo)
            .filter(|&r| r < self.routers.len())
        else {
            return Err(out_of_range);
        };
        let d = &self.routers[r];
        if port >= d.ports || vc as usize >= d.vcs {
            return Err(out_of_range);
        }
        match (self.feeder[r][port], self.credits.as_deref()) {
            (None, _) => Ok(d.free_slots(port, vc)),
            (Some((up, out)), Some(credits)) => {
                Ok(credits[up as usize][out as usize * d.vcs + vc as usize] as usize)
            }
            (Some(_), None) => Err(out_of_range),
        }
    }

    /// Flits queued on input `(router, port, vc)`.
    ///
    /// # Errors
    /// As [`Self::capacity`].
    pub fn queue_len(&self, router: usize, port: usize, vc: u8) -> Result<usize, InjectError> {
        self.capacity(router, port, vc)?;
        Ok(self.routers[router - self.lo].queue_len(port, vc))
    }

    /// Injects a flit into input `(router, port, flit.vc)`, stamped with
    /// [`Self::cycle`], if a credit is free ([`Self::capacity`]).
    ///
    /// # Errors
    /// Returns, without taking the flit, the errors of
    /// [`Self::capacity`], and [`InjectError::NoCredit`] when the queue
    /// has no free credit.
    pub fn inject(
        &mut self,
        router: usize,
        port: usize,
        mut flit: Flit,
    ) -> Result<(), InjectError> {
        let vc = flit.vc;
        if self.capacity(router, port, vc)? == 0 {
            return Err(InjectError::NoCredit {
                router,
                port,
                vc,
                occupancy: self.queue_len(router, port, vc)?,
            });
        }
        let (cycle, r) = (self.cycle, router - self.lo);
        flit.injected_at = cycle;
        let a = Arrival {
            flit,
            router: router as u32,
            port: port as u8,
        };
        accept_and_activate(
            self.routers,
            self.is_active,
            self.activated,
            self.lo,
            a,
            cycle,
        );
        if let (Some((up, out)), Some(credits)) =
            (self.feeder[r][port], self.credits.as_deref_mut())
        {
            let vcs = self.routers[r].vcs;
            credits[up as usize][out as usize * vcs + vc as usize] -= 1;
        }
        if let Some(trace) = self.trace.as_mut().filter(|_| flit.is_head()) {
            let event = TraceEvent {
                kind: TraceEventKind::Inject,
                cycle,
                packet: flit.packet,
                router,
                port,
                vc,
            };
            trace.push((self.rank, event));
        }
        Ok(())
    }
}

pub use shard::ShardError;
use shard::{ShardPool, ShardScratch};

/// The region-partitioned lookahead stepper.
///
/// # Ownership
///
/// Anton 3's routers keep their input queues and credit counters on
/// their own node, and a neighbour learns of them only through credits
/// returning over the link. The kernel keeps the same partition with
/// ordinary borrows. Each router holds one credit count per (output,
/// VC): the sender's count for the queue its link feeds, which only the
/// sender spends. Each epoch, [`RouterFabric::step_epoch`] splits the
/// fabric into two views:
///
/// - one [`EpochInputs`], which every shard only reads: the wiring,
///   the link offsets, the routing closures and the sorted active list;
/// - one [`ShardRows`] per shard, which only that shard touches: its
///   contiguous rows `bounds[s]..bounds[s + 1]` of the routers, link
///   state, credit rows, activity flags and feeder map, and element `s`
///   of the scratch (arrival wheel, boundary outbox and credit return
///   list), of the telemetry recorders and of the endpoints.
///
/// A window indexes its rows from its first router, so a read of another
/// shard's row panics (its index falls outside the window's range)
/// instead of racing. A flit bound for another shard goes in the outbox,
/// and a pop whose credit belongs to another shard's sender goes on the
/// return list; the serial epilogue moves both to their owners.
/// An [`Endpoint`] reaches the fabric only through an [`InjectPort`]
/// built from its shard's rows, and only at ports no link feeds.
///
/// Shard 0 runs on the stepping thread, the others on a persistent
/// pool. The crate's one `unsafe` block, in [`ShardPool::new`], turns
/// the addresses [`ShardPool::launch`] publishes back into a worker's
/// `&EpochInputs` and its own `&mut ShardRows`; a compile-time check
/// holds both types to the `Send`/`Sync` bounds that hand-off needs.
/// There is exactly one [`SpinBarrier`] fence per multi-shard epoch:
/// shards run their whole private window with no synchronization (every
/// positive-latency link is at least one window long, so no cross-shard
/// effect can land inside it), then the single end-of-epoch fence
/// provides the acquire/release edge before the serial epilogue, which
/// alone moves boundary flits from one shard's outbox onto another
/// shard's wheel and applies the boundary credit returns.
/// The views belong to the stepping thread's `step_epoch` call, and
/// workers use them only between the pool launch and that fence, which
/// the stepping thread also waits on. A panic inside a window does not skip the
/// fence: every party catches its own panic, records the first one in
/// the pool and waits, and the stepping thread re-raises that payload
/// only after the fence, so no worker is left spinning and no unwind
/// frees the views under a running window. A one-shard fabric has no
/// pool: the stepping thread runs the window inline, so its panics
/// simply unwind.
mod shard {
    use super::*;
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    /// Why [`RouterFabric::set_shards`] refused a shard count.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ShardError {
        /// The count was zero or exceeded the router count.
        InvalidCount {
            /// Requested shard count.
            shards: usize,
            /// Routers available to partition.
            routers: usize,
        },
        /// The fabric still holds traffic: queued flits, flits in link
        /// flight, or a packet mid-cut-through. Re-partitioning would hand
        /// live state to new owners mid-protocol; drain the fabric first.
        Busy {
            /// Flits resident in queues and in link flight.
            resident: usize,
        },
        /// A router-to-router link has zero latency, so a departure would
        /// have to land in another shard *within the same cycle* — there is
        /// no transmission window to hide the exchange barrier in. (Links of
        /// a calibrated torus are always at least one cycle long; latency-0
        /// router links occur only in single-chip test fabrics, which step
        /// with one shard.)
        ZeroLatencyLink {
            /// Upstream router of the offending link.
            router: usize,
            /// Upstream output port of the offending link.
            port: usize,
        },
        /// A lookahead window of zero cycles was requested. Shards must
        /// advance at least one cycle per epoch; pass `None` (or omit the
        /// knob) for the automatic structural window.
        InvalidLookahead,
    }

    impl fmt::Display for ShardError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                ShardError::InvalidCount { shards, routers } => {
                    write!(f, "cannot split {routers} routers into {shards} shards")
                }
                ShardError::Busy { resident } => write!(
                    f,
                    "cannot re-shard a busy fabric ({resident} flits resident); drain first"
                ),
                ShardError::ZeroLatencyLink { router, port } => write!(
                    f,
                    "router link ({router}, {port}) has zero latency; sharded stepping needs \
                 every inter-router link to be at least one cycle long"
                ),
                ShardError::InvalidLookahead => write!(
                    f,
                    "lookahead window must be at least one cycle (use None for the \
                 automatic structural window)"
                ),
            }
        }
    }

    impl std::error::Error for ShardError {}

    /// A counting barrier for the end-of-epoch fence of a sharded step.
    /// Spins briefly then yields: epochs are microseconds apart, so
    /// parking in the kernel between them would dominate, but the
    /// busy-wait must stay polite when shards exceed cores (single-core
    /// machines still run the multi-shard equivalence tests).
    struct SpinBarrier {
        total: usize,
        count: AtomicUsize,
        generation: AtomicUsize,
    }

    impl SpinBarrier {
        fn new(total: usize) -> Self {
            SpinBarrier {
                total,
                count: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
            }
        }

        fn wait(&self) {
            let generation = self.generation.load(Ordering::Acquire);
            if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                // Last arrival resets the count for the next fence and
                // releases the waiters; the reset is ordered before the
                // generation bump, so a released party re-entering `wait`
                // always sees the fresh count.
                self.count.store(0, Ordering::Relaxed);
                self.generation.fetch_add(1, Ordering::Release);
            } else {
                let mut spins = 0u32;
                while self.generation.load(Ordering::Acquire) == generation {
                    spins = spins.wrapping_add(1);
                    if spins < 128 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Shared control block between a sharded fabric and its workers.
    struct PoolCtl {
        /// Step grant: a bumped epoch plus the addresses of the epoch's
        /// [`EpochInputs`] and of the [`ShardRows`] of shards `1..` (the
        /// stepping thread's `step_epoch` owns both and keeps them valid
        /// until every party passes the final barrier).
        go: Mutex<(u64, usize, usize)>,
        cv: Condvar,
        stop: AtomicBool,
        /// The end-of-epoch fence, sized to the shard count.
        barrier: SpinBarrier,
        /// The first panic caught in any party's window this epoch,
        /// re-raised by the stepping thread once every party has passed
        /// the fence.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    impl PoolCtl {
        /// Keeps `payload` unless an earlier party's panic is recorded.
        fn record_panic(&self, payload: Box<dyn Any + Send>) {
            self.panic.lock().expect("pool lock").get_or_insert(payload);
        }
    }

    /// The persistent worker pool of a sharded fabric: shard 0 runs on the
    /// stepping thread itself; shards `1..` each own one worker parked on a
    /// condvar between steps. Steps happen far too often (tens of
    /// microseconds apart) to spawn threads per cycle, and parked workers
    /// cost nothing while the fabric idles or steps via the reference path.
    pub(super) struct ShardPool {
        ctl: Arc<PoolCtl>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    impl ShardPool {
        #[allow(unsafe_code)]
        pub(super) fn new(shards: usize) -> Self {
            let ctl = Arc::new(PoolCtl {
                go: Mutex::new((0, 0, 0)),
                cv: Condvar::new(),
                stop: AtomicBool::new(false),
                barrier: SpinBarrier::new(shards),
                panic: Mutex::new(None),
            });
            let workers = (1..shards)
                .map(|s| {
                    let ctl = Arc::clone(&ctl);
                    std::thread::Builder::new()
                        .name(format!("shard-{s}"))
                        .spawn(move || {
                            let mut seen = 0u64;
                            loop {
                                let (inputs, rows) = {
                                    let mut go = ctl.go.lock().expect("pool lock");
                                    loop {
                                        if ctl.stop.load(Ordering::Relaxed) {
                                            return;
                                        }
                                        if go.0 > seen {
                                            seen = go.0;
                                            break (go.1, go.2);
                                        }
                                        go = ctl.cv.wait(go).expect("pool lock");
                                    }
                                };
                                let window = catch_unwind(AssertUnwindSafe(|| {
                                    // SAFETY: `launch` published the epoch's
                                    // inputs and one row view per worker,
                                    // for shards `1..` in order, so element
                                    // `s - 1` exists and is this shard's
                                    // alone; no other party touches it.
                                    // The stepping thread keeps both alive
                                    // until it passes the epoch barrier
                                    // below, which cannot happen before this
                                    // worker reaches it too — a panicking
                                    // window included, since the panic is
                                    // caught here and handed to the stepping
                                    // thread to re-raise.
                                    let (inputs, rows) = unsafe {
                                        (
                                            &*(inputs as *const EpochInputs<'_>),
                                            &mut *(rows as *mut ShardRows<'_>).add(s - 1),
                                        )
                                    };
                                    run_window(inputs, rows);
                                }));
                                if let Err(payload) = window {
                                    ctl.record_panic(payload);
                                }
                                ctl.barrier.wait();
                            }
                        })
                        .expect("spawn shard worker")
                })
                .collect();
            ShardPool { ctl, workers }
        }

        /// Publishes one epoch's inputs and the rows of shards `1..` (one
        /// element per worker, in shard order) and wakes the workers. The
        /// caller must then run shard 0's window itself and wait on the
        /// epoch barrier, which holds it until every worker finishes.
        fn launch(&self, inputs: &EpochInputs<'_>, rest: &mut [ShardRows<'_>]) {
            assert_eq!(rest.len(), self.workers.len(), "one row view per worker");
            let mut go = self.ctl.go.lock().expect("pool lock");
            go.0 += 1;
            go.1 = inputs as *const EpochInputs<'_> as usize;
            go.2 = rest.as_mut_ptr() as usize;
            self.ctl.cv.notify_all();
        }
    }

    impl Drop for ShardPool {
        fn drop(&mut self) {
            self.ctl.stop.store(true, Ordering::Relaxed);
            // Taking the lock fences the flag against a worker mid-way into
            // its wait, so the notify below cannot be missed.
            drop(self.ctl.go.lock().expect("pool lock"));
            self.ctl.cv.notify_all();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }

    /// Per-shard state of the epoch kernel: the arrival wheel, and
    /// per-epoch buffers reused across epochs. Written only by the owning
    /// shard inside its window, and by serial code outside windows.
    ///
    /// Aligned to its own cache lines: windows keep writing `sent`,
    /// `landed` and `last_move` while they run, and no line may hold
    /// fields of two shards.
    #[derive(Default)]
    #[repr(align(128))]
    pub(super) struct ShardScratch {
        /// Calendar wheel of this shard's landings: slot `t % len` holds
        /// the bookings landing at cycle `t`. The length exceeds every
        /// link latency (see [`RouterFabric::set_link_spec`]), so a slot
        /// never mixes cycles.
        pub(super) wheel: Vec<Vec<Arrival>>,
        /// This window's departures into other shards, as `(wheel slot,
        /// booking)`, for the epilogue to move onto the downstream
        /// shard's wheel.
        outbox: Vec<(usize, Arrival)>,
        /// Credits this window's pops return to senders in other shards,
        /// as `(router, credit-row index)`, for the epilogue to apply.
        returns: Vec<(usize, usize)>,
        /// Flits this window sent onto positive-latency links.
        sent: usize,
        /// Flits this window landed into its routers.
        landed: usize,
        /// The last cycle of this window in which a router of the shard
        /// moved a flit (0 when none did), for the drain rewind.
        last_move: u64,
        /// Current private cycle's arbitration worklist, sorted ascending;
        /// holds the shard's surviving actives when the epoch ends.
        worklist: Vec<usize>,
        /// Routers activated by accepts (arrivals, zero-latency hops),
        /// merged into the worklist before arbitration and at window end.
        incoming: Vec<usize>,
        /// The current private cycle's departures, `(router, out, flit)`,
        /// in ascending router order.
        moves: Vec<(usize, usize, Flit)>,
        /// Ejections across the window as `(cycle, flit)`, in the serial
        /// order within the shard: by cycle, then by departure.
        ejected: Vec<(u64, Flit)>,
        /// While tracing, the window's head hops onto router links as
        /// `(cycle, router, out, flit)`, in the same order as `ejected`.
        hops: Vec<(u64, usize, usize, Flit)>,
        /// While tracing, the endpoint's injections as `(rank, event)`,
        /// by cycle, then in the order it made them.
        pub(super) injects: Vec<(u8, TraceEvent)>,
    }

    impl ShardScratch {
        /// A shard's state with an empty `wheel_len`-slot arrival wheel.
        pub(super) fn new(wheel_len: usize) -> Self {
            ShardScratch {
                wheel: vec![Vec::new(); wheel_len],
                ..ShardScratch::default()
            }
        }

        /// Heap bytes behind this shard's wheel and scratch buffers (for
        /// the fabric memory audit).
        pub(super) fn memory_bytes(&self) -> usize {
            use std::mem::size_of;
            let wheel = self.wheel.capacity() * size_of::<Vec<Arrival>>()
                + self
                    .wheel
                    .iter()
                    .map(|s| s.capacity() * size_of::<Arrival>())
                    .sum::<usize>();
            wheel
                + self.outbox.capacity() * size_of::<(usize, Arrival)>()
                + self.returns.capacity() * size_of::<(usize, usize)>()
                + (self.worklist.capacity() + self.incoming.capacity()) * size_of::<usize>()
                + self.moves.capacity() * size_of::<(usize, usize, Flit)>()
                + self.ejected.capacity() * size_of::<(u64, Flit)>()
                + self.hops.capacity() * size_of::<(u64, usize, usize, Flit)>()
                + self.injects.capacity() * size_of::<(u8, TraceEvent)>()
        }
    }

    /// What every shard window of one epoch only reads.
    struct EpochInputs<'a> {
        /// First cycle of the window.
        cycle: u64,
        /// Window width: shards privately simulate `cycle..cycle + window`.
        window: u64,
        wiring: &'a [Vec<PortLink>],
        link_off: &'a [usize],
        route: &'a RouteFn,
        classify: Option<&'a FlitClassFn>,
        /// Whether any flit was in flight when the epoch started; if not,
        /// nothing lands inside the window.
        in_flight: bool,
        /// The fabric's active list, sorted.
        active: &'a [usize],
    }

    /// One shard's rows of the fabric for one epoch, split off at the
    /// shard's bounds: everything its window writes, and its rows of the
    /// feeder map.
    struct ShardRows<'a> {
        /// First router of the shard.
        lo: usize,
        routers: &'a mut [CycleRouter],
        channels: &'a mut [Vec<ChannelState>],
        next_free: &'a mut [Vec<u64>],
        credits: &'a mut [Vec<u32>],
        is_active: &'a mut [bool],
        feeder: &'a [Vec<Option<(u32, u32)>>],
        scratch: &'a mut ShardScratch,
        /// The shard's telemetry recorder, over its own links
        /// ([`Telemetry::recorders`]); `None` when telemetry is off.
        recorder: Option<LinkRecorder<'a>>,
        /// The shard's endpoint ([`RouterFabric::step_endpoints`]), if
        /// the epoch runs endpoints.
        endpoint: Option<&'a mut dyn Endpoint>,
    }

    // The pool hands each worker `&EpochInputs` and its own `&mut ShardRows`.
    const _: () = {
        const fn shared<T: Send + Sync>() {}
        const fn owned<T: Send>() {}
        shared::<EpochInputs<'static>>();
        owned::<ShardRows<'static>>();
    };

    /// Splits the first `n` rows off `rest`.
    fn take_rows<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
        let (rows, tail) = std::mem::take(rest).split_at_mut(n);
        *rest = tail;
        rows
    }

    /// Runs one shard's private window of a lookahead epoch: up to
    /// `window` cycles of land / arbitrate / apply with **no internal
    /// synchronization**. Each cycle first runs the shard's endpoint, if
    /// the epoch has endpoints — generation and injection into the
    /// shard's own injection ports — then lands the shard's wheel slot,
    /// then arbitrates unless the worklist is still empty; ejections go
    /// to the endpoint as they apply. The window ends early at an empty
    /// worklist if nothing was in flight when the epoch began and the
    /// endpoint is idle. Every party — the stepping thread as shard 0, one
    /// pool worker per remaining shard — calls this exactly once per
    /// epoch, then waits on the epoch barrier, having caught any panic
    /// of the window first (a one-shard fabric has neither workers nor
    /// barrier).
    ///
    /// Cross-shard effects cannot occur inside the window: every
    /// positive-latency link is at least `window` cycles long, so a flit
    /// departing during the window lands at or beyond the barrier, and
    /// every landing *inside* the window was booked on this shard's
    /// wheel before the epoch began — by its own departures, or as a
    /// boundary accept an earlier epilogue moved in. Zero-latency router
    /// links never leave a shard (`set_shards` and `set_link_spec`
    /// refuse them), so their flits land in-shard the cycle they depart.
    /// Every credit check reads the sender's own row. A pop's credit
    /// returns to a sender in another shard only at the epilogue, and the
    /// window clamp keeps that delay invisible (see
    /// [`RouterFabric::step_epoch`]).
    fn run_window(inp: &EpochInputs<'_>, rows: &mut ShardRows<'_>) {
        let ShardRows {
            lo,
            routers,
            channels,
            next_free,
            credits,
            is_active,
            feeder,
            scratch,
            recorder: rec,
            endpoint,
        } = rows;
        let (lo, hi) = (*lo, *lo + routers.len());
        let tracing = rec.as_ref().is_some_and(|r| r.trace);
        (scratch.sent, scratch.landed, scratch.last_move) = (0, 0, 0);
        let t0 = inp.cycle;
        let tend = t0 + inp.window;

        // Epoch-start worklist: the fabric's sorted active list restricted
        // to this shard's contiguous range.
        let a = inp.active.partition_point(|&r| r < lo);
        let b = inp.active.partition_point(|&r| r < hi);
        scratch.worklist.clear();
        scratch.worklist.extend_from_slice(&inp.active[a..b]);

        let wheel_len = scratch.wheel.len() as u64;
        let mut cycle = t0;
        while cycle < tend {
            // The endpoint stage, ahead of the landings: the view reaches
            // only this shard's routers, and only their injection ports —
            // a port a link feeds spends its sender's credit, which may
            // be another shard's.
            if let Some(ep) = endpoint.as_deref_mut() {
                let mut port = InjectPort {
                    cycle,
                    lo,
                    n_routers: inp.wiring.len(),
                    routers,
                    is_active,
                    activated: &mut scratch.incoming,
                    feeder,
                    credits: None,
                    trace: tracing.then_some(&mut scratch.injects),
                    rank: 0,
                };
                ep.begin_cycle(cycle, &mut port);
            }
            // Land this cycle's wheel slot into this shard's queues.
            // Departures book at least one window out, so the slot cannot
            // grow while it lands.
            let slot = (cycle % wheel_len) as usize;
            if !scratch.wheel[slot].is_empty() {
                let mut bucket = std::mem::take(&mut scratch.wheel[slot]);
                for &a in &bucket {
                    accept_and_activate(routers, is_active, &mut scratch.incoming, lo, a, cycle);
                }
                scratch.landed += bucket.len();
                bucket.clear();
                scratch.wheel[slot] = bucket;
            }
            if !scratch.incoming.is_empty() {
                scratch.worklist.append(&mut scratch.incoming);
                scratch.worklist.sort_unstable();
            }
            if scratch.worklist.is_empty() {
                // Dead shard-cycle. Later slots may still land flits,
                // unless nothing was in flight at the epoch start, and the
                // endpoint may still generate or inject.
                if !inp.in_flight && endpoint.as_deref().is_none_or(|ep| ep.idle(cycle + 1)) {
                    break;
                }
                cycle += 1;
                continue;
            }

            // The downstream-credit half of a departure check for router
            // `r`'s output `out` on VC `vc` (`vcs` is `r`'s VC count, the
            // stride of its credit row): one entry of the router's own
            // row. Arbitration and stall classification both ask here;
            // nothing it reads changes while a cycle arbitrates.
            let has_credit = |r: usize, vcs: usize, out: usize, vc: u8| {
                credits[r - lo][out * vcs + vc as usize] > 0
            };

            // Arbitration over the worklist.
            let mut kept = 0;
            for i in 0..scratch.worklist.len() {
                let r = scratch.worklist[i];
                let router = &mut routers[r - lo];
                if router.is_idle() {
                    is_active[r - lo] = false;
                    continue;
                }
                scratch.worklist[kept] = r;
                kept += 1;
                let vcs = router.vcs;
                let next_free_r = &next_free[r - lo];
                router.arbitrate_into(
                    cycle,
                    inp.route,
                    |out, vc| next_free_r[out] <= cycle && has_credit(r, vcs, out, vc),
                    &mut scratch.moves,
                );
            }
            scratch.worklist.truncate(kept);
            if !scratch.moves.is_empty() {
                scratch.last_move = cycle;
            }

            if let Some(rec) = rec.as_mut() {
                // Record this cycle's advances, then classify every
                // occupied front that has cleared the pipeline against
                // the same private-cycle state arbitration read, into the
                // shard's own counters — the epoch mirror of
                // `telemetry_record`, fed per front by
                // `for_each_front_target` (targets read from the memo
                // arbitration shares, only occupied queues visited).
                for &(r, out, ref flit) in &scratch.moves {
                    rec.advance(cycle, inp.link_off[r] + out);
                    if rec.trace
                        && flit.is_head()
                        && matches!(inp.wiring[r][out], PortLink::Router { .. })
                    {
                        scratch.hops.push((cycle, r, out, *flit));
                    }
                }
                for &r in &scratch.worklist {
                    let router = &mut routers[r - lo];
                    let vcs = router.vcs;
                    let next_free_r = &next_free[r - lo];
                    router.for_each_front_target(cycle, inp.route, |out, out_vc| {
                        let link = inp.link_off[r] + out;
                        let cause = StallCause::of(
                            rec.advanced_on(cycle, link),
                            next_free_r[out] > cycle,
                            || !has_credit(r, vcs, out, out_vc),
                        );
                        rec.stall(cycle, link, out_vc, cause);
                    });
                }
            }

            // Apply: departures spend their credits and enter their
            // links. Every booking lands at or beyond the epoch barrier
            // (no positive link latency is shorter than the window): a hop
            // inside the shard books on the shard's wheel, a boundary hop
            // in the outbox. Zero-latency hops land in-shard and
            // ejections deliver, this cycle.
            for (r, out, flit) in scratch.moves.drain(..) {
                debug_assert!(lo <= r && r < hi, "move escaped its shard");
                let class = inp.classify.map(|f| f(&flit));
                let vcs = routers[r - lo].vcs;
                let ch = &mut channels[r - lo][out];
                next_free[r - lo][out] = cycle + ch.spec.interval;
                ch.flits_sent += 1;
                ch.packets_sent += u64::from(flit.is_tail());
                if let Some(c) = class {
                    ch.class_flits[c] += 1;
                }
                let spec = ch.spec;
                match inp.wiring[r][out] {
                    PortLink::Router {
                        router: dst,
                        port: dport,
                    } => {
                        credits[r - lo][out * vcs + flit.vc as usize] -= 1;
                        let a = Arrival {
                            flit,
                            router: dst as u32,
                            port: dport as u8,
                        };
                        if spec.latency == 0 {
                            // Flight folds into the downstream pipeline.
                            assert!(lo <= dst && dst < hi, "zero-latency link left its shard");
                            accept_and_activate(
                                routers,
                                is_active,
                                &mut scratch.incoming,
                                lo,
                                a,
                                cycle,
                            );
                        } else {
                            debug_assert!(spec.latency < wheel_len, "arrival beyond the wheel");
                            debug_assert!(
                                cycle + spec.latency >= tend,
                                "booking inside the window"
                            );
                            let slot = ((cycle + spec.latency) % wheel_len) as usize;
                            if (lo..hi).contains(&dst) {
                                scratch.wheel[slot].push(a);
                            } else {
                                scratch.outbox.push((slot, a));
                            }
                            scratch.sent += 1;
                        }
                    }
                    PortLink::Endpoint(_) => {
                        if let Some(ep) = endpoint.as_deref_mut() {
                            ep.deliver(cycle, &flit);
                        }
                        scratch.ejected.push((cycle, flit));
                    }
                    PortLink::Unused => unreachable!("flit departed through an unused port"),
                }
            }

            // Credit returns, uniformly visible one private cycle later, to
            // the link feeding each popped queue: in the sender's row when
            // it is this shard's, else through the epilogue. Only routers
            // that arbitrated can have parked credits.
            for &r in &scratch.worklist {
                let router = &mut routers[r - lo];
                let vcs = router.vcs;
                for &idx in &router.popped {
                    let (port, vc) = (idx as usize / vcs, idx as usize % vcs);
                    if let Some((up, out)) = feeder[r - lo][port] {
                        let (up, at) = (up as usize, out as usize * vcs + vc);
                        if (lo..hi).contains(&up) {
                            credits[up - lo][at] += 1;
                        } else {
                            scratch.returns.push((up, at));
                        }
                    }
                }
                router.popped.clear();
            }
            cycle += 1;
        }

        // Routers a same-cycle hop activated in the last executed cycle
        // start the next epoch on the worklist.
        if !scratch.incoming.is_empty() {
            scratch.worklist.append(&mut scratch.incoming);
            scratch.worklist.sort_unstable();
        }
    }

    /// Sorts `list` stably by `key`, unless it already is.
    fn sort_stably<T, K: Ord>(list: &mut [T], key: impl Fn(&T) -> K) {
        if !list.is_sorted_by_key(&key) {
            list.sort_by_key(key);
        }
    }

    impl RouterFabric {
        /// Telemetry post-phase, shared by both steppers: traces the
        /// injections and hops the shards listed (in shard order, then
        /// stably by cycle — and injections by rank within a cycle —
        /// like their deliveries; the reference stepper traced its own
        /// in `inject_with` and `telemetry_record`) and the step's new
        /// delivery-log entries, each cycle's injections, then hops, then
        /// deliveries.
        pub(super) fn telemetry_note_deliveries(&mut self) {
            let Some(tel) = self.telemetry.as_deref_mut() else {
                return;
            };
            let (first, rest) = self.shard_scratch.split_at_mut(1);
            let (injects, hops) = (&mut first[0].injects, &mut first[0].hops);
            for sc in rest {
                injects.append(&mut sc.injects);
                hops.append(&mut sc.hops);
            }
            sort_stably(injects, |&(rank, ref ev)| (ev.cycle, rank));
            sort_stably(hops, |h| h.0);
            tel.note_stepped(injects, hops, &self.delivered);
            injects.clear();
            hops.clear();
        }

        /// The shard owning router `r` under the current partition.
        pub(super) fn shard_of(&self, r: usize) -> usize {
            self.bounds.partition_point(|&b| b <= r) - 1
        }

        /// The lookahead-epoch step, at every shard count: selects the
        /// widest window `W` every shard can legally simulate alone, runs
        /// all shards privately for up to `W` cycles — each landing its
        /// own arrival wheel and recording telemetry into its own links'
        /// counters — inline when there is one shard, else with **one**
        /// pool launch and **one** end-of-epoch barrier, where the
        /// retired per-cycle protocol paid one launch plus four barriers
        /// per simulated cycle. The serial epilogue then only orders
        /// output: it appends the shards' deliveries (and, while tracing,
        /// hops) in shard order and sorts them stably by cycle, which over
        /// contiguous ascending regions is the reference stepper's
        /// (cycle, ascending router) order; it moves the window's
        /// boundary flits onto their downstream wheels, and it applies
        /// the credits the window's pops return across boundaries.
        ///
        /// Window selection takes the minimum of:
        /// - the caller's stepping limit (`limit - cycle`),
        /// - the fabric's minimum positive link latency, so no departure
        ///   booked inside the window can also *land* inside it — every
        ///   window landing is already on its shard's wheel,
        /// - the configured cap ([`RouterFabric::set_shards_with_lookahead`];
        ///   tests pin degenerate windows of 1),
        /// - the distance to the next telemetry epoch boundary, so rolls
        ///   always happen serially at a prologue,
        /// - per boundary `(link, vc)`: `(credits - 1) * interval + 1`
        ///   cycles, where `credits` is the sender's count at the epoch
        ///   start. A link serializes at most one flit per `interval`
        ///   cycles, so within that window the sender spends its last
        ///   credit no earlier than the window's last cycle. Its count
        ///   misses the downstream's mid-window credit *returns* until
        ///   the epilogue applies them, but no check inside the window
        ///   finds it at zero unless the serial credit loop's is zero
        ///   too — credit checks, grants, and stall causes stay
        ///   bit-exact.
        ///
        /// When the window drains the fabric, the cycle counter rewinds
        /// to one past the last cycle with any activity — the exact cycle
        /// per-cycle stepping stops at, so drain-loop observables do not
        /// depend on the window width — provided every endpoint is idle
        /// from there on, so the rewind never moves back over a cycle in
        /// which an endpoint drew a random number or tried to inject.
        ///
        /// Ejections deliver *inside* shard windows, where no prologue
        /// can foresee them and no epoch can be unwound past them. Work
        /// that reacts to a delivery runs in the shard's endpoint
        /// (`endpoints`, one per shard, or none); a caller that reacts
        /// itself must pass `limit = cycle + 1` ([`RouterFabric::step`]).
        pub(super) fn step_epoch(&mut self, limit: u64, endpoints: &mut [&mut dyn Endpoint]) {
            let t0 = self.cycle;
            debug_assert!(limit > t0, "epoch must advance at least one cycle");
            if self.telemetry.is_some() {
                self.telemetry_begin_step();
            }
            // Injections since the last epoch append out of order.
            self.active.sort_unstable();

            // ---- Window selection ----
            let mut w = (limit - t0).min(self.min_pos_latency);
            if let Some(cap) = self.lookahead_cap {
                w = w.min(cap);
            }
            if let Some(tel) = self.telemetry.as_deref() {
                let len = tel.epoch_cycles();
                w = w.min(len - t0 % len);
            }
            for &(r, out) in &self.boundary {
                let interval = self.channels[r][out].spec.interval;
                let vcs = self.routers[r].vcs;
                for &credit in &self.credits[r][out * vcs..(out + 1) * vcs] {
                    w = w.min(u64::from(credit.saturating_sub(1)) * interval + 1);
                }
            }
            let w = w.max(1);

            // ---- Private windows: inline, or one launch + one barrier ----
            let shards = self.bounds.len() - 1;
            {
                let inputs = EpochInputs {
                    cycle: t0,
                    window: w,
                    wiring: &self.wiring,
                    link_off: &self.link_off,
                    route: &*self.route,
                    classify: self.classify.as_deref(),
                    in_flight: self.in_flight_total > 0,
                    active: &self.active,
                };
                // Each shard records into its own links' telemetry rows.
                let ends = self.bounds[1..].iter().map(|&b| self.link_off[b]);
                let mut recorders = self.telemetry.as_deref_mut().map(|t| t.recorders(ends));
                let mut endpoints = endpoints.iter_mut();
                let (mut routers, mut channels) = (&mut self.routers[..], &mut self.channels[..]);
                let (mut next_free, mut credits) = (&mut self.next_free[..], &mut self.credits[..]);
                let mut is_active = &mut self.is_active[..];
                let bounds = self.bounds.windows(2).zip(&mut self.shard_scratch);
                let mut rows = bounds.map(|(b, scratch)| {
                    let (lo, hi) = (b[0], b[1]);
                    ShardRows {
                        lo,
                        routers: take_rows(&mut routers, hi - lo),
                        channels: take_rows(&mut channels, hi - lo),
                        next_free: take_rows(&mut next_free, hi - lo),
                        credits: take_rows(&mut credits, hi - lo),
                        is_active: take_rows(&mut is_active, hi - lo),
                        feeder: &self.feeder[lo..hi],
                        scratch,
                        recorder: recorders.as_mut().and_then(Iterator::next),
                        endpoint: endpoints.next().map(|ep| &mut **ep as &mut dyn Endpoint),
                    }
                });
                match &self.pool {
                    None => run_window(&inputs, &mut rows.next().expect("one shard")),
                    Some(pool) => {
                        let mut rows: Vec<ShardRows> = rows.collect();
                        let (first, rest) = rows.split_first_mut().expect("shard 0");
                        pool.launch(&inputs, rest);
                        // Shard 0's own panic is caught too and re-raised
                        // only past the barrier, so unwinding never frees
                        // the views under a running worker.
                        let window = catch_unwind(AssertUnwindSafe(|| run_window(&inputs, first)));
                        if let Err(payload) = window {
                            pool.ctl.record_panic(payload);
                        }
                        pool.ctl.barrier.wait();
                        self.sync_ops += 2;
                        if let Some(payload) = pool.ctl.panic.lock().expect("pool lock").take() {
                            resume_unwind(payload);
                        }
                    }
                }
            }
            self.epochs += 1;

            // ---- Serial epilogue: outputs in the reference order ----
            // Shards own ascending router ranges and list their deliveries
            // and hops by cycle, then router, so appending the lists in
            // shard order and sorting them stably by cycle gives the
            // reference stepper's (cycle, ascending router) order. The
            // surviving actives come out ascending too, boundary flits go
            // onto their downstream shard's wheel, and boundary credit
            // returns reach their senders' rows.
            let from = self.delivered.len();
            let mut last_active = t0;
            self.active.clear();
            for s in 0..shards {
                let sc = &mut self.shard_scratch[s];
                self.delivered.append(&mut sc.ejected);
                // A router can linger in the worklist one cycle past its
                // last departure; only real moves count toward the drain
                // rewind, so the stop cycle matches per-cycle stepping.
                last_active = last_active.max(sc.last_move);
                self.active.extend_from_slice(&sc.worklist);
                self.in_flight_total = self.in_flight_total + sc.sent - sc.landed;
                for (r, at) in sc.returns.drain(..) {
                    self.credits[r][at] += 1;
                }
                let mut outbox = std::mem::take(&mut sc.outbox);
                for (slot, a) in outbox.drain(..) {
                    let d = self.shard_of(a.router as usize);
                    self.shard_scratch[d].wheel[slot].push(a);
                }
                self.shard_scratch[s].outbox = outbox;
            }
            sort_stably(&mut self.delivered[from..], |d| d.0);
            self.telemetry_note_deliveries();

            // An endpoint idle from the rewind target on did nothing after
            // it: its packets' moves would be later, and its draws are
            // generation it still has ahead.
            let idle = endpoints.iter().all(|ep| ep.idle(last_active + 1));
            self.cycle = if self.active.is_empty() && self.in_flight_total == 0 && idle {
                // Drained inside the window: stop where per-cycle
                // stepping stops, independent of the window width.
                last_active + 1
            } else {
                t0 + w
            };
            self.cycles_stepped += self.cycle - t0;
        }
    }
} // mod shard

/// Heap memory behind a [`RouterFabric`], bucketed by subsystem — the
/// audit that keeps mega-fabric construction honest: the 8 KB/router
/// budget `fabric3d`'s memory test holds 16³/32³ builds to is computed
/// from this. Counts **allocated capacity** (what the process actually
/// pays), not live length, so lazily grown structures (flit slabs,
/// telemetry rings) report what traffic has forced into existence.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoryBreakdown {
    /// Flit slot slabs across every router's input queues (lazily grown
    /// toward the credit windows; see [`FlitStore`]).
    pub flit_slabs: usize,
    /// Per-router scheduler state: the router structs plus their ring
    /// cursors, front mirrors, bitsets, target memos and scratch.
    pub routers: usize,
    /// Links: wiring, channel specs and counters, link timers, the
    /// senders' credit rows, and each input port's feeding link.
    pub links: usize,
    /// Fabric scheduling: active worklists, shard scratch (the per-shard
    /// arrival wheels holding every flit in link flight, boundary
    /// outboxes, credit return lists and departure buffers), and the
    /// delivery log.
    pub scheduling: usize,
    /// Telemetry counters, epoch rings, and trace buffer (0 when off).
    pub telemetry: usize,
}

impl MemoryBreakdown {
    /// Total bytes across all buckets.
    pub fn total(&self) -> usize {
        self.flit_slabs + self.routers + self.links + self.scheduling + self.telemetry
    }
}

/// A fabric of cycle routers plus its wiring, stepped together.
pub struct RouterFabric {
    routers: Vec<CycleRouter>,
    /// `wiring[router][output_port]`.
    wiring: Vec<Vec<PortLink>>,
    /// `channels[router][output_port]`, parallel to `wiring`.
    channels: Vec<Vec<ChannelState>>,
    /// `next_free[router][output_port]`: first cycle each link can
    /// serialize another flit — flat mirror of the per-link timer.
    next_free: Vec<Vec<u64>>,
    /// `credits[router][output_port * vcs + vc]`: the credits the router
    /// holds for the input queue its link feeds — that queue's free
    /// slots, less the flits already in flight toward it. An ejection
    /// link never runs out (`u32::MAX`) and an unused port never has one
    /// (0), so every departure's credit check is one read of the
    /// router's own row.
    ///
    /// A departure onto a router link spends one, and so does an
    /// injection into a port a link feeds; a landing touches none. A pop
    /// parks its credit on the router's `popped` list, and once every
    /// router has arbitrated it returns to the link feeding the popped
    /// port. Credit return is thus uniformly visible one cycle later —
    /// matching the hardware credit loop, where a credit rides the
    /// reverse channel and can never beat the grant that freed it —
    /// instead of leaking mid-cycle to routers that happened to
    /// arbitrate later in the scan order. That uniformity is also what
    /// lets [`Self::set_shards`] arbitrate regions concurrently: checks
    /// see the same credits no matter which thread (or order) asks. A
    /// row belongs to the shard owning its router; a pop whose sender is
    /// another shard's returns the credit at the epoch epilogue, and the
    /// window clamp of `step_epoch` keeps that delay invisible.
    credits: Vec<Vec<u32>>,
    /// `feeder[router][input_port]`: the link `(upstream router, output
    /// port)` landing on each input port, if any — whose credit an
    /// injection into that port spends, and a pop there returns.
    feeder: Vec<Vec<Option<(u32, u32)>>>,
    route: Box<RouteFn>,
    /// Optional per-flit class extraction feeding each channel's
    /// `class_flits` counters.
    classify: Option<Box<FlitClassFn>>,
    cycle: u64,
    delivered: Vec<(u64, Flit)>, // (cycle, flit)
    /// Flits currently in link flight, booked on the shards' arrival
    /// wheels (skip arrival scans at 0).
    in_flight_total: usize,
    /// Active-router worklist: every non-idle router is on it (routers
    /// enqueue themselves on accept/injection and are pruned when idle).
    active: Vec<usize>,
    /// Membership flags for `active` (no duplicate enqueues).
    is_active: Vec<bool>,
    /// Optional observability state (see [`crate::telemetry`]). `None`
    /// costs one branch per step phase; recording is purely
    /// observational, so enabling it never changes delivery logs or
    /// link counters.
    telemetry: Option<Box<Telemetry>>,
    /// Shard partition of the router index space:
    /// `bounds[s]..bounds[s + 1]` is shard `s`'s contiguous router
    /// range (`len == shards + 1`; `[0, n]` with one shard). Contiguous
    /// ranges visited in shard order reproduce the reference stepper's
    /// ascending router order, which is what keeps every shard count
    /// bit-identical.
    bounds: Vec<usize>,
    /// Flat start offset of each router's links (prefix sums of wiring
    /// row lengths; `len == routers + 1`).
    link_off: Vec<usize>,
    /// Per-shard state: the arrival wheel (landed by the owning shard's
    /// window, or by the reference stepper), plus the window's worklists,
    /// boundary outbox, credit return list and the deliveries and hops
    /// the epilogue orders.
    shard_scratch: Vec<ShardScratch>,
    /// Every router-to-router link whose ends live in different shards,
    /// as `(router, output port)` in ascending link order (empty with
    /// one shard). Drives the epoch window's credit-headroom clamp.
    boundary: Vec<(usize, usize)>,
    /// Minimum latency over every link with latency >= 1 (`u64::MAX`
    /// when no such link exists): the structural lookahead bound — no
    /// window this wide can see a departure land inside itself.
    min_pos_latency: u64,
    /// Optional user clamp on the epoch window
    /// ([`Self::set_shards_with_lookahead`]); `None` means structural.
    lookahead_cap: Option<u64>,
    /// Synchronization operations: one pool launch plus one barrier
    /// crossing per multi-shard epoch (the retired per-cycle protocol
    /// cost five per simulated cycle); one-shard epochs spend none.
    sync_ops: u64,
    /// Lookahead epochs executed, at any shard count.
    epochs: u64,
    /// Simulated cycles advanced by the epoch kernel.
    cycles_stepped: u64,
    /// Worker threads driving shards `1..` (None when `shards == 1`).
    pool: Option<ShardPool>,
}

impl RouterFabric {
    /// Builds a fabric from routers, wiring, and a routing function. All
    /// links default to [`LinkSpec::default`] (same-cycle, full-rate);
    /// override long links with [`Self::set_link_spec`].
    ///
    /// # Panics
    /// Panics if the wiring table shape does not match the routers, or
    /// if two links land on one input port.
    pub fn new(routers: Vec<CycleRouter>, wiring: Vec<Vec<PortLink>>, route: Box<RouteFn>) -> Self {
        assert_eq!(
            routers.len(),
            wiring.len(),
            "wiring rows must match routers"
        );
        let mut feeder: Vec<Vec<Option<(u32, u32)>>> =
            routers.iter().map(|r| vec![None; r.ports]).collect();
        for (r, row) in wiring.iter().enumerate() {
            for (out, link) in row.iter().enumerate() {
                if let PortLink::Router { router, port } = *link {
                    assert_eq!(
                        routers[router].vcs, routers[r].vcs,
                        "connected routers must share a VC count (a credit \
                         return indexes the sender's row by the popped VC)"
                    );
                    let fed = feeder[router][port].replace((r as u32, out as u32));
                    assert!(fed.is_none(), "two links land on input ({router}, {port})");
                }
            }
        }
        let channels: Vec<Vec<ChannelState>> = wiring
            .iter()
            .map(|row| row.iter().map(|_| ChannelState::default()).collect())
            .collect();
        let next_free = wiring.iter().map(|row| vec![0; row.len()]).collect();
        // Each sender starts with the depth of the queue its link feeds.
        let credits = wiring
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let vcs = routers[r].vcs;
                let mut credit_row = Vec::with_capacity(row.len() * vcs);
                for link in row {
                    credit_row.extend((0..vcs).map(|v| match *link {
                        PortLink::Router { router, port } => {
                            routers[router].store.capacity(port * vcs + v) as u32
                        }
                        PortLink::Endpoint(_) => u32::MAX,
                        PortLink::Unused => 0,
                    }));
                }
                credit_row
            })
            .collect();
        let n = routers.len();
        let mut link_off = Vec::with_capacity(n + 1);
        let mut loff = 0usize;
        for row in &wiring {
            link_off.push(loff);
            loff += row.len();
        }
        link_off.push(loff);
        let mut fabric = RouterFabric {
            routers,
            wiring,
            channels,
            next_free,
            credits,
            feeder,
            route,
            classify: None,
            cycle: 0,
            delivered: Vec::new(),
            in_flight_total: 0,
            active: Vec::new(),
            is_active: vec![false; n],
            telemetry: None,
            bounds: Vec::new(),
            link_off,
            shard_scratch: Vec::new(),
            boundary: Vec::new(),
            min_pos_latency: u64::MAX,
            lookahead_cap: None,
            sync_ops: 0,
            epochs: 0,
            cycles_stepped: 0,
            pool: None,
        };
        fabric.partition(1, None);
        fabric
    }

    /// Enables telemetry recording from the current cycle: stall-cause
    /// attribution, per-link epoch time-series, and (if configured)
    /// packet lifecycle traces. Replaces any previously enabled handle.
    /// Recording is purely observational — arbitration, delivery logs
    /// and link counters are bit-identical with telemetry on or off.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let vcs = self.routers.iter().map(|r| r.vcs).max().unwrap_or(1);
        let mut tel = Telemetry::new(cfg, &self.link_off, vcs, self.cycle);
        tel.set_delivered_mark(self.delivered.len());
        self.telemetry = Some(Box::new(tel));
    }

    /// Disables telemetry and returns the recorded state, if any. The
    /// fabric may keep stepping (and telemetry may later be re-enabled)
    /// without any behavioral difference.
    pub fn disable_telemetry(&mut self) -> Option<Box<Telemetry>> {
        self.telemetry.take()
    }

    /// The telemetry state recorded so far, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Audits the heap memory behind the fabric, bucketed by subsystem
    /// (see [`MemoryBreakdown`]). Capacity-based and cheap enough to
    /// call between measurement phases; the torus layer folds its route
    /// tables on top via
    /// [`TorusFabric::memory_report`](crate::fabric3d::TorusFabric::memory_report).
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        use std::mem::size_of;
        let mut b = MemoryBreakdown {
            routers: self.routers.capacity() * size_of::<CycleRouter>(),
            ..MemoryBreakdown::default()
        };
        for r in &self.routers {
            let (slab, state) = r.memory_bytes();
            b.flit_slabs += slab;
            b.routers += state;
        }
        b.links = self.wiring.capacity() * size_of::<Vec<PortLink>>()
            + self.channels.capacity() * size_of::<Vec<ChannelState>>()
            + self.next_free.capacity() * size_of::<Vec<u64>>()
            + self.credits.capacity() * size_of::<Vec<u32>>()
            + self.feeder.capacity() * size_of::<Vec<Option<(u32, u32)>>>()
            + self.link_off.capacity() * size_of::<usize>();
        for row in &self.wiring {
            b.links += row.capacity() * size_of::<PortLink>();
        }
        for row in &self.channels {
            b.links += row.capacity() * size_of::<ChannelState>();
            for ch in row {
                b.links += ch.class_flits.capacity() * size_of::<u64>();
            }
        }
        for row in &self.next_free {
            b.links += row.capacity() * size_of::<u64>();
        }
        for row in &self.credits {
            b.links += row.capacity() * size_of::<u32>();
        }
        for row in &self.feeder {
            b.links += row.capacity() * size_of::<Option<(u32, u32)>>();
        }
        b.scheduling = (self.active.capacity() + self.bounds.capacity()) * size_of::<usize>()
            + self.is_active.capacity()
            + self.delivered.capacity() * size_of::<(u64, Flit)>()
            + self.boundary.capacity() * size_of::<(usize, usize)>()
            + self.shard_scratch.capacity() * size_of::<ShardScratch>()
            + self
                .shard_scratch
                .iter()
                .map(|s| s.memory_bytes())
                .sum::<usize>();
        b.telemetry = self.telemetry.as_ref().map_or(0, |t| t.memory_bytes());
        b
    }

    /// Overrides the latency/bandwidth of the link leaving `router` via
    /// `port` (e.g. the inter-node SERDES crossings of a torus fabric).
    ///
    /// # Panics
    /// Panics if `spec.interval` is zero; if `spec.latency` is positive
    /// on a port that does not lead to another router (ejection links
    /// deliver the cycle they serialize; see [`LinkSpec`]), or zero on a
    /// router link of a sharded fabric (see
    /// [`ShardError::ZeroLatencyLink`]); or if it changes the latency of
    /// a link with flits in flight (they were booked at the old one), or
    /// grows the longest link latency while any flit is in flight (the
    /// arrival wheels would have to grow).
    pub fn set_link_spec(&mut self, router: usize, port: usize, spec: LinkSpec) {
        assert!(
            spec.interval >= 1,
            "link interval must be at least one cycle"
        );
        let to_router = matches!(self.wiring[router][port], PortLink::Router { .. });
        assert!(
            spec.latency == 0 || to_router,
            "only router-to-router links have latency; ({router}, {port}) does not lead to a router"
        );
        assert!(
            spec.latency > 0 || !to_router || self.shards() == 1,
            "sharded stepping needs every router link at least one cycle long; \
             ({router}, {port}) would have zero latency"
        );
        assert!(
            self.in_flight_total == 0
                || spec.latency == self.channels[router][port].spec.latency
                || self.in_flight_on(router, port) == 0,
            "cannot change the latency of link ({router}, {port}) with flits in flight"
        );
        if spec.latency + 1 > self.wheel_len() {
            assert_eq!(
                self.in_flight_total, 0,
                "cannot grow the arrival wheels with flits in flight"
            );
            let len = (spec.latency + 2).next_power_of_two() as usize;
            for sc in &mut self.shard_scratch {
                sc.wheel = vec![Vec::new(); len];
            }
        }
        // Conservative incremental update of the structural lookahead
        // bound: raising a latency later leaves the bound stale-low
        // (smaller windows than allowed — never incorrect ones);
        // [`Self::set_shards`] recomputes it exactly.
        if spec.latency >= 1 {
            self.min_pos_latency = self.min_pos_latency.min(spec.latency);
        }
        self.channels[router][port].spec = spec;
    }

    /// Resizes the input buffers of `(router, port)` — see
    /// [`CycleRouter::set_input_depth`] — and sets the feeding link's
    /// credits to the new free slots. A setup-time operation: credits
    /// already spent by flits in flight on the feeding link would
    /// outlive a shrink and overflow the smaller queue, so resizing a
    /// port whose link has traffic in flight is rejected.
    ///
    /// # Panics
    /// Panics if the feeding link has flits in flight, or if the port
    /// already holds more flits than `depth`.
    pub fn set_input_depth(&mut self, router: usize, port: usize, depth: usize) {
        let feeding = self.feeder[router][port];
        // Skip the in-flight count when nothing is in flight anywhere —
        // always so on the construction path, where a torus fabric
        // resizes every neighbor port.
        if let Some((r, out)) = feeding.filter(|_| self.in_flight_total > 0) {
            assert_eq!(
                self.in_flight_on(r as usize, out as usize),
                0,
                "cannot resize input ({router}, {port}): feeding link has flits in flight holding its credits"
            );
        }
        self.routers[router].set_input_depth(port, depth);
        if let Some((r, out)) = feeding {
            let vcs = self.routers[router].vcs;
            for v in 0..vcs {
                self.credits[r as usize][out as usize * vcs + v] =
                    self.routers[router].free_slots(port, v as u8) as u32;
            }
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Flits delivered to endpoints so far, with delivery cycles.
    pub fn delivered(&self) -> &[(u64, Flit)] {
        &self.delivered
    }

    /// Drops all delivery records (long sweeps drain these per window to
    /// bound memory).
    pub fn take_delivered(&mut self) -> Vec<(u64, Flit)> {
        std::mem::take(&mut self.delivered)
    }

    /// Cumulative traffic that has entered the link leaving `router` via
    /// `port`, as `(flits, packets)`. Packets are counted at their tail
    /// flit, so a partially transmitted packet shows in the flit count
    /// only. Feeds the per-slice [`crate::channel::LinkStats`]
    /// accounting of [`crate::fabric3d::TorusFabric`].
    pub fn link_traffic(&self, router: usize, port: usize) -> (u64, u64) {
        let ch = &self.channels[router][port];
        (ch.flits_sent, ch.packets_sent)
    }

    /// Flits in flight on the link leaving `router` via `port`: the free
    /// slots of the downstream queue its sender holds no credit for.
    /// Exact between steps, when every credit return has landed.
    fn in_flight_on(&self, router: usize, port: usize) -> usize {
        let PortLink::Router {
            router: dst,
            port: dport,
        } = self.wiring[router][port]
        else {
            return 0;
        };
        let vcs = self.routers[router].vcs;
        (0..vcs)
            .map(|v| {
                self.routers[dst].free_slots(dport, v as u8)
                    - self.credits[router][port * vcs + v] as usize
            })
            .sum()
    }

    /// Instantaneous occupancy of the link leaving `router` via `port`:
    /// flits in flight on the link (counted from its sender's credits)
    /// plus flits queued in the downstream input port it feeds — the
    /// same sample the telemetry epoch rings record at each boundary,
    /// exposed so exports can close the final partial epoch with a
    /// matching sample.
    pub fn link_occupancy(&self, router: usize, port: usize) -> usize {
        let mut o = self.in_flight_on(router, port);
        if let PortLink::Router {
            router: dst,
            port: dport,
        } = self.wiring[router][port]
        {
            let vcs = self.routers[dst].vcs;
            for v in 0..vcs {
                o += self.routers[dst].queue_len(dport, v as u8);
            }
        }
        o
    }

    /// Enables per-class link traffic counters: every flit entering a
    /// link is additionally counted under `classify(&flit)`, which must
    /// return an index below `classes`. A setup-time operation — calling
    /// it resets any previously accumulated per-class counts.
    pub fn set_flit_classes(&mut self, classes: usize, classify: Box<FlitClassFn>) {
        assert!(classes > 0, "need at least one flit class");
        for row in &mut self.channels {
            for ch in row {
                ch.class_flits = vec![0; classes];
            }
        }
        self.classify = Some(classify);
    }

    /// Cumulative per-class flit counts of the link leaving `router` via
    /// `port` (parallel to [`Self::link_traffic`]); empty unless
    /// [`Self::set_flit_classes`] was called. Feeds the per-kind wire
    /// byte accounting of [`crate::fabric3d::TorusFabric::link_stats`].
    pub fn link_class_traffic(&self, router: usize, port: usize) -> &[u64] {
        &self.channels[router][port].class_flits
    }

    /// The credits an injection into input `(router, port, vc)` may
    /// spend: the credits of the link feeding that port, or the queue's
    /// free slots when no link feeds it — how many flits
    /// [`Self::inject`] accepts there now, so sources can check room for
    /// a whole packet before injecting any flit.
    ///
    /// # Panics
    /// Panics if the queue does not exist (see
    /// [`InjectError::QueueOutOfRange`]).
    pub fn inject_capacity(&self, router: usize, port: usize, vc: u8) -> usize {
        match self.feeder[router][port] {
            Some((r, out)) => {
                let vcs = self.routers[router].vcs;
                self.credits[r as usize][out as usize * vcs + vc as usize] as usize
            }
            None => self.routers[router].free_slots(port, vc),
        }
    }

    /// Flits currently queued on input `(router, port, vc)`.
    ///
    /// # Panics
    /// Panics if the queue does not exist (see
    /// [`InjectError::QueueOutOfRange`]).
    pub fn queue_len(&self, router: usize, port: usize, vc: u8) -> usize {
        self.routers[router].queue_len(port, vc)
    }

    /// Injects a flit into input `(router, port, flit.vc)` if a credit
    /// is available ([`Self::inject_capacity`]).
    ///
    /// Multi-flit packets must be injected with their flits contiguous
    /// on one `(port, vc)` — interleaving two packets' flits on the same
    /// input VC violates the cut-through ownership protocol (checked by
    /// a debug assertion at the downstream arbiter).
    ///
    /// # Errors
    /// Returns, without taking the flit, [`InjectError::QueueOutOfRange`]
    /// when the router, port or VC does not exist, and
    /// [`InjectError::NoCredit`] when the input VC queue has no credit —
    /// i.e. the fabric is backpressuring this source.
    pub fn inject(&mut self, router: usize, port: usize, flit: Flit) -> Result<(), InjectError> {
        self.inject_with(|view| view.inject(router, port, flit))
    }

    /// Runs `f` with an [`InjectPort`] over every router and input
    /// queue at the current cycle, then traces its injections — the
    /// serial counterpart of the view a shard window hands its
    /// endpoint.
    pub(crate) fn inject_with<R>(&mut self, f: impl FnOnce(&mut InjectPort<'_>) -> R) -> R {
        let tracing = self.telemetry.as_ref().is_some_and(|t| t.config().trace);
        let injects = &mut self.shard_scratch[0].injects;
        let mut view = InjectPort {
            cycle: self.cycle,
            lo: 0,
            n_routers: self.routers.len(),
            routers: &mut self.routers,
            is_active: &mut self.is_active,
            activated: &mut self.active,
            feeder: &self.feeder,
            credits: Some(&mut self.credits[..]),
            trace: tracing.then_some(&mut *injects),
            rank: 0,
        };
        let out = f(&mut view);
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.note_injects(injects);
            injects.clear();
        }
        out
    }

    /// The shard partition: shard `s` owns routers
    /// `bounds[s]..bounds[s + 1]` (see [`Self::set_shards`]), and
    /// endpoint `s` of [`Self::step_endpoints`] serves them.
    pub fn shard_bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// One lookahead epoch that never passes `limit`, with `endpoints[s]`
    /// running inside shard `s`'s window: at the top of every private
    /// cycle ([`Endpoint::begin_cycle`], injecting through a view of
    /// the shard's own injection ports) and at every ejection
    /// ([`Endpoint::deliver`]). Deliveries also enter [`Self::delivered`].
    /// The window is bounded by the kernel's own clamps and `limit` —
    /// never by delivery — and is bit-identical, epoch by epoch, to
    /// running the same endpoints cycle by cycle around
    /// [`Self::step_reference`] ([`Self::step_reference_with`]).
    ///
    /// While every endpoint is idle, the dead cycles before the next
    /// link arrival are jumped first, as [`Self::step_batched`] does.
    ///
    /// # Panics
    /// Panics unless there is one endpoint per shard, and re-raises a
    /// panic of an endpoint like one of the route function (see
    /// [`Self::step`]).
    pub fn step_endpoints<E: Endpoint>(&mut self, endpoints: &mut [E], limit: u64) {
        assert_eq!(endpoints.len(), self.shards(), "one endpoint per shard");
        let t = self.cycle;
        let idle = endpoints.iter().all(|ep| ep.idle(t));
        if t >= limit || (idle && !self.skip_dead_cycles(limit)) {
            return;
        }
        let mut eps: Vec<&mut dyn Endpoint> = endpoints
            .iter_mut()
            .map(|ep| ep as &mut dyn Endpoint)
            .collect();
        self.step_epoch(limit, &mut eps);
    }

    /// One cycle of [`Self::step_reference`] with `endpoint` run around
    /// it serially: its [`Endpoint::begin_cycle`] injects through a view
    /// of the whole fabric before the cycle, and it receives the cycle's
    /// deliveries afterward, in delivery-log order. The oracle schedule
    /// for [`Self::step_endpoints`], with one endpoint over every router.
    pub fn step_reference_with(&mut self, endpoint: &mut dyn Endpoint) {
        let cycle = self.cycle;
        self.inject_with(|view| endpoint.begin_cycle(cycle, view));
        let from = self.delivered.len();
        self.step_reference();
        for (at, flit) in &self.delivered[from..] {
            endpoint.deliver(*at, flit);
        }
    }

    /// Files `flit` into input `(router, port, flit.vc)` at `cycle` and
    /// puts the router on the active worklist. The sender has spent the
    /// credit.
    fn file(&mut self, router: usize, port: usize, flit: Flit, cycle: u64) {
        self.routers[router].accept(port, flit.vc, flit, cycle);
        if !self.is_active[router] {
            self.is_active[router] = true;
            self.active.push(router);
        }
    }

    /// Phase 1 of a reference step: every shard's wheel slot for this
    /// cycle lands into its downstream queues.
    fn land_arrivals(&mut self, cycle: u64) {
        if self.in_flight_total == 0 {
            return;
        }
        let slot = (cycle % self.wheel_len()) as usize;
        for s in 0..self.shard_scratch.len() {
            if self.shard_scratch[s].wheel[slot].is_empty() {
                continue;
            }
            // Departures this cycle land at least one cycle out (latency-0
            // links bypass the wheels), so the bucket cannot grow while it
            // is processed; taking it out keeps its allocation for reuse.
            let mut bucket = std::mem::take(&mut self.shard_scratch[s].wheel[slot]);
            for a in &bucket {
                self.file(a.router as usize, a.port as usize, a.flit, cycle);
            }
            self.in_flight_total -= bucket.len();
            bucket.clear();
            self.shard_scratch[s].wheel[slot] = bucket;
        }
    }

    /// Phase 3 of a reference step: departures enter their links
    /// (same-cycle for latency-0 links), counters update, ejections are
    /// recorded, and same-cycle accepts activate their routers. Drains
    /// `moves` in place.
    fn apply_moves(&mut self, moves: &mut Vec<(usize, usize, Flit)>, cycle: u64) {
        for (r, out, flit) in moves.drain(..) {
            let class = self.classify.as_deref().map(|f| f(&flit));
            let spec = {
                let ch = &mut self.channels[r][out];
                self.next_free[r][out] = cycle + ch.spec.interval;
                ch.flits_sent += 1;
                ch.packets_sent += u64::from(flit.is_tail());
                if let Some(c) = class {
                    ch.class_flits[c] += 1;
                }
                ch.spec
            };
            match self.wiring[r][out] {
                PortLink::Router { router, port } => {
                    let vcs = self.routers[r].vcs;
                    self.credits[r][out * vcs + flit.vc as usize] -= 1;
                    if spec.latency == 0 {
                        // Link flight is folded into the downstream
                        // pipeline constant (the paper's per-hop cycle
                        // counts are inclusive), so arrival lands this
                        // cycle.
                        self.file(router, port, flit, cycle);
                    } else {
                        // The kernel's booking, so the steppers interleave.
                        let w = self.wheel_len();
                        let slot = ((cycle + spec.latency) % w) as usize;
                        debug_assert!(spec.latency < w, "arrival beyond the wheel");
                        let d = self.shard_of(router);
                        self.shard_scratch[d].wheel[slot].push(Arrival {
                            flit,
                            router: router as u32,
                            port: port as u8,
                        });
                        self.in_flight_total += 1;
                    }
                }
                PortLink::Endpoint(_) => self.delivered.push((cycle, flit)),
                PortLink::Unused => unreachable!("flit departed through an unused port"),
            }
        }
    }

    /// Telemetry pre-phase, shared by both steppers: clamps the
    /// delivery-trace watermark after any caller drain, and flushes the
    /// per-link epoch ring when this cycle has crossed an epoch
    /// boundary (sampling each link's occupancy — in-flight flits plus
    /// the downstream queue — at the boundary).
    fn telemetry_begin_step(&mut self) {
        let Some(mut tel) = self.telemetry.take() else {
            return;
        };
        tel.sync_delivered(self.delivered.len());
        if tel.roll_due(self.cycle) {
            let mut occ = tel.take_occ_scratch();
            for (r, row) in self.wiring.iter().enumerate() {
                occ.extend((0..row.len()).map(|out| self.link_occupancy(r, out) as u32));
            }
            tel.roll(self.cycle, occ);
        }
        self.telemetry = Some(tel);
    }

    /// Telemetry recording of the reference stepper, through the same
    /// [`LinkRecorder`](crate::telemetry::LinkRecorder) routine the epoch kernel's shard windows record
    /// their own link ranges with. Runs post-arbitration,
    /// pre-[`Self::apply_moves`]: departed flits are
    /// already popped from their queues, but the link timers
    /// (`next_free`) and credit rows (`credits`) still hold
    /// the state this cycle's arbitration read. Each departure marks
    /// its link's advance cycle (and traces a head's hop); every
    /// occupied queue front that has cleared the router pipeline is then
    /// classified into a [`StallCause`] against that same state (a front
    /// still in the pipeline is not stalled). Purely observational —
    /// nothing here mutates fabric state, so telemetry cannot perturb
    /// the run.
    fn telemetry_record(&mut self, moves: &[(usize, usize, Flit)], cycle: u64) {
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        for &(r, out, ref flit) in moves {
            tel.recorder().advance(cycle, self.link_off[r] + out);
            if matches!(self.wiring[r][out], PortLink::Router { .. }) {
                tel.note_hop(cycle, r, out, flit);
            }
        }
        let mut rec = tel.recorder();
        for (r, router) in self.routers.iter().enumerate() {
            if router.queued == 0 {
                continue;
            }
            let vcs = router.vcs;
            for p in 0..router.ports {
                for v in 0..vcs {
                    let Some(&(front, arrived)) = router.front(p, v as u8) else {
                        continue;
                    };
                    if arrived + router.pipeline > cycle {
                        continue;
                    }
                    let (out, out_vc) = if front.is_head() {
                        let d = (self.route)(&front, r);
                        (d.port, d.vc)
                    } else {
                        match router.owner_output(p, v as u8) {
                            Some(t) => t,
                            // A body front's packet owns an output by the
                            // cut-through protocol; defensive skip only.
                            None => continue,
                        }
                    };
                    // Ejection links never lack credits; nothing is ever
                    // granted toward an unused port (see `Self::credits`).
                    let starved = || self.credits[r][out * vcs + out_vc as usize] == 0;
                    let link = self.link_off[r] + out;
                    let cause = StallCause::of(
                        rec.advanced_on(cycle, link),
                        self.next_free[r][out] > cycle,
                        starved,
                    );
                    rec.stall(cycle, link, out_vc, cause);
                }
            }
        }
    }

    /// Advances the fabric one cycle: link arrivals land, every router
    /// **with work** arbitrates (the active worklist — idle routers are
    /// never visited), departures enter their links (same-cycle for
    /// latency-0 links), ejections are recorded. A one-cycle epoch of
    /// the lookahead kernel at the configured shard count, bit-identical
    /// to [`Self::step_reference`].
    ///
    /// # Panics
    /// Re-raises a panic of the route or flit-class function. With
    /// several shards it is the first panicking window's payload,
    /// raised once every shard has finished its window; the fabric can
    /// then only be dropped, which joins the shard workers.
    pub fn step(&mut self) {
        self.step_epoch(self.cycle + 1, &mut []);
    }

    /// Advances the fabric one cycle with the retained **reference**
    /// stepper: the pre-worklist full scan over every router, arbitrating
    /// via [`CycleRouter::tick`] against each router's link timers and
    /// credit row. Kept as the executable specification of
    /// [`Self::step`] — the `stepper_equivalence` property tests (and
    /// the committed benchmark's traced run, which also times both) run
    /// the two side by side and require identical delivery logs and
    /// link counters. The two may be freely interleaved on one fabric.
    pub fn step_reference(&mut self) {
        let cycle = self.cycle;
        if self.telemetry.is_some() {
            self.telemetry_begin_step();
        }
        self.land_arrivals(cycle);

        // Full-scan arbitration over every router — deliberately naive;
        // this is the spec, not the fast path. Nothing a departure check
        // reads changes until every router has arbitrated.
        let mut moves: Vec<(usize, usize, Flit)> = Vec::new();
        for r in 0..self.routers.len() {
            if self.routers[r].is_idle() {
                continue;
            }
            let vcs = self.routers[r].vcs;
            let (next_free, credits) = (&self.next_free[r], &self.credits[r]);
            let sent = self.routers[r].tick(cycle, &*self.route, |out, vc| {
                next_free[out] <= cycle && credits[out * vcs + vc as usize] > 0
            });
            for (out, flit) in sent {
                moves.push((r, out, flit));
            }
        }

        if self.telemetry.is_some() {
            self.telemetry_record(&moves, cycle);
        }
        self.apply_moves(&mut moves, cycle);
        for r in 0..self.routers.len() {
            if !self.routers[r].popped.is_empty() {
                self.return_credits(r);
            }
        }
        if self.telemetry.is_some() {
            self.telemetry_note_deliveries();
        }
        self.cycle += 1;
    }

    /// Returns the credits parked by router `r`'s departures this cycle
    /// (its drained `popped` list) to the links feeding the popped
    /// queues — the reference stepper's uniform end-of-cycle credit
    /// return.
    fn return_credits(&mut self, r: usize) {
        let vcs = self.routers[r].vcs;
        for idx in self.routers[r].popped.drain(..) {
            let (port, vc) = (idx as usize / vcs, idx as usize % vcs);
            if let Some((up, out)) = self.feeder[r][port] {
                self.credits[up as usize][out as usize * vcs + vc] += 1;
            }
        }
    }

    /// Slots per arrival wheel (every shard's wheel has this length).
    fn wheel_len(&self) -> u64 {
        self.shard_scratch[0].wheel.len() as u64
    }

    /// The number of contiguous router regions [`Self::step`] advances
    /// in parallel (1 = the epoch kernel inline on the calling thread).
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The effective lookahead bound: the widest epoch window the
    /// kernel may attempt before the per-epoch dynamic clamps
    /// (stepping limit, telemetry epoch boundary, boundary credit
    /// headroom). The structural bound — the minimum positive link
    /// latency — capped by [`Self::set_shards_with_lookahead`].
    pub fn lookahead(&self) -> u64 {
        self.min_pos_latency
            .min(self.lookahead_cap.unwrap_or(u64::MAX))
    }

    /// Synchronization operations (pool launches + barrier crossings)
    /// spent since construction. One-shard epochs run inline and spend
    /// none, so this stays zero on a never-sharded fabric.
    pub fn sync_ops(&self) -> u64 {
        self.sync_ops
    }

    /// Lookahead epochs executed since construction, at any shard count
    /// (every [`Self::step`] is one).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Simulated cycles advanced by the epoch kernel since
    /// construction, at any shard count (the denominator for
    /// sync-ops-per-cycle metrics).
    pub fn cycles_stepped(&self) -> u64 {
        self.cycles_stepped
    }

    /// Re-partitions the fabric into `shards` contiguous router regions
    /// stepped in parallel by a persistent worker pool with the
    /// structural (minimum positive link latency) lookahead window —
    /// equivalent to [`Self::set_shards_with_lookahead`] with no cap.
    pub fn set_shards(&mut self, shards: usize) -> Result<(), ShardError> {
        self.set_shards_with_lookahead(shards, None)
    }

    /// Re-partitions the fabric into `shards` contiguous router regions
    /// stepped in parallel by a persistent worker pool, exchanging
    /// cross-shard effects at lookahead-epoch barriers only. Results
    /// stay bit-identical to [`Self::step_reference`] at every shard
    /// count and every window: credit returns visible only from the next
    /// cycle make arbitration outcomes independent of router visit order,
    /// link latency ≥ 1 bounds the epoch window so no departure can
    /// land inside its own window, the credit-headroom clamp on the
    /// window keeps every boundary sender's count (which sees returns
    /// only at the epoch epilogue) answering each credit check as the
    /// serial credit loop would, each shard records telemetry
    /// into its own links' counters, and the serial epilogue puts the
    /// shards' deliveries and hops in the serial (cycle, ascending
    /// router) order.
    ///
    /// `lookahead` caps the epoch window below the structural bound, at
    /// one shard too — `Some(1)` degenerates to one-cycle epochs (the
    /// most serial-like schedule, useful in tests); `None` lets the
    /// window grow to the minimum positive link latency (~80 cycles at
    /// the calibrated Anton 3 link spec).
    ///
    /// Only allowed on a **drained** fabric — shard ownership of queues,
    /// arrival wheels, and scratch cannot change hands mid-protocol.
    ///
    /// # Errors
    /// [`ShardError::InvalidCount`] for 0 or more shards than routers
    /// (every shard must own a non-empty router range),
    /// [`ShardError::InvalidLookahead`] for a zero-cycle window cap,
    /// [`ShardError::Busy`] while any flit is resident or any packet is
    /// mid-cut-through, [`ShardError::ZeroLatencyLink`] if `shards > 1`
    /// and any router-to-router link has zero latency.
    pub fn set_shards_with_lookahead(
        &mut self,
        shards: usize,
        lookahead: Option<u64>,
    ) -> Result<(), ShardError> {
        let n = self.routers.len();
        if shards == 0 || shards > n {
            return Err(ShardError::InvalidCount { shards, routers: n });
        }
        if lookahead == Some(0) {
            return Err(ShardError::InvalidLookahead);
        }
        let resident = self.in_flight_total
            + self
                .routers
                .iter()
                .map(CycleRouter::occupancy)
                .sum::<usize>();
        if resident > 0 || self.routers.iter().any(|r| !r.is_idle()) {
            return Err(ShardError::Busy { resident });
        }
        if shards > 1 {
            for (r, row) in self.wiring.iter().enumerate() {
                for (port, link) in row.iter().enumerate() {
                    if matches!(link, PortLink::Router { .. })
                        && self.channels[r][port].spec.latency == 0
                    {
                        return Err(ShardError::ZeroLatencyLink { router: r, port });
                    }
                }
            }
        }
        // Exact recompute of the structural lookahead bound (link specs
        // may have been raised since construction).
        self.min_pos_latency = u64::MAX;
        for row in &self.channels {
            for ch in row {
                if ch.spec.latency >= 1 {
                    self.min_pos_latency = self.min_pos_latency.min(ch.spec.latency);
                }
            }
        }
        self.partition(shards, lookahead);
        Ok(())
    }

    /// Installs a partition into `shards` contiguous router regions with
    /// window cap `lookahead` — region bounds, shard scratch, the
    /// boundary links, and pool workers for shards `1..` — on a drained
    /// fabric. A fresh fabric starts with one shard and no cap.
    fn partition(&mut self, shards: usize, lookahead: Option<u64>) {
        let n = self.routers.len();
        self.pool = None; // joins any previous workers first
        self.bounds = (0..=shards).map(|s| s * n / shards).collect();
        debug_assert!(
            self.bounds.windows(2).all(|b| b[0] < b[1]),
            "shards <= routers must yield non-empty regions"
        );
        self.lookahead_cap = lookahead;
        // Drained, so every wheel is empty; keep their length.
        let wheel_len = self.shard_scratch.first().map_or(1, |sc| sc.wheel.len());
        self.shard_scratch = (0..shards).map(|_| ShardScratch::new(wheel_len)).collect();

        // Boundary links: every router-to-router link whose ends fall in
        // different regions.
        self.boundary.clear();
        for region in self.bounds.windows(2).map(|b| b[0]..b[1]) {
            for r in region.clone() {
                for (port, link) in self.wiring[r].iter().enumerate() {
                    if matches!(*link, PortLink::Router { router, .. } if !region.contains(&router))
                    {
                        self.boundary.push((r, port));
                    }
                }
            }
        }

        // A drained fabric's worklist holds only idle stragglers; start
        // the new partition from a clean one.
        self.active.clear();
        self.is_active.fill(false);
        self.pool = (shards > 1).then(|| ShardPool::new(shards));
    }

    /// The earliest pending link-arrival cycle, if any flit is in flight.
    fn next_arrival(&self) -> Option<u64> {
        if self.in_flight_total == 0 {
            return None;
        }
        let w = self.wheel_len();
        (self.cycle..self.cycle + w).find(|&t| {
            let slot = (t % w) as usize;
            self.shard_scratch
                .iter()
                .any(|sc| !sc.wheel[slot].is_empty())
        })
    }

    /// Event-driven advance with full lookahead windows: if no router
    /// has work, jumps over the dead cycles to the next link arrival (or
    /// to `limit` when nothing is in flight) — provably no-ops, so
    /// skipping them changes no observable — then runs one epoch of up
    /// to the lookahead window (never past `limit`), batching any
    /// deliveries it produces rather than stopping at the first one.
    /// Every delivery is still stamped with its exact cycle in
    /// [`Self::delivered`]; only the cycle at which the caller regains
    /// control differs. Use when nothing reacts mid-drain (replaying a
    /// fixed schedule, draining without follow-on traffic); a caller
    /// reacting to each delivery steps with [`Self::step`].
    pub fn step_batched(&mut self, limit: u64) {
        if self.skip_dead_cycles(limit) {
            self.step_epoch(limit, &mut []);
        }
    }

    /// Jumps the cycles before `limit` in which nothing can happen: when
    /// no router has work, to the next link arrival, or to `limit` when
    /// none lands before it. Returns whether a cycle before `limit` is
    /// left to step. Telemetry rolls each epoch boundary it jumps, as
    /// per-cycle stepping would: nothing lands in between, so every
    /// boundary samples the same occupancy.
    fn skip_dead_cycles(&mut self, limit: u64) -> bool {
        if self.active.is_empty() {
            let to = match self.next_arrival() {
                Some(t) if t < limit => t,
                _ => limit,
            };
            if let Some(len) = self.telemetry.as_ref().map(|tel| tel.epoch_cycles()) {
                for boundary in (self.cycle.div_ceil(len) * len..to).step_by(len as usize) {
                    self.cycle = boundary;
                    self.telemetry_begin_step();
                }
            }
            self.cycle = self.cycle.max(to);
        }
        self.cycle < limit
    }

    /// Total flits resident in the fabric: router queues plus flits in
    /// link flight. Costs O(active routers), not O(all routers).
    pub fn occupancy(&self) -> usize {
        let queued: usize = self
            .active
            .iter()
            .map(|&r| self.routers[r].occupancy())
            .sum();
        debug_assert_eq!(
            queued,
            self.routers
                .iter()
                .map(CycleRouter::occupancy)
                .sum::<usize>(),
            "a router with queued flits escaped the active worklist"
        );
        queued + self.in_flight_total
    }

    /// Steps until all queues drain or `max_cycles` pass; returns whether
    /// the fabric drained (useful as a no-deadlock/no-livelock check).
    /// Runs [`Self::step_batched`] advances: dead time between link
    /// arrivals is fast-forwarded, and no caller can react between them,
    /// so each runs a full-width lookahead epoch (deliveries inside a
    /// window do not end it); the final cycle and every observable still
    /// match a per-cycle drain exactly.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        let limit = self.cycle.saturating_add(max_cycles);
        while self.cycle < limit {
            if self.occupancy() == 0 {
                return true;
            }
            self.step_batched(limit);
        }
        self.occupancy() == 0
    }
}

/// Builds a 1D row of `n` routers (the Core Network U direction): port 0
/// is injection, port 1 goes right, port 2 ejects at the last router.
/// Routing: forward right until the destination router, then eject.
pub fn build_row(n: usize, vcs: usize, pipeline: u64) -> RouterFabric {
    let routers: Vec<CycleRouter> = (0..n)
        .map(|i| CycleRouter::new(i, 3, vcs, pipeline))
        .collect();
    let wiring: Vec<Vec<PortLink>> = (0..n)
        .map(|i| {
            vec![
                PortLink::Unused, // port 0 is input-only (injection)
                if i + 1 < n {
                    PortLink::Router {
                        router: i + 1,
                        port: 0,
                    }
                } else {
                    PortLink::Endpoint(0)
                },
                PortLink::Endpoint(i as u32),
            ]
        })
        .collect();
    let route = Box::new(move |f: &Flit, router: usize| {
        if f.dest as usize == router {
            RouteDecision::keep(2, f) // eject
        } else {
            RouteDecision::keep(1, f) // continue along the row
        }
    });
    RouterFabric::new(routers, wiring, route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::StallBreakdown;

    fn flit(packet: u64, index: u8, of: u8, dest: u32, vc: u8) -> Flit {
        Flit {
            packet,
            index,
            of,
            dest,
            vc,
            tag: 0,
            injected_at: 0,
        }
    }

    #[test]
    fn single_flit_row_latency_is_pipeline_per_hop() {
        // A row of Core Routers with the paper's 2-cycle U pipeline: a
        // flit crossing k routers takes ~2k cycles.
        for hops in 1..=6usize {
            let mut fabric = build_row(8, 2, 2);
            assert!(fabric.inject(0, 0, flit(1, 0, 1, hops as u32, 0)).is_ok());
            assert!(fabric.run_until_drained(200));
            let (cycle, f) = fabric.delivered()[0];
            assert_eq!(f.packet, 1);
            let latency = cycle - f.injected_at;
            // hops+1 router traversals at 2 cycles each (injection router
            // included) — the Core Router's published U-direction cost.
            let expect = 2 * (hops as u64 + 1);
            assert_eq!(latency, expect, "hops={hops}");
        }
    }

    #[test]
    fn edge_router_pipeline_is_three_cycles() {
        let mut fabric = build_row(4, 5, 3);
        assert!(fabric.inject(0, 0, flit(9, 0, 1, 2, 4)).is_ok());
        assert!(fabric.run_until_drained(100));
        let (cycle, f) = fabric.delivered()[0];
        assert_eq!(cycle - f.injected_at, 3 * 3);
    }

    #[test]
    fn two_flit_packets_cut_through_back_to_back() {
        let mut fabric = build_row(4, 2, 2);
        assert!(fabric.inject(0, 0, flit(5, 0, 2, 3, 0)).is_ok());
        assert!(fabric.inject(0, 0, flit(5, 1, 2, 3, 0)).is_ok());
        assert!(fabric.run_until_drained(100));
        let d = fabric.delivered();
        assert_eq!(d.len(), 2);
        // Tail follows head by exactly one cycle (streaming, no
        // store-and-forward re-serialization per hop).
        assert_eq!(d[1].0 - d[0].0, 1, "tail must stream behind head");
    }

    #[test]
    fn packets_on_one_vc_stay_ordered() {
        let mut fabric = build_row(6, 2, 2);
        for p in 0..5u64 {
            assert!(fabric.inject(0, 0, flit(p, 0, 1, 5, 0)).is_ok());
        }
        assert!(fabric.run_until_drained(300));
        let order: Vec<u64> = fabric.delivered().iter().map(|(_, f)| f.packet).collect();
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 4],
            "per-VC FIFO order is the fence foundation"
        );
    }

    #[test]
    fn round_robin_rotates_grants_across_contending_inputs() {
        // Router 0's three injection VCs hold two packets each, and all
        // six eject through one output. Each grant moves that output's
        // pointer past the granted queue, so the VCs take turns; a pointer
        // that never moved would drain VC 0 first (0, 3, 1, 4, 2, 5).
        for reference in [false, true] {
            let mut fabric = build_row(1, 3, 2);
            for p in 0..6u64 {
                fabric
                    .inject(0, 0, flit(p, 0, 1, 0, (p % 3) as u8))
                    .unwrap();
            }
            for _ in 0..20 {
                if reference {
                    fabric.step_reference();
                } else {
                    fabric.step();
                }
            }
            let order: Vec<u64> = fabric.delivered().iter().map(|(_, f)| f.packet).collect();
            assert_eq!(order, [0, 1, 2, 3, 4, 5], "reference stepper: {reference}");
        }
    }

    #[test]
    fn pipeline_time_is_not_a_stall() {
        // Three routers with a 4-cycle pipeline. A lone flit waits out
        // each router's pipeline with nothing in its way, so nothing
        // stalls; two flits that clear router 0's pipeline together
        // contend for its output, and the loser stalls one head-cycle,
        // on a cycle its link advanced the winner (no link stall cycle).
        let run = |vcs: &[u8], reference: bool| {
            let mut fabric = build_row(3, 2, 4);
            fabric.enable_telemetry(TelemetryConfig::default());
            for (p, &vc) in vcs.iter().enumerate() {
                fabric.inject(0, 0, flit(p as u64, 0, 1, 2, vc)).unwrap();
            }
            for _ in 0..30 {
                if reference {
                    fabric.step_reference();
                } else {
                    fabric.step();
                }
            }
            assert_eq!(fabric.delivered().len(), vcs.len());
            let tel = fabric.telemetry().expect("telemetry on");
            let mut stalls = StallBreakdown::default();
            let mut stall_cycles = 0;
            for (r, out) in (0..3).flat_map(|r| (0..3).map(move |out| (r, out))) {
                stalls.merge(&tel.stalls_for_link(r, out));
                stall_cycles += tel.stall_cycles(r, out);
            }
            (stalls, stall_cycles)
        };
        for reference in [false, true] {
            assert_eq!(
                run(&[0], reference),
                (StallBreakdown::default(), 0),
                "reference stepper: {reference}"
            );
            let lost = StallBreakdown {
                lost_arbitration: 1,
                ..StallBreakdown::default()
            };
            assert_eq!(
                run(&[0, 1], reference),
                (lost, 0),
                "reference stepper: {reference}"
            );
        }
    }

    #[test]
    fn backpressure_stalls_without_loss() {
        // Saturate one output with traffic from two inputs; every flit
        // still arrives exactly once.
        let mut fabric = build_row(3, 2, 2);
        let mut injected = 0u64;
        let mut pending: Vec<Flit> = (0..40u64)
            .map(|p| flit(p, 0, 1, 2, (p % 2) as u8))
            .collect();
        pending.reverse();
        for _ in 0..600 {
            if let Some(f) = pending.last().copied() {
                if fabric.inject(0, 0, f).is_ok() {
                    pending.pop();
                    injected += 1;
                }
            }
            fabric.step();
        }
        assert!(fabric.run_until_drained(500));
        assert_eq!(injected, 40);
        let mut seen: Vec<u64> = fabric.delivered().iter().map(|(_, f)| f.packet).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>(), "no loss, no duplication");
    }

    #[test]
    fn rejection_reports_the_full_queue() {
        let mut fabric = build_row(2, 1, 2);
        for p in 0..INPUT_QUEUE_FLITS as u64 {
            assert!(fabric.inject(0, 0, flit(p, 0, 1, 1, 0)).is_ok());
        }
        let err = fabric.inject(0, 0, flit(99, 0, 1, 1, 0)).unwrap_err();
        assert_eq!(
            err,
            InjectError::NoCredit {
                router: 0,
                port: 0,
                vc: 0,
                occupancy: INPUT_QUEUE_FLITS
            }
        );
        assert!(err.to_string().contains("no credit"));
    }

    #[test]
    fn injection_into_a_missing_queue_is_refused() {
        // A VC, port or router past the fabric's addresses no queue: VC 2
        // of a 2-VC router must not fall through to port 1's VC 0.
        let mut fabric = build_row(2, 2, 2);
        for (router, port, vc) in [(0, 0, 2), (0, 0, u8::MAX), (0, 3, 0), (2, 0, 0)] {
            let err = fabric
                .inject(router, port, flit(1, 0, 1, 1, vc))
                .unwrap_err();
            assert_eq!(err, InjectError::QueueOutOfRange { router, port, vc });
            assert!(err.to_string().contains("no input queue"));
            let queued = fabric.inject_with(|view| view.queue_len(router, port, vc));
            assert_eq!(queued, Err(err));
        }
        assert_eq!(fabric.queue_len(0, 1, 0), 0, "nothing was filed");
        assert!(fabric.run_until_drained(100));
        assert!(fabric.delivered().is_empty());
    }

    #[test]
    fn injection_leaves_room_for_flits_in_flight() {
        // Router 1's input port 0 is also where the 5-cycle link from
        // router 0 lands, and router 1 forwards only one flit per 20
        // cycles. Credits held by flits in flight on that link must count
        // against injection there, or their landing overflows the queue.
        let mut fabric = build_row(3, 1, 2);
        let spec = |latency, interval| LinkSpec { latency, interval };
        fabric.set_link_spec(0, 1, spec(5, 1));
        fabric.set_link_spec(1, 1, spec(0, 20));
        for p in 0..8u64 {
            assert!(fabric.inject(0, 0, flit(p, 0, 1, 2, 0)).is_ok());
        }
        for _ in 0..4 {
            fabric.step();
        }
        // Router 0's 2-cycle pipeline sent two flits, at cycles 2 and 3.
        assert_eq!(fabric.inject_capacity(1, 0, 0), INPUT_QUEUE_FLITS - 2);
        let mut accepted = 0u64;
        for p in 100..100 + INPUT_QUEUE_FLITS as u64 {
            match fabric.inject(1, 0, flit(p, 0, 1, 2, 0)) {
                Ok(()) => accepted += 1,
                Err(e) => assert!(matches!(e, InjectError::NoCredit { router: 1, .. })),
            }
        }
        assert_eq!(accepted, INPUT_QUEUE_FLITS as u64 - 2);
        assert!(fabric.run_until_drained(2_000));
        let mut seen: Vec<u64> = fabric.delivered().iter().map(|(_, f)| f.packet).collect();
        seen.sort_unstable();
        let sent: Vec<u64> = (0..8).chain(100..100 + accepted).collect();
        assert_eq!(seen, sent, "no loss, no duplication");
    }

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

    #[test]
    fn vcs_do_not_block_each_other() {
        // Fill VC0's downstream path, then check VC1 traffic still flows
        // (the reason responses get their own VC).
        let mut fabric = build_row(3, 2, 2);
        // Stuff VC0 with more than the queues can hold.
        let mut vc0_backlog: Vec<Flit> = (0..30u64).map(|p| flit(p, 0, 1, 2, 0)).collect();
        vc0_backlog.reverse();
        for _ in 0..4 {
            if let Some(f) = vc0_backlog.last().copied() {
                if fabric.inject(0, 0, f).is_ok() {
                    vc0_backlog.pop();
                }
            }
        }
        // One VC1 packet injected behind the VC0 burst.
        assert!(fabric.inject(0, 0, flit(100, 0, 1, 2, 1)).is_ok());
        assert!(fabric.run_until_drained(400));
        let vc1_delivery = fabric
            .delivered()
            .iter()
            .find(|(_, f)| f.packet == 100)
            .expect("vc1 packet delivered");
        // It must not wait for the entire VC0 backlog.
        let vc0_last = fabric
            .delivered()
            .iter()
            .filter(|(_, f)| f.vc == 0)
            .map(|(c, _)| *c)
            .max()
            .unwrap();
        assert!(
            vc1_delivery.0 < vc0_last,
            "VC1 packet should interleave with the VC0 burst"
        );
    }

    #[test]
    fn fabric_reports_drain_failure_honestly() {
        // A routing function that never ejects spins flits forever (in a
        // ring this would be livelock); run_until_drained must return
        // false rather than hang.
        let routers = vec![CycleRouter::new(0, 2, 1, 1)];
        let wiring = vec![vec![
            PortLink::Router { router: 0, port: 0 },
            PortLink::Endpoint(0),
        ]];
        let route = Box::new(|f: &Flit, _router: usize| RouteDecision::keep(0, f)); // self-loop
        let mut fabric = RouterFabric::new(routers, wiring, route);
        assert!(fabric.inject(0, 0, flit(1, 0, 1, 9, 0)).is_ok());
        assert!(
            !fabric.run_until_drained(50),
            "self-looping flit never drains"
        );
    }

    #[test]
    fn link_latency_delays_arrival_without_costing_bandwidth() {
        // A 20-cycle link between two 2-cycle routers: latency adds to
        // the end-to-end time, but back-to-back flits still stream at one
        // per cycle because credits are spent at departure, not
        // round-tripped.
        let mut fabric = build_row(2, 2, 2);
        fabric.set_link_spec(
            0,
            1,
            LinkSpec {
                latency: 20,
                interval: 1,
            },
        );
        for p in 0..8u64 {
            assert!(fabric.inject(0, 0, flit(p, 0, 1, 1, 0)).is_ok());
        }
        assert!(fabric.run_until_drained(500));
        let d = fabric.delivered();
        assert_eq!(d.len(), 8);
        // First packet: 2 (router 0) + 20 (link) + 2 (router 1) cycles.
        assert_eq!(d[0].0 - d[0].1.injected_at, 24);
        // Streaming: deliveries one cycle apart despite the long link.
        for w in d.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 1, "long link must pipeline");
        }
    }

    #[test]
    fn link_interval_caps_throughput() {
        // interval = 3 serializes one flit every 3 cycles.
        let mut fabric = build_row(2, 2, 2);
        fabric.set_link_spec(
            0,
            1,
            LinkSpec {
                latency: 5,
                interval: 3,
            },
        );
        for p in 0..6u64 {
            assert!(fabric.inject(0, 0, flit(p, 0, 1, 1, 0)).is_ok());
        }
        assert!(fabric.run_until_drained(500));
        let d = fabric.delivered();
        assert_eq!(d.len(), 6);
        for w in d.windows(2) {
            assert!(w[1].0 - w[0].0 >= 3, "serialization interval violated");
        }
    }

    #[test]
    fn in_flight_flits_reserve_downstream_credits() {
        // With a long link and a blocked destination router, at most
        // 8 flits (the queue depth) may ever be queued-or-in-flight
        // toward one (port, vc).
        let routers = vec![CycleRouter::new(0, 2, 1, 1), CycleRouter::new(1, 3, 1, 1)];
        let wiring = vec![
            vec![PortLink::Unused, PortLink::Router { router: 1, port: 0 }],
            // Router 1 forwards every flit into its own input port 1,
            // which loops back onto itself, so both of its queues stay
            // (nearly) full forever.
            vec![
                PortLink::Unused,
                PortLink::Router { router: 1, port: 1 },
                PortLink::Endpoint(9),
            ],
        ];
        let route = Box::new(|f: &Flit, _router: usize| RouteDecision::keep(1, f));
        let mut fabric = RouterFabric::new(routers, wiring, route);
        fabric.set_link_spec(
            0,
            1,
            LinkSpec {
                latency: 30,
                interval: 1,
            },
        );
        let mut accepted = 0u32;
        for p in 0..64u64 {
            if fabric.inject(0, 0, flit(p, 0, 1, 9, 0)).is_ok() {
                accepted += 1;
            }
            fabric.step();
        }
        for _ in 0..200 {
            fabric.step();
        }
        // Nothing is ever lost or duplicated: every accepted flit is
        // still resident (accept() would have panicked in debug had a
        // credit been violated), and the long link plus both queues
        // absorbed well over one queue's worth.
        assert!(accepted >= 8 + 8, "link + queue should absorb two windows");
        assert_eq!(fabric.delivered().len(), 0, "self-loop never ejects");
        assert_eq!(fabric.occupancy() as u32, accepted);
    }

    #[test]
    fn step_batched_matches_per_cycle_stepping_over_dead_time() {
        // A 40-cycle link: the batched stepper jumps the dead wire time;
        // delivered cycles and the final clock must match per-cycle
        // stepping exactly.
        let build = || {
            let mut f = build_row(2, 2, 2);
            f.set_link_spec(
                0,
                1,
                LinkSpec {
                    latency: 40,
                    interval: 1,
                },
            );
            for p in 0..3u64 {
                assert!(f.inject(0, 0, flit(p, 0, 1, 1, 0)).is_ok());
            }
            f
        };
        let mut by_cycle = build();
        for _ in 0..120 {
            by_cycle.step();
        }
        let mut by_event = build();
        while by_event.cycle() < 120 {
            by_event.step_batched(120);
        }
        assert_eq!(by_event.cycle(), 120);
        assert_eq!(by_event.cycle(), by_cycle.cycle());
        assert_eq!(by_event.delivered(), by_cycle.delivered());
        assert_eq!(by_event.occupancy(), by_cycle.occupancy());
    }

    #[test]
    fn reference_stepper_matches_event_stepper() {
        // Same injection schedule through both steppers: identical logs.
        // (The broad random-shape equivalence proptest lives in
        // tests/stepper_equivalence.rs; this is the in-module smoke.)
        let mut fast = build_row(6, 2, 2);
        let mut naive = build_row(6, 2, 2);
        for t in 0..400u64 {
            if t % 3 != 2 {
                let f = flit(t, 0, 1, (t % 6) as u32, (t % 2) as u8);
                let a = fast.inject(0, 0, f).is_ok();
                let b = naive.inject(0, 0, f).is_ok();
                assert_eq!(a, b, "cycle {t}: injection acceptance diverged");
            }
            fast.step();
            naive.step_reference();
        }
        assert!(fast.run_until_drained(1_000));
        while naive.occupancy() > 0 {
            naive.step_reference();
        }
        assert_eq!(fast.delivered(), naive.delivered());
        for r in 0..6 {
            for port in 0..3 {
                assert_eq!(
                    fast.link_traffic(r, port),
                    naive.link_traffic(r, port),
                    "link ({r}, {port}) counters diverged"
                );
            }
        }

        // Every row link has latency 0, so the lookahead window is
        // unbounded: one batched drain is a single multi-cycle epoch whose
        // same-cycle hops land inside the window.
        let (mut batched, mut naive) = (build_row(6, 2, 2), build_row(6, 2, 2));
        for fabric in [&mut batched, &mut naive] {
            for p in 0..2 * INPUT_QUEUE_FLITS as u64 {
                let f = flit(p, 0, 1, (p % 6) as u32, (p % 2) as u8);
                assert!(fabric.inject(0, 0, f).is_ok());
            }
        }
        assert!(batched.run_until_drained(1_000));
        assert_eq!(batched.epochs(), 1, "the drain must be one window");
        while naive.occupancy() > 0 {
            naive.step_reference();
        }
        assert_eq!(batched.delivered(), naive.delivered());
        assert_eq!(batched.cycle(), naive.cycle(), "stop cycles");
    }

    #[test]
    #[should_panic(expected = "only router-to-router links have latency")]
    fn ejection_links_refuse_latency() {
        let mut fabric = build_row(2, 2, 2);
        fabric.set_link_spec(
            0,
            2,
            LinkSpec {
                latency: 3,
                interval: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "cannot change the latency of link (0, 1) with flits in flight")]
    fn link_latency_cannot_change_under_flits_in_flight() {
        // The two flits in flight were booked to land at the old latency.
        let mut fabric = build_row(2, 1, 2);
        let spec = |latency| LinkSpec {
            latency,
            interval: 1,
        };
        fabric.set_link_spec(0, 1, spec(6));
        for p in 0..2u64 {
            fabric.inject(0, 0, flit(p, 0, 1, 1, 0)).unwrap();
        }
        // Router 0's 2-cycle pipeline sends them at cycles 2 and 3.
        for _ in 0..4 {
            fabric.step();
        }
        assert_eq!(fabric.link_occupancy(0, 1), 2);
        fabric.set_link_spec(0, 1, spec(1));
    }

    #[test]
    fn link_occupancy_counts_in_flight_flits_from_credits() {
        // Every flit that entered link (r, 1) and has not left router
        // r + 1 is in flight on the link, holding one of its sender's
        // credits, or queued at router r + 1's input port 0 — the only
        // port it feeds, since traffic is injected at router 0 alone. At
        // 2 and 4 shards some of those links cross a shard boundary, where
        // a pop returns its credit only at the epoch epilogue.
        for (reference, shards) in [(true, 1), (false, 1), (false, 2), (false, 4)] {
            let mut f = build_row(4, 2, 2);
            for r in 0..3 {
                f.set_link_spec(
                    r,
                    1,
                    LinkSpec {
                        latency: 3,
                        interval: 1,
                    },
                );
            }
            f.set_shards(shards).unwrap();
            let mut p = 0u64;
            for cycle in 0..300u64 {
                let vc = (p % 2) as u8;
                if cycle < 200 && f.inject_capacity(0, 0, vc) >= 2 {
                    for i in 0..2u8 {
                        f.inject(0, 0, flit(p, i, 2, 1 + (p % 3) as u32, vc))
                            .unwrap();
                    }
                    p += 1;
                }
                if reference {
                    f.step_reference();
                } else {
                    f.step();
                }
                for r in 0..3 {
                    let entered = f.link_traffic(r, 1).0;
                    let left = f.link_traffic(r + 1, 1).0 + f.link_traffic(r + 1, 2).0;
                    assert_eq!(
                        f.link_occupancy(r, 1) as u64,
                        entered - left,
                        "link ({r}, 1), cycle {cycle}, reference stepper: {reference}, \
                         shards: {shards}"
                    );
                }
            }
            assert_eq!(f.occupancy(), 0, "the row drains");
            assert_eq!(f.delivered().len() as u64, 2 * p);
        }
    }

    /// A row whose inter-router links all have one-cycle latency — the
    /// minimum a sharded fabric accepts.
    fn latency1_row(n: usize) -> RouterFabric {
        let mut f = build_row(n, 2, 2);
        for r in 0..n - 1 {
            f.set_link_spec(
                r,
                1,
                LinkSpec {
                    latency: 1,
                    interval: 1,
                },
            );
        }
        f
    }

    #[test]
    fn set_shards_validates_count_latency_and_occupancy() {
        let mut f = latency1_row(8);
        assert_eq!(f.shards(), 1);
        assert_eq!(
            f.set_shards(0),
            Err(ShardError::InvalidCount {
                shards: 0,
                routers: 8
            })
        );
        assert_eq!(
            f.set_shards(9),
            Err(ShardError::InvalidCount {
                shards: 9,
                routers: 8
            })
        );
        // Same-cycle router links leave no transmission window to hide
        // the boundary exchange in.
        let mut zero = build_row(4, 2, 2);
        assert_eq!(
            zero.set_shards(2),
            Err(ShardError::ZeroLatencyLink { router: 0, port: 1 })
        );
        // A busy fabric refuses to re-partition; once drained it accepts,
        // and going back to one shard always works.
        assert!(f.inject(0, 0, flit(1, 0, 1, 7, 0)).is_ok());
        assert!(matches!(f.set_shards(2), Err(ShardError::Busy { .. })));
        assert!(f.run_until_drained(200));
        assert!(f.set_shards(2).is_ok());
        assert_eq!(f.shards(), 2);
        assert!(f.set_shards(1).is_ok());
        assert_eq!(f.shards(), 1);
        // Shards == routers is the upper boundary: every shard owns
        // exactly one router.
        assert!(f.set_shards(8).is_ok());
        assert_eq!(f.shards(), 8);
    }

    #[test]
    #[should_panic(expected = "sharded stepping needs every router link at least one cycle long")]
    fn sharded_fabrics_refuse_zero_latency_router_links() {
        // A same-cycle hop between routers 1 and 2 would cross from
        // shard 0 into shard 1 inside a window.
        let mut fabric = latency1_row(4);
        fabric.set_shards(2).unwrap();
        fabric.set_link_spec(
            1,
            1,
            LinkSpec {
                latency: 0,
                interval: 1,
            },
        );
    }

    #[test]
    fn set_shards_validates_and_caps_the_lookahead_window() {
        let mut f = latency1_row(8);
        // A zero-cycle window cannot make progress.
        assert_eq!(
            f.set_shards_with_lookahead(2, Some(0)),
            Err(ShardError::InvalidLookahead)
        );
        // The failed call must not have re-partitioned anything.
        assert_eq!(f.shards(), 1);
        // An explicit cap below the structural bound wins...
        assert!(f.set_shards_with_lookahead(2, Some(1)).is_ok());
        assert_eq!(f.lookahead(), 1);
        // ...while a cap above it is clamped to the minimum positive
        // link latency (1 for this row), never exceeded.
        assert!(f.set_shards_with_lookahead(2, Some(1000)).is_ok());
        assert_eq!(f.lookahead(), 1);
        // No cap: the structural bound stands.
        assert!(f.set_shards(2).is_ok());
        assert_eq!(f.lookahead(), 1);
        // The cap is part of the partition config, accepted on a single
        // shard too (where it caps the inline kernel's window).
        assert!(f.set_shards_with_lookahead(1, Some(3)).is_ok());
        assert_eq!(f.shards(), 1);
    }

    #[test]
    fn a_shard_window_refuses_queues_outside_its_injection_ports() {
        // Shard 0 of a 4-router row at 2 shards owns routers 0-1. Inside
        // its window, its endpoint may inject only at ports no link feeds:
        // router 1's port 0 is fed by router 0's link, router 2 is shard
        // 1's, and port 3 and VC 2 do not exist.
        const QUEUES: [(usize, usize, u8); 5] =
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 2)];
        type Answer = (
            Result<usize, InjectError>,
            Result<usize, InjectError>,
            Result<(), InjectError>,
        );
        struct Probe {
            probe: bool,
            answers: Vec<Answer>,
        }
        impl Endpoint for Probe {
            fn begin_cycle(&mut self, cycle: u64, port: &mut InjectPort<'_>) {
                if self.idle(cycle) {
                    return;
                }
                for (router, p, vc) in QUEUES {
                    let capacity = port.capacity(router, p, vc);
                    let queued = port.queue_len(router, p, vc);
                    let injected = port.inject(router, p, flit(router as u64, 0, 1, 3, vc));
                    self.answers.push((capacity, queued, injected));
                }
            }
            fn deliver(&mut self, _: u64, _: &Flit) {}
            fn idle(&self, cycle: u64) -> bool {
                !self.probe || cycle > 0
            }
        }
        let mut fabric = latency1_row(4);
        fabric.set_shards(2).unwrap();
        let mut eps = [true, false].map(|probe| Probe {
            probe,
            answers: Vec::new(),
        });
        fabric.step_endpoints(&mut eps, 1);
        let answers = &eps[0].answers;
        assert_eq!(answers.len(), QUEUES.len(), "shard 0 probed at cycle 0");
        assert_eq!(answers[0], (Ok(INPUT_QUEUE_FLITS), Ok(0), Ok(())));
        for (&(router, port, vc), answer) in QUEUES.iter().zip(answers).skip(1) {
            let e = InjectError::QueueOutOfRange { router, port, vc };
            assert_eq!(
                *answer,
                (Err(e), Err(e), Err(e)),
                "({router}, {port}, {vc})"
            );
        }
        // Only the accepted flit was filed, and it crosses the row.
        assert_eq!(fabric.occupancy(), 1);
        assert_eq!(fabric.queue_len(0, 0, 0), 1);
        assert!(fabric.run_until_drained(100));
        let packets: Vec<u64> = fabric.delivered().iter().map(|(_, f)| f.packet).collect();
        assert_eq!(packets, [0]);
    }

    #[test]
    fn a_panicking_shard_window_fails_the_step_and_the_pool_joins() {
        use std::sync::mpsc;
        use std::time::Duration;
        // Two shards over a 4-router row: routers 0-1 step on the calling
        // thread (shard 0), routers 2-3 on the pool worker. A route
        // function failing at router `bad` panics inside one party's
        // window; the step must re-raise it rather than hang at the epoch
        // barrier, and dropping the fabric must still join the worker.
        // The fabric lives on a helper thread so a hang fails the test.
        for bad in [1usize, 3] {
            let (tx, rx) = mpsc::channel();
            let helper = std::thread::spawn(move || {
                let mut fabric = latency1_row(4);
                fabric.route = Box::new(move |f: &Flit, router: usize| {
                    assert!(router != bad, "route fails at router {bad}");
                    RouteDecision::keep(if f.dest as usize == router { 2 } else { 1 }, f)
                });
                fabric.set_shards(2).unwrap();
                fabric.inject(0, 0, flit(1, 0, 1, 3, 0)).unwrap();
                let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for _ in 0..50 {
                        fabric.step();
                    }
                }));
                let msg = match stepped {
                    Ok(()) => "no panic".to_string(),
                    Err(payload) => payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default(),
                };
                tx.send(msg).unwrap();
                drop(fabric);
                tx.send("dropped".to_string()).unwrap();
            });
            let wait = Duration::from_secs(10);
            let msg = rx.recv_timeout(wait).expect("the step hung");
            assert_eq!(msg, format!("route fails at router {bad}"));
            let dropped = rx.recv_timeout(wait).expect("dropping the fabric hung");
            assert_eq!(dropped, "dropped");
            helper.join().expect("helper thread finished cleanly");
        }
    }

    #[test]
    fn sharded_row_matches_reference_bit_for_bit() {
        for shards in [2usize, 3, 5, 8] {
            let mut sharded = latency1_row(8);
            sharded.set_shards(shards).unwrap();
            let mut reference = latency1_row(8);
            // A contending burst: every router sends two 2-flit packets
            // across the row, so arbitration, credit back-pressure, and
            // cut-through all cross the shard boundaries.
            let mut p = 0u64;
            for src in 0..8usize {
                for dest in [7u32, (src as u32 + 3) % 8] {
                    for i in 0..2u8 {
                        let fl = flit(p, i, 2, dest, (dest % 2) as u8);
                        assert_eq!(
                            sharded.inject(src, 0, fl).is_ok(),
                            reference.inject(src, 0, fl).is_ok(),
                        );
                    }
                    p += 1;
                }
            }
            for _ in 0..200 {
                sharded.step();
                reference.step_reference();
            }
            assert_eq!(sharded.cycle(), reference.cycle());
            assert_eq!(
                sharded.delivered(),
                reference.delivered(),
                "shards={shards}"
            );
            for r in 0..8 {
                for port in 0..3 {
                    assert_eq!(
                        sharded.link_traffic(r, port),
                        reference.link_traffic(r, port),
                        "link ({r}, {port}) counters diverged at shards={shards}"
                    );
                }
            }
            assert_eq!(sharded.occupancy(), 0, "burst must drain");
        }
    }

    #[test]
    fn credit_bound_row_matches_reference_bit_for_bit() {
        // Router 4's right link serializes one flit per 3 cycles, so the
        // queue behind it fills and the links into router 4 run out of
        // credits: the credit check decides grants and stall causes, both
        // inside a shard and across a shard boundary, where the sender's
        // count sees the downstream's pops only at the epoch epilogue.
        let run = |sharding: Option<(usize, Option<u64>)>| {
            let mut f = latency1_row(8);
            f.set_link_spec(
                4,
                1,
                LinkSpec {
                    latency: 2,
                    interval: 3,
                },
            );
            f.enable_telemetry(TelemetryConfig {
                epoch_cycles: 16,
                ..TelemetryConfig::default()
            });
            if let Some((shards, window)) = sharding {
                f.set_shards_with_lookahead(shards, window).unwrap();
            }
            let mut p = 0u64;
            for _ in 0..300 {
                let vc = (p % 2) as u8;
                if f.inject_capacity(0, 0, vc) >= 2 {
                    for i in 0..2u8 {
                        f.inject(0, 0, flit(p, i, 2, 7, vc)).unwrap();
                    }
                    p += 1;
                }
                match sharding {
                    Some(_) => f.step(),
                    None => f.step_reference(),
                }
            }
            match sharding {
                Some(_) => assert!(f.run_until_drained(10_000)),
                None => {
                    while f.occupancy() > 0 {
                        f.step_reference();
                    }
                }
            }
            f
        };
        let links = |f: &RouterFabric| {
            let tel = f.telemetry().expect("telemetry on");
            (0..8)
                .flat_map(|r| (0..3).map(move |port| (r, port)))
                .map(|(r, port)| {
                    let stalls = tel.stalls_for_link(r, port);
                    (f.link_traffic(r, port), stalls)
                })
                .collect::<Vec<_>>()
        };
        let reference = run(None);
        let starved: u64 = links(&reference)
            .iter()
            .map(|(_, s)| s.credit_starved)
            .sum();
        assert!(starved > 0, "the row must be credit-bound");
        for shards in [1usize, 2, 4] {
            for window in [Some(1u64), Some(3), None] {
                let f = run(Some((shards, window)));
                let at = format!("shards={shards} window={window:?}");
                assert_eq!(f.cycle(), reference.cycle(), "{at}");
                assert_eq!(f.delivered(), reference.delivered(), "{at}");
                assert_eq!(links(&f), links(&reference), "{at}");
            }
        }
    }
}
