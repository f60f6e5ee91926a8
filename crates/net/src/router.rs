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
//!   link books the flit on its shard's calendar wheel at the arrival
//!   cycle, where one landing releases the upstream credit and accepts
//!   the flit downstream — no per-link delay line, no serial replay;
//! - **occupied-input candidate lists**: route computation walks the
//!   non-empty input queues instead of every port × VC slot, and
//!   arbitration visits only the outputs those heads requested (plus
//!   outputs owned by a cut-through packet), in the same ascending
//!   output order as a full scan;
//! - **direct credit checks**: arbitration asks the downstream credit
//!   question itself, for exactly the (output, VC) pairs it visits, and
//!   stall classification asks the same question through the same check
//!   — the credit state cannot change while a cycle arbitrates, so no
//!   snapshot or probe table is needed;
//! - **occupied-front stall classification, recorded in place**: with
//!   telemetry on, each router walks an occupied-queue bitset and reads
//!   every front's target from a per-queue memo keyed by front version,
//!   so a head is routed once (shared with candidate filing) and a
//!   stalled front costs no slab read or route call on later cycles;
//!   each shard writes its own links' advances and stalls straight into
//!   the telemetry counters, so nothing is buffered or replayed;
//! - **allocation-free hot path**: the per-cycle buffers (candidates,
//!   departures) persist across cycles, so a steady-state step
//!   allocates nothing but, with telemetry on, each epoch's short list
//!   of per-shard recorders;
//! - an event fast-forward ([`RouterFabric::step_next_event`],
//!   [`RouterFabric::step_batched`]) that jumps the dead cycles between
//!   link-arrival events when no router has queued work — in-flight wire
//!   time is the dominant idle span on calibrated tori;
//! - **node endpoints inside the windows** ([`RouterFabric::step_endpoints`]):
//!   traffic sources that generate, inject and react to deliveries run in
//!   the shard owning their routers, at the top of every private cycle
//!   and at every ejection, so a reacting workload does not pin epochs to
//!   one cycle.
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
use std::sync::atomic::{AtomicU32, Ordering};

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
/// Queues are indexed flat (`port * vcs + vc`, the same rank the
/// candidate worklists and credit checks use). Queue `q` is a ring of
/// `alloc[q]` allocated entries occupying slots
/// `slots[off[q] .. off[q] + alloc[q]]` (rings never interleave). The
/// ring cursors — `head[q]`, `len[q]`, `cap[q]`, `alloc[q]` — are
/// themselves dense parallel arrays, so the hot per-queue questions a
/// saturated fabric asks thousands of times per cycle (front lookup for
/// candidate scans and maturity records, occupancy for credit checks)
/// walk small contiguous memory instead of chasing per-queue heap
/// blocks. Entries carry their arrival cycle next to the flit so
/// pipeline latency and queue occupancy stay decoupled: the router is
/// fully pipelined (one flit per cycle per output) with a fixed
/// traversal latency.
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
/// A route function must be a pure function of the flit's **routing
/// fields** — [`Flit::dest`], [`Flit::vc`], [`Flit::tag`] — and the
/// router id. The event-driven core routes a head from its scheduled
/// maturity record (which carries exactly those fields) rather than
/// re-reading the queue, so a function that keyed on `packet`, `index`
/// or `injected_at` would diverge between the event and reference
/// steppers (the `stepper_equivalence` tests would catch it).
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

/// One routed head flit's claim on an output port: the flat input index
/// (`port * vcs + vc`, the round-robin rank) plus the outgoing VC/tag
/// from its route decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Candidate {
    idx: u16,
    vc: u8,
    tag: u16,
}

/// A head front awaiting its pipeline-maturity cycle. Carries the
/// front's routing fields so filing it as a candidate needs no queue
/// access (the queues are the large, cache-cold part of a saturated
/// fabric); the version pins it to the exact front it was scheduled
/// for.
#[derive(Clone, Copy, Debug)]
struct MatureEntry {
    ready: u64,
    idx: u16,
    version: u32,
    dest: u32,
    tag: u16,
}

/// A queue front's resolved target: the output it waits on and the VC
/// it takes there — a head's route decision (with the outgoing tag
/// candidate filing needs), or a body flit's owned output. Valid while
/// `version` equals its queue's front version.
#[derive(Clone, Copy, Debug)]
struct FrontTarget {
    version: u32,
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
    /// Sorted output ports currently owned by a cut-through packet
    /// (the list form of `output_owner`, for the arbitration worklist).
    owned_outs: Vec<u16>,
    /// **Persistent** per-output candidate lists, sorted by flat input
    /// index: every queue whose current front is a head flit that has
    /// cleared the pipeline is filed here, from the cycle it matures
    /// until it departs. Maintained event-driven — on front changes and
    /// pipeline maturity — so steady-state cycles never rescan queues.
    out_cands: Vec<Vec<Candidate>>,
    /// Sorted outputs whose candidate list is non-empty (the candidate
    /// side of the arbitration worklist).
    cand_outs: Vec<u16>,
    /// Where each queue's front is currently filed: `out + 1`, or 0 when
    /// the front is not a candidate (body, immature, or empty).
    cand_out: Vec<u16>,
    /// Maturity calendar: slot `ready % len` holds the head fronts
    /// still traversing the router pipeline; drained each arbitrated
    /// cycle to file newly eligible candidates.
    mature_wheel: Vec<Vec<MatureEntry>>,
    /// Fronts revealed with their pipeline already cleared (a pop
    /// exposing an old arrival): filed at the next maturity drain,
    /// exactly when a full rescan would first see them.
    ripe: Vec<MatureEntry>,
    /// Last cycle whose maturity slots were drained.
    last_matured: u64,
    /// Merged (owner ∪ candidate) output worklist scratch.
    arb_outs: Vec<u16>,
    /// Queues this router popped during the current arbitration phase,
    /// as flat indices. The fabric drains this after every router has
    /// arbitrated and returns the credits then — credit return is
    /// uniformly visible one cycle later, never mid-arbitration, so a
    /// credit check cannot depend on router visit order (the invariant
    /// the sharded stepper rests on).
    popped: Vec<u16>,
    /// Flat per-queue cycle at which the current front flit clears the
    /// router pipeline (`u64::MAX` when the queue is empty).
    front_ready: Vec<u64>,
    /// Flat per-queue version, bumped whenever the front changes — the
    /// validity key of scheduled maturity entries and of `front_target`
    /// (a pop invalidates any pending filing of the popped front).
    front_version: Vec<u32>,
    /// Occupied-queue bitset, bit `port * vcs + vc` set while that
    /// queue holds a flit (kept by [`Self::accept`] and the pops), so
    /// stall classification walks the occupied fronts instead of every
    /// port × VC slot.
    occupied: Vec<u64>,
    /// Per-queue memo of the front's target, keyed by `front_version`
    /// and filled lazily: by stall classification for every front it
    /// meets, and by candidate filing for heads once the memo exists.
    /// A head is thus routed at most once whether telemetry is on or
    /// off, and a body front looks up its owned output once. Empty
    /// (allocating nothing) until telemetry first classifies.
    front_target: Vec<FrontTarget>,
    /// Per-cycle head-flit route snapshot (`[port * vcs + vc]`) used by
    /// the reference full-scan arbiter [`Self::tick`]; reused across
    /// ticks to avoid per-cycle allocation.
    decision_scratch: Vec<Option<(usize, u8, u16)>>,
}

impl CycleRouter {
    /// Creates a router with `ports` input/output ports, `vcs` VCs and a
    /// `pipeline`-cycle traversal latency.
    pub fn new(id: usize, ports: usize, vcs: usize, pipeline: u64) -> Self {
        assert!(
            ports * vcs <= u16::MAX as usize + 1,
            "flat (port, vc) index must fit the u16 worklists"
        );
        assert!(ports <= 256, "port index must fit the packed route memo");
        CycleRouter {
            id,
            store: FlitStore::new(ports * vcs),
            ports,
            output_owner: vec![None; ports],
            rr: vec![0; ports],
            pipeline,
            vcs,
            queued: 0,
            owned: 0,
            owned_outs: Vec::new(),
            out_cands: vec![Vec::new(); ports],
            cand_outs: Vec::new(),
            cand_out: vec![0; ports * vcs],
            mature_wheel: vec![Vec::new(); pipeline as usize + 1],
            ripe: Vec::new(),
            last_matured: 0,
            arb_outs: Vec::new(),
            popped: Vec::new(),
            front_ready: vec![u64::MAX; ports * vcs],
            front_version: vec![0; ports * vcs],
            occupied: vec![0; (ports * vcs).div_ceil(64)],
            front_target: Vec::new(),
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
    /// cursors, candidate worklists, the maturity wheel, the front
    /// mirrors (with the occupied-queue bitset and the front-target
    /// memo), and arbitration scratch. Capacity-based — what the
    /// allocator actually handed out.
    pub fn memory_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let (slab, cursors) = self.store.memory_bytes();
        let wheels = self.mature_wheel.capacity() * size_of::<Vec<MatureEntry>>()
            + self
                .mature_wheel
                .iter()
                .map(|s| s.capacity() * size_of::<MatureEntry>())
                .sum::<usize>()
            + self.ripe.capacity() * size_of::<MatureEntry>();
        let cands = self.out_cands.capacity() * size_of::<Vec<Candidate>>()
            + self
                .out_cands
                .iter()
                .map(|c| c.capacity() * size_of::<Candidate>())
                .sum::<usize>();
        let worklists = (self.owned_outs.capacity()
            + self.cand_outs.capacity()
            + self.cand_out.capacity()
            + self.arb_outs.capacity()
            + self.popped.capacity())
            * size_of::<u16>();
        let fronts = (self.front_ready.capacity() + self.occupied.capacity()) * size_of::<u64>()
            + self.front_version.capacity() * size_of::<u32>()
            + self.front_target.capacity() * size_of::<FrontTarget>();
        let state = cursors
            + wheels
            + cands
            + worklists
            + fronts
            + self.output_owner.capacity() * size_of::<Option<OutputOwner>>()
            + self.rr.capacity() * size_of::<usize>()
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

    /// Whether input `(port, vc)` can accept a flit this cycle.
    pub fn can_accept(&self, port: usize, vc: u8) -> bool {
        self.store.free_slots(port * self.vcs + vc as usize) > 0
    }

    /// Free slots on input `(port, vc)` — the upstream credit count.
    /// (The fabric's arbitration credit checks read its own cycle-stable
    /// credit mirror instead; see `RouterFabric::credit_view`.)
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
    /// [`Self::can_accept`], exactly as the upstream credit counter would.
    pub fn accept(&mut self, port: usize, vc: u8, flit: Flit, cycle: u64) {
        if self.is_idle() && cycle > self.last_matured {
            // Re-activation after an idle span: an idle router has no
            // live fronts, so any maturity entries still on the wheel or
            // ripe list are version-stale (dropped lazily whenever their
            // slot next drains). Jump the drain cursor across the gap
            // rather than growing the wheel or catching up slot by slot
            // — exactly the dead time the worklists exist to skip.
            self.last_matured = cycle;
        }
        let idx = port * self.vcs + vc as usize;
        if self.store.is_empty(idx) {
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.front_version[idx] = self.front_version[idx].wrapping_add(1);
            let ready = cycle + self.pipeline;
            self.front_ready[idx] = ready;
            if flit.is_head() {
                self.schedule_front(idx, ready, flit.dest, flit.tag);
            }
        }
        self.store.push(idx, flit, cycle);
        self.queued += 1;
    }

    /// Pops the front flit of input `(p, v)`, maintaining the queued
    /// total, the flat front mirrors, and the occupied-queue bitset.
    fn take_front(&mut self, p: usize, v: u8) -> Flit {
        let idx = p * self.vcs + v as usize;
        // A filed front that departs (or is popped by the reference
        // stepper) leaves the candidate lists immediately.
        let filed = self.cand_out[idx];
        if filed != 0 {
            let out = (filed - 1) as usize;
            let pos = self.out_cands[out]
                .binary_search_by_key(&(idx as u16), |c| c.idx)
                .expect("filed candidate must be listed");
            self.out_cands[out].remove(pos);
            if self.out_cands[out].is_empty() {
                let op = self
                    .cand_outs
                    .binary_search(&(out as u16))
                    .expect("non-empty candidate output must be listed");
                self.cand_outs.remove(op);
            }
            self.cand_out[idx] = 0;
        }
        let flit = self.store.pop(idx).expect("front exists");
        self.queued -= 1;
        self.popped.push(idx as u16);
        self.front_version[idx] = self.front_version[idx].wrapping_add(1);
        match self.store.front(idx) {
            Some(&(next, arrived)) => {
                let ready = arrived + self.pipeline;
                self.front_ready[idx] = ready;
                if next.is_head() {
                    self.schedule_front(idx, ready, next.dest, next.tag);
                }
            }
            None => {
                self.front_ready[idx] = u64::MAX;
                self.occupied[idx / 64] &= !(1 << (idx % 64));
            }
        }
        flit
    }

    /// Books the queue's newly revealed head front for candidate filing
    /// at `ready` (its pipeline-maturity cycle): on the maturity wheel
    /// for future cycles, or on the ripe list when the cycle has already
    /// been drained — either way it is filed exactly when a full rescan
    /// would first see it.
    fn schedule_front(&mut self, idx: usize, ready: u64, dest: u32, tag: u16) {
        self.dispatch(MatureEntry {
            ready,
            idx: idx as u16,
            version: self.front_version[idx],
            dest,
            tag,
        });
    }

    /// Places a maturity entry where the drain will find it at its ready
    /// cycle: the ripe list when already due, the wheel when within the
    /// drain cursor's horizon, and otherwise parked on the ripe list to
    /// be re-dispatched once the cursor advances (a long
    /// reference-stepped span can leave the cursor arbitrarily far
    /// behind; the wheel itself never grows).
    fn dispatch(&mut self, entry: MatureEntry) {
        if entry.ready <= self.last_matured {
            self.ripe.push(entry);
            return;
        }
        let w = self.mature_wheel.len() as u64;
        if entry.ready - self.last_matured >= w {
            self.ripe.push(entry);
            return;
        }
        self.mature_wheel[(entry.ready % w) as usize].push(entry);
    }

    /// Files one matured front as a candidate, unless its queue's front
    /// has changed since it was scheduled (`version` mismatch — e.g. the
    /// reference stepper popped it without touching the lists' source
    /// events).
    fn try_file(&mut self, entry: MatureEntry, route: &RouteFn) {
        let (idx, version) = (entry.idx, entry.version);
        let i = idx as usize;
        if self.front_version[i] != version {
            return;
        }
        debug_assert_eq!(self.cand_out[i], 0, "front filed twice");
        let v = i % self.vcs;
        #[cfg(debug_assertions)]
        {
            let &(head, _) = self.store.front(i).expect("scheduled front exists");
            debug_assert!(
                head.is_head() && head.dest == entry.dest && head.tag == entry.tag,
                "maturity record diverged from the queue front"
            );
        }
        // Route from the scheduled record — see the [`RouteFn`] purity
        // contract; the debug assertion above pins record == front —
        // unless stall classification already resolved this front.
        let rd = match self.front_target.get(i) {
            Some(t) if t.version == version => RouteDecision {
                port: t.out as usize,
                vc: t.out_vc,
                tag: t.tag,
            },
            _ => {
                let head = Flit {
                    packet: 0,
                    index: 0,
                    of: 1,
                    dest: entry.dest,
                    vc: v as u8,
                    tag: entry.tag,
                    injected_at: 0,
                };
                let rd = route(&head, self.id);
                if let Some(t) = self.front_target.get_mut(i) {
                    *t = FrontTarget {
                        version,
                        tag: rd.tag,
                        out: rd.port as u8,
                        out_vc: rd.vc,
                    };
                }
                rd
            }
        };
        let pos = self.out_cands[rd.port]
            .binary_search_by_key(&idx, |c| c.idx)
            .expect_err("front filed twice");
        if self.out_cands[rd.port].is_empty() {
            let op = self
                .cand_outs
                .binary_search(&(rd.port as u16))
                .expect_err("empty candidate output cannot be listed");
            self.cand_outs.insert(op, rd.port as u16);
        }
        self.out_cands[rd.port].insert(
            pos,
            Candidate {
                idx,
                vc: rd.vc,
                tag: rd.tag,
            },
        );
        self.cand_out[i] = rd.port as u16 + 1;
    }

    /// Drains one maturity slot at `now`, filing entries whose ready
    /// cycle has been reached and keeping the rest.
    fn drain_slot(&mut self, s: usize, now: u64, route: &RouteFn) {
        if self.mature_wheel[s].is_empty() {
            return;
        }
        let mut bucket = std::mem::take(&mut self.mature_wheel[s]);
        bucket.retain(|&entry| {
            if entry.ready <= now {
                self.try_file(entry, route);
                false
            } else {
                true
            }
        });
        self.mature_wheel[s] = bucket;
    }

    /// Completes one departure through `out`: pops the flit from input
    /// `(p, v)`, applies the outgoing VC/tag, and updates the cut-through
    /// ownership, round-robin pointer, and worklist bookkeeping. Shared
    /// by the reference arbiter ([`Self::tick`]) and the event-driven one
    /// ([`Self::arbitrate_into`]) so the two cannot drift.
    fn depart(&mut self, out: usize, p: usize, v: u8, out_vc: u8, out_tag: u16) -> Flit {
        let mut flit = self.take_front(p, v);
        flit.vc = out_vc;
        flit.tag = out_tag;
        let was_owned = self.output_owner[out].is_some();
        if flit.is_tail() {
            if was_owned {
                let pos = self
                    .owned_outs
                    .binary_search(&(out as u16))
                    .expect("owner must be on the owned-outs list");
                self.owned_outs.remove(pos);
            }
            self.output_owner[out] = None;
            self.rr[out] = (p * self.vcs + v as usize + 1) % (self.ports * self.vcs);
        } else {
            if !was_owned {
                let pos = self
                    .owned_outs
                    .binary_search(&(out as u16))
                    .expect_err("fresh owner cannot already be listed");
                self.owned_outs.insert(pos, out as u16);
            }
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

    /// Maturity phase of the event-driven arbiter: files every head
    /// front whose pipeline-ready cycle has arrived since the last
    /// drain, catching up over jumped or reference-stepped spans (the
    /// wheel entries carry absolute cycles and front versions, so late
    /// draining files exactly the fronts a full rescan would find).
    /// After this, the persistent candidate lists are current for
    /// `now`.
    pub(crate) fn mature(&mut self, now: u64, route: &RouteFn) {
        let w = self.mature_wheel.len() as u64;
        if now > self.last_matured {
            if now - self.last_matured >= w {
                for slot in 0..self.mature_wheel.len() {
                    self.drain_slot(slot, now, route);
                }
            } else {
                for c in self.last_matured + 1..=now {
                    self.drain_slot((c % w) as usize, now, route);
                }
            }
            self.last_matured = now;
        }
        if !self.ripe.is_empty() {
            let mut ripe = std::mem::take(&mut self.ripe);
            for &entry in &ripe {
                if entry.ready <= now {
                    self.try_file(entry, route);
                } else {
                    // Parked beyond the old horizon; the cursor has
                    // advanced, so this lands on the wheel (its ready
                    // is at most `now + pipeline`, within reach).
                    self.dispatch(entry);
                }
            }
            ripe.clear();
            if self.ripe.is_empty() {
                self.ripe = ripe; // keep the allocation
            }
        }
    }

    /// Event-driven arbitration over the outputs with filed candidates
    /// (plus owned outputs), pushing departures as `(router id, output,
    /// flit)` with the outgoing VC/tag applied. `out_live` reports
    /// whether an output's link can serialize this cycle (a dead output
    /// skips its candidates wholesale); `downstream_ok` answers the full
    /// departure question for `(output, outgoing vc)`, serialization and
    /// downstream credit, exactly as for [`Self::tick`]. Behaviorally
    /// identical to the reference [`Self::tick`]: same owner precedence,
    /// same round-robin order, same single read port per input queue —
    /// the `stepper_equivalence` tests pin this bit for bit.
    pub(crate) fn arbitrate_into(
        &mut self,
        cycle: u64,
        mut out_live: impl FnMut(usize) -> bool,
        mut downstream_ok: impl FnMut(usize, u8) -> bool,
        moves: &mut Vec<(usize, usize, Flit)>,
    ) {
        // Merge owned and candidate outputs ascending — the same output
        // order the reference full scan visits. Snapshot before any
        // departure: owners installed or cleared mid-cycle only affect
        // their own (already visited) output.
        let mut arb = std::mem::take(&mut self.arb_outs);
        arb.clear();
        let (mut oi, mut ti) = (0, 0);
        while oi < self.owned_outs.len() || ti < self.cand_outs.len() {
            let next = match (self.owned_outs.get(oi), self.cand_outs.get(ti)) {
                (Some(&a), Some(&b)) => {
                    oi += usize::from(a <= b);
                    ti += usize::from(b <= a);
                    a.min(b)
                }
                (Some(&a), None) => {
                    oi += 1;
                    a
                }
                (None, Some(&b)) => {
                    ti += 1;
                    b
                }
                (None, None) => unreachable!(),
            };
            arb.push(next);
        }
        for &arb_out in &arb {
            let out = arb_out as usize;
            // If an owner holds the output, it continues its packet;
            // otherwise round-robin over this output's candidates, which
            // have cleared the pipeline and routed here.
            let depart: Option<(usize, u8, u8, u16)> = match self.output_owner[out] {
                Some(o) => {
                    let oidx = o.in_port * self.vcs + o.in_vc as usize;
                    if self.front_ready[oidx] <= cycle && downstream_ok(out, o.out_vc) {
                        // Cut-through owners continue their own packet:
                        // sources must keep a packet's flits contiguous
                        // per (port, VC) — see [`RouterFabric::inject`].
                        debug_assert_eq!(
                            self.store.front(oidx).expect("ready front").0.packet,
                            o.packet,
                            "interleaved flits of two packets on one input VC"
                        );
                        Some((o.in_port, o.in_vc, o.out_vc, o.out_tag))
                    } else {
                        None
                    }
                }
                None if !out_live(out) => None, // link can't serialize: every check would fail
                None => {
                    let cands = &self.out_cands[out];
                    let start = cands.partition_point(|c| (c.idx as usize) < self.rr[out]);
                    let mut found = None;
                    for c in cands[start..].iter().chain(cands[..start].iter()) {
                        if downstream_ok(out, c.vc) {
                            let idx = c.idx as usize;
                            found = Some((idx / self.vcs, (idx % self.vcs) as u8, c.vc, c.tag));
                            break;
                        }
                    }
                    found
                }
            };
            if let Some((p, v, out_vc, out_tag)) = depart {
                let flit = self.depart(out, p, v, out_vc, out_tag);
                moves.push((self.id, out, flit));
            }
        }
        self.arb_outs = arb;
    }

    /// The output port (and outgoing VC) currently owned by input
    /// `(p, v)`'s in-flight packet, if any — the continuation target of
    /// a body flit at that queue's front.
    fn owner_output(&self, p: usize, v: u8) -> Option<(usize, u8)> {
        self.owned_outs.iter().find_map(|&out| {
            let o = self.output_owner[out as usize].expect("listed owner");
            (o.in_port == p && o.in_vc == v).then_some((out as usize, o.out_vc))
        })
    }

    /// Visits every occupied queue front in ascending flat-index order
    /// (the reference classifier's port × VC order) as `(output,
    /// outgoing VC, immature)`, where `immature` means the front is
    /// still inside the router pipeline at `cycle` — the per-front
    /// inputs of the epoch kernel's stall classification. Each front's
    /// target is resolved once and memoized by front version (a head
    /// routed, a body front's owned output looked up); later cycles read
    /// neither the flit slab nor the route function. A body front whose
    /// packet owns no output is skipped, as [`RouterFabric`]'s reference
    /// classifier skips it.
    pub(crate) fn for_each_front_target(
        &mut self,
        cycle: u64,
        route: &RouteFn,
        mut f: impl FnMut(usize, u8, bool),
    ) {
        if self.front_target.is_empty() {
            // Stale against every live front: versions only move forward.
            self.front_target = self
                .front_version
                .iter()
                .map(|&v| FrontTarget {
                    version: v.wrapping_sub(1),
                    tag: 0,
                    out: 0,
                    out_vc: 0,
                })
                .collect();
        }
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let version = self.front_version[i];
                if self.front_target[i].version != version {
                    let &(front, _) = self.store.front(i).expect("occupied queue has a front");
                    let (out, out_vc, tag) = if front.is_head() {
                        let d = route(&front, self.id);
                        (d.port, d.vc, d.tag)
                    } else {
                        match self.owner_output(i / self.vcs, (i % self.vcs) as u8) {
                            Some((out, out_vc)) => (out, out_vc, 0),
                            None => continue,
                        }
                    };
                    self.front_target[i] = FrontTarget {
                        version,
                        tag,
                        out: out as u8,
                        out_vc,
                    };
                }
                let t = self.front_target[i];
                f(t.out as usize, t.out_vc, self.front_ready[i] > cycle);
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
/// Credits are reserved at departure — queued plus in-flight flits never
/// exceed the 8-flit downstream queue, exactly as a hardware credit loop
/// sized to the round trip would behave.
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
/// reserved credits live in the fabric's flat `next_free` / `reserved`
/// arrays — they are the arbitration hot path, and a compact per-router
/// array is far cheaper to read than a stride through these (much
/// larger) channel records. Each flit in flight ([`Arrival`]) holds one
/// `reserved` credit on its link until it lands.
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

/// One booking on a shard's arrival wheel: a flit in flight on the link
/// leaving `router` through `port`, landing at the cycle of its wheel
/// slot (the destination comes from the wiring).
#[derive(Clone, Copy, Debug)]
struct Arrival {
    flit: Flit,
    router: u32,
    port: u8,
    /// Release the link's reserved credit (and, without `accept`, debit
    /// the boundary credit shadow, mirroring the remote accept).
    release: bool,
    /// Accept the flit into the downstream input queue.
    accept: bool,
}

// A saturated fabric keeps thousands of bookings live; keep them small.
const _: () = assert!(std::mem::size_of::<Arrival>() <= 40);

impl Arrival {
    /// The bookings of `flit` leaving `router` through `port`: one with
    /// both halves when the link stays inside a shard (`local`), else
    /// the release for the upstream shard's wheel and the accept for the
    /// downstream shard's — so each shard touches only its own routers.
    fn book(flit: Flit, router: usize, port: usize, local: bool) -> (Self, Option<Self>) {
        let release = Arrival {
            flit,
            router: router as u32,
            port: port as u8,
            release: true,
            accept: local,
        };
        let accept = Arrival {
            release: false,
            accept: true,
            ..release
        };
        (release, (!local).then_some(accept))
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
    /// [`CycleRouter::set_input_depth`]) is occupied or reserved, so the
    /// fabric is backpressuring the source. Transient: the same
    /// injection succeeds once the queue drains.
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
/// whole fabric). An injection debits the credit mirror, activates the
/// router and, while tracing, lists an `Inject` event.
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
    /// Every link's reservations, which an injection into a fed port
    /// must leave room for; `None` inside a shard window, where fed
    /// ports are out of reach (their upstream shard reserves in them).
    reserved: Option<&'a [Vec<u32>]>,
    credit_view: &'a [AtomicU32],
    queue_off: &'a [usize],
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

    /// Free credit slots an injection into `(router, port, vc)` may take
    /// now ([`RouterFabric::inject_capacity`]).
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
        let held = match (self.feeder[r][port], self.reserved) {
            (None, _) => 0,
            (Some((up, out)), Some(reserved)) => {
                reserved[up as usize][out as usize * d.vcs + vc as usize] as usize
            }
            (Some(_), None) => return Err(out_of_range),
        };
        Ok(d.free_slots(port, vc) - held)
    }

    /// Flits queued on input `(router, port, vc)`; the queue must be
    /// in the view ([`Self::capacity`] succeeds).
    pub fn queue_len(&self, router: usize, port: usize, vc: u8) -> usize {
        self.routers[router - self.lo].queue_len(port, vc)
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
                occupancy: self.queue_len(router, port, vc),
            });
        }
        let (cycle, r) = (self.cycle, router - self.lo);
        flit.injected_at = cycle;
        let d = &mut self.routers[r];
        d.accept(port, vc, flit, cycle);
        self.credit_view[self.queue_off[router] + port * d.vcs + vc as usize]
            .fetch_sub(1, Ordering::Relaxed);
        if !self.is_active[r] {
            self.is_active[r] = true;
            self.activated.push(router);
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

/// The region-partitioned lookahead stepper: the one module in the
/// crate allowed to use `unsafe` (the crate root denies it everywhere
/// else).
///
/// # Safety discipline
///
/// All unsafe here serves a single pattern: a per-epoch frame of raw
/// pointers into the fabric ([`StepShared`]) is shared with a
/// persistent worker pool, and every dereference falls into one of
/// four provably data-race-free classes:
///
/// 1. **Disjoint mutable rows.** The router index space is partitioned
///    into contiguous shard ranges (`bounds`); each shard turns a `*mut`
///    base into per-shard slices that never overlap another shard's.
///    Its scratch — arrival wheel, boundary outbox and output lists
///    included — is the one element of the per-shard scratch array at
///    its own index, and so is its [`Endpoint`], which reaches the
///    fabric only through an [`InjectPort`] built from the shard's own
///    router and activity rows: it injects into ports no link feeds,
///    whose queues, credit-mirror entries and (absent) reservations no
///    other shard touches. Links flatten in router order, so shard `s`
///    also owns the links `link_off[bounds[s]]..link_off[bounds[s + 1]]`,
///    and with them the same rows of telemetry's counters, which it
///    records into in place through element `s` of the epoch's recorder
///    array (split without unsafe code by `Telemetry::recorders`).
/// 2. **Epoch-wide read-only state** (wiring, feeder map, routing
///    closures, the sorted active list, offset tables, the boundary-slot
///    map).
/// 3. **Atomics** (the fabric-wide credit mirror — and each entry is
///    touched only by the shard owning its router during an epoch; the
///    atomics survive as the cheapest way to keep the aliasing legal).
/// 4. **Exclusive shadow slots.** Each boundary-credit shadow entry is
///    read and written only by the shard owning the *upstream* end of
///    its link, element-wise through a raw pointer.
///
/// There is exactly one [`SpinBarrier`] fence per multi-shard epoch:
/// shards run their whole private window with no synchronization (every
/// positive-latency link is at least one window long, so no cross-shard
/// effect can land inside it), then the single end-of-epoch fence
/// provides the acquire/release edge before the serial epilogue, which
/// alone moves boundary accepts from one shard's outbox onto another
/// shard's wheel.
/// The frame itself lives on the stepping thread's stack and is only
/// dereferenced between pool launch and that fence, which the stepping
/// thread also waits on. A panic inside a window does not skip the
/// fence: every party catches its own panic, records the first one in
/// the pool and waits, and the stepping thread re-raises that payload
/// only after the fence, so no worker is left spinning and no unwind
/// frees the frame under a running window. A one-shard fabric has no
/// pool: the stepping thread runs the window inline and is the frame's
/// only user, so its panics simply unwind.
#[allow(unsafe_code)]
mod shard {
    use super::*;
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize};
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
        /// Step grant: a bumped epoch plus the current [`StepShared`] frame
        /// as a raw address (the frame lives on the stepping thread's stack
        /// and stays valid until every party passes the final barrier).
        go: Mutex<(u64, usize)>,
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
        pub(super) fn new(shards: usize) -> Self {
            let ctl = Arc::new(PoolCtl {
                go: Mutex::new((0, 0)),
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
                                let frame = {
                                    let mut go = ctl.go.lock().expect("pool lock");
                                    loop {
                                        if ctl.stop.load(Ordering::Relaxed) {
                                            return;
                                        }
                                        if go.0 > seen {
                                            seen = go.0;
                                            break go.1;
                                        }
                                        go = ctl.cv.wait(go).expect("pool lock");
                                    }
                                };
                                // SAFETY: the launching thread keeps the
                                // frame alive until it passes the epoch
                                // barrier below, which cannot happen
                                // before this worker reaches it too —
                                // a panicking window included, since the
                                // panic is caught here and handed to the
                                // stepping thread to re-raise.
                                let window = catch_unwind(AssertUnwindSafe(|| unsafe {
                                    run_shard_epoch(&*(frame as *const StepShared), s);
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

        /// Publishes one epoch frame and wakes the workers. The caller
        /// must then run shard 0's window itself and wait on the epoch
        /// barrier, which holds it until every worker finishes.
        fn launch(&self, frame: &StepShared) {
            let mut go = self.ctl.go.lock().expect("pool lock");
            go.0 += 1;
            go.1 = frame as *const StepShared as usize;
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
        /// Accept halves of this window's boundary departures, as
        /// `(wheel slot, downstream router, booking)`, for the epilogue
        /// to move onto the downstream shard's wheel.
        outbox: Vec<(usize, usize, Arrival)>,
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
                + self.outbox.capacity() * size_of::<(usize, usize, Arrival)>()
                + (self.worklist.capacity() + self.incoming.capacity()) * size_of::<usize>()
                + self.moves.capacity() * size_of::<(usize, usize, Flit)>()
                + self.ejected.capacity() * size_of::<(u64, Flit)>()
                + self.hops.capacity() * size_of::<(u64, usize, usize, Flit)>()
                + self.injects.capacity() * size_of::<(u8, TraceEvent)>()
        }
    }

    /// One boundary link's constants for the epoch window clamp and the
    /// credit-shadow refresh: a router-to-router link whose two ends live
    /// in different shards.
    pub(super) struct BoundaryLink {
        /// Upstream router.
        pub(super) router: u32,
        /// Upstream output port.
        pub(super) port: u32,
        /// Flat `credit_view` offset of the downstream input queue's VC 0.
        pub(super) queue_base: u32,
        /// First shadow slot of this link (one per VC).
        pub(super) slot: u32,
        /// VC count of the link (upstream and downstream agree).
        pub(super) vcs: u32,
    }

    /// The lifetime-erased frame a lookahead epoch hands its workers: raw
    /// pointers into the fabric plus this window's inputs. Built on the
    /// stack of [`RouterFabric::step_epoch`] and dereferenced only
    /// between the pool launch and the end-of-epoch barrier, which the
    /// main thread also waits on before the frame goes out of scope —
    /// even when a window panics (see the module's safety discipline).
    ///
    /// # Safety discipline
    ///
    /// Mutable access is partitioned by the contiguous shard ranges in
    /// `bounds`: epoch code turns the `*mut` bases into **disjoint**
    /// per-shard slices (rows `bounds[s]..bounds[s + 1]` of `routers`,
    /// `channels`, `next_free`, `reserved`, `is_active`; element `s` of
    /// `scratch`, with the shard's arrival wheel, of `endpoints`, and of
    /// `recorders`, over links `link_off[bounds[s]]..link_off[bounds[s +
    /// 1]]` of telemetry's counters). Everything else
    /// is either read-only for the whole epoch (`wiring`, `feeder`, `route`,
    /// `classify`, the sorted active list, the offset tables, the
    /// boundary-slot map), atomic (`credit_view` — and each entry is only
    /// touched by its owning shard during the window), or an exclusive
    /// element-wise raw access (`shadow`: each slot belongs to the shard
    /// owning the upstream end of its boundary link).
    struct StepShared {
        /// First cycle of the window.
        cycle: u64,
        /// Window width: shards privately simulate `cycle..cycle + window`.
        window: u64,
        n_routers: usize,
        routers: *mut CycleRouter,
        channels: *mut Vec<ChannelState>,
        next_free: *mut Vec<u64>,
        reserved: *mut Vec<u32>,
        is_active: *mut bool,
        wiring: *const Vec<PortLink>,
        feeder: *const Vec<Option<(u32, u32)>>,
        bounds: *const usize,
        queue_off: *const usize,
        link_off: *const usize,
        credit_view: *const AtomicU32,
        credit_len: usize,
        /// Per-link first shadow slot (see `RouterFabric::boundary_slot`).
        boundary_slot: *const u32,
        boundary_len: usize,
        /// Boundary credit shadows, one slot per boundary `(link, vc)`.
        shadow: *mut u32,
        route: *const Box<RouteFn>,
        classify: *const Option<Box<FlitClassFn>>,
        /// One telemetry recorder per shard, over its own links
        /// ([`Telemetry::recorders`]); `None` when telemetry is off.
        recorders: Option<*mut LinkRecorder<'static>>,
        /// Whether any flit was in flight when the epoch started; if not,
        /// nothing lands inside the window.
        in_flight: bool,
        active_sorted: *const usize,
        active_len: usize,
        scratch: *mut ShardScratch,
        /// One endpoint per shard ([`RouterFabric::step_endpoints`]), or
        /// null when the epoch runs none.
        endpoints: *mut &'static mut dyn Endpoint,
    }

    // SAFETY: see the struct-level safety discipline — the raw pointers are
    // only ever turned into disjoint mutable slices or elements (by shard),
    // shared read-only slices, or atomics.
    unsafe impl Send for StepShared {}
    unsafe impl Sync for StepShared {}

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
    /// Credit checks against remote downstream queues, for arbitration
    /// and stall classification alike, read the per-boundary credit
    /// shadow, which the window clamp keeps bit-exact (see
    /// [`RouterFabric::step_epoch`]).
    ///
    /// # Safety
    /// `sh` must be a live frame built by `step_epoch`, `s` a valid
    /// shard index used by exactly one party.
    unsafe fn run_shard_epoch(sh: &StepShared, s: usize) {
        let lo = *sh.bounds.add(s);
        let hi = *sh.bounds.add(s + 1);
        let routers = std::slice::from_raw_parts_mut(sh.routers.add(lo), hi - lo);
        let channels = std::slice::from_raw_parts_mut(sh.channels.add(lo), hi - lo);
        let next_free = std::slice::from_raw_parts_mut(sh.next_free.add(lo), hi - lo);
        let reserved = std::slice::from_raw_parts_mut(sh.reserved.add(lo), hi - lo);
        let is_active = std::slice::from_raw_parts_mut(sh.is_active.add(lo), hi - lo);
        let wiring = std::slice::from_raw_parts(sh.wiring, sh.n_routers);
        let feeder = std::slice::from_raw_parts(sh.feeder.add(lo), hi - lo);
        let queue_off = std::slice::from_raw_parts(sh.queue_off, sh.n_routers + 1);
        let link_off = std::slice::from_raw_parts(sh.link_off, sh.n_routers + 1);
        let credit_view = std::slice::from_raw_parts(sh.credit_view, sh.credit_len);
        let boundary_slot = std::slice::from_raw_parts(sh.boundary_slot, sh.boundary_len);
        let shadow_ptr = sh.shadow;
        let route: &RouteFn = (*sh.route).as_ref();
        let classify = (*sh.classify).as_deref();
        let active = std::slice::from_raw_parts(sh.active_sorted, sh.active_len);
        let scratch = &mut *sh.scratch.add(s);
        // SAFETY: element `s` of the recorder array is this shard's alone,
        // over its own links (class 1), and lives until the epoch ends.
        let mut rec = sh.recorders.map(|recs| &mut *recs.add(s));
        // SAFETY: element `s` of the endpoint array is this shard's alone
        // (class 1), and lives until the epoch ends.
        let mut endpoint = (!sh.endpoints.is_null()).then(|| &mut **sh.endpoints.add(s));
        let tracing = rec.as_ref().is_some_and(|r| r.trace);
        (scratch.sent, scratch.landed, scratch.last_move) = (0, 0, 0);
        let t0 = sh.cycle;
        let tend = t0 + sh.window;

        // Epoch-start worklist: the fabric's sorted active list restricted
        // to this shard's contiguous range.
        let a = active.partition_point(|&r| r < lo);
        let b = active.partition_point(|&r| r < hi);
        scratch.worklist.clear();
        scratch.worklist.extend_from_slice(&active[a..b]);

        let wheel_len = scratch.wheel.len() as u64;
        let mut cycle = t0;
        while cycle < tend {
            // The endpoint stage, ahead of the landings: the view reaches
            // only this shard's routers, and only their injection ports —
            // a port a link feeds may hold another shard's reservations.
            if let Some(ep) = endpoint.as_deref_mut() {
                let mut port = InjectPort {
                    cycle,
                    lo,
                    n_routers: sh.n_routers,
                    routers: &mut *routers,
                    is_active: &mut *is_active,
                    activated: &mut scratch.incoming,
                    feeder,
                    reserved: None,
                    credit_view,
                    queue_off,
                    trace: tracing.then_some(&mut scratch.injects),
                    rank: 0,
                };
                ep.begin_cycle(cycle, &mut port);
            }
            // Land this cycle's wheel slot. A release whose accept is
            // another shard's debits the credit shadow, mirroring that
            // remote accept. Departures book at least one window out, so
            // the slot cannot grow while it lands.
            let slot = (cycle % wheel_len) as usize;
            if !scratch.wheel[slot].is_empty() {
                let mut bucket = std::mem::take(&mut scratch.wheel[slot]);
                for a in &bucket {
                    let (r, port, vc) = (a.router as usize, a.port as usize, a.flit.vc);
                    if a.release {
                        let vcs = routers[r - lo].vcs;
                        reserved[r - lo][port * vcs + vc as usize] -= 1;
                        if !a.accept {
                            // SAFETY: the link leaves this shard, which
                            // owns its shadow slots.
                            let bslot = boundary_slot[link_off[r] + port] as usize;
                            *shadow_ptr.add(bslot + vc as usize) -= 1;
                        }
                    }
                    if a.accept {
                        let PortLink::Router { router, port } = wiring[r][port] else {
                            unreachable!("only router links have flits in flight");
                        };
                        let d = &mut routers[router - lo];
                        d.accept(port, vc, a.flit, cycle);
                        credit_view[queue_off[router] + port * d.vcs + vc as usize]
                            .fetch_sub(1, Ordering::Relaxed);
                        if !is_active[router - lo] {
                            is_active[router - lo] = true;
                            scratch.incoming.push(router);
                        }
                        scratch.landed += 1;
                    }
                }
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
                if !sh.in_flight && endpoint.as_deref().is_none_or(|ep| ep.idle(cycle + 1)) {
                    break;
                }
                cycle += 1;
                continue;
            }

            // The downstream-credit half of a departure check for router
            // `r`'s output `out` on VC `vc` (`vcs` is `r`'s VC count, the
            // stride of its `reserved` row): the credit mirror when the
            // downstream queue is in this shard, the boundary shadow when
            // it is not. Arbitration and stall classification both ask
            // here; nothing it reads changes while a cycle arbitrates.
            let has_credit = |r: usize, vcs: usize, out: usize, vc: u8| match wiring[r][out] {
                PortLink::Router { router: dst, port } => {
                    let credit = if (lo..hi).contains(&dst) {
                        credit_view[queue_off[dst] + port * vcs + vc as usize]
                            .load(Ordering::Relaxed)
                    } else {
                        let bslot = boundary_slot[link_off[r] + out];
                        // SAFETY: `partition` gave each link leaving this
                        // shard its own slots, owned by this shard.
                        unsafe { *shadow_ptr.add(bslot as usize + vc as usize) }
                    };
                    reserved[r - lo][out * vcs + vc as usize] < credit
                }
                PortLink::Endpoint(_) => true,
                PortLink::Unused => false,
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
                router.mature(cycle, route);
                let vcs = router.vcs;
                let next_free_r = &next_free[r - lo];
                router.arbitrate_into(
                    cycle,
                    |out| next_free_r[out] <= cycle,
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
                // occupied front against the same private-cycle state
                // arbitration read, into the shard's own counters — the
                // epoch mirror of `telemetry_record`, fed per front by
                // `for_each_front_target` (targets resolved once per
                // front, only occupied queues visited).
                for &(r, out, ref flit) in &scratch.moves {
                    rec.advance(cycle, link_off[r] + out);
                    if rec.trace
                        && flit.is_head()
                        && matches!(wiring[r][out], PortLink::Router { .. })
                    {
                        scratch.hops.push((cycle, r, out, *flit));
                    }
                }
                for &r in &scratch.worklist {
                    let router = &mut routers[r - lo];
                    let vcs = router.vcs;
                    let next_free_r = &next_free[r - lo];
                    router.for_each_front_target(cycle, route, |out, out_vc, immature| {
                        let link = link_off[r] + out;
                        let cause = StallCause::of(
                            immature,
                            rec.advanced_on(cycle, link),
                            next_free_r[out] > cycle,
                            || !has_credit(r, vcs, out, out_vc),
                        );
                        rec.stall(cycle, link, out_vc, cause);
                    });
                }
            }

            // Apply: departures enter their links. Every booking lands at
            // or beyond the epoch barrier (no positive link latency is
            // shorter than the window): a hop inside the shard books one
            // entry on the shard's wheel, a boundary hop books its release
            // there and its accept in the outbox. Zero-latency hops land
            // in-shard and ejections deliver, this cycle.
            for (r, out, flit) in scratch.moves.drain(..) {
                debug_assert!(lo <= r && r < hi, "move escaped its shard");
                let class = classify.map(|f| f(&flit));
                let vcs = routers[r - lo].vcs;
                let ch = &mut channels[r - lo][out];
                next_free[r - lo][out] = cycle + ch.spec.interval;
                ch.flits_sent += 1;
                ch.packets_sent += u64::from(flit.is_tail());
                if let Some(c) = class {
                    ch.class_flits[c] += 1;
                }
                let spec = ch.spec;
                match wiring[r][out] {
                    PortLink::Router {
                        router: dst,
                        port: dport,
                    } if spec.latency == 0 => {
                        // Flight folds into the downstream pipeline.
                        assert!(lo <= dst && dst < hi, "zero-latency link left its shard");
                        let d = &mut routers[dst - lo];
                        d.accept(dport, flit.vc, flit, cycle);
                        credit_view[queue_off[dst] + dport * d.vcs + flit.vc as usize]
                            .fetch_sub(1, Ordering::Relaxed);
                        if !is_active[dst - lo] {
                            is_active[dst - lo] = true;
                            scratch.incoming.push(dst);
                        }
                    }
                    PortLink::Router { router: dst, .. } => {
                        reserved[r - lo][out * vcs + flit.vc as usize] += 1;
                        debug_assert!(spec.latency < wheel_len, "arrival beyond the wheel");
                        debug_assert!(cycle + spec.latency >= tend, "booking inside the window");
                        let slot = ((cycle + spec.latency) % wheel_len) as usize;
                        let (own, remote) = Arrival::book(flit, r, out, lo <= dst && dst < hi);
                        scratch.wheel[slot].push(own);
                        scratch.outbox.extend(remote.map(|a| (slot, dst, a)));
                        scratch.sent += 1;
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

            // Credit returns, uniformly visible one private cycle later —
            // only routers that arbitrated can have parked credits.
            for &r in &scratch.worklist {
                let router = &mut routers[r - lo];
                for &idx in &router.popped {
                    credit_view[queue_off[r] + idx as usize].fetch_add(1, Ordering::Relaxed);
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
        /// (cycle, ascending router) order, and it moves the window's
        /// boundary accepts onto their downstream wheels.
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
        /// - per boundary `(link, vc)`: `(headroom - 1) * interval + 1`
        ///   cycles, where `headroom` is the downstream queue's free
        ///   credits minus the upstream's in-flight reservations at the
        ///   epoch start. A link serializes at most one flit per
        ///   `interval` cycles, so within that window the upstream shard
        ///   cannot send enough flits for its private credit shadow
        ///   (which misses the downstream's mid-window credit *returns*,
        ///   never its debits) to disagree with the serial credit loop —
        ///   credit checks, grants, and stall causes stay bit-exact.
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

            // ---- Window selection + boundary credit-shadow refresh ----
            let mut w = (limit - t0).min(self.min_pos_latency);
            if let Some(cap) = self.lookahead_cap {
                w = w.min(cap);
            }
            if let Some(tel) = self.telemetry.as_deref() {
                let len = tel.epoch_cycles();
                w = w.min(len - t0 % len);
            }
            for b in &self.boundary {
                let interval = self.channels[b.router as usize][b.port as usize]
                    .spec
                    .interval
                    .max(1);
                for vc in 0..b.vcs {
                    let credit = self.credit_view[b.queue_base as usize + vc as usize]
                        .load(Ordering::Relaxed);
                    let held = self.reserved[b.router as usize]
                        [b.port as usize * b.vcs as usize + vc as usize];
                    let headroom = u64::from(credit.saturating_sub(held));
                    let safe = if headroom >= 1 {
                        (headroom - 1) * interval + 1
                    } else {
                        1
                    };
                    w = w.min(safe);
                    self.shadow[(b.slot + vc) as usize] = credit;
                }
            }
            let w = w.max(1);

            // ---- Private windows: inline, or one launch + one barrier ----
            let shards = self.bounds.len() - 1;
            {
                // Each shard records into its own links' telemetry rows.
                let ends = self.bounds[1..].iter().map(|&b| self.link_off[b]);
                let tel = self.telemetry.as_deref_mut();
                let mut recorders: Option<Vec<_>> = tel.map(|t| t.recorders(ends).collect());
                let frame = StepShared {
                    cycle: t0,
                    window: w,
                    n_routers: self.routers.len(),
                    routers: self.routers.as_mut_ptr(),
                    channels: self.channels.as_mut_ptr(),
                    next_free: self.next_free.as_mut_ptr(),
                    reserved: self.reserved.as_mut_ptr(),
                    is_active: self.is_active.as_mut_ptr(),
                    wiring: self.wiring.as_ptr(),
                    feeder: self.feeder.as_ptr(),
                    bounds: self.bounds.as_ptr(),
                    queue_off: self.queue_off.as_ptr(),
                    link_off: self.link_off.as_ptr(),
                    credit_view: self.credit_view.as_ptr(),
                    credit_len: self.credit_view.len(),
                    boundary_slot: self.boundary_slot.as_ptr(),
                    boundary_len: self.boundary_slot.len(),
                    shadow: self.shadow.as_mut_ptr(),
                    route: &self.route,
                    classify: &self.classify,
                    recorders: recorders.as_mut().map(|r| r.as_mut_ptr().cast()),
                    in_flight: self.in_flight_total > 0,
                    active_sorted: self.active.as_ptr(),
                    active_len: self.active.len(),
                    scratch: self.shard_scratch.as_mut_ptr(),
                    endpoints: if endpoints.is_empty() {
                        std::ptr::null_mut()
                    } else {
                        endpoints.as_mut_ptr().cast()
                    },
                };
                match &self.pool {
                    Some(pool) => {
                        pool.launch(&frame);
                        // SAFETY: the frame stays on this stack until every
                        // party — including this thread, as shard 0 —
                        // passes the epoch barrier, after which no worker
                        // touches it. Shard 0's own panic is caught too and
                        // re-raised only past the barrier, so unwinding
                        // never frees the frame under a running worker.
                        let window = catch_unwind(AssertUnwindSafe(|| unsafe {
                            run_shard_epoch(&frame, 0)
                        }));
                        if let Err(payload) = window {
                            pool.ctl.record_panic(payload);
                        }
                        pool.ctl.barrier.wait();
                        self.sync_ops += 2;
                        if let Some(payload) = pool.ctl.panic.lock().expect("pool lock").take() {
                            resume_unwind(payload);
                        }
                    }
                    // SAFETY: one shard and no workers: this thread is the
                    // frame's only party, for as long as the frame lives.
                    None => unsafe { run_shard_epoch(&frame, 0) },
                }
            }
            self.epochs += 1;

            // ---- Serial epilogue: outputs in the reference order ----
            // Shards own ascending router ranges and list their deliveries
            // and hops by cycle, then router, so appending the lists in
            // shard order and sorting them stably by cycle gives the
            // reference stepper's (cycle, ascending router) order. The
            // surviving actives come out ascending too, and boundary
            // accepts go onto their downstream shard's wheel.
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
                let mut outbox = std::mem::take(&mut sc.outbox);
                for (slot, dst, a) in outbox.drain(..) {
                    let d = self.shard_of(dst);
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
    /// cursors, candidate worklists, maturity wheels, and scratch.
    pub routers: usize,
    /// Links: wiring, channel specs and counters, link timers,
    /// reserved-credit mirrors, and each input port's feeding link.
    pub links: usize,
    /// The fabric-wide atomic credit mirror plus its queue offsets.
    pub credit_view: usize,
    /// Fabric scheduling: active worklists, shard scratch (the per-shard
    /// arrival wheels holding every flit in link flight, boundary
    /// outboxes and departure buffers), and the delivery log.
    pub scheduling: usize,
    /// Telemetry counters, epoch rings, and trace buffer (0 when off).
    pub telemetry: usize,
}

impl MemoryBreakdown {
    /// Total bytes across all buckets.
    pub fn total(&self) -> usize {
        self.flit_slabs
            + self.routers
            + self.links
            + self.credit_view
            + self.scheduling
            + self.telemetry
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
    /// `reserved[router][output_port * vcs + vc]`: downstream credits
    /// reserved by flits in flight on each link.
    reserved: Vec<Vec<u32>>,
    /// `feeder[router][input_port]`: the link `(upstream router, output
    /// port)` landing on each input port, if any — the reservations an
    /// injection into that port must leave room for.
    feeder: Vec<Vec<Option<(u32, u32)>>>,
    /// Flat start offset of each router's queues in [`Self::credit_view`]
    /// (prefix sums of `ports * vcs`).
    queue_off: Vec<usize>,
    /// The fabric-wide credit mirror: free slots per input queue, flat
    /// across routers (`credit_view[queue_off[r] + port * vcs + vc]`).
    ///
    /// This is what arbitration's downstream-credit checks read, and it
    /// is **cycle-start stable**: accepts (link landings, injections)
    /// decrement it, but a departure's credit return is parked on the
    /// router's `popped` list and applied only after every router has
    /// arbitrated. Credit return is thus uniformly visible one cycle
    /// later — matching the hardware credit loop, where a credit rides
    /// the reverse channel and can never beat the grant that freed it —
    /// instead of leaking mid-cycle to routers that happened to
    /// arbitrate later in the scan order. That uniformity is also what
    /// lets [`Self::set_shards`] arbitrate regions concurrently: checks
    /// see the same credits no matter which thread (or order) asks.
    /// Atomic so shard workers can read any entry while each mutates
    /// only its own routers' entries; the reference stepper uses plain
    /// load/store orderings on the same array.
    credit_view: Vec<AtomicU32>,
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
    /// boundary outbox and the deliveries and hops the epilogue orders.
    shard_scratch: Vec<ShardScratch>,
    /// Every router-to-router link whose ends live in different shards,
    /// in ascending link order (empty with one shard). Drives the epoch
    /// window's credit-headroom clamp and the shadow refresh.
    boundary: Vec<shard::BoundaryLink>,
    /// Per-link first shadow slot, parallel to the flat link index space
    /// (`u32::MAX` for links inside a shard; empty when every link is).
    boundary_slot: Vec<u32>,
    /// Boundary credit shadows, one slot per boundary `(link, vc)`:
    /// refreshed from `credit_view` at each epoch prologue, debited by
    /// the owning upstream shard at its flits' private arrival cycles,
    /// and read only by that shard's credit checks — the window clamp
    /// keeps it bit-exact against the serial credit loop.
    shadow: Vec<u32>,
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
                        "connected routers must share a VC count (the flat \
                         credit arrays use one stride per row)"
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
        let reserved = wiring
            .iter()
            .enumerate()
            .map(|(r, row)| vec![0; row.len() * routers[r].vcs])
            .collect();
        let n = routers.len();
        let mut queue_off = Vec::with_capacity(n + 1);
        let mut off = 0usize;
        for r in &routers {
            queue_off.push(off);
            off += r.ports * r.vcs;
        }
        queue_off.push(off);
        let mut credit_view = Vec::with_capacity(off);
        for r in &routers {
            for q in 0..r.ports * r.vcs {
                credit_view.push(AtomicU32::new(r.store.capacity(q) as u32));
            }
        }
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
            reserved,
            feeder,
            queue_off,
            credit_view,
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
            boundary_slot: Vec::new(),
            shadow: Vec::new(),
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
            + self.reserved.capacity() * size_of::<Vec<u32>>()
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
        for row in &self.reserved {
            b.links += row.capacity() * size_of::<u32>();
        }
        for row in &self.feeder {
            b.links += row.capacity() * size_of::<Option<(u32, u32)>>();
        }
        b.credit_view = self.credit_view.capacity() * size_of::<AtomicU32>()
            + self.queue_off.capacity() * size_of::<usize>();
        b.scheduling = (self.active.capacity() + self.bounds.capacity()) * size_of::<usize>()
            + self.is_active.capacity()
            + self.delivered.capacity() * size_of::<(u64, Flit)>()
            + self.boundary.capacity() * size_of::<shard::BoundaryLink>()
            + self.boundary_slot.capacity() * size_of::<u32>()
            + self.shadow.capacity() * size_of::<u32>()
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
    /// [`CycleRouter::set_input_depth`]. A setup-time operation: credits
    /// already reserved by flits in flight on the feeding link would
    /// outlive a shrink and overflow the smaller queue, so resizing a
    /// port whose link has traffic in flight is rejected.
    ///
    /// # Panics
    /// Panics if the feeding link has flits in flight, or if the port
    /// already holds more flits than `depth`.
    pub fn set_input_depth(&mut self, router: usize, port: usize, depth: usize) {
        // Skip the feeding link's cache-cold reservations when nothing is
        // in flight anywhere — always so on the construction path, where
        // a torus fabric resizes every neighbor port.
        let feeding = self.feeder[router][port].filter(|_| self.in_flight_total > 0);
        if let Some((r, out)) = feeding {
            assert_eq!(
                self.in_flight_on(r as usize, out as usize),
                0,
                "cannot resize input ({router}, {port}): feeding link has flits in flight holding reserved credits"
            );
        }
        self.routers[router].set_input_depth(port, depth);
        let vcs = self.routers[router].vcs;
        for v in 0..vcs {
            let free = self.routers[router].free_slots(port, v as u8) as u32;
            self.credit_view[self.queue_off[router] + port * vcs + v]
                .store(free, Ordering::Relaxed);
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

    /// Flits in flight on the link leaving `router` via `port`: each
    /// holds exactly one of the link's reserved credits until it lands.
    fn in_flight_on(&self, router: usize, port: usize) -> usize {
        let vcs = self.routers[router].vcs;
        self.reserved[router][port * vcs..(port + 1) * vcs]
            .iter()
            .map(|&held| held as usize)
            .sum()
    }

    /// Instantaneous occupancy of the link leaving `router` via `port`:
    /// flits in flight on the link (counted from its reserved credits)
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

    /// Free credit slots on input `(router, port, vc)` that no flit in
    /// flight toward it has reserved — how many flits [`Self::inject`]
    /// accepts there now, so sources can check room for a whole packet
    /// before injecting any flit.
    ///
    /// # Panics
    /// Panics if the queue does not exist (see
    /// [`InjectError::QueueOutOfRange`]).
    pub fn inject_capacity(&self, router: usize, port: usize, vc: u8) -> usize {
        let held = self.feeder[router][port].map_or(0, |(r, out)| {
            let vcs = self.routers[router].vcs;
            self.reserved[r as usize][out as usize * vcs + vc as usize] as usize
        });
        self.routers[router].free_slots(port, vc) - held
    }

    /// Flits currently queued on input `(router, port, vc)`.
    pub fn queue_len(&self, router: usize, port: usize, vc: u8) -> usize {
        self.routers[router].queue_len(port, vc)
    }

    /// Injects a flit into input `(router, port, flit.vc)` if a credit
    /// is available: a free slot that no flit in flight on the link
    /// landing there has reserved ([`Self::inject_capacity`]).
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
            reserved: Some(&self.reserved),
            credit_view: &self.credit_view,
            queue_off: &self.queue_off,
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

    /// Files `flit` into input `(router, port, flit.vc)` at `cycle`,
    /// debiting the credit mirror and putting the router on the active
    /// worklist. The caller has checked the credit.
    fn file(&mut self, router: usize, port: usize, flit: Flit, cycle: u64) {
        self.routers[router].accept(port, flit.vc, flit, cycle);
        let vcs = self.routers[router].vcs;
        self.credit_view[self.queue_off[router] + port * vcs + flit.vc as usize]
            .fetch_sub(1, Ordering::Relaxed);
        if !self.is_active[router] {
            self.is_active[router] = true;
            self.active.push(router);
        }
    }

    /// Phase 1 of a reference step: every shard's wheel slot for this
    /// cycle lands — releases free their links' reserved credits, and
    /// accepts enter their downstream queues. The credit shadows are the
    /// kernel's alone, refreshed at every epoch, so this leaves them be.
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
                let (r, port, vc) = (a.router as usize, a.port as usize, a.flit.vc);
                if a.release {
                    let vcs = self.routers[r].vcs;
                    self.reserved[r][port * vcs + vc as usize] -= 1;
                }
                if a.accept {
                    let PortLink::Router { router, port } = self.wiring[r][port] else {
                        unreachable!("only router links have flits in flight");
                    };
                    self.file(router, port, a.flit, cycle);
                    self.in_flight_total -= 1;
                }
            }
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
                PortLink::Router { router, port } if spec.latency == 0 => {
                    // Link flight is folded into the downstream pipeline
                    // constant (the paper's per-hop cycle counts are
                    // inclusive), so arrival lands this cycle.
                    self.file(router, port, flit, cycle);
                }
                PortLink::Router { router, .. } => {
                    // The kernel's bookings, so the steppers interleave.
                    let vcs = self.routers[r].vcs;
                    self.reserved[r][out * vcs + flit.vc as usize] += 1;
                    let w = self.wheel_len();
                    let slot = ((cycle + spec.latency) % w) as usize;
                    debug_assert!(spec.latency < w, "arrival beyond the wheel");
                    let (src, dst) = (self.shard_of(r), self.shard_of(router));
                    let (own, remote) = Arrival::book(flit, r, out, src == dst);
                    self.shard_scratch[src].wheel[slot].push(own);
                    self.shard_scratch[dst].wheel[slot].extend(remote);
                    self.in_flight_total += 1;
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
    /// (`next_free`) and credit reservations (`reserved`) still hold
    /// the state this cycle's arbitration read. Each departure marks
    /// its link's advance cycle (and traces a head's hop); every
    /// occupied queue front is then classified into a [`StallCause`]
    /// against that same state. Purely observational — nothing here
    /// mutates fabric state, so telemetry cannot perturb the run.
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
                    let starved = || match self.wiring[r][out] {
                        PortLink::Router {
                            router: dst,
                            port: dport,
                        } => {
                            self.reserved[r][out * vcs + out_vc as usize]
                                >= self.credit_view
                                    [self.queue_off[dst] + dport * vcs + out_vc as usize]
                                    .load(Ordering::Relaxed)
                        }
                        // Ejection links never lack credits; nothing is
                        // ever granted toward an unused port.
                        PortLink::Endpoint(_) => false,
                        PortLink::Unused => true,
                    };
                    let link = self.link_off[r] + out;
                    let cause = StallCause::of(
                        arrived + router.pipeline > cycle,
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
    /// stepper: the pre-worklist full scan over every router, snapshotting
    /// downstream credits for all ports × VCs and arbitrating via
    /// [`CycleRouter::tick`]. Kept as the executable specification of
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

        // Full-scan arbitration with a fresh credit snapshot per router —
        // deliberately naive; this is the spec, not the fast path.
        let mut scratch: Vec<bool> = Vec::new();
        let mut moves: Vec<(usize, usize, Flit)> = Vec::new();
        for r in 0..self.routers.len() {
            if self.routers[r].is_idle() {
                continue;
            }
            let vcs = self.routers[r].vcs;
            scratch.clear();
            scratch.resize(self.wiring[r].len() * vcs, false);
            for (out, link) in self.wiring[r].iter().enumerate() {
                let serializable = self.next_free[r][out] <= cycle;
                match link {
                    PortLink::Router { router, port } => {
                        for vc in 0..vcs {
                            scratch[out * vcs + vc] = serializable
                                && (self.reserved[r][out * vcs + vc] as usize)
                                    < self.credit_view[self.queue_off[*router] + port * vcs + vc]
                                        .load(Ordering::Relaxed)
                                        as usize;
                        }
                    }
                    PortLink::Endpoint(_) => {
                        for vc in 0..vcs {
                            scratch[out * vcs + vc] = serializable;
                        }
                    }
                    PortLink::Unused => {} // input-only: never a departure target
                }
            }
            let sent = self.routers[r].tick(cycle, &*self.route, |out, vc| {
                scratch[out * vcs + vc as usize]
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

    /// Applies the credits parked by router `r`'s departures this cycle
    /// (its drained `popped` list) to the credit mirror — the reference
    /// stepper's uniform end-of-cycle credit return.
    fn return_credits(&mut self, r: usize) {
        let off = self.queue_off[r];
        for idx in self.routers[r].popped.drain(..) {
            self.credit_view[off + idx as usize].fetch_add(1, Ordering::Relaxed);
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
    /// count and every window: the cycle-start-stable credit mirror
    /// makes arbitration outcomes independent of router visit order,
    /// link latency ≥ 1 bounds the epoch window so no departure can
    /// land inside its own window, the per-boundary credit shadow (with
    /// its headroom clamp on the window) reproduces every credit check the
    /// serial credit loop would answer, each shard records telemetry
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
    /// boundary credit-shadow tables, and pool workers for shards `1..`
    /// — on a drained fabric. A fresh fabric starts with one shard and
    /// no cap.
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

        // Boundary tables: every router-to-router link whose ends fall in
        // different regions gets a per-VC credit-shadow slot.
        self.boundary.clear();
        self.boundary_slot = Vec::new();
        self.shadow.clear();
        for region in self.bounds.windows(2).map(|b| b[0]..b[1]) {
            for r in region.clone() {
                for (port, link) in self.wiring[r].iter().enumerate() {
                    let PortLink::Router {
                        router: dst,
                        port: dport,
                    } = *link
                    else {
                        continue;
                    };
                    if region.contains(&dst) {
                        continue;
                    }
                    if self.boundary_slot.is_empty() {
                        self.boundary_slot.resize(self.link_off[n], u32::MAX);
                    }
                    let vcs = self.routers[r].vcs;
                    let slot = self.shadow.len() as u32;
                    self.boundary_slot[self.link_off[r] + port] = slot;
                    self.shadow.extend(std::iter::repeat_n(0, vcs));
                    self.boundary.push(shard::BoundaryLink {
                        router: r as u32,
                        port: port as u32,
                        queue_base: (self.queue_off[dst] + dport * vcs) as u32,
                        slot,
                        vcs: vcs as u32,
                    });
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

    /// One event-driven advance, never past `limit`: if no router has
    /// work, jumps over the dead cycles to the next link arrival (or to
    /// `limit` when nothing is in flight), then runs one [`Self::step`].
    /// Equivalent to calling `step()` through every skipped cycle —
    /// those cycles are provably no-ops (no queued work, no due arrival)
    /// — so delivery logs and counters are bit-identical, only cheaper.
    ///
    /// A caller reacting to deliveries (injecting follow-on traffic,
    /// checking completion) thus observes exactly the cycles per-cycle
    /// stepping would hand it. Callers that only consume the delivery
    /// log after the fact should prefer [`Self::step_batched`], which
    /// runs full lookahead windows.
    pub fn step_next_event(&mut self, limit: u64) {
        if self.skip_dead_cycles(limit) {
            self.step();
        }
    }

    /// Event-driven advance with full lookahead windows: like
    /// [`Self::step_next_event`], but after the dead-cycle jump it runs
    /// one epoch of up to the lookahead window (never past `limit`),
    /// batching any deliveries it produces rather than stopping at the
    /// first one. Every delivery is still stamped with its exact cycle
    /// in [`Self::delivered`]; only the cycle at which the caller
    /// regains control differs. Use when nothing reacts mid-drain
    /// (replaying a fixed schedule, draining without follow-on traffic).
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
        // per cycle because credits are reserved, not round-tripped.
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
    fn step_next_event_matches_per_cycle_stepping_over_dead_time() {
        // A 40-cycle link: the event stepper jumps the dead wire time;
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
            by_event.step_next_event(120);
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
    fn link_occupancy_counts_in_flight_flits_from_reservations() {
        // Every flit that entered link (0, 1) and has not left router 1
        // is in flight on the link, holding one reserved credit, or
        // queued at router 1's input port 0 — the only port it feeds,
        // since traffic is injected at router 0 alone.
        for reference in [false, true] {
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
                let entered = f.link_traffic(0, 1).0;
                let left = f.link_traffic(1, 1).0 + f.link_traffic(1, 2).0;
                assert_eq!(
                    f.link_occupancy(0, 1) as u64,
                    entered - left,
                    "cycle {cycle}, reference stepper: {reference}"
                );
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
        // inside a shard (the credit mirror) and across a shard boundary
        // (the credit shadow).
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
