//! The cycle router: one input-queued, credit-flow-controlled router's
//! queue fronts, cut-through ownership and round-robin pointers, with
//! the epoch kernel's arbiter (one walk over the occupied head fronts)
//! and the front walk its stall classification reads. Both steppers pop
//! through the same `depart`, so their grants cannot drift.

use super::*;

/// The (input port, input VC, outgoing VC, outgoing tag) of the packet
/// currently owning an output port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct OutputOwner {
    pub(super) packet: u64,
    pub(super) in_port: usize,
    pub(super) in_vc: u8,
    pub(super) out_vc: u8,
    pub(super) out_tag: u16,
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
    pub(super) store: FlitStore,
    pub(super) ports: usize,
    /// In-flight VC allocation: which (input port, vc) currently owns each
    /// output port (packet-granular cut-through: interleaving flits of
    /// different packets on one output VC is not allowed).
    pub(super) output_owner: Vec<Option<OutputOwner>>,
    /// Round-robin arbitration pointer per output port.
    pub(super) rr: Vec<usize>,
    /// Pipeline latency in cycles from head arrival to head departure.
    pub pipeline: u64,
    pub(super) vcs: usize,
    /// Total flits across all input queues (kept incrementally so the
    /// kernel's per-cycle idle check is O(1)).
    pub(super) queued: usize,
    /// Output ports currently owned by an in-flight packet.
    owned: usize,
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
}

impl CycleRouter {
    /// Creates a router with `ports` input/output ports, `vcs` VCs and a
    /// `pipeline`-cycle traversal latency.
    pub fn new(id: usize, ports: usize, vcs: usize, pipeline: u64) -> Self {
        let queues = ports * vcs;
        assert!(
            queues <= u16::MAX as usize + 1,
            "flat (port, vc) index must fit the u16 picks"
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
            front_ready: vec![u64::MAX; queues],
            occupied: vec![0; queues.div_ceil(64)],
            heads: vec![0; queues.div_ceil(64)],
            front_target: vec![None; queues],
            picks: vec![None; ports],
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
            + self.picks.capacity() * size_of::<Option<u16>>();
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
    /// the upstream sender's credit count instead, which lags a departure
    /// by a cycle; see `RouterFabric::credits`.)
    pub fn free_slots(&self, port: usize, vc: u8) -> usize {
        self.store.free_slots(port * self.vcs + vc as usize)
    }

    /// Flits currently queued on input `(port, vc)`.
    pub fn queue_len(&self, port: usize, vc: u8) -> usize {
        self.store.len(port * self.vcs + vc as usize)
    }

    /// The front entry of input queue `(port, vc)` as
    /// `(flit, arrival cycle)`, if any: the stored flit on the queue's
    /// VC.
    pub(crate) fn front(&self, port: usize, vc: u8) -> Option<(Flit, u64)> {
        let (flit, arrived) = self.store.front(port * self.vcs + vc as usize)?;
        Some((flit.on_vc(vc), arrived))
    }

    /// Delivers a flit to input `(port, flit.vc)` at `cycle`.
    ///
    /// # Panics
    /// Panics (in debug) if no credit was available — callers must check
    /// [`Self::free_slots`], exactly as the upstream credit counter would
    /// — or if the router has no VC `flit.vc`.
    pub fn accept(&mut self, port: usize, flit: Flit, cycle: u64) {
        debug_assert!((flit.vc as usize) < self.vcs, "no VC {}", flit.vc);
        let idx = port * self.vcs + flit.vc as usize;
        if self.store.is_empty(idx) {
            let bit = 1 << (idx % 64);
            self.occupied[idx / 64] |= bit;
            if flit.is_head() {
                self.heads[idx / 64] |= bit;
            }
            self.front_ready[idx] = cycle + self.pipeline;
        }
        self.store.push(idx, PackedFlit::new(&flit), cycle);
        self.queued += 1;
    }

    /// Pops the front flit of input `(p, v)`, maintaining the queued
    /// total, the front mirrors and memo, and the bitsets.
    fn take_front(&mut self, p: usize, v: u8) -> Flit {
        let idx = p * self.vcs + v as usize;
        let flit = self.store.pop(idx).expect("front exists").on_vc(v);
        self.queued -= 1;
        self.front_target[idx] = None;
        let (w, bit) = (idx / 64, 1 << (idx % 64));
        match self.front(p, v) {
            Some((next, arrived)) => {
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
    pub(super) fn depart(&mut self, out: usize, p: usize, v: u8, out_vc: u8, out_tag: u16) -> Flit {
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
        let (p, v) = (i / self.vcs, (i % self.vcs) as u8);
        let (front, _) = self.front(p, v).expect("occupied queue has a front");
        let t = if front.is_head() {
            let d = route(&front, self.id);
            FrontTarget {
                tag: d.tag,
                out: d.port as u8,
                out_vc: d.vc,
            }
        } else {
            let (out, out_vc) = self.owner_output(p, v)?;
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
    /// input queue, output, flit)`, the queue flat (`port * vcs + vc`)
    /// and the flit with its outgoing VC/tag applied. `downstream_ok`
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
        moves: &mut Vec<(usize, usize, usize, Flit)>,
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
                        !go || self
                            .front(o.in_port, o.in_vc)
                            .is_some_and(|f| f.0.packet == o.packet),
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
                moves.push((self.id, p * self.vcs + v as usize, out, flit));
            }
        }
    }

    /// The output port (and outgoing VC) currently owned by input
    /// `(p, v)`'s in-flight packet, if any — the continuation target of
    /// a body flit at that queue's front.
    pub(super) fn owner_output(&self, p: usize, v: u8) -> Option<(usize, u8)> {
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
}
