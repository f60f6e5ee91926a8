//! The cycle router: one input-queued, credit-flow-controlled router's
//! queue fronts, pipeline-maturity wheel, cut-through ownership and
//! round-robin pointers, with the epoch kernel's arbiter (one walk over
//! the ready head fronts) and the front walk its stall classification
//! reads. Both steppers pop through the same `depart`, so their grants
//! cannot drift.

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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FrontTarget {
    tag: u16,
    out: u8,
    out_vc: u8,
}

impl From<RouteDecision> for FrontTarget {
    fn from(d: RouteDecision) -> Self {
        FrontTarget {
            tag: d.tag,
            out: d.port as u8,
            out_vc: d.vc,
        }
    }
}

/// The most ports a [`CycleRouter`] has: one bit each in its
/// owned-output mask and its arbiter's picked-output mask.
const MAX_PORTS: usize = 64;

/// The longest router pipeline, in cycles: the maturity wheel takes one
/// bitset per pipeline cycle, so a runaway value would allocate without
/// bound.
const MAX_PIPELINE: u64 = u16::MAX as u64;

/// Rows of [`CycleRouter::fronts`], each one bit per input queue: the
/// queues whose front is a head, those whose front has cleared the
/// router pipeline, then the pipeline-maturity wheel's slots.
const HEADS: usize = 0;
const READY: usize = 1;
const WHEEL: usize = 2;

/// An input-queued, credit-flow-controlled router stepped per cycle.
///
/// Outside this crate a router is built and handed to a
/// [`RouterFabric`](super::RouterFabric), which alone steps it: only the
/// fabric's paths check a flit's credit and VC before the router takes
/// it, so the per-cycle methods are crate-private.
///
/// ```compile_fail,E0624
/// use anton_net::router::{CycleRouter, Flit};
/// let mut router = CycleRouter::new(0, 2, 1, 0);
/// let flit = Flit { packet: 0, index: 0, of: 1, dest: 0, vc: 1, tag: 0, injected_at: 0 };
/// router.accept(0, flit, 0);
/// ```
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
    /// Pipeline latency in cycles from head arrival to head departure,
    /// fixed at construction: it sizes the maturity wheel.
    pub(super) pipeline: u64,
    pub(super) vcs: usize,
    /// Total flits across all input queues (kept incrementally so the
    /// kernel's per-cycle idle check is O(1)).
    pub(super) queued: usize,
    /// Bit `out` set while output `out` is owned by an in-flight packet:
    /// the idle check reads it whole, and [`Self::arbitrate_into`]
    /// departs only the outputs it or the picks name.
    owned: u64,
    /// The front bitsets, [`Self::words`] `u64`s a row, bit
    /// `port * vcs + vc` for input queue `(port, vc)`: row [`HEADS`]
    /// holds the occupied queues whose front is a head, row [`READY`]
    /// those whose front has cleared the pipeline (a subset of the
    /// occupied queues, so stall classification walks it alone), and
    /// the `pipeline + 1` rows from [`WHEEL`] on are the maturity
    /// wheel: the fronts still in the pipeline, each filed once, in the
    /// slot of the cycle it clears. [`Self::accept`] and the pops keep
    /// every row, so both steppers keep them.
    fronts: Vec<u64>,
    /// The last cycle whose wheel slot is merged into the ready row;
    /// every front on the wheel clears the pipeline in one of the
    /// `pipeline + 1` cycles after it.
    merged: u64,
    /// The wheel slot of cycle `merged`: cycle `merged + d` files into
    /// slot `cursor + d`, modulo the wheel.
    cursor: usize,
    /// Per-queue memo of the front's target, filled by the pop that
    /// reveals the front (a head's route, a body's output and VC from
    /// the flit that just departed) or else on first use by
    /// arbitration or stall classification, and cleared when the queue
    /// empties: a head is routed once while it waits, and a body front
    /// never searches the output owners.
    front_target: Vec<Option<FrontTarget>>,
    /// Each output's pick while [`Self::arbitrate_into`] runs, as a
    /// flat queue index; all `None` between calls.
    picks: Vec<Option<u16>>,
}

impl CycleRouter {
    /// Creates a router with `ports` input/output ports, `vcs` VCs and a
    /// `pipeline`-cycle traversal latency.
    ///
    /// # Panics
    /// Panics if `ports` exceeds 64, the width of the owned- and
    /// picked-output masks (every fabric here has at most 14), if
    /// `ports * vcs` exceeds the `u16` flat queue index of the picks, or
    /// if `pipeline` exceeds 65,535 cycles.
    pub fn new(id: usize, ports: usize, vcs: usize, pipeline: u64) -> Self {
        let queues = ports * vcs;
        assert!(
            ports <= MAX_PORTS,
            "a router has at most {MAX_PORTS} ports (one bit each in the output masks), not {ports}"
        );
        assert!(
            queues <= u16::MAX as usize + 1,
            "flat (port, vc) index must fit the u16 picks"
        );
        assert!(
            pipeline <= MAX_PIPELINE,
            "a router pipeline is at most {MAX_PIPELINE} cycles, not {pipeline}"
        );
        let rows = WHEEL + pipeline as usize + 1;
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
            fronts: vec![0; rows * queues.div_ceil(64)],
            merged: 0,
            cursor: 0,
            front_target: vec![None; queues],
            picks: vec![None; ports],
        }
    }

    /// Whether this router can do no work this cycle (no queued flits
    /// and no output owned by a packet still streaming through).
    pub(crate) fn is_idle(&self) -> bool {
        self.queued == 0 && self.owned == 0
    }

    /// Heap bytes behind this router as `(flit slab, scheduler state)`:
    /// the slab is the [`FlitStore`] slot storage; the state covers ring
    /// cursors, the front mirrors (the head and ready bitsets, the
    /// maturity wheel and the front-target memo), output ownership and
    /// arbitration scratch. Capacity-based — what the allocator actually
    /// handed out.
    pub(crate) fn memory_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let (slab, cursors) = self.store.memory_bytes();
        let fronts = self.fronts.capacity() * size_of::<u64>()
            + self.front_target.capacity() * size_of::<Option<FrontTarget>>();
        let state = cursors
            + fronts
            + self.output_owner.capacity() * size_of::<Option<OutputOwner>>()
            + self.rr.capacity() * size_of::<usize>()
            + self.picks.capacity() * size_of::<Option<u16>>();
        (slab, state)
    }

    /// `u64`s per row of [`Self::fronts`]: one bit per input queue.
    fn words(&self) -> usize {
        (self.ports * self.vcs).div_ceil(64)
    }

    /// Whether queue `idx`'s bit is set in row `row` of the fronts.
    fn has(&self, row: usize, idx: usize) -> bool {
        self.fronts[row * self.words() + idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Sets (`on`) or clears queue `idx`'s bit in row `row`.
    fn mark(&mut self, row: usize, idx: usize, on: bool) {
        let (w, bit) = (row * self.words() + idx / 64, 1 << (idx % 64));
        if on {
            self.fronts[w] |= bit;
        } else {
            self.fronts[w] &= !bit;
        }
    }

    /// Merges the wheel slots of the cycles after `merged`, up to
    /// `cycle`, into the ready row. Both arbiters call it before they
    /// walk or pop anything, and a pop files the front it reveals
    /// against the merged cycle. A span as long as the wheel merges
    /// every slot, which leaves the wheel empty, so the merge point
    /// moves to `cycle` with the cursor where it is.
    pub(super) fn merge(&mut self, cycle: u64) {
        if cycle <= self.merged {
            return;
        }
        let (words, slots) = (self.words(), self.pipeline as usize + 1);
        for _ in 0..(cycle - self.merged).min(slots as u64) {
            self.cursor = if self.cursor + 1 == slots {
                0
            } else {
                self.cursor + 1
            };
            let slot = (WHEEL + self.cursor) * words;
            for w in 0..words {
                let bits = std::mem::take(&mut self.fronts[slot + w]);
                self.fronts[READY * words + w] |= bits;
            }
        }
        self.merged = cycle;
    }

    /// Files queue `idx`'s new front, which clears the pipeline at
    /// `ready_at`: ready at once if that is `now` or earlier, else on
    /// the wheel. The wheel spans the `pipeline + 1` cycles after
    /// `merged`, so a front that clears later first merges the wheel up
    /// to the cycle before its span: an accepted front's `now - 1`,
    /// which moves the stale merge point of a router that sat idle.
    fn file(&mut self, idx: usize, ready_at: u64, now: u64) {
        if ready_at <= now {
            self.mark(READY, idx, true);
            return;
        }
        let slots = self.pipeline + 1;
        self.merge(ready_at.saturating_sub(slots));
        debug_assert!(
            self.merged < ready_at,
            "a front filed behind the merge point"
        );
        let mut slot = self.cursor + (ready_at - self.merged) as usize;
        if slot >= slots as usize {
            slot -= slots as usize;
        }
        self.mark(WHEEL + slot, idx, true);
    }

    /// Resizes the input buffers of one port (all VCs) to `depth` flits.
    /// Ports that model a whole Channel Adapter receive path rather than
    /// a bare Edge Router queue need a credit window covering the link's
    /// bandwidth-delay product, or the wire idles waiting on credits.
    ///
    /// # Panics
    /// Panics if the port already holds more flits than `depth`.
    pub(crate) fn set_input_depth(&mut self, port: usize, depth: usize) {
        for v in 0..self.vcs {
            self.store.set_cap(port * self.vcs + v, depth);
        }
    }

    /// Free slots on input `(port, vc)`. (The fabric's arbitration reads
    /// the upstream sender's credit count instead, which lags a departure
    /// by a cycle; see `RouterFabric::credits`.)
    pub(crate) fn free_slots(&self, port: usize, vc: u8) -> usize {
        self.store.free_slots(port * self.vcs + vc as usize)
    }

    /// Flits currently queued on input `(port, vc)`.
    pub(crate) fn queue_len(&self, port: usize, vc: u8) -> usize {
        self.store.len(port * self.vcs + vc as usize)
    }

    /// The front entry of input queue `(port, vc)` as
    /// `(flit, arrival cycle)`, if any: the stored flit on the queue's
    /// VC.
    pub(crate) fn front(&self, port: usize, vc: u8) -> Option<(Flit, u64)> {
        let (flit, arrived) = self.store.front(port * self.vcs + vc as usize)?;
        Some((flit.on_vc(vc), arrived))
    }

    /// Delivers a flit to input `(port, flit.vc)` at `cycle`. A flit
    /// that lands in an empty queue becomes its front, filed on the
    /// maturity wheel (ready at once with a zero-cycle pipeline).
    ///
    /// # Panics
    /// Panics if no credit was available — callers must check
    /// [`Self::free_slots`], exactly as the upstream credit counter would
    /// — and, in debug builds, if the router has no VC `flit.vc`.
    pub(crate) fn accept(&mut self, port: usize, flit: Flit, cycle: u64) {
        debug_assert!((flit.vc as usize) < self.vcs, "no VC {}", flit.vc);
        let idx = port * self.vcs + flit.vc as usize;
        if self.store.is_empty(idx) {
            self.mark(HEADS, idx, flit.is_head());
            self.file(idx, cycle + self.pipeline, cycle);
        }
        self.store.push(idx, PackedFlit::new(&flit), cycle);
        self.queued += 1;
    }

    /// Pops the front flit of input `(p, v)` at the cycle the wheel is
    /// merged to, maintaining the queued total and the front bitsets:
    /// the front the pop reveals is filed against that cycle (ready at
    /// once if it arrived a pipeline or more before it), and its memo
    /// filled — a head through [`Self::route_head`], a body with `out`
    /// and `out_vc`, the output and VC its packet's departing flit took
    /// (tag 0, as [`Self::target`] derives it from the owner).
    fn take_front(&mut self, p: usize, v: u8, out: usize, out_vc: u8, route: &RouteFn) -> Flit {
        let idx = p * self.vcs + v as usize;
        debug_assert!(
            self.has(READY, idx),
            "a front departs before it clears the pipeline"
        );
        self.mark(READY, idx, false);
        let flit = self.store.pop(idx).expect("front exists").on_vc(v);
        self.queued -= 1;
        self.front_target[idx] = match self.front(p, v) {
            Some((next, arrived)) => {
                self.file(idx, arrived + self.pipeline, self.merged);
                self.mark(HEADS, idx, next.is_head());
                Some(if next.is_head() {
                    self.route_head(&next, route).into()
                } else {
                    FrontTarget {
                        tag: 0,
                        out: out as u8,
                        out_vc,
                    }
                })
            }
            None => {
                self.mark(HEADS, idx, false);
                None
            }
        };
        flit
    }

    /// Completes one departure through `out`: pops the flit from input
    /// `(p, v)` (filing the front it reveals, `route` routing a revealed
    /// head), applies the outgoing VC/tag, and updates the cut-through
    /// ownership, its mask and the round-robin pointer. Shared by the
    /// reference arbiter ([`Self::tick`]) and the event-driven one
    /// ([`Self::arbitrate_into`]) so the two cannot drift; each merges
    /// the wheel up to its cycle before it departs anything.
    pub(super) fn depart(
        &mut self,
        out: usize,
        p: usize,
        v: u8,
        out_vc: u8,
        out_tag: u16,
        route: &RouteFn,
    ) -> Flit {
        let mut flit = self.take_front(p, v, out, out_vc, route);
        flit.vc = out_vc;
        flit.tag = out_tag;
        if flit.is_tail() {
            self.output_owner[out] = None;
            self.owned &= !(1 << out);
            self.rr[out] = (p * self.vcs + v as usize + 1) % (self.ports * self.vcs);
        } else {
            self.output_owner[out] = Some(OutputOwner {
                packet: flit.packet,
                in_port: p,
                in_vc: v,
                out_vc,
                out_tag,
            });
            self.owned |= 1 << out;
        }
        flit
    }

    /// Total queued flits (for drain checks).
    pub(crate) fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            (0..self.store.queues())
                .map(|q| self.store.len(q))
                .sum::<usize>(),
            "incremental occupancy diverged"
        );
        self.queued
    }

    /// `route`'s decision for head flit `head` at this router, the one
    /// place either stepper routes a head: a head front is routed once
    /// when its memo fills, whichever stepper's pop reveals it, and
    /// [`Self::tick`] and the reference stall classifier route each
    /// head again every cycle.
    ///
    /// # Panics
    /// Panics, in release builds too, if the decision names a port at or
    /// past this router's port count or a VC at or past its VC count,
    /// which would otherwise file the flit in another queue or leave it
    /// waiting forever.
    pub(super) fn route_head(&self, head: &Flit, route: &RouteFn) -> RouteDecision {
        let d = route(head, self.id);
        if d.port >= self.ports || usize::from(d.vc) >= self.vcs {
            self.misrouted(d);
        }
        d
    }

    /// [`Self::route_head`]'s refusal, cold and out of line so the
    /// arbitration walk that inlines `route_head` stays small: an inline
    /// `assert!` with this message made perfbench's `overload_sharded`
    /// 4–6% slower (median `wall_s`, 2-vCPU Xeon VM).
    #[cold]
    #[inline(never)]
    fn misrouted(&self, d: RouteDecision) -> ! {
        panic!(
            "router {} routed a head to port {} VC {}, but it has {} ports and {} VCs",
            self.id, d.port, d.vc, self.ports, self.vcs
        )
    }

    /// The target of occupied queue `i`'s front: the memo a pop filled,
    /// or, for a front [`Self::accept`] put into an empty queue, a
    /// head's route decision or a body flit's owned output, memoized
    /// until the front pops. `None` for a body front whose packet owns
    /// no output, which the cut-through protocol rules out.
    fn target(&mut self, i: usize, route: &RouteFn) -> Option<FrontTarget> {
        if let Some(t) = self.front_target[i] {
            return Some(t);
        }
        let (p, v) = (i / self.vcs, (i % self.vcs) as u8);
        let (front, _) = self.front(p, v).expect("occupied queue has a front");
        let t = if front.is_head() {
            self.route_head(&front, route).into()
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

    /// Event-driven arbitration at `cycle`, pushing departures as
    /// `(router id, input queue, output, flit)`, the queue flat
    /// (`port * vcs + vc`) and the flit with its outgoing VC/tag
    /// applied, and returning the mask of the outputs that departed.
    /// `downstream_ok` answers the full departure question for
    /// `(output, outgoing vc)`, serialization and downstream credit,
    /// exactly as for [`Self::tick`].
    ///
    /// The wheel is first merged up to `cycle`, so the ready row holds
    /// exactly the fronts that have cleared the pipeline. One ascending
    /// walk over the ready head fronts then picks, for each unowned
    /// output, the first head at or after the output's round-robin
    /// pointer whose check passes, or else the first one before it: the
    /// head `tick`'s rotated scan grants. Nothing a check reads changes
    /// while a router arbitrates, so asking the checks in walk order
    /// changes no grant. Departures follow in ascending output order, as
    /// `tick` makes them, over the outputs with a pick or an owner
    /// only: an owner continues its packet once its queue's front is
    /// ready, and no other output can depart. None happens before every
    /// pick is made, so a front a pop reveals waits a cycle, as in
    /// `tick`'s route snapshot. The `stepper_equivalence` tests pin the
    /// two bit for bit.
    pub(crate) fn arbitrate_into(
        &mut self,
        cycle: u64,
        route: &RouteFn,
        mut downstream_ok: impl FnMut(usize, u8) -> bool,
        moves: &mut Vec<(usize, usize, usize, Flit)>,
    ) -> u64 {
        self.merge(cycle);
        let words = self.words();
        let mut picked = 0u64;
        for w in 0..words {
            let mut bits = self.fronts[HEADS * words + w] & self.fronts[READY * words + w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let t = self.target(i, route).expect("a head front is routed");
                let out = t.out as usize;
                let rr = self.rr[out];
                // A pick at or after the pointer is final, and so is one
                // before it while the walk is still before it.
                let settled = self.picks[out].is_some_and(|p| p as usize >= rr || i < rr);
                if self.owned & (1 << out) == 0 && !settled && downstream_ok(out, t.out_vc) {
                    self.picks[out] = Some(i as u16);
                    picked |= 1 << out;
                }
            }
        }
        // A departure changes only its own output's owner, so the mask
        // taken now names every output that can depart.
        let mut acting = picked | self.owned;
        let mut departed = 0;
        while acting != 0 {
            let out = acting.trailing_zeros() as usize;
            acting &= acting - 1;
            let depart = match self.output_owner[out] {
                // Cut-through owners continue their own packet: sources
                // must keep a packet's flits contiguous per (port, VC) —
                // see [`RouterFabric::inject`].
                Some(o) => {
                    let oidx = o.in_port * self.vcs + o.in_vc as usize;
                    let go = self.has(READY, oidx) && downstream_ok(out, o.out_vc);
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
                let flit = self.depart(out, p, v, out_vc, out_tag, route);
                moves.push((self.id, p * self.vcs + v as usize, out, flit));
                departed |= 1 << out;
            }
        }
        departed
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

    /// Visits every queue front in the ready row, the fronts that have
    /// cleared the router pipeline by the cycle of the last
    /// [`Self::arbitrate_into`] (a front its pops revealed included), in
    /// ascending flat-index order (the reference classifier's port × VC
    /// order), as `(output, outgoing VC)` — the per-front inputs of the
    /// epoch kernel's stall classification. A front still in the
    /// pipeline sits on the wheel and is not visited: pipeline time is
    /// not a stall. Targets come from the memo that pops and arbitration
    /// fill, so a stalled front costs no slab read or route call once it
    /// is filled. A body front whose packet owns no output is skipped,
    /// as [`RouterFabric`]'s reference classifier skips it.
    pub(crate) fn for_each_front_target(&mut self, route: &RouteFn, mut f: impl FnMut(usize, u8)) {
        let words = self.words();
        for w in 0..words {
            let mut bits = self.fronts[READY * words + w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(t) = self.target(i, route) {
                    f(t.out as usize, t.out_vc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::tests::flit;

    /// Routes a head to the output its destination names, on VC 1, with
    /// a tag of its destination plus 100.
    fn to_dest(f: &Flit, _: usize) -> RouteDecision {
        RouteDecision {
            port: f.dest as usize,
            vc: 1,
            tag: f.dest as u16 + 100,
        }
    }

    /// One cycle of [`CycleRouter::arbitrate_into`] with every output
    /// free, as `(input queue, output, flit)`.
    fn arbitrate(router: &mut CycleRouter, cycle: u64) -> Vec<(usize, usize, Flit)> {
        let mut moves = Vec::new();
        router.arbitrate_into(cycle, &to_dest, |_, _| true, &mut moves);
        moves
            .into_iter()
            .map(|(_, q, out, f)| (q, out, f))
            .collect()
    }

    #[test]
    fn a_router_takes_64_ports_and_departs_through_the_last() {
        let mut router = CycleRouter::new(0, MAX_PORTS, 1, 1);
        router.accept(0, flit(1, 0, 2, 63, 0), 0);
        router.accept(0, flit(1, 1, 2, 63, 0), 0);
        let route = |f: &Flit, _: usize| RouteDecision::keep(f.dest as usize, f);
        for cycle in 1..3 {
            let mut moves = Vec::new();
            router.arbitrate_into(cycle, &route, |_, _| true, &mut moves);
            assert_eq!(moves.len(), 1, "cycle {cycle}");
            assert_eq!(moves[0].2, 63, "cycle {cycle}");
            assert_eq!(router.is_idle(), cycle == 2, "cycle {cycle}");
        }
    }

    #[test]
    #[should_panic(
        expected = "a router has at most 64 ports (one bit each in the output masks), not 65"
    )]
    fn a_65_port_router_is_refused() {
        CycleRouter::new(0, MAX_PORTS + 1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "a router pipeline is at most 65535 cycles, not 65536")]
    fn a_pipeline_past_the_maximum_is_refused() {
        CycleRouter::new(0, 1, 1, MAX_PIPELINE + 1);
    }

    #[test]
    #[should_panic(expected = "queue 0 is full at its 8-flit depth")]
    fn a_full_queue_refuses_a_flit_in_every_build() {
        // A ninth flit in an 8-flit queue has no credit; stored, it
        // would overwrite the queue's front.
        let mut router = CycleRouter::new(0, 1, 1, 1);
        for packet in 0..9 {
            router.accept(0, flit(packet, 0, 1, 0, 0), 0);
        }
    }

    #[test]
    fn an_owner_and_a_pick_depart_in_ascending_output_order() {
        // Packet 1 (two flits, port 0) takes output 3 at cycle 1 and
        // continues on it at cycle 2, when packet 2's head (port 1) is
        // picked on output 1: the lower output departs first, in both
        // arbiters, the order the fabric applies departures and lists
        // trace hops in.
        let mut router = CycleRouter::new(0, 4, 2, 1);
        router.accept(0, flit(1, 0, 2, 3, 0), 0);
        router.accept(0, flit(1, 1, 2, 3, 0), 0);
        router.accept(1, flit(2, 0, 1, 1, 0), 1);
        let mut reference = router.clone();
        let mut sent = Vec::new();
        for cycle in 0..3 {
            let moves = arbitrate(&mut router, cycle);
            assert_eq!(
                moves,
                reference.tick(cycle, &to_dest, |_, _| true),
                "cycle {cycle}"
            );
            sent.push(moves);
        }
        let out = |packet: u64, index: u8, of: u8, dest: u32| Flit {
            tag: dest as u16 + 100,
            ..flit(packet, index, of, dest, 1)
        };
        assert_eq!(sent[1], vec![(0, 3, out(1, 0, 2, 3))]);
        assert_eq!(
            sent[2],
            vec![(2, 1, out(2, 0, 1, 1)), (0, 3, out(1, 1, 2, 3))]
        );
        assert!(router.is_idle());
    }

    #[test]
    fn a_pop_fills_the_revealed_fronts_memo() {
        // Queue 0 holds packet 1's head and body, then packet 2's head.
        let mut router = CycleRouter::new(0, 4, 2, 1);
        router.accept(0, flit(1, 0, 2, 3, 0), 0);
        router.accept(0, flit(1, 1, 2, 3, 0), 0);
        router.accept(0, flit(2, 0, 1, 2, 0), 0);
        assert_eq!(router.front_target[0], None, "nothing has popped yet");
        // The body takes the output and VC its head departed on.
        assert_eq!(arbitrate(&mut router, 1).len(), 1);
        let body = FrontTarget {
            tag: 0,
            out: 3,
            out_vc: 1,
        };
        assert_eq!(router.front_target[0], Some(body));
        // The next head is routed as its own packet.
        assert_eq!(arbitrate(&mut router, 2).len(), 1);
        let head = router.route_head(&flit(2, 0, 1, 2, 0), &to_dest).into();
        assert_eq!(router.front_target[0], Some(head));
        assert_eq!(
            head,
            FrontTarget {
                tag: 102,
                out: 2,
                out_vc: 1,
            }
        );
        // The last pop empties the queue and clears the memo.
        assert_eq!(arbitrate(&mut router, 3).len(), 1);
        assert_eq!(router.front_target[0], None);
        assert!(router.is_idle());
    }

    #[test]
    fn a_front_departs_the_cycle_it_clears_the_pipeline() {
        // Packet 1's head and first body land at cycle 5, its tail long
        // after the head has left: the head is picked at 5 + pipeline,
        // the body its pop reveals (clear already) continues the next
        // cycle, and the tail waits out its own pipeline although its
        // packet owns the output.
        for pipeline in [0, 1, 16] {
            let mut router = CycleRouter::new(0, 4, 2, pipeline);
            let mut reference = router.clone();
            let tail_at = 5 + pipeline + 10;
            let mut sent = Vec::new();
            for cycle in 5..tail_at + pipeline + 5 {
                for r in [&mut router, &mut reference] {
                    if cycle == 5 {
                        r.accept(0, flit(1, 0, 3, 3, 0), cycle);
                        r.accept(0, flit(1, 1, 3, 3, 0), cycle);
                    }
                    if cycle == tail_at {
                        r.accept(0, flit(1, 2, 3, 3, 0), cycle);
                    }
                }
                let moves = arbitrate(&mut router, cycle);
                let at = format!("pipeline {pipeline} cycle {cycle}");
                assert_eq!(moves, reference.tick(cycle, &to_dest, |_, _| true), "{at}");
                sent.extend(moves.iter().map(|&(_, _, f)| (cycle, f.index)));
            }
            let expect = [
                (5 + pipeline, 0),
                (6 + pipeline, 1),
                (tail_at + pipeline, 2),
            ];
            assert_eq!(sent, expect, "pipeline {pipeline}");
        }
    }

    #[test]
    fn a_router_idle_past_its_wheel_waits_out_the_pipeline() {
        // A one-flit packet passes, then the router sits idle for 1,000
        // cycles, far longer than its 17-slot wheel, before the next
        // head lands.
        let mut router = CycleRouter::new(0, 4, 2, 16);
        router.accept(0, flit(1, 0, 1, 3, 0), 0);
        for cycle in 0..=16 {
            assert_eq!(
                arbitrate(&mut router, cycle).len(),
                usize::from(cycle == 16)
            );
        }
        assert!(router.is_idle());
        let landed = 1_017;
        router.accept(1, flit(2, 0, 1, 2, 0), landed);
        for cycle in landed..landed + 16 {
            assert_eq!(arbitrate(&mut router, cycle), [], "cycle {cycle}");
        }
        assert_eq!(arbitrate(&mut router, landed + 16).len(), 1);
        assert!(router.is_idle());
    }

    #[test]
    fn a_pop_shows_a_cleared_front_to_the_stall_walk_at_once() {
        // Two packets wait on blocked outputs until cycle 30, when both
        // heads depart. Packet 1's body landed long before; packet 2's
        // clears the 4-cycle pipeline exactly then. The stall walk of
        // that cycle visits both, in flat queue order, with the output
        // and VC their heads took.
        let mut router = CycleRouter::new(0, 4, 2, 4);
        router.accept(0, flit(1, 0, 2, 3, 0), 0);
        router.accept(0, flit(1, 1, 2, 3, 0), 0);
        let mut fronts = Vec::new();
        for cycle in 20..=30 {
            match cycle {
                20 => router.accept(1, flit(2, 0, 2, 2, 0), cycle),
                26 => router.accept(1, flit(2, 1, 2, 2, 0), cycle),
                _ => {}
            }
            let mut moves = Vec::new();
            router.arbitrate_into(cycle, &to_dest, |_, _| cycle >= 30, &mut moves);
            assert_eq!(moves.len(), if cycle < 30 { 0 } else { 2 }, "cycle {cycle}");
            fronts.clear();
            router.for_each_front_target(&to_dest, |out, vc| fronts.push((out, vc)));
        }
        assert_eq!(fronts, [(3, 1), (2, 1)]);
    }

    #[test]
    fn tick_and_arbitrate_into_alternate_over_idle_gaps_as_tick_alone() {
        // Bursts of 1- to 3-flit packets on every input queue of a
        // 16-cycle-pipeline router, 100 cycles apart, so the router
        // drains and sits idle for longer than its wheel between them.
        // One copy steps `tick` alone; the other alternates `tick` and
        // `arbitrate_into` in 20-cycle blocks. Neither steps an idle
        // router, as neither fabric stepper does.
        let mut alternating = CycleRouter::new(0, 4, 2, 16);
        let mut reference = alternating.clone();
        let mut next = [(0u64, 0u8); 8];
        let (mut moved, mut gap, mut longest) = (0, 0, 0);
        for cycle in 0..800u64 {
            for (q, (packet, index)) in next.iter_mut().enumerate() {
                // New packets start only in a burst; a started one ends.
                let (port, vc) = (q / 2, (q % 2) as u8);
                if (*index == 0 && cycle % 100 >= 12)
                    || (cycle + q as u64).is_multiple_of(3)
                    || reference.free_slots(port, vc) == 0
                {
                    continue;
                }
                let of = 1 + (*packet % 3) as u8;
                let dest = (q as u64 + *packet) as u32 % 4;
                let f = flit(*packet * 8 + q as u64, *index, of, dest, vc);
                for r in [&mut alternating, &mut reference] {
                    r.accept(port, f, cycle);
                }
                *index += 1;
                if *index == of {
                    (*packet, *index) = (*packet + 1, 0);
                }
            }
            let ok = |out: usize, vc: u8| !(cycle + out as u64 + u64::from(vc)).is_multiple_of(4);
            if reference.is_idle() {
                assert!(alternating.is_idle(), "cycle {cycle}");
                gap += 1;
                longest = longest.max(gap);
                continue;
            }
            gap = 0;
            let expect = reference.tick(cycle, &to_dest, ok);
            let got = if (cycle / 20) % 2 == 0 {
                alternating.tick(cycle, &to_dest, ok)
            } else {
                let mut moves = Vec::new();
                alternating.arbitrate_into(cycle, &to_dest, ok, &mut moves);
                moves
                    .into_iter()
                    .map(|(_, q, out, f)| (q, out, f))
                    .collect()
            };
            assert_eq!(got, expect, "cycle {cycle}");
            moved += got.len();
        }
        assert!(moved > 500, "only {moved} departures");
        assert!(longest > 17, "longest idle gap {longest}");
        assert!(reference.is_idle() && alternating.is_idle());
    }
}
