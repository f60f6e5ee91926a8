//! Cycle-level router microarchitecture — paper §III-B.
//!
//! The Anton 3 routers use virtual cut-through flow control with small
//! (8-flit) per-VC input queues and credit-based backpressure; control
//! information runs two cycles ahead of the datapath so the per-hop
//! latency stays at 2 cycles (Core Router U direction), 5 cycles (V
//! direction) or 3 cycles (Edge Router). This module implements that
//! microarchitecture at flit granularity, one role per file:
//!
//! - `router/store.rs`: [`FlitStore`] — all of a router's 8-flit per-VC
//!   input queues as one structure-of-arrays slab with credit
//!   accounting;
//! - `router/cycle.rs`: [`CycleRouter`] — input-queued router: route
//!   computation, round-robin output arbitration across (port, VC),
//!   cut-through forwarding, and the ready-front walk the kernel
//!   arbitrates and classifies stalls with;
//! - `router/shard.rs`: the lookahead-epoch kernel every production step
//!   runs, and its worker pool, home of the crate's one `unsafe` block;
//! - `router/reference.rs`: the reference stepper
//!   ([`RouterFabric::step_reference`] and its full-scan arbiter
//!   [`CycleRouter::tick`]), the executable specification the kernel
//!   matches bit for bit;
//! - `router.rs`: the fabric API — [`RouterFabric`], a network of
//!   routers wired port-to-port, stepped cycle by cycle, with
//!   injection/ejection endpoints ([`InjectPort`], [`Endpoint`]) and
//!   per-link latency/bandwidth channels ([`LinkSpec`]) for modeling the
//!   long SERDES + wire crossings between nodes.
//!
//! Route decisions are computed per hop by a [`RouteFn`] from the head
//! flit itself: each [`Flit`] carries an opaque [`Flit::tag`] so routing
//! schemes with per-packet state — the randomized dimension orders and
//! dateline VC switches of [`crate::routing`], built into a full torus by
//! [`crate::fabric3d`] — can thread that state through the fabric. The
//! torus fabric takes its per-hop split from [`crate::path`]'s formulas
//! (`FabricParams::calibrated`, checked by `fabric3d`'s
//! `calibration_matches_analytic_per_hop_within_rounding`), and the Edge
//! Network fabric of [`crate::edge`] checks [`crate::chip`]'s hop
//! formulas (`transit_formula_matches_fabric` and its two siblings).
//!
//! # Event-driven stepping
//!
//! Every production step runs one kernel, the lookahead-epoch kernel of
//! `router/shard.rs`: inline on the calling thread at one shard, with
//! pool workers for the other regions after [`RouterFabric::set_shards`].
//! Even saturated fabrics keep most (port, VC) pairs empty, so the
//! kernel walks each router's ready queue fronts rather than every
//! pair; the routers themselves it scans:
//!
//! - an **index-order scan**: each private cycle arbitrates a shard's
//!   routers in ascending index order, skipping a router with no work
//!   after one O(1) check. No list of active routers is kept, because
//!   every hop holds its flit in a router for the whole pipeline and
//!   few routers are idle: routers had work in 93.5% of the (router,
//!   cycle) pairs the kernel stepped on `sweep_traffic --md-replay`,
//!   88.6% on `--overload-smoke --shards 2`, 75.7% on `--mega-smoke`
//!   (16³) and 72.2% on `--quick`;
//! - **per-shard arrival wheels**: a departure onto a positive-latency
//!   link books the flit on the downstream shard's calendar wheel at the
//!   arrival cycle, where its landing accepts it into the downstream
//!   queue — no per-link delay line, no serial replay. A booking is 32
//!   bytes: the flit without its VC (a [`FlitStore`] slot holds the same
//!   form, beside its arrival cycle) plus the downstream router, VC and
//!   port. Each wheel has one slot more than the longest link latency,
//!   81 at the calibrated 80 cycles;
//! - **sender-held credits**: each link keeps one credit count per VC
//!   for the queue it feeds, in one credit table indexed `link * vcs +
//!   vc` by the flat link id every per-link table and the telemetry
//!   share (router `r`'s output `out`, and its input port `out`, are
//!   link `link_off[r] + out`). A departure spends one, and when it is
//!   applied, after the cycle's arbitration, it returns one to the link
//!   feeding the queue it left; a landing touches none. A credit check
//!   is one read of the sender's own entry. Arbitration asks it for the
//!   target of each ready head front it walks, and stall classification
//!   asks the same check — the counts cannot change while a cycle
//!   arbitrates, so no snapshot or probe table is needed;
//! - **one walk over the ready queue fronts**: each router keeps, in
//!   one `u64` table, a bitset of the input queues whose front is a
//!   head, a bitset of those whose front has cleared the pipeline, and
//!   a pipeline-maturity wheel of `pipeline + 1` bitsets: a front that
//!   lands in an empty queue, or that a pop reveals, is marked ready at
//!   once if it has cleared the pipeline, else filed once in the slot
//!   of the cycle it clears, and each router visit merges the slots up
//!   to its cycle into the ready set. A per-queue memo of each front's
//!   target (a head's route decision, a body flit's owned output) is
//!   filled by the pop that reveals the front — a body takes the output
//!   and VC of the flit that just left — or else on first use, and
//!   cleared when the queue empties. Arbitration walks the ready head
//!   fronts in ascending order, keeping per output the head the
//!   round-robin scan would grant, then departs, in ascending order,
//!   only the outputs with a pick or an owner whose front is ready (a
//!   64-bit mask each, so a router has at most 64 ports), and returns
//!   the mask of the outputs that departed; with telemetry on, each
//!   router's departures are recorded right after it arbitrates, and
//!   stall classification then walks its ready fronts through the same
//!   memo (a front still in the pipeline is on the wheel, not walked:
//!   pipeline time is not a stall), reading "this output advanced" from
//!   that mask, in the same pass over the routers. Each shard writes
//!   its own links' advances and stalls straight into the telemetry
//!   counters, so nothing is buffered or replayed;
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
//! - **borrowed shard ranges**: each window borrows only its own
//!   shard's routers and its contiguous range of every per-link table
//!   (channels, link timers, credits, class counters, feeders) and its
//!   scratch, split off with ordinary slices, so the compiler checks the
//!   partition; handing them to the pool's worker threads is the
//!   crate's one `unsafe` block.
//!
//! The naive full-scan stepper is retained as
//! [`RouterFabric::step_reference`] (arbitrating every (port, VC) via
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

mod cycle;
mod reference;
mod shard;
mod store;

pub use cycle::CycleRouter;
pub use shard::ShardError;
use shard::{ShardPool, ShardScratch};
pub use store::FlitStore;

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

/// A [`Flit`] without its VC: 24 bytes where `Flit` takes 32. The
/// fabric holds every queued and in-flight flit in this form, and the
/// VC beside it — a queue slot by the queue it sits in, an [`Arrival`]
/// in a field of its own — so no stored flit can disagree with its VC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PackedFlit {
    packet: u64,
    injected_at: u64,
    dest: u32,
    tag: u16,
    index: u8,
    of: u8,
}

impl PackedFlit {
    /// `flit` without its VC.
    fn new(flit: &Flit) -> Self {
        PackedFlit {
            packet: flit.packet,
            injected_at: flit.injected_at,
            dest: flit.dest,
            tag: flit.tag,
            index: flit.index,
            of: flit.of,
        }
    }

    /// The flit on VC `vc`.
    fn on_vc(self, vc: u8) -> Flit {
        Flit {
            packet: self.packet,
            index: self.index,
            of: self.of,
            dest: self.dest,
            vc,
            tag: self.tag,
            injected_at: self.injected_at,
        }
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
/// The decision must name one of the router's ports and one of the
/// fabric's VCs. Both steppers check it when they route a head and panic
/// naming the router, the decision and the counts otherwise, in release
/// builds too: an out-of-range VC would file the flit in another queue,
/// and an out-of-range port would never be granted.
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
pub(crate) type FlitClassFn = dyn Fn(&Flit) -> usize + Send + Sync;

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

/// One link's spec and traffic counters, owning no heap memory. The
/// serialization timer and the sender's credits live in the fabric's
/// flat `next_free` / `credits` tables — they are the arbitration hot
/// path, and a compact array is far cheaper to read than a stride
/// through these (larger) channel records — and the per-class counts in
/// its `class_flits` table.
#[derive(Clone, Copy, Debug, Default)]
struct ChannelState {
    spec: LinkSpec,
    /// Flits that have entered this link since construction.
    flits_sent: u64,
    /// Packets (tail flits) that have entered this link.
    packets_sent: u64,
}

/// A flit bound for input `(port, vc)` of `router`. On an arrival wheel
/// it is a flit in flight, landing at the cycle of its wheel slot: it
/// sits on the wheel of the shard owning `router`, and its landing
/// touches no credit (the sender spent one at departure).
#[derive(Clone, Copy, Debug)]
struct Arrival {
    flit: PackedFlit,
    router: u32,
    vc: u8,
    port: u8,
}

// A saturated fabric keeps thousands of bookings live; keep them small.
const _: () = assert!(std::mem::size_of::<Arrival>() == 32);

impl Arrival {
    /// `flit`, on its VC, bound for input `port` of `router`.
    fn new(flit: &Flit, router: usize, port: usize) -> Self {
        Arrival {
            flit: PackedFlit::new(flit),
            router: router as u32,
            vc: flit.vc,
            port: port as u8,
        }
    }

    /// The flit the booking carries, on its VC.
    fn flit(&self) -> Flit {
        self.flit.on_vc(self.vc)
    }
}

/// The longest link latency, in cycles, that
/// [`RouterFabric::set_link_spec`] accepts. Each shard's arrival wheel
/// has one slot per cycle of the longest latency, plus one; and a
/// torus fabric's neighbour inputs hold a link's whole bandwidth-delay
/// product ([`crate::fabric3d::TorusFabric::new`]), which must fit the
/// flit store's `u16` ring cursors anyway.
pub const MAX_LINK_LATENCY: u64 = u16::MAX as u64;

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
/// link's credit; while tracing, a head's injection lists an `Inject`
/// event.
pub struct InjectPort<'a> {
    cycle: u64,
    /// First router of the view.
    lo: usize,
    routers: &'a mut [CycleRouter],
    /// The whole fabric's `RouterFabric::link_off`.
    link_off: &'a [usize],
    /// The view's range of `RouterFabric::feeder`, from its first
    /// router's first input port.
    feeder: &'a [Option<u32>],
    /// The whole credit table, which an injection into a fed port
    /// spends from; `None` inside a shard window, where fed ports are out
    /// of reach (their sender may be another shard's router).
    credits: Option<&'a mut [u32]>,
    /// While tracing, the trace list of the view's shard, where a
    /// head's injection lists its `Inject` event under `rank`.
    trace: Option<&'a mut Vec<(u8, TraceEvent)>>,
    /// The trace order of this view's injections among one cycle's
    /// events ([`Telemetry::trace_listed`]): injections trace by rank,
    /// below every hop and delivery.
    pub(crate) rank: u8,
}

impl InjectPort<'_> {
    /// The cycle injections through this view happen at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Routers in the whole fabric (valid endpoint ids).
    pub fn router_count(&self) -> usize {
        self.link_off.len() - 1
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
        match (self.credit_of(router, port, vc), self.credits.as_deref()) {
            (None, _) => Ok(d.free_slots(port, vc)),
            (Some(at), Some(credits)) => Ok(credits[at] as usize),
            (Some(_), None) => Err(out_of_range),
        }
    }

    /// The credit an injection into the view's input `(router, port,
    /// vc)` spends, if a link feeds that port.
    fn credit_of(&self, router: usize, port: usize, vc: u8) -> Option<usize> {
        let input = self.link_off[router] + port - self.link_off[self.lo];
        let vcs = self.routers[router - self.lo].vcs;
        self.feeder[input].map(|up| up as usize * vcs + vc as usize)
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
        let cycle = self.cycle;
        flit.injected_at = cycle;
        self.routers[router - self.lo].accept(port, flit, cycle);
        if let (Some(at), Some(credits)) = (self.credit_of(router, port, vc), &mut self.credits) {
            credits[at] -= 1;
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
    /// Links: the flat per-link tables (wiring, channel specs and
    /// counters, link timers, the senders' credits, per-class flit
    /// counts and each input port's feeding link) and the link offsets.
    pub links: usize,
    /// Fabric scheduling: the shard bounds, shard scratch (the
    /// per-shard arrival wheels holding every flit in link flight,
    /// boundary outboxes, credit return lists and departure buffers),
    /// the boundary links and the delivery log. A wheel slot keeps the
    /// capacity of the busiest cycle it ever held, at 32 bytes a
    /// booking, so under load the wheels — longest link latency + 1
    /// slots per shard — dominate this bucket.
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

/// A fabric of cycle routers plus its wiring, stepped together, and what
/// its constructor adds (`T`): nothing for a hand-wired fabric, which
/// injects raw flits ([`Self::inject`]), and a shape and parameters for
/// the torus fabric ([`crate::fabric3d::TorusFabric`]), which injects packets.
pub struct RouterFabric<T = ()> {
    routers: Vec<CycleRouter>,
    /// VCs per router, one count fabric-wide: the stride of `credits`.
    vcs: usize,
    /// Flat start of each router's links (prefix sums of its port
    /// counts; `len == routers + 1`): router `r`'s output `out` is link
    /// `link_off[r] + out`, and its input port `out` has the same id.
    /// Every table below is indexed by these ids.
    link_off: Vec<usize>,
    /// `wiring[link]`: where each link leads.
    wiring: Vec<PortLink>,
    /// `channels[link]`, parallel to `wiring`.
    channels: Vec<ChannelState>,
    /// `next_free[link]`: first cycle each link can serialize another
    /// flit — flat mirror of the per-link timer.
    next_free: Vec<u64>,
    /// `credits[link * vcs + vc]`: the credits the link's sender holds
    /// for the input queue the link feeds — that queue's free slots,
    /// less the flits already in flight toward it. An ejection link
    /// never runs out (`u32::MAX`) and an unused port never has one (0),
    /// so every departure's credit check is one read of the sender's own
    /// entry.
    ///
    /// A departure onto a router link spends one, and so does an
    /// injection into a port a link feeds; a landing touches none. Each
    /// departure also returns one credit to the link feeding the queue
    /// it left, when the departure is applied: every router has
    /// arbitrated and every stall is classified by then, and nothing
    /// else reads a credit, so a return is uniformly visible one cycle
    /// later — matching the hardware credit loop, where a credit rides
    /// the reverse channel and can never beat the grant that freed it —
    /// instead of leaking mid-cycle to routers that happened to
    /// arbitrate later in the scan order. That uniformity is also what
    /// lets [`Self::set_shards`] arbitrate regions concurrently: checks
    /// see the same credits no matter which thread (or order) asks. An
    /// entry belongs to the shard owning its link's sender; a departure
    /// whose feeding sender is another shard's returns the credit at the
    /// epoch epilogue, and the window clamp of `step_epoch` keeps that
    /// delay invisible.
    credits: Vec<u32>,
    /// `feeder[input]`: the link landing on each input port (by the
    /// port's link id), if any — whose credit an injection into that
    /// port spends, and a departure from it returns.
    feeder: Vec<Option<u32>>,
    route: Box<RouteFn>,
    /// Optional per-flit class extraction feeding `class_flits`.
    classify: Option<Box<FlitClassFn>>,
    /// Flit classes per link (0 until [`Self::set_flit_classes`]).
    classes: usize,
    /// `class_flits[link * classes + class]`: flits that have entered
    /// each link, split by class.
    class_flits: Vec<u64>,
    cycle: u64,
    delivered: Vec<(u64, Flit)>, // (cycle, flit)
    /// Flits currently in link flight, booked on the shards' arrival
    /// wheels (skip arrival scans at 0).
    in_flight_total: usize,
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
    /// Per-shard state: the arrival wheel (landed by the owning shard's
    /// window, or by the reference stepper), plus the window's
    /// departures, boundary outbox, credit return list, deliveries and
    /// trace list.
    shard_scratch: Vec<ShardScratch>,
    /// Every router-to-router link whose ends live in different shards,
    /// ascending (empty with one shard). Drives the epoch window's
    /// credit-headroom clamp.
    boundary: Vec<usize>,
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
    /// What the fabric's constructor adds; the steppers never read it.
    pub(crate) topology: T,
}

impl RouterFabric {
    /// Builds a fabric from routers, wiring, and a routing function. All
    /// links default to [`LinkSpec::default`] (same-cycle, full-rate);
    /// override long links with [`Self::set_link_spec`]. Call it as
    /// `<RouterFabric>::new`: the torus fabric has a `new` of its own.
    ///
    /// # Panics
    /// Panics unless the wiring has one row per router and each row one
    /// entry per port of its router, and every router has the first
    /// router's VC count; and if a link lands on an input port that does
    /// not exist, or two links land on one input port.
    pub fn new(routers: Vec<CycleRouter>, wiring: Vec<Vec<PortLink>>, route: Box<RouteFn>) -> Self {
        Self::with_topology(routers, wiring, route, ())
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
}

impl<T> RouterFabric<T> {
    /// [`RouterFabric::new`], adding `topology`.
    pub(crate) fn with_topology(
        routers: Vec<CycleRouter>,
        wiring: Vec<Vec<PortLink>>,
        route: Box<RouteFn>,
        topology: T,
    ) -> Self {
        assert_eq!(
            routers.len(),
            wiring.len(),
            "wiring rows must match routers"
        );
        let vcs = routers.first().map_or(1, |r| r.vcs);
        let mut link_off = Vec::with_capacity(routers.len() + 1);
        link_off.push(0);
        for (r, (router, row)) in routers.iter().zip(&wiring).enumerate() {
            assert_eq!(
                row.len(),
                router.ports,
                "wiring row {r} needs one entry per port"
            );
            assert_eq!(
                router.vcs, vcs,
                "router {r} must have the fabric's VC count"
            );
            link_off.push(link_off[r] + row.len());
        }
        // Exact-size tables: a fresh mega-fabric pays for every byte of
        // capacity.
        let links = link_off[routers.len()];
        let (mut flat, mut feeder) = (Vec::with_capacity(links), vec![None; links]);
        let mut credits = Vec::with_capacity(links * vcs);
        for link in wiring.into_iter().flatten() {
            if let PortLink::Router { router, port } = link {
                assert!(
                    port < routers[router].ports,
                    "a link lands on missing input ({router}, {port})"
                );
                let fed = feeder[link_off[router] + port].replace(flat.len() as u32);
                assert!(fed.is_none(), "two links land on input ({router}, {port})");
            }
            // Each sender starts with the depth of the queue its link feeds.
            credits.extend((0..vcs).map(|v| match link {
                PortLink::Router { router, port } => {
                    routers[router].store.capacity(port * vcs + v) as u32
                }
                PortLink::Endpoint(_) => u32::MAX,
                PortLink::Unused => 0,
            }));
            flat.push(link);
        }
        let mut fabric = RouterFabric {
            routers,
            vcs,
            link_off,
            wiring: flat,
            channels: vec![ChannelState::default(); links],
            next_free: vec![0; links],
            credits,
            feeder,
            route,
            classify: None,
            classes: 0,
            class_flits: Vec::new(),
            cycle: 0,
            delivered: Vec::new(),
            in_flight_total: 0,
            telemetry: None,
            bounds: Vec::new(),
            shard_scratch: Vec::new(),
            boundary: Vec::new(),
            min_pos_latency: u64::MAX,
            lookahead_cap: None,
            sync_ops: 0,
            epochs: 0,
            cycles_stepped: 0,
            pool: None,
            topology,
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
        let tel = Telemetry::new(cfg, &self.link_off, self.vcs, self.cycle);
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
        b.links = self.wiring.capacity() * size_of::<PortLink>()
            + self.channels.capacity() * size_of::<ChannelState>()
            + self.next_free.capacity() * size_of::<u64>()
            + self.credits.capacity() * size_of::<u32>()
            + self.feeder.capacity() * size_of::<Option<u32>>()
            + self.class_flits.capacity() * size_of::<u64>()
            + self.link_off.capacity() * size_of::<usize>();
        b.scheduling = self.bounds.capacity() * size_of::<usize>()
            + self.delivered.capacity() * size_of::<(u64, Flit)>()
            + self.boundary.capacity() * size_of::<usize>()
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
    /// Every arrival wheel grows to one slot more than the longest link
    /// latency set so far; [`Self::set_shards`] sizes them to the
    /// longest latency the links have then.
    ///
    /// # Panics
    /// Panics if `spec.interval` is zero; if `spec.latency` exceeds
    /// [`MAX_LINK_LATENCY`], or is positive on a port that does not lead
    /// to another router (ejection links deliver the cycle they
    /// serialize; see [`LinkSpec`]), or zero on a router link of a
    /// sharded fabric (see [`ShardError::ZeroLatencyLink`]); or if it
    /// changes the latency of a link with flits in flight (they were
    /// booked at the old one), or grows the longest link latency while
    /// any flit is in flight (the arrival wheels would have to grow).
    pub fn set_link_spec(&mut self, router: usize, port: usize, spec: LinkSpec) {
        assert!(
            spec.interval >= 1,
            "link interval must be at least one cycle"
        );
        assert!(
            spec.latency <= MAX_LINK_LATENCY,
            "link latency {} exceeds the {MAX_LINK_LATENCY}-cycle maximum",
            spec.latency
        );
        let link = self.link(router, port);
        let to_router = matches!(self.wiring[link], PortLink::Router { .. });
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
                || spec.latency == self.channels[link].spec.latency
                || self.in_flight_on(link) == 0,
            "cannot change the latency of link ({router}, {port}) with flits in flight"
        );
        if spec.latency + 1 > self.wheel_len() {
            assert_eq!(
                self.in_flight_total, 0,
                "cannot grow the arrival wheels with flits in flight"
            );
            for sc in &mut self.shard_scratch {
                sc.wheel = vec![Vec::new(); spec.latency as usize + 1];
            }
        }
        // Conservative incremental update of the structural lookahead
        // bound: raising a latency later leaves the bound stale-low
        // (smaller windows than allowed — never incorrect ones);
        // [`Self::set_shards`] recomputes it exactly.
        if spec.latency >= 1 {
            self.min_pos_latency = self.min_pos_latency.min(spec.latency);
        }
        self.channels[link].spec = spec;
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
        let feeding = self.feeder[self.link(router, port)].map(|up| up as usize);
        // Skip the in-flight count when nothing is in flight anywhere —
        // always so on the construction path, where a torus fabric
        // resizes every neighbor port.
        if let Some(up) = feeding.filter(|_| self.in_flight_total > 0) {
            assert_eq!(
                self.in_flight_on(up),
                0,
                "cannot resize input ({router}, {port}): feeding link has flits in flight holding its credits"
            );
        }
        self.routers[router].set_input_depth(port, depth);
        if let Some(up) = feeding {
            for v in 0..self.vcs {
                self.credits[up * self.vcs + v] =
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
        let ch = &self.channels[self.link(router, port)];
        (ch.flits_sent, ch.packets_sent)
    }

    /// The flat id of `router`'s link (and input port) `port`; panics
    /// if the router has no such port.
    fn link(&self, router: usize, port: usize) -> usize {
        let link = self.link_off[router] + port;
        assert!(
            link < self.link_off[router + 1],
            "router {router} has no port {port}"
        );
        link
    }

    /// The flat id of `router`'s input `port`, checking that input VC
    /// `vc` exists; panics if the router has no such port or the fabric
    /// no such VC.
    fn queue(&self, router: usize, port: usize, vc: u8) -> usize {
        assert!((vc as usize) < self.vcs, "the fabric has no VC {vc}");
        self.link(router, port)
    }

    /// Flits in flight on `link`: the free slots of the downstream queue
    /// its sender holds no credit for. Exact between steps, when every
    /// credit return has landed.
    fn in_flight_on(&self, link: usize) -> usize {
        let PortLink::Router { router, port } = self.wiring[link] else {
            return 0;
        };
        (0..self.vcs)
            .map(|v| {
                self.routers[router].free_slots(port, v as u8)
                    - self.credits[link * self.vcs + v] as usize
            })
            .sum()
    }

    /// Instantaneous occupancy of the link leaving `router` via `port`:
    /// flits in flight on the link plus flits queued in the downstream
    /// input port it feeds — the same sample the telemetry epoch rings
    /// record at each boundary, exposed so exports can close the final
    /// partial epoch with a matching sample.
    pub fn link_occupancy(&self, router: usize, port: usize) -> usize {
        self.occupancy_of(self.link(router, port))
    }

    /// [`Self::link_occupancy`] of `link`, counted from its sender's
    /// credits: between steps every credit return has landed, so the
    /// downstream queue's depth less the credits is exactly the flits
    /// in flight and queued there. Other links hold none.
    fn occupancy_of(&self, link: usize) -> usize {
        let PortLink::Router { router, port } = self.wiring[link] else {
            return 0;
        };
        let store = &self.routers[router].store;
        (0..self.vcs)
            .map(|v| {
                store.capacity(port * self.vcs + v) - self.credits[link * self.vcs + v] as usize
            })
            .sum()
    }

    /// Enables per-class link traffic counters: every flit entering a
    /// link is additionally counted under `classify(&flit)`, which must
    /// return an index below `classes`. A setup-time operation — calling
    /// it resets any previously accumulated per-class counts.
    pub(crate) fn set_flit_classes(&mut self, classes: usize, classify: Box<FlitClassFn>) {
        assert!(classes > 0, "need at least one flit class");
        self.classes = classes;
        self.class_flits = vec![0; self.wiring.len() * classes];
        self.classify = Some(classify);
    }

    /// Cumulative per-class flit counts of the link leaving `router` via
    /// `port` (parallel to [`Self::link_traffic`]); empty unless the
    /// constructor set flit classes. Feeds the per-kind wire byte
    /// accounting of [`crate::fabric3d::TorusFabric::link_stats`].
    pub fn link_class_traffic(&self, router: usize, port: usize) -> &[u64] {
        let link = self.link(router, port);
        &self.class_flits[link * self.classes..(link + 1) * self.classes]
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
        match self.feeder[self.queue(router, port, vc)] {
            Some(up) => self.credits[up as usize * self.vcs + vc as usize] as usize,
            None => self.routers[router].free_slots(port, vc),
        }
    }

    /// Flits currently queued on input `(router, port, vc)`.
    ///
    /// # Panics
    /// Panics if the queue does not exist (see
    /// [`InjectError::QueueOutOfRange`]).
    pub fn queue_len(&self, router: usize, port: usize, vc: u8) -> usize {
        self.queue(router, port, vc);
        self.routers[router].queue_len(port, vc)
    }

    /// Runs `f` with an [`InjectPort`] over every router and input
    /// queue at the current cycle, then traces its injections — the
    /// serial counterpart of the view a shard window hands its
    /// endpoint.
    pub(crate) fn inject_with<R>(&mut self, f: impl FnOnce(&mut InjectPort<'_>) -> R) -> R {
        let tracing = self.telemetry.as_ref().is_some_and(|t| t.config().trace);
        let mut view = InjectPort {
            cycle: self.cycle,
            lo: 0,
            routers: &mut self.routers,
            link_off: &self.link_off,
            feeder: &self.feeder,
            credits: Some(&mut self.credits[..]),
            trace: tracing.then_some(&mut self.shard_scratch[0].trace),
            rank: 0,
        };
        let out = f(&mut view);
        self.flush_trace();
        out
    }

    /// Traces the events the steppers listed where they happened —
    /// injections, head hops onto router links and deliveries, in one
    /// `(order, event)` list per shard — through
    /// [`Telemetry::trace_listed`]'s one stable sort on (cycle, order),
    /// over the lists in shard order. Shards own ascending router ranges
    /// and list a cycle's hops and deliveries in router order, so each
    /// cycle's hops and deliveries trace by ascending router, at every
    /// shard count. Flushed by the epoch kernel's epilogue, at the end
    /// of [`Self::step_reference`] and by [`Self::inject_with`].
    fn flush_trace(&mut self) {
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        let (first, rest) = self.shard_scratch.split_at_mut(1);
        let trace = &mut first[0].trace;
        for sc in rest {
            trace.append(&mut sc.trace);
        }
        tel.trace_listed(trace);
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

    /// Telemetry pre-phase, shared by both steppers: flushes the
    /// per-link epoch ring when this cycle has crossed an epoch
    /// boundary (sampling each link's occupancy — in-flight flits plus
    /// the downstream queue — at the boundary).
    fn telemetry_begin_step(&mut self) {
        let Some(mut tel) = self.telemetry.take() else {
            return;
        };
        if tel.roll_due(self.cycle) {
            let mut occ = tel.take_occ_scratch();
            occ.extend((0..self.wiring.len()).map(|link| self.occupancy_of(link) as u32));
            tel.roll(self.cycle, occ);
        }
        self.telemetry = Some(tel);
    }

    /// Advances the fabric one cycle: link arrivals land, every router
    /// with work arbitrates, in index order, departures return their
    /// credits and enter their links (same-cycle for latency-0 links),
    /// ejections are recorded. A one-cycle epoch of
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
    /// shards' deliveries and trace events in the serial (cycle,
    /// ascending router) order.
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
            for router in 0..n {
                for link in self.link_off[router]..self.link_off[router + 1] {
                    if matches!(self.wiring[link], PortLink::Router { .. })
                        && self.channels[link].spec.latency == 0
                    {
                        let port = link - self.link_off[router];
                        return Err(ShardError::ZeroLatencyLink { router, port });
                    }
                }
            }
        }
        // Exact recompute of the structural lookahead bound (link specs
        // may have been raised since construction).
        self.min_pos_latency = self
            .channels
            .iter()
            .map(|ch| ch.spec.latency)
            .filter(|&latency| latency >= 1)
            .min()
            .unwrap_or(u64::MAX);
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
        // Drained, so every wheel is empty: size them to the longest
        // link latency, plus one.
        let longest = self.channels.iter().map(|ch| ch.spec.latency).max();
        let wheel_len = longest.unwrap_or(0) as usize + 1;
        self.shard_scratch = (0..shards).map(|_| ShardScratch::new(wheel_len)).collect();

        // Boundary links: every router-to-router link whose ends fall in
        // different regions.
        self.boundary.clear();
        for region in self.bounds.windows(2).map(|b| b[0]..b[1]) {
            for link in self.link_off[region.start]..self.link_off[region.end] {
                if matches!(self.wiring[link], PortLink::Router { router, .. } if !region.contains(&router))
                {
                    self.boundary.push(link);
                }
            }
        }
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
        if self.routers.iter().all(CycleRouter::is_idle) {
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
    /// link flight. Costs O(routers).
    pub fn occupancy(&self) -> usize {
        let queued: usize = self.routers.iter().map(CycleRouter::occupancy).sum();
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
    <RouterFabric>::new(routers, wiring, route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::StallBreakdown;

    pub(super) fn flit(packet: u64, index: u8, of: u8, dest: u32, vc: u8) -> Flit {
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
        let mut fabric = <RouterFabric>::new(routers, wiring, route);
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
        let mut fabric = <RouterFabric>::new(routers, wiring, route);
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
    #[should_panic(expected = "the fabric has no VC 2")]
    fn inject_capacity_refuses_a_vc_past_the_last() {
        // Unchecked, the credit index `up * vcs + vc` reads the next
        // link's entry (router 0's ejection sentinel).
        build_row(2, 2, 2).inject_capacity(1, 0, 2);
    }

    #[test]
    #[should_panic(expected = "the fabric has no VC 2")]
    fn queue_len_refuses_a_vc_past_the_last() {
        // Unchecked, queue `port * vcs + vc` is port 1's VC 0.
        build_row(2, 2, 2).queue_len(0, 0, 2);
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

    /// A 2-router row whose link `(0, 1)` has `latency` cycles of flight.
    fn long_link_row(latency: u64) -> RouterFabric {
        let mut fabric = build_row(2, 2, 2);
        let spec = LinkSpec {
            latency,
            interval: 1,
        };
        fabric.set_link_spec(0, 1, spec);
        fabric
    }

    #[test]
    fn the_longest_link_latency_delivers_exactly() {
        for shards in [1, 2] {
            let mut fabric = long_link_row(MAX_LINK_LATENCY);
            fabric.set_shards(shards).unwrap();
            assert_eq!(fabric.wheel_len(), MAX_LINK_LATENCY + 1);
            fabric.inject(0, 0, flit(1, 0, 1, 1, 0)).unwrap();
            assert!(fabric.run_until_drained(MAX_LINK_LATENCY + 10));
            let (at, f) = fabric.delivered()[0];
            assert_eq!(at - f.injected_at, 2 + MAX_LINK_LATENCY + 2);
        }
    }

    #[test]
    #[should_panic(expected = "link latency 65536 exceeds the 65535-cycle maximum")]
    fn a_link_latency_past_the_maximum_is_refused() {
        long_link_row(MAX_LINK_LATENCY + 1);
    }

    #[test]
    #[should_panic(expected = "link latency 18446744073709551615 exceeds the 65535-cycle maximum")]
    fn a_link_latency_of_u64_max_is_refused() {
        long_link_row(u64::MAX);
    }

    #[test]
    fn every_flit_lands_exactly_one_latency_after_departing() {
        // Around the old power-of-two wheel lengths: one flit departs
        // per cycle, so a whole latency of flits is in flight and every
        // wheel slot is reused as soon as it lands.
        for latency in [1, 2, 63, 64, 65, 79, 80, 81, 127, 128, 129] {
            for (shards, reference) in [(1, false), (1, true), (2, false), (2, true)] {
                let case = format!("latency {latency}, {shards} shard(s), reference {reference}");
                let mut fabric = long_link_row(latency);
                assert_eq!(fabric.wheel_len(), latency + 1, "{case}: set_link_spec");
                fabric.set_input_depth(1, 0, latency as usize + 8);
                fabric.set_shards(shards).unwrap();
                let lens: Vec<usize> = fabric.shard_scratch.iter().map(|s| s.wheel.len()).collect();
                assert_eq!(
                    lens,
                    vec![latency as usize + 1; shards],
                    "{case}: set_shards"
                );
                let mut departed = Vec::new();
                while fabric.cycle() < 3 * latency || fabric.occupancy() > 0 {
                    assert!(fabric.cycle() < 4 * latency + 100, "{case}: no drain");
                    let cycle = fabric.cycle();
                    if cycle < 3 * latency && fabric.inject_capacity(0, 0, 0) > 0 {
                        fabric.inject(0, 0, flit(cycle, 0, 1, 1, 0)).unwrap();
                    }
                    let sent = fabric.link_traffic(0, 1).0;
                    if reference {
                        fabric.step_reference();
                    } else {
                        fabric.step();
                    }
                    if fabric.link_traffic(0, 1).0 > sent {
                        departed.push(cycle + latency);
                    }
                }
                // Router 1 forwards each flit the pipeline's 2 cycles
                // after it lands: landings are at least a cycle apart.
                let landed: Vec<u64> = fabric.delivered().iter().map(|d| d.0 - 2).collect();
                assert_eq!(landed, departed, "{case}");
            }
        }
    }

    #[test]
    fn extreme_flits_survive_queue_slots_and_bookings_bit_for_bit() {
        // Both drop the VC — the queue's or the booking's own — and must
        // restore it, on every VC a router can have. A zero-cycle
        // pipeline makes each front ready as it lands, so it can depart
        // at its arrival cycle.
        let mut router = CycleRouter::new(0, 1, 256, 0);
        for vc in 0..=u8::MAX {
            let f = Flit {
                packet: u64::MAX,
                index: 254,
                of: 255,
                dest: u32::MAX,
                vc,
                tag: u16::MAX,
                injected_at: u64::MAX,
            };
            let booking = Arrival::new(&f, u32::MAX as usize, 255);
            assert_eq!(
                (booking.flit(), booking.router, booking.port),
                (f, u32::MAX, 255)
            );
            router.accept(0, f, 7);
            assert_eq!(router.front(0, vc), Some((f, 7)));
            let route = |_: &Flit, _: usize| -> RouteDecision { unreachable!("no front follows") };
            assert_eq!(router.depart(0, 0, vc, vc, u16::MAX, &route), f);
        }
        assert!(router.is_idle());
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
        // a departure returns its credit only at the epoch epilogue.
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

    #[test]
    fn link_occupancy_is_what_entered_and_has_not_left() {
        // Every flit router 0 forwards crosses a 30-cycle link into
        // router 1's queue and ejects there, so the link's sample — read
        // from its sender's credits — is the flits injected, less those
        // still queued at router 0 and those delivered, at every cycle
        // and under both steppers.
        for reference in [false, true] {
            let mut f = build_row(2, 2, 2);
            let spec = LinkSpec {
                latency: 30,
                interval: 1,
            };
            f.set_link_spec(0, 1, spec);
            let mut injected = 0;
            for cycle in 0..1_000u64 {
                if cycle < 200
                    && f.inject(0, 0, flit(cycle, 0, 1, 1, cycle as u8 % 2))
                        .is_ok()
                {
                    injected += 1;
                }
                if reference {
                    f.step_reference();
                } else {
                    f.step();
                }
                let queued: usize = (0..2).map(|vc| f.queue_len(0, 0, vc)).sum();
                assert_eq!(
                    f.link_occupancy(0, 1),
                    injected - queued - f.delivered().len(),
                    "cycle {cycle}, reference stepper: {reference}"
                );
                if cycle >= 200 && f.occupancy() == 0 {
                    break;
                }
            }
            assert_eq!(f.occupancy(), 0, "the row drains");
            assert_eq!(f.delivered().len(), injected);
        }
    }

    /// Builds a fabric of 2-port routers with `vcs[r]` VCs each, wired
    /// by `wiring`.
    fn fabric_of(vcs: &[usize], wiring: Vec<Vec<PortLink>>) -> RouterFabric {
        let routers = vcs
            .iter()
            .enumerate()
            .map(|(r, &vcs)| CycleRouter::new(r, 2, vcs, 1))
            .collect();
        <RouterFabric>::new(
            routers,
            wiring,
            Box::new(|f: &Flit, _| RouteDecision::keep(1, f)),
        )
    }

    #[test]
    #[should_panic(expected = "wiring row 1 needs one entry per port")]
    fn a_short_wiring_row_is_refused() {
        // Flat link ids would give router 1's port 1 no link at all.
        let eject = |id| vec![PortLink::Unused, PortLink::Endpoint(id)];
        fabric_of(&[1, 1], vec![eject(0), vec![PortLink::Unused]]);
    }

    #[test]
    #[should_panic(expected = "wiring row 0 needs one entry per port")]
    fn a_long_wiring_row_is_refused() {
        // Router 0's third entry would take router 1's first link id.
        let eject = |id| vec![PortLink::Unused, PortLink::Endpoint(id)];
        let mut long = eject(0);
        long.push(PortLink::Endpoint(9));
        fabric_of(&[1, 1], vec![long, eject(1)]);
    }

    #[test]
    #[should_panic(expected = "router 1 must have the fabric's VC count")]
    fn mixed_vc_counts_are_refused() {
        // Unconnected routers too: the credit table has one stride.
        let eject = |id| vec![PortLink::Unused, PortLink::Endpoint(id)];
        fabric_of(&[2, 1], vec![eject(0), eject(1)]);
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

    /// What stepping a 2-router, 2-VC `build_row` whose route function
    /// is `decide` does to a one-flit packet from router 0 to router 1,
    /// under `step_reference` or `step`: the panic message, or
    /// `"no panic"` after 50 cycles.
    fn misrouted_row(decide: fn(&Flit, usize) -> RouteDecision, reference: bool) -> String {
        let mut fabric = build_row(2, 2, 1);
        fabric.route = Box::new(decide);
        fabric.inject(0, 0, flit(1, 0, 1, 1, 0)).unwrap();
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..50 {
                if reference {
                    fabric.step_reference();
                } else {
                    fabric.step();
                }
            }
        }));
        match stepped {
            Ok(()) => "no panic".to_string(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
        }
    }

    #[test]
    fn a_route_to_a_vc_past_the_vc_count_is_refused() {
        let vc2 = |f: &Flit, router: usize| RouteDecision {
            port: if f.dest as usize == router { 2 } else { 1 },
            vc: 2,
            tag: f.tag,
        };
        for reference in [false, true] {
            assert_eq!(
                misrouted_row(vc2, reference),
                "router 0 routed a head to port 1 VC 2, but it has 3 ports and 2 VCs",
                "reference stepper: {reference}"
            );
        }
    }

    #[test]
    fn a_route_to_a_port_past_the_port_count_is_refused() {
        let port3 = |f: &Flit, _: usize| RouteDecision::keep(3, f);
        for reference in [false, true] {
            assert_eq!(
                misrouted_row(port3, reference),
                "router 0 routed a head to port 3 VC 0, but it has 3 ports and 2 VCs",
                "reference stepper: {reference}"
            );
        }
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
    fn a_head_behind_an_owners_continuation_lost_arbitration_not_credit() {
        // One router with an 8-cycle pipeline: output 1 loops back into
        // its own input 1, whose VC 1 holds one flit, and output 2
        // ejects; a flit's first hop loops, its second ejects. At cycle
        // 8 packet 10 takes VC 1's only credit on output 1 and lands in
        // the loop queue until it ejects at 16, so packet 11's head,
        // behind it on VC 1, waits on output 1 with no credit from 8 to
        // 16. Packet 1 streams through output 1 on VC 0 from 9 to 12:
        // its head is a pick, its body an owner's continuation. Output 1
        // advanced on cycles 8 to 12, so packet 11 lost arbitration
        // then, whatever its credit, and was credit-starved from 13 to
        // 16.
        for reference in [false, true] {
            let mut router = CycleRouter::new(0, 3, 2, 8);
            // Input 1's VC 1, flat queue `1 * vcs + 1`.
            router.store.set_cap(3, 1);
            let wiring = vec![vec![
                PortLink::Unused,
                PortLink::Router { router: 0, port: 1 },
                PortLink::Endpoint(0),
            ]];
            let route = Box::new(|f: &Flit, _: usize| RouteDecision {
                port: 1 + usize::from(f.tag),
                vc: f.vc,
                tag: 1,
            });
            let mut f = <RouterFabric>::new(vec![router], wiring, route);
            f.enable_telemetry(TelemetryConfig::default());
            for cycle in 0..30 {
                let sent: &[Flit] = match cycle {
                    0 => &[flit(10, 0, 1, 0, 1), flit(11, 0, 1, 0, 1)],
                    1 => &[0, 1, 2, 3].map(|i| flit(1, i, 4, 0, 0)),
                    _ => &[],
                };
                for &flit in sent {
                    f.inject(0, 0, flit).unwrap();
                }
                if reference {
                    f.step_reference();
                } else {
                    f.step();
                }
            }
            let tel = f.telemetry().expect("telemetry on");
            let count = |cause| tel.stall_count(0, 1, 1, cause);
            let at = format!("reference={reference}");
            assert_eq!(count(StallCause::LostArbitration), 5, "{at}");
            assert_eq!(count(StallCause::CreditStarved), 4, "{at}");
            assert_eq!(f.delivered().len(), 6, "{at}");
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
