//! The full inter-node 3D torus as a cycle-level router fabric.
//!
//! [`crate::router::build_row`] models a single on-chip row; this module
//! scales the same microarchitecture to a whole machine: one
//! node-granular router per torus node (standing in for the node's Edge
//! Network + Channel Adapters), per-hop route computation that
//! reproduces [`crate::routing`] exactly from state carried in each
//! flit's [`Flit::tag`], and — matching the paper's §II-B channel
//! organization — **two physical channel slices per neighbor**: each of
//! the six torus directions is reached over two independent 8-lane slice
//! links with their own credits, serialization occupancy, and traffic
//! counters. A packet draws its slice once (with its dimension order and
//! base VC) and rides it on every hop, exactly like
//! [`crate::routing::RoutePlan::slice`]; the slice-to-side mapping is
//! [`anton_model::asic::side_for_slice`], shared with the analytic
//! [`crate::path`] model so the two use one slice-selection rule.
//!
//! Two traffic classes ride the fabric (paper §III-B2):
//!
//! - **requests** ([`TrafficClass::Request`]) use randomized minimal
//!   oblivious routing over four dateline VCs (`0..4`);
//! - **responses** ([`TrafficClass::Response`]) are restricted to plain
//!   XYZ mesh routing on non-wraparound links
//!   ([`routing::mesh_first_hop`]) and ride the single
//!   [`routing::RESPONSE_VC`], so a request→response dependency cycle is
//!   structurally impossible: the classes never share a VC, and each
//!   class's channel-dependency graph is acyclic on its own.
//!
//! Calibration ([`FabricParams::calibrated`]) splits the analytic
//! per-hop latency of [`crate::path::one_way`] into a short router
//! pipeline (CA processing + INZ + two Edge Router hops, where the
//! paper's 8-flit credit loop applies) and a long link delay line
//! (SERDES PHYs + wire), whose flits in flight hold their sender's
//! credits for the queue they land in, so that under zero load the cycle
//! fabric and the closed-form model agree on the per-hop constant, while
//! under load the fabric exhibits real contention: arbitration, HOL
//! blocking, credit exhaustion and saturation. Each slice serializes 192
//! bits over its 8 lanes at 29 Gb/s — 2.32 core cycles per flit — so one
//! slice sustains a flit every [`FabricParams::link_interval`] cycles
//! and the two slices together recover the aggregate one-flit-per-cycle
//! channel of the paper's 16-lane neighbor bundle.
//!
//! All traffic enters through one endpoint: [`TorusFabric::inject`]
//! takes a [`PacketSpec`] — destination, traffic class, channel slice,
//! flit count, routing draw, and a [`ByteKind`]-typed payload — and
//! returns the exact [`RoutePlan`] the fabric will walk, so harnesses
//! can reconcile delivered traffic against independent route walks.
//! Every flit carries its packet's byte kind in the routing tag, and the
//! per-link counters split by it, so [`TorusFabric::link_stats`] types
//! wire bytes (position / force / other) with the same
//! [`crate::channel::ByteKind`] accounting the analytic
//! [`crate::adapter::CaLink`] uses for Figure 9a.
//!
//! ```
//! use anton_model::latency::LatencyModel;
//! use anton_model::topology::{NodeId, Torus};
//! use anton_net::fabric3d::{FabricParams, PacketSpec, TorusFabric};
//! use anton_sim::rng::SplitMix64;
//!
//! let params = FabricParams::calibrated(&LatencyModel::default());
//! let mut fabric = TorusFabric::new(Torus::new([2, 2, 2]), params);
//! let mut rng = SplitMix64::new(7);
//! let spec = PacketSpec::request(NodeId(0), NodeId(7), 1, 2).drawn(&mut rng);
//! let plan = fabric.inject(spec).expect("empty fabric has credits");
//! assert_eq!(plan.hop_count(), 3);
//! assert!(fabric.run_until_drained(10_000));
//! assert_eq!(fabric.delivered().len(), 2); // both flits arrived
//! ```

use crate::channel::{ByteKind, LinkStats};
use crate::router::{
    CycleRouter, Flit, InjectError, InjectPort, LinkSpec, MemoryBreakdown, PortLink, RouteDecision,
    RouterFabric,
};
use crate::routing::{self, RoutePlan, RESPONSE_VC};
use crate::telemetry::{
    ClassStallSummary, LinkEpochSeries, LinkSummary, StallBreakdown, TelemetrySummary,
    TELEMETRY_SCHEMA_VERSION,
};
use crate::{chip::ChipLoc, path};
use anton_model::asic::{self, EDGE_VCS, FLIT_BITS, LANES_PER_SLICE, SLICES_PER_NEIGHBOR};
use anton_model::latency::LatencyModel;
use anton_model::topology::{Dim, DimOrder, Direction, NodeId, Torus, TorusCoord};
use anton_model::units::{serialization_time, Ps, PS_PER_CORE_CYCLE, SERDES_GBPS};
use anton_sim::rng::SplitMix64;

/// Physical channel slices per neighbor link (paper §V-C).
pub const SLICES: usize = SLICES_PER_NEIGHBOR;
/// Input port used for injection at each node router.
pub const INJECT_PORT: usize = 6 * SLICES;
/// Output port used for ejection at each node router.
pub const EJECT_PORT: usize = INJECT_PORT + 1;
/// Ports per node router: six neighbors × two slices + inject + eject.
pub const NODE_PORTS: usize = EJECT_PORT + 1;
/// Bytes per flit on the wire (192 bits).
pub const FLIT_BYTES: u64 = (FLIT_BITS / 8) as u64;

/// The router port of the slice link toward `dir` on channel slice
/// `slice`. Routed through [`asic::side_for_slice`] — the same
/// slice-to-chip-side rule the analytic [`crate::path`] model places
/// Channel Adapters with — so the cycle fabric and the formula model
/// cannot disagree about which physical link a slice draw selects.
pub fn slice_port(dir: Direction, slice: usize) -> usize {
    dir.index() * SLICES + asic::side_for_slice(slice).index()
}

/// The two traffic classes of the inter-node network (paper §III-B2),
/// defined beside the packet kinds in [`crate::packet`]. Requests ride
/// randomized minimal oblivious routes over the four dateline VCs
/// (`0..4`); responses ride XYZ mesh routes on the single
/// [`RESPONSE_VC`].
pub use crate::packet::TrafficClass;

/// The decoded contents of a [`Flit::tag`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TagInfo {
    /// Which traffic class the packet belongs to.
    pub class: TrafficClass,
    /// Physical channel slice (0 or 1) used on every hop.
    pub slice: usize,
    /// Dimension-order index (requests; 0 for responses).
    pub order_idx: usize,
    /// Base VC draw (requests; 0 for responses).
    pub base_vc: u8,
    /// Whether a dateline has been crossed (requests; false for
    /// responses, which never wrap).
    pub crossed: bool,
    /// The wire-byte kind of the packet's payload (Figure 9a typing).
    pub kind: ByteKind,
}

const TAG_SLICE_BIT: u16 = 5;
const TAG_RESPONSE_BIT: u16 = 6;
const TAG_KIND_SHIFT: u16 = 7;

/// Packs request-packet routing state into a [`Flit::tag`]: bits 0–2 the
/// dimension-order index, bit 3 the base VC, bit 4 whether a dateline
/// has been crossed, bit 5 the channel slice, bits 7–8 the
/// [`ByteKind`] counter index.
pub fn encode_request_tag(
    order_idx: usize,
    base_vc: u8,
    crossed: bool,
    slice: usize,
    kind: ByteKind,
) -> u16 {
    debug_assert!(order_idx < 6 && base_vc < 2 && slice < SLICES);
    (order_idx as u16)
        | ((base_vc as u16) << 3)
        | ((crossed as u16) << 4)
        | ((slice as u16) << TAG_SLICE_BIT)
        | ((kind.index() as u16) << TAG_KIND_SHIFT)
}

/// Packs response-packet routing state into a [`Flit::tag`]: bit 6 marks
/// the class, bit 5 the channel slice, bits 7–8 the [`ByteKind`]; the
/// mesh route needs no other per-packet state.
pub fn encode_response_tag(slice: usize, kind: ByteKind) -> u16 {
    debug_assert!(slice < SLICES);
    (1 << TAG_RESPONSE_BIT)
        | ((slice as u16) << TAG_SLICE_BIT)
        | ((kind.index() as u16) << TAG_KIND_SHIFT)
}

/// Unpacks a routing tag.
pub fn decode_tag(tag: u16) -> TagInfo {
    let slice = ((tag >> TAG_SLICE_BIT) & 1) as usize;
    let kind = ByteKind::from_index(((tag >> TAG_KIND_SHIFT) & 0b11) as usize);
    if tag & (1 << TAG_RESPONSE_BIT) != 0 {
        TagInfo {
            class: TrafficClass::Response,
            slice,
            order_idx: 0,
            base_vc: 0,
            crossed: false,
            kind,
        }
    } else {
        TagInfo {
            class: TrafficClass::Request,
            slice,
            order_idx: (tag & 0b111) as usize,
            base_vc: ((tag >> 3) & 1) as u8,
            crossed: tag & 0b1_0000 != 0,
            kind,
        }
    }
}

/// Everything the fabric needs to know about one packet, in one value:
/// the single argument of [`TorusFabric::inject`].
///
/// A spec carries the packet's identity (`id`, `nflits`), its endpoints,
/// its traffic class, its [`ByteKind`]-typed payload, and the complete
/// routing draw (dimension order, channel slice, base VC for requests;
/// slice for responses). Because the draw lives **in the spec**, the
/// no-retry-bias rule of the oblivious randomization is structural: a
/// rejected injection is retried by re-submitting the *same* spec, so
/// backpressure can never steer a packet onto an uncongested slice, VC,
/// or dimension order. Draw once with [`PacketSpec::drawn`] (or pin a
/// draw with [`PacketSpec::with_draw`] / [`PacketSpec::with_slice`]),
/// then retry the value verbatim until it is accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketSpec {
    /// Source node (the injecting router).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packet identifier carried by every flit.
    pub id: u64,
    /// Flits in the packet (the paper's packets are one or two).
    pub nflits: u8,
    /// Traffic class: request (oblivious torus) or response (XYZ mesh).
    pub class: TrafficClass,
    /// Wire-byte typing of the payload (Figure 9a accounting).
    pub kind: ByteKind,
    /// Physical channel slice (0 or 1) used on every hop.
    pub slice: usize,
    /// Dimension-order index (`0..6`, requests only; ignored and kept 0
    /// for responses).
    pub order_idx: usize,
    /// Base VC draw (`0..2`, requests only; responses ride
    /// [`RESPONSE_VC`]).
    pub base_vc: u8,
}

impl PacketSpec {
    /// A request-class spec with an undrawn route (order 0, slice 0,
    /// base VC 0) and untyped ([`ByteKind::Other`]) payload.
    pub fn request(src: NodeId, dst: NodeId, id: u64, nflits: u8) -> Self {
        PacketSpec {
            src,
            dst,
            id,
            nflits,
            class: TrafficClass::Request,
            kind: ByteKind::Other,
            slice: 0,
            order_idx: 0,
            base_vc: 0,
        }
    }

    /// A response-class spec on slice 0 with untyped payload.
    pub fn response(src: NodeId, dst: NodeId, id: u64, nflits: u8) -> Self {
        PacketSpec {
            class: TrafficClass::Response,
            ..PacketSpec::request(src, dst, id, nflits)
        }
    }

    /// Pins the full request routing draw (dimension order, channel
    /// slice, base VC) — deterministic experiments.
    pub fn with_draw(mut self, order_idx: usize, slice: usize, base_vc: u8) -> Self {
        self.order_idx = order_idx;
        self.slice = slice;
        self.base_vc = base_vc;
        self
    }

    /// Pins the channel slice (the only draw a response needs).
    pub fn with_slice(mut self, slice: usize) -> Self {
        self.slice = slice;
        self
    }

    /// Types the payload's wire bytes.
    pub fn with_kind(mut self, kind: ByteKind) -> Self {
        self.kind = kind;
        self
    }

    /// Draws the routing randomization for this spec's class from
    /// `rng`: order, then slice, then base VC for requests; slice only
    /// for responses. This is the oblivious randomization of
    /// [`routing::plan_request`] / [`routing::plan_response`] minus
    /// their CA-row draw — the node-granular fabric models no CA rows,
    /// so the two consume *different* amounts of the stream; don't
    /// expect them to stay aligned on a shared `rng`. The draws are
    /// consumed exactly once — retry the returned spec itself, never
    /// redraw after a rejection.
    pub fn drawn(mut self, rng: &mut SplitMix64) -> Self {
        match self.class {
            TrafficClass::Request => {
                self.order_idx = rng.next_below(6) as usize;
                self.slice = rng.next_below(SLICES as u64) as usize;
                self.base_vc = rng.next_below(2) as u8;
            }
            TrafficClass::Response => {
                self.slice = rng.next_below(SLICES as u64) as usize;
            }
        }
        self
    }

    /// The injection VC: the base VC for requests (no dateline crossed
    /// before the first hop), [`RESPONSE_VC`] for responses.
    pub fn inject_vc(&self) -> u8 {
        match self.class {
            TrafficClass::Request => self.base_vc,
            TrafficClass::Response => RESPONSE_VC,
        }
    }

    /// The routing tag every flit of this packet starts with.
    pub fn tag(&self) -> u16 {
        match self.class {
            TrafficClass::Request => {
                encode_request_tag(self.order_idx, self.base_vc, false, self.slice, self.kind)
            }
            TrafficClass::Response => encode_response_tag(self.slice, self.kind),
        }
    }

    /// Checks the flit count and the draw ranges.
    ///
    /// # Errors
    /// [`InjectError::InvalidSpec`] naming the first offending field:
    /// `nflits` of zero, `slice` of 2 or more, or (requests only)
    /// `order_idx` of 6 or more or `base_vc` of 2 or more.
    pub fn validate(&self) -> Result<(), InjectError> {
        let request = self.class == TrafficClass::Request;
        let (field, value) = if self.nflits == 0 {
            ("nflits", 0)
        } else if self.slice >= SLICES {
            ("slice", self.slice)
        } else if request && self.order_idx >= 6 {
            ("order_idx", self.order_idx)
        } else if request && self.base_vc >= 2 {
            ("base_vc", usize::from(self.base_vc))
        } else {
            return Ok(());
        };
        Err(InjectError::InvalidSpec { field, value })
    }
}

/// Cycle-granularity parameters of the torus fabric, split so that
/// credits apply at the router queues while the long wire stays a
/// pipelined delay line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FabricParams {
    /// Virtual channels per input port (the Edge Router's five).
    pub vcs: usize,
    /// Router pipeline cycles per hop (CA + INZ + Edge Network share).
    pub router_cycles: u64,
    /// Link flight cycles per hop (SERDES PHYs + wire share).
    pub link_latency: u64,
    /// Serialization interval of **one channel slice**: cycles between
    /// flits entering one 8-lane slice link. The two slices together
    /// sustain `2 / link_interval` flits per cycle toward one neighbor.
    pub link_interval: u64,
}

impl FabricParams {
    /// Derives the fabric constants from the analytic latency model so
    /// the two stay consistent by construction: the per-hop total is the
    /// measured increment of [`path::one_way`] along a straight walk
    /// (the paper's 34.2 ns/hop fit), rounded to whole cycles, and the
    /// slice serialization interval is the 192-bit flit time over one
    /// 8-lane slice at 29 Gb/s.
    pub fn calibrated(lat: &LatencyModel) -> Self {
        // Increment between a 1-hop and a 2-hop path; endpoint and
        // source/destination chip traversals cancel in the difference.
        let t = Torus::new([4, 4, 8]);
        let origin = t.coord(NodeId(0));
        let src = ChipLoc::gc(4, 5, 0);
        let dst = ChipLoc::gc(12, 6, 0);
        let total = |h: u8| -> Ps {
            let plan = routing::plan_request_fixed(
                &t,
                origin,
                TorusCoord::new(0, 0, h),
                DimOrder::XYZ,
                0,
                0,
            );
            path::one_way(lat, crate::adapter::Compression::NONE, src, dst, &plan, 4).total()
        };
        let per_hop = total(2) - total(1);
        let per_hop_cycles = ((per_hop.as_ps() + PS_PER_CORE_CYCLE / 2) / PS_PER_CORE_CYCLE).max(2);
        // The credit-gated router share: CA processing, INZ, and the two
        // Edge Router transit hops between adjacent CA rows.
        let router_cycles = (lat.ca_tx.count()
            + lat.inz_encode.count()
            + lat.ca_rx.count()
            + lat.inz_decode.count()
            + 2 * lat.edge_hop.count())
        .clamp(1, per_hop_cycles - 1);
        // One slice serializes a flit in 192 / (8 × 29 Gb/s) = 0.83 ns,
        // 2.32 core cycles; rounded to whole cycles the slice carries a
        // flit every 2 cycles, and both slices together recover the
        // aggregate ~1 flit/cycle of the 16-lane neighbor channel.
        let slice_flit = serialization_time(FLIT_BITS as u64, LANES_PER_SLICE as u32, SERDES_GBPS);
        let link_interval =
            ((slice_flit.as_ps() + PS_PER_CORE_CYCLE / 2) / PS_PER_CORE_CYCLE).max(1);
        FabricParams {
            vcs: EDGE_VCS,
            router_cycles,
            link_latency: per_hop_cycles - router_cycles,
            link_interval,
        }
    }

    /// Total cycles one inter-node hop adds to a packet's head latency.
    pub fn per_hop_cycles(&self) -> u64 {
        self.router_cycles + self.link_latency
    }

    /// The per-hop latency in picoseconds (at the 2.8 GHz core clock).
    pub fn per_hop_time(&self) -> Ps {
        Ps::new(self.per_hop_cycles() * PS_PER_CORE_CYCLE)
    }
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams::calibrated(&LatencyModel::default())
    }
}

/// A whole machine's inter-node network stepped cycle by cycle: one
/// router per node, two latency-calibrated slice links per neighbor
/// direction, and the oblivious request / mesh response routing of
/// [`crate::routing`] evaluated hop by hop.
///
/// It is a [`RouterFabric`] built for a torus, so every fabric method
/// ([`RouterFabric::step`], [`RouterFabric::step_endpoints`],
/// [`RouterFabric::set_shards`], [`RouterFabric::run_until_drained`],
/// [`RouterFabric::telemetry`], ...) applies to it directly; router `r`
/// is node `NodeId(r)`. Calibrated torus links are at least one cycle
/// long, so a drained torus fabric accepts any shard count up to its
/// node count. Traffic enters as whole packets ([`Self::inject`], or
/// [`inject_packet`] from an endpoint), never as raw flits.
pub type TorusFabric = RouterFabric<TorusLayout>;

/// What a [`TorusFabric`] adds to its routers and links: the machine
/// shape, the calibrated cycle parameters, and the size of the shared
/// separable route tables (captured at construction; the tables are
/// owned by the route closure).
pub struct TorusLayout {
    torus: Torus,
    params: FabricParams,
    route_table_bytes: usize,
}

impl TorusFabric {
    /// Builds the fabric for `torus` with the given parameters.
    ///
    /// # Panics
    /// Panics if `params.link_latency` exceeds
    /// [`MAX_LINK_LATENCY`](crate::router::MAX_LINK_LATENCY), as
    /// [`RouterFabric::set_link_spec`] does.
    pub fn new(torus: Torus, params: FabricParams) -> Self {
        let n = torus.node_count();
        let routers: Vec<CycleRouter> = (0..n)
            .map(|i| CycleRouter::new(i, NODE_PORTS, params.vcs, params.router_cycles))
            .collect();
        let mut wiring: Vec<Vec<PortLink>> = Vec::with_capacity(n);
        for node in torus.nodes() {
            let c = torus.coord(node);
            let mut row: Vec<PortLink> = Vec::with_capacity(NODE_PORTS);
            for d in Direction::ALL {
                let neighbor = torus.node_id(torus.neighbor(c, d)).index();
                for s in 0..SLICES {
                    // Slice links land on the same slice's port of the
                    // opposite direction: each slice is an independent
                    // physical channel end to end.
                    row.push(PortLink::Router {
                        router: neighbor,
                        port: slice_port(d.opposite(), s),
                    });
                }
            }
            row.push(PortLink::Unused); // INJECT_PORT is input-only
            row.push(PortLink::Endpoint(node.0 as u32)); // EJECT_PORT
            wiring.push(row);
        }
        // Separable per-dimension tables build for every shape — O(n)
        // memory, no node-count cap, no computed-route fallback on the
        // hot path. The direct computation survives as the test oracle
        // ([`torus_route`]).
        let tables = RouteTables::build(&torus);
        let layout = TorusLayout {
            torus,
            params,
            route_table_bytes: tables.memory_bytes(),
        };
        let route: Box<crate::router::RouteFn> =
            Box::new(move |f: &Flit, router: usize| torus_route_tab(&tables, f, router));
        let mut fabric = RouterFabric::with_topology(routers, wiring, route, layout);
        // Per-link flit counters split by the packet's wire-byte kind
        // (carried in the tag), feeding the typed `link_stats` below.
        // This runs once per flit per link entry — the innermost hot
        // path — so extract the kind bits directly rather than paying a
        // full `decode_tag` (tag_layout tests pin the equivalence).
        fabric.set_flit_classes(
            ByteKind::ALL.len(),
            Box::new(|f: &Flit| ((f.tag >> TAG_KIND_SHIFT) & 0b11) as usize),
        );
        let spec = LinkSpec {
            latency: params.link_latency,
            interval: params.link_interval,
        };
        // Neighbor inputs model one Channel Adapter's receive buffering,
        // so their credit window must cover the slice link's
        // bandwidth-delay product (in-flight flits at one per `interval`
        // over the flight time, plus the router pipeline and slack for
        // the tail flit) or the wire idles waiting on credit returns.
        // The injection port keeps the bare 8-flit router queue: that is
        // where fabric backpressure meets the source. `set_link_spec`
        // refuses a latency past `MAX_LINK_LATENCY` before any depth is
        // set, so the sum only saturates on a latency it refuses.
        let depth = (params.link_latency / params.link_interval)
            .saturating_add(params.router_cycles + 4) as usize;
        for r in 0..n {
            for d in Direction::ALL {
                for s in 0..SLICES {
                    fabric.set_link_spec(r, slice_port(d, s), spec);
                    fabric.set_input_depth(r, slice_port(d, s), depth);
                }
            }
        }
        fabric
    }

    /// The audited memory footprint of this fabric: the router-layer
    /// breakdown of [`crate::router::RouterFabric::memory_breakdown`]
    /// plus the shared separable route tables, with the bytes/router
    /// quotient mega-fabric budgets are stated in (`sweep_traffic
    /// --mega-smoke` prints it; the README Performance section documents
    /// the budget).
    pub fn memory_report(&self) -> FabricMemoryReport {
        let breakdown = self.memory_breakdown();
        let route_table_bytes = self.topology.route_table_bytes;
        let total = breakdown.total() + route_table_bytes;
        let nodes = self.torus().node_count();
        FabricMemoryReport {
            nodes,
            breakdown,
            route_table_bytes,
            total_bytes: total,
            bytes_per_router: total / nodes.max(1),
        }
    }

    /// The machine shape.
    pub fn torus(&self) -> &Torus {
        &self.topology.torus
    }

    /// The calibrated cycle parameters.
    pub fn params(&self) -> &FabricParams {
        &self.topology.params
    }

    /// Traffic counters of one directed slice link: the flits and
    /// packets that have crossed from `node` toward `dir` on channel
    /// slice `slice` since construction, in the byte accounting of
    /// [`crate::channel::LinkStats`]. The cycle fabric is flit-granular
    /// and uncompressed (24-byte flits, wire == baseline), but every
    /// flit carries its packet's [`ByteKind`] in the tag, so the wire
    /// bytes split into position / force / other exactly like the
    /// analytic [`crate::adapter::CaLink`] accounting.
    pub fn link_stats(&self, node: NodeId, dir: Direction, slice: usize) -> LinkStats {
        let port = slice_port(dir, slice);
        let (flits, packets) = self.link_traffic(node.index(), port);
        let mut stats = LinkStats {
            packets,
            baseline_bytes: flits * FLIT_BYTES,
            ..LinkStats::default()
        };
        for (i, &kind_flits) in self
            .link_class_traffic(node.index(), port)
            .iter()
            .enumerate()
        {
            stats.add_wire(ByteKind::from_index(i), kind_flits * FLIT_BYTES);
        }
        debug_assert_eq!(stats.wire_bytes, flits * FLIT_BYTES);
        stats
    }

    /// Machine-wide counters of one channel slice, summed over every
    /// directed neighbor link.
    pub fn slice_stats(&self, slice: usize) -> LinkStats {
        let mut agg = LinkStats::default();
        for node in self.torus().nodes() {
            for d in Direction::ALL {
                agg.merge(&self.link_stats(node, d, slice));
            }
        }
        agg
    }

    /// Cycle accounting `(advance, stall, idle)` of the slice link from
    /// `node` toward `dir` on `slice` since telemetry was enabled;
    /// the three always sum to the elapsed enabled cycles. `None` when
    /// telemetry is disabled.
    pub fn link_cycles(
        &self,
        node: NodeId,
        dir: Direction,
        slice: usize,
    ) -> Option<(u64, u64, u64)> {
        let tel = self.telemetry()?;
        let (r, port) = (node.index(), slice_port(dir, slice));
        let advance = tel.advance_cycles(r, port);
        let stall = tel.stall_cycles(r, port);
        let elapsed = self.cycle() - tel.enabled_at();
        Some((advance, stall, elapsed - advance - stall))
    }

    /// Builds the serializable telemetry report: per-class stall
    /// totals (requests on VCs `0..4`, responses on [`RESPONSE_VC`]),
    /// per-link cycle accounting (each neighbor slice link plus each
    /// node's ejection link), and the per-link epoch series for links
    /// with at least one flushed epoch. `None` when telemetry is
    /// disabled.
    pub fn telemetry_summary(&self) -> Option<TelemetrySummary> {
        let tel = self.telemetry()?;
        let elapsed = self.cycle() - tel.enabled_at();
        let mut request = StallBreakdown::default();
        let mut response = StallBreakdown::default();
        let mut links = Vec::new();
        let mut epochs = Vec::new();
        let mut push_link = |r: usize, port: usize, label: String| {
            for vc in 0..self.params().vcs as u8 {
                let b = tel.stalls_for_vc(r, port, vc);
                if vc == RESPONSE_VC {
                    response.merge(&b);
                } else {
                    request.merge(&b);
                }
            }
            let advance = tel.advance_cycles(r, port);
            let stall = tel.stall_cycles(r, port);
            links.push(LinkSummary {
                link: label.clone(),
                advance_cycles: advance,
                stall_cycles: stall,
                idle_cycles: elapsed - advance - stall,
                stalls: tel.stalls_for_link(r, port),
            });
            let mut samples: Vec<_> = tel.epoch_samples(r, port).copied().collect();
            // Close the run's final (partial) epoch with its true width;
            // without this, a run not ending on an epoch boundary would
            // silently drop its last window from the series.
            let occ = self.link_occupancy(r, port) as u32;
            if let Some(partial) = tel.epoch_partial_record(r, port, self.cycle(), occ) {
                samples.push(partial);
            }
            if !samples.is_empty() {
                epochs.push(LinkEpochSeries {
                    link: label,
                    samples,
                });
            }
        };
        for node in self.torus().nodes() {
            let r = node.index();
            for dir in Direction::ALL {
                for slice in 0..SLICES {
                    push_link(r, slice_port(dir, slice), format!("n{r}:{dir}/s{slice}"));
                }
            }
            push_link(r, EJECT_PORT, format!("n{r}:eject"));
        }
        Some(TelemetrySummary {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            epoch_cycles: tel.config().epoch_cycles,
            enabled_at_cycle: tel.enabled_at(),
            elapsed_cycles: elapsed,
            trace_events: tel.trace_events().len(),
            trace_dropped: tel.trace_dropped(),
            classes: vec![
                ClassStallSummary {
                    class: "request".to_string(),
                    stalls: request,
                },
                ClassStallSummary {
                    class: "response".to_string(),
                    stalls: response,
                },
            ],
            links,
            epochs,
        })
    }

    /// Injects one packet described by `spec` — the **single** injection
    /// endpoint for both traffic classes. All flits enter atomically or
    /// none do, and the returned [`RoutePlan`] is exactly the route the
    /// fabric will walk hop by hop (requests:
    /// [`routing::plan_request_fixed`]; responses:
    /// [`routing::plan_response_fixed`]), so callers can reconcile
    /// delivered traffic and per-link counters against an independent
    /// walk of the plan.
    ///
    /// A rejected injection takes nothing and the spec's draw is
    /// untouched: retrying MUST re-submit the same spec, or
    /// backpressure would bias the oblivious randomization toward
    /// uncongested slices, VCs, or orders (see [`PacketSpec`]).
    ///
    /// # Errors
    /// [`InjectError::NoCredit`] when the injection queue lacks room for
    /// the whole packet right now (fabric backpressure at the source);
    /// [`InjectError::TooLarge`] when the packet has more flits than the
    /// queue is deep, so no retry can ever succeed;
    /// [`InjectError::NodeOutOfRange`] when the source or destination is
    /// not a node of this torus; [`InjectError::InvalidSpec`] when the
    /// spec fails [`PacketSpec::validate`]. Every refusal leaves the
    /// fabric untouched.
    pub fn inject(&mut self, spec: PacketSpec) -> Result<RoutePlan, InjectError> {
        self.inject_with(|port| inject_packet(port, &spec))?;
        Ok(self.plan(&spec))
    }

    /// The route plan the fabric will follow for `spec` — what
    /// [`Self::inject`] returns on success; exposed separately so tests
    /// and harnesses can cross-check hop counts and VC sequences without
    /// injecting.
    pub fn plan(&self, spec: &PacketSpec) -> RoutePlan {
        let (src, dst) = (self.torus().coord(spec.src), self.torus().coord(spec.dst));
        match spec.class {
            TrafficClass::Request => routing::plan_request_fixed(
                self.torus(),
                src,
                dst,
                DimOrder::ALL[spec.order_idx],
                spec.slice,
                spec.base_vc,
            ),
            TrafficClass::Response => {
                routing::plan_response_fixed(self.torus(), src, dst, spec.slice)
            }
        }
    }
}

/// Injects the packet `spec` describes through `port`, whole or not at
/// all: the one spec-to-flits step, shared by [`TorusFabric::inject`]
/// (through a view over the whole fabric) and the endpoints a shard
/// window runs ([`TorusFabric::step_endpoints`], through a view over the
/// shard's injection ports). Every flit carries `spec.id`, the spec's
/// routing tag and its injection VC, and the packet enters the source
/// node's [`INJECT_PORT`]. In a traced run the injection lists under its
/// class's rank, responses before requests, which is the order a
/// source-queue driver injects a cycle's packets in.
///
/// # Errors
/// As [`TorusFabric::inject`]; a source outside the view is refused as
/// [`InjectError::QueueOutOfRange`].
pub fn inject_packet(port: &mut InjectPort<'_>, spec: &PacketSpec) -> Result<(), InjectError> {
    spec.validate()?;
    let nodes = port.router_count();
    if let Some(node) = [spec.src, spec.dst].iter().find(|n| n.index() >= nodes) {
        return Err(InjectError::NodeOutOfRange {
            node: node.index(),
            nodes,
        });
    }
    let router = spec.src.index();
    let vc = spec.inject_vc();
    let nflits = spec.nflits as usize;
    let free = port.capacity(router, INJECT_PORT, vc)?;
    if free < nflits {
        // Free plus queued slots is the queue's whole depth.
        let occupancy = port.queue_len(router, INJECT_PORT, vc)?;
        let capacity = free + occupancy;
        return Err(if nflits > capacity {
            InjectError::TooLarge { nflits, capacity }
        } else {
            InjectError::NoCredit {
                router,
                port: INJECT_PORT,
                vc,
                occupancy,
            }
        });
    }
    port.rank = (spec.class == TrafficClass::Request) as u8;
    let tag = spec.tag();
    for index in 0..spec.nflits {
        let flit = Flit {
            packet: spec.id,
            index,
            of: spec.nflits,
            dest: spec.dst.0 as u32,
            vc,
            tag,
            injected_at: 0, // stamped by the fabric
        };
        port.inject(router, INJECT_PORT, flit)
            .expect("capacity was checked for the whole packet");
    }
    Ok(())
}

/// The audited memory footprint of one constructed [`TorusFabric`]
/// (major heap allocations; see
/// [`crate::router::RouterFabric::memory_breakdown`] for what each
/// bucket covers). `bytes_per_router` is the quotient mega-fabric
/// budgets are stated in: a freshly constructed fabric must stay small
/// per router regardless of shape, because flit storage is allocated
/// lazily as traffic actually arrives.
#[derive(Clone, Copy, Debug)]
pub struct FabricMemoryReport {
    /// Routers in the fabric.
    pub nodes: usize,
    /// Router-layer bytes, split by subsystem.
    pub breakdown: MemoryBreakdown,
    /// Bytes behind the shared separable route tables.
    pub route_table_bytes: usize,
    /// Sum of every bucket plus the route tables.
    pub total_bytes: usize,
    /// `total_bytes / nodes`.
    pub bytes_per_router: usize,
}

/// Precomputed per-hop routing for one torus shape — the route function
/// is the hottest per-flit operation in the event-driven core (at
/// saturation every moving flit is routed once per hop), and computing
/// it from coordinates costs a dozen integer divisions.
///
/// Dimension-order routing is **separable**: under a fixed [`DimOrder`],
/// [`Torus::first_hop`] scans dimensions in order and moves in the first
/// one whose [`Torus::signed_distance`] is non-zero — a decision that
/// depends only on the (current, destination) coordinate pair *within
/// that dimension* — and [`routing::crosses_dateline`] depends only on
/// the current coordinate in the moving dimension. The mesh walk of the
/// response class ([`routing::mesh_first_hop`]) is separable the same
/// way with plain (non-modular) displacement signs. So instead of the
/// quadratic `6·n²`-entry tables a per-(router, destination) layout
/// needs (gigabytes at 32³, historically hard-capped at 1024 nodes with
/// a computed-route fallback above), one `dᵢ × dᵢ` table per dimension
/// and class suffices — `O(Σ dᵢ²)` bytes, ~3 KB at 32³ — plus one
/// `O(n)` node→coordinate cache shared by every lookup. The per-entry
/// derivation uses the same primitives as the direct computation
/// ([`Torus::signed_distance`] sign, [`routing::crosses_dateline`],
/// non-modular displacement sign), so a table lookup and
/// [`torus_route`] cannot disagree — pinned exhaustively by the
/// `route_tables_match_computed_routes` test and on random shapes
/// (asymmetric, above the old 1024-node cap) by the
/// `separable_tables_match_direct_computation` proptest.
pub struct RouteTables {
    /// Per node and dimension: the node's coordinate premultiplied by
    /// that dimension's extent — the row base of the per-dim tables
    /// (`cur · ext` fits u16: both factors are below 256).
    row: Vec<[u16; 3]>,
    /// Per node and dimension: the node's raw coordinate — the column
    /// index of the per-dim tables.
    col: Vec<[u8; 3]>,
    /// Per dimension `k`: `ext_k × ext_k` request entries indexed
    /// `cur · ext_k + dst` — direction index in bits 0–2,
    /// dateline-crossing flag in bit 3, [`ROUTE_ALIGNED`] when the
    /// coordinates match.
    req: [Vec<u8>; 3],
    /// Per dimension `k`: `ext_k × ext_k` mesh (response) entries —
    /// direction index from the plain displacement sign, never wrapping,
    /// [`ROUTE_ALIGNED`] when the coordinates match.
    mesh: [Vec<u8>; 3],
    /// [`DimOrder::ALL`] as dense dimension indices, so the lookup walks
    /// a packet's order without touching the enum.
    orders: [[usize; 3]; 6],
}

/// Table code for "this dimension is already aligned": the lookup moves
/// on to the order's next dimension (all three aligned means the flit is
/// at its destination and ejects).
const ROUTE_ALIGNED: u8 = 0xFF;

impl RouteTables {
    /// Builds the separable tables for `torus`. `O(n)` space and time in
    /// the node count (the per-dimension tables are `O(Σ dᵢ²)`, at most
    /// a few hundred KB even for degenerate 255-extent shapes).
    pub fn build(torus: &Torus) -> RouteTables {
        let mut req: [Vec<u8>; 3] = Default::default();
        let mut mesh: [Vec<u8>; 3] = Default::default();
        for dim in Dim::ALL {
            let ext = torus.extent(dim) as usize;
            let k = dim.index();
            req[k] = vec![0u8; ext * ext];
            mesh[k] = vec![0u8; ext * ext];
            for cur in 0..ext {
                let a = TorusCoord::default().with(dim, cur as u8);
                for dst in 0..ext {
                    let b = TorusCoord::default().with(dim, dst as u8);
                    // The same primitives torus_route evaluates per hop:
                    // minimal-displacement sign for the direction, the
                    // ring edge for the dateline flag.
                    let d = torus.signed_distance(a, b, dim);
                    req[k][cur * ext + dst] = if d == 0 {
                        ROUTE_ALIGNED
                    } else {
                        let dir = Direction::new(dim, d > 0);
                        let wraps = routing::crosses_dateline(torus, a, dir);
                        dir.index() as u8 | (u8::from(wraps) << 3)
                    };
                    // Mesh hops take the plain (non-modular) sign and by
                    // construction never wrap.
                    mesh[k][cur * ext + dst] = if dst == cur {
                        ROUTE_ALIGNED
                    } else {
                        Direction::new(dim, dst > cur).index() as u8
                    };
                }
            }
        }
        let mut row = Vec::with_capacity(torus.node_count());
        let mut col = Vec::with_capacity(torus.node_count());
        for id in torus.nodes() {
            let c = torus.coord(id);
            row.push(Dim::ALL.map(|d| c.get(d) as u16 * torus.extent(d) as u16));
            col.push(Dim::ALL.map(|d| c.get(d)));
        }
        RouteTables {
            row,
            col,
            req,
            mesh,
            orders: DimOrder::ALL.map(|o| o.0.map(Dim::index)),
        }
    }

    /// Bytes of heap behind the tables (the `O(n)` coordinate cache plus
    /// the `O(Σ dᵢ²)` per-dimension entries) — reported per router by
    /// [`TorusFabric::memory_report`].
    pub fn memory_bytes(&self) -> usize {
        self.row.capacity() * std::mem::size_of::<[u16; 3]>()
            + self.col.capacity() * std::mem::size_of::<[u8; 3]>()
            + self.req.iter().map(|t| t.capacity()).sum::<usize>()
            + self.mesh.iter().map(|t| t.capacity()).sum::<usize>()
    }
}

/// Table-driven variant of [`torus_route`]: identical decisions, no
/// coordinate arithmetic on the hot path — at most three per-dimension
/// byte lookups against the packet's dimension order.
pub fn torus_route_tab(tables: &RouteTables, f: &Flit, router: usize) -> RouteDecision {
    let dest = f.dest as usize;
    if dest == router {
        // All dimensions aligned: first_hop / mesh_first_hop return None.
        return RouteDecision::keep(EJECT_PORT, f);
    }
    let t = decode_tag(f.tag);
    let (row, col) = (&tables.row[router], &tables.col[dest]);
    match t.class {
        TrafficClass::Request => {
            for &k in &tables.orders[t.order_idx] {
                let e = tables.req[k][row[k] as usize + col[k] as usize];
                if e == ROUTE_ALIGNED {
                    continue;
                }
                let dir = Direction::ALL[(e & 0x7) as usize];
                let wraps = e & 0x8 != 0;
                return RouteDecision {
                    port: slice_port(dir, t.slice),
                    vc: routing::dateline_vc(t.base_vc, t.crossed),
                    tag: encode_request_tag(
                        t.order_idx,
                        t.base_vc,
                        t.crossed || wraps,
                        t.slice,
                        t.kind,
                    ),
                };
            }
            unreachable!("router != dest must differ in some dimension")
        }
        TrafficClass::Response => {
            // Mesh order is XYZ: dense dimension indices 0, 1, 2.
            for k in 0..3 {
                let e = tables.mesh[k][row[k] as usize + col[k] as usize];
                if e == ROUTE_ALIGNED {
                    continue;
                }
                return RouteDecision {
                    port: slice_port(Direction::ALL[(e & 0x7) as usize], t.slice),
                    vc: RESPONSE_VC,
                    tag: f.tag,
                };
            }
            unreachable!("router != dest must differ in some dimension")
        }
    }
}

/// Per-hop route computation, dispatching on the flit's traffic class:
///
/// - requests reproduce `assign_request_vcs` from the carried state — VC
///   `base` before any dateline crossing, `base + 2` after, with the
///   crossing recorded as the flit enters the wraparound link;
/// - responses follow the shared mesh rule on [`routing::RESPONSE_VC`].
///
/// Both classes leave through the slice link their packet drew at
/// injection.
pub fn torus_route(torus: &Torus, f: &Flit, router: usize) -> RouteDecision {
    let cur = torus.coord(NodeId(router as u16));
    let dest = torus.coord(NodeId(f.dest as u16));
    let t = decode_tag(f.tag);
    match t.class {
        TrafficClass::Request => match torus.first_hop(cur, dest, DimOrder::ALL[t.order_idx]) {
            None => RouteDecision::keep(EJECT_PORT, f),
            Some(dir) => {
                let wraps = routing::crosses_dateline(torus, cur, dir);
                RouteDecision {
                    port: slice_port(dir, t.slice),
                    vc: routing::dateline_vc(t.base_vc, t.crossed),
                    tag: encode_request_tag(
                        t.order_idx,
                        t.base_vc,
                        t.crossed || wraps,
                        t.slice,
                        t.kind,
                    ),
                }
            }
        },
        TrafficClass::Response => match routing::mesh_first_hop(cur, dest) {
            None => RouteDecision::keep(EJECT_PORT, f),
            Some(dir) => RouteDecision {
                port: slice_port(dir, t.slice),
                vc: RESPONSE_VC,
                tag: f.tag,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Endpoint;
    use crate::telemetry::TelemetryConfig;

    fn fabric(dims: [u8; 3]) -> TorusFabric {
        TorusFabric::new(
            Torus::new(dims),
            FabricParams::calibrated(&LatencyModel::default()),
        )
    }

    #[test]
    fn tag_roundtrips() {
        // The exhaustive layout-pinning sweep lives in tests/tag_layout.rs;
        // this is the quick in-module smoke.
        for kind in ByteKind::ALL {
            for order in 0..6 {
                for slice in 0..SLICES {
                    let t = decode_tag(encode_request_tag(order, 1, true, slice, kind));
                    assert_eq!(t.class, TrafficClass::Request);
                    assert_eq!(
                        (t.order_idx, t.base_vc, t.crossed, t.slice, t.kind),
                        (order, 1, true, slice, kind)
                    );
                }
                let t = decode_tag(encode_response_tag(kind.index() % SLICES, kind));
                assert_eq!(t.class, TrafficClass::Response);
                assert_eq!(t.kind, kind);
            }
        }
    }

    #[test]
    fn route_tables_match_computed_routes() {
        // The table path must reproduce the computed path decision for
        // decision: every class, order, slice, dateline state, kind, and
        // (router, dest) pair on an asymmetric shape.
        let t = Torus::new([3, 4, 5]);
        let tables = RouteTables::build(&t);
        let n = t.node_count();
        let flit = |dest: usize, tag: u16| Flit {
            packet: 1,
            index: 0,
            of: 1,
            dest: dest as u32,
            vc: 0,
            tag,
            injected_at: 0,
        };
        for router in 0..n {
            for dest in 0..n {
                for order in 0..6 {
                    for crossed in [false, true] {
                        let tag = encode_request_tag(order, 1, crossed, 1, ByteKind::Position);
                        let f = flit(dest, tag);
                        assert_eq!(
                            torus_route_tab(&tables, &f, router),
                            torus_route(&t, &f, router),
                            "request router {router} dest {dest} order {order}"
                        );
                    }
                }
                let f = flit(dest, encode_response_tag(0, ByteKind::Force));
                assert_eq!(
                    torus_route_tab(&tables, &f, router),
                    torus_route(&t, &f, router),
                    "response router {router} dest {dest}"
                );
            }
        }
    }

    #[test]
    fn separable_tables_stay_linear_above_the_old_cap() {
        // 16³ = 4096 nodes sat above the old ROUTE_TABLE_MAX_NODES; the
        // separable tables must build, agree with the direct oracle on
        // a sample, and cost O(n) — not the 6·n² + n² bytes (~134 MB
        // here) of the quadratic layout.
        let t = Torus::new([16, 16, 16]);
        let tables = RouteTables::build(&t);
        assert!(
            tables.memory_bytes() < 64 * 1024,
            "tables took {} bytes — quadratic?",
            tables.memory_bytes()
        );
        let n = t.node_count();
        for router in (0..n).step_by(173) {
            for dest in (0..n).step_by(211) {
                for order in 0..6 {
                    for crossed in [false, true] {
                        let tag = encode_request_tag(order, 0, crossed, 0, ByteKind::Position);
                        let f = Flit {
                            packet: 1,
                            index: 0,
                            of: 1,
                            dest: dest as u32,
                            vc: 0,
                            tag,
                            injected_at: 0,
                        };
                        assert_eq!(
                            torus_route_tab(&tables, &f, router),
                            torus_route(&t, &f, router)
                        );
                    }
                }
                let f = Flit {
                    packet: 1,
                    index: 0,
                    of: 1,
                    dest: dest as u32,
                    vc: RESPONSE_VC,
                    tag: encode_response_tag(1, ByteKind::Force),
                    injected_at: 0,
                };
                assert_eq!(
                    torus_route_tab(&tables, &f, router),
                    torus_route(&t, &f, router)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "link latency 18446744073709551615 exceeds the 65535-cycle maximum")]
    fn an_oversized_link_latency_is_refused() {
        let params = FabricParams {
            link_latency: u64::MAX,
            ..FabricParams::calibrated(&LatencyModel::default())
        };
        TorusFabric::new(Torus::new([2, 2, 2]), params);
    }

    #[test]
    fn mega_fabric_constructs_within_memory_budget() {
        // A freshly built fabric must stay inside a small per-router
        // budget at every scale: flit slabs are allocated lazily, so
        // construction cost is ring cursors, front mirrors and link
        // state, independent of the queue depths traffic would
        // eventually reach.
        let mut largest = None;
        for n in [8u8, 16, 32] {
            let f = fabric([n, n, n]);
            let report = f.memory_report();
            assert_eq!(report.nodes, usize::from(n).pow(3));
            assert_eq!(
                report.total_bytes,
                report.breakdown.total() + report.route_table_bytes
            );
            assert!(
                report.bytes_per_router < 8 * 1024,
                "constructed {n}³ fabric takes {} bytes/router",
                report.bytes_per_router
            );
            largest = Some(f);
        }
        // The 32³ fabric also steps: packets of both classes between
        // random node pairs all arrive, and the fabric drains empty.
        let mut f = largest.expect("a 32³ fabric");
        let n = f.torus().node_count() as u64;
        let mut rng = SplitMix64::new(0x32);
        for id in 0..8u64 {
            let src = NodeId(rng.next_below(n) as u16);
            let dst = NodeId(rng.next_below(n) as u16);
            let spec = if id % 2 == 0 {
                PacketSpec::request(src, dst, id, 2)
            } else {
                PacketSpec::response(src, dst, id, 2)
            };
            f.inject(spec.drawn(&mut rng)).unwrap();
        }
        assert!(f.run_until_drained(100_000), "a 32³ fabric must drain");
        assert_eq!(f.take_delivered().len(), 16, "every flit delivered");
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn shallow_neighbor_inputs_still_drain() {
        // Every neighbor input cut from its bandwidth-delay depth to 8
        // flits: each feeding link then holds 8 credits per VC, and one
        // 2-flit request per node, to the opposite node, still arrives
        // whole.
        let mut f = fabric([4, 4, 4]);
        let (n, p) = (f.torus().node_count(), *f.params());
        let deep = (p.link_latency / p.link_interval + p.router_cycles + 4) as usize;
        for r in 0..n {
            for d in Direction::ALL {
                for s in 0..SLICES {
                    let port = slice_port(d, s);
                    let credits = |f: &TorusFabric| -> Vec<usize> {
                        (0..p.vcs as u8)
                            .map(|vc| f.inject_capacity(r, port, vc))
                            .collect()
                    };
                    assert_eq!(credits(&f), vec![deep; p.vcs], "router {r} port {port}");
                    f.set_input_depth(r, port, 8);
                    assert_eq!(credits(&f), vec![8; p.vcs], "router {r} port {port}");
                }
            }
        }
        let mut rng = SplitMix64::new(8);
        for src in 0..n {
            let (from, to) = (NodeId(src as u16), NodeId((n - 1 - src) as u16));
            f.inject(PacketSpec::request(from, to, src as u64, 2).drawn(&mut rng))
                .unwrap();
        }
        assert!(f.run_until_drained(100_000), "a shallow fabric must drain");
        assert_eq!(f.delivered().len(), 2 * n, "every flit delivered");
    }

    #[test]
    fn slice_ports_are_disjoint_and_cover_neighbor_range() {
        let mut seen = std::collections::HashSet::new();
        for d in Direction::ALL {
            for s in 0..SLICES {
                let p = slice_port(d, s);
                assert!(p < INJECT_PORT);
                assert!(seen.insert(p), "port {p} double-booked");
            }
        }
        assert_eq!(seen.len(), 6 * SLICES);
    }

    #[test]
    fn calibration_matches_analytic_per_hop_within_rounding() {
        let lat = LatencyModel::default();
        let p = FabricParams::calibrated(&lat);
        // Paper fit: 34.2 ns/hop; rounding to whole cycles stays within
        // one cycle (0.36 ns).
        let ns = p.per_hop_time().as_ns();
        assert!((30.0..39.0).contains(&ns), "per-hop {ns} ns out of band");
        assert!(p.router_cycles >= 1 && p.link_latency >= 1);
        // One 8-lane slice serializes 192 bits in 2.32 cycles -> 2; two
        // slices together recover the aggregate ~1 flit/cycle channel.
        assert_eq!(p.link_interval, 2, "slice serialization interval");
    }

    #[test]
    fn unloaded_latency_is_affine_in_hops() {
        // A straight Z walk: head latency must be exactly
        // (h+1)*router_cycles + h*link_latency, independent of the slice.
        let mut f = fabric([4, 4, 8]);
        let p = *f.params();
        for h in 1..=4u16 {
            for slice in 0..SLICES {
                let dst = f.torus().node_id(TorusCoord::new(0, 0, h as u8));
                f.inject(PacketSpec::request(NodeId(0), dst, h as u64, 1).with_draw(0, slice, 0))
                    .unwrap();
                assert!(f.run_until_drained(100_000));
                let (cycle, flit) = *f.take_delivered().last().unwrap();
                assert_eq!(
                    cycle - flit.injected_at,
                    (h as u64 + 1) * p.router_cycles + h as u64 * p.link_latency,
                    "h={h} slice={slice}"
                );
            }
        }
    }

    #[test]
    fn hop_counts_match_route_plans_for_all_orders() {
        let mut f = fabric([4, 4, 8]);
        let p = *f.params();
        let t = *f.torus();
        let mut id = 0u64;
        for order in 0..6 {
            for (a, b) in [(0u16, 127u16), (5, 90), (17, 64), (33, 34)] {
                f.inject(PacketSpec::request(NodeId(a), NodeId(b), id, 1).with_draw(
                    order,
                    (id % 2) as usize,
                    (id % 2) as u8,
                ))
                .unwrap();
                assert!(f.run_until_drained(1_000_000));
                let (cycle, flit) = *f.take_delivered().last().unwrap();
                let latency = cycle - flit.injected_at;
                let hops = (latency - p.router_cycles) / p.per_hop_cycles();
                assert_eq!(
                    hops,
                    t.hop_distance(t.coord(NodeId(a)), t.coord(NodeId(b))) as u64,
                    "order {order}, {a}->{b}"
                );
                id += 1;
            }
        }
    }

    #[test]
    fn dateline_crossing_switches_to_upper_vc() {
        // 4-ring: 3 -> 1 via the +x wraparound; the final hop must ride
        // VC base+2, exactly as the route plan says.
        let mut f = fabric([4, 1, 1]);
        let spec = PacketSpec::request(NodeId(3), NodeId(1), 1, 1);
        let plan = f.inject(spec).unwrap();
        assert!(plan.hops[0].wraps && plan.hops[1].vc == 2);
        assert!(f.run_until_drained(100_000));
        let (_, flit) = f.delivered()[0];
        assert_eq!(flit.vc, 2, "delivered flit must carry the post-dateline VC");
    }

    #[test]
    fn responses_ride_the_response_vc_and_never_wrap() {
        // 3 -> 1 on a 4-ring: the request route would wrap, but the mesh
        // response route goes -x through the interior, on VC 4.
        let mut f = fabric([4, 1, 1]);
        f.inject(PacketSpec::response(NodeId(3), NodeId(1), 1, 2))
            .unwrap();
        assert!(f.run_until_drained(100_000));
        let d = f.take_delivered();
        assert_eq!(d.len(), 2);
        for (_, flit) in &d {
            assert_eq!(flit.vc, RESPONSE_VC);
        }
        // Mesh distance 3->1 is 2 hops (non-wraparound), same as minimal
        // here; check the wraparound links saw no traffic.
        let t = *f.torus();
        for node in t.nodes() {
            for dir in Direction::ALL {
                if routing::crosses_dateline(&t, t.coord(node), dir) {
                    for s in 0..SLICES {
                        assert_eq!(
                            f.link_stats(node, dir, s).packets,
                            0,
                            "response crossed a dateline at node {node:?} {dir}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn response_latency_matches_mesh_distance() {
        let mut f = fabric([4, 4, 8]);
        let p = *f.params();
        let t = *f.torus();
        // 0 -> (3, 2, 6): mesh distance 3 + 2 + 6 = 11 hops.
        let dst = t.node_id(TorusCoord::new(3, 2, 6));
        let plan = f
            .inject(PacketSpec::response(NodeId(0), dst, 1, 1).with_slice(1))
            .unwrap();
        assert_eq!(plan.hop_count(), 11, "returned plan is the mesh walk");
        assert!(f.run_until_drained(1_000_000));
        let (cycle, flit) = f.delivered()[0];
        let hops = ((cycle - flit.injected_at) - p.router_cycles) / p.per_hop_cycles();
        assert_eq!(hops, 11);
    }

    #[test]
    fn two_flit_packets_arrive_contiguously() {
        let mut f = fabric([4, 4, 8]);
        let interval = f.params().link_interval;
        f.inject(PacketSpec::request(NodeId(0), NodeId(127), 9, 2).with_draw(3, 0, 1))
            .unwrap();
        assert!(f.run_until_drained(1_000_000));
        let d = f.delivered();
        assert_eq!(d.len(), 2);
        assert_eq!(
            d[1].0 - d[0].0,
            interval,
            "tail streams one slice serialization interval behind head"
        );
        assert_eq!((d[0].1.index, d[1].1.index), (0, 1));
    }

    #[test]
    fn oversized_packets_are_refused_as_too_large() {
        // A packet deeper than the 8-flit injection queue can never
        // inject, so it must not read as transient backpressure on an
        // empty fabric.
        let mut f = fabric([2, 2, 2]);
        let err = f
            .inject(PacketSpec::request(NodeId(0), NodeId(7), 1, 9).with_draw(0, 0, 0))
            .unwrap_err();
        assert_eq!(
            err,
            InjectError::TooLarge {
                nflits: 9,
                capacity: 8
            }
        );
        assert!(err.to_string().contains("never fit"));
        assert_eq!(f.occupancy(), 0, "a refused packet takes nothing");
        f.inject(PacketSpec::request(NodeId(0), NodeId(7), 2, 8).with_draw(0, 0, 0))
            .expect("a queue-deep packet fits an empty queue");
        // The full queue now refuses a 1-flit packet as backpressure.
        let busy = f
            .inject(PacketSpec::request(NodeId(0), NodeId(7), 3, 1).with_draw(0, 0, 0))
            .unwrap_err();
        assert!(matches!(busy, InjectError::NoCredit { occupancy: 8, .. }));
    }

    #[test]
    fn packets_off_the_torus_are_refused_whole() {
        // A node outside the 8-node torus, at either end, is a typed
        // refusal before any flit enters; stepping afterwards is safe.
        let mut f = fabric([2, 2, 2]);
        let bad_dst = PacketSpec::request(NodeId(0), NodeId(8), 1, 2).with_draw(0, 0, 0);
        let bad_src = PacketSpec::request(NodeId(9), NodeId(1), 2, 2).with_draw(0, 0, 0);
        for (spec, node) in [(bad_dst, 8), (bad_src, 9)] {
            let err = f.inject(spec).unwrap_err();
            assert_eq!(err, InjectError::NodeOutOfRange { node, nodes: 8 });
            assert!(err.to_string().contains("outside the 8-node fabric"));
            assert_eq!(f.occupancy(), 0, "a refused packet takes nothing");
        }
        f.step();
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn invalid_specs_are_refused_as_typed_errors() {
        // `PacketSpec`'s fields are public, so a caller can build a spec
        // no fabric can route; each is a typed refusal that takes nothing.
        let mut f = fabric([2, 2, 2]);
        let ok = PacketSpec::request(NodeId(0), NodeId(7), 1, 2).with_draw(0, 0, 0);
        let cases = [
            (PacketSpec { nflits: 0, ..ok }, "nflits", 0),
            (PacketSpec { slice: 2, ..ok }, "slice", 2),
            (PacketSpec { order_idx: 6, ..ok }, "order_idx", 6),
            (PacketSpec { base_vc: 2, ..ok }, "base_vc", 2),
        ];
        for (spec, field, value) in cases {
            let err = f.inject(spec).unwrap_err();
            assert_eq!(err, InjectError::InvalidSpec { field, value });
            assert!(err.to_string().contains("invalid packet spec"));
            assert_eq!(f.occupancy(), 0, "a refused packet takes nothing");
        }
        f.inject(ok).expect("the valid spec injects");
    }

    #[test]
    fn packets_stay_on_their_drawn_slice() {
        // Straight 3-hop walk on slice 1 only: slice 0 links must stay
        // silent, slice 1 links along the path must each count exactly
        // one packet.
        let mut f = fabric([4, 4, 8]);
        let t = *f.torus();
        let dst = t.node_id(TorusCoord::new(0, 0, 3));
        f.inject(
            PacketSpec::request(NodeId(0), dst, 1, 2)
                .with_draw(0, 1, 0)
                .with_kind(ByteKind::Position),
        )
        .unwrap();
        assert!(f.run_until_drained(100_000));
        let zplus = Direction::ALL[4];
        for h in 0..3u8 {
            let at = t.node_id(TorusCoord::new(0, 0, h));
            let s1 = f.link_stats(at, zplus, 1);
            assert_eq!(s1.packets, 1, "hop {h} slice 1");
            assert_eq!(s1.wire_bytes, 2 * FLIT_BYTES);
            assert_eq!(
                s1.position_bytes,
                2 * FLIT_BYTES,
                "position typing follows the flits"
            );
            assert_eq!((s1.force_bytes, s1.other_bytes), (0, 0));
            assert_eq!(f.link_stats(at, zplus, 0).packets, 0, "hop {h} slice 0");
        }
    }

    #[test]
    fn slice_stats_conserve_replayed_trace_exactly() {
        // Replay a deterministic mixed-class, mixed-kind trace with
        // known draws, drain, and reconcile the counters two ways:
        //
        // 1. every directed slice link's counters — including the
        //    per-`ByteKind` byte split — must equal the totals derived
        //    *independently* by walking the `RoutePlan` that `inject`
        //    returned;
        // 2. machine totals must conserve flits/bytes, per kind.
        use std::collections::HashMap;
        let mut f = fabric([3, 3, 3]);
        let t = *f.torus();
        let mut rng = SplitMix64::new(9);
        let n = t.node_count() as u64;
        let nflits = 2u8;
        // (node, dir index, slice, kind index) -> (flits, packets).
        let mut expected: HashMap<(u16, usize, usize, usize), (u64, u64)> = HashMap::new();
        for p in 0..300u64 {
            let src = NodeId((p % n) as u16);
            let dst = NodeId(rng.next_below(n) as u16);
            if src == dst {
                continue;
            }
            let kind = ByteKind::from_index((p % 3) as usize);
            let spec = if p % 3 == 0 {
                PacketSpec::response(src, dst, p, nflits)
                    .with_slice((p % 2) as usize)
                    .with_kind(kind)
            } else {
                PacketSpec::request(src, dst, p, nflits)
                    .with_draw((p % 6) as usize, ((p / 2) % 2) as usize, 0)
                    .with_kind(kind)
            };
            if let Ok(plan) = f.inject(spec) {
                let mut cur = t.coord(src);
                for hop in &plan.hops {
                    let e = expected
                        .entry((t.node_id(cur).0, hop.dir.index(), spec.slice, kind.index()))
                        .or_insert((0, 0));
                    e.0 += nflits as u64;
                    e.1 += 1;
                    cur = t.neighbor(cur, hop.dir);
                }
                assert_eq!(cur, t.coord(dst), "returned plan must reach dst");
            }
            f.step();
        }
        assert!(f.run_until_drained(2_000_000));
        let mut total = LinkStats::default();
        for node in t.nodes() {
            for dir in Direction::ALL {
                for s in 0..SLICES {
                    let stats = f.link_stats(node, dir, s);
                    assert!(stats.kinds_conserve_wire());
                    let mut eflits = 0u64;
                    let mut epackets = 0u64;
                    for kind in ByteKind::ALL {
                        let (kf, kp) = expected
                            .get(&(node.0, dir.index(), s, kind.index()))
                            .copied()
                            .unwrap_or((0, 0));
                        assert_eq!(
                            stats.kind_bytes(kind),
                            kf * FLIT_BYTES,
                            "link ({node:?}, {dir}, slice {s}) {kind:?} bytes \
                             diverged from its route plans"
                        );
                        eflits += kf;
                        epackets += kp;
                    }
                    assert_eq!(
                        (stats.wire_bytes / FLIT_BYTES, stats.packets),
                        (eflits, epackets),
                        "link ({node:?}, {dir}, slice {s}) diverged from its route plans"
                    );
                    total.merge(&stats);
                }
            }
        }
        let mut by_slice = LinkStats::default();
        for s in 0..SLICES {
            by_slice.merge(&f.slice_stats(s));
        }
        assert_eq!(by_slice, total, "slice totals must conserve the aggregate");
        let expected_flits: u64 = expected.values().map(|&(fl, _)| fl).sum();
        assert_eq!(by_slice.wire_bytes, expected_flits * FLIT_BYTES);
        assert!(expected_flits > 0, "trace must exercise the links");
        assert!(
            by_slice.position_bytes > 0 && by_slice.force_bytes > 0 && by_slice.other_bytes > 0,
            "trace must exercise every byte kind"
        );
    }

    #[test]
    fn random_load_is_never_lost() {
        let mut f = fabric([3, 3, 3]);
        let mut rng = SplitMix64::new(42);
        let n = f.torus().node_count() as u64;
        let mut accepted = 0u32;
        for p in 0..400u64 {
            let src = NodeId((p % n) as u16);
            let dst = NodeId(rng.next_below(n) as u16);
            if src != dst {
                let spec = PacketSpec::request(src, dst, p, 2).drawn(&mut rng);
                if f.inject(spec).is_ok() {
                    accepted += 1;
                }
            }
            f.step();
        }
        assert!(f.run_until_drained(2_000_000), "fabric must drain");
        assert_eq!(
            f.delivered().len() as u32,
            accepted * 2,
            "every flit exactly once"
        );
    }

    #[test]
    fn a_cycles_trace_lists_injections_by_class_then_hops_then_deliveries() {
        // Node 0 (shard 0 of two) and node 7 (shard 1) each inject, in
        // cycle 0, a 2-flit request two hops away and then a 2-flit
        // response one hop away, on different outputs, so nothing
        // contends. A head clears each 16-cycle router pipeline and
        // crosses an 80-cycle link, and a tail follows its head two
        // cycles behind, so the responses deliver in the cycle the
        // requests take their second hop. Node 0 injects once more in
        // cycle 120, inside the kernel window that holds those hops and
        // deliveries, so a merge that ignored cycle order would move it.
        struct Burst(Vec<(u64, PacketSpec)>);
        impl Endpoint for Burst {
            fn begin_cycle(&mut self, cycle: u64, port: &mut InjectPort<'_>) {
                for (_, spec) in self.0.iter().filter(|&&(at, _)| at == cycle) {
                    inject_packet(port, spec).unwrap();
                }
            }
            fn deliver(&mut self, _: u64, _: &Flit) {}
            fn idle(&self, cycle: u64) -> bool {
                self.0.iter().all(|&(at, _)| at < cycle)
            }
        }
        // Node `src` sends request `2 * src + 1` to `req` (XYZ order) and
        // response `2 * src + 2` to `resp`.
        let burst = |src: u16, req: u16, resp: u16| {
            let id = 2 * src as u64;
            let src = NodeId(src);
            vec![
                (
                    0,
                    PacketSpec::request(src, NodeId(req), id + 1, 2).with_draw(0, 0, 0),
                ),
                (0, PacketSpec::response(src, NodeId(resp), id + 2, 2)),
            ]
        };
        let mut a = burst(0, 3, 2);
        a.push((120, PacketSpec::response(NodeId(0), NodeId(1), 3, 1)));
        let b = burst(7, 4, 5);
        let traced = |shards: Option<usize>| {
            let mut f = fabric([2, 2, 2]);
            f.enable_telemetry(TelemetryConfig {
                trace: true,
                ..TelemetryConfig::default()
            });
            let all = Burst([a.clone(), b.clone()].concat());
            match shards {
                None => {
                    let mut ep = all;
                    for _ in 0..250 {
                        f.step_reference_with(&mut ep);
                    }
                }
                Some(shards) => {
                    f.set_shards(shards).unwrap();
                    let mut eps = match shards {
                        1 => vec![all],
                        _ => vec![Burst(a.clone()), Burst(b.clone())],
                    };
                    while f.cycle() < 250 {
                        f.step_endpoints(&mut eps, 250);
                    }
                }
            }
            assert_eq!(f.delivered().len(), 9, "every flit delivered");
            f.disable_telemetry()
                .expect("telemetry on")
                .trace_events()
                .to_vec()
        };
        use crate::telemetry::TraceEventKind::*;
        #[rustfmt::skip]
        let expected = [
            (Inject, 0, 0), (Inject, 0, 7), (Inject, 0, 0), (Inject, 0, 7),
            (Hop, 16, 0), (Hop, 16, 0), (Hop, 16, 7), (Hop, 16, 7),
            (Hop, 112, 1), (Hop, 112, 6), (Deliver, 112, 2), (Deliver, 112, 5),
            (Deliver, 114, 2), (Deliver, 114, 5),
            (Inject, 120, 0),
            (Hop, 136, 0),
            (Deliver, 208, 3), (Deliver, 208, 4),
            (Deliver, 210, 3), (Deliver, 210, 4),
            (Deliver, 232, 1),
        ];
        for shards in [Some(1), Some(2), None] {
            let trace = traced(shards);
            let events: Vec<_> = trace.iter().map(|e| (e.kind, e.cycle, e.router)).collect();
            assert_eq!(events, expected, "shards: {shards:?} (None: reference)");
            let injected: Vec<_> = trace[..4].iter().map(|e| e.packet).collect();
            assert_eq!(injected, [2, 16, 1, 15], "responses inject first");
        }
    }
}
