//! End-to-end path timing: composes the component models into the one-way
//! message latency the paper measures in Figures 5 and 6.
//!
//! The path of a counted write from a GC on one node to SRAM on another:
//!
//! 1. GC issue (store → TRTR injection);
//! 2. Core Network U hops to the chip edge, Row Adapter, Edge Network
//!    hops to the Channel Adapter;
//! 3. per torus hop: CA processing + INZ, serialization over the slice,
//!    SERDES PHYs and wire, then Edge-Network transit/turn hops to the
//!    next CA (intra-dimension traffic rides the outermost column between
//!    adjacent rows — the Figure 4 optimization);
//! 4. at the destination: Edge Network eject, Row Adapter, Core Network U
//!    hops, TRTR, SRAM write + counter increment, blocking-read wake.

use crate::adapter::{baseline_bytes, generic_wire_bytes, Compression, LANES_PER_CA};
use crate::channel::Serializer;
use crate::chip::{self, ChipLoc};
use crate::packet::PacketKind;
use crate::routing::RoutePlan;
use anton_model::asic::{self, Side};
use anton_model::latency::LatencyModel;
use anton_model::units::Ps;

/// One named segment of an end-to-end path (the bars of Figure 6).
#[derive(Clone, PartialEq, Debug)]
pub struct Segment {
    /// Human-readable component name.
    pub name: &'static str,
    /// Time spent in this component.
    pub time: Ps,
}

/// A fully decomposed one-way latency.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PathBreakdown {
    /// Ordered path segments.
    pub segments: Vec<Segment>,
}

impl PathBreakdown {
    fn push(&mut self, name: &'static str, time: Ps) {
        self.segments.push(Segment { name, time });
    }

    /// Total one-way latency.
    pub fn total(&self) -> Ps {
        self.segments.iter().map(|s| s.time).sum()
    }

    /// Sums the segments whose names contain `needle` (e.g. "SERDES").
    pub fn component(&self, needle: &str) -> Ps {
        self.segments
            .iter()
            .filter(|s| s.name.contains(needle))
            .map(|s| s.time)
            .sum()
    }
}

/// Computes the unloaded one-way latency of a `payload`-word packet from
/// `src_loc` (on the source node) to `dst_loc` (on the destination node)
/// along `plan`, returning the per-component breakdown.
///
/// Zero-hop (same-node) paths go through the Core Network only — the
/// paper's Figure 5 notes the 0-hop case undercuts the linear fit because
/// it skips the Edge Network and off-chip links entirely.
pub fn one_way(
    lat: &LatencyModel,
    comp: Compression,
    src_loc: ChipLoc,
    dst_loc: ChipLoc,
    plan: &RoutePlan,
    payload_words: usize,
) -> PathBreakdown {
    let mut b = PathBreakdown::default();
    b.push("GC send (issue + packetize)", lat.send_overhead());

    if plan.hops.is_empty() {
        b.push(
            "Core Network (intra-node)",
            chip::loc_to_loc(lat, src_loc, dst_loc),
        );
        b.push("SRAM write + counter", lat.sram_write.to_ps());
        b.push("Blocking-read wake", lat.blocking_read_wake.to_ps());
        return b;
    }

    let side = asic::side_for_slice(plan.slice);
    let wire_bytes = if comp.inz {
        generic_wire_bytes(
            PacketKind::CountedWrite,
            &[&vec![0u32; payload_words]],
            comp,
        )
    } else {
        baseline_bytes(payload_words)
    };
    let ser = Serializer::new(LANES_PER_CA as u32);
    let ser_time = ser.serialize_time(wire_bytes);

    // Source chip: Core Network to the first hop's CA (address-
    // interleaved CA choice carried in the plan).
    let first_dir = plan.hops[0].dir;
    let first_ca_row = asic::ca_rows_for_direction(first_dir)[plan.ca] as u8;
    b.push(
        "Core Network + Edge Network (source)",
        chip::source_to_ca(lat, src_loc, side, first_ca_row),
    );

    // Channel crossings and intermediate edge-network traversals.
    for (i, hop) in plan.hops.iter().enumerate() {
        b.push("CA + INZ (tx)", lat.ca_tx.to_ps() + lat.inz_encode.to_ps());
        if comp.pcache {
            b.push("Particle cache (tx)", lat.pcache_lookup.to_ps());
        }
        b.push("Serialization", ser_time);
        b.push("SERDES tx", lat.serdes_tx);
        b.push("Wire", lat.wire);
        b.push("SERDES rx", lat.serdes_rx);
        if comp.pcache {
            b.push("Particle cache (rx)", lat.pcache_lookup.to_ps());
        }
        b.push("CA + INZ (rx)", lat.ca_rx.to_ps() + lat.inz_decode.to_ps());

        // Arrival CA on the downstream node faces back along the hop.
        let arr_row = asic::ca_rows_for_direction(hop.dir.opposite())[plan.ca] as u8;
        if let Some(next) = plan.hops.get(i + 1) {
            // Transit to the CA of the next hop's direction.
            let next_row = asic::ca_rows_for_direction(next.dir)[plan.ca] as u8;
            let hops = if next.dir.dim() == hop.dir.dim() {
                chip::edge_hops_transit(arr_row, next_row)
            } else {
                chip::edge_hops_turn(arr_row, next_row)
            };
            b.push("Edge Network (transit)", lat.edge_hop.to_ps() * hops as u64);
        } else {
            // Final node: eject toward the destination location.
            b.push(
                "Edge Network + Core Network (destination)",
                chip::ca_to_dest(lat, side, arr_row, dst_loc),
            );
        }
    }

    b.push("SRAM write + counter", lat.sram_write.to_ps());
    b.push("Blocking-read wake", lat.blocking_read_wake.to_ps());
    b
}

/// The best-case (minimum) 1-hop endpoint placement: a GC adjacent to the
/// chip edge, aligned with its direction's CA row — the configuration
/// behind the paper's 55 ns minimum (Figure 6).
pub fn best_case_gc(side: Side, ca_row: usize) -> ChipLoc {
    let col = match side {
        Side::Left => 0,
        Side::Right => (asic::CORE_COLS - 1) as u8,
    };
    ChipLoc::gc(col, ca_row.min(asic::CORE_ROWS - 1) as u8, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::plan_request_fixed;
    use anton_model::topology::{DimOrder, NodeId, Torus};

    fn setup() -> (Torus, LatencyModel) {
        (Torus::new([4, 4, 8]), LatencyModel::default())
    }

    #[test]
    fn zero_hop_is_fastest() {
        let (t, lat) = setup();
        let a = t.coord(NodeId(0));
        let plan0 = plan_request_fixed(&t, a, a, DimOrder::XYZ, 0, 0);
        let plan1 = plan_request_fixed(&t, a, t.coord(NodeId(1)), DimOrder::XYZ, 0, 0);
        let src = ChipLoc::gc(3, 4, 0);
        let dst = ChipLoc::gc(10, 8, 1);
        let t0 = one_way(&lat, Compression::NONE, src, dst, &plan0, 4).total();
        let t1 = one_way(&lat, Compression::NONE, src, dst, &plan1, 4).total();
        assert!(t0 < t1, "0-hop {t0} must undercut 1-hop {t1}");
        assert!(
            t0 < Ps::from_ns(40.0),
            "0-hop should be well under 40 ns, got {t0}"
        );
    }

    #[test]
    fn best_case_one_hop_near_55ns() {
        let (t, lat) = setup();
        let a = t.coord(NodeId(0));
        let b = t.coord(NodeId(1)); // +x neighbor
        let plan = plan_request_fixed(&t, a, b, DimOrder::XYZ, 0, 0);
        let src = best_case_gc(Side::Left, 0);
        let dst = best_case_gc(Side::Left, 1);
        let total = one_way(&lat, Compression::NONE, src, dst, &plan, 4).total();
        assert!(
            (50.0..61.0).contains(&total.as_ns()),
            "minimum 1-hop latency {} ns vs paper's 55 ns",
            total.as_ns()
        );
    }

    #[test]
    fn per_hop_increment_near_34ns() {
        let (t, lat) = setup();
        let a = t.coord(NodeId(0));
        let src = ChipLoc::gc(4, 5, 0);
        let dst = ChipLoc::gc(12, 6, 0);
        // Walk increasing Z distance (8-ring): 1..4 hops, same dimension.
        let mut last = None;
        for hops in 1..=4u8 {
            let b = anton_model::topology::TorusCoord::new(0, 0, hops);
            let plan = plan_request_fixed(&t, a, b, DimOrder::XYZ, 0, 0);
            assert_eq!(plan.hop_count(), hops as u32);
            let total = one_way(&lat, Compression::NONE, src, dst, &plan, 4).total();
            if let Some(prev) = last {
                let inc = (total - prev).as_ns();
                assert!(
                    (30.0..39.0).contains(&inc),
                    "per-hop increment {inc} ns vs paper's 34.2 ns"
                );
            }
            last = Some(total);
        }
    }

    #[test]
    fn breakdown_components_are_complete() {
        let (t, lat) = setup();
        let plan = plan_request_fixed(
            &t,
            t.coord(NodeId(0)),
            t.coord(NodeId(1)),
            DimOrder::XYZ,
            0,
            0,
        );
        let b = one_way(
            &lat,
            Compression::NONE,
            ChipLoc::gc(0, 0, 0),
            ChipLoc::gc(0, 1, 0),
            &plan,
            4,
        );
        let sum: Ps = b.segments.iter().map(|s| s.time).sum();
        assert_eq!(sum, b.total());
        assert!(b.component("SERDES") > Ps::ZERO);
        assert!(b.component("GC send") > Ps::ZERO);
        assert!(b.component("Blocking-read") > Ps::ZERO);
    }

    #[test]
    fn compression_adds_pcache_latency() {
        let (t, lat) = setup();
        let plan = plan_request_fixed(
            &t,
            t.coord(NodeId(0)),
            t.coord(NodeId(1)),
            DimOrder::XYZ,
            0,
            0,
        );
        let src = ChipLoc::gc(0, 0, 0);
        let dst = ChipLoc::gc(0, 1, 0);
        let plain = one_way(&lat, Compression::NONE, src, dst, &plan, 4).total();
        let full = one_way(&lat, Compression::FULL, src, dst, &plan, 4);
        assert!(full.component("Particle cache") > Ps::ZERO);
        // Compression shrinks serialization but adds pipeline stages; both
        // effects are small compared to the 34 ns crossing.
        let diff = (full.total().as_ns() - plain.as_ns()).abs();
        assert!(diff < 3.0, "compression latency effect {diff} ns too large");
    }

    #[test]
    fn multi_dimension_routes_include_turns() {
        let (t, lat) = setup();
        let a = t.coord(NodeId(0));
        let b = anton_model::topology::TorusCoord::new(1, 1, 0);
        let plan = plan_request_fixed(&t, a, b, DimOrder::XYZ, 0, 0);
        assert_eq!(plan.hop_count(), 2);
        let brk = one_way(
            &lat,
            Compression::NONE,
            ChipLoc::gc(5, 5, 0),
            ChipLoc::gc(5, 5, 0),
            &plan,
            4,
        );
        assert!(brk.component("transit") > Ps::ZERO, "turn hop must appear");
    }
}
