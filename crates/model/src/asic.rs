//! ASIC-level geometry and the generational data of Table I.
//!
//! The Anton 3 ASIC (paper §II-B, Figure 1) is a tiled design:
//!
//! - a 24-column × 12-row array of **Core Tiles**, each containing two
//!   Geometry Cores (GCs) with 128 KB SRAM blocks, two Pairwise Point
//!   Interaction Modules (PPIMs), a Bond Calculator (BC), and a Core Router;
//! - 12 **Edge Tiles** on each of the left and right edges, each containing
//!   three Edge Routers, two Interaction Control Blocks (ICBs) with Row
//!   Adapters, and a Channel Adapter;
//! - 96 bidirectional SERDES lanes at 29 Gb/s, 16 per torus neighbor,
//!   organized as two 8-lane channel slices per neighbor.

use crate::topology::Direction;
use serde::{Deserialize, Serialize};

/// Columns of Core Tiles (the on-chip mesh U dimension).
pub const CORE_COLS: usize = 24;
/// Rows of Core Tiles (the on-chip mesh V dimension).
pub const CORE_ROWS: usize = 12;
/// Core Tiles per ASIC.
pub const CORE_TILES: usize = CORE_COLS * CORE_ROWS;
/// Geometry Cores per Core Tile.
pub const GCS_PER_TILE: usize = 2;
/// Geometry Cores per ASIC.
pub const GCS_PER_ASIC: usize = CORE_TILES * GCS_PER_TILE;

/// Edge Tiles per edge (left or right).
pub const EDGE_TILES_PER_SIDE: usize = 12;
/// Edge Tiles per ASIC (12 on each of two sides).
pub const EDGE_TILES: usize = 2 * EDGE_TILES_PER_SIDE;
/// Edge Routers per Edge Tile; the tiles stack into a 12-row × 3-column
/// mesh (the Edge Network) on each side of the chip.
pub const ERTRS_PER_EDGE_TILE: usize = 3;
/// Edge Routers per ASIC.
pub const ERTRS_PER_ASIC: usize = EDGE_TILES * ERTRS_PER_EDGE_TILE;
/// Columns of the Edge Network on one side.
pub const EDGE_COLS: usize = ERTRS_PER_EDGE_TILE;
/// Rows of the Edge Network on one side.
pub const EDGE_ROWS: usize = EDGE_TILES_PER_SIDE;
/// ICBs per Edge Tile.
pub const ICBS_PER_EDGE_TILE: usize = 2;
/// ICBs per ASIC.
pub const ICBS_PER_ASIC: usize = EDGE_TILES * ICBS_PER_EDGE_TILE;
/// Channel Adapters per ASIC (Table II), one per Edge Tile.
pub const CHANNEL_ADAPTERS: usize = EDGE_TILES;
/// Row Adapters per ASIC (Table II): one per core row per side connecting
/// the Core Network, plus one per ICB.
pub const ROW_ADAPTERS: usize = CORE_ROWS * 2 + ICBS_PER_ASIC;
/// Core Routers per ASIC (Table II).
pub const CORE_ROUTERS: usize = CORE_TILES;

/// Total SERDES lanes per ASIC (Table I).
pub const SERDES_LANES: usize = 96;
/// SERDES lanes per torus neighbor.
pub const LANES_PER_NEIGHBOR: usize = SERDES_LANES / 6;
/// Physical channel slices per neighbor (paper §V-C).
pub const SLICES_PER_NEIGHBOR: usize = 2;
/// SERDES lanes per channel slice.
pub const LANES_PER_SLICE: usize = LANES_PER_NEIGHBOR / SLICES_PER_NEIGHBOR;
/// Channel Adapters serving each torus neighbor (24 CAs / 6 neighbors).
pub const CAS_PER_NEIGHBOR: usize = CHANNEL_ADAPTERS / 6;

/// Flit size in bits: a 64-bit header plus a 128-bit payload (paper §III-B).
pub const FLIT_BITS: usize = 192;
/// Header bits within a flit.
pub const FLIT_HEADER_BITS: usize = 64;
/// Payload bits within a flit.
pub const FLIT_PAYLOAD_BITS: usize = 128;
/// Router input queue depth, in flits per virtual channel (paper §III-B).
pub const INPUT_QUEUE_FLITS: usize = 8;
/// Virtual channels in the Core Network (requests + responses).
pub const CORE_VCS: usize = 2;
/// Request-class VCs in the Edge Network (torus deadlock avoidance).
pub const EDGE_REQUEST_VCS: usize = 4;
/// Response-class VCs in the Edge Network (XYZ-mesh restriction, §III-B2).
pub const EDGE_RESPONSE_VCS: usize = 1;
/// Total VCs in the Edge Network.
pub const EDGE_VCS: usize = EDGE_REQUEST_VCS + EDGE_RESPONSE_VCS;
/// Maximum concurrent network fences supported by the network (paper §V-D).
pub const MAX_CONCURRENT_FENCES: usize = 14;
/// Fence counters per Edge Router input port (paper §V-D).
pub const FENCE_COUNTERS_PER_EDGE_PORT: usize = 96;

/// Which chip side (left or right edge) a component sits on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Side {
    /// The left edge of the Core Tile array (U column 0 side).
    Left,
    /// The right edge of the Core Tile array (U column 23 side).
    Right,
}

impl Side {
    /// Both sides.
    pub const ALL: [Side; 2] = [Side::Left, Side::Right];

    /// Dense index: Left→0, Right→1.
    pub const fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

/// Channel Adapters per torus direction on each chip side.
///
/// The 96 SERDES lanes are "distributed evenly among the Edge Tiles"
/// (paper §II-B): every direction is served on *both* sides of the chip —
/// two CAs (one per channel slice half) per side, four in total — so that
/// a dimension turn never has to cross the Core Tile array.
pub const CAS_PER_DIRECTION_PER_SIDE: usize = CAS_PER_NEIGHBOR / 2;

/// The Edge-Tile rows (0..12) hosting the Channel Adapters for direction
/// `d`; the same rows are used on both chip sides.
///
/// Opposite directions of the same dimension are placed on adjacent rows
/// (paper Figure 4), so that intra-dimension traffic makes minimal hops in
/// the outermost Edge Router column: X+ sits on rows {0, 6}, X− on {1, 7},
/// Y on {2, 3, 8, 9}, Z on {4, 5, 10, 11}.
pub fn ca_rows_for_direction(d: Direction) -> [usize; CAS_PER_DIRECTION_PER_SIDE] {
    let k = d.index(); // X+=0, X-=1, Y+=2, Y-=3, Z+=4, Z-=5
    [k, k + 6]
}

/// The channel slice (`0..SLICES_PER_NEIGHBOR`) served by each chip side:
/// slice 0 crosses the left edge, slice 1 the right edge.
pub fn side_for_slice(slice: usize) -> Side {
    assert!(slice < SLICES_PER_NEIGHBOR, "slice {slice} out of range");
    if slice == 0 {
        Side::Left
    } else {
        Side::Right
    }
}

/// One generation of the Anton family (the columns of Table I).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct AsicGeneration {
    /// Generation name ("Anton 1", "Anton 2", "Anton 3").
    pub name: &'static str,
    /// Year the first machine was powered on.
    pub power_on_year: u16,
    /// Process technology, in nm.
    pub process_nm: u16,
    /// Die size in mm².
    pub die_mm2: f64,
    /// Core clock rate in GHz.
    pub clock_ghz: f64,
    /// Maximum pairwise interaction throughput, in GOPS.
    pub pairwise_gops: u32,
    /// Number of SERDES lanes.
    pub serdes_lanes: u32,
    /// Per-lane SERDES bandwidth, Gb/s.
    pub serdes_gbps: f64,
    /// Total inter-node bidirectional bandwidth, GB/s.
    pub internode_gbs: u32,
}

/// Table I: key features for the three Anton ASICs.
pub const GENERATIONS: [AsicGeneration; 3] = [
    AsicGeneration {
        name: "Anton 1",
        power_on_year: 2008,
        process_nm: 90,
        die_mm2: 305.0,
        clock_ghz: 0.970,
        pairwise_gops: 31,
        serdes_lanes: 66,
        serdes_gbps: 4.6,
        internode_gbs: 76,
    },
    AsicGeneration {
        name: "Anton 2",
        power_on_year: 2013,
        process_nm: 40,
        die_mm2: 408.0,
        clock_ghz: 1.65,
        pairwise_gops: 251,
        serdes_lanes: 96,
        serdes_gbps: 14.0,
        internode_gbs: 336,
    },
    AsicGeneration {
        name: "Anton 3",
        power_on_year: 2020,
        process_nm: 7,
        die_mm2: 451.0,
        clock_ghz: 2.8,
        pairwise_gops: 5914,
        serdes_lanes: 96,
        serdes_gbps: 29.0,
        internode_gbs: 696,
    },
];

/// The Anton 3 generation entry of [`GENERATIONS`].
pub fn anton3() -> &'static AsicGeneration {
    &GENERATIONS[2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Dim;

    #[test]
    fn component_counts_match_table2() {
        assert_eq!(CORE_ROUTERS, 288);
        assert_eq!(ERTRS_PER_ASIC, 72);
        assert_eq!(CHANNEL_ADAPTERS, 24);
        assert_eq!(ROW_ADAPTERS, 72);
    }

    #[test]
    fn serdes_partitioning() {
        assert_eq!(LANES_PER_NEIGHBOR, 16);
        assert_eq!(LANES_PER_SLICE, 8);
        assert_eq!(CAS_PER_NEIGHBOR, 4);
        assert_eq!(SLICES_PER_NEIGHBOR * LANES_PER_SLICE, LANES_PER_NEIGHBOR);
    }

    #[test]
    fn bandwidth_matches_table1() {
        // 96 lanes x 29 Gb/s x 2 directions = 5.568 Tb/s = 696 GB/s bidir.
        let gbs = SERDES_LANES as f64 * anton3().serdes_gbps * 2.0 / 8.0;
        assert_eq!(gbs.round() as u32, anton3().internode_gbs);
    }

    #[test]
    fn chip_has_576_gcs_and_48_icbs() {
        assert_eq!(GCS_PER_ASIC, 576);
        assert_eq!(ICBS_PER_ASIC, 48);
    }

    #[test]
    fn every_direction_has_rows_in_range() {
        for d in Direction::ALL {
            for r in ca_rows_for_direction(d) {
                assert!(r < EDGE_ROWS);
            }
        }
        // 6 directions x 2 rows per side x 2 sides = 24 CAs.
        assert_eq!(6 * CAS_PER_DIRECTION_PER_SIDE * 2, CHANNEL_ADAPTERS);
    }

    #[test]
    fn opposite_directions_occupy_adjacent_rows() {
        for dim in Dim::ALL {
            let plus = ca_rows_for_direction(Direction::new(dim, true));
            let minus = ca_rows_for_direction(Direction::new(dim, false));
            for (a, b) in plus.iter().zip(minus.iter()) {
                assert_eq!(b - a, 1, "{dim}+/- CAs must sit on adjacent rows");
            }
        }
    }

    #[test]
    fn ca_rows_tile_each_side_exactly() {
        use std::collections::HashSet;
        let mut used = HashSet::new();
        for d in Direction::ALL {
            for r in ca_rows_for_direction(d) {
                assert!(used.insert(r), "row {r} double-booked");
            }
        }
        assert_eq!(
            used.len(),
            EDGE_ROWS,
            "every edge tile hosts exactly one CA"
        );
    }

    #[test]
    fn slices_map_to_sides() {
        assert_eq!(side_for_slice(0), Side::Left);
        assert_eq!(side_for_slice(1), Side::Right);
    }

    #[test]
    fn table1_is_monotone_in_throughput() {
        assert!(GENERATIONS[0].pairwise_gops < GENERATIONS[1].pairwise_gops);
        assert!(GENERATIONS[1].pairwise_gops < GENERATIONS[2].pairwise_gops);
        // The paper's motivating ratio: ~24x compute per ~2.1x bandwidth.
        let compute = GENERATIONS[2].pairwise_gops as f64 / GENERATIONS[1].pairwise_gops as f64;
        let bw = GENERATIONS[2].internode_gbs as f64 / GENERATIONS[1].internode_gbs as f64;
        assert!((compute - 23.56).abs() < 0.1);
        assert!((bw - 2.07).abs() < 0.05);
    }

    #[test]
    fn flit_layout() {
        assert_eq!(FLIT_HEADER_BITS + FLIT_PAYLOAD_BITS, FLIT_BITS);
        assert_eq!(EDGE_VCS, 5); // paper: "a total of five VCs for the Edge Router"
    }
}
