//! On-chip locations and traversal-latency math for the tiled ASIC.
//!
//! The Core Network is a 24×12 2D mesh of Core Routers using U→V
//! dimension-order routing (2 cycles per U hop, 5 per V hop); the Edge
//! Networks are 12-row × 3-column meshes of Edge Routers (3 cycles per
//! hop) on each side of the chip (paper §II-B, §III-B, Figures 3 and 4).
//! This module computes hop counts and traversal times for every on-chip
//! path the experiments exercise.

use anton_model::asic::{self, Side};
use anton_model::latency::LatencyModel;

use anton_model::units::Ps;
use core::fmt;

/// A location on the chip that can source or sink packets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChipLoc {
    /// A Geometry Core in a Core Tile.
    Gc {
        /// Core Tile column (U), `0..24`.
        col: u8,
        /// Core Tile row (V), `0..12`.
        row: u8,
        /// Which of the tile's two GCs.
        which: u8,
    },
    /// An Interaction Control Block in an Edge Tile.
    Icb {
        /// Which chip side.
        side: Side,
        /// Edge Tile row, `0..12`.
        row: u8,
        /// Which of the tile's two ICBs.
        which: u8,
    },
    /// The Bond Calculator in a Core Tile.
    Bc {
        /// Core Tile column (U), `0..24`.
        col: u8,
        /// Core Tile row (V), `0..12`.
        row: u8,
    },
}

impl ChipLoc {
    /// Convenience constructor for a GC location.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn gc(col: u8, row: u8, which: u8) -> Self {
        assert!(
            (col as usize) < asic::CORE_COLS,
            "GC column {col} out of range"
        );
        assert!(
            (row as usize) < asic::CORE_ROWS,
            "GC row {row} out of range"
        );
        assert!(
            (which as usize) < asic::GCS_PER_TILE,
            "GC index {which} out of range"
        );
        ChipLoc::Gc { col, row, which }
    }

    /// Convenience constructor for an ICB location.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn icb(side: Side, row: u8, which: u8) -> Self {
        assert!(
            (row as usize) < asic::EDGE_ROWS,
            "ICB row {row} out of range"
        );
        assert!(
            (which as usize) < asic::ICBS_PER_EDGE_TILE,
            "ICB index {which} out of range"
        );
        ChipLoc::Icb { side, row, which }
    }

    /// The dense on-chip GC index for experiment bookkeeping.
    ///
    /// # Panics
    /// Panics if this location is not a GC.
    pub fn gc_index(self) -> usize {
        match self {
            ChipLoc::Gc { col, row, which } => {
                ((row as usize * asic::CORE_COLS) + col as usize) * asic::GCS_PER_TILE
                    + which as usize
            }
            other => panic!("{other} is not a GC"),
        }
    }

    /// The GC location with the given dense on-chip index.
    ///
    /// # Panics
    /// Panics if `index >= GCS_PER_ASIC`.
    pub fn gc_from_index(index: usize) -> Self {
        assert!(index < asic::GCS_PER_ASIC, "GC index {index} out of range");
        let which = (index % asic::GCS_PER_TILE) as u8;
        let tile = index / asic::GCS_PER_TILE;
        let col = (tile % asic::CORE_COLS) as u8;
        let row = (tile / asic::CORE_COLS) as u8;
        ChipLoc::Gc { col, row, which }
    }
}

impl fmt::Display for ChipLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipLoc::Gc { col, row, which } => write!(f, "gc({col},{row}).{which}"),
            ChipLoc::Icb { side, row, which } => {
                write!(f, "icb({side:?},{row}).{which}")
            }
            ChipLoc::Bc { col, row } => write!(f, "bc({col},{row})"),
        }
    }
}

/// U-dimension hops from a Core Tile column to the given chip side
/// (column 0 is adjacent to the left edge, column 23 to the right).
pub fn u_hops_to_side(col: u8, side: Side) -> u32 {
    match side {
        Side::Left => col as u32 + 1,
        Side::Right => asic::CORE_COLS as u32 - col as u32,
    }
}

/// The nearer chip side for a Core Tile column (ties go left).
pub fn nearest_side(col: u8) -> Side {
    if u_hops_to_side(col, Side::Left) <= u_hops_to_side(col, Side::Right) {
        Side::Left
    } else {
        Side::Right
    }
}

/// Edge Router hops for traffic *injected* from the Core Network at
/// `entry_row`, reaching the Channel Adapter at `ca_row`: one hop into an
/// inner column, row travel, one hop to the CA column (paper Figure 4,
/// red/green routes).
pub fn edge_hops_inject(entry_row: u8, ca_row: u8) -> u32 {
    (entry_row as i32 - ca_row as i32).unsigned_abs() + 2
}

/// Edge Router hops for intra-dimension *transit* traffic between two CA
/// rows in the outermost column (paper Figure 4, blue route). Opposite
/// directions of one dimension sit on adjacent rows, so the common
/// straight-through case costs just two hops.
pub fn edge_hops_transit(rx_ca_row: u8, tx_ca_row: u8) -> u32 {
    (rx_ca_row as i32 - tx_ca_row as i32).unsigned_abs() + 1
}

/// Edge Router hops for a dimension *turn*: channel to channel of a
/// different dimension through the two inner columns.
pub fn edge_hops_turn(rx_ca_row: u8, tx_ca_row: u8) -> u32 {
    (rx_ca_row as i32 - tx_ca_row as i32).unsigned_abs() + 2
}

/// Edge Router hops for traffic *ejected* from a Channel Adapter to the
/// Row Adapter at `exit_row` (mirror of injection).
pub fn edge_hops_eject(ca_row: u8, exit_row: u8) -> u32 {
    (ca_row as i32 - exit_row as i32).unsigned_abs() + 2
}

/// On-chip traversal time from a source location to a Channel Adapter for
/// `dir` on `side` at `ca_row`: TRTR injection, U hops across the Core
/// Network, the Row Adapter, and Edge Network hops to the CA.
pub fn source_to_ca(lat: &LatencyModel, loc: ChipLoc, side: Side, ca_row: u8) -> Ps {
    match loc {
        ChipLoc::Gc { col, row, .. } | ChipLoc::Bc { col, row } => {
            let u = u_hops_to_side(col, side);
            lat.core_to_edge(u, edge_hops_inject(row, ca_row))
        }
        ChipLoc::Icb {
            side: icb_side,
            row,
            ..
        } => {
            // ICBs connect to their side's Edge Network through their own
            // Row Adapter; reaching the other side crosses the Core mesh.
            if icb_side == side {
                lat.row_adapter.to_ps()
                    + lat.edge_hop.to_ps() * edge_hops_inject(row, ca_row) as u64
            } else {
                let u = asic::CORE_COLS as u32 + 1;
                lat.core_to_edge(u, edge_hops_inject(row, ca_row)) + lat.row_adapter.to_ps()
            }
        }
    }
}

/// On-chip traversal time from a Channel Adapter (`ca_row` on `side`) to a
/// destination location: Edge Network hops, the Row Adapter, U hops, and
/// TRTR ejection.
pub fn ca_to_dest(lat: &LatencyModel, side: Side, ca_row: u8, loc: ChipLoc) -> Ps {
    match loc {
        ChipLoc::Gc { col, row, .. } | ChipLoc::Bc { col, row } => {
            let u = u_hops_to_side(col, side);
            lat.edge_hop.to_ps() * edge_hops_eject(ca_row, row) as u64
                + lat.row_adapter.to_ps()
                + lat.core_u_hop.to_ps() * u as u64
                + lat.trtr.to_ps()
        }
        ChipLoc::Icb {
            side: icb_side,
            row,
            ..
        } => {
            if icb_side == side {
                lat.edge_hop.to_ps() * edge_hops_eject(ca_row, row) as u64 + lat.row_adapter.to_ps()
            } else {
                let u = asic::CORE_COLS as u32 + 1;
                lat.edge_hop.to_ps() * edge_hops_eject(ca_row, row) as u64
                    + lat.row_adapter.to_ps() * 2
                    + lat.core_u_hop.to_ps() * u as u64
            }
        }
    }
}

/// Intra-node path time between two chip locations through the Core
/// Network (U→V dimension order through the mesh).
pub fn loc_to_loc(lat: &LatencyModel, a: ChipLoc, b: ChipLoc) -> Ps {
    match (a, b) {
        (
            ChipLoc::Gc {
                col: c1, row: r1, ..
            },
            ChipLoc::Gc {
                col: c2, row: r2, ..
            },
        )
        | (
            ChipLoc::Gc {
                col: c1, row: r1, ..
            },
            ChipLoc::Bc { col: c2, row: r2 },
        )
        | (
            ChipLoc::Bc { col: c1, row: r1 },
            ChipLoc::Gc {
                col: c2, row: r2, ..
            },
        ) => {
            let u = (c1 as i32 - c2 as i32).unsigned_abs();
            let v = (r1 as i32 - r2 as i32).unsigned_abs();
            lat.trtr.to_ps() * 2
                + lat.core_u_hop.to_ps() * u as u64
                + lat.core_v_hop.to_ps() * v as u64
        }
        (
            ChipLoc::Gc { col, row, .. },
            ChipLoc::Icb {
                side, row: irow, ..
            },
        ) => {
            let u = u_hops_to_side(col, side);
            lat.trtr.to_ps()
                + lat.core_u_hop.to_ps() * u as u64
                + lat.row_adapter.to_ps()
                + lat.edge_hop.to_ps() * edge_hops_inject(row, irow) as u64
                + lat.row_adapter.to_ps()
        }
        (a, b) => unimplemented!("intra-node path {a} -> {b} not exercised by the experiments"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> LatencyModel {
        LatencyModel::default()
    }

    #[test]
    fn gc_index_roundtrip() {
        for i in (0..asic::GCS_PER_ASIC).step_by(7) {
            assert_eq!(ChipLoc::gc_from_index(i).gc_index(), i);
        }
        assert_eq!(
            ChipLoc::gc_from_index(0),
            ChipLoc::Gc {
                col: 0,
                row: 0,
                which: 0
            }
        );
    }

    #[test]
    fn u_hops_are_symmetric_extremes() {
        assert_eq!(u_hops_to_side(0, Side::Left), 1);
        assert_eq!(u_hops_to_side(23, Side::Right), 1);
        assert_eq!(u_hops_to_side(23, Side::Left), 24);
        assert_eq!(u_hops_to_side(0, Side::Right), 24);
        assert_eq!(nearest_side(5), Side::Left);
        assert_eq!(nearest_side(20), Side::Right);
    }

    #[test]
    fn transit_between_adjacent_rows_is_two_hops() {
        // X+ row 0 to X- row 1: the optimized straight-through case.
        assert_eq!(edge_hops_transit(0, 1), 2);
        assert_eq!(edge_hops_transit(0, 0), 1);
        assert_eq!(edge_hops_transit(0, 11), 12);
    }

    #[test]
    fn inject_eject_mirror() {
        assert_eq!(edge_hops_inject(3, 7), edge_hops_eject(7, 3));
    }

    #[test]
    fn turn_costs_one_more_than_transit() {
        assert_eq!(edge_hops_turn(2, 5), edge_hops_transit(2, 5) + 1);
    }

    #[test]
    fn source_to_ca_increases_with_distance() {
        let l = lat();
        let near = source_to_ca(&l, ChipLoc::gc(0, 0, 0), Side::Left, 0);
        let far = source_to_ca(&l, ChipLoc::gc(23, 11, 0), Side::Left, 0);
        assert!(far > near);
        // Nearest-possible GC: 1 U hop + 2 edge hops.
        let expect =
            l.trtr.to_ps() + l.core_u_hop.to_ps() + l.row_adapter.to_ps() + l.edge_hop.to_ps() * 2;
        assert_eq!(near, expect);
    }

    #[test]
    fn icb_same_side_is_cheap() {
        let l = lat();
        let same = source_to_ca(&l, ChipLoc::icb(Side::Left, 0, 0), Side::Left, 0);
        let cross = source_to_ca(&l, ChipLoc::icb(Side::Right, 0, 0), Side::Left, 0);
        assert!(same < cross);
    }

    #[test]
    fn loc_to_loc_gc_pair() {
        let l = lat();
        let t = loc_to_loc(&l, ChipLoc::gc(0, 0, 0), ChipLoc::gc(3, 2, 1));
        let expect = l.trtr.to_ps() * 2 + l.core_u_hop.to_ps() * 3 + l.core_v_hop.to_ps() * 2;
        assert_eq!(t, expect);
    }

    #[test]
    fn ca_to_dest_mirrors_source_to_ca_shape() {
        let l = lat();
        let out = source_to_ca(&l, ChipLoc::gc(4, 6, 0), Side::Left, 2);
        let back = ca_to_dest(&l, Side::Left, 2, ChipLoc::gc(4, 6, 0));
        assert_eq!(out, back);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_gc_rejected() {
        let _ = ChipLoc::gc(24, 0, 0);
    }

    #[test]
    fn display_locations() {
        assert_eq!(ChipLoc::gc(1, 2, 0).to_string(), "gc(1,2).0");
        assert_eq!(ChipLoc::icb(Side::Left, 3, 1).to_string(), "icb(Left,3).1");
    }
}
