//! The Edge Network as a cycle-level fabric — paper §III-B2, Figure 4.
//!
//! Each chip side carries a 12-row × 3-column mesh of Edge Routers. The
//! network is *column-partitioned*: the outermost column is reserved for
//! intra-dimension transit traffic (channel to channel of the same torus
//! dimension, whose CAs sit on adjacent rows), while injected traffic and
//! dimension turns use the two inner columns. This module builds that
//! fabric from [`crate::router::CycleRouter`] instances and is used to
//! validate the closed-form hop counts in [`crate::chip`] against the
//! cycle-accurate microarchitecture.

use crate::router::{CycleRouter, Flit, PortLink, RouteDecision, RouterFabric};
use anton_model::asic::{EDGE_COLS, EDGE_ROWS, EDGE_VCS};

/// Port numbering inside an edge router: 0 = row-up (toward row 0),
/// 1 = row-down, 2 = column-left (toward the CA column), 3 =
/// column-right (toward the Row Adapters), 4 = local attach (CA or RA).
pub const PORT_UP: usize = 0;
/// Port toward higher row numbers.
pub const PORT_DOWN: usize = 1;
/// Port toward the outer (CA) column.
pub const PORT_OUT: usize = 2;
/// Port toward the inner (Row Adapter) column.
pub const PORT_IN: usize = 3;
/// Local attachment (Channel Adapter at column 0, Row Adapter at column 2).
pub const PORT_LOCAL: usize = 4;

/// Dense router id for `(row, col)` in a single side's 12×3 mesh; column
/// 0 is the outermost (CA) column.
pub fn router_id(row: usize, col: usize) -> usize {
    debug_assert!(row < EDGE_ROWS && col < EDGE_COLS);
    row * EDGE_COLS + col
}

/// Destination encoding for the edge fabric: the attach point (row, col)
/// the flit should eject at.
pub fn dest_id(row: usize, col: usize) -> u32 {
    router_id(row, col) as u32
}

/// Builds one side's Edge Network as a cycle fabric with the paper's
/// 3-cycle per-hop routers and five VCs. Routing is column-first toward
/// the destination column, then row travel, then local ejection —
/// matching the transit/turn/inject shapes of Figure 4. Row Adapters
/// attach at the first inner column (column 1); the second inner column
/// provides the extra path diversity over which inter-dimensional
/// traffic is randomized (§III-B2).
pub fn build_edge_network() -> RouterFabric {
    let mut routers = Vec::new();
    let mut wiring = Vec::new();
    for row in 0..EDGE_ROWS {
        for col in 0..EDGE_COLS {
            routers.push(CycleRouter::new(router_id(row, col), 5, EDGE_VCS, 3));
            let up = if row > 0 {
                PortLink::Router {
                    router: router_id(row - 1, col),
                    port: PORT_DOWN,
                }
            } else {
                PortLink::Unused
            };
            let down = if row + 1 < EDGE_ROWS {
                PortLink::Router {
                    router: router_id(row + 1, col),
                    port: PORT_UP,
                }
            } else {
                PortLink::Unused
            };
            let out = if col > 0 {
                PortLink::Router {
                    router: router_id(row, col - 1),
                    port: PORT_IN,
                }
            } else {
                PortLink::Unused
            };
            let inw = if col + 1 < EDGE_COLS {
                PortLink::Router {
                    router: router_id(row, col + 1),
                    port: PORT_OUT,
                }
            } else {
                PortLink::Unused
            };
            wiring.push(vec![
                up,
                down,
                out,
                inw,
                PortLink::Endpoint(router_id(row, col) as u32),
            ]);
        }
    }
    let route = Box::new(|f: &Flit, router: usize| {
        let dest = f.dest;
        let (drow, dcol) = (
            (dest as usize) / EDGE_COLS % EDGE_ROWS,
            (dest as usize) % EDGE_COLS,
        );
        let (row, col) = (router / EDGE_COLS, router % EDGE_COLS);
        let port = if col != dcol {
            // Column travel first (into the lane class for this traffic).
            if dcol < col {
                PORT_OUT
            } else {
                PORT_IN
            }
        } else if row != drow {
            if drow < row {
                PORT_UP
            } else {
                PORT_DOWN
            }
        } else {
            PORT_LOCAL
        };
        RouteDecision::keep(port, f)
    });
    <RouterFabric>::new(routers, wiring, route)
}

/// Measures the unloaded flit latency (in cycles) from an injection at
/// `(src_row, src_col)` to ejection at `(dst_row, dst_col)`.
pub fn measure_hop_cycles(src: (usize, usize), dst: (usize, usize), vc: u8) -> u64 {
    let mut fabric = build_edge_network();
    let flit = Flit {
        packet: 1,
        index: 0,
        of: 1,
        dest: dest_id(dst.0, dst.1),
        vc,
        tag: 0,
        injected_at: 0,
    };
    assert!(fabric
        .inject(router_id(src.0, src.1), PORT_LOCAL, flit)
        .is_ok());
    assert!(fabric.run_until_drained(10_000), "edge fabric must drain");
    let (cycle, f) = fabric.delivered()[0];
    cycle - f.injected_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip;
    use anton_model::latency::LatencyModel;

    /// The closed-form hop formulas in `chip` must agree with the
    /// cycle-accurate fabric: hops × 3 cycles.
    #[test]
    fn transit_formula_matches_fabric() {
        let lat = LatencyModel::default();
        // Intra-dimension transit: CA at (row a, col 0) to CA at
        // (row b, col 0) — the Figure 4 blue route in the outer column.
        for (a, b) in [(0usize, 1usize), (0, 6), (4, 5), (0, 11)] {
            let cycles = measure_hop_cycles((a, 0), (b, 0), 0);
            let formula = chip::edge_hops_transit(a as u8, b as u8) as u64 * lat.edge_hop.count();
            assert_eq!(cycles, formula, "transit rows {a}->{b}");
        }
    }

    #[test]
    fn inject_formula_matches_fabric() {
        let lat = LatencyModel::default();
        // Injection: Row Adapter at (row r, col 2) to CA at (row c, col 0)
        // — the Figure 4 red/green shapes through the inner columns.
        for (r, c) in [(0usize, 0usize), (3, 7), (11, 0), (5, 5)] {
            let cycles = measure_hop_cycles((r, 1), (c, 0), 1);
            let formula = chip::edge_hops_inject(r as u8, c as u8) as u64 * lat.edge_hop.count();
            assert_eq!(cycles, formula, "inject row {r} -> CA row {c}");
        }
    }

    #[test]
    fn eject_formula_matches_fabric() {
        let lat = LatencyModel::default();
        for (c, r) in [(1usize, 1usize), (6, 0), (11, 11)] {
            let cycles = measure_hop_cycles((c, 0), (r, 1), 4);
            let formula = chip::edge_hops_eject(c as u8, r as u8) as u64 * lat.edge_hop.count();
            assert_eq!(cycles, formula, "eject CA row {c} -> row {r}");
        }
    }

    #[test]
    fn adjacent_row_transit_is_the_cheap_case() {
        // X+ and X- CAs on adjacent rows: 2 hops = 6 cycles — the
        // optimization Figure 4's partitioning buys.
        assert_eq!(measure_hop_cycles((0, 0), (1, 0), 0), 6);
        // A worst-case turn spans the column: far more.
        assert!(measure_hop_cycles((0, 0), (11, 1), 2) > 30);
    }

    #[test]
    fn all_five_vcs_traverse() {
        for vc in 0..EDGE_VCS as u8 {
            assert_eq!(measure_hop_cycles((2, 0), (3, 0), vc), 6, "vc {vc}");
        }
    }

    #[test]
    fn fabric_handles_concurrent_cross_traffic() {
        // Transit, inject and turn flits in flight together must all
        // arrive (the column partitioning keeps them mostly disjoint).
        let mut fabric = build_edge_network();
        let flits = [
            (router_id(0, 0), dest_id(1, 0)), // transit
            (router_id(5, 1), dest_id(2, 0)), // inject
            (router_id(8, 0), dest_id(3, 2)), // eject
            (router_id(4, 1), dest_id(9, 1)), // inner-column travel
        ];
        for (i, (src, dest)) in flits.iter().enumerate() {
            let f = Flit {
                packet: i as u64,
                index: 0,
                of: 1,
                dest: *dest,
                vc: (i % 4) as u8,
                tag: 0,
                injected_at: 0,
            };
            assert!(fabric.inject(*src, PORT_LOCAL, f).is_ok());
        }
        assert!(fabric.run_until_drained(10_000));
        assert_eq!(fabric.delivered().len(), flits.len());
    }
}
