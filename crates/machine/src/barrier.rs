//! Network-fence barrier latency — paper §V-E/F, Figure 11.
//!
//! A GC-to-GC fence with `number_of_hops = k` synchronizes all GCs within
//! k torus hops; at the machine diameter it is a global barrier. The
//! timing structure reconstructed from the paper:
//!
//! - **intra-node merge** (the 0-hop case, ~51.5 ns): GC fences merge
//!   bidirectionally along each Core-Network row (fence counters in the
//!   Core Routers), then bidirectionally along the Edge-Network columns
//!   of both sides, after which every edge row holds the full-chip merge
//!   and redistributes it back through its row to the GCs;
//! - **per-hop wave** (~51.8 ns/hop): the merged fence crosses the
//!   channel on *every request VC of both slices* and sweeps all valid
//!   edge-network paths at each hop (§V-C) — which is why the fence
//!   per-hop cost exceeds the 34.2 ns unicast per-hop cost;
//! - **delivery**: the final wave redistributes to every GC and lands as
//!   a counted write; the blocking read unstalls (§V-E).

use crate::machine::NetworkMachine;
use anton_model::asic;
use anton_model::latency::LatencyModel;
use anton_model::units::Ps;
use anton_model::MachineConfig;
use anton_net::adapter::LANES_PER_CA;
use anton_net::channel::Serializer;
use anton_net::packet::PacketKind;
use anton_net::routing::REQUEST_VCS;
use serde::Serialize;

/// One Figure 11 point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig11Row {
    /// Fence hop budget.
    pub hops: u32,
    /// Barrier completion latency, ns.
    pub latency_ns: f64,
}

/// Bidirectional merge-and-broadcast time over a line of `n` stations with
/// per-station `hop` latency: every station holds the full merge once the
/// wavefronts from both ends have swept past it — `n - 1` hops.
fn line_merge(n: usize, hop: Ps) -> Ps {
    hop * (n as u64 - 1)
}

/// Time for every node's full local (all-576-GC) merge to be available at
/// its Channel Adapters for wave transmission.
pub fn local_merge_time(lat: &LatencyModel) -> Ps {
    lat.send_overhead()
        + lat.trtr.to_ps()
        + line_merge(asic::CORE_COLS, lat.core_u_hop.to_ps())
        + lat.row_adapter.to_ps()
        + line_merge(asic::EDGE_ROWS, lat.edge_hop.to_ps())
        + lat.fence_merge.to_ps()
}

/// Per-hop fence wave latency: the channel crossing plus the all-paths
/// sweep. Fence packets are injected on all request VCs of both slices
/// (two CAs per side per direction), and the merged wave must sweep the
/// full edge-network column (all CA rows are valid turn targets) before
/// the next hop can launch.
pub fn fence_per_hop(lat: &LatencyModel, inz: bool) -> Ps {
    let ser = Serializer::new(LANES_PER_CA as u32);
    // One fence flit header per request VC through each of the two CAs
    // serving the slice side; the slowest CA's drain bounds the wave.
    let fence_bytes = if inz {
        PacketKind::Fence.wire_header_bytes()
    } else {
        24
    };
    let vc_sweep = ser.serialize_time(fence_bytes * REQUEST_VCS as usize) * 2;
    let edge_sweep = lat.edge_hop.to_ps() * (asic::EDGE_ROWS as u64 + 2);
    lat.channel_crossing_fixed(inz) + vc_sweep + edge_sweep + lat.fence_merge.to_ps() * 2
}

/// Delivery of the completed wave to every GC: edge-column redistribution,
/// the Core-Network row from the nearest side, and the counted-write /
/// blocking-read landing (§V-E).
pub fn delivery_time(lat: &LatencyModel) -> Ps {
    line_merge(asic::EDGE_ROWS, lat.edge_hop.to_ps())
        + lat.fence_merge.to_ps()
        + lat.row_adapter.to_ps()
        + lat.core_u_hop.to_ps() * (asic::CORE_COLS as u64 / 2)
        + lat.trtr.to_ps()
        + lat.receive_overhead()
}

/// Intra-node (0-hop) barrier latency: row merge, column merge, and
/// nearest-side redistribution — no channels involved.
pub fn intra_node_barrier(lat: &LatencyModel) -> Ps {
    lat.send_overhead()
        + lat.trtr.to_ps()
        + line_merge(asic::CORE_COLS, lat.core_u_hop.to_ps())
        + lat.row_adapter.to_ps()
        + line_merge(asic::EDGE_ROWS, lat.edge_hop.to_ps())
        + lat.fence_merge.to_ps()
        + lat.row_adapter.to_ps()
        + lat.core_u_hop.to_ps() * (asic::CORE_COLS as u64 / 2)
        + lat.trtr.to_ps()
        + lat.receive_overhead()
}

/// Barrier latency for a GC-to-GC fence sweeping `hops` torus hops
/// (0 = intra-node; the machine diameter = global barrier).
pub fn barrier_latency(cfg: &MachineConfig, hops: u32) -> Ps {
    let lat = &cfg.latency;
    if hops == 0 {
        return intra_node_barrier(lat);
    }
    local_merge_time(lat) + fence_per_hop(lat, cfg.inz_enabled) * hops as u64 + delivery_time(lat)
}

/// Runs the Figure 11 sweep: barrier latency for hop budgets 0..=diameter.
pub fn fig11(cfg: &MachineConfig) -> Vec<Fig11Row> {
    (0..=cfg.torus.diameter())
        .map(|hops| Fig11Row {
            hops,
            latency_ns: barrier_latency(cfg, hops).as_ns(),
        })
        .collect()
}

/// The ordering property the fence is built on (§V): a fence transmitted
/// on a link after data packets cannot overtake them, because it shares
/// the same FIFO serializer. Returns `(last_data_arrival, fence_arrival)`
/// for a burst of `data_packets` on one link of `machine`.
pub fn fence_flushes_link(
    machine: &mut NetworkMachine,
    node: anton_model::topology::NodeId,
    dir: anton_model::topology::Direction,
    data_packets: usize,
) -> (Ps, Ps) {
    let link = machine.link_mut(node, dir, 0);
    let mut last_data = Ps::ZERO;
    for i in 0..data_packets {
        let t = link.send_quad(Ps::ZERO, PacketKind::CountedWrite, &[i as u32, 0, 0, 0]);
        last_data = last_data.max(t.arrive);
    }
    let fence = link.send_marker(Ps::ZERO, PacketKind::Fence);
    (last_data, fence.arrive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_model::topology::{Dim, Direction, NodeId};
    use anton_sim::stats::linear_fit;

    fn cfg_128() -> MachineConfig {
        MachineConfig::torus([4, 4, 8])
    }

    #[test]
    fn intra_node_barrier_near_51ns() {
        let t = intra_node_barrier(&LatencyModel::default());
        assert!(
            (47.0..58.0).contains(&t.as_ns()),
            "intra-node barrier {} ns vs paper's 51.5 ns",
            t.as_ns()
        );
    }

    #[test]
    fn per_hop_near_51_8ns() {
        let t = fence_per_hop(&LatencyModel::default(), true);
        assert!(
            (47.0..56.0).contains(&t.as_ns()),
            "fence per-hop {} ns vs paper's 51.8 ns",
            t.as_ns()
        );
    }

    #[test]
    fn fence_per_hop_exceeds_unicast_per_hop() {
        // Paper: 51.8 vs 34.2 ns — the all-paths sweep costs ~17 ns extra.
        let lat = LatencyModel::default();
        let fence = fence_per_hop(&lat, true).as_ns();
        let unicast = 34.2;
        assert!(
            (10.0..25.0).contains(&(fence - unicast)),
            "fence premium {} ns vs paper's 17.6 ns",
            fence - unicast
        );
    }

    #[test]
    fn global_barrier_on_128_nodes_near_504ns() {
        let cfg = cfg_128();
        let t = barrier_latency(&cfg, 8);
        assert!(
            (430.0..560.0).contains(&t.as_ns()),
            "global barrier {} ns vs paper's ~504 ns",
            t.as_ns()
        );
    }

    #[test]
    fn fig11_is_linear_in_hops() {
        let rows = fig11(&cfg_128());
        assert_eq!(rows.len(), 9);
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.hops >= 1)
            .map(|r| (r.hops as f64, r.latency_ns))
            .collect();
        let fit = linear_fit(&pts);
        assert!(
            fit.r2 > 0.999,
            "fence latency must scale linearly, r2={}",
            fit.r2
        );
        assert!(
            (47.0..56.0).contains(&fit.slope),
            "fit slope {} vs paper's 51.8 ns/hop",
            fit.slope
        );
    }

    #[test]
    fn zero_hop_cheaper_than_one_hop() {
        let rows = fig11(&cfg_128());
        assert!(rows[0].latency_ns < rows[1].latency_ns - 30.0);
    }

    #[test]
    fn fence_cannot_overtake_data() {
        let mut m = NetworkMachine::new(MachineConfig::torus([2, 2, 2]));
        let (last_data, fence) =
            fence_flushes_link(&mut m, NodeId(0), Direction::new(Dim::X, true), 50);
        assert!(
            fence > last_data,
            "fence ({fence}) must arrive after all prior data ({last_data})"
        );
    }
}
