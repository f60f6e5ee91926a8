//! MD-shaped replay on the cycle fabric with Figure 9a wire-byte
//! typing, reconciled exactly — the same conservation style as the
//! PR 2 replayed-trace test, now per [`ByteKind`].
//!
//! An [`MdHaloWorkload`] built from a real spatial decomposition drives
//! the fabric through the unified `inject(PacketSpec)` endpoint:
//! position exports (request class, [`ByteKind::Position`]) to the
//! import-region neighborhood, each delivered export spawning a force
//! return (response class, [`ByteKind::Force`]). Every accepted
//! injection's returned [`RoutePlan`] is walked independently to build
//! the expected per-(link, slice, kind) flit counts; after the drain,
//! the fabric's typed [`LinkStats`] must match them **exactly**, link
//! by link, and the machine-wide totals must conserve wire bytes per
//! kind under the same `PacketKind -> ByteKind` mapping the analytic
//! channel adapters use.
//!
//! [`RoutePlan`]: anton3::net::routing::RoutePlan

use anton3::md::decomp::Decomposition;
use anton3::model::latency::LatencyModel;
use anton3::model::topology::{Direction, NodeId, Torus};
use anton3::net::channel::{ByteKind, LinkStats};
use anton3::net::fabric3d::{
    FabricParams, PacketSpec, TorusFabric, TrafficClass, FLIT_BYTES, SLICES,
};
use anton3::net::packet::PacketKind;
use anton3::sim::rng::SplitMix64;
use anton3::traffic::workload::{MdHaloWorkload, Workload};
use std::collections::HashMap;
use std::collections::VecDeque;

#[test]
fn md_halo_replay_reconciles_per_kind_link_stats_exactly() {
    // A 3x3x3 machine over a 30 A box: 10 A home boxes with a 3.25 A
    // import radius (the midpoint-method half-cutoff of the 6.5 A water
    // model), so exports reach face/edge/corner sharers only.
    let torus = Torus::new([3, 3, 3]);
    let decomp = Decomposition::new(torus, [30.0; 3], 3.25);
    let workload = MdHaloWorkload::from_decomposition(&decomp, 48, 2, 42);
    let params = FabricParams::calibrated(&LatencyModel::default());
    let mut fabric = TorusFabric::new(torus, params);

    let n = torus.node_count();
    let root = SplitMix64::new(0x4D44);
    let mut node_rng: Vec<SplitMix64> = (0..n as u64).map(|i| root.split(i)).collect();
    let mut queues: Vec<VecDeque<PacketSpec>> = Vec::new();
    queues.resize_with(n, VecDeque::new);
    let mut specs: HashMap<u64, PacketSpec> = HashMap::new();
    let mut next_id = 0u64;
    let mut emitted: Vec<PacketSpec> = Vec::new();
    // (node, dir index, slice, kind index) -> expected flits.
    let mut expected: HashMap<(u16, usize, usize, usize), u64> = HashMap::new();
    let mut requests_delivered = 0u64;
    let mut responses_spawned = 0u64;

    // The per-node generation probability: low enough to drain, high
    // enough to exercise every link kind.
    let gen_cycles = 400u64;
    let mut cycle = 0u64;
    loop {
        if cycle < gen_cycles {
            for node in 0..n {
                if node_rng[node].next_f64() < 0.10 {
                    workload.next_packets(
                        &torus,
                        NodeId(node as u16),
                        cycle,
                        &mut node_rng[node],
                        &mut emitted,
                    );
                    for spec in emitted.drain(..) {
                        let id = next_id;
                        next_id += 1;
                        queues[node].push_back(PacketSpec { id, ..spec });
                    }
                }
            }
        }
        // Head-of-line injection per node; a rejected spec is retried
        // verbatim next cycle. Every accepted plan is walked into the
        // expected per-kind link counts.
        for queue in queues.iter_mut() {
            let Some(&spec) = queue.front() else { continue };
            if let Ok(plan) = fabric.inject(spec) {
                queue.pop_front();
                specs.insert(spec.id, spec);
                let mut cur = torus.coord(spec.src);
                for hop in &plan.hops {
                    *expected
                        .entry((
                            torus.node_id(cur).0,
                            hop.dir.index(),
                            spec.slice,
                            spec.kind.index(),
                        ))
                        .or_insert(0) += spec.nflits as u64;
                    cur = torus.neighbor(cur, hop.dir);
                }
                assert_eq!(
                    cur,
                    torus.coord(spec.dst),
                    "plan must reach its destination"
                );
            }
        }
        fabric.step();
        cycle = fabric.cycle();
        for (_at, flit) in fabric.take_delivered() {
            if !flit.is_tail() {
                continue;
            }
            let spec = specs[&flit.packet];
            if spec.class == TrafficClass::Request {
                requests_delivered += 1;
            }
            workload.on_delivered(
                &torus,
                &spec,
                cycle,
                &mut node_rng[spec.dst.index()],
                &mut emitted,
            );
            for spawned in emitted.drain(..) {
                responses_spawned += 1;
                let id = next_id;
                next_id += 1;
                queues[spawned.src.index()].push_back(PacketSpec { id, ..spawned });
            }
        }
        let queued: usize = queues.iter().map(VecDeque::len).sum();
        if cycle >= gen_cycles && queued == 0 && fabric.occupancy() == 0 {
            // One more drain pass so trailing deliveries spawn and land.
            if fabric.delivered().is_empty() {
                break;
            }
        }
        assert!(cycle < 3_000_000, "replay failed to drain");
    }

    assert!(requests_delivered > 200, "replay must carry real traffic");
    assert_eq!(
        responses_spawned, requests_delivered,
        "every delivered position export owes exactly one force return"
    );

    // Exact reconciliation, link by link and kind by kind, against the
    // independently walked route plans.
    let mut total = LinkStats::default();
    for node in torus.nodes() {
        for dir in Direction::ALL {
            for s in 0..SLICES {
                let stats = fabric.link_stats(node, dir, s);
                assert!(stats.kinds_conserve_wire());
                for kind in ByteKind::ALL {
                    let flits = expected
                        .get(&(node.0, dir.index(), s, kind.index()))
                        .copied()
                        .unwrap_or(0);
                    assert_eq!(
                        stats.kind_bytes(kind),
                        flits * FLIT_BYTES,
                        "link ({node:?}, {dir}, slice {s}) {kind:?} bytes diverged"
                    );
                }
                total.merge(&stats);
            }
        }
    }

    // Machine-wide: the halo replay is typed exactly like the analytic
    // channel adapters type the same MD packet kinds — position exports
    // under `PacketKind::Position.byte_kind()`, force returns under
    // `PacketKind::Force.byte_kind()`, nothing untyped.
    assert_eq!(PacketKind::Position.byte_kind(), ByteKind::Position);
    assert_eq!(
        PacketKind::CompressedPosition.byte_kind(),
        ByteKind::Position
    );
    assert_eq!(PacketKind::Force.byte_kind(), ByteKind::Force);
    assert!(total.position_bytes > 0 && total.force_bytes > 0);
    assert_eq!(
        total.other_bytes, 0,
        "halo replay carries only typed traffic"
    );
    assert!(total.kinds_conserve_wire());
    let expected_total: u64 = expected.values().sum();
    assert_eq!(total.wire_bytes, expected_total * FLIT_BYTES);
}
