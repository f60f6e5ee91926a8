//! Property tests for the two-slice, two-class torus fabric (paper
//! §III-B2 / §V-C): with response traffic enabled — every delivered
//! request spawning a reply to its source — the fabric always drains
//! once generation stops, i.e. there is no VC dependency cycle between
//! the request and response classes; and each class keeps its dateline
//! invariant on random torus shapes (at most one wraparound crossing
//! per dimension for requests, none at all for responses).

use anton3::model::latency::LatencyModel;
use anton3::model::topology::{DimOrder, NodeId, Torus};
use anton3::net::fabric3d::{FabricParams, PacketSpec, TorusFabric, TrafficClass, SLICES};
use anton3::net::routing::{self, RESPONSE_VC};
use anton3::net::telemetry::{TelemetryConfig, TraceEventKind};
use anton3::sim::rng::SplitMix64;
use anton3::traffic::patterns::UniformRandom;
use anton3::traffic::sweep::{run_scenario_instrumented, SweepConfig};
use anton3::traffic::workload::{SyntheticWorkload, Workload};
use proptest::prelude::*;
use std::collections::HashMap;

/// Uniform random requests with force returns, two per generation
/// opportunity, recording the class of every delivered packet by id.
struct DoubledUniform<'a> {
    inner: SyntheticWorkload<'a>,
    delivered: HashMap<u64, TrafficClass>,
}

impl Workload for DoubledUniform<'_> {
    fn next_packets(
        &mut self,
        torus: &Torus,
        src: NodeId,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        self.inner.next_packets(torus, src, cycle, rng, out);
        self.inner.next_packets(torus, src, cycle, rng, out);
    }

    fn on_delivered(
        &mut self,
        torus: &Torus,
        delivered: &PacketSpec,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        self.delivered.insert(delivered.id, delivered.class);
        self.inner.on_delivered(torus, delivered, cycle, rng, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Overload a random-shape fabric with request traffic whose
    /// deliveries spawn responses, stop generating, and require a full
    /// drain: a request/response dependency cycle would leave flits
    /// resident forever. The point has no warmup, so every packet and
    /// every response it spawns is tracked to delivery. Every delivered
    /// flit must also carry its class's VCs.
    #[test]
    fn overloaded_mixed_class_fabric_drains(
        dims in (2u8..=4, 2u8..=4, 2u8..=5),
        seed in any::<u64>(),
        inject_cycles in 40u64..150,
        shards in 1usize..=2,
    ) {
        // Offered 1.0 with two 2-flit requests per opportunity: every
        // node generates 2 flits per cycle, far past saturation.
        let mut cfg = SweepConfig::new([dims.0, dims.1, dims.2]);
        cfg.seed = seed;
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = inject_cycles;
        cfg.drain_cycles = 200_000;
        cfg.shards = shards;
        let params = FabricParams::calibrated(&LatencyModel::default());
        let mut workload = DoubledUniform {
            inner: SyntheticWorkload::new(&UniformRandom, cfg.flits_per_packet, true),
            delivered: HashMap::new(),
        };
        let telemetry = TelemetryConfig { trace: true, ..TelemetryConfig::default() };
        let run = run_scenario_instrumented(&mut workload, &cfg, params, 1.0, 0, telemetry);
        let (req, resp) = (run.point.request, run.point.response.expect("responses on"));
        prop_assert!(
            req.packets_incomplete == 0 && resp.packets_incomplete == 0
                && run.fabric.occupancy() == 0,
            "fabric did not drain after generation stopped: {} requests and {} responses \
             undelivered, {} flits resident (dependency cycle between classes?)",
            req.packets_incomplete,
            resp.packets_incomplete,
            run.fabric.occupancy()
        );
        prop_assert_eq!(resp.packets_measured, req.packets_measured);

        let tel = run.fabric.telemetry().expect("instrumented run");
        prop_assert_eq!(tel.trace_dropped(), 0, "trace buffer overflowed");
        let mut delivers = 0usize;
        for ev in tel.trace_events().iter().filter(|e| e.kind == TraceEventKind::Deliver) {
            delivers += 1;
            match workload.delivered[&ev.packet] {
                TrafficClass::Request => prop_assert!(
                    ev.vc < RESPONSE_VC,
                    "request {} delivered on VC {}", ev.packet, ev.vc
                ),
                TrafficClass::Response => prop_assert_eq!(
                    ev.vc, RESPONSE_VC,
                    "response {} delivered off its VC", ev.packet
                ),
            }
        }
        // One event per flit, so a packet delivered twice fails here.
        prop_assert_eq!(delivers, 2 * workload.delivered.len(), "one event per flit");
    }

    /// Per-class dateline invariants on random shapes: request plans
    /// cross each dimension's wraparound at most once (any order, any
    /// base VC), and response routes — checked on the fabric itself via
    /// the per-slice link counters — never touch a wraparound link.
    #[test]
    fn dateline_crossings_bounded_per_class(
        dims in (2u8..=4, 2u8..=4, 2u8..=5),
        src_ix in any::<u16>(),
        dst_ix in any::<u16>(),
        order_idx in 0usize..6,
        base_vc in 0u8..2,
        slice in 0usize..SLICES,
    ) {
        let torus = Torus::new([dims.0, dims.1, dims.2]);
        let n = torus.node_count() as u16;
        let (src, dst) = (NodeId(src_ix % n), NodeId(dst_ix % n));
        let params = FabricParams::calibrated(&LatencyModel::default());

        // Request class: plan-level walk, one crossing per dimension max.
        let plan = routing::plan_request_fixed(
            &torus,
            torus.coord(src),
            torus.coord(dst),
            DimOrder::ALL[order_idx],
            slice,
            base_vc,
        );
        let mut wraps = [0u32; 3];
        let mut cur = torus.coord(src);
        for hop in &plan.hops {
            if routing::crosses_dateline(&torus, cur, hop.dir) {
                wraps[hop.dir.dim().index()] += 1;
            }
            prop_assert!(hop.vc < RESPONSE_VC, "request plan uses the response VC");
            cur = torus.neighbor(cur, hop.dir);
        }
        for (k, &w) in wraps.iter().enumerate() {
            prop_assert!(w <= 1, "request crossed dimension {k} dateline {w} times");
        }

        // Response class: run it through the fabric and assert zero
        // traffic on every wraparound slice link.
        let mut fabric = TorusFabric::new(torus, params);
        fabric
            .inject(PacketSpec::response(src, dst, 1, 2).with_slice(slice))
            .expect("empty fabric");
        prop_assert!(fabric.run_until_drained(1_000_000), "response must drain");
        for node in torus.nodes() {
            for dir in anton3::model::topology::Direction::ALL {
                if routing::crosses_dateline(&torus, torus.coord(node), dir) {
                    for s in 0..SLICES {
                        prop_assert_eq!(
                            fabric.link_stats(node, dir, s).packets,
                            0,
                            "response crossed the {} dateline at {:?}",
                            dir,
                            node
                        );
                    }
                }
            }
        }
    }
}
