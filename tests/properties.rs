//! Property-based tests (proptest) over the core invariants: INZ
//! roundtrips, particle-cache losslessness and synchrony, routing
//! legality, and torus algebra.

use anton3::compress::inz;
use anton3::compress::pcache::{ChannelPcache, ParticleKey};
use anton3::model::topology::{DimOrder, NodeId, Torus};
use anton3::net::channel::ByteKind;
use anton3::net::fabric3d::{
    encode_request_tag, encode_response_tag, torus_route, torus_route_tab, RouteTables, SLICES,
};
use anton3::net::router::Flit;
use anton3::net::routing;
use anton3::sim::rng::SplitMix64;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inz_roundtrips_any_payload(words in prop::collection::vec(any::<u32>(), 1..=4)) {
        let enc = inz::encode(&words);
        prop_assert_eq!(inz::decode(&enc), words.clone());
        // Wire length is bounded: descriptor + at most the raw payload.
        prop_assert!(enc.wire_len() <= 1 + 4 * words.len());
    }

    #[test]
    fn inz_never_expands_beyond_raw(words in prop::collection::vec(any::<u32>(), 1..=4)) {
        let enc = inz::encode(&words);
        prop_assert!(enc.payload_len() <= 4 * words.len());
    }

    #[test]
    fn inz_small_values_always_save(
        a in -1000i32..1000,
        b in -1000i32..1000,
        c in -1000i32..1000,
    ) {
        let words = [a as u32, b as u32, c as u32];
        let enc = inz::encode(&words);
        prop_assert!(enc.wire_len() < 13, "got {} bytes", enc.wire_len());
        prop_assert_eq!(inz::decode(&enc), words.to_vec());
    }

    #[test]
    fn sign_fold_is_bijective(w in any::<u32>()) {
        prop_assert_eq!(inz::uninvert_word(inz::invert_word(w)), w);
    }

    #[test]
    fn pcache_is_lossless_for_arbitrary_streams(
        ops in prop::collection::vec(
            (0u64..64, any::<[i32; 3]>(), any::<bool>()),
            1..200,
        )
    ) {
        let mut ch = ChannelPcache::new(2);
        for (key, pos, end_step) in ops {
            let wire = ch.transmit(ParticleKey(key), pos);
            let (rk, rp) = ch.receive(wire);
            prop_assert_eq!(rk, ParticleKey(key));
            prop_assert_eq!(rp, pos);
            if end_step {
                ch.end_of_step();
            }
        }
        ch.assert_synchronized();
    }

    #[test]
    fn request_routes_are_minimal_and_legal(
        src in 0u16..128,
        dst in 0u16..128,
        seed in any::<u64>(),
    ) {
        let torus = Torus::new([4, 4, 8]);
        let a = torus.coord(NodeId(src));
        let b = torus.coord(NodeId(dst));
        let mut rng = SplitMix64::new(seed);
        let plan = routing::plan_request(&torus, a, b, &mut rng);
        prop_assert_eq!(plan.hop_count(), torus.hop_distance(a, b));
        // Walk the route; every hop must use a request VC and the walk
        // must terminate at the destination.
        let mut cur = a;
        let mut crossed = false;
        for hop in &plan.hops {
            prop_assert!(hop.vc < routing::REQUEST_VCS);
            if crossed {
                prop_assert!(hop.vc >= 2, "post-dateline hops must use the upper VC set");
            }
            crossed |= hop.wraps;
            cur = torus.neighbor(cur, hop.dir);
        }
        prop_assert_eq!(cur, b);
    }

    #[test]
    fn response_routes_reach_without_wrapping(
        src in 0u16..128,
        dst in 0u16..128,
        seed in any::<u64>(),
    ) {
        let torus = Torus::new([4, 4, 8]);
        let a = torus.coord(NodeId(src));
        let b = torus.coord(NodeId(dst));
        let mut rng = SplitMix64::new(seed);
        let plan = routing::plan_response(&torus, a, b, &mut rng);
        let mut cur = a;
        for hop in &plan.hops {
            prop_assert!(!hop.wraps, "response crossed a dateline");
            prop_assert_eq!(hop.vc, routing::RESPONSE_VC);
            cur = torus.neighbor(cur, hop.dir);
        }
        prop_assert_eq!(cur, b);
    }

    #[test]
    fn torus_routes_are_minimal_under_every_order(
        src in 0u16..128,
        dst in 0u16..128,
        order_idx in 0usize..6,
    ) {
        let torus = Torus::new([4, 4, 8]);
        let a = torus.coord(NodeId(src));
        let b = torus.coord(NodeId(dst));
        let order = DimOrder::ALL[order_idx];
        let route = torus.route(a, b, order);
        prop_assert_eq!(route.len() as u32, torus.hop_distance(a, b));
        let mut cur = a;
        for d in route {
            cur = torus.neighbor(cur, d);
        }
        prop_assert_eq!(cur, b);
    }

    #[test]
    fn hop_distance_is_a_metric(
        x in 0u16..128,
        y in 0u16..128,
        z in 0u16..128,
    ) {
        let torus = Torus::new([4, 4, 8]);
        let (a, b, c) =
            (torus.coord(NodeId(x)), torus.coord(NodeId(y)), torus.coord(NodeId(z)));
        let ab = torus.hop_distance(a, b);
        let ba = torus.hop_distance(b, a);
        prop_assert_eq!(ab, ba, "symmetry");
        prop_assert_eq!(torus.hop_distance(a, a), 0, "identity");
        prop_assert!(
            torus.hop_distance(a, c) <= ab + torus.hop_distance(b, c),
            "triangle inequality"
        );
    }
}

// --- PR 1: routing invariants on arbitrary torus shapes -----------------

/// Generates a random torus shape within the 512-node budget.
fn torus_from(dims: (u8, u8, u8)) -> Torus {
    Torus::new([dims.0, dims.1, dims.2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_routes_are_minimal_per_dimension(
        dims in (1u8..=6, 1u8..=6, 1u8..=8),
        src_ix in 0u16..512,
        dst_ix in 0u16..512,
        seed in any::<u64>(),
    ) {
        let torus = torus_from(dims);
        let n = torus.node_count() as u16;
        let a = torus.coord(NodeId(src_ix % n));
        let b = torus.coord(NodeId(dst_ix % n));
        let mut rng = SplitMix64::new(seed);
        let plan = routing::plan_request(&torus, a, b, &mut rng);
        // Per-dimension minimality: the route takes exactly
        // |signed_distance| hops in each dimension, all the same way.
        for dim in anton3::model::topology::Dim::ALL {
            let want = torus.signed_distance(a, b, dim);
            let taken: i32 = plan
                .hops
                .iter()
                .filter(|h| h.dir.dim() == dim)
                .map(|h| if h.dir.is_positive() { 1 } else { -1 })
                .sum();
            let hops_in_dim =
                plan.hops.iter().filter(|h| h.dir.dim() == dim).count();
            prop_assert_eq!(
                hops_in_dim as u32,
                want.unsigned_abs() as u32,
                "dimension {} hop count", dim
            );
            // Signed displacements only cancel if the route backtracks.
            prop_assert_eq!(taken, want as i32, "dimension {} backtracked", dim);
        }
    }

    #[test]
    fn request_routes_cross_each_dateline_at_most_once(
        dims in (1u8..=6, 1u8..=6, 1u8..=8),
        src_ix in 0u16..512,
        dst_ix in 0u16..512,
        seed in any::<u64>(),
    ) {
        let torus = torus_from(dims);
        let n = torus.node_count() as u16;
        let a = torus.coord(NodeId(src_ix % n));
        let b = torus.coord(NodeId(dst_ix % n));
        let mut rng = SplitMix64::new(seed);
        let plan = routing::plan_request(&torus, a, b, &mut rng);
        // Walk the route, counting wraparound crossings per dimension and
        // revalidating each recorded `wraps` flag independently.
        let mut cur = a;
        let mut wraps = [0u32; 3];
        for hop in &plan.hops {
            let is_wrap = routing::crosses_dateline(&torus, cur, hop.dir);
            prop_assert_eq!(hop.wraps, is_wrap, "wrap flag disagrees with walk");
            if is_wrap {
                wraps[hop.dir.dim().index()] += 1;
            }
            cur = torus.neighbor(cur, hop.dir);
        }
        prop_assert_eq!(cur, b, "route must terminate at the destination");
        for (k, &w) in wraps.iter().enumerate() {
            // Minimal routes never travel far enough to wrap twice; rings
            // of length <= 2 make "wrap" and "direct" the same link, so a
            // single crossing is still the bound.
            prop_assert!(w <= 1, "dimension {} crossed its dateline {} times", k, w);
        }
    }

    #[test]
    fn cycle_fabric_agrees_with_route_plans(
        dims in (2u8..=4, 2u8..=4, 2u8..=4),
        src_ix in 0u16..64,
        dst_ix in 0u16..64,
        order_idx in 0usize..6,
        base_vc in 0u8..2,
    ) {
        use anton3::model::latency::LatencyModel;
        use anton3::net::fabric3d::{FabricParams, PacketSpec, TorusFabric};

        let torus = torus_from(dims);
        let n = torus.node_count() as u16;
        let (src, dst) = (NodeId(src_ix % n), NodeId(dst_ix % n));
        let params = FabricParams::calibrated(&LatencyModel::default());
        let mut fabric = TorusFabric::new(torus, params);
        let slice = (src_ix % 2) as usize;
        let spec = PacketSpec::request(src, dst, 1, 1).with_draw(order_idx, slice, base_vc);
        let plan = fabric.inject(spec).expect("empty fabric has credits");
        prop_assert!(fabric.run_until_drained(1_000_000), "must drain");
        let (cycle, flit) = fabric.delivered()[0];
        // Unloaded latency encodes the hop count; it must equal the
        // plan's, and the delivered VC must equal the plan's last hop VC.
        let latency = cycle - flit.injected_at;
        let hops = (latency - params.router_cycles) / params.per_hop_cycles();
        prop_assert_eq!(hops as u32, plan.hop_count(), "fabric hop count != plan");
        if let Some(last) = plan.hops.last() {
            prop_assert_eq!(flit.vc, last.vc, "fabric VC != plan VC");
        }
    }
}

// --- PR 9: separable route tables pinned to direct computation ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The separable per-dimension tables must reproduce `torus_route`
    /// (the direct-computation specification) **bit for bit** — port,
    /// VC, and updated tag — for every traffic class, dimension order,
    /// dateline state, slice, and byte kind at a random (router, dest)
    /// pair on each sampled shape.
    /// Shapes alternate between small asymmetric tori (differing
    /// per-dimension extents; rings of length 1–2 where "wrap" and
    /// "direct" are the same link) and cubic shapes from 11³ = 1331 up
    /// to 16³ = 4096 nodes — above the old 1024-node quadratic
    /// route-table cap.
    #[test]
    fn separable_tables_match_direct_computation(
        mega in any::<bool>(),
        small_dims in (1u8..=6, 1u8..=8, 1u8..=10),
        mega_dims in (11u8..=16, 11u8..=16, 11u8..=16),
        router_ix in any::<u32>(),
        dest_ix in any::<u32>(),
        base_vc in 0u8..2,
        slice in 0usize..SLICES,
        kind_ix in 0usize..3,
    ) {
        let (x, y, z) = if mega { mega_dims } else { small_dims };
        let dims = [x, y, z];
        let torus = Torus::new(dims);
        let tables = RouteTables::build(&torus);
        let n = torus.node_count() as u32;
        let router = (router_ix % n) as usize;
        let dest = (dest_ix % n) as usize;
        let kind = ByteKind::from_index(kind_ix);
        let mut tags = vec![encode_response_tag(slice, kind)];
        for order in 0..6 {
            for crossed in [false, true] {
                tags.push(encode_request_tag(order, base_vc, crossed, slice, kind));
            }
        }
        for tag in tags {
            let f = Flit {
                packet: 1,
                index: 0,
                of: 1,
                dest: dest as u32,
                vc: 0,
                tag,
                injected_at: 0,
            };
            let direct = torus_route(&torus, &f, router);
            prop_assert_eq!(
                torus_route_tab(&tables, &f, router),
                direct,
                "table decision diverged (dims {:?}, router {}, dest {}, tag {:#06x})",
                dims, router, dest, tag
            );
        }
    }
}
