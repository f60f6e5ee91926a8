//! Property test pinning the event-driven fabric core to the retained
//! naive reference stepper: random torus shapes and mixed-class loads
//! run through both `TorusFabric::step` (worklists, persistent
//! candidate lists, maturity wheels, direct credit checks) and
//! `TorusFabric::step_reference` (the pre-worklist full scan kept as the
//! executable specification), asserting **bit-identical** `(cycle,
//! Flit)` delivery logs and per-link, per-slice, per-`ByteKind` traffic
//! counters. Every shipped calibration constant and every loaded-latency
//! regression rides on this equivalence.

use anton3::model::latency::LatencyModel;
use anton3::model::topology::{Direction, NodeId, Torus};
use anton3::net::channel::ByteKind;
use anton3::net::fabric3d::{FabricParams, PacketSpec, TorusFabric, SLICES};
use anton3::net::router::ShardError;
use anton3::net::telemetry::TelemetryConfig;
use anton3::sim::rng::SplitMix64;
use proptest::prelude::*;

/// How a driven fabric is stepped each cycle.
#[derive(Clone, Copy)]
enum Mode {
    /// The production event-driven stepper.
    Event,
    /// The retained naive reference stepper.
    Reference,
    /// Alternate between the two in 3-cycle blocks (the steppers share
    /// all fabric state, so switching mid-run must not diverge).
    Alternating,
    /// The region-partitioned stepper at this shard count with this
    /// lookahead-window cap (`None` = the structural bound, the minimum
    /// positive link latency; 1 runs the epoch kernel inline, exactly
    /// like `--shards 1`).
    Sharded(usize, Option<u64>),
}

/// Drives one fabric with a deterministic mixed-class injection
/// schedule; `mode` selects the stepper per cycle. The schedule
/// (including every RNG draw and every rejected injection) depends only
/// on the fabric's observable state, which the equivalence keeps
/// identical, so every mode sees the same offered traffic.
fn drive(
    dims: [u8; 3],
    seed: u64,
    packets: u64,
    mode: Mode,
    telemetry: bool,
) -> (TorusFabric, Vec<(u64, anton3::net::router::Flit)>) {
    let torus = Torus::new(dims);
    let params = FabricParams::calibrated(&LatencyModel::default());
    let mut fabric = TorusFabric::new(torus, params);
    if telemetry {
        fabric.enable_telemetry(TelemetryConfig::default());
    }
    if let Mode::Sharded(shards, lookahead) = mode {
        fabric
            .set_shards_with_lookahead(shards, lookahead)
            .expect("fresh fabric shards");
    }
    let mut rng = SplitMix64::new(seed);
    let n = torus.node_count() as u64;
    let mut log = Vec::new();
    let step = |fabric: &mut TorusFabric, p: u64| match mode {
        Mode::Event | Mode::Sharded(..) => fabric.step(),
        Mode::Reference => fabric.step_reference(),
        Mode::Alternating if (p / 3).is_multiple_of(2) => fabric.step(),
        Mode::Alternating => fabric.step_reference(),
    };
    for p in 0..packets {
        let src = NodeId((p % n) as u16);
        let dst = NodeId(rng.next_below(n) as u16);
        if src != dst {
            let spec = if p % 4 == 3 {
                PacketSpec::response(src, dst, p, 1 + (p % 2) as u8)
                    .with_slice((p % 2) as usize)
                    .with_kind(ByteKind::Force)
            } else {
                PacketSpec::request(src, dst, p, 1 + (p % 2) as u8)
                    .drawn(&mut rng)
                    .with_kind(ByteKind::from_index((p % 3) as usize))
            };
            // Acceptance depends on credit state, which equivalence
            // keeps identical across the fabrics.
            let _ = fabric.inject(spec);
        }
        step(&mut fabric, p);
        log.extend_from_slice(fabric.delivered());
        fabric.take_delivered();
    }
    // Drain with the mode under test (alternating keeps alternating).
    // Sharded fabrics drain through the batched epoch path, so the
    // lookahead window actually opens past one cycle: multi-cycle
    // epochs, boundary credit shadows, the telemetry-epoch clamp, and
    // the drain rewind all run under the bit-identity assertion.
    if matches!(mode, Mode::Sharded(..)) {
        let deadline = fabric.cycle() + 3_000_000;
        while fabric.occupancy() > 0 && fabric.cycle() < deadline {
            fabric.step_batched(deadline);
        }
    } else {
        let mut budget = 3_000_000u64;
        let mut p = packets;
        while fabric.occupancy() > 0 && budget > 0 {
            step(&mut fabric, p);
            p += 1;
            budget -= 1;
        }
    }
    assert_eq!(fabric.occupancy(), 0, "fabric must drain");
    log.extend_from_slice(fabric.delivered());
    fabric.take_delivered();
    (fabric, log)
}

/// A telemetry-recording fabric's full observability summary as JSON.
fn summary(fabric: &TorusFabric) -> String {
    serde_json::to_string(&fabric.telemetry_summary().expect("telemetry on"))
        .expect("serializable summary")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_stepper_matches_reference_bit_for_bit(
        dims in (2u8..=4, 2u8..=4, 2u8..=4),
        seed in any::<u64>(),
        packets in 50u64..250,
    ) {
        let dims = [dims.0, dims.1, dims.2];
        let (fast, fast_log) = drive(dims, seed, packets, Mode::Event, false);
        let (naive, naive_log) = drive(dims, seed, packets, Mode::Reference, false);
        prop_assert_eq!(fast.cycle(), naive.cycle(), "clocks diverged");
        prop_assert_eq!(
            fast_log.len(), naive_log.len(),
            "delivery counts diverged"
        );
        for (a, b) in fast_log.iter().zip(&naive_log) {
            prop_assert_eq!(a, b, "delivery logs diverged");
        }
        let torus = *fast.torus();
        for node in torus.nodes() {
            for dir in Direction::ALL {
                for slice in 0..SLICES {
                    prop_assert_eq!(
                        fast.link_stats(node, dir, slice),
                        naive.link_stats(node, dir, slice),
                        "link ({:?}, {}, {}) counters diverged",
                        node, dir, slice
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_steppers_stay_equivalent(
        dims in (2u8..=3, 2u8..=3, 2u8..=3),
        seed in any::<u64>(),
        packets in 40u64..120,
    ) {
        // The two steppers share all fabric state (queues, credit
        // mirrors, maturity wheels, the occupied-queue bitset and the
        // front-target memo both steppers' pops invalidate), so a fabric
        // may switch between them mid-run, recording telemetry, without
        // diverging from either pure schedule.
        let dims = [dims.0, dims.1, dims.2];
        let (mixed, mixed_log) = drive(dims, seed, packets, Mode::Alternating, true);
        let (pure, pure_log) = drive(dims, seed, packets, Mode::Event, false);
        prop_assert_eq!(mixed_log.len(), pure_log.len());
        for (a, b) in mixed_log.iter().zip(&pure_log) {
            prop_assert_eq!(a, b, "mixed-stepper delivery log diverged");
        }
        prop_assert_eq!(mixed.cycle(), pure.cycle());
        let (naive, _) = drive(dims, seed, packets, Mode::Reference, true);
        prop_assert_eq!(
            summary(&mixed), summary(&naive),
            "mixed-stepper telemetry summary diverged from the reference"
        );
    }

    #[test]
    fn sharded_stepper_matches_reference_bit_for_bit(
        dims in (2u8..=4, 2u8..=4, 2u8..=4),
        seed in any::<u64>(),
        packets in 50u64..200,
        shard_ix in 0usize..4,
        la_ix in 0usize..3,
    ) {
        let shards = [1usize, 2, 4, 8][shard_ix];
        // Window caps under test: degenerate single-cycle epochs, a
        // small window that still straddles telemetry-epoch boundaries,
        // and the uncapped structural bound (the boundary link latency,
        // ~80+ cycles calibrated — far wider than the drain's quiet
        // stretches, so full-width epochs and the rewind both fire).
        let lookahead = [Some(1u64), Some(3), None][la_ix];
        // The region-partitioned stepper must reproduce the reference
        // scan exactly — delivery logs, every per-link traffic counter,
        // and (with telemetry recording through the shard-local stall
        // accumulators) the full observability summary, at every
        // (shard count, lookahead window) pair, on random shapes
        // carrying both traffic classes.
        let dims = [dims.0, dims.1, dims.2];
        let (sharded, sharded_log) =
            drive(dims, seed, packets, Mode::Sharded(shards, lookahead), true);
        let (naive, naive_log) = drive(dims, seed, packets, Mode::Reference, true);
        prop_assert_eq!(sharded.cycle(), naive.cycle(), "clocks diverged");
        prop_assert_eq!(
            sharded_log.len(), naive_log.len(),
            "delivery counts diverged"
        );
        for (a, b) in sharded_log.iter().zip(&naive_log) {
            prop_assert_eq!(a, b, "delivery logs diverged");
        }
        let torus = *sharded.torus();
        for node in torus.nodes() {
            for dir in Direction::ALL {
                for slice in 0..SLICES {
                    prop_assert_eq!(
                        sharded.link_stats(node, dir, slice),
                        naive.link_stats(node, dir, slice),
                        "link ({:?}, {}, {}) counters diverged at {} shards",
                        node, dir, slice, shards
                    );
                }
            }
        }
        prop_assert_eq!(
            summary(&sharded), summary(&naive),
            "telemetry summaries diverged at {} shards (lookahead {:?})",
            shards, lookahead
        );
    }
}

#[test]
fn mega_fabric_sharded_step_matches_reference() {
    // 16x16x16 (4096 nodes) is far beyond the proptest shapes above and
    // above the old 1024-node quadratic route-table cap, so this spot
    // check exercises the separable-table hot path and the region
    // partition at mega-fabric scale: the sharded stepper — whose drain
    // runs full-width lookahead epochs through the batched path — must
    // reproduce the retained naive reference scan bit for bit.
    let dims = [16, 16, 16];
    let (sharded, sharded_log) = drive(dims, 0x5EED, 48, Mode::Sharded(4, None), false);
    let (naive, naive_log) = drive(dims, 0x5EED, 48, Mode::Reference, false);
    assert_eq!(sharded.cycle(), naive.cycle(), "clocks diverged");
    assert_eq!(
        sharded_log, naive_log,
        "16x16x16 sharded delivery log diverged from the reference"
    );
    for slice in 0..SLICES {
        assert_eq!(
            sharded.slice_stats(slice),
            naive.slice_stats(slice),
            "slice {slice} aggregate counters diverged"
        );
    }
    // The drain must actually have gone through the epoch machinery,
    // and far more cheaply than one barrier set per simulated cycle.
    assert!(sharded.epochs() > 0, "the sharded run must count epochs");
    assert!(
        sharded.epochs() < sharded.cycle(),
        "lookahead epochs must cover multiple cycles on average: {} epochs / {} cycles",
        sharded.epochs(),
        sharded.cycle()
    );
}

#[test]
fn shard_count_changes_are_validated_and_rejected_mid_flight() {
    let torus = Torus::new([2, 2, 4]);
    let params = FabricParams::calibrated(&LatencyModel::default());
    let mut fabric = TorusFabric::new(torus, params);
    let routers = torus.node_count();

    // Count validation: zero shards and more shards than routers are
    // configuration errors, reported — not panicked — before any state
    // changes.
    assert!(matches!(
        fabric.set_shards(0),
        Err(ShardError::InvalidCount { .. })
    ));
    assert!(matches!(
        fabric.set_shards(routers + 1),
        Err(ShardError::InvalidCount { .. })
    ));

    // A drained, idle fabric repartitions freely.
    fabric.set_shards(4).expect("idle fabric reshards");
    assert_eq!(fabric.shards(), 4);

    // Mid-flight the partition is pinned: resident flits straddle the
    // old region boundaries, so the change is rejected cleanly and the
    // fabric keeps stepping on the existing partition.
    let mut rng = SplitMix64::new(7);
    let spec = PacketSpec::request(NodeId(0), NodeId(5), 0, 2).drawn(&mut rng);
    fabric.inject(spec).expect("empty fabric accepts");
    assert!(matches!(fabric.set_shards(2), Err(ShardError::Busy { .. })));
    assert_eq!(fabric.shards(), 4, "rejected change must not repartition");

    // Drain invariant: the sharded fabric empties completely, after
    // which repartitioning (including back to 1) succeeds again.
    assert!(fabric.run_until_drained(10_000), "sharded fabric drains");
    assert_eq!(fabric.occupancy(), 0);
    fabric.set_shards(2).expect("drained fabric reshards");
    fabric
        .set_shards(1)
        .expect("back to the inline one-shard kernel");
    assert_eq!(fabric.shards(), 1);
}
