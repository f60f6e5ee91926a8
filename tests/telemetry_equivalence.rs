//! Property tests pinning the telemetry layer's zero-perturbation
//! guarantee: random torus shapes and mixed-class loads run with
//! telemetry off, on (stall attribution + epoch series + packet
//! traces), and toggled on/off mid-run, asserting **bit-identical**
//! `(cycle, Flit)` delivery logs and per-link, per-slice,
//! per-`ByteKind` traffic counters — recording is observational, never
//! causal. A reconciliation property then checks the books balance on
//! an instrumented run: per link, stall + advance + idle cycles sum to
//! the observed window, and advance cycles equal the flits the link
//! actually carried. Finally, the histogram percentile path that
//! replaced the clone-and-sort sweep statistics is held to the legacy
//! sorted-vector formula within one log-bucket width on the paper's
//! pinned 4x4x8 shape.

use anton3::model::latency::LatencyModel;
use anton3::model::topology::{Direction, NodeId, Torus};
use anton3::net::channel::ByteKind;
use anton3::net::fabric3d::{FabricParams, PacketSpec, TorusFabric, FLIT_BYTES, SLICES};
use anton3::net::router::Flit;
use anton3::net::telemetry::TelemetryConfig;
use anton3::sim::rng::SplitMix64;
use anton3::sim::stats::LogHistogram;
use proptest::prelude::*;

/// Telemetry treatment of a driven fabric.
#[derive(Clone, Copy)]
enum Telem {
    /// Never enabled — the baseline the others must match bit for bit.
    Off,
    /// Enabled from cycle 0 with a small epoch and tracing on, so the
    /// run exercises epoch rolls and the trace buffer too.
    On,
    /// Enabled a third of the way in, disabled at two thirds, enabled
    /// again for the drain — the mid-run toggle path.
    Toggled,
}

fn config() -> TelemetryConfig {
    TelemetryConfig {
        epoch_cycles: 64,
        epoch_ring: 8,
        trace: true,
        trace_limit: 4096,
    }
}

/// Drives one fabric with the same deterministic mixed-class injection
/// schedule as `stepper_equivalence`, applying the telemetry treatment.
/// The schedule depends only on the fabric's observable state, which
/// must be identical under every treatment. With `shards`, the fabric
/// runs the region-partitioned epoch stepper under the given lookahead
/// cap and drains through the batched path, so toggling telemetry
/// mid-run lands between lookahead epochs (the telemetry-epoch clamp
/// and the shard windows' in-place recording both see the transition).
fn drive(
    dims: [u8; 3],
    seed: u64,
    packets: u64,
    telem: Telem,
    shards: Option<(usize, Option<u64>)>,
) -> (TorusFabric, Vec<(u64, Flit)>) {
    let torus = Torus::new(dims);
    let params = FabricParams::calibrated(&LatencyModel::default());
    let mut fabric = TorusFabric::new(torus, params);
    if let Some((shards, lookahead)) = shards {
        fabric
            .set_shards_with_lookahead(shards, lookahead)
            .expect("fresh fabric shards");
    }
    if matches!(telem, Telem::On) {
        fabric.enable_telemetry(config());
    }
    let mut rng = SplitMix64::new(seed);
    let n = torus.node_count() as u64;
    let mut log = Vec::new();
    for p in 0..packets {
        if matches!(telem, Telem::Toggled) {
            if p == packets / 3 {
                fabric.enable_telemetry(config());
            }
            if p == 2 * packets / 3 {
                fabric.disable_telemetry();
            }
        }
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
            let _ = fabric.inject(spec);
        }
        fabric.step();
        log.extend_from_slice(fabric.delivered());
        fabric.take_delivered();
    }
    if matches!(telem, Telem::Toggled) {
        fabric.enable_telemetry(config());
    }
    if shards.is_some() {
        let deadline = fabric.cycle() + 3_000_000;
        while fabric.occupancy() > 0 && fabric.cycle() < deadline {
            fabric.step_batched(deadline);
        }
    } else {
        let mut budget = 3_000_000u64;
        while fabric.occupancy() > 0 && budget > 0 {
            fabric.step();
            budget -= 1;
        }
    }
    assert_eq!(fabric.occupancy(), 0, "fabric must drain");
    log.extend_from_slice(fabric.delivered());
    fabric.take_delivered();
    (fabric, log)
}

fn assert_same_observables(
    a: &TorusFabric,
    a_log: &[(u64, Flit)],
    b: &TorusFabric,
    b_log: &[(u64, Flit)],
) {
    assert_eq!(a.cycle(), b.cycle(), "clocks diverged");
    assert_eq!(a_log, b_log, "delivery logs diverged");
    for node in a.torus().nodes() {
        for dir in Direction::ALL {
            for slice in 0..SLICES {
                assert_eq!(
                    a.link_stats(node, dir, slice),
                    b.link_stats(node, dir, slice),
                    "link ({node:?}, {dir}, {slice}) counters diverged"
                );
            }
        }
    }
}

/// The legacy sorted-vector percentile the sweep statistics used before
/// the histogram path, kept verbatim as the reference formula.
fn legacy_percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn telemetry_never_perturbs_the_fabric(
        dims in (2u8..=4, 2u8..=4, 2u8..=4),
        seed in any::<u64>(),
        packets in 50u64..200,
    ) {
        let dims = [dims.0, dims.1, dims.2];
        let (off, off_log) = drive(dims, seed, packets, Telem::Off, None);
        let (on, on_log) = drive(dims, seed, packets, Telem::On, None);
        let (toggled, toggled_log) = drive(dims, seed, packets, Telem::Toggled, None);
        assert_same_observables(&off, &off_log, &on, &on_log);
        assert_same_observables(&off, &off_log, &toggled, &toggled_log);
        prop_assert!(on.telemetry().is_some(), "telemetry state must survive the run");
        prop_assert!(
            on.telemetry_summary().expect("enabled").trace_events > 0,
            "a delivering run must record trace events"
        );
    }

    #[test]
    fn telemetry_toggles_never_perturb_the_epoch_path(
        dims in (2u8..=4, 2u8..=4, 2u8..=4),
        seed in any::<u64>(),
        packets in 50u64..200,
        shard_ix in 0usize..4,
        la_ix in 0usize..3,
    ) {
        // The same zero-perturbation guarantee on the lookahead-epoch
        // stepper: enabling and disabling telemetry between epochs (the
        // mid-run toggles) and re-enabling for the batched drain must
        // leave every observable bit-identical to the serial untracked
        // baseline, at every (shard count, lookahead window) pair. The
        // telemetry-epoch window clamp only exists while recording is
        // on, so the toggles change the epoch schedule — but never the
        // simulated history.
        let shards = [1usize, 2, 4, 8][shard_ix];
        let lookahead = [Some(1u64), Some(3), None][la_ix];
        let dims = [dims.0, dims.1, dims.2];
        let (off, off_log) = drive(dims, seed, packets, Telem::Off, None);
        let (toggled, toggled_log) =
            drive(dims, seed, packets, Telem::Toggled, Some((shards, lookahead)));
        assert_same_observables(&off, &off_log, &toggled, &toggled_log);
        prop_assert!(
            toggled.telemetry().is_some(),
            "the drain re-enable must leave telemetry on"
        );
    }

    #[test]
    fn stall_advance_idle_reconcile_per_link(
        dims in (2u8..=4, 2u8..=4, 2u8..=4),
        seed in any::<u64>(),
        packets in 50u64..200,
    ) {
        let dims = [dims.0, dims.1, dims.2];
        let (fabric, log) = drive(dims, seed, packets, Telem::On, None);
        prop_assert!(!log.is_empty(), "the schedule must deliver packets");
        let elapsed = fabric.cycle(); // telemetry enabled at cycle 0
        let mut advance_total = 0u64;
        for node in fabric.torus().nodes() {
            for dir in Direction::ALL {
                for slice in 0..SLICES {
                    let (advance, stall, idle) =
                        fabric.link_cycles(node, dir, slice).expect("telemetry on");
                    prop_assert_eq!(
                        advance + stall + idle, elapsed,
                        "link ({:?}, {}, {}) books don't balance", node, dir, slice
                    );
                    // A link moves at most one flit per cycle, so its
                    // advance-cycle count IS its carried flit count.
                    let flits = fabric.link_stats(node, dir, slice).wire_bytes / FLIT_BYTES;
                    prop_assert_eq!(
                        advance, flits,
                        "link ({:?}, {}, {}) advance cycles != flits carried",
                        node, dir, slice
                    );
                    advance_total += advance;
                }
            }
        }
        prop_assert!(advance_total > 0, "traffic must have crossed links");
        // The summary reports the same accounting for every link,
        // including ejection links the per-link readers don't cover.
        let summary = fabric.telemetry_summary().expect("telemetry on");
        for link in &summary.links {
            prop_assert_eq!(
                link.advance_cycles + link.stall_cycles + link.idle_cycles,
                elapsed,
                "summary link {} books don't balance", link.link.clone()
            );
        }
    }
}

/// The acceptance bound for the histogram percentile path on the
/// paper's pinned 4x4x8 machine: drive the sweep shape with its own
/// seed, collect every packet's true injection-to-delivery latency, and
/// require the `LogHistogram` p50/p99 to sit within one bucket width of
/// the legacy clone-and-sort percentile it replaced.
#[test]
fn histogram_percentiles_match_legacy_sort_on_4x4x8() {
    let dims = [4u8, 4, 8];
    let torus = Torus::new(dims);
    let params = FabricParams::calibrated(&LatencyModel::default());
    let mut fabric = TorusFabric::new(torus, params);
    let mut rng = SplitMix64::new(0xA3_70_03); // the default sweep seed
    let n = torus.node_count() as u64;
    let mut injected_at = std::collections::HashMap::new();
    let mut latencies = Vec::new();
    let mut hist = LogHistogram::new();
    let collect = |fabric: &mut TorusFabric,
                   injected_at: &std::collections::HashMap<u64, u64>,
                   latencies: &mut Vec<u64>,
                   hist: &mut LogHistogram| {
        for (at, flit) in fabric.take_delivered() {
            if flit.is_tail() {
                let lat = at - injected_at[&flit.packet];
                latencies.push(lat);
                hist.record(lat);
            }
        }
    };
    let mut id = 0u64;
    for cycle in 0..4_000u64 {
        for node in 0..n {
            let src = NodeId(node as u16);
            let dst = NodeId(rng.next_below(n) as u16);
            if src != dst && (cycle + node) % 5 == 0 {
                let spec = PacketSpec::request(src, dst, id, 2).drawn(&mut rng);
                if fabric.inject(spec).is_ok() {
                    injected_at.insert(id, cycle);
                    id += 1;
                }
            }
        }
        fabric.step();
        collect(&mut fabric, &injected_at, &mut latencies, &mut hist);
    }
    let mut budget = 1_000_000u64;
    while fabric.occupancy() > 0 && budget > 0 {
        fabric.step();
        collect(&mut fabric, &injected_at, &mut latencies, &mut hist);
        budget -= 1;
    }
    assert_eq!(fabric.occupancy(), 0, "the pinned run must drain");
    assert!(
        latencies.len() > 10_000,
        "need a real sample: {}",
        latencies.len()
    );
    latencies.sort_unstable();
    for q in [0.50, 0.99] {
        let legacy = legacy_percentile(&latencies, q);
        let histogram = hist.quantile(q);
        let width = LogHistogram::bucket_width(legacy);
        assert!(
            histogram.abs_diff(legacy) <= width,
            "p{}: histogram {histogram} vs legacy sort {legacy} differ by more \
             than one bucket width ({width})",
            (q * 100.0) as u32
        );
    }
}
