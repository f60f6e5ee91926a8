//! The scenario driver's node endpoints run inside the epoch kernel's
//! shard windows: every node generates, injects, counts its deliveries
//! and spawns its force returns in the window of the shard that owns
//! it. The serial schedule — one endpoint over every node, run around
//! the reference stepper cycle by cycle with the stop rule checked every
//! cycle — is the oracle. These tests hold the windowed schedule to it
//! on everything a run leaves behind (the measured point, the final
//! cycle, every link's counters, the telemetry summary and the packet
//! trace) across loads, warmups, force returns on and off, shard counts
//! and window caps, for a synthetic and the MD halo workload, and at the
//! stop rule's edges. They also pin what the endpoint stage buys: a
//! saturated force-return point does not pin every epoch to one cycle.

use anton3::md::decomp::Decomposition;
use anton3::model::latency::LatencyModel;
use anton3::model::topology::{Direction, NodeId, Torus};
use anton3::net::fabric3d::{FabricParams, PacketSpec, SLICES};
use anton3::net::telemetry::TelemetryConfig;
use anton3::sim::rng::SplitMix64;
use anton3::traffic::patterns::{TrafficPattern, UniformRandom};
use anton3::traffic::sweep::{run_scenario, run_scenario_on, ScenarioRun, Stepper, SweepConfig};
use anton3::traffic::workload::{MdHaloWorkload, SyntheticWorkload, Workload};

fn params() -> FabricParams {
    FabricParams::calibrated(&LatencyModel::default())
}

/// A short scenario on a small torus; the cases below vary it.
fn cfg(dims: [u8; 3], warmup: u64, respond: bool) -> SweepConfig {
    SweepConfig {
        dims,
        flits_per_packet: 2,
        warmup_cycles: warmup,
        measure_cycles: 120,
        drain_cycles: 3_000,
        seed: 0x5EED,
        loads: vec![],
        respond,
        shards: 1,
        lookahead: None,
    }
}

/// Short telemetry epochs, so runs roll several, and packet traces on.
fn telemetry() -> TelemetryConfig {
    TelemetryConfig {
        epoch_cycles: 100,
        trace: true,
        ..TelemetryConfig::default()
    }
}

/// Runs `cfg` on both schedules and asserts they agree on everything
/// observable; returns the windowed run.
fn assert_schedules_agree<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SweepConfig,
    offered: f64,
    label: &str,
) -> ScenarioRun {
    let run = |stepper| {
        run_scenario_on(
            workload,
            cfg,
            params(),
            offered,
            9,
            stepper,
            Some(telemetry()),
        )
    };
    let (windowed, reference) = (run(Stepper::Event), run(Stepper::Reference));
    assert_eq!(
        format!("{:?}", windowed.point),
        format!("{:?}", reference.point),
        "{label}: measured point"
    );
    assert_eq!(
        windowed.fabric.cycle(),
        reference.fabric.cycle(),
        "{label}: stop cycle"
    );
    let torus = Torus::new(cfg.dims);
    for node in torus.nodes() {
        for dir in Direction::ALL {
            for slice in 0..SLICES {
                assert_eq!(
                    windowed.fabric.link_stats(node, dir, slice),
                    reference.fabric.link_stats(node, dir, slice),
                    "{label}: link {node} {dir}/s{slice}"
                );
            }
        }
    }
    let summary = |r: &ScenarioRun| {
        let s = r.fabric.telemetry_summary().expect("instrumented");
        serde_json::to_string(&s).expect("serializable summary")
    };
    assert_eq!(
        summary(&windowed),
        summary(&reference),
        "{label}: telemetry"
    );
    let (w, r) = (
        windowed.fabric.telemetry().expect("instrumented"),
        reference.fabric.telemetry().expect("instrumented"),
    );
    assert_eq!(w.trace_dropped(), 0, "{label}: trace overflowed");
    assert_eq!(w.trace_events(), r.trace_events(), "{label}: packet trace");
    windowed
}

/// Uniform requests answered by force returns, with warmup traffic
/// that outlives the measured packets: during warmup only node 0
/// generates, four requests per opportunity — far more than it can
/// inject — and afterward every other node sends one per opportunity.
struct Backlog;

impl Workload for Backlog {
    fn next_packets(
        &self,
        torus: &Torus,
        src: NodeId,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        let burst = match (cycle < 100, src.0 == 0) {
            (true, true) => 4,
            (false, false) => 1,
            _ => 0,
        };
        for _ in 0..burst {
            if let Some(dst) = UniformRandom.dest(torus, src, cycle, rng) {
                out.push(PacketSpec::request(src, dst, 0, 2).drawn(rng));
            }
        }
    }

    fn on_delivered(
        &self,
        torus: &Torus,
        delivered: &PacketSpec,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        SyntheticWorkload::new(&UniformRandom, 2, true)
            .on_delivered(torus, delivered, cycle, rng, out);
    }
}

/// The execution knobs of case `c`: every shards × window pair recurs.
fn knobs(c: usize) -> (usize, Option<u64>) {
    ([1, 2, 3][c % 3], [None, Some(1), Some(3)][(c / 3) % 3])
}

#[test]
fn windowed_endpoints_match_the_reference_schedule() {
    let mut c = 0;
    for offered in [0.001, 0.05, 0.3, 1.0] {
        for warmup in [0, 40] {
            for respond in [false, true] {
                let dims = [[2, 2, 3], [3, 2, 2]][c % 2];
                let mut cfg = cfg(dims, warmup, respond);
                (cfg.shards, cfg.lookahead) = knobs(c);
                let workload = SyntheticWorkload::new(&UniformRandom, 2, respond);
                let label = format!(
                    "uniform offered {offered} warmup {warmup} respond {respond} \
                     shards {} lookahead {:?}",
                    cfg.shards, cfg.lookahead
                );
                assert_schedules_agree(&workload, &cfg, offered, &label);
                c += 1;
            }
        }
    }
    // The MD halo workload: typed position exports answered by force
    // returns, on a torus with wraparound in every dimension.
    let torus = Torus::new([3, 3, 3]);
    let decomp = Decomposition::new(torus, [30.0; 3], 3.25);
    let workload = MdHaloWorkload::from_decomposition(&decomp, 16, 2, 7);
    for (i, offered) in [0.05, 0.3, 1.0].into_iter().enumerate() {
        let mut cfg = cfg([3, 3, 3], [0, 40][i % 2], true);
        (cfg.shards, cfg.lookahead) = knobs(c + i);
        let label = format!(
            "md halo offered {offered} shards {} lookahead {:?}",
            cfg.shards, cfg.lookahead
        );
        assert_schedules_agree(&workload, &cfg, offered, &label);
    }
}

#[test]
fn the_stop_rule_edges_match_the_reference_schedule() {
    let uniform = |respond| SyntheticWorkload::new(&UniformRandom, 2, respond);

    // No tracked packet at all: nothing ever qualifies the stop, so the
    // point runs out to its horizon (past an idle fabric).
    let mut quiet = cfg([2, 2, 2], 0, true);
    (quiet.measure_cycles, quiet.drain_cycles, quiet.shards) = (20, 500, 2);
    let run = assert_schedules_agree(&uniform(true), &quiet, 0.001, "no tracked packet");
    assert_eq!(
        run.point.request.packets_measured, 0,
        "the edge needs no packet"
    );
    assert_eq!(run.fabric.cycle(), 520, "stops at the horizon");

    // Saturated past its drain budget: tracked packets are still out
    // when the horizon cuts the point off.
    let mut cut = cfg([2, 2, 3], 40, true);
    (cut.drain_cycles, cut.shards) = (60, 3);
    let run = assert_schedules_agree(&uniform(true), &cut, 1.0, "drain budget");
    assert!(
        run.point.request.packets_incomplete > 0,
        "the edge needs a cut"
    );
    assert_eq!(run.fabric.cycle(), 220, "stops at the horizon");

    // Warmup traffic outlives the last tracked delivery: the point stops
    // with untracked flits still in the fabric, before the horizon — at
    // one shard too, where no boundary credit clamp shortens windows.
    for shards in [1, 2] {
        let mut late = cfg([2, 2, 3], 100, true);
        (late.measure_cycles, late.shards) = (20, shards);
        let label = format!("warmup outlives, shards {shards}");
        let run = assert_schedules_agree(&Backlog, &late, 1.0, &label);
        let resp = run.point.response.expect("responses on");
        assert_eq!(
            (
                run.point.request.packets_incomplete,
                resp.packets_incomplete
            ),
            (0, 0),
            "every tracked packet landed"
        );
        assert!(
            run.point.request.packets_measured > 0,
            "the edge needs packets"
        );
        assert!(
            run.fabric.cycle() < 120 + late.drain_cycles,
            "stopped early"
        );
        assert!(run.fabric.occupancy() > 0, "warmup flits outlive the stop");
    }
}

#[test]
fn a_saturated_force_return_point_spends_few_sync_ops() {
    // Every node's generation, injection and force-return spawns run in
    // its shard's window, so only the kernel's own clamps bound the
    // epochs — not deliveries. A driver reacting to each delivery between
    // steps would pin every epoch to one cycle here: 2.00 sync ops per
    // cycle, one pool launch and one barrier each.
    let mut cfg = SweepConfig::new([4, 4, 4]);
    (cfg.warmup_cycles, cfg.measure_cycles, cfg.drain_cycles) = (100, 400, 4_000);
    cfg.shards = 2;
    let workload = SyntheticWorkload::new(&UniformRandom, cfg.flits_per_packet, true);
    let run = run_scenario(&workload, &cfg, params(), 0.9, 3);
    let (ops, cycles) = (run.fabric.sync_ops(), run.fabric.cycles_stepped());
    assert!(
        ops as f64 <= 0.25 * cycles as f64,
        "{ops} sync ops over {cycles} stepped cycles ({} epochs) exceed 0.25 per cycle",
        run.fabric.epochs()
    );
}
