//! Fabric throughput snapshot: how fast the cycle-level torus simulator
//! itself runs, so simulator-performance regressions show up in CI the
//! same way model-accuracy regressions do.
//!
//! The benchmark runs the 8x8x8 (512-node) overload sweep point — the
//! CI smoke workload and the cost that previously capped calibration at
//! small shapes — twice on one thread: once with the production
//! event-driven core (`TorusFabric::step` behind
//! `traffic::sweep::run_scenario`: the lookahead-epoch kernel, inline at
//! one shard) and once with the retained naive
//! reference stepper (`Stepper::Reference`, the pre-worklist full-scan
//! simulator). The two must produce identical measurements — that is
//! asserted, making this a determinism check as well as a benchmark —
//! and the wall-clock ratio is the event-driven core's speedup. A
//! lighter 4x4x8 moderate-load point rides along for the README's
//! steps/sec table.
//!
//! With `--json` the snapshot is emitted as the `BENCH_fabric.json`
//! artifact (CI redirects it there): simulated cycles/sec, flit-hops/sec
//! (flits entering links), wall-clock seconds per stepper, and the
//! speedup ratio.
//!
//! The overload point also runs at shards ∈ {1, 2, 4} on the event core
//! (`TorusFabric::set_shards` region partitioning) and records the
//! steps/s scaling curve under `shard_scaling` — every shard count must
//! land on the identical simulated endpoint, asserted per run.
//!
//! The overload scenario additionally runs a third time with fabric
//! telemetry enabled (`net::telemetry`, default config) to price the
//! observability layer: the artifact records the telemetry-on
//! steps/sec and the on/off overhead ratio. The snapshot is one sample
//! per cell and gates nothing; regressions are judged by the committed
//! benchmark (`perfbench/`), which repeats its runs.
//!
//! The `large_shape` section (schema 4) is the mega-fabric half of the
//! snapshot, resting on the separable per-dimension route tables and
//! the lazily allocated flit slabs: a 16x16x16 (4096-node) overload
//! point on the event core at shards ∈ {1, 2, 4, 8}, every sharded run
//! asserted onto the serial endpoint, plus a 32x32x32 (32768-node)
//! construction — build time, the bytes/router memory audit, and a
//! short light-load steps/s figure. `--quick` skips this section for
//! local iteration; both shapes are asserted inside the documented
//! [`BYTES_PER_ROUTER_BUDGET`].

use anton_model::latency::LatencyModel;
use anton_model::topology::{Direction, NodeId, Torus};
use anton_net::fabric3d::{FabricMemoryReport, FabricParams, PacketSpec, TorusFabric, SLICES};
use anton_net::telemetry::TelemetryConfig;
use anton_sim::rng::SplitMix64;
use anton_traffic::patterns::UniformRandom;
use anton_traffic::sweep::{
    run_scenario_instrumented, run_scenario_with, ScenarioRun, Stepper, SweepConfig,
};
use anton_traffic::workload::SyntheticWorkload;
use serde::Serialize;
use std::time::Instant;

/// Version of the `BENCH_fabric.json` schema (1 was the unversioned
/// pre-telemetry shape; 2 added the telemetry overhead probe; 3 added
/// the `shard_scaling` curve of the region-partitioned stepper; 4 added
/// the `large_shape` section — the 16³ shard-scaling overload point and
/// the 32³ construction audit; 5 turns `shard_scaling` into a
/// shard x lookahead matrix with per-row synchronization counters and
/// adds the `sync_cost` drain probe of the lookahead-epoch stepper).
const BENCH_SCHEMA_VERSION: u32 = 5;

/// The documented per-router memory budget a constructed mega-fabric
/// must fit: fixed state (flit slabs, wheels, credit mirrors, link
/// counters) plus the amortized share of the separable route tables.
/// Measured ~6.3 KB/router at both 16³ and 32³; the budget leaves
/// headroom without tolerating a regression back toward the quadratic
/// tables (which cost ~14 KB/router at a mere 1024 nodes).
const BYTES_PER_ROUTER_BUDGET: usize = 8 * 1024;

/// One stepper's measured run of one benchmark scenario.
#[derive(Clone, Copy, Debug, Serialize)]
struct StepperRun {
    /// Wall-clock seconds for the whole scenario (single thread).
    wall_seconds: f64,
    /// Simulated fabric cycles advanced per wall-clock second.
    steps_per_sec: f64,
    /// Flits entering links (every hop of every flit) per wall second.
    flit_hops_per_sec: f64,
}

/// One benchmark scenario: both steppers on identical work.
#[derive(Clone, Debug, Serialize)]
struct ScenarioBench {
    /// Human label, e.g. `"8x8x8 overload"`.
    scenario: String,
    /// Torus extents.
    dims: [u8; 3],
    /// Offered request load, flits per node per cycle.
    offered: f64,
    /// Simulated cycles the scenario advanced the fabric.
    simulated_cycles: u64,
    /// Total flit-hops carried (flits entering links, machine-wide).
    flit_hops: u64,
    /// The production event-driven core.
    event: StepperRun,
    /// The retained naive reference stepper on the same work.
    reference: StepperRun,
    /// `reference.wall_seconds / event.wall_seconds` — the event-driven
    /// core's single-thread speedup on this workload.
    speedup: f64,
}

/// One (shard count, lookahead window) cell of the overload scenario on
/// the event core — `TorusFabric::set_shards_with_lookahead` region
/// partitioning, measured exactly like the 1-shard rows (identical
/// simulated endpoint asserted).
#[derive(Clone, Copy, Debug, Serialize)]
struct ShardPoint {
    /// Worker shards the fabric step was partitioned across.
    shards: usize,
    /// Lookahead-epoch window cap; `null` lets the stepper use the
    /// structural window (the minimum positive link latency), `1` pins
    /// degenerate one-cycle epochs.
    lookahead: Option<u64>,
    /// Wall-clock seconds for the whole scenario.
    wall_seconds: f64,
    /// Simulated fabric cycles advanced per wall-clock second.
    steps_per_sec: f64,
    /// Steps/s at this cell over the 1-shard row of this curve.
    speedup: f64,
    /// Synchronization operations (pool launches + epoch barriers)
    /// spent; 0 on the 1-shard row, whose epochs run inline.
    sync_ops: u64,
    /// Lookahead epochs executed, the 1-shard row's included.
    epochs: u64,
    /// `sync_ops` per executed fabric cycle — the retired per-cycle
    /// four-phase protocol spent 5 (one launch + four barriers); `0.0`
    /// on the serial row.
    sync_ops_per_cycle: f64,
}

/// One (shards, lookahead) cell of the drain-phase synchronization-cost
/// probe: a saturating request burst on the 8x8x8 machine, then
/// `TorusFabric::run_until_drained` — the regime where the lookahead
/// epochs run at full width and the barrier-frequency win is measured.
#[derive(Clone, Copy, Debug, Serialize)]
struct SyncCostRow {
    /// Worker shards the fabric step was partitioned across.
    shards: usize,
    /// Lookahead-epoch window cap; `null` = the structural window.
    lookahead: Option<u64>,
    /// Fabric cycles the measured drain executed.
    drain_cycles: u64,
    /// Synchronization operations (pool launches + epoch barriers)
    /// spent over those cycles.
    sync_ops: u64,
    /// Lookahead epochs executed over those cycles.
    epochs: u64,
    /// `sync_ops / drain_cycles`.
    sync_ops_per_cycle: f64,
    /// `5.0 / sync_ops_per_cycle` — the reduction over the retired
    /// per-cycle four-phase protocol (one launch + four barriers per
    /// executed cycle).
    reduction_vs_retired: f64,
}

/// Drains an identical saturated 8x8x8 burst at each (shards,
/// lookahead) cell and prices the barrier protocol: the retired
/// stepper crossed 5 sync points per executed cycle; the lookahead
/// epochs amortize 2 per window. Every cell must drain to the identical
/// cycle with the identical delivery count — asserted, like every other
/// sharded figure in this artifact.
fn sync_cost_bench(params: FabricParams) -> Vec<SyncCostRow> {
    let dims = [8u8, 8, 8];
    let n = Torus::new(dims).node_count() as u64;
    let mut endpoint: Option<(u64, usize)> = None;
    [(2usize, Some(1u64)), (2, None), (4, None)]
        .iter()
        .map(|&(shards, lookahead)| {
            let mut fabric = TorusFabric::new(Torus::new(dims), params);
            fabric
                .set_shards_with_lookahead(shards, lookahead)
                .expect("fresh fabric accepts sharding");
            // The same deterministic overload recipe the CI smoke
            // drains, request-only so the drain needs no driver in the
            // loop: saturating uniform-random bursts from every other
            // node per cycle.
            let mut rng = SplitMix64::new(0x5C05);
            let mut id = 0u64;
            for cycle in 0..600u64 {
                for node in 0..n {
                    let src = NodeId(node as u16);
                    let dst = NodeId(rng.next_below(n) as u16);
                    if src != dst && cycle % 2 == node % 2 {
                        id += 1;
                        let _ = fabric.inject(PacketSpec::request(src, dst, id, 2).drawn(&mut rng));
                    }
                }
                fabric.step();
            }
            let (s0, e0, x0) = (fabric.sync_ops(), fabric.epochs(), fabric.cycles_stepped());
            assert!(
                fabric.run_until_drained(400_000),
                "sync-cost burst did not drain"
            );
            let end = (fabric.cycle(), fabric.delivered().len());
            match &endpoint {
                None => endpoint = Some(end),
                Some(reference) => assert_eq!(
                    &end, reference,
                    "{shards} shards (lookahead {lookahead:?}) diverged on the drain endpoint"
                ),
            }
            let sync_ops = fabric.sync_ops() - s0;
            let epochs = fabric.epochs() - e0;
            let drain_cycles = fabric.cycles_stepped() - x0;
            let per_cycle = sync_ops as f64 / drain_cycles.max(1) as f64;
            SyncCostRow {
                shards,
                lookahead,
                drain_cycles,
                sync_ops,
                epochs,
                sync_ops_per_cycle: per_cycle,
                reduction_vs_retired: 5.0 / per_cycle,
            }
        })
        .collect()
}

/// The telemetry cost probe: the overload scenario once more on the
/// event core with full telemetry recording (stall attribution, epoch
/// series) enabled.
#[derive(Clone, Copy, Debug, Serialize)]
struct TelemetryOverhead {
    /// Wall-clock seconds with telemetry on.
    wall_seconds: f64,
    /// Simulated cycles per wall-clock second with telemetry on.
    steps_per_sec: f64,
    /// Telemetry-on wall / telemetry-off (event) wall — the recording
    /// cost as a slowdown factor.
    overhead_ratio: f64,
}

/// A constructed fabric's memory audit, as recorded in the artifact.
#[derive(Clone, Copy, Debug, Serialize)]
struct MemoryRow {
    /// Total heap bytes behind the constructed fabric (router state,
    /// links, credit mirror, scheduling, route tables).
    total_bytes: usize,
    /// `total_bytes / nodes` — the figure held under
    /// [`BYTES_PER_ROUTER_BUDGET`].
    bytes_per_router: usize,
    /// Bytes of the separable per-dimension route tables alone.
    route_table_bytes: usize,
}

/// The 16x16x16 overload point on the event core: construction audit
/// plus the shard-scaling curve, every sharded run asserted onto the
/// serial (1-shard) endpoint.
#[derive(Clone, Debug, Serialize)]
struct LargeOverloadBench {
    /// Torus extents.
    dims: [u8; 3],
    /// Offered request load, flits per node per cycle.
    offered: f64,
    /// Wall-clock seconds to construct the fabric (tables included).
    construct_seconds: f64,
    /// Memory audit of the freshly constructed fabric.
    memory: MemoryRow,
    /// Simulated cycles the scenario advanced the fabric (identical at
    /// every shard count).
    simulated_cycles: u64,
    /// Total flit-hops carried (identical at every shard count).
    flit_hops: u64,
    /// Steps/s per shard count; `speedup` is relative to the serial row.
    shard_scaling: Vec<ShardPoint>,
}

/// The 32x32x32 construction audit plus a short light-load run — proof
/// the shape is constructible and steppable, not a saturation study.
#[derive(Clone, Copy, Debug, Serialize)]
struct MegaConstruction {
    /// Torus extents.
    dims: [u8; 3],
    /// Node count (one router per node).
    nodes: usize,
    /// Wall-clock seconds to construct the fabric (tables included).
    construct_seconds: f64,
    /// Memory audit of the freshly constructed fabric.
    memory: MemoryRow,
    /// Simulated cycles of the short light-load run.
    simulated_cycles: u64,
    /// Simulated cycles per wall second over that run (event core,
    /// single thread, unsharded).
    steps_per_sec: f64,
}

/// The mega-fabric section of the artifact (absent under `--quick`).
#[derive(Clone, Debug, Serialize)]
struct LargeShape {
    /// The 16³ overload shard-scaling curve.
    overload_16x16x16: LargeOverloadBench,
    /// The 32³ construction audit and short-run figure.
    construct_32x32x32: MegaConstruction,
}

/// The `BENCH_fabric.json` artifact.
#[derive(Clone, Debug, Serialize)]
struct FabricBench {
    /// Artifact schema version ([`BENCH_SCHEMA_VERSION`]).
    schema_version: u32,
    /// The 8x8x8 overload sweep point (the CI smoke workload).
    overload_8x8x8: ScenarioBench,
    /// The overload scenario across the shard x lookahead matrix on the
    /// event core — the lookahead-epoch stepper's scaling curve.
    shard_scaling: Vec<ShardPoint>,
    /// The drain-phase synchronization-cost probe: sync ops per cycle
    /// at full-width lookahead epochs vs the retired per-cycle 5.
    sync_cost: Vec<SyncCostRow>,
    /// A moderate-load 4x4x8 point (the README steps/sec row).
    moderate_4x4x8: ScenarioBench,
    /// The overload scenario with telemetry recording enabled.
    telemetry: TelemetryOverhead,
    /// The mega-fabric section (`null` when run with `--quick`).
    large_shape: Option<LargeShape>,
}

/// Machine-wide flit-hops: flits that entered any directed slice link
/// (each link crossing of each flit counts once).
fn total_flit_hops(fabric: &TorusFabric) -> u64 {
    use anton_net::fabric3d::FLIT_BYTES;
    let mut bytes = 0;
    for node in fabric.torus().nodes() {
        for dir in Direction::ALL {
            for s in 0..SLICES {
                bytes += fabric.link_stats(node, dir, s).wire_bytes;
            }
        }
    }
    bytes / FLIT_BYTES
}

fn run_mode(
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    stepper: Stepper,
) -> (ScenarioRun, StepperRun, u64) {
    let mut workload = SyntheticWorkload::new(&UniformRandom, cfg.flits_per_packet, cfg.respond);
    let start = Instant::now();
    let run = run_scenario_with(&mut workload, cfg, params, offered, stream, stepper);
    let wall = start.elapsed().as_secs_f64();
    let cycles = run.fabric.cycle();
    let hops = total_flit_hops(&run.fabric);
    (
        run,
        StepperRun {
            wall_seconds: wall,
            steps_per_sec: cycles as f64 / wall,
            flit_hops_per_sec: hops as f64 / wall,
        },
        hops,
    )
}

fn bench_scenario(
    scenario: &str,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
) -> ScenarioBench {
    let (event_run, event, event_hops) = run_mode(cfg, params, offered, stream, Stepper::Event);
    let (ref_run, reference, ref_hops) = run_mode(cfg, params, offered, stream, Stepper::Reference);
    // The speedup is only meaningful on identical work — and equality is
    // exactly what the event-driven rewrite promises, so hold it here in
    // CI, not just in the proptests.
    assert_eq!(
        format!("{:?}", event_run.point),
        format!("{:?}", ref_run.point),
        "{scenario}: steppers measured different points"
    );
    assert_eq!(
        (event_run.fabric.cycle(), event_hops),
        (ref_run.fabric.cycle(), ref_hops),
        "{scenario}: steppers disagreed on cycles or flit-hops"
    );
    ScenarioBench {
        scenario: scenario.to_string(),
        dims: cfg.dims,
        offered,
        simulated_cycles: event_run.fabric.cycle(),
        flit_hops: event_hops,
        event,
        reference,
        speedup: reference.wall_seconds / event.wall_seconds,
    }
}

/// One measured (shards, lookahead) cell of an overload scenario on the
/// event core, with its synchronization counters.
fn shard_point(
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    shards: usize,
    lookahead: Option<u64>,
) -> (ScenarioRun, ShardPoint, u64) {
    let mut cfg = cfg.clone();
    cfg.shards = shards;
    cfg.lookahead = lookahead;
    let (run, sr, hops) = run_mode(&cfg, params, offered, stream, Stepper::Event);
    let (sync_ops, epochs) = (run.fabric.sync_ops(), run.fabric.epochs());
    let executed = run.fabric.cycles_stepped();
    let point = ShardPoint {
        shards,
        lookahead,
        wall_seconds: sr.wall_seconds,
        steps_per_sec: sr.steps_per_sec,
        speedup: 1.0,
        sync_ops,
        epochs,
        sync_ops_per_cycle: if executed > 0 {
            sync_ops as f64 / executed as f64
        } else {
            0.0
        },
    };
    (run, point, hops)
}

/// The overload scenario across the shard x lookahead matrix, on the
/// event core. Every run must land on the exact simulated endpoint the
/// 1-shard benchmark measured — sharding and the epoch window are
/// execution strategy, not a model change — so this doubles as a
/// determinism check at CI scale.
fn shard_scaling(
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    expect: &ScenarioBench,
) -> Vec<ShardPoint> {
    let cells: [(usize, Option<u64>); 5] =
        [(1, None), (2, Some(1)), (2, None), (4, Some(1)), (4, None)];
    let mut points: Vec<ShardPoint> = cells
        .iter()
        .map(|&(shards, lookahead)| {
            let (run, point, hops) = shard_point(cfg, params, offered, stream, shards, lookahead);
            assert_eq!(
                (run.fabric.cycle(), hops),
                (expect.simulated_cycles, expect.flit_hops),
                "{shards} shards (lookahead {lookahead:?}) changed the simulated scenario"
            );
            point
        })
        .collect();
    let base = points[0].steps_per_sec;
    for p in &mut points {
        p.speedup = p.steps_per_sec / base;
    }
    points
}

/// Flattens a [`FabricMemoryReport`] into the artifact row, holding the
/// documented budget.
fn memory_row(shape: &str, report: &FabricMemoryReport) -> MemoryRow {
    assert!(
        report.bytes_per_router <= BYTES_PER_ROUTER_BUDGET,
        "{shape}: {} bytes/router exceeds the {BYTES_PER_ROUTER_BUDGET}-byte budget",
        report.bytes_per_router
    );
    MemoryRow {
        total_bytes: report.total_bytes,
        bytes_per_router: report.bytes_per_router,
        route_table_bytes: report.route_table_bytes,
    }
}

/// Times one fabric construction and audits its memory.
fn construct_audit(dims: [u8; 3], params: FabricParams) -> (f64, MemoryRow) {
    let start = Instant::now();
    let fabric = TorusFabric::new(Torus::new(dims), params);
    let construct_seconds = start.elapsed().as_secs_f64();
    let shape = format!("{}x{}x{}", dims[0], dims[1], dims[2]);
    (
        construct_seconds,
        memory_row(&shape, &fabric.memory_report()),
    )
}

/// The mega-fabric section: the 16³ overload shard-scaling curve (every
/// sharded endpoint asserted against the serial run) and the 32³
/// construction audit with a short light-load steps/s figure.
fn large_shape_bench(params: FabricParams) -> LargeShape {
    // 16³ overload. Short windows: at 4096 nodes the point's job is the
    // scaling curve and the endpoint determinism check, not a converged
    // latency measurement.
    let dims = [16u8, 16, 16];
    let (construct_seconds, memory) = construct_audit(dims, params);
    let mut cfg = SweepConfig::new(dims);
    cfg.loads = vec![];
    cfg.warmup_cycles = 150;
    cfg.measure_cycles = 300;
    cfg.drain_cycles = 2_000;
    let offered = 0.3;
    let mut serial: Option<(u64, u64, String)> = None;
    let mut points: Vec<ShardPoint> = [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| {
            let (run, point, hops) = shard_point(&cfg, params, offered, 11, shards, None);
            let end = (run.fabric.cycle(), hops, format!("{:?}", run.point));
            match &serial {
                None => serial = Some(end),
                Some(reference) => assert_eq!(
                    &end, reference,
                    "{shards} shards diverged from the serial 16x16x16 endpoint"
                ),
            }
            point
        })
        .collect();
    let base = points[0].steps_per_sec;
    for p in &mut points {
        p.speedup = p.steps_per_sec / base;
    }
    let (simulated_cycles, flit_hops, _) = serial.expect("serial 16x16x16 endpoint");
    let overload_16x16x16 = LargeOverloadBench {
        dims,
        offered,
        construct_seconds,
        memory,
        simulated_cycles,
        flit_hops,
        shard_scaling: points,
    };

    // 32³: constructible and steppable, audited against the same
    // budget. The light-load run keeps the whole section CI-sized.
    let dims = [32u8, 32, 32];
    let (construct_seconds, memory) = construct_audit(dims, params);
    let mut cfg = SweepConfig::new(dims);
    cfg.loads = vec![];
    cfg.warmup_cycles = 60;
    cfg.measure_cycles = 120;
    cfg.drain_cycles = 1_500;
    let (run, sr, _) = run_mode(&cfg, params, 0.02, 13, Stepper::Event);
    let construct_32x32x32 = MegaConstruction {
        dims,
        nodes: Torus::new(dims).node_count(),
        construct_seconds,
        memory,
        simulated_cycles: run.fabric.cycle(),
        steps_per_sec: sr.steps_per_sec,
    };
    LargeShape {
        overload_16x16x16,
        construct_32x32x32,
    }
}

fn main() {
    let params = FabricParams::calibrated(&LatencyModel::default());

    // The CI overload smoke's sweep point, verbatim (sweep_traffic
    // --overload-smoke): 512 nodes at 0.9 offered with force returns.
    let mut overload = SweepConfig::new([8, 8, 8]);
    overload.loads = vec![];
    overload.warmup_cycles = 300;
    overload.measure_cycles = 900;
    overload.drain_cycles = 6_000;
    // Stream 1025 = the smoke's own overload point (curve stream 1,
    // point index 1 on its two-point axis), so the benchmarked traffic
    // is the exact random instance CI smokes.
    let overload_8x8x8 = bench_scenario("8x8x8 overload", &overload, params, 0.9, 1025);

    // The lookahead-epoch stepper's scaling matrix on the same point,
    // and the drain-phase barrier-cost probe.
    let shard_points = shard_scaling(&overload, params, 0.9, 1025, &overload_8x8x8);
    let sync_cost = sync_cost_bench(params);

    // A mid-load 128-node point: the common calibration regime.
    let mut moderate = SweepConfig::calibration_4x4x8();
    moderate.respond = true;
    let moderate_4x4x8 = bench_scenario("4x4x8 moderate", &moderate, params, 0.3, 7);

    // Telemetry cost probe: the same overload scenario on the event core
    // with recording on. Telemetry is observational, so this must land
    // on the identical simulated endpoint — checked below — and the
    // wall-clock ratio is the recording overhead.
    let telemetry = {
        let mut workload =
            SyntheticWorkload::new(&UniformRandom, overload.flits_per_packet, overload.respond);
        let start = Instant::now();
        let run = run_scenario_instrumented(
            &mut workload,
            &overload,
            params,
            0.9,
            1025,
            TelemetryConfig::default(),
        );
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            (run.fabric.cycle(), total_flit_hops(&run.fabric)),
            (overload_8x8x8.simulated_cycles, overload_8x8x8.flit_hops),
            "telemetry recording changed the simulated scenario"
        );
        TelemetryOverhead {
            wall_seconds: wall,
            steps_per_sec: run.fabric.cycle() as f64 / wall,
            overhead_ratio: wall / overload_8x8x8.event.wall_seconds,
        }
    };

    // The mega-fabric section: skipped under --quick so local
    // iteration on the 8x8x8 snapshot stays fast.
    let quick = std::env::args().any(|a| a == "--quick");
    let large_shape = if quick {
        None
    } else {
        Some(large_shape_bench(params))
    };

    let bench = FabricBench {
        schema_version: BENCH_SCHEMA_VERSION,
        overload_8x8x8,
        shard_scaling: shard_points,
        sync_cost,
        moderate_4x4x8,
        telemetry,
        large_shape,
    };
    if anton_bench::maybe_json(&bench) {
        return;
    }

    println!("FABRIC THROUGHPUT SNAPSHOT (single thread)");
    for b in [&bench.overload_8x8x8, &bench.moderate_4x4x8] {
        println!();
        println!(
            "{}: {}x{}x{} torus ({} nodes), offered {:.2}, {} simulated cycles, {} flit-hops",
            b.scenario,
            b.dims[0],
            b.dims[1],
            b.dims[2],
            Torus::new(b.dims).node_count(),
            b.offered,
            b.simulated_cycles,
            b.flit_hops,
        );
        for (name, run) in [("event-driven", &b.event), ("reference", &b.reference)] {
            println!(
                "  {name:<13} {:>8.2}s wall  {:>12.0} steps/s  {:>12.0} flit-hops/s",
                run.wall_seconds, run.steps_per_sec, run.flit_hops_per_sec
            );
        }
        println!(
            "  speedup: {:.2}x (identical measurements verified)",
            b.speedup
        );
    }
    println!();
    println!("shard scaling (8x8x8 overload, event core, identical endpoints verified):");
    for p in &bench.shard_scaling {
        let window = match p.lookahead {
            Some(w) => format!("window {w}"),
            None => "window auto".to_string(),
        };
        println!(
            "  {:>2} shard(s) {window:<11} {:>8.2}s wall  {:>12.0} steps/s  {:.2}x  \
             {:>8} sync ops ({:.2}/cycle)",
            p.shards, p.wall_seconds, p.steps_per_sec, p.speedup, p.sync_ops, p.sync_ops_per_cycle
        );
    }
    println!();
    println!("sync cost (8x8x8 saturated drain, retired protocol = 5 sync ops/cycle):");
    for r in &bench.sync_cost {
        let window = match r.lookahead {
            Some(w) => format!("window {w}"),
            None => "window auto".to_string(),
        };
        println!(
            "  {:>2} shard(s) {window:<11} {:>7} cycles  {:>7} sync ops  \
             {:.3}/cycle  {:.1}x fewer",
            r.shards, r.drain_cycles, r.sync_ops, r.sync_ops_per_cycle, r.reduction_vs_retired
        );
    }
    println!();
    println!(
        "telemetry overhead (8x8x8 overload, recording on): {:>8.2}s wall  \
         {:>12.0} steps/s  {:.2}x the event core",
        bench.telemetry.wall_seconds, bench.telemetry.steps_per_sec, bench.telemetry.overhead_ratio
    );
    let Some(large) = &bench.large_shape else {
        println!();
        println!("large-shape section skipped (--quick)");
        return;
    };
    let o = &large.overload_16x16x16;
    println!();
    println!(
        "16x16x16 overload ({} nodes, offered {:.2}): constructed in {:.3}s, \
         {} bytes/router ({} route-table bytes), {} simulated cycles, {} flit-hops",
        Torus::new(o.dims).node_count(),
        o.offered,
        o.construct_seconds,
        o.memory.bytes_per_router,
        o.memory.route_table_bytes,
        o.simulated_cycles,
        o.flit_hops,
    );
    println!("shard scaling (16x16x16 overload, serial endpoint verified):");
    for p in &o.shard_scaling {
        println!(
            "  {:>2} shard(s)  {:>8.2}s wall  {:>12.0} steps/s  {:.2}x",
            p.shards, p.wall_seconds, p.steps_per_sec, p.speedup
        );
    }
    let c = &large.construct_32x32x32;
    println!();
    println!(
        "32x32x32 construction ({} nodes): {:.3}s build, {} bytes/router \
         ({:.1} MiB total, {} route-table bytes); light-load run: \
         {:>12.0} steps/s over {} cycles",
        c.nodes,
        c.construct_seconds,
        c.memory.bytes_per_router,
        c.memory.total_bytes as f64 / (1024.0 * 1024.0),
        c.memory.route_table_bytes,
        c.steps_per_sec,
        c.simulated_cycles,
    );
}
