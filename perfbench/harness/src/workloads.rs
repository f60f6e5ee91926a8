//! The four benchmark workloads: their inputs (generated from the
//! benchmark seed), one timed repetition each, the output checks, and the
//! simulated fingerprint every repetition of one invocation must repeat.
//!
//! Everything here goes through the library's public entry points:
//! the `run_scenario*` family, `TorusFabric` construction and counters,
//! and `MdNetworkRun`. Nothing implements a library trait.

use anton3::machine::mdrun::{MdNetworkRun, MdRunResult};
use anton3::model::latency::LatencyModel;
use anton3::model::topology::Torus;
use anton3::model::MachineConfig;
use anton3::net::channel::LinkStats;
use anton3::net::fabric3d::{FabricParams, TorusFabric, FLIT_BYTES, SLICES};
use anton3::net::telemetry::TelemetryConfig;
use anton3::traffic::patterns::UniformRandom;
use anton3::traffic::sweep::{
    run_scenario, run_scenario_instrumented, run_scenario_with, ScenarioRun, Stepper, SweepConfig,
};
use anton3::traffic::workload::{MdHaloWorkload, SyntheticWorkload};
use std::fmt::Write as _;
use std::time::Instant;

/// The saturated point of `sweep_traffic --overload-smoke`.
pub const OVERLOAD_DIMS: [u8; 3] = [8, 8, 8];
/// Offered request load of the overload point, flits/node/cycle.
pub const OVERLOAD_OFFERED: f64 = 0.9;
/// RNG stream of the overload point (curve stream 1, point index 1),
/// the same instance `bench_fabric` times.
pub const OVERLOAD_STREAM: u64 = 1025;
/// Shard count of `overload_sharded` (the container has two cores).
pub const SHARDED_SHARDS: usize = 2;

/// The `sweep_traffic --md-replay` machine and water box.
pub const MD_DIMS: [u8; 3] = [4, 4, 8];
/// Atoms in the replay's water box.
pub const MD_ATOMS: usize = 40_000;
/// Sampled atom positions per home box in the replay tables.
pub const HALO_SAMPLES: usize = 64;
/// Offered export load of the replay, flits/node/cycle.
pub const MD_OFFERED: f64 = 0.3;
/// RNG stream of the replay point.
pub const MD_STREAM: u64 = 7;

/// Figure 9's INZ + particle-cache machine.
pub const WATER_DIMS: [u8; 3] = [2, 2, 2];
/// Atoms in Figure 9's water box.
pub const WATER_ATOMS: usize = 32_751;
/// Unmeasured steps that warm the particle caches (Figure 9 `--quick`).
pub const WATER_WARMUP: usize = 4;
/// Measured steps (Figure 9 `--quick`).
pub const WATER_MEASURE: usize = 3;

/// Fabric constructions timed before each overload repetition for the
/// overload workloads' `setup_s`: one construction takes about a
/// millisecond, so only a median over many is steady.
pub const FABRIC_SETUP_SAMPLES: usize = 9;

/// One named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The overload point on one thread.
    OverloadSerial,
    /// The overload point at [`SHARDED_SHARDS`] shards, structural lookahead.
    OverloadSharded,
    /// The MD halo replay on the cycle fabric, telemetry on.
    MdReplay,
    /// Water MD steps over the analytic network with INZ + particle cache.
    WaterCompressed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::OverloadSerial,
        Workload::OverloadSharded,
        Workload::MdReplay,
        Workload::WaterCompressed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OverloadSerial => "overload_serial",
            Workload::OverloadSharded => "overload_sharded",
            Workload::MdReplay => "md_replay",
            Workload::WaterCompressed => "water_compressed",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fabric shards the workload steps with.
    pub fn shards(self) -> usize {
        match self {
            Workload::OverloadSharded => SHARDED_SHARDS,
            _ => 1,
        }
    }
}

/// murmur3's 64-bit finalizer: a bijection with `fmix64(0) == 0`.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// The library seeds one benchmark seed generates. Each is the input's
/// historical constant XORed with `fmix64(seed)`, so seed 0 reproduces
/// `sweep_traffic --overload-smoke`, `--md-replay`, Figure 9 and
/// `bench_fabric`'s drain burst exactly, and any other seed moves every
/// input together.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// The `--seed` argument.
    pub bench: u64,
    /// `SweepConfig::seed` of every scenario.
    pub sweep: u64,
    /// Water-box seed of the replay's `MdNetworkRun`.
    pub md_atoms: u64,
    /// Sampling seed of the replay's halo tables.
    pub halo: u64,
    /// Water-box seed of `water_compressed`.
    pub water_atoms: u64,
    /// RNG seed of the traced run's request-only drain burst.
    pub burst: u64,
}

impl Seeds {
    /// The seeds generated by benchmark seed `bench`.
    pub fn new(bench: u64) -> Seeds {
        let mix = fmix64(bench);
        Seeds {
            bench,
            sweep: SweepConfig::new(OVERLOAD_DIMS).seed ^ mix,
            md_atoms: 99 ^ mix,
            halo: 0x4D5F_4841 ^ mix,
            water_atoms: 2026 ^ mix,
            burst: 0x5C05 ^ mix,
        }
    }

    /// The seeds as a JSON object, for the provenance record.
    pub fn json(&self) -> String {
        format!(
            "{{\"bench\": {}, \"sweep\": {}, \"md_atoms\": {}, \"halo\": {}, \
             \"water_atoms\": {}, \"burst\": {}}}",
            self.bench, self.sweep, self.md_atoms, self.halo, self.water_atoms, self.burst
        )
    }
}

/// The calibrated cycle parameters every fabric workload runs with.
pub fn fabric_params() -> FabricParams {
    FabricParams::calibrated(&LatencyModel::default())
}

/// The overload point's sweep configuration at `shards` shards.
pub fn overload_config(shards: usize, seeds: &Seeds) -> SweepConfig {
    let mut cfg = SweepConfig::new(OVERLOAD_DIMS);
    cfg.loads = vec![];
    cfg.warmup_cycles = 300;
    cfg.measure_cycles = 900;
    cfg.drain_cycles = 6_000;
    cfg.seed = seeds.sweep;
    cfg.shards = shards;
    cfg.lookahead = None;
    cfg
}

/// The replay's sweep configuration (the default windows).
pub fn md_config(seeds: &Seeds) -> SweepConfig {
    let mut cfg = SweepConfig::new(MD_DIMS);
    cfg.loads = vec![];
    cfg.seed = seeds.sweep;
    cfg
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The overload point on `stepper`: the workload's timed call.
pub fn run_overload(cfg: &SweepConfig, stepper: Stepper) -> (ScenarioRun, f64) {
    let params = fabric_params();
    let mut workload = SyntheticWorkload::new(&UniformRandom, cfg.flits_per_packet, cfg.respond);
    timed(|| match stepper {
        Stepper::Event => run_scenario(
            &mut workload,
            cfg,
            params,
            OVERLOAD_OFFERED,
            OVERLOAD_STREAM,
        ),
        _ => run_scenario_with(
            &mut workload,
            cfg,
            params,
            OVERLOAD_OFFERED,
            OVERLOAD_STREAM,
            stepper,
        ),
    })
}

/// Host seconds of one overload set-up, which is only `TorusFabric::new`
/// (sharding happens inside the timed call). Dropping it is not timed.
pub fn fabric_setup_s() -> f64 {
    let params = fabric_params();
    let (fabric, secs) = timed(|| TorusFabric::new(Torus::new(OVERLOAD_DIMS), params));
    drop(fabric);
    secs
}

/// The replay's set-up: the water box and decomposition, then the halo
/// tables, with each call's host seconds.
pub fn md_setup(seeds: &Seeds) -> (MdNetworkRun, MdHaloWorkload, f64, f64) {
    let cfg = MachineConfig::torus(MD_DIMS).without_compression();
    let (run, new_s) = timed(|| MdNetworkRun::new(cfg, MD_ATOMS, seeds.md_atoms, false));
    let (workload, halo_s) = timed(|| run.halo_workload(HALO_SAMPLES, seeds.halo));
    (run, workload, new_s, halo_s)
}

/// The replay point, instrumented as `sweep_traffic --md-replay` always
/// runs it, or plain for the telemetry comparison.
pub fn run_md(
    workload: &mut MdHaloWorkload,
    seeds: &Seeds,
    instrumented: bool,
) -> (ScenarioRun, f64) {
    let cfg = md_config(seeds);
    let params = fabric_params();
    timed(|| {
        if instrumented {
            run_scenario_instrumented(
                workload,
                &cfg,
                params,
                MD_OFFERED,
                MD_STREAM,
                TelemetryConfig::default(),
            )
        } else {
            run_scenario(workload, &cfg, params, MD_OFFERED, MD_STREAM)
        }
    })
}

/// `water_compressed`'s set-up: the water box on the compressed 2x2x2
/// machine, with its host seconds.
pub fn water_setup(seeds: &Seeds) -> (MdNetworkRun, f64) {
    let cfg = MachineConfig::torus(WATER_DIMS);
    timed(|| MdNetworkRun::new(cfg, WATER_ATOMS, seeds.water_atoms, false))
}

/// Machine-wide wire bytes of a fabric, both slices merged.
pub fn wire_totals(fabric: &TorusFabric) -> LinkStats {
    let mut total = LinkStats::default();
    for s in 0..SLICES {
        total.merge(&fabric.slice_stats(s));
    }
    total
}

/// Flits that entered any neighbor link (every hop of every flit).
pub fn flit_hops(fabric: &TorusFabric) -> u64 {
    wire_totals(fabric).wire_bytes / FLIT_BYTES
}

/// The simulated statistics of one run. A speed-only change leaves
/// them bit-identical; every repetition in one invocation must agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Cycles, flit-hops, per-class packet counts and latency
    /// quantiles, per-kind wire bytes; or, for the analytic workload,
    /// wire and baseline bytes, hit rate and step times.
    pub sim: String,
    /// Per-class stall totals of an instrumented fabric run.
    pub telemetry: Option<String>,
}

impl Fingerprint {
    /// The fingerprint of a finished scenario.
    pub fn of_scenario(run: &ScenarioRun) -> Fingerprint {
        let p = &run.point;
        let total = wire_totals(&run.fabric);
        let mut sim = format!(
            "cycles={} flit_hops={}",
            run.fabric.cycle(),
            total.wire_bytes / FLIT_BYTES
        );
        for (class, c) in [("request", Some(p.request)), ("response", p.response)] {
            if let Some(c) = c {
                let _ = write!(
                    sim,
                    " {class}[packets={} incomplete={} p50={:?} p99={:?}]",
                    c.packets_measured,
                    c.packets_incomplete,
                    c.p50_latency_cycles,
                    c.p99_latency_cycles
                );
            }
        }
        let _ = write!(
            sim,
            " bytes[position={} force={} other={} wire={}]",
            total.position_bytes, total.force_bytes, total.other_bytes, total.wire_bytes
        );
        let telemetry = run.fabric.telemetry_summary().map(|s| {
            s.classes
                .iter()
                .map(|c| {
                    let b = &c.stalls;
                    format!(
                        "{}[credit={} arbitration={} pipeline={} serialization={}]",
                        c.class,
                        b.credit_starved,
                        b.lost_arbitration,
                        b.pipeline_immature,
                        b.serialization_busy
                    )
                })
                .collect::<Vec<_>>()
                .join(" ")
        });
        Fingerprint { sim, telemetry }
    }

    /// The fingerprint of a finished water run.
    pub fn of_water(result: &MdRunResult) -> Fingerprint {
        let s = &result.stats;
        let sim = format!(
            "bytes[wire={} baseline={} position={} force={} other={}] pcache_hit_rate={:?} \
             step_ps[pairwise={:?} app={:?}]",
            s.wire_bytes,
            s.baseline_bytes,
            s.position_bytes,
            s.force_bytes,
            s.other_bytes,
            result.pcache_hit_rate,
            result.mean_pairwise_step,
            result.mean_app_step
        );
        Fingerprint {
            sim,
            telemetry: None,
        }
    }
}

/// The overload workloads must keep moving traffic on both slices.
pub fn check_overload(run: &ScenarioRun) -> Result<(), String> {
    let p = &run.point;
    if p.delivered.is_nan() || p.delivered <= 0.2 {
        return Err(format!(
            "overload delivered {} flits/node/cycle, not above 0.2",
            p.delivered
        ));
    }
    if !(p.slice_delivered[0] > 0.0 && p.slice_delivered[1] > 0.0) {
        return Err(format!(
            "a channel slice carried nothing: {:?}",
            p.slice_delivered
        ));
    }
    Ok(())
}

/// The replay carries only typed traffic, and its per-kind bytes cover
/// every wire byte.
pub fn check_md_replay(run: &ScenarioRun) -> Result<(), String> {
    let total = wire_totals(&run.fabric);
    if !total.kinds_conserve_wire() {
        return Err(format!(
            "per-kind bytes do not sum to wire bytes: {total:?}"
        ));
    }
    if total.other_bytes != 0 {
        return Err(format!(
            "replay carried {} untyped bytes",
            total.other_bytes
        ));
    }
    if run.point.response.is_none() {
        return Err("replay spawned no force returns".to_string());
    }
    Ok(())
}

/// The particle caches stay synchronized and compression never adds
/// bytes.
pub fn check_water(run: &MdNetworkRun, result: &MdRunResult) -> Result<(), String> {
    run.machine.assert_pcaches_synchronized();
    let s = &result.stats;
    if s.wire_bytes > s.baseline_bytes {
        return Err(format!(
            "compressed wire bytes {} exceed baseline {}",
            s.wire_bytes, s.baseline_bytes
        ));
    }
    Ok(())
}

/// One timed repetition of a workload.
pub struct Rep {
    /// Host seconds of the repetition's own set-up, when it has one.
    pub setup_s: Option<f64>,
    /// Host seconds of the timed call.
    pub wall_s: f64,
    /// The run's simulated statistics.
    pub print: Fingerprint,
}

impl Workload {
    /// Runs the workload once: set-up, timed call, output checks.
    pub fn rep(self, seeds: &Seeds) -> Result<Rep, String> {
        match self {
            Workload::OverloadSerial | Workload::OverloadSharded => {
                let cfg = overload_config(self.shards(), seeds);
                let (run, wall_s) = run_overload(&cfg, Stepper::Event);
                check_overload(&run)?;
                Ok(Rep {
                    setup_s: None,
                    wall_s,
                    print: Fingerprint::of_scenario(&run),
                })
            }
            Workload::MdReplay => {
                let (_run, mut workload, new_s, halo_s) = md_setup(seeds);
                let (scenario, wall_s) = run_md(&mut workload, seeds, true);
                check_md_replay(&scenario)?;
                Ok(Rep {
                    setup_s: Some(new_s + halo_s),
                    wall_s,
                    print: Fingerprint::of_scenario(&scenario),
                })
            }
            Workload::WaterCompressed => {
                let (mut run, setup_s) = water_setup(seeds);
                let (result, wall_s) = timed(|| run.run(WATER_WARMUP, WATER_MEASURE));
                check_water(&run, &result)?;
                Ok(Rep {
                    setup_s: Some(setup_s),
                    wall_s,
                    print: Fingerprint::of_water(&result),
                })
            }
        }
    }
}
