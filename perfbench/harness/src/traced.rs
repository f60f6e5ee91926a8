//! The traced run: each workload once, with `Instant` timers around the
//! calls into each layer and counters read off the returned
//! `ScenarioRun`, `TorusFabric` and `MdNetworkRun`, plus the comparison
//! runs the per-layer ratios need. No library code is instrumented.
//!
//! Every per-layer metric is printed on every workload; a layer the
//! workload never enters reports 0.

use crate::median;
use crate::workloads::{
    check_md_replay, check_overload, check_water, fabric_params, flit_hops, md_setup,
    overload_config, run_md, run_overload, timed, water_setup, Fingerprint, Seeds, Workload,
    OVERLOAD_DIMS, WATER_MEASURE, WATER_WARMUP,
};
use anton3::compress::inz;
use anton3::compress::pcache::{ChannelPcache, FixedPos, ParticleKey, ENTRIES};
use anton3::machine::mdrun::{MdNetworkRun, MdRunResult};
use anton3::md::force::compute_forces;
use anton3::md::units::{exported_position, quantize_force};
use anton3::model::topology::{NodeId, Torus};
use anton3::net::fabric3d::{PacketSpec, TorusFabric};
use anton3::sim::rng::SplitMix64;
use anton3::traffic::sweep::{ScenarioRun, Stepper};
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric: name, unit.
pub const LAYER_METRICS: [(&str, &str); 27] = [
    ("traced.wall_s", "s"),
    ("fabric3d.bytes_per_router", "B"),
    ("sweep.run_s", "s"),
    ("sweep.inject_rejections", "count"),
    ("router.sim_cycles", "cycles"),
    ("router.flit_hops", "count"),
    ("router.sim_cycles_per_s", "cycles/s"),
    ("router.ns_per_flit_hop", "ns"),
    ("router.serial_cycles_per_s", "cycles/s"),
    ("router.reference_speedup", "x"),
    ("router.drain_ns_per_cycle", "ns/cycle"),
    ("shard.sync_ops", "count"),
    ("shard.epochs", "count"),
    ("shard.cycles_stepped", "cycles"),
    ("shard.sync_ops_per_cycle", "ops/cycle"),
    ("shard.mean_epoch_cycles", "cycles"),
    ("shard.speedup", "x"),
    ("shard.drain_sync_ops_per_cycle", "ops/cycle"),
    ("telemetry.overhead_ratio", "x"),
    ("mdrun.new_s", "s"),
    ("workload.halo_tables_s", "s"),
    ("mdrun.step_s", "s"),
    ("md.force_s", "s"),
    ("mdrun.network_share", "ratio"),
    ("inz.encode_ns", "ns"),
    ("pcache.roundtrip_ns", "ns"),
    ("pcache.hit_rate", "ratio"),
];

/// MD steps timed one by one after the water run.
const TRACED_STEPS: usize = 4;
/// Repetitions of each microbenchmark; the median is reported.
const MICRO_REPS: usize = 15;

/// The traced run's metrics and check tally.
pub struct Traced {
    values: [f64; LAYER_METRICS.len()],
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Traced {
    fn new() -> Traced {
        Traced {
            values: [0.0; LAYER_METRICS.len()],
            attempted: 0,
            failed: 0,
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[i] = value;
    }

    /// `(name, unit, value)` for every per-layer metric.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        LAYER_METRICS
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| (name, unit, v))
    }

    /// Records one check: an output check or an equivalence.
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => println!("check {what}: ok"),
            Err(e) => {
                self.failed += 1;
                println!("check {what}: FAILED: {e}");
            }
        }
    }

    fn same(&mut self, what: &str, a: &str, b: &str) {
        let outcome = if a == b {
            Ok(())
        } else {
            Err(format!("{a} != {b}"))
        };
        self.check(what, outcome);
    }

    /// Fabric counters of a finished scenario whose timed call took
    /// `run_s`.
    fn fabric_layers(&mut self, run: &ScenarioRun, run_s: f64) {
        let f = &run.fabric;
        let (cycles, hops) = (f.cycle() as f64, flit_hops(f) as f64);
        let (sync, epochs, stepped) = (
            f.sync_ops() as f64,
            f.epochs() as f64,
            f.cycles_stepped() as f64,
        );
        self.set("sweep.run_s", run_s);
        self.set(
            "fabric3d.bytes_per_router",
            f.memory_report().bytes_per_router as f64,
        );
        self.set(
            "sweep.inject_rejections",
            run.point.backpressure_rejections as f64,
        );
        self.set("router.sim_cycles", cycles);
        self.set("router.flit_hops", hops);
        self.set("router.sim_cycles_per_s", cycles / run_s);
        self.set("router.ns_per_flit_hop", run_s * 1e9 / hops.max(1.0));
        self.set("shard.sync_ops", sync);
        self.set("shard.epochs", epochs);
        self.set("shard.cycles_stepped", stepped);
        self.set("shard.sync_ops_per_cycle", ratio(sync, stepped));
        self.set("shard.mean_epoch_cycles", ratio(stepped, epochs));
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs `workload` traced. Panics propagate to the caller, which counts
/// them as a failed check.
pub fn run(workload: Workload, seeds: &Seeds) -> Traced {
    let mut t = Traced::new();
    match workload {
        Workload::OverloadSerial | Workload::OverloadSharded => {
            overload(&mut t, workload.shards(), seeds)
        }
        Workload::MdReplay => md_replay(&mut t, seeds),
        Workload::WaterCompressed => water(&mut t, seeds),
    }
    t
}

fn overload(t: &mut Traced, shards: usize, seeds: &Seeds) {
    let (run, run_s) = run_overload(&overload_config(shards, seeds), Stepper::Event);
    t.check("overload output", check_overload(&run));
    t.set("traced.wall_s", run_s);
    t.fabric_layers(&run, run_s);
    let cycles = run.fabric.cycle() as f64;
    let print = Fingerprint::of_scenario(&run);
    println!("traced wall_s {run_s:.4} s; fingerprint {}", print.sim);
    drop(run);

    // The serial event kernel and the reference stepper on the same
    // inputs: `overload_serial` is not a scored workload, so the sharded
    // traced run prices both.
    let serial_s = if shards == 1 {
        run_s
    } else {
        let (serial, serial_s) = run_overload(&overload_config(1, seeds), Stepper::Event);
        t.same(
            "sharded == serial",
            &print.sim,
            &Fingerprint::of_scenario(&serial).sim,
        );
        t.set("shard.speedup", serial_s / run_s);
        serial_s
    };
    t.set("router.serial_cycles_per_s", cycles / serial_s);
    let (reference, ref_s) = run_overload(&overload_config(1, seeds), Stepper::Reference);
    t.same(
        "event == reference",
        &print.sim,
        &Fingerprint::of_scenario(&reference).sim,
    );
    t.set("router.reference_speedup", ref_s / serial_s);
    drop(reference);

    match drain_probe(shards, seeds) {
        Ok((ns_per_cycle, sync_per_cycle)) => {
            t.set("router.drain_ns_per_cycle", ns_per_cycle);
            t.set("shard.drain_sync_ops_per_cycle", sync_per_cycle);
            t.check("drain burst empties", Ok(()));
        }
        Err(e) => t.check("drain burst empties", Err(e)),
    }
}

/// `bench_fabric`'s sync-cost recipe: a request-only saturating burst
/// from every other node per cycle for 600 cycles, then
/// `run_until_drained`. Returns host ns per drained cycle and sync ops
/// per stepped cycle.
fn drain_probe(shards: usize, seeds: &Seeds) -> Result<(f64, f64), String> {
    let torus = Torus::new(OVERLOAD_DIMS);
    let mut fabric = TorusFabric::new(torus, fabric_params());
    if shards > 1 {
        fabric
            .set_shards_with_lookahead(shards, None)
            .map_err(|e| format!("set_shards: {e}"))?;
    }
    let n = torus.node_count() as u64;
    let mut rng = SplitMix64::new(seeds.burst);
    let mut id = 0u64;
    for cycle in 0..600u64 {
        for node in 0..n {
            let src = NodeId(node as u16);
            let dst = NodeId(rng.next_below(n) as u16);
            if src != dst && cycle % 2 == node % 2 {
                id += 1;
                // A refused packet is simply not offered again.
                let _ = fabric.inject(PacketSpec::request(src, dst, id, 2).drawn(&mut rng));
            }
        }
        fabric.step();
    }
    let (c0, s0, x0) = (fabric.cycle(), fabric.sync_ops(), fabric.cycles_stepped());
    let (drained, secs) = timed(|| fabric.run_until_drained(400_000));
    if !drained {
        return Err(format!("{} flits still resident", fabric.occupancy()));
    }
    let cycles = (fabric.cycle() - c0) as f64;
    let sync = (fabric.sync_ops() - s0) as f64;
    let stepped = (fabric.cycles_stepped() - x0) as f64;
    println!("drain burst: {cycles} cycles in {secs:.4} s, {sync} sync ops");
    Ok((ratio(secs * 1e9, cycles), ratio(sync, stepped)))
}

fn md_replay(t: &mut Traced, seeds: &Seeds) {
    let (_run, mut workload, new_s, halo_s) = md_setup(seeds);
    t.set("mdrun.new_s", new_s);
    t.set("workload.halo_tables_s", halo_s);
    let (instrumented, run_s) = run_md(&mut workload, seeds, true);
    t.check("md_replay output", check_md_replay(&instrumented));
    t.set("traced.wall_s", run_s);
    t.fabric_layers(&instrumented, run_s);
    let print = Fingerprint::of_scenario(&instrumented);
    println!("traced wall_s {run_s:.4} s; fingerprint {}", print.sim);
    drop(instrumented);

    let (plain, plain_s) = run_md(&mut workload, seeds, false);
    t.same(
        "instrumented == uninstrumented",
        &print.sim,
        &Fingerprint::of_scenario(&plain).sim,
    );
    t.set("telemetry.overhead_ratio", run_s / plain_s);
    drop(plain);

    // `water_compressed` is not a scored workload, so the replay's
    // traced run measures the analytic crates on its configuration.
    let (mut run, _) = water_setup(seeds);
    let (result, _) = timed(|| run.run(WATER_WARMUP, WATER_MEASURE));
    t.check("water output", check_water(&run, &result));
    analytic_layers(t, &mut run, &result);
}

fn water(t: &mut Traced, seeds: &Seeds) {
    let (mut run, new_s) = water_setup(seeds);
    t.set("mdrun.new_s", new_s);
    let (result, wall_s) = timed(|| run.run(WATER_WARMUP, WATER_MEASURE));
    t.check("water output", check_water(&run, &result));
    t.set("traced.wall_s", wall_s);
    println!("traced wall_s {wall_s:.4} s");
    analytic_layers(t, &mut run, &result);
}

/// The analytic crates' layers after a finished water run: its particle
/// caches, then steps, force evaluation, `inz` and `pcache` timed alone.
fn analytic_layers(t: &mut Traced, run: &mut MdNetworkRun, result: &MdRunResult) {
    t.set("pcache.hit_rate", result.pcache_hit_rate.unwrap_or(0.0));
    println!("water fingerprint {}", Fingerprint::of_water(result).sim);

    // Steps timed one at a time; the first ENTRIES atoms' exported
    // positions at each step feed the particle-cache probe below.
    let mut step_s = Vec::with_capacity(TRACED_STEPS);
    let mut exports: Vec<Vec<FixedPos>> = Vec::with_capacity(TRACED_STEPS);
    for _ in 0..TRACED_STEPS {
        let sim = &run.sim;
        exports.push(
            (0..ENTRIES.min(sim.system.n))
                .map(|a| {
                    exported_position(sim.system.pos[a], a as u32, sim.step_count, sim.params.dt)
                })
                .collect(),
        );
        step_s.push(timed(|| run.step()).1);
    }
    let step_s = step_s.iter().sum::<f64>() / step_s.len() as f64;
    let force_s = median(
        &(0..3)
            .map(|_| timed(|| black_box(compute_forces(&run.sim.system, &run.sim.params))).1)
            .collect::<Vec<_>>(),
    );
    t.set("mdrun.step_s", step_s);
    t.set("md.force_s", force_s);
    t.set("mdrun.network_share", 1.0 - force_s / step_s);

    let words: Vec<[u32; 3]> = run
        .sim
        .forces
        .f
        .iter()
        .map(|&f| quantize_force(f).map(|v| v as u32))
        .collect();
    t.set(
        "inz.encode_ns",
        median(
            &(0..MICRO_REPS)
                .map(|_| encode_pass_ns(&words))
                .collect::<Vec<_>>(),
        ),
    );
    t.set(
        "pcache.roundtrip_ns",
        median(
            &(0..MICRO_REPS)
                .map(|_| pcache_step_ns(&exports))
                .collect::<Vec<_>>(),
        ),
    );
}

/// Mean host ns of one `inz::encode` over every force payload.
fn encode_pass_ns(words: &[[u32; 3]]) -> f64 {
    let start = Instant::now();
    for w in words {
        black_box(inz::encode(black_box(w)));
    }
    start.elapsed().as_secs_f64() * 1e9 / words.len() as f64
}

/// Mean host ns of one `transmit` + `receive` over the last step of
/// `steps`, on a channel warmed by the earlier steps.
fn pcache_step_ns(steps: &[Vec<FixedPos>]) -> f64 {
    let mut channel = ChannelPcache::default();
    let (last, warm) = steps.split_last().expect("at least one step of exports");
    for step in warm {
        for (a, &pos) in step.iter().enumerate() {
            let wire = channel.transmit(ParticleKey(a as u64), pos);
            channel.receive(wire);
        }
        channel.end_of_step();
    }
    let start = Instant::now();
    for (a, &pos) in last.iter().enumerate() {
        let wire = channel.transmit(black_box(ParticleKey(a as u64)), black_box(pos));
        black_box(channel.receive(wire));
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / last.len() as f64;
    channel.assert_synchronized();
    ns
}
