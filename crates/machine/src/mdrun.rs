//! MD time steps over the simulated network — the engine behind
//! Figures 9a, 9b and 12.
//!
//! Each step reproduces the three-phase dataflow of paper §II-C:
//!
//! 1. **Position export**: every atom's position is multicast along its
//!    dimension-ordered tree (order `DimOrder::ALL[atom % 6]`) to all
//!    nodes whose home boxes lie within the import radius. Positions
//!    hash to a fixed Channel Adapter so the particle caches stay warm
//!    across steps; each tree edge pushes one position packet through
//!    that CA's serializer (FIFO, compression applied).
//! 2. **Streaming + pairwise interactions**: ICBs stream arrived
//!    positions across PPIM rows; stream-set forces return to the home
//!    node as the interactions complete (overlapping the export phase).
//!    A GC-to-ICB fence follows the last position on every channel — it
//!    cannot overtake data because it shares the serializers — and gates
//!    the unload of accumulated stored-set forces.
//! 3. **Integration**: once all forces for its atoms have arrived
//!    (blocking reads on counted force quads), each GC integrates. A
//!    GC-to-GC fence at the machine diameter closes the step.
//!
//! Both halves of the halo exchange are routes over a [`MulticastTree`],
//! which records each edge's parent and the edge reaching each
//! destination. A position export is the atom's tree from its home node
//! to its export targets; a force return is the one-destination tree
//! from an importing node back home, whose first edge is ready
//! `FORCE_TURNAROUND_CYCLES` after the position arrived there. One walk
//! (`MdNetworkRun::send_routes`) sends both halves and owns the send
//! policy: edge `d` of every route goes out in level `d`, each level in
//! (link, ready time) order with ties kept in route order, and an edge
//! is ready when its parent edge's packet has arrived.

use crate::barrier;
use crate::machine::NetworkMachine;
use crate::pingpong::LoadedCalibration;
use anton_compress::pcache::ParticleKey;
use anton_md::decomp::{multicast_tree, Decomposition, MulticastTree};
use anton_md::integrate::Simulation;
use anton_md::units::{exported_position, quantize_force};
use anton_model::asic::{self, CAS_PER_NEIGHBOR};
use anton_model::topology::{DimOrder, NodeId};
use anton_model::units::{Cycles, Ps, PS_PER_CORE_CYCLE};
use anton_model::MachineConfig;
use anton_net::channel::LinkStats;
use anton_net::fabric3d::FabricParams;
use anton_net::packet::PacketKind;
use anton_sim::trace::{ActivityKind, ActivityTrace, LaneId};
use anton_traffic::workload::MdHaloWorkload;
use serde::Serialize;

/// Activity kind: position packets on a channel (red in Figure 12).
pub const ACT_POSITION: ActivityKind = ActivityKind(0);
/// Activity kind: force packets on a channel (green in Figure 12).
pub const ACT_FORCE: ActivityKind = ActivityKind(1);
/// Activity kind: GC integration.
pub const ACT_INTEGRATE: ActivityKind = ActivityKind(2);
/// Activity kind: PPIM streaming/compute.
pub const ACT_PPIM: ActivityKind = ActivityKind(3);

/// Aggregate PPIM pairwise throughput per node, interactions per cycle
/// (Table I: 5914 GOPS at 2.8 GHz).
pub const PPIM_INTERACTIONS_PER_CYCLE: f64 = 2112.0;
/// Positions streamed per cycle per node (12 PPIM rows, two streaming
/// buses each).
pub const STREAM_POSITIONS_PER_CYCLE: f64 = 24.0;
/// GC integration cost per atom, cycles (force summation + velocity and
/// position update on an MD-optimized core).
pub const INTEGRATION_CYCLES_PER_ATOM: f64 = 40.0;
/// Turnaround from a stream position's arrival at an ICB to its stream-set
/// force entering the return channel, cycles (ICB buffer + row traversal).
pub const FORCE_TURNAROUND_CYCLES: u64 = 90;
/// Flits per halo packet on the cycle-level replay (position exports and
/// the equal-size force returns both ride two-flit packets). One
/// constant shared by [`MdNetworkRun::halo_workload`] and
/// [`MdNetworkRun::loaded_halo_estimate`] so the replay and the analytic
/// estimate cannot drift apart.
pub const HALO_FLITS_PER_PACKET: u8 = 2;
/// Per-step time spent in phases outside the range-limited pairwise
/// dataflow (bonded forces, constraints, long-range contribution), per
/// atom per node, in cycles. These phases are compute-bound and identical
/// with or without compression — they dilute the application-level
/// speedup of Figure 9b relative to the pairwise-phase speedup visible in
/// Figure 12.
pub const OTHER_PHASE_CYCLES_PER_ATOM: f64 = 0.55;
/// Fixed per-step overhead of the non-pairwise phases, cycles.
pub const OTHER_PHASE_FIXED_CYCLES: f64 = 560.0;

/// The 64-bit static field of an atom's position packet: the global atom
/// id in the low word and a force-field parameter word (type, charge
/// class, exclusion group) in the high word. The parameter word carries
/// real entropy — on the wire it does not INZ-compress, which is exactly
/// why the particle cache replaces the whole static field with a cache
/// index on hits (§IV-B1).
pub fn particle_static_field(atom: u32) -> ParticleKey {
    let mut param = atom as u64;
    param ^= param >> 16;
    param = param.wrapping_mul(0x9E37_79B9).wrapping_add(0x85EB_CA6B);
    ParticleKey(atom as u64 | (param << 32))
}

/// Analytic loaded-latency estimate of one MD step's halo exchange —
/// [`LoadedCalibration`] (fitted against the cycle fabric) applied to a
/// concrete decomposition's route lengths; produced by
/// [`MdNetworkRun::loaded_halo_estimate`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HaloStepEstimate {
    /// Offered request load the estimate is evaluated at,
    /// flits/node/cycle.
    pub offered: f64,
    /// The calibration constants used: the shipped fit for this
    /// machine's shape ([`LoadedCalibration::shipped_uniform`]).
    pub calibration: LoadedCalibration,
    /// Mean torus-minimal hop count of this decomposition's position
    /// exports.
    pub mean_request_hops: f64,
    /// Mean XYZ-mesh hop count of the force returns (mesh routes are
    /// never shorter than torus-minimal ones).
    pub mean_response_hops: f64,
    /// Predicted mean position-export latency under load, cycles.
    pub request_cycles: f64,
    /// Predicted mean force-return latency under load, cycles.
    pub response_cycles: f64,
    /// Export → ICB turnaround → return, end to end.
    pub halo_round_trip: Ps,
    /// The halo round trip plus the closing GC-to-GC barrier — a loaded
    /// lower bound on the network share of one step's critical path.
    pub step_floor: Ps,
}

/// Timing of one simulated step.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StepTiming {
    /// Full step duration (pairwise dataflow + integration + barrier).
    pub pairwise_step: Ps,
    /// Step duration including the non-pairwise application phases.
    pub app_step: Ps,
}

/// Result of a measured MD-over-network run.
#[derive(Clone, Debug, Serialize)]
pub struct MdRunResult {
    /// Atom count.
    pub atoms: usize,
    /// Machine-wide traffic stats over the measured steps.
    pub stats: LinkStats,
    /// Mean pairwise-dataflow step time (the Figure 12 quantity).
    pub mean_pairwise_step: Ps,
    /// Mean application step time (the Figure 9b quantity).
    pub mean_app_step: Ps,
    /// Send-side particle cache hit rate, if enabled.
    pub pcache_hit_rate: Option<f64>,
}

/// One route of a step's halo exchange: an atom's multicast tree, the
/// time its first edges are ready, and each sent edge's arrival at its
/// far end, relay included.
struct Route {
    atom: u32,
    start: Ps,
    tree: MulticastTree,
    arrive: Vec<Ps>,
}

impl Route {
    fn new(atom: u32, start: Ps, tree: MulticastTree) -> Route {
        let arrive = Vec::with_capacity(tree.edges().len());
        Route {
            atom,
            start,
            tree,
            arrive,
        }
    }

    /// When the packet reaches the far end of `edge`, or the source for
    /// `None`: the route's start.
    fn arrival(&self, edge: Option<usize>) -> Ps {
        edge.map_or(self.start, |i| self.arrive[i])
    }
}

/// An MD simulation coupled to a simulated Anton 3 machine.
pub struct MdNetworkRun {
    /// The network under test.
    pub machine: NetworkMachine,
    /// The MD substrate driving the traffic.
    pub sim: Simulation,
    decomp: Decomposition,
    atoms_per_node: Vec<u32>,
    /// Busy-span recording for Figure 12 (disabled by default).
    pub trace: ActivityTrace,
    channel_lanes: Vec<LaneId>,
    gc_lanes: Vec<LaneId>,
    ppim_lanes: Vec<LaneId>,
    clock: Ps,
}

impl MdNetworkRun {
    /// Builds an `atoms`-atom water box decomposed across `cfg`'s torus.
    pub fn new(cfg: MachineConfig, atoms: usize, seed: u64, traced: bool) -> Self {
        let sim = Simulation::water(atoms, seed);
        // Midpoint-method import: remote positions within half the cutoff.
        let decomp = Decomposition::new(cfg.torus, sim.system.box_len, sim.params.cutoff * 0.5);
        let machine = NetworkMachine::new(cfg);
        let mut trace = if traced {
            ActivityTrace::enabled()
        } else {
            ActivityTrace::disabled()
        };
        let mut channel_lanes = Vec::new();
        for node in cfg.torus.nodes() {
            for dir in anton_model::topology::Direction::ALL {
                channel_lanes.push(trace.register_lane(format!("ch {node} {dir}")));
            }
        }
        let gc_lanes = cfg
            .torus
            .nodes()
            .map(|n| trace.register_lane(format!("gc {n}")))
            .collect();
        let ppim_lanes = cfg
            .torus
            .nodes()
            .map(|n| trace.register_lane(format!("ppim {n}")))
            .collect();
        let mut run = MdNetworkRun {
            machine,
            sim,
            decomp,
            atoms_per_node: vec![0; cfg.node_count()],
            trace,
            channel_lanes,
            gc_lanes,
            ppim_lanes,
            clock: Ps::ZERO,
        };
        run.rebin_atoms();
        run
    }

    fn rebin_atoms(&mut self) {
        self.atoms_per_node.fill(0);
        for pos in &self.sim.system.pos {
            self.atoms_per_node[self.decomp.home_node(*pos).index()] += 1;
        }
    }

    fn channel_lane(&self, node: NodeId, dir: anton_model::topology::Direction) -> LaneId {
        self.channel_lanes[node.index() * 6 + dir.index()]
    }

    /// The current simulated wall-clock.
    pub fn clock(&self) -> Ps {
        self.clock
    }

    /// Atoms homed on each node.
    pub fn atoms_per_node(&self) -> &[u32] {
        &self.atoms_per_node
    }

    /// The spatial decomposition driving this run's traffic.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// An [`MdHaloWorkload`] shaped like this run's halo exchange, for
    /// replaying the same position-export / force-return traffic on the
    /// cycle-level torus fabric (`anton_traffic::sweep::run_scenario`):
    /// destination tables sampled from this decomposition's import
    /// regions, position packets typed [`ByteKind::Position`] out and
    /// force returns typed [`ByteKind::Force`] back, reconciling with
    /// this run's own [`LinkStats`] byte categories. The analytic run
    /// here times serialization in picoseconds; the replay exposes the
    /// same traffic to cycle-level contention — credits, arbitration,
    /// HOL blocking — that the formula model folds into constants.
    ///
    /// [`ByteKind::Position`]: anton_net::channel::ByteKind::Position
    /// [`ByteKind::Force`]: anton_net::channel::ByteKind::Force
    pub fn halo_workload(&self, samples_per_node: usize, seed: u64) -> MdHaloWorkload {
        MdHaloWorkload::from_decomposition(
            &self.decomp,
            samples_per_node,
            HALO_FLITS_PER_PACKET,
            seed,
        )
    }

    /// Analytic **loaded** step-time estimate of this run's halo
    /// exchange: the mean position-export and force-return latencies
    /// under an offered request load of `offered` flits/node/cycle,
    /// predicted by the machine shape's cycle-fabric-fitted
    /// [`LoadedCalibration`] (`UNIFORM_4X4X8` / `UNIFORM_8X8X8`) with
    /// the unloaded walk taken over **this decomposition's** mean route
    /// lengths — read from `workload`, the [`Self::halo_workload`]
    /// destination tables the cycle-level replay samples (requests ride
    /// torus-minimal routes, force returns mesh routes). Returns `None`
    /// for a machine shape with no shipped calibration, and when
    /// `offered` is at or past the calibration's saturation.
    pub fn loaded_halo_estimate(
        &self,
        offered: f64,
        workload: &MdHaloWorkload,
    ) -> Option<HaloStepEstimate> {
        let torus = self.machine.cfg.torus;
        let cal = LoadedCalibration::shipped_uniform(&torus)?;
        if offered >= cal.saturation {
            return None;
        }
        let (mut req_hops, mut resp_hops, mut pairs) = (0u64, 0u64, 0u64);
        for node in torus.nodes() {
            let home = torus.coord(node);
            for &dst in workload.destinations(node) {
                let there = torus.coord(dst);
                req_hops += torus.hop_distance(home, there) as u64;
                resp_hops += anton_net::routing::mesh_distance(there, home) as u64;
                pairs += 1;
            }
        }
        assert!(pairs > 0, "halo workload is never empty");
        let (req_hops, resp_hops) = (
            req_hops as f64 / pairs as f64,
            resp_hops as f64 / pairs as f64,
        );
        let params = FabricParams::calibrated(&self.machine.cfg.latency);
        let nflits = HALO_FLITS_PER_PACKET;
        let request_cycles =
            cal.predicted_mean_latency_cycles_for(&params, nflits, offered, req_hops);
        let response_cycles =
            cal.predicted_mean_latency_cycles_for(&params, nflits, offered, resp_hops);
        let round_cycles = request_cycles + FORCE_TURNAROUND_CYCLES as f64 + response_cycles;
        let barrier = barrier::barrier_latency(&self.machine.cfg, torus.diameter());
        let halo_round_trip = Ps::new((round_cycles * PS_PER_CORE_CYCLE as f64) as u64);
        Some(HaloStepEstimate {
            offered,
            calibration: cal,
            mean_request_hops: req_hops,
            mean_response_hops: resp_hops,
            request_cycles,
            response_cycles,
            halo_round_trip,
            step_floor: halo_round_trip + barrier,
        })
    }

    /// Runs one MD step through the network, returning its timing.
    /// Advances the MD state afterwards so the next step sees new
    /// positions.
    pub fn step(&mut self) -> StepTiming {
        let cfg = self.machine.cfg;
        let lat = cfg.latency;
        let torus = cfg.torus;
        let t0 = self.clock;
        let n_nodes = cfg.node_count();

        // On-chip constants (averages; the channels dominate this phase).
        let inject = lat.core_to_edge(asic::CORE_COLS as u32 / 2, 4);
        let turnaround = Cycles(FORCE_TURNAROUND_CYCLES).to_ps();

        let mut pos_phase_start = vec![Ps::new(u64::MAX); n_nodes];
        let mut last_pos_arrival = vec![t0; n_nodes];
        let mut last_force_arrival = vec![t0; n_nodes];
        let mut imports = vec![0u64; n_nodes];

        // Phase 1: export each atom's position along its multicast tree.
        let mut exports = Vec::new();
        for atom in 0..self.sim.system.n {
            let pos = self.sim.system.pos[atom];
            let targets = self.decomp.export_targets(pos);
            if targets.is_empty() {
                continue;
            }
            let home = torus.coord(self.decomp.home_node(pos));
            let tree = multicast_tree(&torus, home, &targets, DimOrder::ALL[atom % 6]);
            exports.push(Route::new(atom as u32, t0 + inject, tree));
        }
        self.send_routes(&mut exports, ACT_POSITION);

        // Phase 2a: each (atom, importing node) returns one stream-set
        // force home, along the one-destination tree from the importer.
        let mut returns = Vec::new();
        for r in &exports {
            let home = self.decomp.home_node(self.sim.system.pos[r.atom as usize]);
            let order = DimOrder::ALL[r.atom as usize % 6];
            for &(target, reach) in r.tree.destinations() {
                let arr = r.arrival(reach);
                let ni = target.index();
                imports[ni] += 1;
                last_pos_arrival[ni] = last_pos_arrival[ni].max(arr);
                pos_phase_start[ni] = pos_phase_start[ni].min(arr);
                let tree = multicast_tree(&torus, torus.coord(target), &[home], order);
                returns.push(Route::new(r.atom, arr + turnaround, tree));
            }
        }
        self.send_routes(&mut returns, ACT_FORCE);
        for r in &returns {
            for &(home, reach) in r.tree.destinations() {
                let hi = home.index();
                last_force_arrival[hi] = last_force_arrival[hi].max(r.arrival(reach));
            }
        }

        // GC-to-ICB fence after the last position on every channel: it
        // queues behind the data in the same serializers, so its arrival
        // is the proof that streaming input is complete (§V).
        let fence_sweep = barrier::fence_per_hop(&lat, cfg.inz_enabled)
            - lat.channel_crossing_fixed(cfg.inz_enabled);
        let mut fence_done = vec![t0; n_nodes];
        for node in torus.nodes() {
            for dir in anton_model::topology::Direction::ALL {
                let neighbor = torus.node_id(torus.neighbor(torus.coord(node), dir));
                for ca in 0..CAS_PER_NEIGHBOR {
                    let link = self.machine.link_mut(node, dir, ca);
                    let transit = link.send_marker(t0, PacketKind::Fence);
                    let ni = neighbor.index();
                    fence_done[ni] = fence_done[ni].max(transit.arrive + fence_sweep);
                }
            }
        }

        // Phase 2 timing: streaming and pairwise compute per node.
        let total_pairs = self.sim.forces.pair_count as f64;
        let total_atoms = self.sim.system.n as f64;
        let mut unload_done = vec![t0; n_nodes];
        for ni in 0..n_nodes {
            let local = self.atoms_per_node[ni] as f64;
            let streamed = local + imports[ni] as f64;
            let interactions = total_pairs * local / total_atoms;
            let compute_cycles = (streamed / STREAM_POSITIONS_PER_CYCLE)
                .max(interactions / PPIM_INTERACTIONS_PER_CYCLE);
            let compute = Ps::new((compute_cycles * PS_PER_CORE_CYCLE as f64) as u64);
            let stream_done = last_pos_arrival[ni].max(t0 + compute);
            // Stored-set force unload is gated by the fence.
            unload_done[ni] = stream_done.max(fence_done[ni]);
            let start = pos_phase_start[ni].min(t0 + inject);
            self.trace
                .record(self.ppim_lanes[ni], ACT_PPIM, start, unload_done[ni]);
        }

        // Phase 3: integration once all forces (stream-set from remotes,
        // stored-set after unload) are in.
        let mut step_end = t0;
        let mut app_extra = Ps::ZERO;
        for ni in 0..n_nodes {
            let forces_ready = last_force_arrival[ni].max(unload_done[ni]);
            let local = self.atoms_per_node[ni] as f64;
            let integ_cycles = local * INTEGRATION_CYCLES_PER_ATOM / asic::GCS_PER_ASIC as f64;
            let integ = Ps::new((integ_cycles * PS_PER_CORE_CYCLE as f64) as u64);
            let done = forces_ready + integ;
            self.trace
                .record(self.gc_lanes[ni], ACT_INTEGRATE, forces_ready, done);
            step_end = step_end.max(done);
            let other_cycles = OTHER_PHASE_FIXED_CYCLES + local * OTHER_PHASE_CYCLES_PER_ATOM;
            app_extra = app_extra.max(Ps::new((other_cycles * PS_PER_CORE_CYCLE as f64) as u64));
        }

        // End-of-step markers advance the particle-cache epochs, and a
        // global GC-to-GC fence closes the step.
        for node in torus.nodes() {
            for dir in anton_model::topology::Direction::ALL {
                for ca in 0..CAS_PER_NEIGHBOR {
                    self.machine
                        .link_mut(node, dir, ca)
                        .send_marker(step_end, PacketKind::EndOfStep);
                }
            }
        }
        let barrier = barrier::barrier_latency(&cfg, torus.diameter());
        let pairwise_step = step_end + barrier - t0;
        let timing = StepTiming {
            pairwise_step,
            app_step: pairwise_step + app_extra,
        };

        // Advance simulated time and the MD state.
        self.clock = step_end + barrier + app_extra;
        self.sim.step();
        self.rebin_atoms();
        timing
    }

    /// Sends every edge of `routes` through the channels, one half of
    /// the halo exchange: each edge carries its atom's position when
    /// `kind` is [`ACT_POSITION`] and its force when it is
    /// [`ACT_FORCE`], and each send is recorded as a `kind` span.
    ///
    /// Level `d` holds edge `d` of every route that has one, so a
    /// parent is always sent before its children; levels are edge
    /// indices, not tree depths, because moving a later edge to an
    /// earlier level would reorder the serializer FIFOs. Each level is
    /// stably sorted by (link, ready), so every link transmits in
    /// ready-time order and ties keep the route order, which `step`
    /// builds in atom order for both halves (the hardware CA arbitrates
    /// by arrival, not by atom index; one pass per route would insert
    /// idle bubbles). An edge is ready when its parent's packet arrives,
    /// relay included, or at its route's start for an edge leaving the
    /// source. It goes through Channel Adapter `atom % CAS_PER_NEIGHBOR`
    /// of its channel.
    fn send_routes(&mut self, routes: &mut [Route], kind: ActivityKind) {
        let torus = self.machine.cfg.torus;
        let relay = self.machine.cfg.latency.edge_hop.to_ps() * 3;
        for depth in 0.. {
            let mut level: Vec<(usize, Ps, u32, usize)> = Vec::new();
            for (ri, r) in routes.iter().enumerate() {
                if let Some(edge) = r.tree.edges().get(depth) {
                    let link = torus.node_id(edge.from).index() * 6 + edge.dir.index();
                    level.push((link, r.arrival(r.tree.parent(depth)), r.atom, ri));
                }
            }
            if level.is_empty() {
                return;
            }
            level.sort_by_key(|&(link, ready, _, _)| (link, ready));
            for (_, ready, atom, ri) in level {
                let edge = routes[ri].tree.edges()[depth];
                let from = torus.node_id(edge.from);
                let (a, sim) = (atom as usize, &self.sim);
                let link = self.machine.link_mut(from, edge.dir, a % CAS_PER_NEIGHBOR);
                let transit = if kind == ACT_POSITION {
                    let (pos, key) = (sim.system.pos[a], particle_static_field(atom));
                    let qpos = exported_position(pos, atom, sim.step_count, sim.params.dt);
                    link.send_position(ready, key, qpos).0
                } else {
                    link.send_force(ready, quantize_force(sim.forces.f[a]))
                };
                let ser_done = transit.arrive - link.crossing_fixed();
                let lane = self.channel_lane(from, edge.dir);
                self.trace.record(lane, kind, transit.depart, ser_done);
                routes[ri].arrive.push(transit.arrive + relay);
            }
        }
    }

    /// Runs `warmup` unmeasured steps (cache warm-up) then `measure`
    /// measured steps, returning aggregate results.
    pub fn run(&mut self, warmup: usize, measure: usize) -> MdRunResult {
        for _ in 0..warmup {
            self.step();
        }
        let stats_before = self.machine.total_stats();
        let mut pair_acc = Ps::ZERO;
        let mut app_acc = Ps::ZERO;
        for _ in 0..measure {
            let t = self.step();
            pair_acc += t.pairwise_step;
            app_acc += t.app_step;
        }
        let stats_after = self.machine.total_stats();
        self.machine.assert_pcaches_synchronized();
        let stats = stats_after.since(&stats_before);
        MdRunResult {
            atoms: self.sim.system.n,
            stats,
            mean_pairwise_step: pair_acc / measure as u64,
            mean_app_step: app_acc / measure as u64,
            pcache_hit_rate: self.machine.pcache_hit_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: MachineConfig, atoms: usize) -> MdRunResult {
        MdNetworkRun::new(cfg, atoms, 99, false).run(4, 3)
    }

    #[test]
    fn per_node_rates_follow_table1_and_the_core_rows() {
        let table1 = asic::anton3().pairwise_gops as f64 / asic::anton3().clock_ghz;
        assert!((table1 - PPIM_INTERACTIONS_PER_CYCLE).abs() < 1.0);
        assert_eq!((asic::CORE_ROWS * 2) as f64, STREAM_POSITIONS_PER_CYCLE);
    }

    #[test]
    fn compression_reduces_traffic() {
        let base = run(MachineConfig::torus([2, 2, 2]).without_compression(), 4000);
        let inz = run(MachineConfig::torus([2, 2, 2]).inz_only(), 4000);
        let full = run(MachineConfig::torus([2, 2, 2]), 4000);
        assert_eq!(
            base.stats.reduction(),
            0.0,
            "baseline must be the reference"
        );
        assert!(
            inz.stats.reduction() > 0.2,
            "INZ-only reduction {} too small",
            inz.stats.reduction()
        );
        assert!(
            full.stats.reduction() > inz.stats.reduction(),
            "pcache must add savings: {} vs {}",
            full.stats.reduction(),
            inz.stats.reduction()
        );
    }

    #[test]
    fn compression_speeds_up_steps() {
        let base = run(MachineConfig::torus([2, 2, 2]).without_compression(), 4000);
        let full = run(MachineConfig::torus([2, 2, 2]), 4000);
        assert!(
            full.mean_pairwise_step < base.mean_pairwise_step,
            "compressed step {} !< baseline {}",
            full.mean_pairwise_step,
            base.mean_pairwise_step
        );
    }

    #[test]
    fn pcache_hit_rate_warm() {
        let full = run(MachineConfig::torus([2, 2, 2]), 3000);
        let rate = full.pcache_hit_rate.unwrap();
        assert!(rate > 0.7, "warm hit rate {rate} too low");
    }

    #[test]
    fn traffic_balances_across_nodes() {
        let mut r = MdNetworkRun::new(MachineConfig::torus([2, 2, 2]), 4000, 5, false);
        r.run(1, 2);
        let per_node_atoms = r.atoms_per_node();
        let mean = 4000.0 / 8.0;
        for &a in per_node_atoms {
            assert!(
                (a as f64 - mean).abs() < mean * 0.35,
                "atom imbalance: {a} vs mean {mean}"
            );
        }
    }

    #[test]
    fn trace_records_channel_activity() {
        let mut r = MdNetworkRun::new(MachineConfig::torus([2, 2, 2]), 2500, 6, true);
        r.run(0, 2);
        let spans = r.trace.spans();
        assert!(!spans.is_empty());
        let has_pos = spans.iter().any(|s| s.kind == ACT_POSITION);
        let has_force = spans.iter().any(|s| s.kind == ACT_FORCE);
        let has_gc = spans.iter().any(|s| s.kind == ACT_INTEGRATE);
        assert!(has_pos && has_force && has_gc);
    }

    #[test]
    fn halo_workload_mirrors_the_decomposition() {
        let r = MdNetworkRun::new(MachineConfig::torus([2, 2, 2]), 3000, 3, false);
        let w = r.halo_workload(32, 5);
        let t = *r.decomposition().torus();
        let mut any = 0usize;
        for node in t.nodes() {
            for &d in w.destinations(node) {
                assert_ne!(d, node, "halo exports never target the home node");
                any += 1;
            }
        }
        assert!(any > 0, "a water box always has face atoms to export");
    }

    #[test]
    fn loaded_halo_estimate_consumes_the_shape_calibration() {
        // 4x4x8 uses UNIFORM_4X4X8; the halo's short routes keep the
        // loaded estimate convex in offered load and the mesh returns at
        // least as long as the torus-minimal exports.
        let r = MdNetworkRun::new(
            MachineConfig::torus([4, 4, 8]).without_compression(),
            20_000,
            11,
            false,
        );
        let cal = LoadedCalibration::UNIFORM_4X4X8;
        let halo = r.halo_workload(32, 5);
        let at = |offered: f64| r.loaded_halo_estimate(offered, &halo).unwrap();
        let (lo, mid, hi) = (at(0.05), at(0.15), at(0.25));
        assert_eq!(lo.calibration, cal, "shape selects its calibration");
        assert!(lo.mean_request_hops >= 1.0, "halo exports leave the node");
        assert!(
            lo.mean_response_hops >= lo.mean_request_hops - 1e-9,
            "mesh returns are never shorter than torus-minimal exports"
        );
        assert!(
            lo.halo_round_trip < lo.step_floor,
            "the closing barrier adds on top of the round trip"
        );
        assert!(
            lo.step_floor < mid.step_floor && mid.step_floor < hi.step_floor,
            "loaded estimate must grow with offered load"
        );
        assert!(
            hi.step_floor - mid.step_floor > mid.step_floor - lo.step_floor,
            "queueing growth must be convex"
        );
        // Past saturation the model honestly declines to answer.
        assert!(r.loaded_halo_estimate(cal.saturation, &halo).is_none());
        // So it does on a shape with no shipped calibration.
        let tiny = MdNetworkRun::new(MachineConfig::torus([2, 2, 2]), 3_000, 7, false);
        let e = tiny.loaded_halo_estimate(0.1, &tiny.halo_workload(16, 5));
        assert!(e.is_none(), "2x2x2 has no shipped fit");
    }

    #[test]
    fn machine_scale_estimate_uses_the_8x8x8_constants() {
        let r = MdNetworkRun::new(
            MachineConfig::torus([8, 8, 8]).without_compression(),
            30_000,
            13,
            false,
        );
        let e = r
            .loaded_halo_estimate(0.1, &r.halo_workload(16, 3))
            .unwrap();
        assert_eq!(e.calibration, LoadedCalibration::UNIFORM_8X8X8);
        // The halo exchange is near-neighbor: its routes are far shorter
        // than uniform-random's ~6-hop mean, so the per-decomposition
        // baseline must undercut the pattern-calibrated one.
        assert!(
            e.mean_request_hops < LoadedCalibration::UNIFORM_8X8X8.mean_hops,
            "halo routes ({}) should undercut uniform mean hops",
            e.mean_request_hops
        );
        assert!(e.step_floor > e.halo_round_trip);
    }

    #[test]
    fn a_step_sends_every_route_edge_once() {
        for cfg in [
            MachineConfig::torus([2, 2, 2]),
            MachineConfig::torus([2, 2, 2]).without_compression(),
        ] {
            let mut r = MdNetworkRun::new(cfg, 3000, 7, false);
            let torus = cfg.torus;
            // Tree edges out and one path back per (atom, importer),
            // counted from the positions the step exports.
            let mut edges = 0u64;
            for (atom, &pos) in r.sim.system.pos.iter().enumerate() {
                let targets = r.decomp.export_targets(pos);
                let home = torus.coord(r.decomp.home_node(pos));
                let tree = multicast_tree(&torus, home, &targets, DimOrder::ALL[atom % 6]);
                edges += tree.edges().len() as u64;
                for &t in &targets {
                    edges += torus.hop_distance(torus.coord(t), home) as u64;
                }
            }
            // A fence and an end-of-step marker on every CA link.
            let markers = 2 * (cfg.node_count() * 6 * CAS_PER_NEIGHBOR) as u64;
            assert!(edges > markers, "the halo exchange dominates the packets");
            r.step();
            assert_eq!(r.machine.total_stats().packets, edges + markers);
        }
    }

    #[test]
    fn step_times_are_stable() {
        let mut r = MdNetworkRun::new(MachineConfig::torus([2, 2, 2]), 3000, 7, false);
        let a = r.step();
        let b = r.step();
        let ratio = a.pairwise_step.as_ns() / b.pairwise_step.as_ns();
        assert!(
            (0.5..2.0).contains(&ratio),
            "step jitter too large: {ratio}"
        );
    }
}
