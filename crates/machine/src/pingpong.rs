//! The ping-pong latency experiment — paper §III-C, Figures 5 and 6.
//!
//! Software on GC A sends a 16-byte counted write to memory of GC B on a
//! remote ASIC; B blocking-reads it and writes back; one-way latency is
//! half the round trip. The paper averages over all GC pairs a given
//! number of torus hops apart on a 128-node (4×4×8) machine, fitting
//! 55.9 ns + 34.2 ns/hop, with the 0-hop (intra-node) case cheaper
//! because it skips the Edge Network and channels.
//!
//! The Figure 5 numbers are *unloaded*. [`LoadedCalibration`] extends
//! the same analytic machinery under load: a queueing correction
//! ([`anton_net::path::ContentionModel`]) fitted against the
//! cycle-level fabric driven by `anton-traffic` sweeps, so the formula
//! model tracks the loaded mean latency up to ~80% of saturation.

use anton_model::topology::Torus;
use anton_model::units::Ps;
use anton_model::MachineConfig;
use anton_net::adapter::Compression;
use anton_net::chip::ChipLoc;
use anton_net::fabric3d::FabricParams;
use anton_net::path::{self, ContentionModel, PathBreakdown};
use anton_net::routing;
use anton_sim::rng::SplitMix64;
use anton_sim::stats::{linear_fit, Accumulator, LinearFit};
use serde::Serialize;

/// Payload of the ping-pong counted write: 16 bytes = one quad.
pub const PING_PAYLOAD_WORDS: usize = 4;

/// Measured latency statistics for one hop count (one Figure 5 point).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig5Row {
    /// Inter-node hop count.
    pub hops: u32,
    /// Mean one-way latency over sampled GC pairs, ns.
    pub mean_ns: f64,
    /// Fastest sampled pair, ns.
    pub min_ns: f64,
    /// Slowest sampled pair, ns.
    pub max_ns: f64,
    /// Number of GC pairs sampled.
    pub samples: u64,
}

/// The full Figure 5 result: per-hop rows plus the linear fit over the
/// multi-hop points.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Result {
    /// One row per hop count, 0..=max.
    pub rows: Vec<Fig5Row>,
    /// Fit intercept over hops >= 1, ns (paper: 55.9).
    pub fixed_ns: f64,
    /// Fit slope, ns/hop (paper: 34.2).
    pub per_hop_ns: f64,
    /// Fit quality.
    pub r2: f64,
}

fn compression_of(cfg: &MachineConfig) -> Compression {
    Compression {
        inz: cfg.inz_enabled,
        pcache: cfg.pcache_enabled,
    }
}

/// Measures the average one-way latency for GC pairs exactly `hops` apart,
/// sampling `samples` random pairs (random endpoints, random route draws —
/// mirroring the paper's all-pairs average).
pub fn one_way_latency(cfg: &MachineConfig, hops: u32, samples: u32, seed: u64) -> Fig5Row {
    let torus = cfg.torus;
    let comp = compression_of(cfg);
    let mut rng = SplitMix64::new(seed);
    // Enumerate node pairs at this distance once.
    let mut node_pairs = Vec::new();
    for a in torus.nodes() {
        for b in torus.nodes() {
            if torus.hop_distance(torus.coord(a), torus.coord(b)) == hops {
                node_pairs.push((a, b));
            }
        }
    }
    assert!(
        !node_pairs.is_empty(),
        "no node pairs at distance {hops} in {torus}",
        torus = torus
    );
    let mut acc = Accumulator::new();
    for _ in 0..samples {
        let &(na, nb) = rng.choose(&node_pairs);
        let src = ChipLoc::gc_from_index(rng.next_below(576) as usize);
        let dst = ChipLoc::gc_from_index(rng.next_below(576) as usize);
        let (ca, cb) = (torus.coord(na), torus.coord(nb));
        // Ping and pong each draw an independent oblivious route.
        let ping = routing::plan_request(&torus, ca, cb, &mut rng);
        let pong = routing::plan_request(&torus, cb, ca, &mut rng);
        let t_ping = path::one_way(&cfg.latency, comp, src, dst, &ping, PING_PAYLOAD_WORDS).total();
        let t_pong = path::one_way(&cfg.latency, comp, dst, src, &pong, PING_PAYLOAD_WORDS).total();
        // One-way latency as the paper computes it: half the round trip.
        acc.add(((t_ping + t_pong) / 2).as_ns());
    }
    Fig5Row {
        hops,
        mean_ns: acc.mean(),
        min_ns: acc.min().unwrap(),
        max_ns: acc.max().unwrap(),
        samples: acc.count(),
    }
}

/// Runs the full Figure 5 sweep on `cfg` (canonically 4×4×8) and fits the
/// multi-hop points.
pub fn fig5(cfg: &MachineConfig, samples_per_hop: u32, seed: u64) -> Fig5Result {
    let max_hops = cfg.torus.diameter();
    let rows: Vec<Fig5Row> = (0..=max_hops)
        .map(|h| one_way_latency(cfg, h, samples_per_hop, seed ^ (h as u64) << 32))
        .collect();
    let points: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.hops >= 1)
        .map(|r| (r.hops as f64, r.mean_ns))
        .collect();
    let LinearFit {
        intercept,
        slope,
        r2,
    } = linear_fit(&points);
    Fig5Result {
        rows,
        fixed_ns: intercept,
        per_hop_ns: slope,
        r2,
    }
}

/// The Figure 6 experiment: the minimum-latency single-hop configuration
/// (GCs adjacent to the chip edge, aligned with their CA rows), returning
/// the per-component breakdown.
pub fn fig6_breakdown(cfg: &MachineConfig) -> PathBreakdown {
    let torus = cfg.torus;
    let a = torus.coord(anton_model::topology::NodeId(0));
    // The +x neighbor.
    let b = torus.neighbor(
        a,
        anton_model::topology::Direction::new(anton_model::topology::Dim::X, true),
    );
    let plan =
        routing::plan_request_fixed(&torus, a, b, anton_model::topology::DimOrder::XYZ, 0, 0);
    let src = path::best_case_gc(anton_model::asic::Side::Left, 0);
    let dst = path::best_case_gc(anton_model::asic::Side::Left, 1);
    path::one_way(
        &cfg.latency,
        compression_of(cfg),
        src,
        dst,
        &plan,
        PING_PAYLOAD_WORDS,
    )
}

/// The paper's headline number: minimum one-way inter-node latency.
pub fn min_inter_node_latency(cfg: &MachineConfig) -> Ps {
    fig6_breakdown(cfg).total()
}

/// The exact mean torus-minimal hop distance of uniform random traffic
/// on `torus` (over ordered pairs with distinct endpoints — the sweep
/// patterns never self-address).
pub fn mean_uniform_hops(torus: &Torus) -> f64 {
    let (mut sum, mut pairs) = (0u64, 0u64);
    for a in torus.nodes() {
        for b in torus.nodes() {
            if a != b {
                sum += torus.hop_distance(torus.coord(a), torus.coord(b)) as u64;
                pairs += 1;
            }
        }
    }
    assert!(pairs > 0, "torus needs at least two nodes");
    sum as f64 / pairs as f64
}

/// A loaded-latency calibration of the analytic model against the cycle
/// fabric for one (topology, pattern) pair: the measured saturation
/// throughput, the fitted contention coefficient, and the pattern's
/// mean route length (the pattern-dependent part of the unloaded
/// baseline).
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct LoadedCalibration {
    /// Request-class saturation throughput, flits per node per cycle
    /// (the sweep's knee).
    pub saturation: f64,
    /// Fitted queueing coefficient (see
    /// [`anton_net::path::ContentionModel`]).
    pub alpha_cycles: f64,
    /// Mean torus-minimal hop count of the calibrated pattern on the
    /// calibrated shape (uniform random: [`mean_uniform_hops`];
    /// nearest-neighbor halo: exactly 1).
    pub mean_hops: f64,
}

impl LoadedCalibration {
    /// The shipped calibration for uniform random request traffic on the
    /// paper's 128-node 4×4×8 machine, fitted with
    /// `sweep_traffic --calibrate` (which reprints these constants from
    /// the cycle fabric; the companion regression test pins them).
    /// `mean_hops` is the exact closed form `4 · 128/127` over non-self
    /// ordered pairs.
    pub const UNIFORM_4X4X8: LoadedCalibration = LoadedCalibration {
        saturation: 0.557,
        alpha_cycles: 2.56,
        mean_hops: 512.0 / 127.0,
    };

    /// The shipped calibration for the nearest-neighbor halo pattern
    /// (the MD import-region shape: every packet goes one hop) on the
    /// same 4×4×8 machine, from the same `--calibrate` harness run
    /// through the `Scenario` driver. One-hop traffic leaves the Z-ring
    /// bottleneck untouched, so it saturates near the per-node ejection
    /// limit and queues almost entirely at the endpoints — a much
    /// smaller contention coefficient than uniform random.
    pub const NEAREST_NEIGHBOR_4X4X8: LoadedCalibration = LoadedCalibration {
        saturation: 0.642,
        alpha_cycles: 1.26,
        mean_hops: 1.0,
    };

    /// The shipped calibration for uniform random request traffic on the
    /// 512-node 8x8x8 machine — the CI overload shape, fitted with the
    /// same `sweep_traffic --calibrate` harness on
    /// `SweepConfig::calibration_8x8x8` (the event-driven fabric core is
    /// what makes the 512-node fit routine). All three dimensions are
    /// now 8-rings, so every axis carries the bisection load the 4×4×8
    /// machine only saw on Z: saturation dips to 0.526 from 0.555 and
    /// the queueing coefficient grows with the ~6-hop mean routes
    /// (3.55 vs 2.56 cycles). `mean_hops` is the exact closed form
    /// `6 · 512/511` over non-self ordered pairs.
    pub const UNIFORM_8X8X8: LoadedCalibration = LoadedCalibration {
        saturation: 0.526,
        alpha_cycles: 3.55,
        mean_hops: 3072.0 / 511.0,
    };

    /// Every shipped uniform-random fit, keyed by the extents of the
    /// machine it was measured on.
    const SHIPPED_UNIFORM: [([u8; 3], LoadedCalibration); 2] = [
        ([4, 4, 8], Self::UNIFORM_4X4X8),
        ([8, 8, 8], Self::UNIFORM_8X8X8),
    ];

    /// The shipped uniform-random calibration measured on `torus`'s
    /// shape, extents compared in order, or `None` when no shipped fit
    /// was measured on it.
    pub fn shipped_uniform(torus: &Torus) -> Option<LoadedCalibration> {
        Self::SHIPPED_UNIFORM
            .iter()
            .find(|(dims, _)| *dims == torus.dims())
            .map(|&(_, cal)| cal)
    }

    /// The contention model of this calibration.
    pub fn contention(&self) -> ContentionModel {
        ContentionModel {
            alpha_cycles: self.alpha_cycles,
        }
    }

    /// The load fraction `rho` of an offered request load under this
    /// calibration.
    pub fn rho(&self, offered: f64) -> f64 {
        offered / self.saturation
    }

    /// Predicted mean generation-to-delivery latency, in core cycles,
    /// of `nflits`-flit request packets of the calibrated pattern under
    /// `offered` flits/node/cycle: the unloaded fabric constants (router
    /// pipeline, the calibration's mean-hop walk, tail-flit slice
    /// serialization) plus the fitted contention term.
    ///
    /// # Panics
    /// Panics if `offered` reaches the calibrated saturation — mean
    /// latency is unbounded there.
    pub fn predicted_mean_latency_cycles(
        &self,
        params: &FabricParams,
        nflits: u8,
        offered: f64,
    ) -> f64 {
        self.predicted_mean_latency_cycles_for(params, nflits, offered, self.mean_hops)
    }

    /// [`Self::predicted_mean_latency_cycles`] with the unloaded walk
    /// taken over a caller-supplied mean hop count instead of the
    /// calibrated pattern's: per-decomposition estimates (an MD halo
    /// exchange whose import-region shape sets its own route lengths)
    /// reuse the shape's fitted saturation and contention while the
    /// unloaded baseline follows the actual traffic.
    pub fn predicted_mean_latency_cycles_for(
        &self,
        params: &FabricParams,
        nflits: u8,
        offered: f64,
        mean_hops: f64,
    ) -> f64 {
        params.unloaded_mean_cycles(mean_hops, nflits)
            + self.contention().extra_cycles(self.rho(offered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_128() -> MachineConfig {
        MachineConfig::torus([4, 4, 8]).without_compression()
    }

    #[test]
    fn fig5_fit_matches_paper_shape() {
        let r = fig5(&machine_128(), 120, 42);
        assert_eq!(r.rows.len(), 9, "hops 0..=8 on a 4x4x8");
        assert!(
            (30.0..40.0).contains(&r.per_hop_ns),
            "per-hop {} ns vs paper 34.2",
            r.per_hop_ns
        );
        assert!(
            (44.0..62.0).contains(&r.fixed_ns),
            "fixed overhead {} ns vs paper 55.9",
            r.fixed_ns
        );
        assert!(
            r.r2 > 0.99,
            "latency must be essentially linear, r2 = {}",
            r.r2
        );
    }

    #[test]
    fn zero_hop_undercuts_fit() {
        let r = fig5(&machine_128(), 120, 43);
        let predicted_0 = r.fixed_ns; // fit extrapolated to 0 hops
        assert!(
            r.rows[0].mean_ns < predicted_0,
            "0-hop mean {} should undercut the fit intercept {}",
            r.rows[0].mean_ns,
            predicted_0
        );
    }

    #[test]
    fn min_latency_near_55ns() {
        let t = min_inter_node_latency(&machine_128());
        assert!(
            (50.0..61.0).contains(&t.as_ns()),
            "minimum one-way latency {} ns vs paper's 55 ns",
            t.as_ns()
        );
    }

    #[test]
    fn breakdown_is_dominated_by_serdes_and_wire() {
        let b = fig6_breakdown(&machine_128());
        let serdes = b.component("SERDES") + b.component("Wire");
        assert!(
            serdes.as_ns() / b.total().as_ns() > 0.4,
            "off-chip signalling should dominate the minimum breakdown"
        );
    }

    #[test]
    fn latency_grows_monotonically_with_hops() {
        let cfg = machine_128();
        let mut last = 0.0;
        for h in 0..=4 {
            let row = one_way_latency(&cfg, h, 60, 7);
            assert!(row.mean_ns > last, "hop {h}: {} !> {last}", row.mean_ns);
            last = row.mean_ns;
        }
    }

    #[test]
    fn min_max_bracket_mean() {
        let row = one_way_latency(&machine_128(), 2, 100, 9);
        assert!(row.min_ns <= row.mean_ns && row.mean_ns <= row.max_ns);
        assert_eq!(row.samples, 100);
    }

    #[test]
    fn uniform_hops_on_4x4x8_is_four_over_nonself_pairs() {
        // Per-ring mean distances over all pairs (self included) are 1,
        // 1, and 2; excluding the 128 self pairs rescales by N/(N-1).
        let h = mean_uniform_hops(&Torus::new([4, 4, 8]));
        let exact = 4.0 * 128.0 / 127.0;
        assert!((h - exact).abs() < 1e-12, "mean hops {h} vs {exact}");
    }

    #[test]
    fn loaded_prediction_grows_convexly_toward_saturation() {
        let cal = LoadedCalibration::UNIFORM_4X4X8;
        let params = FabricParams::default();
        let at = |rho: f64| cal.predicted_mean_latency_cycles(&params, 2, rho * cal.saturation);
        let (l2, l4, l6) = (at(0.2), at(0.4), at(0.6));
        assert!(l2 < l4 && l4 < l6, "latency must grow with load");
        assert!(l6 - l4 > l4 - l2, "queueing growth must be convex");
        // At zero load the prediction is the unloaded constant: router
        // pipeline + mean hops x per-hop + tail serialization. Spelled
        // out independently here to pin FabricParams::unloaded_mean_cycles.
        let unloaded = at(0.0);
        let expect = params.router_cycles as f64
            + mean_uniform_hops(&Torus::new([4, 4, 8])) * params.per_hop_cycles() as f64
            + params.link_interval as f64;
        assert!((unloaded - expect).abs() < 1e-9);
    }

    #[test]
    fn shipped_calibrations_carry_their_patterns_mean_hops() {
        // The uniform constant is the exact closed form over non-self
        // ordered pairs; the nearest-neighbor halo is one hop by
        // construction, and its calibration reflects the endpoint-bound
        // regime: higher saturation, smaller contention coefficient.
        let uni = LoadedCalibration::UNIFORM_4X4X8;
        assert!((uni.mean_hops - mean_uniform_hops(&Torus::new([4, 4, 8]))).abs() < 1e-12);
        let shipped = |dims| LoadedCalibration::shipped_uniform(&Torus::new(dims));
        assert_eq!(shipped([4, 4, 8]), Some(uni));
        assert_eq!(shipped([8, 4, 4]), None, "extents are compared in order");
        let nn = LoadedCalibration::NEAREST_NEIGHBOR_4X4X8;
        assert_eq!(nn.mean_hops, 1.0);
        assert!(
            nn.saturation > uni.saturation,
            "one-hop traffic saturates later"
        );
        assert!(
            nn.alpha_cycles < uni.alpha_cycles,
            "and queues less per rho"
        );
    }
}
