//! The ping-pong latency experiment — paper §III-C, Figures 5 and 6.
//!
//! Software on GC A sends a 16-byte counted write to memory of GC B on a
//! remote ASIC; B blocking-reads it and writes back; one-way latency is
//! half the round trip. The paper averages over all GC pairs a given
//! number of torus hops apart on a 128-node (4×4×8) machine, fitting
//! 55.9 ns + 34.2 ns/hop, with the 0-hop (intra-node) case cheaper
//! because it skips the Edge Network and channels.
//!
//! The Figure 5 numbers are *unloaded*, as the paper's are. Loaded
//! latency comes from the cycle fabric alone (`anton_net::fabric3d`,
//! driven by `anton-traffic` sweeps).

use anton_model::units::Ps;
use anton_model::MachineConfig;
use anton_net::adapter::Compression;
use anton_net::chip::ChipLoc;
use anton_net::path::{self, PathBreakdown};
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
}
