//! Integration: end-to-end latency across the full machine model
//! reproduces the paper's §III-C measurements.

use anton3::machine::pingpong;
use anton3::model::units::Ps;
use anton3::model::MachineConfig;
use anton3::net::adapter::Compression;
use anton3::net::chip::ChipLoc;
use anton3::net::{path, routing};
use anton3::sim::rng::SplitMix64;

fn cfg128() -> MachineConfig {
    MachineConfig::torus([4, 4, 8]).without_compression()
}

#[test]
fn fig5_shape_full_sweep() {
    let r = pingpong::fig5(&cfg128(), 200, 99);
    // Paper: 55.9 + 34.2/hop. Slope must land tight; the intercept of our
    // reconstruction sits lower (`fig5_latency` prints 46.7 ns, 16% under
    // the paper's) but within 25%.
    assert!(
        (32.0..38.0).contains(&r.per_hop_ns),
        "slope {}",
        r.per_hop_ns
    );
    assert!(
        (42.0..62.0).contains(&r.fixed_ns),
        "intercept {}",
        r.fixed_ns
    );
    assert!(r.r2 > 0.999);
    // 0-hop undercuts the fit (the paper's note on Figure 5).
    assert!(r.rows[0].mean_ns < r.fixed_ns);
    // Monotone growth.
    for w in r.rows.windows(2) {
        assert!(w[1].mean_ns > w[0].mean_ns);
    }
}

#[test]
fn minimum_latency_beats_commodity_networks() {
    // Paper §III-C: InfiniBand ~1 us, Tofu-D ~490 ns; Anton 3 ~55 ns.
    let min = pingpong::min_inter_node_latency(&cfg128());
    assert!(min < Ps::from_ns(60.0));
    assert!(min > Ps::from_ns(45.0));
    let tofu_min = Ps::from_ns(490.0);
    assert!(
        tofu_min.as_ns() / min.as_ns() > 8.0,
        "should be ~9x faster than Tofu-D"
    );
}

#[test]
fn latency_averages_are_reproducible() {
    let a = pingpong::one_way_latency(&cfg128(), 3, 150, 7);
    let b = pingpong::one_way_latency(&cfg128(), 3, 150, 7);
    assert_eq!(
        a.mean_ns, b.mean_ns,
        "same seed must give identical results"
    );
}

#[test]
fn response_paths_are_longer_or_equal_on_average() {
    // Responses are restricted to the XYZ mesh (no wraparound), so their
    // routes can exceed the torus-minimal distance.
    let cfg = cfg128();
    let torus = cfg.torus;
    let mut rng = SplitMix64::new(3);
    let comp = Compression::NONE;
    let mut req_total = 0.0;
    let mut resp_total = 0.0;
    let n = 200;
    for i in 0..n {
        let a = torus.coord(anton3::model::topology::NodeId(i % 128));
        let b = torus.coord(anton3::model::topology::NodeId((i * 53 + 17) % 128));
        let src = ChipLoc::gc(3, 3, 0);
        let dst = ChipLoc::gc(9, 9, 0);
        let req = routing::plan_request(&torus, a, b, &mut rng);
        let resp = routing::plan_response(&torus, a, b, &mut rng);
        req_total += path::one_way(&cfg.latency, comp, src, dst, &req, 4)
            .total()
            .as_ns();
        resp_total += path::one_way(&cfg.latency, comp, src, dst, &resp, 4)
            .total()
            .as_ns();
    }
    assert!(
        resp_total >= req_total,
        "mesh-restricted responses cannot beat torus-minimal requests: {resp_total} vs {req_total}"
    );
}

#[test]
fn compression_latency_cost_is_negligible() {
    // §IV: the pcache/INZ pipelines add a few cycles — tiny next to the
    // 34 ns per-hop cost (which is the point of doing compression at all).
    let base = MachineConfig::torus([4, 4, 8]).without_compression();
    let full = MachineConfig::torus([4, 4, 8]);
    let r_base = pingpong::one_way_latency(&base, 1, 100, 5);
    let r_full = pingpong::one_way_latency(&full, 1, 100, 5);
    let delta = r_full.mean_ns - r_base.mean_ns;
    assert!(
        (0.0..4.0).contains(&delta),
        "compression adds {delta} ns to 1-hop latency"
    );
}

#[test]
fn breakdown_sums_and_dominant_terms() {
    let b = pingpong::fig6_breakdown(&cfg128());
    let total: f64 = b.segments.iter().map(|s| s.time.as_ns()).sum();
    assert!((total - b.total().as_ns()).abs() < 1e-9);
    // Off-chip electrical path dominates the minimum-latency breakdown.
    let electrical = b.component("SERDES") + b.component("Wire") + b.component("Serialization");
    assert!(electrical.as_ns() > 0.45 * total);
    // On-chip network is small but present.
    assert!(b.component("Edge Network").as_ns() > 0.0);
}
