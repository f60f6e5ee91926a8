//! Loaded-latency regression pins on the cycle fabric, the only model of
//! loaded latency here (the paper reports latency unloaded): seven
//! seeded request-only points, uniform random and nearest-neighbor on
//! the paper's 128-node 4x4x8 machine and uniform random on the 512-node
//! 8x8x8 one, each checked exactly against a literal table, one test per
//! (pattern, machine). A change to the fabric's loaded timing or to a
//! pattern's draws that moves any entry, however slightly, fails its
//! test; a change meant to move them updates the table and says so. The
//! three loaded tests keep the names they had when they compared a
//! fitted formula with the same points within 2% or 4%; that formula is
//! gone, and they now compare the fabric with its own pinned outputs.
//! The unloaded per-hop latency must still match the analytic 34.27 ns
//! constant within 1%.

use anton3::model::latency::LatencyModel;
use anton3::net::fabric3d::FabricParams;
use anton3::traffic::patterns::{NearestNeighbor, TrafficPattern, UniformRandom};
use anton3::traffic::sweep::{run_point, SweepConfig};

/// The loaded workload on the paper's 128-node 4×4×8 machine: uniform
/// random (or any pattern's) requests with no responses, and an empty
/// load axis for the caller to fill.
fn calibration_4x4x8() -> SweepConfig {
    SweepConfig {
        dims: [4, 4, 8],
        flits_per_packet: 2,
        warmup_cycles: 1_500,
        measure_cycles: 3_000,
        drain_cycles: 30_000,
        seed: 0xCA11B,
        loads: vec![],
        respond: false,
        shards: 1,
        lookahead: None,
    }
}

/// The same workload on the 512-node 8x8x8 machine (the CI overload
/// shape), with windows short enough for a debug test build.
fn calibration_8x8x8() -> SweepConfig {
    SweepConfig {
        dims: [8, 8, 8],
        warmup_cycles: 1_000,
        measure_cycles: 2_000,
        ..calibration_4x4x8()
    }
}

/// What one pinned point must measure on the request class, each f64
/// written as `{:?}` prints it so it round-trips exactly.
#[derive(PartialEq, Debug)]
struct Pinned {
    packets_measured: u64,
    mean_latency_cycles: f64,
    p99_latency_cycles: f64,
    delivered: f64,
}

/// Runs `pattern` on `cfg` at each row's offered load (flits/node/cycle)
/// and RNG stream, and checks its request class exactly against the
/// row's pinned values. Every row is below saturation, so each must
/// drain and must not report saturation.
fn assert_pinned(pattern: &dyn TrafficPattern, cfg: &SweepConfig, rows: &[(f64, u64, Pinned)]) {
    let params = FabricParams::calibrated(&LatencyModel::default());
    for (offered, stream, pinned) in rows {
        let at = format!("{} {:?} stream {stream}", pattern.name(), cfg.dims);
        let point = run_point(pattern, cfg, params, *offered, *stream);
        assert_eq!(
            point.request.packets_incomplete, 0,
            "{at}: offered {offered} is below saturation and must drain"
        );
        assert!(!point.saturated, "{at}: must not report saturation");
        let r = &point.request;
        let measured = Pinned {
            packets_measured: r.packets_measured,
            mean_latency_cycles: r.mean_latency_cycles,
            p99_latency_cycles: r.p99_latency_cycles,
            delivered: r.delivered,
        };
        assert_eq!(&measured, pinned, "{at}");
    }
}

/// Uniform random on 4x4x8 at 0.2, 0.4 and 0.6 of its request
/// saturation (0.557), streams 100-102.
#[test]
fn analytic_loaded_latency_tracks_cycle_fabric() {
    assert_pinned(
        &UniformRandom,
        &calibration_4x4x8(),
        &[
            (
                0.2 * 0.557,
                100,
                Pinned {
                    packets_measured: 21_564,
                    mean_latency_cycles: 405.20951585976627,
                    p99_latency_cycles: 703.0,
                    delivered: 0.11202083333333333,
                },
            ),
            (
                0.4 * 0.557,
                101,
                Pinned {
                    packets_measured: 42_768,
                    mean_latency_cycles: 406.9643191170969,
                    p99_latency_cycles: 703.0,
                    delivered: 0.22257291666666668,
                },
            ),
            (
                0.6 * 0.557,
                102,
                Pinned {
                    packets_measured: 64_048,
                    mean_latency_cycles: 408.6886085435923,
                    p99_latency_cycles: 719.0,
                    delivered: 0.33405729166666664,
                },
            ),
        ],
    );
}

/// Nearest-neighbor on 4x4x8 at 0.2, 0.4 and 0.6 of its request
/// saturation (0.642), streams 200-202.
#[test]
fn nearest_neighbor_calibration_tracks_cycle_fabric() {
    assert_pinned(
        &NearestNeighbor,
        &calibration_4x4x8(),
        &[
            (
                0.2 * 0.642,
                200,
                Pinned {
                    packets_measured: 24_575,
                    mean_latency_cycles: 114.27373346897254,
                    p99_latency_cycles: 117.0,
                    delivered: 0.12787760416666666,
                },
            ),
            (
                0.4 * 0.642,
                201,
                Pinned {
                    packets_measured: 49_174,
                    mean_latency_cycles: 114.7357546671005,
                    p99_latency_cycles: 121.0,
                    delivered: 0.2564635416666667,
                },
            ),
            (
                0.6 * 0.642,
                202,
                Pinned {
                    packets_measured: 73_831,
                    mean_latency_cycles: 115.83202177946933,
                    p99_latency_cycles: 127.0,
                    delivered: 0.384375,
                },
            ),
        ],
    );
}

/// Uniform random on 8x8x8 at 0.4 of its request saturation (0.526),
/// stream 300.
#[test]
fn machine_scale_8x8x8_calibration_tracks_cycle_fabric() {
    assert_pinned(
        &UniformRandom,
        &calibration_8x8x8(),
        &[(
            0.4 * 0.526,
            300,
            Pinned {
                packets_measured: 107_816,
                mean_latency_cycles: 597.7134748089337,
                p99_latency_cycles: 1087.0,
                delivered: 0.2110205078125,
            },
        )],
    );
}

#[test]
fn unloaded_per_hop_still_matches_analytic_within_one_percent() {
    let params = FabricParams::calibrated(&LatencyModel::default());
    let cfg = calibration_4x4x8();
    let point = run_point(&UniformRandom, &cfg, params, 0.02, 99);
    assert!(point.request.packets_measured > 100, "need enough samples");
    let analytic = params.per_hop_time().as_ns();
    let rel = (point.measured_per_hop_ns - analytic).abs() / analytic;
    assert!(
        rel < 0.01,
        "unloaded per-hop {:.2} ns vs analytic {analytic:.2} ns ({:.2}% off)",
        point.measured_per_hop_ns,
        rel * 100.0
    );
}
