//! Integration: the §IV compression stack — INZ and the particle cache —
//! under realistic MD traffic, with the paper's measurement methodology.
//! Framing is charged as a rate when bytes serialize, and the channel's
//! unit tests pin it.

use anton3::compress::inz;
use anton3::compress::pcache::{ChannelPcache, ParticleKey, PositionWire};
use anton3::machine::mdrun::MdNetworkRun;
use anton3::md::integrate::Simulation;
use anton3::md::units::{exported_position, quantize_force};
use anton3::model::MachineConfig;

#[test]
fn md_forces_inz_compress_like_the_paper_expects() {
    // Actual force values from an equilibrated water box must shed bytes
    // under INZ — they are the "small absolute values" of §IV-A.
    let mut sim = Simulation::water(500, 3);
    sim.run(5);
    let mut raw = 0usize;
    let mut encoded = 0usize;
    for f in &sim.forces.f {
        let q = quantize_force(*f);
        let words = [q[0] as u32, q[1] as u32, q[2] as u32];
        raw += 12;
        encoded += inz::encode(&words).payload_len();
    }
    let ratio = encoded as f64 / raw as f64;
    assert!(
        (0.3..0.75).contains(&ratio),
        "force payloads compress to {ratio:.2} of raw"
    );
}

#[test]
fn md_positions_through_a_channel_are_lossless_and_warm() {
    // Stream a real trajectory through one channel-cache pair.
    let mut sim = Simulation::water(300, 4);
    sim.run(3);
    let mut ch = ChannelPcache::default();
    let mut hits = 0;
    let mut lookups = 0;
    for step in 0..6u64 {
        for atom in 0..50u32 {
            let q = exported_position(sim.system.pos[atom as usize], atom, step, 2.5);
            let key = ParticleKey(atom as u64);
            let wire = ch.transmit(key, q);
            if matches!(wire, PositionWire::Compressed { .. }) {
                hits += 1;
            }
            lookups += 1;
            let (rk, rq) = ch.receive(wire);
            assert_eq!((rk, rq), (key, q), "lossless reconstruction");
        }
        ch.end_of_step();
        sim.step();
    }
    ch.assert_synchronized();
    let rate = hits as f64 / lookups as f64;
    assert!(rate > 0.8, "warm trajectory hit rate {rate}");
}

#[test]
fn full_run_keeps_every_cache_pair_synchronized() {
    let mut run = MdNetworkRun::new(MachineConfig::torus([2, 2, 2]), 4000, 11, false);
    run.run(2, 3);
    run.machine.assert_pcaches_synchronized(); // panics on divergence
}

#[test]
fn reduction_bands_match_figure_9a() {
    let base = MdNetworkRun::new(
        MachineConfig::torus([2, 2, 2]).without_compression(),
        6000,
        8,
        false,
    )
    .run(4, 3);
    let inz_only =
        MdNetworkRun::new(MachineConfig::torus([2, 2, 2]).inz_only(), 6000, 8, false).run(4, 3);
    let full = MdNetworkRun::new(MachineConfig::torus([2, 2, 2]), 6000, 8, false).run(4, 3);
    assert_eq!(base.stats.reduction(), 0.0);
    let inz_pct = inz_only.stats.reduction() * 100.0;
    let full_pct = full.stats.reduction() * 100.0;
    // Paper: 32-40% and 45-62%; our substrate sits in (or within ~2pp of)
    // those bands — see EXPERIMENTS.md for the per-size table.
    assert!((30.0..44.0).contains(&inz_pct), "INZ-only {inz_pct:.1}%");
    assert!(
        (45.0..66.0).contains(&full_pct),
        "INZ+pcache {full_pct:.1}%"
    );
    assert!(
        full_pct > inz_pct + 10.0,
        "the pcache must contribute substantially"
    );
}

#[test]
fn disabling_features_is_strictly_worse_on_traffic() {
    let cfgs = [
        MachineConfig::torus([2, 2, 2]).without_compression(),
        MachineConfig::torus([2, 2, 2]).inz_only(),
        MachineConfig::torus([2, 2, 2]),
    ];
    let mut last_wire = u64::MAX;
    for cfg in cfgs {
        let r = MdNetworkRun::new(cfg, 5000, 13, false).run(3, 2);
        assert!(
            r.stats.wire_bytes < last_wire,
            "each feature must strictly reduce wire bytes"
        );
        last_wire = r.stats.wire_bytes;
    }
}

#[test]
fn baseline_accounting_is_exact() {
    // With compression off, the wire carries exactly the flit-granular
    // baseline — the denominator of every Figure 9a percentage.
    let r = MdNetworkRun::new(
        MachineConfig::torus([2, 2, 2]).without_compression(),
        3000,
        21,
        false,
    )
    .run(2, 2);
    assert_eq!(r.stats.wire_bytes, r.stats.baseline_bytes);
}
