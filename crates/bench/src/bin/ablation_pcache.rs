//! Ablation: particle-cache design choices — predictor order and cache
//! geometry.
//!
//! §IV-B2 chooses a *quadratic* extrapolator stored as finite differences.
//! This binary measures, on a real water trajectory, the mean INZ-encoded
//! delta size under constant, linear, and quadratic prediction, plus the
//! hit-rate sensitivity to cache capacity (the §IV-C observation that the
//! cache was sized for the communication-bound low-atom-count regime).

use anton_bench::outln;
use anton_compress::inz;
use anton_machine::mdrun::MdNetworkRun;
use anton_md::integrate::Simulation;
use anton_md::units::exported_position;
use anton_model::MachineConfig;
use serde::Serialize;

fn delta_bytes(history: &[[i32; 3]], order: usize) -> f64 {
    // history[t] prediction from up to three previous samples.
    let mut total = 0usize;
    let mut count = 0usize;
    for t in 3..history.len() {
        let (a, b, c) = (history[t - 1], history[t - 2], history[t - 3]);
        let mut delta = [0u32; 3];
        for k in 0..3 {
            let pred = match order {
                0 => a[k],                       // constant
                1 => 2 * a[k] - b[k],            // linear
                _ => 3 * a[k] - 3 * b[k] + c[k], // quadratic
            };
            delta[k] = (history[t][k].wrapping_sub(pred)) as u32;
        }
        total += inz::encode(&delta).payload_len();
        count += 1;
    }
    total as f64 / count as f64
}

#[derive(Serialize)]
struct PredictorRow {
    predictor: &'static str,
    smooth_bytes: f64,
    vibration_bytes: f64,
}

#[derive(Serialize)]
struct GeometryRow {
    sets: usize,
    entries_per_ca: usize,
    hit_rate: f64,
    reduction_pct: f64,
}

/// Both ablations' rows, the one document `--json` prints.
#[derive(Serialize)]
struct Ablations {
    predictor_order: Vec<PredictorRow>,
    cache_geometry: Vec<GeometryRow>,
}

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::JsonAndQuick);
    // --- predictor order -------------------------------------------------
    let mut sim = Simulation::water(600, 77);
    sim.run(5);
    let mut vib: Vec<Vec<[i32; 3]>> = vec![Vec::new(); 64];
    let mut smooth: Vec<Vec<[i32; 3]>> = vec![Vec::new(); 64];
    for step in 0..10u64 {
        for atom in 0..64usize {
            vib[atom].push(exported_position(
                sim.system.pos[atom],
                atom as u32,
                step,
                2.5,
            ));
            smooth[atom].push(anton_md::units::quantize_position(sim.system.pos[atom]));
        }
        sim.step();
    }
    let mean = |histories: &[Vec<[i32; 3]>], order| {
        histories.iter().map(|h| delta_bytes(h, order)).sum::<f64>() / histories.len() as f64
    };
    let predictor_order = [(0, "constant"), (1, "linear"), (2, "quadratic")]
        .map(|(order, predictor)| PredictorRow {
            predictor,
            smooth_bytes: mean(&smooth, order),
            vibration_bytes: mean(&vib, order),
        })
        .into();

    // --- cache geometry ---------------------------------------------------
    let atoms = if args.quick { 6_000 } else { 20_000 };
    let mut cache_geometry = Vec::new();
    for sets in [8usize, 32, 128, 256, 512] {
        let cfg = MachineConfig::torus([2, 2, 2]).with_pcache_sets(sets);
        let r = MdNetworkRun::new(cfg, atoms, 7, false).run(4, 3);
        cache_geometry.push(GeometryRow {
            sets,
            entries_per_ca: sets * 4,
            hit_rate: r.pcache_hit_rate.unwrap_or(0.0),
            reduction_pct: r.stats.reduction() * 100.0,
        });
    }
    let ablations = Ablations {
        predictor_order,
        cache_geometry,
    };
    if args.emit_json(&ablations) {
        return;
    }

    outln!("ABLATION A: predictor order (mean INZ delta bytes, 64 atoms x 7 steps)");
    outln!(
        "{:<12} {:>22} {:>24}",
        "predictor",
        "smooth trajectory",
        "with H-vibration"
    );
    for r in &ablations.predictor_order {
        let (name, m_smooth, m_vib) = (r.predictor, r.smooth_bytes, r.vibration_bytes);
        outln!("{name:<12} {m_smooth:>22.2} {m_vib:>24.2}");
    }
    outln!("(higher orders pay off on the smooth thermal drift; the ~10 fs");
    outln!(" intramolecular vibration is unpredictable at a 2.5 fs step for");
    outln!(" any polynomial order — it sets the delta-byte floor)");

    outln!("\nABLATION B: cache capacity ({atoms}-atom water, 2x2x2)");
    outln!(
        "{:<8} {:>14} {:>10} {:>12}",
        "sets",
        "entries/CA",
        "hit rate",
        "reduction"
    );
    for r in &ablations.cache_geometry {
        let (sets, entries, hit, pct) = (r.sets, r.entries_per_ca, r.hit_rate, r.reduction_pct);
        outln!("{sets:<8} {entries:>14} {hit:>10.2} {pct:>11.1}%");
    }
    outln!("\n(256 sets x 4 ways is the hardware point: big enough for the");
    outln!(" communication-bound low-atom-count regime, §IV-C)");
}
