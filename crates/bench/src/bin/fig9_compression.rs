//! Figure 9: (a) reduction in bits transmitted over channels due to INZ
//! alone and INZ + particle cache, and (b) the application-level MD
//! speedup, on an 8-node (2x2x2) machine across water-benchmark sizes.
//!
//! Paper bands: INZ alone 32-40%; INZ+pcache 45-62% (decreasing benefit
//! at large atom counts as the cache overflows); speedup 1.18-1.62x.
//!
//! Pass `--quick` for a reduced sweep (CI-sized), `--json` for JSON rows.

use anton_bench::outln;
use anton_machine::experiments;

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::JsonAndQuick);
    let sizes: &[usize] = if args.quick {
        &[8_000, 32_751]
    } else {
        &[8_000, 32_751, 131_072, 524_288, 1_048_576]
    };
    let (warmup, measure) = if args.quick { (4, 3) } else { (5, 5) };
    let rows = experiments::fig9(sizes, warmup, measure, 2026);
    if args.emit_json(&rows) {
        return;
    }
    outln!("FIGURE 9. Channel traffic reduction and application speedup (2x2x2, water)");
    outln!(
        "{:>9} {:>12} {:>18} {:>10} {:>12} {:>12} {:>9}",
        "atoms",
        "INZ only",
        "INZ + pcache",
        "speedup",
        "base step",
        "comp step",
        "hit rate"
    );
    for r in &rows {
        outln!(
            "{:>9} {:>11.1}% {:>17.1}% {:>9.2}x {:>10.0}ns {:>10.0}ns {:>9.2}",
            r.atoms,
            r.inz_reduction_pct,
            r.full_reduction_pct,
            r.app_speedup,
            r.base_step_ns,
            r.full_step_ns,
            r.pcache_hit_rate
        );
    }
    outln!();
    anton_bench::compare("INZ-only reduction", "32-40%", "see column 2");
    anton_bench::compare("INZ+pcache reduction", "45-62%, falling", "see column 3");
    anton_bench::compare("application speedup", "1.18-1.62x", "see column 4");
}
