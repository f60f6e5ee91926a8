//! Table I: key features for the three Anton ASICs.

use anton_bench::outln;
use anton_model::asic::GENERATIONS;

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    if args.emit_json(&GENERATIONS.to_vec()) {
        return;
    }
    outln!("TABLE I. KEY FEATURES FOR THE THREE ANTON ASICS");
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "",
        "Anton 1",
        "Anton 2",
        "Anton 3"
    );
    let g = &GENERATIONS;
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "Power-on Year",
        g[0].power_on_year,
        g[1].power_on_year,
        g[2].power_on_year
    );
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "Process Technology (nm)",
        g[0].process_nm,
        g[1].process_nm,
        g[2].process_nm
    );
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "Die Size (mm2)",
        g[0].die_mm2,
        g[1].die_mm2,
        g[2].die_mm2
    );
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "Clock Rate (GHz)",
        g[0].clock_ghz,
        g[1].clock_ghz,
        g[2].clock_ghz
    );
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "Max Pairwise Throughput (GOPS)",
        g[0].pairwise_gops,
        g[1].pairwise_gops,
        g[2].pairwise_gops
    );
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "Number of SERDES",
        g[0].serdes_lanes,
        g[1].serdes_lanes,
        g[2].serdes_lanes
    );
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "SERDES Per-Lane Bandwidth (Gb/s)",
        g[0].serdes_gbps,
        g[1].serdes_gbps,
        g[2].serdes_gbps
    );
    outln!(
        "{:<38} {:>10} {:>10} {:>10}",
        "Inter-node Bidir Bandwidth (GB/s)",
        g[0].internode_gbs,
        g[1].internode_gbs,
        g[2].internode_gbs
    );
    outln!();
    outln!("Motivating ratios (Anton 2 -> Anton 3):");
    outln!(
        "  compute: {:.1}x   inter-node bandwidth: {:.1}x",
        g[2].pairwise_gops as f64 / g[1].pairwise_gops as f64,
        g[2].internode_gbs as f64 / g[1].internode_gbs as f64
    );
}
