//! Figure 11: network fence barrier latency vs hop count on a 128-node
//! (4x4x8) machine. Paper: ~51.5 ns intra-node; fit 91.2 ns + 51.8 ns/hop;
//! global (8-hop) barrier ~504 ns.

use anton_machine::barrier;
use anton_model::MachineConfig;
use anton_sim::stats::linear_fit;

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    let cfg = MachineConfig::torus([4, 4, 8]);
    let rows = barrier::fig11(&cfg);
    if args.emit_json(&rows) {
        return;
    }
    println!("FIGURE 11. GC-to-GC network fence barrier latency (4x4x8)");
    println!("{:>5} {:>13}", "hops", "latency (ns)");
    for r in &rows {
        println!("{:>5} {:>13.1}", r.hops, r.latency_ns);
    }
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.hops >= 1)
        .map(|r| (r.hops as f64, r.latency_ns))
        .collect();
    let fit = linear_fit(&pts);
    println!();
    anton_bench::compare(
        "intra-node (0-hop) barrier",
        "~51.5 ns",
        &format!("{:.1} ns", rows[0].latency_ns),
    );
    anton_bench::compare(
        "fit: fixed overhead",
        "91.2 ns",
        &format!("{:.1} ns", fit.intercept),
    );
    anton_bench::compare(
        "fit: per-hop latency",
        "51.8 ns",
        &format!("{:.1} ns (r2={:.5})", fit.slope, fit.r2),
    );
    anton_bench::compare(
        "global (8-hop) barrier",
        "~504 ns",
        &format!("{:.1} ns", rows[8].latency_ns),
    );
    anton_bench::compare(
        "fence per-hop premium over unicast",
        "17.6 ns",
        &format!("{:.1} ns", fit.slope - 34.2),
    );
}
