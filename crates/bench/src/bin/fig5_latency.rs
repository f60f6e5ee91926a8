//! Figure 5: average one-way end-to-end latency vs. inter-node hops on a
//! 128-node (4x4x8) machine. Paper fit: 55.9 ns + 34.2 ns/hop; the 0-hop
//! case undercuts the fit.

use anton_machine::pingpong;
use anton_model::MachineConfig;

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    let cfg = MachineConfig::torus([4, 4, 8]).without_compression();
    let result = pingpong::fig5(&cfg, 400, 2026);
    if args.emit_json(&result) {
        return;
    }
    println!("FIGURE 5. One-way end-to-end latency vs inter-node hops (4x4x8, 16B payload)");
    println!(
        "{:>5} {:>12} {:>10} {:>10} {:>9}",
        "hops", "mean (ns)", "min (ns)", "max (ns)", "samples"
    );
    for r in &result.rows {
        println!(
            "{:>5} {:>12.1} {:>10.1} {:>10.1} {:>9}",
            r.hops, r.mean_ns, r.min_ns, r.max_ns, r.samples
        );
    }
    println!();
    anton_bench::compare(
        "linear fit: fixed overhead",
        "55.9 ns",
        &format!("{:.1} ns", result.fixed_ns),
    );
    anton_bench::compare(
        "linear fit: per-hop latency",
        "34.2 ns",
        &format!("{:.1} ns (r2={:.4})", result.per_hop_ns, result.r2),
    );
    anton_bench::compare(
        "minimum 1-hop latency",
        "~55 ns",
        &format!("{:.1} ns", pingpong::min_inter_node_latency(&cfg).as_ns()),
    );
}
