//! Figure 12: machine activity during range-limited pairwise interaction
//! computation for a 32,751-atom water system on 8 nodes, with
//! compression disabled (a) and enabled (b). Paper: a time step takes
//! ~2000 ns uncompressed vs ~900 ns compressed.
//!
//! Pass `--quick` for a smaller system, `--json` for the raw matrices.

use anton_machine::experiments;
use anton_model::MachineConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Both {
    disabled: experiments::ActivityMatrix,
    enabled: experiments::ActivityMatrix,
}

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::JsonAndQuick);
    let atoms = if args.quick { 8_000 } else { 32_751 };
    let disabled = experiments::fig12(
        MachineConfig::torus([2, 2, 2]).without_compression(),
        atoms,
        2026,
    );
    let enabled = experiments::fig12(MachineConfig::torus([2, 2, 2]), atoms, 2026);
    if args.emit_json(&Both {
        disabled: disabled.clone(),
        enabled: enabled.clone(),
    }) {
        return;
    }
    println!("FIGURE 12. Machine activity, {atoms}-atom water on 8 nodes");
    println!();
    println!(
        "(a) compression DISABLED — step = {:.0} ns (paper ~2000 ns)",
        disabled.step_ns
    );
    println!("{}", render_summary(&disabled));
    println!(
        "(b) compression ENABLED — step = {:.0} ns (paper ~900 ns)",
        enabled.step_ns
    );
    println!("{}", render_summary(&enabled));
    anton_bench::compare(
        "step-time ratio (disabled/enabled)",
        "~2.2x",
        &format!("{:.2}x", disabled.step_ns / enabled.step_ns),
    );
}

/// Full matrices are tall (100+ lanes); print node-0 lanes plus GC/PPIM.
fn render_summary(m: &experiments::ActivityMatrix) -> String {
    let shades = [' ', '.', ':', '+', '#'];
    let mut out = String::new();
    for (name, occ) in m.lanes.iter().zip(&m.occupancy) {
        if !(name.starts_with("ch n0 ") || name.starts_with("gc ") || name.starts_with("ppim ")) {
            continue;
        }
        let bar: String = occ
            .iter()
            .map(|&v| shades[((v * (shades.len() - 1) as f64).round() as usize).min(4)])
            .collect();
        out.push_str(&format!("{name:>18} |{bar}|\n"));
    }
    out
}
