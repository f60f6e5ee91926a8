//! Figure 6: component breakdown of the minimum inter-node end-to-end
//! latency (~55 ns).

use anton_machine::pingpong;
use anton_model::MachineConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    component: String,
    ns: f64,
}

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    let cfg = MachineConfig::torus([4, 4, 8]).without_compression();
    let b = pingpong::fig6_breakdown(&cfg);
    let rows: Vec<Row> = b
        .segments
        .iter()
        .map(|s| Row {
            component: s.name.to_string(),
            ns: s.time.as_ns(),
        })
        .collect();
    if args.emit_json(&rows) {
        return;
    }
    println!("FIGURE 6. Breakdown of the minimum inter-node end-to-end latency");
    let total = b.total().as_ns();
    for s in &b.segments {
        let ns = s.time.as_ns();
        let bar = "#".repeat((ns * 2.5).round() as usize);
        println!("  {:<42} {:>6.2} ns  {}", s.name, ns, bar);
    }
    println!("  {:-<42} {:->9}", "", "");
    anton_bench::compare(
        "total minimum one-way latency",
        "~55 ns",
        &format!("{total:.1} ns"),
    );
}
