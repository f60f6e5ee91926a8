//! Table II: network component contributions to the total die area.
//! Paper: Core Routers 9.4%, Edge Routers 1.4%, Channel Adapters 2.8%,
//! Row Adapters 0.5% — 14.1% total.

use anton_model::area::{table2_rows, TechConstants};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    component: &'static str,
    count: usize,
    pct_of_die: f64,
}

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    let t = TechConstants::default();
    let rows: Vec<Row> = table2_rows()
        .iter()
        .map(|r| Row {
            component: r.name,
            count: r.count,
            pct_of_die: r.pct_of_die(&t),
        })
        .collect();
    if args.emit_json(&rows) {
        return;
    }
    println!("TABLE II. Network component contributions to the total die area");
    println!(
        "{:<20} {:>7} {:>16} {:>10}",
        "Component", "count", "% of die (ours)", "(paper)"
    );
    let paper = [9.4, 1.4, 2.8, 0.5];
    let mut total = 0.0;
    for (r, p) in rows.iter().zip(paper) {
        println!(
            "{:<20} {:>7} {:>15.1}% {:>9.1}%",
            r.component, r.count, r.pct_of_die, p
        );
        total += r.pct_of_die;
    }
    println!("{:<20} {:>7} {:>15.1}% {:>9.1}%", "Total", "", total, 14.1);
}
