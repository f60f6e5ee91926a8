//! Table III: implementation cost of the particle cache and network fence.
//! Paper: particle cache 1.6%, network fence 0.2% — 1.8% of the die.

use anton_model::area::{table3_rows, TechConstants};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    feature: &'static str,
    pct_of_die: f64,
}

fn main() {
    let args = anton_bench::Args::from_env(anton_bench::Reads::Json);
    let t = TechConstants::default();
    let rows: Vec<Row> = table3_rows()
        .iter()
        .map(|r| Row {
            feature: r.name,
            pct_of_die: r.pct_of_die(&t),
        })
        .collect();
    if args.emit_json(&rows) {
        return;
    }
    println!("TABLE III. Implementation costs of network features");
    println!(
        "{:<20} {:>16} {:>10}",
        "Feature", "% of die (ours)", "(paper)"
    );
    let paper = [1.6, 0.2];
    let mut total = 0.0;
    for (r, p) in rows.iter().zip(paper) {
        println!("{:<20} {:>15.2}% {:>9.1}%", r.feature, r.pct_of_die, p);
        total += r.pct_of_die;
    }
    println!("{:<20} {:>15.2}% {:>9.1}%", "Total", total, 1.8);
}
