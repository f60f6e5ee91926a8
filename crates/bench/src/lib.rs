//! # anton-bench — the paper's tables and figures, and the traffic sweep
//!
//! One binary per table and figure of the paper (see `src/bin/`), plus
//! `sweep_traffic`, which drives the cycle-level fabric. Each binary
//! prints the same rows/series the paper reports and emits
//! machine-readable JSON on request (`--json`). Simulator speed is
//! measured by the committed benchmark in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;

/// Prints a serializable result as pretty JSON when `--json` was passed,
/// returning whether it did.
pub fn maybe_json<T: Serialize>(value: &T) -> bool {
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("serializable result")
        );
        true
    } else {
        false
    }
}

/// A standard paper-vs-measured comparison line.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<18} measured: {measured}");
}
