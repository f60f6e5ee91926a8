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

/// The switches a figure or table binary reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reads {
    /// `--json` only.
    Json,
    /// `--json` and `--quick` (a smaller run).
    JsonAndQuick,
}

/// A figure or table binary's arguments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Args {
    /// `--json`: print the result as JSON.
    json: bool,
    /// `--quick`: run the binary's smaller configuration.
    pub quick: bool,
}

impl Args {
    /// Parses `args` (without the program name); the error names the
    /// refused argument.
    fn parse<S: AsRef<str>>(args: &[S], reads: Reads) -> Result<Args, String> {
        let mut parsed = Args::default();
        for arg in args.iter().map(AsRef::as_ref) {
            let given = match (arg, reads) {
                ("--json", _) => &mut parsed.json,
                ("--quick", Reads::JsonAndQuick) => &mut parsed.quick,
                _ => return Err(format!("unknown argument `{arg}`")),
            };
            if *given {
                return Err(format!("{arg} is given twice"));
            }
            *given = true;
        }
        Ok(parsed)
    }

    /// This process's arguments, parsed before any work. An argument the
    /// binary does not read, or one given twice, prints an error naming it
    /// and exits with status 2, so a typo never runs the default.
    pub fn from_env(reads: Reads) -> Args {
        let mut argv = std::env::args_os().map(|a| a.to_string_lossy().into_owned());
        let program = argv.next().unwrap_or_default();
        Args::parse(&argv.collect::<Vec<_>>(), reads).unwrap_or_else(|e| {
            eprintln!("{program}: {e}");
            std::process::exit(2);
        })
    }

    /// Prints `value` as pretty JSON if `--json` was given, and says
    /// whether it did (the binary then skips its table).
    pub fn emit_json<T: Serialize>(&self, value: &T) -> bool {
        if self.json {
            let json = serde_json::to_string_pretty(value).expect("serializable result");
            println!("{json}");
        }
        self.json
    }
}

/// A standard paper-vs-measured comparison line.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<18} measured: {measured}");
}

#[cfg(test)]
mod tests {
    use super::Reads::{Json, JsonAndQuick};
    use super::*;

    #[test]
    fn known_switches_pass_once_and_anything_else_is_refused() {
        let json = |args: &[&str]| Args::parse(args, Json).map(|a| (a.json, a.quick));
        let quick = |args: &[&str]| Args::parse(args, JsonAndQuick).map(|a| (a.json, a.quick));
        assert_eq!(json(&[]), Ok((false, false)));
        assert_eq!(quick(&["--json"]), Ok((true, false)));
        assert_eq!(quick(&["--quick", "--json"]), Ok((true, true)));
        let unknown = |arg: &str| Err(format!("unknown argument `{arg}`"));
        let twice = |arg: &str| Err(format!("{arg} is given twice"));
        assert_eq!(json(&["--bogus"]), unknown("--bogus"));
        assert_eq!(quick(&["--quik"]), unknown("--quik"));
        assert_eq!(json(&["--quick"]), unknown("--quick"));
        assert_eq!(json(&["--json", "stray"]), unknown("stray"));
        assert_eq!(json(&["--json", "--json"]), twice("--json"));
        assert_eq!(quick(&["--quick", "--quick"]), twice("--quick"));
    }
}
