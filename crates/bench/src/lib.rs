//! # anton-bench — benchmark harness for the Anton 3 network reproduction
//!
//! One binary per table and figure of the paper (see `src/bin/`), plus
//! Criterion micro-benchmarks (see `benches/`). Each binary prints the
//! same rows/series the paper reports and emits machine-readable JSON on
//! request (`--json`), which EXPERIMENTS.md is generated from.

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

/// Checks a binary's arguments (without the program name) against its
/// known flags: `switches` stand alone, `valued` take the next argument
/// as their value. Rejects any other argument, and a valued flag that is
/// last or followed by another `--flag`, so a typo fails fast instead of
/// silently running a default mode. The error names the offending
/// argument and lists every known flag.
pub fn check_flags<I, S>(args: I, switches: &[&str], valued: &[&str]) -> Result<(), String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_ref();
        let problem = if switches.contains(&arg) {
            continue;
        } else if valued.contains(&arg) {
            match args.next() {
                Some(v) if !v.as_ref().starts_with("--") => continue,
                _ => format!("{arg} takes a value"),
            }
        } else {
            format!("unknown argument `{arg}`")
        };
        let known: Vec<String> = switches
            .iter()
            .map(|s| s.to_string())
            .chain(valued.iter().map(|v| format!("{v} VALUE")))
            .collect();
        return Err(format!("{problem}; known flags: {}", known.join(", ")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::check_flags;

    const SWITCHES: &[&str] = &["--json", "--quick"];
    const VALUED: &[&str] = &["--threads"];

    #[test]
    fn known_flags_pass() {
        let ok = |args: &[&str]| check_flags(args, SWITCHES, VALUED);
        assert_eq!(ok(&[]), Ok(()));
        assert_eq!(ok(&["--quick", "--threads", "2", "--json"]), Ok(()));
    }

    #[test]
    fn unknown_arguments_and_missing_values_are_rejected() {
        let err = |args: &[&str]| check_flags(args, SWITCHES, VALUED).unwrap_err();
        let typo = err(&["--quik"]);
        assert!(typo.starts_with("unknown argument `--quik`"), "{typo}");
        assert!(typo.ends_with("known flags: --json, --quick, --threads VALUE"));
        assert!(err(&["--json", "stray"]).starts_with("unknown argument `stray`"));
        assert!(err(&["--threads"]).starts_with("--threads takes a value"));
        assert!(err(&["--threads", "--json"]).starts_with("--threads takes a value"));
    }
}
