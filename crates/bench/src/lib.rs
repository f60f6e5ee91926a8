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

impl Reads {
    /// The switches, with their usage lines: `--json`, then `--quick`
    /// where read, then `--help`, which every binary reads.
    fn switches(self) -> &'static [(&'static str, &'static str)] {
        const JSON: (&str, &str) = ("--json", "print the result as JSON");
        const HELP: (&str, &str) = ("--help", "print this text and exit");
        match self {
            Reads::Json => &[JSON, HELP],
            Reads::JsonAndQuick => &[JSON, ("--quick", "run a smaller configuration"), HELP],
        }
    }

    /// The `--help` text of `program`, one line per switch it reads.
    fn usage(self, program: &str) -> String {
        let (mut flags, mut lines) = (String::new(), String::new());
        for &(flag, help) in self.switches() {
            flags += &format!(" [{flag}]");
            lines += &format!("  {flag:<10}{help}\n");
        }
        format!("usage: {program}{flags}\n\n{lines}")
    }
}

/// A figure or table binary's arguments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Args {
    /// `--json`: print the result as JSON.
    json: bool,
    /// `--quick`: run the binary's smaller configuration.
    pub quick: bool,
    /// `--help`: print the usage text instead of running.
    help: bool,
}

impl Args {
    /// Parses `args` (without the program name); the error names the
    /// refused argument.
    fn parse<S: AsRef<str>>(args: &[S], reads: Reads) -> Result<Args, String> {
        let mut parsed = Args::default();
        for arg in args.iter().map(AsRef::as_ref) {
            if !reads.switches().iter().any(|&(flag, _)| flag == arg) {
                return Err(format!("unknown argument `{arg}`"));
            }
            let given = match arg {
                "--json" => &mut parsed.json,
                "--quick" => &mut parsed.quick,
                _ => &mut parsed.help,
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
    /// and exits with status 2, so a typo never runs the default; with
    /// `--help` and nothing refused, the binary prints its usage text to
    /// stdout and exits 0 instead of running.
    pub fn from_env(reads: Reads) -> Args {
        let mut argv = std::env::args_os().map(|a| a.to_string_lossy().into_owned());
        let program = argv.next().unwrap_or_default();
        let args = Args::parse(&argv.collect::<Vec<_>>(), reads).unwrap_or_else(|e| {
            eprintln!("{program}: {e}");
            std::process::exit(2);
        });
        if args.help {
            print!("{}", reads.usage(&program));
            std::process::exit(0);
        }
        args
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

/// Writes `text` to stdout. When stdout is closed — a reader such as
/// `head` has exited — the process ends quietly with status 0, writing
/// nothing to stderr; any other write error panics, as `print!` does.
pub fn write_stdout(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `println!` through [`write_stdout`], so a closed stdout ends the
/// process quietly.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A standard paper-vs-measured comparison line.
pub fn compare(label: &str, paper: &str, measured: &str) {
    outln!("  {label:<44} paper: {paper:<18} measured: {measured}");
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
        // Every binary reads `--help`, once, and refuses a bad argument
        // beside it.
        let help = |args: &[&str], reads| Args::parse(args, reads).map(|a| a.help);
        assert_eq!(help(&["--help"], Json), Ok(true));
        assert_eq!(help(&["--quick", "--help"], JsonAndQuick), Ok(true));
        assert_eq!(help(&["--json"], Json), Ok(false));
        let refused = |args: &[&str]| Args::parse(args, Json).unwrap_err();
        assert_eq!(
            refused(&["--help", "--bogus"]),
            "unknown argument `--bogus`"
        );
        assert_eq!(
            refused(&["--help", "--quick"]),
            "unknown argument `--quick`"
        );
        assert_eq!(refused(&["--help", "--help"]), "--help is given twice");
    }

    #[test]
    fn usage_names_every_switch_a_binary_reads() {
        assert_eq!(
            Json.usage("table1"),
            "usage: table1 [--json] [--help]\n\n  \
             --json    print the result as JSON\n  \
             --help    print this text and exit\n"
        );
        let text = JsonAndQuick.usage("fig9_compression");
        for flag in ["--json", "--quick", "--help"] {
            assert!(text.contains(&format!("[{flag}]")), "{text}");
            assert_eq!(text.matches(&format!("\n  {flag} ")).count(), 1, "{text}");
        }
    }
}
