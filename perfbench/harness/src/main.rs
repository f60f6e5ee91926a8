//! Runs one named workload of the anton3 benchmark through the library's
//! public entry points and prints its metrics.
//!
//! ```text
//! perfbench-harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload repeats for `--seconds` of host time;
//! the end-to-end metrics are the mean repetition (`wall_s`), the median
//! set-up (`setup_s`) and the process's peak resident set
//! (`peak_rss_mib`). Host contention comes in bursts of a few seconds,
//! so a run's repetitions fall into a fast and a slow group: their median
//! jumps between the groups as the slow share crosses one half, while
//! their mean moves with that share. With `--trace 1` the workload runs
//! once with timers
//! around each layer's entry point, plus the comparison runs the
//! per-layer ratios need (see `traced`).
//!
//! Every repetition is checked; a panic, a failed check, a repetition
//! over [`REP_TIME_CAP_S`] or a simulated fingerprint that differs from
//! the first repetition's counts as a failed operation. The last stdout
//! line is one JSON object `{"provenance": {...}, "result": {...}}`.

mod traced;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{fabric_setup_s, Fingerprint, Seeds, Workload, FABRIC_SETUP_SAMPLES};

/// A repetition slower than this counts as failed.
const REP_TIME_CAP_S: f64 = 60.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let duplicate = match flag.as_str() {
            "--workload" => workload
                .replace(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
                .is_some(),
            "--seconds" => seconds
                .replace(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value:?}: need a positive number"))?,
                )
                .is_some(),
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: need 0 or 1")),
                })
                .is_some(),
            _ => return Err(format!("unknown flag {flag:?}")),
        };
        if duplicate {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The median of `xs` (the mean of the middle two when even).
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The mean of `xs`.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Runs `f`, turning a panic into an error carrying its message.
fn attempt<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What one invocation measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)`.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Extra provenance fields, as `"key": value` JSON fragments.
    detail: Vec<String>,
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// Repeats the workload for `seconds`. No repetition starts that the
/// median pass so far says would end past the deadline, so a run lasts
/// about `seconds` however long one repetition takes.
fn untraced(args: &Args, seeds: &Seeds) -> Result<Outcome, String> {
    let w = args.workload;
    let overload = matches!(w, Workload::OverloadSerial | Workload::OverloadSharded);
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Fingerprint> = None;
    // Host seconds of each loop pass: set-up samples, repetition, checks.
    let mut passes: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if !passes.is_empty() && elapsed + median(&passes) > args.seconds {
            break;
        }
        let pass = Instant::now();
        // Host speed drifts during a run; spreading the construction
        // samples across it lets their median see the same drift the
        // repetitions do.
        if overload {
            setup.extend((0..FABRIC_SETUP_SAMPLES).map(|_| fabric_setup_s()));
        }
        attempted += 1;
        let rep = attempt(|| w.rep(seeds)).and_then(|rep| {
            if rep.wall_s > REP_TIME_CAP_S {
                return Err(format!(
                    "took {:.1} s, over the {REP_TIME_CAP_S} s cap",
                    rep.wall_s
                ));
            }
            match &first {
                Some(f) if *f != rep.print => Err(format!(
                    "fingerprint changed between repetitions:\n  first {f:?}\n  now   {:?}",
                    rep.print
                )),
                _ => Ok(rep),
            }
        });
        match rep {
            Ok(rep) => {
                println!(
                    "rep {attempted}: wall_s {:.4}{}",
                    rep.wall_s,
                    rep.setup_s
                        .map_or(String::new(), |s| format!(" setup_s {s:.4}"))
                );
                if first.is_none() {
                    println!("fingerprint: {}", rep.print.sim);
                    if let Some(t) = &rep.print.telemetry {
                        println!("telemetry stalls: {t}");
                    }
                    first = Some(rep.print);
                }
                walls.push(rep.wall_s);
                setup.extend(rep.setup_s);
            }
            Err(e) => {
                failed += 1;
                println!("rep {attempted}: FAILED: {e}");
            }
        }
        passes.push(pass.elapsed().as_secs_f64());
    }
    if walls.is_empty() || setup.is_empty() {
        return Err(format!("no repetition of {} succeeded", w.name()));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("wall_s", "s", mean(&walls)),
            ("setup_s", "s", median(&setup)),
            ("peak_rss_mib", "MiB", peak_rss_mib()?),
        ],
        detail: vec![
            format!("\"wall_s_samples\": {}", json_list(&walls)),
            format!("\"setup_s_samples\": {}", json_list(&setup)),
        ],
    })
}

/// Runs the workload once, traced.
fn traced_run(args: &Args, seeds: &Seeds) -> Result<Outcome, String> {
    let t = attempt(|| Ok(traced::run(args.workload, seeds)))?;
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics: t.metrics().collect(),
        detail: vec![],
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let seeds = Seeds::new(args.seed);
    println!(
        "workload {} seed {} ({}), {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        seeds.json()
    );
    let outcome = if args.trace {
        traced_run(&args, &seeds)
    } else {
        untraced(&args, &seeds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    };
    for (name, unit, value) in &outcome.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
        if !value.is_finite() {
            eprintln!("perfbench-harness: {name} is not finite");
            std::process::exit(1);
        }
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut provenance = vec![
        format!("\"workload\": \"{}\"", args.workload.name()),
        format!("\"trace\": {}", args.trace),
        format!("\"seconds\": {:?}", args.seconds),
        format!("\"seeds\": {}", seeds.json()),
        format!("\"available_parallelism\": {parallelism}"),
        format!("\"build_profile\": \"{profile}\""),
    ];
    provenance.extend(outcome.detail);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"provenance\": {{{}}}, \"result\": {{\"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{}}}}}}}",
        provenance.join(", "),
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
