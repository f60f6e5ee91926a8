//! Latency–throughput sweep of the cycle-level 3D torus fabric under the
//! synthetic workload suite (uniform random, nearest-neighbor halo,
//! bit-complement, transpose, hotspot, fence-storm) on the paper's
//! 128-node 4x4x8 machine, with request→response (force-return) traffic
//! and the two physical channel slices per neighbor modeled as
//! independent links. Everything drives the fabric through the unified
//! `Workload` / `PacketSpec` scenario API (`traffic::sweep::run_scenario`).
//!
//! For each pattern the binary prints a saturation curve — offered vs
//! delivered flits/node/cycle with mean and p99 packet latency, split by
//! traffic class and by channel slice — and cross-checks the fabric's
//! low-load per-hop latency against the analytic `path` model (the
//! Figure 5 constant). Flags:
//!
//! - `--json` emits the full report (the default sweep only);
//! - `--quick` runs a coarse load axis for smoke testing (the default
//!   sweep only);
//! - `--threads N` distributes independent sweep points over `N`
//!   worker threads — output (including `--json`) is byte-identical at
//!   any worker count, because every point seeds its RNG streams from
//!   the config seed and its own index;
//! - `--shards N` partitions every fabric step itself across `N`
//!   region shards (`TorusFabric::set_shards`; the default 1 runs the
//!   epoch kernel inline) — parallelism *within* one simulation,
//!   composable with `--threads` parallelism *across* points; like
//!   `--threads`, all output is byte-identical at any shard count;
//! - `--lookahead N` caps the epoch kernel's lookahead window at any
//!   shard count, 1 included (`TorusFabric::set_shards_with_lookahead`)
//!   — by default every shard runs up to the fabric's minimum positive
//!   link latency (~80 cycles calibrated) per epoch; `N = 1` pins the
//!   degenerate one-cycle window. Another pure execution knob: output
//!   is byte-identical at any window;
//! - `--md-replay` replays MD-shaped halo traffic (an `MdHaloWorkload`
//!   built from a water-box run's spatial decomposition) on the cycle
//!   fabric, reconciles the per-`ByteKind` link-stat totals
//!   (position/force wire bytes) machine-wide, and prints their
//!   force/position ratio beside the classes' mean-hop ratio;
//! - `--overload-smoke` runs a short 8x8x8 overload point with both
//!   classes plus a drain check — a warmup-0 scenario point at offered
//!   1.0 that must deliver every request and response it generates —
//!   exercising the dateline-VC deadlock margins on a larger machine;
//! - `--mega-smoke` runs a time-budgeted 16x16x16 (4096-node) sweep
//!   point with both classes, printing the bytes/router memory audit of
//!   that fabric and of a fresh 32x32x32 one (built and dropped without
//!   stepping) first — the routine check that mega-fabric construction
//!   and table routing stay O(n), and the source of README's
//!   constructed-memory table. Both smokes print their thread and shard
//!   counts, and the drain's sync ops and epochs, on stderr, and so does
//!   the overload smoke its drain check's loaded memory audit (README's
//!   loaded-memory row), so their stdout is byte-identical at any
//!   `--threads`, `--shards` and `--lookahead` (CI `cmp`s it across
//!   shard counts);
//! - `--telemetry` turns on fabric telemetry (`net::telemetry`) for the
//!   mode's instrumented run — the overload drain check, the MD replay
//!   scenario, or a representative mid-load sweep point — and prints the
//!   per-link stall/occupancy digest. Recording is observational: every
//!   measured number is bit-identical with it off;
//! - `--telemetry-out PATH` writes the full telemetry summary (stall
//!   causes per class, per-link cycle accounting, epoch time-series) as
//!   JSON — the CI overload smoke uploads this artifact;
//! - `--epoch-cycles N` sets the telemetry epoch length (default 1024);
//! - `--epoch-ring N` caps how many most-recent epoch records each link
//!   keeps (default 256) — with the activity-lazy rings this bounds
//!   telemetry memory even at 16³/32³;
//! - `--trace-out PATH` additionally records packet lifecycle events
//!   (inject/hop/deliver) and writes them to PATH: JSON Lines when the
//!   path ends in `.jsonl`, Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) otherwise.
//!
//! `--help` prints a usage text listing every flag to stdout and exits
//! 0 without running anything. Any other argument, an argument that is
//! not UTF-8, a valued flag without its value, a numeric value that is
//! not a positive integer, a flag given twice, more than one of the
//! mode flags (`--md-replay`, `--overload-smoke`, `--mega-smoke`), or a
//! flag the selected mode does not read (`--threads` with the one-point
//! `--md-replay`) is rejected with exit status 2 before anything runs,
//! `--help` or not, and so is a mode configuration
//! `SweepConfig::validate` refuses, and a `--telemetry-out` or
//! `--trace-out` path that cannot be opened for writing (it is created
//! if missing). Output goes through
//! `anton_bench::outln!`, so a closed stdout (`| head -1`) ends the run
//! quietly with status 0.

use anton_bench::outln;
use anton_machine::mdrun::MdNetworkRun;
use anton_model::latency::LatencyModel;
use anton_model::topology::Torus;
use anton_model::units::PS_PER_CORE_CYCLE;
use anton_model::MachineConfig;
use anton_net::channel::LinkStats;
use anton_net::fabric3d::{FabricMemoryReport, FabricParams, TorusFabric, TrafficClass, SLICES};
use anton_net::telemetry::{LinkSummary, StallBreakdown, TelemetryConfig};
use anton_traffic::patterns::{standard_suite, UniformRandom};
use anton_traffic::sweep::{
    run_scenario, run_scenario_instrumented, run_sweep_threaded, ClassPoint, SweepConfig,
};
use anton_traffic::workload::SyntheticWorkload;
use std::ffi::OsString;

/// Flags that stand alone, with their usage lines.
const SWITCHES: &[(&str, &str)] = &[
    ("--json", "print the sweep report as JSON"),
    ("--quick", "run the sweep's coarse load axis"),
    ("--md-replay", "replay MD halo traffic, telemetry on"),
    ("--overload-smoke", "8x8x8 overload point and drain check"),
    ("--mega-smoke", "16x16x16 point after memory audits"),
    ("--telemetry", "record telemetry, print the stall digest"),
    ("--help", "print this text and exit"),
];

/// Flags that take a value, with their usage lines.
const VALUED: &[(&str, &str)] = &[
    ("--threads", "worker threads across points (default 1)"),
    ("--shards", "shards within each fabric step (default 1)"),
    ("--lookahead", "cap on the epoch window, in cycles"),
    ("--telemetry-out", "telemetry summary JSON path"),
    ("--epoch-cycles", "telemetry epoch length (default 1024)"),
    ("--epoch-ring", "epoch records kept per link (default 256)"),
    ("--trace-out", "packet trace path (.jsonl: JSON Lines)"),
];

/// The flag column of [`SWITCHES`] or [`VALUED`].
fn names(table: &'static [(&'static str, &str)]) -> impl Iterator<Item = &'static str> {
    table.iter().map(|&(flag, _)| flag)
}

/// What one run of the binary does: the default latency–throughput
/// sweep, or the mode one mode flag selects instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum Mode {
    #[default]
    Sweep,
    MdReplay,
    OverloadSmoke,
    MegaSmoke,
}

impl Mode {
    /// The torus this mode's run builds. Each run reads its shape from
    /// here, so the `--shards` check at parse time and the run cannot
    /// disagree.
    fn dims(self) -> [u8; 3] {
        match self {
            Mode::Sweep | Mode::MdReplay => [4, 4, 8],
            Mode::OverloadSmoke => [8, 8, 8],
            Mode::MegaSmoke => [16, 16, 16],
        }
    }
}

/// The mode flags (also listed in [`SWITCHES`]) and what they select.
const MODES: [(&str, Mode); 3] = [
    ("--md-replay", Mode::MdReplay),
    ("--overload-smoke", Mode::OverloadSmoke),
    ("--mega-smoke", Mode::MegaSmoke),
];

/// The telemetry flags, which every mode reads.
const TELEMETRY: &str = "--telemetry --telemetry-out --epoch-cycles --epoch-ring --trace-out";

/// The flags each mode flag's run reads besides `--help`, in groups
/// separated by spaces; [`Args::parse`] refuses any other flag with a
/// mode. The default sweep reads every flag.
const READS: [(&str, &[&str]); 3] = [
    ("--md-replay", &["--shards --lookahead", TELEMETRY]),
    (
        "--overload-smoke",
        &["--threads --shards --lookahead", TELEMETRY],
    ),
    (
        "--mega-smoke",
        &["--threads --shards --lookahead", TELEMETRY],
    ),
];

/// The flags mode flag `mode` reads ([`READS`]).
fn reads(mode: &str) -> impl Iterator<Item = &'static str> {
    let (_, read) = READS
        .into_iter()
        .find(|&(m, _)| m == mode)
        .expect("every mode flag is in READS");
    read.iter().flat_map(|group| group.split(' '))
}

/// One run's arguments, parsed and checked before any work; `main`
/// hands them to the mode they select. The module docs describe each
/// flag.
#[derive(PartialEq, Debug, Default)]
struct Args {
    mode: Mode,
    /// `--help`: print [`usage`] instead of running.
    help: bool,
    json: bool,
    quick: bool,
    /// Sweep workers (default 1).
    threads: usize,
    /// Fabric-step shards (default 1).
    shards: usize,
    /// Epoch-window cap (default: the fabric's structural window).
    lookahead: Option<u64>,
    /// Whether any telemetry surface was requested: `--telemetry`, or
    /// one of the output flags that implies it.
    telemetry_requested: bool,
    /// The telemetry settings from `--epoch-cycles`, `--epoch-ring` and
    /// `--trace-out`.
    telemetry_config: TelemetryConfig,
    /// `--telemetry-out PATH`.
    telemetry_out: Option<String>,
    /// `--trace-out PATH`.
    trace_out: Option<String>,
}

impl Args {
    /// Parses a run's arguments (without the program name). Refuses an
    /// unknown argument, a valued flag that is last or followed by
    /// another `--flag`, a numeric value that is not a positive integer,
    /// a flag given twice, a second mode flag, a flag the mode does not
    /// read ([`READS`]) and more shards than the mode's torus has
    /// routers, so a typo or a bad value fails before any work instead
    /// of running a default mode, ignoring the flag or panicking mid-run.
    /// The error names the offending flag.
    fn parse<S: AsRef<str>>(args: &[S]) -> Result<Args, String> {
        let mut parsed = Args {
            threads: 1,
            shards: 1,
            ..Args::default()
        };
        let mut seen: Vec<&str> = Vec::new();
        let mut mode_flag: Option<&str> = None;
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(flag) = args.next() {
            let valued = names(VALUED).any(|v| v == flag);
            if !valued && !names(SWITCHES).any(|s| s == flag) {
                return Err(format!(
                    "unknown argument `{flag}`; known flags: {}",
                    known_flags()
                ));
            }
            let value = match valued.then(|| args.next()) {
                None => "",
                Some(Some(v)) if !v.starts_with("--") => v,
                Some(_) => {
                    return Err(format!(
                        "{flag} takes a value; known flags: {}",
                        known_flags()
                    ))
                }
            };
            if seen.contains(&flag) {
                return Err(format!("{flag} is given twice"));
            }
            seen.push(flag);
            let tcfg = &mut parsed.telemetry_config;
            match flag {
                "--help" => parsed.help = true,
                "--json" => parsed.json = true,
                "--quick" => parsed.quick = true,
                "--telemetry" => parsed.telemetry_requested = true,
                "--threads" => parsed.threads = positive(flag, value)?,
                "--shards" => parsed.shards = positive(flag, value)?,
                "--lookahead" => parsed.lookahead = Some(positive(flag, value)?),
                "--epoch-cycles" => tcfg.epoch_cycles = positive(flag, value)?,
                "--epoch-ring" => tcfg.epoch_ring = positive(flag, value)?,
                "--telemetry-out" => parsed.telemetry_out = Some(value.to_string()),
                "--trace-out" => parsed.trace_out = Some(value.to_string()),
                // The other switches are the mode flags.
                _ => match mode_flag {
                    Some(first) => {
                        return Err(format!("give at most one mode, not {first} and {flag}"))
                    }
                    None => mode_flag = Some(flag),
                },
            }
        }
        if let Some(mode) = mode_flag {
            parsed.mode = MODES
                .into_iter()
                .find(|&(f, _)| f == mode)
                .expect("every mode flag is in MODES")
                .1;
            let read = |f: &&str| *f == "--help" || *f == mode || reads(mode).any(|r| r == *f);
            if let Some(flag) = seen.iter().find(|f| !read(f)) {
                return Err(format!("{mode} does not read {flag}"));
            }
        }
        let [x, y, z] = parsed.mode.dims();
        let routers = Torus::new([x, y, z]).node_count();
        if parsed.shards > routers {
            return Err(format!(
                "--shards {} is more than the {routers} routers of this mode's {x}x{y}x{z} torus",
                parsed.shards
            ));
        }
        parsed.telemetry_config.trace = parsed.trace_out.is_some();
        parsed.telemetry_requested |= parsed.telemetry_out.is_some() || parsed.trace_out.is_some();
        Ok(parsed)
    }

    /// The telemetry configuration, when any telemetry surface was
    /// requested.
    fn telemetry(&self) -> Option<TelemetryConfig> {
        self.telemetry_requested.then_some(self.telemetry_config)
    }
}

/// The run's arguments as UTF-8 strings. An argument that is not UTF-8
/// is refused rather than converted lossily: a lossy `--telemetry-out`
/// or `--trace-out` path would silently name a different file.
fn utf8_args(args: impl IntoIterator<Item = OsString>) -> Result<Vec<String>, String> {
    args.into_iter()
        .map(|a| {
            a.into_string()
                .map_err(|a| format!("argument {a:?} is not UTF-8"))
        })
        .collect()
}

/// Every flag, for error messages: the switches, then `FLAG VALUE` for
/// the valued flags.
fn known_flags() -> String {
    let switches = names(SWITCHES).map(str::to_string);
    let valued = names(VALUED).map(|v| format!("{v} VALUE"));
    switches.chain(valued).collect::<Vec<_>>().join(", ")
}

/// The `--help` text, one line per flag of [`SWITCHES`] and [`VALUED`],
/// with the [`MODES`] flags listed first, each followed by the flags it
/// reads ([`READS`]).
fn usage() -> String {
    let (mut modes, mut switches, mut valued) = (String::new(), String::new(), String::new());
    for &(flag, help) in SWITCHES {
        if MODES.iter().any(|&(m, _)| m == flag) {
            modes += &format!("  {flag:<24}{help}\n");
            // The read flags, wrapped at 78 columns.
            let mut line = format!("{:26}reads", "");
            for read in reads(flag) {
                if line.len() + 1 + read.len() > 78 {
                    modes += &format!("{line}\n");
                    line = format!("{:31}", "");
                }
                line += &format!(" {read}");
            }
            modes += &format!("{line}\n");
        } else {
            switches += &format!("  {flag:<24}{help}\n");
        }
    }
    for &(flag, help) in VALUED {
        valued += &format!("  {:<24}{help}\n", format!("{flag} VALUE"));
    }
    format!(
        "usage: sweep_traffic [FLAG]...\n\n\
         Runs the latency-throughput sweep of the 4x4x8 torus, or the mode one\n\
         mode flag selects. A VALUE is a positive integer or a path. The\n\
         sweep reads every flag; a mode reads --help and the flags listed\n\
         under it.\n\n\
         modes (give at most one):\n{modes}\n\
         switches:\n{switches}\n\
         flags with a value:\n{valued}"
    )
}

/// `flag`'s value as a positive integer.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    value
        .parse()
        .ok()
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| format!("{flag} takes a positive integer, not `{value}`"))
}

/// `cfg` once [`SweepConfig::validate`] accepts it; a refused
/// configuration exits with status 2 before any work, like a bad flag.
fn checked(cfg: SweepConfig) -> SweepConfig {
    if let Err(e) = cfg.validate() {
        eprintln!("sweep_traffic: {e}");
        std::process::exit(2);
    }
    cfg
}

/// A breakdown's three stall causes as `(count, label)`.
fn causes(s: &StallBreakdown) -> [(u64, &'static str); 3] {
    [
        (s.credit_starved, "credit-starved"),
        (s.lost_arbitration, "lost-arbitration"),
        (s.serialization_busy, "serialization-busy"),
    ]
}

/// The stall cause carrying most of a breakdown, as a label (the last
/// listed of a tie).
fn dominant_cause(s: &StallBreakdown) -> &'static str {
    match causes(s).into_iter().max_by_key(|&(n, _)| n) {
        Some((n, label)) if n > 0 => label,
        _ => "-",
    }
}

/// Prints the per-link stall/occupancy digest of an instrumented fabric:
/// stall-cause totals per traffic class, then the hottest links by stall
/// cycles with their advance/stall/idle split.
fn print_telemetry(fabric: &TorusFabric) {
    let Some(summary) = fabric.telemetry_summary() else {
        return;
    };
    outln!();
    outln!(
        "TELEMETRY. {} cycles observed (from cycle {}), epoch {} cycles, \
         {} links with flushed epoch series, {} trace events{}",
        summary.elapsed_cycles,
        summary.enabled_at_cycle,
        summary.epoch_cycles,
        summary.epochs.len(),
        summary.trace_events,
        if summary.trace_dropped > 0 {
            format!(" ({} dropped at the cap)", summary.trace_dropped)
        } else {
            String::new()
        }
    );
    for c in &summary.classes {
        let counts = causes(&c.stalls).map(|(n, label)| format!("{n:>9} {label}"));
        outln!("  {:<8} stalls: {}", c.class, counts.join(" "));
    }
    let mut hot: Vec<&LinkSummary> = summary
        .links
        .iter()
        .filter(|l| l.stall_cycles + l.advance_cycles > 0)
        .collect();
    hot.sort_by_key(|l| std::cmp::Reverse((l.stall_cycles, l.advance_cycles)));
    outln!(
        "  {:>12} {:>9} {:>9} {:>9} {:>6}  dominant cause",
        "link",
        "advance",
        "stall",
        "idle",
        "busy%"
    );
    for l in hot.iter().take(10) {
        let elapsed = (l.advance_cycles + l.stall_cycles + l.idle_cycles).max(1);
        outln!(
            "  {:>12} {:>9} {:>9} {:>9} {:>5.1}%  {}",
            l.link,
            l.advance_cycles,
            l.stall_cycles,
            l.idle_cycles,
            (l.advance_cycles + l.stall_cycles) as f64 / elapsed as f64 * 100.0,
            dominant_cause(&l.stalls)
        );
    }
    if hot.len() > 10 {
        outln!("  ... and {} more active links", hot.len() - 10);
    }
}

/// Opens each `--telemetry-out` and `--trace-out` path for writing,
/// creating it if missing and leaving its contents for the run to
/// replace, so a path the run could not write is refused before any
/// work. The error names the path and the OS error.
fn open_outputs(args: &Args) -> Result<(), String> {
    for path in [&args.telemetry_out, &args.trace_out].into_iter().flatten() {
        std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Writes the `--telemetry-out` summary JSON and the `--trace-out`
/// packet trace (JSONL for `.jsonl` paths, Chrome `trace_event`
/// otherwise). Confirmations go to stderr so `--json` stdout artifacts
/// stay clean.
fn write_telemetry_artifacts(fabric: &TorusFabric, args: &Args) {
    if let Some(path) = &args.telemetry_out {
        let summary = fabric.telemetry_summary().expect("telemetry enabled");
        let json = serde_json::to_string_pretty(&summary).expect("serializable summary");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("telemetry summary written to {path}");
    }
    if let Some(path) = &args.trace_out {
        let tel = fabric.telemetry().expect("telemetry enabled");
        let rendered = if path.ends_with(".jsonl") {
            tel.trace_jsonl()
        } else {
            tel.trace_chrome()
        };
        std::fs::write(path, rendered).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!(
            "packet trace written to {path} ({} events)",
            tel.trace_events().len()
        );
        if tel.trace_dropped() > 0 {
            eprintln!(
                "warning: packet trace truncated — {} events dropped at the \
                 trace_limit cap ({} recorded); the file carries a Truncated \
                 footer with the same count",
                tel.trace_dropped(),
                tel.trace_events().len()
            );
        }
    }
}

fn main() {
    let argv = utf8_args(std::env::args_os().skip(1));
    let args = argv
        .and_then(|argv| Args::parse(&argv))
        .unwrap_or_else(|e| {
            eprintln!("sweep_traffic: {e}");
            std::process::exit(2);
        });
    if args.help {
        anton_bench::write_stdout(format_args!("{}", usage()));
        return;
    }
    if let Err(e) = open_outputs(&args) {
        eprintln!("sweep_traffic: {e}");
        std::process::exit(2);
    }
    let params = FabricParams::calibrated(&LatencyModel::default());
    match args.mode {
        Mode::MdReplay => return md_replay(params, &args),
        Mode::OverloadSmoke => return overload_smoke(params, &args),
        Mode::MegaSmoke => return mega_smoke(params, &args),
        Mode::Sweep => {}
    }

    let mut cfg = SweepConfig::new(Mode::Sweep.dims());
    cfg.shards = args.shards;
    cfg.lookahead = args.lookahead;
    if args.quick {
        cfg.loads = vec![0.02, 0.2, 0.5, 0.8];
        cfg.warmup_cycles = 1_000;
        cfg.measure_cycles = 2_000;
        cfg.drain_cycles = 15_000;
    }
    let cfg = checked(cfg);
    let mut report = run_sweep_threaded(&standard_suite(), &cfg, params, args.threads);
    let telemetry = args.telemetry();
    if let Some(tcfg) = telemetry {
        report.echo.epoch_cycles = tcfg.epoch_cycles;
    }
    // Under telemetry, one representative mid-load uniform-random point
    // re-runs instrumented for the stall/occupancy digest and artifacts
    // (stream 1025 = the uniform curve's 0.3-load index on the default
    // axis region; any fixed stream works — this is a probe, not a
    // measurement the report depends on).
    let instrumented = telemetry.map(|tcfg| {
        let workload = SyntheticWorkload::new(&UniformRandom, cfg.flits_per_packet, cfg.respond);
        run_scenario_instrumented(&workload, &cfg, params, 0.3, 1025, tcfg)
    });

    if args.json {
        let json = serde_json::to_string_pretty(&report).expect("serializable report");
        outln!("{json}");
        if let Some(run) = &instrumented {
            write_telemetry_artifacts(&run.fabric, &args);
        }
        return;
    }

    outln!(
        "TRAFFIC SWEEP. {}x{}x{} torus, {}-flit packets, responses {}, seed {:#x}",
        cfg.dims[0],
        cfg.dims[1],
        cfg.dims[2],
        cfg.flits_per_packet,
        if cfg.respond { "on" } else { "off" },
        cfg.seed
    );
    outln!(
        "fabric: {} router + {} link cycles/hop = {:.2} ns/hop (analytic {:.2} ns), \
         slice serialization {} cycles/flit",
        report.router_cycles,
        report.link_latency_cycles,
        (report.router_cycles + report.link_latency_cycles) as f64 * PS_PER_CORE_CYCLE as f64
            / 1000.0,
        report.analytic_per_hop_ns,
        report.slice_interval_cycles,
    );
    let class_cell = |c: Option<&ClassPoint>| match c {
        Some(c) => format!(
            "{:>9.1}/{:<9.1}",
            c.mean_latency_cycles, c.p99_latency_cycles
        ),
        None => format!("{:>9}/{:<9}", "-", "-"),
    };
    for curve in &report.curves {
        outln!();
        outln!("pattern: {}", curve.pattern);
        outln!(
            "{:>8} {:>10} {:^19} {:^19} {:^13} {:>4}",
            "offered",
            "delivered",
            "req mean/p99 (cyc)",
            "rsp mean/p99 (cyc)",
            "slice 0/1",
            "sat"
        );
        for p in &curve.points {
            outln!(
                "{:>8.3} {:>10.3} {} {} {:>6.3}/{:<6.3} {:>4}",
                p.offered,
                p.delivered,
                class_cell(Some(&p.request)),
                class_cell(p.response.as_ref()),
                p.slice_delivered[0],
                p.slice_delivered[1],
                if p.saturated { "yes" } else { "" }
            );
        }
        outln!(
            "  saturation throughput: {:.3} flits/node/cycle total, {:.3} request-class",
            curve.saturation_throughput(),
            curve.class_saturation_throughput(TrafficClass::Request)
        );
        if let Some(low) = curve
            .points
            .iter()
            .find(|p| !p.saturated && p.request.mean_hops > 0.0)
        {
            anton_bench::compare(
                &format!("{}: low-load per-hop latency", curve.pattern),
                &format!("{:.1} ns (analytic)", report.analytic_per_hop_ns),
                &format!("{:.1} ns", low.measured_per_hop_ns),
            );
        }
    }
    if let Some(run) = &instrumented {
        print_telemetry(&run.fabric);
        write_telemetry_artifacts(&run.fabric, &args);
    }
}

/// Replays MD-shaped halo traffic on the cycle fabric: builds a
/// water-box run on the paper's 4x4x8 machine, derives its
/// `MdHaloWorkload` (position exports over the import regions, force
/// returns home), runs one scenario point, and reconciles the
/// per-`ByteKind` wire-byte totals machine-wide — the Figure 9a typing
/// (position/force instead of `other_bytes`) carried down to the
/// cycle-level links.
fn md_replay(params: FabricParams, args: &Args) {
    let dims = Mode::MdReplay.dims();
    let mut cfg = SweepConfig::new(dims);
    cfg.loads = vec![];
    cfg.shards = args.shards;
    cfg.lookahead = args.lookahead;
    let cfg = checked(cfg);
    let mcfg = MachineConfig::torus(dims).without_compression();
    let run = MdNetworkRun::new(mcfg, 40_000, 99, false);
    let workload = run.halo_workload(64, 0x4D5F_4841);
    let offered = 0.3;
    outln!(
        "MD HALO REPLAY. {}x{}x{} torus, {} atoms, import radius {:.2} A, offered {offered}",
        dims[0],
        dims[1],
        dims[2],
        run.sim.system.n,
        run.sim.params.cutoff * 0.5,
    );
    // The replay always runs instrumented: telemetry is observational
    // (every measured number is bit-identical with it off), and the
    // per-link stall/occupancy digest below is the point of this mode —
    // which halo links run hot and why they wait.
    let tcfg = args.telemetry_config;
    let scenario = run_scenario_instrumented(&workload, &cfg, params, offered, 7, tcfg);
    let p = &scenario.point;
    let resp = p.response.expect("halo replay spawns force returns");
    outln!(
        "delivered {:.3} flits/node/cycle ({:.3} position requests / {:.3} force returns), \
         mean hops {:.2} req / {:.2} rsp",
        p.delivered,
        p.request.delivered,
        resp.delivered,
        p.request.mean_hops,
        resp.mean_hops
    );
    let mut total = LinkStats::default();
    for s in 0..SLICES {
        total.merge(&scenario.fabric.slice_stats(s));
    }
    assert!(
        total.kinds_conserve_wire(),
        "per-kind bytes must cover every wire byte"
    );
    assert!(
        total.other_bytes == 0,
        "halo replay carries only typed traffic"
    );
    outln!(
        "machine-wide wire bytes: {} position + {} force = {} total (conservation OK)",
        total.position_bytes,
        total.force_bytes,
        total.wire_bytes
    );
    // One equal-size force return per delivered export, but responses
    // ride XYZ mesh routes while requests ride torus-minimal ones — so
    // the wire-byte ratio (bytes count once per link crossed) tracks
    // the mean-hop ratio of the two classes. Neither is a paper number.
    outln!(
        "force/position wire-byte ratio {:.2}, response/request mean-hop ratio {:.2}",
        total.force_bytes as f64 / total.position_bytes.max(1) as f64,
        resp.mean_hops / p.request.mean_hops
    );
    print_telemetry(&scenario.fabric);
    write_telemetry_artifacts(&scenario.fabric, args);
}

/// A constructed-memory audit as `<MiB> MiB total, <B> bytes/router
/// (separable route tables: <B> bytes)`.
fn memory_summary(report: &FabricMemoryReport) -> String {
    format!(
        "{:.1} MiB total, {} bytes/router (separable route tables: {} bytes)",
        report.total_bytes as f64 / (1024.0 * 1024.0),
        report.bytes_per_router,
        report.route_table_bytes
    )
}

/// A time-budgeted 16x16x16 (4096-node) smoke: prints the constructed
/// fabric's bytes/router memory audit, and that of a fresh 32x32x32
/// fabric it drops without stepping, then runs one short mid-load
/// uniform-random sweep point (responses on) through the standard
/// scenario driver. The separable route tables are what make this shape
/// routine — the old quadratic tables would need 100+ MB here and fell
/// back to per-hop computed routes above 1024 nodes. Honors `--shards`
/// and `--threads` like every other mode; with `--telemetry`, an
/// instrumented companion point prints the stall digest (the
/// activity-lazy epoch rings keep that affordable at this link count).
fn mega_smoke(params: FabricParams, args: &Args) {
    let dims = Mode::MegaSmoke.dims();
    let mut cfg = SweepConfig::new(dims);
    cfg.shards = args.shards;
    cfg.lookahead = args.lookahead;
    cfg.loads = vec![0.05];
    cfg.warmup_cycles = 800;
    cfg.measure_cycles = 800;
    cfg.drain_cycles = 10_000;
    let cfg = checked(cfg);
    let torus = Torus::new(dims);
    let report = TorusFabric::new(torus, params).memory_report();
    outln!(
        "MEGA SMOKE. {}x{}x{} torus ({} nodes), responses on",
        dims[0],
        dims[1],
        dims[2],
        report.nodes
    );
    eprintln!(
        "mega smoke: {} thread(s), {} shard(s)",
        args.threads, args.shards
    );
    outln!("constructed fabric memory: {}", memory_summary(&report));
    // README's 32³ row: the fabric is dropped at the end of the statement.
    let big = TorusFabric::new(Torus::new([32, 32, 32]), params).memory_report();
    outln!(
        "constructed 32x32x32 fabric memory: {}",
        memory_summary(&big)
    );
    let report = run_sweep_threaded(&[Box::new(UniformRandom)], &cfg, params, args.threads);
    let p = report.curves[0].points.last().expect("mega point");
    outln!(
        "offered {:.2}: delivered {:.3} total ({:.3} request / {:.3} response), \
         slices {:.3}/{:.3}, {} backpressure rejections",
        p.offered,
        p.delivered,
        p.request.delivered,
        p.response.expect("respond mode").delivered,
        p.slice_delivered[0],
        p.slice_delivered[1],
        p.backpressure_rejections
    );
    assert!(
        p.delivered > 0.02,
        "a light-load 16x16x16 must move traffic (routing or scale regression?)"
    );
    assert!(
        p.slice_delivered[0] > 0.0 && p.slice_delivered[1] > 0.0,
        "both channel slices must carry traffic"
    );
    outln!("mega smoke: PASS");
    if let Some(tcfg) = args.telemetry() {
        let workload = SyntheticWorkload::new(&UniformRandom, cfg.flits_per_packet, cfg.respond);
        let run = run_scenario_instrumented(&workload, &cfg, params, 0.15, 1, tcfg);
        print_telemetry(&run.fabric);
        write_telemetry_artifacts(&run.fabric, args);
    }
}

/// A short 8x8x8 overload exercise: one saturated sweep point with both
/// traffic classes, then a drain check through the same scenario driver
/// — if the dateline VCs or the request/response class split ever
/// admitted a dependency cycle, the drain would never finish and this
/// smoke would fail CI.
fn overload_smoke(params: FabricParams, args: &Args) {
    let dims = Mode::OverloadSmoke.dims();
    let mut cfg = SweepConfig::new(dims);
    cfg.shards = args.shards;
    cfg.lookahead = args.lookahead;
    // Two points so `--threads 2` genuinely runs concurrent workers at
    // 512-node scale (a single point would clamp the pool to one): a
    // mid-load companion rides along, and the overload point under test
    // stays last.
    cfg.loads = vec![0.45, 0.9];
    cfg.warmup_cycles = 300;
    cfg.measure_cycles = 900;
    cfg.drain_cycles = 6_000;
    let cfg = checked(cfg);
    // The drain check's point (see below), checked before any work too.
    let drain = checked(SweepConfig {
        warmup_cycles: 0,
        measure_cycles: 2_000,
        drain_cycles: 400_000,
        ..cfg.clone()
    });
    outln!(
        "OVERLOAD SMOKE. {}x{}x{} torus ({} nodes), responses on",
        dims[0],
        dims[1],
        dims[2],
        Torus::new(dims).node_count()
    );
    eprintln!(
        "overload smoke: {} thread(s), {} shard(s)",
        args.threads, args.shards
    );
    let report = run_sweep_threaded(&[Box::new(UniformRandom)], &cfg, params, args.threads);
    let p = report.curves[0].points.last().expect("overload point");
    outln!(
        "offered {:.2}: delivered {:.3} total ({:.3} request / {:.3} response), \
         slices {:.3}/{:.3}, {} backpressure rejections",
        p.offered,
        p.delivered,
        p.request.delivered,
        p.response.expect("respond mode").delivered,
        p.slice_delivered[0],
        p.slice_delivered[1],
        p.backpressure_rejections
    );
    assert!(
        p.delivered > 0.2,
        "an overloaded 8x8x8 must still move traffic (deadlock?)"
    );
    assert!(
        p.slice_delivered[0] > 0.0 && p.slice_delivered[1] > 0.0,
        "both channel slices must carry traffic"
    );

    // Drain check: one warmup-0 scenario point generates 2,000 cycles of
    // offered 1.0 — far past saturation, with every delivered request
    // spawning a response — then stops. With no warmup every packet and
    // every response it spawns is tracked, so the point passes only if
    // both classes deliver everything within the 400k-cycle budget:
    // generous for a live fabric, hopeless for a deadlocked one. Under
    // --telemetry the point records: a genuinely overloaded 512-node
    // machine is the most informative stall picture this binary
    // produces, and CI uploads the summary artifact from here.
    let workload = SyntheticWorkload::new(&UniformRandom, drain.flits_per_packet, drain.respond);
    let telemetry = args.telemetry();
    let run = match telemetry {
        Some(tcfg) => run_scenario_instrumented(&workload, &drain, params, 1.0, 0xDEAD, tcfg),
        None => run_scenario(&workload, &drain, params, 1.0, 0xDEAD),
    };
    let (req, resp) = (run.point.request, run.point.response.expect("respond mode"));
    assert!(
        req.packets_incomplete == 0 && resp.packets_incomplete == 0 && run.fabric.occupancy() == 0,
        "8x8x8 overload did not drain: {} requests and {} responses undelivered, \
         {} flits resident",
        req.packets_incomplete,
        resp.packets_incomplete,
        run.fabric.occupancy()
    );
    outln!(
        "drain check: PASS ({} requests + {} responses delivered, fabric empty at cycle {})",
        req.packets_measured,
        resp.packets_measured,
        run.fabric.cycle()
    );
    eprintln!(
        "drain check: {} sync ops / {} epochs",
        run.fabric.sync_ops(),
        run.fabric.epochs()
    );
    // The loaded audit depends on the shard count (each shard has its
    // own arrival wheel), so it stays off the compared stdout.
    let memory = run.fabric.memory_report();
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    eprintln!(
        "drain check memory: {:.1} MiB total, {} bytes/router \
         (flit slabs {:.1} MiB, scheduling {:.1} MiB)",
        mib(memory.total_bytes),
        memory.bytes_per_router,
        mib(memory.breakdown.flit_slabs),
        mib(memory.breakdown.scheduling)
    );
    if telemetry.is_some() {
        print_telemetry(&run.fabric);
        write_telemetry_artifacts(&run.fabric, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args)
    }

    fn mode_of(args: &[&str]) -> Result<Mode, String> {
        parse(args).map(|a| a.mode)
    }

    #[test]
    fn known_flags_pass() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.threads, a.shards, a.lookahead), (1, 1, None));
        assert_eq!(a.telemetry(), None);
        let a = parse(&["--quick", "--threads", "2", "--json"]).unwrap();
        assert!(a.quick && a.json && a.threads == 2);
        let a = parse(&["--shards", "3", "--lookahead", "1", "--epoch-cycles", "512"]).unwrap();
        assert_eq!((a.shards, a.lookahead), (3, Some(1)));
        assert_eq!(a.telemetry_config.epoch_cycles, 512);
        assert_eq!(
            a.telemetry(),
            None,
            "an epoch length alone requests nothing"
        );
        let a = parse(&["--telemetry-out", "t.json", "--epoch-ring", "8"]).unwrap();
        let tcfg = a.telemetry().expect("--telemetry-out implies telemetry");
        assert_eq!((tcfg.epoch_ring, tcfg.trace), (8, false));
        let a = parse(&["--trace-out", "t.jsonl"]).unwrap();
        assert!(a.telemetry().expect("--trace-out implies telemetry").trace);
        assert!(!a.help);
        let a = parse(&["--help"]).unwrap();
        assert!(a.help && a.mode == Mode::Sweep);
        assert!(
            parse(&["--md-replay", "--shards", "2", "--help"])
                .unwrap()
                .help
        );
    }

    #[test]
    fn help_is_refused_beside_a_bad_argument_and_names_every_flag() {
        // `--help` is a switch like any other: a bad argument beside it,
        // before or after, is still refused.
        for args in [&["--help", "--quik"][..], &["--quik", "--help"]] {
            assert!(parse(args)
                .unwrap_err()
                .starts_with("unknown argument `--quik`"));
        }
        assert_eq!(
            parse(&["--help", "--help"]),
            Err("--help is given twice".into())
        );
        assert!(parse(&["--help", "--threads", "0"]).is_err());
        let text = usage();
        assert!(
            text.starts_with("usage: sweep_traffic [FLAG]...\n"),
            "{text}"
        );
        for (flag, help) in SWITCHES.iter().chain(VALUED) {
            let lines: Vec<_> = text.lines().filter(|l| l.contains(help)).collect();
            assert_eq!(lines.len(), 1, "{flag}: {text}");
            assert!(lines[0].trim_start().starts_with(flag), "{flag}: {text}");
        }
        let modes = text.find("modes (").expect("a mode list");
        let switches = text.find("switches:").expect("a switch list");
        for (flag, _) in MODES {
            assert!(text[modes..switches].contains(flag), "{flag} is a mode");
        }
    }

    #[test]
    fn unknown_arguments_and_missing_values_are_rejected() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        let typo = err(&["--quik"]);
        assert!(typo.starts_with("unknown argument `--quik`"), "{typo}");
        assert!(typo.ends_with(&format!("known flags: {}", known_flags())));
        assert!(known_flags().starts_with("--json, --quick, --md-replay"));
        assert!(err(&["--calibrate"]).starts_with("unknown argument `--calibrate`"));
        assert!(known_flags().ends_with("--epoch-ring VALUE, --trace-out VALUE"));
        assert!(err(&["--json", "stray"]).starts_with("unknown argument `stray`"));
        assert!(err(&["--threads"]).starts_with("--threads takes a value"));
        assert!(err(&["--threads", "--json"]).starts_with("--threads takes a value"));
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_arguments_are_refused_not_converted() {
        use std::os::unix::ffi::OsStringExt;
        let os = |a: &[u8]| OsString::from_vec(a.to_vec());
        assert_eq!(
            utf8_args([os(b"--quick"), os(b"--telemetry-out"), os(b"t.json")]),
            Ok(vec![
                "--quick".into(),
                "--telemetry-out".into(),
                "t.json".into()
            ])
        );
        assert_eq!(
            utf8_args([os(b"--quick"), os(b"--telemetry-out"), os(b"/tmp/x\xff")]),
            Err(r#"argument "/tmp/x\xFF" is not UTF-8"#.into())
        );
        assert_eq!(
            utf8_args([os(b"\xff")]),
            Err(r#"argument "\xFF" is not UTF-8"#.into())
        );
    }

    #[test]
    fn bad_values_and_repeated_flags_are_refused() {
        let not_positive =
            |flag: &str, v: &str| format!("{flag} takes a positive integer, not `{v}`");
        let cases: [(&[&str], String); 10] = [
            (&["--threads", "0"], not_positive("--threads", "0")),
            (&["--threads", "x"], not_positive("--threads", "x")),
            (&["--shards", "0"], not_positive("--shards", "0")),
            (&["--lookahead", "0"], not_positive("--lookahead", "0")),
            // A value is checked whether or not the mode reads it.
            (
                &["--quick", "--telemetry", "--epoch-cycles", "0"],
                not_positive("--epoch-cycles", "0"),
            ),
            (
                &["--quick", "--epoch-cycles", "0"],
                not_positive("--epoch-cycles", "0"),
            ),
            (
                &["--md-replay", "--epoch-ring", "0"],
                not_positive("--epoch-ring", "0"),
            ),
            (
                &["--quick", "--json", "--threads", "2", "--threads", "1"],
                "--threads is given twice".into(),
            ),
            (
                &["--threads", "2", "--threads", "3"],
                "--threads is given twice".into(),
            ),
            (&["--json", "--json"], "--json is given twice".into()),
        ];
        for (args, want) in cases {
            assert_eq!(parse(args), Err(want), "{args:?}");
        }
    }

    #[test]
    fn at_most_one_mode_is_selected() {
        assert_eq!(mode_of(&[]), Ok(Mode::Sweep));
        assert_eq!(mode_of(&["--quick", "--threads", "2"]), Ok(Mode::Sweep));
        for (flag, expect) in MODES {
            assert!(
                names(SWITCHES).any(|s| s == flag),
                "{flag} must pass the flag check"
            );
            assert_eq!(
                mode_of(&["--lookahead", "2", flag, "--shards", "2"]),
                Ok(expect)
            );
            assert_eq!(
                mode_of(&[flag, flag]),
                Err(format!("{flag} is given twice")),
                "a repeated mode flag is refused like any repeated flag"
            );
        }
        let err = mode_of(&["--md-replay", "--overload-smoke"]).unwrap_err();
        assert_eq!(
            err,
            "give at most one mode, not --md-replay and --overload-smoke"
        );
        assert!(mode_of(&["--mega-smoke", "--overload-smoke", "--md-replay"]).is_err());
    }

    #[test]
    fn a_mode_refuses_the_flags_it_does_not_read() {
        let refused = |args: &[&str], mode: &str, flag: &str| {
            let want = Err(format!("{mode} does not read {flag}"));
            assert_eq!(parse(args), want, "{args:?}");
        };
        for (mode, _) in MODES {
            refused(&[mode, "--json"], mode, "--json");
            refused(&["--quick", mode], mode, "--quick");
            refused(&["--help", mode, "--json"], mode, "--json");
        }
        refused(
            &["--md-replay", "--threads", "2"],
            "--md-replay",
            "--threads",
        );
        // Each mode reads its listed flags, and only known non-mode ones.
        assert_eq!(READS.map(|(m, _)| m), MODES.map(|(m, _)| m));
        for (mode, _) in READS {
            for flag in reads(mode) {
                let valued = names(VALUED).any(|v| v == flag);
                assert!(valued || names(SWITCHES).any(|s| s == flag), "{flag}");
                assert!(MODES.iter().all(|&(m, _)| m != flag), "{flag}");
                let args = [mode, flag, "2"];
                let args = if valued { &args[..] } else { &args[..2] };
                assert!(parse(args).is_ok(), "{args:?}");
            }
        }
    }

    #[test]
    fn an_output_path_under_a_missing_directory_is_refused() {
        for flag in ["--telemetry-out", "--trace-out"] {
            let args = parse(&["--md-replay", flag, "/nonexistent/dir/t.json"]).unwrap();
            let e = open_outputs(&args).unwrap_err();
            assert!(
                e.starts_with("cannot write /nonexistent/dir/t.json: "),
                "{flag}: {e}"
            );
        }
        let path = std::env::temp_dir().join(format!("sweep_traffic_{}.json", std::process::id()));
        let path = path.to_str().expect("a UTF-8 temporary path");
        let args = parse(&["--md-replay", "--telemetry-out", path]).unwrap();
        assert_eq!(open_outputs(&args), Ok(()));
        std::fs::remove_file(path).expect("the path was created");
    }

    #[test]
    fn shards_beyond_the_modes_routers_are_refused() {
        // Each mode's router count, from the torus it runs.
        let cases = [
            (&["--quick"][..], 128, "4x4x8"),
            (&["--md-replay"], 128, "4x4x8"),
            (&["--overload-smoke"], 512, "8x8x8"),
            (&["--mega-smoke"], 4096, "16x16x16"),
        ];
        for (mode, routers, shape) in cases {
            let with = |shards: usize| {
                let n = shards.to_string();
                parse(&[mode, &["--shards", n.as_str()][..]].concat())
            };
            assert_eq!(with(routers).map(|a| a.shards), Ok(routers), "{mode:?}");
            assert_eq!(
                with(routers + 1),
                Err(format!(
                    "--shards {} is more than the {routers} routers of this mode's {shape} torus",
                    routers + 1
                )),
                "{mode:?}"
            );
        }
    }
}
