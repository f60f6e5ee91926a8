//! Offered-load scenarios: latency–throughput curves over the cycle
//! fabric, generic over [`Workload`].
//!
//! [`run_scenario`] is the one driver every harness shares. For each
//! offered load (request flits per node per cycle), every node runs a
//! Bernoulli opportunity generator; at each opportunity the workload
//! emits fully drawn [`anton_net::fabric3d::PacketSpec`]s, which queue
//! per node and class and inject through the single
//! [`TorusFabric::inject`] endpoint as credits allow. Because the spec
//! carries its routing draw, a blocked injection retries the *same*
//! spec — a rejection never falls back to the other channel slice, so
//! backpressure cannot bias the oblivious randomization toward
//! uncongested slices or VCs.
//!
//! Deliveries feed the workload's completion hook, which is how
//! force-return protocols spawn responses (same-size replies on the
//! response class, slice drawn at spawn time from the destination
//! node's stream). After a warmup window, packets generated during the
//! measurement window (and the follow-ons they spawn) are tracked to
//! delivery; the scenario reports delivered throughput and latency
//! **per traffic class and per channel slice**, plus a low-load
//! cross-check of the per-hop constant against the analytic
//! [`anton_net::path`] model the fabric was calibrated from. With no
//! warmup every packet is tracked, so a point whose classes report no
//! incomplete packets has drained the fabric — the overload/drain
//! checks (`sweep_traffic --overload-smoke`, the class-drain property
//! test) are exactly such points.
//!
//! [`run_point`] is the thin synthetic-pattern wrapper (a
//! [`SyntheticWorkload`] over one [`TrafficPattern`]); it preserves the
//! draw-for-draw behavior the loaded-latency calibration constants were
//! fitted against.
//!
//! Everything is deterministic under the configured seed: node streams
//! are split from one root [`SplitMix64`], and the fabric itself is
//! seed-free. That determinism is per *point*, not per run: each
//! offered-load point derives its RNG stream from `(seed, stream)`
//! alone, so independent points can run on [`std::thread::scope`]
//! workers ([`run_curve_threaded`] / [`run_sweep_threaded`]) and the
//! assembled report — down to every floating-point digit of the JSON —
//! is identical at any worker count, including one.
//!
//! Scenario drains fast-forward: once generation has stopped and every
//! source queue is empty, the driver advances the fabric event to event
//! ([`TorusFabric::step_next_event`]) instead of cycle by cycle — the
//! skipped cycles are provably no-ops, so the statistics are bit-
//! identical to per-cycle stepping, just cheaper. [`run_scenario_with`]
//! can instead drive the retained naive reference stepper
//! ([`Stepper::Reference`]), which the committed benchmark's traced run
//! uses to measure the event-driven core's speedup on identical work.

use crate::patterns::TrafficPattern;
use crate::workload::{SyntheticWorkload, Workload};
use anton_model::topology::{NodeId, Torus};
use anton_model::units::PS_PER_CORE_CYCLE;
use anton_net::channel::ByteKind;
use anton_net::fabric3d::{
    decode_tag, FabricParams, PacketSpec, TorusFabric, TrafficClass, SLICES,
};
use anton_net::router::InjectError;
use anton_net::routing;
use anton_net::telemetry::TelemetryConfig;
use anton_sim::rng::SplitMix64;
use anton_sim::stats::{Accumulator, LogHistogram};
use serde::Serialize;
use std::collections::VecDeque;

/// Version of the [`SweepReport`] JSON schema. Bumped whenever the
/// report shape changes; archived sweeps carry it so downstream tooling
/// can tell what it is reading. Version 1 was the unversioned pre-
/// telemetry shape; version 2 added `schema_version`, the [`ConfigEcho`]
/// block, and per-curve [`LatencySummary`] aggregates; version 3 added
/// the echo's `sync_ops`/`epochs` synchronization counters and the
/// config's lookahead-window knob.
pub const SWEEP_SCHEMA_VERSION: u32 = 3;

/// Self-describing run echo embedded in every [`SweepReport`]: the
/// inputs that determine the artifact byte for byte (`seed`, `dims`)
/// plus the execution knobs and costs that provably do *not* —
/// `threads` (the report is byte-identical at any worker count),
/// `epoch_cycles` (the telemetry epoch length, 0 when telemetry was
/// off), and the epoch kernel's `sync_ops`/`epochs` totals, which
/// surface barrier-frequency regressions in reports without changing a
/// single measured byte.
#[derive(Clone, Debug, Serialize)]
pub struct ConfigEcho {
    /// Root RNG seed ([`SweepConfig::seed`]).
    pub seed: u64,
    /// Torus extents ([`SweepConfig::dims`]).
    pub dims: [u8; 3],
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Telemetry epoch length in cycles; 0 when telemetry was disabled.
    pub epoch_cycles: u64,
    /// Synchronization operations (pool launches + epoch barriers),
    /// summed over every point fabric in the sweep; 0 at one shard,
    /// where epochs run inline.
    pub sync_ops: u64,
    /// Lookahead epochs executed, summed over every point fabric, at
    /// any shard count.
    pub epochs: u64,
}

/// Configuration of one latency–throughput sweep.
#[derive(Clone, Debug, Serialize)]
pub struct SweepConfig {
    /// Torus extents.
    pub dims: [u8; 3],
    /// Flits per packet (the paper's packets are one or two flits);
    /// responses carry the same flit count as the requests they answer.
    pub flits_per_packet: u8,
    /// Cycles of warmup before the measurement window opens.
    pub warmup_cycles: u64,
    /// Cycles of the measurement window.
    pub measure_cycles: u64,
    /// Maximum extra cycles to wait for window packets to drain.
    pub drain_cycles: u64,
    /// Root seed; every node stream and routing draw derives from it.
    pub seed: u64,
    /// Offered loads to sweep, in request flits per node per cycle.
    pub loads: Vec<f64>,
    /// Whether every delivered request spawns a response back to its
    /// source (force-return traffic). Responses ride their own VC and
    /// roughly double the carried load at a given offered rate.
    pub respond: bool,
    /// Worker shards the fabric step is partitioned across
    /// ([`TorusFabric::set_shards`]); 1 runs the epoch kernel inline on
    /// the calling thread. Sharding is an execution strategy, not a
    /// model parameter: every measurement is bit-identical at any shard
    /// count.
    pub shards: usize,
    /// Cap on the epoch kernel's lookahead window at every shard count,
    /// 1 included ([`TorusFabric::set_shards_with_lookahead`]): `None`
    /// uses the structural window (the minimum positive link latency),
    /// `Some(1)` degenerates to one-cycle epochs. Like `shards`, an
    /// execution knob — measurements are bit-identical at any window.
    pub lookahead: Option<u64>,
}

impl SweepConfig {
    /// A standard sweep over `dims` with the default windows, seed, load
    /// axis, and request→response traffic enabled.
    pub fn new(dims: [u8; 3]) -> Self {
        SweepConfig {
            dims,
            flits_per_packet: 2,
            warmup_cycles: 3_000,
            measure_cycles: 6_000,
            drain_cycles: 40_000,
            seed: 0xA3_70_03,
            loads: Self::default_loads(),
            respond: true,
            shards: 1,
            lookahead: None,
        }
    }

    /// The default offered-load axis: dense enough to show the knee.
    pub fn default_loads() -> Vec<f64> {
        vec![0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    }

    /// The loaded-latency calibration workload: uniform random requests
    /// (no responses) on the paper's 128-node 4×4×8 machine, with an
    /// empty load axis for the caller to fill. Shared verbatim by
    /// `sweep_traffic --calibrate` (which fits the analytic contention
    /// constants from it) and the regression test that pins them, so
    /// the fit and the check can never drift apart.
    pub fn calibration_4x4x8() -> Self {
        SweepConfig {
            dims: [4, 4, 8],
            flits_per_packet: 2,
            warmup_cycles: 1_500,
            measure_cycles: 3_000,
            drain_cycles: 30_000,
            seed: 0xCA11B,
            loads: vec![],
            respond: false,
            shards: 1,
            lookahead: None,
        }
    }

    /// The machine-scale loaded-latency calibration workload: uniform
    /// random requests on the 512-node 8x8x8 machine (the CI overload
    /// shape), windows sized so the regression test that pins the
    /// shipped `UNIFORM_8X8X8` constants stays affordable at cycle
    /// level. Shared verbatim by `sweep_traffic --calibrate` and that
    /// regression, exactly like [`Self::calibration_4x4x8`].
    pub fn calibration_8x8x8() -> Self {
        SweepConfig {
            dims: [8, 8, 8],
            warmup_cycles: 1_000,
            measure_cycles: 2_000,
            ..Self::calibration_4x4x8()
        }
    }
}

/// Measurements for one traffic class at one offered load.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ClassPoint {
    /// Delivered throughput of this class, flits per node per cycle,
    /// over the measurement window.
    pub delivered: f64,
    /// Tracked packets of this class.
    pub packets_measured: u64,
    /// Tracked packets still undelivered when the drain budget expired.
    pub packets_incomplete: u64,
    /// Mean generation(or spawn)-to-delivery latency in cycles.
    pub mean_latency_cycles: f64,
    /// Median latency in cycles.
    pub p50_latency_cycles: f64,
    /// 99th-percentile latency in cycles.
    pub p99_latency_cycles: f64,
    /// Mean latency in nanoseconds at the 2.8 GHz core clock.
    pub mean_latency_ns: f64,
    /// Mean injection-to-delivery (network-only) latency in cycles.
    pub mean_network_latency_cycles: f64,
    /// Mean route hop count of measured packets (torus-minimal for
    /// requests, mesh XYZ for responses).
    pub mean_hops: f64,
}

/// Measurements at one offered load.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LoadPoint {
    /// Offered request load, flits per node per cycle.
    pub offered: f64,
    /// Request flits per node per cycle actually generated in the window
    /// (equal to offered for always-on patterns; lower for duty-cycled
    /// ones like fence-storm).
    pub generated: f64,
    /// Delivered throughput over all classes, flits per node per cycle.
    pub delivered: f64,
    /// The request class curve point.
    pub request: ClassPoint,
    /// The response class curve point (present when the sweep ran with
    /// [`SweepConfig::respond`]).
    pub response: Option<ClassPoint>,
    /// Delivered throughput per channel slice (all classes), flits per
    /// node per cycle — near-equal halves when the slice draw is fair.
    pub slice_delivered: [f64; SLICES],
    /// Per-hop latency inferred from the request-class network latency
    /// and hop counts, in nanoseconds, with the tail-flit slice
    /// serialization lag removed — converges to the analytic constant at
    /// low load.
    pub measured_per_hop_ns: f64,
    /// Injection attempts (either class) refused by fabric credits
    /// during the window.
    pub backpressure_rejections: u64,
    /// Whether this point is past saturation (incomplete packets or
    /// request throughput notably below offered).
    pub saturated: bool,
}

/// Mergeable latency statistics of one scenario — or of many, via
/// [`LatencyStats::merge`]: log-bucketed histograms
/// ([`LogHistogram`]) per traffic class and per [`ByteKind`], plus
/// moment accumulators ([`Accumulator`]) alongside each histogram.
/// Merging is order-independent on the histograms and counters, so
/// `run_sweep_threaded` workers can each fill their own copy and the
/// harness folds them together afterward; the harness still merges in
/// point order so the floating-point moment sums are byte-stable too.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    /// Generation-to-delivery latency histograms, indexed `[request,
    /// response]`.
    pub class_hist: [LogHistogram; 2],
    /// Latency histograms per [`ByteKind`] counter index
    /// ([`ByteKind::index`]), for the Figure 9a payload-typed view.
    pub kind_hist: [LogHistogram; 3],
    /// Moment accumulators per class, same indexing as `class_hist`.
    pub class_moments: [Accumulator; 2],
    /// Moment accumulators per [`ByteKind`], same indexing as
    /// `kind_hist`.
    pub kind_moments: [Accumulator; 3],
}

impl LatencyStats {
    /// Records one delivered packet's generation-to-delivery latency
    /// under its traffic class and payload [`ByteKind`].
    pub fn record(&mut self, class: TrafficClass, kind: ByteKind, latency_cycles: u64) {
        let k = (class == TrafficClass::Response) as usize;
        self.class_hist[k].record(latency_cycles);
        self.class_moments[k].add(latency_cycles as f64);
        self.kind_hist[kind.index()].record(latency_cycles);
        self.kind_moments[kind.index()].add(latency_cycles as f64);
    }

    /// Folds another scenario's statistics into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        for (dst, src) in self.class_hist.iter_mut().zip(&other.class_hist) {
            dst.merge(src);
        }
        for (dst, src) in self.kind_hist.iter_mut().zip(&other.kind_hist) {
            dst.merge(src);
        }
        for (dst, src) in self.class_moments.iter_mut().zip(&other.class_moments) {
            dst.merge(src);
        }
        for (dst, src) in self.kind_moments.iter_mut().zip(&other.kind_moments) {
            dst.merge(src);
        }
    }

    /// The serializable summary of one traffic class.
    pub fn class_summary(&self, class: TrafficClass) -> LatencySummary {
        let k = (class == TrafficClass::Response) as usize;
        summarize(&self.class_hist[k], &self.class_moments[k])
    }

    /// The serializable summary of one payload [`ByteKind`].
    pub fn kind_summary(&self, kind: ByteKind) -> LatencySummary {
        summarize(
            &self.kind_hist[kind.index()],
            &self.kind_moments[kind.index()],
        )
    }
}

fn summarize(hist: &LogHistogram, moments: &Accumulator) -> LatencySummary {
    LatencySummary {
        samples: hist.count(),
        mean_cycles: if moments.count() > 0 {
            moments.mean()
        } else {
            0.0
        },
        stddev_cycles: if moments.count() > 0 {
            moments.stddev()
        } else {
            0.0
        },
        p50_cycles: hist.quantile(0.50) as f64,
        p99_cycles: hist.quantile(0.99) as f64,
        max_cycles: hist.max().unwrap_or(0),
    }
}

/// Latency aggregate serialized per curve: the histogram quantiles and
/// accumulator moments of every tracked delivery across the whole load
/// axis. Quantiles come from a [`LogHistogram`], so they are exact
/// below 64 cycles and within one sub-bucket (≤ 3.2% relative) above.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencySummary {
    /// Delivered tracked packets contributing samples.
    pub samples: u64,
    /// Mean latency in cycles (0 when empty).
    pub mean_cycles: f64,
    /// Population standard deviation in cycles (0 when empty).
    pub stddev_cycles: f64,
    /// Histogram-derived median, cycles (0 when empty).
    pub p50_cycles: f64,
    /// Histogram-derived 99th percentile, cycles (0 when empty).
    pub p99_cycles: f64,
    /// Exact observed maximum, cycles (0 when empty).
    pub max_cycles: u64,
}

/// One pattern's full latency–throughput curve.
#[derive(Clone, Debug, Serialize)]
pub struct PatternCurve {
    /// Pattern name.
    pub pattern: String,
    /// One entry per offered load.
    pub points: Vec<LoadPoint>,
    /// Request-class latency aggregate over every point of the curve,
    /// merged from the per-point histograms in point order.
    pub request_latency: LatencySummary,
    /// Response-class latency aggregate (all zero when the sweep never
    /// carried responses).
    pub response_latency: LatencySummary,
}

impl LoadPoint {
    /// The per-class curve point, if this sweep carried that class
    /// (requests always; responses only under [`SweepConfig::respond`]
    /// or a spawning workload).
    pub fn class_point(&self, class: TrafficClass) -> Option<&ClassPoint> {
        match class {
            TrafficClass::Request => Some(&self.request),
            TrafficClass::Response => self.response.as_ref(),
        }
    }
}

impl PatternCurve {
    /// The maximum of `f` over the curve — the saturation shape shared
    /// by the total and per-class throughput accessors; 0.0 for an
    /// empty curve.
    fn peak(&self, f: impl Fn(&LoadPoint) -> f64) -> f64 {
        self.points.iter().map(f).fold(0.0, f64::max)
    }

    /// The delivered throughput at saturation: the maximum over the curve
    /// (delivered throughput is non-decreasing until the knee, flat or
    /// falling after). Returns 0.0 for an empty curve.
    pub fn saturation_throughput(&self) -> f64 {
        self.peak(|p| p.delivered)
    }

    /// The saturation throughput of one traffic class (the request
    /// value is what the offered axis and the loaded-latency
    /// calibration are expressed against). Returns 0.0 for an empty
    /// curve or a class the sweep never carried.
    pub fn class_saturation_throughput(&self, class: TrafficClass) -> f64 {
        self.peak(|p| p.class_point(class).map_or(0.0, |c| c.delivered))
    }
}

/// A full multi-pattern sweep report (the JSON artifact).
#[derive(Clone, Debug, Serialize)]
pub struct SweepReport {
    /// Report schema version ([`SWEEP_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Self-describing run echo (seed, dims, threads, epoch length).
    pub echo: ConfigEcho,
    /// Sweep configuration echo.
    pub config: SweepConfig,
    /// Calibrated router pipeline cycles per hop.
    pub router_cycles: u64,
    /// Calibrated link flight cycles per hop.
    pub link_latency_cycles: u64,
    /// Calibrated per-slice serialization interval in cycles.
    pub slice_interval_cycles: u64,
    /// The analytic per-hop constant the fabric was calibrated to, ns.
    pub analytic_per_hop_ns: f64,
    /// One curve per traffic pattern.
    pub curves: Vec<PatternCurve>,
}

/// Which fabric stepper a scenario drives: the event-driven production
/// path, or the retained naive reference stepper
/// ([`TorusFabric::step_reference`]) it is held bit-identical to. The
/// reference mode also forgoes the drain fast-forward, so it prices the
/// pre-worklist simulator on exactly the same workload — the committed
/// benchmark's traced run times one scenario in each mode and checks
/// the measured points are equal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stepper {
    /// The production event-driven core (`TorusFabric::step` +
    /// event-to-event drain fast-forward).
    Event,
    /// The retained naive full-scan stepper, cycle by cycle.
    Reference,
}

/// Per-packet bookkeeping (indexed by packet id, parallel to the spec
/// table).
#[derive(Clone, Copy)]
struct PacketInfo {
    generated_at: u64,
    injected_at: u64,
    delivered_at: u64,
    hops: u32,
    tracked: bool,
}

const PENDING: u64 = u64::MAX;

/// One finished scenario: the measured load point plus the fabric it
/// ran on, so callers can read the per-link, per-slice, per-[`ByteKind`]
/// traffic counters ([`TorusFabric::link_stats`] and friends) after the
/// drain — the MD replay harness reconciles its Figure 9a byte typing
/// from exactly this.
///
/// [`ByteKind`]: anton_net::channel::ByteKind
pub struct ScenarioRun {
    /// The measured curve point.
    pub point: LoadPoint,
    /// The fabric after the run, counters intact (including its
    /// [`anton_net::telemetry::Telemetry`] state when the scenario ran
    /// via [`run_scenario_instrumented`]).
    pub fabric: TorusFabric,
    /// Mergeable latency histograms and moments of every tracked
    /// delivered packet, per class and [`ByteKind`].
    pub stats: LatencyStats,
}

fn class_point(
    delivered: f64,
    measured: u64,
    incomplete: u64,
    hist: &LogHistogram,
    moments: &Accumulator,
    net_sum: f64,
    hop_sum: f64,
) -> ClassPoint {
    let completed = hist.count() as f64;
    let pct = |q: f64| -> f64 { hist.quantile(q) as f64 };
    let mean = if moments.count() > 0 {
        moments.mean()
    } else {
        0.0
    };
    ClassPoint {
        delivered,
        packets_measured: measured,
        packets_incomplete: incomplete,
        mean_latency_cycles: mean,
        p50_latency_cycles: pct(0.50),
        p99_latency_cycles: pct(0.99),
        mean_latency_ns: mean * PS_PER_CORE_CYCLE as f64 / 1000.0,
        mean_network_latency_cycles: if completed > 0.0 {
            net_sum / completed
        } else {
            0.0
        },
        mean_hops: if completed > 0.0 {
            hop_sum / completed
        } else {
            0.0
        },
    }
}

/// Runs one workload at one offered load; `stream` decorrelates the RNG
/// across points while staying reproducible from the config seed. This
/// is the single driver behind every sweep, calibration, replay and
/// drain harness; [`run_point`] wraps it for plain synthetic patterns.
///
/// # Panics
/// Panics if a packet can never inject ([`InjectError::TooLarge`]: more
/// flits than the injection queue holds), instead of counting it as
/// backpressure for the rest of the run.
pub fn run_scenario<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
) -> ScenarioRun {
    run_scenario_with(workload, cfg, params, offered, stream, Stepper::Event)
}

/// [`run_scenario`] with an explicit [`Stepper`] choice — the benchmark
/// entry point for pricing the event-driven core against the retained
/// reference stepper on identical work (both modes produce the same
/// [`LoadPoint`], bit for bit).
pub fn run_scenario_with<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    stepper: Stepper,
) -> ScenarioRun {
    scenario_impl(workload, cfg, params, offered, stream, stepper, None)
}

/// [`run_scenario`] with fabric telemetry enabled for the whole run:
/// stall-cause attribution, per-link epoch time-series, and (when
/// [`TelemetryConfig::trace`] is set) packet lifecycle traces, all
/// readable off [`ScenarioRun::fabric`] afterward — e.g. via
/// [`TorusFabric::telemetry_summary`]. Telemetry recording is purely
/// observational, so the measured [`LoadPoint`] is bit-identical to an
/// uninstrumented [`run_scenario`] of the same arguments.
pub fn run_scenario_instrumented<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    telemetry: TelemetryConfig,
) -> ScenarioRun {
    scenario_impl(
        workload,
        cfg,
        params,
        offered,
        stream,
        Stepper::Event,
        Some(telemetry),
    )
}

fn scenario_impl<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    stepper: Stepper,
    telemetry: Option<TelemetryConfig>,
) -> ScenarioRun {
    assert!(cfg.flits_per_packet >= 1, "packets carry at least one flit");
    assert!(
        (0.0..=1.0 + 1e-9).contains(&offered),
        "offered load {offered} out of range"
    );
    let torus = Torus::new(cfg.dims);
    let mut fabric = TorusFabric::new(torus, params);
    if let Some(tel) = telemetry {
        fabric.enable_telemetry(tel);
    }
    // A freshly built fabric is empty and idle, so the only rejections
    // possible here are bad counts or window caps — configuration
    // errors worth failing loudly on.
    fabric
        .set_shards_with_lookahead(cfg.shards, cfg.lookahead)
        .unwrap_or_else(|e| panic!("cannot shard the sweep fabric: {e}"));
    let n = torus.node_count();
    let nflits = cfg.flits_per_packet;
    let p_packet = offered / nflits as f64;

    let root = SplitMix64::new(cfg.seed).split(stream);
    let mut node_rng: Vec<SplitMix64> = (0..n as u64).map(|i| root.split(i)).collect();
    // Every spec's routing draw is made once — at generation or spawn
    // time, inside the workload — so retried injections resubmit the
    // same spec and backpressure cannot bias the oblivious
    // randomization (in particular a slice-0 rejection must not retry
    // on slice 1). Queues hold packet ids into the spec table; requests
    // and responses queue separately because they inject in class order.
    let mut specs: Vec<PacketSpec> = Vec::new();
    let mut packets: Vec<PacketInfo> = Vec::new();
    let mut req_queues: Vec<VecDeque<u64>> = Vec::new();
    req_queues.resize_with(n, VecDeque::new);
    let mut resp_queues: Vec<VecDeque<u64>> = Vec::new();
    resp_queues.resize_with(n, VecDeque::new);
    let mut emitted: Vec<PacketSpec> = Vec::new(); // workload out-buffer

    let window = cfg.warmup_cycles..cfg.warmup_cycles + cfg.measure_cycles;
    let gen_end = window.end;
    let horizon = gen_end + cfg.drain_cycles;
    let mut outstanding: u64 = 0; // tracked packets not yet delivered
    let mut source_queued: u64 = 0; // packets awaiting injection, all nodes
    let mut window_flits: u64 = 0; // flits delivered inside the window
    let mut class_flits = [0u64; 2]; // [request, response] window flits
    let mut slice_flits = [0u64; SLICES]; // per-slice window flits
    let mut backpressure: u64 = 0;

    // Registers one emitted spec: assigns its id, precomputes its route
    // length for the hop statistics, and queues it at its source.
    let enqueue = |spec: PacketSpec,
                   at: u64,
                   tracked: bool,
                   specs: &mut Vec<PacketSpec>,
                   packets: &mut Vec<PacketInfo>,
                   req_queues: &mut [VecDeque<u64>],
                   resp_queues: &mut [VecDeque<u64>],
                   outstanding: &mut u64,
                   source_queued: &mut u64| {
        let id = specs.len() as u64;
        let spec = PacketSpec { id, ..spec };
        let (src, dst) = (torus.coord(spec.src), torus.coord(spec.dst));
        packets.push(PacketInfo {
            generated_at: at,
            injected_at: PENDING,
            delivered_at: PENDING,
            hops: match spec.class {
                TrafficClass::Request => torus.hop_distance(src, dst),
                TrafficClass::Response => routing::mesh_distance(src, dst),
            },
            tracked,
        });
        if tracked {
            *outstanding += 1;
        }
        *source_queued += 1;
        match spec.class {
            TrafficClass::Request => req_queues[spec.src.index()].push_back(id),
            TrafficClass::Response => resp_queues[spec.src.index()].push_back(id),
        }
        specs.push(spec);
    };

    let spawning = workload.spawns();
    let mut cycle = 0u64;
    while cycle < horizon {
        // Generation: Bernoulli opportunity per node, packets from the
        // workload.
        if cycle < gen_end {
            for (node, rng) in node_rng.iter_mut().enumerate() {
                if rng.next_f64() >= p_packet {
                    continue;
                }
                let src = NodeId(node as u16);
                workload.next_packets(&torus, src, cycle, rng, &mut emitted);
                let tracked = window.contains(&cycle);
                for spec in emitted.drain(..) {
                    debug_assert_eq!(spec.src, src, "workload emitted for the wrong node");
                    enqueue(
                        spec,
                        cycle,
                        tracked,
                        &mut specs,
                        &mut packets,
                        &mut req_queues,
                        &mut resp_queues,
                        &mut outstanding,
                        &mut source_queued,
                    );
                }
            }
        }

        // Injection: head-of-line packet per node and class, as credits
        // allow, each spec resubmitted verbatim until accepted.
        // Responses go first — they ride their own VC, so the two
        // classes contend only for link serialization slots.
        if source_queued > 0 {
            for queue in resp_queues.iter_mut().chain(req_queues.iter_mut()) {
                let Some(&id) = queue.front() else {
                    continue;
                };
                match fabric.inject(specs[id as usize]) {
                    Ok(_plan) => {
                        packets[id as usize].injected_at = cycle;
                        queue.pop_front();
                        source_queued -= 1;
                    }
                    Err(InjectError::NoCredit { .. }) => {
                        if window.contains(&cycle) {
                            backpressure += 1;
                        }
                    }
                    // Retrying could never succeed: the head would block
                    // its source queue for the rest of the run.
                    Err(e) => panic!("{e}"),
                }
            }
        }

        match stepper {
            // Drain phase with empty source queues: no generation draws,
            // no injection attempts — only link events can make progress,
            // so jump event to event. Delivery cycles (and thus every
            // statistic) are identical to per-cycle stepping. A spawning
            // workload must see each delivery the cycle it lands (its
            // follow-on packets enter the source queues that very
            // cycle), so it steps reactively; a non-spawning one only
            // reads the delivery log, so full lookahead windows batch
            // deliveries without changing any recorded time.
            Stepper::Event if cycle >= gen_end && source_queued == 0 => {
                if spawning {
                    fabric.step_next_event(horizon)
                } else {
                    fabric.step_batched(horizon)
                }
            }
            Stepper::Event => fabric.step(),
            Stepper::Reference => fabric.step_reference(),
        }
        cycle = fabric.cycle();

        // Collect deliveries whenever the log is non-empty: a spawning
        // workload may owe follow-on traffic for every tail, and its
        // completion draws must happen at delivery order regardless of
        // the config's response-reporting flag. (All recorded times
        // come from the log's delivery cycles, so for non-spawning
        // workloads collection timing cannot affect the statistics.)
        if !fabric.delivered().is_empty() || cycle >= horizon {
            for (at, flit) in fabric.take_delivered() {
                let tag = decode_tag(flit.tag);
                if window.contains(&at) {
                    window_flits += 1;
                    class_flits[(tag.class == TrafficClass::Response) as usize] += 1;
                    slice_flits[tag.slice] += 1;
                }
                if !flit.is_tail() {
                    continue;
                }
                let id = flit.packet as usize;
                packets[id].delivered_at = at;
                let tracked = packets[id].tracked;
                if tracked {
                    outstanding -= 1;
                }
                // Completion hook: follow-on packets (force returns)
                // spawn at the delivered packet's destination, drawing
                // from that node's stream; they inherit the parent's
                // tracking window.
                let spec = specs[id];
                workload.on_delivered(
                    &torus,
                    &spec,
                    at,
                    &mut node_rng[spec.dst.index()],
                    &mut emitted,
                );
                for spawned in emitted.drain(..) {
                    debug_assert_eq!(
                        spawned.src, spec.dst,
                        "follow-on packets originate at the delivery node"
                    );
                    enqueue(
                        spawned,
                        at,
                        tracked,
                        &mut specs,
                        &mut packets,
                        &mut req_queues,
                        &mut resp_queues,
                        &mut outstanding,
                        &mut source_queued,
                    );
                }
            }
            // Once the window closed and every tracked packet (and the
            // follow-ons it spawned) landed, the point is done — no
            // need to burn the full drain budget.
            if cycle >= gen_end && outstanding == 0 {
                break;
            }
        }
    }

    // Statistics over tracked packets, split by class. Latencies go
    // straight into mergeable log-bucketed histograms — no clone-and-
    // sort pass — so the same stats aggregate across threaded sweep
    // workers by histogram merge.
    let mut stats = LatencyStats::default();
    let mut net_sum = [0f64; 2];
    let mut hop_sum = [0f64; 2];
    let mut measured = [0u64; 2];
    let mut incomplete = [0u64; 2];
    for (info, spec) in packets.iter().zip(&specs).filter(|(i, _)| i.tracked) {
        let k = (spec.class == TrafficClass::Response) as usize;
        measured[k] += 1;
        if info.delivered_at == PENDING {
            incomplete[k] += 1;
            continue;
        }
        stats.record(spec.class, spec.kind, info.delivered_at - info.generated_at);
        net_sum[k] += (info.delivered_at - info.injected_at) as f64;
        hop_sum[k] += info.hops as f64;
    }
    let per_node_cycle = |flits: u64| flits as f64 / (n as f64 * cfg.measure_cycles as f64);
    let request = class_point(
        per_node_cycle(class_flits[0]),
        measured[0],
        incomplete[0],
        &stats.class_hist[0],
        &stats.class_moments[0],
        net_sum[0],
        hop_sum[0],
    );
    let response = (cfg.respond || measured[1] > 0).then(|| {
        class_point(
            per_node_cycle(class_flits[1]),
            measured[1],
            incomplete[1],
            &stats.class_hist[1],
            &stats.class_moments[1],
            net_sum[1],
            hop_sum[1],
        )
    });

    let cycle_ns = PS_PER_CORE_CYCLE as f64 / 1000.0;
    // The analytic per-hop constant is head-flit based; remove the tail
    // flit's slice serialization lag before dividing by the hop count.
    let tail_lag = (nflits - 1) as f64 * params.link_interval as f64;
    let measured_per_hop_ns = if request.mean_hops > 0.0 {
        (request.mean_network_latency_cycles - params.router_cycles as f64 - tail_lag)
            / request.mean_hops
            * cycle_ns
    } else {
        0.0
    };
    let generated = measured[0] as f64 * nflits as f64 / (n as f64 * cfg.measure_cycles as f64);
    let point = LoadPoint {
        offered,
        generated,
        delivered: per_node_cycle(window_flits),
        request,
        response,
        slice_delivered: slice_flits.map(per_node_cycle),
        measured_per_hop_ns,
        backpressure_rejections: backpressure,
        saturated: outstanding > 0 || request.delivered < generated * 0.90 - 1e-3,
    };
    ScenarioRun {
        point,
        fabric,
        stats,
    }
}

/// Runs one synthetic pattern at one offered load: a thin
/// [`run_scenario`] over a [`SyntheticWorkload`] (force-return
/// responses per [`SweepConfig::respond`]).
pub fn run_point(
    pattern: &dyn TrafficPattern,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
) -> LoadPoint {
    run_point_stats(pattern, cfg, params, offered, stream).0
}

/// [`run_point`] keeping the mergeable per-point latency statistics —
/// the curve harnesses fold these into the per-pattern
/// [`LatencySummary`] aggregates — plus the point fabric's
/// `(sync_ops, epochs)` synchronization counters for the report echo.
fn run_point_stats(
    pattern: &dyn TrafficPattern,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
) -> (LoadPoint, LatencyStats, (u64, u64)) {
    let mut workload = SyntheticWorkload::new(pattern, cfg.flits_per_packet, cfg.respond);
    let run = run_scenario(&mut workload, cfg, params, offered, stream);
    let sync = (run.fabric.sync_ops(), run.fabric.epochs());
    (run.point, run.stats, sync)
}

/// Claims indices `0..n` off a shared counter and computes `f(i)` into
/// its slot, on up to `threads` scoped OS threads (work-stealing, so a
/// cheap low-load point never idles a worker while a saturated one
/// drains). Results are ordered by index and each index's computation is
/// independent of the thread that ran it, so the output is identical at
/// any worker count — including the `threads <= 1` path, which runs
/// inline without spawning.
fn parallel_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index is computed")
        })
        .collect()
}

/// Runs a pattern across the whole load axis.
pub fn run_curve(
    pattern: &dyn TrafficPattern,
    cfg: &SweepConfig,
    params: FabricParams,
    stream: u64,
) -> PatternCurve {
    run_curve_threaded(pattern, cfg, params, stream, 1)
}

/// [`run_curve`] with the independent offered-load points distributed
/// over `threads` worker threads. Every point seeds its RNG from
/// `(cfg.seed, stream * 1024 + point index)` exactly as the serial path
/// does, so the curve — and any JSON serialized from it — is
/// byte-identical at any thread count.
pub fn run_curve_threaded(
    pattern: &dyn TrafficPattern,
    cfg: &SweepConfig,
    params: FabricParams,
    stream: u64,
    threads: usize,
) -> PatternCurve {
    let results = parallel_indexed(cfg.loads.len(), threads, |i| {
        run_point_stats(pattern, cfg, params, cfg.loads[i], stream * 1024 + i as u64)
    });
    assemble_curve(pattern.name(), results)
}

/// Folds a point-ordered run into one curve: per-point stats merge
/// into the per-pattern aggregate in point order, so the curve — and
/// its floating-point moment sums — is byte-identical at any worker
/// count.
fn assemble_curve(name: &str, results: Vec<(LoadPoint, LatencyStats, (u64, u64))>) -> PatternCurve {
    let mut agg = LatencyStats::default();
    let mut points = Vec::with_capacity(results.len());
    for (point, stats, _sync) in results {
        agg.merge(&stats);
        points.push(point);
    }
    PatternCurve {
        pattern: name.to_string(),
        points,
        request_latency: agg.class_summary(TrafficClass::Request),
        response_latency: agg.class_summary(TrafficClass::Response),
    }
}

/// Runs every pattern in `patterns` and assembles the report.
pub fn run_sweep(
    patterns: &[Box<dyn TrafficPattern>],
    cfg: &SweepConfig,
    params: FabricParams,
) -> SweepReport {
    run_sweep_threaded(patterns, cfg, params, 1)
}

/// [`run_sweep`] with every (pattern, offered load) point of the whole
/// suite flattened into one task pool over `threads` workers — the
/// per-point RNG streams match the serial nesting (`pattern index + 1`
/// as the curve stream), so the report is byte-identical at any thread
/// count.
pub fn run_sweep_threaded(
    patterns: &[Box<dyn TrafficPattern>],
    cfg: &SweepConfig,
    params: FabricParams,
    threads: usize,
) -> SweepReport {
    let npoints = cfg.loads.len();
    let flat = parallel_indexed(patterns.len() * npoints, threads, |t| {
        let (pi, li) = (t / npoints, t % npoints);
        run_point_stats(
            patterns[pi].as_ref(),
            cfg,
            params,
            cfg.loads[li],
            (pi as u64 + 1) * 1024 + li as u64,
        )
    });
    let (mut sync_ops, mut epochs) = (0u64, 0u64);
    for &(_, _, (s, e)) in &flat {
        sync_ops += s;
        epochs += e;
    }
    let mut flat = flat.into_iter();
    let curves = patterns
        .iter()
        .map(|p| assemble_curve(p.name(), flat.by_ref().take(npoints).collect()))
        .collect();
    SweepReport {
        schema_version: SWEEP_SCHEMA_VERSION,
        echo: ConfigEcho {
            seed: cfg.seed,
            dims: cfg.dims,
            threads,
            epoch_cycles: 0,
            sync_ops,
            epochs,
        },
        config: cfg.clone(),
        router_cycles: params.router_cycles,
        link_latency_cycles: params.link_latency,
        slice_interval_cycles: params.link_interval,
        analytic_per_hop_ns: params.per_hop_time().as_ns(),
        curves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{NearestNeighbor, UniformRandom};
    use anton_model::latency::LatencyModel;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            dims: [2, 2, 4],
            flits_per_packet: 2,
            warmup_cycles: 800,
            measure_cycles: 1_500,
            drain_cycles: 20_000,
            seed: 11,
            loads: vec![],
            respond: false,
            shards: 1,
            lookahead: None,
        }
    }

    fn params() -> FabricParams {
        FabricParams::calibrated(&LatencyModel::default())
    }

    #[test]
    fn low_load_latency_matches_analytic_per_hop() {
        let cfg = small_cfg();
        let p = params();
        let point = run_point(&UniformRandom, &cfg, p, 0.02, 1);
        assert!(point.request.packets_measured > 20, "too few packets");
        assert_eq!(
            point.request.packets_incomplete, 0,
            "low load must fully drain"
        );
        let analytic = p.per_hop_time().as_ns();
        let rel = (point.measured_per_hop_ns - analytic).abs() / analytic;
        assert!(
            rel < 0.10,
            "per-hop {} ns vs analytic {analytic} ns ({}% off)",
            point.measured_per_hop_ns,
            rel * 100.0
        );
    }

    #[test]
    fn saturation_helpers_are_consistent_and_zero_on_empty() {
        let empty = PatternCurve {
            pattern: "empty".into(),
            points: vec![],
            request_latency: LatencySummary::default(),
            response_latency: LatencySummary::default(),
        };
        assert_eq!(empty.saturation_throughput(), 0.0);
        assert_eq!(
            empty.class_saturation_throughput(TrafficClass::Request),
            0.0
        );
        assert_eq!(
            empty.class_saturation_throughput(TrafficClass::Response),
            0.0
        );
        // A request-only curve reports zero for the class it never
        // carried, and the class peaks never exceed the total.
        let cfg = small_cfg();
        let p = params();
        let curve = PatternCurve {
            pattern: "uniform".into(),
            points: vec![run_point(&UniformRandom, &cfg, p, 0.1, 9)],
            request_latency: LatencySummary::default(),
            response_latency: LatencySummary::default(),
        };
        assert_eq!(
            curve.class_saturation_throughput(TrafficClass::Response),
            0.0,
            "request-only sweeps have no response curve"
        );
        let req = curve.class_saturation_throughput(TrafficClass::Request);
        assert!(req > 0.0 && req <= curve.saturation_throughput());
    }

    #[test]
    fn throughput_rises_with_offered_load_before_saturation() {
        let cfg = small_cfg();
        let p = params();
        let lo = run_point(&NearestNeighbor, &cfg, p, 0.05, 2);
        let hi = run_point(&NearestNeighbor, &cfg, p, 0.3, 3);
        assert!(lo.delivered > 0.03 && lo.delivered < 0.08);
        assert!(hi.delivered > lo.delivered * 3.0, "throughput must scale");
    }

    #[test]
    fn determinism_same_seed_same_curve() {
        let mut cfg = small_cfg();
        cfg.respond = true;
        let p = params();
        let a = run_point(&UniformRandom, &cfg, p, 0.2, 7);
        let b = run_point(&UniformRandom, &cfg, p, 0.2, 7);
        assert_eq!(a.request.packets_measured, b.request.packets_measured);
        assert_eq!(a.request.mean_latency_cycles, b.request.mean_latency_cycles);
        assert_eq!(a.request.p99_latency_cycles, b.request.p99_latency_cycles);
        let (ra, rb) = (a.response.unwrap(), b.response.unwrap());
        assert_eq!(ra.packets_measured, rb.packets_measured);
        assert_eq!(ra.mean_latency_cycles, rb.mean_latency_cycles);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.slice_delivered, b.slice_delivered);
    }

    #[test]
    fn reference_stepper_reproduces_the_event_point() {
        // The naive reference stepper and the event-driven core must
        // measure the same scenario identically — every statistic, not
        // just the headline throughput.
        let mut cfg = small_cfg();
        cfg.respond = true;
        let p = params();
        let a = run_point(&UniformRandom, &cfg, p, 0.3, 8);
        let mut w = crate::workload::SyntheticWorkload::new(
            &UniformRandom,
            cfg.flits_per_packet,
            cfg.respond,
        );
        let b = run_scenario_with(&mut w, &cfg, p, 0.3, 8, Stepper::Reference).point;
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "steppers diverged");
    }

    #[test]
    fn sharded_scenario_is_byte_identical_to_serial() {
        // Region-partitioned stepping is an execution strategy: the
        // measured point must not change at any shard count, loaded
        // enough that boundary links actually carry contended traffic.
        let mut cfg = small_cfg();
        cfg.respond = true;
        let p = params();
        let serial = run_point(&UniformRandom, &cfg, p, 0.4, 8);
        for shards in [2, 4] {
            cfg.shards = shards;
            let sharded = run_point(&UniformRandom, &cfg, p, 0.4, 8);
            assert_eq!(
                format!("{serial:?}"),
                format!("{sharded:?}"),
                "shard count {shards} leaked into the measurements"
            );
        }
        // The lookahead window is an execution knob too: a pinned
        // degenerate window and a mid-size one must also match.
        for lookahead in [Some(1), Some(3)] {
            cfg.shards = 2;
            cfg.lookahead = lookahead;
            let windowed = run_point(&UniformRandom, &cfg, p, 0.4, 8);
            assert_eq!(
                format!("{serial:?}"),
                format!("{windowed:?}"),
                "lookahead {lookahead:?} leaked into the measurements"
            );
        }
    }

    #[test]
    fn threaded_curves_are_byte_identical_to_serial() {
        let mut cfg = small_cfg();
        cfg.respond = true;
        cfg.loads = vec![0.05, 0.2, 0.4];
        let p = params();
        let serial = run_curve(&UniformRandom, &cfg, p, 5);
        let threaded = run_curve_threaded(&UniformRandom, &cfg, p, 5, 3);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&threaded).unwrap(),
            "thread count leaked into the measurements"
        );
        let suite: Vec<Box<dyn crate::patterns::TrafficPattern>> =
            vec![Box::new(UniformRandom), Box::new(NearestNeighbor)];
        let sweep_serial = run_sweep(&suite, &cfg, p);
        let mut sweep_threaded = run_sweep_threaded(&suite, &cfg, p, 4);
        // The echo block records execution provenance, so its thread
        // count differs by design; every measurement must not.
        assert_eq!(sweep_threaded.echo.threads, 4);
        sweep_threaded.echo.threads = sweep_serial.echo.threads;
        assert_eq!(
            serde_json::to_string(&sweep_serial).unwrap(),
            serde_json::to_string(&sweep_threaded).unwrap(),
            "thread count leaked into the sweep report"
        );
    }

    #[test]
    fn overload_saturates_and_reports_it() {
        let mut cfg = small_cfg();
        cfg.drain_cycles = 4_000; // don't wait out the overload backlog
        let p = params();
        let point = run_point(&UniformRandom, &cfg, p, 1.0, 4);
        assert!(point.saturated, "offered 1.0 must saturate a [2,2,4] torus");
        assert!(point.delivered < 1.0);
        assert!(point.backpressure_rejections > 0, "credits must push back");
    }

    #[test]
    #[should_panic(expected = "9-flit packet can never fit")]
    fn oversized_packets_fail_the_point_instead_of_backpressuring() {
        let mut cfg = small_cfg();
        cfg.dims = [2, 2, 2];
        cfg.flits_per_packet = 9;
        run_point(&UniformRandom, &cfg, params(), 0.2, 1);
    }

    #[test]
    fn responses_double_delivered_traffic_below_saturation() {
        let mut cfg = small_cfg();
        cfg.respond = true;
        let p = params();
        let point = run_point(&UniformRandom, &cfg, p, 0.1, 5);
        let resp = point.response.expect("respond mode fills the class");
        assert_eq!(resp.packets_incomplete, 0, "all replies must land");
        assert_eq!(
            resp.packets_measured, point.request.packets_measured,
            "every tracked request spawns exactly one tracked response"
        );
        // Total delivered is both classes; each class roughly matches
        // the offered request rate.
        let rel = (point.delivered - 2.0 * point.request.delivered).abs() / point.delivered;
        assert!(rel < 0.15, "classes should split evenly, got {point:?}");
        assert!(resp.mean_latency_cycles > 0.0);
        // Responses take mesh routes, so their mean hop count is at
        // least the requests' torus-minimal mean.
        assert!(resp.mean_hops >= point.request.mean_hops - 1e-9);
    }

    #[test]
    fn slices_split_traffic_evenly() {
        let mut cfg = small_cfg();
        cfg.respond = true;
        let p = params();
        let point = run_point(&UniformRandom, &cfg, p, 0.2, 6);
        let [a, b] = point.slice_delivered;
        assert!(a > 0.0 && b > 0.0, "both slices must carry traffic");
        let skew = (a - b).abs() / (a + b);
        assert!(skew < 0.1, "slice split skew {skew} too large");
        let total = point.slice_delivered.iter().sum::<f64>();
        assert!((total - point.delivered).abs() < 1e-12);
    }

    #[test]
    fn instrumented_run_is_bit_identical_and_carries_telemetry() {
        let mut cfg = small_cfg();
        cfg.respond = true;
        let p = params();
        let mk = || {
            crate::workload::SyntheticWorkload::new(
                &UniformRandom,
                cfg.flits_per_packet,
                cfg.respond,
            )
        };
        let plain = run_scenario(&mut mk(), &cfg, p, 0.2, 7);
        let tel = run_scenario_instrumented(&mut mk(), &cfg, p, 0.2, 7, TelemetryConfig::default());
        // Telemetry is observational: the measured point — and the JSON
        // serialized from it — must be byte-identical.
        assert_eq!(format!("{:?}", plain.point), format!("{:?}", tel.point));
        assert_eq!(
            serde_json::to_string(&plain.point).unwrap(),
            serde_json::to_string(&tel.point).unwrap(),
            "telemetry leaked into the sweep JSON"
        );
        assert!(plain.fabric.telemetry_summary().is_none());
        let summary = tel
            .fabric
            .telemetry_summary()
            .expect("instrumented run records");
        assert!(
            summary.links.iter().any(|l| l.advance_cycles > 0),
            "a delivering run must show link advances"
        );
        // The point's histogram-derived percentiles come straight from
        // the run's own mergeable histograms.
        assert_eq!(
            plain.point.request.p50_latency_cycles,
            plain.stats.class_hist[0].quantile(0.50) as f64
        );
        assert_eq!(
            plain.point.request.p99_latency_cycles,
            plain.stats.class_hist[0].quantile(0.99) as f64
        );
    }

    #[test]
    fn report_serializes_to_json() {
        let mut cfg = small_cfg();
        cfg.respond = true;
        cfg.loads = vec![0.05];
        cfg.warmup_cycles = 200;
        cfg.measure_cycles = 400;
        let suite: Vec<Box<dyn crate::patterns::TrafficPattern>> = vec![Box::new(UniformRandom)];
        let report = run_sweep(&suite, &cfg, params());
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"uniform_random\""));
        assert!(json.contains("\"analytic_per_hop_ns\""));
        assert!(json.contains("\"response\""));
        assert!(json.contains("\"slice_delivered\""));
        // The self-describing v3 surface: schema version, config echo
        // (including the epoch kernel's counters — no sync ops on this
        // one-shard run, but every step is an epoch), and the per-curve
        // latency aggregates.
        assert!(json.contains("\"schema_version\": 3"));
        assert!(json.contains("\"echo\""));
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"sync_ops\": 0"));
        assert!(report.echo.epochs > 0);
        assert!(json.contains("\"request_latency\""));
        assert!(json.contains("\"stddev_cycles\""));
    }
}
