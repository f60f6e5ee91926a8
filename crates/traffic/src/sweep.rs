//! Offered-load scenarios: latency–throughput curves over the cycle
//! fabric, generic over [`Workload`].
//!
//! [`run_scenario`] is the one driver every harness shares. For each
//! offered load (request flits per node per cycle), every node runs a
//! Bernoulli opportunity generator; at each opportunity the workload
//! emits fully drawn [`anton_net::fabric3d::PacketSpec`]s, which queue
//! per node and class and inject through the one spec-to-flits step
//! ([`inject_packet`]) as credits allow. Because the spec carries its
//! routing draw, a blocked injection retries the *same* spec — a
//! rejection never falls back to the other channel slice, so
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
//! All of that work is node-local: per-node RNG streams, per-node
//! source queues, and a response sourced at the node its request was
//! delivered to. So it runs where each node lives — in a per-shard
//! endpoint ([`anton_net::router::Endpoint`]) that the epoch kernel
//! runs inside the shard's private window, at the top of every cycle
//! and at every ejection ([`TorusFabric::step_endpoints`]). Epochs are
//! then bounded by the kernel's own clamps and the driver's exact stop
//! rule, not pinned to one cycle by the driver. Packet ids are assigned
//! per node and carry what the statistics need (tracking, source node,
//! creation cycle), so each shard records its own deliveries and no
//! per-packet table exists; the shards' tallies merge exactly.
//! [`run_scenario_with`] runs the same endpoint code serially around
//! the retained naive reference stepper instead ([`Stepper::Reference`]),
//! the oracle the windowed schedule is held to and what the committed
//! benchmark's traced run prices the event-driven core against.
//!
//! [`run_point`] is the thin synthetic-pattern wrapper (a
//! [`SyntheticWorkload`] over one [`TrafficPattern`]); it keeps its
//! draws draw for draw, and `tests/loaded_latency.rs` pins its loaded
//! outputs exactly.
//!
//! Everything is deterministic under the configured seed: node streams
//! are split from one root [`SplitMix64`], and the fabric itself is
//! seed-free. That determinism is per *point*, not per run: each
//! offered-load point derives its RNG stream from `(seed, stream)`
//! alone, so independent points can run on [`std::thread::scope`]
//! workers ([`run_curve_threaded`] / [`run_sweep_threaded`]) and the
//! assembled report — down to every floating-point digit of the JSON —
//! is identical at any worker count, including one, and at any shard
//! count and lookahead window.

use crate::patterns::TrafficPattern;
use crate::workload::{SyntheticWorkload, Workload};
use anton_model::asic::INPUT_QUEUE_FLITS;
use anton_model::topology::{NodeId, Torus};
use anton_model::units::PS_PER_CORE_CYCLE;
use anton_net::channel::ByteKind;
use anton_net::fabric3d::{
    decode_tag, inject_packet, FabricParams, PacketSpec, TorusFabric, TrafficClass, SLICES,
};
use anton_net::router::{Endpoint, Flit, InjectError, InjectPort};
use anton_net::routing;
use anton_net::telemetry::TelemetryConfig;
use anton_sim::rng::SplitMix64;
use anton_sim::stats::{Accumulator, LogHistogram};
use core::fmt;
use serde::Serialize;
use std::collections::VecDeque;
use std::ops::Range;

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

    /// Checks the configuration before any work: `flits_per_packet` in
    /// `1..=8` (the injection queue depth, so every packet can inject
    /// whole), every entry of `loads` in `[0, 1]`, `measure_cycles` at
    /// least 1, `shards` in `1..=` the torus's router count,
    /// `lookahead` not `Some(0)`, and `warmup + measure + drain` cycles
    /// within what a packet id can stamp (2^32). Every `run_scenario*`
    /// runs it (with its own `offered`) before building the fabric.
    ///
    /// # Errors
    /// The first [`ConfigError`] found, in the order above.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let nflits = self.flits_per_packet;
        if nflits == 0 || usize::from(nflits) > INPUT_QUEUE_FLITS {
            return Err(ConfigError::FlitsPerPacket {
                nflits,
                capacity: INPUT_QUEUE_FLITS,
            });
        }
        for &offered in &self.loads {
            check_offered(offered)?;
        }
        if self.measure_cycles == 0 {
            return Err(ConfigError::EmptyMeasureWindow);
        }
        let routers = self.dims.iter().map(|&d| usize::from(d)).product();
        if self.shards == 0 || self.shards > routers {
            return Err(ConfigError::Shards {
                shards: self.shards,
                routers,
            });
        }
        if self.lookahead == Some(0) {
            return Err(ConfigError::Lookahead);
        }
        let max = 1 << ID_CYCLE_BITS;
        let horizon = self
            .warmup_cycles
            .checked_add(self.measure_cycles)
            .and_then(|c| c.checked_add(self.drain_cycles));
        if horizon.is_none_or(|h| h > max) {
            return Err(ConfigError::Horizon { max });
        }
        Ok(())
    }

    /// The default offered-load axis: dense enough to show the knee.
    pub fn default_loads() -> Vec<f64> {
        vec![0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
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
/// ([`LogHistogram`]) per traffic class, plus moment accumulators
/// ([`Accumulator`]) alongside each histogram.
/// Merging is order-independent on the histograms and counters, so
/// `run_sweep_threaded` workers can each fill their own copy and the
/// harness folds them together afterward; the harness still merges in
/// point order so the floating-point moment sums are byte-stable too.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    /// Generation-to-delivery latency histograms, indexed `[request,
    /// response]`.
    pub class_hist: [LogHistogram; 2],
    /// Moment accumulators per class, same indexing as `class_hist`.
    pub class_moments: [Accumulator; 2],
}

impl LatencyStats {
    /// Records one delivered packet's generation-to-delivery latency
    /// under its traffic class.
    pub fn record(&mut self, class: TrafficClass, latency_cycles: u64) {
        let k = (class == TrafficClass::Response) as usize;
        self.class_hist[k].record(latency_cycles);
        self.class_moments[k].add(latency_cycles as f64);
    }

    /// Folds another scenario's statistics into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        for (dst, src) in self.class_hist.iter_mut().zip(&other.class_hist) {
            dst.merge(src);
        }
        for (dst, src) in self.class_moments.iter_mut().zip(&other.class_moments) {
            dst.merge(src);
        }
    }

    /// The serializable summary of one traffic class.
    pub fn class_summary(&self, class: TrafficClass) -> LatencySummary {
        let k = (class == TrafficClass::Response) as usize;
        summarize(&self.class_hist[k], &self.class_moments[k])
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
    /// value is what the offered axis is expressed against). Returns
    /// 0.0 for an empty curve or a class the sweep never carried.
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

/// Which schedule a scenario runs its node endpoints on: the production
/// windowed schedule, or the retained naive reference stepper
/// ([`TorusFabric::step_reference`]) it is held bit-identical to, one
/// cycle at a time. Both run the same endpoint code — generation,
/// source queues, injection retries, delivery accounting and spawns —
/// so the reference mode prices the naive full-scan stepper on exactly
/// the same workload: the committed benchmark's traced run times one
/// scenario in each mode and checks the measured points are equal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stepper {
    /// The production epoch kernel, with one endpoint per shard running
    /// inside the shard's lookahead windows
    /// ([`TorusFabric::step_endpoints`]).
    Event,
    /// One endpoint over every node, run serially around the naive
    /// full-scan stepper, cycle by cycle
    /// ([`TorusFabric::step_reference_with`]).
    Reference,
}

/// Why a [`SweepConfig`] (or an offered load) cannot run; see
/// [`SweepConfig::validate`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ConfigError {
    /// `flits_per_packet` is zero, or more than the injection queue
    /// holds, so no packet could ever inject whole.
    FlitsPerPacket {
        /// The configured flit count.
        nflits: u8,
        /// Depth of the injection queue, in flits.
        capacity: usize,
    },
    /// An offered load outside `[0, 1]` flits per node per cycle (NaN
    /// included).
    Offered {
        /// The refused load.
        offered: f64,
    },
    /// `measure_cycles` is zero: throughputs are per measured cycle.
    EmptyMeasureWindow,
    /// `shards` is zero or more than the torus has routers.
    Shards {
        /// The configured shard count.
        shards: usize,
        /// Routers (nodes) of the configured torus.
        routers: usize,
    },
    /// `lookahead` is `Some(0)`: an epoch must advance a cycle.
    Lookahead,
    /// `warmup + measure + drain` cycles do not fit the creation-cycle
    /// field of a packet id.
    Horizon {
        /// Largest allowed total, in cycles.
        max: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::FlitsPerPacket { nflits: 0, .. } => {
                write!(
                    f,
                    "flits_per_packet is 0; a packet carries at least one flit"
                )
            }
            ConfigError::FlitsPerPacket { nflits, capacity } => write!(
                f,
                "flits_per_packet {nflits}: a {nflits}-flit packet can never fit the \
                 {capacity}-flit injection queue"
            ),
            ConfigError::Offered { offered } => {
                write!(f, "offered load {offered} is outside [0, 1]")
            }
            ConfigError::EmptyMeasureWindow => {
                write!(
                    f,
                    "measure_cycles is 0; the measurement window needs a cycle"
                )
            }
            ConfigError::Shards { shards, routers } => {
                write!(f, "cannot split {routers} routers into {shards} shards")
            }
            ConfigError::Lookahead => write!(f, "lookahead must be at least one cycle"),
            ConfigError::Horizon { max } => write!(
                f,
                "warmup + measure + drain cycles exceed {max}, the most a packet id can stamp"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// An offered load is in flits per node per cycle: `[0, 1]`.
fn check_offered(offered: f64) -> Result<(), ConfigError> {
    if (0.0..=1.0).contains(&offered) {
        Ok(())
    } else {
        Err(ConfigError::Offered { offered })
    }
}

// A packet id packs what the statistics need, per node and independent
// of shard count and window: bit 63 whether the packet is tracked, bits
// 47..63 its creating node, bits 15..47 its creation cycle, and bits
// 0..15 its rank among the packets the node created that cycle.
const ID_SEQ_BITS: u32 = 15;
const ID_CYCLE_BITS: u32 = 32;
const ID_NODE_SHIFT: u32 = ID_SEQ_BITS + ID_CYCLE_BITS;
const ID_TRACKED: u64 = 1 << 63;

/// A packet waiting in a node's source queue: its [`PacketSpec`] less
/// the source, which is the node's, and the class, which is the
/// queue's. 16 bytes where the spec takes 32, with no field narrowed
/// past a value it can hold (see [`Self::new`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct QueuedPacket {
    id: u64,
    dst: NodeId,
    nflits: u8,
    kind: ByteKind,
    slice: u8,
    order_idx: u8,
    base_vc: u8,
}

// An overloaded machine queues hundreds of thousands of packets.
const _: () = assert!(std::mem::size_of::<QueuedPacket>() == 16);

impl QueuedPacket {
    /// `spec`, to be queued at its source in its class's queue.
    ///
    /// # Panics
    /// Panics with [`PacketSpec::validate`]'s error, where the packet
    /// would otherwise panic at its first injection attempt, and with
    /// the same error for a response's `order_idx` above 255 (which
    /// `validate` leaves unchecked, since responses ignore it).
    fn new(spec: &PacketSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let byte = |field, value: usize| {
            u8::try_from(value)
                .unwrap_or_else(|_| panic!("{}", InjectError::InvalidSpec { field, value }))
        };
        QueuedPacket {
            id: spec.id,
            dst: spec.dst,
            nflits: spec.nflits,
            kind: spec.kind,
            slice: byte("slice", spec.slice),
            order_idx: byte("order_idx", spec.order_idx),
            base_vc: spec.base_vc,
        }
    }

    /// The spec queued at `src` in `class`'s queue.
    fn spec(self, src: NodeId, class: TrafficClass) -> PacketSpec {
        PacketSpec {
            src,
            dst: self.dst,
            id: self.id,
            nflits: self.nflits,
            class,
            kind: self.kind,
            slice: self.slice.into(),
            order_idx: self.order_idx.into(),
            base_vc: self.base_vc,
        }
    }
}

/// Per-node endpoint state: the node's RNG stream, its source queues
/// (requests and responses queue separately because they inject in
/// class order) and its packet-id counter.
struct Node {
    rng: SplitMix64,
    requests: VecDeque<QueuedPacket>,
    responses: VecDeque<QueuedPacket>,
    /// Creation cycle of the last id issued, and the ids issued at it.
    id_cycle: u64,
    id_seq: u64,
}

impl Node {
    /// The id of a packet `node` creates at `at`.
    fn next_id(&mut self, node: NodeId, at: u64, tracked: bool) -> u64 {
        if at != self.id_cycle {
            (self.id_cycle, self.id_seq) = (at, 0);
        }
        assert!(
            self.id_seq < 1 << ID_SEQ_BITS,
            "node {node} created more than {} packets in cycle {at}",
            1u64 << ID_SEQ_BITS
        );
        let id = if tracked { ID_TRACKED } else { 0 }
            | u64::from(node.0) << ID_NODE_SHIFT
            | at << ID_SEQ_BITS
            | self.id_seq;
        self.id_seq += 1;
        id
    }
}

/// The statistics one endpoint gathers — merged across shards, in any
/// order, into the scenario's [`LoadPoint`]. Counters add exactly, and
/// the latency moments and sums are sums of integer-valued `f64`s,
/// exact below 2^53, so the merge is byte-identical to one serial tally.
#[derive(Default)]
struct Tally {
    stats: LatencyStats,
    /// Injection-to-delivery cycles of delivered tracked packets, per
    /// class (`[request, response]`).
    net_sum: [f64; 2],
    /// Route hops of delivered tracked packets, per class.
    hop_sum: [f64; 2],
    /// Tracked packets created, per class.
    measured: [u64; 2],
    /// Tracked packets delivered, per class.
    delivered: [u64; 2],
    /// Untracked (warmup) packets created and delivered.
    warmup_created: u64,
    warmup_delivered: u64,
    /// Flits delivered inside the measurement window, per class and per
    /// slice.
    class_flits: [u64; 2],
    slice_flits: [u64; SLICES],
    /// Injection attempts refused by credits inside the window.
    backpressure: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.stats.merge(&other.stats);
        for k in 0..2 {
            self.net_sum[k] += other.net_sum[k];
            self.hop_sum[k] += other.hop_sum[k];
            self.measured[k] += other.measured[k];
            self.delivered[k] += other.delivered[k];
            self.class_flits[k] += other.class_flits[k];
        }
        self.warmup_created += other.warmup_created;
        self.warmup_delivered += other.warmup_delivered;
        for (dst, src) in self.slice_flits.iter_mut().zip(&other.slice_flits) {
            *dst += src;
        }
        self.backpressure += other.backpressure;
    }
}

/// What every endpoint of one scenario point reads.
struct Scenario<'a, W: ?Sized> {
    workload: &'a W,
    torus: Torus,
    /// Generation probability per node and cycle.
    p_packet: f64,
    /// The measurement window; generation stops at its end.
    window: Range<u64>,
}

/// The node-local half of a scenario over a contiguous node range —
/// one per shard, run inside the shard's windows ([`Endpoint`]):
/// Bernoulli generation, per-node source queues retried head-of-line,
/// delivery accounting and force-return spawns. Every routing draw is
/// made once, at generation or spawn time inside the workload, so a
/// blocked injection retries the same spec and backpressure cannot bias
/// the oblivious randomization (a slice-0 rejection never retries on
/// slice 1).
struct NodeEndpoint<'a, W: ?Sized> {
    scenario: &'a Scenario<'a, W>,
    /// Index of `nodes[0]`.
    first: usize,
    nodes: Vec<Node>,
    /// Packets waiting in the source queues.
    queued: usize,
    /// Workload out-buffer.
    emitted: Vec<PacketSpec>,
    tally: Tally,
}

impl<'a, W: Workload + ?Sized> NodeEndpoint<'a, W> {
    /// The endpoint of `nodes`, each on its `root.split(node)` stream.
    fn new(scenario: &'a Scenario<'a, W>, root: &SplitMix64, nodes: Range<usize>) -> Self {
        let first = nodes.start;
        let nodes = nodes
            .map(|i| Node {
                rng: root.split(i as u64),
                requests: VecDeque::new(),
                responses: VecDeque::new(),
                id_cycle: 0,
                id_seq: 0,
            })
            .collect();
        NodeEndpoint {
            scenario,
            first,
            nodes,
            queued: 0,
            emitted: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Queues the workload's emitted packets at node `first + i`,
    /// created at `at`: assigns their ids and counts them.
    fn enqueue_emitted(&mut self, i: usize, at: u64, tracked: bool) {
        let src = NodeId((self.first + i) as u16);
        let node = &mut self.nodes[i];
        for spec in self.emitted.drain(..) {
            assert_eq!(spec.src, src, "packets originate at the node creating them");
            let spec = PacketSpec {
                id: node.next_id(src, at, tracked),
                ..spec
            };
            let k = (spec.class == TrafficClass::Response) as usize;
            if tracked {
                self.tally.measured[k] += 1;
            } else {
                self.tally.warmup_created += 1;
            }
            let queued = QueuedPacket::new(&spec);
            match spec.class {
                TrafficClass::Request => node.requests.push_back(queued),
                TrafficClass::Response => node.responses.push_back(queued),
            }
            self.queued += 1;
        }
    }
}

impl<W: Workload + ?Sized> Endpoint for NodeEndpoint<'_, W> {
    fn begin_cycle(&mut self, cycle: u64, port: &mut InjectPort<'_>) {
        let sc = self.scenario;
        // Generation: a Bernoulli opportunity per node, packets from the
        // workload.
        if cycle < sc.window.end {
            let tracked = sc.window.contains(&cycle);
            for i in 0..self.nodes.len() {
                let rng = &mut self.nodes[i].rng;
                if rng.next_f64() >= sc.p_packet {
                    continue;
                }
                let src = NodeId((self.first + i) as u16);
                sc.workload
                    .next_packets(&sc.torus, src, cycle, rng, &mut self.emitted);
                self.enqueue_emitted(i, cycle, tracked);
            }
        }
        if self.queued == 0 {
            return;
        }
        // Injection: the head-of-line packet per node and class, as
        // credits allow, each spec resubmitted verbatim until accepted.
        // Responses go first — they ride their own VC, so the two classes
        // contend only for link serialization slots.
        let measuring = sc.window.contains(&cycle);
        for class in [TrafficClass::Response, TrafficClass::Request] {
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let queue = match class {
                    TrafficClass::Request => &mut node.requests,
                    TrafficClass::Response => &mut node.responses,
                };
                let Some(&queued) = queue.front() else {
                    continue;
                };
                let src = NodeId((self.first + i) as u16);
                match inject_packet(port, &queued.spec(src, class)) {
                    Ok(()) => {
                        queue.pop_front();
                        self.queued -= 1;
                    }
                    Err(InjectError::NoCredit { .. }) => {
                        self.tally.backpressure += u64::from(measuring);
                    }
                    // Retrying could never succeed: the head would block
                    // its source queue for the rest of the run.
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }

    fn deliver(&mut self, at: u64, flit: &Flit) {
        let sc = self.scenario;
        let tag = decode_tag(flit.tag);
        let k = (tag.class == TrafficClass::Response) as usize;
        let t = &mut self.tally;
        if sc.window.contains(&at) {
            t.class_flits[k] += 1;
            t.slice_flits[tag.slice] += 1;
        }
        if !flit.is_tail() {
            return;
        }
        // Everything the statistics need is in the flit and its id.
        let tracked = flit.packet & ID_TRACKED != 0;
        let src = NodeId((flit.packet >> ID_NODE_SHIFT) as u16);
        let created = (flit.packet >> ID_SEQ_BITS) & ((1 << ID_CYCLE_BITS) - 1);
        let dst = NodeId(flit.dest as u16);
        if tracked {
            t.delivered[k] += 1;
            t.stats.record(tag.class, at - created);
            t.net_sum[k] += (at - flit.injected_at) as f64;
            let (a, b) = (sc.torus.coord(src), sc.torus.coord(dst));
            let hops = match tag.class {
                TrafficClass::Request => sc.torus.hop_distance(a, b),
                TrafficClass::Response => routing::mesh_distance(a, b),
            };
            t.hop_sum[k] += f64::from(hops);
        } else {
            t.warmup_delivered += 1;
        }
        // Completion hook: follow-on packets (force returns) spawn at
        // the delivery node, drawing from its stream, and inherit the
        // delivered packet's tracking.
        let delivered = PacketSpec {
            src,
            dst,
            id: flit.packet,
            nflits: flit.of,
            class: tag.class,
            kind: tag.kind,
            slice: tag.slice,
            order_idx: tag.order_idx,
            base_vc: tag.base_vc,
        };
        let i = dst.index() - self.first;
        sc.workload.on_delivered(
            &sc.torus,
            &delivered,
            at,
            &mut self.nodes[i].rng,
            &mut self.emitted,
        );
        self.enqueue_emitted(i, at, tracked);
    }

    fn idle(&self, cycle: u64) -> bool {
        cycle >= self.scenario.window.end && self.queued == 0
    }
}

/// `(tracked, warmup)` packets outstanding across `endpoints`: created
/// and not yet delivered.
fn outstanding<W: ?Sized>(endpoints: &[NodeEndpoint<'_, W>]) -> (u64, u64) {
    let (mut created, mut done) = ([0u64; 2], [0u64; 2]);
    for t in endpoints.iter().map(|ep| &ep.tally) {
        created[0] += t.measured[0] + t.measured[1];
        done[0] += t.delivered[0] + t.delivered[1];
        created[1] += t.warmup_created;
        done[1] += t.warmup_delivered;
    }
    (created[0] - done[0], created[1] - done[1])
}

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
    /// delivered packet, per class.
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
/// is the single driver behind every sweep, replay and drain harness;
/// [`run_point`] wraps it for plain synthetic patterns.
///
/// # Panics
/// Panics with the [`ConfigError`]'s message, before building the
/// fabric, if [`SweepConfig::validate`] refuses `cfg` or `offered` is
/// outside `[0, 1]`; and if a packet can never inject
/// ([`InjectError::TooLarge`] or another permanent refusal of a
/// workload's spec) instead of counting it as backpressure for the rest
/// of the run — a spec [`PacketSpec::validate`] refuses panics as it is
/// queued, before its first injection attempt.
pub fn run_scenario<W: Workload + ?Sized>(
    workload: &W,
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
/// [`LoadPoint`], fabric state, telemetry and packet trace, bit for
/// bit).
pub fn run_scenario_with<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    stepper: Stepper,
) -> ScenarioRun {
    run_scenario_on(workload, cfg, params, offered, stream, stepper, None)
}

/// [`run_scenario`] with fabric telemetry enabled for the whole run:
/// stall-cause attribution, per-link epoch time-series, and (when
/// [`TelemetryConfig::trace`] is set) packet lifecycle traces, all
/// readable off [`ScenarioRun::fabric`] afterward — e.g. via
/// [`TorusFabric::telemetry_summary`]. Telemetry recording is purely
/// observational, so the measured [`LoadPoint`] is bit-identical to an
/// uninstrumented [`run_scenario`] of the same arguments.
pub fn run_scenario_instrumented<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    telemetry: TelemetryConfig,
) -> ScenarioRun {
    run_scenario_on(
        workload,
        cfg,
        params,
        offered,
        stream,
        Stepper::Event,
        Some(telemetry),
    )
}

/// The general scenario entry point the others wrap: [`run_scenario`]
/// on an explicit [`Stepper`], with telemetry enabled for the whole run
/// when `telemetry` is set. The two schedules agree on everything the
/// run leaves behind — the point, the fabric's cycle, counters and
/// telemetry, and the packet trace — which the endpoint-equivalence
/// tests check.
///
/// # Panics
/// As [`run_scenario`].
pub fn run_scenario_on<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SweepConfig,
    params: FabricParams,
    offered: f64,
    stream: u64,
    stepper: Stepper,
    telemetry: Option<TelemetryConfig>,
) -> ScenarioRun {
    if let Err(e) = cfg.validate().and_then(|()| check_offered(offered)) {
        panic!("{e}");
    }
    let torus = Torus::new(cfg.dims);
    let mut fabric = TorusFabric::new(torus, params);
    if let Some(tel) = telemetry {
        fabric.enable_telemetry(tel);
    }
    fabric
        .set_shards_with_lookahead(cfg.shards, cfg.lookahead)
        .expect("a validated shard count and window suit a fresh fabric");
    let n = torus.node_count();
    let nflits = cfg.flits_per_packet;
    let scenario = Scenario {
        workload,
        torus,
        p_packet: offered / nflits as f64,
        window: cfg.warmup_cycles..cfg.warmup_cycles + cfg.measure_cycles,
    };
    let gen_end = scenario.window.end;
    let horizon = gen_end + cfg.drain_cycles;

    // One endpoint per shard on the windowed schedule, one over every
    // node on the reference schedule; node streams split from one root
    // either way.
    let root = SplitMix64::new(cfg.seed).split(stream);
    let bounds = match stepper {
        Stepper::Event => fabric.shard_bounds().to_vec(),
        Stepper::Reference => vec![0, n],
    };
    let mut endpoints: Vec<_> = bounds
        .windows(2)
        .map(|b| NodeEndpoint::new(&scenario, &root, b[0]..b[1]))
        .collect();

    // The stop rule: the first cycle C >= gen_end at which no tracked
    // packet is outstanding and the cycle just run delivered a flit, or
    // the horizon. The reference schedule checks it every cycle. Windows
    // may not contain C, so they stop at gen_end and the horizon, and
    // while warmup packets are live they stay short enough that the
    // tracked ones cannot all land inside: each router ejects at most
    // one flit per cycle, so T tracked packets on n routers need
    // ceil(T / n) cycles. With no warmup packet live, the last tracked
    // delivery drains the fabric, and the kernel's drain rewind stops
    // the window on C.
    while fabric.cycle() < horizon {
        let cycle = fabric.cycle();
        match stepper {
            Stepper::Event => {
                let limit = if cycle < gen_end {
                    gen_end
                } else {
                    match outstanding(&endpoints) {
                        (tracked, warmup) if warmup > 0 => {
                            let cap = tracked.div_ceil(n as u64).saturating_sub(1).max(1);
                            (cycle + cap).min(horizon)
                        }
                        _ => horizon,
                    }
                };
                fabric.step_endpoints(&mut endpoints, limit);
            }
            Stepper::Reference => fabric.step_reference_with(&mut endpoints[0]),
        }
        let cycle = fabric.cycle();
        let delivered = fabric
            .delivered()
            .last()
            .is_some_and(|&(at, _)| at + 1 == cycle);
        fabric.take_delivered();
        if delivered && cycle >= gen_end && outstanding(&endpoints).0 == 0 {
            break;
        }
    }

    // Statistics over tracked packets, split by class: the shards'
    // tallies merged. Latencies went straight into mergeable
    // log-bucketed histograms, so the same stats aggregate across
    // threaded sweep workers by histogram merge.
    let mut total = Tally::default();
    for ep in &endpoints {
        total.merge(&ep.tally);
    }
    let Tally {
        stats,
        net_sum,
        hop_sum,
        measured,
        delivered,
        ..
    } = total;
    let incomplete = [measured[0] - delivered[0], measured[1] - delivered[1]];
    let per_node_cycle = |flits: u64| flits as f64 / (n as f64 * cfg.measure_cycles as f64);
    let request = class_point(
        per_node_cycle(total.class_flits[0]),
        measured[0],
        incomplete[0],
        &stats.class_hist[0],
        &stats.class_moments[0],
        net_sum[0],
        hop_sum[0],
    );
    let response = (cfg.respond || measured[1] > 0).then(|| {
        class_point(
            per_node_cycle(total.class_flits[1]),
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
        delivered: per_node_cycle(total.class_flits[0] + total.class_flits[1]),
        request,
        response,
        slice_delivered: total.slice_flits.map(per_node_cycle),
        measured_per_hop_ns,
        backpressure_rejections: total.backpressure,
        saturated: incomplete != [0, 0] || request.delivered < generated * 0.90 - 1e-3,
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
    let workload = SyntheticWorkload::new(pattern, cfg.flits_per_packet, cfg.respond);
    let run = run_scenario(&workload, cfg, params, offered, stream);
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

/// Runs a pattern across the whole load axis on `threads` workers. Each
/// point seeds its RNG from `(cfg.seed, stream * 1024 + point index)`, so
/// the curve — and its JSON — is byte-identical at any thread count.
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

/// Runs every pattern as one pool of (pattern, load) points on `threads`
/// workers; pattern `i` runs as [`run_curve_threaded`]'s stream `i + 1`,
/// so the report is byte-identical at any thread count.
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
        let w = crate::workload::SyntheticWorkload::new(
            &UniformRandom,
            cfg.flits_per_packet,
            cfg.respond,
        );
        let b = run_scenario_with(&w, &cfg, p, 0.3, 8, Stepper::Reference).point;
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
        let serial = run_curve_threaded(&UniformRandom, &cfg, p, 5, 1);
        let threaded = run_curve_threaded(&UniformRandom, &cfg, p, 5, 3);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&threaded).unwrap(),
            "thread count leaked into the measurements"
        );
        let suite: Vec<Box<dyn crate::patterns::TrafficPattern>> =
            vec![Box::new(UniformRandom), Box::new(NearestNeighbor)];
        let sweep_serial = run_sweep_threaded(&suite, &cfg, p, 1);
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
    fn queued_packets_rebuild_their_spec_exactly() {
        for class in [TrafficClass::Request, TrafficClass::Response] {
            for kind in ByteKind::ALL {
                for slice in 0..SLICES {
                    for order_idx in 0..6 {
                        for base_vc in 0..2 {
                            let spec = PacketSpec {
                                src: NodeId(u16::MAX),
                                dst: NodeId(u16::MAX),
                                id: u64::MAX,
                                nflits: u8::MAX,
                                class,
                                kind,
                                slice,
                                order_idx,
                                base_vc,
                            };
                            let queued = QueuedPacket::new(&spec);
                            assert_eq!(queued.spec(spec.src, class), spec);
                        }
                    }
                }
            }
        }
    }

    /// Requests to the next node, all pinned to channel slice 256.
    struct MissingSlice;

    impl Workload for MissingSlice {
        fn next_packets(
            &self,
            torus: &Torus,
            src: NodeId,
            _: u64,
            _: &mut SplitMix64,
            out: &mut Vec<PacketSpec>,
        ) {
            let dst = NodeId(((src.index() + 1) % torus.node_count()) as u16);
            out.push(PacketSpec::request(src, dst, 0, 1).with_slice(256));
        }
    }

    #[test]
    #[should_panic(expected = "slice 256 is out of range")]
    fn a_packet_on_a_missing_slice_panics_instead_of_running_on_slice_0() {
        run_scenario(&MissingSlice, &small_cfg(), params(), 0.2, 1);
    }

    /// Nine-flit requests to the next node: one flit more than an
    /// injection queue holds, from a configuration that validates.
    struct NineFlitRequests;

    impl Workload for NineFlitRequests {
        fn next_packets(
            &self,
            torus: &Torus,
            src: NodeId,
            _: u64,
            _: &mut SplitMix64,
            out: &mut Vec<PacketSpec>,
        ) {
            let dst = NodeId(((src.index() + 1) % torus.node_count()) as u16);
            out.push(PacketSpec::request(src, dst, 0, 9));
        }
    }

    #[test]
    #[should_panic(expected = "a 9-flit packet can never fit the 8-flit injection queue")]
    fn a_packet_too_large_to_inject_panics_in_run_scenario() {
        run_scenario(&NineFlitRequests, &small_cfg(), params(), 0.2, 1);
    }

    #[test]
    fn validate_names_each_bad_field() {
        let ok = small_cfg();
        assert_eq!(ok.validate(), Ok(()));
        let horizon = ConfigError::Horizon { max: 1 << 32 };
        let cases = [
            (
                SweepConfig {
                    flits_per_packet: 0,
                    ..ok.clone()
                },
                ConfigError::FlitsPerPacket {
                    nflits: 0,
                    capacity: 8,
                },
            ),
            (
                SweepConfig {
                    loads: vec![0.5, 1.5],
                    ..ok.clone()
                },
                ConfigError::Offered { offered: 1.5 },
            ),
            (
                SweepConfig {
                    shards: 0,
                    ..ok.clone()
                },
                ConfigError::Shards {
                    shards: 0,
                    routers: 16,
                },
            ),
            (
                SweepConfig {
                    lookahead: Some(0),
                    ..ok.clone()
                },
                ConfigError::Lookahead,
            ),
            (
                SweepConfig {
                    drain_cycles: 1 << 32,
                    ..ok.clone()
                },
                horizon,
            ),
            (
                SweepConfig {
                    drain_cycles: u64::MAX,
                    ..ok.clone()
                },
                horizon,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
        let nan = check_offered(f64::NAN).unwrap_err();
        assert!(nan.to_string().contains("outside [0, 1]"), "{nan}");
    }

    #[test]
    #[should_panic(expected = "measure_cycles is 0")]
    fn an_empty_measure_window_is_refused_instead_of_measuring_nan() {
        // Throughputs divide by the measured cycles: a zero window would
        // report NaN (`null` in the sweep JSON) as an unsaturated point.
        let mut cfg = small_cfg();
        cfg.measure_cycles = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyMeasureWindow));
        run_point(&UniformRandom, &cfg, params(), 0.2, 1);
    }

    #[test]
    #[should_panic(expected = "cannot split 8 routers into 9 shards")]
    fn too_many_shards_are_refused_before_the_fabric_is_built() {
        let mut cfg = small_cfg();
        (cfg.dims, cfg.shards) = ([2, 2, 2], 9);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::Shards {
                shards: 9,
                routers: 8
            })
        );
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
        let plain = run_scenario(&mk(), &cfg, p, 0.2, 7);
        let tel = run_scenario_instrumented(&mk(), &cfg, p, 0.2, 7, TelemetryConfig::default());
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
        let report = run_sweep_threaded(&suite, &cfg, params(), 1);
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
