//! Zero-cost-when-off fabric telemetry: stall-cause attribution, epoch
//! time-series, and packet lifecycle traces.
//!
//! A [`Telemetry`] handle hangs off a
//! [`RouterFabric`](crate::router::RouterFabric) as an `Option` — when
//! absent, the steppers run exactly the code they ran before this module
//! existed (one branch per step phase); when present, every executed
//! cycle is attributed, per link, to exactly one of three states:
//!
//! - **advance** — a flit entered the link this cycle (links carry at
//!   most one flit per cycle, so advance cycles equal flits sent);
//! - **stall** — no flit entered, but at least one queue front upstream
//!   that had cleared the router pipeline was targeting the link;
//! - **idle** — neither (derived: `elapsed − advance − stall`, which
//!   also covers the dead cycles the event stepper jumps over — a
//!   jumped cycle has no queued work by construction — and the cycles
//!   whose only waiting fronts are still in the pipeline).
//!
//! Pipeline time is not a stall: every hop spends it whether or not
//! anything contends, and the paper's latency breakdown counts it as
//! zero-load latency. So each stalled front that has cleared the
//! pipeline is classified into a [`StallCause`] and counted per
//! (router, output port, outgoing VC) — the VC dimension is what lets
//! the torus layer split request from response traffic — and the stall
//! counters measure contention alone. Recording is **purely
//! observational**: it reads post-arbitration state and never
//! influences arbitration, so telemetry-on and telemetry-off runs
//! produce bit-identical delivery logs and link counters (pinned by the
//! `telemetry_equivalence` property tests).
//!
//! Every counter is per link, addressed only by the fabric's flat link
//! id (`RouterFabric::link` turns a `(router, port)` pair into one).
//! Links flatten in router order, so each shard of the epoch kernel (a
//! contiguous router range) owns a contiguous block of them and records
//! its window into that block in place, through `LinkRecorder`, the
//! routine the reference stepper records through too. Per-link results
//! are read through the fabric: [`TorusFabric::link_cycles`] and
//! [`TorusFabric::telemetry_summary`], which labels each link.
//!
//! [`TorusFabric::link_cycles`]: crate::fabric3d::TorusFabric::link_cycles
//! [`TorusFabric::telemetry_summary`]: crate::fabric3d::TorusFabric::telemetry_summary
//!
//! ## Epoch time-series
//!
//! Time is divided into fixed-length epochs
//! ([`TelemetryConfig::epoch_cycles`]). Per link, a bounded ring buffer
//! ([`TelemetryConfig::epoch_ring`]) records one [`EpochRecord`] per
//! epoch: the flits that entered the link, the stall cycles charged to
//! it, and a point-in-time occupancy sample (downstream queue plus
//! in-flight flits, taken at the epoch boundary). Every stepper rolls
//! every boundary it passes, the dead-cycle jump of
//! [`crate::router::RouterFabric::step_batched`] included, so an epoch
//! it jumps over records no flits and no stalls, like per-cycle
//! stepping. A link's ring stays **empty until the link first sees
//! activity** (an advance, a stall charge, or a non-zero occupancy
//! sample); from then on every epoch is recorded, so series stay
//! contiguous. A mega-fabric (16³/32³) has hundreds of thousands of
//! directed links of which a sweep touches a fraction — the never-active
//! majority costs an empty ring header each instead of `epoch_ring`
//! records, which is the difference between megabytes and gigabytes
//! under `--telemetry`.
//!
//! ## Packet traces
//!
//! When [`TelemetryConfig::trace`] is set, packet lifecycle events —
//! [`TraceEventKind::Inject`], one [`TraceEventKind::Hop`] per
//! router-to-router head-flit departure, and one
//! [`TraceEventKind::Deliver`] per ejected flit — are buffered up to
//! [`TelemetryConfig::trace_limit`] in one order at every shard count
//! and window, and under either stepper: per cycle, injections by class
//! rank (responses first), then hops by ascending router, then
//! deliveries by ascending router. Each stepper lists an event where it
//! happens, under that order, in one list per shard, and one merge per
//! step (a stable sort on cycle, then order) puts the lists in trace
//! order. The delivery log plays no part, so a caller draining it
//! cannot lose or repeat an event. The buffer renders two ways:
//! [`Telemetry::trace_jsonl`] (one JSON object per line) and
//! [`Telemetry::trace_chrome`] (a `trace_event` JSON document loadable
//! in Perfetto / `chrome://tracing`, with one cycle mapped to one
//! microsecond of viewer time and packets shown as async spans).

use crate::router::Flit;
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Why a queue front that had cleared the router pipeline failed to
/// advance through its target output port on a cycle it was counted as
/// stalled. A front still in the pipeline is not stalled, whatever else
/// holds: it waits out time every hop spends.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum StallCause {
    /// The sender held no credit for the downstream input VC: its free
    /// slots were all taken by queued flits or flits in flight.
    CreditStarved,
    /// Credits and the link were available, but another front won the
    /// output this cycle (or the front was exposed mid-cycle by its own
    /// predecessor's departure).
    LostArbitration,
    /// The link could not serialize this cycle (inter-flit interval).
    SerializationBusy,
}

impl StallCause {
    /// All causes, in counter-index order.
    pub const ALL: [StallCause; 3] = [
        StallCause::CreditStarved,
        StallCause::LostArbitration,
        StallCause::SerializationBusy,
    ];

    /// Number of causes (the stride of per-cause counter blocks).
    pub const COUNT: usize = 3;

    /// Dense counter index, the order of [`StallCause::ALL`].
    pub const fn index(self) -> usize {
        match self {
            StallCause::CreditStarved => 0,
            StallCause::LostArbitration => 1,
            StallCause::SerializationBusy => 2,
        }
    }

    /// The cause of one stalled queue front that has cleared the
    /// pipeline, by the single precedence rule every stepper classifies
    /// with: its target output moved a flit this cycle
    /// (`output_advanced` — possibly the front's own predecessor), so it
    /// lost the output whatever the credit state; else the link cannot
    /// serialize yet (`link_busy`); else the sender holds no credit for
    /// the downstream VC (`starved`); else another front won. `starved`
    /// is asked only when the earlier causes do not apply: it is the
    /// one question that reads credit state.
    pub(crate) fn of(
        output_advanced: bool,
        link_busy: bool,
        starved: impl FnOnce() -> bool,
    ) -> StallCause {
        if output_advanced {
            StallCause::LostArbitration
        } else if link_busy {
            StallCause::SerializationBusy
        } else if starved() {
            StallCause::CreditStarved
        } else {
            StallCause::LostArbitration
        }
    }
}

/// Per-cause stall-cycle counts for one aggregation bucket (a link, a
/// VC on a link, or a whole traffic class): one counter per
/// [`StallCause`], so cycles a front spends in the router pipeline are
/// in none of them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize)]
pub struct StallBreakdown {
    /// Cycles stalled waiting for downstream credits.
    pub credit_starved: u64,
    /// Cycles lost to another front winning the output.
    pub lost_arbitration: u64,
    /// Always 0: pipeline time is not a stall (schema version 3). Kept
    /// only because the committed benchmark's harness prints it in its
    /// telemetry fingerprint; the field goes once that read does.
    pub pipeline_immature: u64,
    /// Cycles blocked on link serialization bandwidth.
    pub serialization_busy: u64,
}

impl StallBreakdown {
    /// Total stalled head-cycles across all causes.
    pub fn total(&self) -> u64 {
        self.credit_starved + self.lost_arbitration + self.serialization_busy
    }

    /// Adds `n` cycles to the counter for `cause`.
    pub fn add(&mut self, cause: StallCause, n: u64) {
        match cause {
            StallCause::CreditStarved => self.credit_starved += n,
            StallCause::LostArbitration => self.lost_arbitration += n,
            StallCause::SerializationBusy => self.serialization_busy += n,
        }
    }

    /// Folds another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.credit_starved += other.credit_starved;
        self.lost_arbitration += other.lost_arbitration;
        self.serialization_busy += other.serialization_busy;
    }
}

/// Configuration of a [`Telemetry`] handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Epoch length in cycles for the per-link time-series.
    pub epoch_cycles: u64,
    /// Ring capacity: how many most-recent epoch records each link keeps.
    pub epoch_ring: usize,
    /// Whether to buffer packet lifecycle trace events.
    pub trace: bool,
    /// Maximum buffered trace events; further events are counted as
    /// dropped ([`Telemetry::trace_dropped`]) instead of recorded.
    pub trace_limit: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            epoch_cycles: 1024,
            epoch_ring: 256,
            trace: false,
            trace_limit: 1 << 20,
        }
    }
}

/// One epoch's worth of activity on one link.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct EpochRecord {
    /// Epoch index (`cycle / epoch_cycles`).
    pub epoch: u64,
    /// Cycles of the epoch window this record actually covers. Equal to
    /// the configured epoch length except for the first epoch after a
    /// mid-window enable and for the final partial epoch flushed at
    /// export, whose true (shorter) width this reports — so rate math
    /// (`flits / cycles`) stays honest at both edges of a run.
    pub cycles: u64,
    /// Flits that entered the link during the epoch.
    pub flits: u32,
    /// Stall cycles charged to the link during the epoch.
    pub stalls: u32,
    /// Occupancy sampled at the epoch boundary: flits in flight on the
    /// link plus flits queued in the downstream input port it feeds.
    pub occupancy: u32,
}

/// The lifecycle stage a [`TraceEvent`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum TraceEventKind {
    /// The packet's head flit entered its source input queue.
    Inject,
    /// The packet's head flit departed a router toward another router.
    Hop,
    /// A flit of the packet reached its ejection endpoint.
    Deliver,
}

/// One packet lifecycle event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct TraceEvent {
    /// Lifecycle stage.
    pub kind: TraceEventKind,
    /// Cycle the event occurred at.
    pub cycle: u64,
    /// Packet id ([`Flit::packet`]).
    pub packet: u64,
    /// Router the event occurred at (the destination endpoint id for
    /// [`TraceEventKind::Deliver`]).
    pub router: usize,
    /// Port involved: input port for injections, output port for hops
    /// and deliveries.
    pub port: usize,
    /// VC the flit occupied (outgoing VC for hops).
    pub vc: u8,
}

/// The trace order of a head flit's hop among its cycle's events: after
/// every injection, whose order is its class rank
/// ([`Telemetry::trace_listed`]).
const HOP_ORDER: u8 = u8::MAX - 1;

/// The trace order of a delivery: last among its cycle's events.
const DELIVER_ORDER: u8 = u8::MAX;

impl TraceEvent {
    /// Head flit `flit`'s hop from router `r` through output `out` at
    /// `cycle`, with its trace order.
    pub(crate) fn hop(cycle: u64, r: usize, out: usize, flit: &Flit) -> (u8, TraceEvent) {
        let ev = TraceEvent {
            kind: TraceEventKind::Hop,
            cycle,
            packet: flit.packet,
            router: r,
            port: out,
            vc: flit.vc,
        };
        (HOP_ORDER, ev)
    }

    /// `flit`'s delivery to its endpoint at `cycle`, with its trace
    /// order.
    pub(crate) fn deliver(cycle: u64, flit: &Flit) -> (u8, TraceEvent) {
        let ev = TraceEvent {
            kind: TraceEventKind::Deliver,
            cycle,
            packet: flit.packet,
            router: flit.dest as usize,
            port: 0,
            vc: flit.vc,
        };
        (DELIVER_ORDER, ev)
    }
}

/// End-of-run cycle accounting for one link, with human-readable label —
/// the unit of the JSON telemetry summary.
#[derive(Clone, Debug, Serialize)]
pub struct LinkSummary {
    /// Link label (the torus layer uses `"node<N>:<dir>/<slice>"`).
    pub link: String,
    /// Cycles a flit entered the link (equal to flits sent while
    /// telemetry was enabled).
    pub advance_cycles: u64,
    /// Cycles no flit entered the link while at least one upstream
    /// front that had cleared the router pipeline targeted it.
    pub stall_cycles: u64,
    /// Remaining cycles (elapsed − advance − stall), the cycles whose
    /// only waiting fronts were still in the pipeline included.
    pub idle_cycles: u64,
    /// Per-cause breakdown of the stalled head-cycles charged upstream
    /// of this link (may exceed `stall_cycles`: several VCs can stall
    /// on one cycle).
    pub stalls: StallBreakdown,
}

/// The epoch time-series of one link.
#[derive(Clone, Debug, Serialize)]
pub struct LinkEpochSeries {
    /// Link label (same scheme as [`LinkSummary::link`]).
    pub link: String,
    /// Ring contents, oldest first.
    pub samples: Vec<EpochRecord>,
}

/// Stall attribution aggregated over one traffic class.
#[derive(Clone, Debug, Serialize)]
pub struct ClassStallSummary {
    /// Class label (e.g. `"request"` / `"response"`).
    pub class: String,
    /// Per-cause stalled head-cycles summed over the class's VCs.
    pub stalls: StallBreakdown,
}

/// The self-describing end-of-run telemetry report: per-link cycle
/// accounting with stall attribution, per-class stall totals, and the
/// per-link epoch time-series — the JSON artifact `sweep_traffic
/// --telemetry` writes. `schema_version` is bumped whenever a field
/// changes meaning, so archived summaries stay interpretable.
#[derive(Clone, Debug, Serialize)]
pub struct TelemetrySummary {
    /// Version of this summary layout.
    pub schema_version: u32,
    /// Epoch length the time-series was sampled at.
    pub epoch_cycles: u64,
    /// Cycle telemetry was enabled at.
    pub enabled_at_cycle: u64,
    /// Cycles covered (`now − enabled_at`); per link,
    /// `advance + stall + idle` sums to exactly this.
    pub elapsed_cycles: u64,
    /// Buffered packet lifecycle events.
    pub trace_events: usize,
    /// Trace events dropped after the buffer filled.
    pub trace_dropped: u64,
    /// Stall attribution per traffic class.
    pub classes: Vec<ClassStallSummary>,
    /// Per-link cycle accounting, one entry per directed link.
    pub links: Vec<LinkSummary>,
    /// Per-link epoch series (links with at least one flushed epoch).
    pub epochs: Vec<LinkEpochSeries>,
}

/// Current [`TelemetrySummary::schema_version`]. Version 2 added
/// [`EpochRecord::cycles`] (true window width) and the final partial
/// epoch flushed into each link's series at export. Version 3 stopped
/// counting a front still in the router pipeline as stalled: its cycles
/// are idle on the link, the cause `PipelineImmature` is gone, and
/// [`StallBreakdown::pipeline_immature`] always reads 0.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 3;

/// One link's cycle accounting: totals since enabling, the open epoch's
/// deltas, and the per-cycle dedup stamps of [`LinkRecorder`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LinkCounters {
    /// Cycles the link advanced a flit.
    advance: u64,
    /// Cycles the link stalled (≥1 targeting front, no advance).
    stall_cycles: u64,
    /// `cycle + 1` of the last cycle the link advanced (0: never).
    advanced: u64,
    /// `cycle + 1` of the last cycle the link was charged a stall.
    stalled: u64,
    /// Flit delta within the current epoch.
    epoch_advance: u32,
    /// Stall-cycle delta within the current epoch.
    epoch_stall: u32,
}

/// The one recording routine for per-link telemetry, over the flat
/// links `first..first + links.len()` and their block of stall counters
/// ([`Telemetry::recorders`]). The reference stepper records through one
/// spanning every link; each shard window of the epoch kernel through
/// one spanning its own contiguous link range, writing the counters in
/// place.
///
/// The rule it keeps: every stalled queue front adds one head-cycle to
/// its `(link, VC, cause)` counter, and a link is charged at most one
/// stall cycle per cycle, none on a cycle it advanced — so a cycle's
/// advances are recorded before its stalls.
pub(crate) struct LinkRecorder<'a> {
    first: usize,
    vcs: usize,
    /// Whether packet traces are on (each stepper then lists its head
    /// hops where they happen).
    pub(crate) trace: bool,
    links: &'a mut [LinkCounters],
    /// Stalled head-cycles per `((link - first) * vcs + vc) * COUNT + cause`.
    stalls: &'a mut [u64],
}

impl LinkRecorder<'_> {
    /// Records one departure into flat link `link` at `cycle` (links
    /// carry at most one flit per cycle).
    #[inline]
    pub(crate) fn advance(&mut self, cycle: u64, link: usize) {
        let c = &mut self.links[link - self.first];
        c.advance += 1;
        c.epoch_advance = c.epoch_advance.saturating_add(1);
        c.advanced = cycle + 1;
    }

    /// Whether flat link `link` advanced a flit on `cycle`.
    #[inline]
    pub(crate) fn advanced_on(&self, cycle: u64, link: usize) -> bool {
        self.links[link - self.first].advanced == cycle + 1
    }

    /// Charges one stalled head-cycle at `(link, vc)` to `cause`, and
    /// the link itself with a stall cycle (at most once per cycle, and
    /// never on a cycle the link advanced).
    #[inline]
    pub(crate) fn stall(&mut self, cycle: u64, link: usize, vc: u8, cause: StallCause) {
        let l = link - self.first;
        // `CycleRouter::route_head` refuses a VC the fabric lacks.
        debug_assert!((vc as usize) < self.vcs, "the fabric has no VC {vc}");
        self.stalls[(l * self.vcs + vc as usize) * StallCause::COUNT + cause.index()] += 1;
        let c = &mut self.links[l];
        if c.advanced != cycle + 1 && c.stalled != cycle + 1 {
            c.stalled = cycle + 1;
            c.stall_cycles += 1;
            c.epoch_stall = c.epoch_stall.saturating_add(1);
        }
    }
}

/// Telemetry state for one fabric: per-link cycle accounting, per
/// (link, VC, cause) stall counters, epoch rings, and the packet trace
/// buffer, every per-link entry at the fabric's flat link id.
/// Constructed by
/// [`RouterFabric::enable_telemetry`](crate::router::RouterFabric::enable_telemetry);
/// per-link results are read back through a
/// [`TorusFabric`](crate::fabric3d::TorusFabric), which labels them.
#[derive(Clone, Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// VC stride of the per-VC stall counters.
    vcs: usize,
    /// Cycle telemetry was enabled at (elapsed = now − enabled_at).
    enabled_at: u64,
    /// Per-link counters, in flat link order.
    links: Vec<LinkCounters>,
    /// Stalled head-cycles per `(link * vcs + vc) * COUNT + cause`.
    stalls: Vec<u64>,
    /// Current epoch index (`cycle / epoch_cycles` of the last roll).
    epoch: u64,
    /// Per-link epoch rings, oldest record first.
    rings: Vec<VecDeque<EpochRecord>>,
    /// Buffered packet lifecycle events.
    trace: Vec<TraceEvent>,
    /// Events discarded after [`TelemetryConfig::trace_limit`].
    trace_dropped: u64,
}

impl Telemetry {
    /// Creates telemetry for a fabric of `links` flat links and `vcs`
    /// VCs, enabled at `now`.
    pub(crate) fn new(cfg: TelemetryConfig, links: usize, vcs: usize, now: u64) -> Self {
        assert!(cfg.epoch_cycles > 0, "epoch length must be positive");
        assert!(cfg.epoch_ring > 0, "epoch ring needs capacity");
        Telemetry {
            cfg,
            vcs,
            enabled_at: now,
            links: vec![LinkCounters::default(); links],
            stalls: vec![0; links * vcs * StallCause::COUNT],
            epoch: now / cfg.epoch_cycles,
            rings: vec![VecDeque::new(); links],
            trace: Vec::new(),
            trace_dropped: 0,
        }
    }

    /// The configuration this handle was enabled with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// The cycle telemetry was enabled at.
    pub fn enabled_at(&self) -> u64 {
        self.enabled_at
    }

    /// The recorder over every link (the reference stepper's).
    pub(crate) fn recorder(&mut self) -> LinkRecorder<'_> {
        let links = self.links.len();
        self.recorders([links]).next().expect("one link range")
    }

    /// Disjoint recorders over consecutive flat link ranges, from link 0
    /// up to each of the ascending `ends` in turn (one per shard window
    /// of the epoch kernel), each with its links' rows of the stall
    /// block.
    pub(crate) fn recorders(
        &mut self,
        ends: impl IntoIterator<Item = usize>,
    ) -> impl Iterator<Item = LinkRecorder<'_>> {
        let (vcs, trace) = (self.vcs, self.cfg.trace);
        let (mut links, mut stalls, mut first) = (&mut self.links[..], &mut self.stalls[..], 0);
        ends.into_iter().map(move |end| {
            let (l, rest) = std::mem::take(&mut links).split_at_mut(end - first);
            links = rest;
            let block = l.len() * vcs * StallCause::COUNT;
            let (s, rest) = std::mem::take(&mut stalls).split_at_mut(block);
            stalls = rest;
            first = end;
            LinkRecorder {
                first: end - l.len(),
                vcs,
                trace,
                links: l,
                stalls: s,
            }
        })
    }

    /// Traces the events a step listed where they happened, as
    /// `(order, event)` — an injection under its class rank, a head
    /// flit's hop under [`HOP_ORDER`], a flit's delivery under
    /// [`DELIVER_ORDER`] — and empties the list. One stable sort on
    /// (cycle, order) gives the trace order: per cycle, injections by
    /// rank, then hops, then deliveries, each in listed order.
    pub(crate) fn trace_listed(&mut self, events: &mut Vec<(u8, TraceEvent)>) {
        events.sort_by_key(|&(order, ref ev)| (ev.cycle, order));
        for (_, ev) in events.drain(..) {
            self.push_trace(ev);
        }
    }

    fn push_trace(&mut self, ev: TraceEvent) {
        if self.trace.len() < self.cfg.trace_limit {
            self.trace.push(ev);
        } else {
            self.trace_dropped += 1;
        }
    }

    /// The configured epoch length, in cycles. The lookahead stepper
    /// clamps its windows to epoch boundaries so rolls always happen
    /// serially at a window prologue, never mid-window.
    pub(crate) fn epoch_cycles(&self) -> u64 {
        self.cfg.epoch_cycles
    }

    /// The first cycle the open epoch covers: its boundary, or the
    /// enabling cycle for the epoch telemetry was enabled in.
    fn epoch_start(&self) -> u64 {
        (self.epoch * self.cfg.epoch_cycles).max(self.enabled_at)
    }

    /// Closes the open epoch once `cycle` has left it, and does nothing
    /// inside it: pushes one record per **active** link (its flit and
    /// stall deltas and `occupancy(link)`, the link's occupancy sampled
    /// at the boundary), resets the deltas, and advances to `cycle`'s
    /// epoch.
    ///
    /// A link is active once it has ever advanced a flit, been charged a
    /// stall cycle, sampled a non-zero occupancy, or recorded an earlier
    /// epoch — rings for never-touched links stay unallocated, so epoch
    /// telemetry on a mega-fabric costs memory proportional to the links
    /// traffic actually reaches.
    pub(crate) fn roll(&mut self, cycle: u64, occupancy: impl Fn(usize) -> u32) {
        let epoch = cycle / self.cfg.epoch_cycles;
        if epoch == self.epoch {
            return;
        }
        let cycles = (self.epoch + 1) * self.cfg.epoch_cycles - self.epoch_start();
        for (link, (ring, c)) in self.rings.iter_mut().zip(&mut self.links).enumerate() {
            let occ = occupancy(link);
            let active = !ring.is_empty() || c.advance > 0 || c.stall_cycles > 0 || occ > 0;
            if !active {
                continue;
            }
            if ring.len() == self.cfg.epoch_ring {
                ring.pop_front();
            }
            ring.push_back(EpochRecord {
                epoch: self.epoch,
                cycles,
                flits: c.epoch_advance,
                stalls: c.epoch_stall,
                occupancy: occ,
            });
            c.epoch_advance = 0;
            c.epoch_stall = 0;
        }
        self.epoch = epoch;
    }

    /// Cycles flat link `link` advanced a flit and stalled since
    /// enabling, as `(advance, stall)`.
    pub(crate) fn link_cycles(&self, link: usize) -> (u64, u64) {
        let c = &self.links[link];
        (c.advance, c.stall_cycles)
    }

    /// Per-cause stalled head-cycles charged to VC `vc` of flat link
    /// `link`.
    ///
    /// # Panics
    /// Panics if the fabric has no VC `vc`.
    pub(crate) fn stalls(&self, link: usize, vc: u8) -> StallBreakdown {
        assert!((vc as usize) < self.vcs, "the fabric has no VC {vc}");
        let at = (link * self.vcs + vc as usize) * StallCause::COUNT;
        let mut b = StallBreakdown::default();
        for cause in StallCause::ALL {
            b.add(cause, self.stalls[at + cause.index()]);
        }
        b
    }

    /// The epoch series of flat link `link` at cycle `now`: its ring,
    /// oldest record first, then, once a cycle of the open epoch has
    /// elapsed, that epoch's record at its **true width** (`now` minus
    /// the epoch's covered start) with `occupancy` as its sample — how
    /// a summary export flushes the final partial window a run that
    /// doesn't end on an epoch boundary would otherwise drop. Read-only,
    /// so exporting mid-run never perturbs later rolls.
    pub(crate) fn epoch_series(&self, link: usize, now: u64, occupancy: u32) -> Vec<EpochRecord> {
        let mut series: Vec<_> = self.rings[link].iter().copied().collect();
        let start = self.epoch_start();
        if now > start {
            let c = &self.links[link];
            series.push(EpochRecord {
                epoch: self.epoch,
                cycles: now - start,
                flits: c.epoch_advance,
                stalls: c.epoch_stall,
                occupancy,
            });
        }
        series
    }

    /// Heap bytes behind this handle: the dense per-link counters, every
    /// allocated epoch ring, and the trace buffer. Feeds the fabric
    /// memory audit
    /// ([`RouterFabric::memory_breakdown`](crate::router::RouterFabric::memory_breakdown)).
    pub fn memory_bytes(&self) -> usize {
        let counters = self.links.capacity() * std::mem::size_of::<LinkCounters>()
            + self.stalls.capacity() * std::mem::size_of::<u64>();
        let rings = self.rings.capacity() * std::mem::size_of::<VecDeque<EpochRecord>>()
            + self
                .rings
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<EpochRecord>())
                .sum::<usize>();
        counters + rings + self.trace.capacity() * std::mem::size_of::<TraceEvent>()
    }

    /// Buffered packet lifecycle events, in emission order.
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Events discarded after the trace buffer filled.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// The buffered trace as JSONL, one compact JSON object per event
    /// (grep-friendly single-packet debugging). A buffer that dropped
    /// events at [`TelemetryConfig::trace_limit`] ends with a
    /// `Truncated` line carrying the dropped count, so it cannot pass
    /// for a complete trace.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.trace {
            let _ = writeln!(
                out,
                "{{\"kind\":\"{:?}\",\"cycle\":{},\"packet\":{},\"router\":{},\"port\":{},\"vc\":{}}}",
                ev.kind, ev.cycle, ev.packet, ev.router, ev.port, ev.vc
            );
        }
        if self.trace_dropped > 0 {
            let dropped = self.trace_dropped;
            let _ = writeln!(out, "{{\"kind\":\"Truncated\",\"dropped\":{dropped}}}");
        }
        out
    }

    /// The buffered trace as a Chrome `trace_event` JSON document
    /// (loadable in Perfetto or `chrome://tracing`): packets appear as
    /// async spans (`b`/`e`) with one instant (`n`) per hop, `ts`
    /// measured in cycles (one cycle renders as one microsecond), and
    /// the event's router as the thread id. A buffer that dropped events
    /// ends with a global `trace_truncated` instant carrying the count.
    pub fn trace_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for ev in &self.trace {
            let ph = match ev.kind {
                TraceEventKind::Inject => "b",
                TraceEventKind::Hop => "n",
                TraceEventKind::Deliver => "e",
            };
            let _ = write!(
                out,
                "{{\"name\":\"pkt{}\",\"cat\":\"net\",\"ph\":\"{}\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"port\":{},\"vc\":{}}}}},",
                ev.packet, ph, ev.packet, ev.cycle, ev.router, ev.port, ev.vc
            );
        }
        if self.trace_dropped > 0 {
            let _ = write!(
                out,
                "{{\"name\":\"trace_truncated\",\"cat\":\"net\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"dropped\":{}}}}},",
                self.trace_dropped
            );
        }
        // Each entry ends in a comma; the last one's goes.
        if out.ends_with(',') {
            out.pop();
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(packet: u64, index: u8) -> Flit {
        Flit {
            packet,
            index,
            of: 2,
            dest: 7,
            vc: 1,
            tag: 0,
            injected_at: 0,
        }
    }

    /// An injection event at port 12 of `router`, rank 0.
    fn inject(cycle: u64, packet: u64, router: usize) -> (u8, TraceEvent) {
        let kind = TraceEventKind::Inject;
        let (port, vc) = (12, 0);
        (
            0,
            TraceEvent {
                kind,
                cycle,
                packet,
                router,
                port,
                vc,
            },
        )
    }

    /// Telemetry over five flat links of two VCs: router 0's links 0–1
    /// and router 1's links 2–4 of a 2-port and a 3-port router.
    fn tel(trace: bool) -> Telemetry {
        Telemetry::new(
            TelemetryConfig {
                epoch_cycles: 8,
                epoch_ring: 2,
                trace,
                trace_limit: 4,
            },
            5,
            2,
            0,
        )
    }

    /// Flat link `link`'s stalls, summed over both VCs.
    fn link_stalls(t: &Telemetry, link: usize) -> StallBreakdown {
        let mut b = t.stalls(link, 0);
        b.merge(&t.stalls(link, 1));
        b
    }

    #[test]
    fn stall_causes_follow_one_precedence() {
        use StallCause::*;
        // Each cause wins over every one listed after it, and the credit
        // question is not asked once an earlier cause applies.
        let unasked = || -> bool { panic!("credit state read") };
        assert_eq!(StallCause::of(true, true, unasked), LostArbitration);
        assert_eq!(StallCause::of(false, true, unasked), SerializationBusy);
        assert_eq!(StallCause::of(false, false, || true), CreditStarved);
        assert_eq!(StallCause::of(false, false, || false), LostArbitration);
    }

    /// A 3-port, 2-VC row of two routers recording telemetry.
    fn recorded_row() -> crate::router::RouterFabric {
        let mut fabric = crate::router::build_row(2, 2, 2);
        fabric.enable_telemetry(TelemetryConfig::default());
        fabric
    }

    #[test]
    #[should_panic(expected = "router 0 has no port 4")]
    fn telemetry_reads_refuse_a_port_past_the_routers_last() {
        // Unchecked, router 0's port 4 is router 1's port 1.
        let fabric = recorded_row();
        fabric.telemetry().unwrap().link_cycles(fabric.link(0, 4));
    }

    #[test]
    #[should_panic(expected = "the fabric has no VC 2")]
    fn stalls_refuse_a_vc_past_the_last() {
        let fabric = recorded_row();
        fabric.telemetry().unwrap().stalls(fabric.link(0, 1), 2);
    }

    #[test]
    fn telemetry_counts_at_the_fabrics_flat_links() {
        // A lone flit from router 0 to router 1's endpoint enters router
        // 0's port 1 and router 1's port 2, flat links 1 and 5 of the
        // row, and no other.
        let mut fabric = recorded_row();
        let f = Flit {
            of: 1,
            dest: 1,
            vc: 0,
            ..flit(1, 0)
        };
        fabric.inject(0, 0, f).unwrap();
        assert!(fabric.run_until_drained(100));
        assert_eq!((fabric.link(0, 1), fabric.link(1, 2)), (1, 5));
        let tel = fabric.telemetry().unwrap();
        let cycles: Vec<_> = (0..6).map(|link| tel.link_cycles(link)).collect();
        assert_eq!(cycles, [(0, 0), (1, 0), (0, 0), (0, 0), (0, 0), (1, 0)]);
    }

    #[test]
    fn stall_cycles_dedup_per_link_cycle() {
        let mut t = tel(false);
        // Two VCs stall on flat link 1 in the same cycle: two cause
        // counts, one link stall cycle.
        t.recorder().stall(5, 1, 0, StallCause::CreditStarved);
        t.recorder().stall(5, 1, 1, StallCause::LostArbitration);
        assert_eq!(t.link_cycles(1), (0, 1));
        assert_eq!(link_stalls(&t, 1).total(), 2);
        // An advance on the same cycle suppresses the link stall charge.
        t.recorder().advance(6, 1);
        assert!(t.recorder().advanced_on(6, 1) && !t.recorder().advanced_on(5, 1));
        t.recorder().stall(6, 1, 0, StallCause::LostArbitration);
        assert_eq!(t.link_cycles(1), (1, 1));
        assert_eq!(link_stalls(&t, 1).lost_arbitration, 2);
        assert_eq!(t.stalls(1, 0).lost_arbitration, 1);
    }

    #[test]
    fn a_link_range_recorder_writes_in_place() {
        // Router 1's links (flat 2..5) through a recorder over that
        // range alone, as a shard window records its own links.
        let mut t = tel(false);
        let mut rec = t.recorders([2, 5]).nth(1).expect("a second range");
        rec.advance(3, 4);
        rec.stall(3, 4, 1, StallCause::LostArbitration);
        rec.stall(3, 3, 0, StallCause::CreditStarved);
        assert_eq!(t.link_cycles(4), (1, 0));
        assert_eq!(t.stalls(4, 1).lost_arbitration, 1);
        assert_eq!(t.link_cycles(3), (0, 1));
        assert_eq!(t.stalls(3, 0).credit_starved, 1);
        assert_eq!(link_stalls(&t, 1).total(), 0);
    }

    #[test]
    fn epoch_roll_flushes_deltas_and_bounds_ring() {
        let mut t = tel(false);
        t.recorder().advance(3, 4);
        t.recorder().stall(4, 4, 0, StallCause::SerializationBusy);
        // Inside the open epoch a roll samples nothing and records
        // nothing.
        t.roll(7, |_| panic!("occupancy sampled inside the epoch"));
        assert_eq!(t.epoch_series(4, 7, 0)[..], [record(0, 7, 1, 1, 0)]);
        t.roll(8, |link| if link == 4 { 9 } else { 0 });
        // The freshly opened epoch has no elapsed cycles yet, so the
        // series is the ring alone. One cycle in, the open epoch's
        // record shows the roll cleared the deltas; two cycles in, it
        // reports its true two-cycle width.
        let closed = record(0, 8, 1, 1, 9);
        assert_eq!(t.epoch_series(4, 8, 0)[..], [closed]);
        assert_eq!(t.epoch_series(4, 9, 0)[..], [closed, record(1, 1, 0, 0, 0)]);
        t.recorder().advance(9, 4);
        assert_eq!(
            t.epoch_series(4, 10, 3)[..],
            [closed, record(1, 2, 1, 0, 3)]
        );
        // Ring capacity 2: a third roll evicts the oldest record.
        t.roll(16, |_| 0);
        t.roll(24, |_| 0);
        let epochs: Vec<_> = t.epoch_series(4, 24, 0).iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, [1, 2]);
    }

    /// An epoch record of `epoch`, `cycles` wide.
    fn record(epoch: u64, cycles: u64, flits: u32, stalls: u32, occupancy: u32) -> EpochRecord {
        EpochRecord {
            epoch,
            cycles,
            flits,
            stalls,
            occupancy,
        }
    }

    #[test]
    fn idle_links_allocate_no_epoch_rings() {
        let mut t = tel(false);
        t.recorder().advance(3, 4);
        // Occupancy on link 3 starts its ring even with no advance/stall.
        t.roll(8, |link| if link == 3 { 4 } else { 0 });
        t.roll(16, |_| 0);
        // Links 0–2 never saw activity: no records, no ring storage.
        for link in 0..3 {
            assert_eq!(t.epoch_series(link, 16, 0).len(), 0);
            assert_eq!(t.rings[link].capacity(), 0);
        }
        // Once started, a ring records every executed epoch (idle ones
        // included) so the series stays contiguous.
        assert_eq!(t.epoch_series(3, 16, 0).len(), 2);
        assert_eq!(t.epoch_series(4, 16, 0).len(), 2);
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn trace_buffer_caps_and_sinks_render() {
        let mut t = tel(true);
        let mut listed = vec![
            inject(0, 42, 0),
            TraceEvent::hop(1, 0, 0, &flit(42, 0)),
            TraceEvent::deliver(5, &flit(42, 1)),
            TraceEvent::deliver(6, &flit(43, 0)),
        ];
        t.trace_listed(&mut listed);
        assert!(listed.is_empty(), "the list is flushed");
        assert_eq!(t.trace_events().len(), 4);
        // Buffer is full now (limit 4): further events count as dropped.
        t.trace_listed(&mut vec![inject(7, 44, 1)]);
        assert_eq!(t.trace_dropped(), 1);

        // 4 buffered events plus the truncation footer for the dropped one.
        assert_eq!(
            t.trace_jsonl(),
            concat!(
                r#"{"kind":"Inject","cycle":0,"packet":42,"router":0,"port":12,"vc":0}"#,
                "\n",
                r#"{"kind":"Hop","cycle":1,"packet":42,"router":0,"port":0,"vc":1}"#,
                "\n",
                r#"{"kind":"Deliver","cycle":5,"packet":42,"router":7,"port":0,"vc":1}"#,
                "\n",
                r#"{"kind":"Deliver","cycle":6,"packet":43,"router":7,"port":0,"vc":1}"#,
                "\n",
                r#"{"kind":"Truncated","dropped":1}"#,
                "\n",
            )
        );
        assert_eq!(
            t.trace_chrome(),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"pkt42","cat":"net","ph":"b","id":42,"ts":0,"pid":0,"tid":0,"args":{"port":12,"vc":0}},"#,
                r#"{"name":"pkt42","cat":"net","ph":"n","id":42,"ts":1,"pid":0,"tid":0,"args":{"port":0,"vc":1}},"#,
                r#"{"name":"pkt42","cat":"net","ph":"e","id":42,"ts":5,"pid":0,"tid":7,"args":{"port":0,"vc":1}},"#,
                r#"{"name":"pkt43","cat":"net","ph":"e","id":43,"ts":6,"pid":0,"tid":7,"args":{"port":0,"vc":1}},"#,
                r#"{"name":"trace_truncated","cat":"net","ph":"i","ts":0,"pid":0,"tid":0,"s":"g","args":{"dropped":1}}"#,
                "]}",
            )
        );
    }

    #[test]
    fn untruncated_traces_render_without_a_footer() {
        let mut t = tel(true);
        t.trace_listed(&mut vec![inject(0, 1, 0)]);
        assert_eq!(t.trace_dropped(), 0);
        assert_eq!(
            t.trace_jsonl(),
            "{\"kind\":\"Inject\",\"cycle\":0,\"packet\":1,\"router\":0,\"port\":12,\"vc\":0}\n"
        );
        assert_eq!(
            t.trace_chrome(),
            concat!(
                r#"{"traceEvents":[{"name":"pkt1","cat":"net","ph":"b","id":1,"ts":0,"#,
                r#""pid":0,"tid":0,"args":{"port":12,"vc":0}}]}"#,
            )
        );
    }

    #[test]
    fn stall_cause_indices_roundtrip() {
        for (i, c) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut b = StallBreakdown::default();
        for c in StallCause::ALL {
            b.add(c, 2);
        }
        assert_eq!(b.total(), 6);
        let mut b2 = b;
        b2.merge(&b);
        assert_eq!(b2.total(), 12);
        assert_eq!(b2.pipeline_immature, 0);
    }
}
