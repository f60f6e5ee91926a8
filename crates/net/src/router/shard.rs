//! The region-partitioned lookahead stepper: the epoch kernel every
//! production step runs, and its worker pool.
//!
//! # Ownership
//!
//! Anton 3's routers keep their input queues and credit counters on
//! their own node, and a neighbour learns of them only through credits
//! returning over the link. The kernel keeps the same partition with
//! ordinary borrows. Each link holds one credit count per VC: the
//! sender's count for the queue the link feeds, which only the sender
//! spends. Shard `s`'s routers `bounds[s]..bounds[s + 1]` own the links
//! `link_off[bounds[s]]..link_off[bounds[s + 1]]` (their outputs, and
//! their input ports under the same ids). Each epoch,
//! [`RouterFabric::step_epoch`] splits the fabric into two views:
//!
//! - one [`EpochInputs`], which every shard only reads: the wiring,
//!   the link offsets and the routing closures;
//! - one [`ShardRows`] per shard, which only that shard touches: its
//!   routers, its link range of every per-link table (channels, link
//!   timers, credits, class counts and feeders), and element `s` of the
//!   scratch (arrival wheel, boundary outbox and credit return list), of
//!   the telemetry recorders and of the endpoints.
//!
//! A window indexes its tables from its first router and first link, so
//! a read of another shard's entry panics (its index falls outside the
//! window's range) instead of racing. A flit bound for another shard
//! goes in the outbox, and a departure whose credit belongs to another
//! shard's sender puts the credit's index on the return list; the
//! serial epilogue moves both to their owners.
//! An [`Endpoint`] reaches the fabric only through an [`InjectPort`]
//! built from its shard's rows, and only at ports no link feeds.
//!
//! Shard 0 runs on the stepping thread, the others on a persistent
//! pool. The crate's one `unsafe` block, in [`ShardPool::new`], turns
//! the addresses [`ShardPool::launch`] publishes back into a worker's
//! `&EpochInputs` and its own `&mut ShardRows`; a compile-time check
//! holds both types to the `Send`/`Sync` bounds that hand-off needs.
//! There is exactly one [`SpinBarrier`] fence per multi-shard epoch:
//! shards run their whole private window with no synchronization (every
//! positive-latency link is at least one window long, so no cross-shard
//! effect can land inside it), then the single end-of-epoch fence
//! provides the acquire/release edge before the serial epilogue, which
//! alone moves boundary flits from one shard's outbox onto another
//! shard's wheel and applies the boundary credit returns.
//! The views belong to the stepping thread's `step_epoch` call, and
//! workers use them only between the pool launch and that fence, which
//! the stepping thread also waits on. A panic inside a window does not skip the
//! fence: every party catches its own panic, records the first one in
//! the pool and waits, and the stepping thread re-raises that payload
//! only after the fence, so no worker is left spinning and no unwind
//! frees the views under a running window. A one-shard fabric has no
//! pool: the stepping thread runs the window inline, so its panics
//! simply unwind.

use super::*;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Why [`RouterFabric::set_shards`] refused a shard count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardError {
    /// The count was zero or exceeded the router count.
    InvalidCount {
        /// Requested shard count.
        shards: usize,
        /// Routers available to partition.
        routers: usize,
    },
    /// The fabric still holds traffic: queued flits, flits in link
    /// flight, or a packet mid-cut-through. Re-partitioning would hand
    /// live state to new owners mid-protocol; drain the fabric first.
    Busy {
        /// Flits resident in queues and in link flight.
        resident: usize,
    },
    /// A router-to-router link has zero latency, so a departure would
    /// have to land in another shard *within the same cycle* — there is
    /// no transmission window to hide the exchange barrier in. (Links of
    /// a calibrated torus are always at least one cycle long; latency-0
    /// router links occur only in single-chip test fabrics, which step
    /// with one shard.)
    ZeroLatencyLink {
        /// Upstream router of the offending link.
        router: usize,
        /// Upstream output port of the offending link.
        port: usize,
    },
    /// A lookahead window of zero cycles was requested. Shards must
    /// advance at least one cycle per epoch; pass `None` (or omit the
    /// knob) for the automatic structural window.
    InvalidLookahead,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::InvalidCount { shards, routers } => {
                write!(f, "cannot split {routers} routers into {shards} shards")
            }
            ShardError::Busy { resident } => write!(
                f,
                "cannot re-shard a busy fabric ({resident} flits resident); drain first"
            ),
            ShardError::ZeroLatencyLink { router, port } => write!(
                f,
                "router link ({router}, {port}) has zero latency; sharded stepping needs \
             every inter-router link to be at least one cycle long"
            ),
            ShardError::InvalidLookahead => write!(
                f,
                "lookahead window must be at least one cycle (use None for the \
             automatic structural window)"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A counting barrier for the end-of-epoch fence of a sharded step.
/// Spins briefly then yields: epochs are microseconds apart, so
/// parking in the kernel between them would dominate, but the
/// busy-wait must stay polite when shards exceed cores (single-core
/// machines still run the multi-shard equivalence tests).
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival resets the count for the next fence and
            // releases the waiters; the reset is ordered before the
            // generation bump, so a released party re-entering `wait`
            // always sees the fresh count.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Shared control block between a sharded fabric and its workers.
struct PoolCtl {
    /// Step grant: a bumped epoch plus the addresses of the epoch's
    /// [`EpochInputs`] and of the [`ShardRows`] of shards `1..` (the
    /// stepping thread's `step_epoch` owns both and keeps them valid
    /// until every party passes the final barrier).
    go: Mutex<(u64, usize, usize)>,
    cv: Condvar,
    stop: AtomicBool,
    /// The end-of-epoch fence, sized to the shard count.
    barrier: SpinBarrier,
    /// The first panic caught in any party's window this epoch,
    /// re-raised by the stepping thread once every party has passed
    /// the fence.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl PoolCtl {
    /// Keeps `payload` unless an earlier party's panic is recorded.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panic.lock().expect("pool lock").get_or_insert(payload);
    }
}

/// The persistent worker pool of a sharded fabric: shard 0 runs on the
/// stepping thread itself; shards `1..` each own one worker parked on a
/// condvar between steps. Steps happen far too often (tens of
/// microseconds apart) to spawn threads per cycle, and parked workers
/// cost nothing while the fabric idles or steps via the reference path.
pub(super) struct ShardPool {
    ctl: Arc<PoolCtl>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    #[allow(unsafe_code)]
    pub(super) fn new(shards: usize) -> Self {
        let ctl = Arc::new(PoolCtl {
            go: Mutex::new((0, 0, 0)),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            barrier: SpinBarrier::new(shards),
            panic: Mutex::new(None),
        });
        let workers = (1..shards)
            .map(|s| {
                let ctl = Arc::clone(&ctl);
                std::thread::Builder::new()
                    .name(format!("shard-{s}"))
                    .spawn(move || {
                        let mut seen = 0u64;
                        loop {
                            let (inputs, rows) = {
                                let mut go = ctl.go.lock().expect("pool lock");
                                loop {
                                    if ctl.stop.load(Ordering::Relaxed) {
                                        return;
                                    }
                                    if go.0 > seen {
                                        seen = go.0;
                                        break (go.1, go.2);
                                    }
                                    go = ctl.cv.wait(go).expect("pool lock");
                                }
                            };
                            let window = catch_unwind(AssertUnwindSafe(|| {
                                // SAFETY: `launch` published the epoch's
                                // inputs and one row view per worker,
                                // for shards `1..` in order, so element
                                // `s - 1` exists and is this shard's
                                // alone; no other party touches it.
                                // The stepping thread keeps both alive
                                // until it passes the epoch barrier
                                // below, which cannot happen before this
                                // worker reaches it too — a panicking
                                // window included, since the panic is
                                // caught here and handed to the stepping
                                // thread to re-raise.
                                let (inputs, rows) = unsafe {
                                    (
                                        &*(inputs as *const EpochInputs<'_>),
                                        &mut *(rows as *mut ShardRows<'_>).add(s - 1),
                                    )
                                };
                                run_window(inputs, rows);
                            }));
                            if let Err(payload) = window {
                                ctl.record_panic(payload);
                            }
                            ctl.barrier.wait();
                        }
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool { ctl, workers }
    }

    /// Publishes one epoch's inputs and the rows of shards `1..` (one
    /// element per worker, in shard order) and wakes the workers. The
    /// caller must then run shard 0's window itself and wait on the
    /// epoch barrier, which holds it until every worker finishes.
    fn launch(&self, inputs: &EpochInputs<'_>, rest: &mut [ShardRows<'_>]) {
        assert_eq!(rest.len(), self.workers.len(), "one row view per worker");
        let mut go = self.ctl.go.lock().expect("pool lock");
        go.0 += 1;
        go.1 = inputs as *const EpochInputs<'_> as usize;
        go.2 = rest.as_mut_ptr() as usize;
        self.ctl.cv.notify_all();
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.ctl.stop.store(true, Ordering::Relaxed);
        // Taking the lock fences the flag against a worker mid-way into
        // its wait, so the notify below cannot be missed.
        drop(self.ctl.go.lock().expect("pool lock"));
        self.ctl.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Per-shard state of the epoch kernel: the arrival wheel, and
/// per-epoch buffers reused across epochs. Written only by the owning
/// shard inside its window, and by serial code outside windows.
///
/// Aligned to its own cache lines: windows keep writing `sent`,
/// `landed` and `last_move` while they run, and no line may hold
/// fields of two shards.
#[derive(Default)]
#[repr(align(128))]
pub(super) struct ShardScratch {
    /// Calendar wheel of this shard's landings: slot `t % len` holds
    /// the bookings landing at cycle `t`. The length is the longest
    /// link latency `L`, plus one (see [`RouterFabric::set_link_spec`]):
    /// at cycle `c` the live bookings land in `c + 1..=c + L`, and a
    /// departure onto the longest link books slot `(c - 1) % len`, the
    /// slot cycle `c - 1`'s landing emptied, so a slot never mixes
    /// cycles.
    pub(super) wheel: Vec<Vec<Arrival>>,
    /// This window's departures into other shards, as `(wheel slot,
    /// booking)`, for the epilogue to move onto the downstream
    /// shard's wheel.
    outbox: Vec<(usize, Arrival)>,
    /// Credits this window's departures return to senders in other
    /// shards, as credit-table indices, for the epilogue to apply.
    returns: Vec<usize>,
    /// Flits this window sent onto positive-latency links.
    sent: usize,
    /// Flits this window landed into its routers.
    landed: usize,
    /// The last cycle of this window in which a router of the shard
    /// moved a flit (0 when none did), for the drain rewind.
    last_move: u64,
    /// The current private cycle's departures, `(router, input
    /// queue, output, flit)`, in ascending router order.
    moves: Vec<(usize, usize, usize, Flit)>,
    /// Ejections across the window as `(cycle, flit)`, in the serial
    /// order within the shard: by cycle, then by departure.
    ejected: Vec<(u64, Flit)>,
    /// While tracing, the trace events listed where they happen, as
    /// `(order, event)`: the endpoint's injections, the head hops onto
    /// router links and the ejections, in the order the window makes
    /// them (the reference stepper lists its own in shard 0's). Every
    /// step flushes it ([`RouterFabric::flush_trace`]).
    pub(super) trace: Vec<(u8, TraceEvent)>,
}

impl ShardScratch {
    /// A shard's state with an empty `wheel_len`-slot arrival wheel.
    pub(super) fn new(wheel_len: usize) -> Self {
        ShardScratch {
            wheel: vec![Vec::new(); wheel_len],
            ..ShardScratch::default()
        }
    }

    /// Heap bytes behind this shard's wheel and scratch buffers (for
    /// the fabric memory audit).
    pub(super) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let wheel = self.wheel.capacity() * size_of::<Vec<Arrival>>()
            + self
                .wheel
                .iter()
                .map(|s| s.capacity() * size_of::<Arrival>())
                .sum::<usize>();
        wheel
            + self.outbox.capacity() * size_of::<(usize, Arrival)>()
            + self.returns.capacity() * size_of::<usize>()
            + self.moves.capacity() * size_of::<(usize, usize, usize, Flit)>()
            + self.ejected.capacity() * size_of::<(u64, Flit)>()
            + self.trace.capacity() * size_of::<(u8, TraceEvent)>()
    }
}

/// What every shard window of one epoch only reads.
struct EpochInputs<'a> {
    /// First cycle of the window.
    cycle: u64,
    /// Window width: shards privately simulate `cycle..cycle + window`.
    window: u64,
    wiring: &'a [PortLink],
    link_off: &'a [usize],
    /// The credit and class tables' strides.
    vcs: usize,
    classes: usize,
    route: &'a RouteFn,
    classify: Option<&'a FlitClassFn>,
    /// Whether any flit was in flight when the epoch started; if not,
    /// nothing lands inside the window.
    in_flight: bool,
}

/// One shard's part of the fabric for one epoch: its routers, split
/// off at the shard's bounds, and its link range of every per-link
/// table, split off at those routers' link offsets — everything its
/// window writes, and its range of the feeder map.
struct ShardRows<'a> {
    /// First router of the shard.
    lo: usize,
    routers: &'a mut [CycleRouter],
    channels: &'a mut [ChannelState],
    next_free: &'a mut [u64],
    credits: &'a mut [u32],
    class_flits: &'a mut [u64],
    feeder: &'a [Option<u32>],
    scratch: &'a mut ShardScratch,
    /// The shard's telemetry recorder, over its own links
    /// ([`Telemetry::recorders`]); `None` when telemetry is off.
    recorder: Option<LinkRecorder<'a>>,
    /// The shard's endpoint ([`RouterFabric::step_endpoints`]), if
    /// the epoch runs endpoints.
    endpoint: Option<&'a mut dyn Endpoint>,
}

// The pool hands each worker `&EpochInputs` and its own `&mut ShardRows`.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    const fn owned<T: Send>() {}
    shared::<EpochInputs<'static>>();
    owned::<ShardRows<'static>>();
};

/// Splits the first `n` entries off `rest`.
fn take_rows<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (rows, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    rows
}

/// Runs one shard's private window of a lookahead epoch: up to
/// `window` cycles of land / arbitrate / apply with **no internal
/// synchronization**. Each cycle first runs the shard's endpoint, if
/// the epoch has endpoints — generation and injection into the
/// shard's own injection ports — then lands the shard's wheel slot,
/// then arbitrates every router of the shard that has work, in
/// ascending index order, each recording its telemetry as it
/// arbitrates; ejections go to the endpoint as they apply. The window
/// ends early at a cycle in which no router had work if nothing was in
/// flight when the epoch began and the endpoint is idle. Every party —
/// the stepping thread as shard 0, one pool worker per remaining shard
/// — calls this exactly once per epoch, then waits on the epoch
/// barrier, having caught any panic of the window first (a one-shard
/// fabric has neither workers nor barrier).
///
/// Cross-shard effects cannot occur inside the window: every
/// positive-latency link is at least `window` cycles long, so a flit
/// departing during the window lands at or beyond the barrier, and
/// every landing *inside* the window was booked on this shard's
/// wheel before the epoch began — by its own departures, or as a
/// boundary accept an earlier epilogue moved in. Zero-latency router
/// links never leave a shard (`set_shards` and `set_link_spec`
/// refuse them), so their flits land in-shard the cycle they depart.
/// Every credit check reads the sender's own entry. A departure's
/// credit returns to a sender in another shard only at the epilogue,
/// and the window clamp keeps that delay invisible (see
/// [`RouterFabric::step_epoch`]).
fn run_window(inp: &EpochInputs<'_>, rows: &mut ShardRows<'_>) {
    let ShardRows {
        lo,
        routers,
        channels,
        next_free,
        credits,
        class_flits,
        feeder,
        scratch,
        recorder: rec,
        endpoint,
    } = rows;
    let (lo, hi) = (*lo, *lo + routers.len());
    let (vcs, classes) = (inp.vcs, inp.classes);
    // The shard's links start at `l0`, its credits at `owned.start`.
    let l0 = inp.link_off[lo];
    let owned = l0 * vcs..l0 * vcs + credits.len();
    let tracing = rec.as_ref().is_some_and(|r| r.trace);
    (scratch.sent, scratch.landed, scratch.last_move) = (0, 0, 0);
    let t0 = inp.cycle;
    let tend = t0 + inp.window;

    let wheel_len = scratch.wheel.len() as u64;
    let mut cycle = t0;
    while cycle < tend {
        // The endpoint stage, ahead of the landings: the view reaches
        // only this shard's routers, and only their injection ports —
        // a port a link feeds spends its sender's credit, which may
        // be another shard's.
        if let Some(ep) = endpoint.as_deref_mut() {
            let mut port = InjectPort {
                cycle,
                lo,
                routers,
                link_off: inp.link_off,
                feeder,
                credits: None,
                trace: tracing.then_some(&mut scratch.trace),
                rank: 0,
            };
            ep.begin_cycle(cycle, &mut port);
        }
        // Land this cycle's wheel slot into this shard's queues.
        // Departures book at least one window out, so the slot cannot
        // grow while it lands.
        let slot = (cycle % wheel_len) as usize;
        if !scratch.wheel[slot].is_empty() {
            let mut bucket = std::mem::take(&mut scratch.wheel[slot]);
            for a in &bucket {
                let i = a.router as usize - lo;
                routers[i].accept(a.port as usize, a.flit(), cycle);
            }
            scratch.landed += bucket.len();
            bucket.clear();
            scratch.wheel[slot] = bucket;
        }

        // One pass over the routers with work, in index order: each
        // arbitrates, then, with telemetry on, records its departures'
        // advances (and traced head hops) and classifies each occupied
        // front that has cleared the pipeline into the shard's own
        // counters — the epoch mirror of `telemetry_record`, with
        // targets from the memo arbitration shares and "this output
        // advanced" from the outputs arbitration departed.
        // Classification reads only the router's own links' timers and
        // credits, which no other router's arbitration writes:
        // departures apply after the pass.
        let mut busy = false;
        for (i, router) in routers.iter_mut().enumerate() {
            if router.is_idle() {
                continue;
            }
            busy = true;
            // The router's first link, shard-relative. Arbitration and
            // classification ask the same two checks of its links.
            let first = inp.link_off[lo + i] - l0;
            let free = |out: usize| next_free[first + out] <= cycle;
            let has_credit = |out: usize, vc: u8| credits[(first + out) * vcs + vc as usize] > 0;
            let from = scratch.moves.len();
            let departed = router.arbitrate_into(
                cycle,
                inp.route,
                |out, vc| free(out) && has_credit(out, vc),
                &mut scratch.moves,
            );
            let Some(rec) = rec.as_mut() else {
                continue;
            };
            for &(r, _, out, ref flit) in &scratch.moves[from..] {
                let link = l0 + first + out;
                rec.advance(cycle, link);
                if tracing && flit.is_head() && matches!(inp.wiring[link], PortLink::Router { .. })
                {
                    scratch.trace.push(TraceEvent::hop(cycle, r, out, flit));
                }
            }
            router.for_each_front_target(inp.route, |out, out_vc| {
                let link = l0 + first + out;
                let advanced = departed & (1 << out) != 0;
                let cause = StallCause::of(advanced, !free(out), || !has_credit(out, out_vc));
                rec.stall(cycle, link, out_vc, cause);
            });
        }
        if !busy {
            // Dead shard-cycle. Later slots may still land flits,
            // unless nothing was in flight at the epoch start, and the
            // endpoint may still generate or inject.
            if !inp.in_flight && endpoint.as_deref().is_none_or(|ep| ep.idle(cycle + 1)) {
                break;
            }
            cycle += 1;
            continue;
        }
        if !scratch.moves.is_empty() {
            scratch.last_move = cycle;
        }

        // Apply: each departure returns the credit of the queue it
        // left to the link feeding that queue — in this shard's credits
        // when it is one of its links, else through the epilogue —
        // spends its own and enters its link. Arbitration and
        // classification are done, so no credit check sees the return
        // before the next cycle. Every booking lands at or beyond the
        // epoch barrier (no positive link latency is shorter than the
        // window): a hop inside the shard books on the shard's wheel,
        // a boundary hop in the outbox. Zero-latency hops land
        // in-shard and ejections deliver, this cycle.
        for (r, q, out, flit) in scratch.moves.drain(..) {
            debug_assert!(lo <= r && r < hi, "move escaped its shard");
            let first = inp.link_off[r] - l0;
            if let Some(up) = feeder[first + q / vcs] {
                let at = up as usize * vcs + q % vcs;
                if owned.contains(&at) {
                    credits[at - owned.start] += 1;
                } else {
                    scratch.returns.push(at);
                }
            }
            let link = first + out;
            if let Some(classify) = inp.classify {
                class_flits[link * classes + classify(&flit)] += 1;
            }
            let ch = &mut channels[link];
            next_free[link] = cycle + ch.spec.interval;
            ch.flits_sent += 1;
            ch.packets_sent += u64::from(flit.is_tail());
            let spec = ch.spec;
            match inp.wiring[l0 + link] {
                PortLink::Router {
                    router: dst,
                    port: dport,
                } => {
                    credits[link * vcs + flit.vc as usize] -= 1;
                    if spec.latency == 0 {
                        // Flight folds into the downstream pipeline.
                        assert!(lo <= dst && dst < hi, "zero-latency link left its shard");
                        routers[dst - lo].accept(dport, flit, cycle);
                    } else {
                        debug_assert!(spec.latency < wheel_len, "arrival beyond the wheel");
                        debug_assert!(cycle + spec.latency >= tend, "booking inside the window");
                        let slot = ((cycle + spec.latency) % wheel_len) as usize;
                        let a = Arrival::new(&flit, dst, dport);
                        if (lo..hi).contains(&dst) {
                            scratch.wheel[slot].push(a);
                        } else {
                            scratch.outbox.push((slot, a));
                        }
                        scratch.sent += 1;
                    }
                }
                PortLink::Endpoint(_) => {
                    if let Some(ep) = endpoint.as_deref_mut() {
                        ep.deliver(cycle, &flit);
                    }
                    if tracing {
                        scratch.trace.push(TraceEvent::deliver(cycle, &flit));
                    }
                    scratch.ejected.push((cycle, flit));
                }
                PortLink::Unused => unreachable!("flit departed through an unused port"),
            }
        }
        cycle += 1;
    }
}

/// Sorts `list` stably by `key`, unless it already is.
fn sort_stably<T, K: Ord>(list: &mut [T], key: impl Fn(&T) -> K) {
    if !list.is_sorted_by_key(&key) {
        list.sort_by_key(key);
    }
}

impl<T> RouterFabric<T> {
    /// The shard owning router `r` under the current partition.
    pub(super) fn shard_of(&self, r: usize) -> usize {
        self.bounds.partition_point(|&b| b <= r) - 1
    }

    /// The lookahead-epoch step, at every shard count: selects the
    /// widest window `W` every shard can legally simulate alone, runs
    /// all shards privately for up to `W` cycles — each landing its
    /// own arrival wheel and recording telemetry into its own links'
    /// counters — inline when there is one shard, else with **one**
    /// pool launch and **one** end-of-epoch barrier, where the
    /// retired per-cycle protocol paid one launch plus four barriers
    /// per simulated cycle. The serial epilogue then only orders
    /// output: it appends the shards' deliveries in shard order and
    /// sorts them stably by cycle, which over contiguous ascending
    /// regions is the reference stepper's (cycle, ascending router)
    /// order, and traces the shards' listed events the same way
    /// ([`RouterFabric::flush_trace`]); it moves the window's
    /// boundary flits onto their downstream wheels, and it applies
    /// the credits the window's departures return across boundaries.
    ///
    /// Window selection takes the minimum of:
    /// - the caller's stepping limit (`limit - cycle`),
    /// - the fabric's minimum positive link latency, so no departure
    ///   booked inside the window can also *land* inside it — every
    ///   window landing is already on its shard's wheel,
    /// - the configured cap ([`RouterFabric::set_shards_with_lookahead`];
    ///   tests pin degenerate windows of 1),
    /// - the distance to the next telemetry epoch boundary, so rolls
    ///   always happen serially at a prologue,
    /// - per boundary `(link, vc)`: `(credits - 1) * interval + 1`
    ///   cycles, where `credits` is the sender's count at the epoch
    ///   start. A link serializes at most one flit per `interval`
    ///   cycles, so within that window the sender spends its last
    ///   credit no earlier than the window's last cycle. Its count
    ///   misses the downstream's mid-window credit *returns* until
    ///   the epilogue applies them, but no check inside the window
    ///   finds it at zero unless the serial credit loop's is zero
    ///   too — credit checks, grants, and stall causes stay
    ///   bit-exact.
    ///
    /// When the window drains the fabric (no flit in flight, and
    /// [`CycleRouter::is_idle`] for every router), the cycle counter
    /// rewinds to one past the last cycle a flit moved — the exact
    /// cycle per-cycle stepping stops at, so drain-loop observables
    /// do not depend on the window width — provided every endpoint is
    /// idle from there on, so the rewind never moves back over a cycle
    /// in which an endpoint drew a random number or tried to inject.
    ///
    /// Ejections deliver *inside* shard windows, where no prologue
    /// can foresee them and no epoch can be unwound past them. Work
    /// that reacts to a delivery runs in the shard's endpoint
    /// (`endpoints`, one per shard, or none); a caller that reacts
    /// itself must pass `limit = cycle + 1` ([`RouterFabric::step`]).
    pub(super) fn step_epoch(&mut self, limit: u64, endpoints: &mut [&mut dyn Endpoint]) {
        let t0 = self.cycle;
        debug_assert!(limit > t0, "epoch must advance at least one cycle");
        if self.telemetry.is_some() {
            self.telemetry_begin_step();
        }

        // ---- Window selection ----
        let mut w = (limit - t0).min(self.min_pos_latency);
        if let Some(cap) = self.lookahead_cap {
            w = w.min(cap);
        }
        if let Some(tel) = self.telemetry.as_deref() {
            let len = tel.epoch_cycles();
            w = w.min(len - t0 % len);
        }
        for &link in &self.boundary {
            let interval = self.channels[link].spec.interval;
            for &credit in &self.credits[link * self.vcs..(link + 1) * self.vcs] {
                w = w.min(u64::from(credit.saturating_sub(1)) * interval + 1);
            }
        }
        let w = w.max(1);

        // ---- Private windows: inline, or one launch + one barrier ----
        let shards = self.bounds.len() - 1;
        {
            let inputs = EpochInputs {
                cycle: t0,
                window: w,
                wiring: &self.wiring,
                link_off: &self.link_off,
                vcs: self.vcs,
                classes: self.classes,
                route: &*self.route,
                classify: self.classify.as_deref(),
                in_flight: self.in_flight_total > 0,
            };
            // Each shard records into its own links' telemetry rows.
            let ends = self.bounds[1..].iter().map(|&b| self.link_off[b]);
            let mut recorders = self.telemetry.as_deref_mut().map(|t| t.recorders(ends));
            let mut endpoints = endpoints.iter_mut();
            let (mut routers, mut channels) = (&mut self.routers[..], &mut self.channels[..]);
            let (mut next_free, mut credits) = (&mut self.next_free[..], &mut self.credits[..]);
            let mut class_flits = &mut self.class_flits[..];
            let bounds = self.bounds.windows(2).zip(&mut self.shard_scratch);
            let mut rows = bounds.map(|(b, scratch)| {
                let (lo, hi) = (b[0], b[1]);
                let links = self.link_off[lo]..self.link_off[hi];
                ShardRows {
                    lo,
                    routers: take_rows(&mut routers, hi - lo),
                    channels: take_rows(&mut channels, links.len()),
                    next_free: take_rows(&mut next_free, links.len()),
                    credits: take_rows(&mut credits, links.len() * self.vcs),
                    class_flits: take_rows(&mut class_flits, links.len() * self.classes),
                    feeder: &self.feeder[links],
                    scratch,
                    recorder: recorders.as_mut().and_then(Iterator::next),
                    endpoint: endpoints.next().map(|ep| &mut **ep as &mut dyn Endpoint),
                }
            });
            match &self.pool {
                None => run_window(&inputs, &mut rows.next().expect("one shard")),
                Some(pool) => {
                    let mut rows: Vec<ShardRows> = rows.collect();
                    let (first, rest) = rows.split_first_mut().expect("shard 0");
                    pool.launch(&inputs, rest);
                    // Shard 0's own panic is caught too and re-raised
                    // only past the barrier, so unwinding never frees
                    // the views under a running worker.
                    let window = catch_unwind(AssertUnwindSafe(|| run_window(&inputs, first)));
                    if let Err(payload) = window {
                        pool.ctl.record_panic(payload);
                    }
                    pool.ctl.barrier.wait();
                    self.sync_ops += 2;
                    if let Some(payload) = pool.ctl.panic.lock().expect("pool lock").take() {
                        resume_unwind(payload);
                    }
                }
            }
        }
        self.epochs += 1;

        // ---- Serial epilogue: outputs in the reference order ----
        // Shards own ascending router ranges and list their deliveries
        // and trace events by cycle, then router, so appending the lists
        // in shard order and sorting them stably by cycle gives the
        // reference stepper's (cycle, ascending router) order.
        // Boundary flits go onto their downstream shard's wheel, and
        // boundary credit returns reach their senders' rows.
        let from = self.delivered.len();
        let mut last_active = t0;
        for s in 0..shards {
            let sc = &mut self.shard_scratch[s];
            self.delivered.append(&mut sc.ejected);
            last_active = last_active.max(sc.last_move);
            self.in_flight_total = self.in_flight_total + sc.sent - sc.landed;
            for at in sc.returns.drain(..) {
                self.credits[at] += 1;
            }
            let mut outbox = std::mem::take(&mut sc.outbox);
            for (slot, a) in outbox.drain(..) {
                let d = self.shard_of(a.router as usize);
                self.shard_scratch[d].wheel[slot].push(a);
            }
            self.shard_scratch[s].outbox = outbox;
        }
        sort_stably(&mut self.delivered[from..], |d| d.0);
        self.flush_trace();

        // An endpoint idle from the rewind target on did nothing after
        // it: its packets' moves would be later, and its draws are
        // generation it still has ahead.
        let drained = self.in_flight_total == 0
            && endpoints.iter().all(|ep| ep.idle(last_active + 1))
            && self.routers.iter().all(CycleRouter::is_idle);
        self.cycle = if drained {
            // Drained inside the window: stop where per-cycle
            // stepping stops, independent of the window width.
            last_active + 1
        } else {
            t0 + w
        };
        self.cycles_stepped += self.cycle - t0;
    }
}
