//! The reference stepper: a naive full scan over every router and every
//! (port, VC) each cycle, retained as the executable specification the
//! epoch kernel (`router/shard.rs`) must match bit for bit — delivery
//! log, link counters, telemetry and packet trace. It shares the flit
//! store, the routers' `depart`, the arrival wheels, the telemetry
//! recorder and the trace merge with the kernel.

use super::*;

impl<T> RouterFabric<T> {
    /// Advances the fabric one cycle with the retained **reference**
    /// stepper: the naive full scan over every router, arbitrating every
    /// (port, VC) with the router's full-scan `tick` against each
    /// router's link timers and credits. Kept as the executable
    /// specification of [`Self::step`] — the `stepper_equivalence`
    /// property tests (and the committed benchmark's traced run, which
    /// also times both) run the two side by side and require identical
    /// delivery logs and link counters. The two may be freely
    /// interleaved on one fabric.
    pub fn step_reference(&mut self) {
        let cycle = self.cycle;
        if self.telemetry.is_some() {
            self.telemetry_begin_step();
        }
        self.land_arrivals(cycle);

        // Full-scan arbitration over every router — deliberately naive;
        // this is the spec, not the fast path. Nothing a departure check
        // reads changes until every router has arbitrated.
        let mut moves: Vec<(usize, usize, usize, Flit)> = Vec::new();
        for r in 0..self.routers.len() {
            if self.routers[r].is_idle() {
                continue;
            }
            let first = self.link_off[r];
            let sent = self.routers[r].tick(cycle, &*self.route, |out, vc| {
                let link = first + out;
                self.next_free[link] <= cycle && self.credits[link * self.vcs + vc as usize] > 0
            });
            for (q, out, flit) in sent {
                moves.push((r, q, out, flit));
            }
        }

        if self.telemetry.is_some() {
            self.telemetry_record(&moves, cycle);
        }
        self.apply_moves(&mut moves, cycle);
        self.flush_trace();
        self.cycle += 1;
    }

    /// One cycle of [`Self::step_reference`] with `endpoint` run around
    /// it serially: its [`Endpoint::begin_cycle`] injects through a view
    /// of the whole fabric before the cycle, and it receives the cycle's
    /// deliveries afterward, in delivery-log order. The oracle schedule
    /// for [`Self::step_endpoints`], with one endpoint over every router.
    pub fn step_reference_with(&mut self, endpoint: &mut dyn Endpoint) {
        let cycle = self.cycle;
        self.inject_with(|view| endpoint.begin_cycle(cycle, view));
        let from = self.delivered.len();
        self.step_reference();
        for (at, flit) in &self.delivered[from..] {
            endpoint.deliver(*at, flit);
        }
    }

    /// Phase 1 of a reference step: every shard's wheel slot for this
    /// cycle lands into its downstream queues.
    fn land_arrivals(&mut self, cycle: u64) {
        if self.in_flight_total == 0 {
            return;
        }
        let slot = (cycle % self.wheel_len()) as usize;
        for s in 0..self.shard_scratch.len() {
            if self.shard_scratch[s].wheel[slot].is_empty() {
                continue;
            }
            // Departures this cycle land at least one cycle out (latency-0
            // links bypass the wheels), so the bucket cannot grow while it
            // is processed; taking it out keeps its allocation for reuse.
            let mut bucket = std::mem::take(&mut self.shard_scratch[s].wheel[slot]);
            for a in &bucket {
                let r = a.router as usize;
                self.routers[r].accept(a.port as usize, a.flit(), cycle);
            }
            self.in_flight_total -= bucket.len();
            bucket.clear();
            self.shard_scratch[s].wheel[slot] = bucket;
        }
    }

    /// Phase 3 of a reference step: each departure returns its input
    /// queue's credit to the link feeding that queue and enters its own
    /// link (same-cycle for latency-0 links), counters update, and
    /// ejections are recorded (and, while tracing, listed in shard 0's
    /// trace list). Drains `moves` in place.
    fn apply_moves(&mut self, moves: &mut Vec<(usize, usize, usize, Flit)>, cycle: u64) {
        let tracing = self.telemetry.as_ref().is_some_and(|t| t.config().trace);
        let vcs = self.vcs;
        for (r, q, out, flit) in moves.drain(..) {
            if let Some(up) = self.feeder[self.link_off[r] + q / vcs] {
                self.credits[up as usize * vcs + q % vcs] += 1;
            }
            let link = self.link_off[r] + out;
            if let Some(classify) = self.classify.as_deref() {
                self.class_flits[link * self.classes + classify(&flit)] += 1;
            }
            let ch = &mut self.channels[link];
            self.next_free[link] = cycle + ch.spec.interval;
            ch.flits_sent += 1;
            ch.packets_sent += u64::from(flit.is_tail());
            let spec = ch.spec;
            match self.wiring[link] {
                PortLink::Router { router, port } => {
                    self.credits[link * vcs + flit.vc as usize] -= 1;
                    if spec.latency == 0 {
                        // Link flight is folded into the downstream
                        // pipeline constant (the paper's per-hop cycle
                        // counts are inclusive), so arrival lands this
                        // cycle.
                        self.routers[router].accept(port, flit, cycle);
                    } else {
                        // The kernel's booking, so the steppers interleave.
                        let w = self.wheel_len();
                        let slot = ((cycle + spec.latency) % w) as usize;
                        debug_assert!(spec.latency < w, "arrival beyond the wheel");
                        let d = self.shard_of(router);
                        self.shard_scratch[d].wheel[slot].push(Arrival::new(&flit, router, port));
                        self.in_flight_total += 1;
                    }
                }
                PortLink::Endpoint(_) => {
                    if tracing {
                        self.shard_scratch[0]
                            .trace
                            .push(TraceEvent::deliver(cycle, &flit));
                    }
                    self.delivered.push((cycle, flit));
                }
                PortLink::Unused => unreachable!("flit departed through an unused port"),
            }
        }
    }

    /// Telemetry recording of the reference stepper, through the same
    /// [`LinkRecorder`](crate::telemetry::LinkRecorder) routine the epoch kernel's shard windows record
    /// their own link ranges with. Runs post-arbitration,
    /// pre-[`Self::apply_moves`]: departed flits are
    /// already popped from their queues, but the link timers
    /// (`next_free`) and credits (`credits`) still hold
    /// the state this cycle's arbitration read. Each departure marks
    /// its link's advance cycle (and lists a head's hop onto a router
    /// link in shard 0's trace list); every
    /// occupied queue front that has cleared the router pipeline is then
    /// classified into a [`StallCause`] against that same state (a front
    /// still in the pipeline is not stalled). Purely observational —
    /// nothing here mutates fabric state, so telemetry cannot perturb
    /// the run.
    fn telemetry_record(&mut self, moves: &[(usize, usize, usize, Flit)], cycle: u64) {
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        let mut rec = tel.recorder();
        for &(r, _, out, ref flit) in moves {
            let link = self.link_off[r] + out;
            rec.advance(cycle, link);
            if rec.trace && flit.is_head() && matches!(self.wiring[link], PortLink::Router { .. }) {
                let hop = TraceEvent::hop(cycle, r, out, flit);
                self.shard_scratch[0].trace.push(hop);
            }
        }
        for (r, router) in self.routers.iter().enumerate() {
            if router.queued == 0 {
                continue;
            }
            let vcs = self.vcs;
            for p in 0..router.ports {
                for v in 0..vcs {
                    let Some((front, arrived)) = router.front(p, v as u8) else {
                        continue;
                    };
                    if arrived + router.pipeline > cycle {
                        continue;
                    }
                    let (out, out_vc) = if front.is_head() {
                        let d = router.route_head(&front, &*self.route);
                        (d.port, d.vc)
                    } else {
                        match router.owner_output(p, v as u8) {
                            Some(t) => t,
                            // A body front's packet owns an output by the
                            // cut-through protocol; defensive skip only.
                            None => continue,
                        }
                    };
                    // Ejection links never lack credits; nothing is ever
                    // granted toward an unused port (see `Self::credits`).
                    let link = self.link_off[r] + out;
                    let starved = || self.credits[link * vcs + out_vc as usize] == 0;
                    let cause = StallCause::of(
                        rec.advanced_on(cycle, link),
                        self.next_free[link] > cycle,
                        starved,
                    );
                    rec.stall(cycle, link, out_vc, cause);
                }
            }
        }
    }
}

impl CycleRouter {
    /// One **reference** arbitration cycle — the naive full scan over
    /// every (port, VC) pair and every output, retained as the
    /// executable specification of the event-driven
    /// `arbitrate_into` path (the `stepper_equivalence` property
    /// tests run both and require bit-identical results). Selects at
    /// most one flit per output port (and at most one per input VC queue
    /// — a single queue read port) and returns the departures as
    /// `(input queue, output port, flit)`, the queue flat
    /// (`port * vcs + vc`) and the flit with its outgoing VC/tag applied.
    /// `downstream_ok` reports whether the downstream queue for
    /// `(output_port, outgoing vc)` has a credit and the link is free to
    /// serialize.
    pub(crate) fn tick(
        &mut self,
        cycle: u64,
        route: &RouteFn,
        mut downstream_ok: impl FnMut(usize, u8) -> bool,
    ) -> Vec<(usize, usize, Flit)> {
        // Brings the kernel's ready set up to `cycle`, as each pop below
        // files the front it reveals against it.
        self.merge(cycle);
        let ports = self.ports;
        let mut sent = Vec::new();
        if self.is_idle() {
            return sent;
        }
        // Route computation runs once per eligible head flit per cycle
        // (it is a pure function of the flit, so the snapshot stays valid
        // through the per-output arbitration below). An entry is cleared
        // when its flit departs, which also enforces the single read port
        // per input queue.
        let mut decisions = vec![None; ports * self.vcs];
        for (q, decision) in decisions.iter_mut().enumerate() {
            if let Some((head, arrived)) = self.front(q / self.vcs, (q % self.vcs) as u8) {
                if head.is_head() && arrived + self.pipeline <= cycle {
                    let d = self.route_head(&head, route);
                    *decision = Some((d.port, d.vc, d.tag));
                }
            }
        }
        for out in 0..ports {
            // If an owner holds the output, it continues its packet;
            // otherwise round-robin over (port, vc) pairs whose head flit
            // routes to this output, has cleared the pipeline, and can be
            // accepted downstream.
            let depart: Option<(usize, u8, u8, u16)> = match self.output_owner[out] {
                Some(o) => match self.front(o.in_port, o.in_vc) {
                    Some((body, arrived))
                        if arrived + self.pipeline <= cycle && downstream_ok(out, o.out_vc) =>
                    {
                        debug_assert_eq!(
                            body.packet, o.packet,
                            "interleaved flits of two packets on one input VC"
                        );
                        Some((o.in_port, o.in_vc, o.out_vc, o.out_tag))
                    }
                    _ => None,
                },
                None => {
                    let mut found = None;
                    for i in 0..ports * self.vcs {
                        let idx = (self.rr[out] + i) % (ports * self.vcs);
                        if let Some((dout, dvc, dtag)) = decisions[idx] {
                            if dout == out && downstream_ok(out, dvc) {
                                decisions[idx] = None;
                                found = Some((idx / self.vcs, (idx % self.vcs) as u8, dvc, dtag));
                                break;
                            }
                        }
                    }
                    found
                }
            };
            if let Some((p, v, out_vc, out_tag)) = depart {
                let flit = self.depart(out, p, v, out_vc, out_tag, route);
                sent.push((p * self.vcs + v as usize, out, flit));
            }
        }
        sent
    }
}
