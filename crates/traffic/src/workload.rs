//! The workload abstraction over the cycle fabric: what to send, when.
//!
//! A [`Workload`] turns generation opportunities into [`PacketSpec`]s —
//! destination, traffic class, channel slice, routing draw, and
//! [`ByteKind`]-typed wire bytes — and reacts to deliveries through a
//! completion hook, which is how request→response protocols (the
//! paper's force returns) spawn follow-on traffic. The
//! [`crate::sweep::run_scenario`] driver owns everything else: offered
//! load, per-node RNG streams, injection queues and the
//! no-retry-bias rule, warmup/measurement windows, and statistics.
//!
//! Two families implement it:
//!
//! - [`SyntheticWorkload`] — adapts any [`TrafficPattern`] (the six
//!   classic k-ary n-cube stressors), optionally with the force-return
//!   protocol: every delivered request spawns an equal-size response
//!   back to its source;
//! - [`MdHaloWorkload`] — MD-shaped replay built from
//!   [`anton_md::decomp`]: position exports to the import-region
//!   neighborhood ([`ByteKind::Position`], request class) answered by
//!   force returns ([`ByteKind::Force`], response class), so the cycle
//!   fabric carries wire bytes typed exactly like the Figure 9a
//!   accounting of the analytic channel adapters.

use crate::patterns::TrafficPattern;
use anton_md::decomp::Decomposition;
use anton_model::topology::{Dim, NodeId, Torus};
use anton_net::channel::ByteKind;
use anton_net::fabric3d::{PacketSpec, TrafficClass};
use anton_sim::rng::SplitMix64;

/// A traffic workload over the cycle fabric.
///
/// Implementations produce specs with `id = 0`; the scenario driver
/// assigns packet ids on enqueue. All randomness must flow through the
/// `rng` argument (the per-node stream handed in by the driver) so a
/// fixed seed reproduces the workload bit for bit, and every routing
/// draw must be made here — at generation or spawn time — never at
/// retry time (see [`PacketSpec`]).
pub trait Workload {
    /// One generation opportunity: packets `src` emits at `cycle`,
    /// pushed onto `out`. The driver has already gated the opportunity
    /// by offered load; a workload that generates nothing for it (off-
    /// phase storm cycles, self-addressed draws, empty halo) pushes
    /// nothing.
    fn next_packets(
        &mut self,
        torus: &Torus,
        src: NodeId,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    );

    /// Completion hook: the tail flit of `delivered` landed at `cycle`.
    /// Follow-on packets (force-return responses) are pushed onto
    /// `out`; they originate at `delivered.dst`, whose node stream is
    /// the `rng` handed in. The default spawns nothing.
    fn on_delivered(
        &mut self,
        torus: &Torus,
        delivered: &PacketSpec,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        let _ = (torus, delivered, cycle, rng, out);
    }

    /// Whether [`Workload::on_delivered`] can ever spawn follow-on
    /// packets. Drivers use this to pick a stepping mode during the
    /// drain: a spawning workload must observe every delivery the cycle
    /// it lands (exact event stepping), while a non-spawning one can
    /// take full lookahead windows with deliveries batched per epoch —
    /// every observable is stamped with its delivery cycle either way.
    /// The default is conservative.
    fn spawns(&self) -> bool {
        true
    }
}

/// Adapts a [`TrafficPattern`] to the [`Workload`] API: each
/// opportunity draws one destination from the pattern and emits one
/// request with the full oblivious routing draw; with
/// [`SyntheticWorkload::respond`] enabled, every delivered request
/// spawns an equal-size response back to its source (the force-return
/// protocol), with the response's slice drawn at spawn time.
pub struct SyntheticWorkload<'a> {
    pattern: &'a dyn TrafficPattern,
    nflits: u8,
    /// Whether deliveries spawn force-return responses.
    pub respond: bool,
    /// Wire-byte typing of generated requests.
    pub request_kind: ByteKind,
    /// Wire-byte typing of spawned responses.
    pub response_kind: ByteKind,
}

impl<'a> SyntheticWorkload<'a> {
    /// Wraps `pattern`; packets carry `nflits` flits and are untyped
    /// ([`ByteKind::Other`] — synthetic stressors model no payload).
    pub fn new(pattern: &'a dyn TrafficPattern, nflits: u8, respond: bool) -> Self {
        SyntheticWorkload {
            pattern,
            nflits,
            respond,
            request_kind: ByteKind::Other,
            response_kind: ByteKind::Other,
        }
    }
}

impl Workload for SyntheticWorkload<'_> {
    fn spawns(&self) -> bool {
        self.respond
    }

    fn next_packets(
        &mut self,
        torus: &Torus,
        src: NodeId,
        cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        if let Some(dst) = self.pattern.dest(torus, src, cycle, rng) {
            out.push(
                PacketSpec::request(src, dst, 0, self.nflits)
                    .with_kind(self.request_kind)
                    .drawn(rng),
            );
        }
    }

    fn on_delivered(
        &mut self,
        _torus: &Torus,
        delivered: &PacketSpec,
        _cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        if self.respond && delivered.class == TrafficClass::Request {
            out.push(
                PacketSpec::response(delivered.dst, delivered.src, 0, delivered.nflits)
                    .with_kind(self.response_kind)
                    .drawn(rng),
            );
        }
    }
}

/// MD-shaped halo replay on the cycle fabric, built from a spatial
/// [`Decomposition`]: each node's destination distribution is derived
/// by sampling atom positions uniformly in its home box and collecting
/// the midpoint-method export targets ([`Decomposition::export_targets`]
/// — every node whose box lies within the import radius), so the
/// fabric sees the same near-neighbor multicast fan-out shape the MD
/// engine drives, wraparound included. Position exports ride the
/// request class typed [`ByteKind::Position`]; every delivered export
/// spawns a force return to the home node on the response class typed
/// [`ByteKind::Force`] — the paper's dominant two-way traffic with
/// Figure 9a wire-byte typing.
pub struct MdHaloWorkload {
    /// Flattened per-node destination samples: one entry per
    /// (sampled atom, export target) pair, drawn uniformly at
    /// generation time. Sampling frequency ∝ real export traffic share.
    dests: Vec<Vec<NodeId>>,
    nflits: u8,
}

impl MdHaloWorkload {
    /// Builds the replay tables from `decomp`, sampling
    /// `samples_per_node` atom positions per home box with a stream
    /// split from `seed`. Packets carry `nflits` flits.
    ///
    /// # Panics
    /// Panics if `samples_per_node == 0` or no sampled atom exports
    /// anywhere (an import radius so small the halo is empty).
    pub fn from_decomposition(
        decomp: &Decomposition,
        samples_per_node: usize,
        nflits: u8,
        seed: u64,
    ) -> Self {
        assert!(samples_per_node > 0, "need at least one sample per node");
        let torus = decomp.torus();
        let node_box = decomp.node_box();
        let root = SplitMix64::new(seed);
        let mut dests = vec![Vec::new(); torus.node_count()];
        for node in torus.nodes() {
            let c = torus.coord(node);
            let lo = [
                c.get(Dim::X) as f64 * node_box[0],
                c.get(Dim::Y) as f64 * node_box[1],
                c.get(Dim::Z) as f64 * node_box[2],
            ];
            let mut rng = root.split(node.0 as u64);
            for _ in 0..samples_per_node {
                let pos = [
                    lo[0] + rng.next_f64() * node_box[0],
                    lo[1] + rng.next_f64() * node_box[1],
                    lo[2] + rng.next_f64() * node_box[2],
                ];
                dests[node.index()].extend(decomp.export_targets(pos));
            }
        }
        assert!(
            dests.iter().any(|d| !d.is_empty()),
            "no sampled atom exports anywhere: import radius too small"
        );
        MdHaloWorkload { dests, nflits }
    }

    /// The sampled export-destination table of `node` (one entry per
    /// sampled (atom, target) pair) — exposed for shape checks.
    pub fn destinations(&self, node: NodeId) -> &[NodeId] {
        &self.dests[node.index()]
    }
}

impl Workload for MdHaloWorkload {
    fn next_packets(
        &mut self,
        _torus: &Torus,
        src: NodeId,
        _cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        let table = &self.dests[src.index()];
        if table.is_empty() {
            return;
        }
        let dst = table[rng.next_below(table.len() as u64) as usize];
        out.push(
            PacketSpec::request(src, dst, 0, self.nflits)
                .with_kind(ByteKind::Position)
                .drawn(rng),
        );
    }

    fn on_delivered(
        &mut self,
        _torus: &Torus,
        delivered: &PacketSpec,
        _cycle: u64,
        rng: &mut SplitMix64,
        out: &mut Vec<PacketSpec>,
    ) {
        if delivered.class == TrafficClass::Request {
            out.push(
                PacketSpec::response(delivered.dst, delivered.src, 0, delivered.nflits)
                    .with_kind(ByteKind::Force)
                    .drawn(rng),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::UniformRandom;
    use anton_model::topology::Torus;

    #[test]
    fn synthetic_workload_emits_drawn_requests() {
        let t = Torus::new([4, 4, 8]);
        let mut w = SyntheticWorkload::new(&UniformRandom, 2, true);
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        let mut slices = std::collections::HashSet::new();
        let mut orders = std::collections::HashSet::new();
        for _ in 0..200 {
            w.next_packets(&t, NodeId(3), 0, &mut rng, &mut out);
        }
        assert_eq!(out.len(), 200, "uniform never skips an opportunity");
        for spec in &out {
            assert_eq!(spec.class, TrafficClass::Request);
            assert_eq!(spec.kind, ByteKind::Other);
            assert_eq!((spec.src, spec.nflits), (NodeId(3), 2));
            assert_ne!(spec.dst, NodeId(3));
            slices.insert(spec.slice);
            orders.insert(spec.order_idx);
        }
        assert_eq!(slices.len(), 2, "both slices drawn");
        assert_eq!(orders.len(), 6, "all dimension orders drawn");
    }

    #[test]
    fn synthetic_respond_spawns_one_reply_per_request() {
        let t = Torus::new([2, 2, 2]);
        let mut w = SyntheticWorkload::new(&UniformRandom, 1, true);
        let mut rng = SplitMix64::new(2);
        let delivered = PacketSpec::request(NodeId(0), NodeId(5), 9, 1);
        let mut out = Vec::new();
        w.on_delivered(&t, &delivered, 100, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        let r = out[0];
        assert_eq!(r.class, TrafficClass::Response);
        assert_eq!((r.src, r.dst), (NodeId(5), NodeId(0)), "reply returns home");
        // Responses never re-spawn.
        out.clear();
        w.on_delivered(&t, &r, 200, &mut rng, &mut out);
        assert!(out.is_empty(), "a response must not spawn another");
        // respond = false spawns nothing at all.
        let mut quiet = SyntheticWorkload::new(&UniformRandom, 1, false);
        quiet.on_delivered(&t, &delivered, 100, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn md_halo_destinations_are_import_neighbors() {
        // 10 Å node boxes, 3 Å import radius: exports reach only nodes
        // whose boxes touch the import shell — torus neighbors (and
        // diagonal box-sharers), never the far corner of a 4-ring.
        let t = Torus::new([4, 4, 4]);
        let d = Decomposition::new(t, [40.0; 3], 3.0);
        let mut w = MdHaloWorkload::from_decomposition(&d, 64, 2, 7);
        for node in t.nodes() {
            for &dst in w.destinations(node) {
                assert_ne!(dst, node, "no self-exports");
                let hops = t.hop_distance(t.coord(node), t.coord(dst));
                assert!(
                    hops <= 3,
                    "{node} exports {hops} hops away — beyond the halo"
                );
            }
        }
        // Generation draws from the table and types the bytes.
        let mut rng = SplitMix64::new(8);
        let mut out = Vec::new();
        w.next_packets(&t, NodeId(0), 0, &mut rng, &mut out);
        let spec = out[0];
        assert_eq!(spec.kind, ByteKind::Position);
        assert_eq!(spec.class, TrafficClass::Request);
        // And every delivered export owes a force return.
        out.clear();
        w.on_delivered(&t, &spec, 50, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ByteKind::Force);
        assert_eq!(out[0].class, TrafficClass::Response);
        assert_eq!((out[0].src, out[0].dst), (spec.dst, spec.src));
    }

    #[test]
    fn md_halo_tables_are_deterministic_under_seed() {
        let t = Torus::new([3, 3, 3]);
        let d = Decomposition::new(t, [30.0; 3], 3.25);
        let a = MdHaloWorkload::from_decomposition(&d, 32, 2, 11);
        let b = MdHaloWorkload::from_decomposition(&d, 32, 2, 11);
        for node in t.nodes() {
            assert_eq!(a.destinations(node), b.destinations(node));
        }
    }
}
