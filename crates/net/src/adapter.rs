//! The Channel Adapter: where packets meet the wire.
//!
//! Each CA owns 4 SERDES lanes and, when compression is enabled, a
//! particle-cache pair (send side here, receive side at the far CA) plus
//! the INZ codecs and frame packer. This module computes on-wire byte
//! costs for every packet kind under the active configuration and models
//! one CA-to-CA directed sub-channel ([`CaLink`]).
//!
//! ## Wire-cost model
//!
//! With compression **disabled** the channel datapath is flit-granular:
//! every packet costs its full flits (24 bytes each) — there is no byte
//! counting to exploit. This is the Figure 9a baseline.
//!
//! With **INZ enabled** payloads carry a one-byte descriptor and only
//! their surviving bytes, densely packed into frames (§IV-A). With the
//! **particle cache** also enabled, position packets that hit are replaced
//! by a 2-byte compressed header (10-bit cache index + type tag) plus the
//! INZ-encoded prediction delta (§IV-B).
//!
//! Every cost here counts bytes before framing. The per-frame overhead is
//! charged once, as a rate, when the bytes serialize
//! ([`crate::channel::Serializer::serialize_time`]).

use crate::channel::{LinkStats, Serializer};
use crate::packet::PacketKind;
use anton_compress::inz;
use anton_compress::pcache::{ChannelPcache, FixedPos, ParticleKey, PositionWire};
use anton_model::latency::LatencyModel;
use anton_model::units::Ps;

/// Flit cost in bytes on an uncompressed channel.
pub const FLIT_WIRE_BYTES: usize = 24;

/// SERDES lanes owned by one Channel Adapter.
pub const LANES_PER_CA: usize = anton_model::asic::LANES_PER_SLICE / 2;

/// Compression configuration for a channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Compression {
    /// INZ payload encoding enabled.
    pub inz: bool,
    /// Particle cache enabled (requires nothing of INZ, but the paper
    /// always layers it on top).
    pub pcache: bool,
}

impl Compression {
    /// Both features on (the production configuration).
    pub const FULL: Compression = Compression {
        inz: true,
        pcache: true,
    };
    /// INZ only (Figure 9a middle bars).
    pub const INZ_ONLY: Compression = Compression {
        inz: true,
        pcache: false,
    };
    /// Baseline: nothing (Figure 9a reference).
    pub const NONE: Compression = Compression {
        inz: false,
        pcache: false,
    };
}

/// Baseline (uncompressed) wire cost of a packet with `payload_words`
/// payload words: whole flits.
pub fn baseline_bytes(payload_words: usize) -> usize {
    let flits = if payload_words <= 4 { 1 } else { 2 };
    flits * FLIT_WIRE_BYTES
}

/// Wire cost of a generic (non-position) packet under `comp`.
pub fn generic_wire_bytes(kind: PacketKind, payload_units: &[&[u32]], comp: Compression) -> usize {
    let words: usize = payload_units.iter().map(|u| u.len()).sum();
    if !comp.inz {
        return baseline_bytes(words);
    }
    let payload: usize = payload_units.iter().map(|u| inz::wire_len(u, true)).sum();
    kind.wire_header_bytes() + payload
}

/// Wire cost of a full (uncompressed-by-pcache) position packet: header,
/// static field unit, coordinate unit.
pub fn full_position_wire_bytes(key: ParticleKey, pos: FixedPos, comp: Compression) -> usize {
    let static_words = [key.0 as u32, (key.0 >> 32) as u32];
    let coord_words = [pos[0] as u32, pos[1] as u32, pos[2] as u32];
    generic_wire_bytes(PacketKind::Position, &[&coord_words, &static_words], comp)
}

/// Wire cost of a pcache-compressed position: 2-byte header (cache index +
/// tag) plus the INZ-encoded delta.
pub fn compressed_position_wire_bytes(delta: [i32; 3], comp: Compression) -> usize {
    debug_assert!(comp.pcache);
    let words = [delta[0] as u32, delta[1] as u32, delta[2] as u32];
    if comp.inz {
        PacketKind::CompressedPosition.wire_header_bytes() + inz::wire_len(&words, true)
    } else {
        // Particle cache without INZ still shrinks the packet to one flit.
        FLIT_WIRE_BYTES
    }
}

/// The outcome of pushing one packet through a [`CaLink`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transit {
    /// When serialization began (after FIFO predecessors).
    pub depart: Ps,
    /// When the packet is fully through the far Channel Adapter (includes
    /// SERDES PHYs, wire flight and CA processing on both sides).
    pub arrive: Ps,
    /// Bytes charged to the wire.
    pub wire_bytes: usize,
}

/// One directed CA-to-CA sub-channel: serializer, compression state and
/// traffic accounting. Four of these serve each torus neighbor direction.
#[derive(Clone, Debug)]
pub struct CaLink {
    serializer: Serializer,
    pcache: Option<ChannelPcache>,
    comp: Compression,
    crossing_fixed: Ps,
    stats: LinkStats,
}

impl CaLink {
    /// Creates a link under the given latency model and compression
    /// configuration.
    pub fn new(lat: &LatencyModel, comp: Compression) -> Self {
        Self::with_pcache_sets(lat, comp, anton_compress::pcache::SETS)
    }

    /// Creates a link with a non-default particle-cache set count
    /// (capacity ablations).
    pub fn with_pcache_sets(lat: &LatencyModel, comp: Compression, sets: usize) -> Self {
        CaLink {
            serializer: Serializer::new(LANES_PER_CA as u32),
            pcache: comp.pcache.then(|| {
                ChannelPcache::with_geometry(sets, anton_compress::pcache::DEFAULT_EVICT_THRESHOLD)
            }),
            comp,
            crossing_fixed: lat.channel_crossing_fixed(comp.pcache || comp.inz),
            stats: LinkStats::default(),
        }
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The fixed (non-serialization) latency of one crossing on this link.
    pub fn crossing_fixed(&self) -> Ps {
        self.crossing_fixed
    }

    fn push(&mut self, now: Ps, wire_bytes: usize, baseline: usize, kind: PacketKind) -> Transit {
        let (depart, done) = self.serializer.transmit(now, wire_bytes);
        self.stats.packets += 1;
        self.stats.baseline_bytes += baseline as u64;
        self.stats.add_wire(kind.byte_kind(), wire_bytes as u64);
        Transit {
            depart,
            arrive: done + self.crossing_fixed,
            wire_bytes,
        }
    }

    /// Transmits a position export. Consults the particle cache (when
    /// enabled) to decide between the full and compressed representation,
    /// and advances both cache ends. Returns the transit timing and the
    /// wire form that crossed.
    pub fn send_position(
        &mut self,
        now: Ps,
        key: ParticleKey,
        pos: FixedPos,
    ) -> (Transit, PositionWire) {
        let baseline = baseline_bytes(5); // 3 coords + 2 static words = 2 flits
        let (bytes, wire) = match &mut self.pcache {
            Some(pc) => {
                let wire = pc.transmit(key, pos);
                let (rk, rp) = pc.receive(wire);
                debug_assert_eq!((rk, rp), (key, pos), "particle cache must be lossless");
                let bytes = match wire {
                    PositionWire::Compressed { delta, .. } => {
                        compressed_position_wire_bytes(delta, self.comp)
                    }
                    PositionWire::Full { .. } => full_position_wire_bytes(key, pos, self.comp),
                };
                (bytes, wire)
            }
            None => (
                full_position_wire_bytes(key, pos, self.comp),
                PositionWire::Full { key, pos },
            ),
        };
        let kind = match wire {
            PositionWire::Compressed { .. } => PacketKind::CompressedPosition,
            PositionWire::Full { .. } => PacketKind::Position,
        };
        (self.push(now, bytes, baseline, kind), wire)
    }

    /// Transmits a force return: three fixed-point components plus the
    /// pair-energy word PPIMs accumulate alongside them ("three or four
    /// signed 32-bit values", §IV-A).
    pub fn send_force(&mut self, now: Ps, force: [i32; 3]) -> Transit {
        let energy = force[0].wrapping_add(force[1]).wrapping_sub(force[2] >> 1);
        let words = [
            force[0] as u32,
            force[1] as u32,
            force[2] as u32,
            energy as u32,
        ];
        let bytes = generic_wire_bytes(PacketKind::Force, &[&words], self.comp);
        self.push(now, bytes, baseline_bytes(4), PacketKind::Force)
    }

    /// Transmits a generic quad-payload packet, such as a counted write.
    pub fn send_quad(&mut self, now: Ps, kind: PacketKind, payload: &[u32]) -> Transit {
        let bytes = generic_wire_bytes(kind, &[payload], self.comp);
        self.push(now, bytes, baseline_bytes(payload.len()), kind)
    }

    /// Transmits a header-only marker packet (fence, end-of-step). An
    /// end-of-step marker advances the particle-cache epoch on both ends.
    pub fn send_marker(&mut self, now: Ps, kind: PacketKind) -> Transit {
        debug_assert!(matches!(kind, PacketKind::Fence | PacketKind::EndOfStep));
        if kind == PacketKind::EndOfStep {
            if let Some(pc) = &mut self.pcache {
                pc.end_of_step();
            }
        }
        let bytes = if self.comp.inz {
            kind.wire_header_bytes()
        } else {
            FLIT_WIRE_BYTES
        };
        self.push(now, bytes, FLIT_WIRE_BYTES, kind)
    }

    /// Verifies the particle-cache synchrony invariant (no-op when the
    /// cache is disabled).
    ///
    /// # Panics
    /// Panics if the two cache ends have diverged.
    pub fn assert_pcache_synchronized(&self) {
        if let Some(pc) = &self.pcache {
            pc.assert_synchronized();
        }
    }

    /// Send-side particle-cache statistics, if enabled.
    pub fn pcache_stats(&self) -> Option<anton_compress::pcache::CacheStats> {
        self.pcache.as_ref().map(|pc| pc.send_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(comp: Compression) -> CaLink {
        CaLink::new(&LatencyModel::default(), comp)
    }

    #[test]
    fn baseline_is_flit_granular() {
        assert_eq!(baseline_bytes(3), 24);
        assert_eq!(baseline_bytes(4), 24);
        assert_eq!(baseline_bytes(5), 48);
    }

    #[test]
    fn inz_shrinks_force_packets() {
        let small = [100i32 as u32, (-200i32) as u32, 300];
        let with = generic_wire_bytes(PacketKind::Force, &[&small], Compression::INZ_ONLY);
        let without = generic_wire_bytes(PacketKind::Force, &[&small], Compression::NONE);
        assert_eq!(without, 24);
        assert!(with < 16, "INZ force packet is {with} bytes");
    }

    #[test]
    fn position_packets_compress_progressively() {
        // A mid-box coordinate (~22 significant bits).
        let pos = [2_500_000, 3_100_000, 1_900_000];
        let key = ParticleKey(12_345);
        let raw = full_position_wire_bytes(key, pos, Compression::NONE);
        let inz = full_position_wire_bytes(key, pos, Compression::INZ_ONLY);
        assert_eq!(raw, 48);
        assert!(inz < raw, "INZ position {inz} must beat baseline {raw}");
        assert!(inz > 16, "global coordinates are not *that* compressible");
        let hit = compressed_position_wire_bytes([1, -2, 0], Compression::FULL);
        assert!(hit <= 8, "pcache hit is {hit} bytes");
    }

    #[test]
    fn ca_link_position_miss_then_hit() {
        let mut l = link(Compression::FULL);
        let key = ParticleKey(7);
        let (t0, w0) = l.send_position(Ps::ZERO, key, [1_000_000, 2_000_000, 3_000_000]);
        assert!(matches!(w0, PositionWire::Full { .. }));
        let (t1, w1) = l.send_position(t0.arrive, key, [1_000_040, 1_999_980, 3_000_000]);
        assert!(matches!(w1, PositionWire::Compressed { .. }));
        assert!(
            t1.wire_bytes < t0.wire_bytes,
            "hit must be smaller than miss"
        );
        l.assert_pcache_synchronized();
    }

    #[test]
    fn stats_accumulate_by_kind() {
        let mut l = link(Compression::FULL);
        let (t, _) = l.send_position(Ps::ZERO, ParticleKey(1), [0, 0, 0]);
        l.send_force(t.arrive, [5, -5, 5]);
        l.send_marker(t.arrive, PacketKind::EndOfStep);
        let s = l.stats();
        assert_eq!(s.packets, 3);
        assert!(s.position_bytes > 0);
        assert!(s.force_bytes > 0);
        assert!(s.other_bytes > 0);
        assert!(
            s.wire_bytes < s.baseline_bytes,
            "compression must save bytes"
        );
    }

    #[test]
    fn no_compression_charges_full_flits() {
        let mut l = link(Compression::NONE);
        let (t, _) = l.send_position(Ps::ZERO, ParticleKey(1), [1, 2, 3]);
        assert_eq!(t.wire_bytes, 48);
        let t2 = l.send_force(t.arrive, [1, 2, 3]);
        assert_eq!(t2.wire_bytes, 24);
        assert_eq!(l.stats().reduction(), 0.0);
    }

    #[test]
    fn transits_are_fifo_ordered() {
        let mut l = link(Compression::NONE);
        let (a, _) = l.send_position(Ps::ZERO, ParticleKey(1), [0, 0, 0]);
        let (b, _) = l.send_position(Ps::ZERO, ParticleKey(2), [0, 0, 0]);
        assert!(b.depart >= a.depart, "FIFO order");
        assert!(b.arrive > a.arrive);
    }

    #[test]
    fn end_of_step_advances_epochs() {
        let mut l = link(Compression::FULL);
        let key = ParticleKey(9);
        l.send_position(Ps::ZERO, key, [0, 0, 0]);
        for _ in 0..10 {
            l.send_marker(Ps::ZERO, PacketKind::EndOfStep);
        }
        // After 10 idle epochs the entry is stale; a conflicting particle
        // in the same set would evict it. Touch it again: still a hit
        // (eviction is only on conflict).
        let (_, w) = l.send_position(Ps::ZERO, key, [1, 1, 1]);
        assert!(matches!(w, PositionWire::Compressed { .. }));
        l.assert_pcache_synchronized();
    }

    #[test]
    fn pcache_stats_exposed() {
        let mut l = link(Compression::FULL);
        l.send_position(Ps::ZERO, ParticleKey(3), [0, 0, 0]);
        assert_eq!(l.pcache_stats().unwrap().allocs, 1);
        assert!(link(Compression::NONE).pcache_stats().is_none());
    }

    #[test]
    fn pcache_without_inz_still_saves() {
        let comp = Compression {
            inz: false,
            pcache: true,
        };
        let mut l = link(comp);
        let key = ParticleKey(4);
        let (a, _) = l.send_position(Ps::ZERO, key, [500, 500, 500]);
        let (b, w) = l.send_position(a.arrive, key, [501, 501, 501]);
        assert!(matches!(w, PositionWire::Compressed { .. }));
        assert_eq!(a.wire_bytes, 48);
        assert_eq!(b.wire_bytes, 24, "hit shrinks to one flit even without INZ");
    }
}
