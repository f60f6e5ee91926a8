//! SERDES channel-slice model: serialization timing and traffic accounting.
//!
//! Each torus neighbor is reached over 16 SERDES lanes at 29 Gb/s,
//! organized as two 8-lane slices; each slice is served by two Channel
//! Adapters of 4 lanes each (paper §II-B). This module models one CA's
//! share of the channel: a serializer with FIFO occupancy (`busy_until`)
//! and byte/bit counters for the Figure 9a accounting.

use anton_compress::frame::{FRAME_BYTES, FRAME_PAYLOAD_BYTES};
use anton_model::units::{serialization_time, Ps, SERDES_GBPS};
use serde::Serialize;

/// The wire-byte type of a packet's payload — the Figure 9a accounting
/// categories. Every byte that crosses a channel is attributed to
/// exactly one kind: position exports (full or particle-cache
/// compressed), force returns, or everything else (counted writes,
/// fences, markers, synthetic traffic). The analytic
/// [`crate::adapter::CaLink`] and the cycle-level
/// [`crate::fabric3d::TorusFabric`] both type their [`LinkStats`]
/// through this one enum (via [`crate::packet::PacketKind::byte_kind`]
/// on the adapter side), so the two accountings reconcile by
/// construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize)]
pub enum ByteKind {
    /// Anything that is neither a position nor a force (the default for
    /// untyped traffic).
    #[default]
    Other,
    /// Position traffic: full and pcache-compressed position packets.
    Position,
    /// Force-return traffic.
    Force,
}

impl ByteKind {
    /// All kinds, in counter-index order.
    pub const ALL: [ByteKind; 3] = [ByteKind::Other, ByteKind::Position, ByteKind::Force];

    /// Dense counter index (0 = Other, 1 = Position, 2 = Force) —
    /// the order of [`ByteKind::ALL`] and of the per-kind link counters
    /// in the cycle fabric.
    pub const fn index(self) -> usize {
        match self {
            ByteKind::Other => 0,
            ByteKind::Position => 1,
            ByteKind::Force => 2,
        }
    }

    /// The kind at counter index `i` (inverse of [`ByteKind::index`]).
    ///
    /// # Panics
    /// Panics if `i > 2`.
    pub fn from_index(i: usize) -> ByteKind {
        ByteKind::ALL[i]
    }
}

/// Traffic counters for one directed channel (or CA sub-channel).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize)]
pub struct LinkStats {
    /// Packets transmitted.
    pub packets: u64,
    /// Bytes that would have crossed with compression disabled
    /// (flit-granular: full 24-byte flits).
    pub baseline_bytes: u64,
    /// Bytes actually transmitted under the active configuration,
    /// before frame-overhead amortization.
    pub wire_bytes: u64,
    /// Wire bytes attributable to position traffic (full + compressed).
    pub position_bytes: u64,
    /// Wire bytes attributable to force traffic.
    pub force_bytes: u64,
    /// Wire bytes attributable to everything else.
    pub other_bytes: u64,
}

impl LinkStats {
    /// Adds `bytes` wire bytes attributed to `kind`, keeping the
    /// `wire_bytes == position + force + other` invariant — the single
    /// mutation path shared by the adapter and the cycle fabric.
    pub fn add_wire(&mut self, kind: ByteKind, bytes: u64) {
        self.wire_bytes += bytes;
        match kind {
            ByteKind::Position => self.position_bytes += bytes,
            ByteKind::Force => self.force_bytes += bytes,
            ByteKind::Other => self.other_bytes += bytes,
        }
    }

    /// The wire bytes attributed to `kind`.
    pub fn kind_bytes(&self, kind: ByteKind) -> u64 {
        match kind {
            ByteKind::Position => self.position_bytes,
            ByteKind::Force => self.force_bytes,
            ByteKind::Other => self.other_bytes,
        }
    }

    /// Whether the per-kind attribution covers every wire byte.
    pub fn kinds_conserve_wire(&self) -> bool {
        self.position_bytes + self.force_bytes + self.other_bytes == self.wire_bytes
    }

    /// Fraction of baseline traffic eliminated, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.baseline_bytes == 0 {
            0.0
        } else {
            1.0 - self.wire_bytes as f64 / self.baseline_bytes as f64
        }
    }

    /// The traffic accumulated since `earlier` (an older snapshot of
    /// these same counters): element-wise difference, for windowed
    /// measurements over monotone counters.
    pub fn since(&self, earlier: &LinkStats) -> LinkStats {
        LinkStats {
            packets: self.packets - earlier.packets,
            baseline_bytes: self.baseline_bytes - earlier.baseline_bytes,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            position_bytes: self.position_bytes - earlier.position_bytes,
            force_bytes: self.force_bytes - earlier.force_bytes,
            other_bytes: self.other_bytes - earlier.other_bytes,
        }
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &LinkStats) {
        self.packets += other.packets;
        self.baseline_bytes += other.baseline_bytes;
        self.wire_bytes += other.wire_bytes;
        self.position_bytes += other.position_bytes;
        self.force_bytes += other.force_bytes;
        self.other_bytes += other.other_bytes;
    }
}

/// A serializing transmitter: `lanes` SERDES lanes shared FIFO-fashion.
#[derive(Clone, Debug)]
pub struct Serializer {
    lanes: u32,
    busy_until: Ps,
}

impl Serializer {
    /// Creates an idle serializer over `lanes` lanes at 29 Gb/s.
    ///
    /// # Panics
    /// Panics if `lanes == 0`.
    pub fn new(lanes: u32) -> Self {
        assert!(lanes > 0, "serializer needs lanes");
        Serializer {
            lanes,
            busy_until: Ps::ZERO,
        }
    }

    /// Time to serialize `bytes` (after frame-overhead amortization).
    pub fn serialize_time(&self, bytes: usize) -> Ps {
        // Fixed-length frames carry FRAME_PAYLOAD of every FRAME_BYTES;
        // amortize the framing overhead smoothly over the byte stream.
        let framed_bits = bytes as u64 * 8 * FRAME_BYTES as u64 / FRAME_PAYLOAD_BYTES as u64;
        serialization_time(framed_bits, self.lanes, SERDES_GBPS)
    }

    /// Enqueues a transmission at `now`; returns `(start, done)` where
    /// `start` is when serialization begins (after queued predecessors —
    /// this FIFO order is what fence ordering builds on) and `done` is
    /// when the last bit leaves the transmitter.
    pub fn transmit(&mut self, now: Ps, bytes: usize) -> (Ps, Ps) {
        let start = now.max(self.busy_until);
        let done = start + self.serialize_time(bytes);
        self.busy_until = done;
        (start, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_scales_with_lanes() {
        let four = Serializer::new(4);
        let eight = Serializer::new(8);
        let t4 = four.serialize_time(48);
        let t8 = eight.serialize_time(48);
        assert!(t4 > t8);
        // 48 bytes over 4x29 Gb/s with 64/62 framing: ~3.42 ns.
        assert!((t4.as_ns() - 3.42).abs() < 0.1, "got {}", t4.as_ns());
    }

    #[test]
    fn packed_bytes_pay_for_whole_frames_exactly() {
        // The one framing rule: 62 packed bytes fill one 64-byte frame
        // (512 bits on the wire) and 124 fill two (1,024 bits). Over 4
        // lanes at 29 Gb/s that is 4,413.8 and 8,827.6 ps, rounded up.
        let s = Serializer::new(4);
        assert_eq!(s.serialize_time(62), serialization_time(512, 4, 29.0));
        assert_eq!(s.serialize_time(124), serialization_time(1024, 4, 29.0));
        assert_eq!(s.serialize_time(62), Ps::new(4_414));
        assert_eq!(s.serialize_time(124), Ps::new(8_828));
    }

    #[test]
    fn transmissions_serialize_fifo() {
        let mut s = Serializer::new(4);
        let (a0, a1) = s.transmit(Ps::ZERO, 24);
        let (b0, b1) = s.transmit(Ps::ZERO, 24);
        assert_eq!(a0, Ps::ZERO);
        assert_eq!(b0, a1, "second packet waits for the first");
        assert!(b1 > a1);
    }

    #[test]
    fn idle_gap_is_not_busy() {
        let mut s = Serializer::new(4);
        let (_, a1) = s.transmit(Ps::ZERO, 24);
        let later = a1 + Ps::from_ns(100.0);
        let (b0, _) = s.transmit(later, 24);
        assert_eq!(b0, later);
    }

    #[test]
    fn stats_reduction() {
        let mut st = LinkStats {
            baseline_bytes: 100,
            wire_bytes: 55,
            ..Default::default()
        };
        assert!((st.reduction() - 0.45).abs() < 1e-12);
        let other = LinkStats {
            baseline_bytes: 100,
            wire_bytes: 65,
            packets: 2,
            ..Default::default()
        };
        st.merge(&other);
        assert_eq!(st.baseline_bytes, 200);
        assert_eq!(st.wire_bytes, 120);
        assert_eq!(st.packets, 2);
        assert!((st.reduction() - 0.40).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_reduction_is_zero() {
        assert_eq!(LinkStats::default().reduction(), 0.0);
    }

    #[test]
    fn typed_wire_bytes_conserve_and_roundtrip() {
        let mut st = LinkStats::default();
        st.add_wire(ByteKind::Position, 48);
        st.add_wire(ByteKind::Force, 24);
        st.add_wire(ByteKind::Other, 8);
        st.add_wire(ByteKind::Position, 2);
        assert_eq!(st.kind_bytes(ByteKind::Position), 50);
        assert_eq!(st.kind_bytes(ByteKind::Force), 24);
        assert_eq!(st.kind_bytes(ByteKind::Other), 8);
        assert_eq!(st.wire_bytes, 82);
        assert!(st.kinds_conserve_wire());
        for (i, kind) in ByteKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(ByteKind::from_index(i), kind);
        }
    }
}
