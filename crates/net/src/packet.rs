//! Packet kinds and traffic classes — paper §III-B.
//!
//! The Anton 3 network uses small fixed-size packets of one or two flits;
//! each flit carries a 64-bit header and a 128-bit payload. This module
//! names what a packet carries and the class it travels in. Each model
//! describes a packet once: the Channel Adapter model sends a
//! [`PacketKind`] with payload words ([`crate::adapter::CaLink`]), and
//! the cycle fabric a [`crate::fabric3d::PacketSpec`].

use crate::channel::ByteKind;

/// Deadlock-avoidance traffic classes (paper §III-B1): the application
/// protocol separates requests from responses; most MD traffic is
/// architected to be request-class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Request class: counted writes, positions, fences and synthetic
    /// traffic.
    Request,
    /// Response class, restricted to XYZ dimension order. The cycle
    /// fabric's responses are force returns, spawned by delivered
    /// requests; no read is modeled.
    Response,
}

/// What a packet carries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PacketKind {
    /// Remote counted write of one quad (§III-A).
    CountedWrite,
    /// A stream-set atom position export (full form).
    Position,
    /// A particle-cache-compressed position (cache index + delta).
    CompressedPosition,
    /// Stream-set or stored-set force return.
    Force,
    /// A network fence packet (§V).
    Fence,
    /// The special end-of-time-step marker that advances particle-cache
    /// epochs (§IV-B1).
    EndOfStep,
}

impl PacketKind {
    /// The Figure 9a wire-byte category this kind is accounted under —
    /// the one mapping from packet kinds to [`ByteKind`], through which
    /// the analytic channel adapters type their bytes. The cycle fabric
    /// carries a [`ByteKind`] in each flit tag of [`crate::fabric3d`]
    /// instead.
    pub fn byte_kind(self) -> ByteKind {
        match self {
            PacketKind::Position | PacketKind::CompressedPosition => ByteKind::Position,
            PacketKind::Force => ByteKind::Force,
            _ => ByteKind::Other,
        }
    }

    /// Header bytes this kind occupies inside a channel frame. Compressed
    /// positions replace the full 64-bit header + static field with a
    /// 10-bit cache index and a short type tag (2 bytes); everything else
    /// carries the full 8-byte flit header.
    pub fn wire_header_bytes(self) -> usize {
        match self {
            PacketKind::CompressedPosition => 2,
            _ => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_position_header_is_short() {
        assert_eq!(PacketKind::CompressedPosition.wire_header_bytes(), 2);
        assert_eq!(PacketKind::Position.wire_header_bytes(), 8);
    }
}
