//! Channel-frame geometry — paper §IV-A.
//!
//! Compressed payloads and their headers are densely packed at byte
//! granularity into fixed-length frames that traverse the SERDES lanes.
//! A packet may straddle a frame boundary (the stream is continuous), so
//! the capacity lost to framing is the fixed per-frame overhead.
//!
//! Frame geometry: [`FRAME_BYTES`] total, of which [`FRAME_OVERHEAD_BYTES`]
//! carry link-level framing (sequence/CRC) and the rest is packed payload.
//! The channel model charges that overhead as one rate: every packed byte
//! costs `FRAME_BYTES / FRAME_PAYLOAD_BYTES` bytes of wire time
//! (`anton_net::channel::Serializer::serialize_time`), while the Figure 9a
//! accounting counts the packed bytes themselves.

/// Total bytes in one channel frame.
pub const FRAME_BYTES: usize = 64;
/// Link-level overhead bytes per frame (sequence number + CRC).
pub const FRAME_OVERHEAD_BYTES: usize = 2;
/// Payload capacity of one frame.
pub const FRAME_PAYLOAD_BYTES: usize = FRAME_BYTES - FRAME_OVERHEAD_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_geometry() {
        assert_eq!(FRAME_PAYLOAD_BYTES + FRAME_OVERHEAD_BYTES, FRAME_BYTES);
        // A raw quad payload with full header fits in one frame.
        #[allow(clippy::assertions_on_constants)] // documents the layout
        {
            assert!(1 + 8 + 16 < FRAME_PAYLOAD_BYTES);
        }
    }
}
