//! # anton-compress — Anton 3's application-specific compression
//!
//! The paper's §IV describes two techniques that together cut off-chip
//! traffic by 45–62% on water benchmarks:
//!
//! - [`inz`] — **interleaved non-zero encoding**: sign-folding plus bitwise
//!   interleaving so payloads of small signed words shed their leading
//!   zero bytes (Figure 7);
//! - [`pcache`] — the **particle cache**: synchronized caches at both ends
//!   of each I/O channel that transmit only the delta between a particle's
//!   position and a quadratic extrapolation from its cached history
//!   (Figure 8);
//! - [`frame`] — the geometry of the fixed-length channel frames that
//!   compressed payloads are packed into, whose per-frame overhead the
//!   channel model charges as a rate.
//!
//! ```
//! use anton_compress::inz;
//! // A typical force payload: three small signed words.
//! let enc = inz::encode(&[120, -340i32 as u32, 77]);
//! assert!(enc.wire_len() < 13);
//! assert_eq!(inz::decode(&enc), vec![120, -340i32 as u32, 77]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod inz;
pub mod pcache;
