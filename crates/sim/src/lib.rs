//! # anton-sim — deterministic simulation utilities
//!
//! - [`rng::SplitMix64`] — reproducible randomness for oblivious routing
//!   decisions;
//! - [`stats`] — accumulators, a log-bucketed latency histogram and the
//!   least-squares fits used to report results the way the paper does;
//! - [`trace::ActivityTrace`] — busy-span recording behind Figure 12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod trace;
