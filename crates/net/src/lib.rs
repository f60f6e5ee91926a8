//! # anton-net — the specialized Anton 3 network
//!
//! The paper's primary contribution: a tightly integrated network
//! providing fast end-to-end inter-node communication (§III),
//! application-specific compression at the off-chip boundary (§IV), and
//! in-network fence synchronization (§V).
//!
//! - [`packet`] — 1–2-flit packets, traffic classes, endpoints;
//! - [`chip`] — on-chip locations and Core/Edge Network traversal math;
//! - [`routing`] — minimal oblivious torus routing (six randomized
//!   dimension orders, two slices, dateline VCs) and the XYZ-mesh response
//!   restriction that gets the Edge Router to five VCs;
//! - [`channel`] — SERDES serialization and traffic accounting;
//! - [`adapter`] — the Channel Adapter: INZ + particle cache + framing at
//!   the wire, with per-kind wire-cost models;
//! - [`fence`] — fence merge counters, multicast masks, and the
//!   14-slot concurrent-fence allocator;
//! - [`path`] — composed end-to-end latency with per-component breakdown
//!   (Figures 5 and 6);
//! - [`router`] — the flit-granular cycle-level router microarchitecture
//!   (credit flow control, cut-through, per-link latency channels and
//!   traffic counters);
//! - [`edge`] — one chip side's Edge Network as a fabric of those
//!   routers, which checks [`chip`]'s Edge Router hop counts;
//! - [`telemetry`] — zero-cost-when-off fabric observability: stall-cause
//!   attribution, per-link epoch time-series, and packet lifecycle traces;
//! - [`fabric3d`] — the full inter-node 3D torus as a [`router`] fabric:
//!   two physical channel slices per neighbor, request and response
//!   traffic classes on disjoint VC sets, calibrated against [`path`]
//!   and driven by the `anton-traffic` workload generators.
//!
//! ```
//! use anton_net::{adapter::Compression, chip::ChipLoc, path, routing};
//! use anton_model::{latency::LatencyModel, topology::{NodeId, Torus}};
//! use anton_sim::rng::SplitMix64;
//!
//! let torus = Torus::new([4, 4, 8]);
//! let mut rng = SplitMix64::new(1);
//! let plan = routing::plan_request(
//!     &torus,
//!     torus.coord(NodeId(0)),
//!     torus.coord(NodeId(1)),
//!     &mut rng,
//! );
//! let lat = LatencyModel::default();
//! let brk = path::one_way(
//!     &lat,
//!     Compression::NONE,
//!     ChipLoc::gc(0, 0, 0),
//!     ChipLoc::gc(0, 1, 0),
//!     &plan,
//!     4,
//! );
//! assert!(brk.total().as_ns() > 40.0 && brk.total().as_ns() < 130.0);
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one function:
// `ShardPool::new` in `router/shard.rs`, whose one `unsafe` block turns
// the addresses a lookahead epoch publishes back into a pool worker's
// shared epoch inputs and its own shard's rows (see that file's ownership
// section). Everything else — the shard windows included — is, and must
// stay, safe code; CI fails on `unsafe` anywhere else outside the
// vendored crates.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod channel;
pub mod chip;
pub mod edge;
pub mod fabric3d;
pub mod fence;
pub mod packet;
pub mod path;
pub mod router;
pub mod routing;
pub mod telemetry;
