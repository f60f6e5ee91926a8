//! # anton-traffic — synthetic workloads for the Anton 3 network model
//!
//! The paper's headline results (§III, Figures 5–6) are about latency
//! *under real torus contention*. This crate supplies the contention:
//!
//! - [`patterns`] — a trait-based suite of synthetic traffic patterns
//!   (uniform random, MD-style nearest-neighbor halo, bit-complement,
//!   transpose, hotspot, fence-storm), all deterministic under
//!   [`anton_sim::rng::SplitMix64`];
//! - [`workload`] — the [`workload::Workload`] abstraction: what to
//!   send and how deliveries spawn follow-on traffic, emitting fully
//!   drawn [`anton_net::fabric3d::PacketSpec`]s. Implemented by the
//!   synthetic patterns (with the force-return protocol) and by
//!   [`workload::MdHaloWorkload`], which replays MD-shaped halo traffic
//!   from a spatial decomposition with Figure 9a wire-byte typing
//!   (position exports / force returns);
//! - [`sweep`] — the offered-load scenario driver
//!   ([`sweep::run_scenario`]), generic over any workload, driving the
//!   cycle-level 3D torus of [`anton_net::fabric3d`] through its single
//!   injection endpoint and measuring delivered throughput and
//!   mean/p99 packet latency per load point — split by traffic class
//!   (request vs force-return response) and by physical channel slice —
//!   with latency–throughput curves as JSON. It is also the one
//!   overload/drain harness: CI's 8×8×8 drain check and the drain
//!   property tests run a warmup-0 scenario point, which tracks every
//!   packet and spawned response until the fabric is empty.
//!
//! The sweep doubles as a calibration check: at low load the measured
//! per-hop latency must match the analytic [`anton_net::path`] constant
//! the fabric was derived from, giving every future model change a
//! contention-aware ground truth to validate against.
//!
//! ```
//! use anton_model::latency::LatencyModel;
//! use anton_net::fabric3d::FabricParams;
//! use anton_traffic::patterns::UniformRandom;
//! use anton_traffic::sweep::{run_point, SweepConfig};
//!
//! let mut cfg = SweepConfig::new([2, 2, 2]);
//! cfg.warmup_cycles = 200;
//! cfg.measure_cycles = 500;
//! let params = FabricParams::calibrated(&LatencyModel::default());
//! let point = run_point(&UniformRandom, &cfg, params, 0.05, 1);
//! assert!(point.request.packets_incomplete == 0 && point.delivered > 0.0);
//! assert!(point.response.is_some(), "default sweeps carry both classes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod patterns;
pub mod sweep;
pub mod workload;
