//! # anton3 — umbrella crate for the Anton 3 network reproduction
//!
//! Re-exports the component crates of the workspace so that examples and
//! downstream users can depend on a single crate:
//!
//! - [`model`] — machine geometry, units, latency/area parameter sets
//! - [`sim`] — deterministic RNG, statistics and activity traces
//! - [`compress`] — INZ encoding and the particle cache
//! - [`mem`] — counted-write / blocking-read SRAM
//! - [`net`] — routers, adapters, channels, torus routing, network fences,
//!   and the cycle-level 3D torus fabric
//! - [`md`] — the water-box molecular-dynamics substrate
//! - [`machine`] — full-system assembly and the paper's experiments
//! - [`traffic`] — synthetic workload generators and latency–throughput
//!   sweeps over the cycle fabric
//!
//! ```
//! use anton3::model::MachineConfig;
//! let cfg = MachineConfig::torus([2, 2, 2]);
//! assert_eq!(cfg.node_count(), 8);
//! ```
#![forbid(unsafe_code)]

pub use anton_compress as compress;
pub use anton_machine as machine;
pub use anton_md as md;
pub use anton_mem as mem;
pub use anton_model as model;
pub use anton_net as net;
pub use anton_sim as sim;
pub use anton_traffic as traffic;
