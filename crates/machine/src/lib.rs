//! # anton-machine — full-system Anton 3 model and the paper's experiments
//!
//! Assembles the network ([`anton_net`]), compression
//! ([`anton_compress`]) and the MD substrate ([`anton_md`]) into runnable
//! machines, and implements every measurement the paper reports:
//!
//! - [`machine`] — the directed channel-link fabric of a torus machine;
//! - [`pingpong`] — end-to-end latency vs. hop count (Figures 5, 6);
//! - [`barrier`] — network-fence barrier latency (Figure 11);
//! - [`mdrun`] — MD time steps over the network (the engine of
//!   Figures 9 and 12);
//! - [`experiments`] — the Figure 9 sweep and Figure 12 activity matrix.
//!
//! ```
//! use anton_machine::pingpong;
//! use anton_model::MachineConfig;
//!
//! let cfg = MachineConfig::torus([4, 4, 8]).without_compression();
//! let row = pingpong::one_way_latency(&cfg, 1, 50, 1);
//! assert!(row.min_ns >= 50.0 && row.mean_ns < 120.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod experiments;
pub mod machine;
pub mod mdrun;
pub mod pingpong;
