#![warn(missing_docs)]

//! # Eclipse — a heterogeneous multiprocessor architecture template in Rust
//!
//! This is the facade crate of the Eclipse reproduction. It re-exports the
//! public API of all subsystem crates so that downstream users can depend
//! on a single crate:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel
//! * [`kpn`] — Kahn Process Network application graphs (tasks, ports,
//!   streams) and their validation
//! * [`mem`] — on-chip SRAM / off-chip DRAM / bus interconnect models
//! * [`shell`] — the coprocessor shell: stream & task tables, distributed
//!   synchronization, caches with explicit coherency, weighted round-robin
//!   task scheduling, performance measurement
//! * [`core`] — the architecture template: task-level interface,
//!   coprocessor model, system builder, simulation top level, area/power
//!   model
//! * [`media`] — MPEG-2-like codec substrate (DCT, quantization, VLC,
//!   motion estimation/compensation, encoder/decoder)
//! * [`coprocs`] — coprocessor models of the paper's first Eclipse
//!   instance: VLD, RLSQ, DCT, MC/ME, and DSP-CPU software tasks
//! * [`viz`] — trace recording and ASCII/CSV performance visualization
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the architecture, and
//! `EXPERIMENTS.md` for the paper-reproduction results.

pub use eclipse_coprocs as coprocs;
pub use eclipse_core as core;
pub use eclipse_kpn as kpn;
pub use eclipse_media as media;
pub use eclipse_mem as mem;
pub use eclipse_shell as shell;
pub use eclipse_sim as sim;
pub use eclipse_viz as viz;
