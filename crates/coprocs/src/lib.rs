#![warn(missing_docs)]

//! # eclipse-coprocs — the MPEG coprocessors of the first Eclipse instance
//!
//! Models of the function-specific hardware of the paper's Figure 8, each
//! implementing [`eclipse_core::Coprocessor`]:
//!
//! * [`vld::VldCoproc`] — variable-length decoding: fetches the
//!   compressed bitstream from off-chip memory over its private system-bus
//!   port, parses headers and entropy-coded coefficients, and emits the
//!   token stream (to RLSQ) and the motion-vector stream (to MC);
//! * [`rlsq::RlsqCoproc`] — run-length decoding, inverse scan, and
//!   inverse quantization (decode direction), plus the encoding variants:
//!   quantization + zigzag + run-length coding (`qrl`) and the encoder's
//!   local inverse quantizer (`iq`);
//! * [`dct::DctCoproc`] — the 8×8 inverse/forward DCT (selected per task
//!   via `task_info`, the paper's own example of weak programmability);
//! * [`mcme::McMeCoproc`] — motion compensation (decode), motion
//!   estimation (encode), and the encoder's reconstruction loop, with
//!   reference frames in off-chip memory behind a tiled frame store;
//! * [`dsp::DspCoproc`] — the media processor (DSP-CPU) running the
//!   software tasks: video source, display/collector, variable-length
//!   encoding, and byte sinks.
//!
//! All models are *functionally exact*: the decoded frames produced
//! through the simulated architecture are byte-identical to
//! [`eclipse_media::Decoder`]'s output (asserted by the integration
//! tests), while every coprocessor also carries a calibrated
//! data-dependent cycle-cost model.
//!
//! [`apps`] builds the application graphs of the paper's Figure 2
//! (decode) and its encoding counterpart, and [`instance`] wires complete
//! systems (the paper's Figure 8).

pub mod apps;
pub mod cost;
pub mod dct;
pub mod dsp;
pub mod framestore;
pub mod instance;
pub mod io;
pub mod mcme;
pub mod records;
pub mod rlsq;

/// Largest bitstream a task buffer may restore from a checkpoint: the
/// default off-chip memory's capacity, so any stream that can be staged
/// for the instance fits.
pub(crate) const MAX_STREAM_BYTES: usize = 64 << 20;
pub mod vld;

pub use apps::{
    audio_graph, av_program_graph, decoder_graph, decoder_graph_with_tap, encoder_graph,
    AudioAppConfig, AvProgramConfig, DecodeAppConfig, EncodeAppConfig,
};
pub use instance::{build_decode_system, DecodeSystem};
