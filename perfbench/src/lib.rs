//! Time-to-diagnosis benchmark for the STAT reproduction.
//!
//! One command drives the real pipeline through its public API — a one-shot
//! `Session::attach` or a `StreamingSession::advance` wave — in a closed loop
//! with one client, judges every diagnosis against its ground truth, and
//! prints the end-to-end metrics, with times corrected for the host's speed
//! (see `speed`).  With `--trace 1` it instead rebuilds the
//! attach from each layer's public functions, times every call as a span, and
//! prints the per-layer metrics (see `layers`).  Run it as
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attach-208k --seed 1 --seconds 20 --trace 0
//! ```

pub mod layers;
pub mod report;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;
