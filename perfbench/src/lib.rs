//! # g5-perfbench — the measured wall-clock benchmark of the repository
//!
//! One command runs one named workload from a seed, measures it for a
//! given number of seconds and prints every metric by name and unit.
//! Untraced runs report end-to-end metrics; traced runs (`--trace 1`)
//! time every layer's public entry point and report per-layer metrics.
//! Any failed correctness check fails the run. See `README.md` in this
//! directory for the workloads and the layer → end-to-end map.

use std::path::PathBuf;

pub mod catalog;
pub mod context;
pub mod fleet;
pub mod json;
pub mod ladder;
pub mod referee;
pub mod report;
pub mod sim;
pub mod stats;
pub mod timed;
pub mod trace;

/// A run may overrun `--seconds` by this factor to reach its minimum
/// amount of work, and no further: a contended machine gets fewer
/// samples rather than a longer run.
pub const OVERRUN: f64 = 1.3;

/// One run's options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run?
    pub trace: bool,
    /// Scratch directory for checkpoints and service state.
    pub dir: PathBuf,
}
