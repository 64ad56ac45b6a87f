//! The bench-side `ForceBackend` wrapper of the traced run, and the
//! device-accounting arithmetic shared by the workloads.

use g5util::vec3::Vec3;
use grape5::{ClockAccounting, Grape5Config, RecoveryStats};
use std::time::Instant;
use treegrape::backends::{ForceError, ForceSet};
use treegrape::{AnyBackend, BackendSpec, ForceBackend};

/// Operations per interaction in the paper's flop accounting.
pub const OPS_PER_INTERACTION: f64 = 38.0;

/// Bytes per interface word (the GRAPE-5 host interface moves 32-bit
/// words).
pub const BYTES_PER_WORD: f64 = 4.0;

/// A backend the workloads can checkpoint through.
pub trait Backend: ForceBackend {
    /// The spec-built backend.
    fn any(&self) -> &AnyBackend;
    /// Mutable access, e.g. for `AnyBackend::checkpoint`.
    fn any_mut(&mut self) -> &mut AnyBackend;
    /// Start and end of the last `try_compute`, when timed.
    fn last_force(&self) -> Option<(Instant, Instant)> {
        None
    }
    /// Switch per-call timing on or off, where the backend has it.
    fn set_timing(&mut self, _on: bool) {}
}

impl Backend for AnyBackend {
    fn any(&self) -> &AnyBackend {
        self
    }
    fn any_mut(&mut self) -> &mut AnyBackend {
        self
    }
}

/// Times every `try_compute` of the wrapped backend while enabled.
pub struct Timed {
    inner: AnyBackend,
    enabled: bool,
    last: Option<(Instant, Instant)>,
}

impl Timed {
    /// Wrap a spec-built backend, timing enabled.
    pub fn new(inner: AnyBackend) -> Timed {
        Timed { inner, enabled: true, last: None }
    }
}

impl ForceBackend for Timed {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        if !self.enabled {
            return self.inner.try_compute(pos, mass);
        }
        let t = Instant::now();
        let out = self.inner.try_compute(pos, mass);
        self.last = Some((t, Instant::now()));
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn grape_accounting(&self) -> Option<ClockAccounting> {
        self.inner.grape_accounting()
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.inner.recovery_stats()
    }
}

impl Backend for Timed {
    fn any(&self) -> &AnyBackend {
        &self.inner
    }
    fn any_mut(&mut self) -> &mut AnyBackend {
        &mut self.inner
    }
    fn last_force(&self) -> Option<(Instant, Instant)> {
        self.last
    }
    /// Off forwards without reading a clock.
    fn set_timing(&mut self, on: bool) {
        self.enabled = on;
        self.last = None;
    }
}

/// Device work of a backend at one instant: merged accounting plus one
/// accounting per device (shard), and recovery totals.
#[derive(Debug, Clone)]
pub struct DeviceWork {
    /// Accounting merged over every device.
    pub merged: ClockAccounting,
    /// Per-device accounting (one entry for a single device).
    pub per_device: Vec<ClockAccounting>,
    /// Recovery actions so far.
    pub recovery: RecoveryStats,
}

impl DeviceWork {
    /// Read a backend's counters.
    pub fn of(b: &AnyBackend) -> DeviceWork {
        let per_device = match b {
            AnyBackend::Tree(t) => vec![t.accounting()],
            AnyBackend::Cluster(c) => (0..c.shards()).map(|k| c.shard_accounting(k)).collect(),
        };
        DeviceWork {
            merged: b.grape_accounting().unwrap_or_default(),
            per_device,
            recovery: b.total_recovery(),
        }
    }
}

fn minus(a: ClockAccounting, b: ClockAccounting) -> ClockAccounting {
    ClockAccounting {
        pipeline_cycles: a.pipeline_cycles - b.pipeline_cycles,
        iface_words: a.iface_words - b.iface_words,
        calls: a.calls - b.calls,
        interactions: a.interactions - b.interactions,
        j_words: a.j_words - b.j_words,
    }
}

/// Device counters over an interval of `evals` force evaluations.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceDelta {
    /// Force calls per evaluation.
    pub calls_per_eval: f64,
    /// Interactions per evaluation.
    pub interactions_per_eval: f64,
    /// 38 ops per interaction over the interface bytes moved.
    pub ops_per_byte: f64,
    /// Retried attempts over calls.
    pub retry_frac: f64,
    /// Modeled 1999 device seconds per evaluation on the critical
    /// (slowest) device.
    pub modeled_eval_s: f64,
}

/// Counters between two readings of the same backend.
pub fn device_delta(
    spec: &BackendSpec,
    start: &DeviceWork,
    end: &DeviceWork,
    evals: u64,
) -> DeviceDelta {
    let d = minus(end.merged, start.merged);
    let grape = Grape5Config { boards: spec.boards, mode: spec.mode, ..Grape5Config::paper() };
    let modeled = end
        .per_device
        .iter()
        .zip(&start.per_device)
        .map(|(e, s)| minus(*e, *s).report(&grape).total_s())
        .fold(0.0, f64::max);
    let evals = evals.max(1) as f64;
    let retries = end.recovery.retries - start.recovery.retries;
    DeviceDelta {
        calls_per_eval: d.calls as f64 / evals,
        interactions_per_eval: d.interactions as f64 / evals,
        ops_per_byte: OPS_PER_INTERACTION * d.interactions as f64
            / (BYTES_PER_WORD * d.iface_words.max(1) as f64),
        retry_frac: retries as f64 / d.calls.max(1) as f64,
        modeled_eval_s: modeled / evals,
    }
}
