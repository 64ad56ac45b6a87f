//! Every workload and metric the benchmark reports, with its unit,
//! direction, kind, the workloads it applies to and — for a per-layer
//! metric — the end-to-end metric it should move.
//!
//! `BENCHMARK.json` at the repository root mirrors the names, units,
//! directions and bounds listed here (a test keeps the two in step).

/// The paper's own system on one emulated GRAPE-5 in exact arithmetic.
pub const CDM: &str = "cdm-exact-k1";
/// The paper's LNS arithmetic on a two-shard cluster.
pub const LNS: &str = "hernquist-lns-k2";
/// A fleet of small tenant jobs through the job service.
pub const FLEET: &str = "serve-fleet";

/// Every workload, in reporting order.
pub const WORKLOADS: [&str; 3] = [CDM, LNS, FLEET];
const ALL: &[&str] = &WORKLOADS;

/// Where a metric's number comes from (ROADMAP item 1's labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock (or memory) measured on the machine that ran it.
    Measured,
    /// Priced on the emulated device's 1999 clock model — never a
    /// measurement.
    Modeled,
    /// A count of work items.
    Count,
    /// Derived arithmetically from counts (no timing involved).
    Computed,
}

impl Kind {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
            Kind::Computed => "computed",
        }
    }
}

/// End-to-end (reported with `--trace 0`) or per-layer (`--trace 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// What a user of the system sees.
    EndToEnd,
    /// One layer's public entry point, from the traced run.
    Layer,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Measured, modeled, count or computed.
    pub kind: Kind,
    /// End-to-end or per-layer.
    pub level: Level,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
    /// Workloads the metric applies to (elsewhere it reports 0).
    pub workloads: &'static [&'static str],
    /// For a per-layer metric: the end-to-end metric and workload it
    /// should move. Empty for end-to-end metrics.
    pub moves: &'static str,
}

impl MetricDef {
    /// "higher" or "lower".
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    /// Does the metric apply to `workload`?
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    kind: Kind,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        kind,
        level: Level::EndToEnd,
        bound: Some(bound),
        workloads: ALL,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    kind: Kind,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        kind,
        level: Level::Layer,
        bound: None,
        workloads,
        moves,
    }
}

use Kind::{Computed, Count, Measured, Modeled};

/// Every metric, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end (untraced runs) ----
    e2e("setup_s", "s", false, Measured, 0.25),
    e2e("step_s.p50", "s", false, Measured, 0.24),
    e2e("step_s.p90", "s", false, Measured, 0.24),
    e2e("interactions_per_s", "1/s", true, Measured, 0.24),
    e2e("force_err_rms", "ratio", false, Computed, 0.2),
    e2e("peak_rss_mb", "MB", false, Measured, 0.24),
    e2e("completed_frac", "ratio", true, Computed, 0.01),
    e2e("jobs_per_s", "1/s", true, Measured, 0.24),
    e2e("turnaround_s.p50", "s", false, Measured, 0.24),
    e2e("turnaround_s.p95", "s", false, Measured, 0.24),
    // ---- g5ic ----
    layer("ic.generate_s", "s", false, Measured, ALL, "setup_s on every workload"),
    // ---- g5util ----
    layer(
        "util.morton_sort_ns_per_particle",
        "ns",
        false,
        Measured,
        ALL,
        "step_s.p50 on cdm-exact-k1 (small: traversal overlaps the device)",
    ),
    // ---- g5tree ----
    layer(
        "tree.build_ns_per_particle",
        "ns",
        false,
        Measured,
        ALL,
        "step_s.p50 where the plan producer blocks the device",
    ),
    layer(
        "tree.find_groups_s",
        "s",
        false,
        Measured,
        ALL,
        "step_s.p50 where the plan producer blocks the device",
    ),
    layer(
        "tree.traverse_ns_per_group",
        "ns",
        false,
        Measured,
        ALL,
        "step_s.p50 where the plan producer blocks the device",
    ),
    layer("tree.groups", "count", false, Count, ALL, "explains interactions_per_s"),
    layer("tree.list_len_mean", "count", false, Count, ALL, "explains interactions_per_s"),
    layer("tree.terms_per_step", "count", false, Count, ALL, "explains interactions_per_s"),
    layer(
        "tree.decompose_s",
        "s",
        false,
        Measured,
        &[LNS, FLEET],
        "step_s.p50 on hernquist-lns-k2",
    ),
    layer(
        "tree.let_ns_per_group",
        "ns",
        false,
        Measured,
        &[LNS, FLEET],
        "step_s.p50 on hernquist-lns-k2",
    ),
    layer(
        "tree.let_terms_per_step",
        "count",
        false,
        Count,
        &[LNS, FLEET],
        "step_s.p50 on hernquist-lns-k2",
    ),
    // ---- grape5 ----
    layer("grape5.calls_per_step", "count", false, Count, ALL, "explains step_s.p50"),
    layer("grape5.interactions_per_step", "count", false, Count, ALL, "explains step_s.p50"),
    layer(
        "grape5.jload_ns_per_word",
        "ns",
        false,
        Measured,
        ALL,
        "step_s.p50 on every workload, most on serve-fleet",
    ),
    layer(
        "grape5.force_ns_per_interaction",
        "ns",
        false,
        Measured,
        ALL,
        "interactions_per_s: exact lanes on cdm-exact-k1, LNS on hernquist-lns-k2",
    ),
    layer(
        "grape5.session_overhead_frac",
        "ratio",
        false,
        Measured,
        ALL,
        "step_s.p50 (validation and recovery cost)",
    ),
    layer("grape5.ops_per_byte", "ops/B", true, Computed, ALL, "explains interactions_per_s"),
    layer(
        "grape5.retry_frac",
        "ratio",
        false,
        Computed,
        ALL,
        "completed_frac and jobs_per_s on serve-fleet",
    ),
    layer("grape5.modeled_step_s", "s", false, Modeled, ALL, "none: the 1999 device clock"),
    // ---- treegrape ----
    layer("core.force_s", "s", false, Measured, ALL, "step_s.p50 on every workload"),
    layer("core.integrate_s", "s", false, Measured, ALL, "step_s.p50 on every workload"),
    layer(
        "core.checkpoint_write_s",
        "s",
        false,
        Measured,
        ALL,
        "step_s.p90 on cdm-exact-k1, jobs_per_s on serve-fleet",
    ),
    layer(
        "core.checkpoint_bytes",
        "B",
        false,
        Count,
        ALL,
        "step_s.p90 on cdm-exact-k1, jobs_per_s on serve-fleet",
    ),
    layer(
        "core.checkpoint_read_s",
        "s",
        false,
        Measured,
        ALL,
        "jobs_per_s and turnaround_s.p95 on serve-fleet",
    ),
    layer(
        "core.backend_build_s",
        "s",
        false,
        Measured,
        ALL,
        "jobs_per_s and turnaround_s.p95 on serve-fleet",
    ),
    // ---- g5serve ----
    layer("serve.submit_us", "us", false, Measured, &[FLEET], "setup_s on serve-fleet"),
    layer("serve.open_s", "s", false, Measured, &[FLEET], "setup_s on serve-fleet"),
    layer(
        "serve.queue_wait_s.p50",
        "s",
        false,
        Measured,
        &[FLEET],
        "turnaround_s.p50 and turnaround_s.p95 on serve-fleet",
    ),
    layer("serve.busy_frac", "ratio", true, Measured, &[FLEET], "jobs_per_s on serve-fleet"),
    layer("serve.preemptions", "count", false, Count, &[FLEET], "jobs_per_s on serve-fleet"),
    layer("serve.resumes", "count", false, Count, &[FLEET], "jobs_per_s on serve-fleet"),
    layer("serve.checkpoints", "count", false, Count, &[FLEET], "jobs_per_s on serve-fleet"),
    layer(
        "serve.generator_lag_s",
        "s",
        false,
        Measured,
        &[FLEET],
        "turnaround_s.p50 on serve-fleet (a late generator inflates it)",
    ),
    // ---- the trace itself ----
    layer(
        "trace.attributed_frac",
        "ratio",
        true,
        Computed,
        ALL,
        "none: the share of step wall the ladder accounts for",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        false,
        Measured,
        ALL,
        "none: traced against untraced, end to end",
    ),
];

/// Metrics of one level, in catalogue order.
pub fn metrics(level: Level) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.level == level)
}

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// A valid metric or workload name: starts with a letter or digit, at
/// most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A valid unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
