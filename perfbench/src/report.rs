//! Result records: the full per-run record written next to the trace,
//! and the one-line summary printed last on standard output.

use crate::catalog::{self, Level};
use crate::context::Context;
use crate::json::Json;
use crate::stats::Outcomes;

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Catalogue name.
    pub name: String,
    /// The number, as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Measured, modeled, count or computed.
    pub kind: String,
    /// `false` when the metric does not apply to the workload (the
    /// value is then 0).
    pub applies: bool,
    /// Free-form qualifier, e.g. the percentile actually reported.
    pub note: String,
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short name.
    pub name: String,
    /// Did it pass?
    pub pass: bool,
    /// What was compared.
    pub detail: String,
}

/// Collects a run's metric values and checks.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    values: Vec<(String, f64, String)>,
    checks: Vec<Check>,
}

impl Recorder {
    /// Record a catalogue metric.
    ///
    /// # Panics
    /// On a name the catalogue does not define, a repeated name or a
    /// non-finite value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_noted(name, value, "");
    }

    /// Record a catalogue metric with a qualifier note.
    pub fn set_noted(&mut self, name: &str, value: f64, note: &str) {
        assert!(catalog::metric(name).is_some(), "metric {name:?} is not in the catalogue");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(!self.values.iter().any(|(n, _, _)| n == name), "metric {name} recorded twice");
        self.values.push((name.to_string(), value, note.to_string()));
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        if !pass {
            eprintln!("check FAILED: {name}: {detail}");
        }
        self.checks.push(Check { name: name.to_string(), pass, detail });
    }

    /// Every metric of `level` for `workload`, catalogue order. A metric
    /// that does not apply to the workload reports 0, flagged.
    ///
    /// # Panics
    /// When an applicable metric was never recorded.
    pub fn values(&self, level: Level, workload: &str) -> Vec<Value> {
        catalog::metrics(level)
            .map(|def| {
                let got = self.values.iter().find(|(n, _, _)| n == def.name);
                let applies = def.applies_to(workload);
                let (value, note) = match got {
                    Some((_, v, note)) => (*v, note.clone()),
                    None if !applies => (0.0, "not applicable".to_string()),
                    None => panic!("metric {} was not measured on {workload}", def.name),
                };
                Value {
                    name: def.name.to_string(),
                    value,
                    unit: def.unit.to_string(),
                    kind: def.kind.label().to_string(),
                    applies,
                    note,
                }
            })
            .collect()
    }

    /// The checks recorded so far.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer) run?
    pub trace: bool,
    /// Requested measuring time.
    pub seconds: f64,
    /// Where and what ran, and from which seed.
    pub context: Context,
    /// Metric values of this run's level.
    pub metrics: Vec<Value>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Units of work attempted and failed.
    pub outcomes: Outcomes,
    /// Determinism digests (final state, interaction counts).
    pub digests: Vec<(String, String)>,
}

impl Results {
    /// All checks passed and no unit of work failed.
    pub fn correct(&self) -> bool {
        self.outcomes.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// The full record.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|v| {
                Json::obj()
                    .with("name", v.name.as_str())
                    .with("value", v.value)
                    .with("unit", v.unit.as_str())
                    .with("kind", v.kind.as_str())
                    .with("applies", v.applies)
                    .with("note", v.note.as_str())
            })
            .collect::<Vec<_>>();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::obj()
                    .with("name", c.name.as_str())
                    .with("pass", c.pass)
                    .with("detail", c.detail.as_str())
            })
            .collect::<Vec<_>>();
        let digests = self
            .digests
            .iter()
            .map(|(k, v)| Json::obj().with("name", k.as_str()).with("digest", v.as_str()))
            .collect::<Vec<_>>();
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("trace", self.trace)
            .with("seconds", self.seconds)
            .with("context", self.context.to_json())
            .with("correct", self.correct())
            .with("attempted", self.outcomes.attempted)
            .with("failed", self.outcomes.failed)
            .with("metrics", metrics)
            .with("checks", checks)
            .with("digests", digests)
    }

    /// Parse a record written by [`to_json`](Self::to_json).
    pub fn from_json(j: &Json) -> Result<Results, String> {
        let s = |j: &Json, k: &str| -> Result<String, String> {
            j.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing {k}"))
        };
        let f = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("missing {k}"));
        let b = |j: &Json, k: &str| j.get(k).and_then(Json::as_bool).ok_or(format!("missing {k}"));
        let arr = |k: &str| j.get(k).and_then(Json::as_array).ok_or(format!("missing {k}"));
        let metrics = arr("metrics")?
            .iter()
            .map(|m| {
                Ok(Value {
                    name: s(m, "name")?,
                    value: f(m, "value")?,
                    unit: s(m, "unit")?,
                    kind: s(m, "kind")?,
                    applies: b(m, "applies")?,
                    note: s(m, "note")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let checks = arr("checks")?
            .iter()
            .map(|c| {
                Ok(Check { name: s(c, "name")?, pass: b(c, "pass")?, detail: s(c, "detail")? })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let digests = arr("digests")?
            .iter()
            .map(|d| Ok((s(d, "name")?, s(d, "digest")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Results {
            workload: s(j, "workload")?,
            trace: b(j, "trace")?,
            seconds: f(j, "seconds")?,
            context: Context::from_json(j.get("context").ok_or("missing context")?)?,
            metrics,
            checks,
            outcomes: Outcomes {
                attempted: f(j, "attempted")? as u64,
                failed: f(j, "failed")? as u64,
            },
            digests,
        })
    }

    /// The summary line: `correct`, `attempted`, `failed` and every
    /// metric of the run's level by name with its value and unit.
    pub fn summary_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|v| {
                    (
                        v.name.clone(),
                        Json::obj().with("value", v.value).with("unit", v.unit.as_str()),
                    )
                })
                .collect(),
        );
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.outcomes.attempted)
            .with("failed", self.outcomes.failed)
            .with("metrics", metrics)
            .dump()
    }
}

/// FNV-1a over a stream of 64-bit words — the determinism digest of a
/// final state or a count sequence.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a sequence of floats in by their bit patterns.
    pub fn floats(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// Hex form.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
