//! Tests for the benchmark's own helpers: order statistics, outcome
//! accounting, names, the JSON records and the referee.

use g5_perfbench::catalog::{self, Level};
use g5_perfbench::context::Context;
use g5_perfbench::json::Json;
use g5_perfbench::referee::{direct_at, err_sums, sample_targets, state_digest};
use g5_perfbench::report::{Check, Recorder, Results, Value};
use g5_perfbench::stats::{median, quartiles, tail, Outcomes, TAIL_MIN_BEYOND};
use g5_perfbench::trace::Tracer;
use rand::SeedableRng;
use treegrape::{DirectHost, ForceBackend};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * b.abs().max(1.0)
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // reference values from Python's statistics.quantiles(xs, n=4)
    type Case<'a> = (&'a [f64], (f64, f64, f64));
    let cases: [Case; 4] = [
        (&[1.0, 2.0, 3.0, 4.0, 5.0], (1.5, 3.0, 4.5)),
        (&[1.0, 2.0], (0.75, 1.5, 2.25)),
        (&[3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6], (1.5, 3.0, 5.0)),
        (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], (2.75, 5.5, 8.25)),
    ];
    for (xs, (q1, q2, q3)) in cases {
        let got = quartiles(xs);
        assert!(close(got.0, q1) && close(got.1, q2) && close(got.2, q3), "{xs:?}: {got:?}");
    }
}

#[test]
fn tail_keeps_the_requested_percentile_with_enough_samples_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&xs, 0.90);
    assert_eq!((t.value, t.percentile, t.samples), (90.0, 0.90, 100));
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_MIN_BEYOND);
    assert_eq!(tail(&xs, 0.50).value, 50.0);
}

#[test]
fn tail_lowers_a_thin_percentile_and_reports_it() {
    // 50 samples cannot carry p90 (5 beyond): p80 is the highest with 10
    let xs: Vec<f64> = (1..=50).map(f64::from).collect();
    let t = tail(&xs, 0.90);
    assert_eq!((t.value, t.samples), (40.0, 50));
    assert!(close(t.percentile, 0.80));
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_MIN_BEYOND);
    // 200 samples carry p95 exactly
    let ys: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(tail(&ys, 0.95).value, 190.0);
}

#[test]
fn tail_never_drops_below_the_median() {
    let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
    let t = tail(&xs, 0.95);
    assert_eq!((t.value, t.samples), (3.0, 5));
    assert!(close(t.percentile, 0.6));
    assert_eq!(tail(&[2.0], 0.9).value, 2.0);
}

#[test]
fn failed_frac_counts_failures_over_attempts() {
    let mut o = Outcomes::default();
    assert_eq!(o.failed_frac(), 0.0);
    for ok in [true, true, false, true] {
        o.record(ok);
    }
    assert_eq!((o.attempted, o.failed), (4, 1));
    assert_eq!(o.failed_frac(), 0.25);
    assert_eq!(o.completed_frac(), 0.75);
    let m = o.merged(Outcomes { attempted: 6, failed: 0 });
    assert_eq!((m.attempted, m.failed, m.failed_frac()), (10, 1, 0.1));
}

#[test]
fn metric_name_rules() {
    for good in ["setup_s", "step_s.p50", "tree.let_ns_per_group", "0x", "a-b"] {
        assert!(catalog::valid_name(good), "{good}");
    }
    for bad in ["", ".hidden", "_x", "has space", "slash/no", "ü", &"x".repeat(65)] {
        assert!(!catalog::valid_name(bad), "{bad}");
    }
    for good in ["s", "1/s", "ops/B", "%", "MB"] {
        assert!(catalog::valid_unit(good), "{good}");
    }
    for bad in ["", "per second", &"u".repeat(17)] {
        assert!(!catalog::valid_unit(bad), "{bad}");
    }
}

#[test]
fn catalogue_is_well_formed() {
    let mut seen = std::collections::HashSet::new();
    for m in catalog::METRICS {
        assert!(catalog::valid_name(m.name), "{}", m.name);
        assert!(catalog::valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} listed twice", m.name);
        assert!(!m.workloads.is_empty(), "{} applies nowhere", m.name);
        match m.level {
            Level::EndToEnd => {
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
                assert_eq!(m.workloads, &catalog::WORKLOADS[..], "{}", m.name);
            }
            Level::Layer => {
                assert!(m.bound.is_none(), "{}", m.name);
                assert!(!m.moves.is_empty(), "{} says nothing about what it moves", m.name);
            }
        }
    }
    let setup = catalog::metric("setup_s").expect("setup_s");
    let largest = catalog::metrics(Level::EndToEnd).filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
}

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        j.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), catalog::WORKLOADS.to_vec());
    for (key, level) in [("end_to_end", Level::EndToEnd), ("per_layer", Level::Layer)] {
        let listed = j.get(key).and_then(Json::as_array).expect(key);
        let defs: Vec<_> = catalog::metrics(level).collect();
        assert_eq!(listed.len(), defs.len(), "{key} count");
        for (m, def) in listed.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit), "{}", def.name);
            assert_eq!(m.get("better").and_then(Json::as_str), Some(def.better()), "{}", def.name);
            assert_eq!(m.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
        }
    }
}

fn sample_results() -> Results {
    let context = Context {
        commit: "0123abc".into(),
        nproc: 2,
        lane_path: "Avx2".into(),
        caches: vec![("L1d".into(), 32768), ("L2".into(), 1 << 20)],
        seed: 7,
    };
    let mut rec = Recorder::default();
    let mut value = 0.125;
    for m in catalog::metrics(Level::EndToEnd) {
        rec.set_noted(m.name, value, "p50.0 of 3 samples");
        value *= 3.7;
    }
    Results {
        workload: catalog::CDM.into(),
        trace: false,
        seconds: 30.0,
        context,
        metrics: rec.values(Level::EndToEnd, catalog::CDM),
        checks: vec![Check {
            name: "force-referee".into(),
            pass: true,
            detail: "rms \"1e-3\"\n".into(),
        }],
        outcomes: Outcomes { attempted: 120, failed: 0 },
        digests: vec![("final_state".into(), "00ff".into())],
    }
}

#[test]
fn results_json_round_trips() {
    let r = sample_results();
    let text = r.to_json().dump();
    let back = Results::from_json(&Json::parse(&text).expect("parses")).expect("well-formed");
    assert_eq!(back, r);
    assert_eq!(back.to_json().dump(), text);
}

#[test]
fn summary_line_has_exactly_the_contract_keys() {
    let r = sample_results();
    let j = Json::parse(&r.summary_line()).expect("parses");
    let Json::Obj(kv) = &j else { panic!("not an object") };
    let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(r.summary_line().contains("\"attempted\": 120,"), "counts print as integers");
    let metrics = j.get("metrics").expect("metrics");
    for m in catalog::metrics(Level::EndToEnd) {
        let v = metrics.get(m.name).unwrap_or_else(|| panic!("{} missing", m.name));
        let Json::Obj(fields) = v else { panic!("{} not an object", m.name) };
        assert_eq!(fields.len(), 2);
        assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
        assert!(v.get("value").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn not_applicable_metrics_report_zero_and_say_so() {
    let mut rec = Recorder::default();
    for m in catalog::metrics(Level::Layer).filter(|m| m.applies_to(catalog::CDM)) {
        rec.set(m.name, 1.5);
    }
    let values: Vec<Value> = rec.values(Level::Layer, catalog::CDM);
    let serve = values.iter().find(|v| v.name == "serve.open_s").expect("listed");
    assert!(!serve.applies && serve.value == 0.0);
    assert!(values.iter().filter(|v| v.applies).all(|v| v.value == 1.5));
}

#[test]
#[should_panic(expected = "not in the catalogue")]
fn unknown_metrics_are_rejected() {
    Recorder::default().set("made_up", 1.0);
}

#[test]
fn json_parser_handles_escapes_numbers_and_nesting() {
    let text = r#" {"a": [1, -2.5e-3, 1E3, true, null], "b": {"c": "x\"y\\z\né"}, "d": []} "#;
    let j = Json::parse(text).expect("parses");
    let a = j.get("a").and_then(Json::as_array).expect("array");
    assert_eq!(a[1].as_f64(), Some(-2.5e-3));
    assert_eq!(a[2].as_f64(), Some(1000.0));
    assert_eq!(a[4], Json::Null);
    assert_eq!(j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\"y\\z\né"));
    assert_eq!(Json::parse(&j.dump()).expect("reparses"), j);
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
    }
    // every digit survives, whole numbers print as integers
    assert_eq!(Json::Num(0.1 + 0.2).dump(), "0.30000000000000004");
    assert_eq!(Json::Num(3.0).dump(), "3");
}

#[test]
fn referee_is_direct_host_on_the_sampled_targets() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let snap = g5ic::plummer_sphere(300, &mut rng);
    let eps = 0.02;
    let full = DirectHost::new(eps).try_compute(&snap.pos, &snap.mass).expect("direct");
    let targets = sample_targets(snap.len(), 64, 11);
    assert_eq!(targets.len(), 64);
    assert!(targets.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
    assert_eq!(targets, sample_targets(snap.len(), 64, 11), "deterministic");
    assert_eq!(sample_targets(10, 64, 11), (0..10).collect::<Vec<_>>());
    let got = direct_at(&snap.pos, &snap.mass, eps, &targets);
    for (&i, f) in targets.iter().zip(&got) {
        assert_eq!(f.acc, full.acc[i], "target {i} acceleration bit-identical");
        assert_eq!(f.pot, full.pot[i], "target {i} potential bit-identical");
    }
    let (err, norm) = err_sums(&full.acc, &targets, &got);
    assert_eq!(err, 0.0);
    let want: f64 = targets.iter().map(|&i| full.acc[i].norm2()).sum();
    assert_eq!(norm, want);
    // a uniform 1% error on every target reads as 1%
    let off: Vec<_> = full.acc.iter().map(|a| *a * 1.01).collect();
    let (err, norm) = err_sums(&off, &targets, &got);
    assert!(((err / norm).sqrt() - 0.01).abs() < 1e-9);
}

#[test]
fn state_digest_sees_every_bit() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    let snap = g5ic::plummer_sphere(50, &mut rng);
    let d = state_digest(&snap, 1.0);
    assert_eq!(d, state_digest(&snap.clone(), 1.0));
    let mut moved = snap.clone();
    moved.vel[17].y = f64::from_bits(moved.vel[17].y.to_bits() ^ 1);
    assert_ne!(state_digest(&moved, 1.0), d);
    assert_ne!(state_digest(&snap, 1.0 + f64::EPSILON), d);
}

#[test]
fn trace_spans_nest_and_export_as_chrome_events() {
    let mut t = Tracer::new("run-1", true);
    let outer = t.begin("step");
    let inner = t.begin("core.force");
    t.end(inner);
    let now = std::time::Instant::now();
    t.record("job", now, now, None, true);
    t.end(outer);
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(outer));
    assert_eq!(spans[2].parent, Some(outer));
    assert!(spans[0].end_us >= spans[1].end_us && spans[1].end_us >= spans[1].start_us);

    let j = t.chrome_json();
    let events = j.get("traceEvents").and_then(Json::as_array).expect("events");
    assert_eq!(events.len(), 4, "two complete events plus an async begin/end pair");
    let x = &events[1];
    assert_eq!(x.get("ph").and_then(Json::as_str), Some("X"));
    let args = x.get("args").expect("args");
    assert_eq!(args.get("parent").and_then(Json::as_f64), Some(outer as f64));
    assert_eq!(args.get("run_id").and_then(Json::as_str), Some("run-1"));
    assert!(t.layer_table().contains("core.force"));

    let mut off = Tracer::new("run-2", false);
    let s = off.begin("x");
    off.end(s);
    assert!(off.spans().is_empty());
}
