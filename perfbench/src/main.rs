//! `g5-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table, then one JSON line with `correct`,
//! `attempted`, `failed` and every metric of the run's level. Writes the
//! full result record (and, traced, a Chrome trace plus a per-layer
//! table) under `.perfbench_run/`. Exits 1 when a check fails.

use g5_perfbench::catalog::{self, Level};
use g5_perfbench::context::Context;
use g5_perfbench::report::{Recorder, Results};
use g5_perfbench::stats::Outcomes;
use g5_perfbench::trace::Tracer;
use g5_perfbench::{fleet, sim, RunOpts};
use std::path::Path;
use std::process::ExitCode;

const OUT_DIR: &str = ".perfbench_run";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: g5-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        catalog::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<RunOpts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let dir = Path::new(OUT_DIR).join(format!(
        "{workload}-s{seed}-t{}-{}",
        trace as u8,
        std::process::id()
    ));
    Ok(RunOpts { workload, seed, seconds, trace, dir })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let tag = format!("{}-s{}-t{}", opts.workload, opts.seed, opts.trace as u8);
    let mut tracer = Tracer::new(&tag, opts.trace);
    let mut rec = Recorder::default();
    let mut outcomes = Outcomes::default();
    let mut digests = Vec::new();
    let context = Context::current(opts.seed);
    let ran = std::fs::create_dir_all(&opts.dir).and_then(|()| match opts.workload.as_str() {
        catalog::CDM => {
            sim::cdm_exact_k1().run(&opts, &mut rec, &mut tracer, &mut outcomes, &mut digests)
        }
        catalog::LNS => {
            sim::hernquist_lns_k2().run(&opts, &mut rec, &mut tracer, &mut outcomes, &mut digests)
        }
        _ => fleet::serve_fleet().run(&opts, &mut rec, &mut tracer, &mut outcomes, &mut digests),
    });
    let _ = std::fs::remove_dir_all(&opts.dir);
    if let Err(e) = ran {
        eprintln!("{tag}: run failed: {e}");
        return ExitCode::from(1);
    }

    let level = if opts.trace { Level::Layer } else { Level::EndToEnd };
    let results = Results {
        workload: opts.workload.clone(),
        trace: opts.trace,
        seconds: opts.seconds,
        context,
        metrics: rec.values(level, &opts.workload),
        checks: rec.checks().to_vec(),
        outcomes,
        digests,
    };
    let out = Path::new(OUT_DIR);
    let written = std::fs::write(out.join(format!("results-{tag}.json")), results.to_json().dump())
        .and_then(|()| {
            if !opts.trace {
                return Ok(());
            }
            std::fs::write(out.join(format!("trace-{tag}.json")), tracer.chrome_json().dump())?;
            std::fs::write(out.join(format!("layers-{tag}.txt")), tracer.layer_table())
        });
    if let Err(e) = written {
        eprintln!("{tag}: cannot write results: {e}");
        return ExitCode::from(1);
    }

    println!(
        "{tag} ({} on {} cores, lane path {}):",
        results.context.commit, results.context.nproc, results.context.lane_path
    );
    for c in &results.checks {
        println!("  check {:<22} {}  {}", c.name, if c.pass { "pass" } else { "FAIL" }, c.detail);
    }
    for v in &results.metrics {
        let kind = if v.applies { v.kind.as_str() } else { "n/a" };
        println!("  {:<34} {:>14.6e} {:<6} {:<9} {}", v.name, v.value, v.unit, kind, v.note);
    }
    println!("{}", results.summary_line());
    if results.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
