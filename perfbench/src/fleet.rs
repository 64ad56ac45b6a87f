//! The service workload: a seeded fleet of small tenant jobs through
//! `g5serve`, in two phases.
//!
//! * **burst** — the whole burst fleet is queued at t0 (a closed
//!   backlog, like a parameter sweep); gives `jobs_per_s`.
//! * **paced** — open-loop arrivals at one fixed rate well below the
//!   burst capacity, each job timed from its due time; gives the
//!   turnaround percentiles.
//!
//! Every job must complete, and four spot-checked jobs of each tenant
//! class must end byte-identical to an uninterrupted `Simulation` of
//! their spec.

use crate::catalog;
use crate::context::peak_rss_mb;
use crate::ladder::{summarize, Ladder, LadderConfig};
use crate::referee::{direct_at, err_sums, state_digest};
use crate::report::Recorder;
use crate::sim::set_tail;
use crate::stats::{median, Outcomes};
use crate::timed::{device_delta, Backend, DeviceWork, Timed};
use crate::trace::{SpanId, Tracer};
use crate::RunOpts;
use g5serve::{job_dir_name, JobEvent, JobId, JobSpec, Server, ServerConfig};
use grape5::{splitmix, ArithMode, FaultConfig};
use std::path::Path;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};
use treegrape::checkpoint::latest_for_job;
use treegrape::{snapshot_io, BackendSpec, Checkpointer, ForceBackend, Simulation};

/// Fleet shape and envelopes.
#[derive(Debug, Clone, Copy)]
pub struct FleetWorkload {
    /// Jobs queued at t0.
    pub burst_jobs: u64,
    /// Paced arrivals per second.
    pub paced_rate: f64,
    /// Share of the run's seconds given to the paced phase.
    pub paced_share: f64,
    /// Worker threads.
    pub workers: usize,
    /// Scheduling quantum in steps.
    pub quantum: u64,
    /// `Server::open` samples: fresh directories for `serve.open_s`,
    /// and re-opens of the finished burst directory (ledger replay of
    /// the whole burst) for `setup_s`.
    pub open_samples: usize,
    /// Largest acceptable |energy drift| of any job.
    pub drift_envelope: f64,
    /// Largest acceptable pooled `force_err_rms` of the spot checks.
    pub force_err_envelope: f64,
}

/// The fleet this benchmark measures.
pub fn serve_fleet() -> FleetWorkload {
    FleetWorkload {
        burst_jobs: 160,
        paced_rate: 8.0,
        paced_share: 0.84,
        workers: 2,
        quantum: 8,
        open_samples: 5,
        drift_envelope: 0.05,
        force_err_envelope: 0.02,
    }
}

/// A phase that has not finished by now has hung; the run fails rather
/// than overrun its three minutes.
const PHASE_LIMIT: Duration = Duration::from_secs(75);

/// Seeds of the fault storm (per-job streams derive from it).
const STORM_SEED: u64 = 0x5707;

/// Tenant `j` of the fleet drawn from `seed`: N 96–288, Plummer and
/// Hernquist alternating, every fifth job in LNS arithmetic, every
/// fourth under a transient and j-memory fault storm, every sixteenth
/// on a two-shard cluster; 8–20 steps, a checkpoint every 4. The mix is
/// a fixed cycle, so every seed asks for the same work; the seed draws
/// the initial conditions, the fault streams and the arrival jitter.
pub fn tenant(j: u64, seed: u64) -> JobSpec {
    let n = 96 + 16 * (j % 13) as usize;
    let steps = 8 + 4 * (j % 4);
    let ic_seed = splitmix(seed, j);
    let mut spec = if j.is_multiple_of(2) {
        JobSpec::plummer(n, ic_seed, steps)
    } else {
        JobSpec::hernquist(n, ic_seed, steps)
    };
    spec.checkpoint_every = 4;
    spec.retain = 2;
    if j % 5 == 2 {
        spec.backend.mode = ArithMode::Lns;
    }
    if j.is_multiple_of(4) {
        let storm = FaultConfig {
            transient_rate: 0.05,
            jmem_corrupt_rate: 0.02,
            ..FaultConfig::none(splitmix(seed ^ STORM_SEED, j))
        };
        spec.backend = spec.backend.with_fault(storm);
    }
    if j % 16 == 15 {
        spec.backend = BackendSpec::cluster(spec.backend.eps, 2);
    }
    spec
}

/// The spot-checked burst jobs: the first four of each tenant class
/// (faulted, LNS, cluster, plain Plummer, plain Hernquist).
fn spot_jobs(burst: u64) -> Vec<u64> {
    let plain = |j: u64| !j.is_multiple_of(4) && j % 5 != 2 && j % 16 != 15;
    let classes: [&dyn Fn(u64) -> bool; 5] = [
        &|j| j.is_multiple_of(4),
        &|j| j % 5 == 2 && !j.is_multiple_of(4),
        &|j| j % 16 == 15,
        &|j| j.is_multiple_of(2) && plain(j),
        &|j| j % 2 == 1 && plain(j),
    ];
    let mut jobs: Vec<u64> =
        classes.iter().flat_map(|class| (0..burst).filter(|&j| class(j)).take(4)).collect();
    jobs.sort_unstable();
    jobs
}

/// One job as the client side observed it.
struct Track {
    id: JobId,
    spec: JobSpec,
    due: Instant,
    submitted: Instant,
    rx: Receiver<JobEvent>,
    started: Option<Instant>,
    slice_steps: u64,
    done: Option<Instant>,
    ok: bool,
    checkpoints: u64,
}

impl Track {
    /// Drain pending events; per-slice step times go to `steps`.
    fn drain(&mut self, steps: &mut Vec<f64>) {
        let now = Instant::now();
        for ev in self.rx.try_iter() {
            match ev {
                JobEvent::Started { .. } => {
                    self.started.get_or_insert(now);
                    self.slice_steps = 0;
                }
                JobEvent::Step { .. } => self.slice_steps += 1,
                // the slice's own step-loop wall (Simulation phase
                // timers, resume evaluation included) per step it
                // integrated
                JobEvent::Timers(t) if self.slice_steps > 0 => {
                    steps.push(t.step_wall_s / self.slice_steps as f64);
                }
                JobEvent::Checkpointed { .. } => self.checkpoints += 1,
                JobEvent::Completed { .. } => {
                    self.done = Some(now);
                    self.ok = true;
                }
                JobEvent::Failed(e) => {
                    eprintln!("job {} failed: {e}", self.id);
                    self.done = Some(now);
                    self.ok = false;
                }
                _ => {}
            }
        }
    }
}

/// What one phase measured.
struct Phase {
    tracks: Vec<Track>,
    wall_s: f64,
    submit_us: Vec<f64>,
    lag_s: Vec<f64>,
    busy_s: f64,
    preemptions: u64,
    resumes: u64,
    useful_interactions: f64,
    retries: u64,
    evaluations: u64,
    max_drift: f64,
}

fn open_server(
    dir: &Path,
    w: &FleetWorkload,
    opens: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> std::io::Result<Server> {
    let sp = tracer.begin("serve.open");
    let t = Instant::now();
    let cfg = ServerConfig {
        workers: w.workers,
        quantum: w.quantum,
        jmem_budget: 1 << 16,
        resident_budget: 1 << 16,
        ..ServerConfig::new(dir)
    };
    let server = Server::open(cfg)?;
    opens.push(t.elapsed().as_secs_f64());
    tracer.end(sp);
    Ok(server)
}

/// Submit `specs` at their due offsets (seconds after t0; all zero for
/// a burst) and follow every job to its terminal event.
fn run_phase(
    server: &Server,
    specs: &[JobSpec],
    due_s: &[f64],
    steps: &mut Vec<f64>,
    tracer: &mut Tracer,
    phase_span: SpanId,
) -> std::io::Result<Phase> {
    let t0 = Instant::now();
    let mut tracks: Vec<Track> = Vec::with_capacity(specs.len());
    let mut submit_us = Vec::with_capacity(specs.len());
    let mut lag_s = Vec::with_capacity(specs.len());
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < specs.len() && now >= t0 + Duration::from_secs_f64(due_s[next]) {
            let due = t0 + Duration::from_secs_f64(due_s[next]);
            let t = Instant::now();
            let id = server.submit(specs[next])?;
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            let rx = server.subscribe(id).expect("just submitted");
            lag_s.push(t.saturating_duration_since(due).as_secs_f64());
            tracks.push(Track {
                id,
                spec: specs[next],
                due,
                submitted: t,
                rx,
                started: None,
                slice_steps: 0,
                done: None,
                ok: false,
                checkpoints: 0,
            });
            next += 1;
        }
        let mut live = 0;
        for tr in tracks.iter_mut().filter(|t| t.done.is_none()) {
            tr.drain(steps);
            if tr.done.is_none() {
                live += 1;
            }
        }
        if next == specs.len() && live == 0 {
            break;
        }
        if t0.elapsed() > PHASE_LIMIT {
            return Err(std::io::Error::other(format!(
                "{live} jobs still unfinished after {PHASE_LIMIT:?}"
            )));
        }
        let until_due = if next < specs.len() {
            (t0 + Duration::from_secs_f64(due_s[next])).saturating_duration_since(Instant::now())
        } else {
            Duration::MAX
        };
        std::thread::sleep(until_due.min(Duration::from_millis(1)));
    }
    let wall_s = tracks.iter().filter_map(|t| t.done).max().map_or(0.0, |d| (d - t0).as_secs_f64());
    for tr in &tracks {
        if let Some(done) = tr.done {
            tracer.record("job", tr.submitted, done, Some(phase_span), true);
        }
    }

    let mut p = Phase {
        tracks,
        wall_s,
        submit_us,
        lag_s,
        busy_s: 0.0,
        preemptions: 0,
        resumes: 0,
        useful_interactions: 0.0,
        retries: 0,
        evaluations: 0,
        max_drift: 0.0,
    };
    for st in server.statuses() {
        p.busy_s += st.busy_s;
        p.preemptions += st.preemptions;
        p.resumes += st.resumes;
        p.retries += st.recovery.retries;
        // every slice re-evaluates forces once on resume; only the
        // first slice's initial evaluation is useful work
        let evals = st.steps_done + st.resumes;
        p.evaluations += evals;
        p.useful_interactions +=
            st.interactions as f64 * (st.steps_done + 1) as f64 / evals.max(1) as f64;
        p.max_drift = p.max_drift.max(st.drift.abs());
    }
    Ok(p)
}

/// Replay a finished job's final state through the layers the service
/// uses per slice: `BackendSpec::build`, a few timed steps, a checkpoint
/// write and the restart read.
struct Replay {
    build_s: f64,
    force_s: Vec<f64>,
    integrate_s: Vec<f64>,
    step_wall_s: Vec<f64>,
    ckpt_write_s: f64,
    ckpt_bytes: u64,
    ckpt_read_s: f64,
    device: crate::timed::DeviceDelta,
}

fn replay(
    spec: &JobSpec,
    snap: g5ic::Snapshot,
    time: f64,
    dir: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<Replay> {
    const STEPS: usize = 4;
    let sp = tracer.begin("core.backend_build");
    let t = Instant::now();
    let backend = spec.backend.build();
    let build_s = t.elapsed().as_secs_f64();
    tracer.end(sp);
    let mut sim = Simulation::try_new(snap, Timed::new(backend), time)
        .map_err(|e| std::io::Error::other(format!("replay initial force failed: {e}")))?;
    let dev0 = DeviceWork::of(sim.backend().any());
    let (mut force_s, mut integrate_s, mut step_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..STEPS {
        let step = tracer.begin("step");
        let t = Instant::now();
        sim.try_step(spec.dt)
            .map_err(|e| std::io::Error::other(format!("replay step failed: {e}")))?;
        let wall = t.elapsed().as_secs_f64();
        let (a, b) = sim.backend().last_force().expect("timed backend");
        tracer.record("core.force", a, b, Some(step), false);
        tracer.end(step);
        let f = (b - a).as_secs_f64();
        force_s.push(f);
        integrate_s.push(wall - f);
        step_wall_s.push(wall);
    }
    let device =
        device_delta(&spec.backend, &dev0, &DeviceWork::of(sim.backend().any()), STEPS as u64);
    let job = "replay";
    let ck = Checkpointer::new(dir, 1)?.with_job_id(job);
    let sp = tracer.begin("core.checkpoint_write");
    let t = Instant::now();
    let (state, time, n) = (sim.state.clone(), sim.time, sim.steps);
    let manifest = sim.backend_mut().any_mut().checkpoint(&ck, &state, time, n)?;
    let ckpt_write_s = t.elapsed().as_secs_f64();
    tracer.end(sp);
    let ckpt_bytes = std::fs::metadata(&manifest)?.len()
        + std::fs::metadata(manifest.with_extension("snap"))?.len();
    let sp = tracer.begin("core.checkpoint_read");
    let t = Instant::now();
    let back = latest_for_job(dir, job)?.map(|c| c.load_snapshot()).transpose()?;
    let ckpt_read_s = t.elapsed().as_secs_f64();
    tracer.end(sp);
    if back.is_none() {
        return Err(std::io::Error::other("replay checkpoint not found"));
    }
    std::fs::remove_dir_all(dir)?;
    Ok(Replay {
        build_s,
        force_s,
        integrate_s,
        step_wall_s,
        ckpt_write_s,
        ckpt_bytes,
        ckpt_read_s,
        device,
    })
}

/// What the spot checks found.
struct SpotChecks {
    jobs: Vec<u64>,
    identical: usize,
    /// Each spot job's spec and final state.
    finals: Vec<(JobSpec, g5ic::Snapshot, f64)>,
}

/// Re-run each spot-checked burst job as one uninterrupted `Simulation`
/// of its spec: the served final must match it byte for byte.
fn spot_check(
    burst: &Phase,
    burst_dir: &Path,
    dir: &Path,
    jobs: Vec<u64>,
) -> std::io::Result<SpotChecks> {
    let mut out = SpotChecks { jobs, identical: 0, finals: Vec::new() };
    for &j in &out.jobs {
        let tr = &burst.tracks[j as usize];
        let served = std::fs::read(burst_dir.join(job_dir_name(tr.id)).join("final.g5snap"))?;
        let spec = tr.spec;
        let failed = |e| std::io::Error::other(format!("reference run of job {j} failed: {e}"));
        let mut sim =
            Simulation::try_new(spec.make_ic(), spec.backend.build(), 0.0).map_err(failed)?;
        sim.try_run(spec.dt, spec.steps).map_err(failed)?;
        let ref_path = dir.join(format!("ref-{j}.g5snap"));
        snapshot_io::save(&ref_path, &sim.state, sim.time)?;
        if std::fs::read(&ref_path)? == served {
            out.identical += 1;
        } else {
            eprintln!("job {j}: served final differs from its uninterrupted reference");
        }
        out.finals.push((spec, sim.state.clone(), sim.time));
    }
    Ok(out)
}

/// The force referee over every burst job's served final state: each
/// job's RMS force error relative to its RMS force (its spec's backend,
/// fault injection off, against f64 direct summation), combined as the
/// root mean square over jobs. Returns that and the particles checked.
fn fleet_force_err(burst: &Phase, burst_dir: &Path) -> std::io::Result<(f64, usize)> {
    let (mut sum, mut particles) = (0.0, 0);
    for tr in &burst.tracks {
        let (snap, _) =
            snapshot_io::load(&burst_dir.join(job_dir_name(tr.id)).join("final.g5snap"))?;
        let mut backend = BackendSpec { fault: None, ..tr.spec.backend }.build();
        let forces = backend
            .try_compute(&snap.pos, &snap.mass)
            .map_err(|e| std::io::Error::other(format!("referee force of job {}: {e}", tr.id)))?;
        let targets: Vec<usize> = (0..snap.len()).collect();
        let reference = direct_at(&snap.pos, &snap.mass, tr.spec.backend.eps, &targets);
        let (err, norm) = err_sums(&forces.acc, &targets, &reference);
        sum += err / norm;
        particles += targets.len();
    }
    Ok(((sum / burst.tracks.len() as f64).sqrt(), particles))
}

impl FleetWorkload {
    /// Run both phases and the checks, then record the end-to-end
    /// metrics, or (traced) the per-layer ones.
    pub fn run(
        &self,
        opts: &RunOpts,
        rec: &mut Recorder,
        tracer: &mut Tracer,
        outcomes: &mut Outcomes,
        digests: &mut Vec<(String, String)>,
    ) -> std::io::Result<()> {
        let seed = opts.seed;
        let t_run = Instant::now();
        let mut fresh_opens = Vec::new();
        for k in 0..self.open_samples {
            open_server(&opts.dir.join(format!("open-{k}")), self, &mut fresh_opens, tracer)?
                .shutdown();
        }
        let mut step_samples = Vec::new();

        // ---- burst ----
        let burst_specs: Vec<JobSpec> = (0..self.burst_jobs).map(|j| tenant(j, seed)).collect();
        let burst_dir = opts.dir.join("burst");
        let server = open_server(&burst_dir, self, &mut Vec::new(), tracer)?;
        let sp = tracer.begin("fleet.burst");
        let zeros = vec![0.0; burst_specs.len()];
        let burst = run_phase(&server, &burst_specs, &zeros, &mut step_samples, tracer, sp)?;
        tracer.end(sp);
        server.shutdown();
        eprintln!(
            "{}: burst {} jobs in {:.2} s ({} preemptions)",
            catalog::FLEET,
            burst.tracks.len(),
            burst.wall_s,
            burst.preemptions
        );
        // the service's start-up: open over a populated state directory,
        // replaying the ledger of the whole burst
        let mut reopens = Vec::new();
        for _ in 0..self.open_samples {
            open_server(&burst_dir, self, &mut reopens, tracer)?.shutdown();
        }

        // ---- paced ----
        let paced_n = ((opts.seconds * self.paced_share * self.paced_rate).round() as u64).max(20);
        let paced_specs: Vec<JobSpec> =
            (0..paced_n).map(|k| tenant(self.burst_jobs + k, seed)).collect();
        // one fixed rate, each arrival jittered within its own slot
        let period = 1.0 / self.paced_rate;
        let due_s: Vec<f64> = (0..paced_n)
            .map(|k| {
                let u = (splitmix(seed ^ 0xa77, k) >> 11) as f64 / (1u64 << 53) as f64;
                (k as f64 + 0.5 * u) * period
            })
            .collect();
        let server = open_server(&opts.dir.join("paced"), self, &mut Vec::new(), tracer)?;
        let sp = tracer.begin("fleet.paced");
        let paced = run_phase(&server, &paced_specs, &due_s, &mut step_samples, tracer, sp)?;
        tracer.end(sp);
        server.shutdown();
        let fleet_wall = t_run.elapsed().as_secs_f64();
        eprintln!(
            "{}: paced {} jobs at {}/s over {:.2} s",
            catalog::FLEET,
            paced.tracks.len(),
            self.paced_rate,
            paced.wall_s
        );

        // ---- correctness ----
        let mut jobs = Outcomes::default();
        for t in burst.tracks.iter().chain(&paced.tracks) {
            jobs.record(t.ok);
        }
        *outcomes = outcomes.merged(jobs);
        rec.check(
            "every-job-completes",
            jobs.failed == 0,
            format!("{} of {} jobs completed", jobs.attempted - jobs.failed, jobs.attempted),
        );
        let max_drift = burst.max_drift.max(paced.max_drift);
        rec.check(
            "energy-drift",
            max_drift <= self.drift_envelope,
            format!(
                "max |dE/E0| over every job {max_drift:.3e} (envelope {:.1e})",
                self.drift_envelope
            ),
        );
        let spots = spot_check(&burst, &burst_dir, &opts.dir, spot_jobs(self.burst_jobs))?;
        rec.check(
            "byte-identity",
            spots.identical == spots.jobs.len(),
            format!(
                "{}/{} spot-checked finals (jobs {:?}) byte-identical to uninterrupted runs",
                spots.identical,
                spots.jobs.len(),
                spots.jobs
            ),
        );
        let (force_err, particles) = fleet_force_err(&burst, &burst_dir)?;
        rec.check(
            "force-referee",
            force_err <= self.force_err_envelope,
            format!(
                "rms over {} burst jobs of each final state's rms force error relative to its rms \
                 force ({particles} particles) vs f64 direct summation (envelope {:.1e})",
                burst.tracks.len(),
                self.force_err_envelope
            ),
        );
        for (j, (_, snap, time)) in spots.jobs.iter().zip(&spots.finals) {
            digests.push((format!("job{j}_final"), state_digest(snap, *time)));
        }

        if !opts.trace {
            rec.set_noted("setup_s", median(&reopens), "Server::open replaying the burst's ledger");
            set_tail(rec, "step_s.p50", &step_samples, 0.50);
            set_tail(rec, "step_s.p90", &step_samples, 0.90);
            rec.set("interactions_per_s", burst.useful_interactions / burst.wall_s);
            rec.set("force_err_rms", force_err);
            rec.set("peak_rss_mb", peak_rss_mb());
            rec.set("completed_frac", jobs.completed_frac());
            rec.set("jobs_per_s", burst.tracks.len() as f64 / burst.wall_s);
            let turnaround: Vec<f64> = paced
                .tracks
                .iter()
                .filter_map(|t| t.done.map(|d| (d - t.due).as_secs_f64()))
                .collect();
            set_tail(rec, "turnaround_s.p50", &turnaround, 0.50);
            set_tail(rec, "turnaround_s.p95", &turnaround, 0.95);
            return Ok(());
        }

        // ---- per layer: the service ----
        let submits: Vec<f64> = burst.submit_us.iter().chain(&paced.submit_us).copied().collect();
        rec.set("serve.submit_us", median(&submits));
        rec.set_noted("serve.open_s", median(&fresh_opens), "Server::open on an empty directory");
        let waits: Vec<f64> = paced
            .tracks
            .iter()
            .filter_map(|t| t.started.map(|s| (s - t.due).as_secs_f64()))
            .collect();
        rec.set_noted(
            "serve.queue_wait_s.p50",
            median(&waits),
            &format!("paced phase, {} of {} jobs seen starting", waits.len(), paced.tracks.len()),
        );
        rec.set("serve.busy_frac", burst.busy_s / (self.workers as f64 * burst.wall_s));
        rec.set("serve.preemptions", (burst.preemptions + paced.preemptions) as f64);
        rec.set("serve.resumes", (burst.resumes + paced.resumes) as f64);
        let ckpts: u64 = burst.tracks.iter().chain(&paced.tracks).map(|t| t.checkpoints).sum();
        rec.set("serve.checkpoints", ckpts as f64);
        rec.set(
            "serve.generator_lag_s",
            paced.lag_s.iter().sum::<f64>() / paced.lag_s.len() as f64,
        );
        rec.set_noted(
            "grape5.retry_frac",
            (burst.retries + paced.retries) as f64 / (burst.evaluations + paced.evaluations) as f64,
            "retries per force evaluation across the fleet",
        );

        // ---- per layer: the ladder and a replay on each spot final ----
        let (mut ic_s, mut replays, mut samples, mut attributed) = (vec![], vec![], vec![], vec![]);
        for (k, (spec, snap, time)) in spots.finals.into_iter().enumerate() {
            let sp = tracer.begin("ic.generate");
            let t = Instant::now();
            std::hint::black_box(spec.make_ic());
            ic_s.push(t.elapsed().as_secs_f64());
            tracer.end(sp);
            let mut ladder = Ladder::new(LadderConfig::from_spec(&spec.backend));
            let job_samples: Vec<_> =
                (0..2).map(|_| ladder.sample(&snap.pos, &snap.mass, tracer)).collect();
            let r = replay(&spec, snap, time, &opts.dir.join(format!("replay-{k}")), tracer)?;
            let critical = summarize(&job_samples).critical_s;
            attributed.push((critical + median(&r.integrate_s)) / median(&r.step_wall_s));
            samples.extend(job_samples);
            replays.push(r);
        }
        rec.set("ic.generate_s", median(&ic_s));
        summarize(&samples).record(rec);
        let med = |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
        rec.set("core.backend_build_s", med(&|r| r.build_s));
        rec.set("core.force_s", med(&|r| median(&r.force_s)));
        rec.set("core.integrate_s", med(&|r| median(&r.integrate_s)));
        rec.set("core.checkpoint_write_s", med(&|r| r.ckpt_write_s));
        rec.set("core.checkpoint_bytes", med(&|r| r.ckpt_bytes as f64));
        rec.set("core.checkpoint_read_s", med(&|r| r.ckpt_read_s));
        rec.set("grape5.calls_per_step", med(&|r| r.device.calls_per_eval));
        rec.set("grape5.interactions_per_step", med(&|r| r.device.interactions_per_eval));
        rec.set("grape5.ops_per_byte", med(&|r| r.device.ops_per_byte));
        rec.set("grape5.modeled_step_s", med(&|r| r.device.modeled_eval_s));
        rec.set("trace.attributed_frac", median(&attributed));
        rec.set_noted(
            "trace.overhead_frac",
            tracer.self_s() / fleet_wall,
            "span bookkeeping time over the fleet's wall time",
        );
        Ok(())
    }
}
