//! The simulation workloads: one fixed-length simulation job, repeated
//! from the same initial conditions for as long as the run measures.
//!
//! A *round* is one job: set up (initial conditions, `BackendSpec::build`,
//! the initial force evaluation), integrate `steps_per_round` steps
//! with a checkpoint through `Checkpointer` every `checkpoint_every`
//! steps, then read the newest checkpoint back. Rounds cycle over a few
//! initial-condition realizations drawn from the seed, and every round
//! of one realization must end in the bit-identical state with
//! identical interaction counts. In a traced run, half the steps of every round are traced
//! (a timing wrapper around the backend, spans, and the per-layer
//! ladder after sampled steps) and their neighbours are not, which
//! yields the tracing overhead.

use crate::catalog;
use crate::context::peak_rss_mb;
use crate::ladder::{summarize, Ladder, LadderConfig, LadderSample};
use crate::referee::{direct_at, err_sums, sample_targets, state_digest};
use crate::report::Recorder;
use crate::stats::{median, tail, Outcomes};
use crate::timed::{device_delta, Backend, DeviceDelta, DeviceWork, Timed};
use crate::trace::Tracer;
use crate::RunOpts;
use g5ic::{CosmologicalIc, Snapshot, ZeldovichConfig};
use g5util::vec3::Vec3;
use grape5::{splitmix, ArithMode};
use rand::SeedableRng;
use std::time::Instant;
use treegrape::checkpoint::latest_for_job;
use treegrape::{BackendSpec, Checkpointer, Diagnostics, ForceBackend, Simulation};

/// Initial-condition family of a simulation workload.
#[derive(Debug, Clone, Copy)]
pub enum IcKind {
    /// Standard-CDM sphere (Zel'dovich), stepped on the paper's
    /// 999-step schedule uniform in the scale factor.
    Cdm {
        /// Target particle count (the generator rounds up).
        target: usize,
    },
    /// Truncated Hernquist halo, fixed timestep.
    Hernquist {
        /// Particles.
        n: usize,
        /// Truncation radius.
        r_max: f64,
        /// Timestep.
        dt: f64,
    },
}

/// One simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Initial conditions.
    pub ic: IcKind,
    /// The backend, built through `BackendSpec::build`.
    pub spec: BackendSpec,
    /// Independent initial-condition realizations drawn from the seed;
    /// round `r` runs realization `r % realizations`, so a run's numbers
    /// average over them instead of hanging on one draw.
    pub realizations: u64,
    /// Steps per round (one job).
    pub steps_per_round: u64,
    /// Checkpoint cadence in steps.
    pub checkpoint_every: u64,
    /// Steps an untraced run measures at least while within
    /// `OVERRUN` times its budget (a traced run measures at least two
    /// rounds).
    pub min_steps: u64,
    /// Targets the f64 direct-summation referee samples.
    pub referee_targets: usize,
    /// Further realizations the referee checks at their initial state
    /// only (untimed), to average the force error over more draws.
    pub referee_extra: u64,
    /// Largest acceptable `force_err_rms`.
    pub force_err_envelope: f64,
    /// Largest acceptable energy drift over one round, relative to the
    /// initial potential energy.
    pub drift_envelope: f64,
    /// Ladder samples per round of a traced run.
    pub ladder_samples: u64,
}

/// The paper's own system: a standard-CDM sphere (N = 17,256), θ 0.75,
/// n_crit 2000, on one emulated GRAPE-5 (the paper's two boards) in
/// exact arithmetic, checkpointing every 4th step.
pub fn cdm_exact_k1() -> SimWorkload {
    SimWorkload {
        name: catalog::CDM,
        ic: IcKind::Cdm { target: 16_384 },
        spec: BackendSpec { boards: 2, ..BackendSpec::tree(0.005) },
        realizations: 1,
        steps_per_round: 20,
        checkpoint_every: 4,
        min_steps: 100,
        referee_targets: 2048,
        referee_extra: 0,
        force_err_envelope: 0.02,
        drift_envelope: 5e-3,
        ladder_samples: 2,
    }
}

/// The paper's LNS arithmetic on a two-shard cluster: a cusped
/// Hernquist halo, n_crit 256, one single-board device per shard.
pub fn hernquist_lns_k2() -> SimWorkload {
    SimWorkload {
        name: catalog::LNS,
        ic: IcKind::Hernquist { n: 1536, r_max: 10.0, dt: 0.01 },
        spec: BackendSpec { mode: ArithMode::Lns, n_crit: 256, ..BackendSpec::cluster(0.05, 2) },
        realizations: 4,
        steps_per_round: 20,
        checkpoint_every: 4,
        min_steps: 100,
        referee_targets: 1536,
        referee_extra: 12,
        force_err_envelope: 0.03,
        drift_envelope: 1e-2,
        ladder_samples: 2,
    }
}

struct Initial {
    snap: Snapshot,
    t0: f64,
    dts: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct StepRec {
    /// `try_step` plus any due checkpoint.
    wall_s: f64,
    /// `try_step` alone.
    step_s: f64,
    /// Timed and spanned (traced runs only).
    traced: bool,
    /// The step right after a ladder sample.
    after_ladder: bool,
    /// The wrapped `try_compute` (traced rounds).
    force_s: Option<f64>,
    /// Checkpoint write seconds and bytes, when one was due.
    ckpt: Option<(f64, u64)>,
}

struct RoundOut {
    realization: u64,
    setup_s: f64,
    ic_s: f64,
    build_s: f64,
    steps: Vec<StepRec>,
    failed_steps: u64,
    step_interactions: u64,
    read_s: f64,
    wall_s: f64,
    digest: String,
    interactions: u64,
    drift: f64,
    ckpt_roundtrip: Result<(), String>,
    device: DeviceDelta,
    ladder: Vec<LadderSample>,
    /// Positions, masses and backend accelerations at every checkpoint
    /// step of a realization's first round — the states the force
    /// referee checks.
    referee_states: Vec<(Vec<Vec3>, Vec<f64>, Vec<Vec3>)>,
}

impl SimWorkload {
    fn initial(&self, seed: u64, realization: u64) -> Initial {
        let ic_seed = splitmix(seed, 0x5eed + realization);
        match self.ic {
            IcKind::Cdm { target } => {
                let ic = CosmologicalIc::generate(&ZeldovichConfig::for_target_particles(
                    target, ic_seed,
                ));
                let (t0, _) = ic.units.run_span();
                let schedule = ic.units.a_uniform_schedule(999);
                let mut dts = Vec::with_capacity(self.steps_per_round as usize);
                let mut t = t0;
                for &next in schedule.iter().take(self.steps_per_round as usize) {
                    dts.push(next - t);
                    t = next;
                }
                Initial { snap: ic.snapshot, t0, dts }
            }
            IcKind::Hernquist { n, r_max, dt } => {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(ic_seed);
                let snap = g5ic::hernquist_sphere(n, r_max, &mut rng);
                Initial { snap, t0: 0.0, dts: vec![dt; self.steps_per_round as usize] }
            }
        }
    }

    /// One round; `wrap` turns the built backend into the one the
    /// simulation drives (the timing wrapper in a traced round, which a
    /// ladder marks). In a traced round steps alternate: every other
    /// step is traced — timed force, spans, a ladder sample after some —
    /// and its neighbours run untraced, which gives the tracing overhead
    /// step against neighbouring step. Which parity is traced flips from
    /// round to round, so checkpoint steps and the steps after them land
    /// on both sides.
    fn round<B: Backend>(
        &self,
        r: usize,
        opts: &RunOpts,
        wrap: impl FnOnce(treegrape::AnyBackend) -> B,
        tracer: &mut Tracer,
        mut ladder: Option<&mut Ladder>,
    ) -> std::io::Result<RoundOut> {
        let traced_round = ladder.is_some();
        let mut off = Tracer::new(tracer.run_id(), false);
        let t_round = Instant::now();
        let round_span = tracer.begin("round");

        let setup_span = tracer.begin("setup");
        let t = Instant::now();
        let sp = tracer.begin("ic.generate");
        let realization = r as u64 % self.realizations;
        let init = self.initial(opts.seed, realization);
        tracer.end(sp);
        let ic_s = t.elapsed().as_secs_f64();
        let t_build = Instant::now();
        let sp = tracer.begin("core.backend_build");
        let backend = wrap(self.spec.build());
        tracer.end(sp);
        let build_s = t_build.elapsed().as_secs_f64();
        let sp = tracer.begin("core.init_force");
        let mut sim = Simulation::try_new(init.snap, backend, init.t0)
            .map_err(|e| std::io::Error::other(format!("initial force evaluation failed: {e}")))?;
        tracer.end(sp);
        let setup_s = t.elapsed().as_secs_f64();
        tracer.end(setup_span);

        let job = format!("round-{r}");
        let dir = opts.dir.join(&job);
        let ck =
            Checkpointer::new(&dir, self.checkpoint_every)?.with_retention(2).with_job_id(&job);
        let d0 = Diagnostics::measure(&sim.state, sim.pot());
        let inter0 = sim.tally().interactions;
        let dev0 = DeviceWork::of(sim.backend().any());
        let mut ladder_out = Vec::new();
        let mut steps: Vec<StepRec> = Vec::with_capacity(init.dts.len());
        let mut failed_steps = 0;
        let mut last_ckpt: Option<String> = None;
        let mut after_ladder = false;
        let mut referee_states = Vec::new();

        for (i, &dt) in init.dts.iter().enumerate() {
            let traced = traced_round && (i + r) % 2 == 1;
            sim.backend_mut().set_timing(traced);
            let tr: &mut Tracer = if traced { &mut *tracer } else { &mut off };
            let step_span = tr.begin("step");
            let t = Instant::now();
            let res = sim.try_step(dt);
            let step_s = t.elapsed().as_secs_f64();
            let force = sim.backend().last_force();
            if let Some((a, b)) = force {
                tr.record("core.force", a, b, Some(step_span), false);
            }
            if let Err(e) = res {
                eprintln!("{}: round {r} step {i} failed: {e}", self.name);
                failed_steps += (init.dts.len() - i) as u64;
                tr.end(step_span);
                break;
            }
            let mut ckpt = None;
            if sim.steps % self.checkpoint_every == 0 {
                let sp = tr.begin("core.checkpoint_write");
                let tc = Instant::now();
                let (state, time, n) = (sim.state.clone(), sim.time, sim.steps);
                let manifest = sim.backend_mut().any_mut().checkpoint(&ck, &state, time, n)?;
                let write_s = tc.elapsed().as_secs_f64();
                tr.end(sp);
                let bytes = std::fs::metadata(&manifest)?.len()
                    + std::fs::metadata(manifest.with_extension("snap"))?.len();
                ckpt = Some((write_s, bytes));
                last_ckpt = Some(state_digest(&state, time));
                if (r as u64) < self.realizations {
                    referee_states.push((state.pos, state.mass, sim.acc().to_vec()));
                }
            }
            let wall_s = t.elapsed().as_secs_f64();
            tr.end(step_span);
            steps.push(StepRec {
                wall_s,
                step_s,
                traced,
                after_ladder,
                force_s: force.map(|(a, b)| (b - a).as_secs_f64()),
                ckpt,
            });
            // sample the ladder after the traced one of steps 6–7, 14–15, ...
            after_ladder = false;
            if let Some(l) = ladder.as_deref_mut() {
                if traced && i % 8 >= 6 && (ladder_out.len() as u64) < self.ladder_samples {
                    ladder_out.push(l.sample(&sim.state.pos, &sim.state.mass, tracer));
                    after_ladder = true;
                }
            }
        }
        let step_interactions = sim.tally().interactions - inter0;
        let device = device_delta(
            &self.spec,
            &dev0,
            &DeviceWork::of(sim.backend().any()),
            steps.len() as u64,
        );

        // the restart path: newest manifest of this job, its snapshot
        let sp = tracer.begin("core.checkpoint_read");
        let t = Instant::now();
        let loaded = latest_for_job(&dir, &job)?.map(|c| c.load_snapshot()).transpose()?;
        let read_s = t.elapsed().as_secs_f64();
        tracer.end(sp);
        let ckpt_roundtrip = match (loaded, last_ckpt) {
            (Some((snap, time)), Some(want)) if state_digest(&snap, time) == want => Ok(()),
            (Some(_), Some(_)) => Err("checkpoint read back a different state".to_string()),
            (None, _) => Err("no checkpoint found".to_string()),
            (Some(_), None) => Err("checkpoint found but none written".to_string()),
        };
        std::fs::remove_dir_all(&dir)?;

        // normalized by |W0|: the CDM sphere starts with E0 ≈ 0 (Hubble
        // flow against self-gravity), where a drift relative to E0
        // would be ill-conditioned
        let drift = (sim.total_energy() - d0.total_energy) / d0.potential.abs();
        let digest = state_digest(&sim.state, sim.time);
        let interactions = sim.tally().interactions;
        tracer.end(round_span);
        Ok(RoundOut {
            realization,
            setup_s,
            ic_s,
            build_s,
            steps,
            failed_steps,
            step_interactions,
            read_s,
            wall_s: t_round.elapsed().as_secs_f64(),
            digest,
            interactions,
            drift,
            ckpt_roundtrip,
            device,
            ladder: ladder_out,
            referee_states,
        })
    }

    /// Run the workload for `opts.seconds`, recording metrics of the
    /// run's level and every correctness check.
    pub fn run(
        &self,
        opts: &RunOpts,
        rec: &mut Recorder,
        tracer: &mut Tracer,
        outcomes: &mut Outcomes,
        digests: &mut Vec<(String, String)>,
    ) -> std::io::Result<()> {
        let start = Instant::now();
        let mut ladder = opts.trace.then(|| Ladder::new(LadderConfig::from_spec(&self.spec)));
        let mut rounds: Vec<RoundOut> = Vec::new();
        loop {
            let r = rounds.len();
            let out = match ladder.as_mut() {
                Some(l) => self.round(r, opts, Timed::new, tracer, Some(l))?,
                None => self.round(r, opts, |b| b, tracer, None)?,
            };
            eprintln!(
                "{}: round {r} setup {:.3} s, {} steps, wall {:.2} s",
                self.name,
                out.setup_s,
                out.steps.len(),
                out.wall_s
            );
            let failed = out.failed_steps > 0;
            rounds.push(out);
            if failed {
                break;
            }
            let elapsed = start.elapsed().as_secs_f64();
            let longest = rounds.iter().map(|o| o.wall_s).fold(0.0, f64::max);
            let steps: usize = rounds.iter().map(|o| o.steps.len()).sum();
            // untraced runs end on whole cycles of realizations, so each
            // weighs the same in the run's numbers
            let enough = if opts.trace {
                rounds.len() >= 2
            } else {
                steps as u64 >= self.min_steps
                    && (rounds.len() as u64).is_multiple_of(self.realizations)
            };
            // on a slowed machine the step floor gives way at 1.3x the
            // budget: fewer samples, and the tail rule reports that
            let cap = crate::OVERRUN * opts.seconds;
            if (enough && elapsed + longest > opts.seconds) || elapsed + longest > cap {
                break;
            }
        }

        // ---- correctness ----
        for o in &rounds {
            for _ in &o.steps {
                outcomes.record(true);
            }
            for _ in 0..o.failed_steps {
                outcomes.record(false);
            }
        }
        let firsts = &rounds[..(self.realizations as usize).min(rounds.len())];
        let same = rounds.iter().all(|o| {
            let first = &firsts[o.realization as usize];
            o.digest == first.digest && o.interactions == first.interactions
        });
        rec.check(
            "repeat-determinism",
            same,
            format!(
                "{} rounds over {} realizations: each realization's final-state digest and \
                 interaction count equal in every round",
                rounds.len(),
                firsts.len()
            ),
        );
        for f in firsts {
            digests.push((format!("final_state.{}", f.realization), f.digest.clone()));
            digests.push((format!("interactions.{}", f.realization), f.interactions.to_string()));
        }
        let worst_drift = rounds.iter().map(|o| o.drift.abs()).fold(0.0, f64::max);
        rec.check(
            "energy-drift",
            worst_drift <= self.drift_envelope,
            format!(
                "max |dE/W0| over a round {worst_drift:.3e} (envelope {:.1e})",
                self.drift_envelope
            ),
        );
        let roundtrip_errors: Vec<String> = rounds
            .iter()
            .enumerate()
            .filter_map(|(r, o)| o.ckpt_roundtrip.as_ref().err().map(|e| format!("round {r}: {e}")))
            .collect();
        rec.check(
            "checkpoint-roundtrip",
            roundtrip_errors.is_empty(),
            if roundtrip_errors.is_empty() {
                "newest manifest of every round reads back the checkpointed state bit for bit"
                    .into()
            } else {
                roundtrip_errors.join("; ")
            },
        );
        // the referee pools every checkpointed state of each
        // realization's first round (the last is the final state), and
        // the initial state of `referee_extra` further realizations: one
        // halo's force error swings by tens of percent between draws
        let states: Vec<_> = firsts.iter().flat_map(|o| o.referee_states.iter()).collect();
        if states.is_empty() {
            return Err(std::io::Error::other(
                "the first round failed before its first checkpoint",
            ));
        }
        let mut extra = Vec::new();
        for k in 0..self.referee_extra {
            let init = self.initial(opts.seed, self.realizations + k);
            let forces = self
                .spec
                .build()
                .try_compute(&init.snap.pos, &init.snap.mass)
                .map_err(|e| std::io::Error::other(format!("referee force evaluation: {e}")))?;
            extra.push((init.snap.pos, init.snap.mass, forces.acc));
        }
        let (mut err, mut norm, mut checked) = (0.0, 0.0, 0);
        for (k, (pos, mass, acc)) in states.iter().copied().chain(&extra).enumerate() {
            let targets =
                sample_targets(pos.len(), self.referee_targets, splitmix(opts.seed, k as u64));
            let reference = direct_at(pos, mass, self.spec.eps, &targets);
            let (e, n) = err_sums(acc, &targets, &reference);
            err += e;
            norm += n;
            checked += targets.len();
        }
        let force_err = (err / norm).sqrt();
        rec.check(
            "force-referee",
            force_err <= self.force_err_envelope,
            format!(
                "rms force error {force_err:.4e} of the rms force on {checked} targets of {} \
                 checkpointed and {} initial states vs f64 direct summation (envelope {:.1e})",
                states.len(),
                extra.len(),
                self.force_err_envelope
            ),
        );

        // ---- metrics ----
        if opts.trace {
            self.per_layer(&rounds, rec);
        } else {
            self.end_to_end(&rounds, force_err, outcomes, rec);
        }
        Ok(())
    }

    fn end_to_end(
        &self,
        rounds: &[RoundOut],
        force_err: f64,
        outcomes: &Outcomes,
        rec: &mut Recorder,
    ) {
        let setups: Vec<f64> = rounds.iter().map(|o| o.setup_s).collect();
        let walls: Vec<f64> =
            rounds.iter().flat_map(|o| o.steps.iter().map(|s| s.wall_s)).collect();
        let inter: u64 = rounds.iter().map(|o| o.step_interactions).sum();
        let turnaround: Vec<f64> = rounds.iter().map(|o| o.wall_s).collect();
        rec.set("setup_s", median(&setups));
        set_tail(rec, "step_s.p50", &walls, 0.50);
        set_tail(rec, "step_s.p90", &walls, 0.90);
        rec.set("interactions_per_s", inter as f64 / walls.iter().sum::<f64>());
        rec.set("force_err_rms", force_err);
        rec.set("peak_rss_mb", peak_rss_mb());
        rec.set("completed_frac", outcomes.completed_frac());
        rec.set("jobs_per_s", rounds.len() as f64 / turnaround.iter().sum::<f64>());
        set_tail(rec, "turnaround_s.p50", &turnaround, 0.50);
        set_tail(rec, "turnaround_s.p95", &turnaround, 0.95);
    }

    fn per_layer(&self, rounds: &[RoundOut], rec: &mut Recorder) {
        let all_med =
            |f: &dyn Fn(&RoundOut) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let steps: Vec<StepRec> = rounds.iter().flat_map(|o| o.steps.iter().copied()).collect();
        let traced: Vec<&StepRec> = steps.iter().filter(|s| s.traced).collect();
        let force: Vec<f64> = traced.iter().filter_map(|s| s.force_s).collect();
        let integrate: Vec<f64> =
            traced.iter().filter_map(|s| s.force_s.map(|f| s.step_s - f)).collect();
        let ckpts: Vec<(f64, u64)> = traced.iter().filter_map(|s| s.ckpt).collect();
        let ckpt_write = median(&ckpts.iter().map(|c| c.0).collect::<Vec<_>>());

        rec.set("ic.generate_s", all_med(&|o| o.ic_s));
        rec.set("core.backend_build_s", all_med(&|o| o.build_s));
        rec.set("core.force_s", median(&force));
        rec.set("core.integrate_s", median(&integrate));
        rec.set("core.checkpoint_write_s", ckpt_write);
        rec.set(
            "core.checkpoint_bytes",
            median(&ckpts.iter().map(|c| c.1 as f64).collect::<Vec<_>>()),
        );
        rec.set("core.checkpoint_read_s", all_med(&|o| o.read_s));
        rec.set("grape5.calls_per_step", all_med(&|o| o.device.calls_per_eval));
        rec.set("grape5.interactions_per_step", all_med(&|o| o.device.interactions_per_eval));
        rec.set("grape5.ops_per_byte", all_med(&|o| o.device.ops_per_byte));
        rec.set("grape5.retry_frac", all_med(&|o| o.device.retry_frac));
        rec.set("grape5.modeled_step_s", all_med(&|o| o.device.modeled_eval_s));

        let samples: Vec<LadderSample> =
            rounds.iter().flat_map(|o| o.ladder.iter().copied()).collect();
        let summary = summarize(&samples);
        summary.record(rec);

        // a step's `try_step` wall as the ladder explains it: the
        // critical chain plus the integrator (checkpoints are timed on
        // their own)
        let traced_steps: Vec<f64> = traced.iter().map(|s| s.step_s).collect();
        rec.set(
            "trace.attributed_frac",
            (summary.critical_s + median(&integrate)) / median(&traced_steps),
        );
        // traced against untraced neighbours, `try_step` alone, skipping
        // the step right after a ladder sample (it runs on a cold cache)
        let try_step = |on: bool| -> Vec<f64> {
            steps.iter().filter(|s| s.traced == on && !s.after_ladder).map(|s| s.step_s).collect()
        };
        rec.set_noted(
            "trace.overhead_frac",
            median(&try_step(true)) / median(&try_step(false)) - 1.0,
            "traced against untraced neighbouring steps, try_step wall",
        );
    }
}

/// Record a tail percentile, noting the percentile and sample count
/// actually used.
pub fn set_tail(rec: &mut Recorder, name: &str, xs: &[f64], want: f64) {
    let t = tail(xs, want);
    rec.set_noted(name, t.value, &format!("p{:.1} of {} samples", 100.0 * t.percentile, t.samples));
}
