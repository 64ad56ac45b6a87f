//! The per-layer ladder of the traced run.
//!
//! At a sampled step the ladder takes the simulation's current state
//! and times each layer's public entry point on it, in the order a
//! force evaluation uses them:
//!
//! 1. Morton order (`g5util::morton_sort`);
//! 2. `Tree::build_with_hint`;
//! 3. `Traversal::find_groups_into`;
//! 4. `plan::stream_with` twice — once with a counting-only consumer
//!    (the producer's cost), once feeding every `GroupWork` to
//!    `DeviceSession::try_force_for` and, on a second device, to
//!    `Grape5::set_j_particles` + `Grape5::try_force_on`;
//! 5. with K > 1 shards: `Decomposition::morton` first, and
//!    `let_terms_into` against every remote tree per group sphere
//!    inside the feeding stream.
//!
//! The ladder drives its own devices, so sampling never perturbs the
//! simulation it observes.

use crate::trace::Tracer;
use g5tree::domain::{let_terms_into, Decomposition};
use g5tree::plan::{self, PlanConfig, PlanPool};
use g5tree::{Group, Mac, Traversal, TraverseScratch, Tree, TreeConfig};
use g5util::morton_sort;
use g5util::vec3::Vec3;
use grape5::{bounding_window, DeviceSession, Grape5, Grape5Config, RetryPolicy};
use std::time::Instant;
use treegrape::BackendSpec;

/// The operating point a backend spec describes, as the ladder needs it.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Opening angle.
    pub theta: f64,
    /// Group size.
    pub n_crit: usize,
    /// Softening.
    pub eps: f64,
    /// Device configuration (fault injection never armed).
    pub grape: Grape5Config,
    /// Session retry policy.
    pub retry: RetryPolicy,
    /// Domain shards.
    pub shards: usize,
}

impl LadderConfig {
    /// The configuration `BackendSpec::build` produces, without faults.
    pub fn from_spec(spec: &BackendSpec) -> LadderConfig {
        LadderConfig {
            theta: spec.theta,
            n_crit: spec.n_crit,
            eps: spec.eps,
            grape: Grape5Config { boards: spec.boards, mode: spec.mode, ..Grape5Config::paper() },
            retry: RetryPolicy { max_retries: 20, ..RetryPolicy::no_wait() },
            shards: spec.devices(),
        }
    }
}

/// What one ladder pass measured (seconds unless named otherwise).
#[derive(Debug, Clone, Copy, Default)]
pub struct LadderSample {
    /// Particles in the state.
    pub particles: usize,
    /// Morton order, summed over shards.
    pub morton_s: f64,
    /// Tree builds, summed over shards.
    pub build_s: f64,
    /// Group finding, summed over shards.
    pub find_groups_s: f64,
    /// Counting-only stream wall, summed over shards.
    pub traverse_s: f64,
    /// Groups over all shards.
    pub groups: u64,
    /// Local list terms (the treecode's own lists).
    pub terms: u64,
    /// Lists streamed.
    pub lists: u64,
    /// Domain decomposition (0 with one shard).
    pub decompose_s: f64,
    /// LET walks, summed over groups.
    pub let_s: f64,
    /// Remote terms the LET walks appended.
    pub let_terms: u64,
    /// `DeviceSession::try_force_for` calls, summed.
    pub session_s: f64,
    /// `Grape5::set_j_particles` calls, summed.
    pub jload_s: f64,
    /// Words those loads moved (device accounting).
    pub jload_words: u64,
    /// `Grape5::try_force_on` calls, summed.
    pub force_s: f64,
    /// Interactions those calls evaluated (device accounting).
    pub interactions: u64,
    /// The step's critical chain as the ladder saw it: decomposition
    /// plus the slowest shard's build, grouping, LET and session time
    /// (shards evaluate concurrently in the backend).
    pub critical_s: f64,
}

/// The ladder's persistent state: its own devices, buffer pools and the
/// previous sample's Morton orders (the build hint the backend uses).
pub struct Ladder {
    cfg: LadderConfig,
    session_dev: Grape5,
    raw_dev: Grape5,
    pools: Vec<PlanPool>,
    prev_orders: Vec<Vec<u32>>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Ladder {
    /// Open the ladder's two devices for `cfg`.
    pub fn new(cfg: LadderConfig) -> Ladder {
        Ladder {
            cfg,
            session_dev: Grape5::open(cfg.grape),
            raw_dev: Grape5::open(cfg.grape),
            pools: (0..cfg.shards).map(|_| PlanPool::new()).collect(),
            prev_orders: vec![Vec::new(); cfg.shards],
        }
    }

    /// Time every layer on the state `(pos, mass)`.
    pub fn sample(&mut self, pos: &[Vec3], mass: &[f64], tracer: &mut Tracer) -> LadderSample {
        let cfg = self.cfg;
        let k_shards = cfg.shards;
        let mut s = LadderSample { particles: pos.len(), ..LadderSample::default() };
        let top = tracer.begin("ladder");

        // 5a. decomposition (identity with one shard)
        let mut shard_pos = vec![Vec::new(); k_shards];
        let mut shard_mass = vec![Vec::new(); k_shards];
        if k_shards == 1 {
            shard_pos[0] = pos.to_vec();
            shard_mass[0] = mass.to_vec();
        } else {
            let sp = tracer.begin("tree.decompose");
            let t = Instant::now();
            let d = Decomposition::morton(pos, k_shards);
            s.decompose_s = secs(t);
            tracer.end(sp);
            for k in 0..k_shards {
                d.gather(k, pos, mass, &mut shard_pos[k], &mut shard_mass[k]);
            }
        }

        // 1–3. per shard: Morton order, tree build, group finding
        let tr = Traversal::new(cfg.theta);
        let mut chain = vec![0.0f64; k_shards];
        let mut trees = Vec::with_capacity(k_shards);
        let mut groups: Vec<Vec<Group>> = Vec::with_capacity(k_shards);
        for k in 0..k_shards {
            let (p, m) = (&shard_pos[k], &shard_mass[k]);
            let hint = (self.prev_orders[k].len() == p.len()).then_some(&self.prev_orders[k][..]);

            let sp = tracer.begin("util.morton_sort");
            let t = Instant::now();
            let ordered = match hint {
                Some(h) => morton_sort::morton_order_incremental(p, h),
                None => morton_sort::morton_order(p),
            };
            s.morton_s += secs(t);
            tracer.end(sp);
            drop(ordered);

            let sp = tracer.begin("tree.build");
            let t = Instant::now();
            let tree = Tree::build_with_hint(p, m, TreeConfig::default(), hint);
            let build = secs(t);
            tracer.end(sp);
            s.build_s += build;
            self.prev_orders[k] = tree.order().to_vec();

            let sp = tracer.begin("tree.find_groups");
            let t = Instant::now();
            let mut g = Vec::new();
            tr.find_groups_into(&tree, cfg.n_crit, &mut TraverseScratch::default(), &mut g);
            let fg = secs(t);
            tracer.end(sp);
            s.find_groups_s += fg;
            s.groups += g.len() as u64;
            chain[k] = build + fg;
            trees.push(tree);
            groups.push(g);
        }

        // 4. the plan stream: producer cost, then the device feed
        let plan_cfg = PlanConfig::default();
        let mac = Mac::new(cfg.theta);
        let (lo, hi) = bounding_window(pos).expect("finite state");
        for k in 0..k_shards {
            let tree = &trees[k];
            let sp = tracer.begin("tree.traverse");
            let t = Instant::now();
            let mut terms = 0u64;
            let stats = plan::stream_with(tree, &tr, &groups[k], &plan_cfg, &self.pools[k], |w| {
                terms += w.jpos.len() as u64;
            })
            .expect("plan stream");
            s.traverse_s += secs(t);
            tracer.end(sp);
            debug_assert_eq!(terms, stats.tally.terms);
            s.terms += stats.tally.terms;
            s.lists += stats.tally.lists;

            let remote: Vec<&Tree> =
                trees.iter().enumerate().filter(|(j, _)| *j != k).map(|(_, t)| t).collect();
            let raw = &mut self.raw_dev;
            raw.set_range(lo, hi);
            raw.set_eps(cfg.eps);
            let mut session = DeviceSession::try_open(&mut self.session_dev, pos, cfg.eps)
                .expect("finite state")
                .with_retry(cfg.retry);
            let (mut let_s, mut let_terms, mut session_s) = (0.0, 0u64, 0.0);
            let (mut jload_s, mut jload_words, mut force_s, mut inter) = (0.0, 0u64, 0.0, 0u64);
            let (mut rjp, mut rjm): (Vec<Vec3>, Vec<f64>) = (Vec::new(), Vec::new());
            let feed = tracer.begin("grape5.feed");
            plan::stream_with(tree, &tr, &groups[k], &plan_cfg, &self.pools[k], |work| {
                let (jp, jm): (&[Vec3], &[f64]) = if remote.is_empty() {
                    (&work.jpos, &work.jmass)
                } else {
                    let sp = tracer.begin("tree.let");
                    let t = Instant::now();
                    rjp.clear();
                    rjm.clear();
                    rjp.extend_from_slice(&work.jpos);
                    rjm.extend_from_slice(&work.jmass);
                    let sphere = tr.group_sphere(tree, work.group);
                    for src in &remote {
                        let_terms_into(src, &mac, &sphere, &mut rjp, &mut rjm);
                    }
                    let_s += secs(t);
                    tracer.end(sp);
                    let_terms += (rjp.len() - work.jpos.len()) as u64;
                    (&rjp, &rjm)
                };

                let sp = tracer.begin("grape5.session_force");
                let t = Instant::now();
                session.try_force_for(jp, jm, &work.xi).expect("fault-free device");
                session_s += secs(t);
                tracer.end(sp);

                // the same work through the raw device calls, chunked
                // through j-memory exactly as the session would
                let cap = raw.jmem_capacity();
                for start in (0..jp.len()).step_by(cap.max(1)) {
                    let end = (start + cap).min(jp.len());
                    let words0 = raw.accounting().j_words;
                    let sp = tracer.begin("grape5.set_j_particles");
                    let t = Instant::now();
                    raw.set_j_particles(&jp[start..end], &jm[start..end]);
                    jload_s += secs(t);
                    tracer.end(sp);
                    jload_words += raw.accounting().j_words - words0;

                    let inter0 = raw.accounting().interactions;
                    let sp = tracer.begin("grape5.try_force_on");
                    let t = Instant::now();
                    raw.try_force_on(&work.xi).expect("fault-free device");
                    force_s += secs(t);
                    tracer.end(sp);
                    inter += raw.accounting().interactions - inter0;
                }
            })
            .expect("plan stream");
            tracer.end(feed);
            s.let_s += let_s;
            s.let_terms += let_terms;
            s.session_s += session_s;
            s.jload_s += jload_s;
            s.jload_words += jload_words;
            s.force_s += force_s;
            s.interactions += inter;
            chain[k] += let_s + session_s;
        }
        s.critical_s = s.decompose_s + chain.iter().copied().fold(0.0, f64::max);
        tracer.end(top);
        s
    }
}

/// Per-layer numbers over a set of ladder samples: the median of each
/// per-sample normalized value.
#[derive(Debug, Clone, Copy, Default)]
pub struct LadderSummary {
    /// Morton sort, ns per particle.
    pub morton_ns_per_particle: f64,
    /// Tree build, ns per particle.
    pub build_ns_per_particle: f64,
    /// Group finding, s.
    pub find_groups_s: f64,
    /// Producer cost, ns per group.
    pub traverse_ns_per_group: f64,
    /// Groups per evaluation.
    pub groups: f64,
    /// Mean local list length.
    pub list_len_mean: f64,
    /// Local list terms per evaluation.
    pub terms: f64,
    /// Decomposition, s (shard samples only).
    pub decompose_s: Option<f64>,
    /// LET walk, ns per group (shard samples only).
    pub let_ns_per_group: Option<f64>,
    /// Remote terms per evaluation (shard samples only).
    pub let_terms: Option<f64>,
    /// j-load, ns per word.
    pub jload_ns_per_word: f64,
    /// Force call, ns per interaction.
    pub force_ns_per_interaction: f64,
    /// Session time over raw load + force time, minus one.
    pub session_overhead_frac: f64,
    /// The critical chain, s.
    pub critical_s: f64,
}

/// Summarize `samples` (at least one).
pub fn summarize(samples: &[LadderSample]) -> LadderSummary {
    use crate::stats::median;
    assert!(!samples.is_empty(), "no ladder samples");
    let med = |f: &dyn Fn(&LadderSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let sharded: Vec<&LadderSample> = samples.iter().filter(|s| s.decompose_s > 0.0).collect();
    let sharded_med = |f: &dyn Fn(&LadderSample) -> f64| {
        (!sharded.is_empty()).then(|| median(&sharded.iter().map(|s| f(s)).collect::<Vec<_>>()))
    };
    LadderSummary {
        morton_ns_per_particle: med(&|s| s.morton_s * 1e9 / s.particles as f64),
        build_ns_per_particle: med(&|s| s.build_s * 1e9 / s.particles as f64),
        find_groups_s: med(&|s| s.find_groups_s),
        traverse_ns_per_group: med(&|s| s.traverse_s * 1e9 / s.groups as f64),
        groups: med(&|s| s.groups as f64),
        list_len_mean: med(&|s| s.terms as f64 / s.lists as f64),
        terms: med(&|s| s.terms as f64),
        decompose_s: sharded_med(&|s| s.decompose_s),
        let_ns_per_group: sharded_med(&|s| s.let_s * 1e9 / s.groups as f64),
        let_terms: sharded_med(&|s| s.let_terms as f64),
        jload_ns_per_word: med(&|s| s.jload_s * 1e9 / s.jload_words as f64),
        force_ns_per_interaction: med(&|s| s.force_s * 1e9 / s.interactions as f64),
        session_overhead_frac: med(&|s| s.session_s / (s.jload_s + s.force_s) - 1.0),
        critical_s: med(&|s| s.critical_s),
    }
}

impl LadderSummary {
    /// Record the ladder's per-layer metrics.
    pub fn record(&self, rec: &mut crate::report::Recorder) {
        rec.set("util.morton_sort_ns_per_particle", self.morton_ns_per_particle);
        rec.set("tree.build_ns_per_particle", self.build_ns_per_particle);
        rec.set("tree.find_groups_s", self.find_groups_s);
        rec.set("tree.traverse_ns_per_group", self.traverse_ns_per_group);
        rec.set("tree.groups", self.groups);
        rec.set("tree.list_len_mean", self.list_len_mean);
        rec.set("tree.terms_per_step", self.terms);
        if let Some(v) = self.decompose_s {
            rec.set("tree.decompose_s", v);
        }
        if let Some(v) = self.let_ns_per_group {
            rec.set("tree.let_ns_per_group", v);
        }
        if let Some(v) = self.let_terms {
            rec.set("tree.let_terms_per_step", v);
        }
        rec.set("grape5.jload_ns_per_word", self.jload_ns_per_word);
        rec.set("grape5.force_ns_per_interaction", self.force_ns_per_interaction);
        rec.set("grape5.session_overhead_frac", self.session_overhead_frac);
    }
}
