//! Golden-vector bit-identity suite for the batched device kernel.
//!
//! `tests/golden/interact_v1.txt` pins the per-pair output bits of the
//! pre-batch scalar pipeline (captured before the table-driven
//! converters and batch kernel landed). These tests prove the chain
//!
//! ```text
//! checked-in fixture == interact_reference == interact == batch kernel
//! ```
//!
//! holds in both arithmetic modes, with and without softening and
//! cutoff, and that the board-parallel system dispatch reproduces the
//! sequential reference merge bit for bit.

use grape5_nbody::grape5::pipeline::JWord;
use grape5_nbody::grape5::{ArithMode, CutoffTable, G5Pipeline, Grape5, Grape5Config};
use grape5_nbody::util::fixed::RangeScaler;
use grape5_nbody::util::lns::Lns;
use grape5_nbody::util::vec3::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/interact_v1.txt");
const EPS: [f64; 2] = [0.0, 0.01];

fn fixture_pipelines(q: f64) -> Vec<G5Pipeline> {
    let cutoff = CutoffTable::treepm(0.3, 1.5, 10, 20);
    let mut pipes = Vec::new();
    for &eps in &EPS {
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            let cfg = Grape5Config { mode, ..Grape5Config::paper() };
            pipes.push(G5Pipeline::new(&cfg, q, eps));
            pipes.push(G5Pipeline::new(&cfg, q, eps).with_cutoff(Some(cutoff.clone())));
        }
    }
    pipes
}

struct GoldenPair {
    xi: [i64; 3],
    j: JWord,
    /// Per-combo recorded bits: `[ax, ay, az, pot]`.
    bits: Vec<[u64; 4]>,
}

fn load_fixture() -> (f64, Vec<GoldenPair>) {
    let text = std::fs::read_to_string(FIXTURE).expect("golden fixture present");
    let lns = Grape5Config::paper().lns;
    let mut quantum = None;
    let mut pairs = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        let head = tok.next().unwrap();
        match head {
            "quantum" => {
                let bits = u64::from_str_radix(tok.next().unwrap(), 16).unwrap();
                quantum = Some(f64::from_bits(bits));
            }
            "eps" => {
                for want in EPS {
                    let bits = u64::from_str_radix(tok.next().unwrap(), 16).unwrap();
                    assert_eq!(bits, want.to_bits(), "fixture eps grid changed");
                }
            }
            "lns" => {
                let f: u32 = tok.next().unwrap().parse().unwrap();
                let lo: i32 = tok.next().unwrap().parse().unwrap();
                let hi: i32 = tok.next().unwrap().parse().unwrap();
                assert_eq!((f, lo, hi), (lns.frac_bits, lns.exp_min, lns.exp_max));
            }
            _ => {
                let next_i64 = |s: Option<&str>| s.unwrap().parse::<i64>().unwrap();
                let xi0: i64 = head.parse().unwrap();
                let xi = [xi0, next_i64(tok.next()), next_i64(tok.next())];
                let jr = [next_i64(tok.next()), next_i64(tok.next()), next_i64(tok.next())];
                let m = f64::from_bits(u64::from_str_radix(tok.next().unwrap(), 16).unwrap());
                let m_sign: i8 = tok.next().unwrap().parse().unwrap();
                let m_raw = next_i64(tok.next());
                let m_lns =
                    if m_sign == 0 { Lns::zero(lns) } else { Lns::from_raw(m_sign, m_raw, lns) };
                // the mass encoder itself must still land on the
                // recorded word, or the j-memory contents drifted
                assert_eq!(lns.encode(m), m_lns, "mass encode drift for m = {m:e}");
                let mut bits = Vec::with_capacity(8);
                while let Some(w) = tok.next() {
                    bits.push([
                        u64::from_str_radix(w, 16).unwrap(),
                        u64::from_str_radix(tok.next().unwrap(), 16).unwrap(),
                        u64::from_str_radix(tok.next().unwrap(), 16).unwrap(),
                        u64::from_str_radix(tok.next().unwrap(), 16).unwrap(),
                    ]);
                }
                assert_eq!(bits.len(), 8, "fixture line has wrong combo count");
                pairs.push(GoldenPair { xi, j: JWord { raw: jr, m_lns, m }, bits });
            }
        }
    }
    (quantum.expect("fixture quantum header"), pairs)
}

fn force_bits(f: &grape5_nbody::grape5::Force) -> [u64; 4] {
    [f.acc.x.to_bits(), f.acc.y.to_bits(), f.acc.z.to_bits(), f.pot.to_bits()]
}

/// Every checked-in (xi, j) pair reproduces its recorded bits through
/// both the current scalar path and the kept pre-batch reference path,
/// across all 8 eps × mode × cutoff combos.
#[test]
fn scalar_paths_reproduce_golden_bits() {
    let (q, pairs) = load_fixture();
    let scaler = RangeScaler::new(-2.0, 2.0, 32);
    assert_eq!(q.to_bits(), scaler.quantum().to_bits(), "fixture grid changed");
    let pipes = fixture_pipelines(q);
    assert!(pairs.len() >= 500, "fixture lost pairs: {}", pairs.len());
    for (k, pair) in pairs.iter().enumerate() {
        for (ci, p) in pipes.iter().enumerate() {
            let want = pair.bits[ci];
            let now = p.interact(pair.xi, &pair.j);
            assert_eq!(force_bits(&now), want, "interact drift at pair {k} combo {ci}");
            let reference = p.interact_reference(pair.xi, &pair.j);
            assert_eq!(force_bits(&reference), want, "reference drift at pair {k} combo {ci}");
        }
    }
}

/// The batch kernel reproduces the recorded bits too: each golden pair
/// is pushed through a one-i, one-j board compute (fixed-point
/// accumulation of a single term at force scale 1 is exact for these
/// magnitudes, so the readback equals the raw pipeline output whenever
/// the value fits the accumulator grid — which the fixture's unit-scale
/// workloads do for every finite component on the coarse grid check
/// below via the reference board).
#[test]
fn batch_board_matches_reference_board_on_golden_pairs() {
    let (q, pairs) = load_fixture();
    let cutoff = CutoffTable::treepm(0.3, 1.5, 10, 20);
    for &eps in &EPS {
        for mode in [ArithMode::Exact, ArithMode::Lns] {
            for with_cut in [false, true] {
                let cfg = Grape5Config { mode, ..Grape5Config::paper() };
                let mut board = grape5_nbody::grape5::board::ProcessorBoard::new(&cfg);
                let pipe =
                    G5Pipeline::new(&cfg, q, eps).with_cutoff(with_cut.then(|| cutoff.clone()));
                let words: Vec<JWord> = pairs.iter().map(|p| p.j).collect();
                let xi: Vec<[i64; 3]> = pairs.iter().map(|p| p.xi).collect();
                board.load_j(&words[..words.len().min(board.capacity())]);
                let batch = board.compute(&pipe, &xi, 1.0);
                let reference = board.compute_reference(&pipe, &xi, 1.0);
                for (k, (a, b)) in batch.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        force_bits(a),
                        force_bits(b),
                        "batch/reference divergence at i {k} mode {mode:?} eps {eps} cut {with_cut}"
                    );
                }
            }
        }
    }
}

/// Board-level bit identity on a bulk random workload, including an
/// accumulator-saturating force scale.
#[test]
fn batch_board_matches_reference_board_bulk() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let scaler = RangeScaler::new(-1.0, 1.0, 32);
    let q = scaler.quantum();
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        let mut board = grape5_nbody::grape5::board::ProcessorBoard::new(&cfg);
        let pipe = G5Pipeline::new(&cfg, q, 0.003);
        let words: Vec<JWord> = (0..300)
            .map(|_| {
                let raw = [
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                ];
                let m = rng.random_range(0.01..10.0);
                JWord { raw, m_lns: pipe.encode_mass(m), m }
            })
            .collect();
        board.load_j(&words);
        let mut xi: Vec<[i64; 3]> = (0..37)
            .map(|_| {
                [
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                    scaler.quantize(rng.random_range(-0.9..0.9)),
                ]
            })
            .collect();
        xi.push(words[5].raw); // exercise the zero-distance guard
        for force_scale in [1.0, 1e-7] {
            let batch = board.compute(&pipe, &xi, force_scale);
            let reference = board.compute_reference(&pipe, &xi, force_scale);
            for (k, (a, b)) in batch.iter().zip(&reference).enumerate() {
                assert_eq!(
                    force_bits(a),
                    force_bits(b),
                    "bulk divergence at i {k} mode {mode:?} scale {force_scale}"
                );
            }
        }
    }
}

/// System level: the board-parallel dispatch with reused scratch
/// buffers matches the sequential reference merge bit for bit, and
/// repeated calls are reproducible.
#[test]
fn parallel_dispatch_matches_sequential_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let pos: Vec<Vec3> = (0..160)
        .map(|_| {
            Vec3::new(
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
            )
        })
        .collect();
    let mass: Vec<f64> = (0..160).map(|_| rng.random_range(0.01..1.0)).collect();
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        for with_cut in [false, true] {
            let cfg = Grape5Config { mode, ..Grape5Config::paper() };
            let mut g5 = Grape5::open(cfg);
            g5.set_range(-1.0, 1.0);
            g5.set_eps(0.01);
            if with_cut {
                g5.set_cutoff(Some(CutoffTable::treepm(0.2, 0.8, 10, 20)));
            }
            g5.set_j_particles(&pos, &mass);
            let reference = g5.force_on_reference(&pos);
            let a = g5.force_on(&pos);
            let b = g5.force_on(&pos);
            for (k, ((fa, fb), fr)) in a.iter().zip(&b).zip(&reference).enumerate() {
                assert_eq!(
                    force_bits(fa),
                    force_bits(fr),
                    "parallel/sequential divergence at i {k} mode {mode:?} cut {with_cut}"
                );
                assert_eq!(force_bits(fa), force_bits(fb), "repeat-call drift at i {k}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lane-path suite: the SIMD / portable exact-mode kernels against the
// fixture and the scalar skeleton.
// ---------------------------------------------------------------------

use grape5_nbody::grape5::pipeline::JSlices;
use grape5_nbody::grape5::LanePath;
use grape5_nbody::util::fixed::{Fixed, FixedFormat};

/// Every lane path available on this machine, plus the scalar referee.
fn lane_paths() -> Vec<LanePath> {
    let mut v = vec![LanePath::Scalar, LanePath::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            v.push(LanePath::Avx2);
        }
        if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq") {
            v.push(LanePath::Avx512);
        }
    }
    v
}

/// The lane kernels reproduce the checked-in fixture: for each golden
/// pair, a one-i × one-j `interact_block` readback must equal the
/// fixture-recorded pipeline output pushed through one fixed-point
/// accumulate — the definitional readback of a single term. This pins
/// the lane paths' fixed-point dx subtract and quantization to the same
/// bits `pair_exact` produced when the fixture was captured.
#[test]
fn lane_block_reproduces_golden_bits_in_exact_mode() {
    let (q, pairs) = load_fixture();
    let fmt = Grape5Config::paper().acc_format;
    for (ei, &eps) in EPS.iter().enumerate() {
        let combo = ei * 4; // (eps, Exact, no cutoff) in fixture order
        let cfg = Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() };
        let mut pipe = G5Pipeline::new(&cfg, q, eps);
        for path in lane_paths() {
            pipe.set_lane_path(path);
            for (k, pair) in pairs.iter().enumerate() {
                let m_lns = [pair.j.m_lns];
                let j = JSlices {
                    x: &pair.j.raw[0..1],
                    y: &pair.j.raw[1..2],
                    z: &pair.j.raw[2..3],
                    m: std::slice::from_ref(&pair.j.m),
                    m_lns: &m_lns,
                };
                let mut out = [grape5_nbody::grape5::Force::ZERO];
                pipe.interact_block(&[pair.xi], &j, 1.0, fmt, &mut out);
                let want = pair.bits[combo]
                    .map(|b| Fixed::zero(fmt).accumulate(f64::from_bits(b)).to_f64().to_bits());
                assert_eq!(
                    force_bits(&out[0]),
                    want,
                    "lane {path:?} drifts from fixture at pair {k} eps {eps}"
                );
            }
        }
    }
}

/// Edge cases the lane structure could plausibly break — remainder
/// tails (j-counts ≢ 0 mod 4), zero-mass j-particles, coincident i/j
/// pairs — are bit-identical across the scalar, portable and (where
/// available) AVX2 and AVX-512 paths, at unit and accumulator-stressing force
/// scales, for a range of accumulator formats.
#[test]
fn lane_edge_cases_bit_identical_across_paths() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let scaler = RangeScaler::new(-1.0, 1.0, 32);
    let q = scaler.quantum();
    let cfg = Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() };
    let mut pipe = G5Pipeline::new(&cfg, q, 0.005);
    let quant = |rng: &mut ChaCha8Rng| scaler.quantize(rng.random_range(-0.9..0.9));
    let mut xi: Vec<[i64; 3]> =
        (0..37).map(|_| [quant(&mut rng), quant(&mut rng), quant(&mut rng)]).collect();
    let (mut jx, mut jy, mut jz, mut jm) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..301usize {
        let raw = if k % 13 == 2 {
            xi[k % xi.len()] // coincident with an i-particle
        } else {
            [quant(&mut rng), quant(&mut rng), quant(&mut rng)]
        };
        jx.push(raw[0]);
        jy.push(raw[1]);
        jz.push(raw[2]);
        jm.push(if k % 11 == 5 { 0.0 } else { rng.random_range(0.01..10.0) });
    }
    xi.push([jx[0], jy[0], jz[0]]); // i coincident with j 0 (covers nj = 1)
    let jml: Vec<Lns> = jm.iter().map(|&m| pipe.encode_mass(m)).collect();
    for &nj in &[1usize, 3, 5, 301] {
        let j =
            JSlices { x: &jx[..nj], y: &jy[..nj], z: &jz[..nj], m: &jm[..nj], m_lns: &jml[..nj] };
        for fmt in [Grape5Config::paper().acc_format, FixedFormat::new(32, 16)] {
            for force_scale in [1.0, 1e-7] {
                let mut outs = Vec::new();
                for path in lane_paths() {
                    pipe.set_lane_path(path);
                    let mut out = vec![grape5_nbody::grape5::Force::ZERO; xi.len()];
                    pipe.interact_block(&xi, &j, force_scale, fmt, &mut out);
                    outs.push((path, out));
                }
                let (_, ref scalar) = outs[0];
                for (path, out) in &outs[1..] {
                    for (k, (a, b)) in scalar.iter().zip(out).enumerate() {
                        assert_eq!(
                            force_bits(a),
                            force_bits(b),
                            "{path:?} diverges at i {k} nj {nj} fmt {fmt:?} scale {force_scale}"
                        );
                    }
                }
            }
        }
    }
}

/// System level: the full board-parallel `force_on` is bit-identical
/// whichever lane path is forced, and the override survives the
/// pipeline rebuild `set_range` / `set_eps` trigger.
#[test]
fn system_force_is_lane_path_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let pos: Vec<Vec3> = (0..150)
        .map(|_| {
            Vec3::new(
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
                rng.random_range(-0.9..0.9),
            )
        })
        .collect();
    let mass: Vec<f64> = (0..150).map(|_| rng.random_range(0.01..1.0)).collect();
    let mut forces = Vec::new();
    for path in lane_paths() {
        let mut g5 = Grape5::open(Grape5Config::paper_exact());
        g5.set_lane_path(path);
        g5.set_range(-1.0, 1.0); // rebuilds the pipeline: override must stick
        g5.set_eps(0.01);
        assert_eq!(g5.lane_path(), path, "lane override lost across rebuild");
        g5.set_j_particles(&pos, &mass);
        forces.push((path, g5.force_on(&pos)));
    }
    let (_, ref reference) = forces[0];
    for (path, f) in &forces[1..] {
        for (k, (a, b)) in reference.iter().zip(f).enumerate() {
            assert_eq!(force_bits(a), force_bits(b), "{path:?} system divergence at i {k}");
        }
    }
}
