//! Correctness referees: the f64 direct-summation force on sampled
//! targets, and the determinism digest of a state.

use crate::report::Digest;
use g5ic::Snapshot;
use g5tree::eval::{pair_force, PointForce};
use g5util::vec3::Vec3;
use rand::{Rng, SeedableRng};

/// `count` distinct particle indices out of `n` (all of them when
/// `count >= n`), ascending, drawn from `seed`.
pub fn sample_targets(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if count >= n {
        return (0..n).collect();
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut chosen = vec![false; n];
    let mut picked = 0;
    while picked < count {
        let i = rng.random_range(0..n);
        if !chosen[i] {
            chosen[i] = true;
            picked += 1;
        }
    }
    (0..n).filter(|&i| chosen[i]).collect()
}

/// The `DirectHost` force on each target: the same `pair_force` kernel
/// summed over every source in input order, in `f64`.
pub fn direct_at(pos: &[Vec3], mass: &[f64], eps: f64, targets: &[usize]) -> Vec<PointForce> {
    let eps2 = eps * eps;
    targets
        .iter()
        .map(|&i| {
            let mut f = PointForce::ZERO;
            for (&xj, &mj) in pos.iter().zip(mass) {
                let t = pair_force(pos[i], xj, mj, eps2);
                f.acc += t.acc;
                f.pot += t.pot;
            }
            f
        })
        .collect()
}

/// Squared acceleration error and squared reference acceleration of
/// `acc` (indexed like the full state) on `targets` against `reference`
/// (indexed like `targets`), summed, so several states can be pooled.
/// The RMS force error is `sqrt(error / reference)`: the RMS error
/// relative to the RMS force, which particles with a near-zero force
/// (the centre of a sphere) cannot dominate.
pub fn err_sums(acc: &[Vec3], targets: &[usize], reference: &[PointForce]) -> (f64, f64) {
    let (mut err, mut norm) = (0.0, 0.0);
    for (&i, r) in targets.iter().zip(reference) {
        err += (acc[i] - r.acc).norm2();
        norm += r.acc.norm2();
    }
    (err, norm)
}

/// Digest of a state's positions, velocities and time, bit for bit.
pub fn state_digest(snap: &Snapshot, time: f64) -> String {
    let mut d = Digest::default();
    d.floats(snap.pos.iter().flat_map(|p| [p.x, p.y, p.z]));
    d.floats(snap.vel.iter().flat_map(|v| [v.x, v.y, v.z]));
    d.floats([time]);
    d.hex()
}
