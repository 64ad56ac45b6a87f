//! Lane-parallel exact-mode force kernel.
//!
//! The real pipeline's throughput comes from evaluating many j-particles
//! per cycle against a held i-set; this module models that data
//! parallelism on CPU lanes for the `Exact` arithmetic mode. Every path
//! tiles the i-set, streams the SoA [`JSlices`](crate::pipeline::JSlices)
//! in `J_BLOCK`-sized j-blocks, and keeps one raw fixed-point
//! accumulator per (i, component):
//!
//! ```text
//!   interact_block (Exact, no cutoff)
//!        │ detect_lane_path()        G5_LANE_PATH, then the widest
//!        │                           path is_x86_feature_detected! allows
//!        ├── LanePath::Avx512 ──► certified_block::<Avx512>
//!        │                        8 × f64, vcvtqq2pd, k-mask guard
//!        ├── LanePath::Avx2 ────► coordinate guard ─► certified_block::<Avx2>
//!        │                        4 × f64, magic i64→f64   │ (wide grid)
//!        ├── LanePath::Portable ► portable_block ◄─────────┘
//!        │                        array-of-lanes, serial accumulate
//!        └── LanePath::Scalar ──► block_with (the pre-lane skeleton)
//!
//!   certified_block, per (i, j-block):
//!        accumulator inside the headroom window?
//!          ├─ yes ─► block_sum: W-lane forces (remainder padded with
//!          │         zero-distance lanes), magic encode, wrapping i64
//!          │         lane sums, one flag test at block end
//!          │           ├─ clean ──► acc += Σ
//!          │           └─ flagged ─► serial block
//!          └─ no ──► serial block (pair_exact + accumulate_with_scale)
//! ```
//!
//! **Bit-identity contract.** Every path reproduces the scalar
//! `pair_exact` + `Fixed::accumulate_with_scale` sequence bit for bit:
//!
//! * IEEE 754 mul/add/div/sqrt are deterministic and correctly rounded,
//!   in scalar and vector forms alike, and no FMA contraction is ever
//!   emitted from explicit intrinsics — so vectorizing the identical
//!   operation sequence preserves every bit.
//! * The fixed-point `dx` subtract stays in 64-bit integers (`vpsubq`).
//!   AVX-512DQ converts it with `vcvtqq2pd`, which rounds like `as f64`;
//!   AVX2 uses the exact `2⁵²+2⁵¹` shifter, valid because a
//!   coordinate-magnitude guard routes any call with raw words ≥ 2⁵⁰ to
//!   the portable path.
//! * **Encode.** For `|s| < 2⁵⁰`, `t = s + M` with `M = 1.5·2⁵²` lands
//!   in `[2⁵², 2⁵³)`, where the ulp is 1, so `t` holds `M +
//!   round_half_even(s)` exactly and `bits(t) = bits(M) + rhe(s)`. The
//!   kernel sums `bits(t)` as wrapping i64 per lane and subtracts
//!   `count × bits(M)` at block end. `t − M` and `s − (t − M)` are exact
//!   (Sterbenz), and half-even differs from `encode`'s half-away only
//!   where `|s − (t − M)| = ½`. A lane with such a tie, with `|s| ≥ 2⁵⁰`
//!   or with `s` NaN flags the block.
//! * **Headroom.** With `|term| ≤ 2⁵⁰`, a block of at most `J_BLOCK`
//!   terms moves the sum by at most `J_BLOCK·2⁵⁰` (2⁵⁹). If the format
//!   covers ±2⁵⁰ (so `encode` never clamps an in-window term) and the
//!   accumulator starts the block at least that far from both ends of
//!   the range, no serial prefix sum can saturate: the saturating adds
//!   are plain adds, their order is free, and `acc + Σ` is the serial
//!   result. |Σ| ≤ 2⁵⁹ also keeps the wrapping lane sums exact.
//! * **Fallback.** A flagged block, or one starting outside the headroom
//!   window, is recomputed for that i by the scalar sequence itself.
//! * The zero-distance guard zeroes coincident lanes (the scalar path's
//!   `continue`); `+0.0` encodes to a raw 0, a no-op on the sum.
//!
//! `tests/golden_kernel.rs` and the in-crate referees below check all of
//! this, including one test per fallback.

use crate::pipeline::{Force, G5Pipeline, JSlices};
use g5util::fixed::{Fixed, FixedFormat};
use g5util::vec3::Vec3;

/// j-particles evaluated per iteration of the portable lane path.
pub const LANES: usize = 4;

/// i-particles sharing one streamed j-block (pipelines per chip set).
const I_TILE: usize = 16;
/// j-particles per block; the SoA streams stay well inside L1, and the
/// certified kernel's headroom bound is `J_BLOCK` terms.
const J_BLOCK: usize = 512;

/// Which implementation the exact-mode `interact_block` dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePath {
    /// AVX-512F/DQ `core::arch` intrinsics, 8 × f64 per iteration.
    Avx512,
    /// AVX2 `core::arch` intrinsics, 4 × f64 per iteration.
    Avx2,
    /// Portable array-of-lanes fallback (any architecture).
    Portable,
    /// Route exact mode through the pre-lane scalar batch skeleton —
    /// the A/B reference for the perf harness.
    Scalar,
}

/// Pick the lane path for this process: the `G5_LANE_PATH` environment
/// variable (`portable` / `scalar` / `avx2`) wins, then runtime CPU
/// feature detection picks the widest path, then the portable fallback.
/// Requesting `avx2` on hardware without it degrades to `Portable`
/// rather than faulting.
pub fn detect_lane_path() -> LanePath {
    let request = std::env::var("G5_LANE_PATH").ok();
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (std::is_x86_feature_detected!("avx2"), x86::avx512_detected());
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512) = (false, false);
    choose_lane_path(request.as_deref(), avx2, avx512)
}

/// The detection rule, apart from the environment and CPUID.
fn choose_lane_path(request: Option<&str>, avx2: bool, avx512: bool) -> LanePath {
    match request {
        Some("portable") => LanePath::Portable,
        Some("scalar") => LanePath::Scalar,
        Some("avx2") if avx2 => LanePath::Avx2,
        Some("avx2") => LanePath::Portable,
        _ if avx512 => LanePath::Avx512,
        _ if avx2 => LanePath::Avx2,
        _ => LanePath::Portable,
    }
}

/// How the per-interaction terms are mapped into accumulator units —
/// hoisted once per block call, bit-identical to the scalar `unscale`.
#[derive(Debug, Clone, Copy)]
enum ScaleMode {
    /// `force_scale == 1.0`: terms pass through.
    One,
    /// Power-of-two scale: multiply by the exact reciprocal.
    Pow2Mul(f64),
    /// General scale: divide.
    Div(f64),
}

fn scale_mode(force_scale: f64) -> ScaleMode {
    let inv_scale = 1.0 / force_scale;
    let pow2_scale = force_scale.to_bits() & ((1u64 << 52) - 1) == 0
        && force_scale.is_normal()
        && inv_scale.is_normal();
    if force_scale == 1.0 {
        ScaleMode::One
    } else if pow2_scale {
        ScaleMode::Pow2Mul(inv_scale)
    } else {
        ScaleMode::Div(force_scale)
    }
}

impl ScaleMode {
    #[inline(always)]
    fn apply(self, t: f64) -> f64 {
        match self {
            ScaleMode::One => t,
            ScaleMode::Pow2Mul(inv) => t * inv,
            ScaleMode::Div(s) => t / s,
        }
    }
}

/// One j-block's SoA streams.
#[derive(Clone, Copy)]
struct JBlock<'a> {
    x: &'a [i64],
    y: &'a [i64],
    z: &'a [i64],
    m: &'a [f64],
}

/// Per-call constants shared by every lane path.
#[derive(Clone, Copy)]
struct Kernel {
    quantum: f64,
    eps2: f64,
    force_scale: f64,
    /// `fmt.encode_scale()`, hoisted.
    enc: f64,
    sm: ScaleMode,
    fmt: FixedFormat,
}

impl Kernel {
    fn new(quantum: f64, eps2: f64, force_scale: f64, fmt: FixedFormat) -> Self {
        let (enc, sm) = (fmt.encode_scale(), scale_mode(force_scale));
        Kernel { quantum, eps2, force_scale, enc, sm, fmt }
    }

    /// Tile the i-set, stream the j-blocks through each tile, and hand
    /// every (i, block) to `block` with that i's running raw
    /// `[fx, fy, fz, pot]` accumulators.
    #[inline(always)]
    fn drive(
        &self,
        xi: &[[i64; 3]],
        j: &JSlices<'_>,
        out: &mut [Force],
        mut block: impl FnMut(&mut [i64; 4], [i64; 3], JBlock<'_>),
    ) {
        let nj = j.x.len();
        for (xc, oc) in xi.chunks(I_TILE).zip(out.chunks_mut(I_TILE)) {
            let mut acc = [[0i64; 4]; I_TILE];
            for js in (0..nj).step_by(J_BLOCK) {
                let je = (js + J_BLOCK).min(nj);
                let b =
                    JBlock { x: &j.x[js..je], y: &j.y[js..je], z: &j.z[js..je], m: &j.m[js..je] };
                for (a, &x) in acc.iter_mut().zip(xc) {
                    block(a, x, b);
                }
            }
            for (o, a) in oc.iter_mut().zip(&acc) {
                let f = a.map(|raw| Fixed { raw, fmt: self.fmt }.to_f64() * self.force_scale);
                *o = Force { acc: Vec3::new(f[0], f[1], f[2]), pot: f[3] };
            }
        }
    }

    /// One j's `[fx, fy, fz, pot]` through `Fixed::accumulate_with_scale`.
    #[inline(always)]
    fn accumulate(&self, a: &mut [i64; 4], f: [f64; 4]) {
        for (raw, t) in a.iter_mut().zip(f) {
            *raw = Fixed { raw: *raw, fmt: self.fmt }
                .accumulate_with_scale(self.enc, self.sm.apply(t))
                .raw;
        }
    }

    /// The scalar definition every path reproduces, for j ascending over
    /// `b[from..]`.
    #[inline]
    fn serial(&self, a: &mut [i64; 4], x: [i64; 3], b: JBlock<'_>, from: usize) {
        for k in from..b.x.len() {
            let d = [b.x[k] - x[0], b.y[k] - x[1], b.z[k] - x[2]];
            if (d[0] | d[1] | d[2]) != 0 {
                let f = G5Pipeline::pair_exact(self.quantum, self.eps2, None, d, b.m[k]);
                self.accumulate(a, [f.acc.x, f.acc.y, f.acc.z, f.pot]);
            }
        }
    }
}

/// Entry point: dispatch the exact-mode no-cutoff block to the selected
/// lane implementation. A SIMD path the CPU lacks runs the portable
/// kernel instead. Kept out of line so the three tile loops do not
/// swell `interact_block`, which also holds the LNS kernels.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub(crate) fn block_exact_lanes(
    path: LanePath,
    quantum: f64,
    eps2: f64,
    xi: &[[i64; 3]],
    j: &JSlices<'_>,
    force_scale: f64,
    fmt: FixedFormat,
    out: &mut [Force],
) {
    let k = Kernel::new(quantum, eps2, force_scale, fmt);
    match path {
        #[cfg(target_arch = "x86_64")]
        LanePath::Avx512 if x86::avx512_detected() => {
            // SAFETY: AVX-512F and AVX-512DQ were detected just above.
            k.drive(xi, j, out, |a, x, b| unsafe { x86::block_avx512(&k, a, x, b) })
        }
        #[cfg(target_arch = "x86_64")]
        LanePath::Avx2
            if std::is_x86_feature_detected!("avx2") && x86::magic_convertible(xi, j) =>
        {
            // SAFETY: AVX2 was detected just above.
            k.drive(xi, j, out, |a, x, b| unsafe { x86::block_avx2(&k, a, x, b) })
        }
        _ => k.drive(xi, j, out, |a, x, b| portable_block(&k, a, x, b)),
    }
}

/// Portable lane body: `LANES` j-particles' forces as plain arrays, then
/// accumulated serially in j order. This is both the non-x86
/// implementation and the referee the intrinsics paths are
/// bit-compared against.
fn portable_block(k: &Kernel, a: &mut [i64; 4], x: [i64; 3], b: JBlock<'_>) {
    let n = b.x.len() - b.x.len() % LANES;
    for i in (0..n).step_by(LANES) {
        // guarded lanes stay +0.0, which accumulates as a raw-0 no-op
        let (mut fx, mut fy, mut fz, mut fp) =
            ([0.0f64; LANES], [0.0; LANES], [0.0; LANES], [0.0; LANES]);
        for l in 0..LANES {
            let d0 = b.x[i + l] - x[0];
            let d1 = b.y[i + l] - x[1];
            let d2 = b.z[i + l] - x[2];
            if (d0 | d1 | d2) == 0 {
                continue; // zero-distance guard
            }
            let dx = d0 as f64 * k.quantum;
            let dy = d1 as f64 * k.quantum;
            let dz = d2 as f64 * k.quantum;
            let r2 = (dx * dx + dy * dy) + dz * dz + k.eps2;
            let rinv = 1.0 / r2.sqrt();
            let rinv3 = rinv / r2;
            let m = b.m[i + l];
            let s = m * rinv3;
            fx[l] = dx * s;
            fy[l] = dy * s;
            fz[l] = dz * s;
            fp[l] = m * rinv;
        }
        for l in 0..LANES {
            k.accumulate(a, [fx[l], fy[l], fz[l], fp[l]]);
        }
    }
    k.serial(a, x, b, n);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{JBlock, Kernel, ScaleMode, J_BLOCK};
    use crate::pipeline::JSlices;
    use core::arch::x86_64::*;

    /// `1.5·2⁵²`: the shifter that makes f64 ↔ i64 conversion exact for
    /// `|v| < 2⁵¹` (the integer lands in the double's mantissa).
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    /// The same shifter as raw double bits, for the integer-domain side.
    const MAGIC_BITS: i64 = 0x4338_0000_0000_0000;
    /// Largest |rounded term| a certified block admits.
    const TERM_MAX: i64 = 1 << 50;
    /// The most one block of admitted terms can move an accumulator.
    const BLOCK_SWING: i64 = J_BLOCK as i64 * TERM_MAX;

    pub(super) fn avx512_detected() -> bool {
        std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
    }

    /// AVX2's coordinate-magnitude guard: |a|, |b| < 2⁵⁰ bounds every
    /// subtract |a − b| < 2⁵¹, the window where the magic i64 → f64
    /// conversion is exact. Wider coordinate formats (coord_bits can
    /// reach 62) take the portable path instead.
    pub(super) fn magic_convertible(xi: &[[i64; 3]], j: &JSlices<'_>) -> bool {
        let ok = |v: i64| -(1i64 << 50) < v && v < (1i64 << 50);
        [j.x, j.y, j.z].iter().all(|s| s.iter().all(|&v| ok(v)))
            && xi.iter().all(|x| x.iter().all(|&v| ok(v)))
    }

    /// One x86 lane width: the vector operations `block_sum` is written
    /// in. Every method is `#[inline(always)]`, so the generic body
    /// compiles to straight-line intrinsics inside each
    /// `#[target_feature]` entry point.
    ///
    /// # Safety
    ///
    /// Every method needs the CPU features of its impl (AVX2, or
    /// AVX-512F/DQ); `load_i` and `load` read `W` elements at `p`.
    trait Simd {
        /// j-particles per iteration.
        const W: usize;
        /// `W × i64`.
        type I: Copy;
        /// `W × f64`.
        type F: Copy;
        /// A per-lane predicate (the zero-distance guard).
        type M: Copy;
        unsafe fn splat_i(v: i64) -> Self::I;
        unsafe fn splat(v: f64) -> Self::F;
        unsafe fn load_i(p: *const i64) -> Self::I;
        unsafe fn load(p: *const f64) -> Self::F;
        unsafe fn add_i(a: Self::I, b: Self::I) -> Self::I;
        unsafe fn sub_i(a: Self::I, b: Self::I) -> Self::I;
        /// `v as f64` per lane (AVX2: exact for |v| < 2⁵¹ only).
        unsafe fn to_f64(v: Self::I) -> Self::F;
        /// The raw bits of each lane.
        unsafe fn bits(a: Self::F) -> Self::I;
        unsafe fn add(a: Self::F, b: Self::F) -> Self::F;
        unsafe fn sub(a: Self::F, b: Self::F) -> Self::F;
        unsafe fn mul(a: Self::F, b: Self::F) -> Self::F;
        unsafe fn div(a: Self::F, b: Self::F) -> Self::F;
        unsafe fn sqrt(a: Self::F) -> Self::F;
        unsafe fn abs(a: Self::F) -> Self::F;
        /// Lanes where `d0 | d1 | d2 == 0`: coincident i and j.
        unsafe fn coincident(d0: Self::I, d1: Self::I, d2: Self::I) -> Self::M;
        /// `a` with the lanes in `m` set to `+0.0`.
        unsafe fn zero_where(m: Self::M, a: Self::F) -> Self::F;
        /// Lane-wise maximum (`b` where either is NaN).
        unsafe fn max(a: Self::F, b: Self::F) -> Self::F;
        /// Maximum of each signed 32-bit half.
        unsafe fn max_i32(a: Self::I, b: Self::I) -> Self::I;
        /// Store the lanes to `out[..W]`.
        unsafe fn store_i(v: Self::I, out: &mut [i64; 8]);
        unsafe fn store(v: Self::F, out: &mut [f64; 8]);
    }

    /// Expands `name(args) -> ret = body;` rows into `#[inline(always)]`
    /// trait methods: one row per lane operation.
    macro_rules! lane_ops {
        ($($name:ident($($a:ident: $t:ty),*) -> $r:ty = $e:expr;)*) => {
            $(#[inline(always)] unsafe fn $name($($a: $t),*) -> $r { $e })*
        };
    }

    struct Avx2;

    impl Simd for Avx2 {
        const W: usize = 4;
        type I = __m256i;
        type F = __m256d;
        type M = __m256d;
        lane_ops! {
            splat_i(v: i64) -> __m256i = _mm256_set1_epi64x(v);
            splat(v: f64) -> __m256d = _mm256_set1_pd(v);
            load_i(p: *const i64) -> __m256i = _mm256_loadu_si256(p.cast());
            load(p: *const f64) -> __m256d = _mm256_loadu_pd(p);
            add_i(a: __m256i, b: __m256i) -> __m256i = _mm256_add_epi64(a, b);
            sub_i(a: __m256i, b: __m256i) -> __m256i = _mm256_sub_epi64(a, b);
            to_f64(v: __m256i) -> __m256d = _mm256_sub_pd(
                _mm256_castsi256_pd(_mm256_add_epi64(v, _mm256_set1_epi64x(MAGIC_BITS))),
                _mm256_set1_pd(MAGIC),
            );
            bits(a: __m256d) -> __m256i = _mm256_castpd_si256(a);
            add(a: __m256d, b: __m256d) -> __m256d = _mm256_add_pd(a, b);
            sub(a: __m256d, b: __m256d) -> __m256d = _mm256_sub_pd(a, b);
            mul(a: __m256d, b: __m256d) -> __m256d = _mm256_mul_pd(a, b);
            div(a: __m256d, b: __m256d) -> __m256d = _mm256_div_pd(a, b);
            sqrt(a: __m256d) -> __m256d = _mm256_sqrt_pd(a);
            abs(a: __m256d) -> __m256d = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
            coincident(d0: __m256i, d1: __m256i, d2: __m256i) -> __m256d = _mm256_castsi256_pd(
                _mm256_cmpeq_epi64(_mm256_or_si256(_mm256_or_si256(d0, d1), d2), _mm256_setzero_si256()),
            );
            zero_where(m: __m256d, a: __m256d) -> __m256d = _mm256_andnot_pd(m, a);
            max(a: __m256d, b: __m256d) -> __m256d = _mm256_max_pd(a, b);
            max_i32(a: __m256i, b: __m256i) -> __m256i = _mm256_max_epi32(a, b);
            store_i(v: __m256i, out: &mut [i64; 8]) -> () = _mm256_storeu_si256(out.as_mut_ptr().cast(), v);
            store(v: __m256d, out: &mut [f64; 8]) -> () = _mm256_storeu_pd(out.as_mut_ptr(), v);
        }
    }

    struct Avx512;

    impl Simd for Avx512 {
        const W: usize = 8;
        type I = __m512i;
        type F = __m512d;
        type M = __mmask8;
        lane_ops! {
            splat_i(v: i64) -> __m512i = _mm512_set1_epi64(v);
            splat(v: f64) -> __m512d = _mm512_set1_pd(v);
            load_i(p: *const i64) -> __m512i = _mm512_loadu_si512(p.cast());
            load(p: *const f64) -> __m512d = _mm512_loadu_pd(p);
            add_i(a: __m512i, b: __m512i) -> __m512i = _mm512_add_epi64(a, b);
            sub_i(a: __m512i, b: __m512i) -> __m512i = _mm512_sub_epi64(a, b);
            to_f64(v: __m512i) -> __m512d = _mm512_cvtepi64_pd(v);
            bits(a: __m512d) -> __m512i = _mm512_castpd_si512(a);
            add(a: __m512d, b: __m512d) -> __m512d = _mm512_add_pd(a, b);
            sub(a: __m512d, b: __m512d) -> __m512d = _mm512_sub_pd(a, b);
            mul(a: __m512d, b: __m512d) -> __m512d = _mm512_mul_pd(a, b);
            div(a: __m512d, b: __m512d) -> __m512d = _mm512_div_pd(a, b);
            sqrt(a: __m512d) -> __m512d = _mm512_sqrt_pd(a);
            abs(a: __m512d) -> __m512d = _mm512_abs_pd(a);
            coincident(d0: __m512i, d1: __m512i, d2: __m512i) -> __mmask8 = {
                let d = _mm512_or_si512(_mm512_or_si512(d0, d1), d2);
                _mm512_testn_epi64_mask(d, d)
            };
            zero_where(m: __mmask8, a: __m512d) -> __m512d = _mm512_maskz_mov_pd(!m, a);
            max(a: __m512d, b: __m512d) -> __m512d = _mm512_max_pd(a, b);
            max_i32(a: __m512i, b: __m512i) -> __m512i = _mm512_max_epi32(a, b);
            store_i(v: __m512i, out: &mut [i64; 8]) -> () = _mm512_storeu_si512(out.as_mut_ptr().cast(), v);
            store(v: __m512d, out: &mut [f64; 8]) -> () = _mm512_storeu_pd(out.as_mut_ptr(), v);
        }
    }

    /// AVX2 certified block; exact for [`magic_convertible`] coordinates.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_avx2(k: &Kernel, a: &mut [i64; 4], x: [i64; 3], b: JBlock<'_>) {
        certified_block::<Avx2>(k, a, x, b)
    }

    /// AVX-512 certified block.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn block_avx512(k: &Kernel, a: &mut [i64; 4], x: [i64; 3], b: JBlock<'_>) {
        certified_block::<Avx512>(k, a, x, b)
    }

    /// One (i, j-block): the lane sum when the certificate holds, the
    /// scalar sequence otherwise.
    ///
    /// # Safety
    ///
    /// The CPU must have `V`'s features.
    #[inline(always)]
    unsafe fn certified_block<V: Simd>(k: &Kernel, a: &mut [i64; 4], x: [i64; 3], b: JBlock<'_>) {
        let (min, max) = (k.fmt.raw_min(), k.fmt.raw_max());
        let covers = min <= -TERM_MAX && max >= TERM_MAX;
        let room = a.iter().all(|&v| min + BLOCK_SWING <= v && v <= max - BLOCK_SWING);
        if covers && room {
            if let Some(sum) = block_sum::<V>(k, x, b) {
                for (ac, s) in a.iter_mut().zip(sum) {
                    *ac += s;
                }
                return;
            }
        }
        k.serial(a, x, b, 0);
    }

    /// Every term of `b` rounded and summed per component, or `None`
    /// when a lane is a tie, outside `|s| < 2⁵⁰`, or NaN. The remainder
    /// is padded to a full vector with j-particles coincident with i,
    /// which the zero-distance guard turns into raw-0 terms.
    ///
    /// # Safety
    ///
    /// The CPU must have `V`'s features.
    #[inline(always)]
    unsafe fn block_sum<V: Simd>(k: &Kernel, x: [i64; 3], b: JBlock<'_>) -> Option<[i64; 4]> {
        let mut acc = LaneSums::<V>::new(k, x);
        let (n, mut i) = (b.x.len(), 0);
        while i + V::W <= n {
            let (jx, jy, jz) = (b.x.as_ptr().add(i), b.y.as_ptr().add(i), b.z.as_ptr().add(i));
            acc.step(jx, jy, jz, b.m.as_ptr().add(i));
            i += V::W;
        }
        if i < n {
            let (mut px, mut py, mut pz, mut pm) = ([x[0]; 8], [x[1]; 8], [x[2]; 8], [0.0; 8]);
            px[..n - i].copy_from_slice(&b.x[i..]);
            py[..n - i].copy_from_slice(&b.y[i..]);
            pz[..n - i].copy_from_slice(&b.z[i..]);
            pm[..n - i].copy_from_slice(&b.m[i..]);
            acc.step(px.as_ptr(), py.as_ptr(), pz.as_ptr(), pm.as_ptr());
        }
        acc.finish()
    }

    /// One (i, block)'s splatted constants and running lane state. Its
    /// methods need the CPU features of `V`.
    struct LaneSums<V: Simd> {
        x: [V::I; 3],
        q: V::F,
        e2: V::F,
        enc: V::F,
        magic: V::F,
        sm: ScaleMode,
        /// Per component, the wrapping lane sums of `bits(s + M)`.
        sum: [V::I; 4],
        /// Running maxima of `bits(|s|)`, compared by 32-bit halves (the
        /// high half orders non-negative doubles, NaN above all).
        s_bits: V::I,
        /// Running maxima of `|s − rhe(s)|`.
        frac_max: V::F,
        /// Lanes stepped so far.
        terms: i64,
    }

    impl<V: Simd> LaneSums<V> {
        #[inline(always)]
        unsafe fn new(k: &Kernel, x: [i64; 3]) -> Self {
            const { assert!(V::W <= 8, "tail padding and lane stores hold 8 lanes") };
            LaneSums {
                x: [V::splat_i(x[0]), V::splat_i(x[1]), V::splat_i(x[2])],
                q: V::splat(k.quantum),
                e2: V::splat(k.eps2),
                enc: V::splat(k.enc),
                magic: V::splat(MAGIC),
                sm: k.sm,
                sum: [V::splat_i(0); 4],
                s_bits: V::splat_i(0),
                frac_max: V::splat(0.0),
                terms: 0,
            }
        }

        /// Evaluate and accumulate the `W` j-particles at the pointers.
        ///
        /// # Safety
        ///
        /// The CPU must have `V`'s features, and each pointer must be
        /// readable for `W` elements.
        #[inline(always)]
        unsafe fn step(&mut self, jx: *const i64, jy: *const i64, jz: *const i64, jm: *const f64) {
            let d0 = V::sub_i(V::load_i(jx), self.x[0]);
            let d1 = V::sub_i(V::load_i(jy), self.x[1]);
            let d2 = V::sub_i(V::load_i(jz), self.x[2]);
            let same = V::coincident(d0, d1, d2);
            let dx = V::mul(V::to_f64(d0), self.q);
            let dy = V::mul(V::to_f64(d1), self.q);
            let dz = V::mul(V::to_f64(d2), self.q);
            // (dx² + dy²) + dz² — explicit mul/add, never FMA, matching
            // pair_exact's association
            let r2 = V::add(V::add(V::mul(dx, dx), V::mul(dy, dy)), V::mul(dz, dz));
            let r2e = V::add(r2, self.e2);
            let rinv = V::div(V::splat(1.0), V::sqrt(r2e));
            let rinv3 = V::div(rinv, r2e);
            let m = V::load(jm);
            let s = V::mul(m, rinv3);
            let terms = [V::mul(dx, s), V::mul(dy, s), V::mul(dz, s), V::mul(m, rinv)];
            for (acc, &f) in self.sum.iter_mut().zip(&terms) {
                let f = V::zero_where(same, f);
                let f = match self.sm {
                    ScaleMode::One => f,
                    ScaleMode::Pow2Mul(inv) => V::mul(f, V::splat(inv)),
                    ScaleMode::Div(fs) => V::div(f, V::splat(fs)),
                };
                let scaled = V::mul(f, self.enc);
                let t = V::add(scaled, self.magic);
                *acc = V::add_i(*acc, V::bits(t));
                self.s_bits = V::max_i32(self.s_bits, V::bits(V::abs(scaled)));
                let frac = V::sub(scaled, V::sub(t, self.magic));
                self.frac_max = V::max(self.frac_max, V::abs(frac));
            }
            self.terms += V::W as i64;
        }

        /// The rounded terms summed per component, or `None` when a lane
        /// was a tie, outside `|s| < 2⁵⁰`, or NaN.
        #[inline(always)]
        unsafe fn finish(&self) -> Option<[i64; 4]> {
            let (mut hi, mut fr) = ([0i64; 8], [0.0f64; 8]);
            V::store_i(self.s_bits, &mut hi);
            V::store(self.frac_max, &mut fr);
            // 2⁵⁰'s low half is zero, so |s| ≥ 2⁵⁰ (or NaN) shows in the
            // high half alone; frac_max drops NaN, but a NaN s shows there
            let lim_hi = ((TERM_MAX as f64).to_bits() >> 32) as i64;
            let outside = hi[..V::W].iter().any(|&b| b >> 32 >= lim_hi);
            let tie = fr[..V::W].iter().any(|&f| f >= 0.5);
            if outside || tie {
                return None;
            }
            let bias = MAGIC_BITS.wrapping_mul(self.terms);
            let mut out = [0i64; 4];
            for (o, &v) in out.iter_mut().zip(&self.sum) {
                V::store_i(v, &mut hi);
                let total = hi[..V::W].iter().fold(0i64, |acc, &x| acc.wrapping_add(x));
                *o = total.wrapping_sub(bias);
            }
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArithMode, Grape5Config};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Run one exact-mode block through a forced lane path.
    #[allow(clippy::too_many_arguments)]
    fn run_path(
        path: LanePath,
        quantum: f64,
        eps: f64,
        xi: &[[i64; 3]],
        j: &JSlices<'_>,
        force_scale: f64,
        fmt: FixedFormat,
    ) -> Vec<Force> {
        let cfg = Grape5Config { mode: ArithMode::Exact, ..Grape5Config::paper() };
        let mut p = G5Pipeline::new(&cfg, quantum, eps);
        p.set_lane_path(path);
        let mut out = vec![Force::ZERO; xi.len()];
        p.interact_block(xi, j, force_scale, fmt, &mut out);
        out
    }

    fn assert_bits_equal(a: &[Force], b: &[Force], what: &str) {
        for (i, (fa, fb)) in a.iter().zip(b).enumerate() {
            let pa = [fa.acc.x, fa.acc.y, fa.acc.z, fa.pot].map(f64::to_bits);
            let pb = [fb.acc.x, fb.acc.y, fb.acc.z, fb.pot].map(f64::to_bits);
            assert_eq!(pa, pb, "{what}: bit mismatch at i-particle {i}: {fa:?} vs {fb:?}");
        }
    }

    /// i-positions plus SoA j-streams (x, y, z, m) for one test block.
    type RandomBlock = (Vec<[i64; 3]>, Vec<i64>, Vec<i64>, Vec<i64>, Vec<f64>);

    /// Random j-set with some coincident-with-i and zero-mass entries.
    fn random_block(rng: &mut ChaCha8Rng, ni: usize, nj: usize, span: i64) -> RandomBlock {
        let xi: Vec<[i64; 3]> = (0..ni)
            .map(|_| {
                [
                    rng.random_range(-span..span),
                    rng.random_range(-span..span),
                    rng.random_range(-span..span),
                ]
            })
            .collect();
        let mut jx = Vec::with_capacity(nj);
        let mut jy = Vec::with_capacity(nj);
        let mut jz = Vec::with_capacity(nj);
        let mut jm = Vec::with_capacity(nj);
        for k in 0..nj {
            if k % 17 == 3 && !xi.is_empty() {
                // coincident with some i-particle: zero-distance lane
                let x = xi[k % xi.len()];
                jx.push(x[0]);
                jy.push(x[1]);
                jz.push(x[2]);
            } else {
                jx.push(rng.random_range(-span..span));
                jy.push(rng.random_range(-span..span));
                jz.push(rng.random_range(-span..span));
            }
            jm.push(if k % 23 == 7 { 0.0 } else { rng.random_range(0.01..10.0) });
        }
        (xi, jx, jy, jz, jm)
    }

    fn all_paths() -> Vec<LanePath> {
        let mut v = vec![LanePath::Portable, LanePath::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                v.push(LanePath::Avx2);
            }
            if x86::avx512_detected() {
                v.push(LanePath::Avx512);
            }
        }
        v
    }

    /// Every path against the scalar skeleton on one j-set.
    #[allow(clippy::too_many_arguments)]
    fn assert_paths_agree(
        quantum: f64,
        eps: f64,
        xi: &[[i64; 3]],
        jx: &[i64],
        jy: &[i64],
        jz: &[i64],
        jm: &[f64],
        force_scale: f64,
        fmt: FixedFormat,
        what: &str,
    ) -> Vec<Force> {
        let lns = Grape5Config::paper().lns;
        let jml: Vec<_> = jm.iter().map(|&m| lns.encode(m)).collect();
        let j = JSlices { x: jx, y: jy, z: jz, m: jm, m_lns: &jml };
        let refr = run_path(LanePath::Scalar, quantum, eps, xi, &j, force_scale, fmt);
        for path in all_paths() {
            let got = run_path(path, quantum, eps, xi, &j, force_scale, fmt);
            assert_bits_equal(&refr, &got, &format!("{path:?} {what}"));
        }
        refr
    }

    #[test]
    fn lane_paths_agree_bitwise_on_random_blocks() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let fmt = FixedFormat::new(64, 32);
        // j-counts cover remainder tails (≢ 0 mod 4 and 8) and block edges
        for &nj in &[0usize, 1, 3, 4, 5, 17, 301, 512, 513, 1000] {
            for &ni in &[1usize, 2, 16, 17] {
                let (xi, jx, jy, jz, jm) = random_block(&mut rng, ni, nj, 1 << 30);
                for &(eps, fs) in &[(0.0, 1.0), (0.01, 0.25), (0.01, 1.37e-7)] {
                    let what = format!("nj={nj} ni={ni} eps={eps} fs={fs}");
                    assert_paths_agree(2e-10, eps, &xi, &jx, &jy, &jz, &jm, fs, fmt, &what);
                }
            }
        }
    }

    #[test]
    fn saturating_terms_agree_via_encode_fallback() {
        // Huge masses push |scaled| past 2^50: the vector path must
        // defer to the scalar encode, including format saturation.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for fmt in [FixedFormat::new(64, 32), FixedFormat::new(16, 8)] {
            let (xi, jx, jy, jz, mut jm) = random_block(&mut rng, 5, 37, 1 << 20);
            for (k, m) in jm.iter_mut().enumerate() {
                if k % 3 == 0 {
                    *m *= 1e30; // saturating term
                }
            }
            let what = format!("fmt={fmt:?}");
            assert_paths_agree(1e-6, 0.001, &xi, &jx, &jy, &jz, &jm, 1.0, fmt, &what);
        }
    }

    #[test]
    fn wide_coordinates_take_the_guard_and_agree() {
        // Raw words at ±2^60: outside the magic-conversion window, so
        // the AVX2 entry must fall back to the portable kernel whole.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let fmt = FixedFormat::new(64, 32);
        let (xi, jx, jy, jz, jm) = random_block(&mut rng, 4, 29, 1 << 60);
        assert_paths_agree(1e-19, 0.0, &xi, &jx, &jy, &jz, &jm, 1.0, fmt, "wide coords");
    }

    /// A clean j-set in unit-distance shells around an i at the origin:
    /// `quantum = 2⁻²⁰`, so a raw offset of 2²⁰ is distance 1.
    fn shell(rng: &mut ChaCha8Rng, nj: usize) -> (Vec<i64>, Vec<i64>, Vec<i64>, Vec<f64>) {
        let r = 1i64 << 20;
        let mut v = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..nj {
            v.0.push(rng.random_range(-3 * r..3 * r));
            v.1.push(rng.random_range(-3 * r..3 * r));
            v.2.push(rng.random_range(2 * r..3 * r));
            v.3.push(rng.random_range(0.1..1.0));
        }
        v
    }

    #[test]
    fn certificate_falls_back_on_an_exact_tie() {
        // j at unit distance along ±x, ε = 0, scale 1, m = 2⁻³³: fx = pot
        // = m, which is exactly ½ after the ×2³² encode. Half-away gives
        // raw ±1, half-even gives 0; the block must take the serial path.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let fmt = FixedFormat::new(64, 32);
        let q = (-20f64).exp2();
        let m = (-33f64).exp2();
        for (sign, tie_at) in [(1i64, 0usize), (-1, 5), (1, 13)] {
            let (mut jx, mut jy, mut jz, mut jm) = shell(&mut rng, 16);
            for other in jm.iter_mut() {
                *other *= 1e-12;
            }
            jx[tie_at] = sign << 20;
            jy[tie_at] = 0;
            jz[tie_at] = 0;
            jm[tie_at] = m;
            // only the tie contributes a nonzero term; the others round to 0
            let f = assert_paths_agree(q, 0.0, &[[0; 3]], &jx, &jy, &jz, &jm, 1.0, fmt, "tie");
            let lsb = fmt.quantum();
            assert_eq!(f[0].acc.x, sign as f64 * lsb, "half-away on fx (sign {sign})");
            assert_eq!(f[0].pot, lsb, "half-away on pot");
        }
    }

    #[test]
    fn certificate_falls_back_on_one_bad_lane() {
        // One NaN mass, or one term outside |s| < 2⁵⁰, in an otherwise
        // clean 64-j block: the block is flagged and redone serially.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let fmt = FixedFormat::new(64, 32);
        let q = (-20f64).exp2();
        for (bad, m) in
            [(0usize, f64::NAN), (37, f64::NAN), (9, 1e9), (63, -1e9), (20, f64::INFINITY)]
        {
            let (jx, jy, jz, mut jm) = shell(&mut rng, 64);
            jm[bad] = m;
            let xi = [[0; 3], [1 << 19, -(1 << 18), 7]];
            let what = format!("bad lane {bad} m {m}");
            assert_paths_agree(q, 0.01, &xi, &jx, &jy, &jz, &jm, 1.0, fmt, &what);
        }
    }

    #[test]
    fn certificate_falls_back_when_headroom_runs_out() {
        // Five blocks of j at unit distance along ±x with m ≈ 1.9·2¹⁷ a
        // multiple of 2⁻³²: every term encodes to an integer ≈ 1.9·2⁴⁹ —
        // in window, no ties — and a block sums to ≈ 0.95·2⁵⁹. A 62-bit
        // accumulator tops out at 2⁶¹ − 1 ≈ 4·2⁵⁹, so blocks 1–4 start
        // inside the 2⁵⁹ headroom window and certify, and the last one
        // starts at ≈ 3.8·2⁵⁹, outside it: it goes serial and the sum ends
        // saturated. Ending on that block means a wrongly admitted one
        // would overshoot the range instead of being clamped later.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let fmt = FixedFormat::new(62, 32);
        let q = (-20f64).exp2();
        let nj = 5 * J_BLOCK;
        for sign in [1i64, -1] {
            let jx = vec![sign << 20; nj];
            let (jy, jz) = (vec![0i64; nj], vec![0i64; nj]);
            let jm: Vec<f64> = (0..nj)
                .map(|_| {
                    (rng.random_range(1.85f64..1.95) * (49f64).exp2()).round() * (-32f64).exp2()
                })
                .collect();
            let f = assert_paths_agree(q, 0.0, &[[0; 3]], &jx, &jy, &jz, &jm, 1.0, fmt, "headroom");
            let want = if sign > 0 { fmt.raw_max() } else { fmt.raw_min() };
            assert_eq!(f[0].acc.x, fmt.decode_raw(want), "fx ends saturated (sign {sign})");
            assert_eq!(f[0].pot, fmt.decode_raw(fmt.raw_max()), "pot ends saturated");
        }
    }

    #[test]
    fn tails_around_block_edges_agree() {
        // j-counts ≡ 1…7 (mod 8) on both sides of the first two block
        // edges, so every tail length meets a full and a partial block.
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let fmt = FixedFormat::new(64, 32);
        let q = (-20f64).exp2();
        let (jx, jy, jz, jm) = shell(&mut rng, 2 * J_BLOCK + 8);
        let xi = [[0; 3], [1 << 20, 0, 0], [-(1 << 19), 1 << 20, 1 << 21]];
        for edge in [J_BLOCK, 2 * J_BLOCK] {
            for nj in (edge - 7..edge).chain(edge + 1..edge + 8) {
                let what = format!("nj={nj}");
                let (x, y, z, m) = (&jx[..nj], &jy[..nj], &jz[..nj], &jm[..nj]);
                assert_paths_agree(q, 0.005, &xi, x, y, z, m, 1.0, fmt, &what);
            }
        }
    }

    #[test]
    fn lane_path_choice_follows_request_then_cpu() {
        use LanePath::*;
        for (avx2, avx512) in [(false, false), (true, false), (true, true)] {
            let widest = if avx512 {
                Avx512
            } else if avx2 {
                Avx2
            } else {
                Portable
            };
            assert_eq!(choose_lane_path(None, avx2, avx512), widest);
            assert_eq!(choose_lane_path(Some("unknown"), avx2, avx512), widest);
            assert_eq!(choose_lane_path(Some("portable"), avx2, avx512), Portable);
            assert_eq!(choose_lane_path(Some("scalar"), avx2, avx512), Scalar);
            let forced = if avx2 { Avx2 } else { Portable };
            assert_eq!(choose_lane_path(Some("avx2"), avx2, avx512), forced);
        }
        // detection itself returns a path this CPU can run
        assert!(all_paths().contains(&detect_lane_path()));
    }
}
