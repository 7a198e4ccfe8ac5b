//! Branch-free transcendental kernels written so LLVM auto-vectorizes them.
//!
//! `libm`'s `exp` is a function call per element with data-dependent
//! branches, which blocks vectorization of the elementwise pass that turns
//! squared distances into covariance entries. For a pool of `m` candidates
//! against `n` training points that pass touches `m * n` elements and is
//! one of the three costs of batched prediction (alongside the
//! cross-covariance matmul and the multi-RHS triangular solve).
//!
//! The routine here uses Cody–Waite range reduction (`x = k ln2 + r`,
//! `|r| <= ln2/2`) with the rounding-shift trick to extract `k` without a
//! float→int conversion, a degree-13 Taylor polynomial for `e^r`, and an
//! exponent-field rebuild for `2^k` — all straight-line arithmetic and bit
//! ops on `f64`/`u64`, so the compiler turns the slice loop into SIMD code
//! on any target (and into FMA-heavy AVX code with `-C target-cpu` set).

/// `ln 2` split so that `k * LN2_HI` is exact for `|k| < 2^20` (the low
/// mantissa bits of `LN2_HI` are zero).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// `1.5 * 2^52`: adding it forces round-to-nearest-integer in the mantissa.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// Below this `exp(x)` is subnormal-or-zero; we flush to exactly 0.
const UNDERFLOW: f64 = -708.0;
/// Above this `exp(x)` overflows; inputs saturate at `exp(709)`.
const OVERFLOW: f64 = 709.0;

/// One branch-free `exp` evaluation; a few ulps of `f64::exp`.
// The coefficient literals carry full 1/k! decimal expansions; the extra
// digits round to the same f64 but keep the provenance obvious.
#[allow(clippy::excessive_precision)]
#[inline(always)]
fn exp_approx(x: f64) -> f64 {
    let xc = x.clamp(UNDERFLOW, OVERFLOW);
    let kf = xc * std::f64::consts::LOG2_E + SHIFT;
    // The integer k sits in the low mantissa bits, offset by 2^51.
    let ki = (kf.to_bits() & ((1u64 << 52) - 1)) as i64 - (1i64 << 51);
    let kr = kf - SHIFT;
    let r = (xc - kr * LN2_HI) - kr * LN2_LO;
    // Taylor e^r to degree 13; truncation < 5e-18 for |r| <= ln2/2.
    let mut p = 1.605_904_383_682_161_5e-10; // 1/13!
    p = p * r + 2.087_675_698_786_810_0e-9; // 1/12!
    p = p * r + 2.505_210_838_544_171_9e-8; // 1/11!
    p = p * r + 2.755_731_922_398_589_1e-7; // 1/10!
    p = p * r + 2.755_731_922_398_589_4e-6; // 1/9!
    p = p * r + 2.480_158_730_158_730_2e-5; // 1/8!
    p = p * r + 1.984_126_984_126_984_1e-4; // 1/7!
    p = p * r + 1.388_888_888_888_888_9e-3; // 1/6!
    p = p * r + 8.333_333_333_333_333_3e-3; // 1/5!
    p = p * r + 4.166_666_666_666_666_4e-2; // 1/4!
    p = p * r + 1.666_666_666_666_666_6e-1; // 1/3!
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k via the exponent field; `ki` is in [-1022, 1023] after the clamp.
    let two_k = f64::from_bits(((1023 + ki) as u64) << 52);
    let y = p * two_k;
    if x < UNDERFLOW {
        0.0
    } else {
        y
    }
}

/// Overwrite every element with `scale * exp(x)`.
///
/// Accuracy: a few ulps (~1e-15 relative) of `scale * f64::exp(x)`;
/// `exp(0)` is exactly `1`, so diagonal covariance entries stay exact.
/// Domain: finite inputs. `x < -708` flushes to exactly `0.0`; `x > 709`
/// saturates at `exp(709) * scale` instead of overflowing. NaN inputs
/// produce unspecified finite output — callers here pass (negated halved)
/// squared distances, which are finite by construction.
///
/// On x86-64 the loop is re-compiled under AVX2+FMA and dispatched at
/// runtime (like the triangular-solve kernels), so a baseline build still
/// gets 4-wide FMA code; the fused Horner steps differ from the portable
/// path by at most a few ulps.
pub fn exp_inplace_scaled(xs: &mut [f64], scale: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static HAS_FMA: OnceLock<bool> = OnceLock::new();
        let fma = *HAS_FMA.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        });
        if fma {
            // SAFETY: avx2+fma presence was just verified.
            unsafe { exp_slice_fma(xs, scale) };
            return;
        }
    }
    exp_slice_portable(xs, scale);
}

fn exp_slice_portable(xs: &mut [f64], scale: f64) {
    for x in xs.iter_mut() {
        *x = exp_approx(*x) * scale;
    }
}

/// The same straight-line loop compiled with AVX2+FMA enabled; the
/// `#[target_feature]` boundary lets LLVM vectorize it 4-wide with fused
/// multiply-adds even when the crate is built for baseline x86-64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp_slice_fma(xs: &mut [f64], scale: f64) {
    for x in xs.iter_mut() {
        *x = exp_approx(*x) * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(got: f64, want: f64) -> f64 {
        (got - want).abs() / want.abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn matches_libm_on_kernel_range() {
        // The covariance pass feeds arguments in (-inf, 0]; sweep the part
        // that produces non-negligible kernel values densely.
        let mut worst = 0.0f64;
        let mut x = -60.0;
        while x <= 0.0 {
            let mut v = [x];
            exp_inplace_scaled(&mut v, 1.0);
            worst = worst.max(rel_err(v[0], x.exp()));
            x += 1e-3;
        }
        assert!(worst < 1e-14, "worst rel err {worst:e}");
    }

    #[test]
    fn matches_libm_on_broad_range() {
        let mut worst = 0.0f64;
        for i in -7000..=7000 {
            let x = i as f64 * 0.1;
            if !(UNDERFLOW..=OVERFLOW).contains(&x) {
                continue;
            }
            let mut v = [x];
            exp_inplace_scaled(&mut v, 1.0);
            worst = worst.max(rel_err(v[0], x.exp()));
        }
        assert!(worst < 1e-13, "worst rel err {worst:e}");
    }

    #[test]
    fn zero_is_exact_and_scale_applies() {
        let mut v = [0.0, -1.0];
        exp_inplace_scaled(&mut v, 2.25);
        assert_eq!(v[0], 2.25);
        assert!(rel_err(v[1], 2.25 * (-1.0f64).exp()) < 1e-14);
    }

    #[test]
    fn deep_negative_flushes_to_zero() {
        let mut v = [-709.0, -1.0e6, f64::NEG_INFINITY.max(f64::MIN), -750.0];
        exp_inplace_scaled(&mut v, 3.0);
        for (i, got) in v.iter().enumerate() {
            assert_eq!(*got, 0.0, "element {i}");
        }
    }

    /// An element's result does not depend on where it falls: at every
    /// position of slices of 1 to 40 elements (every lane of the vector
    /// chunks, and the scalar tail after them) it gets the bits it gets
    /// alone. The LML fit state relies on this when it exponentiates only
    /// the packed rows of new training points.
    #[test]
    fn an_element_gets_the_same_bits_at_every_position() {
        let value = |k: usize| -((k * 37 % 101) as f64) * 0.173;
        for len in 1..=40 {
            let mut v: Vec<f64> = (0..len).map(value).collect();
            exp_inplace_scaled(&mut v, 1.7);
            for (k, got) in v.iter().enumerate() {
                let mut alone = [value(k)];
                exp_inplace_scaled(&mut alone, 1.7);
                assert_eq!(got.to_bits(), alone[0].to_bits(), "len {len}, position {k}");
            }
        }
    }

    #[test]
    fn positive_side_stays_finite() {
        let mut v = [700.0, 709.0, 800.0];
        exp_inplace_scaled(&mut v, 1.0);
        assert!(rel_err(v[0], 700.0f64.exp()) < 1e-13);
        assert!(v[1].is_finite() && v[2].is_finite());
        assert_eq!(v[2], v[1], "above the clamp everything saturates");
    }
}
