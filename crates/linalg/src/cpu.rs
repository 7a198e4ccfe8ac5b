//! Run-time CPU feature detection shared by the SIMD kernels of the
//! triangular solves and the Cholesky factorization. The Rust baseline
//! target is SSE2; wider kernels are compiled with `#[target_feature]` and
//! picked here, once per process.

use std::sync::OnceLock;

/// Best instruction set available on this CPU for the SIMD kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512F: 8-lane f64 vectors and mask registers.
    Avx512,
    /// AVX2 + FMA: 4-lane f64 FMA.
    Fma,
    /// Neither — use the portable loops.
    Portable,
}

/// Detect (once) the widest usable kernel set. Inlined into the kernels'
/// dispatch, which the triangular solves run once per panel.
#[inline]
pub(crate) fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if is_x86_feature_detected!("avx512f") {
            Isa::Avx512
        } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            Isa::Fma
        } else {
            Isa::Portable
        }
    })
}
