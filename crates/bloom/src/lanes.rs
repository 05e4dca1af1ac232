//! Lane-parallel kernels over packed candidate words.
//!
//! The batch detection kernel touches many granules' candidate vectors
//! with the *same* held-lock vector: every updated granule performs the
//! §3.3 AND followed by the branch-free zero-field emptiness test. Both
//! operations are pure 64-bit integer arithmetic, so they vectorize
//! exactly — a SIMD lane computes bit-for-bit the value the scalar loop
//! computes — and the kernels here are interchangeable without
//! affecting detection output.
//!
//! Two implementations share one contract ([`intersect_empty`]):
//!
//! * [`LaneKernel::Unroll4`] — four independent scalar lanes per
//!   iteration; portable to every target, gives the compiler free rein
//!   to schedule (and often auto-vectorize) the lanes.
//! * [`LaneKernel::Simd`] — explicit `u64x4` lanes via AVX2 intrinsics
//!   on `x86_64`; silently identical to `Unroll4` where AVX2 is not
//!   available, so the variant is always safe to select.
//!
//! [`LaneKernel::auto`] picks the widest kernel the running CPU
//! supports. Both are pinned to a per-word reference loop by
//! exhaustive tests here, and to `PackedLineMeta::access` by the
//! span proptests in `crates/lockset`.

use crate::BloomShape;

/// How many words a wide iteration processes.
pub const LANE_WIDTH: usize = 4;

/// The largest slice [`intersect_empty`] accepts (results are returned
/// as a 64-bit per-word mask).
pub const MAX_LANE_WORDS: usize = 64;

/// Which implementation of the fused intersect + emptiness kernel to
/// run. All variants produce bit-identical results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LaneKernel {
    /// Four independent scalar lanes per iteration.
    Unroll4,
    /// Explicit 4×64-bit SIMD lanes (AVX2 on `x86_64`), falling back
    /// to [`LaneKernel::Unroll4`] semantics where unsupported.
    Simd,
}

impl LaneKernel {
    /// The widest kernel the running CPU supports: `Simd` where AVX2 is
    /// detected, `Unroll4` otherwise.
    #[must_use]
    pub fn auto() -> LaneKernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return LaneKernel::Simd;
        }
        LaneKernel::Unroll4
    }

    /// Short human-readable kernel name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LaneKernel::Unroll4 => "unroll4",
            LaneKernel::Simd => "simd",
        }
    }
}

/// The fused batch kernel: ANDs every word of `words` with `held` in
/// place, and returns a mask with bit `i` set iff the updated word `i`
/// has an all-zero bloom part (the §3.3 empty-intersection signal).
///
/// Equivalent to, for each `i`:
/// `words[i] &= held; mask |= (shape.has_empty_part(words[i]) as u64) << i`.
///
/// # Panics
///
/// Panics if `words` has more than [`MAX_LANE_WORDS`] entries.
#[must_use]
pub fn intersect_empty(kernel: LaneKernel, shape: BloomShape, words: &mut [u64], held: u64) -> u64 {
    assert!(
        words.len() <= MAX_LANE_WORDS,
        "lane kernel mask covers at most {MAX_LANE_WORDS} words, got {}",
        words.len()
    );
    match kernel {
        LaneKernel::Unroll4 => intersect_empty_unroll4(shape, words, held),
        LaneKernel::Simd => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 availability was just checked.
                return unsafe { intersect_empty_avx2(shape, words, held) };
            }
            intersect_empty_unroll4(shape, words, held)
        }
    }
}

fn intersect_empty_unroll4(shape: BloomShape, words: &mut [u64], held: u64) -> u64 {
    let lows = shape.low_bits();
    let highs = shape.high_bits();
    let mut mask = 0u64;
    let mut i = 0;
    while i + LANE_WIDTH <= words.len() {
        let a = words[i] & held;
        let b = words[i + 1] & held;
        let c = words[i + 2] & held;
        let d = words[i + 3] & held;
        words[i] = a;
        words[i + 1] = b;
        words[i + 2] = c;
        words[i + 3] = d;
        let ea = a.wrapping_sub(lows) & !a & highs;
        let eb = b.wrapping_sub(lows) & !b & highs;
        let ec = c.wrapping_sub(lows) & !c & highs;
        let ed = d.wrapping_sub(lows) & !d & highs;
        mask |= u64::from(ea != 0) << i;
        mask |= u64::from(eb != 0) << (i + 1);
        mask |= u64::from(ec != 0) << (i + 2);
        mask |= u64::from(ed != 0) << (i + 3);
        i += LANE_WIDTH;
    }
    while i < words.len() {
        let w = words[i] & held;
        words[i] = w;
        mask |= u64::from(w.wrapping_sub(lows) & !w & highs != 0) << i;
        i += 1;
    }
    mask
}

/// The AVX2 lane kernel: four 64-bit words per iteration, computing the
/// same wrapping-sub/and-not identity `Unroll4` computes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn intersect_empty_avx2(shape: BloomShape, words: &mut [u64], held: u64) -> u64 {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_castsi256_pd, _mm256_cmpeq_epi64,
        _mm256_loadu_si256, _mm256_movemask_pd, _mm256_set1_epi64x, _mm256_setzero_si256,
        _mm256_storeu_si256, _mm256_sub_epi64,
    };
    let lows = _mm256_set1_epi64x(shape.low_bits() as i64);
    let highs = _mm256_set1_epi64x(shape.high_bits() as i64);
    let heldv = _mm256_set1_epi64x(held as i64);
    let zero = _mm256_setzero_si256();
    let mut mask = 0u64;
    let mut i = 0;
    // Two independent 4-lane vectors per iteration: the loads, tests
    // and movemasks of the pair have no data dependence, so they
    // pipeline instead of serialising on one accumulator chain.
    while i + 2 * LANE_WIDTH <= words.len() {
        let p0 = words.as_mut_ptr().add(i).cast::<__m256i>();
        let p1 = words.as_mut_ptr().add(i + LANE_WIDTH).cast::<__m256i>();
        let v0 = _mm256_and_si256(_mm256_loadu_si256(p0), heldv);
        let v1 = _mm256_and_si256(_mm256_loadu_si256(p1), heldv);
        _mm256_storeu_si256(p0, v0);
        _mm256_storeu_si256(p1, v1);
        // (v - lows) & !v & highs, per lane. `sub_epi64` wraps, exactly
        // like the scalar `wrapping_sub`.
        let e0 = _mm256_and_si256(_mm256_andnot_si256(v0, _mm256_sub_epi64(v0, lows)), highs);
        let e1 = _mm256_and_si256(_mm256_andnot_si256(v1, _mm256_sub_epi64(v1, lows)), highs);
        // A lane compares equal to zero iff it has NO empty part; the
        // sign-bit movemask over the equality result therefore marks
        // the non-empty lanes, and its complement the empty ones.
        let n0 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(e0, zero))) as u32;
        let n1 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(e1, zero))) as u32;
        mask |= u64::from(!n0 & 0xF) << i;
        mask |= u64::from(!n1 & 0xF) << (i + LANE_WIDTH);
        i += 2 * LANE_WIDTH;
    }
    while i + LANE_WIDTH <= words.len() {
        let p = words.as_mut_ptr().add(i).cast::<__m256i>();
        let v = _mm256_and_si256(_mm256_loadu_si256(p), heldv);
        _mm256_storeu_si256(p, v);
        let e = _mm256_and_si256(_mm256_andnot_si256(v, _mm256_sub_epi64(v, lows)), highs);
        let none = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(e, zero))) as u32;
        mask |= u64::from(!none & 0xF) << i;
        i += LANE_WIDTH;
    }
    let lows = shape.low_bits();
    let highs = shape.high_bits();
    while i < words.len() {
        let w = words[i] & held;
        words[i] = w;
        mask |= u64::from(w.wrapping_sub(lows) & !w & highs != 0) << i;
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [LaneKernel; 2] = [LaneKernel::Unroll4, LaneKernel::Simd];

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *state ^ (*state >> 29)
    }

    /// The per-word reference the fused kernel must reproduce exactly.
    fn reference(shape: BloomShape, words: &mut [u64], held: u64) -> u64 {
        let mut mask = 0u64;
        for (i, w) in words.iter_mut().enumerate() {
            *w &= held;
            mask |= u64::from(shape.has_empty_part(*w)) << i;
        }
        mask
    }

    #[test]
    fn all_kernels_match_the_reference_on_random_slices() {
        let mut rng = 0x5EED_CAFEu64;
        for shape in [BloomShape::B16, BloomShape::B32, BloomShape::new(16)] {
            for len in 0..=MAX_LANE_WORDS {
                let base: Vec<u64> = (0..len).map(|_| lcg(&mut rng)).collect();
                let held = lcg(&mut rng);
                let mut expect = base.clone();
                let expect_mask = reference(shape, &mut expect, held);
                for kernel in KERNELS {
                    let mut got = base.clone();
                    let got_mask = intersect_empty(kernel, shape, &mut got, held);
                    assert_eq!(got, expect, "{shape} len {len} {}", kernel.name());
                    assert_eq!(got_mask, expect_mask, "{shape} len {len} {}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn held_full_mask_is_identity_on_the_vector_bits() {
        let shape = BloomShape::B16;
        let mut words: Vec<u64> = (0..16u64).map(|i| i * 0x1111).collect();
        let expect = words.clone();
        for kernel in KERNELS {
            let mut w = words.clone();
            let _ = intersect_empty(kernel, shape, &mut w, u64::MAX);
            assert_eq!(w, expect, "{}", kernel.name());
        }
        let _ = intersect_empty(LaneKernel::Unroll4, shape, &mut words, 0);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn auto_picks_a_wide_kernel() {
        let k = LaneKernel::auto();
        assert!(matches!(k, LaneKernel::Unroll4 | LaneKernel::Simd));
        assert!(!k.name().is_empty());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_slices_are_rejected() {
        let mut words = vec![0u64; MAX_LANE_WORDS + 1];
        let _ = intersect_empty(LaneKernel::Unroll4, BloomShape::B16, &mut words, 0);
    }
}
