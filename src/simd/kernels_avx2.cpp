// AVX2 backend: widen-accumulate integer dot products over segmented rows.
//
// This is the only TU in the library compiled with -mavx2 (per-source flag
// in src/CMakeLists.txt), so the rest of the binary stays plain x86-64 and
// dispatch.cpp gates entry on a runtime cpuid check. Without the flag the
// TU compiles to the nullptr stub at the bottom.
//
// Kernel shape, per kKTile (16-lane) block:
//   1. load 16 int8 from each operand,
//   2. sign-extend to 16 x int16 (_mm256_cvtepi8_epi16) — two digits now
//      ride each 32-bit madd input pair,
//   3. _mm256_madd_epi16: multiply int16 lanes, add adjacent pairs into
//      8 x int32 — exact, because |int8*int8| <= 2^14 and a pair sum
//      <= 2^15 (static_assert in kernels.hpp), so the signed-saturation
//      edge of the maddubs-style tricks never applies,
//   4. accumulate the int32 lanes (or widen each block's lanes to int64 for
//      the acc64 kernel, which must stay exact past int32 headroom).
// The GEMM block kernel (dot_block) inserts one _mm256_sra_epi16 per
// operand row between steps 2 and 3: the arithmetic shift of the
// sign-extended int16 lanes is exactly v >> shift, so the high digits come
// out of the one full-code stream without a second packed copy. It widens
// each of its 2 activation rows and 4 filter rows once per block and feeds
// 8 madds into 8 tile accumulators, so a widened operand serves 2 or 4
// outputs instead of one.
// Integer addition is associative, so the lane-parallel accumulation is
// bit-identical to the scalar reference for every input.
#include "simd/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace odq::simd {

namespace {

inline __m256i madd_block(const std::int8_t* a, const std::int8_t* b) {
  const __m256i a16 = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const __m256i b16 = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
  return _mm256_madd_epi16(a16, b16);
}

inline std::int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// One accumulator for the whole dot: every lane block of every segment
// adds its madd into it (the madds are independent, so the one add chain
// is not the bottleneck), and the single horizontal reduction happens
// after the last segment.
std::int32_t dot_i8_avx2(const std::int8_t* a, const std::int8_t* b,
                         std::int64_t seg, std::int64_t nseg,
                         std::int64_t pitch) {
  __m256i acc = _mm256_setzero_si256();
  for (std::int64_t s = 0; s < nseg; ++s, a += pitch, b += seg) {
    for (std::int64_t p = 0; p < seg; p += kKTileLanes) {
      acc = _mm256_add_epi32(acc, madd_block(a + p, b + p));
    }
  }
  return hsum_epi32(acc);
}

std::int64_t dot_i8_acc64_avx2(const std::int8_t* a, const std::int8_t* b,
                               std::int64_t kp) {
  __m256i acc = _mm256_setzero_si256();  // 4 x int64
  for (std::int64_t p = 0; p < kp; p += kKTileLanes) {
    // Each block's 8 int32 partial sums are exact (<= 2^15 each); widening
    // them into int64 lanes *every block* keeps the running sum exact even
    // where an int32 accumulation would wrap.
    const __m256i s32 = madd_block(a + p, b + p);
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(s32)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(s32, 1)));
  }
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return _mm_cvtsi128_si64(s) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s));
}

// One operand row of a lane block: 16 int8 codes widened to int16 and
// shifted arithmetically, so the high digits never leave the register (a
// shift of 0 leaves the codes as they are).
inline __m256i widen_block(const std::int8_t* p, __m128i count) {
  return _mm256_sra_epi16(
      _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
      count);
}

// Reduces one tile row's four filter accumulators to their four int32 sums:
// two hadd levels leave [s0 s1 s2 s3] in each 128-bit half, which one add
// folds together.
inline void store_row(__m256i f0, __m256i f1, __m256i f2, __m256i f3,
                      std::int32_t* out) {
  const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(f0, f1),
                                      _mm256_hadd_epi32(f2, f3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_add_epi32(_mm256_castsi256_si128(h),
                                 _mm256_extracti128_si256(h, 1)));
}

// 2 x 4 tile in 8 accumulators: per lane block, each of the 2 activation
// rows and 4 filter rows is widened and shifted once, then 8 madds. 14 of
// the 16 ymm registers are live in the loop. The accumulators carry across
// the segments; each tile row is reduced once, after the last segment.
void dot_block_avx2(const std::int8_t* const* a, const std::int8_t* const* b,
                    std::int64_t seg, std::int64_t nseg, std::int64_t pitch,
                    int shift, std::int32_t* out) {
  const __m128i count = _mm_cvtsi32_si128(shift);
  const std::int8_t *a0 = a[0], *a1 = a[1];
  const std::int8_t *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c02 = _mm256_setzero_si256(), c03 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c12 = _mm256_setzero_si256(), c13 = _mm256_setzero_si256();
  for (std::int64_t s = 0; s < nseg; ++s) {
    for (std::int64_t p = 0; p < seg; p += kKTileLanes) {
      const __m256i x0 = widen_block(a0 + p, count);
      const __m256i x1 = widen_block(a1 + p, count);
      __m256i w = widen_block(b0 + p, count);
      c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(x0, w));
      c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(x1, w));
      w = widen_block(b1 + p, count);
      c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(x0, w));
      c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(x1, w));
      w = widen_block(b2 + p, count);
      c02 = _mm256_add_epi32(c02, _mm256_madd_epi16(x0, w));
      c12 = _mm256_add_epi32(c12, _mm256_madd_epi16(x1, w));
      w = widen_block(b3 + p, count);
      c03 = _mm256_add_epi32(c03, _mm256_madd_epi16(x0, w));
      c13 = _mm256_add_epi32(c13, _mm256_madd_epi16(x1, w));
    }
    a0 += pitch;
    a1 += pitch;
    b0 += seg;
    b1 += seg;
    b2 += seg;
    b3 += seg;
  }
  store_row(c00, c01, c02, c03, out);
  store_row(c10, c11, c12, c13, out + kBlockFilters);
}

constexpr Kernels kAvx2Kernels = {"avx2", dot_i8_avx2, dot_i8_acc64_avx2,
                                  dot_block_avx2};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace odq::simd

#else  // !__AVX2__: TU built without the ISA (non-x86 target, or a compiler
       // without -mavx2) — report "not compiled in".

namespace odq::simd {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace odq::simd

#endif
