// Bit-exact SIMD dot-product kernels for the ODQ conv-GEMM core.
//
// Every kernel here computes an *integer* sum whose value is independent of
// accumulation order, so the scalar reference and the AVX2 backend are
// interchangeable bit-for-bit — the `simd`-labelled differential suite
// (tests/simd/) sweeps every lane-boundary shape across all available
// backends and asserts exactly that.
//
// Contract shared by dot_i8 and dot_block — the segmented operand:
//   * An activation row is `nseg` segments of `seg` int8 codes, segment s
//     starting at a + s * pitch: one segment per kernel row of a
//     gemm::CodeWindow (gemm/window.hpp), so the row is read straight out
//     of the zero-bordered NHWC codes with no im2col copy. A filter row is
//     the same nseg * seg codes stored contiguously (segment s at
//     b + s * seg), the tap-major filter panel.
//   * `seg` is a multiple of kKTileLanes (16), so vector loops never handle
//     a remainder and scalar unrolls never need a tail.
//   * Operands are full int8 codes — one code stream per operand, no digit
//     planes. dot_block extracts the high digit v >> shift in-register;
//     products fit int16 (|a*b| <= 128*128 = 2^14).
//   * Padding lanes (the channels a window rounds up to 16) are zero in at
//     least one operand, so they contribute exact zeros — kernels multiply
//     them unconditionally (0 >> shift is still 0).
//   * The dot's depth nseg * seg is at most kMaxDotDepth (below), which
//     keeps every int32 sum exact; callers check it once per GEMM.
//
// The kernels are reached through the per-backend tables in dispatch.hpp;
// hot loops fetch the active table once per GEMM call, not per dot product.
#pragma once

#include <cstdint>

namespace odq::simd {

inline constexpr std::int64_t kKTileLanes = 16;
inline constexpr std::int64_t kMaxLaneProduct = 128 * 128;  // |int8 * int8|
inline constexpr std::int64_t kInt32Max = (std::int64_t{1} << 31) - 1;

// Overflow budget, per dot. Each backend splits a dot's products over its
// own partial sums — 8 int32 SIMD lanes per accumulator (AVX2), 4 running
// sums (scalar dot_i8) or 1 (scalar dot_block) — and then reduces all of
// them into the one int32 result. Every partial sum adds a subset of the
// dot's products, and the final reduction adds all of them, so the widest
// sum any kernel forms is the dot itself: depth * kMaxLaneProduct must fit
// int32. A per-lane budget is not enough, because the lanes are summed in
// the end. The largest accepted depth, in whole lane blocks, is
// 131,056 taps; one more block of -128 * -128 products reaches 2^31.
inline constexpr std::int64_t kMaxDotDepth =
    kInt32Max / kMaxLaneProduct / kKTileLanes * kKTileLanes;
static_assert(kMaxDotDepth * kMaxLaneProduct <= kInt32Max,
              "a dot of kMaxDotDepth worst-case products must fit int32");
static_assert((kMaxDotDepth + kKTileLanes) * kMaxLaneProduct > kInt32Max,
              "kMaxDotDepth must be the largest whole-block depth that fits");
static_assert(2 * kMaxLaneProduct <= kInt32Max,
              "a madd pair of widened int16 products must fit its int32 lane");

// sum over s in [0, nseg), p in [0, seg) of a[s * pitch + p] * b[s * seg + p]:
// one set of accumulators and one horizontal reduction across all segments,
// exact in int32 within kMaxDotDepth.
using DotI8Fn = std::int32_t (*)(const std::int8_t* a, const std::int8_t* b,
                                 std::int64_t seg, std::int64_t nseg,
                                 std::int64_t pitch);

// sum_p a[p] * b[p] over kp contiguous int8 entries (kp a multiple of
// kKTileLanes), exact in int64 regardless of int32 headroom: vector
// backends widen every block's int32 partial sums into int64 lanes, so this
// stays bit-identical to a scalar int64 accumulation even where an int32
// sum would wrap. The int64 GEMM instantiation calls it once per segment.
using DotI8Acc64Fn = std::int64_t (*)(const std::int8_t* a,
                                      const std::int8_t* b, std::int64_t kp);

// The register-blocked GEMM kernel: a 2-row x 4-filter tile of segmented
// digit dots
//   out[i * kBlockFilters + j] =
//       sum_{s, p} (a[i][s * pitch + p] >> shift) * (b[j][s * seg + p] >> shift)
// (arithmetic shifts) for rows i in [0, 2) and filters j in [0, 4). With
// shift = N_LBS it is the I_HBS x W_HBS term of Eq. (3), read from the same
// codes the full-code dot reads; shift 0 is the full-code dot itself.
// Contract: 0 <= shift <= 7. A shifted digit satisfies |a >> s| <= 128, so
// every product stays within kMaxLaneProduct and kMaxDotDepth holds.
// Each operand row is widened (and shifted) once per lane block and reused
// across the whole tile; callers with fewer than 2 rows or 4 filters repeat
// the last valid pointer and discard the duplicate outputs.
inline constexpr int kBlockRows = 2;
inline constexpr int kBlockFilters = 4;
using DotBlockFn = void (*)(const std::int8_t* const* a,
                            const std::int8_t* const* b, std::int64_t seg,
                            std::int64_t nseg, std::int64_t pitch, int shift,
                            std::int32_t* out);

// One backend's kernel table.
struct Kernels {
  const char* name;
  DotI8Fn dot_i8;
  DotI8Acc64Fn dot_i8_acc64;
  DotBlockFn dot_block;
};

// The always-available scalar reference (kernels_scalar.cpp).
const Kernels& scalar_kernels();

// The AVX2 backend, or nullptr when kernels_avx2.cpp was not built with the
// ISA (it is the only TU compiled with -mavx2, so a plain x86-64 binary
// still loads). Availability at runtime additionally requires CPU support —
// dispatch.hpp owns that check.
const Kernels* avx2_kernels();

}  // namespace odq::simd
