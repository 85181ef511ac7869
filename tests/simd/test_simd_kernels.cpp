// Exhaustive differential sweep of the SIMD kernel layer (src/simd/) against
// independent plain-loop oracles, run once per backend by forcing the
// dispatcher in-process (ODQ_SIMD's set_backend hook) and skipping cleanly
// where the CPU or build lacks the ISA.
//
// The sweeps target the classic SIMD failure modes:
//   * lane boundaries — every logical depth K in [1, 2*kKTile+1], i.e.
//     every possible residue against the 16-lane block, padded exactly the
//     way gemm/packed.hpp pads,
//   * saturating code values at both signs — ±127/-128 full-code extremes,
//     also through the 2 x 4 block kernel dot_block at every digit shift
//     0..7 — the inputs a maddubs-style saturation, sign-extension or
//     logical-vs-arithmetic shift mistake would corrupt,
//   * tile straddles — out-channel counts around kOcTile, odd and even row
//     counts (the block kernel's row-pair tail) through the full
//     gemm_conv_int tiling, and odd output maps and filter counts of 6 and
//     10 through gemm_conv_i8 against the quant::conv2d_i8 direct conv,
//   * zero-length and full-length compacted sensitive lists through
//     sparse_result_generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/odq.hpp"
#include "gemm/gemm.hpp"
#include "gemm/packed.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace odq::simd {
namespace {

using gemm::kKTile;
using gemm::kOcTile;
using gemm::kRowTile;
using gemm::pad_k;
using tensor::Shape;
using tensor::TensorI32;
using tensor::TensorI8;
using tensor::TensorU8;

// --- Independent oracles (plain loops, no shared code with src/simd) ------

std::int64_t oracle_dot(const std::int8_t* a, const std::int8_t* b,
                        std::int64_t kp) {
  std::int64_t s = 0;
  for (std::int64_t p = 0; p < kp; ++p) {
    s += static_cast<std::int64_t>(a[p]) * b[p];
  }
  return s;
}

std::int64_t oracle_dot_high(const std::int8_t* a, const std::int8_t* b,
                             std::int64_t kp, int shift) {
  // Floor division by 2^shift is the arithmetic right shift the kernels
  // implement, spelled as a division so the oracle shares nothing with them.
  const std::int64_t d = std::int64_t{1} << shift;
  auto floor_div = [d](std::int64_t v) {
    return v >= 0 ? v / d : -((-v + d - 1) / d);
  };
  std::int64_t s = 0;
  for (std::int64_t p = 0; p < kp; ++p) {
    s += floor_div(a[p]) * floor_div(b[p]);
  }
  return s;
}

// Hostile fills: full-code saturating extremes at both signs, an
// alternating-sign pattern, and a ramp through the whole int8 range.
using FillFn = std::int8_t (*)(std::int64_t);
const std::vector<std::pair<const char*, FillFn>>& hostile_fills() {
  static const std::vector<std::pair<const char*, FillFn>> fills = {
      {"max+", [](std::int64_t) -> std::int8_t { return 127; }},
      {"max-", [](std::int64_t) -> std::int8_t { return -128; }},
      {"alt", [](std::int64_t p) -> std::int8_t {
         return p % 2 == 0 ? std::int8_t{127} : std::int8_t{-128};
       }},
      {"ramp", [](std::int64_t p) -> std::int8_t {
         return static_cast<std::int8_t>((p * 37) % 255 - 127);
       }}};
  return fills;
}

// A depth-K operand padded to pad_k(K) with zeros, valid entries from `fill`.
template <typename Fill>
std::vector<std::int8_t> padded_operand(std::int64_t k, Fill fill) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(pad_k(k)), 0);
  for (std::int64_t p = 0; p < k; ++p) v[static_cast<std::size_t>(p)] = fill(p);
  return v;
}

// --- Per-backend fixture ---------------------------------------------------

class SimdKernels : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    prev_ = active_backend();
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << backend_name(GetParam())
                   << " backend unavailable on this CPU/build";
    }
    ASSERT_TRUE(set_backend(GetParam()));
  }
  void TearDown() override { set_backend(prev_); }

  Backend prev_ = Backend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(Backends, SimdKernels,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

TEST_P(SimdKernels, ActiveTableMatchesForcedBackend) {
  EXPECT_EQ(active_backend(), GetParam());
  EXPECT_STREQ(active_kernels().name, backend_name(GetParam()));
}

// Every depth residue against the 16-lane block, against the hostile fills
// and seeded random codes.
TEST_P(SimdKernels, DotMatchesOracleAcrossLaneBoundaryDepths) {
  const Kernels& kk = active_kernels();
  util::Rng rng(7);
  for (std::int64_t k = 1; k <= 2 * kKTile + 1; ++k) {
    for (const auto& [aname, afill] : hostile_fills()) {
      for (const auto& [bname, bfill] : hostile_fills()) {
        const auto a = padded_operand(k, afill);
        const auto b = padded_operand(k, bfill);
        const std::int64_t kp = pad_k(k);
        const std::int64_t want = oracle_dot(a.data(), b.data(), kp);
        SCOPED_TRACE(std::string("K=") + std::to_string(k) + " a=" + aname +
                     " b=" + bname);
        ASSERT_EQ(kk.dot_i8(a.data(), b.data(), kp),
                  static_cast<std::int32_t>(want));
        ASSERT_EQ(kk.dot_i8_acc64(a.data(), b.data(), kp), want);
      }
    }
    // Seeded random codes on top of the deterministic corner fills.
    for (int rep = 0; rep < 4; ++rep) {
      const auto a = padded_operand(k, [&](std::int64_t) {
        return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      });
      const auto b = padded_operand(k, [&](std::int64_t) {
        return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      });
      const std::int64_t kp = pad_k(k);
      const std::int64_t want = oracle_dot(a.data(), b.data(), kp);
      SCOPED_TRACE("K=" + std::to_string(k) + " random rep " +
                   std::to_string(rep));
      ASSERT_EQ(kk.dot_i8(a.data(), b.data(), kp),
                static_cast<std::int32_t>(want));
      ASSERT_EQ(kk.dot_i8_acc64(a.data(), b.data(), kp), want);
    }
  }
}

// The 2 x 4 GEMM block kernel over full codes: every shift in the 0..7
// contract (0 is the full-code dot), every lane-boundary depth, the hostile
// fills spread over the tile's 2 rows and 4 filters (-128 is the one code
// whose digit reaches -64) plus seeded random codes. Each of the 8 outputs
// must equal the floor-division oracle and the scalar backend's tile.
TEST_P(SimdKernels, BlockKernelMatchesOracle) {
  const Kernels& kk = active_kernels();
  const auto& fills = hostile_fills();
  const auto nfill = static_cast<std::int64_t>(fills.size());
  util::Rng rng(11);
  using Operand = std::vector<std::int8_t>;
  auto check_tile = [&](const Operand (&rows)[kBlockRows],
                        const Operand (&filters)[kBlockFilters],
                        std::int64_t kp, int shift) {
    const std::int8_t* a[kBlockRows];
    const std::int8_t* b[kBlockFilters];
    for (int i = 0; i < kBlockRows; ++i) a[i] = rows[i].data();
    for (int j = 0; j < kBlockFilters; ++j) b[j] = filters[j].data();
    std::int32_t got[kBlockRows * kBlockFilters];
    std::int32_t scalar[kBlockRows * kBlockFilters];
    kk.dot_block(a, b, kp, shift, got);
    scalar_kernels().dot_block(a, b, kp, shift, scalar);
    for (int i = 0; i < kBlockRows; ++i) {
      for (int j = 0; j < kBlockFilters; ++j) {
        const int o = i * kBlockFilters + j;
        ASSERT_EQ(got[o], oracle_dot_high(a[i], b[j], kp, shift))
            << "row " << i << " filter " << j;
        ASSERT_EQ(got[o], scalar[o]) << "row " << i << " filter " << j;
      }
    }
  };
  for (int shift = 0; shift <= 7; ++shift) {
    for (std::int64_t k = 1; k <= 2 * kKTile + 1; ++k) {
      const std::int64_t kp = pad_k(k);
      for (std::int64_t fa = 0; fa < nfill; ++fa) {
        for (std::int64_t fb = 0; fb < nfill; ++fb) {
          Operand rows[kBlockRows];
          Operand filters[kBlockFilters];
          for (int i = 0; i < kBlockRows; ++i) {
            rows[i] = padded_operand(
                k, fills[static_cast<std::size_t>((fa + i) % nfill)].second);
          }
          for (int j = 0; j < kBlockFilters; ++j) {
            filters[j] = padded_operand(
                k, fills[static_cast<std::size_t>((fb + j) % nfill)].second);
          }
          SCOPED_TRACE("shift=" + std::to_string(shift) + " K=" +
                       std::to_string(k) + " a=" +
                       fills[static_cast<std::size_t>(fa)].first + ".. b=" +
                       fills[static_cast<std::size_t>(fb)].first + "..");
          check_tile(rows, filters, kp, shift);
        }
      }
      for (int rep = 0; rep < 4; ++rep) {
        auto random_code = [&](std::int64_t) {
          return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        };
        Operand rows[kBlockRows];
        Operand filters[kBlockFilters];
        for (auto& r : rows) r = padded_operand(k, random_code);
        for (auto& f : filters) f = padded_operand(k, random_code);
        SCOPED_TRACE("shift=" + std::to_string(shift) + " K=" +
                     std::to_string(k) + " random rep " +
                     std::to_string(rep));
        check_tile(rows, filters, kp, shift);
      }
    }
  }
}

// The acc64 kernel must stay exact where an int32 sum would wrap: a
// constant-extreme dot long enough to overflow int32 (depth 2^18 of
// 127 * 127 is ~4.2e9 > 2^31).
TEST_P(SimdKernels, Acc64StaysExactPastInt32Headroom) {
  const Kernels& kk = active_kernels();
  const std::int64_t kp = std::int64_t{1} << 18;
  std::vector<std::int8_t> a(static_cast<std::size_t>(kp), 127);
  std::vector<std::int8_t> b(static_cast<std::size_t>(kp), 127);
  const std::int64_t want = kp * 127 * 127;
  ASSERT_GT(want, std::int64_t{1} << 31);
  EXPECT_EQ(kk.dot_i8_acc64(a.data(), b.data(), kp), want);
}

// The full tiled INT-GEMM across out-channel counts straddling kOcTile and
// row counts straddling kRowTile, against a naive triple loop.
TEST_P(SimdKernels, GemmConvIntStraddlesTiles) {
  util::Rng rng(23);
  const std::int64_t k = 24;  // kp = 32: one full block + one half block
  for (const std::int64_t rows : {std::int64_t{1}, kRowTile - 1, kRowTile,
                                  kRowTile + 1}) {
    for (std::int64_t oc = 1; oc <= 2 * kOcTile + 1; ++oc) {
      gemm::PackedIm2col cols;
      cols.batches = 2;
      cols.rows = rows;
      cols.k = k;
      cols.k_padded = pad_k(k);
      cols.oh = rows;
      cols.ow = 1;
      cols.data.assign(
          static_cast<std::size_t>(cols.batches * rows * cols.k_padded), 0);
      gemm::PackedWeights wts;
      wts.oc = oc;
      wts.k = k;
      wts.k_padded = pad_k(k);
      wts.data.assign(static_cast<std::size_t>(oc * wts.k_padded), 0);
      for (std::int64_t b = 0; b < cols.batches; ++b) {
        for (std::int64_t r = 0; r < rows; ++r) {
          std::int8_t* row = cols.row(b, r);
          for (std::int64_t p = 0; p < k; ++p) {
            row[p] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
          }
        }
      }
      for (std::int64_t f = 0; f < oc; ++f) {
        std::int8_t* row = wts.row(f);
        for (std::int64_t p = 0; p < k; ++p) {
          row[p] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
      }

      const int shift = 4;
      const TensorI32 got = gemm::gemm_conv_i8(cols, wts, shift);
      std::vector<std::int64_t> got64(
          static_cast<std::size_t>(cols.batches * oc * rows), 0);
      gemm::gemm_conv_int<std::int64_t>(cols, wts, shift, 0, got64.data());

      SCOPED_TRACE("rows=" + std::to_string(rows) + " oc=" +
                   std::to_string(oc));
      for (std::int64_t b = 0; b < cols.batches; ++b) {
        for (std::int64_t f = 0; f < oc; ++f) {
          for (std::int64_t r = 0; r < rows; ++r) {
            const std::int64_t want =
                oracle_dot(cols.row(b, r), wts.row(f), cols.k_padded)
                << shift;
            const std::int64_t idx = (b * oc + f) * rows + r;
            ASSERT_EQ(got[idx], static_cast<std::int32_t>(want))
                << "b=" << b << " f=" << f << " r=" << r;
            ASSERT_EQ(got64[static_cast<std::size_t>(idx)], want)
                << "b=" << b << " f=" << f << " r=" << r;
          }
        }
      }
    }
  }
}

// Real conv geometry through the tile tails: a 7x7 output map (49 rows, so
// the last row pair repeats its row) and 6 or 10 filters (the last filter
// block repeats its last filter), at every digit shift, against the
// quant::conv2d_i8 direct conv of the shifted codes.
TEST_P(SimdKernels, GemmConvOddRowsAndFilterTailsMatchDirectConv) {
  util::Rng rng(29);
  for (const std::int64_t oc : {std::int64_t{6}, std::int64_t{10}}) {
    TensorI8 x(Shape{2, 3, 7, 7});
    TensorI8 w(Shape{oc, 3, 3, 3});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      w[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    const gemm::PackedIm2col cols = gemm::pack_im2col_i8(x, 3, 3, 1, 1);
    const gemm::PackedWeights wts = gemm::pack_weights_i8(w);
    ASSERT_EQ(cols.rows, 49);
    for (int ds = 0; ds <= 7; ++ds) {
      TensorI8 xh(x.shape());
      TensorI8 wh(w.shape());
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        xh[i] = static_cast<std::int8_t>(x[i] >> ds);
      }
      for (std::int64_t i = 0; i < w.numel(); ++i) {
        wh[i] = static_cast<std::int8_t>(w[i] >> ds);
      }
      const TensorI32 want = quant::conv2d_i8(xh, wh, 1, 1);
      const int shift = 2 * (ds % 3);
      const TensorI32 got = gemm::gemm_conv_i8(cols, wts, shift, ds);
      std::vector<std::int64_t> got64(static_cast<std::size_t>(want.numel()));
      gemm::gemm_conv_int<std::int64_t>(cols, wts, shift, ds, got64.data());
      SCOPED_TRACE("oc=" + std::to_string(oc) + " digit_shift=" +
                   std::to_string(ds));
      ASSERT_EQ(got.shape(), want.shape());
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i] << shift) << "output " << i;
        ASSERT_EQ(got64[static_cast<std::size_t>(i)],
                  static_cast<std::int64_t>(want[i]) << shift)
            << "output " << i;
      }
    }
  }
}

// Whole-pipeline ODQ against the direct-conv serial reference (an oracle
// that shares no code with the packed/SIMD path), at both threshold
// extremes: zero-length compacted lists (nothing sensitive) and full-length
// lists (everything sensitive), plus a mid threshold for partial lists.
TEST_P(SimdKernels, OdqPipelineListExtremesMatchDirectReference) {
  util::Rng rng(31);
  tensor::Tensor x(Shape{2, 3, 7, 7});
  tensor::Tensor w(Shape{5, 3, 3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  const quant::QTensor qin = quant::quantize_activations(x, 4);
  const quant::QTensor qw = quant::quantize_weights(w, 4);

  for (const float threshold : {0.0f, 0.15f, 1e30f}) {
    core::OdqConfig cfg;
    cfg.threshold = threshold;
    const core::OdqConvResult ref =
        core::odq_conv_reference(qin, qw, 1, 1, cfg);
    const core::OdqConvResult got = core::odq_conv(qin, qw, 1, 1, cfg);
    SCOPED_TRACE("threshold=" + std::to_string(threshold));
    if (threshold == 0.0f) {
      ASSERT_EQ(got.stats.sensitive, got.stats.outputs);  // full lists
    } else if (threshold == 1e30f) {
      ASSERT_EQ(got.sensitive_lists.total(), 0);  // zero-length lists
      ASSERT_EQ(got.stats.executor_macs, 0);
    }
    ASSERT_EQ(ref.acc.shape(), got.acc.shape());
    for (std::int64_t i = 0; i < ref.acc.numel(); ++i) {
      ASSERT_EQ(ref.acc[i], got.acc[i]) << "acc diverges at " << i;
      ASSERT_EQ(ref.predictor_acc[i], got.predictor_acc[i]);
      ASSERT_EQ(ref.mask[i], got.mask[i]);
    }
    ASSERT_EQ(ref.sensitive_lists.lists, got.sensitive_lists.lists);
    ASSERT_EQ(ref.sensitive_per_channel, got.sensitive_per_channel);
    ASSERT_EQ(ref.stats.sensitive, got.stats.sensitive);
    ASSERT_EQ(ref.stats.predictor_macs, got.stats.predictor_macs);
    ASSERT_EQ(ref.stats.executor_macs, got.stats.executor_macs);
  }
}

// --- Dispatch rules (backend-independent) ----------------------------------

TEST(SimdDispatch, ScalarAlwaysAvailableAndTablesCoherent) {
  EXPECT_TRUE(backend_available(Backend::kScalar));
  EXPECT_STREQ(scalar_kernels().name, "scalar");
  // best_backend() must itself be available, and forcing it must stick.
  const Backend best = best_backend();
  EXPECT_TRUE(backend_available(best));
  const Backend prev = active_backend();
  EXPECT_TRUE(set_backend(best));
  EXPECT_EQ(active_backend(), best);
  EXPECT_STREQ(active_kernels().name, backend_name(best));
  set_backend(prev);
}

TEST(SimdDispatch, UnavailableBackendRefusedWithoutSideEffects) {
  const Backend prev = active_backend();
  for (const Backend b : kAllBackends) {
    if (backend_available(b)) continue;
    EXPECT_FALSE(set_backend(b)) << backend_name(b);
    EXPECT_EQ(active_backend(), prev) << backend_name(b);
  }
  // A vector backend is available only if its TU was compiled in.
  if (avx2_kernels() == nullptr) {
    EXPECT_FALSE(backend_available(Backend::kAvx2));
  }
  if (neon_kernels() == nullptr) {
    EXPECT_FALSE(backend_available(Backend::kNeon));
  }
}

TEST(SimdDispatch, DepthBudgetEnforced) {
  // A depth beyond the int32 accumulator budget must be rejected up front,
  // not silently wrapped (kMaxDotDepth is ~1M taps; no real layer is near).
  gemm::PackedIm2col cols;
  cols.batches = 1;
  cols.rows = 1;
  cols.k = kMaxDotDepth + 1;
  cols.k_padded = pad_k(cols.k);
  cols.oh = cols.ow = 1;
  gemm::PackedWeights wts;
  wts.oc = 1;
  wts.k = cols.k;
  wts.k_padded = cols.k_padded;
  // No data allocation needed: the depth check precedes any dereference.
  EXPECT_THROW(gemm::gemm_conv_i8(cols, wts, 0), std::invalid_argument);
}

}  // namespace
}  // namespace odq::simd
