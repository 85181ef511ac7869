// Exhaustive differential sweep of the SIMD kernel layer (src/simd/) against
// independent plain-loop oracles, run once per backend by forcing the
// dispatcher in-process (ODQ_SIMD's set_backend hook) and skipping cleanly
// where the CPU or build lacks the ISA.
//
// The sweeps target the classic SIMD failure modes:
//   * lane boundaries — every valid channel count K in [1, 2*16+1] per
//     segment, i.e. every residue against the 16-lane block, zero-padded the
//     way the code window pads its channels,
//   * segments — one and three segments per dot, the activation segments
//     `pitch` apart with poison in the gaps, so a kernel that ignores the
//     pitch or reads past a segment fails,
//   * saturating code values at both signs — ±127/-128 full-code extremes,
//     also through the 2 x 4 block kernel dot_block at every digit shift
//     0..7 — the inputs a maddubs-style saturation, sign-extension or
//     logical-vs-arithmetic shift mistake would corrupt,
//   * the int32 depth budget — a -128 x -128 dot at the largest accepted
//     depth is exact against int64, and one more lane block is rejected,
//   * tile straddles — out-channel counts around kOcTile, odd and even row
//     counts (the block kernel's row-pair tail) through the full
//     gemm_conv_int tiling, and odd output maps and filter counts of 6 and
//     10 through gemm_conv_i8 against the quant::conv2d_i8 direct conv,
//   * zero-length and full-length compacted sensitive lists through
//     sparse_result_generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/window.hpp"
#include "core/odq.hpp"
#include "gemm/gemm.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "gemm/window.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace odq::simd {
namespace {

using gemm::kOcTile;
using gemm::pad_channels;
using tensor::Shape;
using tensor::TensorI32;
using tensor::TensorI8;
using tensor::TensorU8;

constexpr std::int64_t kLanes = kKTileLanes;

// --- Segmented operands ----------------------------------------------------

// nseg segments of seg = pad_channels(k) lanes, k of them valid. An
// activation operand keeps its segments `pitch` apart, one lane block
// further than seg when there are several, and fills the gaps with poison;
// a filter operand is contiguous.
struct SegShape {
  std::int64_t k = 0;
  std::int64_t nseg = 1;

  std::int64_t seg() const { return pad_channels(k); }
  std::int64_t pitch() const { return nseg > 1 ? seg() + kLanes : seg(); }
  std::string str() const {
    return "K=" + std::to_string(k) + " nseg=" + std::to_string(nseg);
  }
};

constexpr std::int8_t kPoison = 0x5A;

// Valid lane p of segment s holds fill(s * k + p); padded lanes are zero.
template <typename Fill>
std::vector<std::int8_t> activation_operand(const SegShape& sh, Fill fill) {
  std::vector<std::int8_t> v(
      static_cast<std::size_t>((sh.nseg - 1) * sh.pitch() + sh.seg()),
      kPoison);
  for (std::int64_t s = 0; s < sh.nseg; ++s) {
    std::int8_t* seg = v.data() + s * sh.pitch();
    for (std::int64_t p = 0; p < sh.seg(); ++p) {
      seg[p] = p < sh.k ? fill(s * sh.k + p) : std::int8_t{0};
    }
  }
  return v;
}

template <typename Fill>
std::vector<std::int8_t> filter_operand(const SegShape& sh, Fill fill) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(sh.nseg * sh.seg()), 0);
  for (std::int64_t s = 0; s < sh.nseg; ++s) {
    for (std::int64_t p = 0; p < sh.k; ++p) {
      v[static_cast<std::size_t>(s * sh.seg() + p)] = fill(s * sh.k + p);
    }
  }
  return v;
}

// --- Independent oracles (plain loops, no shared code with src/simd) ------

// Floor division by 2^shift is the arithmetic right shift the kernels
// implement, spelled as a division so the oracle shares nothing with them.
std::int64_t floor_shift(std::int64_t v, int shift) {
  const std::int64_t d = std::int64_t{1} << shift;
  return v >= 0 ? v / d : -((-v + d - 1) / d);
}

// Sum over the valid lanes of every segment only: padded lanes and the
// poisoned gaps must not matter.
std::int64_t oracle_dot_high(const std::int8_t* a, const std::int8_t* b,
                             const SegShape& sh, int shift) {
  std::int64_t s = 0;
  for (std::int64_t g = 0; g < sh.nseg; ++g) {
    for (std::int64_t p = 0; p < sh.k; ++p) {
      s += floor_shift(a[g * sh.pitch() + p], shift) *
           floor_shift(b[g * sh.seg() + p], shift);
    }
  }
  return s;
}

std::int64_t oracle_dot(const std::int8_t* a, const std::int8_t* b,
                        const SegShape& sh) {
  return oracle_dot_high(a, b, sh, 0);
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

// Every channel residue against the 16-lane block, in one segment and in
// three.
std::vector<SegShape> lane_boundary_shapes() {
  std::vector<SegShape> shapes;
  for (const std::int64_t nseg : {1, 3}) {
    for (std::int64_t k = 1; k <= 2 * kLanes + 1; ++k) {
      shapes.push_back(SegShape{k, nseg});
    }
  }
  return shapes;
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

// Every channel residue against the 16-lane block, in one and in three
// segments, against the hostile fills and seeded random codes.
TEST_P(SimdKernels, DotMatchesOracleAcrossLaneBoundaryDepths) {
  const Kernels& kk = active_kernels();
  util::Rng rng(7);
  auto check = [&](const SegShape& sh, const std::vector<std::int8_t>& a,
                   const std::vector<std::int8_t>& b) {
    const std::int64_t want = oracle_dot(a.data(), b.data(), sh);
    ASSERT_EQ(kk.dot_i8(a.data(), b.data(), sh.seg(), sh.nseg, sh.pitch()),
              static_cast<std::int32_t>(want));
    // acc64 reads one contiguous run: the sum of its per-segment dots.
    std::int64_t acc64 = 0;
    for (std::int64_t s = 0; s < sh.nseg; ++s) {
      acc64 += kk.dot_i8_acc64(a.data() + s * sh.pitch(),
                               b.data() + s * sh.seg(), sh.seg());
    }
    ASSERT_EQ(acc64, want);
  };
  for (const SegShape& sh : lane_boundary_shapes()) {
    for (const auto& [aname, afill] : hostile_fills()) {
      for (const auto& [bname, bfill] : hostile_fills()) {
        SCOPED_TRACE(sh.str() + " a=" + aname + " b=" + bname);
        check(sh, activation_operand(sh, afill), filter_operand(sh, bfill));
      }
    }
    // Seeded random codes on top of the deterministic corner fills.
    auto random_code = [&](std::int64_t) {
      return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    };
    for (int rep = 0; rep < 4; ++rep) {
      SCOPED_TRACE(sh.str() + " random rep " + std::to_string(rep));
      check(sh, activation_operand(sh, random_code),
            filter_operand(sh, random_code));
    }
  }
}

// The 2 x 4 GEMM block kernel over full codes: every shift in the 0..7
// contract (0 is the full-code dot), every lane-boundary channel count in
// one and three segments, the hostile fills spread over the tile's 2 rows
// and 4 filters (-128 is the one code whose digit reaches -64) plus seeded
// random codes. Each of the 8 outputs must equal the floor-division oracle
// and the scalar backend's tile.
TEST_P(SimdKernels, BlockKernelMatchesOracle) {
  const Kernels& kk = active_kernels();
  const auto& fills = hostile_fills();
  const auto nfill = static_cast<std::int64_t>(fills.size());
  util::Rng rng(11);
  using Operand = std::vector<std::int8_t>;
  auto check_tile = [&](const SegShape& sh, const Operand (&rows)[kBlockRows],
                        const Operand (&filters)[kBlockFilters], int shift) {
    const std::int8_t* a[kBlockRows];
    const std::int8_t* b[kBlockFilters];
    for (int i = 0; i < kBlockRows; ++i) a[i] = rows[i].data();
    for (int j = 0; j < kBlockFilters; ++j) b[j] = filters[j].data();
    std::int32_t got[kBlockRows * kBlockFilters];
    std::int32_t scalar[kBlockRows * kBlockFilters];
    kk.dot_block(a, b, sh.seg(), sh.nseg, sh.pitch(), shift, got);
    scalar_kernels().dot_block(a, b, sh.seg(), sh.nseg, sh.pitch(), shift,
                               scalar);
    for (int i = 0; i < kBlockRows; ++i) {
      for (int j = 0; j < kBlockFilters; ++j) {
        const int o = i * kBlockFilters + j;
        ASSERT_EQ(got[o], oracle_dot_high(a[i], b[j], sh, shift))
            << "row " << i << " filter " << j;
        ASSERT_EQ(got[o], scalar[o]) << "row " << i << " filter " << j;
      }
    }
  };
  for (int shift = 0; shift <= 7; ++shift) {
    for (const SegShape& sh : lane_boundary_shapes()) {
      for (std::int64_t fa = 0; fa < nfill; ++fa) {
        for (std::int64_t fb = 0; fb < nfill; ++fb) {
          Operand rows[kBlockRows];
          Operand filters[kBlockFilters];
          for (int i = 0; i < kBlockRows; ++i) {
            rows[i] = activation_operand(
                sh, fills[static_cast<std::size_t>((fa + i) % nfill)].second);
          }
          for (int j = 0; j < kBlockFilters; ++j) {
            filters[j] = filter_operand(
                sh, fills[static_cast<std::size_t>((fb + j) % nfill)].second);
          }
          SCOPED_TRACE("shift=" + std::to_string(shift) + " " + sh.str() +
                       " a=" + fills[static_cast<std::size_t>(fa)].first +
                       ".. b=" + fills[static_cast<std::size_t>(fb)].first +
                       "..");
          check_tile(sh, rows, filters, shift);
        }
      }
      for (int rep = 0; rep < 4; ++rep) {
        auto random_code = [&](std::int64_t) {
          return static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        };
        Operand rows[kBlockRows];
        Operand filters[kBlockFilters];
        for (auto& r : rows) r = activation_operand(sh, random_code);
        for (auto& f : filters) f = filter_operand(sh, random_code);
        SCOPED_TRACE("shift=" + std::to_string(shift) + " " + sh.str() +
                     " random rep " + std::to_string(rep));
        check_tile(sh, rows, filters, shift);
      }
    }
  }
}

// The int32 budget at its boundary: a dot of kMaxDotDepth -128 x -128
// products (2^14 each, 2,147,221,504 in all) is exact against int64 on every
// kernel, in one segment and in 8191 one-block segments (kMaxDotDepth is
// 16 * 8191), at shifts 0 and 7; the full window
// GEMM and the Eq. (3) epilogue at that depth agree. One more lane block
// would reach 2^31 and is rejected (SimdDispatch.DepthBudgetEnforced).
TEST_P(SimdKernels, DepthBudgetBoundaryIsExact) {
  const Kernels& kk = active_kernels();
  const std::int64_t want = kMaxDotDepth * kMaxLaneProduct;
  ASSERT_LE(want, kInt32Max);
  for (const std::int64_t nseg : {std::int64_t{1}, std::int64_t{8191}}) {
    ASSERT_EQ(kMaxDotDepth % (nseg * kLanes), 0);
    const SegShape sh{kMaxDotDepth / nseg, nseg};
    auto min_code = [](std::int64_t) { return std::int8_t{-128}; };
    const auto a = activation_operand(sh, min_code);
    const auto b = filter_operand(sh, min_code);
    SCOPED_TRACE(sh.str());
    EXPECT_EQ(kk.dot_i8(a.data(), b.data(), sh.seg(), nseg, sh.pitch()),
              static_cast<std::int32_t>(want));
    for (const int shift : {0, 7}) {
      const std::int8_t* rows[kBlockRows] = {a.data(), a.data()};
      const std::int8_t* filters[kBlockFilters] = {b.data(), b.data(),
                                                   b.data(), b.data()};
      std::int32_t tile[kBlockRows * kBlockFilters];
      kk.dot_block(rows, filters, sh.seg(), nseg, sh.pitch(), shift, tile);
      const std::int64_t digit = floor_shift(-128, shift);
      for (const std::int32_t v : tile) {
        EXPECT_EQ(v, kMaxDotDepth * digit * digit) << "shift " << shift;
      }
    }
  }
  // The same depth as a 1 x 1 conv over kMaxDotDepth channels.
  TensorI8 x(Shape{1, kMaxDotDepth, 1, 1});
  TensorI8 w(Shape{1, kMaxDotDepth, 1, 1});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = -128;
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = -128;
  const testwin::Window win(x, 1, 1, 1, 0);
  const gemm::FilterPanel wts = gemm::pack_filter_panel(w);
  ASSERT_EQ(win.view.depth(), kMaxDotDepth);
  const TensorI32 pred = gemm::gemm_conv_i8(win.view, wts);
  EXPECT_EQ(pred[0], static_cast<std::int32_t>(want));
  TensorI32 acc(pred.shape());
  TensorU8 mask(pred.shape());
  std::vector<std::int64_t> per_channel(1, 0);
  gemm::SensitiveLists lists;
  gemm::sparse_result_generation(win.view, wts, pred, 1.0f, 0.0f, acc, mask,
                                 per_channel, lists);
  EXPECT_EQ(acc[0], static_cast<std::int32_t>(want));
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
// row counts around the block kernel's row pair and a 64-row block, over a
// window of 2 segments per row (a 2 x 1 kernel, 24 channels padded to 32:
// one full lane block and one half block per segment), against a naive
// loop over the OIHW codes.
TEST_P(SimdKernels, GemmConvIntStraddlesTiles) {
  util::Rng rng(23);
  const std::int64_t c = 24;
  auto random_codes = [&](Shape shape) {
    TensorI8 t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    return t;
  };
  for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{63},
                                  std::int64_t{64}, std::int64_t{65}}) {
    for (std::int64_t oc = 1; oc <= 2 * kOcTile + 1; ++oc) {
      const TensorI8 x = random_codes(Shape{2, c, 2, rows});
      const TensorI8 w = random_codes(Shape{oc, c, 2, 1});
      const testwin::Window win(x, 2, 1, /*stride=*/1, /*pad=*/0);
      const gemm::FilterPanel wts = gemm::pack_filter_panel(w);
      ASSERT_EQ(win.view.rows(), rows);
      ASSERT_EQ(win.view.nseg(), 2);

      const int shift = 4;
      const TensorI32 got = gemm::gemm_conv_i8(win.view, wts, shift);
      std::vector<std::int64_t> got64(static_cast<std::size_t>(2 * oc * rows),
                                      0);
      gemm::gemm_conv_int<std::int64_t>(win.view, wts, shift, 0,
                                        got64.data());

      SCOPED_TRACE("rows=" + std::to_string(rows) + " oc=" +
                   std::to_string(oc));
      for (std::int64_t b = 0; b < 2; ++b) {
        for (std::int64_t f = 0; f < oc; ++f) {
          for (std::int64_t r = 0; r < rows; ++r) {
            std::int64_t dot = 0;
            for (std::int64_t ch = 0; ch < c; ++ch) {
              for (std::int64_t ki = 0; ki < 2; ++ki) {
                dot += static_cast<std::int64_t>(
                           x[((b * c + ch) * 2 + ki) * rows + r]) *
                       w[(f * c + ch) * 2 + ki];
              }
            }
            const std::int64_t want = dot << shift;
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
    const testwin::Window win(x, 3, 3, 1, 1);
    const gemm::FilterPanel wts = gemm::pack_filter_panel(w);
    ASSERT_EQ(win.view.rows(), 49);
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
      const TensorI32 got = gemm::gemm_conv_i8(win.view, wts, shift, ds);
      std::vector<std::int64_t> got64(static_cast<std::size_t>(want.numel()));
      gemm::gemm_conv_int<std::int64_t>(win.view, wts, shift, ds,
                                        got64.data());
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
}

TEST(SimdDispatch, DepthBudgetEnforced) {
  // The budget is per dot, on kh * seg: kMaxDotDepth channels of a 1 x 1
  // conv are accepted (SimdKernels.DepthBudgetBoundaryIsExact checks the
  // sum), and one more lane block is rejected up front by the GEMM and the
  // epilogue, not silently wrapped.
  static_assert(kMaxDotDepth == 131056);
  const std::int64_t c = kMaxDotDepth + kLanes;
  const TensorI8 x(Shape{1, c, 1, 1});
  const testwin::Window win(x, 1, 1, 1, 0);
  const gemm::FilterPanel wts = gemm::pack_filter_panel(x);
  ASSERT_EQ(win.view.depth(), c);
  EXPECT_THROW(gemm::gemm_conv_i8(win.view, wts), std::invalid_argument);
  const TensorI32 pred(Shape{1, 1, 1, 1});
  TensorI32 acc(pred.shape());
  TensorU8 mask(pred.shape());
  std::vector<std::int64_t> per_channel(1, 0);
  gemm::SensitiveLists lists;
  EXPECT_THROW(gemm::sparse_result_generation(win.view, wts, pred, 1.0f, 0.0f,
                                              acc, mask, per_channel, lists),
               std::invalid_argument);
  // Several segments count together: a 3 x 3 window whose taps fit alone
  // but whose 9 taps do not.
  const TensorI8 x3(Shape{1, kMaxDotDepth / 8, 3, 3});
  const testwin::Window win3(x3, 3, 3, 1, 0);
  const gemm::FilterPanel wts3 = gemm::pack_filter_panel(TensorI8(
      Shape{1, kMaxDotDepth / 8, 3, 3}));
  ASSERT_GT(win3.view.depth(), kMaxDotDepth);
  ASSERT_LE(win3.view.seg(), kMaxDotDepth);
  EXPECT_THROW(gemm::gemm_conv_i8(win3.view, wts3), std::invalid_argument);
}

}  // namespace
}  // namespace odq::simd
