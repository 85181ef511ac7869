// Channel-padding regression: the code window rounds the channel count C
// up to the 16-lane block (cp) and zero-fills the padded channels [C, cp)
// of every pixel, and the filter panel does the same for every tap. The
// SIMD kernels multiply those lanes unconditionally (no tail handling),
// which is only correct because every product has at least one zero
// factor. This test deliberately breaks the "both operands zero-padded"
// redundancy — it overwrites the padded channels of ONE operand with
// non-zero garbage while the other operand's stay zero — and asserts both
// the digit-shifted predictor GEMM and the full-code Eq. (3) sparse
// epilogue, which read the same window, still produce bit-identical
// accumulators, masks, compacted lists, and MAC counters, per backend; the
// 2 x 4 block kernel is also checked directly at every digit shift. A
// kernel that mis-stepped segments or blocks, or depended on both pads
// being zero, would fail here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/window.hpp"
#include "gemm/gemm.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "gemm/window.hpp"
#include "quant/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace odq::simd {
namespace {

using tensor::Shape;
using tensor::TensorI32;
using tensor::TensorU8;

struct PipelineOut {
  TensorI32 pred;
  TensorI32 acc;
  TensorU8 mask;
  std::vector<std::int64_t> per_channel;
  gemm::SensitiveLists lists;
  gemm::SparseEpilogueStats stats;
};

constexpr int kLowBits = 2;

PipelineOut run_window(const gemm::CodeWindow& win,
                       const gemm::FilterPanel& wts, float scale,
                       float threshold) {
  PipelineOut o;
  o.pred = gemm::gemm_conv_i8(win, wts, 2 * kLowBits, kLowBits);
  o.acc = o.pred;
  o.mask = TensorU8(o.pred.shape());
  o.per_channel.assign(static_cast<std::size_t>(wts.oc), 0);
  o.stats = gemm::sparse_result_generation(win, wts, o.pred, scale, threshold,
                                           o.acc, o.mask, o.per_channel,
                                           o.lists);
  return o;
}

void expect_identical(const PipelineOut& clean, const PipelineOut& dirty) {
  ASSERT_EQ(clean.pred.vec(), dirty.pred.vec());
  ASSERT_EQ(clean.acc.vec(), dirty.acc.vec());
  ASSERT_EQ(clean.mask.vec(), dirty.mask.vec());
  ASSERT_EQ(clean.per_channel, dirty.per_channel);
  ASSERT_EQ(clean.lists.lists, dirty.lists.lists);
  ASSERT_EQ(clean.stats.sensitive, dirty.stats.sensitive);
  ASSERT_EQ(clean.stats.executor_macs, dirty.stats.executor_macs);
}

// Overwrite the padded channels [C, cp) of every window pixel, the zero
// border included, with non-zero garbage: values whose high digits are
// non-zero too, so the predictor's in-register shift cannot hide them.
void poison_window(testwin::Window& win) {
  const gemm::CodeWindow& v = win.view;
  for (std::int64_t px = 0; px < v.size() / v.cp; ++px) {
    for (std::int64_t ch = v.shape.c; ch < v.cp; ++ch) {
      win.storage[static_cast<std::size_t>(px * v.cp + ch)] =
          static_cast<std::int8_t>(ch % 2 == 0 ? 0x5A : -77);
    }
  }
}

void poison_panel(gemm::FilterPanel& wts) {
  for (std::int64_t tap = 0; tap < wts.oc * wts.kh * wts.kw; ++tap) {
    for (std::int64_t ch = wts.c; ch < wts.cp; ++ch) {
      wts.data[static_cast<std::size_t>(tap * wts.cp + ch)] =
          static_cast<std::int8_t>(ch % 2 == 0 ? -128 : 127);
    }
  }
}

class SimdTailGuard : public ::testing::TestWithParam<Backend> {
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

INSTANTIATE_TEST_SUITE_P(Backends, SimdTailGuard,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

TEST_P(SimdTailGuard, GarbageBeyondValidDepthIsIgnoredIdentically) {
  // C = 3 channels padded to cp = 16: 13 garbage lanes per pixel and tap.
  util::Rng rng(41);
  tensor::Tensor x(Shape{2, 3, 6, 6});
  tensor::Tensor w(Shape{5, 3, 3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f(0, 1);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0, 0.3f);
  const quant::QTensor qin = quant::quantize_activations(x, 4);
  const quant::QTensor qw = quant::quantize_weights(w, 4);

  const testwin::Window win(qin.q, 3, 3, /*stride=*/1, /*pad=*/1);
  const gemm::FilterPanel wts = gemm::pack_filter_panel(qw.q);
  ASSERT_EQ(win.view.shape.c, 3);
  ASSERT_EQ(win.view.cp, 16) << "no garbage region to exercise";
  testwin::Window dirty_win(qin.q, 3, 3, 1, 1);
  poison_window(dirty_win);
  gemm::FilterPanel dirty_wts = wts;
  poison_panel(dirty_wts);

  const float scale = qin.scale * qw.scale;

  // Threshold 0 runs the epilogue over every output; the median predictor
  // magnitude gives a genuinely partial list (clean run sanity-checked).
  const PipelineOut probe = run_window(win.view, wts, scale, 0.0f);
  std::vector<float> mags;
  mags.reserve(static_cast<std::size_t>(probe.pred.numel()));
  for (std::int64_t i = 0; i < probe.pred.numel(); ++i) {
    mags.push_back(std::abs(static_cast<float>(probe.pred[i]) * scale));
  }
  std::nth_element(mags.begin(), mags.begin() + mags.size() / 2, mags.end());
  const float mid = mags[mags.size() / 2];

  for (const float threshold : {0.0f, mid}) {
    SCOPED_TRACE("threshold=" + std::to_string(threshold));
    const PipelineOut clean = run_window(win.view, wts, scale, threshold);
    if (threshold == 0.0f) {
      ASSERT_EQ(clean.stats.sensitive, clean.pred.numel());
    } else {
      ASSERT_GT(clean.stats.sensitive, 0);
      ASSERT_LT(clean.stats.sensitive, clean.pred.numel());
    }
    // Case 1: garbage in the window's padded channels, panel pads zero.
    expect_identical(clean,
                     run_window(dirty_win.view, wts, scale, threshold));
    // Case 2: garbage in the panel's padded channels, window pads zero.
    expect_identical(clean,
                     run_window(win.view, dirty_wts, scale, threshold));
  }

  // The int64-accumulator GEMM instantiation obeys the same contract.
  {
    const std::size_t n =
        static_cast<std::size_t>(win.view.batches * wts.oc * win.view.rows());
    for (const int digit_shift : {0, kLowBits}) {
      std::vector<std::int64_t> clean64(n, 0), dirty64(n, 0);
      gemm::gemm_conv_int<std::int64_t>(win.view, wts, 2 * digit_shift,
                                        digit_shift, clean64.data());
      gemm::gemm_conv_int<std::int64_t>(dirty_win.view, wts, 2 * digit_shift,
                                        digit_shift, dirty64.data());
      ASSERT_EQ(clean64, dirty64) << "digit_shift=" << digit_shift;
    }
  }

  // The block kernel itself, at every digit shift: each 2 x 4 tile over
  // poisoned window rows against clean filter rows (and the reverse) must
  // equal the clean tile. Row pairs and filter quads wrap around the
  // operand counts, so the tiles also mix first and last rows and filters.
  {
    const Kernels& kk = active_kernels();
    const gemm::CodeWindow& v = win.view;
    constexpr int kTile = kBlockRows * kBlockFilters;
    for (int shift = 0; shift <= 7; ++shift) {
      for (std::int64_t r = 0; r < v.rows(); r += kBlockRows) {
        for (std::int64_t f = 0; f < wts.oc; ++f) {
          const std::int8_t* a[kBlockRows];
          const std::int8_t* da[kBlockRows];
          const std::int8_t* b[kBlockFilters];
          const std::int8_t* db[kBlockFilters];
          for (int i = 0; i < kBlockRows; ++i) {
            a[i] = v.row(1, (r + i) % v.rows());
            da[i] = dirty_win.view.row(1, (r + i) % v.rows());
          }
          for (int j = 0; j < kBlockFilters; ++j) {
            b[j] = wts.row((f + j) % wts.oc);
            db[j] = dirty_wts.row((f + j) % wts.oc);
          }
          std::int32_t clean[kTile], dirty_a[kTile], dirty_b[kTile];
          kk.dot_block(a, b, v.seg(), v.nseg(), v.pitch(), shift, clean);
          kk.dot_block(da, b, v.seg(), v.nseg(), v.pitch(), shift, dirty_a);
          kk.dot_block(a, db, v.seg(), v.nseg(), v.pitch(), shift, dirty_b);
          for (int o = 0; o < kTile; ++o) {
            ASSERT_EQ(clean[o], dirty_a[o])
                << "shift=" << shift << " r=" << r << " f=" << f;
            ASSERT_EQ(clean[o], dirty_b[o])
                << "shift=" << shift << " r=" << r << " f=" << f;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace odq::simd
