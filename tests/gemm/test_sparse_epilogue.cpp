// Golden regression for the mask-aware sparse epilogue: the bit mask it
// writes must agree exactly with every other view of sensitivity the
// library exposes — the threshold applied to the predictor, the per-call
// `stats.sensitive`, the per-channel counters, and the `sensitive` counter
// OdqConvExecutor's layer_stats() accumulates (the number odq_profile
// reports). Each tile's sensitive outputs (its "list") are the
// set bits of its mask plane. The epilogue must also write every
// accumulator, whatever the buffer held before.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/proptest.hpp"
#include "common/window.hpp"
#include "core/odq.hpp"
#include "gemm/gemm.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "tensor/ops.hpp"

namespace odq::gemm {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testprop::ConvGeom;

core::OdqConvResult random_odq_result(testprop::Case& c, ConvGeom& g,
                                      core::OdqConfig& cfg) {
  g = testprop::random_conv_geom(c.rng());
  const testprop::Precision p = testprop::random_precision(c.rng());
  const testprop::QuantConvCase qc =
      testprop::random_quant_conv(c.rng(), g, p.total_bits);
  cfg = core::OdqConfig{};
  cfg.total_bits = p.total_bits;
  cfg.low_bits = p.low_bits;
  cfg.threshold = testprop::random_threshold(c.rng());
  return core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
}

std::int64_t mask_popcount(const tensor::TensorU8& mask) {
  std::int64_t n = 0;
  for (std::int64_t j = 0; j < mask.numel(); ++j) n += mask[j];
  return n;
}

// Lists vs mask: each (batch, channel) tile's sensitive outputs — those
// whose dequantized predictor magnitude reaches the threshold — are
// exactly the set bits of that mask plane, and the mask popcount is the
// layer's `sensitive` counter.
TEST(SparseEpilogueGolden, ListsAreExactlyTheMaskPositions) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i);
    ConvGeom g;
    core::OdqConfig cfg;
    const core::OdqConvResult r = random_odq_result(c, g, cfg);
    SCOPED_TRACE(g.str() + " thr=" + std::to_string(cfg.threshold));

    ASSERT_EQ(r.mask.shape(), r.predictor_acc.shape());
    for (std::int64_t j = 0; j < r.mask.numel(); ++j) {
      const float mag =
          std::abs(static_cast<float>(r.predictor_acc[j]) * r.scale);
      ASSERT_EQ(r.mask[j], mag >= cfg.threshold ? 1 : 0) << "output " << j;
    }
    ASSERT_EQ(mask_popcount(r.mask), r.stats.sensitive);
  }
}

// Lists vs counters: the mask popcount is stats.sensitive, and each
// channel's mask sum (over batch and space) is sensitive_per_channel.
TEST(SparseEpilogueGolden, ListTotalsMatchLayerCounters) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i + 100);
    ConvGeom g;
    core::OdqConfig cfg;
    const core::OdqConvResult r = random_odq_result(c, g, cfg);
    SCOPED_TRACE(g.str() + " thr=" + std::to_string(cfg.threshold));

    ASSERT_EQ(mask_popcount(r.mask), r.stats.sensitive);
    const std::int64_t batches = r.mask.shape()[0];
    const std::int64_t channels = r.mask.shape()[1];
    const std::int64_t rows = r.mask.shape()[2] * r.mask.shape()[3];
    ASSERT_EQ(static_cast<std::int64_t>(r.sensitive_per_channel.size()),
              channels);
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      std::int64_t n = 0;
      for (std::int64_t b = 0; b < batches; ++b) {
        const std::uint8_t* m = r.mask.data() + (b * channels + ch) * rows;
        for (std::int64_t p = 0; p < rows; ++p) n += m[p];
      }
      ASSERT_EQ(n, r.sensitive_per_channel[static_cast<std::size_t>(ch)])
          << "channel " << ch;
    }
  }
}

// Lists vs the executor: the per-layer `sensitive` counter layer_stats()
// reports (what odq_profile prints) must equal the mask popcount of the
// same conv run through the core API — same quantization helpers, same
// deterministic pipeline.
TEST(SparseEpilogueGolden, ExecutorLayerStatsMatchCompactedLists) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 200);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const Tensor x =
        testprop::random_activations(c.rng(), Shape{g.n, g.c, g.h, g.w});
    const Tensor w =
        testprop::random_weights(c.rng(), Shape{g.oc, g.c, g.k, g.k});
    const Tensor bias = testprop::random_weights(c.rng(), Shape{g.oc});

    core::OdqConfig cfg;
    cfg.threshold = testprop::random_threshold(c.rng());
    core::OdqConvExecutor exec(cfg);
    (void)exec.run(x, w, bias, g.stride, g.pad, /*conv_id=*/0);
    const core::OdqLayerStats ls = exec.layer_stats(0);

    const quant::QTensor qin = quant::quantize_activations(x, cfg.total_bits);
    const quant::QTensor qw =
        quant::quantize_weights(w, cfg.total_bits, cfg.weight_transform);
    const core::OdqConvResult r =
        core::odq_conv(qin, qw, g.stride, g.pad, cfg);

    SCOPED_TRACE(g.str() + " thr=" + std::to_string(cfg.threshold));
    ASSERT_EQ(ls.calls, 1);
    ASSERT_EQ(ls.sensitive, mask_popcount(r.mask));
    ASSERT_EQ(ls.outputs, r.stats.outputs);
    ASSERT_EQ(ls.executor_macs, r.stats.executor_macs);
    ASSERT_EQ(exec.last_sensitive_per_channel(0), r.sensitive_per_channel);
    // The packed pipeline populated the phase breakdown odq_profile prints.
    EXPECT_GE(ls.pack_seconds, 0.0);
    EXPECT_GE(ls.gemm_seconds, 0.0);
    EXPECT_GE(ls.sparse_epilogue_seconds, 0.0);
  }
}

// Analytic MAC accounting vs a brute-force walk of the direct conv's
// in-bounds taps.
TEST(SparseEpilogueGolden, ValidMacsPerRowMatchesBruteForce) {
  for (int i = 0; i < 20; ++i) {
    ODQ_PROP_CASE(c, i + 300);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const std::int64_t oh = tensor::conv_out_dim(g.h, g.k, g.stride, g.pad);
    const std::int64_t ow = tensor::conv_out_dim(g.w, g.k, g.stride, g.pad);
    const ConvShape shape{g.c, g.h, g.w, g.k, g.k, g.stride, g.pad};
    const std::vector<std::int64_t> analytic =
        valid_macs_per_row(shape, oh, ow);
    ASSERT_EQ(static_cast<std::int64_t>(analytic.size()), oh * ow);
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        std::int64_t macs = 0;
        for (std::int64_t ki = 0; ki < g.k; ++ki) {
          const std::int64_t iy = oy * g.stride - g.pad + ki;
          if (iy < 0 || iy >= g.h) continue;
          for (std::int64_t kj = 0; kj < g.k; ++kj) {
            const std::int64_t ix = ox * g.stride - g.pad + kj;
            if (ix < 0 || ix >= g.w) continue;
            macs += g.c;
          }
        }
        ASSERT_EQ(analytic[static_cast<std::size_t>(oy * ow + ox)], macs)
            << g.str() << " oy=" << oy << " ox=" << ox;
      }
    }
  }
}

// At threshold 0 every mask bit is set (every tile's list is full); at a
// huge threshold none is (every list is empty).
TEST(SparseEpilogueGolden, ThresholdExtremesShapeTheLists) {
  ODQ_PROP_CASE(c, 999);
  const ConvGeom g = testprop::random_conv_geom(c.rng());
  const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

  core::OdqConfig all;
  all.threshold = 0.0f;
  const core::OdqConvResult r_all =
      core::odq_conv(qc.input, qc.weight, g.stride, g.pad, all);
  ASSERT_EQ(r_all.mask.numel(), r_all.stats.outputs);
  for (std::int64_t j = 0; j < r_all.mask.numel(); ++j) {
    ASSERT_EQ(r_all.mask[j], 1) << "output " << j;
  }
  ASSERT_EQ(r_all.stats.sensitive, r_all.stats.outputs);

  core::OdqConfig none;
  none.threshold = 1e30f;
  const core::OdqConvResult r_none =
      core::odq_conv(qc.input, qc.weight, g.stride, g.pad, none);
  ASSERT_EQ(r_none.mask.numel(), r_none.stats.outputs);
  for (std::int64_t j = 0; j < r_none.mask.numel(); ++j) {
    ASSERT_EQ(r_none.mask[j], 0) << "output " << j;
  }
  ASSERT_EQ(r_none.stats.sensitive, 0);
}

// The epilogue owns every accumulator: with `acc` poisoned before the
// call, a sensitive output must hold its full-code dot and an insensitive
// one its predictor value, equal to the serial reference, at a partial
// threshold and at both extremes.
TEST(SparseEpilogue, WritesEveryAccumulator) {
  constexpr std::int32_t kPoison = 0x5a5a5a5a;
  for (int i = 0; i < 20; ++i) {
    ODQ_PROP_CASE(c, i + 1200);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);
    const testwin::Window win(qc.input.q, g.k, g.k, g.stride, g.pad);
    const FilterPanel wts = pack_filter_panel(qc.weight.q);
    core::OdqConfig cfg;
    const float scale = qc.input.scale * qc.weight.scale;
    const tensor::TensorI32 pred =
        gemm_conv_i8(win.view, wts, 2 * cfg.low_bits, cfg.low_bits);
    for (const float threshold :
         {0.0f, testprop::random_threshold(c.rng()), 1e30f}) {
      cfg.threshold = threshold;
      SCOPED_TRACE(g.str() + " thr=" + std::to_string(threshold));
      const core::OdqConvResult ref =
          core::odq_conv_reference(qc.input, qc.weight, g.stride, g.pad, cfg);
      tensor::TensorI32 acc(pred.shape(), kPoison);
      tensor::TensorU8 mask(pred.shape(), 0xA5);
      std::vector<std::int64_t> per_channel(static_cast<std::size_t>(g.oc),
                                            0);
      const SparseEpilogueStats st = sparse_result_generation(
          win.view, wts, pred, scale, threshold, acc, mask, per_channel);
      ASSERT_EQ(acc.vec(), ref.acc.vec());
      ASSERT_EQ(mask.vec(), ref.mask.vec());
      ASSERT_EQ(per_channel, ref.sensitive_per_channel);
      ASSERT_EQ(st.sensitive, ref.stats.sensitive);
      ASSERT_EQ(st.executor_macs, ref.stats.executor_macs);
    }
  }
}

}  // namespace
}  // namespace odq::gemm
