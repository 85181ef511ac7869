// Randomized differential suite for the ODQ integer pipeline
// (docs/testing.md "Property-based tests").
//
// Three properties, each over randomized geometries / thresholds /
// precisions drawn from tests/common/proptest.hpp:
//
//   1. Parallel/serial equivalence: the tiled pool path (odq_conv) is
//      bit-exact against the serial oracle (odq_conv_reference) on
//      accumulators, predictor accumulators and masks, on a 4-thread pool
//      (ODQ_THREADS is pinned to 4 below).
//   2. Eq. (3) recombination: sensitive outputs equal the oracle rebuilt
//      from the four bit-split partial-product convolutions
//      (hh << 2*lb) + ((hl + lh) << lb) + ll, which itself must equal the
//      direct INTb x INTb convolution; insensitive outputs carry the
//      predictor-only value.
//   3. Threshold extremes: threshold 0 reproduces the full integer conv
//      everywhere; a huge threshold leaves every output predictor-only.
//
// Any failure prints a replay line (see ODQ_PROP_CASE); rerun with
// ODQ_TEST_SEED=<base> to reproduce.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/proptest.hpp"
#include "core/odq.hpp"
#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "util/thread_pool.hpp"

namespace odq::core {
namespace {

using quant::QTensor;
using tensor::TensorI32;
using testprop::ConvGeom;

// Pin the global pool before its first use: the parallel-equivalence
// property must exercise a genuinely multi-threaded tiled path.
const int kForcePool = [] {
  ::setenv("ODQ_THREADS", "4", 1);
  return 4;
}();

// Eq. (3) oracle: rebuild the full integer convolution from the four
// bit-split partial-product convolutions.
TensorI32 recombination_oracle(const QTensor& in, const QTensor& w,
                               std::int64_t stride, std::int64_t pad,
                               int low_bits) {
  quant::SplitTensor si = quant::split(in, low_bits);
  quant::SplitTensor sw = quant::split(w, low_bits);
  TensorI32 hh = quant::conv2d_i8(si.high, sw.high, stride, pad);
  TensorI32 hl = quant::conv2d_i8(si.high, sw.low, stride, pad);
  TensorI32 lh = quant::conv2d_i8(si.low, sw.high, stride, pad);
  TensorI32 ll = quant::conv2d_i8(si.low, sw.low, stride, pad);
  TensorI32 out(hh.shape());
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = (hh[i] << (2 * low_bits)) + ((hl[i] + lh[i]) << low_bits) + ll[i];
  }
  return out;
}

TEST(OdqProperty, ParallelPathMatchesSerialReferenceBitExactly) {
  ASSERT_GE(util::ThreadPool::global().size(), std::size_t{4})
      << "ODQ_THREADS=4 must be set before the pool's first use";
  for (std::uint64_t i = 0; i < 80; ++i) {
    ODQ_PROP_CASE(c, i);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision prec = testprop::random_precision(c.rng());
    testprop::QuantConvCase q =
        testprop::random_quant_conv(c.rng(), g, prec.total_bits);

    OdqConfig cfg;
    cfg.threshold = testprop::random_threshold(c.rng());
    cfg.total_bits = prec.total_bits;
    cfg.low_bits = prec.low_bits;

    OdqConvResult par = odq_conv(q.input, q.weight, g.stride, g.pad, cfg);
    OdqConvResult ser =
        odq_conv_reference(q.input, q.weight, g.stride, g.pad, cfg);

    ASSERT_EQ(par.acc.numel(), ser.acc.numel()) << g.str();
    for (std::int64_t j = 0; j < par.acc.numel(); ++j) {
      ASSERT_EQ(par.acc[j], ser.acc[j]) << g.str() << " acc @" << j;
      ASSERT_EQ(par.predictor_acc[j], ser.predictor_acc[j])
          << g.str() << " predictor @" << j;
      ASSERT_EQ(par.mask[j], ser.mask[j]) << g.str() << " mask @" << j;
    }
    ASSERT_EQ(par.stats.sensitive, ser.stats.sensitive) << g.str();
  }
}

TEST(OdqProperty, SensitiveOutputsMatchRecombinationOracle) {
  for (std::uint64_t i = 100; i < 180; ++i) {
    ODQ_PROP_CASE(c, i);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision prec = testprop::random_precision(c.rng());
    testprop::QuantConvCase q =
        testprop::random_quant_conv(c.rng(), g, prec.total_bits);

    OdqConfig cfg;
    cfg.threshold = testprop::random_threshold(c.rng());
    cfg.total_bits = prec.total_bits;
    cfg.low_bits = prec.low_bits;
    OdqConvResult r = odq_conv(q.input, q.weight, g.stride, g.pad, cfg);

    TensorI32 oracle = recombination_oracle(q.input, q.weight, g.stride,
                                            g.pad, prec.low_bits);
    // The recombination identity itself: Eq. (3) summed over the receptive
    // field must equal the direct integer convolution.
    TensorI32 direct = quant::conv2d_i8(q.input.q, q.weight.q, g.stride, g.pad);
    ASSERT_EQ(oracle.numel(), r.acc.numel()) << g.str();
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(oracle[j], direct[j]) << g.str() << " Eq.(3) identity @" << j;
      if (r.mask[j] != 0) {
        ASSERT_EQ(r.acc[j], oracle[j]) << g.str() << " sensitive @" << j;
      } else {
        ASSERT_EQ(r.acc[j], r.predictor_acc[j])
            << g.str() << " insensitive @" << j;
      }
    }
  }
}

TEST(OdqProperty, ThresholdExtremes) {
  for (std::uint64_t i = 200; i < 240; ++i) {
    ODQ_PROP_CASE(c, i);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    testprop::QuantConvCase q = testprop::random_quant_conv(c.rng(), g, 4);

    OdqConfig zero_cfg;
    zero_cfg.threshold = 0.0f;
    OdqConvResult all_sensitive =
        odq_conv(q.input, q.weight, g.stride, g.pad, zero_cfg);
    TensorI32 direct = quant::conv2d_i8(q.input.q, q.weight.q, g.stride, g.pad);
    for (std::int64_t j = 0; j < direct.numel(); ++j) {
      ASSERT_EQ(all_sensitive.acc[j], direct[j])
          << g.str() << " threshold 0 @" << j;
    }

    OdqConfig huge_cfg;
    huge_cfg.threshold = 1e9f;
    OdqConvResult none_sensitive =
        odq_conv(q.input, q.weight, g.stride, g.pad, huge_cfg);
    ASSERT_EQ(none_sensitive.stats.sensitive, 0) << g.str();
    for (std::int64_t j = 0; j < none_sensitive.acc.numel(); ++j) {
      ASSERT_EQ(none_sensitive.acc[j], none_sensitive.predictor_acc[j])
          << g.str() << " huge threshold @" << j;
    }
  }
}

}  // namespace
}  // namespace odq::core
