// Randomized SIMD-vs-scalar differential suite: ~200 seeded cases asserting
// that every available vector backend produces results bitwise identical to
// the scalar kernels through the window GEMM paths — accumulators, layer
// stats MAC counters, masks, and compacted sensitive lists. Operands lean on
// saturating codes (tests/common/proptest.hpp random_extreme_*) because
// those expose widen/saturate mistakes plain quantized floats almost never
// reach. Every case prints a replay line on failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/proptest.hpp"
#include "common/window.hpp"
#include "core/odq.hpp"
#include "gemm/gemm.hpp"
#include "gemm/window.hpp"
#include "simd/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace odq::simd {
namespace {

using tensor::TensorI32;
using testprop::ConvGeom;

// Run `f` with backend `b` forced, restoring the previous backend after.
template <typename F>
auto with_backend(Backend b, F&& f) {
  struct Restore {
    Backend prev = active_backend();
    ~Restore() { set_backend(prev); }
  } restore;
  EXPECT_TRUE(set_backend(b));
  return f();
}

std::vector<Backend> vector_backends() {
  std::vector<Backend> v;
  for (const Backend b : kAllBackends) {
    if (b != Backend::kScalar && backend_available(b)) v.push_back(b);
  }
  return v;
}

void expect_odq_bitwise_equal(const core::OdqConvResult& ref,
                              const core::OdqConvResult& got,
                              const char* backend) {
  ASSERT_EQ(ref.acc.shape(), got.acc.shape()) << backend;
  for (std::int64_t i = 0; i < ref.acc.numel(); ++i) {
    ASSERT_EQ(ref.acc[i], got.acc[i])
        << backend << ": acc diverges at " << i;
    ASSERT_EQ(ref.predictor_acc[i], got.predictor_acc[i])
        << backend << ": predictor diverges at " << i;
    ASSERT_EQ(ref.mask[i], got.mask[i])
        << backend << ": mask diverges at " << i;
  }
  ASSERT_EQ(ref.sensitive_per_channel, got.sensitive_per_channel) << backend;
  ASSERT_EQ(ref.sensitive_lists.lists, got.sensitive_lists.lists) << backend;
  ASSERT_EQ(ref.stats.sensitive, got.stats.sensitive) << backend;
  ASSERT_EQ(ref.stats.predictor_macs, got.stats.predictor_macs) << backend;
  ASSERT_EQ(ref.stats.executor_macs, got.stats.executor_macs) << backend;
}

// Whole ODQ pipeline (predictor GEMM + sparse Eq. (3) epilogue) under each
// vector backend vs the scalar kernels, saturating codes and all supported
// precisions. 120 cases.
TEST(SimdProperty, OdqPipelineBitwiseEqualAcrossBackends) {
  const std::vector<Backend> vecs = vector_backends();
  for (int i = 0; i < 120; ++i) {
    ODQ_PROP_CASE(c, i + 20000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    // Half extreme-leaning codes, half the smooth quantized-float corpus.
    const testprop::QuantConvCase qc =
        c.rng().bernoulli(0.5)
            ? testprop::random_extreme_quant_conv(c.rng(), g, p.total_bits)
            : testprop::random_quant_conv(c.rng(), g, p.total_bits);

    core::OdqConfig cfg;
    cfg.total_bits = p.total_bits;
    cfg.low_bits = p.low_bits;
    cfg.threshold = testprop::random_threshold(c.rng());
    SCOPED_TRACE(g.str() + " lb=" + std::to_string(p.low_bits) +
                 " thr=" + std::to_string(cfg.threshold));

    const core::OdqConvResult ref = with_backend(Backend::kScalar, [&] {
      return core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
    });
    for (const Backend b : vecs) {
      const core::OdqConvResult got = with_backend(b, [&] {
        return core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
      });
      expect_odq_bitwise_equal(ref, got, backend_name(b));
    }
  }
}

// Bare window INT-GEMM across backends, both as the full-code dot and as
// the digit-shifted ODQ predictor (dot_block at every shift 1..7). 60
// cases.
TEST(SimdProperty, PackedGemmBitwiseEqualAcrossBackends) {
  const std::vector<Backend> vecs = vector_backends();
  for (int i = 0; i < 60; ++i) {
    ODQ_PROP_CASE(c, i + 21000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_extreme_quant_conv(c.rng(), g, /*bits=*/8);

    const testwin::Window win(qc.input.q, g.k, g.k, g.stride, g.pad);
    const gemm::FilterPanel wts = gemm::pack_filter_panel(qc.weight.q);
    const int shift = c.rng().uniform_int(0, 6);
    for (const int digit_shift : {0, 1 + i % 7}) {
      SCOPED_TRACE(g.str() + " shift=" + std::to_string(shift) +
                   " digit_shift=" + std::to_string(digit_shift));
      const TensorI32 ref = with_backend(Backend::kScalar, [&] {
        return gemm::gemm_conv_i8(win.view, wts, shift, digit_shift);
      });
      for (const Backend b : vecs) {
        const TensorI32 got = with_backend(b, [&] {
          return gemm::gemm_conv_i8(win.view, wts, shift, digit_shift);
        });
        SCOPED_TRACE(backend_name(b));
        ASSERT_EQ(ref.vec(), got.vec());
      }
    }
  }
}

// The int64-accumulator instantiation across backends (the acc64 kernels
// share no code with the int32 ones). 20 cases.
TEST(SimdProperty, Int64AccumulatorBitwiseEqualAcrossBackends) {
  const std::vector<Backend> vecs = vector_backends();
  for (int i = 0; i < 20; ++i) {
    ODQ_PROP_CASE(c, i + 22000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_extreme_quant_conv(c.rng(), g, /*bits=*/8);

    const testwin::Window win(qc.input.q, g.k, g.k, g.stride, g.pad);
    const gemm::FilterPanel wts = gemm::pack_filter_panel(qc.weight.q);
    const std::size_t n = static_cast<std::size_t>(
        win.view.batches * wts.oc * win.view.rows());
    SCOPED_TRACE(g.str());

    std::vector<std::int64_t> ref(n, 0);
    with_backend(Backend::kScalar, [&] {
      gemm::gemm_conv_int<std::int64_t>(win.view, wts, 0, 0, ref.data());
      return 0;
    });
    for (const Backend b : vecs) {
      std::vector<std::int64_t> got(n, 0);
      with_backend(b, [&] {
        gemm::gemm_conv_int<std::int64_t>(win.view, wts, 0, 0, got.data());
        return 0;
      });
      SCOPED_TRACE(backend_name(b));
      ASSERT_EQ(ref, got);
    }
  }
}

}  // namespace
}  // namespace odq::simd
