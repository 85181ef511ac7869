// Differential kernel-test harness for the tiled GEMM core (src/gemm/):
// ~200 seeded cases proving the implicit-GEMM code window and the packed
// float im2col bit-identical to the retained direct-conv oracles across
// schemes, strides/padding, odd channel counts, and both threshold
// extremes, plus fuzzing of the window and filter-panel layouts against
// quant::im2col_i8 and the OIHW weights, and the window geometries the
// model zoo runs. Every case prints a replay line on failure
// (tests/common/proptest.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/proptest.hpp"
#include "common/window.hpp"
#include "core/odq.hpp"
#include "gemm/gemm.hpp"
#include "gemm/packed.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "gemm/window.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"

namespace odq::gemm {
namespace {

using quant::QTensor;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;
using testprop::ConvGeom;
using testwin::Window;

// --- Window INT-GEMM vs the direct integer conv oracle --------------------

TEST(GemmDifferential, PackedIntGemmMatchesDirectConv) {
  for (int i = 0; i < 60; ++i) {
    ODQ_PROP_CASE(c, i);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    const TensorI32 oracle =
        quant::conv2d_i8(qc.input.q, qc.weight.q, g.stride, g.pad);

    const Window win(qc.input.q, g.k, g.k, g.stride, g.pad);
    const FilterPanel wts = pack_filter_panel(qc.weight.q);
    const TensorI32 packed = gemm_conv_i8(win.view, wts, /*shift=*/0);

    SCOPED_TRACE(g.str());
    ASSERT_EQ(packed.shape(), oracle.shape());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(packed[j], oracle[j]) << "accumulator diverges at " << j;
    }
  }
}

TEST(GemmDifferential, FoldedShiftMatchesPostShiftedOracle) {
  for (int i = 0; i < 20; ++i) {
    ODQ_PROP_CASE(c, i + 1000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);
    const int shift = 2 * p.low_bits;

    TensorI32 oracle = quant::conv2d_i8(qc.input.q, qc.weight.q, g.stride,
                                        g.pad);
    for (std::int64_t j = 0; j < oracle.numel(); ++j) oracle[j] <<= shift;

    const Window win(qc.input.q, g.k, g.k, g.stride, g.pad);
    const FilterPanel wts = pack_filter_panel(qc.weight.q);
    const TensorI32 packed = gemm_conv_i8(win.view, wts, shift);
    SCOPED_TRACE(g.str());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(packed[j], oracle[j]);
    }
  }
}

// --- Packed float GEMM vs the direct float conv oracle --------------------

TEST(GemmDifferential, FloatGemmMatchesDirectConvBitwise) {
  for (int i = 0; i < 40; ++i) {
    ODQ_PROP_CASE(c, i + 3000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const Tensor x =
        testprop::random_activations(c.rng(), Shape{g.n, g.c, g.h, g.w});
    const Tensor w =
        testprop::random_weights(c.rng(), Shape{g.oc, g.c, g.k, g.k});
    Tensor bias;
    if (c.rng().uniform_int(0, 1) == 1) {
      bias = testprop::random_weights(c.rng(), Shape{g.oc});
    }

    const Tensor oracle = tensor::conv2d_direct(x, w, bias, g.stride, g.pad);
    const Tensor packed = conv2d_f32(x, w, bias, g.stride, g.pad);
    SCOPED_TRACE(g.str());
    ASSERT_EQ(packed.shape(), oracle.shape());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      // Exact equality: the float kernel replays the oracle's accumulation
      // order, so this is not a tolerance check.
      ASSERT_EQ(packed[j], oracle[j]) << "float output diverges at " << j;
    }
  }
}

// --- Whole-pipeline ODQ: packed path vs the serial direct reference -------

void expect_odq_bitwise_equal(const core::OdqConvResult& ref,
                              const core::OdqConvResult& par) {
  ASSERT_EQ(ref.acc.shape(), par.acc.shape());
  for (std::int64_t i = 0; i < ref.acc.numel(); ++i) {
    ASSERT_EQ(ref.acc[i], par.acc[i]) << "acc diverges at " << i;
    ASSERT_EQ(ref.predictor_acc[i], par.predictor_acc[i])
        << "predictor diverges at " << i;
    ASSERT_EQ(ref.mask[i], par.mask[i]) << "mask diverges at " << i;
  }
  ASSERT_EQ(ref.sensitive_per_channel, par.sensitive_per_channel);
  EXPECT_FLOAT_EQ(ref.scale, par.scale);
  EXPECT_EQ(ref.stats.sensitive, par.stats.sensitive);
  EXPECT_EQ(ref.stats.predictor_macs, par.stats.predictor_macs);
  EXPECT_EQ(ref.stats.executor_macs, par.stats.executor_macs);
}

TEST(GemmDifferential, OdqPackedPipelineMatchesDirectReference) {
  for (int i = 0; i < 50; ++i) {
    ODQ_PROP_CASE(c, i + 4000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    core::OdqConfig cfg;
    cfg.total_bits = p.total_bits;
    cfg.low_bits = p.low_bits;
    cfg.threshold = testprop::random_threshold(c.rng());

    const core::OdqConvResult ref =
        core::odq_conv_reference(qc.input, qc.weight, g.stride, g.pad, cfg);
    const core::OdqConvResult par =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, cfg);
    SCOPED_TRACE(g.str() + " thr=" + std::to_string(cfg.threshold));
    expect_odq_bitwise_equal(ref, par);
  }
}

TEST(GemmDifferential, OdqThresholdExtremes) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 5000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

    // Threshold 0: everything sensitive -> bit-exact full INT4 conv.
    core::OdqConfig all;
    all.threshold = 0.0f;
    const core::OdqConvResult r_all =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, all);
    ASSERT_EQ(r_all.stats.sensitive, r_all.stats.outputs);
    const TensorI32 full =
        quant::conv2d_i8(qc.input.q, qc.weight.q, g.stride, g.pad);
    for (std::int64_t j = 0; j < full.numel(); ++j) {
      ASSERT_EQ(r_all.acc[j], full[j]);
    }

    // Huge threshold: nothing sensitive -> predictor-only accumulators.
    core::OdqConfig none;
    none.threshold = 1e30f;
    const core::OdqConvResult r_none =
        core::odq_conv(qc.input, qc.weight, g.stride, g.pad, none);
    ASSERT_EQ(r_none.stats.sensitive, 0);
    ASSERT_EQ(r_none.stats.executor_macs, 0);
    for (std::int64_t j = 0; j < r_none.acc.numel(); ++j) {
      ASSERT_EQ(r_none.acc[j], r_none.predictor_acc[j]);
    }
  }
}

// --- Window and filter-panel layout fuzzing -------------------------------

// Every window row, read segment by segment, is exactly the receptive field
// quant::im2col_i8 computes; the padded channels [C, cp) of every pixel,
// border included, are zero; and the window is N x Hp x Wp x cp.
TEST(GemmWindow, RowsMatchReferenceIm2col) {
  for (int i = 0; i < 25; ++i) {
    ODQ_PROP_CASE(c, i + 6000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::QuantConvCase qc = testprop::random_quant_conv(c.rng(), g);

    const TensorI8 oracle =
        quant::im2col_i8(qc.input.q, g.k, g.k, g.stride, g.pad);
    const Window win(qc.input.q, g.k, g.k, g.stride, g.pad);
    const CodeWindow& v = win.view;
    SCOPED_TRACE(g.str());
    ASSERT_EQ(v.cp, pad_channels(g.c));
    ASSERT_EQ(v.size(),
              g.n * (g.h + 2 * g.pad) * (g.w + 2 * g.pad) * v.cp);
    ASSERT_EQ(v.depth(), g.k * g.k * v.cp);
    const TensorI8 rows = testwin::window_im2col(v);
    ASSERT_EQ(rows.shape(), oracle.shape());
    for (std::int64_t j = 0; j < oracle.numel(); ++j) {
      ASSERT_EQ(rows[j], oracle[j]) << "im2col diverges at " << j;
    }
    for (std::int64_t px = 0; px < v.size() / v.cp; ++px) {
      for (std::int64_t ch = g.c; ch < v.cp; ++ch) {
        ASSERT_EQ(v.data[px * v.cp + ch], 0) << "pixel " << px;
      }
    }
  }
}

// The panel is tap-major [OC][kh][kw][cp] and zero in the padded channels.
TEST(GemmRoundTrip, WeightPanelRoundTrips) {
  for (int i = 0; i < 10; ++i) {
    ODQ_PROP_CASE(c, i + 8000);
    const ConvGeom g = testprop::random_conv_geom(c.rng());
    const testprop::Precision p = testprop::random_precision(c.rng());
    const testprop::QuantConvCase qc =
        testprop::random_quant_conv(c.rng(), g, p.total_bits);

    const FilterPanel wts = pack_filter_panel(qc.weight.q);
    ASSERT_EQ(wts.oc, g.oc);
    ASSERT_EQ(wts.c, g.c);
    ASSERT_EQ(wts.depth(), g.k * g.k * pad_channels(g.c));
    for (std::int64_t f = 0; f < wts.oc; ++f) {
      const std::int8_t* row = wts.row(f);
      for (std::int64_t ki = 0; ki < g.k; ++ki) {
        for (std::int64_t kj = 0; kj < g.k; ++kj) {
          const std::int8_t* tap = row + (ki * g.k + kj) * wts.cp;
          for (std::int64_t ch = 0; ch < g.c; ++ch) {
            ASSERT_EQ(tap[ch],
                      qc.weight.q[((f * g.c + ch) * g.k + ki) * g.k + kj]);
          }
          for (std::int64_t ch = g.c; ch < wts.cp; ++ch) {
            ASSERT_EQ(tap[ch], 0);
          }
        }
      }
    }
  }
}

TEST(GemmPacking, RejectsBadGeometry) {
  std::vector<std::int8_t> storage;
  TensorI8 bad(Shape{2, 3, 4});  // not NCHW
  EXPECT_THROW(build_code_window(bad, 3, 3, 1, 1, storage),
               std::invalid_argument);
  TensorI8 img(Shape{1, 2, 4, 4});
  EXPECT_THROW(build_code_window(img, 7, 7, 1, 0, storage),
               std::invalid_argument);
  EXPECT_THROW(build_code_window(img, 3, 3, 0, 1, storage),
               std::invalid_argument);
  TensorI8 w(Shape{3, 2, 3});  // not OIHW
  EXPECT_THROW(pack_filter_panel(w), std::invalid_argument);
  // Operands of different convs must be rejected by the GEMM and the
  // epilogue: a channel mismatch, then a kernel-size mismatch.
  TensorI8 in(Shape{1, 2, 5, 5});
  std::vector<std::int8_t> win_storage;
  const CodeWindow win = build_code_window(in, 3, 3, 1, 1, win_storage);
  for (const Shape& ws : {Shape{2, 3, 3, 3}, Shape{2, 2, 1, 3}}) {
    const FilterPanel wts = pack_filter_panel(TensorI8(ws));
    EXPECT_THROW(gemm_conv_i8(win, wts, 0), std::invalid_argument);
    const TensorI32 pred(Shape{1, 2, 5, 5});
    TensorI32 acc(pred.shape());
    tensor::TensorU8 mask(pred.shape());
    std::vector<std::int64_t> per_channel(2, 0);
    EXPECT_THROW(sparse_result_generation(win, wts, pred, 1.0f, 0.0f, acc,
                                          mask, per_channel),
                 std::invalid_argument);
  }
}

// --- The window geometries the model zoo runs -----------------------------

// Seeded int8 codes over the whole range, -128 included.
TensorI8 random_codes(util::Rng& rng, Shape shape) {
  TensorI8 t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  return t;
}

// Checks one window geometry end to end: the rows against
// quant::im2col_i8, the predictor GEMM at digit shifts 0 and 2 against
// quant::conv2d_i8 of the shifted codes, and the Eq. (3) epilogue over
// every output (threshold 0) against the full-code direct conv.
void check_window_geometry(const TensorI8& x, const TensorI8& w,
                           std::int64_t stride, std::int64_t pad) {
  const std::int64_t kh = w.shape()[2], kw = w.shape()[3];
  const Window win(x, kh, kw, stride, pad);
  const FilterPanel wts = pack_filter_panel(w);
  const TensorI8 im2col = quant::im2col_i8(x, kh, kw, stride, pad);
  ASSERT_EQ(testwin::window_im2col(win.view).vec(), im2col.vec());

  for (const int ds : {0, 2}) {
    TensorI8 xh(x.shape());
    TensorI8 wh(w.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      xh[i] = static_cast<std::int8_t>(x[i] >> ds);
    }
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      wh[i] = static_cast<std::int8_t>(w[i] >> ds);
    }
    const TensorI32 want = quant::conv2d_i8(xh, wh, stride, pad);
    const TensorI32 got = gemm_conv_i8(win.view, wts, 0, ds);
    ASSERT_EQ(got.shape(), want.shape());
    ASSERT_EQ(got.vec(), want.vec()) << "digit_shift=" << ds;
  }

  const TensorI32 full = quant::conv2d_i8(x, w, stride, pad);
  const TensorI32 pred = gemm_conv_i8(win.view, wts, 4, 2);
  TensorI32 acc(pred.shape());
  tensor::TensorU8 mask(pred.shape());
  std::vector<std::int64_t> per_channel(static_cast<std::size_t>(wts.oc), 0);
  const SparseEpilogueStats st = sparse_result_generation(
      win.view, wts, pred, 1.0f, 0.0f, acc, mask, per_channel);
  ASSERT_EQ(st.sensitive, pred.numel());
  ASSERT_EQ(acc.vec(), full.vec());
}

TEST(GemmWindow, ModelGeometriesMatchIm2colAndDirectConv) {
  util::Rng rng(61);
  // The stem: C = 3, so the window pads 13 channels per pixel (cp = 16).
  {
    SCOPED_TRACE("stem c3 3x3 s1 p1");
    check_window_geometry(random_codes(rng, Shape{2, 3, 9, 9}),
                          random_codes(rng, Shape{6, 3, 3, 3}), 1, 1);
  }
  // A stage's first conv: 3x3 stride 2 pad 1.
  {
    SCOPED_TRACE("c16 3x3 s2 p1");
    check_window_geometry(random_codes(rng, Shape{2, 16, 8, 8}),
                          random_codes(rng, Shape{5, 16, 3, 3}), 2, 1);
  }
  // The 1x1 stride-2 pad-0 projection shortcut: one segment per row.
  {
    SCOPED_TRACE("c16 1x1 s2 p0");
    check_window_geometry(random_codes(rng, Shape{2, 16, 8, 8}),
                          random_codes(rng, Shape{7, 16, 1, 1}), 2, 0);
  }
  // Batch 1, as the serving engine runs it, with two lane blocks per tap.
  {
    SCOPED_TRACE("n1 c32 3x3 s1 p1");
    check_window_geometry(random_codes(rng, Shape{1, 32, 6, 6}),
                          random_codes(rng, Shape{4, 32, 3, 3}), 1, 1);
  }
}

// The last row's last segment ends on the window's last byte when the
// kernel's last placement covers the padded input exactly (stride 1, or
// stride 2 over an odd padded size). The storage is exactly the window, so
// the ASan job reports any read past it from the GEMM or the epilogue.
TEST(GemmWindow, LastSegmentEndsAtBufferEnd) {
  util::Rng rng(67);
  struct Geometry {
    Shape x, w;
    std::int64_t stride, pad;
  };
  for (const Geometry& geo :
       {Geometry{Shape{2, 3, 7, 7}, Shape{5, 3, 3, 3}, 1, 1},
        Geometry{Shape{1, 16, 7, 7}, Shape{6, 16, 3, 3}, 2, 1},
        Geometry{Shape{2, 16, 7, 7}, Shape{3, 16, 1, 1}, 2, 0}}) {
    const TensorI8 x = random_codes(rng, geo.x);
    const TensorI8 w = random_codes(rng, geo.w);
    const Window win(x, geo.w[2], geo.w[3], geo.stride, geo.pad);
    const CodeWindow& v = win.view;
    ASSERT_EQ(win.storage.size(), static_cast<std::size_t>(v.size()));
    ASSERT_EQ(win.storage.capacity(), win.storage.size());
    const std::int8_t* last_end = v.row(v.batches - 1, v.rows() - 1) +
                                  (v.nseg() - 1) * v.pitch() + v.seg();
    ASSERT_EQ(last_end, win.storage.data() + win.storage.size());
    SCOPED_TRACE("stride " + std::to_string(geo.stride));
    check_window_geometry(x, w, geo.stride, geo.pad);
  }
}

}  // namespace
}  // namespace odq::gemm
