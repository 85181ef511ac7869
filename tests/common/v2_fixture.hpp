// The committed legacy v2 checkpoint, tests/nn/testdata/v2_tiny.ckpt.
//
// The library reads v2 files but no longer writes them, so v2 coverage runs
// against fixed bytes. The fixture was written once by the last v2 writer
// from make_v2_fixture_model(): a tiny conv/BN/linear model whose 17
// parameter and 4 buffer values cycle, in params-then-buffers order,
// through kV2FixturePatterns — signed zeros, denormals, infinities and NaN
// payloads, the bit patterns a byte-level format must carry unchanged.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"

namespace odq::testutil {

inline constexpr std::uint32_t kV2FixturePatterns[] = {
    0x00000000u,  // +0
    0x80000000u,  // -0
    0x00000001u,  // smallest positive denormal
    0x807fffffu,  // largest negative denormal
    0x7f800000u,  // +Inf
    0xff800000u,  // -Inf
    0x7fc00000u,  // quiet NaN
    0x7fc0beefu,  // quiet NaN with a payload
    0x7f800001u,  // signalling NaN payload
    0xffc00001u,  // negative NaN with a payload
    0x3f800000u,  // 1.0
    0xc0200000u,  // -2.5
};

inline std::string v2_fixture_path() {
  return std::string(ODQ_TESTS_DIR) + "/nn/testdata/v2_tiny.ckpt";
}

// The fixture's architecture, with default-initialized values.
inline nn::Model make_v2_fixture_arch() {
  nn::Model m("v2_fixture");
  m.add<nn::Conv2d>(1, 2, 1, 1, 0);
  m.add<nn::BatchNorm2d>(2);
  m.add<nn::ReLU>();
  m.add<nn::GlobalAvgPool>();
  m.add<nn::Flatten>();
  m.add<nn::Linear>(2, 3);
  return m;
}

// The model the fixture holds, bit for bit.
inline nn::Model make_v2_fixture_model() {
  nn::Model m = make_v2_fixture_arch();
  std::size_t k = 0;
  auto fill = [&k](tensor::Tensor& t) {
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      const std::uint32_t bits =
          kV2FixturePatterns[k++ % std::size(kV2FixturePatterns)];
      std::memcpy(t.data() + i, &bits, sizeof(bits));
    }
  };
  for (nn::Param* p : m.params()) fill(p->value);
  for (tensor::Tensor* b : m.buffers()) fill(*b);
  return m;
}

// Bitwise equality over every parameter and buffer — NaN payloads and
// signed zeros included (operator== would treat NaN != NaN and
// -0.0 == 0.0).
inline ::testing::AssertionResult models_bitwise_equal(nn::Model& a,
                                                       nn::Model& b) {
  auto pa = a.params(), pb = b.params();
  if (pa.size() != pb.size()) {
    return ::testing::AssertionFailure() << "param count mismatch";
  }
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->value.numel() != pb[i]->value.numel()) {
      return ::testing::AssertionFailure() << pa[i]->name << " numel mismatch";
    }
    if (std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                    static_cast<std::size_t>(pa[i]->value.numel()) *
                        sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << pa[i]->name << " bytes differ";
    }
  }
  auto ba = a.buffers(), bb = b.buffers();
  if (ba.size() != bb.size()) {
    return ::testing::AssertionFailure() << "buffer count mismatch";
  }
  for (std::size_t i = 0; i < ba.size(); ++i) {
    if (ba[i]->numel() != bb[i]->numel() ||
        std::memcmp(ba[i]->data(), bb[i]->data(),
                    static_cast<std::size_t>(ba[i]->numel()) *
                        sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "buffer " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace odq::testutil
