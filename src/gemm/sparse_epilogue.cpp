#include "gemm/sparse_epilogue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace odq::gemm {

std::vector<std::int64_t> valid_macs_per_row(const ConvShape& g,
                                             std::int64_t oh, std::int64_t ow) {
  std::vector<std::int64_t> ki_n(static_cast<std::size_t>(oh));
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::int64_t iy0 = oy * g.stride - g.pad;
    const std::int64_t lo = std::max<std::int64_t>(0, -iy0);
    const std::int64_t hi = std::min(g.kh, g.h - iy0);
    ki_n[static_cast<std::size_t>(oy)] = std::max<std::int64_t>(0, hi - lo);
  }
  std::vector<std::int64_t> kj_n(static_cast<std::size_t>(ow));
  for (std::int64_t ox = 0; ox < ow; ++ox) {
    const std::int64_t ix0 = ox * g.stride - g.pad;
    const std::int64_t lo = std::max<std::int64_t>(0, -ix0);
    const std::int64_t hi = std::min(g.kw, g.w - ix0);
    kj_n[static_cast<std::size_t>(ox)] = std::max<std::int64_t>(0, hi - lo);
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(oh * ow));
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      out[static_cast<std::size_t>(oy * ow + ox)] =
          g.c * ki_n[static_cast<std::size_t>(oy)] *
          kj_n[static_cast<std::size_t>(ox)];
    }
  }
  return out;
}

SparseEpilogueStats sparse_result_generation(
    const CodeWindow& win, const FilterPanel& wts,
    const tensor::TensorI32& predictor_acc, float scale,
    float threshold, tensor::TensorI32& acc, tensor::TensorU8& mask,
    std::vector<std::int64_t>& sensitive_per_channel, SensitiveLists& lists) {
  check_window_operands(win, wts, "sparse_result_generation");
  const std::int64_t n = win.batches;
  const std::int64_t rows = win.rows();
  const std::int64_t seg = win.seg();
  const std::int64_t nseg = win.nseg();
  const std::int64_t pitch = win.pitch();
  const std::int64_t oc = wts.oc;
  if (predictor_acc.numel() != n * oc * rows ||
      acc.numel() != predictor_acc.numel() ||
      mask.numel() != predictor_acc.numel()) {
    throw std::invalid_argument("sparse_result_generation: bad output shape");
  }
  if (sensitive_per_channel.size() != static_cast<std::size_t>(oc)) {
    throw std::invalid_argument(
        "sparse_result_generation: bad per-channel buffer");
  }

  lists.batches = n;
  lists.channels = oc;
  lists.rows = rows;
  lists.lists.assign(static_cast<std::size_t>(n * oc), {});

  const std::vector<std::int64_t> row_macs =
      valid_macs_per_row(win.shape, win.oh, win.ow);

  const std::int64_t tiles = n * oc;
  std::vector<std::int64_t> tile_macs(static_cast<std::size_t>(tiles), 0);

  const std::int32_t* pred_base = predictor_acc.data();
  std::int32_t* acc_base = acc.data();
  std::uint8_t* mask_base = mask.data();
  // One kernel-table fetch for the whole epilogue; the window-row dots over
  // the compacted lists are the Eq. (3) hot loop.
  const simd::Kernels& kk = simd::active_kernels();

  util::parallel_for(
      tiles,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t b = t / oc;
          const std::int64_t f = t % oc;
          const std::int32_t* pred = pred_base + t * rows;
          std::uint8_t* m = mask_base + t * rows;
          std::vector<std::int32_t>& list =
              lists.lists[static_cast<std::size_t>(t)];

          // Pass 1: threshold + compaction (ascending by construction).
          for (std::int64_t r = 0; r < rows; ++r) {
            const float mag =
                std::abs(static_cast<float>(pred[r]) * scale);
            const bool sens = mag >= threshold;
            m[r] = sens ? 1 : 0;
            if (sens) list.push_back(static_cast<std::int32_t>(r));
          }

          // Pass 2: full-code dots over the compacted list only — the
          // predictor term plus the three Eq. (3) remainders in one kernel.
          // Row pointers come from the image base and the window's offset
          // table, both held in locals across the opaque kernel calls.
          const std::int8_t* wrow = wts.row(f);
          const std::int8_t* image = win.data + b * win.image_size();
          const std::int64_t* offset = win.row_offset.data();
          const std::int64_t* valid_macs = row_macs.data();
          std::int32_t* a = acc_base + t * rows;
          std::int64_t macs = 0;
          for (const std::int32_t r : list) {
            a[r] = kk.dot_i8(image + offset[r], wrow, seg, nseg, pitch);
            macs += valid_macs[r];
          }
          tile_macs[static_cast<std::size_t>(t)] = macs;
        }
      },
      /*grain=*/1);

  // Serial reduction of the per-tile counters.
  SparseEpilogueStats stats;
  for (std::int64_t t = 0; t < tiles; ++t) {
    const std::int64_t sens =
        static_cast<std::int64_t>(lists.lists[static_cast<std::size_t>(t)]
                                      .size());
    stats.sensitive += sens;
    stats.executor_macs += tile_macs[static_cast<std::size_t>(t)];
    sensitive_per_channel[static_cast<std::size_t>(t % oc)] += sens;
  }
  return stats;
}

}  // namespace odq::gemm
