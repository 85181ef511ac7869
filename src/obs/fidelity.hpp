// Numerical-fidelity observability: per-layer error attribution for the
// quantized executors.
//
// Time telemetry (obs/trace.hpp, obs/telemetry.hpp) shows *where the cycles
// went*; this layer shows *where the numerical error came from*. When
// enabled, every instrumented conv call compares its scheme output against
// the FP32 reference convolution and accumulates, per (scheme, layer):
//
//   * SQNR (dB), max-abs / mean-abs error, RMSE and cosine similarity of
//     the scheme output vs the FP32 reference;
//   * for ODQ additionally the same errors of the *predictor-only* output
//     (what quality would be if no output were ever escalated), and the
//     scheme-vs-reference error split by mask side — sensitive outputs
//     (bit-exact INT4xINT4) vs insensitive outputs (INT2xINT2 predictor
//     value), which is exactly the attribution the threshold trades off;
//   * a histogram of |dequantized predictor output| with the sensitivity
//     threshold recorded alongside, so a report can overlay the threshold
//     on the magnitude distribution and show how much probability mass
//     sits on each side.
//
// Collection defaults to off (ODQ_FIDELITY env var, any non-empty value
// except "0", or set_fidelity_enabled(true)) and costs one relaxed atomic
// load per conv call when disabled. When enabled it is deliberately
// expensive: each instrumented call runs an extra FP32 reference conv.
//
// Determinism: accumulation happens on the calling thread in flat index
// order, and the executors' integer pipelines are bit-exact across thread
// counts, so for a sequential forward pass the snapshot is identical
// whether the conv tiles ran on 1 or N pool workers
// (tests/obs/test_fidelity.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace odq::util {
class JsonWriter;
}  // namespace odq::util

namespace odq::obs {

// Global fidelity switch. Initialized from ODQ_FIDELITY on first query.
bool fidelity_enabled();
void set_fidelity_enabled(bool on);

// One comparison stream: error of an output array against a reference.
struct ErrorAccum {
  std::int64_t count = 0;
  double ref_sq = 0.0;   // sum ref[i]^2
  double out_sq = 0.0;   // sum out[i]^2
  double dot = 0.0;      // sum ref[i]*out[i]
  double err_sq = 0.0;   // sum (out[i]-ref[i])^2
  double err_abs = 0.0;  // sum |out[i]-ref[i]|
  double err_max = 0.0;  // max |out[i]-ref[i]|

  // 10*log10(ref_sq/err_sq), the SQNR with the FP32 output as the signal.
  // Clamped to +/-300 dB so exact matches stay representable in JSON.
  double sqnr_db() const;
  double cosine() const;  // 1.0 when either vector is all-zero
  double mean_abs_err() const { return count > 0 ? err_abs / count : 0.0; }
  double rmse() const;

  void add(double ref, double out);
  void merge(const ErrorAccum& other);
};

// Bins of the |dequantized predictor| magnitude histogram per layer cell.
inline constexpr std::size_t kFidelityHistBins = 64;

// Merged per-(scheme, layer) view at snapshot time.
struct FidelityLayerSnapshot {
  std::string scheme;      // executor name: "odq", "drq", "static_int8", ...
  int layer = -1;          // conv id; -1 for non-model (direct) calls
  std::int64_t calls = 0;
  float threshold = 0.0f;  // last ODQ sensitivity threshold seen; 0 otherwise

  ErrorAccum total;        // scheme output vs FP32 reference
  // ODQ only (zero counts for other schemes):
  ErrorAccum predictor;    // predictor-only output vs FP32 reference
  ErrorAccum sensitive;    // `total` restricted to mask==1 outputs
  ErrorAccum insensitive;  // `total` restricted to mask==0 outputs

  // |dequantized predictor| histogram (ODQ only). Fixed-width bins over
  // [hist_lo, hist_hi), bounds frozen at the cell's first record; the last
  // bin absorbs overflow. Empty for non-ODQ schemes.
  double hist_lo = 0.0;
  double hist_hi = 0.0;
  std::vector<std::uint64_t> hist;

  std::uint64_t hist_total() const;
  // Fraction of predictor magnitudes at or above `threshold` according to
  // the histogram (bin granularity; the exact count lives in `sensitive`).
  double hist_fraction_above(double t) const;

  // Exact sensitive-output fraction of this cell (mask-side counts).
  double sensitive_fraction() const {
    return total.count > 0 ? static_cast<double>(sensitive.count) /
                                 static_cast<double>(total.count)
                           : 0.0;
  }

  // Fold another cell of the same (scheme, layer) into this one: calls and
  // every error accumulator add; histograms with identical bounds add
  // bin-wise, otherwise `other`'s bins are re-binned by midpoint into this
  // cell's bounds (first record wins the bounds, matching the registry).
  // Integer fields and same-bounds histograms are exactly associative;
  // double sums associate up to floating-point rounding — the shadow lane
  // folds per-request cells in arrival order, so two runs agree to ulps,
  // not bits (tests/obs/test_quality.cpp pins both properties).
  void merge(const FidelityLayerSnapshot& other);
};

// Record one instrumented conv call of a non-ODQ scheme: `out` vs the FP32
// reference `ref`, both length `n` in the same layout.
void fidelity_record(const std::string& scheme, int layer, const float* ref,
                     const float* out, std::int64_t n);

// Record one ODQ conv call. `full` is the final ODQ output, `pred_out` the
// predictor-only output dequantized on the same scale (bias included), and
// `pred_mag[i]` the |dequantized predictor| magnitude the mask thresholded
// on (bias excluded). `mask[i] != 0` marks sensitive outputs.
void fidelity_record_odq(const std::string& scheme, int layer, float threshold,
                         const float* ref, const float* full,
                         const float* pred_out, const float* pred_mag,
                         const std::uint8_t* mask, std::int64_t n);

// Deterministic snapshot: cells sorted by (scheme, layer).
std::vector<FidelityLayerSnapshot> fidelity_snapshot();

// Scoped per-thread fidelity collection for the serving shadow lane.
//
// While a FidelityScope is alive on a thread, fidelity collection is (a)
// force-enabled on that thread regardless of the global ODQ_FIDELITY
// switch, and (b) redirected into a private registry owned by the scope —
// records made by this thread never touch the global cells, and other
// threads (e.g. serving workers on the hot path) are unaffected. This is
// what lets the shadow lane compute per-request error attribution while
// the serving process keeps the global switch off. Scopes nest (the
// innermost wins) and must be destroyed on the thread that created them.
//
// Note: the instrumented executors accumulate on the *calling* thread (see
// the determinism note at the top of this header), so a scope on the
// thread that drives model.forward() captures every conv of that pass even
// when the conv tiles themselves run on the shared pool.
class FidelityScope {
 public:
  FidelityScope();
  ~FidelityScope();
  FidelityScope(const FidelityScope&) = delete;
  FidelityScope& operator=(const FidelityScope&) = delete;

  // Cells recorded under this scope, sorted by (scheme, layer).
  std::vector<FidelityLayerSnapshot> snapshot() const;
  // Drop this scope's cells (subsequent records re-create them).
  void reset();

 private:
  void* registry_;  // owned opaque Registry
  void* prev_;      // previously installed scope registry (nesting)
};

// Drop every cell (subsequent records re-create them).
void fidelity_reset();

// Serialize a snapshot as a JSON array of per-layer objects.
void fidelity_to_json(util::JsonWriter& w);

}  // namespace odq::obs
