// Sample percentiles used by calibration (activation clipping, threshold
// search, DRQ region selection) and by the serving load generator.
#pragma once

#include <vector>

namespace odq::util {

// Percentile of a sample (linear interpolation between order statistics).
// q in [0, 1]. The input is copied; the original order is preserved.
double percentile(std::vector<double> values, double q);
double percentile(std::vector<float> values, double q);

}  // namespace odq::util
