#include "data/scaler.h"

#include <algorithm>

#include "util/logging.h"

namespace apots::data {

void MinMaxScaler::Fit(const float* values, size_t count) {
  APOTS_CHECK_GT(count, 0u);
  float lo = values[0];
  float hi = values[0];
  for (size_t i = 1; i < count; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  SetRange(lo, hi);
}

void MinMaxScaler::SetRange(float min_value, float max_value) {
  APOTS_CHECK_LT(min_value, max_value);
  min_ = min_value;
  max_ = max_value;
  fitted_ = true;
}

float MinMaxScaler::Transform(float value) const {
  APOTS_DCHECK(fitted_);
  return (value - min_) / (max_ - min_);
}

float MinMaxScaler::Inverse(float scaled) const {
  APOTS_DCHECK(fitted_);
  return scaled * (max_ - min_) + min_;
}

}  // namespace apots::data
