#ifndef APOTS_DATA_SCALER_H_
#define APOTS_DATA_SCALER_H_

#include <cstddef>
#include <vector>

namespace apots::data {

/// Min-max scaler mapping [min, max] -> [0, 1]. Fit on training data only;
/// transform clamps nothing (values outside the fit range map outside
/// [0, 1], which is fine for the networks).
class MinMaxScaler {
 public:
  MinMaxScaler() = default;

  /// Fits on a raw value range.
  void Fit(const float* values, size_t count);
  void Fit(const std::vector<float>& values) {
    Fit(values.data(), values.size());
  }

  /// Sets the range directly (e.g. physical speed bounds).
  void SetRange(float min_value, float max_value);

  float Transform(float value) const;
  float Inverse(float scaled) const;

  bool fitted() const { return fitted_; }
  float min_value() const { return min_; }
  float max_value() const { return max_; }

 private:
  bool fitted_ = false;
  float min_ = 0.0f;
  float max_ = 1.0f;
};

}  // namespace apots::data

#endif  // APOTS_DATA_SCALER_H_
