// The libm activations the LSTM cell kernel replaced, and the bound the
// kernel's one-lane form keeps to them. Shared by kernel_equivalence_test
// (a stride of inputs) and lstm_cell_exhaustive_test (all 2^32 inputs).

#ifndef APOTS_TESTS_LSTM_CELL_REFERENCE_H_
#define APOTS_TESTS_LSTM_CELL_REFERENCE_H_

#include <cmath>
#include <limits>

namespace apots::tensor::testing {

/// The cell's sigmoid and tanh before the kernel: piecewise std::exp and
/// std::tanh.
inline float LibmSigmoid(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float z = std::exp(x);
  return z / (1.0f + z);
}

inline float LibmTanh(float x) { return std::tanh(x); }

/// Largest error of the one-lane forms against the libm forms over all
/// 2^32 inputs: absolute everywhere, relative where the libm output is a
/// normal float (below that both sides round to subnormals or zero).
inline constexpr double kAbsBound = 1.2e-7;
inline constexpr double kRelBound = 2.5e-7;

struct ActivationError {
  double abs = 0.0;
  double rel = 0.0;

  void Add(float got, float want) {
    const double err = std::fabs(static_cast<double>(got) - want);
    if (err > abs) abs = err;
    if (std::fabs(want) >= std::numeric_limits<float>::min() &&
        err / std::fabs(want) > rel) {
      rel = err / std::fabs(want);
    }
  }
  void Merge(const ActivationError& other) {
    if (other.abs > abs) abs = other.abs;
    if (other.rel > rel) rel = other.rel;
  }
};

}  // namespace apots::tensor::testing

#endif  // APOTS_TESTS_LSTM_CELL_REFERENCE_H_
