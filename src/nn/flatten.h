#ifndef APOTS_NN_FLATTEN_H_
#define APOTS_NN_FLATTEN_H_

#include <string>

#include "nn/module.h"

namespace apots::nn {

/// Reshapes [batch, d1, d2, ...] to [batch, d1*d2*...]; the gradient is the
/// inverse reshape. Used to bridge Conv2d output into Dense layers.
class Flatten : public Layer {
 public:
  Flatten() = default;

  Tensor Forward(const Tensor& input, bool training) override;
  const Tensor* Forward(const Tensor& input, bool training,
                        tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Flatten"; }

 private:
  std::vector<size_t> cached_shape_;
};

}  // namespace apots::nn

#endif  // APOTS_NN_FLATTEN_H_
