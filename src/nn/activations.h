#ifndef APOTS_NN_ACTIVATIONS_H_
#define APOTS_NN_ACTIVATIONS_H_

#include <string>

#include "nn/module.h"

namespace apots::nn {

/// Rectified linear unit, elementwise max(0, x).
class Relu : public Layer {
 public:
  Relu() = default;
  Tensor Forward(const Tensor& input, bool training) override;
  const Tensor* Forward(const Tensor& input, bool training,
                        tensor::Workspace* ws) const override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Relu"; }

 private:
  Tensor cached_input_;
};

/// Leaky ReLU with configurable negative slope (default 0.2, the usual GAN
/// discriminator choice).
class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(float slope = 0.2f) : slope_(slope) {}
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;

 private:
  float slope_;
  Tensor cached_input_;
};

/// The LSTM cell kernel's one-lane sigmoid (tensor::simd::SigmoidLane), so
/// the BCE loss and the cell round alike.
float SigmoidScalar(float x);

}  // namespace apots::nn

#endif  // APOTS_NN_ACTIVATIONS_H_
