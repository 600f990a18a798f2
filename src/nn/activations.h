#ifndef APOTS_NN_ACTIVATIONS_H_
#define APOTS_NN_ACTIVATIONS_H_

#include <string>

#include "nn/module.h"

namespace apots::nn {

/// Rectified linear unit, elementwise max(0, x).
class Relu : public Layer {
 public:
  Relu() = default;
  const Tensor* Forward(const Tensor& input,
                        tensor::Workspace* ws) const override {
    return Run(input, ws, nullptr);
  }
  const Tensor* RecordForward(const Tensor& input,
                              tensor::Workspace* ws) override {
    return Run(input, ws, &record_);
  }
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Relu"; }

 private:
  /// The forward body; `record` is null for inference.
  const Tensor* Run(const Tensor& input, tensor::Workspace* ws,
                    InputRecord* record) const;

  InputRecord record_;
};

/// Leaky ReLU with configurable negative slope (default 0.2, the usual GAN
/// discriminator choice).
class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(float slope = 0.2f) : slope_(slope) {}
  const Tensor* Forward(const Tensor& input,
                        tensor::Workspace* ws) const override {
    return Run(input, ws, nullptr);
  }
  const Tensor* RecordForward(const Tensor& input,
                              tensor::Workspace* ws) override {
    return Run(input, ws, &record_);
  }
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;

 private:
  /// The forward body; `record` is null for inference.
  const Tensor* Run(const Tensor& input, tensor::Workspace* ws,
                    InputRecord* record) const;

  float slope_;
  InputRecord record_;
};

/// The LSTM cell kernel's one-lane sigmoid (tensor::simd::SigmoidLane), so
/// the BCE loss and the cell round alike.
float SigmoidScalar(float x);

}  // namespace apots::nn

#endif  // APOTS_NN_ACTIVATIONS_H_
