#ifndef APOTS_NN_DENSE_H_
#define APOTS_NN_DENSE_H_

#include <string>
#include <vector>

#include "nn/initializer.h"
#include "nn/module.h"
#include "util/rng.h"

namespace apots::nn {

/// Fully connected layer: y = x W + b with x of shape [batch, in_features],
/// W of shape [in_features, out_features], b of length out_features.
class Dense : public Layer {
 public:
  Dense(size_t in_features, size_t out_features, apots::Rng* rng,
        Init init = Init::kXavierUniform);

  const Tensor* Forward(const Tensor& input,
                        tensor::Workspace* ws) const override {
    return Run(input, ws, nullptr);
  }
  const Tensor* RecordForward(const Tensor& input,
                              tensor::Workspace* ws) override {
    return Run(input, ws, &record_);
  }
  Tensor Backward(const Tensor& grad_output) override;
  void PrepareQuantized(tensor::QuantMode mode) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

 private:
  /// The forward body; `record` is null for inference.
  const Tensor* Run(const Tensor& input, tensor::Workspace* ws,
                    InputRecord* record) const;

  size_t in_features_;
  size_t out_features_;
  Parameter weight_;
  Parameter bias_;
  InputRecord record_;
  // Packed weight copies for reduced-precision inference; read only by the
  // unrecorded Forward (see Layer::PrepareQuantized).
  tensor::QuantMode quant_mode_ = tensor::QuantMode::kOff;
  tensor::Int8Matrix int8_weight_;
  tensor::Fp16Matrix fp16_weight_;
};

}  // namespace apots::nn

#endif  // APOTS_NN_DENSE_H_
